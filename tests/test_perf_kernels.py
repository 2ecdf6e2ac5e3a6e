"""The memory, Lustre and concurrency kernels, on a job table and its
joined performance columns, against the record-at-a-time oracle, by repr,
and the run's one join of summaries to the job table."""
import csv
import dataclasses
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rollups_oracle as oracle
from conftest import (GIB, column_arrays, jobs_of, make_job, make_resource, perf_columns,
                      table_of)
from hpcwl import synth
from hpcwl.ingest import FactorWindow
from hpcwl.metrics import (
    PerfColumns,
    concurrency_histograms,
    large_memory_breakdown,
    lustre_stats,
    memory_2d,
    memory_histograms,
)
from hpcwl.metrics.memory import X_AXES, Y_AXES
from hpcwl.metrics.rollups import WEIGHTS
from hpcwl.perfsummary import JobPerfSummary, LaunchType
from hpcwl.report import ReportContext, ReportSpec, run_report, standard_bundle_spec
from hpcwl.stats import total

DAY = 86400
Q4_2015 = 1443657600  # 2015-10-01T00:00:00Z, a midnight and a quarter boundary

RESOURCES = {
    # a large-memory queue with its own node memory; factor 2.0 over 2010-2030
    "TESTMACHINE": make_resource(large_memory_queues=frozenset({"largemem"}),
                                 large_mem_per_node=1024 * GIB),
    # no node memory, and a large-memory queue with none either; no factor
    # on 2015-10-01 itself, and none from 2016-01-01 on
    "PARTIAL": dataclasses.replace(
        make_resource(name="PARTIAL", cores_per_node=4, mem_per_node=None,
                      large_memory_queues=frozenset({"largemem"})),
        su_factors=(FactorWindow(date(2015, 1, 1), date(2015, 10, 1), 1.5),
                    FactorWindow(date(2015, 10, 2), date(2016, 1, 1), 3.0))),
    # node memory that is not positive
    "ZEROMEM": make_resource(name="ZEROMEM", nodes=2, cores_per_node=2, mem_per_node=0),
}
# GHOST has no description: no factor, no geometry
RESOURCE_NAMES = ("TESTMACHINE", "PARTIAL", "ZEROMEM", "GHOST")
JOB_IDS = ("a", "b", "c", "d", "e", "f")

# midnights, a quarter boundary and instants before 1970
ANCHORS = st.sampled_from((Q4_2015, Q4_2015 - 40 * DAY, 0, -400 * DAY))
OFFSETS = st.one_of(st.sampled_from((-DAY, -1, 0, 1, 3600)), st.integers(-3 * DAY, 3 * DAY))
# zero-length jobs, jobs of whole days, and jobs spanning several midnights
DURATIONS = st.one_of(st.sampled_from((0, 0, 1, DAY, 2 * DAY)), st.integers(0, 4 * DAY))


@st.composite
def jobs_strategy(draw):
    jobs = []
    for _ in range(draw(st.integers(0, 25))):
        start = draw(ANCHORS) + draw(OFFSETS)
        end = start + draw(DURATIONS)
        if draw(st.booleans()):  # end exactly at a midnight
            end = max(start, -(-end // DAY) * DAY)
        nodes = draw(st.integers(1, 4))
        jobs.append(make_job(
            job_id=draw(st.sampled_from(JOB_IDS)),  # ids repeat
            resource=draw(st.sampled_from(RESOURCE_NAMES)),
            submit=start - draw(st.sampled_from((0, 60))), start=start, end=end,
            nodes=nodes, cores=nodes * draw(st.sampled_from((1, 2, 16))),
            queue=draw(st.sampled_from(("normal", "largemem"))),
            local_su=draw(st.floats(0.0, 1e6)),
            parent_science=draw(st.sampled_from(("Physics", "Chemistry")))))
    return jobs


def _field(values):
    """None, NaN, a sampled value or any value from ``values``."""
    return st.one_of(st.none(), st.just(math.nan), values)


PER_CORE = st.one_of(st.sampled_from((0.0, -1.0, 4.0 * GIB, 3.2 * GIB, 0.4 * GIB, 64.0 * GIB)),
                     st.floats(0.0, 80.0 * GIB))
# halves and medians above the node core counts
THREADS = st.one_of(st.sampled_from((0.0, 0.5, 1.5, 2.5, 3.5, 4.5, 15.5, 16.0, 16.5, 17.0,
                                     32.5, 68.0, 68.5, 200.0)),
                    st.floats(0.0, 300.0))


LUSTRE_BYTES = st.one_of(st.sampled_from((0.0, 1.0, 100.0, 5e4, 3e6, 1e9, 1e14)),
                        st.floats(0.0, 1e15))
OPENS = st.one_of(st.sampled_from((0.0, 1.0, 7.0, 1e3, 1e6)), st.floats(0.0, 1e9))


@st.composite
def summaries_strategy(draw):
    summaries = {}
    for job_id in draw(st.lists(st.sampled_from(JOB_IDS), unique=True)):
        summaries[job_id] = JobPerfSummary(
            job_id=job_id,
            cpu_user_fraction=draw(_field(st.one_of(st.sampled_from((0.0, 1.0, 0.5)),
                                                    st.floats(0.0, 1.0)))),
            mem_avg_per_core=draw(_field(PER_CORE)),
            mem_max_per_core=draw(_field(PER_CORE)),
            lustre_rx=draw(_field(LUSTRE_BYTES)),
            lustre_tx=draw(_field(LUSTRE_BYTES)),
            runnable_threads_median=draw(_field(THREADS)),
            file_opens=draw(_field(OPENS)),
            app_label=draw(st.sampled_from(("NAMD", "WRF", "NA"))),
            launch_type=draw(st.sampled_from(list(LaunchType))))
    return summaries


@settings(max_examples=80, deadline=None)
@given(jobs_strategy(), summaries_strategy())
def test_memory_kernels_equal_the_oracle(jobs, summaries):
    columns = perf_columns(jobs, summaries, RESOURCES)
    for weight in WEIGHTS:
        for mode in ("per_core_avg", "per_core_max"):
            assert repr(memory_histograms(*columns, mode, weight)) == repr(
                oracle.memory_histograms(jobs, summaries, RESOURCES, mode, weight))
        for x in X_AXES:
            for y in Y_AXES:
                assert repr(memory_2d(*columns, x, y, weight)) == repr(
                    oracle.memory_2d(jobs, summaries, RESOURCES, x, y, weight))
    for thresholds in ((0.8, 0.1), (0.05, 0.5)):
        assert repr(large_memory_breakdown(*columns, *thresholds)) == repr(
            oracle.large_memory_breakdown(jobs, summaries, RESOURCES, *thresholds))


@settings(max_examples=80, deadline=None)
@given(jobs_strategy(), summaries_strategy())
def test_lustre_kernel_equals_the_oracle(jobs, summaries):
    columns = perf_columns(jobs, summaries, RESOURCES)
    for normalize in ("per_job", "per_node_hour"):
        assert repr(lustre_stats(*columns, normalize)) == repr(
            oracle.lustre_stats(jobs, summaries, normalize))


@settings(max_examples=80, deadline=None)
@given(jobs_strategy(), summaries_strategy())
def test_concurrency_kernel_equals_the_oracle(jobs, summaries):
    columns = perf_columns(jobs, summaries, RESOURCES)
    for bands in ((32, 68), (2, 8), (4,)):
        for period in ("quarter", "year"):
            assert repr(concurrency_histograms(*columns, bands, period)) == repr(
                oracle.concurrency_histograms(jobs, summaries, RESOURCES, bands, period))


def test_a_day_split_at_midnight_and_a_zero_length_job():
    jobs = [make_job(job_id="a", submit=0, start=Q4_2015 - 3600, end=Q4_2015 + 3 * 3600),
            make_job(job_id="b", submit=0, start=Q4_2015, end=Q4_2015),
            make_job(job_id="c", submit=-DAY, start=-DAY, end=0)]
    summaries = {"a": JobPerfSummary(job_id="a", lustre_rx=400.0),
                 "b": JobPerfSummary(job_id="b", lustre_tx=8.0),
                 "c": JobPerfSummary(job_id="c", lustre_rx=1.0, lustre_tx=math.nan)}
    assert lustre_stats(*perf_columns(jobs, summaries, RESOURCES)).daily == [
        (date(1969, 12, 31), 1.0, 0.0),
        (date(2015, 9, 30), 100.0, 0.0),
        (date(2015, 10, 1), 300.0, 8.0)]


def test_rates_of_short_jobs_divide_by_at_least_a_second():
    jobs = [make_job(job_id=job_id, submit=Q4_2015, start=Q4_2015, end=Q4_2015 + wall)
            for job_id, wall in (("a", 0), ("b", 1), ("c", 2))]
    summaries = {job_id: JobPerfSummary(job_id=job_id, lustre_rx=600.0, file_opens=1.0)
                 for job_id in "abc"}
    per_job = lustre_stats(*perf_columns(jobs, summaries, RESOURCES))
    rates = [(label, w) for label, _, _, w in per_job.unweighted["read_rate"].rows() if w]
    assert rates == [("[100, 316.22776601683796)", 1.0), ("[316.22776601683796, 1000)", 2.0)]
    # a zero-length job's node-hours are floored at 1e-12: 1e12 opens per
    # node-hour, in the open last bin [1e8, inf)
    opens = lustre_stats(*perf_columns(jobs[:1], summaries, RESOURCES),
                         "per_node_hour").unweighted["file_opens"]
    assert opens.weights[-1] == 1.0


def test_totals_add_in_job_order():
    # 1e16 + 1.0 == 1e16, so sums in any other order than left to right differ
    rx = [1e16] + [1.0] * 15
    jobs = [make_job(job_id=f"j{i}", submit=Q4_2015, start=Q4_2015 + i, end=Q4_2015 + 2 * i,
                     cores=1, resource="TESTMACHINE", local_su=value)
            for i, value in enumerate(rx)]
    summaries = {job.job_id: JobPerfSummary(job_id=job.job_id, lustre_rx=value,
                                            mem_avg_per_core=1.0, runnable_threads_median=1.0)
                 for job, value in zip(jobs, rx)}
    columns = perf_columns(jobs, summaries, RESOURCES)
    assert lustre_stats(*columns).daily == [(date(2015, 10, 1), total(rx), 0.0)]
    xd_su = total(2.0 * value for value in rx)  # factor 2.0
    assert xd_su != float(np.sum(2.0 * np.array(rx)))
    assert memory_histograms(*columns, weight="xd_su").weights[0] == xd_su
    result = concurrency_histograms(*columns)
    assert result.process_bands_xd_su["<=32"] == xd_su
    assert result.launch_type_xd_su == {"2015-Q4": {"unknown": xd_su}}


def test_summary_lengths_must_match_the_table():
    jobs = [make_job(job_id="a"), make_job(job_id="b")]
    perf = PerfColumns.join(table_of(jobs[:1]), {})
    with pytest.raises(ValueError, match="differ in length"):
        lustre_stats(table_of(jobs), perf)


# --- in the report --------------------------------------------------------------

@pytest.fixture(scope="module")
def bundle():
    return synth.make_synthetic_dataset(seed=7, n_jobs=300)


def test_the_join_runs_once_per_run(bundle, tmp_path, monkeypatch):
    calls = []
    join = PerfColumns.join.__func__

    def counted(cls, table, summaries):
        calls.append(len(table))
        return join(cls, table, summaries)

    monkeypatch.setattr(PerfColumns, "join", classmethod(counted))
    ctx = ReportContext(dataset=bundle.dataset, summaries=bundle.summaries)
    spec = standard_bundle_spec(output_dir=str(tmp_path / "a"))
    run_report(ctx, spec)
    assert calls == [len(bundle.dataset.jobs)]
    run_report(ctx, dataclasses.replace(spec, output_dir=str(tmp_path / "b")))
    assert calls == [len(bundle.dataset.jobs)] * 2


def test_joined_columns_are_shared_whole_and_read_only(bundle):
    table = bundle.dataset.job_table
    perf = PerfColumns.join(table, bundle.summaries)
    n = len(table)
    assert perf.take(np.ones(n, dtype=bool)) is perf
    assert perf.take(np.arange(n)) is perf
    for rows in (np.arange(n) > 0, np.arange(n)[::-1], np.zeros(n, dtype=int)):
        taken = perf.take(rows)
        assert taken is not perf
        assert np.array_equal(taken.app_label.codes, perf.app_label.codes[rows])
    for columns in (perf, perf.take(table.nodes > 1)):
        arrays = column_arrays(columns)
        assert set(arrays) == {f.name for f in dataclasses.fields(PerfColumns)}
        assert not [name for name, column in arrays.items() if column.flags.writeable]
    with pytest.raises(ValueError, match="read-only"):
        perf.lustre_rx[0] = 1.0


def _rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_nan_summary_fields_count_as_absent(tmp_path):
    spec = make_resource(large_memory_queues=frozenset({"largemem"}),
                         large_mem_per_node=1024 * GIB)
    base = synth.make_synthetic_dataset(seed=8, n_jobs=20).dataset
    job = make_job(job_id="nan-job", end=Q4_2015 + 3600, start=Q4_2015, submit=Q4_2015,
                   cores=16, local_su=10.0)
    dataset = dataclasses.replace(base, jobs=jobs_of([job]), resources={spec.name: spec})
    nan_fields = {name: math.nan for name in (
        "cpu_user_fraction", "mem_avg_per_core", "mem_max_per_core", "lustre_rx",
        "lustre_tx", "runnable_threads_median", "file_opens")}
    summaries = {"nan-job": JobPerfSummary(job_id="nan-job", **nan_fields)}
    analyses = tuple((name, params) for name, params in standard_bundle_spec().analyses
                     if name in ("memory_histogram", "memory_2d", "large_memory", "lustre",
                                 "concurrency"))
    run_report(ReportContext(dataset=dataset, summaries=summaries),
               ReportSpec(name="nan", date_range=(date(2015, 1, 1), date(2016, 1, 1)),
                          analyses=analyses, output_dir=str(tmp_path)))
    for mode in ("per_core_avg", "per_core_max"):
        rows = _rows(tmp_path / f"memory_{mode}_core_hours.csv")
        assert [(r["bin"], float(r["core_hours"])) for r in rows
                if float(r["core_hours"])] == [("absent", 16.0)]
    for name, weight, absent in (
            ("memory2d_cpu_user_fraction_vs_fraction_mem_used.csv", "core_hours", 16.0),
            ("memory2d_nodes_vs_total_peak_mem.csv", "node_hours", 1.0)):
        assert [(r["x_lo"], float(r[weight])) for r in _rows(tmp_path / name)] == [
            ("outside", 0.0), ("absent", absent)]
    assert _rows(tmp_path / "large_memory_usage.csv") == [
        {"grouping": "absent", "queue_series": "", "group": "", "xd_su": "20.0"}]
    lustre = _rows(tmp_path / "lustre_distributions.csv")
    assert {(r["bin"], r["weighting"], r["weight"]) for r in lustre
            if float(r["weight"])} == {("absent", "jobs", "1.0"), ("absent", "node_hours", "1.0")}
    assert _rows(tmp_path / "lustre_daily.csv") == []
    assert _rows(tmp_path / "concurrency_runnable_threads.csv") == [
        {"resource": "TESTMACHINE", "threads_per_node": "N/A", "node_hours": "1.0"}]
    assert {r["processes_per_node"]: r["xd_su"] for r in _rows(
        tmp_path / "concurrency_process_bands.csv")}["N/A"] == "20.0"
