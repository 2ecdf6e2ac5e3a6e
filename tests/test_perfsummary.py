import dataclasses
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, jobs_of, make_job
from perfsummary_oracle import (
    MemInfoSample,
    NumaMem,
    PerfSample,
    classify_launch_type,
    counter_delta,
    loader_order,
    memory_per_core,
    non_lustre_ib,
    record_archive,
    render_summaries,
    summarize_records,
    summary_columns,
)
from hpcwl import perfsummary
from hpcwl.archives import (
    CPU_TOTAL,
    CPU_USER,
    FILE_OPENS,
    IB_RX,
    IB_TX,
    LUSTRE_RX,
    LUSTRE_TX,
    RUNNABLE_THREADS,
    JobArchive,
    LauncherInfo,
    MemColumns,
    SampleColumns,
    SampleKind,
    SampleTag,
    load_archives,
)
from hpcwl.errors import InvalidMemInfo, MissingEpilog, MissingProlog, SchemaError
from hpcwl.perfsummary import (
    JobPerfSummary,
    LaunchType,
    SummaryColumns,
    summarize_all,
    summarize_job,
    write_summaries,
)
from hpcwl.stats import quantile

GIB = 1 << 30


def counter(node, time, metric, value, tag=SampleTag.PERIODIC):
    return PerfSample(node=node, time=time, metric=metric,
                      kind=SampleKind.COUNTER, value=value, tag=tag)


def instant(node, time, value, metric=RUNNABLE_THREADS):
    return PerfSample(node=node, time=time, metric=metric,
                      kind=SampleKind.INSTANTANEOUS, value=value)


def meminfo(node, time, total, free, file_pages, slab):
    return MemInfoSample(node=node, time=time,
                         numa_nodes=(NumaMem(total, free, file_pages, slab),))


# --- memory formula ---------------------------------------------------------

def test_memory_all_free_is_zero():
    sample = meminfo("n1", T0, 64 * GIB, 64 * GIB, 0, 0)
    assert memory_per_core(sample, 16) == 0.0
    assert memory_per_core(sample, 1) == 0.0


def test_memory_single_numa_hand_arithmetic():
    sample = meminfo("n1", T0, 64 * GIB, 32 * GIB, 8 * GIB, 8 * GIB)
    assert memory_per_core(sample, 16) == 1 * GIB


def test_memory_two_numa_nodes_hand_arithmetic():
    numa = NumaMem(32 * GIB, 20 * GIB, 2 * GIB, 2 * GIB)  # 8 GiB used
    sample = MemInfoSample(node="n1", time=T0, numa_nodes=(numa, numa))
    assert memory_per_core(sample, 16) == 1 * GIB


def test_memory_negative_component_rejected():
    sample = MemInfoSample(node="n1", time=T0,
                           numa_nodes=(NumaMem(64, -1, 0, 0),))
    with pytest.raises(InvalidMemInfo):
        memory_per_core(sample, 4)
    overfull = meminfo("n1", T0, 8, 4, 4, 4)  # free+cache > total
    with pytest.raises(InvalidMemInfo):
        memory_per_core(overfull, 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_a_sample_value_must_be_finite_and_nonnegative(value):
    """The loader's rule for ``value``: two inf counter samples would give
    an inf - inf total."""
    with pytest.raises(ValueError):
        counter("n1", T0, LUSTRE_RX, value, SampleTag.JOB_PROLOG)
    assert counter("n1", T0, LUSTRE_RX, 1e308).value == 1e308


# --- counter semantics -------------------------------------------------------

def test_counter_delta_simple_and_reset():
    assert counter_delta([1000, 1500, 2000]) == (1000.0, False)
    # reset between samples contributes the post-reset value
    assert counter_delta([1000, 1500, 200, 500]) == (1000.0, True)


@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=2, max_size=40),
       st.data())
def test_counter_split_invariant(values, data):
    i = data.draw(st.integers(min_value=1, max_value=len(values) - 1))
    whole, _ = counter_delta(values)
    left, _ = counter_delta(values[:i + 1])
    right, _ = counter_delta(values[i:])
    assert left + right == whole


# --- job summarization -------------------------------------------------------

def job_and_window():
    job = make_job(submit=T0, start=T0 + 600, end=T0 + 4200, nodes=1, cores=16)
    return job, job.start_time, job.end_time


def test_cpu_user_fraction_hand_arithmetic():
    job, start, end = job_and_window()
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, CPU_USER, 1000, SampleTag.JOB_PROLOG),
        counter("n1", start, CPU_TOTAL, 2000, SampleTag.JOB_PROLOG),
        counter("n1", end, CPU_USER, 1900, SampleTag.JOB_EPILOG),
        counter("n1", end, CPU_TOTAL, 3000, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.cpu_user_fraction == 0.9


def test_no_in_window_samples_fields_absent():
    job, start, end = job_and_window()
    # samples exactly at the boundary are out of the open window
    archive = record_archive(job_id=job.job_id, nodes=("n1",), meminfo=(
        meminfo("n1", start, 64 * GIB, 32 * GIB, 0, 0),
        meminfo("n1", end, 64 * GIB, 32 * GIB, 0, 0),
    ))
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.mem_avg_per_core is None
    assert summary.mem_max_per_core is None
    assert summary.runnable_threads_median is None
    assert summary.samples_used == 0


def test_memory_avg_and_max_small_set():
    job, start, _ = job_and_window()
    samples = tuple(
        meminfo("n1", start + 600 * (i + 1), 64 * GIB, 64 * GIB - used, 0, 0)
        for i, used in enumerate((16 * GIB, 32 * GIB, 48 * GIB)))
    archive = record_archive(job_id=job.job_id, nodes=("n1",), meminfo=samples)
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.mem_avg_per_core == 2 * GIB
    assert summary.mem_max_per_core == 3 * GIB
    assert summary.samples_used == 3


def test_out_of_window_instantaneous_samples_ignored():
    job, start, end = job_and_window()
    inside = (instant("n1", start + 600, 16), instant("n1", start + 1200, 16))
    outside = (instant("n1", start - 60, 1), instant("n1", end + 60, 99),
               instant("n1", start, 2), instant("n1", end, 98))
    with_noise = record_archive(job_id=job.job_id, nodes=("n1",),
                                samples=inside + outside)
    clean = record_archive(job_id=job.job_id, nodes=("n1",), samples=inside)
    s_noise = summarize_job(job, with_noise, 16)
    s_clean = summarize_job(job, clean, 16)
    assert s_noise.runnable_threads_median == s_clean.runnable_threads_median == 16


def test_median_of_constant_stream_is_constant():
    # the summaries' median is the type 7 quantile at 0.5
    assert quantile([7.0] * 5, 0.5) == 7.0
    assert quantile([7.0] * 4, 0.5) == 7.0
    assert quantile([1.0, 2.0], 0.5) == 1.5


def test_counter_regression_flagged_and_reset_handled():
    job, start, end = job_and_window()
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, LUSTRE_RX, 1000, SampleTag.JOB_PROLOG),
        counter("n1", start + 1200, LUSTRE_RX, 4000),
        counter("n1", start + 2400, LUSTRE_RX, 500),  # reset
        counter("n1", end, LUSTRE_RX, 700, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, 16)
    assert summary.lustre_rx == 3000 + 500 + 200
    assert any(f.startswith("counter_regression") for f in summary.flags)


def test_missing_prolog_and_epilog():
    job, start, end = job_and_window()
    no_prolog = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", end, CPU_USER, 10, SampleTag.JOB_EPILOG),))
    with pytest.raises(MissingProlog):
        summarize_job(job, no_prolog, 16)
    no_epilog = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, CPU_USER, 10, SampleTag.JOB_PROLOG),))
    with pytest.raises(MissingEpilog):
        summarize_job(job, no_epilog, 16)


def test_counters_sum_over_nodes():
    job = make_job(nodes=2, cores=32)
    start, end = job.start_time, job.end_time
    samples = []
    for node, (rx0, rx1) in (("n1", (100, 600)), ("n2", (50, 250))):
        samples.append(counter(node, start, LUSTRE_RX, rx0, SampleTag.JOB_PROLOG))
        samples.append(counter(node, end, LUSTRE_RX, rx1, SampleTag.JOB_EPILOG))
    archive = record_archive(job_id=job.job_id, nodes=("n1", "n2"),
                             samples=tuple(samples))
    summary = summarize_job(job, archive, 16)
    assert summary.lustre_rx == 500 + 200


def test_non_lustre_ib_examples():
    assert non_lustre_ib(10e9, 4e9) == (6e9, False)
    assert non_lustre_ib(4e9, 10e9) == (0.0, True)
    assert non_lustre_ib(7.5, 0.0) == (7.5, False)


def test_non_lustre_ib_field_and_clamp_flag():
    job, start, end = job_and_window()
    samples = []
    for metric, v0, v1 in ((IB_RX, 0, 100), (IB_TX, 0, 100),
                           (LUSTRE_RX, 0, 500), (LUSTRE_TX, 0, 500)):
        samples.append(counter("n1", start, metric, v0, SampleTag.JOB_PROLOG))
        samples.append(counter("n1", end, metric, v1, SampleTag.JOB_EPILOG))
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=tuple(samples))
    summary = summarize_job(job, archive, 16)
    assert summary.non_lustre_ib == 0.0
    assert "non_lustre_ib_clamped" in summary.flags


def test_classify_launch_type_table():
    assert classify_launch_type(64, 1, True) is LaunchType.MULTI_PROCESS
    assert classify_launch_type(1, 1, True) is LaunchType.SERIAL
    assert classify_launch_type(8, 4, False) is LaunchType.UNKNOWN
    assert classify_launch_type(1, 8, True) is LaunchType.MULTI_THREADED
    assert classify_launch_type(16, 2, True) is LaunchType.MULTI_PROCESS_MULTI_THREADED


def test_launch_types_of_the_columns_equal_the_oracle_table():
    job, start, end = job_and_window()
    counts = [(n, t) for n in (0, 1, 2, 17) for t in (0, 1, 2, 17)]
    jobs = [make_job(job_id=f"l{n}-{t}", start=start, end=end) for n, t in counts]
    archives = {job.job_id: record_archive(job_id=job.job_id, nodes=("n1",), launcher=(
        LauncherInfo(exe=None, n_processes=n, threads_per_process=t)))
        for job, (n, t) in zip(jobs, counts)}
    archives["none"] = record_archive(job_id="none", nodes=("n1",))
    summaries, _ = summarize_all(jobs_of(jobs + [make_job(job_id="none")]), archives, lambda job: 16,
                                 db=(), ignore_list=())
    assert [row.launch_type for row in summaries.rows()] == [
        classify_launch_type(n, t, True) for n, t in counts] + [LaunchType.UNKNOWN]
    for n, t in ((-1, 1), (1, -1)):
        archive = record_archive(job_id=job.job_id, nodes=("n1",), launcher=LauncherInfo(
            exe="/apps/namd2", n_processes=n, threads_per_process=t))
        with pytest.raises(ValueError, match="counts must be >= 0"):
            summarize_job(job, archive, 16)


def test_launcher_info_drives_label_and_type():
    job, start, end = job_and_window()
    archive = record_archive(job_id=job.job_id, nodes=("n1",),
                             launcher=LauncherInfo(exe="/apps/namd2", n_processes=16,
                                                   threads_per_process=1))
    summary = summarize_job(job, archive, 16)
    assert summary.app_label == "NAMD"
    assert summary.launch_type is LaunchType.MULTI_PROCESS


def test_jobs_without_archive_get_no_summary():
    job = make_job()
    summaries, skipped = summarize_all(jobs_of([job]), {}, lambda j: 16)
    assert summaries.rows() == []
    assert skipped == {job.job_id: "no_archive"}


def test_summarize_all_takes_loaded_jobs_only():
    with pytest.raises(TypeError, match="needs a JobSequence, not list"):
        summarize_all([make_job()], {}, lambda j: 16)


def test_archive_jsonl_round_trip(tmp_path):
    job, start, end = job_and_window()
    lines = [
        {"type": "job", "job_id": job.job_id, "nodes": ["n1"]},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": start,
         "metric": CPU_USER, "kind": "counter", "value": 0, "tag": "job_prolog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": end,
         "metric": CPU_USER, "kind": "counter", "value": 90, "tag": "job_epilog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": start,
         "metric": CPU_TOTAL, "kind": "counter", "value": 0, "tag": "job_prolog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": end,
         "metric": CPU_TOTAL, "kind": "counter", "value": 100, "tag": "job_epilog"},
        {"type": "meminfo", "job_id": job.job_id, "node": "n1", "time": start + 600,
         "numa": [{"mem_total": 64 * GIB, "mem_free": 48 * GIB,
                   "file_pages": 0, "slab": 0}]},
        {"type": "launcher", "job_id": job.job_id, "exe": "/apps/namd2",
         "n_processes": 16, "threads_per_process": 1},
        {"type": "process", "job_id": job.job_id, "process_name": "namd2",
         "unique_pid_count": 16},
    ]
    import json

    path = tmp_path / "archive.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    archives = load_archives(path)
    assert set(archives) == {job.job_id}
    summaries, skipped = summarize_all(jobs_of([job]), archives, lambda j: 16)
    assert not skipped
    (summary,) = summaries.rows()
    assert summary.job_id == job.job_id
    assert summary.cpu_user_fraction == 0.9
    assert summary.mem_avg_per_core == 1 * GIB
    out = tmp_path / "summaries.jsonl"
    write_summaries(summaries, out)
    emitted = json.loads(out.read_text().splitlines()[0])
    assert emitted["job_id"] == job.job_id
    assert emitted["app_label"] == "NAMD"


# --- columnar summaries against the record-at-a-time oracle ------------------

ORACLE_JOB = make_job(job_id="jo", submit=T0, start=T0 + 600, end=T0 + 4200)
# a coarse time grid around the run window, so equal timestamps are common
GRID = st.integers(-3, 15).map(lambda k: ORACLE_JOB.start_time + 300 * k)
LISTABLE = ("n1", "n2", "n3")
NODES = LISTABLE + ("x9",)  # x9 is never in the job's node list
VALUES = st.integers(0, 10**6) | st.floats(0, 1e12, allow_nan=False, allow_infinity=False)


@st.composite
def counter_group(draw, node, metric, complete):
    """Records of one (node, metric): prologs and epilogs (several at one
    time now and then, none when not ``complete``), periodic samples, and
    resets by chance."""
    least = 1 if complete else 0
    tags = ([SampleTag.JOB_PROLOG] * draw(st.sampled_from((least, 1, 1, 1, 2, 3)))
            + [SampleTag.JOB_EPILOG] * draw(st.sampled_from((least, 1, 1, 1, 2, 3)))
            + [SampleTag.PERIODIC] * draw(st.integers(0, 8)))
    same_time = draw(st.booleans())
    first = draw(GRID)
    return [PerfSample(node, first if same_time and tag is not SampleTag.PERIODIC
                       else draw(GRID), metric, SampleKind.COUNTER, draw(VALUES), tag)
            for tag in tags]


@st.composite
def numa_parts(draw):
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 9)) == 0:  # now and then an invalid one
            parts.append(NumaMem(*draw(st.lists(st.integers(-5, 100), min_size=4,
                                                max_size=4))))
            continue
        total = draw(st.integers(0, 2**40))
        free = draw(st.integers(0, total))
        file_pages = draw(st.integers(0, total - free))
        slab = draw(st.integers(0, total - free - file_pages))
        parts.append(NumaMem(total, free, file_pages, slab))
    return tuple(parts)


@st.composite
def oracle_archives(draw):
    """(node list, perf records, meminfo records, cores per node)."""
    listed = tuple(draw(st.lists(st.sampled_from(LISTABLE), min_size=1, max_size=3,
                                 unique=True)))
    complete = draw(st.integers(0, 3)) > 0
    samples = []
    for node in NODES:
        for metric in draw(st.sets(st.sampled_from((CPU_USER, CPU_TOTAL, LUSTRE_RX,
                                                     IB_RX, IB_TX, FILE_OPENS)))):
            samples += draw(counter_group(node, metric, complete))
    samples += draw(st.lists(st.builds(
        PerfSample, st.sampled_from(NODES), GRID, st.just(RUNNABLE_THREADS),
        st.just(SampleKind.INSTANTANEOUS), VALUES), max_size=12))
    # either kind under any name: instantaneous samples of counter metrics,
    # counter samples of runnable_threads
    samples += draw(st.lists(st.builds(
        PerfSample, st.sampled_from(NODES), GRID,
        st.sampled_from((RUNNABLE_THREADS, CPU_USER, LUSTRE_RX, "other")),
        st.sampled_from(SampleKind), VALUES), max_size=4))
    meminfo = draw(st.lists(st.builds(MemInfoSample, st.sampled_from(NODES), GRID,
                                      numa_parts()), max_size=12))
    return (listed, draw(st.permutations(samples)), draw(st.permutations(meminfo)),
            draw(st.sampled_from((0, 1, 16, 16, 24, 24))))


def _outcome(summarize):
    try:
        return summarize()
    except (MissingProlog, MissingEpilog, InvalidMemInfo, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(oracle_archives())
def test_columnar_summary_equals_the_record_oracle(drawn):
    listed, samples, meminfo, cores = drawn
    archive = record_archive(job_id="jo", nodes=listed, samples=tuple(samples),
                             meminfo=tuple(meminfo))
    columnar = _outcome(lambda: summarize_job(ORACLE_JOB, archive, cores, db=(),
                                              ignore_list=()))
    oracle = _outcome(lambda: summarize_records(
        ORACLE_JOB, listed, loader_order(samples), loader_order(meminfo), cores,
        db=(), ignore_list=()))
    assert columnar == oracle
    assert len(archive.samples) == len(samples)
    assert len(archive.meminfo) == len(meminfo)


def test_sums_add_left_to_right_as_the_oracle_does():
    """A large value and then many small ones: added left to right, each
    small one is lost to rounding, where a pairwise sum would keep them."""
    job, start, end = job_and_window()
    steps = [start + 100 * k for k in range(1, 25)]
    samples = ([counter("n1", start, LUSTRE_RX, 0, SampleTag.JOB_PROLOG),
                counter("n1", steps[0], LUSTRE_RX, 1e16)]
               + [counter("n1", t, LUSTRE_RX, 0.5 * k) for k, t in enumerate(steps[1:])]
               + [counter("n1", end, LUSTRE_RX, 0.5 * len(steps), SampleTag.JOB_EPILOG)])
    memory = [meminfo("n1", steps[0], 2 ** 53, 0, 0, 0)] + [
        meminfo("n1", t, 2 ** 40, 2 ** 40 - 1, 0, 0) for t in steps[1:]]
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=tuple(samples),
                             meminfo=tuple(memory))
    summary = summarize_job(job, archive, 1, db=(), ignore_list=())
    assert summary == summarize_records(job, ("n1",), loader_order(samples),
                                        loader_order(memory), 1, db=(), ignore_list=())
    assert summary.lustre_rx == 1e16
    assert summary.mem_avg_per_core == 2.0 ** 53 / len(steps)


def test_epilog_before_prolog_takes_the_pair_in_time_order():
    job, start, end = job_and_window()
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", end, LUSTRE_RX, 100, SampleTag.JOB_PROLOG),
        counter("n1", start + 600, LUSTRE_RX, 5000),
        counter("n1", start, LUSTRE_RX, 400, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, 16)
    # [epilog 400, prolog 100]: a decrease, so the post-reset value counts
    assert summary.lustre_rx == 100.0
    assert summary.flags == (f"counter_regression:n1:{LUSTRE_RX}",)


def test_first_of_tied_prologs_and_epilogs_is_used():
    job, start, end = job_and_window()
    archive = record_archive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, LUSTRE_RX, 10, SampleTag.JOB_PROLOG),
        counter("n1", start, LUSTRE_RX, 50, SampleTag.JOB_PROLOG),
        counter("n1", end, LUSTRE_RX, 110, SampleTag.JOB_EPILOG),
        counter("n1", end, LUSTRE_RX, 990, SampleTag.JOB_EPILOG),
    ))
    assert summarize_job(job, archive, 16).lustre_rx == 100.0


# --- archive files -------------------------------------------------------------

def _perf_line(job_id, s):
    return {"type": "perf", "job_id": job_id, "node": s.node, "time": s.time,
            "metric": s.metric, "kind": s.kind.value, "value": s.value, "tag": s.tag.value}


def _meminfo_line(job_id, m):
    return {"type": "meminfo", "job_id": job_id, "node": m.node, "time": m.time,
            "numa": [{"mem_total": n.mem_total, "mem_free": n.mem_free,
                      "file_pages": n.file_pages, "slab": n.slab} for n in m.numa_nodes]}


def _job_records(rng, job, nodes):
    """Perf and meminfo records of one job on a 10-minute grid, with no two
    records of a (node, metric) or a node's meminfo at one time."""
    start, end = job.start_time, job.end_time
    grid = range(start - 300, end + 600, 600)
    samples, meminfo = [], []
    for node in nodes:
        for metric in (CPU_USER, CPU_TOTAL, LUSTRE_RX, LUSTRE_TX, IB_RX, IB_TX, FILE_OPENS):
            value = int(rng.integers(1 << 20, 1 << 40))
            samples.append(counter(node, start, metric, value, SampleTag.JOB_PROLOG))
            for t in grid:
                value = int(rng.integers(0, 1000)) if rng.random() < 0.05 else (
                    value + int(rng.integers(0, 1 << 20)))
                samples.append(counter(node, t, metric, value))
            samples.append(counter(node, end, metric, value + 1, SampleTag.JOB_EPILOG))
        for t in grid:
            samples.append(instant(node, t, float(rng.integers(0, 20))))
            used = [int(u) for u in rng.integers(0, 16 * GIB, size=2)]
            meminfo.append(MemInfoSample(node, t, tuple(
                NumaMem(32 * GIB, 32 * GIB - u - 1024, 512, 512) for u in used)))
    return samples, meminfo


def _archive_file(tmp_path, rng, n_jobs=4):
    jobs, lines, records = [], [], {}
    for k in range(n_jobs):
        job = make_job(job_id=f"a{k}", submit=T0, start=T0 + 600,
                       end=T0 + 600 + 3600 * (k + 1), nodes=k + 1, cores=16 * (k + 1))
        nodes = tuple(f"c{k}{i}" for i in range(k + 1))
        samples, meminfo = _job_records(rng, job, nodes)
        jobs.append(job)
        records[job.job_id] = (nodes, samples, meminfo)
        lines.append({"type": "job", "job_id": job.job_id, "nodes": list(nodes)})
        lines += [_perf_line(job.job_id, s) for s in samples]
        lines += [_meminfo_line(job.job_id, m) for m in meminfo]
    return jobs, lines, records


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def test_shuffled_file_loads_to_the_same_summaries(tmp_path):
    rng = np.random.default_rng(5)
    jobs, lines, records = _archive_file(tmp_path, rng)
    in_order = load_archives(_write_lines(tmp_path / "sorted.jsonl", lines))
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    mixed = load_archives(_write_lines(tmp_path / "shuffled.jsonl", shuffled))
    cores = lambda job: 16
    expected, skipped = summarize_all(jobs_of(jobs), in_order, cores, db=(), ignore_list=())
    assert not skipped and len(expected) == len(jobs)
    summaries, skipped = summarize_all(jobs_of(jobs), mixed, cores, db=(), ignore_list=())
    assert (summaries.rows(), skipped) == (expected.rows(), {})
    for job, summary in zip(jobs, expected.rows(), strict=True):
        nodes, samples, meminfo = records[job.job_id]
        assert summary == summarize_records(
            job, nodes, loader_order(samples), loader_order(meminfo), 16,
            db=(), ignore_list=())
        for archive in (in_order[job.job_id], mixed[job.job_id]):
            assert len(archive.samples) == len(samples)
            assert len(archive.meminfo) == len(meminfo)
    assert any("counter_regression" in flag
               for summary in expected.rows() for flag in summary.flags)


def test_other_spellings_of_valid_fields_load_the_same_columns(tmp_path):
    """Records that miss the inline fast path (no tag, integral float or
    digit-string times, string values, keys in another order) load the
    same as plain ones."""
    rng = np.random.default_rng(8)
    _, lines, _ = _archive_file(tmp_path, rng, n_jobs=2)
    respelled = []
    for k, line in enumerate(lines):
        line = dict(reversed(list(line.items())))
        if line["type"] == "perf":
            if line["tag"] == "periodic" and k % 2:
                del line["tag"]
            line["time"] = (float(line["time"]), str(line["time"]), line["time"])[k % 3]
            line["value"] = (str(line["value"]), line["value"])[k % 2]
        elif line["type"] == "meminfo":
            line["time"] = float(line["time"])
            line["numa"] = [{key: float(v) for key, v in part.items()} for part in line["numa"]]
        respelled.append(line)
    plain = load_archives(_write_lines(tmp_path / "plain.jsonl", lines))
    other = load_archives(_write_lines(tmp_path / "other.jsonl", respelled))
    assert plain.keys() == other.keys()
    for job_id in plain:
        for a, b in ((plain[job_id].samples, other[job_id].samples),
                     (plain[job_id].meminfo, other[job_id].meminfo)):
            assert a.nodes == b.nodes
            for name in ("node", "time", "kind", "value", "tag", "numa_bounds", "numa"):
                if hasattr(a, name):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
            if hasattr(a, "metric"):
                assert [a.metrics[m] for m in a.metric] == [b.metrics[m] for m in b.metric]


GOOD_PERF = {"type": "perf", "job_id": "j1", "node": "n1", "time": T0,
             "metric": CPU_USER, "kind": "counter", "value": 5, "tag": "periodic"}
GOOD_MEMINFO = {"type": "meminfo", "job_id": "j1", "node": "n1", "time": T0,
                "numa": [{"mem_total": 8, "mem_free": 4, "file_pages": 1, "slab": 1}]}
NAN, INF = float("nan"), float("inf")


def _numa(**changes):
    return [dict(GOOD_MEMINFO["numa"][0], **changes)]


@pytest.mark.parametrize("record,field", [
    (dict(GOOD_PERF, value=NAN), "value"),
    (dict(GOOD_PERF, value=INF), "value"),
    (dict(GOOD_PERF, value=-INF), "value"),
    (dict(GOOD_PERF, value=True), "value"),
    (dict(GOOD_PERF, value=-1), "value"),
    (dict(GOOD_PERF, value="many"), "value"),
    (dict(GOOD_PERF, value=10**400), "value"),
    (dict(GOOD_PERF, value=None), "value"),
    (dict(GOOD_PERF, time=T0 + 0.5), "time"),
    (dict(GOOD_PERF, time=True), "time"),
    (dict(GOOD_PERF, time=NAN), "time"),
    (dict(GOOD_PERF, time=2**60), "time"),
    (dict(GOOD_PERF, time="4_000"), "time"),
    ({k: v for k, v in GOOD_PERF.items() if k != "time"}, "time"),
    ({k: v for k, v in GOOD_PERF.items() if k != "node"}, "node"),
    ({k: v for k, v in GOOD_PERF.items() if k != "metric"}, "metric"),
    ({k: v for k, v in GOOD_PERF.items() if k != "job_id"}, "job_id"),
    (dict(GOOD_PERF, kind="gauge"), "kind"),
    (dict(GOOD_PERF, kind=["counter"]), "kind"),
    ({k: v for k, v in GOOD_PERF.items() if k != "kind"}, "kind"),
    (dict(GOOD_PERF, tag="job_start"), "tag"),
    (dict(GOOD_MEMINFO, time=1.5), "time"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_free=True)), "mem_free"),
    (dict(GOOD_MEMINFO, numa=_numa(slab=0.5)), "slab"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_total=NAN)), "mem_total"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_total=2**54)), "mem_total"),
    (dict(GOOD_MEMINFO, numa=[{"mem_total": 8, "mem_free": 4, "file_pages": 1}]), "slab"),
    (dict(GOOD_MEMINFO, numa={"mem_total": 8}), "numa"),
    (dict(GOOD_MEMINFO, numa=[5]), "numa"),
    ({"type": "launcher", "job_id": "j1", "exe": 5}, "exe"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": True}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": 2.5}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": -1}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "threads_per_process": INF},
     "threads_per_process"),
    ({"type": "process", "job_id": "j1", "process_name": "a", "unique_pid_count": True},
     "unique_pid_count"),
    ({"type": "process", "job_id": "j1", "process_name": "a", "unique_pid_count": 0},
     "unique_pid_count"),
    ({"type": "process", "job_id": "j1", "unique_pid_count": 2}, "process_name"),
    ({"type": "job", "job_id": "j1", "nodes": "n1"}, "nodes"),
    ({"type": "node", "job_id": "j1"}, "type"),
    ({"job_id": "j1"}, "type"),
    ({"type": "job", "job_id": "j1", "nodes": ["n1", "n2", "n1"]}, "nodes"),
    # names are non-empty strings, never the str() of another value
    (dict(GOOD_PERF, metric=[CPU_USER]), "metric"),
    (dict(GOOD_PERF, metric=7), "metric"),
    (dict(GOOD_PERF, node=12), "node"),
    (dict(GOOD_MEMINFO, node=["n1"]), "node"),
    ({"type": "process", "job_id": "j1", "process_name": 12, "unique_pid_count": 2},
     "process_name"),
    ({"type": "job", "job_id": "j1", "nodes": [1, None]}, "nodes"),
    ({"type": "job", "job_id": "j1", "nodes": ["n1", ""]}, "nodes"),
    ({"type": "job", "job_id": "j1", "nodes": [["n1"]]}, "nodes"),
    (dict(GOOD_PERF, job_id=7), "job_id"),
    (dict(GOOD_MEMINFO, job_id=["j1"]), "job_id"),
    ({"type": "job", "job_id": 1, "nodes": ["n1"]}, "job_id"),
])
def test_malformed_record_is_a_schema_error_naming_its_line(tmp_path, record, field):
    path = tmp_path / "archive.jsonl"
    # a blank line still counts: the bad record is on line 4
    path.write_text(json.dumps(GOOD_PERF) + "\n" + json.dumps(GOOD_MEMINFO) + "\n\n"
                    + json.dumps(record) + "\n" + json.dumps(GOOD_PERF) + "\n")
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert (err.value.row, err.value.field) == (4, field)
    assert str(err.value).startswith("row 4: ")


@pytest.mark.parametrize("text", ["{\"type\": \"perf\",\n", "[1, 2]\n", "7\n"])
def test_a_line_that_is_not_an_object_is_a_schema_error(tmp_path, text):
    path = tmp_path / "archive.jsonl"
    path.write_text(json.dumps(GOOD_PERF) + "\n" + text)
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert err.value.row == 2


def test_a_node_listed_twice_is_refused():
    with pytest.raises(ValueError, match="listed twice"):
        record_archive(job_id="j1", nodes=("n1", "n2", "n1"))
    with pytest.raises(ValueError, match="listed twice"):
        summarize_records(ORACLE_JOB, ("n1", "n1"), [], [], 16, db=(), ignore_list=())


def test_write_summaries_refuses_non_finite_values(tmp_path):
    for bad in (JobPerfSummary(job_id="j", cpu_user_fraction=float("nan")),
                JobPerfSummary(job_id="j", runnable_threads_median=float("inf"))):
        with pytest.raises(ValueError):
            render_summaries({"j": bad})
        with pytest.raises(ValueError):
            write_summaries(summary_columns([bad]), tmp_path / "out.jsonl")


# --- block kernels against a per-job loop over the oracle ----------------------

POOL = ("p0", "p1", "p2", "p3", "p4")  # few ids, so jobs repeat them


def _valid(sample):
    return all(min(n.mem_total, n.mem_free, n.file_pages, n.slab) >= 0
               and n.mem_total >= n.mem_free + n.file_pages + n.slab for n in sample.numa_nodes)


@st.composite
def block_cases(draw):
    """(jobs, their records by job id, cores of each job, block size in
    jobs' worth of samples).  A job id's records are (node list, perf
    records, meminfo records, launcher), or None for no archive; a job's
    user names its position, which picks its cores.  One case in four may
    fail: cores of None (cores_per_node_of raises), cores of 0, and invalid
    meminfo; the others summarize or skip every job."""
    failures = draw(st.integers(0, 3)) == 0
    records = {}
    for job_id in POOL:
        choice = draw(st.integers(0, 7))
        if choice == 0:
            records[job_id] = None
        elif choice == 1:  # an archive without a node list
            records[job_id] = ((), [], [], None)
        else:
            listed, samples, meminfo, _ = draw(oracle_archives())
            launcher = draw(st.none() | st.builds(
                LauncherInfo, st.sampled_from(("/apps/namd2", "/bin/sh", None)),
                st.integers(0, 3), st.integers(0, 3)))
            records[job_id] = (listed, samples, meminfo if failures
                               else [m for m in meminfo if _valid(m)], launcher)
    jobs = []
    for k in range(draw(st.integers(1, 8))):
        start = ORACLE_JOB.start_time + 300 * draw(st.integers(-2, 4))
        jobs.append(make_job(job_id=draw(st.sampled_from(POOL)), user=f"u{k}", submit=T0,
                             start=start, end=start + 300 * draw(st.integers(1, 12))))
    cores = draw(st.lists(st.sampled_from((None, 0, 1, 16, 24, 24, 24) if failures
                                          else (1, 16, 24)),
                          min_size=len(jobs), max_size=len(jobs)))
    return jobs, records, cores, draw(st.integers(1, 3))


def _cores_of(cores):
    def cores_per_node_of(job):
        found = cores[int(job.user[1:])]
        if found is None:
            raise LookupError(f"no cores per node for {job.job_id}")
        return found
    return cores_per_node_of


def _oracle_all(jobs, records, cores_per_node_of):
    """summarize_all as a loop of the record-at-a-time oracle over the jobs."""
    summaries, skipped = {}, {}
    for job in jobs:
        found = records.get(job.job_id)
        if found is None or not found[0]:
            skipped[job.job_id] = "no_archive"
            continue
        listed, samples, meminfo, launcher = found
        cores = cores_per_node_of(job)
        try:
            summaries[job.job_id] = summarize_records(
                job, listed, loader_order(samples), loader_order(meminfo), cores,
                launcher=launcher, db=(), ignore_list=())
        except (MissingProlog, MissingEpilog) as err:
            skipped[job.job_id] = str(err)
        except InvalidMemInfo as err:
            raise InvalidMemInfo(f"job {job.job_id}: {err}") from None
    return list(summaries.values()), skipped


def _settled(summarize):
    """The outcome of summarize_all: its summaries as rows, in order, and its
    skip reasons as a list, so their order counts."""
    try:
        summaries, skipped = summarize()
    except (InvalidMemInfo, ValueError, LookupError) as err:
        return type(err), str(err)
    if isinstance(summaries, SummaryColumns):
        summaries = summaries.rows()
    return summaries, list(skipped.items())


@settings(max_examples=100, deadline=None)
@given(block_cases())
def test_block_summaries_equal_a_per_job_loop_of_the_oracle(case):
    jobs, records, cores, per_block = case
    archives = {job_id: record_archive(job_id=job_id, nodes=found[0],
                                       samples=tuple(found[1]), meminfo=tuple(found[2]),
                                       launcher=found[3])
                for job_id, found in records.items() if found is not None}
    sizes = [len(a.samples) + len(a.meminfo) for a in archives.values()]
    block = max(1, per_block * sum(sizes) // max(1, len(sizes)))
    with mock.patch.object(perfsummary, "_BLOCK_SAMPLES", block):
        blocked = _settled(lambda: summarize_all(jobs_of(jobs), archives, _cores_of(cores), db=(),
                                                 ignore_list=()))
    assert blocked == _settled(lambda: _oracle_all(jobs, records, _cores_of(cores)))


def test_the_first_failure_in_job_order_wins_across_blocks():
    job, start, end = job_and_window()
    good = record_archive(job_id="g", nodes=("n1",), meminfo=(
        meminfo("n1", start + 600, 64 * GIB, 32 * GIB, 0, 0),))
    bad = record_archive(job_id="b", nodes=("n1",), meminfo=(
        meminfo("n1", start + 600, 64 * GIB, -1, 0, 0),))
    jobs = [make_job(job_id=i, start=start, end=end) for i in ("g", "b", "g", "x")]
    archives = {"g": good, "b": bad, "x": good}

    def cores_of(job):
        if job.job_id == "x":
            raise LookupError("no cores for x")
        return 16

    for block in (1, 2, 3, 100):
        with mock.patch.object(perfsummary, "_BLOCK_SAMPLES", block):
            with pytest.raises(InvalidMemInfo, match="^job b: negative meminfo component$"):
                summarize_all(jobs_of(jobs), archives, cores_of, db=(), ignore_list=())
            with pytest.raises(LookupError, match="no cores for x"):
                summarize_all(jobs_of(jobs[:1] + jobs[2:]), archives, cores_of, db=(), ignore_list=())


def _many_job_archives(n_jobs, times=48):
    """Archives of ``n_jobs`` jobs on 1-4 nodes, built as columns: every
    counter with a prolog and an epilog, runnable threads and two-NUMA
    meminfo on a 10-minute grid inside the run window."""
    rng = np.random.default_rng(11)
    metrics = (CPU_USER, CPU_TOTAL, LUSTRE_RX, LUSTRE_TX, IB_RX, IB_TX, FILE_OPENS,
               RUNNABLE_THREADS)
    tag_code = {tag: code for code, tag in enumerate(SampleTag)}
    jobs, archives = [], {}
    for k in range(n_jobs):
        nodes = tuple(f"c{k}-{i}" for i in range(1 + k % 4))
        job = make_job(job_id=f"m{k}", submit=T0, start=T0 + 600,
                       end=T0 + 600 + 600 * (times + 1), nodes=len(nodes))
        time = job.start_time + 600 * np.arange(1, times + 1)
        time[0], time[-1] = job.start_time, job.end_time
        n_series = len(nodes) * len(metrics)
        tag = np.full((n_series, times), tag_code[SampleTag.PERIODIC], dtype=np.int8)
        tag[:, 0] = tag_code[SampleTag.JOB_PROLOG]
        tag[:, -1] = tag_code[SampleTag.JOB_EPILOG]
        kind = np.zeros((len(nodes), len(metrics), times), dtype=np.int8)
        kind[:, -1] = list(SampleKind).index(SampleKind.INSTANTANEOUS)
        samples = SampleColumns(
            nodes=nodes, metrics=metrics,
            node=np.repeat(np.arange(len(nodes)), len(metrics) * times),
            time=np.tile(time, n_series),
            metric=np.tile(np.repeat(np.arange(len(metrics)), times), len(nodes)),
            kind=kind.ravel(), tag=tag.ravel(),
            value=np.cumsum(rng.integers(0, 1 << 20, size=(n_series, times)), axis=1)
            .ravel().astype(np.float64))
        used = rng.integers(0, 8 * GIB, size=(len(nodes) * times * 2, 1))
        numa = np.hstack([np.full_like(used, 32 * GIB), 32 * GIB - used - 1024,
                          np.full_like(used, 512), np.full_like(used, 512)])
        mem = MemColumns(nodes=nodes, node=np.repeat(np.arange(len(nodes)), times),
                         time=np.tile(time, len(nodes)),
                         numa_bounds=2 * np.arange(len(nodes) * times + 1), numa=numa)
        jobs.append(job)
        archives[job.job_id] = JobArchive(job_id=job.job_id, nodes=nodes, samples=samples,
                                          meminfo=mem)
    return jobs, archives


def _traced_peak(summarize):
    tracemalloc.start()
    try:
        summarize()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_summarize_all_keeps_a_small_working_set():
    jobs, archives = _many_job_archives(600)
    column_bytes = sum(getattr(part, field.name).nbytes for archive in archives.values()
                       for part in (archive.samples, archive.meminfo)
                       for field in dataclasses.fields(part)
                       if isinstance(getattr(part, field.name), np.ndarray))
    summaries, skipped = summarize_all(jobs_of(jobs), archives, lambda job: 16, db=(), ignore_list=())
    assert len(summaries) == len(jobs) and not skipped
    peak = _traced_peak(lambda: summarize_all(jobs_of(jobs), archives, lambda job: 16, db=(),
                                              ignore_list=()))
    assert peak < column_bytes / 4
    # one block of the whole archive is past the bound
    with mock.patch.object(perfsummary, "_BLOCK_SAMPLES", 1 << 62):
        whole = _traced_peak(lambda: summarize_all(jobs_of(jobs), archives, lambda job: 16, db=(),
                                                   ignore_list=()))
    assert whole > column_bytes / 4


def test_write_summaries_keeps_the_old_file_when_a_value_is_refused(tmp_path):
    out = tmp_path / "summaries.jsonl"
    out.write_text("old contents\n")
    good = JobPerfSummary(job_id="a", cpu_user_fraction=0.5)
    bad = JobPerfSummary(job_id="b", cpu_user_fraction=float("nan"))
    with pytest.raises(ValueError):
        write_summaries(summary_columns([good, bad]), out)
    assert out.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["summaries.jsonl"]
    write_summaries(summary_columns([good]), out)
    assert [json.loads(line)["job_id"] for line in out.read_text().splitlines()] == ["a"]
    assert os.listdir(tmp_path) == ["summaries.jsonl"]


def test_write_summaries_writes_each_field_under_its_name(tmp_path):
    summary = JobPerfSummary(
        job_id="j7", cpu_user_fraction=0.25, mem_avg_per_core=1073741824.0,
        mem_max_per_core=2147483648.5, lustre_rx=1000.0, lustre_tx=24.5, ib_rx=4096.0,
        ib_tx=0.0, non_lustre_ib=3071.5, runnable_threads_median=None, file_opens=12.0,
        app_label="NAMD", launch_type=LaunchType.MULTI_PROCESS, samples_used=48,
        flags=("counter_regression:n1:lustre_rx_bytes", "non_lustre_ib_clamped"))
    out = tmp_path / "summaries.jsonl"
    write_summaries(summary_columns([summary]), out)
    assert out.read_bytes() == (
        b'{"app_label": "NAMD", "cpu_user_fraction": 0.25, "file_opens": 12.0, '
        b'"flags": ["counter_regression:n1:lustre_rx_bytes", "non_lustre_ib_clamped"], '
        b'"ib_rx": 4096.0, "ib_tx": 0.0, "job_id": "j7", "launch_type": "multi_process", '
        b'"lustre_rx": 1000.0, "lustre_tx": 24.5, "mem_avg_per_core": 1073741824.0, '
        b'"mem_max_per_core": 2147483648.5, "non_lustre_ib": 3071.5, '
        b'"runnable_threads_median": null, "samples_used": 48}\n')


# --- repeated job ids and non-finite totals -----------------------------------

def test_a_repeated_job_id_keeps_its_first_position_and_its_last_summary(tmp_path):
    """Two runs of one job id with different windows over the same archive:
    the summaries keep the id where it first came and the later run's
    values, as assigning into a dict does."""
    start = T0 + 600
    archive = record_archive(job_id="a", nodes=("n1",), meminfo=tuple(
        meminfo("n1", start + 600 * k, 64 * GIB, 64 * GIB - k * GIB, 0, 0)
        for k in range(1, 9)))
    other = record_archive(job_id="b", nodes=("n1",), meminfo=(
        meminfo("n1", start + 600, 64 * GIB, 32 * GIB, 0, 0),))
    early = make_job(job_id="a", start=start, end=start + 600 * 4)
    late = make_job(job_id="a", start=start + 600 * 4, end=start + 600 * 9)
    jobs = [early, make_job(job_id="b", start=start, end=start + 1200), late]
    for block in (1, 100):
        with mock.patch.object(perfsummary, "_BLOCK_SAMPLES", block):
            summaries, skipped = summarize_all(jobs_of(jobs), {"a": archive, "b": other},
                                               lambda job: 16, db=(), ignore_list=())
        assert not skipped
        rows = summaries.rows()
        assert [row.job_id for row in rows] == ["a", "b"]
        assert rows[0] == summarize_job(late, archive, 16, db=(), ignore_list=())
        assert rows[0] != summarize_job(early, archive, 16, db=(), ignore_list=())
    out = tmp_path / "summaries.jsonl"
    write_summaries(summaries, out)
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["job_id"] for row in written] == ["a", "b"]
    assert written[0]["mem_max_per_core"] == 8 * GIB / 16
    assert written[0]["samples_used"] == 4


def test_overflowing_counter_totals_are_present_and_refused_by_the_writer(tmp_path):
    """Deltas of 1e308 on two nodes add to inf, and inf / inf is a NaN CPU
    fraction: both are computed values, not absent ones, and JSON holds
    neither."""
    job = make_job(job_id="big", start=T0 + 600, end=T0 + 4200, nodes=2)
    samples = []
    for node in ("n1", "n2"):
        for metric in (CPU_USER, CPU_TOTAL, LUSTRE_RX):
            samples += [counter(node, job.start_time, metric, 0, SampleTag.JOB_PROLOG),
                        counter(node, job.end_time, metric, 1e308, SampleTag.JOB_EPILOG)]
    archive = record_archive(job_id="big", nodes=("n1", "n2"), samples=tuple(samples))
    summaries, skipped = summarize_all(jobs_of([job]), {"big": archive}, lambda job: 16,
                                       db=(), ignore_list=())
    assert not skipped
    assert summaries.present["cpu_user_fraction"].all()
    (summary,) = summaries.rows()
    assert summary.lustre_rx == float("inf")
    assert summary.cpu_user_fraction is not None and np.isnan(summary.cpu_user_fraction)
    assert summary.ib_rx is None and summary.non_lustre_ib is None
    out = tmp_path / "summaries.jsonl"
    out.write_text("old contents\n")
    with pytest.raises(ValueError):
        write_summaries(summaries, out)
    assert out.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["summaries.jsonl"]


# --- the column renderer against the record-at-a-time writer -------------------

# quotes, backslashes, control, non-ASCII and astral characters
AWKWARD = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\té \U0001f600'), max_size=6)
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e22, 0.1, 1 / 3,
               -1.5, 1.7976931348623157e308)
OPTIONAL_VALUES = (st.none() | st.sampled_from(EDGE_FLOATS)
                   | st.floats(allow_nan=False, allow_infinity=False))
FLAGS = st.lists(st.sampled_from(("cpu_fraction_clamped", "counter_regression:n1:ib_rx_bytes"))
                 | AWKWARD, max_size=3).map(tuple)


@st.composite
def summary_rows(draw):
    """Summary records with distinct job ids; labels and flag tuples repeat."""
    ids = draw(st.lists(AWKWARD, unique=True, max_size=8))
    labels = draw(st.lists(AWKWARD, min_size=1, max_size=3))
    return [JobPerfSummary(job_id=job_id,
                           **{name: draw(OPTIONAL_VALUES) for name in perfsummary.OPTIONAL},
                           app_label=draw(st.sampled_from(labels)),
                           launch_type=draw(st.sampled_from(LaunchType)),
                           samples_used=draw(st.integers(0, 2 ** 62)),
                           flags=draw(FLAGS | st.just(()) | st.just(("a", "a"))))
            for job_id in ids]


@settings(max_examples=200, deadline=None)
@given(summary_rows())
def test_written_summaries_equal_the_record_writer(rows):
    rows.append(JobPerfSummary(job_id="all none"))  # every optional field None
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "summaries.jsonl")
        write_summaries(summary_columns(rows), out)
        with open(out, "rb") as handle:
            assert handle.read() == render_summaries({row.job_id: row for row in rows})


def test_the_summarize_path_builds_no_summary_record(tmp_path):
    """summarize_all and write_summaries go from kernel arrays to text
    without a JobPerfSummary, flags, labels and launch types included."""
    jobs, archives = _many_job_archives(6)
    first = archives[jobs[0].job_id]
    archives[jobs[0].job_id] = dataclasses.replace(
        first, launcher=LauncherInfo("/apps/namd2", n_processes=4, threads_per_process=2),
        samples=dataclasses.replace(first.samples, value=first.samples.value[::-1].copy()))
    expected, _ = summarize_all(jobs_of(jobs), archives, lambda job: 16)
    assert any(expected.flags.tolist()) and "NAMD" in expected.app_label.present()
    with mock.patch.object(perfsummary, "JobPerfSummary",
                           side_effect=AssertionError("a summary record was built")):
        summaries, skipped = summarize_all(jobs_of(jobs), archives, lambda job: 16)
        write_summaries(summaries, tmp_path / "summaries.jsonl")
    assert not skipped and summaries.rows() == expected.rows()
    assert (tmp_path / "summaries.jsonl").read_bytes() == render_summaries(
        {row.job_id: row for row in expected.rows()})
