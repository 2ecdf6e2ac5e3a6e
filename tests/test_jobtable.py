"""The columnar kernels against the record-at-a-time oracle, by repr."""
import ast
import dataclasses
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rollups_oracle as oracle
from conftest import column_arrays, make_job, make_resource, table_of
from hpcwl import backlog, report, synth
from hpcwl.errors import EmptyGroup
from hpcwl.ingest import (
    Dataset,
    FactorWindow,
    NsfUserStatus,
    ResourceType,
    job_xd_su,
    utc_date,
)
from hpcwl.jobtable import Codes, JobTable, distinct, period_key
from hpcwl.metrics import (
    Filters,
    average_job_size,
    average_job_size_variants,
    depth_profile,
    job_size_distribution,
    single_node_serial_fractions,
    usage_rollup,
)
from hpcwl.metrics.rollups import DIMENSIONS, PERIODS, WEIGHTS
from hpcwl.report import ReportContext, run_report, standard_bundle_spec

DAY = 86400
Q4_2015 = 1443657600  # 2015-10-01T00:00:00Z, a quarter boundary
Y2016 = 1451606400    # 2016-01-01T00:00:00Z, a year boundary

RESOURCES = {
    "TESTMACHINE": make_resource(),  # factor 2.0 over 2010-2030
    # no factor on 2015-10-01 itself, and none from 2016-01-01 on
    "PARTIAL": dataclasses.replace(make_resource(name="PARTIAL"), su_factors=(
        FactorWindow(date(2015, 1, 1), date(2015, 10, 1), 1.5),
        FactorWindow(date(2015, 10, 2), date(2016, 1, 1), 3.0))),
    "OSG": make_resource(name="OSG", rtype=ResourceType.HTC, nodes=4, cores_per_node=1,
                         factor=0.7),
}
# GHOST has no description: no factor and rtype "unknown"
RESOURCE_NAMES = ("TESTMACHINE", "PARTIAL", "OSG", "GHOST")


# instants at midnights, quarter and year boundaries and before 1970
ANCHORS = st.sampled_from((Q4_2015, Y2016, Q4_2015 - 40 * DAY, 0, -400 * DAY))
OFFSETS = st.one_of(st.sampled_from((-DAY, -1, 0, 1, 3600, DAY)),
                    st.integers(-3 * DAY, 3 * DAY))
DURATIONS = st.one_of(st.sampled_from((0, 0, 1, 3600, DAY)), st.integers(0, 2 * DAY))


@st.composite
def jobs_strategy(draw, min_size=0, max_size=30, times=None):
    jobs = []
    for i in range(draw(st.integers(min_size, max_size))):
        submit = draw(times) if times is not None else draw(ANCHORS) + draw(OFFSETS)
        start = submit + draw(DURATIONS)
        nodes = draw(st.integers(1, 4))
        jobs.append(make_job(
            job_id=draw(st.sampled_from(("a", "b", f"j{i}"))),  # ids may repeat
            resource=draw(st.sampled_from(RESOURCE_NAMES)),
            user=draw(st.sampled_from(("u1", "u2"))),
            charge_number=draw(st.sampled_from(("TG-1", "TG-2", "TG-3"))),
            submit=submit, start=start, end=start + draw(DURATIONS),
            nodes=nodes, cores=nodes * draw(st.sampled_from((1, 1, 2, 16))),
            queue=draw(st.sampled_from(("normal", "shared"))),
            local_su=draw(st.floats(0.0, 1e6)),
            directorate=draw(st.sampled_from(("MPS", "BIO"))),
            parent_science=draw(st.sampled_from(("Physics", "Chemistry", "Biology"))),
            field_of_science=draw(st.sampled_from(("Nuclear", "Organic"))),
            nsf_user_status=draw(st.sampled_from(list(NsfUserStatus))),
            state_of_origin=draw(st.sampled_from((None, "TX", "CA", "unknown")))))
    return jobs


def _outcome(compute):
    try:
        return repr(compute())
    except EmptyGroup as err:
        return type(err)


def test_columns_match_the_records():
    jobs = [make_job(job_id="a", submit=-DAY - 5, start=-DAY, end=-1),
            make_job(job_id="b", resource="PARTIAL", submit=Q4_2015 - 600,
                     start=Q4_2015 - 300, end=Q4_2015, state_of_origin="TX"),
            make_job(job_id="c", resource="GHOST", submit=Y2016, end=Y2016 + 7200),
            make_job(job_id="d", submit=Q4_2015 - DAY, end=Q4_2015 - 1, local_su=3.3)]
    table = table_of(jobs, RESOURCES)
    for i, job in enumerate(jobs):
        assert table.end_day[i] == (job.end_date - date(1970, 1, 1)).days
        assert table.quarter.names[table.quarter.codes[i]] == period_key(job.end_date,
                                                                         "quarter")
        assert table.year.names[table.year.codes[i]] == str(utc_date(job.end_time).year)
        assert repr(table.core_hours[i].item()) == repr(job.core_hours)
        assert repr(table.node_hours[i].item()) == repr(job.node_hours)
        assert table.resource.names[table.resource.codes[i]] == job.resource
        assert table.state.names[table.state.codes[i]] == (job.state_of_origin or "unknown")
    # 1969 is outside TESTMACHINE's window, 2015-10-01 between PARTIAL's,
    # and GHOST has no description
    assert np.isnan(table.xd_su[:3]).all()
    assert table.xd_su[3].item() == job_xd_su(jobs[3], RESOURCES) == 6.6
    assert table.rtype.present() == ["HPC", "unknown"]
    assert table_of(jobs).xd_su is None


@settings(max_examples=60, deadline=None)
@given(jobs_strategy())
def test_rollups_equal_the_oracle(jobs):
    table = table_of(jobs, RESOURCES)
    for period in PERIODS:
        for dimension in DIMENSIONS:
            for weight in WEIGHTS:
                assert repr(usage_rollup(table, dimension, weight, period)) == repr(
                    oracle.usage_rollup(jobs, dimension, weight, period, RESOURCES))
        assert repr(single_node_serial_fractions(table, period)) == repr(
            oracle.single_node_serial_fractions(jobs, RESOURCES, period))
        variants = average_job_size_variants(table, period, kraken_factor=2.04)
        for (weighted, effective), series in variants.items():
            assert repr(series) == repr(oracle.average_job_size_series(
                jobs, RESOURCES, period, weighted, effective, 2.04))
    for weight in WEIGHTS:
        assert repr(job_size_distribution(table, weight=weight)) == repr(
            oracle.job_size_distribution(jobs, weight=weight, resources=RESOURCES))
    for weighted in (False, True):
        for effective in (False, True):
            assert _outcome(lambda: average_job_size(table, weighted, effective)) == _outcome(
                lambda: oracle.average_job_size(jobs, RESOURCES, weighted, effective))


@settings(max_examples=60, deadline=None)
@given(jobs_strategy(), st.sampled_from((None, 1969, 1970, 2015, 2016)))
def test_depth_profile_equals_the_oracle(jobs, window_year):
    table = table_of(jobs)
    for by in ("cores", "nodes"):
        assert repr(depth_profile(table, by, window_year)) == repr(
            oracle.depth_profile(jobs, by, window_year))


@settings(max_examples=60, deadline=None)
@given(jobs_strategy(), st.builds(
    Filters, start=st.sampled_from((None, date(1969, 1, 1), date(2015, 10, 1))),
    end=st.sampled_from((None, date(1970, 1, 1), date(2016, 1, 1))),
    resources=st.sampled_from((None, {"PARTIAL", "OSG"})),
    exclude_resources=st.sampled_from((frozenset(), {"GHOST"})),
    queues=st.sampled_from((None, {"shared"})), exclude_osg=st.booleans()))
def test_filters_equal_the_oracle(jobs, filters):
    table = table_of(jobs, RESOURCES)
    assert filters.apply(table).row.tolist() == [
        i for i, job in enumerate(jobs) if oracle.keep(filters, job)]


SMALL_DURATIONS = st.one_of(st.sampled_from((0, 0, 60, DAY)), st.integers(0, DAY))


@st.composite
def trace_strategy(draw):
    """Jobs within a few days of one midnight, after or before 1970, rich
    in equal instants; one midnight per trace keeps its daily series short."""
    base = draw(st.sampled_from((Q4_2015, -400 * DAY)))
    minutes = st.one_of(st.sampled_from((0, 1)), st.integers(-2 * 24 * 60, 3 * 24 * 60))
    jobs = []
    for i in range(draw(st.integers(1, 25))):
        submit = base + 60 * draw(minutes)
        start = submit + draw(SMALL_DURATIONS)
        nodes = draw(st.integers(1, 4))
        jobs.append(make_job(job_id=draw(st.sampled_from(("42", f"j{i}"))),
                             resource=draw(st.sampled_from(("TESTMACHINE", "OSG"))),
                             submit=submit, start=start, end=start + draw(SMALL_DURATIONS),
                             nodes=nodes, cores=nodes * draw(st.sampled_from((1, 16)))))
    return jobs


@settings(max_examples=100, deadline=None)
@given(trace_strategy())
def test_queue_replay_equals_the_oracle(jobs):
    resources = {"OSG": make_resource(name="OSG", nodes=5)}
    table = table_of(jobs, resources)
    assert backlog.required_nodes_at_submit(table) == oracle.required_nodes(jobs)
    for sampling in ("event", "daily"):
        for resource in (None, "OSG", "TESTMACHINE"):
            assert repr(backlog.backlog_series(table, resource, sampling)) == repr(
                oracle.backlog_series(jobs, resource, sampling, resources.get(resource)))


@pytest.fixture(scope="module")
def ctx():
    b = synth.make_synthetic_dataset(seed=5, n_jobs=800)
    return ReportContext(dataset=b.dataset, summaries=b.summaries,
                         community_users=b.community_users, user_email=b.user_email,
                         population_by_state=b.population_by_state,
                         tech_index_by_state=b.tech_index_by_state)


def test_bundle_from_the_record_oracle_is_byte_identical(ctx, tmp_path, monkeypatch):
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "columns")))
    jobs, resources = ctx.dataset.jobs, ctx.dataset.resources

    def on_records(loop, **extra):
        # the report passes rows of the dataset's table; hand the loop their
        # records, and the resource map where the loop needs it
        def call(table, *args, **kwargs):
            return loop([jobs[i] for i in table.row.tolist()], *args, **kwargs, **extra)
        return call

    def variants(table, period="quarter", kraken_factor=2.04):
        return {(w, e): oracle.average_job_size_series(
            [jobs[i] for i in table.row.tolist()], resources, period, w, e, kraken_factor)
            for w in (False, True) for e in (False, True)}

    def capacity_estimates(table, resource, targets):
        spec = table.resources.get(resource)
        pool = [jobs[i] for i in table.row.tolist() if jobs[i].resource == resource]
        ordered = sorted(oracle.required_nodes(pool))
        return [backlog.CapacityEstimate(
            resource, t, ordered[max(1, math.ceil(t * len(ordered))) - 1],
            ordered[max(1, math.ceil(t * len(ordered))) - 1] * spec.cores_per_node
            if spec else None, spec.nodes if spec else None) for t in targets]

    def with_summaries(loop, **extra):
        # and the summary mapping in place of the joined columns
        def call(table, perf, *args, **kwargs):
            return loop([jobs[i] for i in table.row.tolist()], ctx.summaries, *args, **kwargs,
                        **extra)
        return call

    for name in ("usage_rollup", "job_size_distribution", "single_node_serial_fractions",
                 "gateway_usage"):
        monkeypatch.setattr(report, name, on_records(getattr(oracle, name),
                                                     resources=resources))
    for name in ("memory_histograms", "memory_2d", "large_memory_breakdown",
                 "concurrency_histograms"):
        monkeypatch.setattr(report, name, with_summaries(getattr(oracle, name),
                                                         resources=resources))
    monkeypatch.setattr(report, "lustre_stats", with_summaries(oracle.lustre_stats))
    for name in ("depth_profile", "gateway_census", "gateway_conversion"):
        monkeypatch.setattr(report, name, on_records(getattr(oracle, name)))
    for name in ("backlog_series", "wait_stats", "user_queue_depth"):
        monkeypatch.setattr(report.backlog_mod, name, on_records(getattr(oracle, name)))
    for name in ("exit_code_table", "fit_node_fail"):
        monkeypatch.setattr(report.statmodels, name, on_records(getattr(oracle, name)))
    monkeypatch.setitem(report.ANALYSES, "periodogram", lambda run_ctx, filters, params:
                        oracle.periodogram([job for job in jobs if oracle.keep(filters, job)],
                                           params))
    monkeypatch.setattr(report, "average_job_size_variants", variants)
    monkeypatch.setattr(report.backlog_mod, "capacity_estimates", capacity_estimates)
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "records")))
    for path in sorted((tmp_path / "columns").iterdir()):
        assert path.read_bytes() == (tmp_path / "records" / path.name).read_bytes(), path.name


class _TableOnly(Dataset):
    """A dataset whose job records raise on any access; its job table is
    set after it is built."""

    def __post_init__(self):
        pass  # it holds no jobs to check

    @property
    def jobs(self):
        raise AssertionError("the report read the job records")

    @jobs.setter
    def jobs(self, value):
        pass


def test_a_report_reads_only_the_job_table(ctx, tmp_path):
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "records")))
    dataset = _TableOnly(jobs=(), allocations=ctx.dataset.allocations,
                         resources=ctx.dataset.resources,
                         quality_flags=ctx.dataset.quality_flags)
    vars(dataset)["job_table"] = ctx.dataset.job_table  # where cached_property keeps it
    with pytest.raises(AssertionError, match="read the job records"):
        dataset.jobs
    run_report(dataclasses.replace(ctx, dataset=dataset),
               standard_bundle_spec(output_dir=str(tmp_path / "table")))
    for path in sorted((tmp_path / "records").iterdir()):
        assert path.read_bytes() == (tmp_path / "table" / path.name).read_bytes(), path.name


def test_a_job_table_is_built_once_per_dataset(tmp_path):
    dataset = synth.make_synthetic_dataset(seed=6, n_jobs=50).dataset
    assert "job_table" not in vars(dataset)
    spec = dataclasses.replace(standard_bundle_spec(), analyses=(("usage_rollup", {}),))
    run_report(ReportContext(dataset=dataset),
               dataclasses.replace(spec, output_dir=str(tmp_path / "a")))
    table = dataset.job_table
    run_report(ReportContext(dataset=dataset),
               dataclasses.replace(spec, output_dir=str(tmp_path / "b")))
    assert dataset.job_table is table
    assert np.array_equal(table.row, np.arange(len(dataset.jobs)))


# --- shared, read-only columns ---------------------------------------------------

def test_a_take_of_every_row_in_order_is_the_table_itself(ctx):
    table = ctx.dataset.job_table
    n = len(table)
    assert table.take(np.ones(n, dtype=bool)) is table
    assert table.take(np.arange(n)) is table
    assert Filters().apply(table) is table


@pytest.mark.parametrize("rows", [
    lambda n: np.arange(n) > 0,
    lambda n: np.arange(n - 1),
    lambda n: np.arange(n)[::-1],
    lambda n: np.r_[1, 0, np.arange(2, n)],
    lambda n: np.r_[0, np.arange(n - 1)],
], ids=["partial-mask", "partial-index", "reversed", "swapped", "repeated"])
def test_any_other_take_is_a_copy(ctx, rows):
    table = ctx.dataset.job_table
    rows = rows(len(table))
    taken = table.take(rows)
    assert taken is not table
    assert np.array_equal(taken.row, table.row[rows])
    assert np.array_equal(taken.user.codes, table.user.codes[rows])


def test_every_column_is_read_only(ctx):
    table = ctx.dataset.job_table
    named = {f.name for f in dataclasses.fields(table)} - {"resources"}
    for columns in (table, table.take(table.nodes > 1)):
        arrays = column_arrays(columns)
        assert set(arrays) == named
        assert not [name for name, column in arrays.items() if column.flags.writeable]
    with pytest.raises(ValueError, match="read-only"):
        table.submit[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        table.resource.codes[:] = 0


# --- lazy takes ---------------------------------------------------------------

COLUMNS = frozenset(f.name for f in dataclasses.fields(JobTable))


def row_selections(n):
    """Masks and index arrays over n rows: reversed, repeated and empty ones
    among them."""
    index = st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])
    return st.one_of(
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda m: np.array(m, dtype=bool)),
        index.map(lambda rows: np.array(rows, dtype=np.intp)),
        st.just(np.arange(n)[::-1]),
        st.just(np.array([], dtype=np.intp)))


@settings(max_examples=60, deadline=None)
@given(jobs_strategy(min_size=1), st.data())
def test_a_take_of_a_take_reads_the_rows_of_the_built_table(jobs, data):
    table = table_of(jobs, RESOURCES)
    taken, rows = table, np.arange(len(table))
    for _ in range(data.draw(st.integers(1, 3))):
        selection = data.draw(row_selections(len(taken)))
        if data.draw(st.booleans()):
            taken.user  # a column read before the next take changes nothing
        taken, rows = taken.take(selection), rows[selection]
    assert len(taken) == len(rows)
    for name in sorted(COLUMNS):
        column, got = getattr(table, name), getattr(taken, name)
        if isinstance(column, Codes):
            assert got.names is column.names
            column, got = column.codes, got.codes
        if isinstance(column, np.ndarray):
            assert got.dtype == column.dtype
            assert repr(got.tolist()) == repr(column[rows].tolist()), name
            assert not got.flags.writeable, name
        else:
            assert got is column, name


def test_a_take_copies_only_the_columns_read(ctx, monkeypatch):
    table = ctx.dataset.job_table
    fresh = table.take(table.nodes > 1)
    assert len(fresh) == np.count_nonzero(table.nodes > 1)
    assert not COLUMNS & set(vars(fresh))
    subsets, of = [], backlog._of_resource

    def of_resource(table, resource):
        subsets.append(of(table, resource))
        return subsets[-1]

    monkeypatch.setattr(backlog, "_of_resource", of_resource)
    backlog.backlog_series(table, table.resource.present()[0])
    [subset] = subsets
    assert subset is not table
    assert COLUMNS & set(vars(subset)) == {"submit", "start", "end", "nodes", "cores"}


def test_a_take_of_rows_the_table_lacks_is_an_index_error(ctx):
    table = ctx.dataset.job_table
    for columns in (table, table.take(np.arange(1, len(table)))):
        n = len(columns)
        for rows in (np.ones(n - 1, dtype=bool), np.array([0, n]), np.array([-n - 1])):
            with pytest.raises(IndexError):
                columns.take(rows)


# --- distinct values without numpy.ma -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3), max_size=60))
def test_distinct_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    expected = np.unique(values)
    got = distinct(values)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), max_size=30))))
def test_present_is_the_names_some_row_has(case):
    n, codes = case
    column = Codes(tuple(f"name{i}" for i in range(n)), np.array(codes, dtype=np.int32))
    assert column.present() == [column.names[code] for code in np.unique(column.codes).tolist()]


def _plain_unique_calls(source: str) -> list[int]:
    """Lines of the np.unique calls in some source that pass no return_* flag."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any((k.arg or "").startswith("return_") for k in node.keywords)]


def test_src_has_no_plain_np_unique_call():
    # a plain np.unique imports numpy.ma on its first call; jobtable.distinct
    # gives the same values without it
    assert _plain_unique_calls("np.unique(a)\nnp.unique(a, return_index=True)\n"
                               "numpy.unique(\n    a, axis=0)\n") == [1, 3]
    src = Path(__file__).resolve().parents[1] / "src" / "hpcwl"
    found = {str(path.relative_to(src)): lines for path in sorted(src.rglob("*.py"))
             if (lines := _plain_unique_calls(path.read_text("utf-8")))}
    assert found == {}
