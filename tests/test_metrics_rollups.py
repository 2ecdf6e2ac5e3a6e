import inspect
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_job, make_resource, table_of
from hpcwl import backlog, metrics, statmodels
from hpcwl.ingest import ResourceType, builtin_resources
from hpcwl.metrics import (
    Filters,
    PerfColumns,
    average_job_size,
    job_size_distribution,
    memory_2d,
    single_node_serial_fractions,
    usage_rollup,
)
from rollups_oracle import effective_cores

# 2010-06-01, inside Kraken's 2.04 window and Stampede's production overlap
KRAKEN_T = 1275350400


@pytest.fixture(scope="module")
def real_resources():
    return builtin_resources()


def test_two_jobs_same_quarter_full_share(test_resources):
    jobs = [make_job(job_id="a", local_su=30.0), make_job(job_id="b", local_su=70.0)]
    table = usage_rollup(table_of(jobs, test_resources), "parent_science", "xd_su",
                         "quarter")
    rows = table.rows()
    assert len(rows) == 1
    period, value, total, share = rows[0]
    assert period == "2015-Q3" and value == "Physics"
    assert total == pytest.approx(200.0)  # (30 + 70) * factor 2.0
    assert share == 100.0


def test_exclude_osg_filter(test_resources):
    resources = dict(test_resources)
    resources["OSG"] = make_resource(name="OSG", rtype=ResourceType.HTC,
                                     nodes=1000, cores_per_node=1)
    jobs = [make_job(job_id="h", resource="OSG", nodes=1, cores=1),
            make_job(job_id="k")]
    table = usage_rollup(Filters(exclude_osg=True).apply(table_of(jobs, resources)),
                         "resource", "jobs", "quarter")
    assert [row[1] for row in table.rows()] == ["TESTMACHINE"]


def test_queue_and_resource_filters(test_resources):
    resources = dict(test_resources)
    resources["OTHER"] = make_resource(name="OTHER")
    jobs = [make_job(job_id="a", queue="shared"),
            make_job(job_id="b", queue="normal"),
            make_job(job_id="c", queue="shared", resource="OTHER")]
    table = table_of(jobs, resources)
    shared_only = Filters(queues=frozenset({"shared"}))
    assert shared_only.apply(table).job_id.tolist() == ["a", "c"]
    not_other = Filters(exclude_resources=frozenset({"OTHER"}))
    assert not_other.apply(table).job_id.tolist() == ["a", "b"]
    only_other = Filters(resources=frozenset({"OTHER"}))
    assert only_other.apply(table).job_id.tolist() == ["c"]
    window = Filters(start=date(2015, 8, 1), end=date(2015, 8, 2))
    assert len(window.apply(table)) == 3


def test_job_without_factor_excluded_from_xd_rollup(real_resources):
    good = make_job(job_id="g", resource="TACC-STAMPEDE")
    bad = make_job(job_id="b", resource="NICS-KRAKEN")  # 2015: no Kraken factor
    table = usage_rollup(table_of([good, bad], real_resources), "resource", "xd_su",
                         "quarter")
    assert table.excluded_no_factor == 1
    assert list(table.totals["2015-Q3"]) == ["TACC-STAMPEDE"]


def test_twelve_job_fixture_matches_hand_table(test_resources):
    # 2 parent sciences x 2 quarters; weights chosen for easy arithmetic
    q3 = T0                      # 2015-08-01
    q4 = T0 + 92 * 86400         # 2015-11-01
    jobs = []
    for i, (when, science, su) in enumerate([
            (q3, "Physics", 10), (q3, "Physics", 20), (q3, "Physics", 30),
            (q3, "Chemistry", 40),
            (q4, "Physics", 5), (q4, "Chemistry", 5), (q4, "Chemistry", 15),
            (q4, "Chemistry", 25),
            (q3, "Physics", 0), (q3, "Chemistry", 0),
            (q4, "Physics", 45), (q4, "Physics", 50)]):
        jobs.append(make_job(job_id=f"j{i}", submit=when,
                             parent_science=science, local_su=float(su)))
    table = usage_rollup(table_of(jobs, test_resources), "parent_science", "xd_su",
                         "quarter")
    # hand table (local SU sums x factor 2.0):
    #   2015-Q3: Chemistry 80, Physics 120  -> shares 40 / 60
    #   2015-Q4: Chemistry 90, Physics 200  -> shares 31.03 / 68.97
    rows = table.rows()
    assert rows[0] == ("2015-Q3", "Chemistry", pytest.approx(80.0), pytest.approx(40.0))
    assert rows[1] == ("2015-Q3", "Physics", pytest.approx(120.0), pytest.approx(60.0))
    assert rows[2] == ("2015-Q4", "Chemistry", pytest.approx(90.0),
                       pytest.approx(100 * 90 / 290))
    assert rows[3] == ("2015-Q4", "Physics", pytest.approx(200.0),
                       pytest.approx(100 * 200 / 290))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["Physics", "Chemistry", "Biology"]),
                          st.floats(0.1, 1e6), st.integers(0, 500)),
                min_size=1, max_size=40))
def test_period_shares_sum_to_100(cases):
    resources = {"TESTMACHINE": make_resource()}
    jobs = [make_job(job_id=f"j{i}", submit=T0 + day * 86400,
                     parent_science=science, local_su=su)
            for i, (science, su, day) in enumerate(cases)]
    table = usage_rollup(table_of(jobs, resources), "parent_science", "xd_su", "quarter")
    for period in table.totals:
        if sum(table.totals[period].values()) > 0:
            assert sum(table.shares(period).values()) == pytest.approx(100.0, abs=1e-6)


def test_xd_su_analyses_need_a_table_built_with_the_resource_map():
    table = table_of([make_job()])
    for compute in (lambda: usage_rollup(table, "resource", "xd_su", "year"),
                    lambda: average_job_size(table),
                    lambda: single_node_serial_fractions(table),
                    lambda: memory_2d(table, PerfColumns.join(table, {}))):
        with pytest.raises(ValueError, match="needs the resource map"):
            compute()


def test_no_analysis_takes_its_own_resource_map():
    # the map lives in the JobTable, so no analysis can be handed another one
    for module in (metrics, backlog, statmodels):
        for name, function in inspect.getmembers(module, inspect.isfunction):
            if not name.startswith("_"):
                parameters = inspect.signature(function).parameters
                assert not {"resources", "spec"} & set(parameters), (module.__name__, name)


# --- job size distribution ---------------------------------------------------

def test_single_core_job_in_first_bin(test_resources):
    hist = job_size_distribution(table_of([make_job(cores=1, nodes=1)]), weight="jobs")
    assert hist.weights[0] == 1.0
    assert hist.labels()[0] == "1"
    assert hist.grand_total() == 1.0


def test_adjacent_bins_at_power_edge(test_resources):
    jobs = [make_job(job_id="a", cores=1024, nodes=64),
            make_job(job_id="b", cores=1025, nodes=65)]
    hist = job_size_distribution(table_of(jobs), weight="jobs")
    edges = hist.edges
    labels = hist.labels()
    bin_a = labels[[i for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
                    if lo <= 1024 < hi][0]]
    bin_b = labels[[i for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
                    if lo <= 1025 < hi][0]]
    assert bin_a == "513-1024"
    assert bin_b == "1025-2048"


def test_weight_conservation(test_resources):
    jobs = [make_job(job_id=f"j{i}", cores=2 ** i, nodes=max(1, 2 ** i // 16))
            for i in range(10)]
    hist = job_size_distribution(table_of(jobs, test_resources), weight="core_hours")
    assert hist.grand_total() == pytest.approx(sum(j.core_hours for j in jobs),
                                               rel=1e-12)


def test_oversize_jobs_land_in_tail_bin():
    hist = job_size_distribution(table_of([make_job(cores=200000, nodes=12500)]))
    assert hist.labels()[-1] == ">131072"
    assert hist.weights[-1] == 1.0
    assert hist.overflow == 0.0  # the tail bin is explicit, not overflow


# --- average and effective cores ----------------------------------------------

def kraken_job(job_id="k1", cores=16, **kwargs):
    kwargs.setdefault("submit", KRAKEN_T)
    kwargs.setdefault("nodes", max(1, cores // 12))
    return make_job(job_id=job_id, resource="NICS-KRAKEN", cores=cores, **kwargs)


def test_all_kraken_effective_equals_actual(real_resources):
    jobs = [kraken_job(job_id=f"k{i}", cores=12 * (i + 1)) for i in range(5)]
    table = table_of(jobs, real_resources)
    actual = average_job_size(table, effective=False)
    effective = average_job_size(table, effective=True, kraken_factor=2.04)
    assert effective == pytest.approx(actual, rel=1e-12)


def test_effective_cores_hand_value(real_resources):
    job = make_job(resource="TACC-STAMPEDE", cores=16, nodes=1)
    assert effective_cores(job, real_resources, 2.04) == pytest.approx(
        16 * 4.599 / 2.04)
    assert effective_cores(job, real_resources, 2.04) == pytest.approx(36.07, abs=0.01)


def test_weighted_average_is_convex_combination(real_resources):
    jobs = [make_job(job_id="a", resource="TACC-STAMPEDE", cores=16, nodes=1,
                     local_su=100.0),
            make_job(job_id="b", resource="TACC-STAMPEDE", cores=256, nodes=16,
                     local_su=10.0)]
    avg = average_job_size(table_of(jobs, real_resources), weighted_by_xd_su=True)
    assert 16.0 <= avg <= 256.0


# --- single node / serial ------------------------------------------------------

def test_all_single_node_is_100_pct(test_resources):
    jobs = [make_job(job_id=f"j{i}", nodes=1, cores=16) for i in range(4)]
    shares = single_node_serial_fractions(table_of(jobs, test_resources))
    assert shares[0].pct_jobs_single_node == 100.0
    assert shares[0].pct_xd_su_single_node == 100.0


def test_mixed_fixture_hand_count(test_resources):
    jobs = [
        make_job(job_id="a", nodes=1, cores=1, local_su=10.0),   # serial
        make_job(job_id="b", nodes=1, cores=16, local_su=30.0),  # single node
        make_job(job_id="c", nodes=4, cores=64, local_su=60.0),  # multi node
    ]
    share = single_node_serial_fractions(table_of(jobs, test_resources))[0]
    assert share.pct_jobs_single_node == pytest.approx(100 * 2 / 3)
    assert share.pct_xd_su_single_node == pytest.approx(40.0)
    assert share.pct_xd_su_serial == pytest.approx(10.0)


def test_serial_share_never_exceeds_single_node_share(test_resources):
    jobs = [make_job(job_id=f"j{i}", nodes=1, cores=1 if i % 2 else 16,
                     local_su=float(i + 1)) for i in range(9)]
    jobs.append(make_job(job_id="m", nodes=2, cores=32, local_su=11.0))
    share = single_node_serial_fractions(table_of(jobs, test_resources))[0]
    assert share.pct_xd_su_serial <= share.pct_xd_su_single_node
