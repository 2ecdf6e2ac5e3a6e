import dataclasses
import math

import numpy as np
import pytest

from conftest import T0, make_job, make_resource
from hpcwl.backlog import (
    SECONDS_PER_CORE_YEAR,
    backlog_series,
    capacity_for_percentile,
    required_nodes_at_submit,
    user_queue_depth,
    wait_stats,
)
from hpcwl.errors import EmptyGroup
from hpcwl.jobtable import JobTable

MIN = 60


def trace_job(job_id, submit_min, start_min, end_min, nodes=1, cores=None,
              user="u"):
    return make_job(job_id=job_id, submit=T0 + submit_min * MIN,
                    start=T0 + start_min * MIN, end=T0 + end_min * MIN,
                    nodes=nodes, cores=cores or nodes * 16, user=user)


def brute_force_state(jobs, t):
    """Pointwise replay state at time t, written independently."""
    queued = [j for j in jobs if j.submit_time <= t < j.start_time]
    running = [j for j in jobs if j.start_time <= t < j.end_time]
    core_seconds = sum(j.cores * (j.end_time - j.start_time) for j in queued)
    return (core_seconds, sum(j.nodes for j in running),
            sum(j.nodes for j in queued))


def make_random_trace(rng, n_jobs=40, span_minutes=2000):
    jobs = []
    for i in range(n_jobs):
        submit = int(rng.integers(0, span_minutes))
        wait = int(rng.integers(0, 300))
        duration = int(rng.integers(1, 600))
        jobs.append(trace_job(f"j{i}", submit, submit + wait,
                              submit + wait + duration,
                              nodes=int(rng.integers(1, 9))))
    return jobs


# --- backlog series ------------------------------------------------------------

def test_single_job_backlog_window():
    job = trace_job("a", 0, 60, 120, nodes=4)
    points = backlog_series(JobTable.of([job])).points
    by_time = {p.time: p for p in points}
    assert by_time[job.submit_time].queued_nodes == 4
    assert by_time[job.submit_time].queued_core_years > 0
    assert by_time[job.start_time].queued_nodes == 0
    assert by_time[job.start_time].running_nodes == 4
    assert by_time[job.end_time].running_nodes == 0
    # queued core-years = cores x wall seconds / seconds-per-core-year
    expect = job.cores * job.wall_seconds / SECONDS_PER_CORE_YEAR
    assert by_time[job.submit_time].queued_core_years == pytest.approx(expect)


def test_two_overlapping_queued_jobs_sum():
    jobs = [trace_job("a", 0, 100, 200, nodes=2),
            trace_job("b", 50, 100, 160, nodes=3)]
    points = {p.time: p for p in backlog_series(JobTable.of(jobs)).points}
    t = T0 + 50 * MIN
    assert points[t].queued_nodes == 5
    expected_cs = (jobs[0].cores * jobs[0].wall_seconds
                   + jobs[1].cores * jobs[1].wall_seconds)
    assert points[t].queued_core_seconds == expected_cs


def test_five_job_series_matches_per_minute_oracle():
    jobs = [
        trace_job("a", 0, 30, 90, nodes=1),
        trace_job("b", 10, 30, 50, nodes=2),
        trace_job("c", 10, 60, 600, nodes=4),
        trace_job("d", 45, 45, 100, nodes=8),   # starts immediately
        trace_job("e", 95, 120, 125, nodes=1),
    ]
    points = backlog_series(JobTable.of(jobs)).points
    assert points  # sanity
    for point in points:
        cs, running, queued = brute_force_state(jobs, point.time)
        assert point.queued_core_seconds == cs
        assert point.running_nodes == running
        assert point.queued_nodes == queued
    # and the full per-minute scan agrees wherever a point exists
    by_time = {p.time: p for p in points}
    for minute in range(0, 601):
        t = T0 + minute * MIN
        if t in by_time:
            cs, running, queued = brute_force_state(jobs, t)
            assert by_time[t].queued_core_seconds == cs


def test_daily_sampling_agrees_with_event_at_shared_times():
    jobs = [trace_job("a", 0, 2000, 4000, nodes=3),
            trace_job("b", 500, 3000, 9000, nodes=5)]
    event = {p.time: p for p in backlog_series(JobTable.of(jobs), sampling="event").points}
    daily = backlog_series(JobTable.of(jobs), sampling="daily").points
    assert daily  # spans several days
    for point in daily:
        cs, running, queued = brute_force_state(jobs, point.time)
        assert (point.queued_core_seconds, point.running_nodes,
                point.queued_nodes) == (cs, running, queued)
        if point.time in event:
            assert event[point.time] == point


def test_removing_a_job_never_increases_backlog():
    rng = np.random.default_rng(7)
    jobs = make_random_trace(rng, n_jobs=25)
    base = {p.time: p for p in backlog_series(JobTable.of(jobs)).points}
    reduced = backlog_series(JobTable.of(jobs[1:])).points
    for point in reduced:
        if point.time in base:
            assert point.queued_core_seconds <= base[point.time].queued_core_seconds
            assert point.queued_nodes <= base[point.time].queued_nodes


def test_infeasible_running_flagged():
    tiny = make_resource(nodes=2)
    jobs = [trace_job("a", 0, 0, 100, nodes=2), trace_job("b", 0, 0, 100, nodes=1)]
    series = backlog_series(JobTable.of(jobs), spec=tiny)
    assert series.infeasible_times


# --- wait statistics ------------------------------------------------------------

def test_constant_waits():
    jobs = [trace_job(f"j{i}", 0, 60, 120 + i) for i in range(5)]
    stats = wait_stats(JobTable.of(jobs))["TESTMACHINE"]
    assert stats.q1_hours == stats.median_hours == stats.q3_hours == 1.0
    assert stats.mean_hours == 1.0
    assert stats.core_hour_weighted_mean_hours == pytest.approx(1.0)


def test_weighted_mean_hand_arithmetic():
    # waits 1h and 3h with core-hour weights 1 and 3
    jobs = [trace_job("a", 0, 60, 120, nodes=1, cores=1),
            trace_job("b", 0, 180, 360, nodes=1, cores=1)]
    stats = wait_stats(JobTable.of(jobs))["TESTMACHINE"]
    assert stats.mean_hours == pytest.approx(2.0)
    assert stats.core_hour_weighted_mean_hours == pytest.approx(2.5)


def test_quartiles_match_sorted_list_oracle():
    waits_hours = [1, 2, 3, 4, 5, 6, 7, 8]
    jobs = [trace_job(f"j{i}", 0, w * 60, w * 60 + 60, cores=16)
            for i, w in enumerate(waits_hours)]
    stats = wait_stats(JobTable.of(jobs))["TESTMACHINE"]
    # sorted-list linear interpolation: pos = q*(n-1)
    assert stats.q1_hours == pytest.approx(1 + 0.25 * 7)   # 2.75
    assert stats.median_hours == pytest.approx(4.5)
    assert stats.q3_hours == pytest.approx(1 + 0.75 * 7)   # 6.25
    assert stats.mean_hours == pytest.approx(4.5)


def test_empty_group_raises():
    with pytest.raises(EmptyGroup):
        wait_stats(JobTable.of([]))


# --- capacity --------------------------------------------------------------------

def test_single_job_capacity_at_any_target():
    job = trace_job("a", 0, 60, 120, nodes=4)
    for target in (0.5, 0.95, 0.99):
        estimate = capacity_for_percentile(JobTable.of([job]), "TESTMACHINE", target)
        assert estimate.nodes_required == 4


def test_capacity_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    jobs = make_random_trace(rng, n_jobs=20)
    required = required_nodes_at_submit(JobTable.of(jobs))
    # oracle: recompute R_j pointwise per job, then take the same quantile
    oracle = []
    for job in jobs:
        _, running, queued = brute_force_state(jobs, job.submit_time)
        oracle.append(running + queued)
    assert required == oracle
    for target in (0.5, 0.9, 0.95, 0.99):
        estimate = capacity_for_percentile(JobTable.of(jobs), "TESTMACHINE", target)
        ordered = sorted(oracle)
        k = max(1, math.ceil(target * len(ordered))) - 1
        assert estimate.nodes_required == ordered[k]


def test_jobs_sharing_an_id_each_count_once():
    jobs = [trace_job("42", 0, 0, 100, nodes=10), trace_job("42", 10, 10, 100, nodes=10),
            trace_job("7", 200, 200, 300, nodes=1)]
    table = JobTable.of(jobs)
    assert required_nodes_at_submit(table) == [10, 20, 1]
    assert capacity_for_percentile(table, "TESTMACHINE", 0.5).nodes_required == 10
    distinct = [dataclasses.replace(job, job_id=str(i)) for i, job in enumerate(jobs)]
    assert capacity_for_percentile(JobTable.of(distinct), "TESTMACHINE", 0.5).nodes_required == 10


def test_capacity_monotone_in_target():
    rng = np.random.default_rng(3)
    for _ in range(10):
        table = JobTable.of(make_random_trace(rng, n_jobs=30))
        c95 = capacity_for_percentile(table, "TESTMACHINE", 0.95).nodes_required
        c99 = capacity_for_percentile(table, "TESTMACHINE", 0.99).nodes_required
        assert c99 >= c95


def test_capacity_near_one_is_the_submit_time_maximum():
    rng = np.random.default_rng(13)
    table = JobTable.of(make_random_trace(rng, n_jobs=50))
    top = capacity_for_percentile(table, "TESTMACHINE", 0.999999).nodes_required
    assert top == max(required_nodes_at_submit(table))


def test_capacity_cores_and_ratio():
    spec = make_resource(nodes=10, cores_per_node=16)
    job = trace_job("a", 0, 60, 120, nodes=5)
    estimate = capacity_for_percentile(JobTable.of([job]), "TESTMACHINE", 0.95, spec=spec)
    assert estimate.cores_required == 80
    assert estimate.ratio_to_actual == pytest.approx(0.5)


def test_time_weighted_variant_available():
    jobs = [trace_job("a", 0, 100, 200, nodes=8),
            trace_job("b", 150, 160, 170, nodes=1)]
    # required nodes over [0, 200): 8 for 180 s, 9 for 20 s
    required = {q: capacity_for_percentile(JobTable.of(jobs), "TESTMACHINE", q,
                                           time_weighted=True).nodes_required
                for q in (0.5, 0.9, 0.96)}
    # at q = 0.9 the cumulative weight of 8 nodes is exactly 0.9 * 200
    assert required == {0.5: 8, 0.9: 8, 0.96: 9}


# --- user queue depth ---------------------------------------------------------------

def test_three_overlapping_jobs_depth_three():
    jobs = [trace_job("a", 0, 100, 200, user="u1"),
            trace_job("b", 10, 100, 150, user="u1"),
            trace_job("c", 20, 100, 130, user="u1")]
    rows = user_queue_depth(JobTable.of(jobs))
    assert rows[0].max_depth == 3
    assert rows[0].job_count == 3


def test_sequential_jobs_depth_one():
    jobs = [trace_job("a", 0, 10, 100, user="u1"),
            trace_job("b", 100, 110, 200, user="u1"),  # starts as 'a' ends
            trace_job("c", 250, 260, 300, user="u1")]
    assert user_queue_depth(JobTable.of(jobs))[0].max_depth == 1


def test_depth_matches_brute_force_sweep():
    rng = np.random.default_rng(11)
    jobs = []
    for i in range(30):
        submit = int(rng.integers(0, 500))
        jobs.append(trace_job(f"j{i}", submit, submit + int(rng.integers(0, 50)),
                              submit + int(rng.integers(51, 200)),
                              user=f"u{int(rng.integers(3))}"))
    rows = {r.user: r for r in user_queue_depth(JobTable.of(jobs))}
    for user in {j.user for j in jobs}:
        mine = [j for j in jobs if j.user == user]
        brute_max = max(
            sum(1 for j in mine if j.submit_time <= t < j.end_time)
            for t in range(T0, T0 + 800 * MIN, MIN))
        assert rows[user].max_depth == brute_max
        assert rows[user].job_count == len(mine)


def test_community_category_label():
    jobs = [trace_job("a", 0, 10, 20, user="cipres_comm"),
            trace_job("b", 0, 10, 20, user="alice")]
    rows = {r.user: r for r in user_queue_depth(JobTable.of(jobs), {"cipres_comm": "Cipres"})}
    assert rows["cipres_comm"].category == "community"
    assert rows["alice"].category == "regular"
