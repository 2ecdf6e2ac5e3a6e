"""Lustre, concurrency and geographic metric tests."""
from datetime import date

import pytest

from conftest import T0, make_job, perf_columns
from hpcwl.metrics import concurrency_histograms, geo_normalize, lustre_stats
from hpcwl.metrics.concurrency import process_band, thread_bucket
from hpcwl.perfsummary import JobPerfSummary, LaunchType

GB = 1e9


def lustre_summary(job, rx=0.0, tx=0.0, opens=0.0, runnable=None,
                   launch=LaunchType.UNKNOWN):
    return JobPerfSummary(job_id=job.job_id, lustre_rx=rx, lustre_tx=tx,
                          file_opens=opens, runnable_threads_median=runnable,
                          launch_type=launch)


def test_per_node_hour_normalization(test_resources):
    # 10 GB read over 2 node-hours -> 5 GB per node-hour
    job = make_job(nodes=2, cores=32, end=T0 + 600 + 3600)
    stats = lustre_stats(*perf_columns([job], {job.job_id: lustre_summary(job, rx=10 * GB)}),
                         normalize="per_node_hour")
    hist = stats.unweighted["bytes_read"]
    populated = [(lo, hi) for (lo, hi, w) in
                 zip(hist.edges, hist.edges[1:], hist.weights) if w]
    assert len(populated) == 1
    lo, hi = populated[0]
    assert lo <= 5 * GB < hi


def test_daily_aggregates_sum_same_day(test_resources):
    j1 = make_job(job_id="a")
    j2 = make_job(job_id="b", submit=T0 + 7200)
    summaries = {"a": lustre_summary(j1, rx=3 * GB, tx=1 * GB),
                 "b": lustre_summary(j2, rx=2 * GB, tx=5 * GB)}
    stats = lustre_stats(*perf_columns([j1, j2], summaries))
    assert len(stats.daily) == 1
    day, rx, tx = stats.daily[0]
    assert day == date(2015, 8, 1)
    assert rx == pytest.approx(5 * GB)
    assert tx == pytest.approx(6 * GB)


def test_multi_day_job_apportioned_by_overlap():
    # 12h on day one, 12h on day two
    start = T0 + 12 * 3600
    job = make_job(submit=start - 600, start=start, end=start + 24 * 3600)
    stats = lustre_stats(*perf_columns([job], {job.job_id: lustre_summary(job, rx=10 * GB)}))
    assert len(stats.daily) == 2
    assert stats.daily[0][1] == pytest.approx(5 * GB)
    assert stats.daily[1][1] == pytest.approx(5 * GB)


def test_weighted_vs_unweighted_match_oracle(test_resources):
    jobs = [make_job(job_id="a", nodes=1, cores=16),
            make_job(job_id="b", nodes=2, cores=32),
            make_job(job_id="c", nodes=4, cores=64)]
    reads = {"a": 1e6, "b": 1e9, "c": 1e12}
    summaries = {j.job_id: lustre_summary(j, rx=reads[j.job_id]) for j in jobs}
    stats = lustre_stats(*perf_columns(jobs, summaries))
    hist_u = stats.unweighted["bytes_read"]
    hist_w = stats.node_hour_weighted["bytes_read"]
    assert hist_u.grand_total() == pytest.approx(3.0)
    assert hist_w.grand_total() == pytest.approx(sum(j.node_hours for j in jobs))
    # each job in its own bin; weighted bin mass equals that job's node-hours
    for job in jobs:
        value = reads[job.job_id]
        idx = next(i for i, (lo, hi) in enumerate(zip(hist_w.edges, hist_w.edges[1:]))
                   if lo <= value < hi)
        assert hist_w.weights[idx] == pytest.approx(job.node_hours)
        assert hist_u.weights[idx] == pytest.approx(1.0)


def test_jobs_without_summaries_counted_absent(test_resources):
    job = make_job()
    stats = lustre_stats(*perf_columns([job], {}))
    assert stats.unweighted["bytes_read"].absent == 1.0
    assert stats.node_hour_weighted["bytes_read"].absent == pytest.approx(job.node_hours)


# --- concurrency ----------------------------------------------------------------

def test_thread_bucket_match_and_overflow():
    assert thread_bucket(16.0, 16) == "16"
    assert thread_bucket(17.0, 16) == ">16"
    assert thread_bucket(None, 16) == "N/A"
    assert thread_bucket(15.5, 16) == "16"  # round half up


def test_process_band_rows():
    bands = (32, 68)
    assert process_band(40.0, bands) == ">32 <=68"
    assert process_band(16.0, bands) == "<=32"
    assert process_band(100.0, bands) == ">68"
    assert process_band(None, bands) == "N/A"
    assert process_band(32.5, bands) == ">32 <=68"  # round half up
    assert process_band(32.4, bands) == "<=32"


def test_concurrency_conserves_node_hours(test_resources):
    jobs = [make_job(job_id="a", nodes=1, cores=16),
            make_job(job_id="b", nodes=2, cores=32),
            make_job(job_id="c", nodes=1, cores=8)]
    summaries = {
        "a": lustre_summary(jobs[0], runnable=16.0, launch=LaunchType.MULTI_PROCESS),
        "b": lustre_summary(jobs[1], runnable=40.0, launch=LaunchType.MULTI_PROCESS),
        # job c has no summary -> N/A rows
    }
    result = concurrency_histograms(*perf_columns(jobs, summaries, test_resources))
    per = result.runnable_node_hours["TESTMACHINE"]
    assert sum(per.values()) == pytest.approx(sum(j.node_hours for j in jobs))
    assert per["N/A"] == pytest.approx(jobs[2].node_hours)
    assert per[">16"] == pytest.approx(jobs[1].node_hours)
    total_su = sum(result.process_bands_xd_su.values())
    assert total_su == pytest.approx(2.0 * sum(j.local_su_charged for j in jobs))
    assert result.process_bands_xd_su["N/A"] > 0


def test_launch_type_series(test_resources):
    jobs = [make_job(job_id="a", cores=1, nodes=1, local_su=4.0),
            make_job(job_id="b", cores=32, nodes=2, local_su=6.0)]
    summaries = {
        "a": lustre_summary(jobs[0], runnable=1.0, launch=LaunchType.SERIAL),
        "b": lustre_summary(jobs[1], runnable=16.0, launch=LaunchType.MULTI_PROCESS),
    }
    result = concurrency_histograms(*perf_columns(jobs, summaries, test_resources))
    period = "2015-Q3"
    assert result.launch_type_xd_su[period]["serial"] == pytest.approx(8.0)
    assert result.launch_type_xd_su[period]["multi_process"] == pytest.approx(12.0)


# --- geographic normalization ------------------------------------------------------

def test_per_capita():
    tables = geo_normalize({"NY": 10e6}, {"NY": 10e6}, {"NY": 1.0})
    assert tables.rows[0].per_capita == pytest.approx(1.0)
    assert tables.flags == []


def test_tech_index_halves():
    tables = geo_normalize({"CA": 8e6}, {"CA": 4e6}, {"CA": 2.0})
    row = tables.rows[0]
    assert row.per_capita == pytest.approx(2.0)
    assert row.per_capita_tech == pytest.approx(1.0)


def test_three_state_fixture_with_missing_divisors():
    tables = geo_normalize(
        {"CA": 100.0, "NY": 50.0, "TX": 30.0},
        {"CA": 10.0, "NY": 5.0},          # TX population missing
        {"CA": 2.0})                       # NY, TX tech index missing
    by_state = {row.state: row for row in tables.rows}
    assert by_state["CA"].per_capita_tech == pytest.approx(5.0)
    assert by_state["NY"].per_capita == pytest.approx(10.0)
    assert by_state["NY"].per_capita_tech is None
    assert by_state["TX"].per_capita is None
    assert by_state["TX"].raw == 30.0
    assert set(tables.flags) == {"TX:missing_population", "NY:missing_tech_index"}
