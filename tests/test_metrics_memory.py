import pytest

from conftest import GIB, make_job, make_resource, perf_columns
from hpcwl.metrics import (
    large_memory_breakdown,
    memory_2d,
    memory_histograms,
)
from rollups_oracle import mem_fraction
from hpcwl.perfsummary import JobPerfSummary


def summary_for(job, avg_gib=None, max_gib=None, cpu=0.9, app="NAMD"):
    return JobPerfSummary(
        job_id=job.job_id,
        cpu_user_fraction=cpu,
        mem_avg_per_core=None if avg_gib is None else avg_gib * GIB,
        mem_max_per_core=None if max_gib is None else max_gib * GIB,
        app_label=app)


def test_single_job_single_bin(test_resources):
    job = make_job(cores=100, nodes=7, end=1438387200 + 600 + 3600)
    summaries = {job.job_id: summary_for(job, avg_gib=1.0, max_gib=1.5)}
    hist = memory_histograms(*perf_columns([job], summaries, test_resources), test_resources,
                             mode="per_core_avg", weight="core_hours")
    assert hist.grand_total() == pytest.approx(100.0)  # 100 cores x 1 hour
    assert sum(1 for w in hist.weights if w) == 1
    assert hist.absent == 0.0


def test_absent_memory_goes_to_absent_bucket(test_resources):
    job = make_job(cores=16)
    hist = memory_histograms(*perf_columns([job], {}, test_resources), test_resources)
    assert hist.absent == pytest.approx(job.core_hours)
    assert sum(hist.weights) == 0.0
    # a summary without memory fields is absent too
    hist2 = memory_histograms(*perf_columns([job], {job.job_id: summary_for(job)},
                                            test_resources), test_resources)
    assert hist2.absent == pytest.approx(job.core_hours)


def test_two_job_fixture_matches_hand_bins(test_resources):
    j1 = make_job(job_id="a", cores=16)   # 16 core-hours
    j2 = make_job(job_id="b", cores=32, nodes=2)  # 32 core-hours
    summaries = {
        "a": summary_for(j1, avg_gib=0.30, max_gib=0.5),   # bin [0.25, 0.375)
        "b": summary_for(j2, avg_gib=1.00, max_gib=2.0),   # bin [1.0, 1.125)
    }
    hist = memory_histograms(*perf_columns([j1, j2], summaries, test_resources), test_resources)
    idx1 = int(0.30 / 0.125)
    idx2 = int(1.00 / 0.125)
    assert hist.weights[idx1] == pytest.approx(16.0)
    assert hist.weights[idx2] == pytest.approx(32.0)
    assert hist.grand_total() == pytest.approx(48.0)


def test_peak_mode_uses_max(test_resources):
    job = make_job(cores=16)
    summaries = {job.job_id: summary_for(job, avg_gib=0.5, max_gib=3.0)}
    hist = memory_histograms(*perf_columns([job], summaries, test_resources), test_resources,
                             mode="per_core_max")
    assert hist.weights[int(3.0 / 0.125)] == pytest.approx(16.0)


# --- 2-D histograms -----------------------------------------------------------

def test_full_system_job_lands_in_x_equals_one_column(test_resources):
    spec = test_resources["TESTMACHINE"]
    job = make_job(cores=spec.total_cores, nodes=spec.nodes)
    summaries = {job.job_id: summary_for(job, avg_gib=1.0, max_gib=1.0)}
    hist = memory_2d(*perf_columns([job], summaries, test_resources), test_resources,
                     x="fraction_cores_of_system", y="fraction_mem_used")
    # x = 1.0 falls inside the last, explicitly over-reaching bin
    i = len(hist.x_edges) - 2
    assert sum(hist.cells[i]) == pytest.approx(job.core_hours)
    assert hist.outside == 0.0


def test_mem_fraction_bounded_by_one(test_resources):
    spec = test_resources["TESTMACHINE"]
    per_core_avail = spec.mem_per_node / spec.cores_per_node
    job = make_job(cores=16)
    summary = JobPerfSummary(job_id=job.job_id,
                             mem_avg_per_core=per_core_avail,
                             mem_max_per_core=per_core_avail)
    assert mem_fraction(job, summary, spec) == pytest.approx(1.0)
    assert mem_fraction(job, summary, spec, peak=True) <= 1.0
    # the kernel puts a fraction of exactly 1.0 in the last y bin
    resources = {spec.name: spec}
    hist = memory_2d(*perf_columns([job], {job.job_id: summary}, resources), resources,
                     x="nodes")
    assert [sum(column) for column in zip(*hist.cells)][-1] == job.core_hours


def test_four_job_fixture_hand_placed_cells(test_resources):
    jobs, summaries = [], {}
    placements = [
        ("a", 0.10, 0.10), ("b", 0.10, 0.90), ("c", 0.55, 0.55), ("d", 0.95, 0.10),
    ]
    for name, cpu, fraction in placements:
        job = make_job(job_id=name, cores=16)
        jobs.append(job)
        summaries[name] = JobPerfSummary(
            job_id=name, cpu_user_fraction=cpu,
            mem_avg_per_core=fraction * 4 * GIB,  # 4 GiB/core available
            mem_max_per_core=fraction * 4 * GIB)
    hist = memory_2d(*perf_columns(jobs, summaries, test_resources), test_resources,
                     x="cpu_user_fraction", y="fraction_mem_used", weight="jobs")
    for name, cpu, fraction in placements:
        i = int(cpu / 0.02)
        j = int(fraction / 0.02)
        assert hist.cells[i][j] == 1.0
    assert hist.grand_total() == 4.0


def test_2d_conservation_with_absent(test_resources):
    jobs = [make_job(job_id="a", cores=16), make_job(job_id="b", cores=16)]
    summaries = {"a": summary_for(jobs[0], avg_gib=1.0, max_gib=1.0)}
    hist = memory_2d(*perf_columns(jobs, summaries, test_resources), test_resources,
                     weight="core_hours")
    assert hist.grand_total() == pytest.approx(sum(j.core_hours for j in jobs))
    assert hist.absent == pytest.approx(jobs[1].core_hours)


# --- large memory breakdown -----------------------------------------------------

@pytest.fixture
def lm_resources():
    spec = make_resource(large_memory_queues=frozenset({"largemem"}),
                         large_mem_per_node=1024 * GIB)
    return {spec.name: spec}


def test_normal_queue_above_80_pct_counts(lm_resources):
    spec = lm_resources["TESTMACHINE"]
    per_core = spec.mem_per_node / spec.cores_per_node
    job = make_job(cores=16, local_su=10.0)
    summaries = {job.job_id: JobPerfSummary(
        job_id=job.job_id, mem_avg_per_core=0.5 * per_core,
        mem_max_per_core=0.85 * per_core, app_label="CACTUS")}
    out = large_memory_breakdown(*perf_columns([job], summaries, lm_resources), lm_resources)
    assert out.by_parent_science["normal"]["Physics"] == pytest.approx(20.0)
    assert out.by_app["normal"]["CACTUS"] == pytest.approx(20.0)
    assert "large" not in out.by_parent_science


def test_large_queue_small_fraction_excluded(lm_resources):
    spec = lm_resources["TESTMACHINE"]
    large_per_core = spec.large_mem_per_node / spec.cores_per_node
    job = make_job(cores=16, queue="largemem", local_su=10.0)
    summaries = {job.job_id: JobPerfSummary(
        job_id=job.job_id, mem_avg_per_core=0.05 * large_per_core,
        mem_max_per_core=0.05 * large_per_core, app_label="CACTUS")}
    out = large_memory_breakdown(*perf_columns([job], summaries, lm_resources), lm_resources)
    assert out.by_parent_science == {}
    # above 10% it lands in the large series
    summaries[job.job_id] = JobPerfSummary(
        job_id=job.job_id, mem_avg_per_core=0.2 * large_per_core,
        mem_max_per_core=0.2 * large_per_core, app_label="CACTUS")
    out = large_memory_breakdown(*perf_columns([job], summaries, lm_resources), lm_resources)
    assert out.by_app["large"]["CACTUS"] == pytest.approx(20.0)


def test_breakdown_totals_match_hand_sums(lm_resources):
    spec = lm_resources["TESTMACHINE"]
    per_core = spec.mem_per_node / spec.cores_per_node
    jobs, summaries = [], {}
    for name, science, su, fraction in (
            ("a", "Physics", 5.0, 0.9), ("b", "Physics", 7.0, 0.85),
            ("c", "Chemistry", 11.0, 0.95), ("d", "Physics", 100.0, 0.2)):
        job = make_job(job_id=name, parent_science=science, local_su=su, cores=16)
        jobs.append(job)
        summaries[name] = JobPerfSummary(job_id=name,
                                         mem_avg_per_core=fraction * per_core,
                                         mem_max_per_core=fraction * per_core,
                                         app_label="WRF")
    no_data = make_job(job_id="e", local_su=3.0)
    jobs.append(no_data)
    out = large_memory_breakdown(*perf_columns(jobs, summaries, lm_resources), lm_resources)
    assert out.by_parent_science["normal"]["Physics"] == pytest.approx(24.0)
    assert out.by_parent_science["normal"]["Chemistry"] == pytest.approx(22.0)
    assert out.absent_xd_su == pytest.approx(6.0)
