"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions hold (pytest shows the
lines with -s or -rA; any failure surfaces normally).  Tolerances are fixed
here, not configurable.
"""
import math
import time
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import GIB, T0, make_job, table_of
from perfsummary_oracle import (
    MemInfoSample,
    NumaMem,
    PerfSample,
    counter_delta,
    memory_per_core,
    record_archive,
)
from hpcwl import appident, synth
from hpcwl.archives import SampleKind
from hpcwl.backlog import backlog_series, capacity_for_percentile, required_nodes_at_submit
from hpcwl.errors import SeparationDetected
from hpcwl.ingest import ExitStatus, builtin_resources, su_convert
from hpcwl.metrics import (
    PerfColumns,
    job_size_distribution,
    joint_ratio,
    lustre_stats,
    memory_2d,
    memory_histograms,
)
from hpcwl.metrics.depth import DepthProfile, ProjectDepth
from hpcwl.perfsummary import summarize_job
from hpcwl.report import standard_bundle_spec, run_report, verify_manifest
from hpcwl.statmodels import (
    default_frequency_grid,
    fit_logistic,
    fit_node_fail,
    logistic_gradient,
    logistic_loglike,
    lomb_scargle,
)

MIN = 60


def report_line(number: int, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {detail}")


# -------------------------------------------------------------------------
# 1. SU conversion table loads and converts bit-exactly; < 1 s

def test_criterion_1_su_conversion():
    t_start = time.perf_counter()
    resources = builtin_resources()
    n_windows = 0
    for spec in resources.values():
        assert spec.su_factors, spec.name
        for window in spec.su_factors:
            n_windows += 1
            mid = window.start + timedelta(days=1)
            probe = mid if window.covers(mid) else window.start
            factor = spec.factor_for(probe)
            assert factor == window.factor  # bit-exact table value
            for amount in (1.0, 100.0, 123456.789):
                xd = su_convert(resources, amount, spec.name, probe, "to_xd")
                assert xd == amount * window.factor  # bit-exact product
                back = su_convert(resources, xd, spec.name, probe, "from_xd")
                assert abs(back - amount) <= 1e-12 * amount
    # spot-check well-known factor values
    assert resources["TACC-STAMPEDE"].factor_for(date(2015, 1, 1)) == 4.599
    assert resources["NICS-KRAKEN"].factor_for(date(2009, 10, 5)) == 2.04
    assert resources["NICS-KRAKEN"].factor_for(date(2009, 10, 4)) == 1.623
    assert resources["GATECH-KEENELAND"].factor_for(date(2013, 6, 1)) == 34.0
    assert resources["OSG"].factor_for(date(2013, 1, 1)) == 1.0
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    report_line(1, f"{len(resources)} resources, {n_windows} factor windows, "
                   f"round-trip <= 1e-12, {elapsed:.3f}s")


# -------------------------------------------------------------------------
# 2. joint ratio equals exhaustive oracle on 1000 random instances; < 5 s

def _oracle_joint_ratio(pairs):
    n = len(pairs)
    total = sum(u for _, u in pairs)
    for d in sorted({d for d, _ in pairs}):
        f_p = sum(1 for dd, _ in pairs if dd <= d) / n
        f_u = sum(u for dd, u in pairs if dd <= d) / total
        if f_p + f_u >= 1.0:
            deep = int(math.floor(100 * (1 - f_u) + 0.5))
            n_deep = sum(1 for dd, _ in pairs if dd > d)
            u_deep = sum(u for dd, u in pairs if dd > d)
            return deep, 100 - deep, d, n_deep, u_deep
    raise AssertionError("no crossing")


def test_criterion_2_joint_ratio_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for case in range(1000):
        k = int(rng.integers(1, 9))
        pairs = [(int(rng.integers(1, 10000)), float(rng.uniform(0.01, 1e8)))
                 for _ in range(k)]
        profile = DepthProfile(by="cores", window_year=None, projects=tuple(
            ProjectDepth(f"P{i}", d, u, 1) for i, (d, u) in enumerate(pairs)))
        result = joint_ratio(profile)
        deep, wide, d_star, n_deep, u_deep = _oracle_joint_ratio(pairs)
        assert result.ratio_deep_usage_pct == deep
        assert result.ratio_deep_projects_pct == wide
        assert result.depth_at_ratio == d_star
        assert result.projects_at_ratio == n_deep
        assert result.usage_at_ratio == u_deep
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    report_line(2, f"1000 instances exact, {elapsed:.2f}s")


# -------------------------------------------------------------------------
# 3. memory formula exact on 20 fixtures; counter/instantaneous invariants
#    on 100 randomized jobs

def test_criterion_3_memory_and_sampling_semantics():
    # twenty constructed meminfo fixtures with hand-computable values
    fixtures = []
    for i in range(20):
        n_numa = 1 + i % 4
        used_per_numa = (i + 1) * 256 * (1 << 20)  # multiples of 256 MiB
        numa = NumaMem(mem_total=64 * GIB,
                       mem_free=64 * GIB - used_per_numa - (2 << 20),
                       file_pages=1 << 20, slab=1 << 20)
        n_cores = 2 ** (i % 5)
        sample = MemInfoSample(node="n", time=T0, numa_nodes=(numa,) * n_numa)
        expected = n_numa * used_per_numa / n_cores
        fixtures.append((sample, n_cores, expected))
    for sample, n_cores, expected in fixtures:
        assert memory_per_core(sample, n_cores) == expected

    rng = np.random.default_rng(77)
    for case in range(100):
        job = make_job(job_id=f"r{case}",
                       submit=T0, start=T0 + 600,
                       end=T0 + 600 + int(rng.integers(2, 48)) * 3600)
        # counter stream with occasional resets
        times = np.arange(job.start_time, job.end_time + 1, 600)
        values = np.maximum(0, np.cumsum(rng.integers(0, 10**6, len(times))))
        if rng.random() < 0.5:
            values[int(rng.integers(1, len(values)))] = int(rng.integers(0, 100))
        values = values.tolist()
        whole, _ = counter_delta(values)
        split_at = int(rng.integers(1, len(values) - 1)) if len(values) > 2 else 1
        left, _ = counter_delta(values[:split_at + 1])
        right, _ = counter_delta(values[split_at:])
        assert left + right == whole

        # out-of-window instantaneous samples never change the summary
        def archive(extra=()):
            samples = [PerfSample("n1", int(t), "runnable_threads",
                                  SampleKind.INSTANTANEOUS, v)
                       for t, v in zip(times[1:-1],
                                       rng.integers(1, 17, len(times) - 2))]
            rng_bits = rng.bit_generator.state  # keep both variants identical
            samples.extend(extra)
            meminfo = [MemInfoSample("n1", int(t), (NumaMem(
                64 * GIB, 32 * GIB, 0, 0),)) for t in times[1:-1]]
            return record_archive(job_id=job.job_id, nodes=("n1",),
                                  samples=tuple(samples), meminfo=tuple(meminfo))

        rng_state = rng.bit_generator.state
        base = summarize_job(job, archive(), 16)
        rng.bit_generator.state = rng_state
        noise = [PerfSample("n1", job.start_time - 60, "runnable_threads",
                            SampleKind.INSTANTANEOUS, 999.0),
                 PerfSample("n1", job.end_time + 60, "runnable_threads",
                            SampleKind.INSTANTANEOUS, 999.0),
                 PerfSample("n1", job.start_time, "runnable_threads",
                            SampleKind.INSTANTANEOUS, 999.0),
                 PerfSample("n1", job.end_time, "runnable_threads",
                            SampleKind.INSTANTANEOUS, 999.0)]
        noisy = summarize_job(job, archive(noise), 16)
        assert noisy.runnable_threads_median == base.runnable_threads_median
        assert noisy.mem_avg_per_core == base.mem_avg_per_core
        assert noisy.mem_max_per_core == base.mem_max_per_core
    report_line(3, "20 meminfo fixtures exact; split/out-of-window invariants "
                   "hold on 100 randomized jobs")


# -------------------------------------------------------------------------
# 4. effective cores: all-Kraken identity and mixed-trace brute force, 1e-9

def test_criterion_4_effective_cores():
    from hpcwl.metrics import average_job_size

    resources = builtin_resources()
    kraken_t = 1275350400  # 2010-06-01, factor 2.04
    rng = np.random.default_rng(44)
    kraken_jobs = [make_job(job_id=f"k{i}", resource="NICS-KRAKEN",
                            submit=kraken_t + i * 3600,
                            nodes=int(n), cores=int(n) * 12,
                            local_su=float(rng.uniform(1, 1e4)))
                   for i, n in enumerate(rng.integers(1, 500, 400))]
    kraken = table_of(kraken_jobs, resources)
    actual = average_job_size(kraken, effective=False)
    effective = average_job_size(kraken, effective=True, kraken_factor=2.04)
    assert abs(effective - actual) <= 1e-9 * actual
    weighted_actual = average_job_size(kraken, True, False)
    weighted_effective = average_job_size(kraken, True, True, 2.04)
    assert abs(weighted_effective - weighted_actual) <= 1e-9 * weighted_actual

    # mixed trace vs a per-job brute-force recomputation
    mixed = list(kraken_jobs[:100])
    for i, n in enumerate(rng.integers(1, 200, 300)):
        resource = ("TACC-STAMPEDE", "SDSC-COMET", "OSG")[i % 3]
        spec = resources[resource]
        nodes = 1 if resource == "OSG" else int(n)
        mixed.append(make_job(job_id=f"m{i}", resource=resource,
                              submit=T0 + i * 3600, nodes=nodes,
                              cores=nodes * spec.cores_per_node,
                              local_su=float(rng.uniform(1, 1e4))))
    got = average_job_size(table_of(mixed, resources), weighted_by_xd_su=True,
                           effective=True, kraken_factor=2.04)
    num = den = 0.0
    for job in mixed:
        factor = resources[job.resource].factor_for(job.end_date)
        su = job.local_su_charged * factor
        num += (job.cores * factor / 2.04) * su
        den += su
    assert abs(got - num / den) <= 1e-9 * abs(num / den)
    report_line(4, "all-Kraken identity and mixed-trace brute force within 1e-9")


# -------------------------------------------------------------------------
# 5. backlog/capacity vs per-minute brute force, 5000 jobs, < 30 s

def _minute_trace(rng, n_jobs, span_minutes=2880, max_nodes=32, prefix="j"):
    jobs = []
    for i in range(n_jobs):
        submit = int(rng.integers(0, span_minutes))
        wait = int(rng.integers(0, 360))
        duration = int(rng.integers(1, 600))
        nodes = int(rng.integers(1, max_nodes + 1))
        jobs.append(make_job(
            job_id=f"{prefix}{i}", submit=T0 + submit * MIN,
            start=T0 + (submit + wait) * MIN,
            end=T0 + (submit + wait + duration) * MIN,
            nodes=nodes, cores=nodes * 16))
    return jobs


def test_criterion_5_backlog_capacity_oracle():
    t_start = time.perf_counter()
    rng = np.random.default_rng(55)
    jobs = _minute_trace(rng, 5000)

    submit = np.array([j.submit_time for j in jobs], dtype=np.int64)
    start = np.array([j.start_time for j in jobs], dtype=np.int64)
    end = np.array([j.end_time for j in jobs], dtype=np.int64)
    nodes = np.array([j.nodes for j in jobs], dtype=np.int64)
    core_seconds = np.array([j.cores * j.wall_seconds for j in jobs],
                            dtype=np.int64)
    lo = submit.min()
    hi = end.max()
    grid = np.arange(lo, hi + MIN, MIN, dtype=np.int64)
    queued_mask = (submit[None, :] <= grid[:, None]) & (grid[:, None] < start[None, :])
    running_mask = (start[None, :] <= grid[:, None]) & (grid[:, None] < end[None, :])
    oracle_cs = queued_mask @ core_seconds
    oracle_queued = queued_mask @ nodes
    oracle_running = running_mask @ nodes

    table = table_of(jobs)
    series = backlog_series(table).points
    index = {int(t): k for k, t in enumerate(grid)}
    checked = 0
    for point in series:
        k = index[point.time]  # whole-minute events sit on the oracle grid
        assert point.queued_core_seconds == int(oracle_cs[k])
        assert point.queued_nodes == int(oracle_queued[k])
        assert point.running_nodes == int(oracle_running[k])
        checked += 1
    distinct_event_times = len({t for j in jobs
                                for t in (j.submit_time, j.start_time, j.end_time)})
    assert checked == distinct_event_times > 1000

    required = required_nodes_at_submit(table)
    oracle_required = []
    for job in jobs:
        k = index[job.submit_time]
        oracle_required.append(int(oracle_running[k] + oracle_queued[k]))
    assert required == oracle_required

    ordered = sorted(oracle_required)
    for target in (0.5, 0.9, 0.95, 0.99):
        estimate = capacity_for_percentile(table, "TESTMACHINE", target)
        idx = max(1, math.ceil(target * len(ordered))) - 1
        assert estimate.nodes_required == ordered[idx]

    for trial in range(50):
        small = table_of(_minute_trace(np.random.default_rng(1000 + trial), 120,
                                          span_minutes=1000, prefix=f"t{trial}_"))
        c95 = capacity_for_percentile(small, "TESTMACHINE", 0.95).nodes_required
        c99 = capacity_for_percentile(small, "TESTMACHINE", 0.99).nodes_required
        assert c99 >= c95
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    report_line(5, f"{checked} event points exact; capacity quantiles exact; "
                   f"monotone on 50 traces; {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 6. Lomb-Scargle peaks and white-noise control; < 10 s

def test_criterion_6_lomb_scargle():
    t_start = time.perf_counter()
    t = np.arange(180 * 24) * 3600.0
    days = t / 86400.0
    rng = np.random.default_rng(123)
    y = (50.0 + 10.0 * np.sin(2 * np.pi * days)
         + 6.0 * np.sin(2 * np.pi * days / 7.0)
         + rng.normal(0.0, 1.0, len(t)))
    grid = default_frequency_grid(t)
    step = grid[1] - grid[0]
    pgram = lomb_scargle(t, y, grid)
    (f1, _, _), (f2, _, _) = pgram.peaks(top=2)
    assert abs(f1 - 1.0) <= step
    assert abs(f2 - 1.0 / 7.0) <= step

    noise = np.random.default_rng(0).normal(10.0, 1.0, len(t))
    control = lomb_scargle(t, noise, grid)
    peaks = control.peaks()
    peak_powers = sorted(p for _, _, p in peaks)
    median_peak = peak_powers[len(peak_powers) // 2]
    assert peaks[0][2] <= 10.0 * median_peak
    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0
    report_line(6, f"peaks at 1d/7d within one grid step; noise max "
                   f"{peaks[0][2] / median_peak:.1f}x median peak; {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 7. logistic recovery at n=2e5 within 5%; gradient 1e-6; separation raises

def test_criterion_7_logistic_recovery():
    rng = np.random.default_rng(7)
    n = 200000
    nodes = rng.integers(1, 6401, n)
    p = 1.0 / (1.0 + np.exp(-(-6.0 + 0.002 * nodes)))
    fails = rng.random(n) < p
    jobs = [make_job(job_id=f"j{i}", nodes=int(nodes[i]), cores=int(nodes[i]) * 16,
                     exit_status=(ExitStatus.NODE_FAIL if fails[i]
                                  else ExitStatus.COMPLETED))
            for i in range(n)]
    fit = fit_node_fail(table_of(jobs), model="nodes_linear")
    err0 = abs(fit.beta0 - (-6.0)) / 6.0
    err1 = abs(fit.beta1 - 0.002) / 0.002
    assert err0 < 0.05 and err1 < 0.05

    x = nodes.astype(float)
    y = fails.astype(float)
    xs = (x - x.mean()) / x.std()
    beta_std = np.array([fit.beta0 + fit.beta1 * x.mean(), fit.beta1 * x.std()])
    analytic = logistic_gradient(beta_std, xs, y)
    h = 1e-5
    for k in range(2):
        plus, minus = beta_std.copy(), beta_std.copy()
        plus[k] += h
        minus[k] -= h
        numeric = (logistic_loglike(plus, xs, y)
                   - logistic_loglike(minus, xs, y)) / (2 * h)
        assert abs(analytic[k] - numeric) / max(1.0, abs(numeric)) < 1e-6

    separable_y = (x > 3000).astype(float)
    with pytest.raises(SeparationDetected):
        fit_logistic(x[:5000], separable_y[:5000])
    report_line(7, f"recovered beta0/beta1 errors {err0:.3%}/{err1:.3%}; "
                   "gradient check 1e-6; separation detected")


# -------------------------------------------------------------------------
# 8. application identification corpus, 100% of 50 cases

def test_criterion_8_app_identification():
    db = appident.load_pattern_db()
    ignore = appident.load_ignore_list()
    obs = appident.ProcessObservation
    cases = []
    # launcher precedence (process list present but launcher wins): 10
    launcher_cases = [
        ("/apps/namd/namd2", "NAMD"), ("/apps/gromacs/gmx_mpi", "GROMACS"),
        ("/apps/lammps/lmp_stampede", "LAMMPS"), ("/scratch/wrf", "WRF"),
        ("/apps/amber/pmemd.MPI", "AMBER"), ("/apps/nwchem-6.6/nwchem", "NWCHEM"),
        ("/apps/espresso/pw.x", "Q-ESPRESSO"), ("/apps/cactus/cactus_sim", "CACTUS"),
        ("/apps/enzo/enzo.exe", "ENZO"), ("/apps/milc/su3_rmd", "MILC"),
    ]
    for exe, expected in launcher_cases:
        cases.append((True, exe, [obs("python", 99)], expected))
    # PID-descending scan with ignore list: 15
    scan_cases = [
        ([("namd2", 64), ("cp", 3), ("bash", 2)], "NAMD"),
        ([("cp", 90), ("gmx_mpi", 32)], "GROMACS"),
        ([("bash", 10), ("tar", 9), ("lmp_comet", 8)], "LAMMPS"),
        ([("rsync", 50), ("ssh", 40), ("pmemd", 30)], "AMBER"),
        ([("wrf", 128), ("real", 1)], "WRF"),
        ([("su3_rmd", 12), ("su3_hmc", 12)], "MILC"),  # tie, lexicographic
        ([("python2.7", 16)], "python"),
        ([("charmrun", 4), ("cp", 10)], "charm++"),
        ([("mitgcmuv", 240)], "MITGCM"),
        ([("enzo", 8), ("gzip", 9)], "ENZO"),
        ([("vasp_std", 16), ("mv", 20)], "VASP"),
        ([("nwchem", 64), ("mpirun", 64)], "NWCHEM"),
        ([("pw.x", 32), ("bash", 33)], "Q-ESPRESSO"),
        ([("hoomd", 4)], "HOOMD"),
        ([("cactus_wave", 7), ("cat", 7)], "CACTUS"),
    ]
    for observations, expected in scan_cases:
        cases.append((False, None, [obs(n, c) for n, c in observations], expected))
    # more launcher classifications, including category entries: 5
    for exe, expected in (("/usr/bin/python3.6", "python"),
                          ("/usr/bin/Rscript", "R"),
                          ("/apps/gaussian/g09", "GAUSSIAN"),
                          ("/usr/bin/gdb", "debugging-tools"),
                          ("/apps/bowtie2-2.3/bowtie2", "BOWTIE")):
        cases.append((True, exe, [], expected))
    # uncategorized: 15
    for exe_name in ("a.out", "my_solver", "simulate_v2", "x.bin", "run_model",
                     "md_custom", "pde_kernel", "exp042", "driver", "app"):
        cases.append((True, f"/home/u/{exe_name}", [], "uncategorized"))
    uncategorized_scans = [
        [("a.out", 64), ("cp", 3)],
        [("custom_mc", 8)],
        [("solver.exe", 2), ("bash", 4)],
        [("work", 5)],
        [("cp", 9), ("bash", 5)],  # all ignored but data present
    ]
    for observations in uncategorized_scans:
        cases.append((False, None, [obs(n, c) for n, c in observations],
                      "uncategorized"))
    # NA: 5
    for _ in range(5):
        cases.append((False, None, [], "NA"))

    assert len(cases) == 50
    hits = 0
    for launcher_present, exe, observations, expected in cases:
        label = appident.resolve_job_app(launcher_present, exe, observations,
                                         db, ignore)
        assert label == expected, (exe, observations, label, expected)
        hits += 1
    assert hits == 50
    report_line(8, "50/50 corpus cases labeled correctly")


# -------------------------------------------------------------------------
# 9. histogram conservation within 1e-9 relative, absent buckets included

def test_criterion_9_histogram_conservation():
    bundle = synth.make_synthetic_dataset(seed=99, n_jobs=1500)
    jobs = bundle.dataset.jobs.records()
    resources = bundle.dataset.resources
    table = bundle.dataset.job_table
    perf = PerfColumns.join(table, bundle.summaries)

    def check(total, expected):
        assert abs(total - expected) <= 1e-9 * max(1.0, abs(expected))

    n_checked = 0
    for weight in ("jobs", "core_hours", "node_hours", "xd_su"):
        expected = sum(
            1.0 if weight == "jobs" else
            job.core_hours if weight == "core_hours" else
            job.node_hours if weight == "node_hours" else
            job.local_su_charged * resources[job.resource].factor_for(job.end_date)
            for job in jobs)
        hist = job_size_distribution(table, weight=weight)
        check(hist.grand_total(), expected)
        n_checked += 1
        for mode in ("per_core_avg", "per_core_max"):
            mem = memory_histograms(table, perf, mode=mode, weight=weight)
            check(mem.grand_total(), expected)
            n_checked += 1
        for x, y in (("cpu_user_fraction", "fraction_mem_used"),
                     ("fraction_cores_of_system", "fraction_mem_used"),
                     ("nodes", "total_peak_mem")):
            h2 = memory_2d(table, perf, x=x, y=y, weight=weight)
            check(h2.grand_total(), expected)
            n_checked += 1

    stats = lustre_stats(table, perf)
    expected_nh = sum(j.node_hours for j in jobs)
    for metric, hist in stats.unweighted.items():
        check(hist.grand_total(), float(len(jobs)))
        n_checked += 1
    for metric, hist in stats.node_hour_weighted.items():
        check(hist.grand_total(), expected_nh)
        n_checked += 1
    report_line(9, f"{n_checked} histograms conserve weight within 1e-9")


# -------------------------------------------------------------------------
# 10. standard bundle is byte-identical across runs; digests verify

def test_criterion_10_report_reproducibility(tmp_path):
    ctx = synth.make_synthetic_dataset(seed=20170930, n_jobs=10000)
    import os

    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        run_report(ctx, standard_bundle_spec(output_dir=str(out)))
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert verify_manifest(out_a) and verify_manifest(out_b)
    report_line(10, f"{len(names)} files byte-identical across runs; "
                    "manifest digests verify")
