import math

import numpy as np
import pytest

from conftest import T0, make_job
from hpcwl.errors import DegenerateInput, SeparationDetected
from hpcwl.ingest import ExitStatus
from hpcwl.jobtable import JobTable
from hpcwl.statmodels import (
    bin_counts,
    default_frequency_grid,
    exit_code_table,
    fit_logistic,
    fit_node_fail,
    lomb_scargle,
    _lomb_scargle_direct,
    logistic_gradient,
    logistic_loglike,
    model_covariate,
)

HOURS_180D = 180 * 24


def hourly_times():
    return np.arange(HOURS_180D) * 3600.0


# --- Lomb-Scargle ----------------------------------------------------------------

def test_weekly_sinusoid_peak_recovered():
    t = hourly_times()
    days = t / 86400.0
    y = 20.0 + 5.0 * np.sin(2 * np.pi * days / 7.0)
    grid = default_frequency_grid(t)
    pgram = lomb_scargle(t, y, grid)
    top_f, top_period, _ = pgram.peaks(top=1)[0]
    step = grid[1] - grid[0]
    assert abs(top_f - 1.0 / 7.0) <= step


def test_daily_plus_weekly_top_two_peaks():
    t = hourly_times()
    days = t / 86400.0
    rng = np.random.default_rng(123)
    y = (50.0 + 10.0 * np.sin(2 * np.pi * days)
         + 6.0 * np.sin(2 * np.pi * days / 7.0)
         + rng.normal(0.0, 1.0, len(t)))
    grid = default_frequency_grid(t)
    pgram = lomb_scargle(t, y, grid)
    step = grid[1] - grid[0]
    (f1, _, _), (f2, _, _) = pgram.peaks(top=2)
    assert abs(f1 - 1.0) <= step
    assert abs(f2 - 1.0 / 7.0) <= step


def test_white_noise_has_no_significant_peak():
    t = hourly_times()
    rng = np.random.default_rng(0)
    y = rng.normal(10.0, 1.0, len(t))
    pgram = lomb_scargle(t, y, default_frequency_grid(t))
    peaks = pgram.peaks()
    peak_powers = sorted(p for _, _, p in peaks)
    median_peak = peak_powers[len(peak_powers) // 2]
    assert peaks[0][2] <= 10.0 * median_peak


def test_constant_series_degenerate():
    t = np.arange(100) * 3600.0
    with pytest.raises(DegenerateInput):
        lomb_scargle(t, np.full(100, 3.0))


def test_too_few_points_degenerate():
    with pytest.raises(DegenerateInput):
        lomb_scargle(np.array([0.0, 3600.0]), np.array([1.0, 2.0]))


def test_scaling_preserves_peak_locations():
    t = hourly_times()[: 40 * 24]
    days = t / 86400.0
    rng = np.random.default_rng(5)
    y = 4.0 + np.sin(2 * np.pi * days / 3.0) + rng.normal(0, 0.3, len(t))
    grid = default_frequency_grid(t)
    base = lomb_scargle(t, y, grid)
    scaled = lomb_scargle(t, 37.5 * y, grid)
    assert np.argmax(base.power) == np.argmax(scaled.power)
    assert base.peaks(top=3)[0][0] == scaled.peaks(top=3)[0][0]


def test_raw_event_times_are_binned():
    rng = np.random.default_rng(9)
    events = np.sort(rng.uniform(0, 30 * 86400, 5000))
    centers, counts = bin_counts(events, 3600)
    assert counts.sum() == 5000
    assert len(centers) == len(counts)
    pgram = lomb_scargle(events)  # binned internally
    assert pgram.n_samples == len(centers)


def submit_counts(n, seed, start=1.4e9 + 1800.0):
    """Hourly submit counts with daily and weekly rhythms, at bin centres
    as bin_counts returns them."""
    rng = np.random.default_rng(seed)
    days = np.arange(n) / 24.0
    rate = 3.0 * (1.0 + 0.6 * np.sin(2 * np.pi * days)
                  + 0.3 * np.sin(2 * np.pi * days / 7.0))
    return start + np.arange(n) * 3600.0, rng.poisson(rate).astype(float)


def oracle_gap(t, y, grid, budget=4_000_000):
    """|fast - direct| and its bound at a sample of the grid: every
    stride-th frequency within a budget of samples x frequencies, both ends
    of the grid and the five strongest peaks."""
    fast = np.array(lomb_scargle(t, y, grid).power)
    stride = max(1, len(t) * len(grid) // budget)
    idx = np.arange(len(grid))
    pick = np.unique(np.concatenate(
        [idx[::stride], idx[:4], idx[-4:], np.argsort(fast)[-5:]]))
    # Where 2*f*h is an integer the sine basis vanishes: the direct sums
    # return rounding error there (it changes with the chunking), so there
    # is no value to compare against.
    h_days = (t[1] - t[0]) / 86400.0
    twice = 2.0 * grid[pick] * h_days
    pick = pick[twice != np.round(twice)]
    direct = np.array(_lomb_scargle_direct(t, y, grid[pick]).power)
    nyquist = 0.5 / h_days
    bound = np.where(grid[pick] <= nyquist, 1e-9, 1e-9 * max(1.0, direct.max()))
    return np.abs(fast[pick] - direct), bound


ORACLE_GRIDS = {
    "oversample_1": lambda t: default_frequency_grid(t, 2.0 / 24.0, oversample=1),
    "oversample_4": lambda t: default_frequency_grid(t, 2.0 / 24.0, oversample=4),
    "oversample_10": lambda t: default_frequency_grid(t, 2.0 / 24.0, oversample=10),
    # past twice the Nyquist frequency (12/day for hourly bins)
    "linspace_to_30": lambda t: np.linspace(0.01, 30.0, 2999),
}


@pytest.mark.parametrize("grid_name", sorted(ORACLE_GRIDS))
@pytest.mark.parametrize("n", [50, 101, 4320, 13080])
def test_chirp_path_matches_direct_oracle(n, grid_name):
    t, y = submit_counts(n, seed=n)
    gap, bound = oracle_gap(t, y, ORACLE_GRIDS[grid_name](t))
    assert np.all(gap <= bound), (gap.max(), bound.min())


@pytest.mark.parametrize("grid", [[1.0], [0.5, 1.0], [3.0, 2.0, 1.0]])
def test_chirp_path_on_short_and_descending_grids(grid):
    t, y = submit_counts(200, seed=4)
    fast = np.array(lomb_scargle(t, y, grid).power)
    direct = np.array(_lomb_scargle_direct(t, y, grid).power)
    assert np.all(np.abs(fast - direct) <= 1e-9)


def test_uneven_times_or_grid_take_the_direct_path():
    t, y = submit_counts(500, seed=5)
    grid = default_frequency_grid(t)
    rng = np.random.default_rng(6)
    jittered = t + rng.uniform(-600.0, 600.0, len(t))
    # steps unequal by 1e-6 of a step, well past the 1e-9 that counts as even
    uneven = grid + 1e-6 * (grid[1] - grid[0]) * rng.uniform(-1.0, 1.0, len(grid))
    for times, freqs in ((jittered, grid), (t, uneven)):
        assert lomb_scargle(times, y, freqs).power == \
            _lomb_scargle_direct(times, y, freqs).power
    # on even input the two paths round differently, so equality above is
    # the direct path at work and not a coincidence
    assert lomb_scargle(t, y, grid).power != _lomb_scargle_direct(t, y, grid).power


# --- logistic fits ----------------------------------------------------------------

def failure_jobs(n, seed, beta0=-6.0, beta1=0.002, wall_seconds=3600):
    rng = np.random.default_rng(seed)
    nodes = rng.integers(1, 6401, n)
    p = 1.0 / (1.0 + np.exp(-(beta0 + beta1 * nodes)))
    fails = rng.random(n) < p
    jobs = []
    for i in range(n):
        nd = int(nodes[i])
        jobs.append(make_job(
            job_id=f"j{i}", nodes=nd, cores=nd * 16,
            end=T0 + 600 + wall_seconds,
            exit_status=ExitStatus.NODE_FAIL if fails[i] else ExitStatus.COMPLETED))
    return jobs


def test_coefficient_recovery_moderate_sample():
    fit = fit_node_fail(JobTable.of(failure_jobs(40000, seed=3)))
    assert fit.converged
    assert abs(fit.beta0 - (-6.0)) / 6.0 < 0.1
    assert abs(fit.beta1 - 0.002) / 0.002 < 0.1
    assert fit.p_value1 < 1e-6


def test_all_success_is_an_error():
    jobs = [make_job(job_id=f"j{i}", exit_status=ExitStatus.COMPLETED)
            for i in range(100)]
    with pytest.raises(DegenerateInput):
        fit_node_fail(JobTable.of(jobs))


def test_predicted_probability_monotone_in_nodes():
    fit = fit_node_fail(JobTable.of(failure_jobs(20000, seed=1)))
    assert fit.beta1 > 0
    probs = [fit.predict(x) for x in (1, 10, 100, 1000, 6400)]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_fit_invariant_under_permutation():
    jobs = failure_jobs(5000, seed=7)
    fit_a = fit_node_fail(JobTable.of(jobs))
    rng = np.random.default_rng(0)
    shuffled = list(jobs)
    rng.shuffle(shuffled)
    fit_b = fit_node_fail(JobTable.of(shuffled))
    assert fit_a.beta0 == pytest.approx(fit_b.beta0, rel=1e-9)
    assert fit_a.beta1 == pytest.approx(fit_b.beta1, rel=1e-9)


def test_recovery_error_decreases_with_sample_size():
    errors = []
    for n in (10**4, 10**5):
        fit = fit_node_fail(JobTable.of(failure_jobs(n, seed=3)))
        errors.append(max(abs(fit.beta0 + 6.0) / 6.0,
                          abs(fit.beta1 - 0.002) / 0.002))
    assert errors[1] < errors[0]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.uniform(1, 6400, 2000)
    p = 1.0 / (1.0 + np.exp(-(-4.0 + 0.001 * x)))
    y = (rng.random(2000) < p).astype(float)
    xs = (x - x.mean()) / x.std()
    beta, _, _ = fit_logistic(x, y)
    beta_std = np.array([beta[0] + beta[1] * x.mean(), beta[1] * x.std()])
    analytic = logistic_gradient(beta_std, xs, y)
    h = 1e-5
    for k in range(2):
        plus = beta_std.copy()
        minus = beta_std.copy()
        plus[k] += h
        minus[k] -= h
        numeric = (logistic_loglike(plus, xs, y)
                   - logistic_loglike(minus, xs, y)) / (2 * h)
        scale = max(1.0, abs(numeric))
        assert abs(analytic[k] - numeric) / scale < 1e-6


def test_perfect_separation_detected():
    jobs = [make_job(job_id=f"j{i}", nodes=n, cores=n * 16,
                     exit_status=(ExitStatus.NODE_FAIL if n > 100
                                  else ExitStatus.COMPLETED))
            for i, n in enumerate(list(range(1, 101)) + list(range(101, 201)))]
    with pytest.raises(SeparationDetected):
        fit_node_fail(JobTable.of(jobs))


def test_include_failed_widens_label():
    rng = np.random.default_rng(6)
    jobs = []
    for i in range(400):
        nd = int(rng.integers(1, 64))
        status = ExitStatus.FAILED if rng.random() < 0.1 else ExitStatus.COMPLETED
        jobs.append(make_job(job_id=f"j{i}", nodes=nd, cores=nd * 16,
                             exit_status=status))
    with pytest.raises(DegenerateInput):
        fit_node_fail(JobTable.of(jobs))  # no node_fail labels at all
    fit = fit_node_fail(JobTable.of(jobs), include_failed=True)
    assert fit.n_failures == sum(1 for j in jobs
                                 if j.exit_status is ExitStatus.FAILED)


def test_walltime_pow_nodes_covariate_clamps():
    # tiny wall years to a large node power underflows without the clamp
    jobs = [make_job(job_id="a", nodes=400, cores=6400, end=T0 + 600 + 60),
            make_job(job_id="b", nodes=1, cores=16)]
    x, clamped = model_covariate(JobTable.of(jobs), "walltime_pow_nodes")
    assert clamped == 1
    assert np.all(np.isfinite(x))
    assert x[0] > 0


def test_walltime_model_fits_data_from_its_own_family():
    rng = np.random.default_rng(4)
    year_seconds = 365 * 86400
    jobs = []
    for i in range(4000):
        nd = int(rng.integers(1, 6))
        wall_years = rng.uniform(0.5, 1.5)
        x = wall_years ** nd
        p = 1.0 / (1.0 + np.exp(-(-3.0 + 0.8 * x)))
        status = ExitStatus.NODE_FAIL if rng.random() < p else ExitStatus.COMPLETED
        jobs.append(make_job(job_id=f"j{i}", nodes=nd, cores=nd * 16,
                             end=T0 + 600 + int(wall_years * year_seconds),
                             exit_status=status))
    fit = fit_node_fail(JobTable.of(jobs), model="walltime_pow_nodes")
    assert fit.converged
    assert math.isfinite(fit.beta1) and math.isfinite(fit.se1)
    assert abs(fit.beta1 - 0.8) / 0.8 < 0.3
    assert fit.n_clamped == 0


# --- exit code table -----------------------------------------------------------------

def test_exit_code_counts():
    jobs = ([make_job(job_id=f"c{i}") for i in range(3)]
            + [make_job(job_id="f", exit_status=ExitStatus.FAILED)])
    table = exit_code_table(JobTable.of(jobs))["TESTMACHINE"]
    assert table["completed"] == 3
    assert table["failed"] == 1
    assert table["total"] == 4


def test_absent_statuses_are_zero():
    table = exit_code_table(JobTable.of([make_job()]))["TESTMACHINE"]
    for status in ("canceled", "timeout", "failed", "node_fail", "not_available"):
        assert table[status] == 0


def test_fixture_matches_hand_tally():
    statuses = [ExitStatus.COMPLETED] * 5 + [ExitStatus.CANCELED] * 2 + \
        [ExitStatus.TIMEOUT, ExitStatus.NODE_FAIL, ExitStatus.NODE_FAIL]
    jobs = [make_job(job_id=f"j{i}", exit_status=s, resource="TESTMACHINE")
            for i, s in enumerate(statuses)]
    table = exit_code_table(JobTable.of(jobs))["TESTMACHINE"]
    assert (table["completed"], table["canceled"], table["timeout"],
            table["node_fail"], table["failed"]) == (5, 2, 1, 2, 0)
    assert table["total"] == len(jobs)
