"""Periodicity detection and failure modeling.

The periodogram is the classical normalized least-squares form: power at
each trial frequency is the sinusoid fit improvement normalized by twice the
sample variance, with the per-frequency phase offset tau making the result
invariant to time translation.  Evenly spaced samples (equal steps in
seconds, as bin_counts gives) on an evenly spaced frequency grid (as
default_frequency_grid gives) take an exact chirp-z path: the trig sums are
one Bluestein convolution by FFT plus a closed form, O((N+M) log(N+M))
(Press & Rybicki 1989; VanderPlas 2018).  Frequencies where that path loses
precision, those whose smaller basis norm is under 1% of N (f*span << 1, or
near a multiple of the Nyquist frequency), are evaluated by the direct
O(N*M) sums, which also serve any other input.  Node-failure probability is
fit by logistic regression (Newton/IRLS) with Wald tests on the
coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInput, NonConvergence, SeparationDetected
from .ingest import ExitStatus, JobRecord

SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.0 * SECONDS_PER_DAY
_SEPARATION_BETA = 50.0
_CLAMP_LO, _CLAMP_HI = -700.0, 50.0
_GRID_RTOL = 1e-9     # frequency steps this close to equal count as even
_DEGENERATE = 0.01    # basis norm below this share of N: evaluate directly


# ---------------------------------------------------------------------------
# Lomb-Scargle

@dataclass(frozen=True)
class Periodogram:
    frequencies_per_day: tuple[float, ...]
    power: tuple[float, ...]
    n_samples: int

    def peaks(self, top: int | None = None) -> list[tuple[float, float, float]]:
        """Local maxima as (frequency, period_days, power), strongest first."""
        p = self.power
        found = []
        for i in range(1, len(p) - 1):
            if p[i] > p[i - 1] and p[i] > p[i + 1]:
                f = self.frequencies_per_day[i]
                found.append((f, 1.0 / f, p[i]))
        found.sort(key=lambda item: -item[2])
        return found[:top] if top is not None else found


def bin_counts(event_times: Sequence[float], bin_seconds: int = 3600):
    """Bin raw event times into counts per fixed interval (empty bins kept).

    Returns (bin_center_times, counts) in the input time unit (seconds).
    """
    if len(event_times) == 0:
        raise DegenerateInput("no events")
    times = np.asarray(event_times, dtype=float)
    lo = math.floor(times.min() / bin_seconds)
    hi = math.floor(times.max() / bin_seconds)
    edges = np.arange(lo, hi + 2) * float(bin_seconds)
    counts, _ = np.histogram(times, bins=edges)
    centers = edges[:-1] + bin_seconds / 2.0
    return centers, counts.astype(float)


def default_frequency_grid(times_seconds: Sequence[float],
                           min_period_days: float = 2.0 / 24.0,
                           max_period_days: float = 730.0,
                           oversample: int = 4) -> np.ndarray:
    """Frequencies (cycles/day) spanning periods of two hours to two years,
    spaced so each peak width gets `oversample` samples."""
    times = np.asarray(times_seconds, dtype=float) / SECONDS_PER_DAY
    span = times.max() - times.min()
    if span <= 0:
        raise DegenerateInput("zero time span")
    df = 1.0 / (oversample * span)
    f_min = 1.0 / max_period_days
    f_max = 1.0 / min_period_days
    return np.arange(f_min, f_max + df, df)


def _series(times_seconds, values, freq_grid_per_day, bin_seconds):
    """Validated inputs: (times in seconds, centred times in days, values
    less their mean, sample variance, frequencies in cycles/day)."""
    if values is None:
        times_seconds, values = bin_counts(times_seconds, bin_seconds)
    seconds = np.asarray(times_seconds, dtype=float)
    # centred before the change of unit: epoch seconds divided first would
    # keep only ~1e-12 day resolution after the mean is taken off
    t = (seconds - seconds.mean()) / SECONDS_PER_DAY
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape:
        raise ValueError("times and values length mismatch")
    if len(t) < 3:
        raise DegenerateInput("need at least 3 samples")
    variance = y.var(ddof=1)
    if variance <= 0:
        raise DegenerateInput("constant series")
    if freq_grid_per_day is None:
        freqs = default_frequency_grid(seconds)
    else:
        freqs = np.asarray(freq_grid_per_day, dtype=float)
    if np.any(freqs <= 0) or not np.all(np.isfinite(freqs)):
        raise ValueError("frequencies must be positive and finite")
    return seconds, t, y - y.mean(), variance, freqs


def _periodogram(freqs, power, n_samples) -> Periodogram:
    return Periodogram(frequencies_per_day=tuple(freqs.tolist()),
                       power=tuple(power.tolist()),
                       n_samples=n_samples)


def lomb_scargle(times_seconds: Sequence[float],
                 values: Sequence[float] | None = None,
                 freq_grid_per_day: Sequence[float] | None = None,
                 bin_seconds: int = 3600) -> Periodogram:
    """Classical normalized periodogram of an unevenly sampled series.

    With values=None the input is taken as raw event times and binned into
    counts per bin_seconds first.  Frequencies are cycles per day.  Evenly
    spaced times on an evenly spaced grid take the chirp-z path; anything
    else takes the direct one.
    """
    seconds, t, dy, variance, freqs = _series(times_seconds, values,
                                              freq_grid_per_day, bin_seconds)
    steps = np.diff(seconds)
    if np.all(steps == steps[0]) and _is_even_grid(freqs):
        fit = _chirp_power(steps[0] / SECONDS_PER_DAY, t, dy, freqs)
    else:
        fit = _direct_power(t, dy, freqs)
    return _periodogram(freqs, fit / (2.0 * variance), len(t))


def _lomb_scargle_direct(times_seconds: Sequence[float],
                         values: Sequence[float] | None = None,
                         freq_grid_per_day: Sequence[float] | None = None,
                         bin_seconds: int = 3600) -> Periodogram:
    """lomb_scargle by the direct O(N*M) sums alone (the test oracle)."""
    _, t, dy, variance, freqs = _series(times_seconds, values,
                                              freq_grid_per_day, bin_seconds)
    return _periodogram(freqs, _direct_power(t, dy, freqs) / (2.0 * variance),
                        len(t))


def _direct_power(t: np.ndarray, dy: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Fit improvement at each frequency (power times twice the variance),
    by direct sums over every sample; t is centred, dy has zero mean."""
    power = np.empty(len(freqs))
    tiny = 1e-300
    chunk = 256
    for lo in range(0, len(freqs), chunk):
        omega = 2.0 * np.pi * freqs[lo:lo + chunk, None]  # (m, 1)
        two_wt = 2.0 * omega * t[None, :]
        tau = np.arctan2(np.sin(two_wt).sum(axis=1),
                         np.cos(two_wt).sum(axis=1)) / (2.0 * omega[:, 0])
        phase = omega * (t[None, :] - tau[:, None])
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        c_num = (dy[None, :] * cos_p).sum(axis=1) ** 2
        s_num = (dy[None, :] * sin_p).sum(axis=1) ** 2
        c_den = (cos_p ** 2).sum(axis=1)
        s_den = (sin_p ** 2).sum(axis=1)
        c_term = np.where(c_den > tiny, c_num / np.maximum(c_den, tiny), 0.0)
        s_term = np.where(s_den > tiny, s_num / np.maximum(s_den, tiny), 0.0)
        power[lo:lo + chunk] = c_term + s_term
    return power


def _is_even_grid(freqs: np.ndarray) -> bool:
    """True when every frequency step is the mean step to 1e-9 of it."""
    if len(freqs) < 2:
        return len(freqs) == 1  # an empty grid goes the direct way: no powers
    steps = np.diff(freqs)
    df = (freqs[-1] - freqs[0]) / (len(freqs) - 1)
    return bool(np.all(np.abs(steps - df) <= _GRID_RTOL * abs(df)))


def _cycles(x: np.ndarray) -> np.ndarray:
    """x less its nearest integer, so a phase in cycles keeps its precision
    when multiplied by 2*pi."""
    return x - np.round(x)


def _chirp_power(h: float, t: np.ndarray, dy: np.ndarray,
                 freqs: np.ndarray) -> np.ndarray:
    """_direct_power for samples h days apart on an evenly spaced grid.

    With t_k = t0 + k*h (t0 = -(N-1)h/2) and f_j = f0 + j*df, the phase
    f_j*t_k = f_j*t0 + f0*h*k + a*(j^2 + k^2 - (j-k)^2)/2 with a = df*h, so
    sum_k dy_k exp(2*pi*i*f_j*t_k) is one convolution with the chirp
    exp(-pi*i*a*m^2) (Bluestein), done by FFT.  On the centred grid
    sum_k sin(2*w*t_k) = 0, so tau = 0, the sine and cosine bases are
    orthogonal and sum_k cos(2*w*t_k) is the Dirichlet kernel
    C2 = sin(2*pi*N*f*h) / sin(2*pi*f*h).  Frequencies whose smaller basis
    norm (N - |C2|)/2 falls below _DEGENERATE * N (f*span << 1, or f near a
    multiple of the Nyquist frequency 1/(2h)) are evaluated directly.
    """
    n, m = len(dy), len(freqs)
    f0 = freqs[0]
    a = (freqs[-1] - f0) / (m - 1) * h if m > 1 else 0.0
    t0 = -(n - 1) * h / 2.0
    k = np.arange(n, dtype=float)
    j = np.arange(m, dtype=float)
    lags = np.arange(-(n - 1), m, dtype=float)
    size = 1 << (n + m - 2).bit_length()  # a power of two >= n + m - 1
    kernel = np.zeros(size, dtype=complex)
    kernel[lags.astype(np.intp) % size] = np.exp(
        -2j * np.pi * _cycles(0.5 * a * (lags * lags)))
    weighted = dy * np.exp(2j * np.pi * (_cycles(f0 * h * k)
                                         + _cycles(0.5 * a * (k * k))))
    conv = np.fft.ifft(np.fft.fft(weighted, size) * np.fft.fft(kernel))[:m]
    sums = conv * np.exp(2j * np.pi * (_cycles(freqs * t0)
                                       + _cycles(0.5 * a * (j * j))))

    x = np.fmod(2.0 * freqs * h, 2.0)  # C2 has period 2 in 2*f*h
    den = np.sin(np.pi * x)
    num = np.sin(np.pi * np.fmod(n * x, 2.0))
    c2 = np.divide(num, den, out=np.full(m, float(n)), where=den != 0.0)
    cc = 0.5 * (n + c2)
    ss = n - cc
    near = np.minimum(cc, ss) < _DEGENERATE * n
    keep = ~near
    power = np.empty(m)
    power[keep] = sums.real[keep] ** 2 / cc[keep] + sums.imag[keep] ** 2 / ss[keep]
    if near.any():
        power[near] = _direct_power(t, dy, freqs[near])
    return power


# ---------------------------------------------------------------------------
# logistic node-failure models

MODELS = ("nodes_linear", "walltime_pow_nodes")


@dataclass(frozen=True)
class LogisticFit:
    model: str
    beta0: float
    beta1: float
    se0: float
    se1: float
    p_value0: float
    p_value1: float
    converged: bool
    iterations: int
    n_used: int
    n_failures: int
    n_clamped: int = 0

    def predict(self, x: float) -> float:
        eta = self.beta0 + self.beta1 * x
        if eta >= 0:
            return 1.0 / (1.0 + math.exp(-eta))
        z = math.exp(eta)
        return z / (1.0 + z)


def logistic_loglike(beta: Sequence[float], x: np.ndarray, y: np.ndarray) -> float:
    eta = beta[0] + beta[1] * x
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def logistic_gradient(beta: Sequence[float], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    eta = beta[0] + beta[1] * x
    p = 1.0 / (1.0 + np.exp(-eta))
    residual = y - p
    return np.array([residual.sum(), (residual * x).sum()])


def fit_logistic(x: Sequence[float], y: Sequence[float],
                 max_iter: int = 100, tol: float = 1e-10) -> tuple:
    """Newton/IRLS fit of logit p = b0 + b1*x on raw covariates.

    Returns (beta, covariance, iterations).  The covariate is standardized
    internally for conditioning and the results mapped back.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n_fail = int(y.sum())
    if n_fail == 0 or n_fail == len(y):
        raise DegenerateInput("need at least one failure and one success")
    mu = x.mean()
    sd = x.std()
    if sd == 0:
        raise DegenerateInput("constant covariate")
    xs = (x - mu) / sd
    design = np.column_stack([np.ones_like(xs), xs])
    beta = np.zeros(2)
    last_ll = logistic_loglike(beta, xs, y)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = design @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1.0 - p)
        hessian = design.T @ (design * w[:, None])
        grad = design.T @ (y - p)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise SeparationDetected("singular information matrix") from None
        beta = beta + step
        if np.max(np.abs(beta)) > _SEPARATION_BETA:
            raise SeparationDetected(f"|beta| exceeded {_SEPARATION_BETA}")
        ll = logistic_loglike(beta, xs, y)
        if abs(ll - last_ll) < tol * (abs(last_ll) + tol):
            converged = True
            last_ll = ll
            break
        last_ll = ll
    if not converged:
        raise NonConvergence(max_iter)
    eta = design @ beta
    p = 1.0 / (1.0 + np.exp(-eta))
    w = p * (1.0 - p)
    hessian = design.T @ (design * w[:, None])
    cov_std = np.linalg.inv(hessian)
    # map back to raw-covariate space: b1 = b1s/sd, b0 = b0s - b1s*mu/sd
    jac = np.array([[1.0, -mu / sd], [0.0, 1.0 / sd]])
    beta_raw = jac @ beta
    cov_raw = jac @ cov_std @ jac.T
    return beta_raw, cov_raw, iterations


def _wald_p(beta: float, se: float) -> float:
    if se <= 0:
        return float("nan")
    return math.erfc(abs(beta / se) / math.sqrt(2.0))


def model_covariate(jobs: Sequence[JobRecord], model: str) -> tuple[np.ndarray, int]:
    """The model's x per job; returns (x, clamped_row_count)."""
    nodes = np.array([job.nodes for job in jobs], dtype=float)
    if model == "nodes_linear":
        return nodes, 0
    if model == "walltime_pow_nodes":
        wall_years = np.array([job.wall_seconds for job in jobs], dtype=float) / SECONDS_PER_YEAR
        if np.any(wall_years <= 0):
            raise ValueError("walltime_pow_nodes requires positive wall time")
        exponent = nodes * np.log(wall_years)
        clamped = int(np.sum((exponent < _CLAMP_LO) | (exponent > _CLAMP_HI)))
        return np.exp(np.clip(exponent, _CLAMP_LO, _CLAMP_HI)), clamped
    raise ValueError(f"unknown model {model!r}")


def fit_node_fail(jobs: Sequence[JobRecord], model: str = "nodes_linear",
                  include_failed: bool = False,
                  max_iter: int = 100) -> LogisticFit:
    """Fit failure probability against job size (or wall-time^nodes).

    The failure label is the scheduler's node-fail status; include_failed
    widens it to batch-script failures for the combined analysis.
    """
    failure_statuses = {ExitStatus.NODE_FAIL}
    if include_failed:
        failure_statuses.add(ExitStatus.FAILED)
    pool = list(jobs)
    if model == "walltime_pow_nodes":
        pool = [job for job in pool if job.wall_seconds > 0]
    if not pool:
        raise DegenerateInput("no usable jobs")
    y = np.array([1.0 if job.exit_status in failure_statuses else 0.0
                  for job in pool])
    x, clamped = model_covariate(pool, model)
    beta, cov, iterations = fit_logistic(x, y, max_iter=max_iter)
    se = np.sqrt(np.diag(cov))
    return LogisticFit(
        model=model,
        beta0=float(beta[0]), beta1=float(beta[1]),
        se0=float(se[0]), se1=float(se[1]),
        p_value0=_wald_p(beta[0], se[0]),
        p_value1=_wald_p(beta[1], se[1]),
        converged=True,
        iterations=iterations,
        n_used=len(pool),
        n_failures=int(y.sum()),
        n_clamped=clamped,
    )


# ---------------------------------------------------------------------------
# exit codes

def exit_code_table(jobs: Sequence[JobRecord],
                    group_by_resource: bool = True) -> dict[str, dict[str, int]]:
    """Job counts per exit status; every status appears, absent ones as 0."""
    groups: dict[str, dict[str, int]] = {}
    empty = {status.value: 0 for status in ExitStatus}
    for job in jobs:
        name = job.resource if group_by_resource else "all"
        bucket = groups.setdefault(name, dict(empty))
        bucket[job.exit_status.value] += 1
    for bucket in groups.values():
        bucket["total"] = sum(bucket[s.value] for s in ExitStatus)
    return groups
