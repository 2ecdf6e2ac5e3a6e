"""Usage rollups over time periods and job-trend metrics.

Jobs are assigned to calendar periods (UTC) by their end time: the SU charge
is booked when the job ends, and XD SU conversion uses the factor in effect
on that date.  Each function takes job records or a ``JobTable`` and
computes on the table's columns.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import EmptyGroup
from ..ingest import JobRecord, Jobs, ResourceSpec
from ..jobtable import Codes, JobTable, day_number, group_totals, one_group
from ..stats import total
from .histograms import Histogram1D, default_job_size_edges

OSG_RESOURCE = "OSG"

DIMENSIONS = ("resource", "directorate", "parent_science", "field_of_science",
              "rtype", "nsf_user_status", "state")
WEIGHTS = ("jobs", "xd_su", "core_hours", "node_hours")
PERIODS = ("quarter", "year")


@dataclass(frozen=True)
class Filters:
    """Row filters a report applies to its jobs before any analysis sees them."""

    start: date | None = None          # keep jobs ending on/after this date
    end: date | None = None            # keep jobs ending strictly before this date
    resources: frozenset[str] | None = None
    exclude_resources: frozenset[str] = frozenset()
    queues: frozenset[str] | None = None
    exclude_osg: bool = False

    def __post_init__(self):
        # frozensets keep the value hashable, so it can key a memo of kept jobs
        for name in ("resources", "exclude_resources", "queues"):
            value = getattr(self, name)
            if value is not None and type(value) is not frozenset:
                object.__setattr__(self, name, frozenset(value))

    def mask(self, table: JobTable) -> np.ndarray:
        """Mask of the rows of ``table`` that the filters keep."""
        keep = np.ones(len(table), dtype=bool)
        if self.start is not None:
            keep &= table.end_day >= day_number(self.start)
        if self.end is not None:
            keep &= table.end_day < day_number(self.end)
        if self.resources is not None:
            keep &= table.resource.isin(self.resources)
        excluded = self.exclude_resources | ({OSG_RESOURCE} if self.exclude_osg else set())
        if excluded:
            keep &= ~table.resource.isin(excluded)
        if self.queues is not None:
            keep &= table.queue.isin(self.queues)
        return keep

    def apply(self, jobs: Iterable[JobRecord] | JobTable) -> list[JobRecord] | JobTable:
        """The kept jobs: of records, a list of the kept ones; of a
        JobTable, the table of its kept rows."""
        if isinstance(jobs, JobTable):
            return jobs.take(self.mask(jobs))
        jobs = list(jobs)
        return list(compress(jobs, self.mask(JobTable.of(jobs)).tolist()))


@dataclass
class RollupTable:
    dimension: str
    weight: str
    period: str
    totals: dict[str, dict[str, float]] = field(default_factory=dict)
    excluded_no_factor: int = 0

    def shares(self, period_label: str) -> dict[str, float]:
        bucket = self.totals.get(period_label, {})
        period_total = total(bucket.values())
        if period_total == 0:
            return {value: 0.0 for value in bucket}
        return {value: 100.0 * w / period_total for value, w in bucket.items()}

    def rows(self) -> list[tuple[str, str, float, float]]:
        """(period, value, total, pct_share) sorted for stable emission."""
        out = []
        for period_label in sorted(self.totals):
            shares = self.shares(period_label)
            for value in sorted(self.totals[period_label]):
                out.append((period_label, value,
                            self.totals[period_label][value], shares[value]))
        return out


def usage_rollup(jobs: Jobs, dimension: str, weight: str,
                 period: str, resources: Mapping[str, ResourceSpec]) -> RollupTable:
    """Aggregate job weight per (period, dimension value) with period shares.

    Jobs whose XD SU factor cannot be resolved are excluded from xd_su
    weighting and counted in excluded_no_factor.  Buckets are added in the
    order of their first job, the order ``shares`` sums them in.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    table = JobTable.of(jobs, resources)
    periods, values = table.periods(period), getattr(table, dimension)
    w = table.weights(weight)
    known = ~np.isnan(w)
    rollup = RollupTable(dimension=dimension, weight=weight, period=period,
                         excluded_no_factor=len(table) - int(np.count_nonzero(known)))
    rollup.totals = group_totals(periods.take(known), values.take(known), w[known])
    return rollup


def job_size_distribution(jobs: Jobs,
                          bins: Sequence[float] | None = None,
                          weight: str = "jobs",
                          resources: Mapping[str, ResourceSpec] | None = None) -> Histogram1D:
    """Histogram of job core counts under the given weighting.

    Jobs whose weight cannot be computed (missing SU factor) land in the
    absent bucket so the histogram still conserves the population count.
    """
    table = JobTable.of(jobs, resources)
    w = table.weights(weight)
    known = ~np.isnan(w)
    # an unknown weight makes the job absent, where it counts 1.0
    return Histogram1D.of(tuple(bins) if bins else default_job_size_edges(),
                          np.where(known, table.cores, np.nan), np.where(known, w, 1.0),
                          weight_kind=weight)


def effective_cores(job: JobRecord, resources: Mapping[str, ResourceSpec],
                    kraken_factor: float) -> float:
    """Core count scaled by the resource/reference SU-factor ratio."""
    if kraken_factor <= 0:
        raise ValueError("reference factor must be positive")
    factor = resources[job.resource].factor_for(job.end_date)
    return job.cores * factor / kraken_factor


def _size_means(table: JobTable, groups: Codes, kraken_factor: float
                ) -> dict[tuple[bool, bool], dict[str, float]]:
    """Mean job size per group for each (weighted_by_xd_su, effective)
    pair; a group left with no job or no weight has no entry.  Jobs with no
    SU factor are left out of the effective and the weighted means."""
    if kraken_factor <= 0:
        raise ValueError("reference factor must be positive")
    factored = ~np.isnan(table.su_factor)
    in_group = groups.codes[factored]

    def sums(codes: np.ndarray, weights: np.ndarray | None = None) -> list:
        return np.bincount(codes, weights, minlength=len(groups.names)).tolist()

    cores = table.cores.astype(np.float64)
    sizes = {False: cores[factored],
             True: (table.cores * table.su_factor / kraken_factor)[factored]}
    xd_su = table.xd_su[factored]
    weight = sums(in_group, xd_su)
    means = {}
    for effective in (False, True):
        count, size_total = ((sums(in_group), sums(in_group, sizes[True])) if effective
                             else (sums(groups.codes), sums(groups.codes, cores)))
        means[False, effective] = {groups.names[g]: s / c for g, (s, c)
                                   in enumerate(zip(size_total, count)) if c}
        weighted = sums(in_group, sizes[effective] * xd_su)
        means[True, effective] = {groups.names[g]: s / w for g, (s, w)
                                  in enumerate(zip(weighted, weight)) if w > 0}
    return means


def average_job_size(jobs: Jobs,
                     resources: Mapping[str, ResourceSpec],
                     weighted_by_xd_su: bool = False,
                     effective: bool = False,
                     kraken_factor: float = 2.04) -> float:
    """Mean job size in (effective) cores, optionally XD-SU-weighted.

    Jobs with no SU factor are left out of the effective and the weighted
    means; EmptyGroup is raised when no job or no weight is left.
    """
    table = JobTable.of(jobs, resources)
    mean = _size_means(table, one_group(len(table)), kraken_factor)[weighted_by_xd_su, effective]
    if not mean:
        raise EmptyGroup("no jobs or no XD SU weight to average")
    return mean["all"]


def average_job_size_variants(jobs: Jobs,
                              resources: Mapping[str, ResourceSpec],
                              period: str = "quarter",
                              kraken_factor: float = 2.04
                              ) -> dict[tuple[bool, bool], dict[str, float]]:
    """``average_job_size_series`` for every (weighted_by_xd_su, effective)
    pair, from one set of per-period sums."""
    table = JobTable.of(jobs, resources)
    return _size_means(table, table.periods(period), kraken_factor)


def average_job_size_series(jobs: Jobs,
                            resources: Mapping[str, ResourceSpec],
                            period: str = "quarter",
                            weighted_by_xd_su: bool = False,
                            effective: bool = False,
                            kraken_factor: float = 2.04) -> dict[str, float]:
    """average_job_size per period, in period order; a period left with no
    job or no weight has no entry."""
    return average_job_size_variants(jobs, resources, period,
                                     kraken_factor)[weighted_by_xd_su, effective]


@dataclass(frozen=True)
class SingleNodeShare:
    period: str
    pct_jobs_single_node: float
    pct_xd_su_single_node: float
    pct_xd_su_serial: float


def single_node_serial_fractions(jobs: Jobs,
                                 resources: Mapping[str, ResourceSpec],
                                 period: str = "quarter") -> list[SingleNodeShare]:
    """Per-period share of single-node jobs (by count and XD SU) and of
    serial jobs (by XD SU).  Single-node means nodes == 1; serial cores == 1.
    """
    table = JobTable.of(jobs, resources)
    periods = table.periods(period)
    factored = ~np.isnan(table.xd_su)
    single = table.nodes == 1

    def per_period(rows: np.ndarray, su: bool = False) -> list:
        return np.bincount(periods.codes[rows], table.xd_su[rows] if su else None,
                           minlength=len(periods.names)).tolist()

    n_jobs, n_single = per_period(np.ones(len(table), dtype=bool)), per_period(single)
    su_total = per_period(factored, su=True)
    su_single = per_period(factored & single, su=True)
    su_serial = per_period(factored & (table.cores == 1), su=True)
    return [SingleNodeShare(
        period=label,
        pct_jobs_single_node=100.0 * n_single[p] / n_jobs[p],
        pct_xd_su_single_node=100.0 * su_single[p] / su_total[p] if su_total[p] else 0.0,
        pct_xd_su_serial=100.0 * su_serial[p] / su_total[p] if su_total[p] else 0.0,
    ) for p, label in enumerate(periods.names) if n_jobs[p]]
