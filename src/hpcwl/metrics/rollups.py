"""Usage rollups over time periods and job-trend metrics.

Jobs are assigned to calendar periods (UTC) by their end time: the SU charge
is booked when the job ends, and XD SU conversion uses the factor in effect
on that date.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Iterable, Mapping, Sequence

from ..errors import EmptyGroup, NoFactorForDate
from ..ingest import JobRecord, ResourceSpec, job_xd_su
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

    def keep(self, job: JobRecord) -> bool:
        if self.start is not None or self.end is not None:
            day = job.end_date
            if self.start is not None and day < self.start:
                return False
            if self.end is not None and day >= self.end:
                return False
        if self.resources is not None and job.resource not in self.resources:
            return False
        if job.resource in self.exclude_resources:
            return False
        if self.exclude_osg and job.resource == OSG_RESOURCE:
            return False
        if self.queues is not None and job.queue not in self.queues:
            return False
        return True

    def apply(self, jobs: Iterable[JobRecord]) -> list[JobRecord]:
        return [job for job in jobs if self.keep(job)]


def period_key(day: date, period: str) -> str:
    if period == "year":
        return f"{day.year}"
    if period == "quarter":
        return f"{day.year}-Q{(day.month - 1) // 3 + 1}"
    raise ValueError(f"unknown period {period!r}")


def job_period(job: JobRecord, period: str) -> str:
    return period_key(job.end_date, period)


def job_weight(job: JobRecord, weight: str,
               resources: Mapping[str, ResourceSpec] | None = None) -> float:
    if weight == "jobs":
        return 1.0
    if weight == "core_hours":
        return job.core_hours
    if weight == "node_hours":
        return job.node_hours
    if weight == "xd_su":
        if resources is None:
            raise ValueError("xd_su weighting needs the resource map")
        return job_xd_su(job, resources)
    raise ValueError(f"unknown weight {weight!r}")


def dimension_value(job: JobRecord, dimension: str,
                    resources: Mapping[str, ResourceSpec] | None = None) -> str:
    if dimension == "resource":
        return job.resource
    if dimension == "directorate":
        return job.directorate
    if dimension == "parent_science":
        return job.parent_science
    if dimension == "field_of_science":
        return job.field_of_science
    if dimension == "rtype":
        if resources is None or job.resource not in resources:
            return "unknown"
        return resources[job.resource].rtype.value
    if dimension == "nsf_user_status":
        return job.nsf_user_status.value
    if dimension == "state":
        return job.state_of_origin or "unknown"
    raise ValueError(f"unknown dimension {dimension!r}")


@dataclass
class RollupTable:
    dimension: str
    weight: str
    period: str
    totals: dict[str, dict[str, float]] = field(default_factory=dict)
    excluded_no_factor: int = 0

    def add(self, period_label: str, value: str, weight: float) -> None:
        bucket = self.totals.setdefault(period_label, {})
        bucket[value] = bucket.get(value, 0.0) + weight

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


def usage_rollup(jobs: Sequence[JobRecord], dimension: str, weight: str,
                 period: str, resources: Mapping[str, ResourceSpec]) -> RollupTable:
    """Aggregate job weight per (period, dimension value) with period shares.

    Jobs whose XD SU factor cannot be resolved are excluded from xd_su
    weighting and counted in excluded_no_factor.
    """
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}")
    if weight not in WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    table = RollupTable(dimension=dimension, weight=weight, period=period)
    for job in jobs:
        try:
            w = job_weight(job, weight, resources)
        except (NoFactorForDate, KeyError):
            table.excluded_no_factor += 1
            continue
        table.add(job_period(job, period),
                  dimension_value(job, dimension, resources), w)
    return table


def job_size_distribution(jobs: Sequence[JobRecord],
                          bins: Sequence[float] | None = None,
                          weight: str = "jobs",
                          resources: Mapping[str, ResourceSpec] | None = None) -> Histogram1D:
    """Histogram of job core counts under the given weighting.

    Jobs whose weight cannot be computed (missing SU factor) land in the
    absent bucket so the histogram still conserves the population count.
    """
    hist = Histogram1D(edges=tuple(bins) if bins else default_job_size_edges(),
                       weight_kind=weight)
    for job in jobs:
        try:
            hist.add(job.cores, job_weight(job, weight, resources))
        except (NoFactorForDate, KeyError):
            hist.add_absent(1.0)
    return hist


def effective_cores(job: JobRecord, resources: Mapping[str, ResourceSpec],
                    kraken_factor: float) -> float:
    """Core count scaled by the resource/reference SU-factor ratio."""
    if kraken_factor <= 0:
        raise ValueError("reference factor must be positive")
    factor = resources[job.resource].factor_for(job.end_date)
    return job.cores * factor / kraken_factor


def average_job_size(jobs: Sequence[JobRecord],
                     resources: Mapping[str, ResourceSpec],
                     weighted_by_xd_su: bool = False,
                     effective: bool = False,
                     kraken_factor: float = 2.04) -> float:
    """Mean job size in (effective) cores, optionally XD-SU-weighted.

    Jobs with no SU factor are left out of the effective and the weighted
    means; EmptyGroup is raised when no job or no weight is left.
    """
    sizes = []
    weights = []
    for job in jobs:
        try:
            size = (effective_cores(job, resources, kraken_factor) if effective
                    else float(job.cores))
            if weighted_by_xd_su:
                weights.append(job_xd_su(job, resources))
        except (NoFactorForDate, KeyError):
            continue
        sizes.append(size)
    if not sizes:
        raise EmptyGroup("no jobs to average")
    if not weighted_by_xd_su:
        return total(sizes) / len(sizes)
    weight = total(weights)
    if weight <= 0:
        raise EmptyGroup("zero total XD SU weight")
    return total(s * w for s, w in zip(sizes, weights)) / weight


def average_job_size_series(jobs: Sequence[JobRecord],
                            resources: Mapping[str, ResourceSpec],
                            period: str = "quarter",
                            weighted_by_xd_su: bool = False,
                            effective: bool = False,
                            kraken_factor: float = 2.04) -> dict[str, float]:
    """average_job_size per period; a period left with no job or no weight
    has no entry."""
    by_period: dict[str, list[JobRecord]] = {}
    for job in jobs:
        by_period.setdefault(job_period(job, period), []).append(job)
    series = {}
    for label, group in sorted(by_period.items()):
        try:
            series[label] = average_job_size(group, resources, weighted_by_xd_su,
                                             effective, kraken_factor)
        except EmptyGroup:
            continue
    return series


@dataclass(frozen=True)
class SingleNodeShare:
    period: str
    pct_jobs_single_node: float
    pct_xd_su_single_node: float
    pct_xd_su_serial: float


def single_node_serial_fractions(jobs: Sequence[JobRecord],
                                 resources: Mapping[str, ResourceSpec],
                                 period: str = "quarter") -> list[SingleNodeShare]:
    """Per-period share of single-node jobs (by count and XD SU) and of
    serial jobs (by XD SU).  Single-node means nodes == 1; serial cores == 1.
    """
    by_period: dict[str, list[JobRecord]] = {}
    for job in jobs:
        by_period.setdefault(job_period(job, period), []).append(job)
    out = []
    for label in sorted(by_period):
        group = by_period[label]
        n_single = sum(1 for job in group if job.nodes == 1)
        su_total = su_single = su_serial = 0.0
        for job in group:
            try:
                su = job_xd_su(job, resources)
            except (NoFactorForDate, KeyError):
                continue
            su_total += su
            if job.nodes == 1:
                su_single += su
            if job.cores == 1:
                su_serial += su
        out.append(SingleNodeShare(
            period=label,
            pct_jobs_single_node=100.0 * n_single / len(group),
            pct_xd_su_single_node=100.0 * su_single / su_total if su_total else 0.0,
            pct_xd_su_serial=100.0 * su_serial / su_total if su_total else 0.0,
        ))
    return out
