"""Record-at-a-time rollups, depth profile and queue replay: the reference
for the columnar kernels in ``hpcwl.metrics.rollups``, ``hpcwl.metrics.depth``
and ``hpcwl.backlog``.

These are the per-job loops the ``JobTable`` kernels replaced, unchanged
except that ``required_nodes`` gives one R_j per job, in job order, where
the loop it came from kept one per job id.
"""
from __future__ import annotations

from datetime import date, timedelta
from typing import Mapping, Sequence

from hpcwl.backlog import BacklogPoint, BacklogSeries
from hpcwl.errors import EmptyGroup, NoFactorForDate
from hpcwl.ingest import JobRecord, ResourceSpec, job_xd_su, utc_date
from hpcwl.metrics import (
    Filters,
    ProjectDepth,
    RollupTable,
    SingleNodeShare,
    effective_cores,
    job_weight,
    period_key,
)
from hpcwl.metrics.depth import DepthProfile
from hpcwl.metrics.histograms import Histogram1D, default_job_size_edges
from hpcwl.metrics.rollups import OSG_RESOURCE
from hpcwl.stats import total


def keep(filters: Filters, job: JobRecord) -> bool:
    if filters.start is not None or filters.end is not None:
        day = job.end_date
        if filters.start is not None and day < filters.start:
            return False
        if filters.end is not None and day >= filters.end:
            return False
    if filters.resources is not None and job.resource not in filters.resources:
        return False
    if job.resource in filters.exclude_resources:
        return False
    if filters.exclude_osg and job.resource == OSG_RESOURCE:
        return False
    if filters.queues is not None and job.queue not in filters.queues:
        return False
    return True


def job_period(job: JobRecord, period: str) -> str:
    return period_key(job.end_date, period)


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


def usage_rollup(jobs: Sequence[JobRecord], dimension: str, weight: str,
                 period: str, resources: Mapping[str, ResourceSpec]) -> RollupTable:
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
    hist = Histogram1D(edges=tuple(bins) if bins else default_job_size_edges(),
                       weight_kind=weight)
    for job in jobs:
        try:
            hist.add(job.cores, job_weight(job, weight, resources))
        except (NoFactorForDate, KeyError):
            hist.add_absent(1.0)
    return hist


def average_job_size(jobs: Sequence[JobRecord],
                     resources: Mapping[str, ResourceSpec],
                     weighted_by_xd_su: bool = False,
                     effective: bool = False,
                     kraken_factor: float = 2.04) -> float:
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


def single_node_serial_fractions(jobs: Sequence[JobRecord],
                                 resources: Mapping[str, ResourceSpec],
                                 period: str = "quarter") -> list[SingleNodeShare]:
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


def depth_profile(jobs: Sequence[JobRecord], by: str = "cores",
                  window_year: int | None = None) -> DepthProfile:
    depth_of = (lambda j: j.cores) if by == "cores" else (lambda j: j.nodes)
    acc: dict[str, list] = {}  # project -> [depth, usage, count]
    for job in jobs:
        if window_year is not None and utc_date(job.end_time).year != window_year:
            continue
        entry = acc.setdefault(job.charge_number, [0, 0.0, 0])
        entry[0] = max(entry[0], depth_of(job))
        entry[1] += job.core_hours
        entry[2] += 1
    projects = tuple(ProjectDepth(pid, d, u, c)
                     for pid, (d, u, c) in sorted(acc.items()))
    return DepthProfile(by=by, window_year=window_year, projects=projects)


def _state_deltas(jobs: Sequence[JobRecord]) -> dict[int, list[int]]:
    """time -> [d_queued_nodes, d_queued_core_seconds, d_running_nodes]."""
    deltas: dict[int, list[int]] = {}

    def bump(t: int, dq: int, dcs: int, dr: int) -> None:
        entry = deltas.setdefault(t, [0, 0, 0])
        entry[0] += dq
        entry[1] += dcs
        entry[2] += dr

    for job in jobs:
        core_seconds = job.cores * job.wall_seconds
        bump(job.submit_time, job.nodes, core_seconds, 0)
        bump(job.start_time, -job.nodes, -core_seconds, job.nodes)
        bump(job.end_time, 0, 0, -job.nodes)
    return deltas


def _midnights_between(lo: int, hi: int) -> list[int]:
    out = []
    day = utc_date(lo)
    while True:
        midnight = int((day - date(1970, 1, 1)).total_seconds())
        if midnight > hi:
            break
        if midnight >= lo:
            out.append(midnight)
        day = day + timedelta(days=1)
    return out


def backlog_series(jobs: Sequence[JobRecord], resource: str | None = None,
                   sampling: str = "event",
                   spec: ResourceSpec | None = None) -> BacklogSeries:
    if resource is not None:
        jobs = [job for job in jobs if job.resource == resource]
    series = BacklogSeries(resource=resource or "all", sampling=sampling)
    if not jobs:
        return series
    deltas = _state_deltas(jobs)
    event_times = sorted(deltas)
    if sampling == "daily":
        sample_times = _midnights_between(event_times[0], event_times[-1])
    else:
        sample_times = event_times

    queued_nodes = 0
    queued_cs = 0
    running_nodes = 0
    sample_iter = iter(sample_times)
    next_sample = next(sample_iter, None)
    for t in event_times:
        # emit samples for instants strictly before this event
        while next_sample is not None and next_sample < t:
            series.points.append(BacklogPoint(next_sample, queued_cs,
                                              running_nodes, queued_nodes))
            next_sample = next(sample_iter, None)
        dq, dcs, dr = deltas[t]
        queued_nodes += dq
        queued_cs += dcs
        running_nodes += dr
        if spec is not None and running_nodes > spec.nodes:
            series.infeasible_times.append(t)
        if next_sample == t:
            series.points.append(BacklogPoint(t, queued_cs, running_nodes, queued_nodes))
            next_sample = next(sample_iter, None)
    while next_sample is not None:
        series.points.append(BacklogPoint(next_sample, queued_cs,
                                          running_nodes, queued_nodes))
        next_sample = next(sample_iter, None)
    return series


def required_nodes(jobs: Sequence[JobRecord]) -> list[int]:
    """R_j: running + queued nodes at each job's submit instant, the
    submitting job included; one value per job, in job order."""
    if not jobs:
        return []
    deltas = _state_deltas(jobs)
    submits: dict[int, list[int]] = {}
    for index, job in enumerate(jobs):
        submits.setdefault(job.submit_time, []).append(index)
    required = [0] * len(jobs)
    queued_nodes = 0
    running_nodes = 0
    for t in sorted(deltas):
        dq, _, dr = deltas[t]
        queued_nodes += dq
        running_nodes += dr
        for index in submits.get(t, ()):
            required[index] = running_nodes + queued_nodes
    return required
