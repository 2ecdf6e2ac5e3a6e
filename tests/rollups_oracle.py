"""Record-at-a-time rollups, depth profile, queue replay, the memory,
Lustre, concurrency and gateway analyses, wait statistics, queue depth,
exit codes, the node-failure fit and the job quality flags: the reference
for the columnar kernels in ``hpcwl.metrics``, ``hpcwl.backlog``,
``hpcwl.statmodels`` and ``hpcwl.ingest.validate``.

These are the per-job loops the ``JobTable`` kernels replaced, unchanged
except that ``required_nodes`` gives one R_j per job, in job order, where
the loop it came from kept one per job id, and that the performance loops
read a NaN summary field as None (not present), as the kernels do.
"""
from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from datetime import date, timedelta
from typing import Mapping, Sequence

import numpy as np

from hpcwl import statmodels
from hpcwl.backlog import BacklogPoint, BacklogSeries, UserDepth, WaitStats
from hpcwl.errors import DegenerateInput, EmptyGroup, NoFactorForDate
from hpcwl.ingest import (
    AGGREGATED_ACCOUNTING_SECONDS,
    AllocationRecord,
    Dataset,
    ExitStatus,
    JobRecord,
    QualityFlag,
    ResourceSpec,
    ResourceType,
    job_xd_su,
    utc_date,
)
from hpcwl.metrics import (
    Filters,
    ProjectDepth,
    RollupTable,
    SingleNodeShare,
    ConcurrencyResult,
    Histogram2D,
    LargeMemoryBreakdown,
    LustreStats,
    period_key,
)
from hpcwl.metrics.concurrency import band_labels, process_band, thread_bucket
from hpcwl.metrics.gateways import (
    DEFAULT_RELIABILITY_DATE,
    MODES,
    UNTAGGED_GATEWAY,
    CensusRow,
    ConversionRow,
    GatewayUsage,
    _period_start,
)
from hpcwl.metrics.histograms import (
    default_memory_edges,
    fraction_edges,
    log_edges,
)
from hpcwl.metrics.lustre import DEFAULT_EDGES, METRICS
from hpcwl.metrics.memory import node_mem_available
from hpcwl.perfsummary import JobPerfSummary, LaunchType
from hpcwl.metrics.depth import DepthProfile
from hpcwl.metrics.histograms import Histogram1D, default_job_size_edges
from hpcwl.metrics.rollups import OSG_RESOURCE
from hpcwl.statmodels import (
    _CLAMP_HI,
    _CLAMP_LO,
    SECONDS_PER_YEAR,
    LogisticFit,
    _wald_p,
    fit_logistic,
)
from hpcwl.stats import quantile, total


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


def _add(totals: dict[str, dict[str, float]], outer: str, inner: str, weight: float) -> None:
    bucket = totals.setdefault(outer, {})
    bucket[inner] = bucket.get(inner, 0.0) + weight


def hist_add(hist: Histogram1D, value: float, weight: float = 1.0) -> None:
    if weight < 0:
        raise ValueError("negative weight")
    if value < hist.edges[0]:
        hist.underflow += weight
    elif value >= hist.edges[-1]:
        hist.overflow += weight
    else:
        hist.weights[bisect_right(hist.edges, value) - 1] += weight


def hist2d_add(hist: Histogram2D, x: float, y: float, weight: float = 1.0) -> None:
    if weight < 0:
        raise ValueError("negative weight")
    if (x < hist.x_edges[0] or x >= hist.x_edges[-1]
            or y < hist.y_edges[0] or y >= hist.y_edges[-1]):
        hist.outside += weight
        return
    i = bisect_right(hist.x_edges, x) - 1
    j = bisect_right(hist.y_edges, y) - 1
    hist.cells[i][j] += weight


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
        _add(table.totals, job_period(job, period),
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
            hist_add(hist, job.cores, job_weight(job, weight, resources))
        except (NoFactorForDate, KeyError):
            hist.absent += 1.0
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


# ---------------------------------------------------------------------------
# memory, Lustre and concurrency

def present(summaries: Mapping[str, JobPerfSummary]) -> dict[str, JobPerfSummary]:
    """The summaries with every NaN field set to None."""
    def cleaned(summary: JobPerfSummary) -> JobPerfSummary:
        nan = {f.name: None for f in dataclasses.fields(summary)
               if isinstance(getattr(summary, f.name), float)
               and math.isnan(getattr(summary, f.name))}
        return dataclasses.replace(summary, **nan) if nan else summary
    return {job_id: cleaned(summary) for job_id, summary in summaries.items()}


def mem_fraction(job: JobRecord, summary: JobPerfSummary, spec: ResourceSpec,
                 peak: bool = False) -> float | None:
    """Fraction of the available node memory the job used (avg or peak).

    Per-core usage is scaled by the node's core count, which reproduces the
    per-node usage regardless of how many cores the job occupied.
    """
    per_core = summary.mem_max_per_core if peak else summary.mem_avg_per_core
    if per_core is None:
        return None
    available = node_mem_available(spec, job.queue)
    if available is None or available <= 0:
        return None
    return per_core * spec.cores_per_node / available


def total_peak_mem(summary: JobPerfSummary, spec: ResourceSpec,
                   nodes: int) -> float | None:
    """Peak memory of the whole job in bytes."""
    if summary.mem_max_per_core is None:
        return None
    return summary.mem_max_per_core * spec.cores_per_node * nodes


def memory_histograms(jobs: Sequence[JobRecord],
                      summaries: Mapping[str, JobPerfSummary],
                      resources: Mapping[str, ResourceSpec],
                      mode: str = "per_core_avg",
                      weight: str = "core_hours",
                      edges: Sequence[float] | None = None) -> Histogram1D:
    if mode not in ("per_core_avg", "per_core_max"):
        raise ValueError(f"unknown mode {mode!r}")
    summaries = present(summaries)
    hist = Histogram1D(edges=tuple(edges) if edges else default_memory_edges(),
                       weight_kind=weight)
    for job in jobs:
        try:
            w = job_weight(job, weight, resources)
        except (NoFactorForDate, KeyError):
            w = 0.0
        summary = summaries.get(job.job_id)
        value = None
        if summary is not None:
            value = (summary.mem_avg_per_core if mode == "per_core_avg"
                     else summary.mem_max_per_core)
        if value is None:
            hist.absent += w
        else:
            hist_add(hist, value, w)
    return hist


def memory_2d(jobs: Sequence[JobRecord],
              summaries: Mapping[str, JobPerfSummary],
              resources: Mapping[str, ResourceSpec],
              x: str = "cpu_user_fraction",
              y: str = "fraction_mem_used",
              weight: str = "core_hours",
              x_edges: Sequence[float] | None = None,
              y_edges: Sequence[float] | None = None) -> Histogram2D:
    summaries = present(summaries)
    if x_edges is None:
        x_edges = default_job_size_edges() if x == "nodes" else fraction_edges()
    if y_edges is None:
        y_edges = (log_edges(8, 15) if y == "total_peak_mem" else fraction_edges())
    hist = Histogram2D(x_edges=tuple(x_edges), y_edges=tuple(y_edges),
                       weight_kind=weight)
    for job in jobs:
        try:
            w = job_weight(job, weight, resources)
        except (NoFactorForDate, KeyError):
            w = 0.0
        summary = summaries.get(job.job_id)
        spec = resources.get(job.resource)
        xv = yv = None
        if summary is not None and spec is not None:
            if x == "fraction_cores_of_system":
                xv = job.cores / spec.total_cores
            elif x == "cpu_user_fraction":
                xv = summary.cpu_user_fraction
            else:
                xv = float(job.nodes)
            if y == "fraction_mem_used":
                yv = mem_fraction(job, summary, spec)
            else:
                yv = total_peak_mem(summary, spec, job.nodes)
        if xv is None or yv is None:
            hist.absent += w
        else:
            hist2d_add(hist, xv, yv, w)
    return hist


def large_memory_breakdown(jobs: Sequence[JobRecord],
                           summaries: Mapping[str, JobPerfSummary],
                           resources: Mapping[str, ResourceSpec],
                           normal_threshold: float = 0.8,
                           large_threshold: float = 0.1) -> LargeMemoryBreakdown:
    summaries = present(summaries)
    out = LargeMemoryBreakdown(normal_threshold=normal_threshold,
                               large_threshold=large_threshold)
    for job in jobs:
        spec = resources.get(job.resource)
        if spec is None:
            continue
        try:
            su = job_xd_su(job, resources)
        except NoFactorForDate:
            continue
        summary = summaries.get(job.job_id)
        fraction = (mem_fraction(job, summary, spec, peak=True)
                    if summary is not None else None)
        if fraction is None:
            out.absent_xd_su += su
            continue
        on_large_queue = job.queue in spec.large_memory_queues
        series = None
        if on_large_queue and fraction > large_threshold:
            series = "large"
        elif not on_large_queue and fraction > normal_threshold:
            series = "normal"
        if series is not None:
            _add(out.by_parent_science, series, job.parent_science, su)
            _add(out.by_app, series, summary.app_label, su)
    return out


def _lustre_values(job: JobRecord, summary: JobPerfSummary,
                   normalize: str) -> dict[str, float | None]:
    duration = max(job.wall_seconds, 1)
    node_hours = max(job.node_hours, 1e-12)
    opens = summary.file_opens
    rx = summary.lustre_rx
    tx = summary.lustre_tx
    read_rate = None if rx is None else rx / duration
    write_rate = None if tx is None else tx / duration
    if normalize == "per_node_hour":
        opens = None if opens is None else opens / node_hours
        rx = None if rx is None else rx / node_hours
        tx = None if tx is None else tx / node_hours
        read_rate = None if read_rate is None else read_rate / job.nodes
        write_rate = None if write_rate is None else write_rate / job.nodes
    elif normalize != "per_job":
        raise ValueError(f"unknown normalization {normalize!r}")
    return {"file_opens": opens, "bytes_read": rx, "bytes_written": tx,
            "read_rate": read_rate, "write_rate": write_rate}


def lustre_stats(jobs: Sequence[JobRecord],
                 summaries: Mapping[str, JobPerfSummary],
                 normalize: str = "per_job",
                 edges: Mapping[str, Sequence[float]] | None = None) -> LustreStats:
    summaries = present(summaries)
    stats = LustreStats(normalize=normalize)
    for metric in METRICS:
        metric_edges = tuple((edges or {}).get(metric, DEFAULT_EDGES[metric]))
        stats.unweighted[metric] = Histogram1D(edges=metric_edges, weight_kind="jobs")
        stats.node_hour_weighted[metric] = Histogram1D(edges=metric_edges,
                                                       weight_kind="node_hours")
    daily: dict[date, list[float]] = {}
    for job in jobs:
        summary = summaries.get(job.job_id)
        values = (_lustre_values(job, summary, normalize) if summary is not None
                  else {metric: None for metric in METRICS})
        for metric in METRICS:
            value = values[metric]
            if value is None:
                stats.unweighted[metric].absent += 1.0
                stats.node_hour_weighted[metric].absent += job.node_hours
            else:
                hist_add(stats.unweighted[metric], value, 1.0)
                hist_add(stats.node_hour_weighted[metric], value, job.node_hours)
        if summary is not None and (summary.lustre_rx is not None
                                    or summary.lustre_tx is not None):
            _apportion_daily(daily, job, summary.lustre_rx or 0.0,
                             summary.lustre_tx or 0.0)
    stats.daily = [(day, acc[0], acc[1]) for day, acc in sorted(daily.items())]
    return stats


def _apportion_daily(daily: dict[date, list[float]], job: JobRecord,
                     rx: float, tx: float) -> None:
    """Spread a job's bytes uniformly over its run window per UTC day."""
    duration = job.wall_seconds
    if duration <= 0:
        day = utc_date(job.end_time)
        acc = daily.setdefault(day, [0.0, 0.0])
        acc[0] += rx
        acc[1] += tx
        return
    cursor = job.start_time
    while cursor < job.end_time:
        day = utc_date(cursor)
        next_midnight = int((day + timedelta(days=1) - date(1970, 1, 1)).total_seconds())
        segment_end = min(job.end_time, next_midnight)
        share = (segment_end - cursor) / duration
        acc = daily.setdefault(day, [0.0, 0.0])
        acc[0] += rx * share
        acc[1] += tx * share
        cursor = segment_end


def concurrency_histograms(jobs: Sequence[JobRecord],
                           summaries: Mapping[str, JobPerfSummary],
                           resources: Mapping[str, ResourceSpec],
                           bands: Sequence[int] = (32, 68),
                           period: str = "quarter") -> ConcurrencyResult:
    summaries = present(summaries)
    result = ConcurrencyResult()
    for label in band_labels(bands):
        result.process_bands_xd_su[label] = 0.0
    for job in jobs:
        spec = resources.get(job.resource)
        if spec is None:
            continue
        summary = summaries.get(job.job_id)
        median_threads = summary.runnable_threads_median if summary else None

        bucket = thread_bucket(median_threads, spec.cores_per_node)
        _add(result.runnable_node_hours, job.resource, bucket, job.node_hours)

        try:
            su = job_xd_su(job, resources)
        except NoFactorForDate:
            continue
        launch = summary.launch_type.value if summary else LaunchType.UNKNOWN.value
        _add(result.launch_type_xd_su, period_key(job.end_date, period), launch, su)

        result.process_bands_xd_su[process_band(median_threads, bands)] += su
    return result


# --- gateways ------------------------------------------------------------------

def _gateway_add(usage: GatewayUsage, gateway: str, period: str, su_local: float,
                 su_xd: float | None) -> None:
    entry = usage.per_gateway.setdefault(
        gateway, {"job_count": 0.0, "local_su": 0.0, "xd_su": 0.0})
    entry["job_count"] += 1
    entry["local_su"] += su_local
    if su_xd is not None:
        entry["xd_su"] += su_xd
    p = usage.series.setdefault(period, {}).setdefault(
        gateway, {"job_count": 0.0, "local_su": 0.0, "xd_su": 0.0})
    p["job_count"] += 1
    p["local_su"] += su_local
    if su_xd is not None:
        p["xd_su"] += su_xd


def _associated_charges(jobs: Sequence[JobRecord],
                        community_users: Mapping[str, str]) -> dict[str, set[str]]:
    """Charge numbers each gateway's community users ever charged."""
    charges: dict[str, set[str]] = {}
    for job in jobs:
        gateway = community_users.get(job.user)
        if gateway is not None:
            charges.setdefault(job.charge_number, set()).add(gateway)
    return charges


def gateway_usage(jobs: Sequence[JobRecord],
                  allocations: Sequence[AllocationRecord],
                  community_users: Mapping[str, str],
                  resources: Mapping[str, ResourceSpec],
                  mode: str = "community_user",
                  period: str = "quarter") -> GatewayUsage:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    usage = GatewayUsage(mode=mode)
    charge_map = (_associated_charges(jobs, community_users)
                  if mode in ("associated_allocation", "gateway_tagged") else {})
    tagged = {a.charge_number for a in allocations if a.is_gateway_tagged}
    for job in jobs:
        gateways: list[str] = []
        if mode == "community_user":
            gateway = community_users.get(job.user)
            if gateway is not None:
                gateways = [gateway]
            elif job.gateway_user is not None:
                usage.unknown_gateway_jobs.append(job.job_id)
        elif mode == "associated_allocation":
            gateways = sorted(charge_map.get(job.charge_number, ()))
        else:  # gateway_tagged
            if job.charge_number in tagged:
                gateways = sorted(charge_map.get(job.charge_number, ())) or [UNTAGGED_GATEWAY]
        if not gateways:
            continue
        try:
            su_xd = job_xd_su(job, resources)
        except (NoFactorForDate, KeyError):
            su_xd = None
            usage.excluded_no_factor += 1
        for gateway in gateways:
            _gateway_add(usage, gateway, period_key(job.end_date, period),
                         job.local_su_charged, su_xd)
    return usage


def gateway_census(jobs: Sequence[JobRecord],
                   community_users: Mapping[str, str],
                   period: str = "quarter",
                   reliability_date: date = DEFAULT_RELIABILITY_DATE) -> list[CensusRow]:
    hpc_jobs: dict[str, set[str]] = {}
    gw_jobs: dict[str, set[tuple[str, str]]] = {}
    first_hpc: dict[str, str] = {}
    first_gw: dict[tuple[str, str], str] = {}
    for job in jobs:
        label = period_key(job.end_date, period)
        if job.gateway_user is not None:
            gateway = community_users.get(job.user, job.user)
            key = (gateway, job.gateway_user)
            gw_jobs.setdefault(label, set()).add(key)
            if key not in first_gw or label < first_gw[key]:
                first_gw[key] = label
        elif job.user not in community_users:
            hpc_jobs.setdefault(label, set()).add(job.user)
            if job.user not in first_hpc or label < first_hpc[job.user]:
                first_hpc[job.user] = label
    rows = []
    for label in sorted(set(hpc_jobs) | set(gw_jobs)):
        active_hpc = hpc_jobs.get(label, set())
        active_gw = gw_jobs.get(label, set())
        rows.append(CensusRow(
            period=label,
            active_hpc_users=len(active_hpc),
            new_hpc_users=sum(1 for u in active_hpc if first_hpc[u] == label),
            active_gateway_users=len(active_gw),
            new_gateway_users=sum(1 for k in active_gw if first_gw[k] == label),
            combined_active=len(active_hpc) + len(active_gw),
            gateway_counts_lower_bound=_period_start(label) < reliability_date,
        ))
    return rows


def gateway_conversion(jobs: Sequence[JobRecord],
                       community_users: Mapping[str, str],
                       user_email: Mapping[str, str],
                       min_xsede_jobs: int = 10) -> list[ConversionRow]:
    gw_first: dict[tuple[str, str], int] = {}
    gw_count: dict[tuple[str, str], int] = {}
    personal_first: dict[str, int] = {}
    personal_count: dict[str, int] = {}
    for job in jobs:
        if job.gateway_user is not None:
            gateway = community_users.get(job.user, job.user)
            key = (gateway, job.gateway_user)
            gw_count[key] = gw_count.get(key, 0) + 1
            if key not in gw_first or job.submit_time < gw_first[key]:
                gw_first[key] = job.submit_time
        elif job.user in user_email:
            email = user_email[job.user]
            personal_count[email] = personal_count.get(email, 0) + 1
            if email not in personal_first or job.submit_time < personal_first[email]:
                personal_first[email] = job.submit_time
    rows = []
    for (gateway, email), first_gw in sorted(gw_first.items()):
        if email not in personal_first:
            continue
        if first_gw >= personal_first[email]:
            continue
        if personal_count[email] <= min_xsede_jobs:
            continue
        rows.append(ConversionRow(
            gateway=gateway,
            user_key=email,
            gw_job_count=gw_count[(gateway, email)],
            first_gw_job=utc_date(first_gw),
            xsede_job_count=personal_count[email],
            first_xsede_job=utc_date(personal_first[email]),
        ))
    return rows


# --- waits and queue depth ---------------------------------------------------------

def wait_stats(jobs: Sequence[JobRecord],
               group_by_resource: bool = True) -> dict[str, WaitStats]:
    groups: dict[str, list[JobRecord]] = {}
    for job in jobs:
        groups.setdefault(job.resource if group_by_resource else "all", []).append(job)
    if not groups:
        raise EmptyGroup("no jobs")
    out: dict[str, WaitStats] = {}
    for name in sorted(groups):
        members = groups[name]
        waits = sorted(job.wait_seconds / 3600.0 for job in members)
        mean = total(waits) / len(waits)
        weights = [job.core_hours for job in members]
        total_weight = total(weights)
        weighted = (total(w * (job.wait_seconds / 3600.0)
                          for w, job in zip(weights, members)) / total_weight
                    if total_weight > 0 else mean)
        out[name] = WaitStats(
            group=name,
            n_jobs=len(members),
            q1_hours=quantile(waits, 0.25),
            median_hours=quantile(waits, 0.5),
            q3_hours=quantile(waits, 0.75),
            mean_hours=mean,
            core_hour_weighted_mean_hours=weighted,
        )
    return out


def user_queue_depth(jobs: Sequence[JobRecord],
                     community_users: Mapping[str, str] | None = None) -> list[UserDepth]:
    community = community_users or {}
    per_user: dict[str, list[JobRecord]] = {}
    for job in jobs:
        per_user.setdefault(job.user, []).append(job)
    rows = []
    for user in sorted(per_user):
        members = per_user[user]
        deltas: dict[int, int] = {}
        for job in members:
            deltas[job.submit_time] = deltas.get(job.submit_time, 0) + 1
            deltas[job.end_time] = deltas.get(job.end_time, 0) - 1
        depth = 0
        max_depth = 0
        for t in sorted(deltas):
            depth += deltas[t]
            max_depth = max(max_depth, depth)
        rows.append(UserDepth(
            user=user,
            category="community" if user in community else "regular",
            max_depth=max_depth,
            job_count=len(members),
        ))
    return rows


# --- exit codes, node failures and the periodogram's events ------------------------

def exit_code_table(jobs: Sequence[JobRecord],
                    group_by_resource: bool = True) -> dict[str, dict[str, int]]:
    groups: dict[str, dict[str, int]] = {}
    empty = {status.value: 0 for status in ExitStatus}
    for job in jobs:
        name = job.resource if group_by_resource else "all"
        bucket = groups.setdefault(name, dict(empty))
        bucket[job.exit_status.value] += 1
    for bucket in groups.values():
        bucket["total"] = sum(bucket[s.value] for s in ExitStatus)
    return groups


def model_covariate(jobs: Sequence[JobRecord], model: str) -> tuple[np.ndarray, int]:
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


def periodogram(jobs: Sequence[JobRecord], params: Mapping) -> list:
    """The report's periodogram entries over the kept jobs' records."""
    resource = params.get("resource")
    if resource:
        jobs = [j for j in jobs if j.resource == resource]
    submits = [j.submit_time for j in jobs]
    centers, counts = statmodels.bin_counts(submits, params.get("bin_seconds", 3600))
    grid = statmodels.default_frequency_grid(
        centers, min_period_days=params.get("min_period_days", 2.0 / 24.0))
    pgram = statmodels.lomb_scargle(centers, counts, grid)
    rows = [(f, 1.0 / f, p) for f, p in
            zip(pgram.frequencies_per_day, pgram.power)]
    return [(f"periodogram_{resource or 'all'}.csv",
             ["frequency_per_day", "period_days", "power"], rows)]


def validate(dataset: Dataset) -> list[QualityFlag]:
    """``ingest.validate`` as a loop over the job records."""
    flags: list[QualityFlag] = []
    for job in dataset.jobs.records():
        spec = dataset.resources[job.resource]
        start_day = utc_date(job.start_time)
        if start_day < spec.production_start or start_day > spec.production_end:
            flags.append(QualityFlag("job", job.job_id, "production_window",
                                     f"{start_day} outside {spec.production_start}..{spec.production_end}"))
        if job.cores > spec.total_cores:
            flags.append(QualityFlag("job", job.job_id, "geometry",
                                     f"{job.cores} cores > {spec.total_cores} available"))
        if (spec.rtype is ResourceType.CLOUD
                and job.wall_seconds > AGGREGATED_ACCOUNTING_SECONDS):
            flags.append(QualityFlag("job", job.job_id, "aggregated_accounting",
                                     f"{job.wall_seconds}s duration on cloud resource"))
    return flags
