"""Record-at-a-time rollups, depth profile, queue replay and the memory,
Lustre and concurrency analyses: the reference for the columnar kernels in
``hpcwl.metrics.rollups``, ``hpcwl.metrics.depth``, ``hpcwl.backlog``,
``hpcwl.metrics.memory``, ``hpcwl.metrics.lustre`` and
``hpcwl.metrics.concurrency``.

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

from hpcwl.backlog import BacklogPoint, BacklogSeries
from hpcwl.errors import EmptyGroup, NoFactorForDate
from hpcwl.ingest import JobRecord, ResourceSpec, job_xd_su, utc_date
from hpcwl.metrics import (
    Filters,
    ProjectDepth,
    RollupTable,
    SingleNodeShare,
    ConcurrencyResult,
    Histogram2D,
    LargeMemoryBreakdown,
    LustreStats,
    effective_cores,
    period_key,
)
from hpcwl.metrics.concurrency import band_labels, process_band, thread_bucket
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
from hpcwl.stats import total


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
