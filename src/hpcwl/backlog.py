"""Queue replay: backlog, wait statistics and capacity sizing.

The replay is an accounting identity over the observed trace, not a
scheduler simulation.  A job is queued during [submit, start) and running
during [start, end); series are piecewise constant between events.  Queued
work is measured in core-years of the job's eventual wall time (known post
hoc in a trace).  Internally core-seconds are accumulated as integers so a
brute-force oracle reproduces every point exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Mapping, Sequence

from .errors import EmptyGroup
from .ingest import JobRecord, ResourceSpec, utc_date

SECONDS_PER_CORE_YEAR = 3600.0 * 24.0 * 365.0


@dataclass(frozen=True, slots=True)
class BacklogPoint:
    time: int
    queued_core_seconds: int
    running_nodes: int
    queued_nodes: int

    @property
    def queued_core_years(self) -> float:
        return self.queued_core_seconds / SECONDS_PER_CORE_YEAR

    @property
    def required_nodes(self) -> int:
        return self.running_nodes + self.queued_nodes


@dataclass
class BacklogSeries:
    resource: str
    sampling: str
    points: list[BacklogPoint] = field(default_factory=list)
    # event times where running nodes exceeded the machine size
    infeasible_times: list[int] = field(default_factory=list)


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
    """Replay one resource's trace into a queued-work series.

    sampling="event" emits a point at every distinct event timestamp;
    "daily" emits points at UTC midnights spanning the trace.  When a
    ResourceSpec is given, instants where running nodes exceed the machine
    are recorded as infeasible rather than hidden.
    """
    if sampling not in ("event", "daily"):
        raise ValueError(f"unknown sampling {sampling!r}")
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


def required_nodes_at_submit(jobs: Sequence[JobRecord]) -> dict[str, int]:
    """R_j: running + queued nodes at each job's submit instant, the
    submitting job included."""
    if not jobs:
        return {}
    deltas = _state_deltas(jobs)
    submits: dict[int, list[str]] = {}
    for job in jobs:
        submits.setdefault(job.submit_time, []).append(job.job_id)
    required: dict[str, int] = {}
    queued_nodes = 0
    running_nodes = 0
    for t in sorted(deltas):
        dq, _, dr = deltas[t]
        queued_nodes += dq
        running_nodes += dr
        for job_id in submits.get(t, ()):
            required[job_id] = running_nodes + queued_nodes
    return required


def _quantile_index(n: int, target: float) -> int:
    """0-based index of the inverse-CDF quantile over n ordered samples."""
    return max(1, math.ceil(target * n)) - 1


@dataclass(frozen=True)
class CapacityEstimate:
    resource: str
    target: float
    nodes_required: int
    cores_required: int | None
    actual_nodes: int | None

    @property
    def ratio_to_actual(self) -> float | None:
        if not self.actual_nodes:
            return None
        return self.nodes_required / self.actual_nodes


def capacity_for_percentile(jobs: Sequence[JobRecord], resource: str,
                            target: float = 0.95,
                            spec: ResourceSpec | None = None,
                            time_weighted: bool = False) -> CapacityEstimate:
    """Nodes needed so the target fraction of jobs could start at submit.

    The default is the job-weighted inverse-CDF quantile of R_j over submit
    instants; time_weighted switches to the duration-weighted quantile of
    the required-nodes series, for comparison.
    """
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    pool = [job for job in jobs if job.resource == resource]
    if not pool:
        raise EmptyGroup(resource)
    if time_weighted:
        nodes_required = _time_weighted_quantile(pool, target)
    else:
        values = sorted(required_nodes_at_submit(pool).values())
        nodes_required = values[_quantile_index(len(values), target)]
    return CapacityEstimate(
        resource=resource,
        target=target,
        nodes_required=nodes_required,
        cores_required=(nodes_required * spec.cores_per_node if spec else None),
        actual_nodes=spec.nodes if spec else None,
    )


def _time_weighted_quantile(jobs: Sequence[JobRecord], target: float) -> int:
    series = backlog_series(jobs, sampling="event").points
    if len(series) == 1:
        return series[0].required_nodes
    spans: list[tuple[int, int]] = []  # (required_nodes, duration)
    for cur, nxt in zip(series, series[1:]):
        spans.append((cur.required_nodes, nxt.time - cur.time))
    spans.sort()
    total = sum(duration for _, duration in spans)
    if total <= 0:
        return max(point.required_nodes for point in series)
    acc = 0
    for value, duration in spans:
        acc += duration
        if acc >= target * total:
            return value
    return spans[-1][0]


@dataclass(frozen=True)
class WaitStats:
    group: str
    n_jobs: int
    q1_hours: float
    median_hours: float
    q3_hours: float
    mean_hours: float
    core_hour_weighted_mean_hours: float


def _quantile_sorted(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile over an already sorted sequence."""
    if not ordered:
        raise ValueError("quantile of empty sequence")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def wait_stats(jobs: Sequence[JobRecord],
               group_by_resource: bool = True) -> dict[str, WaitStats]:
    """Quartiles, mean and core-hour-weighted mean of start - submit."""
    groups: dict[str, list[JobRecord]] = {}
    for job in jobs:
        groups.setdefault(job.resource if group_by_resource else "all", []).append(job)
    if not groups:
        raise EmptyGroup("no jobs")
    out: dict[str, WaitStats] = {}
    for name in sorted(groups):
        members = groups[name]
        waits = sorted(job.wait_seconds / 3600.0 for job in members)
        weights = [job.core_hours for job in members]
        total_weight = sum(weights)
        weighted = (sum(w * (job.wait_seconds / 3600.0)
                        for w, job in zip(weights, members)) / total_weight
                    if total_weight > 0 else sum(waits) / len(waits))
        out[name] = WaitStats(
            group=name,
            n_jobs=len(members),
            q1_hours=_quantile_sorted(waits, 0.25),
            median_hours=_quantile_sorted(waits, 0.5),
            q3_hours=_quantile_sorted(waits, 0.75),
            mean_hours=sum(waits) / len(waits),
            core_hour_weighted_mean_hours=weighted,
        )
    return out


@dataclass(frozen=True)
class UserDepth:
    user: str
    category: str  # regular | community
    max_depth: int
    job_count: int


def user_queue_depth(jobs: Sequence[JobRecord],
                     community_users: Mapping[str, str] | None = None) -> list[UserDepth]:
    """Per user: the most jobs simultaneously queued or running, and total
    job count.  Community accounts are labeled separately from regular
    users."""
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
