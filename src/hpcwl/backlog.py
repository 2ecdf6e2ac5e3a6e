"""Queue replay: backlog, wait statistics and capacity sizing.

The replay is an accounting identity over the observed trace, not a
scheduler simulation.  A job is queued during [submit, start) and running
during [start, end); series are piecewise constant between events.  Queued
work is measured in core-years of the job's eventual wall time (known post
hoc in a trace).  Internally core-seconds are accumulated as integers so a
brute-force oracle reproduces every point exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyGroup
from .jobtable import SECONDS_PER_DAY, JobTable, distinct, one_group
from .stats import inverse_cdf, quantile, total

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


class _Sorted:
    """One time column in stable time order, sorted once for any number of
    totals over its rows."""

    __slots__ = ("order", "times")

    def __init__(self, times: np.ndarray):
        self.order = np.argsort(times, kind="stable")
        self.times = times[self.order]

    def through(self, amounts: np.ndarray, instants: np.ndarray) -> np.ndarray:
        """Total of the amounts, one per row, whose time is at or before
        each instant."""
        running = np.concatenate(([0], np.cumsum(amounts[self.order])))
        return running[np.searchsorted(self.times, instants, side="right")]


def _of_resource(table: JobTable, resource: str | None) -> JobTable:
    return table if resource is None else table.take(table.resource.isin((resource,)))


def backlog_series(table: JobTable, resource: str | None = None,
                   sampling: str = "event") -> BacklogSeries:
    """Replay one resource's trace into a queued-work series.

    sampling="event" emits a point at every distinct event timestamp;
    "daily" emits points at UTC midnights spanning the trace.  A point is
    the state after every event at or before its instant.  When the
    resource is named and the table's resource map describes it, instants
    where running nodes exceed the machine are recorded as infeasible
    rather than hidden.
    """
    if sampling not in ("event", "daily"):
        raise ValueError(f"unknown sampling {sampling!r}")
    spec = table.resources.get(resource)
    table = _of_resource(table, resource)
    series = BacklogSeries(resource=resource or "all", sampling=sampling)
    if not len(table):
        return series
    submit, start, end = map(_Sorted, (table.submit, table.start, table.end))
    event_times = distinct(np.concatenate((submit.times, start.times, end.times)))
    if sampling == "daily":
        first = -(-event_times[0] // SECONDS_PER_DAY) * SECONDS_PER_DAY
        samples = np.arange(first, event_times[-1] + 1, SECONDS_PER_DAY)
    else:
        samples = event_times
    nodes, core_seconds = table.nodes, table.cores * (table.end - table.start)
    started = start.through(nodes, samples)
    running = started - end.through(nodes, samples)
    queued = submit.through(nodes, samples) - started
    queued_cs = submit.through(core_seconds, samples) - start.through(core_seconds, samples)
    series.points = list(map(BacklogPoint, samples.tolist(), queued_cs.tolist(),
                             running.tolist(), queued.tolist()))
    if spec is not None:
        if sampling == "daily":
            running = start.through(nodes, event_times) - end.through(nodes, event_times)
        series.infeasible_times = event_times[running > spec.nodes].tolist()
    return series


def required_nodes_at_submit(table: JobTable) -> list[int]:
    """R_j for each job, in job order: running + queued nodes at its submit
    instant, every job submitted at that instant included.  That is the
    nodes submitted at or before the instant less those ended by then."""
    return (_Sorted(table.submit).through(table.nodes, table.submit)
            - _Sorted(table.end).through(table.nodes, table.submit)).tolist()


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


def capacity_estimates(table: JobTable, resource: str,
                       targets: Sequence[float] = (0.95,),
                       time_weighted: bool = False) -> list[CapacityEstimate]:
    """``capacity_for_percentile`` for each target, with R_j (or the
    required-nodes series) computed once."""
    for target in targets:
        if not 0 < target < 1:
            raise ValueError("target must be in (0, 1)")
    spec, pool = table.resources.get(resource), _of_resource(table, resource)
    if not len(pool):
        raise EmptyGroup(resource)
    if time_weighted:
        points = backlog_series(pool, sampling="event").points
        # (required nodes, how long they were required) between events
        spans = (sorted((cur.required_nodes, nxt.time - cur.time)
                        for cur, nxt in zip(points, points[1:]))
                 or [(points[0].required_nodes, 1)])
        values, durations = zip(*spans)
    else:
        values, durations = sorted(required_nodes_at_submit(pool)), None
    out = []
    for target in targets:
        nodes_required = inverse_cdf(values, target, durations)
        out.append(CapacityEstimate(
            resource=resource,
            target=target,
            nodes_required=nodes_required,
            cores_required=(nodes_required * spec.cores_per_node if spec else None),
            actual_nodes=spec.nodes if spec else None,
        ))
    return out


def capacity_for_percentile(table: JobTable, resource: str,
                            target: float = 0.95,
                            time_weighted: bool = False) -> CapacityEstimate:
    """Nodes needed so the target fraction of jobs could start at submit.

    The default is the type 1 (inverse-CDF) quantile of R_j over the jobs'
    submit instants, one value per job; time_weighted switches to the
    duration-weighted type 1 quantile of the required-nodes series, for
    comparison.  Cores required and actual nodes are None where the
    table's resource map does not describe the resource.
    """
    return capacity_estimates(table, resource, (target,), time_weighted)[0]


@dataclass(frozen=True)
class WaitStats:
    group: str
    n_jobs: int
    q1_hours: float
    median_hours: float
    q3_hours: float
    mean_hours: float
    core_hour_weighted_mean_hours: float


def wait_stats(table: JobTable, group_by_resource: bool = True) -> dict[str, WaitStats]:
    """Quartiles, mean and core-hour-weighted mean of start - submit.  The
    mean adds each group's waits in ascending order, the weighted mean its
    jobs in job order."""
    if not len(table):
        raise EmptyGroup("no jobs")
    groups = table.resource if group_by_resource else one_group(len(table))
    waits = (table.start - table.submit) / 3600.0
    weight, weighted = (np.bincount(groups.codes, w, len(groups.names)).tolist()
                        for w in (table.core_hours, table.core_hours * waits))
    n_jobs = np.bincount(groups.codes, minlength=len(groups.names))
    by_group = np.split(waits[np.lexsort((waits, groups.codes))], np.cumsum(n_jobs)[:-1])
    out: dict[str, WaitStats] = {}
    for g, ordered in enumerate(map(np.ndarray.tolist, by_group)):
        if not ordered:
            continue
        mean = total(ordered) / len(ordered)
        out[groups.names[g]] = WaitStats(
            group=groups.names[g],
            n_jobs=len(ordered),
            q1_hours=quantile(ordered, 0.25),
            median_hours=quantile(ordered, 0.5),
            q3_hours=quantile(ordered, 0.75),
            mean_hours=mean,
            core_hour_weighted_mean_hours=weighted[g] / weight[g] if weight[g] > 0 else mean,
        )
    return out


@dataclass(frozen=True)
class UserDepth:
    user: str
    category: str  # regular | community
    max_depth: int
    job_count: int


def user_queue_depth(table: JobTable,
                     community_users: Mapping[str, str] | None = None) -> list[UserDepth]:
    """Per user: the most jobs simultaneously queued or running, and total
    job count.  Community accounts are labeled separately from regular
    users.  A job counts from its submit instant to its end instant; at
    equal instants the ends come first."""
    community = community_users or {}
    if not len(table):
        return []
    step = np.repeat(np.array([1, -1]), len(table))
    order = np.lexsort((step, np.concatenate((table.submit, table.end)),
                        np.tile(table.user.codes, 2)))
    # each user's steps sum to 0, so the running total restarts at 0 for each user
    depth = np.cumsum(step[order])
    job_count = np.bincount(table.user.codes, minlength=len(table.user.names))
    users = np.flatnonzero(job_count)
    max_depth = np.maximum.reduceat(depth, 2 * (np.cumsum(job_count) - job_count)[users])
    return [UserDepth(user=user, category="community" if user in community else "regular",
                      max_depth=peak, job_count=count)
            for user, peak, count in zip(map(table.user.names.__getitem__, users.tolist()),
                                         max_depth.tolist(), job_count[users].tolist())]
