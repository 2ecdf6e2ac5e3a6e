"""Project depth and width: capability demand versus community breadth.

A project's depth is the largest core (or node) count of any of its jobs;
its usage is total core-hours.  The joint ratio is the crossing point where
the cumulative share of projects at or below a depth plus the cumulative
share of usage at or below that depth first reaches one: the deep x% of
usage is consumed by the (100-x)% of projects above that depth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import EmptyProfile
from ..ingest import JobRecord, utc_date
from ..stats import total


@dataclass(frozen=True)
class ProjectDepth:
    project_id: str
    depth: int
    usage_core_hours: float
    job_count: int


@dataclass(frozen=True)
class DepthProfile:
    by: str  # cores | nodes
    window_year: int | None
    projects: tuple[ProjectDepth, ...]


@dataclass(frozen=True)
class JointRatioResult:
    ratio_deep_usage_pct: int
    ratio_deep_projects_pct: int
    depth_at_ratio: int
    projects_at_ratio: int
    usage_at_ratio: float
    jobs_at_ratio: int

    @property
    def ratio_label(self) -> str:
        return f"{self.ratio_deep_usage_pct}:{self.ratio_deep_projects_pct}"


@dataclass(frozen=True)
class WidthCurves:
    depths: tuple[int, ...]
    project_fraction: tuple[float, ...]
    job_fraction: tuple[float, ...]
    usage_fraction: tuple[float, ...]


def depth_profile(jobs: Sequence[JobRecord], by: str = "cores",
                  window_year: int | None = None) -> DepthProfile:
    """Per-project depth, usage and job count, optionally for one calendar
    year (jobs assigned to years by end time, UTC)."""
    if by not in ("cores", "nodes"):
        raise ValueError("by must be cores or nodes")
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


def _round_half_up(value: float) -> int:
    import math
    return int(math.floor(value + 0.5))


def joint_ratio(profile: DepthProfile) -> JointRatioResult:
    """Find the smallest observed depth where cumulative project fraction
    plus cumulative usage fraction reaches one; no interpolation."""
    projects = profile.projects
    if not projects:
        raise EmptyProfile("no projects")
    total_usage = total(p.usage_core_hours for p in projects)
    if total_usage <= 0:
        raise EmptyProfile("no usage")
    n = len(projects)
    ordered = sorted(projects, key=lambda p: p.depth)
    # cumulative fractions at each distinct depth
    cum_projects = 0
    cum_usage = 0.0
    i = 0
    crossing = None
    while i < len(ordered):
        depth = ordered[i].depth
        while i < len(ordered) and ordered[i].depth == depth:
            cum_projects += 1
            cum_usage += ordered[i].usage_core_hours
            i += 1
        f_p = cum_projects / n
        f_u = cum_usage / total_usage
        if f_p + f_u >= 1.0:
            crossing = (depth, f_u)
            break
    assert crossing is not None  # f_p + f_u reaches 2 at the max depth
    depth_star, f_u_star = crossing
    deep_usage_pct = _round_half_up(100.0 * (1.0 - f_u_star))
    deep = [p for p in projects if p.depth > depth_star]
    return JointRatioResult(
        ratio_deep_usage_pct=deep_usage_pct,
        ratio_deep_projects_pct=100 - deep_usage_pct,
        depth_at_ratio=depth_star,
        projects_at_ratio=len(deep),
        usage_at_ratio=total(p.usage_core_hours for p in deep),
        jobs_at_ratio=sum(p.job_count for p in deep),
    )


def width_curves(profile: DepthProfile) -> WidthCurves:
    """Cumulative distributions of projects over depth: unweighted,
    job-weighted and usage-weighted, evaluated at observed depths."""
    projects = profile.projects
    if not projects:
        raise EmptyProfile("no projects")
    n = len(projects)
    total_jobs = sum(p.job_count for p in projects)
    total_usage = total(p.usage_core_hours for p in projects)
    ordered = sorted(projects, key=lambda p: p.depth)
    depths: list[int] = []
    proj_frac: list[float] = []
    job_frac: list[float] = []
    usage_frac: list[float] = []
    cum_p = 0
    cum_j = 0
    cum_u = 0.0
    i = 0
    while i < len(ordered):
        depth = ordered[i].depth
        while i < len(ordered) and ordered[i].depth == depth:
            cum_p += 1
            cum_j += ordered[i].job_count
            cum_u += ordered[i].usage_core_hours
            i += 1
        depths.append(depth)
        proj_frac.append(cum_p / n)
        job_frac.append(cum_j / total_jobs if total_jobs else 0.0)
        usage_frac.append(cum_u / total_usage if total_usage else 0.0)
    return WidthCurves(depths=tuple(depths),
                       project_fraction=tuple(proj_frac),
                       job_fraction=tuple(job_frac),
                       usage_fraction=tuple(usage_frac))
