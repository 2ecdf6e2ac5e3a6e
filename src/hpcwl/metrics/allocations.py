"""Allocation utilization statistics.

Percent utilization of a group is the award-weighted mean of each
allocation's percent used, which reduces to 100 * sum(used) / sum(awarded).
Overcharged allocations (used > awarded) pass through and can push a group
above 100%.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import EmptyGroup
from ..ingest import AllocationRecord
from ..stats import inverse_cdf, quantile, total


@dataclass(frozen=True)
class AllocationStats:
    group: str
    n_alloc: int
    n_unused: int
    utilization_pct: float | None
    total: float
    mean: float
    median: float
    variance: float


def _sample_variance(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = total(values) / n
    return total((v - mean) ** 2 for v in values) / (n - 1)


def group_stats(group: str, allocs: Sequence[AllocationRecord]) -> AllocationStats:
    if not allocs:
        raise EmptyGroup(group)
    awarded = [a.awarded_local_su for a in allocs]
    total_awarded = total(awarded)
    total_used = total(a.used_local_su for a in allocs)
    return AllocationStats(
        group=group,
        n_alloc=len(allocs),
        n_unused=sum(1 for a in allocs if a.used_local_su == 0),
        utilization_pct=(100.0 * total_used / total_awarded
                         if total_awarded > 0 else None),
        total=total_awarded,
        mean=total_awarded / len(allocs),
        median=quantile(sorted(awarded), 0.5),
        variance=_sample_variance(awarded),
    )


GROUP_KEYS: dict[str, Callable[[AllocationRecord], str]] = {
    "alloc_type": lambda a: a.alloc_type.value,
    "discipline": lambda a: a.discipline,
    "resource": lambda a: a.resource,
}


def allocation_utilization(allocs: Sequence[AllocationRecord],
                           group_by: str = "all") -> list[AllocationStats]:
    """Utilization stats per group; groups ordered by descending total award.

    group_by is "all", "alloc_type", "discipline" or "resource"; empty groups
    are simply not present.
    """
    if not allocs:
        return []
    if group_by == "all":
        return [group_stats("All", allocs)]
    key = GROUP_KEYS.get(group_by)
    if key is None:
        raise ValueError(f"unknown group_by {group_by!r}")
    groups: dict[str, list[AllocationRecord]] = {}
    for alloc in allocs:
        groups.setdefault(key(alloc), []).append(alloc)
    stats = [group_stats(name, members) for name, members in groups.items()]
    stats.sort(key=lambda s: (-s.total, s.group))
    return stats


def select_size_fraction(allocs: Sequence[AllocationRecord], fraction: float,
                         from_top: bool = True) -> list[AllocationRecord]:
    """Allocations in the top (or bottom) fraction by awarded size.

    Selection is by threshold value: everything tied with the cut-off award
    size is included, so the selected count can exceed fraction * n when
    awards repeat (common for fixed startup award sizes).
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    if not allocs:
        return []
    ordered = sorted(allocs, key=lambda a: a.awarded_local_su, reverse=from_top)
    threshold = inverse_cdf([a.awarded_local_su for a in ordered], fraction)
    if from_top:
        return [a for a in ordered if a.awarded_local_su >= threshold]
    return [a for a in ordered if a.awarded_local_su <= threshold]


def allocation_size_summary(allocs: Sequence[AllocationRecord],
                            top_fractions: Sequence[float] = (0.01, 0.05, 0.25),
                            bottom_fractions: Sequence[float] = (0.25,)) -> list[AllocationStats]:
    """The all/top-k%/bottom-k% summary table by awarded size."""
    if not allocs:
        return []
    out = [group_stats("All", allocs)]
    for frac in top_fractions:
        members = select_size_fraction(allocs, frac, from_top=True)
        out.append(group_stats(f"Top {frac:.0%}", members))
    for frac in bottom_fractions:
        members = select_size_fraction(allocs, frac, from_top=False)
        out.append(group_stats(f"Bottom {frac:.0%}", members))
    return out
