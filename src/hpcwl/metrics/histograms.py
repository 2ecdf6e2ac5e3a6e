"""Weighted 1-D and 2-D histograms with explicit edges and conservation.

Bins are closed-open [lo, hi).  Weight that falls outside the edges is
accumulated in underflow/overflow (1-D) or a single outside bucket (2-D);
records lacking the binned quantity go to an absent bucket.  The grand total
therefore always equals the weight of the input population.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from ..stats import total


def _check_edges(edges: Sequence[float]):
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    for lo, hi in zip(edges, edges[1:]):
        if not lo < hi:
            raise ValueError("bin edges must be strictly increasing")


@dataclass
class Histogram1D:
    edges: tuple[float, ...]
    weight_kind: str = "jobs"
    weights: list[float] = field(default_factory=list)
    underflow: float = 0.0
    overflow: float = 0.0
    absent: float = 0.0

    def __post_init__(self):
        self.edges = tuple(float(e) for e in self.edges)
        _check_edges(self.edges)
        if not self.weights:
            self.weights = [0.0] * (len(self.edges) - 1)

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError("negative weight")
        if value < self.edges[0]:
            self.underflow += weight
        elif value >= self.edges[-1]:
            self.overflow += weight
        else:
            self.weights[bisect_right(self.edges, value) - 1] += weight

    def add_absent(self, weight: float = 1.0) -> None:
        self.absent += weight

    def grand_total(self) -> float:
        return total(self.weights) + self.underflow + self.overflow + self.absent

    def labels(self) -> list[str]:
        return [bin_label(lo, hi) for lo, hi in zip(self.edges, self.edges[1:])]

    def rows(self) -> list[tuple[str, float, float, float]]:
        """(label, lo, hi, weight) per bin, then overflow/underflow/absent."""
        out = [(label, lo, hi, w) for label, lo, hi, w in
               zip(self.labels(), self.edges, self.edges[1:], self.weights)]
        if self.underflow:
            out.insert(0, (f"<{fmt_edge(self.edges[0])}", -math.inf, self.edges[0], self.underflow))
        if self.overflow:
            out.append((f">={fmt_edge(self.edges[-1])}", self.edges[-1], math.inf, self.overflow))
        out.append(("absent", math.nan, math.nan, self.absent))
        return out


@dataclass
class Histogram2D:
    x_edges: tuple[float, ...]
    y_edges: tuple[float, ...]
    weight_kind: str = "jobs"
    cells: list[list[float]] = field(default_factory=list)
    outside: float = 0.0
    absent: float = 0.0

    def __post_init__(self):
        self.x_edges = tuple(float(e) for e in self.x_edges)
        self.y_edges = tuple(float(e) for e in self.y_edges)
        _check_edges(self.x_edges)
        _check_edges(self.y_edges)
        if not self.cells:
            self.cells = [[0.0] * (len(self.y_edges) - 1)
                          for _ in range(len(self.x_edges) - 1)]

    def add(self, x: float, y: float, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError("negative weight")
        if (x < self.x_edges[0] or x >= self.x_edges[-1]
                or y < self.y_edges[0] or y >= self.y_edges[-1]):
            self.outside += weight
            return
        i = bisect_right(self.x_edges, x) - 1
        j = bisect_right(self.y_edges, y) - 1
        self.cells[i][j] += weight

    def add_absent(self, weight: float = 1.0) -> None:
        self.absent += weight

    def grand_total(self) -> float:
        return total(map(total, self.cells)) + self.outside + self.absent


def fmt_edge(edge: float) -> str:
    if edge == int(edge) and abs(edge) < 1e15:
        return str(int(edge))
    return repr(edge)


def bin_label(lo: float, hi: float) -> str:
    """Human label for [lo, hi); integer edges read as inclusive ranges."""
    if math.isinf(hi):
        return f">{fmt_edge(lo - 1)}" if lo == int(lo) else f">={fmt_edge(lo)}"
    if lo == int(lo) and hi == int(hi):
        if hi - lo == 1:
            return fmt_edge(lo)
        return f"{fmt_edge(lo)}-{fmt_edge(hi - 1)}"
    return f"[{fmt_edge(lo)}, {fmt_edge(hi)})"


def default_job_size_edges() -> tuple[float, ...]:
    """Core-count bins: 1, 2-4, 5-8, then power-of-two ranges to >131072."""
    edges = [1.0, 2.0]
    power = 4
    while power <= 131072:
        edges.append(power + 1.0)
        power *= 2
    edges.append(math.inf)
    return tuple(edges)


GIB = float(1 << 30)


def default_memory_edges(max_gib: float = 8.0, step_gib: float = 0.125) -> tuple[float, ...]:
    """Per-core memory bins in bytes, [0, max) in fixed GiB steps plus a tail."""
    n = int(round(max_gib / step_gib))
    edges = [i * step_gib * GIB for i in range(n + 1)]
    edges.append(math.inf)
    return tuple(edges)


def fraction_edges(bins: int = 50) -> tuple[float, ...]:
    """Edges for a [0, 1] fraction axis; the last bin contains exactly 1.0."""
    width = 1.0 / bins
    return tuple(i * width for i in range(bins + 1)) + (1.0 + width,)


def log_edges(lo_exp: int, hi_exp: int, per_decade: int = 2,
              with_zero: bool = True) -> tuple[float, ...]:
    """Logarithmic edges 10^lo_exp .. 10^hi_exp plus optional [0, lo) bin
    and an open tail."""
    steps = (hi_exp - lo_exp) * per_decade
    edges = [10.0 ** (lo_exp + k / per_decade) for k in range(steps + 1)]
    if with_zero:
        edges.insert(0, 0.0)
    edges.append(math.inf)
    return tuple(edges)
