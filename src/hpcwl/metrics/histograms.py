"""Weighted 1-D and 2-D histograms with explicit edges and conservation.

Bins are closed-open [lo, hi).  Weight that falls outside the edges is
accumulated in underflow/overflow (1-D) or a single outside bucket (2-D);
records lacking the binned quantity go to an absent bucket.  The grand total
therefore always equals the weight of the input population.

``Histogram1D.of`` and ``Histogram2D.of`` bin whole arrays: NaN marks a
value as absent, and every bucket's weight is one ``np.bincount`` slot, so
each is summed left to right from 0.0 in input order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..stats import total


def _check_edges(edges: Sequence[float]):
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    for lo, hi in zip(edges, edges[1:]):
        if not lo < hi:
            raise ValueError("bin edges must be strictly increasing")


def _check_weights(weights: np.ndarray):
    if (weights < 0).any():
        raise ValueError("negative weight")


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

    @classmethod
    def of(cls, edges: Sequence[float], values: np.ndarray, weights: np.ndarray,
           weight_kind: str = "jobs") -> Histogram1D:
        """The histogram of ``values`` (NaN: absent) under ``weights``."""
        hist = cls(edges=edges, weight_kind=weight_kind)
        _check_weights(weights)
        e = np.array(hist.edges)
        nb = len(e) - 1
        # slots: bins 0..nb-1, then underflow, overflow and absent
        slot = np.searchsorted(e, values, side="right") - 1
        slot[values < e[0]] = nb
        slot[values >= e[-1]] = nb + 1
        slot[np.isnan(values)] = nb + 2
        sums = np.bincount(slot, weights, minlength=nb + 3).astype(np.float64).tolist()
        hist.weights = sums[:nb]
        hist.underflow, hist.overflow, hist.absent = sums[nb:]
        return hist

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

    @classmethod
    def of(cls, x_edges: Sequence[float], y_edges: Sequence[float], x: np.ndarray,
           y: np.ndarray, weights: np.ndarray, weight_kind: str = "jobs") -> Histogram2D:
        """The histogram of the (x, y) pairs (NaN in either: absent) under
        ``weights``."""
        hist = cls(x_edges=x_edges, y_edges=y_edges, weight_kind=weight_kind)
        _check_weights(weights)
        xe, ye = np.array(hist.x_edges), np.array(hist.y_edges)
        nx, ny = len(xe) - 1, len(ye) - 1
        # slots: cell (i, j) at i * ny + j, then outside and absent
        slot = ((np.searchsorted(xe, x, side="right") - 1) * ny
                + np.searchsorted(ye, y, side="right") - 1)
        slot[(x < xe[0]) | (x >= xe[-1]) | (y < ye[0]) | (y >= ye[-1])] = nx * ny
        slot[np.isnan(x) | np.isnan(y)] = nx * ny + 1
        sums = np.bincount(slot, weights, minlength=nx * ny + 2).astype(np.float64).tolist()
        hist.cells = [sums[i * ny:(i + 1) * ny] for i in range(nx)]
        hist.outside, hist.absent = sums[nx * ny:]
        return hist

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
