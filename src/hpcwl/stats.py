"""The quantiles and float totals that report values are computed with.

Quantile types are those of Hyndman & Fan (1996), "Sample quantiles in
statistical packages", The American Statistician 50(4):361-365.  Totals are
summed left to right from 0.0, as ``np.cumsum(values)[-1]`` is: builtin
``sum`` of floats is compensated from Python 3.12 on, which would tie report
bytes to the interpreter version.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Iterable, Sequence


def total(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0."""
    return reduce(add, values, 0.0)


def quantile(ordered: Sequence[float], q: float) -> float:
    """Type 7 quantile (numpy's "linear") of an ascending sequence."""
    if not ordered:
        raise ValueError("quantile of empty sequence")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def inverse_cdf(ordered: Sequence, q: float, weights: Sequence[float] | None = None):
    """Type 1 quantile (the inverse empirical CDF) of an ascending sequence:
    its value at rank ceil(q * n), at least the first; with nonnegative
    weights, the first value whose cumulative weight reaches q times the
    total.  Over a descending sequence the ranks count from the largest."""
    if not ordered:
        raise ValueError("quantile of empty sequence")
    if weights is None:
        return ordered[max(1, math.ceil(q * len(ordered))) - 1]
    cumulative = list(accumulate(weights))
    return ordered[bisect_left(cumulative, q * cumulative[-1])]
