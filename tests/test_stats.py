import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcwl.stats import inverse_cdf, quantile, total

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
samples = st.lists(finite, min_size=1, max_size=60).map(sorted)
probability = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=300, deadline=None)
@given(samples, probability)
def test_inverse_cdf_is_numpy_inverted_cdf(ordered, q):
    assert inverse_cdf(ordered, q) == np.quantile(ordered, q, method="inverted_cdf")


@settings(max_examples=300, deadline=None)
@given(samples, probability)
def test_quantile_is_numpy_linear(ordered, q):
    expected = float(np.quantile(ordered, q, method="linear"))
    scale = max(abs(ordered[0]), abs(ordered[-1]))
    assert abs(quantile(ordered, q) - expected) <= 4 * math.ulp(scale)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 4)), min_size=1,
                max_size=30).filter(lambda pairs: any(w for _, w in pairs)),
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_integer_weights_repeat_values(pairs, q):
    pairs.sort()
    values = [v for v, _ in pairs]
    weights = [w for _, w in pairs]
    repeated = [v for v, w in pairs for _ in range(w)]
    assert inverse_cdf(values, q, weights) == inverse_cdf(repeated, q)


def test_weighted_inverse_cdf_reaches_exactly_q_times_the_total():
    # cumulative weights 3, 5, 10 of 10: q = 0.5 is reached exactly at 5
    assert inverse_cdf([1, 2, 3], 0.5, [3, 2, 5]) == 2
    assert inverse_cdf([1, 2, 3], 0.51, [3, 2, 5]) == 3
    assert inverse_cdf([1, 2, 3], 0.0, [3, 2, 5]) == 1


def test_type_1_and_type_7_on_four_values():
    ordered = [10.0, 20.0, 30.0, 40.0]
    assert [inverse_cdf(ordered, q) for q in (0.0, 0.25, 0.26, 0.5, 0.99, 1.0)] == [
        10.0, 10.0, 20.0, 20.0, 40.0, 40.0]
    assert [quantile(ordered, q) for q in (0.0, 0.25, 0.5, 1.0)] == [
        10.0, 17.5, 25.0, 40.0]


def test_empty_sequence_has_no_quantile():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        inverse_cdf([], 0.5)


def test_total_sums_left_to_right_from_zero():
    assert total([0.1] * 10) == 0.9999999999999999
    assert math.fsum([0.1] * 10) == 1.0
    assert total([]) == 0.0 and type(total([])) is float
    assert total([-0.0]) == 0.0 and math.copysign(1.0, total([-0.0])) == 1.0
    values = np.random.default_rng(7).lognormal(size=1000)
    assert total(values.tolist()) == np.cumsum(values)[-1]
    assert total(iter([1e16, 1.0, -1e16])) == 0.0
