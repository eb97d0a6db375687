import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superconc.entropy import (
    chord_coefficients,
    chord_lower,
    entropy,
    entropy_mp,
    entropy_slope,
    log_binomial,
    stirling_gap,
    tangent_coefficients,
    tangent_upper,
)


def test_entropy_endpoints_are_exactly_zero():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0


def test_entropy_maximum_at_half():
    assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_reference_value():
    # oracle: 50-digit evaluation of the defining formula
    with mpmath.workdps(50):
        want = float(entropy_mp(mpmath.mpf("0.2301")))
    assert want == pytest.approx(0.5393971443878747, abs=1e-15)
    assert entropy(0.2301) == pytest.approx(want, abs=1e-14)


def test_entropy_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)
    with pytest.raises(ValueError):
        entropy(np.array([0.2, 1.5]))


def test_entropy_vectorized_matches_scalar():
    xs = np.linspace(0.0, 1.0, 101)
    vec = entropy(xs)
    for x, v in zip(xs, vec):
        assert v == entropy(float(x))


@settings(max_examples=500)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(1.0)
@example(5e-324)
def test_scalar_entropy_bit_equals_array_path(x):
    # a Python float takes math.log, an array scipy's xlogy
    assert entropy(x).hex() == entropy(np.array([x]))[0].hex()


@settings(max_examples=200)
@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_entropy_symmetry(x):
    assert abs(entropy(x) - entropy(1.0 - x)) <= 1e-12


def test_chord_on_full_interval_is_zero_line():
    b = chord_lower(0.0, 1.0)
    assert b.intercept == 0.0 and b.slope == 0.0
    for x in np.linspace(0, 1, 11):
        assert b(x) <= entropy(float(x))


def test_chord_degenerate_interval_is_constant():
    b = chord_lower(0.37, 0.37)
    assert b.slope == 0.0
    assert b(0.37) == pytest.approx(entropy(0.37), abs=1e-15)


def test_chord_strictly_below_inside_interval():
    b = chord_lower(0.3, 0.4)
    assert b(0.35) < entropy(0.35)


def test_chord_rejects_bad_interval():
    with pytest.raises(ValueError):
        chord_lower(0.4, 0.3)
    with pytest.raises(ValueError):
        chord_lower(-0.1, 0.5)


def test_tangent_on_full_interval_is_flat_at_ln2():
    b = tangent_upper(0.0, 1.0)
    assert b.slope == 0.0
    assert b.intercept == pytest.approx(math.log(2), abs=1e-15)
    for x in np.linspace(0, 1, 11):
        assert entropy(float(x)) <= b(x) + 1e-15


def test_tangent_slope_closed_form():
    b = tangent_upper(0.2, 0.4)
    assert b.slope == pytest.approx(math.log(7.0 / 3.0), abs=1e-14)


def test_tangent_touches_at_degenerate_point():
    b = tangent_upper(0.6, 0.6)
    assert b(0.6) == pytest.approx(entropy(0.6), abs=1e-15)


def test_tangent_rejects_endpoint_midpoints():
    with pytest.raises(ValueError):
        tangent_upper(0.0, 0.0)
    with pytest.raises(ValueError):
        tangent_upper(1.0, 1.0)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_concavity_sandwich(p, q, t):
    lo, hi = min(p, q), max(p, q)
    x = lo + t * (hi - lo)
    chord = chord_lower(lo, hi)
    tangent = tangent_upper(lo, hi)
    h = entropy(x)
    assert chord(x) <= h + 1e-12
    assert h <= tangent(x) + 1e-12


def test_coefficient_arrays_match_scalar_objects():
    lo = np.array([0.1, 0.25, 0.4])
    hi = np.array([0.2, 0.25, 0.9])
    ca, cb = chord_coefficients(lo, hi)
    ta, tb = tangent_coefficients(lo, hi)
    for i in range(3):
        b = chord_lower(float(lo[i]), float(hi[i]))
        assert ca[i] == pytest.approx(b.intercept, abs=1e-15)
        assert cb[i] == pytest.approx(b.slope, abs=1e-15)
        t = tangent_upper(float(lo[i]), float(hi[i]))
        assert ta[i] == pytest.approx(t.intercept, abs=1e-15)
        assert tb[i] == pytest.approx(t.slope, abs=1e-15)


def test_tangent_coefficients_pinned_intervals_give_zero_function():
    ta, tb = tangent_coefficients(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert np.all(ta == 0.0) and np.all(tb == 0.0)


def test_log_binomial_small_cases():
    assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-14)
    assert log_binomial(10, 0) == 0.0
    assert log_binomial(10, 10) == 0.0


def test_log_binomial_out_of_range_is_minus_infinity():
    assert log_binomial(5, -1) == float("-inf")
    assert log_binomial(5, 6) == float("-inf")
    with pytest.raises(ValueError):
        log_binomial(-1, 0)


def test_log_binomial_against_exact_factorials():
    # oracle: big-integer binomial, then log
    for n, k in [(50, 25), (200, 17), (1000, 400), (10**6, 500)]:
        want = math.log(math.comb(n, k))
        assert log_binomial(n, k) == pytest.approx(want, rel=1e-12)
    assert log_binomial(50, 25) == pytest.approx(32.470556505811992, rel=1e-12)


def test_stirling_gap_examples():
    assert stirling_gap(1000, 500) < 2 * math.log(1000) / 1000
    assert stirling_gap(777, 0) == 0.0
    gap = stirling_gap(128, 1)
    assert 0.0 < gap < 2 * math.log(128) / 128


def test_stirling_gap_validation():
    with pytest.raises(ValueError):
        stirling_gap(0, 0)
    with pytest.raises(ValueError):
        stirling_gap(10, 11)


def test_stirling_gap_spot_scan():
    n = 512
    bound = 2 * math.log(n) / n
    assert max(stirling_gap(n, k) for k in range(n + 1)) < bound


def test_entropy_slope_matches_difference_quotient():
    for m in (0.1, 0.3, 0.5, 0.9):
        h = 1e-7
        numeric = (entropy(m + h) - entropy(m - h)) / (2 * h)
        assert entropy_slope(m) == pytest.approx(numeric, abs=1e-6)
    with pytest.raises(ValueError):
        entropy_slope(0.0)
