import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from superconc.certifier import U, chord_coefficients, entropy_lower, tangent_coefficients
from superconc.entropy import entropy, log_binomial, stirling_gap

# more ulps than the rounding of either envelope can account for: entropy_lower
# sits at most 12u relative below H, a tangent intercept at most 11u above
# the conjugate of its slope
MUTATION_ULPS = 16


def test_entropy_endpoints_are_exactly_zero():
    assert entropy(0.0) == 0.0
    assert entropy(1.0) == 0.0


def test_entropy_maximum_at_half():
    assert entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_reference_value():
    # oracle: 50-digit evaluation of the defining formula
    with mpmath.workdps(50):
        x = mpmath.mpf("0.2301")
        want = float(-x * mpmath.log(x) - (1 - x) * mpmath.log(1 - x))
    assert want == pytest.approx(0.5393971443878747, abs=1e-15)
    assert entropy(0.2301) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("x", [1e-300, 1e-10, 1e-6, 0.2301, 1 - 2.0**-53])
def test_entropy_is_relatively_accurate(x):
    # oracle: 50 digits, with ln(1 - x) as log1p(-x) since 1 - 1e-300 rounds
    # to 1 there; subnormal x is left out, where x*ln(x) loses relative
    # precision in any float form
    with mpmath.workdps(50):
        X = mpmath.mpf(x)
        want = -X * mpmath.log(X) - (1 - X) * mpmath.log1p(-X)
        assert abs((entropy(x) - want) / want) <= 4 * U


def test_entropy_rejects_values_outside_unit_interval():
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)
    with pytest.raises(ValueError):
        entropy(math.nan)


@settings(max_examples=200)
@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
def test_entropy_symmetry(x):
    assert abs(entropy(x) - entropy(1.0 - x)) <= 1e-12


def test_chord_on_full_interval_is_zero_line():
    a, b = chord_coefficients(0.0, 1.0)
    assert a == 0.0 and b == 0.0
    for x in np.linspace(0, 1, 11):
        assert a + b * x <= entropy(float(x))


def test_chord_degenerate_interval_is_constant():
    a, b = chord_coefficients(0.37, 0.37)
    assert b == 0.0
    assert a == pytest.approx(entropy(0.37), abs=1e-15)


def test_chord_strictly_below_inside_interval():
    a, b = chord_coefficients(0.3, 0.4)
    assert a + b * 0.35 < entropy(0.35)


def test_tangent_on_full_interval_is_flat_at_ln2():
    a, b = tangent_coefficients(0.0, 1.0)
    assert b == 0.0
    assert a == pytest.approx(math.log(2), abs=1e-15)
    for x in np.linspace(0, 1, 11):
        assert entropy(float(x)) <= a + b * x + 1e-15


def test_tangent_slope_closed_form():
    _, b = tangent_coefficients(0.2, 0.4)
    assert b == pytest.approx(math.log(7.0 / 3.0), abs=1e-14)


def test_tangent_touches_at_degenerate_point():
    a, b = tangent_coefficients(0.6, 0.6)
    assert a + b * 0.6 == pytest.approx(entropy(0.6), abs=1e-15)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_concavity_sandwich(p, q, t):
    lo, hi = min(p, q), max(p, q)
    x = lo + t * (hi - lo)
    ca, cb = chord_coefficients(lo, hi)
    ta, tb = tangent_coefficients(lo, hi)
    h = entropy(x)
    assert ca + cb * x <= h + 1e-12
    assert h <= ta + tb * x + 1e-12


def test_coefficient_arrays_match_elementwise_calls():
    lo = np.array([0.1, 0.25, 0.4, 0.0])
    hi = np.array([0.2, 0.25, 0.9, 1.0])
    ca, cb = chord_coefficients(lo, hi)
    ta, tb = tangent_coefficients(lo, hi)
    for i in range(len(lo)):
        assert (ca[i], cb[i]) == chord_coefficients(lo[i], hi[i])
        assert (ta[i], tb[i]) == tangent_coefficients(lo[i], hi[i])
    # shared node values give the chords the scan builds
    h = entropy_lower(np.concatenate([lo, hi]))
    assert np.array_equal(chord_coefficients(lo, hi, h[:4], h[4:])[0], ca)


def test_tangent_coefficients_pinned_intervals_give_zero_function():
    ta, tb = tangent_coefficients(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert np.all(ta == 0.0) and np.all(tb == 0.0)


# --- the envelopes against their first written form -----------------------------


def _entropy_lower_ref(x):
    x = np.asarray(x, dtype=float)
    a = np.where(x > 0.0, x, 1.0)
    b = np.where(x < 1.0, x, 0.0)
    return (-a * np.log(a) - (1.0 - b) * np.log1p(-b)) * (1.0 - 7 * U)


def _chord_ref(lo, hi, h_lo=None, h_hi=None):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    h_lo = _entropy_lower_ref(lo) if h_lo is None else h_lo
    h_hi = _entropy_lower_ref(hi) if h_hi is None else h_hi
    width = hi - lo
    safe = np.where(width > 0.0, width, 1.0)
    slope = np.where(width > 0.0, (h_hi - h_lo) / safe, 0.0)
    intercept = np.minimum(h_lo - slope * lo, h_hi - slope * hi)
    size = np.maximum(np.abs(h_lo), np.abs(h_hi)) + np.abs(slope) * hi
    return intercept - 4 * U * size, slope


def _tangent_ref(lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    interior = (hi > 0.0) & (lo < 1.0)
    m = np.minimum(np.maximum(0.5 * (lo + hi), 2.0**-1022), 1.0 - U)
    slope = np.where(interior, np.log((1.0 - m) / m), 0.0)
    intercept = np.log1p(np.exp(-slope)) * (1.0 + 6 * U) + 2.0**-1022
    return np.where(interior, intercept, 0.0), slope


def _same(got, want):
    """Equal shapes and equal bits, signed zeros included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


_ENDS = np.array([0.0, 5e-324, 2.0**-100, 0.1, 0.325, 0.37, 0.5, 1 - 2.0**-53, 1.0])
_PAIRS = [
    pytest.param(0.3, 0.4, id="0d"),
    pytest.param(0.37, 0.37, id="0d-degenerate"),
    pytest.param(0.0, 0.0, id="0d-pinned-0"),
    pytest.param(1.0, 1.0, id="0d-pinned-1"),
    pytest.param(1.0 - 2.0**-53, 1.0, id="0d-midpoint-rounds-to-1"),
    pytest.param(0.0, 5e-324, id="0d-midpoint-rounds-to-0"),
    pytest.param(np.minimum(_ENDS, _ENDS[::-1]), np.maximum(_ENDS, _ENDS[::-1]), id="1d"),
    pytest.param(_ENDS[:-1].reshape(4, 2), _ENDS[1:].reshape(4, 2), id="2d"),
    pytest.param(_ENDS[:4, None], _ENDS[None, 3:], id="broadcast"),
    pytest.param(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]).clip(1.0), id="broadcast-pinned"),
]


@pytest.mark.parametrize("lo, hi", _PAIRS)
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_envelopes_keep_their_first_written_values(lo, hi):
    # bit for bit, the chord on [0, 5e-324] whose slope overflows included
    assert _same(entropy_lower(lo), _entropy_lower_ref(lo))
    assert _same(entropy_lower(hi), _entropy_lower_ref(hi))
    for got, want in zip(chord_coefficients(lo, hi), _chord_ref(lo, hi)):
        assert _same(got, want)
    for got, want in zip(tangent_coefficients(lo, hi), _tangent_ref(lo, hi)):
        assert _same(got, want)
    # node values handed in, as the scan does, and scalar ones
    h_lo, h_hi = _entropy_lower_ref(lo), _entropy_lower_ref(hi)
    for ends in ((h_lo, h_hi), (0.25, 0.5)):
        for got, want in zip(chord_coefficients(lo, hi, *ends), _chord_ref(lo, hi, *ends)):
            assert _same(got, want)


def test_envelopes_write_nothing_they_were_passed():
    lo, hi = _ENDS[:4, None].copy(), _ENDS[None, 3:].copy()
    h_lo, h_hi = entropy_lower(lo), entropy_lower(hi)
    kept = [v.copy() for v in (lo, hi, h_lo, h_hi)]
    entropy_lower(lo)
    chord_coefficients(lo, hi, h_lo, h_hi)
    tangent_coefficients(lo, hi)
    assert all(_same(v, k) for v, k in zip((lo, hi, h_lo, h_hi), kept))


# --- soundness in float64, checked in 113-bit interval arithmetic ---------------


@pytest.fixture
def iv113():
    prec, iv.prec = iv.prec, 113
    yield
    iv.prec = prec


def _iv_h(x):
    x = iv.mpf(x)
    if x == 0 or x == 1:
        return iv.mpf(0)
    return -x * iv.log(x) - (1 - x) * iv.log(1 - x)


def _step(v, ulps, toward):
    for _ in range(ulps):
        v = np.nextafter(v, toward)
    return v


def _nodes():
    rng = np.random.default_rng(3)
    # 1 - x must stay exact at 113 bits, or the oracle's log(1 - x) blurs
    extremes = [0.0, 2.0**-100, 1e-12, 0.5, 1 - 1e-12, 1.0]
    return np.unique(np.concatenate([np.linspace(0, 0.325, 101), rng.uniform(0, 1, 100), extremes]))


def _above(value, x):
    """Whether the float value certainly exceeds H(x)."""
    return (iv.mpf(float(value)) - _iv_h(float(x))).a > 0


def _line_above(a, b, x):
    return (iv.mpf(float(a)) + iv.mpf(float(b)) * float(x) - _iv_h(float(x))).a > 0


def test_entropy_lower_sits_below_entropy_and_raised_values_do_not(iv113):
    ys = _nodes()
    h = entropy_lower(ys)
    assert not any(_above(v, y) for y, v in zip(ys, h))
    # tight: a few ulps up, every node value is above H
    raised = _step(h, MUTATION_ULPS, np.inf)
    assert all(_above(v, y) for y, v in zip(ys, raised))


def test_chord_lies_below_entropy_at_its_nodes(iv113):
    ys = _nodes()
    h = entropy_lower(ys)

    def chords_above(h):
        ca, cb = chord_coefficients(ys[:-1], ys[1:], h[:-1], h[1:])
        return [
            _line_above(ca[j], cb[j], ys[j]) or _line_above(ca[j], cb[j], ys[j + 1])
            for j in range(len(ys) - 1)
        ]

    assert not any(chords_above(h))
    # node values raised by a few ulps lift most chords above H at a node
    assert sum(chords_above(_step(h, MUTATION_ULPS, np.inf))) > (len(ys) - 1) / 2


def test_tangent_lies_above_entropy_at_its_tangency_point(iv113):
    rng = np.random.default_rng(5)
    ms = np.concatenate([rng.uniform(0, 1, 200), [1e-12, 1e-6, 0.5, 1 - 1e-6]])
    a, b = tangent_coefficients(ms, ms)

    def dips_below(a, b):
        # H(x) - b*x peaks at x* = 1/(1 + e^b), where the tangent touches H
        x = 1 / (1 + iv.exp(iv.mpf(float(b))))
        return (iv.mpf(float(a)) + iv.mpf(float(b)) * x - _iv_h(x)).b < 0

    assert not any(dips_below(ai, bi) for ai, bi in zip(a, b))
    lowered = _step(a, MUTATION_ULPS, -np.inf)
    assert all(dips_below(ai, bi) for ai, bi in zip(lowered, b))


@settings(max_examples=300)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@example(0.0, 0.0)
@example(0.3, 0.3)
@example(1.0, 1.0 - 2.0**-53)  # the midpoint rounds to 1
@example(0.0, 5e-324)  # the midpoint rounds to 0
def test_envelopes_hold_in_interval_arithmetic(p, q):
    lo, hi = min(p, q), max(p, q)
    prec, iv.prec = iv.prec, 113
    try:
        ca, cb = chord_coefficients(lo, hi)
        assert not _line_above(ca, cb, lo) and not _line_above(ca, cb, hi)
        ta, tb = tangent_coefficients(lo, hi)
        for x in (lo, hi, 0.5 * (lo + hi)):
            assert (iv.mpf(float(ta)) + iv.mpf(float(tb)) * x - _iv_h(x)).b >= 0
    finally:
        iv.prec = prec


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
    # the tangent at a degenerate interval takes the entropy's slope there
    for m in (0.1, 0.3, 0.5, 0.9):
        h = 1e-7
        numeric = (entropy(m + h) - entropy(m - h)) / (2 * h)
        assert tangent_coefficients(m, m)[1] == pytest.approx(numeric, abs=1e-6)
