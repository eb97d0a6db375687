import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superconc import probability
from superconc.probability import (
    BoundValue,
    _floyd_mask,
    _ln_up,
    alpha_coefficients,
    bassalygo_bound,
    binom_ratio_bound,
    boolean_identity_check,
    comb0,
    empirical_expansion_failure,
    exact_plr,
    expansion_fail_bound,
    montecarlo_plr,
    pair_fail_bound,
    plr_table,
)


def brute_plr(n, ell, r, d):
    """Oracle: exact fraction of d-tuples of permutations of 1..n where the
    images of {1..ell} cover at most r right vertices."""
    perms = list(itertools.permutations(range(n)))
    masks = []
    for p in perms:
        m = 0
        for i in range(ell):
            m |= 1 << p[i]
        masks.append(m)
    hits = 0
    for combo in itertools.product(masks, repeat=d):
        u = 0
        for m in combo:
            u |= m
        if u.bit_count() <= r:
            hits += 1
    return Fraction(hits, len(perms) ** d)


def test_comb0_convention():
    assert comb0(5, -1) == 0
    assert comb0(5, 6) == 0
    assert comb0(-1, 0) == 0
    assert comb0(5, 2) == 10


# --- union bounds --------------------------------------------------------------


def test_pair_fail_bound_small_example():
    b = pair_fail_bound(8, 1, 0, 2, 2)
    assert b.exact == 4
    assert b.regime == "exact"
    # reduced closed form for delta = 0
    closed = comb0(8, 2) * comb0(4, 1) * Fraction(comb0(2, 2), comb0(8, 2))
    assert b.exact == closed


def test_pair_fail_bound_vanishing_binomial():
    assert pair_fail_bound(12, 2, 0, 5, 3).exact == 0  # 2m-2 = 4 < k = 5
    assert pair_fail_bound(12, 2, 0, 5, 3).log_value == float("-inf")


def test_pair_fail_bound_golden_value():
    b = pair_fail_bound(40, 5, "0.325", 12, 12)
    assert b.exact == Fraction(
        290720482419083569635822039, 597833801719697387604951308800000
    )
    assert float(b.exact) == pytest.approx(4.862898042613386e-07, rel=1e-12)


def test_pair_fail_bound_delta_zero_matches_reduced_form():
    for n, d, k, m in [(16, 2, 3, 4), (20, 3, 5, 7)]:
        b = pair_fail_bound(n, d, 0, k, m)
        closed = (
            comb0(n, k)
            * comb0(n // 2, m - 1)
            * Fraction(comb0(2 * m - 2, k), comb0(n, k)) ** d
        )
        assert b.exact == closed


def test_pair_fail_bound_validation():
    with pytest.raises(ValueError):
        pair_fail_bound(8, 1, 0.5, 2, 2)  # delta at the pair limit
    with pytest.raises(ValueError):
        pair_fail_bound(8, 1, 0, 2, 4)  # m = N/2
    with pytest.raises(ValueError):
        pair_fail_bound(8, 1, 0, 4, 2)  # m <= k/2
    with pytest.raises(ValueError):
        pair_fail_bound(7, 1, 0, 2, 3)  # odd N


def test_expansion_fail_bound_small_example():
    b = expansion_fail_bound(6, 1, 0, 2, 3)
    assert b.exact == 15


def test_expansion_fail_bound_vanishing():
    assert expansion_fail_bound(10, 2, 0, 4, 3).exact == 0  # m-1 < k


def test_expansion_fail_bound_golden_value():
    b = expansion_fail_bound(40, 5, "0.325", 8, 20)
    assert b.exact == Fraction(32272650926036352, 17149744500625)
    assert float(b.exact) == pytest.approx(1881.815261146323, rel=1e-12)


def test_bounds_may_exceed_one():
    assert expansion_fail_bound(6, 1, 0, 2, 3).exact > 1


def test_log_regime_agrees_with_exact():
    for args in [(40, 5, "0.325", 8, 20), (60, 4, "0.25", 10, 30)]:
        exact = expansion_fail_bound(*args, regime="exact")
        logd = expansion_fail_bound(*args, regime="log")
        assert logd.exact is None and logd.regime == "log"
        assert logd.log_value == pytest.approx(exact.log_value, abs=1e-9)
    pe = pair_fail_bound(40, 5, "0.325", 12, 12, regime="log")
    assert pe.log_value == pytest.approx(
        pair_fail_bound(40, 5, "0.325", 12, 12).log_value, abs=1e-9
    )


def test_large_instances_use_log_regime_automatically():
    b = expansion_fail_bound(500, 5, "0.325", 100, 250)
    assert b.regime == "log" and b.exact is None
    assert math.isfinite(b.log_value)


def _bound_grid(top_n=40):
    """Every valid (fn, N, d, delta, k, m) of both union bounds at N <= top_n,
    delta in {0, 13/40}, d in {1, 5}."""
    for N, d, delta in itertools.product(range(1, top_n + 1), (1, 5), (0, Fraction(13, 40))):
        for k, m in itertools.product(range(1, N + 1), repeat=2):
            yield expansion_fail_bound, N, d, delta, k, m
        if N % 2 == 0:
            for k, m in itertools.product(range(N + 1), range(1, N // 2)):
                if 2 * m > k:
                    yield pair_fail_bound, N, d, delta, k, m


def _ln(x: Fraction):
    with mpmath.workdps(60):
        return mpmath.log(mpmath.mpf(x.numerator) / x.denominator)


def test_log_regime_ratio_is_at_least_exact_and_every_log_is_an_upper_bound(monkeypatch):
    # every bound takes its log through _ln_up, so record the ratio it is given
    ratios = []
    ln_up = probability._ln_up

    def recording(num, den):
        ratios.append(Fraction(num, den))
        return ln_up(num, den)

    monkeypatch.setattr(probability, "_ln_up", recording)
    count = 0
    for fn, *args in _bound_grid():
        exact = fn(*args, regime="exact")
        rounded = fn(*args, regime="log")
        exact_ratio, log_ratio = ratios
        ratios.clear()
        assert exact_ratio == exact.exact and log_ratio >= exact.exact, (fn.__name__, args)
        if exact.exact == 0:
            assert exact.log_value == rounded.log_value == -math.inf
        else:
            want = _ln(exact.exact)
            assert exact.log_value >= want and rounded.log_value >= want, (fn.__name__, args)
        count += 1
    assert count > 50_000


def test_ln_up_rounds_up():
    assert 0 <= _ln_up(7, 7) < 1e-12
    assert 0 <= _ln_up(3**500, 3**500) < 1e-12
    assert _ln_up(0, 5) == -math.inf
    cases = [(1 << j, 1) for j in (0, 1, 52, 64, 65, 700)]
    cases += [(1, 1 << j) for j in (1, 63, 64, 1000)]
    cases += [(3 << 200, 3 << 170), (5, 5 << 90)]  # exact powers of two
    near = 1 << 60  # ratios within 2^-60 of 1
    cases += [(near + 1, near), (near - 1, near), (near, near + 1), (near << 100 | 1, near << 100)]
    wide = 12_000
    cases += [(3**7571, 7**4276), (7**4276, 3**7571), (3**7571 + 1, 3**7571), (1 << wide, 3**7571)]
    cases += [(3**7571, 1), (1, 3**7571), (3**7571, 7)]
    assert max(num.bit_length() for num, _ in cases) >= wide
    for num, den in cases:
        got = _ln_up(num, den)
        want = _ln(Fraction(num, den))
        assert got >= want, (num.bit_length(), den.bit_length())
        assert got - want <= 1e-12 * max(1, abs(float(want))) + 1e-12


# --- ratio bound ---------------------------------------------------------------


def test_binom_ratio_bound_zero_shift():
    assert binom_ratio_bound(10, 3, 0) == 1


def test_binom_ratio_bound_single_step_is_tight():
    assert binom_ratio_bound(10, 4, 1) == Fraction(4, 7)
    assert Fraction(comb0(10, 3), comb0(10, 4)) == Fraction(4, 7)


def test_binom_ratio_bound_dominates_true_ratio():
    bound = binom_ratio_bound(20, 8, 3)
    assert bound == Fraction(512, 3375)
    ratio = Fraction(comb0(20, 5), comb0(20, 8))
    assert ratio == Fraction(2584, 20995)
    assert ratio <= bound


def test_binom_ratio_bound_validation():
    with pytest.raises(ValueError):
        binom_ratio_bound(10, 5, 5)
    with pytest.raises(ValueError):
        binom_ratio_bound(6, 4, 1)  # n + m = 7 < 2k = 8


# --- inclusion-exclusion ---------------------------------------------------------


def test_alpha_coefficients_examples():
    assert alpha_coefficients(4, 1) == [-3, 4]
    assert alpha_coefficients(6, 2) == [10, -24, 15]


def test_alpha_top_coefficient_is_binomial():
    for n, r in [(7, 3), (9, 5), (12, 0)]:
        assert alpha_coefficients(n, r)[r] == comb0(n, r)


def test_alpha_r_equal_n_uses_double_sum():
    alphas = alpha_coefficients(5, 5)
    assert len(alphas) == 6
    # with every p_k = 1 the union over all sets is certain
    assert sum(alphas) == 1


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=30), st.data())
def test_alpha_closed_form_matches_double_sum(n, data):
    r = data.draw(st.integers(min_value=0, max_value=n - 1))
    closed = [(-1) ** (r - k) * comb0(n, k) * comb0(n - k - 1, r - k) for k in range(r + 1)]
    double = [
        sum((-1) ** (i - k) * comb0(n, i) * comb0(i, k) for i in range(k, r + 1))
        for k in range(r + 1)
    ]
    assert closed == double
    assert alpha_coefficients(n, r) == closed


def test_exact_plr_examples():
    assert exact_plr(4, 2, 1, 1) == 0
    assert exact_plr(4, 2, 2, 1) == 1
    assert exact_plr(6, 2, 3, 2) == Fraction(3, 5)
    assert exact_plr(6, 2, 2, 2) == Fraction(1, 15)


def test_exact_plr_matches_bruteforce_small():
    assert exact_plr(4, 2, 2, 1) == brute_plr(4, 2, 2, 1)
    assert exact_plr(5, 2, 2, 2) == brute_plr(5, 2, 2, 2)
    assert exact_plr(5, 2, 3, 2) == brute_plr(5, 2, 3, 2)
    assert exact_plr(5, 3, 3, 2) == brute_plr(5, 3, 3, 2)


def test_exact_plr_equals_the_per_term_fraction_sum():
    # the reference normalises one Fraction alpha_k * p_k per term
    for n in range(1, 25):
        for r in range(n):
            alphas = alpha_coefficients(n, r)
            for ell in range(1, n + 1):
                cn = comb0(n, ell)
                for d in (1, 2, 3):
                    terms = (alpha * Fraction(comb0(k, ell), cn) ** d for k, alpha in enumerate(alphas))
                    assert exact_plr(n, ell, r, d) == sum(terms, Fraction(0))


def test_exact_plr_stays_in_unit_interval():
    for n in (5, 8, 11):
        for ell in (1, 2, 3):
            for r in range(n):
                for d in (1, 2, 3):
                    v = exact_plr(n, ell, r, d)
                    assert 0 <= v <= 1


def test_exact_plr_monotonicity():
    values_r = [exact_plr(9, 3, r, 2) for r in range(2, 9)]
    assert all(a <= b for a, b in zip(values_r, values_r[1:]))
    values_d = [exact_plr(9, 3, 4, d) for d in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(values_d, values_d[1:]))


_PLR_DOMAIN_ERRORS = [
    ((6, 2, 3, 0), "d must be >= 1, got 0"),
    ((6, 0, 3, 2), "ell=0 outside 1..6"),
    ((6, 7, 3, 2), "ell=7 outside 1..6"),
    ((6, 2, 9, 2), "r=9 outside 0..5"),
    ((6, 2, 6, 2), "r=6 outside 0..5"),  # r must stay below n
    ((6, 2, -1, 2), "r=-1 outside 0..5"),
    ((0, 0, 0, 2), "ell=0 outside 1..0"),
]


@pytest.mark.parametrize(
    "fn",
    [exact_plr, bassalygo_bound, lambda *args: montecarlo_plr(*args, 100, 0)],
    ids=["exact", "bassalygo", "montecarlo"],
)
@pytest.mark.parametrize("args, message", _PLR_DOMAIN_ERRORS)
def test_plr_functions_share_one_domain(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_bassalygo_bound_examples():
    assert bassalygo_bound(6, 2, 3, 2) == Fraction(4, 5)
    assert bassalygo_bound(6, 2, 2, 2) == Fraction(1, 15) == exact_plr(6, 2, 2, 2)
    assert bassalygo_bound(6, 4, 3, 2) == 0  # r < ell


def test_bassalygo_dominates_exact_everywhere_tested():
    for n in (6, 8, 10):
        for ell in (2, 3):
            for r in range(ell, n):
                for d in (1, 2, 3):
                    assert exact_plr(n, ell, r, d) <= bassalygo_bound(n, ell, r, d)


def test_boolean_identity_edge_cases():
    assert boolean_identity_check(9, 4, 1)
    assert boolean_identity_check(9, 4, 0)
    assert boolean_identity_check(12, 5, Fraction(7, 10))


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=14),
    st.data(),
)
def test_boolean_identity_random(n, data):
    r = data.draw(st.integers(min_value=0, max_value=n - 1))
    q = data.draw(
        st.fractions(min_value=0, max_value=1, max_denominator=50)
    )
    assert boolean_identity_check(n, r, q)


def test_boolean_identity_rejects_bad_q():
    with pytest.raises(ValueError):
        boolean_identity_check(5, 2, Fraction(3, 2))


# --- Monte Carlo -----------------------------------------------------------------


def test_montecarlo_degenerate_cases():
    est, se = montecarlo_plr(7, 3, 5, 1, 500, 0)
    assert est == 1.0 and se == 0.0
    est, se = montecarlo_plr(7, 3, 2, 1, 500, 0)
    assert est == 0.0 and se == 0.0


def test_montecarlo_matches_exact_within_four_sigma():
    est, se = montecarlo_plr(6, 2, 3, 2, 20_000, 77)
    assert se > 0
    assert abs(est - 0.6) <= 4 * se


def _scripted_getrandbits(values):
    """A getrandbits that returns ``values`` in order, each within its width."""
    it = iter(values)

    def getrandbits(width):
        value = next(it)
        assert 0 <= value < 1 << width
        return value

    return getrandbits, it


@pytest.mark.parametrize("n, ell", [(6, 3), (6, 1), (6, 6)])
def test_floyd_mask_is_exactly_uniform(n, ell):
    # every accepted draw sequence t_j in [0, j], j = n-ell .. n-1, once; a
    # value the rejection loop must discard goes before each draw it can
    counts = {}
    steps = [(j, j.bit_length(), 1 << j) for j in range(n - ell, n)]
    for draws in itertools.product(*(range(j + 1) for j in range(n - ell, n))):
        script = []
        for j, t in zip(range(n - ell, n), draws):
            if j + 1 < 1 << j.bit_length():
                script.append(j + 1)
            script.append(t)
        getrandbits, rest = _scripted_getrandbits(script)
        mask = _floyd_mask(getrandbits, steps)
        assert next(rest, None) is None
        counts[mask] = counts.get(mask, 0) + 1
    assert sorted(counts) == sorted(
        sum(1 << v for v in subset) for subset in itertools.combinations(range(n), ell)
    )
    # n!/(n-ell)! sequences, ell! per subset
    assert set(counts.values()) == {math.perm(n, ell) // math.comb(n, ell)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_montecarlo_agrees_with_exact_at_benchmark_size(seed):
    # the probe's gate: five standard errors of the exact value
    trials = 20_000
    exact = float(exact_plr(40, 8, 20, 5))
    est, _ = montecarlo_plr(40, 8, 20, 5, trials, seed)
    assert abs(est - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)


def test_montecarlo_deterministic_per_seed():
    assert montecarlo_plr(6, 2, 3, 2, 3000, 5) == montecarlo_plr(6, 2, 3, 2, 3000, 5)
    assert montecarlo_plr(6, 2, 3, 2, 3000, 5) != montecarlo_plr(6, 2, 3, 2, 3000, 6)


def test_empirical_expansion_failure_sane():
    freq, failures, samples = empirical_expansion_failure(10, 3, 0, 3, 4, 25, 3)
    assert samples == 25 and 0 <= failures <= samples
    assert freq == failures / samples


@pytest.mark.parametrize("samples", [0, -1])
def test_empirical_expansion_failure_refuses_no_samples(samples):
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        empirical_expansion_failure(10, 3, 0, 3, 4, samples, 3)


# --- CSV -------------------------------------------------------------------------


def test_plr_table_layout():
    text = plr_table([(6, 2, 3, 2), (6, 2, 2, 2)], trials=1000, seed=9)
    lines = text.strip().splitlines()
    assert lines[0] == "n,ell,r,d,exact,bassalygo,montecarlo,stderr"
    assert lines[1].startswith("6,2,3,2,3/5,4/5,")
    assert lines[2].startswith("6,2,2,2,1/15,1/15,")


def test_plr_table_without_trials_leaves_mc_blank():
    text = plr_table([(6, 2, 3, 2)])
    assert text.strip().splitlines()[1].endswith(",,")


def test_bound_value_keeps_its_repr_fields_and_immutability():
    # the repr is the one the frozen dataclass printed
    bound = BoundValue(log_value=-1.5, exact=Fraction(1, 4), regime="exact")
    assert repr(bound) == "BoundValue(log_value=-1.5, exact=Fraction(1, 4), regime='exact')"
    assert bound == BoundValue(-1.5, Fraction(1, 4), "exact")
    assert bound.value == math.exp(-1.5)
    assert BoundValue(710.0, None, "log").value == math.inf  # past the float range
    with pytest.raises(AttributeError):
        bound.regime = "log"
