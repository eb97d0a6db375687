from fractions import Fraction

import pytest

from superconc.profiles import (
    PiecewiseLinear,
    ProfileConstants,
    alon_capalbo_profile,
    as_fraction,
    check_conditions,
    density253_constants,
    expansion_profile,
    overlap_profile,
)

C = density253_constants()
E = expansion_profile(C)
O = overlap_profile(C)


def test_as_fraction_reads_floats_as_decimals():
    assert as_fraction(0.325) == Fraction(13, 40)
    assert as_fraction("0.2301") == Fraction(2301, 10000)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)
    assert as_fraction(2) == 2


def test_derived_constants():
    assert C.c2 == Fraction("0.4377") == C.c5
    assert C.c4 == Fraction("0.5623")
    assert C.c6 == Fraction("0.6678")
    assert C.d == Fraction("5.325")
    assert C.d_int == 5


def test_constants_must_be_in_open_unit_interval():
    with pytest.raises(ValueError):
        ProfileConstants.from_c1_c3("0.5", "0.5", d=5, delta=0)  # c2 = 0


def test_expansion_profile_anchors():
    assert E.eval(Fraction(0)) == 0
    assert E.eval(Fraction(1)) == 1
    assert E.eval(C.c1) == C.c2 == Fraction("0.4377")
    assert E.eval(C.c3) == C.c4
    assert E.eval(C.c5) == C.c6


def test_expansion_profile_midpoint_value():
    # independent arithmetic: last segment has slope (1-c6)/(1-c5)
    slope = (1 - C.c6) / (1 - C.c5)
    want = C.c6 + (Fraction(1, 2) - C.c5) * slope
    assert E.eval(Fraction(1, 2)) == want
    assert float(want) == pytest.approx(0.70460, abs=1e-5)


def test_expansion_profile_rejects_bad_ordering():
    bad = ProfileConstants.from_c1_c3("0.4", "0.3", d=5, delta=0)
    with pytest.raises(ValueError):
        expansion_profile(bad)


def test_alon_capalbo_profile_values():
    p = alon_capalbo_profile()
    assert p.eval(Fraction(1, 4)) == Fraction(1, 2)
    assert p.eval(Fraction(0)) == 0
    assert p.eval(Fraction(3, 8)) == Fraction(5, 8)


def test_overlap_profile_values_and_domain():
    assert O.eval(Fraction(1)) == 1
    assert O.eval(C.c3) == C.c3 - C.c1 == Fraction("0.1021")
    assert O.eval(C.c5) == C.c5 - C.c1 == Fraction("0.2076")
    with pytest.raises(ValueError):
        O.eval(Fraction(1, 10))  # below c3


def test_overlap_identity_on_middle_segment():
    # alpha - o(alpha) stays pinned at c1 between c3 and c5
    for t in range(11):
        alpha = C.c3 + (C.c5 - C.c3) * Fraction(t, 10)
        assert alpha - O.eval(alpha) == C.c1


def test_eval_at_breakpoints_is_exact():
    for x, y in E.breakpoints:
        assert E.eval(x) == y


def test_eval_rejects_out_of_domain():
    with pytest.raises(ValueError):
        E.eval(Fraction(-1, 10))
    with pytest.raises(ValueError):
        E.eval(Fraction(11, 10))


def test_slope_is_right_continuous_at_breakpoints():
    assert E.slope(C.c3) == 1  # segment (c3, c5) starts here
    assert E.slope(C.c1) == (C.c4 - C.c2) / (C.c3 - C.c1)
    assert E.slope(Fraction(1)) == (1 - C.c6) / (1 - C.c5)  # last breakpoint: final segment


def test_slope_values():
    assert E.slope(Fraction(1, 10)) == C.c2 / C.c1
    assert float(C.c2 / C.c1) == pytest.approx(1.90222, abs=5e-6)
    mid = (C.c3 + C.c5) / 2
    assert E.slope(mid) == 1


def test_slope_chain_strictly_decreases():
    slopes = E.segment_slopes()
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[2] == 1


def test_profile_monotone_and_above_diagonal():
    prev = Fraction(-1)
    for t in range(0, 101):
        alpha = Fraction(t, 100)
        val = E.eval(alpha)
        assert val > prev
        prev = val
        if 0 < alpha < 1:
            assert val > alpha


def test_breakpoints_must_strictly_increase():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        PiecewiseLinear(((1, 0),))


def test_text_round_trip():
    text = E.to_text()
    back = PiecewiseLinear.from_text(text)
    assert back == E
    assert "2301/10000" in text


def test_from_text_accepts_decimals_and_comments():
    p = PiecewiseLinear.from_text("# anchors\n0 0\n0.25 0.5\n1 1\n")
    assert p.eval(Fraction(1, 8)) == Fraction(1, 4)


def test_check_conditions_all_pass_with_zero_slack_equalities():
    report = check_conditions(C)
    assert report.all_pass
    assert report["c2+c4>=1"].passed and report["c2+c4>=1"].slack == 0.0
    assert report["c1+c2+c3<=1"].passed and report["c1+c2+c3<=1"].slack == 0.0
    assert report["middle-slope-unit"].passed and report["middle-slope-unit"].slack == 0.0
    assert report["pair-degree"].slack == 2.25


def test_check_conditions_degree_slacks():
    report = check_conditions(C)
    assert report["degree>2+e'(0)"].slack == pytest.approx(1.4227835723, abs=1e-9)
    assert report["degree>1+2/e'(1)"].slack == pytest.approx(0.9396899460, abs=1e-9)


def test_check_conditions_fails_for_low_degree():
    low = ProfileConstants.from_c1_c3("0.2301", "0.3322", d=2, delta="0.325")
    report = check_conditions(low)
    assert not report.all_pass
    assert not report["degree>2+e'(0)"].passed


def test_check_conditions_pair_degree_examples():
    # d > 1 + gamma(1-eps1)/(1-2*gamma*eps1) on the whole overlays, floor(d)
    ok = check_conditions(C, gamma=1, eps1=Fraction(3, 10))["pair-degree"]
    assert ok.passed and ok.slack == 2.25
    assert "2.7500000000" in ok.detail
    low = ProfileConstants.from_c1_c3("0.2301", "0.3322", d="2.9", delta="0.325")
    bad = check_conditions(low, gamma=1, eps1=Fraction(3, 10))["pair-degree"]
    assert not bad.passed and bad.slack == pytest.approx(-0.75)


def test_check_conditions_pair_degree_pole():
    report = check_conditions(C, gamma=1, eps1=Fraction(1, 2))
    assert not report["pair-degree"].passed
    assert report["pair-degree"].slack == float("-inf")


def test_condition_report_as_dict():
    d = check_conditions(C).as_dict()
    assert d["all_pass"] is True
    assert {c["name"] for c in d["checks"]} >= {"c2+c4>=1", "pair-degree"}
    # the anchor order is checked by expansion_profile, which raises first
    assert "c1<c3<c5" not in {c["name"] for c in d["checks"]}
