import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superconc.profiles import (
    ConditionCheck,
    ConditionReport,
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


@pytest.mark.parametrize("value", ["1/0", "-3/0", float("inf"), float("-inf"), float("nan"), "nan"])
def test_as_fraction_refuses_what_no_rational_is(value):
    # Fraction raises ZeroDivisionError and OverflowError for the first four
    with pytest.raises(ValueError):
        as_fraction(value)


def test_profile_text_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="'1/0' is not a finite rational"):
        PiecewiseLinear.from_text("0 0\n1/0 1\n1 1\n")


@pytest.mark.parametrize("line", ["0 0 0", "1/2"])
def test_profile_text_names_a_line_that_is_not_one_pair(line):
    with pytest.raises(ValueError, match=re.escape(f"profile line '{line}' is not one 'x y' pair")):
        PiecewiseLinear.from_text(f"0 0\n{line}\n1 1\n")


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


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PiecewiseLinear(((0, 0), (0, 1))),
         "breakpoint x-coordinates must strictly increase: [0, 0]"),
        (lambda: PiecewiseLinear(((1, 0),)), "need at least two breakpoints"),
        (lambda: ProfileConstants.from_c1_c3("0.5", "0.5", d=5, delta=0), "c2=0 must lie in (0, 1)"),
        (lambda: ProfileConstants.from_c1_c3("0.2", "0.3", d=5, delta=2), "delta=2 must lie in [0, 1]"),
        # each anchor is read and range-checked before the next one is read
        (lambda: ProfileConstants(2, "1/0", *[Fraction(1, 2)] * 4, 5, 0), "c1=2 must lie in (0, 1)"),
    ],
)
def test_records_refuse_bad_values_with_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_profile_records_keep_their_reprs_fields_and_immutability():
    # the reprs are those the frozen dataclasses printed
    half = (Fraction(1, 2), Fraction(3, 4))
    profile = PiecewiseLinear(breakpoints=[(0, 0), list(half), (1, 1)])
    assert repr(profile) == (
        "PiecewiseLinear(breakpoints=((0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)))"
    )
    assert profile == PiecewiseLinear(((0, 0), half, (1, 1)))
    assert repr(C) == (
        "ProfileConstants(c1=Fraction(2301, 10000), c2=Fraction(4377, 10000), "
        "c3=Fraction(1661, 5000), c4=Fraction(5623, 10000), c5=Fraction(4377, 10000), "
        "c6=Fraction(3339, 5000), d=Fraction(213, 40), delta=Fraction(13, 40))"
    )
    assert ProfileConstants(c1="0.2301", c2="0.4377", c3="0.3322", c4="0.5623", c5="0.4377",
                            c6="0.6678", d="5.325", delta="0.325") == C
    ok = ConditionCheck(name="c2+c4>=1", passed=True, slack=0.0)
    assert repr(ok) == "ConditionCheck(name='c2+c4>=1', passed=True, slack=0.0, detail='')"
    report = ConditionReport(checks=(ok, ConditionCheck("final-slope<1", False, -0.25, "slope 5/4")))
    assert repr(report) == (
        "ConditionReport(checks=(ConditionCheck(name='c2+c4>=1', passed=True, slack=0.0, "
        "detail=''), ConditionCheck(name='final-slope<1', passed=False, slack=-0.25, "
        "detail='slope 5/4')))"
    )
    assert report["final-slope<1"].detail == "slope 5/4" and not report.all_pass
    with pytest.raises(KeyError):
        report["c1<c3<c5"]
    for record, field in [(profile, "breakpoints"), (C, "d"), (ok, "passed"), (report, "checks")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


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


def _reference_conditions(c, gamma, eps1):
    """The nine side conditions, each comparison written out apart from its
    slack: the reference for check_conditions' one-expression rows."""
    gamma = as_fraction(gamma)
    eps1 = as_fraction(eps1)
    s01, s12, s23, s34 = expansion_profile(c).segment_slopes()
    checks = [
        ConditionCheck("c2+c4>=1", c.c2 + c.c4 >= 1, float(c.c2 + c.c4 - 1), f"c2+c4={c.c2 + c.c4}"),
        ConditionCheck(
            "c1+c2+c3<=1",
            c.c1 + c.c2 + c.c3 <= 1,
            float(1 - (c.c1 + c.c2 + c.c3)),
            f"c1+c2+c3={c.c1 + c.c2 + c.c3}",
        ),
        ConditionCheck("slope-chain-1", s01 > s12, float(s01 - s12), f"{s01} > {s12}"),
        ConditionCheck("slope-chain-2", s12 > s23, float(s12 - s23), f"{s12} > {s23}"),
        ConditionCheck(
            "middle-slope-unit", s23 == 1, -abs(float(s23 - 1)), f"slope on (c3, c5) = {s23}"
        ),
        ConditionCheck("final-slope<1", s34 < 1, float(1 - s34), f"slope on (c5, 1) = {s34}"),
        ConditionCheck(
            "degree>2+e'(0)",
            c.d > 2 + s01,
            float(c.d - 2 - s01),
            f"d={c.d} vs 2+e'(0)={float(2 + s01):.10f}",
        ),
        ConditionCheck(
            "degree>1+2/e'(1)",
            c.d > 1 + 2 / s34,
            float(c.d - 1 - 2 / s34),
            f"d={c.d} vs 1+2/e'(1)={float(1 + 2 / s34):.10f}",
        ),
    ]
    if 2 * gamma * eps1 >= 1:
        checks.append(
            ConditionCheck(
                "pair-degree", False, float("-inf"), f"pole: 2*gamma*eps1 = {2 * gamma * eps1} >= 1"
            )
        )
    else:
        threshold = 1 + gamma * (1 - eps1) / (1 - 2 * gamma * eps1)
        d_whole = Fraction(c.d_int)
        checks.append(
            ConditionCheck(
                "pair-degree",
                d_whole > threshold,
                float(d_whole - threshold),
                f"floor(d)={c.d_int} vs 1+gamma(1-eps1)/(1-2*gamma*eps1)={float(threshold):.10f}",
            )
        )
    return checks


_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda f: 0 < f < 1)


@st.composite
def _ordered_constants(draw):
    """ProfileConstants with c1 < c3 < c5, built directly so that the anchor
    sums, the unit middle slope and the degree rows can each fail, pass with
    slack or hold with equality; from_c1_c3 ties the sums to 1 always."""
    c1, c3, c5 = sorted(draw(st.sets(_UNIT, min_size=3, max_size=3)))
    c2 = draw(st.one_of(_UNIT, st.just(1 - c1 - c3)))
    c4 = draw(st.one_of(_UNIT, st.just(1 - c2)))
    c6 = draw(st.one_of(_UNIT, st.just(c4 + c5 - c3)))
    assume(all(0 < v < 1 for v in (c2, c4, c6)))
    s01, s34 = c2 / c1, (1 - c6) / (1 - c5)
    d = draw(st.one_of(
        st.fractions(min_value=0, max_value=12, max_denominator=40),
        st.just(2 + s01),
        st.just(1 + 2 / s34),
    ))
    delta = draw(st.fractions(min_value=0, max_value=1, max_denominator=40))
    return ProfileConstants(c1, c2, c3, c4, c5, c6, d, delta)


def _fields(check):
    # copysign tells -0.0 from 0.0, which == does not
    return check.name, check.passed, check.slack, math.copysign(1.0, check.slack), check.detail


@settings(max_examples=200, deadline=None)
@given(
    _ordered_constants(),
    st.fractions(min_value=0, max_value=3, max_denominator=20),
    st.fractions(min_value=0, max_value=1, max_denominator=20),
)
@example(C, 1, Fraction(1, 2))  # the pole: 2*gamma*eps1 = 1
@example(C, 1, Fraction(3, 10))
@example(ProfileConstants("1/5", "1/2", "2/5", "1/2", "3/5", "7/10", 3, 0), 2, Fraction(1, 4))
def test_check_conditions_matches_the_reference_rows(c, gamma, eps1):
    got = check_conditions(c, gamma, eps1)
    want = _reference_conditions(c, gamma, eps1)
    assert [_fields(k) for k in got.checks] == [_fields(k) for k in want]
    assert got.all_pass == all(k.passed for k in want)
