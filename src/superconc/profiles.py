"""Piecewise-linear expansion profiles and the numeric side conditions that
make the recursive construction go through.

Profile constants are kept as exact rationals: two of the conditions below
hold with equality for the density-25.3 parameter set, and float arithmetic
would misreport those zero-slack passes.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "as_fraction",
    "PiecewiseLinear",
    "ProfileConstants",
    "density253_constants",
    "expansion_profile",
    "alon_capalbo_profile",
    "overlap_profile",
    "ConditionCheck",
    "ConditionReport",
    "check_conditions",
]


def as_fraction(x) -> Fraction:
    """Exact rational from int/str/Fraction; floats are read as their shortest
    decimal representation (0.325 -> 13/40), matching how such constants are
    written down.  A zero denominator ("1/0") or an infinite float raises
    ValueError, as other unreadable values do."""
    try:
        return Fraction(decimal.Decimal(repr(x))) if isinstance(x, float) else Fraction(x)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{x!r} is not a finite rational") from None


class PiecewiseLinear(namedtuple("PiecewiseLinear", "breakpoints")):
    """Piecewise-linear function given by breakpoints with strictly increasing x.

    Evaluation interpolates linearly between breakpoints and is defined exactly
    on [first x, last x].  Arithmetic stays exact when breakpoints and argument
    are rationals.
    """

    __slots__ = ()

    def __new__(cls, breakpoints):
        pts = tuple((p[0], p[1]) for p in breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        xs = [p[0] for p in pts]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"breakpoint x-coordinates must strictly increase: {xs}")
        return super().__new__(cls, pts)

    @property
    def domain(self):
        return self.breakpoints[0][0], self.breakpoints[-1][0]

    def _segment(self, x) -> int:
        lo, hi = self.domain
        if x < lo or x > hi:
            raise ValueError(f"{x} outside profile domain [{lo}, {hi}]")
        xs = [p[0] for p in self.breakpoints]
        i = bisect_right(xs, x) - 1
        return min(i, len(xs) - 2)

    def eval(self, x):
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.breakpoints[i], self.breakpoints[i + 1]
        return y0 + (x - x0) * (y1 - y0) / (x1 - x0)

    __call__ = eval

    def slope(self, x):
        """Slope of the segment at x; at a breakpoint, the right-hand segment.

        The last breakpoint has no right-hand segment and reports the final
        segment's slope.
        """
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.breakpoints[i], self.breakpoints[i + 1]
        return (y1 - y0) / (x1 - x0)

    def segment_slopes(self) -> list:
        return [self.slope(x) for x, _ in self.breakpoints[:-1]]

    def to_text(self) -> str:
        """One "x y" pair per line."""
        return "\n".join(f"{p[0]} {p[1]}" for p in self.breakpoints) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PiecewiseLinear":
        """Parse the to_text format; every value becomes an exact Fraction."""
        pts = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"profile line {line!r} is not one 'x y' pair")
            pts.append((as_fraction(fields[0]), as_fraction(fields[1])))
        return cls(tuple(pts))


class ProfileConstants(namedtuple("ProfileConstants", "c1 c2 c3 c4 c5 c6 d delta")):
    """The six anchor constants of the expansion profile, plus the average
    degree d (possibly fractional) and the pinned-edge fraction delta, each
    an exact Fraction."""

    __slots__ = ()

    def __new__(cls, c1, c2, c3, c4, c5, c6, d, delta):
        anchors = []
        for i, v in enumerate((c1, c2, c3, c4, c5, c6), start=1):
            anchors.append(as_fraction(v))
            if not 0 < anchors[-1] < 1:
                raise ValueError(f"c{i}={anchors[-1]} must lie in (0, 1)")
        d, delta = as_fraction(d), as_fraction(delta)
        if not 0 <= delta <= 1:
            raise ValueError(f"delta={delta} must lie in [0, 1]")
        return super().__new__(cls, *anchors, d, delta)

    @classmethod
    def from_c1_c3(cls, c1, c3, d, delta) -> "ProfileConstants":
        """Derive the dependent constants: c2 = c5 = 1-c1-c3, c4 = 1-c2, c6 = 1-c3."""
        c1 = as_fraction(c1)
        c3 = as_fraction(c3)
        c2 = 1 - c1 - c3
        return cls(c1, c2, c3, 1 - c2, c2, 1 - c3, as_fraction(d), as_fraction(delta))

    @property
    def d_int(self) -> int:
        """Number of whole permutation overlays (the integer part of d)."""
        return math.floor(self.d)


def density253_constants() -> ProfileConstants:
    """Parameter set achieving asymptotic density 25.3 = 4*(5.325 + 1)."""
    return ProfileConstants.from_c1_c3("0.2301", "0.3322", d="5.325", delta="0.325")


def _check_anchor_order(c: ProfileConstants) -> None:
    if not c.c1 < c.c3 < c.c5:
        raise ValueError(f"need c1 < c3 < c5, got {c.c1}, {c.c3}, {c.c5}")


def expansion_profile(c: ProfileConstants) -> PiecewiseLinear:
    """Five-anchor expansion profile through (0,0), (c1,c2), (c3,c4), (c5,c6), (1,1)."""
    _check_anchor_order(c)
    one = Fraction(1)
    return PiecewiseLinear(
        ((Fraction(0), Fraction(0)), (c.c1, c.c2), (c.c3, c.c4), (c.c5, c.c6), (one, one))
    )


def alon_capalbo_profile() -> PiecewiseLinear:
    """The classic four-anchor profile (0,0), (1/4,1/2), (1/2,3/4), (1,1)."""
    f = Fraction
    return PiecewiseLinear(((f(0), f(0)), (f(1, 4), f(1, 2)), (f(1, 2), f(3, 4)), (f(1), f(1))))


def overlap_profile(c: ProfileConstants) -> PiecewiseLinear:
    """Overlap lower-bound profile on [c3, 1] through (c3, c3-c1), (c5, c5-c1), (1, 1)."""
    _check_anchor_order(c)
    one = Fraction(1)
    return PiecewiseLinear(((c.c3, c.c3 - c.c1), (c.c5, c.c5 - c.c1), (one, one)))


ConditionCheck = namedtuple("ConditionCheck", "name passed slack detail", defaults=("",))


class ConditionReport(namedtuple("ConditionReport", "checks")):
    """The checks in order; ``report[name]`` looks one up by its name."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "checks": [
                {"name": c.name, "passed": c.passed, "slack": c.slack, "detail": c.detail}
                for c in self.checks
            ],
        }


def _condition(name: str, kind: str, slack: Fraction, detail: str) -> ConditionCheck:
    """The check whose exact slack is ``slack``: kind ">" passes on a positive
    slack and ">=" on a nonnegative one; an "==" row's slack is the deviation,
    which passes at zero and is reported as -|deviation|."""
    if kind == "==":
        return ConditionCheck(name, slack == 0, -abs(float(slack)), detail)
    return ConditionCheck(name, slack > 0 if kind == ">" else slack >= 0, float(slack), detail)


def check_conditions(c: ProfileConstants, gamma=1, eps1=Fraction(3, 10)) -> ConditionReport:
    """Evaluate every side condition on the constants with exact arithmetic.

    Inequalities that the density-25.3 constants meet with equality (the
    anchor sums below) are decided on rationals, so a zero-slack pass is
    reported as a pass.  Degree conditions on the profile slopes use the
    fractional d; the pair-expansion degree condition concerns the whole
    permutation overlays only and uses floor(d).  Raises ValueError unless
    c1 < c3 < c5, since the profile slopes are undefined otherwise.
    """
    gamma = as_fraction(gamma)
    eps1 = as_fraction(eps1)
    # slopes on (0, c1), (c1, c3), (c3, c5) and (c5, 1)
    s01, s12, s23, s34 = expansion_profile(c).segment_slopes()

    checks = [
        _condition("c2+c4>=1", ">=", c.c2 + c.c4 - 1, f"c2+c4={c.c2 + c.c4}"),
        _condition("c1+c2+c3<=1", ">=", 1 - (c.c1 + c.c2 + c.c3), f"c1+c2+c3={c.c1 + c.c2 + c.c3}"),
        _condition("slope-chain-1", ">", s01 - s12, f"{s01} > {s12}"),
        _condition("slope-chain-2", ">", s12 - s23, f"{s12} > {s23}"),
        _condition("middle-slope-unit", "==", s23 - 1, f"slope on (c3, c5) = {s23}"),
        _condition("final-slope<1", ">", 1 - s34, f"slope on (c5, 1) = {s34}"),
        _condition("degree>2+e'(0)", ">", c.d - 2 - s01, f"d={c.d} vs 2+e'(0)={float(2 + s01):.10f}"),
        _condition(
            "degree>1+2/e'(1)", ">", c.d - 1 - 2 / s34,
            f"d={c.d} vs 1+2/e'(1)={float(1 + 2 / s34):.10f}",
        ),
    ]

    if 2 * gamma * eps1 >= 1:
        pair = ConditionCheck(
            "pair-degree", False, float("-inf"), f"pole: 2*gamma*eps1 = {2 * gamma * eps1} >= 1"
        )
    else:
        threshold = 1 + gamma * (1 - eps1) / (1 - 2 * gamma * eps1)
        pair = _condition(
            "pair-degree", ">", c.d_int - threshold,
            f"floor(d)={c.d_int} vs 1+gamma(1-eps1)/(1-2*gamma*eps1)={float(threshold):.10f}",
        )
    return ConditionReport((*checks, pair))
