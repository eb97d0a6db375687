"""Failure probabilities for expansion properties of the permutation-overlay
model: union bounds, an exact inclusion-exclusion formula, and
brute-force / Monte Carlo oracles.

Everything that involves an alternating sum is computed in exact rational
arithmetic; floating point would lose the cancellation.  The positive-sum
union bounds are one integer formula: up to ``EXACT_LIMIT`` its terms are
summed as Fractions, above it each term is scaled by 2^64 and rounded up, so
large n stays cheap and the sum stays an upper bound.  Either way the log of
the bound is rounded up, and every result records which regime produced it.
"""

from __future__ import annotations

import io
import csv as _csv
import math
import random
from collections import namedtuple
from fractions import Fraction

from . import derive_seed
from .profiles import as_fraction

# Only empirical_expansion_failure, which samples whole graphs, imports
# randgraph, so `exact-plr`, `prob-bound` and `mc-plr` start without it.

__all__ = [
    "EXACT_LIMIT",
    "comb0",
    "BoundValue",
    "pair_fail_bound",
    "expansion_fail_bound",
    "binom_ratio_bound",
    "alpha_coefficients",
    "exact_plr",
    "bassalygo_bound",
    "boolean_identity_check",
    "montecarlo_plr",
    "empirical_expansion_failure",
    "plr_table",
]

EXACT_LIMIT = 200


def comb0(n: int, k: int) -> int:
    """C(n, k) under the convention that any out-of-range index gives 0."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


class BoundValue(namedtuple("BoundValue", "log_value exact regime")):
    """A probability bound as its natural log rounded up, plus the exact
    rational in the "exact" regime; ``regime`` is "exact" or "log"."""

    __slots__ = ()

    @property
    def value(self) -> float:
        """The bound as a float, inf past e^709: a union bound may exceed 1."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def _row(n: int, lo: int, count: int):
    """Yield C(n, lo), ..., C(n, lo+count-1) by C(n, j+1) = C(n, j)*(n-j)/(j+1)."""
    c = comb0(n, lo)
    for j in range(lo, lo + count):
        yield c
        c = c * (n - j) // (j + 1)


def _ln_up(num: int, den: int) -> float:
    """ln(num/den) rounded up, for integers num >= 0 and den > 0 of any size.

    q = floor(num*2^s/den) + 1 has about 64 bits, and ln q - s*ln 2 exceeds
    ln(num/den).  With libm's log within one ulp the float roundings total at
    most 5u*(ln q + |s| ln 2), u = 2^-53; the step up is 32 times that, sized
    from the two terms, not from the result, because they can cancel."""
    if num == 0:
        return -math.inf
    s = 64 - num.bit_length() + den.bit_length()
    q = (num << s) // den + 1 if s >= 0 else num // (den << -s) + 1
    log_q, log_scale = math.log(q), s * math.log(2)
    return log_q - log_scale + (log_q + abs(log_scale)) * 2.0**-48


def _union_bound(N, d, k, m, pinned, sets, reach, regime) -> BoundValue:
    """C(sets, m-1) * (C(reach, k)/C(N, k))^d times the pinned-edge sum over i
    of C(pinned, i) * C(N-pinned, k-i) * C(m-1, i) / C(N, i), whose terms
    past i = min(k, m-1) vanish.  The "exact" regime sums the terms as
    Fractions; the "log" regime sums each term times 2^64, rounded up, over
    the one denominator 2^64, which bounds the exact sum from above."""
    if regime not in ("auto", "exact", "log"):
        raise ValueError(f"unknown regime {regime!r}")
    exact = regime == "exact" or (regime == "auto" and N <= EXACT_LIMIT)
    top = min(k, m - 1) + 1
    free = list(_row(N - pinned, k - top + 1, top))[::-1]  # C(N-pinned, k-i) for i < top
    rows = zip(_row(pinned, 0, top), free, _row(m - 1, 0, top), _row(N, 0, top))
    terms = ((a * b * c, e) for a, b, c, e in rows)
    if exact:
        num, den = sum(Fraction(a, e) for a, e in terms).as_integer_ratio()
    else:
        num, den = -sum((-a << 64) // e for a, e in terms), 1 << 64
    num *= comb0(sets, m - 1) * comb0(reach, k) ** d
    den *= comb0(N, k) ** d
    return BoundValue(_ln_up(num, den), Fraction(num, den) if exact else None, "exact" if exact else "log")


def pair_fail_bound(N: int, d: int, delta, k: int, m: int, regime: str = "auto") -> BoundValue:
    """Union bound on the probability that some k-subset of left vertices
    touches fewer than m right pairs in the overlay model on N vertices.

    The value is C(N/2, m-1) * (C(2m-2, k)/C(N, k))^d multiplied by the sum
    over i of C(pinned, i) * C(N-pinned, k-i) * C(m-1, i) / C(N, i), where
    pinned = floor(delta*N); with delta = 0 the sum collapses to C(N, k).
    Being a union bound, the value may exceed 1.
    """
    delta = as_fraction(delta)
    if N < 2 or N % 2:
        raise ValueError(f"pair structure needs even N >= 2, got {N}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0 <= delta < Fraction(1, 2):
        raise ValueError(f"pair bound needs 0 <= delta < 1/2, got {delta}")
    if not 0 <= k <= N:
        raise ValueError(f"k={k} outside 0..{N}")
    if not (2 * m > k and 2 * m < N):
        raise ValueError(f"need k/2 < m < N/2, got k={k}, m={m}, N={N}")
    return _union_bound(N, d, k, m, math.floor(delta * N), N // 2, 2 * m - 2, regime)


def expansion_fail_bound(N: int, d: int, delta, k: int, m: int, regime: str = "auto") -> BoundValue:
    """Union bound on the probability that some k-subset of left vertices has
    fewer than m right neighbors in the overlay model on N vertices.

    The value is C(N, m-1) * (C(m-1, k)/C(N, k))^d times the pinned-edge sum
    over i = 0..k; with delta = 0 the sum collapses to C(N, k).
    """
    delta = as_fraction(delta)
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not 0 <= delta < 1:
        raise ValueError(f"expansion bound needs 0 <= delta < 1, got {delta}")
    if not 1 <= k <= N:
        raise ValueError(f"k={k} outside 1..{N}")
    if not 1 <= m <= N:
        raise ValueError(f"m={m} outside 1..{N}")
    return _union_bound(N, d, k, m, math.floor(delta * N), N, m - 1, regime)


def binom_ratio_bound(n: int, k: int, m: int) -> Fraction:
    """The bound (k/(n-k+m))^m on C(n, k-m)/C(n, k), valid for n+m > 2k > 2m.

    The true ratio is verified against the bound before returning it.
    """
    if not (n + m > 2 * k > 2 * m >= 0):
        raise ValueError(f"need n+m > 2k > 2m >= 0, got n={n}, k={k}, m={m}")
    bound = Fraction(k, n - k + m) ** m
    ratio = Fraction(comb0(n, k - m), comb0(n, k))
    if ratio > bound:
        raise ArithmeticError(f"ratio {ratio} exceeds bound {bound} for n={n}, k={k}, m={m}")
    return bound


def alpha_coefficients(n: int, r: int) -> list[int]:
    """Inclusion-exclusion weights alpha_0..alpha_r over all right-sets of
    size at most r.

    The closed form (-1)^(r-k) * C(n, k) * C(n-k-1, r-k) is cross-checked
    against the defining double sum; r = n has no closed form and falls back
    to the double sum.
    """
    if not 0 <= r <= n:
        raise ValueError(f"r={r} outside 0..{n}")
    row = [math.comb(n, i) for i in range(r + 1)]
    # the sign of C(n, i) * C(i, k) is + at i = k and flips with each step
    double = [
        sum(row[i] * math.comb(i, k) for i in range(k, r + 1, 2))
        - sum(row[i] * math.comb(i, k) for i in range(k + 1, r + 1, 2))
        for k in range(r + 1)
    ]
    if r <= n - 1:
        closed = [(-1) ** (r - k) * comb0(n, k) * comb0(n - k - 1, r - k) for k in range(r + 1)]
        if closed != double:
            raise ArithmeticError(f"coefficient forms disagree for n={n}, r={r}")
        return closed
    return double


def _check_plr_args(n: int, ell: int, r: int, d: int) -> None:
    """The domain of the at-most-r-neighbors event: a nonempty left ell-set,
    an r below n, so the event is not certain, and at least one overlay."""
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside 1..{n}")
    if not 0 <= r <= n - 1:
        raise ValueError(f"r={r} outside 0..{n - 1}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


def exact_plr(n: int, ell: int, r: int, d: int) -> Fraction:
    """Exact probability that a fixed left ell-subset has at most r distinct
    right neighbors under d independent permutation overlays.

    Computed as sum over k of alpha_k * p_k in rational arithmetic, with
    p_k = (C(k, ell)/C(n, ell))^d the probability that all d images land
    inside a fixed k-subset: the integers alpha_k * C(k, ell)^d are summed
    over the one denominator C(n, ell)^d.
    """
    _check_plr_args(n, ell, r, d)
    alphas = alpha_coefficients(n, r)
    top = sum(alpha * math.comb(k, ell) ** d for k, alpha in enumerate(alphas))
    total = Fraction(top, math.comb(n, ell) ** d)
    if not 0 <= total <= 1:
        raise ArithmeticError(f"probability {total} outside [0, 1] for n={n}, ell={ell}, r={r}, d={d}")
    return total


def bassalygo_bound(n: int, ell: int, r: int, d: int) -> Fraction:
    """Union bound C(n, r) * (C(r, ell)/C(n, ell))^d on the same event as
    :func:`exact_plr`.

    For n <= 60, where it is cheap, the dominance over the exact value is
    verified as well.
    """
    _check_plr_args(n, ell, r, d)
    bound = comb0(n, r) * Fraction(comb0(r, ell), comb0(n, ell)) ** d
    if n <= 60:
        exact = exact_plr(n, ell, r, d)
        if exact > bound:
            raise ArithmeticError(f"exact value {exact} exceeds bound {bound}")
    return bound


def boolean_identity_check(n: int, r: int, q) -> bool:
    """Exact check that the inclusion-exclusion weights reproduce the binomial
    tail: sum_k alpha_k q^(n-k) == sum_{i<=r} C(n, i) (1-q)^i q^(n-i)."""
    q = as_fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"q={q} outside [0, 1]")
    alphas = alpha_coefficients(n, r)
    lhs = sum(alpha * q ** (n - k) for k, alpha in enumerate(alphas))
    rhs = sum(comb0(n, i) * (1 - q) ** i * q ** (n - i) for i in range(r + 1))
    return lhs == rhs


def _floyd_mask(getrandbits, steps) -> int:
    """Bitmask of a uniform ell-subset of range(n) by Floyd's algorithm
    (Bentley & Floyd, CACM 30(9), 1987), where ``steps`` lists
    (j, j.bit_length(), 1 << j) for j = n-ell .. n-1.

    For each j it draws t uniform on [0, j], by rejection on
    ``getrandbits(j.bit_length())``, and adds t, or j when t is already in.
    Each ell-subset arises from exactly ell! of the n!/(n-ell)! accepted
    draw sequences.
    """
    mask = 0
    for j, width, top in steps:
        t = getrandbits(width)
        while t > j:
            t = getrandbits(width)
        bit = 1 << t
        mask |= top if mask & bit else bit
    return mask


def montecarlo_plr(n: int, ell: int, r: int, d: int, trials: int, seed: int):
    """Monte Carlo estimate of :func:`exact_plr` with its standard error.

    Each trial draws a fresh d-permutation overlay; only the images of the
    fixed ell-subset are sampled, which is distribution-equivalent, each as
    a Floyd subset draw.  All trials take consecutive draws from the one
    substream keyed by ``seed``.
    """
    _check_plr_args(n, ell, r, d)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    getrandbits = random.Random(derive_seed("mc", seed)).getrandbits
    steps = [(j, j.bit_length(), 1 << j) for j in range(n - ell, n)]
    hits = 0
    for _ in range(trials):
        u = 0
        for _ in range(d):
            u |= _floyd_mask(getrandbits, steps)
        if u.bit_count() <= r:
            hits += 1
    est = hits / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return est, stderr


def empirical_expansion_failure(
    N: int, d: int, delta, k: int, m: int, samples: int, seed: int, budget: int = 10_000_000
):
    """Frequency, over seeded graph samples, of some k-subset having fewer
    than m neighbors.  Returns (frequency, failures, samples)."""
    from .randgraph import min_expansion, sample_g

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    failures = 0
    for s in range(samples):
        g = sample_g(N, d, delta, derive_seed("emp-exp", seed, s))
        value, _ = min_expansion(g, k, budget)
        if value < m:
            failures += 1
    return failures / samples, failures, samples


def plr_table(rows, trials: int = 0, seed: int = 0) -> str:
    """CSV table comparing exact, union-bound and Monte Carlo values.

    ``rows`` is an iterable of (n, ell, r, d).  Exact values print as
    "num/den"; the Monte Carlo columns stay empty when trials == 0.
    """
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "ell", "r", "d", "exact", "bassalygo", "montecarlo", "stderr"])
    for n, ell, r, d in rows:
        exact = exact_plr(n, ell, r, d)
        bound = bassalygo_bound(n, ell, r, d)
        if trials:
            est, stderr = montecarlo_plr(n, ell, r, d, trials, seed)
            mc, se = f"{est:.6f}", f"{stderr:.6f}"
        else:
            mc, se = "", ""
        ratios = [f"{x.numerator}/{x.denominator}" for x in (exact, bound)]
        writer.writerow([n, ell, r, d, *ratios, mc, se])
    return buf.getvalue()
