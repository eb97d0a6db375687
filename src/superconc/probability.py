"""Failure probabilities for expansion properties of the permutation-overlay
model: union-bound estimates, an exact inclusion-exclusion formula, and
brute-force / Monte Carlo oracles.

Everything that involves an alternating sum is computed in exact rational
arithmetic; floating point would lose the cancellation.  The positive-sum
union bounds switch to log-domain floats above ``EXACT_LIMIT`` so they stay
usable for large n, and every result records which regime produced it.
"""

from __future__ import annotations

import io
import csv as _csv
import math
import random
from collections import namedtuple
from fractions import Fraction

from . import derive_seed
from .entropy import log_binomial
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


def _log_fraction(x: Fraction) -> float:
    if x == 0:
        return float("-inf")
    return math.log(x.numerator) - math.log(x.denominator)


def _logsumexp(terms) -> float:
    peak = max(terms, default=float("-inf"))
    if peak == float("-inf"):
        return peak
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


class BoundValue(namedtuple("BoundValue", "log_value exact regime")):
    """A probability bound, as a natural log plus the exact rational when the
    instance was small enough to afford one; ``regime`` is "exact" or "log"."""

    __slots__ = ()

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def _resolve_regime(n: int, regime: str) -> str:
    if regime == "auto":
        return "exact" if n <= EXACT_LIMIT else "log"
    if regime in ("exact", "log"):
        return regime
    raise ValueError(f"unknown regime {regime!r}")


def _union_bound(N, d, k, m, pinned, sets, reach, regime) -> BoundValue:
    """C(sets, m-1) * (C(reach, k)/C(N, k))^d times the pinned-edge sum over i
    of C(pinned, i) * C(N-pinned, k-i) * C(m-1, i) / C(N, i), whose terms
    past i = min(k, m-1) vanish; exact or in logs as the regime resolves."""
    top = min(k, m - 1) + 1
    if _resolve_regime(N, regime) == "exact":
        ratio = Fraction(comb0(reach, k), comb0(N, k)) ** d
        total = sum(
            Fraction(comb0(pinned, i) * comb0(N - pinned, k - i) * comb0(m - 1, i), comb0(N, i))
            for i in range(top)
        )
        exact = comb0(sets, m - 1) * ratio * total
        return BoundValue(_log_fraction(exact), exact, "exact")
    base = log_binomial(sets, m - 1) + d * (log_binomial(reach, k) - log_binomial(N, k))
    terms = [
        log_binomial(pinned, i)
        + log_binomial(N - pinned, k - i)
        + log_binomial(m - 1, i)
        - log_binomial(N, i)
        for i in range(top)
    ]
    return BoundValue(base + _logsumexp(terms), None, "log")


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
    double = [
        sum((-1) ** (i - k) * comb0(n, i) * comb0(i, k) for i in range(k, r + 1))
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
    inside a fixed k-subset.
    """
    _check_plr_args(n, ell, r, d)
    alphas = alpha_coefficients(n, r)
    cn = comb0(n, ell)
    total = sum((alpha * Fraction(comb0(k, ell), cn) ** d for k, alpha in enumerate(alphas)), Fraction(0))
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


def _floyd_mask(getrandbits, n: int, ell: int) -> int:
    """Bitmask of a uniform ell-subset of range(n) by Floyd's algorithm
    (Bentley & Floyd, CACM 30(9), 1987).

    For j = n-ell .. n-1 it draws t uniform on [0, j], by rejection on
    ``getrandbits(j.bit_length())``, and adds t, or j when t is already in.
    Each ell-subset arises from exactly ell! of the n!/(n-ell)! accepted
    draw sequences.
    """
    mask = 0
    for j in range(n - ell, n):
        width = j.bit_length()
        t = getrandbits(width)
        while t > j:
            t = getrandbits(width)
        bit = 1 << t
        mask |= (1 << j) if mask & bit else bit
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
    hits = 0
    for _ in range(trials):
        u = 0
        for _ in range(d):
            u |= _floyd_mask(getrandbits, n, ell)
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
        writer.writerow(
            [
                n,
                ell,
                r,
                d,
                f"{exact.numerator}/{exact.denominator}",
                f"{bound.numerator}/{bound.denominator}",
                mc,
                se,
            ]
        )
    return buf.getvalue()
