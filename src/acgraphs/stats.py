"""Exact combinatorial references and goodness-of-fit tests.

Reference distributions (cycle counts of uniform permutations, derived
from Stirling numbers of the first kind) are exact rationals; floating
point enters only in the chi-squared tail, whose critical values come
from a series/continued-fraction evaluation of the regularized lower
incomplete gamma function rather than a lookup table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import PreconditionError, ResourceCapError
from .subgroups import BLOCK_CELLS

POOL_MIN_EXPECTED = 5.0
ALPHA = 0.05  # significance level of every chi-squared test
STIRLING_CAP = 1_000  # largest n of a Stirling row: row 1,000 takes about 0.2 s
INSUFFICIENT_SAMPLES = "insufficient samples"


class InsufficientSamplesError(PreconditionError):
    """Too few samples for a chi-squared test: pooling left one bin."""


@lru_cache(maxsize=1)
def _stirling_row(n: int) -> tuple[int, ...]:
    """s(n, 0..n), built up row by row from s(0, 0) = 1; only the last row
    is kept, and the cache holds the row last asked for."""
    if n > STIRLING_CAP:
        raise ResourceCapError("stirling_row", n, STIRLING_CAP)
    row = [1]
    for m in range(1, n + 1):
        # s(m, c) = s(m-1, c-1) + (m-1) * s(m-1, c)
        row = [0, *(a + (m - 1) * b for a, b in zip(row, row[1:])), row[-1]]
    return tuple(row)


def stirling_first(n: int, c: int) -> int:
    """Unsigned Stirling number of the first kind: permutations of n
    points with exactly c cycles.  Out-of-range c yields 0 by convention;
    n above ``STIRLING_CAP`` is a ``ResourceCapError``."""
    if n < 0:
        raise PreconditionError("n must be >= 0")
    if c < 0 or c > n:
        return 0
    return _stirling_row(n)[c]


@dataclass(frozen=True)
class CycleDistribution:
    """Exact distribution of cycle counts over Sym_n or Alt_n."""

    n: int
    parity: str  # "all" | "even"
    support: tuple[tuple[int, Fraction], ...]  # (cycle count, probability)

    def probabilities(self) -> dict[int, Fraction]:
        return dict(self.support)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "parity": self.parity,
            "support": [
                {
                    "cycles": c,
                    "numerator": p.numerator,
                    "denominator": p.denominator,
                }
                for c, p in self.support
            ],
        }


def cycle_distribution(n: int, parity: str = "all") -> CycleDistribution:
    """Cycle-count distribution of a uniform permutation of n points;
    parity "even" restricts to the even permutations (sign is determined
    by n minus the cycle count)."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if parity not in ("all", "even"):
        raise PreconditionError(f"parity must be 'all' or 'even', got {parity!r}")
    counts = {
        c: stirling_first(n, c)
        for c in range(1, n + 1)
        if parity == "all" or (n - c) % 2 == 0
    }
    counts = {c: v for c, v in counts.items() if v}
    total = sum(counts.values())
    support = tuple((c, Fraction(v, total)) for c, v in sorted(counts.items()))
    return CycleDistribution(n, parity, support)


# -- regularized incomplete gamma (for the chi-squared tail) -------------------------


def _gamma_p_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    n = a
    for _ in range(500):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-15:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz's algorithm for the continued fraction of Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function."""
    if a <= 0:
        raise PreconditionError("shape parameter must be positive")
    if x < 0:
        raise PreconditionError("x must be >= 0")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chi2_cdf(x: float, dof: int) -> float:
    return regularized_gamma_p(dof / 2.0, x / 2.0)


def chi2_critical(dof: int) -> float:
    """Upper critical value: smallest x with CDF(x) >= 1 - ALPHA (bisection)."""
    if dof < 1:
        raise PreconditionError("dof must be >= 1")
    target = 1.0 - ALPHA
    lo, hi = 0.0, max(10.0, 4.0 * dof)
    while chi2_cdf(hi, dof) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, dof) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Chi2Report:
    statistic: float
    dof: int
    critical: float
    passed: bool
    pooled_bins: int

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "dof": self.dof,
            "critical95": self.critical,
            "alpha": ALPHA,
            "pass": self.passed,
            "pooledBins": self.pooled_bins,
        }


def chi_squared_test(
    observed: Mapping, expected: Mapping | CycleDistribution
) -> Chi2Report:
    """Pearson chi-squared against exact expected probabilities.

    Bins whose expected count falls below 5 are pooled, smallest expected
    first, before computing the statistic; dof = bins - 1.
    """
    if isinstance(expected, CycleDistribution):
        expected = expected.probabilities()
    if not observed:
        raise PreconditionError("empty observed histogram")
    extra = set(observed) - set(expected)
    if extra:
        raise PreconditionError(f"observed values outside expected support: {extra}")
    total = sum(observed.values())
    if total <= 0:
        raise PreconditionError("observed histogram has no mass")
    bins = sorted(
        (float(Fraction(p) * total), float(observed.get(key, 0)))
        for key, p in expected.items()
    )
    while len(bins) > 1 and bins[0][0] < POOL_MIN_EXPECTED:
        (e0, o0), (e1, o1) = bins[0], bins[1]
        bins = sorted([(e0 + e1, o0 + o1)] + bins[2:])
    if len(bins) < 2:
        raise InsufficientSamplesError(
            f"{INSUFFICIENT_SAMPLES}: fewer than two bins after pooling"
        )
    stat = sum((o - e) ** 2 / e for e, o in bins)
    dof = len(bins) - 1
    crit = chi2_critical(dof)
    return Chi2Report(stat, dof, crit, stat < crit, len(bins))


def chi2_json(test: Callable[[], Chi2Report]) -> dict | str:
    """JSON of the test's report, or ``"insufficient samples"`` when the
    sample is too small to leave two bins after pooling."""
    try:
        return test().to_json()
    except InsufficientSamplesError:
        return INSUFFICIENT_SAMPLES


def histogram(values: np.ndarray) -> dict[int, int]:
    """Counts of the non-negative integers in ``values``, keys ascending."""
    counts = np.bincount(values)
    return {int(v): int(counts[v]) for v in np.flatnonzero(counts)}


def census(values: np.ndarray) -> dict[int, Fraction]:
    """Exact law of the non-negative integers in ``values``: each one's
    share of them, keys ascending."""
    hist = histogram(values)
    total = sum(hist.values())
    return {v: Fraction(c, total) for v, c in hist.items()}


def cycle_counts(images: np.ndarray) -> np.ndarray:
    """Cycle count, fixed points included, of each row of point images.

    Gathers through the first n - 1 powers track each point's least orbit
    member; a cycle is a point equal to it.  Each power is one flat gather
    with row offsets, over a block of rows whose int64 index, power, least
    members and next power together fit ``BLOCK_CELLS`` int64 cells."""
    m, n = images.shape
    points = np.arange(n, dtype=images.dtype)
    rows = max(1, BLOCK_CELLS // (4 * max(n, 1)))
    offsets = np.arange(min(rows, m))[:, None] * n
    counts = np.empty(m, dtype=np.intp)
    for start in range(0, m, rows):
        block = images[start : start + rows]
        flat, off = block.ravel(), offsets[: len(block)]
        power, least = block, np.minimum(block, points)
        for _ in range(n - 2):
            power = flat[power + off]
            np.minimum(least, power, out=least)
        counts[start : start + rows] = np.count_nonzero(least == points, axis=1)
    return counts


def point_action_uniformity(images: np.ndarray, n: int) -> Chi2Report:
    """Chi-squared of the image of the first point under each sample (a
    row of point images) against the uniform distribution on the n points."""
    if not len(images):
        raise PreconditionError("no samples")
    if images.ndim != 2 or images.shape[1] != n:
        raise PreconditionError(f"expected degree-{n} permutations")
    uniform = {point: Fraction(1, n) for point in range(n)}
    return chi_squared_test(histogram(images[:, 0]), uniform)


def tv_distance(observed: Mapping, support_size: int) -> Fraction:
    """Total-variation distance between the histogram's empirical
    distribution and uniform over ``support_size`` outcomes (exact)."""
    if support_size < 1:
        raise PreconditionError("support size must be >= 1")
    if len(observed) > support_size:
        raise PreconditionError("histogram has more keys than the support")
    total = sum(observed.values())
    if total <= 0:
        raise PreconditionError("zero total count")
    # (sum over the keys of |c/T - 1/m|, plus 1/m per missing key) / 2, over
    # the one denominator 2Tm
    gaps = sum(abs(c * support_size - total) for c in observed.values())
    return Fraction(gaps + (support_size - len(observed)) * total, 2 * total * support_size)
