"""Randomized samplers over tuple graphs.

The core sampler is the AC-replacement walk: a nearest-neighbor walk on
the AC graph whose only step is "multiply one component by another
component, optionally conjugated by a random group element, on a random
side with a random sign", with an optional running cumulative product
that is returned instead of a tuple component.  The plain
product-replacement walk (Nielsen moves only) and a Cayley-graph walk
over a union of conjugacy classes are provided for comparison.

``_batch_walk`` runs many independent walkers at once over a small
arithmetic: element indices and product-table gathers for enumerated
groups, rows of point images and flat gathers for Sym_n ambients of any
degree (no enumeration).  It is a walk's only element arithmetic: the
start tuple's objects are read once, as indices or image rows, and the
ambient's vertex test is one ``stats.cycle_counts`` over those rows.  The
``*_many`` samplers and ``cayley_class_walk`` return element indices for
enumerated groups and image rows for the ambient.  The test suite keeps a
scalar walker on element objects as the reference for the kernel's step
law.

All randomness flows through a caller-supplied ``numpy.random.Generator``
(seedable, splittable via ``spawn``); nothing reads outside entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .elements import GroupElement, Permutation
from .errors import PreconditionError
from .groups import FiniteGroup, SymmetricAmbient
from .stats import (
    INSUFFICIENT_SAMPLES,
    Chi2Report,
    InsufficientSamplesError,
    chi_squared_test,
    cycle_counts,
    histogram,
    tv_distance,
)
from .subgroups import BLOCK_CELLS, Subgroup, class_union, get_join_oracle


@dataclass(frozen=True)
class WalkConfig:
    """Parameters of a sampling walk.

    ``plain_move_probability`` splits each step between the plain
    multiplication branch and the conjugated branch (the four side/sign
    variants inside a branch are equiprobable).  ``conjugator_word_length``
    switches conjugator sampling from uniform-over-G to a random word of
    that length over the generators and their inverses (the black-box
    reading).  ``full_move_set`` adds inversion and pure-conjugation
    steps, which belong to the graph but not to the sampler proper.
    """

    k: int
    step_budget: int
    use_cumulative: bool = True
    plain_move_probability: float = 0.5
    conjugator_word_length: int | None = None
    full_move_set: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise PreconditionError("replacement walks need k >= 2 (distinct i, j)")
        if self.step_budget < 0:
            raise PreconditionError("step budget must be >= 0")
        if not (0.0 <= self.plain_move_probability <= 1.0):
            raise PreconditionError("plain_move_probability must be a probability")
        if self.conjugator_word_length is not None and self.conjugator_word_length < 1:
            raise PreconditionError("conjugator word length must be >= 1")

    def to_json(self) -> dict:
        """The settings an ACR walk reads; a full move set draws its four
        moves alike, so it reads no plain-move probability."""
        out = {
            "k": self.k,
            "stepBudget": self.step_budget,
            "useCumulative": self.use_cumulative,
            "plainMoveProbability": self.plain_move_probability,
            "conjugatorSource": (
                "uniform"
                if self.conjugator_word_length is None
                else {"randomWord": self.conjugator_word_length}
            ),
            "fullMoveSet": self.full_move_set,
        }
        if self.full_move_set:
            del out["plainMoveProbability"]
        return out


def default_step_budget(
    k: int, *, degree: int | None = None, subgroup_order: int | None = None
) -> int:
    """k * n * ceil(log2 n) for degree-n permutation targets, otherwise
    4 * k * ceil(log2 |N|)."""
    if degree is not None:
        return k * degree * max(1, math.ceil(math.log2(max(degree, 2))))
    if subgroup_order is not None:
        return 4 * k * max(1, math.ceil(math.log2(max(subgroup_order, 2))))
    raise PreconditionError("need a degree or a subgroup order to size the budget")


GroupContext = FiniteGroup | SymmetricAmbient


def _check_acr_init(
    group: GroupContext, normal: Subgroup | None, init: Sequence[GroupElement],
    cfg: WalkConfig,
) -> None:
    if isinstance(group, FiniteGroup):
        if normal is None:
            raise PreconditionError("enumerated walks need the target subgroup")
        oracle = get_join_oracle(group, "normal")
        idx = [group.index_of(e) for e in init]
        if any(i not in normal.member_set for i in idx):
            raise PreconditionError("initial tuple leaves the normal subgroup")
        if oracle.members_of(oracle.join_of_indices(idx)) != normal.member_set:
            raise PreconditionError("initial tuple does not normally generate N")
    else:
        # Sym_n ambient, target Alt_n (simple for n >= 5): a tuple of even
        # permutations is a vertex iff some component is non-identity
        n = group.degree
        if cfg.conjugator_word_length is not None:
            raise PreconditionError("word-mode conjugators need an enumerated group")
        if n < 5:
            raise PreconditionError("ambient walks need degree >= 5 (simple Alt_n)")
        if any(not isinstance(e, Permutation) or e.degree != n for e in init):
            raise PreconditionError("initial components must be even, degree n")
        cycles = cycle_counts(np.array([e.images for e in init]).reshape(len(init), n))
        if ((n - cycles) % 2).any():
            raise PreconditionError("initial components must be even, degree n")
        if (cycles == n).all():
            raise PreconditionError("the identity tuple is not a vertex")


def _check_pra_init(group: FiniteGroup, init: Sequence[GroupElement]) -> list[int]:
    idx = [group.index_of(e) for e in init]
    if not get_join_oracle(group, "plain").generates(idx):
        raise PreconditionError("initial tuple does not generate the group")
    return idx


def cayley_class_walk(
    group: FiniteGroup,
    normal: Subgroup,
    seeds: Sequence[int],
    budget: int,
    rng: np.random.Generator,
    samples: int,
) -> np.ndarray:
    """`samples` nearest-neighbor walks on the Cayley graph of N with
    respect to the union of the ambient conjugacy classes of the seeds,
    from the identity; returns their end points as element indices.  The
    steps are drawn in blocks of at most ``BLOCK_CELLS`` cells, whole rows
    or pieces of one, the stream of one ``(samples, budget)`` draw."""
    if budget < 0:
        raise PreconditionError("step budget must be >= 0")
    oracle = get_join_oracle(group, "normal")
    if oracle.members_of(oracle.join_of_indices(seeds)) != normal.member_set:
        raise PreconditionError("seeds do not normally generate N")
    steps = class_union(group, seeds)
    ends = np.zeros(samples, dtype=np.int64)
    rows = max(1, BLOCK_CELLS // max(budget, 1))
    for start in range(0, samples, rows):
        pos = ends[start : start + rows]
        for first in range(0, budget, BLOCK_CELLS):
            draws = rng.integers(len(steps), size=(pos.size, min(BLOCK_CELLS, budget - first)))
            for col in draws.T:
                pos[...] = group.mul_table[pos, steps[col]]
            del draws, col  # before the next block is drawn
    return ends


# -- the batch kernel ------------------------------------------------------------------


class _TableArithmetic:
    """Element indices of an enumerated group; products and inverses are
    table gathers, word-mode conjugators a fold over generator words, their
    letters drawn in row blocks of at most ``BLOCK_CELLS`` cells."""

    def __init__(self, group: FiniteGroup, word_length: int | None):
        self.table = group.mul_table  # gathers from the narrow table, no copy
        self.inverse = group.inv_array
        self.word_length = word_length
        gens = np.array(group.generators, dtype=np.int64)
        self.letters = np.concatenate([gens, self.inverse[gens]])

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.table[a, b]

    def inv(self, a: np.ndarray) -> np.ndarray:
        return self.inverse[a]

    def conj(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.table[self.table[self.inverse[w], y], w]

    def identity(self, m: int) -> np.ndarray:
        return np.zeros(m, dtype=np.int64)

    def random(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if self.word_length is None:
            return rng.integers(len(self.table), size=m)
        w = self.identity(m)
        if self.letters.size:
            rows = max(1, BLOCK_CELLS // max(m, 1))
            for start in range(0, self.word_length, rows):
                size = (min(rows, self.word_length - start), m)
                draws = rng.integers(self.letters.size, size=size)
                for col in draws:
                    w = self.table[w, self.letters[col]]
                del draws, col  # before the next block is drawn
        return w


class _ImageArithmetic:
    """Rows of point images of Sym_n: ``(u*v)[x] = v[u[x]]`` by one flat
    gather, the inverse by the matching scatter, the conjugate w^-1 y w by
    relabelling y's points through w, uniform elements by shuffle."""

    def __init__(self, degree: int, rows: int):
        self.offsets = np.arange(rows, dtype=np.int64)[:, None] * degree
        self.points = np.arange(degree, dtype=np.int64)

    def mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v.ravel()[u + self.offsets[: len(u)]]

    def inv(self, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out.ravel()[u + self.offsets[: len(u)]] = self.points
        return out

    def conj(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        offsets = self.offsets[: len(y)]
        out = np.empty_like(y)
        out.ravel()[w + offsets] = w.ravel()[y + offsets]  # out[w[x]] = w[y[x]]
        return out

    def identity(self, m: int) -> np.ndarray:
        return np.tile(self.points, (m, 1))

    def random(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return np.argsort(rng.random((m, len(self.points))), axis=1)


def _batch_walk(
    arith: _TableArithmetic | _ImageArithmetic,
    init: np.ndarray,
    cfg: WalkConfig,
    walkers: int,
    rng: np.random.Generator,
    *,
    nielsen_only: bool = False,
) -> np.ndarray:
    """Independent walkers from the tuple ``init`` (one element of the
    arithmetic per component); returns their cumulative products, or a
    random component each, per the config.

    Each step draws, for all walkers at once: i, j, the move (a
    plain/conjugated coin, one of the four full moves, or nothing for
    PRA), left, invert, then the conjugators of the conjugated rows.
    Full moves 2 and 3 invert or conjugate x_i itself."""
    k, w = cfg.k, walkers
    state = np.repeat(np.asarray(init, dtype=np.int64)[:, None], w, axis=1)
    cum = arith.identity(w)
    rows = np.arange(w)

    def pick(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)

    full = cfg.full_move_set and not nielsen_only
    for _ in range(cfg.step_budget):
        i = rng.integers(k, size=w)
        j = rng.integers(k - 1, size=w)
        j = j + (j >= i)
        if full:
            move = rng.integers(4, size=w)
            conjugated = move % 2 == 1
        elif not nielsen_only:
            conjugated = rng.random(w) >= cfg.plain_move_probability
        left = rng.integers(2, size=w).astype(bool)
        invert = rng.integers(2, size=w).astype(bool)
        xi = state[i, rows]
        y = state[j, rows]
        if full:
            unary = move >= 2
            y = pick(unary, xi, y)
            invert = np.where(unary, move == 2, invert)
        if not nielsen_only:
            c = np.flatnonzero(conjugated)
            if c.size:
                y[c] = arith.conj(y[c], arith.random(c.size, rng))
        r = np.flatnonzero(invert)
        y[r] = arith.inv(y[r])
        new = arith.mul(pick(left, y, xi), pick(left, xi, y))
        if full:
            new = pick(unary, y, new)
        state[i, rows] = new
        if cfg.use_cumulative:
            cum = arith.mul(cum, new)
    if cfg.use_cumulative:
        return cum.astype(np.int64)
    r = rng.integers(k, size=w)
    return state[r, rows]


def acr_sample_many(
    group: GroupContext,
    normal: Subgroup | None,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
    samples: int,
) -> np.ndarray:
    """`samples` independent ACR walks: element indices ``(samples,)``
    for an enumerated group, image rows ``(samples, n)`` for the Sym_n
    ambient."""
    _check_acr_init(group, normal, init, cfg)
    if isinstance(group, SymmetricAmbient):
        arith = _ImageArithmetic(group.degree, samples)
        start = [e.images for e in init]
    else:
        arith = _TableArithmetic(group, cfg.conjugator_word_length)
        start = [group.index_of(e) for e in init]
    return _batch_walk(arith, start, cfg, samples, rng)


def pra_sample_many(
    group: FiniteGroup,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
    samples: int,
) -> np.ndarray:
    """`samples` independent PRA walks; returns element indices."""
    idx = _check_pra_init(group, init)
    arith = _TableArithmetic(group, None)
    return _batch_walk(arith, idx, cfg, samples, rng, nielsen_only=True)


@dataclass(frozen=True)
class MixingReport:
    samples: int
    support: int
    tv: Fraction
    chi2: Chi2Report | None  # None: too few samples for the test

    @property
    def pass95(self) -> bool:
        return self.chi2 is not None and self.chi2.passed

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "support": self.support,
            "tvDistance": {
                "numerator": self.tv.numerator,
                "denominator": self.tv.denominator,
                "float": float(self.tv),
            },
            "chiSquared": (
                INSUFFICIENT_SAMPLES if self.chi2 is None else self.chi2.to_json()
            ),
        }


def mixing_diagnostic(samples: np.ndarray, subgroup: Subgroup) -> MixingReport:
    """Empirical distance of a sample of element indices to uniform over
    an enumerated subgroup: exact TV distance plus a chi-squared
    uniformity test."""
    if not len(samples):
        raise PreconditionError("empty sample")
    hist = histogram(samples)
    outside = set(hist) - subgroup.member_set
    if outside:
        raise PreconditionError(
            f"sample {subgroup.group.elements[min(outside)]!r} is outside the subgroup"
        )
    tv = tv_distance(hist, subgroup.order)
    uniform = {m: Fraction(1, subgroup.order) for m in subgroup.members}
    try:
        chi2 = chi_squared_test(hist, uniform)
    except InsufficientSamplesError:
        chi2 = None
    return MixingReport(len(samples), subgroup.order, tv, chi2)
