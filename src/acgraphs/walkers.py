"""Randomized samplers over tuple graphs.

The core sampler is the AC-replacement walk: a nearest-neighbor walk on
the AC graph whose only step is "multiply one component by another
component, optionally conjugated by a random group element, on a random
side with a random sign", with an optional running cumulative product
that is returned instead of a tuple component.  The plain
product-replacement walk (Nielsen moves only) and a Cayley-graph walk
over a union of conjugacy classes are provided for comparison.

Three implementations share the step distribution:

* ``acr_step``/``acr_sample`` - the scalar reference, one walker;
* ``_acr_batch_table`` - vectorized in element-index space over the
  product table every enumerated group carries;
* ``_acr_batch_permutation`` - vectorized on permutation image arrays
  (Sym_n ambients of any degree, no enumeration).

``acr_sample_many`` picks the table kernel for enumerated groups and the
permutation kernel for ambients, and falls back to the scalar walk only
for word conjugators and the full move set; ``pra_sample_many`` always
runs the table kernel.  The scalar path is the contract, the batch paths
exist because statistical validation wants tens of thousands of
independent walkers.

All randomness flows through a caller-supplied ``numpy.random.Generator``
(seedable, splittable via ``spawn``); nothing reads outside entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .elements import GroupElement, Permutation, identity_like
from .errors import PreconditionError
from .groups import FiniteGroup, SymmetricAmbient
from .stats import (
    INSUFFICIENT_SAMPLES,
    Chi2Report,
    InsufficientSamplesError,
    chi_squared_test,
    tv_distance,
)
from .subgroups import Subgroup, conjugation_orbit, get_join_oracle


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
        return {
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


@dataclass
class WalkState:
    tuple_elements: tuple[GroupElement, ...]
    cumulative: GroupElement
    steps: int
    rng: np.random.Generator


def make_state(
    init: Sequence[GroupElement], rng: np.random.Generator
) -> WalkState:
    init = tuple(init)
    return WalkState(init, identity_like(init[0]), 0, rng)


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


def _random_conjugator(
    group: GroupContext, cfg: WalkConfig, rng: np.random.Generator
) -> GroupElement:
    if cfg.conjugator_word_length is None:
        return group.random_element(rng)
    if not isinstance(group, FiniteGroup):
        raise PreconditionError("word-mode conjugators need an enumerated group")
    gens = list(group.generator_elements())
    gens += [g.inverse() for g in gens]
    if not gens:
        return group.identity_element
    w = group.identity_element
    for choice in rng.integers(len(gens), size=cfg.conjugator_word_length):
        w = w * gens[int(choice)]
    return w


def _distinct_pair(k: int, rng: np.random.Generator) -> tuple[int, int]:
    i = int(rng.integers(k))
    j = int(rng.integers(k - 1))
    if j >= i:
        j += 1
    return i, j


def acr_step(state: WalkState, cfg: WalkConfig, group: GroupContext) -> WalkState:
    """One AC-replacement step; mutates nothing, advances the shared rng."""
    rng = state.rng
    t = list(state.tuple_elements)
    if cfg.full_move_set:
        move = int(rng.integers(4))
        if move >= 2:
            i = int(rng.integers(cfg.k))
            if move == 2:
                t[i] = t[i].inverse()
            else:
                t[i] = t[i].conjugate_by(_random_conjugator(group, cfg, rng))
            cum = state.cumulative * t[i] if cfg.use_cumulative else state.cumulative
            return replace(
                state, tuple_elements=tuple(t), cumulative=cum, steps=state.steps + 1
            )
        plain = move == 0
    else:
        plain = bool(rng.random() < cfg.plain_move_probability)
    i, j = _distinct_pair(cfg.k, rng)
    left = bool(rng.integers(2))
    invert = bool(rng.integers(2))
    y = t[j]
    if not plain:
        y = y.conjugate_by(_random_conjugator(group, cfg, rng))
    if invert:
        y = y.inverse()
    t[i] = (y * t[i]) if left else (t[i] * y)
    cum = state.cumulative * t[i] if cfg.use_cumulative else state.cumulative
    return replace(
        state, tuple_elements=tuple(t), cumulative=cum, steps=state.steps + 1
    )


def _check_acr_init(
    group: GroupContext, normal: Subgroup | None, init: Sequence[GroupElement]
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
        if n < 5:
            raise PreconditionError("ambient walks need degree >= 5 (simple Alt_n)")
        for e in init:
            if not isinstance(e, Permutation) or e.degree != n or e.sign() < 0:
                raise PreconditionError("initial components must be even, degree n")
        if all(e.is_identity() for e in init):
            raise PreconditionError("the identity tuple is not a vertex")


def acr_sample(
    group: GroupContext,
    normal: Subgroup | None,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
) -> GroupElement:
    """Run one walk for the configured budget; return the cumulative
    product, or a uniformly chosen tuple component if not cumulative."""
    _check_acr_init(group, normal, init)
    state = make_state(init, rng)
    for _ in range(cfg.step_budget):
        state = acr_step(state, cfg, group)
    if cfg.use_cumulative:
        return state.cumulative
    return state.tuple_elements[int(rng.integers(cfg.k))]


def pra_step(state: WalkState, cfg: WalkConfig) -> WalkState:
    """One product-replacement (plain Nielsen multiplication) step."""
    rng = state.rng
    t = list(state.tuple_elements)
    i, j = _distinct_pair(cfg.k, rng)
    left = bool(rng.integers(2))
    invert = bool(rng.integers(2))
    y = t[j].inverse() if invert else t[j]
    t[i] = (y * t[i]) if left else (t[i] * y)
    cum = state.cumulative * t[i] if cfg.use_cumulative else state.cumulative
    return replace(
        state, tuple_elements=tuple(t), cumulative=cum, steps=state.steps + 1
    )


def pra_sample(
    group: FiniteGroup,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
) -> GroupElement:
    """Product-replacement sampler over generating tuples of the group."""
    oracle = get_join_oracle(group, "plain")
    idx = [group.index_of(e) for e in init]
    if not oracle.generates(idx):
        raise PreconditionError("initial tuple does not generate the group")
    state = make_state(init, rng)
    for _ in range(cfg.step_budget):
        state = pra_step(state, cfg)
    if cfg.use_cumulative:
        return state.cumulative
    return state.tuple_elements[int(rng.integers(cfg.k))]


def cayley_class_walk(
    group: FiniteGroup,
    normal: Subgroup,
    seeds: Sequence[int],
    budget: int,
    rng: np.random.Generator,
) -> GroupElement:
    """Nearest-neighbor walk on the Cayley graph of N with respect to the
    union of the ambient conjugacy classes of the seeds, from the identity."""
    oracle = get_join_oracle(group, "normal")
    if oracle.members_of(oracle.join_of_indices(seeds)) != normal.member_set:
        raise PreconditionError("seeds do not normally generate N")
    union: set[int] = set()
    for s in set(seeds):
        union |= conjugation_orbit(group, s)
    steps = sorted(union)
    pos = 0
    for choice in rng.integers(len(steps), size=budget):
        pos = group.mul(pos, steps[int(choice)])
    return group.elements[pos]


# -- vectorized kernels ------------------------------------------------------------


def _perm_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rowwise left-to-right product of image arrays: (u*v)[x] = v[u[x]]."""
    return np.take_along_axis(v, u, axis=1)


def _perm_inv(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    np.put_along_axis(out, u, np.broadcast_to(np.arange(u.shape[1]), u.shape), axis=1)
    return out


def _random_perms(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    return np.argsort(rng.random((m, n)), axis=1)


def _acr_batch_permutation(
    degree: int,
    init: Sequence[Permutation],
    cfg: WalkConfig,
    walkers: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent ACR walkers over Sym_n, image-array state.

    Returns (walkers, degree) outputs (cumulative products or random
    components per the config).
    """
    n, k, w = degree, cfg.k, walkers
    state = np.empty((k, w, n), dtype=np.int64)
    for c, el in enumerate(init):
        state[c] = np.tile(np.array(el.images, dtype=np.int64), (w, 1))
    cum = np.tile(np.arange(n, dtype=np.int64), (w, 1))
    rows = np.arange(w)
    for _ in range(cfg.step_budget):
        i = rng.integers(k, size=w)
        j = rng.integers(k - 1, size=w)
        j = j + (j >= i)
        plain = rng.random(w) < cfg.plain_move_probability
        left = rng.integers(2, size=w).astype(bool)
        invert = rng.integers(2, size=w).astype(bool)
        xi = state[i, rows]
        y = state[j, rows].copy()
        conj_rows = np.flatnonzero(~plain)
        if conj_rows.size:
            ws = _random_perms(len(conj_rows), n, rng)
            sub = y[conj_rows]
            y[conj_rows] = _perm_mul(_perm_mul(_perm_inv(ws), sub), ws)
        inv_rows = np.flatnonzero(invert)
        if inv_rows.size:
            y[inv_rows] = _perm_inv(y[inv_rows])
        new = np.where(left[:, None], _perm_mul(y, xi), _perm_mul(xi, y))
        state[i, rows] = new
        if cfg.use_cumulative:
            cum = _perm_mul(cum, new)
    if cfg.use_cumulative:
        return cum
    r = rng.integers(k, size=w)
    return state[r, rows]


def _acr_batch_table(
    group: FiniteGroup,
    init_idx: Sequence[int],
    cfg: WalkConfig,
    walkers: int,
    rng: np.random.Generator,
    *,
    nielsen_only: bool = False,
) -> np.ndarray:
    """Independent walkers in element-index space over the product table."""
    mul = group.mul_table.astype(np.int64)
    inv = group.inv_array
    k, w = cfg.k, walkers
    state = np.tile(np.array(init_idx, dtype=np.int64)[:, None], (1, w))
    cum = np.zeros(w, dtype=np.int64)
    rows = np.arange(w)
    for _ in range(cfg.step_budget):
        i = rng.integers(k, size=w)
        j = rng.integers(k - 1, size=w)
        j = j + (j >= i)
        left = rng.integers(2, size=w).astype(bool)
        invert = rng.integers(2, size=w).astype(bool)
        xi = state[i, rows]
        y = state[j, rows].copy()
        if not nielsen_only:
            plain = rng.random(w) < cfg.plain_move_probability
            conj_rows = np.flatnonzero(~plain)
            if conj_rows.size:
                ws = rng.integers(group.order, size=len(conj_rows))
                y[conj_rows] = mul[mul[inv[ws], y[conj_rows]], ws]
        y = np.where(invert, inv[y], y)
        new = np.where(left, mul[y, xi], mul[xi, y])
        state[i, rows] = new
        if cfg.use_cumulative:
            cum = mul[cum, new]
    if cfg.use_cumulative:
        return cum
    r = rng.integers(k, size=w)
    return state[r, rows]


def acr_sample_many(
    group: GroupContext,
    normal: Subgroup | None,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
    samples: int,
) -> list[GroupElement]:
    """`samples` independent ACR walks, batch kernel when one applies."""
    _check_acr_init(group, normal, init)
    if cfg.conjugator_word_length is None and not cfg.full_move_set:
        if isinstance(group, SymmetricAmbient):
            out = _acr_batch_permutation(group.degree, init, cfg, samples, rng)
            return [Permutation(int(x) for x in row) for row in out]
        idx = [group.index_of(e) for e in init]
        out = _acr_batch_table(group, idx, cfg, samples, rng)
        return [group.elements[int(i)] for i in out]
    return [acr_sample(group, normal, init, cfg, rng) for _ in range(samples)]


def pra_sample_many(
    group: FiniteGroup,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
    samples: int,
) -> list[GroupElement]:
    """`samples` independent PRA walks on the table kernel."""
    oracle = get_join_oracle(group, "plain")
    idx = [group.index_of(e) for e in init]
    if not oracle.generates(idx):
        raise PreconditionError("initial tuple does not generate the group")
    out = _acr_batch_table(group, idx, cfg, samples, rng, nielsen_only=True)
    return [group.elements[int(i)] for i in out]


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


def mixing_diagnostic(
    samples: Sequence[GroupElement], subgroup: Subgroup
) -> MixingReport:
    """Empirical distance of a sample to uniform over an enumerated
    subgroup: exact TV distance plus a chi-squared uniformity test."""
    if not samples:
        raise PreconditionError("empty sample")
    group = subgroup.group
    hist: dict[int, int] = {}
    for s in samples:
        i = group.index_of(s)
        if i not in subgroup.member_set:
            raise PreconditionError(f"sample {s!r} is outside the subgroup")
        hist[i] = hist.get(i, 0) + 1
    tv = tv_distance(hist, subgroup.order)
    uniform = {m: Fraction(1, subgroup.order) for m in subgroup.members}
    try:
        chi2 = chi_squared_test(hist, uniform)
    except InsufficientSamplesError:
        chi2 = None
    return MixingReport(len(samples), subgroup.order, tv, chi2)
