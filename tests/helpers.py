"""Independent brute-force oracles for the test suite.

Everything here works directly on element objects with plain Python
sets, bypassing the package's index tables, join memoization and numpy
BFS, so the main machinery is always checked against a second route.
Element objects only multiply in the package, so their inverses,
conjugates, cycle counts and parity are computed here.
The scalar ACR/PRA walker steps one walker on element objects; tests
check the batch kernel's step law against it, and
``reference_batch_walk`` keeps the batch step in its plain product form,
which the kernel must match sample for sample.  ``brute_eval_word`` folds
a word over element objects.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

import numpy as np

from acgraphs.conjecture import ALPHABET
from acgraphs.elements import AbelianTuple, GroupElement, MatrixGF, Permutation
from acgraphs.errors import PreconditionError
from acgraphs.groups import FiniteGroup
from acgraphs.subgroups import Subgroup
from acgraphs.walkers import GroupContext, WalkConfig, _check_acr_init, _check_pra_init


# -- element arithmetic on objects ---------------------------------------------------


def inverse(a: GroupElement) -> GroupElement:
    if isinstance(a, Permutation):
        r = [0] * a.degree
        for i, j in enumerate(a.images):
            r[j] = i
        return Permutation(r)
    if isinstance(a, MatrixGF):
        # det == 1, so the inverse is the adjugate
        x, y, z, t = a.entries
        return MatrixGF((t, -y, -z, x), a.modulus)
    if isinstance(a, AbelianTuple):
        return AbelianTuple((-x for x in a.residues), a.moduli)
    raise TypeError(f"not a group element: {type(a).__name__}")


def conj(a: GroupElement, w: GroupElement) -> GroupElement:
    """Conjugate a by w: returns w^-1 * a * w."""
    return inverse(w) * a * w


def apply_move(group, tup, move):
    """Apply a move, as ``GraphHandle.describe_move`` names it, to a tuple
    of element indices by hand, on element objects."""
    els = group.elements
    out = list(tup)
    i = move["i"]
    x = els[tup[i]]
    if move["type"] == "invert":
        x = inverse(x)
    elif move["type"] == "conjugate":
        x = conj(x, els[move["wIndex"]])
    else:
        y = els[tup[move["j"]]]
        y = inverse(y) if move["inverse"] else y
        x = x * y if move["type"] == "multiply_right" else y * x
    out[i] = group.index_of(x)
    return tuple(out)


def identity_like(a: GroupElement) -> GroupElement:
    if isinstance(a, Permutation):
        return Permutation(range(a.degree))
    if isinstance(a, MatrixGF):
        return MatrixGF((1, 0, 0, 1), a.modulus)
    if isinstance(a, AbelianTuple):
        return AbelianTuple((0,) * len(a.moduli), a.moduli)
    raise TypeError(f"not a group element: {type(a).__name__}")


def cycle_count(a: GroupElement) -> int:
    """Cycle count of a permutation (fixed points count as 1-cycles)."""
    if not isinstance(a, Permutation):
        raise TypeError(f"cycle_count needs a permutation, got {type(a).__name__}")
    return brute_cycle_count(a.images)


def is_even(a: Permutation) -> bool:
    """A permutation is even when its degree minus its cycle count is."""
    return (a.degree - cycle_count(a)) % 2 == 0


def brute_listing(spec: str) -> list[GroupElement]:
    """Every element of a family's group, listed from its definition: the
    even or all permutations, the determinant-1 matrices, the residue
    tuples, or the 2n symmetries i -> r + i and i -> r - i of the n-gon."""
    kind, _, arg = spec.partition(":")
    nums = [int(t) for t in arg.split(",")]
    n = nums[0]
    if kind in ("sym", "alt"):
        perms = [Permutation(p) for p in permutations(range(n))]
        return [p for p in perms if kind == "sym" or is_even(p)]
    if kind == "sl2":
        return [MatrixGF(m, n) for m in product(range(n), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % n == 1]
    if kind == "dihedral":
        return [Permutation((r + s * i) % n for i in range(n))
                for r in range(n) for s in (1, -1)]
    moduli = [] if spec == "cyclic:1" else nums
    return [AbelianTuple(r, moduli) for r in product(*map(range, moduli))]


def brute_mulclose(elements):
    """Subgroup closure by pairwise-product saturation."""
    els = set(elements)
    if not els:
        raise ValueError("need at least one element")
    els.add(identity_like(next(iter(els))))
    frontier = list(els)
    while frontier:
        new = []
        for a in list(els):
            for b in frontier:
                for c in (a * b, b * a):
                    if c not in els:
                        els.add(c)
                        new.append(c)
        frontier = new
    return els


def brute_span(identity, seeds):
    """Subgroup generated by the seeds: every product of seeds, found by
    right multiplication from the identity (in a finite group the
    semigroup they generate is already a subgroup)."""
    seeds = set(seeds)
    els = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for s in seeds:
                c = a * s
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def brute_normal_closure(group_elements, seeds):
    """Closure of all conjugates of the seeds, conjugating by everything."""
    conjugates = {conj(s, g) for s in seeds for g in group_elements}
    conjugates.add(identity_like(group_elements[0]))
    return brute_mulclose(conjugates)


def brute_classes(group_elements):
    """Conjugacy classes {x^w : w in G}, in the order of their first member
    in the listing."""
    classes, seen = [], set()
    for x in group_elements:
        if x not in seen:
            cls = {conj(x, w) for w in group_elements}
            seen |= cls
            classes.append(cls)
    return classes


def brute_center(group_elements, generators):
    """Elements that commute with every generator, hence with the group."""
    return {x for x in group_elements if all(x * s == s * x for s in generators)}


def brute_generates(group_elements, seeds):
    return len(brute_mulclose(seeds)) == len(group_elements)


def brute_normally_generates(group_elements, seeds):
    return len(brute_normal_closure(group_elements, seeds)) == len(group_elements)


def brute_cycle_count(images):
    n = len(images)
    seen = [False] * n
    count = 0
    for i in range(n):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return count


def ac_move_images(tup, group_elements, mode="full-ac", conjugators=None,
                   directed=False):
    """All raw move images of a tuple of elements (dedup, no self).

    Restricted AC conjugates by the conjugators and their inverses, or by
    the conjugators alone when ``directed``."""
    k = len(tup)
    out = set()
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for y in (tup[j], inverse(tup[j])):
                left = list(tup)
                left[i] = y * tup[i]
                out.add(tuple(left))
                right = list(tup)
                right[i] = tup[i] * y
                out.add(tuple(right))
        if mode != "nielsen":
            inv = list(tup)
            inv[i] = inverse(tup[i])
            out.add(tuple(inv))
        if mode == "full-ac":
            for w in group_elements:
                moved = list(tup)
                moved[i] = conj(tup[i], w)
                out.add(tuple(moved))
        elif mode == "restricted-ac":
            ws = list(conjugators)
            if not directed:
                ws += [inverse(w) for w in conjugators]
            for w in ws:
                moved = list(tup)
                moved[i] = conj(tup[i], w)
                out.add(tuple(moved))
    out.discard(tuple(tup))
    return out


def brute_graph(group_elements, member_elements, k, vertex_pred, mode="full-ac",
                conjugators=None, directed=False):
    """Explicit vertex set and adjacency dict (out-neighbours) from raw
    moves."""
    vertices = [
        tup for tup in product(member_elements, repeat=k) if vertex_pred(tup)
    ]
    vset = set(vertices)
    adj = {
        v: {
            u
            for u in ac_move_images(v, group_elements, mode, conjugators, directed)
            if u in vset
        }
        for v in vertices
    }
    return vertices, adj


def brute_components(vertices, adj):
    unvisited = set(vertices)
    comps = []
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in comp:
                        comp.add(u)
                        nxt.append(u)
            frontier = nxt
        unvisited -= comp
        comps.append(comp)
    return comps


def brute_distance(adj, u, v):
    if u == v:
        return 0
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    nxt.append(y)
        frontier = nxt
    return None


def brute_distances(adj, u):
    """Distances from u to every vertex it reaches."""
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def brute_diameter(adj, comp):
    return max(max(brute_distances(adj, u).values()) for u in comp)


def all_vertex_diameter(handle, codes):
    """Largest eccentricity in a component, by one BFS from every one of
    its codes (out-eccentricities, for a directed graph)."""
    codes = np.asarray(codes)
    return max(int(handle.bfs_distances([int(c)])[codes].max()) for c in codes)


def brute_tv_distance(observed, support_size):
    """Total-variation distance to uniform over ``support_size`` outcomes,
    one Fraction per histogram key."""
    total = sum(observed.values())
    u = Fraction(1, support_size)
    acc = sum(abs(Fraction(c, total) - u) for c in observed.values())
    return (acc + (support_size - len(observed)) * u) / 2


def brute_eval_word(word, images):
    """Substitute group elements for the generators; empty word gives the
    identity of the images' group."""
    if len(images) != len(ALPHABET):
        raise PreconditionError(f"need {len(ALPHABET)} images, got {len(images)}")
    acc = identity_like(images[0])
    for l in word.letters:
        g = images[abs(l) - 1]
        acc = acc * (g if l > 0 else inverse(g))
    return acc


# -- the scalar walker -------------------------------------------------------------------


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


def _random_conjugator(
    group: GroupContext, cfg: WalkConfig, rng: np.random.Generator
) -> GroupElement:
    if cfg.conjugator_word_length is None:
        if isinstance(group, FiniteGroup):
            return group.elements[int(rng.integers(group.order))]
        return Permutation(int(i) for i in rng.permutation(group.degree))
    if not isinstance(group, FiniteGroup):
        raise PreconditionError("word-mode conjugators need an enumerated group")
    gens = [group.elements[i] for i in group.generators]
    gens += [inverse(g) for g in gens]
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


def acr_step(
    state: WalkState, cfg: WalkConfig, group: GroupContext | None, *,
    nielsen_only: bool = False,
) -> WalkState:
    """One AC-replacement step, or a product-replacement step (plain
    multiplication only) if ``nielsen_only``; mutates nothing, advances
    the shared rng."""
    rng = state.rng
    t = list(state.tuple_elements)
    move = int(rng.integers(4)) if cfg.full_move_set and not nielsen_only else None
    if move is not None and move >= 2:
        i = int(rng.integers(cfg.k))
        if move == 2:
            t[i] = inverse(t[i])
        else:
            t[i] = conj(t[i], _random_conjugator(group, cfg, rng))
    else:
        if move is None:
            plain = nielsen_only or bool(rng.random() < cfg.plain_move_probability)
        else:
            plain = move == 0
        i, j = _distinct_pair(cfg.k, rng)
        left = bool(rng.integers(2))
        invert = bool(rng.integers(2))
        y = t[j]
        if not plain:
            y = conj(y, _random_conjugator(group, cfg, rng))
        if invert:
            y = inverse(y)
        t[i] = (y * t[i]) if left else (t[i] * y)
    cum = state.cumulative * t[i] if cfg.use_cumulative else state.cumulative
    return replace(
        state, tuple_elements=tuple(t), cumulative=cum, steps=state.steps + 1
    )


def _finish(state: WalkState, cfg: WalkConfig, step) -> GroupElement:
    """Run ``step`` for the budget; the cumulative product or a random component."""
    for _ in range(cfg.step_budget):
        state = step(state)
    if cfg.use_cumulative:
        return state.cumulative
    return state.tuple_elements[int(state.rng.integers(cfg.k))]


def acr_sample(
    group: GroupContext,
    normal: Subgroup | None,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
) -> GroupElement:
    """One ACR walk: its cumulative product, or a random final component."""
    _check_acr_init(group, normal, init, cfg)
    return _finish(make_state(init, rng), cfg, lambda st: acr_step(st, cfg, group))


def pra_step(state: WalkState, cfg: WalkConfig) -> WalkState:
    """One product-replacement (plain Nielsen multiplication) step."""
    return acr_step(state, cfg, None, nielsen_only=True)


def pra_sample(
    group: FiniteGroup,
    init: Sequence[GroupElement],
    cfg: WalkConfig,
    rng: np.random.Generator,
) -> GroupElement:
    """Product-replacement sampler over generating tuples of the group."""
    _check_pra_init(group, init)
    return _finish(make_state(init, rng), cfg, lambda st: pra_step(st, cfg))


# -- the reference batch step --------------------------------------------------------------


def reference_batch_walk(arith, init, cfg: WalkConfig, walkers: int,
                         rng: np.random.Generator, *, nielsen_only: bool = False):
    """``walkers._batch_walk`` with the step spelled out in the arithmetic's
    products and inverses: each conjugate is w^-1 * y * w by two products,
    every row's y is inverted and the picked one kept, and both products
    x_i * y and y * x_i are formed.  It makes the same draws in the same
    order, so its samples are the kernel's, element for element."""
    k, w = cfg.k, walkers
    state = np.repeat(np.asarray(init, dtype=np.int64)[:, None], w, axis=1)
    cum = arith.identity(w)
    rows = np.arange(w)

    def pick(mask, a, b):
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
                ws = arith.random(c.size, rng)
                y[c] = arith.mul(arith.mul(arith.inv(ws), y[c]), ws)
        y = pick(invert, arith.inv(y), y)
        new = pick(left, arith.mul(y, xi), arith.mul(xi, y))
        if full:
            new = pick(unary, y, new)
        state[i, rows] = new
        if cfg.use_cumulative:
            cum = arith.mul(cum, new)
    if cfg.use_cumulative:
        return cum.astype(np.int64)
    r = rng.integers(k, size=w)
    return state[r, rows]
