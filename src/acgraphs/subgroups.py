"""Subgroup machinery: closures, normal closures, derived subgroups,
abelianization with invariant factors, quotients, normal-generation
statistics and the lifting of normal generators through quotients.

Everything works on element indices of a ``FiniteGroup``.  Conjugacy
classes, class unions and normal closures are read off the group's class
labels, and so are normality tests; commutators, cosets and class powers
are gathers of its product table.  The abelianization reads a basis of
G/[G,G] off that quotient's power rows, one basis element per pass, and
each element's coordinates are its position in the grid of the span.
Heavy predicates (does this tuple normally generate?) go through a
``JoinOracle``: the distinct single-element closures form a small
join-semilattice, closures of sets are joins of singleton closures, and
the joins are memoized.  So the one tuple census,
``generating_tuples``, folds joins once per symmetry orbit of
singleton-closure id tuples, never saturating once per tuple; graph
vertex masks and psi_k both read its table.  A group keeps its oracles,
one per mode, in its own ``join_oracles`` (``get_join_oracle`` fills
it), so they are freed with the group.

Two size caps are read and checked here, each in one place:
``tuple_count`` bounds the k-tuples over a base set (a graph's code space,
the psi_k census) by ``ACGRAPHS_MAX_TUPLES``, and ``nd_pair`` refuses
groups above ``DEFAULT_ND_CAP`` elements.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .elements import GroupElement, Permutation
from .errors import PreconditionError, ResourceCapError
from .groups import FiniteGroup, abelian_group, env_cap, least_in_orbit, tuple_maps

DEFAULT_ND_CAP = 200
DEFAULT_TUPLE_CAP = 4_000_000
BLOCK_CELLS = 131_072  # cells per gathered block: 1 MiB of int64, half a 2 MiB L2 cache


def tuple_count(cap_name: str, base: int, k: int) -> int:
    """base**k, the number of k-tuples over ``base`` entries, checked
    against the tuple cap (``ACGRAPHS_MAX_TUPLES``, default
    ``DEFAULT_TUPLE_CAP``): ``ResourceCapError`` named ``cap_name`` when it
    is larger, or else when k >= 64, since a census table and ``np.ix_``
    over the k positions need one numpy axis each, and numpy allows 64.
    The product, in Python ints, stops as soon as it passes the cap; the
    error then names the count as a number below 64 positions, else as
    ``base^k``."""
    cap = env_cap("ACGRAPHS_MAX_TUPLES", DEFAULT_TUPLE_CAP)
    count, base = 1, int(base)
    for _ in range(min(k, 64)):
        count *= base
        if count > cap:
            raise ResourceCapError(cap_name, base**k if k < 64 else f"{base}^{k}", cap)
    if k >= 64:
        raise ResourceCapError(cap_name, f"{k} tuple positions", "63 (numpy's axis limit)")
    return count


@dataclass(frozen=True)
class Subgroup:
    group: FiniteGroup
    members: tuple[int, ...]  # sorted element indices
    is_normal: bool

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def is_whole_group(self) -> bool:
        return len(self.members) == self.group.order

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(self.group.elements[i] for i in self.members)

    def __repr__(self):
        return f"Subgroup({self.group.name}, order={self.order}, normal={self.is_normal})"


def word_lengths(group: FiniteGroup, seeds: Iterable[int]) -> np.ndarray:
    """Per element, the length of its shortest positive word in the seeds
    (int32; 0 for the identity, -1 where unreached).

    BFS by right multiplication with the seeds: every product of seeds is
    reached, and in a finite group that semigroup closure is already the
    subgroup (inverses arise as powers).  Each level gathers the product
    table at (frontier, seeds), at most ``BLOCK_CELLS`` cells at a
    time, into a hit mask.  Cost O(|result| * |seeds|)."""
    is_seed = np.zeros(group.order, dtype=bool)
    is_seed[np.fromiter(seeds, dtype=np.int64)] = True
    seeds = np.flatnonzero(is_seed)
    length = np.full(group.order, -1, dtype=np.int32)
    length[0] = 0
    frontier = np.array([0])
    rows = max(1, BLOCK_CELLS // max(seeds.size, 1))
    level = 0
    while frontier.size and seeds.size:
        hit = np.zeros(group.order, dtype=bool)
        for start in range(0, frontier.size, rows):
            hit[group.mul_table[frontier[start : start + rows, None], seeds]] = True
        hit &= length < 0
        frontier = np.flatnonzero(hit)
        level += 1
        length[frontier] = level
    return length


def _saturate(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Multiplicative saturation of a seed set (plus identity): the
    elements that ``word_lengths`` reaches."""
    return frozenset(np.flatnonzero(word_lengths(group, seed) >= 0).tolist())


def closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed indices; normal when it is a
    union of conjugacy classes."""
    members = _saturate(group, seed)
    normal = class_union(group, members).size == len(members)
    return Subgroup(group, tuple(sorted(members)), normal)


def conjugacy_classes(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All conjugacy classes, each sorted, ordered by minimal member."""
    by_class = np.argsort(group.class_labels, kind="stable")
    _, starts = np.unique(group.class_labels[by_class], return_index=True)
    return [tuple(cls.tolist()) for cls in np.split(by_class, starts[1:])]


def class_union(group: FiniteGroup, seed: Iterable[int]) -> np.ndarray:
    """Ascending indices of the union of the seeds' conjugacy classes."""
    labels = group.class_labels
    return np.flatnonzero(np.isin(labels, labels[np.fromiter(seed, dtype=np.int64)]))


def normal_closure(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the seed: the subgroup generated
    by the union of the seeds' conjugacy classes."""
    members = _saturate(group, class_union(group, seed))
    return Subgroup(group, tuple(sorted(members)), True)


def _commutators(group: FiniteGroup, elements: Sequence[int]) -> np.ndarray:
    """Ascending indices of the commutators a^-1 b^-1 a b over all pairs
    of the elements, gathered at most ``BLOCK_CELLS`` cells at a time."""
    a = np.asarray(elements, dtype=np.int64)
    mt, a_inv = group.mul_table, group.inv_array[a]
    hit = np.zeros(group.order, dtype=bool)
    rows = max(1, BLOCK_CELLS // max(a.size, 1))
    for s in range(0, a.size, rows):
        block = slice(s, s + rows)
        hit[mt[mt[a_inv[block, None], a_inv], mt[a[block, None], a]]] = True
    return np.flatnonzero(hit)


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    """[G,G]: computed as the normal closure of generator commutators,
    which equals the closure of all commutators."""
    return normal_closure(group, _commutators(group, group.generators))


def is_soluble(group: FiniteGroup) -> bool:
    """Derived series reaches the trivial subgroup."""
    current = Subgroup(group, tuple(range(group.order)), True)
    while current.order > 1:
        sub = _saturate(group, _commutators(group, current.members))
        if len(sub) == current.order:
            return False
        current = Subgroup(group, tuple(sorted(sub)), False)
    return True


class JoinOracle:
    """Join-semilattice of subgroup closures of single elements.

    mode "normal": singleton closure of x is its normal closure; the
    closure of any set is the join of singleton closures, so normal
    generation tests reduce to memoized join lookups.  mode "plain": the
    same with cyclic subgroups and ordinary generation.
    """

    def __init__(self, group: FiniteGroup, mode: str = "normal"):
        if mode not in ("normal", "plain"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.group = group
        self.mode = mode
        # interning and the join memo mutate under reads from walker
        # fan-out threads; serialize them
        self._lock = threading.RLock()
        self._subgroups: list[frozenset[int]] = [frozenset([0])]
        self._id_of: dict[frozenset[int], int] = {self._subgroups[0]: 0}
        self.singleton_ids = self._build_singletons()
        self._join_memo: dict[tuple[int, int], int] = {}
        self.full_id = self.id_of_members(frozenset(range(group.order)))

    def _build_singletons(self) -> np.ndarray:
        group = self.group
        ids = np.zeros(group.order, dtype=np.int64)
        if self.mode == "normal":
            # same class -> same normal closure; a class is labelled by its
            # least member
            labels = group.class_labels
            for rep in np.flatnonzero(labels == np.arange(group.order)).tolist():
                sub = normal_closure(group, [rep]).member_set
                ids[labels == rep] = self.id_of_members(sub)
        else:
            powers = group.power_rows()
            orders = np.argmax(powers[1:] == 0, axis=0) + 1
            for i in range(group.order):
                ids[i] = self.id_of_members(frozenset(powers[: orders[i], i].tolist()))
        return ids

    def id_of_members(self, members: frozenset[int]) -> int:
        """The id of the subgroup with these members, interned on first sight."""
        with self._lock:
            sid = self._id_of.get(members)
            if sid is None:
                sid = len(self._subgroups)
                self._subgroups.append(members)
                self._id_of[members] = sid
            return sid

    def members_of(self, sid: int) -> frozenset[int]:
        return self._subgroups[sid]

    def singleton_id(self, i: int) -> int:
        return int(self.singleton_ids[i])

    def join(self, a: int, b: int) -> int:
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        sid = self._join_memo.get(key)
        if sid is None:
            with self._lock:
                sid = self._join_memo.get(key)
                if sid is None:
                    ma, mb = self._subgroups[a], self._subgroups[b]
                    if ma <= mb:
                        sid = b
                    elif mb <= ma:
                        sid = a
                    else:
                        sid = self.id_of_members(_saturate(self.group, ma | mb))
                    self._join_memo[key] = sid
        return sid

    def join_all(self, sids: Iterable[int]) -> int:
        """Join of a family of subgroup ids (the trivial one if empty)."""
        sid = 0
        for s in sids:
            sid = self.join(sid, s)
        return sid

    def join_of_indices(self, indices: Iterable[int]) -> int:
        return self.join_all(map(self.singleton_id, indices))

    def generates(self, indices: Iterable[int]) -> bool:
        """Whole group generated (normally, in mode 'normal') by these indices."""
        return self.join_of_indices(indices) == self.full_id


def get_join_oracle(group: FiniteGroup, mode: str) -> JoinOracle:
    """The group's oracle for ``mode``, built on first use and kept in the
    group's own ``join_oracles`` dict, so it lives and dies with the group.
    Threads that build one at once all get the first one stored."""
    oracle = group.join_oracles.get(mode)
    if oracle is None:
        oracle = group.join_oracles.setdefault(mode, JoinOracle(group, mode))
    return oracle


def normal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups: the join-semilattice generated by singleton
    normal closures (every normal subgroup is the join of the closures of
    its own elements), ordered by ascending order then members."""
    oracle = get_join_oracle(group, "normal")
    ids = {0} | {oracle.singleton_id(i) for i in range(group.order)}
    changed = True
    while changed:
        changed = False
        for a, b in combinations(sorted(ids), 2):
            j = oracle.join(a, b)
            if j not in ids:
                ids.add(j)
                changed = True
    subs = [
        Subgroup(group, tuple(sorted(oracle.members_of(sid))), True) for sid in ids
    ]
    return sorted(subs, key=lambda s: (s.order, s.members))


# -- quotients -----------------------------------------------------------------


def quotient_group(
    group: FiniteGroup, modulo: Subgroup
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The factor group G/M realized concretely, plus the projection.

    Cosets act on themselves by right multiplication; each coset becomes a
    permutation of the coset indices (the regular representation, faithful
    and compatible with the left-to-right composition convention).  Only
    the generators' cosets are built; ``FiniteGroup`` enumerates the rest
    as their closure.  Returns ``(Q, pi)`` with ``pi[g] = index in Q of
    gM``: cosets are numbered by their least element, and the permutation
    of coset c sends coset 0 to c, so Q's canonical order keeps that
    numbering.
    """
    if modulo.group is not group:
        raise PreconditionError("subgroup belongs to a different group")
    if not modulo.is_normal:
        raise PreconditionError("can only quotient by a normal subgroup")
    # each coset iM is named by its least element; cosets ordered by it
    least = group.mul_table[:, list(modulo.members)].min(axis=1)
    reps, coset_id = np.unique(least, return_inverse=True)
    # generator g: the cosets (iM)(gM) for every coset iM
    gen_perms = [
        Permutation(coset_id[group.mul_table[reps, g]].tolist()) for g in group.generators
    ]
    quotient = FiniteGroup(
        f"{group.name}/[order {modulo.order}]", Permutation(range(len(reps))),
        gen_perms, len(reps),
    )
    return quotient, tuple(coset_id.tolist())


# -- abelianization -------------------------------------------------------------


@dataclass(frozen=True)
class AbelianStructure:
    """Ab(G) = G/[G,G] in invariant-factor form e_1 | e_2 | ... | e_r."""

    group: FiniteGroup
    invariant_factors: tuple[int, ...]
    target: FiniteGroup  # the concrete product of Z_{e_i}
    projection_idx: tuple[int, ...]  # per ambient element index, into target

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors) if self.invariant_factors else 1


def abelianization(group: FiniteGroup) -> AbelianStructure:
    """Invariant factors of Q = G/[G,G] and the projection of every element.

    A basis of Q is found one element at a time, largest order first.
    With H the span of the basis so far, held as the grid of its members
    indexed by their coordinates (the newest basis element on the first
    axis), each pass reads off Q's power rows the order of every element
    modulo H, takes an element b of the largest such order d, and shifts
    b by an element of H so that b^d = 1; H then grows by the powers of b.
    The grid's shape is the chain e_1 | ... | e_r, and an element's flat
    position in the final grid is its index in the product of the Z_{e_i}.
    """
    quotient, pi = quotient_group(group, derived_subgroup(group))
    mt, powers = quotient.mul_table, quotient.power_rows()
    grid = np.zeros((), dtype=mt.dtype)
    inside = np.zeros(quotient.order, dtype=bool)
    inside[0] = True
    position = np.zeros(quotient.order, dtype=np.int64)
    while not inside.all():
        order_mod_h = np.argmax(inside[powers[1:]], axis=0) + 1
        b = int(np.argmax(order_mod_h))
        d = int(order_mod_h[b])
        position[grid.ravel()] = np.arange(grid.size)
        coords = np.array(np.unravel_index(position[powers[d, b]], grid.shape))
        if (coords % d).any():
            raise AssertionError("abelian basis lift: order obstruction")
        b = mt[b, grid[tuple(-coords // d)]]  # negative indices wrap
        grid = mt[powers[:d, b].reshape((d,) + (1,) * grid.ndim), grid]
        inside[grid] = True
    if grid.size != quotient.order:
        raise AssertionError("abelian basis is not independent")
    factors = grid.shape
    for small, big in zip(factors, factors[1:]):
        if big % small != 0:
            raise AssertionError(f"invariant factors not a chain: {factors}")
    target = abelian_group(factors, f"ab({group.name})")
    position[grid.ravel()] = np.arange(grid.size)
    return AbelianStructure(
        group, factors, target, tuple(position[np.asarray(pi)].tolist())
    )


# -- normal generation statistics ------------------------------------------------


def _smallest_family(oracle: JoinOracle, limit: int) -> int | None:
    """Least size, at most ``limit``, of a family of distinct singleton
    closures that joins to the whole group, or None."""
    ids = np.flatnonzero(np.bincount(oracle.singleton_ids[1:])).tolist()
    for size in range(1, limit + 1):
        if any(oracle.join_all(fam) == oracle.full_id for fam in combinations(ids, size)):
            return size
    return None


def nd_pair(group: FiniteGroup) -> tuple[int, int]:
    """(nd, nd_m): minimal number of normal generators, and maximal size of
    a minimal (irredundant) normal generating set.

    Works on the join-semilattice of distinct singleton normal closures:
    a set of elements is interchangeable with its family of closures, and
    a minimal set has pairwise distinct, jointly irredundant closures.
    An irredundant set has at most log2 |G| elements, since each one at
    least doubles the subgroup the ones before it generate.  Groups of
    more than ``DEFAULT_ND_CAP`` elements raise ``ResourceCapError``.
    """
    if group.order > DEFAULT_ND_CAP:
        raise ResourceCapError("nd_search", group.order, DEFAULT_ND_CAP)
    if group.order == 1:
        return (0, 0)
    oracle = get_join_oracle(group, "normal")
    max_size = max(1, math.floor(math.log2(group.order)))
    nd = _smallest_family(oracle, max_size)
    if nd is None:
        raise AssertionError(f"{group.name}: no normal generating set found")
    ids = np.flatnonzero(np.bincount(oracle.singleton_ids[1:])).tolist()
    full = oracle.full_id

    def irredundant(fam: tuple[int, ...]) -> bool:
        return oracle.join_all(fam) == full and all(
            oracle.join_all(fam[:i] + fam[i + 1:]) != full for i in range(len(fam))
        )

    nd_m = max(
        size
        for size in range(nd, max_size + 1)
        if any(map(irredundant, combinations(ids, size)))
    )
    return (nd, nd_m)


def min_generator_count(group: FiniteGroup, upto: int) -> int | None:
    """Smallest k <= upto with a k-element generating set (ordinary
    generation), or None if every family up to that size falls short."""
    if group.order == 1:
        return 0
    return _smallest_family(get_join_oracle(group, "plain"), upto)


def generating_tuples(
    oracle: JoinOracle, members: np.ndarray, k: int, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which k-tuples of ``members`` join to subgroup id ``target``.

    Returns each member's local id, its position among the members'
    distinct singleton-closure ids, and a boolean table of shape
    ``(d,) * k`` over tuples of local ids.  The join is unchanged by
    permuting positions or by conjugating every entry by one element of
    G, which permutes the ids of a member set closed under conjugation.
    So it is folded once per orbit of id tuples, at its least tuple, over
    the distinct id pairs of each step, then spread over the orbit.
    """
    group = oracle.group
    ids, first, local = np.unique(
        oracle.singleton_ids[members], return_index=True, return_inverse=True
    )
    d = len(ids)
    shape = (d,) * k
    local_of = np.zeros(ids[-1] + 1, dtype=np.int64)
    local_of[ids] = np.arange(d)
    conj = group.conjugation_rows(group.generators)[:, members[first]]
    perms = local_of[oracle.singleton_ids[conj]]
    lab = least_in_orbit(tuple_maps(perms, shape), d**k)
    reps = np.flatnonzero(lab == np.arange(d**k))
    digits = np.unravel_index(reps, shape)
    acc = ids[digits[0]]
    for digit in digits[1:]:
        pairs, back = np.unique(
            np.stack((acc, ids[digit]), axis=1), axis=0, return_inverse=True
        )
        joined = np.array([oracle.join(int(a), int(b)) for a, b in pairs])
        acc = joined[back.reshape(-1)]
    hit = np.zeros(d**k, dtype=bool)
    hit[reps] = acc == target
    return local, hit[lab].reshape(shape)


def psi_k(group: FiniteGroup, k: int) -> Fraction:
    """Exact probability that k independent uniform elements normally
    generate the group: |V_k(G,G)| / |G|^k, the census table of
    ``generating_tuples`` weighted by the multiplicity of each id.  The
    tuple cap (``tuple_count``) bounds the table's d^k cells, for d distinct
    singleton closures; the weights multiply as Python ints, since |G|^k
    may pass 2^63."""
    if k < 1:
        raise PreconditionError("psi_k needs k >= 1")
    oracle = get_join_oracle(group, "normal")
    tuple_count("tuple_census", np.count_nonzero(np.bincount(oracle.singleton_ids)), k)
    local, table = generating_tuples(oracle, np.arange(group.order), k, oracle.full_id)
    weights = np.bincount(local).tolist()
    hits = np.argwhere(table).tolist()
    count = sum(math.prod(weights[i] for i in cell) for cell in hits)
    return Fraction(count, group.order**k)


def mazurov_lift(
    group: FiniteGroup, modulo: Subgroup, g: Sequence[int]
) -> tuple[int, ...] | None:
    """Adjust g = (g_1..g_k) by elements of M so the result normally
    generates G, given that the images of g normally generate G/M and G is
    normally k-generated: the preconditions, then ``lift_search``.  A
    witness must exist, so ``None`` signals a bug (or unverified
    preconditions upstream)."""
    k = len(g)
    if k < 1:
        raise PreconditionError("need a nonempty tuple")
    if not modulo.is_normal or modulo.group is not group:
        raise PreconditionError("M must be a normal subgroup of G")
    nd, _ = nd_pair(group)
    if nd > k:
        raise PreconditionError(
            f"{group.name} is not normally generated by {k} elements (nd={nd})"
        )
    quotient, pi = quotient_group(group, modulo)
    q_oracle = get_join_oracle(quotient, "normal")
    if not q_oracle.generates(pi[i] for i in g):
        raise PreconditionError("images of g do not normally generate G/M")
    return lift_search(get_join_oracle(group, "normal"), modulo, g)


def lift_search(
    oracle: JoinOracle, modulo: Subgroup, g: Sequence[int]
) -> tuple[int, ...] | None:
    """The first (g_1 m_1, ..., g_k m_k), over (m_1..m_k) in M^k in
    ``itertools.product`` order, that the oracle says generates its group,
    or None: the exhaustive search of ``mazurov_lift``."""
    table = oracle.group.mul_table
    for ms in product(modulo.members, repeat=len(g)):
        candidate = tuple(table[g, ms].tolist())
        if oracle.generates(candidate):
            return candidate
    return None


# -- covering numbers -------------------------------------------------------------


@dataclass(frozen=True)
class CoveringNumbers:
    group: FiniteGroup
    or_value: int  # least n with C^n = G for some nontrivial class
    cn_value: int  # least n with C^n = G for every nontrivial class
    per_class: tuple[tuple[int, int], ...]  # (class min element, cover exponent)


def covering_numbers(group: FiniteGroup) -> CoveringNumbers:
    """Brute-force or(G) and cn(G) from conjugacy-class set powers.

    Defined for groups where every nontrivial class eventually covers,
    i.e. simple groups; raises ``PreconditionError`` otherwise.
    """
    subs = normal_subgroups(group)
    if len(subs) != 2:
        raise PreconditionError(
            f"covering numbers need a simple group; {group.name} has "
            f"{len(subs)} normal subgroups"
        )
    per_class = []
    for cls in conjugacy_classes(group):
        if cls == (0,):
            continue
        current = np.zeros(group.order, dtype=bool)
        current[list(cls)] = True
        n = 1
        while not current.all():
            power = np.zeros(group.order, dtype=bool)
            power[group.mul_table[np.ix_(np.flatnonzero(current), cls)]] = True
            current = power
            n += 1
            if n > group.order:
                raise AssertionError("class power never covers a simple group?")
        per_class.append((cls[0], n))
    exps = [n for _, n in per_class]
    return CoveringNumbers(group, min(exps), max(exps), tuple(per_class))
