"""Fully enumerated finite groups with canonical element indexing.

A ``FiniteGroup`` owns an immutable, canonically ordered element list
(index 0 is the identity, the rest sorted by payload), an inverse table
and a dense numpy product table; all arithmetic on enumerated elements
goes through these tables, and element objects serve parsing and
printing.  Conjugation is one table gather (``conjugation_rows``);
``class_labels`` names each conjugacy class by its least member through
``least_in_orbit``, the package's one orbit routine (``tuple_maps``
gives it the entry and position permutations of tuple codes), and
``power_rows`` tabulates every element's powers.  Groups are built by
``parse_group`` from a small spec grammar:

    cyclic:n | abelian:e1,e2,... | sym:n | alt:n | dihedral:n | sl2:p

The table is built from the generators (n object products each), which
checks both closure of the element list and that the generators generate
it.  ``ACGRAPHS_MAX_ELEMENTS`` (default 8,192) bounds the order before
enumeration, and so the table (at most 128 MiB).

``SymmetricAmbient`` is the non-enumerated escape hatch for random walks
over Sym_n at degrees whose order is far beyond any element cap; it does
element arithmetic directly and samples uniform elements by shuffle.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from itertools import permutations, product
from typing import Iterable, Sequence

import numpy as np

from .elements import (
    AbelianTuple,
    GroupElement,
    MatrixGF,
    Permutation,
    identity_like,
)
from .errors import GroupSpecError, ResourceCapError

DEFAULT_MAX_ELEMENTS = 8_192


def env_cap(name: str, default: int) -> int:
    """The integer size cap in environment variable ``name``, or
    ``default`` when it is unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise GroupSpecError(
            f"environment cap {name} is not an integer: {raw!r}"
        ) from None


def least_in_orbit(maps: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Per point of ``range(n)``, the least point of its orbit under the
    maps: min-label propagation along each map, then pointer jumping,
    until nothing changes."""
    lab = np.arange(n, dtype=np.int64)
    while True:
        prev = lab
        for sigma in maps:
            lab = np.minimum(lab, lab[sigma])
        lab = lab[lab]
        if np.array_equal(lab, prev):
            return lab


def tuple_maps(perms: Sequence[np.ndarray], shape: tuple[int, ...]) -> list[np.ndarray]:
    """Permutations of the codes ``np.ravel_multi_index(t, shape)`` of
    tuples t over ``range(shape[0])``: each non-identity entry permutation
    of ``perms`` applied to every entry, the swap of positions 0 and 1
    and, for more than two positions, the cycle of all positions."""
    digits = np.unravel_index(np.arange(math.prod(shape)), shape)
    maps = [
        np.ravel_multi_index(tuple(p[t] for t in digits), shape)
        for p in perms
        if (p != np.arange(shape[0])).any()
    ]
    if len(shape) > 1:
        maps.append(np.ravel_multi_index((digits[1], digits[0], *digits[2:]), shape))
    if len(shape) > 2:
        maps.append(np.ravel_multi_index(digits[1:] + digits[:1], shape))
    return maps


class FiniteGroup:
    """An enumerated finite group with canonical indexing.

    Immutable after construction; safe to share across threads.
    """

    def __init__(
        self,
        name: str,
        elements: Sequence[GroupElement],
        generators: Iterable[GroupElement],
    ):
        self.name = name
        elements = list(elements)
        if not elements:
            raise ValueError("a group has at least the identity")
        elements.sort(key=lambda e: e.sort_key())
        iden = identity_like(elements[0])
        pos = next(i for i, e in enumerate(elements) if e == iden)
        elements[0], elements[pos] = elements[pos], elements[0]
        self.elements: tuple[GroupElement, ...] = tuple(elements)
        self._index: dict[GroupElement, int] = {
            e: i for i, e in enumerate(self.elements)
        }
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements in listing")
        self.generators: tuple[int, ...] = tuple(
            sorted({self._index[g] for g in generators})
        )
        self.mul_table: np.ndarray = self._build_table()
        self.inverse_table: tuple[int, ...] = tuple(
            self._index[e.inverse()] for e in self.elements
        )
        self.inv_array: np.ndarray = np.array(self.inverse_table, dtype=np.int64)

    # -- construction helpers ------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """Product table from the generators' left multiplications
        ``L_s[i] = index(s * e_i)``, spread by BFS from the identity: row c
        is ``L_s[row j]`` when ``e_c = s * e_j``.  A product off the
        listing proves it not closed; an unreached row proves that the
        generators do not span it."""
        n = len(self.elements)
        dtype = np.uint16 if n < 2**16 else np.uint32
        try:
            left = [
                np.array([self._index[self.elements[s] * e] for e in self.elements],
                         dtype=dtype)
                for s in self.generators
            ]
        except KeyError:
            raise ValueError(f"{self.name}: product escapes the element list") from None
        table = np.empty((n, n), dtype=dtype)
        table[0] = np.arange(n)
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        queue = [0]
        for j in queue:  # grows while scanned: breadth-first order
            for ls in left:
                c = int(ls[j])
                if not reached[c]:
                    reached[c] = True
                    table[c] = ls[table[j]]
                    queue.append(c)
        if len(queue) != n:
            raise ValueError(
                f"{self.name}: generators span {len(queue)} of {n} listed elements"
            )
        return table

    # -- basic queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return 0

    @property
    def identity_element(self) -> GroupElement:
        return self.elements[0]

    def index_of(self, el: GroupElement) -> int:
        try:
            return self._index[el]
        except KeyError:
            raise KeyError(f"element {el!r} is not in {self.name}")

    def __contains__(self, el: GroupElement) -> bool:
        return el in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def inv(self, i: int) -> int:
        return self.inverse_table[i]

    def conj(self, i: int, w: int) -> int:
        """Index of w^-1 * x_i * w."""
        return self.mul(self.mul(self.inv(w), i), w)

    def conjugation_rows(self, ws: Iterable[int]) -> np.ndarray:
        """Array of shape ``(len(ws), order)`` whose entry ``[r, i]`` is the
        index of w^-1 * x_i * w for w = x_{ws[r]}."""
        ws = np.fromiter(ws, dtype=np.int64)
        mt = self.mul_table
        return mt[mt[self.inv_array[ws][:, None], np.arange(self.order)], ws[:, None]]

    @cached_property
    def class_labels(self) -> np.ndarray:
        """Per element, the least index of its conjugacy class: its orbit
        under conjugation by the generators."""
        return least_in_orbit(self.conjugation_rows(self.generators), self.order)

    def power_rows(self) -> np.ndarray:
        """Array whose row t holds every element's t-th power, for t from 0
        up to the largest element order, in the product table's dtype."""
        every = np.arange(self.order)
        rows = [np.zeros(self.order, dtype=self.mul_table.dtype)]
        returned = np.zeros(self.order, dtype=bool)
        while not returned.all():
            rows.append(self.mul_table[rows[-1], every])
            returned |= rows[-1] == 0
        return np.stack(rows)

    def random_index(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.order))

    def random_element(self, rng: np.random.Generator) -> GroupElement:
        """Uniform over the element list; deterministic given the rng state."""
        return self.elements[self.random_index(rng)]

    def generator_elements(self) -> tuple[GroupElement, ...]:
        return tuple(self.elements[i] for i in self.generators)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


class SymmetricAmbient:
    """Sym_n as a walk context only: arithmetic plus uniform sampling,
    no enumeration.  Used where n! is far beyond the element cap."""

    def __init__(self, degree: int):
        if degree < 1:
            raise GroupSpecError("symmetric ambient needs degree >= 1")
        self.degree = degree
        self.name = f"sym:{degree} (ambient)"

    @property
    def identity_element(self) -> Permutation:
        return Permutation(range(self.degree))

    def random_element(self, rng: np.random.Generator) -> Permutation:
        return Permutation(int(i) for i in rng.permutation(self.degree))

    def __contains__(self, el: GroupElement) -> bool:
        return isinstance(el, Permutation) and el.degree == self.degree

    def __repr__(self):
        return f"SymmetricAmbient({self.degree})"


def random_even_permutation(degree: int, rng: np.random.Generator) -> Permutation:
    """Exactly uniform over Alt_n: draw uniform over Sym_n and fold the odd
    half onto the even half by a fixed transposition."""
    p = Permutation(int(i) for i in rng.permutation(degree))
    if degree >= 2 and p.sign() < 0:
        t = list(range(degree))
        t[0], t[1] = t[1], t[0]
        p = p * Permutation(t)
    return p


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def _check_cap(order: int, cap: int) -> None:
    if order > cap:
        raise ResourceCapError("max_elements", order, cap)


def _cycle_perm(n: int, points: Sequence[int]) -> Permutation:
    images = list(range(n))
    for a, b in zip(points, list(points[1:]) + [points[0]]):
        images[a] = b
    return Permutation(images)


def _sym_group(n: int, cap: int) -> FiniteGroup:
    _check_cap(math.factorial(n), cap)
    els = [Permutation(p) for p in permutations(range(n))]
    if n < 2:
        gens: list[Permutation] = []
    elif n == 2:
        gens = [_cycle_perm(n, [0, 1])]
    else:
        gens = [_cycle_perm(n, [0, 1]), _cycle_perm(n, list(range(n)))]
    return FiniteGroup(f"sym:{n}", els, gens)


def _alt_group(n: int, cap: int) -> FiniteGroup:
    order = max(math.factorial(n) // 2, 1)
    _check_cap(order, cap)
    els = [Permutation(p) for p in permutations(range(n)) if Permutation(p).sign() > 0]
    if n < 3:
        gens: list[Permutation] = []
    elif n == 3:
        gens = [_cycle_perm(n, [0, 1, 2])]
    elif n % 2 == 1:
        gens = [_cycle_perm(n, [0, 1, 2]), _cycle_perm(n, list(range(n)))]
    else:
        gens = [_cycle_perm(n, [0, 1, 2]), _cycle_perm(n, list(range(1, n)))]
    return FiniteGroup(f"alt:{n}", els, gens)


def _sl2_group(p: int, cap: int) -> FiniteGroup:
    if not _is_prime(p):
        raise GroupSpecError(f"sl2 needs a prime modulus, got {p}")
    if p == 2:
        raise GroupSpecError(
            "sl2:2 is unsupported: the standard transvections with entry 2 "
            "collapse to the identity mod 2"
        )
    _check_cap(p * (p * p - 1), cap)
    els = [
        MatrixGF((a, b, c, d), p)
        for a, b, c, d in product(range(p), repeat=4)
        if (a * d - b * c) % p == 1
    ]
    gens = [MatrixGF((1, 0, 2, 1), p), MatrixGF((1, 2, 0, 1), p)]
    return FiniteGroup(f"sl2:{p}", els, gens)


def abelian_group(moduli: Sequence[int], name: str, cap: int) -> FiniteGroup:
    order = math.prod(moduli) if moduli else 1
    _check_cap(order, cap)
    els = [
        AbelianTuple(r, moduli)
        for r in product(*[range(m) for m in moduli])
    ] or [AbelianTuple((), ())]
    gens = []
    for i, m in enumerate(moduli):
        if m > 1:
            unit = [0] * len(moduli)
            unit[i] = 1
            gens.append(AbelianTuple(unit, moduli))
    return FiniteGroup(name, els, gens)


def _dihedral_group(n: int, cap: int) -> FiniteGroup:
    if n < 3:
        raise GroupSpecError(f"dihedral:{n} has no faithful n-gon action; use n >= 3")
    _check_cap(2 * n, cap)
    rot = _cycle_perm(n, list(range(n)))
    ref = Permutation((n - i) % n for i in range(n))
    els: set[Permutation] = set()
    for k in range(n):
        r = Permutation(range(n))
        for _ in range(k):
            r = r * rot
        els.add(r)
        els.add(r * ref)
    return FiniteGroup(f"dihedral:{n}", sorted(els, key=lambda e: e.sort_key()), [rot, ref])


def parse_group(spec: str, *, max_elements: int | None = None) -> FiniteGroup:
    """Build the fully enumerated group named by ``spec``.

    Grammar: ``cyclic:n`` (n >= 1), ``abelian:e1,e2,...`` (each e >= 2),
    ``sym:n`` / ``alt:n`` (n <= 10), ``dihedral:n`` (n >= 3), ``sl2:p``
    (p an odd prime <= 13).  Orders beyond the element cap
    (``ACGRAPHS_MAX_ELEMENTS``, default 8,192) raise ``ResourceCapError``
    before enumeration; grammar violations raise ``GroupSpecError``.
    """
    spec = spec.strip().lower()
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise GroupSpecError(f"malformed group spec: {spec!r}")
    if max_elements is None:
        max_elements = env_cap("ACGRAPHS_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS)
    try:
        if kind == "cyclic":
            n = int(arg)
            if n < 1:
                raise GroupSpecError(f"cyclic:{arg}: order must be >= 1")
            moduli = () if n == 1 else (n,)
            return abelian_group(moduli, f"cyclic:{n}", max_elements)
        if kind == "abelian":
            moduli = tuple(int(t) for t in arg.split(","))
            if not moduli or any(m < 2 for m in moduli):
                raise GroupSpecError(f"abelian moduli must all be >= 2: {arg!r}")
            return abelian_group(moduli, f"abelian:{arg}", max_elements)
        if kind == "sym":
            n = int(arg)
            if not (1 <= n <= 10):
                raise GroupSpecError(f"sym:{arg}: degree must be 1..10 for enumeration")
            return _sym_group(n, max_elements)
        if kind == "alt":
            n = int(arg)
            if not (1 <= n <= 10):
                raise GroupSpecError(f"alt:{arg}: degree must be 1..10 for enumeration")
            return _alt_group(n, max_elements)
        if kind == "dihedral":
            return _dihedral_group(int(arg), max_elements)
        if kind == "sl2":
            p = int(arg)
            if p > 13:
                raise GroupSpecError(f"sl2:{arg}: modulus above the desk-scale cap 13")
            return _sl2_group(p, max_elements)
    except ValueError as exc:
        raise GroupSpecError(f"malformed group spec {spec!r}: {exc}") from exc
    raise GroupSpecError(f"unknown group kind {kind!r} in {spec!r}")
