"""Fully enumerated finite groups with canonical element indexing.

A ``FiniteGroup`` owns an immutable, canonically ordered element list
(index 0 is the identity, the rest sorted by payload), an inverse array
and a dense numpy product table.  Element objects parse, print and
enumerate; every other operation on elements (product, inverse, uniform
draw ``rng.integers(order)``) is a gather from these tables on indices,
with no scalar method beside them.  Conjugation is one table gather
(``conjugation_rows``); ``class_labels`` names each conjugacy class by
its least member through ``least_in_orbit``, the package's one orbit
routine (``tuple_maps`` gives it the entry and position permutations of
tuple codes), and ``power_rows`` tabulates every element's powers.
Groups are built by ``parse_group`` from a small spec grammar:

    cyclic:n | abelian:e1,e2,... | sym:n | alt:n | dihedral:n | sl2:p

Each family names only its identity, its generators and its order.  The
group is their breadth-first closure: the identity under left
multiplication by the generators (the orbit algorithm, Seress,
*Permutation Group Algorithms*, 2003, section 2.1), n object products
per generator, which also records the rows the product table is filled
from.  A closure that passes the order, or ends short of it, is a
``ValueError``.  ``parse_group`` reads the element cap,
``ACGRAPHS_MAX_ELEMENTS`` (default 8,192), and checks the order against
it after the grammar checks and before any element object is built; so
the cap also bounds the table (at most 128 MiB).

``SymmetricAmbient`` is the non-enumerated escape hatch for random walks
over Sym_n at degrees whose order is far beyond any element cap; it names
the degree and the identity, and walks over it run on rows of point
images (``walkers``).
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .elements import (
    AbelianTuple,
    GroupElement,
    MatrixGF,
    Permutation,
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


def index_dtype(n: int) -> type:
    """The narrowest of int32 and int64 that indexes ``range(n)``."""
    return np.int32 if n < 2**31 else np.int64


def least_in_orbit(maps: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Per point of ``range(n)``, the least point of its orbit under the
    maps, in ``index_dtype(n)``: min-label propagation along each map,
    then pointer jumping, until nothing changes."""
    lab = np.arange(n, dtype=index_dtype(n))
    while True:
        prev = lab
        for sigma in maps:
            lab = np.minimum(lab, lab[sigma])
        lab = lab[lab]
        if np.array_equal(lab, prev):
            return lab


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an integer array, flattened: a sort
    and a neighbour-difference mask, as numpy's flagless ``unique`` would
    give them without its first-use import of ``numpy.ma``."""
    v = np.sort(values, axis=None)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def tuple_digits(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Per position, the entries of the tuples over ``shape`` in code
    order (``np.unravel_index`` of every code), in the codes' index
    dtype."""
    size = math.prod(shape)
    codes = np.arange(size, dtype=index_dtype(size))
    strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
    return [codes // stride % n for stride, n in zip(strides, shape)]


def tuple_codes(digits: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The codes of the tuples with these entries
    (``np.ravel_multi_index``), in their index dtype."""
    codes = np.array(digits[0], dtype=index_dtype(math.prod(shape)))
    for digit, n in zip(digits[1:], shape[1:]):
        codes *= n
        codes += digit
    return codes


def tuple_maps(perms: Sequence[np.ndarray], shape: tuple[int, ...]) -> list[np.ndarray]:
    """Permutations of the codes ``np.ravel_multi_index(t, shape)`` of
    tuples t over ``range(shape[0])``, in the codes' index dtype: each
    non-identity entry permutation of ``perms`` applied to every entry,
    the swap of positions 0 and 1 and, for more than two positions, the
    cycle of all positions."""
    digits = tuple_digits(shape)
    dtype = digits[0].dtype
    maps = [
        tuple_codes([p.astype(dtype)[t] for t in digits], shape)
        for p in perms
        if (p != np.arange(shape[0])).any()
    ]
    if len(shape) > 1:
        maps.append(tuple_codes([digits[1], digits[0], *digits[2:]], shape))
    if len(shape) > 2:
        maps.append(tuple_codes(digits[1:] + digits[:1], shape))
    return maps


class FiniteGroup:
    """An enumerated finite group with canonical indexing.

    The elements, generators and tables are fixed at construction.  The
    lazy caches, ``class_labels`` and the join oracles in
    ``join_oracles`` (filled only by ``subgroups.get_join_oracle``), are
    each filled once and then only read, so a group is safe to share
    across threads.
    """

    def __init__(
        self,
        name: str,
        identity: GroupElement,
        generators: Iterable[GroupElement],
        order: int,
    ):
        """Enumerate the group of ``order`` elements that the generators
        generate; ValueError if their closure is larger or smaller."""
        self.name = name
        self.join_oracles: dict[str, object] = {}  # mode -> subgroups.JoinOracle
        gens = list(dict.fromkeys(generators))
        found = [identity]
        index = {identity: 0}
        left = [[] for _ in gens]  # left[s][j]: discovery index of gens[s] * found[j]
        parent = [(0, 0)]  # (j, s) with found[c] = gens[s] * found[j]
        for j, e in enumerate(found):  # grows while scanned: breadth-first order
            for s, (g, row) in enumerate(zip(gens, left)):
                x = g * e
                c = index.setdefault(x, len(found))
                if c == len(found):
                    if c == order:
                        raise ValueError(f"{name}: generators span more than {order} elements")
                    found.append(x)
                    parent.append((j, s))
                row.append(c)
        if len(found) != order:
            raise ValueError(f"{name}: generators span {len(found)} of {order} elements")
        # canonical numbering: sorted by payload, the identity swapped to 0
        rank = sorted(range(order), key=lambda c: found[c].sort_key())
        pos = rank.index(0)
        rank[0], rank[pos] = 0, rank[0]
        new = np.empty(order, dtype=np.int64)
        new[rank] = np.arange(order)
        self.elements: tuple[GroupElement, ...] = tuple(found[c] for c in rank)
        self._index: dict[GroupElement, int] = {
            e: i for i, e in enumerate(self.elements)
        }
        self.generators: tuple[int, ...] = tuple(sorted({int(new[index[g]]) for g in gens}))
        # product table from the left multiplications L_s[i] = index(s * e_i),
        # filled in discovery order: row c is L_s[row j] when e_c = s * e_j
        rows = np.empty((len(gens), order), dtype=np.int64)
        rows[:, new] = new[np.array(left, dtype=np.int64).reshape(rows.shape)]
        table = np.empty((order, order), dtype=np.uint16 if order < 2**16 else np.uint32)
        table[0] = np.arange(order)
        for c, (j, s) in enumerate(parent[1:], 1):
            table[new[c]] = rows[s][table[new[j]]]
        self.mul_table: np.ndarray = table
        self.inv_array: np.ndarray = np.argmin(table, axis=1)

    # -- basic queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

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

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


class SymmetricAmbient:
    """Sym_n as a walk context only: its degree and identity, no
    enumeration.  Used where n! is far beyond the element cap."""

    def __init__(self, degree: int):
        if degree < 1:
            raise GroupSpecError("symmetric ambient needs degree >= 1")
        self.degree = degree
        self.name = f"sym:{degree} (ambient)"

    @property
    def identity_element(self) -> Permutation:
        return Permutation(range(self.degree))

    def __repr__(self):
        return f"SymmetricAmbient({self.degree})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def _cycle_perm(n: int, points: Sequence[int]) -> Permutation:
    images = list(range(n))
    for a, b in zip(points, list(points[1:]) + [points[0]]):
        images[a] = b
    return Permutation(images)


def abelian_group(moduli: Sequence[int], name: str) -> FiniteGroup:
    r = len(moduli)
    gens = [AbelianTuple([int(i == j) for j in range(r)], moduli)
            for i, m in enumerate(moduli) if m > 1]
    return FiniteGroup(name, AbelianTuple([0] * r, moduli), gens, math.prod(moduli))


def parse_group(spec: str) -> FiniteGroup:
    """Build the fully enumerated group named by ``spec``.

    Grammar: ``cyclic:n`` (n >= 1), ``abelian:e1,e2,...`` (each e >= 2),
    ``sym:n`` / ``alt:n`` (n <= 10), ``dihedral:n`` (n >= 3), ``sl2:p``
    (p an odd prime <= 13).  Grammar violations raise ``GroupSpecError``;
    then an order beyond the element cap (``ACGRAPHS_MAX_ELEMENTS``,
    default 8,192) raises ``ResourceCapError`` before any element is built.
    """
    spec = spec.strip().lower()
    kind, _, arg = spec.partition(":")
    if kind not in ("cyclic", "abelian", "sym", "alt", "dihedral", "sl2"):
        raise GroupSpecError(f"unknown group kind {kind!r} in {spec!r}")
    try:
        nums = tuple(int(t) for t in arg.split(","))
        (n,) = nums[:1] if kind == "abelian" else nums
    except ValueError:
        raise GroupSpecError(f"malformed group spec: {spec!r}") from None
    if kind == "cyclic":
        if n < 1:
            raise GroupSpecError(f"{spec}: order must be >= 1")
        order = n
    elif kind == "abelian":
        if any(m < 2 for m in nums):
            raise GroupSpecError(f"abelian moduli must all be >= 2: {arg!r}")
        order = math.prod(nums)
    elif kind in ("sym", "alt"):
        if not (1 <= n <= 10):
            raise GroupSpecError(f"{spec}: degree must be 1..10 for enumeration")
        order = math.factorial(n) if kind == "sym" else max(math.factorial(n) // 2, 1)
    elif kind == "dihedral":
        if n < 3:
            raise GroupSpecError(f"dihedral:{n} has no faithful n-gon action; use n >= 3")
        order = 2 * n
    else:
        if n > 13:
            raise GroupSpecError(f"{spec}: modulus above the desk-scale cap 13")
        if not _is_prime(n):
            raise GroupSpecError(f"sl2 needs a prime modulus, got {n}")
        if n == 2:
            raise GroupSpecError(
                "sl2:2 is unsupported: the standard transvections with entry 2 "
                "collapse to the identity mod 2"
            )
        order = n * (n * n - 1)
    cap = env_cap("ACGRAPHS_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS)
    if order > cap:
        raise ResourceCapError("max_elements", order, cap)
    if kind == "cyclic":
        return abelian_group(() if n == 1 else (n,), f"cyclic:{n}")
    if kind == "abelian":
        return abelian_group(nums, f"abelian:{arg}")
    if kind == "sl2":
        gens = [MatrixGF((1, 0, 2, 1), n), MatrixGF((1, 2, 0, 1), n)]
        return FiniteGroup(f"sl2:{n}", MatrixGF((1, 0, 0, 1), n), gens, order)
    if kind == "sym":
        gens = [_cycle_perm(n, [0, 1]), _cycle_perm(n, list(range(n)))] if n > 1 else []
    elif kind == "dihedral":
        gens = [_cycle_perm(n, list(range(n))), Permutation((n - i) % n for i in range(n))]
    elif n < 3:
        gens = []
    elif n % 2 == 1:
        gens = [_cycle_perm(n, [0, 1, 2]), _cycle_perm(n, list(range(n)))]
    else:
        gens = [_cycle_perm(n, [0, 1, 2]), _cycle_perm(n, list(range(1, n)))]
    return FiniteGroup(f"{kind}:{n}", Permutation(range(n)), gens, order)
