"""Concrete group elements: permutations, 2x2 matrices over a prime field,
and tuples of residues of an abelian group.

Conventions, fixed once:

* Permutations compose left-to-right: ``(a * b)(x) == b(a(x))``.
* Conjugation is ``a ^ w = w^-1 * a * w`` for every variant.
* Points and residues are 0-based internally; human-facing cycle notation
  is 1-based (``format_cycles``), and the cycle parser accepts both bases
  (a 0 in the input marks it as 0-based).

Element objects parse, print and enumerate, nothing else: their one
operation is the product that ``groups.FiniteGroup`` closes its
generators under, and every later product, inverse, conjugate or draw is
a gather from the group's index tables.  One private base gives all three
classes immutability, equality, hashing, ``sort_key`` and pickling from
their ``__slots__`` payload; mixing variants (or degrees/moduli) in a
product raises ``TypeError``.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import GroupSpecError


class _Value:
    """Immutable value semantics read from a subclass's ``__slots__``
    payload, in constructor argument order: equality and hashing by type
    and payload, ``sort_key``, and pickling through the constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one C call reads the payload: a lone slot's value, or the tuple
        # of several slots
        cls._payload = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor, which validates the payload
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def sort_key(self):
        return self._payload(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._payload(self) == other._payload(other)

    def __hash__(self):
        return hash(self._payload(self))


class Permutation(_Value):
    """A permutation of {0..n-1} stored as the tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if len(set(images)) != n or any(not (0 <= i < n) for i in images):
            raise ValueError(f"not a bijection on 0..{n - 1}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            raise TypeError(f"cannot multiply Permutation by {type(other).__name__}")
        if other.degree != self.degree:
            raise TypeError(f"degree mismatch: {self.degree} vs {other.degree}")
        b = other.images
        return Permutation(b[i] for i in self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, each led by its minimum."""
        n = len(self.images)
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return format_cycles(self)


class MatrixGF(_Value):
    """A 2x2 matrix of determinant 1 over the prime field F_p.

    Entries are stored row-major as (a, b, c, d) reduced into [0, p).
    """

    __slots__ = ("entries", "modulus")

    def __init__(self, entries: Iterable[int], modulus: int):
        a, b, c, d = (int(x) % modulus for x in entries)
        if (a * d - b * c) % modulus != 1:
            raise ValueError(f"determinant is not 1 mod {modulus}: {(a, b, c, d)}")
        object.__setattr__(self, "entries", (a, b, c, d))
        object.__setattr__(self, "modulus", modulus)

    def __mul__(self, other: "MatrixGF") -> "MatrixGF":
        if not isinstance(other, MatrixGF):
            raise TypeError(f"cannot multiply MatrixGF by {type(other).__name__}")
        if other.modulus != self.modulus:
            raise TypeError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        p = self.modulus
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return MatrixGF(
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), p
        )

    def __repr__(self):
        a, b, c, d = self.entries
        return f"MatrixGF([[{a},{b}],[{c},{d}]] mod {self.modulus})"


class AbelianTuple(_Value):
    """An element of Z_{e_1} x ... x Z_{e_r}, written additively inside."""

    __slots__ = ("residues", "moduli")

    def __init__(self, residues: Iterable[int], moduli: Iterable[int]):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in moduli):
            raise ValueError(f"moduli must be positive: {moduli}")
        residues = tuple(int(r) % m for r, m in zip(residues, moduli, strict=True))
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "moduli", moduli)

    def __mul__(self, other: "AbelianTuple") -> "AbelianTuple":
        if not isinstance(other, AbelianTuple):
            raise TypeError(f"cannot multiply AbelianTuple by {type(other).__name__}")
        if other.moduli != self.moduli:
            raise TypeError(f"moduli mismatch: {self.moduli} vs {other.moduli}")
        return AbelianTuple(
            (x + y for x, y in zip(self.residues, other.residues)), self.moduli
        )

    def __repr__(self):
        return f"AbelianTuple({list(self.residues)} mod {list(self.moduli)})"


GroupElement = Permutation | MatrixGF | AbelianTuple


_CYCLE_RE = re.compile(r"\(([\d,\s]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(0 1)(2 3)`` or ``(1 2)(3 4)``.

    Entries may be separated by spaces or commas.  If any point 0 appears
    the input is taken as 0-based, otherwise as 1-based; ``()`` (or an
    all-whitespace string) is the identity.
    """
    text = text.strip()
    if text in ("", "()", "id", "identity"):
        return Permutation(range(degree))
    body = _CYCLE_RE.findall(text)
    leftover = _CYCLE_RE.sub("", text).strip()
    if not body or leftover:
        raise GroupSpecError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in body:
        pts = [int(t) for t in re.split(r"[,\s]+", chunk.strip()) if t]
        if pts:
            cycles.append(pts)
    flat = [p for c in cycles for p in c]
    base = 0 if 0 in flat else 1
    images = list(range(degree))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [p - base for p in cyc]
        if any(not (0 <= p < degree) for p in pts) or len(set(pts)) != len(pts):
            raise GroupSpecError(f"cycle out of range or repeated point: {cyc}")
        if seen.intersection(pts):
            raise GroupSpecError(f"cycles are not disjoint: {text!r}")
        seen.update(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Permutation(images)


def format_cycles(perm: Permutation) -> str:
    """1-based cycle notation; the identity renders as ``()``."""
    cycles = perm.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)


def format_element(el: GroupElement) -> str:
    if isinstance(el, Permutation):
        return format_cycles(el)
    if isinstance(el, MatrixGF):
        a, b, c, d = el.entries
        return f"[[{a},{b}],[{c},{d}]]"
    return "(" + ",".join(str(r) for r in el.residues) + ")"


def parse_matrix(text: str, modulus: int) -> MatrixGF:
    """Parse ``[[a,b],[c,d]]`` (whitespace tolerated)."""
    nums = [int(t) for t in re.findall(r"-?\d+", text)]
    if len(nums) != 4:
        raise GroupSpecError(f"bad matrix literal: {text!r}")
    if (nums[0] * nums[3] - nums[1] * nums[2]) % modulus != 1:
        raise GroupSpecError(f"determinant of {text!r} is not 1 mod {modulus}")
    return MatrixGF(nums, modulus)


def parse_residues(text: str, moduli: Sequence[int]) -> AbelianTuple:
    """Parse ``(r1,r2,...)`` against the given moduli."""
    nums = [int(t) for t in re.findall(r"-?\d+", text)]
    if len(nums) != len(moduli):
        raise GroupSpecError(f"expected {len(moduli)} residues in {text!r}")
    return AbelianTuple(nums, moduli)
