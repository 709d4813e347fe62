"""Free-group words and the counterexample-hunting pipeline.

Words over ``ALPHABET`` = {x, y} are stored as sequences of signed
generator numbers (+1 = x, -1 = x^-1, +2 = y, -2 = y^-1) and
free-reduced by default.
A word pair acts on a tuple by substitution: ``eval_word`` folds each
word as product-table gathers over the tuple's element indices, or over
arrays of them elementwise.  If the pair's exponent matrix is unimodular
the image of a normally generating pair still normally generates, so the
substitution maps vertices of the whole-group AC graph to vertices, and
the interesting question is whether it can ever change the connected
component.  ``scan_quotient`` answers it for one concrete group,
``distance_series`` tabulates distances over a family of groups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GroupSpecError, PreconditionError, ResourceCapError, VerificationError
from .graphs import GraphHandle, GraphMode, components
from .groups import FiniteGroup, parse_group
from .subgroups import nd_pair

ALPHABET = "xy"
# letters of one word literal, at most: 2^20 parse in 0.14 s at a 32 MiB
# peak and evaluate in 0.17 s (``eval_word``, one core of a 2-core Xeon)
MAX_WORD_LETTERS = 2**20


@dataclass(frozen=True)
class Word:
    """A word in the free group on ``ALPHABET``: signed generator numbers,
    e.g. x^3 y^-4 is (1, 1, 1, -2, -2, -2, -2)."""

    letters: tuple[int, ...]

    def __post_init__(self):
        for l in self.letters:
            if l == 0 or abs(l) > len(ALPHABET):
                raise ValueError(f"letter {l} outside alphabet {ALPHABET!r}")

    def reduce(self) -> "Word":
        stack: list[int] = []
        for l in self.letters:
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
        return Word(tuple(stack))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters).reduce()

    def exponent_sums(self) -> tuple[int, ...]:
        sums = [0] * len(ALPHABET)
        for l in self.letters:
            sums[abs(l) - 1] += 1 if l > 0 else -1
        return tuple(sums)

    def __str__(self):
        return word_to_text(self)


_TOKEN = re.compile(r"([A-Za-z])(?:\s*\^\s*(-?\d+))?|\S")


def parse_word(text: str) -> Word:
    """Parse compact word syntax over ``ALPHABET``.

    Lowercase letters are generators, uppercase their inverses, and an
    optional ``^e`` exponent (possibly negative) applies to the letter:
    ``xxxYYYY``, ``x^3 y^-4`` and ``x^3Y^4`` all name the same word.
    The result is free-reduced.  More than ``MAX_WORD_LETTERS`` letters
    before reduction is a ``ResourceCapError``.
    """
    powers: list[tuple[int, int]] = []  # (generator number, exponent)
    for m in _TOKEN.finditer(text):
        if m.group(1) is None:
            raise GroupSpecError(f"bad token {m.group(0)!r} in word {text!r}")
        ch = m.group(1)
        base = ALPHABET.find(ch.lower())
        if base < 0:
            raise GroupSpecError(f"letter {ch!r} outside alphabet {ALPHABET!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        powers.append((base + 1, -exp if ch.isupper() else exp))
    count = sum(abs(exp) for _, exp in powers)
    if count > MAX_WORD_LETTERS:
        raise ResourceCapError("word_letters", count, MAX_WORD_LETTERS)
    letters: list[int] = []
    for number, exp in powers:
        letters.extend([number if exp > 0 else -number] * abs(exp))
    return Word(tuple(letters)).reduce()


def word_to_text(word: Word) -> str:
    if not word.letters:
        return "1"
    out = []
    i = 0
    letters = word.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        ch = ALPHABET[abs(letters[i]) - 1]
        exp = (j - i) * (1 if letters[i] > 0 else -1)
        out.append(ch if exp == 1 else f"{ch}^{exp}")
        i = j
    return " ".join(out)


def eval_word(word: Word, images: Sequence, group: FiniteGroup):
    """Substitute element indices for the generators, or index arrays
    elementwise; a fold of product-table gathers.  The empty word gives
    the identity, index 0."""
    if len(images) != len(ALPHABET):
        raise PreconditionError(
            f"a word over {ALPHABET!r} needs {len(ALPHABET)} images, got {len(images)}"
        )
    acc = np.zeros(np.broadcast_shapes(*map(np.shape, images)), dtype=np.int64)
    for l in word.letters:
        x = images[abs(l) - 1]
        acc = group.mul_table[acc, x if l > 0 else group.inv_array[x]]
    return int(acc) if acc.ndim == 0 else acc


@dataclass(frozen=True)
class WordPair:
    u: Word
    v: Word

    def to_json(self) -> dict:
        return {"u": word_to_text(self.u), "v": word_to_text(self.v)}


def parse_pair(text_u: str, text_v: str) -> WordPair:
    return WordPair(parse_word(text_u), parse_word(text_v))


def exponent_matrix(pair: WordPair) -> tuple[tuple[tuple[int, int], tuple[int, int]], int]:
    """Rows are the (x, y) exponent sums of u and v; also returns det."""
    (a, b), (c, d) = pair.u.exponent_sums(), pair.v.exponent_sums()
    return ((a, b), (c, d)), a * d - b * c


def apply_pair_map(pair: WordPair, tup: Sequence, group: FiniteGroup) -> tuple:
    """(x, y) -> (u(x, y), v(x, y)) on a 2-tuple of element indices, or
    elementwise on two index arrays."""
    if len(tup) != 2:
        raise PreconditionError("the substitution map acts on 2-tuples")
    return eval_word(pair.u, tup, group), eval_word(pair.v, tup, group)


# The shortest surviving potential counterexample to the Andrews-Curtis
# conjecture (Akbulut-Kirby): it normally generates the free group F_2,
# with unimodular exponent matrix ((3, -4), (1, -1)).
AK_PAIR = parse_pair("x^3 y^-4", "x y x y^-1 x^-1 y^-1")


@dataclass
class ScanReport:
    group: FiniteGroup
    base: tuple[int, ...]
    image: tuple[int, ...]
    pair: WordPair
    mode: GraphMode
    determinant: int
    image_is_vertex: bool
    same_component: bool
    distance: int | None
    component_sizes: tuple[int, ...]
    geodesic: list[dict] | None

    def to_json(self) -> dict:
        return {
            "groupSpec": self.group.name,
            "baseTuple": list(self.base),
            "imageTuple": list(self.image),
            "pair": self.pair.to_json(),
            "mode": self.mode.describe(),
            "determinant": self.determinant,
            "imageIsVertex": self.image_is_vertex,
            "sameComponent": self.same_component,
            "distance": self.distance,
            "componentSizes": list(self.component_sizes),
            **({"geodesic": self.geodesic} if self.geodesic is not None else {}),
        }


def scan_quotient(
    group: FiniteGroup,
    base: Sequence[int],
    pair: WordPair,
    mode: GraphMode,
) -> ScanReport:
    """Map a base vertex through the word pair and locate the image.

    Requires a unimodular exponent matrix.  On whole-group AC graphs of
    normally 2-generated groups the image must again be a vertex; a
    violation is raised loudly (it would contradict the substitution
    argument, or exhibit something far more interesting).  The distance
    is the length of the geodesic the report carries.
    """
    matrix, det = exponent_matrix(pair)
    if det not in (1, -1):
        raise PreconditionError(f"exponent matrix {matrix} has det {det}, not ±1")
    handle = GraphHandle(group, 2, mode)
    base = tuple(base)
    base_code = handle.encode(base)
    if not handle.vertex_mask[base_code]:
        raise PreconditionError("base tuple is not a vertex")
    image = apply_pair_map(pair, base, group)
    image_code = handle.encode(image)
    image_is_vertex = bool(handle.vertex_mask[image_code])
    whole_ac = mode.is_ac and handle.normal.is_whole_group()
    if whole_ac and not image_is_vertex and nd_pair(group)[0] <= 2:
        raise VerificationError(
            f"substituted pair fails to normally generate {group.name}: "
            f"base {base}, image {image}"
        )
    parts = components(handle)
    same = image_is_vertex and parts.label_of(base_code) == parts.label_of(image_code)
    geo = handle.geodesic(base_code, image_code) if same else None
    return ScanReport(
        group,
        base,
        image,
        pair,
        mode,
        det,
        image_is_vertex,
        same,
        len(geo) if geo is not None else None,
        tuple(parts.sizes),
        geo,
    )


def transvection_base(group: FiniteGroup) -> tuple[int, int]:
    """The standard base tuple for SL2 scans: the group's generators
    (the two transvections for parsed sl2 groups)."""
    gens = group.generators
    if len(gens) != 2:
        raise PreconditionError(f"{group.name} does not have a standard 2-tuple base")
    return (gens[0], gens[1])


@dataclass
class SeriesRow:
    spec: str
    order: int | None
    distance: int | None
    same_component: bool | None
    component_sizes: tuple[int, ...] | None
    error: str | None

    def to_json(self) -> dict:
        return {
            "spec": self.spec,
            "order": self.order,
            "distance": self.distance,
            "sameComponent": self.same_component,
            "componentSizes": (
                list(self.component_sizes) if self.component_sizes is not None else None
            ),
            "error": self.error,
        }


def distance_series(
    specs: Sequence[str],
    pair: WordPair,
    mode: GraphMode,
) -> list[SeriesRow]:
    """Distance from the standard base to its pair image, per group spec.

    Per-row failures (parse errors, resource caps) are recorded in the
    row instead of aborting the series.
    """
    rows = []
    for spec in specs:
        try:
            group = parse_group(spec)
            base = transvection_base(group)
            report = scan_quotient(group, base, pair, mode)
            rows.append(
                SeriesRow(
                    spec,
                    group.order,
                    report.distance,
                    report.same_component,
                    report.component_sizes,
                    None,
                )
            )
        except (GroupSpecError, ResourceCapError, PreconditionError) as exc:
            rows.append(SeriesRow(spec, None, None, None, None, str(exc)))
    return rows
