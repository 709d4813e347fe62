"""Implicit-graph engine for tuple-transformation graphs over finite groups.

Four graph families share one vertex/edge machinery, selected by
``GraphMode``:

* full AC: k-tuples of a normal subgroup N that normally generate it;
  edges are component multiplication by another component (either side,
  either sign), component inversion, and conjugation of a component by
  any group element;
* restricted AC: same vertices, conjugation only by a generating set S
  (by default S together with its inverses, so the neighbor relation is
  symmetric; a directed reading is available behind a flag);
* Nielsen: generating k-tuples of the group, multiplication moves only;
* extended Nielsen: Nielsen plus component inversion.

Vertices are coded by ``np.ravel_multi_index`` over member positions
of N; edges are never stored.  One move stream (``_move_images``) yields
the images of a frontier under every move, block by block, as numpy
gathers over product and inverse tables; a move is named by its row's
place in the stream.  Over the whole group a member's position is its
element index, so the handle moves over the group's own product table and
inverse array; only a proper N gets tables of its own.  Product tables
keep the group's index dtype (uint16 below 65,536 elements); each block
is widened to int64 as it is built.

The BFS is one generator, ``_levels``, that yields each level's codes and
builds the next only when asked.  It picks push or pull per level (Beamer,
Asanovic & Patterson, SC 2012), takes full AC's conjugation moves in their
level form (``_class_step``), and runs in a bounded working set: beyond
its hit map and unvisited mask, 2 bytes per code, and its frontier, what
it allocates fits one budget of ``BLOCK_CELLS`` int64 cells (1 MiB, half
a 2 MiB L2 cache).  ``bfs_distances`` writes the levels into an int32
distance array, which geodesics, ``distance`` and exact diameters read;
``components`` labels the levels as they arrive and a diameter estimate
counts them, so neither builds a distance array.  On the sl2:7 full-AC
graph at k=2, the handle holds 0.2 MB, ``components`` peaks 1.7 MB above
it (tracemalloc), and ``analyze`` at about 34 MB RSS, 30 MB of which is
the interpreter with numpy and the CLI imported.  Geodesics walk back from
the target over the distance array through the inverse moves, so no
parent pointers are stored.

The vertex mask is the table of ``subgroups.generating_tuples``, the
census that also counts psi_k, read off for the whole code space at once
through each member's id.  A diameter takes its component as a boolean
mask over the code space, 1 byte per code; exact diameters prune their
sweeps by one eccentricity bound per orbit of a few code symmetries
(``symmetry_maps``, int32 below 2**31 codes), labelled by
``groups.least_in_orbit`` and cached per handle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .elements import format_element
from .errors import GroupSpecError, PreconditionError, VerificationError
from .groups import (
    FiniteGroup,
    distinct,
    least_in_orbit,
    tuple_codes,
    tuple_digits,
    tuple_maps,
)
from .subgroups import (
    BLOCK_CELLS,
    Subgroup,
    abelianization,
    generating_tuples,
    get_join_oracle,
    is_soluble,
    min_generator_count,
    nd_pair,
    quotient_group,
    tuple_count,
    word_lengths,
)

def _slices(codes: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive views of at most ``BLOCK_CELLS // 16`` codes, the
    frontier width of one move stream: its multiplication blocks and their
    gathers then stay within the budget, and each conjugation block spans
    at least 16 moves."""
    width = max(1, BLOCK_CELLS // 16)
    for start in range(0, codes.size, width):
        yield codes[start : start + width]


@dataclass(frozen=True)
class GraphMode:
    kind: str  # "full-ac" | "restricted-ac" | "nielsen" | "extended-nielsen"
    directed_conjugators: bool = False

    KINDS = ("full-ac", "restricted-ac", "nielsen", "extended-nielsen")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise GroupSpecError(f"unknown graph mode {self.kind!r}")
        if self.directed_conjugators and self.kind != "restricted-ac":
            raise GroupSpecError(f"directed conjugators need restricted-ac, not {self.kind}")

    @classmethod
    def full_ac(cls) -> "GraphMode":
        return cls("full-ac")

    @classmethod
    def restricted_ac(cls, *, directed: bool = False) -> "GraphMode":
        return cls("restricted-ac", directed)

    @classmethod
    def nielsen(cls) -> "GraphMode":
        return cls("nielsen")

    @classmethod
    def extended_nielsen(cls) -> "GraphMode":
        return cls("extended-nielsen")

    @property
    def is_ac(self) -> bool:
        return self.kind in ("full-ac", "restricted-ac")

    @property
    def has_inversion(self) -> bool:
        return self.kind != "nielsen"

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "restricted-ac":
            out["conjugators"] = "generators"
            out["directedConjugators"] = self.directed_conjugators
        return out


class GraphHandle:
    """A lazily expanded tuple graph over a finite group.

    ``normal`` is the target subgroup N for AC modes (default: the whole
    group); Nielsen modes always work over the whole group.
    """

    def __init__(
        self,
        group: FiniteGroup,
        k: int,
        mode: GraphMode,
        normal: Subgroup | None = None,
    ):
        if k < 1:
            raise PreconditionError("tuple length k must be >= 1")
        self.group = group
        self.k = k
        self.mode = mode
        whole = Subgroup(group, tuple(range(group.order)), True)
        if mode.is_ac:
            self.normal = normal if normal is not None else whole
            if not self.normal.is_normal:
                raise PreconditionError("AC graphs need a normal subgroup")
        else:
            if normal is not None and not normal.is_whole_group():
                raise PreconditionError("Nielsen graphs range over the whole group")
            self.normal = whole

        members = np.array(self.normal.members, dtype=np.int64)
        nm = len(members)
        self.size = tuple_count("graph_tuples", nm, k)
        self.nm = nm
        self.member_idx = members
        pos_of = np.full(group.order, -1, dtype=np.int64)
        pos_of[members] = np.arange(nm)
        self.pos_of = pos_of

        self.conjugator_indices = self._conjugators()
        self.NMUL, self.NINV = self._member_tables()
        self._classes = self._class_layout() if mode.kind == "full-ac" else None

        self.shape = (nm,) * k
        self.radix = np.array([nm ** (k - 1 - i) for i in range(k)], dtype=np.int64)

        oracle_mode = "normal" if mode.is_ac else "plain"
        self.oracle = get_join_oracle(group, oracle_mode)
        if mode.is_ac:
            self.target_id = self.oracle.id_of_members(self.normal.member_set)
        else:
            self.target_id = self.oracle.full_id
        self.vertex_mask = self._vertex_mask()
        self.vertex_count = int(self.vertex_mask.sum())

    # -- tables -----------------------------------------------------------------

    def _member_tables(self) -> tuple[np.ndarray | None, np.ndarray]:
        """Product table in the group's index dtype (None at k = 1, where
        no multiplication move exists) and inverse array over member
        positions: the group's own over the whole group.  Over a proper N,
        closure under product is checked at every k, in row blocks of at
        most ``BLOCK_CELLS`` cells."""
        g, m, nm = self.group, self.member_idx, self.nm
        if nm == g.order:
            return (g.mul_table if self.k > 1 else None), g.inv_array
        ninv = self.pos_of[g.inv_array[m]]
        if (ninv < 0).any():
            raise PreconditionError("member set not closed under inverse")
        nmul = np.empty((nm, nm), dtype=g.mul_table.dtype) if self.k > 1 else None
        member = self.pos_of >= 0
        rows = max(1, BLOCK_CELLS // nm)
        for start in range(0, nm, rows):
            block = g.mul_table[np.ix_(m[start : start + rows], m)]
            if not member[block].all():
                raise PreconditionError("member set not closed under product")
            if nmul is not None:
                nmul[start : start + rows] = self.pos_of[block]
        return nmul, ninv

    def _conj_rows(self, ws: Sequence[int]) -> np.ndarray:
        """Row r: conjugation by ws[r] over member positions (-1 where it
        leaves N)."""
        return self.pos_of[self.group.conjugation_rows(ws)[:, self.member_idx]]

    def _conjugators(self) -> np.ndarray:
        """The conjugation moves' group elements: all of G in full AC, the
        generators and (unless directed) their inverses in restricted AC,
        none in Nielsen modes.  Of these it keeps the first of each coset
        Cw of the centralizer C of N, named by its least member, and none
        from C itself, since conjugations by w and w' agree on N iff w' is
        in Cw.  N must be closed under conjugation by the generators of G,
        hence by all of G."""
        g, mode = self.group, self.mode
        if not mode.is_ac:
            return np.zeros(0, dtype=np.int64)
        if (self._conj_rows(g.generators) < 0).any():
            raise PreconditionError("member set not closed under conjugation")
        if mode.kind == "full-ac":
            ws = np.arange(g.order, dtype=np.int64)
        else:
            ws = np.array(g.generators, dtype=np.int64)
            if not ws.size:
                raise PreconditionError("restricted AC needs a nonempty conjugator set")
            if not mode.directed_conjugators:
                ws = np.concatenate((ws, g.inv_array[ws]))
        mt, m = g.mul_table, self.member_idx
        central = np.ones(g.order, dtype=bool)
        rows = max(1, BLOCK_CELLS // g.order)
        for start in range(0, self.nm, rows):
            block = m[start : start + rows]
            central &= (mt[:, block] == mt[block].T).all(axis=1)
        names = ws.copy()
        for c in np.flatnonzero(central):
            np.minimum(names, mt[c, ws], out=names)
        _, first = np.unique(names, return_index=True)
        return ws[np.sort(first[names[first] > 0])]

    def _class_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The member positions grouped by G-class, for the class step: a
        stable order that sorts them by class, the start of each class in
        it, and each position's dense class id."""
        labels = self.group.class_labels[self.member_idx]
        order = np.argsort(labels, kind="stable")
        first = np.ones(self.nm, dtype=bool)
        first[1:] = labels[order[1:]] != labels[order[:-1]]
        class_of = np.empty(self.nm, dtype=np.int64)
        class_of[order] = np.cumsum(first) - 1
        return order, np.flatnonzero(first), class_of

    def _vertex_mask(self) -> np.ndarray:
        """Codes whose entries generate the target (normally, in AC modes):
        the census table read off per code through its members' ids."""
        local, table = generating_tuples(
            self.oracle, self.member_idx, self.k, self.target_id
        )
        return table[np.ix_(*[local] * self.k)].ravel()

    # -- codec ------------------------------------------------------------------

    def encode(self, tup: Sequence[int]) -> int:
        """Code of a tuple of group element indices."""
        if len(tup) != self.k:
            raise PreconditionError(f"tuple length {len(tup)} != k={self.k}")
        for i in tup:
            if not 0 <= i < self.group.order or self.pos_of[i] < 0:
                raise PreconditionError(f"element index {i} outside the member set")
        return int(np.ravel_multi_index(self.pos_of.take(tup), self.shape))

    def decode(self, code: int) -> tuple[int, ...]:
        """Tuple of group element indices for a vertex code."""
        return tuple(self.member_idx.take(np.unravel_index(code, self.shape)).tolist())

    def is_vertex(self, tup: Sequence[int]) -> bool:
        return bool(self.vertex_mask[self.encode(tup)])

    def vertices(self) -> Iterator[tuple[int, ...]]:
        """Stream of vertex tuples, ascending by code (count: vertex_count)."""
        for code in np.flatnonzero(self.vertex_mask):
            yield self.decode(int(code))

    def format_tuple(self, tup: Sequence[int]) -> str:
        return "; ".join(format_element(self.group.elements[i]) for i in tup)

    # -- the move stream ------------------------------------------------------------

    def describe_move(self, place: int) -> dict:
        """The move at ``place`` in the forward stream of ``_move_images``:
        per component i, its 4(k - 1) products with each other component j,
        then its inversion if the mode has one, then its conjugations by
        ``conjugator_indices`` in order."""
        products, inversion = 4 * (self.k - 1), int(self.mode.has_inversion)
        i, r = divmod(place, products + inversion + len(self.conjugator_indices))
        if r < products:
            j, variant = divmod(r, 4)
            side = "right" if variant < 2 else "left"
            return {
                "type": f"multiply_{side}",
                "i": i,
                "j": j + (j >= i),
                "inverse": bool(variant % 2),
            }
        if r < products + inversion:
            return {"type": "invert", "i": i}
        w = int(self.conjugator_indices[r - products - inversion])
        return {
            "type": "conjugate",
            "i": i,
            "w": format_element(self.group.elements[w]),
            "wIndex": w,
        }

    def _move_images(
        self, frontier: np.ndarray, *, backward: bool = False, conjugation: bool = True
    ) -> Iterator[np.ndarray]:
        """Every move applied to every frontier code, as blocks of codes.

        Each block has one row per move and one column per frontier code;
        concatenated along axis 0, the blocks give one row per move, and a
        row's place in the stream names its move (``describe_move``).  A
        conjugation block, which gathers w^-1 y w for the members y of
        component i, holds at most ``BLOCK_CELLS`` cells.  With
        ``backward`` the blocks hold instead the codes that one move takes
        to each frontier code (multiplication and inversion moves are
        closed under inverses, and a conjugation block gathers w y w^-1);
        a place then names no move that leads from its row.  Without
        ``conjugation`` the conjugation blocks are left out.  The stream
        drops each block when resumed, so a caller that drops its own
        reference too keeps one block alive; the BFS bounds the frontier
        width by feeding it ``_slices``.
        """
        k, nm = self.k, self.nm
        radix = self.radix[:, None]
        comps = frontier // radix % nm
        # rows 0..k-1: the components; rows k..2k-1: the code less component i
        cols = np.concatenate((comps, frontier - comps * radix))
        del comps
        ws = self.conjugator_indices if conjugation else self.conjugator_indices[:0]
        # the flat product table: x y sits at x * order + y
        mt, order = self.group.mul_table.ravel(), self.group.order
        pre, post = self.group.inv_array[ws][:, None], ws[:, None]
        if backward:
            pre, post = post, pre
        rows = max(1, BLOCK_CELLS // max(frontier.size, 1))
        for i in range(k):
            r = self.radix[i]
            for j in range(k):
                if j == i:
                    continue
                a, b, base = cols[i], cols[j], cols[k + i]
                b_inv = self.NINV[b]
                pos = np.stack(
                    (self.NMUL[a, b], self.NMUL[a, b_inv],
                     self.NMUL[b, a], self.NMUL[b_inv, a]),
                    dtype=np.int64,
                )
                pos *= r
                pos += base
                yield pos
                del pos
            if self.mode.has_inversion:
                codes = cols[k + i] + self.NINV[cols[i]][None, :] * r
                yield codes
                del codes
            for start in range(0, ws.size, rows):
                block = pre[start : start + rows] * order + self.member_idx[cols[i]]
                block[...] = mt[block]
                block *= order
                block += post[start : start + rows]
                block[...] = mt[block]
                # in place: mode="clip" never copies out, and every code is in range
                np.take(self.pos_of, block, out=block, mode="clip")
                block *= r
                block += cols[k + i]
                yield block
                del block  # before the next block is built

    def _images_of(self, code: int, *, backward: bool = False) -> np.ndarray:
        """The stream of a single code: entry p is its row at place p (no
        entry at all in a graph without moves, Nielsen at k = 1)."""
        column = np.array([code])
        blocks = self._move_images(column, backward=backward)
        return np.concatenate([column[:0], *(block[:, 0] for block in blocks)])

    # -- symmetries ----------------------------------------------------------------

    def symmetry_maps(self) -> list[np.ndarray]:
        """Code -> code permutations that preserve the vertex mask and the
        move set, hence eccentricity.

        Diagonal conjugation by each generator of G (not in restricted AC,
        whose conjugator set it need not preserve), the swap of positions
        0 and 1 and, for k > 2, the cycle of all positions, and inversion
        of component 0 (multiplication moves trade sides under it).
        """
        conjugators = () if self.mode.kind == "restricted-ac" else self.group.generators
        maps = tuple_maps(self._conj_rows(conjugators), self.shape)
        digits = tuple_digits(self.shape)
        maps.append(tuple_codes([self.NINV[digits[0]], *digits[1:]], self.shape))
        return maps

    @cached_property
    def orbit_labels(self) -> np.ndarray:
        """Per code, the least code of its orbit under ``symmetry_maps``."""
        return least_in_orbit(self.symmetry_maps(), self.size)

    def neighbors(self, tup: Sequence[int]) -> list[tuple[int, ...]]:
        """Deduplicated neighbor tuples of a vertex (self-loops removed)."""
        code = self.encode(tup)
        if not self.vertex_mask[code]:
            raise PreconditionError(f"not a vertex: {tuple(tup)}")
        return [self.decode(int(c)) for c in distinct(self._images_of(code)) if c != code]

    # -- BFS and geodesics -----------------------------------------------------------

    def _codes(self, codes, what: str) -> np.ndarray:
        """``codes`` as int64, PreconditionError if one is outside the code
        space."""
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and not (0 <= codes.min() and codes.max() < self.size):
            raise PreconditionError(f"{what} code outside 0..{self.size - 1}")
        return codes

    def _levels(self, sources: Sequence[int]) -> Iterator[np.ndarray]:
        """The codes of each BFS level from the source codes, ascending,
        level 0 (the sources) first.

        Each level pushes every move from the frontier into a hit map,
        slice by slice, unless the unvisited vertices are no more than the
        frontier: then it pulls, testing each unvisited code's preimages
        against the frontier, which never scans more cells than the push
        it replaces.  In full AC the class step's hits join the level at
        once, and both directions stream only the other moves.  The next
        level is built only when asked for; a consumer that drops its level
        first keeps one frontier alive while the next is built.
        """
        # the frontier's codes, on entry to every level
        hit = np.zeros(self.size, dtype=bool)
        hit[self._codes(sources, "BFS source")] = True
        frontier = np.flatnonzero(hit)
        if not self.vertex_mask[frontier].all():
            raise PreconditionError("BFS source is not a vertex")
        unvisited = self.vertex_mask.copy()
        unvisited[frontier] = False
        unvisited_count = self.vertex_count - frontier.size
        streamed = self._classes is None  # whether the move streams carry conjugation
        while frontier.size:
            yield frontier
            if not unvisited_count:
                return
            reached = None  # the class step's new codes, read before the hit map is reused
            if not streamed:
                reached = self._class_step(hit)
                reached &= unvisited
            if unvisited_count <= frontier.size:
                del frontier  # a pull reads the frontier's mask, not its codes
                candidates = unvisited if reached is None else unvisited & ~reached
                pulled = self._pull(np.flatnonzero(candidates), hit, conjugation=streamed)
                del candidates
                if reached is None:
                    hit[:] = False
                else:
                    hit = reached
                hit[pulled] = True
                del pulled
            else:
                for part in _slices(frontier):
                    for codes in self._move_images(part, conjugation=streamed):
                        hit[codes] = True
                        del codes  # before the stream builds the next block
                del part, frontier  # a slice is a view that keeps its frontier
                # codes marked at earlier levels are visited, so this clears them
                hit &= unvisited
                if reached is not None:
                    hit |= reached
            del reached  # nothing but the hit map and the masks outlives a level
            frontier = np.flatnonzero(hit)
            unvisited[frontier] = False
            unvisited_count -= frontier.size

    def bfs_distances(
        self, sources: Sequence[int], *, target: int | None = None
    ) -> np.ndarray:
        """Distance array (int32, -1 unreached) from source codes, written
        level by level from ``_levels``.  With ``target``, the BFS stops at
        the first level that holds one of the target's preimages, with
        ``dist[target]`` set and every lower level complete."""
        dist = np.full(self.size, -1, dtype=np.int32)
        if target is not None:
            target = int(self._codes(target, "BFS target"))
            target_preds = self._images_of(target, backward=True)
        d = -1  # no enumerate(): its reused result tuple would keep the last level
        for level in self._levels(sources):
            d += 1
            dist[level] = d
            del level  # before the next level is built
            if target is None:
                continue
            if dist[target] < 0 and (dist[target_preds] == d).any():
                dist[target] = d + 1
            if dist[target] >= 0:
                break
        return dist

    def _class_step(self, mask: np.ndarray) -> np.ndarray:
        """The codes that a full-AC conjugation move leads to from a code
        of ``mask``, and the codes of ``mask`` themselves: the conjugates
        of x_i by all of G are x_i's G-class, so along each axis the step
        ORs the mask over each class and broadcasts the result back over
        the class.  It is the frontier times a block-diagonal matrix of
        all-ones class blocks (Kepner & Gilbert, *Graph Algorithms in the
        Language of Linear Algebra*, 2011)."""
        order, starts, class_of = self._classes
        out = np.zeros(self.size, dtype=bool)
        for i in range(self.k):
            shape = (self.nm**i, self.nm, -1)
            by_class = mask.reshape(shape).take(order, axis=1)
            hits = np.logical_or.reduceat(by_class, starts, axis=1)
            del by_class
            view = out.reshape(shape)
            view |= hits.take(class_of, axis=1)
        return out

    def _pull(
        self, candidates: np.ndarray, in_frontier: np.ndarray, *, conjugation: bool
    ) -> np.ndarray:
        """The candidate codes that one move leads to from a code of the
        ``in_frontier`` mask, one move stream per slice of the candidates."""
        found = [candidates[:0]]
        for part in _slices(candidates):
            hits = np.zeros(part.size, dtype=bool)
            for preds in self._move_images(part, backward=True, conjugation=conjugation):
                hits |= in_frontier[preds].any(axis=0)
                del preds  # before the stream builds the next block
            found.append(part[hits])
        return np.concatenate(found)

    def geodesic(self, source: int, target: int) -> list[dict] | None:
        """Move sequence of one shortest path source -> target, or None.

        Walks back from the target over the distance array: each step
        takes the first code one level closer that a move leads from.
        """
        dist = self.bfs_distances([source], target=target)
        if dist[target] < 0:
            return None
        path = []
        code = target
        for level in range(int(dist[target]) - 1, -1, -1):
            preds = self._images_of(code, backward=True)
            prev = int(preds[np.argmax(dist[preds] == level)])
            place = int(np.argmax(self._images_of(prev) == code))
            path.append(
                {
                    "from": self.format_tuple(self.decode(prev)),
                    "to": self.format_tuple(self.decode(code)),
                    "move": self.describe_move(place),
                }
            )
            code = prev
        path.reverse()
        return path

    def describe(self) -> dict:
        return {
            "groupSpec": self.group.name,
            "normalSubgroup": {
                "order": self.normal.order,
                "wholeGroup": self.normal.is_whole_group(),
            },
            "k": self.k,
            "mode": self.mode.describe(),
        }


@dataclass
class ComponentPartition:
    handle: GraphHandle
    labels: np.ndarray  # per code: component label or -1
    sizes: tuple[int, ...]  # by label
    reps: tuple[int, ...]  # minimal vertex code per label

    @property
    def count(self) -> int:
        return len(self.sizes)

    def label_of(self, code: int) -> int:
        lab = int(self.labels[code])
        if lab < 0:
            raise PreconditionError(f"code {code} is not a vertex")
        return lab

    def codes_of(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def to_json(self) -> dict:
        return {
            "componentCount": self.count,
            "components": [
                {
                    "size": int(s),
                    "sampleVertex": self.handle.format_tuple(
                        self.handle.decode(int(r))
                    ),
                }
                for s, r in zip(self.sizes, self.reps)
            ],
        }


def components(handle: GraphHandle) -> ComponentPartition:
    """Connected components via repeated BFS over the vertex mask."""
    labels = np.full(handle.size, -1, dtype=np.int32)
    sizes: list[int] = []
    reps: list[int] = []
    unlabeled = handle.vertex_mask.copy()
    code = 0  # a cursor that only moves forward: no code below it is unlabeled
    while True:
        code += int(np.argmax(unlabeled[code:]))
        if not unlabeled[code]:
            break
        size = 0
        for level in handle._levels([code]):
            labels[level] = len(sizes)
            unlabeled[level] = False
            size += level.size
            del level  # before the next level is built
        sizes.append(size)
        reps.append(code)
    return ComponentPartition(handle, labels, tuple(sizes), tuple(reps))


def distance(handle: GraphHandle, u: Sequence[int], v: Sequence[int]) -> int | None:
    """Shortest path length between vertex tuples; None across components."""
    cu, cv = handle.encode(u), handle.encode(v)
    for c in (cu, cv):
        if not handle.vertex_mask[c]:
            raise PreconditionError("distance endpoints must be vertices")
    dist = handle.bfs_distances([cu], target=cv)
    d = int(dist[cv])
    return d if d >= 0 else None


def _eccentricity(
    handle: GraphHandle, source: int, component: np.ndarray, size: int
) -> tuple[int, int]:
    """The eccentricity of ``source`` and the first code at that distance,
    read from the BFS levels; PreconditionError unless the levels fill the
    ``component`` mask of ``size`` codes."""
    ecc, reached = -1, 0
    for level in handle._levels([source]):
        if not component[level].all():
            raise PreconditionError("the mask is not a single component")
        ecc += 1
        reached += level.size
        far = int(level[0])
        del level  # before the next level is built
    if reached != size:
        raise PreconditionError("the mask is not a single component")
    return ecc, far


def diameter(handle: GraphHandle, component: np.ndarray, *, exact: bool = True) -> int:
    """Max eccentricity of one component, by bounds that tighten after
    every BFS (Takes & Kosters, CIKM 2011).

    ``component`` is a boolean mask over the code space, such as
    ``parts.labels == lab``: 1 byte per code, where a list of the
    component's codes would take 8.  The first two BFS are the double
    sweep, from the first code and from the first farthest one;
    ``exact=False`` returns the larger eccentricity after them, read from
    the BFS levels, so it builds no distance array.  Otherwise the
    component's codes are grouped by symmetry orbit before the first BFS,
    and each orbit keeps one bound, not each code.  Each BFS's distance
    array gives the lower bound, the largest eccentricity found, and
    bounds each code v by ecc(w) + d(w, v) for the source w, so each orbit
    by the least of these over its codes.  Each next BFS runs from the
    first code of the orbit whose bound is largest, until none exceeds the
    lower bound.  Symmetries preserve eccentricity but may carry one
    component onto another, so an orbit stands for its codes inside the
    component.  With directed conjugators a BFS gives d(w, v), not the
    d(v, w) the bound needs, so it bounds only w's orbit.
    """
    component = np.asarray(component)
    if component.dtype != bool or component.shape != (handle.size,):
        raise PreconditionError("a component is a boolean mask over the code space")
    size = int(np.count_nonzero(component))
    if size == 0:
        raise PreconditionError("empty component")
    if size == 1:
        return 0
    source = int(np.argmax(component))
    if not exact:
        first, far = _eccentricity(handle, source, component, size)
        return max(first, _eccentricity(handle, far, component, size)[0])
    # the component's codes grouped by orbit, each group in code order; the
    # orbit labels are built first, so their peak holds no codes
    orbit_labels = handle.orbit_labels
    by_orbit = np.flatnonzero(component).astype(orbit_labels.dtype)
    by_orbit = by_orbit[np.argsort(orbit_labels[by_orbit], kind="stable")]
    labels = orbit_labels[by_orbit]
    starts = np.flatnonzero(np.concatenate(([True], labels[1:] != labels[:-1])))
    leaders = labels[starts]  # each orbit's label, ascending
    del labels
    bound = np.full(starts.size, size)  # each orbit's least bound
    lower = 0
    for sweep in itertools.count():
        dist = handle.bfs_distances([source])
        if not np.array_equal(dist >= 0, component):
            raise PreconditionError("the mask is not a single component")
        far = int(np.argmax(dist))
        ecc = int(dist[far])
        lower = max(lower, ecc)
        bound[np.searchsorted(leaders, orbit_labels[source])] = ecc
        if not handle.mode.directed_conjugators:
            np.minimum(bound, np.minimum.reduceat(dist[by_orbit], starts) + ecc, out=bound)
        del dist  # before the next BFS
        if sweep == 0:
            source = far
        elif bound.max() <= lower:
            return lower
        else:
            source = int(by_orbit[starts[np.argmax(bound)]])


def cayley_diameter(group: FiniteGroup, generator_indices: Sequence[int]) -> int:
    """Diameter of the (undirected) Cayley graph of the group w.r.t. the
    given generators.  Vertex-transitive, so the longest word length in
    the generators and their inverses."""
    gens = np.asarray(generator_indices, dtype=np.int64)
    if not gens.size:
        raise PreconditionError("Cayley graph needs generators")
    length = word_lengths(group, np.concatenate((gens, group.inv_array[gens])))
    if (length < 0).any():
        raise PreconditionError("generators do not generate the group")
    return int(length.max())


# -- quotient-compatibility checks ----------------------------------------------


@dataclass
class CoverCheckReport:
    group: FiniteGroup
    modulo_order: int
    k: int
    surjective: bool
    group_components: int
    quotient_components: int
    correspondence: tuple[tuple[int, int, int], ...]  # (g label, size, q label)


def _component_map(
    src: GraphHandle,
    dst: GraphHandle,
    projection: Sequence[int],
    not_vertex: str,
    split: str,
) -> tuple[np.ndarray, ComponentPartition, ComponentPartition, tuple]:
    """Project every vertex code of ``src`` into ``dst`` once; return the
    images, both partitions and a (label, size, target label) triple per
    source component.  VerificationError(``not_vertex``) if an image is no
    vertex, VerificationError(``split``) if a component meets two targets."""
    codes = np.flatnonzero(src.vertex_mask)
    pi = np.asarray(projection, dtype=np.int64)
    tuples = src.member_idx.take(np.unravel_index(codes, src.shape))
    images = np.ravel_multi_index(dst.pos_of[pi[tuples]], dst.shape)
    if not dst.vertex_mask[images].all():
        raise VerificationError(not_vertex)
    src_parts = components(src)
    dst_parts = components(dst)
    keys = distinct(
        src_parts.labels[codes].astype(np.int64) * dst_parts.count
        + dst_parts.labels[images]
    )
    if len(keys) != src_parts.count:
        raise VerificationError(split)
    targets = (keys % dst_parts.count).tolist()
    pairs = tuple(zip(range(src_parts.count), src_parts.sizes, targets))
    return images, src_parts, dst_parts, pairs


def cover_check(group: FiniteGroup, modulo: Subgroup, k: int) -> CoverCheckReport:
    """Check that the induced map of whole-group AC graphs onto the
    quotient's hits every quotient vertex, and report the component
    correspondence (each source component maps into one quotient
    component; preimages are unions of source components)."""
    nd, _ = nd_pair(group)
    if nd > k:
        raise PreconditionError(
            f"{group.name} is not normally generated by {k} elements"
        )
    src = GraphHandle(group, k, GraphMode.full_ac())
    quotient, pi = quotient_group(group, modulo)
    dst = GraphHandle(quotient, k, GraphMode.full_ac())
    images, src_parts, dst_parts, pairs = _component_map(
        src,
        dst,
        pi,
        "image of a vertex is not a vertex in the quotient",
        "a connected component maps into several quotient components",
    )
    surjective = len(distinct(images)) == dst.vertex_count
    return CoverCheckReport(
        group,
        modulo.order,
        k,
        surjective,
        src_parts.count,
        dst_parts.count,
        pairs,
    )


@dataclass
class SolubleComponentReport:
    group: FiniteGroup
    k: int
    invariant_factors: tuple[int, ...]
    group_components: int
    quotient_components: int
    bijection: tuple[tuple[int, int, int], ...]  # (g label, size, q label)


def soluble_component_check(group: FiniteGroup, k: int) -> SolubleComponentReport:
    """For a soluble k-generated group: the components of the whole-group
    AC graph biject with the components of the extended-Nielsen graph of
    the abelianization, via the projection.  Raises VerificationError if
    the bijection fails."""
    if not is_soluble(group):
        raise PreconditionError(f"{group.name} is not soluble")
    if min_generator_count(group, k) is None:
        raise PreconditionError(f"{group.name} is not generated by {k} elements")
    ab = abelianization(group)
    src = GraphHandle(group, k, GraphMode.full_ac())
    dst = GraphHandle(ab.target, k, GraphMode.extended_nielsen())
    _, src_parts, dst_parts, pairs = _component_map(
        src,
        dst,
        ab.projection_idx,
        "projection of a vertex fails to generate Ab(G)",
        "a component maps into several abelianized components",
    )
    targets = {q for _, _, q in pairs}
    if len(targets) != len(pairs):
        raise VerificationError(
            "two components share an abelianized component: preimage disconnected"
        )
    if len(targets) != dst_parts.count:
        raise VerificationError("component map is not onto the quotient components")
    return SolubleComponentReport(
        group,
        k,
        ab.invariant_factors,
        src_parts.count,
        dst_parts.count,
        pairs,
    )
