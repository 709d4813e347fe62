import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from acgraphs import graphs
from acgraphs.elements import parse_cycles
from acgraphs.errors import PreconditionError, ResourceCapError
from acgraphs.graphs import (
    GraphHandle,
    GraphMode,
    cayley_diameter,
    components,
    cover_check,
    diameter,
    distance,
    soluble_component_check,
)
from acgraphs.groups import parse_group, tuple_codes, tuple_digits
from acgraphs.subgroups import (
    JoinOracle,
    Subgroup,
    derived_subgroup,
    normal_closure,
    normal_subgroups,
    word_lengths,
)
from acgraphs.verify import SMALL_CORPUS

from helpers import (
    all_vertex_diameter,
    apply_move,
    brute_center,
    brute_components,
    brute_diameter,
    brute_distance,
    brute_distances,
    brute_graph,
    brute_normal_closure,
    brute_normally_generates,
    brute_generates,
    brute_span,
    conj,
    inverse,
)


def idx(group, text):
    return group.index_of(parse_cycles(text, group.elements[0].degree))


def whole(group):
    return Subgroup(group, tuple(range(group.order)), True)


# -- vertex sets -----------------------------------------------------------------


def test_vertices_alt5():
    g = parse_group("alt:5")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    assert h.vertex_count == 60 * 60 - 1


def test_vertices_nielsen_z3z3():
    g = parse_group("abelian:3,3")
    h = GraphHandle(g, 2, GraphMode.nielsen())
    assert h.vertex_count == 48  # (9-1)(9-3) generating pairs


def test_vertices_trivial_group():
    g = parse_group("cyclic:1")
    h = GraphHandle(g, 1, GraphMode.full_ac())
    assert h.vertex_count == 1


def test_vertex_stream_matches_brute_predicate():
    g = parse_group("sym:3")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    els = list(g.elements)
    expected = {
        tup
        for tup in __import__("itertools").product(els, repeat=2)
        if brute_normally_generates(els, list(tup))
    }
    ours = {
        (g.elements[a], g.elements[b]) for a, b in h.vertices()
    }
    assert ours == expected
    assert len(ours) == h.vertex_count


def test_sl2_vertex_counts_account_for_the_center():
    # the four central pairs are the only non-vertices
    for spec, order in (("sl2:5", 120), ("sl2:7", 336)):
        g = parse_group(spec)
        h = GraphHandle(g, 2, GraphMode.full_ac())
        assert h.vertex_count == order * order - 4


def _brute_vertex_predicate(group, normal, mode):
    """Vertex test on element tuples: the span of the entries (of all their
    conjugates, in AC modes) is N.  Memoized on the entries, or on their
    conjugacy classes, since that is all the span depends on."""
    els = list(group.elements)
    target = {group.elements[i] for i in normal.members}
    classes = {x: frozenset(conj(x, w) for w in els) for x in els}
    memo = {}

    def pred(tup):
        key = frozenset(classes[x] for x in tup) if mode.is_ac else frozenset(tup)
        if key not in memo:
            seeds = set().union(*key) if mode.is_ac else key
            memo[key] = brute_span(els[0], seeds) == target
        return memo[key]

    return pred


def test_vertex_mask_matches_oracle_and_brute_predicate():
    # the mask folds joins once per symmetry orbit of singleton-closure id
    # tuples and spreads the result; every code is checked against the
    # oracle's fold over its own tuple and against element-object spans
    s3, s4, d6 = parse_group("sym:3"), parse_group("sym:4"), parse_group("dihedral:6")
    modes = (
        GraphMode.full_ac(),
        GraphMode.restricted_ac(),
        GraphMode.nielsen(),
        GraphMode.extended_nielsen(),
    )
    cases = [(s3, k, mode, None) for k in (1, 2, 3) for mode in modes]
    cases += [
        (s4, 2, GraphMode.nielsen(), None),
        (s4, 2, GraphMode.full_ac(), None),
        (s4, 2, GraphMode.full_ac(), derived_subgroup(s4)),
        (s4, 3, GraphMode.full_ac(), derived_subgroup(s4)),
        (d6, 3, GraphMode.nielsen(), None),
        (d6, 3, GraphMode.full_ac(), None),
        (parse_group("abelian:3,3"), 2, GraphMode.nielsen(), None),
        (parse_group("alt:5"), 2, GraphMode.extended_nielsen(), None),
        (parse_group("sl2:5"), 2, GraphMode.restricted_ac(directed=True), None),
    ]
    for g, k, mode, normal in cases:
        h = GraphHandle(g, k, mode, normal)
        pred = _brute_vertex_predicate(g, h.normal, mode)
        for code in range(h.size):
            tup = h.decode(code)
            by_oracle = h.oracle.join_of_indices(tup) == h.target_id
            by_brute = pred(tuple(g.elements[i] for i in tup))
            assert h.vertex_mask[code] == by_oracle == by_brute, (g.name, k, mode, tup)
        if h.normal.is_whole_group():
            assert h.target_id == h.oracle.full_id


def test_sl2_7_nielsen_mask_joins_once_per_orbit(monkeypatch):
    # a freshly parsed group gets a fresh oracle with an empty join memo
    g = parse_group("sl2:7")
    calls = []
    join = JoinOracle.join
    monkeypatch.setattr(
        JoinOracle, "join", lambda self, a, b: calls.append((a, b)) or join(self, a, b)
    )
    h = GraphHandle(g, 2, GraphMode.nielsen())
    monkeypatch.undo()
    # orbits of ordered pairs of cyclic subgroups under conjugation by every
    # element and the swap, counted over all of G rather than its generators
    ids, local = np.unique(h.oracle.singleton_ids, return_inverse=True)
    d = len(ids)
    a, b = np.divmod(np.arange(d * d), d)
    first = np.unique(local, return_index=True)[1]
    mt, inv = g.mul_table.astype(np.int64), g.inv_array
    canon = np.full(d * d, d * d)
    for w in range(g.order):
        p = local[mt[mt[inv[w], first], w]]
        canon = np.minimum(canon, np.minimum(p[a] * d + p[b], p[b] * d + p[a]))
    orbits = len(np.unique(canon))
    assert orbits == 92
    assert 0 < len(calls) <= orbits
    assert h.vertex_count == 76_608
    assert components(h).sizes == (21504, 24192, 21504, 4704, 4704)


def test_graph_tuple_cap(monkeypatch):
    g = parse_group("sym:5")
    monkeypatch.setenv("ACGRAPHS_MAX_TUPLES", "10000")
    with pytest.raises(ResourceCapError):
        GraphHandle(g, 3, GraphMode.full_ac())


def test_conjugation_moves_count_only_their_tuples_against_the_cap(monkeypatch):
    # 120 tuples fit under the cap, and the 119 conjugators hold no table
    # of their own; the odd permutations normally generate sym:5
    g = parse_group("sym:5")
    monkeypatch.setenv("ACGRAPHS_MAX_TUPLES", "1000")
    for mode in (GraphMode.full_ac(), GraphMode.restricted_ac()):
        assert GraphHandle(g, 1, mode).vertex_count == 60


@pytest.mark.parametrize(
    "mode", [GraphMode.full_ac(), GraphMode.restricted_ac()], ids=lambda m: m.kind
)
def test_subgroup_not_closed_under_conjugation_is_rejected(mode):
    g = parse_group("sym:3")
    fake = Subgroup(g, tuple(sorted((0, idx(g, "(0 1)")))), True)
    with pytest.raises(PreconditionError, match="not closed under conjugation"):
        GraphHandle(g, 2, mode, fake)


# -- neighbors ---------------------------------------------------------------------


def test_nielsen_neighbor_census_k2():
    g = parse_group("abelian:3,3")
    h = GraphHandle(g, 2, GraphMode.nielsen())
    for tup in h.vertices():
        assert len(h.neighbors(tup)) <= 8


def test_full_ac_neighbor_census():
    g = parse_group("alt:5")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    v = (idx(g, "(0 1 2)"), 0)
    nbrs = h.neighbors(v)
    assert len(nbrs) <= 8 + 2 + 2 * 60
    assert all(h.is_vertex(u) for u in nbrs)


def test_inversion_neighbor_example():
    g = parse_group("sym:3")
    a3 = normal_closure(g, [idx(g, "(0 1 2)")])
    h = GraphHandle(g, 2, GraphMode.full_ac(), a3)
    v = (idx(g, "(0 1 2)"), 0)
    assert (idx(g, "(0 2 1)"), 0) in h.neighbors(v)


def test_neighbors_match_brute_moves():
    g = parse_group("sym:3")
    els = list(g.elements)
    for mode_name, mode in (
        ("full-ac", GraphMode.full_ac()),
        ("nielsen", GraphMode.nielsen()),
        ("extended-nielsen", GraphMode.extended_nielsen()),
    ):
        h = GraphHandle(g, 2, mode)
        pred = (
            (lambda t: brute_normally_generates(els, list(t)))
            if mode.is_ac
            else (lambda t: brute_generates(els, list(t)))
        )
        verts, adj = brute_graph(els, els, 2, pred, mode_name)
        for v in verts:
            v_idx = tuple(g.index_of(e) for e in v)
            ours = {
                tuple(g.elements[i] for i in u) for u in h.neighbors(v_idx)
            }
            assert ours == adj[v], f"{mode_name}: neighbor drift at {v}"


def test_conjugation_rows_are_distinct_and_not_identity():
    # w and wz conjugate alike for central z; an abelian group keeps no row
    for spec, rows in (("alt:5", 59), ("sl2:5", 59), ("abelian:3,3", 0), ("sym:4", 23)):
        g = parse_group(spec)
        gens = list(g.generators)
        # conjugated[w, x]: x conjugated by w (checked against element
        # objects in test_groups)
        conjugated = g.conjugation_rows(range(g.order))
        for mode, normal, ws in (
            (GraphMode.full_ac(), None, range(g.order)),
            (GraphMode.full_ac(), derived_subgroup(g), range(g.order)),
            (GraphMode.restricted_ac(), None, gens + [int(g.inv_array[s]) for s in gens]),
            (GraphMode.restricted_ac(directed=True), None, gens),
        ):
            h = GraphHandle(g, 2, mode, normal)
            m = h.member_idx.tolist()
            # the distinct non-identity actions on N of the mode's conjugators
            actions = {tuple(conjugated[w, m].tolist()) for w in ws} - {tuple(m)}
            if mode.kind == "full-ac" and normal is None:
                assert len(actions) == rows, spec
            kept = h.conjugator_indices.tolist()
            assert len(kept) == len(actions), (spec, mode, normal)
            assert {tuple(conjugated[w, m].tolist()) for w in kept} == actions
            moves = [h.describe_move(p) for p in range(len(h._images_of(0)))]
            places = [p for p, move in enumerate(moves) if move["type"] == "conjugate"]
            assert len(places) == 2 * len(kept)
            for x, backward in itertools.product(m, (False, True)):
                images = h._images_of(h.encode((x, x)), backward=backward)
                for p in places:
                    i, w = moves[p]["i"], moves[p]["wIndex"]
                    image = int(images[p])
                    # a backward block undoes the move: w y w^-1
                    y = int(conjugated[g.inv_array[w] if backward else w, x])
                    assert h.decode(image) == tuple(y if c == i else x for c in range(2))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("spec", ["sym:3", "dihedral:4"])
def test_every_place_of_the_move_stream_holds_its_described_move(spec, k):
    """At every place p of every code's forward stream sits the image of
    the code's tuple under ``describe_move(p)``, applied to element
    objects; in AC modes over G and over [G, G], which dihedral:4
    conjugates trivially."""
    g = parse_group(spec)
    derived = derived_subgroup(g)
    for mode, normal in (
        *itertools.product(
            (GraphMode.full_ac(), GraphMode.restricted_ac(),
             GraphMode.restricted_ac(directed=True)),
            (None, derived),
        ),
        (GraphMode.nielsen(), None),
        (GraphMode.extended_nielsen(), None),
    ):
        h = GraphHandle(g, k, mode, normal)
        moves = [h.describe_move(p) for p in range(len(h._images_of(0)))]
        for code in range(h.size):
            tup = h.decode(code)
            got = [h.decode(int(c)) for c in h._images_of(code)]
            assert got == [apply_move(g, tup, move) for move in moves], (mode, code)


def test_restricted_neighbors_use_inverse_conjugators_by_default():
    g = parse_group("sl2:5")
    h = GraphHandle(g, 2, GraphMode.restricted_ac())
    v = (g.generators[0], g.generators[1])
    sym_nbrs = set(h.neighbors(v))
    hd = GraphHandle(g, 2, GraphMode.restricted_ac(directed=True))
    directed_nbrs = set(hd.neighbors(v))
    assert directed_nbrs <= sym_nbrs


def test_neighbors_undirected():
    g = parse_group("abelian:2,4")
    h = GraphHandle(g, 2, GraphMode.extended_nielsen())
    for tup in h.vertices():
        for u in h.neighbors(tup):
            assert tup in h.neighbors(u)


def test_neighbors_rejects_non_vertex():
    g = parse_group("sym:3")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    with pytest.raises(PreconditionError):
        h.neighbors((0, 0))


# -- components ---------------------------------------------------------------------


def test_components_nielsen_z3z3():
    h = GraphHandle(parse_group("abelian:3,3"), 2, GraphMode.nielsen())
    parts = components(h)
    assert sorted(parts.sizes) == [24, 24]


def test_components_nielsen_z5z5():
    h = GraphHandle(parse_group("abelian:5,5"), 2, GraphMode.nielsen())
    parts = components(h)
    assert sorted(parts.sizes) == [120, 120, 120, 120]


def test_components_alt5_connected():
    h = GraphHandle(parse_group("alt:5"), 2, GraphMode.full_ac())
    assert components(h).count == 1


def test_components_extended_nielsen_z2z2():
    h = GraphHandle(parse_group("abelian:2,2"), 2, GraphMode.extended_nielsen())
    parts = components(h)
    assert parts.count == 1
    assert parts.sizes == (6,)


def test_components_match_brute_force():
    g = parse_group("abelian:3,3")
    els = list(g.elements)
    h = GraphHandle(g, 2, GraphMode.nielsen())
    verts, adj = brute_graph(els, els, 2, lambda t: brute_generates(els, list(t)),
                             "nielsen")
    brute = sorted(len(c) for c in brute_components(verts, adj))
    assert sorted(components(h).sizes) == brute


# -- distance and diameter -------------------------------------------------------------


def test_distance_reflexive_and_symmetric():
    g = parse_group("sym:3")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    rng = np.random.default_rng(0)
    codes = np.flatnonzero(h.vertex_mask)
    tuples = [h.decode(int(c)) for c in rng.choice(codes, size=6, replace=False)]
    for u in tuples:
        assert distance(h, u, u) == 0
        for v in tuples:
            assert distance(h, u, v) == distance(h, v, u)


def test_distance_matches_brute_bfs():
    g = parse_group("abelian:3,3")
    els = list(g.elements)
    h = GraphHandle(g, 2, GraphMode.nielsen())
    verts, adj = brute_graph(els, els, 2, lambda t: brute_generates(els, list(t)),
                             "nielsen")
    rng = np.random.default_rng(1)
    sample = [verts[int(i)] for i in rng.integers(len(verts), size=8)]
    for u in sample:
        for v in sample:
            u_idx = tuple(g.index_of(e) for e in u)
            v_idx = tuple(g.index_of(e) for e in v)
            assert distance(h, u_idx, v_idx) == brute_distance(adj, u, v)


def test_bfs_distances_match_brute_force_in_every_mode():
    s3, s4, a4 = parse_group("sym:3"), parse_group("sym:4"), parse_group("alt:4")
    a4_in_s4 = derived_subgroup(s4)
    a4_set = set(a4_in_s4.elements())

    def generates(els):
        return lambda t: brute_generates(els, list(t))

    def normally_generates(els):
        return lambda t: brute_normally_generates(els, list(t))

    def a4_closure(t):
        return brute_normal_closure(list(s4.elements), list(t)) == a4_set

    a4_gens = [a4.elements[i] for i in a4.generators]
    cases = [
        (s3, 2, GraphMode.full_ac(), None, list(s3.elements), "full-ac",
         normally_generates(list(s3.elements)), False),
        (s3, 3, GraphMode.full_ac(), None, list(s3.elements), "full-ac",
         normally_generates(list(s3.elements)), False),
        (s4, 2, GraphMode.full_ac(), a4_in_s4, list(a4_set), "full-ac",
         a4_closure, False),
        (a4, 2, GraphMode.restricted_ac(), None, list(a4.elements),
         "restricted-ac", normally_generates(list(a4.elements)), False),
        (a4, 2, GraphMode.restricted_ac(directed=True), None, list(a4.elements),
         "restricted-ac", normally_generates(list(a4.elements)), True),
        (s3, 2, GraphMode.nielsen(), None, list(s3.elements), "nielsen",
         generates(list(s3.elements)), False),
        (s4, 2, GraphMode.extended_nielsen(), None, list(s4.elements),
         "extended-nielsen", generates(list(s4.elements)), False),
    ]
    for g, k, mode, normal, members, mode_name, pred, directed in cases:
        h = GraphHandle(g, k, mode, normal)
        verts, adj = brute_graph(list(g.elements), members, k, pred, mode_name,
                                 a4_gens, directed)
        assert len(verts) == h.vertex_count
        rng = np.random.default_rng(4)
        for s in rng.choice(len(verts), size=3, replace=False):
            source = verts[int(s)]
            dist = h.bfs_distances([h.encode([g.index_of(e) for e in source])])
            expected = np.full(h.size, -1, dtype=np.int32)
            for v, d in brute_distances(adj, source).items():
                expected[h.encode([g.index_of(e) for e in v])] = d
            assert np.array_equal(dist, expected), (g.name, k, mode)


def _spy_move_images(monkeypatch, h):
    """Record (backward, frontier size, cells yielded) for every
    ``_move_images`` stream of ``h``."""
    log = []
    move_images = h._move_images

    def spy(frontier, *, backward=False, conjugation=True):
        cells = 0
        try:
            for codes in move_images(frontier, backward=backward, conjugation=conjugation):
                cells += codes.size
                yield codes
        finally:
            log.append((backward, frontier.size, cells))

    monkeypatch.setattr(h, "_move_images", spy)
    return log


def _conjugation_images(h, codes):
    """Per code of ``codes``, the sorted codes at the conjugation places of
    the move stream, with the code itself."""
    images = np.concatenate(list(h._move_images(codes)))
    places = [p for p in range(len(images)) if h.describe_move(p)["type"] == "conjugate"]
    return [np.unique(col) for col in np.concatenate((codes[None, :], images[places])).T]


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_class_step_is_the_union_of_the_conjugation_blocks(spec):
    """Over every code (a seeded sample of 64 beyond 20,000 codes), the
    class step of that one code is its conjugation moves' images and
    itself; and the step of a set of codes is the union of theirs."""
    g = parse_group(spec)
    rng = np.random.default_rng(16)
    for normal, k in itertools.product((None, derived_subgroup(g)), (1, 2, 3)):
        h = GraphHandle(g, k, GraphMode.full_ac(), normal)
        codes = np.arange(h.size)
        if h.size > 20_000:
            codes = np.sort(rng.choice(h.size, size=64, replace=False))
        for code, want in zip(codes.tolist(), _conjugation_images(h, codes)):
            one = np.zeros(h.size, dtype=bool)
            one[code] = True
            assert np.array_equal(np.flatnonzero(h._class_step(one)), want), (spec, k, code)
        some = np.zeros(h.size, dtype=bool)
        some[codes[::3]] = True
        union = np.concatenate(_conjugation_images(h, codes[::3]))
        assert np.array_equal(np.flatnonzero(h._class_step(some)), np.unique(union))


def _move_table_adjacency(h):
    """Out-neighbour sets of every vertex code from one forward pass of the
    move stream (itself checked against element-object moves above)."""
    codes = np.flatnonzero(h.vertex_mask)
    images = np.concatenate(list(h._move_images(codes)))
    return {int(c): set(images[:, n].tolist()) for n, c in enumerate(codes)}


def _slice_widths(n):
    """Widths of the slices that a BFS level cuts ``n`` codes into."""
    width = graphs.BLOCK_CELLS // 16
    return [min(width, n - start) for start in range(0, n, width)]


@pytest.mark.parametrize(
    "spec, mode",
    [("alt:5", GraphMode.full_ac()), ("sl2:5", GraphMode.restricted_ac(directed=True))],
)
def test_bfs_pulls_its_last_levels_within_the_push_cells(monkeypatch, spec, mode):
    h = GraphHandle(parse_group(spec), 2, mode)
    adj = _move_table_adjacency(h)
    # the moves a BFS stream carries per code: in full AC the class step
    # stands for the conjugation moves
    streamed = h._move_images(np.array([0]), conjugation=h._classes is None)
    moves = sum(len(codes) for codes in streamed)
    log = _spy_move_images(monkeypatch, h)
    # the default budget, under which every level of these graphs is one
    # slice, and 64-code slices with 16-row conjugation blocks, under which
    # their large levels span several
    sources = np.flatnonzero(h.vertex_mask)[:: h.vertex_count // 3][:3]
    for chunk, source in itertools.product((graphs.BLOCK_CELLS, 1024), sources):
        monkeypatch.setattr("acgraphs.graphs.BLOCK_CELLS", chunk)
        log.clear()
        dist = h.bfs_distances([int(source)])
        expected = np.full(h.size, -1, dtype=np.int32)
        for v, d in brute_distances(adj, int(source)).items():
            expected[v] = d
        assert np.array_equal(dist, expected)
        # one stream per slice of each level expanded: slices of the codes at
        # distance `level` when it pushes, of the unvisited vertices when it
        # pulls; the last level is not expanded once every vertex is reached
        at = pulls = 0
        for level in range(dist.max() + (dist[h.vertex_mask] < 0).any()):
            frontier = int(np.count_nonzero(dist == level))
            backward = log[at][0]
            candidates = h.vertex_mask & ((dist > level) | (dist < 0))
            unvisited = int(np.count_nonzero(candidates))
            if h._classes is not None:  # a pull leaves out the class step's hits
                candidates &= ~h._class_step(dist == level)
            pulled = int(np.count_nonzero(candidates))
            widths = _slice_widths(pulled if backward else frontier)
            streams = log[at : at + len(widths)]
            at += len(widths)
            assert [(b, n) for b, n, _ in streams] == [(backward, n) for n in widths]
            cells = sum(c for _, _, c in streams)
            if backward:
                pulls += 1
                assert unvisited <= frontier
                # every candidate reads all its preimages
                assert cells == pulled * moves <= frontier * moves
            else:
                assert cells == frontier * moves
        assert at == len(log)
        assert pulls >= 2


@pytest.mark.parametrize(
    "spec, mode, stride",
    # sl2:5 full AC has 14,396 vertices: every 10th one and one per level
    [("sl2:5", GraphMode.full_ac(), 10), ("alt:5", GraphMode.nielsen(), 1)],
)
def test_bfs_stops_at_a_target_with_the_levels_below_it(spec, mode, stride):
    h = GraphHandle(parse_group(spec), 2, mode)
    codes = np.flatnonzero(h.vertex_mask)
    source = int(codes[len(codes) // 2])
    full = h.bfs_distances([source])
    _, first_of_level = np.unique(full[codes], return_index=True)
    targets = np.union1d(codes[::stride], codes[first_of_level])
    for t in targets:
        dist = h.bfs_distances([source], target=int(t))
        assert dist[t] == full[t]
        below = (full >= 0) & (full < full[t]) if full[t] >= 0 else full >= 0
        assert np.array_equal(dist[below], full[below])


@pytest.mark.parametrize("spec, k", [("alt:5", 3), ("sl2:7", 2)])
def test_narrow_move_tables_give_the_int64_blocks(spec, k):
    # both graphs have more than 2^16 codes, so a block scaled by the radix
    # in the tables' own dtype would wrap
    g = parse_group(spec)
    for mode in (GraphMode.full_ac(), GraphMode.restricted_ac()):
        h = GraphHandle(g, k, mode)
        assert h.size > 2**16
        assert h.NMUL.dtype == g.mul_table.dtype
        wide = copy.copy(h)
        wide.NMUL = h.NMUL.astype(np.int64)
        rng = np.random.default_rng(17)
        frontier = np.concatenate((rng.choice(h.size, 300), np.arange(h.size - 30, h.size)))
        places = len(h._images_of(0))
        plain = [p for p in range(places) if h.describe_move(p)["type"] != "conjugate"]
        for backward, conjugation in itertools.product((False, True), repeat=2):
            narrow = list(h._move_images(frontier, backward=backward,
                                         conjugation=conjugation))
            reference = list(wide._move_images(frontier, backward=backward,
                                               conjugation=conjugation))
            assert len(narrow) == len(reference)
            # without conjugation, the stream is the full one less its
            # conjugation places
            full = np.concatenate(list(h._move_images(frontier, backward=backward)))
            assert np.array_equal(np.concatenate(narrow), full if conjugation else full[plain])
            for n, (codes, ref_codes) in enumerate(zip(narrow, reference)):
                assert codes.dtype == np.int64
                assert np.array_equal(codes, ref_codes), (spec, mode, backward, n)
            assert max(codes.max() for codes in narrow) >= 2**16


@pytest.mark.parametrize(
    "spec, mode",
    [
        ("alt:5", GraphMode.full_ac()),
        ("sl2:5", GraphMode.restricted_ac(directed=True)),
        ("abelian:3,3", GraphMode.nielsen()),  # two components
    ],
)
def test_sliced_bfs_matches_the_oracles(monkeypatch, spec, mode):
    _check_sliced_bfs(monkeypatch, GraphHandle(parse_group(spec), 2, mode))


@pytest.mark.parametrize(
    "spec, k, derived",
    [("sym:4", 2, True), ("alt:4", 3, False), ("dihedral:6", 3, False),
     ("abelian:3,3", 2, False)],
)
def test_class_step_bfs_matches_the_oracles(monkeypatch, spec, k, derived):
    """Full-AC BFS, whose conjugation moves are the class step, against
    the oracles over the move stream, which streams them as blocks."""
    g = parse_group(spec)
    h = GraphHandle(g, k, GraphMode.full_ac(), derived_subgroup(g) if derived else None)
    _check_sliced_bfs(monkeypatch, h)


def _check_sliced_bfs(monkeypatch, h):
    """Components, distances, targeted BFS, geodesics and diameters of
    ``h`` equal the oracles', at 16-code slices."""
    mode = h.mode
    adj = _move_table_adjacency(h)
    # 16-code slices and 16-row conjugation blocks: every level of more than
    # 16 codes is several streams, and alt:5's 59 conjugation rows four blocks
    monkeypatch.setattr("acgraphs.graphs.BLOCK_CELLS", 256)
    log = _spy_move_images(monkeypatch, h)
    parts = components(h)
    assert {frozenset(parts.codes_of(lab).tolist()) for lab in range(parts.count)} == {
        frozenset(comp) for comp in brute_components(list(adj), adj)
    }
    code_of = {h.format_tuple(t): h.encode(t) for t in h.vertices()}
    codes = np.flatnonzero(h.vertex_mask)
    for source in codes[:: len(codes) // 2][:2].tolist():
        expected = np.full(h.size, -1, dtype=np.int32)
        for v, d in brute_distances(adj, source).items():
            expected[v] = d
        assert np.array_equal(h.bfs_distances([source]), expected)
        # one target per level, and one vertex out of reach
        reached = np.flatnonzero(expected >= 0)
        _, first_of_level = np.unique(expected[reached], return_index=True)
        targets = reached[first_of_level].tolist()
        targets += codes[expected[codes] < 0][:1].tolist()
        for t in targets:
            dist = h.bfs_distances([source], target=t)
            assert dist[t] == expected[t]
            # every level below the target's, or all of them when it is out of reach
            below = (expected >= 0) & ((expected < expected[t]) | (expected[t] < 0))
            assert np.array_equal(dist[below], expected[below])
            path = h.geodesic(source, t)
            if expected[t] < 0:
                assert path is None
                continue
            steps = [(code_of[step["from"]], code_of[step["to"]]) for step in path]
            assert [u for u, _ in steps] + [t] == [source] + [v for _, v in steps]
            assert all(v in adj[u] for u, v in steps)
            assert len(steps) == expected[t]
    if not mode.directed_conjugators:  # a directed sweep runs one BFS per orbit
        for lab in range(parts.count):
            comp = parts.codes_of(lab)
            # eccentricity is constant on the orbits of the symmetry maps
            _, first = np.unique(h.orbit_labels[comp], return_index=True)
            assert diameter(h, parts.labels == lab) == max(
                max(brute_distances(adj, int(c)).values()) for c in comp[first]
            ), lab
    if parts.count == 1:
        assert any(backward for backward, _, _ in log)
    assert max(width for _, width, _ in log) <= 16


@pytest.fixture(scope="module")
def sl2_7():
    return parse_group("sl2:7")


# (mode, run, budget): the restricted graph's four conjugation rows never fill
# a default block, so a smaller budget is what shows that the frontier slices
# also bound its multiplication blocks
# per_code: bytes per code for the arrays over the code space.  Both graphs
# are one component, so the vertex mask is the component mask.
@pytest.mark.parametrize(
    "mode, run, chunk, per_code",
    [
        (GraphMode.full_ac(), components, None, 8),
        (GraphMode.restricted_ac(),
         lambda h: diameter(h, h.vertex_mask, exact=False), 32_768, 8),
        (GraphMode.full_ac(), lambda h: diameter(h, h.vertex_mask), None, 14),
    ],
    ids=["full-ac-components", "restricted-ac-double-sweep", "full-ac-exact-diameter"],
)
def test_bfs_working_set_is_one_block_over_the_code_arrays(monkeypatch, sl2_7, mode,
                                                          run, chunk, per_code):
    if chunk is not None:
        monkeypatch.setattr("acgraphs.graphs.BLOCK_CELLS", chunk)
    h = GraphHandle(sl2_7, 2, mode)
    # a whole-group handle moves over the group's own tables
    assert h.NMUL is sl2_7.mul_table and h.NINV is sl2_7.inv_array
    h.orbit_labels  # cached per handle, and built before an exact diameter's sweeps
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run(h)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # one int64 block, and per code the BFS's hit map and unvisited mask,
    # its frontier, and the labels and unlabeled mask of components; neither
    # run builds a distance array, and a double sweep lists no component codes.
    # An exact diameter adds its int32 distance array and the component's
    # codes, int32, grouped by orbit: one bound per orbit, none per code.
    assert peak <= 8 * graphs.BLOCK_CELLS + per_code * h.size, peak / h.size


def test_k1_builds_no_product_table_but_checks_product_closure(monkeypatch):
    g = parse_group("sym:4")
    h = GraphHandle(g, 1, GraphMode.full_ac())
    assert h.NMUL is None
    assert GraphHandle(g, 2, GraphMode.full_ac()).NMUL.shape == (24, 24)
    # the identity and the transpositions: closed under inverse and
    # conjugation, not under product
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    transpositions = Subgroup(
        g, tuple(sorted({0} | {idx(g, f"({a} {b})") for a, b in pairs})), True
    )
    monkeypatch.setattr("acgraphs.graphs.BLOCK_CELLS", 14)  # two rows per block
    for k in (1, 2):
        with pytest.raises(PreconditionError, match="not closed under product"):
            GraphHandle(g, k, GraphMode.full_ac(), transpositions)


def test_out_of_range_indices_and_codes_are_precondition_errors():
    # negative indices used to wrap: encode((-1, 0)) gave code 30, so this
    # distance read 2, and a BFS from code -1 ran from code 35
    h = GraphHandle(parse_group("sym:3"), 2, GraphMode.full_ac())
    code = int(np.flatnonzero(h.vertex_mask)[0])
    for call in (
        lambda: h.encode((-1, 0)),
        lambda: h.encode((99, 0)),
        lambda: distance(h, (1, 2), (-1, 3)),
        lambda: h.bfs_distances([-1]),
        lambda: h.bfs_distances([h.size]),
        lambda: h.bfs_distances([code], target=h.size),
        lambda: h.geodesic(code, -1),
        lambda: next(h._levels([code, -1])),
    ):
        with pytest.raises(PreconditionError, match="outside"):
            call()


def test_distance_none_across_components():
    g = parse_group("abelian:3,3")
    h = GraphHandle(g, 2, GraphMode.nielsen())
    parts = components(h)
    u = h.decode(int(parts.reps[0]))
    v = h.decode(int(parts.reps[1]))
    assert distance(h, u, v) is None
    # a Nielsen graph at k = 1 has no moves: each vertex is a component
    h = GraphHandle(parse_group("cyclic:5"), 1, GraphMode.nielsen())
    assert components(h).count == h.vertex_count == 4
    assert h.neighbors((1,)) == []
    assert distance(h, (1,), (2,)) is None


def test_diameter_singleton_component():
    g = parse_group("cyclic:1")
    h = GraphHandle(g, 1, GraphMode.full_ac())
    assert diameter(h, np.ones(1, dtype=bool)) == 0


def test_diameter_matches_brute_force():
    g = parse_group("abelian:3,3")
    els = list(g.elements)
    for mode_name, mode in (
        ("nielsen", GraphMode.nielsen()),
        ("extended-nielsen", GraphMode.extended_nielsen()),
    ):
        h = GraphHandle(g, 2, mode)
        pred = lambda t: brute_generates(els, list(t))
        verts, adj = brute_graph(els, els, 2, pred, mode_name)
        parts = components(h)
        brutes = sorted(
            brute_diameter(adj, comp) for comp in brute_components(verts, adj)
        )
        ours = sorted(
            diameter(h, parts.labels == lab) for lab in range(parts.count)
        )
        assert ours == brutes


def test_diameter_takes_one_component_as_a_boolean_mask():
    h = GraphHandle(parse_group("abelian:3,3"), 2, GraphMode.nielsen())
    parts = components(h)
    assert parts.count == 2
    for bad, match in (
        (parts.codes_of(0), "boolean mask"),  # a code list
        ((parts.labels == 0)[:-1], "boolean mask"),
        (np.zeros(h.size, dtype=bool), "empty component"),
        (parts.labels >= 0, "not a single component"),
        # a component less its first code
        ((parts.labels == 0) & (np.arange(h.size) != parts.reps[0]), "not a single component"),
    ):
        for exact in (True, False):
            with pytest.raises(PreconditionError, match=match):
                diameter(h, bad, exact=exact)


def test_diameter_sweeps_from_the_first_then_a_farthest_code_then_orbit_leaders(
    monkeypatch,
):
    """The double sweep starts at the component's first code and goes on
    from its first farthest code; each later BFS starts at the first code
    of an orbit inside the component, one BFS per orbit at most."""
    for spec, k, mode in (
        ("alt:5", 2, GraphMode.nielsen()),
        ("sym:4", 2, GraphMode.restricted_ac()),
        ("sym:3", 3, GraphMode.full_ac()),
    ):
        h = GraphHandle(parse_group(spec), k, mode)
        parts = components(h)
        bfs = h.bfs_distances
        sources = []
        monkeypatch.setattr(
            h, "bfs_distances", lambda s, **kw: sources.append(int(s[0])) or bfs(s, **kw)
        )
        for lab in range(parts.count):
            sources.clear()
            codes = parts.codes_of(lab)
            diameter(h, parts.labels == lab)
            assert sources[0] == codes[0]
            assert sources[1] == codes[np.argmax(bfs([codes[0]])[codes])]
            orbits = h.orbit_labels[sources[2:]]
            assert len(set(orbits.tolist())) == len(orbits)
            for source, orbit in zip(sources[2:], orbits):
                assert source == codes[h.orbit_labels[codes] == orbit][0], (spec, lab)


def test_diameter_estimate_is_lower_bound():
    g = parse_group("alt:5")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    parts = components(h)
    est = diameter(h, parts.labels == 0, exact=False)
    assert est <= 8  # exact value, computed by full sweep


# -- symmetries and the orbit sweep ---------------------------------------------------


def test_symmetry_maps_are_graph_automorphisms():
    s3, s4, z33, sl2 = (
        parse_group(s) for s in ("sym:3", "sym:4", "abelian:3,3", "sl2:5")
    )
    a4_in_s4 = derived_subgroup(s4)
    a4_set = set(a4_in_s4.elements())
    s3_els, z33_els, sl2_els = list(s3.elements), list(z33.elements), list(sl2.elements)
    sl2_gens = [sl2.elements[i] for i in sl2.generators]
    center = brute_center(sl2_els, sl2_gens)
    cases = [
        # (group, k, mode, normal, members, brute mode, vertex predicate,
        #  conjugators, directed, expected number of maps)
        (s4, 2, GraphMode.full_ac(), a4_in_s4, list(a4_set), "full-ac",
         lambda t: brute_normal_closure(list(s4.elements), list(t)) == a4_set,
         None, False, 2 + 2),
        (z33, 2, GraphMode.nielsen(), None, z33_els, "nielsen",
         lambda t: brute_generates(z33_els, list(t)), None, False, 0 + 2),
        # SL2(5) is quasisimple: a pair normally generates it unless both
        # entries are central
        (sl2, 2, GraphMode.restricted_ac(directed=True), None, sl2_els,
         "restricted-ac", lambda t: not set(t) <= center, sl2_gens, True, 0 + 2),
    ]
    for k in (2, 3):
        for mode, conj_maps in (
            (GraphMode.full_ac(), 2),
            (GraphMode.restricted_ac(), 0),
            (GraphMode.nielsen(), 2),
            (GraphMode.extended_nielsen(), 2),
        ):
            pred = (
                (lambda t: brute_normally_generates(s3_els, list(t)))
                if mode.is_ac
                else (lambda t: brute_generates(s3_els, list(t)))
            )
            gens = [s3.elements[i] for i in s3.generators]
            cases.append((s3, k, mode, None, s3_els, mode.kind, pred, gens, False,
                          conj_maps + k))
    for g, k, mode, normal, members, mode_name, pred, ws, directed, n_maps in cases:
        h = GraphHandle(g, k, mode, normal)
        verts, adj = brute_graph(list(g.elements), members, k, pred, mode_name,
                                 ws, directed)
        code_of = {v: h.encode([g.index_of(e) for e in v]) for v in verts}
        tuple_of = {c: v for v, c in code_of.items()}
        assert sorted(tuple_of) == list(np.flatnonzero(h.vertex_mask))
        maps = h.symmetry_maps()
        assert len(maps) == n_maps, (g.name, k, mode)
        for sigma in maps:
            assert np.array_equal(np.sort(sigma), np.arange(h.size))
            assert np.array_equal(h.vertex_mask[sigma], h.vertex_mask)
            for v in verts:
                image = tuple_of[int(sigma[code_of[v]])]
                moved = {tuple_of[int(sigma[code_of[u]])] for u in adj[v]}
                assert adj[image] == moved, (g.name, k, mode, v)


def test_orbit_labels_are_least_codes_of_orbits():
    h = GraphHandle(parse_group("sym:3"), 2, GraphMode.full_ac())
    lab = h.orbit_labels
    assert (lab <= np.arange(h.size)).all()
    assert np.array_equal(lab[lab], lab)
    for sigma in h.symmetry_maps():
        assert np.array_equal(lab[sigma], lab)
    assert np.array_equal(h.vertex_mask[lab], h.vertex_mask)


@pytest.mark.parametrize("shape", [(7,), (5, 5), (3, 3, 3), (2, 3, 4)])
def test_tuple_codec_matches_numpy(shape):
    digits = tuple_digits(shape)
    wide = np.unravel_index(np.arange(int(np.prod(shape))), shape)
    assert all(d.dtype == np.int32 for d in digits)
    assert all(np.array_equal(d, w) for d, w in zip(digits, wide))
    # one wide entry array, and the positions reversed where the shape allows
    mixed = [digits[0].astype(np.int64), *digits[1:]]
    if len(set(shape)) == 1:
        mixed.reverse()
    codes = tuple_codes(mixed, shape)
    assert codes.dtype == np.int32
    assert np.array_equal(codes, np.ravel_multi_index(mixed, shape))


@pytest.mark.parametrize(
    "spec, mode", [("sl2:7", GraphMode.full_ac()), ("alt:5", GraphMode.restricted_ac())]
)
def test_orbit_labels_are_narrow_and_equal_the_int64_ones(spec, mode):
    h = GraphHandle(parse_group(spec), 2, mode)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lab = h.orbit_labels
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # everything is int32, built narrow: at most four maps beside either the
    # two digit arrays, a wide inverse gather and the code being built, or
    # the propagation's previous, current, gathered and new label arrays
    assert lab.dtype == np.int32
    assert peak <= 36 * h.size, peak / h.size
    wide = np.arange(h.size, dtype=np.int64)
    while True:
        prev = wide
        for sigma in h.symmetry_maps():
            wide = np.minimum(wide, wide[sigma.astype(np.int64)])
        wide = wide[wide]
        if np.array_equal(wide, prev):
            break
    assert np.array_equal(lab, wide)


def test_orbit_diameter_matches_brute_force_across_swapped_components():
    # in abelian:3,3 the swap and the inversion negate the determinant and
    # so exchange the two components: an orbit's least code can lie outside
    # the component being swept.  The symmetries fix each alt:5 component.
    for spec, sizes, swapped in (
        ("abelian:3,3", [24, 24], True),
        ("alt:5", [600, 600, 1080], False),
    ):
        g = parse_group(spec)
        els = list(g.elements)
        h = GraphHandle(g, 2, GraphMode.nielsen())
        parts = components(h)
        assert sorted(parts.sizes) == sizes
        reps = np.array(parts.reps)
        assert swapped == any(
            (parts.labels[sigma[reps]] != parts.labels[reps]).any()
            for sigma in h.symmetry_maps()
        )
        verts, adj = brute_graph(
            els, els, 2, lambda t: len(brute_span(els[0], t)) == len(els), "nielsen"
        )
        code_of = {v: h.encode([g.index_of(e) for e in v]) for v in verts}
        adj_codes = {code_of[v]: {code_of[u] for u in adj[v]} for v in verts}
        brute = {
            frozenset(comp): brute_diameter(adj_codes, comp)
            for comp in brute_components(list(adj_codes), adj_codes)
        }
        for lab in range(parts.count):
            codes = parts.codes_of(lab)
            assert diameter(h, parts.labels == lab) == brute[frozenset(codes.tolist())], (
                spec, lab)


def _count_bfs(monkeypatch, h):
    """A list that grows by one entry per BFS run on ``h``: every BFS,
    with or without a distance array, traverses ``_levels`` once."""
    calls = []
    levels = h._levels
    monkeypatch.setattr(h, "_levels", lambda *a: calls.append(1) or levels(*a))
    return calls


def test_exact_diameter_bounds_prune_orbits(monkeypatch):
    g = parse_group("alt:5")
    h = GraphHandle(g, 2, GraphMode.full_ac())
    parts = components(h)
    codes, mask = parts.codes_of(0), parts.labels == 0
    calls = _count_bfs(monkeypatch, h)
    assert diameter(h, mask, exact=False) <= 8
    assert "orbit_labels" not in h.__dict__  # the estimate builds no orbits
    assert len(calls) == 2
    calls.clear()
    assert diameter(h, mask) == 8
    # 3,599 vertices, 32 orbits under Inn(A5), the swap and the inversion
    assert len(np.unique(h.orbit_labels[codes])) == 32
    assert len(calls) <= 8
    # restricted AC has no diagonal conjugation: 117 orbits in 432 vertices
    h = GraphHandle(parse_group("sym:4"), 2, GraphMode.restricted_ac())
    parts = components(h)
    codes = parts.codes_of(0)
    calls = _count_bfs(monkeypatch, h)
    assert diameter(h, parts.labels == 0) == 8
    assert len(np.unique(h.orbit_labels[codes])) == 117
    assert len(calls) <= 20


def test_exact_diameter_equals_all_vertex_maximum():
    s4 = parse_group("sym:4")
    modes = (
        GraphMode.full_ac(),
        GraphMode.restricted_ac(),
        GraphMode.restricted_ac(directed=True),
        GraphMode.nielsen(),
        GraphMode.extended_nielsen(),
    )
    cases = [
        (parse_group(spec), k, mode, None)
        for spec, k in (("sym:3", 2), ("dihedral:4", 2), ("alt:4", 2),
                        ("sym:3", 3), ("abelian:2,2", 3))
        for mode in modes
    ]
    cases += [(s4, 2, mode, derived_subgroup(s4)) for mode in modes[:3]]
    for g, k, mode, normal in cases:
        h = GraphHandle(g, k, mode, normal)
        parts = components(h)
        for lab in range(parts.count):
            codes = parts.codes_of(lab)
            assert diameter(h, parts.labels == lab) == all_vertex_diameter(h, codes), (
                g.name, k, mode, lab
            )


def test_directed_diameter_sweeps_every_orbit(monkeypatch):
    # a forward BFS gives no bound on the eccentricities of other codes
    h = GraphHandle(parse_group("sym:4"), 2, GraphMode.restricted_ac(directed=True))
    parts = components(h)
    codes = parts.codes_of(0)
    calls = _count_bfs(monkeypatch, h)
    diam = diameter(h, parts.labels == 0)
    assert len(calls) == len(np.unique(h.orbit_labels[codes])) == 117
    assert diam == all_vertex_diameter(h, codes) == 8


class _StubDigraph:
    """Ten codes, each its own orbit.  0 leads to every code and codes 1-5
    lead back to it, so both sweeps see eccentricities of at most 2, but
    9 -> 8 -> 7 -> 6 -> 5 -> 0 -> 1 puts code 9 at eccentricity 6."""

    mode = GraphMode.restricted_ac(directed=True)
    size = 10
    orbit_labels = np.arange(10)
    adj = {0: set(range(1, 10)), 6: {5}, 7: {6}, 8: {7}, 9: {8}}
    adj.update({v: {0} for v in range(1, 6)})

    def bfs_distances(self, sources):
        dist = np.full(10, -1, dtype=np.int32)
        for code, d in brute_distances(self.adj, sources[0]).items():
            dist[code] = d
        return dist

    def _levels(self, sources):
        dist = self.bfs_distances(sources)
        for d in range(dist.max() + 1):
            yield np.flatnonzero(dist == d)


def test_directed_diameter_needs_no_reverse_distances():
    stub = _StubDigraph()
    mask = np.ones(10, dtype=bool)
    assert diameter(stub, mask, exact=False) == 2
    assert diameter(stub, mask) == all_vertex_diameter(stub, np.arange(10)) == 6


def test_cayley_diameter_cyclic():
    g = parse_group("cyclic:6")
    assert cayley_diameter(g, g.generators) == 3


def test_cayley_diameter_matches_element_bfs():
    for spec in ("sym:4", "alt:5", "dihedral:6", "sl2:5"):
        g = parse_group(spec)
        gens = [g.elements[i] for i in g.generators]
        gens += [inverse(s) for s in gens]
        adj = {x: {x * s for s in gens} for x in g.elements}
        dist = brute_distances(adj, g.elements[0])
        assert len(dist) == g.order
        assert cayley_diameter(g, g.generators) == max(dist.values()), spec
        # positive words in the generators alone reach every element too
        lengths = word_lengths(g, g.generators)
        adj = {x: {x * g.elements[i] for i in g.generators} for x in g.elements}
        dist = brute_distances(adj, g.elements[0])
        assert lengths.tolist() == [dist[x] for x in g.elements], spec


# -- quotient checks ---------------------------------------------------------------------


def test_cover_check_trivial_modulo():
    g = parse_group("sym:3")
    triv = Subgroup(g, (0,), True)
    report = cover_check(g, triv, 1)
    assert report.surjective
    assert report.group_components == report.quotient_components


def test_cover_check_s3_mod_a3():
    g = parse_group("sym:3")
    a3 = normal_closure(g, [idx(g, "(0 1 2)")])
    report = cover_check(g, a3, 1)
    assert report.surjective
    # quotient Z2 at k=1 has a single vertex; its preimage: the 3 transpositions
    assert report.quotient_components == 1


def test_cover_check_s4_mod_klein():
    g = parse_group("sym:4")
    klein = next(s for s in normal_subgroups(g) if s.order == 4)
    report = cover_check(g, klein, 2)
    assert report.surjective


def test_soluble_component_check_abelian():
    report = soluble_component_check(parse_group("abelian:3,3"), 2)
    assert report.group_components == report.quotient_components


def test_soluble_component_check_sym3():
    report = soluble_component_check(parse_group("sym:3"), 2)
    assert report.group_components == 1
    assert report.quotient_components == 1


def test_soluble_component_check_nilpotent_dihedral4():
    report = soluble_component_check(parse_group("dihedral:4"), 2)
    assert report.group_components == report.quotient_components


def test_soluble_component_check_rejects_insoluble():
    with pytest.raises(PreconditionError):
        soluble_component_check(parse_group("alt:5"), 2)


# -- codec and misc ----------------------------------------------------------------------


def test_codec_round_trip():
    # codes are Horner's formula over member positions
    g = parse_group("sym:4")
    a4 = derived_subgroup(g)
    h = GraphHandle(g, 3, GraphMode.full_ac(), a4)
    for tup in itertools.product(a4.members, repeat=3):
        code = 0
        for i in tup:
            code = code * a4.order + a4.members.index(i)
        assert h.encode(tup) == code
        assert h.decode(code) == tup


def test_encode_rejects_outside_members():
    g = parse_group("sym:4")
    a4 = derived_subgroup(g)
    h = GraphHandle(g, 2, GraphMode.full_ac(), a4)
    with pytest.raises(PreconditionError):
        h.encode((idx(g, "(0 1)"), 0))
    with pytest.raises(PreconditionError):
        h.encode((0, idx(g, "(0 1)")))
    for wrong_length in ((0,), (0, 0, 0)):
        with pytest.raises(PreconditionError):
            h.encode(wrong_length)


def test_geodesic_moves_replay():
    # the directed case is where walking back over forward moves goes wrong
    for spec, mode in (
        ("alt:5", GraphMode.full_ac()),
        ("sym:4", GraphMode.nielsen()),
        ("sl2:5", GraphMode.restricted_ac(directed=True)),
    ):
        g = parse_group(spec)
        h = GraphHandle(g, 2, mode)
        parse = {h.format_tuple(t): t for t in h.vertices()}
        codes = np.flatnonzero(h.vertex_mask)
        src = int(codes[0])
        dist = h.bfs_distances([src])
        reached = codes[dist[codes] >= 0]
        rng = np.random.default_rng(2)
        targets = [int(reached[np.argmax(dist[reached])])]
        targets += [int(c) for c in rng.choice(reached, size=4, replace=False)]
        for dst in targets:
            path = h.geodesic(src, dst)
            assert len(path) == dist[dst], spec
            tup = h.decode(src)
            for step in path:
                assert parse[step["from"]] == tup, spec
                tup = apply_move(g, tup, step["move"])
                assert parse[step["to"]] == tup, (spec, step)
            assert tup == h.decode(dst), spec


def test_full_ac_equals_extended_nielsen_on_abelian():
    # conjugation is trivial in an abelian group, so the whole-group AC
    # graph and the inversion-extended replacement graph literally agree
    g = parse_group("abelian:2,4")
    h_ac = GraphHandle(g, 2, GraphMode.full_ac())
    h_en = GraphHandle(g, 2, GraphMode.extended_nielsen())
    assert h_ac.vertex_count == h_en.vertex_count
    for tup in h_ac.vertices():
        assert h_ac.neighbors(tup) == h_en.neighbors(tup)


def test_restricted_mode_needs_generators():
    g = parse_group("cyclic:1")
    with pytest.raises(PreconditionError):
        GraphHandle(g, 2, GraphMode.restricted_ac())


def test_graph_mode_validation():
    with pytest.raises(ValueError):
        GraphMode("bogus")
    assert GraphMode.restricted_ac().describe() == {
        "kind": "restricted-ac",
        "conjugators": "generators",
        "directedConjugators": False,
    }


def test_soluble_component_check_disconnected_case():
    # inversion merges det classes d and -d, so the rank-2 graph over
    # Z5xZ5 splits into exactly two components; the bijection must hold
    g = parse_group("abelian:5,5")
    h = GraphHandle(g, 2, GraphMode.extended_nielsen())
    parts = components(h)
    assert sorted(parts.sizes) == [240, 240]
    rep = soluble_component_check(g, 2)
    assert rep.group_components == 2
    assert rep.quotient_components == 2
    assert len({q for _, _, q in rep.bijection}) == 2
