import gc
import threading
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from acgraphs.elements import parse_cycles
from acgraphs.errors import PreconditionError, ResourceCapError
from acgraphs import verify
from acgraphs.graphs import GraphHandle, GraphMode, components
from acgraphs.groups import parse_group
import acgraphs.subgroups as subgroups
from acgraphs.subgroups import (
    JoinOracle,
    abelianization,
    closure,
    covering_numbers,
    get_join_oracle,
    derived_subgroup,
    is_soluble,
    mazurov_lift,
    nd_pair,
    normal_closure,
    normal_subgroups,
    psi_k,
    quotient_group,
)

from acgraphs.verify import SMALL_CORPUS
from acgraphs.walkers import WalkConfig, acr_sample_many

from helpers import (
    brute_mulclose,
    brute_normal_closure,
    brute_normally_generates,
    brute_span,
    conj,
    inverse,
    is_even,
)


def idx(group, text):
    return group.index_of(parse_cycles(text, group.elements[0].degree))


def test_closure_empty_seed_is_trivial():
    g = parse_group("sym:4")
    assert closure(g, []).members == (0,)


def test_closure_standard_pair_is_whole_group():
    g = parse_group("sym:4")
    sub = closure(g, [idx(g, "(0 1)"), idx(g, "(0 1 2 3)")])
    assert sub.order == 24


def test_closure_of_three_cycle():
    g = parse_group("sym:4")
    sub = closure(g, [idx(g, "(0 1 2)")])
    assert sub.order == 3


def test_closure_matches_brute_force():
    g = parse_group("sym:4")
    for seed in ([idx(g, "(0 1)")], [idx(g, "(0 1 2)"), idx(g, "(0 1)(2 3)")]):
        sub = closure(g, seed)
        ours = {g.elements[i] for i in sub.members}
        brute = brute_mulclose([g.elements[i] for i in seed])
        assert ours == brute
        assert sub.is_normal == (brute_normal_closure(list(g.elements), ours) == ours)


def test_normal_closure_identity_tuple():
    g = parse_group("sym:4")
    assert normal_closure(g, [0]).order == 1


def test_normal_closure_klein():
    g = parse_group("sym:4")
    sub = normal_closure(g, [idx(g, "(0 1)(2 3)")])
    assert sub.order == 4
    assert sub.is_normal
    brute = brute_normal_closure(list(g.elements), [parse_cycles("(0 1)(2 3)", 4)])
    assert {g.elements[i] for i in sub.members} == brute


def test_normal_closure_three_cycle_in_sym5():
    g = parse_group("sym:5")
    sub = normal_closure(g, [idx(g, "(0 1 2)")])
    assert sub.order == 60
    assert all(is_even(g.elements[i]) for i in sub.members)


def test_normal_closure_is_normal_exhaustively():
    g = parse_group("dihedral:6")
    els = g.elements
    for i in range(g.order):
        sub = normal_closure(g, [i])
        for m in sub.members:
            for w in els:
                assert g.index_of(conj(els[m], w)) in sub.member_set


def test_derived_subgroups():
    assert derived_subgroup(parse_group("abelian:3,3")).order == 1
    s4 = parse_group("sym:4")
    d = derived_subgroup(s4)
    assert d.order == 12
    assert all(is_even(s4.elements[i]) for i in d.members)
    a5 = parse_group("alt:5")
    assert derived_subgroup(a5).order == 60  # perfect


def test_derived_equals_all_pairs_commutator_closure():
    for spec in ("sym:4", "dihedral:6", "sl2:3"):
        g = parse_group(spec)
        comms = {
            g.index_of(inverse(a) * inverse(b) * a * b)
            for a in g.elements
            for b in g.elements
        }
        assert closure(g, comms).members == derived_subgroup(g).members


def test_abelianization_examples():
    assert abelianization(parse_group("alt:5")).invariant_factors == ()
    assert abelianization(parse_group("sym:4")).invariant_factors == (2,)
    assert abelianization(parse_group("abelian:2,4")).invariant_factors == (2, 4)
    assert abelianization(parse_group("dihedral:4")).invariant_factors == (2, 2)
    assert abelianization(parse_group("dihedral:6")).invariant_factors == (2, 2)
    assert abelianization(parse_group("cyclic:6")).invariant_factors == (6,)


def test_abelianization_divisibility_chain():
    ab = abelianization(parse_group("abelian:2,2"))
    assert ab.invariant_factors == (2, 2)
    for small, big in zip(ab.invariant_factors, ab.invariant_factors[1:]):
        assert big % small == 0


def test_abelianization_projection_is_homomorphism():
    g = parse_group("sym:4")
    ab = abelianization(g)
    proj = ab.projection_idx
    for a in range(0, g.order, 3):
        for b in range(0, g.order, 5):
            assert proj[g.mul_table[a, b]] == ab.target.mul_table[proj[a], proj[b]]
    # kernel = derived subgroup
    kernel = {i for i in range(g.order) if proj[i] == 0}
    assert kernel == set(derived_subgroup(g).members)


ABELIANIZATION_FACTORS = {
    "abelian:4,6": (2, 12),
    "abelian:6,10": (2, 30),
    "abelian:8,12": (4, 24),
    "abelian:2,3,4,5": (2, 60),
    "abelian:2,4,8": (2, 4, 8),
}


@pytest.mark.parametrize("spec", SMALL_CORPUS + tuple(ABELIANIZATION_FACTORS))
def test_abelianization_is_onto_homomorphism_with_derived_kernel(spec):
    g = parse_group(spec)
    ab = abelianization(g)
    factors = ab.invariant_factors
    if spec in ABELIANIZATION_FACTORS:
        assert factors == ABELIANIZATION_FACTORS[spec]
    assert all(big % small == 0 for small, big in zip(factors, factors[1:]))
    assert ab.target.order == ab.order
    proj = np.array(ab.projection_idx)
    # homomorphism on the whole product table
    assert (proj[g.mul_table] == ab.target.mul_table[proj[:, None], proj]).all()
    assert tuple(np.flatnonzero(proj == 0)) == derived_subgroup(g).members
    assert set(proj.tolist()) == set(range(ab.order))


def test_nd_pair_examples():
    assert nd_pair(parse_group("cyclic:5")) == (1, 1)
    assert nd_pair(parse_group("sym:3")) == (1, 1)
    assert nd_pair(parse_group("abelian:2,2")) == (2, 2)
    assert nd_pair(parse_group("cyclic:1")) == (0, 0)


def test_nd_pair_brute_force_cross_check():
    # tiny groups: compare against raw subset search over elements
    for spec in ("sym:3", "abelian:2,2", "cyclic:6", "abelian:2,4"):
        g = parse_group(spec)
        oracle = JoinOracle(g, "normal")
        full = frozenset(range(g.order))

        def gen(subset):
            return oracle.members_of(oracle.join_of_indices(subset)) == full

        sizes_min = None
        sizes_max = 0
        elements = list(range(1, g.order))
        from itertools import combinations

        for size in range(1, 5):
            for sub in combinations(elements, size):
                if not gen(sub):
                    continue
                minimal = all(
                    not gen(sub[:i] + sub[i + 1:]) for i in range(size)
                )
                if sizes_min is None:
                    sizes_min = size
                if minimal:
                    sizes_max = max(sizes_max, size)
        assert nd_pair(g) == (sizes_min, sizes_max)


def test_nd_pair_cap():
    # the nd/nd_m search stops at DEFAULT_ND_CAP = 200 elements; sl2:7 has 336
    with pytest.raises(ResourceCapError):
        nd_pair(parse_group("sl2:7"))


def test_psi_examples():
    assert psi_k(parse_group("cyclic:1"), 1) == 1
    assert psi_k(parse_group("sym:3"), 1) == Fraction(1, 2)


def test_psi_census_matches_exhaustive():
    for spec in ("sym:3", "dihedral:4", "alt:4", "abelian:2,4"):
        g = parse_group(spec)
        # normal generation depends only on the set of entries
        generates = {}
        for k in (1, 2, 3):
            count = 0
            for tup in product(g.elements, repeat=k):
                seeds = frozenset(tup)
                if seeds not in generates:
                    generates[seeds] = brute_normally_generates(g.elements, seeds)
                count += generates[seeds]
            assert psi_k(g, k) == Fraction(count, g.order**k), (spec, k)


def test_psi_soluble_identity():
    for spec in ("sym:3", "sym:4", "dihedral:4"):
        g = parse_group(spec)
        ab = abelianization(g)
        for k in (1, 2):
            assert psi_k(g, k) == psi_k(ab.target, k)


def test_psi_cap(monkeypatch):
    # the tuple cap bounds the census table: sym:4 has 4 singleton closures,
    # 4^2 cells
    monkeypatch.setenv("ACGRAPHS_MAX_TUPLES", "10")
    with pytest.raises(ResourceCapError):
        psi_k(parse_group("sym:4"), 2)


@pytest.mark.parametrize("k", [16, 31, 32, 64])
def test_psi_cap_at_large_k(monkeypatch, k):
    # 4^32 is 2^64: the census size is counted in Python ints, never wraps
    monkeypatch.delenv("ACGRAPHS_MAX_TUPLES", raising=False)
    with pytest.raises(ResourceCapError) as err:
        psi_k(parse_group("sym:4"), k)
    assert err.value.cap_name == "tuple_census"


def test_psi_past_the_tuple_count():
    # three singleton closures each (1, Alt_n, Sym_n): 81 and 2,187 cells for
    # 120^4 and 720^7 tuples, the second above 2^63; some entry must be odd
    assert psi_k(parse_group("sym:5"), 4) == Fraction(15, 16)
    assert psi_k(parse_group("sym:6"), 7) == Fraction(127, 128)


def test_quotient_group_s4_mod_klein_is_s3():
    g = parse_group("sym:4")
    klein = normal_closure(g, [idx(g, "(0 1)(2 3)")])
    q, pi = quotient_group(g, klein)
    assert q.order == 6
    assert not is_soluble(parse_group("alt:5"))
    # projection is a homomorphism
    for a in range(0, 24, 2):
        for b in range(0, 24, 3):
            assert pi[g.mul_table[a, b]] == q.mul_table[pi[a], pi[b]]


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_quotients_by_every_normal_subgroup_match_element_cosets(spec):
    g = parse_group(spec)
    els = g.elements
    for m in normal_subgroups(g):
        q, pi = quotient_group(g, m)
        assert q.order * m.order == g.order
        assert sorted(set(pi)) == list(range(q.order))
        proj = np.array(pi)
        assert (proj[g.mul_table] == q.mul_table[np.ix_(proj, proj)]).all()
        fibres: dict[int, set] = {}
        for i, c in enumerate(pi):
            fibres.setdefault(c, set()).add(els[i])
        assert fibres[0] == set(m.elements())
        cosets = {frozenset(x * y for y in m.elements()) for x in els}
        assert {frozenset(f) for f in fibres.values()} == cosets


def test_quotient_requires_normal():
    g = parse_group("sym:4")
    two = closure(g, [idx(g, "(0 1)")])
    with pytest.raises(PreconditionError):
        quotient_group(g, two)


def test_normal_subgroup_lattice_of_s4():
    g = parse_group("sym:4")
    assert [s.order for s in normal_subgroups(g)] == [1, 4, 12, 24]
    # dihedral of order 12 is Z2 x S3: three index-2 subgroups, all normal
    d6 = parse_group("dihedral:6")
    assert [s.order for s in normal_subgroups(d6)] == [1, 2, 3, 6, 6, 6, 12]


def test_mazurov_trivial_modulo():
    g = parse_group("sym:3")
    triv = closure(g, [])
    t = (idx(g, "(0 1)"),)
    assert mazurov_lift(g, triv, t) == t


def test_mazurov_lift_already_valid():
    g = parse_group("sym:3")
    a3 = normal_closure(g, [idx(g, "(0 1 2)")])
    t = (idx(g, "(0 1)"),)
    lifted = mazurov_lift(g, a3, t)
    assert lifted is not None
    oracle = JoinOracle(g, "normal")
    assert oracle.generates(lifted)


def test_mazurov_exhaustive_s4_klein():
    g = parse_group("sym:4")
    klein = next(s for s in normal_subgroups(g) if s.order == 4)
    q, pi = quotient_group(g, klein)
    q_oracle = JoinOracle(q, "normal")
    oracle = JoinOracle(g, "normal")
    eligible = [i for i in range(g.order) if q_oracle.generates([pi[i]])]
    assert eligible
    for i in eligible:
        lifted = mazurov_lift(g, klein, (i,))
        assert lifted is not None
        assert oracle.generates(lifted)
        # witness differs from g_i by an element of the Klein subgroup
        assert g.mul_table[g.inv_array[i], lifted[0]] in klein.member_set


def test_mazurov_precondition_errors():
    g = parse_group("sym:4")
    klein = next(s for s in normal_subgroups(g) if s.order == 4)
    with pytest.raises(PreconditionError):
        mazurov_lift(g, klein, (idx(g, "(0 1)(2 3)"),))  # image not generating


def test_solubility():
    for spec, expected in (
        ("sym:4", True),
        ("dihedral:6", True),
        ("abelian:3,3", True),
        ("alt:5", False),
        ("sl2:5", False),
    ):
        assert is_soluble(parse_group(spec)) is expected


def test_covering_numbers_alt5():
    for spec in ("alt:5", "alt:6"):
        cn = covering_numbers(parse_group(spec))
        assert cn.or_value == 2, spec
        assert cn.cn_value == 3, spec


def test_covering_numbers_need_simple():
    with pytest.raises(PreconditionError):
        covering_numbers(parse_group("sym:4"))


def test_saturate_matches_element_closure_on_small_corpus(monkeypatch):
    # the subgroups that normal_subgroups and the plain oracle intern are
    # saturations, cyclic subgroups, the trivial group or the whole group:
    # check the first two against closures over element objects
    calls = []
    saturate = subgroups._saturate

    def recording(group, seed):
        seed = frozenset(seed)
        out = saturate(group, seed)
        calls.append((group, seed, out))
        return out

    monkeypatch.setattr(subgroups, "_saturate", recording)
    plains = []
    for spec in SMALL_CORPUS:
        g = parse_group(spec)  # a fresh group, so its oracles are built here
        normal_subgroups(g)
        plains.append(get_join_oracle(g, "plain"))
        plains[-1].generates(g.generators)
    assert len(calls) > 100
    for g, seed, out in set(calls):
        els = g.elements
        assert {els[i] for i in out} == brute_span(els[0], [els[i] for i in seed])
    for plain in plains:
        els = plain.group.elements
        for i, e in enumerate(els):
            cyclic = {els[j] for j in plain.members_of(plain.singleton_id(i))}
            assert cyclic == brute_span(els[0], [e])


# -- oracle lifetime -----------------------------------------------------------


def _use_everywhere():
    """A fresh sym:4, put through every consumer of its join oracles; returns
    weak references to it and to its quotient by the derived subgroup."""
    g = parse_group("sym:4")
    for mode in (GraphMode.full_ac(), GraphMode.nielsen()):
        components(GraphHandle(g, 2, mode))
    normal_subgroups(g)
    psi_k(g, 2)
    quotient, _ = quotient_group(g, derived_subgroup(g))
    assert get_join_oracle(quotient, "normal").generates(quotient.generators)
    abelianization(g)
    whole = normal_closure(g, g.generators)
    cfg = WalkConfig(k=2, step_budget=8)
    init = [g.elements[i] for i in g.generators]
    acr_sample_many(g, whole, init, cfg, np.random.default_rng(0), 4)
    return weakref.ref(g), weakref.ref(quotient)


def test_groups_and_their_oracles_are_freed_after_use():
    refs = _use_everywhere()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_repeated_verify_runs_hold_no_more_memory():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        held = []
        for _ in range(2):
            verify.run_all("small")
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        if started:
            tracemalloc.stop()
    assert held[1] - held[0] < 64 * 1024, held


def test_racing_threads_get_one_oracle(monkeypatch):
    # both threads build an oracle before either stores one; the loser must
    # return the winner's
    barrier = threading.Barrier(2, timeout=30)
    init = JoinOracle.__init__

    def waiting(self, group, mode="normal"):
        barrier.wait()
        init(self, group, mode)

    monkeypatch.setattr(JoinOracle, "__init__", waiting)
    g = parse_group("sym:4")
    got = [None, None]

    def ask(slot):
        got[slot] = get_join_oracle(g, "normal")

    threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert got[0] is not None and got[0] is got[1] is g.join_oracles["normal"]
