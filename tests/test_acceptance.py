"""Acceptance suite: one test per criterion, each printed as a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1's groups are quasisimple (perfect, with G/Z(G) simple), so
every normal subgroup is either G or lies inside the center Z(G). The
k-tuples that fail to normally generate G are therefore exactly those in
Z(G)^k, and the whole-group AC graph has |G|^k - |Z(G)|^k vertices. The
sub-test checks this at k = 2 with a brute-force center: for the simple
group alt:5 the center is trivial and the count is |G|^2 - 1; the SL2
groups have center {I, -I}, giving |G|^2 - 4.
"""

import math
import time
from itertools import product

import numpy as np
from acgraphs.conjecture import AK_PAIR, exponent_matrix, scan_quotient, transvection_base
from acgraphs.elements import parse_cycles
from acgraphs.graphs import (
    GraphHandle,
    GraphMode,
    components,
    cover_check,
    diameter,
    soluble_component_check,
)
from acgraphs.groups import SymmetricAmbient, parse_group
from acgraphs.stats import (
    chi_squared_test,
    cycle_counts,
    cycle_distribution,
    histogram,
    point_action_uniformity,
    stirling_first,
)
from acgraphs.subgroups import (
    JoinOracle,
    abelianization,
    covering_numbers,
    nd_pair,
    normal_subgroups,
    psi_k,
    quotient_group,
)
from acgraphs.walkers import WalkConfig, acr_sample_many, default_step_budget

from helpers import acr_step, brute_center, brute_cycle_count, brute_normal_closure, make_state


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    return ok


def test_c01_simple_group_connectivity():
    details = []
    ok = True
    for spec in ("alt:5", "sl2:5", "sl2:7"):
        t0 = time.monotonic()
        g = parse_group(spec)
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        parts = components(handle)
        elapsed = time.monotonic() - t0
        ok = ok and parts.count == 1 and elapsed < 60.0
        details.append(f"{spec}: {parts.count} comp in {elapsed:.1f}s")
    assert report("C01 simple-group connectivity", ok, "; ".join(details))


def test_c01_vertex_count_formula():
    # quasisimple G: the non-vertices of the k=2 graph are exactly Z(G) x Z(G)
    details = []
    ok = True
    for spec in ("alt:5", "sl2:5", "sl2:7"):
        g = parse_group(spec)
        center = brute_center(g.elements, [g.elements[s] for s in g.generators])
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        expected = g.order**2 - len(center) ** 2
        non_vertices = {
            tuple(g.elements[i] for i in handle.decode(int(c)))
            for c in np.flatnonzero(~handle.vertex_mask)
        }
        in_center = non_vertices == set(product(center, repeat=2))
        ok = ok and handle.vertex_count == expected and in_center
        details.append(
            f"{spec}: {handle.vertex_count} vs {expected}, |Z|={len(center)}, "
            f"non-vertices {'=' if in_center else '!='} Z^2"
        )
    assert report("C01 vertex counts |G|^2-|Z(G)|^2", ok, "; ".join(details))


def test_c02_diameter_bound():
    g = parse_group("alt:5")
    cn = covering_numbers(g)
    assert cn.cn_value == 3  # known covering number of alt:5
    handle = GraphHandle(g, 2, GraphMode.full_ac())
    parts = components(handle)
    diam = diameter(handle, parts.labels == 0)
    stated = 4 * (2 * cn.cn_value + cn.cn_value)  # or <= cn reading: 36
    tighter = 4 * (2 * cn.or_value + cn.cn_value)
    ok = diam <= 36 and diam <= tighter <= stated
    assert report(
        "C02 diameter bound",
        ok,
        f"diam={diam} <= 4(2*or+cn)={tighter} <= 36, or={cn.or_value}, cn={cn.cn_value}",
    )


def test_c03_equal_component_split():
    h3 = GraphHandle(parse_group("abelian:3,3"), 2, GraphMode.nielsen())
    p3 = components(h3)
    h5 = GraphHandle(parse_group("abelian:5,5"), 2, GraphMode.nielsen())
    p5 = components(h5)
    ok = sorted(p3.sizes) == [24, 24] and sorted(p5.sizes) == [120] * 4
    assert report(
        "C03 equal component split",
        ok,
        f"Z3xZ3: {sorted(p3.sizes)}; Z5xZ5: {sorted(p5.sizes)}",
    )


def test_c04_connected_above_rank():
    details = []
    ok = True
    for spec in ("abelian:2,2", "abelian:2,4", "abelian:3,3"):
        parts = components(GraphHandle(parse_group(spec), 3, GraphMode.nielsen()))
        ok = ok and parts.count == 1
        details.append(f"{spec}: {parts.count}")
    assert report("C04 rank-3 replacement graphs connected", ok, "; ".join(details))


def test_c05_soluble_component_bijection():
    details = []
    ok = True
    for spec in ("sym:3", "sym:4", "dihedral:4", "dihedral:6"):
        rep = soluble_component_check(parse_group(spec), 2)
        ok = ok and rep.group_components == rep.quotient_components
        details.append(f"{spec}: {rep.group_components}={rep.quotient_components}")
    assert report("C05 soluble component bijection", ok, "; ".join(details))


def test_c06_psi_identity():
    details = []
    ok = True
    for spec in (
        "sym:3", "sym:4", "dihedral:4", "dihedral:6",
        "abelian:2,2", "abelian:3,3", "cyclic:6",
    ):
        g = parse_group(spec)
        ab = abelianization(g)
        for k in (1, 2):
            lhs, rhs = psi_k(g, k), psi_k(ab.target, k)
            ok = ok and lhs == rhs
        details.append(spec)
    assert report("C06 psi equals abelianized psi (k=1,2)", ok, ", ".join(details))


def test_c07_mazurov_lift_exhaustive():
    lifts = 0
    ok = True
    for spec in ("sym:3", "sym:4", "dihedral:6"):
        g = parse_group(spec)
        oracle = JoinOracle(g, "normal")
        nd, _ = nd_pair(g)
        for m_sub in normal_subgroups(g):
            if m_sub.is_whole_group():
                continue
            quotient, pi = quotient_group(g, m_sub)
            q_oracle = JoinOracle(quotient, "normal")
            for k in (1, 2):
                if nd > k:
                    continue
                for tup in product(range(g.order), repeat=k):
                    if not q_oracle.generates(pi[i] for i in tup):
                        continue
                    lifts += 1
                    witness = next(
                        (
                            tuple(g.mul_table[tup, ms].tolist())
                            for ms in product(m_sub.members, repeat=k)
                            if oracle.generates(g.mul_table[tup, ms].tolist())
                        ),
                        None,
                    )
                    ok = ok and witness is not None
    assert report("C07 Mazurov lifts exist", ok, f"{lifts} exhaustive cases")


def test_c08_cover_surjectivity():
    cases = 0
    ok = True
    for spec in ("sym:3", "sym:4", "dihedral:6"):
        g = parse_group(spec)
        nd, _ = nd_pair(g)
        for m_sub in normal_subgroups(g):
            if m_sub.is_whole_group():
                continue
            for k in (1, 2):
                if nd > k:
                    continue
                rep = cover_check(g, m_sub, k)
                cases += 1
                ok = ok and rep.surjective
    assert report("C08 quotient covers surjective", ok, f"{cases} maps")


def test_c09_connected_at_nd_plus_ndm():
    details = []
    ok = True
    for spec in (
        "cyclic:1", "cyclic:5", "cyclic:6", "abelian:2,2", "abelian:2,4",
        "abelian:3,3", "dihedral:4", "dihedral:6", "sym:3", "sym:4",
        "alt:4", "alt:5", "sl2:3",
    ):
        g = parse_group(spec)
        if g.order > 60:
            continue
        nd, ndm = nd_pair(g)
        k = max(nd + ndm, 1)
        if g.order**k > 1_000_000:
            details.append(f"{spec}: skipped at k={k}")
            continue
        parts = components(GraphHandle(g, k, GraphMode.full_ac()))
        ok = ok and parts.count == 1
        details.append(f"{spec}: k={k}")
    assert report("C09 connected at nd+nd_m", ok, "; ".join(details))


def test_c10_restricted_full_component_agreement():
    ok = True
    details = []
    for spec in ("sl2:5", "sym:4"):
        g = parse_group(spec)
        full = GraphHandle(g, 2, GraphMode.full_ac())
        restr = GraphHandle(g, 2, GraphMode.restricted_ac())
        pf, pr = components(full), components(restr)
        same = pf.count == pr.count
        remap: dict[int, int] = {}
        if same:
            for code in np.flatnonzero(full.vertex_mask):
                a, b = int(pf.labels[code]), int(pr.labels[code])
                if remap.setdefault(a, b) != b:
                    same = False
                    break
        ok = ok and same
        details.append(f"{spec}: {pf.count} comps, partitions {'equal' if same else 'DIFFER'}")
    assert report("C10 restricted/full agreement", ok, "; ".join(details))


def test_c11_acr_statistical_protocol():
    samples = 20_000
    ok = True
    details = []
    for n in (8, 10, 12):
        dist = cycle_distribution(n, "even")
        for k in (2, 3):
            amb = SymmetricAmbient(n)
            init = tuple(
                [parse_cycles("(0 1)(2 3)", n)]
                + [amb.identity_element] * (k - 1)
            )
            budget = default_step_budget(k, degree=n)
            assert budget == k * n * math.ceil(math.log2(n))
            cfg = WalkConfig(k=k, step_budget=budget)
            cycle_pass = point_pass = 0
            for rep in range(20):
                rng = np.random.default_rng(1000 * n + 100 * k + rep)
                outs = acr_sample_many(amb, None, init, cfg, rng, samples)
                hist = histogram(cycle_counts(outs))
                if chi_squared_test(hist, dist).passed:
                    cycle_pass += 1
                if point_action_uniformity(outs, n).passed:
                    point_pass += 1
            ok = ok and cycle_pass >= 17 and point_pass >= 17
            details.append(f"n={n},k={k}: {cycle_pass}/20, {point_pass}/20")
    assert report("C11 ACR statistical protocol", ok, "; ".join(details))


def test_c12_ak_pair_scan():
    matrix, det = exponent_matrix(AK_PAIR)
    g = parse_group("sl2:5")
    rep = scan_quotient(g, transvection_base(g), AK_PAIR, GraphMode.full_ac())
    ok = (
        det == 1
        and rep.image_is_vertex
        and rep.same_component
        and rep.distance is not None
        and rep.geodesic is not None
        and len(rep.geodesic) == rep.distance
    )
    assert report(
        "C12 AK-pair scan on sl2:5",
        ok,
        f"det={det}, distance={rep.distance} (recorded, not asserted)",
    )


def test_c13_oracle_equivalence():
    # walker trajectories never leave the vertex set, |N|^2 <= 10^4
    steps = 0
    ok = True
    for spec in ("sym:3", "sym:4", "dihedral:6", "abelian:3,3", "alt:5"):
        g = parse_group(spec)
        gens = [g.elements[i] for i in g.generators]
        init = (gens[0], gens[1] if len(gens) > 1 else g.identity_element)
        els = list(g.elements)
        target = brute_normal_closure(els, list(init))
        if len(target) ** 2 > 10_000:
            continue
        cfg = WalkConfig(k=2, step_budget=1)
        state = make_state(init, np.random.default_rng(700))
        for _ in range(150):
            state = acr_step(state, cfg, g)
            steps += 1
            if brute_normal_closure(els, list(state.tuple_elements)) != target:
                ok = False
                break
    # Stirling numbers against the direct permutation census, n <= 8
    from itertools import permutations as iperm

    for n in range(1, 9):
        census: dict[int, int] = {}
        for images in iperm(range(n)):
            c = brute_cycle_count(images)
            census[c] = census.get(c, 0) + 1
        ok = ok and all(
            stirling_first(n, c) == census.get(c, 0) for c in range(n + 1)
        )
    assert report("C13 oracle equivalence", ok, f"{steps} walk steps + census n<=8")
