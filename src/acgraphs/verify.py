"""The theorem-check catalog behind the ``verify`` CLI command.

Every invariant of every module runs here against a built-in corpus of
small groups, each check exhaustive (or seeded-deterministic) at desk
scale.  Checks return pass/fail plus a one-line detail; ``experiment_*``
entries are informational only and never fail the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from .conjecture import (
    AK_PAIR,
    Word,
    WordPair,
    apply_pair_map,
    eval_word,
    exponent_matrix,
    parse_word,
)
from .elements import parse_cycles
from .errors import PreconditionError, VerificationError
from .graphs import (
    GraphHandle,
    GraphMode,
    cayley_diameter,
    components,
    cover_check,
    diameter,
    soluble_component_check,
)
from .groups import FiniteGroup, distinct, parse_group
from .subgroups import (
    abelianization,
    covering_numbers,
    get_join_oracle,
    lift_search,
    mazurov_lift,
    nd_pair,
    normal_closure,
    normal_subgroups,
    psi_k,
    quotient_group,
)
from .stats import (
    census,
    chi_squared_test,
    cycle_counts,
    cycle_distribution,
    histogram,
    stirling_first,
    tv_distance,
)
from .walkers import WalkConfig, acr_sample_many

SMALL_CORPUS = (
    "cyclic:1",
    "cyclic:5",
    "cyclic:6",
    "abelian:2,2",
    "abelian:2,4",
    "abelian:3,3",
    "dihedral:4",
    "dihedral:6",
    "sym:3",
    "sym:4",
    "alt:4",
    "alt:5",
    "sl2:3",
    "sl2:5",
)
FULL_EXTRAS = ("abelian:5,5", "alt:6", "sl2:7")

SOLUBLE_CORPUS = (
    "cyclic:5",
    "cyclic:6",
    "abelian:2,2",
    "abelian:2,4",
    "abelian:3,3",
    "dihedral:4",
    "dihedral:6",
    "sym:3",
    "sym:4",
    "alt:4",
)


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None = informational experiment
    detail: str

    @property
    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


class VerifyContext:
    def __init__(self, corpus: str = "small", seed: int = 1):
        specs = SMALL_CORPUS + (FULL_EXTRAS if corpus == "full" else ())
        self.corpus_name = corpus
        self.seed = seed
        self.groups: dict[str, FiniteGroup] = {s: parse_group(s) for s in specs}

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed * 1_000_003 + salt)


# -- group-core ---------------------------------------------------------------------


def check_conjugation_is_homomorphism(ctx: VerifyContext) -> CheckResult:
    """conj(ab, w) == conj(a, w) conj(b, w), and inverses anti-commute;
    every triple of a group at once, as table gathers."""
    rng = ctx.rng(1)
    tried = 0
    for g in ctx.groups.values():
        n, mt, inv = g.order, g.mul_table, g.inv_array
        if n <= 24:
            triples = np.indices((n, n, n)).reshape(3, -1)
        else:
            triples = rng.integers(n, size=(500, 3)).T
        a, b, w = triples
        tried += a.size

        def conj(x):
            return mt[mt[inv[w], x], w]

        bad = np.stack((
            conj(mt[a, b]) != mt[conj(a), conj(b)],
            mt[a, inv[a]] != 0,
            inv[mt[a, b]] != mt[inv[b], inv[a]],
        ))
        if bad.any():
            t = int(np.argmax(bad.any(axis=0)))
            details = (f"({a[t]},{b[t]},{w[t]})", "inv", "antihomomorphism")
            return CheckResult(
                "conjugation_homomorphism",
                False,
                f"{g.name}: {details[int(np.argmax(bad[:, t]))]}",
            )
    return CheckResult("conjugation_homomorphism", True, f"{tried} triples")


def check_parse_orders(ctx: VerifyContext) -> CheckResult:
    """Order formulas for every grammar family."""
    cases = {
        "sym:5": math.factorial(5),
        "sym:6": math.factorial(6),
        "alt:5": 60,
        "alt:6": 360,
        "sl2:3": 24,
        "sl2:5": 120,
        "sl2:7": 336,
        "abelian:2,4": 8,
        "abelian:3,3": 9,
        "cyclic:12": 12,
        "dihedral:7": 14,
        "cyclic:1": 1,
    }
    for spec, order in cases.items():
        g = ctx.groups.get(spec) or parse_group(spec)
        if g.order != order:
            return CheckResult("parse_orders", False, f"{spec}: {g.order} != {order}")
    return CheckResult("parse_orders", True, f"{len(cases)} order formulas")


# -- subgroup lattice -----------------------------------------------------------------


def check_normal_closure_normality(ctx: VerifyContext) -> CheckResult:
    """Normal closures are conjugation-invariant under every element."""
    count = 0
    for g in ctx.groups.values():
        if g.order > 60:
            continue
        conj = g.conjugation_rows(range(g.order))
        for i in range(g.order):
            sub = np.zeros(g.order, dtype=bool)
            sub[list(normal_closure(g, [i]).members)] = True
            count += 1
            if not sub[conj[:, sub]].all():
                return CheckResult(
                    "normal_closure_normality", False, f"{g.name} elt {i}"
                )
    return CheckResult("normal_closure_normality", True, f"{count} closures")


def check_soluble_lemma(ctx: VerifyContext) -> CheckResult:
    """Normal generation of a soluble group == generation of its
    abelianization by the projected tuple, exhaustively at k <= 2."""
    checked = 0
    for spec in SOLUBLE_CORPUS:
        g = ctx.groups[spec]
        if g.order > 120:
            continue
        ab = abelianization(g)
        oracle = get_join_oracle(g, "normal")
        ab_oracle = get_join_oracle(ab.target, "plain")
        for k in (1, 2):
            if g.order**k > 20_000:
                continue
            for tup in product(range(g.order), repeat=k):
                checked += 1
                lhs = oracle.generates(tup)
                rhs = ab_oracle.generates(ab.projection_idx[i] for i in tup)
                if lhs != rhs:
                    return CheckResult(
                        "soluble_normal_generation_lemma",
                        False,
                        f"{g.name}, tuple {tup}",
                    )
    return CheckResult("soluble_normal_generation_lemma", True, f"{checked} tuples")


def check_psi_identity(ctx: VerifyContext) -> CheckResult:
    """psi_k(G) equals psi_k of the abelianization, exactly."""
    rows = []
    for spec in SOLUBLE_CORPUS:
        g = ctx.groups[spec]
        ab = abelianization(g)
        for k in (1, 2):
            if g.order**k > 250_000:
                continue
            lhs, rhs = psi_k(g, k), psi_k(ab.target, k)
            if lhs != rhs:
                return CheckResult(
                    "psi_equals_abelianized_psi", False, f"{spec} k={k}: {lhs} != {rhs}"
                )
            rows.append(f"{spec},k={k}")
    return CheckResult("psi_equals_abelianized_psi", True, f"{len(rows)} exact equalities")


def check_mazurov_lift(ctx: VerifyContext) -> CheckResult:
    """The lift through every proper normal subgroup succeeds for every
    eligible tuple (exhaustive, |G| <= 48, k <= 2)."""
    lifts = 0
    for spec in ("sym:3", "sym:4", "dihedral:6"):
        g = ctx.groups[spec]
        oracle = get_join_oracle(g, "normal")
        nd, _ = nd_pair(g)
        for m_sub in normal_subgroups(g):
            if m_sub.is_whole_group():
                continue
            quotient, pi = quotient_group(g, m_sub)
            q_oracle = get_join_oracle(quotient, "normal")
            for k in (1, 2):
                if nd > k:
                    continue
                for tup in product(range(g.order), repeat=k):
                    if not q_oracle.generates(pi[i] for i in tup):
                        continue
                    lifts += 1
                    if lift_search(oracle, m_sub, tup) is None:
                        return CheckResult(
                            "mazurov_lift_total",
                            False,
                            f"{spec}, M order {m_sub.order}, g={tup}",
                        )
    # dual route: the public op agrees on a few cases
    g = ctx.groups["sym:4"]
    klein = next(s for s in normal_subgroups(g) if s.order == 4)
    sample = mazurov_lift(g, klein, (g.index_of(parse_cycles("(0 1)", 4)),))
    if sample is None:
        return CheckResult("mazurov_lift_total", False, "public op returned None")
    return CheckResult("mazurov_lift_total", True, f"{lifts} exhaustive lifts")


def check_nd_le_ndm(ctx: VerifyContext) -> CheckResult:
    rows = []
    for spec, g in ctx.groups.items():
        if g.order > 200:
            continue
        nd, ndm = nd_pair(g)
        if nd > ndm:
            return CheckResult("nd_le_ndm", False, f"{spec}: nd={nd} > nd_m={ndm}")
        rows.append(f"{spec}:{nd},{ndm}")
    return CheckResult("nd_le_ndm", True, "; ".join(rows))


# -- graphs ---------------------------------------------------------------------------


def _small_handles(ctx: VerifyContext) -> list[GraphHandle]:
    out = []
    for spec in ("abelian:3,3", "sym:3", "abelian:2,2"):
        g = ctx.groups[spec]
        out.append(GraphHandle(g, 2, GraphMode.full_ac()))
        out.append(GraphHandle(g, 2, GraphMode.nielsen()))
        out.append(GraphHandle(g, 2, GraphMode.extended_nielsen()))
        out.append(GraphHandle(g, 2, GraphMode.restricted_ac()))
    s4 = ctx.groups["sym:4"]
    a4 = normal_closure(s4, [s4.index_of(parse_cycles("(0 1 2)", 4))])
    out.append(GraphHandle(s4, 2, GraphMode.full_ac(), a4))
    return out


def _neighbor_pairs(handle: GraphHandle) -> tuple[np.ndarray, np.ndarray]:
    """Codes (v, u) of each vertex v and each of its neighbours u != v,
    from one pass of the move stream, ordered by v and then by u, as
    ``neighbors`` lists them vertex by vertex."""
    codes = np.flatnonzero(handle.vertex_mask)
    images = np.concatenate(list(handle._move_images(codes)))
    v, u = np.divmod(distinct(codes * handle.size + images), handle.size)
    loop = u == v
    return v[~loop], u[~loop]


def check_move_closure(ctx: VerifyContext) -> CheckResult:
    """Every neighbor of a vertex has the same (normal) closure."""
    edges = 0
    for handle in _small_handles(ctx):
        v, u = _neighbor_pairs(handle)
        edges += len(v)
        seen, at = np.unique(np.concatenate((v, u)), return_inverse=True)
        ids = np.array(
            [handle.oracle.join_of_indices(handle.decode(int(c))) for c in seen]
        )[at]
        bad = np.flatnonzero(ids[: len(v)] != ids[len(v) :])
        if bad.size:
            v0, u0 = (handle.decode(int(c[bad[0]])) for c in (v, u))
            return CheckResult(
                "moves_preserve_closure",
                False,
                f"{handle.group.name} {handle.mode.kind}: {v0} -> {u0}",
            )
    return CheckResult("moves_preserve_closure", True, f"{edges} edges")


def check_undirected(ctx: VerifyContext) -> CheckResult:
    """u in neighbors(v) iff v in neighbors(u)."""
    pairs = 0
    for handle in _small_handles(ctx):
        v, u = _neighbor_pairs(handle)
        pairs += len(v)
        # both key arrays are distinct, as the pairs are
        bad = np.flatnonzero(
            ~np.isin(u * handle.size + v, v * handle.size + u, assume_unique=True)
        )
        if bad.size:
            v0, u0 = (handle.decode(int(c[bad[0]])) for c in (v, u))
            return CheckResult(
                "neighbors_symmetric",
                False,
                f"{handle.group.name} {handle.mode.kind}: {v0} / {u0}",
            )
    return CheckResult("neighbors_symmetric", True, f"{pairs} directed edges")


def check_nd_bound_connectivity(ctx: VerifyContext) -> CheckResult:
    """Whole-group AC graphs are connected at k = nd + nd_m."""
    rows = []
    for spec, g in ctx.groups.items():
        if g.order > 60:
            continue
        nd, ndm = nd_pair(g)
        k = max(nd + ndm, 1)
        if g.order**k > 1_000_000:
            rows.append(f"{spec}: skipped (|G|^{k} over cap)")
            continue
        handle = GraphHandle(g, k, GraphMode.full_ac())
        parts = components(handle)
        if parts.count != 1:
            return CheckResult(
                "connected_at_nd_plus_ndm",
                False,
                f"{spec}: k={k} gives {parts.count} components",
            )
        rows.append(f"{spec}: k={k} ok")
    return CheckResult("connected_at_nd_plus_ndm", True, f"{len(rows)} groups")


def check_restricted_full_agreement(ctx: VerifyContext) -> CheckResult:
    """Restricted and full AC graphs have identical component partitions."""
    for spec in ("sym:4", "sl2:5", "abelian:3,3", "dihedral:4"):
        g = ctx.groups[spec]
        full = GraphHandle(g, 2, GraphMode.full_ac())
        restr = GraphHandle(g, 2, GraphMode.restricted_ac())
        pf, pr = components(full), components(restr)
        # components are numbered by least vertex code, so equal
        # partitions have equal label arrays
        differ = np.flatnonzero(pf.labels != pr.labels)
        if differ.size:
            return CheckResult(
                "restricted_equals_full_components",
                False,
                f"{spec}: partitions differ at code {int(differ[0])}",
            )
    return CheckResult("restricted_equals_full_components", True, "4 groups")


def check_restricted_diameter_bound(ctx: VerifyContext) -> CheckResult:
    """diam restricted <= diam full * diam Cayley(G, S)."""
    rows = []
    for spec in ("sym:3", "sym:4", "abelian:3,3"):
        g = ctx.groups[spec]
        full = GraphHandle(g, 2, GraphMode.full_ac())
        restr = GraphHandle(g, 2, GraphMode.restricted_ac())
        pf, pr = components(full), components(restr)
        cay = cayley_diameter(g, g.generators)
        for lab in range(pf.count):
            df = diameter(full, pf.labels == lab)
            dr = diameter(restr, pr.labels == lab)
            if dr > df * cay:
                return CheckResult(
                    "restricted_diameter_bound",
                    False,
                    f"{spec} comp {lab}: {dr} > {df} * {cay}",
                )
            rows.append(f"{spec}[{lab}]: {dr} <= {df}*{cay}")
    return CheckResult("restricted_diameter_bound", True, "; ".join(rows))


def check_simple_connectivity(ctx: VerifyContext) -> CheckResult:
    """Whole-group AC graphs of the (near-)simple corpus are connected at k=2."""
    specs = ["alt:5", "sl2:5"] + (
        ["alt:6", "sl2:7"] if ctx.corpus_name == "full" else []
    )
    rows = []
    for spec in specs:
        g = ctx.groups[spec]
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        parts = components(handle)
        if parts.count != 1:
            return CheckResult(
                "simple_groups_connected", False, f"{spec}: {parts.count} components"
            )
        rows.append(f"{spec}: {handle.vertex_count} vertices connected")
    return CheckResult("simple_groups_connected", True, "; ".join(rows))


def check_diameter_bound(ctx: VerifyContext) -> CheckResult:
    """Exact diameter of the alt:5 graph against 4(k*or + cn)."""
    g = ctx.groups["alt:5"]
    cn = covering_numbers(g)
    handle = GraphHandle(g, 2, GraphMode.full_ac())
    parts = components(handle)
    diam = diameter(handle, parts.labels == 0)
    bound = 4 * (2 * cn.or_value + cn.cn_value)
    loose = 4 * (2 * cn.cn_value + cn.cn_value)
    ok = diam <= bound <= loose
    return CheckResult(
        "simple_diameter_bound",
        ok,
        f"diam={diam}, 4(2*or+cn)={bound}, or={cn.or_value}, cn={cn.cn_value}",
    )


def check_quotient_cover(ctx: VerifyContext) -> CheckResult:
    """Surjectivity of the induced map onto quotient graphs, corpus-wide."""
    cases = 0
    for spec in ("sym:3", "sym:4", "dihedral:6"):
        g = ctx.groups[spec]
        nd, _ = nd_pair(g)
        for m_sub in normal_subgroups(g):
            if m_sub.is_whole_group():
                continue
            for k in (1, 2):
                if nd > k or g.order**k > 250_000:
                    continue
                case = f"{spec}, M order {m_sub.order}, k={k}"
                try:
                    report = cover_check(g, m_sub, k)
                except VerificationError as exc:
                    return CheckResult("quotient_cover_surjective", False, f"{case}: {exc}")
                cases += 1
                if not report.surjective:
                    return CheckResult("quotient_cover_surjective", False, case)
    return CheckResult("quotient_cover_surjective", True, f"{cases} quotient maps")


def check_soluble_components(ctx: VerifyContext) -> CheckResult:
    """Component bijection with the abelianized graph for soluble groups."""
    rows = []
    for spec in ("sym:3", "sym:4", "dihedral:4", "dihedral:6", "abelian:3,3"):
        g = ctx.groups[spec]
        try:
            report = soluble_component_check(g, 2)
        except VerificationError as exc:
            return CheckResult("soluble_component_bijection", False, f"{spec}: {exc}")
        rows.append(f"{spec}: {report.group_components}")
    return CheckResult("soluble_component_bijection", True, "; ".join(rows))


def check_abelian_component_counts(ctx: VerifyContext) -> CheckResult:
    """Component counts of abelian replacement graphs: phi(e_1) components
    of equal size at k = r; connected at k > r."""
    g33 = ctx.groups["abelian:3,3"]
    p = components(GraphHandle(g33, 2, GraphMode.nielsen()))
    if sorted(p.sizes) != [24, 24]:
        return CheckResult("abelian_component_structure", False, f"Z3xZ3: {p.sizes}")
    g22 = ctx.groups["abelian:2,2"]
    for spec, k in (("abelian:2,2", 3), ("abelian:2,4", 3), ("abelian:3,3", 3)):
        parts = components(GraphHandle(ctx.groups[spec], k, GraphMode.nielsen()))
        if parts.count != 1:
            return CheckResult(
                "abelian_component_structure", False, f"{spec} k={k}: {parts.count}"
            )
    return CheckResult("abelian_component_structure", True, "Z3xZ3 split + k>r connected")


# -- walkers ---------------------------------------------------------------------------


def check_walk_vertex_preservation(ctx: VerifyContext) -> CheckResult:
    """No ACR step leaves the vertex set, so no trajectory does: on every
    vertex of the whole-group full-AC graph at k = 2 (|G|^2 <= 10^4),
    x_i -> y x_i and x_i y with y = (x_j^w)^±1, for each i != j and each
    conjugator w in G, lands on a vertex."""
    images = 0
    for spec in ("sym:3", "sym:4", "abelian:3,3", "dihedral:6", "alt:5"):
        g = ctx.groups[spec]
        if g.order**2 > 10_000:
            continue
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        mt, mask = g.mul_table, handle.vertex_mask
        codes = np.flatnonzero(mask)
        digits = np.unravel_index(codes, handle.shape)
        tup = handle.member_idx[np.stack(digits)]
        for i, j in ((0, 1), (1, 0)):
            rest, xi = codes - digits[i] * handle.radix[i], tup[i]
            for row in g.conjugation_rows(range(g.order)):
                y = row[tup[j]]
                y = np.stack((y, g.inv_array[y]))  # both signs
                new = np.stack((mt[y, xi], mt[xi, y]))  # both sides
                image = rest + handle.pos_of[new] * handle.radix[i]
                hit = mask[image]
                images += hit.size
                if not hit.all():
                    miss = np.unravel_index(np.argmin(hit), hit.shape)
                    v, u = (handle.decode(int(c)) for c in (codes[miss[-1]], image[miss]))
                    return CheckResult(
                        "walk_preserves_normal_closure", False, f"{spec}: {v} -> {u}"
                    )
    return CheckResult("walk_preserves_normal_closure", True, f"{images} step images")


def check_walk_determinism(ctx: VerifyContext) -> CheckResult:
    g = ctx.groups["sym:4"]
    a4 = normal_closure(g, [g.index_of(parse_cycles("(0 1 2)", 4))])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=40)
    runs = [
        acr_sample_many(g, a4, init, cfg, np.random.default_rng(99), 50)
        for _ in range(2)
    ]
    ok = bool(np.array_equal(*runs))
    return CheckResult("walk_seed_determinism", ok, "50 samples, identical seeds")


def check_walk_output_containment(ctx: VerifyContext) -> CheckResult:
    g = ctx.groups["sym:4"]
    a4 = normal_closure(g, [g.index_of(parse_cycles("(0 1 2)", 4))])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=30)
    outs = acr_sample_many(g, a4, init, cfg, ctx.rng(6), 300)
    ok = set(outs.tolist()) <= a4.member_set
    return CheckResult("walk_output_in_subgroup", ok, "300 samples in alt:4")


def experiment_cumulative_dominance(ctx: VerifyContext) -> CheckResult:
    """Reported, never asserted: cumulative-product variant mixes at
    least as well at equal budget.  The TV of as many exactly uniform
    draws is reported beside them: the floor that sampling noise alone
    reaches."""
    g = parse_group("sym:6")
    a6 = normal_closure(g, [g.index_of(parse_cycles("(0 1 2)", 6))])
    init = (parse_cycles("(0 1 2)", 6), parse_cycles("()", 6))
    budget = 40
    tvs = {}
    for cum in (True, False):
        cfg = WalkConfig(k=2, step_budget=budget, use_cumulative=cum)
        outs = acr_sample_many(g, a6, init, cfg, ctx.rng(7 + int(cum)), 8000)
        tvs[cum] = float(tv_distance(histogram(outs), a6.order))
    uniform = ctx.rng(14).choice(np.array(a6.members), size=8000)
    floor = float(tv_distance(histogram(uniform), a6.order))
    detail = (
        f"budget {budget}: tv cumulative={tvs[True]:.3f}, plain={tvs[False]:.3f}, "
        f"uniform draws={floor:.3f}"
    )
    return CheckResult("experiment_cumulative_dominance", None, detail)


# -- stats -----------------------------------------------------------------------------


def check_stirling_sums(ctx: VerifyContext) -> CheckResult:
    for n in range(1, 9):
        if sum(stirling_first(n, c) for c in range(n + 1)) != math.factorial(n):
            return CheckResult("stirling_row_sums", False, f"n={n}")
    return CheckResult("stirling_row_sums", True, "n = 1..8")


def check_even_census(ctx: VerifyContext) -> CheckResult:
    """Even-only cycle distribution equals the exhaustive Alt_n census.

    All n! image arrays at once; a permutation is even when n minus its
    cycle count is."""
    from itertools import chain, permutations as iperm

    for n in range(2, 9):
        perms = np.fromiter(
            chain.from_iterable(iperm(range(n))), dtype=np.int8, count=n * math.factorial(n)
        ).reshape(-1, n)
        cycles = cycle_counts(perms)
        expected = census(cycles[(n - cycles) % 2 == 0])
        got = cycle_distribution(n, "even").probabilities()
        if got != expected:
            return CheckResult("even_cycle_census", False, f"n={n}")
    return CheckResult("even_cycle_census", True, "n = 2..8 exact")


def check_tv_bounds(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng(8)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        keys = int(rng.integers(1, m + 1))
        hist = {i: int(rng.integers(1, 50)) for i in range(keys)}
        tv = tv_distance(hist, m)
        if not (0 <= tv <= Fraction(m - 1, m)):
            return CheckResult("tv_distance_bounds", False, f"{hist} over {m}")
        uniform = {i: 7 for i in range(m)}
        if tv_distance(uniform, m) != 0:
            return CheckResult("tv_distance_bounds", False, "uniform not zero")
    return CheckResult("tv_distance_bounds", True, "200 random histograms")


def check_chi2_relabeling(ctx: VerifyContext) -> CheckResult:
    obs = {1: 40, 2: 35, 3: 25}
    exp = {1: Fraction(2, 5), 2: Fraction(2, 5), 3: Fraction(1, 5)}
    a = chi_squared_test(obs, exp)
    relabeled = chi_squared_test(
        {"c": 25, "a": 40, "b": 35},
        {"a": Fraction(2, 5), "b": Fraction(2, 5), "c": Fraction(1, 5)},
    )
    ok = abs(a.statistic - relabeled.statistic) < 1e-12 and a.dof == relabeled.dof
    return CheckResult("chi2_relabel_invariance", ok, f"stat {a.statistic:.4f}")


# -- conjecture lab ----------------------------------------------------------------------


def check_word_reduction(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng(9)
    for _ in range(300):
        letters = tuple(
            int(l) for l in rng.choice([-2, -1, 1, 2], size=int(rng.integers(0, 14)))
        )
        w = Word(letters).reduce()
        if w.reduce() != w:
            return CheckResult("word_reduction_idempotent", False, str(letters))
        for a, b in zip(w.letters, w.letters[1:]):
            if a == -b:
                return CheckResult("word_reduction_idempotent", False, str(letters))
    return CheckResult("word_reduction_idempotent", True, "300 random words")


def check_eval_homomorphism(ctx: VerifyContext) -> CheckResult:
    rng = ctx.rng(10)
    g = ctx.groups["sl2:5"]
    for _ in range(100):
        l1 = tuple(int(l) for l in rng.choice([-2, -1, 1, 2], size=6))
        l2 = tuple(int(l) for l in rng.choice([-2, -1, 1, 2], size=6))
        w1, w2 = Word(l1).reduce(), Word(l2).reduce()
        images = [int(rng.integers(g.order)), int(rng.integers(g.order))]
        lhs = eval_word(w1 * w2, images, g)
        rhs = g.mul_table[eval_word(w1, images, g), eval_word(w2, images, g)]
        if lhs != rhs:
            return CheckResult("eval_word_homomorphism", False, f"{l1} * {l2}")
    return CheckResult("eval_word_homomorphism", True, "100 random products")


def _pair_images(handle: GraphHandle, pair: WordPair, codes: np.ndarray) -> np.ndarray:
    """Codes of the images of 2-tuple codes under the pair's substitution."""
    tuples = handle.member_idx.take(np.unravel_index(codes, handle.shape))
    u, v = apply_pair_map(pair, tuples, handle.group)
    return np.ravel_multi_index((handle.pos_of[u], handle.pos_of[v]), handle.shape)


def check_pair_map_preserves_vertices(ctx: VerifyContext) -> CheckResult:
    """det ±1 pairs map vertices of whole-group AC graphs to vertices
    (checked for the standard short pairs on the soluble corpus plus alt:5)."""
    word_pairs = [
        AK_PAIR,
        WordPair(parse_word("y"), parse_word("x")),
        WordPair(parse_word("x y"), parse_word("y")),
    ]
    checked = 0
    for spec in ("sym:3", "sym:4", "dihedral:4", "alt:5", "sl2:5"):
        g = ctx.groups[spec]
        if nd_pair(g)[0] > 2:
            continue
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        codes = np.flatnonzero(handle.vertex_mask)
        if len(codes) > 400:
            codes = codes[ctx.rng(13).integers(len(codes), size=400)]
        for pair in word_pairs:
            _, det = exponent_matrix(pair)
            if det not in (1, -1):
                return CheckResult("pair_map_vertex_preservation", False, "bad pair")
            hit = handle.vertex_mask[_pair_images(handle, pair, codes)]
            checked += codes.size
            if not hit.all():
                tup = handle.decode(int(codes[np.argmin(hit)]))
                return CheckResult(
                    "pair_map_vertex_preservation",
                    False,
                    f"{spec}: {tup} -> image misses",
                )
    return CheckResult("pair_map_vertex_preservation", True, f"{checked} images")


def check_ak_exponent_matrix(ctx: VerifyContext) -> CheckResult:
    matrix, det = exponent_matrix(AK_PAIR)
    ok = matrix == ((3, -4), (1, -1)) and det == 1
    return CheckResult("ak_pair_exponent_matrix", ok, f"matrix {matrix}, det {det}")


def experiment_trivial_intersection(ctx: VerifyContext) -> CheckResult:
    """K ∩ L = 1 with both quotient graphs connected: is the k+l graph
    connected?  Reported on cyclic:6 (K = the 2-part, L = the 3-part)."""
    g = ctx.groups["cyclic:6"]
    subs = {s.order: s for s in normal_subgroups(g)}
    k2, k3 = subs[2], subs[3]
    q2, _ = quotient_group(g, k2)  # order 3 quotient
    q3, _ = quotient_group(g, k3)  # order 2 quotient
    c_q2 = components(GraphHandle(q2, 1, GraphMode.full_ac())).count
    c_q3 = components(GraphHandle(q3, 1, GraphMode.full_ac())).count
    c_g = components(GraphHandle(g, 2, GraphMode.full_ac())).count
    detail = (
        f"cyclic:6: quotient components {c_q2} and {c_q3} at k=l=1; "
        f"k+l=2 graph has {c_g} component(s)"
    )
    return CheckResult("experiment_trivial_intersection", None, detail)


def experiment_omega_on_soluble(ctx: VerifyContext) -> CheckResult:
    """Does the AK substitution preserve components on soluble groups?
    Reported only."""
    moved = 0
    total = 0
    for spec in ("sym:3", "sym:4", "dihedral:6"):
        g = ctx.groups[spec]
        handle = GraphHandle(g, 2, GraphMode.full_ac())
        parts = components(handle)
        codes = np.flatnonzero(handle.vertex_mask)
        image_labels = parts.labels[_pair_images(handle, AK_PAIR, codes)]
        if (image_labels < 0).any():
            raise PreconditionError(f"{spec}: an AK image is not a vertex")
        total += codes.size
        moved += int(np.count_nonzero(image_labels != parts.labels[codes]))
    return CheckResult(
        "experiment_omega_soluble_components",
        None,
        f"{moved} of {total} vertices changed component",
    )


CHECKS: tuple[Callable[[VerifyContext], CheckResult], ...] = (
    check_parse_orders,
    check_conjugation_is_homomorphism,
    check_normal_closure_normality,
    check_soluble_lemma,
    check_psi_identity,
    check_mazurov_lift,
    check_nd_le_ndm,
    check_move_closure,
    check_undirected,
    check_nd_bound_connectivity,
    check_restricted_full_agreement,
    check_restricted_diameter_bound,
    check_simple_connectivity,
    check_diameter_bound,
    check_quotient_cover,
    check_soluble_components,
    check_abelian_component_counts,
    check_walk_vertex_preservation,
    check_walk_determinism,
    check_walk_output_containment,
    check_stirling_sums,
    check_even_census,
    check_tv_bounds,
    check_chi2_relabeling,
    check_word_reduction,
    check_eval_homomorphism,
    check_pair_map_preserves_vertices,
    check_ak_exponent_matrix,
    experiment_cumulative_dominance,
    experiment_trivial_intersection,
    experiment_omega_on_soluble,
)


def run_all(corpus: str = "small", seed: int = 1) -> list[CheckResult]:
    ctx = VerifyContext(corpus, seed)
    return [check(ctx) for check in CHECKS]
