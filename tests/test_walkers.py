import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from acgraphs.elements import Permutation, parse_cycles
from acgraphs.errors import PreconditionError
from acgraphs.groups import SymmetricAmbient, parse_group
from acgraphs.stats import histogram, tv_distance
from acgraphs.subgroups import BLOCK_CELLS, Subgroup, class_union, normal_closure
from acgraphs.walkers import (
    WalkConfig,
    acr_sample_many,
    cayley_class_walk,
    default_step_budget,
    _ImageArithmetic,
    _TableArithmetic,
    _batch_walk,
    mixing_diagnostic,
    pra_sample_many,
)

from helpers import (
    acr_sample,
    acr_step,
    brute_normal_closure,
    identity_like,
    is_even,
    make_state,
    pra_sample,
    reference_batch_walk,
)


def idx(group, text):
    return group.index_of(parse_cycles(text, group.elements[0].degree))


def whole(group):
    return Subgroup(group, tuple(range(group.order)), True)


def test_config_validation():
    with pytest.raises(PreconditionError):
        WalkConfig(k=1, step_budget=5)
    with pytest.raises(PreconditionError):
        WalkConfig(k=2, step_budget=-1)
    with pytest.raises(PreconditionError):
        WalkConfig(k=2, step_budget=5, plain_move_probability=1.5)


def test_default_budgets():
    assert default_step_budget(2, degree=10) == 2 * 10 * 4
    assert default_step_budget(3, degree=8) == 3 * 8 * 3
    assert default_step_budget(2, subgroup_order=60) == 4 * 2 * 6


def test_zero_budget_non_cumulative_returns_component():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=0, use_cumulative=False)
    out = acr_sample(g, a4, init, cfg, np.random.default_rng(0))
    assert out in init


def test_seed_determinism():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=37)
    outs = [
        acr_sample(g, a4, init, cfg, np.random.default_rng(123)) for _ in range(2)
    ]
    assert outs[0] == outs[1]


def test_identity_conjugator_degenerates_to_plain_move():
    # in an abelian group the conjugated branch equals the plain branch
    g = parse_group("abelian:3,3")
    init = (g.elements[1], g.elements[2])
    cfg_a = WalkConfig(k=2, step_budget=50, plain_move_probability=1.0)
    cfg_b = WalkConfig(k=2, step_budget=50, plain_move_probability=1.0)
    n = normal_closure(g, [g.index_of(init[0]), g.index_of(init[1])])
    a = acr_sample(g, n, init, cfg_a, np.random.default_rng(5))
    b = acr_sample(g, n, init, cfg_b, np.random.default_rng(5))
    assert a == b


def test_trajectory_preserves_normal_closure():
    g = parse_group("sym:5")
    init = (parse_cycles("(0 1)(2 3)", 5), parse_cycles("()", 5))
    a5 = normal_closure(g, [idx(g, "(0 1)(2 3)")])
    assert a5.order == 60
    cfg = WalkConfig(k=2, step_budget=1)
    state = make_state(init, np.random.default_rng(17))
    els = list(g.elements)
    for _ in range(60):
        state = acr_step(state, cfg, g)
        closure_now = brute_normal_closure(els, list(state.tuple_elements))
        assert len(closure_now) == 60


def test_invalid_init_rejected():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    cfg = WalkConfig(k=2, step_budget=5)
    bad = (parse_cycles("()", 4), parse_cycles("()", 4))
    with pytest.raises(PreconditionError):
        acr_sample_many(g, a4, bad, cfg, np.random.default_rng(0), 5)
    # (0 1)(2 3) normally generates the Klein subgroup, not alt:4
    klein = (parse_cycles("(0 1)(2 3)", 4), parse_cycles("()", 4))
    with pytest.raises(PreconditionError):
        acr_sample_many(g, a4, klein, cfg, np.random.default_rng(0), 5)


def test_outputs_land_in_the_target_subgroup():
    g = parse_group("sym:5")
    a5 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 5), parse_cycles("()", 5))
    for cumulative in (True, False):
        cfg = WalkConfig(k=2, step_budget=25, use_cumulative=cumulative)
        outs = acr_sample_many(g, a5, init, cfg, np.random.default_rng(2), 200)
        assert outs.shape == (200,)
        assert all(o in a5.member_set for o in outs.tolist())


def test_ambient_walk_outputs_even_permutations():
    amb = SymmetricAmbient(10)
    init = (parse_cycles("(0 1)(2 3)", 10), parse_cycles("()", 10))
    cfg = WalkConfig(k=2, step_budget=default_step_budget(2, degree=10))
    assert cfg.step_budget == 80
    outs = acr_sample_many(amb, None, init, cfg, np.random.default_rng(3), 500)
    assert outs.shape == (500, 10)
    assert all(is_even(Permutation(row)) for row in outs.tolist())
    single = acr_sample(amb, None, init, cfg, np.random.default_rng(4))
    assert is_even(single)


def test_ambient_rejects_small_degree_and_odd_components():
    amb = SymmetricAmbient(4)
    cfg = WalkConfig(k=2, step_budget=5)
    with pytest.raises(PreconditionError):
        acr_sample_many(amb, None, (parse_cycles("(0 1)(2 3)", 4),) * 2, cfg,
                        np.random.default_rng(0), 5)
    amb10 = SymmetricAmbient(10)
    with pytest.raises(PreconditionError):
        acr_sample_many(amb10, None, (parse_cycles("(0 1)", 10),) * 2, cfg,
                        np.random.default_rng(0), 5)
    # word-mode conjugators need generators: rejected before any step
    words = WalkConfig(k=2, step_budget=0, conjugator_word_length=3)
    with pytest.raises(PreconditionError):
        acr_sample_many(amb10, None, (parse_cycles("(0 1 2)", 10),) * 2, words,
                        np.random.default_rng(0), 5)


def test_ambient_init_accepts_exactly_the_even_non_identity_tuples():
    amb = SymmetricAmbient(5)
    cfg = WalkConfig(k=2, step_budget=0)
    iden = Permutation(range(5))
    for images in permutations(range(5)):
        p = Permutation(images)
        if not is_even(p):
            message = "initial components must be even, degree n"
        elif p == iden:
            message = "the identity tuple is not a vertex"
        else:
            acr_sample_many(amb, None, (p, iden), cfg, np.random.default_rng(0), 1)
            continue
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            acr_sample_many(amb, None, (p, iden), cfg, np.random.default_rng(0), 1)


def test_batch_table_kernel_matches_scalar_distribution():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=30)
    batch = acr_sample_many(g, a4, init, cfg, np.random.default_rng(6), 6000)
    scalar = [
        acr_sample(g, a4, init, cfg, np.random.default_rng(1000 + i))
        for i in range(1500)
    ]

    scalar = np.array([g.index_of(s) for s in scalar])
    # both should be near-uniform over alt:4 at this budget
    assert float(tv_distance(histogram(batch), 12)) < 0.06
    assert float(tv_distance(histogram(scalar), 12)) < 0.12


@pytest.mark.parametrize(
    "mode", [{"full_move_set": True}, {"conjugator_word_length": 2}]
)
def test_batch_kernel_matches_scalar_law_at_short_budget(mode):
    # three steps leave the law far from uniform, so a wrong move shows
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    for cumulative in (True, False):
        cfg = WalkConfig(k=2, step_budget=3, use_cumulative=cumulative, **mode)
        batch = acr_sample_many(g, a4, init, cfg, np.random.default_rng(41), 40_000)
        rng = np.random.default_rng(42)
        scalar = [g.index_of(acr_sample(g, a4, init, cfg, rng)) for _ in range(8000)]
        hb, hs = histogram(batch), histogram(np.array(scalar))
        tv = sum(abs(hb.get(m, 0) / 40_000 - hs.get(m, 0) / 8000) for m in a4.members)
        assert float(tv_distance(hs, 12)) > 0.2, (mode, cumulative)
        assert tv / 2 < 0.04, (mode, cumulative, tv / 2)


_STEP_MODES = {
    "plain": {}, "component": {"use_cumulative": False},
    "conjugated": {"plain_move_probability": 0.2}, "full": {"full_move_set": True},
    "full-component": {"full_move_set": True, "use_cumulative": False},
    "words": {"conjugator_word_length": 3}, "pra": {"nielsen_only": True},
}


# PRA and word conjugators need an enumerated group
@pytest.mark.parametrize(
    "ambient, mode",
    [(False, m) for m in _STEP_MODES] + [(True, m) for m in list(_STEP_MODES)[:5]],
)
def test_batch_step_keeps_the_reference_samples(ambient, mode):
    """The kernel conjugates by one relabelling, inverts only the rows that
    invert and forms one product per step, with the reference's draws in
    the reference's order, so the samples are the same."""
    mode = dict(_STEP_MODES[mode])
    nielsen_only = mode.pop("nielsen_only", False)
    walkers = 300
    if ambient:
        init = [parse_cycles(c, 8).images for c in ("(0 1 2)", "(2 3)(4 5)", "()")]
        arith = _ImageArithmetic(8, walkers)
    else:
        g = parse_group("sym:6")
        init = [idx(g, c) for c in ("(0 1 2)", "(1 2 3 4 5)", "()")]
        arith = _TableArithmetic(g, mode.get("conjugator_word_length"))
    cfg = WalkConfig(k=3, step_budget=25, **mode)
    kernel = _batch_walk(arith, init, cfg, walkers, np.random.default_rng(5),
                         nielsen_only=nielsen_only)
    reference = reference_batch_walk(arith, init, cfg, walkers,
                                     np.random.default_rng(5), nielsen_only=nielsen_only)
    assert kernel.dtype == reference.dtype == np.int64
    assert np.array_equal(kernel, reference)


def test_pra_trivial_group():
    g = parse_group("cyclic:1")
    cfg = WalkConfig(k=2, step_budget=10)
    out = pra_sample(g, (g.elements[0], g.elements[0]), cfg, np.random.default_rng(0))
    assert out == identity_like(out)


def test_pra_determinism_and_membership():
    g = parse_group("sym:4")
    init = (parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4))
    cfg = WalkConfig(k=2, step_budget=50)
    a = pra_sample(g, init, cfg, np.random.default_rng(8))
    b = pra_sample(g, init, cfg, np.random.default_rng(8))
    assert a == b
    with pytest.raises(PreconditionError):
        pra_sample_many(g, (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4)), cfg,
                        np.random.default_rng(0), 5)


def test_pra_mixes_on_sym6():
    # 30k samples keep the empirical-TV noise floor (~0.062) clear of 0.1
    g = parse_group("sym:6")
    init = (parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6))
    cfg = WalkConfig(k=2, step_budget=200)
    outs = pra_sample_many(g, init, cfg, np.random.default_rng(10), 30_000)
    assert float(tv_distance(histogram(outs), 720)) < 0.1


def test_cayley_walk_budget_zero_is_identity():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    outs = cayley_class_walk(g, a4, (idx(g, "(0 1 2)"),), 0, np.random.default_rng(0), 5)
    assert outs.shape == (5,)
    assert outs.tolist() == [0] * 5


def test_cayley_walk_stays_in_class_closure():
    g = parse_group("sym:6")
    a6 = normal_closure(g, [idx(g, "(0 1 2)")])
    for budget in (1, 7, 40):
        outs = cayley_class_walk(
            g, a6, (idx(g, "(0 1 2)"),), budget, np.random.default_rng(budget), 30
        )
        # the 3-cycle class lies in alt:6
        assert all(is_even(g.elements[o]) for o in outs)


def test_cayley_walk_rejects_non_generating_seeds():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    with pytest.raises(PreconditionError):
        cayley_class_walk(g, a4, (idx(g, "(0 1)(2 3)"),), 5, np.random.default_rng(0), 3)


def _traced_peak(run):
    """``run()`` and the peak of memory it allocated, traced."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("cells", [BLOCK_CELLS, 16])
def test_cayley_walk_draws_its_steps_in_blocks(monkeypatch, cells):
    # one draw of the 20,000 x 200 step matrix would hold 32 MB of int64; under
    # a 16-cell budget each 200-step row is drawn in pieces
    monkeypatch.setattr("acgraphs.walkers.BLOCK_CELLS", cells)
    g = parse_group("alt:5")
    seeds = (idx(g, "(0 1 2)"),)
    samples, budget = (20_000, 200) if cells == BLOCK_CELLS else (7, 50)
    outs, peak = _traced_peak(
        lambda: cayley_class_walk(g, whole(g), seeds, budget, np.random.default_rng(3), samples)
    )
    # one block of int64 draws, then per step a column's steps and products
    assert peak <= 8 * BLOCK_CELLS + 24 * samples
    rng = np.random.default_rng(3)
    steps = class_union(g, seeds)
    pos = np.zeros(samples, dtype=np.int64)
    for col in rng.integers(len(steps), size=(samples, budget)).T:
        pos = g.mul_table[pos, steps[col]]
    assert np.array_equal(outs, pos)


@pytest.mark.parametrize("cells", [BLOCK_CELLS, 16])
def test_word_mode_draws_its_letters_in_blocks(monkeypatch, cells):
    # one draw of 2,000 letters for 4,096 conjugators would hold 65 MB of int64
    monkeypatch.setattr("acgraphs.walkers.BLOCK_CELLS", cells)
    g = parse_group("sym:4")
    m, length = (4096, 2000) if cells == BLOCK_CELLS else (5, 11)
    arith = _TableArithmetic(g, length)
    words, peak = _traced_peak(lambda: arith.random(m, np.random.default_rng(8)))
    assert peak <= 8 * BLOCK_CELLS + 24 * m
    rng = np.random.default_rng(8)
    expected = np.zeros(m, dtype=np.int64)
    for col in rng.integers(arith.letters.size, size=(length, m)):
        expected = g.mul_table[expected, arith.letters[col]]
    assert np.array_equal(words, expected)


def test_mixing_diagnostic_exact_uniform():
    g = parse_group("sym:3")
    sub = whole(g)
    report = mixing_diagnostic(np.tile(np.arange(g.order), 30), sub)
    assert report.tv == 0
    assert report.chi2.statistic == pytest.approx(0.0)
    assert report.pass95


def test_mixing_diagnostic_point_mass():
    from fractions import Fraction

    g = parse_group("sym:3")
    sub = whole(g)
    report = mixing_diagnostic(np.full(120, 1), sub)
    assert report.tv == Fraction(5, 6)  # 1 - 1/|N|
    assert not report.pass95


def test_mixing_diagnostic_errors():
    g = parse_group("sym:3")
    with pytest.raises(PreconditionError):
        mixing_diagnostic(np.array([], dtype=np.int64), whole(g))
    a3 = normal_closure(g, [idx(g, "(0 1 2)")])
    with pytest.raises(PreconditionError):
        mixing_diagnostic(np.array([idx(g, "(0 1)")]), a3)


def test_uniform_oracle_tv_alt5():
    # the ambient's uniform draws, shuffles of Sym_5, are uniform on their
    # even half alt:5: some 50k of them stay well below tv 0.05
    rows = _ImageArithmetic(5, 100_000).random(100_000, np.random.default_rng(31))
    hist = {}
    for row in rows.tolist():
        p = Permutation(row)
        if is_even(p):
            hist[p.images] = hist.get(p.images, 0) + 1
    assert len(hist) == 60 and 49_000 < sum(hist.values()) < 51_000
    assert float(tv_distance(hist, 60)) < 0.05


def test_full_move_set_flag_keeps_closure():
    g = parse_group("sym:4")
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=1, full_move_set=True)
    state = make_state(init, np.random.default_rng(77))
    els = list(g.elements)
    target = brute_normal_closure(els, list(init))
    for _ in range(80):
        state = acr_step(state, cfg, g)
        assert brute_normal_closure(els, list(state.tuple_elements)) == target


def test_word_mode_conjugators_deterministic_and_closed():
    g = parse_group("sym:4")
    a4 = normal_closure(g, [idx(g, "(0 1 2)")])
    init = (parse_cycles("(0 1 2)", 4), parse_cycles("()", 4))
    cfg = WalkConfig(k=2, step_budget=40, conjugator_word_length=10)
    a = acr_sample(g, a4, init, cfg, np.random.default_rng(21))
    b = acr_sample(g, a4, init, cfg, np.random.default_rng(21))
    assert a == b
    assert g.index_of(a) in a4.member_set
    # word mode runs on the batch kernel too: conjugators fold generator words
    outs = acr_sample_many(g, a4, init, cfg, np.random.default_rng(22), 40)
    assert all(o in a4.member_set for o in outs.tolist())
