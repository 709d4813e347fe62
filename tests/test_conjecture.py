import numpy as np
import pytest

from acgraphs.conjecture import (
    AK_PAIR,
    MAX_WORD_LETTERS,
    Word,
    apply_pair_map,
    distance_series,
    eval_word,
    exponent_matrix,
    parse_pair,
    parse_word,
    scan_quotient,
    transvection_base,
    word_to_text,
)
from acgraphs.elements import MatrixGF, parse_cycles
from acgraphs.errors import PreconditionError, ResourceCapError
from acgraphs.graphs import GraphMode
from acgraphs.groups import parse_group

from helpers import brute_eval_word, brute_normally_generates, inverse


def test_parse_word_forms():
    w = parse_word("x^3 y^-4")
    assert w.letters == (1, 1, 1, -2, -2, -2, -2)
    assert parse_word("xxxYYYY") == w
    assert parse_word("x^3Y^4") == w
    assert word_to_text(w) == "x^3 y^-4"
    assert parse_word("").letters == ()
    with pytest.raises(ValueError):
        parse_word("x z")  # outside the two-letter alphabet


def test_word_letters_are_counted_before_they_are_built():
    # the letters are counted from the exponents, before reduction: x^n X^n
    # reduces to nothing and still counts 2n
    assert len(parse_word(f"x^{MAX_WORD_LETTERS}").letters) == MAX_WORD_LETTERS
    for text, need in (
        (f"x^{MAX_WORD_LETTERS} y", MAX_WORD_LETTERS + 1),
        (f"x^{MAX_WORD_LETTERS} X^{MAX_WORD_LETTERS}", 2 * MAX_WORD_LETTERS),
        ("x^99999999999", 99999999999),  # 800 GB of letters if built
        ("Y^-99999999999 x", 100000000000),
    ):
        with pytest.raises(ResourceCapError) as err:
            parse_word(text)
        assert (err.value.cap_name, err.value.needed) == ("word_letters", need), text


def test_parser_free_reduces():
    assert parse_word("x X").letters == ()
    assert parse_word("x y Y X").letters == ()
    assert parse_word("x Y y x").letters == (1, 1)


def test_reduction_idempotent_random():
    rng = np.random.default_rng(0)
    for _ in range(400):
        letters = tuple(
            int(l) for l in rng.choice([-2, -1, 1, 2], size=int(rng.integers(0, 16)))
        )
        w = Word(letters).reduce()
        assert w.reduce() == w
        assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


def test_eval_word_basics():
    g = parse_group("sym:4")
    x, y = (g.index_of(parse_cycles(c, 4)) for c in ("(0 1)", "(0 1 2 3)"))
    assert eval_word(parse_word(""), [x, y], g) == 0
    assert eval_word(parse_word("x X"), [x, y], g) == 0
    els = g.elements
    assert els[eval_word(parse_word("x y"), [x, y], g)] == els[x] * els[y]
    # index arrays evaluate elementwise, broadcast against scalars
    ys = np.arange(g.order)
    assert eval_word(parse_word("x y"), [x, ys], g).tolist() == [
        g.index_of(els[x] * b) for b in els
    ]


def test_eval_word_homomorphism_random():
    g = parse_group("sl2:5")
    rng = np.random.default_rng(1)
    for _ in range(150):
        l1 = tuple(int(l) for l in rng.choice([-2, -1, 1, 2], size=7))
        l2 = tuple(int(l) for l in rng.choice([-2, -1, 1, 2], size=7))
        w1 = Word(l1).reduce()
        w2 = Word(l2).reduce()
        images = [int(rng.integers(g.order)), int(rng.integers(g.order))]
        els = g.elements
        assert els[eval_word(w1 * w2, images, g)] == (
            els[eval_word(w1, images, g)] * els[eval_word(w2, images, g)]
        )


def test_eval_word_sl2_matches_independent_product():
    # x^3 y^-4 on the sl2:5 transvections, by direct modular products
    p = 5
    g = parse_group("sl2:5")
    x = MatrixGF((1, 0, 2, 1), p)
    y = MatrixGF((1, 2, 0, 1), p)
    expected = x * x * x
    yinv = inverse(y)
    for _ in range(4):
        expected = expected * yinv
    assert brute_eval_word(AK_PAIR.u, [x, y]) == expected
    assert g.elements[eval_word(AK_PAIR.u, [g.index_of(x), g.index_of(y)], g)] == expected


def test_eval_word_image_count_mismatch():
    g = parse_group("sym:3")
    with pytest.raises(PreconditionError):
        eval_word(parse_word("x"), [], g)
    with pytest.raises(PreconditionError):
        brute_eval_word(parse_word("x"), [])


def test_exponent_matrix_examples():
    identity_pair = parse_pair("x", "y")
    m, det = exponent_matrix(identity_pair)
    assert m == ((1, 0), (0, 1)) and det == 1

    m, det = exponent_matrix(AK_PAIR)
    assert m == ((3, -4), (1, -1)) and det == 1

    degenerate = parse_pair("x", "x")
    _, det = exponent_matrix(degenerate)
    assert det == 0


def test_apply_pair_map_identity_and_swap():
    g = parse_group("sym:3")
    t = (g.index_of(parse_cycles("(0 1)", 3)), g.index_of(parse_cycles("(0 1 2)", 3)))
    assert apply_pair_map(parse_pair("x", "y"), t, g) == t
    assert apply_pair_map(parse_pair("y", "x"), t, g) == (t[1], t[0])


@pytest.mark.parametrize("spec", ["sym:4", "sl2:5"])
def test_apply_pair_map_matches_eval_word_on_every_pair(spec):
    g = parse_group(spec)
    x, y = np.divmod(np.arange(g.order**2), g.order)
    for pair in (AK_PAIR, parse_pair("y", "x"), parse_pair("x y", "y")):
        u, v = apply_pair_map(pair, (x, y), g)
        expected = [
            [g.index_of(brute_eval_word(w, [g.elements[a], g.elements[b]]))
             for w in (pair.u, pair.v)]
            for a, b in zip(x.tolist(), y.tolist())
        ]
        assert np.column_stack((u, v)).tolist() == expected
        assert apply_pair_map(pair, (int(x[-1]), int(y[-1])), g) == tuple(expected[-1])


def test_scan_identity_pair_distance_zero():
    g = parse_group("sl2:3")
    report = scan_quotient(
        g, transvection_base(g), parse_pair("x", "y"), GraphMode.full_ac()
    )
    assert report.same_component
    assert report.distance == 0
    assert report.geodesic == []


def test_scan_requires_unimodular_pair():
    g = parse_group("sl2:3")
    with pytest.raises(PreconditionError):
        scan_quotient(g, transvection_base(g), parse_pair("x", "x"),
                      GraphMode.full_ac())


def test_scan_ak_on_sl2_5():
    g = parse_group("sl2:5")
    report = scan_quotient(g, transvection_base(g), AK_PAIR, GraphMode.full_ac())
    assert report.determinant == 1
    assert report.image_is_vertex
    assert report.same_component
    assert report.component_sizes == (120 * 120 - 4,)
    assert report.distance is not None and report.distance > 0
    assert len(report.geodesic) == report.distance
    # the image really does normally generate, by brute force
    images = [g.elements[i] for i in report.image]
    assert brute_normally_generates(list(g.elements), images)


def test_scan_image_matches_direct_evaluation():
    g = parse_group("sl2:5")
    base = transvection_base(g)
    report = scan_quotient(g, base, AK_PAIR, GraphMode.full_ac())
    x, y = (g.elements[i] for i in base)
    assert report.image == (
        g.index_of(brute_eval_word(AK_PAIR.u, [x, y])),
        g.index_of(brute_eval_word(AK_PAIR.v, [x, y])),
    )


def test_determinant_component_invariant_on_nielsen_graph():
    # on the rank-2 abelian group the Nielsen components are the det classes,
    # so a det-1 substitution never moves a vertex across components
    g = parse_group("abelian:3,3")
    from acgraphs.graphs import GraphHandle, components

    handle = GraphHandle(g, 2, GraphMode.nielsen())
    parts = components(handle)
    det1 = parse_pair("x y", "y")  # rows (1,1),(0,1): det 1
    moved = 0
    for code in np.flatnonzero(handle.vertex_mask):
        tup = handle.decode(int(code))
        image = apply_pair_map(det1, tup, g)
        if parts.label_of(handle.encode(image)) != parts.label_of(int(code)):
            moved += 1
    assert moved == 0


def test_distance_series_rows():
    rows = distance_series(["sl2:3", "sl2:5"], AK_PAIR, GraphMode.restricted_ac())
    assert [r.spec for r in rows] == ["sl2:3", "sl2:5"]
    assert all(r.error is None for r in rows)
    assert all(r.same_component for r in rows)
    assert all(isinstance(r.distance, int) for r in rows)


def test_distance_series_identity_pair_all_zero():
    rows = distance_series(["sl2:3", "sl2:5"], parse_pair("x", "y"),
                           GraphMode.full_ac())
    assert [r.distance for r in rows] == [0, 0]


def test_distance_series_records_row_errors():
    rows = distance_series(["sl2:3", "bogus:9"], AK_PAIR, GraphMode.full_ac())
    assert rows[0].error is None
    assert rows[1].error is not None and rows[1].distance is None


def test_word_letter_outside_alphabet():
    # a word's letters are signed positions in ALPHABET = "xy"
    for letters in ((3,), (0,), (1, -3)):
        with pytest.raises(ValueError):
            Word(letters)
