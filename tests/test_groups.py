import math

import numpy as np
import pytest

from acgraphs.elements import MatrixGF, Permutation
from acgraphs.errors import GroupSpecError, ResourceCapError
from acgraphs.groups import FiniteGroup, SymmetricAmbient, parse_group
from acgraphs.subgroups import conjugacy_classes
from acgraphs.verify import SMALL_CORPUS
from acgraphs.walkers import _ImageArithmetic, _TableArithmetic

from helpers import brute_classes, brute_listing, brute_mulclose, conj, identity_like, is_even


def test_trivial_group():
    g = parse_group("cyclic:1")
    assert g.order == 1
    assert g.elements[0] == identity_like(g.elements[0])


@pytest.mark.parametrize(
    "spec,order",
    [
        ("sym:5", 120),
        ("sym:3", 6),
        ("alt:5", 60),
        ("alt:4", 12),
        ("sl2:5", 120),
        ("sl2:3", 24),
        ("sl2:7", 336),
        ("abelian:2,4", 8),
        ("abelian:3,3", 9),
        ("cyclic:6", 6),
        ("dihedral:4", 8),
        ("dihedral:6", 12),
    ],
)
def test_parse_orders(spec, order):
    assert parse_group(spec).order == order


def test_sl2_generators_are_the_transvections():
    g = parse_group("sl2:5")
    gens = {g.elements[i] for i in g.generators}
    assert gens == {MatrixGF((1, 0, 2, 1), 5), MatrixGF((1, 2, 0, 1), 5)}


def test_identity_is_index_zero():
    for spec in ("sym:4", "sl2:3", "abelian:2,2", "dihedral:4"):
        g = parse_group(spec)
        assert g.elements[0] == identity_like(g.elements[0])
        assert g.identity_element is g.elements[0]


def test_inverse_table_involutive():
    g = parse_group("sym:4")
    for i in range(g.order):
        assert g.inv_array[g.inv_array[i]] == i


def test_closure_exhaustive_small():
    # the listing equals the brute-force closure of the generators
    for spec in ("sym:3", "dihedral:4", "sl2:3", "abelian:2,4"):
        g = parse_group(spec)
        gens = [g.elements[i] for i in g.generators]
        assert brute_mulclose(gens) == set(g.elements)


# every family: all pairs up to order 720, 3,000 sampled pairs above
TABLE_CASES = (
    ("cyclic:1", True),
    ("cyclic:12", True),
    ("abelian:2,4", True),
    ("abelian:3,3", True),
    ("dihedral:7", True),
    ("sym:3", True),
    ("sym:4", True),
    ("sym:6", True),
    ("alt:5", True),
    ("alt:6", True),
    ("sl2:3", True),
    ("sl2:7", True),
    ("alt:7", False),
    ("sl2:13", False),
    ("sym:7", False),
)


def test_mul_table_matches_element_products():
    rng = np.random.default_rng(0)
    for spec, exhaustive in TABLE_CASES:
        g = parse_group(spec)
        n = g.order
        assert isinstance(g.mul_table, np.ndarray), spec
        assert g.mul_table.shape == (n, n) and g.mul_table.dtype == np.uint16, spec
        els = g.elements
        if exhaustive:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        else:
            pairs = rng.integers(n, size=(3000, 2)).tolist()
        for i, j in pairs:
            assert els[g.mul_table[i, j]] == els[i] * els[j], (spec, i, j)


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:6", "abelian:2,4", "abelian:3,3", "dihedral:4", "dihedral:7"]
    + [f"{kind}:{n}" for kind in ("sym", "alt") for n in range(1, 6)]
    + ["sl2:3", "sl2:5", "sl2:7"],
)
def test_closure_lists_the_family_in_canonical_order(spec):
    # payload order with the identity swapped to the front
    listing = sorted(brute_listing(spec), key=lambda e: e.sort_key())
    at = next(i for i, e in enumerate(listing) if e == identity_like(e))
    listing[0], listing[at] = listing[at], listing[0]
    assert parse_group(spec).elements == tuple(listing)


def test_generators_that_do_not_span_are_rejected():
    g = parse_group("sym:3")
    gens = [g.elements[i] for i in g.generators]
    transposition = next(e for e in gens if not is_even(e))
    with pytest.raises(ValueError, match="generators span 2 of 6"):
        FiniteGroup("sym:3", g.identity_element, [transposition], 6)
    with pytest.raises(ValueError, match="generators span more than 5"):
        FiniteGroup("sym:3", g.identity_element, gens, 5)


def test_element_cap_applies_before_enumeration(monkeypatch):
    import acgraphs.groups as groups_mod

    def refuse(*args):
        raise AssertionError("enumerated past the element cap")

    monkeypatch.delenv("ACGRAPHS_MAX_ELEMENTS", raising=False)
    monkeypatch.setattr(groups_mod, "AbelianTuple", refuse)
    with pytest.raises(ResourceCapError) as err:
        parse_group("cyclic:8193")
    assert err.value.cap_name == "max_elements"
    assert "8193" in str(err.value) and "8192" in str(err.value)
    # large elements too: dihedral:100000 (order 200,000) acts on 100,000
    # points, and building its permutations before the order check would
    # take minutes
    monkeypatch.setattr(groups_mod, "Permutation", refuse)
    with pytest.raises(ResourceCapError) as err:
        parse_group("dihedral:100000")
    assert (err.value.cap_name, err.value.needed) == ("max_elements", 200_000)


def test_bad_specs():
    for bad in ("sym:11", "alt:0", "sl2:4", "sl2:2", "sl2:17", "abelian:1,2",
                "dihedral:2", "cyclic:0", "nope:3", "sym"):
        with pytest.raises(GroupSpecError):
            parse_group(bad)


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("ACGRAPHS_MAX_ELEMENTS", "1000")
    with pytest.raises(ResourceCapError) as err:
        parse_group("sym:8")
    assert "max_elements" in str(err.value)


def test_random_element_determinism_and_uniformity():
    # uniform elements are index draws: the walkers' uniform conjugators
    g = parse_group("sym:4")
    draw = _TableArithmetic(g, None).random
    a = draw(24_000, np.random.default_rng(5))
    assert (a == draw(24_000, np.random.default_rng(5))).all()

    # 24000 draws: every element within 5 sigma of 1000,
    # sigma = sqrt(N p (1-p)) ~ 30.96
    counts = np.bincount(draw(24_000, np.random.default_rng(11)), minlength=24)
    sigma = math.sqrt(24_000 * (1 / 24) * (23 / 24))
    assert (np.abs(counts - 1000) < 5 * sigma).all()


def test_trivial_group_random_element():
    g = parse_group("cyclic:1")
    for word_length in (None, 3):
        draw = _TableArithmetic(g, word_length).random
        assert draw(5, np.random.default_rng(0)).tolist() == [0] * 5


def test_symmetric_ambient():
    amb = SymmetricAmbient(12)
    assert amb.degree == 12 and amb.name == "sym:12 (ambient)"
    assert amb.identity_element == Permutation(range(12))
    with pytest.raises(GroupSpecError):
        SymmetricAmbient(0)
    # uniform elements are rows of point images, drawn by shuffle
    rows = _ImageArithmetic(12, 3).random(3, np.random.default_rng(9))
    assert (np.sort(rows, axis=1) == np.arange(12)).all()
    assert (rows == _ImageArithmetic(12, 3).random(3, np.random.default_rng(9))).all()


def test_element_order():
    g = parse_group("cyclic:6")
    powers = g.power_rows()
    assert powers.shape == (7, 6) and powers.dtype == g.mul_table.dtype
    orders = sorted(np.argmax(powers[1:] == 0, axis=0) + 1)
    assert orders == [1, 2, 3, 3, 6, 6]


def test_env_var_overrides_element_cap(monkeypatch):
    monkeypatch.setenv("ACGRAPHS_MAX_ELEMENTS", "100")
    with pytest.raises(ResourceCapError):
        parse_group("sym:5")
    monkeypatch.delenv("ACGRAPHS_MAX_ELEMENTS")
    assert parse_group("sym:5").order == 120


@pytest.mark.parametrize("spec", SMALL_CORPUS + ("sym:5", "sl2:7"))
def test_conjugation_rows_and_classes_match_element_objects(spec):
    g = parse_group(spec)
    els = g.elements
    rows = g.conjugation_rows(range(g.order)).tolist()
    for w, row in enumerate(rows):
        assert row == [g.index_of(conj(x, els[w])) for x in els], w
    classes = [{els[i] for i in cls} for cls in conjugacy_classes(g)]
    assert classes == brute_classes(els)
