import pickle

import pytest

from acgraphs.elements import AbelianTuple, MatrixGF, Permutation, format_cycles, parse_cycles

from helpers import brute_cycle_count, conj, cycle_count, identity_like, inverse


def test_permutation_composition_is_left_to_right():
    # (a*b)(x) = b(a(x))
    a = Permutation([1, 0, 2])
    b = Permutation([0, 2, 1])
    ab = a * b
    for x in range(3):
        assert ab.images[x] == b.images[a.images[x]]


def test_conjugation_convention():
    a = parse_cycles("(0 1 2)", 3)
    w = parse_cycles("(0 1)", 3)
    assert conj(a, w) == parse_cycles("(0 2 1)", 3)
    assert conj(a, identity_like(a)) == a


def test_sl2_conjugation_matches_independent_product():
    # w^-1 * a * w computed by an independent modular-arithmetic script
    a = MatrixGF((1, 0, 2, 1), 5)
    w = MatrixGF((1, 2, 0, 1), 5)
    assert conj(a, w) == MatrixGF((2, 2, 2, 0), 5)


def test_matrix_inverse_and_det():
    m = MatrixGF((2, 1, 3, 2), 5)
    assert m * inverse(m) == identity_like(m)
    with pytest.raises(ValueError):
        MatrixGF((1, 1, 1, 1), 5)  # det 0


def test_mixed_variant_multiplication_raises():
    p = Permutation([1, 0])
    m = MatrixGF((1, 0, 0, 1), 5)
    with pytest.raises(TypeError):
        p * m
    with pytest.raises(TypeError):
        Permutation([1, 0]) * Permutation([1, 2, 0])
    with pytest.raises(TypeError):
        MatrixGF((1, 0, 0, 1), 5) * MatrixGF((1, 0, 0, 1), 7)
    with pytest.raises(TypeError):
        AbelianTuple((1,), (3,)) * AbelianTuple((1, 0), (3, 2))


def test_cycle_count_examples():
    assert cycle_count(Permutation(range(7))) == 7
    assert cycle_count(parse_cycles("(0 1 2 3 4)", 5)) == 1
    assert cycle_count(parse_cycles("(0 1)(2 3)", 5)) == 3
    with pytest.raises(TypeError):
        cycle_count(MatrixGF((1, 0, 0, 1), 5))


def test_cycle_count_against_brute_force():
    import itertools

    import numpy as np

    from acgraphs.stats import cycle_counts

    perms = list(itertools.permutations(range(5)))
    assert cycle_counts(np.array(perms)).tolist() == [brute_cycle_count(p) for p in perms]


def test_inverse_antihomomorphism_sampled():
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(100):
        a = Permutation(int(i) for i in rng.permutation(6))
        b = Permutation(int(i) for i in rng.permutation(6))
        assert inverse(a * b) == inverse(b) * inverse(a)
        assert a * inverse(a) == identity_like(a)


def test_conjugation_distributes_over_product():
    import numpy as np

    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b, w = (Permutation(int(i) for i in rng.permutation(5)) for _ in range(3))
        assert conj(a * b, w) == conj(a, w) * conj(b, w)


def test_abelian_arithmetic():
    x = AbelianTuple((1, 3), (2, 4))
    y = AbelianTuple((1, 2), (2, 4))
    assert (x * y).residues == (0, 1)
    assert x * inverse(x) == identity_like(x)
    assert conj(x, y) == x


def test_cycle_notation_round_trip():
    p = parse_cycles("(0 1)(2 3)", 6)
    assert p.images == (1, 0, 3, 2, 4, 5)
    # 1-based input means the same involution
    assert parse_cycles("(1 2)(3 4)", 6) == p
    # human-facing output is 1-based
    assert format_cycles(p) == "(1 2)(3 4)"
    assert format_cycles(Permutation(range(4))) == "()"
    assert parse_cycles("()", 4) == Permutation(range(4))
    with pytest.raises(ValueError):
        parse_cycles("(0 1)(1 2)", 4)  # not disjoint


def test_pickle_round_trip():
    for el, other in (
        (parse_cycles("(0 1 2)", 4), parse_cycles("(2 3)", 4)),
        (MatrixGF((1, 2, 0, 1), 7), MatrixGF((1, 0, 2, 1), 7)),
        (AbelianTuple((1, 0), (2, 3)), AbelianTuple((1, 2), (2, 3))),
    ):
        back = pickle.loads(pickle.dumps(el))
        assert type(back) is type(el)
        assert back == el and hash(back) == hash(el)
        assert back * other == el * other
        with pytest.raises(AttributeError):
            setattr(back, "payload", None)
    # unpickling goes through the constructor, so its validation runs
    bad = object.__new__(Permutation)
    object.__setattr__(bad, "images", (0, 0, 1))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(bad))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_equality_and_order_read_the_whole_payload():
    # equal payloads under different types or moduli are different values
    assert Permutation([1, 0]) != AbelianTuple((1, 0), (2, 2))
    assert MatrixGF((1, 1, 0, 1), 5) != MatrixGF((1, 1, 0, 1), 7)
    assert AbelianTuple((1,), (3,)) != AbelianTuple((1,), (4,))
    assert len({Permutation([1, 0]), Permutation((1, 0)), Permutation([0, 1])}) == 2
    assert Permutation([2, 0, 1]).sort_key() == (2, 0, 1)
    assert MatrixGF((1, 2, 0, 1), 7).sort_key() == ((1, 2, 0, 1), 7)
    with pytest.raises(AttributeError, match="MatrixGF is immutable"):
        MatrixGF((1, 0, 0, 1), 5).modulus = 7
