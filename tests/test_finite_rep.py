"""Tests for characters, decompositions, and Casimir data of simple algebras."""

from fractions import Fraction

import pytest

from helpers import character_product, decomposition_character, kostant_spectrum
from weylmod.affine_numerics import irreducibility_certificate
from weylmod.finite_rep import (
    Character,
    DecompositionMultiset,
    adjoint_character,
    casimir_on_irrep,
    decompose_character,
    irrep_character,
    tensor_decompose,
    weyl_dimension,
)
from weylmod.root_system import build_algebra


def test_weyl_dimension_small():
    sl2 = build_algebra("A", 1)
    for n in range(7):
        assert weyl_dimension(sl2, sl2.weight([n])) == n + 1
    sl3 = build_algebra("A", 2)
    assert weyl_dimension(sl3, sl3.weight([0, 0])) == 1
    assert weyl_dimension(sl3, sl3.weight([1, 0])) == 3
    assert weyl_dimension(sl3, sl3.weight([0, 1])) == 3
    assert weyl_dimension(sl3, sl3.weight([1, 1])) == 8
    assert weyl_dimension(sl3, sl3.weight([3, 0])) == 10
    assert weyl_dimension(sl3, sl3.weight([2, 2])) == 27
    assert weyl_dimension(sl3, sl3.weight([3, 3])) == 64
    # dimensions are Weyl-group independent sanity anchors
    b2 = build_algebra("B", 2)
    dims = sorted(weyl_dimension(b2, b2.weight(c)) for c in ([1, 0], [0, 1]))
    assert dims == [4, 5]


def test_irrep_character_multiplicities():
    sl3 = build_algebra("A", 2)
    adj = irrep_character(sl3, sl3.weight([1, 1]))
    assert adj.dimension() == 8
    full = adj.full_map()
    assert (full[0, 0], full[1, 1], full[-1, 2]) == (2, 1, 1)
    v27 = irrep_character(sl3, sl3.weight([2, 2]))
    assert v27.dimension() == 27
    assert v27.full_map()[0, 0] == 3


def test_adjoint_character_matches_highest_root():
    for series, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2)):
        a = build_algebra(series, rank)
        adj = adjoint_character(a)
        assert adj.dimension() == a.dim
        assert adj.full_map()[(0,) * rank] == rank


def test_sl2_clebsch_gordan():
    sl2 = build_algebra("A", 1)
    for a in range(5):
        for b in range(5):
            dec = tensor_decompose(sl2.weight([a]), irrep_character(sl2, sl2.weight([b])))
            expected = list(range(abs(a - b), a + b + 1, 2))
            got = sorted(c[0] for c, m in dec.items() for _ in range(m))
            assert got == expected


def test_sl3_eight_tensor_eight():
    sl3 = build_algebra("A", 2)
    adj = sl3.weight([1, 1])
    dec = tensor_decompose(adj, irrep_character(sl3, adj))
    assert dict(dec.items()) == {
        (0, 0): 1,
        (1, 1): 2,
        (3, 0): 1,
        (0, 3): 1,
        (2, 2): 1,
    }
    assert dec.dimension() == 64
    assert dec.length() == 6


def test_decompose_character_inverts_products():
    sl3 = build_algebra("A", 2)
    a = irrep_character(sl3, sl3.weight([2, 0]))
    b = irrep_character(sl3, sl3.weight([1, 1]))
    product = character_product(a, b)
    dec = decompose_character(product)
    assert dec == tensor_decompose(sl3.weight([2, 0]), b)
    assert decomposition_character(dec) == product


def test_casimir_values():
    sl2 = build_algebra("A", 1)
    assert casimir_on_irrep(sl2, sl2.weight([2])) == 4
    assert casimir_on_irrep(sl2, sl2.weight([4])) == 12
    sl3 = build_algebra("A", 2)
    assert casimir_on_irrep(sl3, sl3.weight([1, 0])) == Fraction(8, 3)
    assert casimir_on_irrep(sl3, sl3.weight([1, 1])) == 6
    assert casimir_on_irrep(sl3, sl3.weight([3, 0])) == 12
    assert casimir_on_irrep(sl3, sl3.weight([2, 2])) == 16
    assert casimir_on_irrep(sl3, sl3.weight([3, 3])) == 30


def test_casimir_rejects_non_dominant():
    sl2 = build_algebra("A", 1)
    with pytest.raises(ValueError):
        casimir_on_irrep(sl2, sl2.weight([-2]))


def test_kostant_spectrum_sl2():
    sl2 = build_algebra("A", 1)
    values = kostant_spectrum(sl2, sl2.weight([2]), sl2.weight([2]))
    assert values == [Fraction(15, 2), Fraction(3, 2), Fraction(-1, 2)]
    # contains the Casimir of every constituent of V(2) (x) M when
    # hw(U) <= hw(M): shifted by |rho|^2 the values |lam+mu|^2 run over
    # Casimir eigenvalues
    lam = sl2.weight([4]) + sl2.rho
    values2 = kostant_spectrum(sl2, sl2.weight([2]), lam)
    dec = tensor_decompose(sl2.weight([2]), irrep_character(sl2, sl2.weight([4])))
    for c, _ in dec.items():
        assert casimir_on_irrep(sl2, sl2.weight(c)) in values2


def test_length_of():
    sl3 = build_algebra("A", 2)
    adj = sl3.weight([1, 1])
    dec = tensor_decompose(adj, irrep_character(sl3, adj))
    assert dec.length() == 6
    assert decompose_character(decomposition_character(dec)).length() == 6


_PRODUCT_CASES = {
    ("A", 1): [(0,), (1,), (3,)],
    ("A", 2): [(1, 0), (0, 2), (2, 1)],
    ("A", 3): [(1, 0, 0), (0, 1, 1)],
    ("B", 2): [(1, 0), (0, 1), (1, 1)],
    ("B", 3): [(1, 0, 0), (0, 0, 1), (0, 1, 0)],
    ("C", 3): [(1, 0, 0), (0, 0, 1)],
    ("G", 2): [(1, 0), (0, 1), (1, 1)],
    ("F", 4): [(0, 0, 0, 1), (1, 0, 0, 0)],
}


def test_tensor_decompose_matches_decomposed_product():
    # B3, G2 and F4 reach points nu + rho + mu with a zero coordinate part
    # way to the dominant chamber, where Brauer-Klimyk stops early
    for (series, rank), coords in _PRODUCT_CASES.items():
        alg = build_algebra(series, rank)
        for ca in coords:
            for cb in coords:
                a, b = alg.weight(ca), alg.weight(cb)
                char_a, char_b = irrep_character(alg, a), irrep_character(alg, b)
                dec = tensor_decompose(a, char_b)
                product = character_product(char_a, char_b)
                assert dec == decompose_character(product), (series, ca, cb)
                assert dec.dimension() == product.dimension()
                # the rule run over the other factor's weights agrees
                assert tensor_decompose(b, char_a) == dec


def test_character_keys_are_integer_tuples():
    sl3 = build_algebra("A", 2)
    adj = irrep_character(sl3, sl3.weight([1, 1]))
    for key in adj.full_map():
        assert all(type(c) is int for c in key)
    assert adj.dominant == {(1, 1): 1, (0, 0): 2}
    assert adj.full_map()[-1, -1] == 1
    # a key must be a dominant int tuple of the algebra's rank
    for bad in ((Fraction(1, 2), 0), (1.0, 0), (-1, 2), (1,), (1, 1, 0),
                sl3.weight([1, 1])):
        with pytest.raises(ValueError):
            Character(sl3, {bad: 1})
    assert Character(sl3, {(-1, 2): 0}) == Character(sl3, {})
    # the dominant view is read-only: irrep_character shares its result
    with pytest.raises(TypeError):
        adj.dominant[0, 0] = 3
    assert irrep_character(sl3, sl3.weight([1, 1])).dimension() == 8


def test_decomposition_keys_are_dominant_integer_tuples():
    a2, b2 = build_algebra("A", 2), build_algebra("B", 2)
    for bad in ("x", (Fraction(1, 2), 0), (1.0, 0), (-1, 0), (1,), (1, 1, 0),
                a2.weight([1, 0]), a2.weight([-1, 0]), b2.weight([1, 0])):
        with pytest.raises(ValueError):
            DecompositionMultiset(a2, {bad: 1})
    dec = DecompositionMultiset(a2, {(1, 1): 1, (0, 0): 2, (-1, 0): 0})
    assert dec.items() == [((0, 0), 2), ((1, 1), 1)]
    assert (dec.length(), dec.dimension()) == (3, 10)


def test_fractional_multiplicities_are_rejected():
    sl3 = build_algebra("A", 2)
    for bad in (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 3), -1):
        with pytest.raises(ValueError):
            Character(sl3, {(1, 1): bad})
        with pytest.raises(ValueError):
            DecompositionMultiset(sl3, {(1, 1): bad})
    # an integral Fraction is an integer multiplicity
    assert Character(sl3, {(1, 1): Fraction(2)}) == Character(sl3, {(1, 1): 2})
    assert DecompositionMultiset(sl3, {(1, 1): Fraction(2)}).mults == {(1, 1): 2}
    assert type(Character(sl3, {(1, 1): Fraction(2)}).dominant[1, 1]) is int


def test_irrep_dimension_matches_weyl_formula():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebras = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                ("C", 3), ("D", 4), ("G", 2)]

    @st.composite
    def dominant_weight(draw):
        series, rank = draw(st.sampled_from(algebras))
        alg = build_algebra(series, rank)
        coord = st.integers(min_value=0, max_value=4 if rank <= 2 else 2)
        return alg, alg.weight([draw(coord) for _ in range(rank)])

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(dominant_weight())
    def dimension_is_weyl_dimension(case):
        alg, hw = case
        assert irrep_character(alg, hw).dimension() == weyl_dimension(alg, hw)

    dimension_is_weyl_dimension()


def test_tensor_product_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebras = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]

    @st.composite
    def weight_pair(draw):
        series, rank = draw(st.sampled_from(algebras))
        alg = build_algebra(series, rank)
        coord = st.integers(min_value=0, max_value=2 if rank <= 2 else 1)
        a = [draw(coord) for _ in range(rank)]
        b = [draw(coord) for _ in range(rank)]
        return alg, alg.weight(a), alg.weight(b)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(weight_pair())
    def commutes_and_multiplies_dimensions(case):
        alg, a, b = case
        dec = tensor_decompose(a, irrep_character(alg, b))
        assert dec == tensor_decompose(b, irrep_character(alg, a))
        assert dec.dimension() == weyl_dimension(alg, a) * weyl_dimension(alg, b)

    commutes_and_multiplies_dimensions()


# fundamental representation dimensions, sorted (independent of labelling)
_FUNDAMENTAL_DIMS = {
    ("B", 3): [7, 8, 21],
    ("C", 3): [6, 14, 14],
    ("D", 4): [8, 8, 8, 28],
    ("G", 2): [7, 14],
    ("F", 4): [26, 52, 273, 1274],
    ("E", 6): [27, 27, 78, 351, 351, 2925],
}


def test_freudenthal_and_weyl_dimension_match_known_fundamentals():
    for (series, rank), dims in _FUNDAMENTAL_DIMS.items():
        alg = build_algebra(series, rank)
        fundamentals = [alg.weight([int(i == j) for j in range(rank)])
                        for i in range(rank)]
        assert sorted(weyl_dimension(alg, w) for w in fundamentals) == dims
        for w in fundamentals:
            char = irrep_character(alg, w)
            assert char.dimension() == weyl_dimension(alg, w), (series, w)
            assert char.full_map()[tuple(map(int, w.coords))] == 1


def test_weights_of_another_algebra_or_rank_are_rejected():
    a1, a2 = build_algebra("A", 1), build_algebra("A", 2)
    with pytest.raises(ValueError):
        a1.weight([1, 2])
    with pytest.raises(ValueError):
        a1.weight([1]) + a2.weight([1, 0])
    with pytest.raises(ValueError):
        a2.weight([1, 0]) - a1.weight([1])
    with pytest.raises(ValueError):
        irrep_character(a2, a1.weight([1]))
    with pytest.raises(ValueError):
        tensor_decompose(a2.weight([1, 0]), irrep_character(a1, a1.weight([1])))
    with pytest.raises(ValueError):
        weyl_dimension(a2, a1.weight([1]))
    with pytest.raises(ValueError):
        casimir_on_irrep(a1, a2.weight([1, 0]))
    with pytest.raises(ValueError):
        irreducibility_certificate(a1.weight([1, 0]), -1)
