"""Tests for the explicit Chevalley bases and finite-dimensional reps."""

from fractions import Fraction

import pytest

from helpers import casimir_matrix, rep_adjoint
from weylmod.chevalley import (
    chevalley_basis,
    build_irrep,
    rep_defining,
    rep_dual_defining,
    rep_from_hw,
    rep_trivial,
)
from weylmod.finite_rep import casimir_on_irrep, weyl_dimension
from weylmod.root_system import build_algebra


def _bracket_map(cb, p_name, q_name):
    p, q = cb.index[p_name], cb.index[q_name]
    return {cb.names[k]: c for k, c in cb.bracket_list(p, q)}


def test_sl2_golden_structure_constants():
    cb = chevalley_basis(build_algebra("A", 1))
    assert cb.names == ("e", "h", "f")
    assert _bracket_map(cb, "e", "f") == {"h": 1}
    assert _bracket_map(cb, "h", "e") == {"e": 2}
    assert _bracket_map(cb, "h", "f") == {"f": -2}
    assert _bracket_map(cb, "f", "e") == {"h": -1}
    e, h, f = (cb.index[n] for n in "ehf")
    assert cb.pairing(h, h) == 2
    assert cb.pairing(e, f) == 1
    assert cb.pairing(e, e) == 0
    assert cb.pairing(e, h) == 0


def test_sl3_golden_structure_constants():
    cb = chevalley_basis(build_algebra("A", 2))
    assert _bracket_map(cb, "e1", "e2") == {"e12": 1}
    assert _bracket_map(cb, "e2", "e1") == {"e12": -1}
    assert _bracket_map(cb, "e12", "f12") == {"h1": 1, "h2": 1}
    assert _bracket_map(cb, "e2", "f12") == {"f1": 1}
    assert _bracket_map(cb, "e1", "f12") == {"f2": -1}
    assert _bracket_map(cb, "e1", "f1") == {"h1": 1}
    assert _bracket_map(cb, "h1", "e2") == {"e2": -1}
    h1, h2 = cb.index["h1"], cb.index["h2"]
    assert cb.pairing(h1, h1) == 2
    assert cb.pairing(h1, h2) == -1
    assert cb.pairing(cb.index["e12"], cb.index["f12"]) == 1


def test_ad_weights_match_brackets_with_cartan():
    cb = chevalley_basis(build_algebra("A", 2))
    for i, hi in enumerate(cb.cartan_slots):
        for q in range(cb.dim):
            got = dict(cb.bracket_list(hi, q)).get(q, Fraction(0))
            assert got == cb.weights[q].coords[i]


def test_unsupported_algebra_rejected():
    with pytest.raises(ValueError):
        chevalley_basis(build_algebra("B", 2))


def _check_rep_relations(rep):
    """[R_p, R_q] must equal the structure constants acting on the rep."""
    cb = rep.cb
    n = rep.dim
    for p in range(cb.dim):
        for q in range(p + 1, cb.dim):
            mp, mq = rep.mats[p], rep.mats[q]
            comm = [
                [
                    sum(mp[i][k] * mq[k][j] - mq[i][k] * mp[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            expect = [[Fraction(0)] * n for _ in range(n)]
            for k, c in cb.bracket_list(p, q):
                mk = rep.mats[k]
                for i in range(n):
                    for j in range(n):
                        expect[i][j] += c * mk[i][j]
            assert comm == expect


def test_rep_matrices_satisfy_brackets():
    sl2 = chevalley_basis(build_algebra("A", 1))
    sl3 = chevalley_basis(build_algebra("A", 2))
    _check_rep_relations(build_irrep(sl2, sl2.algebra.weight([3])))
    _check_rep_relations(rep_defining(sl3))
    _check_rep_relations(rep_dual_defining(sl3))
    _check_rep_relations(rep_adjoint(sl3))
    _check_rep_relations(build_irrep(sl3, sl3.algebra.weight([1, 1])))
    _check_rep_relations(build_irrep(sl3, sl3.algebra.weight([2, 0])))


def test_basis_weights_are_cartan_eigenvalues():
    cb = chevalley_basis(build_algebra("A", 2))
    rep = build_irrep(cb, cb.algebra.weight([1, 1]))
    for i, hi in enumerate(cb.cartan_slots):
        m = rep.mats[hi]
        for j in range(rep.dim):
            assert m[j][j] == rep.basis_weights[j].coords[i]
            assert all(m[k][j] == 0 for k in range(rep.dim) if k != j)


def test_irrep_dimensions():
    sl3 = chevalley_basis(build_algebra("A", 2))
    for coords in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1], [2, 2]):
        hw = sl3.algebra.weight(coords)
        assert rep_from_hw(sl3, hw).dim == weyl_dimension(sl3.algebra, hw)
    sl2 = chevalley_basis(build_algebra("A", 1))
    for n in range(5):
        assert rep_from_hw(sl2, sl2.algebra.weight([n])).dim == n + 1


def test_sl3_hw_cap_and_dominance():
    cb = chevalley_basis(build_algebra("A", 2))
    with pytest.raises(ValueError):
        build_irrep(cb, cb.algebra.weight([4, 3]))
    with pytest.raises(ValueError):
        build_irrep(cb, cb.algebra.weight([-1, 0]))


def _assert_scalar(mat, value):
    n = len(mat)
    for i in range(n):
        for j in range(n):
            assert mat[i][j] == (value if i == j else 0)


def test_casimir_matrix_matches_weight_formula():
    sl2 = chevalley_basis(build_algebra("A", 1))
    for n in (0, 1, 2, 3):
        hw = sl2.algebra.weight([n])
        rep = rep_from_hw(sl2, hw)
        _assert_scalar(casimir_matrix(sl2, rep), casimir_on_irrep(sl2.algebra, hw))
    sl3 = chevalley_basis(build_algebra("A", 2))
    cases = {
        (1, 0): Fraction(8, 3),
        (0, 1): Fraction(8, 3),
        (1, 1): Fraction(6),
        (2, 0): Fraction(20, 3),
        (0, 0): Fraction(0),
    }
    for coords, value in cases.items():
        hw = sl3.algebra.weight(coords)
        assert casimir_on_irrep(sl3.algebra, hw) == value
        rep = rep_from_hw(sl3, hw)
        _assert_scalar(casimir_matrix(sl3, rep), value)


def test_trivial_rep_is_one_dimensional_zero_action():
    cb = chevalley_basis(build_algebra("A", 2))
    rep = rep_trivial(cb)
    assert rep.dim == 1
    assert all(m == ((0,),) for m in rep.mats)


def test_casimir_pairs_give_dual_bases():
    cb = chevalley_basis(build_algebra("A", 2))
    # sum over pairs of c * (x_p, y)(x_q, z) must reproduce (y, z)
    for y in range(cb.dim):
        for z in range(cb.dim):
            total = sum(
                c * cb.pairing(p, y) * cb.pairing(q, z)
                for (p, q, c) in cb.casimir_pairs
            )
            assert total == cb.pairing(y, z)
