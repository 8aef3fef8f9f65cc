"""Tests for the explicit Chevalley bases and finite-dimensional reps."""

from fractions import Fraction

import pytest

from helpers import (casimir_matrix, combine, compose, rep_adjoint, rep_tensor,
                     rep_trivial)
from weylmod.chevalley import chevalley_basis, rep_from_hw
from weylmod.finite_rep import casimir_on_irrep, irrep_character, weyl_dimension
from weylmod.root_system import build_algebra, norm_sq


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
            assert got == cb.weights[q][i]


# every simple algebra that the explicit module's generator packing holds
_TYPES = [("A", r) for r in range(1, 8)] + [
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 2), ("C", 3), ("C", 4),
    ("C", 5), ("D", 3), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
]


def test_every_type_builds():
    for series, rank in _TYPES:
        algebra = build_algebra(series, rank)
        cb = chevalley_basis(algebra)
        assert cb.dim == algebra.dim <= 64
        assert len(cb.index) == cb.dim


def _check_rep_relations(rep):
    """[R_p, R_q] must equal the structure constants acting on the rep."""
    cb, mats = rep.cb, rep.mats
    for p in range(cb.dim):
        for q in range(p + 1, cb.dim):
            comm = combine([(1, compose(mats[p], mats[q])),
                            (-1, compose(mats[q], mats[p]))])
            expect = combine((c, mats[k]) for k, c in cb.bracket_list(p, q))
            assert comm == expect, (p, q)


def test_rep_matrices_satisfy_brackets():
    sl2 = chevalley_basis(build_algebra("A", 1))
    sl3 = chevalley_basis(build_algebra("A", 2))
    _check_rep_relations(rep_from_hw(sl2, sl2.algebra.weight([3])))
    _check_rep_relations(rep_from_hw(sl3, sl3.algebra.weight([1, 0])))
    _check_rep_relations(rep_from_hw(sl3, sl3.algebra.weight([0, 1])))
    _check_rep_relations(rep_adjoint(sl3))
    _check_rep_relations(rep_from_hw(sl3, sl3.algebra.weight([1, 1])))
    _check_rep_relations(rep_from_hw(sl3, sl3.algebra.weight([2, 0])))
    # the test helpers that A4 relies on
    for series in ("A", "B"):
        algebra = build_algebra(series, 2)
        cb = chevalley_basis(algebra)
        _check_rep_relations(rep_tensor(rep_from_hw(cb, algebra.weight([1, 0])),
                                        rep_from_hw(cb, algebra.weight([0, 1]))))
    for series in ("B", "G"):
        _check_rep_relations(rep_adjoint(chevalley_basis(build_algebra(series, 2))))


def test_basis_weights_are_cartan_eigenvalues():
    cb = chevalley_basis(build_algebra("A", 2))
    rep = rep_from_hw(cb, cb.algebra.weight([1, 1]))
    # weights are int tuples in fundamental coordinates
    assert all(type(w) is tuple and len(w) == 2 and all(type(c) is int for c in w)
               for w in rep.basis_weights)
    for i, hi in enumerate(cb.cartan_slots):
        expect = {j: {j: w[i]} for j, w in enumerate(rep.basis_weights) if w[i]}
        assert rep.mats[hi] == expect


def test_irrep_dimensions():
    sl3 = chevalley_basis(build_algebra("A", 2))
    for coords in ([0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [2, 1], [2, 2]):
        hw = sl3.algebra.weight(coords)
        assert rep_from_hw(sl3, hw).dim == weyl_dimension(sl3.algebra, hw)
    sl2 = chevalley_basis(build_algebra("A", 1))
    for n in range(5):
        assert rep_from_hw(sl2, sl2.algebra.weight([n])).dim == n + 1


def test_irrep_requires_dominant_integral_hw():
    cb = chevalley_basis(build_algebra("A", 2))
    with pytest.raises(ValueError):
        rep_from_hw(cb, cb.algebra.weight([-1, 0]))
    with pytest.raises(ValueError):
        rep_from_hw(cb, cb.algebra.weight([Fraction(1, 2), 0]))


def test_irrep_rejects_a_weight_of_another_algebra():
    # an A2 weight has B2's rank and is dominant integral, but is not B2's
    cb = chevalley_basis(build_algebra("B", 2))
    with pytest.raises(ValueError, match=r"belongs to AlgebraData\(A2\)"):
        rep_from_hw(cb, build_algebra("A", 2).weight([1, 0]))


def _assert_scalar(mat, value, dim):
    assert mat == ({i: {i: value} for i in range(dim)} if value else {})


def test_casimir_matrix_matches_weight_formula():
    sl2 = chevalley_basis(build_algebra("A", 1))
    for n in (0, 1, 2, 3):
        hw = sl2.algebra.weight([n])
        rep = rep_from_hw(sl2, hw)
        _assert_scalar(casimir_matrix(sl2, rep), casimir_on_irrep(sl2.algebra, hw),
                       rep.dim)
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
        _assert_scalar(casimir_matrix(sl3, rep), value, rep.dim)


def test_trivial_rep_is_one_dimensional_zero_action():
    cb = chevalley_basis(build_algebra("A", 2))
    rep = rep_trivial(cb)
    assert rep.dim == 1
    assert all(m == {} for m in rep.mats)


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


# The A1 and A2 tables of the hand-written bases this construction replaced:
# names, nonzero brackets {(p, q): {k: c}}, the form, casimir_pairs and the
# ad-weights.
_PINNED = {
    1: (
        ("e", "h", "f"),
        {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 0): {0: 2}, (1, 2): {2: -2},
         (2, 0): {1: -1}, (2, 1): {2: 2}},
        ((0, 0, 1), (0, 2, 0), (1, 0, 0)),
        ((0, 2, 1), (1, 1, Fraction(1, 2)), (2, 0, 1)),
        ((2,), (0,), (-2,)),
    ),
    2: (
        ("e1", "e2", "e12", "h1", "h2", "f1", "f2", "f12"),
        {(0, 1): {2: 1}, (0, 3): {0: -2}, (0, 4): {0: 1}, (0, 5): {3: 1},
         (0, 7): {6: -1}, (1, 0): {2: -1}, (1, 3): {1: 1}, (1, 4): {1: -2},
         (1, 6): {4: 1}, (1, 7): {5: 1}, (2, 3): {2: -1}, (2, 4): {2: -1},
         (2, 5): {1: -1}, (2, 6): {0: 1}, (2, 7): {3: 1, 4: 1}, (3, 0): {0: 2},
         (3, 1): {1: -1}, (3, 2): {2: 1}, (3, 5): {5: -2}, (3, 6): {6: 1},
         (3, 7): {7: -1}, (4, 0): {0: -1}, (4, 1): {1: 2}, (4, 2): {2: 1},
         (4, 5): {5: 1}, (4, 6): {6: -2}, (4, 7): {7: -1}, (5, 0): {3: -1},
         (5, 2): {1: 1}, (5, 3): {5: 2}, (5, 4): {5: -1}, (5, 6): {7: -1},
         (6, 1): {4: -1}, (6, 2): {0: -1}, (6, 3): {6: -1}, (6, 4): {6: 2},
         (6, 5): {7: 1}, (7, 0): {6: 1}, (7, 1): {5: -1}, (7, 2): {3: -1, 4: -1},
         (7, 3): {7: 1}, (7, 4): {7: 1}},
        ((0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0),
         (0, 0, 0, 0, 0, 0, 0, 1), (0, 0, 0, 2, -1, 0, 0, 0),
         (0, 0, 0, -1, 2, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0),
         (0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0, 0)),
        ((0, 5, 1), (1, 6, 1), (2, 7, 1), (3, 3, Fraction(2, 3)),
         (3, 4, Fraction(1, 3)), (4, 3, Fraction(1, 3)), (4, 4, Fraction(2, 3)),
         (5, 0, 1), (6, 1, 1), (7, 2, 1)),
        ((2, -1), (-1, 2), (1, 1), (0, 0), (0, 0), (-2, 1), (1, -2), (-1, -1)),
    ),
}


@pytest.mark.parametrize("rank", [1, 2])
def test_a1_a2_tables_are_pinned(rank):
    names, bracket, form, pairs, weights = _PINNED[rank]
    cb = chevalley_basis(build_algebra("A", rank))
    assert cb.names == names
    assert {key: dict(entry) for key, entry in cb.brackets.items()} == bracket
    assert cb.form == form
    assert cb.casimir_pairs == pairs
    assert cb.weights == weights
    assert all(type(c) is int for w in cb.weights for c in w)


_RELATION_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                   ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def _ad(cb, p, vec):
    """[x_p, vec] for a sparse vector {index: coeff}."""
    out = {}
    for q, c in vec.items():
        for k, v in cb.bracket_list(p, q):
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("series,rank", _RELATION_TYPES)
def test_jacobi_and_chevalley_relations(series, rank):
    algebra = build_algebra(series, rank)
    cb = chevalley_basis(algebra)
    n = cb.dim
    for p in range(n):
        for q in range(p + 1, n):
            xy = dict(cb.bracket_list(p, q))
            # a Chevalley basis has integral structure constants
            assert all(c.denominator == 1 for c in xy.values())
            for s in range(q + 1, n):
                # [x_p, [x_q, x_s]] + [x_q, [x_s, x_p]] + [x_s, [x_p, x_q]] = 0
                total = {}
                for a, b, c in ((p, q, s), (q, s, p), (s, p, q)):
                    for k, v in _ad(cb, a, dict(cb.bracket_list(b, c))).items():
                        total[k] = total.get(k, 0) + v
                assert not any(total.values()), (p, q, s)
    n_pos = len(algebra.positive_roots)
    hs = cb.cartan_slots
    for i in range(rank):
        for j in range(rank):
            # [e_i, f_j] = delta_ij h_i and [h_i, e_j] = cartan[i][j] e_j
            expect = {hs[i]: 1} if i == j else {}
            assert dict(cb.bracket_list(i, n_pos + rank + j)) == expect
            a_ij = algebra.cartan[i][j]
            assert dict(cb.bracket_list(hs[i], j)) == ({j: a_ij} if a_ij else {})
    # [e_alpha, f_alpha] = h_alpha, the coroot sum_i c_i d_i / d_alpha h_i
    for k in range(n_pos):
        alpha = algebra.weight(cb.weights[k])
        c = alpha.to_root_coords()
        d_alpha = norm_sq(alpha) / 2
        coroot = {hs[i]: c[i] * algebra.d[i] / d_alpha for i in range(rank) if c[i]}
        assert dict(cb.bracket_list(k, n_pos + rank + k)) == coroot


@pytest.mark.parametrize("series,rank", [("A", 2), ("G", 2)])
def test_bracket_list_is_the_held_sorted_bracket(series, rank):
    cb = chevalley_basis(build_algebra(series, rank))
    # the one table holds only nonzero brackets, each sorted by index with
    # no zero coefficient
    assert all(entry and entry == tuple(sorted(entry)) and all(c for _, c in entry)
               for entry in cb.brackets.values())
    for p in range(cb.dim):
        for q in range(cb.dim):
            got = cb.bracket_list(p, q)
            assert got == cb.brackets.get((p, q), ())
            # antisymmetric, and read from the table, not built on each call
            assert got == tuple((k, -c) for k, c in cb.bracket_list(q, p))
            assert cb.bracket_list(p, q) is got
    assert all(cb.bracket_list(p, p) == () for p in range(cb.dim))


_IRREPS = {
    ("B", 2): [(1, 0), (0, 1), (1, 1), (2, 1)],
    ("G", 2): [(1, 0), (0, 1), (1, 1)],
    ("A", 3): [(1, 0, 1), (0, 1, 0), (1, 1, 0)],
    ("C", 3): [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


@pytest.mark.parametrize("series,rank", list(_IRREPS))
def test_irreps_satisfy_brackets_and_freudenthal(series, rank):
    algebra = build_algebra(series, rank)
    cb = chevalley_basis(algebra)
    for coords in _IRREPS[series, rank]:
        hw = algebra.weight(coords)
        rep = rep_from_hw(cb, hw)
        _check_rep_relations(rep)
        mults = {}
        for w in rep.basis_weights:
            mults[w] = mults.get(w, 0) + 1
        assert mults == irrep_character(algebra, hw).full_map()


def test_casimir_is_scalar_beyond_type_a():
    for series, coords in (("B", (1, 0)), ("B", (0, 1)), ("B", (1, 1)),
                           ("G", (1, 0)), ("G", (0, 1))):
        algebra = build_algebra(series, 2)
        cb = chevalley_basis(algebra)
        hw = algebra.weight(coords)
        rep = rep_from_hw(cb, hw)
        _assert_scalar(casimir_matrix(cb, rep), casimir_on_irrep(algebra, hw),
                       rep.dim)


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_irrep_matrices_are_column_sparse(series):
    algebra = build_algebra(series, 2)
    cb = chevalley_basis(algebra)
    for coords in ([1, 0], [0, 1], [1, 1], [2, 1]):
        rep = rep_from_hw(cb, algebra.weight(coords))
        assert len(rep.mats) == cb.dim
        for mat in rep.mats:
            for j, col in mat.items():
                assert j in range(rep.dim) and col
                assert all(i in range(rep.dim) and v for i, v in col.items())


# minuscule highest weights (and the sl2 ladder), where the matrices are ints
_MINUSCULE = {
    ("A", 1): [(1,), (2,), (5,)],
    ("A", 3): [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ("B", 3): [(0, 0, 1)],
    ("C", 3): [(1, 0, 0)],
    ("D", 4): [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
}


def test_scalars_are_ints_where_integral():
    def canonical(v):
        return type(v) is int or (type(v) is Fraction and v.denominator != 1)

    for series, rank in _TYPES:
        cb = chevalley_basis(build_algebra(series, rank))
        # Chevalley's theorem: integral brackets; the form is integral too
        assert all(type(v) is int for entry in cb.brackets.values() for _, v in entry)
        assert all(type(v) is int for row in cb.form for v in row)
        assert all(canonical(w) for _, _, w in cb.casimir_pairs)
    for (series, rank), hws in _MINUSCULE.items():
        algebra = build_algebra(series, rank)
        cb = chevalley_basis(algebra)
        for hw in hws:
            rep = rep_from_hw(cb, algebra.weight(hw))
            assert all(type(v) is int for m in rep.mats for col in m.values()
                       for v in col.values()), hw
    # beyond them the basis need not be a Z-basis: the adjoint of sl3 has
    # entries 1/2, held as Fractions
    sl3 = build_algebra("A", 2)
    rep = rep_from_hw(chevalley_basis(sl3), sl3.weight([1, 1]))
    entries = [v for m in rep.mats for col in m.values() for v in col.values()]
    assert all(canonical(v) for v in entries)
    assert Fraction(1, 2) in entries
