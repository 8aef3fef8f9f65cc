"""Tests for the truncated PBW realization and its brute-force oracles."""

import json
from fractions import Fraction

import pytest

from weylmod.affine_numerics import candidate_pairs
import helpers
from weylmod.explicit_module import (
    DEPTH_CAP_ENV,
    act,
    annihilator_level,
    build_truncated,
    check_kl_exact_sequence,
    depth_cap,
    module_json_dict,
    monomials_of_degree,
    singular_dimensions,
    singular_vectors,
    sugawara_l0,
    virasoro_commutation_check,
)
from weylmod import explicit_module
from weylmod.graded_sym import sym_ad_graded
from weylmod.linalg import FILTER_PRIME, SpanBuilder
from weylmod.rational import (
    ComplexRational, format_scalar, parse_scalar, scalar_im, scalar_re,
)
from weylmod.root_system import build_algebra

SL2 = build_algebra("A", 1)
SL3 = build_algebra("A", 2)


def _sl2(hw=0, kappa=Fraction(-1), depth=2):
    return build_truncated(SL2, SL2.weight([hw]), kappa, depth)


def test_monomials_of_degree_counts():
    # colored partitions of n with dim_g colors
    assert monomials_of_degree(3, 0) == [()]
    assert len(monomials_of_degree(3, 1)) == 3
    assert len(monomials_of_degree(3, 2)) == 9
    assert len(monomials_of_degree(8, 2)) == 44
    for mono in monomials_of_degree(3, 3):
        modes = [f >> 6 for f in mono]
        assert modes == sorted(modes, reverse=True)
        assert sum(modes) == 3


def test_layer_dimensions_match_graded_sym():
    m = _sl2(hw=0, depth=2)
    assert [m.degree_dim(n) for n in range(3)] == [1, 3, 9]
    m2 = _sl2(hw=2, kappa=Fraction(-2), depth=2)
    assert [m2.degree_dim(n) for n in range(3)] == [3, 9, 27]
    m3 = build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 1)
    assert [m3.degree_dim(n) for n in range(2)] == [3, 24]
    sym = [c.dimension() for c in sym_ad_graded(SL2, 2)]
    assert [m2.degree_dim(n) for n in range(3)] == [3 * s for s in sym]


def test_degree_bookkeeping():
    m = _sl2(hw=2, depth=2)
    assert m.dim == 3 + 9 + 27
    # the action store is built; the straightening memos are not kept
    assert not hasattr(m, "_opmemo") and not hasattr(m, "_lmmemo")
    for n in range(3):
        for idx in m.degree_range(n):
            assert helpers.degree_of(m, idx) == n
    with pytest.raises(ValueError):
        m.degree_range(3)


def test_build_rejections():
    e6 = build_algebra("E", 6)  # dim 78 > 64 generators
    with pytest.raises(ValueError):
        build_truncated(e6, e6.weight([0] * 6), Fraction(-1), 1)
    with pytest.raises(ValueError):
        build_truncated(SL2, SL2.weight([0]), Fraction(-1), 0)
    with pytest.raises(ValueError):
        build_truncated(SL2, SL2.weight([0]), Fraction(-1), depth_cap() + 1)
    with pytest.raises(ValueError):
        build_truncated(SL2, SL2.weight([0]), Fraction(0), 1)
    with pytest.raises(ValueError):
        build_truncated(SL2, SL2.weight([-2]), Fraction(-1), 1)
    with pytest.raises(ValueError):
        build_truncated(SL2, SL3.weight([0, 0]), Fraction(-1), 1)


def test_kappa_normalization():
    m = build_truncated(SL2, SL2.weight([0]), -3, 1)
    assert isinstance(m.kappa, Fraction) and m.kappa == -3
    m2 = build_truncated(SL2, SL2.weight([0]), ComplexRational(-3, 0), 1)
    assert isinstance(m2.kappa, Fraction) and m2.kappa == -3
    assert m.k_scalar == -3 - 2


def test_depth_cap_env_override(monkeypatch):
    monkeypatch.setenv(DEPTH_CAP_ENV, "2")
    assert depth_cap() == 2
    with pytest.raises(ValueError):
        build_truncated(SL2, SL2.weight([0]), Fraction(-1), 3)
    monkeypatch.setenv(DEPTH_CAP_ENV, "7")
    m = build_truncated(SL2, SL2.weight([0]), Fraction(-1), 7)
    assert m.depth == 7
    monkeypatch.setenv(DEPTH_CAP_ENV, "zero")
    with pytest.raises(ValueError):
        depth_cap()


def test_central_element_action():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=1)
    # K acts by (kappa - h_dual) id on every degree: a sparse diagonal
    assert m.k_scalar == -3
    assert act(m, "K", 0) == {i: {i: -3} for i in range(m.dim)}
    with pytest.raises(ValueError):
        act(m, "K", 1)
    # at kappa = h_dual, K acts by 0 and has no nonzero column
    at_h_dual = build_truncated(SL2, SL2.weight([0]), SL2.dual_coxeter, 1)
    assert act(at_h_dual, "K", 0) == {}


def test_store_holds_no_zero_at_dual_coxeter_level():
    # kappa = h-dual: K acts by 0, so every central term vanishes
    for algebra, hw in ((SL2, [0]), (SL3, [0, 0])):
        m = build_truncated(algebra, algebra.weight(hw), algebra.dual_coxeter, 2)
        assert m.k_scalar == 0
        for p in range(m.cb.dim):
            for mode in range(-2, 3):
                for col in m.columns(p, mode).values():
                    assert col and all(col.values())
        _assert_l0_is_the_closed_form(m)


def test_zero_mode_cartan_is_diagonal_with_weights():
    for m in (_sl2(hw=2, kappa=Fraction(-2), depth=1),
              build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 1)):
        rank = m.algebra.rank
        # one weight per basis vector, an int tuple in fundamental coordinates
        assert len(m.weights) == m.dim
        assert all(type(w) is tuple and len(w) == rank
                   and all(type(c) is int for c in w) for w in m.weights)
        # h_i eps^0 is the diagonal of the i-th weight coordinate
        for i, h in enumerate(m.cb.cartan_slots):
            assert act(m, h, 0) == {idx: {idx: w[i]}
                                    for idx, w in enumerate(m.weights) if w[i]}


def test_negative_mode_is_partial_positive_is_not():
    m = _sl2(hw=0, depth=2)
    assert m.dim == 13
    by_mode = {(a["generator"], a["mode"]): a for a in module_json_dict(m)["actions"]}
    lower, raise_ = by_mode["e", -1], by_mode["f", 1]
    assert lower["partial"] is True and raise_["partial"] is False
    # a lowering mode acts only where its image stays inside the truncation;
    # a raising mode kills degree 0
    assert [b["source_degree"] for b in lower["blocks"]] == [0, 1]
    assert [b["source_degree"] for b in raise_["blocks"]] == [1, 2]
    assert not any(helpers.degree_of(m, idx) == 2 for idx in act(m, "e", -1))
    assert not any(helpers.degree_of(m, idx) == 0 for idx in act(m, "f", 1))
    with pytest.raises(ValueError):
        act(m, "e", 3)
    # the image of a top-degree vector under a lowering mode leaves the truncation
    top = m.degree_range(2).start
    with pytest.raises(ValueError):
        helpers.apply_to_vector(m, 0, -1, {top: Fraction(1)})
    assert helpers.apply_to_vector(m, 0, 3, {top: 1}) == {}
    # an unknown generator or basis index is a ValueError, never a KeyError
    # or a silent zero
    for bad in (lambda: m.columns(3, 0),
                lambda: act(m, 3, 0),
                lambda: act(m, "x", 0),
                lambda: helpers.apply_to_vector(m, 3, 0, {0: 1}),
                lambda: helpers.apply_to_vector(m, 0, 1, {99: 1}),
                lambda: helpers.apply_to_vector(m, 0, 1, {13: 1}),
                lambda: helpers.apply_to_vector(m, 0, 0, {-1: 1})):
        with pytest.raises(ValueError):
            bad()
    assert helpers.apply_to_vector(m, "e", 1, {12: 1}) == m.columns(0, 1).get(12, {})


def _commutator_check(m, pairs_of_modes):
    """[x eps^a, y eps^b] == [x,y] eps^{a+b} + a delta_{a,-b} (x,y) K."""
    cb = m.cb

    def on(p, mode, vec):
        return helpers.apply_to_vector(m, p, mode, vec)

    for a, b in pairs_of_modes:
        for n in range(m.depth + 1):
            if max(n - a, n - b, n - a - b) > m.depth:
                continue
            for idx in m.degree_range(n):
                v = {idx: Fraction(1)}
                for p in range(cb.dim):
                    for q in range(cb.dim):
                        lhs = on(p, a, on(q, b, v))
                        for t, c in on(q, b, on(p, a, v)).items():
                            lhs[t] = lhs.get(t, Fraction(0)) - c
                        rhs = {}
                        for k, ck in cb.bracket_list(p, q):
                            for t, c in on(k, a + b, v).items():
                                rhs[t] = rhs.get(t, Fraction(0)) + ck * c
                        if a + b == 0:
                            pr = cb.pairing(p, q)
                            if pr:
                                rhs[idx] = (
                                    rhs.get(idx, Fraction(0))
                                    + a * pr * m.k_scalar
                                )
                        lhs = {t: c for t, c in lhs.items() if c}
                        rhs = {t: c for t, c in rhs.items() if c}
                        assert lhs == rhs, (a, b, n, idx, p, q)


def test_affine_commutation_relations_sl2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=2)
    _commutator_check(m, [(-1, 1), (1, -1), (0, 1), (1, 0), (0, 0), (-2, 2),
                          (-1, 2), (1, 1)])


def test_affine_commutation_relations_sl3():
    m = build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 1)
    _commutator_check(m, [(-1, 1), (1, -1), (0, 1), (0, 0)])


def test_affine_commutation_relations_complex_kappa():
    m = _sl2(hw=2, kappa=ComplexRational(-1, 1), depth=2)
    _commutator_check(m, [(-1, 1), (0, 1), (1, 1)])


def _assert_l0_is_the_closed_form(m):
    """sugawara_l0, module.l0 and the per-vector oracle's columns all give
    the scalar a/(2 kappa) + n on each degree-n layer."""
    eigenvalues = helpers.l0_eigenvalues(m)
    assert sugawara_l0(m) == m.l0 == eigenvalues
    assert helpers.sugawara_columns(m) == helpers.layer_scalar_columns(m, eigenvalues)


def test_sugawara_eigenvalues_trivial():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=2)
    assert sugawara_l0(m) == (0, 1, 2)
    _assert_l0_is_the_closed_form(m)


def test_sugawara_eigenvalues_hw2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    l0 = sugawara_l0(m)
    assert l0[0] == -1
    assert l0[1] == 0
    columns = helpers.sugawara_columns(m)
    assert len(m.degree_range(1)) == 9
    for idx in m.degree_range(1):
        assert columns[idx] == {}


def test_sugawara_complex_kappa():
    m = _sl2(hw=2, kappa=ComplexRational(-1, 1), depth=1)
    l0 = sugawara_l0(m)
    assert l0[0] == ComplexRational(-1, -1)
    assert l0[1] == ComplexRational(0, -1)
    _assert_l0_is_the_closed_form(m)


def test_sugawara_sl3():
    m = build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 1)
    l0 = sugawara_l0(m)
    assert l0[0] == Fraction(-4, 3)
    assert l0[1] == Fraction(-1, 3)


@pytest.mark.parametrize("series, rank, hw, kappa, depth", [
    ("A", 1, [2], "-1", 3),
    ("A", 1, [1], "-1+1i", 3),
    ("A", 2, [1, 0], "-1", 2),
    ("A", 2, [0, 1], "-1+1i", 2),
    ("B", 2, [1, 0], "-1", 2),
])
def test_sugawara_matches_the_per_vector_oracle(series, rank, hw, kappa, depth):
    alg = build_algebra(series, rank)
    m = build_truncated(alg, alg.weight(hw), parse_scalar(kappa), depth)
    _assert_l0_is_the_closed_form(m)


def test_virasoro_commutation():
    assert virasoro_commutation_check(_sl2(hw=0, kappa=Fraction(-1), depth=2))
    assert virasoro_commutation_check(_sl2(hw=2, kappa=Fraction(-2), depth=2))
    m3 = build_truncated(SL3, SL3.weight([0, 0]), Fraction(-1), 1)
    assert virasoro_commutation_check(m3)


# the explicit benchmark grid
@pytest.mark.parametrize("series,rank,hw,kappa,depth", [
    ("A", 1, [2], "-2", 4),
    ("A", 1, [0], "-1", 5),
    ("A", 2, [1, 0], "-1", 2),
    ("A", 2, [1, 0], "-1+1i", 2),
    ("A", 2, [0, 0], "-3/2", 3),
])
def test_virasoro_check_matches_the_literal_commutator(series, rank, hw, kappa,
                                                       depth):
    algebra = build_algebra(series, rank)
    m = build_truncated(algebra, algebra.weight(hw), parse_scalar(kappa), depth)
    literal = helpers.virasoro_commutator_holds(m, helpers.sugawara_columns(m))
    assert virasoro_commutation_check(m) is literal is True


def test_virasoro_commutation_detects_a_degree_breaking_entry():
    # one entry of a mode-0 column moved from degree 1 to degree 2: that
    # operator no longer commutes with L0, whatever kind of scalar kappa is
    for kappa in (Fraction(-2), ComplexRational(-1, 1)):
        m = _sl2(hw=2, kappa=kappa, depth=2)
        _assert_l0_is_the_closed_form(m)
        l0_columns = helpers.sugawara_columns(m)
        degree_one = m.degree_range(1)
        cols, j = next((m.columns(p, 0), j) for p in range(m.cb.dim)
                       for j in degree_one if m.columns(p, 0).get(j))
        i = next(iter(cols[j]))
        assert i in degree_one
        cols[j][m.degree_range(2).start] = cols[j].pop(i)
        assert not virasoro_commutation_check(m), kappa
        assert not helpers.virasoro_commutator_holds(m, l0_columns), kappa


def test_no_singular_vectors_in_certified_module():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=3)
    for n in (1, 2, 3):
        assert singular_vectors(m, n) == []


def test_singular_vector_hw2_level_minus2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    [(weight, solutions, matched)] = singular_vectors(m, 1)
    assert weight == SL2.weight([0])
    # one line: 2 (e eps^-1) m_2 + (h eps^-1) m_1 - 2 (f eps^-1) m_0
    [sol] = solutions
    assert sol == {5: 2, 7: 1, 9: -2}
    assert matched is not None
    assert matched.n == 1
    assert matched.mu == (-1,)
    # found vectors really are killed by the raising modes
    for p in range(m.cb.dim):
        assert helpers.apply_to_vector(m, p, 1, dict(sol)) == {}


def test_singular_vectors_cover_only_candidate_weights():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    lam = SL2.weight([2]) + SL2.rho
    degree_one = {p.mu for p in candidate_pairs(lam, Fraction(-2), 1)
                  if p.n == 1}
    assert degree_one == {(-1,), (-2,)}
    # the candidate at mu = -2 alpha (weight -2) carries no actual vector
    assert [w.coords for w, _, _ in singular_vectors(m, 1)] == [(0,)]


def test_candidate_without_singular_vector_sl3():
    m = build_truncated(SL3, SL3.weight([0, 0]), Fraction(-1), 1)
    lam = SL3.weight([0, 0]) + SL3.rho
    assert any(p.n == 1 for p in candidate_pairs(lam, Fraction(-1), 1))
    assert singular_vectors(m, 1) == []


def test_singular_vector_degree_validation():
    m = _sl2(depth=2)
    with pytest.raises(ValueError):
        singular_vectors(m, 0)
    with pytest.raises(ValueError):
        singular_vectors(m, 3)
    for n in (0, 3):
        with pytest.raises(ValueError):
            singular_dimensions(m, n)


def _oracle_dimensions(m, n):
    """Per-weight kernel dimensions of the full solve with every raising mode."""
    return [(w, len(solutions), matched)
            for w, solutions, matched in singular_vectors(m, n)]


# rational, Gaussian and kappa = h-dual (k = 0) levels; the kernels sit at
# A1 (2) -2, at kappa = h-dual and at A1 (1) 3/2
@pytest.mark.parametrize("series,rank,hw,kappa,depth,found", [
    ("A", 1, [0], "-1/2", 4, 0),
    ("A", 1, [1], "-3/2", 4, 0),
    ("A", 1, [2], "-2", 4, 1),
    ("A", 1, [3], "-1+1i", 3, 0),
    ("A", 1, [0], "2", 4, 3),
    ("A", 1, [1], "3/2", 4, 4),
    ("A", 2, [1, 0], "-1", 3, 0),
    ("A", 2, [0, 0], "-3/2", 3, 0),
    ("A", 2, [1, 1], "-1+1i", 2, 0),
    ("A", 2, [0, 0], "3", 3, 7),
    ("B", 2, [1, 0], "-1/3", 2, 0),
    ("B", 2, [0, 0], "3", 2, 9),
    ("G", 2, [0, 0], "-1+1i", 2, 0),
    ("G", 2, [0, 1], "-1", 2, 0),
])
def test_singular_dimensions_match_the_full_solve(series, rank, hw, kappa, depth, found):
    algebra = build_algebra(series, rank)
    m = build_truncated(algebra, algebra.weight(hw), parse_scalar(kappa), depth)
    total = 0
    for n in range(1, depth + 1):
        got = singular_dimensions(m, n)
        assert got == _oracle_dimensions(m, n)
        total += len(got)
    assert total == found


def test_singular_dimensions_fall_back_when_p_divides_a_denominator(monkeypatch):
    # k = kappa - 2 = -(2p + 1)/p enters f_theta eps through the central term
    m = _sl2(hw=2, kappa=Fraction(-1, FILTER_PRIME), depth=3)
    verdicts = []
    real = explicit_module.independent_mod_p

    def spy(columns):
        verdicts.append(real(columns))
        return verdicts[-1]

    monkeypatch.setattr(explicit_module, "independent_mod_p", spy)
    for n in (1, 2, 3):
        assert singular_dimensions(m, n) \
            == _oracle_dimensions(m, n) == []
    # every dominant block meets the central term, so each is solved exactly
    assert verdicts and not any(verdicts)


# the modules of the explicit benchmark workload
_EXPLICIT_WORKLOAD = [
    ("A", 1, [2], "-2", 4),
    ("A", 1, [0], "-1", 5),
    ("A", 2, [1, 0], "-1", 2),
    ("A", 2, [0, 1], "-1", 2),
    ("A", 2, [1, 0], "-1+1i", 2),
    ("A", 2, [0, 1], "-1+1i", 2),
    ("A", 2, [0, 0], "-3/2", 3),
]


def test_matched_agrees_with_the_weight_level_oracle():
    # every weight of every degree, so the oracle's W-orbit fallback runs
    # wherever a degree has candidates but none with lambda + mu = weight +
    # rho; _matched has no fallback, and the two must still agree
    fallbacks = 0
    for series, rank, hw, kappa, depth in _EXPLICIT_WORKLOAD + [
        ("B", 2, [1, 0], "-1", 2),
        ("B", 2, [0, 1], "-3/2", 2),
        ("G", 2, [1, 0], "-1", 2),
        ("G", 2, [0, 0], "-1/2", 2),
    ]:
        algebra = build_algebra(series, rank)
        m = build_truncated(algebra, algebra.weight(hw), parse_scalar(kappa), depth)
        lam = m.m_hw + algebra.rho
        for n in range(1, depth + 1):
            shifted = {lam + helpers.root_weight(algebra, p.mu)
                       for p in m.scan.candidates if p.n == n}
            for w in sorted({m.weights[idx] for idx in m.degree_range(n)}):
                weight = algebra.weight(w)
                got = explicit_module._matched(m, w, n)
                assert got == helpers.matched_candidate(m, weight, n), (hw, kappa, n, w)
                fallbacks += bool(shifted) and weight + algebra.rho not in shifted
    assert fallbacks > 0


def test_annihilator_v1_trivial():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=4)
    v1 = annihilator_level(m, 1)
    assert v1.order == 1 and v1.window == 3
    assert v1.dims_by_degree == {0: 1}
    assert v1.dimension == 1


def test_annihilator_v2_trivial():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=4)
    v2 = annihilator_level(m, 2)
    assert v2.window == 2
    assert v2.dims_by_degree == {0: 1, 1: 3}
    # degrees below the order are contained entirely
    assert v2.dims_by_degree[1] == m.degree_dim(1)


def test_annihilator_v1_contains_singular_vector():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=3)
    v1 = annihilator_level(m, 1)
    assert v1.dims_by_degree == {0: 3, 1: 1}
    sol = singular_vectors(m, 1)[0][1][0]
    assert v1.span_contains(1, dict(sol))
    assert not v1.span_contains(1, {m.degree_range(1).start: Fraction(1)})


def test_annihilators_are_nested():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=4)
    v1 = annihilator_level(m, 1)
    v2 = annihilator_level(m, 2)
    for d, vec in v1.vectors:
        if d <= v2.window:
            assert v2.span_contains(d, vec)


def test_annihilator_validation():
    m = _sl2(depth=2)
    with pytest.raises(ValueError):
        annihilator_level(m, 0)
    with pytest.raises(ValueError):
        annihilator_level(m, 3)


def test_kl_sequence_order_one_edge():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=3)
    ok, diag = check_kl_exact_sequence(m, 1)
    assert ok
    assert diag["dim_V1"] == diag["dim_Vorder"] == diag["dim_kernel"]


def test_kl_sequence_trivial_order_two():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=4)
    ok, diag = check_kl_exact_sequence(m, 2)
    assert ok
    assert diag == {
        "window": 2,
        "dim_V1": 1,
        "dim_Vorder": 4,
        "dim_kernel": 1,
        "kernel_equals_V1": True,
        "image_in_Vprev": True,
        "equivariant": True,
        "g_stable": True,
    }


def test_kl_sequence_hw2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=3)
    ok, diag = check_kl_exact_sequence(m, 2)
    assert ok
    assert diag["kernel_equals_V1"]
    assert diag["window"] == 1


def test_kl_sequence_window_validation():
    m = _sl2(depth=2)
    with pytest.raises(ValueError):
        check_kl_exact_sequence(m, 3)
    with pytest.raises(ValueError):
        check_kl_exact_sequence(m, 0)


def _same_span(vectors_a, vectors_b):
    span_a, span_b = SpanBuilder(), SpanBuilder()
    for v in vectors_a:
        span_a.add(v)
    for v in vectors_b:
        span_b.add(v)
    return (span_a.rank() == span_b.rank()
            and all(span_a.contains(v) for v in vectors_b))


@pytest.mark.parametrize("series, rank, hw, kappa, depth, orders", [
    ("A", 1, [0], "-1", 5, (1, 2, 3)),
    ("A", 1, [2], "-2", 4, (1, 2, 3)),
    ("A", 1, [2], "-2", 5, (1, 2)),
    ("A", 2, [1, 0], "-1", 3, (1, 2)),
    ("B", 2, [1, 0], "-1", 2, (1, 2)),
    ("G", 2, [0, 1], "-1", 2, (1, 2)),
    # p = FILTER_PRIME divides a denominator: every block is solved exactly
    ("A", 1, [2], "-1/1000000009", 4, (1, 2, 3)),
])
def test_annihilator_matches_the_all_degrees_solve(series, rank, hw, kappa,
                                                   depth, orders):
    # U+_order generates every U+_e with e >= order, so the degree-order
    # monomials cut out the same V(order) as those of every degree
    alg = build_algebra(series, rank)
    m = build_truncated(alg, alg.weight(hw), parse_scalar(kappa), depth)
    for order in orders:
        level = annihilator_level(m, order)
        oracle = helpers.annihilator_all_degrees(m, order)
        assert level.dims_by_degree == {d: len(vs) for d, vs in oracle.items() if vs}
        for d, vectors in oracle.items():
            assert _same_span([v for e, v in level.vectors if e == d], vectors)


def test_annihilator_solves_only_blocks_the_filter_leaves(monkeypatch):
    filtered, proved, solved = [], [], []
    real_filter = explicit_module.independent_mod_p
    real_solve = explicit_module.nullspace_of_columns

    def filter_spy(columns):
        filtered.append(columns)
        if real_filter(columns):
            proved.append(columns)
            return True
        return False

    def solve_spy(columns):
        solved.append(columns)
        return real_solve(columns)

    monkeypatch.setattr(explicit_module, "independent_mod_p", filter_spy)
    monkeypatch.setattr(explicit_module, "nullspace_of_columns", solve_spy)
    m = build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 3)
    for order in (1, 2):
        annihilator_level(m, order)
    # every block meets the filter first, and only the blocks it does not
    # prove kernel-free reach the exact solve
    assert proved
    assert len(filtered) == len(proved) + len(solved)
    assert not any(c is p for c in solved for p in proved)
    assert all(real_solve(c) == [] for c in proved)


def test_module_json_shape_and_determinism():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    d = module_json_dict(m)
    assert d["schema"] == "weylmod.truncated_module.v1"
    assert d["algebra"] == {"series": "A", "rank": 1}
    assert d["m_hw"] == ["2"]
    assert d["kappa"] == "-2"
    assert d["k_scalar"] == "-4"
    assert d["generators"] == ["e", "h", "f"]
    assert [lvl["dimension"] for lvl in d["degrees"]] == [3, 9]
    modes = {(a["generator"], a["mode"]) for a in d["actions"]}
    assert modes == {(g, m_) for g in "ehf" for m_ in (-1, 0, 1)}
    blob1 = json.dumps(d, sort_keys=True, indent=2)
    blob2 = json.dumps(module_json_dict(m), sort_keys=True, indent=2)
    assert blob1 == blob2


def test_module_json_entries_match_action():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=1)
    d = module_json_dict(m, modes=[1])
    (action,) = [a for a in d["actions"] if a["generator"] == "e"]
    assert action["mode"] == 1 and action["partial"] is False
    (block,) = [b for b in action["blocks"] if b["source_degree"] == 1]
    src, tgt = m.degree_range(1), m.degree_range(0)
    expect = sorted([i - tgt.start, j - src.start, format_scalar(v)]
                    for j, col in act(m, "e", 1).items() if j in src
                    for i, v in col.items())
    assert expect
    assert block["entries"] == expect
    assert block["target_degree"] == 0
    # act, apply_to_vector and the JSON entries read one store
    for m in (
        _sl2(hw=2, kappa=Fraction(-2), depth=2),
        _sl2(hw=1, kappa=ComplexRational(-1, 1), depth=2),
        build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1, 2), 1),
        build_truncated(SL3, SL3.weight([0, 1]), ComplexRational(-1, 1), 1),
    ):
        _assert_action_forms_agree(m)


def _assert_action_forms_agree(m):
    d = module_json_dict(m)
    for action in d["actions"]:
        mode = action["mode"]
        cols = act(m, action["generator"], mode)
        p = m.generator_index(action["generator"])
        assert action["partial"] is (mode < 0)
        sources = [b["source_degree"] for b in action["blocks"]]
        assert sources == [n for n in range(m.depth + 1) if 0 <= n - mode <= m.depth]
        # the entries, parsed back to {source: {target: coeff}}, are act's columns
        parsed = {}
        for b in action["blocks"]:
            n, t = b["source_degree"], b["target_degree"]
            assert t == n - mode
            src, tgt = m.degree_range(n), m.degree_range(t)
            for i, j, v in b["entries"]:
                parsed.setdefault(src.start + j, {})[tgt.start + i] = parse_scalar(v)
        assert parsed == cols
        # and apply_to_vector on each unit vector gives its column
        for n in sources:
            for idx in m.degree_range(n):
                assert helpers.apply_to_vector(m, p, mode, {idx: 1}) \
                    == cols.get(idx, {})


def test_module_json_marks_partial_modes():
    m = _sl2(hw=0, depth=1)
    d = module_json_dict(m)
    by_mode = {(a["generator"], a["mode"]): a for a in d["actions"]}
    assert by_mode[("e", -1)]["partial"] is True
    assert by_mode[("e", 0)]["partial"] is False


def test_complex_kappa_json_scalars():
    m = _sl2(hw=0, kappa=ComplexRational(-1, 1), depth=1)
    d = module_json_dict(m, modes=[0])
    assert d["kappa"] == "-1+1 i"
    assert d["k_scalar"] == "-3+1 i"


def _walk(value):
    """The scalar value, checked to be exact and never float."""
    assert isinstance(value, (int, Fraction, ComplexRational)), value
    if isinstance(value, ComplexRational):
        assert not isinstance(value.re, float) and not isinstance(value.im, float)
    return value


# the explicit benchmark grid, plus kappa = h-dual
@pytest.mark.parametrize("series,rank,hw,kappa,depth", [
    ("A", 1, [2], "-2", 4),
    ("A", 1, [0], "-1", 5),
    ("A", 2, [1, 0], "-1", 2),
    ("A", 2, [1, 0], "-1+1i", 2),
    ("A", 2, [0, 0], "-3/2", 3),
    ("A", 1, [0], "2", 2),
])
def test_scalars_are_exact_and_integral_entries_are_ints(series, rank, hw, kappa,
                                                         depth):
    algebra = build_algebra(series, rank)
    m = build_truncated(algebra, algebra.weight(hw), parse_scalar(kappa), depth)
    store = [v for p in range(m.cb.dim) for mode in range(-depth, depth + 1)
             for col in m.columns(p, mode).values() for v in col.values()]
    assert store
    for v in map(_walk, store):
        # an integral entry is an int; a complex one has a nonzero i part
        if isinstance(v, Fraction):
            assert v.denominator != 1, v
        if isinstance(v, ComplexRational):
            assert v.im and all(type(c) is int or c.denominator != 1
                                for c in (v.re, v.im)), v
    if scalar_re(m.k_scalar).denominator == 1 == scalar_im(m.k_scalar).denominator:
        # M is minuscule or g = sl2 here, so only k can bring a denominator
        assert all(type(c) is int for v in store
                   for c in ((v.re, v.im) if isinstance(v, ComplexRational) else (v,)))
    for xi in m.l0:
        _walk(xi)
    _assert_l0_is_the_closed_form(m)
    for n in range(1, depth + 1):
        for _, solutions, _ in singular_vectors(m, n):
            for vec in solutions:
                for v in vec.values():
                    _walk(v)
    for _, vec in m.annihilator(1).vectors:
        for v in vec.values():
            _walk(v)
