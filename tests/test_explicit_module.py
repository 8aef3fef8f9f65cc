"""Tests for the truncated PBW realization and its brute-force oracles."""

import json
from fractions import Fraction

import pytest

from weylmod.affine_numerics import candidate_pairs
from weylmod.explicit_module import (
    DEPTH_CAP_ENV,
    ActionMatrix,
    act,
    annihilator_level,
    build_truncated,
    check_kl_exact_sequence,
    depth_cap,
    module_json_dict,
    monomials_of_degree,
    singular_vectors,
    sugawara_l0,
    virasoro_commutation_check,
)
from weylmod.graded_sym import sym_ad_graded
from weylmod.rational import ComplexRational, parse_scalar
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
    sym = sym_ad_graded(SL2, 2).dims()
    assert [m2.degree_dim(n) for n in range(3)] == [3 * s for s in sym]


def test_degree_bookkeeping():
    m = _sl2(hw=2, depth=2)
    assert m.dim == 3 + 9 + 27
    # the action store is built; the straightening memos are not kept
    assert not hasattr(m, "_opmemo") and not hasattr(m, "_lmmemo")
    for n in range(3):
        for idx in m.degree_range(n):
            assert m.degree_of(idx) == n
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
    mat = act(m, "K", 0)
    assert isinstance(mat, ActionMatrix)
    assert not mat.partial
    for n in (0, 1):
        block = mat.block(n)
        d = m.degree_dim(n)
        for i in range(d):
            for j in range(d):
                assert block[i][j] == (m.k_scalar if i == j else 0)
    with pytest.raises(ValueError):
        act(m, "K", 1)


def test_store_holds_no_zero_at_dual_coxeter_level():
    # kappa = h-dual: K acts by 0, so every central term vanishes
    for algebra, hw in ((SL2, [0]), (SL3, [0, 0])):
        m = build_truncated(algebra, algebra.weight(hw), algebra.dual_coxeter, 2)
        assert m.k_scalar == 0
        for p in range(m.cb.dim):
            for mode in range(-2, 3):
                for col in m.columns(p, mode).values():
                    assert col and all(col.values())
        assert sugawara_l0(m).is_scalar_by_degree()


def test_zero_mode_cartan_is_diagonal_with_weights():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    mat = act(m, "h", 0)
    for n in (0, 1):
        block = mat.block(n)
        rng = m.degree_range(n)
        for c, idx in enumerate(rng):
            for r in range(len(rng)):
                want = m.weights[idx].coords[0] if r == c else 0
                assert block[r][c] == want


def test_negative_mode_is_partial_positive_is_not():
    m = _sl2(hw=0, depth=2)
    lower = act(m, "e", -1)
    assert lower.partial
    assert 2 not in lower.source_degrees
    raise_ = act(m, "f", 1)
    assert not raise_.partial
    assert list(raise_.source_degrees) == [0, 1, 2]
    with pytest.raises(ValueError):
        lower.block(2)
    with pytest.raises(ValueError):
        act(m, "e", 3)
    # the image of a top-degree vector under a lowering mode leaves the truncation
    top = m.degree_range(2).start
    with pytest.raises(ValueError):
        m.apply_generator(0, -1, top)
    with pytest.raises(ValueError):
        m.apply_to_vector(0, -1, {top: Fraction(1)})
    assert m.apply_generator(0, 3, top) == {}


def _commutator_check(m, pairs_of_modes):
    """[x eps^a, y eps^b] == [x,y] eps^{a+b} + a delta_{a,-b} (x,y) K."""
    cb = m.cb
    for a, b in pairs_of_modes:
        for n in range(m.depth + 1):
            if max(n - a, n - b, n - a - b) > m.depth:
                continue
            for idx in m.degree_range(n):
                v = {idx: Fraction(1)}
                for p in range(cb.dim):
                    for q in range(cb.dim):
                        lhs = m.apply_to_vector(p, a, m.apply_to_vector(q, b, v))
                        for t, c in m.apply_to_vector(
                            q, b, m.apply_to_vector(p, a, v)
                        ).items():
                            lhs[t] = lhs.get(t, Fraction(0)) - c
                        rhs = {}
                        for k, ck in cb.bracket_list(p, q):
                            for t, c in m.apply_to_vector(k, a + b, v).items():
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


def test_sugawara_eigenvalues_trivial():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=2)
    l0 = sugawara_l0(m)
    assert [l0.eigenvalue(n) for n in range(3)] == [0, 1, 2]
    assert l0.is_scalar_by_degree()


def test_sugawara_eigenvalues_hw2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    l0 = sugawara_l0(m)
    assert l0.eigenvalue(0) == -1
    assert l0.eigenvalue(1) == 0
    block = l0.block(1)
    for i in range(9):
        for j in range(9):
            assert block[i][j] == 0


def test_sugawara_complex_kappa():
    m = _sl2(hw=2, kappa=ComplexRational(-1, 1), depth=1)
    l0 = sugawara_l0(m)
    assert l0.eigenvalue(0) == ComplexRational(-1, -1)
    assert l0.eigenvalue(1) == ComplexRational(0, -1)
    assert l0.is_scalar_by_degree()


def test_sugawara_sl3():
    m = build_truncated(SL3, SL3.weight([1, 0]), Fraction(-1), 1)
    l0 = sugawara_l0(m)
    assert l0.eigenvalue(0) == Fraction(-4, 3)
    assert l0.eigenvalue(1) == Fraction(-1, 3)


def test_virasoro_commutation():
    assert virasoro_commutation_check(_sl2(hw=0, kappa=Fraction(-1), depth=2))
    assert virasoro_commutation_check(_sl2(hw=2, kappa=Fraction(-2), depth=2))
    m3 = build_truncated(SL3, SL3.weight([0, 0]), Fraction(-1), 1)
    assert virasoro_commutation_check(m3, max_mode=1)


def test_no_singular_vectors_in_certified_module():
    m = _sl2(hw=0, kappa=Fraction(-1), depth=3)
    for n in (1, 2, 3):
        assert singular_vectors(m, n) == []


def test_singular_vector_hw2_level_minus2():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    reports = singular_vectors(m, 1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.degree == 1
    assert rep.weight.coords == (0,)
    assert len(rep.basis_of_solutions) == 1
    sol = rep.basis_of_solutions[0]
    # one line: 2 (e eps^-1) m_2 + (h eps^-1) m_1 - 2 (f eps^-1) m_0
    assert sol == {5: 2, 7: 1, 9: -2}
    assert rep.matched_candidate is not None
    assert rep.matched_candidate.n == 1
    assert rep.matched_candidate.mu.coords == (-1,)
    # found vectors really are killed by the raising modes
    for p in range(m.cb.dim):
        assert m.apply_to_vector(p, 1, dict(sol)) == {}


def test_singular_vectors_cover_only_candidate_weights():
    m = _sl2(hw=2, kappa=Fraction(-2), depth=1)
    lam = SL2.weight([2]) + SL2.rho
    degree_one = {p.mu.coords for p in candidate_pairs(lam, Fraction(-2), 1)
                  if p.n == 1}
    assert degree_one == {(-1,), (-2,)}
    reports = singular_vectors(m, 1)
    # the candidate at mu = -2 alpha (weight -2) carries no actual vector
    assert [r.weight.coords for r in reports] == [(0,)]


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
    sol = singular_vectors(m, 1)[0].basis_of_solutions[0]
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
    mat = act(m, "e", 1).block(1)
    expect = []
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                expect.append([i, j, str(v)])
    assert block["entries"] == expect
    assert block["target_degree"] == 0
    # act(...).block, apply_generator and the JSON entries read one store
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
        mat = act(m, action["generator"], action["mode"])
        p = m.generator_index(action["generator"])
        assert action["partial"] is mat.partial
        sources = [b["source_degree"] for b in action["blocks"]]
        assert sources == [n for n in mat.source_degrees if n >= mat.mode]
        for b in action["blocks"]:
            n, t = b["source_degree"], b["target_degree"]
            block = mat.block(n)
            src, tgt = m.degree_range(n), m.degree_range(t)
            dense = [[0] * len(src) for _ in tgt]
            for i, j, v in b["entries"]:
                dense[i][j] = parse_scalar(v)
            assert block == dense
            for j, idx in enumerate(src):
                column = {tgt.start + i: row[j] for i, row in enumerate(block) if row[j]}
                assert m.apply_generator(p, mat.mode, idx) == column


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
