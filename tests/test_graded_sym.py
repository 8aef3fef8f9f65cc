"""Tests for symmetric powers of the adjoint and the level characters."""

from fractions import Fraction

import pytest

from helpers import (
    adams_product_full_map, adjoint_character, character_product,
    decomposition_character, sym_ad_full_maps, sym_powers,
)
from weylmod import finite_rep, graded_sym
from weylmod.finite_rep import (
    Character, DecompositionMultiset, brauer_klimyk,
    decompose_character, irrep_character, tensor_decompose,
)
from weylmod.graded_sym import (
    sym_ad_graded, tensor_coefficients, weyl_level_decomposition,
)
from weylmod.invariant import InvariantError
from weylmod.root_system import build_algebra


def _gf_dims(dim_g, n_max):
    """Coefficients of prod_{k>=1} (1 - q^k)^{-dim g} up to q^n_max.

    Independent oracle: the graded dimension of the symmetric algebra of
    g (x) eps^{-1} C[eps^{-1}] counts monomials by total eps-degree.
    """
    coeffs = [Fraction(0)] * (n_max + 1)
    coeffs[0] = Fraction(1)
    for k in range(1, n_max + 1):
        # multiply by (1 - q^k)^{-dim_g} term by term via the binomial series
        new = [Fraction(0)] * (n_max + 1)
        for base in range(n_max + 1):
            if not coeffs[base]:
                continue
            j = 0
            binom = Fraction(1)
            while base + j * k <= n_max:
                new[base + j * k] += coeffs[base] * binom
                j += 1
                binom = binom * (dim_g + j - 1) / j
        coeffs = new
    return [int(c) for c in coeffs]


def _dims(levels):
    return [c.dimension() for c in levels]


def test_sl2_sym_ad_dims_match_generating_function():
    sl2 = build_algebra("A", 1)
    dims = _dims(sym_ad_graded(sl2, 6))
    assert dims == _gf_dims(3, 6)
    assert dims == [1, 3, 9, 22, 51, 108, 221]


def test_sl3_sym_ad_dims_match_generating_function():
    sl3 = build_algebra("A", 2)
    assert _dims(sym_ad_graded(sl3, 8)) == _gf_dims(8, 8)


def test_other_ranks_sym_ad_dims_match_generating_function():
    for series, rank, n_max in (("A", 3, 4), ("B", 2, 6), ("G", 2, 5)):
        a = build_algebra(series, rank)
        assert _dims(sym_ad_graded(a, n_max)) == _gf_dims(a.dim, n_max)


def test_sym_powers_newton_identity():
    sl2 = build_algebra("A", 1)
    v2 = irrep_character(sl2, sl2.weight([2]))
    sym = sym_powers(v2, 3)
    assert [s.dimension() for s in sym] == [1, 3, 6, 10]
    # Sym^2 V(2) = V(4) + V(0), Sym^3 V(2) = V(6) + V(2)
    for m, tops in ((2, (4, 0)), (3, (6, 2))):
        expected = DecompositionMultiset(sl2, {(t,): 1 for t in tops})
        assert decompose_character(sym[m]) == expected
        assert sym[m] == decomposition_character(expected)


@pytest.mark.parametrize("series,rank,n_max", [
    ("A", 1, 8), ("A", 2, 8),
    ("A", 3, 4), ("B", 3, 4), ("C", 3, 4),
    ("B", 2, 6), ("G", 2, 6), ("D", 4, 6),
    ("F", 4, 2), ("E", 6, 2),
])
def test_dominant_recursion_matches_full_map_convolution(series, rank, n_max):
    """The character of every level of the recursion in R(g) against the
    Sym-power and truncated-convolution product on full weight maps."""
    a = build_algebra(series, rank)
    levels = sym_ad_graded(a, n_max)
    oracle = sym_ad_full_maps(a, n_max)
    assert len(levels) == n_max + 1
    for n, (level, full) in enumerate(zip(levels, oracle)):
        char = decomposition_character(level)
        assert char.dominant == {c: m for c, m in full.items() if min(c) >= 0}, n
        assert char.full_map() == full, n
        assert level.dimension() == sum(full.values())


def test_adams_products_match_full_map_oracle():
    """brauer_klimyk's psi^j(ad) L(lam), the product the recursion reads,
    against the full-map product.  The product is virtual, so the kernel's
    negative part N is moved to the other side: the full-map product plus
    ch N decomposes as the kernel's positive part."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def case(draw):
        series, rank = draw(st.sampled_from([("A", 2), ("B", 2), ("G", 2)]))
        lam = tuple(draw(st.integers(0, 3)) for _ in range(rank))
        return build_algebra(series, rank), draw(st.integers(1, 3)), lam

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(case())
    def check(c):
        a, j, lam = c
        psi = [(tuple(j * g for g in gamma), m)
               for gamma, m in adjoint_character(a).full_map().items()]
        signed = {tuple(x - 1 for x in t): m
                  for t, m in brauer_klimyk(a, psi, lam).items()}
        pos = DecompositionMultiset(a, {w: m for w, m in signed.items() if m > 0})
        neg = DecompositionMultiset(a, {w: -m for w, m in signed.items() if m < 0})
        total = adams_product_full_map(a, j, lam)
        for w, m in decomposition_character(neg).full_map().items():
            total[w] = total.get(w, 0) + m
        dominant = {w: m for w, m in total.items() if min(w) >= 0}
        assert decompose_character(Character(a, dominant)) == pos

    check()


_ALL_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _ALL_UP_TO_RANK_8)
def test_ad_weights_read_off_the_roots_are_the_adjoint_character(series, rank, monkeypatch):
    # S(ad)_1 is psi^1(ad) L(0), one brauer_klimyk call on the weights of ad;
    # they must be the weight map of L(theta) by Freudenthal
    a = build_algebra(series, rank)
    seen = []

    def spy(algebra, weights, lam):
        seen.append(list(weights))
        return brauer_klimyk(algebra, seen[-1], lam)

    monkeypatch.setattr(graded_sym, "brauer_klimyk", spy)
    level = sym_ad_graded.__wrapped__(a, 1)[1]
    assert len(seen) == 1
    weights = {}
    for w, m in seen[0]:
        weights[w] = weights.get(w, 0) + m
    assert weights == adjoint_character(a).full_map()
    assert level.mults == {a.roots_fw[-1]: 1}


def test_level_dimensions_are_checked_by_the_euler_transform(monkeypatch):
    # a level whose dimension is not the q^n coefficient of
    # prod (1 - q^k)^-dim g is an InvariantError, which python -O keeps
    sl3 = build_algebra("A", 2)
    real = finite_rep.irrep_dimension
    monkeypatch.setattr(finite_rep, "irrep_dimension",
                        lambda alg, c: real(alg, c) + (c == (1, 1)))
    sym_ad_graded.cache_clear()
    try:
        with pytest.raises(InvariantError, match="level 1 has dimension 9, not 8"):
            sym_ad_graded(sl3, 2)
    finally:
        sym_ad_graded.cache_clear()


def test_sl2_level_two_decomposition():
    sl2 = build_algebra("A", 1)
    dec = weyl_level_decomposition(sl2, sl2.weight([0]), 2)
    assert dec.mults == {(0,): 1, (2,): 1, (4,): 1}
    assert dec.dimension() == 9
    assert dec.length() == 3


def test_level_character_is_product():
    sl2 = build_algebra("A", 1)
    hw = sl2.weight([2])
    level = decomposition_character(sym_ad_graded(sl2, 2)[2])
    lvl = character_product(irrep_character(sl2, hw), level)
    assert lvl.dimension() == 27
    dec = weyl_level_decomposition(sl2, hw, 2)
    assert decomposition_character(dec) == lvl
    # tensoring with M preserves total dimension
    assert dec.dimension() == 27


def test_sl3_level_one_is_adjoint_tensor_m():
    sl3 = build_algebra("A", 2)
    hw = sl3.weight([1, 0])
    dec = weyl_level_decomposition(sl3, hw, 1)
    expect = tensor_decompose(sl3.weight([1, 1]), irrep_character(sl3, hw))
    assert dec == expect
    assert dec.dimension() == 24


def test_tensor_coefficients_match_tensor_decompose():
    # mu smaller than M, larger than M, and of equal dimension (the tie):
    # either factor walked gives the product that tensor_decompose gives
    g2 = build_algebra("G", 2)
    m_hw = g2.weight([1, 0])
    mus = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    products = tensor_coefficients(g2, m_hw, mus)
    assert list(products) == mus
    for mu in mus:
        expect = tensor_decompose(g2.weight(mu), irrep_character(g2, m_hw))
        got = {tuple(x - 1 for x in t): k for t, k in products[mu].items() if k}
        assert got == expect.mults
    with pytest.raises(ValueError, match="highest weight must be"):
        tensor_coefficients(g2, g2.weight([Fraction(1, 2), 0]), mus)


def test_level_zero_is_m_itself():
    sl3 = build_algebra("A", 2)
    hw = sl3.weight([2, 1])
    dec = weyl_level_decomposition(sl3, hw, 0)
    assert dec.items() == [((2, 1), 1)]


def test_negative_degree_rejected():
    sl2 = build_algebra("A", 1)
    with pytest.raises(ValueError):
        weyl_level_decomposition(sl2, sl2.weight([0]), -1)


def test_cached_levels_cannot_be_mutated():
    # sym_ad_graded is cached, so every caller shares one result: neither
    # rebinding its levels nor writing through a level's constituents may
    # change what the next caller reads
    sl3 = build_algebra("A", 2)
    graded = sym_ad_graded(sl3, 2)
    with pytest.raises(AttributeError):
        graded.levels = graded[:2]
    with pytest.raises(TypeError):
        graded[2] = graded[1]
    with pytest.raises(TypeError):
        graded[1].mults[0, 0] = 5
    again = sym_ad_graded(sl3, 2)
    assert again is graded
    assert _dims(again) == [1, 8, 44]
