"""Tests for symmetric powers of the adjoint and the level characters."""

from fractions import Fraction

import pytest

from helpers import (
    character_product, decomposition_character, sym_ad_full_maps, sym_powers,
)
from weylmod.finite_rep import (
    DecompositionMultiset, decompose_character, irrep_character, tensor_decompose,
)
from weylmod.graded_sym import sym_ad_graded, weyl_level_decomposition
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
    """Every level of the dominant-key recursion against the Sym-power and
    truncated-convolution product on full weight maps."""
    a = build_algebra(series, rank)
    levels = sym_ad_graded(a, n_max)
    oracle = sym_ad_full_maps(a, n_max)
    assert len(levels) == n_max + 1
    for n, (level, full) in enumerate(zip(levels, oracle)):
        assert level.dominant == {c: m for c, m in full.items() if min(c) >= 0}, n
        assert level.full_map() == full, n
        assert level.dimension() == sum(full.values())


def test_sl2_level_two_decomposition():
    sl2 = build_algebra("A", 1)
    dec = weyl_level_decomposition(sl2, sl2.weight([0]), 2)
    assert dec.mults == {(0,): 1, (2,): 1, (4,): 1}
    assert dec.dimension() == 9
    assert dec.length() == 3


def test_level_character_is_product():
    sl2 = build_algebra("A", 1)
    hw = sl2.weight([2])
    lvl = character_product(irrep_character(sl2, hw), sym_ad_graded(sl2, 2)[2])
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
    # rebinding its levels nor writing through a level's weights may change
    # what the next caller reads
    sl3 = build_algebra("A", 2)
    graded = sym_ad_graded(sl3, 2)
    with pytest.raises(AttributeError):
        graded.levels = graded[:2]
    with pytest.raises(TypeError):
        graded[2] = graded[1]
    with pytest.raises(TypeError):
        graded[1].dominant[0, 0] = 5
    again = sym_ad_graded(sl3, 2)
    assert again is graded
    assert _dims(again) == [1, 8, 44]
