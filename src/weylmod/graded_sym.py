"""Graded symmetric algebra of copies of the adjoint representation.

The degree-n level of an induced module Ind(M) is M (x) S(ad)^n as a
g-module, where S(ad) is the symmetric algebra on one copy of g in each
positive degree k (the image of g t^{-k}).  Levels are computed as exact
characters: Sym powers by the Adams/Newton recursion, the degree filtration
by truncated convolution over k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .finite_rep import (
    Character,
    DecompositionMultiset,
    adjoint_character,
    irrep_character,
    tensor_decompose,
)
from .invariant import check
from .root_system import AlgebraData, Weight


class GradedCharacter:
    """Characters level by level, degrees 0..n_max."""

    __slots__ = ("algebra", "levels")

    def __init__(self, algebra: AlgebraData, levels):
        self.algebra = algebra
        self.levels = list(levels)

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> Character:
        if not 0 <= n <= self.n_max:
            raise ValueError("degree %d outside computed range 0..%d" % (n, self.n_max))
        return self.levels[n]

    def dims(self):
        return [c.dimension() for c in self.levels]

    def __eq__(self, other):
        return (
            isinstance(other, GradedCharacter)
            and self.algebra == other.algebra
            and self.levels == other.levels
        )

    def __repr__(self):
        return "GradedCharacter(dims=%r)" % (self.dims(),)


def _adams(char: Character, k: int) -> dict:
    """Full map of the Adams operation psi^k: weight b -> k b."""
    n = char.algebra.rank
    out = {}
    for coords, m in char.full_map().items():
        key = tuple(k * c for c in coords)
        out[key] = out.get(key, 0) + m
    return out


def _full_to_character(algebra: AlgebraData, full: dict) -> Character:
    dom = {}
    for c, m in full.items():
        if all(x >= 0 for x in c):
            if m:
                dom[Weight(algebra, c)] = m
    return Character(algebra, dom)


def sym_powers(char: Character, m_max: int):
    """Characters of Sym^m(V) for m = 0..m_max by Newton's identity.

    m h_m = sum_{k=1}^{m} psi^k(chi) h_{m-k}, computed on full weight maps
    with Fraction intermediates; the results are integral.
    """
    algebra = char.algebra
    n = algebra.rank
    adams = {k: _adams(char, k) for k in range(1, m_max + 1)}
    h = [{(Fraction(0),) * n: Fraction(1)}]
    for m in range(1, m_max + 1):
        acc = {}
        for k in range(1, m + 1):
            pk = adams[k]
            hk = h[m - k]
            for ca, ma in pk.items():
                for cb, mb in hk.items():
                    key = tuple(ca[i] + cb[i] for i in range(n))
                    acc[key] = acc.get(key, 0) + ma * mb
        full = {}
        for c, v in acc.items():
            x = Fraction(v, m)
            if x:
                check(x.denominator == 1, "fractional multiplicity in Sym^%d", m)
                full[c] = int(x)
        h.append(full)
    return [_full_to_character(algebra, full) for full in h]


def _convolve_graded(levels_a, levels_b, n_max):
    out = []
    algebra = levels_a[0].algebra
    zero = Character(algebra, {})
    for nn in range(n_max + 1):
        acc = zero
        for i in range(nn + 1):
            j = nn - i
            if i < len(levels_a) and j < len(levels_b):
                ca, cb = levels_a[i], levels_b[j]
                if ca.dominant and cb.dominant:
                    acc = acc + ca * cb
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def sym_ad_graded(algebra: AlgebraData, n_max: int) -> GradedCharacter:
    """S(ad) by total degree: tensor over k of Sym(g t^{-k}), truncated."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ad = adjoint_character(algebra)
    one = Character(algebra, {Weight(algebra, (0,) * algebra.rank): 1})
    zero = Character(algebra, {})
    levels = [one] + [zero] * n_max
    for k in range(1, n_max + 1):
        syms = sym_powers(ad, n_max // k)
        # S(g t^-k) graded by degree: Sym^m sits in degree k*m
        factor = []
        for deg in range(n_max + 1):
            if deg % k == 0:
                factor.append(syms[deg // k])
            else:
                factor.append(zero)
        levels = _convolve_graded(levels, factor, n_max)
    return GradedCharacter(algebra, levels)


def weyl_level_character(algebra: AlgebraData, m_hw: Weight, n: int) -> Character:
    """Character of the degree-n level M (x) S(ad)^n of Ind(L(m_hw))."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    s = sym_ad_graded(algebra, n).level(n)
    m_char = irrep_character(algebra, m_hw)
    return m_char * s


def weyl_level_decomposition(
    algebra: AlgebraData, m_hw: Weight, n: int
) -> DecompositionMultiset:
    """Irreducible decomposition of the degree-n level of Ind(L(m_hw))."""
    s = sym_ad_graded(algebra, n).level(n)
    return tensor_decompose(m_hw, s)
