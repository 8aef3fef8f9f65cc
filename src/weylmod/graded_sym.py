"""Graded symmetric algebra of copies of the adjoint representation.

The degree-n level of an induced module Ind(M) is M (x) S(ad)^n as a
g-module, where S(ad) is the symmetric algebra on one copy of g in each
positive degree k (the image of g t^{-k}).  Levels are computed as exact
characters: Sym powers by the Adams/Newton recursion, the degree filtration
by truncated convolution over k.  As in finite_rep, the recursion runs on
int-tuple weight keys and int multiplicities; Weight objects appear only in
the returned Characters' public views.
"""

from __future__ import annotations

from functools import lru_cache

from .finite_rep import (
    Character,
    DecompositionMultiset,
    add_product,
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
    out = {}
    for coords, m in char.full_map().items():
        key = tuple(k * c for c in coords)
        out[key] = out.get(key, 0) + m
    return out


def sym_powers(char: Character, m_max: int):
    """Characters of Sym^m(V) for m = 0..m_max by Newton's identity.

    m h_m = sum_{k=1}^{m} psi^k(chi) h_{m-k}, computed on full weight maps
    in integers; each sum is checked to be divisible by m.
    """
    algebra = char.algebra
    adams = {k: _adams(char, k) for k in range(1, m_max + 1)}
    h = [{(0,) * algebra.rank: 1}]
    for m in range(1, m_max + 1):
        acc = {}
        for k in range(1, m + 1):
            add_product(acc, adams[k], h[m - k])
        full = {}
        for c, v in acc.items():
            q, r = divmod(v, m)
            check(r == 0 and q >= 0, "Sym^%d multiplicity is not a natural number", m)
            if q:
                full[c] = q
        h.append(full)
    return [Character.from_full_map(algebra, full) for full in h]


def _convolve_graded(levels_a, levels_b, n_max):
    """Degree-wise product of two graded full maps, truncated at n_max."""
    out = []
    for nn in range(n_max + 1):
        acc = {}
        for i in range(nn + 1):
            if levels_a[i] and levels_b[nn - i]:
                add_product(acc, levels_a[i], levels_b[nn - i])
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def sym_ad_graded(algebra: AlgebraData, n_max: int) -> GradedCharacter:
    """S(ad) by total degree: tensor over k of Sym(g t^{-k}), truncated.

    The truncation is prefix-stable: for n <= n_max, level n of
    sym_ad_graded(algebra, n_max) equals level n of sym_ad_graded(algebra, n).
    A factor Sym(g t^{-k}) with k > n lives in degrees 0 and >= k > n, so
    it contributes only its degree-0 unit to the levels up to n, and
    truncating each convolution at n_max rather than n drops only terms of
    degree > n.  So a caller that needs several degrees expands S(ad) once,
    to the largest of them, and reads the others with level(n).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ad = adjoint_character(algebra)
    levels = [{(0,) * algebra.rank: 1}] + [{}] * n_max
    for k in range(1, n_max + 1):
        syms = sym_powers(ad, n_max // k)
        # S(g t^-k) graded by degree: Sym^m sits in degree k*m
        factor = [
            syms[deg // k].full_map() if deg % k == 0 else {}
            for deg in range(n_max + 1)
        ]
        levels = _convolve_graded(levels, factor, n_max)
    return GradedCharacter(algebra, [Character.from_full_map(algebra, f) for f in levels])


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
