"""Graded symmetric algebra of copies of the adjoint representation.

The degree-n level of an induced module Ind(M) is M (x) S(ad)_n as a
g-module, where S(ad) is the symmetric algebra on one copy of g in each
positive degree k (the image of g t^{-k}).  The levels are expanded in the
representation ring R(g), on the basis of irreducibles, by

    n [S_n] = sum_{d=1..n} [P_d] [S_{n-d}],   P_d = sum_{j|d} (d/j) psi^j(ad).

Proof note.  The Adams operation psi^j maps e^mu to e^{j mu}, so
psi^j(ad) = sum_gamma m_gamma e^{j gamma} over the weights gamma of ad; it
is W-invariant, the character of a virtual g-module.  The character of
S(ad) is H = prod_{k>=1} prod_gamma (1 - q^k e^gamma)^{-m_gamma}, so
log H = sum_{k,j>=1} psi^j(ad) q^{kj} / j and q dH/dq = H sum_d P_d q^d
(put d = kj): comparing the coefficients of q^n gives the identity among
W-invariant characters (Newton's identity, as in Moody-Patera, Bull. AMS
1982), and as the character map is a ring isomorphism from R(g) onto them,
it holds in R(g).  Brauer's rule needs only the W-invariance of V, not
positive multiplicities: ch V A_{lam+rho} = sum_mu m_mu A_{lam+rho+mu} for
the alternants A_nu = sum_w (-1)^w e^{w nu}, and A_nu / A_rho is
(-1)^w ch L(w nu - rho) for the w making w nu dominant, or 0 when nu is
singular.  So each product psi^j(ad) [L(lam)] is one call of
finite_rep.brauer_klimyk, memoised per (lam, j).  The right side is then an
integer combination of irreducibles equal to n [S_n], whose coefficients
are natural numbers, so each divides exactly by n; the quotient is checked.
No level is a weight map, and no orbit of a level is walked.
"""

from __future__ import annotations

from functools import lru_cache

from .finite_rep import (
    DecompositionMultiset,
    brauer_klimyk,
    irrep_character,
    irrep_dimension,
    weyl_dimension,
)
from .invariant import check
from .root_system import AlgebraData, Weight


@lru_cache(maxsize=None)
def sym_ad_graded(algebra: AlgebraData, n_max: int) -> tuple:
    """S(ad) by total degree: the tuple of the DecompositionMultisets of
    levels 0..n_max, by the recursion in R(g).

    The truncation is prefix-stable: level n is computed from levels 0..n-1
    alone, so for n <= n_max item n of sym_ad_graded(algebra, n_max) equals
    item n of sym_ad_graded(algebra, n).  A caller that needs several
    degrees expands S(ad) once, to the largest of them, and indexes the
    others.  The result is cached and shared by every caller, so it is a
    tuple, and each level gives only a read-only view of its constituents.
    Each level's dimension is checked against the q^n coefficient a(n) of
    prod_k (1 - q^k)^{-dim g}, by the Euler transform
    n a(n) = sum_k dim g sigma(k) a(n - k), sigma(k) the sum of divisors of k.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # the weights of ad: 0 with multiplicity rank, and each of +-alpha once
    roots = algebra.roots_fw if n_max else ()
    ad = [((0,) * algebra.rank, algebra.rank)] + [(a, 1) for a in roots]
    ad += [(tuple(-x for x in a), 1) for a in roots]
    # psi[j]: the (weight, multiplicity) pairs of psi^j(ad)
    psi = [[(tuple(j * g for g in gamma), m) for gamma, m in ad]
           for j in range(n_max + 1)]
    memo = {}  # (lam, j) -> brauer_klimyk of psi^j(ad) L(lam), keyed by t + rho
    sigma = [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(n_max + 1)]
    dims = [1]
    levels = [DecompositionMultiset(algebra, {(0,) * algebra.rank: 1})]
    for n in range(1, n_max + 1):
        total = {}
        for j in range(1, n + 1):
            # psi^j(ad) times sum_t t [S_{n - jt}], the terms with d = jt
            coeff = {}
            for t in range(1, n // j + 1):
                for lam, m in levels[n - t * j].mults.items():
                    coeff[lam] = coeff.get(lam, 0) + t * m
            for lam, c in coeff.items():
                if (lam, j) not in memo:
                    memo[lam, j] = brauer_klimyk(algebra, psi[j], lam)
                for key, k in memo[lam, j].items():
                    total[key] = total.get(key, 0) + c * k
        level = {}
        for key, v in total.items():
            h, r = divmod(v, n)
            check(r == 0 and h >= 0,
                  "S(ad) level %d multiplicity is not a natural number", n)
            level[tuple(x - 1 for x in key)] = h
        levels.append(DecompositionMultiset(algebra, level))
        dims.append(sum(algebra.dim * sigma[k] * dims[n - k]
                        for k in range(1, n + 1)) // n)
        dim = levels[n].dimension()
        check(dim == dims[n],
              "S(ad) level %d has dimension %d, not %d", n, dim, dims[n])
    return tuple(levels)


def tensor_coefficients(algebra: AlgebraData, m_hw: Weight, mus) -> dict:
    """{mu: the brauer_klimyk coefficients of L(m_hw) (x) L(mu)} for dominant
    int tuples mu, each a {t + rho: multiplicity} checked nonnegative.

    Each product walks the weights of the factor of smaller dimension, ties
    going to L(m_hw), whose weights are built at most once per call.
    """
    dim_m = weyl_dimension(algebra, m_hw)
    top = tuple(map(int, m_hw.coords))
    m_weights = None
    out = {}
    for mu in mus:
        if dim_m <= irrep_dimension(algebra, mu):
            if m_weights is None:
                m_weights = irrep_character(algebra, m_hw).full_map().items()
            coeffs = brauer_klimyk(algebra, m_weights, mu)
        else:
            weights = irrep_character(algebra, algebra.weight(mu)).full_map()
            coeffs = brauer_klimyk(algebra, weights.items(), top)
        check(all(c >= 0 for c in coeffs.values()),
              "negative tensor multiplicity in L(%r) (x) L(%r)", top, mu)
        out[mu] = coeffs
    return out


def weyl_level_decomposition(
    algebra: AlgebraData, m_hw: Weight, n: int
) -> DecompositionMultiset:
    """Irreducible decomposition of the degree-n level of Ind(L(m_hw)):
    the sum over the constituents m L(lam) of S(ad)_n of m L(m_hw) (x) L(lam)."""
    level = sym_ad_graded(algebra, n)[n].mults
    out = {}
    for lam, coeffs in tensor_coefficients(algebra, m_hw, level).items():
        for t, k in coeffs.items():
            if k:
                c = tuple(x - 1 for x in t)
                out[c] = out.get(c, 0) + level[lam] * k
    return DecompositionMultiset(algebra, out)
