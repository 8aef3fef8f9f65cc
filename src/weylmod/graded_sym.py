"""Graded symmetric algebra of copies of the adjoint representation.

The degree-n level of an induced module Ind(M) is M (x) S(ad)_n as a
g-module, where S(ad) is the symmetric algebra on one copy of g in each
positive degree k (the image of g t^{-k}).  Its character is
H = sum_n H_n q^n = prod_{k>=1} prod_gamma (1 - q^k e^gamma)^{-m_gamma}, gamma
running over the weights of ad with multiplicities m_gamma, and the levels
come from one recursion on dominant weights beta:

    n H_n(beta) = sum_{d=1..n} sum_{j|d} (d/j) sum_gamma m_gamma
                  H_{n-d}(dom(beta - j gamma)).

Proof note.  log H = sum_{k,gamma,j>=1} m_gamma q^{kj} e^{j gamma} / j, so
q dH/dq = H P with P_d = sum_{j|d} (d/j) sum_gamma m_gamma e^{j gamma} (put
d = kj); compare the coefficients of q^n e^beta (Newton's identity, in the
spirit of Moody-Patera, "Fast recursion formula for weight multiplicities",
Bull. AMS 1982).  Each H_n is a character, hence W-invariant, so the lookup
at beta - j gamma may be made at its dominant point: the recursion reads and
writes dominant keys only.  The weights of S(ad)_n are sums of n weights of
ad, all <= n theta, so beta runs over the dominant weights <= n theta; one
call root_system.dominant_below(n_max theta) lists them for every level.
The dominant points come from root_system.dominant_coords, the one sparse
reflection kernel, and only for the shifts beta - j gamma below
(n_max - j) theta in the root order: any other one reads 0.  As in
finite_rep, keys are int tuples and multiplicities ints, in the levels and
in the DecompositionMultiset of weyl_level_decomposition.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import lcm
from operator import add, mul, sub

from .finite_rep import (
    Character,
    DecompositionMultiset,
    adjoint_character,
    tensor_decompose,
)
from .invariant import check
from .root_system import AlgebraData, Weight, dominant_below, dominant_coords


@lru_cache(maxsize=None)
def sym_ad_graded(algebra: AlgebraData, n_max: int) -> tuple:
    """S(ad) by total degree: the tuple of the Characters of levels
    0..n_max, by the module's recursion.

    The truncation is prefix-stable: level n is computed from levels 0..n-1
    alone, so for n <= n_max item n of sym_ad_graded(algebra, n_max) equals
    item n of sym_ad_graded(algebra, n).  A caller that needs several
    degrees expands S(ad) once, to the largest of them, and indexes the
    others.  The result is cached and shared by every caller, so it is a
    tuple, and each Character gives only a read-only view of its weights.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    ad = adjoint_character(algebra).full_map()
    theta = algebra.roots_fw[-1]
    # every level lives on the dominant weights <= n_max theta; a lookup
    # outside them reads 0, and a lookup inside reuses the one key object
    support = dominant_below(algebra, tuple(n_max * t for t in theta))
    canon = {b: b for b in support}
    # a key dom(beta - j gamma) is read only in levels <= n_max - j, whose
    # weights are <= (n_max - j) theta; as dom(v) >= v, a shift with
    # beta - j gamma not <= (n_max - j) theta reads 0 there and is skipped.
    # The order is tested on root coordinates times den (den C^-1 is integral).
    den = lcm(*(x.denominator for row in algebra.cartan_inv for x in row))
    inv = [[x.numerator * (den // x.denominator) for x in row]
           for row in algebra.cartan_inv]

    def roots_of(x):
        return [sum(map(mul, row, x)) for row in inv]

    theta_r = roots_of(theta)
    support_r = {b: roots_of(b) for b in support}
    # scaled[j]: (j gamma, roots_of(j gamma), m_gamma) over the weights of ad,
    # built at level j, the first that reads it
    scaled = [None]
    memo = {}  # (beta, j) -> (keys dom(beta - j gamma), summed m_gamma)

    def shifts(beta, j):
        got = memo.get((beta, j))
        if got is None:
            acc = {}
            # beta - j gamma <= (n_max - j) theta: slack + j gamma >= 0
            slack = [(n_max - j) * t - b for t, b in zip(theta_r, support_r[beta])]
            for step, step_r, m in scaled[j]:
                if min(map(add, slack, step_r)) < 0:
                    continue
                key = canon.get(dominant_coords(algebra, map(sub, beta, step))[0])
                if key is not None:
                    acc[key] = acc.get(key, 0) + m
            got = memo[beta, j] = (tuple(acc), tuple(acc.values()))
        return got

    levels = [{(0,) * algebra.rank: 1}]
    for n in range(1, n_max + 1):
        steps = [(tuple(n * g for g in gamma), m) for gamma, m in ad.items()]
        scaled.append([(step, roots_of(step), m) for step, m in steps])
        level = {}
        # level n lives on the beta of support with beta <= n theta
        top = [n * t for t in theta_r]
        for beta, beta_r in support_r.items():
            if min(map(sub, top, beta_r)) < 0:
                continue
            total = 0
            for j in range(1, n + 1):
                keys, mults = shifts(beta, j)
                for t in range(1, n // j + 1):
                    prev = levels[n - t * j]
                    total += t * sum(map(mul, mults, map(prev.get, keys, repeat(0))))
            h, r = divmod(total, n)
            check(r == 0 and h >= 0,
                  "S(ad) level %d multiplicity is not a natural number", n)
            if h:
                level[beta] = h
        levels.append(level)
    return tuple(Character(algebra, lv) for lv in levels)


def weyl_level_decomposition(
    algebra: AlgebraData, m_hw: Weight, n: int
) -> DecompositionMultiset:
    """Irreducible decomposition of the degree-n level of Ind(L(m_hw))."""
    return tensor_decompose(m_hw, sym_ad_graded(algebra, n)[n])
