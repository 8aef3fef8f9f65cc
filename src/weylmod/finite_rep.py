"""Finite-dimensional representation theory: characters and decompositions.

Characters are stored by their dominant weights only: the full weight map is
the Weyl-orbit expansion of those keys, built on request and never stored,
and tensor_decompose walks the orbits itself.  A dimension never walks an
orbit: orbit sizes come from Macdonald's product (root_system.orbit_size).
Multiplicities come from Freudenthal's recursion, dimensions of irreducibles
from the Weyl dimension formula, tensor products from the one signed
reflection rule (brauer_klimyk, which also takes virtual characters), and
Casimir eigenvalues from c(nu) = |nu+rho|^2 - |rho|^2.

Every character here has dominant integral highest weights, so inside the
engine weights are tuples of ints in fundamental-weight coordinates: the
keys of a Character and of a DecompositionMultiset, orbit expansion, the
reflections of Brauer-Klimyk (root_system.dominant_coords), and Freudenthal
and the Weyl dimension formula.  These two pair weights by the integer root
data of AlgebraData (roots_fw, and weight_form, root_pairings and
root_steps, scaled by form_scale); they use only ratios of pairings, which
the scale leaves unchanged.  Weight objects (Fraction coordinates) appear
only in the arguments of the public functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul
from types import MappingProxyType

from .invariant import check
from .root_system import (
    AlgebraData,
    Weight,
    dominant_below,
    dominant_coords,
    norm_sq,
    orbit_coords,
    orbit_size,
)


def _require_dominant_integral(algebra: AlgebraData, hw: Weight):
    if hw.algebra != algebra:
        raise ValueError("highest weight %r belongs to %r, not %r"
                         % (hw, hw.algebra, algebra))
    if not hw.is_integral():
        raise ValueError("highest weight must be integral: %r" % (hw,))
    if not hw.is_dominant():
        raise ValueError("highest weight must be dominant: %r" % (hw,))


def _dominant_mults(algebra: AlgebraData, mults: dict) -> dict:
    """The nonzero entries of {dominant int tuple: multiplicity} as ints;
    ValueError on a key that is not a dominant integral weight of algebra
    and on a negative or non-integral multiplicity."""
    out = {}
    for c, m in mults.items():
        k = int(m)
        if k != m:
            raise ValueError("multiplicity %r at %r is not an integer" % (m, c))
        if k < 0:
            raise ValueError("negative multiplicity at %r" % (c,))
        if not k:
            continue
        if not (isinstance(c, tuple) and len(c) == algebra.rank
                and all(type(x) is int and x >= 0 for x in c)):
            raise ValueError("%r is not a dominant integral weight of %r"
                             % (c, algebra))
        out[c] = k
    return out


class Character:
    """A Weyl-group-invariant character with finite support, built from and
    held as {dominant int tuple: multiplicity}."""

    __slots__ = ("algebra", "_dominant")

    def __init__(self, algebra: AlgebraData, dominant: dict):
        self.algebra = algebra
        self._dominant = _dominant_mults(algebra, dominant)

    @property
    def dominant(self):
        """Dominant int tuple -> multiplicity, read-only."""
        return MappingProxyType(self._dominant)

    def full_map(self) -> dict:
        """Int tuple -> multiplicity over the whole support, built anew."""
        algebra = self.algebra
        return {u: m for c, m in self._dominant.items() for u in orbit_coords(algebra, c)}

    def dimension(self) -> int:
        algebra = self.algebra
        return sum(m * orbit_size(algebra, c) for c, m in self._dominant.items())

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.algebra == other.algebra
            and self._dominant == other._dominant
        )

    def __repr__(self):
        parts = ["%r:%d" % kv for kv in sorted(self._dominant.items())]
        return "Character{%s}" % ", ".join(parts)


class DecompositionMultiset:
    """Multiset of irreducible constituents, held as {dominant int tuple
    (highest weight): multiplicity}."""

    __slots__ = ("algebra", "_mults")

    def __init__(self, algebra: AlgebraData, mults: dict):
        self.algebra = algebra
        self._mults = _dominant_mults(algebra, mults)

    @property
    def mults(self):
        """Highest weight -> multiplicity, read-only."""
        return MappingProxyType(self._mults)

    def items(self):
        return sorted(self._mults.items())

    def length(self) -> int:
        return sum(self._mults.values())

    def dimension(self) -> int:
        algebra = self.algebra
        return sum(m * irrep_dimension(algebra, c) for c, m in self._mults.items())

    def __eq__(self, other):
        return (
            isinstance(other, DecompositionMultiset)
            and self.algebra == other.algebra
            and self._mults == other._mults
        )

    def __repr__(self):
        parts = ["%r:%d" % kv for kv in self.items()]
        return "Decomposition{%s}" % ", ".join(parts)


def _norm_rho(form, w) -> int:
    """|w + rho|^2 in the scaled form AlgebraData.weight_form, rho = (1, ..., 1)."""
    v = [c + 1 for c in w]
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, form))


def irrep_dimension(algebra: AlgebraData, c) -> int:
    """dim L(c) for a dominant int tuple c: the product over alpha > 0 of
    (c + rho, alpha) / (rho, alpha), each pairing one multiply-add on that
    of the root's parent (AlgebraData.root_steps)."""
    steps = algebra.root_steps
    # xs[k], ys[k]: scaled (c + rho, alpha_k), (rho, alpha_k); p = -1 reads 0
    xs = [0] * (len(steps) + 1)
    ys = xs[:]
    num = den = 1
    for k, (p, i, w) in enumerate(steps):
        xs[k] = x = xs[p] + (c[i] + 1) * w
        ys[k] = y = ys[p] + w
        num *= x
        den *= y
    dim, r = divmod(num, den)
    check(r == 0, "Weyl dimension formula is not integral")
    return dim


def weyl_dimension(algebra: AlgebraData, hw: Weight) -> int:
    """dim L(hw) by the Weyl dimension formula (irrep_dimension)."""
    _require_dominant_integral(algebra, hw)
    return irrep_dimension(algebra, tuple(map(int, hw.coords)))


def _freudenthal(algebra: AlgebraData, top) -> dict:
    """{dominant int tuple: multiplicity} of L(top), by Freudenthal."""
    form = algebra.weight_form
    # the dominant weights of L(top); the weight set is W-invariant, so u is
    # a weight exactly when dom(u) is one of them
    weights = dominant_below(algebra, top)
    # a dominant weight above w has a larger |. + rho|^2, so in this order
    # every multiplicity the recursion reads is already known
    dominants = sorted(weights, key=lambda w: (-_norm_rho(form, w), w))
    lam_norm = _norm_rho(form, top)
    mults = {top: 1}
    for w in dominants[1:]:
        acc = 0
        for alpha, pair in zip(algebra.roots_fw, algebra.root_pairings):
            u = tuple(map(add, w, alpha))
            dom = dominant_coords(algebra, u)[0]
            while dom in weights:
                acc += mults.get(dom, 0) * sum(map(mul, u, pair))
                u = tuple(map(add, u, alpha))
                dom = dominant_coords(algebra, u)[0]
        denom = lam_norm - _norm_rho(form, w)
        check(denom != 0, "Freudenthal denominator vanishes")
        val, r = divmod(2 * acc, denom)
        check(r == 0 and val >= 0,
              "Freudenthal multiplicity is not a nonnegative integer")
        if val:
            mults[w] = val
    return mults


@lru_cache(maxsize=None)
def irrep_character(algebra: AlgebraData, hw: Weight) -> Character:
    """Character of the irreducible L(hw), multiplicities by Freudenthal."""
    _require_dominant_integral(algebra, hw)
    return Character(algebra, _freudenthal(algebra, tuple(map(int, hw.coords))))


def brauer_klimyk(algebra: AlgebraData, weights, lam) -> dict:
    """Brauer's rule for V (x) L(lam), lam a dominant int tuple and V a
    W-invariant, possibly virtual, character given by its (weight mu,
    multiplicity) pairs: {dominant t + rho: signed multiplicity}.  A point
    lam + rho + mu that meets a zero coordinate on its way to the dominant
    chamber is singular and adds nothing (dominant_coords, regular=True)."""
    base = [c + 1 for c in lam]  # lam + rho, rho = (1, ..., 1)
    out = {}
    for mu, mult in weights:
        hit = dominant_coords(algebra, map(add, base, mu), regular=True)
        if hit is not None:
            t, count = hit
            out[t] = out.get(t, 0) + (-mult if count & 1 else mult)
    return out


def tensor_decompose(nu: Weight, u: Character) -> DecompositionMultiset:
    """L(nu) (x) U by brauer_klimyk over the weights of U."""
    algebra = u.algebra
    _require_dominant_integral(algebra, nu)
    lam = tuple(map(int, nu.coords))
    mults = {}
    for t, m in brauer_klimyk(algebra, u.full_map().items(), lam).items():
        check(m >= 0, "negative tensor multiplicity at nu + rho = %r", t)
        if m:
            mults[tuple(x - 1 for x in t)] = m
    return DecompositionMultiset(algebra, mults)


def decompose_character(char: Character) -> DecompositionMultiset:
    """Write a character as a sum of irreducibles by subtracting leaders."""
    algebra = char.algebra
    form = algebra.weight_form
    remaining = dict(char._dominant)
    out = {}
    while remaining:
        # no weight lies above one of largest |. + rho|^2: it is a leader
        c = max(remaining, key=lambda w: (_norm_rho(form, w), w))
        m = remaining[c]
        check(m > 0, "character is not a non-negative sum of irreducibles")
        out[c] = m
        for u, mu in _freudenthal(algebra, c).items():
            r = remaining.get(u, 0) - m * mu
            if r:
                remaining[u] = r
            else:
                remaining.pop(u, None)
    return DecompositionMultiset(algebra, out)


def casimir_on_irrep(algebra: AlgebraData, hw: Weight) -> Fraction:
    """Casimir scalar on L(hw): |hw+rho|^2 - |rho|^2."""
    _require_dominant_integral(algebra, hw)
    rho = algebra.rho
    return norm_sq(hw + rho) - norm_sq(rho)
