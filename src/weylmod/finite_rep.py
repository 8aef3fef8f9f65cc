"""Finite-dimensional representation theory: characters and decompositions.

Characters are stored by their dominant weights only: the full weight map is
the Weyl-orbit expansion of those keys, built on request and never stored,
and Brauer-Klimyk walks the orbits itself.  Multiplicities come from
Freudenthal's recursion, dimensions from the Weyl dimension formula, tensor
products from the signed reflection rule (Brauer-Klimyk), and Casimir
eigenvalues from c(nu) = |nu+rho|^2 - |rho|^2.

Every character here has dominant integral highest weights, so inside the
engine weights are tuples of ints in fundamental-weight coordinates: the
dominant map of a Character, orbit expansion, products, the reflections of
Brauer-Klimyk, and Freudenthal and the Weyl dimension formula.  These two
pair weights by the integer root data of AlgebraData (roots_fw, and
weight_form and root_pairings, the invariant form times form_scale); they
use only ratios of pairings, which the scale leaves unchanged.  Weight
objects (Fraction coordinates) appear only at the boundary: the arguments of
the public functions, the keys of Character.dominant and of a
DecompositionMultiset, and Character.items().
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from .invariant import check
from .root_system import (
    AlgebraData,
    Weight,
    dominant_below,
    dominant_coords,
    norm_sq,
    orbit_coords,
)


def _require_dominant_integral(algebra: AlgebraData, hw: Weight):
    if hw.algebra != algebra:
        raise ValueError("highest weight %r belongs to %r, not %r"
                         % (hw, hw.algebra, algebra))
    if not hw.is_integral():
        raise ValueError("highest weight must be integral: %r" % (hw,))
    if not hw.is_dominant():
        raise ValueError("highest weight must be dominant: %r" % (hw,))


def _natural_mults(mults: dict) -> dict:
    """The nonzero entries of {key: multiplicity} as ints; ValueError on a
    negative or non-integral multiplicity."""
    out = {}
    for w, m in mults.items():
        k = int(m)
        if k != m:
            raise ValueError("multiplicity %r at %r is not an integer" % (m, w))
        if k < 0:
            raise ValueError("negative multiplicity at %r" % (w,))
        if k:
            out[w] = k
    return out


class Character:
    """A Weyl-group-invariant character with finite support.

    Built from {dominant integral Weight: multiplicity}, held as
    {dominant int tuple: multiplicity}.
    """

    __slots__ = ("algebra", "_dominant")

    def __init__(self, algebra: AlgebraData, dominant: dict):
        dominant = _natural_mults(dominant)
        for w in dominant:
            _require_dominant_integral(algebra, w)
        self.algebra = algebra
        self._dominant = {tuple(map(int, w.coords)): m for w, m in dominant.items()}

    @classmethod
    def _of(cls, algebra: AlgebraData, dominant: dict) -> "Character":
        """The character held as {dominant int tuple: positive int}, not copied."""
        char = cls.__new__(cls)
        char.algebra, char._dominant = algebra, dominant
        return char

    @property
    def dominant(self) -> dict:
        """Dominant Weight -> multiplicity."""
        return {Weight(self.algebra, c): m for c, m in self._dominant.items()}

    def full_map(self) -> dict:
        """Int tuple -> multiplicity over the whole support, built anew."""
        cartan = self.algebra.cartan
        return {u: m for c, m in self._dominant.items() for u in orbit_coords(cartan, c)}

    def multiplicity(self, w: Weight) -> int:
        dom, _ = dominant_coords(self.algebra.cartan, w.coords)
        return self._dominant.get(dom, 0)

    def dimension(self) -> int:
        cartan = self.algebra.cartan
        return sum(m * len(orbit_coords(cartan, c)) for c, m in self._dominant.items())

    def dominant_items(self):
        alg = self.algebra
        return [(Weight(alg, c), m) for c, m in sorted(self._dominant.items())]

    def items(self):
        alg = self.algebra
        return [(Weight(alg, c), m) for c, m in sorted(self.full_map().items())]

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.algebra == other.algebra
            and self._dominant == other._dominant
        )

    def __hash__(self):
        return hash(frozenset(self._dominant.items()))

    def __add__(self, other):
        if other == 0:
            return self
        if self.algebra != other.algebra:
            raise ValueError("characters over different algebras")
        out = dict(self._dominant)
        for c, m in other._dominant.items():
            out[c] = out.get(c, 0) + m
        return Character._of(self.algebra, out)

    __radd__ = __add__

    def __mul__(self, other):
        """Pointwise product of characters (character of the tensor product)."""
        if isinstance(other, int):
            return Character(self.algebra, {w: m * other for w, m in self.dominant.items()})
        if self.algebra != other.algebra:
            raise ValueError("characters over different algebras")
        b = other.full_map()
        out = {}
        get = out.get
        for ca, ma in self.full_map().items():
            for cb, mb in b.items():
                key = tuple(map(add, ca, cb))
                if min(key) >= 0:
                    out[key] = get(key, 0) + ma * mb
        return Character._of(self.algebra, out)

    __rmul__ = __mul__

    def __repr__(self):
        parts = ["%r:%d" % (w, m) for w, m in self.dominant_items()]
        return "Character{%s}" % ", ".join(parts)


class DecompositionMultiset:
    """Multiset of irreducible constituents: highest weight -> multiplicity."""

    __slots__ = ("algebra", "mults")

    def __init__(self, algebra: AlgebraData, mults: dict):
        self.algebra = algebra
        self.mults = _natural_mults(mults)

    def items(self):
        return sorted(self.mults.items(), key=lambda kv: kv[0].coords)

    def length(self) -> int:
        return sum(self.mults.values())

    def dimension(self) -> int:
        return sum(m * weyl_dimension(self.algebra, w) for w, m in self.mults.items())

    def character(self) -> Character:
        return sum(
            (m * irrep_character(self.algebra, w) for w, m in self.items()),
            Character(self.algebra, {}),
        )

    def __eq__(self, other):
        return (
            isinstance(other, DecompositionMultiset)
            and self.algebra == other.algebra
            and self.mults == other.mults
        )

    def __repr__(self):
        parts = ["%r:%d" % (w, m) for w, m in self.items()]
        return "Decomposition{%s}" % ", ".join(parts)


def _norm_rho(form, w) -> int:
    """|w + rho|^2 in the scaled form AlgebraData.weight_form, rho = (1, ..., 1)."""
    v = [c + 1 for c in w]
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, form))


def weyl_dimension(algebra: AlgebraData, hw: Weight) -> int:
    """dim L(hw) = prod over alpha > 0 of (hw + rho, alpha) / (rho, alpha)."""
    _require_dominant_integral(algebra, hw)
    lam_rho = [int(c) + 1 for c in hw.coords]
    num = den = 1
    for pair in algebra.root_pairings:
        num *= sum(map(mul, lam_rho, pair))
        den *= sum(pair)
    dim, r = divmod(num, den)
    check(r == 0, "Weyl dimension formula is not integral")
    return dim


@lru_cache(maxsize=None)
def irrep_character(algebra: AlgebraData, hw: Weight) -> Character:
    """Character of the irreducible L(hw), multiplicities by Freudenthal."""
    _require_dominant_integral(algebra, hw)
    form = algebra.weight_form
    cartan = algebra.cartan
    top = tuple(map(int, hw.coords))
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
            dom = dominant_coords(cartan, u)[0]
            while dom in weights:
                acc += mults.get(dom, 0) * sum(map(mul, u, pair))
                u = tuple(map(add, u, alpha))
                dom = dominant_coords(cartan, u)[0]
        denom = lam_norm - _norm_rho(form, w)
        check(denom != 0, "Freudenthal denominator vanishes")
        val, r = divmod(2 * acc, denom)
        check(r == 0 and val >= 0,
              "Freudenthal multiplicity is not a nonnegative integer")
        if val:
            mults[w] = val
    return Character._of(algebra, mults)


def adjoint_character(algebra: AlgebraData) -> Character:
    return irrep_character(algebra, algebra.weight(algebra.roots_fw[-1]))


def _as_character(algebra: AlgebraData, x) -> Character:
    if isinstance(x, Character):
        return x
    if isinstance(x, Weight):
        return irrep_character(algebra, x)
    raise TypeError("expected Character or Weight, got %r" % (x,))


def tensor_decompose(a, b) -> DecompositionMultiset:
    """Decompose L(a) (x) L(b) (either argument may be a Character)."""
    if isinstance(a, Weight) and isinstance(b, Weight):
        algebra = a.algebra
        _require_dominant_integral(algebra, a)
        _require_dominant_integral(algebra, b)
        # run the reflection rule over the smaller weight system
        if weyl_dimension(algebra, a) < weyl_dimension(algebra, b):
            a, b = b, a
        return _brauer_klimyk(a, irrep_character(algebra, b))
    if isinstance(a, Weight):
        return _brauer_klimyk(a, b)
    if isinstance(b, Weight):
        return _brauer_klimyk(b, a)
    # both characters: decompose one, then sum
    algebra = a.algebra
    out = {}
    for hw, mult in decompose_character(a).items():
        part = _brauer_klimyk(hw, b)
        for w, m in part.mults.items():
            out[w] = out.get(w, 0) + mult * m
    return DecompositionMultiset(algebra, out)


def _brauer_klimyk(nu: Weight, u: Character) -> DecompositionMultiset:
    """L(nu) (x) U by signed dominant reflection of nu + rho + mu."""
    algebra = u.algebra
    _require_dominant_integral(algebra, nu)
    cartan = algebra.cartan
    base = [int(c) + 1 for c in nu.coords]  # nu + rho, rho = (1, ..., 1)
    out = {}
    for c, mult in u._dominant.items():
        for coords in orbit_coords(cartan, c):
            t, count = dominant_coords(cartan, map(add, base, coords))
            if 0 in t:
                continue
            out[t] = out.get(t, 0) + (-mult if count & 1 else mult)
    mults = {}
    for t, m in out.items():
        check(m >= 0, "negative tensor multiplicity at nu + rho = %r", t)
        if m:
            mults[Weight(algebra, [c - 1 for c in t])] = m
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
        w = Weight(algebra, c)
        out[w] = out.get(w, 0) + m
        for u, mu in irrep_character(algebra, w)._dominant.items():
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


def kostant_spectrum(algebra: AlgebraData, u, lam: Weight):
    """The multiset {|lam + mu_i|^2 - |rho|^2 : mu_i weight of U}.

    By Kostant's theorem the product of (Omega - value) over this multiset
    annihilates U (x) M whenever M has infinitesimal character chi_lam.
    Returned sorted in decreasing order, with multiplicity.
    """
    uc = _as_character(algebra, u)
    rho2 = norm_sq(algebra.rho)
    vals = []
    for coords, mult in uc.full_map().items():
        mu = Weight(algebra, coords)
        v = norm_sq(lam + mu) - rho2
        vals.extend([v] * mult)
    vals.sort(reverse=True)
    return vals


def length_of(x) -> int:
    """Number of irreducible constituents, with multiplicity."""
    if isinstance(x, DecompositionMultiset):
        return x.length()
    if isinstance(x, Character):
        return decompose_character(x).length()
    raise TypeError("expected Character or DecompositionMultiset")
