"""Finite-dimensional representation theory: characters and decompositions.

Characters are stored by their dominant weights (the full weight map is a
cached Weyl-orbit expansion).  Multiplicities come from Freudenthal's
recursion, dimensions from the Weyl dimension formula, tensor products from
the signed reflection rule (Brauer-Klimyk), and Casimir eigenvalues from
c(nu) = |nu+rho|^2 - |rho|^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .invariant import check
from .root_system import (
    AlgebraData,
    Weight,
    dominant_representative,
    inner_product,
    norm_sq,
    reflect_simple,
    weyl_orbit,
)


def _require_dominant_integral(hw: Weight):
    if not hw.is_integral():
        raise ValueError("highest weight must be integral: %r" % (hw,))
    if not hw.is_dominant():
        raise ValueError("highest weight must be dominant: %r" % (hw,))


class Character:
    """A Weyl-group-invariant character with finite support."""

    __slots__ = ("algebra", "dominant", "_full")

    def __init__(self, algebra: AlgebraData, dominant: dict):
        self.algebra = algebra
        self.dominant = {w: int(m) for w, m in dominant.items() if m}
        for w, m in self.dominant.items():
            if m < 0:
                raise ValueError("negative multiplicity at %r" % (w,))
            if not w.is_dominant():
                raise ValueError("non-dominant key %r" % (w,))
        self._full = None

    def full_map(self) -> dict:
        """Weight coords tuple -> multiplicity, over the whole orbit."""
        if self._full is None:
            full = {}
            for w, m in self.dominant.items():
                for u in weyl_orbit(w):
                    full[u.coords] = m
            self._full = full
        return self._full

    def multiplicity(self, w: Weight) -> int:
        dom, _ = dominant_representative(w)
        return self.dominant.get(dom, 0)

    def dimension(self) -> int:
        return sum(self.full_map().values())

    def dominant_items(self):
        return sorted(self.dominant.items(), key=lambda kv: kv[0].coords)

    def items(self):
        alg = self.algebra
        return sorted(
            ((Weight(alg, c), m) for c, m in self.full_map().items()),
            key=lambda kv: kv[0].coords,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.algebra == other.algebra
            and self.dominant == other.dominant
        )

    def __hash__(self):
        return hash(frozenset(self.dominant.items()))

    def __add__(self, other):
        if other == 0:
            return self
        if self.algebra != other.algebra:
            raise ValueError("characters over different algebras")
        out = dict(self.dominant)
        for w, m in other.dominant.items():
            out[w] = out.get(w, 0) + m
        return Character(self.algebra, out)

    __radd__ = __add__

    def __mul__(self, other):
        """Pointwise product of characters (character of the tensor product)."""
        if isinstance(other, int):
            return Character(self.algebra, {w: m * other for w, m in self.dominant.items()})
        if self.algebra != other.algebra:
            raise ValueError("characters over different algebras")
        a, b = self.full_map(), other.full_map()
        if len(a) > len(b):
            a, b = b, a
        out = {}
        n = self.algebra.rank
        for ca, ma in a.items():
            for cb, mb in b.items():
                key = tuple(ca[i] + cb[i] for i in range(n))
                out[key] = out.get(key, 0) + ma * mb
        dom = {}
        alg = self.algebra
        for c, m in out.items():
            if all(x >= 0 for x in c):
                dom[Weight(alg, c)] = m
        return Character(alg, dom)

    __rmul__ = __mul__

    def __repr__(self):
        parts = ["%r:%d" % (w, m) for w, m in self.dominant_items()]
        return "Character{%s}" % ", ".join(parts)


class DecompositionMultiset:
    """Multiset of irreducible constituents: highest weight -> multiplicity."""

    __slots__ = ("algebra", "mults")

    def __init__(self, algebra: AlgebraData, mults: dict):
        self.algebra = algebra
        self.mults = {w: int(m) for w, m in mults.items() if m}
        for w, m in self.mults.items():
            if m < 0:
                raise ValueError("negative multiplicity at %r" % (w,))

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


def weyl_dimension(algebra: AlgebraData, hw: Weight) -> int:
    """dim L(hw) by the Weyl dimension formula."""
    _require_dominant_integral(hw)
    rho = algebra.rho
    num = Fraction(1)
    lam_rho = hw + rho
    d = algebra.d
    n = algebra.rank
    for root in algebra.positive_roots:
        # (w, alpha) = sum_j d_j w_j alpha_j for alpha in root coords
        top = sum(lam_rho.coords[j] * d[j] * root[j] for j in range(n))
        bot = sum(rho.coords[j] * d[j] * root[j] for j in range(n))
        num *= top / bot
    check(num.denominator == 1, "Weyl dimension formula is not integral")
    return int(num)


def _weight_closure(hw: Weight):
    """The saturated weight set of L(hw) via simple root strings."""
    seen = {hw}
    stack = [hw]
    n = hw.algebra.rank
    simple_roots = [
        hw.algebra.root_vector([int(i == j) for j in range(n)]).to_weight()
        for i in range(n)
    ]
    while stack:
        w = stack.pop()
        for i in range(n):
            k = w.coords[i]
            if k > 0:
                cur = w
                for _ in range(int(k)):
                    cur = cur - simple_roots[i]
                    if cur not in seen:
                        seen.add(cur)
                        stack.append(cur)
    return seen


@lru_cache(maxsize=None)
def irrep_character(algebra: AlgebraData, hw: Weight) -> Character:
    """Character of the irreducible L(hw), multiplicities by Freudenthal."""
    _require_dominant_integral(hw)
    rho = algebra.rho
    weights = _weight_closure(hw)
    dominants = sorted(
        (w for w in weights if w.is_dominant()),
        key=lambda w: sum((hw - w).to_root_coords()),
    )
    lam_norm = norm_sq(hw + rho)
    mults = {hw: 1}
    alg_roots = [algebra.root_vector(r).to_weight() for r in algebra.positive_roots]
    for w in dominants[1:]:
        acc = Fraction(0)
        for alpha in alg_roots:
            k = 1
            while True:
                u = w + _scale(alpha, k)
                if u not in weights:
                    break
                dom, _ = dominant_representative(u)
                m = mults.get(dom, 0)
                if m:
                    acc += 2 * m * inner_product(u, alpha)
                k += 1
        denom = lam_norm - norm_sq(w + rho)
        check(denom != 0, "Freudenthal denominator vanishes")
        val = acc / denom
        check(val.denominator == 1 and val >= 0,
              "Freudenthal multiplicity is not a nonnegative integer")
        if val:
            mults[w] = int(val)
    return Character(algebra, mults)


def _scale(w: Weight, k: int) -> Weight:
    return Weight(w.algebra, tuple(k * c for c in w.coords))


def adjoint_character(algebra: AlgebraData) -> Character:
    theta = algebra.root_vector(algebra.highest_root).to_weight()
    return irrep_character(algebra, theta)


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
        _require_dominant_integral(a)
        _require_dominant_integral(b)
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
    algebra = nu.algebra
    _require_dominant_integral(nu)
    if algebra != u.algebra:
        raise ValueError("mixed algebras in tensor product")
    rho = algebra.rho
    base = nu + rho
    out = {}
    n = algebra.rank
    for coords, mult in u.full_map().items():
        t = Weight(algebra, tuple(base.coords[i] + coords[i] for i in range(n)))
        sign = 1
        while True:
            i = next((k for k, c in enumerate(t.coords) if c < 0), None)
            if i is None:
                break
            t = reflect_simple(t, i)
            sign = -sign
        if any(c == 0 for c in t.coords):
            continue
        w = t - rho
        out[w] = out.get(w, 0) + sign * mult
    for w, m in list(out.items()):
        check(m >= 0, "negative tensor multiplicity at %r", w)
        if m == 0:
            del out[w]
    return DecompositionMultiset(algebra, out)


def decompose_character(char: Character) -> DecompositionMultiset:
    """Write a character as a sum of irreducibles by subtracting leaders."""
    algebra = char.algebra
    remaining = dict(char.dominant)
    out = {}

    def _height_key(w):
        return (sum(w.to_root_coords()), w.coords)

    while remaining:
        w = max(remaining, key=_height_key)
        m = remaining[w]
        check(m > 0, "character is not a non-negative sum of irreducibles")
        out[w] = out.get(w, 0) + m
        for u, mu in irrep_character(algebra, w).dominant_items():
            r = remaining.get(u, 0) - m * mu
            if r:
                remaining[u] = r
            else:
                remaining.pop(u, None)
    return DecompositionMultiset(algebra, out)


def casimir_on_irrep(algebra: AlgebraData, hw: Weight) -> Fraction:
    """Casimir scalar on L(hw): |hw+rho|^2 - |rho|^2."""
    _require_dominant_integral(hw)
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
