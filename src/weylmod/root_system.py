"""Finite root system data for the simple Lie types A-G.

Conventions.  cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) = <a_j, a_i-check>,
and the invariant form is normalized so long roots have (a, a) = 2.  The
symmetrizers d_i = (a_i, a_i)/2 then satisfy (a_i, a_j) = d_i cartan[i][j].
Weights carry coordinates in the fundamental weight basis; root lattice
vectors carry integer coordinates in the simple root basis.  The two are
related by fw = C @ root for the Cartan matrix C.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .invariant import check
from .linalg import matrix_inverse

_SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_SERIES_MAX_RANK = {"E": 8, "F": 4, "G": 2}


def _cartan_matrix(series: str, rank: int):
    n = rank
    edges = []  # (i, j, cij, cji) with cij = cartan[i][j]
    if series in ("A", "B", "C", "D", "F"):
        chain = n if series != "D" else n - 1
        for i in range(chain - 1):
            edges.append((i, i + 1, -1, -1))
        if series == "B":
            # last root short: cartan[n-1][n-2] = -2
            edges[-1] = (n - 2, n - 1, -1, -2)
        elif series == "C":
            # last root long: cartan[n-2][n-1] = -2
            edges[-1] = (n - 2, n - 1, -2, -1)
        elif series == "D":
            edges.append((n - 3, n - 1, -1, -1))
        elif series == "F":
            edges[1] = (1, 2, -1, -2)
    elif series == "G":
        edges.append((0, 1, -1, -3))
    elif series == "E":
        bourbaki = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for (a, b) in bourbaki:
            if a <= n and b <= n:
                edges.append((a - 1, b - 1, -1, -1))
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j, cij, cji) in edges:
        mat[i][j] = cij
        mat[j][i] = cji
    return tuple(tuple(row) for row in mat)


def _symmetrizers(cartan):
    """d_i with (a_i, a_j) = d_i cartan[i][j], normalized so max d_i = 1."""
    n = len(cartan)
    d = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                todo.append(j)
    if any(x is None for x in d):
        raise ValueError("Dynkin diagram is not connected")
    top = max(d)
    return tuple(x / top for x in d)


class AlgebraData:
    """Immutable root datum of a simple Lie algebra."""

    __slots__ = (
        "series", "rank", "cartan", "d", "cartan_inv", "gram_root",
        "gram_root_inv", "positive_roots", "highest_root", "dual_coxeter",
        "dim",
    )

    def __init__(self, series, rank, cartan, d, cartan_inv, gram_root,
                 gram_root_inv, positive_roots, highest_root, dual_coxeter,
                 dim):
        self.series = series
        self.rank = rank
        self.cartan = cartan  # cartan[i][j] = <a_j, a_i-check>
        self.d = d  # symmetrizers (a_i, a_i)/2
        self.cartan_inv = cartan_inv
        self.gram_root = gram_root  # (a_i, a_j)
        self.gram_root_inv = gram_root_inv
        self.positive_roots = positive_roots  # simple-root coords, by height
        self.highest_root = highest_root
        self.dual_coxeter = dual_coxeter
        self.dim = dim

    def __repr__(self):
        return "AlgebraData(%s%d)" % (self.series, self.rank)

    def __hash__(self):
        return hash((self.series, self.rank))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraData)
            and self.series == other.series
            and self.rank == other.rank
        )

    @property
    def rho(self) -> "Weight":
        return Weight(self, (Fraction(1),) * self.rank)

    def weight(self, coords) -> "Weight":
        return Weight(self, coords)

    def root_vector(self, coords) -> "RootVector":
        return RootVector(self, tuple(int(c) for c in coords))


def _positive_roots(cartan):
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simple)
    layer = list(simple)
    all_roots = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                # root string: beta - q a_i ... beta + p a_i with p = q - pairing
                q = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in found or (sum(abs(x) for x in cur) == 0):
                        q += 1
                    else:
                        break
                if q - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
                        all_roots.append(up)
        layer = nxt
    all_roots.sort(key=lambda r: (sum(r), r))
    return tuple(all_roots)


@lru_cache(maxsize=None)
def build_algebra(series: str, rank: int) -> AlgebraData:
    """Construct the root datum for the simple series A-G at the given rank."""
    if not isinstance(series, str) or series.upper() not in _SERIES_MIN_RANK:
        raise ValueError("unknown series %r; expected one of A B C D E F G" % (series,))
    series = series.upper()
    rank = int(rank)
    lo = _SERIES_MIN_RANK[series]
    hi = _SERIES_MAX_RANK.get(series)
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError("invalid rank %d for series %s" % (rank, series))
    cartan = _cartan_matrix(series, rank)
    d = _symmetrizers(cartan)
    gram_root = tuple(
        tuple(d[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    # sanity: symmetric positive definite
    for i in range(rank):
        for j in range(rank):
            check(gram_root[i][j] == gram_root[j][i], "root Gram matrix not symmetric")
    pos = _positive_roots(cartan)
    top_height = sum(pos[-1])
    tops = [r for r in pos if sum(r) == top_height]
    check(len(tops) == 1, "highest root must be unique")
    theta = tops[0]
    h_dual = Fraction(1) + sum(theta[j] * d[j] for j in range(rank))
    check(h_dual.denominator == 1, "dual Coxeter number is not an integer")
    return AlgebraData(
        series=series,
        rank=rank,
        cartan=cartan,
        d=d,
        cartan_inv=matrix_inverse(cartan),
        gram_root=gram_root,
        gram_root_inv=matrix_inverse(gram_root),
        positive_roots=pos,
        highest_root=theta,
        dual_coxeter=h_dual,
        dim=rank + 2 * len(pos),
    )


class Weight:
    """A rational weight in fundamental-weight coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: AlgebraData, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != algebra.rank:
            raise ValueError("%r needs %d weight coordinates, got %d"
                             % (algebra, algebra.rank, len(coords)))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Weight is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "Weight(%s)" % (",".join(str(c) for c in self.coords),)

    def _other_coords(self, other):
        if isinstance(other, RootVector):
            other = other.to_weight()
        if other.algebra != self.algebra:
            raise ValueError("weights of %r and %r do not add"
                             % (self.algebra, other.algebra))
        return other.coords

    def __add__(self, other):
        coords = self._other_coords(other)
        return Weight(self.algebra, tuple(a + b for a, b in zip(self.coords, coords)))

    def __sub__(self, other):
        coords = self._other_coords(other)
        return Weight(self.algebra, tuple(a - b for a, b in zip(self.coords, coords)))

    def __neg__(self):
        return Weight(self.algebra, tuple(-a for a in self.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def to_root_coords(self):
        inv = self.algebra.cartan_inv
        return tuple(
            sum(inv[i][j] * self.coords[j] for j in range(self.algebra.rank))
            for i in range(self.algebra.rank)
        )


class RootVector:
    """An element of the root lattice in simple-root coordinates."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: AlgebraData, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __setattr__(self, *a):
        raise AttributeError("RootVector is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, RootVector)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "RootVector(%s)" % (",".join(str(c) for c in self.coords),)

    def __neg__(self):
        return RootVector(self.algebra, tuple(-c for c in self.coords))

    def to_weight(self) -> Weight:
        A = self.algebra.cartan
        n = self.algebra.rank
        return Weight(
            self.algebra,
            tuple(sum(A[i][j] * self.coords[j] for j in range(n)) for i in range(n)),
        )


def inner_product(x: Weight, y: Weight) -> Fraction:
    """Invariant form (x, y), long roots normalized to (a, a) = 2."""
    if x.algebra != y.algebra:
        raise ValueError("weights live in different algebras")
    n = x.algebra.rank
    yr = y.to_root_coords()
    d = x.algebra.d
    # (x, y) = sum_j x_j d_j yr_j  since (x, a_j) = d_j <x, a_j-check>
    return sum(x.coords[j] * d[j] * yr[j] for j in range(n))


def norm_sq(x: Weight) -> Fraction:
    return inner_product(x, x)


def pair_weight_root(lam: Weight, mu: RootVector) -> Fraction:
    """(lam, mu) with mu in the root lattice: sum d_j lam_j mu_j."""
    d = lam.algebra.d
    return sum(lam.coords[j] * d[j] * mu.coords[j] for j in range(lam.algebra.rank))


def root_norm_sq(mu: RootVector) -> Fraction:
    g = mu.algebra.gram_root
    n = mu.algebra.rank
    return sum(
        mu.coords[i] * g[i][j] * mu.coords[j] for i in range(n) for j in range(n)
    )


def dominant_coords(cartan, v):
    """The dominant point of the Weyl orbit of the coordinate tuple v, and
    the number of simple reflections used to reach it.

    Works on any exact coordinates (int or Fraction); s_i maps v to
    v - v_i A[., i] and is applied at the first negative coordinate.
    """
    v = list(v)
    n = len(v)
    count = 0
    i = 0
    while i < n:
        c = v[i]
        if c < 0:
            for j in range(n):
                v[j] -= c * cartan[j][i]
            count += 1
            i = 0
        else:
            i += 1
    return tuple(v), count


def orbit_coords(cartan, v) -> set:
    """The Weyl orbit of the coordinate tuple v, as a set of tuples.

    Starts from the dominant point and reflects only at positive
    coordinates: s_i fixes v when v_i = 0, and every orbit point is reached
    from the dominant one by lowering steps.
    """
    n = len(v)
    top = dominant_coords(cartan, v)[0]
    seen = {top}
    stack = [top]
    while stack:
        u = stack.pop()
        for i, c in enumerate(u):
            if c > 0:
                r = tuple(u[j] - c * cartan[j][i] for j in range(n))
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    return seen


def dominant_below(cartan, roots, top) -> set:
    """The dominant int tuples mu <= top (top - mu a sum of positive roots);
    roots are the positive roots in simple-root coordinates.

    Walks down from top one positive root at a time inside the dominant
    chamber.  By Stembridge ("The partial order of dominant weights", Adv.
    Math. 1998), for dominant mu < nu some nu - alpha is dominant and >= mu,
    so the walk reaches every such mu.
    """
    n = len(cartan)
    steps = [tuple(sum(cartan[i][j] * a[j] for j in range(n)) for i in range(n))
             for a in roots]
    seen = {top}
    stack = [top]
    while stack:
        u = stack.pop()
        for s in steps:
            v = tuple(x - y for x, y in zip(u, s))
            if min(v) >= 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def dominant_representative(w: Weight):
    """The dominant Weyl-orbit representative and the reflection count used."""
    dom, count = dominant_coords(w.algebra.cartan, w.coords)
    return Weight(w.algebra, dom), count


def weyl_orbit(w: Weight):
    """The full Weyl orbit of w, as a deterministic sorted list."""
    return [Weight(w.algebra, c) for c in sorted(orbit_coords(w.algebra.cartan, w.coords))]


def same_weyl_orbit(x: Weight, y: Weight) -> bool:
    return dominant_representative(x)[0] == dominant_representative(y)[0]


def _floor_sqrt(t: Fraction) -> int:
    """floor(sqrt(t)) for rational t >= 0."""
    check(t >= 0, "square root of a negative number")
    return isqrt(t.numerator * t.denominator) // t.denominator


def _floor_plus_sqrt(x: Fraction, t: Fraction) -> int:
    """floor(x + sqrt(t)) exactly, for rational x and rational t >= 0."""
    c = (x.numerator // x.denominator) + _floor_sqrt(t) + 2
    while True:
        d = c - x
        if d <= 0 or d * d <= t:
            return c
        c -= 1


def enumerate_root_lattice_ball(algebra: AlgebraData, shift: Weight, bound):
    """All mu in the root lattice with |mu + shift|^2 <= bound, sorted.

    Exact: per-coordinate ranges come from |x_i|^2 <= R (G^-1)_{ii} after
    completing the square, then every candidate is filtered with the exact
    quadratic form.  Sorted lexicographically by root coordinates.
    """
    bound = Fraction(bound)
    if bound < 0:
        return []
    n = algebra.rank
    s = shift.to_root_coords()
    ginv = algebra.gram_root_inv
    g = algebra.gram_root
    ranges = []
    for i in range(n):
        t = bound * ginv[i][i]
        hi = _floor_plus_sqrt(-s[i], t)
        lo = -_floor_plus_sqrt(s[i], t)
        ranges.append(range(lo, hi + 1))
    out = []

    def _norm(vec):
        return sum(vec[i] * g[i][j] * vec[j] for i in range(n) for j in range(n))

    for m in itertools.product(*ranges):
        x = [m[i] + s[i] for i in range(n)]
        if _norm(x) <= bound:
            out.append(RootVector(algebra, m))
    out.sort(key=lambda rv: rv.coords)
    return out
