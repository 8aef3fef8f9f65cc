"""Finite root system data for the simple Lie types A-G.

Conventions.  cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) = <a_j, a_i-check>,
and the invariant form is normalized so long roots have (a, a) = 2.  The
symmetrizers d_i = (a_i, a_i)/2 then satisfy (a_i, a_j) = d_i cartan[i][j].
Weights carry coordinates in the fundamental weight basis; a root lattice
vector is a tuple of ints, its coordinates in the simple root basis.  The
two are related by fw = C @ root for the Cartan matrix C (root_to_fw).

Only this module maps roots to weight coordinates and builds the invariant
form on weights: build_algebra does both once, as the integer fields of
AlgebraData, using (omega_j, a_i) = d_i delta_ij (Humphreys, Introduction to
Lie Algebras and Representation Theory, section 13).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul, sub

from .invariant import check
from .linalg import matrix_inverse
from .rational import exact

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
    """Immutable root datum of a simple Lie algebra.

    Besides the Cartan data it holds the integer root data that
    inner_product and the character engines read: roots_fw, the positive
    roots in fundamental-weight coordinates (in positive_roots order, so
    theta is roots_fw[-1]); weight_form, the invariant form on fundamental
    coordinates times form_scale, the least integer that clears its
    denominators; root_pairings, one vector per root alpha with
    x . pairing = form_scale (x, alpha); and ldl, the factors (d, u) of
    _ldl_from_last(gram_root) that enumerate_root_lattice_ball walks on.
    """

    __slots__ = (
        "series", "rank", "cartan", "d", "cartan_inv", "gram_root",
        "positive_roots", "highest_root", "dual_coxeter", "dim",
        "roots_fw", "weight_form", "form_scale", "root_pairings", "ldl",
    )

    def __init__(self, series, rank, cartan, d, cartan_inv, gram_root,
                 positive_roots, highest_root, dual_coxeter, dim,
                 roots_fw, weight_form, form_scale, root_pairings, ldl):
        self.series = series
        self.rank = rank
        self.cartan = cartan  # cartan[i][j] = <a_j, a_i-check>
        self.d = d  # symmetrizers (a_i, a_i)/2
        self.cartan_inv = cartan_inv
        self.gram_root = gram_root  # (a_i, a_j)
        self.positive_roots = positive_roots  # simple-root coords, by height
        self.highest_root = highest_root
        self.dual_coxeter = dual_coxeter
        self.dim = dim
        self.roots_fw = roots_fw
        self.weight_form = weight_form
        self.form_scale = form_scale
        self.root_pairings = root_pairings
        self.ldl = ldl

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


def root_to_fw(cartan, mu):
    """The fundamental-weight coordinates C @ mu of the root lattice vector mu."""
    return tuple(sum(map(mul, row, mu)) for row in cartan)


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
    # sanity: symmetric, and positive definite (checked by _ldl_from_last)
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
    cartan_inv = matrix_inverse(cartan)
    # (x, y) = sum_jk x_j d_j cartan_inv[j][k] y_k on fundamental coordinates
    form = [[d[j] * cartan_inv[j][k] for k in range(rank)] for j in range(rank)]
    scale = lcm(*(x.denominator for row in form for x in row))
    # (omega_j, a_i) = d_i delta_ij, so (x, alpha) = sum_j x_j d_j alpha_j
    # for alpha in simple-root coordinates
    pairings = [[d[j] * scale * a[j] for j in range(rank)] for a in pos]
    check(all(x.denominator == 1 for row in pairings for x in row),
          "scaled root pairings are not integral")
    return AlgebraData(
        series=series,
        rank=rank,
        cartan=cartan,
        d=d,
        cartan_inv=cartan_inv,
        gram_root=gram_root,
        positive_roots=pos,
        highest_root=theta,
        dual_coxeter=h_dual,
        dim=rank + 2 * len(pos),
        roots_fw=tuple(root_to_fw(cartan, a) for a in pos),
        weight_form=tuple(tuple(int(x * scale) for x in row) for row in form),
        form_scale=scale,
        root_pairings=tuple(tuple(map(int, row)) for row in pairings),
        ldl=_ldl_from_last(gram_root),
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


def inner_product(x: Weight, y: Weight) -> Fraction:
    """Invariant form (x, y), long roots normalized to (a, a) = 2."""
    if x.algebra != y.algebra:
        raise ValueError("weights live in different algebras")
    form = x.algebra.weight_form
    total = sum(a * sum(map(mul, row, y.coords)) for a, row in zip(x.coords, form))
    return total / x.algebra.form_scale


def norm_sq(x: Weight) -> Fraction:
    return inner_product(x, x)


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


def dominant_below(algebra: AlgebraData, top) -> set:
    """The dominant int tuples mu <= top (top - mu a sum of positive roots),
    in fundamental-weight coordinates.

    Walks down from top one positive root at a time inside the dominant
    chamber.  By Stembridge ("The partial order of dominant weights", Adv.
    Math. 1998), for dominant mu < nu some nu - alpha is dominant and >= mu,
    so the walk reaches every such mu.
    """
    steps = algebra.roots_fw
    seen = {top}
    stack = [top]
    while stack:
        u = stack.pop()
        for s in steps:
            v = tuple(map(sub, u, s))
            if min(v) >= 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _ldl_from_last(gram):
    """d, u with x^T gram x = sum_i d_i (x_i + sum_{j<i} u[i][j] x_j)^2.

    Completes the square in the last coordinate first, so the i-th square
    involves only x_0 .. x_i; every d_i > 0 since gram is positive definite.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    d = [None] * n
    u = [None] * n
    for i in range(n - 1, -1, -1):
        d[i] = a[i][i]
        check(d[i] > 0, "root Gram matrix not positive definite")
        u[i] = [a[i][j] / d[i] for j in range(i)]
        for j in range(i):
            for k in range(i):
                a[j][k] -= d[i] * u[i][j] * u[i][k]
    return tuple(d), tuple(map(tuple, u))


class LatticeBall(list):
    """The points of a root-lattice ball as a list of int tuples, plus
    norms[k] = scale |self[k] + shift|^2 as ints (enumerate_root_lattice_ball).
    """

    __slots__ = ("norms", "scale")


def enumerate_root_lattice_ball(algebra: AlgebraData, shift: Weight, bound):
    """All mu in the root lattice with |mu + shift|^2 <= bound, as int tuples
    in simple-root coordinates, sorted, in a LatticeBall that also holds each
    point's E |mu + shift|^2 (norms) and E (scale).

    An exact Fincke-Pohst walk ("Improved methods for calculating vectors of
    short length in a lattice", Math. Comp. 1985), on integers.  With
    y = mu + shift, |y|^2 = sum_i d_i (L_i / W_i)^2 (AlgebraData.ldl), where
    W_i clears the denominators of L_i = W_i (y_i + sum_{j<i} u_ij y_j), affine
    in mu_0 .. mu_i.  If E clears each d_i / W_i^2, then A_i = E d_i / W_i^2
    and E |y|^2 are integers.  With mu_0 .. mu_{i-1} fixed and rest =
    floor(E bound) - sum_{j<i} A_j L_j^2 >= 0, A_i L_i^2 <= rest exactly when
    |L_i| <= isqrt(rest // A_i), as L_i^2 is an integer: mu_i runs over one
    interval, no child's rest is negative, and the leaves are exactly the
    ball points, in lexicographic order (coordinate 0 is fixed first and
    each range ascends).  At a leaf, rest = floor(E bound) - sum_j A_j L_j^2
    and the sum is E |y|^2, an integer, so the norm floor(E bound) - rest is
    E |y|^2 exactly: the floor decides which points are kept, never a norm.

    A float bound is a TypeError: it would stand for a value already rounded.
    """
    bound = Fraction(exact(bound))
    n = algebra.rank
    s = shift.to_root_coords()
    d, u = algebra.ldl
    t = [s[i] + sum(map(mul, u[i], s)) for i in range(n)]
    w = [lcm(t[i].denominator, *(x.denominator for x in u[i])) for i in range(n)]
    rows = [[int(x * wi) for x in row] for row, wi in zip(u, w)]
    offsets = [int(ti * wi) for ti, wi in zip(t, w)]
    terms = [di / (wi * wi) for di, wi in zip(d, w)]
    scale = lcm(*(x.denominator for x in terms))
    a = [int(x * scale) for x in terms]
    out = LatticeBall()
    out.norms = norms = []
    out.scale = scale
    top = bound * scale // 1
    m = [0] * n

    def walk(i, rest):
        # rest: floor(scale * bound) minus a_j L_j^2 over coordinates 0 .. i-1
        base = offsets[i] + sum(map(mul, rows[i], m))
        r = isqrt(rest // a[i])
        cs = range(-((r + base) // w[i]), (r - base) // w[i] + 1)
        if i + 1 < n:
            for c in cs:
                m[i] = c
                lin = w[i] * c + base
                walk(i + 1, rest - a[i] * lin * lin)
            return
        # at the last coordinate, E |y|^2 = (top - rest) + a_i L_i^2
        done, ai, wi = top - rest, a[i], w[i]
        for c in cs:
            m[i] = c
            lin = wi * c + base
            out.append(tuple(m))
            norms.append(done + ai * lin * lin)

    if top >= 0:
        walk(0, top)
    return out
