"""Finite root system data for the simple Lie types A-G.

Conventions.  cartan[i][j] = 2(a_i, a_j)/(a_i, a_i) = <a_j, a_i-check>,
and the invariant form is normalized so long roots have (a, a) = 2.  The
symmetrizers d_i = (a_i, a_i)/2 then satisfy (a_i, a_j) = d_i cartan[i][j].
Weights carry coordinates in the fundamental weight basis; a root lattice
vector is a tuple of ints, its coordinates in the simple root basis.  The
two are related by fw = C @ root for the Cartan matrix C; for the positive
roots, the walk that finds them (_positive_roots) carries both.

Only this module maps roots to weight coordinates and builds the invariant
form on weights: the AlgebraData constructor does both once, as its integer
fields, using (omega_j, a_i) = d_i delta_ij (Humphreys, Introduction to Lie
Algebras and Representation Theory, section 13).  It computes every field
from the series and rank, and build_algebra caches one datum per pair.
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
# A-D are capped where `algebra S R --format json` still takes well under 2 s
_SERIES_MAX_RANK = {"A": 64, "B": 64, "C": 64, "D": 64, "E": 8, "F": 4, "G": 2}


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
    """Immutable root datum of a simple Lie algebra, computed from the series
    and rank alone; build_algebra is the cached way to get one.

    Besides the Cartan data it holds the integer root data that
    inner_product and the character engines read: positive_roots and
    roots_fw, the positive roots in simple-root and in fundamental-weight
    coordinates, both from one walk on cartan_cols sorted by height (so
    theta is roots_fw[-1]); weight_form, the invariant form on fundamental
    coordinates times form_scale, the least integer that clears its
    denominators; root_pairings, one vector per root alpha with
    x . pairing = form_scale (x, alpha); cartan_cols, the nonzero entries
    (j, cartan[j][i]) of each Cartan column i, on which every simple
    reflection s_i acts (_positive_roots, dominant_coords, orbit_coords);
    and ldl, the factors (d, u) of _ldl_from_last(gram_root) that
    enumerate_root_lattice_ball walks on.  A series other than A-G (in
    either case), a rank that is not an int (bool included) or a rank
    outside the series' range (at most 64 for A-D) is a ValueError.
    """

    __slots__ = (
        "series", "rank", "cartan", "d", "cartan_inv", "gram_root",
        "positive_roots", "highest_root", "dual_coxeter", "dim",
        "roots_fw", "weight_form", "form_scale", "root_pairings", "cartan_cols",
        "ldl",
    )

    def __init__(self, series: str, rank: int):
        if not isinstance(series, str) or series.upper() not in _SERIES_MIN_RANK:
            raise ValueError("unknown series %r; expected one of A B C D E F G" % (series,))
        if type(rank) is not int:
            raise ValueError("rank must be an integer, got %r" % (rank,))
        self.series = series = series.upper()
        if not _SERIES_MIN_RANK[series] <= rank <= _SERIES_MAX_RANK[series]:
            raise ValueError("invalid rank %d for series %s" % (rank, series))
        self.rank = r = rank
        self.cartan = cartan = _cartan_matrix(series, r)  # <a_j, a_i-check>
        self.d = d = _symmetrizers(cartan)  # (a_i, a_i)/2
        # (a_i, a_j); positive definite, which _ldl_from_last checks
        self.gram_root = gram = tuple(
            tuple(d[i] * cartan[i][j] for j in range(r)) for i in range(r)
        )
        check(all(gram[i][j] == gram[j][i] for i in range(r) for j in range(r)),
              "root Gram matrix not symmetric")
        self.ldl = _ldl_from_last(gram)
        self.cartan_cols = cols = tuple(
            tuple((j, cartan[j][i]) for j in range(r) if cartan[j][i])
            for i in range(r)
        )
        pos, self.roots_fw = _positive_roots(cols)  # both by height
        self.positive_roots = pos
        tops = [a for a in pos if sum(a) == sum(pos[-1])]
        check(len(tops) == 1, "highest root must be unique")
        self.highest_root = theta = tops[0]
        self.dual_coxeter = h_dual = Fraction(1) + sum(theta[j] * d[j] for j in range(r))
        check(h_dual.denominator == 1, "dual Coxeter number is not an integer")
        self.dim = r + 2 * len(pos)
        self.cartan_inv = inv = matrix_inverse(cartan)
        # (x, y) = sum_jk x_j d_j cartan_inv[j][k] y_k on fundamental coordinates
        form = [[d[j] * inv[j][k] for k in range(r)] for j in range(r)]
        self.form_scale = scale = lcm(*(x.denominator for row in form for x in row))
        self.weight_form = tuple(tuple(int(x * scale) for x in row) for row in form)
        # (omega_j, a_i) = d_i delta_ij, so (x, alpha) = sum_j x_j d_j alpha_j
        # for alpha in simple-root coordinates; alpha_j is a root, so
        # d_j scale is an integer exactly when every pairing is
        dj = [x * scale for x in d]
        check(all(x.denominator == 1 for x in dj), "scaled root pairings are not integral")
        dj = tuple(map(int, dj))
        self.root_pairings = tuple(tuple(map(mul, dj, a)) for a in pos)

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


def _positive_roots(cols):
    """The positive roots in simple-root and in fundamental coordinates, by
    (height, coordinates), from the Cartan columns cols.

    Fundamental coordinate i of a root beta is <beta, a_i-check>; where it is
    c < 0, s_i beta = beta - c a_i is a higher root, whose coordinates move
    as in dominant_coords.  A non-simple positive root pairs positively with
    some a_i, and s_i lowers it to a positive root, so the walk up from the
    simple roots meets every positive root (Humphreys, sections 10.2-10.3).
    """
    r = len(cols)
    fw = {}
    for i, col in enumerate(cols):
        col = dict(col)
        fw[tuple(int(i == j) for j in range(r))] = tuple(col.get(j, 0) for j in range(r))
    stack = list(fw)
    while stack:
        beta = stack.pop()
        v = fw[beta]
        for i, c in enumerate(v):
            if c >= 0:
                continue
            up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
            if up not in fw:
                w = list(v)
                for j, a in cols[i]:
                    w[j] -= c * a
                fw[up] = tuple(w)
                stack.append(up)
    pos = tuple(sorted(fw, key=lambda a: (sum(a), a)))
    return pos, tuple(fw[a] for a in pos)


@lru_cache(maxsize=None, typed=True)
def build_algebra(series: str, rank: int) -> AlgebraData:
    """The root datum AlgebraData(series, rank), built once per argument
    pair; typed, so True never finds the entry of 1."""
    return AlgebraData(series, rank)


class Weight:
    """A rational weight in fundamental-weight coordinates, held as
    Fractions.  Each coordinate goes through rational.exact, so a float or a
    string is a TypeError, as for every other scalar of the package."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: AlgebraData, coords):
        coords = tuple(Fraction(exact(c)) for c in coords)
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


def dominant_coords(algebra: AlgebraData, v, regular=False):
    """The dominant point of the Weyl orbit of the coordinate tuple v, and
    the number of simple reflections used to reach it; with regular=True,
    None as soon as a coordinate is 0.

    The one reflection kernel: s_i maps v to v - v_i A[., i], applied at
    the first negative coordinate on the nonzero entries of column i only
    (AlgebraData.cartan_cols).  Each step removes one positive root from
    those pairing negatively with v, so the count is their number whatever
    the order of steps.  A point with v_i = 0 is fixed by s_i, so its
    dominant point lies on a wall and has a zero coordinate: regular=True
    stops there.  Works on any exact coordinates (int or Fraction).
    """
    cols = algebra.cartan_cols
    v = list(v)
    n = len(v)
    count = 0
    i = 0
    while i < n:
        c = v[i]
        if c < 0:
            for j, a in cols[i]:
                v[j] -= c * a
            count += 1
            i = 0
        elif c or not regular:
            i += 1
        else:
            return None
    return tuple(v), count


def orbit_coords(algebra: AlgebraData, v) -> set:
    """The Weyl orbit of the coordinate tuple v, as a set of tuples.

    Starts from the dominant point and reflects only at positive
    coordinates: s_i fixes v when v_i = 0, and every orbit point is reached
    from the dominant one by lowering steps.
    """
    cols = algebra.cartan_cols
    top = dominant_coords(algebra, v)[0]
    seen = {top}
    stack = [top]
    while stack:
        u = stack.pop()
        for i, c in enumerate(u):
            if c > 0:
                r = list(u)
                for j, a in cols[i]:
                    r[j] -= c * a
                r = tuple(r)
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
    return seen


def orbit_size(algebra: AlgebraData, c) -> int:
    """|W c| for a dominant coordinate tuple c, without walking the orbit.

    The stabiliser of c is the parabolic W_J, J = {i : c_i = 0},
    whose positive roots are the alpha > 0 with (c, alpha) = 0.  Macdonald's
    product for the Poincare series of W ("The Poincare series of a Coxeter
    group", Math. Ann. 1972) at t = 1 gives |W_J| = prod over those alpha of
    (ht alpha + 1)/ht alpha, and likewise |W| over all alpha > 0; so |W c| is
    the product over the alpha > 0 with (c, alpha) != 0.
    """
    num = den = 1
    for root, pair in zip(algebra.positive_roots, algebra.root_pairings):
        if sum(map(mul, c, pair)):
            h = sum(root)
            num *= h + 1
            den *= h
    size, r = divmod(num, den)
    check(r == 0, "orbit size is not an integer")
    return size


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
        u[i] = ui = [a[i][j] / d[i] for j in range(i)]
        for j in range(i):
            if ui[j]:  # a zero multiplier changes no entry
                for k in range(i):
                    a[j][k] -= d[i] * ui[j] * ui[k]
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
