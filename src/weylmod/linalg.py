"""Exact linear algebra over Q and Q(i).

Kernels and ranks are computed by fraction-free Gaussian elimination
(Bareiss): rows are scaled to (Gaussian) integers, the elimination runs in
integer arithmetic with exact divisions, and only the final back
substitution for a nullspace basis returns to rationals.  This keeps entry
growth polynomial and avoids per-operation gcd normalization in the hot
loop.

Scalars accepted everywhere: int, Fraction, ComplexRational.
"""

from __future__ import annotations

from fractions import Fraction

from .rational import ComplexRational


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a // gcd(a, b) * b


def _row_to_pairs(row):
    """Scale a row of scalars to Gaussian integers; returns list of (a, b)."""
    den = 1
    for x in row:
        if isinstance(x, ComplexRational):
            den = _lcm(den, _lcm(x.re.denominator, x.im.denominator))
        else:
            den = _lcm(den, Fraction(x).denominator)
    out = []
    for x in row:
        if isinstance(x, ComplexRational):
            out.append((int(x.re * den), int(x.im * den)))
        else:
            f = Fraction(x) * den
            out.append((int(f), 0))
    return out


def _bareiss(rows, ncols):
    """In-place fraction-free echelon form on Gaussian-integer pair rows.

    Returns the pivot list [(row, col), ...].
    """
    m = len(rows)
    pivots = []
    r = 0
    pa, pb = 1, 0  # previous pivot, starts at 1
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if rows[i][c] != (0, 0):
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        va, vb = rows[r][c]
        nn = pa * pa + pb * pb
        for i in range(r + 1, m):
            row_i = rows[i]
            wa, wb = row_i[c]
            row_r = rows[r]
            for j in range(c + 1, ncols):
                xa, xb = row_i[j]
                ya, yb = row_r[j]
                # t = piv * x - w * y, then exact division by previous pivot
                ta = va * xa - vb * xb - (wa * ya - wb * yb)
                tb = va * xb + vb * xa - (wa * yb + wb * ya)
                if pa == 1 and pb == 0:
                    row_i[j] = (ta, tb)
                else:
                    # (ta + tb i) / (pa + pb i), exact by Sylvester's identity
                    na = ta * pa + tb * pb
                    nb = tb * pa - ta * pb
                    row_i[j] = (na // nn, nb // nn)
            row_i[c] = (0, 0)
        pivots.append((r, c))
        pa, pb = va, vb
        r += 1
        if r == m:
            break
    return pivots


def _prepare(rows):
    return [_row_to_pairs(row) for row in rows]


def rank(rows, ncols=None) -> int:
    rows = list(rows)
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(_bareiss(_prepare(rows), ncols))


def _pair_scalar(a, b):
    if b == 0:
        return Fraction(a)
    return ComplexRational(a, b)


def normalize_vector(vec):
    """Scale to integral entries with content 1 and positive leading entry.

    Leading sign convention: first nonzero entry has positive real part, or
    zero real part and positive imaginary part.  Deterministic, so kernel
    bases and JSON dumps are reproducible byte for byte.
    """
    from math import gcd

    den = 1
    for x in vec:
        if isinstance(x, ComplexRational):
            den = _lcm(den, _lcm(x.re.denominator, x.im.denominator))
        else:
            den = _lcm(den, Fraction(x).denominator)
    ints = []
    for x in vec:
        if isinstance(x, ComplexRational):
            ints.append((int(x.re * den), int(x.im * den)))
        else:
            ints.append((int(Fraction(x) * den), 0))
    g = 0
    for a, b in ints:
        g = gcd(g, gcd(abs(a), abs(b)))
    if g == 0:
        return [Fraction(0) for _ in vec]
    lead = 1
    for a, b in ints:
        if (a, b) != (0, 0):
            if a < 0 or (a == 0 and b < 0):
                lead = -1
            break
    out = []
    for a, b in ints:
        a, b = lead * a // g, lead * b // g
        out.append(_pair_scalar(a, b))
    return out


def nullspace(rows, ncols):
    """Exact right-nullspace basis of the matrix with the given rows.

    Returns normalized basis vectors (length ncols), one per free column,
    in increasing free-column order.
    """
    rows = [r for r in _prepare(rows) if any(x != (0, 0) for x in r)]
    pivots = _bareiss(rows, ncols)
    pivot_cols = [c for (_, c) in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        vc = [ComplexRational(0)] * ncols  # imaginary parts, if any
        # back-substitute pivot variables
        for (i, c) in reversed(pivots):
            if c > f:
                continue
            row = rows[i]
            s = ComplexRational(0)
            for j in range(c + 1, ncols):
                a, b = row[j]
                if a == 0 and b == 0:
                    continue
                xj = vc[j] + v[j]
                s = s + ComplexRational(a, b) * xj
            pa, pb = row[c]
            x = -s / ComplexRational(pa, pb)
            if x.im == 0:
                v[c] = x.re
            else:
                vc[c] = x
        vec = []
        for j in range(ncols):
            x = vc[j] + v[j]
            vec.append(x.re if x.im == 0 else x)
        basis.append(normalize_vector(vec))
    return basis


def matrix_inverse(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    a = [
        [Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        a[c], a[pr] = a[pr], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(a[i][n + j] for j in range(n)) for i in range(n))


class SpanBuilder:
    """Incremental exact row reduction with coordinate tracking.

    Maintains a reduced spanning set of the vectors added so far; coords()
    expresses a vector as an exact combination of the added generators or
    reports that it lies outside the span.  Vectors may be passed as lists
    or as sparse {index: value} dicts; all internal work is sparse.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivot_rows = {}  # pivot index -> (sparse row, combo dict)
        self.n_added = 0

    @staticmethod
    def _sparse(vec):
        if isinstance(vec, dict):
            return {k: v for k, v in vec.items() if v}
        return {i: x for i, x in enumerate(vec) if x}

    def _reduce(self, vec, combo):
        vec = self._sparse(vec)
        # pivot rows have their leading entry at the pivot index, so one
        # ascending pass fully reduces
        for p in sorted(self.pivot_rows):
            x = vec.get(p)
            if not x:
                continue
            row, rcombo = self.pivot_rows[p]
            for k, v in row.items():
                nv = vec.get(k, 0) - x * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
            for k, c in rcombo.items():
                combo[k] = combo.get(k, 0) - x * c
        return vec, combo

    def add(self, vec) -> bool:
        """Add a generator; True if it enlarged the span.

        Dependent vectors are discarded and do not consume a generator
        index, so coords() keys match the order of successful adds.
        """
        tag = self.n_added
        vec, combo = self._reduce(vec, {tag: Fraction(1)})
        if not vec:
            return False
        self.n_added += 1
        p = min(vec)
        inv = 1 / vec[p]
        vec = {k: x * inv for k, x in vec.items()}
        combo = {k: c * inv for k, c in combo.items() if c}
        self.pivot_rows[p] = (vec, combo)
        return True

    def rank(self) -> int:
        return len(self.pivot_rows)

    def contains(self, vec) -> bool:
        red, _ = self._reduce(vec, {})
        return not red

    def coords(self, vec):
        """Coefficients over added-generator indices, or None if outside."""
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return {k: -c for k, c in combo.items() if c}
