"""Exact linear algebra over Q and Q(i).

One elimination kernel does all the work: SpanBuilder, a sparse,
incremental, fraction-free (Bareiss) row reduction on Gaussian integers.
Every input vector is scaled to Gaussian integers, held as pairs (a, b)
for a + bi, and augmented by a unit vector naming it, so one reduction
yields spans, coordinates and linear relations.  nullspace, rank and
matrix_inverse are thin uses of it.  nullspace_of_columns takes the
columns of a sparse matrix straight, and nullspace is a wrapper over it.

Stage k holds a pivot column c_k, the pivot p_k != 0 and its row (with
the augmentation) as reduced by stages 1..k-1.  A vector v passes stage k
as v <- (p_k v - v[c_k] row_k) / p_{k-1}, with p_0 = 1.  By Sylvester's
identity every entry so produced is a minor of the matrix of rows seen so
far (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968), so each division is exact,
entries grow only like minors, and the loop takes no gcd.

Stages are skipped lazily.  If v[c_k] = 0, stage k would only multiply v
by p_k / p_{k-1}; these factors telescope, so a vector skips the stage and
the next stage it does pass divides by the pivot of the last stage it
passed instead of by p_{k-1}.  A row that survives every stage is raised
by p_last / p_passed before it is stored, which puts it back at the exact
Bareiss scale.

Scalars accepted everywhere: int, Fraction, ComplexRational; ints are the
fast case, since _scaled then needs no denominator.  nullspace,
SpanBuilder.coords and matrix_inverse return Fraction, or ComplexRational
when not real; accumulate and apply return whatever the arithmetic of their
inputs gives, so ints stay ints.  Never float.

independent_mod_p is a filter in front of that kernel: it reduces the
columns modulo the fixed prime FILTER_PRIME = 1 (mod 4), with i sent to a
square root FILTER_I of -1.  That is a ring map from the Gaussian rationals
whose denominators are prime to p onto F_p, so a nonzero maximal minor mod p
is nonzero over Q(i) (Dixon, "Exact solution of linear equations using
p-adic expansions", Numer. Math. 1982).  So "independent" is a proof, and
anything else only sends the columns on to the exact kernel.

The package's one sparse format lives here too: a vector is {index: value}
and a matrix is column-sparse, {column: {row: value}}, both holding only
nonzero entries.  accumulate and apply are the shared helpers on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rational import ComplexRational

# p = 10^9 + 9 keeps residues below 2^30, one machine digit.  2 is a square
# mod p, so 2^((p-1)/4) is not a root of -1; 11 is a non-square, and
# FILTER_I = 11^((p-1)/4) mod p.  test_linalg checks that p is a prime
# = 1 (mod 4) and that FILTER_I^2 = -1 (mod p).
FILTER_PRIME = 1000000009
FILTER_I = 569522298


_ZERO = (0, 0)
_ONE = (1, 0)
_EMPTY = {}  # shared empty column; never mutated


def accumulate(table, key, value):
    """table[key] += value, with no zero ever stored."""
    cur = table.get(key)
    if cur is None:
        if value:
            table[key] = value
    else:
        cur = cur + value
        if cur:
            table[key] = cur
        else:
            del table[key]


def apply(columns, vec):
    """A column-sparse matrix {column: {row: value}} on a sparse vector."""
    out = {}
    for idx, c in vec.items():
        for t, v in columns.get(idx, _EMPTY).items():
            accumulate(out, t, c * v)
    return out


def _scaled(vec):
    """({index: (a, b)}, den) with vec[index] = (a + b i) / den; zeros dropped.

    vec is a list or a sparse {index: value} dict; den is the least common
    denominator of its entries.
    """
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    parts = []
    den = 1
    for k, x in items:
        if x:
            re, im = (x.re, x.im) if isinstance(x, ComplexRational) else (x, 0)
            den = lcm(den, re.denominator, im.denominator)
            parts.append((k, re, im))
    return {
        k: (re.numerator * (den // re.denominator),
            im.numerator * (den // im.denominator))
        for k, re, im in parts
    }, den


def _step(p, u, x, w, q):
    """(p u - x w) / q on sparse Gaussian-integer rows; the division is exact."""
    pa, pb = p
    xa, xb = x
    out = {k: (pa * a - pb * b, pa * b + pb * a) for k, (a, b) in u.items()}
    for k, (a, b) in w.items():
        ta, tb = out.get(k, _ZERO)
        out[k] = (ta - xa * a + xb * b, tb - xa * b - xb * a)
    qa, qb = q
    if qb:
        n = qa * qa + qb * qb
        return {k: ((a * qa + b * qb) // n, (b * qa - a * qb) // n)
                for k, (a, b) in out.items() if a or b}
    return {k: (a // qa, b // qa) for k, (a, b) in out.items() if a or b}


def _scalar(re, im):
    return ComplexRational(re, im) if im else Fraction(re)


class SpanBuilder:
    """Incremental exact span of generators, with coordinates and relations.

    add() appends a generator; coords() expresses a vector as an exact
    combination of the generators added so far, or reports that it lies
    outside their span.  Vectors may be passed as lists or as sparse
    {index: value} dicts; all internal work is sparse.
    """

    def __init__(self):
        self.stages = []  # (pivot column, pivot, row, augmentation)
        self.n_added = 0

    def _reduce(self, vec, tag):
        """Reduce vec augmented by its denominator at tag (None: no augmentation).

        Returns (row, aug, q): the reduced row and augmentation, both at the
        scale of the last stage passed, whose pivot is q.  Throughout,
        row = sum of aug[k] * (generator k), with tag standing for vec.
        """
        row, den = _scaled(vec)
        aug = None if tag is None else {tag: (den, 0)}
        q = _ONE
        for c, p, srow, saug in self.stages:
            x = row.get(c)
            if x is not None:
                row = _step(p, row, x, srow, q)
                if aug is not None:
                    aug = _step(p, aug, x, saug, q)
                q = p
        return row, aug, q

    def _add(self, vec):
        """Store vec as generator n_added if it enlarges the span; return None.

        Otherwise return a relation {generator: Gaussian integer} whose
        combination of generators is zero; the key n_added stands for vec.
        """
        row, aug, q = self._reduce(vec, self.n_added)
        if not row:
            return aug
        if self.stages and self.stages[-1][1] != q:
            p = self.stages[-1][1]
            row = _step(p, row, _ZERO, {}, q)
            aug = _step(p, aug, _ZERO, {}, q)
        c = min(row)
        self.stages.append((c, row[c], row, aug))
        self.n_added += 1
        return None

    def add(self, vec) -> bool:
        """Add a generator; True if it enlarged the span.

        Dependent vectors are discarded and do not consume a generator
        index, so coords() keys match the order of successful adds.
        """
        return self._add(vec) is None

    def rank(self) -> int:
        return len(self.stages)

    def contains(self, vec) -> bool:
        return not self._reduce(vec, None)[0]

    def coords(self, vec):
        """Coefficients over added-generator indices, or None if outside."""
        row, aug, _ = self._reduce(vec, self.n_added)
        if row:
            return None
        c, d = aug.pop(self.n_added)
        n = c * c + d * d
        return {
            k: _scalar(Fraction(-a * c - b * d, n), Fraction(a * d - b * c, n))
            for k, (a, b) in aug.items()
        }


def _canonical(pairs):
    """Content 1 and a positive leading entry, as Fraction/ComplexRational."""
    g = gcd(*(x for pair in pairs for x in pair))
    if not g:
        return [Fraction(0)] * len(pairs)
    a, b = next(pair for pair in pairs if pair != _ZERO)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return [_scalar(a // g, b // g) for a, b in pairs]


def rank(rows) -> int:
    """Rank of the matrix with the given rows: the number of stages."""
    span = SpanBuilder()
    for row in rows:
        span.add(row)
    return span.rank()


def nullspace_of_columns(columns):
    """Exact kernel of the map sending unit vector c to the vector columns[c].

    columns is a sequence of sparse {row key: value} dicts, with mutually
    comparable row keys.  They are added to one SpanBuilder in order.  A
    column in the span of those before it is free, and its relation is its
    kernel vector.  Returns normalized basis vectors (length len(columns)),
    one per free column, in increasing free-column order.
    """
    span = SpanBuilder()
    pivots = []  # column of each generator
    basis = []
    for c, col in enumerate(columns):
        relation = span._add(col)
        if relation is None:
            pivots.append(c)
            continue
        # times the conjugate of the entry at c, so that entry is rational
        ta, tb = relation[len(pivots)]
        vec = [_ZERO] * len(columns)
        for k, (a, b) in relation.items():
            vec[pivots[k] if k < len(pivots) else c] = (a * ta + b * tb, b * ta - a * tb)
        basis.append(_canonical(vec))
    return basis


def nullspace(rows, ncols):
    """Exact right-nullspace basis of the matrix with the given rows, as
    nullspace_of_columns gives it for the matrix's columns."""
    rows = list(rows)
    return nullspace_of_columns(
        [{i: row[c] for i, row in enumerate(rows) if row[c]} for c in range(ncols)]
    )


def _mod_p(x):
    """x in F_p under i -> FILTER_I, or None when p divides a denominator."""
    p = FILTER_PRIME
    if type(x) is int:
        return x % p
    re, im = (x.re, x.im) if isinstance(x, ComplexRational) else (x, 0)
    out = 0
    for part, unit in ((re, 1), (im, FILTER_I)):
        den = part.denominator
        if den % p == 0:
            return None
        out += part.numerator * unit * pow(den, -1, p)
    return out % p


def independent_mod_p(columns) -> bool:
    """True only if the sparse columns are linearly independent over Q(i).

    The columns, {row key: value} as in nullspace_of_columns, are reduced
    mod FILTER_PRIME (see the module docstring).  True means full column rank
    mod p, which proves independence.  False means "not shown independent":
    the columns are dependent mod p, or p divides a denominator.  Only the
    exact kernel can then tell.
    """
    p = FILTER_PRIME
    stages = []  # (pivot key, reduced column scaled to 1 at its pivot)
    for col in columns:
        vec = {}
        for k, x in col.items():
            r = _mod_p(x)
            if r is None:
                return False
            if r:
                vec[k] = r
        for key, row in stages:
            x = vec.get(key)
            if x:
                for k, v in row.items():
                    r = (vec.get(k, 0) - x * v) % p
                    if r:
                        vec[k] = r
                    else:
                        del vec[k]
        if not vec:
            return False
        key = min(vec)
        inv = pow(vec[key], -1, p)
        stages.append((key, {k: v * inv % p for k, v in vec.items()}))
    return True


def matrix_inverse(rows):
    """Exact inverse of a square matrix: row j holds the coords of e_j."""
    n = len(rows)
    span = SpanBuilder()
    for row in rows:
        if not span.add(row):
            raise ValueError("matrix is singular")
    zero = Fraction(0)
    return tuple(
        tuple(coords.get(i, zero) for i in range(n))
        for coords in (span.coords({j: 1}) for j in range(n))
    )
