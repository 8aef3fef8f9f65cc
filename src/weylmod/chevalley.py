"""Concrete Chevalley bases and exact matrix representations for sl2, sl3.

Structure constants, the invariant trace form and its dual basis are all
computed from the defining matrix representation, so they are consistent by
construction.  Irreducible representations are realized with an explicit
weight basis: a lowering-operator ladder for sl2, and for sl3 the cyclic
span of the highest weight line inside (defining)^(x)a (x) (dual)^(x)b for
hw = a w1 + b w2.  All entries are Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .finite_rep import weyl_dimension
from .invariant import check
from .linalg import SpanBuilder, matrix_inverse
from .root_system import AlgebraData, Weight


def _mat(n, entries):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j, v) in entries:
        m[i][j] = Fraction(v)
    return tuple(tuple(row) for row in m)


def _mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            row.append(sum(ai[t] * b[t][j] for t in range(k)))
        out.append(tuple(row))
    return tuple(out)


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _trace_prod(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


class ChevalleyBasis:
    """A Chevalley basis with exact structure constants and trace form."""

    def __init__(self, algebra: AlgebraData, names, matrices, weights, cartan_slots):
        self.algebra = algebra
        self.names = tuple(names)
        self.matrices = tuple(matrices)  # defining representation
        self.weights = tuple(weights)  # ad-weights, fundamental coords
        self.cartan_slots = tuple(cartan_slots)  # indices of h_1..h_rank
        self.dim = len(names)
        self.index = {nm: i for i, nm in enumerate(names)}
        self._compute_structure()

    def _compute_structure(self):
        d = len(self.matrices[0])
        span = SpanBuilder(d * d)
        for m in self.matrices:
            added = span.add([m[i][j] for i in range(d) for j in range(d)])
            check(added, "basis matrices are dependent")
        bracket = {}
        for p in range(self.dim):
            for q in range(self.dim):
                if p == q:
                    continue
                c = _mat_sub(
                    _mat_mul(self.matrices[p], self.matrices[q]),
                    _mat_mul(self.matrices[q], self.matrices[p]),
                )
                flat = [c[i][j] for i in range(d) for j in range(d)]
                coords = span.coords(flat)
                check(coords is not None, "bracket left the span")
                entry = {k: v for k, v in coords.items() if v}
                if entry:
                    bracket[(p, q)] = entry
        self.bracket = bracket
        form = [
            [_trace_prod(self.matrices[p], self.matrices[q]) for q in range(self.dim)]
            for p in range(self.dim)
        ]
        self.form = tuple(tuple(row) for row in form)
        dual = matrix_inverse(form)
        pairs = []
        for p in range(self.dim):
            for q in range(self.dim):
                if dual[p][q]:
                    pairs.append((p, q, dual[p][q]))
        # sum_p x_p (x) x^p = sum_{(p,q)} dual[p][q] x_p (x) x_q
        self.casimir_pairs = tuple(pairs)
        # ad-weight consistency: [h_i, x] = <wt(x), a_i-check> x
        for i, hi in enumerate(self.cartan_slots):
            for q in range(self.dim):
                ent = self.bracket.get((hi, q), {})
                expect = self.weights[q].coords[i]
                got = ent.get(q, Fraction(0))
                check(got == expect and all(k == q for k in ent), "not a weight basis")

    def bracket_list(self, p, q):
        """[x_p, x_q] as a sparse list of (index, coeff)."""
        if p == q:
            return []
        return sorted(self.bracket.get((p, q), {}).items())

    def pairing(self, p, q) -> Fraction:
        return self.form[p][q]


def _zero_weight(algebra):
    return Weight(algebra, (0,) * algebra.rank)


def chevalley_basis(algebra: AlgebraData) -> ChevalleyBasis:
    if algebra.series == "A" and algebra.rank == 1:
        return _sl2_basis(algebra)
    if algebra.series == "A" and algebra.rank == 2:
        return _sl3_basis(algebra)
    raise ValueError(
        "explicit Chevalley bases are provided for A1 and A2 only (got %s%d)"
        % (algebra.series, algebra.rank)
    )


def _sl2_basis(algebra):
    e = _mat(2, [(0, 1, 1)])
    f = _mat(2, [(1, 0, 1)])
    h = _mat(2, [(0, 0, 1), (1, 1, -1)])
    alpha = algebra.root_vector((1,)).to_weight()
    z = _zero_weight(algebra)
    return ChevalleyBasis(
        algebra,
        names=("e", "h", "f"),
        matrices=(e, h, f),
        weights=(alpha, z, -alpha),
        cartan_slots=(1,),
    )


def _sl3_basis(algebra):
    e1 = _mat(3, [(0, 1, 1)])
    e2 = _mat(3, [(1, 2, 1)])
    e12 = _mat(3, [(0, 2, 1)])
    f1 = _mat(3, [(1, 0, 1)])
    f2 = _mat(3, [(2, 1, 1)])
    f12 = _mat(3, [(2, 0, 1)])
    h1 = _mat(3, [(0, 0, 1), (1, 1, -1)])
    h2 = _mat(3, [(1, 1, 1), (2, 2, -1)])
    a1 = algebra.root_vector((1, 0)).to_weight()
    a2 = algebra.root_vector((0, 1)).to_weight()
    a12 = algebra.root_vector((1, 1)).to_weight()
    z = _zero_weight(algebra)
    return ChevalleyBasis(
        algebra,
        names=("e1", "e2", "e12", "h1", "h2", "f1", "f2", "f12"),
        matrices=(e1, e2, e12, h1, h2, f1, f2, f12),
        weights=(a1, a2, a12, z, z, -a1, -a2, -a12),
        cartan_slots=(3, 4),
    )


class Rep:
    """A finite-dimensional representation with a weight basis.

    mats[p] is the matrix of the p-th Chevalley generator: columns index
    basis vectors, x_p . b_j = sum_i mats[p][i][j] b_i.
    """

    def __init__(self, cb: ChevalleyBasis, mats, basis_weights, hw: Weight):
        self.cb = cb
        self.mats = tuple(mats)
        self.basis_weights = tuple(basis_weights)
        self.hw = hw
        self.dim = len(basis_weights)


def rep_trivial(cb: ChevalleyBasis) -> Rep:
    z = _zero_weight(cb.algebra)
    zero = ((Fraction(0),),)
    return Rep(cb, [zero] * cb.dim, [z], z)


def _sl2_ladder(cb: ChevalleyBasis, n: int) -> Rep:
    """V(n) with f v_k = (k+1) v_{k+1}, e v_k = (n-k+1) v_{k-1}."""
    dim = n + 1
    e = [[Fraction(0)] * dim for _ in range(dim)]
    f = [[Fraction(0)] * dim for _ in range(dim)]
    h = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim):
        h[k][k] = Fraction(n - 2 * k)
        if k + 1 < dim:
            f[k + 1][k] = Fraction(k + 1)
            e[k][k + 1] = Fraction(n - k)
    alg = cb.algebra
    weights = [Weight(alg, (n - 2 * k,)) for k in range(dim)]
    tup = lambda m: tuple(tuple(row) for row in m)
    return Rep(cb, (tup(e), tup(h), tup(f)), weights, Weight(alg, (n,)))


def rep_defining(cb: ChevalleyBasis) -> Rep:
    alg = cb.algebra
    ws = [Weight(alg, (1, 0)), Weight(alg, (-1, 1)), Weight(alg, (0, -1))]
    return Rep(cb, cb.matrices, ws, ws[0])


def rep_dual_defining(cb: ChevalleyBasis) -> Rep:
    alg = cb.algebra
    mats = []
    for m in cb.matrices:
        n = len(m)
        mats.append(tuple(tuple(-m[j][i] for j in range(n)) for i in range(n)))
    ws = [Weight(alg, (-1, 0)), Weight(alg, (1, -1)), Weight(alg, (0, 1))]
    return Rep(cb, mats, ws, ws[2])


class _TensorAmbient:
    """Lazy tensor product of small reps: columns applied on demand."""

    def __init__(self, factors):
        self.factors = factors
        self.dims = [f.dim for f in factors]
        self.dim = 1
        for d in self.dims:
            self.dim *= d
        self.strides = []
        s = self.dim
        for d in self.dims:
            s //= d
            self.strides.append(s)

    def encode(self, idx):
        j = 0
        for t, d in enumerate(self.dims):
            j = j * d + idx[t]
        return j

    def decode(self, j):
        out = []
        for t in range(len(self.dims) - 1, -1, -1):
            out.append(j % self.dims[t])
            j //= self.dims[t]
        out.reverse()
        return out

    def weight(self, j):
        idx = self.decode(j)
        w = self.factors[0].basis_weights[idx[0]]
        for t in range(1, len(self.factors)):
            w = w + self.factors[t].basis_weights[idx[t]]
        return w

    def apply(self, p, vec: dict) -> dict:
        """x_p . vec by the Leibniz rule across tensor slots."""
        out = {}
        for j, x in vec.items():
            idx = self.decode(j)
            for t, f in enumerate(self.factors):
                m = f.mats[p]
                jt = idx[t]
                st = self.strides[t]
                for i in range(f.dim):
                    v = m[i][jt]
                    if v:
                        key = j + (i - jt) * st
                        nv = out.get(key, 0) + v * x
                        if nv:
                            out[key] = nv
                        else:
                            out.pop(key, None)
        return out


_SL3_HW_CAP = 6  # ambient tensor space is 3^(a+b)


def build_irrep(cb: ChevalleyBasis, hw: Weight) -> Rep:
    """Exact irreducible representation L(hw) with a weight basis."""
    alg = cb.algebra
    if not (hw.is_integral() and hw.is_dominant()):
        raise ValueError("highest weight must be dominant integral: %r" % (hw,))
    if alg.rank == 1:
        return _sl2_ladder(cb, int(hw.coords[0]))
    a, b = int(hw.coords[0]), int(hw.coords[1])
    if a + b > _SL3_HW_CAP:
        raise ValueError(
            "sl3 highest weight too large for the explicit construction"
            " (a+b <= %d required)" % _SL3_HW_CAP
        )
    if a == 0 and b == 0:
        return rep_trivial(cb)
    factors = [rep_defining(cb)] * a + [rep_dual_defining(cb)] * b
    amb = _TensorAmbient(factors)
    # highest weight line: top vector of each factor
    top = [0] * a + [2] * b
    hw_index = amb.encode(top)
    check(amb.weight(hw_index) == hw, "top tensor vector is not of weight hw")
    span = SpanBuilder(amb.dim)
    v0 = {hw_index: Fraction(1)}
    span.add(v0)
    basis = [v0]
    basis_weights = [hw]
    lowering = [cb.index[nm] for nm in ("f1", "f2", "f12")]
    queue = [0]
    while queue:
        j = queue.pop(0)
        vec = basis[j]
        for p in lowering:
            img = amb.apply(p, vec)
            if img and span.add(img):
                basis.append(img)
                basis_weights.append(basis_weights[j] + cb.weights[p])
                queue.append(len(basis) - 1)
    dim = len(basis)
    check(dim == weyl_dimension(alg, hw), "cyclic span has wrong dimension")
    mats = []
    for p in range(cb.dim):
        cols = []
        for j in range(dim):
            img = amb.apply(p, basis[j])
            coords = span.coords(img)
            check(coords is not None, "span is not g-stable")
            col = [Fraction(0)] * dim
            for k, v in coords.items():
                col[k] = v
            cols.append(col)
        mats.append(tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim)))
    return Rep(cb, mats, basis_weights, hw)


def rep_from_hw(cb: ChevalleyBasis, hw: Weight) -> Rep:
    return build_irrep(cb, hw)
