"""One Chevalley basis and one construction of the irreducibles, for every
simple type, driven by the Cartan matrix alone.

rep_from_hw builds L(lambda) with a weight basis, weight space by weight
space from the top down.  ChevalleyBasis(algebra), which chevalley_basis
returns, computes its names, weights and recipe from the root datum,
realises the basis on V, the fundamental representation of least dimension
(faithful, since g is simple), which it builds as rep_from_hw does, and
reads its one bracket table and the invariant form off V.  Every matrix is
column-sparse, {column: {row: value}} without zeros (see linalg), and every
scalar is held as rational.exact gives it: an int when integral, else a
Fraction.

Proof note (Humphreys, Introduction to Lie Algebras and Representation
Theory, §20-21 and §25).

* L(lambda) = U(n^-) v_lambda, so L(lambda)_mu = sum_i f_i L(lambda)_{mu+alpha_i}.
  Below the top, a vector v of L(lambda) is 0 exactly when e_j v = 0 for
  every j: a nonzero such v would generate a proper submodule.  So a linear
  relation holds among the candidates f_i b (b a basis vector of weight
  mu + alpha_i) exactly when it holds among their raising images
  (e_1 v, ..., e_r v).  These are known from the weight spaces above, by
  e_j f_i b = f_i e_j b + delta_ij <wt b, alpha_i-check> b.  One SpanBuilder
  per weight picks independent candidates as the basis of L(lambda)_mu; its
  coords give the columns of f_i, and the raising images those of e_j.  A
  new vector f_i b is scaled by 1/(p+1), p the number of steps up the
  alpha_i-string from wt b (divided powers), so for sl2 the basis is the
  ladder f v_k = (k+1) v_{k+1}, e v_k = (n-k+1) v_{k-1}.
* In a Chevalley basis [e_i, e_beta] = +-(q+1) e_{beta+alpha_i}, q the
  largest integer with beta - q alpha_i a root.  So e_alpha =
  [e_i, e_beta]/(q+1) is again a Chevalley basis vector up to sign, and
  f_alpha = [f_beta, f_i]/(q+1) = -omega(e_alpha) for the Chevalley
  involution omega, whence [e_alpha, f_alpha] = h_alpha.  Here i is the
  least index with beta = alpha - alpha_i a root.
* trace_V(xy) is an invariant form, equal to (x, y) times the Dynkin index
  dim V c(V) / dim g, c(V) the Casimir scalar of V; long roots have
  (alpha, alpha) = 2.
* Which scalars are ints.  The brackets are, by Chevalley's theorem
  (Humphreys §25.2), and so is the form, as (e_alpha, f_alpha) =
  2/(alpha, alpha); only its inverse, the Casimir weights, has
  denominators.  The matrices of L(lambda) are ints when the basis is a
  Z-basis of Kostant's lattice U_Z v_lambda (Humphreys §27): on the sl2
  ladder, and for every minuscule lambda, where each f_i b with
  <wt b, alpha_i-check> = 1 spans its weight space's lattice since
  e_i f_i b = b.  Beyond these the basis need not be a Z-basis (the adjoint
  of sl3 has entries 1/2), and such entries stay Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .finite_rep import _require_dominant_integral, casimir_on_irrep, weyl_dimension
from .invariant import check
from .linalg import _EMPTY, SpanBuilder, accumulate, apply, matrix_inverse
from .rational import exact
from .root_system import AlgebraData, Weight


def _bracket(a, b, den=1):
    """(ab - ba) / den for column-sparse matrices."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for j, col in y.items():
            acc = out.setdefault(j, {})
            for i, v in apply(x, col).items():
                accumulate(acc, i, sign * v)
    return {j: {i: exact(Fraction(v, den)) for i, v in col.items()}
            for j, col in out.items() if col}


def _trace_product(a, b):
    """trace(ab) for column-sparse matrices."""
    return sum((apply(a, col).get(j, 0) for j, col in b.items()), Fraction(0))


class ChevalleyBasis:
    """A Chevalley basis of g with exact structure constants and trace form,
    computed from the root datum alone and realised on the fundamental
    representation V of least Weyl dimension (see the module docstring).

    Basis order: e_alpha for the positive roots by height (simple roots in
    index order), then h_1..h_rank, then f_alpha in the order of the e's.
    A name is e, h or f followed by the simple-root indices with
    multiplicity ("e12", "e122"), with no index at rank 1.
    recipe[k] = (i, b, q + 1) defines the root vector of the non-simple
    root k + rank as the bracket of simple vector i with root vector b,
    divided by q + 1.  brackets is the one bracket table: [x_p, x_q] as a
    tuple of (index, coeff) sorted by index, under both keys (p, q) and
    (q, p), for every nonzero bracket; bracket_list reads it.
    """

    def __init__(self, algebra: AlgebraData):
        r = algebra.rank
        # by height; within a height in decreasing lexicographic order, so the
        # simple roots come first, in index order
        roots = sorted(algebra.positive_roots, key=lambda a: (sum(a), [-c for c in a]))

        def name(letter, root):
            return letter + ("".join(str(i + 1) * c for i, c in enumerate(root))
                             if r > 1 else "")

        fw = dict(zip(algebra.positive_roots, algebra.roots_fw))
        pos = [fw[a] for a in roots]
        self.algebra = algebra
        self.names = tuple([name("e", a) for a in roots]
                           + (["h"] if r == 1 else ["h%d" % (i + 1) for i in range(r)])
                           + [name("f", a) for a in roots])
        # ad-weights: int tuples, fundamental coords
        self.weights = tuple(pos + [(0,) * r] * r + [tuple(-c for c in w) for w in pos])
        self.recipe = tuple(_recipe(roots, r))
        self.dim = dim = len(self.names)
        self.cartan_slots = tuple(range(len(roots), len(roots) + r))
        self.index = {nm: i for i, nm in enumerate(self.names)}

        # brackets and form from the matrices of the basis on V = L(v_hw)
        fundamentals = [Weight(algebra, [int(i == k) for i in range(r)]) for k in range(r)]
        v_hw = min(fundamentals, key=lambda w: weyl_dimension(algebra, w))
        _, mats = _irrep(algebra, self.recipe, tuple(int(c) for c in v_hw.coords))
        d = weyl_dimension(algebra, v_hw)

        def flat(m):
            return {j * d + i: v for j, col in m.items() for i, v in col.items()}

        span = SpanBuilder()
        for m in mats:
            check(span.add(flat(m)), "basis matrices are dependent")
        self.brackets = brackets = {}
        for p in range(dim):
            for q in range(p + 1, dim):
                coords = span.coords(flat(_bracket(mats[p], mats[q])))
                check(coords is not None, "bracket left the span")
                entry = tuple(sorted((k, exact(v)) for k, v in coords.items() if v))
                if entry:
                    brackets[p, q] = entry
                    brackets[q, p] = tuple((k, -v) for k, v in entry)
        v_index = d * casimir_on_irrep(algebra, v_hw) / algebra.dim
        self.form = form = tuple(
            tuple(exact(_trace_product(mats[p], mats[q]) / v_index) for q in range(dim))
            for p in range(dim)
        )
        dual = matrix_inverse(form)
        # sum_p x_p (x) x^p = sum_{(p,q)} dual[p][q] x_p (x) x_q
        self.casimir_pairs = tuple(
            (p, q, exact(dual[p][q])) for p in range(dim) for q in range(dim) if dual[p][q]
        )
        for i, hi in enumerate(self.cartan_slots):
            # (h_i, h_j) = (alpha_i-check, alpha_j-check) = cartan[i][j] / d_j
            for j, hj in enumerate(self.cartan_slots):
                check(form[hi][hj] == algebra.cartan[i][j] / algebra.d[j],
                      "trace form is not the normalized invariant form")
            # ad-weight consistency: [h_i, x] = <wt(x), a_i-check> x
            for q in range(dim):
                ent = dict(self.bracket_list(hi, q))
                check(ent.get(q, 0) == self.weights[q][i] and all(k == q for k in ent),
                      "not a weight basis")

    def bracket_list(self, p, q):
        """[x_p, x_q] as a sorted tuple of (index, coeff): the held entry of
        brackets, or () when the bracket is 0."""
        return self.brackets.get((p, q), ())

    def pairing(self, p, q):
        return self.form[p][q]


def _recipe(roots, rank):
    """(i, b, q + 1) for each non-simple root, as in ChevalleyBasis."""
    where = {r: k for k, r in enumerate(roots)}

    def minus(root, i, times):
        return tuple(c - times * (j == i) for j, c in enumerate(root))

    steps = []
    for alpha in roots[rank:]:
        i = next(i for i in range(rank) if minus(alpha, i, 1) in where)
        beta = minus(alpha, i, 1)
        q = 0
        while minus(beta, i, q + 1) in where:
            q += 1
        steps.append((i, where[beta], q + 1))
    return steps


def _irrep(algebra: AlgebraData, recipe, top):
    """Weights (int tuples) and column-sparse matrices of the basis of g on
    L(top), in basis order; see the module docstring."""
    cartan = algebra.cartan
    r = algebra.rank
    alphas = [tuple(cartan[j][i] for j in range(r)) for i in range(r)]

    def add(w, a, times=1):
        return tuple(x + times * y for x, y in zip(w, a))

    dim = weyl_dimension(algebra, Weight(algebra, top))
    weights = [top]
    space = {top: range(1)}  # weight -> indices of its basis vectors
    e = [{} for _ in range(r)]
    f = [{} for _ in range(r)]
    layer = [top]
    while layer:
        # a wrong action would never reach a zero weight space; stop it here
        check(len(weights) <= dim, "L(lambda) has the wrong dimension")
        below = dict.fromkeys(add(nu, a, -1) for nu in layer for a in alphas)
        layer = []
        for mu in below:
            start = len(weights)
            span = SpanBuilder()
            for i, a in enumerate(alphas):
                nu = add(mu, a)
                p = 0
                while add(nu, a, p + 1) in space:
                    p += 1
                scale = Fraction(1, p + 1)
                for b in space.get(nu, ()):
                    # raising image of f_i b / (p + 1), keyed by basis index:
                    # e_j f_i b = f_i e_j b + delta_ij <nu, alpha_i-check> b
                    img = {b: nu[i]} if nu[i] else {}
                    for j in range(r):
                        for s, v in apply(f[i], e[j].get(b, _EMPTY)).items():
                            accumulate(img, s, v)
                    img = {s: exact(v * scale) for s, v in img.items()}
                    if span.add(img):
                        f[i][b] = {len(weights): p + 1}
                        for j, aj in enumerate(alphas):
                            up = space.get(add(mu, aj), ())
                            col = {s: v for s, v in img.items() if s in up}
                            if col:
                                e[j][len(weights)] = col
                        weights.append(mu)
                        continue
                    col = {start + k: exact((p + 1) * v)
                           for k, v in span.coords(img).items() if v}
                    if col:
                        f[i][b] = col
            if len(weights) > start:
                space[mu] = range(start, len(weights))
                layer.append(mu)
    check(len(weights) == dim, "L(lambda) has the wrong dimension")
    h = [
        {n: {n: w[i]} for n, w in enumerate(weights) if w[i]}
        for i in range(r)
    ]
    pos, neg = e[:], f[:]
    for i, b, den in recipe:
        pos.append(_bracket(e[i], pos[b], den))
        neg.append(_bracket(neg[b], f[i], den))
    return weights, pos + h + neg


def chevalley_basis(algebra: AlgebraData) -> ChevalleyBasis:
    """The Chevalley basis of g described in ChevalleyBasis."""
    return ChevalleyBasis(algebra)


class Rep:
    """A finite-dimensional representation with a weight basis.

    mats[p] is the column-sparse matrix of the p-th Chevalley generator,
    {j: {i: c}} for x_p . b_j = sum_i c b_i, with no zero entries; the
    weight of b_j is basis_weights[j], an int tuple (fundamental coords).
    """

    def __init__(self, cb: ChevalleyBasis, mats, basis_weights, hw: Weight):
        self.cb = cb
        self.mats = tuple(mats)
        self.basis_weights = tuple(basis_weights)
        self.hw = hw
        self.dim = len(basis_weights)


def rep_from_hw(cb: ChevalleyBasis, hw: Weight) -> Rep:
    """Exact irreducible representation L(hw) with a weight basis."""
    _require_dominant_integral(cb.algebra, hw)
    weights, mats = _irrep(cb.algebra, cb.recipe, tuple(int(c) for c in hw.coords))
    return Rep(cb, mats, weights, hw)
