"""Explicit truncated realization of Weyl modules over loop algebras of a
simple g with dim g <= 64.

The induced module Ind(M)_kappa is, by PBW, free as a module over the
enveloping algebra of the negative-mode half: a basis of the degree-n layer is

    (x_{p_1} eps^{-k_1}) ... (x_{p_r} eps^{-k_r}) (x) m_j,
    k_1 >= k_2 >= ... >= k_r >= 1,  sum k_i = n,

with x_p running over a fixed Chevalley basis of g and m_j over a weight basis
of M, both built from the Cartan matrix by the chevalley module.  We
materialize all layers up to a depth N and, once at construction, straighten
the action of every x eps^m with |m| <= N back into this basis using

    [x eps^a, y eps^b] = [x, y] eps^{a+b} + a delta_{a,-b} (x, y) K,

with K acting by the scalar kappa - h_dual.  The zero modes act through M
and the positive modes kill it.  The module holds each PBW monomial once,
in basis order (monos), and no table per basis vector: vector i is
monos[b] (x) m_j for b, j = divmod(i, dim M).  The straightening runs on
integers, in the store's layout: each monomial is numbered by its position
b, and each term of the recursion is one int, a basis index when the M slot
is the identity (see _straighten).  The result is one column-sparse action
store, the very dicts the recursion memoised: every operator below reads it,
and none writes.  All coefficients are exact, and the store holds each in
the canonical form rational.exact gives: an int when integral, a Fraction
when rational, a ComplexRational only when its imaginary part is nonzero;
x.real and x.imag read the parts of any of them.  Every entry is a sum of
products of brackets, matrix entries of M and central terms m (x, y)
(kappa - h_dual).  The brackets are ints, and so are the matrices of M on
the sl2 ladder and for minuscule M (see chevalley), so there only the
central term can bring a denominator or i into the store.

On top of the raw action the module offers the brute-force oracles used to
cross-check the resonance bookkeeping: the normally-ordered Sugawara L0, the
Virasoro commutator identity [L0, x eps^m] = -m x eps^m, exact singular-vector
kernels, and the nested annihilators V(N') of positive-degree monomials
together with the exactness check ker(V(N') -> Hom(g, V(N'-1))) = V(1).

Singular vectors come two ways.  singular_vectors solves for full bases in
every weight space, with all dim g raising modes x eps.  singular_dimensions,
which the command line uses, gives only the dimensions: the kernel is a
g-module, so it solves for its highest-weight vectors on the dominant weight
spaces alone, with the r + 1 operators e_i and f_theta eps, and reads the
other weights off the characters of the irreducibles they generate.  A mod-p
rank test (linalg.independent_mod_p) settles most of these blocks; it can
only prove a kernel zero, and every other block is solved exactly, so the
dimensions are exact.  The same test sits in front of the exact solve of
each weight block of the annihilators V(order).  _matched reads the
candidate of each finding off its weight: the module holds no lattice scan.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add

from .affine_numerics import CandidatePair, top_l0_eigenvalue
from .chevalley import chevalley_basis, rep_from_hw
from .finite_rep import (_norm_rho, _require_dominant_integral, casimir_on_irrep,
                         irrep_character)
from .graded_sym import sym_ad_graded
from .invariant import check
from .linalg import (
    _EMPTY,
    SpanBuilder,
    accumulate,
    apply,
    independent_mod_p,
    nullspace,  # noqa: F401  (bound here for tools that wrap it per module)
    nullspace_of_columns,
)
from .rational import SCALAR_TYPES, exact, format_scalar, parse_int
from .root_system import Weight

DEPTH_CAP_ENV = "WEYLMOD_DEPTH_CAP"
_DEFAULT_DEPTH_CAP = 6

# monomial factors are packed as (mode << _SHIFT) | generator_index
_SHIFT = 6
_MASK = (1 << _SHIFT) - 1


def depth_cap() -> int:
    """Maximum truncation depth; override with the environment variable."""
    raw = os.environ.get(DEPTH_CAP_ENV)
    if raw is None:
        return _DEFAULT_DEPTH_CAP
    cap = parse_int(raw, DEPTH_CAP_ENV)
    if cap < 1:
        raise ValueError("%s must be >= 1, got %r" % (DEPTH_CAP_ENV, raw))
    return cap


def monomials_of_degree(dim_g: int, n: int, max_factor=None):
    """All packed monomials (k_1,p_1) >= ... with sum k_i = n, k_i >= 1."""
    if n == 0:
        return [()]
    out = []
    if max_factor is None:
        max_factor = (n << _SHIFT) | (dim_g - 1)
    top_mode = min(n, max_factor >> _SHIFT)
    for k in range(top_mode, 0, -1):
        p_top = (max_factor & _MASK) if k == (max_factor >> _SHIFT) else dim_g - 1
        for p in range(p_top, -1, -1):
            f = (k << _SHIFT) | p
            for rest in monomials_of_degree(dim_g, n - k, f):
                out.append((f,) + rest)
    return out


class TruncatedWeylModule:
    """Degrees 0..depth of Ind(M)_kappa with its action store.

    Immutable after construction (l0 and the annihilator levels are
    computed on first use and held); use build_truncated to construct.  The
    action of every x_p eps^m with |m| <= depth is straightened once, here,
    into column-sparse form, and every operator below reads that store.
    monos holds the PBW monomials of degrees 0..depth, each a tuple of packed
    factors, in basis order; basis vector #i is monos[b] (x) m_j for
    b, j = divmod(i, rep.dim).  weights[i] is its weight, an int tuple in
    fundamental coordinates.  The module holds no resonance scan: a finding
    is matched to its candidate from its own weight (_matched).
    """

    def __init__(self, algebra, m_hw: Weight, kappa, depth: int):
        self.algebra = algebra
        self.m_hw = m_hw
        self.kappa = kappa
        self.depth = depth
        self.cb = chevalley_basis(algebra)
        self.rep = rep_from_hw(self.cb, m_hw)
        self.k_scalar = exact(kappa - algebra.dual_coxeter)

        sym_dims = [c.dimension() for c in sym_ad_graded(algebra, depth)]
        monos = []
        weights = []
        bounds = [0]
        for n in range(depth + 1):
            layer = sorted(monomials_of_degree(self.cb.dim, n))
            check(len(layer) == sym_dims[n], "PBW layer does not match S(ad)")
            for mono in layer:
                w = (0,) * algebra.rank
                for f in mono:
                    w = tuple(map(add, w, self.cb.weights[f & _MASK]))
                weights.extend(tuple(map(add, w, u)) for u in self.rep.basis_weights)
            monos.extend(layer)
            bounds.append(len(weights))
        self.monos = tuple(monos)
        self._bounds = tuple(bounds)
        self.weights = tuple(weights)
        self._action = _straighten(self)
        self._annihilators = {}

    # -- layout --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.monos) * self.rep.dim

    def degree_range(self, n: int) -> range:
        if not 0 <= n <= self.depth:
            raise ValueError("degree %d outside truncation 0..%d" % (n, self.depth))
        return range(self._bounds[n], self._bounds[n + 1])

    def degree_dim(self, n: int) -> int:
        return len(self.degree_range(n))

    # -- the action store ------------------------------------------------------

    def columns(self, p, m: int) -> dict:
        """The nonzero columns of x_p eps^m, {source: {target: coeff}}, p a
        generator name or index; the store is shared, so treat it as read-only."""
        p = self.generator_index(p)
        if type(m) is not int or abs(m) > self.depth:
            raise ValueError("mode must be an integer with |m| <= depth")
        return self._action[p, m]

    @cached_property
    def l0(self) -> tuple:
        """The Sugawara L0 eigenvalue of each degree, from sugawara_l0,
        computed on first use."""
        return sugawara_l0(self)

    def annihilator(self, order: int) -> "AnnihilatorSubspace":
        """V(order) of annihilator_level, computed on first use and held."""
        if order not in self._annihilators:
            self._annihilators[order] = annihilator_level(self, order)
        return self._annihilators[order]

    def generator_index(self, x) -> int:
        """The index of generator x, a name or an int index (not a bool)."""
        if type(x) is int:
            if not 0 <= x < self.cb.dim:
                raise ValueError("generator index %d out of range" % x)
            return x
        if isinstance(x, str) and x in self.cb.index:
            return self.cb.index[x]
        raise ValueError("unknown generator %r" % (x,))


def _straighten(module) -> dict:
    """The action store {(p, m): {source: {target: coeff}}}, |m| <= depth.

    The recursion runs on integers, in the store's layout.  The basis runs
    over (mono, j) with j fastest, so monomial number b (its position in
    module.monos) carries basis vectors b dim M + j; first[b] is its packed
    first factor and rest[b] the number of mono[1:].  op is memoised in one
    row per (p, m), indexed by b; a result is canonicalised once, and an
    empty one is linalg._EMPTY.  A term (monomial b, tag t) is the int
    b dim M + t dim, where tag 0 is the identity on M and tag q + 1 the
    action of x_q on M.  A result with no tag is thus column j = 0 as it
    stands, and column j is that dict shifted by j.
    """
    cb = module.cb
    k_scalar = module.k_scalar
    dim_m = module.rep.dim
    dim = module.dim
    depth = module.depth
    monos = module.monos
    number = {mono: b for b, mono in enumerate(monos)}
    first = [mono[0] if mono else None for mono in monos]
    rest = [number[mono[1:]] if mono else None for mono in monos]
    mats = module.rep.mats
    store = {(p, m): {} for p in range(cb.dim) for m in range(-depth, depth + 1)}
    memo = {key: [None] * len(monos) for key in store}

    def op(p, m, a):
        """x_p eps^m on monomial a (x) -, with the M tensor slot left
        symbolic: {term: coeff}, with terms packed as above.

        A negative mode that does not sort below the first factor of a is
        prepended; every other case commutes x_p eps^m past the first
        factor g.  Negative modes span a subalgebra with no central term, so
        their images carry tag 0 only, and left multiplication by g is op on
        g's own generator and mode.
        """
        row = memo[p, m]
        if row[a] is not None:
            return row[a]
        f = ((-m) << _SHIFT) | p
        if m < 0 and (not a or f >= first[a]):
            out = {number[(f,) + monos[a]] * dim_m: 1}
        elif not a:
            out = {(p + 1) * dim: 1} if m == 0 and mats[p] else _EMPTY
        else:
            r, k0, p0 = rest[a], first[a] >> _SHIFT, first[a] & _MASK
            out = {}
            for term, c in op(p, m, r).items():
                t0 = term % dim
                # g's image has tag 0, so adding term - t0 moves it onto M
                for term3, c3 in op(p0, -k0, t0 // dim_m).items():
                    accumulate(out, term3 + term - t0, c * c3)
            for q, cq in cb.bracket_list(p, p0):
                for term3, c3 in op(q, m - k0, r).items():
                    accumulate(out, term3, cq * c3)
            if m == k0:
                accumulate(out, r * dim_m, m * cb.pairing(p, p0) * k_scalar)
            out = {t: exact(c) for t, c in out.items()} if out else _EMPTY
        row[a] = out
        return out

    for (p, m), cols in store.items():
        rng = _image_degrees(depth, m)
        for start in range(module._bounds[rng.start], module._bounds[rng.stop], dim_m):
            terms = op(p, m, start // dim_m)
            if terms and max(terms) < dim:
                cols[start] = terms
                for j in range(1, dim_m):
                    cols[start + j] = {t + j: c for t, c in terms.items()}
            elif terms:
                for j in range(dim_m):
                    col = {}
                    for term, c in terms.items():
                        tag, t0 = divmod(term, dim)
                        if not tag:
                            accumulate(col, t0 + j, c)
                            continue
                        for i, v in mats[tag - 1].get(j, _EMPTY).items():
                            accumulate(col, t0 + i, c * v)
                    if col:
                        cols[start + j] = {t: exact(v) for t, v in col.items()}
    # op refers to itself: free the memo rows now, not at a cycle collection
    memo.clear()
    return store


def build_truncated(algebra, m_hw: Weight, kappa, depth: int) -> TruncatedWeylModule:
    """Construct the truncation of Ind(M)_kappa down to the given depth.

    Any simple g with dim g <= 64 (generator indices are packed into
    _SHIFT bits); the straightening cost grows quickly with dim g and the
    depth.  kappa may be any nonzero rational or complex-rational scalar;
    kappa = 0 is the critical level where the Sugawara normalization fails.
    The inputs go through check_truncation first.
    """
    kappa = check_truncation(algebra, m_hw, kappa, depth)
    return TruncatedWeylModule(algebra, m_hw, kappa, depth)


def check_truncation(algebra, m_hw: Weight, kappa, depth: int):
    """Reject what build_truncated cannot build, with a ValueError; return
    kappa as a Fraction, or a ComplexRational when not real.  Builds
    nothing, so callers can check their inputs before any other step.  The
    highest weight is checked first, as certify checks it."""
    _require_dominant_integral(algebra, m_hw)
    if algebra.dim > 1 << _SHIFT:
        raise ValueError(
            "explicit construction needs dim g <= %d (%s%d has dimension %d)"
            % (1 << _SHIFT, algebra.series, algebra.rank, algebra.dim)
        )
    if type(depth) is not int or depth < 1:
        raise ValueError("depth must be a positive integer")
    cap = depth_cap()
    if depth > cap:
        raise ValueError(
            "depth %d exceeds the cap %d (override with %s)"
            % (depth, cap, DEPTH_CAP_ENV)
        )
    if not isinstance(kappa, SCALAR_TYPES):
        raise ValueError("kappa must be rational or complex rational")
    kappa = exact(kappa)
    if not kappa:
        raise ValueError("kappa = 0 is the critical level; rejected")
    return kappa if kappa.imag else Fraction(kappa)


def _image_degrees(depth: int, m: int) -> range:
    """Source degrees n whose image under a mode-m operator has degree
    0 <= n - m <= depth."""
    return range(max(m, 0), depth + min(m, 0) + 1)


def act(module: TruncatedWeylModule, x, m: int) -> dict:
    """The exact action of x eps^m, column-sparse: {source: {target: coeff}}.

    x is a Chevalley generator (name or index), read from module.columns,
    or "K" for the central element, which acts by (kappa - h_dual) id in
    every degree (mode 0).
    """
    if x == "K":
        if m != 0:
            raise ValueError("K carries no modes")
        k = module.k_scalar
        return {i: {i: k} for i in range(module.dim)} if k else {}
    return module.columns(x, m)


def sugawara_l0(module: TruncatedWeylModule) -> tuple:
    """The zero Sugawara mode, evaluated literally and exactly; returns its
    eigenvalue on each degree, as a tuple indexed by degree.

    L0 = (1/kappa) sum_p [ x_p x^p / 2 + sum_{j>=1} (x_p eps^{-j})(x^p eps^j) ]
    with {x_p}, {x^p} dual bases of g under the normalized form, written in
    normal order (positive modes to the right).  Every column of the sum is
    checked to be xi_n e_idx on each degree-n layer, xi_n = a/(2 kappa) + n
    with a the Casimir of M, and an InvariantError is raised otherwise; only
    the xi_n are kept.  module.l0 holds the result for reuse.

    The sum runs on the integer weights 2 scale w (zero modes: scale w), with
    scale the least common denominator of the Casimir weights w, so on an
    integral store it stays in ints; each column is compared with
    2 scale kappa xi_n e_idx, so no entry is divided.  Scalars of different
    types compare by value, so an accumulated int, Fraction or
    ComplexRational with imaginary part 0 equals the canonical target.  The
    terms of each degree are read straight from the action store: on
    degree n only modes |j| <= n act, so no image leaves the truncation.
    """
    kappa = module.kappa
    a = casimir_on_irrep(module.algebra, module.m_hw)
    scale = lcm(*(Fraction(w).denominator for _, _, w in module.cb.casimir_pairs))
    pairs = [(p, q, exact(w * scale)) for p, q, w in module.cb.casimir_pairs]
    store = module._action
    eigenvalues = []
    for n in range(module.depth + 1):
        xi = top_l0_eigenvalue(a, kappa) + n
        target = exact(xi * 2 * scale * kappa)
        # (lo, hi, w): the term w lo hi, raising half hi applied first; on
        # degree n only modes j <= n can act, and x eps^{-j} returns to n
        terms = [(store[p, 0], store[q, 0], w) for p, q, w in pairs]
        terms.extend((store[p, -j], store[q, j], 2 * w)
                     for j in range(1, n + 1) for p, q, w in pairs)
        terms = [term for term in terms if term[1]]
        for idx in module.degree_range(n):
            acc = {}
            for lo, hi, w in terms:
                for mid, u in hi.get(idx, _EMPTY).items():
                    wu = w * u
                    for t, v in lo.get(mid, _EMPTY).items():
                        acc[t] = acc.get(t, 0) + wu * v
            col = {t: v for t, v in acc.items() if v}
            check(col == ({idx: target} if target else {}),
                  "Sugawara sum is not the expected scalar at degree %d", n)
        eigenvalues.append(xi)
    return tuple(eigenvalues)


def virasoro_commutation_check(module: TruncatedWeylModule) -> bool:
    """Exact check of [L0, x eps^m] = -m (x eps^m) on the valid window.

    Runs over every Chevalley generator and every mode |m| <= depth.

    module.l0 is read first, so sugawara_l0 has proved L0 to be the scalar
    xi_k on each degree-k layer, xi_k = xi_0 + k.  For A = x eps^m and a
    basis vector v of degree n, [L0, A] v = sum_i (xi_{deg i} - xi_n)
    (A v)_i e_i = sum_i (deg i - n) (A v)_i e_i, while -m A v = sum_i -m
    (A v)_i e_i.  The store holds no zero entry, so the two agree exactly
    when every stored image of a degree-n basis vector lies in degree
    n - m; that containment is what is checked, and no product is formed.
    Degree n - m is a range of indices, so a column lies in it exactly when
    its least and greatest targets do.
    """
    depth = module.depth
    module.l0  # sugawara_l0 raises unless L0 is scalar on every layer
    for p in range(module.cb.dim):
        for m in range(-depth, depth + 1):
            cols = module.columns(p, m)
            for n in _image_degrees(depth, m):
                target = module.degree_range(n - m)
                lo, hi = target.start, target.stop
                for j in module.degree_range(n):
                    col = cols.get(j)
                    if col and not (lo <= min(col) and max(col) < hi):
                        return False
    return True


def _weight_blocks(module, indices):
    blocks = {}
    for idx in indices:
        blocks.setdefault(module.weights[idx], []).append(idx)
    return blocks


def _block_kernels(module, n, column, dominant=False):
    """(weight, kernel) for each weight block of degree n whose columns
    column(idx) have a common kernel, in weight order; kernel is a basis of
    sparse vectors {index: coeff}.  With dominant, only dominant weights are
    solved.  Each block first goes through linalg.independent_mod_p, and only
    a block it does not prove kernel-free is solved exactly."""
    blocks = _weight_blocks(module, module.degree_range(n))
    for wt_coords in sorted(blocks):
        if dominant and min(wt_coords) < 0:
            continue
        block = blocks[wt_coords]
        columns = [column(idx) for idx in block]
        if independent_mod_p(columns):
            continue
        kernel = nullspace_of_columns(columns)
        if kernel:
            yield wt_coords, [{block[i]: c for i, c in enumerate(vec) if c}
                              for vec in kernel]


def _matched(module, weight, n):
    """CandidatePair(mu, n, xi) for mu = weight - m_hw when q(mu) = 2 kappa n
    with kappa real and negative, else None; weight is an int tuple, n >= 1.

    Every weight of the module lies in m_hw + Q, so mu is the very degree-n
    candidate of ResonanceScan(m_hw + rho, kappa), which a non-real kappa has
    only at n = 0; one matched only up to W has the same |weight + rho|,
    hence the same q.  form_scale q(mu) is two ints of _norm_rho.
    """
    kappa, algebra, m_hw = module.kappa, module.algebra, module.m_hw
    if kappa.imag or kappa.real >= 0:
        return None
    form = algebra.weight_form
    q = _norm_rho(form, weight) - _norm_rho(form, tuple(map(int, m_hw.coords)))
    if q != 2 * kappa * n * algebra.form_scale:
        return None
    mu = (algebra.weight(weight) - m_hw).to_root_coords()
    xi = top_l0_eigenvalue(casimir_on_irrep(algebra, m_hw), kappa) + n
    return CandidatePair(tuple(map(int, mu)), n, xi)


def singular_vectors(module: TruncatedWeylModule, n: int):
    """Vectors of degree n killed by every x eps (hence by all of eps g[eps]).

    The kernel is solved exactly inside each weight space of the layer.
    Returns (weight, solutions, matched candidate) for each weight where it
    is nonzero, solutions a basis of sparse vectors {index: coeff}, in the
    shape of singular_dimensions; the candidate is the one _matched reads
    off the weight, or None.
    """
    if not 1 <= n <= module.depth:
        raise ValueError("degree must satisfy 1 <= n <= depth")
    raising = [module.columns(p, 1) for p in range(module.cb.dim)]
    found = []
    blocks = _weight_blocks(module, module.degree_range(n))
    for wt_coords in sorted(blocks):
        block = blocks[wt_coords]
        # all dim g raising modes and no mod-p filter: this is the oracle
        # of singular_dimensions
        kernel = nullspace_of_columns(
            [{(p, t): v for p, cols in enumerate(raising)
              for t, v in cols.get(idx, _EMPTY).items()} for idx in block]
        )
        if kernel:
            solutions = [{block[i]: c for i, c in enumerate(vec) if c}
                         for vec in kernel]
            found.append((module.algebra.weight(wt_coords), solutions,
                          _matched(module, wt_coords, n)))
    return found


def singular_dimensions(module: TruncatedWeylModule, n: int):
    """(weight, dimension, matched candidate) for each weight space of degree
    n where eps g[eps] has a kernel, in the shape of singular_vectors.

    The kernel K is a g-module, since (x eps)(y v) = y (x eps) v + ([x, y]
    eps) v.  The x with (x eps) v = 0 form an ad n+-stable space when e_i v
    = 0 for all i, and ad U(n+) f_theta = g, so the n+-highest vectors of K
    are the common kernel of e_1 .. e_r (mode 0) and f_theta eps.  They lie
    in dominant weight spaces, and dim K_beta = sum over nu of dim K_nu^{n+}
    mult_{L(nu)}(beta).  The dominant blocks are solved by _block_kernels.
    """
    if not 1 <= n <= module.depth:
        raise ValueError("degree must satisfy 1 <= n <= depth")
    algebra, cb = module.algebra, module.cb
    # e_1 .. e_r lead the Chevalley basis; f_theta is its one vector of
    # weight -theta
    f_theta = cb.weights.index(tuple(-c for c in algebra.roots_fw[-1]))
    ops = [module.columns(i, 0) for i in range(algebra.rank)]
    ops.append(module.columns(f_theta, 1))

    def column(idx):
        # the images never share a row: e_i moves the weight by alpha_i
        # within degree n, and f_theta eps lowers the degree
        return {t: v for op in ops for t, v in op.get(idx, _EMPTY).items()}

    tops = [(irrep_character(algebra, algebra.weight(wt_coords)).full_map(),
             len(kernel))
            for wt_coords, kernel in _block_kernels(module, n, column, dominant=True)]
    found = []
    for wt_coords in sorted({module.weights[idx] for idx in module.degree_range(n)}):
        dim = sum(d * mults.get(wt_coords, 0) for mults, d in tops)
        if dim:
            found.append((algebra.weight(wt_coords), dim,
                          _matched(module, wt_coords, n)))
    return found


class AnnihilatorSubspace:
    """Exact basis of V(order): vectors killed by all monomials in the
    positive modes of loop degree >= order, reported on degrees <= window.
    The span of each degree is built on first use and held."""

    __slots__ = ("order", "window", "vectors", "dims_by_degree", "_spans")

    def __init__(self, order, window, vectors):
        self.order = order
        self.window = window
        self.vectors = tuple(vectors)
        dims = {}
        for d, _ in vectors:
            dims[d] = dims.get(d, 0) + 1
        self.dims_by_degree = dims
        self._spans = {}

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def span_contains(self, degree: int, vec: dict) -> bool:
        span = self._spans.get(degree)
        if span is None:
            span = self._spans[degree] = SpanBuilder()
            for d, v in self.vectors:
                if d == degree:
                    span.add(v)
        return span.contains(vec)

    def __repr__(self):
        return "AnnihilatorSubspace(order=%d, window=%d, dims=%r)" % (
            self.order,
            self.window,
            self.dims_by_degree,
        )


def _image(store, images, op):
    """The raising monomial op on the vector images[()], holding the image
    of every suffix of op in images: image(op) = x_{op[0]} image(op[1:])."""
    hit = images.get(op)
    if hit is None:
        rest = _image(store, images, op[1:])
        f = op[0]
        hit = images[op] = apply(store[f & _MASK, f >> _SHIFT], rest) if rest else _EMPTY
    return hit


def annihilator_level(module: TruncatedWeylModule, order: int) -> AnnihilatorSubspace:
    """V(order) within the truncation, degrees 0..depth-order.

    A vector lies in V(order) iff it is killed by every element of U+_e,
    e >= order, where U+_e is the loop-degree-e part of the enveloping
    algebra U+ of the positive modes g eps C[eps].  Monomials of degree
    exactly order suffice.  Since g is simple, [g, g] = g, so
    [g eps^a, g eps^b] = g eps^(a+b) and g eps generates the positive loop
    algebra; hence U+_e = (U+_1)^e = U+_(e-order) U+_order, and U+_order
    kills whatever kills U+_e for every e >= order.  So V(order) =
    Ann(U+_order), and on each weight block of degree d >= order it is the
    common kernel of the PBW monomials of degree order, which span U+_order.
    Degrees d < order are contained entirely.

    For each basis vector v, image(op) = x_{op[0]} image(op[1:]) is held per
    monomial suffix, so a suffix shared by several monomials is applied to v
    once.  Positive modes lower the degree, so the store is read directly.
    The weight blocks are solved by _block_kernels.
    """
    if order < 1:
        raise ValueError("annihilator order must be >= 1")
    if module.depth < order:
        raise ValueError(
            "window too small: computing V(%d) requires depth >= %d"
            % (order, order)
        )
    window = module.depth - order
    store = module._action
    ops = monomials_of_degree(module.cb.dim, order)

    def column(idx):
        images = {(): {idx: 1}}
        return {(o_num, t): v for o_num, op in enumerate(ops)
                for t, v in _image(store, images, op).items()}

    vectors = []
    for d in range(window + 1):
        if d < order:
            vectors.extend((d, {idx: 1}) for idx in module.degree_range(d))
            continue
        for _, kernel in _block_kernels(module, d, column):
            vectors.extend((d, vec) for vec in kernel)
    return AnnihilatorSubspace(order, window, vectors)


def check_kl_exact_sequence(module: TruncatedWeylModule, order: int):
    """Verify exactness of 0 -> V(1) -> V(order) -> Hom(g, V(order-1)).

    The middle map is i(v)(x) = (x eps) v.  Checks, all exactly and within
    the degree window of V(order): the kernel of i equals V(1), i lands in
    V(order-1) componentwise, i is a g-map for the adjoint-twisted action on
    Hom, and V(order) is g-stable.  The levels come from module.annihilator,
    so each is built once per module, and it rejects an order outside
    1..depth.  Returns (ok, diagnostics).
    """
    v_top = module.annihilator(order)
    v_one = module.annihilator(1)
    window = v_top.window
    basis = v_top.vectors

    # (x_p eps) v for each basis vector v and generator p; only modes 0 and
    # 1 act from here on, so the store is read directly
    store = module._action
    dim_g = module.cb.dim
    raised = [[apply(store[p, 1], vec) for p in range(dim_g)] for _, vec in basis]

    # kernel of i inside V(order), solved in V(order) coordinates
    kernel = nullspace_of_columns(
        [{(p, t): v for p, img in enumerate(images) for t, v in img.items()}
         for images in raised]
    )
    basis_columns = {i: vec for i, (_, vec) in enumerate(basis)}
    kernel_vectors = [
        apply(basis_columns, {i: c for i, c in enumerate(combo) if c})
        for combo in kernel
    ]

    v_one_window = [(d, v) for (d, v) in v_one.vectors if d <= window]
    span_v1 = SpanBuilder()
    for _, v in v_one_window:
        span_v1.add(v)
    kernel_span = SpanBuilder()
    kernel_inside = True
    for v in kernel_vectors:
        kernel_span.add(v)
        if not span_v1.contains(v):
            kernel_inside = False
    kernel_matches = kernel_inside and kernel_span.rank() == span_v1.rank()

    # i lands in V(order-1) when order >= 2 (for order = 1 the map is zero)
    v_prev = module.annihilator(order - 1) if order >= 2 else None
    lands = True
    for (d, _), images in zip(basis, raised):
        for img in images:
            if img and (v_prev is None or not v_prev.span_contains(d - 1, img)):
                lands = False

    # equivariance: (x eps)(y v) = y ((x eps) v) + ([x, y] eps) v
    equivariant = True
    for (_, vec), images in zip(basis, raised):
        for y in range(dim_g):
            lower = store[y, 0]
            yv = apply(lower, vec)
            for x in range(dim_g):
                lhs = apply(store[x, 1], yv)
                rhs = apply(lower, images[x])
                for q, cq in module.cb.bracket_list(x, y):
                    for t, v in images[q].items():
                        accumulate(rhs, t, cq * v)
                if lhs != rhs:
                    equivariant = False

    # g-stability of V(order) degree by degree
    stable = True
    for d, vec in basis:
        for y in range(dim_g):
            img = apply(store[y, 0], vec)
            if img and not v_top.span_contains(d, img):
                stable = False

    diagnostics = {
        "window": window,
        "dim_V1": len(v_one_window),
        "dim_Vorder": len(basis),
        "dim_kernel": len(kernel_vectors),
        "kernel_equals_V1": kernel_matches,
        "image_in_Vprev": lands,
        "equivariant": equivariant,
        "g_stable": stable,
    }
    ok = kernel_matches and lands and equivariant and stable
    return ok, diagnostics


def module_json_dict(module: TruncatedWeylModule) -> dict:
    """Serializable snapshot of the truncated module: module_dump with its
    degrees and actions read into lists."""
    data = module_dump(module)
    data["degrees"] = list(data["degrees"])
    data["actions"] = list(data["actions"])
    return data


def module_dump(module: TruncatedWeylModule) -> dict:
    """The one producer of the dump schema, with degrees and actions as
    generators that build each entry as it is yielded, so a writer that
    consumes them (cli._write_json) holds one action's entries at a time.

    Schema (all scalars are exact strings, "p/q" or "a/b+c/d i"):
      schema: fixed identifier string
      algebra: {series, rank}
      m_hw / kappa / depth / dual_coxeter / k_scalar: build parameters
      generators: Chevalley generator names in index order
      degrees: per degree, the basis as {factors: [[mode, generator], ...],
               m_index} with factor modes positive (eps^{-mode})
      actions: per generator and every mode |m| <= depth, blocks of exact
               entries [row, col, value] sorted by (row, col); partial marks
               modes whose image leaves the truncation on some degrees
    """
    depth = module.depth
    return {
        "schema": "weylmod.truncated_module.v1",
        "algebra": {"series": module.algebra.series, "rank": module.algebra.rank},
        "m_hw": [format_scalar(c) for c in module.m_hw.coords],
        "kappa": format_scalar(module.kappa),
        "depth": depth,
        "dual_coxeter": format_scalar(module.algebra.dual_coxeter),
        "k_scalar": format_scalar(module.k_scalar),
        "generators": list(module.cb.names),
        "degrees": (_degree_json(module, n) for n in range(depth + 1)),
        "actions": (_action_json(module, p, m)
                    for p in range(module.cb.dim) for m in range(-depth, depth + 1)),
    }


def _degree_json(module, n: int) -> dict:
    rng = module.degree_range(n)
    basis = []
    for idx in rng:
        b, j = divmod(idx, module.rep.dim)
        basis.append(
            {
                "factors": [[f >> _SHIFT, module.cb.names[f & _MASK]]
                            for f in module.monos[b]],
                "m_index": j,
                "weight": [format_scalar(c) for c in module.weights[idx]],
            }
        )
    return {"degree": n, "dimension": len(rng), "basis": basis}


def _action_json(module, p: int, m: int) -> dict:
    cols = module.columns(p, m)
    blocks = []
    for n in _image_degrees(module.depth, m):
        src = module.degree_range(n)
        tgt = module.degree_range(n - m).start
        entries = sorted(
            [i - tgt, c, format_scalar(v)]
            for c, idx in enumerate(src)
            for i, v in cols.get(idx, _EMPTY).items()
        )
        blocks.append(
            {"source_degree": n, "target_degree": n - m, "entries": entries}
        )
    return {
        "generator": module.cb.names[p],
        "mode": m,
        "partial": m < 0,
        "blocks": blocks,
    }
