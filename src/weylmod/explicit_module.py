"""Explicit truncated realization of Weyl modules over loop algebras of a
simple g with dim g <= 64.

The induced module Ind(M)_kappa is, by PBW, free as a module over the
enveloping algebra of the negative-mode half: a basis of the degree-n layer is

    (x_{p_1} eps^{-k_1}) ... (x_{p_r} eps^{-k_r}) (x) m_j,
    k_1 >= k_2 >= ... >= k_r >= 1,  sum k_i = n,

with x_p running over a fixed Chevalley basis of g and m_j over a weight basis
of M, both built from the Cartan matrix by the chevalley module.  We materialize all layers up to a depth N and, once at construction,
straighten the action of every x eps^m with |m| <= N back into this basis using

    [x eps^a, y eps^b] = [x, y] eps^{a+b} + a delta_{a,-b} (x, y) K,

with K acting by the scalar kappa - h_dual.  The zero modes act through M and
the positive modes kill it.  The result is one column-sparse action store;
dense blocks are built only on request.  All coefficients are exact:
Fraction throughout, ComplexRational once kappa leaves the rationals.

On top of the raw action the module offers the brute-force oracles used to
cross-check the resonance bookkeeping: the normally-ordered Sugawara L0, the
Virasoro commutator identity [L0, x eps^m] = -m x eps^m, exact singular-vector
kernels, and the nested annihilators V(N') of positive-degree monomials
together with the exactness check ker(V(N') -> Hom(g, V(N'-1))) = V(1).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property

from .affine_numerics import ResonanceScan, top_l0_eigenvalue
from .chevalley import chevalley_basis, rep_from_hw
from .finite_rep import casimir_on_irrep
from .graded_sym import sym_ad_graded
from .invariant import check
from .linalg import _EMPTY, SpanBuilder, accumulate, apply, nullspace
from .rational import ComplexRational, format_scalar, scalar_im, scalar_re
from .root_system import Weight, same_weyl_orbit

DEPTH_CAP_ENV = "WEYLMOD_DEPTH_CAP"
_DEFAULT_DEPTH_CAP = 6

# monomial factors are packed as (mode << _SHIFT) | generator_index
_SHIFT = 6
_MASK = (1 << _SHIFT) - 1

_ONE = Fraction(1)


def depth_cap() -> int:
    """Maximum truncation depth; override with the environment variable."""
    raw = os.environ.get(DEPTH_CAP_ENV)
    if raw is None:
        return _DEFAULT_DEPTH_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (DEPTH_CAP_ENV, raw))
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
    into column-sparse form, and every operator below reads that store.  scan is the resonance scan of
    lambda = m_hw + rho when kappa lies outside the nonnegative reals (where
    candidates apply), else None.
    """

    def __init__(self, algebra, m_hw: Weight, kappa, depth: int):
        self.algebra = algebra
        self.m_hw = m_hw
        self.kappa = kappa
        self.depth = depth
        self.cb = chevalley_basis(algebra)
        self.rep = rep_from_hw(self.cb, m_hw)
        self.k_scalar = kappa - algebra.dual_coxeter
        self.scan = None
        if scalar_im(kappa) != 0 or scalar_re(kappa) < 0:
            self.scan = ResonanceScan(m_hw + algebra.rho)

        sym_dims = sym_ad_graded(algebra, depth).dims()
        keys = []
        bounds = [0]
        for n in range(depth + 1):
            monos = sorted(monomials_of_degree(self.cb.dim, n))
            check(len(monos) == sym_dims[n], "PBW layer does not match S(ad)")
            keys.extend((mono, j) for mono in monos for j in range(self.rep.dim))
            bounds.append(len(keys))
        self.keys = tuple(keys)
        self._bounds = tuple(bounds)
        self.index = {key: i for i, key in enumerate(keys)}
        weights = []
        for mono, j in keys:
            w = self.rep.basis_weights[j]
            for f in mono:
                w = w + self.cb.weights[f & _MASK]
            weights.append(w)
        self.weights = tuple(weights)
        self._action = _straighten(self)
        self._annihilators = {}

    # -- layout --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.keys)

    def degree_range(self, n: int) -> range:
        if not 0 <= n <= self.depth:
            raise ValueError("degree %d outside truncation 0..%d" % (n, self.depth))
        return range(self._bounds[n], self._bounds[n + 1])

    def degree_dim(self, n: int) -> int:
        return len(self.degree_range(n))

    def degree_of(self, index: int) -> int:
        return bisect_right(self._bounds, index) - 1

    # -- the action store ------------------------------------------------------

    def columns(self, p, m: int) -> dict:
        """The nonzero columns of x_p eps^m, {source: {target: coeff}}; the
        store is shared, so treat the result as read-only."""
        if not isinstance(m, int) or abs(m) > self.depth:
            raise ValueError("mode must be an integer with |m| <= depth")
        return self._action[p, m]

    def apply_generator(self, p, m: int, index: int) -> dict:
        """x_p eps^m on basis vector #index, as {target index: coeff}."""
        return self.apply_to_vector(p, m, {index: _ONE})

    def apply_to_vector(self, p, m: int, vec: dict) -> dict:
        """x_p eps^m on a sparse vector {index: coeff}."""
        for idx in vec:
            source = self.degree_of(idx)
            if source - m > self.depth:
                raise ValueError(
                    "image of degree %d under mode %d leaves the truncation"
                    % (source, m)
                )
        return apply(self._action.get((p, m), _EMPTY), vec)

    @cached_property
    def l0(self) -> "L0Matrix":
        """The Sugawara L0 of sugawara_l0, computed on first use."""
        return sugawara_l0(self)

    def annihilator(self, order: int) -> "AnnihilatorSubspace":
        """V(order) of annihilator_level, computed on first use and held."""
        if order not in self._annihilators:
            self._annihilators[order] = annihilator_level(self, order)
        return self._annihilators[order]

    def generator_index(self, x) -> int:
        if isinstance(x, int):
            if not 0 <= x < self.cb.dim:
                raise ValueError("generator index %d out of range" % x)
            return x
        if x in self.cb.index:
            return self.cb.index[x]
        raise ValueError("unknown generator %r" % (x,))


def _straighten(module) -> dict:
    """The action store {(p, m): {source: {target: coeff}}}, |m| <= depth."""
    cb = module.cb
    k_scalar = module.k_scalar
    lmmemo = {}
    opmemo = {}

    def leftmul(f, mono):
        """x_p eps^{-k} times a PBW monomial, as {monomial: coeff}."""
        key = (f, mono)
        hit = lmmemo.get(key)
        if hit is not None:
            return hit
        if not mono or f >= mono[0]:
            out = {(f,) + mono: _ONE}
        else:
            g, rest = mono[0], mono[1:]
            out = {}
            for m2, c in leftmul(f, rest).items():
                for m3, c3 in leftmul(g, m2).items():
                    accumulate(out, m3, c * c3)
            # [x_f, x_g] eps^{-(k_f + k_g)}; no cocycle term between
            # two negative modes
            combined = ((f >> _SHIFT) + (g >> _SHIFT)) << _SHIFT
            for q, cq in cb.bracket_list(f & _MASK, g & _MASK):
                for m3, c3 in leftmul(combined | q, rest).items():
                    accumulate(out, m3, cq * c3)
        lmmemo[key] = out
        return out

    def op(p, m, mono):
        """x_p eps^m on mono (x) -, with the M tensor slot left symbolic.

        Returns {(monomial, tag): coeff} where tag None means the identity on
        M and tag q means a single factor x_q acting on M.
        """
        key = (p, m, mono)
        hit = opmemo.get(key)
        if hit is not None:
            return hit
        if m < 0:
            # negative modes span a subalgebra with no central term
            f = ((-m) << _SHIFT) | p
            out = {(m3, None): c for m3, c in leftmul(f, mono).items()}
        elif not mono:
            out = {((), p): _ONE} if m == 0 else {}
        else:
            g, rest = mono[0], mono[1:]
            k0, p0 = g >> _SHIFT, g & _MASK
            out = {}
            for (m2, tag), c in op(p, m, rest).items():
                for m3, c3 in leftmul(g, m2).items():
                    accumulate(out, (m3, tag), c * c3)
            for q, cq in cb.bracket_list(p, p0):
                for (m3, tag), c3 in op(q, m - k0, rest).items():
                    accumulate(out, (m3, tag), cq * c3)
            if m == k0:
                accumulate(out, (rest, None), m * cb.pairing(p, p0) * k_scalar)
        opmemo[key] = out
        return out

    depth = module.depth
    mats = module.rep.mats
    dim_m = module.rep.dim
    index = module.index
    store = {(p, m): {} for p in range(cb.dim) for m in range(-depth, depth + 1)}
    for n in range(depth + 1):
        rng = module.degree_range(n)
        # the basis runs over (mono, j) with j fastest
        for start in range(rng.start, rng.stop, dim_m):
            mono = module.keys[start][0]
            for p in range(cb.dim):
                for m in range(n - depth, n + 1):
                    terms = op(p, m, mono)
                    cols = store[p, m]
                    for j in range(dim_m):
                        col = {}
                        for (m2, tag), c in terms.items():
                            if tag is None:
                                accumulate(col, index[(m2, j)], c)
                                continue
                            for i, v in mats[tag].get(j, _EMPTY).items():
                                accumulate(col, index[(m2, i)], c * v)
                        if col:
                            cols[start + j] = col
    # leftmul and op refer to themselves, so only a cycle collection would
    # free the memos; release them now
    lmmemo.clear()
    opmemo.clear()
    return store


def build_truncated(algebra, m_hw: Weight, kappa, depth: int) -> TruncatedWeylModule:
    """Construct the truncation of Ind(M)_kappa down to the given depth.

    Any simple g with dim g <= 64 (generator indices are packed into
    _SHIFT bits); the straightening cost grows quickly with dim g and the
    depth.  kappa may be any nonzero rational or complex-rational scalar;
    kappa = 0 is the critical level where the Sugawara normalization fails.
    """
    if algebra.dim > 1 << _SHIFT:
        raise ValueError(
            "explicit construction needs dim g <= %d (%s%d has dimension %d)"
            % (1 << _SHIFT, algebra.series, algebra.rank, algebra.dim)
        )
    if not isinstance(depth, int) or depth < 1:
        raise ValueError("depth must be a positive integer")
    cap = depth_cap()
    if depth > cap:
        raise ValueError(
            "depth %d exceeds the cap %d (override with %s)"
            % (depth, cap, DEPTH_CAP_ENV)
        )
    if isinstance(kappa, int):
        kappa = Fraction(kappa)
    if isinstance(kappa, ComplexRational) and kappa.is_real():
        kappa = kappa.as_fraction()
    if not isinstance(kappa, (Fraction, ComplexRational)):
        raise ValueError("kappa must be rational or complex rational")
    if not kappa:
        raise ValueError("kappa = 0 is the critical level; rejected")
    if m_hw.algebra != algebra:
        raise ValueError("highest weight belongs to a different algebra")
    if not (m_hw.is_integral() and m_hw.is_dominant()):
        raise ValueError("M must have a dominant integral highest weight")
    return TruncatedWeylModule(algebra, m_hw, kappa, depth)


def _image_degrees(depth: int, m: int) -> range:
    """Source degrees n whose image under a mode-m operator has degree
    0 <= n - m <= depth."""
    return range(max(m, 0), depth + min(m, 0) + 1)


def _dense(columns, sources: range, targets: range):
    """The block of a column-sparse operator from sources to targets."""
    mat = [[Fraction(0)] * len(sources) for _ in targets]
    for c, idx in enumerate(sources):
        for i, v in columns.get(idx, _EMPTY).items():
            mat[i - targets.start][c] = v
    return mat


class ActionMatrix:
    """Degree-graded exact matrix of x eps^m (or of K when generator = "K").

    block(n) builds the dense block mapping coordinates of degree n to
    coordinates of degree n - m from the column-sparse store.  Source degrees
    whose image would exceed the truncation are omitted and the matrix is
    marked partial.
    """

    def __init__(self, module, generator, mode, columns):
        self.module = module
        self.generator = generator
        self.mode = mode
        self.columns = columns
        self.source_degrees = tuple(range(module.depth + min(mode, 0) + 1))
        self.partial = mode < 0

    def block(self, n: int):
        if n not in self.source_degrees:
            raise ValueError(
                "mode %d is not defined on degree %d within depth %d"
                % (self.mode, n, self.module.depth)
            )
        if n < self.mode:
            return []  # the image vanishes identically
        return _dense(
            self.columns,
            self.module.degree_range(n),
            self.module.degree_range(n - self.mode),
        )


def act(module: TruncatedWeylModule, x, m: int) -> ActionMatrix:
    """Exact matrix of x eps^m, degree block by degree block.

    x is a Chevalley generator (name or index) or "K" for the central
    element, which acts by (kappa - h_dual) id in every degree (mode 0).
    """
    if x == "K":
        if m != 0:
            raise ValueError("K carries no modes")
        k = module.k_scalar
        columns = {i: {i: k} for i in range(module.dim)} if k else {}
        return ActionMatrix(module, "K", 0, columns)
    p = module.generator_index(x)
    return ActionMatrix(module, module.cb.names[p], m, module.columns(p, m))


class L0Matrix:
    """Block-diagonal Sugawara L0, computed from the normally-ordered sum.

    columns[i] is the image of basis vector #i as {target index: coeff}.
    """

    def __init__(self, module, columns, eigenvalues):
        self.module = module
        self.columns = columns
        self._eigenvalues = eigenvalues

    def block(self, n: int):
        if n not in self._eigenvalues:
            raise ValueError("degree %d outside truncation" % n)
        rng = self.module.degree_range(n)
        return _dense(self.columns, rng, rng)

    def eigenvalue(self, n: int):
        if n not in self._eigenvalues:
            raise ValueError("degree %d outside truncation" % n)
        return self._eigenvalues[n]

    def is_scalar_by_degree(self) -> bool:
        for n, xi in self._eigenvalues.items():
            for idx in self.module.degree_range(n):
                if self.columns[idx] != ({idx: xi} if xi else {}):
                    return False
        return True


def sugawara_l0(module: TruncatedWeylModule) -> L0Matrix:
    """The zero Sugawara mode, evaluated literally and exactly.

    L0 = (1/kappa) sum_p [ x_p x^p / 2 + sum_{j>=1} (x_p eps^{-j})(x^p eps^j) ]
    with {x_p}, {x^p} dual bases of g under the normalized form, written in
    normal order (positive modes to the right).  The result is checked to be
    the scalar a/(2 kappa) + n on each degree-n layer, a = Casimir of M.
    module.l0 holds the result for reuse.
    """
    kappa = module.kappa
    a = casimir_on_irrep(module.algebra, module.m_hw)
    pairs = module.cb.casimir_pairs
    columns = {}
    eigenvalues = {}
    for n in range(module.depth + 1):
        xi = top_l0_eigenvalue(a, kappa) + n
        for idx in module.degree_range(n):
            acc = {}
            start = {idx: _ONE}
            for (p, q, w) in pairs:
                tmp = module.apply_to_vector(q, 0, start)
                tmp = module.apply_to_vector(p, 0, tmp)
                for t, v in tmp.items():
                    accumulate(acc, t, w * v / 2)
            for j in range(1, n + 1):
                for (p, q, w) in pairs:
                    tmp = module.apply_to_vector(q, j, start)
                    if not tmp:
                        continue
                    tmp = module.apply_to_vector(p, -j, tmp)
                    for t, v in tmp.items():
                        accumulate(acc, t, w * v)
            col = {t: v / kappa for t, v in acc.items()}
            check(col == ({idx: xi} if xi else {}),
                  "Sugawara sum is not the expected scalar at degree %d", n)
            columns[idx] = col
        eigenvalues[n] = xi
    return L0Matrix(module, columns, eigenvalues)


def virasoro_commutation_check(module: TruncatedWeylModule, max_mode=None) -> bool:
    """Exact check of [L0, x eps^m] = -m (x eps^m) on the valid window.

    Runs over every Chevalley generator and every mode |m| <= max_mode
    (default: the full depth), multiplying the columns of module.l0 with the
    stored action columns over their nonzero entries, so the cost scales
    with the sparsity of the action rather than with dense block size.
    """
    l0 = module.l0.columns
    top = module.depth if max_mode is None else max_mode
    for p in range(module.cb.dim):
        for m in range(-top, top + 1):
            cols = module.columns(p, m)
            for n in _image_degrees(module.depth, m):
                for j in module.degree_range(n):
                    aj = cols.get(j, _EMPTY)
                    lhs = apply(l0, aj)
                    for i, v in apply(cols, l0[j]).items():
                        accumulate(lhs, i, -v)
                    rhs = {} if m == 0 else {i: -m * v for i, v in aj.items()}
                    if lhs != rhs:
                        return False
    return True


class SingularVectorReport:
    """Exact kernel of the raising modes inside one weight space of a layer."""

    __slots__ = ("degree", "weight", "basis_of_solutions", "matched_candidate")

    def __init__(self, degree, weight, basis_of_solutions, matched_candidate):
        self.degree = degree
        self.weight = weight
        self.basis_of_solutions = tuple(basis_of_solutions)
        self.matched_candidate = matched_candidate

    def __repr__(self):
        return (
            "SingularVectorReport(degree=%d, weight=%r, solutions=%d, "
            "matched=%r)" % (
                self.degree,
                self.weight,
                len(self.basis_of_solutions),
                self.matched_candidate,
            )
        )


def _nullspace_of_columns(columns):
    """Kernel of the map sending unit column c to the sparse vector columns[c].

    columns is a list of {row_key: coeff}.  Returns normalized kernel vectors
    as coefficient lists over the columns.
    """
    row_keys = sorted({k for col in columns for k in col})
    row_pos = {k: i for i, k in enumerate(row_keys)}
    rows = [[Fraction(0)] * len(columns) for _ in row_keys]
    for c, col in enumerate(columns):
        for k, v in col.items():
            rows[row_pos[k]][c] = v
    return nullspace(rows, len(columns))


def _raising_column(module, vec):
    """(x_p eps) vec for every generator p, as one {(p, index): coeff}."""
    return {
        (p, t): v
        for p in range(module.cb.dim)
        for t, v in module.apply_to_vector(p, 1, vec).items()
    }


def _weight_blocks(module, indices):
    blocks = {}
    for idx in indices:
        blocks.setdefault(module.weights[idx].coords, []).append(idx)
    return blocks


def singular_vectors(module: TruncatedWeylModule, n: int):
    """Vectors of degree n killed by every x eps (hence by all of eps g[eps]).

    The kernel is solved exactly inside each weight space of the layer; one
    report is returned per weight carrying solutions, with the matching
    resonance candidate of module.scan attached when the candidate machinery
    applies to kappa (outside the nonnegative reals).
    """
    if not 1 <= n <= module.depth:
        raise ValueError("degree must satisfy 1 <= n <= depth")
    lam = module.m_hw + module.algebra.rho
    matchable = []
    if module.scan is not None:
        matchable = [p for p in module.scan.pairs(module.kappa, n) if p.n == n]
    reports = []
    blocks = _weight_blocks(module, module.degree_range(n))
    for wt_coords in sorted(blocks):
        block = blocks[wt_coords]
        kernel = _nullspace_of_columns(
            [_raising_column(module, {idx: _ONE}) for idx in block]
        )
        if not kernel:
            continue
        weight = module.algebra.weight(wt_coords)
        solutions = [{block[i]: c for i, c in enumerate(vec) if c} for vec in kernel]
        target = weight + module.algebra.rho
        shifted = [(p, lam + p.mu.to_weight()) for p in matchable]
        matched = next((p for p, w in shifted if w == target), None)
        if matched is None:
            matched = next((p for p, w in shifted if same_weyl_orbit(w, target)), None)
        reports.append(SingularVectorReport(n, weight, solutions, matched))
    return reports


class AnnihilatorSubspace:
    """Exact basis of V(order): vectors killed by all monomials in the
    positive modes of loop degree >= order, reported on degrees <= window.
    The span of each degree is built on first use and held."""

    __slots__ = ("module", "order", "window", "vectors", "dims_by_degree", "_spans")

    def __init__(self, module, order, window, vectors):
        self.module = module
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
            span = self._spans[degree] = SpanBuilder(self.module.dim)
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


def annihilator_level(module: TruncatedWeylModule, order: int) -> AnnihilatorSubspace:
    """V(order) within the truncation, degrees 0..depth-order.

    A degree-d vector lies in V(order) iff it is killed by every PBW monomial
    in the raising modes of total loop degree e with order <= e <= d; larger e
    lowers past degree zero and acts by zero automatically, and degrees
    d < order are contained entirely.
    """
    if order < 1:
        raise ValueError("annihilator order must be >= 1")
    if module.depth < order:
        raise ValueError(
            "window too small: computing V(%d) requires depth >= %d"
            % (order, order)
        )
    window = module.depth - order
    vectors = []
    for d in range(window + 1):
        rng = module.degree_range(d)
        if d < order:
            vectors.extend((d, {idx: _ONE}) for idx in rng)
            continue
        ops = [op for e in range(order, d + 1)
               for op in monomials_of_degree(module.cb.dim, e)]
        blocks = _weight_blocks(module, rng)
        for wt_coords in sorted(blocks):
            block = blocks[wt_coords]
            columns = []
            for idx in block:
                col = {}
                for o_num, op in enumerate(ops):
                    vec = {idx: _ONE}
                    for f in reversed(op):
                        vec = module.apply_to_vector(f & _MASK, f >> _SHIFT, vec)
                        if not vec:
                            break
                    for t, v in vec.items():
                        col[(o_num, t)] = v
                columns.append(col)
            kernel = _nullspace_of_columns(columns)
            for vec in kernel:
                vectors.append(
                    (d, {block[i]: c for i, c in enumerate(vec) if c})
                )
    return AnnihilatorSubspace(module, order, window, vectors)


def check_kl_exact_sequence(module: TruncatedWeylModule, order: int):
    """Verify exactness of 0 -> V(1) -> V(order) -> Hom(g, V(order-1)).

    The middle map is i(v)(x) = (x eps) v.  Checks, all exactly and within
    the degree window of V(order): the kernel of i equals V(1), i lands in
    V(order-1) componentwise, i is a g-map for the adjoint-twisted action on
    Hom, and V(order) is g-stable.  The levels come from module.annihilator,
    so each is built once per module.  Returns (ok, diagnostics).
    """
    if order < 1:
        raise ValueError("annihilator order must be >= 1")
    if module.depth < order:
        raise ValueError(
            "window too small: need depth >= %d for V(%d)" % (order, order)
        )
    v_top = module.annihilator(order)
    v_one = module.annihilator(1)
    window = v_top.window

    basis = v_top.vectors
    # kernel of i inside V(order), solved in V(order) coordinates
    kernel = _nullspace_of_columns([_raising_column(module, vec) for _, vec in basis])
    basis_columns = {i: vec for i, (_, vec) in enumerate(basis)}
    kernel_vectors = [
        apply(basis_columns, {i: c for i, c in enumerate(combo) if c})
        for combo in kernel
    ]

    v_one_window = [(d, v) for (d, v) in v_one.vectors if d <= window]
    span_v1 = SpanBuilder(module.dim)
    for _, v in v_one_window:
        span_v1.add(v)
    kernel_span = SpanBuilder(module.dim)
    kernel_inside = True
    for v in kernel_vectors:
        kernel_span.add(v)
        if not span_v1.contains(v):
            kernel_inside = False
    kernel_matches = kernel_inside and kernel_span.rank() == span_v1.rank()

    # i lands in V(order-1) when order >= 2 (for order = 1 the map is zero)
    v_prev = module.annihilator(order - 1) if order >= 2 else None
    lands = True
    for d, vec in basis:
        for p in range(module.cb.dim):
            img = module.apply_to_vector(p, 1, vec)
            if img and (v_prev is None or not v_prev.span_contains(d - 1, img)):
                lands = False

    # equivariance: (x eps)(y v) = y ((x eps) v) + ([x, y] eps) v
    equivariant = True
    for d, vec in basis:
        for y in range(module.cb.dim):
            yv = module.apply_to_vector(y, 0, vec)
            for x in range(module.cb.dim):
                lhs = module.apply_to_vector(x, 1, yv)
                rhs = module.apply_to_vector(y, 0, module.apply_to_vector(x, 1, vec))
                for q, cq in module.cb.bracket_list(x, y):
                    for t, v in module.apply_to_vector(q, 1, vec).items():
                        accumulate(rhs, t, cq * v)
                if lhs != rhs:
                    equivariant = False

    # g-stability of V(order) degree by degree
    stable = True
    for d, vec in basis:
        for y in range(module.cb.dim):
            img = module.apply_to_vector(y, 0, vec)
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


def module_json_dict(module: TruncatedWeylModule, modes=None) -> dict:
    """Serializable snapshot of the truncated module.

    Schema (all scalars are exact strings, "p/q" or "a/b+c/d i"):
      schema: fixed identifier string
      algebra: {series, rank}
      m_hw / kappa / depth / dual_coxeter / k_scalar: build parameters
      generators: Chevalley generator names in index order
      degrees: per degree, the basis as {factors: [[mode, generator], ...],
               m_index} with factor modes positive (eps^{-mode})
      actions: per generator and mode, blocks of exact entries
               [row, col, value] sorted by (row, col); partial marks modes
               whose image leaves the truncation on some degrees
    Modes default to every |m| <= depth.
    """
    if modes is None:
        modes = range(-module.depth, module.depth + 1)
    degrees = []
    for n in range(module.depth + 1):
        rng = module.degree_range(n)
        basis = []
        for idx in rng:
            mono, j = module.keys[idx]
            basis.append(
                {
                    "factors": [
                        [f >> _SHIFT, module.cb.names[f & _MASK]] for f in mono
                    ],
                    "m_index": j,
                    "weight": [format_scalar(c) for c in module.weights[idx].coords],
                }
            )
        degrees.append({"degree": n, "dimension": len(rng), "basis": basis})
    actions = []
    for p in range(module.cb.dim):
        for m in modes:
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
                    {
                        "source_degree": n,
                        "target_degree": n - m,
                        "entries": entries,
                    }
                )
            actions.append(
                {
                    "generator": module.cb.names[p],
                    "mode": m,
                    "partial": m < 0,
                    "blocks": blocks,
                }
            )
    return {
        "schema": "weylmod.truncated_module.v1",
        "algebra": {"series": module.algebra.series, "rank": module.algebra.rank},
        "m_hw": [format_scalar(c) for c in module.m_hw.coords],
        "kappa": format_scalar(module.kappa),
        "depth": module.depth,
        "dual_coxeter": format_scalar(module.algebra.dual_coxeter),
        "k_scalar": format_scalar(module.k_scalar),
        "generators": list(module.cb.names),
        "degrees": degrees,
        "actions": actions,
    }
