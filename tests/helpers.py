"""Constructions that only the tests use: extra representations, the
Casimir matrix, products and linear combinations of column-sparse matrices,
a determinant, a simple reflection and the dominant weight it leads to,
vector normalization, a JobConfig parser, the character of a decomposition,
the pointwise product of characters (the oracle of Brauer-Klimyk), the
Kostant spectrum, the adjoint character by Freudenthal, the Weyl dimension
as a product over root_pairings, the full-weight-map oracles for S(ad) and
for the weights of an irreducible, the bounding-box oracle for the
root-lattice ball with its exact floor(x + sqrt t), the resonance value
q(mu) through the invariant form on weights, and for a truncated module the
degree of a basis vector, the action on one sparse vector with its checks,
the candidate matched to a weight, and the per-vector oracles for the
Sugawara L0, its closed form, the Virasoro commutator, the straightened
action store and the annihilator levels.

Matrices are column-sparse, {column: {row: value}} without zeros, as in
Rep.mats; compose and combine are built on linalg's apply and accumulate.
The test modules import this file as ``helpers``; pytest puts the tests
directory on the import path.
"""

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import isqrt
from operator import add, mul

from weylmod.affine_numerics import ResonanceScan
from weylmod.chevalley import ChevalleyBasis, Rep
from weylmod.cli import JobConfig
from weylmod.explicit_module import (
    _MASK, _SHIFT, _weight_blocks, monomials_of_degree,
)
from weylmod.finite_rep import Character, casimir_on_irrep, irrep_character
from weylmod.invariant import check
from weylmod.linalg import (
    _EMPTY, _ZERO, _canonical, _scaled, accumulate, apply, matrix_inverse,
    nullspace_of_columns,
)
from weylmod.rational import exact, parse_scalar
from weylmod.root_system import AlgebraData, Weight, inner_product, norm_sq


def compose(a, b):
    """The product ab of column-sparse matrices."""
    out = {}
    for j, col in b.items():
        img = apply(a, col)
        if img:
            out[j] = img
    return out


def combine(terms):
    """sum of c * M over the pairs (c, M) of terms."""
    out = {}
    for c, m in terms:
        for j, col in m.items():
            acc = out.setdefault(j, {})
            for i, v in col.items():
                accumulate(acc, i, c * v)
    return {j: col for j, col in out.items() if col}


def rep_trivial(cb: ChevalleyBasis) -> Rep:
    z = (0,) * cb.algebra.rank
    return Rep(cb, [{}] * cb.dim, [z], Weight(cb.algebra, z))


def rep_adjoint(cb: ChevalleyBasis) -> Rep:
    mats = [
        {q: dict(col) for q in range(cb.dim) if (col := cb.bracket_list(p, q))}
        for p in range(cb.dim)
    ]
    theta = root_weight(cb.algebra, cb.algebra.highest_root)
    return Rep(cb, mats, cb.weights, theta)


def rep_tensor(r1: Rep, r2: Rep) -> Rep:
    """x acts on U (x) W as x (x) 1 + 1 (x) x; basis vector (i, k) is i d2 + k."""
    d1, d2 = r1.dim, r2.dim
    mats = []
    for a, b in zip(r1.mats, r2.mats):
        left = {j * d2 + k: {i * d2 + k: v for i, v in col.items()}
                for j, col in a.items() for k in range(d2)}
        right = {k * d2 + j: {k * d2 + i: v for i, v in col.items()}
                 for k in range(d1) for j, col in b.items()}
        mats.append(combine([(1, left), (1, right)]))
    # int tuples: + would concatenate, so add coordinatewise
    weights = [
        tuple(map(add, r1.basis_weights[i], r2.basis_weights[j]))
        for i in range(d1)
        for j in range(d2)
    ]
    return Rep(r1.cb, mats, weights, r1.hw + r2.hw)


def casimir_matrix(cb: ChevalleyBasis, rep: Rep):
    """Omega = sum_p x_p x^p on the representation, column-sparse."""
    mats = rep.mats
    return combine((c, compose(mats[p], mats[q])) for p, q, c in cb.casimir_pairs)


def determinant(rows):
    """Exact determinant via field Gaussian elimination (small matrices)."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] == 0:
                continue
            fac = a[i][c] * inv
            for j in range(c, n):
                a[i][j] -= fac * a[c][j]
    return det


def gram_is_positive_definite(algebra: AlgebraData) -> bool:
    """Leading principal minors of the root Gram matrix are all positive."""
    g = algebra.gram_root
    for k in range(1, algebra.rank + 1):
        sub = [row[:k] for row in g[:k]]
        if determinant(sub) <= 0:
            return False
    return True


def reflect_simple(w: Weight, i: int) -> Weight:
    """Simple reflection s_i in fundamental coordinates."""
    A = w.algebra.cartan
    c = w.coords[i]
    return Weight(
        w.algebra, tuple(w.coords[j] - c * A[j][i] for j in range(w.algebra.rank))
    )


def dominant_weight(w: Weight) -> Weight:
    """The dominant point of the Weyl orbit of w, by reflect_simple at a
    negative coordinate until there is none."""
    while not w.is_dominant():
        w = reflect_simple(w, min(i for i, c in enumerate(w.coords) if c < 0))
    return w


def dense_dominant_coords(cartan, v):
    """The dominant point of the Weyl orbit of v and the number of simple
    reflections used: s_i maps v to v - v_i A[., i] over every row of the
    dense Cartan matrix, at the first negative coordinate.  The oracle of
    root_system.dominant_coords, which reflects on the nonzero entries only."""
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


def normalize_vector(vec):
    """Scale to integral entries with content 1 and positive leading entry.

    Leading sign convention: first nonzero entry has positive real part, or
    zero real part and positive imaginary part.
    """
    pairs, _ = _scaled(vec)
    return _canonical([pairs.get(i, _ZERO) for i in range(len(vec))])


def job_config_from_json_dict(data: dict) -> JobConfig:
    """Inverse of JobConfig.to_json_dict."""
    kappa = data.get("kappa")
    return JobConfig(
        command=data["command"],
        series=data["algebra"]["series"],
        rank=data["algebra"]["rank"],
        weights=[[Fraction(c) for c in w] for w in data.get("weights", [])],
        kappa=None if kappa is None else parse_scalar(kappa),
        n_max=data.get("n_max"),
        fmt=data.get("format", "text"),
    )


def decomposition_character(dec) -> Character:
    """The character sum of m ch L(w) over the constituents of dec."""
    out = {}
    algebra = dec.algebra
    for w, m in dec.items():
        for c, mu in irrep_character(algebra, algebra.weight(w)).dominant.items():
            out[c] = out.get(c, 0) + m * mu
    return Character(dec.algebra, out)


def character_product(a: Character, b: Character) -> Character:
    """The pointwise product of characters, the character of the tensor
    product: the oracle that tensor_decompose's reflection rule matches."""
    if a.algebra != b.algebra:
        raise ValueError("characters over different algebras")
    return _dominant_character(a.algebra, _add_product({}, a.full_map(), b.full_map()))


def kostant_spectrum(algebra: AlgebraData, u_hw: Weight, lam: Weight):
    """The multiset {|lam + mu_i|^2 - |rho|^2 : mu_i weight of L(u_hw)}.

    By Kostant's theorem the product of (Omega - value) over this multiset
    annihilates U (x) M whenever M has infinitesimal character chi_lam.
    Returned sorted in decreasing order, with multiplicity.
    """
    rho2 = norm_sq(algebra.rho)
    vals = []
    for coords, mult in irrep_character(algebra, u_hw).full_map().items():
        v = norm_sq(lam + Weight(algebra, coords)) - rho2
        vals.extend([v] * mult)
    vals.sort(reverse=True)
    return vals


def adjoint_character(algebra: AlgebraData) -> Character:
    return irrep_character(algebra, algebra.weight(algebra.roots_fw[-1]))


def weyl_dimension_by_pairings(algebra: AlgebraData, c) -> int:
    """dim L(c) for a dominant int tuple c as the product over alpha > 0 of
    (c + rho, alpha) / (rho, alpha), each pairing a full dot product with
    AlgebraData.root_pairings: the oracle of finite_rep.irrep_dimension."""
    v = [x + 1 for x in c]  # c + rho, rho = (1, ..., 1)
    num = den = 1
    for pair in algebra.root_pairings:
        num *= sum(map(mul, v, pair))
        den *= sum(pair)
    dim, r = divmod(num, den)
    if r:  # an explicit raise, so python -O keeps the check
        raise AssertionError((algebra, c, num, den))
    return dim


# -- full-weight-map oracles ---------------------------------------------------
# A full map is {int tuple in fundamental coordinates: multiplicity} over the
# whole support; these multiply full maps weight by weight and never reduce a
# key to its dominant point.


def _add_product(acc: dict, a: dict, b: dict) -> dict:
    """acc += a * b for full maps; returns acc."""
    for ca, ma in a.items():
        for cb, mb in b.items():
            key = tuple(x + y for x, y in zip(ca, cb))
            acc[key] = acc.get(key, 0) + ma * mb
    return acc


def _adams(full: dict, k: int) -> dict:
    """Full map of the Adams operation psi^k: weight b -> k b."""
    out = {}
    for coords, m in full.items():
        key = tuple(k * c for c in coords)
        out[key] = out.get(key, 0) + m
    return out


def _sym_power_maps(full: dict, rank: int, m_max: int):
    """Full maps of Sym^m(V), m = 0..m_max, by Newton's identity
    m h_m = sum_{k=1}^{m} psi^k(chi) h_{m-k}."""
    h = [{(0,) * rank: 1}]
    for m in range(1, m_max + 1):
        acc = {}
        for k in range(1, m + 1):
            _add_product(acc, _adams(full, k), h[m - k])
        level = {}
        for c, v in acc.items():
            q, r = divmod(v, m)
            if r or q < 0:  # an explicit raise, so python -O keeps the check
                raise AssertionError((m, c, v))
            if q:
                level[c] = q
        h.append(level)
    return h


def _dominant_character(algebra: AlgebraData, full: dict) -> Character:
    return Character(algebra, {c: m for c, m in full.items() if min(c) >= 0})


def sym_powers(char: Character, m_max: int):
    """Characters of Sym^m(V) for m = 0..m_max by Newton's identity."""
    algebra = char.algebra
    maps = _sym_power_maps(char.full_map(), algebra.rank, m_max)
    return [_dominant_character(algebra, f) for f in maps]


def adams_product_full_map(algebra: AlgebraData, j: int, lam) -> dict:
    """Full map of the virtual character psi^j(ad) ch L(lam), lam a dominant
    int tuple."""
    ad = adjoint_character(algebra).full_map()
    top = irrep_character(algebra, algebra.weight(lam)).full_map()
    return _add_product({}, _adams(ad, j), top)


def sym_ad_full_maps(algebra: AlgebraData, n_max: int):
    """Full maps of S(ad)_n, n = 0..n_max: the tensor product over k of
    Sym(g t^{-k}), as a degree-wise convolution truncated at n_max."""
    ad = adjoint_character(algebra).full_map()
    levels = [{(0,) * algebra.rank: 1}] + [{}] * n_max
    for k in range(1, n_max + 1):
        syms = _sym_power_maps(ad, algebra.rank, n_max // k)
        # Sym^m(g t^{-k}) sits in degree k m
        factor = [syms[deg // k] if deg % k == 0 else {} for deg in range(n_max + 1)]
        levels = _convolve_graded(levels, factor, n_max)
    return levels


def _convolve_graded(levels_a, levels_b, n_max):
    """Degree-wise product of two graded full maps, truncated at n_max."""
    out = []
    for nn in range(n_max + 1):
        acc = {}
        for i in range(nn + 1):
            if levels_a[i] and levels_b[nn - i]:
                _add_product(acc, levels_a[i], levels_b[nn - i])
        out.append(acc)
    return out


def weight_closure(cartan, top) -> set:
    """The saturated weight set of L(top), as int tuples, via simple root
    strings: from each weight w, w - k alpha_i for k = 1..w_i."""
    n = len(top)
    seen = {top}
    stack = [top]
    while stack:
        w = stack.pop()
        for i in range(n):
            cur = w
            for _ in range(w[i]):
                # subtract alpha_i, the i-th column of the Cartan matrix
                cur = tuple(cur[j] - cartan[j][i] for j in range(n))
                if cur not in seen:
                    seen.add(cur)
                    stack.append(cur)
    return seen


def floor_plus_sqrt(x: Fraction, t: Fraction) -> int:
    """floor(x + sqrt(t)) exactly, for rational x and rational t >= 0.

    With x = p/q (q > 0), floor(x + sqrt t) = floor((p + sqrt(t q^2)) / q),
    and since p and q are integers the square root may be floored first.
    """
    check(t >= 0, "square root of a negative number")
    p, q = x.numerator, x.denominator
    return (p + isqrt(t.numerator * q * q // t.denominator)) // q


def ball_by_box(algebra: AlgebraData, shift: Weight, bound):
    """enumerate_root_lattice_ball by brute force over a bounding box.

    Completing the square bounds coordinate i by |x_i|^2 <= R (G^-1)_{ii};
    every point of that box is tested with the exact quadratic form, and the
    survivors are sorted lexicographically.
    """
    bound = Fraction(bound)
    if bound < 0:
        return []
    n = algebra.rank
    s = shift.to_root_coords()
    g = algebra.gram_root
    ginv = matrix_inverse(g)
    ranges = []
    for i in range(n):
        t = bound * ginv[i][i]
        ranges.append(range(-floor_plus_sqrt(s[i], t), floor_plus_sqrt(-s[i], t) + 1))
    out = []
    for m in itertools.product(*ranges):
        x = [m[i] + s[i] for i in range(n)]
        if sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n)) <= bound:
            out.append(m)
    out.sort()
    return out


def root_weight(algebra: AlgebraData, mu) -> Weight:
    """The root lattice vector mu, given in simple-root coordinates, as a
    weight: coordinate i is <mu, a_i-check> = sum_j cartan[i][j] mu_j."""
    return Weight(algebra, [sum(c * m for c, m in zip(row, mu))
                            for row in algebra.cartan])


def resonance_value(lam: Weight, mu) -> Fraction:
    """q(mu) = |mu|^2 + 2 (lambda, mu), exact, by the invariant form on
    weights: the oracle of the package's scaled integer form."""
    w = root_weight(lam.algebra, mu)
    return norm_sq(w) + 2 * inner_product(lam, w)


# -- truncated-module oracles --------------------------------------------------
# The per-vector oracles go through apply_to_vector one operator at a time,
# with its degree check, as the package did before it read the store directly.


def degree_of(module, idx: int) -> int:
    """The degree of basis vector idx of a truncated module."""
    return bisect_right(module._bounds, idx) - 1


def apply_to_vector(module, p, m: int, vec: dict) -> dict:
    """x_p eps^m on a sparse vector {index: coeff}; ValueError on an
    unknown generator or basis index, or an image outside the truncation."""
    p = module.generator_index(p)
    for idx in vec:
        if not 0 <= idx < module.dim:
            raise ValueError("basis index %r outside 0..%d" % (idx, module.dim - 1))
        source = degree_of(module, idx)
        if source - m > module.depth:
            raise ValueError("image of degree %d under mode %d leaves the "
                             "truncation" % (source, m))
    return apply(module._action.get((p, m), _EMPTY), vec)


def matched_candidate(module, weight: Weight, n: int):
    """The Weight-level oracle of explicit_module._matched: the degree-n
    candidate with lambda + mu = weight + rho, else the first whose lambda +
    mu has the dominant_weight of weight + rho, else None.  _matched has no
    such W-orbit fallback, so the two agree only while it never fires.  The
    candidates are those of a ResonanceScan built here, when kappa lies off
    the nonnegative reals, so the oracle does not share _matched's form."""
    algebra, kappa = module.algebra, module.kappa
    if not (kappa.imag or kappa.real < 0):
        return None
    lam = module.m_hw + algebra.rho
    target = weight + algebra.rho
    shifted = [(p, lam + root_weight(algebra, p.mu))
               for p in ResonanceScan(lam, kappa).candidates if p.n == n]
    matched = next((p for p, w in shifted if w == target), None)
    if matched is None:
        top = dominant_weight(target)
        matched = next((p for p, w in shifted if dominant_weight(w) == top), None)
    return matched


def sugawara_columns(module):
    """The columns of the Sugawara L0, each basis vector pushed through every
    term (x_p x^p and (x_p eps^-j)(x^p eps^j)) by apply_to_vector."""
    kappa = module.kappa
    columns = {}
    for n in range(module.depth + 1):
        for idx in module.degree_range(n):
            acc = {}
            start = {idx: 1}
            for p, q, w in module.cb.casimir_pairs:
                for j in range(n + 1):
                    tmp = apply_to_vector(module, p, -j,
                                          apply_to_vector(module, q, j, start))
                    for t, v in tmp.items():
                        accumulate(acc, t, (w if j == 0 else 2 * w) * v)
            columns[idx] = {t: v / (2 * kappa) for t, v in acc.items()}
    return columns


def l0_eigenvalues(module):
    """The closed form a/(2 kappa) + n of the L0 eigenvalue on each degree n,
    a the Casimir of M, as a tuple indexed by degree."""
    a = Fraction(casimir_on_irrep(module.algebra, module.m_hw))
    return tuple(a / (2 * module.kappa) + n for n in range(module.depth + 1))


def layer_scalar_columns(module, eigenvalues):
    """{idx: {idx: xi_n}} for every basis vector idx of degree n, with an
    empty column where xi_n = 0: the columns of the layer-scalar L0."""
    return {idx: ({idx: xi} if xi else {})
            for n, xi in enumerate(eigenvalues)
            for idx in module.degree_range(n)}


def virasoro_commutator_holds(module, l0_columns):
    """[L0, x eps^m] = -m x eps^m, evaluated literally: both products of the
    given L0 columns with the stored columns of every x eps^m, |m| <=
    depth, on every source degree the truncation keeps the image of."""
    depth = module.depth
    for p in range(module.cb.dim):
        for m in range(-depth, depth + 1):
            cols = module.columns(p, m)
            for n in range(max(m, 0), depth + min(m, 0) + 1):
                for j in module.degree_range(n):
                    aj = cols.get(j, {})
                    lhs = apply(l0_columns, aj)
                    for i, v in apply(cols, l0_columns[j]).items():
                        accumulate(lhs, i, -v)
                    if lhs != {i: -m * v for i, v in aj.items() if m}:
                        return False
    return True


def straightened_action(module):
    """The action store of a truncated module rebuilt on basis indices, in
    its shape {(p, m): {source: {target: coeff}}} with canonical scalars.

    A negative mode that does not sort below the first factor g of a basis
    vector g w is prepended; otherwise, with x = x_p eps^m and
    g = x_{p0} eps^{-k}, x (g w) = g (x w) + [x, g] w
    + delta_{m,k} m (x, g) (kappa - h_dual) w, from the columns of x on w,
    of g on the vectors of x w and of [x, g] on w.  The zero modes act on
    degree 0 through Rep.mats, and the positive ones kill it."""
    cb = module.cb
    # the (monomial, j) key of each basis vector, j fastest
    keys = [(mono, j) for mono in module.monos for j in range(module.rep.dim)]
    index = {key: i for i, key in enumerate(keys)}
    columns = {}

    def column(p, m, idx):
        if (p, m, idx) in columns:
            return columns[p, m, idx]
        mono, j = keys[idx]
        f = ((-m) << _SHIFT) | p
        if m < 0 and (not mono or f >= mono[0]):
            out = {index[(f,) + mono, j]: 1}
        elif not mono:
            col = module.rep.mats[p].get(j, {}) if m == 0 else {}
            out = {index[(), i]: v for i, v in col.items()}
        else:
            k, p0 = mono[0] >> _SHIFT, mono[0] & _MASK
            w = index[mono[1:], j]
            out = {}
            for t, c in column(p, m, w).items():
                for s, v in column(p0, -k, t).items():
                    accumulate(out, s, c * v)
            for q, cq in cb.bracket_list(p, p0):
                for s, v in column(q, m - k, w).items():
                    accumulate(out, s, cq * v)
            if m == k:
                accumulate(out, w, m * cb.pairing(p, p0) * module.k_scalar)
        columns[p, m, idx] = out
        return out

    depth = module.depth
    store = {}
    for p in range(cb.dim):
        for m in range(-depth, depth + 1):
            cols = store[p, m] = {}
            for n in range(max(m, 0), depth + min(m, 0) + 1):
                for idx in module.degree_range(n):
                    col = {t: exact(v) for t, v in column(p, m, idx).items()}
                    if col:
                        cols[idx] = col
    return store


def annihilator_all_degrees(module, order):
    """V(order) on degrees 0..depth-order as {degree: [vector, ...]}: each
    weight block of degree d >= order solved against the monomials of every
    degree order..d, each applied factor by factor."""
    out = {}
    for d in range(module.depth - order + 1):
        rng = module.degree_range(d)
        if d < order:
            out[d] = [{idx: 1} for idx in rng]
            continue
        ops = [op for e in range(order, d + 1)
               for op in monomials_of_degree(module.cb.dim, e)]
        vectors = out[d] = []
        for block in _weight_blocks(module, rng).values():
            columns = []
            for idx in block:
                col = {}
                for o_num, op in enumerate(ops):
                    vec = {idx: 1}
                    for f in reversed(op):
                        vec = apply_to_vector(module, f & _MASK, f >> _SHIFT, vec)
                    for t, v in vec.items():
                        col[(o_num, t)] = v
                columns.append(col)
            for vec in nullspace_of_columns(columns):
                vectors.append({block[i]: c for i, c in enumerate(vec) if c})
    return out
