"""Constructions that only the tests use: extra representations, the
Casimir matrix, dense matrix products, a determinant, a simple reflection,
vector normalization, a JobConfig parser, and the full-weight-map oracles
for S(ad) and for the weights of an irreducible.

The test modules import this file as ``helpers``; pytest puts the tests
directory on the import path.
"""

from fractions import Fraction

from weylmod.chevalley import ChevalleyBasis, Rep
from weylmod.cli import JobConfig
from weylmod.finite_rep import Character, adjoint_character
from weylmod.linalg import _ZERO, _canonical, _scaled
from weylmod.rational import parse_scalar
from weylmod.root_system import AlgebraData, Weight


def mat_mul(a, b):
    """Product of dense matrices given as sequences of rows."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(m):
            row.append(sum(ai[t] * b[t][j] for t in range(k)))
        out.append(tuple(row))
    return tuple(out)


def rep_trivial(cb: ChevalleyBasis) -> Rep:
    z = Weight(cb.algebra, (0,) * cb.algebra.rank)
    zero = ((Fraction(0),),)
    return Rep(cb, [zero] * cb.dim, [z], z)


def rep_adjoint(cb: ChevalleyBasis) -> Rep:
    dim = cb.dim
    mats = []
    for p in range(dim):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for q in range(dim):
            for (k, v) in cb.bracket_list(p, q):
                m[k][q] = v
        mats.append(tuple(tuple(row) for row in m))
    theta = cb.algebra.root_vector(cb.algebra.highest_root).to_weight()
    return Rep(cb, mats, cb.weights, theta)


def rep_tensor(r1: Rep, r2: Rep) -> Rep:
    cb = r1.cb
    d1, d2 = r1.dim, r2.dim
    dim = d1 * d2
    mats = []
    for p in range(cb.dim):
        a, b = r1.mats[p], r2.mats[p]
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for i1 in range(d1):
            for j1 in range(d1):
                if a[i1][j1]:
                    for k in range(d2):
                        m[i1 * d2 + k][j1 * d2 + k] += a[i1][j1]
        for k in range(d1):
            for i2 in range(d2):
                for j2 in range(d2):
                    if b[i2][j2]:
                        m[k * d2 + i2][k * d2 + j2] += b[i2][j2]
        mats.append(tuple(tuple(row) for row in m))
    weights = [
        r1.basis_weights[i] + r2.basis_weights[j]
        for i in range(d1)
        for j in range(d2)
    ]
    return Rep(cb, mats, weights, r1.hw + r2.hw)


def casimir_matrix(cb: ChevalleyBasis, rep: Rep):
    """Omega = sum_p x_p x^p on the representation, as an exact matrix."""
    n = rep.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for (p, q, c) in cb.casimir_pairs:
        prod = mat_mul(rep.mats[p], rep.mats[q])
        for i in range(n):
            for j in range(n):
                if prod[i][j]:
                    out[i][j] += c * prod[i][j]
    return tuple(tuple(row) for row in out)


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
            assert r == 0 and q >= 0, (m, c, v)
            if q:
                level[c] = q
        h.append(level)
    return h


def _dominant_character(algebra: AlgebraData, full: dict) -> Character:
    dominant = {Weight(algebra, c): m for c, m in full.items() if min(c) >= 0}
    return Character(algebra, dominant)


def sym_powers(char: Character, m_max: int):
    """Characters of Sym^m(V) for m = 0..m_max by Newton's identity."""
    algebra = char.algebra
    maps = _sym_power_maps(char.full_map(), algebra.rank, m_max)
    return [_dominant_character(algebra, f) for f in maps]


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
