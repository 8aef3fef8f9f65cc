"""Constructions that only the tests use: extra representations, the
Casimir matrix, products and linear combinations of column-sparse matrices,
a determinant, a simple reflection, vector normalization, a JobConfig
parser, and the full-weight-map oracles for S(ad) and for the weights of an
irreducible.

Matrices are column-sparse, {column: {row: value}} without zeros, as in
Rep.mats; compose and combine are built on linalg's apply and accumulate.
The test modules import this file as ``helpers``; pytest puts the tests
directory on the import path.
"""

from fractions import Fraction

from weylmod.chevalley import ChevalleyBasis, Rep
from weylmod.cli import JobConfig
from weylmod.finite_rep import Character, adjoint_character
from weylmod.linalg import _ZERO, _canonical, _scaled, accumulate, apply
from weylmod.rational import parse_scalar
from weylmod.root_system import AlgebraData, Weight


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
    z = Weight(cb.algebra, (0,) * cb.algebra.rank)
    return Rep(cb, [{}] * cb.dim, [z], z)


def rep_adjoint(cb: ChevalleyBasis) -> Rep:
    mats = [
        {q: dict(col) for q in range(cb.dim) if (col := cb.bracket_list(p, q))}
        for p in range(cb.dim)
    ]
    theta = cb.algebra.root_vector(cb.algebra.highest_root).to_weight()
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
    weights = [
        r1.basis_weights[i] + r2.basis_weights[j]
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
