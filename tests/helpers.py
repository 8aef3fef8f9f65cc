"""Constructions that only the tests use: extra representations, the
Casimir matrix, a determinant, and a JobConfig parser.

The test modules import this file as ``helpers``; pytest puts the tests
directory on the import path.
"""

from fractions import Fraction

from weylmod.chevalley import ChevalleyBasis, Rep, _mat_mul
from weylmod.cli import JobConfig
from weylmod.rational import parse_scalar
from weylmod.root_system import AlgebraData


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
        prod = _mat_mul(rep.mats[p], rep.mats[q])
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
