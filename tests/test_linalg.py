"""Tests for fraction-free exact linear algebra."""

import random
from fractions import Fraction

from helpers import determinant
from weylmod.linalg import (
    SpanBuilder,
    matrix_inverse,
    normalize_vector,
    nullspace,
    rank,
)
from weylmod.rational import ComplexRational


def _random_matrix(rng, rows, cols, density=0.7):
    return [
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if rng.random() < density
            else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def _reference_rank(rows, ncols):
    """Plain fraction Gaussian elimination, as an independent oracle."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_matches_reference_on_random_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        assert rank(m, cols) == _reference_rank(m, cols)


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = nullspace(m, cols)
        assert len(basis) == cols - rank(m, cols)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # basis vectors are independent
        assert rank(basis, cols) == len(basis) if basis else True


def test_nullspace_complex_entries():
    i = ComplexRational(0, 1)
    m = [[Fraction(1), i]]  # x + i y = 0
    basis = nullspace(m, 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + i * v[1] == 0


def test_nullspace_deterministic():
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    assert nullspace(m, 3) == nullspace(m, 3)


def test_normalize_vector():
    v = normalize_vector([Fraction(-2, 3), Fraction(4, 3), Fraction(0)])
    # integral, content one, positive leading coefficient
    assert v == [Fraction(1), Fraction(-2), Fraction(0)]
    w = normalize_vector([ComplexRational(0, Fraction(1, 2)), ComplexRational(1, 0)])
    assert w[0].im != 0 or w[0] > 0


def test_determinant_and_inverse():
    m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    assert determinant(m) == 1
    inv = matrix_inverse(m)
    assert [list(r) for r in inv] == [[Fraction(4), Fraction(-1)],
                                      [Fraction(-7), Fraction(2)]]
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n, density=1.0)
        if determinant(m) == 0:
            continue
        inv = matrix_inverse(m)
        prod = [
            [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [
            [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]


def test_span_builder_coords():
    sb = SpanBuilder(3)
    assert sb.add([1, 0, 1])
    assert sb.add([0, 1, 1])
    assert not sb.add([1, 1, 2])  # dependent, consumes no index
    assert sb.add([0, 0, 5])
    assert sb.rank() == 3
    c = sb.coords([2, 3, 0])
    # 2*(1,0,1) + 3*(0,1,1) + c2*(0,0,5) with 2 + 3 + 5 c2 = 0
    assert c == {0: Fraction(2), 1: Fraction(3), 2: Fraction(-1)}
    assert sb.contains({0: Fraction(1)})


def test_span_builder_sparse_inputs():
    sb = SpanBuilder(100)
    assert sb.add({10: Fraction(1), 50: Fraction(2)})
    assert sb.add({50: Fraction(1)})
    assert sb.contains({10: Fraction(3), 50: Fraction(6)})
    assert not sb.contains({11: Fraction(1)})
    assert sb.coords({10: Fraction(1)}) == {0: Fraction(1), 1: Fraction(-2)}
