"""Tests for fraction-free exact linear algebra."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from helpers import determinant, normalize_vector
from weylmod.linalg import (
    FILTER_I,
    FILTER_PRIME,
    SpanBuilder,
    independent_mod_p,
    matrix_inverse,
    nullspace,
    nullspace_of_columns,
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
        assert rank(m) == _reference_rank(m, cols)


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        basis = nullspace(m, cols)
        assert len(basis) == cols - rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # basis vectors are independent
        assert rank(basis) == len(basis) if basis else True


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
    assert w[0].imag != 0 or w[0] > 0


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
    sb = SpanBuilder()
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
    sb = SpanBuilder()
    assert sb.add({10: Fraction(1), 50: Fraction(2)})
    assert sb.add({50: Fraction(1)})
    assert sb.contains({10: Fraction(3), 50: Fraction(6)})
    assert not sb.contains({11: Fraction(1)})
    assert sb.coords({10: Fraction(1)}) == {0: Fraction(1), 1: Fraction(-2)}


def test_int_input_gives_exact_scalars_never_float():
    sb = SpanBuilder()
    assert sb.add([1, 0, 1])
    assert sb.add([0, 2, 1])
    coords = sb.coords([3, 4, 5])
    assert coords == {0: 3, 1: 2}
    assert all(type(x) is Fraction for x in coords.values())
    inv = matrix_inverse([[2, 1], [7, 4]])
    assert all(type(x) is Fraction for row in inv for x in row)
    i = ComplexRational(0, 1)
    sb = SpanBuilder()
    assert sb.add([1, i])
    coords = sb.coords([3, 3 * i])
    assert coords == {0: 3}
    assert all(isinstance(x, (Fraction, ComplexRational)) for x in coords.values())


# Kernel bases of fixed Q(i) matrices, as the dense back-substitution kernel
# returned them.  They pin the canonical form (one vector per free column,
# content 1, positive leading entry) that JSON dumps depend on.
_I = ComplexRational(0, 1)
_PINNED_KERNELS = [
    (
        [[Fraction(1), _I, Fraction(2)], [Fraction(0), Fraction(1) + _I, Fraction(-1)]],
        3,
        [[ComplexRational(5, 1), ComplexRational(-1, 1), Fraction(-2)]],
    ),
    (
        [
            [Fraction(1, 2), ComplexRational(1, 1), Fraction(0), ComplexRational(0, -2)],
            [Fraction(1), ComplexRational(2, 2), Fraction(0), ComplexRational(0, -4)],
            [Fraction(0), Fraction(0), Fraction(3), _I],
        ],
        4,
        [
            [ComplexRational(2, 2), Fraction(-1), Fraction(0), Fraction(0)],
            [ComplexRational(0, 12), Fraction(0), ComplexRational(0, -1), Fraction(3)],
        ],
    ),
    (
        [
            [ComplexRational(2, 1), Fraction(1), Fraction(0), Fraction(-1), _I],
            [Fraction(0), ComplexRational(1, -1), Fraction(1, 3), Fraction(0), Fraction(0)],
            [ComplexRational(2, 1), ComplexRational(2, -1), Fraction(1, 3), Fraction(-1), _I],
        ],
        5,
        [
            [ComplexRational(3, 1), ComplexRational(-5, -5), Fraction(30), Fraction(0),
             Fraction(0)],
            [ComplexRational(2, -1), Fraction(0), Fraction(0), Fraction(5), Fraction(0)],
            [ComplexRational(1, 2), Fraction(0), Fraction(0), Fraction(0), Fraction(-5)],
        ],
    ),
]


def test_pinned_gaussian_kernel_bases():
    for rows, ncols, expected in _PINNED_KERNELS:
        got = nullspace(rows, ncols)
        assert got == expected
        # real entries come back as Fraction, the others as ComplexRational
        assert [[type(x) for x in v] for v in got] == [
            [type(x) for x in v] for v in expected
        ]


def _random_gaussian_matrix(rng, rows, cols):
    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if rng.random() < 0.5:
            return re
        return ComplexRational(re, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _low_rank(rng, m):
    """Replace some rows by combinations of the others, to force kernels."""
    for r in range(1, len(m)):
        if rng.random() < 0.3:
            a, b = rng.randrange(r), rng.randrange(r)
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            m[r] = [x + k * y for x, y in zip(m[a], m[b])]
    return m


def test_kernel_agrees_with_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def to_sympy(rows, ncols):
        def conv(x):
            if isinstance(x, ComplexRational):
                return sympy.Rational(x.real.numerator, x.real.denominator) + sympy.I * (
                    sympy.Rational(x.imag.numerator, x.imag.denominator))
            x = Fraction(x)
            return sympy.Rational(x.numerator, x.denominator)

        m = sympy.Matrix(len(rows), ncols, [conv(x) for r in rows for x in r])
        return DomainMatrix.from_Matrix(m).convert_to(sympy.QQ_I)

    rng = random.Random(5)
    for trial in range(24):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        if trial % 2:
            m = _low_rank(rng, _random_gaussian_matrix(rng, nrows, ncols))
        else:
            m = _low_rank(rng, _random_matrix(rng, nrows, ncols))
        dm = to_sympy(m, ncols)
        r = dm.rank()
        assert rank(m) == r
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - r
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            # the entry at the vector's own free column (its last nonzero
            # entry) is rational: the basis is canonical up to Q, not Q(i)
            assert type([x for x in v if x][-1]) is Fraction
        if basis:
            assert to_sympy(basis, ncols).rank() == len(basis)

    for trial in range(12):
        n = rng.randint(1, 12)
        m = _random_matrix(rng, n, n, density=0.8)
        dm = to_sympy(m, n)
        if dm.rank() < n:
            with pytest.raises(ValueError):
                matrix_inverse(m)
            continue
        inv = matrix_inverse(m)
        assert to_sympy(inv, n).to_Matrix() == dm.inv().to_Matrix()


def test_span_builder_properties_against_nullspace():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    scalar = st.one_of(st.just(Fraction(0)), small, st.builds(ComplexRational, small, small))

    @st.composite
    def systems(draw):
        dim = draw(st.integers(1, 5))
        vec = st.lists(scalar, min_size=dim, max_size=dim)
        gens = draw(st.lists(vec, max_size=6))
        # the probe is often a combination of the generators, so that both
        # branches of contains() occur
        if gens and draw(st.booleans()):
            coeffs = draw(st.lists(scalar, min_size=len(gens), max_size=len(gens)))
            probe = [sum((c * g[k] for c, g in zip(coeffs, gens)), Fraction(0))
                     for k in range(dim)]
        else:
            probe = draw(vec)
        return dim, gens, probe

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(systems())
    def span_matches_nullspace(system):
        dim, gens, probe = system
        sb = SpanBuilder()
        kept = [g for g in gens if sb.add(g)]
        r = sb.rank()
        assert r == len(kept) == rank(gens)
        assert len(nullspace(gens, dim)) == dim - r
        # relations among the generators: the kernel of the transpose
        transpose = [[g[k] for g in gens] for k in range(dim)]
        assert len(nullspace(transpose, len(gens))) == len(gens) - r
        for g in gens + [probe]:
            coords = sb.coords(g)
            assert (coords is not None) == sb.contains(g)
            if coords is not None:
                rebuilt = [sum((c * kept[j][k] for j, c in coords.items()), Fraction(0))
                           for k in range(dim)]
                assert rebuilt == g
        bigger = SpanBuilder()
        for g in gens + [probe]:
            bigger.add(g)
        assert sb.contains(probe) == (bigger.rank() == r)

    span_matches_nullspace()


def _columns(rows, ncols, key=lambda i: i):
    return [{key(i): row[c] for i, row in enumerate(rows) if row[c]} for c in range(ncols)]


def test_nullspace_of_columns_is_nullspace_for_any_row_keys_and_order():
    rng = random.Random(11)
    for trial in range(30):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        if trial % 2:
            m = _low_rank(rng, _random_gaussian_matrix(rng, nrows, ncols))
        else:
            m = _low_rank(rng, _random_matrix(rng, nrows, ncols))
        expected = nullspace(m, ncols)
        assert nullspace_of_columns(_columns(m, ncols)) == expected
        # the basis depends only on the column order, not on how rows are
        # keyed or ordered
        perm = list(range(nrows))
        rng.shuffle(perm)
        shuffled = [m[i] for i in perm]
        assert nullspace(shuffled, ncols) == expected
        assert nullspace_of_columns(_columns(m, ncols, key=lambda i: ("r", -i))) == expected


def test_mod_p_filter_regular_over_q_but_singular_mod_p():
    p = FILTER_PRIME
    rows = [[1, 1], [1, 1 + p]]
    assert rank(rows) == 2 and nullspace(rows, 2) == []
    assert not independent_mod_p(_columns(rows, 2))
    assert independent_mod_p(_columns([[1, 1], [1, 2 + p]], 2))


def test_mod_p_filter_denominator_divisible_by_p_is_not_a_proof():
    p = FILTER_PRIME
    for x in (Fraction(1, p), Fraction(3, 2 * p), ComplexRational(1, Fraction(1, p))):
        assert not independent_mod_p([{0: x}])
        assert rank([[x]]) == 1
    assert independent_mod_p([{0: Fraction(1, p + 1)}, {1: ComplexRational(2, 3)}])


def test_mod_p_filter_sends_i_to_a_root_of_minus_one():
    p = FILTER_PRIME
    # the filter is a ring map onto F_p only for p prime and p = 1 (mod 4)
    assert p % 4 == 1
    assert all(p % d for d in range(2, isqrt(p) + 1))
    assert FILTER_I * FILTER_I % p == p - 1
    i = ComplexRational(0, 1)
    # (i, -1) = i (1, i): dependent over Q(i), and mod p only if I^2 = -1
    assert not independent_mod_p([{0: 1, 1: i}, {0: i, 1: -1}])
    assert rank([[1, i], [i, -1]]) == 1
    # (1, i) and (1, -i) are independent: I != -I
    assert independent_mod_p([{0: 1, 1: i}, {0: 1, 1: -i}])
    # (1, i) and (1, FILTER_I) are independent over Q(i) but equal mod p
    assert not independent_mod_p([{0: 1, 1: i}, {0: 1, 1: FILTER_I}])
    assert rank([[1, 1], [i, FILTER_I]]) == 2
    assert independent_mod_p([])


def test_mod_p_filter_agrees_with_exact_rank_on_small_entries():
    rng = random.Random(3)
    shown = 0
    for trial in range(60):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 2:
            m = _low_rank(rng, _random_gaussian_matrix(rng, nrows, ncols))
        else:
            m = _low_rank(rng, _random_matrix(rng, nrows, ncols))
        full = rank(m) == ncols
        # entries this small have no minor divisible by p unless it is 0
        assert independent_mod_p(_columns(m, ncols)) == full
        shown += full
    assert 10 < shown < 50


def test_mod_p_filter_independent_implies_full_exact_rank():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    p = FILTER_PRIME
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    entry = st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.sampled_from([p, -p, 2 * p + 1, p * p]),
        small,
        st.builds(ComplexRational, small, small),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([p, 3 * p])),
    )

    @st.composite
    def matrices(draw):
        nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        # sometimes a column is a combination of the others, off by p
        if ncols > 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
            k, off = draw(entry), draw(st.sampled_from([0, p]))
            for row in rows:
                row[-1] = row[a] + k * row[b] + off * row[0]
        return rows, ncols

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(matrices())
    def independent_means_full_rank(matrix):
        rows, ncols = matrix
        if independent_mod_p(_columns(rows, ncols)):
            assert rank(rows) == ncols
            assert nullspace(rows, ncols) == []

    independent_means_full_rank()
