"""Tests for root data, the invariant form, and Weyl orbits."""

import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from helpers import (
    ball_by_box, dense_dominant_coords, dominant_weight, floor_plus_sqrt, gram_is_positive_definite,
    reflect_simple, resonance_value, root_weight, weight_closure,
)
from weylmod.finite_rep import Character
from weylmod.root_system import (
    build_algebra,
    dominant_below,
    dominant_coords,
    enumerate_root_lattice_ball,
    inner_product,
    norm_sq,
    orbit_coords,
    orbit_size,
)

# (series, rank) -> (#positive roots, dual Coxeter number, dimension)
_DATA = {
    ("A", 1): (1, 2, 3),
    ("A", 2): (3, 3, 8),
    ("A", 3): (6, 4, 15),
    ("B", 2): (4, 3, 10),
    ("B", 3): (9, 5, 21),
    ("C", 3): (9, 4, 21),
    ("D", 4): (12, 6, 28),
    ("G", 2): (6, 4, 14),
    ("F", 4): (24, 9, 52),
    ("A", 5): (15, 6, 35),
    ("E", 6): (36, 12, 78),
}


def test_root_counts_and_dual_coxeter():
    for (series, rank), (npos, h, dim) in _DATA.items():
        a = build_algebra(series, rank)
        assert len(a.positive_roots) == npos
        assert a.dual_coxeter == h
        assert a.dim == dim


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        build_algebra("Z", 9)
    with pytest.raises(ValueError):
        build_algebra("E", 9)
    with pytest.raises(ValueError):
        build_algebra("B", 1)
    with pytest.raises(ValueError):
        build_algebra("A", 0)


def test_normalization_long_roots_norm_two():
    for series, rank in _DATA:
        a = build_algebra(series, rank)
        assert gram_is_positive_definite(a)
        assert norm_sq(root_weight(a, a.highest_root)) == 2
        # d_i = (alpha_i, alpha_i)/2 <= 1 with equality for long roots
        assert max(a.d) == 1


def test_g2_short_root_norm():
    g2 = build_algebra("G", 2)
    short = [d for d in g2.d if d != 1]
    assert short == [Fraction(1, 3)]
    i = g2.d.index(Fraction(1, 3))
    alpha = root_weight(g2, [1 if j == i else 0 for j in range(2)])
    assert norm_sq(alpha) == Fraction(2, 3)


def test_rho_and_form():
    sl2 = build_algebra("A", 1)
    assert norm_sq(sl2.rho) == Fraction(1, 2)
    sl3 = build_algebra("A", 2)
    assert norm_sq(sl3.rho) == 2
    # (rho, alpha_i-check) = 1 for all i
    for series, rank in _DATA:
        a = build_algebra(series, rank)
        rho = a.rho
        for i in range(rank):
            alpha = root_weight(a, [1 if j == i else 0 for j in range(rank)])
            assert 2 * inner_product(rho, alpha) == norm_sq(alpha)


_EVERY_TYPE = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _EVERY_TYPE)
def test_integer_root_data(series, rank):
    a = build_algebra(series, rank)
    form, scale = a.weight_form, a.form_scale

    def pair(x, y):
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, form))

    for k, root in enumerate(a.positive_roots):
        assert a.roots_fw[k] == tuple(map(int, root_weight(a, root).coords))
        assert all(type(c) is int for c in a.roots_fw[k] + a.root_pairings[k])
        assert a.root_pairings[k] == tuple(sum(map(mul, row, a.roots_fw[k])) for row in form)
    assert a.roots_fw[-1] == tuple(map(int, root_weight(a, a.highest_root).coords))
    # the simple roots in fundamental coordinates are the Cartan columns; the
    # form on them is the root Gram matrix, with no use of cartan_inv
    simple = [tuple(a.cartan[i][j] for i in range(rank)) for j in range(rank)]
    for i in range(rank):
        for j in range(rank):
            assert Fraction(pair(simple[i], simple[j]), scale) == a.gram_root[i][j]
    assert pair(a.roots_fw[-1], a.roots_fw[-1]) == 2 * scale
    assert gcd(scale, *(x for row in form for x in row)) == 1


def test_inner_product_symmetry_and_integrality():
    a = build_algebra("B", 2)
    x = a.weight([1, 2])
    y = a.weight([-3, 1])
    assert inner_product(x, y) == inner_product(y, x)


def test_reflections_preserve_norm():
    a = build_algebra("G", 2)
    w = a.weight([2, -1])
    for i in range(2):
        r = reflect_simple(w, i)
        assert norm_sq(r) == norm_sq(w)
        assert reflect_simple(r, i) == w


def test_dominant_representative_and_orbit():
    a = build_algebra("A", 2)
    dom, count = dominant_coords(a, (-1, -1))
    assert dom == (1, 1) and count == 3
    assert a.weight(dom) == dominant_weight(a.weight([-1, -1]))
    assert orbit_coords(a, (1, 0)) == {(1, 0), (-1, 1), (0, -1)}
    assert dominant_coords(a, (-1, 1))[0] == (1, 0)
    assert dominant_coords(a, (0, 1))[0] != (1, 0)
    # |W| orbit of a regular weight: A2 has Weyl group of order 6
    assert len(orbit_coords(a, (1, 1))) == 6


def test_weyl_orbit_sizes_sl2():
    sl2 = build_algebra("A", 1)
    assert orbit_coords(sl2, (0,)) == {(0,)}
    assert orbit_coords(sl2, (3,)) == {(3,), (-3,)}


# |W| by type: (n+1)!, 2^n n!, 2^(n-1) n!, and the exceptional orders
_WEYL_ORDER = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("B", 2): 8,
    ("B", 3): 48, ("C", 3): 48, ("D", 4): 192, ("G", 2): 12, ("F", 4): 1152,
}


def _parabolic_order(algebra, support):
    """|W_J| for the simple reflections J = support, by Macdonald's formula
    |W_J| = prod over positive roots alpha of Phi_J of (ht alpha + 1)/ht alpha."""
    order = Fraction(1)
    for root in algebra.positive_roots:
        if all(root[j] == 0 for j in range(algebra.rank) if j not in support):
            order *= Fraction(sum(root) + 1, sum(root))
    assert order.denominator == 1
    return int(order)


def _reflection_closure(w):
    """Brute force: close {w} under all simple reflections."""
    seen = {w.coords}
    stack = [w]
    while stack:
        v = stack.pop()
        for i in range(v.algebra.rank):
            u = reflect_simple(v, i)
            if u.coords not in seen:
                seen.add(u.coords)
                stack.append(u)
    return seen


def _test_weights(rank):
    yield (0,) * rank
    yield (1,) * rank
    for i in range(rank):
        yield tuple(int(i == j) for j in range(rank))
    yield tuple(j % 3 for j in range(rank))
    yield tuple(2 * (j % 2) for j in range(rank))


@pytest.mark.parametrize("series,rank", sorted(_WEYL_ORDER))
def test_integer_orbits_match_weyl_orbit_and_orbit_size(series, rank):
    a = build_algebra(series, rank)
    order = _WEYL_ORDER[series, rank]
    assert _parabolic_order(a, set(range(rank))) == order
    for coords in _test_weights(rank):
        w = a.weight(coords)
        stabilizer = _parabolic_order(a, {i for i in range(rank) if coords[i] == 0})
        full = Character(a, {coords: 1}).full_map()
        assert len(full) == order // stabilizer, coords
        assert all(type(c) is int for key in full for c in key)
        if order <= 192:
            assert set(full) == _reflection_closure(w)
        # the orbit of any of its points is the same orbit
        some = sorted(full)[len(full) // 2]
        assert orbit_coords(a, some) == set(full)
        assert dominant_coords(a, some)[0] == coords


# every type of rank <= 8
_ALL_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _ALL_UP_TO_RANK_8)
def test_sparse_reflection_kernel_matches_dense_oracle(series, rank):
    a = build_algebra(series, rank)
    for i, col in enumerate(a.cartan_cols):
        assert col == tuple((j, a.cartan[j][i]) for j in range(rank) if a.cartan[j][i])
    rng = random.Random(rank)
    for _ in range(60):
        v = tuple(rng.randint(-5, 5) for _ in range(rank))
        dom, count = dense_dominant_coords(a.cartan, v)
        # each step removes one positive root pairing negatively with v, so
        # the count, not only its parity, is the same in any order of steps
        assert dominant_coords(a, v) == (dom, count), v
        # the regular walk stops on a wall, which a singular dominant point
        # lies on, and otherwise finishes the same walk
        regular = dominant_coords(a, v, regular=True)
        assert regular == (None if 0 in dom else (dom, count)), v


# every weight with coordinates <= 2 on these types, 426 in all
_ORBIT_SIZE_TYPES = [("A", 1), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                     ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("series,rank", _ORBIT_SIZE_TYPES)
def test_orbit_size_formula_matches_orbit_walk(series, rank):
    a = build_algebra(series, rank)
    for c in itertools.product(range(3), repeat=rank):
        assert orbit_size(a, c) == len(orbit_coords(a, c)), c


def test_orbit_size_at_rho_is_weyl_group_order():
    orders = {("D", 5): 1920, ("E", 6): 51840, ("E", 7): 2903040,
              ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}
    for (series, rank), order in orders.items():
        a = build_algebra(series, rank)
        assert orbit_size(a, (1,) * rank) == order, series + str(rank)
        assert orbit_size(a, (0,) * rank) == 1


def test_ball_enumeration_exact():
    sl2 = build_algebra("A", 1)
    lam = sl2.weight([3])  # 3 omega = (3/2) alpha
    ball = enumerate_root_lattice_ball(sl2, lam, norm_sq(lam))
    # |m alpha + 3/2 alpha|^2 = 2 (m + 3/2)^2 <= 9/2 <=> -3 <= m <= 0
    assert ball == [(-3,), (-2,), (-1,), (0,)]
    for mu in ball:
        assert resonance_value(lam, mu) <= 0
    # a float bound stands for a value already rounded
    for bad in (0.1, 4.5):
        with pytest.raises(TypeError):
            enumerate_root_lattice_ball(sl2, lam, bad)


def test_ball_enumeration_sl3_membership():
    sl3 = build_algebra("A", 2)
    lam = sl3.rho
    ball = set(enumerate_root_lattice_ball(sl3, lam, norm_sq(lam)))
    # brute-force box check over a generous range
    expected = set()
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            if resonance_value(lam, (m1, m2)) <= 0:
                expected.add((m1, m2))
    assert ball == expected
    assert (0, 0) in ball


def test_ball_is_sorted_deterministically():
    sl3 = build_algebra("A", 2)
    ball = enumerate_root_lattice_ball(sl3, sl3.rho, norm_sq(sl3.rho))
    assert ball == sorted(ball)


def test_floor_plus_sqrt_is_exact():
    values = [Fraction(p, q) for p in range(-13, 14) for q in (1, 2, 3, 7)]
    for x in values:
        for t in values:
            if t >= 0:
                c = floor_plus_sqrt(x, t)
                # c - x <= sqrt(t) < c + 1 - x
                assert c - x <= 0 or (c - x) ** 2 <= t, (x, t)
                assert c + 1 - x > 0 and (c + 1 - x) ** 2 > t, (x, t)


def _assert_walk_is_box(a, shift, bound):
    """The walk gives the box oracle's points, and at each one its norm over
    its scale is the exact |mu + shift|^2."""
    walk = enumerate_root_lattice_ball(a, shift, bound)
    box = ball_by_box(a, shift, bound)
    assert walk == box, (shift, bound)
    assert len(walk.norms) == len(box), (shift, bound)
    for mu, norm in zip(box, walk.norms):
        assert Fraction(norm, walk.scale) == norm_sq(root_weight(a, mu) + shift), (
            shift, bound, mu)


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2),
])
def test_ball_walk_matches_box_oracle(series, rank):
    a = build_algebra(series, rank)
    # coordinates with unequal denominators, and bounds whose denominator is
    # prime to the shift's, exercise each integer scale of the walk and the
    # floor of E bound that its norms must not carry
    mixed = a.weight([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                      Fraction(3, 7)][:rank])
    for shift in (a.rho, a.rho + a.weight([Fraction(1, 3)] * rank), mixed):
        r = norm_sq(shift)
        for bound in (r, r - Fraction(1, 2), r - Fraction(1, 7), 0, -1):
            _assert_walk_is_box(a, shift, bound)


def test_ball_walk_matches_box_oracle_on_random_shifts():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebras = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=11)

    @st.composite
    def shifted_ball(draw):
        a = build_algebra(*draw(st.sampled_from(algebras)))
        shift = a.weight([draw(small) for _ in range(a.rank)])
        bound = draw(st.fractions(min_value=-1, max_value=10, max_denominator=13))
        return a, shift, bound

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(shifted_ball())
    def walk_is_box(case):
        _assert_walk_is_box(*case)

    walk_is_box()


def test_f4_rho_ball_size():
    f4 = build_algebra("F", 4)
    ball = enumerate_root_lattice_ball(f4, f4.rho, norm_sq(f4.rho))
    assert len(ball) == 15793
    assert ball == sorted(ball)


@pytest.mark.parametrize("series,rank", sorted(_WEYL_ORDER))
def test_dominant_below_is_dominant_part_of_weight_closure(series, rank):
    a = build_algebra(series, rank)
    theta = tuple(map(int, root_weight(a, a.highest_root).coords))
    tops = list(_test_weights(rank)) + [theta, tuple(2 * t for t in theta)]
    for top in tops:
        closure = weight_closure(a.cartan, top)
        below = dominant_below(a, top)
        assert below == {w for w in closure if min(w) >= 0}, top
        assert all(type(c) is int for w in below for c in w)
