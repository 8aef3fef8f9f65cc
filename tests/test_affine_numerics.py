"""Tests for resonance candidates, certificates and length bounds."""

import itertools
from fractions import Fraction

import pytest

from helpers import ball_by_box, resonance_value, root_weight
from weylmod.affine_numerics import (
    CERTIFIED,
    INCONCLUSIVE,
    REASON_KOSTANT,
    REASON_OUTSIDE_X,
    CandidatePair,
    DeltaBound,
    ResonanceScan,
    candidate_pairs,
    check_kappa,
    delta_upper_bound,
    exhaustive_level_bound,
    in_X_lambda,
    in_Y_lambda,
    irreducibility_certificate,
    kostant_bound_C,
    top_l0_eigenvalue,
)
from weylmod.rational import ComplexRational, parse_scalar
from weylmod.root_system import (
    build_algebra, dominant_below, enumerate_root_lattice_ball, norm_sq, orbit_coords,
)


def _lam(algebra, hw_coords):
    return algebra.weight(hw_coords) + algebra.rho


def _brute_candidates(lam, kappa, n_max, box=8):
    """Independent scan of a coordinate box for q(mu) = 2 kappa n."""
    algebra = lam.algebra
    found = []
    for coords in itertools.product(range(-box, box + 1), repeat=algebra.rank):
        q = resonance_value(lam, coords)
        for n in range(n_max + 1):
            if q == 2 * kappa * n:
                found.append((coords, n))
    return sorted(found, key=lambda t: (t[1], t[0]))


def test_resonance_value_by_hand():
    sl2 = build_algebra("A", 1)
    lam = _lam(sl2, [2])  # 3 omega
    # q(c alpha) = 2 c^2 + 6 c
    assert resonance_value(lam, (1,)) == 8
    assert resonance_value(lam, (-1,)) == -4
    assert resonance_value(lam, (-3,)) == 0


def test_kostant_bound_values():
    sl2 = build_algebra("A", 1)
    sl3 = build_algebra("A", 2)
    assert kostant_bound_C(_lam(sl2, [0])) == 0
    assert kostant_bound_C(_lam(sl2, [2])) == -4
    assert kostant_bound_C(_lam(sl3, [0, 0])) == -2
    assert kostant_bound_C(_lam(sl3, [1, 0])) == -4


def _oracle_scan(values, kappa):
    """(candidates, C, level bound) of the scan from the ball's values
    [(mu coords, q(mu))]: the (mu, n) with q(mu) = 2 kappa n and n >= 0 sorted
    by (n, mu), the minimum of q, and the largest n with 2 kappa n >= C."""
    c = min(q for _, q in values)
    bound = 0
    if isinstance(kappa, Fraction):
        while 2 * kappa * (bound + 1) >= c:
            bound += 1
    found = [(coords, n) for n in range(bound + 1)
             for coords, q in values if q == 2 * kappa * n]
    return sorted(found, key=lambda t: (t[1], t[0])), c, bound


# (series, rank, highest weights, kappas) of the certify jobs in the lattice
# workload of perfbench/cases.py
_LATTICE_JOBS = [
    ("D", 4, [(0, 0, 0, 0)], ("-1+1i", "-1-1i", "-2+1i")),
    ("A", 4, [(1, 0, 0, 0), (0, 0, 0, 1)], ("-1+1i", "-1-1i")),
    ("B", 3, [(1, 0, 0)], ("-200", "-300", "-1000")),
    ("A", 3, [(2, 2, 2)], ("-1+1i", "-1-1i", "-2+1i")),
    ("G", 2, [(5, 5)], ("-1+1i", "-1-1i", "-2+1i")),
]


def _is_int_tuple(mu):
    return type(mu) is tuple and all(type(x) is int for x in mu)


def test_scan_values_match_resonance_value():
    # the box walk and resonance_value as the oracle of the walk, of
    # kostant_bound_C and of every scan field
    cases = []
    for series, rank in (("A", 2), ("B", 3), ("C", 3), ("G", 2)):
        algebra = build_algebra(series, rank)
        for lam in (
            _lam(algebra, [1] + [0] * (rank - 1)),
            algebra.rho + algebra.weight([Fraction(1, 3)] * rank),
            algebra.weight([Fraction(-1, 2)] + [Fraction(5, 7)] * (rank - 1)),
        ):
            cases.append((lam, (Fraction(-1), Fraction(-1, 3), Fraction(-9, 7),
                                ComplexRational(-1, 1))))
    for series, rank, hws, kappas in _LATTICE_JOBS:
        algebra = build_algebra(series, rank)
        for hw in hws:
            cases.append((_lam(algebra, hw), tuple(map(parse_scalar, kappas))))
    for lam, kappas in cases:
        ball = ball_by_box(lam.algebra, lam, norm_sq(lam))
        walk = enumerate_root_lattice_ball(lam.algebra, lam, norm_sq(lam))
        assert walk == ball and all(map(_is_int_tuple, walk))
        values = [(mu, resonance_value(lam, mu)) for mu in ball]
        casimir = norm_sq(lam) - norm_sq(lam.algebra.rho)
        c = min(q for _, q in values)
        kostant_c = kostant_bound_C(lam)
        for kappa in kappas + (c / 2 - Fraction(1, 3),):
            scan = ResonanceScan(lam, kappa)
            found, oracle_c, bound = _oracle_scan(values, kappa)
            assert [(p.mu, p.n) for p in scan.candidates] == found, (lam, kappa)
            assert all(_is_int_tuple(p.mu) for p in scan.candidates)
            assert (scan.c, scan.level_bound) == (oracle_c, bound), (lam, kappa)
            assert scan.c == kostant_c
            xi0 = top_l0_eigenvalue(casimir, kappa)
            assert all(p.xi == xi0 + p.n for p in scan.candidates)


# all highest weights with coordinates <= 2 at rank <= 2, coordinate sum <= 2
# at rank 3-4; F4 only at 0, omega_1 and omega_4 to keep its balls small
_C_HWS = {
    (series, rank): [hw for hw in itertools.product(range(3), repeat=rank)
                     if rank <= 2 or sum(hw) <= 2]
    for series, rank in (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                         ("B", 3), ("C", 3), ("D", 4), ("G", 2))
}
_C_HWS[("F", 4)] = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("series,rank", sorted(_C_HWS))
def test_kostant_bound_closed_form(series, rank):
    # lambda is integral, so the dominant weights of lambda + Q have a unique
    # minimum, which lies below lambda (Stembridge, Adv. Math. 1998); C is its
    # norm minus |lambda|^2
    algebra = build_algebra(series, rank)
    for hw in _C_HWS[(series, rank)]:
        lam = _lam(algebra, hw)
        top = tuple(int(c) for c in lam.coords)
        below = dominant_below(algebra, top)
        closed = min(norm_sq(algebra.weight(nu)) for nu in below) - norm_sq(lam)
        assert ResonanceScan(lam, ComplexRational(-1, 1)).c == closed, hw


def test_kostant_bound_is_global_minimum():
    sl3 = build_algebra("A", 2)
    lam = _lam(sl3, [1, 1])
    c = kostant_bound_C(lam)
    values = [
        resonance_value(lam, coords)
        for coords in itertools.product(range(-8, 9), repeat=2)
    ]
    assert c == min(values)
    assert c <= 0


def test_exhaustive_level_bound():
    sl2 = build_algebra("A", 1)
    lam2 = _lam(sl2, [2])
    assert exhaustive_level_bound(lam2, Fraction(-2)) == 1
    assert exhaustive_level_bound(lam2, Fraction(-1)) == 2
    assert exhaustive_level_bound(lam2, Fraction(-1, 3)) == 6
    assert exhaustive_level_bound(_lam(sl2, [0]), Fraction(-1)) == 0
    assert exhaustive_level_bound(lam2, ComplexRational(-1, 1)) == 0


def test_candidate_pairs_sl2_frozen():
    sl2 = build_algebra("A", 1)
    lam = _lam(sl2, [2])
    pairs = candidate_pairs(lam, Fraction(-2), 1)
    got = [(p.mu, p.n, p.xi) for p in pairs]
    assert got == [
        ((-3,), 0, Fraction(-1)),
        ((0,), 0, Fraction(-1)),
        ((-2,), 1, Fraction(0)),
        ((-1,), 1, Fraction(0)),
    ]


def test_candidate_pairs_match_brute_force():
    sl2 = build_algebra("A", 1)
    sl3 = build_algebra("A", 2)
    cases = [
        (_lam(sl2, [2]), Fraction(-2), 3),
        (_lam(sl2, [4]), Fraction(-1), 4),
        (_lam(sl3, [0, 0]), Fraction(-1), 2),
        (_lam(sl3, [1, 0]), Fraction(-2), 2),
    ]
    for lam, kappa, n_max in cases:
        got = [(p.mu, p.n) for p in candidate_pairs(lam, kappa, n_max)]
        assert got == _brute_candidates(lam, kappa, n_max)


def test_candidate_pairs_complex_kappa_only_degree_zero():
    sl2 = build_algebra("A", 1)
    lam = _lam(sl2, [2])
    pairs = candidate_pairs(lam, ComplexRational(-2, 1), 5)
    assert [(p.mu, p.n) for p in pairs] == [((-3,), 0), ((0,), 0)]
    assert all(p.n == 0 for p in pairs)


def test_candidate_pairs_always_contain_origin():
    sl3 = build_algebra("A", 2)
    lam = _lam(sl3, [2, 1])
    pairs = candidate_pairs(lam, Fraction(-3, 2), 0)
    assert any(p.mu == (0, 0) and p.n == 0 for p in pairs)


def test_top_l0_eigenvalue():
    assert top_l0_eigenvalue(4, Fraction(-2)) == -1
    assert top_l0_eigenvalue(Fraction(8, 3), Fraction(-1)) == Fraction(-4, 3)
    assert top_l0_eigenvalue(4, ComplexRational(-1, 1)) == ComplexRational(-1, -1)
    assert top_l0_eigenvalue(0, Fraction(-5)) == 0


def test_kappa_on_nonnegative_axis_rejected():
    sl2 = build_algebra("A", 1)
    lam = _lam(sl2, [0])
    for bad in (Fraction(0), Fraction(1), Fraction(5, 2), ComplexRational(3, 0)):
        with pytest.raises(ValueError):
            candidate_pairs(lam, bad, 1)
        with pytest.raises(ValueError):
            irreducibility_certificate(sl2.weight([0]), bad)
        with pytest.raises(ValueError):
            delta_upper_bound(sl2.weight([0]), bad, 1)
    # a float kappa stands for a value already rounded; a str, None or a
    # list is no scalar at all
    for bad in (-0.1, -2.0, "-1", None, [1]):
        with pytest.raises(TypeError):
            check_kappa(bad)
        with pytest.raises(TypeError):
            ResonanceScan(lam, bad)


def test_non_scalar_kappa_is_a_type_error_everywhere():
    # in_Y_lambda and top_l0_eigenvalue do not go through check_kappa: a
    # str is still no scalar there, not a Fraction to be parsed
    lam = _lam(build_algebra("A", 1), [0])
    for bad in ("-1", None, -0.5):
        with pytest.raises(TypeError, match="not an exact scalar"):
            top_l0_eigenvalue(3, bad)
        with pytest.raises(TypeError, match="not an exact scalar"):
            in_Y_lambda(bad, lam)


def test_membership_in_X_and_Y():
    sl2 = build_algebra("A", 1)
    lam0 = _lam(sl2, [0])
    lam2 = _lam(sl2, [2])
    assert not in_X_lambda(Fraction(-1), lam0)
    assert in_X_lambda(Fraction(-2), lam2)
    assert in_X_lambda(Fraction(-1, 3), lam2)
    assert not in_X_lambda(ComplexRational(-2, 1), lam2)
    assert not in_X_lambda(Fraction(-7, 5), lam2)
    assert in_Y_lambda(Fraction(-2), lam2)
    assert not in_Y_lambda(ComplexRational(-2, 1), lam2)


def test_certificate_outside_x():
    sl2 = build_algebra("A", 1)
    v = irreducibility_certificate(sl2.weight([0]), Fraction(-1))
    assert v.certified
    assert v.status == CERTIFIED
    assert v.reason == REASON_OUTSIDE_X
    assert v.candidates == ()


def test_certificate_kostant_bound():
    sl2 = build_algebra("A", 1)
    v = irreducibility_certificate(sl2.weight([2]), Fraction(-100))
    assert v.certified
    assert v.reason == REASON_KOSTANT


def test_certificate_complex_kappa():
    sl3 = build_algebra("A", 2)
    v = irreducibility_certificate(sl3.weight([1, 0]), ComplexRational(-1, 1))
    assert v.certified
    assert v.reason == REASON_OUTSIDE_X


def test_certificate_inconclusive_with_candidates():
    sl2 = build_algebra("A", 1)
    v = irreducibility_certificate(sl2.weight([2]), Fraction(-2))
    assert not v.certified
    assert v.status == INCONCLUSIVE
    assert v.reason is None
    assert [(p.mu, p.n) for p in v.candidates] == [((-2,), 1), ((-1,), 1)]


def test_kostant_bound_region_implies_no_positive_candidates():
    # whenever re(kappa) < C/2 the resonance scan must come back empty
    sl3 = build_algebra("A", 2)
    lam = _lam(sl3, [1, 0])
    c = kostant_bound_C(lam)
    kappa = Fraction(c, 2) - Fraction(1, 7)
    assert not in_X_lambda(kappa, lam)
    bound = exhaustive_level_bound(lam, kappa)
    assert all(p.n == 0 for p in candidate_pairs(lam, kappa, bound))


def test_delta_bound_values():
    sl2 = build_algebra("A", 1)
    assert delta_upper_bound(sl2.weight([0]), Fraction(-1), 3) == (1, True)
    assert delta_upper_bound(sl2.weight([2]), Fraction(-2), 1) == (4, True)
    assert delta_upper_bound(sl2.weight([2]), Fraction(-2), 0) == (1, False)
    assert delta_upper_bound(sl2.weight([2]), ComplexRational(-1, 1), 2) == (1, True)
    # the bound sums M (x) L(mu) over the levels, so M must be finite
    # dimensional: a highest weight that is not dominant integral is refused,
    # never rounded to one that is
    for hw in ([Fraction(1, 2)], [-1]):
        with pytest.raises(ValueError, match="highest weight must be"):
            delta_upper_bound(sl2.weight(hw), Fraction(-1, 2), 3)


def test_delta_bound_object_protocol():
    b = DeltaBound(4, True)
    value, complete = b
    assert (value, complete) == (4, True)
    assert b == DeltaBound(4, True)
    assert b == (4, True)
    assert b != (4, False)


def test_candidate_pair_equality_and_hash():
    mu = (-1,)
    a = CandidatePair(mu, 1, Fraction(0))
    b = CandidatePair((-1,), 1, Fraction(0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != CandidatePair(mu, 2, Fraction(1))


def test_certificate_matches_candidate_scan_on_sweep():
    # certified iff the exhaustive positive-degree candidate list is empty
    for series, rank, coords in (
        ("A", 1, [0]),
        ("A", 1, [2]),
        ("A", 1, [4]),
        ("A", 2, [1, 1]),
        ("B", 2, [1, 0]),
        ("B", 2, [0, 1]),
        ("G", 2, [1, 0]),
        ("G", 2, [0, 1]),
    ):
        algebra = build_algebra(series, rank)
        hw = algebra.weight(coords)
        lam = _lam(algebra, coords)
        c = kostant_bound_C(lam)
        below_c = c / 2 - Fraction(1, 3)
        for kappa in (
            Fraction(-1),
            Fraction(-2),
            Fraction(-1, 2),
            Fraction(-9, 7),
            ComplexRational(-1, 1),
            below_c,
        ):
            v = irreducibility_certificate(hw, kappa)
            bound = exhaustive_level_bound(lam, kappa)
            positive = [p for p in candidate_pairs(lam, kappa, bound) if p.n >= 1]
            assert v.certified == (not positive)
            if not v.certified:
                assert list(v.candidates) == positive
            if kappa == below_c and c < 0:
                assert v.reason == REASON_KOSTANT


@pytest.mark.parametrize("series,rank,coords,kappa", [
    ("A", 2, [0, 0], Fraction(-1)),
    ("A", 2, [1, 1], Fraction(-1, 2)),
    ("B", 2, [1, 0], Fraction(-1)),
    ("B", 2, [0, 2], Fraction(-1, 2)),
    ("G", 2, [1, 0], Fraction(-1)),
    ("A", 3, [1, 0, 1], Fraction(-1)),
])
def test_candidate_sets_are_weyl_invariant(series, rank, coords, kappa):
    # lambda + Q is W-stable, so for each degree n the set of lambda + mu with
    # |lambda + mu|^2 = |lambda|^2 + 2 kappa n is a union of W-orbits
    algebra = build_algebra(series, rank)
    lam = _lam(algebra, coords)
    by_degree = {}
    for p in ResonanceScan(lam, kappa).candidates:
        nu = tuple(int(a + b) for a, b in zip(lam.coords, root_weight(algebra, p.mu).coords))
        by_degree.setdefault(p.n, set()).add(nu)
    assert any(n >= 1 for n in by_degree)
    for n, points in by_degree.items():
        for nu in points:
            assert orbit_coords(algebra, nu) <= points, (n, nu)
