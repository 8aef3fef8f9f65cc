"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  Every check is exact; the only tolerances are the
wall-clock budgets on A1 and A2.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from weylmod.affine_numerics import (
    candidate_pairs,
    delta_upper_bound,
    irreducibility_certificate,
    kostant_bound_C,
)
from helpers import (
    casimir_matrix, combine, compose, kostant_spectrum, layer_scalar_columns,
    rep_adjoint, rep_tensor, sugawara_columns,
)
from weylmod.chevalley import chevalley_basis, rep_from_hw
from weylmod.cli import main as cli_main
from weylmod.explicit_module import (
    build_truncated,
    check_kl_exact_sequence,
    singular_vectors,
    sugawara_l0,
    virasoro_commutation_check,
)
from weylmod.finite_rep import (
    casimir_on_irrep,
    irrep_character,
    tensor_decompose,
    weyl_dimension,
)
from weylmod.graded_sym import sym_ad_graded
from weylmod.linalg import nullspace_of_columns
from weylmod.rational import ComplexRational
from weylmod.root_system import Weight, build_algebra

SL2 = build_algebra("A", 1)
SL3 = build_algebra("A", 2)

# (algebra, hw coords, depth): the module grid of criterion A1
A1_CONFIGS = [
    (SL2, (0,), 5),
    (SL2, (2,), 5),
    (SL2, (4,), 5),
    (SL3, (0, 0), 3),
    (SL3, (1, 0), 3),
]

KAPPAS = (Fraction(-1), Fraction(-2), Fraction(-1, 2), ComplexRational(-1, 1))

_module_cache = {}


def _module(algebra, hw_coords, kappa, depth):
    key = (algebra.series, algebra.rank, hw_coords, str(kappa), depth)
    if key not in _module_cache:
        _module_cache[key] = build_truncated(
            algebra, algebra.weight(hw_coords), kappa, depth
        )
    return _module_cache[key]


def _verdict(label, ok, detail=""):
    line = "%s: %s%s" % (label, "PASS" if ok else "FAIL",
                         " (%s)" % detail if detail else "")
    print("\n" + line)
    assert ok, line


def test_a1_graded_dimensions():
    t0 = time.monotonic()
    ok = True
    for algebra, hw_coords, depth in A1_CONFIGS:
        m = _module(algebra, hw_coords, Fraction(-1), depth)
        dim_m = weyl_dimension(algebra, algebra.weight(hw_coords))
        sym = [c.dimension() for c in sym_ad_graded(algebra, depth)]
        for n in range(depth + 1):
            if m.degree_dim(n) != dim_m * sym[n]:
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    _verdict("A1 graded dimension identity", ok, "%.1fs" % elapsed)


def test_a2_l0_scalar_law():
    t0 = time.monotonic()
    ok = True
    for algebra, hw_coords, depth in A1_CONFIGS:
        a = casimir_on_irrep(algebra, algebra.weight(hw_coords))
        for kappa in KAPPAS:
            m = _module(algebra, hw_coords, kappa, depth)
            eigenvalues = tuple(Fraction(a) / (2 * kappa) + n
                                for n in range(depth + 1))
            # the per-vector oracle's columns are the closed-form scalars,
            # and sugawara_l0 returns the same eigenvalues
            columns = sugawara_columns(m)
            if columns != layer_scalar_columns(m, eigenvalues):
                ok = False
            if sugawara_l0(m) != eigenvalues:
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _verdict("A2 Sugawara L0 scalar law", ok, "%.1fs" % elapsed)


def test_a3_virasoro_commutation():
    t0 = time.monotonic()
    ok = True
    for algebra, hw_coords, depth in A1_CONFIGS:
        for kappa in KAPPAS:
            m = _module(algebra, hw_coords, kappa, depth)
            if not virasoro_commutation_check(m):
                ok = False
    _verdict("A3 Virasoro commutation, |m| <= depth", ok,
             "%.1fs" % (time.monotonic() - t0))


def _check_kostant_pair(algebra, cb, u_rep, m_rep, u_hw, m_hw):
    tensor = rep_tensor(u_rep, m_rep)
    omega = casimir_matrix(cb, tensor)
    dim = tensor.dim
    one = {i: {i: Fraction(1)} for i in range(dim)}
    lam = m_hw + algebra.rho
    spectrum = kostant_spectrum(algebra, u_hw, lam)
    # annihilation: prod_i (Omega - value_i) = 0 over the weight multiset of U
    prod = one
    for v in spectrum:
        prod = compose(prod, combine([(1, omega), (-v, one)]))
    if prod:
        return False
    # eigenvalue multiset matches the tensor decomposition
    dec = tensor_decompose(u_hw, irrep_character(algebra, m_hw))
    expected = {}
    for w, mult in dec.items():
        v = casimir_on_irrep(algebra, w)
        expected[v] = expected.get(v, 0) + mult * weyl_dimension(algebra, w)
    total = 0
    for v, want in expected.items():
        shifted = combine([(1, omega), (-v, one)])
        got = len(nullspace_of_columns([shifted.get(j, {}) for j in range(dim)]))
        if got != want:
            return False
        total += got
    return total == dim


def test_a4_kostant_spectrum():
    t0 = time.monotonic()
    ok = True
    cb2 = chevalley_basis(SL2)
    for a in range(25):
        for b in range(25):
            if (a + 1) * (b + 1) > 25:
                continue
            u = rep_from_hw(cb2, SL2.weight([a]))
            m = rep_from_hw(cb2, SL2.weight([b]))
            if not _check_kostant_pair(SL2, cb2, u, m, SL2.weight([a]),
                                       SL2.weight([b])):
                ok = False
    cb3 = chevalley_basis(SL3)
    if not _check_kostant_pair(
        SL3, cb3, rep_adjoint(cb3), rep_from_hw(cb3, SL3.weight([1, 0])),
        SL3.weight([1, 1]), SL3.weight([1, 0])
    ):
        ok = False
    _verdict("A4 Kostant spectrum annihilation and eigenvalues", ok,
             "%.1fs" % (time.monotonic() - t0))


def test_a5_candidate_necessity():
    t0 = time.monotonic()
    configs = 0
    violations = 0
    kappas = (Fraction(-1), Fraction(-2), Fraction(-3, 2), ComplexRational(-1, 1))
    for hw in (0, 2, 4):
        lam = SL2.weight([hw]) + SL2.rho
        for kappa in kappas:
            configs += 1
            m = _module(SL2, (hw,), kappa, 4)
            allowed = {p.n for p in candidate_pairs(lam, kappa, 4)}
            for n in range(1, 5):
                if singular_vectors(m, n) and n not in allowed:
                    violations += 1
    ok = configs >= 12 and violations == 0
    _verdict("A5 singular degrees among candidate levels", ok,
             "%d configs, %d violations, %.1fs"
             % (configs, violations, time.monotonic() - t0))


def test_a6_certificate_soundness():
    t0 = time.monotonic()
    ok = True
    certified_checked = 0
    forced = [
        (SL2, (2,), ComplexRational(-1, 1)),
        (SL2, (2,), Fraction(-100)),
    ]
    grid = [
        (SL2, (hw,), kappa)
        for hw in (0, 2, 4)
        for kappa in (Fraction(-1), Fraction(-2), Fraction(-3, 2),
                      ComplexRational(-1, 1), Fraction(-100))
    ] + [
        (SL3, hw, kappa)
        for hw in ((0, 0), (1, 0))
        for kappa in (Fraction(-1), ComplexRational(-1, 1))
    ]
    for algebra, hw_coords, kappa in forced:
        verdict = irreducibility_certificate(algebra.weight(hw_coords), kappa)
        if not verdict.certified:
            ok = False
    for algebra, hw_coords, kappa in grid:
        verdict = irreducibility_certificate(algebra.weight(hw_coords), kappa)
        if not verdict.certified:
            continue
        certified_checked += 1
        depth = 4 if algebra is SL2 else 3
        m = _module(algebra, hw_coords, kappa, depth)
        for n in range(1, depth + 1):
            if singular_vectors(m, n):
                ok = False
    ok = ok and certified_checked >= 4
    _verdict("A6 certified modules carry no singular vectors", ok,
             "%d certified configs searched, %.1fs"
             % (certified_checked, time.monotonic() - t0))


def test_a7_delta_bound_and_c_sign():
    t0 = time.monotonic()
    ok = True
    kappa = ComplexRational(-1, 1)
    for algebra, hw_coords, _depth in A1_CONFIGS:
        hw = algebra.weight(hw_coords)
        bound = delta_upper_bound(hw, kappa, 4)
        if (bound.value, bound.complete) != (1, True):
            ok = False
    rng = random.Random(20260814)
    for _ in range(50):
        algebra = SL2 if rng.random() < 0.5 else SL3
        coords = [
            Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            for _ in range(algebra.rank)
        ]
        if kostant_bound_C(Weight(algebra, tuple(coords))) > 0:
            ok = False
    _verdict("A7 delta bound (1, complete) off the real axis; C <= 0", ok,
             "%.1fs" % (time.monotonic() - t0))


def test_a8_kl_exact_sequence_depth5():
    t0 = time.monotonic()
    ok = True
    for hw in (0, 2, 4):
        for kappa in (Fraction(-1), Fraction(-2)):
            m = _module(SL2, (hw,), kappa, 5)
            for order in (2, 3):
                passed, _diag = check_kl_exact_sequence(m, order)
                if not passed:
                    ok = False
    m = _module(SL2, (2,), ComplexRational(-1, 1), 5)
    for order in (2, 3):
        passed, _diag = check_kl_exact_sequence(m, order)
        if not passed:
            ok = False
    _verdict("A8 KL exact sequence at orders 2 and 3, depth 5", ok,
             "%.1fs" % (time.monotonic() - t0))


def _capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_a9_cli_determinism(tmp_path):
    t0 = time.monotonic()
    ok = True
    commands = [
        ["algebra", "A", "1", "--format", "json"],
        ["algebra", "A", "2", "--format", "json"],
        ["algebra", "G", "2", "--format", "json"],
        ["symlevels", "A", "1", "--n", "3", "--format", "json"],
        ["symlevels", "A", "2", "--n", "2", "--format", "json"],
        ["certify", "A", "1", "--hw", "2", "--kappa", "-2",
         "--format", "json"],
        ["certify", "A", "1", "--hw", "0", "--kappa", "-1",
         "--format", "json"],
        ["certify", "A", "2", "--hw", "1", "0", "--kappa=-1+1i",
         "--format", "json"],
        ["crossvalidate", "A", "1", "--hw", "2", "--kappa", "-2",
         "--depth", "2", "--format", "json"],
        ["crossvalidate", "A", "2", "--hw", "0", "0", "--kappa", "-1",
         "--depth", "1", "--format", "json"],
    ]
    for argv in commands:
        code1, out1 = _capture(argv)
        code2, out2 = _capture(argv)
        if code1 != code2 or out1 != out2 or not out1:
            ok = False
        try:
            json.loads(out1)
        except ValueError:
            ok = False
    dump1 = tmp_path / "dump1.json"
    dump2 = tmp_path / "dump2.json"
    for target in (dump1, dump2):
        _capture(["crossvalidate", "A", "1", "--hw", "0", "--kappa", "-1",
                  "--depth", "2", "--format", "json", "--dump", str(target)])
    if dump1.read_bytes() != dump2.read_bytes():
        ok = False
    _verdict("A9 CLI JSON byte determinism", ok,
             "%d commands, %.1fs" % (len(commands), time.monotonic() - t0))
