"""Exact numerics for Weyl modules over an affine algebra at non-critical level.

Everything here works with a finite-dimensional irreducible M of highest
weight ``m_hw`` and the shifted weight ``lambda = m_hw + rho``.  The induced
module Ind(M) at central parameter kappa (the generator K acts by
kappa - h_dual, so kappa = 0 is the critical value) is epsilon-graded, and the
Sugawara operator L0 acts on the degree-n layer by the scalar

    a / (2 kappa) + n,        a = Casimir scalar of M.

A proper graded submodule must contain a singular vector, and a singular
vector of weight ``m_hw + mu`` at degree n forces the exact resonance

    q(mu) := |mu|^2 + 2 (lambda, mu) = 2 kappa n,   mu in the root lattice.

A ResonanceScan answers for one (lambda, kappa): one walk of the root lattice
gives the solutions of that equation (candidate pairs) and the Kostant-style
lower bound C = min q, which give the irreducibility certificate and the
composition-length bound.  All arithmetic is exact: kappa is an int, a
Fraction or a ComplexRational, read through kappa.real and kappa.imag.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graded_sym import sym_ad_graded, tensor_coefficients
from .rational import SCALAR_TYPES, ComplexRational, exact
from .root_system import Weight, enumerate_root_lattice_ball, norm_sq

__all__ = [
    "CandidatePair",
    "ComplexRational",
    "DeltaBound",
    "IrreducibilityVerdict",
    "ResonanceScan",
    "candidate_pairs",
    "check_kappa",
    "delta_upper_bound",
    "exhaustive_level_bound",
    "in_X_lambda",
    "in_Y_lambda",
    "irreducibility_certificate",
    "kostant_bound_C",
    "top_l0_eigenvalue",
]

CERTIFIED = "CertifiedIrreducible"
INCONCLUSIVE = "Inconclusive"
REASON_KOSTANT = "KostantBound"
REASON_OUTSIDE_X = "OutsideXLambda"


class CandidatePair(NamedTuple):
    """A solution (mu, n) of q(mu) = 2 kappa n with 0 <= n; mu is a tuple of
    ints, its coordinates in the simple root basis.

    ``xi`` is the L0 eigenvalue (|lambda|^2 - |rho|^2) / (2 kappa) + n of the
    degree-n layer that a singular vector of weight lambda - rho + mu would
    inhabit.
    """

    mu: tuple
    n: int
    xi: object


class IrreducibilityVerdict(NamedTuple):
    """Outcome of the certificate check.

    status is CERTIFIED or INCONCLUSIVE; reason is REASON_KOSTANT,
    REASON_OUTSIDE_X or None; candidates holds the unexcluded nonzero-degree
    candidate pairs (empty when certified).
    """

    status: str
    reason: object
    candidates: tuple = ()

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED


class DeltaBound(NamedTuple):
    """Upper bound for the composition length of Ind(M)."""

    value: int
    complete: bool


def check_kappa(kappa) -> None:
    """Reject kappa in R_{>=0}; there the Sugawara normalisation degenerates
    (kappa = 0) or the module is in the integrable regime we do not treat.

    A kappa that is not an int, Fraction or ComplexRational is a TypeError;
    a float would stand for a value already rounded."""
    if not isinstance(kappa, SCALAR_TYPES):
        raise TypeError("not an exact scalar: %r" % (kappa,))
    if kappa.imag == 0 and kappa.real >= 0:
        raise ValueError("kappa must lie outside the nonnegative real axis")


def top_l0_eigenvalue(a, kappa):
    """L0 scalar a / (2 kappa) on the degree-0 layer, a = Casimir of M: a
    Fraction when kappa is real, else a ComplexRational."""
    return Fraction(a) / (2 * exact(kappa))


def _scaled_resonances(lam: Weight, lam_sq: Fraction):
    """(ball, values, low, scale): the root lattice points of the ball
    |mu + lambda|^2 <= lam_sq = |lambda|^2 in lexicographic order, an
    iterator over the integers scale q(mu) at those points, and their
    minimum low.

    Since q(mu) = |mu + lambda|^2 - |lambda|^2, the ball holds exactly the mu
    with q(mu) <= 0, among them mu = 0, so min q over the whole lattice is
    low / scale.  The walk hands back each point's integer E |mu + lambda|^2
    (ball.norms, E = ball.scale); with |lambda|^2 = num / den,
    scale q(mu) = den E |mu + lambda|^2 - E num at scale = E den, one
    multiply-subtract per point, taken lazily so that no second per-point
    list is kept.
    """
    ball = enumerate_root_lattice_ball(lam.algebra, lam, lam_sq)
    den, offset = lam_sq.denominator, ball.scale * lam_sq.numerator
    values = (den * x - offset for x in ball.norms)
    return ball, values, den * min(ball.norms) - offset, den * ball.scale


class ResonanceScan:
    """Every solution (mu, n) of q(mu) = 2 kappa n for one lambda and kappa.

    For every admissible kappa and n >= 0, 2 kappa n is 0 or has negative
    real part, so every solution has q(mu) <= 0 and lies in the ball of
    _scaled_resonances.  One walk of it gives C = min q (<= 0), the largest
    degree level_bound that can resonate, the candidates, sorted by (n, mu),
    and the degree-0 L0 eigenvalue xi0 = (|lambda|^2 - |rho|^2) / (2 kappa);
    no other point is kept, and |lambda|^2 is evaluated once.  Each point
    costs the one integer form of _scaled_resonances, a multiply-subtract on
    the norm the walk already holds, and, for real kappa, one integer
    division.
    """

    def __init__(self, lam: Weight, kappa):
        check_kappa(kappa)
        self.lam = lam
        self.kappa = kappa
        lam_sq = norm_sq(lam)
        ball, values, low, scale = _scaled_resonances(lam, lam_sq)
        real = kappa.imag == 0
        # for real kappa, n = q / (2 kappa) = v den / step at scaled value v
        re = Fraction(kappa.real)
        den, step = re.denominator, 2 * re.numerator * scale

        by_degree = {}  # n -> its mu in walk order, which is lexicographic
        for mu, v in zip(ball, values):
            # non-real kappa resonates only at n = 0, where q = 0
            n, r = divmod(v * den, step) if real else (0, v)
            if not r:
                by_degree.setdefault(n, []).append(mu)
        self.xi0 = top_l0_eigenvalue(lam_sq - norm_sq(lam.algebra.rho), kappa)
        candidates = []
        for n in sorted(by_degree):
            xi = self.xi0 + n
            candidates.extend(CandidatePair(mu, n, xi) for mu in by_degree[n])
        self.candidates = tuple(candidates)
        self.c = Fraction(low, scale)
        # for real kappa, 2 kappa n = q(mu) >= C
        self.level_bound = low * den // step if real else 0

    def pairs(self, n_max: int):
        """The candidate pairs with n <= n_max, sorted by (n, mu)."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        return [p for p in self.candidates if p.n <= n_max]

    def certificate(self) -> IrreducibilityVerdict:
        """KostantBound when kappa is real with re(kappa) < C/2 < 0; otherwise
        OutsideXLambda or Inconclusive by the positive-degree candidates."""
        if self.kappa.imag == 0 and self.kappa.real < self.c / 2 < 0:
            return IrreducibilityVerdict(CERTIFIED, REASON_KOSTANT)
        positive = tuple(p for p in self.candidates if p.n >= 1)
        if not positive:
            return IrreducibilityVerdict(CERTIFIED, REASON_OUTSIDE_X)
        return IrreducibilityVerdict(INCONCLUSIVE, None, positive)

    def delta(self, n_max: int) -> DeltaBound:
        """The length bound of delta_upper_bound for M = L(lambda - rho).

        S(ad) is expanded once, to the largest candidate degree, and each
        candidate level M (x) S(ad)_n is the sum over its constituents
        m L(mu) of m M (x) L(mu).  The length of M (x) L(mu) is found once
        per mu, as the sum of its tensor_coefficients.
        """
        algebra = self.lam.algebra
        levels = sorted({p.n for p in self.pairs(n_max)})
        graded = sym_ad_graded(algebra, levels[-1])
        mus = {mu for n in levels for mu in graded[n].mults}
        products = tensor_coefficients(algebra, self.lam - algebra.rho, mus)
        length = {mu: sum(coeffs.values()) for mu, coeffs in products.items()}
        total = sum(m * length[mu] for n in levels for mu, m in graded[n].mults.items())
        return DeltaBound(total, self.level_bound <= n_max)


def kostant_bound_C(lam: Weight) -> Fraction:
    """min over the root lattice of q(mu); always <= 0 because q(0) = 0."""
    _, _, low, scale = _scaled_resonances(lam, norm_sq(lam))
    return Fraction(low, scale)


def exhaustive_level_bound(lam: Weight, kappa) -> int:
    """Largest degree n that can carry a resonance for this lambda, kappa.

    For non-real kappa only n = 0 can occur.  For real negative kappa,
    2 kappa n = q(mu) >= C forces n <= C / (2 kappa).
    """
    return ResonanceScan(lam, kappa).level_bound


def candidate_pairs(lam: Weight, kappa, n_max: int):
    """All (mu, n) with q(mu) = 2 kappa n and 0 <= n <= n_max.

    Returned sorted by (n, lexicographic mu).  mu = 0, n = 0 is always
    present.  Raises for kappa on the nonnegative real axis.
    """
    return ResonanceScan(lam, kappa).pairs(n_max)


def in_X_lambda(kappa, lam: Weight) -> bool:
    """Whether kappa lies in X_lambda = {q(mu) / 2n : mu in Q, n >= 1}."""
    # a positive-degree candidate survives exactly when the certificate fails
    return not ResonanceScan(lam, kappa).certificate().certified


def in_Y_lambda(kappa, lam: Weight) -> bool:
    """Whether kappa lies in Y_lambda; for our rational lambda this is exactly
    the rationality of kappa.  A kappa that is not an exact scalar is a
    TypeError."""
    return exact(kappa).imag == 0


def delta_upper_bound(m_hw: Weight, kappa, n_max: int) -> DeltaBound:
    """Bound the length of Ind(M) by the lengths of the resonant layers.

    Every subquotient is generated by a singular vector sitting in some
    candidate degree n, and the degree-n layer is the finite g-module
    S(ad)_n tensor M.  Summing the lengths of these layers over the distinct
    candidate degrees n <= n_max therefore bounds the composition length from
    above.  The bound is complete when the candidate scan up to n_max is
    exhaustive (degree 0, i.e. M itself, is always a candidate via mu = 0).
    """
    return ResonanceScan(m_hw + m_hw.algebra.rho, kappa).delta(n_max)


def irreducibility_certificate(m_hw: Weight, kappa) -> IrreducibilityVerdict:
    """Certify Ind(M) irreducible, or report the surviving candidates.

    Certification happens in two informative flavours.  KostantBound: kappa is
    real with re(kappa) < C/2 < 0, so 2 kappa n < C for every n >= 1 and no
    resonance can occur.  OutsideXLambda: kappa avoids the set X_lambda of
    resonance ratios (automatic for non-real kappa, where only degree 0 could
    resonate).  Either way no positive-degree candidate exists, hence no
    singular vector and no proper graded submodule.  Otherwise the verdict is
    Inconclusive and carries the nonzero-degree candidates.
    """
    return ResonanceScan(m_hw + m_hw.algebra.rho, kappa).certificate()
