"""Orbit classification of effective 3-forms and assembly of the pointwise
generalized almost Calabi-Yau data.

The nine orbit classes are named after the constant-coefficient
Monge-Ampère equations they represent.  The classifier reads the pair
(sign of the pfaffian, inertia of the quadratic invariant, vanishing of ω).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exterior import DIM, POS, KForm, _all_rational, _cleared, _kform, dim_grade
from .symplectic import EffectivenessError, effective_tol, is_effective
from .hitchin import (
    DegenerateFormError,
    ExactnessError,
    _abs_pow,
    _dual,
    _lambda_is_zero,
    _lambda_of_k,
    _k_table,
    _split,
    hitchin_k,
)
from .lr import QuadForm6, Signature, _kt_a, _q_of_k, signature


class OrbitClass(enum.Enum):
    HESSIAN_ONE = "HessianOne"
    SPECIAL_LAGRANGIAN_ELLIPTIC = "SpecialLagrangianElliptic"
    SPECIAL_LAGRANGIAN_HYPERBOLIC = "SpecialLagrangianHyperbolic"
    LAPLACE = "Laplace"
    WAVE = "Wave"
    LAPLACE_2D = "Laplace2D"
    WAVE_2D = "Wave2D"
    SECOND_DERIVATIVE = "SecondDerivative"
    ZERO = "Zero"


class UnclassifiableError(ValueError):
    """Signature pattern outside the classification table's convention."""


@dataclass(frozen=True)
class InvariantReport:
    lambda_: object
    signature: Signature
    effective: bool
    nondegenerate: bool
    branch: str  # "hyperbolic" | "elliptic" | "degenerate"


# printed-table signature order calibration: computed (pos, neg) inertia of
# the definite elliptic normal form comes out (0, 6), matching the printed
# (0,6) directly, so the printed order is (pos, neg).
RANK1_LAPLACE_SIGN = (0, 1)  # computed inertia of the 2D-Laplace normal form


# each row's terms (index, sign, scale), the scale 1, p² or p⁴/4 named by
# the power of p it carries
_TABLE1_TERMS = {
    1: (((1, 2, 3), 1, 0), ((4, 5, 6), 1, 2)),
    2: (((2, 3, 4), 1, 0), ((1, 3, 5), -1, 0), ((1, 2, 6), 1, 0), ((4, 5, 6), -1, 4)),
    3: (((2, 3, 4), 1, 0), ((1, 3, 5), 1, 0), ((1, 2, 6), 1, 0), ((4, 5, 6), 1, 4)),
    4: (((2, 3, 4), 1, 0), ((1, 3, 5), -1, 0), ((1, 2, 6), 1, 0)),
    5: (((2, 3, 4), 1, 0), ((1, 3, 5), 1, 0), ((1, 2, 6), 1, 0)),
    6: (((1, 2, 6), 1, 0), ((1, 3, 5), -1, 0)),
    7: (((1, 2, 6), 1, 0), ((1, 3, 5), 1, 0)),
    8: (((2, 3, 4), 1, 0),),
    9: (),
}
_TABLE1_SLOTS = {row: tuple((POS[3][idx], sign, power) for idx, sign, power in terms)
                 for row, terms in _TABLE1_TERMS.items()}


def table1_form(row, param=Fraction(1)):
    """Normal form of the given classification-table row (1..9).

    The parameter enters so that the pfaffian is exactly ±param⁴ for rows
    1-3: the dq123+dp123-type row stores param² on dp123 and the two
    special-Lagrangian rows store param⁴/4 on dp123.  (The printed normal
    forms carry γ resp. ν², whose literal pfaffians are γ² resp. −4ν⁴; this
    reparametrization keeps the same orbits while making the table's λ
    column hold exactly.)

    The scale 1 is p − p + 1, in p's type; a minus term stores 0 − v, so the
    coefficients are those of the sum of signed basis forms, signed zeros
    included.  Unused coefficients are the int 0.
    """
    p = Fraction(param) if not isinstance(param, float) else param
    slots = _TABLE1_SLOTS.get(row)
    if slots is None:
        raise ValueError(f"no table row {row}")
    one = p - p + 1
    coeffs = [0] * dim_grade(3)
    for pos, sign, power in slots:
        v = one if power == 0 else p * p if power == 2 else p ** 4 / 4
        coeffs[pos] = v if sign > 0 else 0 - v
    return _kform(3, tuple(coeffs))


TABLE1_CLASSES = {
    1: OrbitClass.HESSIAN_ONE,
    2: OrbitClass.SPECIAL_LAGRANGIAN_ELLIPTIC,
    3: OrbitClass.SPECIAL_LAGRANGIAN_HYPERBOLIC,
    4: OrbitClass.LAPLACE,
    5: OrbitClass.WAVE,
    6: OrbitClass.LAPLACE_2D,
    7: OrbitClass.WAVE_2D,
    8: OrbitClass.SECOND_DERIVATIVE,
    9: OrbitClass.ZERO,
}


def _exact_invariants(omega, s):
    """(λ, inertia of q_ω) for an effective rational ω on a rational space,
    in ints over the cleared coefficients.

    The K table gives θ·K = N/den in ints.  With θ = a/b and c = den·a,
    K = b·N/c, so λ = tr(K²)/6 = b²·tr(N²)/(6c²).  With A = A'/e the matrix
    of Ω over its common denominator, Q = (KᵀA + AᵀK)/4 = b/(4ce)·S for the
    int matrix S = NᵀA' + A'ᵀN, whose inertia is Q's, with pos and neg
    swapped when c < 0.
    """
    N, den = _k_table().rational(omega.coeffs)
    N = [N[DIM * i:DIM * (i + 1)] for i in range(DIM)]
    theta = s.theta.coeffs[0]
    c = den * theta.numerator
    lam = Fraction(theta.denominator ** 2
                   * sum(N[i][k] * N[k][i] for i in range(DIM) for k in range(DIM)),
                   6 * c * c)
    _, A = _cleared([a for row in s.matrix for a in row])
    M = _kt_a(N, [A[DIM * i:DIM * (i + 1)] for i in range(DIM)])
    sig = signature(QuadForm6([[M[i][j] + M[j][i] for j in range(DIM)]
                               for i in range(DIM)]))
    if c < 0:
        sig = Signature(sig.neg, sig.pos, sig.zero)
    return lam, sig


def classify(omega, s, tol=0):
    """Map an effective 3-form to its orbit class and invariant report."""
    rule = effective_tol(omega)
    eff_tol = tol or rule
    if not is_effective(s, omega, tol=eff_tol):
        raise EffectivenessError("classification requires an effective 3-form")
    if _all_rational(omega.coeffs) and _all_rational(s.omega.coeffs):
        lam, sig = _exact_invariants(omega, s)
    else:
        K = hitchin_k(omega, s)
        lam = _lambda_of_k(K)
        if _lambda_is_zero(lam, omega):
            lam = 0.0 if isinstance(lam, float) else lam
        sig = signature(_q_of_k(K, s))
    branch = "hyperbolic" if lam > 0 else "elliptic" if lam < 0 else "degenerate"
    report = InvariantReport(lambda_=lam, signature=sig,
                             effective=True, nondegenerate=lam != 0, branch=branch)
    if lam > 0:
        return OrbitClass.HESSIAN_ONE, report
    if lam < 0:
        pattern = {sig.pos, sig.neg}
        if pattern == {0, 6}:
            return OrbitClass.SPECIAL_LAGRANGIAN_ELLIPTIC, report
        if pattern == {4, 2}:
            return OrbitClass.SPECIAL_LAGRANGIAN_HYPERBOLIC, report
        raise UnclassifiableError(
            f"λ < 0 with signature {(sig.pos, sig.neg)} is outside the table's convention")
    rank = sig.rank
    if rank == 3:
        cls = OrbitClass.LAPLACE if {sig.pos, sig.neg} == {0, 3} else OrbitClass.WAVE
        return cls, report
    if rank == 1:
        cls = (OrbitClass.LAPLACE_2D if (sig.pos, sig.neg) == RANK1_LAPLACE_SIGN
               else OrbitClass.WAVE_2D)
        return cls, report
    if rank == 0:
        zero = omega.max_abs() <= eff_tol if rule else omega.is_zero()
        return (OrbitClass.ZERO if zero else OrbitClass.SECOND_DERIVATIVE), report
    raise UnclassifiableError(
        f"λ = 0 with signature rank {rank} is outside the table's convention")


@dataclass(frozen=True)
class GczStructure:
    """Pointwise generalized almost Calabi-Yau data (g, Ω, K, α, β)."""

    g: QuadForm6
    omega: KForm       # the symplectic 2-form
    K: tuple           # 6x6 array, K² = ±Id
    alpha: KForm
    beta: KForm
    branch: str
    ratio: object      # (α ∧ β)/Ω³


def build_gcy(omega, s):
    """Normalize ω by |λ|^(1/4) and assemble the 5-tuple (g, Ω, K, α, β).

    Exact inputs require |λ| to be a rational fourth power; otherwise the
    float backend must be used.  One K is built: K(ω/r) = K(ω)/r².
    """
    K = hitchin_k(omega, s)
    lam = _lambda_of_k(K)
    if _lambda_is_zero(lam, omega):
        raise DegenerateFormError("cannot build the structure for λ = 0")
    exact = not isinstance(lam, float)
    root = _abs_pow(lam, 1, 4, exact)
    normalized = omega * (1 / root)
    if not is_effective(s, normalized):
        raise EffectivenessError("the structure requires an effective 3-form")
    r2 = root * root
    K = [[e / r2 for e in row] for row in K]
    g = _q_of_k(K, s)
    sp = _split(normalized, *_dual(normalized, K), s.theta)
    omega3_over_theta = -6  # Ω³ = −6θ
    ratio = sp._pairing / omega3_over_theta
    return GczStructure(g=g, omega=s.omega, K=tuple(map(tuple, K)),
                        alpha=sp.alpha, beta=sp.beta, branch=sp.branch, ratio=ratio)
