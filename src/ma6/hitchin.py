"""Linear invariants of 3-forms in dimension 6: the K-map, its pfaffian,
the dual form, and the decomposable splitting.

Sign convention: K(X)θ = A(i_X ω ∧ ω), where A takes a 5-form ψ to the
vector v with ξ ∧ ψ = ξ(v) θ for every covector ξ.  With this choice the
K-map of dq123 + dp123 is diag(1,1,1,−1,−1,−1), matching the standard real
Calabi-Yau product structure on the (q, p) splitting.

The dual form needs K*ω(X, Y, Z) = ω(KX, KY, KZ), a form of degree 7 in ω.
It is computed from the derivation action of K, which is linear in K:

    K*ω = (λ/3)·K·ω,   K·ω(X, Y, Z) = ω(KX, Y, Z) + ω(X, KY, Z) + ω(X, Y, KZ).

For λ ≠ 0, K = √|λ|·J with J² = sign(λ), and ω = α + β with α and β
decomposable, each a product of three 1-forms on which J acts as one
eigenvalue μ, μ² = sign(λ).  So J* multiplies α and β by μ³ and J· by 3μ,
that is J* = (sign λ/3)·J· on ω.  Both sides are polynomials in ω, so the
identity also holds at λ = 0, where both vanish.  K·ω is one bilinear table
in (K, ω), and no 3x3 minors of K are taken.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exterior import (
    COMBS,
    DIM,
    POS,
    ExactComplex,
    GradeError,
    KForm,
    QuadraticTable,
    merge_sign,
    rational_sqrt,
    wedge,
    zero_tol,
)


class DegenerateFormError(ValueError):
    """Raised when an operation requires a nonzero Hitchin pfaffian."""


class ExactnessError(ValueError):
    """Raised when an exact computation would need an irrational root."""


def _theta_of(space_or_theta):
    theta = getattr(space_or_theta, "theta", space_or_theta)
    if theta.grade != DIM:
        raise GradeError("volume form must have grade 6")
    if theta.is_zero():
        raise ValueError("volume form is zero")
    return theta


@lru_cache(maxsize=None)
def _k_table():
    """θ·K as a quadratic table in the coefficients of ω, one entry per K
    entry in row-major order, from K(e_j)θ = A(i_{e_j}ω ∧ ω).

    i_{e_j}ω has coefficient ±ω_{P∪{j}} on e_P (the sign of e_j ∧ e_P), and
    A reads component i of a 5-form off its coefficient on the complement
    C of i, with the sign of e_i ∧ e_C; that coefficient pairs each e_P,
    P ⊂ C, with e_{C∖P}.
    """
    entries = []
    for i in range(1, DIM + 1):
        comp = tuple(k for k in range(1, DIM + 1) if k != i)
        sign_i, _ = merge_sign((i,), comp)
        for j in range(1, DIM + 1):
            terms = {}
            for P in itertools.combinations(comp, 2):
                if j in P:
                    continue
                sign_j, I = merge_sign((j,), P)
                R = tuple(k for k in comp if k not in P)
                sign_pr, _ = merge_sign(P, R)
                key = tuple(sorted((POS[3][I], POS[3][R])))
                terms[key] = terms.get(key, 0) + sign_i * sign_j * sign_pr
            entries.append(terms)
    return QuadraticTable(entries)


def hitchin_k(omega, space_or_theta):
    """Hitchin's map K with K(X)θ = A(i_X ω ∧ ω); returned as a 6x6 array
    whose column j is K(e_{j+1})."""
    theta = _theta_of(space_or_theta)
    if omega.grade != 3:
        raise GradeError("hitchin_k takes a 3-form")
    t = theta.coeffs[0]
    k = _k_table()(omega.coeffs)
    if isinstance(k[0], float):
        t = float(t)  # one conversion, not one per float / Fraction division
    return [[k[DIM * i + j] / t for j in range(DIM)] for i in range(DIM)]


@lru_cache(maxsize=None)
def _derivation_table():
    """K·ω as a bilinear table in (K, ω), K flattened row-major, one entry
    per coefficient of the 3-form K·ω.

    On e_A, slot s of A contributes Σ_i K_{i,a_s}·ω(…, e_i, …) with e_i in
    slot s: for i outside the other two indices R of A, that is the sign of
    e_i ∧ e_R times (−1)^s, times ω_{{i}∪R}.
    """
    entries = []
    for A in COMBS[3]:
        terms = {}
        for slot, a in enumerate(A):
            R = A[:slot] + A[slot + 1:]
            for i in range(1, DIM + 1):
                sign, I = merge_sign((i,), R)
                if sign:
                    terms[DIM * (i - 1) + a - 1, POS[3][I]] = (-1) ** slot * sign
        entries.append(terms)
    return QuadraticTable(entries)


def k_squared(omega, space_or_theta):
    K = hitchin_k(omega, space_or_theta)
    return [[sum(K[i][k] * K[k][j] for k in range(DIM)) for j in range(DIM)]
            for i in range(DIM)]


def _lambda_of_k(K):
    """λ = (1/6) tr(K²) from the K-map."""
    t = 0
    for i in range(DIM):
        t = t + sum(K[i][k] * K[k][i] for k in range(DIM))
    return t / 6


def pfaffian(omega, space_or_theta):
    """Hitchin pfaffian λ = (1/6) tr(K²)."""
    return _lambda_of_k(hitchin_k(omega, space_or_theta))


def _abs_pow(lam, num, den, exact):
    """|lam|^(num/den) for den in {2, 4}; exact path requires a rational root."""
    a = -lam if lam < 0 else lam
    if exact:
        r = rational_sqrt(a)
        if den == 4 and r is not None:
            r = rational_sqrt(r)
        if r is None:
            raise ExactnessError(
                f"|λ|^(1/{den}) is irrational for λ = {lam}; use the float backend")
        return r ** num
    return float(a) ** (num / den)


def _lambda_is_zero(lam, omega):
    """The λ = 0 rule: an exact λ is zero when it equals 0, a float λ by the
    zero rule of degree 4, |λ| ≤ ε₄·|ω|⁴ (`zero_tol`); float-ness is read off
    λ, so an exact ω is not scanned."""
    if isinstance(lam, float):
        return abs(lam) <= zero_tol(omega, 4)
    return lam == 0


def _dual(omega, K):
    """(λ, exact, ω̂) from ω and its K: ω̂ = |λ|^(−3/2)·K*ω = λ/(3|λ|^(3/2))·K·ω."""
    lam = _lambda_of_k(K)
    if _lambda_is_zero(lam, omega):
        raise DegenerateFormError("degenerate 3-form (λ = 0) has no dual")
    exact = not isinstance(lam, float)
    factor = lam / (3 * _abs_pow(lam, 3, 2, exact))
    k_omega = _derivation_table()([e for row in K for e in row], omega.coeffs)
    return lam, exact, KForm(3, k_omega) * factor


def dual_form(omega, space_or_theta):
    """Hitchin's dual form ω̂ = |λ|^(−3/2) K*ω (requires λ ≠ 0)."""
    return _dual(omega, hitchin_k(omega, space_or_theta))[2]


class SplitPair:
    """Decomposable splitting of a nondegenerate 3-form.

    Hyperbolic branch (λ > 0): ω = alpha + beta, both real decomposable,
    ordered so (α∧β)/θ > 0.  Elliptic branch (λ < 0): ω = alpha + conj(alpha)
    with alpha complex decomposable and (α∧ᾱ)/(iθ) > 0; beta is the conjugate.
    """

    def __init__(self, branch, alpha, beta):
        self.branch = branch
        self.alpha = alpha
        self.beta = beta

    def __repr__(self):
        return f"SplitPair({self.branch}, {self.alpha!r}, {self.beta!r})"


def split_pair(omega, space_or_theta):
    theta = _theta_of(space_or_theta)
    return _split(omega, *_dual(omega, hitchin_k(omega, theta)), theta)


def _pieces_pairing(t, lam, exact):
    """Θ(α, β) of the split of ω whose Θ(ω̂, ω) is t: |t|/2, times i on the
    elliptic branch."""
    t = abs(t) / 2
    if lam > 0:
        return t
    return (ExactComplex(0, 1) if exact else 1j) * t


def _split(omega, lam, exact, dual, theta):
    """The SplitPair of ω from its dual ω̂ and the sign of its λ.

    ω∧ω = ω̂∧ω̂ = 0 and ω∧ω̂ = −ω̂∧ω for 3-forms, so with α = (ω + ω̂)/2,
    β = (ω − ω̂)/2 (hyperbolic) or α = (ω + iω̂)/2, β = ᾱ (elliptic),
    α∧β = (ω̂∧ω)/2 resp. (i/2)·ω̂∧ω.  One pairing t = Θ(ω̂, ω) therefore
    orients the pieces (ω̂ is negated when t < 0) and gives Θ(α, β), kept
    as ``_pairing`` for build_gcy; no piece is wedged.
    """
    t = theta_pairing(dual, omega, theta)
    if t < 0:
        dual = -dual
    half = Fraction(1, 2) if exact else 0.5
    if lam > 0:
        sp = SplitPair("hyperbolic", (omega + dual) * half, (omega - dual) * half)
    else:
        i_unit = ExactComplex(0, 1) if exact else 1j
        alpha = (omega + dual * i_unit) * half
        sp = SplitPair("elliptic", alpha, alpha.conjugate())
    sp._pairing = _pieces_pairing(t, lam, exact)
    return sp


def is_decomposable(phi, space_or_theta, tol=None):
    """True iff φ is a decomposable 3-form, i.e. its K-map vanishes.

    For 3-forms in 6 variables i_Xφ ∧ φ = 0 for all X exactly characterizes
    decomposability.  ``tol`` bounds max|K_ij|; the default is the zero rule
    of K, quadratic in φ: ε₂·|φ|² for a float or complex φ, else K = 0.
    """
    K = hitchin_k(phi, space_or_theta)
    entries = [e for row in K for e in row]
    tol = zero_tol(phi, 2) if tol is None else tol
    if tol:
        return max(map(abs, entries)) <= tol
    return all(e == 0 for e in entries)


def theta_pairing(omega, omega2, space_or_theta):
    """Θ(ω, ω′) = (ω ∧ ω′)/θ, the symplectic pairing on 3-forms."""
    theta = _theta_of(space_or_theta)
    if omega.grade != 3 or omega2.grade != 3:
        raise GradeError("theta_pairing takes two 3-forms")
    return wedge(omega, omega2).coeffs[0] / theta.coeffs[0]
