"""Symplectic structure on V, the ⊤/⊥ operators, effectiveness, and the
Hodge–Lepage–Lychagin decomposition for grades ≤ 3."""

from __future__ import annotations

from fractions import Fraction

from .exterior import (
    COMBS,
    DIM,
    POS,
    Bivector6,
    GradeError,
    KForm,
    _all_rational,
    _bot_table,
    interior_bivector,
    wedge,
)


class DegenerateError(ValueError):
    pass


class EffectivenessError(ValueError):
    pass


def _mat_inverse(M):
    """Gauss-Jordan inverse of a 6x6 matrix of Fractions or floats, pivoting
    on the largest |entry| so that no float rounding residue is a pivot."""
    n = len(M)
    A = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise DegenerateError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        p = A[col][col]
        A[col] = [x / p for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


class SymplecticSpace:
    """A nondegenerate 2-form Ω on V with its derived data.

    Attributes:
        omega:   Ω as a grade-2 KForm.
        matrix:  the 6x6 antisymmetric array A with A[i][j] = Ω(e_{i+1}, e_{j+1}).
        x_omega: the dual bivector X_Ω, from the inverse of A, scaled so ⊥Ω = 3.
        theta:   the volume form θ = −(1/6) Ω³.
    """

    def __init__(self, omega):
        if omega.grade != 2:
            raise GradeError("symplectic form must have grade 2")
        self.omega = omega
        A = [[0] * DIM for _ in range(DIM)]
        for (i, j), c in zip(COMBS[2], omega.coeffs):
            A[i - 1][j - 1] = c
            A[j - 1][i - 1] = -c
        self.matrix = A
        Ainv = _mat_inverse(A)
        xo = [0] * len(COMBS[2])
        for (i, j), p in POS[2].items():
            xo[p] = -Ainv[i - 1][j - 1]
        self.x_omega = Bivector6(xo)
        omega3 = wedge(wedge(omega, omega), omega)
        if omega3.is_zero():
            raise DegenerateError("Ω³ = 0: form is degenerate")
        theta_coeff = omega3.coeffs[0]
        sixth = Fraction(-1, 6) if not isinstance(theta_coeff, float) else -1.0 / 6.0
        self.theta = omega3 * sixth
        # ⊥Ω = n = 3 calibrates the bivector-contraction convention
        cal = interior_bivector(self.x_omega, omega).coeffs[0]
        ok = abs(cal - 3) < 1e-9 if isinstance(cal, float) else cal == 3
        if not ok:
            raise DegenerateError(f"⊥ calibration failed: ⊥Ω = {cal}, expected 3")


def standard_space():
    """The standard Ω0 = Σ dq_i ∧ dp_i."""
    omega = (KForm.basis(1, 4, scale=Fraction(1))
             + KForm.basis(2, 5, scale=Fraction(1))
             + KForm.basis(3, 6, scale=Fraction(1)))
    return SymplecticSpace(omega)


def top(s, omega):
    """⊤ω = ω ∧ Ω."""
    if omega.grade > DIM - 2:
        raise GradeError("⊤ undefined on grades > 4")
    return wedge(omega, s.omega)


def bot(s, omega):
    """⊥ω = i_{X_Ω} ω."""
    if omega.grade < 2:
        raise GradeError("⊥ undefined on grades < 2")
    return interior_bivector(s.x_omega, omega)


EFFECTIVE_TOL = 1e-9  # of |⊥ω| per 1 + |ω|, as ⊥ is linear in ω


def effective_tol(omega):
    """The tolerance of the one effectiveness rule: EFFECTIVE_TOL·(1 + |ω|)
    for a form with a float coefficient, and 0, ⊥ω = 0 exactly, for
    rational and symbolic forms."""
    if any(isinstance(c, float) for c in omega.coeffs):
        return EFFECTIVE_TOL * (1 + omega.max_abs())
    return 0


def is_effective(s, omega, tol=0):
    """True iff ⊥ω = 0 (by the rule of `effective_tol` for a float form);
    for grade 3 this coincides with ω ∧ Ω = 0.  With tol, |⊥ω| ≤ tol
    instead.  On rational X_Ω and ω, ⊥ω is zero iff the int numerators of
    its table are, and no Fraction is made."""
    if omega.grade < 2:
        return True
    if not tol and _all_rational(omega.coeffs) and _all_rational(s.x_omega.coeffs):
        nums, _ = _bot_table(omega.grade).rational(s.x_omega.coeffs, omega.coeffs)
        return not any(nums)
    tol = tol or effective_tol(omega)
    if tol:
        return bot(s, omega).max_abs() <= tol
    return bot(s, omega).is_zero()


def hll_decompose(s, omega):
    """Unique decomposition ω = ω0 + ⊤ω1 with ω0, ω1 effective (grades ≤ 3).

    Returns (ω0, ω1); ω1 is the zero form of grade k−2 when k < 2.
    """
    k = omega.grade
    if k > 3:
        raise GradeError("HLL decomposition implemented for grades ≤ 3 only")
    if k < 2:
        return omega, None
    omega1 = bot(s, omega) / (3 if k == 2 else 2)
    omega0 = omega - top(s, omega1)
    return omega0, omega1


def project_effective(s, omega):
    """The effective component ω0 of the HLL decomposition; idempotent."""
    return hll_decompose(s, omega)[0]
