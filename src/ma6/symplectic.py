"""Symplectic structure on V, the ⊤/⊥ operators, effectiveness, and the
Hodge–Lepage–Lychagin decomposition for grades ≤ 3."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exterior import (
    COMBS,
    DIM,
    POS,
    Bivector6,
    GradeError,
    KForm,
    QuadraticTable,
    _all_rational,
    _bot_table,
    _cleared,
    _interior_table,
    _wedge_table,
    dim_grade,
    interior_bivector,
    wedge,
    zero_tol,
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
        matrix_terms: for a rational Ω, the nonzero entries of A' = e·A,
                 A over its common denominator e > 0, as (k, j, A'[k][j])
                 ints; None for any other Ω.
        x_omega_ints: for a rational Ω, the numerators of X_Ω over its
                 common denominator, one int per coefficient; else None.
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
        rational = _all_rational(omega.coeffs)
        # an int Ω is inverted in Fractions, so that X_Ω stays exact
        Ainv = _mat_inverse([list(map(Fraction, row)) for row in A] if rational else A)
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
        self.matrix_terms = self.x_omega_ints = None
        if rational:
            _, a = _cleared([c for row in A for c in row])
            self.matrix_terms = tuple((n // DIM, n % DIM, c) for n, c in enumerate(a) if c)
            self.x_omega_ints = tuple(_cleared(xo)[1])

    @cached_property
    def pencil_table(self):
        """T(φ, ψ) = (φ ∧ ψ ∧ Ω)/Ω³ as a bilinear table in the coefficients
        of two 2-forms, built on first use from the wedge tables and Ω's
        exact value (a float coefficient is taken as the rational it is)."""
        omega = [Fraction(c) for c in self.omega.coeffs]
        w22, w42 = _wedge_table(2, 2), _wedge_table(4, 2)
        # ψ ∧ Ω = Σ_r ψ_r·v_r for a 4-form ψ
        v = [0] * dim_grade(4)
        for r, j, c in w42.exact[0]:
            v[r] += c * omega[j]
        top = sum(a * b for a, b in zip(w22(omega, omega), v))
        entries = {}
        for r, terms in enumerate(w22.exact):
            for p, q, c in terms:
                entries[p, q] = entries.get((p, q), 0) + c * v[r] / top
        return QuadraticTable([entries])

    @cached_property
    def pencil_q_table(self):
        """q_ω read off the characteristic pencil, as a quadratic table in
        ω's 20 coefficients: entry DIM·a + b is Q_ab = −3·T(i_{e_a}ω, i_{e_b}ω),
        T the `pencil_table`.  Built on first use by composing T with the
        interior table, so that ω is cleared once per evaluation."""
        # i_{e_a}ω = Σ_p (Σ sign·ω_I) e_p over the interior table's terms (I, a, sign)
        inner = [[[] for _ in COMBS[2]] for _ in range(DIM)]
        for p, terms in enumerate(_interior_table(3).exact):
            for I, a, sign in terms:
                inner[a][p].append((I, sign))
        entries = [{} for _ in range(DIM * DIM)]
        for a in range(DIM):
            for b in range(DIM):
                e = entries[DIM * a + b]
                for p, q, t in self.pencil_table.exact[0]:
                    for I, si in inner[a][p]:
                        for J, sj in inner[b][q]:
                            e[I, J] = e.get((I, J), 0) - 3 * t * si * sj
        return QuadraticTable(entries)


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


# the field checks' defaults (and the CLI's): finite-difference step, residual
# tolerance, and the tolerance on the curvature of the q-metric
DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-6
CURVATURE_TOL = 1e-5


def is_effective(s, omega, tol=0):
    """True iff ⊥ω = 0, for a float form by the zero rule |⊥ω| ≤ ε₁·|ω| of
    `zero_tol`; for grade 3 this coincides with ω ∧ Ω = 0.  With tol,
    |⊥ω| ≤ tol instead.  On a rational space and a rational ω, ⊥ω is zero
    iff the int numerators of its table at X_Ω's stored ints are, and no
    Fraction is made."""
    if omega.grade < 2:
        return True
    if not tol and s.x_omega_ints is not None and _all_rational(omega.coeffs):
        return not any(_bot_table(omega.grade).int_sums(s.x_omega_ints,
                                                        _cleared(omega.coeffs)[1]))
    tol = tol or zero_tol(omega, 1)
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
