"""The quadratic invariant of an effective 3-form, its Sylvester signature,
the characteristic pencil, and the sp(3) membership test."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exterior import (
    COMBS,
    DIM,
    POS,
    Bivector6,
    KForm,
    QuadraticTable,
    interior_bivector,
    interior_vector,
    merge_sign,
    wedge,
)
from .symplectic import EffectivenessError, is_effective
from .hitchin import mat_mul


@dataclass(frozen=True)
class QuadForm6:
    """Symmetric 6x6 quadratic form; Q(X) = Xᵀ Q X."""

    matrix: tuple

    def __call__(self, X, Y=None):
        Y = X if Y is None else Y
        return sum(self.matrix[i][j] * X[i] * Y[j]
                   for i in range(DIM) for j in range(DIM))

    def scale(self, c):
        return QuadForm6(tuple(tuple(e * c for e in row) for row in self.matrix))


@dataclass(frozen=True)
class Signature:
    pos: int
    neg: int
    zero: int

    @property
    def rank(self):
        return self.pos + self.neg


@dataclass(frozen=True)
class CubicPencil:
    """Coefficients of ξ ↦ (i_Xω − ξΩ)³ / Ω³ as a cubic in ξ."""

    c3: object
    c2: object
    c1: object
    c0: object


# the entries (a, b), a ≤ b, of a symmetric 6x6 matrix in row order
_UPPER = list(itertools.combinations_with_replacement(range(DIM), 2))


@lru_cache(maxsize=32, typed=True)
def _q_table(*x_omega):
    """Q as a quadratic table in the coefficients of ω, one entry per
    _UPPER pair, for the space with dual bivector x_omega.

    Q_ab = −¼ ⊥²(i_{e_a}ω ∧ i_{e_b}ω).  ⊥ is i_{X_Ω} with i_{X∧Y} = i_Y ∘ i_X,
    so ⊥² of a basis 4-form e_L sums x_P·x_R·e_L(e_P, e_R) over the splits
    L = P ⊔ R into pairs; i_{e_a}ω has coefficient ±ω_{P∪{a}} on e_P (the
    sign of e_a ∧ e_P), and the wedge sends e_P ∧ e_R to ±e_L.
    """
    x = dict(zip(COMBS[2], x_omega))
    entries = [{} for _ in _UPPER]
    for L in COMBS[4]:
        splits = []
        for P in itertools.combinations(L, 2):
            R = tuple(k for k in L if k not in P)
            splits.append((P, R, merge_sign(P, R)[0]))
        bot2 = sum(sign * x[P] * x[R] for P, R, sign in splits if x[P] and x[R])
        if bot2 == 0:
            continue
        # integer multiplicities of e_L first, one rational product each after
        mult = {}
        for P, R, sign in splits:
            for n, (a, b) in enumerate(_UPPER):
                sign_a, I = merge_sign((a + 1,), P)
                sign_b, J = merge_sign((b + 1,), R)
                if sign_a and sign_b:
                    key = (n, *sorted((POS[3][I], POS[3][J])))
                    mult[key] = mult.get(key, 0) + sign * sign_a * sign_b
        c = Fraction(-1, 4) * bot2
        for (n, i, j), m in mult.items():
            entries[n][i, j] = entries[n].get((i, j), 0) + m * c
    return QuadraticTable(entries)


def q_form(omega, s, tol=0):
    """Q with Q(X) = −(1/4) ⊥²(i_X ω ∧ i_X ω); requires ω effective."""
    if omega.grade != 3:
        raise ValueError("q_form takes a 3-form")
    if not is_effective(s, omega, tol=tol):
        raise EffectivenessError("q_form requires an effective 3-form")
    Q = [[0] * DIM for _ in range(DIM)]
    for (a, b), v in zip(_UPPER, _q_table(*s.x_omega.coeffs)(omega.coeffs)):
        Q[a][b] = Q[b][a] = v
    return QuadForm6(tuple(tuple(row) for row in Q))


@lru_cache(maxsize=32, typed=True)
def _bot_matrix(*x_omega):
    """⊥ on 3-forms as a read-only float 20 × 6 matrix, row I holding ⊥e_I,
    for the space with dual bivector x_omega."""
    import numpy as np

    B = Bivector6(x_omega)
    M = np.array([[float(c) for c in interior_bivector(B, KForm.basis(*I)).coeffs]
                  for I in COMBS[3]])
    M.flags.writeable = False
    return M


# Q_ab's position in the _UPPER order, for every (a, b)
_SYMMETRIC = [[_UPPER.index((min(a, b), max(a, b))) for b in range(DIM)]
              for a in range(DIM)]


def q_matrices(W, s):
    """The matrices of q_form at each row of the float array W of 3-form
    coefficients, shape (N, 20): an (N, 6, 6) float array.  Every row must
    pass the float guard of q_form, |⊥ω| ≤ 1e-9·(1 + |ω|)."""
    import numpy as np

    W = np.asarray(W, dtype=float)
    x_omega = s.x_omega.coeffs
    bot = np.abs(np.einsum("nI,Ia->na", W, _bot_matrix(*x_omega))).max(axis=1)
    if not (bot <= 1e-9 * (1 + np.abs(W).max(axis=1))).all():
        raise EffectivenessError("q_form requires an effective 3-form")
    return _q_table(*x_omega).batch(W)[:, _SYMMETRIC]


# One-time calibration: with ⊥ pinned by the commutator identity (⊥Ω = 3),
# q pinned by the characteristic-pencil coefficient, and K pinned by the
# real-Calabi-Yau product structure, the q/K compatibility identity holds
# with a global factor 2: 2·q_ω(X) = Ω(K_ω X, X).
COMPAT_SCALE = 2


def compat_q_k(omega, s, K=None):
    """Residual of the calibrated identity 2·q_ω(X) = Ω(K_ω X, X).

    The matrix form reads 2Q = sym(Kᵀ A) with A the matrix of Ω; returns the
    largest absolute deviation (0 means the identity holds exactly).
    """
    from .hitchin import hitchin_k

    Q = q_form(omega, s, tol=_float_tol(omega))
    if K is None:
        K = hitchin_k(omega, s)
    A = s.matrix
    M = mat_mul([[K[j][i] for j in range(DIM)] for i in range(DIM)], A)
    res = 0
    half = Fraction(1, 2) if not isinstance(M[0][0], float) else 0.5
    for i in range(DIM):
        for j in range(DIM):
            sym = (M[i][j] + M[j][i]) * half
            res = max(res, abs(COMPAT_SCALE * Q.matrix[i][j] - sym))
    return res


def _float_tol(omega):
    if any(isinstance(c, float) for c in omega.coeffs):
        return 1e-9 * (1 + omega.max_abs())
    return 0


def signature(Q, tol=1e-9):
    """Sylvester inertia of a symmetric quadratic form.

    Exact entries use symmetric congruence diagonalization over the
    rationals; float entries fall back to eigenvalue signs with ``tol``.
    """
    M = [list(row) for row in Q.matrix]
    if any(isinstance(M[i][j], float) for i in range(DIM) for j in range(DIM)):
        import numpy as np

        eig = np.linalg.eigvalsh(np.array(M, dtype=float))
        scale = max(1.0, float(abs(eig).max()))
        pos = int((eig > tol * scale).sum())
        neg = int((eig < -tol * scale).sum())
        return Signature(pos, neg, DIM - pos - neg)
    pos = neg = zero = 0
    n = DIM
    r = 0
    while r < n:
        # choose a nonzero diagonal pivot, manufacturing one if necessary
        piv = next((i for i in range(r, n) if M[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n)
                         if M[i][j] != 0), None)
            if pair is None:
                zero += n - r
                break
            i, j = pair
            for c in range(n):
                M[i][c] += M[j][c]
            for c in range(n):
                M[c][i] += M[c][j]
            piv = i
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            for c in range(n):
                M[c][r], M[c][piv] = M[c][piv], M[c][r]
        p = M[r][r]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(r + 1, n):
            if M[i][r] != 0:
                f = Fraction(M[i][r]) / Fraction(p)
                for c in range(n):
                    M[i][c] -= f * M[r][c]
                for c in range(n):
                    M[c][i] -= f * M[c][r]
        r += 1
    return Signature(pos, neg, zero)


def char_pencil(omega, s, X):
    """Expand (i_Xω − ξΩ)³ / Ω³ as a cubic in ξ.

    For effective ω this equals −ξ³ + q_ω(X)·ξ, the polynomial form of the
    characteristic-root identity.
    """
    if omega.grade != 3:
        raise ValueError("char_pencil takes a 3-form")
    phi = interior_vector(X, omega)
    O = s.omega
    top = wedge(wedge(O, O), O).coeffs[0]
    c0 = wedge(wedge(phi, phi), phi).coeffs[0] / top
    c1 = -3 * wedge(wedge(phi, phi), O).coeffs[0] / top
    c2 = 3 * wedge(wedge(phi, O), O).coeffs[0] / top
    c3 = -1 if not isinstance(c0, float) else -1.0
    return CubicPencil(c3, c2, c1, c0)


def in_sp3(K, s, tol=0):
    """True iff Ω(KX, Y) + Ω(X, KY) = 0 for all X, Y, i.e. Kᵀ A + A K = 0."""
    A = s.matrix
    Kt = [[K[j][i] for j in range(DIM)] for i in range(DIM)]
    M1 = mat_mul(Kt, A)
    M2 = mat_mul(A, K)
    res = max(abs(M1[i][j] + M2[i][j]) for i in range(DIM) for j in range(DIM))
    return res <= tol
