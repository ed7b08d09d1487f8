"""The quadratic invariant of an effective 3-form, its Sylvester signature,
the characteristic pencil, and the sp(3) membership test.

q_ω is read off Hitchin's K through the calibrated Lychagin–Roubtsov
identity 2·q_ω(X) = Ω(K_ωX, X).  With A the matrix of Ω and M = KᵀA, the
matrix of q_ω is Q = (M + Mᵀ)/4, which is (KᵀA − AK)/4 as A is
antisymmetric, and K lies in sp(3) iff M is symmetric.  The characteristic
pencil gives q_ω independently of K, and `compat_q_k` compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exterior import DIM, _bot_table, interior_vector, wedge
from .symplectic import EffectivenessError, is_effective
from .hitchin import _k_table, hitchin_k


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


def _kt_a(K, A):
    """M = KᵀA, A the matrix of Ω, summed over A's nonzero entries only."""
    real = isinstance(K[0][0], float)
    M = [[0] * DIM for _ in range(DIM)]
    for k, row in enumerate(A):
        for j, a in enumerate(row):
            if a != 0:
                a = float(a) if real else a
                for i in range(DIM):
                    M[i][j] += K[k][i] * a
    return M


def _q_of_k(K, s):
    """Q of the form whose K-map is K: Q = (M + Mᵀ)/4 with M = KᵀA."""
    M = _kt_a(K, s.matrix)
    Q = [[0] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            Q[i][j] = Q[j][i] = (M[i][j] + M[j][i]) / 4
    return QuadForm6(tuple(tuple(row) for row in Q))


def q_form(omega, s, tol=0):
    """Q with Q(X) = −(1/4) ⊥²(i_X ω ∧ i_X ω), read off Hitchin's K;
    requires ω effective."""
    if omega.grade != 3:
        raise ValueError("q_form takes a 3-form")
    if not is_effective(s, omega, tol=tol):
        raise EffectivenessError("q_form requires an effective 3-form")
    return _q_of_k(hitchin_k(omega, s), s)


def q_matrices(W, s):
    """The matrices of q_form at each row of the float array W of 3-form
    coefficients, shape (N, 20): an (N, 6, 6) float array.  Every row must
    pass the float guard of q_form, |⊥ω| ≤ 1e-9·(1 + |ω|)."""
    import numpy as np

    W = np.asarray(W, dtype=float)
    x_omega = np.array(s.x_omega.coeffs, dtype=float)
    X = np.broadcast_to(x_omega, (len(W), x_omega.size))
    bot = np.abs(_bot_table(3).batch(X, W)).max(axis=1)
    if not (bot <= 1e-9 * (1 + np.abs(W).max(axis=1))).all():
        raise EffectivenessError("q_form requires an effective 3-form")
    K = (_k_table().batch(W) / float(s.theta.coeffs[0])).reshape(-1, DIM, DIM)
    M = np.einsum("nki,kj->nij", K, np.array(s.matrix, dtype=float))
    return (M + M.transpose(0, 2, 1)) / 4


# One-time calibration: with ⊥ pinned by the commutator identity (⊥Ω = 3),
# q pinned by the characteristic-pencil coefficient, and K pinned by the
# real-Calabi-Yau product structure, the q/K compatibility identity holds
# with a global factor 2: 2·q_ω(X) = Ω(K_ω X, X).
COMPAT_SCALE = 2


def compat_q_k(omega, s, K=None):
    """Residual of the calibrated identity 2·q_ω(X) = Ω(K_ω X, X).

    q_ω is read off the characteristic pencil, not from K: its polarized ξ
    coefficient Q_ab = −3·(i_{e_a}ω ∧ i_{e_b}ω ∧ Ω)/Ω³.  The matrix form of
    the identity reads 2Q = sym(KᵀA) with A the matrix of Ω; returns the
    largest absolute deviation (0 means the identity holds exactly).
    """
    if K is None:
        K = hitchin_k(omega, s)
    top = _omega_cubed(s)
    phis = [interior_vector([int(i == a) for i in range(DIM)], omega) for a in range(DIM)]
    M = _kt_a(K, s.matrix)
    res = 0
    for i in range(DIM):
        for j in range(i, DIM):
            q = _pencil_c1(phis[i], phis[j], s, top)
            res = max(res, abs(COMPAT_SCALE * q - (M[i][j] + M[j][i]) / 2))
    return res


def signature(Q, tol=1e-9):
    """Sylvester inertia of a symmetric quadratic form.

    Exact entries are diagonalized by symmetric congruence in Python ints
    over their common denominator; float entries fall back to eigenvalue
    signs with ``tol``.
    """
    M = [list(row) for row in Q.matrix]
    if any(isinstance(M[i][j], float) for i in range(DIM) for j in range(DIM)):
        import numpy as np

        eig = np.linalg.eigvalsh(np.array(M, dtype=float))
        scale = max(1.0, float(abs(eig).max()))
        pos = int((eig > tol * scale).sum())
        neg = int((eig < -tol * scale).sum())
        return Signature(pos, neg, DIM - pos - neg)
    # clear the denominators, then eliminate in ints: each pivot's Schur
    # complement is scaled by |pivot|, which keeps its inertia and its
    # entries ints, and divided by the gcd of its entries
    d = math.lcm(*(x.denominator for row in M for x in row))
    M = [[x.numerator * (d // x.denominator) for x in row] for row in M]
    pos = neg = 0
    while M:
        n = len(M)
        piv = next((i for i in range(n) if M[i][i]), None)
        if piv is None:
            # manufacture one: M[i] += M[j] on rows and columns makes
            # M[i][i] = 2·M[i][j]
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if M[i][j]),
                        None)
            if pair is None:
                break
            i, j = pair
            for c in range(n):
                M[i][c] += M[j][c]
            for c in range(n):
                M[c][i] += M[c][j]
            piv = i
        row = M[piv]
        p = row[piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        # |p| times the Schur complement M − v·vᵀ/p, v the pivot's column
        rest = [k for k in range(n) if k != piv]
        sign = 1 if p > 0 else -1
        M = [[abs(p) * M[i][j] - sign * row[i] * row[j] for j in rest] for i in rest]
        g = math.gcd(*(x for r in M for x in r))
        if g > 1:
            M = [[x // g for x in r] for r in M]
    return Signature(pos, neg, len(M))


def _omega_cubed(s):
    O = s.omega
    return wedge(wedge(O, O), O).coeffs[0]


def _pencil_c1(phi, psi, s, top):
    """−3·(φ ∧ ψ ∧ Ω)/Ω³ for 2-forms φ, ψ; top is Ω³."""
    return -3 * wedge(wedge(phi, psi), s.omega).coeffs[0] / top


def char_pencil(omega, s, X):
    """Expand (i_Xω − ξΩ)³ / Ω³ as a cubic in ξ.

    For effective ω this equals −ξ³ + q_ω(X)·ξ, the polynomial form of the
    characteristic-root identity.
    """
    if omega.grade != 3:
        raise ValueError("char_pencil takes a 3-form")
    phi = interior_vector(X, omega)
    O = s.omega
    top = _omega_cubed(s)
    c0 = wedge(wedge(phi, phi), phi).coeffs[0] / top
    c1 = _pencil_c1(phi, phi, s, top)
    c2 = 3 * wedge(wedge(phi, O), O).coeffs[0] / top
    c3 = -1 if not isinstance(c0, float) else -1.0
    return CubicPencil(c3, c2, c1, c0)


def in_sp3(K, s, tol=0):
    """True iff Ω(KX, Y) + Ω(X, KY) = 0 for all X, Y, i.e. Kᵀ A + A K = 0:
    as A is antisymmetric, iff M = KᵀA is symmetric."""
    M = _kt_a(K, s.matrix)
    res = max(abs(M[i][j] - M[j][i]) for i in range(DIM) for j in range(i + 1, DIM))
    return res <= tol
