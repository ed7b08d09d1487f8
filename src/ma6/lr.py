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
from typing import NamedTuple

from .exterior import DIM, _bot_table, interior_vector, wedge, zero_tol
from .symplectic import EffectivenessError, is_effective
from .hitchin import _k_table, hitchin_k


class QuadForm6(NamedTuple):
    """Symmetric 6x6 quadratic form; Q(X) = Xᵀ Q X."""

    matrix: tuple

    def __call__(self, X, Y=None):
        Y = X if Y is None else Y
        return sum(self.matrix[i][j] * X[i] * Y[j]
                   for i in range(DIM) for j in range(DIM))


class Signature(NamedTuple):
    pos: int
    neg: int
    zero: int

    @property
    def rank(self):
        return self.pos + self.neg


class CubicPencil(NamedTuple):
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


def q_form(omega, s):
    """Q with Q(X) = −(1/4) ⊥²(i_X ω ∧ i_X ω), read off Hitchin's K;
    requires ω effective, by `is_effective`."""
    if omega.grade != 3:
        raise ValueError("q_form takes a 3-form")
    if not is_effective(s, omega):
        raise EffectivenessError("q_form requires an effective 3-form")
    return _q_of_k(hitchin_k(omega, s), s)


def q_matrices(W, s):
    """The matrices of q_form at each row of the float array W of 3-form
    coefficients, shape (N, 20): an (N, 6, 6) float array.  Every row must
    be effective by the rule of q_form on floats, |⊥ω| ≤ ε₁·|ω| (`zero_tol`)."""
    import numpy as np

    W = np.asarray(W, dtype=float)
    x_omega = np.array(s.x_omega.coeffs, dtype=float)
    X = np.broadcast_to(x_omega, (len(W), x_omega.size))
    bot = np.abs(_bot_table(3).batch(X, W)).max(axis=1)
    if not (bot <= zero_tol(W, 1)).all():
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
    coefficient Q_ab = −3·(i_{e_a}ω ∧ i_{e_b}ω ∧ Ω)/Ω³, one evaluation of
    the space's `pencil_q_table`.  The matrix form of the identity reads
    2Q = sym(KᵀA) with A the matrix of Ω; returns the largest absolute
    deviation (0 means the identity holds exactly).
    """
    if K is None:
        K = hitchin_k(omega, s)
    Q = s.pencil_q_table(omega.coeffs)
    M = _kt_a(K, s.matrix)
    return max(abs(COMPAT_SCALE * Q[DIM * i + j] - (M[i][j] + M[j][i]) / 2)
               for i in range(DIM) for j in range(i, DIM))


# Bunch–Kaufman's α: a pivot d, the largest |diagonal| entry, no smaller
# than α times the other entries of its row keeps each Schur complement's
# entries within (1 + 1/α²) times the matrix's
_PIVOT_ALPHA = (1 + math.sqrt(17)) / 8


def signature(Q, tol=0):
    """Sylvester inertia of a symmetric quadratic form, by symmetric
    elimination: each pivot's sign is one sign of the inertia, and its
    Schur complement M − v·vᵀ/p (v the pivot's column) carries the rest.
    When no diagonal entry serves as a pivot, M[i] += ±M[j] on rows and
    columns makes one of size at least 2·|M[i][j]|.

    Exact entries are eliminated in Python ints over their common
    denominator.  With any float entry, an entry counts as zero when it is
    ≤ tol, an absolute threshold from the caller (`classify` passes ε₂·|ω|²,
    as a Q of rounding noise has no scale of its own): the elimination
    pivots on the largest |diagonal| entry when it is above tol and at
    least α ≈ 0.64 times every other |entry| of its row (Bunch–Kaufman),
    else manufactures a pivot from the largest off-diagonal entry, and
    stops when every remaining entry is zero.  A non-finite float entry
    raises ValueError.
    """
    if any(isinstance(x, float) for row in Q.matrix for x in row):
        return _float_signature(Q.matrix, tol)
    d = math.lcm(*(x.denominator for row in Q.matrix for x in row))
    return _int_signature([[x.numerator * (d // x.denominator) for x in row]
                           for row in Q.matrix])


def _int_signature(M):
    """The inertia of a symmetric matrix of ints, a list of row lists that
    it consumes.  Each pivot's Schur complement is scaled by |pivot|, which
    keeps its inertia and its entries ints, and divided by the gcd of its
    entries."""
    pos = neg = 0
    while M:
        n = len(M)
        piv = next((i for i in range(n) if M[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if M[i][j]),
                        None)
            if pair is None:
                break
            piv = _add_row_col(M, *pair, 1)
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


def _add_row_col(M, i, j, sign):
    """M[i] += sign·M[j] on rows and then columns, a congruence that makes
    M[i][i] = M[i][i] + 2·sign·M[i][j] + M[j][j]; returns i."""
    for c in range(len(M)):
        M[i][c] += sign * M[j][c]
    for c in range(len(M)):
        M[c][i] += sign * M[c][j]
    return i


def _float_signature(M, zero):
    """The float branch of `signature`, entries ≤ zero counting as 0."""
    M = [list(map(float, row)) for row in M]  # a float Q may hold exact zeros
    flat = [x for row in M for x in row]
    # a sum is finite only if every entry is; one that overflows is rechecked
    if not math.isfinite(sum(flat)) and not all(map(math.isfinite, flat)):
        raise ValueError("signature of a form with a non-finite entry")
    pos = neg = 0
    while M:
        diag = [abs(row[k]) for k, row in enumerate(M)]
        d = max(diag)
        piv = diag.index(d)
        # d < α·max|row| only if some other entry of the row exceeds d/α
        if d <= zero or d < _PIVOT_ALPHA * max(map(abs, M[piv])):
            off, i, j = max(((abs(M[i][j]), i, j) for i in range(len(M))
                             for j in range(i + 1, len(M))), default=(0.0, 0, 0))
            if off <= zero:
                break
            # the sign that adds 2·|M[i][j]| to |M[i][i] + M[j][j]|
            piv = _add_row_col(M, i, j, 1 if (M[i][i] + M[j][j] >= 0) == (M[i][j] > 0)
                               else -1)
        row = M.pop(piv)
        p = row.pop(piv)
        if p > 0:
            pos += 1
        else:
            neg += 1
        # the Schur complement M − v·vᵀ/p, v = row
        cs = [r.pop(piv) / p for r in M]
        M = [[m - c * b for m, b in zip(r, row)] for r, c in zip(M, cs)]
    return Signature(pos, neg, len(M))


def char_pencil(omega, s, X):
    """Expand (i_Xω − ξΩ)³ / Ω³ as a cubic in ξ.

    For effective ω this equals −ξ³ + q_ω(X)·ξ, the polynomial form of the
    characteristic-root identity.
    """
    if omega.grade != 3:
        raise ValueError("char_pencil takes a 3-form")
    phi = interior_vector(X, omega)
    O = s.omega
    top = -6 * s.theta.coeffs[0]  # Ω³ = −6θ
    c0 = wedge(wedge(phi, phi), phi).coeffs[0] / top
    c1 = -3 * s.pencil_table(phi.coeffs)[0]
    c2 = 3 * wedge(wedge(phi, O), O).coeffs[0] / top
    c3 = -1 if not isinstance(c0, float) else -1.0
    return CubicPencil(c3, c2, c1, c0)


def in_sp3(K, s):
    """True iff Ω(KX, Y) + Ω(X, KY) = 0 for all X, Y, i.e. Kᵀ A + A K = 0:
    as A is antisymmetric, iff M = KᵀA is symmetric."""
    M = _kt_a(K, s.matrix)
    return all(M[i][j] == M[j][i] for i in range(DIM) for j in range(i + 1, DIM))
