"""The quadratic invariant, its compatibility with the K-map, Sylvester
signatures, the characteristic pencil, and sp(3) membership."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma6.exterior import KForm, interior_vector, wedge
from ma6.hitchin import _k_table, hitchin_k
import ma6.lr
from ma6.classify import table1_form
from ma6.lr import (
    COMPAT_SCALE,
    QuadForm6,
    Signature,
    char_pencil,
    compat_q_k,
    in_sp3,
    q_form,
    q_matrices,
    signature,
)
from ma6.symplectic import EffectivenessError, bot, is_effective, project_effective, top

from conftest import (
    rand_effective,
    rand_form,
    rand_vector,
    reference_signature,
    sheared_float_form,
)


def test_q_of_product_anchor(space):
    """q of dq123 + dp123 is the split form Σ dq_i·dp_i (signature (3,3))."""
    omega = KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6)
    Q = q_form(omega, space)
    sig = signature(Q)
    assert (sig.pos, sig.neg) == (3, 3)
    X = [1, 2, 3, 4, 5, 6]
    assert Q(X) == 1 * 4 + 2 * 5 + 3 * 6


def reference_q(omega, s):
    """Q from its definition Q_ab = −¼⊥²(i_{e_a}ω ∧ i_{e_b}ω)."""
    contr = [interior_vector([1 if i == a else 0 for i in range(6)], omega)
             for a in range(6)]
    Q = [[None] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(a, 6):
            v = Fraction(-1, 4) * bot(s, bot(s, wedge(contr[a], contr[b]))).coeffs[0]
            Q[a][b] = Q[b][a] = v
    return Q


def test_q_form_matches_definition(space, other_space, rng):
    """On 200 rational effective forms, alternating between two spaces:
    exact Q equals its definition; float Q is all floats, within
    1e-12·(1+|ω|)² of it."""
    for n in range(200):
        s = space if n % 2 else other_space
        omega = rand_effective(rng, s)
        ref = reference_q(omega, s)
        assert [list(row) for row in q_form(omega, s).matrix] == ref
        f = KForm(3, [float(c) for c in omega.coeffs])
        scale = 1 + f.max_abs()
        Qf = q_form(f, s, tol=1e-9 * scale)
        for row, ref_row in zip(Qf.matrix, ref):
            for e, r in zip(row, ref_row):
                assert isinstance(e, float)
                assert abs(e - r) <= 1e-12 * scale ** 2


def test_q_form_matches_sympy_expansion(space, other_space):
    """On the effective projection of a symbolic ω with 20 coefficients, over
    both spaces, q_form (read off K) has the same polynomial entries as the
    reference definition of Q."""
    sympy = pytest.importorskip("sympy")
    w = sympy.symbols("w0:20")
    for s in (space, other_space):
        omega = project_effective(s, KForm(3, w))
        ref = reference_q(omega, s)
        Q = q_form(omega, s).matrix
        for a in range(6):
            for b in range(a, 6):
                got = sympy.Poly(Q[a][b], *w).as_dict()
                assert got == sympy.Poly(ref[a][b], *w).as_dict()


def test_table_batch_matches_call(rng):
    """QuadraticTable.batch on 100 float forms equals the θ·K table
    evaluated form by form."""
    W = np.array([[float(c) for c in rand_form(rng).coeffs] for _ in range(100)])
    table = _k_table()
    batch = table.batch(W)
    for w, row in zip(W, batch):
        scale = 1 + np.abs(w).max()
        assert np.abs(row - table([float(c) for c in w])).max() <= 1e-12 * scale ** 2
        assert list(row) == list(table([float(c) for c in w]))


def test_q_matrices_match_q_form(space, other_space, rng):
    """The batched q of 100 random effective float forms per space equals
    q_form's matrix on each."""
    for s in (space, other_space):
        forms = [KForm(3, [float(c) for c in rand_effective(rng, s).coeffs])
                 for _ in range(100)]
        batch = q_matrices([f.coeffs for f in forms], s)
        assert batch.shape == (100, 6, 6)
        for f, Q in zip(forms, batch):
            ref = q_form(f, s, tol=1e-9 * (1 + f.max_abs())).matrix
            assert np.abs(Q - np.array(ref)).max() <= 1e-12 * (1 + f.max_abs()) ** 2


def test_q_matrices_guard_matches_q_form(space, other_space, rng):
    """Off an effective form by a non-effective direction scaled to k times
    the guard's tolerance, the batched guard raises exactly where q_form's
    does, one form at a time and anywhere in a batch."""
    for s in (space, other_space):
        omega = KForm(3, [float(c) for c in rand_effective(rng, s).coeffs])
        n = KForm.basis(1, 2, 4, scale=1.0)
        tol = 1e-9 * (1 + omega.max_abs())
        for k in (0.5, 0.9, 1.1, 2.0, 1e6):
            f = omega + n * (k * tol / bot(s, n).max_abs())
            try:
                q_form(f, s, tol=1e-9 * (1 + f.max_abs()))
                raised = False
            except EffectivenessError:
                raised = True
            assert raised == (k > 1)
            for rows in ([f.coeffs], [omega.coeffs, f.coeffs, omega.coeffs]):
                if raised:
                    with pytest.raises(EffectivenessError):
                        q_matrices(rows, s)
                else:
                    q_matrices(rows, s)


def test_compatibility_identity_exact(space, rng):
    """2·q_ω(X) = Ω(K_ωX, X) exactly on random effective forms."""
    assert COMPAT_SCALE == 2
    for _ in range(40):
        omega = rand_effective(rng, space)
        assert compat_q_k(omega, space) == 0


def test_compat_q_k_reads_q_off_the_pencil(space, other_space, rng, monkeypatch):
    """compat_q_k takes q from the characteristic pencil, not from q_form
    (which reads q off K): it is 0 with q_form disabled, and nonzero for a
    wrong K = 2·K_ω."""
    def no_q_form(*args, **kwargs):
        raise AssertionError("compat_q_k must not call q_form")

    monkeypatch.setattr(ma6.lr, "q_form", no_q_form)
    for s in (space, other_space):
        for _ in range(5):
            omega = rand_effective(rng, s)
            K = hitchin_k(omega, s)
            assert compat_q_k(omega, s) == 0
            assert compat_q_k(omega, s, K=[[2 * e for e in row] for row in K]) != 0


def test_compat_bilinear_evaluation(space, rng):
    omega = rand_effective(rng, space)
    Q = q_form(omega, space)
    K = hitchin_k(omega, space)
    for _ in range(5):
        X = rand_vector(rng)
        KX = [sum(K[i][j] * X[j] for j in range(6)) for i in range(6)]
        assert COMPAT_SCALE * Q(X) == space.omega.evaluate(KX, X)


def test_signature_exact_vs_float(rng):
    import numpy as np

    for _ in range(10):
        M = [[Fraction(rng.randint(-4, 4)) for _ in range(6)] for _ in range(6)]
        M = [[M[i][j] + M[j][i] for j in range(6)] for i in range(6)]
        Q = QuadForm6(tuple(tuple(r) for r in M))
        sig = signature(Q)
        eig = np.linalg.eigvalsh(np.array(M, dtype=float))
        assert sig.pos == int((eig > 1e-9).sum())
        assert sig.neg == int((eig < -1e-9).sum())


_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _symmetric_rational(draw):
    """A symmetric 6×6 rational matrix Σ_k s_k·v_k·v_kᵀ of rank ≤ r, for
    r = 0..6 and s_k = ±1, with its diagonal zeroed when asked."""
    r = draw(st.integers(0, 6))
    M = [[Fraction(0)] * 6 for _ in range(6)]
    for _ in range(r):
        v = draw(st.lists(_rationals, min_size=6, max_size=6))
        sign = draw(st.sampled_from([1, -1]))
        for i in range(6):
            for j in range(6):
                M[i][j] += sign * v[i] * v[j]
    if draw(st.booleans()):
        for i in range(6):
            M[i][i] = Fraction(0)
    return QuadForm6(tuple(map(tuple, M)))


@settings(max_examples=300, deadline=None)
@given(Q=_symmetric_rational())
def test_signature_matches_fraction_elimination(Q):
    """The int elimination of signature gives the inertia of the Fraction
    congruence diagonalization, on matrices of every rank 0-6, with and
    without a zero diagonal."""
    assert signature(Q) == reference_signature(Q)


def eigvalsh_signature(Q, tol=1e-9):
    """The eigenvalue rule for float inertia: signs of the eigenvalues
    beyond tol·max(1, max|eigenvalue|)."""
    eig = np.linalg.eigvalsh(np.array(Q.matrix, dtype=float))
    scale = max(1.0, float(np.abs(eig).max()))
    pos = int((eig > tol * scale).sum())
    neg = int((eig < -tol * scale).sum())
    return Signature(pos, neg, 6 - pos - neg)


@st.composite
def _rotated_diagonal(draw):
    """Uᵀ·diag(d)·U for a random orthogonal U: each d_k is 0 plus noise of
    at most 1e-13, or ±S·10^u with u in [−6, 0], S = 10^k, k in [0, 3]."""
    S = 10.0 ** draw(st.floats(0, 3))
    d = [draw(st.one_of(
        st.floats(-1e-13, 1e-13),
        st.builds(lambda sign, u: sign * S * 10.0 ** u,
                  st.sampled_from([1.0, -1.0]), st.floats(-6, 0))))
         for _ in range(6)]
    U = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
                     .standard_normal((6, 6)))[0]
    M = U.T @ np.diag(d) @ U
    return QuadForm6(tuple(map(tuple, ((M + M.T) / 2).tolist())))


@settings(max_examples=300, deadline=None)
@given(Q=_rotated_diagonal())
def test_float_signature_matches_eigenvalues(Q):
    """The float elimination reads the inertia the eigenvalues give, with
    zero eigenvalues blurred by rounding and nonzero ones down to 10⁻⁶ of
    the largest."""
    assert signature(Q) == eigvalsh_signature(Q)


def test_float_signature_sheared_table_rows(space):
    """Table rows 1-9 in floats, sheared: the elimination agrees with the
    eigenvalue rule and with the printed signature's rank."""
    rng = random.Random(11)
    for row in range(1, 10):
        for _ in range(5):
            Q = q_form(sheared_float_form(table1_form(row), rng), space)
            assert signature(Q) == eigvalsh_signature(Q), row


def test_float_signature_near_boundary_probe(space):
    """SecondDerivative + 1e-5·Laplace: eigenvalues −1e-5, −1e-5, −1e-10,
    0, 0, 0, the −1e-10 only 10× below the zero threshold 1e-9."""
    omega = (KForm.basis(2, 3, 4, scale=1 + 1e-5) + KForm.basis(1, 3, 5, scale=-1e-5)
             + KForm.basis(1, 2, 6, scale=1e-5))
    Q = q_form(omega, space)
    assert signature(Q) == eigvalsh_signature(Q) == Signature(0, 2, 4)


@pytest.mark.parametrize("delta", [1.1e-9, 1.5e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("c", [0.1, 1 / 3, 0.7, 0.9, 1 / 7, 2 / 3])
def test_float_signature_small_diagonal_pivot(delta, c):
    """Rows (δ, 1, c), (1, 0, 0), (c, 0, 0): rank 2, signature (1, 1).  A
    pivot on δ, above the zero threshold but far below the off-diagonal
    entries, would leave the rank-deficient complement −c²/δ + c²/δ with
    rounding above the threshold; the pivot made from the off-diagonal 1
    does not."""
    M = [[0.0] * 6 for _ in range(6)]
    M[0][0] = delta
    M[0][1] = M[1][0] = 1.0
    M[0][2] = M[2][0] = c
    Q = QuadForm6(tuple(map(tuple, M)))
    assert signature(Q) == eigvalsh_signature(Q) == Signature(1, 1, 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_float_signature_non_finite_raises(bad):
    M = [[float(i == j) for j in range(6)] for i in range(6)]
    M[2][4] = M[4][2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        signature(QuadForm6(tuple(map(tuple, M))))


def test_char_pencil_coefficients(space, rng):
    """(i_Xω − ξΩ)³/Ω³ = −ξ³ + q_ω(X)·ξ for effective ω."""
    for _ in range(25):
        omega = rand_effective(rng, space)
        X = rand_vector(rng)
        p = char_pencil(omega, space, X)
        Q = q_form(omega, space)
        assert (p.c3, p.c2, p.c1, p.c0) == (-1, 0, Q(X), 0)


def test_effective_iff_k_in_sp3(space, rng):
    for _ in range(25):
        omega = rand_effective(rng, space)
        assert in_sp3(hitchin_k(omega, space), space)
        eta = rand_form(rng, 1)
        if eta.is_zero():
            continue
        bad = omega + top(space, eta)
        if is_effective(space, bad):
            continue
        assert not in_sp3(hitchin_k(bad, space), space)
