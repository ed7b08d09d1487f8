"""Symplectic structure: ⊤/⊥ operators, effectiveness, and the effective
decomposition of forms of grade ≤ 3."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ma6.exterior import KForm, interior_vector, wedge
from ma6.symplectic import (
    DegenerateError,
    EffectivenessError,
    SymplecticSpace,
    bot,
    hll_decompose,
    is_effective,
    project_effective,
    standard_space,
    top,
)

from conftest import rand_form


def test_omega_conventions(space):
    # Ω = Σ dq_i ∧ dp_i and Ω³ = −6θ
    assert space.omega == (KForm.basis(1, 4) + KForm.basis(2, 5)
                           + KForm.basis(3, 6))
    assert wedge(wedge(space.omega, space.omega), space.omega) == \
        space.theta * (-6)


def test_bot_top_commutator(space, rng):
    """[⊥, ⊤] = (3 − k)·Id on k-forms, the calibration identity for ⊥."""
    for k in (2, 3):
        form = rand_form(rng, k)
        lhs = bot(space, top(space, form)) - top(space, bot(space, form))
        assert lhs == form * (3 - k)
    for k in (0, 1):  # ⊥ kills grades < 2, so the commutator is ⊥∘⊤
        form = rand_form(rng, k)
        assert bot(space, top(space, form)) == form * (3 - k)


def test_bot_of_omega_is_three(space):
    assert bot(space, space.omega) == KForm(0, [Fraction(3)])


def test_bot_calibration_is_checked(monkeypatch):
    """A miscalibrated ⊥ is rejected by a raised error, not an assert, so
    the check survives python -O."""
    import ma6.symplectic

    contract = ma6.symplectic.interior_bivector
    monkeypatch.setattr(ma6.symplectic, "interior_bivector",
                        lambda B, omega: contract(B, omega) * 2)
    with pytest.raises(DegenerateError, match="calibration"):
        standard_space()


def test_effective_iff_wedge_omega_vanishes(space, rng):
    """For 3-forms, ⊥ω = 0 exactly when ω ∧ Ω = 0."""
    for _ in range(25):
        form = rand_form(rng, 3)
        assert is_effective(space, form) == wedge(form, space.omega).is_zero()


def test_hll_reconstruction_and_effectiveness(space, rng):
    for k in (2, 3):
        for _ in range(25):
            form = rand_form(rng, k)
            w0, w1 = hll_decompose(space, form)
            assert w0 + top(space, w1) == form
            assert is_effective(space, w0)
            assert is_effective(space, w1)


def test_hll_of_top_is_pure(space, rng):
    """hll(⊤η) = (0, η) for effective η of grade 1."""
    for _ in range(10):
        eta = rand_form(rng, 1)  # all 1-forms are effective
        w0, w1 = hll_decompose(space, top(space, eta))
        assert w0.is_zero()
        assert w1 == eta


def test_project_effective(space, rng):
    form = rand_form(rng, 3)
    eff = project_effective(space, form)
    assert is_effective(space, eff)
    # the discarded part is ⊤ of the grade-1 component
    w0, w1 = hll_decompose(space, form)
    assert eff == w0


def test_effectiveness_error(space):
    from ma6.lr import q_form

    with pytest.raises(EffectivenessError):
        q_form(KForm.basis(1, 2, 4), space)  # dq1∧dq2∧dp1 is not effective


def float_space_error(g):
    """For Ω = gᵀΩ0g, the pullback of the standard form by g: the largest
    deviation of the float space's X_Ω from the exact one, relative to the
    largest exact coefficient and divided by the condition number of Ω's
    matrix.  None when g is singular."""
    omega0 = standard_space().omega
    try:
        exact = SymplecticSpace(omega0.pullback(g))
    except DegenerateError:
        return None
    s = SymplecticSpace(omega0.pullback([[float(x) for x in row] for row in g]))
    want = [float(x) for x in exact.x_omega.coeffs]
    err = max(abs(a - b) for a, b in zip(s.x_omega.coeffs, want)) / max(map(abs, want))
    return err / np.linalg.cond(np.array(s.matrix, dtype=float))


def test_float_space_pivots():
    """A float Ω whose exact inverse meets a zero pivot: without pivoting on
    the largest entry, a rounding residue was taken as the pivot and the
    space raised "⊥ calibration failed: ⊥Ω = 9.3958…" (computed as
    (gᵀΩ0)g) or "matrix is singular" (as a pullback).  The condition number
    of Ω is 25."""
    g = [[1, -1, 0, 0, Fraction(-2, 3), -1], [Fraction(-1, 2), 1, 1, -1, 2, 3],
         [-2, -1, -1, 0, 3, 2], [Fraction(2, 3), 0, 2, Fraction(3, 2), -3, -1],
         [-1, -2, Fraction(2, 3), 3, 1, 0], [0, Fraction(-1, 2), Fraction(3, 2), 1, -1, -2]]
    assert float_space_error(g) <= 1e-14


def test_float_spaces_match_exact():
    """999 seeded g with entries in ±{0, 1/2, 2/3, 1, 3/2, 2, 3}: every
    float space builds, and its X_Ω is within 1e-14·cond(Ω) of the exact
    one, relative (measured: at most 1.4e-16·cond(Ω)).  Without pivoting
    on the largest entry, 825 of them raised."""
    entries = [0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2, 3]
    for seed in range(999):
        rng = random.Random(seed)
        g = [[rng.choice(entries) * rng.choice((1, -1)) for _ in range(6)]
             for _ in range(6)]
        err = float_space_error(g)
        assert err is None or err <= 1e-14, seed


def test_space_stores_cleared_matrix_and_x_omega(space, other_space, negative_space):
    """A rational space keeps the nonzero entries of A′, Ω's matrix over its
    common denominator, and the numerators of X_Ω over theirs; a float space
    keeps neither.  An Ω of ints is inverted in Fractions, so its X_Ω is
    exact too (it used to be floats)."""
    for s in (space, other_space, negative_space):
        e = math.lcm(*(Fraction(a).denominator for row in s.matrix for a in row))
        assert s.matrix_terms == tuple((k, j, a * e) for k, row in enumerate(s.matrix)
                                       for j, a in enumerate(row) if a)
        d = math.lcm(*(Fraction(x).denominator for x in s.x_omega.coeffs))
        assert s.x_omega_ints == tuple(x * d for x in s.x_omega.coeffs)
    ints = SymplecticSpace(KForm(2, [int(2 * c) for c in other_space.omega.coeffs]))
    assert all(isinstance(x, (int, Fraction)) for x in ints.x_omega.coeffs)
    assert ints.x_omega.coeffs == tuple(x / 2 for x in other_space.x_omega.coeffs)
    floats = SymplecticSpace(KForm(2, [float(c) for c in other_space.omega.coeffs]))
    assert floats.matrix_terms is None and floats.x_omega_ints is None


def test_pencil_table_is_the_wedge_quotient(space, other_space):
    """T(φ, ψ) = (φ ∧ ψ ∧ Ω)/Ω³ exactly on rational spaces, and to rounding
    on a float space, for random 2-forms φ, ψ."""
    rng = random.Random(7)
    floats = SymplecticSpace(KForm(2, [float(c) for c in other_space.omega.coeffs]))
    for s in (space, other_space, floats):
        top = wedge(wedge(s.omega, s.omega), s.omega).coeffs[0]
        for _ in range(5):
            phi, psi = rand_form(rng, 2), rand_form(rng, 2)
            want = wedge(wedge(phi, psi), s.omega).coeffs[0] / top
            if s is floats:
                phi, psi = (KForm(2, [float(c) for c in f.coeffs]) for f in (phi, psi))
                assert s.pencil_table(phi.coeffs, psi.coeffs)[0] == pytest.approx(want,
                                                                                   rel=1e-12)
            else:
                assert s.pencil_table(phi.coeffs, psi.coeffs) == (want,)


def test_pencil_q_table_composes_interior_and_pencil(space, other_space):
    """Entry 6a + b of the q table at ω is −3·T(i_{e_a}ω, i_{e_b}ω): exactly
    on rational spaces and forms, and to rounding on a float space."""
    rng = random.Random(8)
    floats = SymplecticSpace(KForm(2, [float(c) for c in other_space.omega.coeffs]))
    for s in (space, other_space, floats):
        for _ in range(3):
            omega = rand_form(rng, 3)
            if s is floats:
                omega = KForm(3, [float(c) for c in omega.coeffs])
            phis = [interior_vector([int(i == a) for i in range(6)], omega).coeffs
                    for a in range(6)]
            want = [-3 * s.pencil_table(phis[a], phis[b])[0]
                    for a in range(6) for b in range(6)]
            got = s.pencil_q_table(omega.coeffs)
            if s is floats:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            else:
                assert list(got) == want
