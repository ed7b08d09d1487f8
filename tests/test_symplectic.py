"""Symplectic structure: ⊤/⊥ operators, effectiveness, and the effective
decomposition of forms of grade ≤ 3."""

import pytest
from fractions import Fraction

from ma6.exterior import KForm, wedge
from ma6.symplectic import (
    DegenerateError,
    EffectivenessError,
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
