"""The K-map of a 3-form, its pfaffian, duality, and the decomposable
splitting in both branches."""

import random
from fractions import Fraction

import pytest

from ma6.exterior import ExactComplex, KForm, interior_vector, wedge
from ma6.hitchin import (
    DegenerateFormError,
    ExactnessError,
    a_iso,
    dual_form,
    hitchin_k,
    is_decomposable,
    k_squared,
    pfaffian,
    split_pair,
    theta_pairing,
)
from ma6.symplectic import standard_space

from conftest import rand_form


def test_k_anchor_product_structure(space):
    """K of dq123 + dp123 is the product structure diag(1,1,1,−1,−1,−1)."""
    omega = KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6)
    K = hitchin_k(omega, space)
    expected = [[(1 if i < 3 else -1) if i == j else 0 for j in range(6)]
                for i in range(6)]
    assert K == expected
    assert pfaffian(omega, space) == 1


def reference_hitchin_k(omega, theta):
    """K from its definition K(e_j)θ = A(i_{e_j}ω ∧ ω), column by column."""
    cols = []
    for j in range(6):
        ej = [0] * 6
        ej[j] = 1
        cols.append(a_iso(wedge(interior_vector(ej, omega), omega), theta))
    return [[cols[j][i] for j in range(6)] for i in range(6)]


def test_k_table_matches_definition(space, other_space, rng):
    """On 200 rational forms, alternating between two spaces: exact K equals
    its definition; float K is all floats, within 1e-12·(1+|ω|)² of it."""
    for n in range(200):
        s = space if n % 2 else other_space
        omega = rand_form(rng, 3)
        ref = reference_hitchin_k(omega, s)
        assert hitchin_k(omega, s) == ref
        f = KForm(3, [float(c) for c in omega.coeffs])
        tol = 1e-12 * (1 + f.max_abs()) ** 2
        for row, ref_row in zip(hitchin_k(f, s), ref):
            for e, r in zip(row, ref_row):
                assert isinstance(e, float)
                assert abs(e - r) <= tol


def test_k_squared_is_lambda_id(space, rng):
    for _ in range(60):
        omega = rand_form(rng, 3)
        lam = pfaffian(omega, space)
        K2 = k_squared(omega, space)
        for i in range(6):
            for j in range(6):
                assert K2[i][j] == (lam if i == j else 0)


def test_pfaffian_scaling(space, rng):
    """λ(cω) = c⁴λ(ω)."""
    omega = rand_form(rng, 3)
    c = Fraction(3, 2)
    assert pfaffian(omega * c, space) == c ** 4 * pfaffian(omega, space)


def test_decomposable_forms_have_zero_k(space, rng):
    omega = KForm.basis(1, 2, 3)
    assert is_decomposable(omega, space)
    # wedge of three random 1-forms is decomposable
    a, b, c = (rand_form(rng, 1) for _ in range(3))
    assert is_decomposable(wedge(wedge(a, b), c), space)
    assert not is_decomposable(KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6), space)


def test_hyperbolic_split_exact(space):
    omega = KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6, scale=Fraction(16))
    sp = split_pair(omega, space)
    assert sp.branch == "hyperbolic"
    assert sp.alpha + sp.beta == omega
    assert is_decomposable(sp.alpha, space)
    assert is_decomposable(sp.beta, space)
    orient = wedge(sp.alpha, sp.beta).coeffs[0] / space.theta.coeffs[0]
    assert orient > 0


def test_elliptic_split_exact(space):
    """The definite normal form splits as α + ᾱ with α complex decomposable."""
    omega = (KForm.basis(2, 3, 4) - KForm.basis(1, 3, 5) + KForm.basis(1, 2, 6)
             - KForm.basis(4, 5, 6, scale=Fraction(1, 4)))
    assert pfaffian(omega, space) == -1
    sp = split_pair(omega, space)
    assert sp.branch == "elliptic"
    assert sp.alpha + sp.beta == omega
    assert sp.beta == sp.alpha.conjugate()
    assert is_decomposable(sp.alpha, space)
    ratio = wedge(sp.alpha, sp.beta).coeffs[0] / space.theta.coeffs[0]
    assert isinstance(ratio, ExactComplex) and ratio.re == 0 and ratio.im > 0


def test_split_random_float(space, rng):
    """Random nondegenerate forms split on the float backend."""
    done = 0
    while done < 30:
        omega = rand_form(rng, 3)
        lam = pfaffian(omega, space)
        if lam == 0:
            continue
        done += 1
        f = KForm(3, [float(c) for c in omega.coeffs])
        sp = split_pair(f, space)
        scale = 1 + f.max_abs()
        assert (sp.alpha + sp.beta - f).max_abs() < 1e-9 * scale
        assert is_decomposable(sp.alpha, space)
        assert is_decomposable(sp.beta, space)


def test_dual_form_involution_sign(space):
    """ω̂ = α − β, so the dual of the dual is ω back (hyperbolic)."""
    omega = KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6, scale=Fraction(16))
    dual = dual_form(omega, space)
    sp = split_pair(omega, space)
    assert dual == sp.alpha - sp.beta or dual == sp.beta - sp.alpha


def test_exactness_error_for_irrational_root(space):
    # this elliptic form has λ = −2, whose square root is irrational
    omega = (KForm.basis(2, 3, 4) - KForm.basis(1, 3, 5) + KForm.basis(1, 2, 6)
             - KForm.basis(4, 5, 6, scale=Fraction(1, 2)))
    assert pfaffian(omega, space) == -2
    with pytest.raises(ExactnessError):
        split_pair(omega, space)
    # the float backend handles it
    f = KForm(3, [float(c) for c in omega.coeffs])
    sp = split_pair(f, space)
    assert (sp.alpha + sp.beta - f).max_abs() < 1e-9


def test_degenerate_split_raises(space):
    with pytest.raises(DegenerateFormError):
        split_pair(KForm.basis(2, 3, 4), space)


def test_theta_pairing_symmetric_on_3forms(space, rng):
    """3-forms wedge-commute in even total degree... here 3·3 = 9 ≡ odd, so
    the pairing is antisymmetric."""
    a, b = rand_form(rng, 3), rand_form(rng, 3)
    assert theta_pairing(a, b, space) == -theta_pairing(b, a, space)
