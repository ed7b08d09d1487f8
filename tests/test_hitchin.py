"""The K-map of a 3-form, its pfaffian, duality, and the decomposable
splitting in both branches."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma6.classify import build_gcy, classify, table1_form
from ma6.exterior import (
    COMBS,
    POS,
    ExactComplex,
    KForm,
    interior_vector,
    merge_sign,
    rational_sqrt,
    wedge,
)
from ma6.hitchin import (
    DegenerateFormError,
    ExactnessError,
    _derivation_table,
    _k_table,
    dual_form,
    hitchin_k,
    is_decomposable,
    k_squared,
    pfaffian,
    split_pair,
    theta_pairing,
)
from ma6.symplectic import _mat_inverse, standard_space

from conftest import rand_form, sheared_float_form


def test_k_anchor_product_structure(space):
    """K of dq123 + dp123 is the product structure diag(1,1,1,−1,−1,−1)."""
    omega = KForm.basis(1, 2, 3) + KForm.basis(4, 5, 6)
    K = hitchin_k(omega, space)
    expected = [[(1 if i < 3 else -1) if i == j else 0 for j in range(6)]
                for i in range(6)]
    assert K == expected
    assert pfaffian(omega, space) == 1


def a_iso(psi, space):
    """The vector v with ξ ∧ ψ = ξ(v)·θ for all covectors ξ (ψ of grade 5)."""
    t = space.theta.coeffs[0]
    v = []
    for i in range(1, 7):
        comp = tuple(j for j in range(1, 7) if j != i)
        sign, _ = merge_sign((i,), comp)
        v.append(sign * psi.coeffs[POS[5][comp]] / t)
    return v


def reference_hitchin_k(omega, space):
    """K from its definition K(e_j)θ = A(i_{e_j}ω ∧ ω), column by column."""
    cols = []
    for j in range(6):
        ej = [0] * 6
        ej[j] = 1
        cols.append(a_iso(wedge(interior_vector(ej, omega), omega), space))
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


def test_float_degenerate_form_has_no_split(space):
    """Rows 4-8 moved by float symplectic shears have a float λ of rounding
    size, which classify reads as 0 by the one λ = 0 rule: split_pair,
    dual_form and build_gcy read it the same way and raise, where they used
    to split into pieces of size up to 1e8."""
    rng = random.Random(3)
    for n in range(50):
        omega = sheared_float_form(table1_form(4 + n % 5), rng)
        assert classify(omega, space)[1].lambda_ == 0.0
        for fn in (split_pair, dual_form, build_gcy):
            with pytest.raises(DegenerateFormError):
                fn(omega, space)


def test_theta_pairing_symmetric_on_3forms(space, rng):
    """3-forms wedge-commute in even total degree... here 3·3 = 9 ≡ odd, so
    the pairing is antisymmetric."""
    a, b = rand_form(rng, 3), rand_form(rng, 3)
    assert theta_pairing(a, b, space) == -theta_pairing(b, a, space)


def reference_k_star(omega, K):
    """K*ω(X, Y, Z) = ω(KX, KY, KZ), from the 3x3 minors of K."""
    return omega.pullback(K)


def reference_dual(omega, s):
    """|λ|^(−3/2)·K*ω for rational ω whose |λ| has a rational square root."""
    lam = pfaffian(omega, s)
    return reference_k_star(omega, hitchin_k(omega, s)) * (1 / rational_sqrt(abs(lam)) ** 3)


def rand_matrix(rng):
    return [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
            for _ in range(6)]


def square_lambda_form(rng, s):
    """g*ω for a table row 1-3 with random p and a random rational g: λ is
    ±p⁴·det(g)² over the square of θ's coefficient, so |λ| has a rational
    square root, while the form is otherwise generic (not effective)."""
    while True:
        row, p = rng.randint(1, 3), Fraction(rng.randint(1, 4), rng.randint(1, 3))
        omega = table1_form(row, p).pullback(rand_matrix(rng))
        if pfaffian(omega, s) != 0:
            return omega


def test_dual_and_split_match_k_star(space, other_space, rng):
    """On 200 rational forms, alternating between two spaces: dual_form is
    |λ|^(−3/2)·K*ω exactly, and split_pair gives (ω ± ω̂)/2 or
    (ω ± iω̂)/2."""
    half, i_unit = Fraction(1, 2), ExactComplex(0, 1)
    for n in range(200):
        s = space if n % 2 else other_space
        omega = square_lambda_form(rng, s)
        ref = reference_dual(omega, s)
        assert dual_form(omega, s) == ref
        sp = split_pair(omega, s)
        if sp.branch == "elliptic":
            ref = ref * i_unit
        assert {sp.alpha, sp.beta} == {(omega + ref) * half, (omega - ref) * half}


def test_float_dual_matches_k_star(space, other_space, rng):
    """On 200 random rational forms in floats, alternating between two
    spaces, dual_form is within 1e-11·(1+|ω|) of the exact K*ω scaled by
    |λ|^(−3/2)."""
    for n in range(200):
        s = space if n % 2 else other_space
        omega = rand_form(rng, 3)
        lam = pfaffian(omega, s)
        if lam == 0:
            continue
        ref = reference_k_star(omega, hitchin_k(omega, s)) * (1 / float(abs(lam)) ** 1.5)
        f = KForm(3, [float(c) for c in omega.coeffs])
        dual = dual_form(f, s)
        assert all(isinstance(c, float) for c in dual.coeffs)
        assert (dual - ref).max_abs() <= 1e-11 * (1 + f.max_abs())


def test_dual_on_table_rows(space):
    """Rows 1-3 are nondegenerate and match |λ|^(−3/2)·K*ω; on the
    degenerate rows 4-9 K*ω = 0 and there is no dual."""
    for row in range(1, 10):
        for p in (Fraction(1), Fraction(3, 2)):
            omega = table1_form(row, p)
            if row <= 3:
                assert dual_form(omega, space) == reference_dual(omega, space)
                continue
            assert reference_k_star(omega, hitchin_k(omega, space)).is_zero()
            with pytest.raises(DegenerateFormError):
                dual_form(omega, space)
            with pytest.raises(DegenerateFormError):
                split_pair(omega, space)


def test_dual_makes_no_pullback(space, monkeypatch):
    """dual_form, split_pair and build_gcy take K*ω from the derivation
    action of K, not from the 3x3 minors of KForm.pullback."""
    forms = [table1_form(row, Fraction(3, 2)) for row in (1, 2, 3)]
    forms += [KForm(3, [float(c) for c in w.coeffs]) for w in forms]
    calls = []
    pullback = KForm.pullback

    def counting_pullback(self, matrix):
        calls.append(matrix)
        return pullback(self, matrix)

    monkeypatch.setattr(KForm, "pullback", counting_pullback)
    for omega in forms:
        dual_form(omega, space)
        split_pair(omega, space)
        build_gcy(omega, space)
    assert calls == []


def reference_k_dot(omega, K):
    """K·ω(X, Y, Z) = ω(KX, Y, Z) + ω(X, KY, Z) + ω(X, Y, KZ) on the basis
    triples, as a coefficient list."""
    e = [[int(i == j) for i in range(6)] for j in range(6)]
    Ke = [[K[i][j] for i in range(6)] for j in range(6)]  # Ke[j] = K(e_j)
    out = []
    for A in COMBS[3]:
        a, b, c = (i - 1 for i in A)
        out.append(omega.evaluate(Ke[a], e[b], e[c]) + omega.evaluate(e[a], Ke[b], e[c])
                   + omega.evaluate(e[a], e[b], Ke[c]))
    return out


def test_tables_match_sympy_expansion(space, other_space):
    """On a symbolic ω with 20 coefficients, over both spaces: the K table
    and the derivation table, expanded, have the same coefficients as the
    reference definitions of K and of K·ω with that K."""
    sympy = pytest.importorskip("sympy")
    w = sympy.symbols("w0:20")
    omega = KForm(3, w)

    def coeffs(expr):
        return sympy.Poly(expr, *w).as_dict()

    for s in (space, other_space):
        t = s.theta.coeffs[0]
        K = reference_hitchin_k(omega, s)
        table_k = _k_table()(w)
        assert [coeffs(c / t) for c in table_k] == [coeffs(e) for row in K for e in row]
        table_dot = _derivation_table()([e for row in K for e in row], w)
        assert [coeffs(c) for c in table_dot] == [coeffs(c) for c in reference_k_dot(omega, K)]


def test_bilinear_batch_matches_call(space, rng):
    """The derivation table's batch on 100 float pairs (K, ω) equals the
    table evaluated pair by pair, bitwise."""
    forms = [[float(c) for c in rand_form(rng).coeffs] for _ in range(100)]
    Ks = [[float(e) for row in hitchin_k(rand_form(rng), space) for e in row]
          for _ in range(100)]
    batch = _derivation_table().batch(np.array(Ks), np.array(forms))
    assert batch.shape == (100, 20)
    for k, w, row in zip(Ks, forms, batch):
        assert list(row) == list(_derivation_table()(k, w))


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(6)) for j in range(6)] for i in range(6)]


def _shear(S, upper):
    """[[I, S], [0, I]] (upper) or [[I, 0], [S, I]], S symmetric 3x3 given
    by its upper triangle."""
    G = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    for (i, j), c in zip(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)), S):
        for a, b in ((i, j), (j, i)):
            if upper:
                G[a][3 + b] = c
            else:
                G[3 + a][b] = c
    return G


_sym3 = st.lists(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
                 min_size=6, max_size=6)


@settings(max_examples=30, deadline=None)
@given(row=st.integers(1, 9), p=st.builds(Fraction, st.integers(1, 3), st.integers(1, 3)),
       upper=_sym3, lower=_sym3)
def test_k_is_equivariant_under_symplectic_maps(space, row, p, upper, lower):
    """K(g*ω) = g⁻¹K(ω)g exactly, g*ω = ω.pullback(g), for g the product
    of an upper and a lower shear, which has gᵀAg = A, and ω a row of the
    classification table."""
    g = _mat_mul(_shear(upper, True), _shear(lower, False))
    A = space.matrix
    assert _mat_mul(_mat_mul([list(c) for c in zip(*g)], A), g) == A
    omega = table1_form(row, p)
    want = _mat_mul(_mat_mul(_mat_inverse(g), hitchin_k(omega, space)), g)
    assert hitchin_k(omega.pullback(g), space) == want
