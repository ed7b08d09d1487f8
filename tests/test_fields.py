"""Variable-coefficient forms: exterior derivative (exact and numeric),
pullbacks, the Monge-Ampère operator, and the structure checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma6.classify import table1_form
from ma6.documents import parse_field
from ma6.exterior import COMBS, POS, KForm, QuadraticTable, dim_grade, merge_sign
from ma6.fields import (
    DEFAULT_H,
    DEFAULT_TOL,
    BranchChangeError,
    DegeneratePointError,
    DiffeoMap,
    FormField,
    MetricField,
    SectionMap,
    _rank,
    _worst,
    check_generalized_solution,
    closedness_check,
    d_exact,
    d_numeric,
    flatness_check,
    gcy_integrability_check,
    is_symplectomorphism,
    lambda_field,
    ma_operator,
    pullback_field_poly,
    riemann,
    sample_box,
    Submanifold3,
)
from ma6.hitchin import _k_table, _split, dual_form, pfaffian
from ma6.poly import Poly

from conftest import rand_fraction


def rand_poly(rng, deg=2, nt=3):
    p = Poly({})
    for _ in range(nt):
        e = [0] * 6
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, 5)] += 1
        p = p + Poly({tuple(e): Fraction(rng.randint(-3, 3))})
    return p


def test_d_squared_zero_exact(rng):
    for k in (0, 1, 2, 3):
        fld = FormField(k, [rand_poly(rng) for _ in range(dim_grade(k))])
        dd = d_exact(d_exact(fld))
        assert all(p.is_zero() for p in dd.coeffs)


def test_d_numeric_matches_d_exact(rng):
    for k in (0, 1, 2, 3):
        fld = FormField(k, [rand_poly(rng) for _ in range(dim_grade(k))])
        x = [rng.uniform(-1, 1) for _ in range(6)]
        de = d_exact(fld).evaluate(x)
        diff = d_numeric(fld, x) - KForm(k + 1, [float(c) for c in de.coeffs])
        assert diff.max_abs() < 1e-6 * (1 + de.max_abs())


def test_liouville_form_differential():
    """d(Σ p_i dq_i) = Σ dp_i∧dq_i = −Ω."""
    from ma6.symplectic import standard_space

    s = standard_space()
    p1, p2, p3 = Poly.var(3), Poly.var(4), Poly.var(5)
    liouville = FormField(1, [p1, p2, p3, Poly({}), Poly({}), Poly({})])
    d = d_exact(liouville)
    assert d.evaluate([0] * 6) == s.omega * (-1)


def test_symbolic_pullback_matches_pointwise(rng):
    phi = DiffeoMap([rand_poly(rng, deg=1) for _ in range(6)])
    fld = FormField(3, [rand_poly(rng, deg=1, nt=2) for _ in range(20)])
    pb = pullback_field_poly(phi, fld)
    for _ in range(3):
        x = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(6)]
        J = phi.jacobian(x)
        assert pb.evaluate(x) == fld.evaluate(phi(x)).pullback(J)


def test_symplectomorphism_check(space):
    x1, x2, x3, x4, x5, x6 = [Poly.var(i) for i in range(6)]
    shear = DiffeoMap([x1, x2, x3, x4 + x1, x5, x6])
    assert is_symplectomorphism(shear, space)
    scaling = DiffeoMap([2 * x1, x2, x3, x4, x5, x6])
    assert not is_symplectomorphism(scaling, space)


def test_ma_operator_table_forms(space):
    """Known operators: row 1 ↦ 1 + det Hess f; row 4 ↦ Laplacian."""
    quad = Poly({(2, 0, 0, 0, 0, 0): Fraction(1, 2),
                 (0, 2, 0, 0, 0, 0): Fraction(1, 2),
                 (0, 0, 2, 0, 0, 0): Fraction(1, 2)})
    f = SectionMap.from_poly(quad)
    row1 = FormField.constant(table1_form(1, 1))
    assert ma_operator(row1, f, [0.3, 0.1, -0.2]) == pytest.approx(2.0)
    row4 = FormField.constant(table1_form(4))
    assert ma_operator(row4, f, [1.0, 2.0, 3.0]) == pytest.approx(3.0)


def test_ma_operator_wave(space):
    """Row 5 is the wave-type operator □f + det Hess f with signature signs."""
    # f = x²/2 − y²/2 has zero z-dependence: det Hess = 0 on 3x3? no: −1·(−1)·0
    quad = Poly({(2, 0, 0, 0, 0, 0): Fraction(1, 2),
                 (0, 2, 0, 0, 0, 0): Fraction(-3, 2)})
    f = SectionMap.from_poly(quad)
    row5 = FormField.constant(table1_form(5))
    # e234 + e135 + e126 gives f_xx − f_yy + f_zz at a diagonal Hessian
    assert ma_operator(row5, f, [0.0, 0.0, 0.0]) == pytest.approx(1 - (-3))


def reference_ma_operator(fld, section, x):
    """The operator as the pullback of ω along the graph map's Jacobian
    [I; H], the coefficient of dx1∧dx2∧dx3."""
    grad = section.grad(x)
    H = section.hess(x)
    point = list(x) + list(grad)
    J = [[1 if i == j else 0 for j in range(3)] for i in range(3)] + \
        [[H[i][j] for j in range(3)] for i in range(3)]
    return fld.evaluate(point).pullback(J)[0]


_entry = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(_entry, min_size=20, max_size=20),
       h=st.lists(_entry, min_size=6, max_size=6),
       x=st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
def test_ma_operator_matches_pullback_reference(coeffs, h, x):
    """ω restricted to the graph's tangent frame is, bitwise, the pullback
    of ω along [I; H]: the same 3x3 minors summed in the same order."""
    H = [[h[0], h[1], h[2]], [h[1], h[3], h[4]], [h[2], h[4], h[5]]]
    section = SectionMap(None, grad=lambda _: x[3:], hess=lambda _: H)
    fld = FormField.constant(KForm(3, coeffs))
    assert repr(ma_operator(fld, section, x[:3])) == \
        repr(reference_ma_operator(fld, section, x[:3]))


def test_generalized_solution_graph_of_gradient(space):
    """graph(df) with Δf = 0 solves the Laplace-type equation of row 4."""
    # harmonic f = x² − y² ... needs Δf = f_xx+f_yy+f_zz = 0
    f = SectionMap.from_poly(
        Poly({(2, 0, 0, 0, 0, 0): Fraction(1), (0, 2, 0, 0, 0, 0): Fraction(-1)}))

    def jacobian(u):  # [I; Hess f]
        return [[float(i == j) for j in range(3)] for i in range(3)] + f.hess(u)

    L = Submanifold3(lambda u: list(u) + f.grad(u), jacobian)
    fld = FormField.constant(KForm(3, [float(c)
                                       for c in table1_form(4).coeffs]))
    pts = sample_box([(0.2, 1.5)] * 3, 20, seed=5)
    rep = check_generalized_solution(L, fld, space, pts)
    assert rep.passed, (rep.max_lagrangian, rep.max_omega)


def test_rank_deficient_points_excluded(space):
    const = Submanifold3(lambda u: [1.0] * 6, lambda u: [[0.0] * 3] * 6)
    fld = FormField.constant(KForm(3, [float(c) for c in table1_form(4).coeffs]))
    rep = check_generalized_solution(const, fld, space,
                                     sample_box([(0, 1)] * 3, 5, seed=1))
    assert not rep.passed
    assert len(rep.excluded) == 5


@st.composite
def _jacobian(draw):
    """U·diag(σ)·Vᵀ, 6×3, U and V with random orthonormal columns, each σ
    either at most 1e-9 (or 0) or at least 1e-7, up to 10."""
    sigma = [draw(st.one_of(st.just(0.0),
                            st.builds(lambda u: 10.0 ** u, st.floats(-14, -9)),
                            st.builds(lambda u: 10.0 ** u, st.floats(-7, 1))))
             for _ in range(3)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return U @ np.diag(sigma) @ V.T


@settings(max_examples=300, deadline=None)
@given(J=_jacobian())
def test_jacobian_rank_matches_numpy(J):
    """The one-sided Jacobi rank equals the SVD rank at tol 1e-8, on
    Jacobians of rank 0-3 with no singular value in [1e-9, 1e-7]."""
    assert _rank(J.tolist(), 1e-8) == np.linalg.matrix_rank(J, tol=1e-8)


def test_lambda_field_degenerate_raises(space):
    fld = FormField.constant(KForm(3, [float(c) for c in table1_form(4).coeffs]))
    with pytest.raises(DegeneratePointError):
        lambda_field(fld, space, [0.0] * 6)


def _branch_field():
    """e234 − e135 + e126 − x₀·e456: λ = −4x₀, so the branch changes at
    x₀ = 0, where λ vanishes."""
    def fn(x):
        return (KForm.basis(2, 3, 4, scale=1.0) - KForm.basis(1, 3, 5, scale=1.0)
                + KForm.basis(1, 2, 6, scale=1.0)
                - KForm.basis(4, 5, 6, scale=x[0]))

    return FormField.from_pointwise(3, fn)


def test_branch_change_detected(space):
    pts = [[-1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
    with pytest.raises(BranchChangeError):
        closedness_check(_branch_field(), space, pts)


@pytest.mark.parametrize("check", [closedness_check, gcy_integrability_check])
def test_stencil_crossing_branch_raises(space, check):
    """At x₀ = 5e-5, λ = −2e-4 passes the degeneracy guard, but at the
    stencil point x₀ − h, h = 1e-4, λ = +2e-4: the stencil crosses the
    branch and is not differentiated."""
    with pytest.raises(BranchChangeError, match="stencil point"):
        check(_branch_field(), space, [[5e-5] * 6])


@pytest.mark.parametrize("check", [closedness_check, gcy_integrability_check])
def test_degenerate_stencil_point_raises(space, check):
    """At x₀ = 1e-4 the stencil point x₀ − h has λ = 0; the error names it."""
    with pytest.raises(DegeneratePointError, match=r"at \(0\.0, 0\.0001"):
        check(_branch_field(), space, [[1e-4] * 6])


def _nan_field():
    """Table row 2 in floats, with a NaN coefficient on e456 where q1 > 0.3."""
    row2 = KForm(3, [float(c) for c in table1_form(2, 1).coeffs])

    def fn(x):
        return row2 + KForm.basis(4, 5, 6, scale=math.nan) if x[0] > 0.3 else row2

    return FormField.from_pointwise(3, fn)


@pytest.mark.parametrize("check", [closedness_check, gcy_integrability_check])
def test_nan_stencil_point_raises(space, check):
    """At q1 = 0.3 − 5e-5 the stencil point q1 + h, h = 1e-4, has a NaN
    coefficient, so λ is NaN there: the guard names that point instead of
    a NaN residual dropping out of the maximum."""
    with pytest.raises(DegeneratePointError, match=r"not finite at \(0\.3000"):
        check(_nan_field(), space, [[0.3 - 5e-5, 0.0, 0.0, 0.0, 0.0, 0.0]])


def test_flatness_nan_metric_fails():
    """A NaN metric at a stencil point gives a NaN residual, which fails."""
    g = MetricField(lambda x: np.eye(6) * math.nan if x[0] > 0.3 else np.eye(6))
    rep = flatness_check(g, [[0.29995, 0.0, 0.0, 0.0, 0.0, 0.0]])
    assert not rep.passed
    assert math.isnan(rep.max_residual)


def test_generalized_solution_nan_residual_fails(space):
    """A form field that is NaN at some sample points gives a NaN residual,
    which fails the check."""
    from ma6.casestudies import cs_form, cs_generalized_solution

    def omega(x):
        return cs_form(1.0) + KForm.basis(1, 2, 3, scale=math.nan if x[0] > 1.2 else 0.0)

    rep = check_generalized_solution(cs_generalized_solution(gamma=1, b=1),
                                     FormField.from_pointwise(3, omega), space,
                                     sample_box([(0.5, 2)] * 3, 10, seed=0))
    assert not rep.passed
    assert math.isnan(rep.max_omega)


# -0.0 is left out: where it ties 0.0, numpy's reduction returns either
# zero; a residual is an absolute value and never -0.0
_no_negative_zero = st.floats(allow_nan=False).filter(
    lambda v: v != 0 or math.copysign(1, v) > 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_no_negative_zero), st.data())
def test_worst_matches_numpy_max(rs, data):
    """_worst is numpy's max from 0.0, bitwise, in pure Python: 0.0 for no
    residual, a generator read as a list, and NaN if any residual is NaN."""
    want = float(np.max(np.asarray(rs, dtype=float), initial=0.0)).hex()
    assert _worst(rs).hex() == want
    assert _worst(r for r in rs).hex() == want
    assert _worst(iter([])).hex() == (0.0).hex()
    i = data.draw(st.integers(0, len(rs)))
    assert math.isnan(_worst(r for r in rs[:i] + [math.nan] + rs[i:]))


def _criterion_11_fields():
    """Acceptance criterion 11's five fields, each with its closedness
    verdict: two constant fields, a conformally scaled one and two
    engineered non-closed ones."""
    const_h = FormField.constant(KForm(3, [float(c)
                                           for c in table1_form(1, 1).coeffs]))
    const_e = FormField.constant(KForm(3, [float(c)
                                           for c in table1_form(2, 1).coeffs]))

    def conformal(x):
        c = math.exp(x[0])
        return KForm.basis(1, 2, 3, scale=c) + KForm.basis(4, 5, 6, scale=c)

    def nonclosed_h(x):
        return KForm.basis(1, 2, 3, scale=1.0 + x[3] ** 2) + \
            KForm.basis(4, 5, 6, scale=1.0)

    def nonclosed_e(x):
        return (KForm(3, [float(c) for c in table1_form(2, 1).coeffs])
                + KForm.basis(4, 5, 6, scale=-(x[0] ** 2)))

    return [(const_h, True), (const_e, True),
            (FormField.from_pointwise(3, conformal), True),
            (FormField.from_pointwise(3, nonclosed_h), False),
            (FormField.from_pointwise(3, nonclosed_e), False)]


def test_closedness_and_integrability_agree(space):
    """Constant, conformally-scaled, and engineered non-closed fields give
    matching verdicts from the two criteria."""
    pts = sample_box([(-0.5, 0.5)] * 6, 5, seed=3)
    for fld, want in _criterion_11_fields():
        c = closedness_check(fld, space, pts)
        g = gcy_integrability_check(fld, space, pts)
        assert c.passed == want
        assert g.passed == want
        assert g.details["agrees_with_closedness"]
        assert g.details["closedness_passed"] == c.passed
        assert g.details["closedness_residual"] == c.max_residual
        want = -1 / 6 if lambda_field(fld, space, pts[0]) > 0 else -1j / 6
        assert isinstance(g.details["ratio"], complex)
        assert abs(g.details["ratio"] - want) <= 1e-12


def test_flatness_constant_exact():
    g = MetricField.constant(np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 1.0]))
    rep = flatness_check(g, sample_box([(-1, 1)] * 6, 3, seed=1))
    assert rep.passed and rep.max_residual == 0.0


def test_flatness_pulled_back_flat_metric():
    def g(x):
        J = np.eye(6)
        for i in range(6):
            J[i, (i + 1) % 6] += 0.1 * math.cos(x[(i + 1) % 6])
        return J.T @ J

    rep = flatness_check(MetricField(g), sample_box([(-0.5, 0.5)] * 6, 3, seed=2))
    assert rep.passed
    assert rep.max_residual < 1e-4


def test_curvature_of_sphere_block():
    """g = dθ² + sin²θ dφ² ⊕ flat: R^θ_φθφ = sin²θ."""
    def g(x):
        d = np.eye(6)
        d[1, 1] = math.sin(x[0]) ** 2
        return d

    x = [1.1, 0.4, 0, 0, 0, 0]
    R = riemann(MetricField(g), x)
    want = math.sin(x[0]) ** 2
    assert abs(R[0, 1, 0, 1] - want) / want < 0.05
    assert not flatness_check(MetricField(g), [x]).passed


def test_pullback_field_poly_grade_four(space):
    """φ*(Ω∧Ω) = Ω∧Ω for the symplectomorphism of the semi-geostrophic
    reduction; grade-4 minors need the general determinant."""
    from ma6.casestudies import cs_reduction
    from ma6.exterior import wedge

    om2 = FormField.constant(wedge(space.omega, space.omega))
    pb = pullback_field_poly(cs_reduction(2), om2)
    assert pb.grade == 4
    assert all(p == c for p, c in zip(pb.coeffs, om2.coeffs))
    f = FormField(0, [Poly.var(0) + Poly.var(5)])
    assert pullback_field_poly(cs_reduction(2), f).coeffs[0] == \
        Poly.var(0) + 2 * Poly.var(5) - Poly.var(2)


def _pointwise_d(fn, x, h):
    """max |d| at x of each form in fn(point), by central differences at the
    12 stencil points, one call of fn each, assembled term by term."""
    partials = []
    for a in range(6):
        xp, xm = list(x), list(x)
        xp[a] += h
        xm[a] -= h
        partials.append([(p - m) * (1.0 / (2 * h)) for p, m in zip(fn(xp), fn(xm))])
    worst = []
    for forms in zip(*partials):
        k = forms[0].grade
        d = [0.0] * dim_grade(k + 1)
        for a, form in enumerate(forms, 1):
            for idx, c in zip(COMBS[k], form.coeffs):
                sign, merged = merge_sign((a,), idx)
                if sign:
                    d[POS[k + 1][merged]] += sign * c
        worst.append(max(abs(c) for c in d))
    return worst


def _pointwise_residuals(fld, s, points, h=DEFAULT_H):
    """The closedness and integrability residuals with every stencil point
    taken alone: λ from pfaffian, ω̂ from dual_form and α, β from _split,
    each of nω, nω̂, α and β differentiated."""
    def forms_at(y):
        omega = fld.evaluate(y)
        lam = pfaffian(omega, s)
        r = 1.0 / abs(float(lam)) ** 0.25
        n_omega, n_dual = omega * r, dual_form(omega, s) * r
        sp = _split(n_omega, lam, False, n_dual, s.theta)
        return n_omega, n_dual, sp.alpha, sp.beta

    closed = integ = 0.0
    for x in points:
        dn, dd, da, db = _pointwise_d(forms_at, x, h)
        closed = max(closed, dn, dd)
        integ = max(integ, da, db)
    return closed, integ


def test_stencil_checks_match_pointwise_reference(space):
    """The batched stencils agree with the pointwise path on criterion 11's
    fields and a polynomial field c(x)·(dq123 + dp123), c = 1 + 3/2·q1² +
    p2²: the same verdicts, and residuals within 1e-9·(1 + r)."""
    coeff = {"0,0,0,0,0,0": "1", "2,0,0,0,0,0": "3/2", "0,0,0,0,2,0": "1"}
    poly = parse_field({"version": 1, "scalar": "exact", "grade": 3,
                        "coefficients": {"123": coeff, "456": coeff}})
    pts = sample_box([(-0.5, 0.5)] * 6, 5, seed=3)
    for fld, want in _criterion_11_fields() + [(poly, True)]:
        closed_ref, integ_ref = _pointwise_residuals(fld, space, pts)
        c = closedness_check(fld, space, pts)
        g = gcy_integrability_check(fld, space, pts)
        assert c.passed == (closed_ref <= DEFAULT_TOL) == want
        assert (g.max_residual <= DEFAULT_TOL) == (integ_ref <= DEFAULT_TOL) == want
        assert g.passed == want
        assert abs(c.max_residual - closed_ref) <= 1e-9 * (1 + closed_ref)
        assert abs(g.max_residual - integ_ref) <= 1e-9 * (1 + integ_ref)


def test_pointwise_field_evaluated_once_per_point(space, monkeypatch):
    """One sample point: closedness_check evaluates the field there and at
    its 12 stencil points, once each, and takes K, λ and the dual form of
    all 13 from one batch of the tables: no hitchin_k, pfaffian or
    dual_form call.  gcy_integrability_check, next, on the same field and
    points, reads the pass the field kept: no evaluation and no K batch,
    and no closedness_check call.  On a fresh field it makes the pass
    itself."""
    import sys

    import ma6.fields
    import ma6.hitchin

    counts = dict.fromkeys(("field", "hitchin_k", "pfaffian", "dual_form"), 0)
    for name in ("hitchin_k", "pfaffian", "dual_form"):
        fn = getattr(ma6.hitchin, name)

        def counting(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        # under every name a ma6 module imported it by
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ma6" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    k_batches = []
    batch = QuadraticTable.batch
    k_table = _k_table()

    def counting_batch(self, U, V=None):
        if self is k_table:
            k_batches.append(len(U))
        return batch(self, U, V)

    def fn(x):
        counts["field"] += 1
        return KForm.basis(1, 2, 3, scale=1.0 + x[3] ** 2) + \
            KForm.basis(4, 5, 6, scale=1.0)

    def no_closedness_check(*args, **kwargs):
        raise AssertionError("closedness_check called")

    def run(check, fld, evaluations, batches):
        counts.update(field=0, hitchin_k=0, pfaffian=0, dual_form=0)
        k_batches.clear()
        check(fld, space, pts)
        assert counts == {"field": evaluations, "hitchin_k": 0, "pfaffian": 0,
                          "dual_form": 0}
        assert k_batches == batches

    monkeypatch.setattr(QuadraticTable, "batch", counting_batch)
    fld = FormField.from_pointwise(3, fn)
    pts = sample_box([(-0.5, 0.5)] * 6, 1, seed=3)
    run(closedness_check, fld, 13, [13])
    monkeypatch.setattr(ma6.fields, "closedness_check", no_closedness_check)
    run(gcy_integrability_check, fld, 0, [])
    run(gcy_integrability_check, FormField.from_pointwise(3, fn), 13, [13])


def test_riemann_evaluates_metric_once_per_stencil_point():
    """One batch of the 85 distinct points x, x ± h·e_a, x ± 2h·e_a and
    x ± h·e_a ± h·e_b (a < b); each is evaluated once."""
    pointwise = []

    def fn(x):
        pointwise.append(tuple(x))
        return np.diag([1.0 + x[0] ** 2, 1.0, 1.0, 1.0, 1.0, 1.0])

    g = MetricField(fn)
    batches = []
    batch = g.batch

    def counting_batch(points):
        batches.append(np.array(points))
        return batch(points)

    g.batch = counting_batch
    x, h = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2]), 1e-3
    riemann(g, x, h)
    assert len(batches) == 1 and len(pointwise) == 85
    offsets = {tuple(int(v) for v in np.rint((p - x) / h)) for p in batches[0]}
    e = np.eye(6, dtype=int)
    want = {(0,) * 6} | {tuple(k * e[a]) for a in range(6) for k in (-2, -1, 1, 2)} | \
        {tuple(sa * e[a] + sb * e[b]) for a in range(6) for b in range(a + 1, 6)
         for sa in (1, -1) for sb in (1, -1)}
    assert len(want) == 85 and offsets == want


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_monomials = st.lists(st.integers(0, 2), min_size=6, max_size=6).map(tuple)
# low-degree Polys, zero ones included, with and without a constant term
_polys = st.builds(lambda terms, c: Poly({**terms, (0,) * 6: c}),
                   st.dictionaries(_monomials, _fractions, max_size=4),
                   st.just(0) | _fractions)
_entries = _polys | st.integers(-6, 6) | _fractions | st.floats(-8, 8)


@settings(max_examples=60, deadline=None)
@given(grade=st.integers(0, 6), data=st.data(),
       points=st.lists(st.lists(st.floats(-2, 2), min_size=6, max_size=6),
                       min_size=1, max_size=12))
def test_coefficient_field_batch_is_pointwise_evaluation(grade, data, points):
    """FormField.batch of a coefficient field (Poly, int, Fraction and
    float entries, one callable entry among them) equals, bitwise, the
    floats of evaluate at each point, and calls the callable once per
    point."""
    n = dim_grade(grade)
    coeffs = data.draw(st.lists(_entries, min_size=n, max_size=n))
    calls = []

    def entry(x):
        calls.append(x)
        return math.sin(x[0]) - x[5] * x[1]

    coeffs[data.draw(st.integers(0, n - 1))] = entry
    fld = FormField(grade, coeffs)
    got = fld.batch(points)
    assert len(calls) == len(points)
    want = np.array([[float(c) for c in fld.evaluate(y).coeffs] for y in points])
    assert got.shape == (len(points), n)
    assert got.tobytes() == want.tobytes()


def test_polynomial_field_batch_makes_no_poly_eval(monkeypatch):
    """A parsed polynomial field is evaluated as arrays: batch makes no
    Poly.eval call, and equals the pointwise evaluation."""
    coeff = {"0,0,0,0,0,0": "1", "2,0,0,0,0,0": "3/2", "0,0,0,0,2,0": "1/2"}
    fld = parse_field({"version": 1, "scalar": "exact", "grade": 3,
                       "coefficients": {"123": coeff, "456": coeff}})
    points = sample_box([(-0.5, 0.5)] * 6, 85, seed=5)
    want = np.array([[float(c) for c in fld.evaluate(y).coeffs] for y in points])
    evals = []
    poly_eval = Poly.eval

    def counting(self, x):
        evals.append(x)
        return poly_eval(self, x)

    monkeypatch.setattr(Poly, "eval", counting)
    assert fld.batch(points).tobytes() == want.tobytes()
    assert evals == []


def reference_stencil(x, h, depth):
    """The stencil points built one ±h step at a time, z[a] += sign·h, and
    the neighbour indices, by a dict of integer offsets."""
    index, points = {}, []

    def add(key, y):
        if key not in index:
            index[key] = len(points)
            points.append(y)
        return index[key]

    def step(key, y, a, sign):
        k, z = list(key), list(y)
        k[a] += sign
        z[a] += sign * h
        return tuple(k), z

    inner = [((0,) * 6, [float(v) for v in x])]
    if depth == 2:
        inner += [step(inner[0][0], inner[0][1], a, sign) for a in range(6) for sign in (1, -1)]
    for key, y in inner:
        add(key, y)
    nb = [[[add(*step(key, y, b, sign)) for sign in (1, -1)] for b in range(6)]
          for key, y in inner]
    return np.array(points), np.array(nb)


@pytest.mark.parametrize("h", [DEFAULT_H, 1e-3, 0.3])
@pytest.mark.parametrize("depth", [1, 2])
def test_stencil_matches_sequential_steps(depth, h):
    """The planned stencil equals, bitwise, the points built by sequential
    steps, at an x whose coordinates are not dyadic: at each h, x ± 2h·e_a
    differs from (x ± h) ± h in the last bit on some axis (2.9 at 1e-4 and
    0.3, 1.7 at 1e-3), and −0.0 must stay −0.0 where no step is taken."""
    from ma6.fields import _stencil

    x = [0.1, -0.7, 1 / 3, 2.9, 1.7, -0.0]
    points, nb = _stencil(x, h, depth)
    want_points, want_nb = reference_stencil(x, h, depth)
    assert points.tobytes() == want_points.tobytes()
    assert np.array_equal(nb, want_nb)


def test_q_metric_flatness_makes_no_q_form_call(space, monkeypatch):
    """from_q_field evaluates the field once per stencil point and takes q
    for the whole batch from the table: no q_form call."""
    import ma6.lr

    calls = {"q_form": 0, "field": 0}
    q_form = ma6.lr.q_form

    def counting_q_form(*args, **kwargs):
        calls["q_form"] += 1
        return q_form(*args, **kwargs)

    def fn(x):
        calls["field"] += 1
        c = math.exp(x[0])
        return KForm.basis(1, 2, 3, scale=c) + KForm.basis(4, 5, 6, scale=c)

    monkeypatch.setattr(ma6.lr, "q_form", counting_q_form)
    pts = sample_box([(-0.5, 0.5)] * 6, 1, seed=3)
    flatness_check(MetricField.from_q_field(FormField.from_pointwise(3, fn), space), pts)
    assert calls == {"q_form": 0, "field": 85}


def test_q_metric_guard_raises_on_non_effective_field(space):
    from ma6.symplectic import EffectivenessError

    def fn(x):
        return KForm.basis(1, 2, 3, scale=1.0) + KForm.basis(1, 2, 4, scale=x[0])

    g = MetricField.from_q_field(FormField.from_pointwise(3, fn), space)
    g([0.0] * 6)
    with pytest.raises(EffectivenessError):
        flatness_check(g, [[0.5, 0, 0, 0, 0, 0]])


def test_pointwise_field_has_no_exact_operations(space):
    from ma6.documents import DocumentError, serialize_field

    fld = FormField.from_pointwise(3, lambda x: space.omega)
    assert not fld.is_polynomial()
    with pytest.raises(ValueError, match="polynomial coefficients"):
        d_exact(fld)
    with pytest.raises(ValueError, match="polynomial data"):
        pullback_field_poly(DiffeoMap([Poly.var(i) for i in range(6)]), fld)
    with pytest.raises(DocumentError):
        serialize_field(fld)


def test_diffeomap_takes_polynomials_only():
    """A constant component becomes Poly.const; a callable one is rejected
    when the map is built."""
    x1, x3, x4, x5 = (Poly.var(i) for i in (0, 2, 3, 4))
    phi = DiffeoMap([x1, 2, x3, x4, x5, Fraction(1, 2)])
    assert phi.components[1] == Poly.const(2)
    assert phi([3, 0, 1, 0, 0, 0]) == [3, 2, 1, 0, 0, Fraction(1, 2)]
    assert phi.jacobian([0] * 6)[1] == [0] * 6
    with pytest.raises(ValueError, match="polynomials"):
        DiffeoMap([x1, lambda x: 0.0, x3, x4, x5, x1])


def test_curvature_matches_loop_reference():
    """christoffel and riemann against the index-loop definitions, on a
    metric with every Christoffel symbol and curvature component in play."""
    from ma6.fields import christoffel

    def g(x):
        J = np.eye(6)
        for i in range(6):
            J[i, (i + 1) % 6] += 0.3 * math.sin(x[i] + 2 * x[(i + 1) % 6])
        return J.T @ J

    g = MetricField(g)
    x = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    h = 1e-4

    def gamma_ref(y):
        dg = [(g(y + h * e) - g(y - h * e)) / (2 * h) for e in np.eye(6)]
        ginv = np.linalg.inv(g(y))
        return np.array([[[0.5 * sum(ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                                     for l in range(6))
                           for j in range(6)] for i in range(6)] for k in range(6)])

    gam = gamma_ref(x)
    assert np.allclose(christoffel(g, x, h), gam, rtol=1e-12, atol=1e-12)
    dgam = [(christoffel(g, x + h * e, h) - christoffel(g, x - h * e, h)) / (2 * h)
            for e in np.eye(6)]
    R = riemann(g, x, h)
    for l, k, i, j in np.ndindex(6, 6, 6, 6):
        want = (dgam[i][l, j, k] - dgam[j][l, i, k]
                + sum(gam[l, i, m] * gam[m, j, k] - gam[l, j, m] * gam[m, i, k]
                      for m in range(6)))
        assert R[l, k, i, j] == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert np.abs(R).max() > 1e-2


# --- the structure pass against a pass per batch ----------------------------

def reference_pair(fld, s, points):
    """λ, nω and nω̂ at N points from one batch of the tables, each λ summed
    alone by `hitchin._lambda_of_k`; the first point whose λ is not finite
    or fails the guard raises."""
    from ma6.fields import _degenerate
    from ma6.hitchin import _derivation_table, _lambda_of_k

    points = np.asarray(points, dtype=float).reshape(-1, 6)
    W = fld.batch(points)
    K = _k_table().batch(W) / float(s.theta.coeffs[0])
    lams = np.array([_lambda_of_k(k.reshape(6, 6).tolist()) for k in K])
    bad = ~np.isfinite(lams) | _degenerate(lams, np.abs(W).max(axis=1))
    if bad.any():
        i = bad.argmax()
        what = "below threshold" if np.isfinite(lams[i]) else "not finite"
        raise DegeneratePointError(f"|λ| {what} at {tuple(points[i].tolist())}")
    r = 1.0 / np.abs(lams) ** 0.25
    factor = lams / (3 * np.abs(lams) ** 1.5)
    dual = _derivation_table().batch(K, W) * factor[:, None]
    return lams, W * r[:, None], dual * r[:, None]


def reference_sign_sweep(fld, s, points):
    """The pair at the sample points, one batch; λ keeps one sign."""
    lams, n_omega, n_dual = reference_pair(fld, s, points)
    if len(set((lams > 0).tolist())) != 1:
        raise BranchChangeError("λ changes sign across the sample region")
    return lams, n_omega, n_dual


def reference_normalized_d(fld, s, x, lam, h):
    """d(nω) and d(nω̂) at x from a batch of its 12 stencil points alone,
    each d one vector-matrix product with the incidence."""
    from ma6.fields import _incidence

    points = np.tile(np.asarray(x, dtype=float), (12, 1))
    a = np.arange(6)
    points[2 * a, a] += h
    points[2 * a + 1, a] -= h
    lams, n_omega, n_dual = reference_pair(fld, s, points)
    crossed = (lams > 0) != (lam > 0)
    if crossed.any():
        y = tuple(points[crossed.argmax()].tolist())
        raise BranchChangeError(
            f"λ changes sign between the sample point {tuple(x)} and its "
            f"stencil point {y}")
    return tuple(((F[0::2] - F[1::2]) * (1.0 / (2 * h))).reshape(-1) @ _incidence(3)
                 for F in (n_omega, n_dual))


def reference_checks(fld, s, points, h=DEFAULT_H, tol=DEFAULT_TOL):
    """The two checks' reports from a pass on the sample points and one
    pass per stencil."""
    from ma6.fields import CheckReport
    from ma6.hitchin import _pieces_pairing, theta_pairing

    lams, n_omega, n_dual = reference_sign_sweep(fld, s, points)
    ds = [reference_normalized_d(fld, s, x, lam, h) for x, lam in zip(points, lams)]
    dn, dd = zip(*ds)
    res_n, res_d = float(np.abs(dn).max()), float(np.abs(dd).max())
    worst = max(res_n, res_d)
    closed_report = CheckReport(passed=worst <= tol, max_residual=worst,
                                n_points=len(points), tol=tol,
                                details={"normalized": res_n, "dual": res_d})
    res = res_closed = 0.0
    ratios = []
    for lam, nw, nd, (dn, dd) in zip(lams, n_omega, n_dual, ds):
        res_closed = max(res_closed, float(np.abs(dn).max()), float(np.abs(dd).max()))
        if lam > 0:
            d_pieces = max(np.abs(dn + dd).max(), np.abs(dn - dd).max())
        else:
            d_pieces = np.abs(dn + 1j * dd).max()
        res = max(res, float(d_pieces) / 2)
        t = theta_pairing(KForm(3, nd.tolist()), KForm(3, nw.tolist()), s)
        ratios.append(complex(_pieces_pairing(t, lam, False)) / -6)
    ratio_dev = max(abs(r - ratios[0]) for r in ratios)
    integrable = res <= tol and ratio_dev <= tol
    closed = res_closed <= tol
    return closed_report, CheckReport(
        passed=integrable, max_residual=res, n_points=len(points), tol=tol,
        details={"ratio_deviation": ratio_dev, "ratio": ratios[0],
                 "closedness_residual": res_closed, "closedness_passed": closed,
                 "agrees_with_closedness": closed == integrable})


def _dense(x):
    """A field with every coefficient in play, so that K and λ sum products
    that round: the summation order of each shows."""
    row1 = KForm(3, [float(c) for c in table1_form(1, 1).coeffs])
    return row1 + KForm(3, [math.sin(0.3 * i + x[i % 6]) * (1 + 0.1 * x[(i + 1) % 6] ** 2)
                            for i in range(20)])


def _structure_fields():
    coeff = {"0,0,0,0,0,0": "1", "2,0,0,0,0,0": "3/2", "0,0,0,0,2,0": "1/7",
             "1,1,0,0,0,1": "2/3"}
    poly = parse_field({"version": 1, "scalar": "exact", "grade": 3,
                        "coefficients": {"123": coeff, "456": coeff,
                                         "124": {"0,0,1,0,0,0": "1/5"}}})
    return [f for f, _ in _criterion_11_fields()] + [poly, FormField.from_pointwise(3, _dense)]


def _outcome(checks, *args, **kwargs):
    """The repr of a check's reports, or the type and message it raised."""
    try:
        return repr(checks(*args, **kwargs))
    except ValueError as e:
        return type(e).__name__, str(e)


def _both_checks(fld, s, points, h):
    return closedness_check(fld, s, points, h=h), gcy_integrability_check(fld, s, points, h=h)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_structure_pass_matches_pass_per_batch(space, n):
    """Both checks equal, bitwise (by repr), the reports of a pass on the
    sample points and one per stencil, on constant, conformal, non-closed,
    polynomial and dense fields, at h = 1e-4 and 1e-3; where the reference
    raises, they raise the same."""
    pts = sample_box([(-0.5, 0.5)] * 6, n, seed=n + 1)
    reports = 0
    for fld, ref in zip(_structure_fields(), _structure_fields()):
        for h in (DEFAULT_H, 1e-3):
            want = _outcome(reference_checks, ref, space, pts, h=h)
            assert _outcome(_both_checks, fld, space, pts, h) == want
            reports += isinstance(want, str)
    assert reports >= 12


def test_lambdas_are_pfaffians_alone_and_in_a_batch(space, other_space):
    """Each row's λ from `_lambdas` is, bitwise, the float pfaffian of its
    form, whether the row comes alone or among 13."""
    from ma6.fields import _lambdas

    rng = np.random.default_rng(37)
    for s in (space, other_space):
        W = rng.uniform(-2, 2, size=(13, 20))
        K = _k_table().batch(W) / float(s.theta.coeffs[0])
        want = [pfaffian(KForm(3, w.tolist()), s) for w in W]
        assert _lambdas(K).tolist() == want
        assert [_lambdas(K[i:i + 1])[0] for i in range(13)] == want


def test_report_at_a_point_does_not_depend_on_the_others(space):
    """The integrability ratio of the dense field at x is the same, bitwise,
    checked at [x] and at [x, y], over 60 seeds (pairs whose λ changes sign
    raise and are skipped)."""
    compared = 0
    for seed in range(60):
        x, y = sample_box([(-0.5, 0.5)] * 6, 2, seed=seed)
        try:
            both = gcy_integrability_check(FormField.from_pointwise(3, _dense), space, [x, y])
        except BranchChangeError:
            continue
        alone = gcy_integrability_check(FormField.from_pointwise(3, _dense), space, [x])
        assert repr(alone.details["ratio"]) == repr(both.details["ratio"])
        compared += 1
    assert compared >= 40


def test_structure_pass_kept_for_one_key(space):
    """The field keeps one pass, for its space (by identity), h and float64
    points: the same three read it, any other recomputes, a kept report
    equals a fresh field's, and a failed pass is not kept."""
    from ma6.symplectic import SymplecticSpace

    calls = []

    def fn(x):
        calls.append(tuple(x))
        return _dense(x)

    def evaluations(check, fld, s, pts, h=DEFAULT_H):
        calls.clear()
        report = check(fld, s, pts, h=h)
        fresh = check(FormField.from_pointwise(3, _dense), s, pts, h=h)
        assert repr(report) == repr(fresh)
        return len(calls)

    fld = FormField.from_pointwise(3, fn)
    pts = sample_box([(-0.5, 0.5)] * 6, 2, seed=1)
    assert evaluations(closedness_check, fld, space, pts) == 26
    assert evaluations(gcy_integrability_check, fld, space, pts) == 0
    assert evaluations(closedness_check, fld, space, np.array(pts)) == 0
    assert evaluations(closedness_check, fld, space, pts, h=1e-3) == 26
    assert evaluations(closedness_check, fld, space, pts[:1]) == 13
    twice = SymplecticSpace(space.omega * 2)
    assert evaluations(gcy_integrability_check, fld, twice, pts[:1]) == 13
    assert evaluations(gcy_integrability_check, fld, space, pts[:1]) == 13
    sets = [sample_box([(-0.5, 0.5)] * 6, 2, seed=seed) for seed in range(5)]
    for p in sets:
        assert evaluations(closedness_check, fld, space, p) == 26
    assert evaluations(closedness_check, fld, space, sets[-1]) == 0
    assert evaluations(closedness_check, fld, space, sets[0]) == 26
    branch = _branch_field()
    for _ in range(2):
        with pytest.raises(BranchChangeError, match=r"sample point \(5e-05, 0, 0"):
            gcy_integrability_check(branch, space, [[5e-5, 0, 0, 0, 0, 0]])


def _nan_branch_field():
    """_branch_field with a NaN coefficient on e123 where q2 > 0.3."""
    branch = _branch_field()

    def fn(x):
        omega = branch.evaluate(x)
        return omega + KForm.basis(1, 2, 3, scale=math.nan) if x[1] > 0.3 else omega

    return FormField.from_pointwise(3, fn)


_STENCIL_CROSSING = ("λ changes sign between the sample point (5e-05, 0, 0, 0, 0, 0) "
                     "and its stencil point (-5e-05, 0.0, 0.0, 0.0, 0.0, 0.0)")


@pytest.mark.parametrize("check", [closedness_check, gcy_integrability_check])
@pytest.mark.parametrize("make, points, error, message", [
    # λ = −4q1 changes sign across the sample points
    (_branch_field, [[-1, 0, 0, 0, 0, 0], [0.5, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
     BranchChangeError, "λ changes sign across the sample region"),
    # the second point's stencil crosses q1 = 0
    (_branch_field, [[1, 0, 0, 0, 0, 0], [5e-5, 0, 0, 0, 0, 0]],
     BranchChangeError, _STENCIL_CROSSING),
    # the second sample point is degenerate, the third on the other branch
    (_branch_field, [[0.5, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0]],
     DegeneratePointError, "|λ| below threshold at (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)"),
    # the third point's stencil point q1 − h has λ = 0
    (_branch_field, [[0.5, 0, 0, 0, 0, 0], [0.7, 0.1, 0, 0, 0, 0], [1e-4, 0.2, 0, 0, 0, 0]],
     DegeneratePointError, "|λ| below threshold at (0.0, 0.2, 0.0, 0.0, 0.0, 0.0)"),
    # the second point's stencil point q2 + h has a NaN coefficient
    (_nan_branch_field, [[0.5, 0, 0, 0, 0, 0], [0.5, 0.3 - 5e-5, 0, 0, 0, 0]],
     DegeneratePointError, "|λ| not finite at (0.5, 0.30005, 0.0, 0.0, 0.0, 0.0)"),
    # the first point's stencil crosses before the second's reaches λ = 0
    (_branch_field, [[5e-5, 0, 0, 0, 0, 0], [1e-4, 0, 0, 0, 0, 0], [0.3, 0, 0, 0, 0, 0]],
     BranchChangeError, _STENCIL_CROSSING),
])
def test_structure_pass_error_order(space, check, make, points, error, message):
    """The first error of a sample-point pass followed by one stencil pass
    per point: its type and message, pinned."""
    with pytest.raises(error) as info:
        check(make(), space, points)
    assert type(info.value) is error
    assert str(info.value) == message
