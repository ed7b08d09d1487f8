"""The semi-geostrophic example and the 6-sphere associative form."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ma6

from ma6.casestudies import (
    cs_form,
    cs_generalized_solution,
    cs_reduction,
    cs_regular_solution,
    hess_one_form,
    hess_one_solution,
    s6_invariant,
)
from ma6.classify import OrbitClass, classify
from ma6.fields import (
    FormField,
    check_generalized_solution,
    is_symplectomorphism,
    ma_operator,
    pullback_field_poly,
    sample_box,
)
from ma6.octonion import Octonion, associative_form, cross
from ma6.symplectic import is_effective


# --- octonions ------------------------------------------------------------

def test_octonion_norm_multiplicative(rng):
    for _ in range(20):
        a = Octonion([Fraction(rng.randint(-3, 3)) for _ in range(8)])
        b = Octonion([Fraction(rng.randint(-3, 3)) for _ in range(8)])
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


def doubling_product(x, y):
    """The Cayley-Dickson product (a, b)(c, d) = (ac − d̄b, da + bc̄) on
    tuples of length 1, 2, 4 or 8: the reference for the table product."""
    if len(x) == 1:
        return (x[0] * y[0],)

    def conj(v):
        return (v[0],) + tuple(-t for t in v[1:])

    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    left = [p - q for p, q in zip(doubling_product(a, c), doubling_product(conj(d), b))]
    right = [p + q for p, q in zip(doubling_product(d, a), doubling_product(b, conj(c)))]
    return tuple(left + right)


_octonions = st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
                      min_size=8, max_size=8)


@settings(max_examples=300, deadline=None)
@given(x=_octonions, y=_octonions, z=_octonions)
def test_table_product_is_doubling_rule(x, y, z):
    """The table product, and the associative form read off the same table,
    equal the doubling rule exactly on Fraction octonions; |xy|² = |x|²|y|²."""
    ox, oy = Octonion(x), Octonion(y)
    assert (ox * oy).c == doubling_product(tuple(x), tuple(y))
    assert (ox * oy).norm_sq() == ox.norm_sq() * oy.norm_sq()
    yz = doubling_product((0,) + tuple(y[1:]), (0,) + tuple(z[1:]))
    assert associative_form(x[1:], y[1:], z[1:]) == sum(a * b for a, b in zip(x[1:], yz[1:]))


def test_octonion_quaternion_subalgebra():
    i, j = Octonion.unit(1), Octonion.unit(2)
    k = i * j
    assert k == Octonion.unit(3)
    assert i * i == Octonion.unit(0, -1)
    assert j * i == Octonion.unit(3, -1)  # anti-commutative


def test_octonion_non_associative():
    e1, e2, e4 = Octonion.unit(1), Octonion.unit(2), Octonion.unit(4)
    assert (e1 * e2) * e4 != e1 * (e2 * e4)


def test_associative_form_alternating(rng):
    x = [rng.randint(-3, 3) for _ in range(7)]
    y = [rng.randint(-3, 3) for _ in range(7)]
    z = [rng.randint(-3, 3) for _ in range(7)]
    assert associative_form(x, y, z) == -associative_form(y, x, z)
    assert associative_form(x, y, z) == associative_form(y, z, x)
    assert associative_form(x, x, z) == 0


def test_cross_orthogonal(rng):
    x = [rng.randint(-3, 3) for _ in range(7)]
    y = [rng.randint(-3, 3) for _ in range(7)]
    c = cross(x, y)
    assert sum(a * b for a, b in zip(c, x)) == 0
    assert sum(a * b for a, b in zip(c, y)) == 0


# --- the semi-geostrophic example -----------------------------------------

def test_cs_form_effective_and_class(space):
    for g in (0, 1, 5):
        form = cs_form(Fraction(g))
        assert is_effective(space, form)
        cls, report = classify(form, space)
        assert cls == OrbitClass.HESSIAN_ONE
        assert report.lambda_ > 0


def test_reduction_is_exact_symplectomorphism(space):
    for g in (0, 1, 5):
        phi = cs_reduction(Fraction(g))
        assert is_symplectomorphism(phi, space)


def test_reduction_pullback_identity(space):
    """φ*ω = dp∧dq∧dh − dx∧dy∧dz exactly, independent of γ."""
    for g in (0, 1, 5):
        phi = cs_reduction(Fraction(g))
        pb = pullback_field_poly(phi, FormField.constant(cs_form(Fraction(g))))
        target = hess_one_form()
        assert all(len(p.terms) <= 1 for p in pb.coeffs)  # constants only
        assert pb.evaluate([0] * 6) == target


def test_regular_solution(space):
    f = cs_regular_solution()
    fld = FormField.constant(cs_form(0.0))
    pts = sample_box([(0.5, 2)] * 3, 100, seed=0)
    worst = max(abs(ma_operator(fld, f, x)) for x in pts)
    assert worst < 1e-6


def test_regular_solution_gradient_consistent():
    """The closed-form gradient and Hessian agree with central differences
    of f: step 1e-4 for the gradient, 3e-4 for the nested Hessian."""
    f = cs_regular_solution()
    x = [0.8, 1.1, 0.4]

    def at(*moves):  # f at x moved by (axis, step) pairs
        xx = list(x)
        for a, d in moves:
            xx[a] += d
        return f.f(xx)

    h = 1e-4
    fd_grad = [(at((a, h)) - at((a, -h))) / (2 * h) for a in range(3)]
    assert max(abs(a - b) for a, b in zip(f.grad(x), fd_grad)) < 1e-6
    h = 3e-4
    fd_hess = [[(at((a, h)) - 2 * f.f(x) + at((a, -h))) / (h * h) if a == b else
                (at((a, h), (b, h)) - at((a, h), (b, -h)) - at((a, -h), (b, h))
                 + at((a, -h), (b, -h))) / (4 * h * h)
                for b in range(3)] for a in range(3)]
    Hc, Hf = np.array(f.hess(x)), np.array(fd_hess)
    assert np.abs(Hc - Hf).max() < 1e-4


def test_hess_one_solution(space):
    f = hess_one_solution(b=1)
    pts = sample_box([(0.5, 2)] * 3, 100, seed=0)
    worst = max(abs(float(np.linalg.det(np.array(f.hess(x)))) - 1) for x in pts)
    assert worst < 1e-6


def test_hess_one_value_matches_gradient():
    """The quadrature value and the closed-form gradient are consistent."""
    f = hess_one_solution(b=2)
    x = [1.0, 0.7, 1.3]
    h = 1e-5
    for i in range(3):
        xp, xm = list(x), list(x)
        xp[i] += h
        xm[i] -= h
        fd = (f.f(xp) - f.f(xm)) / (2 * h)
        assert abs(fd - f.grad(x)[i]) < 1e-7


@pytest.mark.parametrize("b", [0, 1e-9, 1e-3, 0.01, 0.1, 1, 2, 3])
def test_hess_one_value_matches_mpmath(b):
    """The Gauss–Legendre value of f = ∫₀^s (b + 4ξ³)^(1/3) dξ agrees with
    mpmath's quadrature, split where 4ξ³ overtakes b, within 1e-12 relative
    over s ∈ [0, 3.5]; at (s, s, 0) the square root s_of returns s itself."""
    mpmath = pytest.importorskip("mpmath")
    f = hess_one_solution(b=b).f
    r = (b / 4) ** (1 / 3)
    third = mpmath.mpf(1) / 3
    for s in [k * 0.1 for k in range(36)] + [1e-6, 1e-3, 0.05]:
        cuts = [0, r, s] if 0 < r < s else [0, s]
        ref = float(mpmath.quad(lambda t: (b + 4 * t ** 3) ** third, cuts))
        assert abs(f([s, s, 0.0]) - ref) <= 1e-12 * abs(ref), (b, s)


def test_generalized_solution(space):
    for g in (0, 1, 5):
        L = cs_generalized_solution(gamma=g, b=1)
        fld = FormField.constant(cs_form(float(g)))
        pts = sample_box([(0.5, 2)] * 3, 40, seed=0)
        rep = check_generalized_solution(L, fld, space, pts, tol=1e-6)
        assert rep.passed, (g, rep.max_lagrangian, rep.max_omega)


# --- the 6-sphere ---------------------------------------------------------

def test_s6_invariants(rng):
    worst_lam = worst_k2 = worst_mul = 0.0
    for _ in range(25):
        x = [rng.gauss(0, 1) for _ in range(7)]
        inv = s6_invariant(x)
        K = np.array(inv["K"])
        worst_lam = max(worst_lam, abs(inv["lambda"] + 1))
        worst_k2 = max(worst_k2, float(np.abs(K @ K + np.eye(6)).max()))
        worst_mul = max(worst_mul, inv["mult_residual"])
    assert worst_lam < 1e-9
    assert worst_k2 < 1e-8
    assert worst_mul < 1e-8


def test_import_does_not_load_scipy():
    """No module imports scipy, and numpy is imported only by the code that
    computes on arrays: ``import ma6`` loads neither."""
    src = os.path.dirname(os.path.dirname(ma6.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ma6; sys.exit('scipy' in sys.modules or 'numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
