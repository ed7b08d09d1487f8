"""Two worked examples: the semi-geostrophic Monge-Ampère equation
f_xx f_yy − f_xy² + f_zz = γ with its reduction to det Hess = 1, and the
invariants of the associative 3-form restricted to the 6-sphere.

The cotangent chart is (x, y, z, p, q, h) in the slots (e1..e6), with
symplectic form dx∧dp + dy∧dq + dz∧dh.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exterior import COMBS, KForm
from .fields import DiffeoMap, FormField, SectionMap, Submanifold3, _worst
from .poly import Poly


def cs_form(gamma=0):
    """The effective form dp∧dq∧dz + dx∧dy∧dh − γ dx∧dy∧dz of the
    semi-geostrophic equation with right-hand side γ."""
    one = gamma - gamma + 1
    return (KForm.basis(3, 4, 5, scale=one) + KForm.basis(1, 2, 6, scale=one)
            - KForm.basis(1, 2, 3, scale=gamma))


def cs_reduction(gamma=0):
    """The symplectomorphism φ(x,y,z,p,q,h) = (x,y,h,p,q,γh−z).

    It pulls the semi-geostrophic form back to dp∧dq∧dh − dx∧dy∧dz, the
    form of det Hess = 1, for every γ; a float γ enters as its exact value.
    """
    x, y, z, p, q, h = [Poly.var(i) for i in range(6)]
    return DiffeoMap([x, y, h, p, q, Fraction(gamma) * h - z])


def hess_one_form():
    """The effective form dp∧dq∧dh − dx∧dy∧dz of det Hess f = 1."""
    return KForm.basis(4, 5, 6) - KForm.basis(1, 2, 3)


def cs_regular_solution():
    """The γ = 0 solution f = (1/3)(x² + 2y)^(3/2) − z²/2.

    Defined where x² + 2y > 0; gradient and Hessian are closed-form.
    """

    def f(v):
        x, y, z = v
        return (x * x + 2 * y) ** 1.5 / 3 - z * z / 2

    def grad(v):
        x, y, z = v
        r = math.sqrt(x * x + 2 * y)
        return [x * r, r, -z]

    def hess(v):
        x, y, z = v
        r = math.sqrt(x * x + 2 * y)
        return [[r + x * x / r, x / r, 0.0],
                [x / r, 1.0 / r, 0.0],
                [0.0, 0.0, -1.0]]

    return SectionMap(f, grad=grad, hess=hess)


@lru_cache(maxsize=1)
def _gauss_legendre16():
    """The (node, weight) pairs of the 16-point Gauss–Legendre rule on [−1, 1]."""
    from numpy.polynomial.legendre import leggauss

    return tuple(zip(*(a.tolist() for a in leggauss(16))))


def hess_one_solution(b=1):
    """The det Hess = 1 solution f = ∫₀^s (b + 4ξ³)^(1/3) dξ with
    s = √(xy + yz + zx), on the region xy + yz + zx > 0.

    Gradient and Hessian are closed-form from f_x = (b + 4s³)^(1/3) (y+z)/(2s)
    and its cyclic partners; no check reads the value.  The value is a fixed
    16-node Gauss–Legendre rule on the panels [0, r], [r, 2r], [2r, 4r], …
    cut off at s, r = (b/4)^(1/3) the scale at which 4ξ³ overtakes b (one
    panel [0, s] when b = 0, where the integrand is linear).  Against
    ``mpmath.quad`` it agrees within 1e-15 relative for b from 0 to 3 and
    s in [0, 3.5].  Its nodes come from numpy, imported on the first value.
    """
    b = float(b)

    def s_of(v):
        x, y, z = v
        return math.sqrt(x * y + y * z + z * x)

    def f(v):
        s = s_of(v)
        r = (b / 4) ** (1 / 3)
        total, lo, hi = 0.0, 0.0, r if r > 0 else s
        while lo < s:
            hi = min(hi, s)
            half, mid = (hi - lo) / 2, (hi + lo) / 2
            total += half * sum(w * (b + 4 * (mid + half * t) ** 3) ** (1 / 3)
                                for t, w in _gauss_legendre16())
            lo, hi = hi, 2 * hi
        return total

    def grad(v):
        x, y, z = v
        s = s_of(v)
        c = (b + 4 * s ** 3) ** (1 / 3) / (2 * s)
        return [c * (y + z), c * (z + x), c * (x + y)]

    def hess(v):
        x, y, z = v
        s = s_of(v)
        u = b + 4 * s ** 3
        c = u ** (1 / 3) / (2 * s)
        # dc/ds = 2 s u^(-2/3) − u^(1/3)/(2s²)
        dc = 2 * s * u ** (-2 / 3) - u ** (1 / 3) / (2 * s * s)
        ds = [(y + z) / (2 * s), (z + x) / (2 * s), (x + y) / (2 * s)]
        w = [y + z, z + x, x + y]
        H = [[dc * ds[j] * w[i] for j in range(3)] for i in range(3)]
        # ∂w_i/∂x_j = 1 − δ_ij
        for i in range(3):
            for j in range(3):
                if i != j:
                    H[i][j] += c
        return H

    return SectionMap(f, grad=grad, hess=hess)


def cs_generalized_solution(gamma=0, b=1):
    """The generalized solution surface of the semi-geostrophic equation:
    (x, y, (x+y)α, (y+z)α, (z+x)α, γ(x+y)α − z) with
    α = ((b/(xy+yz+zx)^(3/2)) + 4)^(1/3) / 2.

    It is the image under the reduction map of the graph of the gradient of
    the det Hess = 1 solution; parameters range over xy + yz + zx > 0.
    """
    gamma = float(gamma)
    b = float(b)

    def alpha(u):
        x, y, z = u
        return ((b / (x * y + y * z + z * x) ** 1.5) + 4) ** (1 / 3) / 2

    def comp(i):
        def fn(u):
            x, y, z = u
            al = alpha(u)
            return [x, y, (x + y) * al, (y + z) * al, (z + x) * al,
                    gamma * (x + y) * al - z][i]
        return fn

    return Submanifold3([comp(i) for i in range(6)])


# --- the associative 3-form on the 6-sphere -------------------------------

def tangent_frame(x):
    """An orthonormal oriented-by-construction frame of the tangent space of
    the unit sphere in the imaginary octonions at x (a 7-vector).

    Gram-Schmidt is applied to the standard basis with the coordinate axis
    closest to x dropped.
    """
    n = math.sqrt(sum(a * a for a in x))
    x = [a / n for a in x]
    drop = max(range(7), key=lambda i: abs(x[i]))
    frame = []
    basis = [x]  # orthogonalize against the normal first
    for i in range(7):
        if i == drop:
            continue
        v = [1.0 if j == i else 0.0 for j in range(7)]
        for w in basis:
            d = sum(a * b for a, b in zip(v, w))
            v = [a - d * b for a, b in zip(v, w)]
        m = math.sqrt(sum(a * a for a in v))
        if m < 1e-12:
            raise ValueError("degenerate frame")
        v = [a / m for a in v]
        basis.append(v)
        frame.append(v)
    return x, frame


def s6_form_at(x):
    """The 3-form 2^(−1/2) φ restricted to the tangent space at x ∈ S⁶,
    expressed in an orthonormal frame; returns (form, frame, unit_x)."""
    from .octonion import associative_form

    x, frame = tangent_frame(x)
    coeffs = []
    inv_sqrt2 = 1 / math.sqrt(2)
    for idx in COMBS[3]:
        i, j, k = idx
        coeffs.append(inv_sqrt2 * associative_form(
            frame[i - 1], frame[j - 1], frame[k - 1]))
    return KForm(3, coeffs), frame, x


def s6_invariant(x):
    """λ and K of the restricted associative form at x ∈ S⁶.

    The volume form of the induced metric is ±e123456 in an orthonormal
    frame; the orientation is fixed so that λ = −1 gives K² = −Id with K
    equal to left octonion multiplication by x on the tangent space.

    Returns a dict with lambda, K (6x6 in the frame), the frame and the
    mult_residual comparing K to Y ↦ x·Y.
    """
    from .hitchin import _lambda_of_k, hitchin_k
    from .octonion import Octonion

    omega, frame, ux = s6_form_at(x)
    K = hitchin_k(omega, KForm.basis(1, 2, 3, 4, 5, 6, scale=1.0))
    lam = _lambda_of_k(K)
    # compare with left multiplication L_x on the tangent space
    ox = Octonion((0.0,) + tuple(ux))
    L = [[0.0] * 6 for _ in range(6)]
    for j in range(6):
        ov = Octonion((0.0,) + tuple(frame[j]))
        prod = (ox * ov).imag()
        for i in range(6):
            L[i][j] = sum(a * b for a, b in zip(prod, frame[i]))
    res_plus = _worst(abs(K[i][j] - L[i][j]) for i in range(6) for j in range(6))
    res_minus = _worst(abs(K[i][j] + L[i][j]) for i in range(6) for j in range(6))
    if res_minus < res_plus:
        # the frame orientation disagrees with the one fixing K = L_x;
        # flip the volume form (which flips K) instead of reordering
        K = [[-e for e in row] for row in K]
        res_plus = res_minus
    return {"lambda": lam, "K": K, "frame": frame, "x": ux,
            "mult_residual": res_plus}
