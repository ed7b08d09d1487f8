"""Differential forms with variable coefficients on 6-dimensional charts:
exterior derivative, pullbacks, Monge-Ampère operator evaluation, solution
checks, and the closedness / flatness / integrability criteria.

Coordinates follow the (q1, q2, q3, p1, p2, p3) convention of the exterior
module; the aliases (x, y, z, p, q, h) name the same slots.  Coefficients
are either exact polynomials (`poly.Poly`) or black-box evaluators
point -> scalar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .exterior import COMBS, DIM, KForm, POS, dim_grade, merge_sign
from .hitchin import _derivation_table, _k_table, _pieces_pairing, pfaffian, theta_pairing
from .poly import Poly

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-6
CURVATURE_TOL = 1e-5


class BranchChangeError(ValueError):
    """λ changes sign across the sample points, or between a sample point
    and one of its stencil points."""


class DegeneratePointError(ValueError):
    pass


def _entry_eval(entry, x):
    if isinstance(entry, Poly):
        return entry.eval(x)
    if callable(entry):
        return entry(x)
    return entry  # constant scalar


class FormField:
    """A grade-k differential form on a 6-dim chart.

    A coefficient field has ``coeffs``, a dense tuple over lexicographic
    multi-indices; each entry is a Poly, a constant scalar, or a callable
    point -> scalar.  A pointwise field (``from_pointwise``) is one function
    point -> KForm, called once per evaluated point; it has no ``coeffs``.

    A field is immutable, and a callable entry or a pointwise function must
    be a function of the point alone: the field keeps the float terms of its
    Poly entries, built by its first ``batch``, and its last structure pass
    (see `closedness_check`), which the next check on the same space, points
    and h reads instead of evaluating the field again.
    """

    _entries = None  # coeffs with each Poly as its (exponents, float(c)) terms
    _pass = None  # (s, h, the float64 bytes of the points, the pass)

    def __init__(self, grade, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != dim_grade(grade):
            raise ValueError(f"grade {grade} needs {dim_grade(grade)} coefficients")
        self.grade = grade
        self.coeffs = coeffs
        self.fn = None

    @classmethod
    def constant(cls, form):
        return cls(form.grade, form.coeffs)

    @classmethod
    def from_pointwise(cls, grade, fn):
        """The field x -> fn(x) for a function point -> grade-k KForm."""
        fld = cls.__new__(cls)
        fld.grade, fld.coeffs, fld.fn = grade, None, fn
        return fld

    def is_polynomial(self):
        return self.fn is None and all(isinstance(c, Poly) or not callable(c)
                                       for c in self.coeffs)

    def evaluate(self, x):
        if self.fn is not None:
            return self.fn(x)
        return KForm(self.grade, tuple(_entry_eval(c, x) for c in self.coeffs))

    def batch(self, points):
        """The coefficients at each of N points: an (N, C(6, k)) float array
        equal, bitwise, to the floats of ``evaluate`` at each point.

        A pointwise field, and a callable entry, is called once per point.
        The other entries are evaluated for all N points as arrays: a
        constant c is float(c) at every point, and a Poly is summed from 0.0
        over its terms in dict order, each term float(c)·x_a·x_a·… with the
        factors multiplied in the order of ``Poly.eval``.  The float(c) are
        converted once per field, on the first call."""
        points = np.asarray(points, dtype=float).reshape(-1, DIM)
        if self.fn is not None:
            rows = [[float(c) for c in self.fn(y).coeffs] for y in points.tolist()]
            return np.array(rows).reshape(len(rows), dim_grade(self.grade))
        if self._entries is None:
            self._entries = tuple(
                tuple((e, float(c)) for e, c in entry.terms.items())
                if isinstance(entry, Poly) else entry for entry in self.coeffs)
        cols = [_entry_column(c, points) for c in self._entries]
        out = np.empty((len(points), len(cols)))
        out[:] = [c if isinstance(c, float) else 0.0 for c in cols]
        for i, c in enumerate(cols):
            if not isinstance(c, float):
                out[:, i] = c
        return out


def _entry_column(entry, points):
    """A coefficient entry at the rows of points: a float if it is the same
    at every point, else one value per point.  A Poly entry comes as its
    terms, a tuple of (exponents, float(c)) pairs in dict order."""
    if isinstance(entry, tuple):
        col = 0.0
        for e, t in entry:
            for a, k in enumerate(e):
                for _ in range(k):
                    t = t * points[:, a]
            col = col + t
        return col
    if callable(entry):
        return [float(entry(y)) for y in points.tolist()]
    return float(entry)


def _to_poly(entry):
    return entry if isinstance(entry, Poly) else Poly.const(entry)


def d_exact(fld):
    """Exact exterior derivative of a polynomial form field."""
    if not fld.is_polynomial():
        raise ValueError("exact exterior derivative needs polynomial coefficients")
    k = fld.grade
    out = [Poly({}) for _ in range(dim_grade(k + 1))]
    for idx, entry in zip(COMBS[k], fld.coeffs):
        p = _to_poly(entry)
        for a in range(1, DIM + 1):
            dp = p.diff(a - 1)
            if dp.is_zero():
                continue
            sign, merged = merge_sign((a,), idx)
            if sign:
                pos = POS[k + 1][merged]
                out[pos] = out[pos] + sign * dp
    return FormField(k + 1, out)


@lru_cache(maxsize=None)
def _incidence(k):
    """The signed incidence of grade k, shape (6·C(6, k), C(6, k + 1)): row
    a·C(6, k) + I, column J holds the sign of e_{a+1} ∧ e_I on e_J, so the
    partials ∂_a ω_I, flattened the same way, times it give dω."""
    D = np.zeros((DIM, dim_grade(k), dim_grade(k + 1)))
    for I, idx in enumerate(COMBS[k]):
        for a in range(DIM):
            sign, merged = merge_sign((a + 1,), idx)
            if sign:
                D[a, I, POS[k + 1][merged]] = sign
    return D.reshape(DIM * dim_grade(k), -1)


def _d_stencils(F, h, grade):
    """Central-difference exterior derivatives of grade-k forms from their
    coefficients F at the stencil points of n points, a (12n, C(6, k))
    array, each point's 12 rows those of `_stencil` at depth 1 (x + h·e_a
    in row 2a, x − h·e_a in row 2a + 1): an (n, C(6, k + 1)) array.
    Each point's partials take their own vector-matrix product with the
    incidence, so a point's d does not depend on n."""
    F = F.reshape(-1, 2 * DIM, dim_grade(grade))
    partials = (F[:, 0::2] - F[:, 1::2]) * (1.0 / (2 * h))
    return (partials.reshape(len(F), 1, -1) @ _incidence(grade))[:, 0]


def d_numeric(fld, x, h=DEFAULT_H):
    """Central-difference exterior derivative of a real field at a point."""
    d, = _d_stencils(fld.batch(_stencil(x, h, 1)[0][1:]), h, fld.grade)
    return KForm(fld.grade + 1, d.tolist())


class DiffeoMap:
    """A map ℝ⁶ → ℝ⁶ given by 6 component functions (Poly or callable)."""

    def __init__(self, components):
        if len(components) != DIM:
            raise ValueError("need 6 components")
        self.components = tuple(components)

    def is_polynomial(self):
        return all(isinstance(c, Poly) or not callable(c) for c in self.components)

    def __call__(self, x):
        return [_entry_eval(c, x) for c in self.components]

    def jacobian(self, x):
        """6x6 Jacobian at x, exact from the polynomial components."""
        return [[p.eval(x) for p in row] for row in self.jacobian_poly()]

    def jacobian_poly(self):
        if not self.is_polynomial():
            raise ValueError("symbolic Jacobian needs polynomial components")
        return [[_to_poly(c).diff(a) for a in range(DIM)] for c in self.components]


def pullback_field_poly(phi, fld):
    """Symbolic pullback φ*ω of a polynomial field along a polynomial map:
    each coefficient composed with φ, then pulled back by the Jacobian of φ
    as a form with Poly coefficients."""
    if not (phi.is_polynomial() and fld.is_polynomial()):
        raise ValueError("symbolic pullback needs polynomial data")
    comps = [_to_poly(c) for c in phi.components]
    form = KForm(fld.grade, [_to_poly(c).subst(comps) for c in fld.coeffs])
    pulled = form.pullback(phi.jacobian_poly())
    return FormField(fld.grade, map(_to_poly, pulled.coeffs))


def is_symplectomorphism(phi, s):
    """Check φ*Ω = Ω exactly (symbolically); φ must be polynomial."""
    omega_field = FormField.constant(s.omega)
    pb = pullback_field_poly(phi, omega_field)
    return all(_to_poly(a) == _to_poly(b)
               for a, b in zip(pb.coeffs, omega_field.coeffs))


class SectionMap:
    """A function f: ℝ³ → ℝ with gradient and Hessian access.

    Closed-form ``grad``/``hess`` are used when supplied; otherwise central
    finite differences of f with step ``h``.
    """

    def __init__(self, f, grad=None, hess=None, h=DEFAULT_H):
        self.f = f
        self._grad = grad
        self._hess = hess
        self.h = h

    @classmethod
    def from_poly(cls, p):
        """Exact section from a polynomial in the three base variables."""
        grads = [p.diff(i) for i in range(3)]
        hess = [[p.diff(i).diff(j) for j in range(3)] for i in range(3)]

        def pad(x):
            return tuple(x) + (0, 0, 0)

        return cls(
            f=lambda x: float(p.eval(pad(x))),
            grad=lambda x: [float(g.eval(pad(x))) for g in grads],
            hess=lambda x: [[float(hess[i][j].eval(pad(x))) for j in range(3)]
                            for i in range(3)],
        )

    def __call__(self, x):
        return self.f(x)

    def grad(self, x):
        if self._grad is not None:
            return list(self._grad(x))
        g = []
        for a in range(3):
            xp = list(x)
            xm = list(x)
            xp[a] += self.h
            xm[a] -= self.h
            g.append((self.f(xp) - self.f(xm)) / (2 * self.h))
        return g

    def hess(self, x):
        if self._hess is not None:
            return [list(r) for r in self._hess(x)]
        h = max(self.h, 3e-4)  # nested differences lose accuracy; widen the step
        H = [[0.0] * 3 for _ in range(3)]
        f = self.f
        for a in range(3):
            for b in range(a, 3):
                if a == b:
                    xp = list(x)
                    xm = list(x)
                    xp[a] += h
                    xm[a] -= h
                    H[a][a] = (f(xp) - 2 * f(x) + f(xm)) / (h * h)
                else:
                    val = 0.0
                    for sa, sb, w in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                        xx = list(x)
                        xx[a] += sa * h
                        xx[b] += sb * h
                        val += w * f(xx)
                    H[a][b] = H[b][a] = val / (4 * h * h)
        return H


def ma_operator(fld, section, x):
    """The Monge-Ampère expression of ω at the base point x ∈ ℝ³.

    Substitutes p_i = ∂f/∂x_i and dp_i = Σ_j f_ij dx_j into ω and returns
    the coefficient of dx1∧dx2∧dx3.
    """
    if fld.grade != 3:
        raise ValueError("Monge-Ampère operators come from 3-forms")
    grad = section.grad(x)
    H = section.hess(x)
    point = list(x) + list(grad)
    # rows of the graph map's Jacobian: identity over the base, H over fibers
    J = [[1 if i == j else 0 for j in range(3)] for i in range(3)] + \
        [[H[i][j] for j in range(3)] for i in range(3)]
    return fld.evaluate(point).pullback(J)[0]


class Submanifold3:
    """A parametrized 3-submanifold u: U ⊆ ℝ³ → ℝ⁶."""

    def __init__(self, components, h=DEFAULT_H):
        if len(components) != DIM:
            raise ValueError("need 6 components")
        self.components = tuple(components)
        self.h = h

    def __call__(self, u):
        return [_entry_eval(c, tuple(u) + (0, 0, 0)) if isinstance(c, Poly)
                else c(u) if callable(c) else c
                for c in self.components]

    def jacobian(self, u):
        """6x3 Jacobian (columns = tangent vectors), by central differences."""
        J = [[0.0] * 3 for _ in range(DIM)]
        for a in range(3):
            up = list(u)
            um = list(u)
            up[a] += self.h
            um[a] -= self.h
            fp, fm = self(up), self(um)
            for i in range(DIM):
                J[i][a] = (fp[i] - fm[i]) / (2 * self.h)
        return J


def _worst(residuals):
    """The largest residual, 0.0 for none, and NaN if any is NaN, where
    Python's max would drop it."""
    return float(np.max(np.asarray(list(residuals), dtype=float), initial=0.0))


@dataclass
class SolutionReport:
    passed: bool
    max_lagrangian: float
    max_omega: float
    n_points: int
    excluded: list = dc_field(default_factory=list)
    tol: float = DEFAULT_TOL


def check_generalized_solution(L, fld, s, params, tol=DEFAULT_TOL):
    """Check that L is Lagrangian for Ω and that ω vanishes on it.

    ``params`` are parameter-space sample points; rank-deficient points are
    excluded and reported.
    """
    lags, oms = [], []
    excluded = []
    for u in params:
        J = L.jacobian(u)
        if np.linalg.matrix_rank(np.array(J, dtype=float), tol=1e-8) < 3:
            excluded.append(tuple(u))
            continue
        t = [[J[i][a] for i in range(DIM)] for a in range(3)]
        lags += [abs(s.omega.evaluate(t[a], t[b])) for a in range(3) for b in range(a + 1, 3)]
        oms.append(abs(fld.evaluate(L(u)).evaluate(*t)))
    n = len(oms)
    max_lag, max_om = _worst(lags), _worst(oms)
    return SolutionReport(passed=(n > 0 and max_lag <= tol and max_om <= tol),
                          max_lagrangian=max_lag, max_omega=max_om,
                          n_points=n, excluded=excluded, tol=tol)


# --- pointwise invariants of a 3-form field -------------------------------

def _degenerate(lam, scale):
    """The degeneracy guard |λ| < 1e-8·(1 + |ω|)⁴, λ quartic in ω; for
    numbers or for arrays of λ and |ω|."""
    return abs(lam) < 1e-8 * (1 + scale) ** 4


def lambda_field(fld, s, x):
    """λ(ω(x)), exact for exact ω; raises DegeneratePointError below the
    degeneracy threshold."""
    omega = fld.evaluate(x)
    lam = pfaffian(omega, s)
    if _degenerate(lam, float(omega.max_abs())):
        raise DegeneratePointError(f"|λ| below threshold at {tuple(x)}")
    return lam


def _lambdas(K):
    """λ = tr(K²)/6 for each row of K, an (N, 36) array of 6x6 matrices,
    summed in the order of `hitchin._lambda_of_k`: K_ik·K_ki over k for each
    i, then over i, each sum from 0.0.  So a row's λ does not depend on the
    other rows and is, bitwise, the float `pfaffian` of its form."""
    K3 = K.reshape(-1, DIM, DIM)
    P = K3 * K3.transpose(0, 2, 1)  # K_ik·K_ki as [n, i, k]
    rows = 0.0
    for k in range(DIM):
        rows = rows + P[:, :, k]
    t = 0.0
    for i in range(DIM):
        t = t + rows[:, i]
    return t / 6


def _structure_pass(fld, s, points, h):
    """λ, nω = |λ|^(−1/4)·ω and nω̂ = |λ|^(−1/4)·ω̂ at the n sample points,
    arrays of shape (n,), (n, 20) and (n, 20), and d(nω), d(nω̂) there, by
    central differences, each (n, 15); all five read-only.

    The field is evaluated once, as one batch of 13 rows per point: the n
    sample points x, then the 12 points x ± h·e_a of each, from `_stencil`.
    θ·K, λ = tr(K²)/6 and K·ω, hence ω̂ = λ/(3|λ|^(3/2))·K·ω, come for all
    13n rows from the batched tables, and every d from one product with the
    incidence.  A table row, its λ and a point's d do not depend on the
    batch, so this is bitwise one pass on the sample points and one per
    stencil.

    Before any normalization, in this order: the first sample point whose λ
    is not finite or fails the degeneracy guard raises DegeneratePointError
    naming it; λ changing sign across the sample points raises
    BranchChangeError; then, point by point, the first such stencil point
    raises DegeneratePointError, and a stencil point with λ of the other
    sign crosses the branch and raises BranchChangeError.  A failed pass is
    not kept; a passed one is kept on the field, and returned again for the
    same space, h and float64 points."""
    X = np.asarray(points, dtype=float).reshape(-1, DIM)
    key = X.tobytes()
    memo = fld._pass
    if memo is not None and memo[0] is s and memo[1] == h and memo[2] == key:
        return memo[3]
    n = len(X)
    P = np.concatenate([X] + [_stencil(x, h, 1)[0][1:] for x in X])
    W = fld.batch(P)
    K = _k_table().batch(W) / float(s.theta.coeffs[0])
    lams = _lambdas(K)
    bad = ~np.isfinite(lams) | _degenerate(lams, np.abs(W).max(axis=1))

    def guard(start, stop):
        if bad[start:stop].any():
            i = start + bad[start:stop].argmax()
            what = "below threshold" if np.isfinite(lams[i]) else "not finite"
            raise DegeneratePointError(f"|λ| {what} at {tuple(P[i].tolist())}")

    guard(0, n)
    positive = lams > 0
    if len(set(positive[:n].tolist())) != 1:
        raise BranchChangeError("λ changes sign across the sample region")
    for i, x in enumerate(points):
        start = n + 2 * DIM * i
        guard(start, start + 2 * DIM)
        crossed = positive[start:start + 2 * DIM] != positive[i]
        if crossed.any():
            y = tuple(P[start + crossed.argmax()].tolist())
            raise BranchChangeError(
                f"λ changes sign between the sample point {tuple(x)} and its "
                f"stencil point {y}")
    r = 1.0 / np.abs(lams) ** 0.25
    factor = lams / (3 * np.abs(lams) ** 1.5)
    n_omega = W * r[:, None]
    n_dual = _derivation_table().batch(K, W) * factor[:, None] * r[:, None]
    d = _d_stencils(np.concatenate([n_omega[n:], n_dual[n:]]), h, 3)
    result = (lams[:n].copy(), n_omega[:n].copy(), n_dual[:n].copy(), d[:n], d[n:])
    for a in result:
        a.flags.writeable = False
    fld._pass = (s, h, key, result)
    return result


@dataclass
class CheckReport:
    passed: bool
    max_residual: float
    n_points: int
    tol: float
    details: dict = dc_field(default_factory=dict)


def closedness_check(fld, s, points, h=DEFAULT_H, tol=DEFAULT_TOL):
    """d of both |λ|^(−1/4)-normalized fields (ω and ω̂) at sample points.

    The field is evaluated at the sample points and their 12 stencil points
    x ± h·e_a in one batch, 13 rows per point, and the field keeps this
    pass: `gcy_integrability_check` on the same space, points and h reads
    it and evaluates nothing.  Every row is evaluated before any is
    checked, so a pointwise function that raises at a stencil point raises
    before a sign change across the sample points would; otherwise the
    errors are those of a sample-point pass followed by one stencil pass
    per point (see `_structure_pass`)."""
    _, _, _, dn, dd = _structure_pass(fld, s, points, h)
    res_n, res_d = float(np.abs(dn).max()), float(np.abs(dd).max())
    worst = max(res_n, res_d)
    return CheckReport(passed=worst <= tol, max_residual=worst,
                       n_points=len(points), tol=tol,
                       details={"normalized": res_n, "dual": res_d})


def gcy_integrability_check(fld, s, points, h=DEFAULT_H, tol=DEFAULT_TOL):
    """dα = dβ = 0 for the pointwise splitting of the normalized field, plus
    constancy of (α∧β)/Ω³.  d is linear, so dα and dβ come from d(nω) and
    d(nω̂): (dnω ± dnω̂)/2 in the hyperbolic branch, (dnω ± i·dnω̂)/2 in the
    elliptic one, where |dβ| = |dα|.  Which piece is α is decided by an
    orientation that keeps its sign along a stencil of one branch, so the
    larger residual of the two needs no split.  Θ(α, β), and so
    (α∧β)/Ω³ with Ω³ = −6θ, comes from Θ(nω̂, nω) of the sample point's own
    pair, as in `hitchin._split`.  The same pass gives the closedness
    verdict.  The pass is `closedness_check`'s, one batch of 13 rows per
    sample point, with the same errors; after that check on the same
    space, points and h, it is read from the field."""
    lams, n_omega, n_dual, dns, dds = _structure_pass(fld, s, points, h)
    res = 0.0
    res_closed = 0.0
    ratios = []
    for lam, nw, nd, dn, dd in zip(lams, n_omega, n_dual, dns, dds):
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
    return CheckReport(passed=integrable, max_residual=res,
                       n_points=len(points), tol=tol,
                       details={"ratio_deviation": ratio_dev,
                                "ratio": ratios[0],
                                "closedness_residual": res_closed,
                                "closedness_passed": closed,
                                "agrees_with_closedness": closed == integrable})


# --- curvature of a metric field ------------------------------------------

class MetricField:
    """A metric field, evaluated at a batch of points: ``batch`` maps an
    (N, 6) array of points to the (N, 6, 6) array of symmetric metrics.
    ``MetricField(fn)`` calls a function point -> 6x6 array once per point."""

    def __init__(self, fn):
        self.batch = lambda points: np.array([np.asarray(fn(x), dtype=float)
                                              for x in points])

    @classmethod
    def constant(cls, M):
        arr = np.array(M, dtype=float)
        return cls(lambda x: arr)

    @classmethod
    def from_q_field(cls, fld, s):
        """The quadratic invariant q_ω(x) of an effective 3-form field, the
        field evaluated once per point and q taken for all points at once."""
        from .lr import q_matrices

        g = cls.__new__(cls)
        g.batch = lambda points: q_matrices(fld.batch(points), s)
        return g

    def __call__(self, x):
        return self.batch([x])[0]


@lru_cache(maxsize=None)
def _stencil_plan(depth):
    """The shape of `_stencil` at a depth, which does not depend on x or h:
    the number of points, for the first and the second ±h step of a point
    the (rows, axes, signs) of the points that take it, and nb."""
    index, paths = {}, []

    def add(path):
        key = tuple(sum(sign for a, sign in path if a == b) for b in range(DIM))
        if key not in index:
            index[key] = len(paths)
            paths.append(path)
        return index[key]

    inner = [()]
    if depth == 2:
        inner += [((a, sign),) for a in range(DIM) for sign in (1, -1)]
    for path in inner:
        add(path)
    nb = np.array([[[add(path + ((b, sign),)) for sign in (1, -1)] for b in range(DIM)]
                   for path in inner])
    nb.flags.writeable = False
    steps = []
    for n in range(depth):
        taken = [(i, *path[n]) for i, path in enumerate(paths) if len(path) > n]
        steps.append(tuple(np.array(v) for v in zip(*taken)))
    return len(paths), steps, nb


def _stencil(x, h, depth):
    """The points at which the metric is needed for Γ (depth 1) or for ∂Γ
    (depth 2) at x, each once.  Γ is wanted at the inner points y_c: x, and
    for depth 2 also x ± h·e_a (c = 2a + 1, 2a + 2).  Returns the points,
    the inner points first, and nb with nb[c, b] the indices of y_c + h·e_b
    and y_c − h·e_b.  At depth 2 that is 85 points: x, x ± h·e_a,
    x ± 2h·e_a and x ± h·e_a ± h·e_b for a < b.  A point takes its first
    step from x and its second from there, so x ± 2h·e_a is (x ± h) ± h."""
    n, steps, nb = _stencil_plan(depth)
    points = np.tile(np.asarray(x, dtype=float), (n, 1))
    for rows, axes, signs in steps:
        points[rows, axes] += signs * h
    return points, nb


def _christoffels(G, nb, h):
    """Γ^k_{ij}, indexed [c, k, i, j], at the inner points of a stencil from
    the metric G at its points."""
    dg = (G[nb[:, :, 0]] - G[nb[:, :, 1]]) / (2 * h)  # ∂_a g_{ij} as [c, a, i, j]
    ginv = np.linalg.inv(G[:len(nb)])
    # dg[i][j, l] + dg[j][i, l] − dg[l][i, j], indexed [c, i, j, l]
    t = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("ckl,cijl->ckij", ginv, t)


def christoffel(g, x, h=DEFAULT_H):
    """Γ^k_{ij} by central differences of the metric, from one batch of 13
    points."""
    points, nb = _stencil(x, h, 1)
    return _christoffels(g.batch(points), nb, h)[0]


def riemann(g, x, h=DEFAULT_H):
    """R^l_{kij} = ∂_iΓ^l_{jk} − ∂_jΓ^l_{ik} + Γ^l_{im}Γ^m_{jk} − Γ^l_{jm}Γ^m_{ik},
    with the metric evaluated once, as one batch of 85 points."""
    points, nb = _stencil(x, h, 2)
    gammas = _christoffels(g.batch(points), nb, h)
    gam = gammas[0]
    dgamma = (gammas[1::2] - gammas[2::2]) / (2 * h)  # ∂_aΓ^l_{jk} as [a, l, j, k]
    # ∂_iΓ^l_{jk} and Γ^l_{im}Γ^m_{jk}, indexed [l, k, i, j]; the other two
    # terms are these with i and j swapped
    dgam = np.einsum("iljk->lkij", dgamma)
    gg = np.einsum("lim,mjk->lkij", gam, gam)
    return dgam - dgam.transpose(0, 1, 3, 2) + gg - gg.transpose(0, 1, 3, 2)


def flatness_check(g, points, h=DEFAULT_H, tol=CURVATURE_TOL):
    """Flat iff every curvature component is ≤ tol at every sample point."""
    worst = _worst(np.abs(riemann(g, x, h)).max() for x in points)
    return CheckReport(passed=worst <= tol, max_residual=worst,
                       n_points=len(points), tol=tol)


def sample_box(box, n, seed=0):
    """n uniform points in a box given as a list of (lo, hi) pairs."""
    rng = random.Random(seed)
    return [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(n)]
