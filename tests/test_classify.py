"""Orbit classification against the nine normal forms, invariance under
symplectic changes of basis, and the assembled Calabi-Yau-type data."""

import copy
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ma6.exterior
import ma6.hitchin
import ma6.lr
import ma6.symplectic

from ma6.classify import (
    OrbitClass,
    TABLE1_CLASSES,
    UnclassifiableError,
    build_gcy,
    classify,
    table1_form,
)
from ma6.documents import parse_form
from ma6.exterior import ExactComplex, KForm, QuadraticTable, _bot_table, _im, wedge
from ma6.hitchin import (
    LAMBDA_ZERO_TOL,
    DegenerateFormError,
    ExactnessError,
    SplitPair,
    _dual,
    _lambda_of_k,
    _split,
    hitchin_k,
    k_squared,
    pfaffian,
    split_pair,
)
from ma6.lr import _q_of_k, in_sp3, q_form, q_matrices
from ma6.symplectic import (
    EffectivenessError,
    SymplecticSpace,
    bot,
    is_effective,
    project_effective,
    standard_space,
)

from conftest import reference_table1_form

from conftest import darboux_map, rand_fraction, reference_signature, sheared_float_form

PARAMS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]

PRINTED_SIGNATURES = {
    1: (3, 3), 2: (0, 6), 3: (4, 2), 4: (0, 3), 5: (2, 1),
    6: (0, 1), 7: (1, 0), 8: (0, 0), 9: (0, 0),
}


def expected_lambda(row, p):
    if row == 1:
        return p ** 4
    if row in (2, 3):
        return -p ** 4
    return Fraction(0)


def test_table_rows_classify(space):
    for row, cls in TABLE1_CLASSES.items():
        for p in PARAMS:
            omega = table1_form(row, p)
            got, report = classify(omega, space)
            assert got == cls, (row, p)
            assert report.lambda_ == expected_lambda(row, p)
            sig = report.signature
            assert (sig.pos, sig.neg) == PRINTED_SIGNATURES[row], (row, p)


def symplectic_shears(A, shears):
    """The product of the symplectic transvections x ↦ x + c·Ω(x, v)·v, one
    per (v, c) in shears, for the Ω with matrix A."""
    M = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    for v, c in shears:
        # T e_j = e_j + c·Ω(e_j, v)·v
        T = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
        for j in range(6):
            om = sum(A[j][k] * v[k] for k in range(6))
            for i in range(6):
                T[i][j] += c * om * v[i]
        M = [[sum(M[i][k] * T[k][j] for k in range(6)) for j in range(6)]
             for i in range(6)]
    return M


def random_symplectic(rng, n_factors=6):
    """A random symplectic matrix of the standard symplectic form: a product
    of n_factors transvections."""
    from ma6.symplectic import standard_space

    shears = [([Fraction(rng.randint(-2, 2)) for _ in range(6)],
               Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
              for _ in range(n_factors)]
    return symplectic_shears(standard_space().matrix, shears)


def test_symplectic_matrices_preserve_omega(space, rng):
    for _ in range(5):
        S = random_symplectic(rng)
        assert space.omega.pullback(S) == space.omega


def test_classification_is_symplectic_invariant(space, rng):
    """The class and invariants are unchanged by a symplectic pullback."""
    for row in (1, 2, 3, 4, 5, 6, 7, 8):
        omega = table1_form(row, Fraction(2))
        S = random_symplectic(rng, n_factors=4)
        moved = omega.pullback(S)
        got, report = classify(moved, space)
        assert got == TABLE1_CLASSES[row], row
        assert report.lambda_ == expected_lambda(row, Fraction(2))
        sig = report.signature
        assert (sig.pos, sig.neg) == PRINTED_SIGNATURES[row]


def test_classify_rejects_non_effective(space):
    with pytest.raises(EffectivenessError):
        classify(KForm.basis(1, 2, 4), space)


def test_build_gcy_hyperbolic_anchor(space):
    st = build_gcy(table1_form(1, Fraction(1)), space)
    assert st.branch == "hyperbolic"
    K = [list(r) for r in st.K]
    assert K == [[(1 if i < 3 else -1) if i == j else 0 for j in range(6)]
                 for i in range(6)]
    assert st.alpha + st.beta == table1_form(1, Fraction(1))
    assert st.ratio == Fraction(-1, 6)


_split_rows = st.sampled_from([1, 2, 3])
_row_params = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
_small_shears = st.lists(st.tuples(st.lists(st.integers(-1, 1), min_size=6, max_size=6),
                                   st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))),
                         min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(row=_split_rows, p=_row_params, shears=_small_shears)
def test_build_gcy_ratio_is_constant(space, row, p, shears):
    """(α∧β)/Ω³ is −1/6 on the hyperbolic branch and −i/6 on the elliptic
    one for every normalized pair, by Hitchin's ω̂∧ω ∝ √|λ|·θ: checked on
    float forms of table rows 1 (hyperbolic), 2 and 3 (elliptic) moved by
    an exact product of Sp(6) shears.  The float error grows with the cube
    of the size n of the normalized form α + β: within 1e-12 for n ≤ 3.6,
    and 1.6e-12 was seen at n ≈ 10."""
    moved = table1_form(row, p).pullback(symplectic_shears(space.matrix, shears))
    structure = build_gcy(KForm(3, [float(c) for c in moved.coeffs]), space)
    assert structure.branch == ("hyperbolic" if row == 1 else "elliptic")
    want = -1 / 6 if row == 1 else -1j / 6
    n = (structure.alpha + structure.beta).max_abs()
    assert abs(structure.ratio - want) <= 1e-14 * (1 + n) ** 3


def reference_split(omega, lam, exact, dual, theta):
    """The split oriented by wedging its pieces: α = (ω + ω̂)/2 and
    β = (ω − ω̂)/2 swap when (α∧β)/θ < 0; α = (ω + iω̂)/2 and ᾱ swap when
    Im (α∧ᾱ)/θ < 0."""
    half = Fraction(1, 2) if exact else 0.5
    if lam > 0:
        alpha, beta = (omega + dual) * half, (omega - dual) * half
        if wedge(alpha, beta).coeffs[0] / theta.coeffs[0] < 0:
            alpha, beta = beta, alpha
        return SplitPair("hyperbolic", alpha, beta)
    alpha = (omega + dual * (ExactComplex(0, 1) if exact else 1j)) * half
    abar = alpha.conjugate()
    if _im(wedge(alpha, abar).coeffs[0] / theta.coeffs[0]) < 0:
        alpha, abar = abar, alpha
    return SplitPair("elliptic", alpha, abar)


@settings(max_examples=30, deadline=None)
@given(row=_split_rows, p=_row_params, shears=_small_shears,
       coeffs=st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                       min_size=20, max_size=20))
def test_split_and_ratio_match_wedge_reference(space, other_space, row, p, shears, coeffs):
    """One pairing Θ(ω̂, ω) orients the split and gives the ratio.  On both
    spaces, for table rows 1-3 moved by an exact product of Sp(6) shears,
    exact and in floats, and for a random effective form in floats: _split
    gives the pieces of the wedge-oriented reference (==), and build_gcy's
    ratio is (α∧β)/θ/−6 with the same type, exactly, or within
    1e-14·(1 + |α + β|)³ in floats.  build_gcy needs an effective form and,
    when exact, a rational |λ|^(1/4): the moved rows are effective on the
    standard space only, and |λ| = p⁴/4 on the other one."""
    for s in (space, other_space):
        moved = table1_form(row, p).pullback(symplectic_shears(s.matrix, shears))
        rand = project_effective(s, KForm(3, coeffs))
        for omega, builds in ((moved, s is space),
                              (KForm(3, [float(c) for c in moved.coeffs]), s is space),
                              (KForm(3, [float(c) for c in rand.coeffs]), True)):
            try:
                dual_of = _dual(omega, hitchin_k(omega, s))
            except DegenerateFormError:
                assert omega is not moved
                continue
            sp, ref = _split(omega, *dual_of, s.theta), reference_split(omega, *dual_of, s.theta)
            assert (sp.branch, sp.alpha, sp.beta) == (ref.branch, ref.alpha, ref.beta)
            if not builds:
                continue
            gcy = build_gcy(omega, s)
            want = wedge(gcy.alpha, gcy.beta).coeffs[0] / s.theta.coeffs[0] / -6
            assert type(gcy.ratio) is type(want)
            if omega is moved:
                assert gcy.ratio == want
            else:
                n = (gcy.alpha + gcy.beta).max_abs()
                assert abs(gcy.ratio - want) <= 1e-14 * (1 + n) ** 3


def test_build_gcy_elliptic(space):
    st = build_gcy(table1_form(2, Fraction(1)), space)
    assert st.branch == "elliptic"
    K = [list(r) for r in st.K]
    K2 = [[sum(K[i][k] * K[k][j] for k in range(6)) for j in range(6)]
          for i in range(6)]
    assert K2 == [[-1 if i == j else 0 for j in range(6)] for i in range(6)]
    # metric definiteness: the elliptic normal form gives a definite g
    from ma6.lr import signature

    sig = signature(st.g)
    assert sig.zero == 0 and sig.pos * sig.neg == 0


def test_build_gcy_normalizes(space):
    """A scaled hyperbolic form yields the same K as its normal form."""
    st1 = build_gcy(table1_form(1, Fraction(1)), space)
    st2 = build_gcy(table1_form(1, Fraction(1)) * Fraction(3), space)
    assert st1.K == st2.K


_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_shears = st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=6, max_size=6),
                             st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))),
                   min_size=1, max_size=4)


@settings(max_examples=20, deadline=None)
@given(coeffs=st.lists(_fractions, min_size=20, max_size=20), shears=_shears)
def test_q_and_class_are_symplectic_invariants(space, other_space, coeffs, shears):
    """For g an exact product of Sp(6) shears of Ω, on both spaces:
    Q(g*ω) = gᵀQ(ω)g and classify(g*ω) == classify(ω)."""
    for s in (space, other_space):
        g = symplectic_shears(s.matrix, shears)
        omega = project_effective(s, KForm(3, coeffs))
        moved = omega.pullback(g)
        Q = q_form(omega, s).matrix
        gtqg = [[sum(g[k][i] * Q[k][l] * g[l][j] for k in range(6) for l in range(6))
                 for j in range(6)] for i in range(6)]
        assert [list(row) for row in q_form(moved, s).matrix] == gtqg
        assert classify(moved, s) == classify(omega, s)


@pytest.fixture
def calls(monkeypatch):
    """Counts of hitchin_k, symplectic.bot and lr._q_of_k calls, under every
    name a ma6 module imported them by, and of evaluations of the ⊥ table
    (a call of its __call__, rational, int_sums or batch, not counting one
    made from another)."""
    counts = {"hitchin_k": 0, "bot": 0, "_q_of_k": 0, "bot_table": 0}
    for name, fn in (("hitchin_k", ma6.hitchin.hitchin_k), ("bot", ma6.symplectic.bot),
                     ("_q_of_k", ma6.lr._q_of_k)):
        def counting(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "ma6" or mod_name.startswith("ma6.")) \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    table, depth = _bot_table(3), []
    for name in ("__call__", "rational", "int_sums", "batch"):
        def evaluating(self, *args, _fn=getattr(QuadraticTable, name), **kwargs):
            if self is table and not depth:
                counts["bot_table"] += 1
            depth.append(self)
            try:
                return _fn(self, *args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(QuadraticTable, name, evaluating)
    return counts


def test_split_and_build_gcy_wedge_once(space, monkeypatch):
    """An exact elliptic split_pair and build_gcy each make one wedge, of
    real forms (Θ(ω̂, ω)), and none of the complex pieces α, ᾱ."""
    wedged = []
    original = ma6.exterior.wedge

    def counting(a, b):
        wedged.append(a.coeffs + b.coeffs)
        return original(a, b)

    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "ma6" or mod_name.startswith("ma6.")) \
                and getattr(mod, "wedge", None) is original:
            monkeypatch.setattr(mod, "wedge", counting)
    omega = table1_form(2, Fraction(3, 2))
    split_pair(omega, space)
    assert len(wedged) == 1
    build_gcy(omega, space)
    assert len(wedged) == 2
    assert not any(isinstance(c, ExactComplex) for coeffs in wedged for c in coeffs)


@pytest.mark.parametrize("p", [Fraction(1), 1.5])
def test_classify_and_build_gcy_build_one_k(space, calls, p):
    """classify runs one ⊥ guard, one evaluation of the ⊥ table, on both
    scalar types; the exact guard tests the table's int numerators and makes
    no bot() call.  Exact classify then takes λ and the inertia of q from
    one int pass: no K and no Q in Fractions.  Float classify and build_gcy
    each build K once: λ, Q, the normalized K and the dual all come from
    that K."""
    exact = not isinstance(p, float)
    one_k = {"hitchin_k": 1, "bot": 0 if exact else 1, "_q_of_k": 1, "bot_table": 1}
    omega = table1_form(1, p)
    classify(omega, space)
    assert calls == ({"hitchin_k": 0, "bot": 0, "_q_of_k": 0, "bot_table": 1}
                     if exact else one_k)
    calls.update(dict.fromkeys(calls, 0))
    build_gcy(omega, space)
    assert calls == one_k


_orbit_rows = st.integers(1, 9)
_scales = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


def orbit_forms(space, row, p, shears, spaces):
    """Table row `row` at p moved by an exact product of Sp(6) shears, and
    carried to each of `spaces` by its Darboux map: a form of the row's
    class on every space."""
    moved = table1_form(row, p).pullback(symplectic_shears(space.matrix, shears))
    return [(s, moved if s is space else moved.pullback(darboux_map(s))) for s in spaces]


@settings(max_examples=40, deadline=None)
@given(row=_orbit_rows, p=_row_params, shears=_small_shears)
def test_exact_classify_matches_fraction_oracle(space, other_space, negative_space,
                                                row, p, shears):
    """Exact classify of orbit forms on the standard space, on other_space
    and on negative_space (θ < 0) gives the row's class, λ = pfaffian
    (K in Fractions) and the inertia of q_form by Fraction elimination."""
    for s, omega in orbit_forms(space, row, p, shears, (space, other_space, negative_space)):
        cls, report = classify(omega, s)
        assert cls == TABLE1_CLASSES[row]
        assert report.lambda_ == pfaffian(omega, s) == expected_lambda(row, p)
        assert report.signature == reference_signature(q_form(omega, s))


_coefficients = st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                         min_size=20, max_size=20)


@st.composite
def _moved_spaces(draw):
    """(P, the space of P*Ω0) for P = L·D·U, L and U unit lower and upper
    triangular and D diagonal, with small rational entries: the pullback of
    a form effective on the standard space is effective on it, and its
    θ = det(D)·θ0 has either sign."""
    entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
    L = [[Fraction(int(i == j)) if j >= i else draw(entry) for j in range(6)]
         for i in range(6)]
    U = [[Fraction(int(i == j)) if j <= i else draw(entry) for j in range(6)]
         for i in range(6)]
    D = [draw(entry.filter(bool)) for _ in range(6)]
    P = [[sum(L[i][k] * D[k] * U[k][j] for k in range(6)) for j in range(6)]
         for i in range(6)]
    return P, SymplecticSpace(standard_space().omega.pullback(P))


def assert_classify_matches_k_path(omega, s):
    """Exact classify's one int pass gives the class and report of the K
    path: λ = _lambda_of_k of hitchin_k, a Fraction like it, and the
    inertia of _q_of_k by Fraction elimination.  A form the K path refuses,
    it refuses with the same error and message."""
    k_path = copy.copy(s)
    k_path.matrix_terms = None  # without A′, classify reads λ and q off K
    try:
        want = classify(omega, k_path)
    except (EffectivenessError, UnclassifiableError) as e:
        with pytest.raises(type(e)) as raised:
            classify(omega, s)
        assert str(raised.value) == str(e)
        return
    got = classify(omega, s)
    assert got == want
    K = hitchin_k(omega, s)
    lam = _lambda_of_k(K)
    assert got[1].lambda_ == lam and type(got[1].lambda_) is type(lam) is Fraction
    assert got[1].signature == reference_signature(_q_of_k(K, s))


@settings(max_examples=40, deadline=None)
@given(row=_orbit_rows, p=_row_params, shears=_small_shears, coeffs=_coefficients,
       moved=_moved_spaces())
def test_one_pass_classify_matches_k_path(space, negative_space, row, p, shears, coeffs,
                                          moved):
    """On the standard space, on negative_space (θ < 0, so the int matrix S
    is a negative multiple of Q) and on a moved rational space: a sheared
    table row, the effective part of a random rational form and the form
    itself, which is refused unless it is effective."""
    assert negative_space.theta.coeffs[0] < 0
    sheared = table1_form(row, p).pullback(symplectic_shears(space.matrix, shears))
    form = KForm(3, coeffs)
    P, s_moved = moved
    for s, move in ((space, None), (negative_space, darboux_map(negative_space)),
                    (s_moved, P)):
        for omega in (sheared if move is None else sheared.pullback(move),
                      project_effective(s, form), form):
            assert_classify_matches_k_path(omega, s)


@settings(max_examples=30, deadline=None)
@given(row=_orbit_rows, p=_row_params, shears=_small_shears, t=_scales)
def test_lambda_is_quartic(space, other_space, negative_space, row, p, shears, t):
    """λ(tω) = t⁴λ(ω) exactly, and the class and signature are unchanged,
    for rational t ≠ 0 (q(tω) = t²q(ω))."""
    for s, omega in orbit_forms(space, row, p, shears, (space, other_space, negative_space)):
        cls, report = classify(omega, s)
        cls_t, report_t = classify(omega * t, s)
        assert report_t.lambda_ == t ** 4 * report.lambda_
        assert (cls_t, report_t.signature) == (cls, report.signature)


def test_one_effectiveness_rule_for_float_forms(space):
    """Table rows moved by float symplectic shears have a ⊥ω of rounding
    size: classify, build_gcy, q_form and q_matrices all take them as
    effective, by the one rule |⊥ω| ≤ EFFECTIVE_TOL·(1 + |ω|), and a form
    moved off by 10⁻⁶ in a non-effective direction is refused by all four."""
    rng = random.Random(3)
    rows = [1 + i % 9 for i in range(50)]
    forms = [sheared_float_form(table1_form(row), rng) for row in rows]
    for row, omega in zip(rows, forms):
        assert is_effective(space, omega)
        assert classify(omega, space)[0] == TABLE1_CLASSES[row]
        Q = q_form(omega, space).matrix
        assert np.array_equal(q_matrices([omega.coeffs], space)[0], Q)
        if row <= 3:
            build_gcy(omega, space)
    off = forms[0] + KForm.basis(1, 2, 4) * 1e-6
    for fn in (classify, build_gcy, q_form, lambda w, s: q_matrices([w.coeffs], s)):
        with pytest.raises(EffectivenessError):
            fn(off, space)


def test_exact_classify_guard(space, other_space, negative_space):
    """An orbit form moved off effectiveness by 10⁻¹² in a non-effective
    direction raises EffectivenessError.  Moved off by k·tol, |⊥ω| = k·tol,
    and exact classify with that tol raises exactly when k > 1."""
    n = KForm.basis(1, 2, 4)
    for s, omega in orbit_forms(space, 1, Fraction(3, 2), [([1, 0, -1, 0, 1, 0], 1)],
                                (space, other_space, negative_space)):
        assert not is_effective(s, n)
        with pytest.raises(EffectivenessError):
            classify(omega + n * Fraction(1, 10 ** 12), s)
        tol = Fraction(1, 10 ** 9)
        for k in (Fraction(1, 2), Fraction(9, 10), 1, Fraction(11, 10), 2):
            off = omega + n * (k * tol / bot(s, n).max_abs())
            assert is_effective(s, off, tol=tol) == (k <= 1)
            if k <= 1:
                assert classify(off, s, tol=tol)[0] == OrbitClass.HESSIAN_ONE
            else:
                with pytest.raises(EffectivenessError):
                    classify(off, s, tol=tol)


# orbit_form(random.Random("cmp:53"), 3) of perfbench/workloads.py: table
# row 3 at p = 4 moved by two exact shears, λ = −256 and |ω| = 770
CMP53 = {"123": "-770", "124": "-2", "125": "1", "126": "-767/2", "134": "-253",
         "135": "-256", "136": "-1", "145": "-1", "146": "251/2", "156": "255/2",
         "234": "-263/2", "235": "253", "236": "-2", "245": "1/2", "246": "263/4",
         "256": "-251/2", "345": "253/2", "346": "-1/2", "356": "-1", "456": "251/4"}


def test_float_classify_and_split_large_form(space):
    """In floats the cmp:53 form is SpecialLagrangianHyperbolic and splits:
    the λ = 0 bound LAMBDA_ZERO_TOL·771⁴ ≈ 0.35 lies far below |λ| = 256
    (a bound of 1e-9·771⁴ ≈ 353 read it as 0 and exited 4)."""
    omega = parse_form({"version": 1, "scalar": "exact", "grade": 3,
                        "coefficients": CMP53})
    f = KForm(3, [float(c) for c in omega.coeffs])
    assert classify(omega, space)[0] == OrbitClass.SPECIAL_LAGRANGIAN_HYPERBOLIC
    cls, report = classify(f, space)
    assert cls == OrbitClass.SPECIAL_LAGRANGIAN_HYPERBOLIC
    assert abs(report.lambda_ + 256) <= 1e-12 * 771 ** 4
    sp = split_pair(f, space)
    assert (sp.alpha + sp.beta - f).max_abs() <= 1e-9 * 771 ** 3


def test_lambda_zero_rule_margin(space):
    """The float λ of exact forms converted to floats is within
    LAMBDA_ZERO_TOL·(1 + |ω|)⁴ / 10³ of the exact λ: table rows 1–9 moved by
    six random transvections, |ω| up to 4·10⁵."""
    rng = random.Random(6)
    worst = 0
    for n in range(90):
        row, p = n % 9 + 1, Fraction(rng.randint(1, 4), rng.randint(1, 3))
        omega = table1_form(row, p).pullback(random_symplectic(rng))
        f = KForm(3, [float(c) for c in omega.coeffs])
        err = abs(pfaffian(f, space) - float(expected_lambda(row, p)))
        worst = max(worst, err / (1 + f.max_abs()) ** 4)
    assert worst * 10 ** 3 <= LAMBDA_ZERO_TOL


TABLE1_PARAMS = (1, Fraction(3, 2), 2, 0, Fraction(-1, 3), 1.5, 0.0, -2.0)


@pytest.mark.parametrize("row", range(1, 10))
def test_table1_form_matches_basis_chain(row):
    """Each coefficient of a table row has the value, type and repr (signed
    zeros included) of the chain of basis forms it replaces."""
    for p in TABLE1_PARAMS:
        got, want = table1_form(row, p), reference_table1_form(row, p)
        assert got.grade == 3
        assert [(type(c), repr(c)) for c in got.coeffs] == \
            [(type(c), repr(c)) for c in want.coeffs], (row, p)


def test_table1_form_builds_no_chain(monkeypatch):
    """A table row is filled from the data table in one pass: no basis
    form is built and no two forms are added or subtracted."""
    def forbidden(*args, **kwargs):
        raise AssertionError("table1_form built a chain of forms")

    monkeypatch.setattr(KForm, "basis", forbidden)
    monkeypatch.setattr(KForm, "__add__", forbidden)
    monkeypatch.setattr(KForm, "__sub__", forbidden)
    for row in range(1, 10):
        for p in TABLE1_PARAMS:
            table1_form(row, p)
    with pytest.raises(ValueError):
        table1_form(10)
