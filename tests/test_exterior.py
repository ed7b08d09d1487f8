"""Core exterior algebra: wedge, contraction, pullback, exact complex
scalars.  Oracles are brute-force evaluations over basis vectors."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma6.exterior import (
    DIM,
    Bivector6,
    ExactComplex,
    GradeError,
    KForm,
    _bot_table,
    _interior_table,
    _wedge_table,
    dim_grade,
    interior_bivector,
    interior_vector,
    rational_sqrt,
    wedge,
)

from ma6.hitchin import _derivation_table, _k_table

from conftest import (
    rand_form,
    rand_vector,
    reference_basis,
    reference_interior_bivector,
    reference_interior_vector,
    reference_pullback,
    reference_wedge,
)


def det_perm(vals):
    """Brute-force alternating sum over permutations."""
    n = len(vals)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= vals[i][perm[i]]
        total += prod
    return total


def eval_bruteforce(form, vectors):
    """(a1∧...∧ak)(v1..vk) summed over the form's terms, by permanent-style
    expansion: coefficient times det of the picked components."""
    from ma6.exterior import COMBS

    total = 0
    for idx, c in zip(COMBS[form.grade], form.coeffs):
        if c == 0:
            continue
        rows = [[v[i - 1] for i in idx] for v in vectors]
        total += c * det_perm(rows)
    return total


def test_evaluate_matches_bruteforce(rng):
    for _ in range(20):
        k = rng.randint(1, 4)
        form = rand_form(rng, k)
        vecs = [rand_vector(rng) for _ in range(k)]
        assert form.evaluate(*vecs) == eval_bruteforce(form, vecs)


def test_wedge_agrees_with_evaluation(rng):
    for _ in range(15):
        ka, kb = rng.randint(1, 2), rng.randint(1, 3)
        a, b = rand_form(rng, ka), rand_form(rng, kb)
        w = wedge(a, b)
        vecs = [rand_vector(rng) for _ in range(ka + kb)]
        # oracle: alternating sum over (ka, kb) shuffles
        total = 0
        idxs = range(ka + kb)
        for left in itertools.combinations(idxs, ka):
            right = [i for i in idxs if i not in left]
            perm = list(left) + right
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            total += sign * a.evaluate(*[vecs[i] for i in left]) * \
                b.evaluate(*[vecs[i] for i in right])
        assert w.evaluate(*vecs) == total


def test_wedge_graded_commutativity(rng):
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 3)]:
        a, b = rand_form(rng, ka), rand_form(rng, kb)
        sign = (-1) ** (ka * kb)
        assert wedge(a, b) == wedge(b, a) * sign


def test_interior_vector_antiderivation(rng):
    for _ in range(10):
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        a, b = rand_form(rng, ka), rand_form(rng, kb)
        X = rand_vector(rng)
        lhs = interior_vector(X, wedge(a, b))
        rhs = wedge(interior_vector(X, a), b) + \
            wedge(a, interior_vector(X, b)) * ((-1) ** ka)
        assert lhs == rhs


def test_interior_vector_square_zero(rng):
    form = rand_form(rng, 3)
    X = rand_vector(rng)
    assert interior_vector(X, interior_vector(X, form)).is_zero()


def test_interior_bivector_decomposable(rng):
    """i_{X∧Y} = i_Y ∘ i_X on decomposable bivectors."""
    for _ in range(8):
        X, Y = rand_vector(rng), rand_vector(rng)
        B = Bivector6.decomposable(X, Y)
        form = rand_form(rng, 3)
        assert interior_bivector(B, form) == \
            interior_vector(Y, interior_vector(X, form))


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_floats = st.floats(-8, 8, allow_nan=False)
SCALARS = {
    "int": st.integers(-6, 6),
    "Fraction": _fractions,
    "float": _floats,
    "complex": st.builds(complex, _floats, _floats),
    "ExactComplex": st.builds(ExactComplex, _fractions, _fractions),
}
EXACT = {"int", "Fraction", "ExactComplex"}


def _coeffs(data, kind, n):
    return data.draw(st.lists(SCALARS[kind], min_size=n, max_size=n))


def _assert_matches(got, want, scale, exact):
    if exact:
        assert got == want
    else:
        assert max(abs(x - y) for x, y in zip(got.coeffs, want.coeffs)) <= 1e-14 * scale


@pytest.mark.parametrize("kinds", [(k, k) for k in SCALARS] + [
    ("Fraction", "float"), ("float", "Fraction"), ("int", "ExactComplex"),
    ("complex", "Fraction")], ids="-".join)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_products_match_reference_loops(kinds, data):
    """wedge at every grade pair, interior_vector at every grade ≥ 1 and
    interior_bivector at every grade ≥ 2 equal the pair loops of conftest:
    == when both arguments are exact (int, Fraction, ExactComplex), within
    1e-14·(1 + |a||b|) when a float or complex enters.  On real input the
    float batch of the ⊥ table equals its call on floats."""
    ka, kb = kinds
    exact = ka in EXACT and kb in EXACT
    a = [KForm(g, _coeffs(data, ka, dim_grade(g))) for g in range(DIM + 1)]
    b = [KForm(g, _coeffs(data, kb, dim_grade(g))) for g in range(DIM + 1)]
    X, B = _coeffs(data, ka, DIM), Bivector6(_coeffs(data, ka, dim_grade(2)))
    for j in range(DIM + 1):
        for k in range(DIM + 1 - j):
            scale = 1 + a[j].max_abs() * b[k].max_abs()
            _assert_matches(wedge(a[j], b[k]), reference_wedge(a[j], b[k]), scale, exact)
    for k in range(1, DIM + 1):
        scale = 1 + max(map(abs, X)) * b[k].max_abs()
        _assert_matches(interior_vector(X, b[k]), reference_interior_vector(X, b[k]),
                        scale, exact)
    for k in range(2, DIM + 1):
        scale = 1 + max(map(abs, B.coeffs)) * b[k].max_abs()
        want = reference_interior_bivector(B, b[k])
        _assert_matches(interior_bivector(B, b[k]), want, scale, exact)
        if {ka, kb} <= {"int", "Fraction", "float"}:
            fB, fw = [float(c) for c in B.coeffs], [float(c) for c in b[k].coeffs]
            assert list(_bot_table(k).batch([fB], [fw])[0]) == list(_bot_table(k)(fB, fw))


def _tables():
    """(table, the widths of its arguments) for θ·K, K·ω, ⊥ at grades 2-6,
    wedge at every grade pair and i_X at grades 1-6."""
    yield _k_table(), (20,)
    yield _derivation_table(), (36, 20)
    for k in range(2, DIM + 1):
        yield _bot_table(k), (dim_grade(2), dim_grade(k))
    for j in range(DIM + 1):
        for k in range(DIM + 1 - j):
            yield _wedge_table(j, k), (dim_grade(j), dim_grade(k))
    for k in range(1, DIM + 1):
        yield _interior_table(k), (dim_grade(k), DIM)


@pytest.mark.parametrize("n", [1, 12, 85])
def test_table_batches_equal_call_bitwise(n):
    """Every table's batch at n float rows equals its call on each row,
    bitwise, the sign of zero included; a fifth of the inputs are ±0.0."""
    rng = np.random.default_rng(n)
    for table, widths in _tables():
        args = []
        for w in widths:
            a = rng.standard_normal((n, w))
            zero = rng.random(a.shape) < 0.2
            a[zero] = np.copysign(0.0, a[zero])
            args.append(a)
        got = table.batch(*args)
        assert got.shape == (n, len(table.floats))
        want = np.array([table(*(a[r].tolist() for a in args)) for r in range(n)])
        assert got.tobytes() == np.ascontiguousarray(want).reshape(got.shape).tobytes()


def test_pullback_functorial(rng):
    A = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
    B = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
    AB = [[sum(A[i][k] * B[k][j] for k in range(6)) for j in range(6)]
          for i in range(6)]
    form = rand_form(rng, 3)
    assert form.pullback(AB) == form.pullback(A).pullback(B)


def test_pullback_is_precomposition(rng):
    A = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
    form = rand_form(rng, 2)
    X, Y = rand_vector(rng), rand_vector(rng)
    AX = [sum(A[i][j] * X[j] for j in range(6)) for i in range(6)]
    AY = [sum(A[i][j] * Y[j] for j in range(6)) for i in range(6)]
    assert form.pullback(A).evaluate(X, Y) == form.evaluate(AX, AY)


def typed(values):
    """Values with their types, so that 1 ≠ 1.0 ≠ Fraction(1) and -0.0 ≠ 0.0."""
    return [(type(v), repr(v)) for v in values]


def test_basis_matches_reference():
    """Every ordered index tuple of grades 0–6, repeats included, gives the
    coefficients, their types and signed zeros of the dense construction."""
    for k in range(DIM + 1):
        for indices in itertools.product(range(1, DIM + 1), repeat=k):
            for scale in (3, Fraction(-2, 3), 1.5, -0.0):
                form = KForm.basis(*indices, scale=scale)
                assert form.grade == k
                assert typed(form.coeffs) == typed(reference_basis(*indices, scale=scale))


@given(st.integers(0, DIM), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_linear_operations_match_termwise(k, r):
    """+, −, unary −, * and / give the termwise scalars, types included."""
    scalars = (0, 2, Fraction(-3, 4), 0.5, -0.0, 1.25j)
    a = KForm(k, [r.choice(scalars) for _ in range(dim_grade(k))])
    b = KForm(k, [r.choice(scalars) for _ in range(dim_grade(k))])
    s = r.choice((3, Fraction(2, 5), -0.5))
    cases = [(a + b, [x + y for x, y in zip(a.coeffs, b.coeffs)]),
             (a - b, [x - y for x, y in zip(a.coeffs, b.coeffs)]),
             (-a, [-x for x in a.coeffs]),
             (a * s, [x * s for x in a.coeffs]),
             (s * a, [x * s for x in a.coeffs]),
             (a / s, [x / s for x in a.coeffs])]
    for got, want in cases:
        assert got.grade == k
        assert typed(got.coeffs) == typed(want)


_entries = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "float": st.floats(-3, 3, width=32),
}


@st.composite
def _pullback_case(draw):
    """A form of grade 0–6 and a 6×6 or 6×3 matrix, each with int,
    Fraction or float entries, sparse or mixed."""
    k = draw(st.integers(0, DIM))
    m = draw(st.sampled_from((DIM, 3)))
    kinds = draw(st.lists(st.sampled_from(sorted(_entries)), min_size=1, max_size=3))
    scalar = st.one_of(st.just(0), *(_entries[n] for n in kinds))
    form = KForm(k, draw(st.lists(scalar, min_size=dim_grade(k), max_size=dim_grade(k))))
    matrix = draw(st.lists(st.lists(scalar, min_size=m, max_size=m),
                           min_size=DIM, max_size=DIM))
    return form, matrix


@given(_pullback_case())
@settings(max_examples=150, deadline=None)
def test_pullback_matches_generic_loop(case):
    """The int path for rational input and the generic loop otherwise give
    the generic loop's coefficients with its types: an int wherever no
    Fraction enters an output's sum."""
    form, matrix = case
    got, want = form.pullback(matrix), reference_pullback(form, matrix)
    if len(matrix[0]) == DIM:
        assert got.grade == want.grade
        got, want = got.coeffs, want.coeffs
    assert typed(got) == typed(want)


def test_pullback_keeps_int_outputs():
    """All-int input and the zero form give ints; one Fraction entry makes
    Fractions of exactly the outputs whose sums it enters."""
    I = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    omega = KForm.basis(1, 2, 4, scale=2) + KForm.basis(3, 5, 6, scale=-1)
    assert all(type(c) is int for c in omega.pullback(I).coeffs)
    assert all(type(c) is int for c in KForm.zero(3).pullback(I).coeffs)
    M = [row[:] for row in I]
    M[0][5] = Fraction(1, 2)  # row 1 (used by e124), column 6
    got = omega.pullback(M)
    want = reference_pullback(omega, M)
    assert typed(got.coeffs) == typed(want.coeffs)
    assert {type(c) for c in got.coeffs} == {int, Fraction}


def test_grade_errors():
    with pytest.raises(GradeError):
        KForm.basis(1) + KForm.basis(1, 2)
    with pytest.raises(ValueError):
        KForm(3, [0] * 5)


def test_exact_complex_field_axioms():
    a = ExactComplex(Fraction(1, 2), Fraction(-3, 4))
    b = ExactComplex(Fraction(2, 3), Fraction(5))
    assert (a * b) / b == a
    assert a * a.conjugate() == ExactComplex(a.re ** 2 + a.im ** 2, 0)
    assert (a + b) - b == a
    assert 1 / (1 / a) == a


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
