import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from ma6.exterior import COMBS, DIM, POS, KForm, _det, dim_grade, merge_sign
from ma6.lr import Signature
from ma6.symplectic import SymplecticSpace, _mat_inverse, project_effective, standard_space


@pytest.fixture(scope="session")
def space():
    return standard_space()


@pytest.fixture(scope="session")
def other_space():
    """Ω = 2dq1∧dp1 + dq2∧dp2 + dq3∧dp3 + dq1∧dq2 + ½dp2∧dp3: a dual bivector
    with off-diagonal terms and θ = 2·e123456."""
    omega = (KForm.basis(1, 4, scale=Fraction(2)) + KForm.basis(2, 5, scale=Fraction(1))
             + KForm.basis(3, 6, scale=Fraction(1)) + KForm.basis(1, 2, scale=Fraction(1))
             + KForm.basis(5, 6, scale=Fraction(1, 2)))
    return SymplecticSpace(omega)


@pytest.fixture(scope="session")
def negative_space():
    """Ω = −dq1∧dp1 + dq2∧dp2 + dq3∧dp3 with θ = −e123456: exact classify's
    int matrix NᵀA′ + A′ᵀN is a negative multiple of Q here, so its pos and
    neg must be swapped."""
    omega = (KForm.basis(1, 4, scale=Fraction(-1)) + KForm.basis(2, 5, scale=Fraction(1))
             + KForm.basis(3, 6, scale=Fraction(1)))
    return SymplecticSpace(omega)


@lru_cache(maxsize=None)
def darboux_map(s):
    """P with P*Ω0 = Ω, Ω0 the standard form: the inverse of the matrix whose
    columns e1, e2, e3, f1, f2, f3 are a Darboux basis of Ω, Ω(e_i, f_j) =
    δ_ij and Ω(e_i, e_j) = Ω(f_i, f_j) = 0, by symplectic Gram-Schmidt over
    the rationals.  So P*ω is effective on s iff ω is on the standard space,
    in the same orbit class and with the same λ."""
    A = s.matrix

    def om(x, y):
        return sum(x[i] * A[i][j] * y[j] for i in range(6) for j in range(6))

    pool = [[Fraction(int(i == j)) for i in range(6)] for j in range(6)]
    es, fs = [], []
    while pool:
        e = pool.pop(0)
        k = next(k for k, v in enumerate(pool) if om(e, v) != 0)
        f = pool.pop(k)
        f = [x / om(e, f) for x in f]
        es.append(e)
        fs.append(f)
        # onto the Ω-complement of span(e, f)
        pool = [[v[i] - om(v, f) * e[i] + om(v, e) * f[i] for i in range(6)] for v in pool]
    basis = es + fs
    return _mat_inverse([[basis[j][i] for j in range(6)] for i in range(6)])


def reference_signature(Q):
    """Sylvester inertia by congruence diagonalization over the Fractions,
    manufacturing a zero diagonal's pivot from M[i] += M[j] on rows and
    columns."""
    M = [[Fraction(x) for x in row] for row in Q.matrix]
    n = len(M)
    pos = neg = zero = 0
    r = 0
    while r < n:
        piv = next((i for i in range(r, n) if M[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in range(r, n) for j in range(i + 1, n)
                         if M[i][j] != 0), None)
            if pair is None:
                zero += n - r
                break
            i, j = pair
            for c in range(n):
                M[i][c] += M[j][c]
            for c in range(n):
                M[c][i] += M[c][j]
            piv = i
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            for c in range(n):
                M[c][r], M[c][piv] = M[c][piv], M[c][r]
        p = M[r][r]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(r + 1, n):
            if M[i][r] != 0:
                f = M[i][r] / p
                for c in range(n):
                    M[i][c] -= f * M[r][c]
                for c in range(n):
                    M[c][i] -= f * M[c][r]
        r += 1
    return Signature(pos, neg, zero)


def reference_wedge(a, b):
    """a ∧ b by the loop over all pairs of a's and b's basis forms."""
    j, k = a.grade, b.grade
    out = [0] * dim_grade(j + k)
    for ia, ca in zip(COMBS[j], a.coeffs):
        if ca == 0:
            continue
        for ib, cb in zip(COMBS[k], b.coeffs):
            if cb == 0:
                continue
            sign, merged = merge_sign(ia, ib)
            if sign:
                p = POS[j + k][merged]
                out[p] = out[p] + sign * ca * cb
    return KForm(j + k, out)


def reference_interior_vector(X, omega):
    """i_X ω by dropping each index i of each basis form, with sign (−1)^t
    for i in slot t."""
    k = omega.grade
    out = [0] * dim_grade(k - 1)
    for idx, c in zip(COMBS[k], omega.coeffs):
        if c == 0:
            continue
        for t, i in enumerate(idx):
            xi = X[i - 1]
            if xi == 0:
                continue
            p = POS[k - 1][idx[:t] + idx[t + 1:]]
            out[p] = out[p] + ((-1) ** t) * xi * c
    return KForm(k - 1, out)


def reference_interior_bivector(B, omega):
    """i_B ω = Σ B_ij·i_{e_j}(i_{e_i} ω) over the basis bivectors e_i∧e_j."""
    out = KForm.zero(omega.grade - 2)
    for (i, j), c in zip(COMBS[2], B.coeffs):
        if c == 0:
            continue
        ei = [int(n == i) for n in range(1, DIM + 1)]
        ej = [int(n == j) for n in range(1, DIM + 1)]
        out = out + c * reference_interior_vector(ej, reference_interior_vector(ei, omega))
    return out


def reference_basis(*indices, scale=1):
    """The coefficient tuple of a basis form, built as a dense list."""
    k = len(indices)
    c = [0] * dim_grade(k)
    if len(set(indices)) == k:
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if indices[i] > indices[j]:
                    sign = -sign
        c[POS[k][tuple(sorted(indices))]] = sign * scale
    return tuple(c)


def reference_table1_form(row, param=Fraction(1)):
    """The coefficients of a table row as a chain of dense basis tuples
    added and subtracted term by term."""
    p = Fraction(param) if not isinstance(param, float) else param
    one = p - p + 1

    def b(*idx, scale):
        return reference_basis(*idx, scale=scale)

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    def sub(u, v):
        return tuple(x - y for x, y in zip(u, v))

    chains = {
        1: lambda: add(b(1, 2, 3, scale=one), b(4, 5, 6, scale=p * p)),
        2: lambda: sub(add(sub(b(2, 3, 4, scale=one), b(1, 3, 5, scale=one)),
                           b(1, 2, 6, scale=one)), b(4, 5, 6, scale=p ** 4 / 4)),
        3: lambda: add(add(add(b(2, 3, 4, scale=one), b(1, 3, 5, scale=one)),
                           b(1, 2, 6, scale=one)), b(4, 5, 6, scale=p ** 4 / 4)),
        4: lambda: add(sub(b(2, 3, 4, scale=one), b(1, 3, 5, scale=one)),
                       b(1, 2, 6, scale=one)),
        5: lambda: add(add(b(2, 3, 4, scale=one), b(1, 3, 5, scale=one)),
                       b(1, 2, 6, scale=one)),
        6: lambda: sub(b(1, 2, 6, scale=one), b(1, 3, 5, scale=one)),
        7: lambda: add(b(1, 2, 6, scale=one), b(1, 3, 5, scale=one)),
        8: lambda: b(2, 3, 4, scale=one),
        9: lambda: (0,) * dim_grade(3),
    }
    return KForm(3, chains[row]())


def reference_pullback(form, matrix):
    """φ*ω by the generic loop: the sum of c·(k×k minor) over the nonzero
    coefficients; a KForm for a 6-column matrix, the coefficient list
    otherwise."""
    k, m = form.grade, len(matrix[0])
    out = []
    for J in itertools.combinations(range(m), k):
        acc = 0
        for idx, c in zip(COMBS[k], form.coeffs):
            if c == 0:
                continue
            acc = acc + c * _det([[matrix[i - 1][j] for j in J] for i in idx])
        out.append(acc)
    return KForm(k, out) if m == DIM else out


def rand_fraction(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_form(rng, grade=3):
    return KForm(grade, [rand_fraction(rng) for _ in range(dim_grade(grade))])


def rand_effective(rng, s):
    """A random rational effective 3-form (projection of a random 3-form)."""
    return project_effective(s, rand_form(rng, 3))


def sheared_float_form(omega, rng):
    """ω in floats pulled back by an upper and then a lower symplectic shear
    [[I, S], [0, I]], [[I, 0], [S, I]], each S symmetric with entries drawn
    uniform in (−1, 1)."""
    omega = KForm(3, [float(c) for c in omega.coeffs])
    for upper in (True, False):
        S = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                S[i][j] = S[j][i] = rng.uniform(-1, 1)
        M = [[float(i == j) for j in range(6)] for i in range(6)]
        for i in range(3):
            for j in range(3):
                if upper:
                    M[i][3 + j] = S[i][j]
                else:
                    M[3 + i][j] = S[i][j]
        omega = omega.pullback(M)
    return omega


def rand_vector(rng):
    return [rand_fraction(rng) for _ in range(6)]


@pytest.fixture
def rng():
    return random.Random(20260826)
