import random
from fractions import Fraction

import pytest

from ma6.exterior import KForm, dim_grade
from ma6.symplectic import SymplecticSpace, project_effective, standard_space


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
