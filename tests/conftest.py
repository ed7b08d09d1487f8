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


def rand_vector(rng):
    return [rand_fraction(rng) for _ in range(6)]


@pytest.fixture
def rng():
    return random.Random(20260826)
