"""Seeded inputs, ops and oracles of the in-process ma6 workloads.

Every input is a pure function of (workload, seed, op index), so one op can
be regenerated alone (``run.py --replay``).  ``run`` is the timed call into
ma6; ``check`` compares its output with the oracle and returns an error
message, or None when the output is right.  Checks are never timed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ma6.classify import TABLE1_CLASSES, build_gcy, classify, table1_form
from ma6.documents import parse_field, serialize_form
from ma6.exterior import KForm
from ma6.fields import (
    FormField,
    MetricField,
    closedness_check,
    flatness_check,
    gcy_integrability_check,
    lambda_field,
)
from ma6.hitchin import dual_form, split_pair
from ma6.symplectic import project_effective


def _rng(*key):
    return random.Random(":".join(map(str, key)))


# --- the orbit generator: table rows moved by exact symplectic shears ------

def _shear(rng, upper):
    """[[I,S],[0,I]] (upper) or [[I,0],[S,I]] with S a random symmetric 3x3."""
    S = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            S[i][j] = S[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    M = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    for i in range(3):
        for j in range(3):
            if upper:
                M[i][3 + j] = S[i][j]
            else:
                M[3 + i][j] = S[i][j]
    return M


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)]


def orbit_form(rng, row):
    """A table row with a seeded rational p, pulled back by the product of
    an upper and a lower symplectic shear.  Returns (form, p)."""
    p = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    g = _mat_mul(_shear(rng, True), _shear(rng, False))
    return table1_form(row, p).pullback(g), p


def expected_lambda(row, p):
    return p ** 4 if row == 1 else -p ** 4 if row in (2, 3) else 0


# --- workloads -------------------------------------------------------------

class Workload:
    """Base: ``input(i)`` makes op i's input afresh, so no input repeats."""

    # points at which one op needs λ (nonzero only for field ops)
    LAMBDA_POINTS_PER_OP = 0

    def __init__(self, seed, space):
        self.seed = seed
        self.space = space


class OrbitsExact(Workload):
    """Rows 1-9 in turn, so every run has the same class mix."""

    name = "orbits-exact"

    def input(self, i):
        row = i % 9 + 1
        form, p = orbit_form(_rng(self.name, self.seed, i), row)
        return {"row": row, "p": p, "form": form}

    def run(self, inp):
        omega = inp["form"]
        cls, report = classify(omega, self.space)
        if inp["row"] > 3:
            return cls, report, None, None
        return cls, report, split_pair(omega, self.space), build_gcy(omega, self.space)

    def check(self, inp, out):
        cls, report, sp, gcy = out
        row, p, omega = inp["row"], inp["p"], inp["form"]
        if cls != TABLE1_CLASSES[row]:
            return f"class {cls.value}, expected {TABLE1_CLASSES[row].value}"
        if report.lambda_ != expected_lambda(row, p):
            return f"lambda {report.lambda_}, expected {expected_lambda(row, p)}"
        if sp is not None and sp.alpha + sp.beta != omega:
            return "split_pair: alpha + beta != omega"
        if gcy is not None and gcy.alpha + gcy.beta != omega * (1 / p):
            return "build_gcy: alpha + beta != omega / |lambda|^(1/4)"
        return None

    def describe(self, inp):
        return {"row": inp["row"], "p": str(inp["p"]), "form": serialize_form(inp["form"])}


class FormsFloat(Workload):
    """Random effective forms; the exact class is the oracle."""

    name = "forms-float"

    def input(self, i):
        rng = _rng(self.name, self.seed, i)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(20)]
        exact = project_effective(self.space, KForm(3, coeffs))
        exact_cls, report = classify(exact, self.space)
        return {"exact": exact, "class": exact_cls,
                "nondegenerate": report.nondegenerate,
                "form": KForm(3, [float(c) for c in exact.coeffs])}

    def run(self, inp):
        omega = inp["form"]
        cls, _ = classify(omega, self.space)
        if not inp["nondegenerate"]:
            return cls, None
        sp = split_pair(omega, self.space)
        dual_form(omega, self.space)
        build_gcy(omega, self.space)
        return cls, sp

    def check(self, inp, out):
        cls, sp = out
        if cls != inp["class"]:
            return f"float class {cls.value}, exact class {inp['class'].value}"
        if sp is not None:
            omega = inp["form"]
            res = (sp.alpha + sp.beta - omega).max_abs()
            bound = 1e-9 * (1 + omega.max_abs()) ** 3
            if not res <= bound:
                return f"|alpha + beta - omega| = {res:.3e} > {bound:.3e}"
        return None

    def describe(self, inp):
        return {"form": serialize_form(inp["exact"]), "exact_class": inp["class"].value}


def _float_table(row):
    return KForm(3, [float(c) for c in table1_form(row, 1).coeffs])


def _conformal(x):
    c = math.exp(x[0])
    return KForm.basis(1, 2, 3, scale=c) + KForm.basis(4, 5, 6, scale=c)


def _nonclosed_h(x):
    return KForm.basis(1, 2, 3, scale=1.0 + x[3] ** 2) + KForm.basis(4, 5, 6, scale=1.0)


def _nonclosed_e(x):
    return _float_table(2) + KForm.basis(4, 5, 6, scale=-(x[0] ** 2))


def _poly_doc(rng):
    """c(x)·(dq123 + dp123) with c = 1 + a·q1² + b·p2², a field whose
    normalization is constant, hence closed and integrable."""
    a = str(Fraction(rng.randint(1, 4), 2))
    b = str(Fraction(rng.randint(1, 4), 2))
    c = {"0,0,0,0,0,0": "1", "2,0,0,0,0,0": a, "0,0,0,0,2,0": b}
    return {"version": 1, "scalar": "exact", "grade": 3,
            "coefficients": {"123": c, "456": c}}


class Fields(Workload):
    """Acceptance criterion 11's five fields and one parsed polynomial field,
    in turn, each at one seeded point of the box [-0.5, 0.5]^6.  The order
    puts a constant, the polynomial and a non-closed field first, so that
    even a short run times each kind."""

    name = "fields"
    FIELDS = ("const-hyperbolic", "polynomial", "nonclosed-elliptic",
              "conformal", "const-elliptic", "nonclosed-hyperbolic")
    CLOSED = (True, True, False, True, True, False)
    CONSTANT = (True, False, False, False, True, False)
    # λ at the one sample point and its 12 central-difference neighbours
    LAMBDA_POINTS_PER_OP = 13

    def input(self, i):
        rng = _rng(self.name, self.seed, i)
        k = i % len(self.FIELDS)
        point = [rng.uniform(-0.5, 0.5) for _ in range(6)]
        return {"field": k, "points": [point],
                "doc": _poly_doc(rng) if self.FIELDS[k] == "polynomial" else None}

    def field(self, inp):
        name = self.FIELDS[inp["field"]]
        if name == "polynomial":
            return parse_field(inp["doc"])
        if name.startswith("const-"):
            return FormField.constant(_float_table(1 if name.endswith("hyperbolic") else 2))
        fn = {"conformal": _conformal, "nonclosed-hyperbolic": _nonclosed_h,
              "nonclosed-elliptic": _nonclosed_e}[name]
        return FormField.from_pointwise(3, fn)

    def run(self, inp):
        s, pts = self.space, inp["points"]
        fld = self.field(inp)
        for x in pts:
            lambda_field(fld, s, x)
        closed = closedness_check(fld, s, pts)
        integ = gcy_integrability_check(fld, s, pts)
        flat = flatness_check(MetricField.from_q_field(fld, s), pts)
        return closed, integ, flat

    def check(self, inp, out):
        closed, integ, flat = out
        k = inp["field"]
        if closed.passed != self.CLOSED[k]:
            return f"closedness {closed.passed}, expected {self.CLOSED[k]}"
        if integ.passed != closed.passed or not integ.details["agrees_with_closedness"]:
            return f"integrability {integ.passed} disagrees with closedness {closed.passed}"
        if self.CONSTANT[k] and not flat.passed:
            return f"constant field not flat: residual {flat.max_residual:.3e}"
        return None

    def describe(self, inp):
        return {"field": self.FIELDS[inp["field"]], "points": inp["points"],
                "doc": inp["doc"]}


WORKLOADS = {w.name: w for w in (OrbitsExact, FormsFloat, Fields)}
