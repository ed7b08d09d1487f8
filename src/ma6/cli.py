"""Command-line interface: classify, split, check-solution, check-structure,
and demo subcommands over the JSON form/field documents.

Exit codes: 0 pass, 1 check failed, 2 invalid input (also a coefficient
above FLOAT_COEFF_MAX that is computed in floats), 3 non-effective form,
4 degenerate form (or a float form too near an orbit boundary to classify).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import casestudies
from .classify import UnclassifiableError, build_gcy, classify, table1_form
from .documents import (
    DocumentError,
    dump_report,
    is_field_document,
    parse_field,
    parse_form,
    serialize_field,
    serialize_form,
)
from .exterior import KForm
from .fields import (
    BranchChangeError,
    CURVATURE_TOL,
    DEFAULT_H,
    DEFAULT_TOL,
    DegeneratePointError,
    FormField,
    MetricField,
    SectionMap,
    _worst,
    check_generalized_solution,
    closedness_check,
    flatness_check,
    gcy_integrability_check,
    ma_operator,
    sample_box,
)
from .hitchin import (
    DegenerateFormError,
    ExactnessError,
    _dual,
    _lambda_of_k,
    _split,
    hitchin_k,
)
from .poly import Poly
from .symplectic import EffectivenessError, project_effective, standard_space

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_NOT_EFFECTIVE = 3
EXIT_DEGENERATE = 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_doc(path):
    try:
        if path in (None, "-"):
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(EXIT_INVALID, f"cannot read input: {e}")


def _require_3form(obj):
    """Every subcommand reads 3-forms; another grade is invalid input."""
    if obj.grade != 3:
        raise CliError(EXIT_INVALID, f"expected a 3-form, got grade {obj.grade}")
    return obj


# the largest |coefficient| that float arithmetic is given: the dual form's
# |λ|^(3/2) is of degree 6 in ω, so up to 1e50 every float invariant stays
# below 1e300, short of the float maximum 1.8e308
FLOAT_COEFF_MAX = 1e50


def _check_float_range(values):
    """Coefficients bound for float arithmetic must be at most FLOAT_COEFF_MAX
    in magnitude; a larger one is invalid input."""
    if any(abs(v) > FLOAT_COEFF_MAX for v in values):
        raise CliError(EXIT_INVALID, f"a coefficient exceeds {FLOAT_COEFF_MAX:g} in "
                                     "magnitude, the bound for float arithmetic")


def _load_form(args):
    doc = _read_doc(args.input)
    try:
        form = parse_form(doc)
    except DocumentError as e:
        raise CliError(EXIT_INVALID, str(e))
    _require_3form(form)
    if args.scalar == "float":
        try:
            form = KForm(form.grade, [float(c) for c in form.coeffs])
        except OverflowError as e:
            raise CliError(EXIT_INVALID, f"coefficient too large for a float: {e}")
    if any(isinstance(c, float) for c in form.coeffs):
        _check_float_range(form.coeffs)
    return form


def _load_field(path):
    """A 3-form field document, or a form document read as a constant field.
    A field is evaluated in floats, so its constants and polynomial
    coefficients are held to FLOAT_COEFF_MAX."""
    doc = _read_doc(path)
    try:
        fld = (parse_field(doc) if is_field_document(doc)
               else FormField.constant(parse_form(doc)))
    except DocumentError as e:
        raise CliError(EXIT_INVALID, str(e))
    _require_3form(fld)
    _check_float_range(v for c in fld.coeffs
                       for v in (c.terms.values() if isinstance(c, Poly) else (c,)))
    return fld


def _parse_box(text, dims):
    """A box: 'lo,hi' applied to every axis, or ';'-separated per-axis pairs."""
    try:
        pairs = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError
    except ValueError:
        raise CliError(EXIT_INVALID, f"bad box {text!r}; use 'lo,hi' or 'lo,hi;...'")
    if len(pairs) == 1:
        pairs = pairs * dims
    if len(pairs) != dims:
        raise CliError(EXIT_INVALID, f"box needs 1 or {dims} pairs")
    return pairs


def _emit(report, fmt, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        out.write(dump_report(report) + "\n")
    else:
        _emit_text(report, out)


def _emit_text(report, out, indent=""):
    from .documents import _jsonable

    obj = _jsonable(report)

    def walk(o, ind):
        if isinstance(o, dict):
            for k in sorted(o):
                v = o[k]
                if isinstance(v, (dict, list)):
                    out.write(f"{ind}{k}:\n")
                    walk(v, ind + "  ")
                else:
                    out.write(f"{ind}{k}: {v}\n")
        elif isinstance(o, list):
            for v in o:
                if isinstance(v, (dict, list)):
                    walk(v, ind + "  ")
                else:
                    out.write(f"{ind}- {v}\n")

    walk(obj, indent)


# --- subcommands ----------------------------------------------------------

def cmd_classify(args):
    s = standard_space()
    form = _load_form(args)
    projected = False
    if args.project:
        form2 = project_effective(s, form)
        projected = form2 != form
        form = form2
    tol = args.tol if args.scalar == "float" else 0
    try:
        cls, report = classify(form, s, tol=tol)
    except EffectivenessError as e:
        raise CliError(EXIT_NOT_EFFECTIVE, str(e))
    except UnclassifiableError as e:
        raise CliError(EXIT_DEGENERATE, f"near an orbit boundary: {e}")
    return {
        "command": "classify",
        "class": cls.value,
        "lambda": report.lambda_,
        "signature": {"pos": report.signature.pos, "neg": report.signature.neg,
                      "zero": report.signature.zero},
        "effective": report.effective,
        "nondegenerate": report.nondegenerate,
        "branch": report.branch,
        "projected": projected,
        "tolerance": tol,
    }, EXIT_PASS


def cmd_split(args):
    s = standard_space()
    form = _load_form(args)
    try:
        # one K gives λ, the dual and the split; build_gcy builds its own
        K = hitchin_k(form, s)
        lam = _lambda_of_k(K)
        structure = None
        try:
            dual_of = _dual(form, K)
        except ExactnessError:
            # irrational |λ| root: fall back to floats
            form = KForm(form.grade, [float(c) for c in form.coeffs])
            dual_of = _dual(form, hitchin_k(form, s))
        else:
            try:
                structure = build_gcy(form, s)
            except (ExactnessError, EffectivenessError):
                pass
    except DegenerateFormError as e:
        raise CliError(EXIT_DEGENERATE, str(e))
    dual = dual_of[2]
    sp = _split(form, *dual_of, s.theta)
    report = {
        "command": "split",
        "lambda": lam,
        "branch": sp.branch,
        "dual": serialize_form(dual),
    }
    if sp.branch == "hyperbolic":
        report["alpha"] = serialize_form(sp.alpha)
        report["beta"] = serialize_form(sp.beta)
    else:
        report["alpha_real"] = serialize_form(sp.alpha.real())
        report["alpha_imag"] = serialize_form(sp.alpha.imag())
    if structure is not None:
        report["structure"] = {
            "metric": [list(r) for r in structure.g.matrix],
            "K": [list(r) for r in structure.K],
            "ratio": structure.ratio,
        }
    return report, EXIT_PASS


_SOLUTIONS = ("cs-regular", "cs-generalized", "hess-one")

# the open region of (x, y, z) on which each built-in solution is defined
_DOMAINS = {
    "cs-regular": ("x² + 2y > 0", lambda x, y, z: x * x + 2 * y > 0),
    "cs-generalized": ("xy + yz + zx > 0", lambda x, y, z: x * y + y * z + z * x > 0),
}
_DOMAINS["hess-one"] = _DOMAINS["cs-generalized"]


def _check_domain(solution, points):
    """Every sample point must lie in the domain of the built-in solution."""
    text, inside = _DOMAINS[solution]
    for x in points:
        if not inside(*x):
            raise CliError(EXIT_INVALID, f"--box leaves the domain {text} of "
                                         f"{solution}: sample point {tuple(x)}")


def _builtin_section(args):
    if args.solution == "cs-regular":
        return casestudies.cs_regular_solution(), \
            FormField.constant(casestudies.cs_form(0.0))
    if args.solution == "hess-one":
        return casestudies.hess_one_solution(b=args.b), \
            FormField.constant(
                KForm.basis(4, 5, 6, scale=1.0) - KForm.basis(1, 2, 3, scale=1.0))
    raise CliError(EXIT_INVALID, f"unknown solution {args.solution!r}")


def cmd_check_solution(args):
    fld = None if args.input is None else _load_field(args.input)
    s = standard_space()
    rng_box = _parse_box(args.box, 3)
    points = sample_box(rng_box, args.samples, seed=args.seed)
    _check_domain(args.solution, points)
    if args.solution == "cs-generalized":
        L = casestudies.cs_generalized_solution(gamma=args.gamma, b=args.b)
        if fld is None:
            fld = FormField.constant(casestudies.cs_form(float(args.gamma)))
        rep = check_generalized_solution(L, fld, s, points, tol=args.tol)
        report = {
            "command": "check-solution", "solution": args.solution,
            "gamma": args.gamma, "passed": rep.passed,
            "max_lagrangian_residual": rep.max_lagrangian,
            "max_form_residual": rep.max_omega,
            "points": rep.n_points, "excluded": rep.excluded,
            "tolerance": rep.tol, "seed": args.seed, "box": rng_box,
        }
        return report, EXIT_PASS if rep.passed else EXIT_FAIL
    section, builtin = _builtin_section(args)
    fld = builtin if fld is None else fld
    if args.perturb:
        base = section
        eps = args.perturb
        section = SectionMap(lambda x: base.f(x) + eps * x[0] ** 3,
                             h=base.h)
    if args.solution == "hess-one":
        import numpy as np

        worst = _worst(abs(float(np.linalg.det(np.array(section.hess(x)))) - 1)
                       for x in points)
        label = "max_abs_det_hessian_minus_1"
    else:
        worst = _worst(abs(ma_operator(fld, section, x)) for x in points)
        label = "max_operator_residual"
    passed = worst <= args.tol
    report = {
        "command": "check-solution", "solution": args.solution,
        "passed": passed, label: worst, "points": len(points),
        "tolerance": args.tol, "seed": args.seed, "box": rng_box,
        "perturbation": args.perturb,
    }
    return report, EXIT_PASS if passed else EXIT_FAIL


def cmd_check_structure(args):
    s = standard_space()
    fld = _load_field(args.input)
    box = _parse_box(args.box, 6)
    points = sample_box(box, args.samples, seed=args.seed)
    try:
        closed = closedness_check(fld, s, points, h=args.h, tol=args.tol)
        integ = gcy_integrability_check(fld, s, points, h=args.h, tol=args.tol)
        flat = flatness_check(MetricField.from_q_field(fld, s), points,
                              h=args.h, tol=CURVATURE_TOL)
    except DegeneratePointError as e:
        raise CliError(EXIT_DEGENERATE, str(e))
    except BranchChangeError as e:
        raise CliError(EXIT_DEGENERATE, f"branch change: {e}")
    except EffectivenessError as e:
        raise CliError(EXIT_NOT_EFFECTIVE, str(e))
    passed = closed.passed and integ.passed
    report = {
        "command": "check-structure",
        "passed": passed,
        "closedness": {"passed": closed.passed,
                       "max_residual": closed.max_residual,
                       "details": closed.details},
        "integrability": {"passed": integ.passed,
                          "max_residual": integ.max_residual,
                          "details": integ.details},
        "flatness_of_metric": {"passed": flat.passed,
                               "max_residual": flat.max_residual,
                               "tolerance": flat.tol},
        "points": len(points), "seed": args.seed, "h": args.h,
        "tolerance": args.tol, "box": box,
    }
    return report, EXIT_PASS if passed else EXIT_FAIL


def cmd_demo(args):
    if args.name == "cs":
        return _demo_cs(args)
    if args.name == "s6":
        return _demo_s6(args)
    raise CliError(EXIT_INVALID, f"unknown demo {args.name!r}")


def _demo_cs(args):
    s = standard_space()
    g = Fraction(args.gamma)  # the float's exact value
    form = casestudies.cs_form(g)
    phi = casestudies.cs_reduction(g)
    from .fields import is_symplectomorphism, pullback_field_poly

    pb = pullback_field_poly(phi, FormField.constant(form))
    reduced_ok = pb.evaluate([0] * 6) == casestudies.hess_one_form() and \
        all(len(getattr(p, "terms", {0: 0})) <= 1 for p in pb.coeffs)
    sympl_ok = is_symplectomorphism(phi, s)
    box = _parse_box(args.box, 3)
    points = sample_box(box, args.samples, seed=args.seed)
    _check_domain("hess-one", points)  # the domain of cs-generalized too
    checks = {
        "reduction_pullback_exact": bool(reduced_ok),
        "reduction_is_symplectomorphism": bool(sympl_ok),
    }
    fld = FormField.constant(casestudies.cs_form(float(args.gamma)))
    if args.gamma == 0:
        _check_domain("cs-regular", points)
        f = casestudies.cs_regular_solution()
        worst = _worst(abs(ma_operator(fld, f, x)) for x in points)
        checks["regular_solution_residual"] = worst
        checks["regular_solution_passed"] = worst <= args.tol
    fh = casestudies.hess_one_solution(b=args.b)
    import numpy as np

    worst_h = _worst(abs(float(np.linalg.det(np.array(fh.hess(x)))) - 1)
                     for x in points)
    checks["hessian_one_residual"] = worst_h
    checks["hessian_one_passed"] = worst_h <= args.tol
    L = casestudies.cs_generalized_solution(gamma=args.gamma, b=args.b)
    rep = check_generalized_solution(L, fld, s, points, tol=args.tol)
    checks["generalized_solution_passed"] = rep.passed
    checks["generalized_solution_residuals"] = {
        "lagrangian": rep.max_lagrangian, "form": rep.max_omega}
    cls, inv = classify(casestudies.cs_form(Fraction(1)), s)
    checks["orbit_class_gamma_1"] = cls.value
    passed = all(v for k, v in checks.items() if k.endswith("passed")
                 or k.endswith("exact") or k.endswith("symplectomorphism"))
    report = {"command": "demo", "name": "cs", "gamma": args.gamma,
              "b": args.b, "passed": passed, "checks": checks,
              "points": len(points), "seed": args.seed, "box": box,
              "tolerance": args.tol}
    return report, EXIT_PASS if passed else EXIT_FAIL


def _demo_s6(args):
    import random

    rng = random.Random(args.seed)
    import numpy as np

    worst_lam = worst_k2 = worst_mul = 0.0
    for _ in range(args.samples):
        x = [rng.gauss(0, 1) for _ in range(7)]
        inv = casestudies.s6_invariant(x)
        K = np.array(inv["K"])
        worst_lam = max(worst_lam, abs(inv["lambda"] + 1))
        worst_k2 = max(worst_k2, float(np.abs(K @ K + np.eye(6)).max()))
        worst_mul = max(worst_mul, inv["mult_residual"])
    passed = worst_lam <= 1e-9 and worst_k2 <= 1e-8 and worst_mul <= 1e-8
    report = {"command": "demo", "name": "s6", "passed": passed,
              "samples": args.samples, "seed": args.seed,
              "max_abs_lambda_plus_1": worst_lam,
              "max_abs_K_squared_plus_id": worst_k2,
              "max_octonion_multiplication_residual": worst_mul}
    return report, EXIT_PASS if passed else EXIT_FAIL


# --- argument parsing -----------------------------------------------------

def _number(kind, ok, what):
    """An argparse type: text read as kind, rejected (exit 2) unless ok."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


_finite = _number(float, math.isfinite, "finite")
_step = _number(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_nonnegative = _number(float, lambda v: math.isfinite(v) and v >= 0, "finite and ≥ 0")
_samples = _number(int, lambda v: v >= 1, "≥ 1")


def _add_common(p, tol=True, seed=True):
    p.add_argument("--format", choices=("json", "text"), default="json")
    if tol:
        p.add_argument("--tol", type=_nonnegative, default=DEFAULT_TOL)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="ma6",
        description="Invariants of effective 3-forms on a 6-dimensional "
                    "symplectic space and the Monge-Ampère equations they encode.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="orbit class and invariants of a 3-form",
                       allow_abbrev=False)
    p.add_argument("--input", default="-")
    p.add_argument("--project", action="store_true",
                   help="project onto the effective part first")
    p.add_argument("--scalar", choices=("exact", "float"), default="exact")
    _add_common(p, seed=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("split", help="decomposable splitting and dual form",
                       allow_abbrev=False)
    p.add_argument("--input", default="-")
    p.add_argument("--scalar", choices=("exact", "float"), default="exact")
    _add_common(p, tol=False, seed=False)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("check-solution", help="check a (generalized) solution",
                       allow_abbrev=False)
    p.add_argument("--solution", choices=_SOLUTIONS, required=True)
    p.add_argument("--input", default=None,
                   help="optional form/field document overriding the builtin form")
    p.add_argument("--gamma", type=_finite, default=0.0)
    p.add_argument("--b", type=_nonnegative, default=1.0)
    p.add_argument("--perturb", type=_finite, default=0.0,
                   help="add eps*x^3 to the candidate solution")
    p.add_argument("--box", default="0.5,2")
    p.add_argument("--samples", type=_samples, default=100)
    _add_common(p)
    p.set_defaults(fn=cmd_check_solution)

    p = sub.add_parser("check-structure",
                       help="closedness / integrability / flatness of a field",
                       allow_abbrev=False)
    p.add_argument("--input", default="-")
    p.add_argument("--box", default="-0.5,0.5")
    p.add_argument("--samples", type=_samples, default=5)
    p.add_argument("--h", type=_step, default=DEFAULT_H)
    _add_common(p)
    p.set_defaults(fn=cmd_check_structure)

    p = sub.add_parser("demo", help="run a case-study suite",
                       allow_abbrev=False)
    p.add_argument("name", choices=("cs", "s6"))
    p.add_argument("--gamma", type=_finite, default=0.0)
    p.add_argument("--b", type=_nonnegative, default=1.0)
    p.add_argument("--box", default="0.5,2")
    p.add_argument("--samples", type=_samples, default=100)
    _add_common(p)
    p.set_defaults(fn=cmd_demo)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report, code = args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
