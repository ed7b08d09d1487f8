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

from .classify import UnclassifiableError, build_gcy, classify
from .documents import (
    DocumentError,
    _jsonable,
    dump_report,
    is_field_document,
    parse_field,
    parse_form,
    serialize_form,
)
from .exterior import KForm
from .hitchin import (
    DegenerateFormError,
    ExactnessError,
    _dual,
    _lambda_of_k,
    _split,
    hitchin_k,
)
from .symplectic import (
    CURVATURE_TOL,
    DEFAULT_H,
    DEFAULT_TOL,
    EffectivenessError,
    project_effective,
    standard_space,
)

# fields, poly and casestudies are imported by the subcommands that use
# them, so classify and split load none of the three

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
    except (OSError, ValueError) as e:  # ValueError: not JSON, not UTF-8, or
        # a JSON number longer than sys.get_int_max_str_digits()
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
    from .fields import FormField
    from .poly import Poly

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
    """A box: 'lo,hi' applied to every axis, or ';'-separated per-axis pairs,
    each bound finite."""
    try:
        pairs = [tuple(float(v) for v in part.split(",")) for part in text.split(";")]
        if any(len(p) != 2 for p in pairs):
            raise ValueError
    except ValueError:
        raise CliError(EXIT_INVALID, f"bad box {text!r}; use 'lo,hi' or 'lo,hi;...'")
    if not all(math.isfinite(v) for p in pairs for v in p):
        raise CliError(EXIT_INVALID, f"box bounds must be finite, got {text!r}")
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


def _regular_residual(solution, b, points, fld=None, perturb=0.0):
    """The worst |ma_operator| of a regular built-in solution over the points:
    the graph of df, f + perturb·x₁³ when perturb is nonzero, in the
    solution's own form or in fld.  For hess-one's form it is |det Hess f − 1|,
    the pullback's cofactor determinant."""
    from . import casestudies
    from .fields import FormField, SectionMap, _worst, ma_operator

    if solution == "cs-regular":
        section = casestudies.cs_regular_solution()
        builtin = casestudies.cs_form(0.0)
    else:
        section = casestudies.hess_one_solution(b=b)
        builtin = casestudies.hess_one_form()
    if perturb:
        base = section

        # ε·x₁³ adds 3εx₁² to f₁ and 6εx₁ to f₁₁
        def grad(x):
            g = base.grad(x)
            return [g[0] + 3 * perturb * x[0] ** 2, g[1], g[2]]

        def hess(x):
            (h11, h12, h13), *rows = base.hess(x)
            return [[h11 + 6 * perturb * x[0], h12, h13], *rows]

        section = SectionMap(lambda x: base.f(x) + perturb * x[0] ** 3, grad, hess)
    fld = FormField.constant(builtin) if fld is None else fld
    return _worst(abs(ma_operator(fld, section, x)) for x in points)


def cmd_check_solution(args):
    from . import casestudies
    from .fields import FormField, check_generalized_solution, sample_box

    if args.solution == "cs-generalized" and args.perturb:
        raise CliError(EXIT_INVALID, "--perturb applies to cs-regular and hess-one, "
                                     "not to cs-generalized")
    if args.solution != "cs-generalized" and args.gamma:
        raise CliError(EXIT_INVALID, f"--gamma applies to cs-generalized only, "
                                     f"not to {args.solution}")
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
    worst = _regular_residual(args.solution, args.b, points, fld, args.perturb)
    label = ("max_abs_det_hessian_minus_1" if args.solution == "hess-one"
             else "max_operator_residual")
    passed = worst <= args.tol
    report = {
        "command": "check-solution", "solution": args.solution,
        "passed": passed, label: worst, "points": len(points),
        "tolerance": args.tol, "seed": args.seed, "box": rng_box,
        "perturbation": args.perturb,
    }
    return report, EXIT_PASS if passed else EXIT_FAIL


def cmd_check_structure(args):
    from .fields import (BranchChangeError, DegeneratePointError, MetricField,
                         closedness_check, flatness_check, gcy_integrability_check,
                         sample_box)

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
    from . import casestudies
    from .fields import (FormField, check_generalized_solution, is_symplectomorphism,
                         pullback_field_poly, sample_box)

    s = standard_space()
    g = Fraction(args.gamma)  # the float's exact value
    form = casestudies.cs_form(g)
    phi = casestudies.cs_reduction(g)
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
    if args.gamma == 0:
        _check_domain("cs-regular", points)
        worst = _regular_residual("cs-regular", args.b, points)
        checks["regular_solution_residual"] = worst
        checks["regular_solution_passed"] = worst <= args.tol
    worst_h = _regular_residual("hess-one", args.b, points)
    checks["hessian_one_residual"] = worst_h
    checks["hessian_one_passed"] = worst_h <= args.tol
    L = casestudies.cs_generalized_solution(gamma=args.gamma, b=args.b)
    fld = FormField.constant(casestudies.cs_form(float(args.gamma)))
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


# the thresholds of demo s6, by the residual each bounds; --tol does not set them
_S6_TOLERANCES = {"max_abs_lambda_plus_1": 1e-9,
                  "max_abs_K_squared_plus_id": 1e-8,
                  "max_octonion_multiplication_residual": 1e-8}


def _demo_s6(args):
    import random

    from . import casestudies
    from .fields import _worst

    rng = random.Random(args.seed)
    lams, k2s, muls = [], [], []
    for _ in range(args.samples):
        x = [rng.gauss(0, 1) for _ in range(7)]
        inv = casestudies.s6_invariant(x)
        K = inv["K"]
        lams.append(abs(inv["lambda"] + 1))
        k2s.extend(abs(sum(K[i][k] * K[k][j] for k in range(6)) + (i == j))
                   for i in range(6) for j in range(6))
        muls.append(inv["mult_residual"])
    worst = dict(zip(_S6_TOLERANCES, map(_worst, (lams, k2s, muls))))
    passed = all(worst[k] <= tol for k, tol in _S6_TOLERANCES.items())
    report = {"command": "demo", "name": "s6", "passed": passed,
              "samples": args.samples, "seed": args.seed,
              **worst, "tolerances": dict(_S6_TOLERANCES)}
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
    p.add_argument("--gamma", type=_finite, default=0.0,
                   help="right-hand side of cs-generalized; nonzero is invalid "
                        "for the other solutions")
    p.add_argument("--b", type=_nonnegative, default=1.0)
    p.add_argument("--perturb", type=_finite, default=0.0,
                   help="add eps*x1^3, with its closed-form derivatives, to "
                        "cs-regular or hess-one; nonzero is invalid for cs-generalized")
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
        _emit(report, args.format)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except DocumentError as e:  # a report number too long to print
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
