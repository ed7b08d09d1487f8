"""JSON interchange and the command-line entry points."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ma6 import casestudies, cli
from ma6.casestudies import cs_form
from ma6.classify import table1_form
from ma6.documents import (
    DocumentError,
    dump_report,
    parse_field,
    parse_form,
    serialize_field,
    serialize_form,
)
from ma6.exterior import COMBS, KForm, _det
from ma6.fields import FormField
from ma6.poly import Poly

from conftest import rand_form, sheared_float_form


def test_round_trip_exact(rng):
    for _ in range(10):
        form = rand_form(rng, 3)
        assert parse_form(serialize_form(form)) == form


def test_round_trip_float():
    form = KForm(3, [0.0] * 18 + [1.5, -2.25])
    doc = serialize_form(form)
    assert doc["scalar"] == "float"
    assert parse_form(doc) == form


def test_rational_strings():
    doc = {"version": 1, "scalar": "exact", "grade": 3,
           "coefficients": {"123": "3/4"}}
    form = parse_form(doc)
    assert form.coeffs[0] == Fraction(3, 4)


@pytest.mark.parametrize("text, ok", [
    ("1e99", True), ("1.5e98", True), ("1e-99", True), ("-2.50E+97", True),
    ("1_0e97", True), ("1e" + "0" * 200 + "99", True),
    ("1e100", False), ("1e-100", False), ("12e99", False), ("0e100", False),
    ("1e100000", False), ("1e" + "9" * 5000, False),
])
def test_rational_exponent_within_int_digit_limit(monkeypatch, text, ok):
    """A rational string's exponent may expand it to at most
    sys.get_int_max_str_digits() digits, here patched to 100: the limit
    that Python applies to a plain digit string."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100)
    doc = {"version": 1, "scalar": "exact", "grade": 3, "coefficients": {"123": text}}
    if ok:
        assert parse_form(doc).coeffs[0] == Fraction(text)
    else:
        with pytest.raises(DocumentError, match="expands to more than 100 digits"):
            parse_form(doc)


def test_unknown_keys_rejected():
    with pytest.raises(DocumentError):
        parse_form({"version": 1, "grade": 3, "coefficients": {}, "extra": 1})


def test_symplectic_key_rejected():
    """Documents carry no symplectic form: Ω is the standard one, so a
    document naming its own is invalid input, not classified on Ω₀.  A
    field document's scalar mode, when given, must be "exact"."""
    doc = {"version": 1, "scalar": "exact", "grade": 3,
           "coefficients": {"123": "1", "456": "1"}, "symplectic": [1]}
    with pytest.raises(DocumentError, match="symplectic"):
        parse_form(doc)
    field = dict(doc, coefficients={"123": {"0,0,0,0,0,0": "1"}})
    with pytest.raises(DocumentError, match="symplectic"):
        parse_field(field)
    del field["symplectic"]
    for mode in ("float", ["exact"]):
        with pytest.raises(DocumentError, match="scalar"):
            parse_field(dict(field, scalar=mode))
    for cmd in ("classify", "split"):
        code, out = run_cli([cmd], stdin_text=json.dumps(doc))
        assert (code, out) == (2, "")


def test_bad_indices_rejected():
    for key in ("321", "112", "127", "12"):
        with pytest.raises(DocumentError):
            parse_form({"version": 1, "scalar": "exact", "grade": 3,
                        "coefficients": {key: "1"}})


def test_float_in_exact_mode_rejected():
    with pytest.raises(DocumentError):
        parse_form({"version": 1, "scalar": "exact", "grade": 3,
                    "coefficients": {"123": 0.5}})


def test_field_round_trip():
    p = Poly({(1, 0, 0, 0, 2, 0): Fraction(-3, 2)})
    fld = FormField(3, [p] + [Poly({})] * 19)
    doc = serialize_field(fld)
    back = parse_field(doc)
    assert back.coeffs[0] == p
    assert json.loads(json.dumps(doc)) == doc


def test_report_deterministic():
    rep = {"b": Fraction(1, 3), "a": [1, 2], "c": {"x": True}}
    assert dump_report(rep) == dump_report(rep)
    assert '"1/3"' in dump_report(rep)


def run_cli(argv, stdin_text=None):
    import sys

    out = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def form_doc(form):
    return json.dumps(serialize_form(form))


def test_cli_classify_row3():
    doc = form_doc(table1_form(3, Fraction(1)))
    code, out = run_cli(["classify"], stdin_text=doc)
    rep = json.loads(out)
    assert code == 0
    assert rep["class"] == "SpecialLagrangianHyperbolic"
    assert rep["lambda"] == "-1"
    assert (rep["signature"]["pos"], rep["signature"]["neg"]) == (4, 2)


def test_cli_classify_zero():
    code, out = run_cli(["classify"], stdin_text=form_doc(KForm.zero(3)))
    assert code == 0
    assert json.loads(out)["class"] == "Zero"


def test_cli_classify_non_effective_exit3():
    code, _ = run_cli(["classify"], stdin_text=form_doc(KForm.basis(1, 2, 4)))
    assert code == 3


def test_cli_classify_project_flag():
    code, out = run_cli(["classify", "--project"],
                        stdin_text=form_doc(KForm.basis(1, 2, 4)))
    assert code == 0
    assert json.loads(out)["projected"] is True


def test_cli_invalid_input_exit2():
    code, _ = run_cli(["classify"], stdin_text="{not json")
    assert code == 2
    code, _ = run_cli(["classify"], stdin_text='{"version": 1, "bogus": 2}')
    assert code == 2


def test_cli_split_round_trip():
    doc = form_doc(table1_form(1, Fraction(1)))
    code, out = run_cli(["split"], stdin_text=doc)
    rep = json.loads(out)
    assert code == 0
    alpha = parse_form(rep["alpha"])
    beta = parse_form(rep["beta"])
    assert alpha + beta == table1_form(1, Fraction(1))
    assert parse_form(rep["alpha"]) == alpha  # round trip is stable


@pytest.mark.parametrize("row, want", [(1, (Fraction(-1, 6), None)),
                                       (2, (Fraction(0), Fraction(-1, 6)))])
def test_cli_split_ratio_reads_back(row, want):
    """ma6 split prints the exact ratio (α∧β)/Ω³ as a rational string, and
    an elliptic one as {"re", "im"} of rational strings, so both read back."""
    proc = run_cli_process(["split"], form_doc(table1_form(row, Fraction(1))))
    assert proc.returncode == 0, proc.stderr
    ratio = json.loads(proc.stdout)["structure"]["ratio"]
    if want[1] is None:
        assert Fraction(ratio) == want[0]
    else:
        assert (Fraction(ratio["re"]), Fraction(ratio["im"])) == want


def test_cli_split_degenerate_exit4():
    code, _ = run_cli(["split"], stdin_text=form_doc(table1_form(4)))
    assert code == 4


def test_cli_check_solution_pass_and_fail():
    code, _ = run_cli(["check-solution", "--solution", "cs-regular",
                       "--samples", "20"])
    assert code == 0
    code, _ = run_cli(["check-solution", "--solution", "cs-regular",
                       "--samples", "20", "--perturb", "0.1"])
    assert code == 1


@pytest.mark.parametrize("argv, option", [
    (["--solution", "cs-generalized", "--perturb", "0.5"], "--perturb"),
    (["--solution", "cs-regular", "--gamma", "3"], "--gamma"),
    (["--solution", "hess-one", "--gamma", "3"], "--gamma"),
])
def test_cli_check_solution_unused_option_exit2(argv, option):
    """An option the solution does not read is invalid input, not a pass:
    cs-generalized is not perturbed, and cs-regular and hess-one solve no
    γ-equation."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check-solution", *argv, "--samples", "5"])
    assert code == 2
    assert option in err.getvalue()
    assert out == ""


def test_cli_hess_one_reads_input():
    """--input replaces hess-one's form too: dq123 does not vanish on the
    graph of df, so the check fails."""
    code, out = run_cli(["check-solution", "--solution", "hess-one", "--input", "-",
                         "--samples", "5"], form_doc(KForm.basis(1, 2, 3)))
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("solution", ["cs-regular", "hess-one"])
@pytest.mark.parametrize("eps", [1e-3, 0.1])
def test_cli_perturb_closed_form(solution, eps):
    """--perturb ε reports the residual of f + ε·x₁³ from its closed-form
    Hessian, H + 6εx₁ at (1, 1): f_xx f_yy − f_xy² + f_zz for cs-regular,
    det H − 1 for hess-one, to 1e-12 relative."""
    from ma6.fields import sample_box

    code, out = run_cli(["check-solution", "--solution", solution,
                         "--perturb", str(eps)])
    rep = json.loads(out)
    assert code == 1
    f = (casestudies.cs_regular_solution() if solution == "cs-regular"
         else casestudies.hess_one_solution(b=1))
    worst = 0.0
    for x in sample_box([(0.5, 2)] * 3, 100, seed=0):
        H = np.array(f.hess(x))
        H[0, 0] += 6 * eps * x[0]
        if solution == "cs-regular":
            r = H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0] + H[2, 2]
        else:
            r = np.linalg.det(H) - 1
        worst = max(worst, abs(float(r)))
    key = ("max_operator_residual" if solution == "cs-regular"
           else "max_abs_det_hessian_minus_1")
    assert abs(rep[key] - worst) <= 1e-12 * worst


def test_cli_check_structure(tmp_path):
    doc = {"version": 1, "scalar": "exact", "grade": 3, "coefficients": {
        "234": {"0,0,0,0,0,0": "1"},
        "135": {"0,0,0,0,0,0": "-1"},
        "126": {"0,0,0,0,0,0": "1"},
        "456": {"0,0,0,0,0,0": "-1/4"}}}
    f = tmp_path / "field.json"
    f.write_text(json.dumps(doc))
    code, out = run_cli(["check-structure", "--input", str(f), "--samples", "3"])
    rep = json.loads(out)
    assert code == 0
    assert rep["closedness"]["passed"]
    assert rep["integrability"]["passed"]
    assert rep["flatness_of_metric"]["passed"]


# e234 − e135 + e126 − q1·e456: λ = −4·q1 changes sign at q1 = 0
BRANCH_FIELD_DOC = {"version": 1, "scalar": "exact", "grade": 3, "coefficients": {
    "234": {"0,0,0,0,0,0": "1"},
    "135": {"0,0,0,0,0,0": "-1"},
    "126": {"0,0,0,0,0,0": "1"},
    "456": {"1,0,0,0,0,0": "-1"}}}


def test_cli_check_structure_branch_change(tmp_path):
    f = tmp_path / "field.json"
    f.write_text(json.dumps(BRANCH_FIELD_DOC))
    code, _ = run_cli(["check-structure", "--input", str(f),
                       "--box=-1.5,1.5", "--samples", "8"])
    assert code == 4


def test_cli_check_structure_stencil_crosses_branch_exit4(tmp_path):
    """At q1 = 5e-5 the sample point is on one branch and its stencil point
    q1 − h on the other: a branch change, not a failed check."""
    f = tmp_path / "field.json"
    f.write_text(json.dumps(BRANCH_FIELD_DOC))
    code, out = run_cli(["check-structure", "--input", str(f),
                         "--box=0.00005,0.00005", "--samples", "1"])
    assert code == 4
    assert out == ""


def test_cli_demo_s6():
    code, out = run_cli(["demo", "s6", "--samples", "5"])
    assert code == 0
    assert json.loads(out)["max_abs_lambda_plus_1"] < 1e-9


def test_cli_demo_s6_nan_fails(monkeypatch):
    """A NaN entry of K fails demo s6, as a NaN residual fails every check,
    and the report states the thresholds the demo applied."""
    s6_invariant = casestudies.s6_invariant

    def with_nan(x):
        inv = s6_invariant(x)
        inv["K"] = [list(row) for row in inv["K"]]
        inv["K"][2][4] = float("nan")
        return inv

    monkeypatch.setattr(casestudies, "s6_invariant", with_nan)
    code, out = run_cli(["demo", "s6", "--samples", "3"])
    rep = json.loads(out)
    assert code == 1
    assert rep["passed"] is False
    assert math.isnan(rep["max_abs_K_squared_plus_id"])
    assert rep["tolerances"] == {"max_abs_lambda_plus_1": 1e-9,
                                 "max_abs_K_squared_plus_id": 1e-8,
                                 "max_octonion_multiplication_residual": 1e-8}


def test_s6_nan_in_k_reaches_multiplication_residual(monkeypatch):
    """A NaN at K[2][4] of Hitchin's K is the octonion-multiplication
    residual of s6_invariant, not dropped by a max, and fails demo s6."""
    from ma6 import hitchin

    hitchin_k = hitchin.hitchin_k

    def with_nan(omega, theta):
        K = hitchin_k(omega, theta)
        K[2][4] = float("nan")
        return K

    monkeypatch.setattr(hitchin, "hitchin_k", with_nan)
    assert math.isnan(casestudies.s6_invariant([0.3, -1.0, 0.2, 0.5, 0.1, 0.7, -0.4])
                      ["mult_residual"])
    code, out = run_cli(["demo", "s6", "--samples", "3"])
    rep = json.loads(out)
    assert code == 1
    assert rep["passed"] is False
    assert math.isnan(rep["max_octonion_multiplication_residual"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))
def test_det3_matches_numpy(entries):
    """The cofactor determinant of 3x3 rows, which the det Hess checks take
    through ma_operator's pullback, agrees with LU.
    LU divides by a pivot, which warns when the pivot is subnormal (an
    entry of 2.2e-311, say); the reference is then still within the bound,
    so its warnings are silenced and only the comparison decides."""
    H = [entries[0:3], entries[3:6], entries[6:9]]
    bound = 1e-13 * (1 + max(abs(v) for v in entries)) ** 3
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        reference = float(np.linalg.det(np.array(H)))
    assert abs(_det(H) - reference) <= bound


@pytest.mark.parametrize("b", ["1", "2", "3"])
def test_cli_hess_one_checks_pass(b):
    """det Hess = 1 holds for hess_one_solution(b) at every sampled point,
    in check-solution and in demo cs."""
    for seed in ("0", "5", "9"):
        for argv in (["check-solution", "--solution", "hess-one"],
                     ["demo", "cs", "--samples", "20"]):
            code, out = run_cli([*argv, "--b", b, "--seed", seed])
            assert code == 0, (argv, seed, out)
            assert json.loads(out)["passed"] is True


def test_cli_reports_reproducible():
    args = ["check-solution", "--solution", "hess-one", "--samples", "10",
            "--seed", "7"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_cli_classify_near_boundary_exit4():
    """SecondDerivative + 1e-5·Laplace in floats: λ within the zero band but
    q_ω of rank 2, which no orbit class has."""
    doc = json.dumps({"version": 1, "scalar": "float", "grade": 3,
                      "coefficients": {"234": 1 + 1e-5, "135": -1e-5, "126": 1e-5}})
    code, out = run_cli(["classify", "--scalar", "float"], stdin_text=doc)
    assert code == 4
    assert out == ""


def test_cli_non_finite_coefficient_exit2():
    for bad in (float("nan"), float("inf")):
        doc = json.dumps({"version": 1, "scalar": "float", "grade": 3,
                          "coefficients": {"123": bad, "456": 1.0}})
        code, out = run_cli(["classify", "--scalar", "float"], stdin_text=doc)
        assert code == 2
        assert out == ""


def test_cli_float_overflow_exit2():
    doc = json.dumps({"version": 1, "scalar": "exact", "grade": 3,
                      "coefficients": {"123": "1" + "0" * 400, "456": "1"}})
    code, out = run_cli(["classify", "--scalar", "float"], stdin_text=doc)
    assert code == 2
    assert out == ""


def run_cli_process(argv, stdin_text, timeout=120):
    """``python -m ma6.cli ARGV`` in a child process, runpy warnings as errors."""
    import ma6

    src = os.path.dirname(os.path.dirname(ma6.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ma6.cli",
                           *argv], input=stdin_text, capture_output=True, text=True,
                          env=env, timeout=timeout)


NUMPY_FREE_RUN = r"""
import io, json, sys
from contextlib import redirect_stdout
from fractions import Fraction

# from here on, importing numpy or scipy raises ImportError
sys.modules["numpy"] = sys.modules["scipy"] = None

import ma6
from ma6 import cli
from ma6.classify import TABLE1_CLASSES, build_gcy, classify, table1_form
from ma6.documents import serialize_form
from ma6.exterior import KForm
from ma6.hitchin import split_pair
from ma6.symplectic import standard_space


def shear(upper):
    # [[I, S], [0, I]] or [[I, 0], [S, I]], S a symmetric rational 3x3
    S = [[Fraction(1, 2), 0, 0], [0, Fraction(-2), Fraction(1, 3)],
         [0, Fraction(1, 3), 1]]
    M = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    for i in range(3):
        for j in range(3):
            if upper:
                M[i][3 + j] = S[i][j]
            else:
                M[3 + i][j] = S[i][j]
    return M


s = standard_space()
forms = {row: table1_form(row, Fraction(3, 2)).pullback(shear(True)).pullback(shear(False))
         for row in range(1, 10)}
for row, form in forms.items():
    assert classify(form, s)[0] is TABLE1_CLASSES[row], row
    if row <= 3:
        assert split_pair(form, s).branch == ("hyperbolic" if row == 1 else "elliptic")
        build_gcy(form, s)


def run(argv, doc=None):
    sys.stdin = io.StringIO(json.dumps(doc))
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


nan = {"version": 1, "scalar": "float", "grade": 3,
       "coefficients": {"123": float("nan"), "456": 1.0}}
near = {"version": 1, "scalar": "float", "grade": 3,
        "coefficients": {"234": 1 + 1e-5, "135": -1e-5, "126": 1e-5}}
codes = {
    "classify": run(["classify"], serialize_form(forms[5])),
    "classify float": run(["classify", "--scalar", "float"],
                          serialize_form(KForm(3, [float(c) for c in forms[5].coeffs]))),
    "near-boundary probe": run(["classify", "--scalar", "float"], near),
    "cs-generalized": run(["check-solution", "--solution", "cs-generalized"]),
    "demo cs": run(["demo", "cs"]),
    "split": run(["split"], serialize_form(forms[2])),
    "cs-regular": run(["check-solution", "--solution", "cs-regular"]),
    "hess-one": run(["check-solution", "--solution", "hess-one"]),
    "demo s6": run(["demo", "s6"]),
    "nan probe": run(["classify", "--scalar", "float"], nan),
    "cs-regular perturbed": run(["check-solution", "--solution", "cs-regular",
                                 "--perturb", "1e-3"]),
    "hess-one perturbed": run(["check-solution", "--solution", "hess-one",
                               "--perturb", "1e-3"]),
}
from ma6.casestudies import hess_one_solution
assert hess_one_solution(2).grad([1.0, 0.7, 1.3])
assert sys.modules["numpy"] is None and sys.modules["scipy"] is None
print(json.dumps(codes))
"""


def test_exact_paths_run_without_numpy():
    """numpy is imported only where arrays are computed, and scipy nowhere:
    import ma6, exact classify, split_pair and build_gcy on sheared table
    rows, every command of the benchmark's cli cycle (exact and float
    classify, the near-boundary and NaN probes, split, the solution checks
    and both demos), the --perturb checks and hess-one's gradient run with
    numpy and scipy unimportable, and end with their usual exit codes."""
    import ma6

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ma6.__file__)))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "classify": 0, "classify float": 0, "near-boundary probe": 4,
        "cs-generalized": 0, "demo cs": 0, "split": 0, "cs-regular": 0,
        "hess-one": 0, "demo s6": 0, "nan probe": 2,
        "cs-regular perturbed": 1, "hess-one perturbed": 1}


def test_hess_one_value_without_scipy():
    """hess_one_solution's value takes its Gauss–Legendre nodes from numpy;
    it computes with scipy unimportable."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from ma6.casestudies import hess_one_solution\n"
            "print(hess_one_solution(2).f([1.0, 0.7, 1.3]))")
    assert run_python(code) > 0


def run_python(code, *args):
    """``python -c CODE ARGS`` in a child process with the package on its path."""
    import ma6

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ma6.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED_MODULES_RUN = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

from ma6 import cli

argv, doc = json.loads(sys.argv[1])
sys.stdin = io.StringIO(json.dumps(doc))
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    code = cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("ma6.") or m == "dataclasses")]))
"""

# the modules a classify or split child has no use for
PERIPHERY = {"ma6.fields", "ma6.poly", "ma6.octonion", "ma6.casestudies", "dataclasses"}
CORE = ["ma6.classify", "ma6.exterior", "ma6.hitchin", "ma6.lr", "ma6.symplectic"]


@pytest.mark.parametrize("argv, doc, code, unused", [
    (["classify"], "exact", 0, PERIPHERY),
    (["classify", "--scalar", "float"], "exact", 0, PERIPHERY),
    (["split"], "exact", 0, PERIPHERY),
    (["classify", "--scalar", "float"], "near", 4, PERIPHERY),
    (["classify", "--scalar", "float"], "nan", 2, PERIPHERY),
    (["check-solution", "--solution", "cs-generalized", "--samples", "3"], None, 0,
     {"ma6.octonion"}),
    (["demo", "cs", "--samples", "3"], None, 0, {"ma6.octonion"}),
], ids=["classify", "classify-float", "split", "near-boundary-probe", "nan-probe",
        "cs-generalized", "demo-cs"])
def test_subcommand_loads_only_its_modules(argv, doc, code, unused):
    """A CLI child imports the modules its subcommand runs and no others:
    classify, split and the two probes load no field, polynomial, octonion
    or case-study code and no dataclasses; the solution checks load no
    octonions."""
    doc = {"exact": serialize_form(table1_form(2, Fraction(3, 2))),
           "near": {"version": 1, "scalar": "float", "grade": 3,
                    "coefficients": {"234": 1 + 1e-5, "135": -1e-5, "126": 1e-5}},
           "nan": {"version": 1, "scalar": "float", "grade": 3,
                   "coefficients": {"123": float("nan"), "456": 1.0}},
           None: None}[doc]
    got_code, loaded = run_python(LOADED_MODULES_RUN, json.dumps([argv, doc]))
    assert got_code == code
    assert set(CORE) <= set(loaded)
    assert not unused & set(loaded), sorted(unused & set(loaded))


def test_import_loads_only_the_core():
    """``import ma6`` loads exactly the five core submodules."""
    code = ("import json, sys, ma6; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ma6.'))))")
    assert run_python(code) == CORE


# sorted(ma6.__all__) when every submodule was imported eagerly
PUBLIC_NAMES = [
    "Bivector6", "BranchChangeError", "CubicPencil", "DegenerateError",
    "DegenerateFormError", "DegeneratePointError", "DiffeoMap", "EffectivenessError",
    "ExactComplex", "ExactnessError", "FormField", "GczStructure", "GradeError",
    "InvariantReport", "KForm", "MetricField", "Octonion", "OrbitClass", "Poly",
    "QuadForm6", "SectionMap", "Signature", "SplitPair", "Submanifold3",
    "SymplecticSpace", "UnclassifiableError", "associative_form", "bot", "build_gcy",
    "casestudies", "char_pencil", "check_generalized_solution", "christoffel",
    "classify", "closedness_check", "compat_q_k", "cross", "d_exact", "d_numeric",
    "documents", "dual_form", "exterior", "fields", "flatness_check",
    "gcy_integrability_check", "hitchin", "hitchin_k", "hll_decompose", "in_sp3",
    "interior_bivector", "interior_vector", "is_decomposable", "is_effective",
    "is_symplectomorphism", "k_squared", "lambda_field", "lr", "ma_operator",
    "octonion", "pfaffian", "poly", "project_effective", "pullback_field_poly",
    "q_form", "rational_sqrt", "riemann", "sample_box", "signature", "split_pair",
    "standard_space", "symplectic", "table1_form", "theta_pairing", "top", "wedge",
]


PUBLIC_SURFACE_RUN = """
import json
import ma6.classify
import ma6.fields
import ma6

print(json.dumps([sorted(ma6.__all__), [n for n in ma6.__all__ if getattr(ma6, n) is None],
                  callable(ma6.classify) and not isinstance(ma6.classify, type(ma6)),
                  ma6.FormField is ma6.fields.FormField, sorted(set(ma6.__all__) - set(dir(ma6)))]))
"""


def test_public_surface_unchanged():
    """In a fresh process, the package exports the names it exported when
    it imported every submodule eagerly and each resolves; ``ma6.classify``
    is still the function after ``import ma6.classify``; the lazy names are
    the submodules' own.  The reports keep their reprs, and a report
    serializes by field name."""
    import ma6

    assert run_python(PUBLIC_SURFACE_RUN) == [PUBLIC_NAMES, [], True, True, []]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ma6.no_such_name

    s = ma6.standard_space()
    _, report = ma6.classify(table1_form(2, Fraction(3, 2)), s)
    assert repr(report.signature) == "Signature(pos=0, neg=6, zero=0)"
    assert json.loads(dump_report({"report": report})) == {"report": {
        "lambda_": "-81/16", "signature": {"pos": 0, "neg": 6, "zero": 0},
        "effective": True, "nondegenerate": True, "branch": "elliptic"}}
    assert repr(report) == (
        "InvariantReport(lambda_=Fraction(-81, 16), signature=Signature(pos=0, neg=6, "
        "zero=0), effective=True, nondegenerate=True, branch='elliptic')")
    c = Poly({(0,) * 6: Fraction(1), (0, 0, 0, 2, 0, 0): Fraction(1)})
    fld = FormField(3, [c] + [Poly({})] * 18 + [Poly.const(Fraction(1))])
    assert repr(ma6.closedness_check(fld, s, [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]])) == (
        "CheckReport(passed=False, max_residual=0.371390674973604, n_points=1, "
        "tol=1e-06, details={'normalized': 0.371390674973604, "
        "'dual': 0.3713906749724938})")
    L = casestudies.cs_generalized_solution(gamma=1, b=1)
    rep = ma6.check_generalized_solution(L, FormField.constant(cs_form(1.0)), s,
                                         [[0.5, 1.0, 1.5], [1.0, 2.0, 0.5]])
    assert repr(rep) == (
        "SolutionReport(passed=True, max_lagrangian=8.104628079763643e-11, "
        "max_omega=1.4777823409417579e-10, n_points=2, excluded=[], tol=1e-06)")


def test_cli_module_runs_once():
    """``import ma6`` does not import ma6.cli, so ``python -m ma6.cli`` runs
    it once, without runpy's "found in sys.modules" warning."""
    proc = run_cli_process(["classify"], form_doc(table1_form(1, Fraction(1))))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class"] == "HessianOne"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["split"],
    ["check-structure", "--input", "-", "--samples", "1"],
    ["check-solution", "--solution", "cs-regular", "--input", "-", "--samples", "1"],
    ["check-solution", "--solution", "cs-generalized", "--input", "-", "--samples", "1"],
])
def test_cli_wrong_grade_exit2(argv):
    """A 2-form document is invalid input for every form-reading command."""
    proc = run_cli_process(argv, form_doc(KForm.basis(1, 4)))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "expected a 3-form, got grade 2" in proc.stderr


def test_cli_check_structure_non_effective_exit3():
    """dq123 + dp123 + dq1∧dq2∧dp2 is not effective: the q-metric of the
    flatness check rejects it, and the command exits 3 as classify does."""
    doc = json.dumps({"version": 1, "scalar": "exact", "grade": 3,
                      "coefficients": {"123": "1", "456": "1", "125": "1"}})
    proc = run_cli_process(["check-structure", "--input", "-", "--samples", "1"], doc)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["demo", "cs", "--gamma", "nan"],
    ["demo", "cs", "--gamma", "inf"],
    ["check-solution", "--solution", "hess-one", "--b", "nan"],
    ["check-structure", "--h", "0"],
    ["check-structure", "--h", "nan"],
    ["check-structure", "--samples", "0"],
    ["check-solution", "--solution", "cs-regular", "--samples", "0"],
    ["demo", "s6", "--samples", "0"],
    ["classify", "--scalar", "float", "--tol", "nan"],
    ["classify", "--tol", "-1"],
    ["check-solution", "--solution", "cs-regular", "--h", "1e-4"],
    ["classify", "--seed", "1"],
    ["split", "--seed", "1"],
    ["split", "--tol", "1e-6"],
    ["check-solution", "--solution", "cs-regular", "--perturb", "nan"],
    ["check-solution", "--solution", "cs-generalized", "--b", "-100"],
])
def test_cli_bad_option_exit2(argv):
    """Out-of-range numeric options, and the options no command reads, are
    rejected by the parser before any input is read: exit 2 and a usage
    message."""
    proc = run_cli_process(argv, form_doc(table1_form(1, Fraction(1))))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "usage:" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, domain", [
    (["demo", "cs", "--box=-1,-0.5"], "x² + 2y > 0"),
    (["demo", "cs", "--box=-1,1"], "xy + yz + zx > 0"),
    (["check-solution", "--solution", "cs-regular", "--box=-1,-0.5"], "x² + 2y > 0"),
    (["check-solution", "--solution", "hess-one", "--box=-1,1"], "xy + yz + zx > 0"),
    (["check-solution", "--solution", "cs-generalized", "--box=-1,1"], "xy + yz + zx > 0"),
], ids=["demo-cs-negative", "demo-cs", "cs-regular", "hess-one", "cs-generalized"])
def test_cli_box_outside_domain_exit2(argv, domain):
    """A --box whose sample points leave a built-in solution's domain is
    invalid input: exit 2 with a message naming the domain."""
    proc = run_cli_process([*argv, "--samples", "20"], None)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"--box leaves the domain {domain}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["check-solution", "--solution", "cs-regular", "--box", "1,inf", "--samples", "2"],
    ["check-structure", "--box=-inf,inf", "--samples", "1"],
    ["demo", "cs", "--box", "1,inf"],
    ["demo", "cs", "--box", "nan,1"],
    ["check-solution", "--solution", "hess-one", "--box", "0.5,2;0.5,2;0.5,nan"],
], ids=["cs-regular", "check-structure", "demo-cs", "demo-cs-nan", "hess-one-per-axis"])
def test_cli_box_bounds_must_be_finite(argv):
    """An infinite or NaN --box bound is invalid input: exit 2 with a
    message, before a sample point is drawn."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv, form_doc(table1_form(1, Fraction(1))))
    assert code == 2
    assert "box bounds must be finite" in err.getvalue()
    assert out == ""


def test_cli_split_float_degenerate_exit4():
    """Row 4 moved by float symplectic shears: float λ is of rounding size,
    and classify --scalar float already reads it as 0; split --scalar float
    reads it by the same rule and exits 4, where it used to print pieces of
    size 1e8."""
    import random

    doc = form_doc(sheared_float_form(table1_form(4), random.Random(3)))
    code, out = run_cli(["classify", "--scalar", "float"], stdin_text=doc)
    assert code == 0 and json.loads(out)["lambda"] == 0.0
    proc = run_cli_process(["split", "--scalar", "float"], doc)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("solution", ["cs-regular", "cs-generalized", "hess-one"])
def test_cli_check_solution_missing_input_exit2(solution, tmp_path):
    proc = run_cli_process(["check-solution", "--solution", solution, "--input",
                            str(tmp_path / "missing.json"), "--samples", "1"], None)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cannot read input" in proc.stderr


@pytest.mark.parametrize("form, code", [
    (cs_form(1), 0),
    (KForm.basis(1, 2, 3), 1),
])
def test_cli_check_solution_generalized_reads_input(form, code):
    """--input replaces the builtin form: the solution surface at γ = 1
    passes for the builtin form and fails for dq123, which does not vanish
    on it."""
    proc = run_cli_process(["check-solution", "--solution", "cs-generalized",
                            "--gamma", "1", "--input", "-", "--samples", "5"],
                           form_doc(form))
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout)["passed"] == (code == 0)


def test_cli_check_structure_degenerate_stencil_point_exit4():
    """At q1 = 1e-4 the stencil point q1 − h has λ = 0: exit 4 with a
    message naming the point, not a traceback."""
    proc = run_cli_process(["check-structure", "--input", "-",
                            "--box=0.0001,0.0001", "--samples", "1"],
                           json.dumps(BRANCH_FIELD_DOC))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert "|λ| below threshold at (0.0, 0.0001" in proc.stderr


def test_cli_split_builds_k_twice(monkeypatch):
    """ma6 split takes λ, the dual and the split from one K, and build_gcy
    builds one more: at most 2 K per form over table rows 1–9."""
    calls = []
    hitchin_k = sys.modules["ma6.hitchin"].hitchin_k

    def counting_hitchin_k(*args):
        calls.append(1)
        return hitchin_k(*args)

    # ma6.classify is also the name of a function in the ma6 package
    for module in (sys.modules["ma6.hitchin"], sys.modules["ma6.classify"], cli):
        monkeypatch.setattr(module, "hitchin_k", counting_hitchin_k)
    for row in range(1, 10):
        for p in (Fraction(1), Fraction(3, 2)):
            calls.clear()
            code, out = run_cli(["split"], stdin_text=form_doc(table1_form(row, p)))
            assert code in (0, 4)
            assert len(calls) <= 2, (row, p)
            if code == 0 and "structure" in json.loads(out):
                assert len(calls) == 2


@pytest.mark.parametrize("command", ["classify", "split"])
def test_cli_huge_exponent_exit2(command):
    """"1e100000000" is invalid input, exit 2 within 20 s: it used to run
    on past 20 s, building 10¹⁰⁰⁰⁰⁰⁰⁰⁰ and the invariants of a form
    holding it.  Run in a child process, which the timeout can stop."""
    doc = json.dumps({"version": 1, "grade": 3,
                      "coefficients": {"123": "1e100000000", "456": "1"}})
    proc = run_cli_process([command], doc, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: rational '1e100000000' expands to more than")


@pytest.mark.parametrize("argv", [["classify"], ["classify", "--format", "text"],
                                  ["split"], ["split", "--format", "text"]])
def test_cli_report_too_long_to_print_exit2(argv):
    """λ = 10⁴⁴⁰⁰ of e123·10²²⁰⁰ + e456 has more digits than Python prints
    (sys.get_int_max_str_digits(), 4300 by default): exit 2 with a
    message, not a traceback and exit 1."""
    doc = json.dumps({"version": 1, "grade": 3,
                      "coefficients": {"123": "1e2200", "456": "1"}})
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv, stdin_text=doc)
    assert code == 2
    assert out == ""
    assert err.getvalue().startswith("error: a rational of the report is too long to print")


def test_cli_unreadable_input_exit2(tmp_path):
    """Input that json cannot read, a JSON number longer than Python
    converts and bytes that are not UTF-8, exits 2 with a message."""
    long_number = tmp_path / "long.json"
    long_number.write_text('{"version": 1, "grade": 3, "coefficients": {"123": '
                           + "1" * 5000 + "}}")
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b'{"version": 1, "grade": 3, "\xff": 1}')
    for path in (long_number, not_utf8):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["classify", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("error: cannot read input: ")


# --- malformed form documents: exit 2 or 4, never a traceback

_VALID_INDICES = {"".join(map(str, c)) for c in COMBS[3]}
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
                       st.floats(), st.text(max_size=6))
_json_value = st.recursive(
    _json_leaf, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                        st.dictionaries(st.text(max_size=4), inner,
                                                        max_size=3)),
    max_leaves=6)
_huge = st.one_of(st.floats(min_value=1.01e50, allow_infinity=False),
                  st.floats(max_value=-1.01e50, allow_infinity=False),
                  st.integers(min_value=10 ** 309, max_value=10 ** 400))

_non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def _malformed_form_doc(draw):
    """(argv, document): a valid row-2 document in exact or float mode
    with one defect: a random value at one key, a bad index string, a bool
    coefficient, or a huge or non-finite number."""
    mode = draw(st.sampled_from(("exact", "float")))
    scalar = draw(st.sampled_from(("exact", "float")))
    argv = [draw(st.sampled_from(("classify", "split"))), "--scalar", scalar]
    one = "1" if mode == "exact" else 1.0
    doc = {"version": 1, "scalar": mode, "grade": 3,
           "coefficients": {"234": one, "135": one, "126": one, "456": one}}
    defect = draw(st.sampled_from(("key", "index", "bool", "huge", "non-finite")))
    coeffs = doc["coefficients"]
    key = draw(st.sampled_from(sorted(coeffs)))
    if defect == "key":
        name = draw(st.sampled_from(("version", "scalar", "grade", "coefficients",
                                     "symplectic", "extra")))
        valid = {"version": lambda v: type(v) is int and v == 1,
                 "scalar": lambda v: v == mode,
                 "grade": lambda v: type(v) is int and v == 3,
                 "coefficients": lambda v: isinstance(v, dict)
                 and all(k in _VALID_INDICES for k in v)}.get(
                     name, lambda v: False)
        doc[name] = draw(_json_value.filter(lambda v: not valid(v)))
    elif defect == "index":
        bad = draw(st.text(max_size=5).filter(lambda k: k not in _VALID_INDICES))
        coeffs[bad] = one
    elif defect == "bool":
        coeffs[key] = draw(st.booleans())
    elif defect == "huge":
        value = draw(_huge)
        if mode == "exact":
            # an exact huge value is only out of range for float arithmetic
            argv[2] = "float"
            value = str(Fraction(value))
        coeffs[key] = value
    else:
        value = draw(_non_finite)
        coeffs[key] = value if mode == "float" else draw(st.sampled_from((value, str(value))))
    return argv, doc


@given(_malformed_form_doc())
@settings(max_examples=300, deadline=None)
def test_cli_malformed_form_documents_exit_2_or_4(case):
    """`ma6 classify` and `ma6 split`, run in-process on a malformed
    document, exit 2 (or 4) with a message on stderr and no traceback."""
    argv, doc = case
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv, stdin_text=json.dumps(doc))
    assert code in (2, 4), (argv, doc, out)
    assert out == ""
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


# --- field documents for check-structure: an exit code, never a traceback

_ROW2_FIELD = {"234": "1", "135": "-1", "126": "1", "456": "-1/4"}
_small_exponents = st.lists(st.integers(0, 3), min_size=6, max_size=6)


@st.composite
def _field_doc(draw):
    """A field document: the constant row-2 field with one to three
    polynomial terms added, and at most one defect: a term at a bad index,
    a malformed exponent vector, an exponent up to 10²⁵, a coefficient that
    is not a rational, or a random value at one key of the document."""
    doc = {"version": 1, "scalar": "exact", "grade": 3,
           "coefficients": {k: {"0,0,0,0,0,0": v} for k, v in _ROW2_FIELD.items()}}
    coeffs = doc["coefficients"]
    terms = [[draw(st.sampled_from(sorted(_VALID_INDICES))), draw(_small_exponents),
              str(draw(st.fractions(-5, 5, max_denominator=7)))]
             for _ in range(draw(st.integers(1, 3)))]
    defect = draw(st.sampled_from(("none", "none", "none", "index", "vector", "huge",
                                   "value", "key")))
    term = terms[0]
    if defect == "index":
        term[0] = draw(st.text(max_size=4).filter(lambda k: k not in _VALID_INDICES))
    elif defect == "vector":
        term[1] = draw(st.text(max_size=12))
    elif defect == "huge":
        term[1][draw(st.integers(0, 5))] = draw(st.integers(0, 10 ** 25))
    elif defect == "value":
        term[2] = draw(_json_leaf)
    for index, exponents, value in terms:
        key = exponents if isinstance(exponents, str) else ",".join(map(str, exponents))
        coeffs.setdefault(index, {})[key] = value
    if defect == "key":
        name = draw(st.sampled_from(("version", "scalar", "grade", "coefficients", "extra")))
        doc[name] = draw(_json_value)
    return doc


@given(_field_doc())
@settings(max_examples=150, deadline=None)
def test_cli_check_structure_field_documents_exit_with_a_code(doc):
    """`ma6 check-structure`, run in-process on a random field document,
    exits with a documented code, 0 to 4, and no traceback: a report on
    stdout for 0 and 1, a message on stderr otherwise."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["check-structure", "--samples", "1"], stdin_text=json.dumps(doc))
    assert code in (0, 1, 2, 3, 4), (doc, out)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        assert json.loads(out)["command"] == "check-structure"
    else:
        assert out == "" and err.getvalue().startswith("error: ")


def test_cli_check_structure_huge_exponent_exit_2():
    """An exponent of 10²² used to make `check-structure` multiply for good;
    above MAX_EXPONENT it is invalid input, and at it the field is checked."""
    from ma6.documents import MAX_EXPONENT

    for e, want in ((MAX_EXPONENT, 0), (MAX_EXPONENT + 1, 2), (10 ** 22, 2)):
        doc = {"version": 1, "scalar": "exact", "grade": 3,
               "coefficients": {k: {"0,0,0,0,0,0": v} for k, v in _ROW2_FIELD.items()}}
        doc["coefficients"]["123"] = {f"{e},0,0,0,0,0": "1"}
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["check-structure", "--samples", "1"],
                                stdin_text=json.dumps(doc))
        assert code == want, (e, err.getvalue())
        if want == 2:
            assert str(MAX_EXPONENT) in err.getvalue()


def test_cli_demo_cs_non_integer_gamma():
    """γ = 0.5 reduces by its exact value 1/2: the demo passes, where a float
    γ in the reduction map used to raise TypeError."""
    code, out = run_cli(["demo", "cs", "--gamma", "0.5"])
    rep = json.loads(out)
    assert code == 0
    assert rep["passed"] is True
    assert rep["checks"]["reduction_pullback_exact"] is True
