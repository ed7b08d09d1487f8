"""JSON interchange and the command-line entry points."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ma6 import cli
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
from ma6.exterior import COMBS, KForm
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


def run_cli_process(argv, stdin_text):
    """``python -m ma6.cli ARGV`` in a child process, runpy warnings as errors."""
    import ma6

    src = os.path.dirname(os.path.dirname(ma6.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "ma6.cli",
                           *argv], input=stdin_text, capture_output=True, text=True,
                          env=env, timeout=120)


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
