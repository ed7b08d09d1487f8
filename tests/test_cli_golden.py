"""`ma6 classify` and `ma6 split`, exact and float, on the normal forms of
the classification table, and `ma6 check-structure` on four field
documents, compared byte for byte with recorded reports.

The 108 classify/split runs are classify/split × exact/float × rows 1–9 ×
p ∈ {1, 3/2, 2}; their stdout and exit codes are kept in
data/cli_golden.json.  The 8 check-structure runs are json/text × a
constant, a branch, a polynomial and a non-closed field, each with
--box=0.1,0.9 --samples 8; they are kept in data/structure_golden.json.
Regenerate both files, only for an intended change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from ma6 import cli
from ma6.classify import table1_form
from ma6.documents import serialize_form

from test_documents_cli import BRANCH_FIELD_DOC

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = [(cmd, scalar) for cmd in ("classify", "split") for scalar in ("exact", "float")]

STRUCTURE_GOLDEN = Path(__file__).parent / "data" / "structure_golden.json"
_ONE = {"0,0,0,0,0,0": "1"}
# c(x)·(dq123 + dp123), c = 1 + (3/2)q1² + (1/2)p2²: closed after normalization
_C = {"0,0,0,0,0,0": "1", "2,0,0,0,0,0": "3/2", "0,0,0,0,2,0": "1/2"}
STRUCTURE_DOCS = {
    "constant": {"234": _ONE, "135": {"0,0,0,0,0,0": "-1"}, "126": _ONE,
                 "456": {"0,0,0,0,0,0": "-1/4"}},
    "branch": BRANCH_FIELD_DOC["coefficients"],
    "polynomial": {"123": _C, "456": _C},
    # (1 + p1²)·dq123 + dp123
    "nonclosed": {"123": {"0,0,0,0,0,0": "1", "0,0,0,2,0,0": "1"}, "456": _ONE},
}
STRUCTURE_RUNS = [(name, fmt) for name in STRUCTURE_DOCS for fmt in ("json", "text")]


def run_cli(argv, doc):
    """{"exit", "stdout"} of one in-process CLI run reading doc on stdin."""
    stdout, old_stdin = io.StringIO(), sys.stdin
    try:
        sys.stdin = io.StringIO(json.dumps(doc))
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return {"exit": code, "stdout": stdout.getvalue()}


def run(cmd, scalar):
    """{"row:p": {"exit", "stdout"}} of one command over rows 1–9 and p."""
    return {f"{row}:{p}": run_cli([cmd, "--scalar", scalar],
                                  serialize_form(table1_form(row, Fraction(p))))
            for row in range(1, 10) for p in ("1", "3/2", "2")}


def run_structure(name, fmt):
    doc = {"version": 1, "scalar": "exact", "grade": 3,
           "coefficients": STRUCTURE_DOCS[name]}
    return run_cli(["check-structure", "--box=0.1,0.9", "--samples", "8",
                    "--format", fmt], doc)


@pytest.mark.parametrize("cmd, scalar", COMMANDS)
def test_cli_matches_golden(cmd, scalar):
    want = json.loads(GOLDEN.read_text())[f"{cmd} {scalar}"]
    assert run(cmd, scalar) == want


@pytest.mark.parametrize("name, fmt", STRUCTURE_RUNS)
def test_check_structure_matches_golden(name, fmt):
    want = json.loads(STRUCTURE_GOLDEN.read_text())[f"{name} {fmt}"]
    assert run_structure(name, fmt) == want


if __name__ == "__main__":
    golden = {f"{cmd} {scalar}": run(cmd, scalar) for cmd, scalar in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    structure = {f"{name} {fmt}": run_structure(name, fmt) for name, fmt in STRUCTURE_RUNS}
    STRUCTURE_GOLDEN.write_text(json.dumps(structure, indent=1, ensure_ascii=False) + "\n")
