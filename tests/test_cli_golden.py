"""`ma6 classify` and `ma6 split`, exact and float, on the normal forms of
the classification table, compared byte for byte with recorded reports.

The 108 runs are classify/split × exact/float × rows 1–9 × p ∈ {1, 3/2, 2}.
Their stdout and exit codes are kept in data/cli_golden.json.  Regenerate
the file, only for an intended change of output, with

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

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = [(cmd, scalar) for cmd in ("classify", "split") for scalar in ("exact", "float")]


def run(cmd, scalar):
    """{"row:p": {"exit", "stdout"}} of one command over rows 1–9 and p."""
    out = {}
    for row in range(1, 10):
        for p in ("1", "3/2", "2"):
            doc = json.dumps(serialize_form(table1_form(row, Fraction(p))))
            stdout, old_stdin = io.StringIO(), sys.stdin
            try:
                sys.stdin = io.StringIO(doc)
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    code = cli.main([cmd, "--scalar", scalar])
            finally:
                sys.stdin = old_stdin
            out[f"{row}:{p}"] = {"exit": code, "stdout": stdout.getvalue()}
    return out


@pytest.mark.parametrize("cmd, scalar", COMMANDS)
def test_cli_matches_golden(cmd, scalar):
    want = json.loads(GOLDEN.read_text())[f"{cmd} {scalar}"]
    assert run(cmd, scalar) == want


if __name__ == "__main__":
    golden = {f"{cmd} {scalar}": run(cmd, scalar) for cmd, scalar in COMMANDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
