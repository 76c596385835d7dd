"""Contract checks that must hold under `python -O`, which strips bare asserts.

Each case injects one fault into a `python -O` subprocess and expects the check
that guards against it to raise AssertionError with its own message; in the CLI
such a failure is an internal error with exit code 4.
"""

import json
import os
import subprocess
import sys

import pytest

import deltasimplex

SCRIPT = """
import sys
from deltasimplex import Simplex
import deltasimplex.classify as classify, deltasimplex.ehrhart as ehrhart, deltasimplex.lattice as lattice

assert False, "asserts are not stripped"  # never raises under -O
triangle = Simplex(((0, 0), (1, 0), (0, 1)))
{fault}
for call in ({calls},):
    try:
        call()
    except AssertionError as exc:
        print(exc)
    else:
        print("returned")
"""

# fault, calls that must raise, a phrase of the raising check's message
FAULTS = {
    "witness-closed-form": (
        "classify.closed_form_delta = lambda spec: (1,) * (spec.dim + 1)",
        "lambda: classify.witness((1, 0, 4, 0), 5), lambda: classify.enumerate_admissible(5, 3)",
        "not the requested one",
    ),
    "snf-membership": (
        "real = lattice.mat_mul\n"
        "lattice.mat_mul = lambda a, b: [[x + 1 for x in row] for row in real(a, b)]",
        "lambda: lattice.smith_normal_form([[2, 1], [0, 3]])",
        "of matrix @ right is not a multiple of",
    ),
    "dilate-count-off-by-one": (
        "real = ehrhart._count_dilates\n"
        "ehrhart._count_dilates = lambda *args: (\n"
        "    lambda closed, interior: (tuple(x + 1 for x in closed), interior)\n"
        ")(*real(*args))",
        "lambda: ehrhart.ehrhart_delta(triangle), lambda: ehrhart.ehrhart_table(triangle).delta",
        "dilate counts give delta-vector",
    ),
    "table-interior-above-closed": (
        "real = ehrhart._count_dilates\n"
        "ehrhart._count_dilates = lambda *args: (\n"
        "    lambda closed, interior: (closed, tuple(x + 100 for x in interior))\n"
        ")(*real(*args))",
        "lambda: ehrhart.ehrhart_table(triangle), lambda: ehrhart.reciprocity_check(triangle)",
        "exceed closed counts",
    ),
}


def run_optimized(script):
    src = os.path.dirname(os.path.dirname(deltasimplex.__file__))
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("name", FAULTS)
def test_check_raises_under_optimize(name):
    fault, calls, phrase = FAULTS[name]
    result = run_optimized(SCRIPT.format(fault=fault, calls=calls))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines and all(phrase in line for line in lines), lines


def test_internal_fault_exits_4_under_optimize():
    """A failed contract check is an internal error (exit 4), not a negative verdict (exit 1)."""
    result = run_optimized(
        "import sys\n"
        "import deltasimplex.classify as classify\n"
        "from deltasimplex.cli import main\n"
        "classify.closed_form_delta = lambda spec: (1,) * (spec.dim + 1)\n"
        "sys.exit(main(['classify', '--delta', '1,0,4,0', '--volume', '5']))\n"
    )
    assert result.returncode == 4, result.stderr
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "internal-error"
    assert "not the requested one" in error["message"]
