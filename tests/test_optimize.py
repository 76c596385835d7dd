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
    "witness-coefficients-overflow": (
        "classify._PATTERN_CASES[5][(4,)] = ('i', lambda i1, *_: (0, i1 + 5, i1 - 1, 0))",
        "lambda: classify.witness((1, 0, 4, 0), 5), lambda: classify.enumerate_admissible(5, 3)",
        "that are negative or sum past",
    ),
    "closed-form-exponent-range": (
        "spec = classify.HNFSpec(5, (0, 0, 0, 0), 1)\n"
        "object.__setattr__(spec, 'coeffs', (0, 4, 0, 0))  # past the sum check of HNFSpec",
        "lambda: classify.closed_form_delta(spec)",
        "outside [1, 1]",
    ),
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
        "lambda: ehrhart.ehrhart_table(triangle)",
        "exceed closed counts",
    ),
    "closed-count-off-by-one": (
        "real = ehrhart._count_dilates\n"
        "ehrhart._count_dilates = lambda *args: (\n"
        "    lambda closed, interior: (closed[:-1] + (closed[-1] + 1,), interior)\n"
        ")(*real(*args))",
        "lambda: ehrhart.ehrhart_table(triangle)",
        "closed count fails at (n, counted, predicted) = (3, 11, 10)",
    ),
    "interior-off-by-one": (
        "real = ehrhart._count_dilates\n"
        "ehrhart._count_dilates = lambda *args: (\n"
        "    lambda closed, interior: (closed, tuple(x + 1 for x in interior))\n"
        ")(*real(*args))",
        "lambda: ehrhart.ehrhart_table(triangle), lambda: ehrhart.ehrhart_delta(triangle)",
        "reciprocity fails at (n, counted, predicted) = (1, 1, 0)",
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


def test_internal_fault_exits_4_under_optimize(tmp_path):
    """A failed contract check is an internal error (exit 4), not a negative verdict (exit 1)."""
    triangle = tmp_path / "triangle.json"
    triangle.write_text('{"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 3, 5]]}')
    for fault, argv, phrase in (
        (FAULTS["witness-closed-form"][0], ["classify", "--delta", "1,0,4,0", "--volume", "5"], "not the requested one"),
        (FAULTS["interior-off-by-one"][0], ["oracle", "--simplex", str(triangle)], "reciprocity fails"),
        (FAULTS["closed-count-off-by-one"][0], ["oracle", "--simplex", str(triangle)], "closed count fails"),
        (FAULTS["interior-off-by-one"][0], ["verify", "--simplex", str(triangle)], "reciprocity fails"),
    ):
        result = run_optimized(
            "import sys\n"
            "import deltasimplex.classify as classify, deltasimplex.ehrhart as ehrhart\n"
            "from deltasimplex.cli import main\n"
            f"{fault}\n"
            f"sys.exit(main({argv!r}))\n"
        )
        assert result.returncode == 4, result.stderr
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error["type"] == "internal-error"
        assert phrase in error["message"]
