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
import deltasimplex.box as box, deltasimplex.classify as classify, deltasimplex.ehrhart as ehrhart
import deltasimplex.groups as groups
import deltasimplex.hnf as hnf, deltasimplex.lattice as lattice

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

# doubles the last column of the SNF's right transform, and so the last generator
DOUBLED_LAST_COLUMN = (
    "real = box.smith_normal_form\n"
    "box.smith_normal_form = lambda m: (\n"
    "    lambda snf: snf._replace(right=tuple(row[:-1] + (2 * row[-1],) for row in snf.right))\n"
    ")(real(m))\n"
)

# adds 1 to the first entry of the last column of the SNF's right transform, which
# moves the last generator off the lattice: some of its multiples have fractional degree
SHIFTED_LAST_COLUMN = (
    "real = box.smith_normal_form\n"
    "box.smith_normal_form = lambda m: (\n"
    "    lambda snf: snf._replace(right=(snf.right[0][:-1] + (snf.right[0][-1] + 1,),) + snf.right[1:])\n"
    ")(real(m))\n"
)

# reads the unit-element lane of the next group element, so the sweep completes its
# d characters with one that does not bring their sum to zero
MISREAD_COMPLETION = (
    "real = groups.RowFormat.offset\n"
    "groups.RowFormat.offset = lambda self, item: real(self, item + 1)\n"
)

# fault, calls that must raise, a phrase of the raising check's message
FAULTS = {
    "witness-coefficients-overflow": (
        "classify._PATTERN_CASES[5][(4,)] = ('i', lambda *_: (0, 7, 1, 0))",
        "lambda: classify.witness((1, 0, 4, 0)), lambda: classify.enumerate_admissible(5, 3)",
        "case i gave coefficients (0, 7, 1, 0): coefficient sum must be at most dim - 1",
    ),
    "witness-coefficients-negative": (
        "classify._PATTERN_CASES[5][(4,)] = ('i', lambda *_: (0, -1, 1, 0))",
        "lambda: classify.witness((1, 0, 4, 0)), lambda: classify.enumerate_admissible(5, 3)",
        "case i gave coefficients (0, -1, 1, 0): coefficients must be nonnegative",
    ),
    "witness-coefficients-wrong-length": (
        "classify._PATTERN_CASES[5][(4,)] = ('i', lambda *_: (0, 1, 1))",
        "lambda: classify.witness((1, 0, 4, 0)), lambda: classify.enumerate_admissible(5, 3)",
        "case i gave coefficients (0, 1, 1): expected 4 coefficients, got 3",
    ),
    # unchecked, the cyclic sweep at (3, 7) returns ((1, 0, 0, 0),), a vector of volume 1
    "sweep-completion-misread": (
        MISREAD_COMPLETION,
        "lambda: groups.exhaustive_search(3, 7), lambda: groups.exhaustive_search(3, 8)",
        "give age counts summing to",
    ),
    "witness-pattern-unmatched": (
        "del classify._PATTERN_CASES[5][(4,)]",
        "lambda: classify.witness((1, 0, 4, 0)), lambda: classify.enumerate_admissible(5, 3)",
        "no case matches multiplicity pattern (4,)",
    ),
    "closed-form-exponent-range": (
        "spec = classify.HNFSpec(5, (0, 0, 0, 0), 1)._replace(coeffs=(0, 4, 0, 0))  # past the sum check of HNFSpec",
        "lambda: classify.closed_form_delta(spec)",
        "outside [1, 1]",
    ),
    "witness-closed-form": (
        "classify.closed_form_delta = lambda spec: (1,) * (spec.dim + 1)",
        "lambda: classify.witness((1, 0, 4, 0)), lambda: classify.enumerate_admissible(5, 3)",
        "not the requested one",
    ),
    # the simplex has group Z/4; doubling the generator column makes it generate
    # only a subgroup of order 2, which an unchecked count would report as (1, 1, 0)
    "box-generators-not-independent": (
        DOUBLED_LAST_COLUMN + "broken = Simplex(((0, 0), (1, 0), (1, 4)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "box points of degree 0; the generators are not independent",
    ),
    # the group is Z/2 x Z/2, so both generators share the lanes of one piece; doubled,
    # the last is 0 and every element of the other generator's subgroup is counted twice
    "box-noncyclic-generators-not-independent": (
        DOUBLED_LAST_COLUMN + "broken = Simplex(((0, 0), (2, 0), (0, 2)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "box points of degree 0; the generators are not independent",
    ),
    "box-off-lattice": (
        SHIFTED_LAST_COLUMN + "broken = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 5)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "not an integer",
    ),
    # every lane of the base rows holds its numerator plus den, so each element's d+1
    # numerators sum to d+1 multiples of den too many: an integer degree past d
    "box-degree-range": (
        "real = box.RowFormat.row\n"
        "box.RowFormat.row = lambda self, steps, orders: real(self, steps, orders) + self.ones * self.modulus\n"
        "broken = Simplex(((0, 0), (1, 0), (1, 4)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "box point degree 3 outside [0, 2]",
    ),
    # the group is Z/2003, walked in four pieces of at most 512 elements; the second never arrives
    "box-piece-dropped": (
        "real = box._box_pieces\n"
        "box._box_pieces = lambda s: (\n"
        "    lambda den, lanes, pieces: (den, lanes, (piece for k, piece in enumerate(pieces) if k != 1))\n"
        ")(*real(s))\n"
        "broken = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 2003)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "box degree counts do not sum to the normalized volume",
    ),
    # the simplex has group Z/4; a doubled last invariant factor claims a group of order 8
    "box-group-order": (
        "real = box.smith_normal_form\n"
        "box.smith_normal_form = lambda m: (\n"
        "    lambda snf: snf._replace(diagonal=snf.diagonal[:-1] + (2 * snf.diagonal[-1],))\n"
        ")(real(m))\n"
        "broken = Simplex(((0, 0), (1, 0), (1, 4)))",
        "lambda: box.delta_from_box(broken), lambda: box.enumerate_box(broken)",
        "box group order differs from the normalized volume",
    ),
    "hnf-built-volume": (
        "real = hnf.Simplex\n"
        "hnf.Simplex = lambda vertices: real(vertices[:-1] + (tuple(2 * x for x in vertices[-1]),))",
        "lambda: hnf.build_simplex(hnf.HNFSpec(5, (0, 1, 0, 0), 3))",
        "built a simplex of volume 10",
    ),
    "nonprime-family-prediction": (
        "hnf.closed_form_delta = lambda spec: (1,) * (spec.dim + 1)",
        "lambda: hnf.nonprime_family(6)",
        "not the predicted",
    ),
    # the elimination runs on a copy whose last diagonal entry is one larger: [[2, 1], [0, 4]]
    # has Smith form (1, 8), and the check, which multiplies out the input itself, finds that
    # column 1 of [[2, 1], [0, 3]] @ right is not a multiple of 8
    "snf-membership": (
        "real = lattice._int_matrix\n"
        "lattice._int_matrix = lambda m: (\n"
        "    lambda a: a[:-1] + [a[-1][:-1] + [a[-1][-1] + 1]]\n"
        ")(real(m))",
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
    "table-length": (
        "real = ehrhart._count_dilates\n"
        "ehrhart._count_dilates = lambda *args: (\n"
        "    lambda closed, interior: (closed[:-1], interior)\n"
        ")(*real(*args))",
        "lambda: ehrhart.ehrhart_table(triangle)",
        "2-simplex table of lengths 3, 3",
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
        (FAULTS["witness-closed-form"][0], ["classify", "--delta", "1,0,4,0"], "not the requested one"),
        (FAULTS["witness-pattern-unmatched"][0], ["classify", "--delta", "1,0,4,0"], "no case matches"),
        (FAULTS["witness-coefficients-wrong-length"][0], ["enumerate", "--volume", "5", "--dim", "3"],
         "expected 4 coefficients, got 3"),
        (MISREAD_COMPLETION, ["search", "--dim", "3", "--volume", "7"], "give age counts summing to"),
        (FAULTS["interior-off-by-one"][0], ["oracle", "--simplex", str(triangle)], "reciprocity fails"),
        (FAULTS["closed-count-off-by-one"][0], ["oracle", "--simplex", str(triangle)], "closed count fails"),
        (FAULTS["interior-off-by-one"][0], ["verify", "--simplex", str(triangle)], "reciprocity fails"),
    ):
        result = run_optimized(
            "import sys\n"
            "import deltasimplex.classify as classify, deltasimplex.ehrhart as ehrhart, deltasimplex.groups as groups\n"
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
