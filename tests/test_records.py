"""The package's records are named tuples: validated on construction, immutable,
picklable, and cheap to import."""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import deltasimplex
from deltasimplex import (
    BoxPoint,
    CaseId,
    EhrhartTable,
    ExponentList,
    HNFSpec,
    Simplex,
    SNFResult,
    Witness,
    ehrhart_table,
    enumerate_box,
    exponents,
    smith_normal_form,
    witness,
)

PACKAGE = Path(deltasimplex.__file__).parent
TRIANGLE = Simplex(((0, 0), (1, 0), (2, 5)))


def records():
    spec = HNFSpec(5, (0, 1, 1, 0), 3)
    return [
        smith_normal_form(((2, 1), (0, 3))),
        TRIANGLE,
        enumerate_box(TRIANGLE)[1],
        exponents((1, 0, 4, 0)),
        spec,
        ehrhart_table(TRIANGLE),
        CaseId("iv"),
        CaseId("viii", -1),
        witness((1, 0, 4, 0)),
    ]


def test_every_record_type_is_covered():
    covered = {type(r) for r in records()}
    assert covered == {SNFResult, Simplex, BoxPoint, ExponentList, HNFSpec, EhrhartTable, CaseId, Witness}


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_round_trips_through_pickle_and_deepcopy(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert copied == record and type(copied) is type(record)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def test_derived_fields_are_not_constructor_arguments():
    assert Simplex(vertices=TRIANGLE.vertices).normalized_volume == 5
    with pytest.raises(TypeError):
        Simplex(TRIANGLE.vertices, 5)
    table = ehrhart_table(TRIANGLE)
    assert EhrhartTable(simplex=TRIANGLE, counts=table.counts, interior_counts=table.interior_counts).delta == (1, 2, 2)
    with pytest.raises(TypeError):
        EhrhartTable(TRIANGLE, table.counts, table.interior_counts, table.delta)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: HNFSpec(m=5, coeffs=(0, 0, 0, 0), dim=0), ValueError),
        (lambda: HNFSpec(m=5, coeffs=(0, 4, 0, 0), dim=1), ValueError),
        (lambda: HNFSpec(m=1, coeffs=(), dim=3), ValueError),
        (lambda: ExponentList(values=(2, 1), dim=3), ValueError),
        (lambda: ExponentList(values=(1, 4), dim=3), ValueError),
        (lambda: Simplex(vertices=((0, 0), (1, 1), (2, 2))), ValueError),
        (lambda: Simplex(vertices=((0,), (1.0,))), ValueError),
        (lambda: EhrhartTable(simplex=TRIANGLE, counts=(1, 4), interior_counts=(0,)), AssertionError),
    ],
)
def test_validated_records_refuse_bad_input_by_keyword(build, error):
    with pytest.raises(error):
        build()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each costs milliseconds of start-up on every CLI call and is used by nothing in the package."""
    script = "import sys, deltasimplex.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {"PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_package_never_skips_validation(path):
    """`_make` and `_replace` build a record without running its `__new__` checks: a fault hook for tests only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_make", "_replace")
    ]
    assert calls == []
