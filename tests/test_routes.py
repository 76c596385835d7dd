"""The three delta-vector routes (box group, dilate counting, closed form) share no code,
and every budget refusal goes through the one gate in the shared base."""

import ast
from pathlib import Path

import pytest

import deltasimplex

ROUTES = ("box", "ehrhart", "hnf")
PACKAGE = Path(deltasimplex.__file__).parent


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imports(module):
    """(module, name) for every name a module imports; name is None for `import x`."""
    tree = parse(module)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            found.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
    return found


def imported_names(module):
    return {name for _, name in imports(module)}


def test_no_route_imports_another():
    for module in ROUTES:
        for source, name in imports(module):
            parts = {source.lstrip(".").rsplit(".", 1)[-1], name}
            assert not parts & (set(ROUTES) - {module}), (module, source, name)


def test_counting_does_not_use_the_group():
    assert "smith_normal_form" not in imported_names("ehrhart")


def test_group_does_not_use_the_counting_frame():
    assert not {"row_hermite_form", "adjugate"} & imported_names("box")


@pytest.mark.parametrize("module", ("ehrhart", "box"))
def test_counting_is_integer_only(module):
    assert not any(source == "fractions" for source, _ in imports(module))


def raised_name(node):
    """Name of the exception a `raise` statement raises, called or not, plain or dotted."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


def test_one_budget_refusal_in_the_package():
    raises = [
        (path.stem, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path.stem))
        if isinstance(node, ast.Raise) and raised_name(node) == "BudgetExceededError"
    ]
    assert [module for module, _ in raises] == ["lattice"], raises


def test_classification_does_not_use_the_counting_route():
    assert not any("ehrhart" in source for source, _ in imports("classify"))
