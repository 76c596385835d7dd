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


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_every_imported_name_is_used(module):
    """No module imports a name it never references; `__init__` imports only to re-export."""
    tree = parse(module)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []


def test_no_route_imports_another():
    for module in ROUTES:
        for source, name in imports(module):
            parts = {source.lstrip(".").rsplit(".", 1)[-1], name}
            assert not parts & (set(ROUTES) - {module}), (module, source, name)


def test_lane_format_lives_in_one_module():
    """Only `lanes` packs rows: it alone imports `array`, reads `sys.byteorder`, or calls
    `from_bytes`, `to_bytes` or `bit_count`. Of the routes only `box` imports it, and `classify` never."""
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.Attribute) and node.attr in {"byteorder", "from_bytes", "to_bytes", "bit_count"}:
                owners.add((path.stem, node.attr))
        owners.update((path.stem, "array") for source, name in imports(path.stem) if "array" in {source, name})
    assert {module for module, _ in owners} == {"lanes"}, sorted(owners)
    for module in ("ehrhart", "hnf", "classify"):
        for source, name in imports(module):
            assert "lanes" not in {source.lstrip(".").rsplit(".", 1)[-1], name}, (module, source, name)


def test_counting_does_not_use_the_group():
    assert "smith_normal_form" not in imported_names("ehrhart")


def test_counting_frame_is_the_hermite_form_alone():
    """The dilates are counted in the row Hermite frame: no determinant, product or inverse."""
    used = {"exact_det", "mat_mul", "mat_vec", "adjugate", "smith_normal_form"}
    assert not used & imported_names("ehrhart")


def test_group_does_not_use_the_counting_frame():
    assert "row_hermite_form" not in imported_names("box")


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


def test_no_fork_and_no_process_pool_in_the_package():
    """The package runs in one process: no `os.fork` call and no pool module import."""
    forks, pools = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path.stem)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "fork" and getattr(node.func.value, "id", None) == "os":
                    forks.append((path.stem, node.lineno))
        for source, name in imports(path.stem):
            if {source.split(".")[0], (name or "").split(".")[0]} & {"multiprocessing", "concurrent"}:
                pools.append((path.stem, source, name))
    assert forks == []
    assert pools == []


def test_group_sweep_uses_no_route_and_no_classification():
    """The character sweep is the ground truth the classification is checked against."""
    for source, name in imports("groups"):
        parts = {source.lstrip(".").rsplit(".", 1)[-1], name}
        assert not parts & {"box", "ehrhart", "hnf", "classify"}, (source, name)


def functions_naming(module, names):
    """Names of the top-level functions of a module in whose bodies any of `names` appears."""
    return sorted(
        node.name
        for node in parse(module).body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))
    )


def test_one_exit_path_in_the_cli():
    """Handlers return (payload, ok); `main` alone prints the payload, chooses exit 0 or 1 and reports
    every error, usage errors included: the parser raises them."""
    assert functions_naming("cli", {"_emit"}) == ["main"]
    assert functions_naming("cli", {"EXIT_OK", "EXIT_NEGATIVE"}) == ["main"]
    assert functions_naming("cli", {"_error"}) == ["main"]


def test_lattice_reads_no_text():
    """The simplex file format and the integer syntax live in `cli`."""
    assert not {source for source, _ in imports("lattice")} & {"re", "json"}


def test_all_is_exactly_the_reexported_names():
    """`__all__` is sorted, has no duplicates, and names every name `__init__` imports from a submodule."""
    (exported,) = (
        ast.literal_eval(node.value)
        for node in parse("__init__").body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    )
    assert exported == sorted(set(exported))
    assert set(exported) == {name for source, name in imports("__init__") if source.startswith(".")}


# exported names that nothing in the package or the benchmark calls, each with the statement of the
# paper it reproduces
EXPORTED_FOR_THE_PAPER = {
    "count_lattice_points": "the Ehrhart function L(P, n), the lattice points of the n-th dilate",
    "nonprime_family": "the paper's composite-volume vectors that break the prime-volume constraints",
    "counterexample_family": "the paper's vectors that pass pairing, Stanley and Hibi yet fail superadditivity",
}


def referenced_names(tree, skip):
    """Names read, plainly or as attributes, in `tree`, outside any `def` or `class` named `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            found.add(getattr(node, "id", None) or node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def caller_trees():
    """Parsed modules of the package and the benchmark, where a name counts as called."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    return [ast.parse(path.read_text(encoding="utf-8")) for path in [*PACKAGE.glob("*.py"), *perfbench.glob("*.py")]]


def test_every_export_has_a_caller():
    """Each name of `__all__` is used by the package or the benchmark, or reproduces a paper statement."""
    trees = caller_trees()
    uncalled = {
        name for name in deltasimplex.__all__
        if not any(name in referenced_names(tree, name) for tree in trees)
    }
    assert sorted(uncalled) == sorted(EXPORTED_FOR_THE_PAPER)


def test_every_definition_has_a_caller():
    """Each top-level function and class of the package, and each method that is not a dunder, is read
    by the package or the benchmark; names of `__all__` are left to `test_every_export_has_a_caller`."""
    trees = caller_trees()
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in parse(path.stem).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods = (item.name for item in node.body if isinstance(item, ast.FunctionDef))
                defined.update(name for name in methods if not (name.startswith("__") and name.endswith("__")))
    uncalled = {
        name for name in defined - set(deltasimplex.__all__)
        if not any(name in referenced_names(tree, name) for tree in trees)
    }
    assert sorted(uncalled) == []
