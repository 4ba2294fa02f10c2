"""Meta-test: only program code in src/heckelat.

Every function and class defined there is named somewhere else in src/heckelat,
as a name or an attribute; a string that spells its name does not count. Two kinds of definition may instead be
named from outside the package:

* a benchmark pin: an attribute that perfbench's tracer wraps (the attribute
  field of `TARGETS` in perfbench/tracer.py) or that perfbench/workloads.py or
  perfbench/run.py reads;
* a witness in `WITNESSES`: an independent second route to a closed form, each
  listed with the test that runs it.

A name in tests/ keeps nothing alive. Dunder methods are called by the language
and are exempt. Every parameter of a function in the package is read in its
body unless its name starts with `_` (dunder methods again exempt). Every
attribute stored in the package is read as an attribute somewhere, and the package holds no `assert` statement: a check there must not
vanish under `python -O`. Each module imports, at module level or inside a
function, only modules of its own row of the README's module table or of an
earlier row, as the README says.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelat"
PERFBENCH = ROOT / "perfbench"
README = ROOT / "README.md"

# name defined in src/heckelat -> (test file, test function that runs it)
WITNESSES = {
    "_mu_sl3_full": ("tests/test_padic.py", "test_sl3_fast_equals_full_enumeration"),
    "aut_count_bruteforce": ("tests/test_globalsl2.py", "test_aut_counts_against_bruteforce"),
    "subbundle_count_bruteforce": ("tests/test_globalsl2.py", "test_subbundle_counts_against_bruteforce"),
    "gk_degree_series_euler": ("tests/test_globalsl2.py", "test_degree_series_against_euler_product"),
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _nodes(*directories):
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            yield from ast.walk(_parse(path))


def _names(tree) -> set:
    """Every name and attribute in the tree (string constants are not uses)."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def _definitions() -> set:
    return {
        node.name
        for node in _nodes(PACKAGE)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _benchmark_pins() -> set:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pins = {target[2] for target in tracer.TARGETS}
    for name in ("workloads.py", "run.py"):
        pins |= {
            node.attr
            for node in ast.walk(_parse(PERFBENCH / name))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    return pins


def test_every_function_and_class_is_named_somewhere():
    named = set().union(*(_names(_parse(path)) for path in PACKAGE.rglob("*.py")))
    unused = _definitions() - named - _benchmark_pins() - set(WITNESSES)
    assert sorted(unused) == []


def test_every_witness_is_defined_and_run_by_its_test():
    defined = _definitions()
    for name, (path, test) in WITNESSES.items():
        assert name in defined, name
        tests = [node for node in ast.walk(_parse(ROOT / path)) if isinstance(node, ast.FunctionDef) and node.name == test]
        assert tests, f"{path} has no {test}"
        assert name in _names(tests[0]), f"{test} does not run {name}"


def test_every_stored_attribute_is_read():
    read = {
        node.attr
        for node in _nodes(ROOT / "src", ROOT / "tests", PERFBENCH)
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
    }
    stored = {node.attr for node in _nodes(PACKAGE) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert sorted(stored - read) == []


def test_every_parameter_is_read_in_its_body():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            else:
                name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread += [f"{path.relative_to(ROOT)}:{node.lineno} {name}({p})" for p in params if p not in read and not p.startswith("_")]
    assert unread == []


def test_no_assert_in_the_package():
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _readme_layers() -> dict:
    """{module: row} from the README's table of the package's modules, after the sentence that states the layering."""
    lines = README.read_text(encoding="utf-8").split("each importing only those above it:", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append(re.findall(r"`(\w+)`", line.split("|")[1]))
    return {module: row for row, modules in enumerate(rows) for module in modules}


def _imported_modules(tree, modules) -> set:
    """The package modules that a module's import statements name, wherever in the module they stand."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["heckelat"] if node.level == 1 else []) + (node.module.split(".") if node.module else [])
            paths = [base + [alias.name] for alias in node.names]
        else:
            continue
        found |= {path[1] for path in paths if len(path) > 1 and path[0] == "heckelat" and path[1] in modules}
    return found


def test_each_module_imports_only_its_own_or_earlier_rows_of_the_readme_table():
    layers = _readme_layers()
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(layers) == sorted(modules)
    upward = [
        f"{module} imports {imported}"
        for module in sorted(modules)
        for imported in sorted(_imported_modules(_parse(PACKAGE / f"{module}.py"), modules))
        if layers[imported] > layers[module]
    ]
    assert upward == []
