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
and are exempt. Every attribute stored in the package is read as an attribute
somewhere, and the package holds no `assert` statement: a check there must not
vanish under `python -O`.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelat"
PERFBENCH = ROOT / "perfbench"

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


def test_no_assert_in_the_package():
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
