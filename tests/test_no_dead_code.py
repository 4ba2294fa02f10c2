"""Meta-test: no dead code in src/heckelat.

Every function and class defined there is named somewhere in src/, tests/ or
perfbench/ (as a name, an attribute or a string, which is how perfbench's
tracer finds its targets), and every attribute stored there is read as an
attribute somewhere. Dunder methods are called by the language and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckelat"


def _nodes(*directories):
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _references():
    """(every name, attribute and string constant; every attribute that is read)."""
    named, read = set(), set()
    for node in _nodes(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            if not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return named, read


def test_every_function_and_class_is_named_somewhere():
    named, _read = _references()
    defined = {
        node.name
        for node in _nodes(PACKAGE)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    assert sorted(defined - named) == []


def test_every_stored_attribute_is_read():
    _named, read = _references()
    stored = {node.attr for node in _nodes(PACKAGE) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert sorted(stored - read) == []
