"""Every module-level function and class of the package is used.

A stdlib stand-in for a dead-code linter, beside test_unused_imports.py.
A definition counts as used when its name appears anywhere else in the
package's code: as a bare name, as an attribute, or as a name imported
by `from ... import` (so the re-exports of __init__.py count). A name
that only the tests use is dead code kept alive by its own tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/cogflow/*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named(tree) -> list[str]:
    """Every name the tree reads, writes, imports or reaches as an
    attribute; a definition's own name is not among them."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
    return names


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level function or class in sources, a
    {module: source} map, whose name no module names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {name for tree in trees.values() for name in named(tree)}
    return sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name not in used
    )


def test_every_package_definition_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_definitions(sources) == []


def test_scan_finds_a_definition_that_nothing_names():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    pass\n\nclass Dead:\n    pass\n",
        "b": "from a import used\n\ndef caller():\n    return used()\n\ncaller()\n",
        "c": "import b\n\nhandle = b.caller\n",
    }
    assert dead_definitions(sources) == ["a:Dead", "a:unused"]
