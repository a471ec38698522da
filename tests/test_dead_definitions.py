"""Every module-level function and class of the package is used, and
every method of a module-level class.

A stdlib stand-in for a dead-code linter, beside test_unused_imports.py.
A definition counts as used when its name appears anywhere else in the
package's code: as a bare name, as an attribute, or as a name imported
by `from ... import`. The re-exports of __init__.py count for the first
check and not for the second, so a definition that only they name is
caught too. A name that only the tests use is dead code kept alive by its
own tests.
Dunder methods are exempt: Python calls them.
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


def definitions(tree):
    """(qualified name, name) of each module-level function or class of
    the tree, and of each method of such a class that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, DEFINITIONS) and not (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    yield f"{node.name}.{method.name}", method.name


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level function or class in sources, a
    {module: source} map, and module:Class.name of each such method, whose
    name no module names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = {name for tree in trees.values() for name in named(tree)}
    return sorted(
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in definitions(tree)
        if name not in used
    )


def test_every_package_definition_is_named_elsewhere_in_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_definitions(sources) == []


def test_no_package_definition_is_named_only_by_the_reexports():
    # __init__.py re-exports the public names, which makes each of them
    # look used; a definition that only the re-exports and the tests name
    # is dead code all the same
    sources = {path.stem: path.read_text() for path in PACKAGE if path.stem != "__init__"}
    assert dead_definitions(sources) == []


def test_scan_finds_a_definition_that_nothing_names():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    pass\n\nclass Dead:\n    pass\n",
        "b": "from a import used\n\ndef caller():\n    return used()\n\ncaller()\n",
        "c": "import b\n\nhandle = b.caller\n",
        "d": (
            "class Kept:\n"
            "    def __init__(self):\n        self.run()\n\n"
            "    def run(self):\n        pass\n\n"
            "    @classmethod\n    def never_called(cls):\n        pass\n\n"
            "Kept()\n"
        ),
    }
    assert dead_definitions(sources) == ["a:Dead", "a:unused", "d:Kept.never_called"]
