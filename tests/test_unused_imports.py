"""No module imports a name it never reads.

A stdlib stand-in for a linter's unused-import rule (F401), over the
package and the tests. A name counts as read when it is loaded anywhere
in the module, as a bare name or as the root of an attribute chain.
Exempt are the package's __init__.py (its imports are re-exports),
`from __future__` imports, and imports on a line marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/cogflow/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()

    def exempt(*line_numbers):
        return any("# noqa: F401" in lines[i - 1] for i in line_numbers)

    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or exempt(node.lineno, alias.lineno):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, alias.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        ")\n"
        "from math import tau as circle, e\n"
        "import numpy as np\n"
        "np.zeros(circle)\n"
    )
    assert unused_imports(source) == [(2, "os"), (8, "e")]
