"""Every top-level import of the package is used by its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trilie"


def unused_imports(source: str) -> list:
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_detected():
    source = "import os\nfrom math import gcd, isqrt\nprint(gcd(os.sep, 1))\n"
    assert unused_imports(source) == [(2, "isqrt")]


def test_package_has_no_unused_top_level_imports():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
