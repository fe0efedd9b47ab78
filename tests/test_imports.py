"""The package's own hygiene: no unused imports, no test-only API, no
copied helpers, no heavy standard modules at start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trilie"
PERFBENCH = ROOT / "perfbench"


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


def unreferenced_definitions(modules: dict, users=()) -> list:
    """Definitions of `modules` that no program code refers to.

    `modules` maps a file name to its source; `users` are further
    sources that may refer to them.  A definition is a module-level
    function or class, or a method of such a class that is not a
    dunder.  A function or class is referenced when an `ast.Name` or
    `ast.Attribute` with its name occurs in any of the sources, outside
    its own definition; a method only when an `ast.Attribute` does, so
    a local variable of the same name does not keep it.  Text in
    strings and docstrings does not count.  Returns "file: name"
    (methods as "Class.name") in file order.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    names = {}  # name -> [(file, line)]; file None for the users
    attributes = {}
    for fname, tree in [*trees.items(),
                        *((None, ast.parse(src)) for src in users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((fname, node.lineno))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(
                    (fname, node.lineno))

    def referenced(fname, node, method=False):
        uses = attributes.get(node.name, [])
        if not method:
            uses = uses + names.get(node.name, [])
        return any(not (where == fname
                        and node.lineno <= line <= node.end_lineno)
                   for where, line in uses)

    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not referenced(fname, node):
                out.append(f"{fname}: {node.name}")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))
                            and not referenced(fname, sub, method=True)):
                        out.append(f"{fname}: {node.name}.{sub.name}")
    return out


def test_unreferenced_definitions_are_detected():
    sample = (
        "def used():\n"
        "    return 1\n"
        "\n"
        "def dead(n):\n"
        "    \"\"\"Calls itself, and `idle` in text only.\"\"\"\n"
        "    return dead(n - 1)\n"
        "\n"
        "class Kept:\n"
        "    def run(self):\n"
        "        return used()\n"
        "    def idle(self):\n"
        "        return 'idle'\n"
        "    def shadowed(self, idle):\n"
        "        return idle\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "\n"
        "Kept().run()\n"
    )
    assert unreferenced_definitions({"m.py": sample}) == [
        "m.py: dead", "m.py: Kept.idle", "m.py: Kept.shadowed"]
    assert unreferenced_definitions({"m.py": sample},
                                    ["import m\nm.dead(1)\n",
                                     "shadowed = 1\nm.Kept().idle()\n"]) == [
        "m.py: Kept.shadowed"]


def test_every_definition_is_reached_from_the_program():
    """src/trilie holds only what the commands or perfbench/ use: a
    function, class or method that only tests call belongs in tests/."""
    modules = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert unreferenced_definitions(modules, users) == []


def duplicate_bodies(modules: dict) -> list:
    """Functions of `modules` (file name -> source) whose bodies are the
    same AST, a leading docstring aside, as groups of "file: name".

    Methods and nested functions count; names, arguments and line
    numbers do not.
    """
    groups = {}
    for fname, src in modules.items():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            key = "\n".join(ast.dump(stmt) for stmt in body)
            groups.setdefault(key, []).append(f"{fname}: {node.name}")
    return [names for names in groups.values() if len(names) > 1]


def test_duplicate_bodies_are_detected():
    sample = (
        "def ones(mask):\n"
        "    \"\"\"Set bits.\"\"\"\n"
        "    while mask:\n"
        "        mask &= mask - 1\n"
        "\n"
        "class C:\n"
        "    def positions(self, mask):\n"
        "        while mask:\n"
        "            mask &= mask - 1\n"
        "\n"
        "def other(mask):\n"
        "    while mask:\n"
        "        mask ^= mask & -mask\n"
    )
    assert duplicate_bodies({"m.py": sample}) == [
        ["m.py: ones", "m.py: positions"]]


def test_no_two_functions_have_the_same_body():
    """A helper is defined once and imported where it is needed."""
    modules = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert duplicate_bodies(modules) == []


def test_the_command_line_starts_without_dataclasses_or_inspect():
    """Importing `dataclasses` pulls in `inspect`, `dis`, `ast` and
    `tokenize`, about 11 ms that every command would pay at start-up;
    the package's classes are plain classes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = ("import sys, trilie.cli; print(' '.join(sorted("
             "{'dataclasses', 'inspect'} & set(sys.modules))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
