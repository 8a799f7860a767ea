"""Every name a module under ``src/`` imports is used in that module,
and every function, class and method ``src/`` defines is used by the
program.

AST scans stand in for a linter, which the project does not depend on.
The first collects the names each ``import`` binds and the names the
module reads, and reports the imported names that are never read.  The
second collects the names each module under ``src/`` defines at top
level or in a class body, and reports those that no name or attribute
in ``src/``, ``jobs/`` or ``perfbench/`` refers to."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the program: the package and the scripts that drive it
PROGRAM = ("src", "jobs", "perfbench")

#: definitions only tests call, each a reference the tests check against
TEST_REFERENCES = {
    "assert_equivalent": "the DuckDB oracle every engine result is checked by",
    "example_graph": "the paper's Figure-1 graph, the unit tests' fixture",
    "VertexPages.delete": "the delete path the maintenance tests exercise",
}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def test_scan_finds_unused_and_accepts_used():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Any, Callable\n"
        "from a.b import C\n"
        "def f(x: C) -> Callable:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(src) == [(2, "os"), (4, "Any")]


def definitions(source: str) -> list[tuple[int, str, str]]:
    """(line, name, qualified name) of each function and class defined
    at the top level of ``source`` and of each method of its classes,
    dunder methods aside (the language calls those)."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        out.append((node.lineno, node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (m.lineno, m.name, f"{node.name}.{m.name}")
                for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
            )
    return out


def referenced(source: str) -> set[str]:
    """Every name ``source`` reads or looks up as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreferenced(sources: dict[str, str], users: list[str]) -> list[str]:
    """``path:line: qualified name`` of each definition in ``sources``
    that none of ``users`` refers to."""
    used = set().union(*map(referenced, users))
    return [
        f"{path}:{line}: {qual}"
        for path, src in sorted(sources.items())
        for line, name, qual in definitions(src)
        if name not in used
    ]


def test_unreferenced_scan_finds_dead_and_accepts_used():
    lib = (
        "class Q:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
    )
    user = "from lib import helper\nQ().used()\nhelper()\n"
    assert unreferenced({"lib.py": lib}, [lib, user]) == [
        "lib.py:4: Q.dead", "lib.py:6: orphan",
    ]


def test_every_definition_is_used():
    sources = {
        str(p.relative_to(SRC)): p.read_text()
        for p in sorted(SRC.rglob("*.py"))
    }
    users = [
        p.read_text() for d in PROGRAM for p in (ROOT / d).rglob("*.py")
    ]
    hits = [
        h for h in unreferenced(sources, users)
        if h.rsplit(": ", 1)[1] not in TEST_REFERENCES
    ]
    assert not hits, hits


def test_no_unused_imports():
    hits = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not hits, hits
