"""Every name a module under ``src/`` imports is used in that module.

An AST scan stands in for a linter, which the project does not depend
on: it collects the names each ``import`` binds and the names the
module reads, and reports the imported names that are never read."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


def test_no_unused_imports():
    hits = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not hits, hits
