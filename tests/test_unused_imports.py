"""Offline lint: no module under src/, tests/ or benchmarks/ imports a name it never uses.

The same check as ruff's F401, done with :mod:`ast` so that it runs
wherever the tests run.  A name counts as used when it is read anywhere
in the module (a bare name, or the root of an attribute chain), when a
string that parses as an expression (a quoted annotation) reads it, or
when ``__all__`` lists it.  A ``# noqa`` comment on the import's lines
keeps a deliberate side-effect import, as it does for ruff.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    path
    for top in ("src", "tests", "benchmarks")
    for path in (ROOT / top).rglob("*.py")
)


def _imported(tree: ast.Module) -> "list[tuple[str, ast.stmt]]":
    """``(bound name, import statement)`` for every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node))
    return out


def _read_names(tree: ast.Module) -> "set[str]":
    """Every name the module reads, including inside quoted annotations
    and ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return names


def unused_imports(path: Path) -> "list[str]":
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    lines = source.splitlines()
    used = _read_names(tree)
    return [
        f"line {stmt.lineno}: {name!r} imported but unused"
        for name, stmt in _imported(tree)
        if name not in used
        and not any("noqa" in line for line in lines[stmt.lineno - 1 : stmt.end_lineno])
    ]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys  # noqa: F401\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from pathlib import Path\n"
        "def f(p: 'Path') -> None:\n    pass\n"
    )
    assert unused_imports(module) == ["line 1: 'os' imported but unused"]
