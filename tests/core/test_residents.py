"""The snapshot resident contract: every ``_ext`` key either advances or
is declared per-version.

A :class:`~repro.core.frozen.FrozenGraph` carries derived structures in
its ``_ext`` dict.  When a commit retires a snapshot, the store drops the
residents named in :data:`~repro.core.frozen.PER_VERSION_RESIDENTS` and
hands every other one to the next version through its ``advance(fg,
edges)``.  A resident of neither kind would either be asked to advance
without knowing how, or keep a retired snapshot's structure alive, so
the keys written anywhere under ``src/`` are collected here and each
must be one or the other.
"""

import ast
from pathlib import Path

from repro.core.frozen import PER_VERSION_RESIDENTS
from repro.datasets import figure1
from repro.index.probes import ProbeIndex, probes_for
from repro.planner import QueryPlanner, planner_for
from repro.sqlbackend import SqlBackend, sql_backend_for

SRC = Path(__file__).resolve().parents[2] / "src"
CARRIER = Path("repro/storage/mvcc.py")

#: every resident's key -> its class
RESIDENTS = {
    "probes": ProbeIndex,
    "sqlbackend": SqlBackend,
    "planner": QueryPlanner,
}


def _is_ext(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_ext"


def written_ext_keys() -> "dict[str, list[str]]":
    """Key -> the ``file:line``s under ``src/`` that write it."""
    keys: dict[str, list[str]] = {}

    def found(key: ast.AST, path: Path, line: int) -> None:
        where = f"{path.relative_to(SRC)}:{line}"
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            # only the store's carry loop re-files keys it did not choose
            assert path.relative_to(SRC) == CARRIER, f"{where}: an _ext key must be a literal"
            return
        keys.setdefault(key.value, []).append(where)

    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if _is_ext(node.value):
                    found(node.slice, path, node.lineno)
            elif isinstance(node, ast.Assign) and any(map(_is_ext, node.targets)):
                for key in getattr(node.value, "keys", ()):
                    found(key, path, node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and _is_ext(node.func.value)
            ):
                found(node.args[0], path, node.lineno)
    return keys


def test_every_written_key_is_a_declared_resident():
    keys = written_ext_keys()
    assert set(keys) == set(RESIDENTS), keys
    assert set(PER_VERSION_RESIDENTS) <= set(RESIDENTS)


def test_a_resident_advances_unless_it_is_per_version():
    for key, cls in RESIDENTS.items():
        assert hasattr(cls, "advance") is (key not in PER_VERSION_RESIDENTS), key


def test_the_accessors_store_their_resident_under_its_key():
    fg = figure1().freeze()
    for make in (probes_for, sql_backend_for, planner_for):
        resident = make(fg)
        (key,) = [k for k, r in fg._ext.items() if r is resident]
        assert isinstance(resident, RESIDENTS[key])
