"""Crash-safety tests: a torn save must never be loadable.

Two attack layers:

* deterministic fault injection -- crash ``atomic_write_bytes`` at every
  interesting interruption point (mid-payload write, before the rename,
  at the directory fsync) and assert the target is bit-identical to its
  pre-save state;
* a real ``SIGKILL`` -- a child process saves in a tight loop and is
  killed mid-flight; whatever file the corpse leaves behind must either
  load cleanly or not exist under the target name.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.bisim import bisimilar
from repro.datasets import generate_movies
from repro.storage import SerializationError, atomic_write_bytes, dumps, loads


def sample(seed: int = 7):
    return generate_movies(12, seed=seed)


# -- fault-injected interruption points --------------------------------------------


class TornWrite(RuntimeError):
    pass


def test_save_roundtrips(tmp_path: Path) -> None:
    g = sample()
    target = tmp_path / "g.graph"
    atomic_write_bytes(target, dumps(g))
    assert bisimilar(loads(target.read_bytes()), g)


def test_crash_mid_write_preserves_old_file(tmp_path: Path, monkeypatch) -> None:
    old, new = sample(seed=1), sample(seed=2)
    target = tmp_path / "g.graph"
    atomic_write_bytes(target, dumps(old))
    before = target.read_bytes()

    budget = len(dumps(new)) // 2  # die with half the payload on disk

    class TornFile:
        """Wraps the real temp file; its write dies halfway through."""

        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            self._fh.write(data[:budget])
            self._fh.flush()
            raise TornWrite("power failed mid-write")

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._fh.__exit__(*exc)

    original_open = open

    def torn_open(path, mode="r", *args, **kwargs):
        fh = original_open(path, mode, *args, **kwargs)
        if "b" in mode and "w" in mode and ".tmp." in str(path):
            return TornFile(fh)
        return fh

    monkeypatch.setattr("builtins.open", torn_open)
    with pytest.raises(TornWrite):
        atomic_write_bytes(target, dumps(new))
    monkeypatch.undo()

    # old file untouched and loadable; no temp debris
    assert target.read_bytes() == before
    assert bisimilar(loads(target.read_bytes()), old)
    assert [p.name for p in tmp_path.iterdir()] == ["g.graph"]


def test_crash_before_rename_preserves_old_file(tmp_path: Path, monkeypatch) -> None:
    old, new = sample(seed=3), sample(seed=4)
    target = tmp_path / "g.graph"
    atomic_write_bytes(target, dumps(old))
    before = target.read_bytes()

    def no_replace(src, dst):
        raise TornWrite("killed between fsync and rename")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(TornWrite):
        atomic_write_bytes(target, dumps(new))
    monkeypatch.undo()

    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["g.graph"]


def test_crash_creating_fresh_file_leaves_nothing(tmp_path: Path, monkeypatch) -> None:
    target = tmp_path / "fresh.graph"

    def no_replace(src, dst):
        raise TornWrite("killed before first rename")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(TornWrite):
        atomic_write_bytes(target, dumps(sample()))
    monkeypatch.undo()

    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_truncated_payload_never_escapes_as_untyped(tmp_path: Path) -> None:
    """Even a file torn by some *other* writer fails typed on load."""
    target = tmp_path / "g.graph"
    atomic_write_bytes(target, dumps(sample()))
    payload = target.read_bytes()
    for cut in (0, 1, 4, len(payload) // 2, len(payload) - 1):
        target.write_bytes(payload[:cut])
        with pytest.raises(SerializationError):
            loads(target.read_bytes())


def test_durable_false_skips_fsync(tmp_path: Path, monkeypatch) -> None:
    calls = []
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
    atomic_write_bytes(tmp_path / "a.graph", dumps(sample()), fsync=False)
    assert calls == []
    atomic_write_bytes(tmp_path / "b.graph", dumps(sample()), fsync=True)
    assert len(calls) >= 1


# -- a real SIGKILL mid-save -------------------------------------------------------


KILL_CHILD = """
import sys
from repro.datasets import generate_movies
from repro.storage import atomic_write_bytes, dumps

target = sys.argv[1]
data = dumps(generate_movies(60, seed=9))
print("ready", flush=True)
while True:  # save forever; the parent pulls the plug mid-flight
    atomic_write_bytes(target, data)
"""


def test_sigkill_mid_save_never_leaves_torn_target(tmp_path: Path) -> None:
    target = tmp_path / "victim.graph"
    expected = dumps(generate_movies(60, seed=9))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_CHILD, str(target)],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout is not None
        assert proc.stdout.readline().strip() == b"ready"
        time.sleep(0.15)  # let some saves land, then pull the plug mid-loop
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
            proc.wait()

    # The target, if visible, is a complete save -- never a prefix.
    assert target.exists(), "child was killed before any save completed"
    assert target.read_bytes() == expected
    assert loads(target.read_bytes()) is not None
    # Temp debris from the interrupted save may exist but never shadows
    # the target name (dot-prefixed), so no loader can pick it up.
    for leftover in tmp_path.iterdir():
        if leftover != target:
            assert leftover.name.startswith(".victim.graph.tmp.")


def test_atomic_write_bytes_plain(tmp_path: Path) -> None:
    target = tmp_path / "blob.bin"
    atomic_write_bytes(target, b"abc")
    assert target.read_bytes() == b"abc"
    atomic_write_bytes(target, b"xyz", fsync=False)
    assert target.read_bytes() == b"xyz"
