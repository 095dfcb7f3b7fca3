"""Byte-level fuzz of the SSD1 loader.

:func:`~repro.storage.serializer.loads` must fail *typed* on arbitrary
corruption -- a bit flip or a truncation at any offset, trailing bytes:
any exception other than :class:`SerializationError` out of the loader
is a bug.  (The file is named for the group-commit journal whose fuzz
suite lived here until ``GroupCommit`` was deleted; the loader half
stays under its pinned test ids.)
"""

import pytest

from repro.datasets import generate_movies
from repro.storage.serializer import SerializationError, dumps, loads


class TestLoadsFuzz:
    def test_bit_flips_fail_typed(self) -> None:
        raw = dumps(generate_movies(3, seed=5))
        for offset in range(len(raw)):
            mutant = bytearray(raw)
            mutant[offset] ^= 0x01
            try:
                loads(bytes(mutant))
            except SerializationError:
                pass  # the typed refusal: exactly what the contract wants
            except Exception as exc:  # pragma: no cover - the bug being hunted
                pytest.fail(f"flip at {offset}: untyped {type(exc).__name__}: {exc}")

    def test_truncations_fail_typed(self) -> None:
        raw = dumps(generate_movies(3, seed=5))
        for cut in range(len(raw)):
            try:
                loads(raw[:cut])
            except SerializationError:
                pass
            except Exception as exc:  # pragma: no cover - the bug being hunted
                pytest.fail(f"cut at {cut}: untyped {type(exc).__name__}: {exc}")

    def test_trailing_garbage_fails_typed(self) -> None:
        raw = dumps(generate_movies(3, seed=5))
        with pytest.raises(SerializationError):
            loads(raw + b"\x00")
