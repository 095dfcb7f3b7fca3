"""Byte-level fuzz of the SSD1 loader.

:func:`~repro.storage.serializer.loads` must fail *typed* on arbitrary
corruption -- a bit flip or a truncation at any offset, trailing bytes:
any exception other than :class:`SerializationError` out of the loader
is a bug.  (The file is named for the group-commit journal whose fuzz
suite lived here until ``GroupCommit`` was deleted; the loader half
stays under its pinned test ids.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import boolean, integer, real, string
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


def mutants(raw: bytes) -> st.SearchStrategy[bytes]:
    """``raw`` with one bit flipped, cut short, or 1-4 bytes inserted."""
    flip = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7)).map(
        lambda at: raw[: at[0]] + bytes([raw[at[0]] ^ 1 << at[1]]) + raw[at[0] + 1 :]
    )
    cut = st.integers(0, len(raw) - 1).map(lambda at: raw[:at])
    insert = st.tuples(st.integers(0, len(raw)), st.binary(min_size=1, max_size=4)).map(
        lambda at: raw[: at[0]] + at[1] + raw[at[0] :]
    )
    return st.one_of(flip, cut, insert)


def labelled_movies():
    """A small movie dump with a label of every kind on the root."""
    g = generate_movies(12, seed=3)
    for label in (integer(-70), integer(2**70), real(-0.0), boolean(False), string("x")):
        g.add_edge(g.root, label, g.root)
    return g


DUMP = dumps(labelled_movies())


def test_the_unmutated_dump_round_trips() -> None:
    assert dumps(loads(DUMP)) == DUMP


@given(mutants(DUMP))
@settings(max_examples=300, deadline=None)
def test_a_mutated_dump_is_refused_or_reencodes_to_itself(mutant: bytes) -> None:
    """SSD1 decoding is canonical: whatever decodes is a graph that
    :func:`dumps` writes back as exactly the mutant's bytes."""
    try:
        graph = loads(mutant)
    except SerializationError:
        return
    assert dumps(graph) == mutant
