"""Write-ahead log unit suite: framing, replay, and torn-tail discipline.

The WAL's contract is byte-level (docs/DURABILITY.md): every record is
individually CRC-framed, replay stops at the first invalid record, and
sequence numbers must be contiguous from the checkpoint's.  These tests
attack the file directly -- truncation at every offset, bit flips at
every offset, CRC-valid-but-semantically-truncated payloads -- and
assert recovery never invents, reorders, or holes the commit history.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.labels import boolean, integer, real, string, sym
from repro.storage import AddEdge, AddNode, SetRoot, WriteAheadLog
from repro.storage.serializer import STORAGE_METRICS, SerializationError
from repro.storage.wal import (
    WAL_MAGIC,
    WalRecord,
    decode_deltas,
    encode_deltas,
)

from .test_journal_fuzz import mutants


def commits(n: int = 4) -> list[list]:
    """A deterministic workload: commit k adds node k+10 and an edge to it."""
    out = []
    for k in range(n):
        node = k + 10
        out.append(
            [AddNode(node), AddEdge(0, sym(f"L{k}"), node), AddEdge(node, string(f"v{k}"), node)]
        )
    return out


def write_log(path: Path, workload: list[list]) -> WriteAheadLog:
    wal = WriteAheadLog(path)
    for seq, deltas in enumerate(workload, start=1):
        wal.append(seq, deltas)
    wal.sync()
    return wal


# -- codec --------------------------------------------------------------------------


class TestCodec:
    def test_round_trip_every_delta_kind(self) -> None:
        deltas = [AddNode(7), AddEdge(7, sym("Movie"), 8), AddEdge(8, string("Casablanca"), 9), SetRoot(7)]
        seq, decoded = decode_deltas(encode_deltas(42, deltas))
        assert seq == 42
        assert decoded == deltas

    def test_empty_commit_round_trips(self) -> None:
        assert decode_deltas(encode_deltas(1, [])) == (1, [])

    def test_trailing_bytes_are_a_typed_error(self) -> None:
        # a CRC can be valid over a payload that is semantically short or
        # long; the decoder must not silently ignore the excess
        payload = encode_deltas(3, [AddNode(5)])
        with pytest.raises(SerializationError):
            decode_deltas(payload + b"\x00")

    def test_truncated_payload_is_a_typed_error(self) -> None:
        payload = encode_deltas(3, [AddEdge(1, sym("x"), 2)])
        for cut in range(1, len(payload)):
            with pytest.raises(SerializationError):
                decode_deltas(payload[:cut])

    def test_unknown_tag_is_a_typed_error(self) -> None:
        payload = bytearray(encode_deltas(1, [AddNode(5)]))
        # the tag byte follows the two varints (seq=1, count=1)
        payload[2:3] = b"Z"
        with pytest.raises(SerializationError):
            decode_deltas(bytes(payload))


# -- append / replay ----------------------------------------------------------------


class TestReplay:
    def test_clean_log_replays_in_order(self, tmp_path: Path) -> None:
        workload = commits(5)
        with write_log(tmp_path / "w.ssdw", workload):
            pass
        replay = WriteAheadLog.replay(tmp_path / "w.ssdw")
        assert [r.commit_seq for r in replay.records] == [1, 2, 3, 4, 5]
        assert [list(r.deltas) for r in replay.records] == workload
        assert replay.discarded_bytes == 0
        assert replay.discarded_records == 0

    def test_missing_file_is_an_empty_log(self, tmp_path: Path) -> None:
        replay = WriteAheadLog.replay(tmp_path / "absent.ssdw")
        assert replay == type(replay)((), 0, 0)

    def test_reopen_appends_after_existing_records(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        write_log(path, commits(2)).close()
        with WriteAheadLog(path) as wal:
            wal.append(3, [AddNode(99)])
            wal.sync()
        replay = WriteAheadLog.replay(path)
        assert [r.commit_seq for r in replay.records] == [1, 2, 3]
        assert replay.records[-1] == WalRecord(3, (AddNode(99),))

    def test_base_seq_skips_checkpointed_prefix(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        write_log(path, commits(4)).close()
        replay = WriteAheadLog.replay(path, base_seq=2)
        assert [r.commit_seq for r in replay.records] == [3, 4]
        assert replay.discarded_records == 0

    def test_bad_magic_discards_everything(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        write_log(path, commits(2)).close()
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        replay = WriteAheadLog.replay(path)
        assert replay.records == ()
        assert replay.discarded_bytes == len(raw)


class TestTornTail:
    def test_truncation_at_every_offset_keeps_a_prefix(self, tmp_path: Path) -> None:
        """The central invariant: any crash-truncated log replays to a
        contiguous prefix of the committed history, never to garbage."""
        path = tmp_path / "w.ssdw"
        workload = commits(4)
        write_log(path, workload).close()
        raw = path.read_bytes()
        for cut in range(len(raw) + 1):
            torn = tmp_path / "torn.ssdw"
            torn.write_bytes(raw[:cut])
            replay = WriteAheadLog.replay(torn)
            seqs = [r.commit_seq for r in replay.records]
            assert seqs == list(range(1, len(seqs) + 1)), f"cut at {cut}"
            for record in replay.records:  # a kept record is the real one
                assert list(record.deltas) == workload[record.commit_seq - 1]
            if cut == len(raw):
                assert len(seqs) == len(workload)

    def test_bit_flip_at_every_offset_never_corrupts_replay(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        workload = commits(3)
        write_log(path, workload).close()
        raw = path.read_bytes()
        for offset in range(len(raw)):
            flipped = bytearray(raw)
            flipped[offset] ^= 0x01
            mutant = tmp_path / "flip.ssdw"
            mutant.write_bytes(bytes(flipped))
            replay = WriteAheadLog.replay(mutant)
            seqs = [r.commit_seq for r in replay.records]
            # replay keeps a contiguous prefix; every kept record must be
            # byte-identical to the genuine workload (the CRC caught the
            # flip, or the flip was past the damage point)
            assert seqs == list(range(1, len(seqs) + 1)), f"flip at {offset}"
            for record in replay.records:
                if record.commit_seq - 1 < len(workload):
                    assert list(record.deltas) == workload[record.commit_seq - 1]

    def test_crc_valid_but_semantically_truncated_record_ends_replay(
        self, tmp_path: Path
    ) -> None:
        # hand-frame a record whose CRC matches a payload with trailing
        # garbage: framing accepts it, the delta decoder must not
        import zlib

        good = encode_deltas(1, [AddNode(5)])
        evil = encode_deltas(2, [AddNode(6)]) + b"\x7f"
        frames = b""
        for payload in (good, evil):
            frames += len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big") + payload
        path = tmp_path / "w.ssdw"
        path.write_bytes(WAL_MAGIC + frames)
        replay = WriteAheadLog.replay(path)
        assert [r.commit_seq for r in replay.records] == [1]
        assert replay.discarded_bytes > 0

    def test_sequence_gap_discards_the_rest(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        with WriteAheadLog(path) as wal:
            wal.append(1, [AddNode(10)])
            wal.append(3, [AddNode(12)])  # 2 never made it: a hole
            wal.append(4, [AddNode(13)])
            wal.sync()
        replay = WriteAheadLog.replay(path)
        assert [r.commit_seq for r in replay.records] == [1]
        assert replay.discarded_records == 2  # both post-gap records


class TestDurabilityAccounting:
    def test_group_commit_is_one_fsync_for_n_appends(self, tmp_path: Path) -> None:
        before = STORAGE_METRICS.counter("wal_syncs").value
        with WriteAheadLog(tmp_path / "w.ssdw") as wal:
            for seq, deltas in enumerate(commits(8), start=1):
                wal.append(seq, deltas)
            wal.sync()
        assert STORAGE_METRICS.counter("wal_syncs").value == before + 1

    def test_append_after_close_is_a_typed_error(self, tmp_path: Path) -> None:
        wal = WriteAheadLog(tmp_path / "w.ssdw")
        wal.close()
        with pytest.raises(ValueError):
            wal.append(1, [AddNode(1)])
        with pytest.raises(ValueError):
            wal.sync()

    def test_truncate_resets_to_empty_header(self, tmp_path: Path) -> None:
        path = tmp_path / "w.ssdw"
        with write_log(path, commits(3)) as wal:
            wal.truncate()
            assert path.read_bytes() == WAL_MAGIC
            wal.append(4, [AddNode(50)])  # the handle survives truncation
            wal.sync()
        replay = WriteAheadLog.replay(path, base_seq=3)
        assert [r.commit_seq for r in replay.records] == [4]


PAYLOAD = encode_deltas(
    2**40,
    [AddNode(0), AddNode(300), SetRoot(300), AddEdge(300, sym("Movie"), 0),
     AddEdge(0, string("Casablanca"), 0), AddEdge(0, integer(-1942), 300),
     AddEdge(0, real(1.2e6), 0), AddEdge(300, boolean(True), 300)],
)


@given(mutants(PAYLOAD))
@settings(max_examples=300, deadline=None)
def test_a_mutated_record_payload_is_refused_or_reencodes_to_itself(mutant: bytes) -> None:
    """The delta codec is canonical: whatever decodes encodes back to the
    mutant's bytes."""
    try:
        seq, deltas = decode_deltas(mutant)
    except SerializationError:
        return
    assert encode_deltas(seq, deltas) == mutant
