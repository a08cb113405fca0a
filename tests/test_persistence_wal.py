"""The write-ahead log and the checkpoint manager, unit-level."""

from __future__ import annotations

import os

import pytest

from repro.core.factory import create_algorithm
from repro.documents.decay import ExponentialDecay
from repro.exceptions import CorruptRecordError, PersistenceError
from repro.persistence import codec
from repro.persistence.checkpoint import CheckpointManager
from repro.persistence.wal import WriteAheadLog

from tests.helpers import make_document, make_query


def _records(wal, after_lsn=0):
    return [(record.lsn, record.kind, record.data) for record in wal.replay(after_lsn)]


class TestWriteAheadLog:
    def test_append_assigns_monotone_lsns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        lsns = [wal.append("doc", {"n": i}) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5

    def test_replay_returns_flushed_records_in_order(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(4):
            wal.append("doc", {"n": i})
        assert _records(wal) == [(i + 1, "doc", {"n": i}) for i in range(4)]
        assert _records(wal, after_lsn=2) == [(3, "doc", {"n": 2}), (4, "doc", {"n": 3})]

    def test_group_commit_buffers_until_group_boundary(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=3)
        wal.append("doc", {"n": 0})
        wal.append("doc", {"n": 1})
        # Two records buffered, nothing durable yet.
        assert _records(wal) == []
        wal.append("doc", {"n": 2})  # group boundary: all three flush
        assert len(_records(wal)) == 3
        wal.append("doc", {"n": 3})
        assert len(_records(wal)) == 3  # buffered again
        wal.flush()
        assert len(_records(wal)) == 4

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        wal.append("doc", {"n": 0})
        wal.append("doc", {"n": 1})
        wal.close()
        reopened = WriteAheadLog(str(tmp_path), group_commit=1)
        assert reopened.last_lsn == 2
        assert reopened.append("doc", {"n": 2}) == 3
        assert [lsn for lsn, _, _ in _records(reopened)] == [1, 2, 3]

    def test_unflushed_tail_is_lost_on_crash(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=10)
        wal.append("doc", {"n": 0})
        wal.flush()
        wal.append("doc", {"n": 1})  # never flushed: the crash window
        reopened = WriteAheadLog(str(tmp_path), group_commit=10)
        assert reopened.last_lsn == 1

    def test_torn_tail_is_truncated(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(3):
            wal.append("doc", {"n": i})
        segment = os.path.join(str(tmp_path), wal.segments()[-1])
        with open(segment, "ab") as handle:
            handle.write(b"deadbeef {\"torn\": tr")  # cut mid-write
        reopened = WriteAheadLog(str(tmp_path), group_commit=1)
        assert reopened.truncated_bytes > 0
        assert reopened.last_lsn == 3
        assert len(_records(reopened)) == 3
        # The file itself was repaired, not just skipped over.
        assert os.path.getsize(segment) == sum(
            len(line) for line in open(segment, "rb")
        )

    def test_bitflip_in_tail_is_truncated_from_there(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(3):
            wal.append("doc", {"n": i})
        segment = os.path.join(str(tmp_path), wal.segments()[-1])
        lines = open(segment, "rb").readlines()
        corrupted = bytearray(lines[1])
        corrupted[14] ^= 0xFF
        with open(segment, "wb") as handle:
            handle.write(lines[0] + bytes(corrupted) + lines[2])
        reopened = WriteAheadLog(str(tmp_path), group_commit=1)
        # Everything from the corrupt record on is gone: lsn 1 survives.
        assert reopened.last_lsn == 1

    def test_corruption_in_sealed_segment_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1, segment_max_bytes=1)
        for i in range(3):
            wal.append("doc", {"n": i})  # 1-byte cap: every record seals a segment
        segments = wal.segments()
        assert len(segments) > 1
        with open(os.path.join(str(tmp_path), segments[0]), "r+b") as handle:
            handle.write(b"XX")
        reopened = WriteAheadLog(str(tmp_path), group_commit=1)
        with pytest.raises(CorruptRecordError):
            list(reopened.replay())

    def test_rotation_and_compaction(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1, segment_max_bytes=1)
        for i in range(5):
            wal.append("doc", {"n": i})
        assert len(wal.segments()) >= 5
        removed = wal.compact(up_to_lsn=3)
        assert removed == 3
        assert [lsn for lsn, _, _ in _records(wal)] == [4, 5]
        # Compaction never touches records past the cutoff or the active file.
        assert wal.append("doc", {"n": 5}) == 6

    def test_rotate_seals_segment_for_compaction(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        wal.append("doc", {"n": 0})
        wal.rotate()
        wal.append("doc", {"n": 1})
        assert wal.compact(up_to_lsn=1) == 1
        assert [lsn for lsn, _, _ in _records(wal)] == [2]

    def test_truncate_drops_tail_records(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(6):
            wal.append("doc", {"n": i})
        assert wal.truncate(4) == 2
        assert wal.last_lsn == 4
        assert [lsn for lsn, _, _ in _records(wal)] == [1, 2, 3, 4]
        # The clamp is not torn-tail damage; it is reported separately.
        assert wal.truncated_bytes == 0
        # Appends resume exactly after the cut.
        assert wal.append("doc", {"n": 99}) == 5
        wal.flush()
        assert _records(wal)[-1] == (5, "doc", {"n": 99})

    def test_truncate_across_segment_boundaries(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1, segment_max_bytes=1)
        for i in range(5):
            wal.append("doc", {"n": i})  # 1-byte cap: every record seals a segment
        assert wal.truncate(2) == 3
        assert wal.last_lsn == 2
        assert [lsn for lsn, _, _ in _records(wal)] == [1, 2]
        assert wal.append("doc", {"n": 9}) == 3
        # A reopened log agrees with the truncated state.
        wal.close()
        reopened = WriteAheadLog(str(tmp_path), group_commit=1)
        assert reopened.last_lsn == 3
        assert [lsn for lsn, _, _ in _records(reopened)] == [1, 2, 3]

    def test_truncate_entire_log_keeps_lsn_base(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(3):
            wal.append("doc", {"n": i})
        wal.rotate()
        wal.compact(3)  # only lsn 4.. remain on disk
        wal.append("doc", {"n": 3})
        assert wal.truncate(3) == 1
        assert wal.last_lsn == 3
        assert _records(wal) == []
        # The sequence still resumes after the compacted prefix.
        assert wal.append("doc", {"n": 30}) == 4
        wal.close()
        assert WriteAheadLog(str(tmp_path), group_commit=1).last_lsn == 4

    def test_truncate_ignores_damage_in_dropped_segments(self, tmp_path):
        """Bytes the clamp is about to delete are never decoded: bit-rot
        confined to the discarded suffix must not block recovery."""
        wal = WriteAheadLog(str(tmp_path), group_commit=1, segment_max_bytes=1)
        for i in range(5):
            wal.append("doc", {"n": i})
        victim = wal.segments()[3]  # holds lsn 4, strictly past the clamp
        with open(os.path.join(str(tmp_path), victim), "r+b") as handle:
            handle.write(b"XX")
        assert wal.truncate(2) == 3
        assert wal.last_lsn == 2
        assert [lsn for lsn, _, _ in _records(wal)] == [1, 2]

    def test_truncate_at_or_past_tail_is_a_noop(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), group_commit=1)
        for i in range(3):
            wal.append("doc", {"n": i})
        assert wal.truncate(3) == 0
        assert wal.truncate(7) == 0
        assert wal.last_lsn == 3

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            WriteAheadLog(str(tmp_path), group_commit=0)
        with pytest.raises(PersistenceError):
            WriteAheadLog(str(tmp_path), segment_max_bytes=0)


def _engine_state(num_queries=4, num_documents=8, unregister=None):
    algorithm = create_algorithm("rio", ExponentialDecay(lam=1e-3))
    for index in range(num_queries):
        algorithm.register(make_query(index, {index % 3: 1.0, 3 + index: 0.5}, k=2))
    for index in range(num_documents):
        algorithm.process(
            make_document(index, {index % 3: 1.0, 3 + index % 4: 0.7}, float(index))
        )
    if unregister is not None:
        algorithm.unregister(unregister)
    return codec.encode_monitor_state(algorithm.snapshot()), algorithm


class TestCheckpointManager:
    def test_full_checkpoint_roundtrip(self, tmp_path):
        state, _ = _engine_state()
        manager = CheckpointManager(str(tmp_path))
        manager.write(state, lsn=10, full=True)
        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None
        assert loaded[1] == 10
        assert codec.canonical_dumps(loaded[0]) == codec.canonical_dumps(state)

    def test_incremental_chain_reconstructs_exactly(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        algorithm = create_algorithm("rio", ExponentialDecay(lam=1e-3))
        for index in range(4):
            algorithm.register(make_query(index, {index: 1.0}, k=2))
        doc_id = 0

        def advance(n):
            nonlocal doc_id
            for _ in range(n):
                algorithm.process(make_document(doc_id, {doc_id % 4: 1.0}, float(doc_id)))
                doc_id += 1

        advance(3)
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 3, full=True)
        advance(2)
        algorithm.register(make_query(10, {1: 1.0}, k=1))
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 6, full=False)
        advance(2)
        algorithm.unregister(0)
        final = codec.encode_monitor_state(algorithm.snapshot())
        manager.write(final, 9, full=False)

        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None
        state, lsn = loaded
        assert lsn == 9
        assert codec.canonical_dumps(state) == codec.canonical_dumps(final)

    def test_incremental_detects_same_id_reregistration(self, tmp_path):
        """Regression: a query unregistered and re-registered under the same
        id between checkpoints changes the definition behind an id the base
        also has — the delta must carry it, or recovery silently scores
        against the old vector."""
        manager = CheckpointManager(str(tmp_path))
        algorithm = create_algorithm("rio", ExponentialDecay(lam=1e-3))
        algorithm.register(make_query(5, {1: 1.0}, k=2))
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 1, full=True)
        algorithm.unregister(5)
        algorithm.register(make_query(5, {2: 1.0}, k=2))
        final = codec.encode_monitor_state(algorithm.snapshot())
        manager.write(final, 3, full=False)
        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None
        assert codec.canonical_dumps(loaded[0]) == codec.canonical_dumps(final)

    def test_incremental_delta_is_actually_small(self, tmp_path):
        # Only one of many queries changes: the incremental must not carry
        # the untouched result heaps.
        manager = CheckpointManager(str(tmp_path))
        state, algorithm = _engine_state(num_queries=6, num_documents=6)
        manager.write(state, lsn=6, full=True)
        algorithm.process(make_document(100, {0: 1.0}, 7.0))
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 7, full=False)
        names = sorted(os.listdir(str(tmp_path)))
        full_size = os.path.getsize(os.path.join(str(tmp_path), names[0]))
        incr_size = os.path.getsize(os.path.join(str(tmp_path), names[1]))
        assert incr_size < full_size

    @pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["rescaling", "lambda-zero"])
    def test_a_moved_decay_origin_is_written_full(self, tmp_path, lam):
        """A rebase since the diff base makes an incremental request full
        (with λ=0 the origin moves without rescaling: still full), and the
        checkpoint after it is incremental again."""
        manager = CheckpointManager(str(tmp_path))
        algorithm = create_algorithm("rio", ExponentialDecay(lam=lam))
        algorithm.register(make_query(0, {0: 1.0}, k=2))

        def write(lsn):
            algorithm.process(make_document(lsn, {0: 1.0}, float(lsn)))
            return manager.write(codec.encode_monitor_state(algorithm.snapshot()), lsn, False)

        assert write(1).endswith("-full.json")  # no diff base yet
        assert write(2).endswith("-incr.json")
        algorithm.renormalize(2.0)
        assert write(3).endswith("-full.json")
        assert write(4).endswith("-incr.json")
        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None and loaded[1] == 4
        assert loaded[0]["decay"]["origin"] == 2.0

    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        state_a, algorithm = _engine_state()
        manager.write(state_a, lsn=5, full=True)
        algorithm.process(make_document(50, {0: 1.0}, 50.0))
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 6, full=True)
        names = sorted(os.listdir(str(tmp_path)))
        with open(os.path.join(str(tmp_path), names[-1]), "wb") as handle:
            handle.write(b"torn checkpoint junk")
        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None
        assert loaded[1] == 5
        assert codec.canonical_dumps(loaded[0]) == codec.canonical_dumps(state_a)

    def test_max_lsn_ignores_newer_checkpoints(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        state_a, algorithm = _engine_state()
        manager.write(state_a, lsn=5, full=True)
        algorithm.process(make_document(51, {0: 1.0}, 51.0))
        manager.write(codec.encode_monitor_state(algorithm.snapshot()), 9, full=True)
        loaded = CheckpointManager(str(tmp_path)).load_latest(max_lsn=5)
        assert loaded is not None and loaded[1] == 5

    def test_prune_keeps_previous_full_anchor(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        state, algorithm = _engine_state()
        manager.write(state, lsn=1, full=True)
        for step in range(2, 6):
            algorithm.process(make_document(60 + step, {0: 1.0}, 60.0 + step))
            manager.write(
                codec.encode_monitor_state(algorithm.snapshot()),
                step,
                full=(step % 2 == 0),
            )
        removed = manager.prune()
        assert removed > 0
        loaded = CheckpointManager(str(tmp_path)).load_latest()
        assert loaded is not None and loaded[1] == 5
