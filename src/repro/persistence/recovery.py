"""Crash recovery: checkpoint load + WAL tail replay + log compaction.

Recovery rebuilds a monitor to the exact state it held at the last durable
WAL record:

1. load the newest valid checkpoint (full + incremental chain) and hand its
   encoded state to the host's ``restore_encoded`` — decoded once, where
   the engine lives (in the worker, for a process-resident shard);
2. truncate the WAL's torn tail (done by :class:`WriteAheadLog` on open);
3. replay every WAL record past the checkpoint through the *normal*
   ingestion path — ``process``/``process_batch``/register/unregister —
   so decay renormalization, window expiration, threshold propagation and
   work counters are regenerated rather than patched, which is what makes
   the recovered state byte-identical to an uninterrupted run;
4. compact: drop WAL segments wholly covered by the checkpoint.

A single monitor is the one-host case of the same procedure.  For a
sharded monitor each shard recovers independently from its own WAL
and checkpoint directory (the per-shard logs carry identical record
sequences, so shard recoveries are embarrassingly parallel); the shards are
then clamped to the shortest durable log prefix — the *common LSN* — so a
crash that interrupted the fan-out of one group commit can never leave one
shard a record ahead of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import RecoveryError
from repro.persistence import codec
from repro.persistence.checkpoint import CheckpointManager
from repro.persistence.wal import WalRecord, WriteAheadLog
from repro.runtime.protocol import replay_record


@dataclass
class RecoveryReport:
    """What one recovery run found, replayed, repaired and reclaimed."""

    #: WAL position of the checkpoint the state was restored from (0 = none).
    checkpoint_lsn: int = 0
    #: WAL position of the recovered state (the last record applied).
    recovered_lsn: int = 0
    #: WAL records replayed through the normal ingestion path.
    replayed_records: int = 0
    #: Stream events (documents) among the replayed records.
    replayed_documents: int = 0
    #: One past the highest query id registered among the replayed records:
    #: ids registered and unregistered again after the sidecar was written
    #: must not be reissued even though no recovered host holds them.
    next_query_id_floor: int = 0
    #: Bytes removed from torn WAL tails.
    truncated_bytes: int = 0
    #: Records cut from longer per-shard WALs to make the clamp to the
    #: common durable prefix physical (sharded recovery only).
    clamped_records: int = 0
    #: WAL segments deleted because the checkpoint covers them.
    compacted_segments: int = 0
    #: Per-shard reports when recovering a sharded monitor.
    shards: List["RecoveryReport"] = field(default_factory=list)

    def merge_shard(self, shard_report: "RecoveryReport") -> None:
        self.shards.append(shard_report)
        self.checkpoint_lsn = max(self.checkpoint_lsn, shard_report.checkpoint_lsn)
        self.recovered_lsn = max(self.recovered_lsn, shard_report.recovered_lsn)
        self.replayed_records += shard_report.replayed_records
        self.replayed_documents = max(
            self.replayed_documents, shard_report.replayed_documents
        )
        self.next_query_id_floor = max(
            self.next_query_id_floor, shard_report.next_query_id_floor
        )
        self.truncated_bytes += shard_report.truncated_bytes
        self.compacted_segments += shard_report.compacted_segments


def documents_in(record: WalRecord) -> int:
    """Stream events one WAL record contributes (0 for membership records)."""
    if record.kind == codec.KIND_DOCUMENT:
        return 1
    if record.kind == codec.KIND_BATCH:
        return len(record.data["docs"])
    return 0


def recover_engine(
    target,
    wal: WriteAheadLog,
    checkpoints: CheckpointManager,
    shard_id: Optional[int] = None,
    up_to_lsn: Optional[int] = None,
    ckpt_max_lsn: Optional[int] = None,
) -> RecoveryReport:
    """Restore ``target`` (an engine host or its handle) from its
    checkpoint and replay its WAL tail.

    ``up_to_lsn`` clamps the replay (the sharded common-prefix rule);
    ``ckpt_max_lsn`` ignores checkpoints newer than the facade's commit
    marker (so a checkpoint round that crashed half-written across shards
    is disregarded as a whole).
    """
    report = RecoveryReport(truncated_bytes=wal.truncated_bytes)
    loaded = checkpoints.load_latest(max_lsn=ckpt_max_lsn)
    start_lsn = 0
    if loaded is not None:
        encoded_state, checkpoint_lsn = loaded
        # A committed checkpoint round leaves the WAL positioned at (or
        # past) its LSN — the round flushes first and rotation names the
        # next segment checkpoint_lsn + 1 — so a shorter log means the
        # wal/ directory was lost or emptied.  Recovering anyway would
        # restart LSNs below the checkpoint and every subsequent append
        # would be invisible to later recoveries (replay filters
        # lsn <= checkpoint_lsn): silent data loss, so refuse.
        if wal.last_lsn < checkpoint_lsn:
            raise RecoveryError(
                f"checkpoint at lsn {checkpoint_lsn} is ahead of the WAL "
                f"(last lsn {wal.last_lsn}); the log was lost or emptied "
                "after the checkpoint round"
            )
        if up_to_lsn is not None and checkpoint_lsn > up_to_lsn:
            raise RecoveryError(
                f"checkpoint at lsn {checkpoint_lsn} is ahead of the durable "
                f"log prefix (lsn {up_to_lsn}); the WAL was damaged beyond "
                "its torn tail"
            )
        target.restore_encoded(encoded_state)
        start_lsn = checkpoint_lsn
        report.checkpoint_lsn = checkpoint_lsn
    report.recovered_lsn = start_lsn
    for record in wal.replay(after_lsn=start_lsn):
        if up_to_lsn is not None and record.lsn > up_to_lsn:
            break
        if record.lsn != report.recovered_lsn + 1:
            raise RecoveryError(
                f"WAL replay gap: expected lsn {report.recovered_lsn + 1}, "
                f"found {record.lsn}; records between the checkpoint and the "
                "durable tail are missing (refusing to reconstruct a state "
                "that never existed)"
            )
        replay_record(target, record, shard_id=shard_id)
        report.replayed_documents += documents_in(record)
        if record.kind == codec.KIND_REGISTER:
            report.next_query_id_floor = max(
                report.next_query_id_floor, int(record.data["query"]["i"]) + 1
            )
        report.replayed_records += 1
        report.recovered_lsn = record.lsn
    # The replay must reach the durable tail.  Falling short means records
    # were lost in the middle of the history — e.g. the newest checkpoint is
    # corrupt and the WAL prefix it covered was already compacted away —
    # and the surviving checkpoint + WAL cannot prove the full state.
    tail = wal.last_lsn if up_to_lsn is None else min(wal.last_lsn, up_to_lsn)
    if report.recovered_lsn < tail:
        raise RecoveryError(
            f"recovered state ends at lsn {report.recovered_lsn} but the "
            f"durable log reaches lsn {tail}; the WAL records in between "
            "were compacted against a checkpoint that can no longer be read"
        )
    report.compacted_segments = wal.compact(start_lsn)
    return report
