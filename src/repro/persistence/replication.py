"""WAL-segment streaming and standby replay: the persistence half of replication.

The cluster layer (:mod:`repro.cluster`) ships a primary shard host's WAL to
a hot standby as *raw CRC-framed lines* — the exact bytes the primary
journaled.  This module owns the two persistence-side seams of that flow:

* :func:`iter_segment_lines` streams the durable lines of a live WAL
  (sealed **and** in-progress segments) after a given LSN, in LSN order,
  validating CRC and contiguity as it goes.  The replication sender uses it
  for catch-up when a standby attaches mid-stream.
* :class:`ReplicaApplier` is the standby replay entry point: it applies each
  shipped line through the **normal** recovery path (`process`,
  ``process_batch``, register/unregister/renormalize — the same
  :func:`~repro.runtime.protocol.replay_record` that makes crash recovery
  byte-identical), write-through journals the identical bytes into
  the standby's own WAL (so a promoted standby owns a log that *is* the
  durable prefix it applied and can keep journaling at the next LSN), and
  caches recent return values so a redo of an already-replicated command is
  answered from cache instead of being applied twice.

Records are applied strictly in LSN lockstep; a gap or a duplicate raises
:class:`~repro.exceptions.ReplicationError` — a lagging standby is the
sender's problem (bounded by the primary's lag window), never this module's.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Iterator, Optional, Tuple

from repro.exceptions import CorruptRecordError, ReplicationError
from repro.persistence import codec
from repro.persistence.wal import (
    WalRecord,
    WriteAheadLog,
    _segment_first_lsn,
    record_from_envelope,
)
from repro.runtime.protocol import replay_record


def iter_segment_lines(
    wal: WriteAheadLog, after_lsn: int = 0
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(lsn, raw_line)`` for every durable record past ``after_lsn``.

    Streams the segment files in LSN order — sealed segments first, then the
    in-progress one — re-validating each line's CRC so corruption is caught
    on the primary before it is shipped.  The caller must :meth:`flush
    <repro.persistence.wal.WriteAheadLog.flush>` first if the log is being
    appended to (buffered records are not on disk yet).  A torn line at the
    very end of the last segment ends the stream; one anywhere else, or an
    LSN gap between yielded lines, raises.
    """
    names = wal.segments()
    previous_lsn: Optional[int] = None
    for index, name in enumerate(names):
        is_last = index + 1 >= len(names)
        if not is_last and _segment_first_lsn(names[index + 1]) <= after_lsn + 1:
            continue
        path = os.path.join(wal.directory, name)
        with open(path, "rb") as handle:
            for line in handle:
                try:
                    record = record_from_envelope(codec.unpack_line(line))
                except CorruptRecordError:
                    if is_last:
                        return
                    raise CorruptRecordError(
                        f"corrupt record inside non-final WAL segment {name}"
                    )
                if record.lsn <= after_lsn:
                    continue
                if previous_lsn is not None and record.lsn != previous_lsn + 1:
                    raise ReplicationError(
                        f"WAL segment stream gap: lsn {record.lsn} follows "
                        f"{previous_lsn} in {name}"
                    )
                previous_lsn = record.lsn
                yield record.lsn, line


_MISS = object()


class ReplicaApplier:
    """Standby-side replay: apply shipped WAL lines in strict LSN order.

    Each line is CRC-validated, write-through journaled into the standby's
    own WAL (identical bytes at the identical LSN — the standby's log is the
    durable prefix it applied), then applied through the normal replay path.
    The last ``cache_size`` return values are kept so that, after promotion,
    a router redo of a command the dead primary already replicated is
    answered from cache instead of being applied a second time (exactly-once
    application with at-least-once delivery).
    """

    def __init__(
        self,
        target,
        wal: Optional[WriteAheadLog] = None,
        shard_id: Optional[int] = None,
        cache_size: int = 1024,
    ) -> None:
        self._target = target
        self._wal = wal
        self._shard_id = shard_id
        self._cache: "OrderedDict[int, object]" = OrderedDict()
        self._cache_size = max(1, cache_size)
        #: LSN of the last applied record (resumes past an existing log).
        self.applied_lsn = wal.last_lsn if wal is not None else 0

    def apply_line(self, line: bytes) -> WalRecord:
        """Journal and apply one shipped line; returns its decoded record."""
        record = record_from_envelope(codec.unpack_line(line))
        if record.lsn != self.applied_lsn + 1:
            raise ReplicationError(
                f"replica received lsn {record.lsn}, expected "
                f"{self.applied_lsn + 1}; the replication stream has a "
                f"{'duplicate' if record.lsn <= self.applied_lsn else 'gap'}"
            )
        if self._wal is not None:
            self._wal.append_line(line, record.lsn)
        value = replay_record(self._target, record, shard_id=self._shard_id)
        self.applied_lsn = record.lsn
        self._cache[record.lsn] = value
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return record

    def cached_result(self, lsn: int) -> Tuple[bool, object]:
        """``(True, value)`` if the result of ``lsn`` is still cached."""
        value = self._cache.get(lsn, _MISS)
        if value is _MISS:
            return False, None
        return True, value

    def record_result(self, lsn: int, value: object) -> None:
        """Cache the result of a locally executed record (post-promotion:
        the promoted host keeps feeding the same redo cache it replayed
        into, so a second failover can still answer recent redos)."""
        self._cache[lsn] = value
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
