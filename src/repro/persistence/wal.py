"""Append-only segmented write-ahead log with group commit.

The WAL is a directory of *segments* — files named ``wal-<first_lsn>.log``
holding consecutive CRC-framed records (see :mod:`repro.persistence.codec`).
Every record carries a monotonically increasing *log sequence number* (LSN);
the segment file name is the LSN of its first record, so the segment
covering any LSN is found without opening files.

Durability contract
-------------------

``append`` buffers records in memory and the buffer is written out when it
reaches ``group_commit`` records (or on :meth:`flush`/:meth:`sync`).  A
record is *durable* once its group has been written — crash recovery
restores the longest flushed prefix of the log, never a state in between
two records.  Group commit therefore trades a bounded window of recent
events for amortized write cost, the classic WAL throughput lever.  With
``fsync=True`` every flush is additionally fsynced, extending the guarantee
from "survives the process" to "survives the OS" at a large cost per group.

Torn tails: a crash can cut the last record mid-write.  On open (and on
replay) the reader validates every record; a framing/CRC failure at the end
of the *last* segment truncates the file back to the last valid record,
while a failure anywhere else raises :class:`CorruptRecordError` — that is
real corruption, not a torn write.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.exceptions import CorruptRecordError, PersistenceError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.persistence.codec import CODEC_VERSION, pack_line, unpack_line

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


class WalRecord(NamedTuple):
    """One decoded WAL record: its sequence number, kind and payload."""

    lsn: int
    kind: str
    data: dict


def record_from_envelope(envelope: object) -> WalRecord:
    """Validate one decoded WAL envelope (local or shipped); return its record."""
    if not isinstance(envelope, dict):
        raise CorruptRecordError("WAL record envelope is not an object")
    try:
        version = envelope["v"]
        lsn = envelope["lsn"]
        kind = envelope["kind"]
        data = envelope["data"]
    except KeyError as exc:
        raise CorruptRecordError(f"WAL record envelope missing {exc}") from exc
    if version != CODEC_VERSION:
        raise PersistenceError(
            f"WAL record codec version {version!r} is not supported"
        )
    return WalRecord(lsn=int(lsn), kind=str(kind), data=data)


def fsync_directory(path: str) -> None:
    """fsync a directory: file create/rename/remove entries are directory
    *contents* and need their own fsync to survive an OS crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, data: bytes, fsync_dir: bool = True) -> None:
    """Write a file atomically (and, by default, durably).

    Temp file + fsync + rename + directory fsync: the rename is what makes
    the write atomic, and it is a directory mutation, so the directory
    needs its own fsync — without it a commit marker (sidecar, checkpoint)
    could vanish in an OS crash even though the state it gates was durably
    compacted.  ``fsync_dir=False`` skips that directory round-trip for
    monitors that only promise to survive a killed *process*
    (``DurabilityConfig.fsync=False``), mirroring how the WAL gates its
    own directory syncs.
    """
    tmp_path = path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    if fsync_dir:
        fsync_directory(os.path.dirname(path) or ".")


def _segment_name(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:020d}{_SEGMENT_SUFFIX}"


def _segment_first_lsn(name: str) -> int:
    return int(name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])


class WriteAheadLog:
    """An append-only, segmented, CRC-checked event log.

    Example::

        wal = WriteAheadLog(directory, group_commit=64)
        lsn = wal.append("doc", {"doc": encoded})
        wal.sync()                       # force the buffered group out
        for record in wal.replay(after_lsn=checkpoint_lsn):
            apply(record)
    """

    def __init__(
        self,
        directory: str,
        group_commit: int = 64,
        segment_max_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if group_commit <= 0:
            raise PersistenceError(f"group_commit must be > 0, got {group_commit}")
        if segment_max_bytes <= 0:
            raise PersistenceError(
                f"segment_max_bytes must be > 0, got {segment_max_bytes}"
            )
        self.directory = directory
        self.group_commit = group_commit
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        #: Lap recorder for flush/fsync latency (the shared no-op unless the
        #: owning engine runs with telemetry enabled).
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Bytes removed from the last segment because of a torn tail (set
        #: while opening; recovery reports it).
        self.truncated_bytes = 0
        os.makedirs(directory, exist_ok=True)
        self._buffer: List[bytes] = []
        self._buffered_records = 0
        self._last_lsn = 0
        self._open_tail()
        if self.fsync:
            self._sync_directory()

    # ------------------------------------------------------------------ #
    # Opening and tail repair
    # ------------------------------------------------------------------ #

    def segments(self) -> List[str]:
        """Segment file names in LSN order."""
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        ]
        names.sort(key=_segment_first_lsn)
        return names

    def _scan_segment(
        self, name: str, is_last: bool
    ) -> Tuple[List[WalRecord], int]:
        """All valid records of one segment and the byte offset they end at.

        A bad record in the last segment marks the torn tail: everything
        from its start on is ignored (and truncated by :meth:`_open_tail`).
        A bad record anywhere else raises.
        """
        path = os.path.join(self.directory, name)
        records: List[WalRecord] = []
        valid_bytes = 0
        with open(path, "rb") as handle:
            for line in handle:
                try:
                    record = record_from_envelope(unpack_line(line))
                except CorruptRecordError:
                    if is_last:
                        break
                    raise CorruptRecordError(
                        f"corrupt record inside non-final WAL segment {name}"
                    )
                records.append(record)
                valid_bytes += len(line)
        return records, valid_bytes

    def _open_tail(self) -> None:
        """Find the last durable record, repair a torn tail, position appends."""
        names = self.segments()
        if not names:
            self._active_segment = _segment_name(1)
            path = os.path.join(self.directory, self._active_segment)
            open(path, "ab").close()
            self._active_bytes = 0
            return
        # Earlier segments are validated lazily on replay; only the last can
        # hold a torn tail, and it must be repaired before appending.
        last = names[-1]
        records, valid_bytes = self._scan_segment(last, is_last=True)
        path = os.path.join(self.directory, last)
        total_bytes = os.path.getsize(path)
        if valid_bytes < total_bytes:
            self.truncated_bytes = total_bytes - valid_bytes
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
        if records:
            self._last_lsn = records[-1].lsn
        else:
            # An empty (or fully torn) trailing segment: its name is the LSN
            # its first record will carry, so the sequence resumes right
            # after the sealed/compacted prefix (first segment: 1 - 1 = 0).
            self._last_lsn = _segment_first_lsn(last) - 1
        self._active_segment = last
        self._active_bytes = valid_bytes

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 for an empty log).

        Includes records still sitting in the group-commit buffer; the
        *durable* tail is what :meth:`replay` sees after a crash.
        """
        return self._last_lsn

    def append(self, kind: str, data: dict) -> int:
        """Buffer one record; flushes automatically at the group boundary."""
        lsn = self._last_lsn + 1
        envelope = {"v": CODEC_VERSION, "lsn": lsn, "kind": kind, "data": data}
        return self.append_line(pack_line(envelope), lsn)

    def append_line(self, line: bytes, lsn: int) -> int:
        """Buffer one pre-framed record carrying ``lsn``.

        The fan-out path of a sharded durable monitor encodes each record
        once and hands the identical framed bytes to every shard's WAL —
        the logs advance in lockstep, so the caller-provided LSN must be
        exactly the next one here.
        """
        if lsn != self._last_lsn + 1:
            raise PersistenceError(
                f"append_line lsn {lsn} is not the next sequence number "
                f"({self._last_lsn + 1}); fanned-out WALs went out of lockstep"
            )
        self._last_lsn = lsn
        self._buffer.append(line)
        self._buffered_records += 1
        if self._buffered_records >= self.group_commit:
            self.flush()
        return lsn

    def flush(self) -> None:
        """Write the buffered group to the active segment (fsync if configured)."""
        if not self._buffer:
            return
        chunk = b"".join(self._buffer)
        self._buffer = []
        self._buffered_records = 0
        path = os.path.join(self.directory, self._active_segment)
        timed = self.telemetry.enabled
        started = perf_counter() if timed else 0.0
        with open(path, "ab") as handle:
            handle.write(chunk)
            handle.flush()
            if self.fsync:
                fsync_started = perf_counter() if timed else 0.0
                os.fsync(handle.fileno())
                if timed:
                    self.telemetry.observe("wal.fsync", perf_counter() - fsync_started)
        if timed:
            self.telemetry.observe("wal.flush", perf_counter() - started)
        self._active_bytes += len(chunk)
        if self._active_bytes >= self.segment_max_bytes:
            self.rotate()

    def sync(self) -> None:
        """Flush the buffer and fsync unconditionally.

        The buffered records land in the segment that is active *before*
        the flush — which may seal and rotate it — so that segment is
        fsynced as well as the (possibly new) active one.  The directory
        itself is fsynced too: file contents are worthless after an OS
        crash if the segment's directory entry was never made durable.
        """
        timed = self.telemetry.enabled
        started = perf_counter() if timed else 0.0
        target = self._active_segment
        self.flush()
        for name in {target, self._active_segment}:
            path = os.path.join(self.directory, name)
            if os.path.exists(path):
                with open(path, "ab") as handle:
                    os.fsync(handle.fileno())
        self._sync_directory()
        if timed:
            self.telemetry.observe("wal.sync", perf_counter() - started)

    def _sync_directory(self) -> None:
        """fsync the WAL directory so segment create/remove survives an OS crash."""
        fsync_directory(self.directory)

    def rotate(self) -> None:
        """Seal the active segment and start a new one at the next LSN.

        Sealed segments are what :meth:`compact` can delete; the checkpoint
        path rotates before compacting so the pre-checkpoint records do not
        share a segment with post-checkpoint ones.
        """
        self.flush()
        if self._active_bytes == 0:
            return
        self._active_segment = _segment_name(self._last_lsn + 1)
        path = os.path.join(self.directory, self._active_segment)
        open(path, "ab").close()
        self._active_bytes = 0
        if self.fsync:
            self._sync_directory()

    def truncate(self, up_to_lsn: int) -> int:
        """Physically drop every record with ``lsn > up_to_lsn`` from the tail.

        Sharded recovery clamps all per-shard logs to the shortest durable
        prefix; the clamp must reach the disk, or the logs would reopen at
        different positions — the next lockstep append would fail, and a
        later recovery would replay records past the prefix that was never
        applied.  Returns the number of records dropped (the clamp is
        reported separately from torn-tail repair, which is what
        :attr:`truncated_bytes` counts).
        """
        self.flush()
        if self._last_lsn <= up_to_lsn:
            return 0
        dropped = 0
        for name in reversed(self.segments()):
            path = os.path.join(self.directory, name)
            # Discarded bytes are never decoded — one record is one line, so
            # counting lines suffices, and damage confined to the discarded
            # suffix must not block the clamp that would remove it anyway.
            if _segment_first_lsn(name) > up_to_lsn:
                with open(path, "rb") as handle:
                    dropped += sum(1 for _ in handle)
                os.remove(path)
                continue
            # Boundary segment: keep the byte prefix of records <= up_to_lsn.
            keep_bytes = 0
            with open(path, "rb") as handle:
                for line in handle:
                    record = record_from_envelope(unpack_line(line))
                    keep_bytes += len(line)
                    if record.lsn == up_to_lsn:
                        break
                dropped += sum(1 for _ in handle)
            with open(path, "r+b") as handle:
                handle.truncate(keep_bytes)
                if self.fsync:
                    # The shrunk size must be durable before new records are
                    # journaled at the cut LSNs: a crash must never be able
                    # to resurrect the clamped-away tail under them.
                    os.fsync(handle.fileno())
            break
        names = self.segments()
        if names:
            self._active_segment = names[-1]
            self._active_bytes = os.path.getsize(
                os.path.join(self.directory, self._active_segment)
            )
        else:
            self._active_segment = _segment_name(up_to_lsn + 1)
            open(os.path.join(self.directory, self._active_segment), "ab").close()
            self._active_bytes = 0
        self._last_lsn = up_to_lsn
        if self.fsync:
            self._sync_directory()
        return dropped

    def close(self) -> None:
        """Flush any buffered group; the log can be reopened afterwards."""
        self.flush()

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def replay(self, after_lsn: int = 0) -> Iterator[WalRecord]:
        """Yield every durable record with ``lsn > after_lsn`` in LSN order.

        Reads the segment files as they are on disk; call :meth:`flush`
        first when replaying a log that is still being appended to.
        """
        names = self.segments()
        for index, name in enumerate(names):
            if index + 1 < len(names):
                # Skip segments that end before the requested position.
                if _segment_first_lsn(names[index + 1]) <= after_lsn + 1:
                    continue
            records, _ = self._scan_segment(name, is_last=(index == len(names) - 1))
            for record in records:
                if record.lsn > after_lsn:
                    yield record

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self, up_to_lsn: int) -> int:
        """Delete sealed segments whose records are all ``<= up_to_lsn``.

        The active segment is never removed.  Returns the number of
        segments deleted.
        """
        names = self.segments()
        removed = 0
        for index, name in enumerate(names):
            if name == self._active_segment or index + 1 >= len(names):
                continue
            if _segment_first_lsn(names[index + 1]) - 1 <= up_to_lsn:
                os.remove(os.path.join(self.directory, name))
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # Context manager
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
