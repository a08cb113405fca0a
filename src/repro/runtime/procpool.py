"""Process-resident shard execution: one long-lived worker per shard.

On stock CPython the GIL serializes pure-Python shard work inside one
process; this module is the executor that turns shard concurrency into
wall-clock speedup.  Each shard lives inside its own long-lived **worker
process** that owns the same engine host an in-process shard is — a
:class:`~repro.core.monitor.ContinuousMonitor`; the parent drives the
workers over duplex pipes with the shard protocol
(:mod:`repro.runtime.protocol`) and never touches shard state directly.

Design
------

* **Codec frames on the pipes.**  Commands and replies are length-prefixed
  frames of the persistence codec (:func:`codec.pack_frame`), not pickle:
  the WAL, the checkpoints, the serving sockets and the worker pipes all
  speak one deterministic wire format.  Hot payloads — document batches
  and coalesced batch updates — travel as packed binary tail sections the
  receiver reads zero-copy through ``memoryview`` casts.
* **Shared-memory batch fan-out.**  A document batch is encoded ONCE into
  a :class:`~repro.runtime.shm.SharedMemoryRing` slot; every worker gets
  only a tiny ``(seq, offset, length)`` descriptor over its control pipe
  and decodes the slot in place.  The slot is reclaimed (freed for reuse)
  after every worker has acknowledged the batch — the submit-all-then-
  collect discipline doubles as the reclamation barrier.  A batch larger
  than the ring is split into *stage* rounds (workers buffer the decoded
  documents, acks free each slot) followed by one *commit* round that runs
  the engine exactly once over the accumulated batch, so chunking never
  changes results.  When ``multiprocessing.shared_memory`` is unavailable
  — or ``transport="pipe"`` is forced — the same frames ride the pipes.
* **One framed reply per worker per batch.**  Workers coalesce per-event
  notifications into the :class:`BatchUpdate` form engine-side and ship
  them as binary sections of a single reply frame, instead of thousands of
  pickled tuples.
* **Pipelined fan-out.**  :meth:`ResidentShardExecutor.run_shards` sends the
  command to *every* worker before collecting any reply
  (:func:`~repro.runtime.executors.pipeline`), so the workers process the
  same event concurrently on separate cores.  Replies are collected in
  shard order; per the executor failure contract, every reply is collected
  before the first exception (in shard order) is raised.
* **State moves in one shape.**  Shard state crossing the process boundary
  — checkpoint snapshots, recovery restores — is what ``snapshot_encoded``
  vends and ``restore_encoded`` takes: the codec's encoded form, the same
  bytes-shape a checkpoint stores.
  The parent passes it through untouched (a recovered checkpoint is decoded
  once, in the worker), so a state that moved between processes is
  bit-for-bit a state that was checkpointed and restored.
* **Worker-side WALs.**  A durable sharded monitor tells each worker to
  open its own shard WAL (``wal_open``); journal records are appended where
  the shard lives, so the log I/O parallelizes with the shard work and a
  killed worker loses exactly its unflushed commit group — the same crash
  window an in-process shard has.

Failure semantics: an exception raised by the *shard* inside a worker is
codec-encoded back and re-raised as itself in the parent.  A worker that
dies (killed, crashed, pipe closed) surfaces as
:class:`~repro.exceptions.WorkerError`; the remaining workers are unharmed
and a durable monitor recovers by replaying the surviving logs.  A worker
killed while a ring slot is in flight cannot corrupt later batches: the
parent reclaims the slot after the fan-out regardless, and the payload CRC
guards every decode.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.core.results import BatchUpdate
from repro.documents.document import Document
from repro.exceptions import ConfigurationError, WorkerError
from repro.persistence import codec
from repro.runtime.executors import ShardExecutor, pipeline, raise_first_failure, run_serially
from repro.runtime.protocol import COMMANDS, ERR, WAL_COMMANDS, ShardServer
from repro.runtime.shm import (
    DEFAULT_RING_BYTES,
    SharedMemoryRing,
    shared_memory_available,
)

T = TypeVar("T")

#: Transports the executor accepts (``"auto"`` prefers shared memory and
#: falls back to pipes when the host cannot provide it).
TRANSPORTS = ("auto", "shm", "pipe")

#: How many batch commits a worker serves between explicit full garbage
#: collections (automatic collection is off inside the worker loop).
_GC_EVERY_COMMITS = 256

#: Host attribute -> the protocol row a handle serves it with.
_BY_ATTR = {entry.attr: (name, entry) for name, entry in COMMANDS.items()}


@dataclass
class TransportStats:
    """Parent-side byte accounting of the worker transport.

    ``control_bytes`` are command/reply *headers* and slot descriptors;
    ``payload_pipe_bytes`` are encoded document batches that crossed a pipe
    (fallback transport, multiplied by the workers they were sent to);
    ``payload_shm_bytes`` are encoded batches written into the shared ring
    (written once, however many workers read them); ``reply_bytes`` is
    everything the workers sent back.  The shard-scaling benchmark divides
    these by ``events`` to report bytes-per-event per transport.
    """

    control_bytes: int = 0
    payload_pipe_bytes: int = 0
    payload_shm_bytes: int = 0
    reply_bytes: int = 0
    batches: int = 0
    events: int = 0
    #: High-water mark of ring bytes reserved by one fan-out round — the
    #: occupancy gauge's numerator (0 on the pipe transport).
    peak_ring_bytes: int = 0

    def reset(self) -> None:
        self.control_bytes = 0
        self.payload_pipe_bytes = 0
        self.payload_shm_bytes = 0
        self.reply_bytes = 0
        self.batches = 0
        self.events = 0
        self.peak_ring_bytes = 0

    def per_event(self) -> Dict[str, float]:
        """Bytes per stream event, by traffic class (0.0 before any event)."""
        events = self.events or 1
        return {
            "control": self.control_bytes / events,
            "payload_pipe": self.payload_pipe_bytes / events,
            "payload_shm": self.payload_shm_bytes / events,
            "replies": self.reply_bytes / events,
        }


class _WorkerLog:
    """The shard WAL a worker owns, behind the ``wal_*`` protocol verbs."""

    def __init__(self, shard: ContinuousMonitor, label: str) -> None:
        self._shard = shard
        self._label = label
        self.wal = None

    def open(self, directory: str, group_commit: int, segment_max_bytes: int, fsync: bool) -> int:
        from repro.persistence.wal import WriteAheadLog

        if self.wal is not None:
            self.wal.close()
        self.wal = WriteAheadLog(
            directory,
            group_commit=group_commit,
            segment_max_bytes=segment_max_bytes,
            fsync=fsync,
            telemetry=self._shard.telemetry,
        )
        return self.wal.last_lsn

    def _opened(self, command: str):
        if self.wal is None:
            raise WorkerError(f"{self._label}: {command} before wal_open")
        return self.wal

    def close(self) -> None:
        self._opened("wal_close").close()
        self.wal = None

    def commands(self) -> Dict[str, Callable[..., object]]:
        """The worker's protocol extensions: one entry per WAL verb."""

        def verb(command: str, method: str):
            return lambda *args: getattr(self._opened(command), method)(*args)

        commands = {name: verb(name, method) for name, method in WAL_COMMANDS.items()}
        commands["wal_open"] = self.open
        commands["wal_close"] = self.close  # closes, then forgets the log
        return commands


def _shard_worker_main(conn, shard_id: int, config: MonitorConfig, ring_name=None) -> None:
    """The worker loop: own one shard (and optionally its WAL), serve commands.

    Runs until a ``shutdown`` command or until the parent's end of the pipe
    closes (the parent died); either way the shard's WAL — if one was
    opened — is flushed and closed so no durable-claimed group is lost to a
    *graceful* exit.  Decoding, execution and the framed replies are the
    shared :class:`~repro.runtime.protocol.ShardServer` routine.
    """
    # Imported here (not at module top) to keep the worker's import
    # footprint obvious; under the fork start method these are already
    # loaded in the parent anyway.
    import gc

    from repro.runtime.shm import attach_ring_view

    # A worker process runs nothing but this loop, so it takes the classic
    # dedicated-process collector policy: automatic collection off, one
    # explicit full collection every ``_GC_EVERY_COMMITS`` batches.  The
    # hot path allocates tens of thousands of objects per batch (decoded
    # documents, result entries), and allocation-triggered full collections
    # would rescan the ever-growing resident engine state from inside the
    # batch loop; nearly all per-batch garbage is acyclic and dies by
    # refcount, so the periodic sweep only has to pick up stray cycles.
    gc.disable()
    commits_since_gc = 0

    shard = ContinuousMonitor(config)
    shard.shard_id = shard_id
    ring = attach_ring_view(ring_name) if ring_name is not None else None
    label = f"shard worker {shard_id}"
    log = _WorkerLog(shard, label)
    server = ShardServer(shard, label, log.commands(), ring)
    while True:
        try:
            request = conn.recv_bytes()
        except (EOFError, OSError):
            break  # Parent is gone; fall through to the WAL flush.
        command = server.serve(request, conn.send_bytes)
        if command is None or command == "shutdown":
            break  # The pipe itself is gone, or the parent said goodbye.
        if command == "batch_commit":
            commits_since_gc += 1
            if commits_since_gc >= _GC_EVERY_COMMITS:
                commits_since_gc = 0
                gc.collect()
    if log.wal is not None:
        try:
            log.wal.close()
        except Exception:  # noqa: BLE001 - best-effort final flush
            pass
    if ring is not None:
        ring.close()
    conn.close()


class ProcessShardHandle:
    """Parent-side proxy for one shard living in a worker process.

    Mirrors the :class:`ContinuousMonitor` host surface, so the sharded facade
    and crash recovery drive local and process-resident shards
    through identical code.  The mirror is *derived*: any attribute named by
    a row of :data:`~repro.runtime.protocol.COMMANDS` resolves to one
    synchronous round trip of that command (methods take the call's
    arguments, properties answer on read); only what needs parent-side
    state is written out below.  (``process`` is the exception: the name
    holds the worker's OS process, and per-event processing is fanned out
    by command name.)  The executor's fan-out uses the split
    :meth:`submit` / :meth:`collect` halves to keep all workers busy at
    once.
    """

    def __init__(self, shard_id: int, process, conn, stats: Optional[TransportStats] = None) -> None:
        self.shard_id = shard_id
        self.process = process
        self._conn = conn
        self._stats = stats if stats is not None else TransportStats()

    # ------------------------------------------------------------------ #
    # Protocol plumbing
    # ------------------------------------------------------------------ #

    def submit_frame(self, command: str, frame: bytes) -> None:
        """Ship one pre-packed frame (byte accounting is the caller's job)."""
        try:
            self._conn.send_bytes(frame)
        except Exception as exc:
            raise WorkerError(
                f"shard worker {self.shard_id} is gone (send failed)"
            ) from exc

    def _pack(self, command: str, args: Sequence[object]) -> bytes:
        """One request frame, counted as control traffic."""
        tail = codec.TailWriter()
        header: Dict[str, object] = {"c": command}
        if args:
            header["a"] = [codec.encode_value(arg, tail) for arg in args]
        frame = codec.pack_frame(header, tail.take())
        self._stats.control_bytes += len(frame)
        return frame

    def submit(self, command: str, *args: object) -> None:
        """Send one command without waiting for its reply."""
        self.submit_frame(command, self._pack(command, args))

    def collect(self) -> object:
        """Receive one reply; raise what the worker raised."""
        try:
            data = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise WorkerError(
                f"shard worker {self.shard_id} died (pipe closed before reply)"
            ) from exc
        self._stats.reply_bytes += len(data)
        try:
            header, tail = codec.unpack_frame(data)
            status = header["s"]
            value = codec.decode_value(header.get("v"), tail)
        except Exception as exc:
            raise WorkerError(
                f"shard worker {self.shard_id} sent an undecodable reply"
            ) from exc
        if status == ERR:
            if isinstance(value, BaseException):
                raise value
            raise WorkerError(str(value))  # pragma: no cover - defensive
        return value

    def call(self, command: str, *args: object) -> object:
        self.submit(command, *args)
        return self.collect()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    # ------------------------------------------------------------------ #
    # Host surface
    # ------------------------------------------------------------------ #

    def __getattr__(self, name: str):
        # Reached only for names not defined on the class: the table-derived
        # mirror of the host surface.
        found = _BY_ATTR.get(name)
        if found is None:
            raise AttributeError(name)
        command, entry = found
        if entry.is_property:
            value = self.call(command)
            return value if entry.from_wire is None else entry.from_wire(value)
        return functools.partial(self.call, command)

    def process_batch(self, documents: Sequence[Document]) -> List[BatchUpdate]:
        """One batch to this worker alone (the executor fan-out shares the
        encoded frame across all workers instead of calling this per shard)."""
        payload = codec.encode_document_batch(
            documents if isinstance(documents, list) else list(documents)
        )
        frame = codec.pack_frame({"c": "batch_commit"}, payload)
        self._stats.control_bytes += len(frame) - len(payload)
        self._stats.payload_pipe_bytes += len(payload)
        self._stats.batches += 1
        self._stats.events += len(documents)
        self.submit_frame("batch_commit", frame)
        return self.collect()  # type: ignore[return-value]


class ResidentShardExecutor(ShardExecutor):
    """Base of the executors that *own* their shards behind handles.

    Holds what the pipe-served and the socket-served executor share: the
    handle list, the pipelined command fan-out and the encode-once batch
    fan-out (``_ring`` is ``None`` wherever payloads ride the frames —
    always, for sockets).  Subclasses supply ``spawn_shards``/``close``.
    """

    shard_resident = True
    n_shards: int
    stats: TransportStats
    _handles: Optional[List[ProcessShardHandle]] = None
    _ring: Optional[SharedMemoryRing] = None

    @property
    def handles(self) -> List[ProcessShardHandle]:
        if self._handles is None:
            raise ConfigurationError(
                f"{self.name} executor has no shards; spawn_shards() was not called"
            )
        return list(self._handles)

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Run opaque thunks on the calling thread (the generic fallback).

        Arbitrary closures cannot cross a process boundary; the parallel
        path is :meth:`run_shards`, which ships *commands* instead.  Same
        failure contract as every executor.
        """
        return run_serially(tasks)

    def run_shards(
        self, shards: Sequence[object], method: str, args: Tuple[object, ...]
    ) -> List[object]:
        """Pipeline one command to every shard, then collect every reply.

        The submit loop finishes before the first collect, so all workers
        process the command concurrently; collection preserves shard order
        and — per the failure contract — completes the whole fan-out before
        raising the first failure in shard order.  The ``process_batch``
        fan-out to this executor's own shards takes the encode-once batch
        path (shared ring slot, or one frame written to every connection).
        """
        if (
            method == "process_batch"
            and len(args) == 1
            and self._handles is not None
            and len(shards) == len(self._handles)
            and all(a is b for a, b in zip(shards, self._handles))
        ):
            return self._fan_out_batch(args[0])  # type: ignore[arg-type]
        failures: Dict[int, BaseException] = {}
        values = pipeline(shards, lambda shard: shard.submit(method, *args), failures)
        return raise_first_failure(values, failures)

    # ------------------------------------------------------------------ #
    # Encode-once batch fan-out
    # ------------------------------------------------------------------ #

    def _encode_rounds(self, documents: List[Document]) -> List[bytes]:
        """Encode ``documents`` as payload frames that each fit the ring.

        The common case is one frame.  A batch larger than the ring splits
        recursively into document chunks; a single document whose frame
        exceeds the ring is returned oversized and ships over the pipes.
        """
        frame = codec.encode_document_batch(documents)
        if self._ring is None or len(frame) <= self._ring.capacity or len(documents) <= 1:
            return [frame]
        mid = len(documents) // 2
        return self._encode_rounds(documents[:mid]) + self._encode_rounds(documents[mid:])

    def _fan_out_batch(self, documents: Sequence[Document]) -> List[List[BatchUpdate]]:
        """Fan one arrival-ordered batch to every shard, encoded once.

        Multi-round (chunked) fan-outs stage document chunks worker-side
        and run each engine exactly once at the commit, so splitting never
        changes renormalization points or update coalescing.  Per the
        failure contract a worker that fails any round is excluded from
        later rounds but every healthy worker is driven to completion
        before the first failure (in shard order) is raised.
        """
        handles = self._handles or []
        docs = documents if isinstance(documents, list) else list(documents)
        stats = self.stats
        stats.batches += 1
        stats.events += len(docs)
        rounds = self._encode_rounds(docs)
        failures: Dict[int, BaseException] = {}
        values: List[object] = []
        last = len(rounds) - 1
        for round_no, payload in enumerate(rounds):
            if round_no < last:
                command = "batch_stage"
                header: Dict[str, object] = {"c": command, "f": round_no == 0}
            else:
                command = "batch_commit"
                header = {"c": command, "g": last > 0}
            seq = None
            view = None
            if self._ring is not None and len(payload) <= self._ring.capacity:
                # The previous round freed its slot, so a fitting payload
                # always reserves (at most one slot is ever in flight).
                seq, offset, view = self._ring.reserve(len(payload))  # type: ignore[misc]
                view[: len(payload)] = payload
                if self._ring.used > stats.peak_ring_bytes:
                    stats.peak_ring_bytes = self._ring.used
                header["q"] = seq
                header["o"] = offset
                header["l"] = len(payload)
                frame = codec.pack_frame(header)
                stats.payload_shm_bytes += len(payload)
                control_len, payload_len = len(frame), 0
            else:
                frame = codec.pack_frame(header, payload)
                control_len = len(frame) - len(payload)
                payload_len = len(payload)

            def submit(handle) -> None:
                handle.submit_frame(command, frame)
                stats.control_bytes += control_len
                stats.payload_pipe_bytes += payload_len

            values = pipeline(handles, submit, failures)
            if seq is not None:
                # Every worker has acknowledged (or failed); the slot bytes
                # can never be read again, so reclaim them for the next round.
                if view is not None:
                    view.release()
                self._ring.free(seq)  # type: ignore[union-attr]
        return raise_first_failure(values, failures)  # type: ignore[return-value]


class ProcessShardExecutor(ResidentShardExecutor):
    """Hosts every shard in a long-lived worker process (name ``"processes"``).

    :meth:`spawn_shards` starts the workers and returns the
    :class:`ProcessShardHandle` list the sharded facade uses *as* its
    shards.  :meth:`run_shards` is the parallel fan-out; :meth:`close`
    shuts the workers down (gracefully when they are healthy, forcefully
    when not).

    ``transport`` selects how document batches reach the workers:
    ``"auto"`` (shared memory when the host provides it, pipes otherwise),
    ``"shm"`` (required — raises when unavailable) or ``"pipe"`` (forced
    fallback; also what differential tests use to exercise both paths).

    Example::

        monitor = ShardedMonitor(config, n_shards=4, executor="processes")
        monitor.process_batch(batch)      # 4 workers score concurrently
        monitor.close()                   # joins the workers
    """

    name = "processes"

    def __init__(
        self,
        n_shards: int,
        mp_context=None,
        transport: str = "auto",
        ring_bytes: int = DEFAULT_RING_BYTES,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
            )
        if ring_bytes <= 0:
            raise ConfigurationError(f"ring_bytes must be > 0, got {ring_bytes}")
        self.n_shards = n_shards
        self.transport = transport
        self.ring_bytes = ring_bytes
        self.stats = TransportStats()
        self._ctx = mp_context if mp_context is not None else multiprocessing.get_context()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    @property
    def transport_active(self) -> Optional[str]:
        """``"shm"``/``"pipe"`` while workers are live, ``None`` before."""
        if self._handles is None:
            return None
        return "shm" if self._ring is not None else "pipe"

    @property
    def ring_occupancy(self) -> Optional[float]:
        """Fraction of the shared ring currently reserved (``None`` on the
        pipe transport).  The telemetry gauges also report the fan-out
        high-water mark, ``stats.peak_ring_bytes / ring capacity``."""
        if self._ring is None:
            return None
        return self._ring.used / self._ring.capacity

    def telemetry_gauges(self) -> Dict[str, float]:
        """Transport gauges merged into the facade's telemetry snapshot."""
        if self._ring is None:
            return {}
        capacity = self._ring.capacity
        return {
            "runtime.shm_ring_occupancy": self._ring.used / capacity,
            "runtime.shm_ring_peak_occupancy": self.stats.peak_ring_bytes
            / capacity,
        }

    def spawn_shards(self, config: MonitorConfig) -> List[ProcessShardHandle]:
        """Start one worker per shard; returns their handles in shard order."""
        if self._handles is not None:
            raise ConfigurationError("process executor already owns live workers")
        if self.transport == "shm" and not shared_memory_available():
            raise ConfigurationError(
                "transport='shm' requested but multiprocessing.shared_memory "
                "is unavailable on this host (use 'auto' or 'pipe')"
            )
        use_shm = self.transport in ("auto", "shm") and shared_memory_available()
        handles: List[ProcessShardHandle] = []
        self._handles = handles
        try:
            if use_shm:
                self._ring = SharedMemoryRing(self.ring_bytes)
            ring_name = self._ring.name if self._ring is not None else None
            for shard_id in range(self.n_shards):
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                process = self._ctx.Process(
                    target=_shard_worker_main,
                    args=(child_conn, shard_id, config, ring_name),
                    name=f"repro-shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                handles.append(
                    ProcessShardHandle(shard_id, process, parent_conn, self.stats)
                )
            # One synchronous ping per worker surfaces spawn failures
            # (missing config, import errors, a dead sibling) here instead
            # of at the first stream event.
            for handle in handles:
                handle.call("ping")
        except Exception:
            # Never leak half a worker fleet: terminate and join whatever
            # started, and leave the executor re-spawnable.
            self.close()
            raise
        return handles

    def close(self) -> None:
        """Shut every worker down; robust to workers that wedged or died.

        ``shutdown`` is *submitted*, never awaited: a worker stuck
        mid-protocol (or killed while holding a ring slot) would otherwise
        block the parent forever on its reply.  Healthy workers exit on the
        command; anything still alive after the join grace is terminated.
        """
        if self._handles is None and self._ring is None:
            return
        handles, self._handles = self._handles or [], None
        for handle in handles:
            try:
                handle.submit("shutdown")
            except Exception:  # noqa: BLE001 - dead workers cannot be told
                pass
        for handle in handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle._conn.close()
            except Exception:  # noqa: BLE001
                pass
        if self._ring is not None:
            self._ring.close()
            self._ring = None
