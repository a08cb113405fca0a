"""The shard protocol, spelled once: command table, serve routine, replay.

Every shard — in-process, in a worker process behind a pipe, in a cluster
host behind a socket — answers one command set.  This module is the single
place that set is written down; everything else derives from it:

* :data:`COMMANDS` maps each **wire name** to the ``attr`` (method or
  property) of the one engine host, :class:`~repro.core.monitor
  .ContinuousMonitor`, it runs and, for state-changing commands, to the
  builder of the WAL record that journals it.  A command is *mutating*
  exactly when it has a record builder, so the mutating set and the command
  → record-kind mapping are one definition.  The handles
  (:class:`~repro.runtime.procpool.ProcessShardHandle` and its socket twin)
  expose every entry by its ``attr``; the durable facade and the cluster host
  journal through its ``record``; the router predicts LSNs from ``mutating``.
  **To add a command, add a row here** (and, if it journals a new record
  kind, a branch in :func:`replay_record`).
* :class:`ShardServer` is the one decode → execute → drain-events →
  encode-reply-with-fallback routine.  The pipe worker loop and the socket
  host control loop differ only in transport, in the host's lock and in its
  apply-then-journal hook (``apply_mutation``).
* :func:`replay_record` is the one function that maps a
  :class:`~repro.persistence.wal.WalRecord` back onto a host or monitor —
  crash recovery, standby replication and the redo cache all go through it.

Wire format: requests are codec frames ``{"c": command, "a": [args]}``;
replies ``{"s": status, "v": value, "e": events}`` where ``events`` carries
the decay rebases (``"n"``) buffered since the previous reply.  Document batches skip the
generic argument path: ``batch_stage``/``batch_commit`` carry one packed
batch frame as the tail or as a shared-memory ring slot descriptor
(``"q"``/``"o"``/``"l"``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.documents.document import Document
from repro.exceptions import PersistenceError, WorkerError
from repro.metrics.counters import EventCounters
from repro.persistence import codec
from repro.persistence.wal import WalRecord

#: Reply statuses.
OK = "ok"
ERR = "err"

#: Cluster-only WAL record kind: a whole encoded shard state installed by
#: ``restore_encoded``.  Journaled so a standby tracks the state replacement
#: too; never produced by ``DurableMonitor``.
KIND_ADOPT = "adopt"

#: ``(args, owning shard id or None) -> (record kind, record data)``.
RecordBuilder = Callable[[Sequence[object], Optional[int]], Tuple[str, Dict[str, object]]]


class ShardCommand(NamedTuple):
    """One row of the shard protocol (see the module docstring)."""

    #: The :class:`ContinuousMonitor` attribute the wire name resolves to.
    attr: str
    #: Read (or, with one argument, written) as a property, not called.
    is_property: bool = False
    #: Builds the WAL record of an *applied* call; ``None`` = read-only.
    record: Optional[RecordBuilder] = None
    #: Shapes the shard-side value for the codec / rebuilds it handle-side.
    to_wire: Optional[Callable[[object], object]] = None
    from_wire: Optional[Callable[[object], object]] = None

    @property
    def mutating(self) -> bool:
        """State-changing, hence journaled, replicated and LSN-counted."""
        return self.record is not None

    def run(self, shard, args: Sequence[object]) -> object:
        """Execute against ``shard``; the value is in its wire shape."""
        if not self.is_property:
            value = getattr(shard, self.attr)(*args)
        elif args:
            setattr(shard, self.attr, *args)
            value = None
        else:
            value = getattr(shard, self.attr)
        return value if self.to_wire is None else self.to_wire(value)


def _restore_counters(snapshot: Dict[str, int]) -> EventCounters:
    counters = EventCounters()
    counters.restore(snapshot)
    return counters


def _batch_record(args, shard):
    return codec.batch_record(args[0])


COMMANDS: Dict[str, ShardCommand] = {
    # -- state-changing: journaled in apply order ------------------------ #
    "process": ShardCommand(
        "process", record=lambda args, shard: codec.document_record(args[0])
    ),
    "process_batch": ShardCommand("process_batch", record=_batch_record),
    # The packed-frame form of process_batch (decoded by ShardServer, never
    # through the generic argument path).
    "batch_commit": ShardCommand("process_batch", record=_batch_record),
    "register": ShardCommand(
        "register_query",
        record=lambda args, shard: codec.register_record(args[0], shard=shard),
        to_wire=lambda registered: None,  # the caller holds the query already
    ),
    "unregister": ShardCommand(
        "unregister",
        record=lambda args, shard: codec.unregister_record(int(args[0]), shard=shard),
    ),
    "renormalize": ShardCommand(
        "renormalize",
        record=lambda args, shard: codec.renormalize_record(float(args[0])),
    ),
    "restore_encoded": ShardCommand(
        "restore_encoded",
        record=lambda args, shard: (KIND_ADOPT, {"op": "restore", "state": args[0]}),
    ),
    # -- reads and diagnostics ------------------------------------------- #
    "top_k": ShardCommand("top_k"),
    "threshold": ShardCommand("threshold"),
    "all_results": ShardCommand("all_results"),
    "describe": ShardCommand("describe"),
    "reset_statistics": ShardCommand("reset_statistics"),
    "snapshot_encoded": ShardCommand("snapshot_encoded"),
    "telemetry": ShardCommand("telemetry_snapshot"),
    "queries": ShardCommand("queries", is_property=True, to_wire=dict),
    "num_queries": ShardCommand("num_queries", is_property=True),
    "counters": ShardCommand(
        "statistics",
        is_property=True,
        to_wire=EventCounters.snapshot,
        from_wire=_restore_counters,
    ),
    "live_window_size": ShardCommand("live_window_size", is_property=True),
    "last_arrival": ShardCommand("last_arrival", is_property=True),
}

#: Worker-side WAL verbs (the durable facade's journaling seam): wire name
#: -> the :class:`~repro.persistence.wal.WriteAheadLog` method it runs on
#: the log the worker owns, once ``wal_open`` created it.
WAL_COMMANDS: Dict[str, str] = {
    "wal_append": "append_line",
    "wal_flush": "flush",
    "wal_sync": "sync",
    "wal_rotate": "rotate",
    "wal_compact": "compact",
    "wal_close": "close",
}


def replay_record(target, record: WalRecord, shard_id: Optional[int] = None) -> object:
    """Apply one WAL record through the normal ingestion path.

    ``target`` is an engine host or a whole monitor.  When ``shard_id`` is given,
    membership records owned by other shards are skipped — every shard's
    WAL carries the full record sequence, but each query belongs to exactly
    one shard.  Returns what the engine returned (the update list, the
    unregistered query, the rescale factor): recovery only needs the state,
    but a promoted standby answers redone commands from these values.
    """
    kind, data = record.kind, record.data
    if kind == codec.KIND_DOCUMENT:
        return target.process(codec.decode_document(data["doc"]))
    if kind == codec.KIND_BATCH:
        return target.process_batch([codec.decode_document(doc) for doc in data["docs"]])
    if kind == codec.KIND_REGISTER:
        if shard_id is None or data.get("shard") == shard_id:
            target.register_query(codec.decode_query(data["query"]))
        return None
    if kind == codec.KIND_UNREGISTER:
        if shard_id is None or data.get("shard") == shard_id:
            return target.unregister(int(data["query_id"]))
        return None
    if kind == codec.KIND_RENORMALIZE:
        return target.renormalize(float(data["origin"]))
    if kind == KIND_ADOPT:
        if data.get("op") != "restore":
            raise PersistenceError(
                f"WAL record {record.lsn} has unknown {kind!r} op {data.get('op')!r}"
            )
        return target.restore_encoded(data["state"])
    raise PersistenceError(f"WAL record {record.lsn} has unknown kind {kind!r}")


def decode_batch_payload(header, tail, ring) -> List[Document]:
    """Resolve one stage/commit payload: a ring slice or the frame's tail."""
    if "q" in header:
        if ring is None:
            raise WorkerError("shm batch descriptor but no ring is attached")
        payload = ring.slice(header["o"], header["l"])
    else:
        payload = tail
    batch_header, batch_tail = codec.unpack_frame(payload)
    return codec.decode_document_batch(batch_header, batch_tail)


class Outcome(NamedTuple):
    """What :meth:`ShardServer.execute` hands to :meth:`ShardServer.reply`."""

    command: str
    status: str
    value: object
    extra: Optional[Dict[str, object]]
    renorms: List[Tuple[float, float]]


class ShardServer:
    """Serves the shard protocol for one resident shard, any transport.

    ``extensions`` are the transport's own commands (worker: the WAL
    verbs; host: promotion and replication control), ``ring`` the attached
    shared-memory view (``None`` = payloads ride the frames), and
    ``apply_mutation(entry, args) -> (value, reply extras)`` replaces the
    plain call for mutating commands — the cluster host's guard → apply →
    journal → replicate sequence.
    """

    def __init__(
        self,
        shard,
        label: str,
        extensions: Optional[Dict[str, Callable[..., object]]] = None,
        ring=None,
        apply_mutation=None,
    ) -> None:
        self.shard = shard
        self.label = label
        self._extensions = extensions or {}
        self._ring = ring
        self._apply_mutation = apply_mutation
        self._staged: List[Document] = []

    def execute(self, request: bytes) -> Outcome:
        """Decode and run one request, then drain the shard's event buffers.

        Returns the outcome :meth:`reply` encodes.  Every error crosses
        back to the caller as the reply value; none escapes.
        """
        status, value, extra, command = OK, None, None, "?"
        try:
            header, tail = codec.unpack_frame(request)
            command = header["c"]
            if command == "batch_commit":
                documents = decode_batch_payload(header, tail, self._ring)
                if header.get("g") and self._staged:
                    self._staged.extend(documents)
                    documents = self._staged
                self._staged = []
                if self._apply_mutation is None:
                    value = self.shard.process_batch(documents)
                else:
                    value, extra = self._apply_mutation(
                        COMMANDS[command], (documents,)
                    )
            elif command == "batch_stage":
                # One chunk of a batch larger than the ring: decode and
                # buffer only — the engine runs once, at the commit.
                if header.get("f"):
                    self._staged = []
                self._staged.extend(decode_batch_payload(header, tail, self._ring))
                value = len(self._staged)
            else:
                args = [codec.decode_value(arg, tail) for arg in header.get("a", ())]
                entry = COMMANDS.get(command)
                if entry is None:
                    value = self._run_extension(command, args)
                elif entry.mutating and self._apply_mutation is not None:
                    value, extra = self._apply_mutation(entry, args)
                else:
                    value = entry.run(self.shard, args)
        except Exception as exc:  # noqa: BLE001 - every shard error crosses back
            status, value = ERR, exc
        renorms = self.shard.drain_renormalizations()
        return Outcome(command, status, value, extra, renorms)

    def _run_extension(self, command: str, args: List[object]) -> object:
        if command == "ping":
            return os.getpid()
        if command == "shutdown":
            return None  # the serving loop exits after this reply
        extension = self._extensions.get(command)
        if extension is None:
            raise WorkerError(f"{self.label}: unknown command {command!r}")
        return extension(*args)

    def reply(self, outcome: Outcome, send: Callable[[bytes], None]) -> bool:
        """Encode and send one reply; False when the connection is gone.

        A value the codec cannot encode (or a frame the transport refuses)
        is replaced by a :class:`WorkerError` reply, so the caller is never
        left waiting on a request that was served.
        """
        command, status, value, extra, renorms = outcome
        for attempt in range(2):
            if attempt:
                status = ERR
                value = WorkerError(
                    f"{self.label}: reply to {command!r} could not be encoded"
                )
            tail = codec.TailWriter()
            try:
                events: Dict[str, object] = {}
                if renorms:
                    events["n"] = [[origin, factor] for origin, factor in renorms]
                header = {"s": status, "v": codec.encode_value(value, tail), "e": events}
                if extra:
                    header.update(extra)
                send(codec.pack_frame(header, tail.take()))
                return True
            except Exception:  # noqa: BLE001 - try the fallback reply
                continue
        return False

    def serve(self, request: bytes, send: Callable[[bytes], None]) -> Optional[str]:
        """:meth:`execute` + :meth:`reply`; the command name, or ``None``
        when the reply could not be delivered."""
        outcome = self.execute(request)
        return outcome.command if self.reply(outcome, send) else None
