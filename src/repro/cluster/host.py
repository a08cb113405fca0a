"""The shard host: one engine host served over codec frames on a socket.

A shard host is the cluster-process twin of :func:`repro.runtime.procpool
._shard_worker_main`: it owns one :class:`~repro.core.monitor.ContinuousMonitor`
and serves it with the same routine (:class:`repro.runtime.protocol.ShardServer`
— one command table, one frame format) — but listens on a TCP socket (so the
router can live on another box) and adds a cluster member's duties:

* **Apply-then-journal.**  The engine runs every mutating command first;
  only an *accepted* command is appended to the host's WAL and offered to
  its replication senders.  A rejected command (say, a stale document) thus
  leaves no trace — no LSN hole, no record a standby would choke on — so
  the WAL holds exactly the record sequence a single engine would replay.
  The apply→journal window is crash-equivalent to dying before the apply:
  a primary killed inside it loses the un-journaled state change with its
  memory, and the router's redo replays the command on the promoted
  standby at the same LSN.  Replies to journaled commands carry ``"l"``
  (the record's LSN) and ``"rl"`` (the lowest standby-acked LSN) so the
  router can trim its redo queue.
* **Hot-standby mode.**  A host started with ``standby=True`` refuses
  mutating commands and instead applies the primary's shipped WAL lines
  (connections that greet with role ``"wal"``) through
  :class:`~repro.persistence.replication.ReplicaApplier` — the normal
  recovery path, which is what makes a promoted standby byte-identical to
  a single-engine replay.  ``promote`` flips it to primary at a record
  boundary and returns the applied LSN (the durable prefix).
* **Bounded lag / min-replicas acks.**  The journal path optionally blocks
  until every live standby is within ``max_lag_records`` of the new record
  (or, with ``min_replicas`` >= 1, until that many standbys acked it), so
  replication lag is a configuration, not an accident.

Connections declare a role in their first frame: ``{"r": "ctl"}`` for the
command surface, ``{"r": "wal"}`` for a replication subscription.  The
``fail_next`` command is deliberate fault injection for the failover tests
(``before_journal`` dies before the record exists anywhere;
``after_replicate`` dies after the standby acked it — the two edges of the
crash window).
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.exceptions import WorkerError
from repro.persistence import codec
from repro.persistence.replication import ReplicaApplier
from repro.persistence.wal import WriteAheadLog
from repro.cluster.replication import ReplicationSender
from repro.cluster.transport import DEFAULT_MAX_FRAME_BYTES, FrameSocket
from repro.runtime.protocol import WAL_COMMANDS, ShardCommand, ShardServer

#: Connection roles (the first frame of every connection names one).
ROLE_CONTROL = "ctl"
ROLE_WAL = "wal"

#: Fault-injection windows understood by ``fail_next``.
CRASH_MODES = ("before_journal", "after_replicate")


@dataclass
class HostOptions:
    """Everything a shard-host process needs beyond the monitor config.

    Picklable on purpose: the executor passes one across the process spawn.
    """

    wal_dir: Optional[str] = None
    standby: bool = False
    group_commit: int = 16
    segment_max_bytes: int = 4 * 1024 * 1024
    fsync: bool = False
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    result_cache: int = 1024


class ShardHost:
    """One shard served on a socket; primary or hot standby."""

    def __init__(
        self, shard_id: int, config: MonitorConfig, options: Optional[HostOptions] = None
    ) -> None:
        self.shard_id = shard_id
        self.options = options or HostOptions()
        self._shard = ContinuousMonitor(config)
        self._shard.shard_id = shard_id
        # One lock serializes shard + WAL access across control connections,
        # the replication receive loop and promotion.
        self._lock = threading.RLock()
        self._wal: Optional[WriteAheadLog] = None
        self._applier: Optional[ReplicaApplier] = None
        if self.options.wal_dir is not None:
            self._wal = WriteAheadLog(
                self.options.wal_dir,
                group_commit=self.options.group_commit,
                segment_max_bytes=self.options.segment_max_bytes,
                fsync=self.options.fsync,
                telemetry=self._shard.telemetry,
            )
            self._applier = ReplicaApplier(
                self._shard,
                wal=self._wal,
                shard_id=shard_id,
                cache_size=self.options.result_cache,
            )
        self._primary = not self.options.standby
        self._senders: List[ReplicationSender] = []
        self._min_replicas = 0
        self._max_lag = 0
        self._repl_timeout = 10.0
        self._crash_next: Optional[str] = None
        self._running = True
        self._listener: Optional[socket.socket] = None
        self._server = ShardServer(
            self._shard,
            f"shard host {shard_id}",
            self._cluster_commands(),
            apply_mutation=self._apply_mutation,
        )

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Bind, report the bound address, accept connections until shutdown."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        self._listener = listener
        if on_ready is not None:
            on_ready(listener.getsockname()[:2])
        try:
            while self._running:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    break  # listener closed by shutdown
                frame_socket = FrameSocket(
                    conn, max_frame_bytes=self.options.max_frame_bytes
                )
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(frame_socket,),
                    name=f"shard-host-{self.shard_id}-conn",
                    daemon=True,
                )
                thread.start()
        finally:
            self._teardown()

    def _teardown(self) -> None:
        with self._lock:
            for sender in self._senders:
                sender.stop()
            self._senders = []
            if self._wal is not None:
                try:
                    self._wal.close()
                except Exception:  # noqa: BLE001 - best-effort final flush
                    pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass

    def _shutdown(self) -> None:
        self._running = False
        listener = self._listener
        if listener is not None:
            # close() alone does not reliably wake a thread blocked in
            # accept() on Linux; shutting the listening socket down does.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def _serve_connection(self, frame_socket: FrameSocket) -> None:
        try:
            header, _ = codec.unpack_frame(frame_socket.recv_bytes())
            role = header.get("r") if isinstance(header, dict) else None
            if role == ROLE_WAL:
                self._serve_replication(frame_socket)
            elif role == ROLE_CONTROL:
                self._serve_control(frame_socket)
        except (EOFError, OSError):
            pass
        finally:
            frame_socket.close()

    # ------------------------------------------------------------------ #
    # Control connections (the procpool command surface + cluster commands)
    # ------------------------------------------------------------------ #

    def _serve_control(self, frame_socket: FrameSocket) -> None:
        """The shared protocol routine over a socket, one request at a time;
        only the execute half runs under the host lock."""
        while self._running:
            try:
                request = frame_socket.recv_bytes()
            except (EOFError, OSError):
                return
            with self._lock:
                outcome = self._server.execute(request)
            if not self._server.reply(outcome, frame_socket.send_bytes):
                return
            if outcome.command == "shutdown":
                self._shutdown()
                return

    def _cluster_commands(self) -> Dict[str, Callable[..., object]]:
        """This role's protocol extensions (run under the host lock)."""

        def refuse_wal(*args: object) -> None:
            raise WorkerError(
                f"shard host {self.shard_id}: wal_* commands are not served — "
                "a cluster host owns its WAL (DurableMonitor journaling does "
                "not compose with executor='remote')"
            )

        commands: Dict[str, Callable[..., object]] = dict.fromkeys(
            ("wal_open", *WAL_COMMANDS), refuse_wal
        )
        commands.update(
            promote=self._promote,
            repl_start=self._repl_start,
            repl_status=self._repl_status,
            applied_lsn=lambda: self._applier.applied_lsn if self._applier else 0,
            redo_result=self._redo_result,
            fail_next=self._fail_next,
        )
        return commands

    def _fail_next(self, mode: str) -> None:
        if mode not in CRASH_MODES:
            raise WorkerError(
                f"unknown crash mode {mode!r}; expected one of {CRASH_MODES}"
            )
        self._crash_next = mode

    # ------------------------------------------------------------------ #
    # Apply-then-journal
    # ------------------------------------------------------------------ #

    def _apply_mutation(
        self, entry: ShardCommand, args: Sequence[object]
    ) -> Tuple[object, Dict[str, object]]:
        """Guard, apply, journal, replicate: one mutating command.

        The guard runs *before* the engine does — the router only ever
        mutates the primary, so a mutation on a standby must be refused
        without touching its state, and the ``before_journal`` crash window
        means "the record exists nowhere, not even in memory".
        """
        if not self._primary:
            raise WorkerError(
                f"shard host {self.shard_id} is a standby; it only accepts "
                "mutations through replication (promote it first)"
            )
        if self._crash_next == "before_journal":
            os._exit(137)
        value = entry.run(self._shard, args)
        extra = self._journal_mutation(entry, args)
        self._record_result(extra, value)
        self._wait_replication(extra)
        return value, extra

    def _journal_mutation(
        self, entry: ShardCommand, args: Sequence[object]
    ) -> Dict[str, object]:
        """Journal one *applied* mutating command and ship it to every sender.

        Called only after the engine accepted the command, so the log never
        contains a record whose replay would fail.  Returns the reply
        extras (``l``/``rl``) — empty when the host is not journaling.
        """
        if self._wal is None:
            return {}
        telemetry = self._shard.telemetry
        started = perf_counter() if telemetry.enabled else 0.0
        kind, data = entry.record(args, self.shard_id)  # type: ignore[misc]
        lsn = self._wal.last_lsn + 1
        line = codec.pack_line(
            {"v": codec.CODEC_VERSION, "lsn": lsn, "kind": kind, "data": data}
        )
        self._wal.append_line(line, lsn)
        for sender in self._senders:
            sender.offer(lsn, line)
        if self._crash_next == "after_replicate":
            for sender in self._senders:
                sender.wait_for(lsn, self._repl_timeout)
            os._exit(137)
        if telemetry.enabled:
            telemetry.observe("cluster.journal", perf_counter() - started)
        return {"l": lsn, "rl": self._replicated_lsn(lsn)}

    def _record_result(self, extra: Dict[str, object], value: object) -> None:
        if extra and self._applier is not None:
            self._applier.record_result(int(extra["l"]), value)  # type: ignore[arg-type]
            self._applier.applied_lsn = int(extra["l"])  # type: ignore[arg-type]

    def _replicated_lsn(self, lsn: int) -> int:
        """Lowest acked LSN across senders (``lsn`` itself with none attached).

        Failed senders keep their last ack in the minimum on purpose: the
        router must not trim redo entries a stale standby never received.
        """
        if not self._senders:
            return lsn
        return min(sender.acked_lsn for sender in self._senders)

    def _wait_replication(self, extra: Dict[str, object]) -> None:
        """Bounded lag: block the ack until the standbys are close enough."""
        if not extra or not self._senders:
            return
        telemetry = self._shard.telemetry
        started = perf_counter() if telemetry.enabled else 0.0
        lsn = int(extra["l"])  # type: ignore[arg-type]
        if self._min_replicas > 0:
            needed = min(self._min_replicas, len(self._senders))
            acked = 0
            for sender in self._senders:
                if acked >= needed:
                    break
                if sender.wait_for(lsn, self._repl_timeout):
                    acked += 1
        elif self._max_lag >= 0:
            floor = lsn - self._max_lag
            if floor > 0:
                for sender in self._senders:
                    sender.wait_for(floor, self._repl_timeout)
        if telemetry.enabled:
            telemetry.observe("cluster.replication_ack", perf_counter() - started)
        extra["rl"] = self._replicated_lsn(lsn)

    # ------------------------------------------------------------------ #
    # Cluster commands
    # ------------------------------------------------------------------ #

    def _promote(self) -> int:
        """Standby -> primary at a record boundary; returns the applied LSN.

        Idempotent: promoting a primary returns its journal position.  The
        replication receive loop checks ``_primary`` under the same lock, so
        records still buffered in the subscription socket are never applied
        after this returns — the router redoes them instead, at the same
        LSNs, which is what keeps the promoted log byte-identical.
        """
        if self._wal is None:
            raise WorkerError(
                f"shard host {self.shard_id} has no WAL; nothing to promote"
            )
        self._primary = True
        self._wal.flush()
        return self._applier.applied_lsn if self._applier else self._wal.last_lsn

    def _repl_start(
        self,
        host: str,
        port: int,
        min_replicas: int,
        max_lag: int,
        repl_timeout: float,
    ) -> int:
        """Attach one standby; streams the durable suffix, then live records."""
        if self._wal is None:
            raise WorkerError(
                f"shard host {self.shard_id} has no WAL; replication needs "
                "journaling (spawn the host with a wal_dir)"
            )
        if not self._primary:
            raise WorkerError(
                f"shard host {self.shard_id} is a standby; only a primary "
                "streams its WAL"
            )
        self._min_replicas = int(min_replicas)
        self._max_lag = int(max_lag)
        self._repl_timeout = float(repl_timeout)
        self._wal.flush()
        sender = ReplicationSender(
            self._wal,
            (host, int(port)),
            max_frame_bytes=self.options.max_frame_bytes,
            connect_timeout=self._repl_timeout,
        )
        sender.start()
        self._senders = [s for s in self._senders if not s.failed]
        self._senders.append(sender)
        return self._wal.last_lsn

    def _repl_status(self) -> Dict[str, object]:
        return {
            "primary": self._primary,
            "last_lsn": self._wal.last_lsn if self._wal is not None else 0,
            "applied_lsn": self._applier.applied_lsn if self._applier else 0,
            "replicas": [
                {"acked_lsn": sender.acked_lsn, "failed": sender.failed}
                for sender in self._senders
            ],
        }

    def _redo_result(self, lsn: int) -> object:
        if self._applier is None:
            raise WorkerError(
                f"shard host {self.shard_id} has no replica cache (no WAL)"
            )
        found, value = self._applier.cached_result(lsn)
        if not found:
            raise WorkerError(
                f"shard host {self.shard_id}: result of lsn {lsn} is not "
                "cached (the redo window was exceeded)"
            )
        return value

    # ------------------------------------------------------------------ #
    # Replication subscriptions (standby side)
    # ------------------------------------------------------------------ #

    def _serve_replication(self, frame_socket: FrameSocket) -> None:
        if self._applier is None:
            return  # no WAL: cannot subscribe; closing refuses the sender
        with self._lock:
            applied = self._applier.applied_lsn
        frame_socket.send_bytes(codec.pack_frame({"k": "sub", "a": applied}))
        while self._running:
            try:
                data = frame_socket.recv_bytes()
            except (EOFError, OSError):
                return
            header, tail = codec.unpack_frame(data)
            if not isinstance(header, dict) or header.get("k") != "rec":
                return
            with self._lock:
                if self._primary:
                    # Promoted between records: anything still buffered in
                    # this socket is redone by the router at the same LSNs.
                    return
                self._applier.apply_line(bytes(tail))
                applied = self._applier.applied_lsn
            frame_socket.send_bytes(codec.pack_frame({"k": "ack", "l": applied}))
