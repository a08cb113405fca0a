"""Remote shard execution: the router's side of the cluster.

:class:`RemoteShardExecutor` (``executor="remote"``) is the socket twin of
:class:`~repro.runtime.procpool.ProcessShardExecutor`: it spawns one
*shard-host* process per partition (plus ``replicas`` hot standbys each),
connects to them over loopback/TCP, and fans commands out with the same
pipelined submit-all-then-collect discipline and the same failure contract.
Document batches are encoded once and the identical frame is written to
every host's socket — the socket transport's equivalent of the shared pipe
frame (there is no cross-machine shared memory).

:class:`RemoteShardHandle` is the *stable* per-partition proxy the sharded
facade holds: failover happens inside the handle, so a promoted standby
transparently replaces its dead primary for every subsequent call.  The
handle implements the cluster's at-least-once/exactly-once split:

* every mutating command gets the partition's next LSN and is kept in a
  **redo queue** until the primary reports it standby-acked (the ``rl``
  reply field trims the queue; the bounded replication lag bounds the
  queue).  A command the shard *rejects* is withdrawn from the queue and
  its speculative LSN is reused — the host journals only applied commands;
* on primary death (send failure, EOF, request timeout) the handle promotes
  the next standby, learns its applied LSN — the durable prefix — replays
  the redo suffix *in order at the same LSNs*, and answers the in-flight
  command either from the replay or from the standby's replica result cache
  (when the record had already been shipped before the crash: redone
  delivery, applied exactly once);
* health checks: :meth:`RemoteShardExecutor.check_health` pings every
  primary (the heartbeat); a dead one fails over immediately instead of at
  the next stream event.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import MonitorConfig
from repro.exceptions import ConfigurationError, WorkerError
from repro.persistence import codec
from repro.cluster.host import ROLE_CONTROL, HostOptions, ShardHost
from repro.cluster.transport import DEFAULT_MAX_FRAME_BYTES, FrameSocket
from repro.runtime.procpool import (
    ProcessShardHandle,
    ResidentShardExecutor,
    TransportStats,
)
from repro.runtime.protocol import COMMANDS, ERR


def _shard_host_main(conn, shard_id, config, options, bind_host) -> None:
    """Process entry point: serve one shard host, report the bound port."""

    def report(address) -> None:
        conn.send(address)
        conn.close()

    ShardHost(shard_id, config, options).serve(host=bind_host, on_ready=report)


class _TransportDead(Exception):
    """Internal marker: the *connection* failed (vs. an error the shard
    raised over a healthy connection, which must not trigger failover)."""


class HostClient:
    """One spawned shard-host process and the control socket into it."""

    __slots__ = ("process", "host", "port", "socket")

    def __init__(self, process, address: Tuple[str, int], sock: FrameSocket) -> None:
        self.process = process
        self.host, self.port = address
        self.socket = sock

    @property
    def alive(self) -> bool:
        return self.process is None or self.process.is_alive()

    def send_shutdown(self) -> None:
        try:
            self.socket.send_bytes(codec.pack_frame({"c": "shutdown"}))
        except Exception:  # noqa: BLE001 - dead hosts cannot be told
            pass

    def destroy(self, grace: float = 5.0) -> None:
        try:
            self.socket.close()
        except Exception:  # noqa: BLE001
            pass
        if self.process is not None:
            self.process.join(timeout=grace)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=grace)


class _Pending(NamedTuple):
    """One in-flight command (``lsn`` is None for non-mutating ones)."""

    command: str
    frame: bytes
    lsn: Optional[int]


class RemoteShardHandle(ProcessShardHandle):
    """Stable proxy for one partition: a primary host + its hot standbys.

    Inherits the full engine-host mirror from
    :class:`ProcessShardHandle`; only the protocol plumbing is replaced —
    frames ride a :class:`FrameSocket`, mutating commands feed the redo
    queue, and a dead primary is replaced by a promoted standby inside
    :meth:`collect` instead of surfacing as a :class:`WorkerError`
    (that is raised only when no standby remains).
    """

    def __init__(
        self,
        shard_id: int,
        primary: HostClient,
        standbys: Sequence[HostClient],
        stats: Optional[TransportStats] = None,
        journaling: bool = False,
        repl_options: Tuple[int, int, float] = (0, 256, 10.0),
    ) -> None:
        self.shard_id = shard_id
        self._primary_client = primary
        self._standbys: List[HostClient] = list(standbys)
        self._stats = stats if stats is not None else TransportStats()
        self._journaling = journaling
        self._repl_options = repl_options
        self._pending: Optional[_Pending] = None
        self._send_error: Optional[BaseException] = None
        self._redo: Deque[Tuple[int, bytes]] = deque()
        #: LSN of the last journaled command this handle issued.
        self.wal_lsn = 0
        #: Lowest standby-acked LSN the primary last reported.
        self.replicated_lsn = 0
        #: Standby promotions this handle performed.
        self.failovers = 0

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    @property
    def process(self):
        return self._primary_client.process

    @property
    def _conn(self):
        return self._primary_client.socket

    @property
    def primary(self) -> HostClient:
        return self._primary_client

    @property
    def standbys(self) -> List[HostClient]:
        return list(self._standbys)

    @property
    def clients(self) -> List[HostClient]:
        return [self._primary_client] + self._standbys

    @property
    def alive(self) -> bool:
        return self._primary_client.alive

    # ------------------------------------------------------------------ #
    # Protocol plumbing (replaces the pipe path of the parent class)
    # ------------------------------------------------------------------ #

    def submit_frame(self, command: str, frame: bytes) -> None:
        """Ship one prebuilt frame (byte accounting is the caller's job).

        A mutating command (per the protocol table) takes the partition's
        next LSN and joins the redo queue.  Send failures are deferred to
        :meth:`collect` — that is where the failover lives, and it keeps
        the executor's submit loop non-raising.
        """
        if self._pending is not None:
            raise WorkerError(
                f"shard host handle {self.shard_id} already has a request in "
                "flight (submit without collect)"
            )
        lsn: Optional[int] = None
        entry = COMMANDS.get(command)
        if self._journaling and entry is not None and entry.mutating:
            lsn = self.wal_lsn + 1
            self._redo.append((lsn, frame))
        self._pending = _Pending(command, frame, lsn)
        try:
            self._primary_client.socket.send_bytes(frame)
        except Exception as exc:  # noqa: BLE001 - deferred to collect()
            self._send_error = exc

    def collect(self) -> object:
        pending, self._pending = self._pending, None
        if pending is None:
            raise WorkerError(
                f"shard host handle {self.shard_id}: collect without submit"
            )
        if self._send_error is not None:
            cause, self._send_error = self._send_error, None
            return self._failover(pending, cause)
        try:
            value, header = self._collect_reply(self._primary_client)
        except _TransportDead as dead:
            return self._failover(pending, dead.__cause__ or dead)
        except Exception:
            # The shard rejected the command over a healthy connection: the
            # host journaled nothing (apply-then-journal), so the LSN this
            # handle speculatively assigned is withdrawn with the command.
            if (
                pending.lsn is not None
                and self._redo
                and self._redo[-1][0] == pending.lsn
            ):
                self._redo.pop()
            raise
        self._after_reply(pending, header)
        return value

    def _collect_reply(self, client: HostClient) -> Tuple[object, Dict[str, object]]:
        """One reply off ``client``; shard errors re-raise as themselves,
        connection death raises :class:`_TransportDead`."""
        try:
            data = client.socket.recv_bytes()
        except (EOFError, OSError) as exc:
            raise _TransportDead(
                f"shard host {self.shard_id} died (connection lost before reply)"
            ) from exc
        self._stats.reply_bytes += len(data)
        try:
            header, tail = codec.unpack_frame(data)
            status = header["s"]
            value = codec.decode_value(header.get("v"), tail)
        except Exception as exc:  # noqa: BLE001 - the stream can't be trusted
            raise _TransportDead(
                f"shard host {self.shard_id} sent an undecodable reply"
            ) from exc
        if status == ERR:
            if isinstance(value, BaseException):
                raise value
            raise WorkerError(str(value))  # pragma: no cover - defensive
        return value, header

    def _client_call(self, client: HostClient, command: str, *args: object) -> object:
        """Direct command on a specific host (failover bookkeeping bypass)."""
        frame = self._pack(command, args)
        try:
            client.socket.send_bytes(frame)
        except Exception as exc:  # noqa: BLE001
            raise _TransportDead(
                f"shard host {self.shard_id} is gone (send failed)"
            ) from exc
        value, _ = self._collect_reply(client)
        return value

    def _after_reply(self, pending: _Pending, header: Dict[str, object]) -> None:
        if pending.lsn is None:
            return
        lsn = header.get("l")
        if lsn is None:
            # The host is not journaling (replicas=0 spawns no WAL): no redo
            # bookkeeping to maintain.
            self._redo.clear()
            return
        if lsn != pending.lsn:
            raise WorkerError(
                f"shard host {self.shard_id} journaled {pending.command!r} at "
                f"lsn {lsn}, router expected {pending.lsn}; the partition's "
                "log and redo queue are out of lockstep"
            )
        self.wal_lsn = int(lsn)
        replicated = int(header.get("rl", lsn))  # type: ignore[arg-type]
        self.replicated_lsn = replicated
        while self._redo and self._redo[0][0] <= replicated:
            self._redo.popleft()

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def heartbeat(self) -> bool:
        """Ping the primary; on death, fail over now.  Returns True when the
        partition is healthy (possibly on a freshly promoted primary)."""
        try:
            self._client_call(self._primary_client, "ping")
            return True
        except _TransportDead as dead:
            self._failover(None, dead.__cause__ or dead)
            return True

    def _failover(self, pending: Optional[_Pending], cause: BaseException) -> object:
        """Promote the next standby, replay the redo suffix, answer ``pending``.

        Tries standbys in order; a standby that fails mid-promotion is
        discarded and the next one is tried.  With none left the partition
        is lost and the original failure surfaces as a
        :class:`WorkerError` — the executor's normal failure contract.
        """
        dead_primary = self._primary_client
        while self._standbys:
            client = self._standbys.pop(0)
            try:
                value = self._promote_and_replay(client, pending)
            except Exception as exc:  # noqa: BLE001 - try the next standby
                client.destroy()
                cause = exc
                continue
            self._primary_client = client
            self.failovers += 1
            dead_primary.destroy()
            return value
        if isinstance(cause, WorkerError):
            raise cause
        raise WorkerError(
            f"shard host {self.shard_id} died and no standby remains"
        ) from cause

    def _promote_and_replay(
        self, client: HostClient, pending: Optional[_Pending]
    ) -> object:
        applied = int(self._client_call(client, "promote"))  # type: ignore[arg-type]
        min_replicas, max_lag, repl_timeout = self._repl_options
        for standby in self._standbys:
            self._client_call(
                client,
                "repl_start",
                standby.host,
                standby.port,
                min_replicas,
                max_lag,
                repl_timeout,
            )
        value: object = None
        answered = False
        last_lsn = applied
        for lsn, frame in list(self._redo):
            if lsn <= applied:
                continue
            is_pending = pending is not None and pending.lsn == lsn
            try:
                client.socket.send_bytes(frame)
            except Exception as exc:  # noqa: BLE001
                raise _TransportDead(
                    f"shard host {self.shard_id} redo send failed"
                ) from exc
            redo_value, header = self._collect_reply(client)
            if header.get("l") != lsn:
                raise WorkerError(
                    f"shard host {self.shard_id} redo journaled at lsn "
                    f"{header.get('l')}, expected {lsn}"
                )
            last_lsn = lsn
            if is_pending:
                value, answered = redo_value, True
        if pending is not None and not answered:
            if pending.lsn is not None:
                # The dead primary had already shipped the record: the
                # standby applied it through replication, so fetch the
                # cached result instead of applying it twice.
                value = self._client_call(client, "redo_result", pending.lsn)
            else:
                try:
                    client.socket.send_bytes(pending.frame)
                except Exception as exc:  # noqa: BLE001
                    raise _TransportDead(
                        f"shard host {self.shard_id} retry send failed"
                    ) from exc
                value, _ = self._collect_reply(client)
        self.wal_lsn = max(self.wal_lsn, last_lsn)
        self.replicated_lsn = min(self.replicated_lsn, applied)
        return value


class RemoteShardExecutor(ResidentShardExecutor):
    """Hosts every shard in a socket-served host process (name ``"remote"``).

    Topology per partition: one primary plus ``replicas`` hot standbys, all
    spawned locally (loopback) by default — the deployment shape is real,
    the processes just happen to share a box; ``bind_host`` exists for
    actual remote binds.  ``replicas=0`` skips journaling entirely and is
    the pure remote-execution mode.

    ``min_replicas`` > 0 makes every mutating ack wait until that many
    standbys applied the record; otherwise standbys may trail by at most
    ``max_lag_records`` records (the bounded replication lag).

    Example::

        monitor = ShardedMonitor(
            config, n_shards=4,
            executor=RemoteShardExecutor(4, replicas=1),
        )
        monitor.process_batch(batch)   # fans out over sockets
        monitor.close()                # shuts the host fleet down
    """

    name = "remote"

    def __init__(
        self,
        n_shards: int,
        replicas: int = 1,
        min_replicas: int = 0,
        max_lag_records: int = 256,
        request_timeout: float = 30.0,
        replication_timeout: float = 10.0,
        base_dir: Optional[str] = None,
        bind_host: str = "127.0.0.1",
        group_commit: int = 16,
        segment_max_bytes: int = 4 * 1024 * 1024,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        spawn_timeout: float = 30.0,
        mp_context=None,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        if replicas < 0:
            raise ConfigurationError(f"replicas must be >= 0, got {replicas}")
        if not 0 <= min_replicas <= replicas:
            raise ConfigurationError(
                f"min_replicas must be within [0, replicas={replicas}], "
                f"got {min_replicas}"
            )
        if max_lag_records < 0:
            raise ConfigurationError(
                f"max_lag_records must be >= 0, got {max_lag_records}"
            )
        self.n_shards = n_shards
        self.replicas = replicas
        self.min_replicas = min_replicas
        self.max_lag_records = max_lag_records
        self.request_timeout = request_timeout
        self.replication_timeout = replication_timeout
        self.bind_host = bind_host
        self.group_commit = group_commit
        self.segment_max_bytes = segment_max_bytes
        self.max_frame_bytes = max_frame_bytes
        self.spawn_timeout = spawn_timeout
        self.stats = TransportStats()
        self._ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        self._base_dir = base_dir
        self._owns_base = False
        self._active_base: Optional[str] = None
        self._handles: Optional[List[RemoteShardHandle]] = None
        self._clients: List[HostClient] = []

    # ------------------------------------------------------------------ #
    # Host fleet lifecycle
    # ------------------------------------------------------------------ #

    @property
    def transport_active(self) -> Optional[str]:
        """``"socket"`` while the host fleet is live, ``None`` before."""
        return "socket" if self._handles is not None else None

    def spawn_shards(self, config: MonitorConfig) -> List[RemoteShardHandle]:
        """Start the host fleet; returns the stable handles in shard order."""
        if self._handles is not None:
            raise ConfigurationError("remote executor already owns live hosts")
        journaling = self.replicas > 0
        if journaling:
            self._active_base = self._base_dir
            if self._active_base is None:
                self._active_base = tempfile.mkdtemp(prefix="repro-cluster-")
                self._owns_base = True
        handles: List[RemoteShardHandle] = []
        self._handles = handles
        repl_options = (
            self.min_replicas,
            self.max_lag_records,
            self.replication_timeout,
        )
        try:
            for shard_id in range(self.n_shards):
                clients: List[HostClient] = []
                for replica_index in range(self.replicas + 1):
                    wal_dir = None
                    if journaling:
                        wal_dir = os.path.join(
                            self._active_base,  # type: ignore[arg-type]
                            f"shard-{shard_id:03d}",
                            "primary" if replica_index == 0 else f"standby-{replica_index}",
                        )
                    clients.append(
                        self._spawn_host(
                            shard_id, config, wal_dir, standby=replica_index > 0
                        )
                    )
                handle = RemoteShardHandle(
                    shard_id,
                    clients[0],
                    clients[1:],
                    stats=self.stats,
                    journaling=journaling,
                    repl_options=repl_options,
                )
                handle.call("ping")
                for standby in clients[1:]:
                    handle._client_call(
                        clients[0],
                        "repl_start",
                        standby.host,
                        standby.port,
                        *repl_options,
                    )
                handles.append(handle)
        except Exception:
            self.close()
            raise
        return handles

    def _spawn_host(
        self,
        shard_id: int,
        config: MonitorConfig,
        wal_dir: Optional[str],
        standby: bool,
    ) -> HostClient:
        options = HostOptions(
            wal_dir=wal_dir,
            standby=standby,
            group_commit=self.group_commit,
            segment_max_bytes=self.segment_max_bytes,
            max_frame_bytes=self.max_frame_bytes,
            result_cache=max(1024, 4 * self.max_lag_records),
        )
        receiver, sender = self._ctx.Pipe(duplex=False)
        role = "standby" if standby else "primary"
        process = self._ctx.Process(
            target=_shard_host_main,
            args=(sender, shard_id, config, options, self.bind_host),
            name=f"repro-host-{shard_id}-{role}",
            daemon=True,
        )
        process.start()
        sender.close()
        try:
            if not receiver.poll(self.spawn_timeout):
                raise WorkerError(
                    f"shard host {shard_id} ({role}) did not report its "
                    f"address within {self.spawn_timeout}s"
                )
            address = tuple(receiver.recv())
        except (EOFError, OSError) as exc:
            process.terminate()
            process.join(timeout=5.0)
            raise WorkerError(
                f"shard host {shard_id} ({role}) died during startup"
            ) from exc
        finally:
            receiver.close()
        sock = FrameSocket.connect(
            address, timeout=self.spawn_timeout, max_frame_bytes=self.max_frame_bytes
        )
        sock.settimeout(self.request_timeout)
        sock.send_bytes(codec.pack_frame({"r": ROLE_CONTROL}))
        client = HostClient(process, address, sock)
        self._clients.append(client)
        return client

    def close(self) -> None:
        """Shut the whole fleet down (primaries, standbys, promoted hosts)."""
        self._handles = None
        clients, self._clients = self._clients, []
        for client in clients:
            client.send_shutdown()
        for client in clients:
            client.destroy()
        if self._owns_base and self._active_base is not None:
            shutil.rmtree(self._active_base, ignore_errors=True)
        self._owns_base = False
        self._active_base = None

    # ------------------------------------------------------------------ #
    # Health / replication observability
    # ------------------------------------------------------------------ #

    def check_health(self) -> Dict[int, bool]:
        """Heartbeat every partition; dead primaries fail over here and now.

        Returns shard_id -> healthy.  Raises :class:`WorkerError` for a
        partition whose primary is dead with no standby left.
        """
        return {handle.shard_id: handle.heartbeat() for handle in self.handles}

    @property
    def replication_summary(self) -> Optional[Dict[str, object]]:
        """Router-side replication facts (no extra round trips)."""
        if self._handles is None:
            return None
        return {
            "replicas": self.replicas,
            "min_replicas": self.min_replicas,
            "max_lag_records": self.max_lag_records,
            "failovers": sum(handle.failovers for handle in self._handles),
            "applied_lsn": {
                handle.shard_id: handle.replicated_lsn for handle in self._handles
            },
            "replication_lag_records": {
                handle.shard_id: handle.wal_lsn - handle.replicated_lsn
                for handle in self._handles
            },
        }

    def replication_health(self) -> Dict[int, Dict[str, object]]:
        """Live per-partition ``repl_status`` (one round trip per primary)."""
        return {
            handle.shard_id: handle.call("repl_status")  # type: ignore[misc]
            for handle in self.handles
        }

    def telemetry_gauges(self) -> Dict[str, float]:
        """Router-side cluster gauges folded into the merged telemetry
        snapshot (no extra round trips; {} before the fleet is live)."""
        if self._handles is None:
            return {}
        return {
            "cluster.failovers": float(
                sum(handle.failovers for handle in self._handles)
            ),
            "cluster.replication_lag_records": float(
                max(
                    (
                        handle.wal_lsn - handle.replicated_lsn
                        for handle in self._handles
                    ),
                    default=0,
                )
            ),
        }
