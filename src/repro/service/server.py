"""The asyncio pub/sub server: the monitor stack behind a socket.

:class:`MonitorServer` hosts any monitor flavour —
:class:`~repro.core.monitor.ContinuousMonitor`,
:class:`~repro.runtime.sharded.ShardedMonitor` or a crash-safe
:class:`~repro.persistence.durable.DurableMonitor` — behind the
length-prefixed JSON protocol of :mod:`repro.service.protocol`.  Clients
``subscribe`` continuous queries (server-assigned ids), ``publish``
documents, and receive coalesced result notifications pushed over their
connection; ``stats`` and ``checkpoint`` cover operations.

Three design points carry the throughput and robustness story:

* **Micro-batched ingestion** — publishes are never processed one by one:
  every ``publish``/``publish_batch`` lands on one ingest queue that a
  single pipeline task drains into
  :meth:`~repro.core.monitor.ContinuousMonitor.process_batch` calls of up
  to ``max_batch`` documents (the PR-1 fast path).  Publishers receive
  their ack *after* their documents' batch has been processed, carrying
  the server-stamped arrival times and the batch sequence numbers — which
  is also what makes the service differentially testable against an
  offline run.
* **Bounded fan-out with an explicit slow-consumer policy** — every
  subscriber owns a bounded notification queue drained by its own writer
  task.  When a queue is full the configured policy decides: ``block``
  (backpressure the ingest pipeline — no subscriber ever misses an
  update), ``drop`` (evict the *oldest* queued notification, counted in
  :class:`~repro.metrics.counters.ServiceCounters`), or ``disconnect``
  (close the slow session; its queries stay registered for re-attach).
* **Graceful shutdown = durable shutdown** — :meth:`MonitorServer.stop`
  stops accepting, drains the ingest queue, delivers outstanding acks and
  notifications, pushes a ``shutdown`` frame to every subscriber, and —
  when the monitor is durable — takes a final checkpoint before closing
  it.  A server restarted on the same directory resumes with replay-exact
  engine state, a continuing stream clock, and no reissued query ids;
  clients re-attach their subscriptions by id.

Typical usage::

    monitor = DurableMonitor.open(durability, MonitorConfig(algorithm="mrio"))
    server = MonitorServer(monitor, ServiceConfig(port=7171))
    await server.start()
    ...
    await server.stop()        # drains, checkpoints, closes the monitor
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.documents.document import Document
from repro.exceptions import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServiceError,
    UnknownQueryError,
)
from repro.metrics.counters import ServiceCounters
from repro.obs.histogram import LatencyHistogram
from repro.obs.prometheus import render_prometheus
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.service import protocol
from repro.service.registry import SubscriptionRegistry

#: Slow-consumer policies (see the module docstring and docs/service.md).
POLICY_BLOCK = "block"
POLICY_DROP = "drop"
POLICY_DISCONNECT = "disconnect"
SLOW_CONSUMER_POLICIES = (POLICY_BLOCK, POLICY_DROP, POLICY_DISCONNECT)

_SERVER_NAME = "repro-monitor-server"

#: Ingest-queue sentinel: stop the pipeline after everything queued before it.
_STOP = object()
#: Notification-queue sentinel: flush what precedes it, then end the pump.
_CLOSE = object()


@dataclass
class ServiceConfig:
    """Knobs of the serving layer.

    Attributes
    ----------
    host, port:
        Listen address.  Port 0 (default) picks a free port; read it back
        from :attr:`MonitorServer.port` after :meth:`MonitorServer.start`.
    max_batch:
        Documents per ``process_batch`` call of the ingest pipeline.
        Publishes are coalesced up to this size; larger client batches are
        chunked to it.
    linger_yields:
        Event-loop yields the pipeline waits for more publishes to join a
        micro-batch before processing a short one.  0 processes whatever
        one queue read returned; small values (the default 2) let
        concurrently arriving publishes coalesce without adding latency
        when the server is idle.
    subscriber_queue:
        Per-subscriber notification queue capacity (the backpressure
        bound).
    slow_consumer_policy:
        What happens when a subscriber's queue is full: ``"block"``
        (default — backpressure the ingest pipeline), ``"drop"`` (evict
        the oldest queued notification, counted), or ``"disconnect"``
        (close the session; its queries remain registered).
    arrival_interval:
        Stream-time increment used to stamp published documents that carry
        no arrival time of their own.  The stamp clock starts at the
        monitor's :attr:`last_arrival`, so it resumes seamlessly across a
        restart.
    max_frame_bytes:
        Per-frame payload cap, both directions.
    max_pending_documents:
        Cap on documents queued for ingestion but not yet processed;
        publishes beyond it are refused (a firehose of pipelined publishes
        must not hold the whole backlog in memory).
    write_buffer_limit:
        Per-connection transport write-buffer high-water mark in bytes
        (``None`` keeps asyncio's default).  Together with
        ``send_buffer_bytes`` this bounds how much undelivered data a slow
        consumer can park outside its notification queue; tests use tiny
        limits to surface slow-consumer behaviour with small data volumes.
    send_buffer_bytes:
        Per-connection kernel ``SO_SNDBUF`` size (``None`` keeps the OS
        default).  The kernel send buffer is invisible queueing in front
        of a slow consumer — shrink it when the notification queue bound
        should be the bound that matters.
    checkpoint_on_shutdown:
        Take a final checkpoint in :meth:`MonitorServer.stop` when the
        monitor is durable.
    close_monitor:
        Close the monitor in :meth:`MonitorServer.stop` (the server owns
        its monitor by default; pass ``False`` to manage it yourself).
    shutdown_timeout:
        Seconds :meth:`MonitorServer.stop` waits for each draining step
        (ingest queue, outstanding acks, per-subscriber flush) before
        forcing it.
    telemetry:
        Record pipeline stage timers (publish receive, micro-batch
        enqueue, engine probe, notification write) into mergeable latency
        histograms, served by the ``metrics`` op.  Off by default: the
        disabled path is a single attribute read per stage — no clock
        calls, no allocation.
    metrics_port:
        When not ``None``, additionally serve Prometheus text exposition
        on ``GET /metrics`` at this port (0 picks a free one; read it back
        from :attr:`MonitorServer.metrics_port`).  Setting a port implies
        ``telemetry=True``.
    metrics_host:
        Listen address of the ``/metrics`` endpoint.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = 256
    linger_yields: int = 2
    subscriber_queue: int = 256
    slow_consumer_policy: str = POLICY_BLOCK
    arrival_interval: float = 1.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    max_pending_documents: int = 16384
    write_buffer_limit: Optional[int] = None
    send_buffer_bytes: Optional[int] = None
    checkpoint_on_shutdown: bool = True
    close_monitor: bool = True
    shutdown_timeout: float = 30.0
    telemetry: bool = False
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ConfigurationError(f"max_batch must be > 0, got {self.max_batch}")
        if self.linger_yields < 0:
            raise ConfigurationError(
                f"linger_yields must be >= 0, got {self.linger_yields}"
            )
        if self.subscriber_queue <= 0:
            raise ConfigurationError(
                f"subscriber_queue must be > 0, got {self.subscriber_queue}"
            )
        if self.slow_consumer_policy not in SLOW_CONSUMER_POLICIES:
            raise ConfigurationError(
                f"slow_consumer_policy must be one of {SLOW_CONSUMER_POLICIES}, "
                f"got {self.slow_consumer_policy!r}"
            )
        if self.arrival_interval <= 0:
            raise ConfigurationError(
                f"arrival_interval must be > 0, got {self.arrival_interval}"
            )
        if self.max_frame_bytes <= 0:
            raise ConfigurationError(
                f"max_frame_bytes must be > 0, got {self.max_frame_bytes}"
            )
        if self.max_pending_documents <= 0:
            raise ConfigurationError(
                f"max_pending_documents must be > 0, got {self.max_pending_documents}"
            )
        if self.write_buffer_limit is not None and self.write_buffer_limit < 0:
            raise ConfigurationError(
                f"write_buffer_limit must be >= 0 (or None), got {self.write_buffer_limit}"
            )
        if self.send_buffer_bytes is not None and self.send_buffer_bytes <= 0:
            raise ConfigurationError(
                f"send_buffer_bytes must be > 0 (or None), got {self.send_buffer_bytes}"
            )
        if self.shutdown_timeout <= 0:
            raise ConfigurationError(
                f"shutdown_timeout must be > 0, got {self.shutdown_timeout}"
            )
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ConfigurationError(
                f"metrics_port must be >= 0 (or None), got {self.metrics_port}"
            )


class _IngestItem:
    """One publish operation queued for the ingest pipeline."""

    __slots__ = ("documents", "future", "enqueued_at")

    def __init__(
        self,
        documents: List[Document],
        future: "asyncio.Future",
        enqueued_at: float = 0.0,
    ) -> None:
        self.documents = documents
        self.future = future
        #: ``perf_counter()`` at enqueue time (0.0 with telemetry off);
        #: anchors the ``service.batch_enqueue`` and
        #: ``service.publish_to_notify`` stage timers.
        self.enqueued_at = enqueued_at


class _Session:
    """One client connection: its writer lock, notification queue and pump."""

    def __init__(
        self,
        session_id: int,
        writer: asyncio.StreamWriter,
        queue_size: int,
        max_frame_bytes: int,
        counters: ServiceCounters,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        self.session_id = session_id
        self.writer = writer
        self.queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_size)
        self.max_frame_bytes = max_frame_bytes
        self.counters = counters
        self.telemetry = telemetry
        self.closed = False
        self.retired = False
        self.pump_task: Optional["asyncio.Task"] = None
        self.reply_tasks: List["asyncio.Task"] = []
        self._write_lock = asyncio.Lock()

    async def send(self, message: Dict[str, object]) -> None:
        """Write one frame under the session's write lock (may raise)."""
        async with self._write_lock:
            await protocol.write_frame(self.writer, message, self.max_frame_bytes)

    async def send_safe(self, message: Dict[str, object]) -> bool:
        """Best-effort send: ``False`` instead of raising on a dead peer."""
        if self.closed:
            return False
        try:
            await self.send(message)
            return True
        except (OSError, RuntimeError):
            return False

    def track_reply(self, task: "asyncio.Task") -> None:
        self.reply_tasks = [t for t in self.reply_tasks if not t.done()]
        self.reply_tasks.append(task)

    async def pump(self) -> None:
        """Drain the notification queue onto the socket, frame by frame."""
        while True:
            message = await self.queue.get()
            if message is _CLOSE:
                return
            started = perf_counter() if self.telemetry.enabled else 0.0
            try:
                await self.send(message)
            except (OSError, RuntimeError):
                # Dead peer: the read loop will notice and retire us; stop
                # pumping so the queue drains into the void via close().
                return
            if self.telemetry.enabled:
                self.telemetry.observe("service.notify_write", perf_counter() - started)
            self.counters.notifications_sent += 1

    def close(self) -> None:
        """Tear the session down (idempotent): pump, acks, queue, transport."""
        if self.closed:
            return
        self.closed = True
        if self.pump_task is not None:
            self.pump_task.cancel()
        for task in self.reply_tasks:
            if not task.done():
                task.cancel()
        # Free the queue so any producer blocked on put() resumes; the
        # drained messages go nowhere — the session is gone.
        while True:
            try:
                self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        try:
            self.writer.close()
        except (OSError, RuntimeError):  # pragma: no cover - platform quirks
            pass


class MonitorServer:
    """Serves a monitor's full lifecycle over asyncio sockets.

    Example::

        server = MonitorServer(ContinuousMonitor(config), ServiceConfig())
        await server.start()
        print("listening on", server.port)
        ...
        await server.stop()
    """

    def __init__(self, monitor, config: Optional[ServiceConfig] = None) -> None:
        self._monitor = monitor
        self._config = config or ServiceConfig()
        self._counters = ServiceCounters()
        # One recorder for the whole serving pipeline; the shared no-op
        # keeps every stage timer a single attribute read when disabled.
        if self._config.telemetry or self._config.metrics_port is not None:
            self._telemetry: Telemetry = Telemetry()
        else:
            self._telemetry = NULL_TELEMETRY
        self._registry: SubscriptionRegistry[_Session] = SubscriptionRegistry()
        self._sessions: Set[_Session] = set()
        self._server: Optional["asyncio.base_events.Server"] = None
        self._metrics_server: Optional["asyncio.base_events.Server"] = None
        self._loop_lag_task: Optional["asyncio.Task"] = None
        self._ingest_queue: Optional["asyncio.Queue"] = None
        self._ingest_task: Optional["asyncio.Task"] = None
        self._ingest_failure: Optional[BaseException] = None
        self._pending_documents = 0
        self._clock: Optional[float] = None
        self._batch_seq = 0
        self._next_session_id = 0
        self._stopping = False
        self._stopped = False
        self._ops = {
            protocol.OP_SUBSCRIBE: self._op_subscribe,
            protocol.OP_ATTACH: self._op_attach,
            protocol.OP_UNSUBSCRIBE: self._op_unsubscribe,
            protocol.OP_PUBLISH: self._op_publish,
            protocol.OP_PUBLISH_BATCH: self._op_publish_batch,
            protocol.OP_STATS: self._op_stats,
            protocol.OP_METRICS: self._op_metrics,
            protocol.OP_CHECKPOINT: self._op_checkpoint,
            protocol.OP_PING: self._op_ping,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listen socket and start the ingest pipeline."""
        if self._server is not None:
            raise ServiceError("server is already started")
        self._clock = getattr(self._monitor, "last_arrival", None)
        self._ingest_queue = asyncio.Queue()
        self._ingest_task = asyncio.create_task(self._ingest_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._config.host, port=self._config.port
        )
        if self._config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                host=self._config.metrics_host,
                port=self._config.metrics_port,
            )
        if self._telemetry.enabled:
            self._loop_lag_task = asyncio.create_task(self._loop_lag_probe())

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients connect to."""
        return (self._config.host, self.port)

    @property
    def monitor(self):
        """The served monitor (read-mostly escape hatch)."""
        return self._monitor

    async def stop(self, reason: str = "server shutting down") -> None:
        """Graceful shutdown: drain, notify, checkpoint, close (idempotent).

        In order: stop accepting connections, drain the ingest queue
        through the pipeline, deliver outstanding publish acks, flush each
        subscriber's notification queue followed by a ``shutdown`` push,
        close every session — and finally close the monitor, taking a last
        checkpoint when it is durable and ``checkpoint_on_shutdown`` is
        set.  Each draining step is bounded by ``shutdown_timeout``.
        """
        if self._stopped or self._stopping:
            return
        self._stopping = True
        timeout = self._config.shutdown_timeout
        if self._loop_lag_task is not None:
            self._loop_lag_task.cancel()
            self._loop_lag_task = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._ingest_task is not None:
            assert self._ingest_queue is not None
            self._ingest_queue.put_nowait(_STOP)
            try:
                await asyncio.wait_for(self._ingest_task, timeout)
            except asyncio.TimeoutError:  # pragma: no cover - pathological peer
                self._ingest_task.cancel()
        reply_tasks = [
            task
            for session in self._sessions
            for task in session.reply_tasks
            if not task.done()
        ]
        if reply_tasks:
            await asyncio.wait(reply_tasks, timeout=timeout)
        if self._sessions:
            # In parallel: one stuck subscriber must not serialize the
            # whole shutdown — the wall clock is bounded by the worst
            # session, not the sum.
            await asyncio.gather(
                *[
                    self._flush_and_close(session, reason)
                    for session in list(self._sessions)
                ]
            )
        self._sessions.clear()
        try:
            if self._config.close_monitor:
                self._close_monitor()
        finally:
            # Even a failed monitor close leaves the server fully stopped
            # (sessions closed, pipeline drained) — a retried stop() must
            # not re-run the teardown half-way.
            self._stopped = True

    def _close_monitor(self) -> None:
        close = getattr(self._monitor, "close", None)
        if close is None:
            return
        if self._is_durable():
            self._monitor.close(checkpoint=self._config.checkpoint_on_shutdown)
        else:
            close()

    def _is_durable(self) -> bool:
        return hasattr(self._monitor, "checkpoint")

    async def _flush_and_close(self, session: _Session, reason: str) -> None:
        """Flush a session's queued notifications, push ``shutdown``, close."""
        timeout = self._config.shutdown_timeout
        try:
            await asyncio.wait_for(
                session.queue.put(protocol.shutdown_push(reason)), timeout
            )
            await asyncio.wait_for(session.queue.put(_CLOSE), timeout)
            if session.pump_task is not None:
                await asyncio.wait_for(asyncio.shield(session.pump_task), timeout)
        except (asyncio.TimeoutError, OSError, RuntimeError):
            pass
        self._retire_session(session)

    async def __aenter__(self) -> "MonitorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            writer.close()
            return
        if self._config.write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(
                high=self._config.write_buffer_limit
            )
        if self._config.send_buffer_bytes is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_SNDBUF,
                    self._config.send_buffer_bytes,
                )
        self._next_session_id += 1
        session = _Session(
            self._next_session_id,
            writer,
            self._config.subscriber_queue,
            self._config.max_frame_bytes,
            self._counters,
            telemetry=self._telemetry,
        )
        self._sessions.add(session)
        self._counters.subscribers_connected += 1
        session.pump_task = asyncio.create_task(session.pump())
        try:
            await session.send(protocol.hello_push(_SERVER_NAME))
            while True:
                message = await protocol.read_frame(
                    reader, self._config.max_frame_bytes
                )
                if message is None:
                    break
                await self._dispatch(session, message)
        except (ProtocolError, OSError, RuntimeError):
            # A torn frame or a vanished peer: nothing sensible to answer.
            pass
        finally:
            self._retire_session(session)
            self._sessions.discard(session)

    def _retire_session(self, session: _Session) -> None:
        """Detach and close a session (idempotent; queries stay registered)."""
        if session.retired:
            return
        session.retired = True
        self._registry.release_session(session)
        self._counters.subscribers_disconnected += 1
        session.close()

    async def _dispatch(self, session: _Session, message: Dict[str, object]) -> None:
        if session.retired:
            # The session was force-closed (slow-consumer disconnect) while
            # this frame was already buffered.  No reply can be delivered
            # and an attach/subscribe would orphan the query on a dead
            # session, so drop the request entirely.
            return
        op = message.get("op")
        request_id = message.get("id")
        if not isinstance(op, str) or not isinstance(request_id, int):
            raise ProtocolError("request must carry a string 'op' and an integer 'id'")
        handler = self._ops.get(op)
        if handler is None:
            self._counters.request_errors += 1
            await session.send_safe(
                protocol.error_reply(request_id, f"unknown op {op!r}")
            )
            return
        telemetry = self._telemetry
        if not telemetry.enabled:
            try:
                await handler(session, request_id, message)
            except ReproError as exc:
                self._counters.request_errors += 1
                await session.send_safe(protocol.error_reply(request_id, exc))
            return
        # The publish-receive stage: decode, validate and hand off (the
        # deferred ack is its own stage, service.publish_to_notify).
        telemetry.incr(f"service.requests.{op}")
        started = perf_counter()
        try:
            await handler(session, request_id, message)
        except ReproError as exc:
            self._counters.request_errors += 1
            await session.send_safe(protocol.error_reply(request_id, exc))
        finally:
            telemetry.observe(f"service.op.{op}", perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    async def _op_subscribe(self, session, request_id: int, message) -> None:
        vector = protocol.decode_vector(message)
        k = message.get("k")
        if k is not None and not isinstance(k, int):
            raise ProtocolError("'k' must be an integer")
        user = message.get("user")
        if user is not None and not isinstance(user, str):
            raise ServiceError("'user' must be a string")
        query = self._monitor.register_vector(vector, k=k, user=user)
        self._registry.attach(query.query_id, session)
        self._counters.subscribes += 1
        await session.send_safe(
            protocol.ok_reply(request_id, query_id=query.query_id, k=query.k)
        )

    async def _op_attach(self, session, request_id: int, message) -> None:
        query_id = self._require_query_id(message)
        try:
            self._monitor.top_k(query_id)
        except UnknownQueryError:
            raise ServiceError(f"query {query_id} is not registered") from None
        self._registry.attach(query_id, session)
        self._counters.attaches += 1
        await session.send_safe(protocol.ok_reply(request_id, query_id=query_id))

    async def _op_unsubscribe(self, session, request_id: int, message) -> None:
        query_id = self._require_query_id(message)
        owner = self._registry.owner(query_id)
        if owner is not None and owner is not session:
            raise ServiceError(
                f"query {query_id} is attached to another subscriber"
            )
        self._monitor.unregister(query_id)
        self._registry.detach(query_id, session)
        self._counters.unsubscribes += 1
        await session.send_safe(protocol.ok_reply(request_id, query_id=query_id))

    @staticmethod
    def _require_query_id(message: Dict[str, object]) -> int:
        query_id = message.get("query_id")
        if not isinstance(query_id, int):
            raise ProtocolError("request must carry an integer 'query_id'")
        return query_id

    async def _op_publish(self, session, request_id: int, message) -> None:
        published = protocol.decode_published_document(message.get("doc") or {})
        self._enqueue_publish(session, request_id, [published], single=True)

    async def _op_publish_batch(self, session, request_id: int, message) -> None:
        encoded = message.get("docs")
        if not isinstance(encoded, list) or not encoded:
            raise ProtocolError("'docs' must be a non-empty array")
        published = [protocol.decode_published_document(doc) for doc in encoded]
        self._enqueue_publish(session, request_id, published, single=False)

    def _enqueue_publish(
        self, session, request_id: int, published, single: bool
    ) -> None:
        """Validate, queue for the pipeline, and schedule the deferred ack."""
        if self._stopping:
            raise ServiceError("server is stopping; publish refused")
        if self._ingest_failure is not None:
            raise ServiceError(
                f"ingestion pipeline failed: {self._ingest_failure}; "
                "the server must be restarted"
            )
        if (
            self._pending_documents + len(published)
            > self._config.max_pending_documents
        ):
            raise ServiceError(
                f"ingest backlog exceeds {self._config.max_pending_documents} "
                "documents; retry later"
            )
        # Document construction validates the vector (normalization,
        # positive weights) *before* anything reaches the pipeline.
        documents = [
            Document(
                doc_id=item.doc_id,
                vector=item.vector,
                arrival_time=item.arrival_time,
                text=item.text,
            )
            for item in published
        ]
        assert self._ingest_queue is not None, "server is not started"
        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self._pending_documents += len(documents)
        self._counters.publishes += 1
        enqueued_at = perf_counter() if self._telemetry.enabled else 0.0
        if self._telemetry.enabled:
            self._telemetry.set_gauge(
                "service.pending_documents", float(self._pending_documents)
            )
        self._ingest_queue.put_nowait(_IngestItem(documents, future, enqueued_at))
        # The ack is resolved by the pipeline after the documents' batches
        # are processed; replying from a separate task keeps this
        # connection's read loop free to submit further publishes — which
        # is exactly what the micro-batcher coalesces.
        session.track_reply(
            asyncio.create_task(
                self._publish_reply(session, request_id, future, single)
            )
        )

    async def _publish_reply(
        self, session, request_id: int, future: "asyncio.Future", single: bool
    ) -> None:
        try:
            arrivals, batches = await future
        except ReproError as exc:
            self._counters.request_errors += 1
            await session.send_safe(protocol.error_reply(request_id, exc))
            return
        if single:
            payload = {"arrival": arrivals[0], "batch": batches[0]}
        else:
            payload = {"arrivals": arrivals, "batches": batches}
        await session.send_safe(protocol.ok_reply(request_id, **payload))

    async def _op_stats(self, session, request_id: int, message) -> None:
        await session.send_safe(
            protocol.ok_reply(request_id, stats=self.stats_snapshot())
        )

    async def _op_metrics(self, session, request_id: int, message) -> None:
        await session.send_safe(
            protocol.ok_reply(request_id, metrics=self.metrics_snapshot())
        )

    async def _op_checkpoint(self, session, request_id: int, message) -> None:
        if not self._is_durable():
            raise ServiceError("monitor is not durable; checkpoint unavailable")
        lsn = self._monitor.checkpoint()
        await session.send_safe(protocol.ok_reply(request_id, lsn=lsn))

    async def _op_ping(self, session, request_id: int, message) -> None:
        await session.send_safe(protocol.ok_reply(request_id))

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``stats`` op payload (see docs/service.md for the contract)."""
        replication = getattr(self._monitor, "replication_summary", None)
        self._counters.adopt_replication(replication)
        snapshot: Dict[str, object] = {
            "protocol": protocol.PROTOCOL_VERSION,
            "server": _SERVER_NAME,
            "engine": self._monitor.statistics.snapshot(),
            "service": self._counters.snapshot(),
            "num_queries": self._monitor.num_queries,
            "attached_queries": len(self._registry),
            "subscribers": len(self._sessions),
            "batches": self._batch_seq,
            "clock": self._clock,
            "durable": self._is_durable(),
            "policy": self._config.slow_consumer_policy,
        }
        if replication is not None:
            snapshot["replication"] = replication
        return snapshot

    @property
    def counters(self) -> ServiceCounters:
        """The served-traffic counters (the ``service`` section of stats)."""
        return self._counters

    @property
    def telemetry(self) -> Telemetry:
        """The serving pipeline's lap recorder (the shared no-op when off)."""
        return self._telemetry

    def _merged_telemetry(self) -> Dict[str, object]:
        """Server-pipeline laps merged with the engine's own telemetry.

        Each scrape collects *full current snapshots* and merges them —
        the same fresh-collection discipline ``stats`` uses for counters —
        so the merged histograms are exactly the histograms of the
        combined sample streams, whatever executor hosts the shards.
        """
        merged = Telemetry.from_snapshot(self._telemetry.snapshot())
        engine_snapshot = getattr(self._monitor, "telemetry_snapshot", None)
        if engine_snapshot is not None:
            merged.merge_snapshot(engine_snapshot())
        return merged.snapshot()

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``metrics`` op payload (see docs/observability.md).

        ``telemetry`` is the mergeable wire form (histograms as sparse
        bucket counts, counters, gauges); ``summary`` pre-computes the
        publish→notify and per-op percentiles operators usually want.
        """
        self._counters.telemetry_scrapes += 1
        snapshot = self._merged_telemetry()
        summary: Dict[str, object] = {}
        histograms = snapshot.get("histograms")
        if isinstance(histograms, dict):
            for name, encoded in histograms.items():
                summary[name] = LatencyHistogram.from_snapshot(encoded).summary()
        return {
            "enabled": self._telemetry.enabled,
            "telemetry": snapshot,
            "service": self._counters.snapshot(),
            "summary": summary,
        }

    async def _loop_lag_probe(self, interval: float = 0.25) -> None:
        """Sample event-loop lag: how late a timed sleep actually fires.

        The overshoot of ``asyncio.sleep`` is the time ready callbacks
        (frame parsing, engine probes) held the loop — the service twin of
        a GC-pause gauge.
        """
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag = max(0.0, loop.time() - before - interval)
            self._telemetry.set_gauge("service.event_loop_lag", lag)
            self._telemetry.observe("service.event_loop_lag", lag)

    # ------------------------------------------------------------------ #
    # The /metrics exposition endpoint
    # ------------------------------------------------------------------ #

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound ``/metrics`` port (``None`` when not serving it)."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.sockets[0].getsockname()[1]

    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A deliberately minimal HTTP/1.0-style responder for scrapers.

        One request per connection: parse the request line, drain headers,
        answer ``GET /metrics`` with Prometheus text exposition, everything
        else with 404 — no keep-alive, no chunking, no dependencies.
        """
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            while True:
                header = await asyncio.wait_for(reader.readline(), timeout=10.0)
                if header in (b"", b"\r\n", b"\n"):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1].split("?", 1)[0] if len(parts) >= 2 else ""
            if len(parts) >= 2 and parts[0] == "GET" and path == "/metrics":
                self._counters.telemetry_scrapes += 1
                body = render_prometheus(
                    self._merged_telemetry(),
                    service_counters=self._counters.snapshot(),
                ).encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"not found\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, OSError, RuntimeError, ValueError):
            pass
        finally:
            try:
                writer.close()
            except (OSError, RuntimeError):  # pragma: no cover - platform quirks
                pass

    # ------------------------------------------------------------------ #
    # The ingest pipeline
    # ------------------------------------------------------------------ #

    async def _ingest_loop(self) -> None:
        """Drain the ingest queue into micro-batched ``process_batch`` calls."""
        queue = self._ingest_queue
        assert queue is not None
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _STOP:
                break
            pending = [item]
            total = len(item.documents)
            yields = 0
            # Coalesce: everything already queued joins immediately; a few
            # event-loop yields let in-flight publish handlers land too.
            while total < self._config.max_batch and yields <= self._config.linger_yields:
                if queue.empty():
                    yields += 1
                    if yields <= self._config.linger_yields:
                        await asyncio.sleep(0)
                    continue
                nxt = queue.get_nowait()
                if nxt is _STOP:
                    stopping = True
                    break
                pending.append(nxt)
                total += len(nxt.documents)
            await self._ingest(pending)

    async def _ingest(self, pending: List[_IngestItem]) -> None:
        """Stamp, batch, process and fan out one drained set of publishes."""
        if self._ingest_failure is not None:
            # The pipeline was poisoned by an earlier drain; items already
            # queued behind the failure must not be applied to an engine
            # whose state can no longer be trusted.
            for item in pending:
                self._pending_documents -= len(item.documents)
                item.future.set_exception(
                    ServiceError(
                        f"ingestion pipeline failed: {self._ingest_failure}; "
                        "the server must be restarted"
                    )
                )
            return
        telemetry = self._telemetry
        drain_started = perf_counter() if telemetry.enabled else 0.0
        accepted: List[Tuple[_IngestItem, List[Document]]] = []
        for item in pending:
            self._pending_documents -= len(item.documents)
            if telemetry.enabled and item.enqueued_at:
                # Queue-wait + micro-batch linger: enqueue to drain start.
                telemetry.observe(
                    "service.batch_enqueue", drain_started - item.enqueued_at
                )
            try:
                stamped = self._stamp(item.documents)
            except ReproError as exc:
                item.future.set_exception(exc)
                continue
            accepted.append((item, stamped))
        documents = [doc for _, stamped in accepted for doc in stamped]
        # Per-item document offsets into the concatenated drain, so acks
        # resolve as soon as an item's last document has been processed —
        # a later chunk's failure must not disown work already committed.
        offsets: List[int] = []
        total = 0
        for _, stamped in accepted:
            offsets.append(total)
            total += len(stamped)
        results: List[Tuple[float, int]] = []
        resolved = 0

        def resolve_ready() -> None:
            nonlocal resolved
            while resolved < len(accepted):
                item, stamped = accepted[resolved]
                end = offsets[resolved] + len(stamped)
                if len(results) < end:
                    return
                slice_ = results[offsets[resolved] : end]
                if telemetry.enabled and item.enqueued_at:
                    # End-to-end publish latency: enqueue to ack-ready,
                    # after the batch was processed and fanned out.
                    telemetry.observe(
                        "service.publish_to_notify",
                        perf_counter() - item.enqueued_at,
                    )
                item.future.set_result(
                    (
                        [arrival for arrival, _ in slice_],
                        [batch for _, batch in slice_],
                    )
                )
                resolved += 1

        try:
            for start in range(0, len(documents), self._config.max_batch):
                chunk = documents[start : start + self._config.max_batch]
                self._batch_seq += 1
                if telemetry.enabled:
                    probe_started = perf_counter()
                    updates = self._monitor.process_batch(chunk)
                    telemetry.observe(
                        "service.engine_probe", perf_counter() - probe_started
                    )
                else:
                    updates = self._monitor.process_batch(chunk)
                self._counters.batches_processed += 1
                self._counters.documents_ingested += len(chunk)
                for document in chunk:
                    results.append((document.arrival_time, self._batch_seq))
                await self._fan_out(self._batch_seq, updates)
                resolve_ready()
        except Exception as exc:
            # The engine (or its WAL) failed mid-drain: its state can no
            # longer be trusted to advance, so poison the pipeline.  Items
            # whose documents all committed in earlier chunks were already
            # acked above; the rest fail with an honest warning — their
            # documents may be partially applied (and, when durable,
            # partially journaled), so a blind retry can duplicate them.
            self._ingest_failure = exc
            for item, _ in accepted[resolved:]:
                if not item.future.done():
                    item.future.set_exception(
                        ServiceError(
                            f"ingestion failed mid-drain: {exc}; this "
                            "publish may be partially applied"
                        )
                    )

    def _stamp(self, documents: List[Document]) -> List[Document]:
        """Assign monotone arrival times; all-or-nothing per publish.

        Documents published without an arrival time advance the stream
        clock by ``arrival_interval``; explicit arrival times are accepted
        when they respect stream order.  A violation raises *before* the
        clock moves, so a rejected publish leaves no trace.
        """
        clock = self._clock
        stamped: List[Document] = []
        for document in documents:
            if document.arrival_time is None:
                arrival = (
                    0.0 if clock is None else clock
                ) + self._config.arrival_interval
                document = document.with_arrival_time(arrival)
            else:
                arrival = document.arrival_time
                if clock is not None and arrival < clock:
                    raise ServiceError(
                        f"document {document.doc_id} arrives at {arrival}, "
                        f"before the stream clock at {clock}"
                    )
            clock = arrival
            stamped.append(document)
        self._clock = clock
        return stamped

    async def _fan_out(self, batch_seq: int, updates) -> None:
        """Route one batch's coalesced updates to their subscribers."""
        policy = self._config.slow_consumer_policy
        for update in updates:
            session = self._registry.owner(update.query_id)
            if session is None or session.closed:
                continue
            message = protocol.update_push(batch_seq, update)
            if policy == POLICY_BLOCK:
                # Backpressure: the pipeline (and with it every publisher's
                # ack) waits for the slow consumer.  session.close() drains
                # the queue, so a dying session unblocks this put.
                await session.queue.put(message)
            elif policy == POLICY_DROP:
                if session.queue.full():
                    try:
                        session.queue.get_nowait()
                        self._counters.notifications_dropped += 1
                    except asyncio.QueueEmpty:  # pragma: no cover - pump raced
                        pass
                session.queue.put_nowait(message)
            else:  # POLICY_DISCONNECT
                if session.queue.full():
                    self._counters.slow_disconnects += 1
                    self._retire_session(session)
                    continue
                session.queue.put_nowait(message)
            self._counters.notifications_enqueued += 1
        if self._telemetry.enabled and updates:
            self._telemetry.set_gauge(
                "service.subscriber_queue_depth",
                float(
                    max(
                        (s.queue.qsize() for s in self._sessions if not s.closed),
                        default=0,
                    )
                ),
            )
