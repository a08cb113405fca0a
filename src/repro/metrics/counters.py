"""Work counters maintained by every stream-processing algorithm.

The paper's primary metric is the response time per stream event, but its
optimality claim (claim (i) of the abstract) is about the *number of queries
whose score is computed per event*.  The counters below track both, plus the
lower-level quantities (iterations, postings touched, bound evaluations)
that the ablation benchmarks report.

Counters are *mergeable*: a sharded runtime keeps one instance per engine
shard and aggregates them losslessly with :meth:`EventCounters.merge` (or
``+=``).  Every field is a pure per-instance sum, so merging shard counters
reconstructs exactly the totals a single engine would have counted — except
``documents``: every shard counts every event, so a facade aggregating
shards takes the stream's event count from any one shard instead of summing
it (see ``repro.runtime.sharded``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional


@dataclass
class EventCounters:
    """Cumulative work counters for one algorithm instance."""

    #: Stream events (document arrivals) processed.
    documents: int = 0
    #: Queries whose exact score was computed ("considered queries").
    full_evaluations: int = 0
    #: Pivot-search iterations executed (RIO/MRIO) or list scans (baselines).
    iterations: int = 0
    #: Posting entries touched while scanning or evaluating.
    postings_scanned: int = 0
    #: Upper-bound terms computed (global or zone maxima lookups).
    bound_computations: int = 0
    #: Result-heap insertions (a document entered some query's top-k).
    result_updates: int = 0
    #: Wall-clock seconds spent inside ``process_document``.
    elapsed_seconds: float = 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.documents = 0
        self.full_evaluations = 0
        self.iterations = 0
        self.postings_scanned = 0
        self.bound_computations = 0
        self.result_updates = 0
        self.elapsed_seconds = 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of the counters.

        This dict is a **wire format**: the service layer returns it
        verbatim as the ``engine`` section of the ``stats`` op, and the
        durability sidecar embeds it, so its key set is a compatibility
        contract — exactly the seven keys below, every value a plain
        ``int``/``float`` that survives a JSON round-trip, and
        :meth:`restore` inverts it.  Adding a field to the dataclass means
        adding its key here, in :meth:`restore`, and in the service
        protocol docs (``docs/service.md``); removing or renaming one is a
        breaking protocol change.  Covered by
        ``tests/test_metrics.py::TestEventCounters::test_snapshot_wire_format``.
        """
        return {
            "documents": self.documents,
            "full_evaluations": self.full_evaluations,
            "iterations": self.iterations,
            "postings_scanned": self.postings_scanned,
            "bound_computations": self.bound_computations,
            "result_updates": self.result_updates,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def per_document(self) -> Dict[str, float]:
        """Counters averaged per processed document."""
        divisor = max(self.documents, 1)
        return {
            name: value / divisor
            for name, value in self.snapshot().items()
            if name != "documents"
        }

    def merge(self, other: "EventCounters") -> "EventCounters":
        """Add ``other``'s counts into this instance; returns ``self``.

        Merging is lossless: every field is a plain sum, so folding the
        counters of independent engine shards yields exactly the totals of
        the work they performed (``documents`` excepted — see the module
        docstring).
        """
        self.documents += other.documents
        self.full_evaluations += other.full_evaluations
        self.iterations += other.iterations
        self.postings_scanned += other.postings_scanned
        self.bound_computations += other.bound_computations
        self.result_updates += other.result_updates
        self.elapsed_seconds += other.elapsed_seconds
        return self

    def __iadd__(self, other: "EventCounters") -> "EventCounters":
        """``counters += other`` is an alias of :meth:`merge`."""
        return self.merge(other)

    def restore(self, state: Dict[str, float]) -> None:
        """Overwrite every counter from a :meth:`snapshot` dict."""
        self.documents = int(state["documents"])
        self.full_evaluations = int(state["full_evaluations"])
        self.iterations = int(state["iterations"])
        self.postings_scanned = int(state["postings_scanned"])
        self.bound_computations = int(state["bound_computations"])
        self.result_updates = int(state["result_updates"])
        self.elapsed_seconds = float(state["elapsed_seconds"])

    @classmethod
    def aggregate(cls, parts: Iterable["EventCounters"]) -> "EventCounters":
        """A fresh instance holding the sum of ``parts``."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total


@dataclass
class ServiceCounters:
    """Served-traffic counters maintained by the pub/sub serving layer.

    One instance per :class:`~repro.service.server.MonitorServer`; exposed
    verbatim as the ``service`` section of the ``stats`` op (the same
    wire-format contract as :meth:`EventCounters.snapshot`).  The engine's
    own work counters live in :class:`EventCounters`; these count the
    traffic *around* the engine: connections, operations, ingestion batches
    and the notification fan-out (including what the slow-consumer policy
    dropped or disconnected — see ``docs/service.md``).
    """

    #: Client connections accepted / closed (for any reason).
    subscribers_connected: int = 0
    subscribers_disconnected: int = 0
    #: Query-lifecycle operations served.
    subscribes: int = 0
    attaches: int = 0
    unsubscribes: int = 0
    #: ``publish`` + ``publish_batch`` operations accepted.
    publishes: int = 0
    #: Documents ingested into the engine through the service.
    documents_ingested: int = 0
    #: ``process_batch`` calls the micro-batcher issued.
    batches_processed: int = 0
    #: Notifications put on some subscriber's queue.
    notifications_enqueued: int = 0
    #: Notifications actually written to a socket.
    notifications_sent: int = 0
    #: Notifications evicted by the ``drop`` slow-consumer policy.
    notifications_dropped: int = 0
    #: Sessions force-closed by the ``disconnect`` slow-consumer policy.
    slow_disconnects: int = 0
    #: Requests answered with an error reply.
    request_errors: int = 0
    #: ``metrics`` op calls plus ``GET /metrics`` exposition scrapes served.
    telemetry_scrapes: int = 0
    #: Standby promotions performed by a remote (cluster) executor.
    failovers: int = 0
    #: Worst per-shard journaled-minus-replicated LSN gap (cluster only).
    replication_lag_records: int = 0
    #: Per-shard replicated (standby-acked) LSN.  Keys are shard ids as
    #: strings so the snapshot survives a JSON round-trip unchanged.
    replica_applied_lsns: Dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter."""
        for name, value in self.snapshot().items():
            setattr(self, name, {} if isinstance(value, dict) else 0)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy (the ``service`` section of the ``stats`` op)."""
        return {
            "subscribers_connected": self.subscribers_connected,
            "subscribers_disconnected": self.subscribers_disconnected,
            "subscribes": self.subscribes,
            "attaches": self.attaches,
            "unsubscribes": self.unsubscribes,
            "publishes": self.publishes,
            "documents_ingested": self.documents_ingested,
            "batches_processed": self.batches_processed,
            "notifications_enqueued": self.notifications_enqueued,
            "notifications_sent": self.notifications_sent,
            "notifications_dropped": self.notifications_dropped,
            "slow_disconnects": self.slow_disconnects,
            "request_errors": self.request_errors,
            "telemetry_scrapes": self.telemetry_scrapes,
            "failovers": self.failovers,
            "replication_lag_records": self.replication_lag_records,
            "replica_applied_lsns": dict(self.replica_applied_lsns),
        }

    def adopt_replication(self, summary: Optional[Dict[str, object]]) -> None:
        """Overwrite the cluster fields from a replication summary.

        ``summary`` is the dict a remote executor's ``replication_summary``
        property reports (``None`` — any non-cluster monitor — leaves the
        fields at their zero state); the lag reported is the worst shard's.
        """
        if not summary:
            return
        self.failovers = int(summary.get("failovers", 0))  # type: ignore[arg-type]
        lags: Dict[object, int] = summary.get("replication_lag_records") or {}  # type: ignore[assignment]
        self.replication_lag_records = max(lags.values(), default=0)
        applied: Dict[object, int] = summary.get("applied_lsn") or {}  # type: ignore[assignment]
        self.replica_applied_lsns = {
            str(shard_id): int(lsn) for shard_id, lsn in applied.items()
        }
