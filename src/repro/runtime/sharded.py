"""The sharded monitoring facade: N engine shards behind one monitor API.

:class:`ShardedMonitor` is drop-in API-compatible with
:class:`~repro.core.monitor.ContinuousMonitor`: registration, per-event and
batched processing, top-k lookups and statistics all behave the same — but
behind the facade the registered queries are partitioned by a
:class:`~repro.runtime.routing.QueryRouter` across independent
:class:`~repro.core.monitor.ContinuousMonitor` hosts — a shard *is* a
monitor, with a ``shard_id`` — and every stream event fans out to all shards
through a pluggable
:class:`~repro.runtime.executors.ShardExecutor`.  The topology — shard count
and partition policy — is fixed for the monitor's life.

Merge semantics
---------------

Each query lives in exactly one shard, so merging is concatenation, not
reconciliation:

* per-event and batched updates are merged across shards and ordered by
  query id (stable, so each query's update sequence is preserved) — one
  deterministic order regardless of the executor;
* per-shard :class:`~repro.metrics.counters.EventCounters` merge losslessly
  (every field is a sum over disjoint work), except ``documents``, which
  every shard counts per event it sees; the facade reports the stream's
  true event count, tracked at the routing layer.

Because scoring, decay and expiration are per-query (or pure functions of
the arrival sequence), a query's results, scores and thresholds are
bit-for-bit identical to a single :class:`ContinuousMonitor` hosting the
full query set — property-tested in ``tests/test_runtime_sharded.py``.

Typical usage::

    monitor = ShardedMonitor(MonitorConfig(algorithm="mrio"), n_shards=4,
                             policy="affinity", executor="processes")
    monitor.register_queries(queries)
    for batch in BatchingStream(stream, max_batch=256):
        for update in monitor.process_batch(batch):
            notify_user(update.query_id, update.entries)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor, MonitorSurface
from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate
from repro.exceptions import ConfigurationError
from repro.metrics.counters import EventCounters
from repro.obs.telemetry import Telemetry
from repro.queries.query import Query
from repro.runtime.executors import ShardExecutor, make_executor
from repro.runtime.routing import PartitionPolicy, QueryRouter, make_policy
from repro.text.vectorizer import Vectorizer
from repro.types import QueryId


class ShardedMonitor(MonitorSurface):
    """Hosts continuous top-k queries on parallel engine shards.

    Example::

        monitor = ShardedMonitor(n_shards=4, executor="processes")
        query = monitor.register_vector({7: 0.8, 9: 0.6}, k=10)
        monitor.process_batch(batch)
        entries = monitor.top_k(query.query_id)
    """

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        n_shards: int = 2,
        policy: Union[str, PartitionPolicy] = "hash",
        executor: Union[str, ShardExecutor] = "serial",
        vectorizer: Optional[Vectorizer] = None,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self.config = config or MonitorConfig()
        self.vectorizer = vectorizer
        self._executor = make_executor(executor, n_shards)
        self._shards = self._spawn_shards(n_shards)
        self._router = QueryRouter(n_shards, make_policy(policy))
        #: Stream events processed, tracked here because every shard counts
        #: each event once (see the counters module docstring).
        self._documents_processed = 0

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def _spawn_shards(self, n_shards: int):
        """Build the shard set the configured executor implies.

        In-process executors run tasks against local
        :class:`ContinuousMonitor` hosts; a shard-resident executor
        (``"processes"``) owns the hosts inside its workers and vends
        handles that mirror their surface — everything downstream drives
        either through identical calls.
        """
        if self._executor.shard_resident:
            # A pre-built executor instance carries its own worker count;
            # it must agree with the requested topology or the router and
            # the shard list would disagree about who owns which query.
            executor_shards = self._executor.n_shards  # type: ignore[attr-defined]
            if executor_shards != n_shards:
                raise ConfigurationError(
                    f"shard-resident executor is sized for {executor_shards} "
                    f"shard(s) but the monitor requested n_shards={n_shards}"
                )
            return self._executor.spawn_shards(self.config)  # type: ignore[attr-defined]
        shards = [ContinuousMonitor(self.config) for _ in range(n_shards)]
        for shard_id, shard in enumerate(shards):
            shard.shard_id = shard_id
        return shards

    def _run_on_shards(self, method: str, *args):
        """Fan ``method(*args)`` out to every shard through the executor."""
        return self._executor.run_shards(self._shards, method, args)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[ContinuousMonitor]:
        """The engine shards (read-only view; do not mutate them directly)."""
        return list(self._shards)

    @property
    def router(self) -> QueryRouter:
        return self._router

    @property
    def executor(self) -> ShardExecutor:
        """The shard executor driving the fan-out (read-only view)."""
        return self._executor

    def close(self) -> None:
        """Release executor workers (a no-op for the serial executor)."""
        self._executor.close()

    # ------------------------------------------------------------------ #
    # Query registration (ContinuousMonitor-compatible)
    # ------------------------------------------------------------------ #

    def register_query(self, query: Query) -> Query:
        """Register a fully formed :class:`Query` (caller-assigned id)."""
        shard = self._router.route(query)
        self._shards[shard].register_query(query)
        self._next_query_id = max(self._next_query_id, query.query_id + 1)
        return query

    def unregister(self, query_id: QueryId) -> Query:
        """Remove a continuous query from its shard."""
        shard = self._router.shard_of(query_id)
        query = self._shards[shard].unregister(query_id)
        self._router.release(query)
        return query

    @property
    def num_queries(self) -> int:
        return sum(shard.num_queries for shard in self._shards)

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #

    def process(self, document) -> List[ResultUpdate]:
        """Process one stream event on every shard; merged updates, by query id."""
        per_shard = self._run_on_shards("process", document)
        self._documents_processed += 1
        merged: List[ResultUpdate] = []
        for updates in per_shard:
            merged.extend(updates)
        merged.sort(key=lambda update: update.query_id)
        return merged

    def process_batch(self, documents: Sequence) -> List[BatchUpdate]:
        """Process an arrival-ordered batch on every shard in parallel.

        Returns the shards' coalesced :class:`BatchUpdate` lists merged and
        ordered by query id — at most one update per affected query, like
        the single monitor, in one deterministic order regardless of the
        executor.
        """
        docs = documents if isinstance(documents, list) else list(documents)
        per_shard = self._run_on_shards("process_batch", docs)
        self._documents_processed += len(docs)
        merged: List[BatchUpdate] = []
        for updates in per_shard:
            merged.extend(updates)
        merged.sort(key=lambda update: update.query_id)
        return merged

    def renormalize(self, new_origin: float) -> float:
        """Rebase every shard's decay origin; returns the common factor.

        All shards share one decay origin (renormalization is a pure
        function of the arrival sequence), so the rebase fans out to every
        shard and each computes the same factor.
        """
        factor = 1.0
        for shard in self._shards:
            factor = shard.renormalize(new_origin)
        return factor

    # ------------------------------------------------------------------ #
    # Results and diagnostics
    # ------------------------------------------------------------------ #

    def top_k(self, query_id: QueryId) -> List[ResultEntry]:
        """The current top-k of a query, best first."""
        return self._shards[self._router.shard_of(query_id)].top_k(query_id)

    def threshold(self, query_id: QueryId) -> float:
        return self._shards[self._router.shard_of(query_id)].threshold(query_id)

    def all_results(self) -> Dict[QueryId, List[ResultEntry]]:
        """A snapshot of every query's current result, across all shards."""
        results: Dict[QueryId, List[ResultEntry]] = {}
        for shard in self._shards:
            # One bulk call per shard — a single pipe round trip when the
            # shard lives in a worker process.
            results.update(shard.all_results())
        return results

    @property
    def statistics(self) -> EventCounters:
        """Lossless merge of per-shard counters, as one coherent view.

        Work counters sum across shards (disjoint work).  ``documents`` is
        the stream's true event count — summing it across shards would
        multiply it by the shard count, the one counter that is global to
        the monitor rather than per-partition.
        """
        merged = EventCounters.aggregate(shard.statistics for shard in self._shards)
        merged.documents = self._documents_processed
        return merged

    def telemetry_snapshot(self) -> Dict[str, object]:
        """Lossless merge of every shard's telemetry (plus runtime gauges).

        Histograms merge by exact bucket-count addition — the merged
        ``engine.*`` histograms are *the* histograms of the combined
        per-shard sample streams, the same contract
        :attr:`statistics` gives for scalar counters.  For process- or
        socket-resident shards the per-shard snapshot is one ``telemetry``
        command round trip.
        """
        merged = Telemetry()
        for shard in self._shards:
            merged.merge_snapshot(shard.telemetry_snapshot())
        if "registered_queries" in merged.gauges:
            # Gauges merge by maximum (the right envelope for backlogs and
            # high-water marks), but registered_queries is additive across a
            # partition: overwrite the max-of-shards with the fleet total.
            merged.set_gauge("registered_queries", float(self.num_queries))
        gauges = getattr(self._executor, "telemetry_gauges", None)
        if gauges is not None:
            for name, value in gauges().items():
                merged.set_gauge(name, value)
        return merged.snapshot()

    def reset_statistics(self) -> None:
        """Zero all counters and telemetry (e.g. after a warm-up phase)."""
        for shard in self._shards:
            shard.reset_statistics()
        self._documents_processed = 0

    @property
    def live_window_size(self) -> Optional[int]:
        """Number of live documents when a window horizon is configured.

        Every shard maintains an identical window (expiration is a pure
        function of the arrival sequence), so shard 0 answers for all.
        """
        return self._shards[0].live_window_size

    @property
    def last_arrival(self) -> Optional[float]:
        """Arrival time of the most recent event (``None`` before the first).

        Every shard sees every event, so shard 0's stream clock answers for
        the whole monitor.
        """
        return self._shards[0].last_arrival

    def describe(self) -> Dict[str, object]:
        return {
            "runtime": "sharded",
            "algorithm": self.config.algorithm,
            "n_shards": self.n_shards,
            "policy": self._router.policy.name,
            "executor": self._executor.name,
            # Which batch transport the executor settled on ("shm"/"pipe"
            # for the process executor, "socket" for the remote executor,
            # None for in-process executors).
            "transport": getattr(self._executor, "transport_active", None),
            "num_queries": self.num_queries,
            "shard_loads": self._router.loads(),
            "documents_processed": self._documents_processed,
            "window_horizon": self.config.window_horizon,
            # Cluster facts (None unless the executor replicates shards).
            "replication": self.replication_summary,
        }

    @property
    def replication_summary(self):
        """The remote executor's replication facts (``None`` otherwise)."""
        return getattr(self._executor, "replication_summary", None)

    def replication_health(self) -> Dict[int, Dict[str, object]]:
        """Live per-partition replication status (cluster executors only)."""
        health = getattr(self._executor, "replication_health", None)
        if health is None:
            raise ConfigurationError(
                f"executor {self._executor.name!r} does not replicate shards"
            )
        return health()

    def check_health(self) -> Dict[int, bool]:
        """Heartbeat every shard host (cluster executors only)."""
        check = getattr(self._executor, "check_health", None)
        if check is None:
            raise ConfigurationError(
                f"executor {self._executor.name!r} has no health checks"
            )
        return check()

    # ------------------------------------------------------------------ #
    # Crash-recovery adoption
    # ------------------------------------------------------------------ #

    def facade_state(self) -> Dict[str, object]:
        """The facade-level fact a durable sidecar records: the stream's
        true event count (per-shard counters live in the engines and are
        restored with them).
        """
        return {"documents_processed": self._documents_processed}

    def adopt_facade_state(self, state: Dict[str, object], replayed_documents: int) -> None:
        """Reinstate :meth:`facade_state` around freshly recovered shards.

        Crash recovery restores each shard from its own checkpoint + WAL
        and then calls this: the event count rolls forward by the replayed
        events, and the router is rebuilt from the shards' current query
        sets.  The policy adopts each resident query, so stateful policies
        (term affinity) accumulate exactly the placement state the original
        registration sequence built — placement state is a per-shard sum,
        independent of adoption order.
        """
        documents = int(state["documents_processed"])  # type: ignore[call-overload]
        self._documents_processed = documents + replayed_documents
        self._router = QueryRouter(self.n_shards, self._router.policy)
        for shard_id, shard in enumerate(self._shards):
            # Bind the dict once: for a process-resident shard the property
            # is a pipe round trip shipping the whole query set.
            queries = shard.queries
            for query_id in sorted(queries):
                self._router.adopt(queries[query_id], shard_id)
            self.ensure_next_query_id(max(queries, default=-1) + 1)
