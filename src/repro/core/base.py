"""Abstract base class shared by every stream-processing algorithm.

The base class owns what all algorithms (RIO, MRIO and the baselines) have in
common:

* the packed :class:`~repro.queries.store.QueryStore` of registered query
  definitions (shared by reference with the per-term index structures; the
  historical ``queries`` dict surface survives as a read-only facade),
* the per-query top-k store (:class:`~repro.core.results.ResultStore`'s
  heaps; the columnar engine swaps in the slot-addressed
  :class:`~repro.core.results.ResultArena`),
* the exponential decay model and its renormalization,
* work counters (one cumulative processing timer, no per-event samples),
* threshold-change propagation to whatever per-term structures a concrete
  algorithm maintains.
"""

from __future__ import annotations

import abc
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.results import (
    BatchUpdate,
    ResultEntry,
    ResultStore,
    ResultUpdate,
    coalesce_updates,
)
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.exceptions import StreamError, UnknownQueryError
from repro.metrics.counters import EventCounters
from repro.obs.telemetry import NULL_TELEMETRY
from repro.queries.query import Query
from repro.queries.store import QueryStore, RegisteredQueries
from repro.types import DocId, QueryId


class StreamAlgorithm(abc.ABC):
    """A continuous top-k monitoring algorithm over a document stream.

    Documents can be ingested one event at a time (:meth:`process`) or in
    arrival-ordered batches (:meth:`process_batch`), which amortizes the
    per-event fixed costs and coalesces the resulting notifications.

    Example::

        algorithm = create_algorithm("mrio", ExponentialDecay(lam=1e-3))
        algorithm.register(Query(query_id=0, vector={7: 1.0}, k=10))
        for batch in BatchingStream(stream, max_batch=64):
            for update in algorithm.process_batch(batch):
                print(update.query_id, update.entries)
    """

    #: Short name used by the factory, the reports and the benchmarks.
    name = "abstract"

    def __init__(self, decay: Optional[ExponentialDecay] = None) -> None:
        self.decay = decay or ExponentialDecay()
        #: Packed columnar store of every registered query definition — the
        #: single source of truth the index structures share by reference.
        self.store = QueryStore()
        self.results = ResultStore(store=self.store)
        self.counters = EventCounters()
        #: Read-only dict-like facade over :attr:`store` (``query id ->
        #: materialized Query``).  Lookups build transient ``Query`` objects;
        #: no per-query object is retained.
        self.queries: RegisteredQueries = RegisteredQueries(self.store)
        #: Lap recorder: the shared no-op unless an owner (monitor, shard)
        #: attaches a real :class:`~repro.obs.telemetry.Telemetry` — the
        #: per-event cost when disabled is one attribute read.
        self.telemetry = NULL_TELEMETRY
        self._last_arrival: Optional[float] = None
        #: Non-None while a batch is being processed: query ids whose
        #: threshold changed and whose structure refresh is deferred to the
        #: batch boundary (safe: thresholds only grow during stream
        #: processing, so a stale bound stays an upper bound).
        self._deferred_threshold_queries: Optional[set] = None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register(self, query: Query) -> None:
        """Register one continuous query.

        The definition is packed into :attr:`store`; the ``Query`` object
        itself is not retained.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            self.store.register(query)
            self.results.add_query(query)
            self._register_structures(query)
            return
        started = time.perf_counter()
        self.store.register(query)
        self.results.add_query(query)
        self._register_structures(query)
        telemetry.observe("query.register", time.perf_counter() - started)
        telemetry.incr("churn_ops")
        telemetry.set_gauge("registered_queries", float(len(self.store)))

    def register_all(self, queries: Iterable[Query]) -> None:
        for query in queries:
            self.register(query)

    def unregister(self, query_id: QueryId) -> Query:
        """Remove one continuous query and its result state."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        query = self.store.materialize_or_none(query_id)
        if query is None:
            raise UnknownQueryError(f"query {query_id} is not registered")
        self._unregister_structures(query)
        # Results first: the arena clears the row of a still-registered slot.
        self.results.remove_query(query_id)
        self.store.unregister(query_id)
        if telemetry.enabled:
            telemetry.observe("query.unregister", time.perf_counter() - started)
            telemetry.incr("churn_ops")
            telemetry.set_gauge("registered_queries", float(len(self.store)))
        return query

    @property
    def num_queries(self) -> int:
        return len(self.store)

    @property
    def last_arrival(self) -> Optional[float]:
        """Arrival time of the most recently processed event (the stream
        clock), or ``None`` before the first event.  The serving layer uses
        this to stamp published documents with monotone arrival times that
        resume correctly after a snapshot restore or crash recovery."""
        return self._last_arrival

    # ------------------------------------------------------------------ #
    # Hooks concrete algorithms implement
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _register_structures(self, query: Query) -> None:
        """Add the query to the algorithm's per-term structures."""

    @abc.abstractmethod
    def _unregister_structures(self, query: Query) -> None:
        """Remove the query from the algorithm's per-term structures."""

    @abc.abstractmethod
    def _process_document(self, document: Document, amplification: float) -> List[ResultUpdate]:
        """Refresh all query results for one arriving document."""

    def _on_threshold_change(self, query: Query) -> None:
        """A query's ``S_k`` changed; update per-term structures if needed."""

    def _on_renormalize(self, factor: float) -> None:
        """All thresholds were divided by ``factor``; rescale structures."""

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #

    def _check_arrival(self, document: Document, previous: Optional[float]) -> float:
        """Validate a document's arrival time against the stream order."""
        if document.arrival_time is None:
            raise StreamError(
                f"document {document.doc_id} has no arrival time; route it "
                "through a DocumentStream or call with_arrival_time()"
            )
        if previous is not None and document.arrival_time < previous:
            raise StreamError(
                f"document {document.doc_id} arrives at {document.arrival_time}, "
                f"before the previous event at {previous}"
            )
        return document.arrival_time

    def process(self, document: Document) -> List[ResultUpdate]:
        """Process one stream event and return the result updates it caused."""
        self._last_arrival = self._check_arrival(document, self._last_arrival)
        if self.decay.needs_renormalization(document.arrival_time):
            self.renormalize(document.arrival_time)
        amplification = self.decay.amplification(document.arrival_time)

        started = time.perf_counter()
        updates = self._process_document(document, amplification)
        elapsed = time.perf_counter() - started

        self.counters.documents += 1
        self.counters.elapsed_seconds += elapsed
        if self.telemetry.enabled:
            self.telemetry.observe("engine.event", elapsed)
        return updates

    def process_batch(self, documents: Sequence[Document]) -> List[BatchUpdate]:
        """Process an arrival-ordered batch of stream events as one unit.

        The batch fast path amortizes everything :meth:`process` pays per
        event — the renormalization check (and the renormalization itself, at
        most once per batch) and the wall-clock probes — and concrete
        algorithms additionally reuse their traversal structures across the
        batch's documents.  The final top-k state is identical to feeding the
        same documents through :meth:`process` one by one; the return value
        is coalesced to at most one :class:`BatchUpdate` per affected query.
        """
        docs = documents if isinstance(documents, list) else list(documents)
        if not docs:
            return []
        previous = self._last_arrival
        for document in docs:
            previous = self._check_arrival(document, previous)
        self._last_arrival = previous

        # One renormalization covers the whole batch: rebasing to the *last*
        # arrival keeps every amplification of the batch at or below 1, so no
        # score produced here can exceed the safe range.
        if self.decay.needs_renormalization(docs[-1].arrival_time):
            self.renormalize(docs[-1].arrival_time)
        amplification_of = self.decay.amplification
        amplifications: List[float] = []
        cached_time: Optional[float] = None
        cached_amp = 1.0
        for document in docs:
            if document.arrival_time != cached_time:
                cached_time = document.arrival_time
                cached_amp = amplification_of(cached_time)
            amplifications.append(cached_amp)

        started = time.perf_counter()
        self._deferred_threshold_queries = dirty = set()
        try:
            updates = self._process_batch_documents(docs, amplifications)
        finally:
            self._deferred_threshold_queries = None
            for query_id in dirty:
                self.notify_threshold_change(query_id)
        elapsed = time.perf_counter() - started

        self.counters.documents += len(docs)
        self.counters.elapsed_seconds += elapsed
        if self.telemetry.enabled:
            self.telemetry.observe("engine.batch", elapsed)
        return updates

    def _process_batch_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[BatchUpdate]:
        """Refresh all query results for one batch of documents and return
        the net change per query.

        The default coalesces the sequential offers of
        :meth:`_scan_documents`; the columnar engine overrides it with the
        result arena, which computes the net changes directly.
        """
        return coalesce_updates(self._scan_documents(documents, amplifications))

    def _scan_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[ResultUpdate]:
        """Every accepted offer of one batch, in order.

        The default simply loops :meth:`_process_document`; algorithms with
        reusable traversal state override this with a true batched walk.
        """
        updates: List[ResultUpdate] = []
        process_document = self._process_document
        for document, amplification in zip(documents, amplifications):
            updates.extend(process_document(document, amplification))
        return updates

    # ------------------------------------------------------------------ #
    # Scoring helpers shared by the implementations
    # ------------------------------------------------------------------ #

    def exact_score(self, query: Query, document: Document, amplification: float) -> float:
        """The amplified score ``S(q, d)`` computed from the raw vectors."""
        qv = query.vector
        dv = document.vector
        if len(qv) > len(dv):
            qv, dv = dv, qv
        similarity = 0.0
        for term_id, weight in qv.items():
            other = dv.get(term_id)
            if other is not None:
                similarity += weight * other
        return similarity * amplification

    def offer(self, query_id: QueryId, doc_id: DocId, score: float) -> Optional[ResultUpdate]:
        """Offer a scored document to a query's result, propagating threshold changes.

        During a batch the propagation is *deferred*: the query is only
        marked dirty and every per-term structure refresh happens once at the
        batch boundary, no matter how many of the batch's documents entered
        the result.  Pruning stays safe because a threshold can only increase
        here, which makes any stale stored bound an over-estimate.
        """
        result = self.results.get(query_id)
        accepted, evicted, threshold_changed = result.offer_tracked(doc_id, score)
        if not accepted:
            return None
        self.counters.result_updates += 1
        if threshold_changed:
            deferred = self._deferred_threshold_queries
            if deferred is None:
                self.notify_threshold_change(query_id)
            else:
                deferred.add(query_id)
        return ResultUpdate(
            query_id=query_id, doc_id=doc_id, score=score, evicted_doc_id=evicted
        )

    # ------------------------------------------------------------------ #
    # Results, notifications, maintenance
    # ------------------------------------------------------------------ #

    def top_k(self, query_id: QueryId) -> List[ResultEntry]:
        """The current top-k of a query, best first."""
        return self.results.entries(query_id)

    def threshold(self, query_id: QueryId) -> float:
        return self.results.threshold(query_id)

    def renormalize(self, new_origin: float) -> float:
        """Rebase the decay origin; divides every stored score by the factor."""
        factor = self.decay.rebase(new_origin)
        if factor != 1.0:
            self.results.scale_all(factor)
            self.store.scale_thresholds(factor)
            self._on_renormalize(factor)
        return factor

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """Capture the full engine state: queries, results, decay, counters.

        A structural (in-memory) capture:
        :class:`~repro.queries.query.Query` objects are materialized from
        the packed store (so the capture stays valid however this engine
        mutates afterwards), everything else is copied.
        """
        state: Dict[str, object] = {
            "algorithm": self.name,
            "queries": list(self.queries.values()),
            "results": self.results.snapshot(),
            "decay": self.decay.snapshot(),
            "counters": self.counters.snapshot(),
            "last_arrival": self._last_arrival,
        }
        structures = self._snapshot_structures()
        if structures is not None:
            state["structures"] = structures
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Replace this engine's state with a :meth:`snapshot` capture.

        Re-registers the captured queries (rebuilding the per-term
        structures), restores each query's result heap, the decay origin,
        the counters and the stream clock, then lets the algorithm refresh
        whatever cached bounds depend on thresholds
        (:meth:`_restore_structures`).  The restored engine continues the
        stream exactly where the captured one stopped.
        """
        for query_id in list(self.queries):
            self.unregister(query_id)
        self.decay.restore(state["decay"])  # type: ignore[arg-type]
        for query in state["queries"]:  # type: ignore[union-attr]
            self.register(query)
        self.results.restore(state["results"])  # type: ignore[arg-type]
        self.counters.restore(state["counters"])  # type: ignore[arg-type]
        self.store.refresh_thresholds(self.results.threshold)
        self._last_arrival = state["last_arrival"]  # type: ignore[assignment]
        self._restore_structures(state.get("structures"))  # type: ignore[arg-type]

    def _snapshot_structures(self) -> Optional[Dict[str, object]]:
        """Capture algorithm-specific structure state, or None when the
        per-term structures are pure functions of queries + thresholds.

        Engines whose structures accumulate *history* — stale stored bounds,
        maintenance counters, persistent memo caches — override this so a
        restored engine performs exactly the work the captured one would
        have (work counters stay replay-exact across crash recovery).  The
        returned value must be plain JSON-able data (lists, dicts with
        string keys, numbers, booleans): the persistence codec embeds it in
        checkpoints verbatim.
        """
        return None

    @staticmethod
    def _pack_float(value: float) -> object:
        """JSON-safe float for structure captures: infinities become sentinels.

        Stored bounds are ``weight / S_k`` ratios, which are infinite while a
        result is not yet full; canonical JSON (rightly) refuses non-finite
        floats, so captures spell them out.
        """
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value

    @staticmethod
    def _unpack_float(value: object) -> float:
        if value == "inf":
            return math.inf
        if value == "-inf":
            return -math.inf
        return float(value)  # type: ignore[arg-type]

    def _restore_structures(self, structures: Optional[Dict[str, object]]) -> None:
        """Refresh threshold-dependent caches after a restore.

        ``structures`` is a :meth:`_snapshot_structures` capture when the
        restored state carried one (always, for an engine that captures
        structures).  The default ignores it and funnels every query through
        :meth:`_on_threshold_change` — correct for all algorithms whose
        caches key off ``S_k``; engines with wholesale invalidation or
        captured structure state override this.
        """
        for query in self.queries.values():
            self._on_threshold_change(query)

    def notify_threshold_change(self, query_id: QueryId) -> None:
        """A query's result heap moved its threshold: record it in the
        store's ``S_k`` column and refresh the per-term structures.

        The one place the scalar engines write that column — from
        :meth:`offer`, from the batch-boundary flush of deferred changes
        (engines that inline ``offer`` only mark the query dirty), and from
        the window-expiration manager, whose re-evaluation can lower a
        threshold, something normal stream processing never does.
        """
        query = self.store.materialize_or_none(query_id)
        if query is not None:
            self.store.set_threshold(query_id, self.results.threshold(query_id))
            self._on_threshold_change(query)

    def describe(self) -> Dict[str, object]:
        """A small diagnostic summary of the algorithm state."""
        return {
            "algorithm": self.name,
            "num_queries": self.num_queries,
            "documents_processed": self.counters.documents,
            "decay_lambda": self.decay.lam,
            "decay_origin": self.decay.origin,
        }
