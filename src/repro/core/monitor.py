"""The continuous-monitoring server facade.

:class:`ContinuousMonitor` is the public entry point most applications use:
it owns the processing algorithm (MRIO by default), the decay model, the
optional window-expiration manager and — when a vectorizer is supplied — the
text pipeline that turns user keywords and raw document text into normalized
vectors.  It is also the one engine host: every shard of a
:class:`~repro.runtime.sharded.ShardedMonitor` — in-process, in a worker
process, in a cluster host — is a :class:`ContinuousMonitor` with a
``shard_id``, driven through :data:`repro.runtime.protocol.COMMANDS`.

Typical usage::

    monitor = ContinuousMonitor(MonitorConfig(algorithm="mrio", lam=1e-3))
    query = monitor.register_vector({term_a: 0.8, term_b: 0.6}, k=10)
    for document in stream:
        updates = monitor.process(document)
        for update in updates:
            notify_user(update.query_id, update.doc_id)

High-throughput ingestion goes through the batch fast path instead::

    for batch in BatchingStream(stream, max_batch=64):
        for update in monitor.process_batch(batch):
            notify_user(update.query_id, update.entries)
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.base import StreamAlgorithm
from repro.core.config import MonitorConfig
from repro.core.expiration import ExpirationManager
from repro.core.factory import create_algorithm
from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.exceptions import ConfigurationError
from repro.metrics.counters import EventCounters
from repro.obs.telemetry import Telemetry
from repro.queries.query import Query
from repro.text.similarity import l2_normalize
from repro.text.vectorizer import Vectorizer
from repro.types import QueryId, SparseVector


class MonitorSurface:
    """The convenience surface of every monitor flavour, written once over
    the primitives each one implements: ``register_query``, ``process``,
    ``process_batch``, ``close``, and the ``config``/``vectorizer``
    attributes.  Shared with the sharded and the durable monitor."""

    _next_query_id = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()  # type: ignore[attr-defined]

    def _take_query_id(self) -> QueryId:
        query_id = self._next_query_id
        self._next_query_id += 1
        return query_id

    @property
    def next_query_id(self) -> int:
        """The id the next ``register_vector``/``register_keywords`` will use."""
        return self._next_query_id

    def ensure_next_query_id(self, minimum: int) -> None:
        """Never auto-assign a query id below ``minimum``.

        Recovery uses this so ids of queries that were registered and later
        unregistered are not reissued after a restart.
        """
        self._next_query_id = max(self._next_query_id, minimum)

    def register_queries(self, queries: Iterable[Query]) -> List[Query]:
        return [self.register_query(query) for query in queries]  # type: ignore[attr-defined]

    def register_vector(
        self, vector: SparseVector, k: Optional[int] = None, user: Optional[str] = None
    ) -> Query:
        """Register a query from a (possibly unnormalized) sparse vector."""
        query = Query(
            query_id=self._take_query_id(),
            vector=l2_normalize(vector),
            k=self.config.default_k if k is None else k,  # type: ignore[attr-defined]
            user=user,
        )
        return self.register_query(query)  # type: ignore[attr-defined]

    def register_keywords(
        self,
        keywords: Iterable[str],
        k: Optional[int] = None,
        user: Optional[str] = None,
    ) -> Query:
        """Register a query from raw keywords (requires a vectorizer)."""
        if self.vectorizer is None:  # type: ignore[attr-defined]
            raise ConfigurationError(
                "register_keywords requires a Vectorizer; pass one to the monitor"
            )
        vector = self.vectorizer.vectorize_keywords(keywords)
        if not vector:
            raise ConfigurationError(
                "the supplied keywords produced an empty vector (all stopwords "
                "or unknown terms)"
            )
        return self.register_vector(vector, k=k, user=user)

    def process_text(self, doc_id: int, text: str, arrival_time: float) -> List[ResultUpdate]:
        """Vectorize raw text and process it (requires a vectorizer)."""
        if self.vectorizer is None:  # type: ignore[attr-defined]
            raise ConfigurationError(
                "process_text requires a Vectorizer; pass one to the monitor"
            )
        vector = self.vectorizer.vectorize_text(text)
        if not vector:
            return []
        document = Document(
            doc_id=doc_id, vector=vector, arrival_time=arrival_time, text=text
        )
        return self.process(document)  # type: ignore[attr-defined]

    def process_stream(
        self, documents: Iterable[Document], limit: Optional[int] = None
    ) -> List[ResultUpdate]:
        """Process a sequence (or a bounded prefix) of stream documents
        through the per-event path."""
        updates: List[ResultUpdate] = []
        for document in islice(documents, limit):
            updates.extend(self.process(document))  # type: ignore[attr-defined]
        return updates

    def process_batches(
        self, batches: Iterable[Sequence[Document]]
    ) -> List[BatchUpdate]:
        """Drain an iterable of batches (e.g. a
        :class:`~repro.documents.stream.BatchingStream`) through
        ``process_batch``."""
        updates: List[BatchUpdate] = []
        for batch in batches:
            updates.extend(self.process_batch(batch))  # type: ignore[attr-defined]
        return updates


class ContinuousMonitor(MonitorSurface):
    """Hosts continuous top-k queries and refreshes them on every stream event.

    Example::

        monitor = ContinuousMonitor(MonitorConfig(algorithm="mrio"))
        query = monitor.register_vector({7: 0.8, 9: 0.6}, k=10)
        monitor.process(document)                  # per-event ingestion
        monitor.process_batch(batch)               # batched fast path
        entries = monitor.top_k(query.query_id)    # best first
    """

    #: Position in a sharded monitor's shard list (``None`` = not a shard).
    shard_id: Optional[int] = None

    def __init__(
        self,
        config: Optional[MonitorConfig] = None,
        algorithm: Optional[StreamAlgorithm] = None,
        vectorizer: Optional[Vectorizer] = None,
    ) -> None:
        self.config = config or MonitorConfig()
        if algorithm is not None:
            self.algorithm = algorithm
        else:
            decay = ExponentialDecay(
                lam=self.config.lam, max_amplification=self.config.max_amplification
            )
            kwargs: Dict[str, object] = {}
            if self.config.algorithm.lower() == "mrio":
                kwargs["ub_variant"] = self.config.ub_variant
            self.algorithm = create_algorithm(self.config.algorithm, decay, **kwargs)
        if self.config.telemetry and not self.algorithm.telemetry.enabled:
            self.algorithm.telemetry = Telemetry()
        self.vectorizer = vectorizer
        self._expiration: Optional[ExpirationManager] = None
        if self.config.window_horizon is not None:
            self._expiration = ExpirationManager(self.algorithm, self.config.window_horizon)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """A no-op, deliberately: the in-memory engine holds no external
        resources.  It exists so that every monitor flavour
        (:class:`ContinuousMonitor`, :class:`~repro.runtime.sharded.ShardedMonitor`,
        :class:`~repro.persistence.durable.DurableMonitor`) can be managed
        uniformly, e.g. by the serving layer or a ``with`` block.  Reads
        and writes keep working after ``close()``."""

    # ------------------------------------------------------------------ #
    # Query registration
    # ------------------------------------------------------------------ #

    def register_query(self, query: Query) -> Query:
        """Register a fully formed :class:`Query` (caller-assigned id)."""
        self.algorithm.register(query)
        self._next_query_id = max(self._next_query_id, query.query_id + 1)
        return query

    def unregister(self, query_id: QueryId) -> Query:
        """Remove a continuous query from the monitor."""
        return self.algorithm.unregister(query_id)

    @property
    def queries(self) -> Dict[QueryId, Query]:
        return self.algorithm.queries

    @property
    def num_queries(self) -> int:
        return self.algorithm.num_queries

    # ------------------------------------------------------------------ #
    # Stream processing
    # ------------------------------------------------------------------ #

    def process(self, document: Document) -> List[ResultUpdate]:
        """Process one stream event; returns the result updates it caused."""
        updates = self.algorithm.process(document)
        if self._expiration is not None:
            self._expiration.on_updates(updates)
            self._expiration.observe(document)
            assert document.arrival_time is not None
            self._expiration.expire(document.arrival_time)
        return updates

    def process_batch(self, documents: Sequence[Document]) -> List[BatchUpdate]:
        """Process an arrival-ordered batch of documents as one unit.

        This is the high-throughput ingestion path: decay renormalization and
        timing run once per batch, the algorithm reuses its traversal
        structures across the batch's documents, and the returned updates are
        coalesced to at most one :class:`BatchUpdate` per affected query.
        Window expiration (when configured) runs once at the batch boundary;
        because expiration re-evaluates affected queries over the live
        window, the final top-k state matches per-event processing.
        """
        docs = documents if isinstance(documents, list) else list(documents)
        updates = self.algorithm.process_batch(docs)
        if self._expiration is not None and docs:
            self._expiration.on_batch_updates(updates)
            for document in docs:
                self._expiration.observe(document)
            assert docs[-1].arrival_time is not None
            self._expiration.expire(docs[-1].arrival_time)
        return updates

    # ------------------------------------------------------------------ #
    # Results and diagnostics
    # ------------------------------------------------------------------ #

    def top_k(self, query_id: QueryId) -> List[ResultEntry]:
        """The current top-k of a query, best first."""
        return self.algorithm.top_k(query_id)

    def threshold(self, query_id: QueryId) -> float:
        """The query's current S_k (0.0 while fewer than k documents match)."""
        return self.algorithm.threshold(query_id)

    def all_results(self) -> Dict[QueryId, List[ResultEntry]]:
        """A snapshot of every query's current result (one call, not one
        per query — a single round trip when the host lives in a worker).
        """
        return {
            query_id: self.algorithm.top_k(query_id)
            for query_id in self.algorithm.queries
        }

    @property
    def statistics(self) -> EventCounters:
        return self.algorithm.counters

    @property
    def telemetry(self) -> Telemetry:
        """The engine's lap recorder (the shared no-op when disabled)."""
        return self.algorithm.telemetry

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The engine's telemetry wire dict (empty when disabled)."""
        return self.algorithm.telemetry.snapshot()

    @property
    def live_window_size(self) -> Optional[int]:
        """Number of live documents when a window horizon is configured."""
        if self._expiration is None:
            return None
        return self._expiration.live_documents

    @property
    def last_arrival(self) -> Optional[float]:
        """Arrival time of the most recent event (``None`` before the first)."""
        return self.algorithm.last_arrival

    def renormalize(self, new_origin: float) -> float:
        """Rebase the decay origin explicitly; returns the rescale factor.

        The engine renormalizes by itself whenever amplification exceeds the
        configured bound; this entry point exists for operational rebases
        (e.g. before archiving scores) and is journaled as its own record by
        the durability layer.
        """
        return self.algorithm.renormalize(new_origin)

    def reset_statistics(self) -> None:
        """Zero the counters and telemetry (e.g. after a warm-up phase)."""
        self.algorithm.counters.reset()
        self.algorithm.telemetry.reset()

    def describe(self) -> Dict[str, object]:
        info = self.algorithm.describe()
        info["window_horizon"] = self.config.window_horizon
        if self.shard_id is not None:
            info["shard_id"] = self.shard_id
        return info

    # ------------------------------------------------------------------ #
    # Snapshot / restore, and the codec-encoded state movers
    # ------------------------------------------------------------------ #
    #
    # One state shape (the flat dict of :meth:`snapshot`) and one encoding of
    # it (the persistence codec's): a state moved across a process boundary
    # or read from a checkpoint is bit-for-bit the same thing.
    # (Function-level codec imports: persistence imports us.)

    def snapshot(self) -> Dict[str, object]:
        """Capture the full engine state (plus the live window if any).

        Restoring it into a fresh monitor resumes the stream exactly where
        this one stopped.
        """
        state = self.algorithm.snapshot()
        if self._expiration is not None:
            state["expiration"] = self._expiration.snapshot()
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot` capture into this monitor."""
        self.algorithm.restore(state)
        if self._expiration is not None and "expiration" in state:
            self._expiration.restore(state["expiration"])  # type: ignore[arg-type]
        self.ensure_next_query_id(max(self.algorithm.queries, default=-1) + 1)

    def snapshot_encoded(self) -> Dict[str, object]:
        """The full state in the persistence codec's encoded form — exactly
        what a checkpoint stores."""
        from repro.persistence import codec

        return codec.encode_monitor_state(self.snapshot())

    def restore_encoded(self, encoded: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot_encoded` capture (or a checkpoint)."""
        from repro.persistence import codec

        self.restore(codec.decode_monitor_state(encoded))
