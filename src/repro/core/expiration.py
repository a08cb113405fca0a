"""Hard staleness horizon: window expiration and query re-evaluation.

The decay model already makes old documents fade from the results as newer
ones arrive, but applications often also want a hard guarantee ("never show
anything older than a day").  When the monitor is configured with a
``window_horizon`` this manager

* keeps every live document in a :class:`SlidingWindowStore` and a
  :class:`DocumentIndex`,
* tracks which queries currently hold which documents, from the result
  changes the engine returns,
* on expiration removes the document everywhere and re-evaluates the
  affected queries over the live window, and
* tells the algorithm that those queries' thresholds may have *decreased*
  (the only event that can lower a threshold), so pruning bounds stay safe.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.base import StreamAlgorithm
from repro.core.results import BatchUpdate, ResultUpdate
from repro.documents.document import Document
from repro.documents.window import SlidingWindowStore
from repro.index.doc_index import DocumentIndex
from repro.types import DocId, QueryId


class ExpirationManager:
    """Maintains the live window and re-evaluates queries on expiration."""

    def __init__(self, algorithm: StreamAlgorithm, horizon: float) -> None:
        self.algorithm = algorithm
        self.store = SlidingWindowStore(horizon)
        self.doc_index = DocumentIndex()
        self._holders: Dict[DocId, Set[QueryId]] = {}

    # ------------------------------------------------------------------ #
    # Bookkeeping driven by the normal stream path
    # ------------------------------------------------------------------ #

    def on_updates(self, updates: Sequence[ResultUpdate]) -> None:
        """Track which queries hold which documents: one event's updates."""
        for update in updates:
            self._holders.setdefault(update.doc_id, set()).add(update.query_id)
            if update.evicted_doc_id is not None:
                self._release(update.evicted_doc_id, update.query_id)

    def on_batch_updates(self, updates: Sequence[BatchUpdate]) -> None:
        """The same from one batch's net changes: per query, the admitted
        documents still held and the prior members pushed out."""
        for update in updates:
            for entry in update.entries:
                self._holders.setdefault(entry.doc_id, set()).add(update.query_id)
            for doc_id in update.evicted_doc_ids:
                self._release(doc_id, update.query_id)

    def _release(self, doc_id: DocId, query_id: QueryId) -> None:
        holders = self._holders.get(doc_id)
        if holders is not None:
            holders.discard(query_id)
            if not holders:
                del self._holders[doc_id]

    def observe(self, document: Document) -> None:
        """Record a freshly processed document as live."""
        self.store.add(document)
        self.doc_index.add(document)

    # ------------------------------------------------------------------ #
    # Expiration
    # ------------------------------------------------------------------ #

    def expire(self, now: float) -> List[QueryId]:
        """Expire documents older than the horizon; returns affected query ids."""
        expired = self.store.expire(now)
        if not expired:
            return []
        affected: Set[QueryId] = set()
        for document in expired:
            self.doc_index.remove(document.doc_id)
            holders = self._holders.pop(document.doc_id, set())
            affected.update(holders)
        for query_id in affected:
            if query_id in self.algorithm.queries:
                self._reevaluate(query_id)
        return sorted(affected)

    def _reevaluate(self, query_id: QueryId) -> None:
        """Recompute a query's top-k over the live window from scratch."""
        query = self.algorithm.queries[query_id]
        results = self.algorithm.results
        old_docs = {entry.doc_id for entry in results.entries(query_id)}

        # Accumulate similarities over the live window, then amplify by each
        # document's own arrival time (the same score the stream path used).
        similarities: Dict[DocId, float] = {}
        for term_id, query_weight in query.vector.items():
            plist = self.doc_index.get(term_id)
            if plist is None:
                continue
            for doc_id, doc_weight in plist.iter_live():
                similarities[doc_id] = similarities.get(doc_id, 0.0) + query_weight * doc_weight
        scored = []
        for doc_id, similarity in similarities.items():
            document = self.doc_index.document(doc_id)
            if document is None or document.arrival_time is None:
                continue
            score = similarity * self.algorithm.decay.amplification(document.arrival_time)
            scored.append((doc_id, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        results.replace(query_id, scored[: query.k])

        # Update the reverse map to reflect the new membership.
        new_docs = {entry.doc_id for entry in results.entries(query_id)}
        for doc_id in old_docs - new_docs:
            self._release(doc_id, query_id)
        for doc_id in new_docs:
            self._holders.setdefault(doc_id, set()).add(query_id)

        # The threshold may have decreased; the algorithm must refresh any
        # cached bound that depends on it.
        self.algorithm.notify_threshold_change(query_id)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """The live window in arrival order (documents shared by reference)."""
        return {"horizon": self.store.horizon, "live": self.store.live_documents()}

    def restore(self, state: Dict[str, object]) -> None:
        """Rebuild the window store, the document index and the reverse map.

        The holder map is derived from the *algorithm's* current result
        membership rather than captured, so it is consistent with the
        restored results by construction.
        """
        self.store = SlidingWindowStore(float(state["horizon"]))  # type: ignore[arg-type]
        self.doc_index = DocumentIndex()
        for document in state["live"]:  # type: ignore[union-attr]
            self.store.add(document)
            self.doc_index.add(document)
        self._holders = {}
        for query_id in self.algorithm.queries:
            for entry in self.algorithm.results.entries(query_id):
                self._holders.setdefault(entry.doc_id, set()).add(query_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def live_documents(self) -> int:
        return len(self.store)

    def holders_of(self, doc_id: DocId) -> Set[QueryId]:
        """Queries currently holding ``doc_id`` in their top-k."""
        return set(self._holders.get(doc_id, set()))
