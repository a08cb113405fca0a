"""Per-query top-k result maintenance.

Every continuous query owns a :class:`TopKResult`: a bounded min-heap of the
k highest amplified scores seen so far.  Its *threshold* ``S_k(q)`` — the
amplified score of the k-th best document, or 0 while fewer than k documents
have matched — is the normalization factor of every pruning bound in the
paper (Eq. 2 and 3).

Two notification granularities exist:

* :class:`ResultUpdate` — one accepted (document, query) insertion, returned
  by the per-event path;
* :class:`BatchUpdate` — the *net* effect of one ingestion batch on one
  query, produced by :func:`coalesce_updates`: documents admitted and then
  evicted within the same batch cancel out, so a consumer sees at most one
  consolidated notification per query per batch.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.exceptions import UnknownQueryError
from repro.queries.query import Query
from repro.types import DocId, QueryId


class ResultEntry(NamedTuple):
    """One entry of a query's current top-k: a document and its amplified score.

    A :class:`~typing.NamedTuple` rather than a dataclass: these records are
    created on every accepted result update and construction cost is visible
    in the hot path.

    Example::

        for entry in monitor.top_k(query_id):
            print(entry.doc_id, entry.score)
    """

    doc_id: DocId
    score: float


class ResultUpdate(NamedTuple):
    """Notification that a query's top-k changed because of a stream event.

    ``evicted_doc_id`` is the document that dropped out of the top-k to make
    room (``None`` while the result was not yet full or after an expiration
    refill).

    Example::

        for update in monitor.process(document):
            notify_user(update.query_id, update.doc_id, update.score)
    """

    query_id: QueryId
    doc_id: DocId
    score: float
    evicted_doc_id: Optional[DocId] = None


class BatchUpdate(NamedTuple):
    """The net effect of one ingestion batch on one query's top-k.

    ``entries`` are the documents the batch added to the query's result *and*
    that are still members when the batch ends, best score first.  A document
    admitted and evicted by later arrivals of the same batch appears in
    neither tuple.  ``evicted_doc_ids`` are the documents that were in the
    top-k before the batch and were pushed out by it, ascending by id.

    Example::

        updates = algorithm.process_batch(batch)
        for update in updates:
            best = update.entries[0]
            notify_user(update.query_id, best.doc_id, best.score)
    """

    query_id: QueryId
    entries: Tuple[ResultEntry, ...]
    evicted_doc_ids: Tuple[DocId, ...] = ()


def coalesce_updates(updates: Iterable[ResultUpdate]) -> List[BatchUpdate]:
    """Collapse per-event :class:`ResultUpdate` notifications into at most one
    :class:`BatchUpdate` per query.

    Within a batch a document can be admitted to a query's result and later
    evicted by a stronger arrival of the same batch; such churn is invisible
    in the batch's net effect and is cancelled here.  Queries whose churn
    fully cancels (everything admitted was also evicted and nothing
    pre-existing was displaced) produce no batch update at all.

    The returned list preserves the order in which queries were first
    touched, which keeps batch output deterministic.
    """
    by_query: Dict[QueryId, List[ResultUpdate]] = {}
    for update in updates:
        group = by_query.get(update.query_id)
        if group is None:
            by_query[update.query_id] = [update]
        else:
            group.append(update)

    batch_updates: List[BatchUpdate] = []
    for query_id, group in by_query.items():
        if len(group) == 1:
            # Overwhelmingly common case: one admission, nothing to cancel.
            update = group[0]
            batch_updates.append(
                BatchUpdate(
                    query_id,
                    (ResultEntry(update.doc_id, update.score),),
                    () if update.evicted_doc_id is None else (update.evicted_doc_id,),
                )
            )
            continue
        docs: Dict[DocId, float] = {}
        gone: set = set()
        for update in group:
            docs[update.doc_id] = update.score
            gone.discard(update.doc_id)
            evicted_doc = update.evicted_doc_id
            if evicted_doc is not None:
                if evicted_doc in docs:
                    # Admitted earlier in this batch and displaced again: the
                    # two notifications cancel out.
                    del docs[evicted_doc]
                else:
                    gone.add(evicted_doc)
        if not docs and not gone:
            continue
        entries = tuple(
            ResultEntry(doc_id, score)
            for doc_id, score in sorted(docs.items(), key=lambda item: (-item[1], item[0]))
        )
        batch_updates.append(BatchUpdate(query_id, entries, tuple(sorted(gone))))
    return batch_updates


class TopKResult:
    """Bounded container of the k best (amplified score, doc) pairs.

    Acceptance is *strict*: a new document replaces the current k-th result
    only when its amplified score is strictly larger, matching the pruning
    rule (a bound equal to the threshold may be pruned safely).

    Example::

        result = TopKResult(k=2)
        result.offer(doc_id=1, score=0.5)
        result.offer(doc_id=2, score=0.9)
        assert result.threshold == 0.5          # S_k once full
        assert result.entries()[0].doc_id == 2  # best first
    """

    __slots__ = ("k", "_heap", "_scores")

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be > 0, got {k}")
        self.k = k
        self._heap: List[Tuple[float, DocId]] = []
        self._scores: Dict[DocId, float] = {}

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, doc_id: DocId) -> bool:
        return doc_id in self._scores

    @property
    def full(self) -> bool:
        return len(self._scores) >= self.k

    @property
    def threshold(self) -> float:
        """``S_k(q)``: the k-th best amplified score (0 while not full)."""
        return self._heap[0][0] if self.full else 0.0

    def score_of(self, doc_id: DocId) -> Optional[float]:
        return self._scores.get(doc_id)

    def entries(self) -> List[ResultEntry]:
        """Current results, best first (ties broken towards lower doc id)."""
        ordered = sorted(self._scores.items(), key=lambda item: (-item[1], item[0]))
        return [ResultEntry(doc_id=doc_id, score=score) for doc_id, score in ordered]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def offer(self, doc_id: DocId, score: float) -> Tuple[bool, Optional[DocId]]:
        """Consider a candidate; returns ``(accepted, evicted_doc_id)``."""
        accepted, evicted, _ = self.offer_tracked(doc_id, score)
        return accepted, evicted

    def offer_tracked(
        self, doc_id: DocId, score: float
    ) -> Tuple[bool, Optional[DocId], bool]:
        """Like :meth:`offer` but also reports whether ``S_k`` changed.

        Returns ``(accepted, evicted_doc_id, threshold_changed)``; the hot
        ingestion paths use the flag directly instead of sampling the
        :attr:`threshold` property around the call.
        """
        scores = self._scores
        if score <= 0.0 or doc_id in scores:
            return False, None, False
        heap = self._heap
        if len(scores) < self.k:
            heapq.heappush(heap, (score, doc_id))
            scores[doc_id] = score
            # The threshold switches from 0 to the heap head when the k-th
            # slot fills; before that it stays 0.
            return True, None, len(scores) >= self.k
        head = heap[0][0]
        if score > head:
            _, evicted_doc = heapq.heapreplace(heap, (score, doc_id))
            del scores[evicted_doc]
            scores[doc_id] = score
            return True, evicted_doc, heap[0][0] != head
        return False, None, False

    def would_accept(self, score: float) -> bool:
        """True when ``offer`` with this score could change the result."""
        return not self.full or score > self.threshold

    def remove(self, doc_id: DocId) -> bool:
        """Drop a document from the result (used by window expiration)."""
        if doc_id not in self._scores:
            return False
        del self._scores[doc_id]
        self._heap = [(score, did) for score, did in self._heap if did != doc_id]
        heapq.heapify(self._heap)
        return True

    def clear(self) -> None:
        self._heap.clear()
        self._scores.clear()

    def scale(self, factor: float) -> None:
        """Divide every stored score by ``factor`` (decay renormalization)."""
        if factor <= 0.0:
            raise ValueError(f"factor must be > 0, got {factor}")
        self._heap = [(score / factor, doc_id) for score, doc_id in self._heap]
        heapq.heapify(self._heap)
        self._scores = {doc_id: score / factor for doc_id, score in self._scores.items()}

    def replace_all(self, entries: List[Tuple[DocId, float]]) -> None:
        """Replace the whole result set (expiration re-evaluation path)."""
        self.clear()
        for doc_id, score in entries:
            self.offer(doc_id, score)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """The result state as a plain dict of primitives.

        The heap is stored as-is (score, doc_id) pairs; restoring heapifies
        the same values, so the threshold and every stored score are
        bit-for-bit identical to the captured state.
        """
        return {"k": self.k, "heap": list(self._heap)}

    def restore(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`snapshot`."""
        self.k = int(state["k"])  # type: ignore[arg-type]
        self._heap = [(float(score), doc_id) for score, doc_id in state["heap"]]  # type: ignore[union-attr]
        heapq.heapify(self._heap)
        self._scores = {doc_id: score for score, doc_id in self._heap}


class ResultStore:
    """Holds the :class:`TopKResult` of every registered query.

    Backed by a :class:`~repro.queries.store.QueryStore`, result heaps are
    materialized *lazily* on first access: a query that has never matched a
    document owns no heap at all, and its threshold reads as 0.0 — exactly
    the threshold of an empty heap, so every pruning bound is unchanged.
    At a million registered queries this is the difference between a heap
    object per query and a few bytes per query.

    Example::

        store = ResultStore()
        store.add_query(query)
        update = store.offer(query.query_id, doc_id=7, score=1.2)
        threshold = store.threshold(query.query_id)
    """

    def __init__(self, store: Optional[object] = None) -> None:
        self._results: Dict[QueryId, TopKResult] = {}
        #: Optional QueryStore supplying ``k`` for lazy materialization.
        self._store = store

    def add_query(self, query: Query) -> None:
        if self._store is not None:
            return  # lazy: the heap is materialized on first access
        if query.query_id not in self._results:
            self._results[query.query_id] = TopKResult(query.k)

    def remove_query(self, query_id: QueryId) -> None:
        self._results.pop(query_id, None)

    def get(self, query_id: QueryId) -> TopKResult:
        result = self._results.get(query_id)
        if result is None:
            store = self._store
            if store is not None and query_id in store:  # type: ignore[operator]
                result = TopKResult(store.k_of(query_id))  # type: ignore[attr-defined]
                self._results[query_id] = result
                return result
            raise UnknownQueryError(f"query {query_id} has no result store")
        return result

    def threshold(self, query_id: QueryId) -> float:
        """``S_k`` of the query; 0.0 also for unknown queries (safe: no pruning)."""
        result = self._results.get(query_id)
        return result.threshold if result is not None else 0.0

    def offer(self, query_id: QueryId, doc_id: DocId, score: float) -> Optional[ResultUpdate]:
        """Offer a scored document to a query; returns an update when accepted."""
        result = self.get(query_id)
        accepted, evicted = result.offer(doc_id, score)
        if not accepted:
            return None
        return ResultUpdate(
            query_id=query_id, doc_id=doc_id, score=score, evicted_doc_id=evicted
        )

    def scale_all(self, factor: float) -> None:
        for result in self._results.values():
            result.scale(factor)

    def snapshot(self) -> Dict[QueryId, Dict[str, object]]:
        """Per-query :meth:`TopKResult.snapshot` dicts.

        In the lazy (query-store-backed) mode, *empty* heaps are omitted:
        an empty heap is indistinguishable from an unmaterialized one, and
        whether a heap was ever materialized depends on which queries an
        engine happened to consider — engine-specific history that must not
        leak into snapshots (differential suites compare them bytewise
        across engines).  Emptiness, by contrast, is determined purely by
        the accepted offers, which are identical across engines.
        """
        if self._store is None:
            return {
                query_id: result.snapshot()
                for query_id, result in self._results.items()
            }
        return {
            query_id: result.snapshot()
            for query_id, result in self._results.items()
            if len(result) > 0
        }

    def restore(self, state: Dict[QueryId, Dict[str, object]]) -> None:
        """Restore every captured query result present in this store.

        Queries are restored by id; a captured query that is not (or no
        longer) registered here is skipped.
        """
        store = self._store
        for query_id, result_state in state.items():
            result = self._results.get(query_id)
            if result is None and store is not None and query_id in store:  # type: ignore[operator]
                result = self._results[query_id] = TopKResult(
                    store.k_of(query_id)  # type: ignore[attr-defined]
                )
            if result is not None:
                result.restore(result_state)

    def query_ids(self) -> List[QueryId]:
        """Ids of the queries whose heap is materialized (has ever been
        offered to, restored, or read)."""
        return list(self._results.keys())

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, query_id: QueryId) -> bool:
        return query_id in self._results
