"""Per-query top-k result maintenance.

Every continuous query owns a top-k: the k highest amplified scores seen so
far.  Its *threshold* ``S_k(q)`` — the amplified score of the k-th best
document, or 0 while fewer than k documents have matched — is the
normalization factor of every pruning bound in the paper (Eq. 2 and 3).

Two stores hold those top-k lists, behind one narrow interface
(``add_query``, ``remove_query``, ``entries``, ``threshold``, ``replace``,
``scale_all``, ``snapshot``, ``restore``):

* :class:`ResultStore` keeps one :class:`TopKResult` (a bounded min-heap)
  per query.  The scalar engines offer candidates one at a time from their
  cursor walks, so a heap per query is the natural shape; scalar MRIO is
  the oracle every other engine is tested against, and keeping it on the
  plain heaps means the differential suites never test the arena against
  itself.
* :class:`ResultArena` keeps every query's top-k in k-wide score and
  doc-id columns addressed by the :class:`~repro.queries.store.QueryStore`
  slot, plus a per-slot fill count.  The columnar engine hands it a whole
  probe chunk of candidates at once; :class:`ArenaBatch` applies them as
  vectorized lock-step rounds with exactly :meth:`TopKResult.offer_tracked`'s
  rules and emits the batch's net changes directly.

Two notification granularities exist:

* :class:`ResultUpdate` — one accepted (document, query) insertion, returned
  by the per-event path;
* :class:`BatchUpdate` — the *net* effect of one ingestion batch on one
  query: documents admitted and then evicted within the same batch cancel
  out, so a consumer sees at most one consolidated notification per query
  per batch.  The scalar engines produce them with :func:`coalesce_updates`;
  the arena computes them from its rows before and after the batch.

Snapshots of both stores have one canonical shape: per query ``{"k",
"heap"}`` with ``heap`` the ``(score, doc_id)`` pairs sorted ascending — a
sorted list is a valid heapq list, so either store restores the other's
captures (and the heap-ordered captures older checkpoints hold).
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

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

        The (score, doc_id) pairs are sorted ascending — the canonical
        order, independent of the heap's internal layout (which depends on
        the offer history); restoring heapifies the same values, so the
        threshold and every stored score are bit-for-bit identical to the
        captured state.
        """
        return {"k": self.k, "heap": sorted(self._heap)}

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

    def entries(self, query_id: QueryId) -> List[ResultEntry]:
        """The query's current top-k, best first."""
        return self.get(query_id).entries()

    def replace(self, query_id: QueryId, entries: List[Tuple[DocId, float]]) -> None:
        """Replace the query's whole top-k (window-expiration re-evaluation)."""
        self.get(query_id).replace_all(entries)

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


#: What a cell past a row's fill count holds: no score, no document (doc
#: ids are non-negative).
_EMPTY_SCORE = np.inf
_EMPTY_DOC = -1
#: Fills the victim search's non-minimum cells: sorts after every doc id.
_NO_DOC = np.iinfo(np.int64).max
_new_tuple = tuple.__new__
#: Cells of the (rows x k x k) membership comparison per block (~4 MB).
_COMPARE_BUDGET = 1 << 22


class ResultArena:
    """Every query's top-k in columns addressed by the query-store slot.

    Row ``slot`` belongs to the query registered at that
    :class:`~repro.queries.store.QueryStore` slot: cells ``[0, fill)`` of
    the score and doc-id columns are its members, in no particular order,
    and every cell past the fill count holds ``+inf`` / ``-1``.  That
    padding lets the vectorized offer take a row minimum or test
    membership without masking by the fill count; unregistration resets
    the row, so a reused slot starts empty.

    Registration touches no arena memory: the columns are allocated, and
    grown to the store's slot-table width, at the first offer that needs
    a row past their end (:meth:`QueryStore.nbytes` does not count them).
    Rows are as wide as the largest k among the registered queries, which
    :data:`~repro.queries.query.MAX_K` bounds; :meth:`add_query` and
    :meth:`remove_query` count the live queries per k, so the columns
    narrow again at the next offer once the widest query has left.
    The columnar engine offers through :class:`ArenaBatch`; everything else
    reads and writes one query at a time through the interface
    :class:`ResultStore` shares.  The ``S_k`` of every row lives in the
    store's threshold column, which the offer reads and writes.

    Example::

        arena = ResultArena(store)
        batch = ArenaBatch(arena, chunks=1, thresholds=store.thresholds_view())
        batch.offer(rows, slots, doc_ids, scores)
        updates = batch.batch_updates()
        arena.entries(query_id)          # best first
    """

    __slots__ = ("_store", "_scores", "_doc_ids", "_fill", "_columns", "_k_counts", "_width")

    def __init__(self, store) -> None:
        self._store = store
        self._scores = np.full((0, 0), _EMPTY_SCORE)
        self._doc_ids = np.full((0, 0), _EMPTY_DOC, dtype=np.int64)
        self._fill = np.zeros(0, dtype=np.int64)
        self._columns = np.arange(0)
        #: Live queries per k, and the largest live k: the rows' width.
        self._k_counts: Dict[int, int] = {}
        self._width = 0

    def nbytes(self) -> int:
        """Bytes allocated for the columns (0 until the first offer)."""
        return self._scores.nbytes + self._doc_ids.nbytes + self._fill.nbytes

    def _reserve(self) -> None:
        """Cover every slot of the store with rows as wide as the largest
        live k — narrower again once the widest query has left.  Narrowing
        keeps every member: a row's members fill its first ``fill <= k``
        cells."""
        rows, columns = self._scores.shape
        slot_end = self._store.capacity
        width = self._width
        if slot_end <= rows and width == columns:
            return
        rows_after = rows if slot_end <= rows else max(slot_end, 2 * rows)
        kept = min(width, columns)
        scores = np.full((rows_after, width), _EMPTY_SCORE)
        doc_ids = np.full((rows_after, width), _EMPTY_DOC, dtype=np.int64)
        fill = np.zeros(rows_after, dtype=np.int64)
        scores[:rows, :kept] = self._scores[:, :kept]
        doc_ids[:rows, :kept] = self._doc_ids[:, :kept]
        fill[:rows] = self._fill
        self._scores, self._doc_ids, self._fill = scores, doc_ids, fill
        self._columns = np.arange(width)

    # ------------------------------------------------------------------ #
    # The interface shared with ResultStore
    # ------------------------------------------------------------------ #

    def add_query(self, query: Query) -> None:
        """Count the query's k (a never-offered row is empty by its fill
        count, so no column is touched)."""
        k = query.k
        self._k_counts[k] = self._k_counts.get(k, 0) + 1
        if k > self._width:
            self._width = k

    def remove_query(self, query_id: QueryId) -> None:
        """Empty the query's row; call while its slot is still registered."""
        store = self._store
        slot = store.find_slot(query_id)
        if slot is None:
            return
        k = store.k_of(query_id)
        counts = self._k_counts
        counts[k] -= 1
        if counts[k] == 0:
            del counts[k]
            if k == self._width:
                # The columns narrow at the next offer.
                self._width = max(counts, default=0)
        if slot < len(self._fill):
            self._fill[slot] = 0
            self._scores[slot] = _EMPTY_SCORE
            self._doc_ids[slot] = _EMPTY_DOC

    def entries(self, query_id: QueryId) -> List[ResultEntry]:
        """The query's current top-k, best first (ties towards lower doc id)."""
        slot = self._store.find_slot(query_id)
        if slot is None:
            raise UnknownQueryError(f"query {query_id} has no result store")
        if slot >= len(self._fill):
            return []
        count = int(self._fill[slot])
        members = zip(self._doc_ids[slot, :count].tolist(), self._scores[slot, :count].tolist())
        ordered = sorted(members, key=lambda item: (-item[1], item[0]))
        return [ResultEntry(doc_id, score) for doc_id, score in ordered]

    def threshold(self, query_id: QueryId) -> float:
        """``S_k``: the row minimum once the row holds k members, else 0.0
        (also for unknown queries)."""
        slot = self._store.find_slot(query_id)
        if slot is None or slot >= len(self._fill):
            return 0.0
        count = int(self._fill[slot])
        if count == 0 or count < self._store.k_of(query_id):
            return 0.0
        return min(self._scores[slot, :count].tolist())

    def replace(self, query_id: QueryId, entries: List[Tuple[DocId, float]]) -> None:
        """Replace the query's whole top-k, offering ``entries`` in order to
        an empty result (window-expiration re-evaluation)."""
        result = TopKResult(self._store.k_of(query_id))
        result.replace_all(entries)
        self._write_rows([self._store.slot_of(query_id)], [result.snapshot()["heap"]])

    def _write_rows(self, slots: List[int], heaps: List[List[Tuple[float, DocId]]]) -> None:
        """Set each slot's row to the ``(score, doc_id)`` pairs of its heap."""
        if not slots:
            return
        counts = np.array([len(heap) for heap in heaps], dtype=np.int64)
        slot_array = np.array(slots, dtype=np.int64)
        self._reserve()
        self._scores[slot_array] = _EMPTY_SCORE
        self._doc_ids[slot_array] = _EMPTY_DOC
        pairs = [pair for heap in heaps for pair in heap]
        rows = np.repeat(slot_array, counts)
        cells = np.arange(len(pairs)) - np.repeat(np.cumsum(counts) - counts, counts)
        self._scores[rows, cells] = [float(score) for score, _ in pairs]
        self._doc_ids[rows, cells] = [doc_id for _, doc_id in pairs]
        self._fill[slot_array] = counts

    def scale_all(self, factor: float) -> None:
        """Divide every stored score by ``factor`` (decay renormalization):
        the same IEEE division :meth:`TopKResult.scale` applies per entry."""
        occupied = np.flatnonzero(self._fill)
        self._scores[occupied] /= factor

    def snapshot(self) -> Dict[QueryId, Dict[str, object]]:
        """Per-query ``{"k", "heap"}`` with ``heap`` sorted ascending by
        ``(score, doc_id)``; empty rows are omitted, as in
        :meth:`ResultStore.snapshot`."""
        occupied = np.flatnonzero(self._fill)
        if len(occupied) == 0:
            return {}
        counts = self._fill[occupied]
        held = self._columns < counts[:, None]
        lines = np.repeat(np.arange(len(occupied)), counts)
        scores = self._scores[occupied][held]
        doc_ids = self._doc_ids[occupied][held]
        order = np.lexsort((doc_ids, scores, lines))
        pairs = list(zip(scores[order].tolist(), doc_ids[order].tolist()))
        qids = self._store.qids_view()[occupied].tolist()
        ks = self._store.ks_at(occupied).tolist()
        state: Dict[QueryId, Dict[str, object]] = {}
        start = 0
        for query_id, k, count in zip(qids, ks, counts.tolist()):
            state[query_id] = {"k": k, "heap": pairs[start : start + count]}
            start += count
        return state

    def restore(self, state: Dict[QueryId, Dict[str, object]]) -> None:
        """Restore the captured rows of the queries registered here (a
        captured query that is not registered is skipped)."""
        find_slot = self._store.find_slot
        slots: List[int] = []
        heaps: List[List[Tuple[float, DocId]]] = []
        for query_id, result_state in state.items():
            slot = find_slot(query_id)
            if slot is not None:
                slots.append(slot)
                heaps.append(result_state["heap"])  # type: ignore[arg-type]
        self._write_rows(slots, heaps)

    # ------------------------------------------------------------------ #
    # The vectorized offer
    # ------------------------------------------------------------------ #

    def _offer_round(self, slots, doc_ids, scores, ks, thresholds):
        """Offer ``(doc_ids[i], scores[i])`` to row ``slots[i]`` for every i
        at once — :meth:`TopKResult.offer_tracked` per row; ``slots`` are
        distinct, so the rows do not interact.

        A score is accepted when it beats the row's ``S_k`` — read from
        ``thresholds``, the store's column, which is 0 while the row holds
        fewer than k members — and the document is not already a member.
        A non-full row appends it; a full row overwrites its minimum
        ``(score, doc_id)``: among equal minimum scores the lowest doc id,
        heapq's tuple order.  Writes each accepted row's new ``S_k`` back
        into ``thresholds``.  Returns ``(kept, full, evicted)``: the
        indices of the accepted offers (``None`` when all were), and for
        each accepted offer whether it replaced a member and which.
        """
        fill = self._fill
        counts = fill[slots]
        row_scores = self._scores.take(slots, axis=0)
        row_doc_ids = self._doc_ids.take(slots, axis=0)
        low = thresholds[slots]
        accept = scores > low
        accept[np.logical_or.reduce(row_doc_ids == doc_ids[:, None], axis=1)] = False
        # Padding cells hold +inf, so only members can equal a full row's S_k.
        victim = np.where(row_scores == low[:, None], row_doc_ids, _NO_DOC).argmin(axis=1)
        full = counts >= ks
        kept = None
        if np.count_nonzero(accept) < len(accept):
            kept = np.flatnonzero(accept)
            slots, doc_ids, scores, ks = slots[kept], doc_ids[kept], scores[kept], ks[kept]
            counts, full, victim = counts[kept], full[kept], victim[kept]
        position = np.where(full, victim, counts)
        evicted = self._doc_ids[slots, position]
        self._scores[slots, position] = scores
        self._doc_ids[slots, position] = doc_ids
        counts += ~full
        fill[slots] = counts
        low = np.minimum.reduce(self._scores.take(slots, axis=0), axis=1)
        thresholds[slots] = np.where(counts >= ks, low, 0.0)
        return kept, full, evicted


class ArenaBatch:
    """One ingestion batch's offers to a :class:`ResultArena`.

    :meth:`offer` takes one probe chunk's candidates at a time and applies
    them in lock-step rounds: round r offers every touched slot its r-th
    candidate (in arrival order).  Slots are independent, so this *is* the
    sequential per-candidate algorithm, ties included.  At the end the
    batch's outcome comes out in the engine's two shapes:

    * :meth:`batch_updates` — per query, the net change against the row as
      it was before the batch (copied before the row's first round):
      members that are new, best first, and prior members pushed out,
      ascending; queries listed in the order of their first accepted
      offer, which is :func:`coalesce_updates`' order;
    * :meth:`result_updates` — the per-offer updates of a one-document
      batch (each slot has at most one candidate), in query-id order.

    A batch that is one round of one chunk needs no row copies: each
    accepted offer then is its query's whole net change.  Most 1–4
    document batches are such a batch, and the before/after comparison's
    fixed cost would nearly double a one-document batch over 500 queries,
    so they skip it.  (Doc ids are
    unique in a stream, so no document held before a batch is offered again
    in it; if one were, evicted and re-admitted within the batch, it would
    count as unchanged, where :func:`coalesce_updates` reports it again.)
    """

    __slots__ = (
        "_arena", "_thresholds", "_chunks", "_round", "_copies", "_copy_at", "_first_row",
        "_touched",
    )

    def __init__(self, arena: ResultArena, chunks: int, thresholds: np.ndarray) -> None:
        self._arena = arena
        #: The store's ``S_k`` column (:meth:`QueryStore.thresholds_view`),
        #: read and written by every round: nothing registers while a batch
        #: is offered.
        self._thresholds = thresholds
        #: Upper bound on the number of :meth:`offer` calls.
        self._chunks = chunks
        #: The one round's accepted offers, when the batch is one round.
        self._round: Optional[Tuple[np.ndarray, ...]] = None
        #: Pre-batch doc-id rows, and per arena row the index of its copy.
        self._copies: List[np.ndarray] = []
        self._copy_at: Optional[np.ndarray] = None
        #: Per arena row the batch row of its first accepted offer (-1:
        #: none yet), and the slots in the order they got one.
        self._first_row: Optional[np.ndarray] = None
        self._touched: List[np.ndarray] = []

    def offer(self, rows, slots, doc_ids, scores) -> int:
        """Offer one probe chunk's candidates; returns how many were accepted.

        ``rows`` are the candidates' document rows in the batch, ascending
        (arrival order); ``slots``, ``doc_ids`` and ``scores`` say which
        row, document and amplified score each one is.  Every accepted
        row's new ``S_k`` is written into the store's threshold column, so
        the probe's next chunk masks against it.
        """
        arena = self._arena
        thresholds = self._thresholds
        arena._reserve()
        ks = arena._store.ks_at(slots)
        # One document's candidates have distinct slots: a single round.
        rounds, distinct = (None, slots) if rows[0] == rows[-1] else _rounds(slots)
        if rounds is None and self._chunks == 1:
            kept, full, evicted = arena._offer_round(slots, doc_ids, scores, ks, thresholds)
            if kept is not None:
                rows, slots, doc_ids, scores = rows[kept], slots[kept], doc_ids[kept], scores[kept]
            self._round = (rows, slots, doc_ids, scores, full, evicted)
            return len(full)
        self._copy(distinct)
        first_row = self._first_row
        accepted = 0
        for index in rounds if rounds is not None else (slice(None),):
            round_slots = slots[index]
            kept, full, _ = arena._offer_round(
                round_slots, doc_ids[index], scores[index], ks[index], thresholds
            )
            round_rows = rows[index]
            if kept is not None:
                round_rows, round_slots = round_rows[kept], round_slots[kept]
            first = first_row[round_slots] < 0
            first_row[round_slots[first]] = round_rows[first]
            self._touched.append(round_slots[first])
            accepted += len(full)
        return accepted

    def _copy(self, slots: np.ndarray) -> None:
        """Copy the doc-id rows of the (distinct) ``slots`` not copied yet."""
        arena = self._arena
        if self._copy_at is None:
            self._copy_at = np.full(len(arena._fill), -1, dtype=np.int64)
            self._first_row = np.full(len(arena._fill), -1, dtype=np.int64)
        copied = sum(len(copy) for copy in self._copies)
        fresh = slots[self._copy_at[slots] < 0]
        self._copy_at[fresh] = np.arange(copied, copied + len(fresh))
        self._copies.append(arena._doc_ids.take(fresh, axis=0))

    def result_updates(self) -> List[ResultUpdate]:
        """The accepted offers of a one-document batch, in query-id order."""
        if self._round is None:
            return []
        _, slots, doc_ids, scores, full, evicted = self._round
        qids = self._arena._store.qids_view()[slots]
        updates = [
            ResultUpdate(query_id, doc_id, score, evicted_doc if replaced else None)
            for query_id, doc_id, score, replaced, evicted_doc in zip(
                qids.tolist(), doc_ids.tolist(), scores.tolist(),
                full.tolist(), evicted.tolist(),
            )
        ]
        updates.sort()  # by query id, which is unique here
        return updates

    def batch_updates(self) -> List[BatchUpdate]:
        """Per query, the batch's net change (see the class docstring)."""
        if self._round is not None:
            return self._round_updates()
        if not self._touched:
            return []
        arena = self._arena
        slots = np.concatenate(self._touched)
        qids = arena._store.qids_view()[slots]
        order = np.lexsort((qids, self._first_row[slots]))
        slots, qids = slots[order], qids[order]
        before = np.concatenate(self._copies)[self._copy_at[slots]]
        after = arena._doc_ids.take(slots, axis=0)
        after_scores = arena._scores.take(slots, axis=0)
        # Padding cells hold doc id -1 on both sides, so a member never
        # matches one; pad-to-pad matches are masked out by these two.
        added = after >= 0
        gone = before >= 0
        width = after.shape[1]
        block = max(1, _COMPARE_BUDGET // (width * width))
        for start in range(0, len(slots), block):
            part = slice(start, start + block)
            same = after[part, :, None] == before[part, None, :]
            added[part] &= ~same.any(axis=2)
            gone[part] &= ~same.any(axis=1)
        # New members best first (ties towards the lower doc id), prior
        # members pushed out ascending: sort within each row, then read the
        # masks row-major.
        best_first = np.lexsort((after, -after_scores), axis=1)
        lines, ranks = np.nonzero(np.take_along_axis(added, best_first, axis=1))
        cells = best_first[lines, ranks]
        entries = list(map(
            _new_tuple,
            repeat(ResultEntry),
            zip(after[lines, cells].tolist(), after_scores[lines, cells].tolist()),
        ))
        ascending = np.argsort(before, axis=1)
        gone_lines, gone_ranks = np.nonzero(np.take_along_axis(gone, ascending, axis=1))
        evicted = before[gone_lines, ascending[gone_lines, gone_ranks]].tolist()
        n_entries = np.bincount(lines, minlength=len(slots))
        n_evicted = np.bincount(gone_lines, minlength=len(slots))
        changed = (n_entries + n_evicted) > 0
        # Built by C-level maps: at the paper's scale a batch changes
        # tens of thousands of queries.
        return list(map(
            _new_tuple,
            repeat(BatchUpdate),
            zip(
                qids[changed].tolist(),
                _groups(entries, n_entries[changed]),
                _groups(evicted, n_evicted[changed]),
            ),
        ))

    def _round_updates(self) -> List[BatchUpdate]:
        """One round: each accepted offer is its query's net change."""
        rows, slots, doc_ids, scores, full, evicted = self._round  # type: ignore[misc]
        qids = self._arena._store.qids_view()[slots]
        offers = sorted(zip(
            rows.tolist(), qids.tolist(), doc_ids.tolist(), scores.tolist(),
            full.tolist(), evicted.tolist(),
        ))
        return [
            BatchUpdate(
                query_id,
                (ResultEntry(doc_id, score),),
                (evicted_doc,) if replaced else (),
            )
            for _, query_id, doc_id, score, replaced, evicted_doc in offers
        ]


def _groups(items: list, counts: np.ndarray) -> Iterable[tuple]:
    """``items`` split into consecutive tuples of ``counts`` lengths."""
    ends = np.cumsum(counts)
    return map(tuple, map(items.__getitem__, map(slice, (ends - counts).tolist(), ends.tolist())))


def _rounds(slots: np.ndarray) -> Tuple[Optional[List[np.ndarray]], np.ndarray]:
    """Split candidates into lock-step rounds: round r holds, for every slot
    with more than r candidates, the index of its r-th one (candidates are
    in arrival order).  Returns ``(rounds, distinct slots)``, with rounds
    ``None`` when no slot has two candidates."""
    order = np.argsort(slots, kind="stable")
    ordered = slots[order]
    repeat = ordered[1:] == ordered[:-1]
    if not repeat.any():
        return None, slots
    distinct = ordered[np.concatenate(([True], ~repeat))]
    position = np.arange(len(slots))
    start = position.copy()
    start[1:][repeat] = 0
    np.maximum.accumulate(start, out=start)
    rank = position - start
    by_round = order[np.argsort(rank, kind="stable")]
    return np.split(by_round, np.cumsum(np.bincount(rank))[:-1]), distinct
