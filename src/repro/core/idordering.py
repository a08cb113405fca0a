"""Shared driver of the Reverse ID-Ordering algorithms (RIO and MRIO).

Both algorithms process an arriving document in iterations over the posting
lists of the document's terms in the *query* index:

1. order the non-exhausted lists by the query id under their cursor,
2. find the *pivot*: the first prefix of lists whose accumulated upper bound
   reaches 1 (i.e. some query in the covered id zone might still admit the
   document into its top-k),
3. if the pivot list's cursor equals the first cursor, that query's exact
   score is computed and offered to its result heap; otherwise every cursor
   left of the pivot jumps ("seeks") to the pivot id, skipping all the
   queries in between, which the bound proved cannot be affected.

The two algorithms differ only in how the per-term upper bounds are obtained
(:class:`~repro.core.bounds.GlobalMaxBounds` vs. the zone maintainers) and in
what a failed pivot search implies (RIO's global bound covers every remaining
query, so it terminates; MRIO's local bound only covers the current zone, so
it jumps past it and continues).

Batched ingestion (:meth:`StreamAlgorithm.process_batch`) runs the same
pivot loop per document but keeps one :class:`ListCursor` per term alive for
the whole batch: the posting-list lookups and the cursor allocations are
paid once per (term, batch) instead of once per (term, document).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence

from repro.core.base import StreamAlgorithm
from repro.core.bounds import BoundMaintainer
from repro.core.cursors import ListCursor, gather_cursors
from repro.core.results import ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.index.query_index import QueryIndex
from repro.queries.query import Query
from repro.types import TermId


def _cursor_qid(cursor: ListCursor) -> int:
    """Sort key: the query id currently under the cursor."""
    return cursor.plist.qids[cursor.pos]


def _cursor_term(cursor: ListCursor) -> int:
    """Sort key: the term of the cursor's posting list.

    Full evaluations accumulate a dot product over the prefix of cursors
    sitting on the pivot query; summing those contributions in term order
    makes the floating-point result independent of cursor insertion history
    — and therefore identical across per-event/batched ingestion and any
    partitioning of the query set over engine shards.
    """
    return cursor.plist.term_id


class ReverseIDOrderingBase(StreamAlgorithm):
    """Common machinery of RIO and MRIO."""

    #: Whether a failed pivot search proves that *no* remaining query can be
    #: affected (true only for bounds that cover the whole remaining id range).
    prunes_all_on_no_pivot = True

    #: Total-entry cap of the persistent zone-bound memo.  Terms whose
    #: queries never change threshold are never invalidated, so without a
    #: cap a long-running stream accumulates windows forever (worst case
    #: quadratic in the posting-list length per term).  Checked once per
    #: batch; exceeding it clears the memo wholesale.
    zone_cache_limit = 1 << 18

    def __init__(self, decay: Optional[ExponentialDecay] = None) -> None:
        super().__init__(decay)
        self.index = QueryIndex(store=self.store)
        self.bounds: BoundMaintainer = self._make_bounds()
        #: Persistent two-level memo of zone-bound lookups:
        #: ``term_id -> {(start_pos, boundary_qid): (end_pos, zone_value)}``.
        #: Only consulted while a batch is processed (``_bound_cache`` points
        #: here), but kept across batches: a term's sub-map is dropped
        #: whenever any query containing the term changes its threshold, is
        #: (un)registered, or scores are renormalized, so cold terms keep
        #: their memo indefinitely while hot terms re-compute.
        self._zone_cache: Dict[TermId, Dict] = {}
        #: Alias of :attr:`_zone_cache` while a batch is in flight, ``None``
        #: otherwise (the pivot search keys its fast path off this).
        self._bound_cache: Optional[Dict[TermId, Dict]] = None
        #: Per-batch cache of ``bounds.zone_query_fn`` handles; reset every
        #: batch because structure rebuilds may occur between batches.
        self._batch_zone_fns: Dict[TermId, object] = {}

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def _make_bounds(self) -> BoundMaintainer:  # pragma: no cover - abstract
        raise NotImplementedError

    def _find_pivot(
        self, active: List[ListCursor], aqids: List[int], amplification: float
    ) -> Optional[int]:
        """Return the pivot index in ``active`` or ``None`` when no prefix
        of upper bounds reaches 1.

        ``aqids`` mirrors ``active``: ``aqids[i]`` is the query id under
        ``active[i]``, maintained by the driver so the pivot search reads
        plain ints instead of chasing cursor attributes.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Structure maintenance (delegated to the query index + bound maintainer)
    # ------------------------------------------------------------------ #

    def _register_structures(self, query: Query) -> None:
        self.index.register(query)
        self._invalidate_zone_terms(query)

    def _unregister_structures(self, query: Query) -> None:
        self.index.unregister(query.query_id, query)
        self._invalidate_zone_terms(query)

    def _invalidate_zone_terms(self, query: Query) -> None:
        """Drop the memoized windows of exactly the query's own terms.

        Registration and unregistration shift posting positions only in the
        posting lists of the terms the query contains; every other term's
        list — and therefore its memoized ``(start, boundary) -> (end,
        bound)`` windows — is untouched.  Incremental invalidation is what
        keeps sustained register/unregister churn from stalling ingest: the
        previous wholesale ``clear()`` made every registration cost one
        full memo rebuild across all hot terms.
        """
        cache = self._zone_cache
        if cache:
            for term_id in query.vector:
                cache.pop(term_id, None)

    def _on_threshold_change(self, query: Query) -> None:
        self.bounds.on_threshold_change(query)
        # A zone of term t can only contain queries that have term t, so
        # dropping the changed query's terms is exactly the set of memoized
        # windows the new threshold can affect.
        cache = self._zone_cache
        if cache:
            for term_id in query.vector:
                cache.pop(term_id, None)

    def _on_renormalize(self, factor: float) -> None:
        self.bounds.on_renormalize(factor)
        self._zone_cache.clear()

    def _snapshot_structures(self) -> Optional[Dict[str, object]]:
        # The zone-bound memo is the one structure whose content depends on
        # access *history*, not just on queries + thresholds: a memo miss is
        # what ``bound_computations`` counts, so crash recovery must bring
        # the memo back verbatim for work counters to stay replay-exact.
        # (The bound structures' stored ratios are recomputed — pure
        # functions of the current thresholds at a batch boundary — but
        # *which* terms have built structures is history too: a structure
        # missing at restore would be rebuilt lazily mid-batch from already
        # risen thresholds and prune differently, so the clean-built term
        # set rides along and is rebuilt eagerly.)
        structures: Dict[str, object] = {
            "zone_cache": [
                [
                    term_id,
                    [
                        [start_pos, boundary_qid, end_pos, self._pack_float(zone_value)]
                        for (start_pos, boundary_qid), (end_pos, zone_value) in sorted(
                            windows.items()
                        )
                    ],
                ]
                for term_id, windows in sorted(self._zone_cache.items())
            ]
        }
        built = self.bounds.built_terms()
        if built is not None:
            structures["built_terms"] = built
        return structures

    def _restore_structures(self, structures: Optional[Dict[str, object]]) -> None:
        # A restore may move every threshold in either direction at once;
        # wholesale invalidation of the bound structures is cheaper than
        # per-query point updates (stored ratios are recomputed lazily from
        # the restored thresholds).  The zone memo is reinstated from the
        # capture.
        self.bounds.restore()
        self._zone_cache.clear()
        for term_id, windows in structures["zone_cache"]:  # type: ignore[index]
            self._zone_cache[term_id] = {
                (start_pos, boundary_qid): (end_pos, self._unpack_float(zone_value))
                for start_pos, boundary_qid, end_pos, zone_value in windows
            }
        self.bounds.rebuild_terms(structures.get("built_terms", ()))  # type: ignore[union-attr]
        self._batch_zone_fns = {}

    # ------------------------------------------------------------------ #
    # Document processing
    # ------------------------------------------------------------------ #

    def _prepare_cursors(self, cursors: List[ListCursor], amplification: float) -> None:
        """Per-document cursor preparation hook (RIO caches its term bounds here)."""

    def _process_document(
        self, document: Document, amplification: float
    ) -> List[ResultUpdate]:
        cursors = gather_cursors(self.index, document)
        if not cursors:
            return []
        self._prepare_cursors(cursors, amplification)
        updates: List[ResultUpdate] = []
        self._drive_cursors(document.doc_id, cursors, amplification, updates)
        return updates

    def _scan_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[ResultUpdate]:
        """Batched walk: reuse one cursor per term across the whole batch.

        Registration cannot happen mid-batch, so a term's posting list (and
        its emptiness) is stable for the duration: the ``index.get`` lookup
        and the :class:`ListCursor` allocation happen once per distinct term
        instead of once per document, and every cursor is rewound in place.
        """
        index_get = self.index.get
        prepare = self._prepare_cursors
        drive = self._batch_drive_cursors
        cursor_cache: Dict[TermId, Optional[ListCursor]] = {}
        updates: List[ResultUpdate] = []
        self._bound_cache = self._zone_cache
        self._batch_zone_fns = {}
        try:
            for document, amplification in zip(documents, amplifications):
                cursors: List[ListCursor] = []
                for term_id, doc_weight in document.vector.items():
                    cursor = cursor_cache.get(term_id)
                    if cursor is None:
                        if term_id in cursor_cache:
                            continue  # known term without any registered query
                        plist = index_get(term_id)
                        if plist is None or len(plist) == 0:
                            cursor_cache[term_id] = None
                            continue
                        cursor = ListCursor(plist, doc_weight)
                        cursor_cache[term_id] = cursor
                    else:
                        # ``cached_bound`` needs no reset: RIO overwrites it
                        # for every cursor in _prepare_cursors and MRIO never
                        # reads it.
                        cursor.doc_weight = doc_weight
                        cursor.pos = 0
                    cursors.append(cursor)
                if not cursors:
                    continue
                prepare(cursors, amplification)
                drive(document.doc_id, cursors, amplification, updates)
        finally:
            self._bound_cache = None
            zone_cache = self._zone_cache
            if (
                len(zone_cache) > 0
                and sum(map(len, zone_cache.values())) > self.zone_cache_limit
            ):
                zone_cache.clear()
        return updates

    def _batch_drive_cursors(
        self,
        doc_id: int,
        cursors: List[ListCursor],
        amplification: float,
        updates: List[ResultUpdate],
    ) -> None:
        """Pivot loop used by the batch driver.

        Defaults to the per-event :meth:`_drive_cursors`; MRIO overrides it
        with a fused loop that inlines the pivot search and the result offer
        (batch mode trades the modular per-event structure for lower
        Python-level dispatch cost).
        """
        self._drive_cursors(doc_id, cursors, amplification, updates)

    def _drive_cursors(
        self,
        doc_id: int,
        cursors: List[ListCursor],
        amplification: float,
        updates: List[ResultUpdate],
    ) -> None:
        """Run the pivot loop for one document, appending accepted updates."""
        # ``active`` is kept sorted by the query id under each cursor, with
        # ``aqids`` as a parallel plain-int mirror of those ids: re-insertion
        # of moved cursors and the prefix scan then run on C ``bisect`` over
        # an int list instead of Python-level comparisons through cursor
        # attributes.  Only cursors that actually moved are re-inserted,
        # instead of re-sorting the whole set on every iteration.
        active = sorted(cursors, key=_cursor_qid)
        aqids = [cursor.plist.qids[cursor.pos] for cursor in active]
        counters = self.counters
        find_pivot = self._find_pivot
        offer = self.offer
        iterations = 0
        postings_scanned = 0
        full_evaluations = 0

        while active:
            iterations += 1
            pivot_index = find_pivot(active, aqids, amplification)
            if pivot_index is None:
                if self.prunes_all_on_no_pivot:
                    break
                # The local bound only covered ids up to the largest cursor;
                # skip past that zone and keep going.
                target = aqids[-1] + 1
                moved = active
                active = []
                aqids = []
                for cursor in moved:
                    qids = cursor.plist.qids
                    pos = bisect_left(qids, target, cursor.pos)
                    cursor.pos = pos
                    if pos < len(qids):
                        qid = qids[pos]
                        at = bisect_left(aqids, qid)
                        aqids.insert(at, qid)
                        active.insert(at, cursor)
                continue

            pivot_qid = aqids[pivot_index]
            if aqids[0] == pivot_qid:
                # Full evaluation: every cursor positioned on the pivot forms
                # a prefix of the sorted order (the equal run of ``aqids``).
                prefix_end = bisect_right(aqids, pivot_qid)
                similarity = 0.0
                moved = active[:prefix_end]
                if prefix_end > 1:
                    # Canonical (term-ordered) summation: see _cursor_term.
                    moved.sort(key=_cursor_term)
                for cursor in moved:
                    similarity += cursor.doc_weight * cursor.plist.weights[cursor.pos]
                postings_scanned += prefix_end
                full_evaluations += 1
                del active[:prefix_end]
                del aqids[:prefix_end]
                update = offer(pivot_qid, doc_id, similarity * amplification)
                if update is not None:
                    updates.append(update)
                for cursor in moved:
                    pos = cursor.pos + 1
                    cursor.pos = pos
                    qids = cursor.plist.qids
                    if pos < len(qids):
                        qid = qids[pos]
                        at = bisect_left(aqids, qid)
                        aqids.insert(at, qid)
                        active.insert(at, cursor)
            else:
                moved = active[:pivot_index]
                del active[:pivot_index]
                del aqids[:pivot_index]
                for cursor in moved:
                    qids = cursor.plist.qids
                    pos = bisect_left(qids, pivot_qid, cursor.pos)
                    cursor.pos = pos
                    if pos < len(qids):
                        qid = qids[pos]
                        at = bisect_left(aqids, qid)
                        aqids.insert(at, qid)
                        active.insert(at, cursor)

        counters.iterations += iterations
        counters.postings_scanned += postings_scanned
        counters.full_evaluations += full_evaluations

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        info = super().describe()
        info["bounds"] = self.bounds.name
        info["indexed_terms"] = self.index.num_terms
        info["indexed_postings"] = self.index.num_postings
        return info
