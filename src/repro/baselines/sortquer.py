"""SortQuer baseline (after Vouzoukidou, Amann, Christophides — CIKM 2012).

SortQuer keeps, per term, the registered queries ordered by how hard they are
to affect: ascending by their current result threshold ``S_k(q)``.  For an
arriving document, each of its term lists is scanned from the easiest query
onwards and the scan stops at the first query whose (stored) threshold
exceeds an upper bound on any score the document could achieve — every later
entry needs an even higher score, so none of them can be affected either.

Stored thresholds are snapshots taken at (re)sort time.  They can only lag
*below* the true thresholds (``S_k`` normally never decreases), which keeps
the stop rule sound; periodic refreshes re-sort with current values to keep
the scans short.  The exception — expiration lowering a threshold — is
handled in :meth:`_on_threshold_change`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.base import StreamAlgorithm
from repro.core.registry import register_algorithm
from repro.core.results import ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.queries.query import Query
from repro.types import QueryId, TermId


class _ThresholdList:
    """One per-term list of ``[stored_threshold, query_id]`` entries.

    Maintenance is deferred exactly like in the RTA lists: threshold changes
    during document processing only raise flags, and :meth:`ensure_ready`
    applies them before the next traversal, so a scan never iterates a list
    that is being re-sorted underneath it.
    """

    __slots__ = ("entries", "by_query", "stale", "needs_sort", "needs_refresh")

    def __init__(self) -> None:
        self.entries: List[List[float]] = []
        self.by_query: Dict[QueryId, List[float]] = {}
        self.stale = 0
        self.needs_sort = False
        self.needs_refresh = False

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, query_id: QueryId, threshold: float) -> None:
        entry = [threshold, float(query_id)]
        self.entries.append(entry)
        self.by_query[query_id] = entry
        self.needs_sort = True

    def remove(self, query_id: QueryId) -> None:
        entry = self.by_query.pop(query_id, None)
        if entry is None:
            return
        self.entries.remove(entry)

    def resort(self) -> None:
        self.entries.sort(key=lambda entry: entry[0])
        self.needs_sort = False
        self.stale = 0

    def refresh(self, threshold_of) -> None:
        for entry in self.entries:
            entry[0] = threshold_of(int(entry[1]))
        self.needs_refresh = False
        self.resort()

    def ensure_ready(self, threshold_of) -> None:
        """Apply deferred maintenance before the list is traversed."""
        if self.needs_refresh:
            self.refresh(threshold_of)
        elif self.needs_sort:
            self.resort()


@register_algorithm("sortquer")
class SortQuerAlgorithm(StreamAlgorithm):
    """Threshold-ordered per-term query lists with unreachable-cutoff scans."""

    name = "sortquer"

    def __init__(
        self,
        decay: Optional[ExponentialDecay] = None,
        stale_fraction: float = 0.125,
        min_stale: int = 16,
    ) -> None:
        super().__init__(decay)
        self.stale_fraction = stale_fraction
        self.min_stale = min_stale
        self._lists: Dict[TermId, _ThresholdList] = {}

    # ------------------------------------------------------------------ #
    # Structures
    # ------------------------------------------------------------------ #

    def _register_structures(self, query: Query) -> None:
        threshold = self.results.threshold(query.query_id)
        for term_id in query.vector:
            threshold_list = self._lists.setdefault(term_id, _ThresholdList())
            threshold_list.add(query.query_id, threshold)

    def _unregister_structures(self, query: Query) -> None:
        for term_id in query.vector:
            threshold_list = self._lists.get(term_id)
            if threshold_list is None:
                continue
            threshold_list.remove(query.query_id)
            if not threshold_list.entries:
                del self._lists[term_id]

    def _on_threshold_change(self, query: Query) -> None:
        current = self.results.threshold(query.query_id)
        for term_id in query.vector:
            threshold_list = self._lists.get(term_id)
            if threshold_list is None:
                continue
            entry = threshold_list.by_query.get(query.query_id)
            if entry is None:
                continue
            if current < entry[0]:
                # Expiration lowered the threshold: the stored value must
                # follow it down (stored values may never exceed the truth).
                entry[0] = current
                threshold_list.needs_sort = True
            else:
                threshold_list.stale += 1
                limit = max(self.min_stale, int(self.stale_fraction * len(threshold_list)))
                if threshold_list.stale >= limit:
                    # Defer the refresh: re-sorting a list mid-traversal
                    # would corrupt the scan in progress.
                    threshold_list.needs_refresh = True

    def _on_renormalize(self, factor: float) -> None:
        # True thresholds were divided by ``factor``; stored snapshots follow
        # so they remain lower bounds (order is preserved by uniform scaling).
        for threshold_list in self._lists.values():
            for entry in threshold_list.entries:
                entry[0] /= factor

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #

    def _process_document(
        self, document: Document, amplification: float
    ) -> List[ResultUpdate]:
        # One traversal implementation: the per-event path is the batched
        # walk over a single document.
        return self._scan_documents([document], [amplification])

    def _scan_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[ResultUpdate]:
        """Threshold-ordered scans shared by both ingestion paths (lookups
        hoisted, scratch sets reused across documents).

        ``ensure_ready`` runs on each list's first touch to apply flags
        pending from *before* the batch; inside ``process_batch`` threshold
        propagation is deferred to the batch boundary, so no new flags are
        raised mid-batch.
        """
        updates: List[ResultUpdate] = []
        lists = self._lists
        counters = self.counters
        queries_get = self.queries.get
        offer = self.offer
        threshold_of = self.results.threshold
        exact_score = self.exact_score
        involved: List[_ThresholdList] = []
        seen: Set[QueryId] = set()
        for document, amplification in zip(documents, amplifications):
            involved.clear()
            reachable_sum = 0.0
            for term_id, doc_weight in document.vector.items():
                threshold_list = lists.get(term_id)
                if threshold_list is not None and threshold_list.entries:
                    threshold_list.ensure_ready(threshold_of)
                    involved.append(threshold_list)
                    reachable_sum += doc_weight
            if not involved:
                continue
            # No query keyword weight exceeds 1 (vectors are normalized), so
            # no query can score above ``amplification * reachable_sum``.
            score_cap = amplification * reachable_sum

            seen.clear()
            doc_id = document.doc_id
            for threshold_list in involved:
                counters.iterations += 1
                for entry in threshold_list.entries:
                    if entry[0] >= score_cap:
                        break
                    counters.postings_scanned += 1
                    query_id = int(entry[1])
                    if query_id in seen:
                        continue
                    seen.add(query_id)
                    query = queries_get(query_id)
                    if query is None:
                        continue
                    score = exact_score(query, document, amplification)
                    counters.full_evaluations += 1
                    update = offer(query_id, doc_id, score)
                    if update is not None:
                        updates.append(update)
        return updates
