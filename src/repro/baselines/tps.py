"""TPS baseline (after Shraer, Gurevich, Fontoura, Josifovski — PVLDB 2013).

Top-k publish/subscribe evaluates an arriving document ("publication")
against the subscriptions term-at-a-time: per term, the subscribed queries
are kept in descending weight order, the document's terms are processed in
decreasing order of their maximum possible contribution, and per-query score
accumulators are built up.  A query first encountered late in the traversal
is skipped outright when even its remaining upper bound cannot beat its
current k-th score — the pub/sub "skipping" optimization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import StreamAlgorithm
from repro.core.registry import register_algorithm
from repro.core.results import ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.queries.query import Query
from repro.types import QueryId, TermId


class _WeightList:
    """One per-term list of ``(weight, query_id)`` entries, heaviest first."""

    __slots__ = ("entries", "sorted")

    def __init__(self) -> None:
        self.entries: List[Tuple[float, QueryId]] = []
        self.sorted = True

    def add(self, query_id: QueryId, weight: float) -> None:
        self.entries.append((weight, query_id))
        self.sorted = False

    def remove(self, query_id: QueryId) -> None:
        self.entries = [entry for entry in self.entries if entry[1] != query_id]

    def ensure_sorted(self) -> None:
        if not self.sorted:
            self.entries.sort(key=lambda entry: entry[0], reverse=True)
            self.sorted = True

    def max_weight(self) -> float:
        self.ensure_sorted()
        return self.entries[0][0] if self.entries else 0.0

    def __len__(self) -> int:
        return len(self.entries)


@register_algorithm("tps")
class TPSAlgorithm(StreamAlgorithm):
    """Term-at-a-time accumulator evaluation with per-query skipping."""

    name = "tps"

    def __init__(self, decay: Optional[ExponentialDecay] = None) -> None:
        super().__init__(decay)
        self._lists: Dict[TermId, _WeightList] = {}

    # ------------------------------------------------------------------ #
    # Structures
    # ------------------------------------------------------------------ #

    def _register_structures(self, query: Query) -> None:
        for term_id, weight in query.vector.items():
            self._lists.setdefault(term_id, _WeightList()).add(query.query_id, weight)

    def _unregister_structures(self, query: Query) -> None:
        for term_id in query.vector:
            weight_list = self._lists.get(term_id)
            if weight_list is None:
                continue
            weight_list.remove(query.query_id)
            if not weight_list.entries:
                del self._lists[term_id]

    def _on_threshold_change(self, query: Query) -> None:
        # The weight order is static; thresholds are read live during
        # processing, so nothing needs maintenance here.
        return

    def _on_renormalize(self, factor: float) -> None:
        return

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
        """Term-at-a-time walk shared by both ingestion paths (lookups
        hoisted, accumulator table cleared between documents rather than
        reallocated)."""
        updates: List[ResultUpdate] = []
        lists = self._lists
        counters = self.counters
        offer = self.offer
        thresholds = self.results.threshold
        involved: List[Tuple[float, _WeightList]] = []
        accumulators: Dict[QueryId, float] = {}
        for document, amplification in zip(documents, amplifications):
            involved.clear()
            for term_id, doc_weight in document.vector.items():
                weight_list = lists.get(term_id)
                if weight_list is not None and weight_list.entries:
                    weight_list.ensure_sorted()
                    involved.append((doc_weight, weight_list))
            if not involved:
                continue

            # Process terms in decreasing contribution caps so that
            # "remaining" upper bounds shrink as fast as possible,
            # maximizing skips.
            involved.sort(key=lambda item: item[0] * item[1].max_weight(), reverse=True)
            caps = [doc_weight * weight_list.max_weight() for doc_weight, weight_list in involved]
            remaining_after = [0.0] * len(involved)
            running = 0.0
            for idx in range(len(involved) - 1, -1, -1):
                remaining_after[idx] = running
                running += caps[idx]

            accumulators.clear()
            accumulators_get = accumulators.get
            for idx, (doc_weight, weight_list) in enumerate(involved):
                counters.iterations += 1
                remaining = remaining_after[idx]
                for weight, query_id in weight_list.entries:
                    counters.postings_scanned += 1
                    contribution = doc_weight * weight
                    current = accumulators_get(query_id)
                    if current is not None:
                        accumulators[query_id] = current + contribution
                        continue
                    threshold = thresholds(query_id)
                    if threshold > 0.0:
                        upper_bound = amplification * (contribution + remaining)
                        if upper_bound <= threshold:
                            # Even with every remaining term at its maximum
                            # this query cannot be affected; skip the
                            # accumulator.
                            continue
                    accumulators[query_id] = contribution

            doc_id = document.doc_id
            for query_id, similarity in accumulators.items():
                counters.full_evaluations += 1
                update = offer(query_id, doc_id, similarity * amplification)
                if update is not None:
                    updates.append(update)
        return updates
