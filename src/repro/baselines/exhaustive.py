"""Exhaustive per-event evaluation — the correctness oracle.

Two modes exist:

* ``matching_only=True`` (default): only queries sharing at least one term
  with the arriving document are scored (queries with zero similarity can
  never enter a top-k, so this is exact);
* ``matching_only=False``: every registered query is scored — the most
  literal interpretation of "recompute everything", useful to sanity-check
  the matching-only shortcut itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.base import StreamAlgorithm
from repro.core.registry import register_algorithm
from repro.core.results import ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.queries.query import Query
from repro.types import QueryId, TermId


@register_algorithm("exhaustive")
class ExhaustiveAlgorithm(StreamAlgorithm):
    """Scores the arriving document against all (matching) queries."""

    name = "exhaustive"

    def __init__(self, decay: ExponentialDecay | None = None, matching_only: bool = True):
        super().__init__(decay)
        self.matching_only = matching_only
        self._term_to_queries: Dict[TermId, Set[QueryId]] = {}

    # ------------------------------------------------------------------ #
    # Structures
    # ------------------------------------------------------------------ #

    def _register_structures(self, query: Query) -> None:
        for term_id in query.vector:
            self._term_to_queries.setdefault(term_id, set()).add(query.query_id)

    def _unregister_structures(self, query: Query) -> None:
        for term_id in query.vector:
            members = self._term_to_queries.get(term_id)
            if members is None:
                continue
            members.discard(query.query_id)
            if not members:
                del self._term_to_queries[term_id]

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #

    def _candidates(self, document: Document) -> Set[QueryId]:
        """Queries sharing a term with ``document`` (all queries when
        ``matching_only`` is off)."""
        if not self.matching_only:
            return set(self.queries)
        candidates: Set[QueryId] = set()
        for term_id in document.vector:
            members = self._term_to_queries.get(term_id)
            if members:
                candidates.update(members)
        return candidates

    def _process_document(
        self, document: Document, amplification: float
    ) -> List[ResultUpdate]:
        # One traversal implementation: the per-event path is the batched
        # walk over a single document.
        return self._scan_documents([document], [amplification])

    def _scan_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[ResultUpdate]:
        """Scoring walk shared by both ingestion paths.

        The candidate set is reused (cleared, not reallocated) and the
        similarity accumulation runs on local bindings, which matters when
        every document visits hundreds of candidate queries.
        """
        updates: List[ResultUpdate] = []
        term_to_queries = self._term_to_queries
        queries = self.queries
        counters = self.counters
        offer = self.offer
        matching_only = self.matching_only
        candidates: Set[QueryId] = set()
        for document, amplification in zip(documents, amplifications):
            candidates.clear()
            if matching_only:
                for term_id in document.vector:
                    members = term_to_queries.get(term_id)
                    if members:
                        candidates.update(members)
            else:
                candidates.update(queries)
            doc_id = document.doc_id
            doc_vector = document.vector
            doc_get = doc_vector.get
            for query_id in candidates:
                query_vector = queries[query_id].vector
                similarity = 0.0
                if len(query_vector) > len(doc_vector):
                    query_get = query_vector.get
                    for term_id, doc_weight in doc_vector.items():
                        other = query_get(term_id)
                        if other is not None:
                            similarity += doc_weight * other
                else:
                    for term_id, query_weight in query_vector.items():
                        other = doc_get(term_id)
                        if other is not None:
                            similarity += query_weight * other
                counters.full_evaluations += 1
                counters.postings_scanned += len(query_vector)
                if similarity <= 0.0:
                    continue
                update = offer(query_id, doc_id, similarity * amplification)
                if update is not None:
                    updates.append(update)
            counters.iterations += 1
        return updates
