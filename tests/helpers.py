"""Test helpers: compact random generators for documents and queries.

The hypothesis-based differential tests need to generate many tiny
documents/queries quickly; going through the full corpus generator would be
slow and would obscure the minimal failing examples hypothesis shrinks to.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from hypothesis import strategies as st

from repro.documents.document import Document
from repro.queries.query import Query
from repro.text.similarity import l2_normalize


def make_document(doc_id: int, term_weights: Dict[int, float], arrival_time: float) -> Document:
    """Build a document from raw (positive) term weights, normalizing them."""
    return Document(
        doc_id=doc_id, vector=l2_normalize(term_weights), arrival_time=arrival_time
    )


def make_query(query_id: int, term_weights: Dict[int, float], k: int) -> Query:
    """Build a query from raw (positive) term weights, normalizing them."""
    return Query(query_id=query_id, vector=l2_normalize(term_weights), k=k)


def sparse_vector_strategy(
    vocab_size: int = 30, min_terms: int = 1, max_terms: int = 6
) -> st.SearchStrategy[Dict[int, float]]:
    """Hypothesis strategy for small raw (unnormalized) sparse vectors."""
    return st.dictionaries(
        keys=st.integers(min_value=0, max_value=vocab_size - 1),
        values=st.floats(min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False),
        min_size=min_terms,
        max_size=max_terms,
    )


def assert_threshold_column_matches_heaps(algorithm) -> None:
    """The store's threshold column is *the* propagated ``S_k``: for every
    live query it equals the result heap's threshold, and every free slot
    reads ``+inf`` (so vectorized masks and ``min`` need no liveness test)."""
    store = algorithm.store
    qids = store.qids_view()
    thresholds = store.thresholds_view()
    assert len(qids) == len(thresholds) == store.capacity
    live = 0
    for slot in range(store.capacity):
        query_id = int(qids[slot])
        if query_id < 0:
            assert thresholds[slot] == math.inf, f"free slot {slot} is not +inf"
        else:
            live += 1
            assert store.slot_of(query_id) == slot
            assert thresholds[slot] == algorithm.results.threshold(query_id), (
                f"store threshold of query {query_id} is stale"
            )
    assert live == len(store) == store.capacity - store.free_slot_count


def brute_force_topk(
    query: Query, documents: Sequence[Document], lam: float
) -> List[Tuple[int, float]]:
    """Reference top-k computation: score every document, sort, truncate.

    Earlier documents win ties (mirroring the strict-acceptance rule of the
    incremental result maintenance).
    """
    scored = []
    for document in documents:
        similarity = sum(
            weight * document.vector.get(term_id, 0.0)
            for term_id, weight in query.vector.items()
        )
        if similarity <= 0.0 or document.arrival_time is None:
            continue
        score = similarity * math.exp(lam * document.arrival_time)
        scored.append((document.doc_id, score))
    # Sort by score descending; ties keep the earlier (smaller) doc id, which
    # is also what incremental maintenance with strict acceptance produces.
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[: query.k]
