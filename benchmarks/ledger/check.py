"""The output check: replay through the scalar MRIO oracle, compare bitwise.

Query results are independent per query, so a fixed sample of queries
replayed through the scalar engine over the same stamped events must hold
exactly the top-k the system under test reports — same documents, same
float bits.  For the socket workloads the replay also yields, per acked
server batch, the coalesced updates of the subscribed queries, which must
equal the notification sequence the subscriber received.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.core.results import BatchUpdate
from repro.documents.document import Document
from repro.queries.query import Query

from inputs import LAM, ORACLE_SAMPLE_EVERY

TopK = Dict[int, List[Tuple[int, float]]]


def sample_queries(queries: Iterable[Query]) -> List[Query]:
    """The fixed 2 % sample: every query whose id is a multiple of 50."""
    return [query for query in queries if query.query_id % ORACLE_SAMPLE_EVERY == 0]


class Oracle:
    """A scalar MRIO monitor hosting only the queries under check."""

    def __init__(self, queries: Iterable[Query] = ()) -> None:
        self.monitor = ContinuousMonitor(MonitorConfig(algorithm="mrio", lam=LAM))
        self.monitor.register_queries(queries)

    def register(self, query: Query) -> None:
        self.monitor.register_query(query)

    def unregister(self, query_id: int) -> None:
        self.monitor.unregister(query_id)

    def batch(self, documents: Sequence[Document]) -> List[BatchUpdate]:
        return self.monitor.process_batch(list(documents))

    def event(self, document: Document) -> None:
        self.monitor.process(document)

    def top_k(self) -> TopK:
        return top_k_of(self.monitor, self.monitor.algorithm.queries)


def top_k_of(monitor, query_ids: Iterable[int]) -> TopK:
    """``query id -> [(doc id, score), ...]`` best first, as plain tuples."""
    return {
        int(query_id): [(int(e.doc_id), float(e.score)) for e in monitor.top_k(query_id)]
        for query_id in query_ids
    }


def corrupt(expected: TopK) -> None:
    """Damage one reference score (the harness self-test: a check that
    cannot fail is not a check)."""
    for query_id in sorted(expected):
        if expected[query_id]:
            doc_id, score = expected[query_id][0]
            expected[query_id][0] = (doc_id, score * 1.0000001 + 1e-12)
            return
    raise RuntimeError("nothing to corrupt: every sampled result is empty")


def compare_top_k(expected: TopK, actual: TopK, label: str) -> List[str]:
    """Mismatches between two top-k maps (empty list = bitwise equal)."""
    problems: List[str] = []
    for query_id in sorted(set(expected) | set(actual)):
        want = expected.get(query_id)
        got = actual.get(query_id)
        if want != got:
            problems.append(
                f"{label}: query {query_id} top-k differs from the oracle "
                f"(oracle {want!r:.120}, got {got!r:.120})"
            )
    return problems


def updates_by_query(updates: Iterable[BatchUpdate], wanted) -> Dict[int, tuple]:
    """One batch's updates keyed by query id, restricted to ``wanted`` ids."""
    return {
        int(update.query_id): (
            tuple((int(e.doc_id), float(e.score)) for e in update.entries),
            tuple(int(doc_id) for doc_id in update.evicted_doc_ids),
        )
        for update in updates
        if update.query_id in wanted
    }
