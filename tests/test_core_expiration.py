"""Unit and integration tests for window expiration and re-evaluation."""

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from tests.helpers import make_document, make_query


def _monitor(horizon, lam=0.0, algorithm="mrio"):
    return ContinuousMonitor(
        MonitorConfig(algorithm=algorithm, lam=lam, window_horizon=horizon)
    )


class TestExpiration:
    def test_expired_documents_leave_results(self):
        monitor = _monitor(horizon=5.0)
        query = monitor.register_vector({1: 1.0}, k=2)
        monitor.process(make_document(0, {1: 1.0}, 1.0))
        monitor.process(make_document(1, {1: 0.8, 2: 0.6}, 2.0))
        assert len(monitor.top_k(query.query_id)) == 2
        # Far in the future: both early documents fall out of the window.
        monitor.process(make_document(2, {2: 1.0}, 20.0))
        assert all(e.doc_id not in (0, 1) for e in monitor.top_k(query.query_id))
        assert monitor.live_window_size == 1

    def test_reevaluation_backfills_from_window(self):
        monitor = _monitor(horizon=10.0)
        query = monitor.register_vector({1: 1.0}, k=1)
        # doc 0: perfect match, doc 1: weaker match, both live initially.
        monitor.process(make_document(0, {1: 1.0}, 1.0))
        monitor.process(make_document(1, {1: 0.7, 2: 0.7}, 5.0))
        assert [e.doc_id for e in monitor.top_k(query.query_id)] == [0]
        # doc 0 expires (age > 10), doc 1 is still live and must take over.
        monitor.process(make_document(2, {3: 1.0}, 12.0))
        assert [e.doc_id for e in monitor.top_k(query.query_id)] == [1]

    def test_threshold_can_decrease_after_expiration_and_pruning_stays_safe(self):
        monitor = _monitor(horizon=8.0, algorithm="mrio")
        query = monitor.register_vector({1: 1.0}, k=1)
        monitor.process(make_document(0, {1: 1.0}, 1.0))          # strong result
        strong = monitor.algorithm.threshold(query.query_id)
        monitor.process(make_document(1, {2: 1.0}, 10.0))          # expires doc 0
        assert monitor.algorithm.threshold(query.query_id) < strong
        # A mediocre document must now be able to enter the result again,
        # i.e. the cached pruning bounds were refreshed after the decrease.
        updates = monitor.process(make_document(2, {1: 0.5, 3: 0.87}, 11.0))
        assert any(u.query_id == query.query_id for u in updates)

    @pytest.mark.parametrize("algorithm", ["mrio", "rio", "rta", "sortquer", "tps"])
    def test_expiration_consistent_across_algorithms(self, algorithm, small_corpus):
        horizon = 15.0
        reference = _monitor(horizon, lam=1e-3, algorithm="exhaustive")
        candidate = _monitor(horizon, lam=1e-3, algorithm=algorithm)
        queries = [make_query(i, {t: 1.0, t + 1: 0.5}, 3) for i, t in enumerate(range(0, 40, 4))]
        for monitor in (reference, candidate):
            monitor.register_queries(queries)
        docs = [
            doc.with_arrival_time(float(i + 1))
            for i, doc in enumerate(small_corpus.generate_documents(40))
        ]
        for doc in docs:
            reference.process(doc)
            candidate.process(doc)
        for query in queries:
            ref = [(e.doc_id, pytest.approx(e.score, rel=1e-9)) for e in reference.top_k(query.query_id)]
            got = [(e.doc_id, e.score) for e in candidate.top_k(query.query_id)]
            assert got == ref

    def test_holders_bookkeeping(self):
        # A positive decay makes the later identical document strictly better,
        # so it evicts the earlier one from the k=1 result.
        monitor = _monitor(horizon=100.0, lam=0.1)
        query = monitor.register_vector({1: 1.0}, k=1)
        monitor.process(make_document(0, {1: 1.0}, 1.0))
        manager = monitor._expiration
        assert manager is not None
        assert manager.holders_of(0) == {query.query_id}
        # A better document evicts doc 0 from the result; the reverse map follows.
        monitor.process(make_document(1, {1: 1.0}, 2.0))
        assert manager.holders_of(0) == set()


#: Every registered algorithm (MRIO under all three zone-bound variants).
ALGORITHM_CONFIGS = [
    pytest.param({"algorithm": "mrio", "ub_variant": "tree"}, id="mrio-tree"),
    pytest.param({"algorithm": "mrio", "ub_variant": "exact"}, id="mrio-exact"),
    pytest.param({"algorithm": "mrio", "ub_variant": "block"}, id="mrio-block"),
    pytest.param({"algorithm": "rio"}, id="rio"),
    pytest.param({"algorithm": "rta"}, id="rta"),
    pytest.param({"algorithm": "sortquer"}, id="sortquer"),
    pytest.param({"algorithm": "tps"}, id="tps"),
    pytest.param({"algorithm": "exhaustive"}, id="exhaustive"),
    pytest.param({"algorithm": "columnar"}, id="columnar"),
]


@pytest.mark.parametrize("batch", [None, 8, 64], ids=["per-event", "batch8", "batch64"])
@pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
def test_holder_map_equals_result_membership(overrides, batch, small_corpus, small_queries):
    """Referee for the holder map: after every ingestion call it names, for
    each document, exactly the live queries whose top-k holds it."""
    from repro.documents.stream import DocumentStream, StreamConfig

    documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(160)
    monitor = ContinuousMonitor(MonitorConfig(lam=1e-3, window_horizon=12.0, **overrides))
    monitor.register_queries(small_queries)
    manager = monitor._expiration
    step = 1 if batch is None else batch
    held = 0
    for start in range(0, len(documents), step):
        if batch is None:
            monitor.process(documents[start])
        else:
            monitor.process_batch(documents[start : start + step])
        expected = {}
        for query_id in monitor.queries:
            for entry in monitor.top_k(query_id):
                expected.setdefault(entry.doc_id, set()).add(query_id)
        assert manager._holders == expected, f"holder map drifted after doc {start}"
        held = max(held, len(expected))
    assert held > 0, "workload filled no result"
    assert monitor.live_window_size < len(documents), "nothing expired"
