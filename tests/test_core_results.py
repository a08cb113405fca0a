"""Unit and property tests for top-k result maintenance."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.factory import create_algorithm
from repro.core.results import (
    ArenaBatch,
    ResultArena,
    ResultStore,
    ResultUpdate,
    TopKResult,
    coalesce_updates,
)
from repro.documents.decay import ExponentialDecay
from repro.exceptions import QueryError, UnknownQueryError
from repro.queries.query import MAX_K
from repro.queries.store import QueryStore
from tests.helpers import make_document, make_query


class TestTopKResult:
    def test_fills_up_then_replaces(self):
        result = TopKResult(k=2)
        assert result.offer(1, 0.5) == (True, None)
        assert result.offer(2, 0.3) == (True, None)
        assert result.full
        assert result.threshold == pytest.approx(0.3)
        accepted, evicted = result.offer(3, 0.4)
        assert accepted and evicted == 2
        assert result.threshold == pytest.approx(0.4)

    def test_threshold_zero_while_not_full(self):
        result = TopKResult(k=3)
        result.offer(1, 5.0)
        assert result.threshold == 0.0

    def test_strict_acceptance(self):
        result = TopKResult(k=1)
        result.offer(1, 0.5)
        assert result.offer(2, 0.5) == (False, None)
        assert result.offer(2, 0.500001) == (True, 1)

    def test_rejects_duplicates_and_non_positive(self):
        result = TopKResult(k=3)
        result.offer(1, 0.5)
        assert result.offer(1, 0.9) == (False, None)
        assert result.offer(2, 0.0) == (False, None)
        assert result.offer(2, -1.0) == (False, None)

    def test_entries_sorted_best_first(self):
        result = TopKResult(k=3)
        for doc_id, score in [(1, 0.2), (2, 0.9), (3, 0.5)]:
            result.offer(doc_id, score)
        assert [e.doc_id for e in result.entries()] == [2, 3, 1]
        assert [e.score for e in result.entries()] == sorted(
            [e.score for e in result.entries()], reverse=True
        )

    def test_membership_and_score_of(self):
        result = TopKResult(k=2)
        result.offer(5, 0.7)
        assert 5 in result
        assert 6 not in result
        assert result.score_of(5) == pytest.approx(0.7)
        assert result.score_of(6) is None

    def test_remove(self):
        result = TopKResult(k=2)
        result.offer(1, 0.5)
        result.offer(2, 0.8)
        assert result.remove(1)
        assert not result.remove(1)
        assert len(result) == 1
        assert result.threshold == 0.0  # no longer full

    def test_scale(self):
        result = TopKResult(k=2)
        result.offer(1, 4.0)
        result.offer(2, 2.0)
        result.scale(2.0)
        assert result.score_of(1) == pytest.approx(2.0)
        assert result.threshold == pytest.approx(1.0)

    def test_scale_invalid_factor(self):
        with pytest.raises(ValueError):
            TopKResult(k=1).scale(0.0)

    def test_replace_all(self):
        result = TopKResult(k=2)
        result.offer(1, 0.5)
        result.replace_all([(10, 0.9), (11, 0.1), (12, 0.4)])
        assert [e.doc_id for e in result.entries()] == [10, 12]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKResult(k=0)

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_offline_topk(self, scores, k):
        """Incremental maintenance equals sorting all offers offline.

        Doc ids are unique per offer, mirroring the real system where a
        stream document is offered to a query at most once.
        """
        result = TopKResult(k=k)
        for doc_id, score in enumerate(scores):
            result.offer(doc_id, score)
        expected = sorted(enumerate(scores), key=lambda item: (-item[1], item[0]))[:k]
        got = [(e.doc_id, e.score) for e in result.entries()]
        # Scores must match exactly; document identity may differ only on ties.
        assert [round(s, 12) for _, s in got] == [round(s, 12) for _, s in expected]

    @given(
        st.lists(st.floats(min_value=0.001, max_value=10.0, allow_nan=False), min_size=1, max_size=40)
    )
    def test_threshold_monotone_without_removals(self, scores):
        """S_k never decreases while documents only arrive (no expiration)."""
        result = TopKResult(k=5)
        previous = 0.0
        for doc_id, score in enumerate(scores):
            result.offer(doc_id, score)
            assert result.threshold >= previous
            previous = result.threshold


class TestResultStore:
    def test_add_and_offer(self):
        store = ResultStore()
        store.add_query(make_query(1, {1: 1.0}, k=2))
        update = store.offer(1, 10, 0.5)
        assert update is not None
        assert update.query_id == 1
        assert update.doc_id == 10
        assert update.evicted_doc_id is None
        assert store.threshold(1) == 0.0

    def test_offer_rejection_returns_none(self):
        store = ResultStore()
        store.add_query(make_query(1, {1: 1.0}, k=1))
        store.offer(1, 10, 0.9)
        assert store.offer(1, 11, 0.1) is None

    def test_unknown_query(self):
        store = ResultStore()
        assert store.threshold(42) == 0.0
        with pytest.raises(UnknownQueryError):
            store.get(42)
        with pytest.raises(UnknownQueryError):
            store.offer(42, 1, 0.5)

    def test_remove_query(self):
        store = ResultStore()
        store.add_query(make_query(1, {1: 1.0}, k=1))
        store.remove_query(1)
        assert 1 not in store
        assert len(store) == 0

    def test_scale_all(self):
        store = ResultStore()
        store.add_query(make_query(1, {1: 1.0}, k=1))
        store.add_query(make_query(2, {1: 1.0}, k=1))
        store.offer(1, 10, 4.0)
        store.offer(2, 10, 6.0)
        store.scale_all(2.0)
        assert store.threshold(1) == pytest.approx(2.0)
        assert store.threshold(2) == pytest.approx(3.0)

    def test_eviction_reported(self):
        store = ResultStore()
        store.add_query(make_query(1, {1: 1.0}, k=1))
        store.offer(1, 10, 0.5)
        update = store.offer(1, 11, 0.8)
        assert update.evicted_doc_id == 10


class TestResultArena:
    """The columnar engine's slot-addressed arena against the sequential
    model: :meth:`TopKResult.offer_tracked` per candidate, then
    :func:`coalesce_updates`."""

    #: Few distinct scores (zero and a negative among them), so ties land
    #: on the top-k boundary all the time.
    SCORES = (-1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0)

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_batch_offer_equals_sequential_model(self, data):
        store = QueryStore()
        arena = ResultArena(store)
        model = {}
        next_query = [0]
        next_doc = [1000]

        def register():
            query_id = next_query[0]
            next_query[0] += 1
            k = data.draw(st.sampled_from((1, 2, 3)))
            query = make_query(query_id, {1: 1.0}, k=k)
            store.register(query)
            arena.add_query(query)
            model[query_id] = TopKResult(k)

        def unregister(query_id):
            arena.remove_query(query_id)  # while the slot is still registered
            store.unregister(query_id)
            del model[query_id]

        def check_state():
            thresholds = store.thresholds_view()
            for query_id, result in model.items():
                assert _bits(arena.entries(query_id)) == _bits(result.entries())
                assert arena.threshold(query_id) == result.threshold
                assert thresholds[store.slot_of(query_id)] == result.threshold
            captured = arena.snapshot()
            assert captured == {
                query_id: result.snapshot() for query_id, result in model.items() if len(result)
            }
            return captured

        for _ in range(data.draw(st.integers(2, 5))):
            register()
        # Rows pre-filled from heapq-ordered (not sorted) lists.
        prefill = {}
        for query_id in data.draw(st.lists(st.sampled_from(sorted(model)), unique=True)):
            scratch = TopKResult(model[query_id].k)
            for score in data.draw(st.lists(st.sampled_from(self.SCORES[2:]), max_size=4)):
                scratch.offer(next_doc[0], score)
                next_doc[0] += 1
            prefill[query_id] = {"k": scratch.k, "heap": list(scratch._heap)}
            model[query_id].restore(prefill[query_id])
        arena.restore(prefill)
        store.refresh_thresholds(arena.threshold)
        check_state()

        for _ in range(data.draw(st.integers(1, 5))):
            action = data.draw(st.sampled_from(("batch", "batch", "batch", "churn", "scale", "restore")))
            if action == "churn" and len(model) > 1:
                unregister(data.draw(st.sampled_from(sorted(model))))
                register()  # reuses the freed slot
            elif action == "scale":
                factor = data.draw(st.sampled_from((2.0, 3.0, 0.5)))
                arena.scale_all(factor)
                store.scale_thresholds(factor)
                for result in model.values():
                    result.scale(factor)
            elif action == "restore":
                captured = check_state()
                arena.restore({query_id: {"k": 1, "heap": []} for query_id in model})
                arena.restore(captured)
                assert repr(arena.snapshot()) == repr(captured)
            else:
                self._batch(data, store, arena, model, next_doc)
            check_state()

    def _batch(self, data, store, arena, model, next_doc):
        """One batch: rows in arrival order, a doc id may repeat across
        rows, slots may get several candidates (several rounds)."""
        n_rows = data.draw(st.integers(1, 6))
        row_doc_ids = [
            next_doc[0] + data.draw(st.integers(0, max(0, n_rows - 2))) for _ in range(n_rows)
        ]
        next_doc[0] += n_rows
        candidates = []  # (row, query id, doc id, score), arrival order
        for row in range(n_rows):
            for query_id in sorted(model):
                if data.draw(st.booleans()):
                    score = data.draw(st.sampled_from(self.SCORES))
                    candidates.append((row, query_id, row_doc_ids[row], score))
        expected = []
        for row, query_id, doc_id, score in candidates:
            accepted, evicted, _ = model[query_id].offer_tracked(doc_id, score)
            if accepted:
                expected.append(ResultUpdate(query_id, doc_id, score, evicted))

        chunk_rows = data.draw(st.integers(1, n_rows))
        chunks = [
            [c for c in candidates if start <= c[0] < start + chunk_rows]
            for start in range(0, n_rows, chunk_rows)
        ]
        batch = ArenaBatch(arena, len(chunks), store.thresholds_view())
        accepted = 0
        for chunk in chunks:
            if not chunk:
                continue
            chunk = sorted(chunk, key=lambda c: (c[0], store.slot_of(c[1])))
            accepted += batch.offer(
                np.array([c[0] for c in chunk], dtype=np.int64),
                np.array([store.slot_of(c[1]) for c in chunk], dtype=np.int64),
                np.array([c[2] for c in chunk], dtype=np.int64),
                np.array([c[3] for c in chunk], dtype=np.float64),
            )
        assert accepted == len(expected)
        assert batch.batch_updates() == coalesce_updates(expected)
        if n_rows == 1:
            assert batch.result_updates() == expected

    def test_registration_touches_no_arena_memory(self):
        """Counts, not timings: registering touches no arena memory, the
        packed store costs what a heap engine's does, and a reused slot
        starts with an empty row."""
        queries = [
            make_query(i, {i % 97: 1.0, 97 + i % 13: 0.5}, k=1 + i % 10) for i in range(10_000)
        ]
        columnar = create_algorithm("columnar", ExponentialDecay(lam=0.0))
        heaps = create_algorithm("mrio", ExponentialDecay(lam=0.0))
        columnar.register_all(queries)
        heaps.register_all(queries)
        assert columnar.results.nbytes() == 0
        assert columnar.store.nbytes() == heaps.store.nbytes()

        columnar.process_batch([make_document(1, {3: 1.0, 100: 0.5}, 1.0)])
        assert columnar.results.nbytes() > 0
        holder = next(q.query_id for q in queries if columnar.top_k(q.query_id))
        slot = columnar.store.slot_of(holder)
        columnar.unregister(holder)
        newcomer = make_query(10_000, {3: 1.0}, k=10)
        columnar.register(newcomer)
        assert columnar.store.slot_of(newcomer.query_id) == slot
        assert columnar.top_k(newcomer.query_id) == []
        assert columnar.threshold(newcomer.query_id) == 0.0
        assert columnar.results.snapshot().get(newcomer.query_id) is None

    def test_rows_follow_the_largest_live_k(self):
        """A k past MAX_K is refused before it reaches any store; one wide
        query widens every row only while it is registered, and the rows
        narrow again without losing a member."""
        with pytest.raises(QueryError, match="at most"):
            make_query(0, {3: 1.0}, k=10**7)
        queries = [make_query(i, {3: 1.0, 4 + i: 1.0}, k=1 + i % 2) for i in range(6)]
        wide = make_query(6, {3: 1.0}, k=MAX_K)
        columnar = create_algorithm("columnar", ExponentialDecay(lam=0.0))
        oracle = create_algorithm("mrio", ExponentialDecay(lam=0.0))
        for algorithm in (columnar, oracle):
            algorithm.register_all(queries + [wide])
            algorithm.process_batch([make_document(1, {3: 1.0, 4: 0.5}, 1.0)])
        rows = columnar.store.capacity
        assert columnar.results.nbytes() == rows * (MAX_K * 16 + 8)

        for algorithm in (columnar, oracle):
            algorithm.unregister(wide.query_id)
            algorithm.process_batch(
                [make_document(2, {3: 0.5, 5: 1.0}, 2.0), make_document(3, {3: 2.0}, 3.0)]
            )
        assert columnar.results.nbytes() == rows * (2 * 16 + 8)
        assert columnar.results.snapshot() == oracle.results.snapshot()
        assert columnar.counters.result_updates == oracle.counters.result_updates


def _bits(entries):
    return [(entry.doc_id, entry.score.hex()) for entry in entries]
