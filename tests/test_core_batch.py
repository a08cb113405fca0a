"""Batch ingestion fast path: equivalence, coalescing and plumbing.

The contract under test is that ``process_batch`` is an *optimization*, not
a different algorithm: for every algorithm and every batch partition of the
same stream, the final top-k state must be identical to per-event
``process``.  On top of that the coalescing semantics of the returned
:class:`BatchUpdate` objects are pinned down.
"""

from __future__ import annotations

import pytest

from repro.core.factory import create_algorithm
from repro.core.monitor import ContinuousMonitor
from repro.core.config import MonitorConfig
from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate, coalesce_updates
from repro.documents.decay import ExponentialDecay
from repro.documents.stream import BatchingStream, DocumentStream, StreamConfig
from repro.exceptions import StreamError

from tests.helpers import make_document, make_query

ALGORITHMS = ("mrio", "rio", "rta", "sortquer", "tps", "exhaustive", "columnar")
#: Includes 1 (degenerate batch), a size that does not divide the stream,
#: and a size larger than the whole stream.
BATCH_SIZES = (1, 7, 64, 500)


def _top_k_snapshot(algorithm, ndigits=9):
    return {
        query_id: [
            (entry.doc_id, round(entry.score, ndigits))
            for entry in algorithm.top_k(query_id)
        ]
        for query_id in algorithm.queries
    }


def _build_algorithm(name, small_corpus, small_queries, lam=1e-3, **kwargs):
    algo = create_algorithm(name, ExponentialDecay(lam=lam), **kwargs)
    algo.register_all(small_queries)
    return algo


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_final_state_matches_per_event(
        self, name, batch_size, small_corpus, small_queries
    ):
        stream = DocumentStream(small_corpus, StreamConfig(seed=11))
        documents = stream.take(60)

        sequential = _build_algorithm(name, small_corpus, small_queries)
        for document in documents:
            sequential.process(document)

        batched = _build_algorithm(name, small_corpus, small_queries)
        for start in range(0, len(documents), batch_size):
            batched.process_batch(documents[start : start + batch_size])

        assert _top_k_snapshot(sequential) == _top_k_snapshot(batched)
        assert sequential.counters.documents == batched.counters.documents
        assert sequential.counters.result_updates == batched.counters.result_updates

    @pytest.mark.parametrize("ub_variant", ("exact", "tree", "block"))
    def test_mrio_variants_match_per_event(self, ub_variant, small_corpus, small_queries):
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(50)
        sequential = _build_algorithm(
            "mrio", small_corpus, small_queries, ub_variant=ub_variant
        )
        for document in documents:
            sequential.process(document)
        batched = _build_algorithm(
            "mrio", small_corpus, small_queries, ub_variant=ub_variant
        )
        for start in range(0, len(documents), 16):
            batched.process_batch(documents[start : start + 16])
        assert _top_k_snapshot(sequential) == _top_k_snapshot(batched)

    def test_mixed_per_event_and_batched_ingestion(self, small_corpus, small_queries):
        """Interleaving the two paths on one instance stays consistent."""
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(60)
        sequential = _build_algorithm("mrio", small_corpus, small_queries)
        for document in documents:
            sequential.process(document)

        mixed = _build_algorithm("mrio", small_corpus, small_queries)
        mixed.process_batch(documents[:20])
        for document in documents[20:35]:
            mixed.process(document)
        mixed.process_batch(documents[35:])

        assert _top_k_snapshot(sequential) == _top_k_snapshot(mixed)

    def test_renormalization_amortized_to_one_per_batch(self):
        """A batch triggers at most one renormalization and the ranking it
        produces matches per-event processing (scores agree up to the common
        rescaling factor, so we compare ranked doc ids)."""
        queries = [make_query(0, {1: 1.0, 2: 0.5}, k=3)]
        documents = [
            make_document(i, {1: 1.0 + 0.01 * i, 2: 0.3}, arrival_time=float(i))
            for i in range(40)
        ]
        decay_kwargs = dict(lam=0.5, max_amplification=100.0)

        sequential = create_algorithm("exhaustive", ExponentialDecay(**decay_kwargs))
        sequential.register_all(queries)
        for document in documents:
            sequential.process(document)

        batched = create_algorithm("exhaustive", ExponentialDecay(**decay_kwargs))
        batched.register_all(queries)
        origins = []
        for start in range(0, len(documents), 8):
            batched.process_batch(documents[start : start + 8])
            origins.append(batched.decay.origin)

        # The origin moved (renormalization happened) but only at batch
        # boundaries, i.e. at most once per batch.
        assert len(set(origins)) > 1
        def ranked(algo):
            return [entry.doc_id for entry in algo.top_k(0)]

        assert ranked(sequential) == ranked(batched)

    def test_empty_batch_is_a_noop(self, small_corpus, small_queries):
        algo = _build_algorithm("mrio", small_corpus, small_queries)
        assert algo.process_batch([]) == []
        assert algo.counters.documents == 0

    def test_batch_rejects_out_of_order_arrivals(self, small_corpus, small_queries):
        algo = _build_algorithm("mrio", small_corpus, small_queries)
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(5)
        with pytest.raises(StreamError):
            algo.process_batch([documents[3], documents[1]])
        with pytest.raises(StreamError):
            algo.process_batch([documents[4].with_arrival_time(None)])  # type: ignore[arg-type]

    def test_batch_rejects_arrival_before_previous_batch(
        self, small_corpus, small_queries
    ):
        algo = _build_algorithm("mrio", small_corpus, small_queries)
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(6)
        algo.process_batch(documents[3:])
        with pytest.raises(StreamError):
            algo.process_batch(documents[:3])


class TestCoalescing:
    def test_single_update_passes_through(self):
        updates = [ResultUpdate(query_id=5, doc_id=7, score=2.0, evicted_doc_id=3)]
        (batch_update,) = coalesce_updates(updates)
        assert batch_update == BatchUpdate(
            query_id=5, entries=(ResultEntry(7, 2.0),), evicted_doc_ids=(3,)
        )

    def test_one_update_per_query_even_for_many_documents(self):
        updates = [
            ResultUpdate(query_id=1, doc_id=10, score=1.0),
            ResultUpdate(query_id=1, doc_id=11, score=3.0),
            ResultUpdate(query_id=2, doc_id=10, score=2.0),
        ]
        coalesced = coalesce_updates(updates)
        assert [u.query_id for u in coalesced] == [1, 2]
        assert coalesced[0].entries == (ResultEntry(11, 3.0), ResultEntry(10, 1.0))

    def test_admit_then_evict_within_batch_cancels(self):
        updates = [
            ResultUpdate(query_id=1, doc_id=10, score=1.0),
            # doc 11 pushes doc 10 (admitted above) back out: net zero for 10
            ResultUpdate(query_id=1, doc_id=11, score=3.0, evicted_doc_id=10),
        ]
        (batch_update,) = coalesce_updates(updates)
        assert batch_update.entries == (ResultEntry(11, 3.0),)
        assert batch_update.evicted_doc_ids == ()

    def test_pre_batch_member_eviction_is_reported(self):
        updates = [
            ResultUpdate(query_id=1, doc_id=10, score=2.0, evicted_doc_id=99),
            ResultUpdate(query_id=1, doc_id=11, score=3.0, evicted_doc_id=98),
        ]
        (batch_update,) = coalesce_updates(updates)
        assert batch_update.evicted_doc_ids == (98, 99)

    def test_fully_cancelling_churn_emits_nothing(self):
        updates = [
            ResultUpdate(query_id=1, doc_id=10, score=1.0),
            ResultUpdate(query_id=1, doc_id=11, score=2.0, evicted_doc_id=10),
            ResultUpdate(query_id=1, doc_id=12, score=3.0, evicted_doc_id=11),
        ]
        (batch_update,) = coalesce_updates(updates)
        # Only the last survivor remains; the intermediate admissions vanish.
        assert batch_update.entries == (ResultEntry(12, 3.0),)
        assert batch_update.evicted_doc_ids == ()

    def test_process_batch_returns_coalesced_updates(
        self, small_corpus, small_queries
    ):
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(40)
        algo = _build_algorithm("mrio", small_corpus, small_queries)
        batch_updates = algo.process_batch(documents)
        query_ids = [update.query_id for update in batch_updates]
        assert len(query_ids) == len(set(query_ids))  # at most one per query
        # Every surviving entry must actually be in the final result.
        for update in batch_updates:
            member_ids = {entry.doc_id for entry in algo.top_k(update.query_id)}
            for entry in update.entries:
                assert entry.doc_id in member_ids


class TestMonitorBatch:
    def test_monitor_batch_matches_per_event_with_window(self, small_corpus, small_queries):
        """Deferred expiration at batch boundaries converges to the same
        state because expiration re-evaluates over the live window."""
        documents = DocumentStream(small_corpus, StreamConfig(seed=11)).take(60)
        config = MonitorConfig(algorithm="mrio", lam=1e-3, window_horizon=12.0)

        sequential = ContinuousMonitor(config)
        sequential.register_queries(small_queries)
        for document in documents:
            sequential.process(document)

        batched = ContinuousMonitor(config)
        batched.register_queries(small_queries)
        # Batch size 30 spans 30 time units: more than twice the window.
        for start in range(0, len(documents), 30):
            batched.process_batch(documents[start : start + 30])

        def snap(monitor):
            return {
                query_id: [(e.doc_id, round(e.score, 9)) for e in entries]
                for query_id, entries in monitor.all_results().items()
            }

        assert snap(sequential) == snap(batched)
        assert sequential.live_window_size == batched.live_window_size

    def test_process_batches_drains_a_batching_stream(
        self, small_corpus, small_queries
    ):
        config = MonitorConfig(algorithm="mrio", lam=1e-3)
        per_event = ContinuousMonitor(config)
        per_event.register_queries(small_queries)
        stream = DocumentStream(small_corpus, StreamConfig(seed=11))
        documents = stream.take(50)
        per_event.process_stream(documents)

        batched = ContinuousMonitor(config)
        batched.register_queries(small_queries)
        batched.process_batches(BatchingStream(iter(documents), max_batch=8))

        assert per_event.all_results() == batched.all_results()
