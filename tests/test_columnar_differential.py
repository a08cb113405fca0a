"""Differential oracle: the columnar engine against every scalar engine.

The columnar engine (``repro.core.columnar``) reimplements the probe as
array operations; the scalar engines are the oracle.  Two comparison tiers
exist, and the tests pin both:

* **Bitwise tier** (MRIO, RIO): these engines accumulate dot products in
  ascending term-id order — the canonical summation — and the columnar
  accumulator is contractually bound to the same order, so every score,
  threshold and result entry must be *exactly* equal (``==``, no
  tolerance).
* **Ulp tier** (exhaustive, RTA, SortQuer, TPS): these sum in candidate/
  dict order, so scores may differ in the last ulp; result membership must
  still be identical except across exact score ties.

The grid covers all algorithm configs x per-event/batched ingestion x
register/unregister churn x window expiration x decay renormalization.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.columnar import ColumnarAlgorithm
from repro.core.config import MonitorConfig
from repro.core.factory import create_algorithm
from repro.core.monitor import ContinuousMonitor
from repro.documents.decay import ExponentialDecay
from repro.runtime.sharded import ShardedMonitor

from tests.helpers import (
    assert_threshold_column_matches_heaps,
    make_document,
    make_query,
    sparse_vector_strategy,
)

#: Every scalar algorithm configuration of the integration grid.
SCALAR_CONFIGS = [
    ("rio", {}),
    ("mrio", {"ub_variant": "exact"}),
    ("mrio", {"ub_variant": "tree"}),
    ("mrio", {"ub_variant": "block", "block_size": 4}),
    ("rta", {"min_stale": 2, "stale_fraction": 0.0}),
    ("sortquer", {"min_stale": 2, "stale_fraction": 0.0}),
    ("tps", {}),
    ("exhaustive", {}),
]

#: Engines whose summation order matches the columnar contract bitwise.
BITWISE_ORACLES = ("rio", "mrio")

LAM = 1e-3


def _drive(algorithm, queries, documents, batch_size, churn=True):
    """One churn-heavy scenario, identical for oracle and candidate.

    Registers half the queries up front, streams a prefix, unregisters a
    query and registers a late one mid-stream, then streams the rest —
    per-event when ``batch_size`` is None, else in fixed-size batches.
    """
    split = max(1, len(queries) // 2)
    algorithm.register_all(queries[:split])

    def feed(docs):
        if batch_size is None:
            for document in docs:
                algorithm.process(document)
        else:
            for start in range(0, len(docs), batch_size):
                algorithm.process_batch(docs[start : start + batch_size])

    midpoint = len(documents) // 2
    feed(documents[:midpoint])
    if churn:
        algorithm.unregister(queries[0].query_id)
    algorithm.register_all(queries[split:])
    feed(documents[midpoint:])


def _live_queries(queries, churn=True):
    return [q for q in queries if not (churn and q is queries[0])]


def _assert_bitwise_equal(candidate, oracle, queries, label=""):
    """Exact equality: same documents, same float bits, same thresholds."""
    for query in queries:
        got = candidate.top_k(query.query_id)
        want = oracle.top_k(query.query_id)
        assert [(e.doc_id, e.score) for e in got] == [
            (e.doc_id, e.score) for e in want
        ], f"{label}: top-k differs for query {query.query_id}"
        assert candidate.threshold(query.query_id) == oracle.threshold(query.query_id), (
            f"{label}: threshold differs for query {query.query_id}"
        )


def _assert_same_result_sets(candidate, oracle, queries, label=""):
    """Identical membership, ulp-tolerant scores (ties may swap doc ids)."""
    for query in queries:
        got = candidate.top_k(query.query_id)
        want = oracle.top_k(query.query_id)
        assert len(got) == len(want), f"{label}: size differs for query {query.query_id}"
        for rank, (g, w) in enumerate(zip(got, want)):
            assert g.score == pytest.approx(w.score, rel=1e-9, abs=1e-12), (
                f"{label}: score differs for query {query.query_id} at rank {rank}"
            )
        # Membership must agree exactly unless the boundary scores tie.
        got_ids, want_ids = {e.doc_id for e in got}, {e.doc_id for e in want}
        if got_ids != want_ids:
            tied_scores = {e.score for e in got} & {e.score for e in want}
            assert tied_scores, (
                f"{label}: result-set membership differs without a tie "
                f"for query {query.query_id}: {got_ids ^ want_ids}"
            )


class TestFullGridDifferential:
    """All scalar configs x per-event/batched x churn, on the seeded corpus."""

    @pytest.mark.parametrize("name, kwargs", SCALAR_CONFIGS)
    @pytest.mark.parametrize(
        "batch_size", [None, 1, 7, 64], ids=["per-event", "batch1", "batch7", "batch64"]
    )
    def test_columnar_matches_scalar(
        self, name, kwargs, batch_size, small_queries, small_documents
    ):
        oracle = create_algorithm(name, ExponentialDecay(lam=LAM), **kwargs)
        candidate = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        queries = small_queries[:60]
        _drive(oracle, queries, small_documents, batch_size)
        _drive(candidate, queries, small_documents, batch_size)
        live = _live_queries(queries)
        label = f"columnar-vs-{name}{kwargs}@{batch_size}"
        if name in BITWISE_ORACLES:
            _assert_bitwise_equal(candidate, oracle, live, label=label)
        else:
            _assert_same_result_sets(candidate, oracle, live, label=label)

    def test_batched_equals_per_event_on_columnar(self, small_queries, small_documents):
        """process_batch is an optimization of process, not a different engine."""
        queries = small_queries[:60]
        per_event = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        batched = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        _drive(per_event, queries, small_documents, None)
        _drive(batched, queries, small_documents, 64)
        _assert_bitwise_equal(batched, per_event, _live_queries(queries))

    def test_multi_chunk_probe_equals_single_chunk_and_mrio(
        self, monkeypatch, small_queries, small_documents
    ):
        """Every tier-1 population fits one probe chunk at the real cell
        budget; shrink it to ~3 rows per chunk so a 16-document batch
        crosses chunk boundaries.  Chunk boundaries are keyed on the live
        count, so results *and* work counters must not move."""
        queries = small_queries[:60]

        def run(name):
            algorithm = create_algorithm(name, ExponentialDecay(lam=LAM))
            _drive(algorithm, queries, small_documents, 16)
            counters = algorithm.counters.snapshot()
            counters.pop("elapsed_seconds")
            return algorithm, counters

        mrio, _ = run("mrio")
        single, single_counters = run("columnar")
        assert single._chunk_rows() > 16
        monkeypatch.setattr("repro.core.columnar.CELL_BUDGET", 3 * len(queries))
        chunked, chunked_counters = run("columnar")
        assert chunked._chunk_rows() == 3

        live = _live_queries(queries)
        _assert_bitwise_equal(chunked, single, live, label="multi-chunk")
        _assert_bitwise_equal(chunked, mrio, live, label="multi-chunk-vs-mrio")
        assert chunked_counters == single_counters
        assert_threshold_column_matches_heaps(chunked)

    @pytest.mark.parametrize("batch_size", [None, 16], ids=["per-event", "batch16"])
    def test_dense_and_sorted_accumulation_agree(
        self, monkeypatch, batch_size, small_queries, small_documents
    ):
        """Tiny chunks sum into a dense block, larger ones sort their pairs
        first; forcing either path must not move a score bit or a counter."""
        queries = small_queries[:60]

        def run(dense_cells):
            monkeypatch.setattr("repro.core.columnar.DENSE_CELLS", dense_cells)
            algorithm = create_algorithm("columnar", ExponentialDecay(lam=LAM))
            _drive(algorithm, queries, small_documents, batch_size)
            counters = algorithm.counters.snapshot()
            counters.pop("elapsed_seconds")
            return algorithm, counters

        dense, dense_counters = run(1 << 30)
        sorted_, sorted_counters = run(0)
        _assert_bitwise_equal(dense, sorted_, _live_queries(queries), label="dense-vs-sorted")
        assert dense_counters == sorted_counters
        assert dense.results.snapshot() == sorted_.results.snapshot()


class TestSummationOrderContract:
    """The float-summation order contract: ascending term id, one IEEE add
    per matched term — pinned against hand-computed sums and the scalar
    engines, so shard-partitioned and columnar scores stay bitwise-stable."""

    def test_score_equals_term_ordered_partial_sum(self):
        # Weights chosen so the sum is order-sensitive in float64: the
        # ascending-term sum and the descending-term sum differ in the last
        # ulp, which is exactly what the contract disambiguates.
        query = make_query(0, {1: 4.23, 2: 3.802, 3: 2.132, 4: 1.332}, k=1)
        document = make_document(
            7, {1: 2.581, 2: 2.054, 3: 3.93, 4: 1.551}, arrival_time=1.0
        )
        expected = 0.0
        for term_id in sorted(query.vector):
            expected += document.vector[term_id] * query.vector[term_id]
        backwards = 0.0
        for term_id in sorted(query.vector, reverse=True):
            backwards += document.vector[term_id] * query.vector[term_id]
        assert expected != backwards, "example is not order-sensitive; pick new weights"

        for name in ("columnar", "mrio", "rio"):
            algorithm = create_algorithm(name, ExponentialDecay(lam=0.0))
            algorithm.register(query)
            algorithm.process(document)
            (entry,) = algorithm.top_k(0)
            assert entry.score == expected, f"{name} broke the summation order contract"

    def test_columnar_bitwise_equals_mrio_on_corpus(self, small_queries, small_documents):
        """Every score and threshold, across a realistic stream: exact."""
        mrio = create_algorithm("mrio", ExponentialDecay(lam=LAM), ub_variant="exact")
        columnar = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        for algorithm in (mrio, columnar):
            algorithm.register_all(small_queries)
            for start in range(0, len(small_documents), 16):
                algorithm.process_batch(small_documents[start : start + 16])
        _assert_bitwise_equal(columnar, mrio, small_queries, label="corpus")

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_partitioning_is_bitwise_stable(
        self, n_shards, small_queries, small_documents
    ):
        """Partitioning columnar engines across shards must not move a bit:
        the per-query stream is unchanged and scores are partition-invariant
        under the canonical summation."""
        reference = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        reference.register_all(small_queries)
        for document in small_documents:
            reference.process(document)

        monitor = ShardedMonitor(
            MonitorConfig(algorithm="columnar", lam=LAM), n_shards=n_shards
        )
        monitor.register_queries(small_queries)
        for document in small_documents:
            monitor.process(document)
        try:
            for query in small_queries:
                assert [
                    (e.doc_id, e.score) for e in monitor.top_k(query.query_id)
                ] == [(e.doc_id, e.score) for e in reference.top_k(query.query_id)]
        finally:
            monitor.close()


class TestExpirationAndRenormalization:
    """Window expiration (threshold decreases) and decay renormalization
    (wholesale score rescaling) — the two paths that mutate thresholds
    outside normal stream processing."""

    @pytest.mark.parametrize("batch_size", [None, 8], ids=["per-event", "batch8"])
    def test_window_expiration_matches_mrio(
        self, batch_size, small_queries, small_documents
    ):
        monitors = {
            name: ContinuousMonitor(
                MonitorConfig(algorithm=name, lam=LAM, window_horizon=8.0)
            )
            for name in ("mrio", "columnar")
        }
        for monitor in monitors.values():
            monitor.register_queries(small_queries[:40])
            if batch_size is None:
                for document in small_documents:
                    monitor.process(document)
            else:
                for start in range(0, len(small_documents), batch_size):
                    monitor.process_batch(small_documents[start : start + batch_size])
        assert monitors["mrio"].live_window_size is not None
        _assert_bitwise_equal(
            monitors["columnar"],
            monitors["mrio"],
            small_queries[:40],
            label="expiration",
        )
        for monitor in monitors.values():
            # Expiration lowers thresholds; the column must follow.
            assert_threshold_column_matches_heaps(monitor.algorithm)
            monitor.close()

    def test_aggressive_renormalization_matches_mrio(self, small_queries, small_documents):
        lam = 0.05
        engines = {}
        for name in ("mrio", "columnar"):
            algorithm = create_algorithm(
                name, ExponentialDecay(lam=lam, max_amplification=1.5)
            )
            algorithm.register_all(small_queries)
            for document in small_documents:
                algorithm.process(document)
            engines[name] = algorithm
        assert engines["columnar"].decay.origin > 0.0  # renormalization fired
        _assert_bitwise_equal(
            engines["columnar"], engines["mrio"], small_queries, label="renormalize"
        )
        for algorithm in engines.values():
            assert_threshold_column_matches_heaps(algorithm)

    def test_compaction_storm_preserves_results(self, small_queries, small_documents):
        """Unregistering most of the population mid-stream leaves the slot
        table three-quarters free; the survivors' results must not move a
        bit (nothing is compacted: their slots stay where they were)."""
        queries = small_queries
        mrio = create_algorithm("mrio", ExponentialDecay(lam=LAM))
        columnar = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        for algorithm in (mrio, columnar):
            algorithm.register_all(queries)
            for document in small_documents[:15]:
                algorithm.process(document)
            for query in queries[: (3 * len(queries)) // 4]:
                algorithm.unregister(query.query_id)
            for document in small_documents[15:]:
                algorithm.process(document)
        assert isinstance(columnar, ColumnarAlgorithm)
        # The one slot table never outgrew the peak population, and the
        # freed slots wait on the store's free list for the next arrivals.
        store = columnar.store
        assert store.capacity <= len(queries)
        assert store.free_slot_count == (3 * len(queries)) // 4
        assert store.capacity - store.free_slot_count == columnar.index.num_live
        survivors = queries[(3 * len(queries)) // 4 :]
        _assert_bitwise_equal(columnar, mrio, survivors, label="compaction")
        assert_threshold_column_matches_heaps(columnar)


class TestSnapshotRestoreLayoutIndependence:
    """A restored engine registers densely while the captured one may
    carry free slots; work counters are defined layout-independently, so
    replaying the same suffix on both must stay exact — the property
    ``DurableMonitor`` crash recovery depends on."""

    def test_codec_roundtrip_replay_exact_despite_free_slots(
        self, small_queries, small_documents
    ):
        from repro.persistence import codec

        original = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        original.register_all(small_queries)
        for start in range(0, 20, 4):
            original.process_batch(small_documents[start : start + 4])
        for query in small_queries[:10]:  # leave holes in the slot table
            original.unregister(query.query_id)
        assert original.store.free_slot_count == 10

        line = codec.pack_line(codec.encode_monitor_state(original.snapshot()))
        restored = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        restored.restore(codec.decode_monitor_state(codec.unpack_line(line)))
        assert restored.store.free_slot_count == 0  # re-registered densely
        assert restored.store.capacity < original.store.capacity

        # Same capture again, byte for byte, through the codec.
        assert codec.canonical_dumps(
            codec.encode_monitor_state(restored.snapshot())
        ) == codec.canonical_dumps(codec.encode_monitor_state(original.snapshot()))

        # Identical future behaviour, counters included.
        for start in range(20, len(small_documents), 8):
            batch = small_documents[start : start + 8]
            original.process_batch(batch)
            restored.process_batch(batch)
        counters_a = original.counters.snapshot()
        counters_b = restored.counters.snapshot()
        counters_a.pop("elapsed_seconds")
        counters_b.pop("elapsed_seconds")
        assert counters_a == counters_b
        _assert_bitwise_equal(restored, original, small_queries[10:], label="restore")
        for algorithm in (original, restored):
            assert_threshold_column_matches_heaps(algorithm)


class TestRandomizedDifferential:
    """Hypothesis micro-worlds, shrinkable to minimal counterexamples."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        query_vectors=st.lists(
            sparse_vector_strategy(vocab_size=12, max_terms=3), min_size=1, max_size=10
        ),
        doc_vectors=st.lists(
            sparse_vector_strategy(vocab_size=12, max_terms=6), min_size=1, max_size=20
        ),
        k=st.integers(min_value=1, max_value=4),
        lam=st.sampled_from([0.0, 1e-3, 0.05]),
        batch_size=st.sampled_from([None, 1, 3]),
    )
    def test_columnar_bitwise_equals_mrio(
        self, query_vectors, doc_vectors, k, lam, batch_size
    ):
        queries = [make_query(i, vec, k) for i, vec in enumerate(query_vectors)]
        documents = [
            make_document(i, vec, arrival_time=float(i + 1))
            for i, vec in enumerate(doc_vectors)
        ]
        mrio = create_algorithm("mrio", ExponentialDecay(lam=lam))
        columnar = create_algorithm("columnar", ExponentialDecay(lam=lam))
        churn = len(queries) > 1  # keep at least one registered query
        _drive(mrio, queries, documents, batch_size, churn=churn)
        _drive(columnar, queries, documents, batch_size, churn=churn)
        _assert_bitwise_equal(
            columnar, mrio, _live_queries(queries, churn=churn), label="hypothesis"
        )
        for algorithm in (columnar, mrio):
            assert_threshold_column_matches_heaps(algorithm)


class TestReturnedUpdatesOnTies:
    """The *returned* notifications, not just the final state: ``process``
    lists and ``process_batch`` lists must equal MRIO's item for item
    (order, score bits, evicted ids) on a stream whose documents and
    queries repeat a handful of weight vectors, so exact score ties land
    on the top-k boundary all the time."""

    @staticmethod
    def _tie_queries():
        return [
            make_query(q, {q % 5: 1.0, 5 + (2 * q) % 7: 0.5}, (1, 3, 10)[q % 3])
            for q in range(36)
        ]

    @staticmethod
    def _tie_documents(lam):
        # With decay, only documents sharing an arrival time tie; group them.
        return [
            make_document(
                i,
                {i % 5: 1.0, 5 + (3 * i) % 7: 0.5 + i % 2, 12 + i % 2: 0.25},
                float(1 + (i // 4 if lam else i)),
            )
            for i in range(200)
        ]

    def _run(self, name, batch_size, lam):
        queries = self._tie_queries()
        documents = self._tie_documents(lam)
        algorithm = create_algorithm(name, ExponentialDecay(lam=lam))
        returned = []

        def feed(docs):
            if batch_size is None:
                for document in docs:
                    returned.append(algorithm.process(document))
            else:
                for start in range(0, len(docs), batch_size):
                    returned.append(algorithm.process_batch(docs[start : start + batch_size]))

        algorithm.register_all(queries[:24])
        feed(documents[:70])
        for query in queries[:24:5]:  # churn: free slots, then reuse them
            algorithm.unregister(query.query_id)
        algorithm.register_all(queries[24:])
        feed(documents[70:130])
        restored = create_algorithm(name, ExponentialDecay(lam=lam))
        restored.restore(algorithm.snapshot())
        algorithm = restored
        feed(documents[130:])
        return algorithm, returned

    @pytest.mark.parametrize("lam", [0.0, 1e-2], ids=["no-decay", "decay"])
    @pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "multi-chunk"])
    @pytest.mark.parametrize(
        "batch_size", [None, 1, 8, 64], ids=["per-event", "batch1", "batch8", "batch64"]
    )
    def test_returned_updates_equal_mrio_on_ties(self, monkeypatch, batch_size, chunked, lam):
        mrio, want = self._run("mrio", batch_size, lam)
        if chunked:
            # ~3 documents per probe chunk: a batch crosses chunk boundaries.
            monkeypatch.setattr("repro.core.columnar.CELL_BUDGET", 3 * 36)
        columnar, got = self._run("columnar", batch_size, lam)
        assert len(got) == len(want)
        for step, (got_step, want_step) in enumerate(zip(got, want)):
            assert got_step == want_step, f"returned updates differ at call {step}"
        assert sum(map(len, want)) > 0
        assert columnar.counters.result_updates == mrio.counters.result_updates
        assert columnar.results.snapshot() == mrio.results.snapshot()
        live = [q for q in self._tie_queries() if q.query_id in mrio.queries]
        _assert_bitwise_equal(columnar, mrio, live, label="ties")
        assert_threshold_column_matches_heaps(columnar)
