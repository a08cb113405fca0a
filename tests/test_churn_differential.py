"""Differential oracle under unregister-heavy churn storms.

The flash-crowd regime the query store was built for: registrations and
unregistrations interleaved *densely* with stream processing — several
membership changes per event, slots freed and reused many times over,
heap tombstones accumulating and compacting mid-stream.  Scalar MRIO is
the oracle; every other engine and topology must stay **bitwise**
identical for the surviving queries (MRIO/RIO/columnar all accumulate in
canonical ascending-term-id order, so there is no tolerance tier here).

The storm schedule is derived deterministically from a seed and replayed
identically into every engine: a query population cycles through
register -> process a little -> unregister (three departures for every
two arrivals once the storm starts), so the same query id is registered
and unregistered repeatedly — which is exactly the slot/heap-reuse
pattern a dict-based store would never stress.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import MonitorConfig
from repro.core.factory import create_algorithm
from repro.documents.decay import ExponentialDecay
from repro.runtime.sharded import ShardedMonitor

from tests.helpers import (
    assert_threshold_column_matches_heaps,
    make_document,
    make_query,
    sparse_vector_strategy,
)

LAM = 1e-3

#: Engines bound to the canonical summation order: compared bitwise.
BITWISE_ENGINES = ("rio", "columnar")


def storm_schedule(queries, num_events, seed=20180711):
    """A deterministic churn storm: ``("register", query)``,
    ``("unregister", query_id)`` and ``("process", index)`` steps.

    Residents (the first half) stay registered throughout.  The rest churn:
    every few events one joins, and once joined its lifetime is short — the
    same id keeps coming back, so freed slots are reused across the run.
    """
    rng = random.Random(seed)
    residents = queries[: len(queries) // 2]
    churners = queries[len(queries) // 2 :]
    steps = [("register", query) for query in residents]
    live = []  # currently registered churners
    parked = list(churners)
    for index in range(num_events):
        steps.append(("process", index))
        if parked and rng.random() < 0.6:
            joiner = parked.pop(rng.randrange(len(parked)))
            steps.append(("register", joiner))
            live.append(joiner)
        # Unregister-heavy: up to two departures per event once live.
        for _ in range(2):
            if live and rng.random() < 0.45:
                leaver = live.pop(rng.randrange(len(live)))
                steps.append(("unregister", leaver.query_id))
                parked.append(leaver)  # will re-register under the same id
    return steps, residents + live


def replay(algorithm, steps, documents, batch_size=None):
    """Feed the storm into an engine; batching only groups the stream."""
    pending = []

    def flush():
        if not pending:
            return
        if batch_size is None:
            for document in pending:
                algorithm.process(document)
        else:
            for start in range(0, len(pending), batch_size):
                algorithm.process_batch(pending[start : start + batch_size])
        pending.clear()

    for step, payload in steps:
        if step == "process":
            pending.append(documents[payload])
            if batch_size is None or len(pending) >= batch_size:
                flush()
        elif step == "register":
            flush()  # membership changes are ordering barriers
            if hasattr(algorithm, "register"):
                algorithm.register(payload)
            else:  # monitor-style surface (ShardedMonitor)
                algorithm.register_query(payload)
        else:
            flush()
            algorithm.unregister(payload)
    flush()


def _peak_live(steps):
    """The largest number of simultaneously registered queries in ``steps``."""
    live = peak = 0
    for step, _ in steps:
        if step != "process":
            live += 1 if step == "register" else -1
            peak = max(peak, live)
    return peak


def assert_bitwise_equal(candidate, oracle, queries, label=""):
    for query in queries:
        got = candidate.top_k(query.query_id)
        want = oracle.top_k(query.query_id)
        assert [(e.doc_id, e.score) for e in got] == [
            (e.doc_id, e.score) for e in want
        ], f"{label}: top-k differs for query {query.query_id}"
        assert candidate.threshold(query.query_id) == oracle.threshold(
            query.query_id
        ), f"{label}: threshold differs for query {query.query_id}"


class TestChurnStormDifferential:
    @pytest.mark.parametrize("engine", BITWISE_ENGINES)
    @pytest.mark.parametrize(
        "batch_size", [None, 8], ids=["per-event", "batch8"]
    )
    def test_engine_matches_mrio_through_storm(
        self, engine, batch_size, small_queries, small_documents
    ):
        steps, survivors = storm_schedule(small_queries[:80], len(small_documents))
        oracle = create_algorithm("mrio", ExponentialDecay(lam=LAM))
        candidate = create_algorithm(engine, ExponentialDecay(lam=LAM))
        replay(oracle, steps, small_documents, batch_size)
        replay(candidate, steps, small_documents, batch_size)
        assert_bitwise_equal(
            candidate, oracle, survivors, label=f"{engine}@{batch_size}"
        )
        peak_live = _peak_live(steps)
        for algorithm in (oracle, candidate):
            # One slot table, reused through the free list: never wider
            # than the peak live population, its S_k column never stale.
            assert algorithm.store.capacity <= peak_live
            assert_threshold_column_matches_heaps(algorithm)

    def test_columnar_storm_counters_are_pinned(self, small_queries, small_documents):
        """Literal work counters of one seeded storm, written down at the
        commit before the index lost its private slot table: counts are
        defined on live queries and match structure, never on slot layout,
        so no relayout of the slot space may move them."""
        steps, _ = storm_schedule(small_queries[:80], len(small_documents))
        columnar = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        replay(columnar, steps, small_documents, batch_size=8)
        counters = columnar.counters.snapshot()
        counters.pop("elapsed_seconds")
        assert counters == {
            "documents": 40,
            "full_evaluations": 516,
            "iterations": 40,
            "postings_scanned": 625,
            "bound_computations": 1662,
            "result_updates": 312,
        }

    @pytest.mark.parametrize("engine", ("mrio", "columnar"))
    def test_reused_slot_inherits_nothing(self, engine):
        """``q`` leaves, ``q'`` — sharing no term with ``q`` — takes its
        slot, then a document matching only ``q``'s terms arrives: no
        posting may still address the slot, so no offer reaches ``q'``."""
        algorithm = create_algorithm(engine, ExponentialDecay(lam=LAM))
        bystander = make_query(0, {1: 1.0}, k=2)
        leaver = make_query(1, {2: 1.0, 3: 2.0}, k=2)
        algorithm.register_all([bystander, leaver])
        algorithm.process_batch([make_document(0, {1: 1.0, 2: 1.0, 3: 1.0}, 1.0)])
        assert algorithm.top_k(1), "the leaver's terms were live"
        slot = algorithm.store.slot_of(1)

        algorithm.unregister(1)
        newcomer = make_query(2, {7: 1.0, 8: 1.0}, k=2)
        algorithm.register(newcomer)
        assert algorithm.store.slot_of(2) == slot
        assert algorithm.store.capacity == 2

        updates = algorithm.process_batch([make_document(1, {2: 1.0, 3: 1.0}, 2.0)])
        assert updates == []
        assert algorithm.top_k(2) == []
        assert algorithm.threshold(2) == 0.0
        updates = algorithm.process_batch([make_document(2, {7: 1.0}, 3.0)])
        assert [update.query_id for update in updates] == [2]
        assert_threshold_column_matches_heaps(algorithm)

    def test_mrio_storm_state_is_history_independent(
        self, small_queries, small_documents
    ):
        """After the storm, the oracle's state for the survivors equals a
        fresh engine that only ever saw the survivors — churn must leave no
        residue in bounds, thresholds or results."""
        steps, survivors = storm_schedule(small_queries[:80], len(small_documents))
        churned = create_algorithm("mrio", ExponentialDecay(lam=LAM))
        replay(churned, steps, small_documents)

        # Replay only the survivors' registrations at their original
        # position in the storm; drop every other membership step.
        survivor_ids = {query.query_id for query in survivors}
        clean_steps = [
            (step, payload)
            for step, payload in steps
            if step == "process"
            or (step == "register" and payload.query_id in survivor_ids)
        ]
        # A survivor may have churned before its final stay: keep only the
        # *last* registration of each id.
        last_position = {}
        for position, (step, payload) in enumerate(clean_steps):
            if step == "register":
                last_position[payload.query_id] = position
        clean_steps = [
            (step, payload)
            for position, (step, payload) in enumerate(clean_steps)
            if step == "process" or last_position[payload.query_id] == position
        ]
        clean = create_algorithm("mrio", ExponentialDecay(lam=LAM))
        replay(clean, steps=clean_steps, documents=small_documents)

        for query in survivors:
            got = [(e.doc_id, e.score) for e in churned.top_k(query.query_id)]
            want = [(e.doc_id, e.score) for e in clean.top_k(query.query_id)]
            # Documents seen before (re-)registration can't be in either
            # result; from the final registration on, streams coincide.
            assert got == want, f"churn residue for query {query.query_id}"

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_sharded_churn_matches_single_engine(
        self, n_shards, small_queries, small_documents
    ):
        """register/unregister storms routed through the shard router must
        land bitwise on the single-engine result."""
        steps, survivors = storm_schedule(small_queries[:60], len(small_documents))
        reference = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        replay(reference, steps, small_documents)

        monitor = ShardedMonitor(
            MonitorConfig(algorithm="columnar", lam=LAM), n_shards=n_shards
        )
        try:
            replay(monitor, steps, small_documents)
            assert monitor.num_queries == len(survivors)
            for query in survivors:
                assert [
                    (e.doc_id, e.score) for e in monitor.top_k(query.query_id)
                ] == [
                    (e.doc_id, e.score) for e in reference.top_k(query.query_id)
                ]
        finally:
            monitor.close()


class TestRandomizedChurn:
    """Hypothesis micro-storms, shrinkable to minimal counterexamples."""

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        query_vectors=st.lists(
            sparse_vector_strategy(vocab_size=12, max_terms=3), min_size=2, max_size=10
        ),
        doc_vectors=st.lists(
            sparse_vector_strategy(vocab_size=12, max_terms=6), min_size=1, max_size=16
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        batch_size=st.sampled_from([None, 3]),
    )
    def test_columnar_bitwise_equals_mrio_under_storm(
        self, query_vectors, doc_vectors, seed, batch_size
    ):
        queries = [make_query(i, vec, k=3) for i, vec in enumerate(query_vectors)]
        documents = [
            make_document(i, vec, arrival_time=float(i + 1))
            for i, vec in enumerate(doc_vectors)
        ]
        steps, survivors = storm_schedule(queries, len(documents), seed=seed)
        oracle = create_algorithm("mrio", ExponentialDecay(lam=LAM))
        candidate = create_algorithm("columnar", ExponentialDecay(lam=LAM))
        replay(oracle, steps, documents, batch_size)
        replay(candidate, steps, documents, batch_size)
        assert_bitwise_equal(candidate, oracle, survivors, label="hypothesis-storm")
        for algorithm in (candidate, oracle):
            assert algorithm.store.capacity <= _peak_live(steps)
            assert_threshold_column_matches_heaps(algorithm)
