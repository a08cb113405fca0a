"""Unit tests for the StreamAlgorithm base machinery (via the exhaustive oracle)."""

import math

import pytest

from repro.baselines.exhaustive import ExhaustiveAlgorithm
from repro.core.factory import available_algorithms, create_algorithm
from repro.documents.decay import ExponentialDecay
from repro.exceptions import (
    ConfigurationError,
    DuplicateQueryError,
    StreamError,
    UnknownQueryError,
)
from tests.helpers import make_document, make_query


class TestRegistration:
    def test_register_and_unregister(self):
        algo = ExhaustiveAlgorithm()
        query = make_query(0, {1: 1.0}, k=3)
        algo.register(query)
        assert algo.num_queries == 1
        algo.unregister(0)
        assert algo.num_queries == 0

    def test_duplicate_registration_rejected(self):
        algo = ExhaustiveAlgorithm()
        algo.register(make_query(0, {1: 1.0}, k=3))
        with pytest.raises(DuplicateQueryError):
            algo.register(make_query(0, {2: 1.0}, k=3))

    def test_unknown_unregister_rejected(self):
        with pytest.raises(UnknownQueryError):
            ExhaustiveAlgorithm().unregister(3)

    def test_register_all(self):
        algo = ExhaustiveAlgorithm()
        algo.register_all(make_query(i, {1: 1.0}, k=2) for i in range(5))
        assert algo.num_queries == 5


class TestProcessing:
    def test_document_without_arrival_time_rejected(self):
        algo = ExhaustiveAlgorithm()
        algo.register(make_query(0, {1: 1.0}, k=1))
        with pytest.raises(StreamError):
            algo.process(make_document(0, {1: 1.0}, arrival_time=None))  # type: ignore[arg-type]

    def test_out_of_order_arrival_rejected(self):
        algo = ExhaustiveAlgorithm()
        algo.register(make_query(0, {1: 1.0}, k=1))
        algo.process(make_document(0, {1: 1.0}, 5.0))
        with pytest.raises(StreamError):
            algo.process(make_document(1, {1: 1.0}, 4.0))

    def test_updates_and_listeners(self):
        algo = ExhaustiveAlgorithm()
        algo.register(make_query(0, {1: 1.0}, k=1))
        updates = algo.process(make_document(0, {1: 1.0}, 1.0))
        assert len(updates) == 1
        assert (updates[0].query_id, updates[0].doc_id) == (0, 0)
        assert updates[0].evicted_doc_id is None

    def test_scores_follow_equation_1(self):
        lam = 0.01
        algo = ExhaustiveAlgorithm(decay=ExponentialDecay(lam=lam))
        algo.register(make_query(0, {1: 3.0, 2: 4.0}, k=1))
        algo.process(make_document(0, {1: 3.0, 2: 4.0}, 10.0))
        entry = algo.top_k(0)[0]
        # Identical direction -> cosine 1; amplified by exp(lam * tau).
        assert entry.score == pytest.approx(math.exp(lam * 10.0))

    def test_exact_score_uses_smaller_vector(self):
        algo = ExhaustiveAlgorithm()
        query = make_query(0, {1: 1.0}, k=1)
        doc = make_document(0, {1: 1.0, 2: 1.0, 3: 1.0}, 0.0)
        assert algo.exact_score(query, doc, 1.0) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_counters_and_response_times(self):
        algo = ExhaustiveAlgorithm()
        algo.register(make_query(0, {1: 1.0}, k=1))
        for i in range(3):
            algo.process(make_document(i, {1: 1.0}, float(i)))
        algo.process_batch([make_document(i, {1: 1.0}, float(i)) for i in range(3, 5)])
        assert algo.counters.documents == 5
        assert algo.counters.elapsed_seconds > 0.0

    def test_describe(self):
        algo = ExhaustiveAlgorithm()
        info = algo.describe()
        assert info["algorithm"] == "exhaustive"
        assert info["num_queries"] == 0


class TestRenormalization:
    def test_automatic_renormalization_preserves_results(self):
        decay = ExponentialDecay(lam=1.0, max_amplification=math.exp(5.0))
        algo = ExhaustiveAlgorithm(decay=decay)
        algo.register(make_query(0, {1: 1.0, 2: 1.0}, k=3))
        # Documents far enough apart to force several renormalizations.
        docs = [
            make_document(0, {1: 1.0}, 1.0),
            make_document(1, {1: 1.0, 2: 1.0}, 7.0),
            make_document(2, {2: 1.0}, 14.0),
        ]
        for doc in docs:
            algo.process(doc)
        assert decay.origin > 0.0
        # Newer documents dominate because of the decay, despite renormalization.
        assert [e.doc_id for e in algo.top_k(0)] == [2, 1, 0]

    def test_manual_renormalize_scales_thresholds(self):
        algo = ExhaustiveAlgorithm(decay=ExponentialDecay(lam=0.1))
        algo.register(make_query(0, {1: 1.0}, k=1))
        algo.process(make_document(0, {1: 1.0}, 10.0))
        before = algo.threshold(0)
        factor = algo.renormalize(10.0)
        assert factor == pytest.approx(math.exp(1.0))
        assert algo.threshold(0) == pytest.approx(before / factor)


class TestFactory:
    def test_available_algorithms(self):
        names = available_algorithms()
        assert set(names) == {
            "rio",
            "mrio",
            "rta",
            "sortquer",
            "tps",
            "exhaustive",
            "columnar",
        }

    def test_create_each_algorithm(self):
        for name in available_algorithms():
            algo = create_algorithm(name)
            assert algo.name == name

    def test_case_insensitive(self):
        assert create_algorithm("MRIO").name == "mrio"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            create_algorithm("bm25")

    def test_kwargs_forwarded(self):
        algo = create_algorithm("mrio", ub_variant="block", block_size=16)
        assert algo.ub_variant == "block"
        assert algo.block_size == 16
