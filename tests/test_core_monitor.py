"""Unit tests for the ContinuousMonitor facade."""

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.core.mrio import MRIOAlgorithm
from repro.documents.stream import DocumentStream, StreamConfig
from repro.exceptions import ConfigurationError, QueryError, UnknownQueryError
from repro.text.vectorizer import Vectorizer
from repro.text.vocabulary import Vocabulary
from tests.helpers import make_document, make_query


class TestMonitorConfig:
    def test_defaults(self):
        config = MonitorConfig()
        assert config.algorithm == "mrio"
        assert config.ub_variant == "tree"

    def test_invalid_lambda(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(lam=-1.0)

    def test_invalid_variant(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(ub_variant="foo")

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(window_horizon=0.0)


class TestMonitorRegistration:
    def test_default_algorithm_is_mrio(self):
        monitor = ContinuousMonitor()
        assert isinstance(monitor.algorithm, MRIOAlgorithm)
        assert monitor.algorithm.ub_variant == "tree"

    def test_algorithm_selection(self):
        monitor = ContinuousMonitor(MonitorConfig(algorithm="rio"))
        assert monitor.algorithm.name == "rio"

    def test_register_vector_assigns_ids(self):
        monitor = ContinuousMonitor()
        first = monitor.register_vector({1: 1.0, 2: 1.0}, k=5)
        second = monitor.register_vector({3: 1.0})
        assert first.query_id == 0
        assert second.query_id == 1
        assert second.k == monitor.config.default_k
        assert monitor.num_queries == 2

    def test_register_vector_rejects_k_zero(self):
        """``k=0`` is an invalid query, not a request for the default."""
        monitor = ContinuousMonitor()
        with pytest.raises(QueryError):
            monitor.register_vector({1: 1.0}, k=0)
        assert monitor.num_queries == 0
        assert monitor.register_vector({1: 1.0}, k=None).k == monitor.config.default_k

    def test_register_query_respects_explicit_id(self):
        monitor = ContinuousMonitor()
        monitor.register_query(make_query(10, {1: 1.0}, k=2))
        follow_up = monitor.register_vector({2: 1.0})
        assert follow_up.query_id == 11

    def test_register_keywords_requires_vectorizer(self):
        with pytest.raises(ConfigurationError):
            ContinuousMonitor().register_keywords(["breaking", "news"])

    def test_register_keywords_with_vectorizer(self):
        monitor = ContinuousMonitor(vectorizer=Vectorizer(Vocabulary()))
        query = monitor.register_keywords(["breaking", "news"], k=3, user="alice")
        assert query.k == 3
        assert query.user == "alice"
        assert query.num_terms == 2

    def test_register_keywords_all_stopwords_rejected(self):
        monitor = ContinuousMonitor(vectorizer=Vectorizer(Vocabulary()))
        with pytest.raises(ConfigurationError):
            monitor.register_keywords(["the", "and"])

    def test_unregister(self):
        monitor = ContinuousMonitor()
        query = monitor.register_vector({1: 1.0})
        monitor.unregister(query.query_id)
        assert monitor.num_queries == 0
        with pytest.raises(UnknownQueryError):
            monitor.unregister(query.query_id)


class TestMonitorProcessing:
    def test_process_and_results(self):
        monitor = ContinuousMonitor()
        query = monitor.register_vector({1: 1.0}, k=2)
        updates = monitor.process(make_document(0, {1: 1.0}, 1.0))
        assert len(updates) == 1
        top = monitor.top_k(query.query_id)
        assert [e.doc_id for e in top] == [0]
        assert monitor.all_results()[query.query_id] == top

    def test_capture_listeners_attach_on_first_use(self):
        """An uncaptured engine keeps an empty rebase-listener list;
        switching the capture on attaches its listener once."""
        monitor = ContinuousMonitor(MonitorConfig(lam=0.1))
        monitor.register_vector({1: 1.0}, k=2)
        engine = monitor.algorithm
        monitor.capture_renorms = False  # never switched on: nothing to silence
        assert engine._renormalize_listeners == []
        assert monitor.drain_renormalizations() == []

        monitor.capture_renorms = True
        monitor.process(make_document(0, {1: 1.0}, 1.0))
        monitor.renormalize(1.0)
        assert [origin for origin, _ in monitor.drain_renormalizations()] == [1.0]

        monitor.capture_renorms = False
        monitor.capture_renorms = True
        assert len(engine._renormalize_listeners) == 1
        monitor.capture_renorms = False
        monitor.renormalize(2.0)
        assert monitor.drain_renormalizations() == []

    def test_process_stream_with_limit(self, small_corpus):
        monitor = ContinuousMonitor()
        monitor.register_vector({1: 1.0, 2: 1.0})
        stream = DocumentStream(small_corpus, StreamConfig(seed=3))
        monitor.process_stream(stream, limit=10)
        assert monitor.statistics.documents == 10
        assert monitor.statistics.elapsed_seconds > 0.0

    def test_process_stream_with_limit_consumes_only_the_limit(self, small_corpus):
        """Two bounded calls on one iterator process consecutive documents:
        the limit stops before pulling the next one off the iterator."""
        monitor = ContinuousMonitor()
        monitor.register_vector({1: 1.0, 2: 1.0})
        documents = DocumentStream(small_corpus, StreamConfig(seed=3)).take(8)
        remaining = iter(documents)
        monitor.process_stream(remaining, limit=3)
        monitor.process_stream(remaining, limit=3)
        assert monitor.statistics.documents == 6
        assert monitor.last_arrival == documents[5].arrival_time
        assert next(remaining) is documents[6]

    def test_process_text_requires_vectorizer(self):
        monitor = ContinuousMonitor()
        with pytest.raises(ConfigurationError):
            monitor.process_text(0, "some text", 1.0)

    def test_process_text_end_to_end(self):
        vectorizer = Vectorizer(Vocabulary())
        monitor = ContinuousMonitor(vectorizer=vectorizer)
        query = monitor.register_keywords(["stream", "monitoring"], k=2)
        updates = monitor.process_text(0, "Monitoring document streams at scale", 1.0)
        assert any(u.query_id == query.query_id for u in updates)
        # A completely unrelated text should not disturb the result.
        monitor.process_text(1, "cooking pasta recipes", 2.0)
        assert [e.doc_id for e in monitor.top_k(query.query_id)] == [0]

    def test_process_text_with_no_known_terms_is_noop(self):
        monitor = ContinuousMonitor(vectorizer=Vectorizer(Vocabulary()))
        monitor.register_keywords(["alpha"])
        assert monitor.process_text(0, "the of and", 1.0) == []

    def test_custom_algorithm_instance(self):
        algo = MRIOAlgorithm(ub_variant="exact")
        monitor = ContinuousMonitor(algorithm=algo)
        assert monitor.algorithm is algo

    def test_describe(self):
        monitor = ContinuousMonitor(MonitorConfig(window_horizon=50.0))
        info = monitor.describe()
        assert info["algorithm"] == "mrio"
        assert info["window_horizon"] == 50.0
        assert monitor.live_window_size == 0
        assert ContinuousMonitor().live_window_size is None


class TestMonitorLifecycleParity:
    """API parity: every monitor flavour is managed the same way."""

    def test_close_is_idempotent_and_context_managed(self):
        with ContinuousMonitor() as monitor:
            monitor.register_vector({1: 1.0})
            monitor.process(make_document(0, {1: 1.0}, 1.0))
        monitor.close()  # second close is a no-op
        # Closing releases nothing in-memory: reads still work.
        assert monitor.num_queries == 1

    def test_every_monitor_flavour_has_the_lifecycle_surface(self):
        from repro.persistence.durable import DurableMonitor
        from repro.runtime.sharded import ShardedMonitor

        for flavour in (ContinuousMonitor, ShardedMonitor, DurableMonitor):
            assert callable(getattr(flavour, "close"))
            assert hasattr(flavour, "__enter__") and hasattr(flavour, "__exit__")
            assert isinstance(getattr(flavour, "last_arrival"), property)
            assert isinstance(getattr(flavour, "next_query_id"), property)

    def test_last_arrival_tracks_the_stream_clock(self):
        monitor = ContinuousMonitor()
        assert monitor.last_arrival is None
        monitor.register_vector({1: 1.0})
        monitor.process(make_document(0, {1: 1.0}, 2.5))
        assert monitor.last_arrival == 2.5
        monitor.process_batch([make_document(1, {1: 1.0}, 4.0)])
        assert monitor.last_arrival == 4.0
