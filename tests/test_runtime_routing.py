"""Unit tests for the runtime layer: routing, executors, shard snapshots,
and the decorator-based algorithm registry the shards construct engines
through."""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.core.factory import available_algorithms, create_algorithm
from repro.core.monitor import ContinuousMonitor
from repro.core.registry import register_algorithm, unregister_algorithm
from repro.exceptions import ConfigurationError, UnknownQueryError
from repro.runtime.executors import SerialExecutor, make_executor
from repro.runtime.procpool import ProcessShardExecutor
from repro.runtime.routing import (
    HashPartitionPolicy,
    QueryRouter,
    TermAffinityPolicy,
    make_policy,
)
from repro.runtime.sharded import ShardedMonitor
from tests.helpers import make_query


def _queries(vectors, k=3, start_id=0):
    return [make_query(start_id + i, vector, k) for i, vector in enumerate(vectors)]


class TestHashPolicy:
    def test_modular_placement(self):
        router = QueryRouter(n_shards=4, policy="hash")
        for query in _queries([{i: 1.0} for i in range(8)]):
            assert router.route(query) == query.query_id % 4

    def test_balanced_for_dense_ids(self):
        router = QueryRouter(n_shards=3, policy="hash")
        for query in _queries([{i: 1.0} for i in range(30)]):
            router.route(query)
        assert router.loads() == [10, 10, 10]


class TestTermAffinityPolicy:
    def test_co_locates_shared_terms(self):
        router = QueryRouter(n_shards=4, policy="affinity")
        a = router.route(make_query(0, {7: 1.0, 8: 1.0}, 3))
        b = router.route(make_query(1, {7: 1.0, 9: 1.0}, 3))
        assert a == b  # shares term 7, load slack allows it

    def test_balance_cap_prevents_starvation(self):
        router = QueryRouter(n_shards=4, policy="affinity")
        # 40 queries all sharing one hot term: affinity pulls them together,
        # the slack cap must still spread them.
        for query in _queries([{1: 1.0, 100 + i: 1.0} for i in range(40)]):
            router.route(query)
        loads = router.loads()
        assert sum(loads) == 40
        assert min(loads) > 0
        assert max(loads) - min(loads) <= max(2, int(0.5 * (sum(loads) / 4)))

    def test_release_frees_term_state(self):
        policy = TermAffinityPolicy()
        router = QueryRouter(n_shards=2, policy=policy)
        query = make_query(0, {5: 1.0}, 3)
        shard = router.route(query)
        assert router.release(query) == shard
        assert router.loads() == [0, 0]
        # The freed term no longer attracts: placement restarts from scratch.
        assert router.route(make_query(1, {5: 1.0}, 3)) == 0

    def test_deterministic_assignment(self):
        vectors = [{i % 7: 1.0, (3 * i) % 11 + 20: 1.0} for i in range(25)]
        placements = []
        for _ in range(2):
            router = QueryRouter(n_shards=3, policy="affinity")
            placements.append([router.route(q) for q in _queries(vectors)])
        assert placements[0] == placements[1]

    def test_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            TermAffinityPolicy(balance_slack=-0.1)
        with pytest.raises(ConfigurationError):
            TermAffinityPolicy(max_term_weight=0)


class TestQueryRouter:
    def test_shard_of_and_release(self):
        router = QueryRouter(n_shards=2)
        query = make_query(5, {1: 1.0}, 2)
        shard = router.route(query)
        assert router.shard_of(5) == shard
        assert router.num_queries == 1
        router.release(query)
        with pytest.raises(UnknownQueryError):
            router.shard_of(5)

    def test_duplicate_route_rejected(self):
        router = QueryRouter(n_shards=2)
        query = make_query(1, {1: 1.0}, 2)
        router.route(query)
        with pytest.raises(ConfigurationError):
            router.route(query)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            QueryRouter(n_shards=2, policy="nope")
        with pytest.raises(ConfigurationError):
            make_policy("nope")

    def test_policy_instance_passthrough(self):
        policy = HashPartitionPolicy()
        router = QueryRouter(n_shards=2, policy=policy)
        assert router.policy is policy


class TestExecutors:
    def test_serial_preserves_order(self):
        executor = SerialExecutor()
        assert executor.run([lambda i=i: i * i for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_serial_propagates_exceptions(self):
        executor = SerialExecutor()

        def boom():
            raise RuntimeError("shard failure")

        with pytest.raises(RuntimeError, match="shard failure"):
            executor.run([lambda: 1, boom])

    def test_make_executor(self):
        assert isinstance(make_executor("serial", 4), SerialExecutor)
        processes = make_executor("processes", 4)
        assert isinstance(processes, ProcessShardExecutor)
        assert processes.n_shards == 4
        with pytest.raises(ConfigurationError):
            make_executor("fibers", 4)


class TestEngineShardSnapshot:
    def test_snapshot_restore_roundtrip_continues_stream(self, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=0.1, max_amplification=50.0)
        original = ContinuousMonitor(config)
        for query in _queries([{i % 9: 1.0, (i + 3) % 9: 1.0} for i in range(30)]):
            original.register_query(query)
        half = len(small_documents) // 2
        for document in small_documents[:half]:
            original.process(document)

        clone = ContinuousMonitor(MonitorConfig(algorithm="mrio", lam=0.1, max_amplification=50.0))
        clone.restore(original.snapshot())

        for document in small_documents[half:]:
            original.process(document)
            clone.process(document)
        for query_id in original.queries:
            assert clone.top_k(query_id) == original.top_k(query_id)
            assert clone.threshold(query_id) == original.threshold(query_id)
        assert clone.algorithm.decay.origin == original.algorithm.decay.origin

    def test_snapshot_includes_expiration_window(self, small_documents):
        config = MonitorConfig(algorithm="mrio", window_horizon=10.0)
        original = ContinuousMonitor(config)
        for query in _queries([{i % 5: 1.0} for i in range(10)]):
            original.register_query(query)
        for document in small_documents:
            original.process(document)
        assert original.live_window_size is not None

        clone = ContinuousMonitor(MonitorConfig(algorithm="mrio", window_horizon=10.0))
        clone.restore(original.snapshot())
        assert clone.live_window_size == original.live_window_size

    def test_restore_never_lowers_next_query_id(self):
        """Restoring in place after the newest query left must not reissue
        its id — what ``ensure_next_query_id`` exists to prevent."""
        monitor = ContinuousMonitor(MonitorConfig(algorithm="mrio"))
        for term in range(3):
            monitor.register_vector({term: 1.0})
        monitor.unregister(2)
        assert monitor.next_query_id == 3
        monitor.restore(monitor.snapshot())
        assert monitor.next_query_id == 3
        assert monitor.register_vector({9: 1.0}).query_id == 3
        # A fresh monitor still adopts the capture's high-water mark.
        fresh = ContinuousMonitor(MonitorConfig(algorithm="mrio"))
        fresh.restore(monitor.snapshot())
        assert fresh.next_query_id == 4


class TestAlgorithmRegistry:
    def test_builtins_registered(self):
        assert available_algorithms() == [
            "columnar",
            "exhaustive",
            "mrio",
            "rio",
            "rta",
            "sortquer",
            "tps",
        ]

    def test_custom_algorithm_pluggable_everywhere(self, small_documents):
        from repro.baselines.exhaustive import ExhaustiveAlgorithm

        @register_algorithm("test-echo")
        class EchoAlgorithm(ExhaustiveAlgorithm):
            name = "test-echo"

        try:
            assert "test-echo" in available_algorithms()
            assert isinstance(create_algorithm("test-echo"), EchoAlgorithm)
            # Shard workers construct engines through the registry, so the
            # custom algorithm can host a sharded monitor unchanged.
            monitor = ShardedMonitor(MonitorConfig(algorithm="test-echo"), n_shards=2)
            query = monitor.register_vector({1: 1.0, 2: 1.0}, k=3)
            for document in small_documents[:10]:
                monitor.process(document)
            assert monitor.describe()["algorithm"] == "test-echo"
            assert len(monitor.top_k(query.query_id)) <= 3
            monitor.close()
        finally:
            unregister_algorithm("test-echo")
        assert "test-echo" not in available_algorithms()

    def test_name_collision_rejected(self):
        from repro.core.mrio import MRIOAlgorithm
        from repro.core.rio import RIOAlgorithm

        with pytest.raises(ConfigurationError):
            register_algorithm("mrio", RIOAlgorithm)
        # Re-registering the same class is an idempotent no-op.
        assert register_algorithm("mrio", MRIOAlgorithm) is MRIOAlgorithm

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            create_algorithm("nope")


class TestShardedMonitorSurface:
    def test_describe_reports_topology(self):
        monitor = ShardedMonitor(n_shards=3, policy="affinity", executor="serial")
        monitor.register_vector({1: 1.0}, k=2)
        info = monitor.describe()
        assert info["runtime"] == "sharded"
        assert info["n_shards"] == 3
        assert info["policy"] == "affinity"
        assert info["executor"] == "serial"
        assert sum(info["shard_loads"]) == 1
        monitor.close()

    def test_context_manager_closes_executor(self):
        with ShardedMonitor(n_shards=2, executor="processes") as monitor:
            monitor.register_vector({1: 1.0}, k=1)
        assert monitor._executor._handles is None  # closed

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedMonitor(n_shards=0)
        monitor = ShardedMonitor(n_shards=2)
        with pytest.raises(ConfigurationError):
            monitor.register_keywords(["hello"])  # no vectorizer
        monitor.close()

    def test_unregister_unknown_query(self):
        monitor = ShardedMonitor(n_shards=2)
        with pytest.raises(UnknownQueryError):
            monitor.unregister(99)
        monitor.close()
