"""Differential tests: the sharded runtime against the single monitor.

The contract of :class:`~repro.runtime.sharded.ShardedMonitor` is exact
equivalence: for every algorithm, partitioning the query set over 1, 2 or 4
engine shards (under either executor) must yield *identical* top-k results,
scores, thresholds, coalesced update streams and partition-invariant
counters as one :class:`~repro.core.monitor.ContinuousMonitor` hosting all
queries — identical meaning ``==`` on floats, not approximate.

Two classes of counters exist and the tests treat them differently:

* partition-invariant — ``documents`` (stream length) and
  ``result_updates`` (a query admits a document based on its own state
  only): compared exactly;
* partition-dependent — ``iterations`` / ``bound_computations`` /
  ``full_evaluations`` measure *pruning work*, whose zones change with the
  query partition; only their lossless per-shard aggregation is asserted.

One caveat is embraced rather than hidden: TPS accumulates a query's score
term-at-a-time in an order derived from shard-local maxima, so its floats
can differ in the last ulp between partitionings; its scores are compared
with a 1e-12 relative tolerance while everything else stays exact.
"""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.metrics.counters import EventCounters
from repro.persistence import codec
from repro.runtime.sharded import ShardedMonitor

SHARD_COUNTS = (1, 2, 4)
#: In-process grid; the process executor runs the same grid against the
#: serial runtime in ``tests/test_runtime_procpool.py``.
EXECUTORS = ("serial",)

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

LAM = 1e-3
BATCH = 8


def _config(overrides, **extra):
    return MonitorConfig(lam=LAM, **overrides, **extra)


def _run_single(config, queries, documents, batch=BATCH):
    monitor = ContinuousMonitor(config)
    monitor.register_queries(queries)
    per_batch = []
    for start in range(0, len(documents), batch):
        per_batch.append(monitor.process_batch(documents[start : start + batch]))
    return monitor, per_batch


def _run_sharded(config, queries, documents, n_shards, executor, batch=BATCH, policy="hash"):
    monitor = ShardedMonitor(config, n_shards=n_shards, policy=policy, executor=executor)
    monitor.register_queries(queries)
    per_batch = []
    for start in range(0, len(documents), batch):
        per_batch.append(monitor.process_batch(documents[start : start + batch]))
    monitor.close()
    return monitor, per_batch


def _updates_by_query(batch_updates):
    """One batch's coalesced updates keyed by query (order-insensitive view)."""
    merged = {}
    for update in batch_updates:
        assert update.query_id not in merged, "two BatchUpdates for one query"
        merged[update.query_id] = (update.entries, update.evicted_doc_ids)
    return merged


def _assert_identical_state(single, sharded, queries, exact=True, label=""):
    for query in queries:
        want = single.top_k(query.query_id)
        got = sharded.top_k(query.query_id)
        if exact:
            assert got == want, f"{label}: top-k differs for query {query.query_id}"
        else:
            assert [entry.doc_id for entry in got] == [entry.doc_id for entry in want], (
                f"{label}: top-k membership differs for query {query.query_id}"
            )
            for g, w in zip(got, want):
                assert g.score == pytest.approx(w.score, rel=1e-12)
        want_threshold = single.algorithm.threshold(query.query_id)
        got_threshold = sharded.threshold(query.query_id)
        if exact:
            assert got_threshold == want_threshold, f"{label}: threshold differs"
        else:
            assert got_threshold == pytest.approx(want_threshold, rel=1e-12)


def _encoded(host):
    """Canonical bytes of a host's encoded state, minus its one timing field."""
    encoded = host.snapshot_encoded()
    encoded["counters"] = dict(encoded["counters"], elapsed_seconds=0.0)
    return codec.canonical_dumps(encoded)


class TestShardedEquivalence:
    """ShardedMonitor × {1, 2, 4} shards (serial executor) ≡ ContinuousMonitor."""

    @pytest.mark.parametrize("window_horizon", [None, 12.0], ids=["unbounded", "window"])
    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    def test_a_shard_is_a_continuous_monitor(
        self, overrides, window_horizon, small_queries, small_documents
    ):
        """One host: the same script through a bare monitor and through the
        lone shard of a one-shard facade leaves byte-equal encoded state,
        and ``restore_encoded(snapshot_encoded())`` is a fixed point."""
        config = _config(overrides, window_horizon=window_horizon)
        bare = ContinuousMonitor(config)
        sharded = ShardedMonitor(config, n_shards=1, executor="serial")
        for monitor in (bare, sharded):
            monitor.register_queries(small_queries[:30])
            for document in small_documents[:5]:
                monitor.process(document)
            monitor.unregister(small_queries[3].query_id)
            monitor.process_batch(small_documents[5:20])
            monitor.renormalize(small_documents[19].arrival_time)
            monitor.register_queries(small_queries[30:36])
            monitor.process_batch(small_documents[20:30])
        (shard,) = sharded.shards
        assert type(shard) is ContinuousMonitor
        assert _encoded(shard) == _encoded(bare)

        fresh = ContinuousMonitor(config)
        fresh.restore_encoded(bare.snapshot_encoded())
        assert _encoded(fresh) == _encoded(bare)

    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    def test_batched_ingestion_matches_single_monitor(
        self, overrides, small_queries, small_documents
    ):
        exact = overrides["algorithm"] != "tps"
        single, single_batches = _run_single(_config(overrides), small_queries, small_documents)
        for executor in EXECUTORS:
            for n_shards in SHARD_COUNTS:
                label = f"{overrides}@{n_shards}/{executor}"
                sharded, sharded_batches = _run_sharded(
                    _config(overrides), small_queries, small_documents, n_shards, executor
                )
                _assert_identical_state(single, sharded, small_queries, exact, label)
                # The same coalesced updates, batch by batch.
                assert len(single_batches) == len(sharded_batches)
                for want, got in zip(single_batches, sharded_batches):
                    if exact:
                        assert _updates_by_query(got) == _updates_by_query(want), label
                    else:
                        assert sorted(u.query_id for u in got) == sorted(
                            u.query_id for u in want
                        ), label
                # Partition-invariant counters merge back exactly.
                assert sharded.statistics.documents == single.statistics.documents
                assert sharded.statistics.result_updates == single.statistics.result_updates

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"algorithm": "mrio", "ub_variant": "tree"}, id="mrio-tree"),
            pytest.param({"algorithm": "rio"}, id="rio"),
        ],
    )
    def test_per_event_ingestion_matches_single_monitor(
        self, overrides, small_queries, small_documents
    ):
        single = ContinuousMonitor(_config(overrides))
        single.register_queries(small_queries)
        sharded = ShardedMonitor(_config(overrides), n_shards=3, executor="serial")
        sharded.register_queries(small_queries)
        for document in small_documents:
            want = single.process(document)
            got = sharded.process(document)
            # Per-event updates merge to the same set; the facade orders
            # them by query id.
            assert sorted(want, key=lambda u: u.query_id) == got
        _assert_identical_state(single, sharded, small_queries, exact=True)
        sharded.close()

    def test_window_expiration_matches_single_monitor(self, small_queries, small_documents):
        config = dict(algorithm="mrio", ub_variant="tree")
        single, _ = _run_single(
            _config(config, window_horizon=12.0), small_queries, small_documents
        )
        for n_shards in (2, 4):
            sharded, _ = _run_sharded(
                _config(config, window_horizon=12.0),
                small_queries,
                small_documents,
                n_shards,
                "serial",
            )
            assert single.live_window_size is not None
            assert single.live_window_size < len(small_documents)  # expired something
            assert sharded.live_window_size == single.live_window_size
            _assert_identical_state(single, sharded, small_queries, exact=True)

    def test_renormalization_matches_single_monitor(self, small_queries, small_documents):
        # Aggressive max_amplification forces several rebases mid-stream.
        config = dict(algorithm="mrio", ub_variant="tree")
        single_cfg = MonitorConfig(lam=0.5, max_amplification=100.0, **config)
        sharded_cfg = MonitorConfig(lam=0.5, max_amplification=100.0, **config)
        single, _ = _run_single(single_cfg, small_queries, small_documents)
        assert single.algorithm.decay.origin > 0.0  # renormalization happened
        sharded, _ = _run_sharded(sharded_cfg, small_queries, small_documents, 4, "serial")
        for shard in sharded.shards:
            assert shard.algorithm.decay.origin == single.algorithm.decay.origin
        _assert_identical_state(single, sharded, small_queries, exact=True)

    @pytest.mark.parametrize("executor", ("serial", "processes"))
    def test_failed_ingestion_matches_single_monitor(
        self, executor, small_queries, small_documents
    ):
        """The failure path is part of the equivalence contract.

        A stale arrival is rejected by every shard; per the executor
        failure contract the whole fan-out still runs, so the state after
        the failed event — and after the stream continues — is identical
        across all executor flavours and to the single monitor.
        """
        from repro.exceptions import StreamError

        single = ContinuousMonitor(_config({"algorithm": "mrio"}))
        single.register_queries(small_queries)
        sharded = ShardedMonitor(
            _config({"algorithm": "mrio"}), n_shards=4, executor=executor
        )
        sharded.register_queries(small_queries)
        head, stale, tail = (
            small_documents[:10],
            small_documents[3],
            small_documents[10:],
        )
        for target in (single, sharded):
            for document in head:
                target.process(document)
            with pytest.raises(StreamError):
                target.process(stale)
            for document in tail:
                target.process(document)
        _assert_identical_state(single, sharded, small_queries, exact=True)
        assert sharded.statistics.documents == single.statistics.documents
        assert sharded.statistics.result_updates == single.statistics.result_updates
        sharded.close()

    def test_affinity_policy_matches_single_monitor(self, small_queries, small_documents):
        config = dict(algorithm="mrio", ub_variant="tree")
        single, single_batches = _run_single(_config(config), small_queries, small_documents)
        sharded, sharded_batches = _run_sharded(
            _config(config), small_queries, small_documents, 4, "serial", policy="affinity"
        )
        _assert_identical_state(single, sharded, small_queries, exact=True)
        for want, got in zip(single_batches, sharded_batches):
            assert _updates_by_query(got) == _updates_by_query(want)


class TestMergedView:
    """The facade's merged statistics and updates are coherent."""

    def test_counters_aggregate_losslessly(self, small_queries, small_documents):
        sharded, _ = _run_sharded(
            _config({"algorithm": "mrio"}), small_queries, small_documents, 4, "serial"
        )
        merged = sharded.statistics
        by_hand = EventCounters.aggregate(shard.statistics for shard in sharded.shards)
        for name, value in by_hand.snapshot().items():
            if name == "documents":
                # Every shard sees every event; the facade reports the
                # stream's true event count instead of the sum.
                assert merged.documents == len(small_documents)
                assert value == len(small_documents) * 4
            else:
                assert merged.snapshot()[name] == value

    def test_batch_updates_ordered_by_query_id(self, small_queries, small_documents):
        sharded, per_batch = _run_sharded(
            _config({"algorithm": "mrio"}), small_queries, small_documents, 4, "processes"
        )
        for updates in per_batch:
            ids = [update.query_id for update in updates]
            assert ids == sorted(ids)

    def test_all_results_covers_every_query(self, small_queries, small_documents):
        single, _ = _run_single(_config({"algorithm": "mrio"}), small_queries, small_documents)
        sharded, _ = _run_sharded(
            _config({"algorithm": "mrio"}), small_queries, small_documents, 4, "serial"
        )
        assert sharded.all_results() == single.all_results()


class TestDynamicMembership:
    """Registration and unregistration mid-stream, across shards."""

    def test_mid_stream_register_and_unregister(self, small_queries, small_documents):
        single = ContinuousMonitor(_config({"algorithm": "mrio"}))
        sharded = ShardedMonitor(_config({"algorithm": "mrio"}), n_shards=3)
        initial = small_queries[:80]
        late = small_queries[80:]
        single.register_queries(initial)
        sharded.register_queries(initial)

        for document in small_documents[:20]:
            single.process(document)
            sharded.process(document)

        removed = initial[::7]
        for query in removed:
            assert single.unregister(query.query_id).query_id == query.query_id
            assert sharded.unregister(query.query_id).query_id == query.query_id
        single.register_queries(late)
        sharded.register_queries(late)
        assert sharded.num_queries == single.num_queries

        for document in small_documents[20:]:
            single.process(document)
            sharded.process(document)
        survivors = [q for q in small_queries if q not in removed]
        _assert_identical_state(single, sharded, survivors, exact=True)
        sharded.close()

    def test_register_vector_assigns_facade_wide_ids(self):
        sharded = ShardedMonitor(n_shards=3)
        first = sharded.register_vector({1: 1.0}, k=2)
        second = sharded.register_vector({2: 1.0}, k=2)
        assert (first.query_id, second.query_id) == (0, 1)
        assert sharded.router.shard_of(0) != sharded.router.shard_of(1) or sharded.n_shards == 1
        sharded.close()
