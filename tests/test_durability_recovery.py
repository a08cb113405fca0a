"""Differential kill-and-recover tests for the durability subsystem.

The contract of :class:`~repro.persistence.durable.DurableMonitor` is
replay-exact recovery: abandoning the monitor at an *arbitrary* event (no
``close()``, simulating ``kill -9``) and recovering from disk must yield the
same top-k sets, scores, thresholds and work counters as an uninterrupted
run over the same prefix — for every registered algorithm, behind both the
single monitor and a two-shard :class:`ShardedMonitor`, with and without
checkpoints, across registration/unregistration, renormalization and window
expiration.  ``elapsed_seconds`` is wall-clock measurement, not state, and
is the one counter excluded from comparison.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.exceptions import PersistenceError, RecoveryError
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from repro.runtime.sharded import ShardedMonitor
from tests.data import make_durable_fixture as fixture
from tests.helpers import make_document, make_query

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


def _reference(config, n_shards, queries, documents, interrupt):
    """An uninterrupted run over the prefix that survived the crash."""
    if n_shards > 1:
        monitor = ShardedMonitor(config, n_shards=n_shards)
    else:
        monitor = ContinuousMonitor(config)
    monitor.register_queries(queries)
    for document in documents[:interrupt]:
        monitor.process(document)
    return monitor


def _counters(monitor):
    snapshot = monitor.statistics.snapshot()
    snapshot.pop("elapsed_seconds")
    return snapshot


def _assert_recovered_equals(recovered, reference, queries):
    assert recovered.all_results() == reference.all_results()
    for query in queries:
        assert recovered.top_k(query.query_id) == reference.top_k(query.query_id)
    assert _counters(recovered) == _counters(reference)


class TestKillAndRecoverDifferential:
    """Interrupt at an arbitrary event; recovery must be byte-identical."""

    @pytest.mark.parametrize("overrides", ALGORITHM_CONFIGS)
    @pytest.mark.parametrize("n_shards", [1, 2], ids=["single", "sharded2"])
    def test_recovery_matches_uninterrupted_run(
        self, tmp_path, overrides, n_shards, small_queries, small_documents
    ):
        config = MonitorConfig(lam=LAM, **overrides)
        queries = small_queries[:40]
        interrupt = 23  # arbitrary mid-stream event, not a batch boundary
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=10
        )
        monitor = DurableMonitor(durability, config, n_shards=n_shards)
        monitor.register_queries(queries)
        for document in small_documents[:interrupt]:
            monitor.process(document)
        # Crash: the object is abandoned without close(); every record was
        # flushed (group_commit=1), so recovery must reach the same event.
        del monitor

        recovered, report = DurableMonitor.recover(durability)
        # 40 registrations + 23 events were journaled; the checkpoint covers
        # a prefix and replay covers the rest.
        assert report.recovered_lsn == len(queries) + interrupt
        assert 0 < report.replayed_documents <= interrupt
        reference = _reference(config, n_shards, queries, small_documents, interrupt)
        assert recovered.statistics.documents == interrupt
        _assert_recovered_equals(recovered, reference, queries)

        # The recovered monitor keeps serving the stream identically.
        for document in small_documents[interrupt:]:
            recovered.process(document)
            reference.process(document)
        _assert_recovered_equals(recovered, reference, queries)
        recovered.close()

    @pytest.mark.parametrize("n_shards", [1, 2], ids=["single", "sharded2"])
    def test_batched_ingestion_with_expiration_and_churn(
        self, tmp_path, n_shards, small_queries, small_documents
    ):
        config = MonitorConfig(algorithm="mrio", lam=LAM, window_horizon=18.0)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=12,
            full_checkpoint_every=2,
        )
        monitor = DurableMonitor(durability, config, n_shards=n_shards)
        monitor.register_queries(small_queries[:30])
        batches = [small_documents[i : i + 7] for i in range(0, 28, 7)]
        for batch in batches[:3]:
            monitor.process_batch(batch)
        monitor.register_queries(small_queries[30:40])
        monitor.unregister(small_queries[5].query_id)
        monitor.process_batch(batches[3])
        del monitor  # crash

        recovered, _ = DurableMonitor.recover(durability)
        if n_shards > 1:
            reference = ShardedMonitor(config, n_shards=n_shards)
        else:
            reference = ContinuousMonitor(config)
        reference.register_queries(small_queries[:30])
        for batch in batches[:3]:
            reference.process_batch(batch)
        reference.register_queries(small_queries[30:40])
        reference.unregister(small_queries[5].query_id)
        reference.process_batch(batches[3])

        survivors = [q for q in small_queries[:40] if q.query_id != small_queries[5].query_id]
        _assert_recovered_equals(recovered, reference, survivors)
        assert recovered.live_window_size == reference.live_window_size
        assert recovered.num_queries == reference.num_queries

        # Continued batches and registrations stay in lockstep (placement,
        # assigned ids, results).
        new_a = recovered.register_vector({1: 0.6, 4: 0.4}, k=5)
        new_b = reference.register_vector({1: 0.6, 4: 0.4}, k=5)
        assert new_a.query_id == new_b.query_id
        for batch in [small_documents[28:34], small_documents[34:]]:
            recovered.process_batch(batch)
            reference.process_batch(batch)
        _assert_recovered_equals(recovered, reference, survivors + [new_a])
        recovered.close()

    def test_lazily_built_bound_structures_survive_recovery(self, tmp_path):
        """Regression: pruning work must stay exact on *continued* batches.

        With enough queries, MRIO's stored-ratio structures exist for terms
        touched batches ago.  A recovered engine that rebuilt them lazily
        would do so mid-batch from already-risen thresholds and prune
        slightly differently (one full evaluation in thousands); the
        clean-built term set is therefore part of the structure capture.
        Needs more scale than the shared fixtures to manifest.
        """
        from repro.documents.corpus import SyntheticCorpus
        from repro.documents.stream import BatchingStream, DocumentStream
        from repro.queries.workloads import UniformWorkload

        corpus = SyntheticCorpus()
        queries = UniformWorkload(corpus).generate(300)
        batches = list(BatchingStream(DocumentStream(corpus), max_batch=64).take(6))
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=100
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(queries)
        for batch in batches[:4]:
            monitor.process_batch(batch)
        del monitor  # crash right on a checkpoint boundary: replay-free restore

        recovered, _ = DurableMonitor.recover(durability)
        reference = ContinuousMonitor(config)
        reference.register_queries(queries)
        for batch in batches[:4]:
            reference.process_batch(batch)
        for batch in batches[4:]:
            recovered.process_batch(batch)
            reference.process_batch(batch)
        _assert_recovered_equals(recovered, reference, queries)
        recovered.close()

    def test_renormalization_survives_recovery(self, tmp_path, small_queries, small_documents):
        # A tiny amplification cap forces renormalizations mid-stream.
        config = MonitorConfig(algorithm="rio", lam=0.5, max_amplification=100.0)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=8
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:20])
        for document in small_documents[:25]:
            monitor.process(document)
        del monitor  # crash

        recovered, _ = DurableMonitor.recover(durability)
        reference = _reference(config, 1, small_queries[:20], small_documents, 25)
        assert (
            recovered.monitor.algorithm.decay.snapshot()
            == reference.algorithm.decay.snapshot()
        )
        _assert_recovered_equals(recovered, reference, small_queries[:20])
        recovered.close()

    def test_explicit_renormalize_is_journaled(self, tmp_path, small_queries, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=1e-2)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:10])
        for document in small_documents[:10]:
            monitor.process(document)
        rebased_to = small_documents[9].arrival_time
        monitor.renormalize(rebased_to)
        for document in small_documents[10:15]:
            monitor.process(document)
        del monitor  # crash

        recovered, _ = DurableMonitor.recover(durability)
        reference = ContinuousMonitor(config)
        reference.register_queries(small_queries[:10])
        for document in small_documents[:10]:
            reference.process(document)
        reference.renormalize(rebased_to)
        for document in small_documents[10:15]:
            reference.process(document)
        _assert_recovered_equals(recovered, reference, small_queries[:10])
        recovered.close()


class TestOnDiskCompatibility:
    """Directories the PR 21 commit wrote (``tests/data/``) recover under the
    current code: checkpoint chain (full + incremental), WAL tail, sidecar."""

    @pytest.mark.parametrize(
        "name, n_shards", [("durable_single", 1), ("durable_sharded2", 2)]
    )
    def test_committed_directory_recovers_and_keeps_going(self, tmp_path, name, n_shards):
        root = str(tmp_path / name)
        shutil.copytree(os.path.join(fixture.HERE, name), root)
        durability = DurabilityConfig(root, group_commit=1, checkpoint_interval=None)
        recovered, report = DurableMonitor.recover(durability, fixture.CONFIG)
        assert (report.checkpoint_lsn, report.recovered_lsn) == (21, 27)
        assert report.replayed_documents == 6

        if n_shards > 1:
            reference = ShardedMonitor(fixture.CONFIG, n_shards=n_shards)
        else:
            reference = ContinuousMonitor(fixture.CONFIG)
        fixture.apply(reference, fixture.steps())
        assert recovered.all_results() == reference.all_results()
        # Query 15 was registered and unregistered again in the WAL tail.
        assert recovered.next_query_id == reference.next_query_id == 16
        assert _counters(recovered) == _counters(reference)

        # The recovered monitor keeps ingesting and checkpoints again (an
        # incremental round chained onto the parent-written base).
        more = [fixture.document(i) for i in range(18, 24)]
        for monitor in (recovered, reference):
            monitor.process(more[0])
            monitor.process_batch(more[1:4])
        assert recovered.checkpoint() == 29
        for monitor in (recovered, reference):
            monitor.process_batch(more[4:])
        del recovered  # crash again

        again, report = DurableMonitor.recover(durability)
        assert (report.checkpoint_lsn, report.recovered_lsn) == (29, 30)
        assert again.all_results() == reference.all_results()
        assert _counters(again) == _counters(reference)
        again.close()


    @pytest.mark.parametrize(
        "name, n_shards", [("durable_single", 1), ("durable_sharded2", 2)]
    )
    def test_current_code_writes_the_same_directory(self, tmp_path, name, n_shards):
        """Same script, current code: same file set; ``meta.json``,
        ``facade.json`` and the WAL byte-identical (checkpoints carry one
        wall-clock counter, so only their names are compared)."""
        durability = DurabilityConfig(str(tmp_path), group_commit=1, checkpoint_interval=None)
        fixture.apply(DurableMonitor(durability, fixture.CONFIG, n_shards=n_shards), fixture.steps())

        def files(root):
            return sorted(
                os.path.relpath(os.path.join(directory, filename), root)
                for directory, _, filenames in os.walk(root)
                for filename in filenames
            )

        committed = os.path.join(fixture.HERE, name)
        assert files(str(tmp_path)) == files(committed)
        for relative in files(committed):
            if "checkpoints" not in relative:
                with open(os.path.join(committed, relative), "rb") as want:
                    with open(os.path.join(str(tmp_path), relative), "rb") as got:
                        assert got.read() == want.read(), relative


def _checkpoint_names(root, n_shards):
    """The checkpoint file names, asserted identical on every host."""
    hosts = [root] if n_shards == 1 else [
        os.path.join(root, f"shard-{index:04d}") for index in range(n_shards)
    ]
    names = [sorted(os.listdir(os.path.join(host, "checkpoints"))) for host in hosts]
    assert all(host_names == names[0] for host_names in names)
    return names[0]


class TestCheckpointKinds:
    """A decay rebase makes the next checkpoint full, and the one after it is
    incremental again.  Only the kind of file changes: recovery is exact."""

    CONFIGS = {
        # exp(0.5 * 6) > 20: the event at t=6 rebases the origin to 6.
        "implicit": MonitorConfig(algorithm="mrio", lam=0.5, max_amplification=20.0),
        "explicit": MonitorConfig(algorithm="mrio", lam=0.5),
    }

    @pytest.mark.parametrize("rebase", ["implicit", "explicit"])
    @pytest.mark.parametrize(
        "n_shards, executor",
        [(1, "serial"), (2, "serial"), (2, "processes")],
        ids=["single", "serial2", "processes2"],
    )
    def test_rebase_writes_one_full_checkpoint(self, tmp_path, rebase, n_shards, executor):
        config = self.CONFIGS[rebase]
        queries = [make_query(q, {q % 5: 1.0, (q + 2) % 5: 0.5}, 2) for q in range(8)]
        docs = {t: make_document(t, {t % 5: 1.0, (t + 1) % 5: 0.7}, float(t)) for t in range(1, 11)}
        rebase_steps = [("process", docs[6])]
        if rebase == "explicit":
            rebase_steps.insert(0, ("renormalize", 5.0))
        steps = (
            [("register_query", query) for query in queries]
            + [("process_batch", [docs[1], docs[2], docs[3]]), ("checkpoint", None)]
            + [("process", docs[4]), ("process", docs[5]), ("checkpoint", None)]
            + rebase_steps + [("checkpoint", None)]
            + [("process_batch", [docs[7], docs[8]]), ("checkpoint", None)]
            + [("process_batch", [docs[9], docs[10]])]
        )
        durability = DurabilityConfig(str(tmp_path), group_commit=1, checkpoint_interval=None)
        monitor = DurableMonitor(durability, config, n_shards=n_shards, executor=executor)
        reference = _reference(config, n_shards, queries, [], 0)
        lsns = []
        for method, argument in steps:
            if method == "checkpoint":
                lsns.append(monitor.checkpoint())
                continue
            getattr(monitor, method)(argument)
            if method != "register_query":
                getattr(reference, method)(argument)
        monitor.close()

        hosts = reference.shards if n_shards > 1 else [reference]
        assert [host.algorithm.decay.origin for host in hosts] == [
            6.0 if rebase == "implicit" else 5.0
        ] * n_shards
        assert _checkpoint_names(str(tmp_path), n_shards) == [
            f"ckpt-{lsn:020d}-{kind}.json"
            for lsn, kind in zip(lsns, ("full", "incr", "full", "incr"))
        ]
        recovered, report = DurableMonitor.recover(durability, executor=executor)
        try:
            assert report.checkpoint_lsn == lsns[-1]
            _assert_recovered_equals(recovered, reference, queries)
        finally:
            recovered.close()
            reference.close()


class TestCrashWindows:
    """Crashes inside the durability machinery itself."""

    def test_unflushed_group_recovers_to_prefix(self, tmp_path, small_queries, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=64, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:20])
        for document in small_documents[:10]:
            monitor.process(document)
        monitor.flush()
        for document in small_documents[10:17]:
            monitor.process(document)  # these stay in the commit buffer
        del monitor  # crash: the buffered tail is lost

        recovered, report = DurableMonitor.recover(durability)
        assert recovered.statistics.documents == 10
        reference = _reference(config, 1, small_queries[:20], small_documents, 10)
        _assert_recovered_equals(recovered, reference, small_queries[:20])
        recovered.close()

    def test_torn_tail_is_repaired(self, tmp_path, small_queries, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:20])
        for document in small_documents[:12]:
            monitor.process(document)
        del monitor

        # Simulate a record cut mid-write by the crash.
        wal_dir = os.path.join(str(tmp_path), "wal")
        segment = sorted(os.listdir(wal_dir))[-1]
        with open(os.path.join(wal_dir, segment), "ab") as handle:
            handle.write(b'0badc0de {"v":1,"lsn":999,"kind":"doc","da')

        recovered, report = DurableMonitor.recover(durability)
        assert report.truncated_bytes > 0
        assert recovered.statistics.documents == 12
        reference = _reference(config, 1, small_queries[:20], small_documents, 12)
        _assert_recovered_equals(recovered, reference, small_queries[:20])
        recovered.close()

    def test_sharded_wals_clamped_to_common_prefix(
        self, tmp_path, small_queries, small_documents
    ):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:20])
        for document in small_documents[:9]:
            monitor.process(document)
        del monitor

        # Simulate a crash mid-fan-out: shard 1's WAL is one record short.
        wal_dir = os.path.join(str(tmp_path), "shard-0001", "wal")
        segment = sorted(os.listdir(wal_dir))[-1]
        path = os.path.join(wal_dir, segment)
        lines = open(path, "rb").readlines()
        with open(path, "wb") as handle:
            handle.writelines(lines[:-1])

        recovered, report = DurableMonitor.recover(durability)
        assert report.clamped_records == 1  # shard 0 held one record too many
        assert recovered.statistics.documents == 8
        reference = _reference(config, 2, small_queries[:20], small_documents, 8)
        _assert_recovered_equals(recovered, reference, small_queries[:20])

        # The clamp is physical: both WALs were cut back to the common
        # prefix, so journaling resumes in lockstep — processing after
        # recovery must not trip the lockstep check on the shorter WAL.
        for document in small_documents[9:14]:
            recovered.process(document)
            reference.process(document)
        _assert_recovered_equals(recovered, reference, small_queries[:20])
        recovered.close()

        # And the record past the common prefix is gone for good: a second
        # recovery replays the clamped history plus the new events, never
        # the event the first recovery discarded.
        recovered_again, _ = DurableMonitor.recover(durability)
        _assert_recovered_equals(recovered_again, reference, small_queries[:20])
        assert recovered_again.statistics.documents == 13
        recovered_again.close()

    def test_recovery_from_uneven_wals_without_new_events_is_stable(
        self, tmp_path, small_queries, small_documents
    ):
        """Recover from uneven WALs, close without processing, recover again:
        the discarded record must not resurface from the longer log."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:10])
        for document in small_documents[:6]:
            monitor.process(document)
        del monitor

        wal_dir = os.path.join(str(tmp_path), "shard-0000", "wal")
        segment = sorted(os.listdir(wal_dir))[-1]
        path = os.path.join(wal_dir, segment)
        lines = open(path, "rb").readlines()
        with open(path, "wb") as handle:
            handle.writelines(lines[:-1])

        first, first_report = DurableMonitor.recover(durability)
        assert first.statistics.documents == 5
        assert first_report.clamped_records == 1
        first.close()
        second, second_report = DurableMonitor.recover(durability)
        assert second.statistics.documents == 5
        assert second_report.clamped_records == 0  # first recovery cut it away
        reference = _reference(config, 2, small_queries[:10], small_documents, 5)
        _assert_recovered_equals(second, reference, small_queries[:10])
        second.close()

    def test_corrupt_newest_checkpoint_with_compacted_wal_refuses(
        self, tmp_path, small_queries, small_documents
    ):
        """Regression: if the newest checkpoint is unreadable and the WAL
        prefix it covered was already compacted, recovery must refuse rather
        than silently present the previous checkpoint's state as current."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        for document in small_documents[:4]:
            monitor.process(document)
        monitor.checkpoint(full=True)
        for document in small_documents[4:8]:
            monitor.process(document)
        monitor.checkpoint(full=True)  # compacts the WAL through here
        del monitor  # crash

        ckpt_dir = os.path.join(str(tmp_path), "checkpoints")
        newest = sorted(os.listdir(ckpt_dir))[-1]
        path = os.path.join(ckpt_dir, newest)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability)

    def test_shard_falling_back_to_an_older_checkpoint_counts_events_once(
        self, tmp_path, small_queries, small_documents
    ):
        """A crash between a round's sidecar write and its WAL compaction
        leaves the previous round usable.  A shard whose newest checkpoint
        is then unreadable replays from the older one — more documents than
        its sibling — and still counts every event once, as the facade's
        event count is shard 0's own."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:10])
        monitor.process_batch(small_documents[:4])
        monitor.checkpoint(full=True)
        monitor.process_batch(small_documents[4:9])
        on_wals = monitor._on_wals

        def crash_before_compaction(verb, *args):
            if verb == "wal_rotate":
                raise KeyboardInterrupt
            on_wals(verb, *args)

        monitor._on_wals = crash_before_compaction
        with pytest.raises(KeyboardInterrupt):
            monitor.checkpoint(full=True)  # sidecar written, WAL not compacted
        monitor._on_wals = on_wals
        monitor.process_batch(small_documents[9:12])
        del monitor  # crash

        ckpt_dir = os.path.join(str(tmp_path), "shard-0000", "checkpoints")
        path = os.path.join(ckpt_dir, sorted(os.listdir(ckpt_dir))[-1])
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))

        recovered, report = DurableMonitor.recover(durability)
        assert [shard.replayed_documents for shard in report.shards] == [8, 3]
        reference = ShardedMonitor(config, n_shards=2)
        reference.register_queries(small_queries[:10])
        for batch in (small_documents[:4], small_documents[4:9], small_documents[9:12]):
            reference.process_batch(batch)
        assert recovered.statistics.documents == reference.statistics.documents == 12
        _assert_recovered_equals(recovered, reference, small_queries[:10])
        recovered.close()

    def test_missing_middle_wal_segment_refuses(
        self, tmp_path, small_queries, small_documents
    ):
        """A gap inside the replayed record sequence is damage, not a torn
        tail — recovery must raise instead of splicing around it."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None,
            segment_max_bytes=64,  # every record seals its own segment
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        for document in small_documents[:6]:
            monitor.process(document)
        del monitor

        wal_dir = os.path.join(str(tmp_path), "wal")
        segments = sorted(os.listdir(wal_dir))
        assert len(segments) >= 3
        os.remove(os.path.join(wal_dir, segments[len(segments) // 2]))
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability)

    def test_crash_between_checkpoint_and_sidecar_rolls_the_round_back(
        self, tmp_path, small_queries, small_documents
    ):
        """Regression: a checkpoint round is only committed by its sidecar,
        in single-monitor mode too.  A crash after the checkpoint write but
        before the sidecar write must roll the round back — restoring the
        uncommitted checkpoint would skip the replay of register/unregister
        records and reissue a dead query's id from the stale sidecar."""
        from repro.persistence import codec

        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        monitor.process(small_documents[0])
        monitor.checkpoint(full=True)  # round 1: committed by its sidecar
        dead = monitor.register_vector({1: 1.0}, k=3)
        monitor.unregister(dead.query_id)
        monitor.process(small_documents[1])
        # Crash inside the next checkpoint(): the checkpoint file reached
        # disk, the sidecar (the round's commit marker) did not.
        monitor.flush()
        monitor._checkpoints[0].write(
            codec.encode_monitor_state(monitor._inner.snapshot()),
            monitor.last_lsn,
            full=True,
        )
        del monitor  # crash

        recovered, report = DurableMonitor.recover(durability)
        assert report.checkpoint_lsn == 6  # round 1: 5 registrations + 1 doc
        fresh = recovered.register_vector({2: 1.0}, k=3)
        assert fresh.query_id > dead.query_id
        assert recovered.statistics.documents == 2
        recovered.close()

    def test_single_mode_lost_wal_behind_checkpoint_refuses(
        self, tmp_path, small_queries, small_documents
    ):
        """Regression: losing the wal/ directory while the checkpoint and
        sidecar survive must refuse recovery.  Recovering anyway would
        restart LSNs below the checkpoint, making every acknowledged
        post-recovery append invisible to later recoveries."""
        import shutil

        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        for document in small_documents[:4]:
            monitor.process(document)
        monitor.checkpoint()
        monitor.close()

        shutil.rmtree(os.path.join(str(tmp_path), "wal"))
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability)

    def test_rolled_back_round_orphan_checkpoint_is_purged(
        self, tmp_path, small_queries, small_documents
    ):
        """Regression: a checkpoint orphaned by a crash mid-round must be
        deleted by the recovery that rolls the round back.  Left behind, it
        would later splice into the incremental chain (the next incremental
        chains off the *committed* state, skipping the orphan) and strand a
        future recovery behind WAL records an honest round had compacted."""
        from repro.persistence import codec

        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        monitor.process(small_documents[0])
        monitor.checkpoint()  # round 1 committed (the first is always full)
        monitor.process(small_documents[1])
        # Crash mid-round-2: the incremental reached disk, the sidecar did not.
        monitor.flush()
        monitor._checkpoints[0].write(
            codec.encode_monitor_state(monitor._inner.snapshot()),
            monitor.last_lsn,
            full=False,
        )
        del monitor  # crash

        recovered, _ = DurableMonitor.recover(durability)
        recovered.process(small_documents[2])
        recovered.checkpoint(full=False)  # chains off the committed round
        recovered.process(small_documents[3])
        recovered.close()

        again, _ = DurableMonitor.recover(durability)  # bricked before the fix
        assert again.statistics.documents == 4
        reference = _reference(config, 1, small_queries[:5], small_documents, 4)
        _assert_recovered_equals(again, reference, small_queries[:5])
        again.close()

    def test_open_single_mode_ignores_policy_kwarg(
        self, tmp_path, small_queries, small_documents
    ):
        """The constructor ignores ``policy`` when n_shards == 1, so the
        byte-identical open() call must keep working after a restart."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor.open(
            durability, config, n_shards=1, policy="affinity"
        )
        monitor.register_queries(small_queries[:5])
        monitor.process(small_documents[0])
        monitor.close()
        resumed = DurableMonitor.open(
            durability, config, n_shards=1, policy="affinity"
        )
        assert resumed.statistics.documents == 1
        resumed.close()

    def test_failed_recovery_leaves_wals_untouched(
        self, tmp_path, small_queries, small_documents
    ):
        """A recovery that is going to fail must not destroy healthy logs.

        Losing one shard's WAL wholesale (deleted directory, lost disk)
        drags the common durable prefix below the checkpoint — recovery
        refuses.  The refusal must leave every other shard's WAL exactly
        as the crash did, so restoring the missing log makes the state
        recoverable again.
        """
        import shutil

        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:10])
        for document in small_documents[:6]:
            monitor.process(document)
        monitor.checkpoint(full=True)
        for document in small_documents[6:9]:
            monitor.process(document)
        del monitor  # crash

        lost = os.path.join(str(tmp_path), "shard-0001", "wal")
        backup = os.path.join(str(tmp_path), "wal-backup")
        shutil.move(lost, backup)
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability)

        # The healthy shard's log kept its tail; putting the lost one back
        # makes recovery succeed over the full history.
        shutil.rmtree(lost, ignore_errors=True)
        shutil.move(backup, lost)
        recovered, _ = DurableMonitor.recover(durability)
        assert recovered.statistics.documents == 9
        reference = _reference(config, 2, small_queries[:10], small_documents, 9)
        _assert_recovered_equals(recovered, reference, small_queries[:10])
        recovered.close()


class TestFacadeBehaviour:
    def test_open_creates_then_recovers(self, tmp_path, small_queries, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor.open(durability, config)
        monitor.register_queries(small_queries[:10])
        for document in small_documents[:5]:
            monitor.process(document)
        monitor.close()

        resumed = DurableMonitor.open(durability)
        assert resumed.statistics.documents == 5
        assert resumed.num_queries == 10
        resumed.close()

    def test_open_accepts_topology_kwargs_on_restart(
        self, tmp_path, small_queries, small_documents
    ):
        """The documented create-or-recover idiom — identical open() call on
        every start, topology kwargs included — must work on restarts too."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor.open(durability, config, n_shards=2, policy="hash")
        monitor.register_queries(small_queries[:8])
        for document in small_documents[:5]:
            monitor.process(document)
        monitor.close()

        resumed = DurableMonitor.open(durability, config, n_shards=2, policy="hash")
        assert resumed.statistics.documents == 5
        assert resumed.num_queries == 8
        resumed.close()

        # A topology that contradicts the stored state is an error, not a
        # silent reshard.
        with pytest.raises(RecoveryError):
            DurableMonitor.open(durability, config, n_shards=3)
        with pytest.raises(RecoveryError):
            DurableMonitor.open(durability, config, policy="round_robin")

    def test_journal_failure_poisons_the_monitor(
        self, tmp_path, small_queries, small_documents
    ):
        """If journaling fails after the engine mutated, the monitor must
        refuse further operations instead of compounding the divergence."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:5])
        monitor.process(small_documents[0])

        def disk_full():
            raise OSError(28, "No space left on device")

        monitor._wals[0].flush = disk_full
        with pytest.raises(OSError):
            monitor.process(small_documents[1])
        # The engine is one event ahead of the log; every state-changing
        # call is now refused so the gap cannot grow silently.
        with pytest.raises(PersistenceError):
            monitor.process(small_documents[2])
        with pytest.raises(PersistenceError):
            monitor.register_vector({1: 1.0}, k=3)
        with pytest.raises(PersistenceError):
            monitor.checkpoint()
        # Reads still work for post-mortem inspection.
        assert monitor.num_queries == 5

        # Recovery from disk sees only the durable prefix.
        recovered, _ = DurableMonitor.recover(durability)
        assert recovered.statistics.documents == 1
        recovered.close()

    @pytest.mark.parametrize(
        "call",
        ["process", "process_batch", "register_query", "unregister", "renormalize",
         "checkpoint", "flush"],
    )
    @pytest.mark.parametrize(
        "n_shards, executor", [(1, "serial"), (2, "processes")], ids=["single", "processes2"]
    )
    def test_a_closed_monitor_refuses_every_write(
        self, tmp_path, call, n_shards, executor, small_queries, small_documents
    ):
        """After close() every state-changing call raises without journaling
        and without poisoning the monitor: recovery ends where close() did."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=n_shards, executor=executor)
        monitor.register_queries(small_queries[:5])
        for document in small_documents[:3]:
            monitor.process(document)
        closed_at = monitor.last_lsn
        monitor.close()
        args = {
            "process": (small_documents[3],),
            "process_batch": (small_documents[3:6],),
            "register_query": (small_queries[5],),
            "unregister": (small_queries[0].query_id,),
            "renormalize": (small_documents[2].arrival_time,),
            "checkpoint": (),
            "flush": (),
        }[call]
        with pytest.raises(PersistenceError, match="durable monitor is closed"):
            getattr(monitor, call)(*args)
        assert not monitor._failed
        assert monitor.last_lsn == closed_at

        recovered, report = DurableMonitor.recover(durability, executor=executor)
        try:
            assert report.recovered_lsn == closed_at
        finally:
            recovered.close()

    def test_sidecar_version_mismatch_is_rejected(
        self, tmp_path, small_queries, small_documents
    ):
        from repro.persistence import codec

        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:5])
        monitor.process(small_documents[0])
        monitor.checkpoint()
        monitor.close()

        sidecar_path = os.path.join(str(tmp_path), "facade.json")
        with open(sidecar_path, "rb") as handle:
            sidecar = codec.unpack_line(handle.read())
        sidecar["version"] = codec.CODEC_VERSION + 1
        with open(sidecar_path, "wb") as handle:
            handle.write(codec.pack_line(sidecar))
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability)

    def test_fresh_constructor_refuses_existing_state(self, tmp_path):
        durability = DurabilityConfig(directory=str(tmp_path))
        DurableMonitor(durability).close()
        with pytest.raises(PersistenceError):
            DurableMonitor(durability)

    def test_recover_without_state_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(DurabilityConfig(directory=str(tmp_path)))

    def test_recover_rejects_mismatched_config(self, tmp_path):
        durability = DurabilityConfig(directory=str(tmp_path))
        DurableMonitor(durability, MonitorConfig(algorithm="mrio", lam=1e-3)).close()
        with pytest.raises(RecoveryError):
            DurableMonitor.recover(durability, MonitorConfig(algorithm="mrio", lam=1e-4))

    def test_sharded_recovery_never_reissues_dead_query_ids(
        self, tmp_path, small_queries, small_documents
    ):
        """Regression: an id registered and unregistered after the last
        checkpoint must not be reissued after recovery (no shard hosts the
        dead query, so the WAL scan is the only witness)."""
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config, n_shards=2)
        monitor.register_queries(small_queries[:5])
        dead = monitor.register_vector({1: 1.0}, k=3)
        monitor.unregister(dead.query_id)
        for document in small_documents[:3]:
            monitor.process(document)
        del monitor  # crash

        recovered, _ = DurableMonitor.recover(durability)
        fresh = recovered.register_vector({2: 1.0}, k=3)
        assert fresh.query_id > dead.query_id
        recovered.close()

    def test_recover_rebuilds_config_from_meta(self, tmp_path, small_queries):
        config = MonitorConfig(algorithm="rio", lam=2e-3, default_k=7)
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=1)
        DurableMonitor(durability, config).close()
        recovered, _ = DurableMonitor.recover(durability)
        assert recovered.config == config
        recovered.close()

    def test_checkpoint_compacts_wal(self, tmp_path, small_queries, small_documents):
        config = MonitorConfig(algorithm="mrio", lam=LAM)
        durability = DurabilityConfig(
            directory=str(tmp_path), group_commit=1, checkpoint_interval=None
        )
        monitor = DurableMonitor(durability, config)
        monitor.register_queries(small_queries[:10])
        for document in small_documents[:20]:
            monitor.process(document)
        lsn = monitor.checkpoint(full=True)
        assert lsn == 30  # 10 registrations + 20 events
        wal_dir = os.path.join(str(tmp_path), "wal")
        remaining = sum(
            os.path.getsize(os.path.join(wal_dir, name)) for name in os.listdir(wal_dir)
        )
        assert remaining == 0  # everything up to the checkpoint was compacted
        monitor.close()

    def test_describe_reports_durability(self, tmp_path):
        durability = DurabilityConfig(directory=str(tmp_path), group_commit=5)
        monitor = DurableMonitor(durability)
        info = monitor.describe()
        assert info["durability"]["group_commit"] == 5
        assert info["durability"]["directory"] == str(tmp_path)
        monitor.close()
