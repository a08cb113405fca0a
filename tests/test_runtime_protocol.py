"""Table-driven tests of the shard protocol (``repro.runtime.protocol``).

Everything here is parametrized over the one command table and runs
in-process: the handles talk to a :class:`ShardServer` through a loopback
connection object, so the full encode -> decode -> execute -> reply ->
decode trip is exercised without a child process.

* every row resolves on the one engine host,
  :class:`~repro.core.monitor.ContinuousMonitor`, and is exposed, by its
  ``attr``, on the pipe handle and on the socket handle;
* every *mutating* row journals through its record builder and replays
  through the single replay function to the same state and the same return
  value — which is what recovery, standby replication and the redo cache
  all rely on;
* the router's LSN prediction is the table's ``mutating`` flag;
* an unknown command is a :class:`WorkerError` from the shared routine.
"""

from __future__ import annotations

import functools

import pytest

from repro.cluster.remote import HostClient, RemoteShardHandle
from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.exceptions import WorkerError
from repro.persistence import codec
from repro.persistence.wal import record_from_envelope
from repro.runtime.procpool import ProcessShardHandle
from repro.runtime.protocol import (
    COMMANDS,
    KIND_ADOPT,
    WAL_COMMANDS,
    ShardServer,
    replay_record,
)
from tests.helpers import make_document, make_query

CONFIG = MonitorConfig(algorithm="mrio", lam=1e-3)
QUERIES = [make_query(i, {i % 5: 1.0, (i + 2) % 5: 0.5}, 2) for i in range(6)]
DOCUMENTS = [
    make_document(i, {i % 5: 1.0, (i + 1) % 5: 0.7}, float(i + 1)) for i in range(8)
]
MUTATING = sorted(name for name, entry in COMMANDS.items() if entry.mutating)


class Loopback:
    """Both ends of a connection: requests are served as they are sent."""

    def __init__(self, server: ShardServer) -> None:
        self.server = server
        self.replies = []

    def send_bytes(self, frame: bytes) -> None:
        assert self.server.serve(frame, self.replies.append) is not None

    def recv_bytes(self) -> bytes:
        return self.replies.pop(0)


def _warm_shard() -> ContinuousMonitor:
    shard = ContinuousMonitor(CONFIG)
    for query in QUERIES[:4]:
        shard.register_query(query)
    shard.process_batch(DOCUMENTS[:4])
    return shard


def _state(shard: ContinuousMonitor):
    """The shard's encoded state minus its one wall-clock measurement."""
    encoded = shard.snapshot_encoded()
    encoded["counters"] = dict(encoded["counters"], elapsed_seconds=0.0)
    return encoded


def _handles(shard: ContinuousMonitor):
    def server():
        return ShardServer(shard, "test shard")

    pipe = ProcessShardHandle(0, None, Loopback(server()))
    remote = RemoteShardHandle(
        0, HostClient(None, ("loopback", 0), Loopback(server())), [], journaling=True
    )
    return pipe, remote


@pytest.mark.parametrize("name", sorted(COMMANDS))
class TestEveryRow:
    def test_resolves_on_the_engine_host(self, name):
        entry = COMMANDS[name]
        shard = ContinuousMonitor(CONFIG)
        assert hasattr(shard, entry.attr)
        assert callable(getattr(shard, entry.attr)) is not entry.is_property

    def test_exposed_by_both_handles(self, name):
        entry = COMMANDS[name]
        shard = _warm_shard()
        for handle in _handles(shard):
            if name == "process":
                # ``handle.process`` is the worker's OS process; per-event
                # processing is only ever fanned out by command name.
                assert handle.call(name, DOCUMENTS[5]) is not None
                continue
            exposed = getattr(handle, entry.attr)
            if not entry.is_property:
                assert callable(exposed)
            else:
                direct = getattr(shard, entry.attr)
                assert exposed == (dict(direct) if name == "queries" else direct)

    def test_router_predicts_an_lsn_exactly_for_mutating_rows(self, name):
        _, remote = _handles(_warm_shard())
        remote.submit_frame(name, codec.pack_frame({"c": "ping"}))
        assert (remote._pending.lsn is not None) is COMMANDS[name].mutating
        remote.collect()


def _arguments(name: str):
    """Arguments of one mutating call, valid against ``_warm_shard()``."""
    donor = ContinuousMonitor(CONFIG)
    for query in QUERIES[4:]:
        donor.register_query(query)
    donor.process_batch(DOCUMENTS[:4])
    return {
        "process": (DOCUMENTS[4],),
        "process_batch": (DOCUMENTS[4:],),
        "batch_commit": (DOCUMENTS[4:],),
        "register": (QUERIES[4],),
        "unregister": (QUERIES[1].query_id,),
        "renormalize": (3.0,),
        "restore_encoded": (donor.snapshot_encoded(),),
    }[name]


@pytest.mark.parametrize("name", MUTATING)
def test_journal_record_replays_to_the_same_state_and_value(name):
    entry = COMMANDS[name]
    args = _arguments(name)
    fresh = name == "restore_encoded"
    applied = ContinuousMonitor(CONFIG) if fresh else _warm_shard()
    replayed = ContinuousMonitor(CONFIG) if fresh else _warm_shard()

    value = entry.run(applied, args)
    kind, data = entry.record(args, 0)
    # Through the WAL's own framing, as a journaled record travels.
    line = codec.pack_line({"v": codec.CODEC_VERSION, "lsn": 1, "kind": kind, "data": data})
    record = record_from_envelope(codec.unpack_line(line))
    assert replay_record(replayed, record, shard_id=0) == value
    assert _state(replayed) == _state(applied)


def test_membership_records_of_other_shards_are_skipped():
    kind, data = COMMANDS["register"].record((QUERIES[4],), 1)
    record = record_from_envelope({"v": codec.CODEC_VERSION, "lsn": 1, "kind": kind, "data": data})
    shard = ContinuousMonitor(CONFIG)
    replay_record(shard, record, shard_id=0)
    assert shard.num_queries == 0
    replay_record(shard, record, shard_id=1)
    assert shard.num_queries == 1


def test_every_record_kind_the_table_emits_is_replayable():
    kinds = {COMMANDS[name].record(_arguments(name), 0)[0] for name in MUTATING}
    assert kinds == {
        codec.KIND_DOCUMENT,
        codec.KIND_BATCH,
        codec.KIND_REGISTER,
        codec.KIND_UNREGISTER,
        codec.KIND_RENORMALIZE,
        KIND_ADOPT,
    }


class TestSharedRoutine:
    def test_unknown_command_is_a_worker_error(self):
        for handle in _handles(_warm_shard()):
            with pytest.raises(WorkerError, match="unknown command 'no_such_verb'"):
                handle.call("no_such_verb")
            # The connection survives a refused command.
            assert handle.num_queries == 4

    def test_wal_verbs_are_extensions_not_shard_commands(self):
        assert not set(WAL_COMMANDS) & set(COMMANDS)
        pipe, _ = _handles(_warm_shard())
        with pytest.raises(WorkerError, match="unknown command 'wal_flush'"):
            pipe.call("wal_flush")

    def test_shard_errors_cross_back_as_themselves(self):
        from repro.exceptions import StreamError

        shard = _warm_shard()
        for document, handle in zip(DOCUMENTS[4:6], _handles(shard)):
            with pytest.raises(StreamError):
                handle.call("process", DOCUMENTS[0])  # stale arrival
            # The handle stays usable after the error reply.
            assert handle.call("num_queries") == 4
            handle.call("process", document)
            assert shard.last_arrival == document.arrival_time

    def test_unencodable_reply_falls_back_to_a_worker_error(self):
        server = ShardServer(
            _warm_shard(), "test shard", {"leak": functools.partial(object)}
        )
        handle = ProcessShardHandle(0, None, Loopback(server))
        with pytest.raises(WorkerError, match="reply to 'leak' could not be encoded"):
            handle.call("leak")

    def test_staged_chunks_run_the_engine_once_at_the_commit(self):
        whole, chunked = _warm_shard(), _warm_shard()
        want = whole.process_batch(DOCUMENTS[4:])
        link = Loopback(ShardServer(chunked, "test shard"))
        handle = ProcessShardHandle(0, None, link)
        stage = codec.pack_frame(
            {"c": "batch_stage", "f": True}, codec.encode_document_batch(DOCUMENTS[4:6])
        )
        commit = codec.pack_frame(
            {"c": "batch_commit", "g": True}, codec.encode_document_batch(DOCUMENTS[6:])
        )
        handle.submit_frame("batch_stage", stage)
        assert handle.collect() == 2
        handle.submit_frame("batch_commit", commit)
        assert handle.collect() == want
        assert _state(chunked) == _state(whole)
