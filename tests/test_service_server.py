"""Behavioural tests of the pub/sub server over real loopback sockets."""

import asyncio
import contextlib
import tempfile

import pytest

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.exceptions import ConfigurationError, ServiceError
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from repro.runtime.sharded import ShardedMonitor
from repro.service import MonitorClient, MonitorServer, ServiceConfig
from tests.helpers import make_document

CONFIG = MonitorConfig(algorithm="mrio", lam=1e-4)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@contextlib.asynccontextmanager
async def serve(monitor=None, **service_kwargs):
    service_kwargs.setdefault("shutdown_timeout", 10.0)
    server = MonitorServer(
        monitor if monitor is not None else ContinuousMonitor(CONFIG),
        ServiceConfig(**service_kwargs),
    )
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


def doc(doc_id, weights, arrival=None):
    return make_document(doc_id, weights, arrival)


class TestLifecycle:
    def test_subscribe_publish_receive(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                query_id = await client.subscribe({1: 1.0, 2: 1.0}, k=2)
                ack = await client.publish(doc(10, {1: 1.0}))
                assert ack.arrival == 1.0  # fresh monitor: clock starts at 0
                update = await client.next_update(timeout=10)
                assert update.query_id == query_id
                assert update.batch == ack.batch
                assert [entry.doc_id for entry in update.entries] == [10]
                assert server.monitor.top_k(query_id)[0].doc_id == 10
                await client.close()

        run(scenario())

    def test_unsubscribe_stops_updates_and_unregisters(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                query_id = await client.subscribe({1: 1.0}, k=1)
                assert server.monitor.num_queries == 1
                await client.unsubscribe(query_id)
                assert server.monitor.num_queries == 0
                await client.publish(doc(1, {1: 1.0}))
                with pytest.raises(asyncio.TimeoutError):
                    await client.next_update(timeout=0.2)
                await client.close()

        run(scenario())

    def test_detach_on_disconnect_keeps_query_then_attach_resumes(self):
        async def scenario():
            async with serve() as server:
                first = await MonitorClient.connect(*server.address)
                query_id = await first.subscribe({1: 1.0}, k=1)
                await first.close()
                assert server.monitor.num_queries == 1  # registration survives
                second = await MonitorClient.connect(*server.address)
                # The server retires the dead session asynchronously; retry
                # the attach until the detach has landed.
                deadline = asyncio.get_running_loop().time() + 10
                while True:
                    try:
                        await second.attach(query_id)
                        break
                    except ServiceError:
                        assert asyncio.get_running_loop().time() < deadline
                        await asyncio.sleep(0.02)
                await second.publish(doc(5, {1: 1.0}))
                update = await second.next_update(timeout=10)
                assert update.query_id == query_id
                await second.close()

        run(scenario())

    def test_attach_conflicts_and_unknown_query(self):
        async def scenario():
            async with serve() as server:
                owner = await MonitorClient.connect(*server.address)
                other = await MonitorClient.connect(*server.address)
                query_id = await owner.subscribe({1: 1.0}, k=1)
                with pytest.raises(ServiceError, match="another subscriber"):
                    await other.attach(query_id)
                with pytest.raises(ServiceError, match="not registered"):
                    await other.attach(query_id + 99)
                with pytest.raises(ServiceError, match="another subscriber"):
                    await other.unsubscribe(query_id)
                await owner.close()
                await other.close()

        run(scenario())

    def test_graceful_stop_pushes_shutdown(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                await client.subscribe({1: 1.0}, k=1)
                await server.stop(reason="maintenance window")
                # The reader sees the push, then EOF.
                deadline = asyncio.get_running_loop().time() + 10
                while client.server_shutdown is None:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                assert client.server_shutdown == "maintenance window"
                await client.close()

        run(scenario())


class TestIngestion:
    def test_publish_batch_is_one_engine_batch(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                documents = [doc(i, {1: 1.0, 2: float(i + 1)}) for i in range(10)]
                ack = await client.publish_batch(documents)
                assert len(ack.arrivals) == 10
                assert ack.arrivals == sorted(ack.arrivals)
                assert len(set(ack.batches)) == 1
                assert server.counters.batches_processed == 1
                assert server.counters.documents_ingested == 10
                await client.close()

        run(scenario())

    def test_large_batch_chunks_to_max_batch(self):
        async def scenario():
            async with serve(max_batch=16) as server:
                client = await MonitorClient.connect(*server.address)
                documents = [doc(i, {1: 1.0}) for i in range(40)]
                ack = await client.publish_batch(documents)
                assert len(set(ack.batches)) == 3  # 16 + 16 + 8
                assert server.counters.batches_processed == 3
                await client.close()

        run(scenario())

    def test_concurrent_publishes_micro_batch(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                acks = await asyncio.gather(
                    *[client.publish(doc(i, {1: 1.0})) for i in range(32)]
                )
                # Arrival stamping is strictly monotone across the burst ...
                arrivals = sorted(ack.arrival for ack in acks)
                assert arrivals == [float(i) for i in range(1, 33)]
                # ... and the pipeline coalesced the pipelined publishes
                # into fewer engine batches than publish operations.
                assert server.counters.batches_processed < 32
                assert server.counters.documents_ingested == 32
                await client.close()

        run(scenario())

    def test_explicit_arrival_times_respect_stream_order(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                ack = await client.publish(doc(1, {1: 1.0}, arrival=5.0))
                assert ack.arrival == 5.0
                with pytest.raises(ServiceError, match="before the stream clock"):
                    await client.publish(doc(2, {1: 1.0}, arrival=1.0))
                # The rejected publish left no trace: the clock still sits
                # at 5.0 and stamping resumes from there.
                ack = await client.publish(doc(3, {1: 1.0}))
                assert ack.arrival == 6.0
                assert server.monitor.statistics.documents == 2
                await client.close()

        run(scenario())

    def test_invalid_document_is_refused_and_server_survives(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                # Document construction would already raise client-side, so
                # craft the raw frame: an unnormalized vector must be
                # refused by the server's own validation.
                with pytest.raises(ServiceError, match="normalized"):
                    await client._request(
                        "publish",
                        doc={"i": 1, "a": None, "t": [1, 2], "w": [1.0, 5.0]},
                    )
                await client.ping()  # connection and server still healthy
                assert server.counters.request_errors == 1
                await client.close()

        run(scenario())

    def test_malformed_field_types_get_error_replies_not_disconnects(self):
        """Well-framed JSON with garbage field types must be answered."""

        async def body():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                # Non-numeric vector terms in subscribe.
                with pytest.raises(ServiceError, match="numeric"):
                    await client._request("subscribe", t=["x"], w=[1.0])
                # Non-integer k.
                with pytest.raises(ServiceError, match="integer"):
                    await client._request("subscribe", t=[1], w=[1.0], k="ten")
                # k=0 is refused, not replaced by the default k.
                with pytest.raises(ServiceError, match="k must be"):
                    await client._request("subscribe", t=[1], w=[1.0], k=0)
                assert server.monitor.num_queries == 0
                # Non-object document payloads.
                with pytest.raises(ServiceError, match="JSON object"):
                    await client._request("publish", doc="garbage")
                with pytest.raises(ServiceError, match="numeric"):
                    await client._request(
                        "publish", doc={"i": "seven", "a": None, "t": [1], "w": [1.0]}
                    )
                # The connection survived every one of them.
                await client.ping()
                assert server.counters.request_errors == 5
                await client.close()

        run(body())

    def test_unknown_op_gets_error_reply(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                with pytest.raises(ServiceError, match="unknown op"):
                    await client._request("frobnicate")
                await client.ping()
                await client.close()

        run(scenario())

    def test_mid_drain_engine_failure_acks_committed_work_and_poisons(self):
        """A failure in chunk N must not disown chunks < N, and the
        pipeline must refuse everything after the poison."""

        async def body():
            async with serve(max_batch=2) as server:
                client = await MonitorClient.connect(*server.address)
                real = server.monitor.process_batch
                calls = {"count": 0}

                def flaky(documents):
                    calls["count"] += 1
                    if calls["count"] == 2:
                        raise RuntimeError("disk full")
                    return real(documents)

                server.monitor.process_batch = flaky
                first = client.publish_batch([doc(0, {1: 1.0}), doc(1, {1: 1.0})])
                second = client.publish_batch([doc(2, {1: 1.0}), doc(3, {1: 1.0})])
                outcomes = await asyncio.gather(
                    first, second, return_exceptions=True
                )
                # The first chunk committed - its publish is acked ok; the
                # failing one reports honest partial-application.
                assert not isinstance(outcomes[0], Exception)
                assert isinstance(outcomes[1], ServiceError)
                assert server.monitor.statistics.documents == 2
                # Poisoned: nothing queued later may touch the engine.
                with pytest.raises(ServiceError, match="pipeline failed"):
                    await client.publish(doc(9, {1: 1.0}))
                assert server.monitor.statistics.documents == 2
                await client.close()

        run(body())

    def test_publish_refused_after_stop_begins(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                await client.publish(doc(1, {1: 1.0}))
                await server.stop()
                with pytest.raises(ServiceError):
                    await client.publish(doc(2, {1: 1.0}))
                await client.close()

        run(scenario())


class TestStatsAndAdmin:
    def test_stats_wire_shape(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                await client.subscribe({1: 1.0}, k=1)
                await client.publish(doc(1, {1: 1.0}))
                stats = await client.stats()
                assert set(stats) == {
                    "protocol",
                    "server",
                    "engine",
                    "service",
                    "num_queries",
                    "attached_queries",
                    "subscribers",
                    "batches",
                    "clock",
                    "durable",
                    "policy",
                }
                # The engine section is EventCounters.snapshot() verbatim.
                assert stats["engine"] == server.monitor.statistics.snapshot()
                assert stats["service"]["publishes"] == 1
                assert stats["service"]["documents_ingested"] == 1
                assert stats["num_queries"] == 1
                assert stats["attached_queries"] == 1
                assert stats["subscribers"] == 1
                assert stats["durable"] is False
                assert stats["clock"] == 1.0
                await client.close()

        run(scenario())

    def test_checkpoint_requires_durability(self):
        async def scenario():
            async with serve() as server:
                client = await MonitorClient.connect(*server.address)
                with pytest.raises(ServiceError, match="not durable"):
                    await client.checkpoint()
                await client.close()

        run(scenario())

    def test_checkpoint_on_durable_monitor(self):
        async def scenario(root):
            durability = DurabilityConfig(
                directory=root, group_commit=1, checkpoint_interval=None
            )
            monitor = DurableMonitor.open(durability, CONFIG)
            async with serve(monitor=monitor) as server:
                client = await MonitorClient.connect(*server.address)
                await client.subscribe({1: 1.0}, k=1)
                await client.publish(doc(1, {1: 1.0}))
                lsn = await client.checkpoint()
                assert lsn == server.monitor.last_lsn
                stats = await client.stats()
                assert stats["durable"] is True
                await client.close()

        with tempfile.TemporaryDirectory() as root:
            run(scenario(root))

    def test_sharded_monitor_behind_the_server(self):
        async def scenario():
            monitor = ShardedMonitor(CONFIG, n_shards=2)
            async with serve(monitor=monitor) as server:
                client = await MonitorClient.connect(*server.address)
                ids = [await client.subscribe({t: 1.0}, k=1) for t in (1, 2, 3)]
                await client.publish_batch([doc(7, {1: 0.6, 2: 0.8})])
                received = {
                    (await client.next_update(timeout=10)).query_id
                    for _ in range(2)
                }
                assert received == {ids[0], ids[1]}
                assert server.monitor.statistics.documents == 1
                await client.close()

        run(scenario())

    def test_process_sharded_monitor_behind_the_server(self):
        # The serving layer is executor-agnostic: hosting shards in worker
        # processes changes nothing about subscriptions, pushes or stats.
        async def scenario():
            monitor = ShardedMonitor(CONFIG, n_shards=2, executor="processes")
            async with serve(monitor=monitor) as server:
                client = await MonitorClient.connect(*server.address)
                ids = [await client.subscribe({t: 1.0}, k=1) for t in (1, 2, 3)]
                await client.publish_batch([doc(7, {1: 0.6, 2: 0.8})])
                received = {
                    (await client.next_update(timeout=10)).query_id
                    for _ in range(2)
                }
                assert received == {ids[0], ids[1]}
                assert server.monitor.statistics.documents == 1
                await client.close()

        run(scenario())


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(slow_consumer_policy="teleport")
        with pytest.raises(ConfigurationError):
            ServiceConfig(subscriber_queue=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(arrival_interval=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(linger_yields=-1)
        # asyncio rejects these only once a client connects, killing every
        # connection before ``hello``.
        with pytest.raises(ConfigurationError):
            ServiceConfig(write_buffer_limit=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(send_buffer_bytes=0)
        # None keeps meaning "OS default".
        ServiceConfig(write_buffer_limit=None, send_buffer_bytes=None)
