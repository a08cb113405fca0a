"""Regression tests for the shard-executor failure contract.

The contract (``repro.runtime.executors`` module docstring): every task of
a fan-out runs to completion, then the first exception **in task order** is
raised.  Two historical bugs motivated it:

* ``SerialExecutor`` aborted the fan-out at the first failing task, leaving
  later shards un-run — after a failed batch, shard states diverged from
  what the pooled executors produced;
* a pooled executor raised out of the first failed task while its siblings
  were still mutating shard state — the caller observed an exception over a
  moving fan-out.

Both flavours (serial / pipelined resident shards) are held to the same
semantics here; the pipelined loop is exercised in-process over fake
handles and end to end through the process executor.
"""

from __future__ import annotations

import pytest

from repro.core.config import MonitorConfig
from repro.exceptions import (
    ConfigurationError,
    DuplicateQueryError,
    WorkerError,
)
from repro.queries.query import Query
from repro.runtime.executors import (
    SerialExecutor,
    make_executor,
    pipeline,
    raise_first_failure,
)
from repro.runtime.procpool import ProcessShardExecutor


class BoomA(RuntimeError):
    pass


class BoomB(RuntimeError):
    pass


def _query(query_id: int) -> Query:
    return Query(query_id=query_id, vector={1: 1.0}, k=2)


class TestSerialExecutor:
    def test_all_tasks_run_even_when_one_fails(self):
        ran = []
        tasks = [
            lambda: ran.append(0),
            lambda: (_ for _ in ()).throw(BoomA("mid-batch")),
            lambda: ran.append(2),
        ]
        with pytest.raises(BoomA):
            SerialExecutor().run(tasks)
        # The bug: task 2 never ran because task 1 aborted the fan-out.
        assert ran == [0, 2]

    def test_first_exception_in_task_order_wins(self):
        tasks = [
            lambda: None,
            lambda: (_ for _ in ()).throw(BoomA("first in task order")),
            lambda: (_ for _ in ()).throw(BoomB("second in task order")),
        ]
        with pytest.raises(BoomA):
            SerialExecutor().run(tasks)

    def test_results_in_task_order(self):
        assert SerialExecutor().run([lambda i=i: i * i for i in range(5)]) == [
            0,
            1,
            4,
            9,
            16,
        ]


class FakeHandle:
    """A resident-shard handle stand-in: records the order of its halves."""

    def __init__(self, log, name, submit_error=None, collect_error=None):
        self.log, self.name = log, name
        self.submit_error, self.collect_error = submit_error, collect_error

    def submit(self):
        self.log.append(("submit", self.name))
        if self.submit_error is not None:
            raise self.submit_error

    def collect(self):
        self.log.append(("collect", self.name))
        if self.collect_error is not None:
            raise self.collect_error
        return self.name


def _fan_out(handles):
    failures = {}
    values = pipeline(handles, lambda handle: handle.submit(), failures)
    return raise_first_failure(values, failures)


class TestPipelinedFanOut:
    def test_failure_waits_for_sibling_tasks(self):
        """No exception escapes while another shard's reply is uncollected."""
        log = []
        handles = [
            FakeHandle(log, 0, collect_error=BoomA("immediate")),
            FakeHandle(log, 1),
        ]
        with pytest.raises(BoomA):
            _fan_out(handles)
        # Every submit precedes every collect, and the healthy sibling was
        # driven to completion before the exception reached us.
        assert log == [("submit", 0), ("submit", 1), ("collect", 0), ("collect", 1)]

    def test_first_exception_in_task_order_wins_not_first_in_time(self):
        log = []
        handles = [
            FakeHandle(log, 0, collect_error=BoomA("task 0, fails last")),
            FakeHandle(log, 1, submit_error=BoomB("task 1, fails first in time")),
        ]
        with pytest.raises(BoomA):
            _fan_out(handles)
        # A handle whose submit failed has no reply to wait for.
        assert ("collect", 1) not in log

    def test_single_task_still_raises(self):
        with pytest.raises(BoomA):
            _fan_out([FakeHandle([], 0, collect_error=BoomA("solo"))])

    def test_results_in_task_order(self):
        assert _fan_out([FakeHandle([], i) for i in range(8)]) == list(range(8))

    def test_failed_handles_sit_out_later_rounds(self):
        log = []
        handles = [FakeHandle(log, 0), FakeHandle(log, 1)]
        failures = {0: BoomA("failed an earlier round")}
        values = pipeline(handles, lambda handle: handle.submit(), failures)
        assert values == [None, 1]
        assert log == [("submit", 1), ("collect", 1)]
        with pytest.raises(BoomA):
            raise_first_failure(values, failures)


class TestProcessExecutor:
    def test_fanout_completes_before_raising(self):
        """A command failing on one worker still runs on every other worker."""
        executor = ProcessShardExecutor(2)
        try:
            shard_a, shard_b = executor.spawn_shards(MonitorConfig(algorithm="mrio"))
            poison = _query(7)
            shard_a.register_query(poison)  # shard A now refuses a re-register
            with pytest.raises(DuplicateQueryError):
                executor.run_shards([shard_a, shard_b], "register", (poison,))
            # Shard B's task ran to completion despite shard A's failure.
            assert 7 in shard_b.queries
        finally:
            executor.close()

    def test_thunk_fallback_honours_the_contract(self):
        ran = []
        executor = ProcessShardExecutor(1)
        tasks = [
            lambda: (_ for _ in ()).throw(BoomA("first")),
            lambda: ran.append(1),
        ]
        with pytest.raises(BoomA):
            executor.run(tasks)
        assert ran == [1]

    def test_dead_worker_surfaces_as_worker_error(self):
        executor = ProcessShardExecutor(1)
        try:
            (handle,) = executor.spawn_shards(MonitorConfig(algorithm="mrio"))
            handle.process.terminate()
            handle.process.join(timeout=5.0)
            with pytest.raises(WorkerError):
                handle.call("num_queries")
        finally:
            executor.close()


class TestShardResidentTopology:
    def test_mismatched_prebuilt_executor_rejected(self):
        # A pre-built process executor carries its own worker count; a
        # monitor asking for a different topology must be refused, not
        # routed onto shards that don't exist.
        from repro.runtime.sharded import ShardedMonitor

        executor = ProcessShardExecutor(2)
        try:
            with pytest.raises(ConfigurationError):
                ShardedMonitor(
                    MonitorConfig(algorithm="mrio"), n_shards=4, executor=executor
                )
        finally:
            executor.close()

    def test_spawn_failure_leaves_executor_respawnable(self):
        executor = ProcessShardExecutor(2)
        try:
            executor.spawn_shards(MonitorConfig(algorithm="mrio"))
            with pytest.raises(ConfigurationError):
                # Double-spawn is refused while workers are alive...
                executor.spawn_shards(MonitorConfig(algorithm="mrio"))
        finally:
            executor.close()
        # ...and after close the executor can spawn again.
        handles = executor.spawn_shards(MonitorConfig(algorithm="mrio"))
        assert len(handles) == 2
        executor.close()


class TestMakeExecutor:
    def test_resolves_all_three_names(self):
        assert make_executor("serial", 2).name == "serial"
        processes = make_executor("processes", 2)
        assert processes.name == "processes" and processes.n_shards == 2
        assert processes.shard_resident
        remote = make_executor("remote", 2)
        assert remote.name == "remote" and remote.n_shards == 2
        assert remote.shard_resident

    def test_thread_pool_name_is_gone_and_transports_are_forced_by_instance(self):
        with pytest.raises(ConfigurationError, match="serial"):
            make_executor("threads", 2)
        pipe = ProcessShardExecutor(2, transport="pipe")
        assert make_executor(pipe, 2) is pipe

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ConfigurationError, match="processes"):
            make_executor("fibers", 2)
