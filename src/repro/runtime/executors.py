"""Executors that run per-shard work: serially in-process, or in resident workers.

The sharded monitor fans every stream event (or batch) out to all shards;
*how* those per-shard tasks run is pluggable:

* :class:`SerialExecutor` — runs shard tasks one after another on the
  calling thread.  Zero concurrency, zero overhead, fully deterministic —
  the right choice for tests, differential runs and single-core boxes.
* :class:`~repro.runtime.procpool.ProcessShardExecutor` (name
  ``"processes"``) — hosts each shard inside a long-lived worker process
  and drives it over a pipe (document batches through shared memory when
  the host has it).  Yields wall-clock speedups on stock multi-core
  CPython, at the price of serializing events and updates across process
  boundaries.
* :class:`~repro.cluster.remote.RemoteShardExecutor` (name ``"remote"``) —
  the same protocol over sockets, to shard-host processes with optional
  hot standbys.

The last two are *shard-resident*: the shards live in the workers, not in
the calling process (see :attr:`ShardExecutor.shard_resident`), and both
fan commands out through the one pipelined loop here, :func:`pipeline`.

Failure contract
----------------

All executors implement the same fan-out failure semantics, which the
durability layer depends on: **every task runs to completion, then the
first exception in task order is raised**.  A mid-batch failure in one
shard therefore never leaves sibling shards half-driven (serial) or still
mutating state while the caller already sees the exception (pipelined) —
after ``run`` raises, every shard has fully processed or fully refused the
fan-out, and the surviving state is identical across executor flavours.
Results are returned in task order.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar, Union

from repro.exceptions import ConfigurationError

T = TypeVar("T")


def raise_first_failure(values: List[T], failures: Dict[int, BaseException]) -> List[T]:
    """Settle a fan-out that has already run every task to completion.

    Raises the first exception in task order (``failures`` is keyed by task
    index) and returns the values otherwise.  Shared by all executors so
    the contract lives in exactly one place.
    """
    if failures:
        raise failures[min(failures)]
    return values


def run_serially(tasks: Sequence[Callable[[], T]]) -> List[T]:
    """Run thunks on the calling thread under the fan-out failure contract.

    The body of :meth:`SerialExecutor.run`, shared with executors that fall
    back to in-thread execution for opaque thunks (the resident executors'
    parallel path ships commands, not closures).
    """
    values: List[T] = []
    failures: Dict[int, BaseException] = {}
    for index, task in enumerate(tasks):
        try:
            values.append(task())
        except Exception as exc:
            values.append(None)  # type: ignore[arg-type]
            failures[index] = exc
    return raise_first_failure(values, failures)


def pipeline(
    handles: Sequence,
    submit: Callable[[object], None],
    failures: Dict[int, BaseException],
) -> List[object]:
    """One submit-all-then-collect round over resident-shard handles.

    *The* pipelined fan-out loop: ``submit(handle)`` runs for every handle
    before the first ``handle.collect()``, so all workers serve the request
    concurrently; replies are collected in handle order.  A handle whose
    submit or collect raises is recorded in ``failures`` (by index) and its
    value is ``None``; handles already in ``failures`` are skipped, which
    lets a multi-round fan-out drive the healthy workers to completion.
    The caller settles with :func:`raise_first_failure`.
    """
    values: List[object] = [None] * len(handles)
    submitted: List[int] = []
    for index, handle in enumerate(handles):
        if index in failures:
            continue
        try:
            submit(handle)
        except Exception as exc:  # noqa: BLE001 - collect-all contract
            failures[index] = exc
        else:
            submitted.append(index)
    for index in submitted:
        try:
            values[index] = handles[index].collect()
        except Exception as exc:  # noqa: BLE001 - collect-all contract
            failures[index] = exc
    return values


class ShardExecutor(abc.ABC):
    """Runs a list of zero-argument shard tasks, preserving order."""

    #: Short name used by :func:`make_executor` and the diagnostics.
    name = "abstract"

    #: True when the executor *owns* the shards (they live inside its worker
    #: processes and are reached through handles it vends) rather than
    #: running tasks against shards owned by the caller.
    shard_resident = False

    @abc.abstractmethod
    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute every task; returns their results in task order.

        Every task runs to completion even when an earlier one fails; the
        first exception in task order is then raised (see the module
        docstring's failure contract).
        """

    def run_shards(
        self, shards: Sequence[object], method: str, args: Tuple[object, ...]
    ) -> List[object]:
        """Invoke ``method(*args)`` on every shard; results in shard order.

        The fan-out seam the sharded monitor drives: the in-process executor
        turns it into plain thunks over local engine hosts,
        while the resident executors override it to pipeline one command to
        every worker before collecting any reply.  Same failure contract as
        :meth:`run`.
        """
        return self.run(
            [
                (lambda shard=shard: getattr(shard, method)(*args))
                for shard in shards
            ]
        )

    def close(self) -> None:
        """Release any worker resources; the executor is unusable after."""

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(ShardExecutor):
    """Run shard tasks sequentially on the calling thread.

    A failing task does not abort the fan-out: later shards still run, so
    the post-failure state matches what the resident executors leave behind.
    """

    name = "serial"

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        return run_serially(tasks)


#: Names :func:`make_executor` accepts.  ``"processes"`` picks the
#: shared-memory batch transport when the host provides it and falls back
#: to the pipes by itself; forcing a transport takes an instance,
#: ``ProcessShardExecutor(n, transport="pipe")``.
EXECUTOR_NAMES = ("serial", "processes", "remote")


def make_executor(spec: Union[str, ShardExecutor], n_shards: int) -> ShardExecutor:
    """Resolve an executor name (``"serial"``/``"processes"``/``"remote"``)
    or pass an instance through.

    ``n_shards`` sizes the worker fleet of the resident executors, which
    resolve lazily — their modules import this one for the base class.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    name = str(spec).lower()
    if name == "serial":
        return SerialExecutor()
    if name == "processes":
        from repro.runtime.procpool import ProcessShardExecutor

        return ProcessShardExecutor(n_shards)
    if name == "remote":
        from repro.cluster.remote import RemoteShardExecutor

        return RemoteShardExecutor(n_shards)
    raise ConfigurationError(
        f"unknown shard executor {spec!r}; expected one of {sorted(EXECUTOR_NAMES)}"
    )
