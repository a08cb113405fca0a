"""Sharded runtime: scale the monitor out across parallel engine shards.

The paper's algorithms make a *single* engine fast at skipping unaffected
queries; this layer makes the system scale *out*: the registered query set
is partitioned across independent engine hosts — each shard is a
:class:`~repro.core.monitor.ContinuousMonitor`, a full engine with its own
index, bounds, decay and expiration state — a :class:`~repro.runtime.routing.QueryRouter` with
pluggable partitioning policies decides query placement, and the
:class:`~repro.runtime.sharded.ShardedMonitor` facade fans stream events
out to all shards through a pluggable executor and merges their update
streams and counters into one coherent view — the "partition the
subscription index, merge the notifications" shape of production pub/sub
matching systems.

Public entry points:

* :class:`ShardedMonitor` — drop-in replacement for
  :class:`~repro.core.monitor.ContinuousMonitor`;
* :class:`QueryRouter`, :class:`HashPartitionPolicy`,
  :class:`TermAffinityPolicy`, :func:`make_policy` — query placement;
* :class:`SerialExecutor`, :class:`ProcessShardExecutor`,
  :func:`make_executor` — shard execution strategies (in-process serial, or
  one worker process per shard; ``"remote"`` lives in :mod:`repro.cluster`);
* :mod:`repro.runtime.protocol` — the one shard-command table every
  resident shard, handle, journal and replay derives from.
"""

from repro.runtime.executors import (
    SerialExecutor,
    ShardExecutor,
    make_executor,
)
from repro.runtime.procpool import ProcessShardExecutor, ProcessShardHandle
from repro.runtime.routing import (
    HashPartitionPolicy,
    PartitionPolicy,
    QueryRouter,
    TermAffinityPolicy,
    make_policy,
)
from repro.runtime.sharded import ShardedMonitor

__all__ = [
    "ShardExecutor",
    "SerialExecutor",
    "ProcessShardExecutor",
    "ProcessShardHandle",
    "make_executor",
    "PartitionPolicy",
    "HashPartitionPolicy",
    "TermAffinityPolicy",
    "QueryRouter",
    "make_policy",
    "ShardedMonitor",
]
