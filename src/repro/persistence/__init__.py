"""Durability subsystem: write-ahead logging, checkpoints, crash recovery.

The in-memory engines have ``snapshot()``/``restore()`` hooks; this package
promotes them into real durability:

* :mod:`repro.persistence.codec` — one versioned, deterministic encoding of
  queries, documents, engine snapshots and per-event log records;
* :mod:`repro.persistence.wal` — an append-only segmented write-ahead log
  with group commit, CRC-framed records and torn-tail repair;
* :mod:`repro.persistence.checkpoint` — full + incremental checkpoints
  taken from the snapshot hooks without stopping ingestion;
* :mod:`repro.persistence.recovery` — checkpoint load + WAL-tail replay
  through the normal processing path, yielding replay-exact state;
* :mod:`repro.persistence.durable` — the :class:`DurableMonitor` facade
  that journals a :class:`~repro.core.monitor.ContinuousMonitor` or a
  :class:`~repro.runtime.sharded.ShardedMonitor` (one WAL per shard).

Quickstart::

    durability = DurabilityConfig(directory=state_dir, group_commit=1)
    monitor = DurableMonitor.open(durability, MonitorConfig(algorithm="mrio"))
    ...
    monitor, report = DurableMonitor.recover(durability)   # after a crash
"""

from repro.persistence.checkpoint import CheckpointManager
from repro.persistence.codec import CODEC_VERSION
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from repro.persistence.recovery import RecoveryReport, recover_engine
from repro.persistence.wal import WalRecord, WriteAheadLog

__all__ = [
    "CODEC_VERSION",
    "CheckpointManager",
    "DurabilityConfig",
    "DurableMonitor",
    "RecoveryReport",
    "WalRecord",
    "WriteAheadLog",
    "recover_engine",
]
