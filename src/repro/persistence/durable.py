"""The durable monitoring facade: a monitor that survives being killed.

:class:`DurableMonitor` runs one WAL/checkpoint/sidecar procedure over a list
of engine hosts: the one :class:`~repro.core.monitor.ContinuousMonitor` it
wraps or, with ``n_shards > 1``, the shards of a
:class:`~repro.runtime.sharded.ShardedMonitor` (``ContinuousMonitor``s too, or
handles onto them).  It journals every state-changing operation — document
arrivals, ingestion batches, query registration/unregistration, explicit decay
rebases — to a write-ahead log before taking periodic checkpoints from the
hosts' snapshot hooks.  Killing the process at an arbitrary event and calling
:meth:`DurableMonitor.recover` reproduces the state of the longest durable
log prefix *byte-identically*: top-k sets, scores, thresholds, decay origin,
live window and work counters all match an uninterrupted run.

There is **one WAL and one checkpoint directory per host**, each carrying
the full record sequence with identical LSNs.  Recovery hands every host its
encoded checkpoint (``restore_encoded`` — decoded once, where the host
lives), replays its WAL tail and clamps all hosts to the shortest durable
prefix, so a crash mid-fan-out can never leave shards at different positions.
A tiny facade sidecar — written atomically after each checkpoint round — is
the round's commit marker and carries the facade-level statistics.

On-disk layout under ``DurabilityConfig.directory``::

    meta.json            # immutable identity: mode, shards, engine config
    facade.json          # checkpoint commit marker + facade statistics
    wal/                 # single-monitor WAL segments
    checkpoints/         # single-monitor checkpoints
    shard-0000/wal/ ...  # per-shard WAL + checkpoints (sharded mode)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor, MonitorSurface
from repro.core.results import BatchUpdate, ResultEntry, ResultUpdate
from repro.documents.document import Document
from repro.exceptions import (
    ConfigurationError,
    CorruptRecordError,
    PersistenceError,
    RecoveryError,
    WorkerError,
)
from repro.metrics.counters import EventCounters
from repro.persistence import codec
from repro.persistence.checkpoint import CheckpointManager
from repro.persistence.recovery import RecoveryReport, recover_engine
from repro.persistence.wal import WriteAheadLog, atomic_write
from repro.queries.query import Query
from repro.runtime.executors import SerialExecutor, ShardExecutor
from repro.runtime.protocol import COMMANDS, WAL_COMMANDS
from repro.runtime.sharded import ShardedMonitor
from repro.types import QueryId

_META_NAME = "meta.json"
_SIDECAR_NAME = "facade.json"

_CONFIG_FIELDS = (
    "algorithm",
    "ub_variant",
    "lam",
    "max_amplification",
    "window_horizon",
    "default_k",
)


@dataclass
class DurabilityConfig:
    """Knobs of the durability subsystem.

    Attributes
    ----------
    directory:
        Root of the on-disk state (created if missing).
    group_commit:
        WAL records buffered per commit group.  1 makes every event durable
        immediately; larger groups amortize the write cost and bound the
        events a crash can lose to the last unflushed group.
    segment_max_bytes:
        WAL segment rotation threshold.
    fsync:
        ``False`` (default) flushes each group to the OS — state survives a
        killed *process*.  ``True`` additionally fsyncs every flush, paying
        a disk round-trip per group to also survive an OS crash.
    checkpoint_interval:
        Events between automatic checkpoints (``None`` disables them;
        :meth:`DurableMonitor.checkpoint` stays available).
    full_checkpoint_every:
        Every Nth checkpoint is written full; the others are incremental
        deltas.  A decay renormalization promotes the next checkpoint to
        full automatically (after a rescale *every* result heap differs, so
        a delta would be a full copy in disguise).
    """

    directory: str
    group_commit: int = 256
    segment_max_bytes: int = 4 * 1024 * 1024
    fsync: bool = False
    checkpoint_interval: Optional[int] = 2000
    full_checkpoint_every: int = 4

    def __post_init__(self) -> None:
        if self.group_commit <= 0:
            raise ConfigurationError(
                f"group_commit must be > 0, got {self.group_commit}"
            )
        if self.segment_max_bytes <= 0:
            raise ConfigurationError(
                f"segment_max_bytes must be > 0, got {self.segment_max_bytes}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be > 0 or None, got {self.checkpoint_interval}"
            )
        if self.full_checkpoint_every <= 0:
            raise ConfigurationError(
                f"full_checkpoint_every must be > 0, got {self.full_checkpoint_every}"
            )


class DurableMonitor(MonitorSurface):
    """A crash-safe monitor: WAL + checkpoints around the in-memory engine.

    Example::

        durability = DurabilityConfig(directory="/var/lib/repro", group_commit=1)
        monitor = DurableMonitor.open(durability, MonitorConfig(algorithm="mrio"))
        monitor.register_vector({7: 0.8, 9: 0.6}, k=10)
        monitor.process(document)            # applied, then journaled
        # ... kill -9 ...
        monitor, report = DurableMonitor.recover(durability)
    """

    def __init__(
        self,
        durability: DurabilityConfig,
        config: Optional[MonitorConfig] = None,
        n_shards: int = 1,
        policy: str = "hash",
        executor: str = "serial",
        vectorizer=None,
        _recovering: bool = False,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self.durability = durability
        self.config = config or MonitorConfig()
        root = durability.directory
        meta_path = os.path.join(root, _META_NAME)
        if not _recovering and os.path.exists(meta_path):
            raise PersistenceError(
                f"{root} already holds durable monitor state; use "
                "DurableMonitor.open() or DurableMonitor.recover()"
            )
        os.makedirs(root, exist_ok=True)

        # Single mode is the one-element case of the host list: the layout
        # differs (state at the root vs under shard-NNNN/), and ``_facade``
        # — the wrapped monitor when it is the sharded one, else ``None`` —
        # is the one flag that tells the two classes apart.
        self._facade: Optional[ShardedMonitor] = None
        if n_shards > 1:
            self._facade = ShardedMonitor(
                self.config,
                n_shards=n_shards,
                policy=policy,
                executor=executor,
                vectorizer=vectorizer,
            )
            self._inner: Union[ContinuousMonitor, ShardedMonitor] = self._facade
            self._executor: ShardExecutor = self._facade.executor
            #: The engine hosts: the facade's shards, or the lone monitor.
            self._hosts: Sequence[ContinuousMonitor] = self._facade.shards
            host_dirs = [
                os.path.join(root, f"shard-{index:04d}") for index in range(n_shards)
            ]
        else:
            self._inner = ContinuousMonitor(self.config, vectorizer=vectorizer)
            self._executor = SerialExecutor()
            self._hosts = [self._inner]
            host_dirs = [root]
        # Router-side WALs report flush/fsync latency into the engine
        # telemetry they journal for.  Shard-resident executors expose
        # handles without a local recorder — their WAL ownership moves into
        # the workers, which wire telemetry up on their own side.
        self._wals = [
            WriteAheadLog(
                os.path.join(host_dir, "wal"),
                group_commit=durability.group_commit,
                segment_max_bytes=durability.segment_max_bytes,
                fsync=durability.fsync,
                telemetry=getattr(host, "telemetry", None),
            )
            for host_dir, host in zip(host_dirs, self._hosts)
        ]
        self._checkpoints = [
            CheckpointManager(
                os.path.join(host_dir, "checkpoints"), fsync=durability.fsync
            )
            for host_dir in host_dirs
        ]
        #: LSN of the most recently journaled record (positioned by
        #: :meth:`_begin_journaling`).  Tracked here because this facade
        #: issues every LSN — also once the logs themselves moved into the
        #: shard workers (``_wals`` is then empty).
        self._last_lsn = 0
        self._events_since_checkpoint = 0
        self._checkpoints_taken = 0
        self._force_full_checkpoint = False
        #: LSN the most recent committed checkpoint round covers (0 = none);
        #: ``close(checkpoint=True)`` skips its final round when the WAL has
        #: not advanced past this.
        self._last_checkpoint_lsn = 0
        self._closed = False
        self._failed = False
        if not _recovering:
            self._write_meta(meta_path)
            self._begin_journaling()

    # ------------------------------------------------------------------ #
    # Construction: open / recover
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        durability: DurabilityConfig,
        config: Optional[MonitorConfig] = None,
        **kwargs,
    ) -> "DurableMonitor":
        """Recover an existing durable monitor, or create a fresh one.

        Accepts the constructor's keyword arguments, so the create-or-
        recover call looks the same on every start.  When the directory
        already holds state, the topology (``n_shards``, ``policy``) is
        read back from its metadata; passing either merely cross-checks
        it against the stored value (a mismatch raises — the on-disk
        record sequence only replays under the original topology).
        """
        if not os.path.exists(os.path.join(durability.directory, _META_NAME)):
            return cls(durability, config, **kwargs)
        meta = cls._read_meta(durability.directory)
        stored_shards = int(meta["n_shards"])  # type: ignore[arg-type]
        requested_shards = kwargs.pop("n_shards", None)
        if requested_shards is not None and requested_shards != stored_shards:
            raise RecoveryError(
                f"topology mismatch on 'n_shards': directory was written "
                f"with {stored_shards!r}, caller supplied {requested_shards!r}"
            )
        requested_policy = kwargs.pop("policy", None)
        # A single-shard monitor has no router; the constructor ignored the
        # policy at creation, so the identical call must keep working here.
        if (
            requested_policy is not None
            and stored_shards > 1
            and requested_policy != str(meta["policy"])
        ):
            raise RecoveryError(
                f"topology mismatch on 'policy': directory was written "
                f"with {meta['policy']!r}, caller supplied {requested_policy!r}"
            )
        monitor, _ = cls.recover(durability, config, **kwargs)
        return monitor

    @classmethod
    def recover(
        cls,
        durability: DurabilityConfig,
        config: Optional[MonitorConfig] = None,
        executor: str = "serial",
        vectorizer=None,
    ) -> Tuple["DurableMonitor", RecoveryReport]:
        """Rebuild a monitor from its directory; returns it with a report.

        The engine configuration and topology are read back from the
        directory's metadata; passing ``config`` merely cross-checks it
        against what the state was written with (a mismatch raises — the
        on-disk scores are only meaningful under the original scoring
        configuration).
        """
        meta = cls._read_meta(durability.directory)
        stored_config = MonitorConfig(**meta["config"])  # type: ignore[arg-type]
        if config is not None:
            for field_name in _CONFIG_FIELDS:
                if getattr(config, field_name) != getattr(stored_config, field_name):
                    raise RecoveryError(
                        f"config mismatch on {field_name!r}: directory was written "
                        f"with {getattr(stored_config, field_name)!r}, caller "
                        f"supplied {getattr(config, field_name)!r}"
                    )
        monitor = cls(
            durability,
            stored_config,
            n_shards=int(meta["n_shards"]),  # type: ignore[arg-type]
            policy=str(meta["policy"]),
            executor=executor,
            vectorizer=vectorizer,
            _recovering=True,
        )
        report = monitor._recover_state()
        monitor._begin_journaling()
        return monitor, report

    def _recover_state(self) -> RecoveryReport:
        sidecar = self._read_sidecar()
        # The sidecar gates checkpoints (``ckpt_max_lsn``): a crash between
        # the checkpoint writes and the sidecar write must roll the whole
        # round back, or the replay would start past register/unregister
        # records whose ids the stale sidecar cannot prove retired.
        sidecar_lsn = int(sidecar["lsn"])
        self._last_checkpoint_lsn = sidecar_lsn
        report = RecoveryReport()
        # Clamp every host to the shortest durable prefix: a crash while a
        # commit group fanned out may have reached only some of the WALs
        # (with one host the clamp and the cut below are no-ops).
        common_lsn = min(wal.last_lsn for wal in self._wals)
        for host, wal, checkpoints in zip(self._hosts, self._wals, self._checkpoints):
            report.merge_shard(
                recover_engine(
                    host,
                    wal,
                    checkpoints,
                    shard_id=host.shard_id,
                    up_to_lsn=common_lsn,
                    ckpt_max_lsn=sidecar_lsn,
                )
            )
        # Every host recovered: make the clamp physical.  Records past the
        # common prefix are cut from the longer logs so appends resume in
        # lockstep from the same LSN everywhere and no later recovery can
        # replay records the clamped state never applied.  Deliberately
        # *after* the per-host recoveries — a recovery that is going to
        # fail (a checkpoint ahead of a damaged log, say) must not destroy
        # the healthy shards' tails first; until this point the clamp is
        # only the logical ``up_to_lsn`` bound, so a failed recover() leaves
        # the directory exactly as the crash did and can be retried after
        # repair.
        report.clamped_records = sum(
            wal.truncate(common_lsn) for wal in self._wals
        )
        # Same deferral for checkpoints: orphans of a rolled-back round
        # (newer than the commit marker) must not splice into a future
        # incremental chain.
        for manager in self._checkpoints:
            manager.purge_newer(sidecar_lsn)
        self._inner.adopt_facade_state(sidecar, report.marker_documents)
        # The floor from the replayed records covers ids of queries
        # registered and unregistered again after the sidecar (no host holds
        # them, and the replay targets hosts, not the facade); the sidecar
        # covers everything before it.
        self._inner.ensure_next_query_id(
            max(int(sidecar["next_query_id"]), report.next_query_id_floor)
        )
        return report

    def _begin_journaling(self) -> None:
        """Position the LSN cursor; hand shard WALs to resident workers.

        The hand-over only applies to a sharded monitor whose executor is
        shard-resident (``"processes"``).  The parent-side
        :class:`WriteAheadLog` objects did the open-time work that needs
        *reading* — torn-tail repair and, on recovery, replay and the
        physical common-prefix clamp — and are then closed; from here on
        each worker appends to the log it owns, where its shard lives (the
        ``wal_*`` verbs of the shard protocol), so journal I/O runs in
        parallel with the shard work.  A worker that dies between commands
        simply loses its buffered group — the same crash window an
        in-process shard's WAL has.  Recovery rehydrates workers first, then
        calls this, so appends resume worker-side from the recovered LSN.
        """
        self._last_lsn = self._wals[0].last_lsn
        # All hosts renormalize identically, so one listener suffices (on a
        # handle it fires as the worker ships rebases back with its replies).
        self._hosts[0].add_renormalize_listener(self._on_renormalize)
        if not self._executor.shard_resident:
            return
        for handle, wal in zip(self._hosts, self._wals):
            wal.close()
            handle.call(  # type: ignore[union-attr]
                "wal_open",
                wal.directory,
                self.durability.group_commit,
                self.durability.segment_max_bytes,
                self.durability.fsync,
            )
        self._wals = []

    # ------------------------------------------------------------------ #
    # Metadata and sidecar
    # ------------------------------------------------------------------ #

    def _write_meta(self, path: str) -> None:
        facade = self._facade
        meta = {
            "version": codec.CODEC_VERSION,
            "mode": "single" if facade is None else "sharded",
            "n_shards": len(self._hosts),
            "policy": "hash" if facade is None else facade.router.policy.name,
            "config": {
                field_name: getattr(self.config, field_name)
                for field_name in _CONFIG_FIELDS
            },
        }
        atomic_write(path, codec.pack_line(meta), fsync_dir=self.durability.fsync)

    @staticmethod
    def _read_meta(root: str) -> Dict[str, object]:
        path = os.path.join(root, _META_NAME)
        try:
            with open(path, "rb") as handle:
                meta = codec.unpack_line(handle.read())
        except FileNotFoundError as exc:
            raise RecoveryError(f"{root} holds no durable monitor state") from exc
        except CorruptRecordError as exc:
            raise RecoveryError(f"{path} is corrupt: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("version") != codec.CODEC_VERSION:
            raise RecoveryError(f"{path} has an unsupported format version")
        return meta

    def _sidecar_path(self) -> str:
        return os.path.join(self.durability.directory, _SIDECAR_NAME)

    def _write_sidecar(self, lsn: int) -> None:
        sidecar = {
            "version": codec.CODEC_VERSION,
            "lsn": lsn,
            "next_query_id": self._inner.next_query_id,
            **self._inner.facade_state(),
            # Zero and unread; kept so the bytes stay as older code reads them.
            "retired_counters": EventCounters().snapshot(),
        }
        atomic_write(
            self._sidecar_path(), codec.pack_line(sidecar),
            fsync_dir=self.durability.fsync,
        )

    def _read_sidecar(self) -> Dict[str, object]:
        try:
            with open(self._sidecar_path(), "rb") as handle:
                sidecar = codec.unpack_line(handle.read())
        except FileNotFoundError:
            # No round ever committed: the facade state of a fresh monitor.
            return {"lsn": 0, "next_query_id": 0, **self._inner.facade_state()}
        except CorruptRecordError as exc:
            raise RecoveryError(f"facade sidecar is corrupt: {exc}") from exc
        if not isinstance(sidecar, dict):
            raise RecoveryError("facade sidecar is malformed")
        if sidecar.get("version") != codec.CODEC_VERSION:
            raise RecoveryError(
                f"facade sidecar format version {sidecar.get('version')!r} "
                "is not supported"
            )
        return sidecar

    def _on_renormalize(self, new_origin: float, factor: float) -> None:
        # A rescale touches every stored score; an incremental checkpoint
        # after it would be a full copy in disguise, so promote the next one.
        self._force_full_checkpoint = True

    # ------------------------------------------------------------------ #
    # Journaling
    # ------------------------------------------------------------------ #

    def _ensure_usable(self) -> None:
        if self._failed:
            raise PersistenceError(
                "durable monitor is failed: journaling raised after the "
                "in-memory state was mutated, so memory and log have "
                "diverged; discard this object and recover() from disk"
            )

    def _apply_inner(self, method: str, *args: object, **kwargs: object):
        """Run one state-changing op on the wrapped monitor.

        A :class:`WorkerError` out of the fan-out poisons the monitor: the
        dead shard's task failed, but per the executor contract its sibling
        shards ran to completion — they *applied* the event while nothing
        was journaled, so live reads would serve state the log cannot prove
        and recovery will discard.  Same divergence as a failed append,
        handled the same way.  Uniform engine-side rejections (a stale
        arrival, a duplicate query id) mutate nothing anywhere and pass
        through without poisoning.
        """
        try:
            return getattr(self._inner, method)(*args, **kwargs)
        except WorkerError:
            self._failed = True
            raise

    def _append(self, record: Tuple[str, Dict[str, object]]) -> int:
        """Journal one record on every WAL (encoded and framed exactly once).

        The per-shard logs advance in lockstep, so the envelope — including
        its LSN — is identical everywhere; only the buffered bytes fan out.

        The engine has already applied the operation by the time it is
        journaled, so a write failure here leaves the in-memory state ahead
        of the log: the monitor is marked failed and refuses every further
        state-changing call — silently journaling *later* events on top of
        the gap would make recovery reconstruct a different history.
        """
        kind, data = record
        lsn = self._last_lsn + 1
        line = codec.pack_line(
            {"v": codec.CODEC_VERSION, "lsn": lsn, "kind": kind, "data": data}
        )
        try:
            self._on_wals("wal_append", line, lsn)
        except Exception:
            self._failed = True
            raise
        self._last_lsn = lsn
        return lsn

    def _journal(self, command: str, args: Sequence[object], shard: Optional[int] = None) -> int:
        """Journal an applied shard-protocol command (its record is built by
        the command table — the one command -> record-kind mapping)."""
        return self._append(COMMANDS[command].record(args, shard))  # type: ignore[misc]

    def _on_wals(self, verb: str, *args: object) -> None:
        """Run one WAL verb of the shard protocol on every shard's log.

        Parent-owned logs run the verb's :class:`WriteAheadLog` method in
        shard order.  Worker-owned logs get the verb over the executor's
        pipelined fan-out — submitted to every worker before any ack is
        awaited, so the journal I/O of all shards overlaps, and the failure
        contract (collect every reply, raise the first failure in shard
        order) lives in exactly one place.
        """
        if self._wals:
            method = WAL_COMMANDS[verb]
            for wal in self._wals:
                getattr(wal, method)(*args)
        else:
            self._executor.run_shards(self._hosts, verb, args)

    def _after_events(self, count: int) -> None:
        self._events_since_checkpoint += count
        interval = self.durability.checkpoint_interval
        if interval is not None and self._events_since_checkpoint >= interval:
            self.checkpoint()

    def _owner_shard(self, query_id: QueryId) -> Optional[int]:
        """The shard a membership record is tagged with (``None`` = single)."""
        if self._facade is None:
            return None
        return self._facade.router.shard_of(query_id)

    # ------------------------------------------------------------------ #
    # Query registration (monitor-compatible, journaled)
    # ------------------------------------------------------------------ #

    @property
    def vectorizer(self):
        return self._inner.vectorizer

    # Query ids are assigned by the wrapped monitor; the shared surface
    # reads and advances its counter through this alias.
    @property
    def _next_query_id(self) -> int:
        return self._inner._next_query_id

    @_next_query_id.setter
    def _next_query_id(self, value: int) -> None:
        self._inner._next_query_id = value

    def register_query(self, query: Query) -> Query:
        self._ensure_usable()
        registered = self._apply_inner("register_query", query)
        self._journal("register", (registered,), self._owner_shard(registered.query_id))
        return registered

    def unregister(self, query_id: QueryId) -> Query:
        self._ensure_usable()
        shard = self._owner_shard(query_id)
        query = self._apply_inner("unregister", query_id)
        self._journal("unregister", (query_id,), shard)
        return query

    @property
    def num_queries(self) -> int:
        return self._inner.num_queries

    # ------------------------------------------------------------------ #
    # Stream processing (journaled)
    # ------------------------------------------------------------------ #

    def process(self, document: Document) -> List[ResultUpdate]:
        """Process one stream event and journal it.

        The engine applies the event first (its stream-order validation
        must reject a bad event *before* anything is logged), then the
        record joins the current commit group; it becomes durable when the
        group flushes.
        """
        self._ensure_usable()
        updates = self._apply_inner("process", document)
        self._journal("process", (document,))
        self._after_events(1)
        return updates

    def process_batch(self, documents: Sequence[Document]) -> List[BatchUpdate]:
        """Process an arrival-ordered batch as one unit and one WAL record."""
        self._ensure_usable()
        docs = documents if isinstance(documents, list) else list(documents)
        updates = self._apply_inner("process_batch", docs)
        if docs:
            self._journal("process_batch", (docs,))
            self._after_events(len(docs))
        return updates

    def renormalize(self, new_origin: float) -> float:
        """Explicitly rebase the decay origin; journaled as its own record."""
        self._ensure_usable()
        factor = self._apply_inner("renormalize", new_origin)
        self._journal("renormalize", (new_origin,))
        return factor

    # ------------------------------------------------------------------ #
    # Durability control
    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Force the current commit group out on every WAL."""
        self._ensure_usable()
        try:
            self._on_wals("wal_flush")
        except Exception:
            # A failed flush drops a buffered group whose LSNs were already
            # issued — same divergence as a failed append.
            self._failed = True
            raise

    def sync(self) -> None:
        """Flush and fsync every WAL (durable even across an OS crash)."""
        self._ensure_usable()
        try:
            self._on_wals("wal_sync")
        except Exception:
            self._failed = True
            raise

    def checkpoint(self, full: Optional[bool] = None) -> int:
        """Capture the engine state(s) at the current WAL position.

        Returns the LSN the checkpoint covers.  ``full`` forces the kind;
        by default every ``full_checkpoint_every``-th checkpoint is full
        and the rest are incremental (a renormalization since the last
        checkpoint also forces full).  The WAL prefix a successful
        checkpoint round covers is rotated and compacted away.
        """
        self._ensure_usable()
        if full is None:
            full = (
                self._force_full_checkpoint
                or self._checkpoints_taken % self.durability.full_checkpoint_every == 0
            )
        # The WAL must be durable through the captured state's position
        # before the checkpoint claims to cover it.
        if self.durability.fsync:
            self.sync()
        else:
            self.flush()
        lsn = self._last_lsn
        # One state-capture path for local and process-resident hosts: the
        # codec-encoded form the host vends (worker-side encoded when it
        # lives in a worker) is written verbatim.  The capture fans out
        # through the executor, so process-resident shards encode their
        # states concurrently instead of one blocking round trip at a time.
        encoded_states = self._executor.run_shards(self._hosts, "snapshot_encoded", ())
        for manager, encoded in zip(self._checkpoints, encoded_states):
            manager.write(encoded, lsn, full)  # type: ignore[arg-type]
        # The sidecar is the commit marker of the whole round: recovery
        # ignores newer per-shard checkpoints until it exists.
        self._write_sidecar(lsn)
        self._on_wals("wal_rotate")
        self._on_wals("wal_compact", lsn)
        for manager in self._checkpoints:
            manager.prune()
        self._events_since_checkpoint = 0
        self._checkpoints_taken += 1
        self._force_full_checkpoint = False
        self._last_checkpoint_lsn = lsn
        return lsn

    def close(self, checkpoint: bool = False) -> None:
        """Flush outstanding commit groups and release the engine.

        ``checkpoint=True`` takes one final checkpoint round before closing
        (skipped when the monitor is failed or has journaled nothing since
        the last round) — a graceful shutdown then restarts from a
        checkpoint instead of replaying the whole WAL tail.  Idempotent.
        """
        if self._closed:
            return
        checkpoint_failure: Optional[BaseException] = None
        if checkpoint and not self._failed and self.last_lsn > self._last_checkpoint_lsn:
            try:
                self.checkpoint()
            except Exception as exc:
                # A failed final checkpoint must not leave the WAL handles
                # open: mark the monitor failed, finish the close, and
                # re-raise — the WAL still holds the full record sequence,
                # so recovery replays the tail instead of loading the
                # checkpoint that never committed.
                self._failed = True
                checkpoint_failure = exc
        self._closed = True
        try:
            self._on_wals("wal_close")
        except WorkerError:
            # A dead worker's log is already exactly as durable as its last
            # flush; there is nothing left to close on this side.
            pass
        self._inner.close()
        if checkpoint_failure is not None:
            raise checkpoint_failure

    # ------------------------------------------------------------------ #
    # Results and diagnostics (delegated)
    # ------------------------------------------------------------------ #

    @property
    def monitor(self) -> Union[ContinuousMonitor, ShardedMonitor]:
        """The wrapped in-memory monitor (read-mostly escape hatch)."""
        return self._inner

    @property
    def last_lsn(self) -> int:
        """WAL position of the most recently journaled record."""
        return self._last_lsn

    def top_k(self, query_id: QueryId) -> List[ResultEntry]:
        return self._inner.top_k(query_id)

    def threshold(self, query_id: QueryId) -> float:
        return self._inner.threshold(query_id)

    def all_results(self) -> Dict[QueryId, List[ResultEntry]]:
        return self._inner.all_results()

    @property
    def statistics(self) -> EventCounters:
        return self._inner.statistics

    def telemetry_snapshot(self) -> Dict[str, object]:
        """The wrapped monitor's merged telemetry (empty when disabled).

        ``wal.flush``/``wal.fsync`` laps land here too: every WAL of this
        facade reports into the engine telemetry it journals for.
        """
        return self._inner.telemetry_snapshot()

    def reset_statistics(self) -> None:
        """Zero counters and telemetry (e.g. after a warm-up phase)."""
        self._inner.reset_statistics()

    @property
    def live_window_size(self) -> Optional[int]:
        return self._inner.live_window_size

    @property
    def last_arrival(self) -> Optional[float]:
        """Arrival time of the most recent event (``None`` before the first)."""
        return self._inner.last_arrival

    def describe(self) -> Dict[str, object]:
        info = self._inner.describe()
        info["durability"] = {
            "directory": self.durability.directory,
            "group_commit": self.durability.group_commit,
            "fsync": self.durability.fsync,
            "checkpoint_interval": self.durability.checkpoint_interval,
            "last_lsn": self.last_lsn,
        }
        return info
