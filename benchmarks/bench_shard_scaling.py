"""Shard scaling: events/sec of the sharded runtime at 1/2/4/8 shards.

Measures batched ingestion throughput when the registered query set is
partitioned across N engine shards, for both engines (scalar MRIO and the
columnar batch engine) and both in-box executors:

* ``serial`` isolates the *partitioning overhead*: every shard runs on the
  calling thread, so N shards do at least the single-engine work plus one
  pivot walk per extra shard — the deficit vs 1 shard is the price of the
  split, which the term-affinity policy is designed to shrink.
* ``processes`` hosts each shard in its own worker process behind the
  zero-copy batch transport: each batch is codec-encoded **once** into a
  shared-memory ring and workers read it in place, so the bytes crossing
  the pipes are tiny control descriptors plus the coalesced replies.
* the ``processes[pipe]`` rows force the pipe transport with an executor
  instance, ``ProcessShardExecutor(n, transport="pipe")`` (the same codec
  frame crosses every worker's pipe) — the cells that price the transport
  itself, and the baseline for the payload-drop assertion.

Every process cell reports its wire traffic in bytes per event, split
into control (descriptors/commands), payload over pipes, payload through
shared memory, and replies — the shm column must carry the batch while
the pipe-payload column collapses to ~zero.

Two methodologies, matched to what each number is for:

* The scaling grid interleaves build+measure rounds across cells and
  keeps each cell's best round (min), the standard guard against
  scheduler/frequency noise.
* The 1-shard process-tax ratio is measured *paired*: one serial and one
  process monitor, warmed identically, alternate batch-for-batch in a
  single loop and the ratio comes from the summed times.  Host speed here
  drifts by tens of percent over minutes, which unpaired ratios inherit;
  batch-level pairing cancels the drift, so this ratio is assertable on
  every host — including this repo's 1-core bench host.

Assertions: the paired 1-shard ratio (process executor >= 0.9x of the
single engine) and the pipe-payload collapse are armed on **all** hosts;
the parallel-speedup targets additionally need real cores and degrade to
report-only below that.
"""

from __future__ import annotations

import gc
import os
import sys
import time

import pytest

from repro.core.config import MonitorConfig
from repro.documents.corpus import CorpusConfig, SyntheticCorpus
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import UniformWorkload, WorkloadConfig
from repro.runtime.procpool import ProcessShardExecutor
from repro.runtime.sharded import ShardedMonitor

NUM_QUERIES = 1000
LAM = 1e-4
K = 10
WARMUP_EVENTS = 512
MEASURED_EVENTS = 512
BATCH = 256
POLICY = "affinity"
ROUNDS = 3
#: Paired 1-shard tax measurement: batches alternated serial/process.
PAIRED_BATCHES = 8

#: Row label of the cells that force the pipe transport (by instance — see
#: ``_executor``; it is not an executor name).
PIPE = "processes[pipe]"

#: (engine, executor row, shard counts) cells of the scaling grid.
GRID = (
    ("mrio", "serial", (1, 2, 4, 8)),
    ("mrio", "processes", (1, 2, 4, 8)),
    ("mrio", PIPE, (1, 4)),
    ("columnar", "serial", (1, 2, 4)),
    ("columnar", "processes", (1, 2, 4)),
)

#: Process shards on real cores: >= 2x events/sec over the single-engine
#: serial baseline at 4 shards.
PROC_TARGET_SPEEDUP = 2.0
#: Process executor at 1 shard must keep >= 0.9x of the single engine —
#: the zero-copy transport's whole-tax budget, asserted on every host.
PROC_MIN_1SHARD_RATIO = 0.9
#: The shm transport must cut pipe payload by at least this factor vs the
#: pipe fallback (in practice it goes to exactly zero).
PAYLOAD_DROP_FACTOR = 10.0
#: The parallel-speedup assertions need hardware that can actually run 4
#: shards in parallel; below this many usable cores they are report-only.
MIN_CORES_FOR_ASSERT = 4

CORPUS = CorpusConfig(vocabulary_size=8_000, mean_tokens=110.0, seed=42)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _gil_enabled() -> bool:
    is_enabled = getattr(sys, "_is_gil_enabled", None)
    return bool(is_enabled()) if callable(is_enabled) else True


def _monitor_config(engine: str) -> MonitorConfig:
    if engine == "columnar":
        return MonitorConfig(algorithm="columnar", lam=LAM)
    return MonitorConfig(algorithm="mrio", lam=LAM, ub_variant="tree")


def _executor(row: str, n_shards: int):
    """A grid row's executor: a name, or the forced-pipe instance."""
    if row == PIPE:
        return ProcessShardExecutor(n_shards, transport="pipe")
    return row


def _build(engine: str, n_shards: int, executor: str):
    corpus = SyntheticCorpus(CORPUS, seed=42)
    queries = UniformWorkload(
        corpus,
        config=WorkloadConfig(min_terms=2, max_terms=5, k=K, seed=143),
        seed=143,
    ).generate(NUM_QUERIES)
    monitor = ShardedMonitor(
        _monitor_config(engine),
        n_shards=n_shards,
        policy=POLICY,
        executor=_executor(executor, n_shards),
    )
    monitor.register_queries(queries)
    stream = DocumentStream(corpus, StreamConfig(seed=244))
    for start in range(0, WARMUP_EVENTS, BATCH):
        monitor.process_batch(stream.take(min(BATCH, WARMUP_EVENTS - start)))
    monitor.reset_statistics()
    return monitor, stream


def _transport_stats(monitor):
    executor = monitor.executor
    stats = getattr(executor, "stats", None)
    transport = getattr(executor, "transport_active", None)
    return stats, transport


def _run_once(engine: str, n_shards: int, executor: str):
    monitor, stream = _build(engine, n_shards, executor)
    batches = [stream.take(BATCH) for _ in range(MEASURED_EVENTS // BATCH)]
    stats, transport = _transport_stats(monitor)
    if stats is not None:
        stats.reset()  # wire accounting covers the measured window only
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for batch in batches:
            monitor.process_batch(batch)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
        per_event = stats.per_event() if stats is not None else None
        monitor.close()
    return elapsed, per_event, transport


def _measure_grid():
    # Interleave rounds across configurations and keep the minimum, the
    # standard guard against scheduler/frequency noise.
    times = {}
    wires = {}
    transports = {}
    for _ in range(ROUNDS):
        for engine, executor, shard_counts in GRID:
            for n_shards in shard_counts:
                key = (engine, executor, n_shards)
                elapsed, per_event, transport = _run_once(engine, n_shards, executor)
                times.setdefault(key, []).append(elapsed)
                if per_event is not None:
                    wires[key] = per_event
                    transports[key] = transport
    return {key: min(samples) for key, samples in times.items()}, wires, transports


def _measure_paired_1shard(engine: str, executor: str):
    """serial@1 vs <executor>@1, alternating batch-for-batch.

    Both monitors are warmed on the identical stream prefix and then fed
    the identical measured batches back-to-back, so slow host drift hits
    both sides of the ratio equally.
    """
    reference, stream = _build(engine, 1, "serial")
    candidate, _ = _build(engine, 1, executor)
    serial_total = 0.0
    candidate_total = 0.0
    gc.collect()
    gc.disable()
    try:
        for _ in range(PAIRED_BATCHES):
            batch = stream.take(BATCH)
            started = time.perf_counter()
            reference.process_batch(batch)
            serial_total += time.perf_counter() - started
            started = time.perf_counter()
            candidate.process_batch(batch)
            candidate_total += time.perf_counter() - started
    finally:
        gc.enable()
        reference.close()
        candidate.close()
    return serial_total / candidate_total


def _wire_suffix(per_event) -> str:
    if per_event is None:
        return ""
    return (
        f"   wire B/ev: control {per_event['control']:7.1f}  "
        f"pipe {per_event['payload_pipe']:7.1f}  "
        f"shm {per_event['payload_shm']:7.1f}  "
        f"replies {per_event['replies']:7.1f}"
    )


@pytest.mark.benchmark(group="shard-scaling")
def test_shard_scaling(benchmark, report):
    def measure():
        grid, wires, transports = _measure_grid()
        paired = {
            "processes": _measure_paired_1shard("mrio", "processes"),
            PIPE: _measure_paired_1shard("mrio", PIPE),
        }
        return grid, wires, transports, paired

    best, wires, transports, paired = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    cores = _usable_cores()
    gil = _gil_enabled()
    procs_capable = cores >= MIN_CORES_FOR_ASSERT
    multicore = cores > 1
    lines = [
        f"[shard scaling] {NUM_QUERIES} queries, lambda={LAM}, policy={POLICY}, "
        f"batch={BATCH}, {MEASURED_EVENTS} events after {WARMUP_EVENTS} warm-up "
        f"(min of {ROUNDS} interleaved rounds)",
        f"  environment: {cores} usable core(s), GIL {'on' if gil else 'off'}, "
        f"CPython {sys.version_info.major}.{sys.version_info.minor}",
    ]
    singles = {}
    for engine, executor, shard_counts in GRID:
        single_engine = best[(engine, "serial", 1)]
        singles[engine] = single_engine
        for n_shards in shard_counts:
            key = (engine, executor, n_shards)
            elapsed = best[key]
            rate = MEASURED_EVENTS / elapsed
            vs_single = single_engine / elapsed
            lines.append(
                f"  {engine:<8s} {executor:<15s} shards={n_shards:<2d} "
                f"{rate:9.0f} events/sec   {vs_single:5.2f}x vs single engine"
                f"{_wire_suffix(wires.get(key))}"
            )

    shm_transport = transports.get(("mrio", "processes", 1))
    lines.append(
        f"  paired 1-shard process tax (mrio, {PAIRED_BATCHES} alternated "
        f"batches): processes[{shm_transport}] {paired['processes']:.2f}x, "
        f"{PIPE} {paired[PIPE]:.2f}x of the single engine "
        f"(floor {PROC_MIN_1SHARD_RATIO:.1f}x: ASSERTED on every host)"
    )

    shm_wire = wires.get(("mrio", "processes", 1))
    pipe_wire = wires.get(("mrio", PIPE, 1))
    if shm_wire and pipe_wire and shm_transport == "shm":
        lines.append(
            f"  payload over pipes at batch {BATCH}: "
            f"{pipe_wire['payload_pipe']:.1f} B/ev (pipe transport) -> "
            f"{shm_wire['payload_pipe']:.1f} B/ev (shm transport): "
            f">= {PAYLOAD_DROP_FACTOR:.0f}x drop ASSERTED"
        )

    procs_at_4_vs_single = singles["mrio"] / best[("mrio", "processes", 4)]
    if procs_capable:
        procs_verdict = (
            f"target >= {PROC_TARGET_SPEEDUP:.1f}x vs single engine at 4 "
            "process-shards: ASSERTED"
        )
    elif multicore:
        procs_verdict = (
            f"target >= {PROC_TARGET_SPEEDUP:.1f}x requires >= "
            f"{MIN_CORES_FOR_ASSERT} cores; asserting processes >= serial only"
        )
    else:
        procs_verdict = (
            "1-core host: parallel speedup impossible by construction — the "
            "paired 1-shard tax above is the armed number here"
        )
    lines.append(
        f"  processes speedup at 4 shards vs single engine: "
        f"{procs_at_4_vs_single:.2f}x ({procs_verdict})"
    )
    report("shard_scaling", "\n".join(lines))

    # ---- armed on every host ---------------------------------------- #
    # The zero-copy transport's whole tax at 1 shard: codec + IPC +
    # scheduling must fit in 10% of the engine's own time (paired ratio,
    # immune to host drift).
    assert paired["processes"] >= PROC_MIN_1SHARD_RATIO, (
        f"process executor kept only {paired['processes']:.2f}x of the single "
        f"engine at 1 shard (floor {PROC_MIN_1SHARD_RATIO:.1f}x)"
    )
    # The ring moves the batch out of the pipes: with shm active, payload
    # bytes crossing pipes collapse vs the pipe transport.
    if shm_transport == "shm" and shm_wire and pipe_wire:
        assert (
            shm_wire["payload_pipe"] <= pipe_wire["payload_pipe"] / PAYLOAD_DROP_FACTOR
        ), (
            f"shm transport still pushes {shm_wire['payload_pipe']:.1f} B/ev of "
            f"payload through the pipes (pipe transport: "
            f"{pipe_wire['payload_pipe']:.1f} B/ev)"
        )

    # ---- armed with real cores --------------------------------------- #
    if multicore:
        # CI smoke floor: with any hardware parallelism at all, process
        # shards must not lose to running the same shard count serially.
        # 10% slack absorbs timer noise on busy runners.
        assert best[("mrio", "processes", 4)] <= best[("mrio", "serial", 4)] * 1.10, (
            "process shards were slower than the serial executor at 4 "
            f"shards on a {cores}-core host"
        )
    if procs_capable:
        assert procs_at_4_vs_single >= PROC_TARGET_SPEEDUP, (
            f"process-sharding only reached {procs_at_4_vs_single:.2f}x vs "
            f"the single engine at 4 shards on a {cores}-core host"
        )


@pytest.mark.benchmark(group="shard-scaling")
def test_sharded_equivalence_on_bench_workload(benchmark, report):
    """Guard: the measured configurations produce the single-engine results."""

    def check():
        reference, ref_stream = _build("mrio", 1, "serial")
        candidates = [
            _build("mrio", 4, "serial")[0],
            _build("mrio", 2, "processes")[0],
            _build("mrio", 2, PIPE)[0],
        ]
        # All streams are identically seeded and equally advanced by the
        # warm-up, so the reference's next batch is valid for every monitor.
        documents = ref_stream.take(BATCH)
        reference.process_batch(documents)
        same = True
        for candidate in candidates:
            candidate.process_batch(documents)
            same = same and all(
                candidate.top_k(query_id) == reference.top_k(query_id)
                for query_id in reference.all_results()
            )
            candidate.close()
        reference.close()

        # Same guard for the columnar engine hosted in worker processes.
        col_reference, col_stream = _build("columnar", 1, "serial")
        col_candidate, _ = _build("columnar", 2, "processes")
        documents = col_stream.take(BATCH)
        col_reference.process_batch(documents)
        col_candidate.process_batch(documents)
        same = same and all(
            col_candidate.top_k(query_id) == col_reference.top_k(query_id)
            for query_id in col_reference.all_results()
        )
        col_candidate.close()
        col_reference.close()
        return same

    assert benchmark.pedantic(check, rounds=1, iterations=1)
