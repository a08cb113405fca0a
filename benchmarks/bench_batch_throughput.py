"""Throughput: per-event ``process`` vs the ``process_batch`` fast path.

Measures MRIO events/sec on the synthetic stream when documents are ingested
one at a time versus in arrival-ordered batches of increasing size.  The
batch path amortizes decay renormalization, cursor construction, zone-bound
lookups (memoized while threshold propagation is deferred) and Python-level
dispatch, so throughput should grow with the batch size and exceed the
per-event baseline by >= 1.5x at large batches.

Methodology: both modes process the *same* warm-up prefix (through their own
ingestion path, so each is measured in steady state) and the same measured
segment.  Rounds are interleaved across modes and the minimum per mode is
used, which is the standard way to suppress scheduler/frequency noise on a
busy machine; GC is disabled inside the timed region only.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.factory import create_algorithm
from repro.documents.corpus import CorpusConfig, SyntheticCorpus
from repro.documents.decay import ExponentialDecay
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import UniformWorkload, WorkloadConfig

NUM_QUERIES = 1000
LAM = 1e-4
K = 10
WARMUP_EVENTS = 600
MEASURED_EVENTS = 400
BATCH_SIZES = (16, 64, 256, 1024)
ROUNDS = 5
#: Hard floor for the best batched speedup at batch size >= 64.  The target
#: (and the value measured on a quiet machine at batch 1024) is >= 1.5x; the
#: assertion leaves headroom for noisy CI boxes.
MIN_BEST_SPEEDUP = 1.3
TARGET_SPEEDUP = 1.5
#: Hard floor for the columnar engine's batched throughput over the scalar
#: MRIO batched path at the same batch size.
COLUMNAR_MIN_SPEEDUP = 3.0

CORPUS = CorpusConfig(vocabulary_size=8_000, mean_tokens=110.0, seed=42)


def _build(algorithm_name: str = "mrio"):
    corpus = SyntheticCorpus(CORPUS, seed=42)
    queries = UniformWorkload(
        corpus,
        config=WorkloadConfig(min_terms=2, max_terms=5, k=K, seed=143),
        seed=143,
    ).generate(NUM_QUERIES)
    kwargs = {"ub_variant": "tree"} if algorithm_name == "mrio" else {}
    algorithm = create_algorithm(algorithm_name, ExponentialDecay(lam=LAM), **kwargs)
    algorithm.register_all(queries)
    stream = DocumentStream(corpus, StreamConfig(seed=244))
    return algorithm, stream


def _timed(fn) -> float:
    gc.collect()
    gc.disable()
    started = time.process_time()
    fn()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed


def _run_per_event() -> float:
    algorithm, stream = _build()
    for document in stream.take(WARMUP_EVENTS):
        algorithm.process(document)
    documents = stream.take(MEASURED_EVENTS)

    def go():
        for document in documents:
            algorithm.process(document)

    return _timed(go)


def _run_batched(batch_size: int, algorithm_name: str = "mrio") -> float:
    algorithm, stream = _build(algorithm_name)
    warmup = stream.take(WARMUP_EVENTS)
    for start in range(0, len(warmup), batch_size):
        algorithm.process_batch(warmup[start : start + batch_size])
    documents = stream.take(MEASURED_EVENTS)

    def go():
        for start in range(0, len(documents), batch_size):
            algorithm.process_batch(documents[start : start + batch_size])

    return _timed(go)


def _measure():
    per_event_times = []
    batched_times = {batch_size: [] for batch_size in BATCH_SIZES}
    for _ in range(ROUNDS):
        per_event_times.append(_run_per_event())
        for batch_size in BATCH_SIZES:
            batched_times[batch_size].append(_run_batched(batch_size))
    per_event = min(per_event_times)
    return per_event, {
        batch_size: min(times) for batch_size, times in batched_times.items()
    }


@pytest.mark.benchmark(group="batch-throughput")
def test_batch_throughput_mrio(benchmark, report):
    per_event, batched = benchmark.pedantic(_measure, rounds=1, iterations=1)

    per_event_rate = MEASURED_EVENTS / per_event
    lines = [
        f"[batch throughput] mrio, {NUM_QUERIES} queries, lambda={LAM}, "
        f"{MEASURED_EVENTS} events after {WARMUP_EVENTS} warm-up "
        f"(min of {ROUNDS} interleaved rounds)",
        f"  per-event      {per_event_rate:10.0f} events/sec   1.00x",
    ]
    speedups = {}
    for batch_size, elapsed in batched.items():
        rate = MEASURED_EVENTS / elapsed
        speedups[batch_size] = per_event / elapsed
        lines.append(
            f"  batch={batch_size:<5d}    {rate:10.0f} events/sec   "
            f"{speedups[batch_size]:.2f}x"
        )
    best = max(speedup for batch_size, speedup in speedups.items() if batch_size >= 64)
    lines.append(
        f"  best speedup at batch >= 64: {best:.2f}x "
        f"(target {TARGET_SPEEDUP:.1f}x, hard floor {MIN_BEST_SPEEDUP:.1f}x)"
    )
    report("batch_throughput", "\n".join(lines))

    assert best >= MIN_BEST_SPEEDUP, (
        f"batched MRIO only reached {best:.2f}x over per-event at batch >= 64"
    )


@pytest.mark.benchmark(group="batch-throughput")
def test_batch_throughput_columnar(benchmark, report):
    """Columnar engine vs scalar MRIO, both on the batched ingestion path.

    Rounds are interleaved across engines (scalar, columnar, scalar, ...)
    so frequency drift hits both equally; the minimum per cell is reported.
    """

    def measure():
        scalar_times = {batch_size: [] for batch_size in BATCH_SIZES}
        columnar_times = {batch_size: [] for batch_size in BATCH_SIZES}
        for _ in range(ROUNDS):
            for batch_size in BATCH_SIZES:
                scalar_times[batch_size].append(_run_batched(batch_size, "mrio"))
                columnar_times[batch_size].append(
                    _run_batched(batch_size, "columnar")
                )
        return (
            {batch_size: min(times) for batch_size, times in scalar_times.items()},
            {batch_size: min(times) for batch_size, times in columnar_times.items()},
        )

    scalar, columnar = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        f"[columnar throughput] columnar vs mrio (batched), {NUM_QUERIES} "
        f"queries, lambda={LAM}, {MEASURED_EVENTS} events after "
        f"{WARMUP_EVENTS} warm-up (min of {ROUNDS} interleaved rounds)",
    ]
    speedups = {}
    for batch_size in BATCH_SIZES:
        scalar_rate = MEASURED_EVENTS / scalar[batch_size]
        columnar_rate = MEASURED_EVENTS / columnar[batch_size]
        speedups[batch_size] = scalar[batch_size] / columnar[batch_size]
        lines.append(
            f"  batch={batch_size:<5d}    mrio {scalar_rate:8.0f} ev/s    "
            f"columnar {columnar_rate:8.0f} ev/s    {speedups[batch_size]:.2f}x"
        )
    best = max(speedup for batch_size, speedup in speedups.items() if batch_size >= 64)
    lines.append(
        f"  best columnar speedup at batch >= 64: {best:.2f}x "
        f"(floor {COLUMNAR_MIN_SPEEDUP:.1f}x)"
    )
    report("columnar_throughput", "\n".join(lines))

    assert best >= COLUMNAR_MIN_SPEEDUP, (
        f"columnar engine only reached {best:.2f}x over batched scalar "
        f"MRIO at batch >= 64"
    )


@pytest.mark.benchmark(group="batch-throughput")
def test_batch_equivalence_on_bench_workload(benchmark, report):
    """Guard: the measured fast path produces the exact per-event results."""

    def check():
        sequential, stream = _build()
        documents = stream.take(WARMUP_EVENTS // 2)
        for document in documents:
            sequential.process(document)
        batched, _ = _build()
        for start in range(0, len(documents), 64):
            batched.process_batch(documents[start : start + 64])
        def snapshot(algo):
            return {
                query_id: [
                    (entry.doc_id, round(entry.score, 9))
                    for entry in algo.top_k(query_id)
                ]
                for query_id in algo.queries
            }

        assert snapshot(sequential) == snapshot(batched)
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
