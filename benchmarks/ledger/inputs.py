"""Workload sizes (calibrated once, then frozen) and seeded input generation.

Every count below is fixed on every commit.  ``--seconds`` only scales the
*measured* counts linearly from their value at 10 s (the run length
``BENCHMARK.json`` fixes), so two commits always do the same work and the
counts the layers report (`*_per_event`, `*_bytes_*`) repeat exactly for a
given seed.  The seed is the only workload argument: it picks the corpus,
the queries and the documents, nothing else.

Calibration (seed commit, 2-core host) is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import List, Tuple

from repro.core.monitor import ContinuousMonitor
from repro.documents.corpus import CorpusConfig, SyntheticCorpus
from repro.documents.document import Document
from repro.queries.query import Query
from repro.queries.workloads import UniformWorkload, WorkloadConfig

from common import gc_paused

LAM = 1e-4
K = 10
ENGINE = "columnar"
#: The corpus *structure* (vocabulary, topic pools) is the same on every
#: run; the seed draws the queries and the documents from it.  A fresh
#: topic layout per seed would make runs differ in how much work their
#: inputs are, which is not what the spread between runs should measure.
CORPUS_SEED = 20180416
#: Registration is timed in chunks of this many queries (median chunk).
REGISTER_CHUNK = 50
#: One query in 50 is replayed through the scalar oracle.
ORACLE_SAMPLE_EVERY = 50
#: One membership operation in 16 records per-layer spans in a traced run.
MEMBERSHIP_SPAN_EVERY = 16


@dataclass(frozen=True)
class Sizes:
    """Everything that fixes how much work one workload does."""

    queries: int
    vocabulary: int
    mean_tokens: float
    min_terms: int
    max_terms: int
    batch: int
    warmup_events: int
    #: Closed-loop batches measured per 10 s of ``--seconds``.
    batches: int
    #: Per-event calls (engine workloads) measured per 10 s.
    single_events: int = 0
    #: How often the window is replayed from the same post-warm-up state
    #: (see ``engine.run``); each batch counts at its fastest pass.
    passes: int = 1
    #: engine_churn: unregister+register pairs per burst, and spare queries.
    burst_pairs: int = 0
    pool: int = 0
    #: Socket workloads: queries attached to the subscriber connection,
    #: closed-loop batches in flight, open-loop steps (events/s) and the
    #: seconds each step lasts per 10 s of ``--seconds``.
    subscribed: int = 0
    in_flight: int = 4
    rates: Tuple[int, ...] = ()
    step_seconds: float = 0.0
    #: service_socket: how many fresh server children time the restart
    #: (``recovery_s`` is the fastest: identical repeats).
    restarts: int = 0
    #: service_socket: its population registers in ~3 ms, too short to time
    #: once; the child first registers it into this many scratch monitors
    #: and reports the typical chunk over all of them.
    register_rehearsals: int = 0
    #: durable_pipeline: events between automatic checkpoints.
    checkpoint_interval: int = 8192
    #: engine_churn: how often the in-process restart (snapshot restored
    #: into a fresh monitor) is repeated at the end of the run.  A workload
    #: with several ``passes`` times the restore that starts each instead.
    restore_repeats: int = 5


SIZES = {
    "engine_scale": Sizes(
        queries=100_000, vocabulary=10_000, mean_tokens=50.0, min_terms=2, max_terms=4,
        batch=256, warmup_events=512, batches=3, single_events=512, passes=3,
    ),
    "engine_churn": Sizes(
        queries=20_000, vocabulary=10_000, mean_tokens=50.0, min_terms=2, max_terms=4,
        batch=64, warmup_events=512, batches=36, single_events=2048,
        burst_pairs=10_000, pool=20_000,
    ),
    "service_socket": Sizes(
        queries=500, vocabulary=8_000, mean_tokens=110.0, min_terms=2, max_terms=5,
        batch=256, warmup_events=512, batches=100, subscribed=256,
        rates=(500, 1000, 2000), step_seconds=2.0, register_rehearsals=20, restarts=3,
    ),
    "durable_pipeline": Sizes(
        queries=4_000, vocabulary=8_000, mean_tokens=110.0, min_terms=2, max_terms=5,
        batch=256, warmup_events=512, batches=40, subscribed=256,
        rates=(500, 1000), step_seconds=3.0,
    ),
}

WORKLOADS = tuple(SIZES)


def sizes_for(workload: str, smoke: bool) -> Sizes:
    """The frozen sizes, or the tiny ``--smoke`` variant used by the tests."""
    sizes = SIZES[workload]
    if not smoke:
        return sizes
    return replace(
        sizes,
        queries=min(sizes.queries, 400),
        vocabulary=2_000,
        mean_tokens=40.0,
        batch=32,
        warmup_events=64,
        batches=4,
        single_events=8 if sizes.single_events else 0,
        burst_pairs=50 if sizes.burst_pairs else 0,
        pool=100 if sizes.pool else 0,
        subscribed=32 if sizes.subscribed else 0,
        rates=tuple(rate // 2 for rate in sizes.rates),
        step_seconds=0.3 if sizes.rates else 0.0,
        checkpoint_interval=96,
        restarts=min(sizes.restarts, 1),
        register_rehearsals=min(sizes.register_rehearsals, 2),
    )


def scaled(count: int, seconds: float, smoke: bool, multiple: int = 1) -> int:
    """``count`` per 10 s scaled to ``seconds`` (unscaled under ``--smoke``)."""
    if smoke:
        return count
    value = max(1, round(count * seconds / 10.0))
    return max(multiple, value - value % multiple)


def generate(sizes: Sizes, seed: int, n_queries: int, n_documents: int):
    """``(queries, documents)`` for one run; documents carry no arrival time."""
    corpus = SyntheticCorpus(
        CorpusConfig(
            vocabulary_size=sizes.vocabulary,
            mean_tokens=sizes.mean_tokens,
            seed=CORPUS_SEED,
        ),
        seed=CORPUS_SEED,
    )
    corpus.reset(seed=2 * seed + 1)
    queries: List[Query] = UniformWorkload(
        corpus,
        config=WorkloadConfig(
            min_terms=sizes.min_terms, max_terms=sizes.max_terms, k=K, seed=2 * seed + 2
        ),
        seed=2 * seed + 2,
    ).generate(n_queries)
    documents: List[Document] = corpus.generate_documents(n_documents)
    return queries, documents


def stamp(documents: List[Document], first_arrival: float = 1.0) -> List[Document]:
    """Arrival times ``first_arrival, first_arrival + 1, ...`` — the stamps
    the server's stream clock assigns, so in-process and socket runs of the
    same documents score identically."""
    return [
        document.with_arrival_time(first_arrival + offset)
        for offset, document in enumerate(documents)
    ]


def _timed_without_gc(calls) -> List[float]:
    """Seconds of each call in ``calls``, the collector off while timing."""
    seconds: List[float] = []
    with gc_paused():
        for call in calls:
            began = perf_counter()
            call()
            seconds.append(perf_counter() - began)
    return seconds


def register_timed(monitor, queries: List[Query]) -> List[float]:
    """Register ``queries``; returns the seconds per call of each chunk of
    ``REGISTER_CHUNK`` calls.  The rate reported from them is that of the
    typical chunk (:func:`common.quiet_median`), so a stall during set-up
    does not decide it."""
    chunks = [
        queries[start : start + REGISTER_CHUNK]
        for start in range(0, len(queries), REGISTER_CHUNK)
    ]
    seconds = _timed_without_gc(
        [lambda chunk=chunk: monitor.register_queries(chunk) for chunk in chunks]
    )
    return [elapsed / len(chunk) for elapsed, chunk in zip(seconds, chunks)]


def restore_timed(state, config, repeats: int):
    """Restore the snapshot ``state`` into fresh monitors ``repeats`` times;
    returns the seconds of the fastest restore (the repeats do identical
    work, so they differ only in interference) and the last monitor."""
    restored = []

    def restore() -> None:
        restored.clear()  # one restored copy alive at a time
        fresh = ContinuousMonitor(config)
        fresh.restore(state)
        restored.append(fresh)

    return min(_timed_without_gc([restore] * repeats)), restored[0]
