"""The in-process workloads: ``engine_scale`` and ``engine_churn``.

Both drive :class:`~repro.core.monitor.ContinuousMonitor` directly — no
socket, no WAL, no codec — so the probe (``core/columnar.py``,
``index/columnar.py``), the result heaps (``core/results.py``) and, under
churn, the packed store (``queries/store.py``) are all of the wall.

One run has three timed parts, all closed loop (the caller waits for each
call to return):

* the *window*: ``process_batch`` calls (and, for ``engine_churn``, the
  membership bursts between them) — ``events_per_s``, ``ingest_*``,
  ``churn_ops_per_s``;
* the *per-event tail*: single ``process`` calls, the latency an
  in-process subscriber sees from handing over one document to holding
  its updates — ``notify_*``;
* the *restart*: ``snapshot()`` restored into a fresh monitor, the
  in-process counterpart of crash recovery — ``recovery_s``.

``engine_scale`` replays its window three times from the same restored
snapshot and counts each batch at its fastest pass (see ``run``).
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Dict, List

from repro.core import base as core_base
from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.core.results import ResultStore
from repro.index.columnar import ColumnarQueryIndex
from repro.queries.store import QueryStore

import check
from common import gc_paused, peak_rss_bytes, percentile, quiet_median, ratio, rss_bytes
from inputs import (
    ENGINE,
    LAM,
    MEMBERSHIP_SPAN_EVERY,
    generate,
    register_timed,
    restore_timed,
    scaled,
    sizes_for,
    stamp,
)
from spans import Tracer

MB = 1024.0 * 1024.0


def _wrap_engine_layers(tracer: Tracer) -> None:
    """Spans at the layer boundaries one ``process_batch``/``register`` crosses."""
    tracer.wrap(ColumnarQueryIndex, "global_view", "index.columnar")
    tracer.wrap(core_base, "coalesce_updates", "core.results")
    # Installed only around the sampled membership operations.
    tracer.wrap(ColumnarQueryIndex, "register", "index.columnar", group="membership")
    tracer.wrap(ColumnarQueryIndex, "unregister", "index.columnar", group="membership")
    tracer.wrap(QueryStore, "register", "queries.store", group="membership")
    tracer.wrap(QueryStore, "unregister", "queries.store", group="membership")
    tracer.wrap(ResultStore, "add_query", "core.results", group="membership")
    tracer.wrap(ResultStore, "remove_query", "core.results", group="membership")


def _sampled_op(tracer: Tracer, call, argument) -> None:
    """One membership operation with per-layer spans."""
    tracer.sample("membership", True)
    with tracer.span("membership.op", "core.columnar"):
        call(argument)
    tracer.sample("membership", False)


def _membership(monitor, tracer: Tracer, unregister, register, count: int) -> int:
    """One burst: ``unregister[i]`` then ``register[i]``, pairwise.

    ``count`` numbers the operations across bursts; in a traced run every
    16th one records per-layer spans.  Returns the advanced count.
    """
    if not tracer.enabled:
        for query_id, query in zip(unregister, register):
            monitor.unregister(query_id)
            monitor.register_query(query)
        return count + 2 * len(register)
    every = MEMBERSHIP_SPAN_EVERY
    for query_id, query in zip(unregister, register):
        for call, argument in ((monitor.unregister, query_id), (monitor.register_query, query)):
            if count % every == 0:
                _sampled_op(tracer, call, argument)
            else:
                call(argument)
            count += 1
    return count


def _register_population(monitor, tracer: Tracer, queries) -> float:
    """Register the resident queries; returns membership operations/s."""
    if not tracer.enabled:
        return 1.0 / quiet_median(register_timed(monitor, queries))
    started = perf_counter()
    with tracer.span("setup.register", "setup"):
        for index, query in enumerate(queries):
            if index % MEMBERSHIP_SPAN_EVERY == 0:
                _sampled_op(tracer, monitor.register_query, query)
            else:
                monitor.register_query(query)
    return len(queries) / (perf_counter() - started)


def _scale_sampled(totals: Dict[str, float], sampled: Dict[str, float]) -> None:
    """Spread the un-sampled share of the bursts over the sampled split."""
    unsampled = totals.pop("membership.unsampled", 0.0)
    seen = sum(sampled.values())
    if seen <= 0.0:
        totals["ledger"] = totals.get("ledger", 0.0) + unsampled
        return
    factor = unsampled / seen
    for layer, seconds in sampled.items():
        totals[layer] = totals.get(layer, 0.0) + seconds * factor


def run(workload: str, seed: int, seconds: float, smoke: bool, tracer: Tracer,
        corrupt_reference: bool = False) -> Dict[str, object]:
    """Run ``engine_scale`` or ``engine_churn`` once; returns the raw result."""
    churn = workload == "engine_churn"
    sizes = sizes_for(workload, smoke)
    batch = sizes.batch
    n_batches = scaled(sizes.batches, seconds, smoke, multiple=2 if churn else 1)
    n_single = scaled(sizes.single_events, seconds, smoke)
    n_bursts = n_batches // 2 if churn else 0

    # ------------------------------------------------------------ set-up
    setup_started = perf_counter()
    n_documents = sizes.warmup_events + n_batches * batch + n_single
    queries, documents = generate(sizes, seed, sizes.queries + sizes.pool, n_documents)
    documents = stamp(documents)
    residents = queries[: sizes.queries]
    pool = queries[sizes.queries :]
    warmup = documents[: sizes.warmup_events]
    window_docs = documents[sizes.warmup_events : sizes.warmup_events + n_batches * batch]
    single_docs = documents[sizes.warmup_events + n_batches * batch :]

    if tracer.enabled:
        _wrap_engine_layers(tracer)
    gc.collect()
    rss_before = rss_bytes()
    monitor = ContinuousMonitor(MonitorConfig(algorithm=ENGINE, lam=LAM))
    register_ops_per_s = _register_population(monitor, tracer, residents)
    rss_registered = rss_bytes()
    setup_mark = tracer.mark()
    with tracer.span("setup.warmup", "setup"):
        for start in range(0, len(warmup), batch):
            monitor.process_batch(warmup[start : start + batch])
    gc.collect()
    rss_steady = rss_bytes()
    setup_s = perf_counter() - setup_started

    # Membership schedule (engine_churn): each burst retires the oldest
    # ``burst_pairs`` residents and admits as many from the pool; retired
    # queries rejoin the back of the pool under their own ids.
    schedule = []
    live = list(residents)
    spare = list(pool)
    for _ in range(n_bursts):
        leaving, live = live[: sizes.burst_pairs], live[sizes.burst_pairs :]
        joining, spare = spare[: sizes.burst_pairs], spare[sizes.burst_pairs :]
        schedule.append(([q.query_id for q in leaving], joining))
        live.extend(joining)
        spare.extend(leaving)

    # ------------------------------------------------------------ window
    config = MonitorConfig(algorithm=ENGINE, lam=LAM)
    op_count = 0

    def one_pass():
        """The timed window once; returns its batch and burst seconds."""
        nonlocal op_count
        batch_seconds: List[float] = []
        burst_seconds: List[float] = []
        with gc_paused(), tracer.span("window", "ledger"):
            for index in range(n_batches):
                tracer.batch = index
                chunk = window_docs[index * batch : (index + 1) * batch]
                if churn and index % 2 == 0:
                    # Churn round: the burst, then the batch that pays for it.
                    leaving, joining = schedule[index // 2]
                    started = perf_counter()
                    with tracer.span("membership.burst", "membership.unsampled"):
                        op_count = _membership(monitor, tracer, leaving, joining, op_count)
                    burst_seconds.append(perf_counter() - started)
                started = perf_counter()
                with tracer.span("process_batch", "core.columnar"):
                    monitor.process_batch(chunk)
                batch_seconds.append(perf_counter() - started)
        return batch_seconds, burst_seconds

    # ``engine_scale`` replays its window: every pass restores the same
    # post-warm-up snapshot into a fresh monitor and ingests the same
    # documents, so the passes differ only in what the host did to them, and
    # each batch counts at its fastest pass.  Its batches get cheaper as
    # thresholds rise (1.9 s -> 1.1 s over ten), so no stretch of a single
    # pass is a clean sample of any other.  The restores double as the
    # ``recovery_s`` samples.
    state = monitor.snapshot() if sizes.passes > 1 else None
    restore_seconds: List[float] = []
    window_mark = tracer.mark()
    passes = []
    for number in range(sizes.passes):
        if state is not None:
            monitor = None  # one registered population alive at a time
            seconds, monitor = restore_timed(state, config, 1)
            restore_seconds.append(seconds)
        if not number:
            counters_before = monitor.statistics.snapshot()
        passes.append(one_pass())
        if not number:
            counters_after = monitor.statistics.snapshot()
    window_end = tracer.mark()
    window_wall = sum(sum(batches) + sum(bursts) for batches, bursts in passes)
    batch_seconds = [min(times) for times in zip(*(batches for batches, _ in passes))]
    burst_seconds = passes[0][1]

    # -------------------------------------------------------- per-event tail
    tracer.batch = -1
    single_seconds: List[float] = []
    with gc_paused(), tracer.span("tail", "ledger"):
        for document in single_docs:
            started = perf_counter()
            with tracer.span("process", "core.columnar"):
                monitor.process(document)
            single_seconds.append(perf_counter() - started)
    peak_rss = peak_rss_bytes()
    store_bytes = monitor.algorithm.store.nbytes()

    # ------------------------------------------------------------ restart
    if state is None:
        recovery_s, restored = restore_timed(monitor.snapshot(), config, sizes.restore_repeats)
    else:
        recovery_s, restored = min(restore_seconds), monitor
    del state

    # ------------------------------------------------------------ check
    sample = check.sample_queries(residents)
    oracle = check.Oracle(sample)
    sampled_ids = {q.query_id for q in check.sample_queries(queries)}
    for start in range(0, len(warmup), batch):
        oracle.batch(warmup[start : start + batch])
    for index in range(n_batches):
        if churn and index % 2 == 0:
            leaving, joining = schedule[index // 2]
            for query_id, query in zip(leaving, joining):
                if query_id in sampled_ids:
                    oracle.unregister(query_id)
                if query.query_id in sampled_ids:
                    oracle.register(query)
        oracle.batch(window_docs[index * batch : (index + 1) * batch])
    for document in single_docs:
        oracle.event(document)
    expected = oracle.top_k()
    if corrupt_reference:
        check.corrupt(expected)
    problems = check.compare_top_k(expected, check.top_k_of(monitor, expected), "live")
    problems += check.compare_top_k(expected, check.top_k_of(restored, expected), "restored")

    # ------------------------------------------------------------ metrics
    events = n_batches * batch  # per pass; the traced counters are read on the first
    churn_batches = batch_seconds[0::2] if churn else batch_seconds
    static_batches = batch_seconds[1::2] if churn else batch_seconds
    membership_ops = 2 * sizes.burst_pairs * n_bursts
    if churn:
        churn_ops_per_s = ratio(2 * sizes.burst_pairs, quiet_median(burst_seconds))
        # One round pair (burst + 2 batches) is the unit of work.
        pair_seconds = [
            burst_seconds[i] + batch_seconds[2 * i] + batch_seconds[2 * i + 1]
            for i in range(n_bursts)
        ]
        events_per_s = 2 * batch / quiet_median(pair_seconds)
    else:
        churn_ops_per_s = register_ops_per_s
        events_per_s = batch / quiet_median(batch_seconds)
    e2e = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (events_per_s, "1/s"),
        "rss_bytes_per_query": (ratio(rss_steady - rss_before, len(residents)), "B"),
        "peak_rss_mb": (peak_rss / MB, "MB"),
        "ingest_p50_ms": (quiet_median(churn_batches) * 1e3, "ms"),
        "ingest_p99_ms": (percentile(churn_batches, 99.0) * 1e3, "ms"),
        "churn_ops_per_s": (churn_ops_per_s, "1/s"),
        "notify_p50_ms": (quiet_median(single_seconds) * 1e3, "ms"),
        "notify_p99_ms": (percentile(single_seconds, 99.0) * 1e3, "ms"),
        "recovery_s": (recovery_s, "s"),
    }
    result: Dict[str, object] = {
        "e2e": e2e,
        # Memory is read in the plain run only: a traced run is the second
        # run in its process and grows into memory the first one freed.
        "memory_layers": {
            "core.results.heap_bytes_per_query": (
                ratio(rss_steady - rss_registered, len(residents)), "B"),
            "queries.store.bytes_per_query": (ratio(store_bytes, monitor.num_queries), "B"),
        },
        "attempted": events * sizes.passes + len(single_docs) + membership_ops,
        "failed": len(problems),
        "problems": problems,
        "samples": {
            "ingest": len(churn_batches),
            "notify": len(single_seconds),
            "events": events,
            "membership_ops": membership_ops,
            "window_wall_s": window_wall,
            "pass_batch_ms": [[t * 1e3 for t in batches] for batches, _ in passes],
            "burst_ms": [seconds * 1e3 for seconds in burst_seconds],
            "membership_share_of_wall": ratio(sum(burst_seconds), window_wall),
            "oracle_queries": len(expected),
        },
    }
    if not tracer.enabled:
        return result

    # ------------------------------------------------------------ layers
    totals = tracer.self_times(window_mark, window_end)
    if churn:
        _scale_sampled(totals, tracer.self_times(window_mark, window_end, under="membership.op"))
    unaccounted = totals.pop("ledger", 0.0)
    delta = {
        name: counters_after[name] - counters_before[name]
        for name in ("full_evaluations", "postings_scanned", "result_updates")
    }
    register_spans = tracer.durations("QueryStore.register")
    unregister_spans = tracer.durations("QueryStore.unregister")
    first_build = tracer.durations("ColumnarQueryIndex.global_view", setup_mark)
    layers = {
        "core.columnar.probe_us_per_event": (
            ratio(totals.get("core.columnar", 0.0), events * sizes.passes) * 1e6, "us"),
        "core.columnar.full_evals_per_event": (delta["full_evaluations"] / events, "count"),
        "core.columnar.postings_per_event": (delta["postings_scanned"] / events, "count"),
        "core.columnar.updates_per_event": (delta["result_updates"] / events, "count"),
        "core.columnar.useful_ratio": (
            ratio(delta["result_updates"], delta["full_evaluations"]), "ratio"),
        "queries.store.register_us_per_op": (
            ratio(sum(register_spans), len(register_spans)) * 1e6, "us"),
        "queries.store.unregister_us_per_op": (
            ratio(sum(unregister_spans), len(unregister_spans)) * 1e6, "us"),
        "index.columnar.splice_tax": (
            ratio(quiet_median(churn_batches), quiet_median(static_batches)) if churn else 0.0,
            "ratio"),
        "index.columnar.first_build_ms": (first_build[0] * 1e3 if first_build else 0.0, "ms"),
    }
    result["layers"] = layers
    result["self_seconds"] = totals
    result["unaccounted_seconds"] = unaccounted
    result["wall_seconds"] = window_wall
    return result
