"""The child-hosted workloads: ``service_socket`` and ``durable_pipeline``.

The system under test runs in a child process (:mod:`server_child`); this
module is the load generator — one process, one asyncio thread, two
connections (one publisher, one subscriber) — and the bookkeeping that
turns what it saw into metrics.

Phase A is a **closed loop**: ``publish_batch`` of ``batch`` documents,
at most ``in_flight`` batches outstanding, so a slower server receives
less load; it measures throughput.  Phase B is an **open loop**: single
``publish`` calls pipelined on a schedule computed up front (a fixed
number of events/s per step), each event timed from when it was *due*,
so a stall is charged to every event that queued behind it; it measures
publish→notify latency.  How late the generator itself ran is recorded.
"""

from __future__ import annotations

import asyncio
import json
import os
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.obs.histogram import LatencyHistogram
from repro.persistence import codec
from repro.persistence.wal import WriteAheadLog
from repro.service import MonitorClient, protocol

import check
from common import gc_paused, median, percentile, quiet_median, ratio
from inputs import ENGINE, LAM, generate, scaled, sizes_for, stamp
from procs import Lifecycle
from spans import Tracer

MB = 1024.0 * 1024.0
#: The latency limit a rate step must meet to count as sustainable.
LATENCY_LIMIT_S = 0.050
#: The open-loop step (1 000 events/s at full size) whose latency is the
#: end-to-end ``notify_p50_ms``.
HEADLINE_STEP = 1
#: Generator lateness beyond which a run is flagged as not trustworthy.
LATE_LIMIT_S = 0.010


class _Run:
    """Everything the generator records while it drives one child."""

    def __init__(self) -> None:
        self.acks: Dict[int, tuple] = {}  # doc id -> (arrival, batch seq)
        self.errors: List[str] = []
        self.received: List[tuple] = []  # (receive time, Notification)


async def _drain(subscriber: MonitorClient, run: _Run) -> None:
    while True:
        notification = await subscriber.next_update()
        run.received.append((perf_counter(), notification))


async def _settle(publisher: MonitorClient, run: _Run, timeout: float) -> None:
    """Wait until every notification the server enqueued has been received."""
    deadline = perf_counter() + timeout
    while True:
        stats = await publisher.stats()
        enqueued = int(stats["service"]["notifications_enqueued"])
        if len(run.received) >= enqueued:
            return
        if perf_counter() > deadline:
            run.errors.append(
                f"{enqueued - len(run.received)} notifications never arrived"
            )
            return
        await asyncio.sleep(0.01)


async def _closed_loop(publisher, run: _Run, batches, in_flight: int):
    """Phase A.  Returns per-batch ``(sent, done)`` times."""
    gate = asyncio.Semaphore(in_flight)
    sent = [0.0] * len(batches)
    done = [0.0] * len(batches)

    async def one(index: int, documents) -> None:
        try:
            sent[index] = perf_counter()
            ack = await publisher.publish_batch(documents)
            done[index] = perf_counter()
            for document, arrival, seq in zip(documents, ack.arrivals, ack.batches):
                run.acks[document.doc_id] = (arrival, seq)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            run.errors.append(f"publish_batch {index} failed: {exc}")
        finally:
            gate.release()

    tasks = []
    for index, documents in enumerate(batches):
        await gate.acquire()
        tasks.append(asyncio.create_task(one(index, documents)))
    await asyncio.gather(*tasks)
    return sent, done


async def _open_loop(publisher, run: _Run, documents, rate: float):
    """One phase-B step.  Returns per-event ``(due, late, done)`` lists."""
    count = len(documents)
    origin = perf_counter() + 0.02
    due = [origin + index / rate for index in range(count)]
    late = [0.0] * count
    done: List[Optional[float]] = [None] * count

    async def one(index: int, document) -> None:
        try:
            ack = await publisher.publish(document)
            done[index] = perf_counter()
            run.acks[document.doc_id] = (ack.arrival, ack.batch)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            run.errors.append(f"publish {document.doc_id} failed: {exc}")

    tasks = []
    for index, document in enumerate(documents):
        now = perf_counter()
        if now < due[index]:
            await asyncio.sleep(due[index] - now)
            now = perf_counter()
        late[index] = max(0.0, now - due[index])
        tasks.append(asyncio.create_task(one(index, document)))
    await asyncio.gather(*tasks)
    return due, late, done


def _segment_seconds(start: float, done: Sequence[float], group: int) -> List[float]:
    """Seconds each run of ``group`` consecutive completions took."""
    seconds = []
    previous = start
    ordered = sorted(done)
    for end in range(group, len(ordered) + 1, group):
        seconds.append(ordered[end - 1] - previous)
        previous = ordered[end - 1]
    return seconds


def _histogram_delta(after: Dict[str, object], before: Dict[str, object], name: str):
    """The histogram of the samples recorded between two telemetry scrapes."""
    def buckets(snapshot):
        return snapshot.get("telemetry", {}).get("histograms", {}).get(name)

    late, early = buckets(after), buckets(before)
    if late is None:
        return LatencyHistogram()
    if early is None:
        return LatencyHistogram.from_snapshot(late)
    delta = dict(late)
    delta["n"] = late["n"] - early["n"]
    delta["sum"] = late["sum"] - early["sum"]
    delta["b"] = {
        index: count - early["b"].get(index, 0)
        for index, count in late["b"].items()
        if count - early["b"].get(index, 0) > 0
    }
    return LatencyHistogram.from_snapshot(delta)


async def _drive(spec, sizes, child, inputs, run: _Run, tracer: Tracer, phase_timeout: float):
    """Connect, warm up, run phases A and B; returns the raw timings."""
    warmup, batches, steps = inputs
    port = int(child.ready["port"])
    subscriber = await MonitorClient.connect("127.0.0.1", port, request_timeout=phase_timeout)
    publisher = await MonitorClient.connect("127.0.0.1", port, request_timeout=phase_timeout)
    drainer = asyncio.create_task(_drain(subscriber, run))
    traced = tracer.enabled
    try:
        for query_id in range(sizes.subscribed):
            await subscriber.attach(query_id)
        await asyncio.wait_for(
            _closed_loop(publisher, run, warmup, sizes.in_flight), phase_timeout
        )
        await _settle(publisher, run, phase_timeout)
        steady = child.request({"cmd": "report"})
        setup_done = perf_counter()

        metrics_start = await publisher.metrics() if traced else {}
        stats_start = await publisher.stats()
        with gc_paused(), tracer.span("phase_a", "ledger"):
            started = perf_counter()
            sent, done = await asyncio.wait_for(
                _closed_loop(publisher, run, batches, sizes.in_flight), phase_timeout
            )
            phase_a_wall = perf_counter() - started
        await _settle(publisher, run, phase_timeout)
        after_a = child.request({"cmd": "report"})
        metrics_a = await publisher.metrics() if traced else {}
        stats_a = await publisher.stats()

        step_results = []
        for rate, documents in steps:
            with gc_paused():
                due, late, acked = await asyncio.wait_for(
                    _open_loop(publisher, run, documents, float(rate)), phase_timeout
                )
            await _settle(publisher, run, phase_timeout)
            step_results.append((rate, documents, due, late, acked))
        final = child.request({"cmd": "report"})
        metrics_end = await publisher.metrics() if traced else {}
        stats_end = await publisher.stats()
    finally:
        drainer.cancel()
        await publisher.close()
        await subscriber.close()
    return {
        "steady": steady, "setup_done": setup_done, "phase_a_wall": phase_a_wall,
        "started": started, "sent": sent, "done": done, "after_a": after_a,
        "final": final, "steps": step_results,
        "metrics": (metrics_start, metrics_a, metrics_end),
        "stats": (stats_start, stats_a, stats_end),
    }


def _replay(queries, sizes, published, run: _Run, corrupt_reference: bool):
    """Offline replay of the acked stream through the scalar oracle.

    Returns the expected top-k of the checked queries, the expected
    notifications per server batch, and the oracle's ``BatchUpdate``
    objects of the subscribed queries (the frames ``service.protocol`` is
    timed on in a traced run).
    """
    subscribed = set(range(sizes.subscribed))
    checked = {q.query_id: q for q in check.sample_queries(queries)}
    checked.update({q.query_id: q for q in queries[: sizes.subscribed]})
    oracle = check.Oracle(checked.values())
    expected_pushes: Dict[int, Dict[int, tuple]] = {}
    pushed_updates = []
    group: List = []
    group_seq = None

    def flush() -> None:
        if not group:
            return
        updates = oracle.batch(group)
        wanted = check.updates_by_query(updates, subscribed)
        if wanted:
            expected_pushes[group_seq] = wanted
        pushed_updates.extend((group_seq, u) for u in updates if u.query_id in subscribed)
        group.clear()

    for document in published:
        ack = run.acks.get(document.doc_id)
        if ack is None:
            continue  # counted as a missing ack by the caller
        arrival, seq = ack
        if seq != group_seq:
            flush()
            group_seq = seq
        group.append(document.with_arrival_time(arrival))
    flush()
    expected = oracle.top_k()
    if corrupt_reference:
        check.corrupt(expected)
    return expected, expected_pushes, pushed_updates


def _received_pushes(run: _Run) -> Dict[int, Dict[int, tuple]]:
    pushes: Dict[int, Dict[int, tuple]] = {}
    for _, n in run.received:
        pushes.setdefault(n.batch, {})[n.query_id] = (
            tuple((int(e.doc_id), float(e.score)) for e in n.entries),
            tuple(int(d) for d in n.evicted_doc_ids),
        )
    return pushes


def _int_keys(top_k: Dict[str, list]) -> check.TopK:
    return {int(q): [(int(d), float(s)) for d, s in entries] for q, entries in top_k.items()}


def _step_latencies(run: _Run, step) -> Dict[str, List[float]]:
    """Notify and ack latencies of one open-loop step, each from *due* time."""
    _rate, documents, due, _late, acked = step
    due_of = {document.doc_id: due[index] for index, document in enumerate(documents)}
    notify = []
    for received_at, notification in run.received:
        if not notification.entries:
            continue
        newest = max(entry.doc_id for entry in notification.entries)
        if newest in due_of:
            notify.append(received_at - due_of[newest])
    acks = [done - due[index] for index, done in enumerate(acked) if done is not None]
    return {"notify": notify, "ack": acks}


def _sustainable(latencies: Dict[str, List[float]]) -> bool:
    """p99 within the limit, and the step's final quarter no slower (no
    backlog still growing when the step ended)."""
    acks = latencies["ack"]
    tail = acks[len(acks) * 3 // 4 :]
    return (
        bool(latencies["notify"])
        and percentile(latencies["notify"], 99.0) <= LATENCY_LIMIT_S
        and percentile(tail, 99.0) <= LATENCY_LIMIT_S
    )


def _pure_function_costs(batches, pushed_updates, durable_mode: bool, tmp_dir: str):
    """Per-layer costs of pure functions, timed on the run's own frames."""
    sample = batches[: min(4, len(batches))]
    events = sum(len(documents) for documents in sample)
    encode = decode = 0.0
    frame_bytes = 0
    for index, documents in enumerate(sample):
        started = perf_counter()
        frame = protocol.encode_frame(
            protocol.request(
                protocol.OP_PUBLISH_BATCH, index,
                docs=[codec.encode_document(d) for d in documents],
            )
        )
        encode += perf_counter() - started
        frame_bytes += len(frame)
        started = perf_counter()
        message = protocol.decode_payload(frame[4:])
        for encoded in message["docs"]:
            protocol.decode_published_document(encoded)
        decode += perf_counter() - started
    update_encode = update_decode = 0.0
    update_bytes = 0
    updates = pushed_updates[:2000]
    for seq, update in updates:
        started = perf_counter()
        frame = protocol.encode_frame(protocol.update_push(seq, update))
        update_encode += perf_counter() - started
        update_bytes += len(frame)
        started = perf_counter()
        protocol.decode_update(protocol.decode_payload(frame[4:]))
        update_decode += perf_counter() - started
    costs = {
        "service.protocol.publish_encode_us_per_event": (ratio(encode, events) * 1e6, "us"),
        "service.protocol.publish_decode_us_per_event": (ratio(decode, events) * 1e6, "us"),
        "service.protocol.update_encode_us": (ratio(update_encode, len(updates)) * 1e6, "us"),
        "service.protocol.update_decode_us": (ratio(update_decode, len(updates)) * 1e6, "us"),
        "service.protocol.publish_bytes_per_event": (ratio(frame_bytes, events), "B"),
        "service.protocol.update_bytes_per_notify": (ratio(update_bytes, len(updates)), "B"),
    }
    if not durable_mode:
        return costs
    record = batch_encode = batch_decode = append = 0.0
    wal_bytes = 0
    flushes: List[float] = []
    stamped = [stamp(list(documents), 1.0 + 256 * i) for i, documents in enumerate(sample)]
    wal = WriteAheadLog(os.path.join(tmp_dir, "standalone-wal"), group_commit=1 << 20)
    try:
        for lsn, documents in enumerate(stamped, start=1):
            started = perf_counter()
            kind, data = codec.batch_record(documents)
            line = codec.pack_line(
                {"v": codec.CODEC_VERSION, "lsn": lsn, "kind": kind, "data": data}
            )
            record += perf_counter() - started
            wal_bytes += len(line)
            started = perf_counter()
            payload = codec.encode_document_batch(documents)
            batch_encode += perf_counter() - started
            started = perf_counter()
            header, tail = codec.unpack_frame(payload)
            codec.decode_document_batch(header, tail)
            batch_decode += perf_counter() - started
            started = perf_counter()
            wal.append_line(line, lsn)
            append += perf_counter() - started
            started = perf_counter()
            wal.flush()
            flushes.append(perf_counter() - started)
    finally:
        wal.close()
    costs.update({
        "persistence.codec.batch_record_us_per_event": (ratio(record, events) * 1e6, "us"),
        "persistence.codec.doc_batch_encode_us_per_event": (
            ratio(batch_encode, events) * 1e6, "us"),
        "persistence.codec.doc_batch_decode_us_per_event": (
            ratio(batch_decode, events) * 1e6, "us"),
        "persistence.codec.wal_bytes_per_event": (ratio(wal_bytes, events), "B"),
        "persistence.wal.append_us_per_event": (ratio(append, events) * 1e6, "us"),
        "persistence.wal.flush_ms_per_group": (median(flushes) * 1e3, "ms"),
    })
    return costs


def _ceiling(queries, warmup, batches) -> float:
    """In-process ``process_batch`` events/s on the same inputs (no socket)."""
    monitor = ContinuousMonitor(MonitorConfig(algorithm=ENGINE, lam=LAM))
    monitor.register_queries(queries)
    documents = stamp([d for chunk in warmup + batches[:16] for d in chunk])
    size = len(batches[0])
    warm = sum(len(chunk) for chunk in warmup)
    seconds = []
    with gc_paused():
        for start in range(0, len(documents), size):
            began = perf_counter()
            monitor.process_batch(documents[start : start + size])
            if start >= warm:
                seconds.append(perf_counter() - began)
    return size / quiet_median(seconds)


def run(workload: str, seed: int, seconds: float, smoke: bool, tracer: Tracer,
        lifecycle: Lifecycle, corrupt_reference: bool = False) -> Dict[str, object]:
    """Run ``service_socket`` or ``durable_pipeline`` once; returns the raw result."""
    durable_mode = workload == "durable_pipeline"
    sizes = sizes_for(workload, smoke)
    traced = tracer.enabled
    phase_timeout = 20.0 if smoke else 60.0
    n_batches = scaled(sizes.batches, seconds, smoke)
    step_s = sizes.step_seconds if smoke else sizes.step_seconds * seconds / 10.0
    step_events = [max(8, round(rate * step_s)) for rate in sizes.rates]

    # ------------------------------------------------------------ set-up
    setup_started = perf_counter()
    n_documents = sizes.warmup_events + n_batches * sizes.batch + sum(step_events)
    queries, documents = generate(sizes, seed, sizes.queries, n_documents)
    cursor = 0

    def take(count: int):
        nonlocal cursor
        chunk = documents[cursor : cursor + count]
        cursor += count
        return chunk

    warmup = [take(sizes.batch) for _ in range(sizes.warmup_events // sizes.batch)]
    batches = [take(sizes.batch) for _ in range(n_batches)]
    steps = [(rate, take(count)) for rate, count in zip(sizes.rates, step_events)]

    tag = "traced" if traced else "plain"
    durable_dir = os.path.join(lifecycle.tmp_dir, f"durable-{tag}")
    spec = {
        "mode": "serve", "workload": workload, "seed": seed, "smoke": smoke,
        "seconds": seconds, "traced": traced, "durable_dir": durable_dir,
        "trace_path": os.path.join(lifecycle.tmp_dir, "server.trace.json"),
    }
    child = lifecycle.start_child(spec, timeout=phase_timeout)
    run_state = _Run()
    lifecycle.pin_generator()
    try:
        raw = asyncio.run(
            _drive(spec, sizes, child, (warmup, batches, steps), run_state, tracer, phase_timeout)
        )
    finally:
        lifecycle.unpin_generator()
    setup_s = raw["setup_done"] - setup_started

    checked_ids = sorted(
        {q.query_id for q in check.sample_queries(queries)} | set(range(sizes.subscribed))
    )
    final = child.stop(checked_ids)
    live_top_k = _int_keys(final["top_k"])
    if durable_mode:
        # The child stopped without a final checkpoint; a fresh one opens
        # the same directory and replays the WAL tail the run just wrote.
        recovered = lifecycle.start_child(
            {"mode": "recover", "workload": workload, "smoke": smoke,
             "durable_dir": durable_dir, "ids": checked_ids},
            timeout=phase_timeout,
        )
        recovery = recovered.ready
        recovered.stop()
        recovery_s = float(recovery["recovery_s"])
        restart_top_k = _int_keys(recovery["top_k"])
    else:
        # A plain monitor has nothing on disk: coming back means a fresh
        # process registering the population again, results lost.  The
        # restarts do identical work, so the fastest one is reported.
        restart_seconds = []
        for _ in range(sizes.restarts):
            restarted = lifecycle.start_child(dict(spec, traced=False), timeout=phase_timeout)
            restart_seconds.append(restarted.ready_s)
            restarted.stop()
        recovery_s = min(restart_seconds)
        restart_top_k = None

    # ------------------------------------------------------------ check
    published = [d for chunk in warmup + batches for d in chunk]
    published += [d for _, step_docs in steps for d in step_docs]
    missing_acks = sum(1 for d in published if d.doc_id not in run_state.acks)
    expected, expected_pushes, pushed_updates = _replay(
        queries, sizes, published, run_state, corrupt_reference
    )
    problems = list(run_state.errors)
    if missing_acks:
        problems.append(f"{missing_acks} publishes were never acknowledged")
    received = _received_pushes(run_state)
    for seq in sorted(set(expected_pushes) | set(received)):
        if expected_pushes.get(seq) != received.get(seq):
            problems.append(
                f"batch {seq}: notifications differ from the offline replay "
                f"(expected {len(expected_pushes.get(seq, {}))}, "
                f"received {len(received.get(seq, {}))})"
            )
    problems += check.compare_top_k(expected, live_top_k, "live")
    if restart_top_k is not None:
        problems += check.compare_top_k(expected, restart_top_k, "restarted")

    # ------------------------------------------------------------ metrics
    events_a = n_batches * sizes.batch
    group = min(n_batches, sizes.in_flight)
    segments = _segment_seconds(raw["started"], raw["done"], group)
    events_per_s = group * sizes.batch / quiet_median(segments)
    ingest = [done - sent for sent, done in zip(raw["sent"], raw["done"]) if done]
    by_rate = {step[0]: _step_latencies(run_state, step) for step in raw["steps"]}
    headline_rate = sizes.rates[HEADLINE_STEP]
    headline = by_rate[headline_rate]
    late_all = [value for step in raw["steps"] for value in step[3]]
    ready = child.ready
    e2e = {
        "setup_s": (setup_s, "s"),
        "events_per_s": (events_per_s, "1/s"),
        "rss_bytes_per_query": (
            ratio(raw["steady"]["rss"] - ready["rss_before"], sizes.queries), "B"),
        "peak_rss_mb": (raw["final"]["peak_rss"] / MB, "MB"),
        "ingest_p50_ms": (quiet_median(ingest) * 1e3, "ms"),
        "ingest_p99_ms": (percentile(ingest, 99.0) * 1e3, "ms"),
        "churn_ops_per_s": (ready["register_ops_per_s"], "1/s"),
        "notify_p50_ms": (quiet_median(headline["notify"]) * 1e3, "ms"),
        "notify_p99_ms": (percentile(headline["notify"], 99.0) * 1e3, "ms"),
        "recovery_s": (recovery_s, "s"),
    }
    attempted = len(published) + sum(len(p) for p in expected_pushes.values())
    result: Dict[str, object] = {
        "e2e": e2e,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "samples": {
            "ingest": len(ingest),
            "notify": len(headline["notify"]),
            "notify_rate": headline_rate,
            "notify_p50_ms_by_rate": {
                str(rate): quiet_median(by_rate[rate]["notify"]) * 1e3 for rate in by_rate
            },
            "events": events_a,
            "open_loop_events": sum(step_events),
            "notifications": len(run_state.received),
            "window_wall_s": raw["phase_a_wall"],
            "segment_ms": [seconds * 1e3 for seconds in segments],
            "generator_late_p99_ms": percentile(late_all, 99.0) * 1e3,
            "generator_late": percentile(late_all, 99.0) > LATE_LIMIT_S,
            "oracle_queries": len(expected),
        },
    }
    if not traced:
        return result

    # ------------------------------------------------------------ layers
    wall = raw["phase_a_wall"]
    metrics_start, metrics_a, metrics_end = raw["metrics"]
    stats_start, stats_a, stats_end = raw["stats"]

    def measured(name: str):
        return _histogram_delta(metrics_end, metrics_start, name)

    def phase_a(name: str):
        return _histogram_delta(metrics_a, metrics_start, name)

    sustainable = [rate for rate in sizes.rates if _sustainable(by_rate[rate])]
    service = stats_end["service"]
    service_start = stats_start["service"]
    batches_processed = service["batches_processed"] - service_start["batches_processed"]
    documents_ingested = service["documents_ingested"] - service_start["documents_ingested"]
    engine_a = {
        name: stats_a["engine"][name] - stats_start["engine"][name]
        for name in ("full_evaluations", "postings_scanned", "result_updates")
    }
    notify_write = measured("service.notify_write")
    ceiling = _ceiling(queries, warmup, batches)
    layers = {
        "core.columnar.full_evals_per_event": (engine_a["full_evaluations"] / events_a, "count"),
        "core.columnar.postings_per_event": (engine_a["postings_scanned"] / events_a, "count"),
        "core.columnar.updates_per_event": (engine_a["result_updates"] / events_a, "count"),
        "core.columnar.useful_ratio": (
            ratio(engine_a["result_updates"], engine_a["full_evaluations"]), "ratio"),
        "core.results.heap_bytes_per_query": (
            ratio(raw["steady"]["rss"] - ready["rss_registered"], sizes.queries), "B"),
        "service.client.ack_p50_ms": (quiet_median(headline["ack"]) * 1e3, "ms"),
        "service.client.ack_p99_ms": (percentile(headline["ack"], 99.0) * 1e3, "ms"),
        "service.client.generator_late_p99_ms": (percentile(late_all, 99.0) * 1e3, "ms"),
        "service.client.sustainable_rate_eps": (float(max(sustainable, default=0)), "1/s"),
        "service.server.batch_enqueue_p50_ms": (
            measured("service.batch_enqueue").percentile(50.0) * 1e3, "ms"),
        "service.server.engine_probe_busy_share": (
            ratio(phase_a("service.engine_probe").total, wall), "ratio"),
        "service.server.publish_to_notify_p50_ms": (
            measured("service.publish_to_notify").percentile(50.0) * 1e3, "ms"),
        "service.server.notify_write_us": (
            ratio(notify_write.total, notify_write.count) * 1e6, "us"),
        "service.server.event_loop_lag_p99_ms": (
            measured("service.event_loop_lag").percentile(99.0) * 1e3, "ms"),
        "service.server.mean_batch_size": (ratio(documents_ingested, batches_processed), "count"),
        "service.server.pending_documents_peak": (
            float(raw["final"]["gauge_peaks"].get("service.pending_documents", 0.0)), "count"),
        "service.server.share_of_ceiling": (ratio(events_per_s, ceiling), "ratio"),
        "service.server.cpu_busy_share": (
            ratio(raw["after_a"]["cpu_s"] - raw["steady"]["cpu_s"], wall), "ratio"),
    }
    for label, step in (("500", 0), ("2000", 2)):
        samples = by_rate[sizes.rates[step]]["notify"] if step < len(sizes.rates) else []
        layers[f"service.client.notify_p99_ms_at_{label}"] = (
            percentile(samples, 99.0) * 1e3, "ms")
    layers.update(_pure_function_costs(batches, pushed_updates, durable_mode, lifecycle.tmp_dir))

    # Server-side self time over phase A, from the child's spans.
    totals = {
        layer: raw["after_a"]["self_seconds"].get(layer, 0.0)
        - raw["steady"]["self_seconds"].get(layer, 0.0)
        for layer in raw["after_a"]["self_seconds"]
    }
    if durable_mode:
        transport = {
            name: raw["after_a"]["transport"][name] - raw["steady"]["transport"][name]
            for name in ("control_bytes", "reply_bytes", "payload_shm_bytes")
        }
        shard_busy = [
            after - before
            for after, before in zip(
                raw["after_a"]["per_shard_batch_s"], raw["steady"]["per_shard_batch_s"]
            )
        ]
        # The fan-out span covers the wait for the workers; the slower
        # shard's engine lap is the engine's share of that wait.
        engine_wait = min(max(shard_busy, default=0.0), totals.get("runtime.procpool", 0.0))
        totals["runtime.procpool"] = totals.get("runtime.procpool", 0.0) - engine_wait
        totals["core.columnar"] = totals.get("core.columnar", 0.0) + engine_wait
        taxes = lifecycle.start_child(
            {"mode": "taxes", "workload": workload, "seed": seed, "smoke": smoke,
             "seconds": seconds,
             "durable_dir": os.path.join(lifecycle.tmp_dir, "durable-taxes")},
            timeout=max(phase_timeout, 90.0),
        )
        tax = taxes.ready
        taxes.stop()
        checkpoints = raw["final"]["checkpoint_ms"]
        layers.update({
            "persistence.wal.flush_busy_share": (ratio(phase_a("wal.flush").total, wall), "ratio"),
            "persistence.durable.journal_tax": (tax["journal_tax"], "ratio"),
            "persistence.durable.checkpoint_ms": (median(checkpoints), "ms"),
            "persistence.durable.checkpoint_bytes": (
                float(raw["final"]["checkpoint_bytes"]), "B"),
            "persistence.recovery.replay_events_per_s": (
                ratio(recovery["replayed_documents"], recovery_s), "1/s"),
            "runtime.sharded.partition_tax": (tax["partition_tax"], "ratio"),
            "runtime.sharded.shard_skew": (
                ratio(max(shard_busy, default=0.0), sum(shard_busy) / max(1, len(shard_busy))),
                "ratio"),
            "runtime.procpool.fanout_tax": (tax["fanout_tax"], "ratio"),
            "runtime.procpool.control_bytes_per_event": (
                transport["control_bytes"] / events_a, "B"),
            "runtime.procpool.reply_bytes_per_event": (transport["reply_bytes"] / events_a, "B"),
            "runtime.shm.payload_bytes_per_event": (
                transport["payload_shm_bytes"] / events_a, "B"),
            "runtime.shm.ring_peak_occupancy": (
                ratio(raw["final"]["transport"]["peak_ring_bytes"],
                      raw["final"]["transport"]["ring_bytes"]), "ratio"),
        })
    layers["core.columnar.probe_us_per_event"] = (
        ratio(totals.get("core.columnar", 0.0), events_a) * 1e6, "us")
    result["layers"] = layers
    result["self_seconds"] = totals
    result["unaccounted_seconds"] = max(0.0, wall - sum(totals.values()))
    result["wall_seconds"] = wall
    with open(spec["trace_path"], "r", encoding="utf-8") as handle:
        result["server_trace"] = json.load(handle)
    return result
