"""The system under test as a child process, driven over stdin/stdout.

Started by :mod:`procs` in its own session.  The first stdin line is the
run's spec (workload, seed, mode); every later line is a command answered
with exactly one JSON line on stdout.  **Stdin EOF is the parent-death
watchdog**: whatever the child is doing, it closes its monitor (procpool
workers, shared memory, WAL handles) and exits.

Modes:

``serve``
    Host the workload's monitor behind a :class:`MonitorServer` on a
    loopback port.  ``service_socket`` hosts a plain
    :class:`ContinuousMonitor`; ``durable_pipeline`` hosts a
    :class:`DurableMonitor` over two process shards.
``recover``
    Time ``DurableMonitor.open()`` on the directory a ``serve`` child
    left behind (stopped without a final checkpoint) and report the
    recovered top-k of the sampled queries.
``taxes``
    The paired in-process comparisons behind ``runtime.sharded.partition_tax``,
    ``runtime.procpool.fanout_tax`` and ``persistence.durable.journal_tax``
    — here rather than in the runner so that every worker process the
    benchmark ever spawns lives in a session the runner can ``killpg``.

In a traced run the child wraps the public functions of each layer it
hosts in spans (see :mod:`spans`) and turns on the *existing*
``ServiceConfig(telemetry=True)`` / ``MonitorConfig(telemetry=True)``;
nothing in ``src/`` is instrumented for this benchmark.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import threading
import time
import traceback
from time import perf_counter
from typing import Dict, List

from common import (
    descendants, ensure_importable, gc_paused, peak_rss_bytes, quiet_median, rss_bytes,
)

ensure_importable()

from repro.core.config import MonitorConfig  # noqa: E402
from repro.core.monitor import ContinuousMonitor  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402
from repro.persistence import codec, durable  # noqa: E402
from repro.persistence.durable import DurabilityConfig, DurableMonitor  # noqa: E402
from repro.persistence.wal import WriteAheadLog  # noqa: E402
from repro.runtime.procpool import ProcessShardExecutor  # noqa: E402
from repro.runtime.sharded import ShardedMonitor  # noqa: E402
from repro.runtime.shm import SharedMemoryRing  # noqa: E402
from repro.service import MonitorServer, ServiceConfig, protocol  # noqa: E402

import check  # noqa: E402
from inputs import (  # noqa: E402
    ENGINE, LAM, generate, register_timed, scaled, sizes_for, stamp,
)
from spans import Tracer  # noqa: E402

N_SHARDS = 2


def answer(message: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def monitor_config(traced: bool) -> MonitorConfig:
    return MonitorConfig(algorithm=ENGINE, lam=LAM, telemetry=traced)


def durability(spec: Dict[str, object], sizes) -> DurabilityConfig:
    return DurabilityConfig(
        directory=str(spec["durable_dir"]),
        group_commit=256,
        fsync=False,
        checkpoint_interval=sizes.checkpoint_interval,
    )


def system_rss() -> Dict[str, int]:
    """RSS now and at its high-water mark: this process plus its workers."""
    pids = [os.getpid()] + descendants(os.getpid())
    return {
        "rss": sum(rss_bytes(pid) for pid in pids),
        "peak_rss": sum(peak_rss_bytes(pid) for pid in pids),
    }


def wrap_layers(tracer: Tracer) -> None:
    """Spans at every layer boundary one published document crosses here."""
    tracer.require_parent = False
    for name in ("decode_payload", "decode_published_document", "encode_frame", "update_push"):
        tracer.wrap(protocol, name, "service.protocol")
    tracer.wrap(ContinuousMonitor, "process_batch", "core.columnar")
    tracer.wrap(DurableMonitor, "process_batch", "persistence.durable")
    tracer.wrap(DurableMonitor, "checkpoint", "persistence.durable")
    tracer.wrap(ShardedMonitor, "process_batch", "runtime.sharded")
    tracer.wrap(ProcessShardExecutor, "run_shards", "runtime.procpool")
    tracer.wrap(SharedMemoryRing, "reserve", "runtime.shm")
    tracer.wrap(SharedMemoryRing, "free", "runtime.shm")
    for name in ("batch_record", "pack_line", "encode_document_batch"):
        tracer.wrap(codec, name, "persistence.codec")
    tracer.wrap(WriteAheadLog, "append_line", "persistence.wal")
    tracer.wrap(WriteAheadLog, "flush", "persistence.wal")


def per_shard_batch_seconds(monitor) -> List[float]:
    """Busy seconds of each shard's ``engine.batch`` lap (traced durable runs)."""
    inner = getattr(monitor, "monitor", None)
    shards = getattr(inner, "shards", None)
    if shards is None:
        return []
    sums = []
    for shard in shards:
        snapshot = shard.telemetry_snapshot() or {}
        histogram = snapshot.get("histograms", {}).get("engine.batch", {})
        sums.append(float(histogram.get("sum", 0.0)))
    return sums


def checkpoint_bytes(root: str) -> int:
    total = 0
    for directory, _, files in os.walk(root):
        if os.path.basename(directory) == "checkpoints":
            total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #


async def serve(spec: Dict[str, object], lines: "asyncio.Queue") -> None:
    workload = str(spec["workload"])
    traced = bool(spec["traced"])
    sizes = sizes_for(workload, bool(spec["smoke"]))
    durable_mode = workload == "durable_pipeline"
    tracer = Tracer(enabled=traced)
    gauge_peaks: Dict[str, float] = {}
    if traced:
        wrap_layers(tracer)
        # The pending-documents gauge keeps only its last value; the peak
        # is read here, at the recorder the server already reports into.
        original_set_gauge = Telemetry.set_gauge

        def set_gauge(self, name, value):
            if value > gauge_peaks.get(name, 0.0):
                gauge_peaks[name] = value
            original_set_gauge(self, name, value)

        Telemetry.set_gauge = set_gauge  # type: ignore[method-assign]

    queries, _ = generate(sizes, int(spec["seed"]), sizes.queries, 0)
    gc.collect()
    if durable_mode:
        monitor = DurableMonitor.open(
            durability(spec, sizes), monitor_config(traced),
            n_shards=N_SHARDS, executor="processes",
        )
    else:
        monitor = ContinuousMonitor(monitor_config(traced))
    server = None
    try:
        per_call: List[float] = []
        for _ in range(sizes.register_rehearsals):
            per_call += register_timed(ContinuousMonitor(monitor_config(False)), queries)
        before = system_rss()["rss"]
        per_call += register_timed(monitor, queries)
        registered = system_rss()["rss"]
        server = MonitorServer(
            monitor,
            ServiceConfig(telemetry=traced, checkpoint_on_shutdown=False, shutdown_timeout=10.0),
        )
        await server.start()
        answer({
            "port": server.port, "pid": os.getpid(), "rss_before": before,
            "rss_registered": registered,
            "register_ops_per_s": 1.0 / quiet_median(per_call),
            "num_queries": monitor.num_queries,
        })

        def report() -> Dict[str, object]:
            message: Dict[str, object] = dict(system_rss())
            message["cpu_s"] = time.process_time()
            if traced:
                message["self_seconds"] = tracer.self_times()
                message["span_count"] = len(tracer.spans)
                message["gauge_peaks"] = dict(gauge_peaks)
                message["per_shard_batch_s"] = per_shard_batch_seconds(monitor)
                message["checkpoint_ms"] = [
                    seconds * 1e3 for seconds in tracer.durations("DurableMonitor.checkpoint")
                ]
            if durable_mode:
                stats = monitor.monitor.executor.stats
                message["transport"] = {
                    "control_bytes": stats.control_bytes,
                    "reply_bytes": stats.reply_bytes,
                    "payload_shm_bytes": stats.payload_shm_bytes,
                    "payload_pipe_bytes": stats.payload_pipe_bytes,
                    "peak_ring_bytes": stats.peak_ring_bytes,
                    "ring_bytes": monitor.monitor.executor.ring_bytes,
                }
                message["checkpoint_bytes"] = checkpoint_bytes(str(spec["durable_dir"]))
            return message

        while True:
            line = await lines.get()
            if line is None:
                return  # stdin EOF: the runner is gone
            command = json.loads(line)
            name = command.get("cmd")
            if name == "report":
                answer(report())
            elif name == "stop":
                final = report()
                final["top_k"] = check.top_k_of(monitor, command.get("ids", []))
                if traced:
                    tracer.dump(spec["trace_path"])
                answer(final)
                return
            else:
                answer({"error": f"unknown command {name!r}"})
    finally:
        if server is not None:
            await server.stop()  # idempotent; closes the monitor, no checkpoint
        else:
            monitor.close()


# ---------------------------------------------------------------------- #
# recover
# ---------------------------------------------------------------------- #


async def recover(spec: Dict[str, object], lines: "asyncio.Queue") -> None:
    sizes = sizes_for(str(spec["workload"]), bool(spec["smoke"]))
    reports = []
    original = durable.recover_engine

    def recording(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(report)
        return report

    durable.recover_engine = recording
    started = perf_counter()
    monitor = DurableMonitor.open(
        durability(spec, sizes), monitor_config(False), n_shards=N_SHARDS, executor="processes"
    )
    try:
        recovery_s = perf_counter() - started
        answer({
            "recovery_s": recovery_s,
            "replayed_documents": max((r.replayed_documents for r in reports), default=0),
            "checkpoint_lsn": max((r.checkpoint_lsn for r in reports), default=0),
            "top_k": check.top_k_of(monitor, spec["ids"]),
            "num_queries": monitor.num_queries,
        })
        await lines.get()  # "stop" or EOF: either way, close and leave
        answer({"stopped": True})
    finally:
        monitor.close()


# ---------------------------------------------------------------------- #
# taxes
# ---------------------------------------------------------------------- #


async def taxes(spec: Dict[str, object], lines: "asyncio.Queue") -> None:
    """Paired alternating batches through four monitors over the same inputs."""
    workload = str(spec["workload"])
    smoke = bool(spec["smoke"])
    sizes = sizes_for(workload, smoke)
    n_batches = scaled(16, float(spec["seconds"]), smoke)
    queries, documents = generate(
        sizes, int(spec["seed"]), sizes.queries, sizes.warmup_events + n_batches * sizes.batch
    )
    documents = stamp(documents)
    config = monitor_config(False)
    monitors = {
        "single": ContinuousMonitor(config),
        "serial": ShardedMonitor(config, n_shards=N_SHARDS, executor="serial"),
        "processes": ShardedMonitor(config, n_shards=N_SHARDS, executor="processes"),
        "durable": DurableMonitor.open(
            durability(spec, sizes), config, n_shards=N_SHARDS, executor="processes"
        ),
    }
    try:
        for monitor in monitors.values():
            monitor.register_queries(queries)
        seconds: Dict[str, List[float]] = {name: [] for name in monitors}
        order = list(monitors)
        with gc_paused():
            for index, start in enumerate(range(0, len(documents), sizes.batch)):
                chunk = documents[start : start + sizes.batch]
                # Rotate who goes first so no monitor always runs on a cold cache.
                for name in order[index % 4 :] + order[: index % 4]:
                    began = perf_counter()
                    monitors[name].process_batch(chunk)
                    elapsed = perf_counter() - began
                    if start >= sizes.warmup_events:
                        seconds[name].append(elapsed)
        medians = {name: quiet_median(values) for name, values in seconds.items()}
        answer({
            "batch_ms": {name: value * 1e3 for name, value in medians.items()},
            "partition_tax": medians["serial"] / medians["single"],
            "fanout_tax": medians["processes"] / medians["serial"],
            "journal_tax": medians["durable"] / medians["processes"],
            "batches": len(seconds["single"]),
        })
        await lines.get()
        answer({"stopped": True})
    finally:
        for monitor in monitors.values():
            monitor.close()


MODES = {"serve": serve, "recover": recover, "taxes": taxes}


async def main() -> int:
    loop = asyncio.get_running_loop()
    lines: "asyncio.Queue" = asyncio.Queue()

    def read_stdin() -> None:
        # Raw reads on fd 0: a daemon thread parked inside ``sys.stdin``
        # holds its buffer lock and crashes interpreter shutdown.
        buffer = b""
        while True:
            chunk = os.read(0, 1 << 16)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                loop.call_soon_threadsafe(lines.put_nowait, line)
        loop.call_soon_threadsafe(lines.put_nowait, None)

    threading.Thread(target=read_stdin, daemon=True).start()
    first = await lines.get()
    if first is None:
        return 0
    try:
        spec = json.loads(first)
        await MODES[spec["mode"]](spec, lines)
    except Exception:  # noqa: BLE001 - the boundary: report, then exit non-zero
        answer({"error": traceback.format_exc()[-3000:]})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
