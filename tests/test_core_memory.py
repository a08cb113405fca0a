"""A monitor's memory is bounded by its queries, not by its event count.

Timing samples belong to whatever measures a run (the bench harness, or
telemetry histograms); the engine itself keeps only cumulative counters.
Once warmed up, a long stream must therefore leave no per-event residue in
any structure the ``repro`` package allocated — neither in a bare engine,
nor in the sharded facade that fans events out, nor in the durable facade
that journals them.
"""

import gc
import os
import tracemalloc

import pytest

import repro
from repro.core.config import MonitorConfig
from repro.core.monitor import ContinuousMonitor
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from repro.runtime.sharded import ShardedMonitor
from tests.helpers import make_document, make_query

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
NUM_QUERIES = 20
BATCH = 64
GROWTH_BUDGET_BYTES = 16 * 1024


def _documents(first_id: int, count: int, first_arrival: float, term_of):
    return [
        make_document(first_id + i, {term_of(i): 1.0}, first_arrival + i)
        for i in range(count)
    ]


def _monitor(engine: str, directory: str):
    """``mrio`` / ``columnar``: a bare monitor; ``sharded``: two serial
    shards; ``durable``: a journaling facade that flushes every record, so
    no commit group is half full when a snapshot is taken."""
    if engine == "sharded":
        return ShardedMonitor(
            MonitorConfig(algorithm="mrio", lam=1e-4), n_shards=2, executor="serial"
        )
    if engine == "durable":
        durability = DurabilityConfig(
            directory=directory, group_commit=1, checkpoint_interval=None
        )
        return DurableMonitor(durability, MonitorConfig(algorithm="mrio", lam=1e-4))
    return ContinuousMonitor(MonitorConfig(algorithm=engine, lam=1e-4))


@pytest.mark.parametrize("engine", ["mrio", "columnar", "sharded", "durable"])
def test_memory_does_not_grow_with_events(engine, tmp_path):
    monitor = _monitor(engine, str(tmp_path))
    for query_id in range(NUM_QUERIES):
        monitor.register_query(make_query(query_id, {query_id: 1.0}, k=5))

    warmup = _documents(0, 20 * BATCH, 1.0, lambda i: i % NUM_QUERIES)
    for start in range(0, len(warmup), BATCH):
        monitor.process_batch(warmup[start : start + BATCH])

    # Every measured document carries a term no query holds, so the result
    # state cannot legitimately change while tracing.
    unmatched = NUM_QUERIES + 1
    arrival = float(len(warmup) + 1)
    batched = _documents(len(warmup), 200 * BATCH, arrival, lambda i: unmatched)
    single = _documents(
        len(warmup) + len(batched), 500, arrival + len(batched), lambda i: unmatched
    )

    # A full collection empties the interpreter's dict/list/float free
    # lists, whose cached blocks tracemalloc would otherwise still charge to
    # the repro line that last allocated them (up to ~18 KB of noise when
    # the WAL codec is on the path).
    try:
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.take_snapshot()
            for start in range(0, len(batched), BATCH):
                monitor.process_batch(batched[start : start + BATCH])
            for document in single:
                monitor.process(document)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        documents = monitor.statistics.documents
    finally:
        monitor.close()

    assert documents == len(warmup) + len(batched) + len(single)
    growth = sum(
        stat.size_diff
        for stat in after.compare_to(before, "filename")
        if stat.traceback[0].filename.startswith(PACKAGE_DIR)
    )
    assert growth < GROWTH_BUDGET_BYTES, (
        f"{engine}: {growth} B retained by repro/ over "
        f"{len(batched) + len(single)} events"
    )
