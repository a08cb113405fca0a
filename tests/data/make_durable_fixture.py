"""Scripted inputs of the committed durable directories next to this file.

``durable_single/`` and ``durable_sharded2/`` were written ONCE by running
this script against the PR 21 commit (18df6d0), before PR 23 touched the
state shape: ``PYTHONPATH=src python tests/data/make_durable_fixture.py``.
``tests/test_durability_recovery.py`` recovers copies of them and compares
with an in-memory replay of :func:`steps`.  Do not regenerate them.
"""

import os

from repro.core.config import MonitorConfig
from repro.persistence.durable import DurabilityConfig, DurableMonitor
from tests.helpers import make_document, make_query

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = MonitorConfig(algorithm="mrio", lam=1e-2, window_horizon=9.0)


def document(i):
    return make_document(i, {i % 7: 1.0, (3 * i) % 11: 0.5 + i % 3, 11 + i % 2: 0.25}, float(i))


def steps():
    """``(method, argument)`` calls: a full round, an incremental one, a tail."""
    queries = [
        make_query(q, {q % 7: 1.0, (5 * q) % 11: 0.5, 11 + q % 2: 0.3}, 2 + q % 3) for q in range(16)
    ]
    return (
        [("register_query", query) for query in queries[:12]]
        + [("process", document(i)) for i in range(6)] + [("checkpoint", True)]
        + [("register_query", queries[12]), ("unregister", 3)]
        + [("process_batch", [document(i) for i in range(6, 12)]), ("checkpoint", False)]
        + [("process", document(12)), ("register_query", queries[15]), ("unregister", 15)]
        + [("register_query", queries[13]), ("renormalize", 10.0)]
        + [("process_batch", [document(i) for i in range(13, 18)])]
    )


def apply(monitor, script):
    for method, argument in script:
        if hasattr(monitor, method):  # in-memory monitors have no checkpoint
            getattr(monitor, method)(argument)


if __name__ == "__main__":
    for name, n_shards in (("durable_single", 1), ("durable_sharded2", 2)):
        durability = DurabilityConfig(
            os.path.join(HERE, name), group_commit=1, checkpoint_interval=None
        )
        # Abandoned, never closed: the directory is what a kill -9 leaves.
        apply(DurableMonitor(durability, CONFIG, n_shards=n_shards), steps())
