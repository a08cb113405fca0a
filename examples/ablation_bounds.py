#!/usr/bin/env python3
"""Ablation: compare RIO's global bound with MRIO's three UB* implementations.

All four configurations process the same warmed-up stream; the table shows
how much of the per-event work each bound eliminates and what it costs to
maintain, mirroring the design discussion in DESIGN.md §3.3.

Run with::

    python examples/ablation_bounds.py
"""

from __future__ import annotations

from repro import SyntheticCorpus
from repro.core.factory import create_algorithm
from repro.documents.corpus import CorpusConfig
from repro.documents.decay import ExponentialDecay
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import UniformWorkload, WorkloadConfig

CONFIGURATIONS = [
    ("rio (global bound)", "rio", {}),
    ("mrio / exact zones", "mrio", {"ub_variant": "exact"}),
    ("mrio / segment tree", "mrio", {"ub_variant": "tree"}),
    ("mrio / block maxima", "mrio", {"ub_variant": "block"}),
]


def main() -> None:
    corpus_config = CorpusConfig(
        vocabulary_size=6_000, num_topics=40, terms_per_topic=150, mean_tokens=100.0, seed=5
    )
    num_queries, warmup, measured = 2_000, 300, 50

    print(
        f"{num_queries} Uniform queries, {warmup} warm-up events, "
        f"{measured} measured events\n"
    )
    header = f"{'configuration':22s} {'ms/event':>9s} {'scored/event':>13s} {'iterations':>11s} {'bounds':>9s}"
    print(header)
    print("-" * len(header))

    for label, name, kwargs in CONFIGURATIONS:
        corpus = SyntheticCorpus(corpus_config)
        queries = UniformWorkload(
            corpus, config=WorkloadConfig(min_terms=2, max_terms=5, k=10, seed=11), seed=11
        ).generate(num_queries)
        stream = DocumentStream(corpus, StreamConfig(seed=23))

        algo = create_algorithm(name, ExponentialDecay(lam=1e-3), **kwargs)
        algo.register_all(queries)
        for document in stream.take(warmup):
            algo.process(document)
        algo.counters.reset()
        for document in stream.take(measured):
            algo.process(document)

        per_event = algo.counters.per_document()
        mean_ms = 1000.0 * per_event["elapsed_seconds"]
        print(
            f"{label:22s} {mean_ms:9.3f} {per_event['full_evaluations']:13.1f} "
            f"{per_event['iterations']:11.1f} {per_event['bound_computations']:9.1f}"
        )

    print(
        "\nTighter zone bounds consider fewer queries per event (the paper's"
        " optimality result); the maintainers differ in how much that costs."
    )


if __name__ == "__main__":
    main()
