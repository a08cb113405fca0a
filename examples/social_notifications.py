#!/usr/bin/env python3
"""Social-network notification feeds with user churn.

Models the paper's second motivating application: users follow keyword
interests over a fast stream of short posts.  Interests change over time —
users join, leave and re-subscribe mid-stream — and the example compares the
work performed by MRIO against the exhaustive re-evaluation a naive service
would do, on the exact same stream.

Run with::

    python examples/social_notifications.py
"""

from __future__ import annotations

from repro import SyntheticCorpus
from repro.core.factory import create_algorithm
from repro.documents.corpus import CorpusConfig
from repro.documents.decay import ExponentialDecay
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import UniformWorkload, WorkloadConfig


def build_world():
    corpus = SyntheticCorpus(
        CorpusConfig(
            vocabulary_size=4_000,
            num_topics=30,
            terms_per_topic=120,
            mean_tokens=40.0,   # short posts
            min_tokens=8,
            seed=77,
        )
    )
    workload = UniformWorkload(
        corpus, config=WorkloadConfig(min_terms=1, max_terms=3, k=5, seed=5), seed=5
    )
    return corpus, workload


def run(algorithm_name: str):
    corpus, workload = build_world()
    corpus.reset(seed=77)
    algo = create_algorithm(algorithm_name, ExponentialDecay(lam=0.02))

    initial = workload.generate(1_500)
    algo.register_all(initial)

    stream = DocumentStream(corpus, StreamConfig(interval=1.0, seed=13))
    notifications = 0

    # Phase 1: steady traffic.
    for post in stream.take(150):
        notifications += len(algo.process(post))

    # Phase 2: churn — 200 users leave, 300 new ones join.
    for query in initial[:200]:
        algo.unregister(query.query_id)
    joiners = workload.generate(300)
    algo.register_all(joiners)

    # Phase 3: more traffic with the changed population.
    for post in stream.take(150):
        notifications += len(algo.process(post))

    return algo, notifications


def main() -> None:
    print("social notification feeds: MRIO vs exhaustive on the same stream\n")
    rows = []
    for name in ("mrio", "exhaustive"):
        algo, notifications = run(name)
        stats = algo.counters
        mean_ms = 1000.0 * sum(algo.response_times) / len(algo.response_times)
        rows.append(
            (
                name,
                mean_ms,
                stats.full_evaluations / stats.documents,
                stats.result_updates / stats.documents,
                notifications,
            )
        )
    print(f"{'engine':12s} {'ms/post':>9s} {'scored/post':>12s} {'updates/post':>13s} {'notifications':>14s}")
    for name, mean_ms, scored, updates, notifications in rows:
        print(f"{name:12s} {mean_ms:9.3f} {scored:12.1f} {updates:13.1f} {notifications:14d}")

    mrio_scored = rows[0][2]
    naive_scored = rows[1][2]
    print(
        f"\nMRIO scored {naive_scored / max(mrio_scored, 1e-9):.1f}x fewer queries per post "
        "while delivering the identical notifications."
    )


if __name__ == "__main__":
    main()
