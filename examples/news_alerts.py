#!/usr/bin/env python3
"""News-alert filtering: the paper's motivating scenario at a larger scale.

A synthetic "news wire" (topically structured corpus) streams into a central
monitor hosting thousands of user subscriptions (Connected workload: users
subscribe to keywords that actually co-occur in articles).  A hard staleness
window drops articles older than a day from every alert list, and the
updates each arrival returns play the role of the push notifications.

Run with::

    python examples/news_alerts.py
"""

from __future__ import annotations

from collections import Counter

from repro import ContinuousMonitor, MonitorConfig, SyntheticCorpus
from repro.documents.corpus import CorpusConfig
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import ConnectedWorkload, WorkloadConfig

#: One simulated "hour" per stream event; the window below is 24 hours.
WINDOW_HOURS = 24.0


def main() -> None:
    corpus = SyntheticCorpus(
        CorpusConfig(vocabulary_size=5_000, num_topics=40, terms_per_topic=150, seed=2024)
    )
    subscriptions = ConnectedWorkload(
        corpus, config=WorkloadConfig(min_terms=2, max_terms=4, k=5, seed=7), seed=7
    ).generate(2_000)

    monitor = ContinuousMonitor(
        MonitorConfig(algorithm="mrio", lam=0.01, window_horizon=WINDOW_HOURS)
    )
    monitor.register_queries(subscriptions)

    # The notifications: count alerts per subscription.
    alerts: Counter = Counter()
    stream = DocumentStream(corpus, StreamConfig(interval=1.0, seed=99))
    hours = 120  # five simulated days
    for document in stream.take(hours):
        alerts.update(update.query_id for update in monitor.process(document))

    stats = monitor.statistics
    print(f"simulated {hours} hours of news, {monitor.num_queries} subscriptions")
    print(f"live articles inside the {WINDOW_HOURS:.0f}h window: {monitor.live_window_size}")
    print(
        f"per event: {stats.full_evaluations / stats.documents:,.1f} queries scored, "
        f"{stats.result_updates / stats.documents:,.1f} alert-list updates"
    )
    mean_ms = 1000.0 * stats.elapsed_seconds / stats.documents
    print(f"mean refresh time per arriving article: {mean_ms:.2f} ms")

    print("\nmost active subscriptions (alerts received):")
    for query_id, count in alerts.most_common(5):
        query = monitor.algorithm.queries[query_id]
        terms = ", ".join(corpus.vocabulary.term_of(t) for t in query.terms())
        print(f"  subscription {query_id:5d} [{terms}] -> {count} alerts")

    sample = alerts.most_common(1)[0][0]
    print(f"\ncurrent alert list of subscription {sample}:")
    for entry in monitor.top_k(sample):
        print(f"  article {entry.doc_id:4d}  score={entry.score:10.4f}")


if __name__ == "__main__":
    main()
