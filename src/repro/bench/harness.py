"""Runs experiment specs and collects per-cell statistics.

One *cell* of an experiment is (algorithm, number of registered queries).
For every cell the harness rebuilds the corpus, the query workload and the
document stream from the spec's seed, so each algorithm processes exactly
the same events against exactly the same queries.  The stream is split into
a warm-up prefix (results fill up, thresholds stabilize — not measured) and
a measured segment whose per-event response times feed the tables.

The harness is the one keeper of those samples: an engine only accumulates
``counters.elapsed_seconds``, and each measured event's response time is the
delta of that timer across its ``process`` call.  Summaries are numpy's
mean/median/percentile (default linear interpolation), in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.spec import ExperimentSpec
from repro.core.factory import create_algorithm
from repro.documents.corpus import SyntheticCorpus
from repro.documents.decay import ExponentialDecay
from repro.documents.stream import DocumentStream, StreamConfig
from repro.queries.workloads import generate_workload


def summarize_times(times_seconds: Sequence[float]) -> Dict[str, float]:
    """Summary statistics (in milliseconds) of a response-time sample."""
    if not times_seconds:
        return {
            "count": 0,
            "mean_ms": 0.0,
            "median_ms": 0.0,
            "p95_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
            "total_ms": 0.0,
        }
    arr = np.asarray(times_seconds, dtype=float) * 1000.0
    return {
        "count": int(arr.size),
        "mean_ms": float(arr.mean()),
        "median_ms": float(np.median(arr)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
        "max_ms": float(arr.max()),
        "total_ms": float(arr.sum()),
    }


@dataclass
class RunStatistics:
    """Everything measured for one (algorithm, configuration) run."""

    algorithm: str
    num_queries: int
    num_events: int
    response_times: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_response_ms(self) -> float:
        return summarize_times(self.response_times)["mean_ms"]

    @property
    def median_response_ms(self) -> float:
        return summarize_times(self.response_times)["median_ms"]

    @property
    def p95_response_ms(self) -> float:
        return summarize_times(self.response_times)["p95_ms"]

    def summary(self) -> Dict[str, float]:
        """Flat summary used by the reporting layer."""
        result: Dict[str, float] = {
            "algorithm": self.algorithm,
            "num_queries": self.num_queries,
            "num_events": self.num_events,
        }
        result.update(summarize_times(self.response_times))
        for name, value in self.counters.items():
            result[f"counter_{name}"] = value
        result.update(self.extra)
        return result


@dataclass
class ExperimentResult:
    """All cells of one experiment, in execution order."""

    spec: ExperimentSpec
    runs: List[RunStatistics] = field(default_factory=list)

    def cell(self, algorithm: str, num_queries: int) -> Optional[RunStatistics]:
        for run in self.runs:
            if run.algorithm == algorithm and run.num_queries == num_queries:
                return run
        return None

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for run in self.runs:
            if run.algorithm not in seen:
                seen.append(run.algorithm)
        return seen

    def query_counts(self) -> List[int]:
        seen: List[int] = []
        for run in self.runs:
            if run.num_queries not in seen:
                seen.append(run.num_queries)
        return seen


def _build_algorithm(spec: ExperimentSpec, name: str):
    decay = ExponentialDecay(lam=spec.lam)
    kwargs: Dict[str, object] = {}
    if name == "mrio":
        kwargs["ub_variant"] = spec.ub_variant
    return create_algorithm(name, decay, **kwargs)


def run_cell(spec: ExperimentSpec, algorithm: str, num_queries: int) -> RunStatistics:
    """Run one (algorithm, query count) cell of an experiment."""
    corpus = SyntheticCorpus(spec.corpus, seed=spec.seed)
    # Flash-crowd cells draw the burst from the same workload distribution:
    # one generation call hands out distinct query ids, the tail beyond the
    # resident population is the crowd that joins (and leaves) mid-stream.
    queries = generate_workload(
        spec.workload,
        corpus,
        num_queries + spec.churn_burst,
        config=spec.workload_config(),
        seed=spec.seed + 101,
    )
    burst = queries[num_queries:]
    queries = queries[:num_queries]
    engine = _build_algorithm(spec, algorithm)
    engine.register_all(queries)

    stream = DocumentStream(corpus, StreamConfig(seed=spec.seed + 202))
    # Warm-up: fill the result heaps so thresholds (and thus pruning) are
    # in steady state, exactly like the paper measures a warmed-up server.
    for document in stream.take(spec.warmup_events):
        engine.process(document)
    counters = engine.counters
    counters.reset()

    documents = list(stream.take(spec.num_events))
    join_at = int(spec.churn_join_fraction * len(documents))
    leave_at = int(spec.churn_leave_fraction * len(documents))
    joined = False
    response_times: List[float] = []
    for position, document in enumerate(documents):
        if burst and position == join_at and not joined:
            joined = True
            engine.register_all(burst)
        if burst and joined and position == leave_at:
            for query in burst:
                engine.unregister(query.query_id)
            joined = False
        started = counters.elapsed_seconds
        engine.process(document)
        response_times.append(counters.elapsed_seconds - started)
    if burst and joined:
        # leave fraction of 1.0: the crowd departs after the last event.
        for query in burst:
            engine.unregister(query.query_id)

    extra: Dict[str, float] = {}
    if spec.churn_burst:
        extra["churn_burst"] = float(spec.churn_burst)
        extra["churn_ops"] = float(2 * spec.churn_burst)
    return RunStatistics(
        algorithm=algorithm,
        num_queries=num_queries,
        num_events=spec.num_events,
        response_times=response_times,
        counters=counters.per_document(),
        extra=extra,
    )


def run_experiment(
    spec: ExperimentSpec,
    algorithms: Optional[Sequence[str]] = None,
    query_counts: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Run every cell of ``spec`` (optionally restricted to subsets)."""
    result = ExperimentResult(spec=spec)
    for num_queries in query_counts or spec.query_counts:
        for algorithm in algorithms or spec.algorithms:
            result.runs.append(run_cell(spec, algorithm, num_queries))
    return result
