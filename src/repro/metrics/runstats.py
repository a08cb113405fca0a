"""Aggregate statistics over a measured run (per-event response times).

Summaries are numpy's vectorized mean/median/percentile (default linear
interpolation) over the sample, reported in milliseconds.  Covered by
``tests/test_metrics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np


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
    #: One ``(batch_size, elapsed_seconds)`` pair per engine batch the run
    #: processed (empty for per-event runs).
    batch_response_times: List[Tuple[int, float]] = field(default_factory=list)

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
        if self.batch_response_times:
            batch_times = [elapsed for _, elapsed in self.batch_response_times]
            batch_summary = summarize_times(batch_times)
            result["batch_count"] = batch_summary["count"]
            result["batch_mean_ms"] = batch_summary["mean_ms"]
            result["batch_p95_ms"] = batch_summary["p95_ms"]
            result["batch_max_ms"] = batch_summary["max_ms"]
            result["batch_mean_size"] = sum(
                size for size, _ in self.batch_response_times
            ) / len(self.batch_response_times)
        result.update(self.extra)
        return result
