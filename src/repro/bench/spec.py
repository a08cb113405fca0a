"""Experiment specifications for the benchmark harness.

A spec pins down everything needed to regenerate one table or figure:
corpus, workload, query-count sweep, algorithms, decay, stream length and
seeds.  All randomness derives from ``seed``, so every algorithm within an
experiment sees exactly the same queries and the same document stream —
the paper's comparison is between algorithms, never between workload draws.

The paper ran millions of queries against 7M Wikipedia pages on a C++
testbed; the pure-Python reproduction keeps the same *geometry* (each sweep
step doubles the query count) at laptop scale.  ``SCALE_PROFILES`` provides
three sizes; the benchmarks default to ``small`` and honour the
``REPRO_BENCH_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.documents.corpus import CorpusConfig
from repro.exceptions import BenchmarkError
from repro.queries.workloads import WorkloadConfig

#: Scale profiles: query-count sweep, stream length and corpus size.
#: The warm-up prefix is long relative to the measured segment on purpose:
#: every query must have seen well over k matching documents before response
#: times are representative of a long-running server (the paper measures a
#: warmed-up system over a 7M-document stream).
SCALE_PROFILES: Dict[str, Dict[str, object]] = {
    "tiny": {
        "query_counts": (250, 500, 1_000),
        "num_events": 20,
        "warmup_events": 120,
        "vocabulary_size": 4_000,
        "mean_tokens": 90.0,
    },
    "small": {
        "query_counts": (500, 1_000, 2_000, 4_000),
        "num_events": 30,
        "warmup_events": 400,
        "vocabulary_size": 8_000,
        "mean_tokens": 110.0,
    },
    "medium": {
        "query_counts": (2_000, 4_000, 8_000, 16_000),
        "num_events": 40,
        "warmup_events": 900,
        "vocabulary_size": 15_000,
        "mean_tokens": 130.0,
    },
}


def active_profile(default: str = "small") -> str:
    """The profile selected via ``REPRO_BENCH_PROFILE`` (or ``default``)."""
    profile = os.environ.get("REPRO_BENCH_PROFILE", default).lower()
    if profile not in SCALE_PROFILES:
        raise BenchmarkError(
            f"unknown REPRO_BENCH_PROFILE {profile!r}; expected one of "
            f"{sorted(SCALE_PROFILES)}"
        )
    return profile


@dataclass
class ExperimentSpec:
    """Everything needed to run one experiment of the evaluation."""

    name: str
    workload: str = "uniform"
    query_counts: Tuple[int, ...] = (500, 1_000, 2_000, 4_000)
    algorithms: Tuple[str, ...] = ("rta", "rio", "mrio", "sortquer", "tps")
    k: int = 10
    lam: float = 1e-3
    num_events: int = 40
    warmup_events: int = 30
    min_terms: int = 2
    max_terms: int = 5
    ub_variant: str = "tree"
    #: Flash-crowd churn: this many extra queries subscribe in one burst
    #: mid-measurement and unsubscribe in a second burst later, modelling a
    #: breaking-news audience attaching to a live stream.  0 disables churn.
    churn_burst: int = 0
    #: Fraction of the measured stream after which the burst subscribes.
    churn_join_fraction: float = 0.25
    #: Fraction of the measured stream after which the burst unsubscribes.
    churn_leave_fraction: float = 0.75
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.query_counts:
            raise BenchmarkError(f"experiment {self.name}: empty query_counts")
        if not self.algorithms:
            raise BenchmarkError(f"experiment {self.name}: empty algorithms")
        if self.num_events <= 0:
            raise BenchmarkError(f"experiment {self.name}: num_events must be > 0")
        if self.warmup_events < 0:
            raise BenchmarkError(f"experiment {self.name}: warmup_events must be >= 0")
        if self.workload not in ("uniform", "connected"):
            raise BenchmarkError(
                f"experiment {self.name}: workload must be 'uniform' or 'connected'"
            )
        if self.churn_burst < 0:
            raise BenchmarkError(
                f"experiment {self.name}: churn_burst must be >= 0"
            )
        if not 0.0 <= self.churn_join_fraction <= 1.0:
            raise BenchmarkError(
                f"experiment {self.name}: churn_join_fraction must be in [0, 1]"
            )
        if not self.churn_join_fraction <= self.churn_leave_fraction <= 1.0:
            raise BenchmarkError(
                f"experiment {self.name}: churn_leave_fraction must be in "
                "[churn_join_fraction, 1]"
            )

    def workload_config(self) -> WorkloadConfig:
        """The query-workload configuration this spec implies."""
        return WorkloadConfig(
            min_terms=self.min_terms,
            max_terms=self.max_terms,
            k=self.k,
            seed=self.seed + 101,
        )

    def scaled(self, profile: str) -> "ExperimentSpec":
        """Return a copy of this spec resized to a :data:`SCALE_PROFILES` entry."""
        if profile not in SCALE_PROFILES:
            raise BenchmarkError(
                f"unknown profile {profile!r}; expected one of {sorted(SCALE_PROFILES)}"
            )
        params = SCALE_PROFILES[profile]
        corpus = replace(
            self.corpus,
            vocabulary_size=int(params["vocabulary_size"]),
            mean_tokens=float(params["mean_tokens"]),
        )
        return replace(
            self,
            query_counts=tuple(params["query_counts"]),  # type: ignore[arg-type]
            num_events=int(params["num_events"]),
            warmup_events=int(params["warmup_events"]),
            corpus=corpus,
        )
