"""Instrumentation: cumulative work counters.

Latency *histograms* and pipeline stage timers live in :mod:`repro.obs`;
per-event response-time samples belong to whatever measures a run (the
paper-figure harness keeps its own in :mod:`repro.bench.harness`).
"""

from repro.metrics.counters import EventCounters, ServiceCounters

__all__ = ["EventCounters", "ServiceCounters"]
