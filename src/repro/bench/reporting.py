"""Plain-text tables mirroring the paper's figures.

The extended abstract reports Figure 1 as log-scale response-time curves;
the harness renders the same data as a table (rows: number of registered
queries, columns: algorithms, cells: mean response time per stream event in
milliseconds) plus a speed-up table that reproduces the "up to 8/10/25×"
claims of the text.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentResult, RunStatistics


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def _render_table(
    result: ExperimentResult,
    value_of: Callable[[RunStatistics], float],
    value_format: str,
    title: str,
) -> str:
    algorithms = result.algorithms()
    query_counts = result.query_counts()
    header = ["#queries"] + list(algorithms)
    rows: List[List[str]] = []
    for num_queries in query_counts:
        row = [f"{num_queries:,}"]
        for algorithm in algorithms:
            run = result.cell(algorithm, num_queries)
            row.append(value_format.format(value_of(run)) if run else "-")
        rows.append(row)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = [title, _format_row(header, widths), _format_row(["-" * w for w in widths], widths)]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def format_response_table(result: ExperimentResult, title: Optional[str] = None) -> str:
    """Mean response time per stream event (ms), like Figure 1."""
    return _render_table(
        result,
        value_of=lambda run: run.mean_response_ms,
        value_format="{:.3f}",
        title=title or f"[{result.spec.name}] mean response time per event (ms)",
    )


def format_counter_table(
    result: ExperimentResult, counter: str, title: Optional[str] = None
) -> str:
    """A per-document work counter (e.g. ``full_evaluations``) per cell."""
    return _render_table(
        result,
        value_of=lambda run: run.counters.get(counter, 0.0),
        value_format="{:.1f}",
        title=title or f"[{result.spec.name}] {counter} per event",
    )


def format_speedup_table(
    result: ExperimentResult, reference: str = "mrio", title: Optional[str] = None
) -> str:
    """Response-time ratio of every algorithm over ``reference`` (×)."""
    algorithms = [a for a in result.algorithms() if a != reference]
    query_counts = result.query_counts()
    header = ["#queries"] + [f"{a}/{reference}" for a in algorithms]
    rows: List[List[str]] = []
    for num_queries in query_counts:
        ref_run = result.cell(reference, num_queries)
        row = [f"{num_queries:,}"]
        for algorithm in algorithms:
            run = result.cell(algorithm, num_queries)
            if run is None or ref_run is None or ref_run.mean_response_ms == 0.0:
                row.append("-")
            else:
                row.append(f"{run.mean_response_ms / ref_run.mean_response_ms:.1f}x")
        rows.append(row)
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))
    ]
    lines = [
        title or f"[{result.spec.name}] slowdown relative to {reference}",
        _format_row(header, widths),
        _format_row(["-" * w for w in widths], widths),
    ]
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def max_speedup(result: ExperimentResult, algorithm: str, reference: str = "mrio") -> float:
    """Largest response-time ratio ``algorithm / reference`` across the sweep."""
    best = 0.0
    for num_queries in result.query_counts():
        run = result.cell(algorithm, num_queries)
        ref = result.cell(reference, num_queries)
        if run is None or ref is None or ref.mean_response_ms == 0.0:
            continue
        best = max(best, run.mean_response_ms / ref.mean_response_ms)
    return best


def result_to_rows(result: ExperimentResult) -> List[Dict[str, float]]:
    """Flat list-of-dicts export (handy for CSV/JSON dumps in examples)."""
    return [run.summary() for run in result.runs]
