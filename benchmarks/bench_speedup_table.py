"""Speed-up table — the paper's headline claim.

The abstract states that MRIO's running time is "up to 8, 10, and 25 times
shorter than TPS, SortQuer, and RTA, respectively" and an order of magnitude
shorter than the state of the art overall.  This benchmark measures all five
methods at the largest query count of the active profile (both workloads) and
prints the slowdown of every competitor relative to MRIO, together with the
work-based equivalent (queries considered per event), which is the part of
the claim a pure-Python reproduction can match faithfully (see
docs/benchmarks.md).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import figure1_connected_spec, figure1_uniform_spec
from repro.bench.harness import run_experiment
from repro.bench.reporting import format_counter_table, format_speedup_table, max_speedup


@pytest.mark.benchmark(group="speedup")
@pytest.mark.parametrize("workload", ["uniform", "connected"])
def test_speedup_over_mrio(benchmark, report, workload):
    spec = figure1_uniform_spec() if workload == "uniform" else figure1_connected_spec()
    largest = (spec.query_counts[-1],)

    result = benchmark.pedantic(
        run_experiment, args=(spec,), kwargs={"query_counts": largest}, rounds=1, iterations=1
    )

    lines = [
        format_speedup_table(
            result, reference="mrio", title=f"[speedup/{workload}] response-time ratio over MRIO"
        ),
        "",
        format_counter_table(
            result,
            "full_evaluations",
            title=f"[speedup/{workload}] queries considered per stream event",
        ),
        "",
        "max observed slowdowns vs MRIO: "
        + ", ".join(
            f"{name}={max_speedup(result, name):.1f}x"
            for name in ("tps", "sortquer", "rta", "rio")
        ),
    ]
    report(f"speedup_{workload}", "\n".join(lines))

    # The work-level claim: MRIO considers the fewest queries per event.
    num_queries = largest[0]
    mrio_evals = result.cell("mrio", num_queries).counters["full_evaluations"]
    for competitor in ("rta", "sortquer", "tps", "rio"):
        assert mrio_evals <= result.cell(competitor, num_queries).counters[
            "full_evaluations"
        ] * 1.05 + 5
