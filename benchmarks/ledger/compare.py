"""Compare two sets of ledger result files, metric by metric.

    python3 benchmarks/ledger/compare.py --base DIR_OR_FILES... --new DIR_OR_FILES...

Each side is any mix of result JSONs written by ``run.py`` (under
``benchmarks/ledger/out/``) and directories holding them.  For every
workload and metric the two sides have in common it prints each side's
median and quartiles over its runs, and for the end-to-end metrics — the
ones ``BENCHMARK.json`` gives a regression bound — one verdict:

``ok``
    the new median is no worse than the base median by more than the bound;
``worse``
    it is worse by more than the bound;
``unresolved``
    the run-to-run spread of either side (quartile distance over median)
    is wider than the bound, so the runs cannot tell.

Per-layer metrics carry no bound and get no verdict.  Exits 1 when any
metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

from common import BENCHMARK_JSON

Runs = Dict[Tuple[str, str], List[float]]


def load(paths: List[str]) -> Runs:
    """``(workload, metric) -> values`` over every result file under ``paths``."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".json") and ".seed" in name
            )
        else:
            files.append(path)
    runs: Runs = {}
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            outcome = json.load(handle)
        for metric, cell in outcome["metrics"].items():
            runs.setdefault((outcome["workload"], metric), []).append(float(cell["value"]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, mid, q3 = quartiles(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_mid, new_mid = quartiles(base)[1], quartiles(new)[1]
    loss = (new_mid - base_mid) if better == "lower" else (base_mid - new_mid)
    return "worse" if loss > bound * abs(base_mid) else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="result files or directories")
    parser.add_argument("--new", nargs="+", required=True, help="result files or directories")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    bounded = {entry["name"]: entry for entry in declared["end_to_end"]}
    order = [entry["name"] for entry in declared["end_to_end"] + declared["per_layer"]]
    base, new = load(args.base), load(args.new)
    worse = 0
    print(f"{'workload':18s} {'metric':48s} {'base q1/median/q3':>38s} "
          f"{'new q1/median/q3':>38s}  verdict")
    for workload in declared["workloads"]:
        for metric in order:
            key = (workload["name"], metric)
            if key not in base or key not in new:
                continue
            cells = ["/".join(f"{v:.5g}" for v in quartiles(side[key])) for side in (base, new)]
            entry = bounded.get(metric)
            outcome = (
                verdict(base[key], new[key], entry["better"], entry["bound"]) if entry else "-"
            )
            worse += outcome == "worse"
            print(f"{key[0]:18s} {metric:48s} {cells[0]:>38s} {cells[1]:>38s}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
