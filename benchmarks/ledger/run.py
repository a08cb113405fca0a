"""The ledger: one command that runs a named workload and prices its layers.

    python3 benchmarks/ledger/run.py --workload <name|all> --seed N [--trace 0|1]

Generates the workload's inputs from the seed, runs it, checks the outputs
against the scalar oracle, prints every metric as ``workload metric value
unit``, writes the same to ``benchmarks/ledger/out/`` as JSON, and ends
with one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` (alias ``--traced``) runs the workload twice — once plain as
the reference, once with spans and telemetry on — and reports the
per-layer metrics; the difference between the two runs is
``obs.tracing_overhead``.

Exit codes: 0 all good; 1 the output check failed; 2 the package under
test is missing; 3 stopped by a signal or the whole-run timeout; 4 a
process the run started was still alive after every attempt to stop it.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
from typing import Dict, List, Tuple

from common import BENCHMARK_JSON, OUT_DIR, ensure_importable, host_fingerprint, ratio

ensure_importable()

import engine  # noqa: E402
import sockets  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from procs import Lifecycle  # noqa: E402
from spans import Tracer  # noqa: E402

#: The layers of the interaction map (README.md), in pipeline order.
LAYERS = (
    "service.protocol", "core.columnar", "core.results",
    "queries.store", "index.columnar", "persistence.durable", "persistence.codec",
    "persistence.wal", "runtime.sharded", "runtime.procpool", "runtime.shm",
)
#: The whole command must end well inside the driver's 180 s.
RUN_TIMEOUT_S = 170
SMOKE_TIMEOUT_S = 60

Metric = Tuple[float, str]


class Interrupted(SystemExit):
    """Raised from signal handlers: unwinds through ``finally`` blocks (a
    ``SystemExit`` is not swallowed by asyncio's callback error handling)."""


def _on_signal(signum, _frame) -> None:
    raise Interrupted(3)


def run_workload(name: str, args, lifecycle: Lifecycle) -> Dict[str, object]:
    """Run one workload (twice when tracing) and assemble its metric pool."""

    def once(tracer: Tracer) -> Dict[str, object]:
        if name.startswith("engine"):
            return engine.run(name, args.seed, args.seconds, args.smoke, tracer,
                              corrupt_reference=args.corrupt_reference)
        return sockets.run(name, args.seed, args.seconds, args.smoke, tracer, lifecycle,
                           corrupt_reference=args.corrupt_reference)

    plain = once(Tracer(enabled=False))
    outcome: Dict[str, object] = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "host": host_fingerprint(),
        "end_to_end": plain["e2e"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "problems": plain["problems"],
        "samples": plain["samples"],
    }
    if not args.trace:
        return outcome

    tracer = Tracer(enabled=True)
    try:
        traced = once(tracer)
    finally:
        tracer.unwrap_all()  # the workload installs the wraps; they end here
    layers: Dict[str, Metric] = {**traced["layers"], **plain.get("memory_layers", {})}
    wall = float(traced["wall_seconds"])
    for layer in LAYERS:
        layers[f"{layer}.self_share"] = (
            ratio(traced["self_seconds"].get(layer, 0.0), wall), "ratio")
    layers["ledger.unaccounted_share"] = (ratio(traced["unaccounted_seconds"], wall), "ratio")
    layers["obs.tracing_overhead"] = (
        1.0 - ratio(traced["e2e"]["events_per_s"][0], plain["e2e"]["events_per_s"][0]), "ratio")
    outcome["per_layer"] = layers
    outcome["traced_end_to_end"] = traced["e2e"]
    outcome["attempted"] += traced["attempted"]
    outcome["failed"] += traced["failed"]
    outcome["problems"] = outcome["problems"] + traced["problems"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    extra = {"workload": name, "seed": args.seed, "self_seconds": traced["self_seconds"]}
    if "server_trace" in traced:
        extra["server"] = traced["server_trace"]
    tracer.dump(OUT_DIR / f"{name}.trace.json", extra=extra)
    return outcome


def select(pool: Dict[str, Metric], declared: List[Dict[str, str]], where: str) -> Dict[str, Dict]:
    """The declared metrics of one kind, in ``BENCHMARK.json`` order.

    A per-layer metric a workload has no value for reads 0 (its layer does
    nothing there); an end-to-end metric must always be measured.
    """
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in pool:
            value = float(pool[name][0])
        elif where == "per_layer":
            value = 0.0
        else:
            raise SystemExit(f"ledger: end-to-end metric {name!r} was not measured")
        if not math.isfinite(value):
            raise SystemExit(f"ledger: metric {name!r} is not finite ({value!r})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument(
        "--seconds", type=float, default=float(declared["run_seconds"]),
        help="nominal length of the timed part; scales the fixed event counts "
             f"(default: {declared['run_seconds']}, the length BENCHMARK.json fixes)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run, per-layer metrics (default: 0)")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed counts, for the tests (numbers are meaningless)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: damage the oracle's answer; the run must fail")
    args = parser.parse_args(argv)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _on_signal)
    if args.workload == "all":
        return run_all(args)
    signal.alarm(SMOKE_TIMEOUT_S if args.smoke else RUN_TIMEOUT_S)

    lifecycle = Lifecycle()
    outcome = None
    status = 0
    try:
        outcome = run_workload(args.workload, args, lifecycle)
    except Interrupted as stop:
        sys.stderr.write("ledger: interrupted (signal or whole-run timeout)\n")
        status = int(stop.code or 3)
    finally:
        signal.alarm(0)
        survivors = lifecycle.close()
        sessions = [child.session for child in lifecycle.children]
        sys.stderr.write(f"ledger: sessions {json.dumps(sessions)} stopped\n")
    if survivors:
        sys.stderr.write(f"ledger: processes still alive after teardown: {survivors}\n")
        return 4
    if status or outcome is None:
        return status or 3

    name = outcome["workload"]
    kind = "per_layer" if args.trace else "end_to_end"
    pool = dict(outcome["end_to_end"])
    if args.trace:
        pool = {**outcome["traced_end_to_end"], **outcome["per_layer"]}
    chosen = select(pool, declared[kind], kind)
    shown = dict(select(outcome["end_to_end"], declared["end_to_end"], "end_to_end"))
    if args.trace:
        shown.update(chosen)
    for metric, cell in shown.items():
        print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}")
    print(f"{name} failed_share {ratio(outcome['failed'], outcome['attempted']):.6g} ratio")
    for problem in outcome["problems"][:10]:
        print(f"{name} CHECK FAILED: {problem}")
    outcome["metrics"] = shown
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.seed{args.seed}.trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": chosen,
    }))
    return 0 if outcome["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload, each in a fresh runner process.

    A fresh process per workload keeps RSS deltas attributable (a second
    workload in the same interpreter would grow into memory the first one
    freed) and gives each its own whole-run timeout.  The last line merges
    the workloads' result lines, metric names prefixed by the workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--smoke"] if args.smoke else []
        command += ["--corrupt-reference"] if args.corrupt_reference else []
        runner = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            lines = runner.stdout.read().splitlines()
            runner.wait()
        except Interrupted:
            # The sub-runner owns its children: pass the signal on, let it
            # tear them down, and only then leave.
            runner.send_signal(signal.SIGTERM)
            try:
                runner.wait(60)
            except subprocess.TimeoutExpired:
                runner.kill()
                runner.wait()
            return 3
        for line in lines[:-1]:
            print(line)
        if runner.returncode not in (0, 1) or not lines:
            return runner.returncode or 3
        status = max(status, runner.returncode)
        final = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and final["correct"]
        merged["attempted"] += final["attempted"]
        merged["failed"] += final["failed"]
        for metric, cell in final["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = cell
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
