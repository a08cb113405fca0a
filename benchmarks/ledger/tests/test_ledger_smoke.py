"""Smoke test of the ledger benchmark (tiny counts; numbers are meaningless).

Checks the harness, not the system: every metric ``BENCHMARK.json`` names
is printed with a finite value on all four workloads, the output check
passes — and fails when the reference is corrupted — and no process the
runner started survives it, including when it is sent SIGTERM mid-run.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

LEDGER = pathlib.Path(__file__).resolve().parent.parent
REPO = LEDGER.parent.parent
RUN = [sys.executable, str(LEDGER / "run.py")]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]


def _run(*args, timeout=120):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=timeout, cwd=str(REPO)
    )


def _processes():
    """``pid -> (ppid, session id)`` of every live, non-zombie process."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            text = pathlib.Path(f"/proc/{name}/stat").read_text()
        except OSError:
            continue
        fields = text[text.rfind(")") + 2 :].split()
        if fields[0] != "Z":
            table[int(name)] = (int(fields[1]), int(fields[3]))
    return table


def _sessions(stderr: str):
    reported = re.findall(r"ledger: sessions (\[.*?\])", stderr)
    assert reported, f"runner did not report its child sessions:\n{stderr}"
    return {session for listing in reported for session in json.loads(listing)}


def _assert_no_survivors(stderr: str, runner_pid=None):
    sessions = _sessions(stderr)
    left = {
        pid: info
        for pid, info in _processes().items()
        if info[1] in sessions or info[0] == runner_pid
    }
    assert not left, f"processes outlived the runner: {left}"


def _printed(stdout: str):
    """``(workload, metric) -> value`` from the ``workload metric value unit`` lines."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            values[(parts[0], parts[1])] = float(parts[2])
    return values


def test_every_declared_metric_is_printed_and_outputs_check():
    result = _run("--workload", "all", "--smoke", "--seed", "5", "--trace", "1")
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    printed = _printed(result.stdout)
    names = [e["name"] for e in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    for workload in WORKLOADS:
        for name in names:
            assert (workload, name) in printed, f"{workload} did not print {name}"
            assert math.isfinite(printed[(workload, name)])
        assert printed[(workload, "failed_share")] == 0.0
        assert (LEDGER / "out" / f"{workload}.trace.json").is_file()
    for entry in DECLARED["end_to_end"]:
        for workload in WORKLOADS:
            assert printed[(workload, entry["name"])] > 0.0, (workload, entry["name"])
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    # Layers that only the durable pipeline exercises read 0 everywhere else.
    for (workload, name), value in printed.items():
        if name.startswith(("persistence.", "runtime.")) and workload != "durable_pipeline":
            assert value == 0.0, (workload, name, value)
    for name in (
        "persistence.durable.journal_tax",
        "persistence.codec.wal_bytes_per_event",
        "runtime.procpool.fanout_tax",
        "runtime.shm.payload_bytes_per_event",
    ):
        assert printed[("durable_pipeline", name)] > 0.0, name
    _assert_no_survivors(result.stderr)


def test_contract_line_holds_exactly_the_end_to_end_metrics():
    result = _run("--workload", "engine_scale", "--smoke", "--seed", "6", "--trace", "0")
    assert result.returncode == 0, result.stderr[-2000:]
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert list(final["metrics"]) == [e["name"] for e in DECLARED["end_to_end"]]
    for entry in DECLARED["end_to_end"]:
        assert final["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_corrupted_reference_fails_the_command():
    result = _run("--workload", "engine_churn", "--smoke", "--seed", "5", "--corrupt-reference")
    assert result.returncode == 1
    assert "CHECK FAILED" in result.stdout
    final = json.loads(result.stdout.strip().splitlines()[-1])
    assert final["correct"] is False and final["failed"] > 0


def test_sigterm_mid_run_leaves_no_process():
    runner = subprocess.Popen(
        RUN + ["--workload", "durable_pipeline", "--smoke", "--seed", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=str(REPO),
    )
    try:
        deadline = time.monotonic() + 30
        # Wait until the server child (and its two procpool workers) are up.
        while time.monotonic() < deadline:
            mine = [pid for pid, info in _processes().items() if info[0] == runner.pid]
            workers = [
                pid for pid, info in _processes().items() if mine and info[0] == mine[0]
            ]
            if len(workers) >= 2:
                break
            assert runner.poll() is None, "runner finished before it could be interrupted"
            time.sleep(0.01)
        runner.send_signal(signal.SIGTERM)
        _, stderr = runner.communicate(timeout=60)
    finally:
        if runner.poll() is None:
            runner.kill()
    assert runner.returncode == 3, stderr[-2000:]
    _assert_no_survivors(stderr, runner_pid=runner.pid)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    result = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "engine_scale",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
