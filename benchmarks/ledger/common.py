"""Shared helpers of the ledger benchmark: paths, statistics, /proc readers.

Nothing here imports ``repro``: the process-lifecycle code in
:mod:`procs` and the result comparison in :mod:`compare` must work before
(and without) the package under test being importable.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pathlib
import platform
import sys
from typing import Dict, Iterable, List, Optional, Sequence

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = LEDGER_DIR / "out"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


def ensure_importable() -> None:
    """Put ``src/`` on ``sys.path`` and in ``PYTHONPATH`` for child processes.

    The contract's command names no file outside the benchmark directory,
    so the runner finds the package under test itself.  Exits non-zero —
    without printing a result — when the package is not there (the
    benchmark run in a directory that holds only its own files).
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"ledger: the package under test is missing ({SRC_DIR}/repro); "
            "run from a checkout of the repository\n"
        )
        raise SystemExit(2)
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")


@contextlib.contextmanager
def gc_paused():
    """A timed window: collect first, then keep the collector off inside."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quiet_median(values: Sequence[float]) -> float:
    """The median of the quietest third of a series of timings.

    The series is cut into three consecutive thirds, each third gives its
    median, and the smallest is reported.  Interference on a shared host
    only ever adds time, and it comes in bursts of seconds: unpinned
    medians over a 10 s window moved by 30–40 % between runs when a
    neighbour was busy, while some third of every window was clean.  A
    real regression slows all three thirds, so it still shows.  Fewer than
    six samples are reported as their plain median.
    """
    if len(values) < 6:
        return median(values)
    third = len(values) // 3
    parts = (values[:third], values[third : 2 * third], values[2 * third :])
    return min(median(part) for part in parts)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the base is zero (layer idle)."""
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------- #
# /proc readers
# ---------------------------------------------------------------------- #


def _status_field(pid: int, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` in bytes (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


def rss_bytes(pid: Optional[int] = None) -> int:
    """Resident set size of ``pid`` (default: this process)."""
    return _status_field(os.getpid() if pid is None else pid, "VmRSS")


def peak_rss_bytes(pid: Optional[int] = None) -> int:
    """High-water resident set size of ``pid`` (default: this process)."""
    return _status_field(os.getpid() if pid is None else pid, "VmHWM")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name may contain spaces and parentheses; it ends at the
    # last ')'.
    return text[text.rfind(")") + 2 :].split()


def process_table() -> Dict[int, Dict[str, object]]:
    """``pid -> {state, ppid, sid}`` for every process visible in /proc."""
    table: Dict[int, Dict[str, object]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is None or len(fields) < 4:
            continue
        table[int(name)] = {
            "state": fields[0],
            "ppid": int(fields[1]),
            "sid": int(fields[3]),
        }
    return table


def descendants(root: int, table: Optional[Dict[int, Dict[str, object]]] = None) -> List[int]:
    """Every live descendant of ``root`` (zombies excluded), any depth."""
    table = process_table() if table is None else table
    children: Dict[int, List[int]] = {}
    for pid, info in table.items():
        children.setdefault(int(info["ppid"]), []).append(pid)  # type: ignore[arg-type]
    found: List[int] = []
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            if table[child]["state"] != "Z":
                found.append(child)
            frontier.append(child)
    return found


def session_members(sids: Iterable[int]) -> List[int]:
    """Live (non-zombie) processes whose session id is one of ``sids``."""
    wanted = set(sids)
    return [
        pid
        for pid, info in process_table().items()
        if info["sid"] in wanted and info["state"] != "Z"
    ]


def host_fingerprint() -> Dict[str, object]:
    """What the numbers were measured on (recorded in every result file)."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships with the toolchain
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
    }
