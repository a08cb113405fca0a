"""Process lifecycle: no process started by the benchmark outlives it.

The server child is a ``subprocess.Popen`` of ``server_child.py`` in its
own session (``start_new_session=True``) — not a daemonic
``multiprocessing.Process``, because daemons may not spawn the procpool
workers the durable workload needs.  Three independent mechanisms stop it:

1. the runner asks it to stop over its stdin and waits;
2. the child exits by itself when its stdin reaches EOF (the runner died);
3. the runner ``killpg``s the child's session in a ``finally`` and from
   its SIGTERM/SIGINT/SIGALRM handlers, then polls ``/proc`` until no
   process of that session, and no descendant of the runner, remains.

:func:`Lifecycle.close` returns the pids that survived all three; the
runner exits non-zero naming them.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import LEDGER_DIR, OUT_DIR, descendants, session_members

SHM_DIR = "/dev/shm"
#: Name prefix of the procpool's shared-memory ring (``runtime/shm.py``).
RING_PREFIX = "repro-ring-"


class ChildError(RuntimeError):
    """The server child died, hung past its deadline, or answered garbage."""


def split_cpus():
    """``(generator cpus, system-under-test cpus)`` — disjoint when possible.

    The load generator is a component separate from the system under test
    and must not compete with it: the runner keeps the first CPU it may
    use, the child (and every worker it forks) gets the others.  On the
    2-vCPU build host this also keeps every server↔worker wakeup on one
    CPU; cross-vCPU wakeups there cost an IPI whose latency swings with
    the host's load and made whole runs differ by 25 %.  With a single
    usable CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class ServerChild:
    """One ``server_child.py`` process driven over stdin/stdout JSON lines."""

    def __init__(self, lifecycle: "Lifecycle", spec: Dict[str, object], timeout: float) -> None:
        self.timeout = timeout
        self._buffer = b""
        stderr_path = os.path.join(lifecycle.tmp_dir, f"child-{len(lifecycle.children)}.stderr")
        self._stderr = open(stderr_path, "wb")
        self.stderr_path = stderr_path
        started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, str(LEDGER_DIR / "server_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
            cwd=str(LEDGER_DIR),
        )
        lifecycle.children.append(self)
        os.sched_setaffinity(self.process.pid, lifecycle.child_cpus)
        #: The child leads its own session: its pid is the session id.
        self.session = self.process.pid
        self.ready = self.request(spec)
        #: Seconds from process creation to the child's first answer.
        self.ready_s = time.monotonic() - started

    def _read_line(self, timeout: float) -> Dict[str, object]:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        assert stdout is not None
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"server child gave no answer within {timeout:.0f}s")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(stdout.fileno(), 1 << 16)
            if not chunk:
                raise ChildError(
                    "server child exited unexpectedly: " + self.stderr_tail()
                )
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        answer = json.loads(line)
        if isinstance(answer, dict) and answer.get("error"):
            raise ChildError(f"server child failed: {answer['error']}")
        return answer

    def request(
        self, message: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """Send one command line, return the child's one-line JSON answer."""
        stdin = self.process.stdin
        assert stdin is not None
        try:
            stdin.write(json.dumps(message).encode("utf-8") + b"\n")
            stdin.flush()
        except OSError as exc:
            raise ChildError(f"server child is gone ({exc}): " + self.stderr_tail()) from exc
        return self._read_line(self.timeout if timeout is None else timeout)

    def stop(self, ids: Optional[List[int]] = None) -> Dict[str, object]:
        """Graceful stop: final report (with the top-k of ``ids``), then
        wait for the process to exit."""
        report = self.request({"cmd": "stop", "ids": ids or []})
        try:
            self.process.wait(self.timeout)
        except subprocess.TimeoutExpired as exc:
            raise ChildError("server child did not exit after stop") from exc
        if self.process.returncode != 0:
            raise ChildError(
                f"server child exited with code {self.process.returncode}: " + self.stderr_tail()
            )
        return report

    def stderr_tail(self) -> str:
        try:
            self._stderr.flush()
            with open(self.stderr_path, "rb") as handle:
                return handle.read()[-2000:].decode("utf-8", "replace")
        except OSError:
            return ""

    def release(self) -> None:
        """Close our ends of the pipes (stdin EOF is the child's watchdog)."""
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        self._stderr.close()


class Lifecycle:
    """Owns everything a run creates outside its own process."""

    def __init__(self) -> None:
        self.children: List[ServerChild] = []
        self.tmp_dir = str(OUT_DIR / f"tmp-{os.getpid()}")
        os.makedirs(self.tmp_dir, exist_ok=True)
        self._shm_before = set(self._ring_segments())
        self._closed = False
        self._cpus_before = os.sched_getaffinity(0)
        self.generator_cpus, self.child_cpus = split_cpus()

    def pin_generator(self) -> None:
        """Confine this process (the load generator) to its own CPU."""
        os.sched_setaffinity(0, self.generator_cpus)

    def unpin_generator(self) -> None:
        os.sched_setaffinity(0, self._cpus_before)

    @staticmethod
    def _ring_segments() -> List[str]:
        try:
            return [name for name in os.listdir(SHM_DIR) if name.startswith(RING_PREFIX)]
        except OSError:
            return []

    def start_child(self, spec: Dict[str, object], timeout: float) -> ServerChild:
        return ServerChild(self, spec, timeout)

    def close(self, grace: float = 5.0) -> List[int]:
        """Stop everything, remove everything; returns surviving pids."""
        if self._closed:
            return []
        self._closed = True
        sessions = [child.session for child in self.children]
        for child in self.children:
            child.release()
        me = os.getpid()

        def alive() -> List[int]:
            return sorted(set(session_members(sessions)) | set(descendants(me)))

        # Graceful first: stdin EOF makes a healthy child close its monitor
        # (workers, shared memory) and exit on its own.
        deadline = time.monotonic() + grace
        while alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not alive():
                break
            for session in sessions:
                try:
                    os.killpg(session, sig)
                except (ProcessLookupError, PermissionError):
                    pass
            for pid in descendants(me):
                try:
                    os.kill(pid, sig)
                except (ProcessLookupError, PermissionError):
                    pass
            deadline = time.monotonic() + grace
            while alive() and time.monotonic() < deadline:
                time.sleep(0.02)
        for child in self.children:
            try:
                child.process.wait(0.5)
            except subprocess.TimeoutExpired:
                pass
        for name in set(self._ring_segments()) - self._shm_before:
            try:
                os.unlink(os.path.join(SHM_DIR, name))
            except OSError:
                pass
        shutil.rmtree(self.tmp_dir, ignore_errors=True)
        return alive()
