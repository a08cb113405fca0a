"""In-memory spans recorded from the benchmark's own files.

A span is ``(name, layer, start, end, parent, batch)``: one call into a
layer's public function, the span that caused it, and the id of the
ingestion batch (or membership op) it belongs to.  Spans are kept in a
list and written out when the run ends; nothing in ``src/`` is
instrumented — :meth:`Tracer.wrap` patches a layer's public function from
the outside for the lifetime of a traced run.

A layer's *self time* is its spans' durations minus the part their child
spans cover.  Wrapped functions only record while a benchmark-opened span
is on the stack, so work outside the timed windows (input generation, the
output check) never appears in the ledger.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter
from typing import Dict, List, Optional, Tuple


class _Span:
    """Context manager recording one span (re-entrant via the tracer stack)."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self.tracer
        tracer.spans[self.index][3] = perf_counter()
        tracer.stack.pop()


class _NoSpan:
    """Shared no-op context manager of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class Tracer:
    """Span recorder; ``Tracer(enabled=False)`` costs one branch per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, layer, start, end, parent index or -1, batch id or -1]``.
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: Wrapped functions record only under a benchmark-opened span (the
        #: timed window).  The server child has no such window — every call
        #: it serves is load — and clears this.
        self.require_parent = True
        self.batch = -1
        #: ``(owner, attr, original, traced, group)`` of every wrap.
        self._patches: List[Tuple[object, str, object, object, str]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def span(self, name: str, layer: str):
        if not self.enabled:
            return _NO_SPAN
        stack = self.stack
        index = len(self.spans)
        self.spans.append(
            [name, layer, perf_counter(), 0.0, stack[-1] if stack else -1, self.batch]
        )
        stack.append(index)
        return _Span(self, index)

    def wrap(self, owner: object, attr: str, layer: str, group: str = "") -> None:
        """Patch ``owner.attr`` so calls made under an open span record one.

        ``owner`` is a class (methods) or a module (functions looked up as
        module attributes at call time).  Wraps of a named ``group`` start
        out *not* installed: a workload whose calls are very frequent
        (membership bursts) installs them with :meth:`sample` around a fixed
        1-in-N sample of operations only, so the rest run unpatched, and
        scales the sampled split back up itself.  :meth:`unwrap_all` undoes
        everything.
        """
        if not self.enabled:
            return
        original = getattr(owner, attr)
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.require_parent and not tracer.stack:
                return original(*args, **kwargs)
            with tracer.span(label, layer):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original, traced, group))
        if not group:
            setattr(owner, attr, traced)

    def sample(self, group: str, installed: bool) -> None:
        """Install (or remove) the wraps of ``group``."""
        for owner, attr, original, traced, name in self._patches:
            if name == group:
                setattr(owner, attr, traced if installed else original)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original, _traced, _group = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def mark(self) -> int:
        """Position in the span list (pair with :meth:`self_times`)."""
        return len(self.spans)

    def self_times(
        self, start: int = 0, end: Optional[int] = None, under: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-layer self time in seconds of spans ``[start, end)``.

        With ``under``, only spans named ``under`` and their descendants
        count — how a workload reads the layer split of its sampled
        operations apart from everything else in the window.
        """
        spans = self.spans[start:end]
        child_time = [0.0] * len(spans)
        inside = [under is None] * len(spans)
        for offset, (name, _layer, began, ended, parent, _batch) in enumerate(spans):
            local = parent - start
            if 0 <= local < len(spans):
                child_time[local] += ended - began
                inside[offset] = inside[local]
            if name == under:
                inside[offset] = True
        totals: Dict[str, float] = {}
        for offset, (_name, layer, began, ended, _parent, _batch) in enumerate(spans):
            if inside[offset]:
                own = max(0.0, (ended - began) - child_time[offset])
                totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def durations(self, name: str, start: int = 0, end: Optional[int] = None) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [s[3] - s[2] for s in self.spans[start:end] if s[0] == name]

    def dump(self, path, extra: Optional[Dict[str, object]] = None) -> None:
        """Write the spans (and any foreign span lists in ``extra``) as JSON."""
        origin = self.spans[0][2] if self.spans else 0.0
        payload: Dict[str, object] = {
            "fields": ["name", "layer", "start_s", "end_s", "parent", "batch"],
            "spans": [
                [name, layer, began - origin, ended - origin, parent, batch]
                for name, layer, began, ended, parent, batch in self.spans
            ],
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
