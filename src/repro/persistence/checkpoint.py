"""Full and incremental checkpoints of encoded engine snapshots.

A checkpoint pins the engine state *as of* one WAL position: restoring the
checkpoint and replaying every WAL record with a larger LSN reproduces the
live state exactly.  Checkpoints are taken from the in-memory snapshot
hooks (PR 2) between events — capturing a snapshot is pure dict/list
assembly, so ingestion is never stopped, only briefly interleaved with the
file write.

Two kinds exist:

* **full** — the whole encoded snapshot;
* **incremental** — a delta against the previous checkpoint (full or
  incremental): queries added/removed, per-query result heaps that
  changed, the always-small decay/counters/clock scalars, and the live
  expiration window as a drop-prefix/append-suffix delta (the window only
  ever expires from the front and grows at the back).

Files are named ``ckpt-<lsn>-<kind>.json``, written atomically (temp file +
``os.replace``) and CRC-framed like WAL records, so a torn checkpoint is
detected and skipped, never half-loaded.  Loading walks the newest valid
chain: the latest full checkpoint plus every consecutive valid incremental
after it.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.exceptions import CorruptRecordError, PersistenceError
from repro.persistence.codec import CODEC_VERSION, pack_line, unpack_line
from repro.persistence.wal import atomic_write

_PREFIX = "ckpt-"
_FULL = "full"
_INCR = "incr"


def _file_name(lsn: int, kind: str) -> str:
    return f"{_PREFIX}{lsn:020d}-{kind}.json"


def _parse_name(name: str) -> Optional[Tuple[int, str]]:
    if not name.startswith(_PREFIX) or not name.endswith(".json"):
        return None
    stem = name[len(_PREFIX) : -len(".json")]
    try:
        lsn_text, kind = stem.split("-", 1)
        return int(lsn_text), kind
    except ValueError:
        return None


def _index_results(encoded_state: Dict[str, object]) -> Dict[int, object]:
    return {int(query_id): result for query_id, result in encoded_state["results"]}  # type: ignore[union-attr]


def _index_queries(encoded_state: Dict[str, object]) -> Dict[int, object]:
    return {int(query["i"]): query for query in encoded_state["queries"]}  # type: ignore[index, union-attr]


def _expiration_delta(
    base: Optional[Dict[str, object]], new: Optional[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    """Delta between two encoded expiration windows (None = no window)."""
    if new is None:
        return None
    if base is None:
        return {"full": new}
    base_live: List[object] = base["live"]  # type: ignore[assignment]
    new_live: List[object] = new["live"]  # type: ignore[assignment]
    if not base_live:
        return {"horizon": new["horizon"], "dropped": 0, "appended": new_live}
    if not new_live:
        return {"horizon": new["horizon"], "dropped": len(base_live), "appended": []}
    # The window is a queue: the new window is a suffix of the old one plus
    # newly observed documents.  Locate the old position of the new head.
    head = new_live[0]
    for dropped, doc in enumerate(base_live):
        if doc == head:
            overlap = len(base_live) - dropped
            if new_live[:overlap] == base_live[dropped:]:
                return {
                    "horizon": new["horizon"],
                    "dropped": dropped,
                    "appended": new_live[overlap:],
                }
            break
    # The suffix property did not hold (it always should); fall back to a
    # full window copy rather than guessing.
    return {"full": new}


def _apply_expiration_delta(
    base: Optional[Dict[str, object]], delta: Optional[Dict[str, object]]
) -> Optional[Dict[str, object]]:
    if delta is None:
        return None
    if "full" in delta:
        return delta["full"]  # type: ignore[return-value]
    live: List[object] = [] if base is None else list(base["live"])  # type: ignore[arg-type]
    dropped = int(delta["dropped"])  # type: ignore[arg-type]
    return {
        "horizon": delta["horizon"],
        "live": live[dropped:] + list(delta["appended"]),  # type: ignore[arg-type]
    }


class CheckpointManager:
    """Writes, chains and reloads checkpoints for one engine.

    Example::

        manager = CheckpointManager(directory)
        manager.write(encoded_state, lsn=wal.last_lsn, full=True)
        ...
        loaded = manager.load_latest()
        if loaded is not None:
            encoded_state, lsn = loaded
    """

    def __init__(self, directory: str, fsync: bool = True) -> None:
        self.directory = directory
        #: Whether checkpoint renames are fsynced to survive an OS crash
        #: (matches ``DurabilityConfig.fsync``; file contents always are).
        self.fsync = fsync
        os.makedirs(directory, exist_ok=True)
        #: Encoded state as of the last checkpoint (diff base for the next
        #: incremental); populated by :meth:`write` and :meth:`load_latest`.
        self._last_state: Optional[Dict[str, object]] = None
        self._last_lsn = 0

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    def write(self, encoded_state: Dict[str, object], lsn: int, full: bool) -> str:
        """Persist one checkpoint; returns the file name written.

        Written full regardless of ``full`` when there is no diff base (the
        first checkpoint) or the decay origin moved since it: a rebase
        rescales every stored score, so a delta would be a full copy in
        disguise.
        """
        if self._last_state is None or self._last_state["decay"] != encoded_state["decay"]:
            full = True
        if full:
            payload: Dict[str, object] = {
                "version": CODEC_VERSION,
                "kind": _FULL,
                "lsn": lsn,
                "state": encoded_state,
            }
            name = _file_name(lsn, _FULL)
        else:
            payload = {
                "version": CODEC_VERSION,
                "kind": _INCR,
                "lsn": lsn,
                "base_lsn": self._last_lsn,
                "delta": self._delta(self._last_state, encoded_state),
            }
            name = _file_name(lsn, _INCR)
        atomic_write(
            os.path.join(self.directory, name),
            pack_line(payload),
            fsync_dir=self.fsync,
        )
        self._last_state = encoded_state
        self._last_lsn = lsn
        return name

    def _delta(
        self, base: Optional[Dict[str, object]], new: Dict[str, object]
    ) -> Dict[str, object]:
        assert base is not None
        base_queries = _index_queries(base)
        new_queries = _index_queries(new)
        base_results = _index_results(base)
        new_results = _index_results(new)
        return {
            "algorithm": new.get("algorithm"),
            # Compare by value, not id membership: a query unregistered and
            # re-registered under the same id between checkpoints changes
            # the definition behind an id the base also has.
            "queries_added": [
                query for query_id, query in sorted(new_queries.items())
                if base_queries.get(query_id) != query
            ],
            "queries_removed": sorted(
                query_id for query_id in base_queries if query_id not in new_queries
            ),
            "results_changed": [
                [query_id, result]
                for query_id, result in sorted(new_results.items())
                if base_results.get(query_id) != result
            ]
            + [
                # Engine snapshots omit empty heaps (emptiness is implied by
                # registration), so a heap that *became* empty since the base
                # — expiration can clear results — shows up as an absent key.
                # Spell the transition out; dropping it would resurrect the
                # base's stale entries on recovery.
                [query_id, {"k": new_queries[query_id]["k"], "heap": []}]
                for query_id in sorted(base_results)
                if query_id not in new_results
                and query_id in new_queries
                and base_results[query_id].get("heap")
            ],
            "decay": new["decay"],
            "counters": new["counters"],
            "last_arrival": new["last_arrival"],
            "expiration": _expiration_delta(
                base.get("expiration"), new.get("expiration")  # type: ignore[arg-type]
            ),
            # Structure captures are history, not per-query state: no
            # meaningful delta exists, so they travel whole (absent when the
            # algorithm does not capture structures).
            "structures": new.get("structures"),
        }

    @staticmethod
    def _apply_delta(
        base: Dict[str, object], delta: Dict[str, object]
    ) -> Dict[str, object]:
        queries = _index_queries(base)
        results = _index_results(base)
        for query_id in delta["queries_removed"]:  # type: ignore[union-attr]
            queries.pop(int(query_id), None)
            results.pop(int(query_id), None)
        for query in delta["queries_added"]:  # type: ignore[union-attr]
            queries[int(query["i"])] = query  # type: ignore[index]
        for query_id, result in delta["results_changed"]:  # type: ignore[union-attr]
            results[int(query_id)] = result
        state: Dict[str, object] = {
            "version": CODEC_VERSION,
            "algorithm": delta.get("algorithm", base.get("algorithm")),
            "queries": [query for _, query in sorted(queries.items())],
            "results": [[query_id, result] for query_id, result in sorted(results.items())],
            "decay": delta["decay"],
            "counters": delta["counters"],
            "last_arrival": delta["last_arrival"],
        }
        expiration = _apply_expiration_delta(
            base.get("expiration"), delta["expiration"]  # type: ignore[arg-type]
        )
        if expiration is not None:
            state["expiration"] = expiration
        if delta.get("structures") is not None:
            state["structures"] = delta["structures"]
        return state

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def _entries(self) -> List[Tuple[int, str, str]]:
        """(lsn, kind, file name) of every checkpoint file, LSN order."""
        entries = []
        for name in os.listdir(self.directory):
            parsed = _parse_name(name)
            if parsed is not None and parsed[1] in (_FULL, _INCR):
                entries.append((parsed[0], parsed[1], name))
        entries.sort()
        return entries

    def _read(self, name: str) -> Optional[Dict[str, object]]:
        try:
            with open(os.path.join(self.directory, name), "rb") as handle:
                payload = unpack_line(handle.read())
        except (OSError, CorruptRecordError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != CODEC_VERSION:
            raise PersistenceError(
                f"checkpoint codec version {payload.get('version')!r} is not supported"
            )
        return payload

    def load_latest(
        self, max_lsn: Optional[int] = None
    ) -> Optional[Tuple[Dict[str, object], int]]:
        """The newest reconstructible state and its LSN (None when empty).

        Walks backwards to the newest *valid* full checkpoint, then applies
        every consecutive valid incremental after it.  A corrupt or torn
        file ends the chain at the last state that can still be proven
        consistent.  ``max_lsn`` ignores newer checkpoints — the sharded
        facade uses it to hold every shard to the checkpoint round its
        commit marker proves complete.  The loaded state becomes the diff
        base for the next incremental written by this manager.
        """
        entries = self._entries()
        if max_lsn is not None:
            entries = [entry for entry in entries if entry[0] <= max_lsn]
        # Newest valid full checkpoint first.
        base_index = None
        base_payload = None
        for index in range(len(entries) - 1, -1, -1):
            lsn, kind, name = entries[index]
            if kind != _FULL:
                continue
            payload = self._read(name)
            if payload is not None and payload.get("kind") == _FULL:
                base_index = index
                base_payload = payload
                break
        if base_payload is None:
            return None
        state: Dict[str, object] = base_payload["state"]  # type: ignore[assignment]
        last_lsn = int(base_payload["lsn"])  # type: ignore[arg-type]
        assert base_index is not None
        for lsn, kind, name in entries[base_index + 1 :]:
            if kind != _INCR:
                # A newer full would have been picked as the base; an
                # unreadable newer full falls back here and its followers
                # cannot chain onto this base.
                break
            payload = self._read(name)
            if payload is None or int(payload.get("base_lsn", -1)) != last_lsn:  # type: ignore[arg-type]
                break
            state = self._apply_delta(state, payload["delta"])  # type: ignore[arg-type]
            last_lsn = int(payload["lsn"])  # type: ignore[arg-type]
        self._last_state = state
        self._last_lsn = last_lsn
        return state, last_lsn

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #

    def purge_newer(self, lsn: int) -> int:
        """Delete checkpoint files with a LSN past ``lsn``; returns count.

        Recovery calls this after it succeeds, with the commit marker's
        LSN: anything newer belongs to a crashed, rolled-back checkpoint
        round.  Left on disk, such an orphan could later splice itself
        into the incremental chain (a new incremental chains off the
        *committed* state, so its ``base_lsn`` skips the orphan, and
        ``load_latest`` would follow the orphan and then reject the real
        successor) — stranding a recovery behind WAL records that a later
        round already compacted away.
        """
        removed = 0
        for entry_lsn, _, name in self._entries():
            if entry_lsn > lsn:
                os.remove(os.path.join(self.directory, name))
                removed += 1
        return removed

    def prune(self) -> int:
        """Drop files older than the previous full checkpoint; returns count.

        Keeps the chain anchored at the newest full checkpoint plus — as a
        safety net against a torn newest full — everything back to the one
        before it.
        """
        entries = self._entries()
        fulls = [lsn for lsn, kind, _ in entries if kind == _FULL]
        if len(fulls) < 2:
            return 0
        cutoff = fulls[-2]
        removed = 0
        for lsn, _, name in entries:
            if lsn < cutoff:
                os.remove(os.path.join(self.directory, name))
                removed += 1
        return removed
