"""Columnar (struct-of-arrays) view of the query-side inverted index.

The scalar :class:`~repro.index.query_index.QueryIndex` keeps one Python
object per posting list and leaves thresholds to the result store; every
probe therefore pays Python-level dispatch per posting.  This module packs
the same information into term-partitioned contiguous columns so a probe is
a handful of array operations:

* a global *slot* space: every registered query owns one slot, and the
  per-slot columns (``query id``, ``S_k`` threshold) are flat arrays an
  engine can mask in one vectorized comparison;
* per term, parallel ``(query id, slot, weight)`` columns sorted by query
  id — the same ID-ordered layout the paper's posting lists use, but
  addressable as array slices;
* per term, *zone* metadata: zone-boundary offsets every ``zone_size``
  entries and the maximum preference weight inside each zone.  Zone maxima
  are threshold-independent, so they stay exact under threshold churn; the
  per-term maximum (the RIO-style document bound) is derived from them.

Mutations follow an amortized rebuild discipline: registrations and
unregistrations update per-term ID-ordered membership arrays and mark the
touched terms dirty; a term's packed columns are rebuilt lazily on next
access, pulling weights from the shared
:class:`~repro.queries.store.QueryStore` (passed in by the owning engine,
private when standalone) so the index keeps no per-query dict of its own.
Unregistration tombstones the query's slot, and the slot space is
compacted (densely reassigned) once more than half the slots are dead, so
long churn storms cannot leak memory.

The columns are numpy arrays (numpy is a declared dependency of the
package); only the per-term membership lists are plain :mod:`array` arrays,
because they grow by single appends and bisect inserts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.queries.query import Query
from repro.queries.store import QueryStore, SlotMap
from repro.types import QueryId, TermId

INF = float("inf")

#: Fraction of dead slots that triggers a compaction of the slot space.
COMPACT_DEAD_FRACTION = 0.5
#: Never compact below this many dead slots (avoids thrashing tiny indexes).
COMPACT_MIN_DEAD = 32


def _id_column(values: List[int]):
    """Pack query ids / slots as a contiguous signed-64 column."""
    return np.asarray(values, dtype=np.int64)


def _float_column(values: List[float]):
    """Pack weights / bounds as a contiguous float64 column."""
    return np.asarray(values, dtype=np.float64)


class TermPostings:
    """The packed columns of one term, plus its zone metadata.

    ``qids``/``slots``/``weights`` are parallel columns sorted by query id.
    ``zone_offsets[i]`` is the first entry position of zone ``i`` (zone ``i``
    covers positions ``[zone_offsets[i], zone_offsets[i+1])``, the last zone
    runs to ``len(qids)``); ``zone_max_weights[i]`` is the maximum preference
    weight inside zone ``i`` and ``max_weight`` the maximum over all zones.
    """

    __slots__ = (
        "term_id",
        "qids",
        "slots",
        "weights",
        "zone_offsets",
        "zone_max_weights",
        "max_weight",
    )

    def __init__(
        self,
        term_id: TermId,
        qids: List[QueryId],
        slots: List[int],
        weights: List[float],
        zone_size: int,
    ) -> None:
        self.term_id = term_id
        self.qids = _id_column(qids)
        self.slots = _id_column(slots)
        self.weights = _float_column(weights)
        offsets = list(range(0, len(qids), zone_size))
        self.zone_offsets = _id_column(offsets)
        zone_maxima = [
            max(weights[start : start + zone_size]) for start in offsets
        ]
        self.zone_max_weights = _float_column(zone_maxima)
        # Derived through the zones on purpose: the zone maxima are the
        # structure under test, and the document-level bound must never be
        # tighter than what they certify.
        self.max_weight = max(zone_maxima) if zone_maxima else 0.0

    def __len__(self) -> int:
        return len(self.qids)

    def zone_of(self, position: int) -> int:
        """Index of the zone containing entry ``position``."""
        if position < 0 or position >= len(self.qids):
            raise IndexError(f"position {position} out of range")
        lo, hi = 0, len(self.zone_offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.zone_offsets[mid] <= position:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def zone_bound(self, zone: int) -> float:
        """The maximum preference weight certified for ``zone``."""
        return self.zone_max_weights[zone]


class ColumnarQueryIndex:
    """Slot-addressed, term-partitioned packed view of the query index.

    Example::

        index = ColumnarQueryIndex()
        index.register(query)
        postings = index.term(term_id)        # packed columns or None
        thresholds = index.thresholds_view()  # per-slot S_k column
    """

    def __init__(self, zone_size: int = 64, store: Optional[QueryStore] = None) -> None:
        if zone_size <= 0:
            raise ValueError(f"zone_size must be > 0, got {zone_size}")
        self.zone_size = zone_size
        #: Shared definition store the packed columns pull weights from.  An
        #: owning engine passes its store (definitions registered there
        #: already); a standalone index owns a private one and registers
        #: definitions itself.
        self._store = store if store is not None else QueryStore()
        self._owns_store = store is None
        #: Per-term ID-ordered membership (qid column only; weights live in
        #: the store and are joined in at rebuild time).
        self._term_qids: Dict[TermId, array] = {}
        self._slot_map = SlotMap()
        #: Per-slot columns; positions >= ``size`` are unused capacity.
        self._slot_qids = _id_column([])
        self._slot_thresholds = _float_column([])
        self.size = 0
        self.dead = 0
        self._dirty: set = set()
        self._term_arrays: Dict[TermId, TermPostings] = {}
        #: Cached concatenated CSR over every term (see :meth:`global_view`).
        #: Maintained *incrementally*: membership changes record only the
        #: touched term ids (``_global_changed``); the next
        #: :meth:`global_view` splices fresh spans for exactly those terms
        #: into the cached columns with array slicing — clean terms' data
        #: moves as contiguous memcpy, never through a Python loop — so a
        #: churn storm interleaved with ingest pays O(changed terms) Python
        #: work per probe instead of a rebuild over every term.
        self._global: Optional[Tuple] = None
        self._global_lengths = None  # per-term span lengths, CSR order
        self._global_changed: set = set()

    # ------------------------------------------------------------------ #
    # Slot bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def num_live(self) -> int:
        return len(self._slot_map)

    @property
    def num_terms(self) -> int:
        return len(self._term_qids)

    @property
    def capacity(self) -> int:
        return len(self._slot_qids)

    def slot_of(self, query_id: QueryId) -> int:
        slot = self._slot_map.get(query_id)
        if slot is None:
            raise UnknownQueryError(f"query {query_id} is not registered")
        return slot

    def _grow(self, minimum: int) -> None:
        capacity = max(len(self._slot_qids), 16)
        while capacity < minimum:
            capacity *= 2
        qids = np.full(capacity, -1, dtype=np.int64)
        qids[: self.size] = self._slot_qids[: self.size]
        thresholds = np.full(capacity, INF, dtype=np.float64)
        thresholds[: self.size] = self._slot_thresholds[: self.size]
        self._slot_qids = qids
        self._slot_thresholds = thresholds

    # ------------------------------------------------------------------ #
    # Registration / unregistration
    # ------------------------------------------------------------------ #

    def register(self, query: Query) -> int:
        """Add ``query``; returns the slot it was assigned."""
        if query.query_id in self._slot_map:
            raise DuplicateQueryError(f"query {query.query_id} is already registered")
        if self._owns_store:
            self._store.register(query)
        if self.size >= len(self._slot_qids):
            self._grow(self.size + 1)
        slot = self.size
        self.size += 1
        self._slot_qids[slot] = query.query_id
        self._slot_thresholds[slot] = 0.0
        self._slot_map.set(query.query_id, slot)
        for term_id in query.vector:
            members = self._term_qids.get(term_id)
            if members is None:
                members = self._term_qids[term_id] = array("q")
            if not members or query.query_id > members[-1]:
                members.append(query.query_id)
            else:
                insort(members, query.query_id)
            self._dirty.add(term_id)
            self._global_changed.add(term_id)
        return slot

    def unregister(self, query: Query) -> None:
        """Remove ``query``, tombstoning its slot (compacting when due)."""
        slot = self._slot_map.pop(query.query_id)
        if slot is None:
            raise UnknownQueryError(f"query {query.query_id} is not registered")
        self._slot_qids[slot] = -1
        self._slot_thresholds[slot] = INF
        self.dead += 1
        for term_id in query.vector:
            members = self._term_qids.get(term_id)
            if members is None:
                continue
            position = bisect_left(members, query.query_id)
            if position < len(members) and members[position] == query.query_id:
                members.pop(position)
            if members:
                self._dirty.add(term_id)
            else:
                del self._term_qids[term_id]
                self._dirty.discard(term_id)
                self._term_arrays.pop(term_id, None)
            self._global_changed.add(term_id)
        if self._owns_store:
            self._store.unregister(query.query_id)
        if (
            self.dead >= COMPACT_MIN_DEAD
            and self.dead > self.size * COMPACT_DEAD_FRACTION
        ):
            self.compact()

    def compact(self) -> None:
        """Densely reassign slots, dropping every tombstone.

        Every term's packed columns reference slot positions, so compaction
        marks all terms dirty; they rebuild lazily against the new slot map.
        """
        live: List[Tuple[QueryId, float]] = [
            (int(self._slot_qids[slot]), float(self._slot_thresholds[slot]))
            for slot in range(self.size)
            if self._slot_qids[slot] >= 0
        ]
        self._slot_map.clear()
        for slot, (qid, _) in enumerate(live):
            self._slot_map.set(qid, slot)
        self.size = len(live)
        self.dead = 0
        self._slot_qids = _id_column([qid for qid, _ in live])
        self._slot_thresholds = _float_column([thr for _, thr in live])
        self._dirty.update(self._term_qids.keys())
        self._term_arrays.clear()
        # Slots moved for every term: the spliced CSR cache is useless.
        self._global = None
        self._global_lengths = None
        self._global_changed.clear()

    # ------------------------------------------------------------------ #
    # Packed column access
    # ------------------------------------------------------------------ #

    def term(self, term_id: TermId) -> Optional[TermPostings]:
        """The packed columns of ``term_id``, rebuilt if stale; ``None``
        when no registered query uses the term."""
        members = self._term_qids.get(term_id)
        if members is None:
            return None
        postings = self._term_arrays.get(term_id)
        if postings is None or term_id in self._dirty:
            slot_map = self._slot_map
            weight_of = self._store.weight_of
            postings = TermPostings(
                term_id,
                qids=list(members),
                slots=[slot_map.get(qid) for qid in members],
                weights=[weight_of(qid, term_id) for qid in members],
                zone_size=self.zone_size,
            )
            self._term_arrays[term_id] = postings
            self._dirty.discard(term_id)
        return postings

    def global_view(self) -> Tuple:
        """One CSR over *every* term's packed columns, ID-ordered by term.

        Returns ``(term_keys, starts, ends, slot_col, weight_col,
        max_weights)``: ``term_keys`` is the sorted term-id column;
        term ``term_keys[i]`` owns positions ``[starts[i], ends[i])`` of the
        concatenated ``slot_col``/``weight_col`` columns (each term's span
        sorted by query id, as in :meth:`term`); ``max_weights[i]`` is that
        term's maximum preference weight.  This is what the vectorized probe
        joins a whole batch against without any per-term Python dispatch.
        Maintained incrementally: membership changes are *spliced* into the
        cached columns — only the changed terms' spans are rebuilt in
        Python, everything between them moves as contiguous array slices —
        so a churn storm interleaved with ingest costs O(changed terms) per
        probe, not a rebuild over every registered term.
        """
        if self._global is not None and not self._global_changed:
            return self._global
        if self._global is None:
            self._rebuild_global()
        else:
            self._splice_global()
        return self._global

    def _rebuild_global(self) -> None:
        """Full CSR construction (first build, post-compaction)."""
        self._global_changed.clear()
        term_keys = sorted(self._term_qids)
        lengths: List[int] = []
        max_weights: List[float] = []
        slot_parts = []
        weight_parts = []
        for term_id in term_keys:
            postings = self.term(term_id)
            lengths.append(len(postings))
            slot_parts.append(postings.slots)
            weight_parts.append(postings.weights)
            max_weights.append(postings.max_weight)
        if slot_parts:
            slot_col = np.concatenate(slot_parts)
            weight_col = np.concatenate(weight_parts)
        else:
            slot_col = _id_column([])
            weight_col = _float_column([])
        starts: List[int] = []
        ends: List[int] = []
        position = 0
        for length in lengths:
            starts.append(position)
            position += length
            ends.append(position)
        self._global_lengths = lengths
        self._global = (
            _id_column(term_keys),
            _id_column(starts),
            _id_column(ends),
            slot_col,
            weight_col,
            _float_column(max_weights),
        )

    def _splice_global(self) -> None:
        """Splice the changed terms' spans into the cached CSR columns.

        Walks the (sorted) changed term ids once; stretches of *clean*
        terms between them are carried over as whole array slices.  The
        result is bit-identical to a full rebuild — only data movement
        differs.
        """
        changed = sorted(self._global_changed)
        self._global_changed.clear()
        old_keys, old_starts, _, old_slot_col, old_weight_col, old_maxw = self._global
        old_lengths = self._global_lengths
        total = len(old_slot_col)
        num_old = len(old_keys)

        key_pieces, len_pieces, maxw_pieces = [], [], []
        slot_pieces, weight_pieces = [], []
        cursor = 0  # index into old_keys: everything before it is emitted
        for term_id in changed:
            index = int(np.searchsorted(old_keys, term_id))
            if index > cursor:  # carry the clean stretch [cursor, index)
                key_pieces.append(old_keys[cursor:index])
                len_pieces.append(old_lengths[cursor:index])
                maxw_pieces.append(old_maxw[cursor:index])
                col_lo = int(old_starts[cursor])
                col_hi = int(old_starts[index]) if index < num_old else total
                slot_pieces.append(old_slot_col[col_lo:col_hi])
                weight_pieces.append(old_weight_col[col_lo:col_hi])
            present_before = index < num_old and int(old_keys[index]) == term_id
            if term_id in self._term_qids:  # replaced or inserted span
                postings = self.term(term_id)
                key_pieces.append([term_id])
                len_pieces.append([len(postings)])
                maxw_pieces.append([postings.max_weight])
                slot_pieces.append(postings.slots)
                weight_pieces.append(postings.weights)
            cursor = index + 1 if present_before else index
        if cursor < num_old:  # trailing clean stretch
            key_pieces.append(old_keys[cursor:])
            len_pieces.append(old_lengths[cursor:])
            maxw_pieces.append(old_maxw[cursor:])
            col_lo = int(old_starts[cursor])
            slot_pieces.append(old_slot_col[col_lo:total])
            weight_pieces.append(old_weight_col[col_lo:total])

        lengths = [int(length) for piece in len_pieces for length in piece]
        starts: List[int] = []
        ends: List[int] = []
        position = 0
        for length in lengths:
            starts.append(position)
            position += length
            ends.append(position)
        if slot_pieces:
            slot_col = np.concatenate(slot_pieces)
            weight_col = np.concatenate(weight_pieces)
        else:
            slot_col = _id_column([])
            weight_col = _float_column([])
        self._global_lengths = lengths
        self._global = (
            np.concatenate([np.asarray(piece, dtype=np.int64) for piece in key_pieces])
            if key_pieces
            else _id_column([]),
            _id_column(starts),
            _id_column(ends),
            slot_col,
            weight_col,
            np.concatenate(
                [np.asarray(piece, dtype=np.float64) for piece in maxw_pieces]
            )
            if maxw_pieces
            else _float_column([]),
        )

    def term_ids(self) -> List[TermId]:
        return list(self._term_qids.keys())

    def iter_terms(self) -> Iterator[TermPostings]:
        for term_id in list(self._term_qids.keys()):
            postings = self.term(term_id)
            if postings is not None:
                yield postings

    def qids_view(self):
        """The per-slot query-id column for slots ``[0, size)`` (-1 = dead)."""
        return self._slot_qids[: self.size]

    def thresholds_view(self):
        """The per-slot ``S_k`` column for slots ``[0, size)``.

        A *view*: engines may write accepted-offer thresholds straight
        through it.  Dead slots hold ``+inf`` so a vectorized
        ``score > threshold`` mask can never select them.
        """
        return self._slot_thresholds[: self.size]

    # ------------------------------------------------------------------ #
    # Threshold maintenance
    # ------------------------------------------------------------------ #

    def set_threshold(self, query_id: QueryId, threshold: float) -> None:
        self._slot_thresholds[self.slot_of(query_id)] = threshold

    def scale_thresholds(self, factor: float) -> None:
        """Divide every live threshold by ``factor`` (decay renormalization).

        Bitwise-identical to re-reading each scaled result heap: the heaps
        divide every stored score by the same factor, and IEEE-754 division
        is deterministic.  Dead slots hold ``+inf``, which the division
        leaves at ``+inf``.
        """
        self._slot_thresholds[: self.size] /= factor

    def refresh_thresholds(self, threshold_of) -> None:
        """Reload every live slot's threshold via ``threshold_of(query_id)``
        (snapshot restore, where thresholds may move in both directions)."""
        qids = self._slot_qids
        for slot in range(self.size):
            qid = qids[slot]
            if qid >= 0:
                self._slot_thresholds[slot] = threshold_of(int(qid))

    def min_live_threshold(self) -> float:
        """The smallest live ``S_k`` (``+inf`` when no query is live).

        A document whose amplified upper bound is at or below this value
        cannot enter any top-k, which is the vectorized document-level
        prune.
        """
        if self.size == 0 or not len(self._slot_map):
            return INF
        return float(self._slot_thresholds[: self.size].min())
