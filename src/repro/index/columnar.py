"""Columnar (struct-of-arrays) view of the query-side inverted index.

The scalar :class:`~repro.index.query_index.QueryIndex` keeps one Python
object per posting list and leaves thresholds to the result store; every
probe therefore pays Python-level dispatch per posting.  This module packs
the same information into term-partitioned contiguous columns so a probe is
a handful of array operations:

* slot addressing: every registered query owns one slot of the shared
  :class:`~repro.queries.store.QueryStore` — the engine's only slot table,
  whose per-slot columns (``query id``, ``S_k`` threshold) an engine masks
  in one vectorized comparison — and every posting here carries that slot;
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
private when standalone) so the index keeps no per-query state of its own.
The store never moves a live query's slot and hands a freed slot to the
next registration, so clean terms' columns stay valid forever and a
membership change only ever touches the terms of the query that changed.

The columns are numpy arrays (numpy is a declared dependency of the
package); only the per-term membership lists are plain :mod:`array` arrays,
because they grow by single appends and bisect inserts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import UnknownQueryError
from repro.queries.query import Query
from repro.queries.store import QueryStore
from repro.types import QueryId, TermId


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
        csr = index.global_view()             # every term, one CSR
    """

    def __init__(self, zone_size: int = 64, store: Optional[QueryStore] = None) -> None:
        if zone_size <= 0:
            raise ValueError(f"zone_size must be > 0, got {zone_size}")
        self.zone_size = zone_size
        #: Shared definition store the packed columns pull slots and weights
        #: from.  An owning engine passes its store (definitions registered
        #: there already, duplicates rejected there); a standalone index
        #: owns a private one and registers definitions itself.
        self.store = store if store is not None else QueryStore()
        self._owns_store = store is None
        #: Per-term ID-ordered membership (qid column only; weights live in
        #: the store and are joined in at rebuild time).
        self._term_qids: Dict[TermId, array] = {}
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

    @property
    def num_live(self) -> int:
        return len(self.store)

    @property
    def num_terms(self) -> int:
        return len(self._term_qids)

    # ------------------------------------------------------------------ #
    # Registration / unregistration
    # ------------------------------------------------------------------ #

    def register(self, query: Query) -> int:
        """Add ``query``; returns the store slot its postings address."""
        if self._owns_store:
            slot = self.store.register(query)
        else:
            slot = self.store.slot_of(query.query_id)
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
        """Remove ``query`` from its terms' membership."""
        if query.query_id not in self.store:
            raise UnknownQueryError(f"query {query.query_id} is not registered")
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
            self.store.unregister(query.query_id)

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
            slot_of = self.store.slot_of
            weight_of = self.store.weight_of
            postings = TermPostings(
                term_id,
                qids=list(members),
                slots=[slot_of(qid) for qid in members],
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
        probe, not a rebuild over every registered term.  A splice spends
        about four times a rebuild's Python work per term it touches
        (measured: 10 000 of 10 000 terms changed, 60-98 ms spliced against
        13-17 ms rebuilt), so once a burst has changed more than a quarter
        of the terms the columns are rebuilt instead; the two produce
        bit-identical columns.
        """
        if self._global is not None and not self._global_changed:
            return self._global
        if self._global is None or 4 * len(self._global_changed) > len(self._global[0]):
            self._rebuild_global()
        else:
            self._splice_global()
        return self._global

    def _rebuild_global(self) -> None:
        """Full CSR construction (first build, or most terms changed)."""
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
