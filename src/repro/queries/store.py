"""Packed, interned store of registered query definitions.

The paper's motivating regime is *millions* of registered continuous
queries.  Holding one Python ``dict`` vector plus one boxed
:class:`~repro.queries.query.Query` object per query costs several hundred
bytes each before any index structure exists, which caps a single process
far below the paper's scale.  This module packs every registered query into
flat columns instead:

* an **interned term vocabulary**: every distinct term id is assigned a
  dense ``tid`` once, stable for the lifetime of the store (the packed
  per-query spans reference tids, so vectors sharing terms share vocabulary
  entries);
* per-slot columns — int64 query ids, int32 ``k``, span offsets and *the*
  float64 threshold column holding every query's last propagated ``S_k``.
  This slot table is the engine's only one: the columnar index addresses
  its postings by these slots and the vectorized probe reads and writes
  the threshold column through a view, so the id and threshold columns are
  numpy-backed (doubling growth) and a free slot reads ``-1`` / ``+inf``
  — a ``min`` or a ``score > threshold`` mask over the whole column needs
  no liveness test;
* one contiguous **term/weight heap** holding every query's ``(tid,
  weight)`` span *in original vector order* (the iteration order of a
  query's vector is load-bearing: the canonical summation contract and the
  persistence codec both preserve it);
* a **free-list** of slots: unregistration frees the slot for the next
  registration, so slot-table width is bounded by the peak live count
  and no slot ever moves; only the heap spans of freed slots are
  tombstoned and rebuilt amortizedly.

No ``Query`` object is retained: registration copies the definition into
the columns and drops the object; readers *materialize* transient
:class:`Query` objects (via :meth:`Query.trusted`, skipping re-validation
of vectors that were validated when first registered) only on cold paths.

:class:`RegisteredQueries` is a read-only :class:`~collections.abc.Mapping`
facade (``query id -> materialized Query``) that keeps the historical
``algorithm.queries`` dict surface working unchanged, and :class:`SlotMap`
is the store's dense-first ``query id -> slot`` map.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as _MappingABC
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.queries.query import Query
from repro.types import QueryId, TermId

#: Rebuild the packed term/weight heap once at least this many entries are
#: dead *and* dead entries outnumber half the live ones (churn storms
#: cannot leak heap memory while tiny stores never thrash).
HEAP_COMPACT_MIN_DEAD = 1024
HEAP_COMPACT_DEAD_FRACTION = 0.5

_ID_TYPECODE = "q"  # packed signed 64-bit
_TID_TYPECODE = "l" if array("l").itemsize == 4 else "i"  # 32-bit dense tids
_K_TYPECODE = _TID_TYPECODE
_K_DTYPE = np.dtype(f"i{array(_K_TYPECODE).itemsize}")
_WEIGHT_TYPECODE = "d"  # float64 — weights must round-trip bit-exactly
_INF = float("inf")


class SlotMap:
    """``query id -> slot`` map, direct-addressed while ids stay dense.

    The registry assigns dense small integers, so the common case is an
    int64 array indexed by query id (8 bytes per query, no per-entry dict
    overhead).  Ids too large for the dense region — beyond
    ``max(1024, 8 * (live + 1))`` — fall back to a sparse dict, so a stray
    huge id cannot balloon the array.
    """

    __slots__ = ("_dense", "_sparse", "_live")

    _DENSE_FLOOR = 1024

    def __init__(self) -> None:
        self._dense: array = array(_ID_TYPECODE)
        self._sparse: Dict[QueryId, int] = {}
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __contains__(self, query_id: QueryId) -> bool:
        return self.get(query_id) is not None

    def get(self, query_id: QueryId) -> Optional[int]:
        if 0 <= query_id < len(self._dense):
            slot = self._dense[query_id]
            return slot if slot >= 0 else None
        return self._sparse.get(query_id)

    def set(self, query_id: QueryId, slot: int) -> None:
        dense = self._dense
        if 0 <= query_id < len(dense):
            if dense[query_id] < 0:
                self._live += 1
            dense[query_id] = slot
            return
        if 0 <= query_id < max(self._DENSE_FLOOR, 8 * (self._live + 1)):
            grow_to = max(query_id + 1, 2 * len(dense))
            dense.extend([-1] * (grow_to - len(dense)))
            if self._sparse:
                # The dense region now covers ids that lived in the sparse
                # fallback; migrate them or lookups would see the -1 shadow.
                for covered in [q for q in self._sparse if 0 <= q < grow_to]:
                    dense[covered] = self._sparse.pop(covered)
            if dense[query_id] < 0:
                self._live += 1
            dense[query_id] = slot
        else:
            if query_id not in self._sparse:
                self._live += 1
            self._sparse[query_id] = slot

    def pop(self, query_id: QueryId) -> Optional[int]:
        if 0 <= query_id < len(self._dense):
            slot = self._dense[query_id]
            if slot < 0:
                return None
            self._dense[query_id] = -1
            self._live -= 1
            return slot
        slot = self._sparse.pop(query_id, None)
        if slot is not None:
            self._live -= 1
        return slot

    def nbytes(self) -> int:
        """Approximate resident size of the map's payload."""
        return len(self._dense) * self._dense.itemsize + 64 * len(self._sparse)


class QueryStore:
    """Columnar single source of truth for registered query definitions.

    Example::

        store = QueryStore()
        slot = store.register(query)
        store.vector_of(query.query_id)   # dict in original vector order
        store.unregister(query.query_id)  # frees the slot for reuse
    """

    __slots__ = (
        "_tid_of_term",
        "_term_of_tid",
        "_slot_qids",
        "_slot_ks",
        "_slot_starts",
        "_slot_lengths",
        "_slot_thresholds",
        "_heap_terms",
        "_heap_weights",
        "_heap_dead",
        "_free_slots",
        "_slot_map",
        "_users",
    )

    def __init__(self) -> None:
        # Interned vocabulary: term id <-> dense tid.  A tid, once assigned,
        # is stable for the lifetime of the store (interning stability).
        self._tid_of_term: Dict[TermId, int] = {}
        self._term_of_tid: array = array(_ID_TYPECODE)
        # Per-slot columns; the table is ``len(self._slot_ks)`` slots wide.
        # The qid and threshold columns are numpy buffers (positions past
        # the width are spare capacity) because the columnar probe masks
        # them whole; a free slot holds qid -1 / threshold +inf until reused.
        self._slot_qids = np.empty(0, dtype=np.int64)
        self._slot_thresholds = np.empty(0, dtype=np.float64)
        self._slot_ks: array = array(_K_TYPECODE)
        self._slot_starts: array = array(_ID_TYPECODE)
        self._slot_lengths: array = array(_K_TYPECODE)
        # Contiguous (tid, weight) spans, one per live slot, vector order.
        self._heap_terms: array = array(_TID_TYPECODE)
        self._heap_weights: array = array(_WEIGHT_TYPECODE)
        self._heap_dead = 0
        self._free_slots: List[int] = []
        self._slot_map = SlotMap()
        # Sparse side table: only queries with a non-None user label.
        self._users: Dict[QueryId, str] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slot_map)

    def __contains__(self, query_id: QueryId) -> bool:
        return self._slot_map.get(query_id) is not None

    def slot_of(self, query_id: QueryId) -> int:
        slot = self._slot_map.get(query_id)
        if slot is None:
            raise UnknownQueryError(f"query {query_id} is not registered")
        return slot

    def find_slot(self, query_id: QueryId) -> Optional[int]:
        """:meth:`slot_of`, but ``None`` for an unregistered query."""
        return self._slot_map.get(query_id)

    def query_ids(self) -> Iterator[QueryId]:
        """Live query ids in ascending slot order (deterministic for a
        given operation history, independent of id magnitudes)."""
        qids = self.qids_view()
        return iter(qids[qids >= 0].tolist())

    # ------------------------------------------------------------------ #
    # Registration / unregistration
    # ------------------------------------------------------------------ #

    def intern(self, term_id: TermId) -> int:
        """The dense tid of ``term_id``, assigned on first use."""
        tid = self._tid_of_term.get(term_id)
        if tid is None:
            tid = len(self._term_of_tid)
            self._tid_of_term[term_id] = tid
            self._term_of_tid.append(term_id)
        return tid

    def register(self, query: Query) -> int:
        """Pack ``query`` into the columns; returns the slot it occupies.

        The ``Query`` object itself is *not* retained.  The vector's
        iteration order is preserved in the packed span.
        """
        query_id = query.query_id
        if self._slot_map.get(query_id) is not None:
            raise DuplicateQueryError(f"query {query_id} is already registered")
        heap_terms = self._heap_terms
        heap_weights = self._heap_weights
        start = len(heap_terms)
        tid_of = self._tid_of_term
        for term_id, weight in query.vector.items():
            tid = tid_of.get(term_id)
            if tid is None:
                tid = len(self._term_of_tid)
                tid_of[term_id] = tid
                self._term_of_tid.append(term_id)
            heap_terms.append(tid)
            heap_weights.append(weight)
        length = len(heap_terms) - start
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_ks[slot] = query.k
            self._slot_starts[slot] = start
            self._slot_lengths[slot] = length
        else:
            slot = len(self._slot_ks)
            if slot == len(self._slot_qids):
                self._grow_slot_columns()
            self._slot_ks.append(query.k)
            self._slot_starts.append(start)
            self._slot_lengths.append(length)
        self._slot_qids[slot] = query_id
        self._slot_thresholds[slot] = 0.0
        self._slot_map.set(query_id, slot)
        if query.user is not None:
            self._users[query_id] = query.user
        return slot

    def _grow_slot_columns(self) -> None:
        """Double the numpy-backed columns; spare capacity reads as free."""
        width = self.capacity
        capacity = max(16, 2 * width)
        qids = np.full(capacity, -1, dtype=np.int64)
        qids[:width] = self._slot_qids
        thresholds = np.full(capacity, _INF, dtype=np.float64)
        thresholds[:width] = self._slot_thresholds
        self._slot_qids = qids
        self._slot_thresholds = thresholds

    def unregister(self, query_id: QueryId) -> None:
        """Free the query's slot (reused by the next registration) and
        tombstone its heap span (compacted amortizedly)."""
        slot = self._slot_map.pop(query_id)
        if slot is None:
            raise UnknownQueryError(f"query {query_id} is not registered")
        self._slot_qids[slot] = -1
        self._slot_thresholds[slot] = _INF
        self._heap_dead += self._slot_lengths[slot]
        self._free_slots.append(slot)
        self._users.pop(query_id, None)
        if (
            self._heap_dead >= HEAP_COMPACT_MIN_DEAD
            and self._heap_dead
            > (len(self._heap_terms) - self._heap_dead) * HEAP_COMPACT_DEAD_FRACTION
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Rewrite the term/weight heap keeping only live spans.

        Slot identities are untouched (only span offsets move), so nothing
        outside the store needs to know a compaction happened.
        """
        old_terms = self._heap_terms
        old_weights = self._heap_weights
        new_terms: array = array(_TID_TYPECODE)
        new_weights: array = array(_WEIGHT_TYPECODE)
        starts = self._slot_starts
        lengths = self._slot_lengths
        for slot in np.flatnonzero(self.qids_view() >= 0).tolist():
            start = starts[slot]
            end = start + lengths[slot]
            starts[slot] = len(new_terms)
            new_terms.extend(old_terms[start:end])
            new_weights.extend(old_weights[start:end])
        self._heap_terms = new_terms
        self._heap_weights = new_weights
        self._heap_dead = 0

    # ------------------------------------------------------------------ #
    # Definition access
    # ------------------------------------------------------------------ #

    def k_of(self, query_id: QueryId) -> int:
        return self._slot_ks[self.slot_of(query_id)]

    def user_of(self, query_id: QueryId) -> Optional[str]:
        return self._users.get(query_id)

    def num_terms_of(self, query_id: QueryId) -> int:
        return self._slot_lengths[self.slot_of(query_id)]

    def items_of(self, query_id: QueryId) -> List[Tuple[TermId, float]]:
        """``(term id, weight)`` pairs in original vector order."""
        slot = self.slot_of(query_id)
        start = self._slot_starts[slot]
        end = start + self._slot_lengths[slot]
        term_of = self._term_of_tid
        terms = self._heap_terms
        weights = self._heap_weights
        return [(term_of[terms[pos]], weights[pos]) for pos in range(start, end)]

    def vector_of(self, query_id: QueryId) -> Dict[TermId, float]:
        """The query's sparse vector as a fresh dict, original order."""
        slot = self.slot_of(query_id)
        start = self._slot_starts[slot]
        end = start + self._slot_lengths[slot]
        term_of = self._term_of_tid
        terms = self._heap_terms
        weights = self._heap_weights
        return {term_of[terms[pos]]: weights[pos] for pos in range(start, end)}

    def weight_of(self, query_id: QueryId, term_id: TermId) -> float:
        """Preference weight of ``term_id`` (0 when the query lacks it)."""
        tid = self._tid_of_term.get(term_id)
        if tid is None:
            return 0.0
        slot = self.slot_of(query_id)
        start = self._slot_starts[slot]
        terms = self._heap_terms
        for pos in range(start, start + self._slot_lengths[slot]):
            if terms[pos] == tid:
                return self._heap_weights[pos]
        return 0.0

    def materialize(self, query_id: QueryId) -> Query:
        """A transient :class:`Query` built from the packed definition.

        Uses :meth:`Query.trusted`: the vector was validated when first
        registered, so re-validating (and re-walking) it here would be
        wasted work on every access.
        """
        return Query.trusted(
            query_id=query_id,
            vector=self.vector_of(query_id),
            k=self._slot_ks[self.slot_of(query_id)],
            user=self._users.get(query_id),
        )

    def materialize_or_none(self, query_id: QueryId) -> Optional[Query]:
        """:meth:`materialize`, but ``None`` instead of raising."""
        if self._slot_map.get(query_id) is None:
            return None
        return self.materialize(query_id)

    # ------------------------------------------------------------------ #
    # Slot columns the vectorized probe masks whole
    # ------------------------------------------------------------------ #

    def qids_view(self):
        """The per-slot query-id column for slots ``[0, capacity)`` (-1 = free)."""
        return self._slot_qids[: self.capacity]

    def thresholds_view(self):
        """The per-slot ``S_k`` column for slots ``[0, capacity)``.

        A *view*, valid until the next registration: the columnar probe
        takes it at the top of each call and writes accepted-offer
        thresholds straight through it.  Free slots hold ``+inf``, so a
        vectorized ``score > threshold`` mask can never select them and the
        column's ``min`` is the smallest live ``S_k``.
        """
        return self._slot_thresholds[: self.capacity]

    def ks_at(self, slots: np.ndarray) -> np.ndarray:
        """The ``k`` of each slot in ``slots`` (an int64 index array)."""
        # The temporary view releases its buffer export at once, so the
        # array.array stays appendable.
        return np.frombuffer(self._slot_ks, dtype=_K_DTYPE)[slots]

    def set_threshold(self, query_id: QueryId, threshold: float) -> None:
        """Record the query's newly propagated ``S_k``."""
        self._slot_thresholds[self.slot_of(query_id)] = threshold

    def threshold_of(self, query_id: QueryId) -> float:
        return float(self._slot_thresholds[self.slot_of(query_id)])

    def scale_thresholds(self, factor: float) -> None:
        """Divide every threshold by ``factor`` (decay rebase).

        The same IEEE-754 division the result heaps apply to every stored
        score, so the column stays bitwise equal to re-reading each heap;
        free slots stay at ``+inf``.
        """
        self._slot_thresholds /= factor

    def refresh_thresholds(self, threshold_of) -> None:
        """Reload every live threshold via ``threshold_of(query_id)``
        (snapshot restore, where thresholds may move in both directions)."""
        qids = self.qids_view()
        live = np.flatnonzero(qids >= 0)
        self._slot_thresholds[live] = [threshold_of(qid) for qid in qids[live].tolist()]

    # ------------------------------------------------------------------ #
    # Introspection (benchmarks, property tests)
    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Slot-table width (bounded by the peak live count)."""
        return len(self._slot_ks)

    @property
    def free_slot_count(self) -> int:
        return len(self._free_slots)

    @property
    def heap_size(self) -> int:
        return len(self._heap_terms)

    @property
    def heap_dead(self) -> int:
        return self._heap_dead

    @property
    def vocabulary_size(self) -> int:
        return len(self._term_of_tid)

    def nbytes(self) -> int:
        """Approximate resident payload of the packed columns.

        Counts the columns' used width (spare capacity — array
        over-allocation, the numpy columns' doubling headroom — is not
        payload) plus a nominal per-entry cost for the two side dicts
        (vocabulary and sparse slots); used by the scale bench to report
        bytes/query from the store's own accounting next to RSS.
        """
        arrays = (
            self._term_of_tid,
            self._slot_ks,
            self._slot_starts,
            self._slot_lengths,
            self._heap_terms,
            self._heap_weights,
        )
        total = sum(len(column) * column.itemsize for column in arrays)
        total += self.qids_view().nbytes + self.thresholds_view().nbytes
        total += 64 * (len(self._tid_of_term) + len(self._users))
        total += 8 * len(self._free_slots)
        total += self._slot_map.nbytes()
        return total


class RegisteredQueries(_MappingABC):
    """Read-only dict-like facade over a :class:`QueryStore`.

    Keeps the historical ``algorithm.queries`` surface — ``in``, ``len``,
    ``[query_id]``, ``.get``, ``.values()``, ``dict(...)``, ``==`` against
    plain dicts — while the definitions live packed in the store.  Lookups
    materialize transient :class:`Query` objects; nothing is cached, so the
    facade adds no per-query memory.
    """

    __slots__ = ("_store",)

    def __init__(self, store: QueryStore) -> None:
        self._store = store

    def __getitem__(self, query_id: QueryId) -> Query:
        try:
            return self._store.materialize(query_id)
        except UnknownQueryError:
            raise KeyError(query_id) from None

    def get(self, query_id: QueryId, default: Optional[Query] = None) -> Optional[Query]:
        if self._store.__contains__(query_id):
            return self._store.materialize(query_id)
        return default

    def __contains__(self, query_id: object) -> bool:
        return isinstance(query_id, int) and query_id in self._store

    def __iter__(self) -> Iterator[QueryId]:
        return self._store.query_ids()

    def __len__(self) -> int:
        return len(self._store)

    def values(self):
        store = self._store
        return [store.materialize(query_id) for query_id in store.query_ids()]

    def items(self):
        store = self._store
        return [
            (query_id, store.materialize(query_id)) for query_id in store.query_ids()
        ]

    def keys(self):
        return list(self._store.query_ids())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, _MappingABC)):
            if len(other) != len(self._store):
                return False
            store = self._store
            for query_id, query in other.items():
                if query_id not in store or store.materialize(query_id) != query:
                    return False
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RegisteredQueries({len(self._store)} queries)"
