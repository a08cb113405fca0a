"""Property tests: the packed query store against a dict-based model.

:class:`~repro.queries.store.QueryStore` replaces one retained ``Query``
object + dict vector per registration with interned vocabulary, packed
per-slot columns and a contiguous term/weight heap.  These tests drive
random register/unregister churn through the store and an
obviously-correct dict model in lockstep, then check the contracts every
layer above relies on:

* the slot table is a bijection over live queries and agrees with the
  model's definitions (vectors in original order, ``k``, users, weights);
* freed slots are reused (LIFO) so the slot-table width is bounded by the
  peak live count, never the total registration count;
* the threshold column — the engine's only copy of the propagated ``S_k``
  — round-trips per slot, reads ``0.0`` on register and ``+inf`` once
  freed, so its plain ``min`` is the smallest live threshold, and scaling
  it is bitwise the scalar division;
* interning is stable: a term's dense tid never changes for the lifetime
  of the store, no matter how much churn or heap compaction happens;
* heap compaction moves spans but never changes any observable
  definition, and the amortized trigger keeps dead heap entries bounded;
* materialized definitions depend only on the live set, not on the
  operation history that produced it (layout independence) — which is
  what makes snapshot/restore through the store safe;
* the :class:`~repro.queries.store.RegisteredQueries` facade behaves like
  the dict it replaced.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.queries.query import Query
from repro.queries.store import (
    HEAP_COMPACT_MIN_DEAD,
    QueryStore,
    RegisteredQueries,
    SlotMap,
)
from repro.text.similarity import l2_normalize

from tests.helpers import sparse_vector_strategy


def make_query(query_id, term_weights, k, user=None):
    """Like :func:`tests.helpers.make_query` but with a user label."""
    return Query(
        query_id=query_id, vector=l2_normalize(term_weights), k=k, user=user
    )


@st.composite
def churn_sequences(draw):
    """Random unregister-heavy interleavings over a small population."""
    num_queries = draw(st.integers(min_value=1, max_value=60))
    vectors = [
        draw(sparse_vector_strategy(vocab_size=15, max_terms=4))
        for _ in range(num_queries)
    ]
    operations = []
    registered: list = []
    for query_id, vector in enumerate(vectors):
        k = draw(st.integers(min_value=1, max_value=5))
        user = draw(st.sampled_from([None, None, "alice", "bob"]))
        operations.append(("register", query_id, (vector, k, user)))
        registered.append(query_id)
        # Unregister-heavy: up to two departures per arrival.
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            if not registered:
                break
            victim = registered.pop(
                draw(st.integers(min_value=0, max_value=len(registered) - 1))
            )
            operations.append(("unregister", victim, None))
        if registered and draw(st.booleans()):
            target = registered[
                draw(st.integers(min_value=0, max_value=len(registered) - 1))
            ]
            threshold = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
            operations.append(("threshold", target, threshold))
    return operations


def _replay(operations):
    """Drive the store and the dict model through the same operations."""
    store = QueryStore()
    model = {}  # query_id -> (vector, k, user)
    thresholds = {}  # query_id -> last set S_k
    peak_live = 0
    for op, query_id, payload in operations:
        if op == "register":
            vector, k, user = payload
            query = make_query(query_id, vector, k=k, user=user)
            store.register(query)
            model[query_id] = (query.vector, k, user)  # normalized, as stored
            thresholds[query_id] = 0.0
            peak_live = max(peak_live, len(model))
        elif op == "unregister":
            store.unregister(query_id)
            del model[query_id]
            del thresholds[query_id]
        else:
            store.set_threshold(query_id, payload)
            thresholds[query_id] = payload
    _check_threshold_column(store, thresholds)
    return store, model, peak_live


def _check_threshold_column(store, thresholds):
    """The numpy views against ``query id -> S_k``: live slots round-trip,
    free slots read ``-1`` / ``+inf``, ``min`` needs no liveness test."""
    qids = store.qids_view()
    column = store.thresholds_view()
    assert len(qids) == len(column) == store.capacity
    for query_id, threshold in thresholds.items():
        slot = store.slot_of(query_id)
        assert int(qids[slot]) == query_id
        assert column[slot] == threshold
        assert store.threshold_of(query_id) == threshold
        assert type(store.threshold_of(query_id)) is float
    live_slots = {store.slot_of(query_id) for query_id in thresholds}
    for slot in range(store.capacity):
        if slot not in live_slots:
            assert int(qids[slot]) == -1
            assert column[slot] == math.inf
    if store.capacity:
        assert column.min() == min(thresholds.values(), default=math.inf)


def _check_against_model(store, model, peak_live):
    assert len(store) == len(model)
    # Bijection: every live query owns exactly one in-range slot.
    seen_slots = set()
    for query_id, (vector, k, user) in model.items():
        assert query_id in store
        slot = store.slot_of(query_id)
        assert 0 <= slot < store.capacity
        assert slot not in seen_slots, "two queries share a slot"
        seen_slots.add(slot)
        # Definitions round-trip, vector order preserved.
        assert store.vector_of(query_id) == vector
        assert list(store.items_of(query_id)) == list(vector.items())
        assert store.k_of(query_id) == k
        assert store.user_of(query_id) == user
        assert store.num_terms_of(query_id) == len(vector)
        for term_id, weight in vector.items():
            assert store.weight_of(query_id, term_id) == weight
        assert store.weight_of(query_id, 999_999) == 0.0
        materialized = store.materialize(query_id)
        assert materialized.query_id == query_id
        assert materialized.vector == vector
        assert materialized.k == k
        assert materialized.user == user
    assert sorted(store.query_ids()) == sorted(model)
    assert all(type(query_id) is int for query_id in store.query_ids())
    # Slot reuse bounds the table by the peak live count.
    assert store.capacity <= peak_live
    assert store.capacity == len(model) + store.free_slot_count
    # The amortized trigger keeps dead heap entries bounded.
    live_heap = store.heap_size - store.heap_dead
    assert not (
        store.heap_dead >= HEAP_COMPACT_MIN_DEAD
        and store.heap_dead > live_heap * 0.5
    ), f"heap compaction trigger violated: dead={store.heap_dead}"


class TestStoreMatchesDictModel:
    @settings(max_examples=60, deadline=None)
    @given(operations=churn_sequences())
    def test_random_churn_matches_dict_model(self, operations):
        store, model, peak_live = _replay(operations)
        _check_against_model(store, model, peak_live)

    @settings(max_examples=30, deadline=None)
    @given(operations=churn_sequences())
    def test_forced_heap_compaction_preserves_definitions(self, operations):
        store, model, peak_live = _replay(operations)
        before = {query_id: store.vector_of(query_id) for query_id in model}
        slots_before = {query_id: store.slot_of(query_id) for query_id in model}
        store._compact_heap()
        assert store.heap_dead == 0
        assert store.heap_size == sum(len(v) for v, _, _ in model.values())
        for query_id in model:
            # Spans moved; slot identities and definitions did not.
            assert store.slot_of(query_id) == slots_before[query_id]
            assert store.vector_of(query_id) == before[query_id]
        _check_against_model(store, model, peak_live)

    @settings(max_examples=30, deadline=None)
    @given(operations=churn_sequences())
    def test_interning_is_stable_across_churn(self, operations):
        """A term's dense tid is assigned once and never changes."""
        store = QueryStore()
        first_tid = {}
        for op, query_id, payload in operations:
            if op == "register":
                vector, k, user = payload
                store.register(make_query(query_id, vector, k=k, user=user))
                for term_id in vector:
                    tid = store.intern(term_id)
                    assert first_tid.setdefault(term_id, tid) == tid
            elif op == "unregister":
                store.unregister(query_id)
        store._compact_heap()
        for term_id, tid in first_tid.items():
            assert store.intern(term_id) == tid
        assert store.vocabulary_size == len(first_tid)

    @settings(max_examples=30, deadline=None)
    @given(operations=churn_sequences())
    def test_layout_independence(self, operations):
        """Materialized definitions depend only on the live set, not on
        the churn history that produced it — a store rebuilt from scratch
        (snapshot/restore) is observationally identical."""
        churned, model, _ = _replay(operations)
        rebuilt = QueryStore()
        for query_id in sorted(model):
            vector, k, user = model[query_id]  # already normalized
            rebuilt.register(Query(query_id=query_id, vector=vector, k=k, user=user))
        assert RegisteredQueries(churned) == RegisteredQueries(rebuilt)
        assert dict(RegisteredQueries(churned)) == dict(RegisteredQueries(rebuilt))
        for query_id in model:
            assert churned.materialize(query_id) == rebuilt.materialize(query_id)


class TestThresholdColumn:
    @settings(max_examples=30, deadline=None)
    @given(
        operations=churn_sequences(),
        factor=st.floats(min_value=1.0001, max_value=100.0, allow_nan=False),
    )
    def test_scaling_matches_scalar_division(self, operations, factor):
        """One vectorized divide == the heaps' per-score IEEE division;
        free slots stay ``+inf``."""
        store, model, _ = _replay(operations)
        before = {query_id: store.threshold_of(query_id) for query_id in model}
        store.scale_thresholds(factor)
        _check_threshold_column(
            store, {query_id: value / factor for query_id, value in before.items()}
        )

    @settings(max_examples=30, deadline=None)
    @given(operations=churn_sequences())
    def test_refresh_reloads_live_slots_only(self, operations):
        store, model, _ = _replay(operations)
        store.refresh_thresholds(lambda query_id: 10.0 + query_id)
        _check_threshold_column(
            store, {query_id: 10.0 + query_id for query_id in model}
        )

    def test_views_survive_growth_and_slot_reuse(self):
        """Doubling growth carries every threshold over; a reused slot
        starts again at 0.0; the numpy columns are counted by nbytes."""
        store = QueryStore()
        assert store.thresholds_view().shape == (0,)
        for query_id in range(40):  # crosses the 16- and 32-slot buffers
            store.register(make_query(query_id, {1: 1.0}, k=1))
            store.set_threshold(query_id, 1.0 + query_id)
        assert store.thresholds_view().tolist() == [1.0 + q for q in range(40)]
        store.unregister(7)
        assert store.thresholds_view()[7] == math.inf
        assert store.thresholds_view().min() == 1.0
        assert store.register(make_query(99, {1: 1.0}, k=1)) == 7
        assert store.thresholds_view()[7] == 0.0
        assert store.qids_view()[7] == 99
        # The probe writes S_k straight through the view.
        store.thresholds_view()[7] = 2.5
        assert store.threshold_of(99) == 2.5
        assert store.nbytes() >= 2 * 8 * store.capacity

    def test_empty_store(self):
        store = QueryStore()
        store.scale_thresholds(2.0)
        store.refresh_thresholds(lambda query_id: 1.0)
        assert list(store.query_ids()) == []
        assert store.capacity == 0


class TestFreeListAndHeap:
    def test_free_slots_reused_lifo(self):
        store = QueryStore()
        for query_id in range(6):
            store.register(make_query(query_id, {1: 1.0}, k=1))
        slots = {query_id: store.slot_of(query_id) for query_id in range(6)}
        store.unregister(2)
        store.unregister(4)
        # Most recently freed slot is handed out first.
        assert store.register(make_query(10, {1: 1.0}, k=1)) == slots[4]
        assert store.register(make_query(11, {1: 1.0}, k=1)) == slots[2]
        assert store.capacity == 6  # never grew past peak live

    def test_amortized_heap_compaction_trigger(self):
        store = QueryStore()
        terms_per_query = 4
        population = HEAP_COMPACT_MIN_DEAD  # plenty to arm the trigger
        for query_id in range(population):
            vector = {query_id * terms_per_query + j: 1.0 for j in range(terms_per_query)}
            store.register(make_query(query_id, vector, k=1))
        assert store.heap_size == population * terms_per_query
        # Unregister until dead > live * 0.5 with dead >= MIN_DEAD.
        victim = 0
        while store.heap_dead > 0 or victim == 0:
            store.unregister(victim)
            victim += 1
            if store.heap_dead == 0:
                break
        assert store.heap_dead == 0, "compaction never fired"
        live = population - victim
        assert store.heap_size == live * terms_per_query
        for query_id in range(victim, population):
            assert store.num_terms_of(query_id) == terms_per_query

    def test_duplicate_and_unknown_rejected(self):
        store = QueryStore()
        store.register(make_query(1, {1: 1.0}, k=1))
        with pytest.raises(DuplicateQueryError):
            store.register(make_query(1, {2: 1.0}, k=1))
        with pytest.raises(UnknownQueryError):
            store.unregister(2)
        with pytest.raises(UnknownQueryError):
            store.slot_of(2)
        assert store.materialize_or_none(2) is None


class TestSlotMap:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=5000), min_size=1, max_size=80
        ),
        drops=st.data(),
    )
    def test_matches_dict_model(self, ids, drops):
        slot_map = SlotMap()
        model = {}
        for slot, query_id in enumerate(ids):
            slot_map.set(query_id, slot)
            model[query_id] = slot
            if model and drops.draw(st.booleans()):
                victim = drops.draw(st.sampled_from(sorted(model)))
                assert slot_map.pop(victim) == model.pop(victim)
        assert len(slot_map) == len(model)
        for query_id, slot in model.items():
            assert query_id in slot_map
            assert slot_map.get(query_id) == slot
        for probe in (min(model, default=1) + 6000, 99999):
            assert slot_map.get(probe) is None
            assert slot_map.pop(probe) is None
        for query_id in list(model):
            assert slot_map.pop(query_id) == model.pop(query_id)
        assert len(slot_map) == 0

    def test_huge_id_falls_back_to_sparse(self):
        slot_map = SlotMap()
        slot_map.set(10**12, 0)  # must not allocate a terabyte array
        assert slot_map.get(10**12) == 0
        assert slot_map.nbytes() < 10_000
        assert slot_map.pop(10**12) == 0
        assert len(slot_map) == 0


class TestRegisteredQueriesFacade:
    def test_mapping_surface(self):
        store = QueryStore()
        queries = {
            query_id: make_query(query_id, {1: 1.0, 2 + query_id: 0.5}, k=2)
            for query_id in range(3)
        }
        for query in queries.values():
            store.register(query)
        facade = RegisteredQueries(store)
        assert len(facade) == 3
        assert set(facade) == set(queries)
        assert facade[1] == queries[1]
        assert facade[1] is not queries[1]  # materialized, not retained
        assert facade.get(99) is None
        assert 1 in facade and 99 not in facade
        assert "not-an-id" not in facade
        assert facade == queries
        assert facade != {0: queries[0]}
        assert dict(facade) == queries
        with pytest.raises(KeyError):
            facade[99]
        with pytest.raises(TypeError):
            hash(facade)
