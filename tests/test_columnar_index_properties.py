"""Property tests: the packed columnar index against a dict-based model.

:class:`~repro.index.columnar.ColumnarQueryIndex` maintains term-partitioned
packed columns and zone metadata, addressed by the slots of the
:class:`~repro.queries.store.QueryStore` (the engine's only slot table; the
store's own columns — thresholds included — are covered by
``tests/test_query_store_properties.py``).  These tests drive random
register/unregister sequences through the index and an obviously-correct
dict model in lockstep, standalone (private store) and engine-style (shared
store, registered first), then check the structural invariants the
engine's vectorized probe relies on:

* packed columns are ID-ordered (query ids strictly ascending per term) and
  agree exactly with the model's membership and weights;
* slot addressing is consistent: bijective over live queries, every
  posting carries its query's *store* slot, and slots freed by churn are
  reused instead of widening the table (no orphan slots);
* zone offsets are sorted, start at 0, step by ``zone_size`` and cover the
  column; zone maxima are *true* upper bounds (and tight) for their zones;
* the spliced global CSR equals a from-scratch build over the same state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DuplicateQueryError, UnknownQueryError
from repro.index.columnar import ColumnarQueryIndex, TermPostings
from repro.queries.store import QueryStore

from tests.helpers import make_query, sparse_vector_strategy


@st.composite
def operation_sequences(draw):
    """A random interleaving of registrations and unregistrations over a
    small query population."""
    num_queries = draw(st.integers(min_value=1, max_value=60))
    vectors = [
        draw(sparse_vector_strategy(vocab_size=15, max_terms=4))
        for _ in range(num_queries)
    ]
    operations = []
    registered: list = []
    for query_id, vector in enumerate(vectors):
        operations.append(("register", query_id, vector))
        registered.append(query_id)
        if registered and draw(st.booleans()):
            victim = registered.pop(
                draw(st.integers(min_value=0, max_value=len(registered) - 1))
            )
            operations.append(("unregister", victim, None))
    return operations


def _replay(operations, zone_size=4, shared_store=False):
    """Drive the index and the dict model through the same operations.

    ``shared_store`` mirrors an owning engine: the definition enters the
    store before the index and leaves it after.
    """
    store = QueryStore() if shared_store else None
    index = ColumnarQueryIndex(zone_size=zone_size, store=store)
    model_queries = {}  # query_id -> Query
    peak_live = 0
    for op, query_id, payload in operations:
        if op == "register":
            query = make_query(query_id, payload, k=3)
            if shared_store:
                store.register(query)
            assert index.register(query) == index.store.slot_of(query_id)
            model_queries[query_id] = query
            peak_live = max(peak_live, len(model_queries))
        else:
            index.unregister(model_queries.pop(query_id))
            if shared_store:
                store.unregister(query_id)
    return index, model_queries, peak_live


def _model_terms(model_queries):
    """term -> {query_id: weight} from the model."""
    members = {}
    for query in model_queries.values():
        for term_id, weight in query.vector.items():
            members.setdefault(term_id, {})[query.query_id] = weight
    return members


def _check_invariants(index, model_queries, peak_live):
    # --- slot addressing (the store's table) ----------------------------
    store = index.store
    assert index.num_live == len(model_queries)
    qids = store.qids_view()
    seen_slots = set()
    for query_id in model_queries:
        slot = store.slot_of(query_id)
        assert 0 <= slot < store.capacity
        assert slot not in seen_slots, "two queries share a slot"
        seen_slots.add(slot)
        assert int(qids[slot]) == query_id
    for slot in range(store.capacity):
        if slot not in seen_slots:  # free, awaiting reuse
            assert int(qids[slot]) == -1
    # Freed slots are reused: nothing is tombstoned, nothing compacted.
    assert store.capacity <= peak_live
    assert store.capacity == len(model_queries) + store.free_slot_count

    # --- packed term columns -------------------------------------------
    model_members = _model_terms(model_queries)
    assert sorted(index.term_ids()) == sorted(model_members)
    for term_id, members in model_members.items():
        postings = index.term(term_id)
        assert postings is not None
        assert len(postings) == len(members)
        column_qids = list(postings.qids)
        assert column_qids == sorted(members), "qids not ID-ordered"
        assert all(
            column_qids[i] < column_qids[i + 1] for i in range(len(column_qids) - 1)
        )
        for position in range(len(postings)):
            query_id = int(postings.qids[position])
            slot = int(postings.slots[position])
            assert slot == store.slot_of(query_id), "posting addresses a foreign slot"
            assert int(qids[slot]) == query_id, "orphan slot in packed column"
            assert postings.weights[position] == members[query_id]

        # --- zones ------------------------------------------------------
        offsets = list(postings.zone_offsets)
        assert offsets[0] == 0
        assert offsets == sorted(offsets)
        assert offsets == list(range(0, len(postings), index.zone_size))
        maxima = list(postings.zone_max_weights)
        assert len(maxima) == len(offsets)
        for zone, start in enumerate(offsets):
            end = offsets[zone + 1] if zone + 1 < len(offsets) else len(postings)
            zone_weights = [postings.weights[p] for p in range(start, end)]
            assert postings.zone_bound(zone) == max(zone_weights), "zone max not tight"
            for weight in zone_weights:
                assert weight <= postings.zone_bound(zone), "zone bound violated"
            for position in range(start, end):
                assert postings.zone_of(position) == zone
        assert postings.max_weight == max(members.values())
    # Terms absent from the model must be absent from the index.
    assert index.term(9999) is None


def _assert_splice_equals_fresh_build(index):
    """The incrementally spliced CSR is bit-identical to a full rebuild."""
    if index._global_changed:  # the splice itself, whatever global_view picks
        index._splice_global()
    spliced = index.global_view()
    index._global = None
    rebuilt = index.global_view()
    assert len(spliced) == len(rebuilt)
    for spliced_column, rebuilt_column in zip(spliced, rebuilt):
        assert np.array_equal(spliced_column, rebuilt_column)


class TestPackedIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations=operation_sequences(), shared_store=st.booleans())
    def test_random_churn_matches_dict_model(self, operations, shared_store):
        index, model_queries, peak_live = _replay(
            operations, shared_store=shared_store
        )
        _check_invariants(index, model_queries, peak_live)

    @settings(max_examples=30, deadline=None)
    @given(operations=operation_sequences(), cut=st.integers(min_value=0, max_value=200))
    def test_spliced_global_view_matches_fresh_build(self, operations, cut):
        """Build the CSR mid-sequence, keep churning (slots get reused),
        splice: same columns as building from scratch at the end."""
        cut = min(cut, len(operations))
        index, model_queries, _ = _replay(operations[:cut])
        index.global_view()
        for op, query_id, payload in operations[cut:]:
            if op == "register":
                model_queries[query_id] = make_query(query_id, payload, k=3)
                index.register(model_queries[query_id])
            else:
                index.unregister(model_queries.pop(query_id))
        _assert_splice_equals_fresh_build(index)
        slot_col = index.global_view()[3]
        live_slots = {index.store.slot_of(query_id) for query_id in model_queries}
        assert set(slot_col.tolist()) <= live_slots


class TestPackedIndexEdgeCases:
    def test_duplicate_registration_rejected(self):
        index = ColumnarQueryIndex()
        query = make_query(1, {1: 1.0}, k=2)
        index.register(query)
        with pytest.raises(DuplicateQueryError):
            index.register(query)

    def test_unknown_unregister_rejected(self):
        index = ColumnarQueryIndex()
        with pytest.raises(UnknownQueryError):
            index.unregister(make_query(1, {1: 1.0}, k=2))

    def test_shared_store_must_hold_the_definition_first(self):
        index = ColumnarQueryIndex(store=QueryStore())
        with pytest.raises(UnknownQueryError):
            index.register(make_query(1, {1: 1.0}, k=2))
        assert index.num_terms == 0

    def test_empty_index(self):
        index = ColumnarQueryIndex()
        assert index.num_live == 0
        assert index.store.capacity == 0
        assert index.term(1) is None
        assert len(index.global_view()[0]) == 0

    def test_small_changes_splice_and_sweeping_ones_rebuild(self, monkeypatch):
        """``global_view`` picks by the share of terms a burst changed."""
        calls = []

        def spy(name):
            original = getattr(ColumnarQueryIndex, name)

            def recorded(self):
                calls.append(name)
                original(self)

            monkeypatch.setattr(ColumnarQueryIndex, name, recorded)

        spy("_splice_global")
        spy("_rebuild_global")
        index = ColumnarQueryIndex()
        queries = [make_query(i, {i: 1.0}, k=1) for i in range(40)]
        for query in queries:
            index.register(query)
        index.global_view()
        index.unregister(queries[0])  # 1 of 40 terms changed
        index.global_view()
        for query in queries[1:12]:  # 11 of 39: more than a quarter
            index.unregister(query)
        index.global_view()
        index.global_view()  # nothing changed: cached
        assert calls == ["_rebuild_global", "_splice_global", "_rebuild_global"]
        assert index.global_view()[0].tolist() == list(range(12, 40))

    def test_invalid_zone_size_rejected(self):
        with pytest.raises(ValueError):
            ColumnarQueryIndex(zone_size=0)

    def test_zone_of_bounds_checked(self):
        index = ColumnarQueryIndex(zone_size=2)
        for query_id in range(5):
            index.register(make_query(query_id, {7: 1.0 + query_id}, k=1))
        postings = index.term(7)
        assert isinstance(postings, TermPostings)
        with pytest.raises(IndexError):
            postings.zone_of(5)
        with pytest.raises(IndexError):
            postings.zone_of(-1)
