"""Unit tests for the continuous-query model."""

import pytest

from repro.exceptions import QueryError
from repro.queries.query import MAX_K, Query
from repro.text.similarity import l2_normalize


class TestQuery:
    def test_valid_query(self):
        query = Query(query_id=0, vector=l2_normalize({1: 1.0, 2: 0.5}), k=10)
        assert query.num_terms == 2
        assert set(query.terms()) == {1, 2}

    def test_weight_lookup(self):
        query = Query(query_id=0, vector={3: 1.0}, k=1)
        assert query.weight(3) == 1.0
        assert query.weight(4) == 0.0

    def test_negative_id_rejected(self):
        with pytest.raises(QueryError):
            Query(query_id=-1, vector={1: 1.0}, k=1)

    def test_non_positive_k_rejected(self):
        with pytest.raises(QueryError):
            Query(query_id=0, vector={1: 1.0}, k=0)

    def test_k_above_max_rejected(self):
        Query(query_id=0, vector={1: 1.0}, k=MAX_K)
        with pytest.raises(QueryError, match="at most"):
            Query(query_id=0, vector={1: 1.0}, k=MAX_K + 1)

    def test_empty_vector_rejected(self):
        with pytest.raises(QueryError):
            Query(query_id=0, vector={}, k=5)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(QueryError):
            Query(query_id=0, vector={1: -0.5}, k=5)

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(QueryError):
            Query(query_id=0, vector={1: 0.4, 2: 0.4}, k=5)

    def test_with_id(self):
        query = Query(query_id=0, vector={1: 1.0}, k=3, user="alice")
        renumbered = query.with_id(42)
        assert renumbered.query_id == 42
        assert renumbered.vector == query.vector
        assert renumbered.k == 3
        assert renumbered.user == "alice"

    def test_queries_are_frozen(self):
        query = Query(query_id=0, vector={1: 1.0}, k=3)
        with pytest.raises(AttributeError):
            query.k = 5  # type: ignore[misc]
