"""The continuous top-k query (CTQD) model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import QueryError
from repro.text.similarity import is_normalized
from repro.types import QueryId, SparseVector

#: The largest ``k`` a query may ask for.  Every engine keeps each query's
#: k best documents in memory, and the columnar engine's result rows are as
#: wide as the largest live k, so an unbounded k would let one query size
#: every other query's storage.
MAX_K = 1000


@dataclass(frozen=True)
class Query:
    """A continuous top-k query over the document stream.

    Attributes
    ----------
    query_id:
        Unique identifier.  The RIO/MRIO query index orders posting lists by
        this identifier, so identifiers should be dense small integers for
        best performance (the registry assigns them that way).
    vector:
        L2-normalized sparse keyword vector (term id -> preference weight).
    k:
        Number of documents the user wants to monitor, 1 to :data:`MAX_K`.
    user:
        Optional opaque label of the issuing user (examples only).
    """

    query_id: QueryId
    vector: SparseVector
    k: int
    user: Optional[str] = None

    def __post_init__(self) -> None:
        if self.query_id < 0:
            raise QueryError(f"query_id must be >= 0, got {self.query_id}")
        if self.k <= 0:
            raise QueryError(f"k must be > 0, got {self.k}")
        if self.k > MAX_K:
            raise QueryError(f"k must be at most {MAX_K}, got {self.k}")
        if not self.vector:
            raise QueryError(f"query {self.query_id} has an empty keyword vector")
        for term_id, weight in self.vector.items():
            if weight <= 0.0:
                raise QueryError(
                    f"query {self.query_id} has non-positive weight {weight!r} "
                    f"for term {term_id}"
                )
        if not is_normalized(self.vector, tolerance=1e-6):
            raise QueryError(f"query {self.query_id} vector is not L2-normalized")

    @classmethod
    def trusted(
        cls,
        query_id: QueryId,
        vector: SparseVector,
        k: int,
        user: Optional[str] = None,
    ) -> "Query":
        """Construct a query *without* re-running ``__post_init__``.

        For vectors that are already canonical — decoded by the CRC-framed
        persistence codec or materialized from the packed
        :class:`~repro.queries.store.QueryStore` — the weights were
        validated and L2-normalized when the query was first registered.
        Re-walking the vector on every decode made state restores
        O(|vector|) per query in pure overhead; this constructor skips it.
        The caller vouches for canonicality.
        """
        query = object.__new__(cls)
        query.__dict__["query_id"] = query_id
        query.__dict__["vector"] = vector
        query.__dict__["k"] = k
        query.__dict__["user"] = user
        return query

    @property
    def num_terms(self) -> int:
        """Number of distinct keywords in the query."""
        return len(self.vector)

    def terms(self) -> list[int]:
        """The distinct term ids of the query."""
        return list(self.vector.keys())

    def weight(self, term_id: int) -> float:
        """Preference weight of ``term_id`` (0 if the query does not use it)."""
        return self.vector.get(term_id, 0.0)

    def with_id(self, query_id: QueryId) -> "Query":
        """Return a copy of this query carrying a different identifier."""
        return Query(query_id=query_id, vector=self.vector, k=self.k, user=self.user)
