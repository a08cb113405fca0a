"""Query routing: which engine shard owns which continuous query.

The sharded runtime partitions the *registered query set* — every shard
still sees every stream event, but each query's postings, result heap and
threshold live in exactly one shard, so per-event work parallelizes across
shards while per-query state never needs cross-shard coordination.

Partitioning is pluggable.  Two policies ship:

* :class:`HashPartitionPolicy` — ``query_id mod n_shards``; stateless,
  stable under unregistration, perfectly balanced for dense id spaces.
* :class:`TermAffinityPolicy` — greedily co-locates queries that share
  terms.  Every shard must walk the posting lists of an arriving document's
  terms, so two queries sharing a hot term cost almost the same as one when
  they sit in the same shard but twice the bound probes when split; packing
  term neighbourhoods together cuts that cross-shard duplicate work.  A
  load-slack cap keeps the assignment balanced.

Policies are deterministic functions of the registration sequence, which
keeps sharded runs reproducible.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Type, Union

from repro.exceptions import ConfigurationError, UnknownQueryError
from repro.queries.query import Query
from repro.types import QueryId, TermId


class PartitionPolicy(abc.ABC):
    """Decides the home shard of each newly registered query."""

    #: Short name used by :func:`make_policy` and the diagnostics.
    name = "abstract"

    def __init__(self) -> None:
        self.n_shards = 0

    def bind(self, n_shards: int) -> None:
        """Attach the policy to a router with ``n_shards`` shards.

        Called on (re)binding — including crash recovery, which re-binds the
        same instance to a fresh router — so subclasses carrying placement
        state must reset it here while keeping their configuration.
        """
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self.n_shards = n_shards

    @abc.abstractmethod
    def assign(self, query: Query) -> int:
        """The shard index (``0 <= i < n_shards``) that should own ``query``."""

    def release(self, query: Query, shard: int) -> None:
        """``query`` left ``shard``; update any internal placement state."""

    def adopt(self, query: Query, shard: int) -> None:
        """``query`` already lives on ``shard``; absorb it into the placement state.

        Crash recovery restores each engine shard's query set from its own
        checkpoint and then rebuilds the routing layer from that membership;
        policies whose future placements depend on accumulated state must
        update it here exactly as :meth:`assign` would have.  Placement
        state is a per-shard accumulation, so adopting queries in any order
        reproduces the state the original registration sequence built.  The
        default is a no-op, correct for stateless policies.
        """


class HashPartitionPolicy(PartitionPolicy):
    """Stateless ``query_id mod n_shards`` placement.

    Example::

        router = QueryRouter(n_shards=4, policy="hash")
        assert router.route(Query(query_id=6, vector={1: 1.0}, k=1)) == 2
    """

    name = "hash"

    def assign(self, query: Query) -> int:
        return query.query_id % self.n_shards


class TermAffinityPolicy(PartitionPolicy):
    """Greedy term co-location under a load-balance cap.

    For each candidate shard the policy scores how many of the query's
    terms are already present there (weighted by how many resident queries
    use the term, saturating at :attr:`max_term_weight` so one mega-term
    does not dominate).  Only shards whose query count is within
    ``balance_slack`` of the lightest shard are candidates, so affinity can
    never starve a shard.  Ties break towards the lighter, lower-indexed
    shard, keeping the placement deterministic.

    Example::

        router = QueryRouter(n_shards=2, policy=TermAffinityPolicy())
        router.route(make_query(0, {7: 1.0}))   # shard 0 (empty tie)
        router.route(make_query(1, {7: 1.0}))   # shard 0 again: shares term 7
    """

    name = "affinity"

    def __init__(self, balance_slack: float = 0.25, max_term_weight: int = 4) -> None:
        super().__init__()
        if balance_slack < 0.0:
            raise ConfigurationError(f"balance_slack must be >= 0, got {balance_slack}")
        if max_term_weight <= 0:
            raise ConfigurationError(f"max_term_weight must be > 0, got {max_term_weight}")
        self.balance_slack = balance_slack
        self.max_term_weight = max_term_weight
        self._term_counts: List[Dict[TermId, int]] = []
        self._loads: List[int] = []

    def bind(self, n_shards: int) -> None:
        super().bind(n_shards)
        self._term_counts = [{} for _ in range(n_shards)]
        self._loads = [0] * n_shards

    def assign(self, query: Query) -> int:
        lightest = min(self._loads)
        # At least one extra query of headroom, more as shards fill up.
        cap = lightest + max(1, int(self.balance_slack * (lightest + 1)))
        best_shard = -1
        best_key = None
        for shard in range(self.n_shards):
            if self._loads[shard] > cap:
                continue
            counts = self._term_counts[shard]
            affinity = 0
            for term_id in query.vector:
                resident = counts.get(term_id)
                if resident:
                    affinity += min(resident, self.max_term_weight)
            key = (-affinity, self._loads[shard], shard)
            if best_key is None or key < best_key:
                best_key = key
                best_shard = shard
        counts = self._term_counts[best_shard]
        for term_id in query.vector:
            counts[term_id] = counts.get(term_id, 0) + 1
        self._loads[best_shard] += 1
        return best_shard

    def release(self, query: Query, shard: int) -> None:
        counts = self._term_counts[shard]
        for term_id in query.vector:
            remaining = counts.get(term_id, 0) - 1
            if remaining > 0:
                counts[term_id] = remaining
            else:
                counts.pop(term_id, None)
        self._loads[shard] -= 1

    def adopt(self, query: Query, shard: int) -> None:
        counts = self._term_counts[shard]
        for term_id in query.vector:
            counts[term_id] = counts.get(term_id, 0) + 1
        self._loads[shard] += 1


_POLICIES: Dict[str, Type[PartitionPolicy]] = {
    HashPartitionPolicy.name: HashPartitionPolicy,
    TermAffinityPolicy.name: TermAffinityPolicy,
}


def make_policy(spec: Union[str, PartitionPolicy]) -> PartitionPolicy:
    """Resolve a policy name (``"hash"``/``"affinity"``) or pass an instance through."""
    if isinstance(spec, PartitionPolicy):
        return spec
    cls = _POLICIES.get(str(spec).lower())
    if cls is None:
        raise ConfigurationError(
            f"unknown partition policy {spec!r}; expected one of {sorted(_POLICIES)}"
        )
    return cls()


class QueryRouter:
    """Tracks which shard owns which query and delegates placement to a policy.

    Example::

        router = QueryRouter(n_shards=4, policy="affinity")
        shard = router.route(query)          # place a new query
        assert router.shard_of(query.query_id) == shard
        router.release(query)                # query unregistered
    """

    def __init__(self, n_shards: int, policy: Union[str, PartitionPolicy] = "hash") -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self.n_shards = n_shards
        self.policy = make_policy(policy)
        self.policy.bind(n_shards)
        self._assignments: Dict[QueryId, int] = {}

    def route(self, query: Query) -> int:
        """Assign a home shard to a newly registered query."""
        if query.query_id in self._assignments:
            raise ConfigurationError(f"query {query.query_id} is already routed")
        shard = self.policy.assign(query)
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"policy {self.policy.name!r} returned invalid shard {shard}"
            )
        self._assignments[query.query_id] = shard
        return shard

    def adopt(self, query: Query, shard: int) -> None:
        """Record that ``query`` already lives on ``shard`` (crash recovery).

        Unlike :meth:`route` the placement is dictated, not chosen; the
        policy only absorbs it so its future assignments see the same
        accumulated state they would have after the original registrations.
        """
        if query.query_id in self._assignments:
            raise ConfigurationError(f"query {query.query_id} is already routed")
        if not 0 <= shard < self.n_shards:
            raise ConfigurationError(
                f"cannot adopt query {query.query_id} onto invalid shard {shard}"
            )
        self.policy.adopt(query, shard)
        self._assignments[query.query_id] = shard

    def release(self, query: Query) -> int:
        """Remove a query's assignment; returns the shard that owned it."""
        shard = self._assignments.pop(query.query_id, None)
        if shard is None:
            raise UnknownQueryError(f"query {query.query_id} is not routed")
        self.policy.release(query, shard)
        return shard

    def shard_of(self, query_id: QueryId) -> int:
        """The shard owning ``query_id``."""
        shard = self._assignments.get(query_id)
        if shard is None:
            raise UnknownQueryError(f"query {query_id} is not routed")
        return shard

    def loads(self) -> List[int]:
        """Number of queries per shard, indexed by shard."""
        loads = [0] * self.n_shards
        for shard in self._assignments.values():
            loads[shard] += 1
        return loads

    @property
    def num_queries(self) -> int:
        return len(self._assignments)
