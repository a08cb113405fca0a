"""RTA baseline (after Haghani, Michel, Aberer — CIKM 2010).

RTA represents the *impact-ordered* indexing paradigm the paper's RIO/MRIO
abandon: per term, the registered queries are kept in descending order of
their normalized preference ``w / S_k(q)``, and an arriving document is
processed with threshold-algorithm (TA) style sorted access over the lists of
its terms.  Every newly encountered query is fully evaluated; traversal stops
as soon as the accumulated threshold proves that no unseen query can admit
the document.

Because ``S_k`` changes as results update, the impact order degrades over
time; the implementation keeps *stored* ratio snapshots (always upper bounds
of the true ratios, which preserves correctness) and re-sorts a list once the
number of stale entries crosses a fraction of its length — the maintenance
cost inherent to this paradigm.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.base import StreamAlgorithm
from repro.core.bounds import preference_ratio
from repro.core.registry import register_algorithm
from repro.core.results import ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
from repro.queries.query import Query
from repro.types import QueryId, TermId


class _ImpactList:
    """One per-term list of ``[stored_ratio, query_id, weight]`` entries.

    Maintenance (re-sorting, ratio refreshes) is *deferred*: threshold
    changes triggered while a document is being processed only set flags,
    and :meth:`ensure_ready` applies them before the next document touches
    the list.  Re-sorting a list while cursors are walking it would skip
    entries and break correctness.
    """

    __slots__ = ("entries", "by_query", "stale", "needs_sort", "needs_refresh")

    def __init__(self) -> None:
        self.entries: List[List[float]] = []
        self.by_query: Dict[QueryId, List[float]] = {}
        self.stale = 0
        self.needs_sort = False
        self.needs_refresh = False

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, query_id: QueryId, weight: float, ratio: float) -> None:
        entry = [ratio, float(query_id), weight]
        self.entries.append(entry)
        self.by_query[query_id] = entry
        self.needs_sort = True

    def remove(self, query_id: QueryId) -> None:
        entry = self.by_query.pop(query_id, None)
        if entry is None:
            return
        self.entries.remove(entry)

    def resort(self) -> None:
        self.entries.sort(key=lambda entry: entry[0], reverse=True)
        self.needs_sort = False
        self.stale = 0

    def refresh(self, ratio_of) -> None:
        """Recompute every stored ratio and re-sort (periodic maintenance)."""
        for entry in self.entries:
            entry[0] = ratio_of(int(entry[1]), entry[2])
        self.needs_refresh = False
        self.resort()

    def ensure_ready(self, ratio_of) -> None:
        """Apply deferred maintenance before the list is traversed."""
        if self.needs_refresh:
            self.refresh(ratio_of)
        elif self.needs_sort:
            self.resort()


@register_algorithm("rta")
class RTAAlgorithm(StreamAlgorithm):
    """TA-style traversal of impact-ordered per-term query lists."""

    name = "rta"

    def __init__(
        self,
        decay: Optional[ExponentialDecay] = None,
        stale_fraction: float = 0.125,
        min_stale: int = 16,
    ) -> None:
        super().__init__(decay)
        self.stale_fraction = stale_fraction
        self.min_stale = min_stale
        self._lists: Dict[TermId, _ImpactList] = {}

    # ------------------------------------------------------------------ #
    # Structures
    # ------------------------------------------------------------------ #

    def _ratio(self, query_id: QueryId, weight: float) -> float:
        return preference_ratio(weight, self.results.threshold(query_id))

    def _register_structures(self, query: Query) -> None:
        for term_id, weight in query.vector.items():
            impact_list = self._lists.setdefault(term_id, _ImpactList())
            impact_list.add(query.query_id, weight, self._ratio(query.query_id, weight))

    def _unregister_structures(self, query: Query) -> None:
        for term_id in query.vector:
            impact_list = self._lists.get(term_id)
            if impact_list is None:
                continue
            impact_list.remove(query.query_id)
            if not impact_list.entries:
                del self._lists[term_id]

    def _on_threshold_change(self, query: Query) -> None:
        for term_id, weight in query.vector.items():
            impact_list = self._lists.get(term_id)
            if impact_list is None:
                continue
            entry = impact_list.by_query.get(query.query_id)
            if entry is None:
                continue
            new_ratio = self._ratio(query.query_id, weight)
            if new_ratio > entry[0]:
                # Threshold decreased (expiration): raise the stored ratio so
                # it stays an upper bound, and restore the sort order.
                entry[0] = new_ratio
                impact_list.needs_sort = True
            else:
                impact_list.stale += 1
                limit = max(self.min_stale, int(self.stale_fraction * len(impact_list)))
                if impact_list.stale >= limit:
                    # Defer the refresh: re-sorting a list that is currently
                    # being traversed would corrupt the cursor positions.
                    impact_list.needs_refresh = True

    def _on_renormalize(self, factor: float) -> None:
        # Thresholds shrank by ``factor``; true ratios grew by the same
        # factor, so stored ratios must grow too to remain upper bounds.
        for impact_list in self._lists.values():
            for entry in impact_list.entries:
                entry[0] *= factor

    def _snapshot_structures(self) -> Optional[Dict[str, object]]:
        # Impact lists accumulate history: stored ratios lag the true ratios
        # until maintenance refreshes them, and the stale counters decide
        # *when* that happens.  Rebuilding the lists fresh on restore would
        # be correct but would traverse differently from the captured
        # engine; capturing them verbatim keeps recovery replay-exact.
        return {
            "lists": [
                [
                    term_id,
                    {
                        "entries": [
                            [self._pack_float(entry[0]), entry[1], entry[2]]
                            for entry in impact_list.entries
                        ],
                        "stale": impact_list.stale,
                        "needs_sort": impact_list.needs_sort,
                        "needs_refresh": impact_list.needs_refresh,
                    },
                ]
                for term_id, impact_list in sorted(self._lists.items())
            ]
        }

    def _restore_structures(self, structures: Optional[Dict[str, object]]) -> None:
        self._lists = {}
        for term_id, captured in structures["lists"]:  # type: ignore[union-attr]
            impact_list = _ImpactList()
            for ratio, query_id, weight in captured["entries"]:
                entry = [self._unpack_float(ratio), float(query_id), float(weight)]
                impact_list.entries.append(entry)
                impact_list.by_query[int(query_id)] = entry
            impact_list.stale = int(captured["stale"])
            impact_list.needs_sort = bool(captured["needs_sort"])
            impact_list.needs_refresh = bool(captured["needs_refresh"])
            self._lists[term_id] = impact_list

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #

    def _process_document(
        self, document: Document, amplification: float
    ) -> List[ResultUpdate]:
        # One traversal implementation: the per-event path is the batched
        # walk over a single document.
        return self._scan_documents([document], [amplification])

    def _scan_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[ResultUpdate]:
        """TA traversal shared by both ingestion paths (lookups hoisted,
        scratch sets reused across documents).

        ``ensure_ready`` runs on each list's first touch to apply flags
        pending from *before* the batch.  It cannot fire mid-batch: inside
        ``process_batch`` threshold propagation is deferred to the batch
        boundary, so no new maintenance flags are raised while the batch's
        documents traverse the lists.
        """
        updates: List[ResultUpdate] = []
        lists = self._lists
        counters = self.counters
        queries_get = self.queries.get
        offer = self.offer
        ratio_of = self._ratio
        exact_score = self.exact_score
        involved: List[tuple] = []
        seen: Set[QueryId] = set()
        for document, amplification in zip(documents, amplifications):
            involved.clear()
            for term_id, doc_weight in document.vector.items():
                impact_list = lists.get(term_id)
                if impact_list is not None and impact_list.entries:
                    impact_list.ensure_ready(ratio_of)
                    involved.append((doc_weight, impact_list))
            if not involved:
                continue

            cursors = [0] * len(involved)
            seen.clear()
            doc_id = document.doc_id
            while True:
                threshold_sum = 0.0
                best_index = -1
                best_contribution = -1.0
                for idx, (doc_weight, impact_list) in enumerate(involved):
                    pos = cursors[idx]
                    if pos >= len(impact_list.entries):
                        continue
                    contribution = doc_weight * impact_list.entries[pos][0]
                    threshold_sum += contribution
                    if contribution > best_contribution:
                        best_contribution = contribution
                        best_index = idx
                if best_index < 0:
                    break
                if not threshold_sum * amplification >= 1.0:
                    break

                counters.iterations += 1
                doc_weight, impact_list = involved[best_index]
                entry = impact_list.entries[cursors[best_index]]
                cursors[best_index] += 1
                counters.postings_scanned += 1
                query_id = int(entry[1])
                if query_id in seen:
                    continue
                seen.add(query_id)
                query = queries_get(query_id)
                if query is None:
                    continue
                score = exact_score(query, document, amplification)
                counters.full_evaluations += 1
                update = offer(query_id, doc_id, score)
                if update is not None:
                    updates.append(update)
        return updates
