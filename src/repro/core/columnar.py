"""Columnar (struct-of-arrays) engine: the vectorized batch probe.

The scalar engines walk ID-ordered posting lists with Python-level cursor
objects; this engine drives the same probe over the packed columns of
:class:`~repro.index.columnar.ColumnarQueryIndex`, so one ingestion batch
is a handful of array operations:

1. concatenate the batch's document vectors and sort the postings by term
   id (one stable argsort — this *is* the ID-ordering of the paper, applied
   to the document side);
2. per matched term, a document-level upper bound accumulates
   ``doc_weight * max_weight(term)`` (the term maximum is certified by the
   zone maxima); documents whose amplified bound cannot beat the smallest
   live ``S_k`` are skipped wholesale — the vectorized form of the zone
   skip test;
3. surviving documents accumulate exact cosines into a dense
   ``documents x slots`` block, one fancy-indexed add per matched term;
4. a single ``scores > thresholds`` mask selects candidates, which go to
   the :class:`~repro.core.results.ResultArena` as one vectorized batch
   offer: lock-step rounds, each offering every touched slot its next
   candidate in arrival order with :class:`~repro.core.results.TopKResult`'s
   exact acceptance and tie rules.  The offer writes each touched slot's
   new ``S_k`` into the threshold column (the next chunk masks against
   it) and, at the end of the batch, yields the per-query net
   :class:`~repro.core.results.BatchUpdate` list directly — no
   per-candidate Python, no coalescing pass.

The slots are the :class:`~repro.queries.store.QueryStore`'s — the arena's
rows and the ``S_k`` column the probe masks against are addressed by them,
the column read and written here through a view.  :class:`StreamAlgorithm`
already keeps that column current at every other event that moves a
threshold (decay rebase, restore, window expiration), so this engine has
no threshold hook of its own.

Float-summation order contract
------------------------------

Both the exact accumulation (step 3) and the upper bound (step 2) add
their per-term products in **ascending term id** order, one IEEE-754
addition per term — the same canonical summation the scalar MRIO/RIO
engines use when they sort moved cursors by term id before accumulating.
Scores are therefore *bitwise identical* to the scalar engines', not just
close, which is what keeps the differential suites and the shard-
partitioning equivalence byte-exact.  ``tests/test_columnar_differential.py``
pins this contract.

Replay-exact counters
---------------------

Work counters are defined purely in terms of *live* queries and the
documents' match structure — never in terms of slot-table layout (width,
free slots, chunk shape).  A restored engine re-registers its queries
densely while the captured one may carry free slots, so anything
layout-dependent would diverge between an uninterrupted engine and a
crash-recovered one.  Chunk boundaries are keyed off the live-query count
for the same reason.

numpy is a hard dependency of the package (declared in ``setup.py``): this
probe is the only implementation, and the scalar MRIO engine — not a scalar
copy of this one — is the oracle it is differentially tested against.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence

from repro.core.base import StreamAlgorithm
from repro.core.registry import register_algorithm
from repro.core.results import ArenaBatch, BatchUpdate, ResultArena, ResultUpdate
from repro.documents.decay import ExponentialDecay
from repro.documents.document import Document
import numpy as np

from repro.index.columnar import ColumnarQueryIndex
from repro.queries.query import Query

#: Upper bound on the dense accumulator size (documents x slots cells) of
#: one probe chunk; ~16 MiB of float64.
CELL_BUDGET = 1 << 21
#: Chunks of at most this many cells sum into a dense block instead of
#: sorting their (document, slot) pairs first: a one-document batch over
#: 500 queries then accumulates in a quarter of the time, and the two
#: paths cost the same at about this size.
DENSE_CELLS = 1 << 12


@register_algorithm("columnar")
class ColumnarAlgorithm(StreamAlgorithm):
    """Drop-in engine probing packed term columns instead of cursor objects.

    Example::

        algorithm = create_algorithm("columnar", ExponentialDecay(lam=1e-4))
        algorithm.register_all(queries)
        updates = algorithm.process_batch(batch)
    """

    name = "columnar"

    def __init__(self, decay: Optional[ExponentialDecay] = None) -> None:
        super().__init__(decay)
        self.results = ResultArena(self.store)
        # Shares the engine's packed definition store: the index keeps only
        # per-term membership and joins slots and weights in at rebuild time.
        self.index = ColumnarQueryIndex(store=self.store)

    # ------------------------------------------------------------------ #
    # Structure hooks
    # ------------------------------------------------------------------ #

    def _register_structures(self, query: Query) -> None:
        self.index.register(query)

    def _unregister_structures(self, query: Query) -> None:
        self.index.unregister(query)

    def _restore_structures(self, structures: Optional[Dict[str, object]]) -> None:
        """Nothing to refresh: the packed columns are pure functions of the
        registered queries (already re-registered by ``restore()``), which
        also reloaded the store's threshold column.  Overridden only because
        the base default materializes every query."""

    # ------------------------------------------------------------------ #
    # Probe
    # ------------------------------------------------------------------ #

    def _process_document(self, document: Document, amplification: float) -> List[ResultUpdate]:
        # One traversal implementation: the per-event path is the batched
        # probe over a single document, whose one round of offers gives the
        # per-offer updates.
        return self._offer([document], [amplification]).result_updates()

    def _process_batch_documents(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> List[BatchUpdate]:
        return self._offer(documents, amplifications).batch_updates()

    def _chunk_rows(self) -> int:
        # Keyed off the *live* query count, not the slot-table width:
        # chunk boundaries influence pruning decisions (thresholds are
        # sampled per chunk) and therefore the work counters, which must
        # not depend on how many free slots the table happens to carry.
        return max(1, CELL_BUDGET // max(1, self.num_queries))

    def _offer(
        self, documents: Sequence[Document], amplifications: Sequence[float]
    ) -> ArenaBatch:
        """Probe the batch and offer every candidate to the result arena."""
        store = self.store
        counters = self.counters
        counters.iterations += len(documents)
        # A view of the store's threshold column, taken afresh each call (a
        # registration may have regrown it); free slots read +inf.  The
        # arena writes it as it accepts offers.
        thresholds = store.thresholds_view()
        chunk_rows = self._chunk_rows()
        batch = ArenaBatch(self.results, -(-len(documents) // chunk_rows), thresholds)
        num_live = len(store)
        if num_live == 0:
            return batch
        size = store.capacity

        term_keys, csr_starts, csr_ends, slot_col, weight_col, max_weights = (
            self.index.global_view()
        )

        for start in range(0, len(documents), chunk_rows):
            chunk = documents[start : start + chunk_rows]
            n_docs = len(chunk)
            counters.bound_computations += n_docs
            amps = np.asarray(amplifications[start : start + n_docs], dtype=np.float64)

            # Flatten the chunk's vectors into parallel (term, weight, row)
            # columns and ID-order them by term — after this sort every
            # per-row accumulation below visits terms in ascending id order,
            # which is the float-summation order contract.
            counts = [len(document.vector) for document in chunk]
            total = sum(counts)
            if total == 0:
                continue
            term_ids = np.fromiter(
                chain.from_iterable(document.vector.keys() for document in chunk),
                dtype=np.int64,
                count=total,
            )
            doc_weights = np.fromiter(
                chain.from_iterable(document.vector.values() for document in chunk),
                dtype=np.float64,
                count=total,
            )
            rows = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
            order = np.argsort(term_ids, kind="stable")
            term_ids = term_ids[order]
            doc_weights = doc_weights[order]
            rows = rows[order]

            # Join the batch postings against the index's term CSR.
            if len(term_keys) == 0:
                continue
            lookup = np.searchsorted(term_keys, term_ids)
            lookup[lookup == len(term_keys)] = 0  # clamp; can't match below
            matched = term_keys[lookup] == term_ids
            if not matched.any():
                continue
            m_lookup = lookup[matched]
            m_rows = rows[matched]
            m_weights = doc_weights[matched]

            # Document-level upper bound: per matched term (ascending), one
            # IEEE add of doc_weight * max_weight(term) — bincount adds each
            # bin's contributions in input order, i.e. ascending term id.
            # Rounding is monotone, so the bound dominates every query's
            # exact score computed in the same term order; pruning on it is
            # exact-safe.
            upper = np.bincount(
                m_rows, weights=m_weights * max_weights[m_lookup], minlength=n_docs
            )
            # The smallest live S_k (free slots hold +inf): a document whose
            # amplified bound is at or below it cannot enter any top-k.
            alive = (upper * amps) > thresholds.min()
            n_alive = int(np.count_nonzero(alive))
            counters.bound_computations += n_alive * num_live
            if n_alive == 0:
                continue
            if n_alive < n_docs:
                keep = alive[m_rows]
                m_lookup = m_lookup[keep]
                m_rows = m_rows[keep]
                m_weights = m_weights[keep]

            # Expand each surviving (document, term) posting into its term's
            # CSR span: pair i joins document-side weight m_weights[i] with
            # every (slot, weight) of the term's packed column.
            pair_counts = csr_ends[m_lookup] - csr_starts[m_lookup]
            total_pairs = int(pair_counts.sum())
            counters.postings_scanned += total_pairs
            pair_base = np.repeat(np.cumsum(pair_counts) - pair_counts, pair_counts)
            pair_positions = (
                np.arange(total_pairs, dtype=np.int64)
                - pair_base
                + np.repeat(csr_starts[m_lookup], pair_counts)
            )
            pair_rows = np.repeat(m_rows, pair_counts)
            products = np.repeat(m_weights, pair_counts) * weight_col[pair_positions]

            # Segment-sum the pair products per (document, slot) cell.
            # Input order is ascending term id (inherited from the batch
            # sort), and bincount accumulates each cell sequentially in
            # input order — the canonical summation, bit for bit.
            cells = pair_rows * size + slot_col[pair_positions]
            if n_docs * size <= DENSE_CELLS:
                # A tiny block: summing into every cell beats sorting the
                # pairs.  Products are positive, so the touched cells are
                # exactly the non-zero ones.
                block = np.bincount(cells, weights=products, minlength=n_docs * size)
                unique_cells = np.flatnonzero(block)
                similarities = block[unique_cells]
            else:
                unique_cells, inverse = np.unique(cells, return_inverse=True)
                similarities = np.bincount(
                    inverse, weights=products, minlength=len(unique_cells)
                )
            counters.full_evaluations += int(np.count_nonzero(similarities))

            cell_rows = unique_cells // size
            cell_slots = unique_cells % size
            scores = similarities * amps[cell_rows]
            passing = scores > thresholds[cell_slots]
            if not passing.any():
                continue
            # Candidates come out in (row, slot) order: arrival order, which
            # is all the arena's lock-step rounds need.
            cand_rows = cell_rows[passing]
            doc_ids = np.fromiter(
                (document.doc_id for document in chunk), dtype=np.int64, count=n_docs
            )
            counters.result_updates += batch.offer(
                cand_rows + start,
                cell_slots[passing],
                doc_ids[cand_rows],
                scores[passing],
            )
        return batch
