"""Order-preserving exponential time decay (Eq. 1 of the paper).

The paper scores a document as ``S(q, d) = c(q, d) / exp(-λ·τ_d)``, i.e. the
cosine similarity *amplified* by ``exp(λ·τ_d)`` where ``τ_d`` is the arrival
time.  Because the amplification is fixed at arrival and strictly increases
with time, newer documents dominate older ones of equal similarity and —
crucially — the relative order of already-scored documents never changes, so
query results only need updating when new documents arrive.

The amplification grows without bound, so the engine periodically
*renormalizes*: it divides every stored score by a common factor and shifts
the time origin.  Rankings are unaffected because every amplified score is
scaled by the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import require_non_negative, require_positive


@dataclass
class ExponentialDecay:
    """Computes the amplification factor ``exp(λ · (τ - origin))``.

    Attributes
    ----------
    lam:
        The decay parameter λ (>= 0).  λ = 0 disables recency preference.
    origin:
        Time origin subtracted from every timestamp before exponentiation;
        maintained by renormalization.
    max_amplification:
        When the amplification for an arriving document exceeds this bound
        the engine should renormalize (see :meth:`needs_renormalization`).
    """

    lam: float = 1e-3
    origin: float = 0.0
    max_amplification: float = 1e60

    def __post_init__(self) -> None:
        require_non_negative(self.lam, "lam")
        require_positive(self.max_amplification, "max_amplification")

    def amplification(self, arrival_time: float) -> float:
        """The factor ``1 / exp(-λ·Δτ)`` for a document arriving at ``arrival_time``."""
        return math.exp(self.lam * (arrival_time - self.origin))

    def score(self, similarity: float, arrival_time: float) -> float:
        """The amplified score ``S(q, d)`` for a given similarity value."""
        return similarity * self.amplification(arrival_time)

    def needs_renormalization(self, arrival_time: float) -> bool:
        """True when scores produced at ``arrival_time`` exceed the safe range."""
        if self.lam == 0.0:
            return False
        return self.amplification(arrival_time) > self.max_amplification

    def renormalization_factor(self, new_origin: float) -> float:
        """Factor by which existing amplified scores must be divided when the
        origin moves to ``new_origin``.

        Shifting the origin from ``o`` to ``o'`` divides every *future*
        amplification by ``exp(λ·(o' - o))``; dividing the already-stored
        scores by the same factor keeps past and future scores comparable.
        """
        return math.exp(self.lam * (new_origin - self.origin))

    def rebase(self, new_origin: float) -> float:
        """Move the origin to ``new_origin`` and return the division factor."""
        factor = self.renormalization_factor(new_origin)
        self.origin = new_origin
        return factor

    def half_life(self) -> float:
        """The time span after which an old document loses half its advantage."""
        if self.lam == 0.0:
            return math.inf
        return math.log(2.0) / self.lam

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, float]:
        """The full decay state as a plain dict (see :meth:`restore`)."""
        return {
            "lam": self.lam,
            "origin": self.origin,
            "max_amplification": self.max_amplification,
        }

    def restore(self, state: Dict[str, float]) -> None:
        """Restore state captured by :meth:`snapshot`.

        Stored scores elsewhere are only comparable under the origin they
        were amplified against, so a restore must always carry the origin
        together with the results it accompanies.
        """
        self.lam = float(state["lam"])
        self.origin = float(state["origin"])
        self.max_amplification = float(state["max_amplification"])
        self.__post_init__()
