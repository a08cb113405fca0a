"""Small shared utilities: seeded RNG helpers, validation, Zipf."""

from repro.utils.rng import make_rng
from repro.utils.validation import (
    require,
    require_positive,
    require_probability,
    require_non_negative,
)
from repro.utils.zipf import ZipfSampler, zipf_weights

__all__ = [
    "make_rng",
    "require",
    "require_positive",
    "require_probability",
    "require_non_negative",
    "ZipfSampler",
    "zipf_weights",
]
