"""The O(1)-space site summaries the tracking protocols are built on.

Misra–Gries (deterministic frequency), sticky sampling (randomized
frequency), the mergeable quantile builder (randomized rank) and the
exponential histogram (sliding-window count).
"""

from .exponential_histogram import ExponentialHistogram
from .mergeable_quantile import QuantileSketchBuilder, QuantileSummary
from .misra_gries import MisraGries
from .sticky_sampling import StickySampler

__all__ = [
    "ExponentialHistogram",
    "QuantileSketchBuilder",
    "QuantileSummary",
    "MisraGries",
    "StickySampler",
]
