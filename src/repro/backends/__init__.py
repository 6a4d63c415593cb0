"""The causality backend.

One encoding of the causal order ``≺`` answers every query:
:class:`~repro.backends.vector.VectorClockBackend`, the columnar
vector-clock substrate of the paper's Definitions 13 and 14.
:mod:`repro.backends.base` is the seam through which the engines reach
the clock substrate (streaming tables, pass counters), and
:mod:`repro.backends.stats` holds the columnar cut-stat kernels.

Layering: this package sits between the events substrate and the
evaluation engines (``events < nonatomic < backends < core``); nothing
here imports :mod:`repro.core`.
"""

# repro: dtype-strict

from .base import (
    StreamingClockTable,
    default_backend_name,
    make_streaming_table,
)
from .stats import CutStats, cut_stats_from_arrays, cut_stats_from_extrema
from .vector import VectorClockBackend

__all__ = [
    "CutStats",
    "StreamingClockTable",
    "VectorClockBackend",
    "cut_stats_from_arrays",
    "cut_stats_from_extrema",
    "default_backend_name",
    "make_streaming_table",
]
