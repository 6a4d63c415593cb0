"""Pluggable causality backends.

One protocol — :class:`~repro.backends.base.CausalityBackend` — and two
encodings of the causal order ``≺``:

* ``vector`` (:class:`~repro.backends.vector.VectorClockBackend`):
  the columnar vector-clock substrate, default;
* ``reachability``
  (:class:`~repro.backends.reachability.ReachabilityBackend`):
  breakpoint-compressed transitive reachability, no dense matrices.

Select per call site (``AnalysisContext(ex, backend="reachability")``,
``--backend`` on the CLI) or process-wide via the ``REPRO_BACKEND``
environment variable.  :mod:`repro.backends.reduction` provides the
commutativity-based trace-coarsening preprocessing pass.

Layering: this package sits between the events substrate and the
evaluation engines (``events < nonatomic < backends < core``); nothing
here imports :mod:`repro.core`.
"""

# repro: dtype-strict

from .base import (
    BACKENDS,
    CausalityBackend,
    StreamingClockTable,
    default_backend_name,
    make_backend,
    make_streaming_table,
    register_backend,
)
from .reachability import ReachabilityBackend
from .reduction import CommutativityRules, TraceReduction, reduce_trace
from .stats import CutStats, cut_stats_from_arrays, cut_stats_from_extrema
from .vector import VectorClockBackend

__all__ = [
    "BACKENDS",
    "CausalityBackend",
    "CommutativityRules",
    "CutStats",
    "ReachabilityBackend",
    "StreamingClockTable",
    "TraceReduction",
    "VectorClockBackend",
    "cut_stats_from_arrays",
    "cut_stats_from_extrema",
    "default_backend_name",
    "make_backend",
    "make_streaming_table",
    "reduce_trace",
    "register_backend",
]
