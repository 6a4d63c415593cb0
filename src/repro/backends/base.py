"""The clock-substrate seam for the engines above the events layer.

The evaluation layers (:mod:`repro.core`, :mod:`repro.monitor`, the
service) never import the clock substrate directly (enforced by
``tests/test_backends.py``).  Offline queries go through
:class:`~repro.backends.vector.VectorClockBackend`; this module hands
out the rest:

* the *streaming* storage: the online monitor obtains its append-only
  clock storage through :func:`make_streaming_table` (type
  :data:`StreamingClockTable`);
* the clock dtype and the clock-pass counters.
"""

from __future__ import annotations

# repro: dtype-strict

from ..events.clocks import (
    CLOCK_DTYPE,
    GrowableClockTable,
    clock_pass_counts,
    reset_clock_pass_counts,
)

__all__ = [
    "CLOCK_DTYPE",
    "StreamingClockTable",
    "clock_pass_counts",
    "default_backend_name",
    "make_streaming_table",
    "reset_clock_pass_counts",
]

#: Append-only forward-clock storage handed to streaming consumers.
#: An alias (not a subclass) so monitor code can type-annotate and
#: construct streaming storage without importing the clock substrate.
StreamingClockTable = GrowableClockTable


def make_streaming_table(num_nodes: int, capacity: int = 16) -> StreamingClockTable:
    """Append-only forward-clock storage for streaming ingestion.

    The online monitor's substrate factory: one capacity-doubling
    ``(cap_i, |P|)`` block per node, O(|P|) amortized appends, and a
    version-memoized zero-pass :meth:`snapshot
    <repro.events.clocks.GrowableClockTable.snapshot>` for finalisation.
    """
    return GrowableClockTable(num_nodes, capacity=capacity)


def default_backend_name() -> str:
    """The name of the one causality encoding: ``"vector"``.

    Benchmark records carry it as host metadata.
    """
    return "vector"
