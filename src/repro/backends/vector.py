"""The default causality backend: columnar vector clocks.

:class:`VectorClockBackend` is a thin adapter over the columnar clock
substrate the :class:`~repro.events.poset.Execution` already maintains
(forward table eager, reverse table lazy), so it adds no storage of its
own and inherits the substrate's version discipline for free —
:meth:`Execution.extend` advances the forward table incrementally and
the reverse table rebuilds lazily.

:meth:`VectorClockBackend.cut_stats_arrays` is the batched Table-2 cut
fill over the dense matrices (four gathers + four segmented
reductions); it is the implementation behind the long-standing
:func:`repro.core.cuts.cut_stats` entry point.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.event import EventId
from .base import CausalityBackend, register_backend
from .stats import CutStats, _stats_from_extrema

if TYPE_CHECKING:
    from ..events.poset import Execution

__all__ = ["VectorClockBackend"]


@register_backend
class VectorClockBackend(CausalityBackend):
    """Causality queries answered by the columnar clock tables.

    Stateless beyond the execution reference: both tables live on the
    execution (version-disciplined there), so :meth:`invalidate` is a
    no-op and every query reads the current structures directly.
    """

    __slots__ = ()

    name = "vector"

    def invalidate(self) -> None:
        """No-op: the clock tables are owned (and versioned) by the
        execution itself."""

    # ------------------------------------------------------------------
    # pairwise order
    # ------------------------------------------------------------------
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b`` via the canonical O(1) clock-component test."""
        return self._execution.leq(a, b)

    # ------------------------------------------------------------------
    # timestamp-row queries
    # ------------------------------------------------------------------
    def forward_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T(e)`` rows — one gather from the forward table."""
        table = self._execution.forward_table
        rows = table.data[table.flat_indices(ids)].astype(np.int64)
        rows.setflags(write=False)
        return rows

    def reverse_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T^R(e)`` rows — one gather from the reverse table
        (first use triggers the execution's lazy reverse pass)."""
        table = self._execution.reverse_table
        rows = table.data[table.flat_indices(ids)].astype(np.int64)
        rows.setflags(write=False)
        return rows

    # ------------------------------------------------------------------
    # batched cut fill
    # ------------------------------------------------------------------
    def cut_stats_arrays(
        self,
        nodes: np.ndarray,
        first_idx: np.ndarray,
        last_idx: np.ndarray,
        counts: np.ndarray,
    ) -> CutStats:
        """Four gathers and four segmented reductions over the columnar
        clock tables (:func:`~repro.backends.stats._stats_from_extrema`)."""
        fwd = self._execution.forward_table
        rev = self._execution.reverse_table
        return _stats_from_extrema(
            fwd.data, rev.data, fwd.offsets, fwd.lengths,
            nodes, first_idx, last_idx, counts,
        )
