"""The causality backend: columnar vector clocks.

:class:`VectorClockBackend` answers every query on the causal order
``≺`` the relation tests make: pairwise ``precedes`` / ``concurrent``,
per-event timestamp rows, and scalar and batched Table-2 cut fills.  It
is a thin adapter over the columnar clock substrate the
:class:`~repro.events.poset.Execution` already maintains (forward table
eager, reverse table lazy), so it adds no storage of its own and
inherits the substrate's version discipline for free —
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
from .stats import CutStats, _stats_from_extrema, flatten_extrema

if TYPE_CHECKING:
    from ..events.poset import Execution
    from ..nonatomic.event import NonatomicEvent

__all__ = ["VectorClockBackend"]


class VectorClockBackend:
    """Causality queries answered by the columnar clock tables.

    All queries are over *real* events (dummy ``⊥``/``⊤`` handling
    stays symbolic in :class:`~repro.events.poset.Execution`).
    Stateless beyond the execution reference: both tables live on the
    execution (version-disciplined there), so every query reads the
    current structures and answers for the grown execution after
    :meth:`Execution.extend`.
    """

    __slots__ = ("_execution",)

    def __init__(self, execution: "Execution") -> None:
        self._execution = execution

    # ------------------------------------------------------------------
    # pairwise order
    # ------------------------------------------------------------------
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b`` via the canonical O(1) clock-component test."""
        return self._execution.leq(a, b)

    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b``: strict causal precedence (irreflexive)."""
        return a != b and self.leq(a, b)

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """``a ∥ b``: neither ``a ≼ b`` nor ``b ≼ a``."""
        return not self.leq(a, b) and not self.leq(b, a)

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
    # cut fills
    # ------------------------------------------------------------------
    def cut_vector(self, x: "NonatomicEvent", which: str) -> np.ndarray:
        """One Table-2 cut timestamp of ``x`` as a read-only int64
        vector (``which`` in ``C1``/``C2``/``C3``/``C4``).

        Past cuts (C1/C2) never force the lazy reverse pass.
        """
        if which == "C1":
            vec = self.forward_rows(x.first_ids()).min(axis=0)
        elif which == "C2":
            vec = self.forward_rows(x.last_ids()).max(axis=0)
        elif which in ("C3", "C4"):
            beyond = np.asarray(self._execution.lengths, dtype=np.int64) + 1
            if which == "C3":
                vec = beyond - self.reverse_rows(x.first_ids()).max(axis=0)
            else:
                vec = beyond - self.reverse_rows(x.last_ids()).min(axis=0)
        else:
            raise ValueError(f"unknown cut: {which!r}")
        vec = np.ascontiguousarray(vec, dtype=np.int64)
        vec.setflags(write=False)
        return vec

    def cut_stats(self, intervals: Sequence["NonatomicEvent"]) -> CutStats:
        """All four Table-2 cuts plus extremal vectors for a whole
        interval set, rows aligned with the input order.

        Flattens the intervals' per-node extrema
        (:func:`~repro.backends.stats.flatten_extrema`) and hands them
        to :meth:`cut_stats_arrays`.
        """
        ex = self._execution
        for iv in intervals:
            if iv.execution is not ex:
                raise ValueError("interval does not belong to this execution")
        return self.cut_stats_arrays(*flatten_extrema(intervals))

    def cut_stats_arrays(
        self,
        nodes: np.ndarray,
        first_idx: np.ndarray,
        last_idx: np.ndarray,
        counts: np.ndarray,
        out: CutStats | None = None,
    ) -> CutStats:
        """The batched cut fill over flattened per-node extrema.

        Row ``i`` of the result covers ``counts[i]`` consecutive entries
        of ``nodes``/``first_idx``/``last_idx``: the nodes an interval
        spans with its least and greatest component index on each.  A
        cut depends on an interval only through these extrema, so
        callers holding them (a Definition-2 proxy *is* one extremal
        event per node) need no interval object.  Entries naming no
        real event raise :class:`ValueError`
        (:func:`~repro.backends.stats.check_extrema`).  Four gathers
        and four segmented reductions over the columnar clock tables
        (:func:`~repro.backends.stats._stats_from_extrema`), in blocks
        of :data:`~repro.backends.stats.FILL_BLOCK` intervals, written
        into ``out`` when given (one writable ``CLOCK_DTYPE`` row per
        interval) and into new read-only matrices otherwise.
        """
        fwd = self._execution.forward_table
        rev = self._execution.reverse_table
        return _stats_from_extrema(
            fwd.data, rev.data, fwd.offsets, fwd.lengths,
            nodes, first_idx, last_idx, counts, out,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._execution!r})"
