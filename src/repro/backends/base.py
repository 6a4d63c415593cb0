"""The :class:`CausalityBackend` protocol and backend registry.

The paper's Table-1/Table-2 tests only ever consume the causal order
``≺`` through a handful of primitives: pairwise ``precedes`` /
``concurrent`` queries, per-event timestamp rows, and batched Table-2
cut fills over interval sets.  This module carves that contract out of
the ``Execution``/``ClockTable`` tangle as an explicit protocol so the
evaluation layers (:mod:`repro.core`, :mod:`repro.monitor`, the CLI)
can be retargeted onto *any* encoding of ``≺``:

* :class:`~repro.backends.vector.VectorClockBackend` — a thin adapter
  over the columnar clock substrate (the default);
* :class:`~repro.backends.reachability.ReachabilityBackend` — a
  breakpoint-compressed transitive-reachability encoding that answers
  the same queries without materialising ``(|E|, |P|)`` matrices.

Backends follow the repository-wide version discipline: all derived
structures are keyed on :attr:`Execution.version
<repro.events.poset.Execution.version>` and rebuilt (at most once per
version) after :meth:`Execution.extend` growth.

This module also owns the *streaming* seam: the online monitor obtains
its append-only clock storage through :func:`make_streaming_table`
(type :data:`StreamingClockTable`) instead of importing the clock
substrate directly — no engine above the events layer names
``ClockTable``/``GrowableClockTable`` anymore (enforced by
``tests/test_backends.py``).
"""

from __future__ import annotations

# repro: dtype-strict

import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.clocks import (
    CLOCK_DTYPE,
    GrowableClockTable,
    clock_pass_counts,
    reset_clock_pass_counts,
)
from ..events.event import EventId
from .stats import CutStats, flatten_extrema

if TYPE_CHECKING:
    from ..events.poset import Execution
    from ..nonatomic.event import NonatomicEvent

__all__ = [
    "CLOCK_DTYPE",
    "BACKENDS",
    "CausalityBackend",
    "StreamingClockTable",
    "clock_pass_counts",
    "default_backend_name",
    "make_backend",
    "make_streaming_table",
    "register_backend",
    "reset_clock_pass_counts",
]

#: Environment variable naming the process-default backend.
BACKEND_ENV = "REPRO_BACKEND"

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


class CausalityBackend(ABC):
    """One encoding of the causal order ``≺`` over an execution.

    A backend owns four query families, each defined over *real*
    events (dummy ``⊥``/``⊤`` handling stays symbolic in
    :class:`~repro.events.poset.Execution`):

    * pairwise order: :meth:`leq` / :meth:`precedes` / :meth:`concurrent`;
    * extremal-vector queries: :meth:`forward_rows` / :meth:`reverse_rows`
      return stacked timestamp rows for arbitrary event ids;
    * scalar cut fills: :meth:`cut_vector` computes one Table-2 cut;
    * batched cut-stat fills: :meth:`cut_stats_arrays` fills all four
      cuts plus extremal indices for a whole set of flattened per-node
      extrema (:meth:`cut_stats` adapts interval objects to it).

    Derived structures must be keyed on ``execution.version``; callers
    may invoke any query after :meth:`Execution.extend` and expect
    answers for the grown execution (rebuilds happen lazily, at most
    once per version per direction).
    """

    __slots__ = ("_execution",)

    #: Registry key; subclasses override.
    name = "abstract"

    def __init__(self, execution: "Execution") -> None:
        self._execution = execution

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> "Execution":
        """The execution whose causal order this backend encodes."""
        return self._execution

    @property
    def num_nodes(self) -> int:
        """``|P|`` — the vector width."""
        return self._execution.num_nodes

    # ------------------------------------------------------------------
    # pairwise order
    # ------------------------------------------------------------------
    @abstractmethod
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b`` for real events ``a``, ``b``."""

    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b``: strict causal precedence (irreflexive)."""
        return a != b and self.leq(a, b)

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """``a ∥ b``: neither ``a ≼ b`` nor ``b ≼ a``."""
        return not self.leq(a, b) and not self.leq(b, a)

    # ------------------------------------------------------------------
    # timestamp-row queries
    # ------------------------------------------------------------------
    @abstractmethod
    def forward_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked forward timestamps ``T(e)`` as a ``(k, P)`` int64
        array, row ``i`` for ``ids[i]``."""

    @abstractmethod
    def reverse_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked reverse timestamps ``T^R(e)`` as a ``(k, P)`` int64
        array, row ``i`` for ``ids[i]``."""

    # ------------------------------------------------------------------
    # cut fills
    # ------------------------------------------------------------------
    def cut_vector(self, x: "NonatomicEvent", which: str) -> np.ndarray:
        """One Table-2 cut timestamp of ``x`` as a read-only int64
        vector (``which`` in ``C1``/``C2``/``C3``/``C4``).

        Past cuts (C1/C2) must not force the reverse structure, so
        past-only consumers keep the laziness contract of the vector
        substrate under every backend.
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

    @abstractmethod
    def cut_stats_arrays(
        self,
        nodes: np.ndarray,
        first_idx: np.ndarray,
        last_idx: np.ndarray,
        counts: np.ndarray,
    ) -> CutStats:
        """The batched cut fill over flattened per-node extrema.

        Row ``i`` of the result covers ``counts[i]`` consecutive entries
        of ``nodes``/``first_idx``/``last_idx``: the nodes an interval
        spans with its least and greatest component index on each.  A
        cut depends on an interval only through these extrema, so
        callers holding them (a Definition-2 proxy *is* one extremal
        event per node) need no interval object.  Entries naming no
        real event raise :class:`ValueError`
        (:func:`~repro.backends.stats.check_extrema`).
        """

    # ------------------------------------------------------------------
    # version discipline
    # ------------------------------------------------------------------
    @abstractmethod
    def invalidate(self) -> None:
        """Drop derived structures and re-arm against the current
        execution version."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._execution!r})"


#: Registered backend implementations, keyed by :attr:`CausalityBackend.name`.
BACKENDS: dict[str, type[CausalityBackend]] = {}


def register_backend(cls: type[CausalityBackend]) -> type[CausalityBackend]:
    """Class decorator adding a backend to :data:`BACKENDS`."""
    BACKENDS[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    # Import the bundled implementations for their registration side
    # effect; deferred to avoid a base <-> implementation import cycle.
    if "vector" not in BACKENDS:
        from . import reachability, vector  # noqa: F401


def default_backend_name() -> str:
    """The process-default backend name.

    Reads the ``REPRO_BACKEND`` environment variable (CI runs the whole
    tier-1 suite under ``REPRO_BACKEND=reachability``); defaults to
    ``"vector"``.
    """
    _ensure_registered()
    name = os.environ.get(BACKEND_ENV, "vector")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown causality backend {name!r} (from ${BACKEND_ENV}); "
            f"available: {sorted(BACKENDS)}"
        )
    return name


def make_backend(
    name: "str | None", execution: "Execution"
) -> CausalityBackend:
    """Instantiate a causality backend over ``execution``.

    ``name`` is a :data:`BACKENDS` key, or None for the process default
    (see :func:`default_backend_name`).
    """
    _ensure_registered()
    if name is None:
        name = default_backend_name()
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown causality backend {name!r}; available: "
            f"{sorted(BACKENDS)}"
        ) from None
    return cls(execution)
