"""Linear-time relation evaluation — the paper's contribution.

Implements the evaluation conditions of Table 1 (third column) together
with Key Idea 2 / Theorem 19: a test ``≪̸(↓Y, X↑)`` between a past cut
of Y and a future cut of X is decided by comparing cut-timestamp
components **only at the nodes of** ``N_X`` (or, equivalently, only at
``N_Y``), because

* the surface events of ``X↑`` at nodes of ``N_X`` are the causally
  earliest events of ``S(X↑)``, and
* the surface events of ``↓Y`` at nodes of ``N_Y`` are the causally
  latest events of ``S(↓Y)``,

so any violation of ``≪`` must already be visible there.  Concretely,
with cut vectors ``v = T(↓Y)`` and ``w = T(X↑)`` (and ``w ≥ 1``
componentwise, which holds for every future cut):

    ``≪̸(↓Y, X↑)  ⟺  ∃ i ∈ N_X: v[i] ≥ w[i]  ⟺  ∃ i ∈ N_Y: v[i] ≥ w[i]``

The per-relation evaluation conditions then collapse to:

========  ================================================  =============
Relation  Vector condition                                  Comparisons
========  ================================================  =============
R1, R1'   ``∀i ∈ N_X: T(∩⇓Y)[i] ≥ lastX[i]``  *or*          min(|N_X|,|N_Y|)
          ``∀i ∈ N_Y: firstY[i] ≥ T(∪⇑X)[i]``
R2        ``∀i ∈ N_X: T(∪⇓Y)[i] ≥ lastX[i]``                |N_X|
R2'       ``∃i ∈ N_Y: T(∪⇓Y)[i] ≥ T(∪⇑X)[i]``               |N_Y|
R3        ``∃i ∈ N_X: T(∩⇓Y)[i] ≥ T(∩⇑X)[i]``               |N_X|
R3'       ``∀i ∈ N_Y: firstY[i] ≥ T(∩⇑X)[i]``               |N_Y|
R4, R4'   ``∃i ∈ S:   T(∪⇓Y)[i] ≥ T(∩⇑X)[i]``               min(|N_X|,|N_Y|)
========  ================================================  =============

where ``S`` is the smaller of ``N_X``/``N_Y``, ``lastX[i]`` is the local
index of X's greatest component event at node ``i`` and ``firstY[i]``
that of Y's least component event.  The universal rows use the paper's
refinement that only the per-node extremal events of X (resp. Y) need
individual ``≪̸`` tests, each a single comparison at that node.

**Deviation from Theorem 20.**  The paper places R2' and R3 in the
``min(|N_X|, |N_Y|)`` class.  This reproduction found that the
restricted scan is only sound on the side whose cut surface is
*anchored* at that side's own component events:

* the past cut ``∪⇓Y`` (and every ``↓y``) satisfies
  ``T[i] ≥ index(y_last(i))`` at each ``i ∈ N_Y`` — scanning ``N_Y``
  is sound whenever the past cut is union-like;
* the future cut ``∩⇑X`` (and every ``x↑``) satisfies
  ``T[i] ≤ index(x_first(i))`` at each ``i ∈ N_X`` — scanning ``N_X``
  is sound whenever the future cut is intersection-like.

``R2'`` pairs ``∪⇓Y`` with the *union* future cut ``∪⇑X`` (unanchored
at ``N_X``), and ``R3`` pairs ``∩⇑X`` with the *intersection* past cut
``∩⇓Y`` (unanchored at ``N_Y``); in both cases the opposite-side scan
admits concrete counterexamples (see
``tests/test_theorem20_deviation.py``), so this engine scans the sound
side only: ``|N_Y|`` for R2' and ``|N_X|`` for R3 — still linear, just
not always the smaller of the two.  R4 pairs two anchored cuts and
R1/R1' decompose into per-event tests with anchored singleton cuts, so
their ``min`` claims stand.

All conditions are exact for disjoint intervals (``X ∩ Y = ∅``); see
DESIGN.md §2 for the equality caveat the paper glosses in Section 2.2.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import ProxyDefinition, proxy_of
from .context import AnalysisContext
from .counting import NULL_COUNTER, ComparisonCounter
from .cuts import Cut
from .relations import Relation, RelationSpec

__all__ = ["LinearEvaluator", "not_ll_restricted"]


def not_ll_restricted(
    past: Cut,
    future: Cut,
    nodes: Iterable[int],
    counter: ComparisonCounter = NULL_COUNTER,
) -> bool:
    """Theorem 19's restricted ``≪̸`` test.

    Decides ``≪̸(past, future)`` by scanning only ``nodes`` (which must
    be a sound witness set: ``N_X``, ``N_Y``, or any superset of one of
    them — soundness is Key Idea 2, property-tested in the suite).
    ``future`` must be a future cut (componentwise ``>= 1``), which is
    what makes the ``v[i] >= 1`` guard of Definition 7 implicit.
    """
    v = past.vector
    w = future.vector
    for i in nodes:
        counter.add(1, "test")
        if v[i] >= w[i]:
            return True
    return False


class LinearEvaluator:
    """The paper's linear-time evaluator (Theorems 19 and 20).

    Parameters
    ----------
    execution:
        The analysed execution, or an
        :class:`~repro.core.context.AnalysisContext` to share one cut
        cache with other consumers.  A bare execution resolves to its
        shared context (:meth:`AnalysisContext.of`); the evaluator
        itself is a stateless strategy over that context.
    counter:
        Optional :class:`ComparisonCounter`.  Only *query-time*
        comparisons are recorded under category ``"test"``; the
        one-time cut construction (Section 2.3) is vectorised and
        accounted separately by the setup benchmarks.
    proxy_definition:
        Proxy definition used by :meth:`evaluate_spec`.
    node_restriction:
        If True (default, Key Idea 2), ``≪̸`` tests scan only
        ``min(N_X, N_Y)``; if False, they scan all ``|P|`` nodes — the
        ablation baseline A-2 in DESIGN.md.
    """

    name = "linear"

    def __init__(
        self,
        execution: "Execution | AnalysisContext",
        counter: ComparisonCounter | None = None,
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        node_restriction: bool = True,
    ) -> None:
        self.context = AnalysisContext.of(execution)
        self.execution = self.context.execution
        self.counter = counter if counter is not None else NULL_COUNTER
        self.proxy_definition = proxy_definition
        self.node_restriction = node_restriction
        #: Number of ``≪̸`` decision-procedure invocations performed:
        #: each singleton extremal-event test of a universal row and
        #: each restricted cut-pair scan of an existential row counts
        #: as one.  Kept separate from :attr:`counter` (which records
        #: integer *comparisons* and backs the Theorem-20 bound tests);
        #: benchmarks diff this against
        #: :attr:`~repro.core.evaluator.SharedVerdictCache.evals`.
        self.ll_tests = 0

    # ------------------------------------------------------------------
    # the three test shapes
    # ------------------------------------------------------------------
    def _scan_nodes(
        self,
        x: NonatomicEvent,
        y: NonatomicEvent,
        anchored_x: bool,
        anchored_y: bool,
    ) -> Sequence[int]:
        """Witness node set for a single ``≪̸`` test.

        ``anchored_x``/``anchored_y`` say which sides' restricted scans
        are sound for the cut pair at hand (see the module docstring's
        anchoring rule); the smaller sound side is chosen.
        """
        if not self.node_restriction:
            return range(self.execution.num_nodes)
        nx, ny = x.node_set, y.node_set
        if anchored_x and anchored_y:
            return nx if len(nx) <= len(ny) else ny
        if anchored_x:
            return nx
        if anchored_y:
            return ny
        return range(self.execution.num_nodes)  # pragma: no cover - unused

    def _single_test(
        self,
        past_of_y: Cut,
        future_of_x: Cut,
        x: NonatomicEvent,
        y: NonatomicEvent,
        anchored_x: bool,
        anchored_y: bool,
    ) -> bool:
        """One ``≪̸(↓Y, X↑)`` test (relations R2', R3, R4, R4')."""
        self.ll_tests += 1
        return not_ll_restricted(
            past_of_y,
            future_of_x,
            self._scan_nodes(x, y, anchored_x, anchored_y),
            self.counter,
        )

    def _forall_x(self, past_of_y: Cut, x: NonatomicEvent) -> bool:
        """``∀x: ≪̸(↓Y, x↑)`` via per-node greatest events of X.

        Each singleton test is one comparison at that event's own node:
        ``T(↓Y)[i] ≥ index(x)`` (the future cut of ``x`` surfaces at
        ``x`` itself on its node).
        """
        v = past_of_y.vector
        if self.node_restriction:
            for i, last in zip(x.node_set, x.last_indices(), strict=True):
                self.ll_tests += 1
                self.counter.add(1, "test")
                if v[i] < last:
                    return False
            return True
        # Ablation: full ≪̸ test over all |P| nodes for each extremal x.
        ex = self.execution
        from .cuts import future_cut  # local import to avoid cycle at module load

        for eid in x.last_ids():
            self.ll_tests += 1
            fut = future_cut(ex, eid)
            if not not_ll_restricted(past_of_y, fut,
                                     range(ex.num_nodes), self.counter):
                return False
        return True

    def _forall_y(self, future_of_x: Cut, y: NonatomicEvent) -> bool:
        """``∀y: ≪̸(↓y, X↑)`` via per-node least events of Y.

        Each singleton test is one comparison at that event's own node:
        ``index(y) ≥ T(X↑)[i]`` (the past cut of ``y`` surfaces at ``y``
        itself on its node).
        """
        w = future_of_x.vector
        if self.node_restriction:
            for i, first in zip(y.node_set, y.first_indices(), strict=True):
                self.ll_tests += 1
                self.counter.add(1, "test")
                if first < w[i]:
                    return False
            return True
        ex = self.execution
        from .cuts import past_cut

        for eid in y.first_ids():
            self.ll_tests += 1
            pst = past_cut(ex, eid)
            if not not_ll_restricted(pst, future_of_x,
                                     range(ex.num_nodes), self.counter):
                return False
        return True

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self, relation: Relation, x: NonatomicEvent, y: NonatomicEvent
    ) -> bool:
        """Evaluate ``R(X, Y)`` with Theorem-20 complexity.

        The relevant cuts of X and Y are computed once and memoized in
        the shared :class:`~repro.core.context.CutCache` keyed by
        interval identity (Key Idea 1); repeat queries — even through
        other evaluators or distinct-but-equal interval objects — reuse
        them.
        """
        if x.execution is not self.execution or y.execution is not self.execution:
            raise ValueError("intervals do not belong to this evaluator's execution")
        cut = self.context.cut_cache.cut
        if relation in (Relation.R1, Relation.R1P):
            if len(x.node_set) <= len(y.node_set):
                return self._forall_x(cut(y, "C1"), x)
            return self._forall_y(cut(x, "C4"), y)
        if relation is Relation.R2:
            return self._forall_x(cut(y, "C2"), x)
        if relation is Relation.R3P:
            return self._forall_y(cut(x, "C3"), y)
        if relation is Relation.R2P:
            # ∪⇑X is unanchored at N_X: only the N_Y scan is sound.
            return self._single_test(
                cut(y, "C2"), cut(x, "C4"), x, y, anchored_x=False, anchored_y=True
            )
        if relation is Relation.R3:
            # ∩⇓Y is unanchored at N_Y: only the N_X scan is sound.
            return self._single_test(
                cut(y, "C1"), cut(x, "C3"), x, y, anchored_x=True, anchored_y=False
            )
        if relation in (Relation.R4, Relation.R4P):
            return self._single_test(
                cut(y, "C2"), cut(x, "C3"), x, y, anchored_x=True, anchored_y=True
            )
        raise ValueError(f"unknown relation: {relation!r}")  # pragma: no cover

    def evaluate_spec(
        self, spec: RelationSpec, x: NonatomicEvent, y: NonatomicEvent
    ) -> bool:
        """Evaluate a 32-family relation ``r(X,Y) = R(X̂, Ŷ)``.

        Per Section 2.5, the proxies are themselves nonatomic poset
        events (with at most one component event per node), so the base
        evaluation applies unchanged — with the proxies' cuts cached on
        the proxy objects, which are in turn cached on the intervals.
        """
        px = proxy_of(x, spec.proxy_x, self.proxy_definition)
        py = proxy_of(y, spec.proxy_y, self.proxy_definition)
        return self.evaluate(spec.relation, px, py)
