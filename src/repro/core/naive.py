"""Naive relation evaluation straight from the definitions.

Evaluates each relation by expanding its quantifiers over *all*
component atomic events of X and Y — ``O(|X| · |Y|)`` causality checks.
This is the cost the paper's introduction attributes to evaluation
*"without the use of proxies in the definitions of causality"*, and it
serves as the ground-truth semantics every other engine is verified
against.
"""

from __future__ import annotations

from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import ProxyDefinition, proxy_of
from .context import AnalysisContext
from .counting import NULL_COUNTER, ComparisonCounter
from .relations import Relation, RelationSpec, quantifier_eval

__all__ = ["NaiveEvaluator"]


class NaiveEvaluator:
    """Definition-level evaluator (``O(|X| · |Y|)`` per relation).

    Parameters
    ----------
    execution:
        The analysed execution, or an
        :class:`~repro.core.context.AnalysisContext` (this engine only
        needs the forward clocks, but accepts the context so all
        engines are interchangeable strategies over one substrate).
    counter:
        Optional :class:`ComparisonCounter`; each causality check counts
        as one integer comparison (the canonical clock test is a single
        comparison once clocks exist).
    proxy_definition:
        Proxy definition used when evaluating 32-family specs.
    """

    name = "naive"

    def __init__(
        self,
        execution: "Execution | AnalysisContext",
        counter: ComparisonCounter | None = None,
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
    ) -> None:
        self.context = AnalysisContext.of(execution)
        self.execution = self.context.execution
        self.counter = counter if counter is not None else NULL_COUNTER
        self.proxy_definition = proxy_definition

    # ------------------------------------------------------------------
    def _precedes(self, a: EventId, b: EventId) -> bool:
        self.counter.add(1, "test")
        return self.execution.precedes(a, b)

    def evaluate(
        self, relation: Relation, x: NonatomicEvent, y: NonatomicEvent
    ) -> bool:
        """Evaluate a base relation ``R(X, Y)`` over all atomic events."""
        return quantifier_eval(self._precedes, relation, list(x), list(y))

    def evaluate_spec(
        self, spec: RelationSpec, x: NonatomicEvent, y: NonatomicEvent
    ) -> bool:
        """Evaluate a 32-family relation ``r(X, Y) = R(X̂, Ŷ)``.

        The proxies are formed per the configured definition and the
        base relation is expanded over their events.
        """
        px = proxy_of(x, spec.proxy_x, self.proxy_definition)
        py = proxy_of(y, spec.proxy_y, self.proxy_definition)
        return self.evaluate(spec.relation, px, py)
