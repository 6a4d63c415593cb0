"""Explainable relation evaluation.

``holds()`` answers *whether* a relation holds; :func:`explain` answers
*why*: which cut pair was tested, which nodes were scanned, the
compared timestamp components, and — for a positive existential or a
negative universal — the witness node that decided it.  Real-time
engineers debugging a failed synchronization condition need exactly
this ("the actuation on node 5 is not covered by the sample round"),
and the examples use it for narrative output.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import ProxyDefinition, proxy_of
from collections.abc import Iterable

from .cuts import Cut, cut_C1, cut_C2, cut_C3, cut_C4
from .relations import Relation, RelationSpec, parse_spec

__all__ = ["Comparison", "Explanation", "explain"]


@dataclass(frozen=True, slots=True)
class Comparison:
    """One integer comparison of the linear evaluation."""

    node: int
    past_component: int  # T(↓Y)[node] or firstY index
    future_component: int  # T(X↑)[node] or lastX index
    satisfied: bool  # past >= future (the ≪̸ witness direction)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        op = ">=" if self.satisfied else "<"
        return (
            f"node {self.node}: {self.past_component} {op} "
            f"{self.future_component}"
        )


@dataclass(frozen=True, slots=True)
class Explanation:
    """Full account of one linear-engine evaluation."""

    relation: Relation
    holds: bool
    mode: str  # "forall-x" | "forall-y" | "exists"
    cut_pair: tuple[str, str]  # names of the cuts compared
    scanned_nodes: tuple[int, ...]
    comparisons: tuple[Comparison, ...]
    witness_node: int | None  # decisive node (if short-circuited)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "holds" if self.holds else "fails"
        lines = [
            f"{self.relation.display}(X, Y) {verdict} "
            f"[{self.mode}; {self.cut_pair[0]} vs {self.cut_pair[1]}; "
            f"scanned nodes {list(self.scanned_nodes)}]"
        ]
        lines.extend(f"  {c}" for c in self.comparisons)
        if self.witness_node is not None:
            lines.append(f"  decided at node {self.witness_node}")
        return "\n".join(lines)


def _forall_x(
    relation: Relation, past_cut_name: str, past: Cut, x: NonatomicEvent
) -> Explanation:
    comparisons: list[Comparison] = []
    witness: int | None = None
    holds = True
    v = past.vector
    for i, last in zip(x.node_set, x.last_indices(), strict=True):
        cmp_ = Comparison(
            node=i,
            past_component=int(v[i]),
            future_component=last,
            satisfied=bool(v[i] >= last),
        )
        comparisons.append(cmp_)
        if not cmp_.satisfied:
            holds = False
            witness = i
            break
    return Explanation(
        relation=relation,
        holds=holds,
        mode="forall-x",
        cut_pair=(past_cut_name, "x↑ (per-node last)"),
        scanned_nodes=x.node_set,
        comparisons=tuple(comparisons),
        witness_node=witness,
    )


def _forall_y(
    relation: Relation, fut_cut_name: str, fut: Cut, y: NonatomicEvent
) -> Explanation:
    comparisons: list[Comparison] = []
    witness: int | None = None
    holds = True
    w = fut.vector
    for i, first in zip(y.node_set, y.first_indices(), strict=True):
        cmp_ = Comparison(
            node=i,
            past_component=first,
            future_component=int(w[i]),
            satisfied=bool(first >= w[i]),
        )
        comparisons.append(cmp_)
        if not cmp_.satisfied:
            holds = False
            witness = i
            break
    return Explanation(
        relation=relation,
        holds=holds,
        mode="forall-y",
        cut_pair=("↓y (per-node first)", fut_cut_name),
        scanned_nodes=y.node_set,
        comparisons=tuple(comparisons),
        witness_node=witness,
    )


def _exists(
    relation: Relation,
    past_name: str,
    past: Cut,
    fut_name: str,
    fut: Cut,
    nodes: Iterable[int],
) -> Explanation:
    comparisons: list[Comparison] = []
    witness: int | None = None
    holds = False
    v, w = past.vector, fut.vector
    for i in nodes:
        cmp_ = Comparison(
            node=i,
            past_component=int(v[i]),
            future_component=int(w[i]),
            satisfied=bool(v[i] >= w[i]),
        )
        comparisons.append(cmp_)
        if cmp_.satisfied:
            holds = True
            witness = i
            break
    return Explanation(
        relation=relation,
        holds=holds,
        mode="exists",
        cut_pair=(past_name, fut_name),
        scanned_nodes=tuple(nodes),
        comparisons=tuple(comparisons),
        witness_node=witness,
    )


def explain(
    spec: str | Relation | RelationSpec,
    x: NonatomicEvent,
    y: NonatomicEvent,
    proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
) -> Explanation:
    """Evaluate ``spec(x, y)`` with the linear conditions, keeping the
    evidence.

    The verdict always equals ``SynchronizationAnalyzer.holds`` (the
    suite asserts it); the extras are the scanned nodes, every
    comparison made, and the decisive witness node when the evaluation
    short-circuited.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if isinstance(spec, RelationSpec):
        px = proxy_of(x, spec.proxy_x, proxy_definition)
        py = proxy_of(y, spec.proxy_y, proxy_definition)
        inner = explain(spec.relation, px, py, proxy_definition)
        return inner
    relation = spec
    if relation in (Relation.R1, Relation.R1P):
        if x.width <= y.width:
            return _forall_x(relation, "∩⇓Y", cut_C1(y), x)
        return _forall_y(relation, "∪⇑X", cut_C4(x), y)
    if relation is Relation.R2:
        return _forall_x(relation, "∪⇓Y", cut_C2(y), x)
    if relation is Relation.R3P:
        return _forall_y(relation, "∩⇑X", cut_C3(x), y)
    if relation is Relation.R2P:
        return _exists(relation, "∪⇓Y", cut_C2(y), "∪⇑X", cut_C4(x),
                       y.node_set)
    if relation is Relation.R3:
        return _exists(relation, "∩⇓Y", cut_C1(y), "∩⇑X", cut_C3(x),
                       x.node_set)
    if relation in (Relation.R4, Relation.R4P):
        nodes = x.node_set if x.width <= y.width else y.node_set
        return _exists(relation, "∪⇓Y", cut_C2(y), "∩⇑X", cut_C3(x), nodes)
    raise ValueError(f"unknown relation: {relation!r}")  # pragma: no cover
