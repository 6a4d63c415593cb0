"""Interval-level precedence structure of an execution.

Once an application has identified its nonatomic events, the natural
next question is the *global picture*: which activities precede which,
what can be said to have run concurrently, and in what layers the
activities could be serialised.  This module lifts the pairwise
relations to that level:

* :func:`interval_order_graph` — the digraph of one relation over a
  set of intervals (vectorised via
  :meth:`~repro.core.evaluator.SynchronizationAnalyzer.relation_matrix`);
* :func:`concurrent_pairs` — interval pairs with no R4 coupling in
  either direction (fully causally independent);
* :func:`serialization_layers` — topological generations of the
  ``R1(U,L)`` order: a schedule-like layering where each layer's
  activities are mutually unordered.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..core.evaluator import SynchronizationAnalyzer
from ..core.relations import Relation, RelationSpec, parse_spec
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy

__all__ = [
    "interval_order_graph",
    "concurrent_pairs",
    "serialization_layers",
]

if TYPE_CHECKING:
    import networkx as nx

_DEFAULT_ORDER = RelationSpec(Relation.R1, Proxy.U, Proxy.L)


def _names(intervals: Sequence[NonatomicEvent]) -> list[str]:
    return [
        iv.name if iv.name is not None else f"I{k}"
        for k, iv in enumerate(intervals)
    ]


def interval_order_graph(
    intervals: Sequence[NonatomicEvent],
    spec: str | Relation | RelationSpec = _DEFAULT_ORDER,
) -> "nx.DiGraph":
    """Digraph with an edge ``a → b`` whenever ``spec(a, b)`` holds.

    Nodes are interval names (positional fallbacks ``I<k>``); each node
    carries its interval under the ``"interval"`` attribute.  For the
    default ``R1(U,L)`` order over pairwise-disjoint intervals the
    result is a DAG (asymmetry of R1).
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    names = _names(intervals)
    if len(set(names)) != len(names):
        raise ValueError("interval names must be unique")
    import networkx as nx

    g = nx.DiGraph()
    for name, iv in zip(names, intervals, strict=True):
        g.add_node(name, interval=iv)
    if len(intervals) >= 2:
        matrix = SynchronizationAnalyzer(
            intervals[0].execution
        ).relation_matrix(intervals, spec)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i != j and matrix[i, j]:
                    g.add_edge(a, b)
    return g


def concurrent_pairs(
    intervals: Sequence[NonatomicEvent],
) -> list[tuple[str, str]]:
    """Interval pairs with no causal coupling at all.

    A pair is *fully concurrent* when ``R4`` holds in neither
    direction: no component of one precedes any component of the
    other.  Returned as sorted name pairs.
    """
    names = _names(intervals)
    if len(intervals) < 2:
        return []
    matrix = SynchronizationAnalyzer(intervals[0].execution).relation_matrix(
        intervals, Relation.R4
    )
    out: list[tuple[str, str]] = []
    for i in range(len(intervals)):
        for j in range(i + 1, len(intervals)):
            if not matrix[i, j] and not matrix[j, i]:
                out.append((names[i], names[j]))
    return out


def serialization_layers(
    intervals: Sequence[NonatomicEvent],
    spec: str | Relation | RelationSpec = _DEFAULT_ORDER,
) -> list[list[str]]:
    """Topological generations of the interval order.

    Layer ``t`` holds the intervals whose every ``spec``-predecessor
    sits in earlier layers; intervals within a layer are mutually
    unordered under ``spec``.  Raises :class:`ValueError` if the chosen
    relation produces a cyclic graph (possible for symmetric relations
    such as R4 — use an asymmetric one like the default).
    """
    import networkx as nx

    g = interval_order_graph(intervals, spec)
    try:
        return [sorted(layer) for layer in nx.topological_generations(g)]
    except nx.NetworkXUnfeasible as exc:
        raise ValueError(
            "interval order graph is cyclic; use an asymmetric relation "
            "(e.g. R1(U,L)) for serialization layers"
        ) from exc
