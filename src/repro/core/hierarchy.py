"""The implication hierarchy of the relations.

The relations of Table 1 form a hierarchy under logical implication (for
non-empty X and Y):

.. code-block:: text

            R1 ≡ R1'
           /        \\
         R2'         R3
          |           |
         R2          R3'
           \\        /
            R4 ≡ R4'

The 32-relation family inherits this hierarchy and adds the *proxy
monotonicity* edges (valid under the Definition-2 proxies, where the
``L``/``U`` events correspond per node): for any base relation ``R``,

    ``R(U, py) ⟹ R(L, py)``   and   ``R(px, L) ⟹ R(px, U)``

since replacing an ``x`` by a causally earlier one, or a ``y`` by a
causally later one, only makes ``x ≺ y`` easier.

These implications power two things: *property tests* (every generated
instance must respect the hierarchy) and the *pruned batch evaluation*
of Problem 4(ii) (when a strong relation holds, the relations it implies
need no test; when a weak one fails, the ones implying it fail too) —
ablation A-3 in DESIGN.md.

Reachability (:func:`implies`, :func:`maximal_true`) is a plain-Python
walk over the implication edges; networkx is imported only by the
functions that build or sort a graph (:func:`base_dag`,
:func:`family_dag` and the pruned evaluation order), so importing the
analyzer does not pay for it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from ..nonatomic.proxies import Proxy
from .relations import BASE_RELATIONS, FAMILY32, Relation, RelationSpec

__all__ = [
    "BASE_IMPLICATIONS",
    "base_dag",
    "family_dag",
    "implies",
    "maximal_true",
    "evaluate_all_pruned",
]

if TYPE_CHECKING:
    import networkx as nx

RelLike = Relation | RelationSpec

#: Direct implication edges between base relations (non-empty X, Y).
BASE_IMPLICATIONS: tuple[tuple[Relation, Relation], ...] = (
    (Relation.R1, Relation.R1P),
    (Relation.R1P, Relation.R1),
    (Relation.R4, Relation.R4P),
    (Relation.R4P, Relation.R4),
    (Relation.R1, Relation.R2P),
    (Relation.R1, Relation.R3),
    (Relation.R2P, Relation.R2),
    (Relation.R3, Relation.R3P),
    (Relation.R2, Relation.R4),
    (Relation.R3P, Relation.R4),
)


def base_dag() -> "nx.DiGraph":
    """Implication digraph over the 8 base relations (edges = implies).

    Synonym pairs (R1/R1', R4/R4') appear as 2-cycles; the graph is a
    DAG on the equivalence classes.
    """
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(BASE_RELATIONS)
    g.add_edges_from(BASE_IMPLICATIONS)
    return g


def _family_implications() -> Iterator[tuple[RelationSpec, RelationSpec]]:
    """Direct implication edges of the 32-relation family: the base
    hierarchy per proxy combination, plus the proxy monotonicity
    edges."""
    for a, b in BASE_IMPLICATIONS:
        for px in (Proxy.L, Proxy.U):
            for py in (Proxy.L, Proxy.U):
                yield RelationSpec(a, px, py), RelationSpec(b, px, py)
    for rel in BASE_RELATIONS:
        for py in (Proxy.L, Proxy.U):
            yield RelationSpec(rel, Proxy.U, py), RelationSpec(rel, Proxy.L, py)
        for px in (Proxy.L, Proxy.U):
            yield RelationSpec(rel, px, Proxy.L), RelationSpec(rel, px, Proxy.U)


def family_dag() -> "nx.DiGraph":
    """Implication digraph over the 32-relation family.

    Combines the base hierarchy (per proxy combination) with the proxy
    monotonicity edges.  Cached at module level after first build.
    """
    global _FAMILY_DAG
    if _FAMILY_DAG is None:
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(FAMILY32)
        g.add_edges_from(_family_implications())
        _FAMILY_DAG = g
    return _FAMILY_DAG


_FAMILY_DAG: "nx.DiGraph | None" = None
_REACH_CACHE: dict[RelLike, frozenset[RelLike]] = {}
_ANC_CACHE: dict[RelLike, frozenset[RelLike]] = {}
_ORDER_CACHE: dict[tuple[RelLike, ...], tuple[RelLike, ...]] = {}
_STEP_CACHE: dict[tuple[bool, bool], dict[RelLike, list[RelLike]]] = {}


def _steps(family: bool, forward: bool) -> dict[RelLike, list[RelLike]]:
    """Each relation's direct implication successors (``forward``) or
    predecessors, built once per hierarchy and direction."""
    key = (family, forward)
    steps = _STEP_CACHE.get(key)
    if steps is None:
        steps = _STEP_CACHE[key] = {}
        edges = _family_implications() if family else BASE_IMPLICATIONS
        for u, v in edges:
            if not forward:
                u, v = v, u
            steps.setdefault(u, []).append(v)
    return steps


def _reachable(a: RelLike, forward: bool) -> frozenset[RelLike]:
    """Relations reachable from ``a`` along the implication edges
    (reversed when not ``forward``), excluding ``a`` itself — what
    ``nx.descendants`` / ``nx.ancestors`` return on the hierarchy
    digraph."""
    steps = _steps(not isinstance(a, Relation), forward)
    seen: set[RelLike] = set()
    stack = [a]
    while stack:
        for b in steps.get(stack.pop(), ()):
            if b not in seen:
                seen.add(b)
                stack.append(b)
    seen.discard(a)
    return frozenset(seen)


def _descendants(a: RelLike) -> frozenset[RelLike]:
    cached = _REACH_CACHE.get(a)
    if cached is None:
        cached = _REACH_CACHE[a] = _reachable(a, forward=True)
    return cached


def _ancestors(a: RelLike) -> frozenset[RelLike]:
    cached = _ANC_CACHE.get(a)
    if cached is None:
        cached = _ANC_CACHE[a] = _reachable(a, forward=False)
    return cached


def _topological_order(universe: tuple[RelLike, ...]) -> tuple[RelLike, ...]:
    """Strongest-first visit order over ``universe``, memoized.

    The hierarchy is a fixed module-level structure, so the
    condensation + topological sort is paid once per distinct universe
    (in practice: once for :data:`FAMILY32`, once for
    :data:`BASE_RELATIONS`) instead of on every pruned evaluation.
    """
    cached = _ORDER_CACHE.get(universe)
    if cached is None:
        import networkx as nx

        g = base_dag() if isinstance(universe[0], Relation) else family_dag()
        condensation = nx.condensation(g.subgraph(universe))
        order: list[RelLike] = []
        for scc in nx.topological_sort(condensation):
            order.extend(condensation.nodes[scc]["members"])
        cached = _ORDER_CACHE[universe] = tuple(order)
    return cached


def implies(a: RelLike, b: RelLike) -> bool:
    """True iff ``a(X, Y)`` logically implies ``b(X, Y)``.

    Both arguments must be base relations, or both 32-family specs.
    Reflexive (``implies(a, a)`` is True).
    """
    if type(a) is not type(b):
        raise TypeError("cannot mix base relations and 32-family specs")
    return a == b or b in _descendants(a)


def maximal_true(results: dict[RelLike, bool]) -> tuple[RelLike, ...]:
    """The strongest relations that hold: true entries not implied by
    any *strictly stronger* true entry.

    Mutually equivalent relations (the R1/R1' and R4/R4' synonym pairs)
    do not eliminate each other: both are reported when maximal.
    """
    true_set = [r for r, v in results.items() if v]
    out: list[RelLike] = []
    for r in true_set:
        dominated = any(
            other != r
            and r in _descendants(other)
            and other not in _descendants(r)  # strictly stronger, not a synonym
            for other in true_set
        )
        if not dominated:
            out.append(r)
    return tuple(sorted(out, key=str))


def evaluate_all_pruned(
    evaluate: Callable[[RelLike], bool],
    universe: Iterable[RelLike] = FAMILY32,
) -> tuple[dict[RelLike, bool], int]:
    """Evaluate every relation in ``universe`` with hierarchy pruning.

    Relations are visited strongest-first (topological order).  Each
    actual evaluation propagates: a True result marks all implied
    relations True; a False result marks all implying relations False.

    Returns
    -------
    (results, evaluations):
        The full result map and the number of actual ``evaluate`` calls
        (the savings metric reported by ablation A-3).
    """
    universe = tuple(universe)
    if not universe:
        return {}, 0
    order = _topological_order(universe)
    members = frozenset(universe)

    known: dict[RelLike, bool] = {}
    evaluations = 0
    for r in order:
        if r in known:
            continue
        value = evaluate(r)
        evaluations += 1
        known[r] = value
        # propagation uses full-hierarchy reachability (memoized); the
        # implications hold regardless of which relations the universe
        # names, so restricting to in-universe *paths* would only prune
        # less.
        if value:
            for d in _descendants(r):
                if d in members:
                    known.setdefault(d, True)
        else:
            for anc in _ancestors(r):
                if anc in members:
                    known.setdefault(anc, False)
    return {r: known[r] for r in universe}, evaluations
