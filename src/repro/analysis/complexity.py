"""Complexity accounting and empirical scaling analysis.

Connects the paper's count claims to measurements:

* :func:`predicted_comparisons` — the per-relation comparison counts
  this reproduction's engines are designed to achieve (the paper's
  Theorem 20 table, amended for the R2'/R3 anchoring deviation — see
  ``repro.core.linear``);
* :func:`measure_comparisons` — run an instrumented engine over
  interval pairs and collect actual counts;
* :func:`fit_power_law` — least-squares slope of ``log(count)`` vs
  ``log(n)``, used by the benchmarks to verify that the linear engine
  scales with exponent ≈ 1 while the polynomial baseline scales with
  exponent ≈ 2 in the node count.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..core.counting import ComparisonCounter
from ..core.relations import BASE_RELATIONS, Relation
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent

__all__ = [
    "predicted_comparisons",
    "worst_case_comparisons",
    "measure_comparisons",
    "fit_power_law",
]


def predicted_comparisons(
    relation: Relation, n_x: int, n_y: int, engine: str = "linear"
) -> int:
    """Worst-case integer comparisons to evaluate ``relation``.

    For the ``linear`` engine this is the Theorem-20 table with the
    anchoring amendment (R2' costs ``|N_Y|``, R3 costs ``|N_X|``); for
    ``polynomial`` it is ``|N_X| · |N_Y|``.  Naive costs depend on
    ``|X| · |Y|``, not the node counts, and are not modelled here.
    """
    if engine == "polynomial":
        return n_x * n_y
    if engine != "linear":
        raise ValueError(f"no count model for engine {engine!r}")
    if relation in (Relation.R1, Relation.R1P):
        return min(n_x, n_y)
    if relation is Relation.R2:
        return n_x
    if relation is Relation.R2P:
        return n_y
    if relation is Relation.R3:
        return n_x
    if relation is Relation.R3P:
        return n_y
    if relation in (Relation.R4, Relation.R4P):
        return min(n_x, n_y)
    raise ValueError(f"unknown relation: {relation!r}")  # pragma: no cover


def worst_case_comparisons(n_x: int, n_y: int, engine: str = "linear") -> dict[Relation, int]:
    """The full per-relation count table for one ``(|N_X|, |N_Y|)``."""
    return {
        rel: predicted_comparisons(rel, n_x, n_y, engine)
        for rel in BASE_RELATIONS
    }


def measure_comparisons(
    engine_factory: Callable[[Execution, ComparisonCounter], object],
    execution: Execution,
    pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]],
    relations: Sequence[Relation] = BASE_RELATIONS,
) -> dict[Relation, list[int]]:
    """Measure actual comparison counts per relation over interval pairs.

    ``engine_factory(execution, counter)`` must build an engine whose
    ``evaluate`` records into ``counter``.  Each (relation, pair)
    evaluation contributes one count: query-time comparisons only, as
    in the paper's accounting.  Cut construction needs no pre-warming
    to be left out, because :func:`~repro.core.cuts.cut_vector` takes
    no counter.
    """
    counter = ComparisonCounter()
    engine = engine_factory(execution, counter)
    out: dict[Relation, list[int]] = {rel: [] for rel in relations}
    pairs = list(pairs)
    for x, y in pairs:
        for rel in relations:
            before = counter.total
            engine.evaluate(rel, x, y)
            out[rel].append(counter.total - before)
    return out


def fit_power_law(ns: Sequence[float], counts: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit ``count ≈ a · n^b``; returns ``(b, a)``.

    Used to verify scaling shapes: the linear engine's counts fit
    ``b ≈ 1`` in the node count, the polynomial baseline's ``b ≈ 2``.
    Zero counts are clamped to 1 before the log transform.
    """
    ns = np.asarray(ns, dtype=float)
    counts = np.maximum(np.asarray(counts, dtype=float), 1.0)
    if ns.size < 2:
        raise ValueError("need at least two points to fit")
    b, log_a = np.polyfit(np.log(ns), np.log(counts), 1)
    return float(b), float(np.exp(log_a))
