"""Shared interval/workload construction and timing helpers.

Partitioning an execution into disjoint intervals, sampling random
interval sets, and best-of-N wall-clock timing, shared by the
experiment modules; ``conftest.py`` keeps the pytest fixtures.  These
modules reproduce the paper's tables, theorems and figures.
Performance claims are measured by the repository benchmark
(``python -m benchmarks.suite``) and judged by
``python -m benchmarks.suite.compare``.  The older per-revision JSON
reports at the repository root are historical records that no code
reads.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.selection import random_interval

__all__ = [
    "disjoint_intervals",
    "random_intervals",
    "spanning_interval",
    "family_pairs",
    "best_of",
    "best_of_each",
    "round_ratio",
    "timed_rounds",
]


def disjoint_intervals(ex: Execution, k: int) -> list[NonatomicEvent]:
    """Partition the execution's events into ``k`` disjoint intervals.

    Every ordered pair from the result satisfies the evaluation
    precondition (X ∩ Y = ∅), so all-pairs query batches need no
    per-query disjointness checks.
    """
    ids = sorted(ex.iter_ids())
    chunks = np.array_split(np.arange(len(ids)), k)
    return [
        NonatomicEvent(ex, [ids[i] for i in chunk], name=f"I{n}")
        for n, chunk in enumerate(chunks)
    ]


def random_intervals(
    ex: Execution, count: int, events_per_node: int = 2, seed: int = 14
) -> list[NonatomicEvent]:
    """``count`` independently sampled random intervals over ``ex``."""
    rng = np.random.default_rng(seed)
    return [
        random_interval(ex, rng, events_per_node=events_per_node)
        for _ in range(count)
    ]


def spanning_interval(
    ex: Execution, events_per_node: int, seed: int | None = None
) -> NonatomicEvent:
    """One interval with ``events_per_node`` random events on *every*
    node (``N_X = P``), for cut-construction population sweeps."""
    rng = np.random.default_rng(events_per_node if seed is None else seed)
    ids = []
    for node in range(ex.num_nodes):
        picks = rng.choice(ex.num_real(node), size=events_per_node, replace=False)
        ids.extend((node, int(j) + 1) for j in picks)
    return NonatomicEvent(ex, ids)


def family_pairs(
    nodes: int, events: int, pairs: int, seed: int = 11
) -> tuple[Execution, list[tuple[NonatomicEvent, NonatomicEvent]]]:
    """The family-query benchmark workload: one execution plus ``pairs``
    random disjoint ordered interval pairs.

    Used by ``benchmarks/bench_family32_batch.py``; the default seeds
    reproduce the family workload of the historical benchmark records.
    """
    from repro.nonatomic.selection import random_disjoint_pair
    from repro.simulation.workloads import random_trace

    ex = Execution(
        random_trace(nodes, events_per_node=events, msg_prob=0.3, seed=seed)
    )
    rng = np.random.default_rng(seed + 1)
    return ex, [
        random_disjoint_pair(
            ex, rng, num_nodes_x=nodes, num_nodes_y=nodes, events_per_node=2
        )
        for _ in range(pairs)
    ]


def best_of(fn: Callable, reps: int = 5) -> tuple[float, object]:
    """``(best wall-clock seconds, last result)`` over ``reps`` runs."""
    return best_of_each([fn], reps=reps)[0]


def timed_rounds(
    fns: Sequence[Callable], reps: int = 5
) -> tuple[list[list[float]], list[object]]:
    """Time several functions in turn: each of ``reps`` rounds runs
    every function once, in order.  Returns each function's wall-clock
    seconds per round and its last result."""
    times: list[list[float]] = [[] for _ in fns]
    results: list[object] = [None] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            times[i].append(time.perf_counter() - t0)
    return times, results


def best_of_each(
    fns: Sequence[Callable], reps: int = 5
) -> list[tuple[float, object]]:
    """``best_of`` for several functions timed in turn
    (:func:`timed_rounds`).  A burst of load from other processes then
    slows the runs of one round alike, instead of every run of
    whichever function it happens to overlap."""
    times, results = timed_rounds(fns, reps)
    return [(min(t), r) for t, r in zip(times, results, strict=True)]


def round_ratio(num: Sequence[float], den: Sequence[float]) -> float:
    """Median over rounds of ``num[r] / den[r]``, for round times from
    :func:`timed_rounds`.  Both sides of each ratio ran back to back,
    so a host that switches speed every few seconds moves both alike;
    a ratio of separate best-of times can pair one side's fast sample
    with the other's slow ones."""
    return statistics.median(a / b for a, b in zip(num, den, strict=True))
