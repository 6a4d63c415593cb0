"""E-T2 — Table 2: computing the cut timestamps C1(X)–C4(X).

Benchmarks the condensed (Lemma 16 min/max fold over per-node extremal
events) construction against the literal set-based fold of Definition
10, at several interval populations.  The condensed form's cost depends
only on ``|N_X| · |P|`` — not on ``|X|`` — which is the paper's point
about proxies condensing causal information.
"""

import pytest

from repro.core.context import AnalysisContext
from repro.core.cuts import (
    cut_from_event_set,
    cut_intersection,
    cuts_of,
    reference_past_set,
)
from repro.simulation.workloads import random_execution

from .common import spanning_interval

EX = random_execution(8, events_per_node=40, msg_prob=0.3, seed=5)


def _interval(events_per_node: int):
    return spanning_interval(EX, events_per_node)


@pytest.mark.parametrize("population", [1, 5, 20], ids=lambda p: f"|X_i|={p}")
def test_condensed_cut_construction(benchmark, population):
    """Timestamp folds: cost must be flat in the per-node population."""
    x = _interval(population)

    benchmark(lambda: cuts_of(x))


@pytest.mark.parametrize("population", [1, 5], ids=lambda p: f"|X_i|={p}")
def test_reference_set_construction(benchmark, population):
    """Baseline: literal ∩ of reference past sets (no condensation)."""
    x = _interval(population)
    ids = sorted(x.ids)

    def run():
        pasts = [
            cut_from_event_set(EX, reference_past_set(EX, e)) for e in ids
        ]
        return cut_intersection(pasts)

    result = benchmark(run)
    assert result == cuts_of(x).c1  # same cut, much slower to build


def test_timestamp_reuse_is_free(benchmark):
    """Key Idea 1: re-reading cached cuts costs nothing measurable."""
    x = _interval(5)
    cache = AnalysisContext.of(EX).cut_cache
    cache.quadruple(x)
    benchmark(lambda: cache.quadruple(x))
