"""Online (past-only) vs offline relation evaluation.

The online monitor trades the reverse-timestamp structure for
past-only conditions; this module measures the per-query costs of the
two paths on closed intervals, and the R2'/R3' polynomial fallback the
module docstring of :mod:`repro.monitor.online` quantifies.
"""

import numpy as np
import pytest

from repro.core.context import AnalysisContext
from repro.core.linear import LinearEvaluator
from repro.core.relations import Relation
from repro.events.trace import causal_schedule
from repro.monitor.online import OnlineMonitor
from repro.nonatomic.selection import random_disjoint_pair
from repro.simulation.workloads import random_trace


def _build(num_nodes=8, events=12, seed=6):
    trace = random_trace(num_nodes, events_per_node=events, msg_prob=0.35,
                         seed=seed)
    om = OnlineMonitor(num_nodes)
    handles = {}
    for node, ev, send in causal_schedule(trace):
        if ev.kind.name == "SEND":
            handles[ev.eid] = om.send(node)
        elif send is not None:
            om.recv(node, handles[send])
        else:
            om.internal(node)
    ex = om.to_execution()
    rng = np.random.default_rng(seed)
    x, y = random_disjoint_pair(ex, rng, events_per_node=2)
    for eid in sorted(x.ids):
        om.interval("X").add(eid)
    for eid in sorted(y.ids):
        om.interval("Y").add(eid)
    om.close("X")
    om.close("Y")
    return om, ex, x, y


OM, EX, X, Y = _build()
LINEAR_RELS = [Relation.R1, Relation.R2, Relation.R3, Relation.R4]
POLY_RELS = [Relation.R2P, Relation.R3P]


@pytest.mark.parametrize("rel", LINEAR_RELS, ids=lambda r: r.display)
def test_online_linear_rows(benchmark, rel):
    lin = LinearEvaluator(EX)
    assert OM.holds(rel, "X", "Y") == lin.evaluate(rel, X, Y)
    benchmark(lambda: OM.holds(rel, "X", "Y"))


@pytest.mark.parametrize("rel", POLY_RELS, ids=lambda r: r.display)
def test_online_polynomial_fallback(benchmark, rel):
    lin = LinearEvaluator(EX)
    assert OM.holds(rel, "X", "Y") == lin.evaluate(rel, X, Y)
    benchmark(lambda: OM.holds(rel, "X", "Y"))


@pytest.mark.parametrize("rel", LINEAR_RELS + POLY_RELS,
                         ids=lambda r: r.display)
def test_offline_reference(benchmark, rel):
    lin = LinearEvaluator(EX)
    cache = AnalysisContext.of(EX).cut_cache
    cache.quadruple(X), cache.quadruple(Y)
    benchmark(lambda: lin.evaluate(rel, X, Y))

