"""Backend oracle tests and seam enforcement.

The causality backend (:class:`~repro.backends.vector.VectorClockBackend`)
must agree with the networkx transitive closure of the covering digraph
on pairwise order and timestamp rows, its scalar cut vectors must equal
its batched cut-stat rows, and — end to end — all 40 relation verdicts
(the 32-family plus the 8 base relations) must equal the
definition-level engine's, also after :meth:`Execution.extend` growth
(an extended context against a fresh one on the full trace).

The seam itself is enforced structurally: no module under
``repro.core``, ``repro.monitor``, or ``repro.globalstates`` may import
the clock substrate (``ClockTable``/``GrowableClockTable`` or the
``repro.events.clocks`` module) — everything flows through
:mod:`repro.backends`.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import networkx as nx
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.context import AnalysisContext
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32
from repro.events.builder import TraceBuilder
from repro.events.poset import Execution
from repro.nonatomic.event import NonatomicEvent

from .strategies import closure_counts, execution_with_pair, executions

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)),
    min_size=2,
    max_size=25,
)


def _replay(num_nodes, ops):
    """Deterministic replay where every prefix of ``ops`` yields a
    trace that the full replay extends append-only (one internal per
    node first; op times depend only on the op's position)."""
    b = TraceBuilder(num_nodes)
    in_flight = [[] for _ in range(num_nodes)]
    t = 0.0
    for node in range(num_nodes):
        t += 1.0
        b.internal(node, time=t)
    for node, action, aux in ops:
        node %= num_nodes
        t += 1.0
        if action == 1 and num_nodes > 1:
            dst = aux % num_nodes
            if dst == node:
                dst = (dst + 1) % num_nodes
            in_flight[dst].append(b.send(node, time=t))
        elif action == 2 and in_flight[node]:
            b.recv(node, in_flight[node].pop(0), time=t)
        else:
            b.internal(node, time=t)
    return b.build()


def _all_verdicts(an, x, y):
    """All 40 verdicts: the 32-family plus the 8 base relations."""
    out = {spec: an.holds(spec, x, y) for spec in FAMILY32}
    for rel in BASE_RELATIONS:
        out[rel] = an.holds(rel, x, y)
    return out


class TestPairwiseEquivalence:
    """``ctx.backend`` against the networkx transitive-closure oracle."""

    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_leq_precedes_concurrent_agree(self, ex):
        backend = AnalysisContext(ex).backend
        tc = nx.transitive_closure_dag(ex.to_networkx())
        ids = sorted(ex.iter_ids())
        for a, b in itertools.product(ids, ids):
            leq = a == b or tc.has_edge(a, b)
            geq = a == b or tc.has_edge(b, a)
            assert backend.leq(a, b) == leq, (a, b)
            assert backend.precedes(a, b) == (leq and a != b), (a, b)
            assert backend.concurrent(a, b) == (not leq and not geq), (a, b)

    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_timestamp_rows_agree(self, ex):
        backend = AnalysisContext(ex).backend
        fwd, rev = closure_counts(ex)
        ids = sorted(ex.iter_ids())
        assert backend.forward_rows(ids).tolist() == [fwd[e] for e in ids]
        assert backend.reverse_rows(ids).tolist() == [rev[e] for e in ids]

    @given(execution_with_pair(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_cut_vectors_and_stats_agree(self, exy):
        ex, x, y = exy
        backend = AnalysisContext(ex).backend
        stats = backend.cut_stats([x, y])
        for row, iv in enumerate((x, y)):
            for which in ("C1", "C2", "C3", "C4"):
                assert np.array_equal(
                    backend.cut_vector(iv, which),
                    getattr(stats, which.lower())[row],
                ), (row, which)


class TestVerdictEquivalence:
    @given(execution_with_pair(max_nodes=4, max_ops=30))
    @settings(max_examples=40, deadline=None)
    def test_all_40_verdicts_agree(self, exy):
        ex, x, y = exy
        # the definition-level engine on its own execution is the oracle
        ex2 = Execution(ex.trace)
        x2 = NonatomicEvent(ex2, sorted(x.ids), name="X")
        y2 = NonatomicEvent(ex2, sorted(y.ids), name="Y")
        an = SynchronizationAnalyzer(AnalysisContext(ex))
        naive = SynchronizationAnalyzer(AnalysisContext(ex2), engine="naive")
        assert _all_verdicts(an, x, y) == _all_verdicts(naive, x2, y2)

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=30, deadline=None)
    def test_verdicts_agree_after_extend(self, num_nodes, head, tail):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        assume(full.total_events > prefix.total_events)
        grown = AnalysisContext(Execution(prefix))
        ids = sorted(grown.execution.iter_ids())
        half = max(1, len(ids) // 2)
        # pay pre-growth queries so stale caches would be caught
        _all_verdicts(
            SynchronizationAnalyzer(grown),
            grown.interval(ids[:half], name="X"),
            grown.interval(ids[half:] or ids[:1], name="Y"),
        )
        grown.extend(full)
        fresh = AnalysisContext(Execution(full))
        ids = sorted(fresh.execution.iter_ids())
        half = max(1, len(ids) // 2)
        grown_v, fresh_v = (
            _all_verdicts(
                SynchronizationAnalyzer(ctx),
                ctx.interval(ids[:half], name="X"),
                ctx.interval(ids[half:], name="Y"),
            )
            for ctx in (grown, fresh)
        )
        assert grown_v == fresh_v


class TestBatchedFamilyEquivalence:
    """The batched ``(pairs, 24)`` kernel agrees with the scalar path,
    including after real append-only growth."""

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=20, deadline=None)
    def test_batched_rows_match_scalar_after_extend(
        self, num_nodes, head, tail
    ):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        assume(full.total_events > prefix.total_events)
        ctx = AnalysisContext(Execution(prefix))
        an = SynchronizationAnalyzer(ctx)
        oracle = SynchronizationAnalyzer(ctx, counted=True)
        assert oracle.verdict_cache is None
        ids = sorted(ctx.execution.iter_ids())
        half = max(1, len(ids) // 2)
        x = ctx.interval(ids[:half], name="X")
        y = ctx.interval(ids[half:] or ids[:1], name="Y")
        # pay a pre-growth batched fill so stale rows would be caught
        an.all_relations_batch([(x, y)])
        ctx.extend(full)
        ids = sorted(ctx.execution.iter_ids())
        half = max(1, len(ids) // 2)
        x = ctx.interval(ids[:half], name="X")
        y = ctx.interval(ids[half:], name="Y")
        fam = an.all_relations_batch([(x, y), (y, x)])
        for f, (a, b) in zip(fam, [(x, y), (y, x)], strict=True):
            assert f == {s: oracle.holds(s, a, b) for s in FAMILY32}


class TestSeamEnforcement:
    """No engine above the events layer names the clock substrate."""

    _BANNED_NAMES = {"ClockTable", "GrowableClockTable"}
    _BANNED_MODULE = "events.clocks"
    _LAYERS = ("core", "monitor", "globalstates")

    def _violations(self, path: Path) -> list[str]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith(self._BANNED_MODULE):
                    bad.append(f"{path.name}:{node.lineno} from {module}")
                for alias in node.names:
                    if alias.name in self._BANNED_NAMES:
                        bad.append(
                            f"{path.name}:{node.lineno} imports {alias.name}"
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.endswith(self._BANNED_MODULE):
                        bad.append(
                            f"{path.name}:{node.lineno} import {alias.name}"
                        )
        return bad

    def test_engines_do_not_import_clock_substrate(self):
        violations = []
        for layer in self._LAYERS:
            for path in sorted((_SRC / layer).rglob("*.py")):
                violations.extend(self._violations(path))
        assert not violations, "\n".join(violations)

    def test_layers_exist(self):
        # guard against the seam test silently scanning nothing
        for layer in self._LAYERS:
            assert list((_SRC / layer).rglob("*.py")), layer
