"""Causality oracle tests and package layering.

The one encoding of ``≺``, the vector clocks of
:class:`~repro.events.poset.Execution`, must agree with the networkx
transitive closure of the covering digraph on pairwise order and
timestamp rows; the scalar cut computation
(:func:`~repro.core.cuts.cut_vector`) must equal the batched cut-stat
rows (:func:`~repro.core.cuts.cut_stats`); and — end to end — all 40
relation verdicts (the 32-family plus the 8 base relations) must equal
the definition-level engine's, on a prefix execution and on the full
one (each against a fresh context on the same trace).

Layering is checked on the import statements: the substrate packages
(``repro.events``, ``repro.nonatomic``) import nothing from the layers
built on them, and nothing in ``repro`` imports ``repro.backends``,
which is kept only as host metadata for benchmark records.
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
from repro.core.cuts import cut_stats, cut_vector
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
    """:class:`Execution` against the networkx transitive-closure oracle."""

    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_leq_precedes_concurrent_agree(self, ex):
        tc = nx.transitive_closure_dag(ex.to_networkx())
        ids = sorted(ex.iter_ids())
        for a, b in itertools.product(ids, ids):
            leq = a == b or tc.has_edge(a, b)
            geq = a == b or tc.has_edge(b, a)
            assert ex.leq(a, b) == leq, (a, b)
            assert ex.precedes(a, b) == (leq and a != b), (a, b)
            assert ex.concurrent(a, b) == (not leq and not geq), (a, b)

    @given(executions(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_timestamp_rows_agree(self, ex):
        fwd, rev = closure_counts(ex)
        ids = sorted(ex.iter_ids())
        forward, reverse = ex.forward_rows(ids), ex.reverse_rows(ids)
        assert forward.tolist() == [fwd[e] for e in ids]
        assert reverse.tolist() == [rev[e] for e in ids]
        for rows in (forward, reverse):
            assert rows.dtype == np.int64 and not rows.flags.writeable

    @given(execution_with_pair(max_nodes=4, max_ops=30))
    @settings(max_examples=60, deadline=None)
    def test_cut_vectors_and_stats_agree(self, exy):
        ex, x, y = exy
        stats = cut_stats(ex, [x, y])
        for row, iv in enumerate((x, y)):
            for which in ("C1", "C2", "C3", "C4"):
                assert np.array_equal(
                    cut_vector(iv, which),
                    getattr(stats, which.lower())[row],
                ), (row, which)

    def test_context_backend_is_the_execution(self, message_exec):
        # the compatibility handle benchmarks/suite/offline_prog.py reads
        ctx = AnalysisContext(message_exec)
        assert ctx.backend is message_exec
        ctx.backend.reverse_rows([(0, 1)])
        assert message_exec.reverse_ready


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
        for trace in (prefix, full):
            ids = sorted(Execution(trace).iter_ids())
            half = max(1, len(ids) // 2)
            linear_v, naive_v = (
                _all_verdicts(
                    an,
                    an.interval(ids[:half], name="X"),
                    an.interval(ids[half:] or ids[:1], name="Y"),
                )
                for an in (
                    SynchronizationAnalyzer(AnalysisContext(Execution(trace))),
                    SynchronizationAnalyzer(
                        AnalysisContext(Execution(trace)), engine="naive"
                    ),
                )
            )
            assert linear_v == naive_v


class TestBatchedFamilyEquivalence:
    """The batched ``(pairs, 24)`` kernel agrees with the scalar path,
    on a prefix execution and on the full one."""

    @given(st.integers(2, 4), _ops, _ops)
    @settings(max_examples=20, deadline=None)
    def test_batched_rows_match_scalar_after_extend(
        self, num_nodes, head, tail
    ):
        prefix = _replay(num_nodes, head)
        full = _replay(num_nodes, head + tail)
        assume(full.total_events > prefix.total_events)
        for trace in (prefix, full):
            ctx = AnalysisContext(Execution(trace))
            an = SynchronizationAnalyzer(ctx)
            oracle = SynchronizationAnalyzer(
                AnalysisContext(Execution(trace)), counted=True
            )
            assert oracle.verdict_cache is None
            ids = sorted(ctx.execution.iter_ids())
            half = max(1, len(ids) // 2)
            x = ctx.interval(ids[:half], name="X")
            y = ctx.interval(ids[half:] or ids[:1], name="Y")
            ox = oracle.interval(ids[:half], name="X")
            oy = oracle.interval(ids[half:] or ids[:1], name="Y")
            fam = an.all_relations_batch([(x, y), (y, x)])
            for f, (a, b) in zip(fam, [(ox, oy), (oy, ox)], strict=True):
                assert f == {s: oracle.holds(s, a, b) for s in FAMILY32}


def _imported_modules(path: Path) -> list[tuple[int, str]]:
    """``(line, dotted module)`` of every import in the file at ``path``
    (function-level ones too), relative imports resolved within
    ``repro``; ``from pkg import name`` yields ``pkg.name``."""
    parts = list(path.relative_to(_SRC.parent).with_suffix("").parts)
    package = parts[:-1]
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            out.append((node.lineno, module))
            out.extend(
                (node.lineno, f"{module}.{alias.name}") for alias in node.names
            )
    return out


class TestLayering:
    """Import direction between the packages of ``src/repro``."""

    _SUBSTRATE = ("events", "nonatomic")
    _ABOVE = ("core", "monitor", "service", "globalstates", "apps", "analysis")

    @staticmethod
    def _under(module: str, package: str) -> bool:
        name = f"repro.{package}"
        return module == name or module.startswith(name + ".")

    def test_substrate_imports_no_upper_layer(self):
        bad = [
            f"{path.relative_to(_SRC)}:{line} imports {module}"
            for package in self._SUBSTRATE
            for path in sorted((_SRC / package).rglob("*.py"))
            for line, module in _imported_modules(path)
            if any(self._under(module, upper) for upper in self._ABOVE)
        ]
        assert not bad, "\n".join(bad)

    def test_nothing_imports_backends(self):
        bad = [
            f"{path.relative_to(_SRC)}:{line} imports {module}"
            for path in sorted(_SRC.rglob("*.py"))
            if "backends" not in path.relative_to(_SRC).parts
            for line, module in _imported_modules(path)
            if self._under(module, "backends")
        ]
        assert not bad, "\n".join(bad)

    def test_layers_exist(self):
        # guard against the layering tests silently scanning nothing
        for package in (*self._SUBSTRATE, *self._ABOVE, "backends"):
            assert list((_SRC / package).rglob("*.py")), package

    def test_import_resolution(self):
        # the checks above see relative, absolute and lazy imports alike
        found = {m for _, m in _imported_modules(_SRC / "core" / "context.py")}
        assert {"repro.core.cuts", "repro.events.poset",
                "numpy"} <= found
        found = {m for _, m in _imported_modules(_SRC / "cli.py")}
        assert "repro.events.clocks.clock_pass_counts" in found
