"""In-memory spans around calls into the system's layers.

Spans are recorded by the benchmark's own code, never inside ``src/``:
either as ``with tracer.span(name):`` blocks around a public call, or
by temporarily wrapping a public function or method with
:meth:`Tracer.wrap` so that calls made *inside* another layer (the cut
fill inside ``all_relations_batch``, say) are timed at their boundary.

A span is ``(name, start_ns, end_ns, parent, run)``.  A layer's self
time is its spans' durations minus the part covered by their child
spans; :meth:`Tracer.self_times` aggregates that per layer name.  A
disabled tracer records nothing and its ``span`` costs one branch.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Iterator
from time import perf_counter_ns
from typing import Any


class Tracer:
    """Span recorder for one benchmark process.

    Parameters
    ----------
    enabled:
        ``False`` makes every method a no-op (the untraced runs).
    run:
        Identifier shared by every span of one rep (``run`` field).
    """

    def __init__(self, enabled: bool, run: str = "") -> None:
        self.enabled = enabled
        self.run = run
        self.spans: list[list[Any]] = []  # [name, start_ns, end_ns, parent, run]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter_ns(), 0, parent, self.run]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (counts sit beside spans)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> Iterator[None]:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``owner`` is a module (for functions looked up as module
        globals) or a class (for methods).  ``on_call(*args, **kwargs)``
        may record counts from the call's arguments.  The original
        attribute is restored on exit.
        """
        if not self.enabled:
            yield
            return
        original = getattr(owner, attr)

        def timed(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name (children subtracted)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
        return out

    def records(self) -> list[dict[str, Any]]:
        """The spans as JSON-ready dicts."""
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
