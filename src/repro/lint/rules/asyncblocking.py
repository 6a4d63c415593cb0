"""REP007 — blocking call reachable from a coroutine.

The paper's message, applied to our own event loop: a synchronization
fault is invisible where it is written and only observable in the
global order of events.  A synchronous ``os.fsync`` buried three call
hops below ``MonitorService._session_loop`` stalls *every* session,
watch push, and heartbeat sharing that loop — yet no single file shows
anything suspicious.

The rule works on the project call graph:

1. A seed set of known-blocking primitives (``time.sleep``,
   ``os.fsync``, ``open``/``os.pread``/file I/O, ``socket.*``, blocking
   ``queue.Queue`` operations, ``subprocess.run`` and friends) marks
   external calls as blocking.
2. Every *synchronous* project function that calls a seed — or calls a
   tainted sync function — is tainted transitively, carrying a witness
   chain down to the primitive.
3. Any ``async def`` that calls a seed directly, or calls a tainted
   sync function, is flagged.  The sanctioned escape hatches are
   ``loop.run_in_executor(...)`` and ``asyncio.to_thread(...)``:
   passing a tainted function as an argument creates no call edge, so
   offloaded work never trips the rule.

Async callees never propagate taint: calling a coroutine function just
builds the coroutine object, and awaiting it yields to the loop.
"""

from __future__ import annotations

import ast
from collections import deque
from fnmatch import fnmatchcase
from collections.abc import Iterator

from ..engine import FileContext
from ..project import FunctionInfo, ProjectContext, project_rule

#: External call names considered blocking (fnmatch patterns).
BLOCKING_SEEDS: tuple[str, ...] = (
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "os.waitpid",
    "open",
    "io.open",
    "os.open",
    "os.read",
    "os.pread",
    "socket.*",
    "select.select",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "queue.Queue.get",
    "queue.Queue.put",
    "queue.Queue.join",
    "queue.SimpleQueue.get",
    "queue.SimpleQueue.put",
    "requests.*",
    "urllib.request.*",
)


def _seed_match(name: str) -> bool:
    return any(fnmatchcase(name, pat) for pat in BLOCKING_SEEDS)


def _short(qualname: str, project: ProjectContext) -> str:
    """Render a qualname without its module prefix for messages."""
    fn = project.functions.get(qualname)
    if fn is None:
        return qualname
    prefix = fn.module + "."
    return qualname[len(prefix):] if qualname.startswith(prefix) else qualname


def _taint(
    project: ProjectContext,
) -> dict[str, tuple[str, tuple[str, ...]]]:
    """Map tainted sync qualname -> (seed name, witness chain).

    The chain lists qualnames from the tainted function down to (but
    not including) the external seed.
    """
    tainted: dict[str, tuple[str, tuple[str, ...]]] = {}
    # direct seed hits, in deterministic order
    order: deque[str] = deque()
    for fn in project.iter_functions():
        if fn.is_async:
            continue
        for site in fn.calls:
            seed = next((c for c in site.callees if _seed_match(c)), None)
            if seed is not None:
                tainted[fn.qualname] = (seed, (fn.qualname,))
                order.append(fn.qualname)
                break
    # reverse-BFS: sync callers of tainted sync functions become tainted
    callers: dict[str, list[str]] = {}
    for fn in project.iter_functions():
        if fn.is_async:
            continue
        for site in fn.calls:
            for callee in site.callees:
                callers.setdefault(callee, []).append(fn.qualname)
    while order:
        cur = order.popleft()
        seed, chain = tainted[cur]
        for caller in callers.get(cur, ()):
            if caller in tainted:
                continue
            tainted[caller] = (seed, (caller, *chain))
            order.append(caller)
    return tainted


def _render_chain(
    fn: FunctionInfo, chain: tuple[str, ...], seed: str, project: ProjectContext
) -> str:
    hops = [_short(q, project) for q in (fn.qualname, *chain)]
    return " -> ".join((*hops, seed))


@project_rule(
    "REP007",
    "blocking-call-in-coroutine",
    severity="error",
    description=(
        "an async def reaches a blocking primitive (time.sleep, os.fsync, "
        "file/socket I/O, queue.Queue, subprocess) through the call graph; "
        "offload with loop.run_in_executor or asyncio.to_thread"
    ),
)
def check_blocking_in_coroutine(
    project: ProjectContext,
) -> Iterator[tuple[FileContext, object, str]]:
    tainted = _taint(project)
    for fn in project.iter_functions():
        if not fn.is_async:
            continue
        for site in fn.calls:
            for callee in site.callees:
                if _seed_match(callee):
                    yield (
                        fn.ctx,
                        site.node,
                        f"coroutine {_short(fn.qualname, project)}() calls "
                        f"blocking primitive {callee}() on the event loop; "
                        "offload with loop.run_in_executor or "
                        "asyncio.to_thread",
                    )
                    break
                entry = tainted.get(callee)
                if entry is not None:
                    seed, chain = entry
                    yield (
                        fn.ctx,
                        site.node,
                        f"coroutine {_short(fn.qualname, project)}() calls "
                        f"{_short(callee, project)}(), which blocks the "
                        f"event loop via {_render_chain(fn, chain, seed, project)}; "
                        "offload with loop.run_in_executor or "
                        "asyncio.to_thread",
                    )
                    break
