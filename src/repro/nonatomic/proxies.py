"""Proxies ``L_X`` and ``U_X`` of nonatomic events (Definitions 2 and 3).

The 32-relation family ``R`` of the paper is built by applying the 8
base relations of Table 1 to the *proxies* of X and Y — nonatomic
events standing for the beginning (``L``) and end (``U``) of an
interval.  Two proxy definitions appear in the paper:

* **Definition 2** (per-node extrema, the default here):
  ``L_X = {e_i ∈ X | ∀e'_i ∈ X: e_i ≼ e'_i}`` — the least component
  event on each node of ``N_X`` (and dually for ``U_X``).  Under the
  linear local order this is simply the per-node first/last component
  event, so ``N_{L_X} = N_{U_X} = N_X`` and ``|X̂_i| = 1``.

* **Definition 3** (global extrema): ``L_X = {e ∈ X | ∀e' ∈ X: e ≼ e'}``
  — the component events below *all* of X.  By antisymmetry this is a
  single event when it exists, and it may not exist (no global minimum),
  in which case :class:`ProxyUndefinedError` is raised.

The paper notes *"Any of the above or a similar definition of proxies is
consistently used, depending on context and application."*  All engines
accept either via :class:`ProxyDefinition`.
"""

from __future__ import annotations

import enum

from .event import NonatomicEvent

__all__ = ["Proxy", "ProxyDefinition", "ProxyUndefinedError", "proxy_of"]


class Proxy(enum.Enum):
    """Which proxy of an interval: its beginning ``L`` or its end ``U``."""

    L = "L"
    U = "U"


class ProxyDefinition(enum.Enum):
    """Which formal definition of proxies to use (Def. 2 vs Def. 3)."""

    PER_NODE = "per-node"  # Definition 2
    GLOBAL = "global"  # Definition 3


class ProxyUndefinedError(ValueError):
    """Raised when a Definition-3 proxy does not exist.

    Definition 3 requires a component event comparable to (below/above)
    every other component event; concurrent extrema make the proxy
    empty, hence undefined as a nonatomic event.
    """


def _proxy_per_node(x: NonatomicEvent, which: Proxy) -> NonatomicEvent:
    ids = x.first_ids() if which is Proxy.L else x.last_ids()
    suffix = which.value
    name = f"{suffix}({x.name})" if x.name else None
    # keyed after x: the batched cut fills store this proxy's row under
    # the same key without building the object
    return NonatomicEvent._keyed(x.execution, ids, name, (x.key, suffix))


def _proxy_global(x: NonatomicEvent, which: Proxy) -> NonatomicEvent:
    ex = x.execution
    # Only per-node extrema can be global extrema, so search those.
    candidates = x.first_ids() if which is Proxy.L else x.last_ids()
    others = list(x)
    for cand in candidates:
        if which is Proxy.L:
            ok = all(ex.leq(cand, other) for other in others)
        else:
            ok = all(ex.leq(other, cand) for other in others)
        if ok:
            name = f"{which.value}3({x.name})" if x.name else None
            return NonatomicEvent(ex, [cand], name=name)
    raise ProxyUndefinedError(
        f"interval has no global {'minimum' if which is Proxy.L else 'maximum'}; "
        "Definition 3 proxy undefined (use ProxyDefinition.PER_NODE)"
    )


def proxy_of(
    x: NonatomicEvent,
    which: Proxy,
    definition: ProxyDefinition = ProxyDefinition.PER_NODE,
) -> NonatomicEvent:
    """The proxy ``X̂`` of interval ``x``.

    Results are cached on the interval (one proxy is typically reused
    across many relation evaluations — Key Idea 1).

    Parameters
    ----------
    x:
        The interval.
    which:
        :attr:`Proxy.L` for the beginning, :attr:`Proxy.U` for the end.
    definition:
        :attr:`ProxyDefinition.PER_NODE` (Definition 2, always defined)
        or :attr:`ProxyDefinition.GLOBAL` (Definition 3, may raise
        :class:`ProxyUndefinedError`).
    """
    key = ("proxy", which, definition)
    cached = x.cache.get(key)
    if cached is not None:
        return cached
    if definition is ProxyDefinition.PER_NODE:
        result = _proxy_per_node(x, which)
    elif definition is ProxyDefinition.GLOBAL:
        result = _proxy_global(x, which)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown proxy definition: {definition!r}")
    x.cache[key] = result
    return result
