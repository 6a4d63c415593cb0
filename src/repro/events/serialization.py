"""JSON (de)serialisation of traces.

Traces are the durable artifact of a distributed run; real-time
applications record them online and analyse them offline (the paper's
Problem 4 starts from "a recorded trace").  The schema is deliberately
simple and versioned:

.. code-block:: json

    {
      "version": 1,
      "num_nodes": 2,
      "events": [[{"kind": "send", "label": "req", "time": 0.5}], [...]],
      "messages": [[[0, 1], [1, 1]]]
    }

Event ``node``/``index`` fields are implicit in the nesting and position
(index = position + 1), which keeps files compact and unforgeable.
Payloads are serialised only when JSON-representable.
"""

from __future__ import annotations

import json
from typing import Any

from .event import Event, EventKind
from .trace import Message, Trace, TraceError

__all__ = [
    "MAX_TRACE_BYTES",
    "PayloadTooLargeError",
    "SchemaVersionError",
    "trace_to_dict",
    "trace_from_dict",
    "dumps",
    "loads",
    "save",
    "load",
]

SCHEMA_VERSION = 1

#: Default byte ceiling for :func:`loads` when a limit is requested.
#: Wire-facing callers (the monitoring service protocol) pass their own
#: frame budget; the default suits single-trace payloads.
MAX_TRACE_BYTES = 16 * 1024 * 1024


class PayloadTooLargeError(TraceError):
    """A serialised trace exceeded the caller's byte budget.

    Raised *before* JSON parsing, so oversized (or hostile) payloads
    are rejected at O(len) cost without materialising anything.
    """


class SchemaVersionError(TraceError):
    """A trace payload declared an unknown schema version."""


def _event_to_dict(ev: Event) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": ev.kind.value}
    if ev.label is not None:
        out["label"] = ev.label
    if ev.time is not None:
        out["time"] = ev.time
    if ev.payload is not None:
        try:
            json.dumps(ev.payload)
        except (TypeError, ValueError):
            pass
        else:
            out["payload"] = ev.payload
    return out


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """Convert a trace to a JSON-ready dictionary."""
    return {
        "version": SCHEMA_VERSION,
        "num_nodes": trace.num_nodes,
        "events": [
            [_event_to_dict(ev) for ev in trace.events_of(i)]
            for i in range(trace.num_nodes)
        ],
        "messages": [
            [list(msg.send), list(msg.recv)] for msg in trace.messages
        ],
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    """Reconstruct a trace from :func:`trace_to_dict` output.

    Raises
    ------
    TraceError
        If the payload is malformed or uses an unknown schema version.
    """
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported trace schema version: {version!r} "
            f"(this reader speaks version {SCHEMA_VERSION})"
        )
    try:
        num_nodes = int(data["num_nodes"])
        raw_events: list[list[dict[str, Any]]] = data["events"]
        raw_messages = data["messages"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed trace payload: {exc}") from exc
    if len(raw_events) != num_nodes:
        raise TraceError(
            f"num_nodes={num_nodes} but {len(raw_events)} event lists present"
        )
    events: list[list[Event]] = []
    for node, per_node in enumerate(raw_events):
        try:
            events.append([
                Event(node, pos, _KINDS[rec.get("kind", "internal")],
                      rec.get("label"), rec.get("time"), rec.get("payload"))
                for pos, rec in enumerate(per_node, 1)
            ])
        except KeyError as exc:
            raise TraceError(f"unknown event kind: {exc.args[0]!r}") from exc
        except (AttributeError, TypeError) as exc:  # a value of the wrong type
            raise TraceError(f"malformed event record on node {node}: {exc}") from exc
    messages = []
    for pair in raw_messages:
        try:
            (s_node, s_idx), (r_node, r_idx) = pair
            send, recv = (int(s_node), int(s_idx)), (int(r_node), int(r_idx))
        except (TypeError, ValueError) as exc:
            raise TraceError(f"malformed message record: {pair!r}") from exc
        messages.append(Message(send, recv))
    return Trace(events, messages)


#: Event kinds by their serialised value: one dict lookup per event.
_KINDS: dict[str, EventKind] = {kind.value: kind for kind in EventKind}


def dumps(trace: Trace, **json_kwargs: Any) -> str:
    """Serialise a trace to a JSON string."""
    return json.dumps(trace_to_dict(trace), **json_kwargs)


def loads(text: str | bytes, *, max_bytes: int | None = None) -> Trace:
    """Deserialise a trace from a JSON string.

    Parameters
    ----------
    text:
        The JSON document (``str`` or UTF-8 ``bytes``).
    max_bytes:
        Optional size guard: payloads whose encoded size exceeds this
        many bytes are rejected with :class:`PayloadTooLargeError`
        *before* parsing.  Pass :data:`MAX_TRACE_BYTES` for the default
        ceiling; ``None`` (the default) keeps the historical unlimited
        behaviour for trusted local files.

    Raises
    ------
    PayloadTooLargeError
        If ``max_bytes`` is given and the payload exceeds it.
    SchemaVersionError
        If the payload declares an unknown schema version.
    TraceError
        If the payload is otherwise malformed (including non-JSON
        input, which is reported as a malformed payload rather than a
        bare ``json.JSONDecodeError``).
    """
    if max_bytes is not None:
        size = len(text) if isinstance(text, bytes) else len(text.encode("utf-8"))
        if size > max_bytes:
            raise PayloadTooLargeError(
                f"serialised trace is {size} bytes, over the {max_bytes}-byte limit"
            )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed trace payload: {exc}") from exc
    if not isinstance(data, dict):
        raise TraceError(
            f"trace payload must be a JSON object, got {type(data).__name__}"
        )
    return trace_from_dict(data)


def save(trace: Trace, path: str, **json_kwargs: Any) -> None:
    """Write a trace to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_dict(trace), fh, **json_kwargs)


def load(path: str) -> Trace:
    """Read a trace previously written by :func:`save`."""
    with open(path, encoding="utf-8") as fh:
        return trace_from_dict(json.load(fh))
