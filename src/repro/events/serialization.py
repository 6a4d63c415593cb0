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
Payloads are serialised only when JSON-representable.  Both directions
go through the trace's per-node columns
(:meth:`~repro.events.trace.Trace.node_columns`), so neither builds an
:class:`~repro.events.event.Event`.

:func:`loads` and :func:`load` decode one node at a time: the top-level
object is walked value by value with the stdlib scanner, and each
node's record list becomes that node's columns before the next one is
parsed, so the parse scratch alive at any moment is one node's records
(or the message records not yet converted), never the whole record
tree.  Any input that walk does not accept is decoded again by
``json.loads`` and :func:`trace_from_dict`, which decide the result or
the error.
"""

from __future__ import annotations

# repro: hot

import json
import re
from typing import Any

from .event import EventKind
from .trace import Message, NodeColumns, Trace, TraceError

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


def _record(
    kind: EventKind, label: str | None, time: float | None, payload: Any
) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": kind.value}
    if label is not None:
        out["label"] = label
    if time is not None:
        out["time"] = time
    if payload is not None:
        try:
            json.dumps(payload)
        except (TypeError, ValueError):
            pass
        else:
            out["payload"] = payload
    return out


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    """Convert a trace to a JSON-ready dictionary (reads the columns)."""
    return {
        "version": SCHEMA_VERSION,
        "num_nodes": trace.num_nodes,
        "events": [
            list(map(_record, *trace.node_columns(i)))
            for i in range(trace.num_nodes)
        ],
        "messages": [
            [list(msg.send), list(msg.recv)] for msg in trace.messages
        ],
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    """Reconstruct a trace from :func:`trace_to_dict` output.

    The per-node kind, label, time and payload columns are filled
    straight from the records and each column is checked once, as a
    set of values or of types; no :class:`~repro.events.event.Event`
    is built (see :class:`~repro.events.trace.Trace`).  The version is
    the ``int`` 1; counts and message endpoints must be ``int`` (not
    ``bool``), labels strings or null, times numbers or null; payloads
    are free-form.

    Raises
    ------
    TraceError
        If the payload is malformed or uses an unknown schema version.
    """
    raw_events = _checked_header(data)
    return Trace.from_columns(
        [_node_columns(node, records) for node, records in enumerate(raw_events)],
        list(map(_message, data["messages"])),
    )


def _checked_header(data: Any) -> list[Any]:
    """The ``events`` list of a payload whose header is well formed."""
    if not isinstance(data, dict):
        raise TraceError(
            f"trace payload must be a JSON object, got {type(data).__name__}"
        )
    version = data.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"unsupported trace schema version: {version!r} "
            f"(this reader speaks version {SCHEMA_VERSION})"
        )
    try:
        num_nodes = data["num_nodes"]
        raw_events = data["events"]
        raw_messages = data["messages"]
    except KeyError as exc:
        raise TraceError(f"malformed trace payload: missing {exc}") from exc
    if type(num_nodes) is not int:
        raise TraceError(f"malformed trace payload: num_nodes={num_nodes!r}")
    if type(raw_events) is not list or type(raw_messages) is not list:
        raise TraceError("malformed trace payload: events and messages must be lists")
    if len(raw_events) != num_nodes:
        raise TraceError(
            f"num_nodes={num_nodes} but {len(raw_events)} event lists present"
        )
    return raw_events


def _node_columns(node: int, records: Any) -> NodeColumns:
    """One node's kind/label/time/payload columns, each checked once."""
    if type(records) is not list:
        raise TraceError(f"malformed event record on node {node}: {records!r}")
    try:
        kinds = tuple([_KINDS[rec.get("kind", "internal")] for rec in records])
    except (AttributeError, TypeError) as exc:  # not an object, an unhashable kind
        raise TraceError(f"malformed event record on node {node}: {exc}") from exc
    except KeyError as exc:
        raise TraceError(f"unknown event kind: {exc.args[0]!r}") from exc
    labels = tuple([rec.get("label") for rec in records])
    times = tuple([rec.get("time") for rec in records])
    for name, column, allowed in (
        ("label", labels, _LABEL_TYPES), ("time", times, _TIME_TYPES)
    ):
        if not allowed.issuperset(map(type, column)):
            bad = next(v for v in column if type(v) not in allowed)
            raise TraceError(f"malformed event {name} on node {node}: {bad!r}")
    return NodeColumns(kinds, labels, times, tuple([rec.get("payload") for rec in records]))


def _message(pair: Any) -> Message:
    """A message record ``[[send node, index], [recv node, index]]``."""
    try:
        (s_node, s_idx), (r_node, r_idx) = pair
    except (TypeError, ValueError) as exc:
        raise TraceError(f"malformed message record: {pair!r}") from exc
    if type(s_node) is type(s_idx) is type(r_node) is type(r_idx) is int:
        return Message((s_node, s_idx), (r_node, r_idx))
    raise TraceError(f"malformed message record: {pair!r}")


#: Event kinds by their serialised value; the dummy kinds are kept so a
#: dummy record is rejected by :class:`Trace` with its own message.
_KINDS: dict[str, EventKind] = {kind.value: kind for kind in EventKind}

_LABEL_TYPES = frozenset({str, type(None)})
_TIME_TYPES = frozenset({int, float, type(None)})


def dumps(trace: Trace, **json_kwargs: Any) -> str:
    """Serialise a trace to a JSON string."""
    return json.dumps(trace_to_dict(trace), **json_kwargs)


def loads(text: str | bytes, *, max_bytes: int | None = None) -> Trace:
    """Deserialise a trace from a JSON string, one node at a time.

    The top-level object is walked value by value; each node's record
    list is parsed and turned into that node's columns before the next
    node's is parsed, so the parse scratch alive at any moment is one
    node's records (or the message records not yet converted), not the
    whole record tree.  No :class:`~repro.events.event.Event` is built
    until a caller reads events through
    :meth:`~repro.events.trace.Trace.events_of`,
    :meth:`~repro.events.trace.Trace.event` or
    :meth:`~repro.events.trace.Trace.iter_events`, and then once per
    node.  The result, or the error, is the one
    ``trace_from_dict(json.loads(text))`` gives: the walk keeps the
    last of repeated keys as ``json`` does, and an input it refuses
    (not one JSON object, or not a valid trace) is decoded again that
    way.

    Parameters
    ----------
    text:
        The JSON document (``str``, or ``bytes`` in an encoding that
        ``json.loads`` detects).
    max_bytes:
        Optional size guard: payloads whose UTF-8 size exceeds this
        many bytes are rejected with :class:`PayloadTooLargeError`
        *before* parsing.  A ``str`` is encoded to measure it only when
        its length alone cannot decide (between ``max_bytes / 4`` and
        ``max_bytes`` code points).  Pass :data:`MAX_TRACE_BYTES` for
        the default ceiling; ``None`` (the default) keeps the
        historical unlimited behaviour for trusted local files.

    Raises
    ------
    PayloadTooLargeError
        If ``max_bytes`` is given and the payload exceeds it.
    SchemaVersionError
        If the payload declares an unknown schema version.
    TraceError
        If the payload is otherwise malformed (including non-JSON or
        non-UTF-8 input, which is reported as a malformed payload
        rather than a bare ``json.JSONDecodeError`` or
        ``UnicodeDecodeError``).
    """
    if max_bytes is not None:
        # A code point encodes to 1-4 bytes: a str longer than max_bytes
        # is over and one of at most max_bytes / 4 is under, so only the
        # lengths in between are encoded to decide.
        size = len(text)
        if isinstance(text, str) and size <= max_bytes < 4 * size:
            size = len(text.encode("utf-8", "surrogatepass"))
        if size > max_bytes:
            raise PayloadTooLargeError(
                f"serialised trace is at least {size} bytes, over the "
                f"{max_bytes}-byte limit"
            )
    try:
        return _decode_by_node(text)
    except Exception:  # the reference path below decides every failure
        pass
    try:
        data = json.loads(text)
    except ValueError as exc:  # not JSON, not UTF-8, or an over-long integer
        raise TraceError(f"malformed trace payload: {exc}") from exc
    return trace_from_dict(data)


def save(trace: Trace, path: str, **json_kwargs: Any) -> None:
    """Write a trace to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_dict(trace), fh, **json_kwargs)


def load(path: str) -> Trace:
    """Read a trace previously written by :func:`save`.

    The file's bytes go through :func:`loads`, so the decode runs one
    node at a time and a file that is not JSON or not UTF-8 raises
    :class:`~repro.events.trace.TraceError`.
    """
    with open(path, "rb") as fh:
        return loads(fh.read())


#: RFC 8259 whitespace, as ``json`` skips it.
_WS = re.compile(r"[ \t\n\r]*")
_value = json.JSONDecoder().raw_decode


def _decode_by_node(text: str | bytes) -> Trace:
    """The trace of a well-formed payload, decoded one node at a time.

    Each top-level value goes through the stdlib scanner on its own;
    an ``events`` list is scanned one node's record list at a time and
    each becomes its :class:`NodeColumns` at once; message records are
    freed as they become :class:`Message` tuples.  Raises on anything
    else (the caller then decodes through ``json.loads``).
    """
    if not isinstance(text, str):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    ws = _WS.match
    pos = ws(text, 0).end()
    if text[pos] != "{":
        raise ValueError("not an object")
    data: dict[str, Any] = {}
    pos = ws(text, pos + 1).end()
    sep = text[pos]
    if sep == "}":
        pos += 1
    while sep != "}":
        key, pos = _value(text, pos)
        if type(key) is not str:
            raise ValueError("not a key")
        pos = ws(text, pos).end()
        if text[pos] != ":":
            raise ValueError("no colon")
        pos = ws(text, pos + 1).end()
        if key == "events" and text[pos] == "[":
            data[key], pos = _events_by_node(text, pos)
        else:
            data[key], pos = _value(text, pos)
        pos = ws(text, pos).end()
        sep = text[pos]
        if sep not in ",}":
            raise ValueError("no comma")
        pos = ws(text, pos + 1).end()
    if ws(text, pos).end() != len(text):
        raise ValueError("extra data")
    columns = _checked_header(data)
    raw_messages = data["messages"]
    raw_messages.reverse()  # popped in order, each record freed once converted
    return Trace.from_columns(
        columns, [_message(raw_messages.pop()) for _ in range(len(raw_messages))]
    )


def _events_by_node(text: str, pos: int) -> tuple[list[NodeColumns], int]:
    """Node columns of the ``events`` list at ``text[pos]`` and its end."""
    ws = _WS.match
    columns: list[NodeColumns] = []
    pos = ws(text, pos + 1).end()
    sep = text[pos]
    if sep == "]":
        pos += 1
    while sep != "]":
        records, pos = _value(text, pos)
        columns.append(_node_columns(len(columns), records))
        del records  # free this node's records before the next node parses
        pos = ws(text, pos).end()
        sep = text[pos]
        if sep not in ",]":
            raise ValueError("no comma")
        pos = ws(text, pos + 1).end()
    return columns, pos
