"""Event/poset substrate: atomic events, traces, vector clocks.

This package implements the execution model of Section 1 and the
timestamping machinery of Section 2.3 of the paper: the poset
``(E, ≺)`` of atomic events partitioned into local executions with
dummy ``⊥``/``⊤`` events, canonical forward vector clocks (Fidge and
Mattern, Def. 13) and reverse clocks (Def. 14).
"""

from .builder import MessageHandle, TraceBuilder
from .clocks import (
    CyclicTraceError,
    GrowableClockTable,
    clock_pass_counts,
    compute_forward_clocks,
    compute_reverse_clocks,
    reset_clock_pass_counts,
)
from .event import Event, EventId, EventKind
from .lamport import compute_lamport_clocks, lamport_order_violations
from .poset import Execution, Ordering
from .serialization import (
    dumps,
    load,
    loads,
    save,
    trace_from_dict,
    trace_to_dict,
)
from .trace import Message, Trace, TraceError

__all__ = [
    "Event",
    "EventId",
    "EventKind",
    "Message",
    "MessageHandle",
    "Trace",
    "TraceBuilder",
    "TraceError",
    "CyclicTraceError",
    "GrowableClockTable",
    "Execution",
    "Ordering",
    "compute_forward_clocks",
    "compute_reverse_clocks",
    "clock_pass_counts",
    "reset_clock_pass_counts",
    "compute_lamport_clocks",
    "lamport_order_violations",
    "trace_to_dict",
    "trace_from_dict",
    "dumps",
    "loads",
    "save",
    "load",
]
