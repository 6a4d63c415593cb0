"""Seeded inputs for the four workloads.

Everything a workload feeds the system is generated here from the
``--seed`` argument alone: the same seed gives byte-identical trace
text, interval id lists and frame streams.  The system under test
receives only these generated inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from repro.events.serialization import dumps
from repro.events.trace import Trace, causal_schedule
from repro.service.client import plan_replay
from repro.simulation.workloads import random_trace


@dataclass(frozen=True)
class OfflineSize:
    """Shape of an offline workload (trace text + interval pairs)."""

    nodes: int
    events_per_node: int
    msg_prob: float
    pairs: int
    span: int | None  # nodes per interval; None draws 1..nodes per interval
    min_reps: int


@dataclass(frozen=True)
class LiveSize:
    """Shape of a live workload (frame stream + watches)."""

    nodes: int
    events_per_node: int
    msg_prob: float
    window: int  # events per interval, in global step order
    watches: int
    #: False: every watch is registered during set-up.  True: each watch
    #: is sent in the stream right after the window before its pair
    #: closes, so only a few watches are pending at any close.
    staged: bool
    rate: float | None  # offered events/s (open loop); None = closed loop
    connections_sending: int
    min_reps: int


#: (full size, ``--quick`` size) per workload.
SIZES: dict[str, tuple[OfflineSize | LiveSize, OfflineSize | LiveSize]] = {
    "offline_bulk": (
        OfflineSize(64, 2000, 0.05, pairs=64, span=8, min_reps=7),
        OfflineSize(8, 200, 0.05, pairs=8, span=4, min_reps=2),
    ),
    "offline_pairs": (
        OfflineSize(16, 256, 0.3, pairs=16_000, span=None, min_reps=5),
        OfflineSize(4, 64, 0.3, pairs=200, span=None, min_reps=2),
    ),
    "live_ingest": (
        LiveSize(8, 6_400, 0.3, window=250, watches=204, staged=True, rate=None,
                 connections_sending=2, min_reps=5),
        LiveSize(4, 500, 0.3, window=100, watches=19, staged=True, rate=None,
                 connections_sending=2, min_reps=1),
    ),
    "live_watch": (
        LiveSize(8, 5_000, 0.3, window=40, watches=992, staged=False, rate=6000.0,
                 connections_sending=1, min_reps=3),
        LiveSize(4, 300, 0.3, window=20, watches=59, staged=False, rate=3000.0,
                 connections_sending=1, min_reps=1),
    ),
}

#: Sample of pairs per rep whose offline verdicts are re-derived by the
#: scalar linear engine.
CHECK_SAMPLE = 256

#: Causal-schedule steps per closed-loop round.  One connection's share
#: of a round (at most 1,000 events plus a few closes) stays below the
#: server's default disconnect mark of 1,024 unapplied operations.
ROUND_STEPS = 1_000

#: Watch conditions cycle through these forms over the watched interval
#: pairs ``(a, b)``.
WATCH_FORMS = (
    "R1({a}, {b})",
    "R2'({a}, {b})",
    "R3(U,L)({a}, {b})",
    "R4({a}, {b})",
    "R4({a}, {b}) and not R4({b}, {a})",
)


@dataclass
class OfflineInputs:
    trace: Trace
    text: str
    pairs: list[tuple[list[int], list[int]]]  # flat [node, idx, node, idx, ...]


@dataclass
class LiveInputs:
    trace: Trace  # window-labelled
    total_events: int
    intervals: list[str]
    watches: list[tuple[str, str, str, str]]  # (name, condition, left, right)
    setup_watches: list[tuple[str, str, str, str]]  # registered during set-up
    plan: list[tuple[int, dict]]  # (connection, frame) in send order
    round_ends: list[int]  # plan index after each closed-loop round
    watch_conn: int


def _disjoint_pairs(
    num_nodes: int, per_node: int, count: int, span: int | None,
    rng: np.random.Generator,
) -> list[tuple[list[int], list[int]]]:
    """``count`` disjoint interval pairs with two events per spanned node.

    Four distinct local indices are drawn per node; X takes the first
    two and Y the last two, so X and Y never share an event even where
    their node sets overlap.
    """
    picks = rng.integers(1, per_node + 1, size=(count, num_nodes, 4))
    while True:
        ordered = np.sort(picks, axis=2)
        dup = (ordered[..., 1:] == ordered[..., :-1]).any(axis=2)
        if not dup.any():
            break
        picks[dup] = rng.integers(1, per_node + 1, size=(int(dup.sum()), 4))

    def node_sets() -> np.ndarray:
        order = np.argsort(rng.random((count, num_nodes)), axis=1)
        sizes = (
            np.full(count, span) if span is not None
            else rng.integers(1, num_nodes + 1, size=count)
        )
        return np.where(np.arange(num_nodes) < sizes[:, None], order, -1)

    xs, ys = node_sets(), node_sets()
    out = []
    picks_l = picks.tolist()
    for i, (xn, yn) in enumerate(zip(xs.tolist(), ys.tolist(), strict=True)):
        row = picks_l[i]
        x = [v for n in xn if n >= 0 for v in (n, row[n][0], n, row[n][1])]
        y = [v for n in yn if n >= 0 for v in (n, row[n][2], n, row[n][3])]
        out.append((x, y))
    return out


def offline_inputs(size: OfflineSize, seed: int) -> OfflineInputs:
    """Trace text and interval pairs of one offline workload."""
    trace = random_trace(size.nodes, size.events_per_node, size.msg_prob, seed=seed)
    rng = np.random.default_rng([seed, 1])
    pairs = _disjoint_pairs(
        size.nodes, size.events_per_node, size.pairs, size.span, rng
    )
    return OfflineInputs(trace, dumps(trace), pairs)


def sample_pairs(num_pairs: int, seed: int, rep: int) -> list[int]:
    """Indices of the pairs checked against the scalar engine in ``rep``."""
    rng = np.random.default_rng([seed, 2, rep])
    take = min(CHECK_SAMPLE, num_pairs)
    return sorted(rng.choice(num_pairs, size=take, replace=False).tolist())


def window_labelled(trace: Trace, window: int) -> Trace:
    """Label every event with its global step window ``w<k>``.

    ``random_trace`` stamps event ``i`` of the global order with time
    ``i`` (from 1), so window ``k`` holds steps ``k*window+1 ..
    (k+1)*window``: a nonatomic event spread over many nodes.
    """
    return Trace(
        [
            [
                dataclasses.replace(ev, label=f"w{(int(ev.time) - 1) // window}")
                for ev in trace.events_of(node)
            ]
            for node in range(trace.num_nodes)
        ],
        trace.messages,
    )


def _interval_pairs(intervals: list[str], count: int) -> list[tuple[str, str]]:
    """``count`` ordered pairs: neighbours first, then pairs two apart, ..."""
    pairs: list[tuple[str, str]] = []
    for gap in range(1, len(intervals)):
        for k in range(len(intervals) - gap):
            if len(pairs) == count:
                return pairs
            pairs.append((intervals[k], intervals[k + gap]))
    if len(pairs) < count:
        raise ValueError(f"{len(intervals)} intervals cannot carry {count} watches")
    return pairs


def _rounds(trace: Trace, shards: int, steps: int) -> list[list[tuple[int, dict]]]:
    """The ``plan_replay`` shards cut into rounds of ``steps`` consecutive
    causal-schedule steps: each round holds every shard's frames of its
    steps, shard by shard.  A receive's send is never in a later round,
    so a round's frames are all applicable once the round has arrived."""
    schedule = causal_schedule(trace)
    rounds = [[[] for _ in range(shards)] for _ in range(-(-len(schedule) // steps))]
    for s in range(shards):
        steps_of = (g for g, (node, _ev, _send) in enumerate(schedule)
                    if node % shards == s)
        r = 0
        for frame in plan_replay(trace, s, shards):
            if frame["type"] == "event":
                r = next(steps_of) // steps
            rounds[r][s].append((s, frame))  # a close stays with its last event
    return [[f for shard in rnd for f in shard] for rnd in rounds]


def _stage_watches(
    rounds: list[list[tuple[int, dict]]], watches: list, conn: int
) -> None:
    """Insert each watch on ``(w<k>, ...)`` right after the close of
    ``w<k-1>`` (the first ones before every frame)."""
    after: dict[str | None, list[dict]] = {}
    for name, cond, a, _b in watches:
        k = int(a[1:])
        after.setdefault(f"w{k - 1}" if k else None, []).append(
            {"type": "watch", "name": name, "condition": cond}
        )
    rounds[0][:0] = [(conn, w) for w in after.pop(None, [])]
    for rnd in rounds:
        out: list[tuple[int, dict]] = []
        for c, frame in rnd:
            out.append((c, frame))
            if frame["type"] == "close":
                out.extend((conn, w) for w in after.pop(frame["interval"], []))
        rnd[:] = out


def live_inputs(size: LiveSize, seed: int) -> LiveInputs:
    """Frame stream, watches and send plan of one live workload."""
    trace = window_labelled(
        random_trace(size.nodes, size.events_per_node, size.msg_prob, seed=seed),
        size.window,
    )
    total = trace.total_events
    intervals = [f"w{k}" for k in range(-(-total // size.window))]
    watches = []
    for a, b in _interval_pairs(intervals, size.watches):
        k = len(watches)
        cond = WATCH_FORMS[k % len(WATCH_FORMS)].format(a=a, b=b)
        watches.append((f"wt{k}", cond, a, b))
    # the open-loop workload sends one stream and listens for verdicts
    # on its own connection
    closed = size.rate is None
    watch_conn = 0 if closed else 1
    rounds = _rounds(trace, size.connections_sending, ROUND_STEPS if closed else total)
    if size.staged:
        _stage_watches(rounds, watches, watch_conn)
    plan = [f for rnd in rounds for f in rnd]
    round_ends = list(itertools.accumulate(len(rnd) for rnd in rounds))
    setup_watches = [] if size.staged else watches
    return LiveInputs(trace, total, intervals, watches, setup_watches, plan,
                      round_ends, watch_conn)
