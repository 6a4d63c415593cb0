"""Live workloads: a ``python -m repro serve`` subprocess and one load process.

Each rep spawns a fresh server (default backpressure limits) with a
durable event log, opens two :class:`~repro.service.client.MonitorClient`
sessions, registers the set-up watches, and then drives the frame
stream:

* ``live_ingest`` — closed loop: one thread writes both shards
  (``plan_replay`` sharding by node) in rounds of consecutive
  causal-schedule steps (:data:`~benchmarks.suite.inputs.ROUND_STEPS`)
  and after each round waits for a ``stats`` reply on both
  connections, so a session's unapplied backlog stays below the
  server's default disconnect mark and is 0 at every barrier; the
  clock stops at the barrier after the last verdict arrived;
* ``live_watch`` — open loop: frames leave on a fixed schedule whatever
  the server does, a second thread timestamps verdict pushes on the
  second connection.

A verdict's latency is its arrival minus the send time of the later of
its watch's two closes: the *scheduled* time in the open loop, the
moment the close was handed to the socket in the closed loop (whose
client reads verdicts at each round's barrier).

The traced run replays the identical frame stream in-process
(:func:`replay_rep`): ``encode_frame`` → ``FrameDecoder.feed`` →
``MonitorCore.submit_*``, the core's applied records through a bare
:class:`~repro.monitor.online.OnlineMonitor`, and the same records into
a fresh :class:`~repro.service.log.EventLog`.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.evaluator import SynchronizationAnalyzer
from repro.events.poset import Execution
from repro.monitor.online import OnlineMonitor
from repro.monitor.predicates import parse_condition
from repro.nonatomic.event import NonatomicEvent
from repro.service.client import MonitorClient
from repro.service.core import MonitorCore
from repro.service.log import EventLog
from repro.service.protocol import FrameDecoder, encode_frame

from .inputs import LiveInputs, LiveSize, live_inputs
from .tracing import Tracer

#: Lead time between the end of set-up and the first scheduled frame.
OPEN_LOOP_LEAD_S = 0.05

#: Frames per traced replay batch (spans are per batch, never per frame).
REPLAY_BATCH = 256

#: At least this many set-ups are timed per run for ``setup_s``.
MIN_SETUPS = 5

SOCKET_TIMEOUT_S = 60.0


class ServeProcess:
    """One ``python -m repro serve`` child with a durable log in ``workdir``."""

    def __init__(self, root: str, nodes: int, workdir: str) -> None:
        log_path = os.path.join(workdir, "serve.log")
        if os.path.exists(log_path):
            os.remove(log_path)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._stderr = open(os.path.join(workdir, "serve.stderr"), "w+")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--nodes", str(nodes),
             "--port", "0", "--log", log_path],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r" on (\S+):(\d+)\s*$", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} {self.stderr()}")
        self.address = (match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stderr(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()

    def stop(self) -> None:
        """Interrupt the server (it syncs its log and exits) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()


def send_frame(client: MonitorClient, frame: dict) -> None:
    """Send one planned frame through the client's public vocabulary."""
    if frame["type"] == "event":
        client.send_event(
            frame["node"], frame["kind"], label=frame.get("label"),
            time=frame.get("time"), interval=frame.get("interval"),
            send=frame.get("send"),
        )
    elif frame["type"] == "close":
        client.close_interval(frame["interval"], frame["expected"])
    else:
        client.watch(frame["name"], frame["condition"])


@dataclass
class LiveRep:
    answer_s: float
    latencies_ms: list[float]
    late_ms: list[float]
    rss_mb: float
    stats: dict
    throttles: int
    failed: int
    attempted: int


@dataclass
class LiveRun:
    size: LiveSize
    inputs: LiveInputs
    expected: dict[str, bool]
    reps: list[LiveRep] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    spans: list = field(default_factory=list)


def prepare(size: LiveSize, seed: int) -> LiveRun:
    """Inputs plus the offline analyzer's verdict for every watch."""
    inputs = live_inputs(size, seed)
    ex = Execution(inputs.trace)
    analyzer = SynchronizationAnalyzer(ex)
    ids: dict[str, list] = {}
    for ev in inputs.trace.iter_events():
        ids.setdefault(ev.label, []).append(ev.eid)
    intervals = {label: NonatomicEvent(ex, eids, name=label) for label, eids in ids.items()}
    expected = {
        name: parse_condition(cond).evaluate(
            lambda atom: analyzer.holds(
                atom.spec, intervals[atom.left], intervals[atom.right]
            )
        )
        for name, cond, _a, _b in inputs.watches
    }
    return LiveRun(size, inputs, expected)


class _Session:
    """Spawned server + two welcomed sessions with every watch acknowledged."""

    def __init__(self, run: LiveRun, root: str, workdir: str) -> None:
        start = perf_counter()
        self.server = ServeProcess(root, run.size.nodes, workdir)
        self.clients: list[MonitorClient] = []
        try:
            host, port = self.server.address
            for _ in range(2):
                self.clients.append(MonitorClient(
                    host, port, num_nodes=run.size.nodes, timeout=SOCKET_TIMEOUT_S,
                ))
            watcher = self.clients[run.inputs.watch_conn]
            for name, cond, _a, _b in run.inputs.setup_watches:
                watcher.watch(name, cond)
            for client in self.clients:
                client.stats()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - start

    def close(self) -> None:
        try:
            for client in self.clients:
                client.close()
        finally:
            self.server.stop()


def _closed_loop(clients: list[MonitorClient], inp: LiveInputs) -> tuple[float, dict, dict]:
    """Sharded stream in barrier-closed rounds; returns (wall, arrivals,
    close send times)."""
    watcher = clients[inp.watch_conn]
    arrivals: dict[str, float] = {}
    sent: dict[str, float] = {}
    seen = 0

    def absorb() -> None:
        nonlocal seen
        now = perf_counter()
        for v in watcher.verdicts[seen:]:
            arrivals.setdefault(v["name"], now)
        seen = len(watcher.verdicts)

    t0 = perf_counter()
    for start, end in zip([0, *inp.round_ends], inp.round_ends):
        for conn, frame in inp.plan[start:end]:
            send_frame(clients[conn], frame)
            if frame["type"] == "close":
                sent[frame["interval"]] = perf_counter()
        for client in clients:
            client.stats()
        absorb()
    while len(watcher.verdicts) < len(inp.watches):
        watcher.wait_verdicts(len(watcher.verdicts) + 1)
        absorb()
    for client in clients:
        client.stats()
    return perf_counter() - t0, arrivals, sent


def _open_loop(
    clients: list[MonitorClient], inp: LiveInputs, rate: float
) -> tuple[float, dict, dict, list[float]]:
    """Scheduled stream on connection 0, verdict listener thread on 1.

    Returns (wall, arrivals, scheduled close times, lateness in ms)."""
    sender, listener = clients[0], clients[inp.watch_conn]
    expected = len(inp.watches)
    arrivals: dict[str, float] = {}
    errors: list[BaseException] = []

    def listen() -> None:
        try:
            while len(listener.verdicts) < expected:
                k = len(listener.verdicts)
                listener.wait_verdicts(k + 1)
                now = perf_counter()
                for v in listener.verdicts[k:]:
                    arrivals.setdefault(v["name"], now)
        except (OSError, ValueError, RuntimeError) as exc:  # reported below
            errors.append(exc)

    thread = threading.Thread(target=listen, daemon=True)
    thread.start()
    due_close: dict[str, float] = {}
    late_ms: list[float] = []
    t0 = perf_counter() + OPEN_LOOP_LEAD_S
    due = t0
    slot = 0
    for i, (_conn, frame) in enumerate(inp.plan):
        if frame["type"] == "event":
            due = t0 + slot / rate
            slot += 1
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_ms.append((perf_counter() - due) * 1e3)
        send_frame(sender, frame)
        if frame["type"] == "close":
            due_close[frame["interval"]] = due
        if i % 64 == 63:
            sender.poll()
    thread.join(SOCKET_TIMEOUT_S)
    if thread.is_alive():
        raise TimeoutError("verdict listener did not finish")
    if errors:
        raise errors[0]
    for client in clients:
        client.stats()
    return perf_counter() - t0, arrivals, due_close, late_ms


def _failures(run: LiveRun, clients: list[MonitorClient], stats: dict) -> int:
    """Count every correctness violation of one rep."""
    inp = run.inputs
    failed = inp.total_events - stats["events_applied"]
    failed += len(inp.intervals) - stats["closes_applied"]
    failed += stats["parked"]
    failed += sum(1 for passes in stats["clock_passes"].values() if passes)
    for client in clients:
        client.wait_verdicts(len(inp.watches))
        got: dict[str, bool] = {}
        for v in client.verdicts:
            failed += v["name"] in got  # duplicate delivery
            got[v["name"]] = v["passed"]
        failed += sum(got.get(name) != want for name, want in run.expected.items())
    return failed


def socket_rep(run: LiveRun, root: str, workdir: str) -> LiveRep:
    """One untraced rep over loopback against a fresh server."""
    inp = run.inputs
    session = _Session(run, root, workdir)
    try:
        clients = session.clients
        late_ms: list[float] = []
        if run.size.rate is None:
            wall, arrivals, close_at = _closed_loop(clients, inp)
        else:
            wall, arrivals, close_at, late_ms = _open_loop(clients, inp, run.size.rate)
        stats = clients[0].stats()
        rss = session.server.peak_rss_mb()
        failed = _failures(run, clients, stats)
        throttles = sum(client.throttles for client in clients)
    finally:
        session.close()
    latencies = [
        (arrivals[name] - max(close_at[a], close_at[b])) * 1e3
        for name, _cond, a, b in inp.watches
        if name in arrivals
    ]
    run.setups.append(session.setup_s)
    return LiveRep(
        answer_s=wall, latencies_ms=latencies, late_ms=late_ms, rss_mb=rss,
        stats=stats, throttles=throttles, failed=failed,
        attempted=len(inp.plan) + len(inp.setup_watches) + len(inp.watches),
    )


def setup_only(run: LiveRun, root: str, workdir: str) -> None:
    """Time one more set-up (spawn → welcomed → watches acknowledged)."""
    session = _Session(run, root, workdir)
    session.close()
    run.setups.append(session.setup_s)


# ----------------------------------------------------------------------
# traced in-process replay
# ----------------------------------------------------------------------
def _runs(plan: list[tuple[int, dict]]) -> list[tuple[int, list[dict]]]:
    """The plan cut into same-connection batches of at most REPLAY_BATCH."""
    out: list[tuple[int, list[dict]]] = []
    for conn, frame in plan:
        if not out or out[-1][0] != conn or len(out[-1][1]) >= REPLAY_BATCH:
            out.append((conn, []))
        out[-1][1].append(frame)
    return out


def _frame_path(run: LiveRun, tracer: Tracer) -> tuple[float, MonitorCore, int, int]:
    """encode → decode → MonitorCore over the send plan.

    Returns (seconds, core, bytes on the wire, first seq after set-up)."""
    inp = run.inputs
    core = MonitorCore(run.size.nodes)
    for name, cond, _a, _b in inp.setup_watches:
        core.submit_watch(name, cond, session=inp.watch_conn + 1)
    setup_seq = core.last_seq
    decoders = {conn: FrameDecoder() for conn in range(2)}
    nbytes = 0
    start = perf_counter()
    for conn, frames in _runs(inp.plan):
        with tracer.span("service.protocol.encode"):
            blob = b"".join([encode_frame(f) for f in frames])
        nbytes += len(blob)
        with tracer.span("service.protocol.decode"):
            decoded = decoders[conn].feed(blob)
        with tracer.span("service.core.submit"):
            for f in decoded:
                if f["type"] == "event":
                    core.submit_event(f, session=conn + 1)
                elif f["type"] == "close":
                    core.submit_close(f["interval"], f["expected"], session=conn + 1)
                else:
                    core.submit_watch(f["name"], f["condition"], session=conn + 1)
    return perf_counter() - start, core, nbytes, setup_seq


def _bare_monitor(
    run: LiveRun, records: list[dict], tracer: Tracer
) -> int:
    """The core's applied events, closes and watches through a bare
    OnlineMonitor; returns the pending watches scanned."""
    mon = OnlineMonitor(run.size.nodes)
    for name, cond, _a, _b in run.inputs.setup_watches:
        mon.watch(name, cond)
    handles: dict[tuple[int, int], object] = {}
    scanned = 0
    i = 0
    while i < len(records):
        rec = records[i]
        if rec["op"] in ("close", "watch"):
            with tracer.span("monitor.online.close"):
                if rec["op"] == "close":
                    scanned += len(mon.watch_names())
                    mon.close(rec["interval"])
                else:  # the core polls as it registers
                    mon.watch(rec["name"], rec["condition"])
                    scanned += len(mon.watch_names())
                    mon.poll_watches()
            i += 1
            continue
        if rec["op"] != "event":
            i += 1
            continue
        end = i
        while end < len(records) and end - i < REPLAY_BATCH and records[end]["op"] == "event":
            end += 1
        with tracer.span("monitor.online.ingest"):
            for ev in records[i:end]:
                node, kind = ev["node"], ev["kind"]
                kw = {"label": ev.get("label"), "time": ev.get("time"),
                      "interval": ev.get("interval")}
                if kind == "send":
                    h = mon.send(node, **kw)
                    handles[h.send] = h
                elif kind == "recv":
                    mon.recv(node, handles[tuple(ev["send"])], **kw)
                else:
                    mon.internal(node, **kw)
        i = end
    return scanned


def _log_replay(records: list[dict], workdir: str, tracer: Tracer) -> int:
    """The run's records into a fresh EventLog at the server's fsync
    batch; returns the number of syncs."""
    path = os.path.join(workdir, "replay.log")
    if os.path.exists(path):
        os.remove(path)
    bodies = [{k: v for k, v in rec.items() if k != "seq"} for rec in records]
    log = EventLog(path)
    syncs = 0
    try:
        batch = log.fsync_every
        for start in range(0, len(bodies), batch):
            with tracer.span("service.log.append"):
                for rec in bodies[start:start + batch]:
                    log.append(rec)
            if log.needs_sync:
                with tracer.span("service.log.sync"):
                    log.sync()
                syncs += 1
    finally:
        with tracer.span("service.log.sync"):
            log.close()
    return syncs + 1


def replay_rep(run: LiveRun, workdir: str, rep: LiveRep, label: str) -> dict[str, float]:
    """Per-layer seconds and counts of one traced in-process replay,
    with the transport remainder taken from the untraced ``rep``."""
    untraced_s = _frame_path(run, Tracer(False))[0]  # its core is dropped here
    tracer = Tracer(True, run=label)
    traced_s, core, nbytes, setup_seq = _frame_path(run, tracer)
    records = core.records_from(setup_seq)
    scanned = _bare_monitor(run, records, tracer)
    syncs = _log_replay(records, workdir, tracer)
    run.spans.extend(tracer.records())
    t = tracer.self_times()
    monitor_s = t.get("monitor.online.ingest", 0.0) + t.get("monitor.online.close", 0.0)
    layers = {
        "service.protocol.encode_s": t["service.protocol.encode"],
        "service.protocol.decode_s": t["service.protocol.decode"],
        "service.core.submit_s": t["service.core.submit"] - monitor_s,
        "monitor.online.ingest_s": t.get("monitor.online.ingest", 0.0),
        "monitor.online.close_s": t.get("monitor.online.close", 0.0),
        "service.log.append_s": t.get("service.log.append", 0.0),
        "service.log.sync_s": t.get("service.log.sync", 0.0),
    }
    inproc = sum(layers.values())
    transport = max(rep.answer_s - inproc, 0.0)
    layers.update({
        "service.server.transport_s": transport,
        "unattributed_s": rep.answer_s - inproc - transport,
        "tracing_overhead_s": traced_s - untraced_s,
        "service.protocol.bytes": float(nbytes),
        "service.core.parked_peak": float(max(s["queued_peak"] for s in rep.stats["shards"])),
        "monitor.online.watches_scanned": float(scanned),
        "service.log.syncs": float(syncs),
        "service.core.watch_latency_avg_ms": rep.stats["watch_latency"]["avg_ms"],
    })
    return layers


def run_reps(
    run: LiveRun, root: str, workdir: str, seed: int, seconds: float,
    traced: bool,
) -> None:
    """Reps until ``seconds`` have passed (at least the size's minimum),
    then extra set-ups until :data:`MIN_SETUPS` were timed."""
    start = perf_counter()
    while True:
        t = perf_counter()
        rep = socket_rep(run, root, workdir)
        run.reps.append(rep)
        if traced:
            label = f"seed{seed}-rep{len(run.reps) - 1}"
            run.layers.append(replay_rep(run, workdir, rep, label))
        took = perf_counter() - t
        if len(run.reps) >= run.size.min_reps and perf_counter() - start + took > seconds:
            break
    while not traced and len(run.setups) < MIN_SETUPS:
        setup_only(run, root, workdir)
