"""Append-only replicated event log.

Every operation the primary :class:`~repro.service.server.MonitorService`
accepts — events, interval closes, watch registrations, and emitted
verdicts — is appended here as one JSON line before its effects are
visible to any client.  The log is:

* **append-only** — records carry a strictly increasing ``seq``;
* **fsync-batched** — appends only buffer and count; the *owner*
  issues one ``fsync`` per ``fsync_every`` appends by polling
  :attr:`~EventLog.needs_sync` and calling :meth:`~EventLog.sync`
  (from a worker thread when the owner is an event loop), plus on
  :meth:`~EventLog.close` — amortising durability cost across the
  ingest batch while keeping the blocking syscall out of every
  coroutine's call graph;
* **on disk, not in memory** — an open log keeps one 8-byte line
  offset per record plus the decoded records of a bounded tail of
  recent appends (:data:`TAIL_RECORDS`), so its memory does not grow
  with the records it holds.  :meth:`~EventLog.records_from` serves
  the tail from memory; :meth:`~EventLog.read_from` reads older
  records back from the file and is blocking (restart replay, and
  replication below the tail through ``asyncio.to_thread``);
* **replayable** — a trailing partial line (a crash mid-write) is
  dropped: :func:`read_records` ignores it and opening an
  :class:`EventLog` truncates it away, so the next append starts on a
  clean line and the log loses at most the unsynced suffix, never the
  parseable prefix.
  :meth:`repro.service.core.MonitorCore.from_records` rebuilds the
  whole monitor state from the records;
* **replicated** — a warm-standby service tails the primary's appends
  over the wire (``replicate`` frames) into its own ``EventLog``, so
  promotion starts from local durable state.

:class:`MemoryLog` is the same interface and sequencing rule with every
record in memory and nothing durable (a service without ``--log``).

Record shapes (all carry ``seq`` and ``op``):

=========== ========================================================
``init``     ``num_nodes`` — first record of every log
``event``    ``node``, ``kind``, ``label``, ``time``, ``interval``,
             ``send`` (recvs only: ``[node, index]`` of the send)
``close``    ``interval``, ``expected``
``watch``    ``name``, ``condition``
``verdict``  ``watch_seq``, ``name``, ``passed``, ``decided_at`` —
             appended when a notification is *emitted*; its presence
             is what makes failover exactly-once (a promoted standby
             re-emits only watches with no logged verdict)
=========== ========================================================
"""

from __future__ import annotations

import json
import os
import threading
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import IO, Any

__all__ = ["TAIL_RECORDS", "EventLog", "LogError", "MemoryLog", "read_records"]

#: Decoded records of the most recent appends an :class:`EventLog`
#: keeps in memory, so replication reads them without file I/O; older
#: records are read back from the file.
TAIL_RECORDS = 1024


class LogError(ValueError):
    """Raised when a log file or record sequence is invalid."""


_SEQ = itemgetter("seq")


def _scan(fh: IO[bytes], path: str) -> Iterator[tuple[int, int, dict[str, Any]]]:
    """Yield ``(start, end, record)`` for every complete record of an
    open log file, ``end`` being the offset just past its line.

    A trailing partial line (crash mid-append) ends the scan quietly; a
    corrupt line *followed by* further records raises
    :class:`LogError`, since that indicates real damage rather than a
    torn tail.  So do malformed records and sequence gaps.
    """
    pos = 0
    prev_seq: int | None = None
    for lineno, line in enumerate(fh, 1):
        start, pos = pos, pos + len(line)
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:  # bad JSON, or a multibyte char cut short
            if any(later.strip() for later in fh):
                raise LogError(
                    f"{path}: corrupt record at line {lineno}: {exc}"
                ) from exc
            return  # torn tail from a crash mid-write; safe to drop
        if not isinstance(rec, dict) or "seq" not in rec or "op" not in rec:
            raise LogError(f"{path}: malformed record at line {lineno}")
        if prev_seq is not None and rec["seq"] != prev_seq + 1:
            raise LogError(f"{path}: sequence gap {prev_seq} -> {rec['seq']}")
        prev_seq = rec["seq"]
        yield start, pos, rec


def read_records(path: str) -> list[dict[str, Any]]:
    """Read every complete record of a log file.

    A trailing partial line (crash mid-append) is ignored; a corrupt
    line *followed by* further records raises :class:`LogError`, since
    that indicates real damage rather than a torn tail.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        return [rec for _, _, rec in _scan(fh, path)]


class _RecordStore:
    """The sequencing rule both record stores share."""

    _next_seq: int

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent record (0 when empty)."""
        return self._next_seq - 1

    def _sequenced(self, record: dict[str, Any]) -> dict[str, Any]:
        """``record`` with the next seq assigned, or checked when it
        carries one (replication apply, replay); the caller advances
        ``_next_seq`` once the record is stored."""
        seq = record.get("seq")
        if seq is None:
            return {"seq": self._next_seq, **record}
        if seq != self._next_seq:
            raise LogError(
                f"out-of-order append: got seq {seq}, expected {self._next_seq}"
            )
        return record


class EventLog(_RecordStore):
    """One append-only, fsync-batched log file.

    Parameters
    ----------
    path:
        File to append to.  Existing complete records are validated
        and indexed by line offset (the last :data:`TAIL_RECORDS` are
        kept decoded); a torn last line is truncated away, and
        appending resumes at the next sequence number.
    fsync_every:
        Batch size for durability: an ``fsync`` is issued every this
        many appends.  ``0`` disables fsync entirely (tests,
        throwaway logs).
    """

    def __init__(self, path: str, *, fsync_every: int = 64) -> None:
        self.path = path
        self.fsync_every = fsync_every
        # start offset of every record: seq s begins at _offsets[s - _base - 1]
        self._offsets = array("Q")
        self._tail: deque[dict[str, Any]] = deque(maxlen=TAIL_RECORDS)
        self._base = 0  # the seq just before the first record
        end = 0
        terminated = True
        if os.path.exists(path):
            with open(path, "rb") as fh:
                for start, end, rec in _scan(fh, path):
                    if not self._offsets:
                        self._base = rec["seq"] - 1
                    self._offsets.append(start)
                    self._tail.append(rec)
                if self._offsets:
                    fh.seek(end - 1)
                    terminated = fh.read(1) == b"\n"
            if os.path.getsize(path) > end:
                # appending after a torn tail would glue the next record
                # to its partial bytes and corrupt the log for good
                os.truncate(path, end)
        self._end = end
        self._next_seq = self._base + len(self._offsets) + 1
        self._unsynced = 0
        # serialises read_from's flush against close from other threads
        self._lock = threading.Lock()
        self._fh = open(path, "ab")
        if not terminated:
            self._fh.write(b"\n")  # a complete last record lost its newline
            self._end += 1

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> int:
        """Append one record; assigns (or checks) and returns its ``seq``.

        ``append`` never blocks on durability: it only buffers the
        write and counts it.  The *owner* watches :attr:`needs_sync`
        and calls :meth:`sync` — from a worker thread when the owner is
        an event loop (see ``MonitorService._flush_log``), inline
        otherwise.  This keeps the fsync out of every coroutine's call
        graph instead of burying it ``fsync_every`` appends deep.
        """
        record = self._sequenced(record)
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        self._fh.write(line)
        self._offsets.append(self._end)
        self._end += len(line)
        self._tail.append(record)
        self._next_seq += 1
        self._unsynced += 1
        return record["seq"]

    @property
    def needs_sync(self) -> bool:
        """True once ``fsync_every`` appends have accumulated unsynced."""
        return bool(self.fsync_every) and self._unsynced >= self.fsync_every

    def sync(self) -> None:
        """Flush buffered appends and fsync to disk.

        The unsynced counter is reset *before* the flush: an append
        racing in from another thread while the fsync runs counts
        toward the next batch (one extra sync at worst, never a record
        silently left out of durability accounting).
        """
        self._unsynced = 0
        self._fh.flush()
        if self.fsync_every:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync and close the file (idempotent)."""
        with self._lock:
            if not self._fh.closed:
                self.sync()
                self._fh.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def tail_floor(self) -> int:
        """The lowest cursor :meth:`records_from` serves from memory:
        records after it are all in the tail."""
        return self.last_seq - len(self._tail)

    def records_from(self, seq: int) -> list[dict[str, Any]]:
        """Records with sequence number strictly greater than ``seq``,
        from the in-memory tail (no I/O).

        Raises :class:`LogError` when ``seq`` is below
        :attr:`tail_floor`; :meth:`read_from` serves those records.
        """
        seq = max(seq, self._base)
        if seq < self.tail_floor:
            raise LogError(
                f"records after seq {seq} are not all in the in-memory "
                f"tail (it starts after seq {self.tail_floor}); use read_from"
            )
        tail = self._tail
        return [tail[i] for i in range(seq - self.last_seq, 0)]

    def read_from(
        self, seq: int, stop: int | None = None
    ) -> list[dict[str, Any]]:
        """Records with ``seq < record seq <= stop`` (``stop`` defaults
        to the last record), read back from the file.

        Blocking: flushes the writer, then reads the byte span with
        ``os.pread``.
        Event-loop owners call it through ``asyncio.to_thread``; it is
        safe against appends on the loop thread, since the span ends at
        an offset recorded before the flush and decoding stops at
        ``stop``.
        """
        seq = max(seq, self._base)
        stop = self.last_seq if stop is None else min(stop, self.last_seq)
        count = stop - seq
        if count <= 0:
            return []
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()
            lo = self._offsets[seq - self._base]
            hi = (
                self._offsets[stop - self._base]
                if stop - self._base < len(self._offsets)
                else self._end
            )
            fd = os.open(self.path, os.O_RDONLY)
            try:
                data = os.pread(fd, hi - lo, lo)
            finally:
                os.close(fd)
        out: list[dict[str, Any]] = []
        for line in data.split(b"\n"):
            if line.strip():
                out.append(json.loads(line))
                if len(out) == count:
                    break
        return out

    def iter_from(self, seq: int = 0) -> Iterator[dict[str, Any]]:
        """Every record after ``seq``, read back from the file
        :data:`TAIL_RECORDS` at a time (blocking; restart replay holds
        one chunk, not the whole log)."""
        while True:
            chunk = self.read_from(seq, seq + TAIL_RECORDS)
            if not chunk:
                return
            yield from chunk
            seq = chunk[-1]["seq"]

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog({self.path!r}, last_seq={self.last_seq})"


class MemoryLog(_RecordStore):
    """Every record in memory, behind :class:`EventLog`'s interface:
    :attr:`tail_floor` is 0, and :meth:`sync`/:meth:`close` do nothing.
    Reads bisect on the seqs, so ``records`` need not be dense (a log
    replayed with records dropped)."""

    needs_sync = False
    tail_floor = 0

    def __init__(self, records: Iterable[dict[str, Any]] = ()) -> None:
        self._records = list(records)
        self._next_seq = self._records[-1]["seq"] + 1 if self._records else 1

    def append(self, record: dict[str, Any]) -> int:
        """Store one record, sequenced as by :meth:`EventLog.append`."""
        record = self._sequenced(record)
        self._records.append(record)
        self._next_seq += 1
        return record["seq"]

    def records_from(self, seq: int) -> list[dict[str, Any]]:
        """Records with sequence number strictly greater than ``seq``."""
        return self.read_from(seq)

    def read_from(
        self, seq: int, stop: int | None = None
    ) -> list[dict[str, Any]]:
        """Records with ``seq < record seq <= stop`` (default: the last)."""
        recs = self._records
        lo = bisect_right(recs, seq, key=_SEQ)
        hi = len(recs) if stop is None else bisect_right(recs, stop, key=_SEQ)
        return recs[lo:max(hi, lo)]

    def sync(self) -> None:
        """Nothing to make durable."""

    def close(self) -> None:
        """Nothing to release."""
