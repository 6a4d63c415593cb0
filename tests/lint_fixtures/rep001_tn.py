"""True negatives for REP001: the protocol followed, with and without
guards."""


class GoodGuarded:
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": ("_trace",),
        "caches": ("_memo",),
        "guards": ("invalidate", "_fresh"),
    }
    __slots__ = ("_trace", "_memo", "_version")

    def __init__(self) -> None:
        self._trace = []
        self._memo = {}
        self._version = 0

    def append(self, item) -> None:
        self._trace.append(item)
        self._version += 1

    def refill(self, key, value) -> None:
        self._fresh()
        self._memo[key] = value

    def _fresh(self) -> None:
        pass

    def invalidate(self) -> None:
        self._memo.clear()


class GoodAttrRegistered:
    _REPRO_VERSIONED = {
        "version": "_version",
        "state": ("_counts",),
        "caches": ("_snapshot",),
        "guards": (),
    }
    __slots__ = ("_counts", "_snapshot", "_snapshot_version", "_version")

    def __init__(self) -> None:
        self._counts = [0]
        self._snapshot = None
        self._snapshot_version = -1
        self._version = 0

    def advance(self) -> None:
        self._counts[0] += 1
        self._version += 1

    def snapshot(self):
        if self._snapshot_version != self._version:
            self._snapshot = tuple(self._counts)
            self._snapshot_version = self._version
        return self._snapshot
