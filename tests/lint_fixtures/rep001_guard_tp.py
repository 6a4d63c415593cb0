"""True positive for REP001: a declared guard that is not a method."""


class MisspelledGuard:
    _REPRO_VERSIONED = {
        "version": "_version",
        "caches": ("_memo",),
        # REP001: the method is `invalidate`; a typo'd guard would let
        # no call count as a freshness check
        "guards": ("invalidte",),
    }
    __slots__ = ("_memo", "_version")

    def __init__(self) -> None:
        self._memo = {}
        self._version = 0

    def invalidate(self) -> None:
        self._memo.clear()
