"""True positive for REP001: a declared attribute missing from
``__slots__``."""


class MisspelledCache:
    _REPRO_VERSIONED = {
        "version": "_version",
        # REP001: the slot is `_memo`; a typo'd cache is never checked
        "caches": ("_memos",),
        "guards": ("invalidate",),
    }
    __slots__ = ("_memo", "_version")

    def __init__(self) -> None:
        self._memo = {}
        self._version = 0

    def invalidate(self) -> None:
        self._memo.clear()
