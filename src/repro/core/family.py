"""The batched family-query kernel: ≪-subtests over blocks of pairs.

Theorem 19/20 reduce every one of the 40 evaluable specs (8 base
relations + the 32-member proxy family) to one of 24 distinct vector
subtests per ordered pair (:data:`~repro.core.relations.SUBTEST_KEYS`,
:func:`~repro.core.relations.subtest_key`).  That table and
:func:`compare_rows` are the one formula table; this module applies it
to batched offline operands through one function:

* :class:`FamilyOperands` names the ``(L, U)`` proxy rows of k
  intervals in one :class:`~repro.core.cuts.CutStats` row store —
  the twelve rows (six stats × two proxies) any subtest key can select;
* :func:`verdict_matrix` answers a set of subtest columns (all 24 by
  default) for every pair its X and Y index arrays name.  The index
  arrays broadcast: ``(Q,)``/``(Q,)`` lists pairs, ``(c, 1)``/``(1, k)``
  is a ``c × k`` grid.  Pairs go through in blocks of
  :data:`VERDICT_BLOCK`, each gathering its own operands from the row
  store.

Every batched surface is a driver over :func:`verdict_matrix`: the
shared verdict cache (all 24 columns of listed pairs), ``batch_holds``
(one column per distinct subtest) and ``relation_matrix`` (one column
over the all-pairs grid) in :mod:`repro.core.evaluator`.  The streaming
monitor reuses :func:`compare_rows` on its own running rows.

Layering: this module sits beside :mod:`repro.core.relations` and below
:mod:`repro.core.context` — it sees only stacked arrays, never
executions or caches.
"""

from __future__ import annotations

# repro: hot, dtype-strict

import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .cuts import CutStats
from .relations import SUBTEST_KEYS, SubtestKind

__all__ = [
    "FamilyOperands",
    "N_OPERANDS",
    "N_SUBTESTS",
    "OPERAND_ORDER",
    "OPERAND_INDEX",
    "VERDICT_BLOCK",
    "verdict_matrix",
    "compare_rows",
]

#: Stat row names in :class:`~repro.core.cuts.CutStats` order.
_OPERAND_STATS: tuple[str, ...] = ("c1", "c2", "c3", "c4", "first", "last")

#: The twelve operand rows of one interval — ``(stat, proxy_tag)`` in a
#: fixed layout (stat-major, L before U): operand ``2 * s + t`` is stat
#: ``s`` of proxy ``t`` (0 for L, 1 for U).
OPERAND_ORDER: tuple[tuple[str, str], ...] = tuple(
    (stat, tag) for stat in _OPERAND_STATS for tag in ("L", "U")
)

#: ``(stat, tag)`` → operand index in :data:`OPERAND_ORDER`.
OPERAND_INDEX: dict[tuple[str, str], int] = {
    op: i for i, op in enumerate(OPERAND_ORDER)
}

N_OPERANDS: int = len(OPERAND_ORDER)
N_SUBTESTS: int = len(SUBTEST_KEYS)


def _readonly(values: list[int]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.intp)
    arr.setflags(write=False)
    return arr


def compare_rows(
    kind: SubtestKind, y: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The three subtest formulas, reduced over the trailing (node) axis.

    ``y``/``x`` are broadcast-compatible stacks whose last axis is
    ``|P|``; the result drops that axis.  These are the sound
    full-``|P|``-scan forms shared by every vectorized surface:

    * ``FORALL_PAST``:   ``all(y ≥ x)`` — ``x = lastX̂`` is 0 off
      ``N_X̂``, neutral because cut timestamps are nonnegative;
    * ``EXISTS_CUT``:    ``any(y ≥ x)`` — the genuine cut-pair ``≪̸``
      tests (future-cut components are ≥ 1, so a hit implies ``y ≥ 1``);
    * ``FORALL_FUTURE``: ``all((y == 0) | (y ≥ x))`` — ``y = firstŶ``
      with 0 encoding "node not in ``N_Ŷ``", skipped.
    """
    if kind is SubtestKind.EXISTS_CUT:
        return np.any(y >= x, axis=-1)
    if kind is SubtestKind.FORALL_PAST:
        return np.all(y >= x, axis=-1)
    if kind is SubtestKind.FORALL_FUTURE:
        return np.all((y == 0) | (y >= x), axis=-1)
    raise ValueError(f"unknown subtest kind: {kind!r}")  # pragma: no cover


@functools.lru_cache(maxsize=64)
def _column_groups(columns: tuple[int, ...]) -> tuple[
    tuple[SubtestKind, np.ndarray, np.ndarray, np.ndarray], ...
]:
    """Per-kind plans for the subtest ``columns``: (kind, output
    positions, y operand rows, x operand rows).

    Grouping the columns by kind lets :func:`verdict_matrix` answer
    each group with one gather pair + one comparison/reduction pass.
    """
    groups = []
    for kind in SubtestKind:
        sel = [
            (pos, SUBTEST_KEYS[col])
            for pos, col in enumerate(columns)
            if SUBTEST_KEYS[col][0] is kind
        ]
        if sel:
            groups.append((
                kind,
                _readonly([pos for pos, _ in sel]),
                _readonly([OPERAND_INDEX[key[1]] for _, key in sel]),
                _readonly([OPERAND_INDEX[key[2]] for _, key in sel]),
            ))
    return tuple(groups)


_ALL_COLUMNS: tuple[int, ...] = tuple(range(N_SUBTESTS))


class FamilyOperands(NamedTuple):
    """The family kernel's operands: a row store and L/U row indices.

    Row ``ls[i]`` (``us[i]``) of ``stats`` is interval ``i``'s ``L``
    (``U``) proxy, so operand ``OPERAND_INDEX[stat, tag]`` of interval
    ``i`` is a row of ``stats.<stat>``; nothing is copied out of the
    store until :func:`verdict_matrix` gathers one block's pairs.
    """

    stats: CutStats
    ls: np.ndarray
    us: np.ndarray


def _gather(
    mats: tuple[np.ndarray, ...], rows: tuple[np.ndarray, np.ndarray],
    operands: np.ndarray,
) -> np.ndarray:
    """``(len(operands), *rows[0].shape, P)``: operand ``operands[j]`` of
    each interval whose ``(L, U)`` store rows are ``rows``, in the
    store's dtype.

    The node axis is outermost in memory: :func:`compare_rows` then
    reduces it across whole contiguous planes, several times faster
    than over ``P``-long rows."""
    shape = rows[0].shape
    out = np.empty((mats[0].shape[1], len(operands), *shape),
                   dtype=mats[0].dtype).transpose(*range(1, len(shape) + 2), 0)
    for j, op in enumerate(operands.tolist()):
        stat, tag = divmod(op, 2)
        out[j] = mats[stat][rows[tag]]
    return out


#: Pairs per block of :func:`verdict_matrix`: bounds its ``(group,
#: block, P)`` gathers, in the row store's dtype (``CLOCK_DTYPE``: at
#: most 3 MB each at ``P = 16``), for any pair count.
VERDICT_BLOCK = 4096


def verdict_matrix(
    ops: FamilyOperands, xs: np.ndarray, ys: np.ndarray,
    columns: Sequence[int] | None = None,
) -> np.ndarray:
    """Subtest verdicts for every pair ``(xs, ys)`` names, in one pass.

    ``ops`` holds the distinct intervals' proxy rows
    (:class:`FamilyOperands`); ``xs``/``ys`` are broadcast-compatible
    interval-index arrays of at least one dimension selecting each
    pair's X and Y: ``(Q,)``/``(Q,)`` lists Q pairs, ``(c, 1)``/``(1,
    k)`` is the ``c × k`` grid.  ``columns`` picks subtest columns
    (:data:`~repro.core.relations.SUBTEST_COLUMNS`), all 24 by default.
    Returns a boolean array of the broadcast shape plus one trailing
    axis, whose entry ``j`` answers ``SUBTEST_KEYS[columns[j]]``.

    Cost: per subtest kind asked, one operand gather per column and side
    plus one comparison/reduction pass — zero per-pair Python dispatch,
    ``O(pairs · columns · P)`` work.  The pairs go through in blocks of
    about :data:`VERDICT_BLOCK` along the first axis, and each block
    gathers its own operands from the row store; a side whose first
    axis is 1 is the same for every block and is gathered once.  So,
    beyond one store-row index per interval index given, the
    temporaries stay ``O(VERDICT_BLOCK · P)`` plus that side's rows,
    whatever the pair count is: a grid block gathers ``c + k`` rows,
    not ``2 · c · k``.
    """
    mats = tuple(getattr(ops.stats, s) for s in _OPERAND_STATS)
    xs = np.asarray(xs, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    columns = _ALL_COLUMNS if columns is None else tuple(map(int, columns))
    shape = np.broadcast(xs, ys).shape
    out = np.empty((*shape, len(columns)), dtype=np.bool_)
    step = max(1, VERDICT_BLOCK // max(1, math.prod(shape[1:])))
    x_rows = (ops.ls[xs], ops.us[xs])
    y_rows = (ops.ls[ys], ops.us[ys])
    for kind, pos, y_ops, x_ops in _column_groups(columns):
        y_all = _gather(mats, y_rows, y_ops) if ys.shape[0] == 1 else None
        x_all = _gather(mats, x_rows, x_ops) if xs.shape[0] == 1 else None
        for lo in range(0, shape[0], step):
            hi = lo + step
            # the block's gathers are temporaries: freed before the next
            verdicts = compare_rows(
                kind,
                y_all if y_all is not None else _gather(
                    mats, (y_rows[0][lo:hi], y_rows[1][lo:hi]), y_ops),
                x_all if x_all is not None else _gather(
                    mats, (x_rows[0][lo:hi], x_rows[1][lo:hi]), x_ops),
            )
            out[lo:hi, ..., pos] = verdicts.transpose(
                *range(1, verdicts.ndim), 0
            )
    return out
