"""The batched family-query kernel: all 24 ≪-subtests, all pairs at once.

Theorem 19/20 reduce every one of the 40 evaluable specs (8 base
relations + the 32-member proxy family) to one of 24 distinct vector
subtests per ordered pair (:data:`~repro.core.relations.SUBTEST_KEYS`).
The per-pair verdict cache exploited that factoring, but still paid one
Python dispatch per spec per pair — and its op-count win once arrived
with a wall-clock *loss* (0.80x the per-spec loop).  This module removes
the per-pair loop entirely:

* :class:`FamilyOperands` names the ``(L, U)`` proxy rows of k
  intervals in one :class:`~repro.backends.stats.CutStats` row store —
  the twelve rows (six stats × two proxies) any subtest key can select;
* :func:`verdict_matrix` answers **all 24 subtest columns for Q ordered
  pairs**, gathering each block's operands straight from the row store
  and running three comparison + reduction passes per block, producing
  the ``(Q, 24)`` boolean verdict matrix that
  :class:`~repro.core.evaluator.SharedVerdictCache` appends to its
  verdict table in one pass;
* :func:`gather_verdicts` answers **one relation per query for Q
  queries** — the ``(Q,)`` gather driver behind
  :meth:`~repro.core.evaluator.SynchronizationAnalyzer.batch_holds`;
* :data:`RELATION_ROWS` / :func:`compare_rows` are the single source of
  the per-relation comparison formulas, shared with the all-pairs
  broadcast of :mod:`repro.core.pairwise` and the streaming monitor so
  the batched, matrix, online and scalar surfaces cannot drift apart.

Layering: this module sits beside :mod:`repro.core.relations` and below
:mod:`repro.core.context` — it sees only stacked arrays, never
executions or caches.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from typing import NamedTuple

import numpy as np

from ..backends.stats import CutStats
from .relations import (
    SUBTEST_COLUMNS,
    SUBTEST_KEYS,
    Relation,
    SubtestKind,
)

__all__ = [
    "FamilyOperands",
    "N_OPERANDS",
    "N_SUBTESTS",
    "OPERAND_ORDER",
    "OPERAND_INDEX",
    "RELATION_ROWS",
    "RELATION_INDEX",
    "verdict_matrix",
    "gather_verdicts",
    "compare_rows",
]

#: Stat row names in :class:`~repro.backends.stats.CutStats` order.
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

#: Base relation → ``(kind, y_stat, x_stat)`` comparison row — the
#: formula table behind the all-pairs/gather kernels
#: (:mod:`repro.core.pairwise`).  Stat names select attributes of the
#: *full-interval* :class:`~repro.backends.stats.CutStats`; the proxy
#: coincidences of :func:`~repro.core.relations.subtest_key` make these
#: rows identical to the canonical family subtests.
RELATION_ROWS: dict[Relation, tuple[SubtestKind, str, str]] = {
    Relation.R1: (SubtestKind.FORALL_PAST, "c1", "last"),
    Relation.R1P: (SubtestKind.FORALL_PAST, "c1", "last"),
    Relation.R2: (SubtestKind.FORALL_PAST, "c2", "last"),
    Relation.R2P: (SubtestKind.EXISTS_CUT, "c2", "c4"),
    Relation.R3: (SubtestKind.EXISTS_CUT, "c1", "c3"),
    Relation.R3P: (SubtestKind.FORALL_FUTURE, "first", "c3"),
    Relation.R4: (SubtestKind.EXISTS_CUT, "c2", "c3"),
    Relation.R4P: (SubtestKind.EXISTS_CUT, "c2", "c3"),
}

#: Base relation → its row in the :func:`gather_verdicts` tables.
RELATION_INDEX: dict[Relation, int] = {
    rel: i for i, rel in enumerate(RELATION_ROWS)
}

_KINDS: tuple[SubtestKind, ...] = tuple(SubtestKind)


def _readonly(values: list[int]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.intp)
    arr.setflags(write=False)
    return arr


#: RELATION_ROWS as index arrays: kind position in ``_KINDS`` and the
#: Y/X stat rows of the ``(k, 6, P)`` stat tensor, per relation index.
_REL_KIND = _readonly([_KINDS.index(k) for k, _, _ in RELATION_ROWS.values()])
_REL_Y = _readonly(
    [_OPERAND_STATS.index(y) for _, y, _ in RELATION_ROWS.values()]
)
_REL_X = _readonly(
    [_OPERAND_STATS.index(x) for _, _, x in RELATION_ROWS.values()]
)


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


def _column_groups() -> tuple[
    tuple[SubtestKind, np.ndarray, np.ndarray, np.ndarray], ...
]:
    """Per-kind column plans: (kind, columns, y operand rows, x rows).

    Grouping the 24 columns by kind lets :func:`verdict_matrix` answer
    each group with one gather pair + one comparison/reduction pass.
    """
    groups = []
    for kind in SubtestKind:
        sel = [
            (SUBTEST_COLUMNS[key], key)
            for key in SUBTEST_KEYS
            if key[0] is kind
        ]
        groups.append((
            kind,
            _readonly([c for c, _ in sel]),
            _readonly([OPERAND_INDEX[key[1]] for _, key in sel]),
            _readonly([OPERAND_INDEX[key[2]] for _, key in sel]),
        ))
    return tuple(groups)


_GROUPS: tuple[
    tuple[SubtestKind, np.ndarray, np.ndarray, np.ndarray], ...
] = _column_groups()


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
    """``(len(operands), B, P)``: operand ``operands[j]`` of each interval
    whose ``(L, U)`` store rows are ``rows``, in the store's dtype."""
    out = np.empty((len(operands), rows[0].shape[0], mats[0].shape[1]),
                   dtype=mats[0].dtype)
    for j, op in enumerate(operands.tolist()):
        stat, tag = divmod(op, 2)
        out[j] = mats[stat][rows[tag]]
    return out


#: Pairs per block of :func:`verdict_matrix`: bounds its ``(group,
#: block, P)`` gathers, in the row store's dtype (``CLOCK_DTYPE``: at
#: most 3 MB each at ``P = 16``), for any pair count.
VERDICT_BLOCK = 4096


def verdict_matrix(
    ops: FamilyOperands, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """All 24 subtest verdicts for Q ordered pairs in one pass.

    ``ops`` holds the distinct intervals' proxy rows
    (:class:`FamilyOperands`); ``xs``/``ys`` are length-Q interval
    indices selecting each pair's X and Y.  Returns the ``(Q, 24)``
    boolean verdict matrix whose column ``j`` answers
    ``SUBTEST_KEYS[j]`` (:data:`~repro.core.relations.SUBTEST_COLUMNS`).

    Cost: per subtest kind, one operand gather per column and side plus
    one comparison/reduction pass — zero per-pair Python dispatch,
    ``O(Q · P)`` total work for the whole 40-spec query surface.  The
    pairs go through in blocks of :data:`VERDICT_BLOCK`, and each block
    gathers its own operands from the row store, so the temporaries stay
    ``O(VERDICT_BLOCK · P)`` whatever ``Q`` or the interval count is.
    """
    stats, ls, us = ops
    mats = tuple(getattr(stats, s) for s in _OPERAND_STATS)
    xs = np.asarray(xs, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    out = np.empty((xs.shape[0], N_SUBTESTS), dtype=np.bool_)
    for lo in range(0, xs.shape[0], VERDICT_BLOCK):
        bx = xs[lo:lo + VERDICT_BLOCK]
        by = ys[lo:lo + VERDICT_BLOCK]
        x_rows = (ls[bx], us[bx])
        y_rows = (ls[by], us[by])
        for kind, cols, y_ops, x_ops in _GROUPS:
            out[lo:lo + VERDICT_BLOCK, cols] = compare_rows(
                kind, _gather(mats, y_rows, y_ops), _gather(mats, x_rows, x_ops)
            ).T
    return out


def gather_verdicts(
    stats: CutStats, rels: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """One base-relation verdict per query for Q queries in one pass.

    ``stats`` stacks the distinct intervals' cut/extremal rows;
    ``rels`` holds each query's :data:`RELATION_INDEX`, ``xs``/``ys``
    its X and Y row.  Returns the ``(Q,)`` verdicts of
    ``RELATION_ROWS[rel](stats[x], stats[y])``.  A 32-family query is a
    base relation over proxies, so the caller resolves it to proxy rows.

    Cost: one ``(Q, P)`` gather pair + one comparison/reduction pass per
    subtest kind — ``O(Q · P)``, no ``(k, k, P)`` tensor, zero per-query
    Python dispatch.
    """
    rels = np.asarray(rels, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    ops = np.stack([getattr(stats, s) for s in _OPERAND_STATS], axis=1)
    kinds = _REL_KIND[rels]
    out = np.empty(rels.shape[0], dtype=np.bool_)
    for code, kind in enumerate(_KINDS):
        sel = np.flatnonzero(kinds == code)
        if sel.size:
            r = rels[sel]
            out[sel] = compare_rows(
                kind, ops[ys[sel], _REL_Y[r]], ops[xs[sel], _REL_X[r]]
            )
    return out
