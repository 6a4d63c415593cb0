"""The batched family-query kernel: all 24 ≪-subtests, all pairs at once.

Theorem 19/20 reduce every one of the 40 evaluable specs (8 base
relations + the 32-member proxy family) to one of 24 distinct vector
subtests per ordered pair (:data:`~repro.core.relations.SUBTEST_KEYS`).
The per-pair verdict cache exploited that factoring, but still paid one
Python dispatch per spec per pair — and its op-count win once arrived
with a wall-clock *loss* (0.80x the per-spec loop).  This module removes
the per-pair loop entirely:

* :func:`operand_tensor` gathers the ``(L, U)`` proxy rows of k
  intervals out of one :class:`~repro.backends.stats.CutStats` row
  store into a contiguous ``(k, 12, P)`` operand tensor — the twelve
  rows (six stats × two proxies) any subtest key can select;
* :func:`verdict_matrix` answers **all 24 subtest columns for Q ordered
  pairs** with three fancy-indexed gathers and three comparison +
  reduction passes, producing the ``(Q, 24)`` boolean verdict matrix
  that :class:`~repro.core.evaluator.SharedVerdictCache` scatters into
  its per-pair memo in one pass;
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

import numpy as np

from ..backends.stats import CutStats
from .relations import (
    SUBTEST_COLUMNS,
    SUBTEST_KEYS,
    Relation,
    SubtestKind,
)

__all__ = [
    "N_OPERANDS",
    "N_SUBTESTS",
    "OPERAND_ORDER",
    "OPERAND_INDEX",
    "RELATION_ROWS",
    "RELATION_INDEX",
    "operand_tensor",
    "verdict_matrix",
    "gather_verdicts",
    "compare_rows",
]

#: Stat row names in :class:`~repro.backends.stats.CutStats` order.
_OPERAND_STATS: tuple[str, ...] = ("c1", "c2", "c3", "c4", "first", "last")

#: The twelve operand rows of one interval — ``(stat, proxy_tag)`` in a
#: fixed layout (stat-major, L before U) matching :func:`operand_tensor`.
OPERAND_ORDER: tuple[tuple[str, str], ...] = tuple(
    (stat, tag) for stat in _OPERAND_STATS for tag in ("L", "U")
)

#: ``(stat, tag)`` → row index into the ``(k, 12, P)`` operand tensor.
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


def operand_tensor(stats: CutStats, ls: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Gather proxy stats into the ``(k, 12, P)`` operand tensor.

    Rows ``ls[i]`` and ``us[i]`` of ``stats`` are interval ``i``'s
    ``L`` and ``U`` proxies.  Row ``out[i, OPERAND_INDEX[stat, tag]]``
    is the ``stat`` vector of interval ``i``'s ``tag`` proxy; the
    tensor is contiguous so the fancy gathers of :func:`verdict_matrix`
    touch one block per group.
    """
    out = np.empty((len(ls), N_OPERANDS, stats.c1.shape[1]), dtype=np.int64)
    for stat_i, stat in enumerate(_OPERAND_STATS):
        mat = getattr(stats, stat)
        out[:, 2 * stat_i] = mat[ls]
        out[:, 2 * stat_i + 1] = mat[us]
    out.setflags(write=False)
    return out


#: Pairs per block of :func:`verdict_matrix`: bounds its ``(block,
#: group, P)`` int64 gathers (a few MB at ``P = 16``) for any pair count.
VERDICT_BLOCK = 4096


def verdict_matrix(
    ops: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """All 24 subtest verdicts for Q ordered pairs in one pass.

    ``ops`` is the ``(k, 12, P)`` operand tensor of the distinct
    intervals; ``xs``/``ys`` are length-Q row indices selecting each
    pair's X and Y interval.  Returns the ``(Q, 24)`` boolean verdict
    matrix whose column ``j`` answers
    ``SUBTEST_KEYS[j]`` (:data:`~repro.core.relations.SUBTEST_COLUMNS`).

    Cost: three ``(Q, group, P)`` gather pairs + three comparison/
    reduction passes — zero per-pair Python dispatch, ``O(Q · P)``
    total work for the whole 40-spec query surface.  The pairs go
    through in blocks of :data:`VERDICT_BLOCK`, so the gathered
    temporaries stay ``O(VERDICT_BLOCK · P)`` whatever ``Q`` is.
    """
    xs = np.asarray(xs, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    out = np.empty((xs.shape[0], N_SUBTESTS), dtype=np.bool_)
    for lo in range(0, xs.shape[0], VERDICT_BLOCK):
        bx = xs[lo:lo + VERDICT_BLOCK, None]
        by = ys[lo:lo + VERDICT_BLOCK, None]
        for kind, cols, y_ops, x_ops in _GROUPS:
            out[lo:lo + VERDICT_BLOCK, cols] = compare_rows(
                kind, ops[by, y_ops[None, :]], ops[bx, x_ops[None, :]]
            )
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
