"""REP004 — hot-path hygiene.

Modules tagged ``# repro: hot`` hold the measured kernels (clock
construction, cut folds, the family kernel, the online monitor).
Three Python-level habits reliably show up in their profiles:

* **per-event Python loops** — iterating ``Execution.events`` /
  ``iter_ids()`` / ``iter_events()`` / ``events_of()`` one event at a
  time re-introduces the O(|E|) interpreter overhead the columnar
  substrate exists to avoid (reference oracles may suppress with a
  justification);
* **mutable default arguments** — besides the classic aliasing bug,
  they defeat argument-keyed memoization such as the spec-resolution
  cache of the batch driver;
* **classes without ``__slots__``** — per-instance dicts dominate
  memory for the small per-interval record types created in bulk.
  ``@dataclass(slots=True)`` counts; exception types and classes with
  non-trivial bases (which may not support slots) are exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, rule

#: Call / attribute names whose iteration is per-event by construction.
PER_EVENT_SOURCES = frozenset({"iter_ids", "iter_events", "events_of"})
PER_EVENT_ATTRS = frozenset({"events"})

#: Base-class name suffixes that exempt a class from the __slots__
#: requirement (BaseException disallows nonempty slots layouts in
#: multiple-inheritance scenarios, and exceptions are never bulk data).
EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning")
EXEMPT_BASES = frozenset(
    {"NamedTuple", "TypedDict", "Protocol", "Enum", "IntEnum", "StrEnum", "Flag"}
)


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_per_event_iterable(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in PER_EVENT_SOURCES:
            return f"{name}()"
    if isinstance(node, ast.Attribute) and node.attr in PER_EVENT_ATTRS:
        return f".{node.attr}"
    return None


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                return True
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__slots__":
                return True
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call):
            name = _call_name(deco)
            if name == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False


def _slots_exempt(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name is None:
            continue
        if name.endswith(EXEMPT_BASE_SUFFIXES) or name in EXEMPT_BASES:
            return True
    return False


@rule(
    "REP004",
    "hot-path-hygiene",
    severity="warning",
    description=(
        "hot modules must avoid per-event Python loops, mutable default "
        "arguments, and __slots__-less classes"
    ),
    requires_tag="hot",
)
def check_hot_path(ctx: FileContext) -> Iterator[tuple[object, str]]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            label = _is_per_event_iterable(node.iter)
            if label is not None:
                yield (
                    node,
                    f"per-event Python loop over {label} in a hot module; "
                    "use the columnar kernels or suppress with a "
                    "justification",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                label = _is_per_event_iterable(gen.iter)
                if label is not None:
                    yield (
                        (gen.iter.lineno, gen.iter.col_offset + 1),
                        f"per-event Python comprehension over {label} in a "
                        "hot module; use the columnar kernels or suppress "
                        "with a justification",
                    )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield (
                        default,
                        f"mutable default argument in '{node.name}' "
                        "(aliasing hazard; defeats argument memoization)",
                    )
        elif isinstance(node, ast.ClassDef):
            if not _has_slots(node) and not _slots_exempt(node):
                yield (
                    node,
                    f"class '{node.name}' in a hot module lacks __slots__ "
                    "(per-instance dicts dominate bulk allocations)",
                )
