"""REP001 / REP005 — cache/version discipline for registered classes.

A class whose state grows in place counts its growth in a version
attribute, and readers key what they derive from it on that version.
A method that mutates tracked state without bumping the version, or that
reads a memoized field without first validating it against the version,
silently serves stale physics.  These rules enforce the protocol on
every class that declares it in a ``_REPRO_VERSIONED`` dict class
attribute — today the streaming monitor's append-only clock table::

    class GrowableClockTable:
        _REPRO_VERSIONED = {
            "version": "_version",
            "state": ("_blocks", "_counts"),   # every append bumps it
            "caches": (),                      # derived, version-checked
            "guards": (),
        }

REP001 (version-discipline)
    A method that rebinds/mutates a declared *state* attribute must bump
    the version attribute in the same method.  A method that
    rebinds/mutates a declared *cache* attribute must bump the version,
    call a declared guard, or compare against the version.  The
    declaration itself must be readable (literal strings and tuples),
    name only guards that are methods of the class, and, in a class
    with ``__slots__``, only attributes listed there: a typo in either
    would silently switch the checks off.

REP005 (cache-read-before-check)
    A method that reads a declared *cache* attribute must call a guard
    or compare against the version attribute on a line no later than the
    first read.

``__init__``, declared guard methods, and read-only dunders are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from collections.abc import Iterator

from ..engine import FileContext, rule

#: Method names on tracked attributes that mutate in place.
MUTATING_METHODS = frozenset(
    {
        "clear", "update", "pop", "popitem", "setdefault",
        "append", "extend", "insert", "remove", "add", "discard",
        "sort", "reverse", "fill", "resize",
    }
)

#: Methods exempt from both rules: constructors never have stale state,
#: guards *are* the protocol, and these dunders are read-only by
#: convention (a mutating __eq__ would be a much bigger problem).
EXEMPT_DUNDERS = frozenset(
    {
        "__init__", "__new__", "__del__", "__len__", "__repr__", "__str__",
        "__bool__", "__hash__", "__eq__", "__ne__", "__contains__",
        "__iter__", "__sizeof__", "__getstate__", "__reduce__",
    }
)


@dataclass(frozen=True)
class Registration:
    """A class's version-discipline declaration, read from the AST."""

    version: str
    state: tuple[str, ...]
    caches: tuple[str, ...]
    guards: tuple[str, ...]


def _literal_str_tuple(node: ast.AST) -> tuple[str, ...] | None:
    if isinstance(node, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.append(elt.value)
            else:
                return None
        return tuple(out)
    return None


def _registration_from_attr(cls: ast.ClassDef) -> tuple[Registration | None, bool]:
    """Return (registration, found) from a ``_REPRO_VERSIONED`` dict;
    ``found`` with no registration means the dict is unreadable."""
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_REPRO_VERSIONED" for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            return None, True
        version: str | None = None
        state: tuple[str, ...] = ()
        caches: tuple[str, ...] = ()
        guards: tuple[str, ...] = ("invalidate",)
        ok = True
        for key, value in zip(stmt.value.keys, stmt.value.values, strict=True):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                ok = False
                continue
            if key.value == "version":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    version = value.value
                else:
                    ok = False
            elif key.value in ("state", "caches", "guards"):
                tup = _literal_str_tuple(value)
                if tup is None:
                    ok = False
                elif key.value == "state":
                    state = tup
                elif key.value == "caches":
                    caches = tup
                else:
                    guards = tup
        if not ok or version is None:
            return None, True
        return Registration(version, state, caches, guards), True
    return None, False


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_attr_name(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _target_attrs(target: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """Tracked-attribute names written by an assignment/delete target."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_attrs(elt)
        return
    node = target
    # self.x[k] = v / self.x[k] += v / del self.x[k] mutate self.x
    while isinstance(node, ast.Subscript):
        node = node.value
    name = _self_attr_name(node)
    if name is not None:
        yield name, target


@dataclass
class _MethodFacts:
    """What one method does to the tracked attributes."""

    mutated: list[tuple[str, ast.AST]]
    write_nodes: set[int]  # id()s of Attribute nodes that are write targets
    bump_lines: list[int]
    guard_lines: list[int]
    compare_lines: list[int]


def _collect(fn: ast.AST, reg: Registration) -> _MethodFacts:
    tracked = set(reg.state) | set(reg.caches)
    facts = _MethodFacts([], set(), [], [], [])
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            continue  # nested defs still walked below; acceptable over-approximation
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for name, tnode in _target_attrs(target):
                    base = tnode
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    facts.write_nodes.add(id(base))
                    if name in tracked:
                        facts.mutated.append((name, node))
                    if name == reg.version:
                        facts.bump_lines.append(node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                for name, tnode in _target_attrs(target):
                    base = tnode
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    facts.write_nodes.add(id(base))
                    if name in tracked:
                        facts.mutated.append((name, node))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                owner = _self_attr_name(func.value)
                if owner in tracked and func.attr in MUTATING_METHODS:
                    facts.mutated.append((owner, node))
                    facts.write_nodes.add(id(func.value))
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in reg.guards
                ):
                    facts.guard_lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op in operands:
                if any(
                    _is_self_attr(sub, reg.version) for sub in ast.walk(op)
                ):
                    facts.compare_lines.append(node.lineno)
                    break
    return facts


def _cache_reads(fn: ast.AST, reg: Registration, write_nodes: set[int]) -> dict[str, int]:
    """First-read line per cache attribute (Load uses that aren't writes)."""
    first: dict[str, int] = {}
    caches = set(reg.caches)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Attribute):
            continue
        if id(node) in write_nodes:
            continue
        name = _self_attr_name(node)
        if name in caches and isinstance(node.ctx, ast.Load):
            line = first.get(name)
            if line is None or node.lineno < line:
                first[name] = node.lineno
    return first


def _iter_registered_classes(
    ctx: FileContext,
) -> Iterator[tuple[ast.ClassDef, Registration | None]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        reg, found = _registration_from_attr(node)
        if found:
            yield node, reg


def _declaration_typos(cls: ast.ClassDef, reg: Registration) -> Iterator[str]:
    """Guards that are not methods of ``cls``, and declared attributes
    missing from its literal ``__slots__``."""
    methods = {
        item.name
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for guard in reg.guards:
        if guard not in methods:
            yield f"class '{cls.name}' declares guard '{guard}', which is not a method"
    for stmt in cls.body:
        if (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        ):
            slots = _literal_str_tuple(stmt.value)
            if slots is None:
                return
            for attr in (reg.version, *reg.state, *reg.caches):
                if attr not in slots:
                    yield (
                        f"class '{cls.name}' declares attribute '{attr}', "
                        "which is not in __slots__"
                    )


@rule(
    "REP001",
    "version-discipline",
    severity="error",
    description=(
        "methods of version-registered classes must bump the version "
        "attribute when mutating tracked state, and guard or bump when "
        "refilling caches"
    ),
)
def check_version_discipline(ctx: FileContext) -> Iterator[tuple[object, str]]:
    for cls, reg in _iter_registered_classes(ctx):
        if reg is None:
            yield (
                cls,
                f"class '{cls.name}' has an unreadable version-discipline "
                "registration (use literal strings/tuples)",
            )
            continue
        for message in _declaration_typos(cls, reg):
            yield cls, message
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in EXEMPT_DUNDERS or item.name in reg.guards:
                continue
            facts = _collect(item, reg)
            protected = bool(
                facts.bump_lines or facts.guard_lines or facts.compare_lines
            )
            reported: set[tuple[str, bool]] = set()
            for attr, node in facts.mutated:
                is_state = attr in reg.state
                if is_state and not facts.bump_lines:
                    if (attr, True) not in reported:
                        reported.add((attr, True))
                        yield (
                            node,
                            f"'{cls.name}.{item.name}' mutates versioned state "
                            f"'{attr}' without bumping '{reg.version}'",
                        )
                elif not is_state and not protected:
                    if (attr, False) not in reported:
                        reported.add((attr, False))
                        yield (
                            node,
                            f"'{cls.name}.{item.name}' refills cache '{attr}' "
                            f"without a '{reg.version}' bump, guard call, or "
                            "version check",
                        )


@rule(
    "REP005",
    "cache-read-before-check",
    severity="error",
    description=(
        "reads of memoized cache attributes must be preceded by a guard "
        "call or a version comparison in the same method"
    ),
)
def check_cache_read_before_check(ctx: FileContext) -> Iterator[tuple[object, str]]:
    for cls, reg in _iter_registered_classes(ctx):
        if reg is None or not reg.caches:
            continue
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in EXEMPT_DUNDERS or item.name in reg.guards:
                continue
            facts = _collect(item, reg)
            reads = _cache_reads(item, reg, facts.write_nodes)
            if not reads:
                continue
            check_lines = facts.guard_lines + facts.compare_lines
            earliest_check = min(check_lines) if check_lines else None
            for attr, first_line in sorted(reads.items(), key=lambda kv: kv[1]):
                if earliest_check is None or earliest_check > first_line:
                    yield (
                        (first_line, 1),
                        f"'{cls.name}.{item.name}' reads cache '{attr}' before "
                        f"any guard call or '{reg.version}' comparison",
                    )
