"""REP002 — canonical clock dtype discipline.

Clock tables, cut vectors, and the family kernel all run on
``CLOCK_DTYPE`` (``np.int32``) arrays; an array constructed with a
defaulted or platform-width dtype silently doubles memory traffic or,
worse, widens one operand of a broadcast comparison.  In modules tagged
``# repro: dtype-strict``, every NumPy array construction must pass an
explicit dtype, that dtype must not be a platform-width Python builtin
(``int``/``float``/``complex``; ``bool`` is width-unambiguous and
allowed), and a literal 32-bit int dtype must be spelled through the
canonical ``CLOCK_DTYPE`` constant so a future width change has one
edit site.

``*_like`` constructors, ``np.stack``/``np.concatenate`` (dtype follows
the operands), and dtype-preserving reductions are out of scope;
``.astype`` calls are checked for *which* dtype, not for presence.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, rule

#: Constructor -> positional index of its dtype parameter (None: kw-only
#: in practice for this codebase).
CONSTRUCTOR_DTYPE_POS: dict[str, int | None] = {
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "full": 2,
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "asfortranarray": 1,
    "fromiter": 1,
    "frombuffer": 1,
    "ndarray": 1,
    "arange": 4,
    "linspace": None,
}

#: Python builtins whose width is platform/implementation defined.
PLATFORM_BUILTINS = frozenset({"int", "float", "complex"})

#: Names of the canonical int32 constant; any other spelling of int32
#: in a dtype position is flagged.
CANONICAL_INT32 = "CLOCK_DTYPE"


def _numpy_call_name(node: ast.Call) -> str | None:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


def _dtype_argument(node: ast.Call, name: str) -> ast.AST | None:
    for kw in node.keywords:
        if kw.arg == "dtype":
            return kw.value
    pos = CONSTRUCTOR_DTYPE_POS.get(name)
    if pos is not None and len(node.args) > pos:
        return node.args[pos]
    return None


def _dtype_problem(value: ast.AST) -> str | None:
    """Return a complaint about an explicit dtype expression, if any."""
    if isinstance(value, ast.Name):
        if value.id in PLATFORM_BUILTINS:
            return (
                f"platform-width builtin dtype '{value.id}'; use an explicit "
                "NumPy dtype (CLOCK_DTYPE for clock data)"
            )
        return None
    if isinstance(value, ast.Attribute):
        # np.int32 spelled directly instead of through the constant.
        if (
            value.attr == "int32"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")
        ):
            return "hardcoded np.int32; spell the clock dtype as CLOCK_DTYPE"
        return None
    if isinstance(value, ast.Constant) and value.value in ("int32", "i4", "<i4"):
        return (
            f"hardcoded {value.value!r} dtype string; spell the clock dtype "
            "as CLOCK_DTYPE"
        )
    return None


@rule(
    "REP002",
    "dtype-discipline",
    severity="error",
    description=(
        "NumPy array constructions in dtype-strict modules must pass an "
        "explicit, non-platform-width dtype; int32 must be spelled "
        "CLOCK_DTYPE"
    ),
    requires_tag="dtype-strict",
)
def check_dtype_discipline(ctx: FileContext) -> Iterator[tuple[object, str]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _numpy_call_name(node)
        if name in CONSTRUCTOR_DTYPE_POS:
            dtype = _dtype_argument(node, name)
            if dtype is None:
                yield (
                    node,
                    f"np.{name}(...) without an explicit dtype in a "
                    "dtype-strict module",
                )
                continue
            problem = _dtype_problem(dtype)
            if problem is not None:
                yield (dtype, problem)
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            target = node.args[0] if node.args else _dtype_argument(node, "astype")
            if target is not None:
                problem = _dtype_problem(target)
                if problem is not None:
                    yield (target, problem)
