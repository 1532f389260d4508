"""MiniC integer arithmetic: the one definition.

Integers are 64-bit signed with wraparound; division and remainder
truncate toward zero (C99); shift counts are masked to 0..63. Each
operator is a Python expression template over ``{a}`` (and ``{b}``)
plus whether its value must be wrapped. The interpreter's block
translator (:mod:`repro.runtime.blockgen`) formats the templates into
the code it generates, and the constant folder of the lowering
evaluates the same templates through :data:`BINARY` and :data:`UNARY`,
so a constant expression folds to exactly the value the program would
compute at run time.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, cast

MIN_INT = -(1 << 63)
MAX_INT = (1 << 63) - 1
_MASK = (1 << 64) - 1


def wrap(value: int) -> int:
    """Reduce to 64-bit two's-complement signed."""
    return ((value - MIN_INT) & _MASK) + MIN_INT


def c_div(a: int, b: int) -> int:
    """C99 division (truncate toward zero); ``ZeroDivisionError`` when
    ``b`` is 0."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def c_rem(a: int, b: int) -> int:
    """C99 remainder, ``a - (a / b) * b``: the sign of the dividend."""
    return a - c_div(a, b) * b


#: Binary operator -> (expression over ``{a}`` and ``{b}``, wraps).
#: Division and remainder by zero are the caller's to report.
BINARY_EXPR: dict[str, tuple[str, bool]] = {
    "+": ("{a} + {b}", True),
    "-": ("{a} - {b}", True),
    "*": ("{a} * {b}", True),
    "/": ("c_div({a}, {b})", True),
    "%": ("c_rem({a}, {b})", True),
    "<<": ("{a} << ({b} & 63)", True),
    ">>": ("{a} >> ({b} & 63)", True),
    "&": ("{a} & {b}", True),
    "|": ("{a} | {b}", True),
    "^": ("{a} ^ {b}", True),
    "<": ("1 if {a} < {b} else 0", False),
    ">": ("1 if {a} > {b} else 0", False),
    "<=": ("1 if {a} <= {b} else 0", False),
    ">=": ("1 if {a} >= {b} else 0", False),
    "==": ("1 if {a} == {b} else 0", False),
    "!=": ("1 if {a} != {b} else 0", False),
}

#: Unary operator -> (expression over ``{a}``, wraps).
UNARY_EXPR: dict[str, tuple[str, bool]] = {
    "-": ("-{a}", True),
    "~": ("~{a}", True),
    "!": ("1 if {a} == 0 else 0", False),
    "tobool": ("1 if {a} != 0 else 0", False),
}

#: The names the templates call.
NAMESPACE: dict[str, Any] = {"c_div": c_div, "c_rem": c_rem, "wrap": wrap}


def _evaluator(template: str, wraps: bool,
               params: str) -> Callable[..., int]:
    expr = template.format(a="a", b="b")
    if wraps:
        expr = f"wrap({expr})"
    return cast(Callable[..., int],
                eval(f"lambda {params}: {expr}", dict(NAMESPACE)))


#: Binary operator -> its value as a function of two ints.
BINARY: dict[str, Callable[[int, int], int]] = {
    op: _evaluator(template, wraps, "a, b")
    for op, (template, wraps) in BINARY_EXPR.items()}

#: Unary operator -> its value as a function of one int.
UNARY: dict[str, Callable[[int], int]] = {
    op: _evaluator(template, wraps, "a")
    for op, (template, wraps) in UNARY_EXPR.items()}
