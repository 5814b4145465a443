"""Expression ASTs for instruction operands.

Litmus tests in the paper use operands such as ``a + r1 - r1`` (an
*artificial* data dependency, Fig. 13b) whose **syntactic** register reads
matter even when they cancel arithmetically.  Expressions are therefore kept
as small immutable trees; :func:`registers_read` extracts the syntactic read
set (Definition 1 in the paper works over these sets) and :func:`evaluate`
computes the concrete integer value under a register file.

Expressions support Python operators for concise test construction::

    >>> r1 = Reg("r1")
    >>> e = Const(0x100) + r1 - r1
    >>> sorted(registers_read(e))
    ['r1']
    >>> evaluate(e, {"r1": 7})
    256
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

__all__ = [
    "Expr",
    "Reg",
    "Const",
    "BinOp",
    "UnOp",
    "ExprLike",
    "to_expr",
    "registers_read",
    "evaluate",
    "compile_expr",
]


class Expr:
    """Base class for operand expressions.

    Subclasses are frozen dataclasses, so expressions are hashable and can be
    shared freely between instructions.  Arithmetic operators build
    :class:`BinOp` nodes, which lets tests write ``Reg("r1") + 1``.
    """

    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", self, to_expr(other))

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", to_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", self, to_expr(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", to_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", self, to_expr(other))

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", to_expr(other), self)

    def __xor__(self, other: "ExprLike") -> "BinOp":
        return BinOp("^", self, to_expr(other))

    def __rxor__(self, other: "ExprLike") -> "BinOp":
        return BinOp("^", to_expr(other), self)

    def __and__(self, other: "ExprLike") -> "BinOp":
        return BinOp("&", self, to_expr(other))

    def __or__(self, other: "ExprLike") -> "BinOp":
        return BinOp("|", self, to_expr(other))

    def __neg__(self) -> "UnOp":
        return UnOp("-", self)


@dataclass(frozen=True)
class Reg(Expr):
    """A read of architectural register ``name`` (e.g. ``"r1"``)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Expr):
    """An integer literal operand."""

    value: int

    def __repr__(self) -> str:
        return str(self.value)


_BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "^": lambda a, b: a ^ b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">=": lambda a, b: int(a >= b),
}

_UNARY_OPS = {
    "-": lambda a: -a,
    "~": lambda a: ~a,
    "!": lambda a: int(not a),
}


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation over two sub-expressions.

    ``op`` must be one of ``+ - * ^ & | == != < >=``; comparison operators
    evaluate to 0/1 and exist so branch conditions can be ordinary
    expressions.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise ValueError(f"unsupported binary operator: {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation (negate, bitwise-not, logical-not)."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in _UNARY_OPS:
            raise ValueError(f"unsupported unary operator: {self.op!r}")

    def __repr__(self) -> str:
        return f"{self.op}{self.operand!r}"


ExprLike = Union[Expr, int, str]
"""Anything coercible to an :class:`Expr` by :func:`to_expr`."""


def to_expr(value: ExprLike) -> Expr:
    """Coerce ``value`` to an expression.

    Integers become :class:`Const`, strings become :class:`Reg`, and
    expressions pass through unchanged.  This is the single place operand
    coercion happens, so the litmus DSL can accept bare ints and register
    names everywhere.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are ambiguous operands; use Const(0/1)")
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Reg(value)
    raise TypeError(f"cannot convert {value!r} to an expression")


def registers_read(expr: Expr) -> frozenset[str]:
    """Return the *syntactic* register read set of ``expr``.

    The paper's Definition 1 (RS) is built from this: an artificial
    dependency such as ``a + r1 - r1`` reads ``r1`` even though the value is
    algebraically irrelevant.  Implementations of GAM must respect syntactic
    dependencies (Section III-D2), so no simplification is ever applied.
    """
    if isinstance(expr, Reg):
        return frozenset((expr.name,))
    if isinstance(expr, Const):
        return frozenset()
    if isinstance(expr, BinOp):
        return registers_read(expr.left) | registers_read(expr.right)
    if isinstance(expr, UnOp):
        return registers_read(expr.operand)
    raise TypeError(f"not an expression: {expr!r}")


def evaluate(expr: Expr, regfile: Mapping[str, int]) -> int:
    """Evaluate ``expr`` to an integer under register file ``regfile``.

    Raises ``KeyError`` if the expression reads a register not present in
    ``regfile``; callers that model partial register states should check
    :func:`registers_read` first.
    """
    if isinstance(expr, Reg):
        return regfile[expr.name]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, regfile)
        right = evaluate(expr.right, regfile)
        return _BINARY_OPS[expr.op](left, right)
    if isinstance(expr, UnOp):
        return _UNARY_OPS[expr.op](evaluate(expr.operand, regfile))
    raise TypeError(f"not an expression: {expr!r}")


def compile_expr(expr: Expr) -> Callable[[Mapping[str, int]], int]:
    """Compile ``expr`` to a closure computing :func:`evaluate` on a register file.

    The tree walk and operator lookup happen once, here, so code that
    evaluates one expression many times (the abstract-machine explorer)
    pays only for the arithmetic.  ``compile_expr(e)(regs) == evaluate(e,
    regs)`` for every ``regs`` that binds the registers ``e`` reads.
    """
    if isinstance(expr, Reg):
        name = expr.name
        return lambda regfile: regfile[name]
    if isinstance(expr, Const):
        value = expr.value
        return lambda regfile: value
    if isinstance(expr, BinOp):
        binary = _BINARY_OPS[expr.op]
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        return lambda regfile: binary(left(regfile), right(regfile))
    if isinstance(expr, UnOp):
        unary = _UNARY_OPS[expr.op]
        operand = compile_expr(expr.operand)
        return lambda regfile: unary(operand(regfile))
    raise TypeError(f"not an expression: {expr!r}")
