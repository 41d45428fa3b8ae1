"""Coefficient expressions: a small closed arithmetic language over t, x, y, u, w.

Scenario files describe the model coefficients as text expressions.  The
grammar (EBNF, whitespace-insensitive, ASCII only)::

    expr   := term   (("+" | "-") term)*
    term   := unary  (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?              # right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"
    NUMBER := digits ["." digits] [("e"|"E") ["+"|"-"] digits] | "." digits ...
    IDENT  := ascii letters

Functions: exp, sin, cos, tanh, abs (unary), min, max (binary).  The constant
``pi`` is built in.  Each expression slot admits a fixed variable set; any
other identifier raises ForbiddenVariable, never silent acceptance.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .grid import Field, Grid


class ExprError(Exception):
    """Base class for expression parsing/evaluation failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ForbiddenVariable(ExprError):
    def __init__(self, name: str, slot: "Slot", position: int = -1):
        super().__init__(
            f"identifier '{name}' is not allowed in a {slot.value!r} expression "
            f"(allowed: {', '.join(sorted(ALLOWED_VARIABLES[slot]))})"
        )
        self.name = name
        self.slot = slot
        self.position = position


class NonFiniteValue(ExprError):
    """Evaluation produced inf/nan: division by zero, 0^negative, overflow."""


class MissingVariable(ExprError):
    """The environment does not bind a variable the expression references."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


class Slot(enum.Enum):
    """Which coefficient an expression feeds; fixes the admissible variables."""

    ALPHA = "alpha"      # drift-species growth rate: alpha(t, x, w)
    BETA = "beta"        # diffusing-species growth rate: beta(t, x, u, w)
    SOURCE_A = "a"       # drift-equation control: a(t, x)
    SOURCE_B = "b"       # diffusion-equation control: b(t, x)
    INIT = "init"        # initial data: functions of x only


ALLOWED_VARIABLES: dict[Slot, frozenset[str]] = {
    Slot.ALPHA: frozenset({"t", "x", "y", "w"}),
    Slot.BETA: frozenset({"t", "x", "y", "u", "w"}),
    Slot.SOURCE_A: frozenset({"t", "x", "y"}),
    Slot.SOURCE_B: frozenset({"t", "x", "y"}),
    Slot.INIT: frozenset({"x", "y"}),
}

FUNCTIONS: dict[str, tuple[int, object]] = {
    "exp": (1, np.exp),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tanh": (1, np.tanh),
    "abs": (1, np.abs),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

CONSTANTS = {"pi": math.pi}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z]+)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None or match.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent over the token stream; precedence ^ > unary- > */ > +-."""

    def __init__(self, tokens, slot: Slot):
        self.tokens = tokens
        self.slot = slot
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}, found {text!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        node = self.expression()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {text!r}", pos)
        return node

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                args = [self.expression()]
                while True:
                    k, t, _ = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.expression())
                    else:
                        break
                self.expect_op(")")
                arity = FUNCTIONS[text][0]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"function {text!r} takes {arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text in ALLOWED_VARIABLES[self.slot]:
                return Var(text)
            raise ForbiddenVariable(text, self.slot, pos)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


MAX_DEPTH = 200


def parse(src: str, slot: Slot) -> Expr:
    """Parse ``src`` for the given slot, enforcing its variable set.

    Trees deeper than MAX_DEPTH are rejected: evaluating, rendering and
    inspecting a tree recurse once per level.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    try:
        tree = _Parser(_tokenize(src), slot).parse()
        too_deep = _depth(tree) > MAX_DEPTH
    except RecursionError:
        too_deep = True
    if too_deep:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return tree


def _depth(expr: Expr) -> int:
    if isinstance(expr, Neg):
        return 1 + _depth(expr.arg)
    if isinstance(expr, BinOp):
        return 1 + max(_depth(expr.left), _depth(expr.right))
    if isinstance(expr, Call):
        return 1 + max(_depth(a) for a in expr.args)
    return 1


def variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables(expr.arg)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        out: set[str] = set()
        for a in expr.args:
            out |= variables(a)
        return out
    return set()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _render(expr: Expr, parent_prec: int, right_side: bool) -> str:
    if isinstance(expr, Num):
        text = repr(expr.value)
        return text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(_render(a, 0, False) for a in expr.args)})"
    if isinstance(expr, Neg):
        inner = _render(expr.arg, _NEG_PREC, False)
        text = f"-{inner}"
        return f"({text})" if parent_prec > _NEG_PREC or (parent_prec == _NEG_PREC and right_side) else text
    prec = _PRECEDENCE[expr.op]
    if expr.op == "^":
        # right-associative: parenthesize an exponentiation appearing as the base
        left = _render(expr.left, prec + 1, False)
        right = _render(expr.right, prec, False)
    else:
        left = _render(expr.left, prec, False)
        right = _render(expr.right, prec + 1, False)
    text = f"{left} {expr.op} {right}" if expr.op != "^" else f"{left}{expr.op}{right}"
    needs_parens = parent_prec > prec or (parent_prec == prec and right_side)
    return f"({text})" if needs_parens else text


def to_source(expr: Expr) -> str:
    """Render the tree back to parseable text; parse(to_source(e)) == e."""
    return _render(expr, 0, False)


def _eval(expr: Expr, env: Mapping[str, object]):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise MissingVariable(f"expression references unbound variable '{expr.name}'") from None
    if isinstance(expr, Neg):
        return np.negative(_eval(expr.arg, env))
    if isinstance(expr, Call):
        fn = FUNCTIONS[expr.func][1]
        return fn(*(_eval(a, env) for a in expr.args))
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    if expr.op == "+":
        return np.add(left, right)
    if expr.op == "-":
        return np.subtract(left, right)
    if expr.op == "*":
        return np.multiply(left, right)
    if expr.op == "/":
        return np.divide(left, right)
    return np.power(left, right)


def evaluate_raw(expr: Expr, env: Mapping[str, object]) -> np.ndarray:
    """Evaluate over scalars or numpy arrays; inf/nan are returned, not raised."""
    with np.errstate(all="ignore"):
        return np.asarray(_eval(expr, env), dtype=float)


def evaluate(expr: Expr, env: Mapping[str, object]):
    """Evaluate over scalars or numpy arrays; raise NonFiniteValue on inf/nan."""
    result = evaluate_raw(expr, env)
    if not np.all(np.isfinite(result)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(result)))
        raise NonFiniteValue(
            f"expression '{to_source(expr)}' evaluated to a non-finite value "
            f"(first offending flat index {bad[0].tolist()})"
        )
    if result.ndim == 0:
        return float(result)
    return result


def sample_stack(expr: Expr, grid: Grid, times, u: np.ndarray | None = None,
                 w: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the expression at every cell center for each of ``times``.

    One broadcast evaluation: ``t`` enters as a column, ``u``/``w`` as stacks
    of shape (len(times), *grid.shape), which is also the shape of the
    returned read-only array.  A non-finite value raises NonFiniteValue
    naming the first offending time and cell.  The check reads the
    evaluation before it is broadcast: an expression without ``t``, ``u``
    and ``w`` is checked on one row, not once per time.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    shape = (len(times),) + grid.shape
    env: dict[str, object] = {"t": times.reshape((-1,) + (1,) * grid.dim)}
    mesh = grid.centers()
    env["x"] = mesh[0]
    if grid.dim == 2:
        env["y"] = mesh[1]
    if u is not None:
        env["u"] = u
    if w is not None:
        env["w"] = w
    raw = evaluate_raw(expr, env)
    values = np.broadcast_to(raw, shape)
    if not np.all(np.isfinite(raw)):
        # a broadcast axis reads index 0 first, so the first offending entry
        # of the broadcast is the first of raw with its missing axes at 0
        raw = raw.reshape((1,) * (len(shape) - raw.ndim) + raw.shape)
        k, *cell = np.argwhere(~np.isfinite(raw))[0].tolist()
        raise NonFiniteValue(
            f"expression '{to_source(expr)}' evaluated to a non-finite value "
            f"at t={float(times[k])!r} -> cell index {tuple(cell)}"
        )
    return values


def sample_field(expr: Expr, grid: Grid, t: float, u: Field | None = None,
                 w: Field | None = None) -> Field:
    """Evaluate the expression at every cell center at time t."""
    # the benchmark (perfbench/) wraps and counts this name, so it can go only
    # once a benchmark change (ROADMAP item 4) has moved its tracer and gate
    values = sample_stack(expr, grid, [t],
                          u=None if u is None else u.values[None],
                          w=None if w is None else w.values[None])
    return Field(grid, values[0])
