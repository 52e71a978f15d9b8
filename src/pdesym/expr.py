"""Expression trees for 1-D time-dependent PDEs, plus an infix parser.

Nodes are frozen dataclasses, so equality is structural and trees can be
shared freely. The unknown field u(x, t) is the dedicated leaf ``FIELD``,
partial derivatives are explicit ``Deriv`` nodes, and ``Placeholder`` marks
a masked coefficient slot (rendered as the token ``[?]``).

Grammar accepted by :func:`parse_infix` (whitespace-insensitive)::

    equation := expr "=" expr | expr
    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-" factor | base ("^" int)?
    base     := number | ident | "u" | deriv | "(" expr ")" | func "(" expr ")"
    deriv    := "u_t" | "u_x" | "u_xx" | "u_xxx" | "(" expr ")" suffix
    suffix   := "_t" | "_x" | "_xx" | "_xxx"
    func     := "sin" | "cos"

Juxtaposition is not multiplication; an explicit ``*`` is required.
Chains of ``+``/``-`` group to the left; pure ``*`` chains group to the
right (``a*b*c`` is ``a*(b*c)``), while any chain containing ``/`` groups
to the left so division keeps its usual meaning. Parentheses, unary
minus and function calls may nest at most :data:`MAX_DEPTH` levels deep.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownSymbol, UnsupportedNode

BINARY_OPS = ("add", "sub", "mul", "div", "pow")
UNARY_FNS = ("sin", "cos", "neg")
DERIV_VARS = ("x", "t")

#: shorthand leaf spelling -> (variable, order)
DERIV_SHORTHAND = {
    "u_t": ("t", 1),
    "u_x": ("x", 1),
    "u_xx": ("x", 2),
    "u_xxx": ("x", 3),
}
SHORTHAND_BY_DERIV = {v: k for k, v in DERIV_SHORTHAND.items()}

_RESERVED_IDENTS = {"u", "sin", "cos"} | set(DERIV_SHORTHAND)

#: deepest nesting the parser and the token decoders accept; trees within it
#: stay well inside Python's recursion limit in every recursive walk
MAX_DEPTH = 100


class Expr:
    """Base class for expression-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Int(Expr):
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", int(self.value))


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name in _RESERVED_IDENTS:
            raise ValueError(f"reserved identifier {self.name!r} cannot be a variable")


@dataclass(frozen=True)
class Field(Expr):
    """The unknown field u(x, t)."""


@dataclass(frozen=True)
class Placeholder(Expr):
    """A masked coefficient slot."""


@dataclass(frozen=True)
class Unary(Expr):
    fn: str
    child: Expr

    def __post_init__(self):
        if self.fn not in UNARY_FNS:
            raise ValueError(f"unknown unary function {self.fn!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class Deriv(Expr):
    child: Expr
    var: str
    order: int

    def __post_init__(self):
        if self.var not in DERIV_VARS:
            raise ValueError(f"derivative variable must be one of {DERIV_VARS}")
        if self.order < 1:
            raise ValueError("derivative order must be >= 1")


@dataclass(frozen=True)
class Equation:
    """An equation stored in residual form: ``residual = 0``."""

    residual: Expr


FIELD = Field()


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^=()])"
)

def _tokenize(src: str):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0

    @property
    def cur(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, text):
        kind, tok, pos = self.cur
        if kind != "op" or tok != text:
            raise ParseError(f"expected {text!r}", pos)
        return self.advance()

    def at_op(self, *texts):
        kind, tok, _ = self.cur
        return kind == "op" and tok in texts

    def enter(self) -> None:
        """Count one more level of nesting; every recursion of the parser
        passes through a parenthesis, a function call or a unary minus."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.cur[2])
        self.depth += 1

    def expr(self) -> Expr:
        self.enter()
        node = self.term()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            node = Binary("add" if op == "+" else "sub", node, self.term())
        self.depth -= 1
        return node

    def term(self) -> Expr:
        factors = [self.factor()]
        ops = []
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            ops.append("mul" if op == "*" else "div")
            factors.append(self.factor())
        if not ops:
            return factors[0]
        if "div" in ops:
            node = factors[0]
            for op, f in zip(ops, factors[1:]):
                node = Binary(op, node, f)
            return node
        node = factors[-1]
        for f in reversed(factors[:-1]):
            node = Binary("mul", f, node)
        return node

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            self.enter()
            operand = self.factor()
            self.depth -= 1
            if isinstance(operand, Const):
                return Const(-operand.value)
            if isinstance(operand, Int):
                return Int(-operand.value)
            return Unary("neg", operand)
        node = self.base()
        if self.at_op("^"):
            self.advance()
            node = Binary("pow", node, self.exponent())
        return node

    def exponent(self) -> Int:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        kind, tok, pos = self.cur
        if kind != "num" or "." in tok or "e" in tok or "E" in tok:
            raise ParseError("integer exponent required", pos)
        self.advance()
        try:
            return Int(sign * int(tok))
        except ValueError:  # beyond the digit limit of int()
            raise ParseError("exponent too long", pos) from None

    def base(self) -> Expr:
        kind, tok, pos = self.cur
        if kind == "num":
            self.advance()
            return Const(float(tok))
        if kind == "ident":
            return self.ident()
        if kind == "op" and tok == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            kind2, tok2, _ = self.cur
            # a derivative suffix is a shorthand spelling without its "u"
            if kind2 == "ident" and "u" + tok2 in DERIV_SHORTHAND:
                self.advance()
                var, order = DERIV_SHORTHAND["u" + tok2]
                return Deriv(node, var, order)
            return node
        raise ParseError("expected expression", pos)

    def ident(self) -> Expr:
        _, name, pos = self.advance()
        if name == "u":
            if self.at_op("("):
                raise UnknownSymbol("'u' is the field, not a function", pos)
            return FIELD
        if name in DERIV_SHORTHAND:
            var, order = DERIV_SHORTHAND[name]
            return Deriv(FIELD, var, order)
        if name in ("sin", "cos"):
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return Unary(name, arg)
        if name.startswith("u_"):
            raise UnknownSymbol(f"unknown derivative shorthand {name!r}", pos)
        if self.at_op("("):
            raise UnknownSymbol(f"{name!r} is not a function", pos)
        return Var(name)


def _is_zero_literal(e: Expr) -> bool:
    return (isinstance(e, Const) and e.value == 0.0) or (
        isinstance(e, Int) and e.value == 0
    )


def parse_infix(src: str) -> Equation:
    """Parse an infix equation or expression into residual form.

    With an ``=`` sign the residual is ``lhs - rhs`` (a literal-zero right
    side is dropped); without one the expression itself is the residual.
    """
    parser = _Parser(_tokenize(src))
    lhs = parser.expr()
    if parser.at_op("="):
        parser.advance()
        rhs = parser.expr()
        kind, _, pos = parser.cur
        if kind != "eof":
            raise ParseError("trailing input after equation", pos)
        residual = lhs if _is_zero_literal(rhs) else Binary("sub", lhs, rhs)
        return Equation(residual)
    kind, _, pos = parser.cur
    if kind != "eof":
        raise ParseError("trailing input after expression", pos)
    return Equation(lhs)


# ---------------------------------------------------------------------------
# infix printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 2, "pow": 3}


def _spine_has_div(e: Expr) -> bool:
    while isinstance(e, Binary) and e.op in ("mul", "div"):
        if e.op == "div":
            return True
        e = e.right
    return False


def to_infix(e: Expr) -> str:
    """Render a tree as an infix string that reparses to the same tree.

    The walk keeps its own stack of pending strings and subtrees, so a long
    chain prints in linear time without recursion."""
    out = []
    todo = [(e, 0, None)]
    while todo:
        item = todo.pop()
        if type(item) is not str:
            item = _infix(*item)
            if type(item) is not str:
                todo += item
                continue
        out.append(item)
    return "".join(out)


def _infix(e: Expr, parent_prec: int, has_div: bool | None):
    """``e`` under a parent of precedence ``parent_prec``: a leaf's string,
    or a list of strings and ``(subtree, precedence, has_div)`` items still
    to print, last first. ``has_div`` is :func:`_spine_has_div` of ``e``
    when a parent on the same product spine already found it, else None."""
    if isinstance(e, Const):
        s = repr(e.value)
        return f"({s})" if e.value < 0 and parent_prec >= 2 else s
    if isinstance(e, Int):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Field):
        return "u"
    if isinstance(e, Placeholder):
        raise UnsupportedNode("placeholder has no infix form")
    if isinstance(e, Deriv):
        key = (e.var, e.order)
        if key not in SHORTHAND_BY_DERIV:
            raise UnsupportedNode(f"no infix form for derivative {key}")
        if e.child == FIELD:
            return SHORTHAND_BY_DERIV[key]
        return [f")_{e.var * e.order}", (e.child, 0, None), "("]
    if isinstance(e, Unary):
        if e.fn != "neg":
            return [")", (e.child, 0, None), f"{e.fn}("]
        prec = _PREC["neg"]
        body = [(e.child, prec, None), "-"]
    elif isinstance(e, Binary):
        prec = _PREC[e.op]
        if e.op == "pow":
            if not isinstance(e.right, Int):
                raise UnsupportedNode("non-integer exponent has no infix form")
            n = e.right.value
            body = [f"^{n}" if n >= 0 else f"^(-{-n})", (e.left, prec, None)]
        elif e.op == "mul":
            # pure * chains group to the right when parsed; a division in
            # the right spine would make the chain re-fold left, so bracket.
            # The spine below a * has the same answer as the * itself.
            if has_div is None:
                has_div = _spine_has_div(e.right)
            right_prec = prec if has_div else prec - 1
            body = [(e.right, right_prec, has_div), "*", (e.left, prec, None)]
        else:
            glyph = {"add": " + ", "sub": " - ", "div": "/"}[e.op]
            body = [(e.right, prec, None), glyph, (e.left, prec - 1, None)]
    else:
        raise UnsupportedNode(f"cannot print {type(e).__name__}")
    return [")", *body, "("] if parent_prec >= prec else body


# ---------------------------------------------------------------------------
# calculus on trees

def int_to_float(n: int) -> float:
    """``float(n)``; an integer beyond the float range is an unsupported node."""
    try:
        return float(n)
    except OverflowError:
        raise UnsupportedNode(
            f"integer of {n.bit_length()} bits is outside the float range"
        ) from None


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to ``var``.

    Placeholders differentiate to zero (they stand for unknown constants).
    Mixed partials of the field and non-integer powers are unsupported.
    """
    if isinstance(e, (Const, Int, Placeholder)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Field):
        return Deriv(FIELD, var, 1)
    if isinstance(e, Deriv):
        if e.var == var:
            return Deriv(e.child, var, e.order + 1)
        raise UnsupportedNode("mixed partial derivatives are not supported")
    if isinstance(e, Unary):
        d = differentiate(e.child, var)
        if e.fn == "sin":
            return Binary("mul", Unary("cos", e.child), d)
        if e.fn == "cos":
            return Binary(
                "mul", Binary("mul", Const(-1.0), Unary("sin", e.child)), d
            )
        return Unary("neg", d)
    if isinstance(e, Binary):
        dl = differentiate(e.left, var)
        dr = differentiate(e.right, var)
        if e.op in ("add", "sub"):
            return Binary(e.op, dl, dr)
        if e.op == "mul":
            return Binary(
                "add", Binary("mul", dl, e.right), Binary("mul", e.left, dr)
            )
        if e.op == "div":
            return Binary(
                "sub",
                Binary("div", dl, e.right),
                Binary("div", Binary("mul", e.left, dr), Binary("pow", e.right, Int(2))),
            )
        if isinstance(e.right, Int):
            n = e.right.value
            inner = Binary("pow", e.left, Int(n - 1)) if n != 1 else Const(1.0)
            return Binary("mul", Const(int_to_float(n)), Binary("mul", inner, dl))
        raise UnsupportedNode("cannot differentiate a non-integer power")
    raise UnsupportedNode(f"cannot differentiate {type(e).__name__}")


def substitute_field(e: Expr, replacement: Expr) -> Expr:
    """Replace the field with ``replacement`` and expand derivative nodes.

    ``Deriv`` nodes are expanded by symbolically differentiating their
    (substituted) child, so the result contains only ordinary arithmetic
    over variables and constants.
    """
    if isinstance(e, Field):
        return replacement
    if isinstance(e, Deriv):
        node = substitute_field(e.child, replacement)
        for _ in range(e.order):
            node = differentiate(node, e.var)
        return node
    if isinstance(e, Unary):
        return Unary(e.fn, substitute_field(e.child, replacement))
    if isinstance(e, Binary):
        return Binary(
            e.op,
            substitute_field(e.left, replacement),
            substitute_field(e.right, replacement),
        )
    return e


def evaluate(e: Expr, env):
    """Numerically evaluate a tree over an environment of variable values.

    ``env`` maps variable names to scalars or numpy arrays. The field,
    derivative nodes and placeholders are not evaluable directly; substitute
    them away first (see :func:`substitute_field`). Division follows numpy
    for scalars too: a zero divisor gives inf or NaN, not an exception.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Int):
        return int_to_float(e.value)
    if isinstance(e, Var):
        if e.name not in env:
            raise UnsupportedNode(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, (Field, Deriv, Placeholder)):
        raise UnsupportedNode(f"{type(e).__name__} is not directly evaluable")
    if isinstance(e, Unary):
        c = evaluate(e.child, env)
        if e.fn == "sin":
            return np.sin(c)
        if e.fn == "cos":
            return np.cos(c)
        return -c
    if isinstance(e, Binary):
        l = evaluate(e.left, env)
        r = evaluate(e.right, env)
        with np.errstate(all="ignore"):
            if e.op == "add":
                return l + r
            if e.op == "sub":
                return l - r
            if e.op == "mul":
                return l * r
            if e.op == "div":
                return np.divide(l, r)
            return np.power(l, r)
    raise UnsupportedNode(f"cannot evaluate {type(e).__name__}")
