"""Token-sequence serialization of expression trees.

Two dialects are supported:

* ``MANUAL`` -- a plain prefix (Polish) walk of the tree exactly as stored,
  using shorthand derivative leaves ``u_t``, ``u_x``, ``u_xx``, ``u_xxx``
  and the bare field token ``u``.
* ``CANONICAL`` -- the tree is canonicalized first, then emitted as an
  n-ary sum of products. Every product term starts with ``×`` followed by
  an explicit coefficient token (``1`` when there is none), the field is
  the compact token ``u(x,t)``, and derivatives use the bracketed group
  ``∂ ( u(x,t) , x )`` or ``∂ ( u(x,t) , ( x , 3 ) )`` for order >= 2.
  Brackets and commas appear only inside derivative groups.

Float tokens emitted by the canonical serializer carry exactly three
significant digits whenever that representation is lossless; otherwise the
shortest exact spelling is used so decoding always round-trips.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .canon import build, term_head, terms
from .errors import DecodeError, UnsupportedNode
from .expr import (
    DERIV_SHORTHAND,
    FIELD,
    MAX_DEPTH,
    SHORTHAND_BY_DERIV,
    Binary,
    Const,
    Deriv,
    Equation,
    Expr,
    Field,
    Int,
    Placeholder,
    Unary,
    Var,
)

ADD_TOKEN = "+"
SUB_TOKEN = "-"
MUL_TOKEN = "×"
DIV_TOKEN = "÷"
POW_TOKEN = "pow"
PARTIAL_TOKEN = "∂"
FIELD_TOKEN = "u(x,t)"
PLACEHOLDER_TOKEN = "[?]"

_OP_TOKENS = {"add": ADD_TOKEN, "sub": SUB_TOKEN, "mul": MUL_TOKEN, "div": DIV_TOKEN, "pow": POW_TOKEN}
# Decoding accepts ASCII aliases for the glyph operators.
_MANUAL_OPS = {
    "+": "add",
    "-": "sub",
    MUL_TOKEN: "mul",
    "*": "mul",
    DIV_TOKEN: "div",
    "/": "div",
    POW_TOKEN: "pow",
}

_NUM_RE = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")
_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)*$")


class Dialect(str, Enum):
    MANUAL = "manual"
    CANONICAL = "canonical"


@dataclass(frozen=True)
class TokenSeq:
    dialect: Dialect
    tokens: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)


# ---------------------------------------------------------------------------
# float formatting

def format_sig3(value: float) -> str:
    """Positional decimal with exactly three significant digits."""
    if not math.isfinite(value):
        return repr(value)
    if value == 0.0:
        return "0"
    mant, exp_s = f"{value:.2e}".split("e")
    exp = int(exp_s)
    sign = "-" if mant.startswith("-") else ""
    digits = mant.lstrip("-").replace(".", "")
    if not -4 <= exp <= 5:
        return f"{value:.2e}"
    if exp >= 2:
        return sign + digits + "0" * (exp - 2)
    if exp >= 0:
        return sign + digits[: exp + 1] + "." + digits[exp + 1 :]
    return sign + "0." + "0" * (-exp - 1) + digits


def round_sig3(value: float) -> float:
    """Round to three significant digits."""
    return float(format_sig3(value))


def _canonical_number_token(value: float, coefficient: bool) -> str:
    if coefficient:
        if value == 1.0:
            return "1"
        if value == -1.0:
            return "-1"
    s = format_sig3(value)
    if float(s) != value:
        s = repr(value)
    if not coefficient and not any(c in s for c in ".eE"):
        s += ".0"
    return s


# ---------------------------------------------------------------------------
# serialization

def _residual_of(e) -> Expr:
    return e.residual if isinstance(e, Equation) else e


def to_manual_tokens(e) -> TokenSeq:
    """Prefix serialization of the tree exactly as stored (no reordering).

    The walk keeps its own stack, so a long operator chain emits without
    recursion."""
    out: list[str] = []
    todo = [_residual_of(e)]
    while todo:
        e = todo.pop()
        if isinstance(e, Binary):
            out.append(_OP_TOKENS[e.op])
            todo.append(e.right)
            todo.append(e.left)
        elif isinstance(e, Unary):
            out.append(e.fn)
            todo.append(e.child)
        else:
            out.append(_manual_leaf(e))
    return TokenSeq(Dialect.MANUAL, tuple(out))


def _manual_leaf(e: Expr) -> str:
    if isinstance(e, Deriv):
        if e.child != FIELD or (e.var, e.order) not in SHORTHAND_BY_DERIV:
            raise UnsupportedNode(
                "manual dialect has shorthand tokens only for field derivatives "
                "up to u_xxx and u_t"
            )
        return SHORTHAND_BY_DERIV[(e.var, e.order)]
    if isinstance(e, Field):
        return "u"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Int):
        return str(e.value)
    if isinstance(e, Placeholder):
        return PLACEHOLDER_TOKEN
    raise UnsupportedNode(f"cannot serialize {type(e).__name__}")


def to_canonical_tokens(e) -> TokenSeq:
    """Canonicalize, then serialize with explicit per-term coefficients."""
    return canonical_tokens_of_terms(terms(_residual_of(e)))


def canonical_tokens_of_terms(ts) -> TokenSeq:
    """Serialize :func:`canon.terms` output with explicit per-term
    coefficients; no terms serialize as zero."""
    ts = ts or [(0.0, ())]
    out: list[str] = [ADD_TOKEN] if len(ts) >= 2 else []
    for coeff, factors in ts:
        out.append(MUL_TOKEN)
        head, rest = term_head(coeff, factors)
        if isinstance(head, Placeholder):
            out.append(PLACEHOLDER_TOKEN)
        else:
            out.append(_canonical_number_token(head, coefficient=True))
        for f in rest:
            _emit_canonical(f, out)
    return TokenSeq(Dialect.CANONICAL, tuple(out))


def _emit_canonical(e: Expr, out: list[str]) -> None:
    if isinstance(e, Field):
        out.append(FIELD_TOKEN)
    elif isinstance(e, Deriv):
        _emit_deriv(e, out)
    elif isinstance(e, Unary):
        if e.fn == "neg":
            raise UnsupportedNode("negation does not survive canonicalization")
        out.append(e.fn)
        _emit_canonical(e.child, out)
    elif isinstance(e, Binary):
        if e.op == "pow":
            if not isinstance(e.right, Int):
                raise UnsupportedNode("non-integer exponents are not tokenized")
            out.append(POW_TOKEN)
            _emit_canonical(e.left, out)
            out.append(str(e.right.value))
        elif e.op in ("add", "mul"):
            out.append(_OP_TOKENS[e.op])
            _emit_canonical(e.left, out)
            _emit_canonical(e.right, out)
        else:
            raise UnsupportedNode(f"{e.op} does not survive canonicalization")
    elif isinstance(e, Var):
        out.append(e.name)
    elif isinstance(e, Const):
        out.append(_canonical_number_token(e.value, coefficient=False))
    elif isinstance(e, Int):
        out.append(str(e.value))
    elif isinstance(e, Placeholder):
        out.append(PLACEHOLDER_TOKEN)
    else:
        raise UnsupportedNode(f"cannot serialize {type(e).__name__}")


def _emit_deriv(e: Deriv, out: list[str]) -> None:
    if isinstance(e.child, Deriv):
        raise UnsupportedNode("nested (mixed-partial) derivatives are not tokenized")
    if isinstance(e.child, Binary) and e.child.op == "mul":
        raise UnsupportedNode("derivative of a product is not tokenized")
    out.append(PARTIAL_TOKEN)
    out.append("(")
    _emit_canonical(e.child, out)
    out.append(",")
    if e.order == 1:
        out.append(e.var)
    else:
        out.extend(["(", e.var, ",", str(e.order), ")"])
    out.append(")")


# ---------------------------------------------------------------------------
# decoding

class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0

    @property
    def done(self) -> bool:
        return self.idx >= len(self.tokens)

    def peek(self) -> str | None:
        return None if self.done else self.tokens[self.idx]

    def next(self) -> str:
        if self.done:
            raise DecodeError("truncated token sequence")
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise DecodeError(f"expected {text!r}, found {tok!r}")


def from_tokens(ts: TokenSeq) -> Equation:
    """Decode a token sequence; inverse of the matching serializer.

    Raises :class:`DecodeError` for malformed prefix structure, dangling
    brackets, arity violations, trailing tokens, out-of-vocabulary tokens
    or operators nested deeper than ``MAX_DEPTH``.
    """
    cur = _Cursor(list(ts.tokens))
    if cur.done:
        raise DecodeError("empty token sequence")
    if ts.dialect == Dialect.MANUAL:
        expr = _decode_manual(cur)
    else:
        expr = _decode_canonical(cur)
    if not cur.done:
        raise DecodeError(f"trailing tokens starting at {cur.peek()!r}")
    return Equation(expr)


def _number_node(tok: str) -> Expr:
    if any(c in tok for c in ".eE"):
        return Const(float(tok))
    return Int(_int(tok))


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # beyond the digit limit of int()
        raise DecodeError(f"integer token of {len(tok)} digits is too long") from None


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise DecodeError(f"nesting deeper than {MAX_DEPTH} levels")


def _decode_manual(cur: _Cursor, depth: int = 0) -> Expr:
    _check_depth(depth)
    tok = cur.next()
    if tok in _MANUAL_OPS:
        op = _MANUAL_OPS[tok]
        left = _decode_manual(cur, depth + 1)
        right = _decode_manual(cur, depth + 1)
        return Binary(op, left, right)
    if tok in ("sin", "cos", "neg"):
        return Unary(tok, _decode_manual(cur, depth + 1))
    if tok == "u":
        return FIELD
    if tok in DERIV_SHORTHAND:
        var, order = DERIV_SHORTHAND[tok]
        return Deriv(FIELD, var, order)
    if tok == PLACEHOLDER_TOKEN:
        return Placeholder()
    if _NUM_RE.match(tok):
        return _number_node(tok)
    if _VAR_RE.match(tok):
        try:
            return Var(tok)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
    raise DecodeError(f"unknown token {tok!r}")


def _decode_canonical(cur: _Cursor) -> Expr:
    first = cur.peek()
    if first == ADD_TOKEN:
        cur.next()
        ts = []
        while not cur.done:
            if cur.peek() != MUL_TOKEN:
                raise DecodeError(
                    f"every term must start with {MUL_TOKEN!r}, found {cur.peek()!r}"
                )
            ts.append(_decode_term(cur))
        if len(ts) < 2:
            raise DecodeError("a sum needs at least two terms")
        return build(ts)
    if first == MUL_TOKEN:
        return build([_decode_term(cur)])
    raise DecodeError(
        f"canonical sequence must start with {ADD_TOKEN!r} or {MUL_TOKEN!r}"
    )


def _decode_term(cur: _Cursor) -> tuple[float, list[Expr]]:
    cur.expect(MUL_TOKEN)
    tok = cur.next()
    if tok == PLACEHOLDER_TOKEN:
        coeff, factors = 1.0, [Placeholder()]
    elif _NUM_RE.match(tok):
        coeff, factors = float(tok), []
    else:
        raise DecodeError(f"expected a coefficient token, found {tok!r}")
    while not cur.done and cur.peek() != MUL_TOKEN:
        factors.append(_decode_atom(cur))
    return coeff, factors


def _decode_atom(cur: _Cursor, depth: int = 0) -> Expr:
    _check_depth(depth)
    tok = cur.next()
    if tok == ADD_TOKEN:
        left = _decode_atom(cur, depth + 1)
        return Binary("add", left, _decode_atom(cur, depth + 1))
    if tok == MUL_TOKEN:
        left = _decode_atom(cur, depth + 1)
        return Binary("mul", left, _decode_atom(cur, depth + 1))
    if tok == POW_TOKEN:
        base = _decode_atom(cur, depth + 1)
        exp = _decode_atom(cur, depth + 1)
        if not isinstance(exp, Int):
            raise DecodeError("integer exponent expected after pow")
        return Binary("pow", base, exp)
    if tok in ("sin", "cos"):
        return Unary(tok, _decode_atom(cur, depth + 1))
    if tok == PARTIAL_TOKEN:
        return _decode_deriv(cur, depth)
    if tok == FIELD_TOKEN:
        return FIELD
    if tok == PLACEHOLDER_TOKEN:
        return Placeholder()
    if _NUM_RE.match(tok):
        return _number_node(tok)
    if _VAR_RE.match(tok):
        try:
            return Var(tok)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
    raise DecodeError(f"unknown token {tok!r}")


def _decode_deriv(cur: _Cursor, depth: int) -> Expr:
    cur.expect("(")
    child = _decode_atom(cur, depth + 1)
    cur.expect(",")
    tok = cur.next()
    if tok == "(":
        var = cur.next()
        cur.expect(",")
        order_tok = cur.next()
        if not order_tok.isdecimal() or _int(order_tok) < 2:
            raise DecodeError(f"bracketed derivative order must be >= 2, found {order_tok!r}")
        order = int(order_tok)
        cur.expect(")")
    else:
        var, order = tok, 1
    cur.expect(")")
    if var not in ("x", "t"):
        raise DecodeError(f"derivative variable must be x or t, found {var!r}")
    return Deriv(child, var, order)
