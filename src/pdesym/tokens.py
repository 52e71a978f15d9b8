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
    DERIV_LEAVES,
    FIELD,
    PLACEHOLDER,
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
    walk,
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
    """Prefix serialization of the tree exactly as stored (no reordering)."""
    out: list[str] = []
    emit = out.append

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary:
            emit(_OP_TOKENS[e.op] if t is Binary else e.fn)
            return None
        if t is Deriv:
            if type(e.child) is not Field or (e.var, e.order) not in SHORTHAND_BY_DERIV:
                raise UnsupportedNode(
                    "manual dialect has shorthand tokens only for field derivatives "
                    "up to u_xxx and u_t"
                )
            emit(SHORTHAND_BY_DERIV[(e.var, e.order)])
        elif t is Field:
            emit("u")
        elif t is Var:
            emit(e.name)
        elif t is Const:
            if not math.isfinite(e.value):
                raise UnsupportedNode(f"non-finite constant {e.value!r} has no token")
            emit(repr(e.value))
        elif t is Int:
            emit(str(e.value))
        elif t is Placeholder:
            emit(PLACEHOLDER_TOKEN)
        else:
            raise UnsupportedNode(f"cannot serialize {t.__name__}")
        return (None,)  # a leaf token: a shorthand derivative's child is not walked

    walk(_residual_of(e), enter)
    return TokenSeq(Dialect.MANUAL, tuple(out))


def to_canonical_tokens(e) -> TokenSeq:
    """Canonicalize, then serialize with explicit per-term coefficients."""
    return canonical_tokens_of_terms(terms(_residual_of(e)))


def canonical_tokens_of_terms(ts) -> TokenSeq:
    """Serialize :func:`canon.terms` output with explicit per-term
    coefficients; no terms serialize as zero."""
    ts = ts or [(0.0, ())]
    out: list[str] = [ADD_TOKEN] if len(ts) >= 2 else []
    emit, extend = out.append, out.extend

    def enter(e, _):
        t = type(e)
        if t is Field:
            emit(FIELD_TOKEN)
        elif t is tuple:  # the tokens that close a derivative group
            extend(e)
        elif t is Deriv:
            if type(e.child) is Deriv:
                raise UnsupportedNode("nested (mixed-partial) derivatives are not tokenized")
            if type(e.child) is Binary and e.child.op == "mul":
                raise UnsupportedNode("derivative of a product is not tokenized")
            order = [e.var] if e.order == 1 else ["(", e.var, ",", str(e.order), ")"]
            extend((PARTIAL_TOKEN, "("))
            # the closing tokens follow the child as a second child of their own
            return (None, e.child, None, (",", *order, ")"), None)
        elif t is Unary:
            if e.fn == "neg":
                raise UnsupportedNode("negation does not survive canonicalization")
            emit(e.fn)
        elif t is Binary:
            if e.op == "pow":
                if type(e.right) is not Int:
                    raise UnsupportedNode("non-integer exponents are not tokenized")
            elif e.op not in ("add", "mul"):
                raise UnsupportedNode(f"{e.op} does not survive canonicalization")
            emit(_OP_TOKENS[e.op])
        elif t is Var:
            emit(e.name)
        elif t is Const:
            emit(_canonical_number_token(e.value, coefficient=False))
        elif t is Int:
            emit(str(e.value))
        elif t is Placeholder:
            emit(PLACEHOLDER_TOKEN)
        else:
            raise UnsupportedNode(f"cannot serialize {t.__name__}")

    for coeff, factors in ts:
        emit(MUL_TOKEN)
        head, rest = term_head(coeff, factors)
        if isinstance(head, Placeholder):
            emit(PLACEHOLDER_TOKEN)
        else:
            emit(_canonical_number_token(head, coefficient=True))
        for f in rest:
            walk(f, enter)
    return TokenSeq(Dialect.CANONICAL, tuple(out))


# ---------------------------------------------------------------------------
# decoding

class _Cursor(list):
    """The tokens still to read, the next one last."""

    def next(self) -> str:
        if not self:
            raise DecodeError("truncated token sequence")
        return self.pop()

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            raise DecodeError(f"expected {text!r}, found {tok!r}")


def from_tokens(ts: TokenSeq) -> Equation:
    """Decode a token sequence; inverse of the matching serializer.

    Raises :class:`DecodeError` for malformed prefix structure, dangling
    brackets, arity violations, trailing tokens, out-of-vocabulary tokens
    or a number outside the float range. Operators may nest to any depth.
    """
    cur = _Cursor(reversed(ts.tokens))
    if not cur:
        raise DecodeError("empty token sequence")
    if ts.dialect == Dialect.MANUAL:
        expr = _prefix(cur, _MANUAL)
    else:
        expr = _decode_canonical(cur)
    if cur:
        raise DecodeError(f"trailing tokens starting at {cur[-1]!r}")
    return Equation(expr)


# per dialect: the (tag, arity) of each operator token, the named leaves,
# and whether an exponent must be an integer
_MANUAL = (
    {**{tok: (op, 2) for tok, op in _MANUAL_OPS.items()},
     "sin": ("sin", 1), "cos": ("cos", 1), "neg": ("neg", 1)},
    {"u": FIELD, PLACEHOLDER_TOKEN: PLACEHOLDER, **DERIV_LEAVES},
    False,
)
_CANONICAL = (
    {ADD_TOKEN: ("add", 2), MUL_TOKEN: ("mul", 2), POW_TOKEN: ("pow", 2),
     "sin": ("sin", 1), "cos": ("cos", 1), PARTIAL_TOKEN: (PARTIAL_TOKEN, 1)},
    {FIELD_TOKEN: FIELD, PLACEHOLDER_TOKEN: PLACEHOLDER},
    True,
)


def _prefix(cur: _Cursor, dialect: tuple) -> Expr:
    """One prefix expression from ``cur``, built on a stack of open
    operator frames ``[tag, arity, *operands]`` rather than by recursion."""
    operators, leaves, int_exponent = dialect
    frames = []
    while True:
        tok = cur.next()
        if tok in operators:
            if tok == PARTIAL_TOKEN:
                cur.expect("(")
            frames.append([*operators[tok]])
            continue
        node = leaves[tok] if tok in leaves else _leaf(tok)
        while frames:
            frame = frames[-1]
            frame.append(node)
            if len(frame) < frame[1] + 2:
                break
            frames.pop()
            tag = frame[0]
            if tag == PARTIAL_TOKEN:
                node = _deriv(cur, frame[2])
            elif len(frame) == 3:
                node = Unary(tag, frame[2])
            elif tag == "pow" and int_exponent and not isinstance(frame[3], Int):
                raise DecodeError("integer exponent expected after pow")
            else:
                node = Binary(tag, frame[2], frame[3])
        else:
            return node


def _leaf(tok: str) -> Expr:
    """A number or variable token of either dialect."""
    if _NUM_RE.match(tok):
        return Const(_float(tok)) if any(c in tok for c in ".eE") else Int(_int(tok))
    if _VAR_RE.match(tok):
        try:
            return Var(tok)
        except ValueError as exc:
            raise DecodeError(str(exc)) from exc
    raise DecodeError(f"unknown token {tok!r}")


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # beyond the digit limit of int()
        raise DecodeError(f"integer token of {len(tok)} digits is too long") from None


def _float(tok: str) -> float:
    value = float(tok)
    if not math.isfinite(value):
        raise DecodeError(f"number token {tok!r} is outside the float range")
    return value


def _decode_canonical(cur: _Cursor) -> Expr:
    first = cur[-1]
    if first == ADD_TOKEN:
        cur.next()
        ts = []
        while cur:
            if cur[-1] != MUL_TOKEN:
                raise DecodeError(
                    f"every term must start with {MUL_TOKEN!r}, found {cur[-1]!r}"
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
        coeff, factors = 1.0, [PLACEHOLDER]
    elif _NUM_RE.match(tok):
        coeff, factors = _float(tok), []
    else:
        raise DecodeError(f"expected a coefficient token, found {tok!r}")
    while cur and cur[-1] != MUL_TOKEN:
        factors.append(_prefix(cur, _CANONICAL))
    return coeff, factors


def _deriv(cur: _Cursor, child: Expr) -> Expr:
    """The derivative of ``child`` whose ``∂ (`` was read before it."""
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
