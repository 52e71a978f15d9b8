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

Each dialect is one table that both directions read: its operator tokens,
its named leaves, whether an exponent must be an integer, and how a
constant is written. The manual dialect reads the ASCII aliases ``*`` and
``/`` but writes only the glyphs, and its leaves include the shorthand
derivatives, so it writes a derivative as one of them. One prefix
serializer writes either dialect and one prefix decoder reads either back;
a node that a dialect has no token for raises :class:`UnsupportedNode`.

Float tokens emitted by the canonical serializer carry exactly three
significant digits whenever that representation is lossless; otherwise the
shortest exact spelling is used so decoding always round-trips.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .canon import build, term_head, terms
from .errors import DecodeError, UnsupportedNode
from .expr import (
    DERIV_LEAVES,
    FIELD,
    PLACEHOLDER,
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
MUL_TOKEN = "×"
DIV_TOKEN = "÷"
POW_TOKEN = "pow"
PARTIAL_TOKEN = "∂"
FIELD_TOKEN = "u(x,t)"
PLACEHOLDER_TOKEN = "[?]"

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
# dialect tables

class _Spelling(dict):
    """The serializer's inverse of a dialect table; what it lacks has no token."""

    def __missing__(self, key):
        raise UnsupportedNode(f"cannot serialize {getattr(key, '__name__', key)}")


class _Dialect(NamedTuple):
    operators: dict
    leaves: dict
    int_exponent: bool
    enter: Callable


def _table(operators: dict, leaves: dict, int_exponent: bool, number) -> _Dialect:
    """One dialect, read by the decoder and the serializer alike.

    ``operators`` maps each operator token to its ``(tag, arity)``, and the
    first token of a tag is the one written; ``leaves`` maps the named leaf
    tokens to their nodes; ``int_exponent`` says whether an exponent must be
    an integer; ``number`` writes a constant. ``enter`` is the :func:`walk`
    callback that writes a tree in prefix order onto the list passed as the
    walk's context. The derivative style follows from the leaves: a dialect
    whose leaves hold derivatives writes each derivative as its shorthand
    leaf; any other writes a ``∂ ( … )`` group, whose closing tokens follow
    the child as a second child of their own.
    """
    spelling = _Spelling({tag: tok for tok, (tag, _) in reversed(operators.items())})
    spelling.update((type(node), tok) for tok, node in leaves.items() if type(node) is not Deriv)
    shorthand = {(n.var, n.order): tok for tok, n in leaves.items() if type(n) is Deriv}
    field = spelling[Field]

    def enter(e, out):
        t = type(e)
        if t is Binary:
            if int_exponent and e.op == "pow" and type(e.right) is not Int:
                raise UnsupportedNode("non-integer exponents are not tokenized")
            out.append(spelling[e.op])
            return None
        if t is Field:
            out.append(field)
        elif t is Deriv:
            if not shorthand:
                if type(e.child) is Deriv:
                    raise UnsupportedNode("nested (mixed-partial) derivatives are not tokenized")
                if type(e.child) is Binary and e.child.op == "mul":
                    raise UnsupportedNode("derivative of a product is not tokenized")
                out += (PARTIAL_TOKEN, "(")
                order = (e.var,) if e.order == 1 else ("(", e.var, ",", str(e.order), ")")
                return (None, e.child, out, (",", *order, ")"), out)
            key = (e.var, e.order)
            if type(e.child) is not Field or key not in shorthand:
                raise UnsupportedNode("manual dialect has shorthand tokens only for field "
                                      "derivatives up to u_xxx and u_t")
            out.append(shorthand[key])  # a leaf token: the child is not walked
        elif t is Const:
            out.append(number(e.value))
        elif t is tuple and not shorthand:  # the tokens that close a ∂ group
            out += e
        elif t is Var:
            out.append(e.name)
        elif t is Unary:
            out.append(spelling[e.fn])
            return None
        elif t is Int:
            out.append(str(e.value))
        else:
            out.append(spelling[t])
        return (None,)

    return _Dialect(operators, leaves, int_exponent, enter)


def _repr_token(value: float) -> str:
    if not math.isfinite(value):
        raise UnsupportedNode(f"non-finite constant {value!r} has no token")
    return repr(value)


_MANUAL = _table(
    {ADD_TOKEN: ("add", 2), "-": ("sub", 2), MUL_TOKEN: ("mul", 2), "*": ("mul", 2),
     DIV_TOKEN: ("div", 2), "/": ("div", 2), POW_TOKEN: ("pow", 2),
     "sin": ("sin", 1), "cos": ("cos", 1), "neg": ("neg", 1)},
    {"u": FIELD, PLACEHOLDER_TOKEN: PLACEHOLDER, **DERIV_LEAVES},
    int_exponent=False, number=_repr_token,
)
# Canonical terms hold no ``sub``, ``div`` or ``neg``, so they have no token.
_CANONICAL = _table(
    {ADD_TOKEN: ("add", 2), MUL_TOKEN: ("mul", 2), POW_TOKEN: ("pow", 2),
     "sin": ("sin", 1), "cos": ("cos", 1), PARTIAL_TOKEN: (PARTIAL_TOKEN, 1)},
    {FIELD_TOKEN: FIELD, PLACEHOLDER_TOKEN: PLACEHOLDER},
    int_exponent=True, number=lambda v: _canonical_number_token(v, coefficient=False),
)


# ---------------------------------------------------------------------------
# serialization

def _residual_of(e) -> Expr:
    return e.residual if isinstance(e, Equation) else e


def to_manual_tokens(e) -> TokenSeq:
    """Prefix serialization of the tree exactly as stored (no reordering)."""
    out: list[str] = []
    walk(_residual_of(e), _MANUAL.enter, ctx=out)
    return TokenSeq(Dialect.MANUAL, tuple(out))


def to_canonical_tokens(e) -> TokenSeq:
    """Canonicalize, then serialize with explicit per-term coefficients;
    no terms serialize as zero."""
    ts = terms(_residual_of(e)) or [(0.0, ())]
    out: list[str] = [ADD_TOKEN] if len(ts) >= 2 else []
    emit, enter = out.append, _CANONICAL.enter
    for coeff, factors in ts:
        emit(MUL_TOKEN)
        head, rest = term_head(coeff, factors)
        emit(PLACEHOLDER_TOKEN if isinstance(head, Placeholder)
             else _canonical_number_token(head, coefficient=True))
        for f in rest:
            walk(f, enter, ctx=out)
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


def _prefix(cur: _Cursor, table: _Dialect) -> Expr:
    """One prefix expression from ``cur`` in the dialect of ``table``, built
    on a stack of open operator frames ``[tag, arity, *operands]`` rather
    than by recursion."""
    operators, leaves, int_exponent = table.operators, table.leaves, table.int_exponent
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
