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
to the left so division keeps its usual meaning. A number literal must
be finite as a float.

Every function here that takes a tree apart does so through :func:`walk`,
an explicit-stack traversal, and the parser keeps its open groups on a
stack too, so no input is too deep or too long for them.
"""
from __future__ import annotations

import math
import operator
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
# traversal

_LEAVE = object()  # marks a node whose children are done
_ONE, _TWO = (None,) * 3, (None,) * 5  # what enter's None stands for


def walk(root: Expr, enter, leave=None, ctx=None):
    """Fold the tree under ``root`` with an explicit stack and return the
    root's value; any depth works, since nothing recurses.

    ``enter(e, ctx)`` runs in pre-order and returns

    * ``None`` to walk the children of ``e``, each with ``ctx``; a leaf has
      none, and its value is None;
    * ``(value,)`` when ``e`` has that value and its children are not walked;
    * ``(note, child, child_ctx)`` or ``(note, left, left_ctx, right,
      right_ctx)`` to walk those children, in that order.

    After the children, ``leave(e, note, *child_values)`` returns the value
    of ``e``; the note is None in the first case. A walk with no ``leave``
    is run for what ``enter`` does and returns None.
    """
    t = type(root)
    if t is not Binary and t is not Unary and t is not Deriv:  # a lone leaf
        r = enter(root, ctx)
        return r[0] if r is not None and leave is not None else None
    values = []
    push = values.append
    todo = [(root, ctx)]  # (node, its context) pairs, and leave frames
    pop, append = todo.pop, todo.append
    while todo:
        e, ctx = pop()
        if ctx is _LEAVE:
            e, r = e
            if len(r) == 3:
                values[-1] = leave(e, r[0], values[-1])
            else:
                right = values.pop()
                values[-1] = leave(e, r[0], values[-1], right)
            continue
        r = enter(e, ctx)
        if r is None:
            t = type(e)
            if t is Binary:
                if leave is not None:
                    append(((e, _TWO), _LEAVE))
                append((e.right, ctx))
                append((e.left, ctx))
            elif t is Unary or t is Deriv:
                if leave is not None:
                    append(((e, _ONE), _LEAVE))
                append((e.child, ctx))
            else:
                push(None)
        elif len(r) == 1:
            push(r[0])
        else:
            if leave is not None:
                append(((e, r), _LEAVE))
            if len(r) == 5:
                append((r[3], r[4]))
            append((r[1], r[2]))
    return values[0] if leave is not None else None


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


def _expr(toks: list, i: int):
    """Read one ``expr`` from ``toks[i]`` on; return the tree and the index
    of the first token after it.

    Precedence climbing over an explicit stack of open groups: each token
    is looked at once, and nesting costs memory, not recursion.
    """
    stack = []  # the state of each enclosing group, innermost last
    # The group being read: what opened it (None at the top level, "(" or a
    # function name), the sum of its finished terms and the operator that
    # joins the next term to it, the term being read, and the unary minuses
    # before the factor being read.
    opener, total, addop, factors, ops, minus = None, None, None, [], [], 0
    while True:
        kind, tok, pos = toks[i]
        i += 1
        if kind == "op" and tok == "-":
            minus += 1
            continue
        if kind == "op" and tok == "(" or kind == "ident" and tok in ("sin", "cos"):
            if kind == "ident":
                if toks[i][:2] != ("op", "("):
                    raise ParseError("expected '('", toks[i][2])
                i += 1
            stack.append((opener, total, addop, factors, ops, minus))
            opener, total, addop, factors, ops, minus = tok, None, None, [], [], 0
            continue
        if kind == "num":
            node = Const(float(tok))
            if not math.isfinite(node.value):
                raise ParseError("number is outside the float range", pos)
        elif kind == "ident":
            node = _ident(toks, i)
        else:
            raise ParseError("expected expression", pos)
        while True:  # ``node`` is a base read in the current group
            kind, tok, pos = toks[i]
            if kind == "op" and tok == "^":
                exponent, i = _exponent(toks, i + 1)
                node = Binary("pow", node, exponent)
                kind, tok, pos = toks[i]
            for _ in range(minus):
                node = Const(-node.value) if type(node) is Const else Unary("neg", node)
            minus = 0
            factors.append(node)
            if kind == "op" and (tok == "*" or tok == "/"):
                ops.append("mul" if tok == "*" else "div")
                i += 1
                break
            term = _term(factors, ops)
            factors, ops = [], []
            total = term if total is None else Binary(addop, total, term)
            if kind == "op" and (tok == "+" or tok == "-"):
                addop = "add" if tok == "+" else "sub"
                i += 1
                break
            if opener is None:
                return total, i
            if kind != "op" or tok != ")":
                raise ParseError("expected ')'", pos)
            i += 1
            node = total
            if opener != "(":
                node = Unary(opener, node)
            elif toks[i][0] == "ident" and "u" + toks[i][1] in DERIV_SHORTHAND:
                # a derivative suffix is a shorthand spelling without its "u"
                node = Deriv(node, *DERIV_SHORTHAND["u" + toks[i][1]])
                i += 1
            opener, total, addop, factors, ops, minus = stack.pop()


def _term(factors: list, ops: list) -> Expr:
    if "div" in ops:
        node = factors[0]
        for op, f in zip(ops, factors[1:]):
            node = Binary(op, node, f)
        return node
    node = factors[-1]
    for f in reversed(factors[:-1]):
        node = Binary("mul", f, node)
    return node


def _exponent(toks: list, i: int):
    negative = toks[i][:2] == ("op", "-")
    kind, tok, pos = toks[i + negative]
    if kind != "num" or "." in tok or "e" in tok or "E" in tok:
        raise ParseError("integer exponent required", pos)
    try:
        return Int(-int(tok) if negative else int(tok)), i + negative + 1
    except ValueError:  # beyond the digit limit of int()
        raise ParseError("exponent too long", pos) from None


def _ident(toks: list, i: int) -> Expr:
    """The leaf named by ``toks[i - 1]``, an identifier other than a function."""
    _, name, pos = toks[i - 1]
    if name == "u":
        if toks[i][:2] == ("op", "("):
            raise UnknownSymbol("'u' is the field, not a function", pos)
        return FIELD
    if name in DERIV_SHORTHAND:
        return Deriv(FIELD, *DERIV_SHORTHAND[name])
    if name.startswith("u_"):
        raise UnknownSymbol(f"unknown derivative shorthand {name!r}", pos)
    if toks[i][:2] == ("op", "("):
        raise UnknownSymbol(f"{name!r} is not a function", pos)
    return Var(name)


def parse_infix(src: str) -> Equation:
    """Parse an infix equation or expression into residual form.

    With an ``=`` sign the residual is ``lhs - rhs`` (a literal-zero right
    side is dropped); without one the expression itself is the residual.
    """
    toks = _tokenize(src)
    lhs, i = _expr(toks, 0)
    if toks[i][:2] == ("op", "="):
        rhs, i = _expr(toks, i + 1)
        kind, _, pos = toks[i]
        if kind != "eof":
            raise ParseError("trailing input after equation", pos)
        residual = lhs if type(rhs) is Const and rhs.value == 0.0 else Binary("sub", lhs, rhs)
        return Equation(residual)
    kind, _, pos = toks[i]
    if kind != "eof":
        raise ParseError("trailing input after expression", pos)
    return Equation(lhs)


# ---------------------------------------------------------------------------
# infix printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 2, "pow": 3}

# A printing context is (precedence of the parent, glyph to print first,
# whether the product spine the node continues holds a division).
_OPEN = [(p, "", None) for p in range(4)]
_RIGHT = {"add": (1, " + ", None), "sub": (1, " - ", None), "div": (2, "/", None)}
_MUL_DIV, _MUL = (2, "*", True), (1, "*", False)


def _spine_has_div(e: Expr) -> bool:
    while isinstance(e, Binary) and e.op in ("mul", "div"):
        if e.op == "div":
            return True
        e = e.right
    return False


def to_infix(e: Expr) -> str:
    """Render a tree as an infix string that reparses to the same tree."""
    out = []
    emit = out.append

    def enter(e, ctx):
        parent_prec, glyph, has_div = ctx
        if glyph:
            emit(glyph)
        t = type(e)
        if t is Binary:
            op = e.op
            prec = _PREC[op]
            close = ")" if parent_prec >= prec else ""
            if close:
                emit("(")
            if op == "pow":
                if type(e.right) is not Int:
                    raise UnsupportedNode("non-integer exponent has no infix form")
                return (f"^{e.right.value}{close}", e.left, _OPEN[3])
            if op == "mul":
                # pure * chains group to the right when parsed; a division in
                # the right spine would make the chain re-fold left, so bracket.
                # The spine below a * has the same answer as the * itself.
                if has_div is None:
                    has_div = _spine_has_div(e.right)
                return (close, e.left, _OPEN[2], e.right, _MUL_DIV if has_div else _MUL)
            # "a*b*c/d" reads as ((a*b)*c)/d, so a right-grouped product
            # before a "/" needs brackets
            l = e.left
            regroups = (op == "div" and type(l) is Binary and l.op == "mul"
                        and type(l.right) is Binary and l.right.op == "mul"
                        and not _spine_has_div(l.right))
            return (close, l, _OPEN[2 if regroups else prec - 1], e.right, _RIGHT[op])
        if t is Const:
            if not math.isfinite(e.value):
                raise UnsupportedNode(f"non-finite constant {e.value!r} has no infix form")
            s = repr(e.value)
            emit(f"({s})" if e.value < 0 and parent_prec >= 2 else s)
        elif t is Int:
            emit(str(e.value))
        elif t is Var:
            emit(e.name)
        elif t is Field:
            emit("u")
        elif t is Unary:
            if e.fn != "neg":
                emit(f"{e.fn}(")
                return (")", e.child, _OPEN[0])
            close = ")" if parent_prec >= 2 else ""
            emit("(-" if close else "-")
            return (close, e.child, _OPEN[2])
        elif t is Deriv:
            key = (e.var, e.order)
            if key not in SHORTHAND_BY_DERIV:
                raise UnsupportedNode(f"no infix form for derivative {key}")
            if type(e.child) is Field:
                emit(SHORTHAND_BY_DERIV[key])
                return (None,)  # a leaf token
            emit("(")
            return (f")_{e.var * e.order}", e.child, _OPEN[0])
        elif t is Placeholder:
            raise UnsupportedNode("placeholder has no infix form")
        else:
            raise UnsupportedNode(f"cannot print {t.__name__}")

    def leave(e, close, *_):
        if close:
            emit(close)

    walk(e, enter, leave, _OPEN[0])
    return "".join(out)


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

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary:
            return None
        if t is Const or t is Int or t is Placeholder:
            return (Const(0.0),)
        if t is Var:
            return (Const(1.0 if e.name == var else 0.0),)
        if t is Field:
            return (Deriv(FIELD, var, 1),)
        if t is Deriv:
            if e.var == var:
                return (Deriv(e.child, var, e.order + 1),)
            raise UnsupportedNode("mixed partial derivatives are not supported")
        raise UnsupportedNode(f"cannot differentiate {t.__name__}")

    def leave(e, _, dl, dr=None):
        if type(e) is Unary:
            if e.fn == "neg":
                return Unary("neg", dl)
            if e.fn == "sin":
                return Binary("mul", Unary("cos", e.child), dl)
            return Binary("mul", Binary("mul", Const(-1.0), Unary("sin", e.child)), dl)
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

    return walk(e, enter, leave)


def substitute_field(e: Expr, replacement: Expr) -> Expr:
    """Replace the field with ``replacement`` and expand derivative nodes.

    ``Deriv`` nodes are expanded by symbolically differentiating their
    (substituted) child, so the result contains only ordinary arithmetic
    over variables and constants.
    """

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary or t is Deriv:
            return None
        return (replacement if t is Field else e,)

    def leave(e, _, *kids):
        t = type(e)
        if t is Deriv:
            node = kids[0]
            for _ in range(e.order):
                node = differentiate(node, e.var)
            return node
        if t is Unary:
            return Unary(e.fn, kids[0])
        return Binary(e.op, *kids)

    return walk(e, enter, leave)


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": np.divide, "pow": np.power}


def evaluate(e: Expr, env):
    """Numerically evaluate a tree over an environment of variable values.

    ``env`` maps variable names to scalars or numpy arrays. The field,
    derivative nodes and placeholders are not evaluable directly; substitute
    them away first (see :func:`substitute_field`). Division follows numpy
    for scalars too: a zero divisor gives inf or NaN, not an exception.
    """

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary:
            return None
        if t is Const:
            return (e.value,)
        if t is Int:
            return (int_to_float(e.value),)
        if t is Var:
            if e.name not in env:
                raise UnsupportedNode(f"unbound variable {e.name!r}")
            return (env[e.name],)
        if t is Field or t is Deriv or t is Placeholder:
            raise UnsupportedNode(f"{t.__name__} is not directly evaluable")
        raise UnsupportedNode(f"cannot evaluate {t.__name__}")

    def leave(e, _, l, r=None):
        if type(e) is Unary:
            return np.sin(l) if e.fn == "sin" else np.cos(l) if e.fn == "cos" else -l
        return _ARITHMETIC[e.op](l, r)

    with np.errstate(all="ignore"):
        return walk(e, enter, leave)
