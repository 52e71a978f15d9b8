"""Expression trees for 1-D time-dependent PDEs, plus an infix parser.

Nodes are slotted and immutable: each carries a structural hash, computed
when it is built from its children's hashes, and caches its flat
:func:`canonical_key` once that is asked for. Equality is structural, and
neither ``==`` nor ``hash`` recurses, however deep the tree. The unknown
field u(x, t) is the dedicated leaf ``FIELD``, partial derivatives are
explicit ``Deriv`` nodes, and ``Placeholder`` marks a masked coefficient
slot (rendered as the token ``[?]``).

Equal nodes are shared (hash-consing): building a node equal to one that
is still alive returns that object, so every parse, decode and rewrite of
a structure holds one node per distinct subtree, and its key is cached
once. ``==`` stays structural, so no result depends on identity: an
equal node is only usually the same object. ``Const(-0.0)`` and
``Const(0.0)`` compare equal yet print apart, so they stay two nodes, and
a NaN constant is never shared; a ``Var`` name must be a str and a
``Deriv`` order an int, so no shared field differs in type from the one
asked for. A node whose hash a different live node
holds is not shared, and a race between threads can only lose some
sharing. An unpickled tree is rebuilt through the constructors, so it
joins the sharing of the process that loads it.

Threads may share trees. The module's one table, the sharing table
``_NODES``, is swept over a copy, so no thread walks it while another
changes it. The writes a node takes after it is built, its cached key and
``canon``'s mark, are idempotent: two threads that race on one write the
same value.

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
an explicit-stack traversal, or, for keys, a loop over an explicit stack,
and the parser keeps its open groups on a stack too, so no input is too
deep or too long for them.
"""
from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass

from .errors import ParseError, UnknownSymbol, UnsupportedNode

DERIV_VARS = ("x", "t")

#: shorthand leaf spelling -> (variable, order)
DERIV_SHORTHAND = {
    "u_t": ("t", 1),
    "u_x": ("x", 1),
    "u_xx": ("x", 2),
    "u_xxx": ("x", 3),
}
SHORTHAND_BY_DERIV = {v: k for k, v in DERIV_SHORTHAND.items()}
_TOP_ORDER = {v: max(n for w, n in DERIV_SHORTHAND.values() if w == v) for v in DERIV_VARS}

_RESERVED_IDENTS = {"u", "sin", "cos"} | set(DERIV_SHORTHAND)


class Expr:
    """Base class for expression-tree nodes.

    A node is immutable once built: nothing assigns to its fields, only to
    its key cache and to ``_canon``, the mark ``canon`` sets on a node that
    is its own canonical form as one factor. Each class builds its nodes in
    ``__new__`` and has no ``__init__``, so a shared node returned again
    keeps its fields, its cached key and its mark. ``hash`` returns the
    hash computed when the node was built; ``==`` checks identity, then the
    hashes, then the flat keys (computing, not caching, those not yet
    cached).
    """

    __slots__ = ("_hash", "_key", "_canon", "__weakref__")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._hash == other._hash and _flat_key(self) == _flat_key(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        out, hole = [], "\0"  # no field's repr holds a NUL

        def enter(e, prefix):  # write ``e`` up to its first child
            fields = [(name, getattr(e, name)) for name in e.__slots__]
            kids = [value for _, value in fields if isinstance(value, Expr)]
            text = ", ".join(f"{name}={hole if isinstance(value, Expr) else repr(value)}"
                             for name, value in fields)
            head, *tails = f"{type(e).__name__}({text})".split(hole)
            out.append(prefix + head)
            if len(kids) == 2:
                return tails[1], kids[0], "", kids[1], tails[0]
            return (tails[0], kids[0], "") if kids else (None,)

        walk(self, enter, lambda e, tail, *_: out.append(tail), "")
        return "".join(out)

    def __reduce__(self):  # rebuilt: the hash and the shared node are this process's
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# Ranks order node classes in canonical keys: the coefficient-like
# placeholder first, then the field, derivatives, applied functions, powers
# and variables, constants last.
_RANK_PLACEHOLDER, _RANK_FIELD, _RANK_DERIV, _RANK_UNARY, _RANK_BINARY, _RANK_VAR = range(6)
_RANK_INT, _RANK_CONST = 8, 9
_FN_RANK = {"sin": 0, "cos": 1, "neg": 2}
_OP_RANK = {"pow": 0, "mul": 1, "add": 2, "sub": 3, "div": 4}

# Sharing: a node's structural hash -> a weak reference to the live node
# built with it. A constructor looks its hash up and returns the node found
# there when it has the same class, fields and child objects; children are
# shared already, so the check is shallow. A different live node on the
# same hash keeps its entry, and the new node is not shared. Dead entries
# are swept in one pass whenever the table has doubled since the last.
_NODES: dict[int, weakref.ref] = {}
_SWEEP_MIN = 1024  # entries
_sweep_at = _SWEEP_MIN


def _absent():  # the "referent" of a missing entry
    return None


def _enter(e: Expr, h: int, old) -> Expr:
    """Finish the new node ``e`` with hash ``h`` and enter it in the table,
    unless ``old``, the live node found there, holds the entry."""
    e._hash, e._key, e._canon = h, None, False
    if old is None:
        _NODES[h] = weakref.ref(e)
        if len(_NODES) >= _sweep_at:
            _sweep()
    return e


def _sweep() -> None:
    """Drop the table's dead entries. It walks a copy: ``dict.copy`` runs
    no Python code, so no other thread changes the table while it is made,
    whereas a walk over the table itself can be interrupted, by a weakref
    callback that a collection runs, say. Popping an entry that another
    thread has just refilled only loses that sharing."""
    global _sweep_at
    for h, ref in _NODES.copy().items():
        if ref() is None:
            _NODES.pop(h, None)
    _sweep_at = max(2 * len(_NODES), _SWEEP_MIN)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        h = hash((_RANK_CONST, value))
        old = _NODES.get(h, _absent)()
        # -0.0 == 0.0 but prints apart, so a zero shares only with its sign;
        # a NaN equals nothing, so it is never shared
        if type(old) is cls and old.value == value and (
                value or math.copysign(1.0, value) == math.copysign(1.0, old.value)):
            return old
        e = object.__new__(cls)
        e.value = value
        return _enter(e, h, old)


class Int(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: int):
        value = int(value)
        h = hash((_RANK_INT, value))
        old = _NODES.get(h, _absent)()
        if type(old) is cls and old.value == value:
            return old
        e = object.__new__(cls)
        e.value = value
        return _enter(e, h, old)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if type(name) is not str:  # Var(1) and Var(1.0) would share a node
            raise ValueError(f"variable name must be a str, got {name!r}")
        if name in _RESERVED_IDENTS:
            raise ValueError(f"reserved identifier {name!r} cannot be a variable")
        h = hash((_RANK_VAR, name))
        old = _NODES.get(h, _absent)()
        if type(old) is cls and old.name == name:
            return old
        e = object.__new__(cls)
        e.name = name
        return _enter(e, h, old)


class Field(Expr):
    """The unknown field u(x, t)."""

    __slots__ = ()

    def __new__(cls):
        old = _NODES.get(_RANK_FIELD, _absent)()
        return old if type(old) is cls else _enter(object.__new__(cls), _RANK_FIELD, old)


class Placeholder(Expr):
    """A masked coefficient slot."""

    __slots__ = ()

    def __new__(cls):
        old = _NODES.get(_RANK_PLACEHOLDER, _absent)()
        return old if type(old) is cls else _enter(object.__new__(cls), _RANK_PLACEHOLDER, old)


class Unary(Expr):
    __slots__ = ("fn", "child")

    def __new__(cls, fn: str, child: Expr):
        if fn not in _FN_RANK:
            raise ValueError(f"unknown unary function {fn!r}")
        h = hash((_RANK_UNARY, fn, child._hash))
        old = _NODES.get(h, _absent)()
        if type(old) is cls and old.child is child and old.fn == fn:
            return old
        e = object.__new__(cls)
        e.fn, e.child = fn, child
        return _enter(e, h, old)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr):
        if op not in _OP_RANK:
            raise ValueError(f"unknown binary operator {op!r}")
        h = hash((_RANK_BINARY, op, left._hash, right._hash))
        old = _NODES.get(h, _absent)()
        if type(old) is cls and old.left is left and old.right is right and old.op == op:
            return old
        e = object.__new__(cls)
        e.op, e.left, e.right = op, left, right
        return _enter(e, h, old)


class Deriv(Expr):
    __slots__ = ("child", "var", "order")

    def __new__(cls, child: Expr, var: str, order: int):
        if var not in DERIV_VARS:
            raise ValueError(f"derivative variable must be one of {DERIV_VARS}")
        if type(order) is not int or order < 1:  # 2.0 would share with 2
            raise ValueError(f"derivative order must be an int >= 1, got {order!r}")
        h = hash((_RANK_DERIV, var, order, child._hash))
        old = _NODES.get(h, _absent)()
        if type(old) is cls and old.child is child and old.var == var and old.order == order:
            return old
        e = object.__new__(cls)
        e.child, e.var, e.order = child, var, order
        return _enter(e, h, old)


@dataclass(frozen=True)
class Equation:
    """An equation stored in residual form: ``residual = 0``."""

    residual: Expr


FIELD = Field()
#: the placeholder node that the token decoders and ``perturb`` share
PLACEHOLDER = Placeholder()
#: shorthand leaf spelling -> its shared node
DERIV_LEAVES = {name: Deriv(FIELD, var, n) for name, (var, n) in DERIV_SHORTHAND.items()}


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


KEY_CACHE_MAX = 256  # entries
_LONG = ()  # the cached "key" of a node whose key is too long to cache


def canonical_key(e: Expr) -> tuple:
    """Total-order key over subtrees; equal keys mean structurally equal
    trees. Computed once per node and cached on it, unless it is longer
    than :data:`KEY_CACHE_MAX`: a deep chain whose every node kept its key
    would hold memory quadratic in its depth.

    The key is flat: every node's rank and fields in pre-order. A rank
    fixes how many children follow it, so no key is a prefix of another and
    flat keys sort as the nested ``(rank, fields, child keys)`` would. Being
    flat, keys of deep trees compare and hash without recursion. A subtree
    whose key is cached is copied in, not walked.
    """
    key = e._key
    if not key:
        key = _flat_key(e)
        e._key = key if len(key) <= KEY_CACHE_MAX else _LONG
    return key


def _flat_key(e: Expr) -> tuple:
    """The key of ``e``, from its cache if it has one; nothing is cached.
    A pre-order loop over an explicit stack, copying in cached keys."""
    out = []
    todo = [e]
    pop, push, extend = todo.pop, todo.append, out.extend
    while todo:
        e = pop()
        key = e._key
        if key:
            extend(key)
            continue
        t = type(e)
        if t is Binary:
            extend((_RANK_BINARY, _OP_RANK[e.op]))
            push(e.right)
            push(e.left)
        elif t is Unary:
            extend((_RANK_UNARY, _FN_RANK[e.fn]))
            push(e.child)
        elif t is Deriv:
            extend((_RANK_DERIV, e.var, e.order))
            push(e.child)
        elif t is Field:
            out.append(_RANK_FIELD)
        elif t is Var:
            extend((_RANK_VAR, e.name))
        elif t is Int:
            extend((_RANK_INT, e.value))
        elif t is Const:
            extend((_RANK_CONST, e.value))
        elif t is Placeholder:
            out.append(_RANK_PLACEHOLDER)
        else:
            raise TypeError(f"cannot key {t.__name__}")
    return tuple(out)


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
        return DERIV_LEAVES[name]
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
    """Render a tree as an infix string that reparses to the same tree.

    A derivative whose order has no shorthand is written as a nest of the
    shorthand groups, the largest innermost (``u_tt`` as ``(u_t)_t``,
    ``u_xxxxx`` as ``(u_xxx)_xx``); it reparses as that nest, which
    ``canonicalize`` merges back into one derivative.
    """
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
            if key not in SHORTHAND_BY_DERIV:  # print the outermost group of a nest
                top = _TOP_ORDER[e.var]
                outer = e.order % top or top
                emit("(")
                return (f")_{e.var * outer}", Deriv(e.child, e.var, e.order - outer), _OPEN[0])
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
# integer leaves as numbers

def int_to_float(n: int) -> float:
    """``float(n)``; an integer beyond the float range is an unsupported node."""
    try:
        return float(n)
    except OverflowError:
        raise UnsupportedNode(
            f"integer of {n.bit_length()} bits is outside the float range"
        ) from None
