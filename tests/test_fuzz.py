"""Fuzz tests for the three input decoders: ``parse_infix``, ``from_tokens``
in both dialects and ``read_grid_file``. On any input each one returns a
result or raises its documented typed error; nothing else escapes."""
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdesym.errors import PdesymError
from pdesym.expr import parse_infix
from pdesym.solver import read_grid_file
from pdesym.tokens import Dialect, TokenSeq, from_tokens, to_canonical_tokens, to_manual_tokens

from helpers import random_general_tree, random_manual_tree

# inputs a decoder might mishandle: integers past int()'s digit limit,
# digits that str.isdigit accepts and int() does not, other scripts' digits
_AWKWARD = ["9" * 5000, "-" + "7" * 4400, "1e400", "-1e-400", "²", "٣", "0.", ".5", "00"]

_INFIX_PIECES = st.sampled_from(
    ["u", "u_t", "u_x", "u_xx", "u_xxx", "u_y", "sin", "cos", "exp", "x", "t",
     "k1", "(", ")", "+", "-", "*", "/", "^", "=", "_x", "_xx", "_t", "2", "0.5",
     "3e2", " ", *_AWKWARD]
)

_TOKENS = st.sampled_from(
    ["+", "-", "×", "*", "÷", "/", "pow", "∂", "(", ")", ",", "u(x,t)", "[?]",
     "u", "u_t", "u_x", "u_xx", "u_xxx", "sin", "cos", "neg", "x", "t", "k",
     "1", "2", "3", "0.500", "-1.50", "", *_AWKWARD]
)


def _decodes_or_typed_error(decode, *args) -> None:
    try:
        decode(*args)
    except PdesymError:
        pass


@given(st.one_of(
    st.text(max_size=60),
    st.lists(st.one_of(_INFIX_PIECES, st.text(max_size=3)), max_size=30).map("".join),
))
@example("u^" + "9" * 5000)
@example("(" * 5000 + "u" + ")" * 5000)
@settings(max_examples=400, deadline=None)
def test_parse_infix_raises_only_parse_errors(src):
    _decodes_or_typed_error(parse_infix, src)


def _mutated(tokens: list, rng, edits: int) -> list:
    """``tokens`` with ``edits`` random deletions, insertions or swaps."""
    vocab = ["+", "×", "pow", "∂", "(", ")", ",", "u(x,t)", "u", "x", "2", "9" * 5000, "²"]
    for _ in range(edits):
        i = int(rng.integers(len(tokens) + 1))
        kind = rng.integers(3)
        if kind == 0 and i < len(tokens):
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, vocab[rng.integers(len(vocab))])
        elif i < len(tokens):
            tokens[i] = vocab[rng.integers(len(vocab))]
    return tokens


@given(st.sampled_from(list(Dialect)), st.lists(st.one_of(_TOKENS, st.text(max_size=4)), max_size=40))
@example(Dialect.MANUAL, ["+"] * 500 + ["u"] * 501)
@example(Dialect.CANONICAL, ["×", "1", "∂", "(", "u(x,t)", ",", "(", "x", ",", "²", ")", ")"])
@example(Dialect.CANONICAL, ["×", "1", "pow", "u(x,t)", "9" * 5000])
@settings(max_examples=400, deadline=None)
def test_from_tokens_raises_only_decode_errors(dialect, tokens):
    _decodes_or_typed_error(from_tokens, TokenSeq(dialect, tuple(tokens)))


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_from_tokens_on_edited_serializations(seed, edits):
    """Near-valid input: a serialized random tree with a few tokens edited."""
    rng = np.random.default_rng(seed)
    for dialect, tree, serialize in (
        (Dialect.MANUAL, random_manual_tree(rng), to_manual_tokens),
        (Dialect.CANONICAL, random_general_tree(rng), to_canonical_tokens),
    ):
        try:
            tokens = list(serialize(tree).tokens)
        except PdesymError:
            continue
        _decodes_or_typed_error(from_tokens, TokenSeq(dialect, tuple(_mutated(tokens, rng, edits))))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["nt", "nx", "t", "x0", "dx", "?"]), inner, max_size=6),
    max_leaves=16,
)

_HEADERS = st.fixed_dictionaries({
    "nt": st.integers(0, 4),
    "nx": st.integers(0, 12),
    "t": st.lists(st.floats(-2.0, 2.0), max_size=5),
    "x0": st.floats(-1.0, 1.0),
    "dx": st.floats(-0.5, 0.5),
})


@st.composite
def _grid_files(draw) -> bytes:
    """Arbitrary bytes, or a PDEGRID1 frame around an arbitrary header and
    payload whose size is near what a good header asks for."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    if draw(st.booleans()):
        header = draw(_HEADERS)
        cells = header["nt"] * header["nx"]
    else:
        header, cells = draw(_JSON), draw(st.integers(0, 16))
    blob = json.dumps(header).encode()
    hlen = len(blob) + draw(st.sampled_from([0, 0, 0, -1, 1, 2**31]))
    size = max(8 * cells + draw(st.sampled_from([0, 0, 0, -8, 8, -3])), 0)
    payload = draw(st.binary(min_size=size, max_size=size))
    return b"PDEGRID1" + struct.pack("<I", max(hlen, 0) % 2**32) + blob + payload


_HEADER = json.dumps({"nt": 2, "nx": 8, "t": [0.0, 1.0], "x0": 0.0, "dx": 0.125}).encode()


@given(_grid_files())
@example(b"PDEGRID1" + struct.pack("<I", 100_000) + b"[" * 100_000)
@example(b"PDEGRID1" + struct.pack("<I", len(_HEADER)) + _HEADER
         + struct.pack("<16d", *[0.0] * 15, float("nan")))
@settings(max_examples=400, deadline=None)
def test_read_grid_file_raises_only_value_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.grid"
        path.write_bytes(raw)
        try:
            read_grid_file(path)
        except ValueError:
            pass
