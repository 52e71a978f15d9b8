"""Fuzz tests for the three input decoders: ``parse_infix``, ``from_tokens``
in both dialects and ``read_grid_file``. On any input each one returns a
result or raises its documented typed error; nothing else escapes. The same
holds for ``symbolic_error`` on every equation the decoders return, and the
CLI's ``refine``, ``eval`` and ``study`` exit with a documented code and one
JSON error line on mutated records, grid files and flag values."""
import contextlib
import io
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdesym.cli import main
from pdesym.datagen import FAMILIES, equation_for, equation_record
from pdesym.errors import MalformedFile, PdesymError
from pdesym.expr import parse_infix
from pdesym.metrics import symbolic_error
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

_INFIX_SOURCES = st.one_of(
    st.text(max_size=60),
    st.lists(st.one_of(_INFIX_PIECES, st.text(max_size=3)), max_size=30).map("".join),
)

_TOKEN_LISTS = st.lists(st.one_of(_TOKENS, st.text(max_size=4)), max_size=40)


def _decodes_or_typed_error(decode, *args) -> None:
    try:
        decode(*args)
    except PdesymError:
        pass


@given(_INFIX_SOURCES)
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


@given(st.sampled_from(list(Dialect)), _TOKEN_LISTS)
@example(Dialect.MANUAL, ["+"] * 500 + ["u"] * 501)
@example(Dialect.CANONICAL, ["×", "1", "∂", "(", "u(x,t)", ",", "(", "x", ",", "²", ")", ")"])
@example(Dialect.CANONICAL, ["×", "1", "pow", "u(x,t)", "9" * 5000])
@settings(max_examples=400, deadline=None)
def test_from_tokens_raises_only_decode_errors(dialect, tokens):
    _decodes_or_typed_error(from_tokens, TokenSeq(dialect, tuple(tokens)))


def _edited_serializations(seed: int, edits: int):
    """A serialized random tree per dialect, each with ``edits`` random edits."""
    rng = np.random.default_rng(seed)
    for dialect, tree, serialize in (
        (Dialect.MANUAL, random_manual_tree(rng), to_manual_tokens),
        (Dialect.CANONICAL, random_general_tree(rng), to_canonical_tokens),
    ):
        try:
            tokens = list(serialize(tree).tokens)
        except PdesymError:
            continue
        yield TokenSeq(dialect, tuple(_mutated(tokens, rng, edits)))


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_from_tokens_on_edited_serializations(seed, edits):
    """Near-valid input: a serialized random tree with a few tokens edited."""
    for seq in _edited_serializations(seed, edits):
        _decodes_or_typed_error(from_tokens, seq)


_BURGERS = equation_for(FAMILIES["burgers"], 0.5, 0.05)


@st.composite
def _decoded_equations(draw):
    """The equation a decoder returns for an input one of the three decoder
    properties above draws, or None when that input does not decode."""
    kind = draw(st.sampled_from(["infix", "tokens", "edited"]))
    try:
        if kind == "infix":
            return parse_infix(draw(_INFIX_SOURCES))
        if kind == "tokens":
            dialect = draw(st.sampled_from(list(Dialect)))
            return from_tokens(TokenSeq(dialect, tuple(draw(_TOKEN_LISTS))))
        seqs = list(_edited_serializations(draw(st.integers(0, 2**32 - 1)),
                                           draw(st.integers(0, 6))))
        return from_tokens(seqs[draw(st.integers(0, len(seqs) - 1))]) if seqs else None
    except PdesymError:
        return None


@given(_decoded_equations())
@example(parse_infix("u_t + u^" + "9" * 400))
@example(parse_infix("((u^2)_x)_t + 1/0 + 0^-1"))
@example(from_tokens(TokenSeq(Dialect.MANUAL, ("+", "u_t", "×", "9" * 400, "u_x"))))
@example(from_tokens(TokenSeq(Dialect.CANONICAL, tuple(
    "× 1 ∂ ( sin u(x,t) , ( x , 99 ) ) ∂ ( u(x,t) , ( t , 4000 ) )".split()))))
@settings(max_examples=400, deadline=None)
def test_symbolic_error_on_decoded_equations_returns_float_or_typed_error(eq):
    """Scored as the learned equation against burgers, a decoded equation
    gives a float or a typed error: no RecursionError, OverflowError,
    ZeroDivisionError or TypeError."""
    if eq is None:
        return
    try:
        assert isinstance(symbolic_error(eq, _BURGERS), float)
    except PdesymError:
        pass


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
        except MalformedFile:
            pass


# ---------------------------------------------------------------------------
# the CLI on mutated equation records, PDEGRID1 files and flag values

_RECORD = equation_record("x", FAMILIES["burgers"], 0.5, 0.05)
_GRID_HEADER = {"nt": 3, "nx": 8, "t": [0.0, 0.05, 0.1], "x0": 0.0, "dx": 0.125}
_GRID_VALUES = np.tile(0.5 * np.sin(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)), (3, 1))

# Finite magnitudes stay within a few decades of the families' own: ``solve``,
# which ``eval --trajectory`` runs on the learned law, stops a learned q1 near
# 1e300, or a grid spacing near 1e-300, only at its substep cap, seconds later
# (``test_cli`` checks both once).
_RECORD_VALUES = [None, True, 0, -1, 0.5, 1e-300, 1e3, -0.05, float("nan"), float("inf"),
                  "0.5", "burgers", "quadratic", "sine", [], {}, [0.5]]
_HEADER_VALUES = {
    "nt": [0, 1, 2, 4, -1, 3.0, "3", None],
    "nx": [0, 4, 7, 9, 16, -8, 8.5, None],
    "t": [[0.0, 0.1, 0.05], [0.0, 0.0, 0.1], [0.0, 0.05], [0.0, 1e-9, 2e-9], [0.0, 1.0, 2.0],
          [0.0, float("nan"), 0.1], "0", None],
    "x0": [-1.0, 1e3, float("inf"), "0", None],
    "dx": [0.0, -0.125, 1e-3, 1e3, float("nan"), "0.125", None],
}
_SAMPLES = [float("nan"), float("inf"), -float("inf"), 1e300, 1e3, -1e3, 5e-324]


def _mostly(values: list):
    """The first of ``values`` half the time, else any of them."""
    return st.one_of(st.just(values[0]), st.sampled_from(values))


@st.composite
def _records(draw) -> bytes:
    """The burgers record as is, with one field set or dropped, or cut short."""
    record = dict(_RECORD)
    kind = draw(_mostly(["good", "set", "drop", "cut"]))
    key = draw(st.sampled_from(sorted(record) + ["extra"]))
    if kind == "set":
        record[key] = draw(st.sampled_from(_RECORD_VALUES))
    elif kind == "drop":
        record.pop(key, None)
    raw = json.dumps(record).encode()
    return raw[: draw(st.integers(0, len(raw) - 1))] if kind == "cut" else raw


@st.composite
def _cli_grids(draw) -> bytes:
    """A 3-frame, 8-cell PDEGRID1 file as is, with one header field or one
    sample changed, or cut short. A changed ``nt`` or ``nx`` resizes the
    samples to match."""
    header, values = dict(_GRID_HEADER), _GRID_VALUES.copy()
    kind = draw(_mostly(["good", "header", "sample", "cut"]))
    if kind == "header":
        key = draw(st.sampled_from(sorted(header)))
        header[key] = draw(st.sampled_from(_HEADER_VALUES[key]))
        nt, nx = header["nt"], header["nx"]
        if type(nt) is int and type(nx) is int and nt >= 0 and nx >= 0:
            values = np.resize(values, (nt, nx))
    elif kind == "sample":
        values[draw(st.integers(0, 2)), draw(st.integers(0, 7))] = draw(st.sampled_from(_SAMPLES))
    blob = json.dumps(header).encode()
    raw = b"PDEGRID1" + struct.pack("<I", len(blob)) + blob + values.astype("<f8").tobytes()
    return raw[: draw(st.integers(0, len(raw) - 1))] if kind == "cut" else raw


_FILTER_FLAGS = {
    "--particles": ["4", "2", "1", "0", "-3", "x"],
    "--steps": ["1", "2", "3", "0", "-1", "1.5"],
    "--process-var": ["1e-5", "0", "-1", "nan", "inf"],
    "--obs-scale": ["0.05", "0", "nan", "1e300"],
    "--seed": ["0", "7", "-1", "x", "9" * 30],
}
_REFINE_FLAGS = {
    **_FILTER_FLAGS,
    "--alpha0": ["0.5,0.05", "0.5", "0.45,0.06", "0", "-0.5,0.05", "nan", "inf", "1e3",
                 "0.5,0.05,1", ",", "", "x"],
}
_STUDY_FLAGS = {
    **_FILTER_FLAGS,
    "--families": ["burgers", "icl_cubic", "cl_cubic", "nope", " ", ",", "burgers,nope"],
    "--trials": ["1", "0", "-1", "1.5", "x"],
    "--coeff-error": ["0.03", "0", "-0.5", "2", "nan", "inf", "x"],
}
_EVAL_FLAGS = {
    "--seed": _FILTER_FLAGS["--seed"],
    "--dialect": ["canonical", "manual", "infix"],
}
_ALWAYS = ("--particles", "--steps", "--families", "--trials")  # their defaults run long


@st.composite
def _flags(draw, pools: dict) -> list:
    """``--flag=value`` for about a third of ``pools``' flags, and for those in
    ``_ALWAYS``; each value is the first of its pool half the time."""
    return [
        f"{flag}={draw(_mostly(values))}"
        for flag, values in pools.items()
        if flag in _ALWAYS or draw(st.integers(0, 2)) == 0
    ]


def _no_constant(name):
    raise AssertionError(f"{name} in the JSON payload")


def _exits_cleanly(argv) -> None:
    """``main(argv)`` exits 0 with a JSON payload free of NaN and Infinity, or
    exits 1, 2 or 3 with nothing on stdout and one JSON error line on stderr.
    Either way no warning is issued: a process would print it to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        json.loads(out, parse_constant=_no_constant)
        assert err == ""
        return
    assert code in (1, 2, 3) and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert set(json.loads(lines[0])) == {"error", "message"}


@given(_records(), _cli_grids(), _flags(_REFINE_FLAGS))
@settings(max_examples=60, deadline=None)
def test_refine_exits_cleanly_on_mutated_input(record, grid, flags):
    with tempfile.TemporaryDirectory() as tmp:
        eq, traj = Path(tmp) / "eq.json", Path(tmp) / "traj.grid"
        eq.write_bytes(record)
        traj.write_bytes(grid)
        _exits_cleanly(["refine", "--equation", str(eq), "--observations", str(traj), *flags])


_BURGERS_TOKENS = {
    "canonical": list(to_canonical_tokens(_BURGERS).tokens),
    "manual": list(to_manual_tokens(parse_infix("u_t + 1.0*u*u_x - 0.05*u_xx")).tokens),
}


@given(_records(), _records(), st.integers(0, 2**32 - 1), st.integers(0, 4),
       st.sampled_from(["record", "canonical", "manual"]), st.lists(_cli_grids(), max_size=2),
       _flags(_EVAL_FLAGS))
@settings(max_examples=60, deadline=None)
def test_eval_exits_cleanly_on_mutated_input(truth, learned, seed, edits, source, grids, flags):
    """``--learned`` is a mutated record, or ``--learned-tokens`` are the burgers
    tokens with a few edits; a first grid is the trajectory, a second the
    prediction."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "truth.json").write_bytes(truth)
        argv = ["eval", "--truth", str(tmp / "truth.json")]
        if source == "record":
            (tmp / "learned.json").write_bytes(learned)
            argv += ["--learned", str(tmp / "learned.json")]
        else:
            tokens = _mutated(list(_BURGERS_TOKENS[source]), np.random.default_rng(seed), edits)
            argv += ["--learned-tokens", " ".join(tokens), f"--dialect={source}"]
        for flag, grid in zip(("--trajectory", "--prediction"), grids):
            (tmp / flag[2:]).write_bytes(grid)
            argv += [flag, str(tmp / flag[2:])]
        _exits_cleanly(argv + flags)


@given(_flags(_STUDY_FLAGS))
@settings(max_examples=25, deadline=None)
def test_study_exits_cleanly_on_mutated_flags(flags):
    _exits_cleanly(["study", *flags])
