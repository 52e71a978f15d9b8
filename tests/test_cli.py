import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import pdesym
from pdesym.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_outputs_identical_tokens_for_equivalent_inputs(capsys):
    code, out_a, _ = run_cli(capsys, "canon", "--expr", "x - 1 + 1 + y")
    assert code == 0
    code, out_b, _ = run_cli(capsys, "canon", "--expr", "y + x")
    assert code == 0
    assert json.loads(out_a)["tokens"] == json.loads(out_b)["tokens"]


def test_canon_tokenizes_an_integer_exponent_at_any_size(capsys):
    code, out, _ = run_cli(capsys, "canon", "--expr", "u^3000000000")
    assert code == 0
    assert json.loads(out)["text"] == "× 1 pow u(x,t) 3000000000"
    assert json.loads(out)["canonical_infix"] == "u^3000000000"


def test_tokens_canonical_kdv_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "tokens", "--dialect", "canonical",
        "--eq", "u*u_x + u_t + 0.0484*u_xxx = 0",
    )
    assert code == 0
    text = json.loads(out)["text"]
    assert "∂ ( u(x,t) , ( x , 3 ) )" in text
    assert text.startswith("+ × 1 u(x,t)")


def test_tokens_manual_dialect_keeps_the_input_order(capsys):
    code, out, _ = run_cli(capsys, "tokens", "--dialect", "manual", "--eq", "u_t + 0.5*u*u_x = 0")
    assert code == 0
    assert json.loads(out) == {"dialect": "manual", "text": "+ u_t × 0.5 × u u_x",
                               "tokens": ["+", "u_t", "×", "0.5", "×", "u", "u_x"]}


def test_parse_reports_both_dialects(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "u_t + 0.955*cos(u)*u_x = 0")
    assert code == 0
    payload = json.loads(out)
    assert payload["manual"]["tokens"][0] == "+"
    assert payload["canonical"]["tokens"][0] == "+"
    # a flux derivative has no manual shorthand token
    code, out, _ = run_cli(capsys, "parse", "--expr", "u_t + 0.5*(u^2)_x = 0")
    assert code == 0
    payload = json.loads(out)
    assert payload["manual"] is None
    assert payload["canonical"]["tokens"][0] == "+"


def test_perturb_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "perturb", "--eq", "u_t + 0.9*u*u_x", "--swap-prob", "1.0",
        "--noise-prob", "1.0", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"input_tokens", "output_tokens", "injected_term"}
    assert payload["injected_term"] is not None


def test_perturb_without_noise_keeps_equivalence_class(capsys):
    code, out, _ = run_cli(
        capsys, "perturb", "--eq", "u_t + 0.9*u*u_x", "--swap-prob", "1.0",
        "--noise-prob", "0.0", "--seed", "3", "--dialect", "canonical",
    )
    payload = json.loads(out)
    assert payload["injected_term"] is None
    assert payload["input_tokens"] == payload["output_tokens"]


def test_perturb_draws_its_two_perturbations_independently(capsys):
    """Over seeds 0-199 at both probabilities 0.5, every joint outcome of
    "a term is injected" and "the root's operands are swapped" occurs."""
    from pdesym.canon import equivalent
    from pdesym.expr import parse_infix
    from pdesym.tokens import Dialect, TokenSeq, from_tokens

    outcomes = set()
    for seed in range(200):
        code, out, _ = run_cli(capsys, "perturb", "--eq", "u_t + u_x", "--seed", str(seed))
        assert code == 0
        payload = json.loads(out)
        root = from_tokens(TokenSeq(Dialect.MANUAL, tuple(payload["output_tokens"]))).residual
        injected = payload["injected_term"]
        # the root's right operand before any swap
        right = parse_infix(injected if injected is not None else "u_x").residual
        outcomes.add((injected is not None, equivalent(root.left, right)))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_gen_rejects_a_family_named_twice(tmp_path, capsys):
    """Both entries would write one file, the second over the first."""
    out_dir = tmp_path / "data"
    code, out, err = run_cli(
        capsys, "gen", "--out", str(out_dir), "--families", "inviscid_burgers,inviscid_burgers",
        "--params", "1", "--ics", "1", "--seed", "3",
    )
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": "family 'inviscid_burgers' is named twice"}
    assert not out_dir.exists()


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "tokens", "--bad-flag", "x")
    assert code == 1
    assert json.loads(err)["error"] == "_UsageError"


def test_data_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "canon", "--expr", "tan(u)")
    assert code == 2
    assert "UnknownSymbol" in err
    code, _, err = run_cli(capsys, "canon", "--expr", "2^100000")
    assert code == 2
    assert json.loads(err)["error"] == "UnsupportedNode"
    code, _, err = run_cli(
        capsys, "solve", "--family", "icl_sine", "--q1", "nan",
        "--output-grid", str(tmp_path / "traj.grid"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_deep_input_is_a_data_error(tmp_path, capsys):
    from pdesym.datagen import FAMILIES, equation_record

    code, _, err = run_cli(capsys, "canon", "--expr", "(" * 3000 + "u" + ")" * 2999)
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    truth = tmp_path / "eq.json"
    truth.write_text(json.dumps(equation_record("x", FAMILIES["icl_sine"], 1.0, 0.0)))
    code, _, err = run_cli(
        capsys, "eval", "--truth", str(truth), "--dialect", "manual",
        "--learned-tokens", " ".join(["neg"] * 5000),
    )
    assert code == 2
    assert json.loads(err)["error"] == "DecodeError"
    # a long product chain is not nested input: it canonicalizes
    code, out, _ = run_cli(capsys, "canon", "--expr", "*".join(["x"] * 3000))
    assert code == 0
    assert json.loads(out)["canonical_infix"] == "x^3000"


def test_deep_input_canonicalizes_and_scores(tmp_path, capsys):
    from pdesym.datagen import FAMILIES, equation_record

    code, out, _ = run_cli(capsys, "canon", "--expr", "(" * 3000 + "u" + ")" * 3000)
    assert code == 0
    assert json.loads(out)["tokens"] == ["×", "1", "u(x,t)"]
    truth = tmp_path / "eq.json"
    truth.write_text(json.dumps(equation_record("x", FAMILIES["icl_sine"], 1.0, 0.0)))
    for tokens in (["neg"] * 5000 + ["u"], ["sin"] * 3000 + ["u"]):
        code, out, _ = run_cli(
            capsys, "eval", "--truth", str(truth), "--dialect", "manual",
            "--learned-tokens", " ".join(tokens),
        )
        assert code == 0
        assert np.isfinite(json.loads(out)["symbolic_error"])


def _burgers_record(tmp_path):
    from pdesym.datagen import FAMILIES, equation_record

    path = tmp_path / "burgers.json"
    path.write_text(json.dumps(equation_record("x", FAMILIES["burgers"], 0.5, 0.05)))
    return str(path)


def test_out_of_range_exponent_is_a_data_error(tmp_path, capsys):
    truth = _burgers_record(tmp_path)
    huge = "9" * 400
    for dialect, tokens in (
        ("manual", f"+ u_t × 0.5 × pow u {huge} u_x"),
        ("canonical", f"+ × 1 ∂ ( u(x,t) , t ) × 0.5 ∂ ( u(x,t) , x ) pow u(x,t) {huge}"),
    ):
        code, out, err = run_cli(
            capsys, "eval", "--truth", truth, "--dialect", dialect, "--learned-tokens", tokens
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "UnsupportedNode"


def test_eval_scores_a_long_learned_sum(tmp_path, capsys):
    from pdesym.expr import parse_infix
    from pdesym.solver import Grid1D, SpaceTimeField, write_grid_file
    from pdesym.tokens import to_canonical_tokens

    truth = _burgers_record(tmp_path)
    src = " + ".join(["u_t"] + [f"x^{k}*u_x" for k in range(1, 3001)])
    tokens = " ".join(to_canonical_tokens(parse_infix(src)).tokens)
    code, out, _ = run_cli(capsys, "eval", "--truth", truth, "--learned-tokens", tokens)
    assert code == 0
    assert np.isfinite(json.loads(out)["symbolic_error"])
    grid = tmp_path / "traj.grid"
    write_grid_file(SpaceTimeField(Grid1D(8, 0.125), np.linspace(0, 1, 11), np.zeros((11, 8))),
                    grid)
    code, out, err = run_cli(
        capsys, "eval", "--truth", truth, "--learned-tokens", tokens, "--trajectory", str(grid)
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "NotSolvable"


def test_non_finite_literals_are_data_errors(tmp_path, capsys):
    truth = _burgers_record(tmp_path)
    for dialect, tokens in (
        ("canonical", "+ × 1 ∂ ( u(x,t) , t ) × 1e400 u(x,t)"),
        ("manual", "+ u_t × 1e400 u"),
    ):
        code, out, err = run_cli(
            capsys, "eval", "--truth", truth, "--dialect", dialect, "--learned-tokens", tokens
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "DecodeError"
    code, out, err = run_cli(capsys, "canon", "--expr", "u_t + 1e400*u")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ParseError"


def test_non_finite_scores_are_numeric_errors(tmp_path, capsys):
    """A score that is NaN or infinite is exit 3, never a NaN or Infinity
    in the JSON payload, and no numpy warning escapes."""
    truth = _burgers_record(tmp_path)
    for tokens in ("+ u_t ÷ x 0", "+ u_t × 1e300 pow u 3"):
        code, out, err = run_cli(
            capsys, "eval", "--truth", truth, "--dialect", "manual", "--learned-tokens", tokens
        )
        assert (code, out) == (3, "")
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteState"
        assert payload["message"].startswith("symbolic_error is ")


def test_numeric_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "canon", "--expr", "u/0.0")
    assert code == 3
    assert json.loads(err)["error"] == "DivisionByZero"


def test_truncated_grid_is_a_data_error(tmp_path, capsys):
    from pdesym.datagen import FAMILIES, equation_record

    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(equation_record("x", FAMILIES["icl_sine"], 1.0, 0.0)))
    grid_path = tmp_path / "traj.grid"
    grid_path.write_bytes(b"PDEGRID1\x00\x00")
    code, _, err = run_cli(
        capsys, "refine", "--equation", str(eq_path), "--observations", str(grid_path)
    )
    assert code == 2
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "MalformedFile"


def test_solve_writes_readable_grid(tmp_path, capsys):
    grid_path = tmp_path / "traj.grid"
    code, out, _ = run_cli(
        capsys, "solve", "--family", "icl_sine", "--nx", "64", "--nt", "8",
        "--t-final", "0.5", "--output-grid", str(grid_path),
    )
    assert code == 0
    from pdesym.solver import read_grid_file

    field = read_grid_file(grid_path)
    assert field.values.shape == (8, 64)


def test_gen_refine_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    code, out, _ = run_cli(
        capsys, "gen", "--out", str(data), "--families", "inviscid_burgers",
        "--params", "1", "--ics", "1", "--seed", "5",
    )
    assert code == 0
    index = json.loads((data / "manifest.json").read_text())
    entry = index["entries"][0]

    report = tmp_path / "refined.json"
    code, out, _ = run_cli(
        capsys, "refine",
        "--equation", str(data / entry["equation"]),
        "--observations", str(data / entry["trajectory"]),
        "--alpha0", str(entry["q1"] * 1.05),
        "--particles", "100", "--steps", "5", "--seed", "1",
        "--output", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert len(payload["refined_coefficients"]) == 1
    assert len(payload["ess_per_step"]) == 5
    refined = payload["refined_coefficients"][0]
    assert abs(refined - entry["q1"]) < abs(entry["q1"] * 1.05 - entry["q1"])

    code, out, _ = run_cli(
        capsys, "eval",
        "--truth", str(data / entry["equation"]),
        "--learned", str(data / entry["equation"]),
        "--trajectory", str(data / entry["trajectory"]),
    )
    assert code == 0
    scores = json.loads(out)
    assert scores["symbolic_error"] == 0.0
    assert scores["time_series_error"] == 0.0


def test_refine_rerun_is_byte_identical(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(
        capsys, "gen", "--out", str(data), "--families", "icl_sine",
        "--params", "1", "--ics", "1", "--seed", "2",
    )
    index = json.loads((data / "manifest.json").read_text())
    entry = index["entries"][0]
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys, "refine",
            "--equation", str(data / entry["equation"]),
            "--observations", str(data / entry["trajectory"]),
            "--particles", "60", "--steps", "3", "--seed", "9",
            "--output", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_study_csv_output(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    code, _, _ = run_cli(
        capsys, "study", "--families", "icl_sine", "--trials", "2",
        "--particles", "60", "--steps", "3", "--coeff-error", "0.03",
        "--format", "csv", "--output", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",") == [
        "family", "trials", "symbolic_without", "symbolic_with",
        "timeseries_without", "timeseries_with",
    ]
    assert lines[1].startswith("icl_sine,2,")


@pytest.mark.parametrize("flags,message", [
    (("--families", "burgers", "--trials", "0"), "trials must be at least 1"),
    (("--families", "burgers", "--trials", "-2"), "trials must be at least 1"),
    (("--families", "nope"), "unknown family 'nope'; known families: burgers,"),
    (("--families", "icl_sine,nope", "--trials", "1"), "unknown family 'nope'"),
    (("--families", "burgers,burgers", "--trials", "1"), "family 'burgers' is named twice"),
])
def test_study_rejects_values_it_cannot_report(capsys, flags, message):
    code, out, err = run_cli(capsys, "study", *flags)
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith(message)


def test_non_finite_study_scores_are_numeric_errors(capsys, monkeypatch):
    from pdesym import study

    monkeypatch.setattr(study, "run_trial", lambda *args: (0.1, float("nan"), 0.2, 0.3))
    code, out, err = run_cli(capsys, "study", "--families", "burgers", "--trials", "1")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "NonFiniteState", "message": "symbolic_with is nan"}


@pytest.mark.parametrize("argv", [
    ("parse", "--expr", "u_t + u*u_x"),
    ("canon", "--expr", "u_t + u*u_x"),
    ("tokens", "--eq", "u_t + u*u_x"),
    ("solve", "--family", "burgers", "--output-grid", "unused.grid"),
])
def test_seed_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "5")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "_UsageError", "message": "unrecognized arguments: --seed 5",
    }


@pytest.mark.parametrize("argv", [
    ("parse", "--expr", "u_t + u*u_x"),
    ("canon", "--expr", "u_t + u*u_x"),
    ("refine", "--equation", "eq.json", "--observations", "traj.grid"),
])
def test_format_is_a_usage_error_outside_study(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "_UsageError", "message": "unrecognized arguments: --format csv",
    }


def test_canon_prints_derivative_orders_without_a_shorthand(capsys):
    code, out, _ = run_cli(capsys, "canon", "--expr", "u_t + (u_t)_t")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical_infix"] == "u_t + (u_t)_t"
    code, again, _ = run_cli(capsys, "canon", "--expr", payload["canonical_infix"])
    assert code == 0
    assert json.loads(again)["tokens"] == payload["tokens"]


def test_eval_with_learned_tokens(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli(
        capsys, "gen", "--out", str(data), "--families", "inviscid_burgers",
        "--params", "1", "--ics", "1", "--seed", "4",
    )
    index = json.loads((data / "manifest.json").read_text())
    entry = index["entries"][0]
    record = json.loads((data / entry["equation"]).read_text())
    tokens = " ".join(record["canonical_tokens"])
    code, out, _ = run_cli(
        capsys, "eval", "--truth", str(data / entry["equation"]),
        "--learned-tokens", tokens,
    )
    assert code == 0
    assert json.loads(out)["symbolic_error"] == 0.0


def test_cli_normalizes_juxtaposed_input(capsys):
    code, out_a, _ = run_cli(capsys, "tokens", "--dialect", "canonical",
                             "--eq", "u_t + 0.955 cos(u)u_x=0")
    assert code == 0
    code, out_b, _ = run_cli(capsys, "tokens", "--dialect", "canonical",
                             "--eq", "u_t + 0.955*cos(u)*u_x = 0")
    assert code == 0
    assert json.loads(out_a)["tokens"] == json.loads(out_b)["tokens"]


def test_long_chains_parse_and_perturb(capsys):
    for src in (" + ".join(["u"] * 3000), "*".join(["u"] * 3000)):
        code, out, _ = run_cli(capsys, "parse", "--expr", src)
        assert code == 0
        assert len(json.loads(out)["manual"]["tokens"]) == 5999
        for dialect in ("manual", "canonical"):
            code, out, _ = run_cli(
                capsys, "perturb", "--eq", src, "--noise-prob", "0", "--dialect", dialect
            )
            assert code == 0
            payload = json.loads(out)
            if dialect == "canonical":
                assert payload["output_tokens"] == payload["input_tokens"]


def _record_edits():
    def without(key):
        return lambda rec: {k: v for k, v in rec.items() if k != key}

    def setting(key, value):
        return lambda rec: {**rec, key: value}

    return {
        "q1-string": (setting("q1", "0.5"), "'q1'"),
        "q1-null": (setting("q1", None), "'q1'"),
        "q1-bool": (setting("q1", True), "'q1'"),
        "q2-nan": (setting("q2", float("nan")), "'q2'"),
        "q2-missing": (without("q2"), "'q2'"),
        "top-level-list": (lambda rec: list(rec.values()), "JSON object"),
        "unknown-family": (setting("family", "heat"), "'family'"),
        "family-unhashable": (setting("family", ["burgers"]), "'family'"),
        "flux-kind-mismatch": (setting("flux_kind", "cubic"), "'flux_kind'"),
        "q2-negative": (setting("q2", -0.01), "'q2'"),
    }


@pytest.mark.parametrize("edit", sorted(_record_edits()))
def test_bad_equation_record_is_a_data_error(tmp_path, capsys, edit):
    from pdesym.datagen import FAMILIES, equation_record
    from pdesym.solver import Grid1D, SpaceTimeField, write_grid_file

    change, field = _record_edits()[edit]
    good = equation_record("x", FAMILIES["burgers"], 0.5, 0.05)
    good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
    good_path.write_text(json.dumps(good))
    bad_path.write_text(json.dumps(change(good)))
    grid_path = tmp_path / "traj.grid"
    write_grid_file(SpaceTimeField(Grid1D(8, 0.125), np.linspace(0, 1, 11), np.zeros((11, 8))),
                    grid_path)
    for argv in (
        ("refine", "--equation", str(bad_path), "--observations", str(grid_path)),
        ("eval", "--truth", str(bad_path), "--learned", str(good_path)),
        ("eval", "--truth", str(good_path), "--learned", str(bad_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "MalformedFile"
        assert str(bad_path) in payload["message"] and field in payload["message"]


@pytest.mark.parametrize("content", [
    b"[" * 200_000 + b"]" * 200_000,  # deeper than the JSON reader recurses
    b'{"family": "burgers"',  # not JSON
    b'{"family": "\xff"}',  # not UTF-8
], ids=["deep", "truncated", "not-utf8"])
def test_unreadable_equation_record_is_one_json_error_line(tmp_path, capsys, content):
    """``refine`` and ``eval`` of a record the JSON reader cannot read exit
    2 with one JSON error line that names the file, and no traceback."""
    from pdesym.datagen import FAMILIES, equation_record
    from pdesym.solver import Grid1D, SpaceTimeField, write_grid_file

    bad_path, good_path = tmp_path / "bad.json", tmp_path / "good.json"
    bad_path.write_bytes(content)
    good_path.write_text(json.dumps(equation_record("x", FAMILIES["burgers"], 0.5, 0.05)))
    grid_path = tmp_path / "traj.grid"
    write_grid_file(SpaceTimeField(Grid1D(8, 0.125), np.linspace(0, 1, 11), np.zeros((11, 8))),
                    grid_path)
    for argv in (
        ("refine", "--equation", str(bad_path), "--observations", str(grid_path)),
        ("eval", "--truth", str(bad_path), "--learned", str(good_path)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "MalformedFile",
                                   "message": f"{bad_path}: not a JSON equation record"}


def _write_grid(path, header: dict, values: np.ndarray):
    """A PDEGRID1 file with any header and samples, unchecked."""
    blob = json.dumps(header).encode()
    path.write_bytes(b"PDEGRID1" + struct.pack("<I", len(blob)) + blob
                     + values.astype("<f8").tobytes())


def _three_frames(dx: float):
    """A 3-frame, 8-cell grid header and its samples, a sine in each frame."""
    header = {"nt": 3, "nx": 8, "t": [0.0, 0.05, 0.1], "x0": 0.0, "dx": dx}
    return header, np.tile(0.5 * np.sin(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)), (3, 1))


def test_non_finite_grid_samples_are_a_data_error(tmp_path, capsys):
    from pdesym.datagen import FAMILIES, equation_record

    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(equation_record("x", FAMILIES["icl_sine"], 1.0, 0.0)))
    values = np.zeros((11, 8))
    values[4, 3] = np.nan
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, {"nt": 11, "nx": 8, "t": [0.1 * k for k in range(11)],
                            "x0": 0.0, "dx": 0.125}, values)
    code, _, err = run_cli(
        capsys, "refine", "--equation", str(eq_path), "--observations", str(grid_path)
    )
    assert code == 2
    assert json.loads(err) == {"error": "MalformedFile",
                               "message": f"{grid_path}: not a PDEGRID1 file"}


def _refine_burgers(tmp_path, capsys, *flags):
    """``refine`` of a generated burgers record: 8 particles, 2 steps."""
    data = tmp_path / "data"
    if not data.exists():
        run_cli(capsys, "gen", "--out", str(data), "--families", "burgers",
                "--params", "1", "--ics", "1", "--seed", "3")
    entry = json.loads((data / "manifest.json").read_text())["entries"][0]
    return run_cli(
        capsys, "refine",
        "--equation", str(data / entry["equation"]),
        "--observations", str(data / entry["trajectory"]),
        *flags, "--particles", "8", "--steps", "2",
    )


@pytest.mark.parametrize("alpha0", ["nan", "inf", "-inf,0.05", "0.5,0.05,1"])
def test_malformed_alpha0_is_a_data_error(tmp_path, capsys, alpha0):
    code, out, err = _refine_burgers(tmp_path, capsys, f"--alpha0={alpha0}")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_refine_fails_particles_that_need_too_many_substeps(tmp_path, capsys):
    """With alpha0 = 1e12 every particle of an inviscid sine law needs about
    1e13 substeps per interval: each fails at the substep cap, so refine
    reports a numeric failure instead of running for hours."""
    data = tmp_path / "data"
    run_cli(
        capsys, "gen", "--out", str(data), "--families", "icl_sine",
        "--params", "1", "--ics", "1", "--seed", "17",
    )
    entry = json.loads((data / "manifest.json").read_text())["entries"][0]
    code, out, err = run_cli(
        capsys, "refine",
        "--equation", str(data / entry["equation"]),
        "--observations", str(data / entry["trajectory"]),
        "--alpha0", "1e12", "--particles", "20", "--steps", "1",
    )
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "AllWeightsDegenerate"


def _cli_process(*argv):
    """Run the CLI in a fresh interpreter with numpy's warnings shown; a run
    that does not end within 60 s fails the test."""
    src = str(pathlib.Path(pdesym.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="default")
    return subprocess.run([sys.executable, "-m", "pdesym.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def _assert_substep_cap_error(proc):
    assert (proc.returncode, proc.stdout) == (3, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "NonFiniteState" and "substeps" in error["message"]


def test_eval_of_a_learned_law_with_tiny_steps_stops_at_the_substep_cap(tmp_path, capsys):
    """A learned q1 of 1e300 makes every step of the re-simulation about
    1e-302 long: it stops at ``MAX_SUBSTEPS``, in a few seconds,
    instead of never returning."""
    data = tmp_path / "data"
    run_cli(capsys, "gen", "--out", str(data), "--families", "burgers",
            "--params", "1", "--ics", "1", "--seed", "17")
    entry = json.loads((data / "manifest.json").read_text())["entries"][0]
    record = json.loads((data / entry["equation"]).read_text())
    learned = tmp_path / "fast.json"
    learned.write_text(json.dumps(dict(record, q1=1e300)))
    _assert_substep_cap_error(_cli_process(
        "eval", "--truth", str(data / entry["equation"]), "--learned", str(learned),
        "--trajectory", str(data / entry["trajectory"])))


def test_eval_on_a_grid_with_tiny_spacing_stops_at_the_substep_cap(tmp_path):
    from pdesym.datagen import FAMILIES, equation_record

    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(equation_record("x", FAMILIES["inviscid_burgers"], 0.5, 0.0)))
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, *_three_frames(1e-300))
    _assert_substep_cap_error(_cli_process(
        "eval", "--truth", str(eq_path), "--learned", str(eq_path),
        "--trajectory", str(grid_path)))


@pytest.mark.parametrize("nt", [0, 1])
def test_eval_of_a_trajectory_without_two_frames_is_a_data_error(tmp_path, capsys, nt):
    truth = _burgers_record(tmp_path)
    header, values = _three_frames(0.125)
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, dict(header, nt=nt, t=header["t"][:nt]), values[:nt])
    code, out, err = run_cli(capsys, "eval", "--truth", truth, "--learned", truth,
                             "--trajectory", str(grid_path))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert json.loads(err) == {
        "error": "MalformedFile",
        "message": f"{grid_path}: a trajectory needs at least two frames",
    }


def test_eval_prediction_without_a_trajectory_is_a_usage_error(tmp_path, capsys):
    truth = _burgers_record(tmp_path)
    grid_path = tmp_path / "pred.grid"
    _write_grid(grid_path, *_three_frames(0.125))
    code, out, err = run_cli(capsys, "eval", "--truth", truth, "--learned", truth,
                             "--prediction", str(grid_path))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "eval --prediction needs --trajectory"


def test_eval_without_a_learned_equation_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "eval", "--truth", _burgers_record(tmp_path))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "eval needs --learned or --learned-tokens"


@pytest.mark.parametrize("times", [[0.0, 0.04, 0.1], [0.02, 0.06, 0.1]])
def test_eval_of_a_trajectory_at_uneven_times_is_a_data_error(tmp_path, capsys, times):
    """``time_series_error`` re-simulates at ``linspace(0, t[-1], nt)``; a
    trajectory whose frames sit at other times cannot be scored against it."""
    truth = _burgers_record(tmp_path)
    header, values = _three_frames(0.125)
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, dict(header, t=times), values)
    code, out, err = run_cli(capsys, "eval", "--truth", truth, "--learned", truth,
                             "--trajectory", str(grid_path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "MalformedFile",
        "message": f"{grid_path}: frame times must be evenly spaced from 0",
    }


def test_eval_of_a_prediction_of_another_shape_names_both_files(tmp_path, capsys):
    truth = _burgers_record(tmp_path)
    traj, pred = tmp_path / "traj.grid", tmp_path / "pred.grid"
    code, _, _ = run_cli(capsys, "solve", "--family", "burgers", "--output-grid", str(traj))
    assert code == 0
    field = pdesym.read_grid_file(traj)
    _write_grid(pred, {"nt": 1, "nx": field.grid.nx, "t": [0.0], "x0": field.grid.x0,
                       "dx": field.grid.dx}, field.values[:1])
    code, out, err = run_cli(capsys, "eval", "--truth", truth, "--learned", truth,
                             "--trajectory", str(traj), "--prediction", str(pred))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "MalformedFile",
        "message": f"{pred}: shape (1, 128) does not match {traj}'s (32, 128)",
    }


def test_eval_scores_a_prediction_against_the_trajectory(tmp_path, capsys):
    from pdesym import metrics

    truth = _burgers_record(tmp_path)
    header, values = _three_frames(0.125)
    predicted = 1.1 * values + 0.01 * np.arange(8)
    traj, pred = tmp_path / "traj.grid", tmp_path / "pred.grid"
    _write_grid(traj, header, values)
    _write_grid(pred, header, predicted)
    code, out, _ = run_cli(capsys, "eval", "--truth", truth, "--learned", truth,
                           "--trajectory", str(traj), "--prediction", str(pred))
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_l2"] == metrics.rel_l2(values, predicted) > 0.0
    assert payload["r2"] == metrics.r2_score([values], [predicted])


def test_refine_names_residuals_that_overflow(tmp_path, capsys):
    """Every particle's simulation is finite, but one observed sample of
    1e300 overflows every squared residual."""
    from pdesym.datagen import FAMILIES, equation_record

    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(equation_record("x", FAMILIES["burgers"], 0.5, 0.05)))
    header, values = _three_frames(0.125)
    values[1, 3] = 1e300
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, header, values)
    code, out, err = run_cli(
        capsys, "refine", "--equation", str(eq_path), "--observations", str(grid_path),
        "--particles", "8", "--steps", "2",
    )
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "AllWeightsDegenerate",
                               "message": "every finite simulation's squared residual overflowed"}


def test_refine_of_an_all_zero_trajectory_is_a_numeric_error(tmp_path, capsys):
    """A zero initial frame leaves the observation noise scale zero."""
    eq_path = _burgers_record(tmp_path)
    grid_path = tmp_path / "traj.grid"
    _write_grid(grid_path, {"nt": 3, "nx": 8, "t": [0.0, 0.05, 0.1], "x0": 0.0, "dx": 0.125},
                np.zeros((3, 8)))
    code, out, err = run_cli(capsys, "refine", "--equation", eq_path,
                             "--observations", str(grid_path), "--particles", "8", "--steps", "2")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "ZeroCoefficient",
                               "message": "observation noise scale vanishes (zero initial norm)"}


@pytest.mark.parametrize("flag", ["--process-var=nan", "--obs-scale=inf"])
def test_non_finite_filter_settings_are_usage_errors(tmp_path, capsys, flag):
    code, out, err = _refine_burgers(tmp_path, capsys, flag)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "_UsageError"
    assert payload["message"].endswith("must be positive and finite")


@pytest.mark.parametrize("argv,message", [
    (("study", "--families", "burgers", "--particles", "1"), "particles must be >= 2"),
    (("study", "--families", "burgers", "--steps", "0"), "steps must be >= 1"),
    (("perturb", "--eq", "u_t + u*u_x", "--swap-prob", "2"), "swap_prob must lie in [0, 1]"),
])
def test_settings_a_config_class_rejects_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "_UsageError", "message": message}


@pytest.mark.parametrize("t_final", ["nan", "inf"])
def test_non_finite_horizon_is_one_json_error_line(tmp_path, t_final):
    """``solve --t-final inf`` (or nan) writes its data error to stderr and
    nothing else: no numpy warning escapes from forming the output times,
    and the message names the horizon."""
    proc = _cli_process("solve", "--family", "burgers", "--t-final", t_final, "--nt", "3",
                        "--output-grid", str(tmp_path / "traj.grid"))
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "ValueError",
                                    "message": "t_final must be finite and positive"}


def _os_error_argv(tmp_path):
    """Per case, an argv whose one bad path the OS rejects, and the error."""
    from pdesym.solver import Grid1D, SpaceTimeField, write_grid_file

    record, grid, folder = _burgers_record(tmp_path), str(tmp_path / "traj.grid"), str(tmp_path)
    wave = np.tile(np.sin(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)), (11, 1))
    write_grid_file(SpaceTimeField(Grid1D(8, 0.125), np.linspace(0, 1, 11), wave), grid)
    eval_ = ("eval", "--truth", record, "--learned", record)
    return {
        "equation": (("refine", "--equation", folder, "--observations", grid),
                     "IsADirectoryError"),
        "observations": (("refine", "--equation", record, "--observations", folder),
                         "IsADirectoryError"),
        "truth": (("eval", "--truth", folder, "--learned", record), "IsADirectoryError"),
        "learned": (("eval", "--truth", record, "--learned", folder), "IsADirectoryError"),
        "trajectory": ((*eval_, "--trajectory", folder), "IsADirectoryError"),
        "prediction": ((*eval_, "--trajectory", grid, "--prediction", folder),
                       "IsADirectoryError"),
        "output": (("canon", "--expr", "u", "--output", folder), "IsADirectoryError"),
        "gen-out": (("gen", "--out", record, "--families", "burgers", "--params", "1",
                     "--ics", "1"), "FileExistsError"),
    }


@pytest.mark.parametrize("case", ["equation", "observations", "truth", "learned",
                                  "trajectory", "prediction", "output", "gen-out"])
def test_paths_the_os_rejects_are_data_errors(tmp_path, capsys, case):
    """A directory where a file is read or written, or an existing file as
    ``gen --out``, exits 2 with one JSON line that names the ``OSError``."""
    argv, error = _os_error_argv(tmp_path)[case]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def _error_classes():
    from pdesym import errors

    return [obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, errors.PdesymError)]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, cls):
    """Every error class exits by its base: a ``NumericError`` 3, any other
    ``PdesymError`` 2. A new class needs no CLI edit."""
    from pdesym import cli, errors

    exc = cls("boom", 0) if issubclass(cls, errors.ParseError) else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_canon", fail)
    code, out, err = run_cli(capsys, "canon", "--expr", "u")
    assert (code, out) == (3 if issubclass(cls, errors.NumericError) else 2, "")
    assert json.loads(err) == {"error": cls.__name__, "message": str(exc)}


def test_numeric_errors_are_the_failures_of_valid_input():
    from pdesym.errors import NumericError

    assert {cls.__name__ for cls in _error_classes() if issubclass(cls, NumericError)} == {
        "NumericError", "NonFiniteState", "AllWeightsDegenerate", "DivisionByZero",
        "ZeroCoefficient", "CFLViolation",
    }


def test_a_size_that_cannot_be_allocated_is_a_data_error(tmp_path, capsys, monkeypatch):
    """``solve --nt``, ``solve --nx`` and ``refine --particles`` beyond
    memory exit 2 with one JSON line. The library calls that would allocate
    (``solve --nx`` samples its initial condition on the grid first) are
    patched to raise, so nothing is allocated."""
    from pdesym import datagen, smc, solver

    data = tmp_path / "data"
    assert run_cli(capsys, "gen", "--out", str(data), "--families", "inviscid_burgers",
                   "--params", "1", "--ics", "1", "--seed", "5")[0] == 0
    entry = json.loads((data / "manifest.json").read_text())["entries"][0]

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(solver, "solve", fail)
    monkeypatch.setattr(smc, "refine", fail)
    sample_ic = datagen.sample_ic
    monkeypatch.setattr(datagen, "sample_ic",
                        lambda spec, rng: fail() if spec.nx > 10**6 else sample_ic(spec, rng))
    grid = str(tmp_path / "traj.grid")
    for argv in (
        ("solve", "--family", "burgers", "--nt", "1000000000000", "--output-grid", grid),
        ("solve", "--family", "burgers", "--nx", "1000000000000", "--output-grid", grid),
        ("refine", "--equation", str(data / entry["equation"]),
         "--observations", str(data / entry["trajectory"]), "--particles", "1000000000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "MemoryError", "message": "Unable to allocate 7.28 TiB"}


def test_a_key_error_is_a_bug_not_a_data_error(monkeypatch):
    from pdesym import cli

    def fail(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_cmd_canon", fail)
    with pytest.raises(KeyError):
        main(["canon", "--expr", "u"])


def test_flag_defaults_are_the_config_defaults():
    """The config each command builds from its flags, before ``perturb``
    derives its two streams' seeds from ``--seed``."""
    from pdesym import cli, perturb, smc

    parser = cli.build_parser()
    for argv, config in (
        (["refine", "--equation", "eq.json", "--observations", "t.grid"], smc.FilterConfig),
        (["study"], smc.FilterConfig),
        (["perturb", "--eq", "u"], perturb.PerturbConfig),
    ):
        assert cli._config(config, parser.parse_args(argv)) == config()


@pytest.mark.parametrize("argv, config", [
    (["refine", "--equation", "eq.json", "--observations", "t.grid"], pdesym.FilterConfig),
    (["study"], pdesym.FilterConfig),
    (["perturb", "--eq", "u"], pdesym.PerturbConfig),
], ids=["refine", "study", "perturb"])
def test_every_config_field_has_a_flag(argv, config):
    """A config field that no flag sets is reachable only from tests."""
    import dataclasses

    from pdesym import cli

    args = vars(cli.build_parser().parse_args(argv))
    assert {f.name for f in dataclasses.fields(config)} <= set(args)
