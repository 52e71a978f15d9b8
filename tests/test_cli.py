import json
import struct

import numpy as np
import pytest

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


def test_tokens_canonical_kdv_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "tokens", "--dialect", "canonical",
        "--eq", "u*u_x + u_t + 0.0484*u_xxx = 0",
    )
    assert code == 0
    text = json.loads(out)["text"]
    assert "∂ ( u(x,t) , ( x , 3 ) )" in text
    assert text.startswith("+ × 1 u(x,t)")


def test_parse_reports_both_dialects(capsys):
    code, out, _ = run_cli(capsys, "parse", "--expr", "u_t + 0.955*cos(u)*u_x = 0")
    assert code == 0
    payload = json.loads(out)
    assert payload["manual"]["tokens"][0] == "+"
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
    assert payload["error"] == "ValueError"


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
        del payload["elapsed"]
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
        assert payload["error"] == "ValueError"
        assert str(bad_path) in payload["message"] and field in payload["message"]


def test_non_finite_grid_samples_are_a_data_error(tmp_path, capsys):
    from pdesym.datagen import FAMILIES, equation_record

    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(equation_record("x", FAMILIES["icl_sine"], 1.0, 0.0)))
    header = json.dumps({"nt": 11, "nx": 8, "t": [0.1 * k for k in range(11)],
                         "x0": 0.0, "dx": 0.125}).encode()
    values = np.zeros((11, 8))
    values[4, 3] = np.nan
    grid_path = tmp_path / "traj.grid"
    grid_path.write_bytes(b"PDEGRID1" + struct.pack("<I", len(header)) + header
                          + values.astype("<f8").tobytes())
    code, _, err = run_cli(
        capsys, "refine", "--equation", str(eq_path), "--observations", str(grid_path)
    )
    assert code == 2
    assert json.loads(err) == {"error": "ValueError",
                               "message": f"{grid_path}: not a PDEGRID1 file"}
