import hashlib
import json
import logging

import numpy as np
import pytest

from pdesym import datagen
from pdesym.datagen import (
    FAMILIES,
    DatasetManifest,
    fourier_profile,
    generate,
    grid_for,
    law_for,
    sample_ic,
    sample_params,
)
from pdesym.metrics import law_from_equation
from pdesym.solver import read_grid_file, solve
from pdesym.tokens import Dialect, TokenSeq, format_sig3, from_tokens



def test_family_registry():
    assert set(FAMILIES) == {
        "burgers",
        "inviscid_burgers",
        "cl_cubic",
        "icl_cubic",
        "cl_sine",
        "icl_sine",
    }
    for name, spec in FAMILIES.items():
        assert spec.nx == 128 and spec.nt == 32
        if name.startswith("i"):
            assert spec.q2 == 0.0
        else:
            assert spec.q2 > 0.0


def test_sample_params_interval_and_rounding():
    spec = FAMILIES["burgers"]
    rng = np.random.default_rng(0)
    slack = 5e-3  # 3-significant-digit rounding moves a draw at most this much
    for _ in range(200):
        q1, q2 = sample_params(spec, rng)
        assert 0.9 * spec.q1 * (1 - slack) <= q1 <= 1.1 * spec.q1 * (1 + slack)
        assert 0.9 * spec.q2 * (1 - slack) <= q2 <= 1.1 * spec.q2 * (1 + slack)
        assert float(format_sig3(q1)) == q1
        assert float(format_sig3(q2)) == q2


def test_sample_params_inviscid_viscosity_stays_zero():
    spec = FAMILIES["icl_cubic"]
    rng = np.random.default_rng(1)
    for _ in range(50):
        _, q2 = sample_params(spec, rng)
        assert q2 == 0.0


def test_sample_params_mean_close_to_base():
    spec = FAMILIES["inviscid_burgers"]
    rng = np.random.default_rng(2)
    draws = np.array([sample_params(spec, rng)[0] for _ in range(10_000)])
    assert abs(draws.mean() - spec.q1) <= 0.003 * spec.q1


def test_sample_ic_unit_amplitude_and_shape():
    spec = FAMILIES["burgers"]
    rng = np.random.default_rng(3)
    for _ in range(20):
        u0 = sample_ic(spec, rng)
        assert u0.shape == (128,)
        assert abs(np.max(np.abs(u0)) - 1.0) <= 1e-12


def test_fourier_profile_pure_mode():
    xs = grid_for(FAMILIES["burgers"]).cells()
    u = fourier_profile(xs, [1.0], [0.0], 1.0)
    assert np.allclose(u, np.sin(2 * np.pi * xs), atol=1e-12)


def test_fourier_profile_is_periodic():
    xs = np.array([0.0, 0.123, 0.5])
    amps = [0.3, -0.2, 0.1, 0.4, -0.5]
    phases = [0.1, 1.2, 2.3, 3.4, 4.5]
    left = fourier_profile(xs, amps, phases, 1.0)
    right = fourier_profile(xs + 1.0, amps, phases, 1.0)
    assert np.allclose(left, right, atol=1e-9)


def test_generate_counts_headers_and_reproducibility(tmp_path):
    manifest = DatasetManifest(
        families=list(FAMILIES), params_per_family=4, ics_per_param=2, seed=7
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    index = generate(manifest, out_a)
    assert len(index["entries"]) == 6 * 4 * 2
    eq_files = sorted(out_a.glob("eq_*.json"))
    traj_files = sorted(out_a.glob("traj_*.grid"))
    assert len(eq_files) == 48 and len(traj_files) == 48
    assert (out_a / "manifest.json").exists()

    field = read_grid_file(traj_files[0])
    assert field.times.size == 32 and field.grid.nx == 128
    # first 16 frames cover the input half-window
    assert field.times[15] <= 0.5 < field.times[16]

    generate(manifest, out_b)
    for name in sorted(p.name for p in out_a.iterdir()):
        ha = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((out_b / name).read_bytes()).hexdigest()
        assert ha == hb, name


def test_generated_equations_reproduce_trajectories_bit_exactly(tmp_path):
    """Each family is solved as one batch; every trajectory equals its row
    solved alone."""
    manifest = DatasetManifest(
        families=list(FAMILIES), params_per_family=2, ics_per_param=2, seed=11,
    )
    index = generate(manifest, tmp_path)
    assert len(index["entries"]) == 6 * 2 * 2
    for entry in index["entries"]:
        record = json.loads((tmp_path / entry["equation"]).read_text())
        field = read_grid_file(tmp_path / entry["trajectory"])
        spec = FAMILIES[entry["family"]]
        law = law_for(spec, record["q1"], record["q2"])
        again = solve(law, field.values[0], field.grid, spec.t_f, spec.nt)
        assert np.array_equal(again.values, field.values)
        # stored canonical tokens decode to an equation with the same law
        seq = TokenSeq(Dialect.CANONICAL, tuple(record["canonical_tokens"]))
        law2 = law_from_equation(from_tokens(seq))
        assert law2 == law
        assert 0.9 * spec.q1 <= record["q1"] <= 1.1 * spec.q1


def test_blown_up_rows_are_skipped_and_batch_mates_kept(tmp_path, monkeypatch, caplog):
    manifest = DatasetManifest(
        families=["inviscid_burgers", "burgers"], params_per_family=2,
        ics_per_param=2, seed=3,
    )
    generate(manifest, tmp_path / "plain")
    draws = []

    def second_draw_overflows(spec, rng):
        q1, q2 = sample_params(spec, rng)
        draws.append(spec.name)
        return (1e308, q2) if len(draws) in (2, 3) else (q1, q2)

    monkeypatch.setattr(datagen, "sample_params", second_draw_overflows)
    with caplog.at_level(logging.WARNING, logger="pdesym.datagen"):
        index = generate(manifest, tmp_path / "blown")
    skipped = ["inviscid_burgers_001_000", "inviscid_burgers_001_001",
               "burgers_000_000", "burgers_000_001"]
    assert [f"skipping {i}: solver state blew up" for i in skipped] == caplog.messages
    kept = [e["id"] for e in index["entries"]]
    assert kept == ["inviscid_burgers_000_000", "inviscid_burgers_000_001",
                    "burgers_001_000", "burgers_001_001"]
    for entry in index["entries"]:
        for name in (entry["equation"], entry["trajectory"]):
            assert (tmp_path / "blown" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "blown").iterdir()) == sorted(
        [f"{kind}_{i}.{ext}" for i in kept for kind, ext in (("eq", "json"), ("traj", "grid"))]
        + ["manifest.json"]
    )


def test_equation_record_infix_reparses(tmp_path):
    from pdesym.datagen import equation_record
    from pdesym.expr import parse_infix

    spec = FAMILIES["burgers"]
    record = equation_record("x", spec, 0.512, 0.0461)
    eq = parse_infix(record["infix"])
    assert law_from_equation(eq) == law_for(spec, 0.512, 0.0461)


def test_train_and_test_splits_use_disjoint_streams(tmp_path):
    train = DatasetManifest(
        families=["burgers"], params_per_family=1, ics_per_param=1, seed=0,
        split="train",
    )
    test = DatasetManifest(
        families=["burgers"], params_per_family=1, ics_per_param=1, seed=0,
        split="test",
    )
    ia = generate(train, tmp_path / "train")
    ib = generate(test, tmp_path / "test")
    assert ia["entries"][0]["q1"] != ib["entries"][0]["q1"]


def test_manifest_validation():
    with pytest.raises(ValueError):
        DatasetManifest(params_per_family=0)
    with pytest.raises(ValueError):
        DatasetManifest(split="validation")
    with pytest.raises(ValueError):
        DatasetManifest(families=["unknown"])
