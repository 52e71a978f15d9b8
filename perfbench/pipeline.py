"""gen -> refine -> eval, through the ``pdesym`` CLI or the library.

The timed runs call the CLI (``python -m pdesym.cli``), as a user does.
The traced run calls the library functions the CLI handlers call, so that
spans can be recorded around them; there ``refine`` is rebuilt from
``init_ensemble -> propagate -> reweight -> resample`` sharing one
generator, exactly as ``smc.refine`` runs it.

Every operation's output is checked; a failed check is returned as a
message for the caller to count.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pdesym import canon, datagen, expr, metrics, smc, solver, tokens
from pdesym.errors import PdesymError
from pdesym.tokens import Dialect, TokenSeq

CLI_TIMEOUT_S = 150
MASS_DRIFT_MAX = 1e-12  # the acceptance suite's conservation gate


class Op:
    """Outcome of one timed operation."""

    def __init__(self, kind: str, seconds: float, error: str | None = None, **data):
        self.kind, self.seconds, self.error, self.data = kind, seconds, error, data


class Runner:
    """Runs operations through the CLI (``lib=False``) or the library.

    With a tracer, refine is rebuilt step by step and ``bench.*`` spans
    wrap each operation.
    """

    def __init__(self, root: Path, lib: bool, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.root = root

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def _call(self, lib_fn, cli_args: list[str]):
        """Run one operation; returns (seconds, payload dict or error message).

        The library path turns the errors the CLI reports as exit codes 2
        and 3 into an error message too.
        """
        kind = cli_args[0]
        if not self.lib:
            return self._cli(*cli_args)
        with self.span(f"bench.{kind}"):
            t0 = time.perf_counter()
            try:
                payload = lib_fn()
            except (PdesymError, ValueError, KeyError, OSError) as exc:
                payload = f"{kind}: {type(exc).__name__}: {exc}"
            return time.perf_counter() - t0, payload

    def _cli(self, *args: str):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pdesym.cli", *args], cwd=self.root,
                env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"{args[0]}: timed out"
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            return seconds, f"{args[0]}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        try:
            return seconds, json.loads(proc.stdout)
        except ValueError:
            return seconds, f"{args[0]}: stdout is not JSON: {proc.stdout[:300]!r}"

    def gen(self, outdir: Path, families, params: int, ics: int, seed: int) -> Op:
        def lib():
            datagen.generate(datagen.DatasetManifest(list(families), params, ics, seed), outdir)
            return {}

        seconds, out = self._call(lib, [
            "gen", "--out", str(outdir), "--families", ",".join(families),
            "--params", str(params), "--ics", str(ics), "--seed", str(seed),
        ])
        if isinstance(out, str):
            return Op("gen", seconds, out)
        # the dataset is checked after the unit, outside any trace
        return Op("gen", seconds, outdir=outdir, expected=len(families) * params * ics)

    def refine(self, eq_path: Path, traj_path: Path, alpha0: np.ndarray,
               cfg: smc.FilterConfig) -> Op:
        def lib():
            record = datagen.load_equation_record(eq_path)
            field = solver.read_grid_file(traj_path)
            obs = smc.ObservationSeq.from_field(field, n_frames=cfg.steps + 1)
            law = datagen.law_from_record(record)
            if self.tracer:
                return refine_rebuilt(alpha0, obs, law, cfg, self.tracer)
            result = smc.refine(alpha0, obs, law, cfg)
            return {"refined_coefficients": result.alpha, "ess_per_step": result.ess}

        seconds, out = self._call(lib, [
            "refine", "--equation", str(eq_path), "--observations", str(traj_path),
            "--alpha0", ",".join(repr(float(a)) for a in alpha0),
            "--particles", str(cfg.particles), "--steps", str(cfg.steps),
            "--seed", str(cfg.seed),
        ])
        if isinstance(out, str):
            return Op("refine", seconds, out)
        alpha = np.array(out.pop("refined_coefficients", []), dtype=float)
        ess = np.array(out.pop("ess_per_step", []), dtype=float)
        error = None
        if alpha.shape != alpha0.shape or not np.all(np.isfinite(alpha)):
            error = f"refine: non-finite or misshapen coefficients {alpha!r}"
        elif ess.size != cfg.steps or not np.all(np.isfinite(ess) & (ess > 0)):
            error = f"refine: bad ESS {ess!r}"
        return Op("refine", seconds, error, alpha=alpha, ess=ess, **out)

    def eval(self, eq_path: Path, traj_path: Path, learned: TokenSeq, seed: int) -> Op:
        def lib():
            truth = datagen.load_equation_record(eq_path)
            spec = datagen.FAMILIES[truth["family"]]
            eq_true = datagen.equation_for(spec, truth["q1"], truth["q2"])
            eq_learned = tokens.from_tokens(learned)
            field = solver.read_grid_file(traj_path)
            return {
                "symbolic_error": metrics.symbolic_error(eq_learned, eq_true, seed=seed),
                "time_series_error": metrics.time_series_error(
                    eq_learned, field.values[0], field),
            }

        seconds, out = self._call(lib, [
            "eval", "--truth", str(eq_path), "--learned-tokens", learned.text,
            "--trajectory", str(traj_path), "--seed", str(seed),
        ])
        if isinstance(out, str):
            return Op("eval", seconds, out)
        sym, ts = out.get("symbolic_error"), out.get("time_series_error")
        ok = all(isinstance(v, float) and math.isfinite(v) for v in (sym, ts))
        return Op("eval", seconds, None if ok else f"eval: non-finite errors {sym!r}, {ts!r}")


def refine_rebuilt(alpha0, obs: smc.ObservationSeq, law, cfg: smc.FilterConfig, tracer):
    """``smc.refine`` step by step; returns the refine payload plus the
    per-step useful-work ratios.

    Uses the same calls in the same order with one shared generator, so the
    refined coefficients are bit-identical to ``smc.refine(...).alpha``.
    """
    with tracer.span("smc.refine"):
        alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
        rng = np.random.default_rng(cfg.seed)
        ens = smc.init_ensemble(alpha0, cfg, rng)
        ref_norm = smc.discrete_l2(obs.states[0], obs.grid.dx)
        ess = np.empty(cfg.steps)
        live, unique = [], []
        for k in range(1, cfg.steps + 1):
            ens = smc.propagate(ens, cfg, rng)
            ens = smc.reweight(
                ens, obs.states[k - 1], obs.states[k], law, cfg,
                float(obs.times[k] - obs.times[k - 1]), obs.grid, ref_norm,
            )
            ess[k - 1] = 1.0 / float(np.sum(ens.weights**2))
            live.append(np.count_nonzero(ens.weights) / ens.size)
            ens = smc.resample(ens, cfg, rng)
            unique.append(np.unique(ens.particles, axis=0).shape[0] / ens.size)
        alpha = ens.mean()
    return {
        "refined_coefficients": alpha,
        "ess_per_step": ess,
        "live_frac": float(np.mean(live)),
        "unique_frac": float(np.mean(unique)),
        "ess_frac": float(np.min(ess)) / cfg.particles,
    }


# -- output checks -----------------------------------------------------------

def check_grid_file(path: Path, inviscid: bool) -> str | None:
    """Independent PDEGRID1 reader: header, size, finite values, mass drift."""
    data = path.read_bytes()
    if data[:8] != b"PDEGRID1" or len(data) < 12:
        return f"{path.name}: bad magic"
    (hlen,) = struct.unpack_from("<I", data, 8)
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
        nt, nx, times, dx = header["nt"], header["nx"], header["t"], header["dx"]
    except (ValueError, KeyError) as exc:
        return f"{path.name}: bad header ({exc})"
    if len(times) != nt or len(data) != 12 + hlen + 8 * nt * nx or dx <= 0:
        return f"{path.name}: header does not match the payload"
    values = np.frombuffer(data, dtype="<f8", offset=12 + hlen).reshape(nt, nx)
    if not np.all(np.isfinite(values)) or not np.all(np.diff(times) > 0):
        return f"{path.name}: non-finite values or unordered times"
    if inviscid:
        mass = values.sum(axis=1) * dx
        drift = float(np.max(np.abs(mass - mass[0]))) / (1.0 + abs(float(mass[0])))
        if drift > MASS_DRIFT_MAX:
            return f"{path.name}: mass drift {drift:.3e}"
    return None


def check_dataset(outdir: Path, expected: int) -> str | None:
    try:
        entries = json.loads((outdir / "manifest.json").read_text())["entries"]
    except (OSError, ValueError, KeyError) as exc:
        return f"gen: unreadable manifest ({exc})"
    if len(entries) != expected:
        return f"gen: {len(entries)} manifest entries, expected {expected}"
    for entry in entries:
        spec = datagen.FAMILIES[entry["family"]]
        error = check_grid_file(outdir / entry["trajectory"], spec.q2 == 0.0)
        if error:
            return "gen: " + error
        record = datagen.load_equation_record(outdir / entry["equation"])
        decoded = tokens.from_tokens(
            TokenSeq(Dialect.CANONICAL, tuple(record["canonical_tokens"]))
        )
        if not canon.equivalent(decoded, expr.parse_infix(record["infix"])):
            return f"gen: {entry['equation']}: tokens and infix disagree"
    return None
