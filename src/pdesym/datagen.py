"""Dataset generation for the six conservation-law families.

For each family the generator first draws every (parameter draw, initial
condition) row, each from its own ``SeedSequence`` stream, then solves all
the rows on the family grid as one ensemble (``solver.solve_ensemble``;
each row is bit-identical to that row solved alone). It writes one
``traj_<id>.grid`` trajectory (PDEGRID1) and one ``eq_<id>.json`` equation
file per row that stayed finite, skipping with a warning any row that blew
up, and finally an index ``manifest.json``. Output is fully deterministic
given the manifest seed; regenerating produces byte-identical files.

Coefficients are jittered by Unif(0.9, 1.1) per nonzero base value and
rounded to three significant digits, matching the float-token grid of the
canonical serializer. Initial conditions are random five-mode Fourier
profiles rescaled to unit amplitude.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import MalformedFile
from .expr import FIELD, Binary, Const, Deriv, Equation, Expr, to_infix
from .solver import (
    FLUXES,
    ConservationLaw,
    Grid1D,
    SpaceTimeField,
    _finite,
    solve_ensemble,
    write_grid_file,
)
from .tokens import round_sig3, to_canonical_tokens

logger = logging.getLogger(__name__)

_SPLIT_CODES = {"train": 0, "test": 1}
DEFAULT_COUNTS = {"train": (64, 8), "test": (16, 4)}


@dataclass(frozen=True)
class FamilySpec:
    name: str
    flux_kind: str
    q1: float
    q2: float
    t_f: float = 1.0
    x_f: float = 1.0
    nx: int = 128
    nt: int = 32


FAMILIES = {
    spec.name: spec
    for spec in (
        FamilySpec("burgers", "quadratic", 0.5, 0.05),
        FamilySpec("inviscid_burgers", "quadratic", 0.5, 0.0),
        FamilySpec("cl_cubic", "cubic", 0.33, 0.05),
        FamilySpec("icl_cubic", "cubic", 0.33, 0.0),
        FamilySpec("cl_sine", "sine", 1.0, 0.05),
        FamilySpec("icl_sine", "sine", 1.0, 0.0),
    )
}


@dataclass
class DatasetManifest:
    families: list[str] = field(default_factory=lambda: list(FAMILIES))
    params_per_family: int = 4
    ics_per_param: int = 2
    seed: int = 0
    split: str = "train"

    def __post_init__(self):
        if self.params_per_family < 1 or self.ics_per_param < 1:
            raise ValueError("counts must be >= 1")
        if self.split not in _SPLIT_CODES:
            raise ValueError(f"split must be one of {sorted(_SPLIT_CODES)}")
        check_families(self.families)


def check_families(names) -> None:
    """Raise ``ValueError`` for a name in ``names`` that is not in
    :data:`FAMILIES` or that comes twice, since one entry would overwrite
    the other's output."""
    for i, name in enumerate(names):
        if name not in FAMILIES:
            raise ValueError(f"unknown family {name!r}; known families: {', '.join(FAMILIES)}")
        if name in names[:i]:
            raise ValueError(f"family {name!r} is named twice")


def json_text(obj) -> str:
    """``obj`` as the JSON text of every file and report pdesym writes:
    indented, keys sorted, non-ASCII kept, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def grid_for(spec: FamilySpec) -> Grid1D:
    return Grid1D(nx=spec.nx, dx=spec.x_f / spec.nx)


def law_for(spec: FamilySpec, q1: float, q2: float) -> ConservationLaw:
    return ConservationLaw(spec.flux_kind, q1, q2)


def equation_for(spec: FamilySpec, q1: float, q2: float) -> Equation:
    """Residual u_t + q1*(f(u))_x - q2*u_xx as an expression tree."""
    residual: Expr = Binary(
        "add",
        Deriv(FIELD, "t", 1),
        Binary("mul", Const(q1), Deriv(FLUXES[spec.flux_kind].expr, "x", 1)),
    )
    if q2 != 0.0:
        residual = Binary(
            "sub", residual, Binary("mul", Const(q2), Deriv(FIELD, "x", 2))
        )
    return Equation(residual)


def coeff_vector(q1: float, q2: float) -> np.ndarray:
    """The coefficients the filter refines: (q1, q2) for a viscous law,
    (q1,) for an inviscid one."""
    return np.array([q1, q2]) if q2 != 0.0 else np.array([q1])


def equation_from_vector(spec: FamilySpec, alpha: np.ndarray) -> Equation:
    """Inverse of :func:`coeff_vector` for a family's residual."""
    q1 = float(alpha[0])
    q2 = float(alpha[1]) if alpha.size > 1 else 0.0
    return equation_for(spec, q1, q2)


def sample_params(spec: FamilySpec, rng) -> tuple[float, float]:
    """Jitter each nonzero base coefficient by Unif(0.9, 1.1), 3 sig digits."""
    q1 = round_sig3(spec.q1 * rng.uniform(0.9, 1.1)) if spec.q1 != 0.0 else 0.0
    q2 = round_sig3(spec.q2 * rng.uniform(0.9, 1.1)) if spec.q2 != 0.0 else 0.0
    return q1, q2


def fourier_profile(xs: np.ndarray, amps, phases, x_f: float) -> np.ndarray:
    u = np.zeros_like(xs)
    for j, (a, phi) in enumerate(zip(amps, phases), start=1):
        u = u + a * np.sin(2.0 * np.pi * j * xs / x_f + phi)
    return u


def sample_ic(spec: FamilySpec, rng) -> np.ndarray:
    """Random five-mode profile rescaled so max|u0| = 1."""
    xs = grid_for(spec).cells()
    while True:
        amps = rng.uniform(-0.5, 0.5, 5)
        phases = rng.uniform(0.0, 2.0 * np.pi, 5)
        u0 = fourier_profile(xs, amps, phases, spec.x_f)
        peak = float(np.max(np.abs(u0)))
        if peak > 1e-12:
            return u0 / peak


def equation_record(entry_id: str, spec: FamilySpec, q1: float, q2: float) -> dict:
    eq = equation_for(spec, q1, q2)
    return {
        "id": entry_id,
        "family": spec.name,
        "flux_kind": spec.flux_kind,
        "q1": q1,
        "q2": q2,
        "t_f": spec.t_f,
        "x_f": spec.x_f,
        "infix": f"{to_infix(eq.residual)} = 0",
        "canonical_tokens": list(to_canonical_tokens(eq).tokens),
    }


def generate(manifest: DatasetManifest, outdir) -> dict:
    """Write the dataset directory and return the index mapping."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    split_code = _SPLIT_CODES[manifest.split]
    for fam_idx, name in enumerate(manifest.families):
        spec = FAMILIES[name]
        grid = grid_for(spec)
        rows = []  # (entry id, q1, q2, u0) of every draw of the family
        for p in range(manifest.params_per_family):
            seq = np.random.SeedSequence((manifest.seed, split_code, fam_idx, p))
            children = seq.spawn(1 + manifest.ics_per_param)
            q1, q2 = sample_params(spec, np.random.default_rng(children[0]))
            for i in range(manifest.ics_per_param):
                u0 = sample_ic(spec, np.random.default_rng(children[1 + i]))
                rows.append((f"{name}_{p:03d}_{i:03d}", q1, q2, u0))
        ids, q1s, q2s, u0s = zip(*rows)
        times, values, ok = solve_ensemble(
            spec.flux_kind, np.array(q1s), np.array(q2s), np.array(u0s), grid,
            spec.t_f, spec.nt,
        )
        for entry_id, q1, q2, traj, row_ok in zip(ids, q1s, q2s, values, ok):
            if not row_ok:
                logger.warning("skipping %s: solver state blew up", entry_id)
                continue
            record = equation_record(entry_id, spec, q1, q2)
            eq_path = outdir / f"eq_{entry_id}.json"
            traj_path = outdir / f"traj_{entry_id}.grid"
            eq_path.write_text(json_text(record), encoding="utf-8")
            write_grid_file(SpaceTimeField(grid, times, traj), traj_path)
            entries.append(
                {
                    "id": entry_id,
                    "family": name,
                    "q1": q1,
                    "q2": q2,
                    "equation": eq_path.name,
                    "trajectory": traj_path.name,
                }
            )
    index = {
        "seed": manifest.seed,
        "split": manifest.split,
        "families": list(manifest.families),
        "params_per_family": manifest.params_per_family,
        "ics_per_param": manifest.ics_per_param,
        "entries": entries,
    }
    (outdir / "manifest.json").write_text(json_text(index), encoding="utf-8")
    return index


def load_equation_record(path) -> dict:
    """An equation record as :func:`equation_record` writes it. Raises
    :class:`MalformedFile` naming the file, and the field where there is
    one, unless the file is UTF-8 JSON, not nested too deep to read, for an
    object with a known ``family``, that family's ``flux_kind``, and finite
    numbers ``q1`` and ``q2 >= 0``."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError):  # invalid UTF-8 or JSON, or too deep
        raise MalformedFile(f"{path}: not a JSON equation record") from None
    if not isinstance(record, dict):
        raise MalformedFile(f"{path}: an equation record must be a JSON object")
    family = record.get("family")
    if not (isinstance(family, str) and family in FAMILIES):
        raise MalformedFile(f"{path}: 'family' must be one of {sorted(FAMILIES)}")
    if record.get("flux_kind") != FAMILIES[family].flux_kind:
        raise MalformedFile(f"{path}: 'flux_kind' must be {FAMILIES[family].flux_kind!r}")
    for key in ("q1", "q2"):
        if not _finite(record.get(key)):
            raise MalformedFile(f"{path}: {key!r} must be a finite number")
    if record["q2"] < 0:
        raise MalformedFile(f"{path}: 'q2' must be >= 0")
    return record


def law_from_record(record: dict) -> ConservationLaw:
    return ConservationLaw(record["flux_kind"], record["q1"], record["q2"])


def equation_from_record(record: dict) -> Equation:
    return equation_for(FAMILIES[record["family"]], record["q1"], record["q2"])
