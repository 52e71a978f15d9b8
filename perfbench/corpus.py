"""Seeded equation corpus and the per-equation symbolic pipeline.

Every template is a family equation with jittered coefficients, written
either in flux form (``u_t + q1*(u^2)_x - q2*u_xx``) or as the expanded
product the metrics module also accepts (``u_t + 2 q1*u*u_x - ...``). Each
template contributes six corpus members:

* ``plain`` -- the template itself;
* ``swap``, ``noise``, ``mask`` -- the template passed through
  ``swap_branches``, ``inject_noise_term`` or ``mask_coefficients``; the
  perturbation runs inside the timed per-equation work;
* ``split2``, ``split3`` -- the flux term split into two or three like
  terms whose coefficients are three-digit decimals (not dyadic). The
  matching ``unsplit`` equation carries the exact sum of those
  coefficients rounded once, so an order-independent canonicalizer maps
  both to the same tokens.

The pipeline parses and prints infix, serializes both token dialects,
decodes the canonical tokens and checks ``equivalent``. Typed errors the
grammar documents (``UnsupportedNode`` for placeholders in infix and for
composite flux derivatives in the manual dialect) are expected outcomes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from pdesym import canon, datagen, expr, metrics, perturb, tokens
from pdesym.errors import UnsupportedNode

# expanded flux products and the factor that turns q1 into their coefficient
_PRODUCTS = {
    "quadratic": ("u*u_x", 2.0),
    "cubic": ("u^2*u_x", 3.0),
    "sine": ("cos(u)*u_x", 1.0),
}
_FLUX = {"quadratic": "(u^2)_x", "cubic": "(u^3)_x", "sine": "(sin(u))_x"}


@dataclass(frozen=True)
class Member:
    kind: str
    template: expr.Equation
    eq: expr.Equation | None = None  # prebuilt plain/split equation
    seed: int = 0  # perturbation seed
    unsplit: expr.Equation | None = None


@dataclass
class Outcome:
    eq: expr.Equation
    parsed: expr.Equation
    manual: tokens.TokenSeq | None
    canonical: tokens.TokenSeq
    round_trip: bool


def _equation(coeffs: list[float], term: str, q2: float) -> expr.Equation:
    src = "u_t" + "".join(f" + {c!r}*{term}" for c in coeffs)
    if q2 != 0.0:
        src += f" - {q2!r}*u_xx"
    return expr.parse_infix(src + " = 0")


def build(families, size: int, rng) -> list[Member]:
    """Draw templates from ``families`` at random until ``size`` members exist."""
    members: list[Member] = []
    while len(members) < size:
        spec = datagen.FAMILIES[families[rng.integers(len(families))]]
        q1, q2 = datagen.sample_params(spec, rng)
        if rng.random() < 0.5:
            term, scale = _PRODUCTS[spec.flux_kind]
            coeff = q1 * scale
        else:
            term, coeff = _FLUX[spec.flux_kind], q1
        template = _equation([coeff], term, q2)
        seed = int(rng.integers(2**31))
        members += [
            Member("plain", template, eq=template),
            Member("swap", template, seed=seed),
            Member("noise", template, seed=seed),
            Member("mask", template),
        ]
        for k in (2, 3):
            parts = [tokens.round_sig3(coeff * w) for w in rng.uniform(0.15, 0.45, k - 1)]
            parts.append(tokens.round_sig3(coeff - sum(parts)))
            rng.shuffle(parts)
            exact = float(sum(Fraction(p) for p in parts))
            members.append(Member(
                f"split{k}", template, eq=_equation(parts, term, q2),
                unsplit=_equation([exact], term, q2),
            ))
    return members[:size]


def variant(m: Member) -> expr.Equation:
    if m.kind == "swap":
        return perturb.swap_branches(m.template, perturb.PerturbConfig(seed=m.seed))
    if m.kind == "noise":
        cfg = perturb.PerturbConfig(seed=m.seed)
        return perturb.inject_noise_term(m.template, cfg).equation
    if m.kind == "mask":
        return perturb.mask_coefficients(m.template)
    return m.eq


def process(m: Member) -> Outcome:
    """The timed per-equation work."""
    eq = variant(m)
    try:
        parsed = expr.parse_infix(expr.to_infix(eq.residual) + " = 0")
    except UnsupportedNode:  # placeholders have no infix form
        parsed = eq
    try:
        manual = tokens.to_manual_tokens(parsed)
    except UnsupportedNode:  # composite flux derivatives have no shorthand
        manual = None
    canonical = tokens.to_canonical_tokens(parsed)
    decoded = tokens.from_tokens(canonical)
    return Outcome(eq, parsed, manual, canonical, canon.equivalent(decoded, parsed))


def check(m: Member, out: Outcome) -> str | None:
    """Name of the first failed output check, or None."""
    if not out.round_trip:
        return "canonical tokens do not decode to an equivalent equation"
    if out.parsed != out.eq:
        return "infix does not reparse to the same tree"
    if out.manual is not None and tokens.from_tokens(out.manual) != out.parsed:
        return "manual tokens do not decode to the same tree"
    if m.kind == "swap" and not canon.equivalent(out.eq, m.template):
        return "swap_branches changed the equation"
    return None


def order_mismatch(m: Member, out: Outcome) -> bool:
    """True when a like-term split tokenizes differently from its unsplit twin."""
    return out.canonical.tokens != tokens.to_canonical_tokens(m.unsplit).tokens


@dataclass
class Block:
    latencies: list  # per-equation seconds
    outcomes: list
    symerr_s: list  # per-call symbolic_error seconds
    symerr_values: list
    wall_s: float


def run(members, n_symerr: int) -> Block:
    """Process every member, then score ``n_symerr`` of them with
    ``symbolic_error`` against their template.

    Per-equation and per-call times are this thread's CPU time. It equals
    wall time except while the thread is not running, so the tail is not
    set by the host taking the CPU away in bursts. ``wall_s`` is the
    block's wall time.
    """
    start = time.perf_counter()
    latencies, outcomes = [], []
    for m in members:
        t0 = time.thread_time()
        out = process(m)
        latencies.append(time.thread_time() - t0)
        outcomes.append(out)
    scored = [(m, o) for m, o in zip(members, outcomes) if m.kind != "mask"]
    stride = max(1, len(scored) // max(1, n_symerr))
    symerr_s, values = [], []
    for i, (m, out) in enumerate(scored[::stride][:n_symerr]):
        t0 = time.thread_time()
        values.append(metrics.symbolic_error(out.eq, m.template, seed=i))
        symerr_s.append(time.thread_time() - t0)
    return Block(latencies, outcomes, symerr_s, values, time.perf_counter() - start)
