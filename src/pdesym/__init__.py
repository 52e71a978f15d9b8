"""Symbolic PDE tokenization, canonicalization, perturbation settings,
conservation-law solving, SMC coefficient refinement, metrics and dataset
generation."""

from .canon import canonical_key, canonicalize, equivalent
from .datagen import (
    FAMILIES,
    DatasetManifest,
    FamilySpec,
    equation_for,
    generate,
    grid_for,
    law_for,
    sample_ic,
    sample_params,
)
from .errors import (
    AllWeightsDegenerate,
    DecodeError,
    DegenerateReference,
    DivisionByZero,
    MalformedFile,
    NonFiniteState,
    NotSolvable,
    ParseError,
    PdesymError,
    UnknownSymbol,
    UnsupportedNode,
    ZeroCoefficient,
)
from .expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Equation,
    Expr,
    Field,
    Int,
    Placeholder,
    Unary,
    Var,
    parse_infix,
    to_infix,
)
from .metrics import (
    law_from_equation,
    r2_score,
    rel_l2,
    symbolic_error,
    time_series_error,
    valid_fraction,
)
from .perturb import (
    NOISE_TERMS,
    NoiseInjection,
    PerturbConfig,
    inject_noise_term,
    mask_coefficients,
    swap_branches,
)
from .smc import (
    FilterConfig,
    ObservationSeq,
    ParticleEnsemble,
    RefineResult,
    discrete_l2,
    init_ensemble,
    propagate,
    refine,
    resample,
    reweight,
)
from .solver import (
    ConservationLaw,
    Grid1D,
    SpaceTimeField,
    read_grid_file,
    solve,
    write_grid_file,
)
from .study import STUDY_FAMILIES, StudyRow, run_study
from .tokens import (
    Dialect,
    TokenSeq,
    format_sig3,
    from_tokens,
    round_sig3,
    to_canonical_tokens,
    to_manual_tokens,
)

__version__ = "0.1.0"
