"""Lattice decoding toolkit and fading-channel simulation harness.

The package provides regularized lattice decoding with decision-feedback
preprocessing, basis-reduction-aided suboptimal decoders with certified
approximation ratios, fading-channel samplers, and a Monte Carlo engine
that estimates error-rate diversity slopes against reference curves.
"""

from .channels import (
    ArqEpisode,
    NoiseModel,
    arq_ack,
    complex_gaussian,
    embed_complex,
    fixed_channel,
    sample_mimo_ofdm,
    sample_naf_relay,
    sample_noise,
    sample_quasi_static_rayleigh,
    simulate_arq_episode,
    standard_normal,
    trial_rng,
)
from .decoders import (
    DEFAULT_NODE_BUDGET,
    METHOD_LR_LINEAR,
    METHOD_LR_SIC,
    METHOD_ML,
    METHOD_NAIVE,
    METHOD_REG_EXACT,
    METHODS,
    ChannelStage,
    DecodeGate,
    DecodeOutcome,
    LatticeDecodeResult,
    RegularizedProblem,
    approximation_ratio,
    babai_nearest_plane,
    decode,
    detect,
    lr_aided_linear,
    ml_decode,
    mmse_gdfe_filters,
    naive_lattice_decode,
    prepare,
    regularized_metric,
    sphere_decode_regularized,
)
from .dmtsim import (
    ChannelConfig,
    ErrorRateRecord,
    OutageEstimate,
    SlopeEstimate,
    SweepConfig,
    SweepResult,
    dmt_reference_breakpoints,
    dmt_reference_value,
    estimate_diversity_slope,
    estimate_outage_probability,
    run_sweep,
    sweep_cell,
    wilson_interval,
)
from .errors import (
    BudgetExceeded,
    EnumerationOverflow,
    InsufficientData,
    IterationOverflow,
    LatdecError,
    MetricMismatch,
    NearSingularChannel,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    SchemaError,
    SingularTriangular,
)
from .experiment import load_experiment, parse_experiment
from .lattice import (
    Codebook,
    LatticeDesign,
    ShapingRegion,
    enumerate_codebook,
    random_dither,
    round_half_away_from_zero,
    scaling_factor,
)
from .reduction import (
    GateOutcome,
    ReducedBasis,
    gate_exponent_default,
    gated_reduce,
    integer_det,
    is_lll_reduced,
    iteration_bound,
    iteration_bound_for_kappa,
    lll_reduce,
)
from .validation import run_suites

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LatdecError", "NotSymmetric", "NotPositiveDefinite", "RankDeficient",
    "SingularTriangular", "MetricMismatch", "BudgetExceeded",
    "EnumerationOverflow", "IterationOverflow", "NearSingularChannel",
    "InsufficientData", "SchemaError",
    # lattice
    "ShapingRegion", "LatticeDesign", "Codebook", "round_half_away_from_zero",
    "scaling_factor", "enumerate_codebook", "random_dither",
    # reduction
    "ReducedBasis", "GateOutcome", "lll_reduce", "is_lll_reduced",
    "iteration_bound", "iteration_bound_for_kappa", "gate_exponent_default",
    "gated_reduce", "integer_det",
    # decoders
    "METHODS", "METHOD_ML", "METHOD_NAIVE", "METHOD_REG_EXACT",
    "METHOD_LR_SIC", "METHOD_LR_LINEAR", "DEFAULT_NODE_BUDGET",
    "DecodeGate", "RegularizedProblem", "LatticeDecodeResult",
    "DecodeOutcome", "mmse_gdfe_filters", "regularized_metric", "ml_decode",
    "sphere_decode_regularized", "naive_lattice_decode", "babai_nearest_plane",
    "lr_aided_linear", "approximation_ratio", "ChannelStage", "prepare",
    "detect", "decode",
    # channels
    "NoiseModel", "ArqEpisode", "trial_rng", "standard_normal",
    "complex_gaussian", "embed_complex",
    "sample_quasi_static_rayleigh", "sample_mimo_ofdm", "sample_naf_relay",
    "fixed_channel", "arq_ack", "simulate_arq_episode", "sample_noise",
    # dmtsim
    "ChannelConfig", "SweepConfig", "ErrorRateRecord", "SlopeEstimate",
    "OutageEstimate", "SweepResult", "wilson_interval",
    "sweep_cell", "estimate_outage_probability", "estimate_diversity_slope",
    "run_sweep", "dmt_reference_breakpoints", "dmt_reference_value",
    # experiment / validation
    "load_experiment", "parse_experiment", "run_suites",
]
