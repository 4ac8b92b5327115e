"""Finite-data secure key rates for four-intensity MDI-QKD with source errors."""

__version__ = "0.1.0"

from .channel_sim import (
    ChannelParams,
    MonteCarloYield,
    PairObservables,
    build_observables,
    monte_carlo_yield,
    pair_yield,
    side_transmittance,
    validate_model,
)
from .keyrate_core import (
    AnalysisInfeasible,
    AnalysisInputs,
    KeyRateReport,
    RateCurve,
    SolverError,
    binary_entropy,
    rate_function,
    secure_key_rate,
)
from .optimizer import OptimizationProblem, OptimizationResult, evaluate, optimize
from .source_model import (
    DecoyConditionReport,
    PhotonCoeffBounds,
    SideSources,
    SourceEnsemble,
    check_decoy_conditions,
    coeff_bounds,
    poisson_coeff,
)
from .stat_bounds import (
    ChernoffConfig,
    chernoff_lower,
    chernoff_upper,
    combo_lower,
    combo_upper,
)

__all__ = [
    "AnalysisInfeasible",
    "AnalysisInputs",
    "ChannelParams",
    "ChernoffConfig",
    "DecoyConditionReport",
    "KeyRateReport",
    "MonteCarloYield",
    "OptimizationProblem",
    "OptimizationResult",
    "PairObservables",
    "PhotonCoeffBounds",
    "RateCurve",
    "SideSources",
    "SolverError",
    "SourceEnsemble",
    "binary_entropy",
    "build_observables",
    "check_decoy_conditions",
    "chernoff_lower",
    "chernoff_upper",
    "coeff_bounds",
    "combo_lower",
    "combo_upper",
    "evaluate",
    "monte_carlo_yield",
    "optimize",
    "pair_yield",
    "poisson_coeff",
    "rate_function",
    "secure_key_rate",
    "side_transmittance",
    "validate_model",
]
