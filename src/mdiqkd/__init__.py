"""Finite-data secure key rates for four-intensity MDI-QKD with source errors.

Each public name is imported from its module the first time it is read
(PEP 562), so a command loads only the modules it runs: only
``validate-model`` imports numpy, for the Monte Carlo.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("channel_sim", "ChannelParams MonteCarloYield PairObservables build_observables monte_carlo_yield pair_yield side_transmittance validate_model"),
        ("keyrate_core", "AnalysisInfeasible AnalysisInputs KeyRateReport RateCurve SolverError binary_entropy rate_function secure_key_rate"),
        ("optimizer", "OptimizationProblem OptimizationResult evaluate optimize"),
        ("source_model", "DecoyConditionReport PhotonCoeffBounds SideSources SourceEnsemble check_decoy_conditions coeff_bounds poisson_coeff"),
        ("stat_bounds", "ChernoffConfig chernoff_lower chernoff_upper combo_group combo_lower combo_upper"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Read through to the home module on every access, not cached here, so a
    # name rebound there (by a test's monkeypatch, say) is seen here too.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
