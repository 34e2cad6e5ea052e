"""Stochastic phase-space simulation of two coupled Kerr oscillators.

The package integrates the Ito stochastic equations of two anharmonically
self-interacting bosonic modes with a number-number coupling, in four
sampling methods: a hybrid that treats mode a symmetrically and mode b
normally ordered, a further-truncated variant of it, the doubled
normally-ordered method for both modes, and the truncated symmetric
method.  Exact closed-form expectations and an independent number-basis
evaluator serve as references, and ensemble results carry batch-based
error bars throughout.
"""

__version__ = "0.1.0"

from .core import (
    MONOMIALS,
    METHOD_NAMES,
    ConfigError,
    CouplingSchedule,
    EnsembleConfig,
    EnsembleResult,
    MethodSpec,
    PhasePoint,
    RunDescriptor,
    SystemParams,
    config_violations,
    validate_config,
)
from .representations import (
    OBSERVABLE_NAMES,
    CoherentInit,
    estimate_NaYb,
    estimate_number,
    estimate_number_variance,
    estimate_quadratures,
    estimate_Yb_variance,
    observable_estimate,
    observable_estimate_complex,
    sample_positive_p_coherent,
    sample_wigner_coherent,
)
from .dynamics import (
    apply_further_truncation,
    hybrid_diffusion,
    hybrid_drift,
    hybrid_noise_factor,
    positive_p_diffusion,
    wigner_truncated,
)
from .integrator import (
    TrajectoryState,
    build_step_plan,
    euler_maruyama_step,
    run_ensemble,
    simulate_trajectory,
)
from .oracle import (
    EXACT_OBSERVABLES,
    OracleParams,
    exact_correlation,
    exact_NaYb,
    exact_quadratures_a,
    exact_quadratures_b,
    exact_series,
    exact_var_Yb,
    fock_expect,
    fock_symmetrized,
    fock_word_expect,
    match_schedule,
)
from .stats import (
    ObservableSeries,
    batch_mean_se,
    correlation_series,
    detect_blowup,
    observable_series,
)

__all__ = [
    "__version__",
    "MONOMIALS",
    "METHOD_NAMES",
    "ConfigError",
    "CouplingSchedule",
    "EnsembleConfig",
    "EnsembleResult",
    "MethodSpec",
    "PhasePoint",
    "RunDescriptor",
    "SystemParams",
    "config_violations",
    "validate_config",
    "OBSERVABLE_NAMES",
    "CoherentInit",
    "estimate_NaYb",
    "estimate_number",
    "estimate_number_variance",
    "estimate_quadratures",
    "estimate_Yb_variance",
    "observable_estimate",
    "observable_estimate_complex",
    "sample_positive_p_coherent",
    "sample_wigner_coherent",
    "apply_further_truncation",
    "hybrid_diffusion",
    "hybrid_drift",
    "hybrid_noise_factor",
    "positive_p_diffusion",
    "wigner_truncated",
    "TrajectoryState",
    "build_step_plan",
    "euler_maruyama_step",
    "run_ensemble",
    "simulate_trajectory",
    "EXACT_OBSERVABLES",
    "OracleParams",
    "exact_correlation",
    "exact_NaYb",
    "exact_quadratures_a",
    "exact_quadratures_b",
    "exact_series",
    "exact_var_Yb",
    "fock_expect",
    "fock_symmetrized",
    "fock_word_expect",
    "match_schedule",
    "ObservableSeries",
    "batch_mean_se",
    "correlation_series",
    "detect_blowup",
    "observable_series",
]
