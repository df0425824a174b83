"""Worst-case (sublinear) expectations of affine jump-diffusions under
parameter uncertainty: coefficient sets, the worst-case generator, a monotone
finite-difference solver for the associated Kolmogorov equation, Monte Carlo
lower bounds, and hypothesis checkers."""

__version__ = "0.1.0"

from .params import (
    AffineParameter,
    AtomicLevyMeasure,
    CoefficientBox,
    FiniteParameterSet,
    StateSpace,
    TruncationFunction,
    check_coefficient_bounds,
    check_linear_bound,
    growth_bound,
    growth_norm,
    small_jump_mass,
)
from .generator import (
    GeneratorMode,
    TestFunction,
    generator_value,
    sqrt_diffusion_lipschitz,
    worst_case_generator,
)
from .payoffs import make_payoff
from .pide import (
    CFLError,
    Grid,
    NonFiniteError,
    SchemeConfig,
    ValueSurface,
    dpp_gap,
    holder_exponent,
    solve,
)
from .montecarlo import (
    PathBundle,
    SimConfig,
    estimate_expectation,
    lower_bound_sublinear,
    moment_bound_report,
    simulate_paths,
)
from .conditions import (
    ConditionReport,
    check_admissible,
    check_comparison_conditions,
    uniqueness_gate,
)
from .config import ConfigError, ExperimentConfig

__all__ = [
    "AffineParameter",
    "AtomicLevyMeasure",
    "CFLError",
    "CoefficientBox",
    "ConditionReport",
    "ConfigError",
    "ExperimentConfig",
    "FiniteParameterSet",
    "GeneratorMode",
    "Grid",
    "NonFiniteError",
    "PathBundle",
    "SchemeConfig",
    "SimConfig",
    "StateSpace",
    "TestFunction",
    "TruncationFunction",
    "ValueSurface",
    "check_admissible",
    "check_coefficient_bounds",
    "check_comparison_conditions",
    "check_linear_bound",
    "dpp_gap",
    "estimate_expectation",
    "generator_value",
    "growth_bound",
    "growth_norm",
    "holder_exponent",
    "lower_bound_sublinear",
    "make_payoff",
    "moment_bound_report",
    "simulate_paths",
    "small_jump_mass",
    "solve",
    "sqrt_diffusion_lipschitz",
    "uniqueness_gate",
    "worst_case_generator",
]
