"""Risk-sensitive Markov decision processes with stage-wise static risk measures.

Finite state, action and disturbance spaces; exact evaluation of
law-invariant monetary risk measures on finite-support laws; backward
induction and contractive fixed-point iteration for the recursive
optimality criterion; bounding-function verification; and a
distributionally robust cross-check via nature's dual sets.
"""

from .distributions import (
    DiscreteDistribution,
    cdf,
    expectation,
    make_distribution,
    pushforward,
    quantile,
    survival,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    InfeasibleAction,
    InfeasiblePolicy,
    InvalidParams,
    InvalidSpec,
    LengthMismatch,
    MonotonicityViolation,
    NegativeProbability,
    NotCoherent,
    NotContractive,
    RiskMdpError,
    SumOverflow,
    TooLargeForEnumeration,
    ZeroMass,
)
from .mdp_core import (
    BoundingSpec,
    BoundMode,
    BoundsReport,
    Diagnostic,
    MdpModel,
    Policy,
    ValueFunction,
    bellman_L,
    bellman_T,
    constant_bounding_spec,
    stage_law,
    validate_model,
    verify_bounds,
    weighted_norm,
)
from .risk_measures import (
    AxiomReport,
    Distortion,
    DistortionFunction,
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    RiskMeasure,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
    check_axioms,
    describe,
    dual_sup,
    evaluate,
    is_coherent,
    is_comonotonic_additive,
    is_positive_homogeneous,
)
from .robust_check import (
    DualSet,
    EquivalenceReport,
    dual_set,
    nature_best_response,
    robust_game_value,
    robust_value_iteration,
    verify_equivalence,
)
from .solvers import (
    FiniteSolveResult,
    InfiniteSolveResult,
    check_contraction,
    evaluate_policy_finite,
    solve_finite,
    solve_infinite,
    weak_increase_check,
)

__version__ = "0.1.0"
