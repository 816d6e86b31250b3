"""Stochastic multi-objective trust-region optimization.

A trust-region method for vector-valued objectives built on probabilistically
accurate per-objective models: the step direction comes from the
common-descent (marginal function) subproblem, acceptance from a
sufficient-decrease ratio test, and finite-sum objectives are served by an
adaptive-subsampling oracle. A Pareto-front procedure wraps the local solver.
"""

from .core import (
    ConfigError,
    FixedAlpha,
    HessianCombine,
    HessianMode,
    ObjectiveSample,
    Oracle,
    RngStream,
    SampleBatch,
    SolverConfig,
    SummableToOneAlpha,
    alpha_at,
)
from .marginal import (
    MarginalSolution,
    brute_force_marginal,
    solve_marginal,
    solve_marginal_batch,
    solve_marginal_q2_closed_form,
)
from .oracles import (
    AnalyticOracle,
    AnalyticProblem,
    ExactOracle,
    FiniteSumOracle,
    FiniteSumProblem,
    NoiseSpec,
    load_dataset,
    make_synthetic_logistic,
    required_sample_size,
)
from .pareto import FrontConfig, dominance_filter, init_front, front_round, run_front
from .solver import (
    Batch,
    IterationRecord,
    ModelSet,
    TrustRegionState,
    build_model,
    cauchy_step,
    compute_rho,
    evaluate_model,
    run,
    run_batch,
    run_final,
)

__version__ = "0.1.0"
