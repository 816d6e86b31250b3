"""Stochastic multi-objective trust-region iteration.

Per iteration: sample the oracle at the current accuracy target, solve the
common-descent subproblem on the model gradients, take the exact 1-D
minimizer along that direction (never worse than the guaranteed
sufficient-decrease step), then run the acceptance-ratio and
criticality-versus-radius tests to update iterate and radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    HessianCombine,
    HessianMode,
    ObjectiveSample,
    Oracle,
    RngStream,
    SolverConfig,
    alpha_at,
    as_decision_vector,
    scalar_representation,
)
from .marginal import MarginalSolution, solve_marginal


class InconsistentSampleError(ValueError):
    """Sample shape disagrees with the oracle declaration."""


class DegenerateDirectionError(ValueError):
    """The subproblem returned omega = 0: the point is model-critical."""


def spectral_norm(H: np.ndarray, tol: float = 1e-8, max_iters: int = 10_000) -> float:
    """Largest absolute eigenvalue of a symmetric matrix by power iteration."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    if not np.any(H):
        return 0.0
    # Deterministic start with all-coordinate support.
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iters):
        w = H @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = nw
        v = w / nw
        if abs(new_est - est) <= tol * max(new_est, 1.0):
            return float(new_est)
        est = new_est
    return float(est)


@dataclass(frozen=True)
class ModelSet:
    """Per-iteration max-type quadratic model: base values/gradients per
    objective plus one shared Hessian; beta = 1 + ||H||."""

    base_values: np.ndarray
    base_gradients: np.ndarray
    hessian: np.ndarray
    beta: float


def combine_hessians(hessians: np.ndarray | None, weights: np.ndarray | None,
                     mode: HessianCombine, n: int) -> np.ndarray:
    """Single model Hessian from per-objective ones: dual-weight average by
    default, uniform average as the ablation alternative."""
    if hessians is None:
        return np.zeros((n, n))
    H = np.asarray(hessians, dtype=float)
    if mode is HessianCombine.UNIFORM or weights is None:
        return H.mean(axis=0)
    w = np.asarray(weights, dtype=float)
    return np.tensordot(w, H, axes=1)


def build_model(sample: ObjectiveSample, hessian_mode: HessianMode,
                weights: np.ndarray | None = None,
                combine: HessianCombine = HessianCombine.LAMBDA,
                oracle: Oracle | None = None) -> ModelSet:
    """Anchor the model at the sample: value and gradient at 0 match it."""
    if oracle is not None and (sample.q != oracle.q or sample.n != oracle.n):
        raise InconsistentSampleError(
            f"sample is ({sample.q}, {sample.n}), oracle declares ({oracle.q}, {oracle.n})")
    n = sample.n
    if hessian_mode is HessianMode.SUBSAMPLED:
        if sample.hessians is None:
            raise InconsistentSampleError("subsampled mode needs per-objective hessians")
        H = combine_hessians(sample.hessians, weights, combine, n)
        H = 0.5 * (H + H.T)
        beta = 1.0 + spectral_norm(H)
    else:
        H = np.zeros((n, n))
        beta = 1.0
    return ModelSet(base_values=sample.values.copy(),
                    base_gradients=sample.gradients.copy(),
                    hessian=H, beta=beta)


def evaluate_model(model: ModelSet, d) -> float:
    d = np.asarray(d, dtype=float)
    linear = model.base_values + model.base_gradients @ d
    return float(np.max(linear) + 0.5 * d @ (model.hessian @ d))


def cauchy_step(model: ModelSet, marginal: MarginalSolution,
                delta: float) -> tuple[np.ndarray, float]:
    """Exact 1-D minimizer of the model along the common-descent direction.

    The model along alpha*d is piecewise quadratic with O(q^2) breakpoints
    where the active objective changes; enumerating those plus each piece's
    vertex (and the guaranteed step min(delta, omega/beta)) gives the exact
    minimizer, so the predicted reduction is never below
    0.5 * omega * min(delta, omega/beta).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if marginal.omega <= 0 or not np.any(marginal.direction):
        raise DegenerateDirectionError("omega = 0: no descent direction")
    d_star = marginal.direction
    slopes = model.base_gradients @ d_star
    curv = float(d_star @ (model.hessian @ d_star))

    candidates = [delta, min(delta, marginal.omega / model.beta)]
    vals = model.base_values
    q = vals.shape[0]
    for i in range(q):
        if curv > 0:
            vertex = -slopes[i] / curv
            if 0.0 < vertex < delta:
                candidates.append(vertex)
        for j in range(i + 1, q):
            denom = slopes[i] - slopes[j]
            if denom != 0.0:
                alpha = (vals[j] - vals[i]) / denom
                if 0.0 < alpha < delta:
                    candidates.append(alpha)

    m0 = float(np.max(vals))
    best_alpha, best_val = 0.0, m0
    for alpha in candidates:
        val = float(np.max(vals + alpha * slopes)) + 0.5 * curv * alpha * alpha
        if val < best_val:
            best_alpha, best_val = alpha, val
    d_c = best_alpha * d_star
    return d_c, m0 - best_val


def refine_step(model: ModelSet, d: np.ndarray, delta: float,
                predicted_reduction: float, steps: int) -> tuple[np.ndarray, float]:
    """Optional polish: up to ``steps`` projected model-descent moves inside
    the ball, each kept only on strict model decrease."""
    m0 = evaluate_model(model, np.zeros_like(d))
    best = m0 - predicted_reduction
    t = delta / 4.0
    for _ in range(steps):
        linear = model.base_values + model.base_gradients @ d
        active = int(np.argmax(linear))
        g = model.base_gradients[active] + model.hessian @ d
        cand = d - t * g
        norm = np.linalg.norm(cand)
        if norm > delta:
            cand = cand * (delta / norm)
        val = evaluate_model(model, cand)
        if val < best - 1e-14 * max(1.0, abs(best)):
            d, best = cand, val
        else:
            t *= 0.5
    return d, m0 - best


def compute_rho(phi_tilde_at_x: float, phi_tilde_at_trial: float,
                predicted_reduction: float, guard: float) -> float:
    """Acceptance ratio; a predicted reduction at or below the guard yields
    -inf, forcing an unsuccessful iteration."""
    if predicted_reduction <= guard:
        return -math.inf
    return (phi_tilde_at_x - phi_tilde_at_trial) / predicted_reduction


@dataclass(frozen=True)
class IterationRecord:
    k: int
    omega_m: float
    omega_true: float | None
    phi_tilde: float
    phi_true: float | None
    rho: float
    delta: float
    success: bool
    step_norm: float
    cost_so_far: int
    sample_sizes: np.ndarray
    predicted_reduction: float
    beta: float


@dataclass
class TrustRegionState:
    """Mutable per-run state; owned by exactly one run."""

    x: np.ndarray
    delta: float
    rng: np.random.Generator
    k: int = 0
    cumulative_cost: int = 0
    history: list[IterationRecord] = field(default_factory=list)


def init_state(x0, config: SolverConfig, n: int | None = None) -> TrustRegionState:
    return TrustRegionState(x=as_decision_vector(x0, n), delta=config.delta0,
                            rng=RngStream(config.seed).generator())


def _exact_metrics(oracle: Oracle, x, tolerance: float):
    values, gradients, _ = oracle.exact_evaluate(x)
    omega = solve_marginal(gradients, tolerance=tolerance).omega
    return omega, scalar_representation(values)


def smop_iterate(state: TrustRegionState, oracle: Oracle,
                 config: SolverConfig) -> TrustRegionState:
    """One full trust-region iteration; appends an IterationRecord."""
    alpha = alpha_at(config.alpha_schedule, state.k, oracle.q)
    delta_k = state.delta
    need_h = config.hessian_mode is HessianMode.SUBSAMPLED
    sample = oracle.evaluate(state.x, state.delta, alpha, state.rng,
                             need_hessians=need_h)
    cost = sample.cost
    marg = solve_marginal(sample.gradients, tolerance=config.marginal_tol)
    phi_tilde = scalar_representation(sample.values)

    omega_true = phi_true = None
    if config.exact_metrics and oracle.exact_available:
        # Instrumentation only: no rng draws, not counted as cost.
        omega_true, phi_true = _exact_metrics(oracle, state.x, config.marginal_tol)

    success = False
    rho = -math.inf
    step_norm = 0.0
    predicted = 0.0
    beta = 1.0
    d = None
    if marg.omega > config.omega_tol and np.any(marg.direction):
        model = build_model(sample, config.hessian_mode, weights=marg.weights,
                            combine=config.hessian_combine, oracle=oracle)
        beta = model.beta
        d, predicted = cauchy_step(model, marg, state.delta)
        if config.refine_steps:
            d, predicted = refine_step(model, d, state.delta, predicted,
                                       config.refine_steps)
        trial = oracle.evaluate(state.x + d, state.delta, alpha, state.rng)
        cost += trial.cost
        phi_trial = scalar_representation(trial.values)
        guard = config.rho_guard * max(1.0, abs(phi_tilde))
        rho = compute_rho(phi_tilde, phi_trial, predicted, guard)
        success = rho >= config.eta1 and marg.omega > config.theta * state.delta
        step_norm = float(np.linalg.norm(d))

    if success:
        state.x = state.x + d
        state.delta = min(config.delta_max, config.gamma2 * state.delta)
    else:
        state.delta = config.gamma1 * state.delta

    state.cumulative_cost += cost
    state.history.append(IterationRecord(
        k=state.k, omega_m=marg.omega, omega_true=omega_true,
        phi_tilde=phi_tilde, phi_true=phi_true, rho=rho,
        delta=delta_k, success=success, step_norm=step_norm,
        cost_so_far=state.cumulative_cost,
        sample_sizes=sample.sample_sizes.copy(),
        predicted_reduction=predicted, beta=beta))
    state.k += 1
    return state


def run(oracle: Oracle, config: SolverConfig, x0) -> list[IterationRecord]:
    """The iteration history of run_final."""
    return run_final(oracle, config, x0)[1]


def run_final(oracle: Oracle, config: SolverConfig, x0) -> tuple[np.ndarray, list[IterationRecord]]:
    """Loop smop_iterate for k_max iterations; deterministic given the seed.
    Returns the final iterate and the iteration history."""
    state = init_state(x0, config, oracle.n)
    for _ in range(config.k_max):
        smop_iterate(state, oracle, config)
    return state.x, state.history
