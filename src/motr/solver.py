"""Stochastic multi-objective trust-region iteration over a batch of states.

Per iteration, for every state in lockstep: sample the oracle at the current
accuracy target, solve the common-descent subproblem on the model
gradients, take the exact 1-D minimizer along that direction (never worse
than the guaranteed sufficient-decrease step), then run the acceptance-ratio
and criticality-versus-radius tests to update iterate and radius. Each state
draws from its own random stream, so its trajectory does not depend on the
batch it runs in; a single run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    HessianCombine,
    HessianMode,
    ObjectiveSample,
    Oracle,
    RngStream,
    SampleBatch,
    SolverConfig,
    alpha_at,
    as_decision_vector,
)
# solve_marginal stays importable here: perfbench/tracer.py wraps solver.solve_marginal.
from .marginal import MarginalSolution, solve_marginal, solve_marginal_batch  # noqa: F401


class InconsistentSampleError(ValueError):
    """Sample shape disagrees with the oracle declaration."""


class DegenerateDirectionError(ValueError):
    """The subproblem returned omega = 0: the point is model-critical."""


def spectral_norm(H: np.ndarray):
    """Largest absolute eigenvalue of a symmetric matrix, or of each matrix
    of a (..., n, n) stack."""
    norm = np.abs(np.linalg.eigvalsh(H)).max(axis=-1)
    return float(norm) if norm.ndim == 0 else norm


@dataclass(frozen=True)
class ModelSet:
    """Per-iteration max-type quadratic model: base values/gradients per
    objective plus one shared Hessian; beta = 1 + ||H||. The batched form
    carries a leading state axis on every field."""

    base_values: np.ndarray
    base_gradients: np.ndarray
    hessian: np.ndarray
    beta: float | np.ndarray

    def take(self, index) -> "ModelSet":
        """The models at ``index``; an int gives one state's model."""
        return ModelSet(self.base_values[index], self.base_gradients[index],
                        self.hessian[index], self.beta[index])


def combine_hessians(hessians: np.ndarray | None, weights: np.ndarray | None,
                     mode: HessianCombine, n: int) -> np.ndarray:
    """Single model Hessian from per-objective ones: dual-weight average by
    default, uniform average as the ablation alternative. Takes (q, n, n)
    Hessians with (q,) weights, or a (B, q, n, n) stack with (B, q)."""
    if hessians is None:
        return np.zeros((n, n))
    H = np.asarray(hessians, dtype=float)
    if mode is HessianCombine.UNIFORM or weights is None:
        return H.mean(axis=-3)
    w = np.asarray(weights, dtype=float)
    flat = H.reshape(H.shape[:-2] + (n * n,))
    return (w[..., None, :] @ flat)[..., 0, :].reshape(H.shape[:-3] + (n, n))


def build_model_batch(sample: SampleBatch, hessian_mode: HessianMode,
                      weights: np.ndarray | None = None,
                      combine: HessianCombine = HessianCombine.LAMBDA,
                      oracle: Oracle | None = None) -> ModelSet:
    """One model per sample, anchored there: value and gradient at 0 match it."""
    B, q, n = sample.gradients.shape
    if oracle is not None and (q != oracle.q or n != oracle.n):
        raise InconsistentSampleError(
            f"sample is ({q}, {n}), oracle declares ({oracle.q}, {oracle.n})")
    if hessian_mode is HessianMode.SUBSAMPLED:
        if sample.hessians is None:
            raise InconsistentSampleError("subsampled mode needs per-objective hessians")
        H = combine_hessians(sample.hessians, weights, combine, n)
        H = 0.5 * (H + H.swapaxes(1, 2))
        beta = 1.0 + spectral_norm(H)
    else:
        H = np.zeros((B, n, n))
        beta = np.ones(B)
    return ModelSet(base_values=sample.values.copy(),
                    base_gradients=sample.gradients.copy(),
                    hessian=H, beta=beta)


def _as_batch(sample: ObjectiveSample) -> SampleBatch:
    return SampleBatch(sample.values[None], sample.gradients[None], np.array([sample.delta]),
                       sample.sample_sizes[None], np.array([sample.cost]),
                       None if sample.hessians is None else sample.hessians[None])


def build_model(sample: ObjectiveSample, hessian_mode: HessianMode,
                weights: np.ndarray | None = None,
                combine: HessianCombine = HessianCombine.LAMBDA,
                oracle: Oracle | None = None) -> ModelSet:
    """``build_model_batch`` for one sample."""
    return build_model_batch(_as_batch(sample), hessian_mode,
                             None if weights is None else np.asarray(weights)[None],
                             combine, oracle).take(0)


def evaluate_model(model: ModelSet, d) -> float:
    d = np.asarray(d, dtype=float)
    linear = model.base_values + model.base_gradients @ d
    return float(np.max(linear) + 0.5 * d @ (model.hessian @ d))


def cauchy_step_batch(model: ModelSet, omega: np.ndarray, direction: np.ndarray,
                      delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 1-D minimizer of each state's model along its common-descent
    direction: steps (B, n) and predicted reductions (B,).

    The model along alpha*d is piecewise quadratic with O(q^2) breakpoints
    where the active objective changes; enumerating those plus each piece's
    vertex (and the guaranteed step min(delta, omega/beta)) gives the exact
    minimizer, so the predicted reduction is never below
    0.5 * omega * min(delta, omega/beta). All candidates are evaluated at
    once; the first one with the least model value wins, and alpha = 0 comes
    first, so a candidate is taken only on strict decrease.
    """
    if np.any(delta <= 0):
        raise ValueError("delta must be positive")
    if np.any((omega <= 0) | ~direction.any(axis=1)):
        raise DegenerateDirectionError("omega = 0: no descent direction")
    vals = model.base_values
    d = direction[:, :, None]
    slopes = (model.base_gradients @ d)[:, :, 0]
    curv = (direction[:, None, :] @ (model.hessian @ d))[:, 0, 0]

    def inside(numerator, denominator, valid):
        """numerator / denominator where ``valid`` and strictly inside
        (0, delta), else NaN."""
        alpha = numerator / np.where(valid, denominator, 1.0)
        return np.where(valid & (0.0 < alpha) & (alpha < delta), alpha, np.nan)

    candidates = [np.zeros_like(delta), delta, np.minimum(delta, omega / model.beta)]
    q = vals.shape[1]
    curved = curv > 0
    for i in range(q):
        if curved.any():                # else no piece has a vertex
            candidates.append(inside(-slopes[:, i], curv, curved))
        for j in range(i + 1, q):
            denom = slopes[:, i] - slopes[:, j]
            candidates.append(inside(vals[:, j] - vals[:, i], denom, denom != 0.0))
    alphas = np.stack(candidates, axis=1)
    m0 = vals.max(axis=1)
    value = ((vals[:, None, :] + alphas[:, :, None] * slopes[:, None, :]).max(axis=2)
             + 0.5 * curv[:, None] * alphas * alphas)
    value[np.isnan(value)] = np.inf
    best = np.argmin(value, axis=1)
    rows = np.arange(best.size)
    return alphas[rows, best][:, None] * direction, m0 - value[rows, best]


def cauchy_step(model: ModelSet, marginal: MarginalSolution,
                delta: float) -> tuple[np.ndarray, float]:
    """``cauchy_step_batch`` for one state."""
    batch = ModelSet(model.base_values[None], model.base_gradients[None],
                     model.hessian[None], np.array([model.beta]))
    d, predicted = cauchy_step_batch(batch, np.array([marginal.omega]),
                                     np.asarray(marginal.direction, dtype=float)[None],
                                     np.array([delta], dtype=float))
    return d[0], float(predicted[0])


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


def compute_rho(phi_tilde_at_x, phi_tilde_at_trial, predicted_reduction, guard):
    """Acceptance ratio, elementwise; a predicted reduction at or below the
    guard yields -inf, forcing an unsuccessful iteration."""
    guarded = np.asarray(predicted_reduction) <= guard
    rho = np.where(guarded, -math.inf, (np.asarray(phi_tilde_at_x) - phi_tilde_at_trial)
                   / np.where(guarded, 1.0, predicted_reduction))
    return float(rho) if rho.ndim == 0 else rho


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


@dataclass(frozen=True)
class TrustRegionState:
    """State b of a ``Batch``, read-only; ``error`` stopped it, if set."""

    x: np.ndarray
    delta: float
    k: int
    history: list[IterationRecord]
    error: Exception | None


@dataclass(eq=False)
class Batch:
    """A lockstep run's states as columns (``x`` (B, n); ``delta``, ``cost``,
    ``k`` (B,)) with their random streams and errors; ``batch[b]`` is state b.
    ``trace[name][k, b]`` is field ``name`` of state b's IterationRecord k
    (set for k < ``batch.k[b]``); a field not computed has no column (None in
    the records), and ``trace`` is None without a history."""

    x: np.ndarray
    delta: np.ndarray
    cost: np.ndarray
    k: np.ndarray
    rngs: list[np.random.Generator]
    errors: list[Exception | None]
    trace: dict[str, np.ndarray] | None

    def __getitem__(self, b: int) -> TrustRegionState:
        k = int(self.k[b])
        history = [] if self.trace is None else [self.record(b, j) for j in range(k)]
        return TrustRegionState(self.x[b].copy(), float(self.delta[b]), k, history, self.errors[b])

    def record(self, b: int, k: int) -> IterationRecord:
        values = dict.fromkeys(f.name for f in fields(IterationRecord))
        for name, column in self.trace.items():
            cell = column[k, b]
            values[name] = cell.item() if cell.ndim == 0 else cell.copy()
        return IterationRecord(**values)


def iterate_batch(batch: Batch, oracle: Oracle, config: SolverConfig,
                  smg: tuple[float, float] | None = None) -> None:
    """One full trust-region iteration of every state that has not failed,
    in lockstep; fills row k of the trace (which has ``config.k_max`` rows).

    A state draws from its own stream in the order of a single run: its
    sample, then its trial point if it has a descent direction. A state
    whose sample or trial is invalid gets its error set, keeps its iterate,
    radius and trace, and takes no further part.

    With ``smg = (t0, radius)`` each state takes the stochastic
    multi-gradient step (Liu & Vicente, 2021) instead: ``x - t_k * lambda @
    G`` on its sample's gradients G and subproblem weights lambda, with
    ``t_k = t0 / sqrt(k + 1)``. There is no model and no trial; the step
    always succeeds and the radius stays where ``run_batch`` set it.
    """
    for b in np.flatnonzero(~(batch.delta > 0)).tolist():
        if batch.errors[b] is None:
            batch.errors[b] = ValueError("delta must be positive")
    live = np.flatnonzero([e is None for e in batch.errors])
    if not live.size:
        return
    alphas = [alpha_at(config.alpha_schedule, k, oracle.q) for k in batch.k[live].tolist()]
    need_h = smg is None and config.hessian_mode is HessianMode.SUBSAMPLED
    sample = oracle.evaluate_batch(batch.x[live], batch.delta[live], alphas,
                                   [batch.rngs[b] for b in live], need_hessians=need_h)
    if sample.errors:
        for j, exc in sample.errors.items():
            batch.errors[live[j]] = exc
        keep = [j for j in range(live.size) if j not in sample.errors]
        live, alphas, sample = live[keep], [alphas[j] for j in keep], sample.take(keep)
    ks, X, deltas = batch.k[live], batch.x[live], batch.delta[live]
    marg = solve_marginal_batch(sample.gradients, tolerance=config.marginal_tol)
    phi_tilde = sample.values.max(axis=1)

    B = live.size
    exact = {}
    if config.exact_metrics and oracle.exact_available:
        # Instrumentation only: no rng draws, not counted as cost.
        values, gradients, _ = oracle.exact_evaluate_batch(X)
        exact = dict(omega_true=solve_marginal_batch(gradients, config.marginal_tol).omega,
                     phi_true=values.max(axis=1))

    rho = np.full(B, -math.inf)
    success = np.zeros(B, dtype=bool)
    step = np.zeros_like(X)
    predicted = np.zeros(B)
    beta = np.ones(B)
    cost = batch.cost[live] + sample.cost
    if smg is None:
        act = np.flatnonzero((marg.omega > config.omega_tol) & marg.direction.any(axis=1))
    else:
        act = np.empty(0, dtype=int)
        t = smg[0] / np.sqrt(ks + 1.0)
        step = -t[:, None] * (marg.weights[:, None, :] @ sample.gradients)[:, 0]
        success[:] = True
    if act.size:
        model = build_model_batch(sample, config.hessian_mode, weights=marg.weights,
                                  combine=config.hessian_combine, oracle=oracle).take(act)
        d, pred = cauchy_step_batch(model, marg.omega[act], marg.direction[act], deltas[act])
        if config.refine_steps:
            for j, b in enumerate(act.tolist()):
                d[j], pred[j] = refine_step(model.take(j), d[j], deltas[b], pred[j],
                                            config.refine_steps)
        trial = oracle.evaluate_batch(X[act] + d, deltas[act], [alphas[b] for b in act],
                                      [batch.rngs[live[b]] for b in act])
        guard = config.rho_guard * np.maximum(1.0, np.abs(phi_tilde[act]))
        rho[act] = compute_rho(phi_tilde[act], trial.values.max(axis=1), pred, guard)
        success[act] = (rho[act] >= config.eta1) & (marg.omega[act] > config.theta * deltas[act])
        step[act], predicted[act], beta[act] = d, pred, model.beta
        cost[act] += trial.cost
        for j, exc in trial.errors.items():
            batch.errors[live[act[j]]] = exc

    ok = np.array([batch.errors[b] is None for b in live.tolist()], dtype=bool)
    rows = live[ok]
    if batch.trace is not None:
        columns = dict(k=ks, omega_m=marg.omega, phi_tilde=phi_tilde, rho=rho, delta=deltas,
                       success=success, **exact, cost_so_far=cost,
                       step_norm=np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0]),
                       sample_sizes=sample.sample_sizes, predicted_reduction=predicted, beta=beta)
        for name, column in columns.items():
            if name not in batch.trace:
                batch.trace[name] = np.empty((config.k_max, len(batch.rngs)) + column.shape[1:],
                                             column.dtype)
            batch.trace[name][ks[ok], rows] = column[ok]
    batch.x[rows] = np.where(success[:, None], X + step, X)[ok]
    if smg is None:
        batch.delta[rows] = np.where(success, np.minimum(config.delta_max, config.gamma2 * deltas),
                                     config.gamma1 * deltas)[ok]
    batch.cost[rows] = cost[ok]
    batch.k[rows] += 1


# Kept only because perfbench/tracer.py wraps the name; no code calls it.
smop_iterate = iterate_batch


def run_batch(oracle: Oracle, config: SolverConfig, x0s, seeds,
              keep_history: bool = True,
              smg: tuple[float, float] | None = None) -> Batch:
    """One state per (x0, seed) pair, run in lockstep for k_max iterations.

    State b is seeded with ``seeds[b]`` and ends as a single run from
    ``x0s[b]`` with that seed would. A state that fails stops with its
    error set; the others go on. Without ``keep_history`` the batch keeps
    no trace. ``smg = (t0, radius)`` runs the stochastic multi-gradient
    step of ``iterate_batch`` at that fixed radius.
    """
    if smg is not None and not (smg[0] > 0 and smg[1] > 0):
        raise ValueError("smg step size and radius must be positive")
    X = np.array([as_decision_vector(x0, oracle.n) for x0 in x0s]).reshape(-1, oracle.n)
    B = len(X)
    batch = Batch(X, np.full(B, float(config.delta0 if smg is None else smg[1])),
                  np.zeros(B, dtype=int), np.zeros(B, dtype=int),
                  [RngStream(seed).generator() for seed in seeds], [None] * B,
                  {} if keep_history else None)
    for _ in range(config.k_max):
        iterate_batch(batch, oracle, config, smg)
    return batch


def run(oracle: Oracle, config: SolverConfig, x0) -> list[IterationRecord]:
    """The iteration history of run_final."""
    return run_final(oracle, config, x0)[1]


def run_final(oracle: Oracle, config: SolverConfig, x0) -> tuple[np.ndarray, list[IterationRecord]]:
    """``run_batch`` for one state seeded with ``config.seed``; deterministic.
    Returns the final iterate and the iteration history, or raises the
    error that stopped the run."""
    state = run_batch(oracle, config, [x0], [config.seed])[0]
    if state.error is not None:
        raise state.error
    return state.x, state.history
