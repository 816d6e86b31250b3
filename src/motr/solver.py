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
    Oracle,
    SampleBatch,
    SolverConfig,
    Streams,
    alpha_at,
    as_decision_batch,
)
# solve_marginal stays importable here: perfbench/tracer.py wraps solver.solve_marginal.
from .marginal import solve_marginal, solve_marginal_batch  # noqa: F401


class InconsistentSampleError(ValueError):
    """Sample shape disagrees with the oracle declaration."""


class DegenerateDirectionError(ValueError):
    """The subproblem returned omega = 0: the point is model-critical."""


def spectral_norm(H: np.ndarray):
    """Largest absolute eigenvalue of a symmetric matrix, or of each matrix
    of a (..., n, n) stack."""
    return np.abs(np.linalg.eigvalsh(H)).max(axis=-1)


@dataclass(frozen=True)
class ModelSet:
    """Per-iteration max-type quadratic models of a batch of states: values
    (B, q) and gradients (B, q, n) per objective, one Hessian (B, n, n) and
    beta = 1 + ||H|| (B,) per state."""

    base_values: np.ndarray
    base_gradients: np.ndarray
    hessian: np.ndarray
    beta: np.ndarray

    def take(self, index) -> "ModelSet":
        """The models of the states at ``index``, an index array or a slice."""
        return ModelSet(self.base_values[index], self.base_gradients[index],
                        self.hessian[index], self.beta[index])


def combine_hessians(hessians: np.ndarray, weights: np.ndarray | None,
                     mode: HessianCombine) -> np.ndarray:
    """Single model Hessian from per-objective ones: dual-weight average by
    default, uniform average as the ablation alternative. Takes (q, n, n)
    Hessians with (q,) weights, or a (B, q, n, n) stack with (B, q)."""
    H = np.asarray(hessians, dtype=float)
    if mode is HessianCombine.UNIFORM or weights is None:
        return H.mean(axis=-3)
    w = np.asarray(weights, dtype=float)
    flat = H.reshape(H.shape[:-2] + (-1,))
    return np.vecmat(w, flat).reshape(H.shape[:-3] + H.shape[-2:])


def build_model(sample: SampleBatch, hessian_mode: HessianMode,
                weights: np.ndarray | None = None,
                combine: HessianCombine = HessianCombine.LAMBDA,
                oracle: Oracle | None = None) -> ModelSet:
    """One model per sample of the batch, anchored there: value and gradient
    at 0 match it."""
    B, q, n = sample.gradients.shape
    if oracle is not None and (q != oracle.q or n != oracle.n):
        raise InconsistentSampleError(
            f"sample is ({q}, {n}), oracle declares ({oracle.q}, {oracle.n})")
    if hessian_mode is HessianMode.SUBSAMPLED:
        if sample.hessians is None:
            raise InconsistentSampleError("subsampled mode needs per-objective hessians")
        H = combine_hessians(sample.hessians, weights, combine)
        H = 0.5 * (H + H.swapaxes(1, 2))
        beta = 1.0 + spectral_norm(H)
    else:
        H = np.zeros((B, n, n))
        beta = np.ones(B)
    return ModelSet(base_values=sample.values, base_gradients=sample.gradients,
                    hessian=H, beta=beta)


def evaluate_model(model: ModelSet, d: np.ndarray) -> np.ndarray:
    """Each state's model value (B,) at its step, a row of ``d`` (B, n)."""
    linear = model.base_values + np.matvec(model.base_gradients, d)
    return linear.max(axis=1) + 0.5 * np.vecdot(d, np.matvec(model.hessian, d))


def cauchy_step(model: ModelSet, omega: np.ndarray, direction: np.ndarray,
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
    if (delta <= 0).any():
        raise ValueError("delta must be positive")
    if (omega <= 0).any() or not direction.any(axis=1).all():
        raise DegenerateDirectionError("omega = 0: no descent direction")
    vals = model.base_values
    slopes = np.matvec(model.base_gradients, direction)
    curv = np.vecdot(direction, np.matvec(model.hessian, direction))

    def inside(numerator, denominator, valid):
        """numerator / denominator where ``valid`` and strictly inside
        (0, delta), else NaN."""
        alpha = numerator / np.where(valid, denominator, 1.0)
        return np.where(valid & (0.0 < alpha) & (alpha < delta), alpha, np.nan)

    q = vals.shape[1]
    curved = curv > 0
    vertex = bool(curved.any())         # else no piece has a vertex
    alphas = np.empty((delta.size, 3 + q * vertex + q * (q - 1) // 2))
    alphas[:, 0], alphas[:, 1], alphas[:, 2] = 0.0, delta, np.minimum(delta, omega / model.beta)
    c = 3
    for i in range(q):
        if vertex:
            alphas[:, c] = inside(-slopes[:, i], curv, curved)
            c += 1
        for j in range(i + 1, q):
            denom = slopes[:, i] - slopes[:, j]
            alphas[:, c] = inside(vals[:, j] - vals[:, i], denom, denom != 0.0)
            c += 1
    m0 = vals.max(axis=1)
    value = ((vals[:, None, :] + alphas[:, :, None] * slopes[:, None, :]).max(axis=2)
             + 0.5 * curv[:, None] * alphas * alphas)
    value[np.isnan(value)] = np.inf
    best = value.argmin(axis=1)
    rows = np.arange(best.size)
    return alphas[rows, best][:, None] * direction, m0 - value[rows, best]


def refine_step(model: ModelSet, d: np.ndarray, delta: np.ndarray,
                predicted_reduction: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Optional polish of each state's step, a row of ``d``: ``steps``
    projected moves down its max-model inside its ball, from step length
    delta/4 along the first most active objective's gradient; a move is kept
    only on strict model decrease, else that state's step length halves."""
    m0 = evaluate_model(model, np.zeros_like(d))
    best = m0 - predicted_reduction
    t = delta / 4.0
    rows = np.arange(len(d))
    for _ in range(steps):
        active = (model.base_values + np.matvec(model.base_gradients, d)).argmax(axis=1)
        g = model.base_gradients[rows, active] + np.matvec(model.hessian, d)
        cand = d - t[:, None] * g
        norm = np.sqrt(np.vecdot(cand, cand))
        over = norm > delta
        cand[over] *= (delta[over] / norm[over])[:, None]
        val = evaluate_model(model, cand)
        keep = val < best - 1e-14 * np.maximum(1.0, np.abs(best))
        d, best = np.where(keep[:, None], cand, d), np.where(keep, val, best)
        t = np.where(keep, t, 0.5 * t)
    return d, m0 - best


def compute_rho(phi_tilde_at_x, phi_tilde_at_trial, predicted_reduction, guard):
    """Acceptance ratio, elementwise; a predicted reduction at or below the
    guard yields -inf, forcing an unsuccessful iteration."""
    guarded = np.asarray(predicted_reduction) <= guard
    return np.where(guarded, -math.inf, (np.asarray(phi_tilde_at_x) - phi_tilde_at_trial)
                    / np.where(guarded, 1.0, predicted_reduction))


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
    rngs: Streams
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


def _positions(index: np.ndarray, size: int):
    """``index``, ascending positions in an axis of ``size``; the whole axis
    as a slice, which indexes by view, when it names every position."""
    return slice(None) if index.size == size else index


def iterate_batch(batch: Batch, oracle: Oracle, config: SolverConfig,
                  smg: tuple[float, float] | None = None) -> None:
    """One full trust-region iteration of every state that has not failed,
    in lockstep; fills row k of the trace (which has ``config.k_max`` rows).

    A state draws from its own stream in the order of a single run: its
    sample, then its trial point if it has a descent direction and its
    predicted reduction is above the guard (at or below it, the iteration
    fails with rho = -inf and the trial is not evaluated). A state
    whose sample or trial is invalid, or whose new iterate is not finite,
    gets its error set, keeps its iterate, radius and trace, and takes no
    further part.

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
    # A state that fails never runs again, so the live states share k, and
    # with it the accuracy target alpha_k of their samples and trials and
    # their trace row. Read before the samples, which may all fail.
    k = int(batch.k[live[0]])
    alpha = alpha_at(config.alpha_schedule, k, oracle.q)
    need_h = smg is None and config.hessian_mode is HessianMode.SUBSAMPLED
    X, deltas = batch.x[live], batch.delta[live]
    sample = oracle.evaluate_batch(X, deltas, alpha, batch.rngs, live, need_hessians=need_h)
    if sample.errors:
        for j, exc in sample.errors.items():
            batch.errors[live[j]] = exc
        keep = [j for j in range(live.size) if j not in sample.errors]
        live, sample, X, deltas = live[keep], sample.take(keep), X[keep], deltas[keep]
    marg = solve_marginal_batch(sample.gradients, tolerance=config.marginal_tol)
    phi_tilde = sample.values.max(axis=1)

    B = live.size
    trace = batch.trace
    exact = {}
    if trace is not None and config.exact_metrics and oracle.exact_available:
        # Instrumentation only: no rng draws, not counted as cost. An iterate
        # that did not move at k - 1 repeats its row k - 1.
        exact = {name: trace[name][k - 1, live] if k else np.empty(B)
                 for name in ("omega_true", "phi_true")}
        moved = np.flatnonzero(trace["success"][k - 1, live]) if k else np.arange(B)
        if moved.size:
            values, gradients, _ = oracle.exact_evaluate_batch(X[moved])
            exact["omega_true"][moved] = solve_marginal_batch(gradients, config.marginal_tol).omega
            exact["phi_true"][moved] = values.max(axis=1)

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
        step = -(smg[0] / np.sqrt(k + 1.0)) * np.vecmat(marg.weights, sample.gradients)
        success[:] = True
    if act.size:
        at = _positions(act, B)
        model = build_model(sample, config.hessian_mode, weights=marg.weights,
                            combine=config.hessian_combine, oracle=oracle).take(at)
        d, pred = cauchy_step(model, marg.omega[at], marg.direction[at], deltas[at])
        if config.refine_steps:
            d, pred = refine_step(model, d, deltas[at], pred, config.refine_steps)
        step[at], predicted[at], beta[at] = d, pred, model.beta
        guard = config.rho_guard * np.maximum(1.0, np.abs(phi_tilde[at]))
        undecided = pred > guard
        if undecided.any():
            ev = act[undecided]
            trial = oracle.evaluate_batch(X[ev] + d[undecided], deltas[ev], alpha, batch.rngs,
                                          live[ev])
            rho[ev] = compute_rho(phi_tilde[ev], trial.values.max(axis=1), pred[undecided],
                                  guard[undecided])
            success[ev] = (rho[ev] >= config.eta1) & (marg.omega[ev] > config.theta * deltas[ev])
            cost[ev] += trial.cost
            for j, exc in trial.errors.items():
                batch.errors[live[ev[j]]] = exc

    if success.any():
        new_x = np.where(success[:, None], X + step, X)
        for j in np.flatnonzero(~np.isfinite(new_x).all(axis=1)).tolist():
            batch.errors[live[j]] = batch.errors[live[j]] or ValueError("iterate is not finite")
    else:       # no iterate moved, and those that did not are finite
        new_x = None
    ok = np.flatnonzero([batch.errors[b] is None for b in live.tolist()])
    rows, ok = _positions(live[ok], len(batch.x)), _positions(ok, B)
    if trace is not None:
        columns = dict(k=np.full(B, k), omega_m=marg.omega, phi_tilde=phi_tilde, rho=rho,
                       delta=deltas, success=success, **exact, cost_so_far=cost,
                       step_norm=np.sqrt(np.vecdot(step, step)),
                       sample_sizes=sample.sample_sizes, predicted_reduction=predicted, beta=beta)
        for name, column in columns.items():
            if name not in trace:
                trace[name] = np.empty((config.k_max, len(batch.x)) + column.shape[1:],
                                       column.dtype)
            trace[name][k, rows] = column[ok]
    if new_x is not None:
        batch.x[rows] = new_x[ok]
    if smg is None:
        # A shrink that would round the radius to 0 stops at the least
        # positive float (5e-324) instead, so a long run does not fail.
        batch.delta[rows] = np.where(success, np.minimum(config.delta_max, config.gamma2 * deltas),
                                     np.maximum(config.gamma1 * deltas, 5e-324))[ok]
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
    X = as_decision_batch(x0s, oracle.n).copy()
    B = len(X)
    batch = Batch(X, np.full(B, float(config.delta0 if smg is None else smg[1])),
                  np.zeros(B, dtype=int), np.zeros(B, dtype=int),
                  Streams([(seed, 0) for seed in seeds]), [None] * B,
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
