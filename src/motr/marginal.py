"""Common-descent subproblem: -min over the unit ball of the worst directional
derivative across objectives.

The Euclidean dual is the minimum-norm point in the convex hull of the
gradients. It is solved for a whole batch of gradient matrices at once: in
closed form for one or two objectives (the two-objective case as in MGDA,
Sener & Koltun 2018), and by Frank-Wolfe with away steps and exact line
search, one matrix at a time, for three or more. A sampling-based evaluator
serves as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteGradientError(ValueError):
    """A gradient passed to the subproblem contains NaN/Inf."""


@dataclass(frozen=True)
class MarginalSolution:
    """Criticality value ``omega``, descent ``direction`` (zero at critical
    points), dual simplex ``weights`` and the certified duality gap
    ``residual``."""

    omega: float
    direction: np.ndarray
    weights: np.ndarray
    residual: float

    @property
    def converged(self) -> bool:
        return self.residual <= 1e-8 * max(1.0, self.omega)


@dataclass(frozen=True)
class MarginalBatch:
    """MarginalSolution fields stacked along a leading batch axis: omega (B,),
    direction (B, n), weights (B, q), residual (B,)."""

    omega: np.ndarray
    direction: np.ndarray
    weights: np.ndarray
    residual: np.ndarray

    def solution(self, b: int) -> MarginalSolution:
        return MarginalSolution(float(self.omega[b]), self.direction[b],
                                self.weights[b], float(self.residual[b]))


def _check_gradients(gradients) -> np.ndarray:
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    if not np.all(np.isfinite(G)):
        raise NonFiniteGradientError("gradient matrix contains NaN/Inf")
    return G


def _dot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise inner products of two (B, n) stacks, with the same
    arithmetic as ``u @ v`` on each pair of rows."""
    return (U[:, None, :] @ V[:, :, None])[:, 0, 0]


def _exact(G: np.ndarray, lam: np.ndarray, tolerance: float) -> MarginalBatch:
    """Omega and direction at the exact dual weights ``lam`` (B, q); the
    duality gap is zero up to rounding, and reported as 0."""
    y = (lam[:, None, :] @ G)[:, 0]
    omega = np.sqrt(_dot(y, y))
    descent = omega > tolerance
    direction = np.where(descent[:, None], -y / np.where(descent, omega, 1.0)[:, None], 0.0)
    return MarginalBatch(omega, direction, lam, np.zeros_like(omega))


def _closed_form_q2(G: np.ndarray) -> np.ndarray:
    """Dual weights (lam, 1 - lam) of a (B, 2, n) stack: lam* = clamp(<g2,
    g2-g1> / ||g1-g2||^2, 0, 1), and lam* = 0 for identical gradients."""
    g1, g2 = G[:, 0], G[:, 1]
    diff = g1 - g2
    dd = _dot(diff, diff)
    ratio = _dot(g2, g2 - g1) / np.where(dd > 0, dd, 1.0)
    lam = np.where(dd > 0, np.minimum(np.maximum(ratio, 0.0), 1.0), 0.0)
    return np.stack([lam, 1.0 - lam], axis=1)


def solve_marginal_batch(gradients, tolerance: float = 1e-10,
                         max_iters: int | None = None) -> MarginalBatch:
    """Solve -min_{||d||<=1} max_i <g_i, d> for each (q, n) matrix of a (B,
    q, n) stack via the dual min-norm-point problem.

    One objective gives omega = ||g|| and two the closed form; both are exact
    up to rounding, with residual 0. Three or more go through
    ``frank_wolfe``, matrix by matrix, with ``tolerance`` and ``max_iters``.
    A direction is returned only where omega exceeds both ``tolerance`` and
    the residual.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    G = np.asarray(gradients, dtype=float)
    if not np.all(np.isfinite(G)):
        raise NonFiniteGradientError("gradient matrix contains NaN/Inf")
    B, q, n = G.shape
    if q == 1:
        return _exact(G, np.ones((B, 1)), tolerance)
    if q == 2:
        return _exact(G, _closed_form_q2(G), tolerance)
    sols = [frank_wolfe(g, tolerance, max_iters) for g in G]
    return MarginalBatch(np.array([s.omega for s in sols]).reshape(B),
                         np.array([s.direction for s in sols]).reshape(B, n),
                         np.array([s.weights for s in sols]).reshape(B, q),
                         np.array([s.residual for s in sols]).reshape(B))


def solve_marginal(gradients, tolerance: float = 1e-10,
                   max_iters: int | None = None) -> MarginalSolution:
    """``solve_marginal_batch`` for one (q, n) gradient matrix.

    Returns omega together with an optimal unit-ball direction and dual
    simplex weights. ``residual`` certifies the remaining duality gap; when
    the Frank-Wolfe iteration cap is hit first, the best-effort solution is
    returned with residual > tolerance rather than raising.
    """
    G = _check_gradients(gradients)
    return solve_marginal_batch(G[None], tolerance, max_iters).solution(0)


def frank_wolfe(G: np.ndarray, tolerance: float = 1e-10,
                max_iters: int | None = None) -> MarginalSolution:
    """Min-norm point of the hull of the rows of ``G`` (q, n) by Frank-Wolfe
    with away steps and exact line search (Lacoste-Julien & Jaggi 2015)."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    G = _check_gradients(G)
    q, n = G.shape
    M = G @ G.T
    lam = np.zeros(q)
    lam[int(np.argmin(np.diag(M)))] = 1.0
    cap = max_iters if max_iters is not None else 10 * q * n + 1000
    # Below this the simplex gap is indistinguishable from rounding noise in
    # M @ lam, so further iterations cannot certify a smaller residual.
    gap_floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(M).max()))

    grad = M @ lam
    residual = np.inf
    for _ in range(cap):
        grad = M @ lam
        sq = float(lam @ grad)
        ub = np.sqrt(max(sq, 0.0))
        lb = float(np.min(grad)) / ub if ub > 0 else 0.0
        residual = max(ub - max(lb, 0.0), 0.0)
        if residual <= tolerance or ub <= tolerance:
            break

        s = int(np.argmin(grad))
        support = np.flatnonzero(lam > 0)
        a = support[int(np.argmax(grad[support]))]
        gap_fw = sq - grad[s]
        gap_aw = grad[a] - sq
        if max(gap_fw, gap_aw) <= gap_floor:
            break
        if gap_fw >= gap_aw:
            dlam = -lam.copy()
            dlam[s] += 1.0
            t_max = 1.0
        else:
            dlam = lam.copy()
            dlam[a] -= 1.0
            t_max = lam[a] / (1.0 - lam[a]) if lam[a] < 1.0 else 0.0
        dMd = float(dlam @ M @ dlam)
        dMl = float(dlam @ grad)
        if dMd <= 0:
            t = t_max
        else:
            t = min(t_max, max(0.0, -dMl / dMd))
        if t <= 0:
            break
        lam = lam + t * dlam
        np.clip(lam, 0.0, None, out=lam)
        lam /= lam.sum()

    y = G.T @ lam
    omega = float(np.linalg.norm(y))
    residual = float(min(residual, omega))
    if omega > residual and omega > tolerance:
        direction = -y / omega
    else:
        direction = np.zeros(n)
    return MarginalSolution(omega, direction, lam, residual)


def solve_marginal_q2_closed_form(g1, g2) -> MarginalSolution:
    """``solve_marginal_batch``'s two-objective closed form for one pair:
    lam* = clamp(<g2, g2-g1> / ||g1-g2||^2, 0, 1); identical gradients use
    the lam* = 0 convention (weights (0, 1)).
    """
    G = np.stack([_check_gradients(g1)[0], _check_gradients(g2)[0]])
    return solve_marginal_batch(G[None]).solution(0)


def brute_force_marginal(gradients, num_directions: int,
                         seed: int = 1234, refine: bool = True) -> float:
    """Sampling-based lower bound on omega, used only as a test oracle.

    Evaluates -max_i <g_i, d> over ``num_directions`` random unit directions
    augmented with the normalized (negated) gradients and random convex
    combinations, then optionally hill-climbs by shrinking-neighborhood
    sampling (the objective is concave on the ball, so local refinement is
    global). Always >= true omega minus the sampling resolution.
    """
    if num_directions < 1000:
        raise ValueError("num_directions must be >= 1000")
    G = _check_gradients(gradients)
    q, n = G.shape
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))

    def value(D: np.ndarray) -> np.ndarray:
        return -(D @ G.T).max(axis=1)

    dirs = rng.standard_normal((num_directions, n))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs /= norms

    extras = []
    for g in G:
        ng = np.linalg.norm(g)
        if ng > 0:
            extras.extend([g / ng, -g / ng])
    combos = rng.dirichlet(np.ones(q), size=min(num_directions, 4096)) @ G
    cn = np.linalg.norm(combos, axis=1, keepdims=True)
    combos = -combos[cn[:, 0] > 0] / cn[cn[:, 0] > 0]
    candidates = np.vstack([dirs] + ([np.array(extras)] if extras else []) +
                           ([combos] if combos.size else []))

    vals = value(candidates)
    best = float(vals.max())
    if best <= 0.0:
        return 0.0
    if not refine:
        return best

    # Shrinking-neighborhood polish around the incumbent; stays pure sampling.
    incumbent = candidates[int(np.argmax(vals))]
    radius = 0.5
    for _ in range(40):
        local = incumbent + radius * rng.standard_normal((128, n))
        nl = np.linalg.norm(local, axis=1, keepdims=True)
        np.maximum(nl, 1.0, out=nl)
        local /= nl
        lv = value(local)
        j = int(np.argmax(lv))
        if lv[j] > best:
            best = float(lv[j])
            incumbent = local[j]
        radius *= 0.65
    return max(best, 0.0)
