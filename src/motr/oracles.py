"""Objective-evaluation backends.

Three families: exact analytic test problems, the same problems with
radius-scaled Gaussian noise, and finite-sum regularized logistic regression
split into sensitive-attribute groups with adaptive subsampling.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DimensionMismatchError,
    ObjectiveSample,
    Oracle,
    SampleBatch,
    as_decision_batch,
    as_decision_vector,
)


class ParseError(ValueError):
    """Dataset file failed to parse; message carries the line number."""


class LabelDomainError(ValueError):
    """Labels do not match the declared convention."""


class EmptyGroupError(ValueError):
    """A sensitive-attribute group ended up with zero members."""


# ---------------------------------------------------------------------------
# Analytic two-objective test problems, evaluated on a (B, 2) stack of points.

def _test1(X, need_hessians):
    f = np.empty_like(X)
    f[:, 0] = X[:, 0] ** 2 + X[:, 1] ** 2
    f[:, 1] = (X[:, 0] - 5.0) ** 2 + (X[:, 1] - 5.0) ** 2
    g = np.empty((X.shape[0], 2, 2))
    g[:, 0] = 2.0 * X
    g[:, 1] = 2.0 * (X - 5.0)
    h = np.tile(2.0 * np.eye(2), (X.shape[0], 2, 1, 1)) if need_hessians else None
    return f, g, h


def _test2(X, need_hessians):
    r = X - 0.5
    e = np.exp(-(r[:, 0] ** 2 + r[:, 1] ** 2))
    sin = np.sin(X[:, 1])
    f = np.empty_like(X)
    f[:, 0] = sin
    f[:, 1] = 1.0 - e
    g = np.zeros((X.shape[0], 2, 2))
    g[:, 0, 1] = np.cos(X[:, 1])
    g[:, 1] = 2.0 * r * e[:, None]
    if not need_hessians:
        return f, g, None
    h = np.zeros((X.shape[0], 2, 2, 2))
    h[:, 0, 1, 1] = -sin
    h[:, 1] = e[:, None, None] * (2.0 * np.eye(2) - 4.0 * (r[:, :, None] * r[:, None, :]))
    return f, g, h


_ANALYTIC = {"test1": _test1, "test2": _test2}


@dataclass(frozen=True)
class AnalyticProblem:
    """Named 2-D, 2-objective benchmark ('test1' convex front, 'test2' non-convex)."""

    name: str
    n: int = 2
    q: int = 2

    def __post_init__(self):
        if self.name not in _ANALYTIC:
            raise ConfigError(f"unknown analytic problem {self.name!r}")

    def exact_batch(self, X, need_hessians: bool = True):
        """Values (B, q), gradients (B, q, n) and Hessians (B, q, n, n), or
        None in their place when not ``need_hessians``."""
        return _ANALYTIC[self.name](as_decision_batch(X, self.n), need_hessians)

    def exact(self, x):
        f, g, h = self.exact_batch(as_decision_vector(x, self.n)[None])
        return f[0], g[0], h[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Radius-scaled Gaussian noise: values get eps*delta^2, gradients eps*delta.

    With ``bounded`` set, draws are rejected until |eps| <= cap_f and
    ||eps_vec|| <= cap_g, which makes the induced model fully linear by
    construction. ``shared_gradient_noise`` reuses one gradient noise vector
    across objectives instead of drawing independently per objective.
    """

    sigma: float = 0.0
    bounded: bool = False
    cap_f: float = 1.0
    cap_g: float = 1.0
    shared_gradient_noise: bool = False

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.bounded and (self.cap_f <= 0 or self.cap_g <= 0):
            raise ConfigError("bounded noise caps must be positive")


@functools.lru_cache(maxsize=16)
def _noise_layout(noise: NoiseSpec, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the value and gradient noise in one state's draws when no
    bounded draw is rejected: per objective its value noise, then its
    gradient noise vector (drawn once, after the first value, when shared)."""
    if noise.shared_gradient_noise:
        value_pos = np.r_[0, np.arange(1 + n, q + n)]
        grad_pos = np.tile(np.arange(1, 1 + n), (q, 1))
    else:
        value_pos = np.arange(q) * (1 + n)
        grad_pos = value_pos[:, None] + 1 + np.arange(n)
    value_pos.flags.writeable = grad_pos.flags.writeable = False    # cached
    return value_pos, grad_pos


def _replay_bounded(noise: NoiseSpec, rng, first: np.ndarray, q: int, n: int):
    """One state's bounded noise draw by draw, rejection by rejection, as
    (value noise (q,), gradient noise (q, n)). ``first`` holds the draws
    already taken from ``rng``; further draws are taken only when needed."""
    pending = list(first)

    def draw(size, cap, norm):
        for _ in range(10_000):
            if len(pending) < size:
                pending.extend(rng.normal(0.0, noise.sigma, size=size - len(pending)))
            eps = np.array(pending[:size])
            del pending[:size]
            if norm(eps) <= cap:
                return eps
        return np.zeros(size)

    eps_f, eps_g = np.empty(q), np.empty((q, n))
    for i in range(q):
        eps_f[i] = draw(1, noise.cap_f, lambda e: abs(e[0]))[0]
        eps_g[i] = (eps_g[0] if i and noise.shared_gradient_noise
                    else draw(n, noise.cap_g, np.linalg.norm))
    return eps_f, eps_g


def draw_noise(noise: NoiseSpec, rngs, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Value noise (B, q) and gradient noise (B, q, n), state b drawing from
    ``rngs[b]`` in the same order as a one-state draw.

    Each state takes the fewest draws its sequence can use in one call. With
    ``bounded`` set, a state whose draws are not all clearly within the caps
    is replayed draw by draw, with the rejection rule applied exactly.
    """
    value_pos, grad_pos = _noise_layout(noise, q, n)
    m = int(max(value_pos.max(), grad_pos.max())) + 1
    Z = np.array([rng.normal(0.0, noise.sigma, size=m) for rng in rngs]).reshape(-1, m)
    eps_f, eps_g = Z[:, value_pos], Z[:, grad_pos]
    if noise.bounded:
        # A norm computed differently may differ in the last bits, so only
        # states clearly inside the caps skip the exact replay.
        margin = 1.0 - 1e-12
        inside = ((np.abs(eps_f) <= noise.cap_f).all(axis=1)
                  & (np.sqrt((eps_g * eps_g).sum(axis=2)) <= noise.cap_g * margin).all(axis=1))
        for b in np.flatnonzero(~inside).tolist():
            eps_f[b], eps_g[b] = _replay_bounded(noise, rngs[b], Z[b], q, n)
    return eps_f, eps_g


class AnalyticOracle(Oracle):
    """Analytic problem, optionally perturbed by a NoiseSpec."""

    def __init__(self, problem: AnalyticProblem, noise: NoiseSpec | None = None):
        self.problem = problem
        self.noise = noise if noise is not None else NoiseSpec()
        self.n = problem.n
        self.q = problem.q
        self.stochastic = self.noise.sigma > 0
        self.exact_available = True

    def exact_evaluate(self, x, need_hessians=False):
        f, g, h = self.exact_evaluate_batch(as_decision_vector(x, self.n)[None], need_hessians)
        return f[0], g[0], None if h is None else h[0]

    def exact_evaluate_batch(self, X, need_hessians=False):
        return self.problem.exact_batch(X, need_hessians)

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        return self.evaluate_one(x, delta, alpha, rng, need_hessians)

    def evaluate_batch(self, X, deltas, alphas, rngs, need_hessians=False):
        """Exact arrays of every state plus its radius-scaled noise: values
        get eps * delta^2 and gradients eps * delta."""
        f, g, h = self.problem.exact_batch(X, need_hessians)
        deltas = np.asarray(deltas, dtype=float)
        B, q, n = g.shape
        if self.noise.sigma > 0:
            eps_f, eps_g = draw_noise(self.noise, rngs, q, n)
            f = f + eps_f * (deltas * deltas)[:, None]
            g = g + eps_g * deltas[:, None, None]
        return SampleBatch(values=f, gradients=g, delta=deltas,
                           sample_sizes=np.zeros((B, q), dtype=int),
                           cost=np.zeros(B, dtype=int), hessians=h)


# ---------------------------------------------------------------------------
# Finite-sum logistic regression with group split.

@dataclass(frozen=True)
class FiniteSumProblem:
    """Group-split regularized logistic regression.

    ``features`` rows include a constant intercept column at
    ``intercept_column`` (excluded from the regularization norm); ``groups``
    partitions the row indices by the binarized sensitive attribute.
    """

    features: np.ndarray
    labels: np.ndarray
    groups: tuple[np.ndarray, ...]
    regularizers: np.ndarray
    intercept_column: int

    def __post_init__(self):
        A = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "features", A)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "regularizers", np.asarray(self.regularizers, dtype=float))
        object.__setattr__(self, "groups", tuple(np.asarray(g, dtype=int) for g in self.groups))
        if A.ndim != 2 or y.shape != (A.shape[0],):
            raise ValueError("features must be (N, n) with matching labels")
        if not set(np.unique(y)) <= {-1.0, 1.0}:
            raise LabelDomainError("labels must be in {-1, +1}")
        if len(self.groups) != self.regularizers.shape[0]:
            raise ValueError("one regularizer per group required")
        seen = np.concatenate(self.groups) if self.groups else np.array([], dtype=int)
        if sorted(seen.tolist()) != list(range(A.shape[0])):
            raise ValueError("groups must partition the rows")
        for i, g in enumerate(self.groups):
            if g.size == 0:
                raise EmptyGroupError(f"group {i} is empty")
        if not 0 <= self.intercept_column < A.shape[1]:
            raise ValueError("intercept_column out of range")

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def q(self) -> int:
        return len(self.groups)

    @property
    def N(self) -> int:
        return self.features.shape[0]

    def reg_mask(self) -> np.ndarray:
        mask = np.ones(self.n)
        mask[self.intercept_column] = 0.0
        return mask


def _logistic_stack(A, y, X, lams, mask, need_hessians):
    """Regularized logistic loss of K row blocks at once.

    ``A`` (K, m, n) and ``y`` (K, m) hold each block's rows, ``X`` (K, n)
    its point and ``lams`` (K,) its regularizer. Returns values (K,),
    gradients (K, n) and Hessians (K, n, n), or None in their place when
    not ``need_hessians``. Products are stacked matmuls, one BLAS call per
    item, so item k depends on item k's inputs only, not on K.
    """
    m = A.shape[1]
    M = y * (A @ X[:, :, None])[:, :, 0]       # margins
    s = 1.0 / (1.0 + np.exp(M))                 # sigma(-margin)
    Xh = X * mask
    f = (np.logaddexp(0.0, -M).sum(axis=1) / m
         + 0.5 * lams * (Xh[:, None, :] @ Xh[:, :, None])[:, 0, 0])
    g = -((y * s)[:, None, :] @ A)[:, 0] / m + lams[:, None] * Xh
    if not need_hessians:
        return f, g, None
    # A fixed C layout gives every item the same BLAS call, whatever K and
    # whether A is a gather or a broadcast block.
    Aw = np.multiply(A, (s * (1.0 - s))[:, :, None], order="C")
    H = Aw.transpose(0, 2, 1) @ A / m + lams[:, None, None] * np.diag(mask)
    return f, g, H


@functools.lru_cache(maxsize=4096)
def _group_sample_size(F: float, G: float, delta: float, alpha: float,
                       group_size: int) -> int:
    """One subsample serves values and gradients: the larger requirement.
    Cached: a run meets the same few radii again and again."""
    return max(required_sample_size("value", float(F), delta, alpha, group_size),
               required_sample_size("gradient", float(G), delta, alpha, group_size))


# A rejected iteration re-evaluates x, an accepted one moves to the last trial
# point, and exact_evaluate(x) follows evaluate(x): four points per state in
# the batch cover reuse.
_MEMO_POINTS = 4


class FiniteSumOracle(Oracle):
    """Adaptive-subsampling oracle for a FiniteSumProblem.

    ``constants_mode`` picks the sample-size bound constants: 'estimated'
    uses a fixed constant (default 1.0, the practical law), 'analytic' the
    closed-form value/gradient bounds which grow like e^||x||.

    Each group's rows are stored once as a contiguous block in ascending row
    order. A batch draws every state's subsamples from that state's stream,
    then evaluates all (state, group) blocks of one row count in one
    ``_logistic_stack`` call. A full-batch group evaluation draws no
    randomness, so its result is memoised for the last few points of every
    state in the batch; results are bit-identical to ``subsampled_evaluate``
    and costs count the rows requested, memo hits included.
    """

    def __init__(self, problem: FiniteSumProblem, constants_mode: str = "estimated",
                 constant_value: float = 1.0):
        if constants_mode not in ("estimated", "analytic"):
            raise ConfigError(f"bad constants_mode {constants_mode!r}")
        if constant_value <= 0:
            raise ConfigError("constant_value must be positive")
        self.problem = problem
        self.constants_mode = constants_mode
        self.constant_value = constant_value
        self.n = problem.n
        self.q = problem.q
        self.stochastic = True
        self.exact_available = True
        self._max_feature_norm = float(np.linalg.norm(problem.features, axis=1).max())
        self._mask = problem.reg_mask()
        self._sizes = [rows.size for rows in problem.groups]
        self._blocks = []
        for rows in problem.groups:
            order = np.sort(rows)
            self._blocks.append((problem.features[order], problem.labels[order]))
        self._memo: OrderedDict = OrderedDict()
        self._memo_points = _MEMO_POINTS

    def group_sizes(self) -> np.ndarray:
        return np.array(self._sizes, dtype=int)

    def exact_cost(self) -> int:
        return self.problem.N

    def _evaluate(self, X, rows, need_hessians):
        """Values (B, q), gradients (B, q, n) and Hessians (B, q, n, n) or
        None: group i of state b on the sorted rows ``rows[b][i]``, or on its
        whole block, memoised, where that is None.

        Memo hits are served first. The other blocks are bucketed, and each
        bucket is one ``_logistic_stack`` call: the whole blocks of one group
        (its stored block, broadcast), or the subsamples of one size.
        """
        B, q, n = X.shape[0], self.q, self.n
        self._memo_points = _MEMO_POINTS * B
        subs = [sub for state_rows in rows for sub in state_rows]     # cell b * q + i
        f, g = np.empty(B * q), np.empty((B * q, n))
        H = np.empty((B * q, n, n)) if need_hessians else None
        points = [x.tobytes() for x in X]
        buckets: dict = {}
        for c, sub in enumerate(subs):
            key = None if sub is not None else (c % q, points[c // q])
            hit = None if key is None else self._memo.get(key)
            if hit is None or (need_hessians and hit[2] is None):
                buckets.setdefault(sub.size if key is None else ("all", c % q), []).append(c)
                continue
            self._memo.move_to_end(key)
            f[c], g[c] = hit[0], hit[1]
            if need_hessians:
                H[c] = hit[2]
        for bucket, cells in buckets.items():
            cells = np.array(cells)
            bs, gs = np.divmod(cells, q)
            if isinstance(bucket, tuple):
                A, y = (np.broadcast_to(a, (len(cells),) + a.shape)
                        for a in self._blocks[bucket[1]])
            else:
                idx = np.array([subs[c] for c in cells.tolist()])
                A, y = self.problem.features[idx], self.problem.labels[idx]
            fk, gk, Hk = _logistic_stack(A, y, X[bs], self.problem.regularizers[gs],
                                         self._mask, need_hessians)
            f[cells], g[cells] = fk, gk
            if need_hessians:
                H[cells] = Hk
            if isinstance(bucket, tuple):
                self._remember(bucket[1], [points[b] for b in bs.tolist()], fk, gk, Hk)
        while len(self._memo) > self._memo_points * q:
            self._memo.popitem(last=False)
        return (f.reshape(B, q), g.reshape(B, q, n),
                None if H is None else H.reshape(B, q, n, n))

    def _remember(self, i, points, f, g, H):
        """Memoise group ``i``'s whole-block results at ``points`` (x bytes);
        the arrays are shared between calls, so read-only."""
        for a in (g, H):
            if a is not None:
                a.flags.writeable = False
        for j, point in enumerate(points):
            self._memo.pop((i, point), None)
            self._memo[(i, point)] = (float(f[j]), g[j], None if H is None else H[j])

    def exact_evaluate(self, x, need_hessians=False):
        f, g, H = self.exact_evaluate_batch(as_decision_vector(x, self.n)[None], need_hessians)
        return f[0], g[0], None if H is None else H[0]

    def exact_evaluate_batch(self, X, need_hessians=False):
        X = as_decision_batch(X, self.n)
        return self._evaluate(X, [[None] * self.q] * X.shape[0], need_hessians)

    def _bound_constants(self, x):
        if self.constants_mode == "analytic":
            return analytic_bound_constants(
                self._max_feature_norm, self.problem.regularizers, x)
        c = self.constant_value
        return [c] * self.q, [c] * self.q

    def _sample_sizes(self, X, deltas, alphas) -> np.ndarray:
        """(B, q) subsample sizes from the scalar formula; a repeated
        (constants, delta, alpha) is served by ``_group_sample_size``'s cache."""
        sizes = []
        for x, delta, alpha in zip(X, np.asarray(deltas, dtype=float).tolist(), alphas):
            F, G = self._bound_constants(x)
            sizes.append([_group_sample_size(F[i], G[i], delta, float(alpha), size)
                          for i, size in enumerate(self._sizes)])
        return np.array(sizes, dtype=int).reshape(X.shape[0], self.q)

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        return self.evaluate_one(x, delta, alpha, rng, need_hessians)

    def evaluate_batch(self, X, deltas, alphas, rngs, need_hessians=False):
        X = as_decision_batch(X, self.n)
        sizes = self._sample_sizes(X, deltas, alphas)
        # State b draws group 0's subsample, then group 1's, ... from rngs[b].
        rows = [[np.sort(rng.choice(group, size=m, replace=False)) if m < size else None
                 for m, size, group in zip(ms, self._sizes, self.problem.groups)]
                for ms, rng in zip(sizes.tolist(), rngs)]
        f, g, H = self._evaluate(X, rows, need_hessians)
        return SampleBatch(values=f, gradients=g, delta=deltas, sample_sizes=sizes,
                           cost=sizes.sum(axis=1), hessians=H)


def required_sample_size(kind: str, bound_constant: float, delta: float,
                         alpha: float, group_size: int | None = None) -> int:
    """Subsample size guaranteeing the value/gradient accuracy target with
    probability alpha; 'value' scales with delta^-4, 'gradient' with delta^-2.

    At least 1, capped at ``group_size`` when given (full-batch fallback).
    The cap is decided in log space first, so radii small enough to overflow
    delta^-4 still return the group size.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if bound_constant <= 0:
        raise ValueError("bound_constant must be positive")
    if kind not in ("value", "gradient"):
        raise ValueError(f"bad kind {kind!r}")
    power = 4 if kind == "value" else 2
    amp = (1.0 + math.sqrt(8.0 * math.log(1.0 / (1.0 - alpha)))) ** 2
    if group_size is not None:
        log_bound = 2.0 * math.log(bound_constant) + math.log(amp) - power * math.log(delta)
        # A margin of a factor e keeps rounding in either formula from
        # deciding the cap differently.
        if log_bound > math.log(max(group_size, 1)) + 1.0:
            return group_size
    bound = bound_constant ** 2 / delta ** power * amp
    size = max(1, math.ceil(bound))
    if group_size is not None:
        size = min(size, group_size)
    return size


def analytic_bound_constants(max_feature_norm: float, regularizers,
                                    x) -> tuple[np.ndarray, np.ndarray]:
    """Analytic value/gradient upper-bound constants for the logistic losses."""
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    lams = np.asarray(regularizers, dtype=float)
    F = math.exp(nx) * max_feature_norm + math.log(2.0) + 0.5 * lams * nx ** 2
    G = max_feature_norm + lams * nx
    return F, G


def subsampled_evaluate(problem: FiniteSumProblem, x, delta: float, alpha: float,
                        rng: np.random.Generator, need_hessians: bool = False,
                        bound_constants=None) -> ObjectiveSample:
    """Evaluate each group loss on a uniform without-replacement subsample.

    One subsample per group serves values, gradients and (optionally)
    Hessians; its size is the max of the value and gradient requirements.
    Cost is the total number of subsampled rows (one scalar product each).
    FiniteSumOracle.evaluate gives the same bits and rng draws; this is the
    plain reference, with no stored blocks and no memo: one group at a time
    through the same kernel.
    """
    x = as_decision_vector(x, problem.n)
    if bound_constants is None:
        F = G = np.ones(problem.q)
    else:
        F, G = bound_constants
    mask = problem.reg_mask()
    parts, sizes = [], []
    for i, (rows, lam) in enumerate(zip(problem.groups, problem.regularizers)):
        m = _group_sample_size(F[i], G[i], delta, alpha, rows.size)
        sub = np.sort(rows if m >= rows.size else rng.choice(rows, size=m, replace=False))
        parts.append(_logistic_stack(problem.features[sub][None], problem.labels[sub][None],
                                     x[None], np.array([lam]), mask, need_hessians))
        sizes.append(m)
    f, g, H = (None if p[0] is None else np.concatenate(p) for p in zip(*parts))
    return ObjectiveSample(values=f, gradients=g, delta=delta, sample_sizes=sizes,
                           cost=sum(sizes), hessians=H)


class ExactOracle(Oracle):
    """Deterministic full-accuracy adapter: every evaluation is exact and
    costs one full batch. Used by the deterministic baseline."""

    def __init__(self, inner: Oracle):
        if not inner.exact_available:
            raise ConfigError("inner oracle has no exact evaluation")
        self.inner = inner
        self.n = inner.n
        self.q = inner.q
        self.stochastic = False
        self.exact_available = True

    def exact_evaluate(self, x, need_hessians=False):
        return self.inner.exact_evaluate(x, need_hessians)

    def exact_evaluate_batch(self, X, need_hessians=False):
        return self.inner.exact_evaluate_batch(X, need_hessians)

    def exact_cost(self) -> int:
        return self.inner.exact_cost()

    def group_sizes(self) -> np.ndarray:
        return self.inner.group_sizes()

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        return self.evaluate_one(x, delta, alpha, rng, need_hessians)

    def evaluate_batch(self, X, deltas, alphas, rngs, need_hessians=False):
        f, g, h = self.inner.exact_evaluate_batch(X, need_hessians)
        B = f.shape[0]
        return SampleBatch(values=f, gradients=g, delta=deltas,
                           sample_sizes=np.tile(self.group_sizes(), (B, 1)),
                           cost=np.full(B, self.exact_cost()), hessians=h)


# ---------------------------------------------------------------------------
# Dataset ingestion.

def _binarize(column: np.ndarray) -> np.ndarray:
    """Two groups from a sensitive attribute: exact match for binary columns,
    median threshold otherwise."""
    uniq = np.unique(column)
    if uniq.size < 2:
        raise EmptyGroupError("sensitive column is constant; cannot split")
    if uniq.size == 2:
        return (column == uniq[1]).astype(int)
    return (column > np.median(column)).astype(int)


def _map_labels(raw: np.ndarray, convention: str) -> np.ndarray:
    if convention == "pm1":
        if not set(np.unique(raw)) <= {-1.0, 1.0}:
            raise LabelDomainError("labels not in {-1, +1}")
        return raw
    if convention == "zeroone":
        if not set(np.unique(raw)) <= {0.0, 1.0}:
            raise LabelDomainError("labels not in {0, 1}")
        return 2.0 * raw - 1.0
    raise ConfigError(f"bad label convention {convention!r}")


def _parse_csv(path: str, has_header: bool) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if has_header and lineno == 1:
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def _parse_libsvm(path: str) -> tuple[np.ndarray, np.ndarray]:
    labels = []
    entries = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
                row = {}
                for item in parts[1:]:
                    idx, val = item.split(":")
                    row[int(idx)] = float(val)
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if row:
                max_idx = max(max_idx, max(row))
            entries.append(row)
    if not entries:
        raise ParseError(f"{path}: no data rows")
    X = np.zeros((len(entries), max_idx))
    for i, row in enumerate(entries):
        for idx, val in row.items():
            X[i, idx - 1] = val     # LIBSVM indices are 1-based
    return X, np.array(labels)


def load_dataset(path: str, format: str, sensitive_column: int,
                 label_convention: str = "pm1", label_column: int = 0,
                 has_header: bool = False, keep_sensitive: bool = True,
                 regularizer: float = 0.1) -> FiniteSumProblem:
    """Load a CSV or LIBSVM file into a two-group FiniteSumProblem.

    An intercept column of ones is appended as the last feature column;
    ``sensitive_column`` indexes the feature columns after the label is
    removed (CSV) or the raw feature columns (LIBSVM).
    """
    if format == "csv":
        table = _parse_csv(path, has_header)
        if not 0 <= label_column < table.shape[1]:
            raise ConfigError("label_column out of range")
        raw_labels = table[:, label_column]
        X = np.delete(table, label_column, axis=1)
    elif format == "libsvm":
        X, raw_labels = _parse_libsvm(path)
    else:
        raise ConfigError(f"bad dataset format {format!r}")

    if not 0 <= sensitive_column < X.shape[1]:
        raise ConfigError("sensitive_column out of range")
    y = _map_labels(raw_labels, label_convention)
    split = _binarize(X[:, sensitive_column])
    if not keep_sensitive:
        X = np.delete(X, sensitive_column, axis=1)
    X = np.hstack([X, np.ones((X.shape[0], 1))])
    groups = (np.flatnonzero(split == 0), np.flatnonzero(split == 1))
    for i, g in enumerate(groups):
        if g.size == 0:
            raise EmptyGroupError(f"group {i} is empty after splitting")
    return FiniteSumProblem(features=X, labels=y, groups=groups,
                            regularizers=np.array([regularizer, regularizer]),
                            intercept_column=X.shape[1] - 1)


def make_synthetic_logistic(num_samples: int = 300, num_features: int = 10,
                            seed: int = 7, regularizer: float = 0.1) -> FiniteSumProblem:
    """Desk-scale synthetic classification problem split into two groups."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    X = rng.standard_normal((num_samples, num_features - 1))
    truth = rng.standard_normal(num_features - 1)
    margin = X @ truth + 0.5 * rng.standard_normal(num_samples)
    y = np.where(margin > 0, 1.0, -1.0)
    X = np.hstack([X, np.ones((num_samples, 1))])
    half = num_samples // 2
    groups = (np.arange(half), np.arange(half, num_samples))
    return FiniteSumProblem(features=X, labels=y, groups=groups,
                            regularizers=np.array([regularizer, regularizer]),
                            intercept_column=num_features - 1)
