"""Objective-evaluation backends.

Three families: exact analytic test problems, the same problems with
radius-scaled Gaussian noise, and finite-sum regularized logistic regression
split into sensitive-attribute groups with adaptive subsampling.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DimensionMismatchError,
    ObjectiveSample,
    Oracle,
    PhiloxStream,
    RngStream,
    SampleBatch,
    Streams,
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
    R = np.stack([X, X - 5.0], axis=1)      # x - c_i for the centres 0 and (5, 5)
    h = np.tile(2.0 * np.eye(2), (X.shape[0], 2, 1, 1)) if need_hessians else None
    return (R * R).sum(axis=2), 2.0 * R, h


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


# name -> (n, q, batch function); test1's front is convex, test2's is not.
ANALYTIC = {"test1": (2, 2, _test1), "test2": (2, 2, _test2)}


@dataclass(frozen=True)
class AnalyticProblem:
    """Named benchmark of the ``ANALYTIC`` table, with its n and q."""

    name: str
    n: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        if self.name not in ANALYTIC:
            raise ConfigError(f"unknown analytic problem {self.name!r}")
        object.__setattr__(self, "n", ANALYTIC[self.name][0])
        object.__setattr__(self, "q", ANALYTIC[self.name][1])

    def exact_batch(self, X, need_hessians: bool = True):
        """Values (B, q), gradients (B, q, n) and Hessians (B, q, n, n), or
        None in their place when not ``need_hessians``."""
        return ANALYTIC[self.name][2](as_decision_batch(X, self.n), need_hessians)


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


# A bounded-noise component outside its cap draws this many candidates a
# round (an even count: whole pairs of raw values) and keeps the first one
# inside; 10,000 candidates without one end the draw.
_CANDIDATES = 8
_ROUNDS = -(-10_000 // _CANDIDATES)


@functools.lru_cache(maxsize=None)
def _noise_layout(q: int, n: int, shared: bool):
    """Where a state's draws go: the columns of its value noise (q,) and of
    its gradient noise (q, n) in its row of draws, and its components in
    column order, as (first column, size, whether a gradient vector) per
    component; shared, so read-only."""
    if shared:      # f_1, the shared gradient vector, f_2, ..., f_q
        f, g = np.r_[0, n + 1:n + q], np.tile(np.arange(1, n + 1), (q, 1))
        grad = np.r_[False, True, np.zeros(q - 1, dtype=bool)]
    else:           # per objective: f_i, then g_i
        cols = np.arange(q * (1 + n)).reshape(q, 1 + n)
        f, g = cols[:, 0], cols[:, 1:]
        grad = np.tile([False, True], q)
    sizes = np.where(grad, n, 1)
    layout = f, g, np.cumsum(sizes) - sizes, sizes, grad
    for a in layout:
        a.flags.writeable = False
    return layout


def draw_noise(noise: NoiseSpec, rngs: Streams, rows: np.ndarray, q: int,
               n: int) -> tuple[np.ndarray, np.ndarray]:
    """Value noise (B, q) and gradient noise (B, q, n), state b drawing from
    row ``rows[b]`` of ``rngs``: m normals in column order, per objective
    its value noise, then its gradient noise vector (drawn once, after the
    first value, when shared); all states in one ``Streams.normals`` call.

    With ``bounded`` set, each component outside its cap (|e| <= cap_f for
    a value, sqrt(e . e) <= cap_g for a gradient vector) is redrawn by
    block rejection: in a round, every such component of every state draws
    ``_CANDIDATES`` candidates (of its size) and takes the first one
    inside, each state drawing its components' candidates in column order,
    all states in one call. A component without one goes on to the next
    round; after ``_ROUNDS`` rounds the draw is a ValueError. An accepted
    value has the law of sequential rejection (Devroye, *Non-Uniform Random
    Variate Generation*, 1986, ch. II.3).
    """
    f_cols, g_cols, starts, sizes, grad = _noise_layout(q, n, noise.shared_gradient_noise)
    m = int(sizes.sum())
    Z = rngs.normals(rows, m, noise.sigma).reshape(rows.size, m)
    if not noise.bounded:
        return Z[:, f_cols], Z[:, g_cols]
    states, out = np.arange(rows.size), np.ones((rows.size, sizes.size), dtype=bool)
    drawn, k = Z.ravel(), 1         # round 0 checks the first draws
    for i in range(_ROUNDS + 1):
        if i:
            k = _CANDIDATES
            drawn = rngs.normals(rows[states], (out * sizes).sum(axis=1) * k, noise.sigma)
        need = out * sizes * k      # at: where each (state, component)'s candidates start
        at = (np.cumsum(need) - need.ravel()).reshape(need.shape)
        for g, size, cap in ((False, 1, noise.cap_f), (True, n, noise.cap_g)):
            r, c = np.nonzero(out & (grad == g))
            E = drawn[at[r, c, None] + np.arange(k * size)].reshape(-1, k, size)
            inside = (np.sqrt(np.vecdot(E, E)) if g else np.abs(E[..., 0])) <= cap
            hit = inside.any(axis=1)
            r, c = r[hit], c[hit]
            Z[states[r, None], starts[c, None] + np.arange(size)] = E[hit, inside.argmax(axis=1)[hit]]
            out[r, c] = False
        keep = out.any(axis=1)
        states, out = states[keep], out[keep]
        if not states.size:
            return Z[:, f_cols], Z[:, g_cols]
    cap = noise.cap_g if grad[np.argmax(out[0])] else noise.cap_f
    raise ValueError(f"bounded noise: no draw within cap {cap} in 10000 tries")


class AnalyticOracle(Oracle):
    """Analytic problem, optionally perturbed by a NoiseSpec."""

    def __init__(self, problem: AnalyticProblem, noise: NoiseSpec | None = None):
        self.problem = problem
        self.noise = noise if noise is not None else NoiseSpec()
        self.n = problem.n
        self.q = problem.q

    # The one-point forms, in this class's namespace for perfbench/tracer.py.
    evaluate, exact_evaluate = Oracle.evaluate, Oracle.exact_evaluate

    def exact_evaluate_batch(self, X, need_hessians=False):
        return self.problem.exact_batch(X, need_hessians)

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        """Exact arrays of every state plus its radius-scaled noise: values
        get eps * delta^2 and gradients eps * delta."""
        f, g, h = self.problem.exact_batch(X, need_hessians)
        B, q, n = g.shape
        if self.noise.sigma > 0:
            deltas = np.asarray(deltas, dtype=float)
            eps_f, eps_g = draw_noise(self.noise, rngs, rows, q, n)
            f = f + eps_f * (deltas * deltas)[:, None]
            g = g + eps_g * deltas[:, None, None]
        return SampleBatch(values=f, gradients=g, sample_sizes=np.zeros((B, q), dtype=int),
                           hessians=h)


# ---------------------------------------------------------------------------
# Finite-sum logistic regression with group split.

@dataclass(frozen=True)
class FiniteSumProblem:
    """Group-split regularized logistic regression.

    ``features`` rows include a constant intercept column at
    ``intercept_column`` (excluded from the regularization norm); ``groups``
    are step-1 ranges of rows that tile ``range(N)`` in group order.
    """

    features: np.ndarray
    labels: np.ndarray
    groups: tuple[range, ...]
    regularizers: np.ndarray
    intercept_column: int

    def __post_init__(self):
        A = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "features", A)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "regularizers", np.asarray(self.regularizers, dtype=float))
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        if A.ndim != 2 or y.shape != (A.shape[0],):
            raise ValueError("features must be (N, n) with matching labels")
        if not (np.abs(y) == 1.0).all():
            raise LabelDomainError("labels must be in {-1, +1}")
        if len(groups) != self.regularizers.shape[0]:
            raise ValueError("one regularizer per group required")
        if (not all(isinstance(g, range) and g.step == 1 for g in groups)
                or [g.start for g in groups] + [A.shape[0]] != [0] + [g.stop for g in groups]):
            raise ValueError(f"groups must be step-1 ranges tiling rows 0..{A.shape[0]} in order")
        for i, g in enumerate(groups):
            if not g:
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
    not ``need_hessians``. Item k depends on item k's inputs only, not on K
    or on the other items (the batch-composition tests check this bit for
    bit).
    """
    m = A.shape[1]
    M = y * np.matvec(A, X)                     # margins
    s = 1.0 / (1.0 + np.exp(M))                 # sigma(-margin)
    # log(1 + e^-M) = max(-M, 0) + log1p(e^-|M|), on numpy's vector exp and
    # log1p (logaddexp calls scalar libm per element); M is not read again.
    loss = np.abs(M)
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    loss -= np.minimum(M, 0.0, out=M)
    Xh = X * mask
    f = loss.sum(axis=1) / m + 0.5 * lams * np.vecdot(Xh, Xh)
    g = -np.vecmat(y * s, A) / m + lams[:, None] * Xh
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
# point, and exact_evaluate(x) follows evaluate(x): four points per state of
# the largest batch served cover reuse, also across smaller calls.
_MEMO_POINTS = 4

# The rows of a subsample bucket are gathered in chunks of at most this many
# bytes (one cell at least): the gather is a run's largest temporary, and the
# cells are independent, so the chunks change no result.
_GATHER_BYTES = 1 << 18


class FiniteSumOracle(Oracle):
    """Adaptive-subsampling oracle for a FiniteSumProblem.

    ``constants_mode`` picks the sample-size bound constants: 'estimated'
    uses a fixed constant (default 1.0, the practical law), 'analytic' the
    closed-form value/gradient bounds which grow like e^||x||.

    Group i's block is its row range, a view of the problem's arrays; a
    subsample is the range's start plus sorted offsets. A batch draws
    every state's subsamples from that state's stream, then evaluates all
    (state, group) blocks of one row count in one ``_logistic_stack``
    call per 256 KiB of gathered rows. A full-batch
    group evaluation draws no randomness, so its result is memoised for the
    last few points of every state of the largest batch served; results are
    bit-identical to ``subsampled_evaluate`` and costs count the rows
    requested, memo hits included.
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
        step = max(1, _GATHER_BYTES // (8 * self.n))
        self._max_feature_norm = max(
            float(np.linalg.norm(problem.features[i:i + step], axis=1).max())
            for i in range(0, problem.N, step))
        self._mask = problem.reg_mask()
        self._sizes = [len(group) for group in problem.groups]
        self._blocks = [(problem.features[g.start:g.stop], problem.labels[g.start:g.stop])
                        for g in problem.groups]
        self._memo: OrderedDict = OrderedDict()
        self._memo_capacity = 0

    # The one-point forms, in this class's namespace for perfbench/tracer.py.
    evaluate, exact_evaluate = Oracle.evaluate, Oracle.exact_evaluate

    def group_sizes(self) -> np.ndarray:
        return np.array(self._sizes, dtype=int)

    def _evaluate(self, X, rows, need_hessians):
        """Values (B, q), gradients (B, q, n) and Hessians (B, q, n, n) or
        None: group i of state b on the sorted rows ``rows[b][i]``, or on its
        whole block, memoised, where that is None.

        Memo hits are served first. The other blocks are bucketed: the whole
        blocks of one group (its stored block, broadcast) are one
        ``_logistic_stack`` call, the subsamples of one size one call per
        ``_GATHER_BYTES`` of gathered rows.
        """
        B, q, n = X.shape[0], self.q, self.n
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
        chunks = []
        for bucket, cells in buckets.items():
            step = (len(cells) if isinstance(bucket, tuple)
                    else max(1, _GATHER_BYTES // (8 * n * bucket)))
            chunks += [(bucket, cells[i:i + step]) for i in range(0, len(cells), step)]
        for bucket, cells in chunks:
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
            del A, y        # a gathered block is freed before the next gather
            f[cells], g[cells] = fk, gk
            if need_hessians:
                H[cells] = Hk
            if isinstance(bucket, tuple):
                self._remember(bucket[1], [points[b] for b in bs.tolist()], fk, gk, Hk)
        self._memo_capacity = max(self._memo_capacity, _MEMO_POINTS * B * q)
        while len(self._memo) > self._memo_capacity:
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

    def exact_evaluate_batch(self, X, need_hessians=False):
        X = as_decision_batch(X, self.n)
        return self._evaluate(X, [[None] * self.q] * X.shape[0], need_hessians)

    def _bound_constants(self, x):
        if self.constants_mode == "analytic":
            return analytic_bound_constants(
                self._max_feature_norm, self.problem.regularizers, x)
        c = self.constant_value
        return [c] * self.q, [c] * self.q

    def _sample_sizes(self, X, deltas, alpha) -> np.ndarray:
        """(B, q) subsample sizes from the scalar formula; a repeated
        (constants, delta, alpha) is served by ``_group_sample_size``'s cache."""
        sizes = []
        for x, delta in zip(X, np.asarray(deltas, dtype=float).tolist()):
            F, G = self._bound_constants(x)
            sizes.append([_group_sample_size(F[i], G[i], delta, float(alpha), size)
                          for i, size in enumerate(self._sizes)])
        return np.array(sizes, dtype=int).reshape(X.shape[0], self.q)

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        X = as_decision_batch(X, self.n)
        sizes = self._sample_sizes(X, deltas, alpha)
        # State b draws group 0's subsample, then group 1's, ... from numpy's
        # Generator on row rows[b] of rngs.
        subsets = [[group.start + np.sort(rngs.numpy_generator(b).choice(len(group), size=m,
                                                                           replace=False))
                    if m < len(group) else None for m, group in zip(ms, self.problem.groups)]
                   for ms, b in zip(sizes.tolist(), rows.tolist())]
        f, g, H = self._evaluate(X, subsets, need_hessians)
        return SampleBatch(values=f, gradients=g, sample_sizes=sizes, hessians=H)


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
    # exp overflows past log(max float); an infinite F takes the whole group.
    e = math.exp(nx) if nx <= math.log(np.finfo(float).max) else math.inf
    F = e * max_feature_norm + math.log(2.0) + 0.5 * lams * nx ** 2
    G = max_feature_norm + lams * nx
    return F, G


def subsampled_evaluate(problem: FiniteSumProblem, x, delta: float, alpha: float,
                        rng: PhiloxStream, need_hessians: bool = False) -> ObjectiveSample:
    """Evaluate each group loss on a uniform without-replacement subsample.

    One subsample per group serves values, gradients and (optionally)
    Hessians; its size is the max of the value and gradient requirements,
    with bound constants 1. Cost is the number of subsampled rows (one
    scalar product each).
    FiniteSumOracle.evaluate gives the same bits and rng draws; this is the
    plain reference, with no stored blocks and no memo: one group at a time
    through the same kernel.
    """
    x = as_decision_vector(x, problem.n)
    mask = problem.reg_mask()
    parts, sizes = [], []
    for group, lam in zip(problem.groups, problem.regularizers):
        m = _group_sample_size(1.0, 1.0, delta, alpha, len(group))
        sub = (group if m >= len(group)
               else group.start + np.sort(rng.choice(len(group), size=m, replace=False)))
        parts.append(_logistic_stack(problem.features[sub][None], problem.labels[sub][None],
                                     x[None], np.array([lam]), mask, need_hessians))
        sizes.append(m)
    f, g, H = (None if p[0] is None else np.concatenate(p) for p in zip(*parts))
    return ObjectiveSample(values=f, gradients=g, sample_sizes=sizes, hessians=H)


class ExactOracle(Oracle):
    """Deterministic full-accuracy adapter: every evaluation is exact and
    costs one full batch (the sum of the group sizes). Used by the
    deterministic baseline."""

    def __init__(self, inner: Oracle):
        if not inner.exact_available:
            raise ConfigError("inner oracle has no exact evaluation")
        self.inner = inner
        self.n = inner.n
        self.q = inner.q

    # The one-point forms, in this class's namespace for perfbench/tracer.py.
    evaluate, exact_evaluate = Oracle.evaluate, Oracle.exact_evaluate

    def exact_evaluate_batch(self, X, need_hessians=False):
        return self.inner.exact_evaluate_batch(X, need_hessians)

    def group_sizes(self) -> np.ndarray:
        return self.inner.group_sizes()

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        f, g, h = self.inner.exact_evaluate_batch(X, need_hessians)
        return SampleBatch(values=f, gradients=g,
                           sample_sizes=np.tile(self.group_sizes(), (f.shape[0], 1)), hessians=h)


# ---------------------------------------------------------------------------
# Dataset ingestion.

# These checks avoid np.unique, which in numpy 2 imports numpy.ma: a run
# would load that module for them alone.

def _binarize(column: np.ndarray) -> np.ndarray:
    """Two groups from a sensitive attribute: exact match for binary columns,
    median threshold otherwise."""
    lo, hi = column.min(), column.max()
    if not lo < hi:
        raise EmptyGroupError("sensitive column is constant; cannot split")
    if ((column == lo) | (column == hi)).all():
        return (column == hi).astype(int)
    median = float(np.median(column))
    split = column > median
    if not split.any():
        raise EmptyGroupError(f"no sensitive value is above the median {median!r}: "
                              "the median split leaves group 1 empty")
    return split.astype(int)


def _map_labels(labels: np.ndarray, convention: str) -> None:
    """Check ``labels`` against ``convention`` and map them to -1/+1 in place."""
    if convention == "pm1":
        if not (np.abs(labels) == 1.0).all():
            raise LabelDomainError("labels not in {-1, +1}")
    elif convention == "zeroone":
        if not ((labels == 0.0) | (labels == 1.0)).all():
            raise LabelDomainError("labels not in {0, 1}")
        labels *= 2.0
        labels -= 1.0
    else:
        raise ConfigError(f"bad label convention {convention!r}")


def _lines(path: str, has_header: bool = False):
    """(line number, stripped line) of the data lines of a UTF-8 text file:
    the non-blank ones, after the first line when ``has_header``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not (has_header and lineno == 1):
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_csv(path: str, has_header: bool) -> np.ndarray:
    """Dense float table; the first line is skipped as a header when
    ``has_header``, blank lines are skipped and there are no comments. A
    non-finite value is an error naming its line and column (from 0)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # no data: reported below
            table = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(has_header),
                               comments=None, dtype=float, encoding="utf-8")
    except ValueError:
        table = _scan_csv(path, has_header)
    if table.size == 0:
        raise ParseError(f"{path}: no data rows")
    finite = np.isfinite(table)
    if not finite.all():
        row, column = divmod(int(np.argmin(finite)), table.shape[1])
        lineno = [lineno for lineno, _ in _lines(path, has_header)][row]
        raise ParseError(f"{path}:{lineno}: column {column}: "
                         f"non-finite value {float(table[row, column])!r}")
    return table


def _scan_csv(path: str, has_header: bool) -> np.ndarray:
    """``_parse_csv`` line by line, so that an error names its line; this
    also reads whitespace-only lines, which ``np.loadtxt`` rejects."""
    rows, width = [], None
    for lineno, line in _lines(path, has_header):
        try:
            row = np.loadtxt([line], delimiter=",", comments=None, dtype=float)
        except ValueError as exc:      # numpy's position is within the one line
            raise ParseError(f"{path}:{lineno}: {str(exc).split(' at row ')[0]}") from None
        if width is None:
            width = row.size
        elif row.size != width:
            raise ParseError(f"{path}:{lineno}: expected {width} fields, got {row.size}")
        rows.append(row)
    return np.array(rows).reshape(len(rows), width or 0)


def _parse_libsvm(path: str) -> tuple[np.ndarray, np.ndarray]:
    labels = []
    entries = []
    max_idx = 0
    for lineno, line in _lines(path):
        parts = line.split()
        try:
            label = float(parts[0])
            row = {}
            for item in parts[1:]:
                idx, val = item.split(":")
                idx = int(idx)
                if idx in row:
                    raise ValueError(f"repeated feature index {idx}")
                row[idx] = float(val)
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if row and min(row) < 1:
            raise ParseError(f"{path}:{lineno}: feature index must be >= 1")
        for column, val in [(0, label), *row.items()]:    # the label is column 0
            if not math.isfinite(val):
                raise ParseError(f"{path}:{lineno}: column {column}: non-finite value {val!r}")
        labels.append(label)
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
    removed (CSV) or the raw feature columns (LIBSVM, indices from 1).
    The data is held once, with rows stored group by group, each in file
    order: ``features`` row i is in general not file row i. Non-finite
    values are a ParseError.
    """
    if format == "csv":
        table = _parse_csv(path, has_header)
        if not 0 <= label_column < table.shape[1]:
            raise ConfigError("label_column out of range")
        raw_labels = table[:, label_column]
        columns = [c for c in range(table.shape[1]) if c != label_column]
    elif format == "libsvm":
        table, raw_labels = _parse_libsvm(path)
        columns = list(range(table.shape[1]))
    else:
        raise ConfigError(f"bad dataset format {format!r}")

    if not 0 <= sensitive_column < len(columns):
        raise ConfigError("sensitive_column out of range")
    _map_labels(raw_labels, label_convention)      # in place: the table is ours
    split = _binarize(table[:, columns[sensitive_column]])
    if not keep_sensitive:
        del columns[sensitive_column]
    order = np.argsort(split, kind="stable")
    X = np.empty((order.size, len(columns) + 1))
    for j, c in enumerate(columns):
        X[:, j] = table[order, c]
    X[:, -1] = 1.0
    n0 = order.size - int(split.sum())
    return FiniteSumProblem(features=X, labels=raw_labels[order],
                            groups=(range(n0), range(n0, order.size)),
                            regularizers=np.array([regularizer, regularizer]),
                            intercept_column=X.shape[1] - 1)


def make_synthetic_logistic(num_samples: int = 300, num_features: int = 10,
                            seed: int = 7, regularizer: float = 0.1) -> FiniteSumProblem:
    """Desk-scale synthetic classification problem split into two groups."""
    rng = RngStream(seed).generator().numpy_generator()
    X = rng.standard_normal((num_samples, num_features - 1))
    truth = rng.standard_normal(num_features - 1)
    margin = X @ truth + 0.5 * rng.standard_normal(num_samples)
    y = np.where(margin > 0, 1.0, -1.0)
    X = np.hstack([X, np.ones((num_samples, 1))])
    half = num_samples // 2
    return FiniteSumProblem(features=X, labels=y,
                            groups=(range(half), range(half, num_samples)),
                            regularizers=np.array([regularizer, regularizer]),
                            intercept_column=num_features - 1)
