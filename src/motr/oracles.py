"""Objective-evaluation backends.

Three families: exact analytic test problems, the same problems with
radius-scaled Gaussian noise, and finite-sum regularized logistic regression
split into sensitive-attribute groups with adaptive subsampling.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DimensionMismatchError,
    ObjectiveSample,
    Oracle,
    as_decision_vector,
)


class ParseError(ValueError):
    """Dataset file failed to parse; message carries the line number."""


class LabelDomainError(ValueError):
    """Labels do not match the declared convention."""


class EmptyGroupError(ValueError):
    """A sensitive-attribute group ended up with zero members."""


# ---------------------------------------------------------------------------
# Analytic two-objective test problems.

def _test1(x):
    f = np.array([x[0] ** 2 + x[1] ** 2,
                  (x[0] - 5.0) ** 2 + (x[1] - 5.0) ** 2])
    g = np.array([[2.0 * x[0], 2.0 * x[1]],
                  [2.0 * (x[0] - 5.0), 2.0 * (x[1] - 5.0)]])
    h = np.array([2.0 * np.eye(2), 2.0 * np.eye(2)])
    return f, g, h


def _test2(x):
    r = np.array([x[0] - 0.5, x[1] - 0.5])
    e = math.exp(-(r[0] ** 2 + r[1] ** 2))
    f = np.array([math.sin(x[1]), 1.0 - e])
    g1 = np.array([0.0, math.cos(x[1])])
    g2 = 2.0 * r * e
    h1 = np.array([[0.0, 0.0], [0.0, -math.sin(x[1])]])
    h2 = e * (2.0 * np.eye(2) - 4.0 * np.outer(r, r))
    return f, np.array([g1, g2]), np.array([h1, h2])


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

    def exact(self, x):
        x = as_decision_vector(x, self.n)
        return _ANALYTIC[self.name](x)


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


def _bounded_scalar(rng, sigma, cap):
    for _ in range(10_000):
        eps = rng.normal(0.0, sigma)
        if abs(eps) <= cap:
            return eps
    return 0.0


def _bounded_vector(rng, sigma, n, cap):
    for _ in range(10_000):
        eps = rng.normal(0.0, sigma, size=n)
        if np.linalg.norm(eps) <= cap:
            return eps
    return np.zeros(n)


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
        f, g, h = self.problem.exact(x)
        return f, g, h if need_hessians else None

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        if delta <= 0:
            raise ValueError("delta must be positive")
        f, g, h = self.problem.exact(x)
        return noisy_evaluate_arrays(f, g, h if need_hessians else None,
                                     self.noise, delta, rng)


def noisy_evaluate_arrays(values, gradients, hessians,
                          noise: NoiseSpec, delta: float,
                          rng: np.random.Generator) -> ObjectiveSample:
    """Apply radius-scaled noise to exact arrays and wrap as a sample."""
    values = np.asarray(values, dtype=float).copy()
    gradients = np.asarray(gradients, dtype=float).copy()
    q, n = gradients.shape
    if noise.sigma > 0:
        shared = None
        for i in range(q):
            if noise.bounded:
                eps_f = _bounded_scalar(rng, noise.sigma, noise.cap_f)
            else:
                eps_f = rng.normal(0.0, noise.sigma)
            values[i] += eps_f * delta ** 2
            if noise.shared_gradient_noise:
                if shared is None:
                    shared = (_bounded_vector(rng, noise.sigma, n, noise.cap_g)
                              if noise.bounded else rng.normal(0.0, noise.sigma, size=n))
                eps_g = shared
            else:
                eps_g = (_bounded_vector(rng, noise.sigma, n, noise.cap_g)
                         if noise.bounded else rng.normal(0.0, noise.sigma, size=n))
            gradients[i] += eps_g * delta
    return ObjectiveSample(values=values, gradients=gradients, delta=delta,
                           sample_sizes=np.zeros(q, dtype=int), cost=0,
                           hessians=hessians)


def noisy_evaluate(problem: AnalyticProblem, noise: NoiseSpec, x, delta: float,
                   rng: np.random.Generator) -> ObjectiveSample:
    f, g, _ = problem.exact(x)
    return noisy_evaluate_arrays(f, g, None, noise, delta, rng)


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


def _logistic_terms(x, A, y):
    """Per-sample margin-based pieces: loss, dloss/dmargin, curvature weight."""
    m = y * (A @ x)
    loss = np.logaddexp(0.0, -m)
    s = 1.0 / (1.0 + np.exp(m))        # sigma(-m)
    w = s * (1.0 - s)                   # sigma(m) * sigma(-m)
    return loss, s, w


def _block_eval(A, y, mask, x, lam, with_hessian):
    """Regularized logistic loss of one group on the rows (A, y): value,
    gradient and, when ``with_hessian`` is set, Hessian."""
    xh = x * mask
    loss, s, w = _logistic_terms(x, A, y)
    f = float(loss.mean()) + 0.5 * lam * float(xh @ xh)
    g = -(A * (y * s)[:, None]).mean(axis=0) + lam * xh
    if not with_hessian:
        return f, g, None
    H = (A.T * w) @ A / A.shape[0] + lam * np.diag(mask)
    return f, g, H


def _group_sample_size(F: float, G: float, delta: float, alpha: float,
                       group_size: int) -> int:
    """One subsample serves values and gradients: the larger requirement."""
    return max(required_sample_size("value", float(F), delta, alpha, group_size),
               required_sample_size("gradient", float(G), delta, alpha, group_size))


def _as_sample(parts, sizes, delta: float, need_hessians: bool) -> ObjectiveSample:
    f, g, H = zip(*parts)
    sizes = np.array(sizes, dtype=int)
    return ObjectiveSample(values=np.array(f), gradients=np.array(g),
                           delta=delta, sample_sizes=sizes, cost=int(sizes.sum()),
                           hessians=np.array(H) if need_hessians else None)


# A rejected iteration re-evaluates x, an accepted one moves to the last trial
# point, and exact_evaluate(x) follows evaluate(x): four points cover reuse.
_MEMO_POINTS = 4


class FiniteSumOracle(Oracle):
    """Adaptive-subsampling oracle for a FiniteSumProblem.

    ``constants_mode`` picks the sample-size bound constants: 'estimated'
    uses a fixed constant (default 1.0, the practical law), 'analytic' the
    closed-form value/gradient bounds which grow like e^||x||.

    Each group's rows are stored once as a contiguous block in ascending row
    order. A full-batch group evaluation draws no randomness, so its result
    is memoised for the last few points; results are bit-identical to
    ``subsampled_evaluate`` and costs count the rows requested, memo hits
    included.
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
        self._blocks = []
        for rows in problem.groups:
            order = np.sort(rows)
            self._blocks.append((order, problem.features[order], problem.labels[order]))
        self._memo: OrderedDict = OrderedDict()

    def group_sizes(self) -> np.ndarray:
        return np.array([g.size for g in self.problem.groups], dtype=int)

    def exact_cost(self) -> int:
        return self.problem.N

    def _group(self, i: int, x: np.ndarray, m: int, rng, with_hessian: bool):
        """(f, g, H) of group ``i`` on ``m`` rows: a uniform subsample drawn
        from ``rng``, or the whole block, memoised, when ``m`` covers it."""
        order, A, y = self._blocks[i]
        lam = self.problem.regularizers[i]
        if m < order.size:
            sub = rng.choice(self.problem.groups[i], size=m, replace=False)
            pos = np.searchsorted(order, np.sort(sub))
            return _block_eval(A[pos], y[pos], self._mask, x, lam, with_hessian)
        key = (i, x.tobytes())
        hit = self._memo.get(key)
        if hit is not None and (hit[2] is not None or not with_hessian):
            self._memo.move_to_end(key)
            return hit
        f, g, H = _block_eval(A, y, self._mask, x, lam, with_hessian)
        for a in (g, H):
            if a is not None:
                a.flags.writeable = False
        self._memo[key] = (f, g, H)
        self._memo.move_to_end(key)
        if len(self._memo) > _MEMO_POINTS * self.q:
            self._memo.popitem(last=False)
        return f, g, H

    def exact_evaluate(self, x, need_hessians=False):
        x = as_decision_vector(x, self.n)
        f, g, H = zip(*(self._group(i, x, rows.size, None, need_hessians)
                        for i, rows in enumerate(self.problem.groups)))
        return np.array(f), np.array(g), np.array(H) if need_hessians else None

    def _bound_constants(self, x):
        if self.constants_mode == "analytic":
            return analytic_bound_constants(
                self._max_feature_norm, self.problem.regularizers, x)
        c = self.constant_value
        return (np.full(self.q, c), np.full(self.q, c))

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        x = as_decision_vector(x, self.n)
        F, G = self._bound_constants(x)
        sizes = [_group_sample_size(F[i], G[i], delta, alpha, rows.size)
                 for i, rows in enumerate(self.problem.groups)]
        parts = [self._group(i, x, m, rng, need_hessians) for i, m in enumerate(sizes)]
        return _as_sample(parts, sizes, delta, need_hessians)


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
    plain reference, with no stored blocks and no memo.
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
        parts.append(_block_eval(problem.features[sub], problem.labels[sub], mask, x,
                                 lam, need_hessians))
        sizes.append(m)
    return _as_sample(parts, sizes, delta, need_hessians)


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

    def exact_cost(self) -> int:
        return self.inner.exact_cost()

    def group_sizes(self) -> np.ndarray:
        return self.inner.group_sizes()

    def evaluate(self, x, delta, alpha, rng, need_hessians=False):
        if delta <= 0:
            raise ValueError("delta must be positive")
        f, g, h = self.inner.exact_evaluate(x, need_hessians)
        return ObjectiveSample(values=f, gradients=g, delta=delta,
                               sample_sizes=self.group_sizes(),
                               cost=self.inner.exact_cost(), hessians=h)


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
