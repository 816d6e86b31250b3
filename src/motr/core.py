"""Shared domain types: oracle samples, solver configuration, RNG streams, config keys."""

from __future__ import annotations

import abc
import enum
import math
import re
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent configuration value."""


class DimensionMismatchError(ValueError):
    """Input dimension does not match the problem declaration."""


def as_decision_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 decision vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"decision vector must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatchError(f"expected dimension {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("decision vector contains NaN/Inf")
    return v


def as_decision_batch(X, n: int) -> np.ndarray:
    """Validate and return a finite (B, n) float64 stack of decision vectors."""
    V = np.asarray(X, dtype=float)
    if V.ndim != 2 or V.shape[1] != n:
        raise DimensionMismatchError(f"expected decision vectors of shape (B, {n}), got {V.shape}")
    if not np.all(np.isfinite(V)):
        raise ValueError("decision vector contains NaN/Inf")
    return V


def sample_errors(values: np.ndarray, gradients: np.ndarray, delta: np.ndarray,
                  sample_sizes: np.ndarray, cost: np.ndarray,
                  hessians: np.ndarray | None = None) -> dict[int, str]:
    """Check a stack of B samples: values (B, q), gradients (B, q, n), delta
    (B,), sample_sizes (B, q), cost (B,), hessians (B, q, n, n) or None.

    A malformed stack raises ValueError. Otherwise each sample that fails a
    check maps to the message of its first failed check.
    """
    if values.ndim != 2:
        raise ValueError("values must have shape (q,)")
    B, q = values.shape
    if gradients.ndim != 3 or gradients.shape[:2] != (B, q):
        raise ValueError("gradients must have shape (q, n)")
    if hessians is not None and (hessians.ndim != 4 or hessians.shape[:2] != (B, q)):
        raise ValueError("hessians must have shape (q, n, n)")
    if (hessians is None and np.isfinite(values).all() and np.isfinite(gradients).all()
            and (delta > 0).all() and (cost >= 0).all() and (sample_sizes >= 0).all()):
        return {}           # the common case, without per-sample bookkeeping
    finite = np.isfinite(values).all(axis=1) & np.isfinite(gradients).all(axis=(1, 2))
    if hessians is not None:
        finite &= np.isfinite(hessians).all(axis=(1, 2, 3))
    checks = [(~finite, "objective sample contains NaN/Inf"),
              (~(delta > 0), "delta must be positive"),
              ((cost < 0) | (sample_sizes < 0).any(axis=1), "negative cost or sample size")]
    if hessians is not None:
        scale = np.maximum(1.0, np.abs(hessians).max(axis=(2, 3)))
        asym = np.abs(hessians - hessians.swapaxes(2, 3)).max(axis=(2, 3)) > 1e-12 * scale
        checks += [(asym[:, i], f"hessian {i} is not symmetric") for i in range(q)]
    errors: dict[int, str] = {}
    for bad, message in checks:
        for b in np.flatnonzero(bad).tolist():
            errors.setdefault(b, message)
    return errors


@dataclass(frozen=True)
class ObjectiveSample:
    """One oracle evaluation: approximate values, gradients, optional Hessians.

    ``hessians`` holds one symmetric matrix per objective (shape (q, n, n));
    the solver combines them into the single model Hessian. ``delta`` records
    the trust-region radius the accuracy was targeted at, ``sample_sizes`` the
    per-objective subsample sizes (zero for analytic oracles) and ``cost`` the
    scalar products consumed producing this sample. Checked by
    ``sample_errors`` as a stack of one.
    """

    values: np.ndarray
    gradients: np.ndarray
    delta: float
    sample_sizes: np.ndarray
    cost: int
    hessians: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        gradients = np.asarray(self.gradients, dtype=float)
        sizes = np.asarray(self.sample_sizes, dtype=int)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gradients", gradients)
        object.__setattr__(self, "sample_sizes", sizes)
        H = None
        if self.hessians is not None:
            H = np.asarray(self.hessians, dtype=float)
            object.__setattr__(self, "hessians", H)
        errors = sample_errors(values[None], gradients[None], np.array([self.delta]),
                               sizes[None], np.array([self.cost]),
                               None if H is None else H[None])
        if errors:
            raise ValueError(errors[0])

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.gradients.shape[1]


@dataclass(frozen=True)
class SampleBatch:
    """B oracle evaluations stacked along a leading axis, one per solver state.

    Fields are those of ObjectiveSample with a leading batch axis; the stack
    is checked once, by ``sample_errors``. A sample that fails a check does
    not fail the batch: ``errors`` maps its index to a ValueError, and
    ``sample(b)`` raises it.
    """

    values: np.ndarray
    gradients: np.ndarray
    delta: np.ndarray
    sample_sizes: np.ndarray
    cost: np.ndarray
    hessians: np.ndarray | None = None
    errors: dict[int, ValueError] = field(init=False, default_factory=dict)

    def __post_init__(self):
        fields = dict(values=np.asarray(self.values, dtype=float),
                      gradients=np.asarray(self.gradients, dtype=float),
                      delta=np.asarray(self.delta, dtype=float),
                      sample_sizes=np.asarray(self.sample_sizes, dtype=int),
                      cost=np.asarray(self.cost, dtype=int))
        if self.hessians is not None:
            fields["hessians"] = np.asarray(self.hessians, dtype=float)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        found = sample_errors(self.values, self.gradients, self.delta,
                              self.sample_sizes, self.cost, self.hessians)
        object.__setattr__(self, "errors", {b: ValueError(m) for b, m in found.items()})

    def take(self, index: np.ndarray) -> "SampleBatch":
        """The samples at ``index`` (which must not name a failed one)."""
        return SampleBatch(self.values[index], self.gradients[index], self.delta[index],
                           self.sample_sizes[index], self.cost[index],
                           None if self.hessians is None else self.hessians[index])

    def sample(self, b: int) -> ObjectiveSample:
        if b in self.errors:
            raise self.errors[b]
        return ObjectiveSample(values=self.values[b], gradients=self.gradients[b],
                               delta=float(self.delta[b]),
                               sample_sizes=self.sample_sizes[b], cost=int(self.cost[b]),
                               hessians=None if self.hessians is None else self.hessians[b])


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Built on Philox, so identical identifiers reproduce the same draw
    sequence on every platform and distinct stream ids are statistically
    independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class FixedAlpha:
    """Constant model-accuracy probability target."""

    value: float = math.sqrt(0.5)

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ConfigError("fixed alpha must lie in (0, 1)")


@dataclass(frozen=True)
class SummableToOneAlpha:
    """Schedule alpha_k = (1 - (k + offset)^-2)^(1/q), increasing to 1 with
    summable per-objective failure mass sum(1 - alpha_k^q)."""

    offset: int = 2

    def __post_init__(self):
        if self.offset < 2:
            raise ConfigError("summable alpha offset must be >= 2")


AlphaSchedule = FixedAlpha | SummableToOneAlpha


def alpha_at(schedule: AlphaSchedule, k: int, q: int) -> float:
    """Accuracy probability target at iteration k for a q-objective problem."""
    if k < 0:
        raise ValueError("iteration index must be nonnegative")
    if isinstance(schedule, FixedAlpha):
        return schedule.value
    return (1.0 - float(k + schedule.offset) ** -2.0) ** (1.0 / q)


class HessianMode(enum.Enum):
    ZERO = "zero"
    SUBSAMPLED = "subsampled"


class HessianCombine(enum.Enum):
    LAMBDA = "lambda"
    UNIFORM = "uniform"


# The experiment's choice keys. Members are strings, so the oracle and the
# dataset loader take either a member or its value.
class DatasetFormat(str, enum.Enum):
    CSV = "csv"
    LIBSVM = "libsvm"


class LabelConvention(str, enum.Enum):
    PM1 = "pm1"
    ZEROONE = "zeroone"


class ConstantsMode(str, enum.Enum):
    ESTIMATED = "estimated"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class SolverConfig:
    """Trust-region solver parameters.

    gamma2 is stored explicitly but must equal 1/gamma1; inconsistent pairs
    are rejected rather than silently reconciled.
    """

    delta0: float = 1.0
    delta_max: float = 10.0
    gamma1: float = 0.5
    gamma2: float = 2.0
    eta1: float = 1e-4
    theta: float = 1e-4
    alpha_schedule: AlphaSchedule = field(default_factory=FixedAlpha)
    k_max: int = 500
    hessian_mode: HessianMode = HessianMode.ZERO
    hessian_combine: HessianCombine = HessianCombine.LAMBDA
    rho_guard: float = 1e-14
    omega_tol: float = 1e-12
    marginal_tol: float = 1e-10
    refine_steps: int = 0
    exact_metrics: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta0 < self.delta_max:
            raise ConfigError("need 0 < delta0 < delta_max")
        if not 0.0 < self.gamma1 < 1.0:
            raise ConfigError("gamma1 must lie in (0, 1)")
        if abs(self.gamma2 - 1.0 / self.gamma1) > 1e-12 * self.gamma2:
            raise ConfigError("gamma2 must equal 1/gamma1")
        if not 0.0 < self.eta1 < 1.0:
            raise ConfigError("eta1 must lie in (0, 1)")
        if self.theta <= 0:
            raise ConfigError("theta must be positive")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.rho_guard <= 0 or self.omega_tol <= 0 or self.marginal_tol <= 0:
            raise ConfigError("guards and tolerances must be positive")
        if not 0 <= self.refine_steps <= 5:
            raise ConfigError("refine_steps must lie in 0..5")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    def with_(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


# Flat key-value (de)serialization of every config dataclass, driven by one
# table. Keys are documented in the README; unknown keys are an error so
# typos never pass silently. Value checks are left to the dataclasses.


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; a '#' at the start of a line or
    after whitespace starts a comment, one inside a value is kept."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {s!r}")
    return value


def _interval(s: str) -> tuple[float, float]:
    lo, hi = s.split(":")
    return _finite(lo), _finite(hi)


# (parser, formatter) per value type; a formatted value parses back to itself.
_FLOAT = (_finite, repr)
_INT = (int, str)
_STR = (str, str)
_BOOL = (_parse_bool, lambda b: "true" if b else "false")
_VECTOR = (lambda s: tuple(map(_finite, s.split(","))),
           lambda v: ",".join(map(repr, v)))
_BOX = (lambda s: tuple(map(_interval, s.split(","))),
        lambda box: ",".join(f"{lo!r}:{hi!r}" for lo, hi in box))
_MEMBER = attrgetter("value")       # formatter of an enum member; its class parses


class ConfigKey(NamedTuple):
    """One config key: the section (the dataclass) and the field it sets, the
    parser of its text and the formatter that writes a field value back."""

    key: str
    section: str
    attr: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


# Sections: solver -> SolverConfig, noise -> NoiseSpec, experiment ->
# ExperimentSpec, front -> FrontConfig. The alpha keys together set one field.
CONFIG_KEYS = {row.key: row for row in (
    ConfigKey("delta0", "solver", "delta0", *_FLOAT),
    ConfigKey("delta_max", "solver", "delta_max", *_FLOAT),
    ConfigKey("gamma1", "solver", "gamma1", *_FLOAT),
    ConfigKey("gamma2", "solver", "gamma2", *_FLOAT),
    ConfigKey("eta1", "solver", "eta1", *_FLOAT),
    ConfigKey("theta", "solver", "theta", *_FLOAT),
    ConfigKey("alpha_kind", "solver", "alpha_schedule", *_STR),
    ConfigKey("alpha_value", "solver", "alpha_schedule", *_FLOAT),
    ConfigKey("alpha_offset", "solver", "alpha_schedule", *_INT),
    ConfigKey("k_max", "solver", "k_max", *_INT),
    ConfigKey("hessian_mode", "solver", "hessian_mode", HessianMode, _MEMBER),
    ConfigKey("hessian_combine", "solver", "hessian_combine", HessianCombine, _MEMBER),
    ConfigKey("rho_guard", "solver", "rho_guard", *_FLOAT),
    ConfigKey("omega_tol", "solver", "omega_tol", *_FLOAT),
    ConfigKey("marginal_tol", "solver", "marginal_tol", *_FLOAT),
    ConfigKey("refine_steps", "solver", "refine_steps", *_INT),
    ConfigKey("exact_metrics", "solver", "exact_metrics", *_BOOL),
    ConfigKey("seed", "solver", "seed", *_INT),
    ConfigKey("noise_sigma", "noise", "sigma", *_FLOAT),
    ConfigKey("noise_bounded", "noise", "bounded", *_BOOL),
    ConfigKey("noise_cap_f", "noise", "cap_f", *_FLOAT),
    ConfigKey("noise_cap_g", "noise", "cap_g", *_FLOAT),
    ConfigKey("noise_shared_gradient", "noise", "shared_gradient_noise", *_BOOL),
    ConfigKey("problem", "experiment", "problem", *_STR),
    ConfigKey("dataset_path", "experiment", "dataset_path", *_STR),
    ConfigKey("dataset_format", "experiment", "dataset_format", DatasetFormat, _MEMBER),
    ConfigKey("label_column", "experiment", "label_column", *_INT),
    ConfigKey("sensitive_column", "experiment", "sensitive_column", *_INT),
    ConfigKey("label_convention", "experiment", "label_convention", LabelConvention, _MEMBER),
    ConfigKey("has_header", "experiment", "has_header", *_BOOL),
    ConfigKey("keep_sensitive", "experiment", "keep_sensitive", *_BOOL),
    ConfigKey("regularizer", "experiment", "regularizer", *_FLOAT),
    ConfigKey("synthetic_samples", "experiment", "synthetic_samples", *_INT),
    ConfigKey("synthetic_features", "experiment", "synthetic_features", *_INT),
    ConfigKey("synthetic_seed", "experiment", "synthetic_seed", *_INT),
    ConfigKey("constants_mode", "experiment", "constants_mode", ConstantsMode, _MEMBER),
    ConfigKey("constant_value", "experiment", "constant_value", *_FLOAT),
    ConfigKey("algorithm", "experiment", "algorithm", *_STR),
    ConfigKey("x0", "experiment", "x0", *_VECTOR),
    ConfigKey("num_simulations", "experiment", "num_simulations", *_INT),
    ConfigKey("output_path", "experiment", "output_path", *_STR),
    ConfigKey("output_format", "experiment", "output_format", *_STR),
    ConfigKey("parallelism", "experiment", "parallelism", *_INT),
    ConfigKey("smg_t0", "experiment", "smg_t0", *_FLOAT),
    ConfigKey("smg_delta", "experiment", "smg_delta", *_FLOAT),
    ConfigKey("front_n_p", "front", "n_p", *_INT),
    ConfigKey("front_n_q", "front", "n_q", *_INT),
    ConfigKey("front_n_r", "front", "n_r", *_INT),
    ConfigKey("front_init_count", "front", "init_count", *_INT),
    ConfigKey("front_init_box", "front", "init_box", *_BOX),
    ConfigKey("front_perturb_scale", "front", "perturb_scale", *_FLOAT),
    ConfigKey("front_rounds", "front", "rounds", *_INT),
    ConfigKey("front_max_size", "front", "max_size", *_INT),
    ConfigKey("front_weak", "front", "weak_dominance", *_BOOL),
)}

# alpha_kind picks the schedule and the one key it reads; the other is ignored.
_ALPHA_KINDS = {"fixed": (FixedAlpha, "alpha_value", "value"),
                "summable": (SummableToOneAlpha, "alpha_offset", "offset")}


def _parse(row: ConfigKey, text: str):
    try:
        return row.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{row.key}: {exc}") from exc


def _parse_alpha(mapping: dict[str, str]) -> AlphaSchedule:
    kind = mapping.get("alpha_kind")
    if kind is None:
        raise ConfigError("alpha_value/alpha_offset given without alpha_kind")
    if kind not in _ALPHA_KINDS:
        raise ConfigError(f"bad alpha_kind: {kind!r} (expected 'fixed' or 'summable')")
    cls, key, attr = _ALPHA_KINDS[kind]
    if key not in mapping:
        return cls()
    return cls(**{attr: _parse(CONFIG_KEYS[key], mapping[key])})


def _format_alpha(schedule: AlphaSchedule) -> dict[str, str]:
    for kind, (cls, key, attr) in _ALPHA_KINDS.items():
        if isinstance(schedule, cls):
            return {"alpha_kind": kind, key: CONFIG_KEYS[key].format(getattr(schedule, attr))}


def parse_config(mapping: dict[str, str]) -> dict[str, dict]:
    """Keyword arguments of each section's dataclass (see ``CONFIG_KEYS``)
    from flat string key-values."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    sections: dict[str, dict] = {row.section: {} for row in CONFIG_KEYS.values()}
    for key, text in mapping.items():
        row = CONFIG_KEYS[key]
        if row.attr != "alpha_schedule":
            sections[row.section][row.attr] = _parse(row, text)
    if any(CONFIG_KEYS[key].attr == "alpha_schedule" for key in mapping):
        sections["solver"]["alpha_schedule"] = _parse_alpha(mapping)
    return sections


def format_config(section: str, obj) -> dict[str, str]:
    """The key-values of ``section`` that parse back to ``obj``'s fields; a
    field that is None has no key."""
    out = {}
    for row in CONFIG_KEYS.values():
        if row.section == section and row.attr != "alpha_schedule":
            value = getattr(obj, row.attr)
            if value is not None:
                out[row.key] = row.format(value)
    if section == "solver":
        out.update(_format_alpha(obj.alpha_schedule))
    return out


def load_config(path: str, sets: Iterable[str] = (), seed: int | None = None,
                output: str | None = None) -> dict[str, dict]:
    """``parse_config`` of a config file after the command-line overrides:
    each ``KEY=VALUE`` of ``sets``, then the base seed and the output path."""
    try:
        with open(path, encoding="utf-8") as fh:
            mapping = parse_kv_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for item in sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    if seed is not None:
        mapping["seed"] = str(seed)
    if output:
        mapping["output_path"] = output
    return parse_config(mapping)


def check_length(section: str, attr: str, length: int, dimension: int | None) -> None:
    """Reject a vector-valued setting whose length is not the problem's
    dimension (None: not known before the data is loaded)."""
    if dimension not in (None, length):
        key = next(r.key for r in CONFIG_KEYS.values() if r.section == section and r.attr == attr)
        raise ConfigError(f"{key} has {length} entries, problem dimension is {dimension}")


class Oracle(abc.ABC):
    """Vector-objective evaluation backend.

    Implementations declare the problem dimension ``n``, objective count
    ``q``, whether evaluation is ``stochastic`` and whether exact values are
    available for instrumentation (``exact_available``).
    """

    n: int
    q: int
    stochastic: bool
    exact_available: bool

    @abc.abstractmethod
    def evaluate(self, x, delta: float, alpha: float,
                 rng: np.random.Generator, need_hessians: bool = False) -> ObjectiveSample:
        """Return an ObjectiveSample targeted at accuracy radius ``delta``."""

    @abc.abstractmethod
    def evaluate_batch(self, X, deltas, alphas, rngs,
                       need_hessians: bool = False) -> SampleBatch:
        """One sample per row of ``X``: row b at radius ``deltas[b]`` and
        accuracy ``alphas[b]``, drawing only from ``rngs[b]``, in the order
        a one-row call would draw."""

    def evaluate_one(self, x, delta: float, alpha: float, rng: np.random.Generator,
                     need_hessians: bool = False) -> ObjectiveSample:
        """``evaluate`` through ``evaluate_batch``, as a batch of one."""
        x = as_decision_vector(x, self.n)
        return self.evaluate_batch(x[None], np.array([delta], dtype=float), [alpha], [rng],
                                   need_hessians).sample(0)

    def exact_evaluate(self, x, need_hessians: bool = False):
        """Exact (values, gradients, hessians); deterministic.

        Hessians are returned only on request (``need_hessians``); otherwise
        the third element is None.
        """
        raise NotImplementedError(f"{type(self).__name__} has no exact oracle")

    def exact_evaluate_batch(self, X, need_hessians: bool = False):
        """``exact_evaluate`` of every row of ``X``, stacked along a leading
        axis."""
        raise NotImplementedError(f"{type(self).__name__} has no exact oracle")

    def exact_cost(self) -> int:
        """Scalar products consumed by one full-accuracy evaluation."""
        return 0

    def group_sizes(self) -> np.ndarray:
        return np.zeros(self.q, dtype=int)
