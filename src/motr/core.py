"""Shared domain types: oracle samples, solver configuration, seeded RNG streams."""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field, replace

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


def scalar_representation(values) -> float:
    """Max over objective components: the scalar merit used for acceptance tests."""
    v = np.asarray(values, dtype=float)
    return float(np.max(v))


@dataclass(frozen=True)
class ObjectiveSample:
    """One oracle evaluation: approximate values, gradients, optional Hessians.

    ``hessians`` holds one symmetric matrix per objective (shape (q, n, n));
    the solver combines them into the single model Hessian. ``delta`` records
    the trust-region radius the accuracy was targeted at, ``sample_sizes`` the
    per-objective subsample sizes (zero for analytic oracles) and ``cost`` the
    scalar products consumed producing this sample.
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
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(gradients)):
            raise ValueError("objective sample contains NaN/Inf")
        if gradients.ndim != 2 or gradients.shape[0] != values.shape[0]:
            raise ValueError("gradients must have shape (q, n)")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.cost < 0 or np.any(sizes < 0):
            raise ValueError("negative cost or sample size")
        if self.hessians is not None:
            H = np.asarray(self.hessians, dtype=float)
            object.__setattr__(self, "hessians", H)
            if H.ndim != 3 or H.shape[0] != values.shape[0]:
                raise ValueError("hessians must have shape (q, n, n)")
            for i in range(H.shape[0]):
                scale = max(1.0, float(np.abs(H[i]).max()))
                if np.abs(H[i] - H[i].T).max() > 1e-12 * scale:
                    raise ValueError(f"hessian {i} is not symmetric")

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.gradients.shape[1]


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

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id + 1) * 1_000_003 + index)


@dataclass(frozen=True)
class FixedAlpha:
    """Constant model-accuracy probability target."""

    value: float

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
    alpha_schedule: AlphaSchedule = field(default_factory=lambda: FixedAlpha(math.sqrt(0.5)))
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


# Flat key-value (de)serialization of SolverConfig. Keys are documented in the
# README; unknown keys are an error so typos never pass silently.

_SOLVER_KEYS = (
    "delta0",
    "delta_max",
    "gamma1",
    "gamma2",
    "eta1",
    "theta",
    "alpha_kind",
    "alpha_value",
    "alpha_offset",
    "k_max",
    "hessian_mode",
    "hessian_combine",
    "rho_guard",
    "omega_tol",
    "marginal_tol",
    "refine_steps",
    "exact_metrics",
    "seed",
)


def solver_config_keys() -> tuple[str, ...]:
    return _SOLVER_KEYS


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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


def solver_config_from_mapping(mapping: dict[str, str], strict: bool = True) -> SolverConfig:
    """Build a SolverConfig from flat string key-values.

    With strict=True any key outside the documented schema is an error.
    """
    if strict:
        unknown = set(mapping) - set(_SOLVER_KEYS)
        if unknown:
            raise ConfigError(f"unknown solver config keys: {sorted(unknown)}")
    kwargs: dict = {}
    try:
        for key in ("delta0", "delta_max", "gamma1", "gamma2", "eta1", "theta",
                    "rho_guard", "omega_tol", "marginal_tol"):
            if key in mapping:
                kwargs[key] = float(mapping[key])
        for key in ("k_max", "refine_steps", "seed"):
            if key in mapping:
                kwargs[key] = int(mapping[key])
        if "exact_metrics" in mapping:
            kwargs["exact_metrics"] = _parse_bool(mapping["exact_metrics"])
        kind = mapping.get("alpha_kind")
        if kind is not None:
            if kind == "fixed":
                value = float(mapping.get("alpha_value", math.sqrt(0.5)))
                kwargs["alpha_schedule"] = FixedAlpha(value)
            elif kind == "summable":
                offset = int(mapping.get("alpha_offset", 2))
                kwargs["alpha_schedule"] = SummableToOneAlpha(offset)
            else:
                raise ConfigError(f"bad alpha_kind: {kind!r} (expected 'fixed' or 'summable')")
        elif "alpha_value" in mapping or "alpha_offset" in mapping:
            raise ConfigError("alpha_value/alpha_offset given without alpha_kind")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "hessian_mode" in mapping:
        try:
            kwargs["hessian_mode"] = HessianMode(mapping["hessian_mode"])
        except ValueError:
            raise ConfigError(f"bad hessian_mode: {mapping['hessian_mode']!r}")
    if "hessian_combine" in mapping:
        try:
            kwargs["hessian_combine"] = HessianCombine(mapping["hessian_combine"])
        except ValueError:
            raise ConfigError(f"bad hessian_combine: {mapping['hessian_combine']!r}")
    return SolverConfig(**kwargs)


def solver_config_to_mapping(config: SolverConfig) -> dict[str, str]:
    out = {
        "delta0": repr(config.delta0),
        "delta_max": repr(config.delta_max),
        "gamma1": repr(config.gamma1),
        "gamma2": repr(config.gamma2),
        "eta1": repr(config.eta1),
        "theta": repr(config.theta),
        "k_max": str(config.k_max),
        "hessian_mode": config.hessian_mode.value,
        "hessian_combine": config.hessian_combine.value,
        "rho_guard": repr(config.rho_guard),
        "omega_tol": repr(config.omega_tol),
        "marginal_tol": repr(config.marginal_tol),
        "refine_steps": str(config.refine_steps),
        "exact_metrics": "true" if config.exact_metrics else "false",
        "seed": str(config.seed),
    }
    if isinstance(config.alpha_schedule, FixedAlpha):
        out["alpha_kind"] = "fixed"
        out["alpha_value"] = repr(config.alpha_schedule.value)
    else:
        out["alpha_kind"] = "summable"
        out["alpha_offset"] = str(config.alpha_schedule.offset)
    return out


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

    def exact_evaluate(self, x, need_hessians: bool = False):
        """Exact (values, gradients, hessians); deterministic.

        Hessians are returned only on request (``need_hessians``); otherwise
        the third element is None.
        """
        raise NotImplementedError(f"{type(self).__name__} has no exact oracle")

    def exact_cost(self) -> int:
        """Scalar products consumed by one full-accuracy evaluation."""
        return 0

    def group_sizes(self) -> np.ndarray:
        return np.zeros(self.q, dtype=int)
