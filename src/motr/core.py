"""Shared domain types: oracle samples, solver configuration, RNG streams."""

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


def as_decision_batch(X, n: int) -> np.ndarray:
    """Validate and return a finite (B, n) float64 stack of decision vectors."""
    V = np.asarray(X, dtype=float)
    if V.ndim != 2:
        raise DimensionMismatchError(f"expected decision vectors of shape (B, {n}), got {V.shape}")
    if V.shape[1] != n:
        raise DimensionMismatchError(f"expected dimension {n}, got {V.shape[1]}")
    if not np.isfinite(V).all():
        raise ValueError("decision vector contains NaN/Inf")
    return V


def as_decision_vector(x, n: int) -> np.ndarray:
    """``as_decision_batch`` of the one vector ``x``: a finite (n,) float64."""
    return as_decision_batch(np.asarray(x, dtype=float)[None], n)[0]


def sample_errors(values: np.ndarray, gradients: np.ndarray, sample_sizes: np.ndarray,
                  hessians: np.ndarray | None = None) -> dict[int, str]:
    """Check a stack of B samples: values (B, q), gradients (B, q, n),
    sample_sizes (B, q), hessians (B, q, n, n) or None.

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
    # The common case, without per-sample bookkeeping: a sum is finite only
    # if every term is (one that overflows takes the slow path).
    if (hessians is None and math.isfinite(values.sum() + gradients.sum())
            and sample_sizes.min(initial=0) >= 0):
        return {}
    finite = np.isfinite(values).all(axis=1) & np.isfinite(gradients).all(axis=(1, 2))
    if hessians is not None:
        finite &= np.isfinite(hessians).all(axis=(1, 2, 3))
    checks = [(~finite, "objective sample contains NaN/Inf"),
              ((sample_sizes < 0).any(axis=1), "negative sample size")]
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
    the solver combines them into the single model Hessian.
    ``sample_sizes`` holds the per-objective subsample sizes (zero for
    analytic oracles); their sum, ``cost``, is the scalar products consumed
    producing this sample. Checked by ``sample_errors`` as a stack of one.
    """

    values: np.ndarray
    gradients: np.ndarray
    sample_sizes: np.ndarray
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
        errors = sample_errors(values[None], gradients[None], sizes[None],
                               None if H is None else H[None])
        if errors:
            raise ValueError(errors[0])

    @property
    def cost(self) -> int:
        return int(self.sample_sizes.sum())

    @property
    def q(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.gradients.shape[1]


@dataclass(frozen=True)
class SampleBatch:
    """B oracle evaluations stacked along a leading axis, one per solver state.

    Fields are those of ObjectiveSample with a leading batch axis, and
    ``cost`` is (B,); the stack is checked once, by ``sample_errors``. A
    sample that fails a check does not fail the batch: ``errors`` maps its
    index to a ValueError, and ``sample(b)`` raises it.
    """

    values: np.ndarray
    gradients: np.ndarray
    sample_sizes: np.ndarray
    hessians: np.ndarray | None = None
    errors: dict[int, ValueError] = field(init=False, default_factory=dict)

    def __post_init__(self):
        fields = dict(values=np.asarray(self.values, dtype=float),
                      gradients=np.asarray(self.gradients, dtype=float),
                      sample_sizes=np.asarray(self.sample_sizes, dtype=int))
        if self.hessians is not None:
            fields["hessians"] = np.asarray(self.hessians, dtype=float)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        found = sample_errors(self.values, self.gradients, self.sample_sizes, self.hessians)
        object.__setattr__(self, "errors", {b: ValueError(m) for b, m in found.items()})

    @property
    def cost(self) -> np.ndarray:
        return self.sample_sizes.sum(axis=1)

    def take(self, index: np.ndarray) -> "SampleBatch":
        """The samples at ``index`` (which must not name a failed one)."""
        return SampleBatch(self.values[index], self.gradients[index], self.sample_sizes[index],
                           None if self.hessians is None else self.hessians[index])

    def sample(self, b: int) -> ObjectiveSample:
        if b in self.errors:
            raise self.errors[b]
        return ObjectiveSample(values=self.values[b], gradients=self.gradients[b],
                               sample_sizes=self.sample_sizes[b],
                               hessians=None if self.hessians is None else self.hessians[b])


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC 2011) in numpy, so that drawing never loads
# numpy.random (its bit generators and their imports cost about 6 MB).
# Lanes are rows: the even lanes (0, 2) are multiplied, the odd ones (1, 3)
# carried, and the products' high halves are built from 32-bit halves. The
# constants become arrays only in the kernel: numpy's first uint64 arrays
# and operations cost about 0.1 MB each, which a run that never draws here
# (a finite-sum run) should not pay.
_PHILOX_M = ((0xD2E7470EE14C6C93,), (0xCA5A826395121157,))     # multipliers
_PHILOX_W = ((0x9E3779B97F4A7C15,), (0xBB67AE8584CAA73B,))     # key increments

# A refill runs the kernel over at most this many blocks at a time: at about
# 200 bytes of temporaries per block, a chunk stays under 256 KiB.
_CHUNK_BLOCKS = 1024
# A refilled row gets what was asked for and, beyond that, as many values
# as it has drawn so far, within these bounds: a long run refills about
# log2(its draws) times. In a draw on many rows each gets at most its share
# of _BATCH_VALUES, so the buffer of a large batch (a front's restarts)
# stays small; and once one row runs short, every row of the draw left with
# less than half its share is refilled too, so a batch refills in few calls.
_MIN_REFILL, _MAX_REFILL, _BATCH_VALUES = 64, 2048, 1 << 17


def philox4x64(counters: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The Philox4x64-10 blocks (4, N) uint64 of ``counters`` (4, N) under
    ``keys`` (2, N) or (2, 1). Block j of numpy's ``Philox(counter=c,
    key=k).random_raw()`` is the block of counter c + j + 1, lane by lane."""
    m, w = np.array(_PHILOX_M, dtype=np.uint64), np.array(_PHILOX_W, dtype=np.uint64)
    low, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = m & low, m >> s32
    even, odd, keys = counters[0::2], counters[1::2], keys.astype(np.uint64)
    for r in range(10):
        if r:
            keys = keys + w
        lo = even * m
        e_lo, e_hi = even & low, even >> s32
        t = e_lo * m_hi + ((e_lo * m_lo) >> s32)
        u = e_hi * m_lo + (t & low)
        hi = e_hi * m_hi + (t >> s32) + (u >> s32)
        even, odd = hi[::-1] ^ odd ^ keys, lo[::-1]
    out = np.empty_like(counters)
    out[0::2], out[1::2] = even, odd
    return out


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Standard normals, two per pair (a, b) of ``raw``: with the uniforms
    u = ((raw >> 11) + 1) * 2**-53 in (0, 1], r cos(t) then r sin(t) for
    r = sqrt(-2 log u_a) and t = 2 pi u_b. Element by element, whatever
    the length (numpy's vector loops treat their tails alike)."""
    u = ((raw >> 11) + 1).astype(float) * 2.0**-53
    r, t = np.sqrt(-2.0 * np.log(u[0::2])), 2.0 * np.pi * u[1::2]
    z = np.empty(raw.size)
    z[0::2], z[1::2] = r * np.cos(t), r * np.sin(t)
    return z


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[j], starts[j] + 1, ..., starts[j] + lengths[j] - 1 for every
    j, one range after another."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


class Streams:
    """The draws of B Philox4x64-10 keys (``keys`` (B, 2)), one row each,
    made in numpy.

    Row b's raw values are those of ``np.random.Philox(key=keys[b])
    .random_raw()``, bit for bit: value j is a function of the key and j
    alone (Salmon et al., SC 2011), so a row's state is its position, the
    raw values it has drawn. All rows share one buffer, each holding the
    values from its position to its end; a draw on rows that run short
    refills them in one kernel pass. ``raw`` and ``normals`` draw any
    count from each row of an index array of rows, in one call.

    ``numpy_generator(b)`` is numpy's Generator on a fresh Philox of row
    b's key, which loads numpy.random. A row draws one way or the other:
    mixing them is a ValueError.
    """

    def __init__(self, keys):
        self.keys = np.array(keys, dtype=np.uint64).reshape(-1, 2)
        self._pos = np.zeros(len(self.keys), dtype=np.int64)    # raw values drawn
        self._off = np.zeros_like(self._pos)        # index in _buf of the next value
        self._end = np.zeros_like(self._pos)        # index in _buf past the last
        self._buf = np.empty(0, dtype=np.uint64)
        self._generators = {}

    def state(self, row: int = 0):
        """Where a row stands: its numpy bit generator's state once it
        draws through numpy, else the count of raw values it has drawn."""
        generator = self._generators.get(row)
        return int(self._pos[row]) if generator is None else generator.bit_generator.state

    def numpy_generator(self, row: int = 0):
        """numpy's Generator on a fresh Philox of a row's key, made once."""
        if self._pos[row]:
            raise ValueError("stream already draws in numpy; it cannot use numpy.random")
        if row not in self._generators:
            bits = np.random.Philox(key=self.keys[row])
            self._generators[row] = np.random.Generator(bits)
        return self._generators[row]

    def raw(self, rows: np.ndarray, counts) -> np.ndarray:
        """The next counts[j] raw uint64 values of each row rows[j] (an
        index array of distinct rows; one count for all, or one per row),
        drawn, one row after another."""
        counts = np.broadcast_to(counts, rows.shape)
        if (self._end[rows] - self._off[rows] < counts).any():
            self._refill(rows, counts)
        off = self._off[rows]
        self._off[rows] = off + counts
        self._pos[rows] += counts
        return self._buf[_ranges(off, counts)]

    def normals(self, rows: np.ndarray, counts, scale: float = 1.0,
                loc: float = 0.0) -> np.ndarray:
        """loc + scale * z for the next counts[j] standard normals z of each
        row rows[j], drawn, as ``raw`` lays them out. The normals are
        Box-Muller on whole pairs of raw values (``_box_muller``): an odd
        count takes one raw value more and drops its last normal."""
        counts = np.broadcast_to(counts, rows.shape)
        odd = counts & 1
        z = _box_muller(self.raw(rows, counts + odd))
        if odd.any():
            z = np.delete(z, np.cumsum(counts + odd)[odd == 1] - 1)
        return loc + scale * z

    def _refill(self, rows: np.ndarray, counts: np.ndarray) -> None:
        """Buffer at least ``counts`` more values in each of ``rows``: every
        row of them holding less than its count and half its share gets
        fresh values from the block of its position, all in one kernel
        pass; the other rows keep theirs, moved to a new buffer."""
        share = max(_MIN_REFILL, min(_MAX_REFILL, _BATCH_VALUES // rows.size))
        low = self._end[rows] - self._off[rows] < counts + share // 2
        short, need = rows[low], counts[low]
        if self._generators and not self._generators.keys().isdisjoint(short.tolist()):
            raise ValueError("stream already draws through numpy.random; it cannot draw in numpy")
        first, offset = np.divmod(self._pos[short], 4)
        blocks = -(-(offset + np.maximum(np.clip(self._pos[short], _MIN_REFILL, share), need)) // 4)
        left = self._end - self._off
        left[short] = 0
        kept, ends = int(left.sum()), np.cumsum(blocks)
        buf = np.empty(kept + 4 * int(ends[-1]), dtype=np.uint64)
        np.take(self._buf, _ranges(self._off, left), out=buf[:kept])
        self._off = np.cumsum(left) - left
        self._end = self._off + left
        for c in range(0, int(ends[-1]), _CHUNK_BLOCKS):
            k = np.arange(c, min(c + _CHUNK_BLOCKS, int(ends[-1])))
            owner = np.searchsorted(ends, k, side="right")
            counters = np.zeros((4, k.size), dtype=np.uint64)
            counters[0] = first[owner] + k - (ends - blocks)[owner] + 1
            buf[kept + 4 * c:kept + 4 * (c + k.size)] = philox4x64(
                counters, self.keys[short[owner]].T).T.ravel()
        self._off[short] = kept + 4 * (ends - blocks) + offset
        self._end[short] = kept + 4 * ends
        self._buf = buf


_ROW = np.zeros(1, dtype=np.intp)      # the one row of a PhiloxStream


class PhiloxStream(Streams):
    """The draws of one Philox4x64-10 key: a ``Streams`` of one row.

    ``random``, ``uniform`` and ``integers(0, 2**62)`` are numpy
    Generator's own functions of the raw values, so they equal its draws.
    ``normal`` is ``normals`` on the row. ``choice`` draws from
    ``numpy_generator()``.
    """

    def __init__(self, key: tuple[int, int]):
        super().__init__([key])

    def choice(self, *args, **kwargs):
        return self.numpy_generator().choice(*args, **kwargs)

    def random(self, size=None):
        """Uniforms in [0, 1): (raw >> 11) * 2**-53."""
        u = (self.raw(_ROW, _count(size)) >> 11).astype(float) * 2.0**-53
        return _shaped(u, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + np.subtract(high, low) * self.random(size)

    def integers(self, low, high, size=None):
        """Integers in [0, 2**62): raw >> 2, numpy Generator's draw of that
        range; no other range is drawn here."""
        if (low, high) != (0, 2**62):
            raise ValueError("integers draws only the range [0, 2**62)")
        return _shaped((self.raw(_ROW, _count(size)) >> np.uint64(2)).astype(np.int64), size)

    def standard_normal(self, size=None):
        return self.normal(0.0, 1.0, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return _shaped(self.normals(_ROW, _count(size), scale, loc), size)


def _count(size) -> int:
    return 1 if size is None else math.prod(np.atleast_1d(size).tolist())


def _shaped(values: np.ndarray, size):
    """A draw of ``size`` from its values: one number when size is None."""
    return values[0].item() if size is None else values.reshape(size)


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Its generator is the ``PhiloxStream`` keyed (seed, stream_id), so
    identical identifiers reproduce the same raw sequence on every platform
    and distinct stream ids are statistically independent. (Normals go
    through numpy's log, cos and sin, whose last bits may differ between
    platforms.)
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> PhiloxStream:
        return PhiloxStream((self.seed, self.stream_id))


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


class Oracle(abc.ABC):
    """Vector-objective evaluation backend.

    Implementations declare the problem dimension ``n`` and objective count
    ``q`` and implement ``evaluate_batch`` and optionally ``exact_evaluate_batch``,
    each checking its points with ``as_decision_batch``; ``evaluate`` and
    ``exact_evaluate`` are their one-point forms.
    """

    n: int
    q: int

    @property
    def exact_available(self) -> bool:
        """Whether the class implements ``exact_evaluate_batch``."""
        return type(self).exact_evaluate_batch is not Oracle.exact_evaluate_batch

    @abc.abstractmethod
    def evaluate_batch(self, X, deltas, alpha: float, rngs: Streams, rows: np.ndarray,
                       need_hessians: bool = False) -> SampleBatch:
        """One sample per row of ``X``, all at accuracy ``alpha``: row b at
        radius ``deltas[b]``, drawing only from row ``rows[b]`` of ``rngs``,
        in the order a one-row call would draw."""

    def evaluate(self, x, delta: float, alpha: float, rng: PhiloxStream,
                 need_hessians: bool = False) -> ObjectiveSample:
        """The ObjectiveSample of ``evaluate_batch`` at the one point ``x``,
        whose radius ``delta`` must be positive."""
        if not delta > 0:
            raise ValueError("delta must be positive")
        X = np.asarray(x, dtype=float)[None]
        return self.evaluate_batch(X, np.array([delta], dtype=float), alpha, rng, _ROW,
                                   need_hessians).sample(0)

    def exact_evaluate(self, x, need_hessians: bool = False):
        """``exact_evaluate_batch`` at the one point ``x``: exact values,
        gradients and hessians (None unless ``need_hessians``)."""
        f, g, h = self.exact_evaluate_batch(np.asarray(x, dtype=float)[None], need_hessians)
        return f[0], g[0], None if h is None else h[0]

    def exact_evaluate_batch(self, X, need_hessians: bool = False):
        """Exact values (B, q), gradients (B, q, n) and hessians (B, q, n,
        n) or None of every row of ``X``."""
        raise NotImplementedError(f"{type(self).__name__} has no exact oracle")

    def group_sizes(self) -> np.ndarray:
        """Rows per objective; a full-accuracy evaluation costs their sum."""
        return np.zeros(self.q, dtype=int)
