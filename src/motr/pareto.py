"""Pareto-front exploration: keep a non-dominated archive, perturb its
members, locally optimize each candidate with the trust-region solver, and
filter dominated points."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Oracle, SolverConfig
# run_final stays importable here: perfbench/tracer.py wraps pareto.run_final.
from .solver import run_batch, run_final  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ArchiveMember:
    x: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class FrontConfig:
    """Front-procedure parameters: restarts per point (n_p), solver iterations
    per restart (n_q), perturbations per point (n_r), initial sampling box
    (None: (-1, 6) per coordinate) and count, perturbation scale, number of
    rounds, and archive management."""

    n_p: int = 1
    n_q: int = 40
    n_r: int = 1
    init_box: tuple[tuple[float, float], ...] | None = None
    init_count: int = 20
    perturb_scale: float = 0.5
    rounds: int = 5
    max_size: int = 2000
    weak_dominance: bool = False

    def __post_init__(self):
        if min(self.n_p, self.n_q, self.n_r, self.init_count, self.rounds) < 1:
            raise ConfigError("all front counts must be >= 1")
        if self.perturb_scale <= 0 or self.max_size < 1:
            raise ConfigError("bad perturb_scale or max_size")
        for lo, hi in self.init_box or ():
            if not lo < hi:
                raise ConfigError("init_box intervals must be non-degenerate")

    def box(self, n: int) -> np.ndarray:
        """The (n, 2) initial sampling box of an n-dimensional problem."""
        box = np.array([(-1.0, 6.0)] * n if self.init_box is None else self.init_box, dtype=float)
        if box.shape[0] != n:
            raise ConfigError(f"front_init_box has {len(box)} entries, problem dimension is {n}")
        return box


def _members(oracle: Oracle, X: np.ndarray, warning: str) -> list[ArchiveMember]:
    """Members of the (k, n) block X, from one ``exact_evaluate_batch``; a row
    whose x or exact values are not finite logs ``<warning>: <cause>`` instead."""
    finite = np.isfinite(X).all(axis=1)
    F = np.full((len(X), oracle.q), np.nan)
    if finite.any():
        F[finite] = oracle.exact_evaluate_batch(X[finite])[0]
    ok = np.isfinite(F).all(axis=1)
    for x_finite in finite[~ok].tolist():
        logger.warning("%s: non-finite %s", warning, "exact values" if x_finite else "x")
    return [ArchiveMember(x=x, f=f) for x, f in zip(X[ok], F[ok])]


# Rows per block of a pairwise pass: the (N, N, width) comparison is built
# 64 rows at a time, so an archive of N members holds 64 * N * width cells.
_BLOCK = 64


def _pairwise(A: np.ndarray, op) -> np.ndarray:
    """The (N, N) array ``op(A[:, None, :], A[None, :, :])`` of the rows of
    ``A`` (N, width), where ``op`` reduces the last axis, built by row blocks."""
    out = None
    for i in range(0, len(A), _BLOCK):
        block = op(A[i:i + _BLOCK, None, :], A[None, :, :])
        if out is None:
            out = np.empty((len(A), len(A)), block.dtype)
        out[i:i + _BLOCK] = block
    return out


def dominance_filter(members: list[ArchiveMember],
                     weak: bool = False) -> list[ArchiveMember]:
    """Maximal non-dominated subset under strict dominance (f(y) < f(x) in all
    objectives); stable in insertion order. Weak dominance behind a flag."""
    if not members:
        return []
    F = np.array([m.f for m in members])
    if not np.all(np.isfinite(F)):
        raise ValueError("archive member has non-finite objective values")
    if weak:
        dom = _pairwise(F, lambda a, b: np.all(a <= b, axis=2) & np.any(a < b, axis=2))
    else:
        dom = _pairwise(F, lambda a, b: np.all(a < b, axis=2))
    np.fill_diagonal(dom, False)
    dominated = dom.any(axis=0)
    return [m for m, d in zip(members, dominated) if not d]


def _dedup(members: list[ArchiveMember], tol: float = 1e-12) -> list[ArchiveMember]:
    if len(members) <= 1:
        return list(members)
    X = np.array([m.x for m in members])
    close = _pairwise(X, lambda a, b: np.all(np.abs(a - b) <= tol, axis=2))
    # Keep the first member of every near-identical group.
    dup = np.triu(close, k=1).any(axis=0)
    return [m for m, d in zip(members, dup) if not d]


def _thin(members: list[ArchiveMember], max_size: int) -> list[ArchiveMember]:
    """Crowding-based thinning: repeatedly drop the member whose nearest
    neighbor in objective space is closest (the first one on a tie). The
    distance matrix is computed once; a dropped member's column becomes inf,
    and only the rows whose nearest neighbor it was are scanned again."""
    if len(members) <= max_size:
        return list(members)
    F = np.array([m.f for m in members])
    dist = _pairwise(F, lambda a, b: np.linalg.norm(a - b, axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    alive = np.ones(len(members), dtype=bool)
    for _ in range(len(members) - max_size):
        drop = np.flatnonzero(alive)[np.argmin(nearest[alive])]
        alive[drop] = False
        stale = alive & (dist[:, drop] == nearest)
        dist[:, drop] = np.inf
        nearest[stale] = dist[stale].min(axis=1)
    return [m for m, keep in zip(members, alive) if keep]


def init_front(front_config: FrontConfig, oracle: Oracle,
               rng: np.random.Generator) -> list[ArchiveMember]:
    """Uniform sample in the init box, exactly evaluated and filtered."""
    box = front_config.box(oracle.n)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(front_config.init_count, oracle.n))
    members = _members(oracle, pts, "skipping failed initial point")
    if not members:
        raise ValueError(f"all {len(pts)} initial points failed")
    return dominance_filter(_dedup(members), front_config.weak_dominance)


def front_round(archive: list[ArchiveMember], oracle: Oracle,
                front_config: FrontConfig, solver_config: SolverConfig,
                rng: np.random.Generator,
                smg: tuple[float, float] | None = None) -> list[ArchiveMember]:
    """One round: retain the archive, add perturbations, run solver restarts
    from every candidate (with the step rule ``smg`` of ``run_batch``, if
    given), evaluate exactly, filter dominated points."""
    if not archive:
        raise ValueError("archive must be non-empty")
    points = np.repeat([m.x for m in archive], front_config.n_r, axis=0)
    points = points + front_config.perturb_scale * rng.standard_normal(points.shape)
    candidates = list(archive) + _members(oracle, points, "skipping failed perturbation point")

    starts = np.repeat([m.x for m in candidates], front_config.n_p, axis=0)
    seeds = rng.integers(0, 2**62, size=len(starts)).tolist()
    cfg = solver_config.with_(k_max=front_config.n_q, exact_metrics=False)
    try:        # one restart per start, all advancing together
        batch = run_batch(oracle, cfg, starts, seeds, keep_history=False, smg=smg)
        ends, errors = batch.x, batch.errors
    except Exception as exc:
        ends, errors = starts, [exc] * len(starts)
    for error in filter(None, errors):
        logger.warning("skipping failed solver restart: %s", error)
    candidates += _members(oracle, ends[[e is None for e in errors]], "skipping failed solver restart")

    filtered = dominance_filter(_dedup(candidates), front_config.weak_dominance)
    return _thin(filtered, front_config.max_size)


def run_front(oracle: Oracle, front_config: FrontConfig,
              solver_config: SolverConfig, rng: np.random.Generator,
              smg: tuple[float, float] | None = None) -> list[ArchiveMember]:
    archive = init_front(front_config, oracle, rng)
    for _ in range(front_config.rounds):
        archive = front_round(archive, oracle, front_config, solver_config, rng, smg)
    return archive


def export_archive_csv(archive: list[ArchiveMember], path: str) -> None:
    """One row per member: x_1..x_n, f_1..f_q."""
    if not archive:
        raise ValueError("cannot export an empty archive")
    n = archive[0].x.shape[0]
    q = archive[0].f.shape[0]
    header = [f"x_{i + 1}" for i in range(n)] + [f"f_{i + 1}" for i in range(q)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for m in archive:
            row = [repr(float(v)) for v in m.x] + [repr(float(v)) for v in m.f]
            fh.write(",".join(row) + "\n")
