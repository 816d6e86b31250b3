"""Pareto-front exploration: keep a non-dominated archive, perturb its
members, locally optimize each candidate with the trust-region solver, and
filter dominated points."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

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
    per restart (n_q), perturbations per point (n_r), initial sampling box and
    count, perturbation scale, number of rounds, and archive management."""

    n_p: int = 1
    n_q: int = 40
    n_r: int = 1
    init_box: tuple[tuple[float, float], ...] = ((-1.0, 6.0), (-1.0, 6.0))
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
        for lo, hi in self.init_box:
            if not lo < hi:
                raise ConfigError("init_box intervals must be non-degenerate")


def _exact_f(oracle: Oracle, x) -> np.ndarray:
    values, _, _ = oracle.exact_evaluate(x)
    return np.asarray(values, dtype=float)


def dominance_filter(members: list[ArchiveMember],
                     weak: bool = False) -> list[ArchiveMember]:
    """Maximal non-dominated subset under strict dominance (f(y) < f(x) in all
    objectives); stable in insertion order. Weak dominance behind a flag."""
    if not members:
        return []
    F = np.array([m.f for m in members])
    if not np.all(np.isfinite(F)):
        raise ValueError("archive member has non-finite objective values")
    less = F[:, None, :] < F[None, :, :]
    if weak:
        leq = F[:, None, :] <= F[None, :, :]
        dom = np.all(leq, axis=2) & np.any(less, axis=2)
    else:
        dom = np.all(less, axis=2)
    np.fill_diagonal(dom, False)
    dominated = dom.any(axis=0)
    return [m for m, d in zip(members, dominated) if not d]


def _dedup(members: list[ArchiveMember], tol: float = 1e-12) -> list[ArchiveMember]:
    if len(members) <= 1:
        return list(members)
    X = np.array([m.x for m in members])
    close = np.all(np.abs(X[:, None, :] - X[None, :, :]) <= tol, axis=2)
    # Keep the first member of every near-identical group.
    dup = np.triu(close, k=1).any(axis=0)
    return [m for m, d in zip(members, dup) if not d]


def _thin(members: list[ArchiveMember], max_size: int) -> list[ArchiveMember]:
    """Crowding-based thinning: repeatedly drop the member whose nearest
    neighbor in objective space is closest. The distance matrix is computed
    once; a dropped member's row and column are deleted from it."""
    members = list(members)
    if len(members) <= max_size:
        return members
    F = np.array([m.f for m in members])
    dist = np.linalg.norm(F[:, None, :] - F[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    while len(members) > max_size:
        drop = int(np.argmin(dist.min(axis=1)))
        members.pop(drop)
        dist = np.delete(np.delete(dist, drop, axis=0), drop, axis=1)
    return members


def init_front(front_config: FrontConfig, oracle: Oracle,
               rng: np.random.Generator) -> list[ArchiveMember]:
    """Uniform sample in the init box, exactly evaluated and filtered."""
    box = np.array(front_config.init_box, dtype=float)
    if box.shape[0] != oracle.n:
        raise ConfigError(f"init_box has {box.shape[0]} intervals, problem dimension is {oracle.n}")
    pts = rng.uniform(box[:, 0], box[:, 1], size=(front_config.init_count, oracle.n))
    members = [ArchiveMember(x=p, f=_exact_f(oracle, p)) for p in pts]
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
    candidates = list(archive)
    for m in archive:
        for _ in range(front_config.n_r):
            xp = m.x + front_config.perturb_scale * rng.standard_normal(oracle.n)
            try:
                candidates.append(ArchiveMember(x=xp, f=_exact_f(oracle, xp)))
            except Exception:
                logger.warning("skipping failed perturbation point", exc_info=True)

    starts = [m.x for m in candidates for _ in range(front_config.n_p)]
    seeds = [int(rng.integers(0, 2**62)) for _ in starts]
    cfg = solver_config.with_(k_max=front_config.n_q, exact_metrics=False)
    try:        # one restart per start, all advancing together
        results = [s.error or s.x
                   for s in run_batch(oracle, cfg, starts, seeds, keep_history=False, smg=smg)]
    except Exception as exc:
        results = [exc] * len(starts)
    for result in results:
        try:
            if isinstance(result, Exception):
                raise result
            candidates.append(ArchiveMember(x=result, f=_exact_f(oracle, result)))
        except Exception:
            logger.warning("skipping failed solver restart", exc_info=True)

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
