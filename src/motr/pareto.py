"""Pareto-front exploration: keep a non-dominated archive, perturb its
members, locally optimize each candidate with the trust-region solver, and
filter dominated points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Oracle, PhiloxStream, SolverConfig
# run_final stays importable here: perfbench/tracer.py wraps pareto.run_final.
from .solver import run_batch, run_final  # noqa: F401


def _warn(message: str, *args) -> None:
    """Log a warning on this module's logger. ``logging`` is imported here,
    not at module level, so a run without a warning never loads it."""
    import logging
    logging.getLogger(__name__).warning(message, *args)


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
        _warn("%s: non-finite %s", warning, "exact values" if x_finite else "x")
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


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``; the one
    expression of both thinning paths, so that their ties agree."""
    return np.linalg.norm(a - b, axis=-1)


def dominance_filter(members: list[ArchiveMember],
                     weak: bool = False) -> list[ArchiveMember]:
    """Maximal non-dominated subset under strict dominance (f(y) < f(x) in all
    objectives); stable in insertion order. Weak dominance behind a flag.
    Two objectives take one sort (Kung, Luccio & Preparata 1975), any other
    number the pairwise comparison."""
    if not members:
        return []
    F = np.array([m.f for m in members])
    if not np.all(np.isfinite(F)):
        raise ValueError("archive member has non-finite objective values")
    if F.shape[1] == 2:
        # Sorted by (f_1, f_2), a point is dominated by one of smaller f_1 iff
        # their least f_2 is below its own (or equal, weakly), and weakly also
        # when the first point of its f_1 tie has a smaller f_2.
        order = np.lexsort((F[:, 1], F[:, 0]))
        f1, f2 = F[order].T
        head = np.searchsorted(f1, f1)
        below = np.minimum.accumulate(np.r_[np.inf, f2])[head]
        dominated = np.empty(len(F), dtype=bool)
        dominated[order] = (below <= f2) | (f2[head] < f2) if weak else below < f2
    else:
        if weak:
            dom = _pairwise(F, lambda a, b: np.all(a <= b, axis=2) & np.any(a < b, axis=2))
        else:
            dom = _pairwise(F, lambda a, b: np.all(a < b, axis=2))
        np.fill_diagonal(dom, False)
        dominated = dom.any(axis=0)
    return [m for m, d in zip(members, dominated) if not d]


def _dedup(members: list[ArchiveMember], tol: float = 1e-12) -> list[ArchiveMember]:
    """Drop every member whose x is within ``tol`` of an earlier member's in
    every coordinate, also when that earlier member is itself dropped. In the
    x_1 sort order the x_1 gap only grows with the distance in that order, so
    the pairs at offset d are compared until no pair at offset d is within
    ``tol`` in x_1."""
    if len(members) <= 1:
        return list(members)
    X = np.array([m.x for m in members])
    order = np.argsort(X[:, 0], kind="stable")
    dup = np.zeros(len(members), dtype=bool)
    for d in range(1, len(members)):
        a, b = order[:-d], order[d:]
        near = np.abs(X[a, 0] - X[b, 0]) <= tol
        if not near.any():
            break
        a, b = a[near], b[near]
        dup[np.maximum(a, b)[np.all(np.abs(X[a] - X[b]) <= tol, axis=1)]] = True
    return [m for m, d in zip(members, dup) if not d]


def _thin_staircase(F: np.ndarray, order: np.ndarray, drops: int) -> list[bool]:
    """The alive flags after ``drops`` thinning steps on the two-objective
    staircase ``F`` (f_1 ascending and f_2 never increasing along ``order``).
    Both coordinate gaps, and so the distance, grow with the distance in that
    order, so a member's nearest neighbour is its predecessor or successor:
    a linked list of neighbours and a heap keyed (nearest distance, input
    index) replace the distance matrix."""
    import heapq
    inf = float("inf")
    prev, succ, left = [-1] * len(F), [-1] * len(F), [inf] * len(F)
    order = order.tolist()
    for a, b, d in zip(order, order[1:], _dist(F[order[1:]], F[order[:-1]]).tolist()):
        succ[a], prev[b], left[b] = b, a, d      # left: distance to the predecessor

    def nearest(i):
        return min(left[i], left[succ[i]] if succ[i] >= 0 else inf)
    near = [nearest(i) for i in range(len(F))]
    heap = [(d, i) for i, d in enumerate(near)]
    heapq.heapify(heap)
    alive = [True] * len(F)
    for _ in range(drops):
        d, i = heapq.heappop(heap)
        while not alive[i] or d != near[i]:       # a nearest distance only grows
            d, i = heapq.heappop(heap)
        alive[i] = False
        p, s = prev[i], succ[i]
        if p >= 0:
            succ[p] = s
        if s >= 0:
            prev[s], left[s] = p, float(_dist(F[s], F[p])) if p >= 0 else inf
        for j in (p, s):
            if j >= 0:
                near[j] = nearest(j)
                heapq.heappush(heap, (near[j], j))
    return alive


def _thin(members: list[ArchiveMember], max_size: int) -> list[ArchiveMember]:
    """Crowding-based thinning: repeatedly drop the member whose nearest
    neighbor in objective space is closest (the first one on a tie). A finite
    two-objective staircase, as every ``dominance_filter`` output is, is
    thinned along its sort order. Otherwise the distance matrix is computed
    once; a dropped member's column becomes inf, and only the rows whose
    nearest neighbor it was are scanned again."""
    if len(members) <= max_size:
        return list(members)
    F = np.array([m.f for m in members])
    drops = len(members) - max_size
    if F.shape[1] == 2 and np.isfinite(F).all():
        order = np.lexsort((-F[:, 1], F[:, 0]))
        if np.all(F[order[1:], 1] <= F[order[:-1], 1]):
            alive = _thin_staircase(F, order, drops)
            return [m for m, keep in zip(members, alive) if keep]
    dist = _pairwise(F, _dist)
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    alive = np.ones(len(members), dtype=bool)
    for _ in range(drops):
        drop = np.flatnonzero(alive)[np.argmin(nearest[alive])]
        alive[drop] = False
        stale = alive & (dist[:, drop] == nearest)
        dist[:, drop] = np.inf
        nearest[stale] = dist[stale].min(axis=1)
    return [m for m, keep in zip(members, alive) if keep]


def init_front(front_config: FrontConfig, oracle: Oracle,
               rng: PhiloxStream) -> list[ArchiveMember]:
    """Uniform sample in the init box, exactly evaluated and filtered."""
    box = front_config.box(oracle.n)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(front_config.init_count, oracle.n))
    members = _members(oracle, pts, "skipping failed initial point")
    if not members:
        raise ValueError(f"all {len(pts)} initial points failed")
    return dominance_filter(_dedup(members), front_config.weak_dominance)


def front_round(archive: list[ArchiveMember], oracle: Oracle,
                front_config: FrontConfig, solver_config: SolverConfig,
                rng: PhiloxStream,
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
    cfg = solver_config.with_(k_max=front_config.n_q)
    try:        # one restart per start, all advancing together
        batch = run_batch(oracle, cfg, starts, seeds, keep_history=False, smg=smg)
        ends, errors = batch.x, batch.errors
    except Exception as exc:
        ends, errors = starts, [exc] * len(starts)
    for error in filter(None, errors):
        _warn("skipping failed solver restart: %s", error)
    candidates += _members(oracle, ends[[e is None for e in errors]], "skipping failed solver restart")

    filtered = dominance_filter(_dedup(candidates), front_config.weak_dominance)
    return _thin(filtered, front_config.max_size)


def run_front(oracle: Oracle, front_config: FrontConfig,
              solver_config: SolverConfig, rng: PhiloxStream,
              smg: tuple[float, float] | None = None) -> list[ArchiveMember]:
    archive = init_front(front_config, oracle, rng)
    for _ in range(front_config.rounds):
        archive = front_round(archive, oracle, front_config, solver_config, rng, smg)
    return archive

