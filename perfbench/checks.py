"""Correctness checks on what one motr invocation left behind, and the
deterministic result metrics read from its outputs.

The checks use only the output files and their own arithmetic (the test1
objectives and their min-norm subproblem in closed form), never motr itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RUN_HEADER = "simulation,k,omega_true,phi_true,scalar_products,delta,success"
EPS_REL = 1e-2              # eps = EPS_REL * omega_true(x0)
TEST1_OMEGA_MAX = 0.5       # acceptance criterion 5
TEST1_MIN_HITS = 0.9        # share of simulations that must meet it
FRONT_MIN_NEAR = 50         # acceptance criterion 10
FRONT_NEAR_DIST = 0.1
HV_REF = (60.0, 60.0)
RESTART_WARNING = "skipping failed"


class CheckFailed(ValueError):
    """An output file is malformed."""


@dataclass
class Outcome:
    """Checks and results of one invocation."""

    failures: list[str] = field(default_factory=list)
    results: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def parse_run_csv(text: str) -> np.ndarray:
    """Rows of a ``motr run`` CSV as a float array (omega_true/phi_true
    blank -> NaN). Raises CheckFailed on a bad header or a short row."""
    lines = text.splitlines()
    if not lines or lines[0] != RUN_HEADER:
        raise CheckFailed("run output has no or a wrong header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise CheckFailed(f"run output line {lineno} has {len(parts)} fields")
        try:
            rows.append([float(p) if p else math.nan for p in parts])
        except ValueError as exc:
            raise CheckFailed(f"run output line {lineno}: {exc}") from exc
    return np.array(rows).reshape(-1, 7)


def run_table_failures(table: np.ndarray, sims: int, k_max: int) -> list[str]:
    if table.shape[0] != sims * k_max:
        return [f"run output has {table.shape[0]} rows, expected {sims * k_max}"]
    failures = []
    expect_sim = np.repeat(np.arange(sims), k_max)
    expect_k = np.tile(np.arange(k_max), sims)
    if not (np.array_equal(table[:, 0], expect_sim) and np.array_equal(table[:, 1], expect_k)):
        failures.append("run output rows are not simulation-major, k in order")
    if not np.all(np.isfinite(table[:, 2])):
        failures.append("run output has a non-finite omega_true")
    return failures


def eps_metrics(table: np.ndarray, sims: int, k_max: int) -> tuple[float, float]:
    """Median over simulations (the lower middle value) of the first k with
    omega_true <= EPS_REL * omega_true(x0), and the cumulative scalar
    products in that row. A simulation that never gets there counts as inf."""
    ks, sps = [], []
    for sim in table.reshape(sims, k_max, 7):
        omega = sim[:, 2]
        hit = np.flatnonzero(omega <= EPS_REL * omega[0])
        if hit.size:
            ks.append(float(hit[0]))
            sps.append(float(sim[hit[0], 4]))
        else:
            ks.append(math.inf)
            sps.append(math.inf)
    return statistics.median_low(ks), statistics.median_low(sps)


def test1_objectives(x: np.ndarray) -> np.ndarray:
    return np.stack([np.sum(x * x, axis=-1), np.sum((x - 5.0) ** 2, axis=-1)], axis=-1)


def test1_omega(x) -> float:
    """Norm of the min-norm point of the hull of the two test1 gradients."""
    g1 = 2.0 * np.asarray(x, dtype=float)
    g2 = g1 - 10.0
    diff = g1 - g2
    lam = float(np.clip(g2 @ (g2 - g1) / (diff @ diff), 0.0, 1.0))
    return float(np.linalg.norm(lam * g1 + (1.0 - lam) * g2))


def parse_archive(text: str) -> np.ndarray:
    """Rows of an archive CSV (x_1, x_2, f_1, f_2) as a float array."""
    lines = text.splitlines()
    if not lines or lines[0] != "x_1,x_2,f_1,f_2":
        raise CheckFailed("archive has no or a wrong header")
    try:
        rows = [[float(p) for p in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"archive: {exc}") from exc
    if not rows or any(len(r) != 4 for r in rows):
        raise CheckFailed("archive is empty or has a short row")
    return np.array(rows)


def dominance_violations(F: np.ndarray) -> int:
    """Ordered pairs (i, j) where member i strictly dominates member j."""
    strict = np.all(F[:, None, :] < F[None, :, :], axis=2)
    np.fill_diagonal(strict, False)
    return int(strict.sum())


def front_near(F: np.ndarray) -> int:
    """Members within FRONT_NEAR_DIST of the test1 front (2t^2, 2(5-t)^2)."""
    t = np.linspace(0.0, 5.0, 20001)
    curve = np.stack([2.0 * t ** 2, 2.0 * (5.0 - t) ** 2], axis=1)
    dist = np.min(np.linalg.norm(F[:, None, :] - curve[None, :, :], axis=2), axis=1)
    return int(np.sum(dist <= FRONT_NEAR_DIST))


def hypervolume_2d(F: np.ndarray, ref=HV_REF) -> float:
    """Area dominated by the points and bounded by ``ref`` (minimisation)."""
    hv, prev = 0.0, ref[1]
    for f1, f2 in F[np.lexsort((F[:, 1], F[:, 0]))]:
        if f1 < ref[0] and f2 < prev:
            hv += (ref[0] - f1) * (prev - f2)
            prev = f2
    return hv


def check_invocation(workload, exit_code: int, restart_warnings: int,
                     directory: Path) -> Outcome:
    """Check one invocation of ``workload`` whose outputs are in ``directory``."""
    out = Outcome()
    if exit_code != 0:
        out.failures.append(f"exit code {exit_code}")
        return out
    files = workload.output_files(directory)
    try:
        out.digest = digest(files)
        if workload.command == "run":
            _check_run(workload, files, out)
        else:
            _check_front(files[0], restart_warnings, out)
    except (OSError, ValueError, KeyError) as exc:   # CheckFailed is a ValueError
        out.failures.append(str(exc))
    return out


def _check_run(workload, files: list[Path], out: Outcome) -> None:
    table = parse_run_csv(files[0].read_text())
    sims, k_max = workload.sims, workload.k_max
    out.failures += run_table_failures(table, sims, k_max)
    if out.failures:
        return
    out.results["iters_to_eps"], out.results["sp_to_eps"] = eps_metrics(table, sims, k_max)
    finals = json.loads(files[1].read_text())["final_points"]
    if len(finals) != sims:
        out.failures.append(f"summary has {len(finals)} final points, expected {sims}")
    elif workload.keys["problem"] == "test1":
        hits = sum(test1_omega(x) <= TEST1_OMEGA_MAX for x in finals)
        out.results["omega_final_hits"] = hits
        if hits < TEST1_MIN_HITS * sims:
            out.failures.append(f"omega_true <= {TEST1_OMEGA_MAX} at the end of "
                                f"only {hits}/{sims} simulations")
    elif not math.isfinite(out.results["iters_to_eps"]):
        out.failures.append("the median simulation never reaches eps")


def _check_front(path: Path, restart_warnings: int, out: Outcome) -> None:
    A = parse_archive(path.read_text())
    X, F = A[:, :2], A[:, 2:]
    if not np.all(np.isfinite(A)):
        out.failures.append("archive has non-finite entries")
        return
    if not np.allclose(F, test1_objectives(X), rtol=1e-9, atol=1e-12):
        out.failures.append("archive objectives disagree with test1 at x")
    violations = dominance_violations(F)
    near = front_near(F)
    out.results.update(front_hv=float(hypervolume_2d(F)), front_near=near,
                       archive_size=len(F), dominance_violations=violations,
                       restart_warnings=restart_warnings)
    if violations:
        out.failures.append(f"{violations} strict-dominance violations in the archive")
    if near < FRONT_MIN_NEAR:
        out.failures.append(f"only {near} archive members near the front (>= {FRONT_MIN_NEAR})")
    if restart_warnings:
        out.failures.append(f"{restart_warnings} failed restarts or perturbations")
