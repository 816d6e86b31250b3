"""Non-dominated archive maintenance and front exploration rounds."""

import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import PoisonedOracle
from hypothesis import given, settings
from hypothesis import strategies as st

import motr
from motr import pareto
from motr.core import ConfigError, RngStream, SolverConfig
from motr.harness import ExperimentSpec, run_experiment
from motr.oracles import AnalyticOracle, AnalyticProblem, NoiseSpec
from motr.solver import run_final
from motr.pareto import (
    ArchiveMember,
    FrontConfig,
    _dedup,
    _thin,
    dominance_filter,
    export_archive_csv,
    front_round,
    init_front,
    run_front,
)


def _members(points):
    return [ArchiveMember(x=np.array([float(i), 0.0]), f=np.array(p, dtype=float))
            for i, p in enumerate(points)]


def test_strict_dominance_examples():
    kept = dominance_filter(_members([(1, 1), (2, 2), (1, 3)]))
    assert [tuple(m.f) for m in kept] == [(1, 1), (1, 3)]
    kept = dominance_filter(_members([(1, 2), (2, 1)]))
    assert len(kept) == 2
    # Strict dominance keeps weakly dominated points: 0 < 0 fails.
    kept = dominance_filter(_members([(0, 0), (0, 1)]))
    assert len(kept) == 2


def test_weak_dominance_flag():
    kept = dominance_filter(_members([(0, 0), (0, 1)]), weak=True)
    assert [tuple(m.f) for m in kept] == [(0, 0)]


def test_dominance_filter_rejects_non_finite():
    bad = [ArchiveMember(x=np.zeros(2), f=np.array([np.nan, 1.0]))]
    with pytest.raises(ValueError):
        dominance_filter(bad)
    assert dominance_filter([]) == []


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.integers(1, 3), size=st.integers(0, 30), coarse=st.booleans())
def test_dominance_filter_laws(data, q, size, coarse):
    # Coarse values give ties and duplicate rows, where strict and weak
    # dominance differ.
    value = (st.integers(0, 3).map(float) if coarse
             else st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    members = _members(data.draw(st.lists(st.lists(value, min_size=q, max_size=q),
                                          min_size=size, max_size=size)))

    def dominates(a, b, weak):
        return (np.all(a.f <= b.f) and np.any(a.f < b.f)) if weak else np.all(a.f < b.f)

    kept = {}
    for weak in (False, True):
        kept[weak] = dominance_filter(members, weak)
        ids = [id(m) for m in kept[weak]]
        assert ids == [id(m) for m in members if id(m) in ids]      # input order
        for a in kept[weak]:
            assert not any(dominates(b, a, weak) for b in kept[weak])
        for m in members:
            if id(m) not in ids:
                assert any(dominates(b, m, weak) for b in kept[weak])
        assert [id(m) for m in dominance_filter(kept[weak], weak)] == ids
    assert {id(m) for m in kept[True]} <= {id(m) for m in kept[False]}


def test_dedup_merges_identical_points():
    a = ArchiveMember(x=np.array([1.0, 2.0]), f=np.array([0.0, 0.0]))
    b = ArchiveMember(x=np.array([1.0, 2.0]), f=np.array([0.0, 0.0]))
    c = ArchiveMember(x=np.array([1.0, 2.1]), f=np.array([0.0, 0.0]))
    assert len(_dedup([a, b, c])) == 2


def test_thin_respects_cap_and_keeps_spread():
    members = _members([(t, 10 - t) for t in np.linspace(0, 10, 40)])
    thinned = _thin(members, 10)
    assert len(thinned) == 10
    firsts = [m.f[0] for m in thinned]
    # Crowding removal keeps most of the original extent of the front.
    assert max(firsts) - min(firsts) >= 7.0


def _thin_reference(members, max_size):
    """The original thinning loop: the whole distance matrix again after
    every removal."""
    members = list(members)
    while len(members) > max_size:
        F = np.array([m.f for m in members])
        dist = np.linalg.norm(F[:, None, :] - F[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        members.pop(int(np.argmin(dist.min(axis=1))))
    return members


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q=st.integers(1, 3), size=st.integers(0, 40),
       max_size=st.integers(1, 42), coarse=st.booleans())
def test_thin_matches_reference_loop(data, q, size, max_size, coarse):
    # Coarse values give tied distances and duplicate rows, where the first
    # minimum decides.
    value = (st.integers(0, 3).map(float) if coarse
             else st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    rows = data.draw(st.lists(st.lists(value, min_size=q, max_size=q),
                              min_size=size, max_size=size))
    members = _members(rows)
    got = _thin(members, max_size)
    want = _thin_reference(members, max_size)
    assert [id(m) for m in got] == [id(m) for m in want]


@pytest.mark.parametrize("N", [65, 64 * 3 + 1])
@pytest.mark.parametrize("coarse", [True, False])
def test_blocked_pairwise_passes_equal_the_whole_matrix_formulas(N, coarse):
    # The archive passes build their (N, N) matrices 64 rows at a time; with
    # more rows than one block they must equal the one-shot formulas, ties
    # and duplicate rows included.
    rng = np.random.default_rng(N + coarse)
    F = rng.integers(0, 4, size=(N, 3)).astype(float) if coarse else rng.normal(size=(N, 3))
    F[N // 2] = F[0]
    members = [ArchiveMember(x=f[:2].copy(), f=f) for f in F]
    X = F[:, :2]
    close = np.all(np.abs(X[:, None, :] - X[None, :, :]) <= 1e-12, axis=2)
    keep = ~np.triu(close, k=1).any(axis=0)
    assert [id(m) for m in _dedup(members)] == [id(m) for m, k in zip(members, keep) if k]
    less, leq = F[:, None, :] < F[None, :, :], F[:, None, :] <= F[None, :, :]
    for weak, dom in ((False, less.all(axis=2)), (True, leq.all(axis=2) & less.any(axis=2))):
        np.fill_diagonal(dom, False)
        want = [id(m) for m, d in zip(members, dom.any(axis=0)) if not d]
        assert [id(m) for m in dominance_filter(members, weak)] == want
    np.testing.assert_array_equal(
        pareto._pairwise(F, lambda a, b: np.linalg.norm(a - b, axis=2)),
        np.linalg.norm(F[:, None, :] - F[None, :, :], axis=2))
    assert ([id(m) for m in _thin(members, N - 8)]
            == [id(m) for m in _thin_reference(members, N - 8)])


_TOL = 1e-12
# Coordinates at, just inside and just outside the tolerance of each other,
# around bases where the subtraction rounds.
_NEAR_TOL = st.builds(lambda base, k, ulp: base + (np.nextafter(k * _TOL, ulp * np.inf) if ulp
                                                   else k * _TOL),
                      st.sampled_from([0.0, 1.0, -3.0, 1e3]),
                      st.sampled_from([-2, -1, 0, 1, 2]),
                      st.sampled_from([-1, 0, 1]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), size=st.integers(0, 25))
def test_dedup_matches_the_whole_matrix_rule(data, n, size):
    # Duplicate rows come from a small pool; a point within tol of one that
    # is itself dropped still goes.
    pool = data.draw(st.lists(st.lists(_NEAR_TOL, min_size=n, max_size=n), min_size=1, max_size=6))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    members = [ArchiveMember(x=np.array(r), f=np.zeros(2)) for r in rows]
    X = np.array(rows).reshape(size, n)
    close = np.all(np.abs(X[:, None] - X[None]) <= _TOL, axis=2)
    keep = ~np.triu(close, k=1).any(axis=0)
    assert [id(m) for m in _dedup(members)] == [id(m) for m, k in zip(members, keep) if k]


def test_dedup_drops_a_chain_whose_middle_twin_was_dropped():
    members = [ArchiveMember(x=np.array([k * _TOL, 0.0]), f=np.zeros(2)) for k in (0, 1, 2)]
    assert [id(m) for m in _dedup(members)] == [id(members[0])]
    assert len(_dedup(members[::2])) == 2


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(0, 40), weak=st.booleans(), coarse=st.booleans())
def test_thin_on_a_staircase_matches_reference_loop(data, size, weak, coarse):
    # Points near an anti-diagonal leave long fronts; coarse values give tied
    # distances and duplicate f rows. A filtered front is a staircase, thinned
    # without the distance matrix.
    t = st.integers(0, 12).map(float) if coarse else st.floats(-1e3, 1e3)
    lift = st.integers(0, 2).map(float) if coarse else st.floats(0, 1)
    rows = data.draw(st.lists(st.tuples(t, lift).map(lambda r: (r[0], r[1] - r[0])),
                              min_size=size, max_size=size))
    front = dominance_filter(_members(rows), weak)
    max_size = data.draw(st.integers(1, len(front) + 1))
    with mock.patch.object(pareto, "_pairwise", side_effect=AssertionError("matrix path")):
        got = _thin(front, max_size)
    assert [id(m) for m in got] == [id(m) for m in _thin_reference(front, max_size)]


@pytest.mark.parametrize("rows", [
    [(0, 0), (1, 1), (0.5, 0.2), (2, 0), (0, 2), (1, 1.1)],        # 2-D, not a staircase
    [(0, 3, 1), (1, 2, 0), (2, 1, 2), (3, 0, 1), (1, 1, 1), (2, 2, 0)],   # q = 3
])
def test_thin_off_the_staircase_takes_the_matrix_path(rows):
    members = _members(rows)
    with mock.patch.object(pareto, "_pairwise", wraps=pareto._pairwise) as spy:
        got = _thin(members, 3)
    assert spy.called
    assert [id(m) for m in got] == [id(m) for m in _thin_reference(members, 3)]


def test_front_config_validation():
    with pytest.raises(ConfigError):
        FrontConfig(n_q=0)
    with pytest.raises(ConfigError):
        FrontConfig(perturb_scale=0.0)
    with pytest.raises(ConfigError):
        FrontConfig(init_box=((1.0, 1.0), (0.0, 1.0)))


def test_init_front_sizes():
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    rng = RngStream(30).generator()
    assert len(init_front(FrontConfig(init_count=1), oracle, rng)) == 1
    archive = init_front(FrontConfig(init_count=100), oracle, rng)
    assert archive
    assert len(dominance_filter(archive)) == len(archive)


def test_init_front_box_dimension_check():
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    rng = RngStream(31).generator()
    with pytest.raises(ConfigError):
        init_front(FrontConfig(init_box=((0.0, 1.0),)), oracle, rng)


def test_front_round_keeps_non_domination_and_prior_members():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.05, bounded=True))
    fc = FrontConfig(init_count=8, rounds=1)
    sc = SolverConfig()
    rng = RngStream(32).generator()
    archive = init_front(fc, oracle, rng)
    new = front_round(archive, oracle, fc, sc, rng)
    assert len(dominance_filter(new)) == len(new)
    # Monotone improvement: no new member is strictly dominated by an old one.
    for m in new:
        for old in archive:
            assert not np.all(old.f < m.f)


def test_front_round_skips_only_the_failed_restart(monkeypatch, caplog):
    # All restarts of a round run as one batch; one whose samples are NaN is
    # skipped with a warning and the rest end exactly as single runs would.
    fc = FrontConfig(init_count=8, n_q=15, rounds=1)
    sc = SolverConfig()
    rng = RngStream(35).generator()
    archive = init_front(fc, AnalyticOracle(AnalyticProblem("test1")), rng)
    oracle = PoisonedOracle.at(archive[1].x)
    batches = []

    def spy(*args, **kwargs):
        states = real(*args, **kwargs)
        batches.append((args, states))
        return states
    real = pareto.run_batch
    monkeypatch.setattr(pareto, "run_batch", spy)
    with caplog.at_level(logging.WARNING, logger="motr.pareto"):
        result = front_round(archive, oracle, fc, sc, rng)

    assert [r.getMessage() for r in caplog.records] == \
        ["skipping failed solver restart: objective sample contains NaN/Inf"]
    (_, cfg, starts, seeds), states = batches[0]
    assert [b for b, s in enumerate(states) if s.error is not None] == [1]
    clean = PoisonedOracle(lambda X: np.zeros(len(X), dtype=bool))
    candidates = [ArchiveMember(x=x0, f=clean.exact_evaluate(x0)[0]) for x0 in starts]
    for b, (x0, seed, state) in enumerate(zip(starts, seeds, states)):
        if b == 1:
            continue
        x, history = run_final(clean, cfg.with_(seed=seed), x0)
        np.testing.assert_array_equal(state.x, x)
        assert state.k == len(history) == cfg.k_max
        candidates.append(ArchiveMember(x=x, f=clean.exact_evaluate(x)[0]))
    expected = _thin(dominance_filter(_dedup(candidates)), fc.max_size)
    assert len(result) == len(expected)
    for got, want in zip(result, expected):
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.f, want.f)


def test_front_round_skips_every_restart_when_the_batch_fails(caplog):
    class Broken(AnalyticOracle):
        def evaluate_batch(self, *args, **kwargs):
            raise RuntimeError("oracle down")

    oracle = Broken(AnalyticProblem("test1"))
    fc = FrontConfig(init_count=6, n_q=5, rounds=1)
    rng = RngStream(36).generator()
    archive = init_front(fc, oracle, rng)
    with caplog.at_level(logging.WARNING, logger="motr.pareto"):
        result = front_round(archive, oracle, fc, SolverConfig(), rng)
    restarts = 2 * len(archive)         # each member and its perturbation
    assert [r.getMessage() for r in caplog.records] == \
        ["skipping failed solver restart: oracle down"] * restarts
    assert result and len(dominance_filter(result)) == len(result)


class CountingOracle(AnalyticOracle):
    """Noisy test1 that counts its exact evaluations, one-row and batched;
    exact values are inf where ``is_bad`` (rows -> bool) holds."""

    def __init__(self, is_bad=lambda X: np.zeros(len(X), dtype=bool)):
        super().__init__(AnalyticProblem("test1"), NoiseSpec(sigma=0.1, bounded=True))
        self.is_bad, self.rows, self.batches = is_bad, 0, 0

    def exact_evaluate(self, x, need_hessians=False):
        self.rows += 1
        return super().exact_evaluate(x, need_hessians)

    def exact_evaluate_batch(self, X, need_hessians=False):
        self.batches += 1
        f, g, h = super().exact_evaluate_batch(X, need_hessians)
        f[self.is_bad(X)] = np.inf
        return f, g, h


def test_front_evaluates_each_block_in_one_call(monkeypatch):
    oracle = CountingOracle()
    fc = FrontConfig(init_count=8, n_q=5, rounds=1)
    rng = RngStream(37).generator()
    front_round(init_front(fc, oracle, rng), oracle, fc, SolverConfig(), rng)
    # The initial points, the perturbations and the restart ends.
    assert (oracle.batches, oracle.rows) == (3, 0)
    monkeypatch.setattr(ExperimentSpec, "build_oracle", lambda spec: oracle)
    run_experiment(ExperimentSpec(num_simulations=3,
                                  solver=SolverConfig(k_max=4)))
    assert oracle.rows == 0


def test_members_skips_each_non_finite_row_with_one_warning(caplog):
    oracle = CountingOracle(lambda X: X[:, 0] > 4.0)
    X = np.array([[1.0, 1.0], [5.0, 1.0], [np.nan, 0.0], [2.0, np.inf], [3.0, 0.5]])
    with caplog.at_level(logging.WARNING, logger="motr.pareto"):
        members = pareto._members(oracle, X, "skipping failed test point")
    assert [r.getMessage() for r in caplog.records] == [
        "skipping failed test point: non-finite exact values",
        "skipping failed test point: non-finite x",
        "skipping failed test point: non-finite x"]
    assert oracle.batches == 1
    np.testing.assert_array_equal([m.x for m in members], X[[0, 4]])
    np.testing.assert_array_equal([m.f for m in members],
                                  oracle.exact_evaluate_batch(X[[0, 4]])[0])


def test_init_front_skips_exactly_the_rows_with_non_finite_values(caplog):
    oracle = CountingOracle(lambda X: X[:, 0] > 3.0)
    fc = FrontConfig(init_count=30)
    with caplog.at_level(logging.WARNING, logger="motr.pareto"):
        archive = init_front(fc, oracle, RngStream(38).generator())
    box = fc.box(2)
    pts = RngStream(38).generator().uniform(box[:, 0], box[:, 1], size=(30, 2))
    bad = pts[:, 0] > 3.0
    assert 0 < bad.sum() < 30
    assert [r.getMessage() for r in caplog.records] == \
        ["skipping failed initial point: non-finite exact values"] * int(bad.sum())
    clean = [ArchiveMember(x=x, f=oracle.exact_evaluate(x)[0]) for x in pts[~bad]]
    expected = dominance_filter(_dedup(clean))
    np.testing.assert_array_equal([m.x for m in archive], [m.x for m in expected])
    np.testing.assert_array_equal([m.f for m in archive], [m.f for m in expected])


@pytest.mark.parametrize("overrides", [
    ["algorithm=smg", "smg_t0=1e300", "front_rounds=1", "front_n_q=3"],
    ["front_init_box=0:1e155,0:1", "front_rounds=1"],
])
def test_cli_front_skips_failed_points_without_a_traceback(tmp_path, overrides):
    # A subprocess, because under pytest the log records never reach stderr.
    cfg = tmp_path / "front.cfg"
    cfg.write_text("problem = test1\nnoise_sigma = 0.1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(motr.__file__).resolve().parents[1]))
    args = [sys.executable, "-m", "motr.cli", "front", str(cfg),
            "--output", str(tmp_path / "front.csv")]
    for setting in overrides:
        args += ["--set", setting]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("skipping failed ") for line in lines), proc.stderr
    assert "Traceback" not in proc.stderr


def test_front_round_requires_non_empty_archive():
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    with pytest.raises(ValueError):
        front_round([], oracle, FrontConfig(), SolverConfig(),
                    RngStream(33).generator())


def test_run_front_reaches_tradeoff_points():
    # Two quick rounds on the convex benchmark already produce several
    # interior tradeoff points (neither objective minimal).
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.05, bounded=True))
    fc = FrontConfig(init_count=10, rounds=2, n_q=25)
    archive = run_front(oracle, fc, SolverConfig(), RngStream(34).generator())
    F = np.array([m.f for m in archive])
    interior = np.sum((F[:, 0] > 1.0) & (F[:, 1] > 1.0))
    assert interior >= 3


def test_export_archive_csv(tmp_path):
    members = _members([(1, 2), (3, 4)])
    path = tmp_path / "front.csv"
    export_archive_csv(members, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_1,x_2,f_1,f_2"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        export_archive_csv([], str(path))
