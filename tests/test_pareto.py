"""Non-dominated archive maintenance and front exploration rounds."""

import logging

import numpy as np
import pytest
from conftest import PoisonedOracle

from motr import pareto
from motr.core import ConfigError, RngStream, SolverConfig
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

    assert [r.getMessage() for r in caplog.records] == ["skipping failed solver restart"]
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
        ["skipping failed solver restart"] * restarts
    assert result and len(dominance_filter(result)) == len(result)


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
