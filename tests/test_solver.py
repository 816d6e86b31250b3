"""Trust-region iteration: model building, Cauchy step, acceptance, dynamics."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import PoisonedOracle
from hypothesis import given, settings
from hypothesis import strategies as st

from motr.core import (
    HessianCombine,
    HessianMode,
    ObjectiveSample,
    RngStream,
    SolverConfig,
)
from motr.marginal import solve_marginal
from motr.oracles import (
    AnalyticOracle,
    AnalyticProblem,
    ExactOracle,
    FiniteSumOracle,
    NoiseSpec,
    make_synthetic_logistic,
)
from motr.solver import (
    DegenerateDirectionError,
    InconsistentSampleError,
    IterationRecord,
    ModelSet,
    build_model,
    cauchy_step,
    combine_hessians,
    compute_rho,
    evaluate_model,
    run,
    run_batch,
    run_final,
    spectral_norm,
)


def _sample(values, gradients, hessians=None, delta=1.0):
    values = np.asarray(values, dtype=float)
    return ObjectiveSample(values=values, gradients=gradients, delta=delta,
                           sample_sizes=np.zeros(len(values), dtype=int),
                           cost=0, hessians=hessians)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0, rel=1e-7)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), stack=st.integers(1, 4),
       kind=st.sampled_from(["indefinite", "semidefinite", "negative", "zero"]))
def test_spectral_norm_matches_eigvalsh(seed, n, stack, kind):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((stack, n, n)) * 10.0 ** rng.uniform(-3, 3)
    H = {"indefinite": A + A.swapaxes(1, 2), "semidefinite": A @ A.swapaxes(1, 2),
         "negative": -(A @ A.swapaxes(1, 2)), "zero": np.zeros_like(A)}[kind]
    want = np.array([np.abs(np.linalg.eigvalsh(h)).max() for h in H])
    np.testing.assert_array_equal(spectral_norm(H), want)
    for h, w in zip(H, want):
        norm = spectral_norm(h)
        assert isinstance(norm, float) and norm == w
        assert norm == pytest.approx(np.linalg.norm(h, 2), rel=1e-12, abs=1e-300)


def test_build_model_first_order():
    s = _sample([162.0, 32.0], [[18.0, 18.0], [8.0, 8.0]])
    m = build_model(s, HessianMode.ZERO)
    assert m.beta == 1.0
    assert not np.any(m.hessian)
    np.testing.assert_array_equal(m.base_values, [162.0, 32.0])
    np.testing.assert_array_equal(m.base_gradients, [[18.0, 18.0], [8.0, 8.0]])


def test_build_model_second_order_beta():
    H = np.stack([np.diag([2.0, 0.5]), np.diag([2.0, 0.5])])
    s = _sample([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hessians=H)
    m = build_model(s, HessianMode.SUBSAMPLED, weights=np.array([0.5, 0.5]))
    assert m.beta == pytest.approx(3.0, rel=1e-7)


def test_build_model_requires_hessians_in_subsampled_mode():
    s = _sample([0.0], [[1.0, 0.0]])
    with pytest.raises(InconsistentSampleError):
        build_model(s, HessianMode.SUBSAMPLED)


def test_build_model_checks_oracle_shape():
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    s = _sample([0.0], [[1.0, 0.0]])
    with pytest.raises(InconsistentSampleError):
        build_model(s, HessianMode.ZERO, oracle=oracle)


def test_combine_hessians_modes():
    H = np.stack([np.diag([4.0, 0.0]), np.diag([0.0, 4.0])])
    w = np.array([0.25, 0.75])
    np.testing.assert_allclose(
        combine_hessians(H, w, HessianCombine.LAMBDA, 2), np.diag([1.0, 3.0]))
    np.testing.assert_allclose(
        combine_hessians(H, w, HessianCombine.UNIFORM, 2), np.diag([2.0, 2.0]))
    assert not np.any(combine_hessians(None, w, HessianCombine.LAMBDA, 2))


def test_evaluate_model_examples():
    m = build_model(_sample([2.0], [[1.0, 0.0]]), HessianMode.ZERO)
    assert evaluate_model(m, [0.0, 0.0]) == 2.0
    assert evaluate_model(m, [1.0, 0.0]) == 3.0
    m2 = build_model(_sample([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), HessianMode.ZERO)
    assert evaluate_model(m2, [-1.0, -1.0]) == -1.0


def test_cauchy_step_rejects_critical_point():
    m = build_model(_sample([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]]), HessianMode.ZERO)
    marg = solve_marginal(m.base_gradients)
    with pytest.raises(DegenerateDirectionError):
        cauchy_step(m, marg, 1.0)


def test_cauchy_step_aligned_gradients():
    # Both gradients point along (1, 1); beta = 1 puts the 1-D minimizer at
    # the trust boundary and the reduction matches a dense line search.
    m = build_model(_sample([162.0, 32.0], [[18.0, 18.0], [8.0, 8.0]]),
                    HessianMode.ZERO)
    marg = solve_marginal(m.base_gradients)
    d, pred = cauchy_step(m, marg, 1.0)
    np.testing.assert_allclose(d, -np.ones(2) / np.sqrt(2.0), atol=1e-9)
    assert pred >= 0.5 * marg.omega * min(1.0, marg.omega / m.beta) - 1e-12
    grid = np.linspace(0.0, 1.0, 20001)
    line = [evaluate_model(m, a * marg.direction) for a in grid]
    assert evaluate_model(m, d) <= min(line) + 1e-9


def test_cauchy_step_q1_linear():
    # Curvature-free single-objective model: the exact 1-D minimizer takes
    # the full trust step, never less decrease than the omega/beta-capped
    # candidate (whose reduction would be 4 here).
    m = build_model(_sample([0.0], [[2.0, 0.0]]), HessianMode.ZERO)
    marg = solve_marginal(m.base_gradients)
    assert marg.omega == pytest.approx(2.0)
    d, pred = cauchy_step(m, marg, 10.0)
    np.testing.assert_allclose(d, [-10.0, 0.0], atol=1e-12)
    assert pred == pytest.approx(20.0)
    assert pred >= 4.0
    assert pred >= 0.5 * 2.0 * min(10.0, 2.0)


def test_cauchy_step_breakpoint_handling():
    # Crossing objectives: the exact 1-D minimizer sits where the active
    # objective changes, and matches a dense grid.
    m = build_model(_sample([1.0, 0.0], [[2.0, 0.0], [0.5, 0.1]]), HessianMode.ZERO)
    marg = solve_marginal(m.base_gradients)
    d, pred = cauchy_step(m, marg, 5.0)
    grid = np.linspace(0.0, 5.0, 200001)
    line = min(evaluate_model(m, a * marg.direction) for a in grid)
    assert evaluate_model(m, d) <= line + 1e-8
    assert pred >= 0.5 * marg.omega * min(5.0, marg.omega / m.beta) - 1e-12


def test_compute_rho():
    assert compute_rho(5.0, 3.0, 2.0, 1e-14) == pytest.approx(1.0)
    assert compute_rho(5.0, 6.0, 2.0, 1e-14) == pytest.approx(-0.5)
    assert compute_rho(5.0, 3.0, 1e-18, 1e-14) == -math.inf


def _exact_oracle(name="test1"):
    return AnalyticOracle(AnalyticProblem(name))


def test_iterate_at_critical_point_shrinks_radius():
    # (2.5, 2.5) is Pareto critical for the first benchmark.
    oracle = _exact_oracle()
    cfg = SolverConfig()
    state = run_batch(oracle, cfg.with_(k_max=1), [[2.5, 2.5]], [cfg.seed])[0]
    rec = state.history[0]
    assert not rec.success
    np.testing.assert_array_equal(state.x, [2.5, 2.5])
    assert state.delta == cfg.gamma1 * cfg.delta0


def test_first_iteration_successful_from_far_point():
    oracle = _exact_oracle()
    cfg = SolverConfig()
    state = run_batch(oracle, cfg.with_(k_max=1), [[9.0, 9.0]], [cfg.seed])[0]
    rec = state.history[0]
    assert rec.success
    assert rec.omega_m == pytest.approx(8.0 * np.sqrt(2.0), abs=1e-9)
    assert state.delta == min(cfg.delta_max, cfg.gamma2 * cfg.delta0)


def test_radius_cap_binds():
    oracle = _exact_oracle()
    cfg = SolverConfig(delta0=9.0, delta_max=10.0)
    records = run(oracle, cfg.with_(k_max=30), [9.0, 9.0])
    assert all(r.delta <= cfg.delta_max + 1e-15 for r in records)


def test_run_length_and_determinism():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg = SolverConfig(k_max=1, seed=3)
    assert len(run(oracle, cfg, [9.0, 9.0])) == 1
    cfg = cfg.with_(k_max=40)
    a = run(oracle, cfg, [9.0, 9.0])
    b = run(oracle, cfg, [9.0, 9.0])
    for ra, rb in zip(a, b):
        assert ra.phi_tilde == rb.phi_tilde
        assert ra.delta == rb.delta
        assert ra.success == rb.success


def test_radius_dynamics_exact():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg = SolverConfig(k_max=60, seed=5)
    records = run(oracle, cfg, [9.0, 9.0])
    for prev, cur in zip(records, records[1:]):
        if prev.success:
            assert cur.delta == min(cfg.delta_max, cfg.gamma2 * prev.delta)
        else:
            assert cur.delta == cfg.gamma1 * prev.delta


def test_success_flags_consistent():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg = SolverConfig(k_max=60, seed=6)
    for r in run(oracle, cfg, [9.0, 9.0]):
        if r.success:
            assert r.rho >= cfg.eta1
            assert r.omega_m > cfg.theta * r.delta


def test_monotone_scalarization_on_success_with_exact_oracle():
    oracle = _exact_oracle()
    cfg = SolverConfig(k_max=60)
    records = run(oracle, cfg, [9.0, 9.0])
    for prev, cur in zip(records, records[1:]):
        if prev.success:
            assert cur.phi_true < prev.phi_true


def test_sufficient_decrease_invariant():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg = SolverConfig(k_max=100, seed=7)
    for r in run(oracle, cfg, [9.0, 9.0]):
        if r.step_norm > 0:
            bound = 0.5 * r.omega_m * min(r.delta, r.omega_m / r.beta)
            assert r.predicted_reduction >= bound - 1e-12


def test_cost_accounting_non_decreasing():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    records = run(oracle, SolverConfig(k_max=30, seed=8), [9.0, 9.0])
    costs = [r.cost_so_far for r in records]
    assert all(b >= a for a, b in zip(costs, costs[1:]))


def test_instrumentation_purity():
    # Exact-metric computation must not consume run randomness: iterates and
    # costs are identical with it on or off.
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg = SolverConfig(k_max=50, seed=9)
    x_on, hist_on = run_final(oracle, cfg, [9.0, 9.0])
    x_off, hist_off = run_final(oracle, cfg.with_(exact_metrics=False), [9.0, 9.0])
    np.testing.assert_array_equal(x_on, x_off)
    for a, b in zip(hist_on, hist_off):
        assert a.phi_tilde == b.phi_tilde
        assert a.cost_so_far == b.cost_so_far
        assert b.omega_true is None and a.omega_true is not None


def test_refine_step_never_worse():
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    base = run(oracle, SolverConfig(k_max=50, seed=10), [9.0, 9.0])
    refined = run(oracle, SolverConfig(k_max=50, seed=10, refine_steps=3), [9.0, 9.0])
    for a, b in zip(base, refined):
        if b.step_norm > 0:
            bound = 0.5 * b.omega_m * min(b.delta, b.omega_m / b.beta)
            assert b.predicted_reduction >= bound - 1e-12
    assert refined[0].predicted_reduction >= base[0].predicted_reduction - 1e-12


_LOGISTIC = make_synthetic_logistic(60, 4, seed=3)
_NOISES = {"plain": NoiseSpec(sigma=0.1),
           # Tight caps: about a third of the bounded draws are rejected.
           "bounded": NoiseSpec(sigma=0.5, bounded=True, cap_f=0.5, cap_g=0.6),
           "shared": NoiseSpec(sigma=0.1, shared_gradient_noise=True),
           "bounded_shared": NoiseSpec(sigma=0.5, bounded=True, cap_f=0.5, cap_g=0.6,
                                       shared_gradient_noise=True)}
_BATCH_CASES = (
    [(f"{p}-{k}", lambda p=p, k=k: AnalyticOracle(AnalyticProblem(p), _NOISES[k]),
      HessianMode.ZERO) for p in ("test1", "test2") for k in _NOISES]
    + [("test2-hessian", lambda: AnalyticOracle(AnalyticProblem("test2"), _NOISES["plain"]),
        HessianMode.SUBSAMPLED),
       # Noise this small leaves the states started on the Pareto set
       # without a descent direction: they draw a sample but no trial.
       ("test1-critical", lambda: AnalyticOracle(AnalyticProblem("test1"),
                                                 NoiseSpec(sigma=1e-14)), HessianMode.ZERO),
       ("exact", lambda: ExactOracle(FiniteSumOracle(_LOGISTIC)), HessianMode.ZERO),
       ("finite-zero", lambda: FiniteSumOracle(_LOGISTIC), HessianMode.ZERO),
       ("finite-subsampled", lambda: FiniteSumOracle(_LOGISTIC), HessianMode.SUBSAMPLED)])


def _assert_same_run(a_x, a_hist, b_x, b_hist):
    np.testing.assert_array_equal(a_x, b_x)
    assert len(a_hist) == len(b_hist)
    for ra, rb in zip(a_hist, b_hist):
        for f in dataclasses.fields(IterationRecord):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, np.ndarray):
                np.testing.assert_array_equal(va, vb)
                assert va.dtype == vb.dtype
            else:      # repr tells -0.0 from 0.0 and round-trips floats exactly
                assert type(va) is type(vb) and repr(va) == repr(vb), f.name


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_BATCH_CASES), size=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), exact_metrics=st.booleans(),
       refine_steps=st.sampled_from([0, 0, 2]), keep_history=st.booleans(),
       smg=st.sampled_from([None, None, (0.5, 1.0), (0.1, 2.0)]))
def test_batch_composition_invariance(case, size, seed, exact_metrics, refine_steps,
                                      keep_history, smg):
    # Every state of a batch of any size ends exactly as its own run would:
    # the same records, field for field and bit for bit, and the same x.
    # That holds for the trust-region step and for the smg step rule.
    name, make_oracle, mode = case
    oracle = make_oracle()
    rng = np.random.default_rng(seed)
    lo, hi = (-1.0, 6.0) if isinstance(oracle, AnalyticOracle) else (-1.0, 1.0)
    x0s = rng.uniform(lo, hi, size=(size, oracle.n))
    if name == "test1-critical":
        x0s[::2, 1] = x0s[::2, 0] = rng.uniform(0.0, 5.0, size=len(x0s[::2]))
    seeds = rng.integers(0, 2**62, size=size).tolist()
    cfg = SolverConfig(k_max=12, hessian_mode=mode, exact_metrics=exact_metrics,
                       refine_steps=refine_steps)
    states = run_batch(oracle, cfg, x0s, seeds, keep_history=keep_history, smg=smg)
    for state, x0, s in zip(states, x0s, seeds):
        assert state.error is None and state.k == cfg.k_max
        if smg is None:
            x, history = run_final(make_oracle(), cfg.with_(seed=s), x0)
        else:
            alone, = run_batch(make_oracle(), cfg, [x0], [s], smg=smg)
            x, history = alone.x, alone.history
        if not keep_history:
            assert state.history == []
            history = []
        _assert_same_run(state.x, state.history, x, history)


@pytest.mark.parametrize("where", ["sample", "trial"])
def test_failed_state_leaves_the_others_unchanged(where):
    x0s = np.array([[1.0, 4.0], [9.0, 9.0], [3.0, -1.0], [0.5, 0.5]])
    seeds = [11, 12, 13, 14]
    cfg = SolverConfig(k_max=25)
    if where == "sample":
        oracle = PoisonedOracle.at(x0s[1])
    else:       # only the first trial step from (9, 9) lands in this band
        oracle = PoisonedOracle(lambda X: (X[:, 0] > 7.5) & (X[:, 0] < 8.9))
    states = run_batch(oracle, cfg, x0s, seeds)
    assert isinstance(states[1].error, ValueError)
    assert str(states[1].error) == "objective sample contains NaN/Inf"
    assert states[1].history == [] and states[1].k == 0
    np.testing.assert_array_equal(states[1].x, x0s[1])
    clean = PoisonedOracle(lambda X: np.zeros(len(X), dtype=bool))
    for b in (0, 2, 3):
        assert states[b].error is None
        _assert_same_run(states[b].x, states[b].history,
                         *run_final(clean, cfg.with_(seed=seeds[b]), x0s[b]))
    with pytest.raises(ValueError, match="NaN/Inf"):
        run_final(oracle, cfg.with_(seed=seeds[1]), x0s[1])
