"""Trust-region iteration: model building, Cauchy step, acceptance, dynamics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import PoisonedOracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motr import solver
from motr.core import (
    DimensionMismatchError,
    HessianCombine,
    HessianMode,
    SampleBatch,
    SolverConfig,
    Streams,
)
from motr.marginal import solve_marginal_batch
from motr.oracles import (
    AnalyticOracle,
    AnalyticProblem,
    ExactOracle,
    FiniteSumOracle,
    NoiseSpec,
    make_synthetic_logistic,
)
from motr.solver import (
    Batch,
    DegenerateDirectionError,
    InconsistentSampleError,
    IterationRecord,
    ModelSet,
    build_model,
    cauchy_step,
    combine_hessians,
    compute_rho,
    evaluate_model,
    iterate_batch,
    refine_step,
    run,
    run_batch,
    run_final,
    spectral_norm,
)


def _batch(values, gradients, hessians=None):
    """A SampleBatch of one state."""
    values = np.asarray(values, dtype=float)
    return SampleBatch(values[None], np.asarray(gradients, dtype=float)[None],
                       np.zeros((1, len(values)), dtype=int),
                       None if hessians is None else np.asarray(hessians)[None])


def _cauchy(model, delta):
    """``cauchy_step`` of the one-state ``model`` along its subproblem
    solution: that model, the solution, the step and the predicted reduction."""
    marg = solve_marginal_batch(model.base_gradients)
    d, pred = cauchy_step(model, marg.omega, marg.direction, np.array([delta]))
    return model, marg.take(0), d[0], pred[0]


def _along(model, steps):
    """The values of the one-state ``model`` at each row of ``steps``, in
    one stacked call."""
    return evaluate_model(model.take(np.zeros(len(steps), dtype=int)), steps)


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
    s = _batch([162.0, 32.0], [[18.0, 18.0], [8.0, 8.0]])
    m = build_model(s, HessianMode.ZERO)
    np.testing.assert_array_equal(m.beta, [1.0])
    assert m.hessian.shape == (1, 2, 2) and not np.any(m.hessian)
    np.testing.assert_array_equal(m.base_values, [[162.0, 32.0]])
    np.testing.assert_array_equal(m.base_gradients, [[[18.0, 18.0], [8.0, 8.0]]])


def test_build_model_second_order_beta():
    H = np.stack([np.diag([2.0, 0.5]), np.diag([2.0, 0.5])])
    s = _batch([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hessians=H)
    m = build_model(s, HessianMode.SUBSAMPLED, weights=np.array([[0.5, 0.5]]))
    assert m.beta.shape == (1,) and m.beta[0] == pytest.approx(3.0, rel=1e-7)


def test_build_model_requires_hessians_in_subsampled_mode():
    s = _batch([0.0], [[1.0, 0.0]])
    with pytest.raises(InconsistentSampleError):
        build_model(s, HessianMode.SUBSAMPLED)


def test_build_model_checks_oracle_shape():
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    s = _batch([0.0], [[1.0, 0.0]])
    with pytest.raises(InconsistentSampleError):
        build_model(s, HessianMode.ZERO, oracle=oracle)


def test_combine_hessians_modes():
    H = np.stack([np.diag([4.0, 0.0]), np.diag([0.0, 4.0])])
    w = np.array([0.25, 0.75])
    np.testing.assert_allclose(
        combine_hessians(H, w, HessianCombine.LAMBDA), np.diag([1.0, 3.0]))
    np.testing.assert_allclose(
        combine_hessians(H, w, HessianCombine.UNIFORM), np.diag([2.0, 2.0]))


def test_evaluate_model_examples():
    m = build_model(_batch([2.0], [[1.0, 0.0]]), HessianMode.ZERO)
    np.testing.assert_array_equal(_along(m, np.array([[0.0, 0.0], [1.0, 0.0]])), [2.0, 3.0])
    m2 = build_model(_batch([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), HessianMode.ZERO)
    np.testing.assert_array_equal(evaluate_model(m2, np.array([[-1.0, -1.0]])), [-1.0])
    # One model as two states, each at its own step; the Hessian term counts.
    H = np.stack([np.diag([2.0, 0.0])] * 2)
    m3 = build_model(_batch([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], hessians=H),
                     HessianMode.SUBSAMPLED, weights=np.array([[0.5, 0.5]])).take([0, 0])
    np.testing.assert_array_equal(evaluate_model(m3, np.array([[1.0, 0.0], [-1.0, 3.0]])),
                                  [3.0, 4.0])


def test_cauchy_step_rejects_critical_point():
    m = build_model(_batch([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]]), HessianMode.ZERO)
    with pytest.raises(DegenerateDirectionError):
        _cauchy(m, 1.0)


def test_cauchy_step_aligned_gradients():
    # Both gradients point along (1, 1); beta = 1 puts the 1-D minimizer at
    # the trust boundary and the reduction matches a dense line search.
    m, marg, d, pred = _cauchy(build_model(_batch([162.0, 32.0], [[18.0, 18.0], [8.0, 8.0]]),
                                           HessianMode.ZERO), 1.0)
    np.testing.assert_allclose(d, -np.ones(2) / np.sqrt(2.0), atol=1e-9)
    assert pred >= 0.5 * marg.omega * min(1.0, marg.omega / m.beta[0]) - 1e-12
    grid = np.linspace(0.0, 1.0, 20001)
    line = _along(m, grid[:, None] * marg.direction)
    assert evaluate_model(m, d[None])[0] <= line.min() + 1e-9


def test_cauchy_step_q1_linear():
    # Curvature-free single-objective model: the exact 1-D minimizer takes
    # the full trust step, never less decrease than the omega/beta-capped
    # candidate (whose reduction would be 4 here).
    m, marg, d, pred = _cauchy(build_model(_batch([0.0], [[2.0, 0.0]]), HessianMode.ZERO), 10.0)
    assert marg.omega == pytest.approx(2.0)
    np.testing.assert_allclose(d, [-10.0, 0.0], atol=1e-12)
    assert pred == pytest.approx(20.0)
    assert pred >= 4.0
    assert pred >= 0.5 * 2.0 * min(10.0, 2.0)


def test_cauchy_step_breakpoint_handling():
    # Crossing objectives: the exact 1-D minimizer sits where the active
    # objective changes, and matches a dense grid.
    m, marg, d, pred = _cauchy(build_model(_batch([1.0, 0.0], [[2.0, 0.0], [0.5, 0.1]]),
                                           HessianMode.ZERO), 5.0)
    grid = np.linspace(0.0, 5.0, 200001)
    line = _along(m, grid[:, None] * marg.direction).min()
    assert evaluate_model(m, d[None])[0] <= line + 1e-8
    assert pred >= 0.5 * marg.omega * min(5.0, marg.omega / m.beta[0]) - 1e-12



def _evaluate_one(model, b, d):
    """Reference: state b's model value at its step ``d`` (n,)."""
    d = np.asarray(d, dtype=float)
    linear = model.base_values[b] + model.base_gradients[b] @ d
    return float(np.max(linear) + 0.5 * d @ (model.hessian[b] @ d))


def _refine_one(model, b, d, delta, predicted_reduction, steps):
    """Reference: the refine step of state b alone, one move at a time."""
    m0 = _evaluate_one(model, b, np.zeros_like(d))
    best = m0 - predicted_reduction
    t = delta / 4.0
    for _ in range(steps):
        linear = model.base_values[b] + model.base_gradients[b] @ d
        active = int(np.argmax(linear))
        g = model.base_gradients[b][active] + model.hessian[b] @ d
        cand = d - t * g
        norm = np.linalg.norm(cand)
        if norm > delta:
            cand = cand * (delta / norm)
        val = _evaluate_one(model, b, cand)
        if val < best - 1e-14 * max(1.0, abs(best)):
            d, best = cand, val
        else:
            t *= 0.5
    return d, m0 - best


# From the least positive float, the radius floor of a long run, up; at the
# smallest radii no move clears the absolute decrease tolerance of 1e-14.
_RADII = [5e-324, 1e-310, 1e-300, 1e-15, 1e-13, 1e-8, 0.5, 1.0, 7.0, 100.0]


@st.composite
def _refine_models(draw, radii):
    """A ModelSet of up to 5 states with q in 1..3 objectives over n in 1..6
    variables, each state's Hessian zero, PSD or indefinite, and a radius
    (B,) per state drawn from ``radii``."""
    q, n, B = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((B, n, n)) * 10.0 ** rng.uniform(-2, 1, size=(B, 1, 1))
    kinds = draw(st.lists(st.sampled_from(["zero", "psd", "indefinite"]),
                          min_size=B, max_size=B))
    H = np.stack([{"zero": np.zeros((n, n)), "psd": a @ a.T, "indefinite": a + a.T}[kind]
                  for a, kind in zip(A, kinds)])
    model = ModelSet(rng.uniform(-10.0, 10.0, size=(B, q)), rng.standard_normal((B, q, n)),
                     H, 1.0 + spectral_norm(H))
    delta = np.array(draw(st.lists(st.sampled_from(radii), min_size=B, max_size=B)))
    return model, delta, rng


@settings(max_examples=200, deadline=None)
@given(case=_refine_models(_RADII), steps=st.integers(0, 5), zero_row=st.booleans())
def test_refine_step_equals_the_one_state_reference_bit_for_bit(case, steps, zero_row):
    model, delta, rng = case
    B, n = model.hessian.shape[:2]
    u = rng.standard_normal((B, n))
    d = u / np.linalg.norm(u, axis=1, keepdims=True) * (delta * rng.uniform(0.0, 1.0, B))[:, None]
    if zero_row:
        # From d = 0 along a zero gradient: every candidate has norm 0.
        d[0] = 0.0
        model.base_gradients[0, model.base_values[0].argmax()] = 0.0
    pred = np.array([_evaluate_one(model, b, np.zeros(n)) - _evaluate_one(model, b, d[b])
                     for b in range(B)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_d, got_pred = refine_step(model, d, delta, pred, steps)
        for b in range(B):
            want_d, want_pred = _refine_one(model, b, d[b], delta[b], pred[b], steps)
            assert got_d[b].tobytes() == want_d.tobytes()
            assert got_pred[b].tobytes() == np.float64(want_pred).tobytes()
        np.testing.assert_array_equal(
            evaluate_model(model, d), [_evaluate_one(model, b, d[b]) for b in range(B)])


@settings(max_examples=200, deadline=None)
@given(case=_refine_models(_RADII), steps=st.integers(1, 5))
def test_refine_step_stays_in_the_ball_and_below_the_cauchy_value(case, steps):
    model, delta, _ = case
    marg = solve_marginal_batch(model.base_gradients)
    at = np.flatnonzero((marg.omega > 0) & marg.direction.any(axis=1))
    assume(at.size)
    model, delta = model.take(at), delta[at]
    d, pred = cauchy_step(model, marg.omega[at], marg.direction[at], delta)
    refined, refined_pred = refine_step(model, d, delta, pred, steps)
    norms = np.linalg.norm(refined, axis=1)
    assert (norms <= delta * (1.0 + 4.0 * np.finfo(float).eps)).all()
    scale = (1.0 + np.abs(model.base_values).max(axis=1)
             + np.abs(model.base_gradients).sum(axis=(1, 2)) * delta
             + np.abs(model.hessian).sum(axis=(1, 2)) * delta * delta)
    assert (evaluate_model(model, refined) <= evaluate_model(model, d) + 1e-12 * scale).all()
    assert (refined_pred >= pred - 1e-12 * scale).all()


def test_compute_rho():
    assert compute_rho(5.0, 3.0, 2.0, 1e-14) == pytest.approx(1.0)
    assert compute_rho(5.0, 6.0, 2.0, 1e-14) == pytest.approx(-0.5)
    assert compute_rho(5.0, 3.0, 1e-18, 1e-14) == -math.inf


def test_loop_calls_the_traced_solver_names(monkeypatch):
    # perfbench/tracer.py counts the model, Cauchy-step and spectral-norm
    # layers by wrapping these module names: the loop must call them, once
    # per iteration for the whole batch.
    calls = dict.fromkeys(("build_model", "cauchy_step", "spectral_norm"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    cfg = SolverConfig(k_max=3, hessian_mode=HessianMode.SUBSAMPLED)
    batch = run_batch(FiniteSumOracle(make_synthetic_logistic()), cfg, [np.zeros(10)] * 2, [0, 1])
    assert batch.errors == [None, None]
    assert calls == dict.fromkeys(calls, 3)


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


_REUSE_CASES = {
    "noisy-test1": (lambda: AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1)),
                    HessianMode.ZERO, None),
    "finite-sum": (lambda: FiniteSumOracle(make_synthetic_logistic(60, 4, seed=3)),
                   HessianMode.SUBSAMPLED, None),
    "smg": (lambda: AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1)),
            HessianMode.ZERO, (0.2, 1.0)),
}


@pytest.mark.parametrize("case", sorted(_REUSE_CASES))
def test_exact_metrics_equal_a_fresh_solve_at_every_row(case):
    # The exact columns are computed only where an iterate moved and
    # repeated while it stays put; row k must still equal a fresh exact
    # evaluation and subproblem solve at x_k, the final x of the same run
    # stopped after k iterations.
    make_oracle, mode, smg = _REUSE_CASES[case]
    x0s = np.array([[9.0, 9.0], [1.0, 4.0], [3.0, -1.0]])
    if case == "finite-sum":
        x0s = np.random.default_rng(1).uniform(-1.0, 1.0, size=(3, 4))
    seeds, cfg = [21, 22, 23], SolverConfig(k_max=14, hessian_mode=mode)
    trace = run_batch(make_oracle(), cfg, x0s, seeds, smg=smg).trace
    if smg is None:     # rows that repeat the one before as well as new ones
        assert 0 < trace["success"].sum() < trace["success"].size
    for k in range(cfg.k_max):
        x_k = x0s if k == 0 else run_batch(make_oracle(), cfg.with_(k_max=k), x0s, seeds,
                                           keep_history=False, smg=smg).x
        values, gradients, _ = make_oracle().exact_evaluate_batch(x_k)
        np.testing.assert_array_equal(
            trace["omega_true"][k], solve_marginal_batch(gradients, cfg.marginal_tol).omega)
        np.testing.assert_array_equal(trace["phi_true"][k], values.max(axis=1))


class _ExactCalls(AnalyticOracle):
    """Noisy test1 that records the points of every exact evaluation."""

    def __init__(self):
        super().__init__(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
        self.calls = []

    def exact_evaluate_batch(self, X, need_hessians=False):
        self.calls.append(np.array(X))
        return super().exact_evaluate_batch(X, need_hessians)


@pytest.mark.parametrize("keep_history", [True, False])
@pytest.mark.parametrize("smg", [None, (0.2, 1.0)])
def test_exact_evaluation_only_where_an_iterate_moved(keep_history, smg):
    # The instrumentation evaluates exactly at k = 0 and, after that, only
    # the iterates that moved at k - 1; never without a trace to keep it.
    oracle = _ExactCalls()
    x0s, seeds = [[9.0, 9.0], [1.0, 4.0], [2.5, 2.5]], [31, 32, 33]
    cfg = SolverConfig(k_max=40)
    batch = Batch(np.array(x0s), np.full(3, cfg.delta0 if smg is None else smg[1]),
                  np.zeros(3, dtype=int), np.zeros(3, dtype=int),
                  Streams([(s, 0) for s in seeds]), [None] * 3,
                  {} if keep_history else None)
    moved = np.ones(3, dtype=bool)
    for k in range(cfg.k_max):
        x_k = batch.x.copy()
        iterate_batch(batch, oracle, cfg, smg)
        if not keep_history:
            assert oracle.calls == []
            continue
        want = [x_k[moved]] if moved.any() else []
        assert len(oracle.calls) == len(want), k
        for got, x in zip(oracle.calls, want):
            np.testing.assert_array_equal(got, x)
        oracle.calls.clear()
        moved = batch.trace["success"][k]
    if keep_history and smg is None:
        assert 0 < batch.trace["success"].sum() < batch.trace["success"].size


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


def test_non_finite_iterate_stops_only_its_own_state():
    # This smg step overflows from (9, 9). (2.5, 2.5) is Pareto critical on
    # exact test1, so its step is zero and it runs on as it would alone.
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    cfg, smg = SolverConfig(k_max=2), (1e308, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_batch(oracle, cfg, [[9.0, 9.0], [2.5, 2.5]], [0, 1], smg=smg)
        alone = run_batch(oracle, cfg, [[2.5, 2.5]], [1], smg=smg)[0]
    assert isinstance(batch.errors[0], ValueError)
    assert str(batch.errors[0]) == "iterate is not finite"
    assert batch[0].k == 0 and batch[0].history == []
    np.testing.assert_array_equal(batch.x[0], [9.0, 9.0])
    assert batch.errors[1] is None and alone.error is None and alone.k == 2
    _assert_same_run(batch[1].x, batch[1].history, alone.x, alone.history)


class _Recording(FiniteSumOracle):
    """A finite-sum oracle that records each evaluate_batch call: its
    points, radii, accuracy target, streams and result."""

    def __init__(self, problem):
        super().__init__(problem)
        self.calls = []

    def evaluate_batch(self, X, deltas, alpha, rngs, rows, need_hessians=False):
        sample = super().evaluate_batch(X, deltas, alpha, rngs, rows, need_hessians)
        self.calls.append((np.array(X), np.array(deltas), alpha, (rngs, rows.tolist()), sample))
        return sample


def _replayed_streams(problem, seeds, calls):
    """Fresh streams for ``seeds`` after drawing exactly the given
    (points, radii, accuracy target) evaluations, one state per row."""
    fresh = Streams([(s, 0) for s in seeds])
    for X, deltas, alpha in calls:
        FiniteSumOracle(problem).evaluate_batch(X, deltas, alpha, fresh, np.arange(len(seeds)))
    return fresh


def test_a_trial_decided_by_the_guard_is_not_evaluated():
    # A guard above every predicted reduction decides each trial: every
    # iteration makes one oracle call, for the samples, the cost is theirs
    # alone, and each stream has drawn its samples and nothing else.
    problem = make_synthetic_logistic(60, 4, seed=3)
    oracle = _Recording(problem)
    cfg, seeds = SolverConfig(k_max=6, rho_guard=1e300), [41, 42, 43]
    x0s = np.random.default_rng(2).uniform(-1.0, 1.0, size=(3, 4))
    batch = run_batch(oracle, cfg, x0s, seeds)
    assert batch.errors == [None] * 3 and len(oracle.calls) == cfg.k_max
    trace = batch.trace
    assert np.isneginf(trace["rho"]).all() and not trace["success"].any()
    assert (trace["step_norm"] > 0).all() and (trace["predicted_reduction"] > 0).all()
    np.testing.assert_array_equal(trace["cost_so_far"],
                                  np.cumsum([c[-1].cost for c in oracle.calls], axis=0))
    assert (trace["cost_so_far"][-1] > 0).all()
    fresh = _replayed_streams(problem, seeds, [c[:3] for c in oracle.calls])
    for b in range(len(seeds)):
        np.testing.assert_equal(batch.rngs.state(b), fresh.state(b))


def test_only_the_undecided_trials_are_evaluated():
    # States 1 and 3 have radii so small that their predicted reduction,
    # positive, is at or below the guard. 0 and 2 evaluate their trials, in one call on
    # their streams alone, and their rho is compute_rho of that trial;
    # 1 and 3 keep the step they proposed, rho = -inf and their samples' cost.
    problem = make_synthetic_logistic(60, 4, seed=3)
    oracle = _Recording(problem)
    cfg, seeds = SolverConfig(k_max=1), [51, 52, 53, 54]
    x0s = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 4))
    batch = Batch(x0s.copy(), np.array([1.0, 1e-15, 0.5, 3e-15]), np.zeros(4, dtype=int),
                  np.zeros(4, dtype=int), Streams([(s, 0) for s in seeds]), [None] * 4, {})
    iterate_batch(batch, oracle, cfg)
    assert batch.errors == [None] * 4 and len(oracle.calls) == 2
    (_, _, alpha, sample_rngs, sample), (X, deltas, _, trial_rngs, trial) = oracle.calls
    assert sample_rngs[0] is trial_rngs[0] is batch.rngs
    assert sample_rngs[1] == [0, 1, 2, 3] and trial_rngs[1] == [0, 2]
    np.testing.assert_array_equal(deltas, [1.0, 0.5])
    row = {name: column[0] for name, column in batch.trace.items()}
    guard = cfg.rho_guard * np.maximum(1.0, np.abs(row["phi_tilde"]))
    open_, decided = [0, 2], [1, 3]
    np.testing.assert_array_equal(row["predicted_reduction"] > guard, [True, False, True, False])
    np.testing.assert_allclose(np.linalg.norm(X - x0s[open_], axis=1), row["step_norm"][open_])
    np.testing.assert_array_equal(
        row["rho"][open_], compute_rho(row["phi_tilde"][open_], trial.values.max(axis=1),
                                       row["predicted_reduction"][open_], guard[open_]))
    assert np.isneginf(row["rho"][decided]).all() and not row["success"][decided].any()
    assert (row["step_norm"][decided] > 0).all()
    assert (row["predicted_reduction"][decided] > 0).all()
    np.testing.assert_array_equal(row["cost_so_far"][open_], sample.cost[open_] + trial.cost)
    np.testing.assert_array_equal(row["cost_so_far"][decided], sample.cost[decided])
    np.testing.assert_array_equal(batch.x[decided], x0s[decided])
    fresh = _replayed_streams(problem, [seeds[b] for b in decided],
                              [(x0s[decided], [1e-15, 3e-15], alpha)])
    for j, b in enumerate(decided):
        np.testing.assert_equal(batch.rngs.state(b), fresh.state(j))


def test_a_state_with_a_non_positive_radius_stops_and_the_others_go_on():
    # A hand-built batch may hold any radius: a state whose radius is not
    # positive fails before its first sample, draws nothing and keeps its
    # point; the others run as they would alone.
    oracle = AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1))
    cfg, seeds = SolverConfig(k_max=6), [61, 62, 63, 64]
    x0s = np.array([[9.0, 9.0], [1.0, 4.0], [3.0, -1.0], [0.5, 0.5]])
    batch = Batch(x0s.copy(), np.array([1.0, 0.0, -2.0, 1.0]), np.zeros(4, dtype=int),
                  np.zeros(4, dtype=int), Streams([(s, 0) for s in seeds]), [None] * 4, {})
    for _ in range(cfg.k_max):
        iterate_batch(batch, oracle, cfg)
    for b in (1, 2):
        assert str(batch.errors[b]) == "delta must be positive"
        assert batch.k[b] == 0 and batch.rngs.state(b) == 0
        np.testing.assert_array_equal(batch.x[b], x0s[b])
    alone = run_batch(oracle, cfg, x0s[[0, 3]], [seeds[0], seeds[3]])
    for b, j in ((0, 0), (3, 1)):
        assert batch.errors[b] is None
        _assert_same_run(batch[b].x, batch[b].history, alone[j].x, alone[j].history)


@pytest.mark.parametrize("x0s, error, message", [
    ([[1.0, 2.0, 3.0]], DimensionMismatchError, "expected dimension 2, got 3"),
    (np.zeros((1, 2, 2)), DimensionMismatchError, None),
    ([[9.0, 9.0], [np.nan, 1.0]], ValueError, "NaN"),
])
def test_run_batch_checks_its_starts_as_one_stack(x0s, error, message):
    oracle = AnalyticOracle(AnalyticProblem("test1"))
    with pytest.raises(error, match=message):
        run_batch(oracle, SolverConfig(k_max=1), x0s, [0] * len(x0s))
