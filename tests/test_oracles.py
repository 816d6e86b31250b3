"""Evaluation backends: analytic problems, noise injection, subsampling, data."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motr import oracles
from motr.core import (ConfigError, HessianMode, ObjectiveSample, RngStream, SolverConfig,
                       Streams)
from motr.oracles import (
    ANALYTIC,
    AnalyticOracle,
    AnalyticProblem,
    EmptyGroupError,
    ExactOracle,
    FiniteSumOracle,
    FiniteSumProblem,
    LabelDomainError,
    NoiseSpec,
    ParseError,
    _logistic_stack,
    _parse_csv,
    analytic_bound_constants,
    draw_noise,
    load_dataset,
    make_synthetic_logistic,
    required_sample_size,
    subsampled_evaluate,
)
from motr.solver import run_batch


def test_analytic_problem_names():
    assert AnalyticProblem("test1").q == 2
    with pytest.raises(ConfigError):
        AnalyticProblem("test3")


def test_analytic_table_rows_match_their_functions():
    # A row's (n, q) is the problem's only declaration of its shape.
    rng = np.random.default_rng(5)
    for name, (n, q, batch) in ANALYTIC.items():
        X = rng.uniform(-3.0, 3.0, size=(4, n))
        f, g, h = batch(X, True)
        assert (f.shape, g.shape, h.shape) == ((4, q), (4, q, n), (4, q, n, n))
        assert batch(X, False)[2] is None
        assert (AnalyticProblem(name).n, AnalyticProblem(name).q) == (n, q)
    with pytest.raises(TypeError):
        AnalyticProblem("test1", n=3)


def test_test1_values_and_gradients():
    (f,), (g,), _ = AnalyticProblem("test1").exact_batch(np.zeros((1, 2)))
    np.testing.assert_allclose(f, [0.0, 50.0])
    np.testing.assert_allclose(g[0], [0.0, 0.0])
    (f,), (g,), (h,) = AnalyticProblem("test1").exact_batch(np.array([[9.0, 9.0]]))
    np.testing.assert_allclose(f, [162.0, 32.0])
    np.testing.assert_allclose(g, [[18.0, 18.0], [8.0, 8.0]])
    np.testing.assert_allclose(h[0], 2.0 * np.eye(2))


def test_test2_peak_point():
    (f,), (g,), _ = AnalyticProblem("test2").exact_batch(np.array([[0.5, 0.5]]))
    assert f[1] == pytest.approx(0.0)
    np.testing.assert_allclose(g[1], [0.0, 0.0], atol=1e-15)
    assert f[0] == pytest.approx(math.sin(0.5))


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for name in ("test1", "test2"):
        prob = AnalyticProblem(name)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=2)
            _, (g,), (h,) = prob.exact_batch(x[None])
            eps = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                (fp,), _, _ = prob.exact_batch((x + e)[None])
                (fm,), _, _ = prob.exact_batch((x - e)[None])
                np.testing.assert_allclose(g[:, j], (fp - fm) / (2 * eps),
                                           rtol=1e-5, atol=1e-7)
                _, (gp,), _ = prob.exact_batch((x + e)[None])
                _, (gm,), _ = prob.exact_batch((x - e)[None])
                np.testing.assert_allclose(h[:, :, j], (gp - gm) / (2 * eps),
                                           rtol=1e-4, atol=1e-6)


def test_noise_spec_validation():
    with pytest.raises(ConfigError):
        NoiseSpec(sigma=-1.0)
    with pytest.raises(ConfigError):
        NoiseSpec(sigma=1.0, bounded=True, cap_f=0.0)


def test_zero_sigma_is_exact():
    prob = AnalyticProblem("test1")
    rng = RngStream(0).generator()
    s = AnalyticOracle(prob, NoiseSpec(sigma=0.0)).evaluate(np.array([1.0, 2.0]), 0.5, 0.5, rng)
    (f,), (g,), _ = prob.exact_batch(np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(s.values, f)
    np.testing.assert_array_equal(s.gradients, g)
    assert s.cost == 0


def test_noise_scaling_law():
    # Value perturbations scale with delta^2: sample variance over 10^4
    # draws within 5% of sigma^2 * delta^4.
    prob = AnalyticProblem("test1")
    rng = RngStream(12).generator()
    x = np.array([1.0, 1.0])
    sigma, delta = 0.7, 0.3
    (f_exact,), _, _ = prob.exact_batch(x[None])
    oracle = AnalyticOracle(prob, NoiseSpec(sigma=sigma))
    diffs = np.array([oracle.evaluate(x, delta, 0.5, rng).values[0] - f_exact[0]
                      for _ in range(10_000)])
    assert np.var(diffs) == pytest.approx(sigma**2 * delta**4, rel=0.05)


def test_bounded_noise_caps_hold_deterministically():
    prob = AnalyticProblem("test1")
    spec = NoiseSpec(sigma=2.0, bounded=True, cap_f=1.0, cap_g=1.0)
    rng = RngStream(13).generator()
    x = np.array([2.0, -1.0])
    (f,), (g,), _ = prob.exact_batch(x[None])
    for delta in (0.05, 0.5, 2.0):
        for _ in range(200):
            s = AnalyticOracle(prob, spec).evaluate(x, delta, 0.5, rng)
            assert np.all(np.abs(s.values - f) <= spec.cap_f * delta**2 + 1e-12)
            for i in range(2):
                assert np.linalg.norm(s.gradients[i] - g[i]) <= spec.cap_g * delta + 1e-12


def test_shared_gradient_noise_flag():
    prob = AnalyticProblem("test1")
    rng = RngStream(14).generator()
    x = np.array([1.0, 1.0])
    _, (g,), _ = prob.exact_batch(x[None])
    s = AnalyticOracle(prob, NoiseSpec(sigma=1.0, shared_gradient_noise=True)).evaluate(
        x, 0.5, 0.5, rng)
    np.testing.assert_allclose(s.gradients[0] - g[0], s.gradients[1] - g[1])


def _block_rejection_noise(noise, rng, q, n):
    """Reference one-state draw, in plain Python: the first normals, per
    objective its value noise, then its gradient noise (drawn once, after
    the first value, when shared); with ``bounded``, in each round every
    component outside its cap, in column order, draws ``_CANDIDATES``
    candidates and takes the first one inside."""
    shared = noise.shared_gradient_noise
    grad = [False, True] + ([False] * (q - 1) if shared else [False, True] * (q - 1))
    sizes = [n if g else 1 for g in grad]
    caps = [noise.cap_g if g else noise.cap_f for g in grad]
    row = rng.normal(0.0, noise.sigma, size=sum(sizes))
    comps = np.split(row, np.cumsum(sizes)[:-1])

    def inside(e, j):
        return (np.linalg.norm(e) if grad[j] else abs(e[0])) <= caps[j]

    out = [j for j, e in enumerate(comps) if noise.bounded and not inside(e, j)]
    for _ in range(oracles._ROUNDS):
        for j in out:
            size = sizes[j]
            candidates = rng.normal(0.0, noise.sigma, size=oracles._CANDIDATES * size)
            for e in candidates.reshape(-1, size):
                if inside(e, j):
                    comps[j] = e
                    break
        out = [j for j in out if not inside(comps[j], j)]
    if out:
        raise ValueError(f"bounded noise: no draw within cap {caps[out[0]]} in 10000 tries")
    if shared:
        return np.concatenate([comps[0]] + comps[2:]), np.tile(comps[1], (q, 1))
    return np.concatenate(comps[0::2]), np.array(comps[1::2])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), q=st.integers(1, 3),
       n=st.integers(1, 4), sigma=st.sampled_from([0.1, 0.5, 1.0]),
       bounded=st.booleans(), caps=st.sampled_from([(0.05, 0.5), (0.5, 0.5), (1.0, 3.0)]),
       shared=st.booleans())
def test_noise_draws_match_block_rejection_reference(seed, size, q, n, sigma, bounded, caps,
                                                     shared):
    # The batched draw gives each state the reference's values bit for bit
    # and leaves its stream where the reference leaves it; the row left out
    # of the draws draws nothing.
    noise = NoiseSpec(sigma=sigma, bounded=bounded, cap_f=caps[0], cap_g=caps[1],
                      shared_gradient_noise=shared)
    rngs = Streams([(seed, b) for b in range(size + 1)])
    refs = [RngStream(seed, b).generator() for b in range(size)]
    for _ in range(3):
        eps_f, eps_g = draw_noise(noise, rngs, np.arange(size), q, n)
        for b in range(size):
            want_f, want_g = _block_rejection_noise(noise, refs[b], q, n)
            np.testing.assert_array_equal(eps_f[b], want_f)
            np.testing.assert_array_equal(eps_g[b], want_g)
    assert [rngs.state(b) for b in range(size)] == [ref.state() for ref in refs]
    assert rngs.state(size) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 14])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_noise_fast_path_at_the_exact_cap(seed, n):
    # The first gradient draw's norm is the cap, or the cap is one ulp below
    # it: the batch check must decide as the reference does, keeping the
    # draw or redrawing the gradient once.
    norm = float(np.linalg.norm(RngStream(seed).generator().normal(0.0, 1.0, size=1 + n)[1:]))
    first = 2 * -(-(1 + n) // 2)
    for cap_g, used in ((norm, first), (np.nextafter(norm, 0.0), first + 8 * n)):
        noise = NoiseSpec(sigma=1.0, bounded=True, cap_f=10.0, cap_g=cap_g)
        rng, ref = RngStream(seed).generator(), RngStream(seed).generator()
        eps_f, eps_g = draw_noise(noise, rng, np.zeros(1, dtype=int), 1, n)
        want_f, want_g = _block_rejection_noise(noise, ref, 1, n)
        np.testing.assert_array_equal(eps_f[0], want_f)
        np.testing.assert_array_equal(eps_g[0], want_g)
        assert rng.state() == ref.state() == used


def test_bounded_noise_exhaustion_is_an_error_naming_the_cap():
    noise = NoiseSpec(sigma=1.0, bounded=True, cap_g=0.001)
    message = "bounded noise: no draw within cap 0.001 in 10000 tries"
    with pytest.raises(ValueError, match=message):
        draw_noise(noise, RngStream(3).generator(), np.zeros(1, dtype=int), 2, 2)
    with pytest.raises(ValueError, match=message):
        _block_rejection_noise(noise, RngStream(3).generator(), 2, 2)
    oracle = AnalyticOracle(AnalyticProblem("test1"), noise)
    with pytest.raises(ValueError, match=message):
        oracle.evaluate(np.zeros(2), 1.0, 0.5, RngStream(3).generator())


def test_exhausted_rounds_leave_each_stream_where_the_reference_does():
    # A gradient cap that about half the components meet within 10,000
    # candidates: some states accept and stop drawing, others run out and
    # the draw raises. Up to the raise each state has drawn what its
    # reference draws, no more; the row left out has drawn nothing.
    noise = NoiseSpec(sigma=1.0, bounded=True, cap_f=10.0, cap_g=0.0118)
    rngs, rows = Streams([(9, b) for b in range(9)]), np.arange(8)
    with pytest.raises(ValueError, match="within cap 0.0118 in 10000 tries"):
        draw_noise(noise, rngs, rows, 2, 2)
    exhausted = []
    for b in rows.tolist():
        ref = RngStream(9, b).generator()
        try:
            _block_rejection_noise(noise, ref, 2, 2)
        except ValueError:
            exhausted.append(b)
        assert rngs.state(b) == ref.state()
    assert 0 < len(exhausted) < 8 and rngs.state(8) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_rejection_gives_the_truncated_normal(seed):
    # Caps of one sigma redraw about a third of the values and two in five
    # gradient vectors, some more than once. The accepted values follow the
    # normal truncated to the cap: |e| / sigma has the CDF erf(t / sqrt 2) /
    # erf(1 / sqrt 2) on [0, 1], the norm of a 2-vector (1 - exp(-t^2 / 2)) /
    # (1 - exp(-1 / 2)); each sign is equally likely.
    B, sigma = 10_000, 0.5
    noise = NoiseSpec(sigma=sigma, bounded=True, cap_f=sigma, cap_g=sigma)
    eps_f, eps_g = draw_noise(noise, Streams([(seed, b) for b in range(B)]), np.arange(B), 2, 2)
    values, norms = np.abs(eps_f).ravel() / sigma, np.linalg.norm(eps_g, axis=2).ravel() / sigma
    assert values.max() <= 1.0 and norms.max() <= 1.0

    def within(hits, m, p):
        assert abs(int(hits) - m * p) <= 5.0 * math.sqrt(m * p * (1 - p)), (hits, m, p)

    for t in (0.25, 0.5, 0.75, 0.9):
        within((values <= t).sum(), values.size,
               math.erf(t / math.sqrt(2.0)) / math.erf(1.0 / math.sqrt(2.0)))
        within((norms <= t).sum(), norms.size,
               (1.0 - math.exp(-t * t / 2.0)) / (1.0 - math.exp(-0.5)))
    for signs in (eps_f > 0, eps_g > 0):
        within(signs.sum(), signs.size, 0.5)


def test_required_sample_size_reference_value():
    assert required_sample_size("value", 1.0, 0.5, math.sqrt(0.5)) == 274


def test_required_sample_size_floor_and_cap():
    assert required_sample_size("value", 1.0, 10.0, 0.01) == 1
    assert required_sample_size("value", 1.0, 0.01, 0.99, group_size=500) == 500


def test_required_sample_size_monotonicity():
    rng = np.random.default_rng(15)
    for _ in range(200):
        c = rng.uniform(0.1, 5.0)
        d1, d2 = sorted(rng.uniform(0.05, 3.0, size=2))
        a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
        for kind in ("value", "gradient"):
            assert required_sample_size(kind, c, d1, a1) >= required_sample_size(kind, c, d2, a1)
            assert required_sample_size(kind, c, d1, a2) >= required_sample_size(kind, c, d1, a1)


def _direct_sample_size(kind, c, delta, alpha, group_size):
    """The formula evaluated directly in linear space."""
    power = 4 if kind == "value" else 2
    amp = (1.0 + math.sqrt(8.0 * math.log(1.0 / (1.0 - alpha)))) ** 2
    size = max(1, math.ceil(c ** 2 / delta ** power * amp))
    return size if group_size is None else min(size, group_size)


def test_required_sample_size_matches_direct_formula_and_caps_tiny_radii():
    deltas = list(np.logspace(-80, 2, 300))
    finite = underflowing = 0
    for kind in ("value", "gradient"):
        for c in (0.3, 1.0, 4.0):
            for alpha in (0.5, math.sqrt(0.5), 0.95):
                for cap in (1, 150, 8000, None):
                    grid = list(deltas)
                    if cap is not None:
                        # Radii at which the bound crosses the cap, and their neighbours.
                        amp = (1.0 + math.sqrt(8.0 * math.log(1.0 / (1.0 - alpha)))) ** 2
                        power = 4 if kind == "value" else 2
                        edge = (c * c * amp / cap) ** (1.0 / power)
                        grid += [edge * (1.0 + t) for t in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
                        grid += [1.7e-77, 1e-300, 5e-324]
                    for delta in grid:
                        try:
                            want = _direct_sample_size(kind, c, delta, alpha, cap)
                        except (OverflowError, ZeroDivisionError) as exc:
                            if cap is None:     # nothing to fall back to
                                with pytest.raises(type(exc)):
                                    required_sample_size(kind, c, delta, alpha)
                            else:
                                assert required_sample_size(kind, c, delta, alpha, cap) == cap
                                underflowing += 1
                            continue
                        assert required_sample_size(kind, c, delta, alpha, cap) == want
                        finite += 1
    assert finite > 1000 and underflowing > 100


def test_required_sample_size_validation():
    with pytest.raises(ValueError):
        required_sample_size("value", 1.0, -0.5, 0.5)
    with pytest.raises(ValueError):
        required_sample_size("value", 1.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        required_sample_size("curvature", 1.0, 0.5, 0.5)


@pytest.mark.parametrize("kind", ["value", "gradient"])
@pytest.mark.parametrize("group_size", [None, 100])
def test_required_sample_size_rejects_nan(kind, group_size):
    # A NaN radius or constant is not positive: it used to reach math.ceil
    # and fail with "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match="^delta must be positive$"):
        required_sample_size(kind, 1.0, math.nan, 0.5, group_size)
    with pytest.raises(ValueError, match="^bound_constant must be positive$"):
        required_sample_size(kind, math.nan, 0.5, 0.5, group_size)


def test_finite_sum_evaluate_batch_rejects_a_nan_radius():
    oracle = FiniteSumOracle(make_synthetic_logistic(40, 4, seed=5))
    with pytest.raises(ValueError, match="^delta must be positive$"):
        oracle.evaluate_batch(np.zeros((2, 4)), np.array([0.5, math.nan]), 0.5,
                              Streams([(0, 0), (1, 0)]), np.arange(2))


def test_bound_constants_formulas():
    F, G = analytic_bound_constants(1.0, np.array([0.1, 0.1]), np.zeros(3))
    np.testing.assert_allclose(F, 1.0 + math.log(2.0))
    np.testing.assert_allclose(G, 1.0)
    _, G0 = analytic_bound_constants(2.5, np.array([0.0]), np.zeros(3))
    np.testing.assert_allclose(G0, 2.5)
    x = np.array([3.0, 4.0, 0.0])
    _, G1 = analytic_bound_constants(1.0, np.array([0.2]), x)
    np.testing.assert_allclose(G1, 1.0 + 0.2 * 5.0)
    # F is infinite only where exp overflows, and then takes the whole group.
    edge = math.log(np.finfo(float).max)
    F, G = analytic_bound_constants(1.0, np.array([0.1]), np.array([edge, 0.0]))
    assert F[0] == math.exp(edge) + math.log(2.0) + 0.05 * edge ** 2
    F, G = analytic_bound_constants(1.0, np.array([0.1]), np.array([np.nextafter(edge, 800.0)]))
    assert F[0] == math.inf and G[0] == 1.0 + 0.1 * np.nextafter(edge, 800.0)
    assert required_sample_size("value", F[0], 1.0, 0.5, group_size=150) == 150


def test_analytic_constants_overflow_in_one_state_leaves_the_others_alone():
    oracle = FiniteSumOracle(make_synthetic_logistic(300, 10, seed=7), "analytic")
    config = SolverConfig(k_max=3, hessian_mode=HessianMode.SUBSAMPLED)
    x0s = np.zeros((3, 10))
    x0s[1, 0] = 800.0
    with np.errstate(all="ignore"):
        batch = run_batch(oracle, config, x0s, [5, 6, 7])
        solos = [run_batch(oracle, config, x0s[[b]], [5 + b])[0] for b in (0, 2)]
    np.testing.assert_array_equal(batch.trace["sample_sizes"][0, 1], [150, 150])
    for b, solo in zip((0, 2), solos):
        state = batch[b]
        assert state.error is None and solo.error is None
        np.testing.assert_array_equal(state.x, solo.x)
        assert state.delta == solo.delta
        np.testing.assert_array_equal(batch.trace["sample_sizes"][:, b],
                                      [r.sample_sizes for r in solo.history])


def test_synthetic_problem_shape():
    prob = make_synthetic_logistic(300, 10, seed=7)
    assert prob.N == 300 and prob.n == 10 and prob.q == 2
    assert prob.intercept_column == 9
    assert all(len(g) == 150 for g in prob.groups)


def test_finite_sum_validation():
    X = np.ones((4, 2))
    with pytest.raises(LabelDomainError):
        FiniteSumProblem(X, np.array([0.0, 1.0, 1.0, -1.0]),
                         (range(2), range(2, 4)), np.array([0.1, 0.1]), 1)
    with pytest.raises(ValueError):
        FiniteSumProblem(X, np.ones(4), (range(2), range(1, 4)),
                         np.array([0.1, 0.1]), 1)
    with pytest.raises(EmptyGroupError):
        FiniteSumProblem(X, np.ones(4), (range(4), range(4, 4)),
                         np.array([0.1, 0.1]), 1)
    # Groups are step-1 ranges that tile the rows in order, and nothing else.
    for groups in [(range(0, 4, 2), range(1, 4, 2)),        # interleaved
                   (range(2), range(3, 4)),                 # a gap
                   (range(3), range(2, 4)),                 # overlapping
                   (range(2, 4), range(2)),                 # out of order
                   (np.arange(2), np.arange(2, 4)),         # index arrays
                   ([0, 1], [2, 3])]:
        with pytest.raises(ValueError, match="^groups must be step-1 ranges tiling "
                                             "rows 0..4 in order$"):
            FiniteSumProblem(X, np.ones(4), groups, np.array([0.1, 0.1]), 1)


def test_subsample_full_batch_matches_exact():
    prob = make_synthetic_logistic(60, 5, seed=1)
    oracle = FiniteSumOracle(prob)
    x = np.linspace(-0.5, 0.5, 5)
    rng = RngStream(16).generator()
    # A tiny radius forces the size bound past every group size.
    s = subsampled_evaluate(prob, x, 1e-3, 0.5, rng)
    f, g, _ = oracle.exact_evaluate(x)
    np.testing.assert_allclose(s.values, f, atol=1e-12)
    np.testing.assert_allclose(s.gradients, g, atol=1e-12)
    np.testing.assert_array_equal(s.sample_sizes, [30, 30])
    assert s.cost == 60


def test_subsample_at_origin_is_log_two():
    # Every logistic term equals log 2 at x = 0 regardless of the subsample.
    prob = make_synthetic_logistic(100, 6, seed=2)
    rng = RngStream(17).generator()
    s = subsampled_evaluate(prob, np.zeros(6), 1.0, 0.5, rng)
    np.testing.assert_allclose(s.values, math.log(2.0), atol=1e-12)


def test_subsample_unbiasedness():
    prob = make_synthetic_logistic(200, 6, seed=3)
    oracle = FiniteSumOracle(prob)
    x = np.linspace(-0.4, 0.6, 6)
    f_exact, _, _ = oracle.exact_evaluate(x)
    rng = RngStream(18).generator()
    draws = np.array([subsampled_evaluate(prob, x, 1.2, 0.5, rng).values
                      for _ in range(1000)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - f_exact) <= 3.0 * se)


def test_subsampled_gradient_hessian_consistency():
    # On a frozen subsample the returned gradient/Hessian are the analytic
    # derivatives of the subsampled loss; cross-check via full batch where
    # the subsample is deterministic.
    prob = make_synthetic_logistic(50, 4, seed=4)
    rng = RngStream(19).generator()
    x = np.array([0.3, -0.2, 0.1, 0.4])
    s = subsampled_evaluate(prob, x, 1e-3, 0.5, rng, need_hessians=True)
    eps = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        sp = subsampled_evaluate(prob, x + e, 1e-3, 0.5, rng)
        sm = subsampled_evaluate(prob, x - e, 1e-3, 0.5, rng)
        fd_g = (sp.values - sm.values) / (2 * eps)
        np.testing.assert_allclose(s.gradients[:, j], fd_g, rtol=1e-5, atol=1e-8)
        fd_h = (sp.gradients - sm.gradients) / (2 * eps)
        np.testing.assert_allclose(s.hessians[:, :, j], fd_h, rtol=1e-4, atol=1e-6)


def _grouped_problem(seed, num_rows, num_features, num_groups):
    """Random logistic problem whose groups are contiguous row ranges of
    random sizes."""
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.standard_normal((num_rows, num_features - 1)),
                   np.ones((num_rows, 1))])
    y = np.where(rng.random(num_rows) < 0.5, -1.0, 1.0)
    cuts = np.sort(rng.choice(np.arange(1, num_rows), size=num_groups - 1, replace=False))
    bounds = [0, *cuts.tolist(), num_rows]
    groups = tuple(range(a, b) for a, b in zip(bounds, bounds[1:]))
    return FiniteSumProblem(X, y, groups, rng.uniform(0.0, 0.3, size=num_groups),
                            intercept_column=num_features - 1)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 1000), size=st.integers(1, 300),
       data=st.data())
def test_range_draw_equals_index_array_draw(seed, start, size, data):
    # A group's subsample is drawn as offsets into its range; that picks the
    # rows that a draw from the range's index array picks, and leaves the
    # stream in the same state.
    m = data.draw(st.integers(1, size))
    by_offset, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
    got = start + np.sort(by_offset.choice(size, size=m, replace=False))
    want = np.sort(by_index.choice(np.arange(start, start + size), size=m, replace=False))
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    np.testing.assert_equal(by_offset.bit_generator.state, by_index.bit_generator.state)


def _assert_same_sample(a, b):
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.gradients, b.gradients)
    np.testing.assert_array_equal(a.sample_sizes, b.sample_sizes)
    assert a.cost == b.cost
    assert (a.hessians is None) == (b.hessians is None)
    if a.hessians is not None:
        np.testing.assert_array_equal(a.hessians, b.hessians)


_ORACLE_CALL = st.tuples(st.integers(0, 5),                     # which point
                         st.sampled_from(["evaluate", "exact"]),
                         st.sampled_from([1e-4, 0.9, 1.3, 2.0]),  # full, partial, mixed
                         st.booleans())                          # need_hessians


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(6, 60),
       num_features=st.integers(2, 5), num_groups=st.integers(1, 3),
       calls=st.lists(_ORACLE_CALL, min_size=1, max_size=12))
def test_finite_sum_oracle_bit_identical_to_reference(seed, num_rows, num_features,
                                                      num_groups, calls):
    problem = _grouped_problem(seed, num_rows, num_features, num_groups)
    oracle = FiniteSumOracle(problem)
    points = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=(6, num_features))
    rng_oracle = RngStream(seed % 1000).generator()
    rng_ref = RngStream(seed % 1000).generator()
    alpha = 0.5
    for point, kind, delta, need_h in calls:
        x = points[point]
        if kind == "evaluate":
            got = oracle.evaluate(x, delta, alpha, rng_oracle, need_hessians=need_h)
            want = subsampled_evaluate(problem, x, delta, alpha, rng_ref,
                                       need_hessians=need_h)
            _assert_same_sample(got, want)
        else:
            f, g, H = oracle.exact_evaluate(x, need_hessians=need_h)
            # A radius this small makes every group full batch: no draws.
            want = subsampled_evaluate(problem, x, 1e-9, alpha, rng_ref,
                                       need_hessians=need_h)
            np.testing.assert_array_equal(want.sample_sizes, oracle.group_sizes())
            _assert_same_sample(
                ObjectiveSample(f, g, want.sample_sizes, H), want)
        np.testing.assert_equal(rng_oracle.state(), rng_ref.state())
    # Memoised full-batch arrays are shared between calls, so they are read-only.
    x = points[calls[-1][0]]
    oracle.exact_evaluate(x, need_hessians=True)
    _, g, H = oracle._memo[(0, x.tobytes())]
    with pytest.raises(ValueError):
        g[0] = 1.0
    with pytest.raises(ValueError):
        H[0, 0] = 1.0


def test_small_call_keeps_a_larger_batchs_memo(monkeypatch):
    # The memo is sized from the largest batch served, so a one-point call
    # (a moved state's exact metrics, a front member) does not evict the
    # entries of the ten-point batch before it.
    oracle = FiniteSumOracle(make_synthetic_logistic(40, 3, seed=2))
    X = np.random.default_rng(0).uniform(-1.0, 1.0, size=(10, 3))
    oracle.exact_evaluate_batch(X)
    for shift in (1.0, 2.0, 3.0):
        oracle.exact_evaluate_batch(X[:1] + shift)
    rows = []

    def counted(A, *rest):
        rows.append(A.shape[0])
        return _logistic_stack(A, *rest)

    monkeypatch.setattr(oracles, "_logistic_stack", counted)
    oracle.exact_evaluate_batch(X)
    assert rows == []


_BATCH_STATE = st.tuples(st.integers(0, 2),                       # point: states share x
                         st.sampled_from([1e-4, 0.9, 1.3, 2.0, 10.0, 60.0]))  # radius


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(6, 60),
       num_features=st.integers(2, 5), num_groups=st.integers(1, 3),
       states=st.lists(_BATCH_STATE, min_size=1, max_size=6), alpha=st.sampled_from([0.3, 0.5]),
       mode=st.sampled_from(["estimated", "analytic"]), need_h=st.booleans(),
       exact_h=st.booleans(), rounds=st.integers(1, 3),
       gather_bytes=st.sampled_from([oracles._GATHER_BYTES, 1, 600]))
def test_finite_sum_batch_equals_one_state_calls(seed, num_rows, num_features, num_groups,
                                                 states, alpha, mode, need_h, exact_h, rounds,
                                                 gather_bytes):
    # A batch evaluates the blocks of all its states together: bucketed by
    # row count (a subsample bucket gathered in chunks of ``gather_bytes``;
    # 1 gives one call per block), full blocks memoised and shared by
    # states at the same x.
    # Each state must still get, bit for bit, what a call of its own on a
    # fresh oracle gives at its radius and the batch's alpha, and, with the
    # estimated unit constants, what ``subsampled_evaluate`` gives, and draw
    # the same numbers from its own stream.
    problem = _grouped_problem(seed, num_rows, num_features, num_groups)
    points = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=(3, num_features))
    X = points[[p for p, _ in states]]
    deltas = np.array([d for _, d in states])
    oracle = FiniteSumOracle(problem, mode)
    rngs = Streams([(seed % 1000 + b, 0) for b in range(len(states))])
    refs = [RngStream(seed % 1000 + b).generator() for b in range(len(states))]
    plain = [RngStream(seed % 1000 + b).generator() for b in range(len(states))]
    for _ in range(rounds):                 # later rounds are served by the memo
        with mock.patch.object(oracles, "_GATHER_BYTES", gather_bytes):
            batch = oracle.evaluate_batch(X, deltas, alpha, rngs, np.arange(len(states)),
                                          need_hessians=need_h)
        f, g, H = oracle.exact_evaluate_batch(X, need_hessians=exact_h)
        assert (H is None) != exact_h
        for b in range(len(states)):
            alone = FiniteSumOracle(problem, mode)
            _assert_same_sample(batch.sample(b), alone.evaluate(
                X[b], deltas[b], alpha, refs[b], need_hessians=need_h))
            if mode == "estimated":
                _assert_same_sample(batch.sample(b), subsampled_evaluate(
                    problem, X[b], deltas[b], alpha, plain[b], need_hessians=need_h))
                np.testing.assert_equal(plain[b].state(), rngs.state(b))
            assert batch.cost[b] == batch.sample_sizes[b].sum()
            np.testing.assert_equal(rngs.state(b), refs[b].state())
            want = FiniteSumOracle(problem, mode).exact_evaluate(X[b], need_hessians=exact_h)
            np.testing.assert_array_equal(f[b], want[0])
            np.testing.assert_array_equal(g[b], want[1])
            if exact_h:
                np.testing.assert_array_equal(H[b], want[2])


def _logistic_stack_logaddexp(A, y, X, lams, mask, need_hessians):
    """The kernel as it was with the loss line on np.logaddexp."""
    m = A.shape[1]
    M = y * (A @ X[:, :, None])[:, :, 0]
    s = 1.0 / (1.0 + np.exp(M))
    Xh = X * mask
    f = (np.logaddexp(0.0, -M).sum(axis=1) / m
         + 0.5 * lams * (Xh[:, None, :] @ Xh[:, :, None])[:, 0, 0])
    g = -((y * s)[:, None, :] @ A)[:, 0] / m + lams[:, None] * Xh
    if not need_hessians:
        return f, g, None
    Aw = np.multiply(A, (s * (1.0 - s))[:, :, None], order="C")
    H = Aw.transpose(0, 2, 1) @ A / m + lams[:, None, None] * np.diag(mask)
    return f, g, H


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6), m=st.integers(1, 40),
       n=st.integers(1, 6), margin=st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e3]),
       gathered=st.booleans(), need_h=st.booleans())
def test_logistic_stack_matches_logaddexp_form(seed, K, m, n, margin, gathered, need_h):
    # Only the loss term moved to the exp/log1p form: gradients and Hessians
    # are the same bits, values agree to a few ulps, for margins |M| <= 1e3.
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, size=(3 * m, n))
    labels = rng.choice([-1.0, 1.0], size=3 * m)
    if gathered:
        idx = rng.integers(0, 3 * m, size=(K, m))
        A, y = rows[idx], labels[idx]
    else:
        A, y = (np.broadcast_to(a[:m], (K,) + a[:m].shape) for a in (rows, labels))
    X = rng.uniform(-1.0, 1.0, size=(K, n)) * (margin / n)
    lams = rng.uniform(0.0, 1.0, size=K)
    mask = (rng.random(n) < 0.7).astype(float)
    with np.errstate(over="ignore"):            # e^M overflows to inf: sigma is 0
        f, g, H = _logistic_stack(A, y, X, lams, mask, need_h)
        f0, g0, H0 = _logistic_stack_logaddexp(A, y, X, lams, mask, need_h)
    assert np.isfinite(f).all() and np.isfinite(g).all()
    assert g.tobytes() == g0.tobytes()
    assert (H is None) == (H0 is None) and (H is None or H.tobytes() == H0.tobytes())
    assert (np.abs(f - f0) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(f0))).all()


def _parse_csv_by_float(path, has_header):
    """The reader as it was: Python float() per cell, line by line."""
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if has_header and lineno == 1:
                continue
            row = [float(p) for p in line.split(",")]
            if width is None:
                width = len(row)
            assert len(row) == width
            rows.append(row)
    return np.array(rows)


_PAD = st.sampled_from(["", " ", "  ", "\t", " \t"])


@settings(max_examples=150, deadline=None)
@given(table=st.integers(1, 6).flatmap(lambda w: st.lists(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=w, max_size=w),
           min_size=1, max_size=12)),
       fmt=st.sampled_from([repr, lambda v: "%.6g" % v]), has_header=st.booleans(),
       data=st.data())
def test_parse_csv_bit_identical_to_float_per_cell(table, fmt, has_header, data):
    lines = ["label,a,b"] if has_header else []
    for row in table:
        lines += data.draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        lines.append(",".join(data.draw(_PAD) + fmt(v) + data.draw(_PAD) for v in row))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text("\n".join(lines) + data.draw(st.sampled_from(["", "\n", "\n\n"])))
        got, want = _parse_csv(str(path), has_header), _parse_csv_by_float(path, has_header)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("body, line", [
    ("label,a,b\n\n1,0,2.0\n\n-1,zero,3.0\n", 5),
    ("label,a,b\n\n1,0,2.0\n   \n-1,3.0\n", 5),
    ("label,a,b\n1,0,2.0\n-1,1,3.0 # note\n", 3),
    ("label,a,b\n1,0,2.0\n# a comment line\n", 3),
    ("label,a,b\n1,0,1_0\n", 2),
])
def test_load_csv_error_names_file_line(tmp_path, body, line):
    # Blank lines and the header count: the number is the line in the file.
    # '#' is not a comment in a data file.
    path = _write(tmp_path, "bad.csv", body)
    with pytest.raises(ParseError, match=f"bad.csv:{line}: "):
        load_dataset(path, "csv", sensitive_column=0, has_header=True)


@pytest.mark.parametrize("body", ["", "\n\n", "label,a,b\n", "label,a,b\n\n  \n"])
def test_load_csv_without_rows_is_a_parse_error(tmp_path, body):
    path = _write(tmp_path, "empty.csv", body)
    with pytest.raises(ParseError, match="no data rows"):
        load_dataset(path, "csv", sensitive_column=0, has_header=True)


@pytest.mark.parametrize("format", ["csv", "libsvm"])
def test_load_non_utf8_dataset_is_a_parse_error(tmp_path, format):
    path = tmp_path / "latin1.data"
    path.write_bytes("1,0,2.0\n-1,1,3.0 caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match="latin1.data: not UTF-8"):
        load_dataset(str(path), format, sensitive_column=0)


def test_exact_evaluate_hessians_only_on_request():
    inner = FiniteSumOracle(make_synthetic_logistic(40, 4, seed=5))
    for oracle in (inner, ExactOracle(inner),
                   AnalyticOracle(AnalyticProblem("test1"))):
        x = np.full(oracle.n, 0.2)
        assert oracle.exact_evaluate(x)[2] is None
        assert oracle.exact_evaluate(x, need_hessians=True)[2].shape == (2, oracle.n, oracle.n)
    rng = RngStream(22).generator()
    x = np.full(4, 0.2)
    assert ExactOracle(inner).evaluate(x, 1.0, 0.5, rng).hessians is None
    sample = ExactOracle(inner).evaluate(x, 1.0, 0.5, rng, need_hessians=True)
    assert sample.hessians.shape == (2, 4, 4)


def test_exact_oracle_adapter():
    inner = FiniteSumOracle(make_synthetic_logistic(40, 4, seed=5))
    oracle = ExactOracle(inner)
    rng = RngStream(20).generator()
    x = np.full(4, 0.2)
    a = oracle.evaluate(x, 1.0, 0.5, rng)
    b = oracle.evaluate(x, 1.0, 0.5, rng)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.cost == 40
    f, _, _ = inner.exact_evaluate(x)
    np.testing.assert_allclose(a.values, f)
    # An analytic oracle has no rows: a full evaluation costs nothing.
    analytic = ExactOracle(AnalyticOracle(AnalyticProblem("test1")))
    assert analytic.evaluate(np.zeros(2), 1.0, 0.5, rng).cost == 0


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_evaluate_rejects_a_radius_that_is_not_positive(delta):
    synthetic = FiniteSumOracle(make_synthetic_logistic(40, 4, seed=5))
    for oracle, n in ((AnalyticOracle(AnalyticProblem("test1"), NoiseSpec(sigma=0.1)), 2),
                      (synthetic, 4), (ExactOracle(synthetic), 4)):
        with pytest.raises(ValueError, match="delta must be positive"):
            oracle.evaluate(np.zeros(n), delta, 0.5, RngStream(0).generator())


def test_finite_sum_oracle_constants_modes():
    prob = make_synthetic_logistic(80, 5, seed=6)
    with pytest.raises(ConfigError):
        FiniteSumOracle(prob, "guessed")
    est = FiniteSumOracle(prob, "estimated", 1.0)
    ana = FiniteSumOracle(prob, "analytic")
    rng = RngStream(21).generator()
    x = np.full(5, 0.5)
    # Analytic bounds exceed the unit constant, so they demand more samples.
    se = est.evaluate(x, 1.5, 0.5, rng)
    sa = ana.evaluate(x, 1.5, 0.5, rng)
    assert np.all(sa.sample_sizes >= se.sample_sizes)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_csv_toy(tmp_path):
    path = _write(tmp_path, "toy.csv",
                  "1,0,2.0\n-1,0,3.0\n1,1,4.0\n-1,1,5.0\n")
    prob = load_dataset(path, "csv", sensitive_column=0)
    assert prob.N == 4
    assert prob.n == 3                      # 2 features + intercept
    assert prob.intercept_column == 2
    np.testing.assert_array_equal(prob.features[:, -1], 1.0)
    assert sorted(len(g) for g in prob.groups) == [2, 2]


def test_load_csv_header_and_zeroone(tmp_path):
    path = _write(tmp_path, "h.csv", "label,a,b\n0,0,2.0\n1,1,3.0\n")
    prob = load_dataset(path, "csv", sensitive_column=0, has_header=True,
                        label_convention="zeroone")
    assert set(prob.labels) == {-1.0, 1.0}


def test_load_csv_drop_sensitive(tmp_path):
    path = _write(tmp_path, "d.csv", "1,0,2.0\n-1,1,3.0\n")
    kept = load_dataset(path, "csv", sensitive_column=0)
    dropped = load_dataset(path, "csv", sensitive_column=0, keep_sensitive=False)
    assert kept.n == dropped.n + 1


def test_load_csv_parse_error_has_line_number(tmp_path):
    path = _write(tmp_path, "bad.csv", "1,0,2.0\n-1,zero,3.0\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(path, "csv", sensitive_column=0)
    path = _write(tmp_path, "ragged.csv", "1,0,2.0\n-1,3.0\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(path, "csv", sensitive_column=0)


def test_load_csv_label_domain_error(tmp_path):
    path = _write(tmp_path, "lab.csv", "2,0,1.0\n-1,1,2.0\n")
    with pytest.raises(LabelDomainError):
        load_dataset(path, "csv", sensitive_column=0)


def test_load_libsvm(tmp_path):
    path = _write(tmp_path, "toy.libsvm",
                  "+1 1:0.5 3:1.0\n-1 2:2.0\n+1 1:1.5 2:1.0\n-1 3:0.5\n")
    prob = load_dataset(path, "libsvm", sensitive_column=0)
    assert prob.N == 4
    assert prob.n == 4                      # 3 sparse columns + intercept
    assert prob.features[1, 0] == 0.0       # missing entries are zero


def test_load_libsvm_parse_error(tmp_path):
    path = _write(tmp_path, "bad.libsvm", "+1 1:0.5\n-1 nocolon\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(path, "libsvm", sensitive_column=0)


def test_median_binarization(tmp_path):
    rows = "\n".join(f"1,{v},1.0" for v in [0.1, 0.2, 0.3, 5.0, 6.0, 7.0])
    path = _write(tmp_path, "cont.csv", rows + "\n")
    prob = load_dataset(path, "csv", sensitive_column=0)
    assert sorted(len(g) for g in prob.groups) == [3, 3]


def test_constant_sensitive_column_rejected(tmp_path):
    path = _write(tmp_path, "const.csv", "1,1,1.0\n-1,1,2.0\n")
    with pytest.raises(EmptyGroupError):
        load_dataset(path, "csv", sensitive_column=0)


def test_load_dataset_stores_rows_group_by_group(tmp_path):
    # Group 0 (sensitive 0) first, then group 1, each in file order: the
    # groups are contiguous row ranges, and the labels follow their rows.
    path = _write(tmp_path, "order.csv",
                  "1,1,10\n0,0,11\n1,0,12\n0,1,13\n0,0,14\n")
    prob = load_dataset(path, "csv", sensitive_column=0, label_convention="zeroone")
    np.testing.assert_array_equal(prob.features[:, 1], [11, 12, 14, 10, 13])
    np.testing.assert_array_equal(prob.labels, [-1, 1, -1, 1, -1])
    np.testing.assert_array_equal(prob.groups[0], [0, 1, 2])
    np.testing.assert_array_equal(prob.groups[1], [3, 4])


def test_oracle_blocks_are_views_of_the_features(tmp_path):
    csv = _write(tmp_path, "v.csv", "1,0,2.0\n-1,1,3.0\n1,1,4.0\n-1,0,5.0\n")
    svm = _write(tmp_path, "v.svm", "+1 1:1 2:0.5\n-1 2:2.0\n+1 1:1 2:1.0\n-1 2:0.5\n")
    rng = np.random.default_rng(4)
    hand_built = FiniteSumProblem(np.hstack([rng.standard_normal((7, 2)), np.ones((7, 1))]),
                                  np.where(rng.random(7) < 0.5, -1.0, 1.0),
                                  (range(3), range(3, 7)), np.array([0.1, 0.2]), 2)
    for prob in (load_dataset(csv, "csv", sensitive_column=0),
                 load_dataset(svm, "libsvm", sensitive_column=0, keep_sensitive=False),
                 make_synthetic_logistic(30, 4, seed=3), hand_built):
        for A, y in FiniteSumOracle(prob)._blocks:
            assert np.shares_memory(A, prob.features)
            assert np.shares_memory(y, prob.labels)


def test_loaded_dataset_is_held_once(tmp_path):
    # What load_dataset and the oracle keep is the feature matrix plus
    # small change (labels, group ranges): no copy of the parsed table and
    # no per-group copy of the rows.
    rng = np.random.default_rng(13)
    table = np.column_stack([rng.random(20_000) < 0.5, rng.random(20_000) < 0.4,
                             rng.standard_normal((20_000, 12))])
    path = tmp_path / "big.csv"
    np.savetxt(path, table, delimiter=",", fmt="%.6g")

    def build():
        return FiniteSumOracle(load_dataset(str(path), "csv", sensitive_column=0,
                                            label_convention="zeroone"))

    build()                                 # first-call caches are not the data's
    tracemalloc.start()
    try:
        oracle = build()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert oracle.problem.features.shape == (20_000, 14)
    assert retained <= 1.3 * oracle.problem.features.nbytes


@pytest.mark.parametrize("body, has_header, message", [
    ("1,0,2.0\nnan,1,3.0\n", False, ":2: column 0: non-finite value nan"),
    ("y,s,a\n\n1,0,2.0\n-1,nan,3.0\n", True, ":4: column 1: non-finite value nan"),
    ("1,0,2.0\n\n-1,1,-inf\n1,nan,inf\n", False, ":3: column 2: non-finite value -inf"),
    ("1,0,2.0\n  \n-1,1,inf\n", False, ":3: column 2: non-finite value inf"),
])
def test_load_csv_rejects_non_finite_values(tmp_path, body, has_header, message):
    # The first non-finite value in file order, by its line and its column
    # counted from 0 over the whole line (the label_column numbering).
    path = _write(tmp_path, "nan.csv", body)
    with pytest.raises(ParseError) as info:
        load_dataset(path, "csv", sensitive_column=0, has_header=has_header)
    assert str(info.value) == path + message


@pytest.mark.parametrize("body, message", [
    ("+1 1:0.5\nnan 1:1.0\n", ":2: column 0: non-finite value nan"),
    ("+1 1:0.5\n\n-1 1:1 3:inf\n", ":3: column 3: non-finite value inf"),
    ("+1 0:0.5 3:1.0\n-1 1:1.0\n", ":1: feature index must be >= 1"),
    ("+1 1:0.5\n-1 -2:1.0\n", ":2: feature index must be >= 1"),
    ("+1 1:0.5 1:2.0 2:1\n", ":1: repeated feature index 1"),
    ("-1 2:1\n+1 3:0.5 1:1 3:0.5\n", ":2: repeated feature index 3"),
])
def test_load_libsvm_rejects_bad_entries(tmp_path, body, message):
    # Columns as in the file: the label is column 0, index j column j.
    path = _write(tmp_path, "nan.svm", body)
    with pytest.raises(ParseError) as info:
        load_dataset(path, "libsvm", sensitive_column=0)
    assert str(info.value) == path + message


@pytest.mark.parametrize("format,body,kwargs,error,match", [
    ("csv", "1,0,2.0\n-1,1,3.0\n", dict(label_column=3), ConfigError,
     "label_column out of range"),
    ("csv", "1,0,2.0\n-1,1,3.0\n", dict(sensitive_column=2), ConfigError,
     "sensitive_column out of range"),
    ("libsvm", "+1 1:0 2:1\n-1 1:1 2:3\n", dict(sensitive_column=2), ConfigError,
     "sensitive_column out of range"),
    ("parquet", "1,0,2.0\n", {}, ConfigError, "bad dataset format 'parquet'"),
    ("csv", "1,0,2.0\n2,1,3.0\n", dict(label_convention="zeroone"), LabelDomainError,
     r"labels not in \{0, 1\}"),
    ("csv", "1,0,2.0\n0,1,3.0\n", dict(label_convention="pm1"), LabelDomainError,
     r"labels not in \{-1, \+1\}"),
    ("csv", "1,0,2.0\n0,1,3.0\n", dict(label_convention="signed"), ConfigError,
     "bad label convention 'signed'"),
    ("libsvm", "", {}, ParseError, "bad.data: no data rows"),
    ("libsvm", "\n  \n", {}, ParseError, "bad.data: no data rows"),
])
def test_load_dataset_rejects_bad_columns_formats_and_labels(tmp_path, format, body, kwargs,
                                                            error, match):
    path = _write(tmp_path, "bad.data", body)
    with pytest.raises(error, match=match):
        load_dataset(path, format, **{"sensitive_column": 0, **kwargs})


@pytest.mark.parametrize("change,match", [
    (dict(features=np.ones(4)), r"features must be \(N, n\) with matching labels"),
    (dict(labels=np.ones(3)), r"features must be \(N, n\) with matching labels"),
    (dict(regularizers=np.array([0.1])), "one regularizer per group required"),
    (dict(intercept_column=2), "intercept_column out of range"),
    (dict(intercept_column=-1), "intercept_column out of range"),
])
def test_finite_sum_problem_rejects_bad_shapes(change, match):
    fields = dict(features=np.ones((4, 2)), labels=np.array([1.0, -1.0, 1.0, -1.0]),
                  groups=(range(2), range(2, 4)), regularizers=np.array([0.1, 0.1]),
                  intercept_column=1)
    FiniteSumProblem(**fields)
    with pytest.raises(ValueError, match=match):
        FiniteSumProblem(**dict(fields, **change))


def test_bound_constants_must_be_positive():
    problem = make_synthetic_logistic(20, 3, seed=1)
    for value in (0.0, -1.0):
        with pytest.raises(ConfigError, match="constant_value must be positive"):
            FiniteSumOracle(problem, constant_value=value)
        with pytest.raises(ValueError, match="bound_constant must be positive"):
            required_sample_size("value", value, 0.5, 0.7)
