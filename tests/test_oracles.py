"""Evaluation backends: analytic problems, noise injection, subsampling, data."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motr.core import ConfigError, ObjectiveSample, RngStream
from motr.oracles import (
    AnalyticOracle,
    AnalyticProblem,
    EmptyGroupError,
    ExactOracle,
    FiniteSumOracle,
    FiniteSumProblem,
    LabelDomainError,
    NoiseSpec,
    ParseError,
    analytic_bound_constants,
    draw_noise,
    load_dataset,
    make_synthetic_logistic,
    required_sample_size,
    subsampled_evaluate,
)


def test_analytic_problem_names():
    assert AnalyticProblem("test1").q == 2
    with pytest.raises(ConfigError):
        AnalyticProblem("test3")


def test_test1_values_and_gradients():
    f, g, _ = AnalyticProblem("test1").exact(np.zeros(2))
    np.testing.assert_allclose(f, [0.0, 50.0])
    np.testing.assert_allclose(g[0], [0.0, 0.0])
    f, g, h = AnalyticProblem("test1").exact(np.array([9.0, 9.0]))
    np.testing.assert_allclose(f, [162.0, 32.0])
    np.testing.assert_allclose(g, [[18.0, 18.0], [8.0, 8.0]])
    np.testing.assert_allclose(h[0], 2.0 * np.eye(2))


def test_test2_peak_point():
    f, g, _ = AnalyticProblem("test2").exact(np.array([0.5, 0.5]))
    assert f[1] == pytest.approx(0.0)
    np.testing.assert_allclose(g[1], [0.0, 0.0], atol=1e-15)
    assert f[0] == pytest.approx(math.sin(0.5))


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for name in ("test1", "test2"):
        prob = AnalyticProblem(name)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=2)
            _, g, h = prob.exact(x)
            eps = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fp, _, _ = prob.exact(x + e)
                fm, _, _ = prob.exact(x - e)
                np.testing.assert_allclose(g[:, j], (fp - fm) / (2 * eps),
                                           rtol=1e-5, atol=1e-7)
                _, gp, _ = prob.exact(x + e)
                _, gm, _ = prob.exact(x - e)
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
    f, g, _ = prob.exact(np.array([1.0, 2.0]))
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
    f_exact, _, _ = prob.exact(x)
    oracle = AnalyticOracle(prob, NoiseSpec(sigma=sigma))
    diffs = np.array([oracle.evaluate(x, delta, 0.5, rng).values[0] - f_exact[0]
                      for _ in range(10_000)])
    assert np.var(diffs) == pytest.approx(sigma**2 * delta**4, rel=0.05)


def test_bounded_noise_caps_hold_deterministically():
    prob = AnalyticProblem("test1")
    spec = NoiseSpec(sigma=2.0, bounded=True, cap_f=1.0, cap_g=1.0)
    rng = RngStream(13).generator()
    x = np.array([2.0, -1.0])
    f, g, _ = prob.exact(x)
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
    _, g, _ = prob.exact(x)
    s = AnalyticOracle(prob, NoiseSpec(sigma=1.0, shared_gradient_noise=True)).evaluate(
        x, 0.5, 0.5, rng)
    np.testing.assert_allclose(s.gradients[0] - g[0], s.gradients[1] - g[1])


def _sequential_noise(noise, rng, q, n):
    """Reference one-state draw: per objective its value noise, then its
    gradient noise (drawn once, for the first objective, when shared); each
    bounded draw is repeated until it lies within its cap."""
    def draw(size, cap, norm):
        for _ in range(10_000):
            eps = rng.normal(0.0, noise.sigma, size=size)
            if not noise.bounded or norm(eps) <= cap:
                return eps
        return np.zeros(size) if size else 0.0
    eps_f, eps_g, shared = np.zeros(q), np.zeros((q, n)), None
    for i in range(q):
        eps_f[i] = draw(None, noise.cap_f, abs)
        if shared is None or not noise.shared_gradient_noise:
            shared = draw(n, noise.cap_g, np.linalg.norm)
        eps_g[i] = shared
    return eps_f, eps_g


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), q=st.integers(1, 3),
       n=st.integers(1, 4), sigma=st.sampled_from([0.1, 0.5, 1.0]),
       bounded=st.booleans(), caps=st.sampled_from([(0.05, 0.5), (0.5, 0.5), (1.0, 3.0)]),
       shared=st.booleans())
def test_noise_draws_match_sequential_reference(seed, size, q, n, sigma, bounded, caps,
                                                shared):
    noise = NoiseSpec(sigma=sigma, bounded=bounded, cap_f=caps[0], cap_g=caps[1],
                      shared_gradient_noise=shared)
    rngs = [RngStream(seed, b).generator() for b in range(size)]
    refs = [RngStream(seed, b).generator() for b in range(size)]
    for _ in range(3):
        eps_f, eps_g = draw_noise(noise, rngs, q, n)
        for b in range(size):
            want_f, want_g = _sequential_noise(noise, refs[b], q, n)
            np.testing.assert_array_equal(eps_f[b], want_f)
            np.testing.assert_array_equal(eps_g[b], want_g)
            assert repr(rngs[b].bit_generator.state) == repr(refs[b].bit_generator.state)


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


def test_bound_constants_formulas():
    F, G = analytic_bound_constants(1.0, np.array([0.1, 0.1]), np.zeros(3))
    np.testing.assert_allclose(F, 1.0 + math.log(2.0))
    np.testing.assert_allclose(G, 1.0)
    _, G0 = analytic_bound_constants(2.5, np.array([0.0]), np.zeros(3))
    np.testing.assert_allclose(G0, 2.5)
    x = np.array([3.0, 4.0, 0.0])
    _, G1 = analytic_bound_constants(1.0, np.array([0.2]), x)
    np.testing.assert_allclose(G1, 1.0 + 0.2 * 5.0)


def test_synthetic_problem_shape():
    prob = make_synthetic_logistic(300, 10, seed=7)
    assert prob.N == 300 and prob.n == 10 and prob.q == 2
    assert prob.intercept_column == 9
    assert all(g.size == 150 for g in prob.groups)


def test_finite_sum_validation():
    X = np.ones((4, 2))
    with pytest.raises(LabelDomainError):
        FiniteSumProblem(X, np.array([0.0, 1.0, 1.0, -1.0]),
                         (np.arange(2), np.arange(2, 4)), np.array([0.1, 0.1]), 1)
    with pytest.raises(ValueError):
        FiniteSumProblem(X, np.ones(4), (np.arange(2), np.arange(1, 4)),
                         np.array([0.1, 0.1]), 1)
    with pytest.raises(EmptyGroupError):
        FiniteSumProblem(X, np.ones(4), (np.arange(4), np.arange(0)),
                         np.array([0.1, 0.1]), 1)


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


def _unsorted_problem(seed, num_rows, num_features, num_groups):
    """Random logistic problem whose groups hold row indices in random order."""
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.standard_normal((num_rows, num_features - 1)),
                   np.ones((num_rows, 1))])
    y = np.where(rng.random(num_rows) < 0.5, -1.0, 1.0)
    cuts = np.sort(rng.choice(np.arange(1, num_rows), size=num_groups - 1, replace=False))
    groups = tuple(np.split(rng.permutation(num_rows), cuts))
    return FiniteSumProblem(X, y, groups, rng.uniform(0.0, 0.3, size=num_groups),
                            intercept_column=num_features - 1)


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
    problem = _unsorted_problem(seed, num_rows, num_features, num_groups)
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
                ObjectiveSample(f, g, 1e-9, want.sample_sizes, want.cost, H), want)
        np.testing.assert_equal(rng_oracle.bit_generator.state, rng_ref.bit_generator.state)
    # Memoised full-batch arrays are shared between calls, so they are read-only.
    x = points[calls[-1][0]]
    oracle.exact_evaluate(x, need_hessians=True)
    _, g, H = oracle._memo[(0, x.tobytes())]
    with pytest.raises(ValueError):
        g[0] = 1.0
    with pytest.raises(ValueError):
        H[0, 0] = 1.0


_BATCH_STATE = st.tuples(st.integers(0, 2),                       # point: states share x
                         st.sampled_from([1e-4, 0.9, 1.3, 2.0, 10.0, 60.0]),  # radius
                         st.sampled_from([0.3, 0.5]))              # alpha


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_rows=st.integers(6, 60),
       num_features=st.integers(2, 5), num_groups=st.integers(1, 3),
       states=st.lists(_BATCH_STATE, min_size=1, max_size=6),
       mode=st.sampled_from(["estimated", "analytic"]), need_h=st.booleans(),
       exact_h=st.booleans(), rounds=st.integers(1, 3))
def test_finite_sum_batch_equals_one_state_calls(seed, num_rows, num_features, num_groups,
                                                 states, mode, need_h, exact_h, rounds):
    # A batch evaluates the blocks of all its states together: bucketed by
    # row count, full blocks memoised and shared by states at the same x.
    # Each state must still get, bit for bit, what a call of its own on a
    # fresh oracle gives, and draw the same numbers from its own stream.
    problem = _unsorted_problem(seed, num_rows, num_features, num_groups)
    points = np.random.default_rng(seed + 1).uniform(-2.0, 2.0, size=(3, num_features))
    X = points[[p for p, _, _ in states]]
    deltas = np.array([d for _, d, _ in states])
    alphas = [a for _, _, a in states]
    oracle = FiniteSumOracle(problem, mode)
    rngs = [RngStream(seed % 1000 + b).generator() for b in range(len(states))]
    refs = [RngStream(seed % 1000 + b).generator() for b in range(len(states))]
    for _ in range(rounds):                 # later rounds are served by the memo
        batch = oracle.evaluate_batch(X, deltas, alphas, rngs, need_hessians=need_h)
        f, g, H = oracle.exact_evaluate_batch(X, need_hessians=exact_h)
        assert (H is None) != exact_h
        for b in range(len(states)):
            alone = FiniteSumOracle(problem, mode)
            _assert_same_sample(batch.sample(b), alone.evaluate(
                X[b], deltas[b], alphas[b], refs[b], need_hessians=need_h))
            assert batch.cost[b] == batch.sample_sizes[b].sum()
            np.testing.assert_equal(rngs[b].bit_generator.state, refs[b].bit_generator.state)
            want = FiniteSumOracle(problem, mode).exact_evaluate(X[b], need_hessians=exact_h)
            np.testing.assert_array_equal(f[b], want[0])
            np.testing.assert_array_equal(g[b], want[1])
            if exact_h:
                np.testing.assert_array_equal(H[b], want[2])


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
    assert sorted(g.size for g in prob.groups) == [2, 2]


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
    assert sorted(g.size for g in prob.groups) == [3, 3]


def test_constant_sensitive_column_rejected(tmp_path):
    path = _write(tmp_path, "const.csv", "1,1,1.0\n-1,1,2.0\n")
    with pytest.raises(EmptyGroupError):
        load_dataset(path, "csv", sensitive_column=0)
