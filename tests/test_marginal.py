"""Common-descent subproblem: duality, closed form, and sampling oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motr.marginal import (
    NonFiniteGradientError,
    brute_force_marginal,
    frank_wolfe,
    solve_marginal,
    solve_marginal_batch,
    solve_marginal_q2_closed_form,
)


def test_q1_reduction():
    # Single objective: omega is the gradient norm, direction the negated
    # normalized gradient.
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = rng.uniform(-1.0, 1.0, size=rng.integers(1, 6))
        if np.linalg.norm(g) < 1e-6:
            continue
        sol = solve_marginal(g[None, :])
        assert sol.omega == pytest.approx(np.linalg.norm(g), abs=1e-12)
        np.testing.assert_allclose(sol.direction, -g / np.linalg.norm(g), atol=1e-12)


def test_opposing_gradients_cancel():
    sol = solve_marginal(np.array([[5.0, 5.0], [-5.0, -5.0]]))
    assert sol.omega == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_array_equal(sol.direction, np.zeros(2))


def test_aligned_gradients_pick_shorter():
    # Collinear gradients: the min-norm point is the shorter one.
    sol = solve_marginal(np.array([[18.0, 18.0], [8.0, 8.0]]))
    assert sol.omega == pytest.approx(8.0 * np.sqrt(2.0), abs=1e-9)
    np.testing.assert_allclose(sol.direction, -np.ones(2) / np.sqrt(2.0), atol=1e-9)


def test_closed_form_identical_gradients_convention():
    sol = solve_marginal_q2_closed_form([3.0, 4.0], [3.0, 4.0])
    assert sol.omega == pytest.approx(5.0)
    np.testing.assert_array_equal(sol.weights, [0.0, 1.0])


def test_closed_form_symmetric_opposition():
    sol = solve_marginal_q2_closed_form([1.0, 0.0], [-1.0, 0.0])
    assert sol.weights[0] == pytest.approx(0.5)
    assert sol.omega == pytest.approx(0.0, abs=1e-15)


def test_closed_form_orthogonal_pair():
    sol = solve_marginal_q2_closed_form([2.0, 0.0], [0.0, 2.0])
    assert sol.weights[0] == pytest.approx(0.5)
    assert sol.omega == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(sol.direction, -np.ones(2) / np.sqrt(2.0), atol=1e-12)


def test_closed_form_matches_solver():
    rng = np.random.default_rng(2)
    for _ in range(200):
        g1, g2 = rng.uniform(-1.0, 1.0, size=(2, 4))
        a = solve_marginal(np.array([g1, g2]))
        b = solve_marginal_q2_closed_form(g1, g2)
        assert a.omega == pytest.approx(b.omega, abs=1e-10)


def test_duality_identity_and_nonnegativity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q, n = rng.integers(1, 5), rng.integers(1, 6)
        G = rng.uniform(-1.0, 1.0, size=(q, n))
        sol = solve_marginal(G)
        assert sol.omega >= 0.0
        assert abs(sol.omega - np.linalg.norm(G.T @ sol.weights)) <= sol.residual + 1e-14
        assert np.all(sol.weights >= 0.0)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(sol.direction) <= 1.0 + 1e-12


def test_direction_is_common_descent():
    rng = np.random.default_rng(4)
    for _ in range(50):
        G = rng.uniform(-1.0, 1.0, size=(3, 4))
        sol = solve_marginal(G)
        if sol.omega > 1e-8:
            assert float(np.max(G @ sol.direction)) == pytest.approx(-sol.omega, abs=1e-8)


def test_scale_covariance():
    rng = np.random.default_rng(5)
    G = rng.uniform(-1.0, 1.0, size=(3, 3))
    base = solve_marginal(G)
    scaled = solve_marginal(7.5 * G)
    assert scaled.omega == pytest.approx(7.5 * base.omega, rel=1e-8)
    np.testing.assert_allclose(scaled.direction, base.direction, atol=1e-8)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteGradientError):
        solve_marginal(np.array([[np.nan, 1.0]]))
    with pytest.raises(NonFiniteGradientError):
        solve_marginal_q2_closed_form([np.inf, 0.0], [1.0, 0.0])
    with pytest.raises(NonFiniteGradientError):
        brute_force_marginal(np.array([[np.nan, 0.0]]), 1000)


def test_brute_force_exact_when_optimum_sampled():
    # The candidate set always contains the negated normalized gradients, so
    # a single-gradient instance is resolved exactly.
    assert brute_force_marginal(np.array([[3.0, 4.0]]), 1000) == pytest.approx(5.0, abs=1e-12)


def test_brute_force_orthogonal_pair():
    val = brute_force_marginal(np.array([[1.0, 0.0], [0.0, 1.0]]), 100_000)
    assert val == pytest.approx(np.sqrt(2.0) / 2.0, abs=0.02)


def test_brute_force_zero_gradient():
    assert brute_force_marginal(np.array([[0.0, 0.0]]), 1000) == 0.0


def test_brute_force_requires_enough_directions():
    with pytest.raises(ValueError):
        brute_force_marginal(np.array([[1.0, 0.0]]), 999)


def test_solver_agrees_with_brute_force_sample():
    # Small-scale version of the full equivalence check in the acceptance
    # suite: 20 instances at 10^4 directions.
    rng = np.random.default_rng(6)
    for _ in range(20):
        q, n = rng.integers(1, 5), rng.integers(1, 6)
        G = rng.uniform(-1.0, 1.0, size=(q, n))
        exact = solve_marginal(G).omega
        sampled = brute_force_marginal(G, 10_000)
        assert abs(exact - sampled) <= 2e-2


_TOL = 1e-10
# Frank-Wolfe stops once its gaps fall below 64 eps max(1, |M|): it cannot
# resolve gradients much below 1e-7, so tiny nonzero coordinates are left out.
_COORD = st.floats(-100.0, 100.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


def _pairs():
    """Random pairs of gradients plus the degenerate kinds: identical,
    antiparallel, one zero, both zero."""
    vec = st.integers(1, 6).flatmap(lambda n: st.lists(_COORD, min_size=n, max_size=n))
    random = st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(_COORD, min_size=n, max_size=n)] * 2))
    degenerate = st.tuples(vec, st.sampled_from(["same", "opposite", "zero", "both_zero"]))
    make = {"same": lambda g: (g, g), "opposite": lambda g: (g, [-v for v in g]),
            "zero": lambda g: (g, [0.0] * len(g)),
            "both_zero": lambda g: ([0.0] * len(g), [0.0] * len(g))}
    return random | degenerate.map(lambda t: make[t[1]](t[0]))


def _check_against_frank_wolfe(G, closed):
    fw = frank_wolfe(G, _TOL)
    omega = closed.omega
    assert abs(fw.omega - omega) <= 1e-12 * max(1.0, omega)
    assert fw.residual <= _TOL
    # The closed form's own gap: omega minus the primal value of its direction.
    y = closed.weights @ G
    if omega > 0:
        assert omega - max(float(np.min(G @ y)) / omega, 0.0) <= _TOL
    if omega > _TOL:
        np.testing.assert_allclose(closed.direction, fw.direction, rtol=0, atol=1e-10)
    else:
        assert not np.any(closed.direction)


@settings(max_examples=300, deadline=None)
@given(pair=_pairs())
def test_frank_wolfe_agrees_with_closed_form_q2(pair):
    G = np.array(pair, dtype=float)
    _check_against_frank_wolfe(G, solve_marginal_q2_closed_form(G[0], G[1]))


@settings(max_examples=50, deadline=None)
@given(pairs=st.lists(_pairs(), min_size=1, max_size=8), n=st.integers(1, 6))
def test_batched_closed_form_agrees_with_frank_wolfe(pairs, n):
    # One stack of equal-width pairs; each row is checked on its own.
    G = np.array([[(list(g1) * n)[:n], (list(g2) * n)[:n]] for g1, g2 in pairs], dtype=float)
    batch = solve_marginal_batch(G, _TOL)
    for b, g in enumerate(G):
        _check_against_frank_wolfe(g, batch.take(b))
        single = solve_marginal(g)
        assert single.omega == batch.omega[b]
        np.testing.assert_array_equal(single.direction, batch.direction[b])


def test_frank_wolfe_stops_where_the_line_search_overflows():
    # |g1 - g2|^2 overflows (2e308) though each Gram entry is finite: the
    # exact line search gives no step, so the solver stops at its starting
    # vertex, on the simplex, with a residual that does not certify it.
    G = np.array([[1e154, 0.0], [0.0, 1e154]])
    with np.errstate(over="ignore"):
        sol = frank_wolfe(G)
    np.testing.assert_array_equal(sol.weights, [1.0, 0.0])
    assert sol.omega == 1e154 and sol.residual >= sol.omega - 1e154 / np.sqrt(2.0)
    np.testing.assert_array_equal(sol.direction, [0.0, 0.0])


@pytest.mark.parametrize("G,omega", [
    ([[1e160, 0.0], [0.0, 1e160]], 1e160 / np.sqrt(2.0)),
    ([[1e154, 0.0], [0.0, 1e154], [1e154, 1e154]], 1e154 / np.sqrt(2.0)),
])
def test_frank_wolfe_scales_gradients_whose_gram_matrix_overflows(G, omega):
    # Scaled by a power of two, the solver does exactly what it does on G
    # 2**-k, whose Gram matrix is finite: the weights and direction equal
    # those, omega and the residual are those times 2**k.
    G = np.array(G)
    k = int(np.frexp(np.abs(G).max())[1]) - 1
    sol, small = frank_wolfe(G), frank_wolfe(np.ldexp(G, -k), np.ldexp(1e-10, -k))
    assert sol.omega == pytest.approx(omega, rel=1e-15) and sol.converged
    np.testing.assert_array_equal(sol.weights, small.weights)
    np.testing.assert_array_equal(sol.direction, small.direction)
    assert (sol.omega, sol.residual) == (np.ldexp(small.omega, k), np.ldexp(small.residual, k))
