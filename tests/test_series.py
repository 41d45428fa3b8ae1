"""Coefficient series, the one grading rule of every bound check, and the
one Simpson quadrature of the oracles and weak residuals.

scipy is the oracle of ``cumulative_simpson`` here; the package itself does
not import it.
"""

import logging
import sys

import numpy as np
import pytest

from predprey.grid import DomainSpec, Field, build_grid
from predprey.parabolic import (ParabolicProblem, Scheme, solve_parabolic,
                                weak_residual_parabolic)
from predprey.series import at_times, constant, cumulative_simpson, grade, sampled
from predprey.testfunctions import default_family
from predprey.transport import TransportProblem, solve_hyperbolic, weak_residual_hyperbolic

TIMES = np.array([0.0, 0.5, 1.0])


def test_constant_series_is_a_broadcast_view():
    values = np.arange(6.0).reshape(2, 3)
    stack = constant(values)(TIMES)
    assert stack.shape == (3, 2, 3)
    assert np.all(stack == values)
    assert not stack.flags.writeable


def test_sampled_series_blends_between_and_clamps_outside():
    values = np.array([[0.0, 2.0], [4.0, 6.0], [8.0, 10.0]])
    series = sampled(TIMES, values)
    assert np.array_equal(series(np.array([-1.0, 0.5, 0.75, 2.0])),
                          [[0.0, 2.0], [4.0, 6.0], [6.0, 8.0], [8.0, 10.0]])


def test_grade_slack_is_relative_1e6_plus_absolute_1e14():
    rhs = np.array([0.0, 1.0, 2.0])
    assert grade("equal", TIMES, rhs, rhs).passed
    assert grade("within", TIMES, rhs * (1 + 1e-6) + 1e-14, rhs).passed
    for k in range(3):
        lhs = rhs.copy()
        lhs[k] = rhs[k] * (1 + 1e-6) + 1e-13
        assert not grade("over", TIMES, lhs, rhs).passed, k


def test_grade_saturates_infinite_rhs_and_warns_once(caplog):
    with caplog.at_level(logging.WARNING, logger="predprey.series"):
        check = grade("vacuous", TIMES, np.ones(3), np.array([2.0, np.inf, np.inf]))
    assert check.passed
    assert check.rhs.tolist() == [2.0, sys.float_info.max, sys.float_info.max]
    assert check.min_margin == 1.0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "vacuous" in warnings[0] and "t=0.5 " in warnings[0] and "(2 of 3 times)" in warnings[0]


# --- cumulative_simpson against scipy's Simpson rules -----------------------

NODE_COUNTS = [2, 3, 4, 65, 802]


def _nodes(n, spacing):
    if spacing == "uniform":
        return np.linspace(0.0, 1.3, n)
    rng = np.random.default_rng(n)
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))]) / n


def _assert_close(got, expected, rel):
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= rel * np.max(np.abs(expected))), \
        np.max(np.abs(got - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("spacing", ["uniform", "nonuniform"])
@pytest.mark.parametrize("n", NODE_COUNTS)
def test_cumulative_simpson_matches_scipy(n, spacing):
    integrate = pytest.importorskip("scipy.integrate")
    times = _nodes(n, spacing)
    values = np.random.default_rng(7).standard_normal((n, 3, 2)) + 1.5
    got = cumulative_simpson(values, times)
    _assert_close(got, integrate.cumulative_simpson(values, x=times, axis=0, initial=0.0),
                  1e-14)
    _assert_close(got[-1], integrate.simpson(values, x=times, axis=0), 1e-14)
    assert np.all(got[0] == 0.0)


@pytest.mark.parametrize("axis", [1, 2, -1])
@pytest.mark.parametrize("n", [4, 65])
def test_cumulative_simpson_along_other_axes(n, axis):
    integrate = pytest.importorskip("scipy.integrate")
    times = _nodes(n, "nonuniform")
    values = np.moveaxis(np.random.default_rng(3).standard_normal((n, 2, 5)), 0, axis)
    got = cumulative_simpson(values, times, axis=axis)
    _assert_close(got, integrate.cumulative_simpson(values, x=times, axis=axis, initial=0.0),
                  1e-14)
    _assert_close(np.take(got, -1, axis=axis), integrate.simpson(values, x=times, axis=axis),
                  1e-14)
    # the same numbers as integrating along axis 0 of the moved array
    assert np.array_equal(np.moveaxis(got, axis, 0),
                          cumulative_simpson(np.moveaxis(values, axis, 0), times))


@pytest.mark.parametrize("n", [3, 4, 7, 8, 65])
def test_cumulative_simpson_is_exact_on_quadratics(n):
    times = _nodes(n, "nonuniform")
    values = 3.0 * times**2 - 2.0 * times + 1.0
    antiderivative = times**3 - times**2 + times
    got = cumulative_simpson(values, times)
    assert np.all(np.abs(got - antiderivative) <= 1e-14 * np.max(np.abs(antiderivative)))


def test_cumulative_simpson_two_nodes_is_the_trapezoid():
    got = cumulative_simpson(np.array([[1.0, -2.0], [3.0, 4.0]]), np.array([0.5, 0.75]))
    assert got.tolist() == [[0.0, 0.0], [0.5, 0.25]]


# --- the shared weak-residual body against the earlier per-time loops --------

def hyperbolic_residual_loop(trace, problem, test_functions):
    """The earlier body of transport.weak_residual_hyperbolic."""
    integrate = pytest.importorskip("scipy.integrate")
    grid = problem.grid
    vol = grid.cell_volume
    times = trace.times
    c = problem.c(times)
    A = at_times(problem.A, times)
    a = at_times(problem.a, times)
    residuals = []
    for tf in test_functions:
        s_vals = tf.space_values(grid)
        s_grad = tf.space_gradient(grid)
        integrand = np.empty(len(times))
        for i, t in enumerate(times):
            u = trace.values[i]
            qt = float(tf.time_value(t))
            qdot = float(tf.time_derivative(t))
            advect = np.zeros(grid.shape)
            for ax in range(grid.dim):
                advect += c[i, ax] * s_grad[ax]
            term = qdot * np.sum(u * s_vals) + qt * np.sum(u * advect)
            react = np.zeros(grid.shape)
            if A is not None:
                react = react + A[i] * u
            if a is not None:
                react = react + a[i]
            term += qt * np.sum(react * s_vals)
            integrand[i] = term * vol
        space_time = integrate.simpson(integrand, x=times)
        initial = float(tf.time_value(times[0])) * np.sum(trace.values[0] * s_vals) * vol
        residuals.append(space_time + initial)
    return np.array(residuals)


def parabolic_residual_loop(trace, problem, test_functions):
    """The earlier body of parabolic.weak_residual_parabolic."""
    integrate = pytest.importorskip("scipy.integrate")
    grid = problem.grid
    vol = grid.cell_volume
    times = trace.times
    B = at_times(problem.B, times)
    b = at_times(problem.b, times)
    residuals = []
    for tf in test_functions:
        s_vals = tf.space_values(grid)
        s_lap = tf.space_laplacian(grid)
        integrand = np.empty(len(times))
        for i, t in enumerate(times):
            w = trace.values[i]
            qt = float(tf.time_value(t))
            qdot = float(tf.time_derivative(t))
            term = qdot * np.sum(w * s_vals) + qt * problem.mu * np.sum(w * s_lap)
            react = np.zeros(grid.shape)
            if B is not None:
                react = react + B[i] * w
            if b is not None:
                react = react + b[i]
            term += qt * np.sum(react * s_vals)
            integrand[i] = term * vol
        space_time = integrate.simpson(integrand, x=times)
        initial = float(tf.time_value(times[0])) * np.sum(problem.w0.values * s_vals) * vol
        residuals.append(space_time + initial)
    return np.array(residuals)


GRIDS = {"1d": (40,), "2d": (12, 10)}
# 50 and 51 stored times: an even count takes Cartwright's last interval
STEPS = {"odd_nodes": 2e-3, "even_nodes": 0.1 / 49}
COEFFICIENT_SETS = {"reaction_and_source": (True, True), "reaction": (True, False),
                    "source": (False, True), "neither": (False, False)}


def _residual_grid(dims):
    return build_grid(DomainSpec(((0.0, 1.0),) * len(GRIDS[dims])), GRIDS[dims])


def _space_time(grid, scale, shift):
    mesh = grid.centers()
    space = np.cos(3.0 * mesh[0] + shift) * (1.0 if grid.dim == 1 else np.sin(2.0 * mesh[1]))
    return lambda times: scale * (1.0 + np.asarray(times)).reshape(
        (-1,) + (1,) * grid.dim) * space


def _bump_field(grid, center):
    mesh = grid.centers()
    return Field(grid, sum(np.exp(-30.0 * (m - center) ** 2) for m in mesh) / grid.dim)


def _assert_residuals_match(new, old, trace, family):
    # a residual is the space-time integral plus the initial term, which
    # nearly cancel: Crank-Nicolson leaves 1e-4 of terms of 0.1, so the
    # rounding of those terms (a different summation order, one Simpson
    # rule for another) reaches 1.7e-12 of the residual; the scale is the
    # larger of the residuals and the initial terms
    grid = trace.grid
    initial = [float(tf.time_value(trace.times[0]))
               * np.sum(trace.values[0] * tf.space_values(grid)) * grid.cell_volume
               for tf in family]
    scale = max(np.max(np.abs(old)), np.max(np.abs(initial)))
    assert new.shape == old.shape
    assert np.max(np.abs(old)) > 0.0
    assert np.all(np.abs(new - old) <= 1e-12 * scale)


@pytest.mark.parametrize("coefficients", COEFFICIENT_SETS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("dims", GRIDS)
def test_hyperbolic_residual_matches_the_loop(dims, steps, coefficients):
    grid = _residual_grid(dims)
    mesh = grid.centers()
    comps = np.stack([0.3 + 0.1 * np.sin(2 * np.pi * mesh[0] + k) for k in range(grid.dim)])
    c = lambda times: (1.0 - np.asarray(times)).reshape((-1,) + (1,) * (grid.dim + 1)) * comps
    with_A, with_a = COEFFICIENT_SETS[coefficients]
    prob = TransportProblem(grid, c, _space_time(grid, 0.5, 0.0) if with_A else None,
                            constant(0.2 + 0.1 * _bump_field(grid, 0.6).values) if with_a
                            else None, _bump_field(grid, 0.4))
    trace = solve_hyperbolic(prob, 0.1, STEPS[steps])
    family = default_family(0.1, grid.dim)
    _assert_residuals_match(weak_residual_hyperbolic(trace, prob, family),
                            hyperbolic_residual_loop(trace, prob, family), trace, family)


@pytest.mark.parametrize("coefficients", COEFFICIENT_SETS)
@pytest.mark.parametrize("steps", STEPS)
@pytest.mark.parametrize("dims", GRIDS)
def test_parabolic_residual_matches_the_loop(dims, steps, coefficients):
    grid = _residual_grid(dims)
    with_B, with_b = COEFFICIENT_SETS[coefficients]
    prob = ParabolicProblem(grid, 0.05, _space_time(grid, 1.5, 0.0) if with_B else None,
                            _space_time(grid, 0.3, 1.0) if with_b else None,
                            _bump_field(grid, 0.4))
    trace = solve_parabolic(prob, 0.1, Scheme("crank_nicolson", STEPS[steps]))
    family = default_family(0.1, grid.dim)
    _assert_residuals_match(weak_residual_parabolic(trace, prob, family),
                            parabolic_residual_loop(trace, prob, family), trace, family)
