"""The single-equation bound and stability checks against their earlier bodies.

Each oracle below is the earlier implementation of one check: it samples
the problem's series itself and rebuilds every source integral and datum
norm in place.  The checks now take one right-hand side per equation from
arrays and compose the stability estimates from it.  The bound checks must
agree exactly (``==``, no tolerance); a stability rhs multiplies the same
factors in another order, so it may differ in the last bits (relative
1e-14).
"""

import numpy as np
import pytest

from predprey.calibration import TV_CONST_HYPERBOLIC, TV_CONST_PARABOLIC
from predprey.grid import (DomainSpec, Field, build_grid, divergences, l1_norms,
                           linf_norms, norm_l1, norm_linf, total_variation,
                           total_variations)
from predprey.parabolic import (ParabolicProblem, Scheme, check_parabolic_bounds,
                                parabolic_stability_experiment, solve_parabolic)
from predprey.series import constant, cumulative_left_riemann, grade
from predprey.transport import (TransportProblem, _grad_div_l1, _sup_jacobian,
                                check_hyperbolic_bounds, solve_hyperbolic,
                                stability_in_A, stability_in_c)

T, DT = 0.1, 2e-3
DIMS = {"1d": (24,), "2d": (10, 12)}
COEFFICIENTS = ["all", "none"]


def _stack(series, times, grid):
    if series is None:
        return np.zeros((len(times),) + grid.shape)
    return series(times)


def hyperbolic_bounds_oracle(trace, problem):
    times = trace.times
    grid = problem.grid
    A = _stack(problem.A, times, grid)
    a = _stack(problem.a, times, grid)
    c = problem.c(times)
    A_sup, A_tv = linf_norms(A, grid), total_variations(A, grid)
    a_l1, a_sup, a_tv = l1_norms(a, grid), linf_norms(a, grid), total_variations(a, grid)
    div = divergences(c, grid)
    div_sup = linf_norms(div, grid)
    dxc_sup = _sup_jacobian(c, grid)
    graddiv_l1 = _grad_div_l1(div, grid)
    elapsed = times - times[0]
    int_a_l1 = cumulative_left_riemann(a_l1, times)
    int_a_sup = cumulative_left_riemann(a_sup, times)
    int_a_tv = cumulative_left_riemann(a_tv, times)
    int_A_sup = cumulative_left_riemann(A_sup, times)
    int_div = cumulative_left_riemann(div_sup, times)
    int_dxc = cumulative_left_riemann(dxc_sup, times)
    int_Atv_graddiv = cumulative_left_riemann(A_tv + graddiv_l1, times)
    u0_l1, u0_sup, u0_tv = trace.l1[0], trace.linf[0], trace.tv[0]
    rhs_l1 = (u0_l1 + int_a_l1) * np.exp(np.maximum.accumulate(A_sup) * elapsed)
    rhs_linf = (u0_sup + int_a_sup) * np.exp(int_A_sup + int_div)
    rhs_tv = np.exp(int_A_sup + int_dxc) * (
        u0_tv + TV_CONST_HYPERBOLIC * u0_sup + int_a_tv
        + (u0_sup + int_a_sup) * int_Atv_graddiv
    )
    return (grade("u_l1_vs_data", times, trace.l1, rhs_l1),
            grade("u_linf_vs_data", times, trace.linf, rhs_linf),
            grade("u_tv_vs_data", times, trace.tv, rhs_tv))


def stability_in_A_oracle(problem1, problem2, T, dt):
    tr1 = solve_hyperbolic(problem1, T, dt)
    tr2 = solve_hyperbolic(problem2, T, dt)
    times = tr1.times
    grid = problem1.grid
    lhs = l1_norms(tr1.values - tr2.values, grid)
    A1 = _stack(problem1.A, times, grid)
    A2 = _stack(problem2.A, times, grid)
    dA = l1_norms(A2 - A1, grid)
    a_sup = linf_norms(_stack(problem1.a, times, grid), grid)
    elapsed = times - times[0]
    worst_rate = np.maximum(np.maximum.accumulate(linf_norms(A1, grid)),
                            np.maximum.accumulate(linf_norms(A2, grid)))
    rhs = (np.exp(elapsed * worst_rate)
           * (norm_linf(problem1.u0) + cumulative_left_riemann(a_sup, times))
           * cumulative_left_riemann(dA, times))
    return grade("u_stability_in_A", times, lhs, rhs)


def stability_in_c_oracle(problem1, problem2, T, dt):
    tr1 = solve_hyperbolic(problem1, T, dt)
    tr2 = solve_hyperbolic(problem2, T, dt)
    times = tr1.times
    grid = problem1.grid
    lhs = l1_norms(tr1.values - tr2.values, grid)
    A = _stack(problem1.A, times, grid)
    a = _stack(problem1.a, times, grid)
    A_sup, A_tv = linf_norms(A, grid), total_variations(A, grid)
    a_l1, a_sup, a_tv = l1_norms(a, grid), linf_norms(a, grid), total_variations(a, grid)
    c1 = problem1.c(times)
    dc = problem2.c(times) - c1
    dc_sup = linf_norms(np.sqrt(np.sum(dc**2, axis=1)), grid)
    ddiv_sup = linf_norms(divergences(dc, grid), grid)
    dxc1_sup = _sup_jacobian(c1, grid)
    graddiv1_l1 = _grad_div_l1(divergences(c1, grid), grid)
    elapsed = times - times[0]
    u0_l1, u0_sup = norm_l1(problem1.u0), norm_linf(problem1.u0)
    u0_tv = total_variation(problem1.u0)
    int_a_l1 = cumulative_left_riemann(a_l1, times)
    int_a_sup = cumulative_left_riemann(a_sup, times)
    term1 = ((u0_l1 + int_a_l1) * np.exp(np.maximum.accumulate(A_sup) * elapsed)
             * cumulative_left_riemann(ddiv_sup, times))
    bracket = (u0_tv + TV_CONST_HYPERBOLIC * u0_sup + cumulative_left_riemann(a_tv, times)
               + (u0_sup + int_a_sup) * cumulative_left_riemann(A_tv + graddiv1_l1, times))
    term2 = (cumulative_left_riemann(dc_sup, times)
             * np.exp(cumulative_left_riemann(A_sup, times)
                      + cumulative_left_riemann(dxc1_sup, times))
             * bracket)
    return grade("u_stability_in_c", times, lhs, term1 + term2)


def parabolic_bounds_oracle(trace, problem):
    times = trace.times
    t0 = times[0]
    grid = problem.grid
    b = _stack(problem.b, times, grid)
    B_sup = linf_norms(_stack(problem.B, times, grid), grid)
    b_l1, b_sup, b_tv = l1_norms(b, grid), linf_norms(b, grid), total_variations(b, grid)
    int_B = cumulative_left_riemann(B_sup, times)
    int_b_l1 = cumulative_left_riemann(b_l1, times)
    int_b_sup = cumulative_left_riemann(b_sup, times)
    int_b_tv = cumulative_left_riemann(b_tv, times)
    growth = np.exp(int_B)
    w0_l1 = norm_l1(problem.w0)
    w0_sup = norm_linf(problem.w0)
    w0_tv = total_variation(problem.w0)
    rhs_l1 = (w0_l1 + int_b_l1) * growth
    rhs_sup = (w0_sup + int_b_sup) * growth
    elapsed = times - t0
    B_window = np.maximum.accumulate(B_sup)
    rhs_tv = (w0_tv + int_b_tv
              + TV_CONST_PARABOLIC * np.sqrt(elapsed) * B_window * (w0_l1 + int_b_l1) * growth)
    return (grade("w_l1_vs_data", times, trace.l1, rhs_l1),
            grade("w_linf_vs_data", times, trace.linf, rhs_sup),
            grade("w_tv_vs_data", times, trace.tv, rhs_tv))


def parabolic_stability_oracle(problem1, problem2, T, scheme):
    tr1 = solve_parabolic(problem1, T, scheme)
    tr2 = solve_parabolic(problem2, T, scheme)
    times = tr1.times
    grid = problem1.grid
    lhs = l1_norms(tr1.values - tr2.values, grid)
    B1 = _stack(problem1.B, times, grid)
    B2 = _stack(problem2.B, times, grid)
    b1 = _stack(problem1.b, times, grid)
    b2 = _stack(problem2.b, times, grid)
    B1_sup, B2_sup = linf_norms(B1, grid), linf_norms(B2, grid)
    int_B1 = cumulative_left_riemann(B1_sup, times)
    int_B12 = cumulative_left_riemann(B1_sup + B2_sup, times)
    int_dB = cumulative_left_riemann(l1_norms(B1 - B2, grid), times)
    int_db = cumulative_left_riemann(l1_norms(b1 - b2, grid), times)
    int_b2_sup = cumulative_left_riemann(linf_norms(b2, grid), times)
    dw0 = norm_l1(Field(grid, problem1.w0.values - problem2.w0.values))
    w02_sup = norm_linf(problem2.w0)
    rhs = ((dw0 + int_db) * np.exp(int_B1)
           + int_dB * (w02_sup + int_b2_sup) * np.exp(int_B12))
    return grade("w_stability", times, lhs, rhs)


def _grid(dims):
    return build_grid(DomainSpec(((0.0, 1.0),) * len(DIMS[dims])), DIMS[dims])


def _varying(grid, shift, scale):
    """A scalar series that changes in time and space."""
    mesh = grid.centers()
    space = np.cos(3.0 * mesh[0] + shift) * (1.0 if grid.dim == 1 else np.sin(2.0 * mesh[1]))
    return lambda times: scale * (1.0 + np.asarray(times)).reshape(
        (-1,) + (1,) * grid.dim) * space


def _velocity(grid, speed):
    mesh = grid.centers()
    comps = np.stack([speed + 0.1 * np.sin(2 * np.pi * mesh[0] + k)
                      for k in range(grid.dim)])
    return lambda times: (1.0 - np.asarray(times)).reshape(
        (-1,) + (1,) * (grid.dim + 1)) * comps


def _bump(grid, center):
    mesh = grid.centers()
    return Field(grid, sum(np.exp(-30.0 * (m - center) ** 2) for m in mesh) / grid.dim)


def _transport(dims, coefficients, speed=0.3, reaction=0.5, shift=0.0):
    grid = _grid(dims)
    if coefficients == "none":
        return TransportProblem(grid, constant(np.zeros((grid.dim,) + grid.shape)),
                                None, None, _bump(grid, 0.4))
    source = constant(0.2 + 0.1 * _bump(grid, 0.6).values)  # a stride-0 stack
    return TransportProblem(grid, _velocity(grid, speed), _varying(grid, shift, reaction),
                            source, _bump(grid, 0.4))


def _parabolic(dims, coefficients, reaction=1.5, shift=0.0, datum=0.4):
    grid = _grid(dims)
    if coefficients == "none":
        return ParabolicProblem(grid, 0.05, None, None, _bump(grid, datum))
    return ParabolicProblem(grid, 0.05, _varying(grid, shift, reaction),
                            _varying(grid, shift + 1.0, 0.3), _bump(grid, datum))


def _assert_same_rhs(new, old, rel=0.0):
    assert new.name == old.name
    assert np.array_equal(new.times, old.times)
    assert np.array_equal(new.lhs, old.lhs)
    assert new.passed == old.passed
    if rel == 0.0:
        assert np.array_equal(new.rhs, old.rhs)
    else:
        assert np.all(np.abs(new.rhs - old.rhs) <= rel * np.abs(old.rhs))


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("dims", DIMS)
def test_hyperbolic_bounds_match_oracle(dims, coefficients):
    prob = _transport(dims, coefficients)
    trace = solve_hyperbolic(prob, T, DT)
    new, old = check_hyperbolic_bounds(trace, prob), hyperbolic_bounds_oracle(trace, prob)
    assert len(new) == len(old) == 3
    for got, expected in zip(new, old):
        _assert_same_rhs(got, expected)


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("dims", DIMS)
def test_parabolic_bounds_match_oracle(dims, coefficients):
    prob = _parabolic(dims, coefficients)
    trace = solve_parabolic(prob, T, Scheme("implicit_euler", DT))
    new, old = check_parabolic_bounds(trace, prob), parabolic_bounds_oracle(trace, prob)
    assert len(new) == len(old) == 3
    for got, expected in zip(new, old):
        _assert_same_rhs(got, expected)


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("dims", DIMS)
def test_stability_in_A_matches_oracle(dims, coefficients):
    # the second problem always carries a reaction, so Delta A is never 0
    p1 = _transport(dims, coefficients)
    p2 = _transport(dims, "all", reaction=-0.7, shift=0.5)
    p2 = TransportProblem(p1.grid, p1.c, p2.A, p1.a, p1.u0)
    new = stability_in_A(p1, p2, T, DT)
    old = stability_in_A_oracle(p1, p2, T, DT)
    assert np.max(old.rhs) > 0.0
    _assert_same_rhs(new, old, rel=1e-14)


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("dims", DIMS)
def test_stability_in_c_matches_oracle(dims, coefficients):
    p1 = _transport(dims, coefficients)
    c2 = _transport(dims, "all", speed=0.4).c
    p2 = TransportProblem(p1.grid, c2, p1.A, p1.a, p1.u0)
    new = stability_in_c(p1, p2, T, DT)
    old = stability_in_c_oracle(p1, p2, T, DT)
    assert np.max(old.rhs) > 0.0
    _assert_same_rhs(new, old, rel=1e-14)


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("kind", ["implicit_euler", "crank_nicolson"])
def test_parabolic_stability_matches_oracle(kind, dims, coefficients):
    # problem 2 always carries every coefficient and another datum, so each
    # difference (datum, source, reaction) is one-sided in the "none" case
    p1 = _parabolic(dims, coefficients)
    p2 = _parabolic(dims, "all", reaction=-1.0, shift=0.7, datum=0.5)
    new = parabolic_stability_experiment(p1, p2, T, Scheme(kind, DT))
    old = parabolic_stability_oracle(p1, p2, T, Scheme(kind, DT))
    assert np.max(old.rhs) > 0.0
    _assert_same_rhs(new, old, rel=1e-14)
