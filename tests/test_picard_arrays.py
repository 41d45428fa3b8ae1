"""The array-backed Picard window against the per-step Field loop it replaced.

The oracle below is the slow path: coefficients frozen one snapshot at a
time, read back through ``at(t)`` with the original bracket-and-blend rule,
and marched one ``fv_upwind_step``/``step_parabolic`` call per step, in the
window's sweep order (w first, then u on the new w).  The array path must
reproduce it, from the datum start and from the quadratic and quartic
predicted starts, and must still fail the same way: bit for bit in 2D, and
within ``WINDOW_ATOL_1D`` in 1D (``assert_window_matches``).

A second oracle keeps the Jacobi order of the contraction proof, all three
coefficients frozen on the previous iterate: the sweep has the same fixed
point, so both must land within the benchmark's reference tolerance of
each other.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from predprey import expressions as ex
from predprey import parabolic, transport
from predprey.coupling import (NoContraction, Scenario, WindowLog, extrapolate_window,
                               picard_window, sample_keyed, solve_coupled, window_settled)
from predprey.grid import (DomainSpec, Field, GridError, VectorField, build_grid, l1_norms,
                           require_finite)
from predprey.parabolic import (ParabolicProblem, Scheme, StiffReaction, solve_parabolic,
                                step_parabolic)
from predprey.scenario_io import load_scenario
from predprey.series import constant, step_times
from predprey.transport import CflViolation, TransportProblem, fv_upwind_step, solve_hyperbolic
from predprey.velocity import drift_velocity, make_kernel, velocity

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "scenarios", "predator_prey.ini")


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        domain=DomainSpec(((0.0, 1.0),)),
        n_cells=(64,),
        mu=0.05, ell=0.25, kappa=0.5, attract=1,
        alpha=ex.parse("1 - w + 0.1*t", ex.Slot.ALPHA),
        beta=ex.parse("-u + 0.05*sin(9*t)", ex.Slot.BETA),
        a=ex.parse("0.1 + 0.05*sin(20*t)*x", ex.Slot.SOURCE_A),
        b=ex.parse("0.1*cos(7*t)", ex.Slot.SOURCE_B),
        u0=ex.parse("0.5*exp(-50*(x-0.3)^2)", ex.Slot.INIT),
        w0=ex.parse("0.5*exp(-50*(x-0.7)^2)", ex.Slot.INIT),
        horizon=0.2, dt=0.005, snapshot_every=4,
        parabolic_scheme="implicit_euler",
        picard_tol=1e-8, picard_max_iter=12,
        k_alpha=1.0, k_beta=1.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


SQUARE = dict(
    domain=DomainSpec(((0.0, 1.0), (0.0, 1.0))),
    n_cells=(24, 24),
    ell=0.2, kappa=0.4,
    a=ex.parse("0.05 + 0.02*sin(20*t)*y", ex.Slot.SOURCE_A),
    u0=ex.parse("0.4*exp(-30*((x-0.35)^2+(y-0.35)^2))", ex.Slot.INIT),
    w0=ex.parse("0.4*exp(-30*((x-0.65)^2+(y-0.65)^2))", ex.Slot.INIT),
)


def initial_states(s, grid):
    """The scenario's initial u and w, each of shape grid.shape."""
    return (sample_keyed(s.u0, "initial.u0", grid, [0.0])[0],
            sample_keyed(s.w0, "initial.w0", grid, [0.0])[0])


class Snapshots:
    """Snapshot series of the slow path: one Field or VectorField per time."""

    def __init__(self, times, fields):
        self.times = times
        self.fields = fields

    def at(self, t):
        times, fields = self.times, self.fields
        if t <= times[0]:
            return fields[0]
        if t >= times[-1]:
            return fields[-1]
        i1 = int(np.searchsorted(times, t, side="right"))
        i0 = i1 - 1
        lam = float((t - times[i0]) / (times[i1] - times[i0]))
        if lam == 0.0:
            return fields[i0]
        f0, f1 = fields[i0], fields[i1]
        if isinstance(f0, VectorField):
            return VectorField(f0.grid, (1 - lam) * f0.components + lam * f1.components)
        return Field(f0.grid, (1 - lam) * f0.values + lam * f1.values)


def oracle_window(s, grid, kernel, t0, t1, u_init, w_init, start=None):
    """Picard iteration on [t0, t1], one Field per step; returns (u, w, diffs).

    ``u_init`` and ``w_init`` are the states at t0 as arrays.  ``start`` is
    the first iterate as a pair of (n_steps+1, *grid.shape) stacks; by
    default the datum held constant.
    """
    u_init, w_init = Field(grid, u_init), Field(grid, w_init)
    span = t1 - t0
    times = t0 + s.dt * np.arange(int(round(span / s.dt)) + 1)
    steps = step_times(span, s.dt, t0)
    scheme = s.scheme()
    if start is None:
        u_prev, w_prev = [u_init] * len(times), [w_init] * len(times)
    else:
        u_prev, w_prev = ([Field(grid, row) for row in stack] for stack in start)
    diffs = []
    for _ in range(s.picard_max_iter):
        # w first, with beta at the previous iterate
        B = Snapshots(times, [ex.sample_field(s.beta, grid, t, u=u, w=w)
                              for t, u, w in zip(times, u_prev, w_prev)])
        w_next = [w_init]
        for k in range(len(steps) - 1):
            t = float(steps[k])
            dt_k = float(steps[k + 1] - steps[k])
            step_scheme = scheme if abs(dt_k - scheme.dt) < 1e-15 else Scheme(scheme.kind, dt_k)
            t_coeff = t + 0.5 * dt_k if scheme.kind == "crank_nicolson" else t
            w_next.append(step_parabolic(w_next[-1], B.at(t_coeff),
                                         ex.sample_field(s.b, grid, t_coeff), s.mu, step_scheme))
        # then u, with the velocity and alpha at the new w
        c = Snapshots(times, [velocity(w, kernel, s.kappa, s.attract) for w in w_next])
        A = Snapshots(times, [ex.sample_field(s.alpha, grid, t, w=w)
                              for t, w in zip(times, w_next)])
        u_next = [u_init]
        for k in range(len(steps) - 1):
            t = float(steps[k])
            dt_k = float(steps[k + 1] - steps[k])
            u_next.append(fv_upwind_step(u_next[-1], c.at(t), A.at(t),
                                         ex.sample_field(s.a, grid, t), dt_k))
        diffs.append(max(
            float(l1_norms(un.values - up.values, grid) + l1_norms(wn.values - wp.values, grid))
            for un, up, wn, wp in zip(u_next, u_prev, w_next, w_prev)
        ))
        u_prev, w_prev = u_next, w_next
        if window_settled(diffs, s.picard_tol):
            return u_next, w_next, diffs
    raise AssertionError("oracle window did not settle")


def jacobi_window(scenario, grid, kernel, t0, t1, u_init, w_init, start=None):
    """picard_window in the Jacobi order: c, alpha and beta all frozen on the
    previous iterate, then both species marched."""
    times = step_times(t1 - t0, scenario.dt, t0)
    u_start, w_start = (u_init, w_init) if start is None else start
    stacked = (len(times),) + grid.shape
    u_prev = np.broadcast_to(u_start, stacked)
    w_prev = np.broadcast_to(w_start, stacked)
    kind = scenario.parabolic_scheme
    u_dts = np.diff(times)
    w_dts = parabolic.step_sizes(times, scenario.dt)
    a = sample_keyed(scenario.a, "coefficients.a", grid, transport.coefficient_times(times))
    b = sample_keyed(scenario.b, "coefficients.b", grid,
                     parabolic.coefficient_times(times, kind))
    diffs = []
    for _ in range(scenario.picard_max_iter):
        c = drift_velocity(w_prev, kernel, scenario.kappa, scenario.attract)
        A = sample_keyed(scenario.alpha, "coefficients.alpha", grid, times, w=w_prev)
        B = sample_keyed(scenario.beta, "coefficients.beta", grid, times, u=u_prev, w=w_prev)
        u_next = transport.march_upwind(u_init, c[:-1], A[:-1], a, u_dts, grid)
        w_next = parabolic.march_imex(w_init, parabolic.coefficient_rows(times, B, kind),
                                      b, w_dts, scenario.mu, kind, grid)
        require_finite(u_next)
        require_finite(w_next)
        diffs.append(float(np.max(l1_norms(u_next - u_prev, grid)
                                  + l1_norms(w_next - w_prev, grid))))
        u_prev, w_prev = u_next, w_next
        stop = window_settled(diffs, scenario.picard_tol)
        if stop:
            return (times, u_next, w_next,
                    WindowLog(t0, t1, len(times) - 1, tuple(diffs), True, stop))
    raise NoContraction("jacobi window did not settle")


# A 1D window freezes its drift with one matrix product over all its rows
# (velocity.drift_matrix), the loop with one product per field, and a BLAS
# may sum a single row apart from a stack of rows in another order.  On
# these windows the states then differ by at most 1.1e-16 (values up to 0.5)
# and the Picard differences by at most 6.1e-18.  2D has no drift matrix and
# stays bit for bit.
WINDOW_ATOL_1D = 1e-15


def assert_window_matches(grid, u_win, w_win, wlog, u_ref, w_ref, diffs):
    u_ref = np.stack([f.values for f in u_ref])
    w_ref = np.stack([f.values for f in w_ref])
    if grid.dim == 2:
        assert wlog.diffs == tuple(diffs)
        assert np.array_equal(u_win, u_ref)
        assert np.array_equal(w_win, w_ref)
        return
    assert len(wlog.diffs) == len(diffs)
    assert np.max(np.abs(np.subtract(wlog.diffs, diffs))) <= WINDOW_ATOL_1D
    assert np.max(np.abs(u_win - u_ref)) <= WINDOW_ATOL_1D
    assert np.max(np.abs(w_win - w_ref)) <= WINDOW_ATOL_1D


CASES = dict(argnames="extra", argvalues=[
    dict(parabolic_scheme="implicit_euler"),
    dict(parabolic_scheme="crank_nicolson"),
    dict(parabolic_scheme="implicit_euler", **SQUARE),
    dict(parabolic_scheme="crank_nicolson", **SQUARE),
], ids=["1d-implicit_euler", "1d-crank_nicolson", "2d-implicit_euler", "2d-crank_nicolson"])


@pytest.mark.parametrize(**CASES)
def test_array_window_matches_field_loop_bit_for_bit(extra):
    s = make_scenario(**extra)
    grid = s.grid()
    kernel = make_kernel(s.ell, grid)
    u0, w0 = initial_states(s, grid)
    # a window off the origin, so the step times carry rounding
    t0, t1 = 7 * s.dt, 15 * s.dt
    u_ref, w_ref, diffs = oracle_window(s, grid, kernel, t0, t1, u0, w0)
    _, u_win, w_win, wlog = picard_window(s, grid, kernel, t0, t1, u0, w0)
    assert len(diffs) > 1
    assert_window_matches(grid, u_win, w_win, wlog, u_ref, w_ref, diffs)


@pytest.mark.parametrize(**CASES)
def test_predicted_start_matches_field_loop_bit_for_bit(extra):
    # the second window of a chained solve, started from the quadratic and
    # from the quartic prediction through the first window's last three and
    # five states
    s = make_scenario(**extra)
    grid = s.grid()
    kernel = make_kernel(s.ell, grid)
    u0, w0 = initial_states(s, grid)
    t0, t1 = 7 * s.dt, 15 * s.dt
    _, u_first, w_first, _ = picard_window(s, grid, kernel, 0.0, t0, u0, w0)
    u_init, w_init = u_first[-1], w_first[-1]
    _, _, datum_diffs = oracle_window(s, grid, kernel, t0, t1, u_init, w_init)
    for rows in (3, 5):
        start = (extrapolate_window(u_first[-rows:], 8),
                 extrapolate_window(w_first[-rows:], 8))
        u_ref, w_ref, diffs = oracle_window(s, grid, kernel, t0, t1, u_init, w_init, start)
        _, u_win, w_win, wlog = picard_window(s, grid, kernel, t0, t1, u_init, w_init,
                                              start=start)
        if rows == 3:
            # the quartic start may settle in one iteration; the quadratic
            # one exercises the iterate handover
            assert len(diffs) > 1
        assert_window_matches(grid, u_win, w_win, wlog, u_ref, w_ref, diffs)
        # the prediction starts closer to the fixed point than the datum does
        assert diffs[0] < datum_diffs[0]


@pytest.mark.parametrize(**CASES)
def test_sweep_matches_jacobi_window(extra):
    # same fixed point, reached in fewer iterations
    s = make_scenario(**extra)
    grid = s.grid()
    kernel = make_kernel(s.ell, grid)
    u0, w0 = initial_states(s, grid)
    t0, t1 = 7 * s.dt, 15 * s.dt
    args = (s, grid, kernel, t0, t1, u0, w0)
    _, u_ref, w_ref, jacobi = jacobi_window(*args)
    _, u_win, w_win, sweep = picard_window(*args)
    assert sweep.iterations < jacobi.iterations
    assert np.max(np.abs(u_win - u_ref)) <= 1e3 * s.picard_tol
    assert np.max(np.abs(w_win - w_ref)) <= 1e3 * s.picard_tol


def test_sweep_matches_jacobi_solve_on_shipped_long_horizon(monkeypatch):
    import predprey.coupling as cp

    s = replace(load_scenario(SHIPPED), horizon=4.0)
    trace = solve_coupled(s)
    monkeypatch.setattr(cp, "picard_window", jacobi_window)
    jacobi = cp.solve_coupled(s)
    assert len(trace.window_logs) < len(jacobi.window_logs)
    assert np.max(np.abs(trace.u.values - jacobi.u.values)) <= 1e3 * s.picard_tol
    assert np.max(np.abs(trace.w.values - jacobi.w.values)) <= 1e3 * s.picard_tol


def test_array_march_raises_cfl_violation():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 32)
    fast = constant(np.full((1, 32), 100.0))
    with pytest.raises(CflViolation):
        solve_hyperbolic(TransportProblem(g, fast, None, None, np.zeros(g.shape)), 0.05, 0.01)


def test_array_march_raises_stiff_reaction():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 32)
    stiff = constant(np.full(32, 200.0))
    problem = ParabolicProblem(g, 0.1, stiff, None, np.zeros(g.shape))
    with pytest.raises(StiffReaction):
        solve_parabolic(problem, 0.05, Scheme("implicit_euler", 0.01))


def test_array_march_rejects_nonfinite_output():
    g = build_grid(DomainSpec(((0.0, 1.0),)), 32)
    huge = np.full(32, 1e300)
    still = constant(np.zeros((1, 32)))
    growth = constant(np.full(32, 1e10))
    with pytest.raises(GridError, match="non-finite"):
        solve_hyperbolic(TransportProblem(g, still, growth, None, huge), 0.05, 0.01)


def test_window_freeze_error_carries_alpha_key_path():
    s = make_scenario(alpha=ex.parse("1/w", ex.Slot.ALPHA), w0=ex.parse("0", ex.Slot.INIT))
    grid = s.grid()
    u0, w0 = initial_states(s, grid)
    with pytest.raises(ex.NonFiniteValue, match=r"\[coefficients\.alpha\]"):
        picard_window(s, grid, make_kernel(s.ell, grid), 0.0, 0.02, u0, w0)


@pytest.mark.parametrize("overrides,error,match", [
    (dict(kappa=50.0), CflViolation, "exceeds 0.9"),
    (dict(beta=ex.parse("-300", ex.Slot.BETA)), StiffReaction, ">= 1"),
    (dict(alpha=ex.parse("1e300", ex.Slot.ALPHA)), GridError, "non-finite"),
], ids=["cfl_violation", "stiff_reaction", "nonfinite_field"])
def test_window_march_errors(overrides, error, match):
    # the window marches the kernels directly; their limits and the
    # finiteness check must still stop it
    s = make_scenario(**overrides)
    grid = s.grid()
    u0, w0 = initial_states(s, grid)
    with pytest.raises(error, match=match):
        picard_window(s, grid, make_kernel(s.ell, grid), 0.0, 0.02, u0, w0)
