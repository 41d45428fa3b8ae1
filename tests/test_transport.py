"""Transport solver tests: characteristics oracle, upwind scheme, estimates."""

import math

import numpy as np
import pytest

import predprey.transport as tp
from predprey.grid import (DomainSpec, Field, VectorField, build_grid, interp_values,
                           l1_norms, total_variations)
from predprey.series import Trace, constant
from predprey.testfunctions import default_family
from predprey.transport import (CflViolation, TransportProblem,
                                characteristics_solution_at,
                                characteristics_solution_field,
                                check_hyperbolic_bounds, exponential_weight,
                                fv_upwind_step, march_upwind, solve_hyperbolic,
                                stability_in_A, stability_in_c, time_lipschitz_check,
                                trace_characteristic, weak_residual_hyperbolic)
from predprey.velocity import drift_velocity, make_kernel


def grid1d(n=128):
    return build_grid(DomainSpec(((0.0, 1.0),)), n)


def const_velocity(grid, value):
    return constant(np.full((1,) + grid.shape, value))


def zero_velocity(grid):
    return const_velocity(grid, 0.0)


def bump(x, center=0.3, width=50.0, height=0.5):
    return height * np.exp(-width * (x - center) ** 2)


class TestCharacteristics:
    def test_stationary_for_zero_velocity(self):
        g = grid1d()
        prob = TransportProblem(g, zero_velocity(g), None, None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.5, [0.3], dt_ode=0.01)
        assert not path.exited
        assert np.max(np.abs(path.points - 0.3)) < 1e-14

    def test_exit_time_constant_speed(self):
        g = grid1d()
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.5, [0.3], dt_ode=0.01)
        assert path.exited
        assert path.exit_time == pytest.approx(0.2, abs=1e-8)
        assert path.points[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_reaches_initial_time(self):
        g = grid1d()
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.5, [0.7], dt_ode=0.01)
        assert not path.exited
        assert path.points[0, 0] == pytest.approx(0.2, abs=1e-8)
        assert np.all(np.diff(path.times) > 0)


class TestExponentialWeight:
    def test_constant_velocity_unit_weight(self):
        g = grid1d()
        prob = TransportProblem(g, const_velocity(g, 0.5), None, None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.4, [0.8], dt_ode=0.01)
        assert exponential_weight(path, prob, 0.0, 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_constant_reaction(self):
        g = grid1d()
        lam = 0.7
        prob = TransportProblem(g, zero_velocity(g), constant(np.full(g.shape, lam)),
                                None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.5, [0.5], dt_ode=0.01)
        val = exponential_weight(path, prob, 0.1, 0.5)
        assert val == pytest.approx(math.exp(lam * 0.4), abs=1e-10)

    def test_linear_velocity_divergence(self):
        # c(x) = x has unit divergence: the weight is exp(-(t - tau))
        g = grid1d()
        c = constant(g.axis_centers[0][None, :])
        prob = TransportProblem(g, c, None, None, np.zeros(g.shape))
        path = trace_characteristic(prob, 0.5, [0.6], dt_ode=0.002)
        assert exponential_weight(path, prob, 0.0, 0.5) == pytest.approx(
            math.exp(-0.5), abs=1e-8)


class TestOracleSolution:
    def test_frozen_field_without_dynamics(self):
        g = grid1d()
        x = g.axis_centers[0]
        u0 = bump(x)
        prob = TransportProblem(g, zero_velocity(g), None, None, u0)
        out = characteristics_solution_field(prob, 0.4, dt_ode=0.01)
        assert np.max(np.abs(out - u0)) < 1e-12

    def test_pure_accumulation(self):
        g = grid1d()
        prob = TransportProblem(g, zero_velocity(g), None,
                                constant(np.full(g.shape, 1.0)), np.zeros(g.shape))
        out = characteristics_solution_field(prob, 0.3, dt_ode=0.01)
        assert np.max(np.abs(out - 0.3)) < 1e-10

    def test_translation_with_inflow_wake(self):
        g = grid1d(128)
        x = g.axis_centers[0]
        u0_vals = np.where((x > 0.0) & (x < 0.2),
                           np.sin(np.pi * np.clip(x / 0.2, 0, 1)) ** 2, 0.0)
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, u0_vals)
        out = characteristics_solution_field(prob, 0.5, dt_ode=0.005)
        shifted = np.zeros_like(u0_vals)
        shifted[64:] = u0_vals[:64]  # 0.5 = 64 cells at n = 128
        assert np.max(np.abs(out - shifted)) < 1e-8
        assert np.max(np.abs(out[x < 0.49])) == 0.0

    def test_single_point_evaluation(self):
        g = grid1d()
        prob = TransportProblem(g, zero_velocity(g), None,
                                constant(np.full(g.shape, 2.0)), np.zeros(g.shape))
        assert characteristics_solution_at(prob, 0.25, np.array([[0.5]]),
                                           dt_ode=0.01)[0] == pytest.approx(0.5, abs=1e-10)

    def test_branch_partition_is_exhaustive(self):
        # every random query lands in exactly one branch
        g = grid1d()
        x = g.axis_centers[0]
        w = bump(x, 0.7)
        kern = make_kernel(0.25, g)
        c = constant(drift_velocity(w, kern, kappa=0.8))
        prob = TransportProblem(g, c, None, None, bump(x))
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.01, 0.99, size=(10_000, 1))
        from predprey.transport import _BackwardPaths
        paths = _BackwardPaths(prob.c, g, 0.5, pts, dt_ode=0.01)
        exited = paths.exited
        reached = ~exited
        assert np.all(exited ^ reached)
        assert np.all(np.isnan(paths.exit_time[reached]))
        assert np.all(~np.isnan(paths.exit_time[exited]))

    def test_constant_coefficients_closed_form(self):
        # the oracle advects the bilinear interpolant of the sampled datum, so
        # the closed form is that interpolant shifted and scaled
        g = grid1d(256)
        x = g.axis_centers[0]
        u0 = bump(x, 0.25, 80.0)
        K = 0.8
        prob = TransportProblem(g, const_velocity(g, 0.5),
                                constant(np.full(g.shape, K)), None, u0)
        t = 0.4
        out = characteristics_solution_field(prob, t, dt_ode=0.005)
        feet = x - 0.5 * t
        expected = np.where(feet > 0,
                            interp_values(g, u0, feet[:, None]) * math.exp(K * t),
                            0.0)
        assert np.max(np.abs(out - expected)) < 1e-8


class TestUpwind:
    def test_zero_field_stays_zero(self):
        g = grid1d(64)
        out = fv_upwind_step(Field(g, np.zeros(g.shape)), VectorField(g, np.ones((1, 64))),
                             None, None, 5e-3)
        assert np.all(out.values == 0.0)

    def test_pure_reaction_step(self):
        g = grid1d(64)
        u = Field(g, np.full(g.shape, 2.0))
        A = Field(g, np.full(g.shape, -0.5))
        a = Field(g, np.full(g.shape, 1.0))
        out = fv_upwind_step(u, VectorField(g, np.zeros((1, 64))), A, a, 0.01)
        assert np.allclose(out.values, 2.0 + 0.01 * (-0.5 * 2.0 + 1.0))

    def test_cfl_violation(self):
        g = grid1d(64)
        with pytest.raises(CflViolation):
            fv_upwind_step(Field(g, np.zeros(g.shape)), VectorField(g, np.ones((1, 64))),
                           None, None, 1.0)

    def test_mass_leaves_through_outflow_only(self):
        g = grid1d(128)
        x = g.axis_centers[0]
        u0 = bump(x, 0.8, 200.0)
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, u0)
        trace = solve_hyperbolic(prob, 0.3, 0.9 * g.dx[0])
        assert np.all(np.diff(trace.l1) <= 1e-14)

    def test_front_advances_at_speed(self):
        g = grid1d(256)
        x = g.axis_centers[0]
        u0 = (x < 0.3).astype(float)
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, u0)
        T = 0.25
        trace = solve_hyperbolic(prob, T, 0.45 * g.dx[0])
        oracle = characteristics_solution_field(prob, T, dt_ode=1e-3)
        err = l1_norms(trace.values[-1] - oracle, g)
        assert err < 4.0 * math.sqrt(g.dx[0])  # upwind smearing of a unit jump

    def test_ode_exactness_small_dt(self):
        g = grid1d(16)
        K, T = 1.0, 0.05
        u0 = np.full(g.shape, 1.0)
        prob = TransportProblem(g, zero_velocity(g), constant(np.full(g.shape, K)),
                                None, u0)
        trace = solve_hyperbolic(prob, T, 2e-5)
        assert np.max(np.abs(trace.values[-1] - math.exp(K * T))) < 1e-6

    def test_2d_translation(self):
        g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (48, 48))
        xs, ys = g.centers()
        u0 = np.exp(-60 * ((xs - 0.35) ** 2 + (ys - 0.35) ** 2))
        comps = np.stack([np.full(g.shape, 0.5), np.full(g.shape, 0.5)])
        prob = TransportProblem(g, constant(comps), None, None, u0)
        T = 0.3
        trace = solve_hyperbolic(prob, T, 0.6 * g.dx[0])
        oracle = characteristics_solution_field(prob, T, dt_ode=5e-3)
        err = l1_norms(trace.values[-1] - oracle, g)
        assert err < 0.02
        assert min(np.min(v) for v in trace.values) >= -1e-12


def face_speeds(c_axis):
    """Upwind flux factors of one velocity component, sweep axis first after
    time: the interior face speeds split by sign and the wall factors (inflow
    carries the exterior 0, outflow upwinds the interior value)."""
    c_face = 0.5 * (c_axis[:, :-1] + c_axis[:, 1:])
    return (np.maximum(c_face, 0.0), np.minimum(c_face, 0.0),
            np.minimum(c_axis[:, :1], 0.0), np.maximum(c_axis[:, -1:], 0.0))


def upwind_sweep(v, faces, dt, dx):
    """Conservative upwind transport along axis 0, zero-inflow walls."""
    pos, neg, left, right = faces
    flux_interior = pos * v[:-1] + neg * v[1:]
    flux = np.concatenate([left * v[:1], flux_interior, right * v[-1:]], axis=0)
    return v - dt / dx * (flux[1:] - flux[:-1])


def flux_march(u0, c, A, a, dts, grid):
    """The flux-form march the stencil march replaced: face fluxes per axis
    sweep, then the explicit Euler source A u + a.  Returns the states up to
    the first step over the CFL limit, and that step (len(dts) if none)."""
    n, dim = len(dts), grid.dim
    cfl = dts * np.max(np.abs(c.reshape(n, -1)), axis=1) / min(grid.dx)
    over = np.flatnonzero(cfl > 0.9 + 1e-12)
    n_ok = int(over[0]) if over.size else n
    faces = [face_speeds(c[:n_ok, ax].swapaxes(1, ax + 1)) for ax in range(dim)]
    out = [u0]
    for k in range(n_ok):
        vals = out[-1]
        for ax in range(dim):
            vals = upwind_sweep(vals.swapaxes(0, ax), [f[k] for f in faces[ax]], dts[k],
                                grid.dx[ax]).swapaxes(0, ax)
        source = np.zeros(grid.shape)
        if A is not None:
            source = source + A[k] * vals
        if a is not None:
            source = source + a[k]
        out.append(vals + dts[k] * source)
    return np.stack(out), n_ok


def random_transport(shape, n_steps, seed):
    """A grid and march data with velocities of both signs up to CFL 0.8."""
    g = build_grid(DomainSpec(((0.0, 1.0),) * len(shape)), shape)
    rng = np.random.default_rng(seed)
    dts = rng.uniform(0.5, 1.0, n_steps) * 0.01
    c = rng.uniform(-1.0, 1.0, (n_steps, g.dim) + g.shape) * (0.8 * min(g.dx) / 0.01)
    return (g, rng.uniform(0.0, 1.0, g.shape), c,
            rng.uniform(-2.0, 2.0, (n_steps,) + g.shape),
            rng.uniform(-1.0, 1.0, (n_steps,) + g.shape), dts)


class TestStencilMarch:
    """The precomputed three-point stencils against the flux form."""

    @pytest.mark.parametrize("shape", [(48,), (20, 28)], ids=["1d", "2d"])
    @pytest.mark.parametrize("with_A", [True, False], ids=["A", "no_A"])
    @pytest.mark.parametrize("with_a", [True, False], ids=["a", "no_a"])
    def test_matches_flux_form(self, shape, with_A, with_a):
        g, u0, c, A, a, dts = random_transport(shape, 12, len(shape))
        A, a = (A if with_A else None), (a if with_a else None)
        ref, n_ok = flux_march(u0, c, A, a, dts, g)
        got = march_upwind(u0, c, A, a, dts, g)
        assert n_ok == len(dts) and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(48,), (20, 28)], ids=["1d", "2d"])
    def test_cfl_stop_at_same_step(self, shape, monkeypatch):
        g, u0, c, A, a, dts = random_transport(shape, 12, 7)
        c[5].flat[3] = min(g.dx) / dts[5]        # CFL 1 at step 5
        c[8].flat[0] = -3.0 * min(g.dx) / dts[8]
        ref, n_ok = flux_march(u0, c, A, a, dts, g)
        assert n_ok == 5
        checked = []
        monkeypatch.setattr(tp, "require_finite", checked.append)
        with pytest.raises(CflViolation):
            march_upwind(u0, c, A, a, dts, g)
        (got,) = checked
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestBoundsChecks:
    def test_zero_problem(self):
        g = grid1d(32)
        prob = TransportProblem(g, zero_velocity(g), None, None, np.zeros(g.shape))
        trace = solve_hyperbolic(prob, 0.1, 5e-3)
        assert all(check.passed for check in check_hyperbolic_bounds(trace, prob))

    def test_reaction_equality_case(self):
        # c = 0, a = 0: the L1 estimate degenerates to the scalar exponential
        # and the discrete solution saturates it as dt -> 0
        g = grid1d(16)
        K, T = 1.0, 0.1
        prob = TransportProblem(g, zero_velocity(g), constant(np.full(g.shape, K)),
                                None, np.full(g.shape, 1.0))
        trace = solve_hyperbolic(prob, T, 1e-5)
        rep = check_hyperbolic_bounds(trace, prob)
        assert all(check.passed for check in rep)
        gap = (rep[0].rhs[-1] - rep[0].lhs[-1]) / rep[0].rhs[-1]
        assert 0.0 <= gap <= 1e-6

    def test_random_suite(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            g = grid1d(64)
            x = g.axis_centers[0]
            w = rng.uniform(0.1, 1.0) * np.exp(
                -rng.uniform(20, 60) * (x - rng.uniform(0.3, 0.7)) ** 2)
            kern = make_kernel(0.25, g)
            c = drift_velocity(w, kern, rng.uniform(0.1, 0.8))
            A = constant(rng.uniform(-1, 1, 64))
            a = constant(rng.uniform(0, 0.5, 64))
            u0 = rng.uniform(0, 1) * np.exp(-40 * (x - 0.4) ** 2)
            prob = TransportProblem(g, constant(c), A, a, u0)
            cmax = float(np.max(np.abs(c)))
            dt = min(0.45 * g.dx[0] / max(cmax, 1e-9), 0.2 / 10)
            trace = solve_hyperbolic(prob, 0.2, dt)
            assert all(check.passed for check in check_hyperbolic_bounds(trace, prob))
            assert min(np.min(v) for v in trace.values) >= -1e-12


class TestStabilityExperiments:
    def _base(self, n=64):
        g = grid1d(n)
        x = g.axis_centers[0]
        u0 = bump(x, 0.4, 60.0)
        a = constant(np.full(g.shape, 0.2))
        return g, u0, a

    def test_same_reaction_zero_distance(self):
        g, u0, a = self._base()
        A = constant(np.full(g.shape, 0.5))
        p = TransportProblem(g, zero_velocity(g), A, a, u0)
        rep = stability_in_A(p, p, 0.1, 2e-3)
        assert np.all(rep.lhs == 0.0)

    def test_constant_shift_in_reaction(self):
        g, u0, a0 = self._base()
        delta, A1 = 0.3, 0.4
        p1 = TransportProblem(g, zero_velocity(g), constant(np.full(g.shape, A1)),
                              None, u0)
        p2 = TransportProblem(g, zero_velocity(g), constant(np.full(g.shape, A1 + delta)),
                              None, u0)
        T = 0.1
        rep = stability_in_A(p1, p2, T, 1e-4)
        exact = (math.exp(delta * T) - 1) * math.exp(A1 * T) * l1_norms(u0, g)
        assert rep.lhs[-1] == pytest.approx(exact, rel=1e-3)
        assert rep.passed

    def test_random_reaction_pairs(self):
        rng = np.random.default_rng(21)
        g, u0, a = self._base()
        for _ in range(5):
            A1 = constant(rng.uniform(-1, 1, 64))
            A2 = constant(rng.uniform(-1, 1, 64))
            p1 = TransportProblem(g, zero_velocity(g), A1, a, u0)
            p2 = TransportProblem(g, zero_velocity(g), A2, a, u0)
            assert stability_in_A(p1, p2, 0.15, 2e-3).passed

    def test_same_velocity_zero_distance(self):
        g, u0, a = self._base()
        c = const_velocity(g, 0.3)
        p = TransportProblem(g, c, None, a, u0)
        rep = stability_in_c(p, p, 0.1, 2e-3)
        assert np.all(rep.lhs == 0.0)

    def test_velocity_shift_first_order(self):
        g, u0, _ = self._base(128)
        lhs_at = []
        for eps in (0.04, 0.02):
            p1 = TransportProblem(g, const_velocity(g, 0.3), None, None, u0)
            p2 = TransportProblem(g, const_velocity(g, 0.3 + eps), None, None, u0)
            rep = stability_in_c(p1, p2, 0.2, 2e-3)
            assert rep.passed
            lhs_at.append(rep.lhs[-1] / eps)
        # first-order sensitivity: the normalized response is stable under halving
        assert 0.5 < lhs_at[1] / lhs_at[0] < 2.0

    def test_nonuniform_velocity_perturbation(self):
        g, u0, a = self._base(96)
        x = g.axis_centers[0]
        base = 0.3 + 0.1 * np.sin(2 * np.pi * x)
        pert = base + 0.05 * np.cos(np.pi * x)
        p1 = TransportProblem(g, constant(base[None, :]), None, a, u0)
        p2 = TransportProblem(g, constant(pert[None, :]), None, a, u0)
        assert stability_in_c(p1, p2, 0.15, 1e-3).passed


class TestTimeLipschitz:
    def test_constant_solution(self):
        g = grid1d(32)
        prob = TransportProblem(g, zero_velocity(g), None, None, np.full(g.shape, 1.0))
        trace = solve_hyperbolic(prob, 0.1, 5e-3)
        rep = time_lipschitz_check(trace)
        assert rep.modulus == 0.0

    def test_translation_modulus_scale(self):
        g = grid1d(128)
        x = g.axis_centers[0]
        u0 = bump(x, 0.4, 60.0)
        prob = TransportProblem(g, const_velocity(g, 0.8), None, None, u0)
        trace = solve_hyperbolic(prob, 0.2, 0.5 * g.dx[0] / 0.8)
        rep = time_lipschitz_check(trace)
        scale = 0.8 * total_variations(u0, g)
        assert 0.05 * scale < rep.modulus < 3.0 * scale

    def test_modulus_stable_under_dt_halving(self):
        g = grid1d(128)
        x = g.axis_centers[0]
        u0 = bump(x, 0.4, 60.0)
        prob = TransportProblem(g, const_velocity(g, 0.8), None, None, u0)
        dt0 = 0.4 * g.dx[0] / 0.8
        m = []
        for dt in (dt0, dt0 / 2):
            rep = time_lipschitz_check(solve_hyperbolic(prob, 0.2, dt))
            m.append(rep.modulus)
        assert 0.5 <= m[1] / m[0] <= 2.0


class TestWeakResidual:
    def test_zero_everything(self):
        g = grid1d(32)
        prob = TransportProblem(g, zero_velocity(g), None, None, np.zeros(g.shape))
        trace = solve_hyperbolic(prob, 0.1, 5e-3)
        res = weak_residual_hyperbolic(trace, prob, default_family(0.1, 1))
        assert np.max(np.abs(res)) == 0.0

    def test_oracle_trace_small_residual(self):
        g = grid1d(256)
        x = g.axis_centers[0]
        u0_vals = np.where((x > 0.05) & (x < 0.35),
                           np.sin(np.pi * np.clip((x - 0.05) / 0.3, 0, 1)) ** 2, 0.0)
        prob = TransportProblem(g, const_velocity(g, 1.0), None, None, u0_vals)
        T = 0.5
        times = np.linspace(0, T, 65)
        values = np.array([characteristics_solution_field(prob, t, dt_ode=5e-3)
                           for t in times])
        trace = Trace(g, times, values)
        res = weak_residual_hyperbolic(trace, prob, default_family(T, 1))
        assert np.max(np.abs(res)) < 1e-4

    def test_residual_shrinks_under_refinement(self):
        T = 0.25
        residuals = []
        for n in (64, 128):
            g = grid1d(n)
            x = g.axis_centers[0]
            u0 = bump(x, 0.35, 60.0)
            prob = TransportProblem(g, const_velocity(g, 0.8),
                                    constant(np.full(g.shape, 0.3)),
                                    constant(np.full(g.shape, 0.1)), u0)
            trace = solve_hyperbolic(prob, T, 0.45 * g.dx[0] / 0.8)
            res = weak_residual_hyperbolic(trace, prob, default_family(T, 1))
            residuals.append(np.max(np.abs(res)))
        assert residuals[1] <= residuals[0] / 1.5


def test_hyperbolic_solver_lands_exactly_on_horizon():
    g = grid1d(32)
    prob = TransportProblem(g, const_velocity(g, 0.5), None, None, np.full(g.shape, 1.0))
    trace = solve_hyperbolic(prob, 0.1, 0.0037)
    assert trace.times[-1] == pytest.approx(0.1, abs=1e-15)


def test_oracle_positivity_with_nonneg_data():
    g = grid1d(128)
    x = g.axis_centers[0]
    w = 0.5 * np.exp(-50 * (x - 0.7) ** 2)
    kern = make_kernel(0.25, g)
    c = constant(drift_velocity(w, kern, kappa=0.8))
    u0 = 0.5 * np.exp(-50 * (x - 0.3) ** 2)
    a = constant(0.2 + 0.1 * np.sin(2 * np.pi * x) ** 2)
    A = constant(-0.4 * np.cos(np.pi * x))
    prob = TransportProblem(g, c, A, a, u0)
    out = characteristics_solution_field(prob, 0.5, dt_ode=0.005)
    assert np.min(out) >= 0.0
