"""Reaction-diffusion solver tests: oracles, bounds, stability, weak form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predprey.parabolic as pb
from predprey.grid import DomainSpec, Field, build_grid, linf_norms
from predprey.parabolic import (NonPositiveTime, ParabolicProblem, Requires1D, Scheme,
                                StiffReaction, _block_size, _dirichlet_laplacian_1d,
                                _solve_axis, _tridiagonal, check_parabolic_bounds,
                                duhamel_reference, green_interval,
                                heat_kernel, march_imex, parabolic_stability_experiment,
                                solve_parabolic, step_parabolic, weak_residual_parabolic)
from predprey.series import constant
from predprey.testfunctions import SineTestFunction, default_family


def grid1d(n):
    return build_grid(DomainSpec(((0.0, 1.0),)), n)


def eigenmode(grid):
    return np.sin(np.pi * grid.axis_centers[0])


class TestHeatKernel:
    def test_unit_prefactor(self):
        assert heat_kernel(1.0, 1 / (4 * math.pi), 0.0) == pytest.approx(1.0)

    def test_positive(self):
        assert heat_kernel(0.3, 2.0, 1.7) > 0
        assert heat_kernel(0.3, 2.0, [1.0, 0.5]) > 0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(NonPositiveTime):
            heat_kernel(1.0, 0.0, 0.0)

    def test_unit_mass_quadrature(self):
        xs = np.linspace(-20, 20, 40001)
        vals = np.array([heat_kernel(0.5, 0.1, x) for x in xs])
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-8)


class TestGreenInterval:
    def test_symmetry(self):
        a = green_interval(1.0, 0.1, 0.0, 0.3, 0.7, 1.0, 100)
        b = green_interval(1.0, 0.1, 0.0, 0.7, 0.3, 1.0, 100)
        assert a == b

    def test_boundary_values(self):
        assert green_interval(1.0, 0.1, 0.0, 0.0, 0.5, 1.0, 50) == pytest.approx(0.0, abs=1e-12)
        assert green_interval(1.0, 0.1, 0.0, 1.0, 0.5, 1.0, 50) == pytest.approx(0.0, abs=1e-12)

    def test_dominated_by_heat_kernel(self):
        pts = np.linspace(0.02, 0.98, 50)
        for x in pts:
            for y in pts:
                g = green_interval(1.0, 0.1, 0.0, x, y, 1.0, 200)
                assert 0.0 <= g <= heat_kernel(1.0, 0.1, x - y) + 1e-8


def diagonals(n, coeff):
    """(sub, main, super) of I - coeff * Lap_1d with the ghost-cell wall rows."""
    off = np.full(n - 1, -coeff)
    main = np.full(n, 1.0 + 2.0 * coeff)
    main[0] = main[-1] = 1.0 + 3.0 * coeff
    return off, main, off


def lapack_solve(rhs, coeff, axis):
    # LAPACK gtsv on the same diagonals, the solve the axis operator replaced
    from scipy.linalg.lapack import dgtsv

    moved = np.moveaxis(rhs, axis, 0)
    n = len(moved)
    off, main, _ = diagonals(n, coeff)
    # the wrapper wants a non-empty off-diagonal even at n = 1, where gtsv never reads it
    off = off if n > 1 else np.zeros(1)
    *_, sol, info = dgtsv(off, main, off, moved.reshape(n, -1))
    assert info == 0
    return np.moveaxis(sol.reshape(moved.shape), 0, axis)


class TestAxisSolve:
    # coefficients of the shipped 1D runs (2.05, 4.1) and of a 1024-cell
    # grid at dt = 8.8e-4 (46)
    @pytest.mark.parametrize("coeff", [2.05, 4.1, 46.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 1000, 1024])
    def test_matches_lapack_1d(self, n, coeff):
        rhs = np.random.default_rng(n).standard_normal(n)
        ref = lapack_solve(rhs, coeff, 0)
        got = _solve_axis(rhs, _tridiagonal(n, coeff), 0)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    # (40, 150) takes the blocked form along its long axis
    @pytest.mark.parametrize("shape", [(48, 80), (40, 150)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_lapack_2d(self, shape, axis):
        rhs = np.random.default_rng(axis).standard_normal(shape)
        coeff = 4.1
        ref = lapack_solve(rhs, coeff, axis)
        got = _solve_axis(rhs, _tridiagonal(rhs.shape[axis], coeff), axis)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.floats(0.0, 1e3), st.integers(0, 2**32 - 1))
    def test_residual(self, n, coeff, seed):
        f = np.random.default_rng(seed).standard_normal(n)
        x = _solve_axis(f, _tridiagonal(n, coeff), 0)
        off, main, _ = diagonals(n, coeff)
        residual = main * x - f
        residual[1:] += off * x[:-1]
        residual[:-1] += off * x[1:]
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("n", [64, 300])
    def test_cached_and_read_only(self, n):
        solve = _tridiagonal(n, 4.1)
        assert _tridiagonal(n, 4.1) is solve
        for array in solve:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


    @pytest.mark.parametrize("n,columns,dense", [
        (128, 1, True), (256, 1, True), (257, 1, False), (1024, 1, False),
        (64, 64, True), (80, 80, False), (128, 128, False), (256, 256, False),
    ])
    def test_form_follows_length_and_columns(self, n, columns, dense):
        # 1D axes up to 256 cells and 2D 64^2 take the dense inverse, 2D
        # 128^2 the blocks
        assert (_block_size(n, columns) == n) is dense
        assert (len(_tridiagonal(n, 4.1, columns).block) == n) is dense

    @pytest.mark.parametrize("shape", [(128, 128), (90, 200)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_blocked_2d_matches_lapack(self, shape, axis):
        rhs = np.random.default_rng(axis).standard_normal(shape)
        n = rhs.shape[axis]
        solve = _tridiagonal(n, 4.1, rhs.size // n)
        assert len(solve.block) < n
        ref = lapack_solve(rhs, 4.1, axis)
        got = _solve_axis(rhs, solve, axis)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def rhs_march(w0, B, b, dts, mu, kind, grid):
    """The IMEX march with its explicit part built per step as w + dt (B w +
    b), the form the precomputed gain 1 + dt B and shift dt b replaced.
    Returns the states up to the first stiff step, and that step (len(dts)
    if none)."""
    n, dim = len(dts), grid.dim
    theta = 1.0 if kind == "implicit_euler" else 0.5
    n_ok = n
    if B is not None:
        over = np.flatnonzero(dts * np.max(np.abs(B.reshape(n, -1)), axis=1) >= 1.0)
        n_ok = int(over[0]) if over.size else n
    out = [w0]
    for k in range(n_ok):
        dt, w = dts[k], out[-1]
        solves = [_tridiagonal(n_ax, theta * dt * mu / h**2, w.size // n_ax)
                  for n_ax, h in zip(grid.shape, grid.dx)]
        reaction = np.zeros(grid.shape)
        if B is not None:
            reaction = reaction + B[k] * w
        if b is not None:
            reaction = reaction + b[k]
        if dim == 1:
            if theta < 1.0:
                lap = _dirichlet_laplacian_1d(w, grid.dx[0])
                rhs = w + dt * ((1.0 - theta) * mu * lap + reaction)
            else:
                rhs = w + dt * reaction
            out.append(_solve_axis(rhs, solves[0], axis=0))
        elif kind == "implicit_euler":
            half = _solve_axis(w + dt * reaction, solves[0], axis=0)
            out.append(_solve_axis(half, solves[1], axis=1))
        else:
            lap_x = _dirichlet_laplacian_1d(w, grid.dx[0], axis=0)
            lap_y = _dirichlet_laplacian_1d(w, grid.dx[1], axis=1)
            full_rhs = w + dt * (mu * (lap_x + lap_y) + reaction)
            y1 = _solve_axis(full_rhs - theta * dt * mu * lap_x, solves[0], axis=0)
            out.append(_solve_axis(y1 - theta * dt * mu * lap_y, solves[1], axis=1))
    return np.stack(out), n_ok


def random_diffusion(shape, n_steps, seed):
    """A grid and march data with dt * max|B| up to 0.8."""
    g = build_grid(DomainSpec(((0.0, 1.0),) * len(shape)), shape)
    rng = np.random.default_rng(seed)
    dts = np.full(n_steps, 0.01)
    dts[n_steps // 2:] = 0.005   # one change of step size
    return (g, rng.uniform(0.0, 1.0, g.shape), rng.uniform(-80.0, 80.0, (n_steps,) + g.shape),
            rng.uniform(-1.0, 1.0, (n_steps,) + g.shape), dts)


class TestPrecomputedExplicitPart:
    """march_imex's gain and shift against the explicit part built per step."""

    @pytest.mark.parametrize("shape", [(48,), (20, 28)], ids=["1d", "2d"])
    @pytest.mark.parametrize("kind", ["implicit_euler", "crank_nicolson"])
    @pytest.mark.parametrize("with_B", [True, False], ids=["B", "no_B"])
    @pytest.mark.parametrize("with_b", [True, False], ids=["b", "no_b"])
    def test_matches_rhs_built_per_step(self, shape, kind, with_B, with_b):
        g, w0, B, b, dts = random_diffusion(shape, 12, len(shape))
        B, b = (B if with_B else None), (b if with_b else None)
        ref, n_ok = rhs_march(w0, B, b, dts, 0.05, kind, g)
        got = march_imex(w0, B, b, dts, 0.05, kind, g)
        assert n_ok == len(dts) and got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape,kind", [
        ((48,), "implicit_euler"), ((20, 28), "implicit_euler"),
        ((48,), "crank_nicolson"), ((20, 28), "crank_nicolson"),
    ], ids=["1d", "2d", "1d-crank_nicolson", "2d-crank_nicolson"])
    def test_stiff_stop_at_same_step(self, shape, kind, monkeypatch):
        # both schemes take the reaction explicitly and stop at dt * max|B| >= 1
        g, w0, B, b, dts = random_diffusion(shape, 12, 7)
        B[4].flat[2] = 1.0 / dts[4]   # dt * |B| = 1 at step 4
        B[9].flat[0] = -3.0 / dts[9]
        ref, n_ok = rhs_march(w0, B, b, dts, 0.05, kind, g)
        assert n_ok == 4
        checked = []
        monkeypatch.setattr(pb, "require_finite", checked.append)
        with pytest.raises(StiffReaction):
            march_imex(w0, B, b, dts, 0.05, kind, g)
        (got,) = checked
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestDuhamelReference:
    def test_eigenmode_decay(self):
        g = grid1d(256)
        prob = ParabolicProblem(g, 0.1, None, None, eigenmode(g))
        out = duhamel_reference(prob, 0.25, n_terms=200)
        exact = math.exp(-0.1 * math.pi**2 * 0.25) * eigenmode(g)
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_zero_data(self):
        g = grid1d(64)
        prob = ParabolicProblem(g, 0.1, None, None, np.zeros(g.shape))
        assert np.all(duhamel_reference(prob, 0.1) == 0.0)

    def test_constant_in_time_eigenmode_source(self):
        g = grid1d(256)
        mu, t = 0.1, 0.5
        lam = math.pi**2
        b = constant(eigenmode(g))
        prob = ParabolicProblem(g, mu, None, b, np.zeros(g.shape))
        out = duhamel_reference(prob, t, n_terms=200, n_time=64)
        expected = (1 - math.exp(-mu * lam * t)) / (mu * lam) * eigenmode(g)
        assert np.max(np.abs(out - expected)) < 1e-5

    def test_odd_interval_count(self):
        # an odd count of time intervals takes Cartwright's last interval
        # and is as accurate as the even count next to it
        g = grid1d(256)
        mu, t = 0.1, 0.5
        lam = math.pi**2
        prob = ParabolicProblem(g, mu, None, constant(eigenmode(g)), np.zeros(g.shape))
        expected = (1 - math.exp(-mu * lam * t)) / (mu * lam) * eigenmode(g)
        for n_time in (63, 64, 65):
            out = duhamel_reference(prob, t, n_terms=200, n_time=n_time)
            assert np.max(np.abs(out - expected)) < 1e-5, n_time

    def test_requires_1d(self):
        g2 = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (8, 8))
        prob = ParabolicProblem(g2, 0.1, None, None, np.zeros(g2.shape))
        with pytest.raises(Requires1D):
            duhamel_reference(prob, 0.1)


class TestStep:
    def test_zero_stays_zero(self):
        g = grid1d(32)
        out = step_parabolic(Field(g, np.zeros(g.shape)), None, None, 0.1,
                             Scheme("implicit_euler", 1e-3))
        assert np.all(out.values == 0.0)

    def test_backward_euler_eigenmode_factor(self):
        g = grid1d(128)
        dt, mu = 1e-3, 0.5
        out = step_parabolic(Field(g, eigenmode(g)), None, None, mu, Scheme("implicit_euler", dt))
        expected = eigenmode(g) / (1 + dt * mu * math.pi**2)
        assert np.max(np.abs(out.values - expected)) < 5e-3 * dt  # O(dx^2) in the rate

    def test_discrete_eigenvalue_is_exact(self):
        # sampled sine modes are exact eigenvectors of the discrete operator
        g = grid1d(64)
        dt, mu = 2e-3, 0.3
        dx = g.dx[0]
        lam_h = 2.0 * (1 - math.cos(math.pi * dx)) / dx**2
        out = step_parabolic(Field(g, eigenmode(g)), None, None, mu, Scheme("implicit_euler", dt))
        expected = eigenmode(g) / (1 + dt * mu * lam_h)
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_positivity_under_reaction_cap(self):
        g = grid1d(64)
        rng = np.random.default_rng(0)
        w = Field(g, rng.uniform(0, 1, 64))
        B = Field(g, rng.uniform(-4, 4, 64))
        b = Field(g, rng.uniform(0, 1, 64))
        out = step_parabolic(w, B, b, 0.2, Scheme("implicit_euler", 0.2))
        assert np.min(out.values) >= -1e-12

    def test_stiff_reaction_rejected(self):
        g = grid1d(32)
        B = Field(g, np.full(g.shape, 20.0))
        with pytest.raises(StiffReaction):
            step_parabolic(Field(g, np.zeros(g.shape)), B, None, 0.1,
                           Scheme("implicit_euler", 0.1))

    def test_step_2d_eigenmode(self):
        g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (32, 32))
        xs, ys = g.centers()
        mode = Field(g, np.sin(np.pi * xs) * np.sin(np.pi * ys))
        dt, mu = 1e-3, 0.2
        dx = g.dx[0]
        lam_h = 2.0 * 2.0 * (1 - math.cos(math.pi * dx)) / dx**2
        out = step_parabolic(mode, None, None, mu, Scheme("implicit_euler", dt))
        # sequential sweeps factor the resolvent: (1 + dt mu lam_x)(1 + dt mu lam_y)
        lam_axis = 2.0 * (1 - math.cos(math.pi * dx)) / dx**2
        expected = mode.values / (1 + dt * mu * lam_axis) ** 2
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_crank_nicolson_2d_runs(self):
        g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (24, 24))
        xs, ys = g.centers()
        mode = Field(g, np.sin(np.pi * xs) * np.sin(np.pi * ys))
        out = step_parabolic(mode, None, None, 0.2, Scheme("crank_nicolson", 1e-3))
        ratio = out.values[12, 12] / mode.values[12, 12]
        assert 0.99 * math.exp(-0.2 * 2 * math.pi**2 * 1e-3) < ratio < 1.0


class TestSolve:
    def test_eigenmode_decay_vs_oracle(self):
        g = grid1d(256)
        prob = ParabolicProblem(g, 0.1, None, None, eigenmode(g))
        trace = solve_parabolic(prob, 0.05, Scheme("implicit_euler", 1e-4))
        ref = duhamel_reference(prob, 0.05, n_terms=200)
        assert np.max(np.abs(trace.values[-1] - ref)) < 2e-4

    def test_zero_problem(self):
        g = grid1d(32)
        prob = ParabolicProblem(g, 0.1, None, None, np.zeros(g.shape))
        trace = solve_parabolic(prob, 0.1, Scheme("crank_nicolson", 1e-2))
        assert all(np.all(v == 0.0) for v in trace.values)

    def test_l1_decay_without_source(self):
        g = grid1d(128)
        x = g.axis_centers[0]
        prob = ParabolicProblem(g, 0.2, None, None,
                                np.exp(-80 * (x - 0.4) ** 2))
        trace = solve_parabolic(prob, 0.2, Scheme("implicit_euler", 1e-3))
        assert np.all(np.diff(trace.l1) <= 1e-12)

    def test_exponential_reaction_bound(self):
        g = grid1d(64)
        K = 1.5
        prob = ParabolicProblem(g, 1e-3, constant(np.full(g.shape, K)), None,
                                eigenmode(g))
        trace = solve_parabolic(prob, 0.2, Scheme("implicit_euler", 1e-3))
        bound = trace.l1[0] * np.exp(K * trace.times)
        assert np.all(trace.l1 <= bound * (1 + 1e-9))


class TestBounds:
    def test_zero_problem_trivial_pass(self):
        g = grid1d(32)
        prob = ParabolicProblem(g, 0.1, None, None, np.zeros(g.shape))
        trace = solve_parabolic(prob, 0.1, Scheme("implicit_euler", 1e-2))
        report = check_parabolic_bounds(trace, prob)
        assert all(check.passed for check in report)
        assert np.all(report[0].rhs - report[0].lhs >= 0)

    def test_random_suite_bounds_and_positivity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.choice([48, 64]))
            g = grid1d(n)
            mu = rng.uniform(0.02, 0.3)
            w0 = rng.uniform(0, 1, n)
            B = rng.uniform(-3, 3, n)
            b = rng.uniform(0, 1, n)
            prob = ParabolicProblem(g, mu, constant(B), constant(b), w0)
            T = rng.uniform(0.05, 0.2)
            dt = min(0.9 / (linf_norms(B, g) + 1e-9) / 2, T / 10)
            trace = solve_parabolic(prob, T, Scheme("implicit_euler", dt))
            l1, linf, tv = check_parabolic_bounds(trace, prob)
            assert l1.passed
            assert linf.passed
            assert tv.passed
            assert min(np.min(v) for v in trace.values) >= -1e-12


class TestStability:
    def test_identical_problems(self):
        g = grid1d(48)
        prob = ParabolicProblem(g, 0.1, None, constant(np.full(g.shape, 0.3)),
                                eigenmode(g))
        rep = parabolic_stability_experiment(prob, prob, 0.1, Scheme("implicit_euler", 2e-3))
        assert np.all(rep.lhs == 0.0)
        assert rep.passed

    def test_source_perturbation_linear_response(self):
        g = grid1d(64)
        delta = 0.2
        b1 = constant(np.full(g.shape, 0.5))
        b2 = constant(np.full(g.shape, 0.5 + delta))
        p1 = ParabolicProblem(g, 0.1, None, b1, eigenmode(g))
        p2 = ParabolicProblem(g, 0.1, None, b2, eigenmode(g))
        rep = parabolic_stability_experiment(p1, p2, 0.1, Scheme("implicit_euler", 1e-3))
        # with B = 0 the distance is bounded by the accumulated source difference
        assert rep.passed
        assert rep.lhs[-1] <= delta * 0.1 + 1e-9

    def test_random_reaction_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = grid1d(48)
            w0 = rng.uniform(0, 1, 48)
            B1 = constant(rng.uniform(-2, 2, 48))
            B2 = constant(rng.uniform(-2, 2, 48))
            b = constant(rng.uniform(0, 0.5, 48))
            p1 = ParabolicProblem(g, 0.05, B1, b, w0)
            p2 = ParabolicProblem(g, 0.05, B2, b, w0)
            rep = parabolic_stability_experiment(p1, p2, 0.1, Scheme("implicit_euler", 2e-3))
            assert rep.passed


class TestWeakResidual:
    def test_zero_trace_zero_residual(self):
        g = grid1d(32)
        prob = ParabolicProblem(g, 0.1, None, None, np.zeros(g.shape))
        trace = solve_parabolic(prob, 0.1, Scheme("implicit_euler", 5e-3))
        res = weak_residual_parabolic(trace, prob, default_family(0.1, 1))
        assert np.max(np.abs(res)) == 0.0

    def test_exact_solution_small_residual(self):
        # inject the closed-form eigenmode decay as the trace
        g = grid1d(256)
        mu, T = 0.1, 0.2
        times = np.linspace(0, T, 81)
        mode = eigenmode(g)
        values = np.array([math.exp(-mu * math.pi**2 * t) * mode for t in times])
        from predprey.series import Trace
        trace = Trace(g, times, values)
        prob = ParabolicProblem(g, mu, None, None, mode)
        res = weak_residual_parabolic(trace, prob, [SineTestFunction((1,), 1, T)])
        assert abs(res[0]) < 1e-6

    def test_residual_shrinks_under_refinement(self):
        mu, T = 0.1, 0.1
        residuals = []
        for n in (32, 64):
            g = grid1d(n)
            x = g.axis_centers[0]
            prob = ParabolicProblem(
                g, mu, None,
                lambda times, gg=g: np.full((len(times),) + gg.shape, 0.3),
                np.exp(-60 * (x - 0.5) ** 2),
            )
            dt = T / (10 * n // 32)
            trace = solve_parabolic(prob, T, Scheme("crank_nicolson", dt))
            res = weak_residual_parabolic(trace, prob, default_family(T, 1))
            residuals.append(np.max(np.abs(res)))
        assert residuals[1] <= residuals[0] / 2.0


def test_solver_lands_exactly_on_horizon():
    g = grid1d(32)
    prob = ParabolicProblem(g, 0.1, None, None, eigenmode(g))
    trace = solve_parabolic(prob, 0.2, Scheme("implicit_euler", 0.0088))
    assert trace.times[-1] == pytest.approx(0.2, abs=1e-15)
    assert np.all(np.diff(trace.times)[:-1] == pytest.approx(0.0088))
