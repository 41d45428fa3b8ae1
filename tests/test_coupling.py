"""Fixed-point coupling tests: contraction, decoupling, experiments, ledger."""

import logging
import os
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from predprey import expressions as ex
from predprey.coupling import (ESTIMATE_TOL_FRACTION, PREDICTOR_DEGREE, NoContraction,
                               Scenario, WindowCollapse, WindowPlan, _window_start,
                               compute_bounds_report,
                               extrapolate_window, freeze_coefficients,
                               initial_window, lipschitz_in_data_experiment,
                               picard_window, positivity_audit, sample_keyed,
                               solve_coupled, stability_in_controls_experiment,
                               window_settled)
from predprey.grid import DomainSpec, l1_norms
from predprey.parabolic import ParabolicProblem, solve_parabolic
from predprey.scenario_io import load_scenario
from predprey.series import sampled
from predprey.transport import TransportProblem, solve_hyperbolic
from predprey.velocity import make_kernel


def make_scenario(**overrides) -> Scenario:
    defaults = dict(
        domain=DomainSpec(((0.0, 1.0),)),
        n_cells=(64,),
        mu=0.05, ell=0.25, kappa=0.5, attract=1,
        alpha=ex.parse("1 - w", ex.Slot.ALPHA),
        beta=ex.parse("-u", ex.Slot.BETA),
        a=ex.parse("0.1", ex.Slot.SOURCE_A),
        b=ex.parse("0.1", ex.Slot.SOURCE_B),
        u0=ex.parse("0.5*exp(-50*(x-0.3)^2)", ex.Slot.INIT),
        w0=ex.parse("0.5*exp(-50*(x-0.7)^2)", ex.Slot.INIT),
        horizon=0.2, dt=0.005, snapshot_every=4,
        parabolic_scheme="implicit_euler",
        picard_tol=1e-8, picard_max_iter=12,
        k_alpha=1.0, k_beta=1.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "scenarios", "predator_prey.ini")

# weak coupling and small data: the a-priori window covers the whole horizon
MILD_SCENARIO = dict(
    alpha=ex.parse("0.1 - 0.1*w", ex.Slot.ALPHA),
    beta=ex.parse("-0.1*u", ex.Slot.BETA),
    a=ex.parse("0.01", ex.Slot.SOURCE_A),
    b=ex.parse("0.01", ex.Slot.SOURCE_B),
    u0=ex.parse("0.05*exp(-50*(x-0.3)^2)", ex.Slot.INIT),
    w0=ex.parse("0.05*exp(-50*(x-0.7)^2)", ex.Slot.INIT),
    kappa=0.1, k_alpha=0.1, k_beta=0.1,
)


def initial_states(s: Scenario, grid):
    """The scenario's initial u and w, each of shape grid.shape."""
    return (sample_keyed(s.u0, "initial.u0", grid, [0.0])[0],
            sample_keyed(s.w0, "initial.w0", grid, [0.0])[0])


# Window starts put in place of ``_window_start``: the window's initial
# state held constant (picard_window's default), zero, or the prediction.
WINDOW_STARTS = {
    "datum": lambda u_all, w_all, step, take: None,
    "zero": lambda u_all, w_all, step, take: (0.0, 0.0),
    "extrapolated": _window_start,
}


def solve_from(monkeypatch, s: Scenario, start: str):
    """solve_coupled with every window started from ``WINDOW_STARTS[start]``."""
    import predprey.coupling as cp

    monkeypatch.setattr(cp, "_window_start", WINDOW_STARTS[start])
    return cp.solve_coupled(s)


def fixed_window(size):
    """Stand-in for ``initial_window`` that plans a first window of ``size``."""
    def plan(scenario, grid, kernel):
        n_steps = round(scenario.horizon / scenario.dt)
        return WindowPlan(size, size, 0.0, False, np.zeros(n_steps + 1))
    return plan


def fixed_window_solve(s: Scenario, steps: int):
    """The solve with every window ``steps`` long, chained as solve_coupled
    chains them; returns the u and w stacks."""
    grid = s.grid()
    kernel = make_kernel(s.ell, grid)
    total = round(s.horizon / s.dt)
    u_all = np.empty((total + 1,) + grid.shape)
    w_all = np.empty_like(u_all)
    u_all[0], w_all[0] = initial_states(s, grid)
    for step in range(0, total, steps):
        take = min(steps, total - step)
        _, u_win, w_win, _ = picard_window(s, grid, kernel, step * s.dt,
                                           (step + take) * s.dt, u_all[step], w_all[step],
                                           start=_window_start(u_all, w_all, step, take))
        u_all[step + 1:step + take + 1] = u_win[1:]
        w_all[step + 1:step + take + 1] = w_win[1:]
    return u_all, w_all


class Calls(list):
    """The starts picard_window was called with; ``failed`` is the index of
    the call that was made to fail."""

    failed = None


def fail_once_at(monkeypatch, steps: int, first: int = 0) -> Calls:
    """Make the first window of ``steps`` steps from call ``first`` on raise
    NoContraction once; returns the recorded calls."""
    import predprey.coupling as cp

    calls = Calls()

    def window(*args, start=None):
        calls.append(start)
        if (calls.failed is None and len(calls) > first
                and start[0].shape[0] == steps + 1):
            calls.failed = len(calls) - 1
            raise NoContraction("forced")
        return picard_window(*args, start=start)

    monkeypatch.setattr(cp, "picard_window", window)
    return calls


def summary_lines(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]


def summary_line(trace, halvings: int) -> str:
    steps = [wl.steps for wl in trace.window_logs]
    iterations = [wl.iterations for wl in trace.window_logs]
    return (f"solve: {len(steps)} windows of {min(steps)} to {max(steps)} steps, "
            f"{sum(iterations)} Picard iterations, {halvings} halvings, at most "
            f"{max(iterations)} iterations per window")


ZERO_SCENARIO = dict(
    alpha=ex.parse("0", ex.Slot.ALPHA),
    beta=ex.parse("0", ex.Slot.BETA),
    a=ex.parse("0", ex.Slot.SOURCE_A),
    b=ex.parse("0", ex.Slot.SOURCE_B),
    u0=ex.parse("0", ex.Slot.INIT),
    w0=ex.parse("0", ex.Slot.INIT),
)


class TestFreeze:
    def test_zero_density_zero_velocity(self):
        s = make_scenario()
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        times = np.array([0.0, 0.01, 0.02])
        z = np.zeros((3,) + grid.shape)
        c, A = freeze_coefficients(times, z, s, kernel)
        B = sample_keyed(s.beta, "coefficients.beta", grid, times, u=z, w=z)
        c_ser = sampled(times, c)
        A_ser, B_ser = sampled(times, A), sampled(times, B)
        assert np.all(c_ser(np.array([0.005]))[0] == 0.0)
        assert np.allclose(A_ser(np.array([0.0]))[0], 1.0)   # alpha(0) = 1 - 0
        assert np.all(B_ser(np.array([0.0]))[0] == 0.0)

    def test_reaction_freezing_matches_expressions(self):
        s = make_scenario(beta=ex.parse("-u", ex.Slot.BETA))
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        times = np.array([0.0, 0.01])
        u = np.full((2,) + grid.shape, 0.25)
        w = np.full((2,) + grid.shape, 0.5)
        _, A = freeze_coefficients(times, w, s, kernel)
        B = sample_keyed(s.beta, "coefficients.beta", grid, times, u=u, w=w)
        A_ser, B_ser = sampled(times, A), sampled(times, B)
        assert np.allclose(A_ser(np.array([0.0]))[0], 0.5)
        assert np.allclose(B_ser(np.array([0.0]))[0], -0.25)


def banach_edge(previous: float, bound: float) -> float:
    """The last difference d_k after d_{k-1} = ``previous`` at which the
    Banach estimate r / (1 - r) * d_k = d_k^2 / (previous - d_k) is ``bound``."""
    return (-bound + np.sqrt(bound * bound + 4.0 * bound * previous)) / 2.0


class TestWindowSettled:
    TOL = 1e-8

    def test_first_iteration_stops_on_tolerance_only(self):
        assert window_settled((5e-9,), self.TOL) == "tol"
        assert window_settled((1e-8,), self.TOL) is None
        assert window_settled((2e-8,), self.TOL) is None

    def test_tolerance_rule_comes_first(self):
        assert window_settled((1e-3, 5e-9), self.TOL) == "tol"
        # a ratio of 0.9, but under tolerance
        assert window_settled((1e-8, 9e-9), self.TOL) == "tol"

    @pytest.mark.parametrize("diffs", [
        (4e-8, 2e-8),     # ratio exactly 1/2
        (3e-8, 2.9e-8),   # ratio near 1: the estimate is large
        (1e-8, 3e-8),     # growing: r / (1 - r) < 0 would pass a bare estimate
        (2e-8, 2e-8),     # ratio 1
    ])
    def test_ratio_of_a_half_or_more_keeps_the_tolerance_rule(self, diffs):
        assert window_settled(diffs, self.TOL) is None

    def test_estimate_just_below_and_just_above_the_bound(self):
        bound = ESTIMATE_TOL_FRACTION * self.TOL
        edge = banach_edge(1e-2, bound)
        assert edge > self.TOL
        assert window_settled((1e-2, edge * (1 - 1e-9)), self.TOL) == "estimate"
        assert window_settled((1e-2, edge * (1 + 1e-9)), self.TOL) is None
        # only the last two differences count
        assert window_settled((5.0, 1.0, 1e-2, edge * (1 - 1e-9)), self.TOL) == "estimate"

    def test_zero_previous_difference(self):
        assert window_settled((0.0, 5e-8), self.TOL) is None
        assert window_settled((0.0, 0.0), self.TOL) == "tol"


class TestPicardWindow:
    def test_zero_scenario_single_iteration(self):
        s = make_scenario(**ZERO_SCENARIO, picard_tol=1e-8, picard_max_iter=5)
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        u0, w0 = initial_states(s, grid)
        _, u_win, w_win, wlog = picard_window(s, grid, kernel, 0.0, 0.05, u0, w0)
        assert wlog.iterations == 1
        assert all(np.all(v == 0.0) for v in u_win)

    def test_decoupled_constant_coefficients_two_iterations(self):
        s = make_scenario(alpha=ex.parse("0.2", ex.Slot.ALPHA),
                          beta=ex.parse("-0.5", ex.Slot.BETA),
                          kappa=0.0, picard_tol=1e-8, picard_max_iter=5)
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        u0, w0 = initial_states(s, grid)
        _, _, _, wlog = picard_window(s, grid, kernel, 0.0, 0.1, u0, w0)
        assert wlog.iterations == 2
        assert wlog.diffs[1] < 1e-12

    def test_no_contraction_raised_on_budget(self):
        s = replace(make_scenario(), picard_tol=1e-30, picard_max_iter=2)
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        u0, w0 = initial_states(s, grid)
        with pytest.raises(NoContraction):
            picard_window(s, grid, kernel, 0.0, 0.2, u0, w0)


class TestSolveCoupled:
    def test_zero_scenario(self):
        s = make_scenario(**ZERO_SCENARIO)
        trace = solve_coupled(s)
        assert np.all(trace.u_l1 == 0.0)
        assert np.all(trace.w_l1 == 0.0)

    def test_windows_cover_horizon_contiguously(self):
        s = make_scenario()
        trace = solve_coupled(s)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(s.horizon)
        joints = [wl.t1 for wl in trace.window_logs[:-1]]
        starts = [wl.t0 for wl in trace.window_logs[1:]]
        assert np.allclose(joints, starts)
        assert all(wl.converged for wl in trace.window_logs)

    def test_contraction_profile(self):
        s = make_scenario()
        trace = solve_coupled(s)
        for wl in trace.window_logs:
            assert wl.iterations <= s.picard_max_iter
            assert window_settled(wl.diffs, s.picard_tol)
            tail = wl.diffs[1:]
            assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1))
            # accepted windows actually contract hard, not marginally
            assert all(tail[i + 1] / tail[i] < 0.8 for i in range(len(tail) - 1))

    def test_decoupled_matches_standalone_solves(self):
        # kappa = 0 and u-independent beta: the diffusion runs on its own and
        # the drift reacts to it; reproduce both with single-equation solves
        s = make_scenario(alpha=ex.parse("1 - w", ex.Slot.ALPHA),
                          beta=ex.parse("-0.5", ex.Slot.BETA),
                          kappa=0.0, horizon=0.2)
        grid = s.grid()
        kernel = make_kernel(s.ell, grid)
        trace = solve_coupled(s)
        u0, w0 = initial_states(s, grid)
        b_series = partial(ex.sample_stack, s.b, grid)
        B_series = partial(ex.sample_stack, s.beta, grid)
        w_ref = solve_parabolic(ParabolicProblem(grid, s.mu, B_series, b_series, w0),
                                s.horizon, s.scheme())
        c, A = freeze_coefficients(w_ref.times, w_ref.values, s, kernel)
        c_ser = sampled(w_ref.times, c)
        A_ser = sampled(w_ref.times, A)
        a_series = partial(ex.sample_stack, s.a, grid)
        u_ref = solve_hyperbolic(TransportProblem(grid, c_ser, A_ser, a_series, u0),
                                 s.horizon, s.dt)
        for i, t in enumerate(trace.times):
            j = int(round(t / s.dt))
            dw = l1_norms(trace.w.values[i] - w_ref.values[j], grid)
            du = l1_norms(trace.u.values[i] - u_ref.values[j], grid)
            assert dw < 1e-8
            assert du < 1e-8

    def test_uniqueness_across_initial_iterates(self, monkeypatch):
        for scheme in ("implicit_euler", "crank_nicolson"):
            s = make_scenario(horizon=0.1, parabolic_scheme=scheme)
            traces = [solve_from(monkeypatch, s, start)
                      for start in ("datum", "zero", "extrapolated")]
            for t1, t2 in zip(traces, traces[1:] + traces[:1]):
                dist = (np.max(l1_norms(t1.u.values - t2.u.values, t1.grid))
                        + np.max(l1_norms(t1.w.values - t2.w.values, t1.grid)))
                assert dist < 2 * s.picard_tol, scheme

    def test_window_collapse_on_hopeless_tolerance(self):
        s = make_scenario(picard_tol=1e-300, picard_max_iter=2, horizon=0.1)
        with pytest.raises(WindowCollapse):
            solve_coupled(s)

    def test_shipped_scenario_iterations(self, monkeypatch):
        # the quartic prediction and the w-first sweep settle fast enough for
        # the windows to grow: 7 windows and 17 iterations, where 25 floored
        # four-step windows take 51; the datum start needs 3 iterations in
        # every window, so its windows stay at the floor: 25 windows, 75
        # iterations
        s = load_scenario(SHIPPED)
        trace = solve_coupled(s)
        assert len(trace.window_logs) == 7
        assert all(wl.converged for wl in trace.window_logs)
        assert sum(wl.iterations for wl in trace.window_logs) <= 17
        datum = solve_from(monkeypatch, s, "datum").window_logs
        assert len(datum) == 25
        assert sum(wl.iterations for wl in datum) == 75

    def test_shipped_scenario_long_horizon_iterations(self):
        # to T = 4: 21 windows of 4 to 64 steps and 58 iterations, where
        # 200 floored four-step windows took 343
        s = replace(load_scenario(SHIPPED), horizon=4.0)
        trace = solve_coupled(s)
        assert len(trace.window_logs) == 21
        assert all(wl.converged for wl in trace.window_logs)
        assert sum(wl.iterations for wl in trace.window_logs) <= 58
        steps = [wl.steps for wl in trace.window_logs]
        assert (min(steps), max(steps)) == (4, 64)
        # 5 windows stop on the Banach estimate, the rest on the tolerance
        assert [wl.stop for wl in trace.window_logs].count("estimate") == 5
        assert all(window_settled(wl.diffs, s.picard_tol) == wl.stop
                   and not any(window_settled(wl.diffs[:k], s.picard_tol)
                               for k in range(1, wl.iterations))
                   for wl in trace.window_logs)

    @pytest.mark.parametrize("name,horizon", [
        ("predator_prey", None), ("advection", None), ("decoupled", None),
        ("predator_prey", 4.0),
    ], ids=["predator_prey", "advection", "decoupled", "predator_prey-T4"])
    def test_within_tolerance_of_a_tight_solve(self, name, horizon):
        # the error each window stops with carries into the next ones; the
        # stitched trace stays within picard_tol of the fixed point (a solve
        # with tolerance 1e-14) at every time.  Measured: 1.0e-12, 0, 0 and
        # 1.75e-9
        s = load_scenario(os.path.join(os.path.dirname(SHIPPED), name + ".ini"))
        if horizon is not None:
            s = replace(s, horizon=horizon)
        trace = solve_coupled(s)
        tight = solve_coupled(replace(s, picard_tol=1e-14))
        grid = trace.grid
        distance = (l1_norms(trace.u.values - tight.u.values, grid)
                    + l1_norms(trace.w.values - tight.w.values, grid))
        assert np.max(distance) <= s.picard_tol

    def test_shipped_long_horizon_differences_fall_at_every_iteration(self):
        # the w-first sweep leaves no species a step behind the other, so on
        # every window, grown ones included, each Picard difference is a
        # small fraction of the one before (largest ratio 0.0066)
        s = replace(load_scenario(SHIPPED), horizon=4.0)
        ratios = [wl.diffs[i + 1] / wl.diffs[i] for wl in solve_coupled(s).window_logs
                  for i in range(wl.iterations - 1)]
        assert ratios
        assert max(ratios) < 0.01

    def test_shipped_long_horizon_freezes_only_the_rows_transport_reads(self, monkeypatch):
        # transport reads c and alpha at each step's left end, so each
        # iteration freezes one row per step: 2372 rows to T = 4, where
        # freezing every row of each iterate took 2430
        import predprey.coupling as cp
        rows = []

        def counted(times, w, scenario, kernel):
            rows.append(len(times))
            return freeze_coefficients(times, w, scenario, kernel)

        monkeypatch.setattr(cp, "freeze_coefficients", counted)
        logs = solve_coupled(replace(load_scenario(SHIPPED), horizon=4.0)).window_logs
        assert sum(rows) == sum(wl.steps * wl.iterations for wl in logs) == 2372

    @pytest.mark.parametrize("overrides", [
        dict(horizon=4.0),
        dict(horizon=2.0, parabolic_scheme="crank_nicolson"),
    ], ids=["shipped-T4", "crank-nicolson-T2"])
    def test_matches_fixed_four_step_windows(self, overrides):
        # the old schedule as oracle: floored four-step windows chained from
        # the same predicted starts; both are fixed points to picard_tol
        s = replace(load_scenario(SHIPPED), **overrides)
        u_ref, w_ref = fixed_window_solve(s, 4)
        trace = solve_coupled(s)
        assert len(trace.window_logs) < round(s.horizon / s.dt) // 4
        assert np.max(np.abs(trace.u.values - u_ref)) <= 1e3 * s.picard_tol
        assert np.max(np.abs(trace.w.values - w_ref)) <= 1e3 * s.picard_tol

    def test_run_summary_line(self, caplog, monkeypatch):
        import predprey.coupling as cp

        # an oversized first window fails and is halved twice: at 40 and 20
        # steps two iterations leave a Banach estimate (8.1e-12, 7.5e-13)
        # above ESTIMATE_TOL_FRACTION * tol, at 10 steps one of 7.1e-14
        s = make_scenario(**MILD_SCENARIO, picard_max_iter=2, picard_tol=3e-11)
        monkeypatch.setattr(cp, "initial_window", fixed_window(0.2))
        with caplog.at_level(logging.INFO, logger="predprey.coupling"):
            trace = solve_coupled(s)
        assert summary_lines(caplog) == [summary_line(trace, 2)]

    def test_halved_window_starts_from_prefix_of_prediction(self, monkeypatch):
        import predprey.coupling as cp

        # the 8-step first window takes 4 iterations, so the next one is
        # halved; the forced failure waits for the next window of 8 steps
        s = make_scenario(horizon=0.2)
        calls = fail_once_at(monkeypatch, 8, first=1)
        monkeypatch.setattr(cp, "initial_window", fixed_window(0.04))
        trace = cp.solve_coupled(s)
        failed = calls.failed
        steps = [wl.steps for wl in trace.window_logs]
        assert steps[0] == 8 and steps[failed] == 4
        # the first window's one-row history predicts the datum held constant
        for first, datum in zip(calls[0], initial_states(s, s.grid())):
            assert first.shape[0] == 9
            assert all(row.tobytes() == datum.tobytes() for row in first)
        for full, halved in zip(calls[failed], calls[failed + 1]):
            assert full.shape[0] == 9 and halved.shape[0] == 5
            assert np.array_equal(halved, full[:5])

    def test_failed_size_caps_later_windows(self, caplog, monkeypatch):
        import predprey.coupling as cp

        # weak coupling: windows settle in one or two iterations and would
        # double, but the 8-step size failed once, so none exceeds 4 steps
        s = make_scenario(**MILD_SCENARIO)
        fail_once_at(monkeypatch, 8)
        monkeypatch.setattr(cp, "initial_window", fixed_window(0.04))
        with caplog.at_level(logging.INFO, logger="predprey.coupling"):
            trace = cp.solve_coupled(s)
        steps = [wl.steps for wl in trace.window_logs]
        assert max(steps) == 4 and sum(steps) == round(s.horizon / s.dt)
        assert min(wl.iterations for wl in trace.window_logs) <= cp.GROW_AT_MOST
        assert summary_lines(caplog) == [summary_line(trace, 1)]


class TestPredictor:
    @pytest.mark.parametrize("rows", range(1, PREDICTOR_DEGREE + 2))
    def test_exact_on_polynomial_data(self, rows):
        # states polynomial in time of degree rows - 1, one row per step j;
        # dyadic coefficients keep every intermediate exact, so only the
        # formula is under test
        rng = np.random.default_rng(rows)
        coefficients = rng.integers(0, 64, (rows, 16)) / 64.0

        def state(j):
            return sum(c * float(j) ** k for k, c in enumerate(coefficients))

        history = np.stack([state(j) for j in range(1 - rows, 1)])
        predicted = extrapolate_window(history, 8)
        expected = np.stack([state(j) for j in range(9)])
        assert predicted.shape == (9, 16)
        assert np.allclose(predicted, expected, rtol=1e-14, atol=1e-14)
        assert np.array_equal(predicted[0], history[-1])

    def test_one_row_is_the_datum_bit_for_bit(self):
        datum = np.array([[0.5, -0.0, 0.0], [-1.5, 1e-300, 2.0]])
        predicted = extrapolate_window(datum[None], 6)
        assert predicted.shape == (7, 2, 3)
        assert all(row.tobytes() == datum.tobytes() for row in predicted)

    def test_clip_keeps_the_sign_of_the_datum(self):
        # a decaying nonnegative cell whose extrapolation crosses zero, a
        # negative cell that keeps falling, and a growing cell left alone;
        # each cell is a quadratic in time, so the quartic extrapolates it
        def state(t):
            return np.array([0.3 - 0.35 * t - 0.05 * t * t,
                             -0.3 - 0.1 * t,
                             0.4 + 0.2 * t + 0.01 * t * t])

        history = np.stack([state(t) for t in range(-4, 1)])
        raw = np.stack([state(t) for t in range(5)])
        predicted = extrapolate_window(history, 4)
        assert np.all(raw[1:, :2] < 0.0) and np.all(raw[:, 2] > 0.0)
        assert predicted[0, 0] == 0.3 and np.all(predicted[1:, 0] == 0.0)
        # below a negative datum the floor is the datum itself
        assert np.all(predicted[:, 1] == -0.3)
        assert np.allclose(predicted[:, 2], raw[:, 2], rtol=1e-14, atol=1e-14)

    def test_prefix_does_not_depend_on_window_length(self):
        rng = np.random.default_rng(5)
        history = rng.uniform(0.0, 1.0, (5, 4, 5))
        assert np.array_equal(extrapolate_window(history, 3), extrapolate_window(history, 9)[:4])


class TestInitialWindow:
    def test_floor_logs_failed_contraction_condition(self, caplog):
        s = load_scenario(SHIPPED)
        grid = s.grid()
        with caplog.at_level(logging.WARNING, logger="predprey.coupling"):
            window = initial_window(s, grid, make_kernel(s.ell, grid))
        assert window.size == pytest.approx(4 * s.dt)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "floored at 4 steps" in warnings[0] and "c_uw * window = 0.708" in warnings[0]

    def test_no_warning_when_condition_holds(self, caplog):
        s = make_scenario(**MILD_SCENARIO)
        grid = s.grid()
        with caplog.at_level(logging.WARNING, logger="predprey.coupling"):
            window = initial_window(s, grid, make_kernel(s.ell, grid))
        assert window.size > 4 * s.dt
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    @pytest.mark.parametrize("scenario,floored", [
        (lambda: load_scenario(SHIPPED), True),
        (lambda: make_scenario(**MILD_SCENARIO), False),
    ], ids=["shipped", "mild"])
    def test_ledger_records_the_window_floor(self, scenario, floored):
        s = scenario()
        trace = solve_coupled(s)
        window = compute_bounds_report(trace, s).to_dict()["window"]
        assert window["floored"] is floored
        assert window["condition_held"] is (not floored)
        assert (window["c_uw_times_window"] >= 0.5) is floored
        largest = max(wl.steps for wl in trace.window_logs)
        assert window["largest_s"] == pytest.approx(largest * s.dt)
        assert window["c_uw_times_largest"] == trace.window_plan.c_uw_times_steps[largest]
        assert window["c_uw_times_largest"] >= window["c_uw_times_window"]
        if floored:
            # the a-priori window is shorter than the 4 dt floor, and the
            # grown windows reach 32 steps, where c_uw * window is 11.86
            assert window["a_priori_s"] < 4 * s.dt
            assert window["c_uw_times_window"] == pytest.approx(0.708, abs=5e-4)
            assert largest == 32
            assert window["c_uw_times_largest"] == pytest.approx(11.864, abs=5e-4)
            assert window["condition_held_all"] is False
        else:
            # the whole horizon is one window inside the a-priori condition
            assert window["a_priori_s"] > 4 * s.dt
            assert window["largest_s"] == pytest.approx(window["a_priori_s"])
            assert window["condition_held_all"] is True


class TestBoundsReport:
    def test_zero_scenario_all_pass(self):
        s = make_scenario(**ZERO_SCENARIO)
        trace = solve_coupled(s)
        report = compute_bounds_report(trace, s)
        assert report.all_passed()
        assert report.positivity_min_u == 0.0

    def test_gronwall_near_saturation(self):
        # constant beta at its declared bound and constant source: the L1
        # norm tracks the data constant closely for small times
        s = make_scenario(
            alpha=ex.parse("0", ex.Slot.ALPHA),
            beta=ex.parse("0.5", ex.Slot.BETA),
            a=ex.parse("0", ex.Slot.SOURCE_A),
            b=ex.parse("0.2", ex.Slot.SOURCE_B),
            u0=ex.parse("0.3*exp(-30*(x-0.5)^2)", ex.Slot.INIT),
            w0=ex.parse("0.3*exp(-30*(x-0.5)^2)", ex.Slot.INIT),
            mu=0.01, kappa=0.0, k_beta=0.5, horizon=0.1,
        )
        trace = solve_coupled(s)
        report = compute_bounds_report(trace, s)
        c_w1 = np.array(report.constants["c_w1"])
        assert np.all(trace.w_l1 <= c_w1 + 1e-12)
        assert trace.w_l1[-1] >= 0.95 * c_w1[-1]

    def test_full_scenario_ledger(self):
        s = make_scenario()
        trace = solve_coupled(s)
        report = compute_bounds_report(trace, s)
        assert report.all_passed()
        assert report.k_v_empirical > 0
        assert not report.lipschitz_flags["alpha_exceeds_declared"]
        assert not report.lipschitz_flags["beta_exceeds_declared"]
        payload = report.to_dict()
        assert payload["schema_version"] == 3
        assert len(payload["checks"]) == len(report.checks)

    def test_understated_constants_get_flagged(self):
        s = make_scenario(k_alpha=0.25)  # alpha = 1 - w has slope 1
        trace = solve_coupled(s)
        report = compute_bounds_report(trace, s)
        assert report.lipschitz_flags["alpha_exceeds_declared"]


class TestExperiments:
    def test_zero_perturbation(self):
        s = make_scenario(horizon=0.1)
        rep = lipschitz_in_data_experiment(s, dw0=ex.Num(0.0))
        assert np.max(rep.lhs) < 1e-10

    def test_initial_data_quotient_stability(self):
        s = make_scenario(horizon=0.15)
        rep1 = lipschitz_in_data_experiment(s, dw0=ex.Num(1e-2))
        rep2 = lipschitz_in_data_experiment(s, dw0=ex.Num(5e-3))
        assert rep1.final_quotient > 0
        ratio = rep1.final_quotient / rep2.final_quotient
        assert 0.7 <= ratio <= 1.4

    def test_decoupled_linear_growth_quotient(self):
        # no coupling and zero velocity: a drift-component perturbation grows
        # exactly exponentially (no mass crosses the boundary when c = 0)
        s = make_scenario(alpha=ex.parse("0.3", ex.Slot.ALPHA),
                          beta=ex.parse("-0.5", ex.Slot.BETA),
                          kappa=0.0, k_beta=0.5, horizon=0.1)
        rep = lipschitz_in_data_experiment(s, du0=ex.Num(1e-2))
        assert rep.final_quotient == pytest.approx(np.exp(0.3 * 0.1), rel=1e-3)

    def test_controls_zero_change(self):
        s = make_scenario(horizon=0.1)
        rep = stability_in_controls_experiment(s, b_tilde=s.b)
        assert np.max(rep.lhs) < 1e-12

    def test_controls_quotient_stability(self):
        s = make_scenario(horizon=0.15)
        shift1 = ex.BinOp("+", s.b, ex.Num(1e-2))
        shift2 = ex.BinOp("+", s.b, ex.Num(5e-3))
        rep1 = stability_in_controls_experiment(s, b_tilde=shift1)
        rep2 = stability_in_controls_experiment(s, b_tilde=shift2)
        ratio = rep1.final_quotient / rep2.final_quotient
        assert 0.7 <= ratio <= 1.4


class TestPositivity:
    def test_nonnegative_scenario(self):
        s = make_scenario()
        audit = positivity_audit(solve_coupled(s))
        assert audit.passed()

    def test_negative_datum_is_reported_not_raised(self):
        s = make_scenario(u0=ex.parse("-0.2*exp(-50*(x-0.4)^2)", ex.Slot.INIT),
                          horizon=0.05)
        audit = positivity_audit(solve_coupled(s))
        assert audit.min_u < -0.1
        assert not audit.passed()


def test_alpha_variation_quotient_within_bound():
    s = make_scenario()
    trace = solve_coupled(s)
    report = compute_bounds_report(trace, s)
    # alpha = 1 - w has TV(alpha(w)) = TV(w) <= K_alpha (1 + sup|w| + TV(w))
    assert report.alpha_tv_quotient <= 1.0
    assert not report.lipschitz_flags["alpha_tv_exceeds_bound"]


def test_dt_must_divide_horizon():
    with pytest.raises(ValueError):
        make_scenario(horizon=0.5, dt=0.003)


def test_2d_coupled_scenario():
    s = make_scenario(
        domain=DomainSpec(((0.0, 1.0), (0.0, 1.0))),
        n_cells=(24, 24),
        ell=0.2, kappa=0.4,
        a=ex.parse("0.05", ex.Slot.SOURCE_A),
        b=ex.parse("0.05", ex.Slot.SOURCE_B),
        u0=ex.parse("0.4*exp(-30*((x-0.35)^2+(y-0.35)^2))", ex.Slot.INIT),
        w0=ex.parse("0.4*exp(-30*((x-0.65)^2+(y-0.65)^2))", ex.Slot.INIT),
        horizon=0.1,
    )
    trace = solve_coupled(s)
    assert all(wl.converged for wl in trace.window_logs)
    assert positivity_audit(trace).passed()
    report = compute_bounds_report(trace, s)
    assert report.all_passed()


def test_window_halving_recovers_from_oversized_window(monkeypatch):
    import predprey.coupling as cp

    s = make_scenario(horizon=0.2, picard_max_iter=3)
    monkeypatch.setattr(cp, "initial_window", fixed_window(0.2))
    trace = cp.solve_coupled(s)
    assert trace.times[-1] == pytest.approx(0.2)
    assert all(wl.converged for wl in trace.window_logs)
    # the accepted windows are genuinely shorter than the oversized request
    assert max(wl.t1 - wl.t0 for wl in trace.window_logs) < 0.2


def test_lipschitz_sampling_survives_poles_outside_range():
    # alpha finite on the visited states but singular just below them
    s = make_scenario(alpha=ex.parse("w / (w + 0.05)", ex.Slot.ALPHA),
                      k_alpha=25.0, horizon=0.05)
    trace = solve_coupled(s)
    report = compute_bounds_report(trace, s)
    assert np.isfinite(report.k_alpha_empirical)
