"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
measured values.  Every criterion asserts both its tolerance and its runtime
budget.
"""

import os
import time
from functools import partial

import numpy as np
import pytest

from predprey import expressions as ex
from predprey.coupling import (compute_bounds_report, lipschitz_in_data_experiment,
                               solve_coupled, stability_in_controls_experiment,
                               window_settled)
from predprey.grid import DomainSpec, Field, build_grid, full, norm_l1, norm_linf
from predprey.parabolic import (ParabolicProblem, Scheme, check_parabolic_bounds,
                                duhamel_reference, parabolic_stability_experiment,
                                solve_parabolic, weak_residual_parabolic)
from predprey.scenario_io import load_scenario
from predprey.series import constant, sampled
from predprey.testfunctions import default_family
from predprey.transport import (TransportProblem, characteristics_solution_field,
                                check_hyperbolic_bounds, solve_hyperbolic,
                                trace_characteristic, weak_residual_hyperbolic)
from predprey.velocity import make_kernel, modified_convolution, velocity

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def report(number: int, label: str, detail: str):
    print(f"ACCEPTANCE #{number:02d} PASS  {label}: {detail}")


@pytest.fixture(scope="module")
def predator_prey_run():
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "predator_prey.ini"))
    start = time.monotonic()
    trace = solve_coupled(scenario)
    bounds = compute_bounds_report(trace, scenario)
    elapsed = time.monotonic() - start
    return scenario, trace, bounds, elapsed


def test_01_modified_convolution_normalization():
    start = time.monotonic()
    worst = 0.0
    for ell in (0.1, 0.25):
        g1 = build_grid(DomainSpec(((0.0, 1.0),)), 256)
        out1 = modified_convolution(full(g1, 1.0), make_kernel(ell, g1))
        worst = max(worst, float(np.max(np.abs(out1.values - 1.0))))
        g2 = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (64, 64))
        out2 = modified_convolution(full(g2, 1.0), make_kernel(ell, g2))
        worst = max(worst, float(np.max(np.abs(out2.values - 1.0))))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(1, "convolution normalization", f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_02_parabolic_oracle_accuracy():
    start = time.monotonic()
    mu, T = 0.1, 0.1
    errors = []
    for n in (64, 128, 256):
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        w0 = Field(g, np.sin(np.pi * g.axis_centers[0]))
        prob = ParabolicProblem(g, mu, None, None, w0)
        trace = solve_parabolic(prob, T, Scheme("crank_nicolson", 1e-3))
        ref = duhamel_reference(prob, T, n_terms=200)
        errors.append(norm_linf(Field(g, trace.final().values - ref.values)))
    order = -np.polyfit(np.log([64, 128, 256]), np.log(errors), 1)[0]
    elapsed = time.monotonic() - start
    assert errors[-1] <= 5e-4
    assert order >= 1.8
    assert elapsed < 30.0
    report(2, "parabolic oracle accuracy",
           f"L_inf error {errors[-1]:.2e} at n=256, order {order:.2f}, {elapsed:.2f}s")


def test_03_parabolic_bounds_and_positivity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_slack = np.inf
    worst_min = 0.0
    for _ in range(20):
        n = int(rng.choice([48, 64, 96]))
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        mu = rng.uniform(0.02, 0.3)
        w0 = Field(g, rng.uniform(0, 1, n))
        B = Field(g, rng.uniform(-3, 3, n))
        b = Field(g, rng.uniform(0, 1, n))
        prob = ParabolicProblem(g, mu, constant(B.values), constant(b.values), w0)
        T = rng.uniform(0.05, 0.2)
        dt = min(0.45 / (norm_linf(B) + 1e-9), T / 10)
        trace = solve_parabolic(prob, T, Scheme("implicit_euler", dt))
        for check in check_parabolic_bounds(trace, prob):
            assert check.passed
            with np.errstate(invalid="ignore", divide="ignore"):
                rel = np.where(check.rhs > 0, (check.rhs - check.lhs) / check.rhs, 0.0)
            worst_slack = min(worst_slack, float(np.min(rel)))
        trace_min = min(float(np.min(v)) for v in trace.values)
        worst_min = min(worst_min, trace_min)
        assert trace_min >= -1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, "parabolic bounds + positivity",
           f"20 scenarios, worst relative slack {worst_slack:.2e}, "
           f"worst minimum {worst_min:.1e}, {elapsed:.2f}s")


def test_04_parabolic_stability_pairs():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = 64
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        mu = rng.uniform(0.02, 0.2)
        w01 = Field(g, rng.uniform(0, 1, n))
        w02 = Field(g, rng.uniform(0, 1, n))
        B1 = constant(rng.uniform(-2, 2, n))
        B2 = constant(rng.uniform(-2, 2, n))
        b1 = constant(rng.uniform(0, 1, n))
        b2 = constant(rng.uniform(0, 1, n))
        p1 = ParabolicProblem(g, mu, B1, b1, w01)
        p2 = ParabolicProblem(g, mu, B2, b2, w02)
        T = rng.uniform(0.05, 0.15)
        rep = parabolic_stability_experiment(p1, p2, T, Scheme("implicit_euler", T / 40))
        assert rep.passed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, "parabolic stability", f"10 random pairs bounded, {elapsed:.2f}s")


def test_05_characteristics_oracle_exactness():
    start = time.monotonic()
    g = build_grid(DomainSpec(((0.0, 1.0),)), 128)
    x = g.axis_centers[0]
    c = constant(np.ones((1, 128)))
    u0_vals = np.where((x > 0.0) & (x < 0.2),
                       np.sin(np.pi * np.clip(x / 0.2, 0, 1)) ** 2, 0.0)
    prob = TransportProblem(g, c, None, None, Field(g, u0_vals))
    t = 0.5
    out = characteristics_solution_field(prob, t, dt_ode=0.005)
    shifted = np.zeros_like(u0_vals)
    shifted[64:] = u0_vals[:64]
    point_err = float(np.max(np.abs(out.values - shifted)))
    assert point_err < 1e-8
    # inflow wake (boundary branch) is exactly zero
    assert float(np.max(np.abs(out.values[x < t - 0.01]))) == 0.0
    # entry times: backward path from (t, x) exits at x=0 at time t - x
    entry_err = 0.0
    for xq in (0.1, 0.25, 0.4):
        path = trace_characteristic(prob, t, [xq], dt_ode=0.005)
        assert path.exited
        entry_err = max(entry_err, abs(path.exit_time - (t - xq)))
    assert entry_err < 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(5, "characteristics oracle exactness",
           f"pointwise {point_err:.1e}, entry time {entry_err:.1e}, {elapsed:.2f}s")


def test_06_fv_vs_oracle_convergence():
    start = time.monotonic()
    errors = []
    for n in (64, 128, 256):
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        x = g.axis_centers[0]
        w = Field(g, 0.5 * np.exp(-50 * (x - 0.7) ** 2))
        kern = make_kernel(0.25, g)
        c = velocity(w, kern, kappa=0.5).components
        u0 = Field(g, 0.5 * np.exp(-50 * (x - 0.3) ** 2))
        prob = TransportProblem(g, constant(c), None, None, u0)
        cmax = float(np.max(np.abs(c)))
        T = 0.4
        dt = 0.45 * min(g.dx) / max(cmax, 1e-12)
        dt = T / max(1, int(np.ceil(T / dt)))
        fv = solve_hyperbolic(prob, T, dt)
        oracle = characteristics_solution_field(prob, T, dt_ode=dt / 2)
        errors.append(norm_l1(Field(g, fv.final().values - oracle.values)))
        bounds = check_hyperbolic_bounds(fv, prob)
        assert all(check.passed for check in bounds)
        assert min(float(np.min(v)) for v in fv.values) >= -1e-12
    order = -np.polyfit(np.log([64, 128, 256]), np.log(errors), 1)[0]
    elapsed = time.monotonic() - start
    assert order >= 0.8
    assert elapsed < 60.0
    report(6, "fv vs oracle convergence",
           f"L1 errors {[f'{e:.1e}' for e in errors]}, order {order:.2f}, {elapsed:.2f}s")


def test_07_picard_contraction(predator_prey_run):
    scenario, trace, _, elapsed = predator_prey_run
    assert trace.times[-1] == pytest.approx(scenario.horizon)
    for wl in trace.window_logs:
        assert wl.converged
        assert wl.iterations <= 12
        assert window_settled(wl.diffs, 1e-8)
        tail = wl.diffs[1:]
        assert all(tail[i + 1] < tail[i] for i in range(len(tail) - 1)), \
            f"window [{wl.t0}, {wl.t1}] not strictly decreasing after iterate 2"
    assert elapsed < 120.0
    worst_iters = max(wl.iterations for wl in trace.window_logs)
    report(7, "fixed-point contraction",
           f"{len(trace.window_logs)} windows, max {worst_iters} iterations, "
           f"solve+ledger {elapsed:.2f}s")


def test_08_coupled_bounds_ledger(predator_prey_run):
    _, _, bounds, _ = predator_prey_run
    headline = ("w_l1_apriori", "w_linf_apriori", "u_l1_apriori", "u_linf_apriori",
                "w_tv_iteration", "u_tv_iteration")
    by_name = {c.name: c for c in bounds.checks}
    for name in headline:
        assert by_name[name].passed, f"{name} failed"
    assert bounds.k_v_empirical > 0
    report(8, "coupled a-priori ledger",
           f"six inequalities pass, empirical K_v {bounds.k_v_empirical:.1f}")


def test_09_lipschitz_and_control_experiments():
    start = time.monotonic()
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "predator_prey.ini"))
    zero = lipschitz_in_data_experiment(scenario, dw0=ex.Num(0.0))
    assert float(np.max(zero.lhs)) < 1e-10
    data_reports = {d: lipschitz_in_data_experiment(scenario, dw0=ex.Num(d))
                    for d in (1e-2, 5e-3)}
    data_ratio = data_reports[1e-2].final_quotient / data_reports[5e-3].final_quotient
    assert 0.7 <= data_ratio <= 1.4
    ctl_reports = {d: stability_in_controls_experiment(
        scenario, b_tilde=ex.BinOp("+", scenario.b, ex.Num(d))) for d in (1e-2, 5e-3)}
    ctl_ratio = ctl_reports[1e-2].final_quotient / ctl_reports[5e-3].final_quotient
    assert 0.7 <= ctl_ratio <= 1.4
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    report(9, "stability experiments",
           f"data ratio {data_ratio:.3f}, controls ratio {ctl_ratio:.3f}, {elapsed:.2f}s")


def test_10_decoupling_equivalence():
    start = time.monotonic()
    from predprey.coupling import freeze_coefficients

    scenario = load_scenario(os.path.join(SCENARIO_DIR, "decoupled.ini"))
    grid = scenario.grid()
    kernel = make_kernel(scenario.ell, grid)
    trace = solve_coupled(scenario)
    u0, w0 = scenario.initial_fields(grid)
    b_series = partial(ex.sample_stack, scenario.b, grid)
    B_series = partial(ex.sample_stack, scenario.beta, grid)
    w_ref = solve_parabolic(ParabolicProblem(grid, scenario.mu, B_series, b_series, w0),
                            scenario.horizon, scenario.scheme())
    c, A = freeze_coefficients(w_ref.times, w_ref.values, scenario, kernel)
    c_ser = sampled(w_ref.times, c)
    A_ser = sampled(w_ref.times, A)
    a_series = partial(ex.sample_stack, scenario.a, grid)
    u_ref = solve_hyperbolic(TransportProblem(grid, c_ser, A_ser, a_series, u0),
                             scenario.horizon, scenario.dt)
    worst = 0.0
    for i, t in enumerate(trace.times):
        j = int(round(t / scenario.dt))
        worst = max(
            worst,
            norm_l1(Field(grid, trace.w.values[i] - w_ref.values[j])),
            norm_l1(Field(grid, trace.u.values[i] - u_ref.values[j])),
        )
    elapsed = time.monotonic() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    report(10, "decoupling equivalence", f"max distance {worst:.1e}, {elapsed:.2f}s")


def test_11_weak_form_residual_refinement():
    start = time.monotonic()
    T = 0.2
    factors = {}
    par_res = []
    for n in (64, 128):
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        x = g.axis_centers[0]
        prob = ParabolicProblem(g, 0.1, None, constant(full(g, 0.3).values),
                                Field(g, np.exp(-60 * (x - 0.5) ** 2)))
        dt = T / (20 * n // 64)
        trace = solve_parabolic(prob, T, Scheme("crank_nicolson", dt))
        res = weak_residual_parabolic(trace, prob, default_family(T, 1))
        par_res.append(float(np.max(np.abs(res))))
    factors["parabolic"] = par_res[0] / par_res[1]
    hyp_res = []
    for n in (64, 128):
        g = build_grid(DomainSpec(((0.0, 1.0),)), n)
        x = g.axis_centers[0]
        u0 = Field(g, 0.5 * np.exp(-60 * (x - 0.35) ** 2))
        prob = TransportProblem(g, constant(np.full((1, n), 0.8)),
                                constant(full(g, 0.3).values),
                                constant(full(g, 0.1).values), u0)
        trace = solve_hyperbolic(prob, T, 0.45 * min(g.dx) / 0.8)
        res = weak_residual_hyperbolic(trace, prob, default_family(T, 1))
        hyp_res.append(float(np.max(np.abs(res))))
    factors["hyperbolic"] = hyp_res[0] / hyp_res[1]
    elapsed = time.monotonic() - start
    assert factors["parabolic"] >= 1.5
    assert factors["hyperbolic"] >= 1.5
    assert elapsed < 60.0
    report(11, "weak-form residual refinement",
           f"reduction factors parabolic {factors['parabolic']:.2f}, "
           f"hyperbolic {factors['hyperbolic']:.2f}, {elapsed:.2f}s")


def test_12_parser_suite():
    start = time.monotonic()
    table = [
        ("2+3*4", 14.0), ("2*3+4", 10.0), ("2-3-4", -5.0), ("1-2+3", 2.0),
        ("2^3^2", 512.0), ("-2^2", -4.0), ("(-2)^2", 4.0), ("2^-2", 0.25),
        ("6/3/2", 1.0), ("2*3^2", 18.0), ("1/2^2", 0.25), ("-(1+2)", -3.0),
        ("--2", 2.0), ("-2*3", -6.0), ("2*(3+4)", 14.0),
        ("min(1,2)+max(3,4)", 5.0), ("exp(0)", 1.0), ("abs(-3)", 3.0),
        ("tanh(0)", 0.0), ("pi-pi", 0.0),
    ]
    for src, expected in table:
        assert ex.evaluate(ex.parse(src, ex.Slot.SOURCE_A), {}) == pytest.approx(expected)
    # slot-rule fuzzing: 500 foreign identifiers, zero silent acceptances
    rng = np.random.default_rng(99)
    reserved = set("txyuw") | set(ex.FUNCTIONS) | set(ex.CONSTANTS)
    slots = list(ex.Slot)
    templates = ["1 + {}", "{} * 2", "sin({})", "x - {}", "max({}, 1)"]
    injected = 0
    while injected < 500:
        name = "".join(chr(97 + rng.integers(0, 26)) for _ in range(rng.integers(1, 6)))
        if name in reserved:
            continue
        injected += 1
        src = templates[int(rng.integers(0, len(templates)))].format(name)
        slot = slots[int(rng.integers(0, len(slots)))]
        with pytest.raises(ex.ForbiddenVariable):
            ex.parse(src, slot)
    # round-trip idempotence on 50 generated trees
    def random_tree(depth=0):
        kind = rng.integers(0, 6 if depth < 3 else 2)
        if kind == 0:
            return ex.Num(float(rng.uniform(0, 10)))
        if kind == 1:
            return ex.Var(["t", "x", "u", "w"][int(rng.integers(0, 4))])
        if kind == 2:
            return ex.Neg(random_tree(depth + 1))
        if kind == 3:
            op = "+-*/^"[int(rng.integers(0, 5))]
            return ex.BinOp(op, random_tree(depth + 1), random_tree(depth + 1))
        if kind == 4:
            fn = ["exp", "sin", "cos", "tanh", "abs"][int(rng.integers(0, 5))]
            return ex.Call(fn, (random_tree(depth + 1),))
        fn = ["min", "max"][int(rng.integers(0, 2))]
        return ex.Call(fn, (random_tree(depth + 1), random_tree(depth + 1)))

    for _ in range(50):
        tree = random_tree()
        assert ex.parse(ex.to_source(tree), ex.Slot.BETA) == tree
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(12, "parser suite",
           f"20 precedence cases, 500 injections rejected, 50 round trips, {elapsed:.2f}s")
