"""The ledger's stacked constants against the per-sample loops they replaced.

``verify_hypothesis_v`` and ``estimate_coefficient_lipschitz`` measure their
quotients over stacks of samples.  The loops below are the earlier
implementations, one velocity, divergence and scalar evaluation at a time;
both sides must agree exactly (``==``, no tolerance), except the 1D
velocity quotients (``assert_reports_match``).  ``hypothesis_v_rows`` is
``verify_hypothesis_v`` as it stood before its pair quotients went to row
blocks: the same stacked velocity, one row of pairs at a time, over a list
of Fields; the blocked version must match it exactly in 1D and 2D.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

import predprey.velocity as velocity_module
from predprey import expressions as ex
from predprey.coupling import (_smooth_sample_fields, estimate_coefficient_lipschitz,
                               solve_coupled)
from predprey.grid import Field, divergences, gradient_components, l1_norms, linf_norms
from predprey.scenario_io import load_scenario, parse_scenario_text
from predprey.velocity import (DegenerateSample, HypothesisVReport, drift_velocity,
                               make_kernel, velocity, verify_hypothesis_v)

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "scenarios", "predator_prey.ini")


# A 1D drift is one matrix product (velocity.drift_matrix): the stack takes
# one product for all samples, the loop one per sample, and a BLAS may sum
# a single row apart from a stack of rows in another order.  On the shipped
# samples the quotients then differ by at most 1.3e-14 relative
# (div_lipschitz_quotient, a difference quotient); 2D has no drift matrix
# and stays exact.
HYPOTHESIS_V_RTOL = 1e-13
QUOTIENTS = ("speed_quotient", "gradient_quotient", "lipschitz_quotient",
             "div_lipschitz_quotient", "second_derivative_quotient")


def assert_reports_match(got, want):
    assert got.n_samples == want.n_samples
    for name in QUOTIENTS:
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=HYPOTHESIS_V_RTOL, abs=0.0), name


def _max_derivative(vf):
    worst = 0.0
    for k in range(vf.grid.dim):
        for g in gradient_components(vf.components[k], vf.grid):
            worst = max(worst, float(np.max(np.abs(g))))
    return worst


def _second_derivative_l1(vf):
    grid = vf.grid
    worst = np.zeros(grid.shape)
    for k in range(grid.dim):
        for g in gradient_components(vf.components[k], grid):
            for gg in gradient_components(g, grid):
                worst = np.maximum(worst, np.abs(gg))
    return float(np.sum(worst) * grid.cell_volume)


def hypothesis_v_loop(kernel, kappa, sample_fields, attract=1):
    """One velocity per sample, both divergences again for every pair."""
    vels = [velocity(w, kernel, kappa, attract) for w in sample_fields]
    masses = [float(l1_norms(w.values, w.grid)) for w in sample_fields]
    speed_q = grad_q = second_q = 0.0
    for v, m in zip(vels, masses):
        vmax = float(np.max(np.sqrt(np.sum(v.components**2, axis=0))))
        if m <= 0.0:
            if vmax > 1e-12:
                raise DegenerateSample(
                    f"zero-mass sample with velocity max {vmax}; contradicts the speed bound"
                )
            continue
        speed_q = max(speed_q, vmax / m)
        grad_q = max(grad_q, _max_derivative(v) / m)
        second_q = max(second_q, _second_derivative_l1(v) / m)
    lips_q = div_q = 0.0
    for i in range(len(sample_fields)):
        for j in range(i + 1, len(sample_fields)):
            dw = float(l1_norms(sample_fields[i].values - sample_fields[j].values, kernel.grid))
            if dw <= 0.0:
                continue
            dv = float(np.max(np.abs(vels[i].components - vels[j].components)))
            lips_q = max(lips_q, dv / dw)
            ddiv = float(linf_norms(divergences(vels[i].components, kernel.grid)
                                    - divergences(vels[j].components, kernel.grid), kernel.grid))
            div_q = max(div_q, ddiv / dw)
    return HypothesisVReport(speed_q, grad_q, lips_q, div_q, second_q, len(sample_fields))


def _sample_max(values):
    return np.max(np.abs(values).reshape(len(values), -1), axis=1)


def _max_quotient(num, den, kept):
    return float(np.max(num[kept] / den[kept], initial=0.0))


def hypothesis_v_rows(kernel, kappa, sample_fields, attract=1):
    """The stacked velocity of a list of Fields, pair quotients one row of
    pairs at a time (sample i against every j > i)."""
    if not sample_fields:
        raise ValueError("need at least one sample field")
    grid = kernel.grid
    w = np.stack([f.values for f in sample_fields])
    vel = drift_velocity(w, kernel, kappa, attract)
    masses = l1_norms(w, grid)
    speeds = linf_norms(np.sqrt(np.sum(vel**2, axis=1)), grid)
    zero_mass = masses <= 0.0
    degenerate = np.flatnonzero(zero_mass & (speeds > 1e-12))
    if degenerate.size:
        raise DegenerateSample(
            f"zero-mass sample with velocity max {float(speeds[degenerate[0]])}; "
            "contradicts the speed bound"
        )
    firsts = gradient_components(vel, grid)
    grads = np.zeros(len(w))
    worst = np.zeros(w.shape)
    for g in firsts:
        grads = np.maximum(grads, _sample_max(g))
        for gg in gradient_components(g, grid):
            worst = np.maximum(worst, np.max(np.abs(gg), axis=1))
    div = np.zeros(w.shape)
    for k in range(grid.dim):
        div += firsts[k][:, k]
    kept = ~zero_mass
    speed_q = _max_quotient(speeds, masses, kept)
    grad_q = _max_quotient(grads, masses, kept)
    second_q = _max_quotient(l1_norms(worst, grid), masses, kept)
    lips_q = div_q = 0.0
    for i in range(len(w) - 1):
        dw = l1_norms(w[i] - w[i + 1:], grid)
        apart = dw > 0.0
        lips_q = max(lips_q, _max_quotient(_sample_max(vel[i] - vel[i + 1:]), dw, apart))
        div_q = max(div_q, _max_quotient(linf_norms(div[i] - div[i + 1:], grid), dw, apart))
    return HypothesisVReport(speed_q, grad_q, lips_q, div_q, second_q, len(sample_fields))


def assert_matches_row_loop(kernel, kappa, samples, attract=1):
    """verify_hypothesis_v on the stack, every quotient == the row loop's."""
    got = verify_hypothesis_v(kernel, kappa, samples, attract)
    want = hypothesis_v_rows(kernel, kappa, [Field(kernel.grid, row) for row in samples],
                             attract)
    for name in QUOTIENTS:
        assert getattr(got, name) == getattr(want, name), name
    assert got == want
    return got


def coefficient_lipschitz_loop(scenario, trace, n_samples=200, drop=(), dropped=None):
    """Scalar evaluations, two per coefficient and sample.

    The times, the cell indices of each axis, the w pairs and the u pairs
    are drawn as arrays, in that order, before any evaluation.  A sample
    whose alpha pair is not finite, or whose index is in ``drop``, is left
    out of both quotients; ``dropped`` collects the indices of the samples
    left out for their alpha.
    """
    rng = np.random.default_rng(scenario.seed + 1)
    grid = trace.grid
    mesh = grid.centers()
    w_lo = float(np.min(trace.w.values)) - 0.1
    w_hi = float(np.max(trace.w.values)) + 0.1
    u_lo = float(np.min(trace.u.values)) - 0.1
    u_hi = float(np.max(trace.u.values)) + 0.1
    t_hi = float(trace.times[-1])
    times = rng.uniform(0.0, t_hi, size=n_samples)
    cells = [rng.integers(0, n, size=n_samples) for n in grid.shape]
    w_pairs = rng.uniform(w_lo, w_hi, size=(n_samples, 2))
    u_pairs = rng.uniform(u_lo, u_hi, size=(n_samples, 2))
    k_alpha = k_beta = 0.0
    for k in range(n_samples):
        if k in drop:
            continue
        idx = tuple(int(c[k]) for c in cells)
        env = {"t": float(times[k]), "x": float(mesh[0][idx])}
        if grid.dim == 2:
            env["y"] = float(mesh[1][idx])
        w1, w2 = (float(v) for v in w_pairs[k])
        u1, u2 = (float(v) for v in u_pairs[k])
        try:
            a1 = ex.evaluate(scenario.alpha, {**env, "w": w1})
            a2 = ex.evaluate(scenario.alpha, {**env, "w": w2})
        except ex.NonFiniteValue:
            if dropped is not None:
                dropped.append(k)
            continue
        if abs(w1 - w2) > 1e-9:
            k_alpha = max(k_alpha, abs(a1 - a2) / abs(w1 - w2))
        try:
            if abs(w1 - w2) + abs(u1 - u2) > 1e-9:
                db = abs(ex.evaluate(scenario.beta, {**env, "u": u1, "w": w1})
                         - ex.evaluate(scenario.beta, {**env, "u": u2, "w": w2}))
                k_beta = max(k_beta, db / (abs(u1 - u2) + abs(w1 - w2)))
        except ex.NonFiniteValue:
            continue
    return k_alpha, k_beta


def smooth_sample_fields_loop(grid, base, seed, count=8):
    """One scalar generator call per bump parameter."""
    rng = np.random.default_rng(seed)
    mesh = grid.centers()
    fields = list(base)
    for _ in range(count):
        vals = np.zeros(grid.shape)
        for _ in range(3):
            amp = rng.uniform(-1.0, 1.0)
            width = rng.uniform(5.0, 60.0)
            centers = [rng.uniform(lo, hi) for lo, hi in grid.spec.bounds]
            bump = np.ones(grid.shape)
            for ax, m in enumerate(mesh):
                bump = bump * np.exp(-width * (m - centers[ax]) ** 2)
            vals += amp * bump
        fields.append(Field(grid, vals))
    fields.append(Field(grid, np.zeros(grid.shape)))
    return fields


@pytest.fixture(scope="module")
def shipped():
    scenario = load_scenario(SHIPPED)
    return scenario, solve_coupled(scenario)


@pytest.fixture(scope="module")
def shipped_2d():
    """The shipped scenario on a 24x24 square, with a beta that reads y."""
    text = open(SHIPPED, encoding="ascii").read()
    for old, new in [("dim = 1", "dim = 2"), ("bounds = 0,1", "bounds = 0,1;0,1"),
                     ("n_cells = 128", "n_cells = 24"), ("beta = -u", "beta = -u*(1 + y)"),
                     ("T = 0.5", "T = 0.05"),
                     ("u0 = 0.5*exp(-50*(x-0.3)^2)", "u0 = 0.5*exp(-50*((x-0.3)^2 + (y-0.5)^2))"),
                     ("w0 = 0.5*exp(-50*(x-0.7)^2)", "w0 = 0.5*exp(-50*((x-0.7)^2 + (y-0.4)^2))")]:
        assert old in text
        text = text.replace(old, new)
    scenario = parse_scenario_text(text)
    return scenario, solve_coupled(scenario)


def ledger_samples(scenario, trace):
    rows = trace.w.values[:: max(1, len(trace.times) // 12)]
    return _smooth_sample_fields(trace.grid, rows, scenario.seed)


def test_hypothesis_v_ledger_samples(shipped):
    scenario, trace = shipped
    grid = trace.grid
    kernel = make_kernel(scenario.ell, grid)
    samples = ledger_samples(scenario, trace)
    assert len(samples) == 22
    got = assert_matches_row_loop(kernel, scenario.kappa, samples, scenario.attract)
    assert_reports_match(got, hypothesis_v_loop(kernel, scenario.kappa,
                                                [Field(grid, w) for w in samples],
                                                scenario.attract))


def duplicate_samples(trace):
    """Zero-mass samples and a repeated one: pairs with dw = 0."""
    zero, w = np.zeros(trace.grid.shape), trace.w.values
    return np.stack([zero, w[-1], w[0], w[-1], zero])


@pytest.mark.parametrize("rows", [1, 2, 5, 21])
@pytest.mark.parametrize("case", ["ledger", "duplicates"])
def test_hypothesis_v_row_blocks(shipped, monkeypatch, rows, case):
    # blocks of 1, 2 or 5 rows (a ragged last block) and one block for all
    # rows give the quotients of the default blocks and of the row loop
    scenario, trace = shipped
    kernel = make_kernel(scenario.ell, trace.grid)
    samples = (ledger_samples(scenario, trace) if case == "ledger"
               else duplicate_samples(trace))
    default = verify_hypothesis_v(kernel, scenario.kappa, samples, scenario.attract)
    per_row = len(samples) * trace.grid.total_cells
    monkeypatch.setattr(velocity_module, "PAIR_BLOCK_VALUES", rows * per_row)
    got = assert_matches_row_loop(kernel, scenario.kappa, samples, scenario.attract)
    assert got == default


@pytest.mark.parametrize("attract", [1, -1])
def test_hypothesis_v_2d(shipped_2d, attract):
    scenario, trace = shipped_2d
    grid = trace.grid
    kernel = make_kernel(scenario.ell, grid)
    samples = _smooth_sample_fields(grid, trace.w.values[::3], 4)
    got = assert_matches_row_loop(kernel, scenario.kappa, samples, attract)
    assert got == hypothesis_v_loop(kernel, scenario.kappa, [Field(grid, w) for w in samples],
                                    attract)
    assert got.lipschitz_quotient > 0 and got.div_lipschitz_quotient > 0


def test_hypothesis_v_skips_zero_mass_and_zero_distance(shipped):
    scenario, trace = shipped
    grid = trace.grid
    kernel = make_kernel(scenario.ell, grid)
    samples = duplicate_samples(trace)
    got = assert_matches_row_loop(kernel, scenario.kappa, samples)
    assert_reports_match(got, hypothesis_v_loop(kernel, scenario.kappa,
                                                [Field(grid, row) for row in samples]))
    only_zero = np.zeros((2,) + grid.shape)
    got = assert_matches_row_loop(kernel, scenario.kappa, only_zero)
    zero = Field(grid, np.zeros(grid.shape))
    assert got == hypothesis_v_loop(kernel, scenario.kappa, [zero, zero])
    assert got.k_v == got.c_v == 0.0


@pytest.mark.parametrize("row", [0, -1])
def test_hypothesis_v_single_sample(shipped, row):
    # one sample has no pairs: both pair quotients are 0
    scenario, trace = shipped
    kernel = make_kernel(scenario.ell, trace.grid)
    got = assert_matches_row_loop(kernel, scenario.kappa, trace.w.values[row][None])
    assert got.n_samples == 1
    assert got.lipschitz_quotient == got.div_lipschitz_quotient == 0.0


@pytest.mark.parametrize("alpha,beta", [
    ("1 - w", "-u"),                                    # the shipped coefficients
    ("0.3", "2"),                                       # constants: a scalar result
    ("exp(-w)*sin(3*x) + t", "tanh(u - w) + cos(t)*u^2"),
    ("exp(1800*w)", "u*w"),                             # alpha overflows on part of the range
    ("x*w", "u*exp(1800*w)"),                           # beta overflows on part of the range
], ids=["shipped", "constant", "transcendental", "alpha_overflow", "beta_overflow"])
def test_coefficient_lipschitz_1d(shipped, alpha, beta):
    scenario, trace = shipped
    scenario = replace(scenario, alpha=ex.parse(alpha, ex.Slot.ALPHA),
                       beta=ex.parse(beta, ex.Slot.BETA))
    got = estimate_coefficient_lipschitz(scenario, trace)
    assert got == coefficient_lipschitz_loop(scenario, trace)


def test_coefficient_lipschitz_overflow_drops_samples_only(shipped):
    # every sample draws its u pair, so an alpha that overflows on part of the
    # range keeps a subset of the shipped draws: beta's quotient is the
    # shipped one over the samples whose alpha stayed finite
    scenario, trace = shipped
    overflow = replace(scenario, alpha=ex.parse("exp(1800*w)", ex.Slot.ALPHA))
    dropped = []
    coefficient_lipschitz_loop(overflow, trace, dropped=dropped)
    assert 0 < len(dropped) < 200
    k_beta = estimate_coefficient_lipschitz(overflow, trace)[1]
    assert k_beta <= estimate_coefficient_lipschitz(scenario, trace)[1]
    assert k_beta == coefficient_lipschitz_loop(scenario, trace, drop=set(dropped))[1]


@pytest.mark.parametrize("alpha,beta", [
    ("1 - w", "-u*(1 + y)"),                            # the scenario's own coefficients
    ("exp(-w*y) + sin(x)", "tanh(u*y - w) + t*x"),
    ("2", "y"),
])
def test_coefficient_lipschitz_2d(shipped_2d, alpha, beta):
    scenario, trace = shipped_2d
    scenario = replace(scenario, alpha=ex.parse(alpha, ex.Slot.ALPHA),
                       beta=ex.parse(beta, ex.Slot.BETA))
    got = estimate_coefficient_lipschitz(scenario, trace)
    assert got == coefficient_lipschitz_loop(scenario, trace)


def test_coefficient_lipschitz_evaluates_each_coefficient_once(shipped, monkeypatch):
    # one evaluation over all samples per coefficient, not one per sample
    scenario, trace = shipped
    calls = []
    for name in ("evaluate_raw", "evaluate"):
        original = getattr(ex, name)

        def counted(expr, env, original=original):
            calls.append(expr)
            return original(expr, env)

        monkeypatch.setattr(ex, name, counted)
    estimate_coefficient_lipschitz(scenario, trace)
    assert len(calls) == 2
    assert calls.count(scenario.alpha) == calls.count(scenario.beta) == 1


class CountingGenerator:
    """A numpy Generator that counts the draws made through it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("fixture", ["shipped", "shipped_2d"])
def test_coefficient_lipschitz_draws_each_quantity_once(fixture, request, monkeypatch):
    # one generator call for the times, one per axis for the cells, one each
    # for the w and the u pairs: not one call per sample
    scenario, trace = request.getfixturevalue(fixture)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountingGenerator(default_rng(seed), calls))
    estimate_coefficient_lipschitz(scenario, trace)
    assert len(calls) <= 3 + trace.grid.dim


@pytest.mark.parametrize("fixture", ["shipped", "shipped_2d"])
def test_smooth_sample_fields_match_scalar_draws(fixture, request):
    # one array draw of every bump parameter gives the scalar draws' doubles
    scenario, trace = request.getfixturevalue(fixture)
    grid = trace.grid
    got = _smooth_sample_fields(grid, trace.w.values[-1:], scenario.seed)
    want = smooth_sample_fields_loop(grid, [Field(grid, trace.w.values[-1])], scenario.seed)
    assert len(got) == len(want) == 10
    for g, w in zip(got, want):
        assert np.array_equal(g, w.values)
