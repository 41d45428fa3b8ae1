"""Fixed-point coupling of the drift and diffusion equations, plus the bound ledger.

The nonlinear system is solved by successive substitution, swept w first:
freeze beta at the previous iterate and solve the diffusion, freeze the
velocity and alpha at the new w and solve the transport, and repeat.  This
is the Gauss-Seidel form of the Jacobi map of the contraction proof, which
freezes all three at the previous iterate; both have the same fixed point,
and the sweep leaves neither species an iteration behind the other.  A
window stops (``window_settled``) once the sup-in-time L1 distance d_k
between the last two iterates drops below tolerance, or once the Banach
fixed-point estimate r/(1 - r) d_k of the distance to the fixed point, with
the measured ratio r = d_k/d_{k-1} < 1/2, drops below ESTIMATE_TOL_FRACTION
times the tolerance.
Contraction only holds on short time windows, so the horizon is split into
windows: the first sized from the contraction constant estimate, each later
one from how fast the one before it settled, and any of them halved
whenever an iteration fails to settle; the final iterate of each window
seeds the next, making the stitched trace continuous at the joints by
construction.

The converged iterate is the unique fixed point whatever the start, so the
start only sets how many iterations a window needs.  Each window starts
from the Newton backward-difference polynomial through the last
converged states, up to five of them (degree PREDICTOR_DEGREE = 4),
extrapolated over the window (``extrapolate_window``) and clipped cellwise
from below at min(datum, 0), so a nonnegative state is never frozen at a
negative guess.  The first window has only the datum, and its one-row
history predicts the datum held constant in time; a window halved after a
failed contraction starts from the prefix of the same prediction.  The
tolerance and the convergence test do not depend on this choice, and the
returned trace is always a marched iterate; the start sets the iterations
each window needs, and through them the sizes of the windows after it.

Only the first window follows the a-priori plan.  Each later window is
sized from the iterations the window before it needed (``next_window_steps``):
a window that settled fast is doubled, one that needed many iterations is
halved, and a size that failed to contract is never used again.  The
ledger records the longest window used against the a-priori condition.

Each Picard window is array-backed and planned once: the step times, each
solver's step sizes and the controls a and b (which do not depend on the
iterate) are fixed before iterating.  An iterate is one (n_steps+1,
*grid.shape) array per species.  Each iteration samples beta on it in one
broadcast evaluation and marches w, freezes the velocity (one batched
convolution) and alpha (one broadcast evaluation) on the new w and marches
u, passing the rows each step reads straight to the march kernels; it
checks each marched stack for finiteness and takes the Picard difference
as one reduction over the time axis.  A window returns its converged
stacks, and solve_coupled writes them into two arrays covering the whole
horizon, which it wraps in Traces once at the end.

The BoundsReport assembles every a-priori constant of the underlying
estimates from scenario data (with empirically sampled constants standing
in for the abstract velocity-hypothesis maps) and grades the measured
solution norms against them with ``series.grade``, the rule every bound
check of the library shares.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import expressions as ex
from . import parabolic, transport
from .calibration import TV_CONST_HYPERBOLIC, TV_CONST_PARABOLIC
from .grid import (DomainSpec, Grid, build_grid, interior_variations, l1_norms,
                   linf_norms, require_finite, total_variations)
from .parabolic import Scheme
from .series import (InequalityCheck, Trace, cumulative_left_riemann, grade,
                     integrated_norms, saturate, step_times)
from .velocity import (Kernel, HypothesisVReport, drift_velocity, make_kernel,
                       verify_hypothesis_v)

log = logging.getLogger(__name__)


class NoContraction(RuntimeError):
    """A window failed to settle within the iteration budget."""


class WindowCollapse(RuntimeError):
    """Window halving went below 4 time steps; scenario too stiff."""


class ScenarioRuleError(ValueError):
    """A broken Scenario rule, with the scenario key (``section.key``) that sets it."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class Scenario:
    """Complete problem description, normally loaded from a scenario file."""

    domain: DomainSpec
    n_cells: tuple[int, ...]
    mu: float
    ell: float
    kappa: float
    attract: int
    alpha: ex.Expr
    beta: ex.Expr
    a: ex.Expr
    b: ex.Expr
    u0: ex.Expr
    w0: ex.Expr
    horizon: float
    dt: float
    snapshot_every: int
    parabolic_scheme: str
    picard_tol: float
    picard_max_iter: int
    k_alpha: float
    k_beta: float
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    seed: int = 0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ScenarioRuleError("time.T", f"horizon must be positive, got {self.horizon!r}")
        if self.dt <= 0:
            raise ScenarioRuleError("time.dt", f"step must be positive, got {self.dt!r}")
        if not math.isfinite(self.horizon / self.dt):
            raise ScenarioRuleError("time.dt", f"step {self.dt!r} is too small for T = "
                                               f"{self.horizon!r}")
        steps = round(self.horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ScenarioRuleError("time.dt", f"step {self.dt!r} must divide T = "
                                               f"{self.horizon!r} (window chaining "
                                               "requires uniform steps)")
        for key, value in (("model.K_alpha", self.k_alpha), ("model.K_beta", self.k_beta)):
            if value <= 0:
                raise ScenarioRuleError(key, f"Lipschitz bound must be positive, got {value!r}")
        if self.snapshot_every < 1:
            raise ScenarioRuleError("time.snapshot_every",
                                    f"must be at least 1, got {self.snapshot_every}")

    def grid(self) -> Grid:
        return build_grid(self.domain, self.n_cells)

    def scheme(self) -> Scheme:
        return Scheme(self.parabolic_scheme, self.dt)


@dataclass(frozen=True)
class WindowLog:
    t0: float
    t1: float
    steps: int
    diffs: tuple[float, ...]
    # always True (picard_window raises NoContraction instead); the
    # benchmark's gate (perfbench/) reads it, so it can go only once a
    # benchmark change (ROADMAP item 4) has moved its tracer and gate
    converged: bool
    stop: str  # the rule that stopped the window: "tol" or "estimate"

    @property
    def iterations(self) -> int:
        return len(self.diffs)


@dataclass(frozen=True)
class CoupledTrace:
    """Both components at every step of the horizon, the window logs and
    the plan of the first window."""

    u: Trace
    w: Trace
    window_logs: tuple[WindowLog, ...]
    window_plan: WindowPlan

    @property
    def times(self) -> np.ndarray:
        return self.u.times

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @property
    def u_l1(self) -> np.ndarray:
        return self.u.l1

    @property
    def u_linf(self) -> np.ndarray:
        return self.u.linf

    @property
    def u_tv(self) -> np.ndarray:
        return self.u.tv

    @property
    def w_l1(self) -> np.ndarray:
        return self.w.l1

    @property
    def w_linf(self) -> np.ndarray:
        return self.w.linf

    @property
    def w_tv(self) -> np.ndarray:
        return self.w.tv


def sample_keyed(expr: ex.Expr, key: str, grid: Grid, times,
                 u: np.ndarray | None = None, w: np.ndarray | None = None) -> np.ndarray:
    """sample_stack with the scenario key path prepended to evaluation errors."""
    try:
        return ex.sample_stack(expr, grid, times, u=u, w=w)
    except ex.NonFiniteValue as exc:
        raise ex.NonFiniteValue(f"[{key}] {exc}") from None


def freeze_coefficients(times: np.ndarray, w: np.ndarray, scenario: Scenario,
                        kernel: Kernel):
    """The drift's coefficients frozen at the snapshots of a ``w`` iterate.

    ``w`` holds one snapshot per entry of ``times``, shape
    (len(times), *grid.shape).  Returns the coefficient snapshots at the
    same times: the velocity, shape (len(times), dim, *grid.shape), from one
    batched convolution, and alpha, shape (len(times), *grid.shape), from
    one broadcast evaluation.
    """
    c = drift_velocity(w, kernel, scenario.kappa, scenario.attract)
    A = sample_keyed(scenario.alpha, "coefficients.alpha", kernel.grid, times, w=w)
    return c, A


# Highest order of the start prediction, chosen by measurement on the shipped
# scenario to T = 4 (Jacobi iteration, four-step windows): degree 2/3/4/5/6
# take 543/415/343/337/365 Picard iterations.  Past 4 the gain is gone, as a
# longer extrapolation amplifies the tolerance-sized error of the converged
# states it is built from.
PREDICTOR_DEGREE = 4


def extrapolate_window(history: np.ndarray, n_steps: int) -> np.ndarray:
    """Predicted states at the n_steps+1 step times of the next window.

    ``history`` holds the last 1 to PREDICTOR_DEGREE+1 converged states one
    step apart, oldest first, ending at V_K.  Returns the Newton
    backward-difference polynomial of degree len(history) - 1 through them,
    g_j = V_K + j dV_K + j(j+1)/2 d2V_K + j(j+1)(j+2)/6 d3V_K
    + j(j+1)(j+2)(j+3)/24 d4V_K cut off at that degree, for j = 0..n_steps,
    clipped cellwise from below at min(V_K, 0): the scheme keeps a
    nonnegative state nonnegative, and so must the guess.  One row predicts
    V_K held constant.  The rows do not depend on n_steps, so a shorter
    window gets a prefix.
    """
    last = history[-1]
    j = np.arange(n_steps + 1.0).reshape((-1,) + (1,) * last.ndim)
    guess = np.broadcast_to(last, j.shape[:1] + last.shape)
    weight = 1.0
    differences = history
    for order in range(1, len(history)):
        differences = np.diff(differences, axis=0)
        # j(j+1)...(j+order-1)/order!, an integer, so exact in floating point
        weight = weight * (j + (order - 1.0)) / order
        guess = guess + weight * differences[-1]
    floor = np.minimum(last, 0.0)
    return np.where(guess < floor, floor, guess)


# Share of picard_tol that the Banach estimate of a window's remaining
# distance must fall below.  The error a window stops with carries into every
# later window, so each one gets only a fraction of the tolerance.  Measured
# on the shipped scenario to T = 4, as the max over times of L1(u) + L1(w) to
# a solve with tolerance 1e-14, against the 2.4e-10 of the plain d_k < tol
# rule (30 windows, 86 iterations): a fraction of 1 / 0.1 / 0.01 / 0.001 runs
# 13 / 15 / 21 / 27 windows and 33 / 41 / 58 / 78 iterations, at a distance
# of 1.2e-7 / 3.7e-8 / 1.75e-9 / 1.8e-10.  0.01 is the largest that keeps
# the distance below picard_tol = 1e-8.  A fraction taken from the run, each
# window's share of the horizon, ran 17 windows and 46 iterations but reached
# 2.5e-8.
ESTIMATE_TOL_FRACTION = 0.01


def window_settled(diffs, tol: float) -> str | None:
    """How a window with Picard differences ``diffs`` (d_1..d_k) stops, or
    None to iterate on.

    ``"tol"`` once d_k < tol.  ``"estimate"`` once k >= 2, the measured
    contraction ratio r = d_k / d_{k-1} is below 1/2, and the Banach
    fixed-point bound on the distance from the last iterate to the window's
    fixed point, r / (1 - r) * d_k, is below ESTIMATE_TOL_FRACTION * tol.
    A ratio of 1/2 or more leaves only the first rule.
    """
    last = diffs[-1]
    if last < tol:
        return "tol"
    # also excludes d_{k-1} = 0 and growing differences, where the estimate
    # means nothing
    if len(diffs) < 2 or not last < 0.5 * diffs[-2]:
        return None
    r = last / diffs[-2]
    return "estimate" if r / (1.0 - r) * last < ESTIMATE_TOL_FRACTION * tol else None


def picard_window(scenario: Scenario, grid: Grid, kernel: Kernel, t0: float,
                  t1: float, u_init: np.ndarray, w_init: np.ndarray,
                  start: tuple[np.ndarray, np.ndarray] | None = None):
    """Iterate the frozen-coefficient solves on [t0, t1] from the states
    ``u_init``, ``w_init`` (each of shape grid.shape) until they settle.

    The window solves the fixed point u = F(w), w = G(u, w): F marches the
    drift with c(w) and alpha(w) frozen, G the diffusion with beta(u, w)
    frozen.  The map of the contraction proof is the Jacobi form, which
    freezes all three on the previous iterate, so each species lags one
    iteration behind the other.  This is its Gauss-Seidel form, with the
    same fixed point: each iteration samples beta on the previous (u, w)
    and marches w, then freezes c and alpha on the new w and marches u.
    Where beta does not depend on u, the first w march is already exact.
    ``start`` is the first iterate (u, w), each broadcastable to one
    (n_steps+1, *grid.shape) stack; by default the datum held constant.
    The window stops when ``window_settled`` says so at the scenario's
    ``picard_tol``.
    Returns the step times, the converged u and w stacks and the iteration
    log; raises NoContraction when ``picard_max_iter`` iterations do not
    settle, signalling the window is too long for the contraction available.
    """
    times = step_times(t1 - t0, scenario.dt, t0)
    u_start, w_start = (u_init, w_init) if start is None else start
    stacked = (len(times),) + grid.shape
    u_prev = np.broadcast_to(u_start, stacked)
    w_prev = np.broadcast_to(w_start, stacked)
    scheme = scenario.scheme()
    kind = scheme.kind
    # fixed for the window: each solver's step sizes, and the controls (which
    # do not depend on the iterate) at the times each solver evaluates them
    u_dts = np.diff(times)
    w_dts = parabolic.step_sizes(times, scheme.dt)
    left = transport.coefficient_times(times)
    a = sample_keyed(scenario.a, "coefficients.a", grid, left)
    b = sample_keyed(scenario.b, "coefficients.b", grid,
                     parabolic.coefficient_times(times, kind))
    diffs: list[float] = []
    for iteration in range(1, scenario.picard_max_iter + 1):
        B = sample_keyed(scenario.beta, "coefficients.beta", grid, times, u=u_prev, w=w_prev)
        w_next = parabolic.march_imex(w_init, parabolic.coefficient_rows(times, B, kind),
                                      b, w_dts, scenario.mu, kind, grid)
        require_finite(w_next)
        # transport reads c and alpha at each step's left end only
        c, A = freeze_coefficients(left, w_next[:-1], scenario, kernel)
        u_next = transport.march_upwind(u_init, c, A, a, u_dts, grid)
        require_finite(u_next)
        diff = float(np.max(l1_norms(u_next - u_prev, grid) + l1_norms(w_next - w_prev, grid)))
        diffs.append(diff)
        log.debug("window [%g, %g] iteration %d diff %.3e", t0, t1, iteration, diff)
        u_prev, w_prev = u_next, w_next
        stop = window_settled(diffs, scenario.picard_tol)
        if stop:
            return (times, u_next, w_next,
                    WindowLog(t0, t1, len(times) - 1, tuple(diffs), True, stop))
    raise NoContraction(
        f"window [{t0:g}, {t1:g}] did not settle in {scenario.picard_max_iter} iterations "
        f"(last differences {diffs[-3:]})"
    )


def _smooth_sample_fields(grid: Grid, extra: np.ndarray, seed: int,
                          count: int = 8) -> np.ndarray:
    """The velocity-hypothesis samples as one (n, *grid.shape) stack: the
    ``extra`` rows, then ``count`` deterministic smooth densities, then the
    zero density.

    Each seeded density sums three Gaussian bumps, and each bump draws an
    amplitude, a width and a centre per axis.  One generator call draws all
    of them in that order, which gives the doubles of one scalar call per
    parameter.  Each axis factor of every bump is one broadcast over that
    axis's centres, and the bumps are added in their draw order, as one
    density at a time would add them.
    """
    rng = np.random.default_rng(seed)
    lows = [-1.0, 5.0] + [lo for lo, _ in grid.spec.bounds]
    highs = [1.0, 60.0] + [hi for _, hi in grid.spec.bounds]
    draws = rng.uniform(np.tile(lows, 3 * count), np.tile(highs, 3 * count))
    draws = draws.reshape(count, 3, len(lows))
    cell_axes = (Ellipsis,) + (None,) * grid.dim
    amps, widths = draws[..., 0][cell_axes], draws[..., 1][cell_axes]
    # factors[axis][s, k] is bump k of density s along one axis, shaped to
    # broadcast over the grid
    factors = [np.exp(-widths * (x - draws[..., 2 + axis][cell_axes]) ** 2)
               for axis, x in enumerate(np.ix_(*grid.axis_centers))]
    stack = np.zeros((len(extra) + count + 1,) + grid.shape)
    stack[:len(extra)] = extra
    seeded = stack[len(extra):-1]
    for k in range(3):
        bump = factors[0][:, k]
        for factor in factors[1:]:
            bump = bump * factor[:, k]
        seeded += amps[:, k] * bump
    return stack


def estimate_velocity_constants(scenario: Scenario, grid: Grid, kernel: Kernel,
                                extra: np.ndarray) -> HypothesisVReport:
    """verify_hypothesis_v over the ``extra`` rows (shape (k, *grid.shape))
    and the scenario's seeded samples (``_smooth_sample_fields``)."""
    samples = _smooth_sample_fields(grid, extra, scenario.seed)
    return verify_hypothesis_v(kernel, scenario.kappa, samples, scenario.attract)


@dataclass(frozen=True)
class ContractionData:
    """Data-side norms entering the iteration constants, cumulative in time."""

    times: np.ndarray
    int_b_l1: np.ndarray
    int_b_sup: np.ndarray
    int_b_tv: np.ndarray
    int_a_l1: np.ndarray
    int_a_sup: np.ndarray
    int_a_tv: np.ndarray
    u0_l1: float
    u0_sup: float
    u0_tv: float
    w0_l1: float
    w0_sup: float
    w0_tv: float


def _safe_exp(x: np.ndarray) -> np.ndarray:
    # exponent capped at 700: keeps huge-but-finite bound values JSON-safe;
    # the capped value is still an enormous valid comparison threshold
    return np.exp(np.minimum(x, 700.0))


def _contraction_data(scenario: Scenario, grid: Grid, times: np.ndarray) -> ContractionData:
    a = sample_keyed(scenario.a, "coefficients.a", grid, times)
    b = sample_keyed(scenario.b, "coefficients.b", grid, times)
    u0 = sample_keyed(scenario.u0, "initial.u0", grid, [0.0])
    w0 = sample_keyed(scenario.w0, "initial.w0", grid, [0.0])
    int_b_l1, int_b_sup, int_b_tv = integrated_norms(b, times, grid)
    int_a_l1, int_a_sup, int_a_tv = integrated_norms(a, times, grid)
    return ContractionData(
        times=times,
        int_b_l1=int_b_l1, int_b_sup=int_b_sup, int_b_tv=int_b_tv,
        int_a_l1=int_a_l1, int_a_sup=int_a_sup, int_a_tv=int_a_tv,
        u0_l1=float(l1_norms(u0, grid)[0]), u0_sup=float(linf_norms(u0, grid)[0]),
        u0_tv=float(total_variations(u0, grid)[0]),
        w0_l1=float(l1_norms(w0, grid)[0]), w0_sup=float(linf_norms(w0, grid)[0]),
        w0_tv=float(total_variations(w0, grid)[0]),
    )


@dataclass(frozen=True)
class IterationConstants:
    """The six data-side constants of the fixed-point estimates, per time."""

    times: np.ndarray
    c_w1: np.ndarray
    c_winf: np.ndarray
    c_wtv: np.ndarray
    c_u1: np.ndarray
    c_uinf: np.ndarray
    c_utv: np.ndarray
    c_uw: np.ndarray  # contraction rate; window needs c_uw * t < 1/2


def iteration_constants(scenario: Scenario, data: ContractionData, k_v: float,
                        c_v: float) -> IterationConstants:
    """The constants from the data norms, the velocity constants and the
    frozen total-variation factors of ``calibration``."""
    t = data.times - data.times[0]
    ka, kb = scenario.k_alpha, scenario.k_beta
    # products of capped exponentials may overflow to inf; the report
    # saturates what it grades and writes
    with np.errstate(over="ignore"):
        c_w1 = _safe_exp(kb * t) * (data.w0_l1 + data.int_b_l1)
        c_winf = _safe_exp(kb * t) * (data.w0_sup + data.int_b_sup)
        c_wtv = data.w0_tv + data.int_b_tv + TV_CONST_PARABOLIC * np.sqrt(t) * kb * c_w1
        u_rate = ka * t * (1.0 + c_winf)
        c_u1 = (data.u0_l1 + data.int_a_l1) * _safe_exp(u_rate)
        c_uinf = (data.u0_sup + data.int_a_sup) * _safe_exp(u_rate + k_v * t * c_w1)
        c_utv = (_safe_exp(u_rate + k_v * t * c_w1)
                 * (data.u0_tv + TV_CONST_HYPERBOLIC * data.u0_sup + data.int_a_tv)
                 + c_uinf * (ka * t * (1.0 + c_winf + c_wtv) + t * c_v * c_w1))
        c_uw = (kb * _safe_exp(t * kb) * c_winf
                + c_u1 * c_v + c_utv
                + ka * _safe_exp(u_rate) * (data.u0_sup + data.int_a_sup))
    return IterationConstants(data.times, c_w1, c_winf, c_wtv, c_u1, c_uinf, c_utv, c_uw)


# Window sizing after the first window.  No window is shorter than
# MIN_WINDOW_STEPS steps.  A window that settled in at most GROW_AT_MOST
# iterations (the predicted start plus one confirming march) doubles the
# next one; one that needed SHRINK_FROM or more halves it.  Measured on the
# shipped scenario to T = 4: the rule runs 21 windows of 4 to 64 steps (58
# iterations) where the 4-step a-priori floor runs 200 (337 iterations), and
# every ratio of successive Picard differences stays below 0.0066.
# A window costs one coefficient freeze per iteration plus its set-up, which
# on 128 cells outweighs the extra marched steps.
MIN_WINDOW_STEPS = 4
GROW_AT_MOST = 2
SHRINK_FROM = 4


def next_window_steps(steps: int, iterations: int, ceiling: int) -> int:
    """Length of the next window after one of ``steps`` steps settled in
    ``iterations``; it never exceeds ``ceiling``, the longest size not
    known to fail."""
    if iterations <= GROW_AT_MOST:
        return min(2 * steps, ceiling)
    if iterations >= SHRINK_FROM:
        return max(MIN_WINDOW_STEPS, steps // 2)
    return steps


@dataclass(frozen=True)
class WindowPlan:
    """The first window's length and the a-priori condition it rests on,
    with c_uw * window at every window length for grading later windows."""

    size: float               # the window solve_coupled starts from
    a_priori_s: float         # largest dt-multiple with c_uw * window < 1/2
    c_uw_times_window: float  # c_uw * window at the planned window
    floored: bool             # the 4 dt floor raised the window above a_priori_s
    # c_uw * window for a window of k steps, k = 0..n_steps (saturated)
    c_uw_times_steps: np.ndarray = field(compare=False, repr=False)

    @property
    def condition_held(self) -> bool:
        return self.c_uw_times_window < 0.5


def initial_window(scenario: Scenario, grid: Grid, kernel: Kernel) -> WindowPlan:
    """Largest dt-multiple with (contraction rate) * window < 1/2, floored at 4 dt.

    A floored window for which the condition fails is logged as a WARNING
    with its c_uw * window; the plan records the same facts for the ledger.
    """
    w0 = sample_keyed(scenario.w0, "initial.w0", grid, [0.0])
    report = estimate_velocity_constants(scenario, grid, kernel, w0)
    n_steps = int(round(scenario.horizon / scenario.dt))
    times = scenario.dt * np.arange(n_steps + 1)
    data = _contraction_data(scenario, grid, times)
    consts = iteration_constants(scenario, data, report.k_v, report.c_v)
    with np.errstate(over="ignore"):
        rate = saturate(consts.c_uw * (times - times[0]))
    held = np.flatnonzero(rate < 0.5)
    last_ok = held[-1] if held.size else 0
    floor = min(MIN_WINDOW_STEPS, n_steps)
    a_priori = float(times[last_ok])
    plan = WindowPlan(size=min(max(a_priori, MIN_WINDOW_STEPS * scenario.dt), scenario.horizon),
                      a_priori_s=a_priori,
                      c_uw_times_window=float(rate[max(last_ok, floor)]),
                      floored=bool(last_ok < floor),
                      c_uw_times_steps=rate)
    if plan.floored:
        log.warning("window floored at %d steps (%g): c_uw * window = %.3g >= 1/2, so "
                    "the a-priori contraction condition does not hold there",
                    floor, times[floor], plan.c_uw_times_window)
    return plan


def _window_start(u_all: np.ndarray, w_all: np.ndarray, step: int, take: int):
    """First iterate of the window of ``take`` steps that starts at row
    ``step`` of the trace: ``extrapolate_window`` of the last
    PREDICTOR_DEGREE+1 rows, or of as many as the trace has so far."""
    history = slice(max(0, step - PREDICTOR_DEGREE), step + 1)
    return (extrapolate_window(u_all[history], take),
            extrapolate_window(w_all[history], take))


def solve_coupled(scenario: Scenario) -> CoupledTrace:
    """Window-chained fixed-point solve over the whole horizon.

    Each window starts from the trace row before it and takes its first
    iterate from ``_window_start``: in the first window, the datum held
    constant.  The first window is sized by ``initial_window``, and every
    later one by ``next_window_steps`` from the iterations the one before it
    needed.  A window is halved on NoContraction, and the halved size caps
    every later window; below MIN_WINDOW_STEPS steps the solve aborts with
    WindowCollapse.  The returned trace holds every step with diagnostics
    and the first window's plan.
    """
    grid = scenario.grid()
    kernel = make_kernel(scenario.ell, grid)
    total_steps = int(round(scenario.horizon / scenario.dt))
    times_all = np.zeros(total_steps + 1)
    u_all = np.empty((total_steps + 1,) + grid.shape)
    w_all = np.empty_like(u_all)
    u_all[0] = sample_keyed(scenario.u0, "initial.u0", grid, [0.0])[0]
    w_all[0] = sample_keyed(scenario.w0, "initial.w0", grid, [0.0])[0]
    plan = initial_window(scenario, grid, kernel)
    window_steps = max(MIN_WINDOW_STEPS, int(round(plan.size / scenario.dt)))
    ceiling = total_steps
    logs: list[WindowLog] = []
    halvings = 0
    step = 0
    while step < total_steps:
        take = min(window_steps, total_steps - step)
        t0 = step * scenario.dt
        t1 = (step + take) * scenario.dt
        try:
            times, u_win, w_win, wlog = picard_window(
                scenario, grid, kernel, t0, t1, u_all[step], w_all[step],
                start=_window_start(u_all, w_all, step, take),
            )
        except NoContraction:
            if window_steps // 2 < MIN_WINDOW_STEPS:
                raise WindowCollapse(
                    f"window of {window_steps} steps failed and cannot shrink below "
                    f"{MIN_WINDOW_STEPS} steps"
                ) from None
            window_steps //= 2
            ceiling = window_steps
            halvings += 1
            log.info("halving window to %d steps after failed contraction", window_steps)
            continue
        logs.append(wlog)
        window_steps = next_window_steps(window_steps, wlog.iterations, ceiling)
        rows = slice(step + 1, step + take + 1)
        times_all[rows] = times[1:]
        u_all[rows] = u_win[1:]
        w_all[rows] = w_win[1:]
        step += take
    iterations = [wlog.iterations for wlog in logs]
    steps = [wlog.steps for wlog in logs]
    log.info("solve: %d windows of %d to %d steps, %d Picard iterations, %d halvings, "
             "at most %d iterations per window", len(logs), min(steps), max(steps),
             sum(iterations), halvings, max(iterations))
    return CoupledTrace(Trace(grid, times_all, u_all), Trace(grid, times_all, w_all),
                        tuple(logs), plan)


def estimate_coefficient_lipschitz(scenario: Scenario, trace: CoupledTrace,
                                   n_samples: int = 200) -> tuple[float, float]:
    """Sampled finite-difference Lipschitz quotients of alpha and beta.

    Sampling covers the state range the trace actually visited (slightly
    inflated); the report flags quotients exceeding the declared constants.
    One generator call each draws, in this order, the times, the cell
    indices of each axis, the ``w`` pairs and the ``u`` pairs of all
    samples.  ``alpha`` is then evaluated once over all samples, and
    ``beta`` once over the kept ones.  A sample whose ``alpha`` pair is not
    finite (a probe slightly outside the visited range hit a pole) is
    dropped from both quotients, and one whose ``beta`` pair is not finite
    from the ``beta`` quotient: the quotients are measurements, not gates.
    A dropped sample moves no draw.
    """
    rng = np.random.default_rng(scenario.seed + 1)
    grid = trace.grid
    w_lo = float(np.min(trace.w.values)) - 0.1
    w_hi = float(np.max(trace.w.values)) + 0.1
    u_lo = float(np.min(trace.u.values)) - 0.1
    u_hi = float(np.max(trace.u.values)) + 0.1
    t_hi = float(trace.times[-1])
    t = rng.uniform(0.0, t_hi, size=n_samples)
    at = tuple(rng.integers(0, n, size=n_samples) for n in grid.shape)
    w = rng.uniform(w_lo, w_hi, size=(n_samples, 2))
    u = rng.uniform(u_lo, u_hi, size=(n_samples, 2))
    env = {"t": t[:, None],
           **{name: m[at][:, None] for name, m in zip(("x", "y"), grid.centers())}}
    alpha = np.broadcast_to(ex.evaluate_raw(scenario.alpha, {**env, "w": w}), w.shape)
    finite = np.all(np.isfinite(alpha), axis=1)
    dw = np.abs(w[:, 0] - w[:, 1])
    du = np.abs(u[:, 0] - u[:, 1])
    graded = finite & (dw > 1e-9)
    k_alpha = np.max(np.abs(alpha[graded, 0] - alpha[graded, 1]) / dw[graded], initial=0.0)
    kept = finite & (dw + du > 1e-9)
    env = {name: v[kept] for name, v in env.items()}
    u, w, du_w = u[kept], w[kept], du[kept] + dw[kept]
    beta = np.broadcast_to(ex.evaluate_raw(scenario.beta, {**env, "u": u, "w": w}), u.shape)
    ok = np.all(np.isfinite(beta), axis=1)
    k_beta = np.max(np.abs(beta[ok, 0] - beta[ok, 1]) / du_w[ok], initial=0.0)
    return float(k_alpha), float(k_beta)


def alpha_variation_quotient(scenario: Scenario, trace: CoupledTrace) -> float:
    """Variation growth of the frozen drift reaction against its admissible bound.

    Whether an arbitrary expression satisfies
    TV(alpha(t, ., w)) <= K_alpha (1 + sup|w| + TV(w)) cannot be decided
    symbolically, so it is measured on the states the run visited; the report
    flags quotients above 1.  Both sides use the interior variation:
    coefficients, unlike Dirichlet solutions, need not vanish at the walls.
    """
    grid = trace.grid
    stride = max(1, len(trace.times) // 16)
    w = trace.w.values[::stride]
    # the strided rows can include t = T, where the solve never evaluated alpha
    A = sample_keyed(scenario.alpha, "coefficients.alpha", grid, trace.times[::stride], w=w)
    admissible = scenario.k_alpha * (1.0 + linf_norms(w, grid) + interior_variations(w, grid))
    return float(np.max(interior_variations(A, grid) / admissible, initial=0.0))


@dataclass(frozen=True)
class BoundsReport:
    """Every tracked constant and inequality verdict for one coupled run."""

    schema_version: int
    times: list[float]
    constants: dict[str, list[float]]
    checks: tuple[InequalityCheck, ...]
    k_v_empirical: float
    c_v_empirical: float
    k_alpha_declared: float
    k_beta_declared: float
    k_alpha_empirical: float
    k_beta_empirical: float
    alpha_tv_quotient: float
    lipschitz_flags: dict[str, bool]
    contraction_constant: float   # c_uw at the first window end
    window_size: float
    window_plan: WindowPlan
    largest_window_s: float       # the longest window the solve used
    c_uw_times_largest: float     # c_uw * window at that window, as in the plan
    condition_held_all: bool      # c_uw * window < 1/2 for every window used
    tv_const_parabolic: float
    tv_const_hyperbolic: float
    positivity_min_u: float
    positivity_min_w: float

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "times": self.times,
            "constants": self.constants,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "min_margin": c.min_margin,
                    "lhs": c.lhs.tolist(),
                    "rhs": c.rhs.tolist(),
                }
                for c in self.checks
            ],
            "empirical": {
                "k_v": self.k_v_empirical,
                "c_v": self.c_v_empirical,
                "k_alpha": self.k_alpha_empirical,
                "k_beta": self.k_beta_empirical,
                "alpha_tv_quotient": self.alpha_tv_quotient,
            },
            "declared": {
                "k_alpha": self.k_alpha_declared,
                "k_beta": self.k_beta_declared,
            },
            "lipschitz_flags": self.lipschitz_flags,
            "contraction_constant": self.contraction_constant,
            "window_size": self.window_size,
            "window": {
                "a_priori_s": self.window_plan.a_priori_s,
                "condition_held": self.window_plan.condition_held,
                "c_uw_times_window": self.window_plan.c_uw_times_window,
                "floored": self.window_plan.floored,
                "largest_s": self.largest_window_s,
                "c_uw_times_largest": self.c_uw_times_largest,
                "condition_held_all": self.condition_held_all,
            },
            "tv_constants": {
                "parabolic": self.tv_const_parabolic,
                "hyperbolic": self.tv_const_hyperbolic,
            },
            "positivity_min": {"u": self.positivity_min_u, "w": self.positivity_min_w},
            "all_passed": self.all_passed(),
        }


def compute_bounds_report(trace: CoupledTrace, scenario: Scenario) -> BoundsReport:
    """Grade the measured solution norms against the a-priori estimates.

    The headline ledger: L1 and sup bounds on both components with the
    single constant C = max(declared alpha/beta constants, empirical
    velocity constant), and the two variation bounds with the frozen
    order-one calibration factors.  The sharper per-equation iteration
    constants are reported alongside.
    """
    grid = trace.grid
    kernel = make_kernel(scenario.ell, grid)
    w_rows = trace.w.values[:: max(1, len(trace.times) // 12)]
    vel_report = estimate_velocity_constants(scenario, grid, kernel, w_rows)
    k_v, c_v = vel_report.k_v, vel_report.c_v
    data = _contraction_data(scenario, grid, trace.times)
    consts = iteration_constants(scenario, data, k_v, c_v)
    times = trace.times
    t = times - times[0]
    c_thm = max(scenario.k_alpha, scenario.k_beta, k_v)
    with np.errstate(over="ignore"):
        rhs_w_l1 = _safe_exp(c_thm * t) * (data.w0_l1 + data.int_b_l1)
        rhs_w_sup = _safe_exp(c_thm * t) * (data.w0_sup + data.int_b_sup)
        c_w = np.maximum(rhs_w_l1, rhs_w_sup)
        rhs_u_l1 = (data.u0_l1 + data.int_a_l1) * _safe_exp(c_thm * t * (1.0 + c_w))
        rhs_u_sup = (data.u0_sup + data.int_a_sup) * _safe_exp(c_thm * t * (1.0 + 2.0 * c_w))
    checks = (
        grade("w_l1_apriori", times, trace.w_l1, rhs_w_l1),
        grade("w_linf_apriori", times, trace.w_linf, rhs_w_sup),
        grade("u_l1_apriori", times, trace.u_l1, rhs_u_l1),
        grade("u_linf_apriori", times, trace.u_linf, rhs_u_sup),
        grade("w_tv_iteration", times, trace.w_tv, consts.c_wtv),
        grade("u_tv_iteration", times, trace.u_tv, consts.c_utv),
        grade("w_l1_iteration", times, trace.w_l1, consts.c_w1),
        grade("w_linf_iteration", times, trace.w_linf, consts.c_winf),
        grade("u_l1_iteration", times, trace.u_l1, consts.c_u1),
        grade("u_linf_iteration", times, trace.u_linf, consts.c_uinf),
    )
    k_alpha_emp, k_beta_emp = estimate_coefficient_lipschitz(scenario, trace)
    alpha_tv_q = alpha_variation_quotient(scenario, trace)
    first_window = trace.window_logs[0] if trace.window_logs else None
    window_size = (first_window.t1 - first_window.t0) if first_window else scenario.horizon
    idx = int(np.searchsorted(trace.times, trace.times[0] + window_size))
    idx = min(idx, len(trace.times) - 1)
    # the plan's a-priori c_uw * window at each window length the solve used
    used = [wl.steps for wl in trace.window_logs]
    largest = max(used, default=0)
    rates = trace.window_plan.c_uw_times_steps
    return BoundsReport(
        schema_version=3,
        times=trace.times.tolist(),
        constants={
            **{name: saturate(getattr(consts, name)).tolist()
               for name in ("c_w1", "c_winf", "c_wtv", "c_u1", "c_uinf", "c_utv", "c_uw")},
            "c_theorem": [c_thm] * len(trace.times),
        },
        checks=checks,
        k_v_empirical=k_v,
        c_v_empirical=c_v,
        k_alpha_declared=scenario.k_alpha,
        k_beta_declared=scenario.k_beta,
        k_alpha_empirical=k_alpha_emp,
        k_beta_empirical=k_beta_emp,
        alpha_tv_quotient=alpha_tv_q,
        lipschitz_flags={
            "alpha_exceeds_declared": bool(k_alpha_emp > scenario.k_alpha * (1 + 1e-6)),
            "beta_exceeds_declared": bool(k_beta_emp > scenario.k_beta * (1 + 1e-6)),
            "alpha_tv_exceeds_bound": bool(alpha_tv_q > 1.0 + 1e-6),
        },
        contraction_constant=float(saturate(consts.c_uw[idx])),
        window_size=float(window_size),
        window_plan=trace.window_plan,
        largest_window_s=largest * scenario.dt,
        c_uw_times_largest=float(rates[largest]),
        condition_held_all=bool(np.all(rates[used] < 0.5)),
        tv_const_parabolic=TV_CONST_PARABOLIC,
        tv_const_hyperbolic=TV_CONST_HYPERBOLIC,
        positivity_min_u=float(np.min(trace.u.values)),
        positivity_min_w=float(np.min(trace.w.values)),
    )


@dataclass(frozen=True)
class ExperimentReport:
    """One perturbation experiment: measured distance over perturbation size."""

    times: np.ndarray
    lhs: np.ndarray
    denominator: np.ndarray

    @property
    def quotients(self) -> np.ndarray:
        """lhs / denominator, and 0 where the denominator is 0."""
        denom = self.denominator
        return np.where(denom > 0, self.lhs / np.where(denom > 0, denom, 1.0), 0.0)

    @property
    def final_quotient(self) -> float:
        return float(self.quotients[-1])


def _trace_distance(a: CoupledTrace, b: CoupledTrace) -> np.ndarray:
    return (l1_norms(a.u.values - b.u.values, a.grid)
            + l1_norms(a.w.values - b.w.values, a.grid))


def lipschitz_in_data_experiment(scenario: Scenario, du0: ex.Expr | None = None,
                                 dw0: ex.Expr | None = None,
                                 base: CoupledTrace | None = None) -> ExperimentReport:
    """Perturb the initial data and measure the solution response.

    The quotient LHS / (L1 size of the perturbation) should stay bounded and
    stable under halving the perturbation (Lipschitz, not superlinear).
    ``base`` is the solve of the unperturbed scenario, when the caller
    already has it.
    """
    grid = scenario.grid()
    if base is None:
        base = solve_coupled(scenario)
    pert = scenario
    delta = 0.0
    if du0 is not None:
        pert = replace(pert, u0=ex.BinOp("+", pert.u0, du0))
        delta += float(l1_norms(ex.sample_stack(du0, grid, [0.0]), grid)[0])
    if dw0 is not None:
        pert = replace(pert, w0=ex.BinOp("+", pert.w0, dw0))
        delta += float(l1_norms(ex.sample_stack(dw0, grid, [0.0]), grid)[0])
    other = solve_coupled(pert)
    lhs = _trace_distance(base, other)
    return ExperimentReport(base.times, lhs, np.full(len(lhs), delta))


def stability_in_controls_experiment(scenario: Scenario, a_tilde: ex.Expr | None = None,
                                     b_tilde: ex.Expr | None = None,
                                     base: CoupledTrace | None = None) -> ExperimentReport:
    """Replace the controls and measure the solution response.

    Denominator: cumulative L1 norm (time x space) of the control change up
    to each output time.  ``base`` is the solve of the unchanged scenario,
    when the caller already has it.
    """
    grid = scenario.grid()
    if base is None:
        base = solve_coupled(scenario)
    pert = scenario
    if a_tilde is not None:
        pert = replace(pert, a=a_tilde)
    if b_tilde is not None:
        pert = replace(pert, b=b_tilde)
    other = solve_coupled(pert)
    lhs = _trace_distance(base, other)
    times = base.times
    def change(old: ex.Expr, new: ex.Expr | None) -> np.ndarray:
        if new is None:
            return np.zeros(len(times))
        return l1_norms(ex.sample_stack(old, grid, times)
                        - ex.sample_stack(new, grid, times), grid)

    return ExperimentReport(times, lhs, cumulative_left_riemann(
        change(scenario.a, a_tilde) + change(scenario.b, b_tilde), times))


@dataclass(frozen=True)
class PositivityReport:
    min_u: float
    min_w: float

    def passed(self, tol: float = 1e-12) -> bool:
        return self.min_u >= -tol and self.min_w >= -tol


def positivity_audit(trace: CoupledTrace) -> PositivityReport:
    """Minimum of both components; a measurement, never a gate."""
    # repeats BoundsReport.positivity_min, but the benchmark's gate
    # (perfbench/) calls it, so it can go only once a benchmark change
    # (ROADMAP item 4) has moved its tracer and gate
    return PositivityReport(float(np.min(trace.u.values)), float(np.min(trace.w.values)))
