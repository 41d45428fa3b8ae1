"""Linear transport with zero-inflow boundary: characteristics oracle + upwind FV.

Solves  d_t u + div(c(t,x) u) = A(t,x) u + a(t,x)  on the box with the
Dirichlet condition enforced only where characteristics enter the domain
(zero-inflow); at outflow the condition is dropped.

Two independent routes:

* a characteristics oracle that integrates backward along  dx/dt = c(t,x)
  (RK4 on interpolated velocity, bisection-refined boundary crossings) and
  assembles the representation-formula value, exact up to ODE/quadrature
  error; and
* a conservative dimension-split upwind finite-volume scheme under a CFL
  restriction, the production stepping path, marched as precomputed
  three-point stencils.

Every stability/variation estimate used by the coupled system ships here as
an executable check against measured norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import TV_CONST_HYPERBOLIC
from .grid import (Field, Grid, VectorField, divergences, gradient_components,
                   interp_values, l1_norms, linf_norms, require_finite, total_variations)
from .series import (InequalityCheck, Series, Trace, at_times, cumulative_left_riemann,
                     cumulative_simpson, difference, grade, integrated_norms, step_times)
from .testfunctions import SineTestFunction, weak_residuals


class CflViolation(ValueError):
    pass


@dataclass(frozen=True)
class TransportProblem:
    grid: Grid
    c: Series             # (n, dim, *grid.shape) stacks
    A: Series | None      # reaction coefficient, None for 0
    a: Series | None      # source, None for 0
    u0: np.ndarray        # the datum, shape grid.shape


@dataclass(frozen=True)
class CharPath:
    """One backward characteristic: samples of X(s; t_origin, x_origin).

    ``times`` ascend from either 0 (path reaches the initial time) or the
    boundary entry time (path leaves the domain); in the latter case the
    first sample sits on the boundary and ``exit_time`` records when.
    """

    t_origin: float
    x_origin: np.ndarray
    times: np.ndarray
    points: np.ndarray  # (len(times), dim)
    exited: bool
    exit_time: float | None


def divergence_series(c_series: Series, grid: Grid) -> Series:
    return lambda times: divergences(c_series(times), grid)


def _inside(grid: Grid, pts: np.ndarray) -> np.ndarray:
    ok = np.ones(pts.shape[0], dtype=bool)
    for ax, (lo, hi) in enumerate(grid.spec.bounds):
        ok &= (pts[:, ax] > lo) & (pts[:, ax] < hi)
    return ok


def _clip_to_box(grid: Grid, pts: np.ndarray) -> np.ndarray:
    out = pts.copy()
    for ax, (lo, hi) in enumerate(grid.spec.bounds):
        out[:, ax] = np.clip(out[:, ax], lo, hi)
    return out


class _BackwardPaths:
    """Batched backward characteristics on a shared uniform time grid."""

    def __init__(self, c_series: Series, grid: Grid, t_end: float,
                 points: np.ndarray, dt_ode: float):
        self.grid = grid
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        n_steps = max(1, int(math.ceil(t_end / dt_ode - 1e-12)))
        h = t_end / n_steps
        # ascending times 0 .. t_end; positions filled backward from the top
        self.times = np.linspace(0.0, t_end, n_steps + 1)
        self.positions = np.empty((n_steps + 1, m, grid.dim))
        self.positions[-1] = pts
        self.exit_time = np.full(m, np.nan)
        alive = np.ones(m, dtype=bool)

        def vel(t: float, p: np.ndarray) -> np.ndarray:
            comps = c_series(np.array([t]))[0]
            return np.stack(
                [interp_values(grid, comps[k], p) for k in range(grid.dim)],
                axis=-1,
            )

        def rk4(t: float, p: np.ndarray, step: float):
            k1 = vel(t, p)
            k2 = vel(t - step / 2, p - step / 2 * k1)
            k3 = vel(t - step / 2, p - step / 2 * k2)
            k4 = vel(t - step, p - step * k3)
            return p - step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), k1, k4

        tol_t = max(1e-10 * t_end, 1e-15)
        pos = pts.copy()
        for j in range(n_steps, 0, -1):
            t_hi = self.times[j]
            alive_before = alive.copy()
            stepped, k1, k4 = rk4(t_hi, pos, h)
            crossed = alive_before & ~_inside(grid, stepped)
            if np.any(crossed):
                # bisection on the cubic Hermite dense output of the step
                idx = np.nonzero(crossed)[0]
                y0, y1 = pos[idx], stepped[idx]
                m0, m1 = -h * k1[idx], -h * k4[idx]

                def dense(lam):
                    lam = lam[:, None]
                    l2, l3 = lam * lam, lam * lam * lam
                    return ((2 * l3 - 3 * l2 + 1) * y0 + (l3 - 2 * l2 + lam) * m0
                            + (-2 * l3 + 3 * l2) * y1 + (l3 - l2) * m1)

                lam_in = np.zeros(len(idx))
                lam_out = np.ones(len(idx))
                for _ in range(max(1, int(np.ceil(np.log2(h / tol_t))))):
                    mid = 0.5 * (lam_in + lam_out)
                    inside = _inside(grid, dense(mid))
                    lam_in = np.where(inside, mid, lam_in)
                    lam_out = np.where(inside, lam_out, mid)
                self.exit_time[idx] = t_hi - lam_out * h
                stepped[idx] = _clip_to_box(grid, dense(lam_out))
                alive[idx] = False
            # crossed points carry their exit position; dead points stay frozen
            pos = np.where(alive_before[:, None], stepped, pos)
            self.positions[j - 1] = pos
        self.exited = ~np.isnan(self.exit_time)


def trace_characteristic(problem: TransportProblem, t_end: float, x_end,
                         dt_ode: float) -> CharPath:
    """Backward characteristic through (t_end, x_end), exit-time refined."""
    x_end = np.atleast_1d(np.asarray(x_end, dtype=float))
    if not _inside(problem.grid, x_end[None, :])[0]:
        raise ValueError(f"query point {x_end} is not inside the domain")
    if t_end <= 0:
        return CharPath(t_end, x_end, np.array([0.0]), x_end[None, :], False, None)
    paths = _BackwardPaths(problem.c, problem.grid, t_end, x_end[None, :], dt_ode)
    times = paths.times
    pts = paths.positions[:, 0, :]
    if bool(paths.exited[0]):
        exit_time = float(paths.exit_time[0])
        keep = times > exit_time + 1e-15
        # the frozen samples below the crossing all hold the exact exit position
        times_out = np.concatenate([[exit_time], times[keep]])
        pts_out = np.concatenate([pts[0][None, :], pts[keep]])
        return CharPath(t_end, x_end, times_out, pts_out, True, exit_time)
    return CharPath(t_end, x_end, times, pts, False, None)


def _along_paths(problem: TransportProblem, times: np.ndarray, points: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """A - div c and the source a (None for 0) at ``points`` (n, m, dim), row
    k of the points at times[k]; each of shape (n, m)."""
    grid = problem.grid
    g = -interp_values(grid, divergence_series(problem.c, grid)(times), points)
    if problem.A is not None:
        g += interp_values(grid, problem.A(times), points)
    return g, None if problem.a is None else interp_values(grid, problem.a(times), points)


def exponential_weight(path: CharPath, problem: TransportProblem, tau: float,
                       t: float) -> float:
    """exp of the Simpson quadrature of A - div c along the stored path, on at
    least 16 and an even number of intervals, two per stored path step."""
    lo = float(path.times[0])
    if not (lo - 1e-9 <= tau <= t <= path.t_origin + 1e-9):
        raise ValueError(f"[{tau}, {t}] outside the path span [{lo}, {path.t_origin}]")
    if t - tau <= 0:
        return 1.0
    span = max(1, int(math.ceil((t - tau) / max(path.times[-1] - path.times[0], 1e-300)
                                * (len(path.times) - 1))))
    nodes = np.linspace(tau, t, max(16, 2 * span) + 1)
    pts = np.stack([np.interp(nodes, path.times, x) for x in path.points.T], axis=-1)
    g = _along_paths(problem, nodes, pts[:, None])[0][:, 0]
    return float(np.exp(cumulative_simpson(g, nodes)[-1]))


def characteristics_solution_at(problem: TransportProblem, t: float,
                                points: np.ndarray, dt_ode: float) -> np.ndarray:
    """Representation-formula value at each query point (vectorized oracle).

    Points whose backward path reaches the initial time pick up the advected
    initial datum plus the accumulated source; points whose path enters
    through the boundary only accumulate the source after the entry time,
    realizing the zero-inflow condition exactly.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if t <= 0:
        return interp_values(problem.grid, problem.u0, pts)
    paths = _BackwardPaths(problem.c, problem.grid, t, pts, dt_ode)
    s = paths.times                       # ascending, (S+1,)
    X = paths.positions                   # (S+1, m, dim)
    g, a_vals = _along_paths(problem, s, X)
    cum_g = cumulative_simpson(g, s)
    weight = np.exp(cum_g[-1] - cum_g)    # E(s_i, t) per node and point
    cum_ae = None if a_vals is None else cumulative_simpson(a_vals * weight, s)
    interior = ~paths.exited
    values = np.zeros(pts.shape[0])
    values[interior] = (interp_values(problem.grid, problem.u0, X[0][interior])
                        * weight[0][interior])
    if cum_ae is not None:
        values[interior] += cum_ae[-1][interior]
        for idx in np.nonzero(paths.exited)[0]:
            tau_star = paths.exit_time[idx]
            k = int(np.searchsorted(s, tau_star, side="left"))
            tail = cum_ae[-1, idx] - cum_ae[k, idx]
            # partial segment [tau*, s_k]: trapezoid with the exact exit sample
            seg = s[k] - tau_star
            if seg > 1e-15:
                g_star, a_star = (v[0, 0] for v in
                                  _along_paths(problem, np.array([tau_star]), X[:1, idx:idx + 1]))
                w_star = weight[k, idx] * math.exp(0.5 * seg * (g_star + g[k, idx]))
                tail += 0.5 * seg * (a_star * w_star + a_vals[k, idx] * weight[k, idx])
            values[idx] = tail
    return values


def characteristics_solution_field(problem: TransportProblem, t: float,
                                   dt_ode: float) -> np.ndarray:
    """The oracle at every cell center, shape grid.shape."""
    vals = characteristics_solution_at(problem, t, problem.grid.center_points(), dt_ode)
    return vals.reshape(problem.grid.shape)


def _axis_stencils(c_axis: np.ndarray, ratios: np.ndarray) -> tuple[np.ndarray, ...]:
    """Upwind stencil rows of one velocity component, sweep axis first after time.

    ``c_axis`` has shape (n_steps, n_cells_along_axis, ...) and ``ratios``
    holds dt/dx per step.  The conservative update v_i - r (F_{i+1/2} -
    F_{i-1/2}) takes the face flux F = max(c_f, 0) v_left + min(c_f, 0)
    v_right at the mean c_f of the two cell speeds, and at the walls lets
    inflow carry the exterior 0 and outflow upwind the interior value.  It
    is the three-point stencil lower_i v_{i-1} + diag_i v_i + upper_i
    v_{i+1}; returns (lower, diag, upper), lower and upper one row shorter
    along the axis (there is no cell beyond a wall).
    """
    r = ratios.reshape((-1,) + (1,) * (c_axis.ndim - 1))
    c_face = 0.5 * (c_axis[:, :-1] + c_axis[:, 1:])
    pos, neg = np.maximum(c_face, 0.0), np.minimum(c_face, 0.0)
    # each cell's outflow through its right face and inflow through its left
    right = np.concatenate((pos, np.maximum(c_axis[:, -1:], 0.0)), axis=1)
    left = np.concatenate((np.minimum(c_axis[:, :1], 0.0), neg), axis=1)
    return r * pos, 1.0 - r * (right - left), -r * neg


def _sweep(v: np.ndarray, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
           out: np.ndarray) -> None:
    """out = lower_i v_{i-1} + diag_i v_i + upper_i v_{i+1} along axis 0."""
    np.multiply(diag, v, out=out)
    out[1:] += lower * v[:-1]
    out[:-1] += upper * v[1:]


# a state that overflows is rejected once, when the returned stack is
# validated; the steps after it would only repeat the warning
@np.errstate(over="ignore", invalid="ignore")
def march_upwind(u0: np.ndarray, c: np.ndarray, A: np.ndarray | None,
                 a: np.ndarray | None, dts: np.ndarray, grid: Grid) -> np.ndarray:
    """Dimension-split upwind steps with explicit Euler source, all in arrays.

    Step k uses c[k] (dim, *grid.shape), A[k], a[k] (grid.shape, either may
    be None for 0) and dts[k]; returns every state, shape (len(dts)+1,
    *grid.shape), unchecked: the caller validates them (a Trace does, or
    ``require_finite``).
    The CFL limit is checked for all steps up front; the march stops before
    the first violating step and, once the states before it are known to be
    finite, raises CflViolation.  Every step's coefficients are built
    before the loop in whole-array operations: per axis the stencil rows of
    ``_axis_stencils``, and the source as u -> (1 + dt A) u + dt a.  A step
    is then one ``_sweep`` per axis and at most two in-place updates.
    """
    n, dim = len(dts), grid.dim
    cmax = np.max(np.abs(c.reshape(n, -1)), axis=1)
    cfl = dts * cmax / min(grid.dx)
    over = np.flatnonzero(cfl > 0.9 + 1e-12)
    n_ok = int(over[0]) if over.size else n
    # axis ax of a (<= 2D) field moved first is a swap with axis 0; each
    # axis's rows regrouped per step as (lower, diag, upper)
    stencils = [tuple(zip(*_axis_stencils(c[:n_ok, ax].swapaxes(1, ax + 1),
                                          dts[:n_ok] / grid.dx[ax])))
                for ax in range(dim)]
    dt_rows = dts[:n_ok].reshape((-1,) + (1,) * dim)
    gain = None if A is None else 1.0 + dt_rows * A[:n_ok]
    shift = None if a is None else dt_rows * a[:n_ok]
    out = np.empty((n_ok + 1,) + grid.shape)
    out[0] = u0
    half = np.empty(grid.shape) if dim == 2 else None
    for k in range(n_ok):
        nxt = out[k + 1]
        if dim == 1:
            _sweep(out[k], *stencils[0][k], out=nxt)
        else:
            _sweep(out[k], *stencils[0][k], out=half)
            _sweep(half.T, *stencils[1][k], out=nxt.T)
        if gain is not None:
            nxt *= gain[k]
        if shift is not None:
            nxt += shift[k]
    if over.size:
        require_finite(out)
        raise CflViolation(f"dt*max|c|/min(dx) = {cfl[n_ok]:.3f} exceeds 0.9")
    return out


def fv_upwind_step(u: Field, c_t: VectorField, A_t: Field | None, a_t: Field | None,
                   dt: float) -> Field:
    """One dimension-split upwind step with explicit Euler source."""
    # the benchmark (perfbench/) wraps and counts this name, so it can go only
    # once a benchmark change (ROADMAP item 4) has moved its tracer and gate
    states = march_upwind(u.values, c_t.components[None],
                          None if A_t is None else A_t.values[None],
                          None if a_t is None else a_t.values[None],
                          np.array([dt]), u.grid)
    return Field(u.grid, states[1])


def coefficient_times(times: np.ndarray) -> np.ndarray:
    """Where each step evaluates c, A and a: the left end of the step."""
    return times[:-1]


def solve_hyperbolic(problem: TransportProblem, T: float, dt: float,
                     t_start: float = 0.0) -> Trace:
    """Upwind march from t_start to t_start + T, trace stored every step.

    Each step takes its coefficients at its left end; they are fetched for
    the whole march in one call per series.
    """
    times = step_times(T, dt, t_start)
    left = coefficient_times(times)
    states = march_upwind(
        problem.u0, problem.c(left),
        at_times(problem.A, left), at_times(problem.a, left),
        np.diff(times), problem.grid,
    )
    return Trace(problem.grid, times, states)


def _grad_div_l1(div: np.ndarray, grid: Grid) -> np.ndarray:
    """L1 norm of |grad div c| per time of a divergence stack."""
    grad = gradient_components(div, grid)
    return l1_norms(np.sqrt(sum(g**2 for g in grad)), grid)


def _sup_jacobian(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Largest |d c_k / d x_j| per time of a velocity stack (n, dim, *grid.shape)."""
    return np.max([linf_norms(g, grid) for k in range(grid.dim)
                   for g in gradient_components(c[:, k], grid)], axis=0)


class TransportRhs(NamedTuple):
    """The data side of the transport estimates, one value per time."""

    l1: np.ndarray        # L1 bound
    linf: np.ndarray      # sup bound
    tv: np.ndarray        # TV bound
    data_sup: np.ndarray  # |u0|_sup + int |a|_sup


def transport_rhs(times: np.ndarray, grid: Grid, u0: np.ndarray, c: np.ndarray,
                  A: np.ndarray | None, a: np.ndarray | None) -> TransportRhs:
    """The L1 / sup / TV bounds of the solution from the datum ``u0`` and the
    coefficient stacks at ``times`` (``A``, ``a`` None for 0).

    All coefficient norms (including div c, D_x c, grad div c) come from
    discrete differentiation of the sampled velocity; time integrals use the
    left-endpoint rule matching the explicit stepping.
    """
    zero = np.zeros(len(times))
    A_sup, A_tv = (zero, zero) if A is None else (linf_norms(A, grid),
                                                  total_variations(A, grid))
    int_a_l1, int_a_sup, int_a_tv = integrated_norms(a, times, grid)
    div = divergences(c, grid)
    int_A_sup = cumulative_left_riemann(A_sup, times)
    u0_sup = linf_norms(u0, grid)
    data_sup = u0_sup + int_a_sup
    l1 = ((l1_norms(u0, grid) + int_a_l1)
          * np.exp(np.maximum.accumulate(A_sup) * (times - times[0])))
    linf = data_sup * np.exp(int_A_sup + cumulative_left_riemann(linf_norms(div, grid), times))
    tv = np.exp(int_A_sup + cumulative_left_riemann(_sup_jacobian(c, grid), times)) * (
        total_variations(u0, grid) + TV_CONST_HYPERBOLIC * u0_sup + int_a_tv
        + data_sup * cumulative_left_riemann(A_tv + _grad_div_l1(div, grid), times)
    )
    return TransportRhs(l1, linf, tv, data_sup)


def _problem_rhs(problem: TransportProblem, trace: Trace) -> TransportRhs:
    """transport_rhs of a problem at the times of its trace."""
    times = trace.times
    return transport_rhs(times, problem.grid, trace.values[0], problem.c(times),
                         at_times(problem.A, times), at_times(problem.a, times))


def check_hyperbolic_bounds(trace: Trace, problem: TransportProblem
                            ) -> tuple[InequalityCheck, InequalityCheck, InequalityCheck]:
    """Measured L1 / sup / TV norms against the data-side estimates
    (``transport_rhs``)."""
    rhs = _problem_rhs(problem, trace)
    return (grade("u_l1_vs_data", trace.times, trace.l1, rhs.l1),
            grade("u_linf_vs_data", trace.times, trace.linf, rhs.linf),
            grade("u_tv_vs_data", trace.times, trace.tv, rhs.tv))


def stability_in_A(problem1: TransportProblem, problem2: TransportProblem,
                   T: float, dt: float) -> InequalityCheck:
    """Distance of two solves differing only in the reaction coefficient.

    RHS = exp(t max(|A1|_sup, |A2|_sup)) (|u0|_sup + int |a|_sup) int |A2 - A1|_L1.
    """
    tr1 = solve_hyperbolic(problem1, T, dt)
    tr2 = solve_hyperbolic(problem2, T, dt)
    times, grid = tr1.times, problem1.grid
    A1, A2 = at_times(problem1.A, times), at_times(problem2.A, times)
    sups = [np.maximum.accumulate(linf_norms(A, grid)) for A in (A1, A2) if A is not None]
    worst = np.max([np.zeros(len(times)), *sups], axis=0)
    data_sup = transport_rhs(times, grid, tr1.values[0], problem1.c(times), A1,
                             at_times(problem1.a, times)).data_sup
    rhs = (np.exp((times - times[0]) * worst) * data_sup
           * integrated_norms(difference(A2, A1), times, grid)[0])
    return grade("u_stability_in_A", times, l1_norms(tr1.values - tr2.values, grid), rhs)


def stability_in_c(problem1: TransportProblem, problem2: TransportProblem,
                   T: float, dt: float) -> InequalityCheck:
    """Distance of two solves differing only in the velocity field.

    RHS = rhs_l1 int |div(c2 - c1)|_sup + int |c2 - c1|_sup rhs_tv, with the
    L1 and TV bounds of the first problem (``transport_rhs``).
    """
    tr1 = solve_hyperbolic(problem1, T, dt)
    tr2 = solve_hyperbolic(problem2, T, dt)
    times, grid = tr1.times, problem1.grid
    rhs = _problem_rhs(problem1, tr1)
    dc = problem2.c(times) - problem1.c(times)
    int_ddiv = cumulative_left_riemann(linf_norms(divergences(dc, grid), grid), times)
    int_dc = cumulative_left_riemann(linf_norms(np.sqrt(np.sum(dc**2, axis=1)), grid), times)
    return grade("u_stability_in_c", times, l1_norms(tr1.values - tr2.values, grid),
                 rhs.l1 * int_ddiv + int_dc * rhs.tv)


@dataclass(frozen=True)
class TimeLipschitzReport:
    modulus: float            # max over all pairs of |u(t2)-u(t1)|_L1 / (t2-t1)
    consecutive: np.ndarray   # per-step quotients


def time_lipschitz_check(trace: Trace) -> TimeLipschitzReport:
    if len(trace.times) < 3:
        raise ValueError("need at least 3 trace times")
    grid, times, values = trace.grid, trace.times, trace.values
    worst = 0.0
    for i in range(len(times) - 1):
        later = l1_norms(values[i + 1:] - values[i], grid) / (times[i + 1:] - times[i])
        worst = max(worst, float(np.max(later)))
    consecutive = l1_norms(np.diff(values, axis=0), grid) / np.diff(times)
    return TimeLipschitzReport(worst, consecutive)


def weak_residual_hyperbolic(trace: Trace, problem: TransportProblem,
                             test_functions: list[SineTestFunction]) -> np.ndarray:
    """Quadrature of the transport weak form (with initial term) per test function:
    ``weak_residuals`` with the adjoint term c u . grad phi and forcing A u + a."""
    grid, times, u = problem.grid, trace.times, trace.values
    c = problem.c(times)
    grad = np.stack([tf.space_gradient(grid) for tf in test_functions])
    adjoint = [(c[:, ax] * u, grad[:, ax]) for ax in range(grid.dim)]
    return weak_residuals(trace, u[0], test_functions, adjoint, at_times(problem.A, times),
                          at_times(problem.a, times))
