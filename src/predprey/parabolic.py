"""Dirichlet reaction-diffusion solver with a sine-series Green oracle.

Solves  d_t w = mu * Lap w + B(t,x) w + b(t,x)  with zero boundary values.
Diffusion is implicit (theta = 1 backward Euler, theta = 1/2 trapezoidal with
coefficients at the half step); the reaction stays explicit inside the solve,
which keeps the linear system constant in time.  Both schemes require
dt * max|B| < 1, which keeps the sign of the explicit factor 1 + dt B and with
it the positivity of backward Euler.

The wall value 0 is imposed through antisymmetric ghost cells
(ghost = -first interior value), putting the homogeneous Dirichlet condition
exactly on the wall at second order; the sampled sine modes are then exact
eigenvectors of the discrete Laplacian.

For 1D problems with B = 0 an independent quadrature oracle is provided:
the Dirichlet Green function of the interval as a sine eigenexpansion, and
the associated source-representation formula (midpoint in space, composite
Simpson in time).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import TV_CONST_PARABOLIC
from .grid import Field, Grid, l1_norms, linf_norms, require_finite, total_variations
from .series import (InequalityCheck, Series, Trace, at_times, cumulative_left_riemann,
                     cumulative_simpson, difference, grade, integrated_norms, sampled,
                     step_times)
from .testfunctions import SineTestFunction, weak_residuals


class NonPositiveTime(ValueError):
    pass


class Requires1D(ValueError):
    pass


class StiffReaction(ValueError):
    """dt * max|B| >= 1 at some step: the explicit reaction factor 1 + dt B
    can change sign, under either scheme."""


@dataclass(frozen=True)
class ParabolicProblem:
    grid: Grid
    mu: float
    B: Series | None  # reaction coefficient, may be None for 0
    b: Series | None  # source, may be None for 0
    w0: Field

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("diffusivity mu must be positive")


@dataclass(frozen=True)
class Scheme:
    kind: str  # "implicit_euler" | "crank_nicolson"
    dt: float

    def __post_init__(self):
        if self.kind not in ("implicit_euler", "crank_nicolson"):
            raise ValueError(f"unknown scheme {self.kind!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def heat_kernel(mu: float, t: float, x) -> float:
    """Free-space Gaussian kernel value at time t and displacement x."""
    if t <= 0:
        raise NonPositiveTime("heat kernel requires t > 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    r2 = float(np.sum(x**2))
    return float((4.0 * math.pi * mu * t) ** (-n / 2.0) * math.exp(-r2 / (4.0 * mu * t)))


def green_interval(mu: float, t: float, tau: float, x: float, y: float,
                   length: float, n_terms: int) -> float:
    """Dirichlet Green function of (0, length) via the sine eigenexpansion.

    G = (2/L) sum_k exp(-mu (k pi / L)^2 (t - tau)) sin(k pi x / L) sin(k pi y / L),
    truncated at n_terms; tiny negative truncation noise is clamped to 0.
    """
    if not (t > tau >= 0):
        raise NonPositiveTime("green_interval requires t > tau >= 0")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    k = np.arange(1, n_terms + 1)
    freq = k * np.pi / length
    value = float(
        (2.0 / length)
        * np.sum(np.exp(-mu * freq**2 * (t - tau)) * np.sin(freq * x) * np.sin(freq * y))
    )
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def _sine_matrix(grid: Grid, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Sine modes sampled at cell centers, (n_cells, n_terms), plus eigenfrequencies."""
    lo, hi = grid.spec.bounds[0]
    length = hi - lo
    k = np.arange(1, n_terms + 1)
    freq = k * np.pi / length
    s = np.sin(np.outer(grid.axis_centers[0] - lo, freq))
    return s, freq


def duhamel_reference(problem: ParabolicProblem, t: float, n_terms: int = 200,
                      n_time: int = 64) -> Field:
    """Quadrature of the Green-function representation, 1D, B = 0 only.

    w(t,x) = int G(t,0,x,y) w0(y) dy + int_0^t int G(t,tau,x,y) b(tau,y) dy dtau,
    with midpoint quadrature in y (the grid cells) and composite Simpson in tau
    on ``n_time`` intervals of any count (``series.cumulative_simpson``).
    Fully independent of the time stepper; serves as its accuracy oracle.
    """
    if problem.grid.dim != 1:
        raise Requires1D("the Green-function oracle is implemented on intervals only")
    if problem.B is not None:
        raise ValueError("duhamel_reference requires B = 0")
    grid = problem.grid
    vol = grid.cell_volume
    s, freq = _sine_matrix(grid, n_terms)
    lo, hi = grid.spec.bounds[0]
    length = hi - lo
    decay = np.exp(-problem.mu * freq**2 * t)
    # modal coefficients of w0 by midpoint quadrature
    w0_hat = (2.0 / length) * (s.T @ problem.w0.values) * vol
    out = s @ (decay * w0_hat)
    if problem.b is not None and t > 0:
        taus = np.linspace(0.0, t, n_time + 1)
        # contiguous rows: a constant source comes as a broadcast view, and
        # the matrix product sums a stride-0 row in another order
        b_hat = np.stack(
            [(2.0 / length) * (s.T @ np.ascontiguousarray(b_tau)) * vol
             for b_tau in problem.b(taus)]
        )  # (n_time+1, n_terms)
        kernel = np.exp(-problem.mu * freq[None, :] ** 2 * (t - taus)[:, None])
        mode_integrals = cumulative_simpson(kernel * b_hat, taus)[-1]
        out = out + s @ mode_integrals
    return Field(grid, out)


def _dirichlet_laplacian_1d(values: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    v = values.swapaxes(0, axis)
    lap = np.empty_like(v)
    lap[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    lap[0] = v[1] - 3.0 * v[0]      # ghost = -v[0]: zero at the wall
    lap[-1] = v[-2] - 3.0 * v[-1]
    return lap.swapaxes(0, axis) / dx**2


def dirichlet_laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    out = _dirichlet_laplacian_1d(values, grid.dx[0], axis=0)
    if grid.dim == 2:
        out = out + _dirichlet_laplacian_1d(values, grid.dx[1], axis=1)
    return out


class AxisSolve(NamedTuple):
    """Exact solve of one axis's matrix A = I - coeff * Lap_1d, precomputed.

    A short axis is one block and ``block`` is the dense inverse of A.  A
    long axis is cut into equal blocks, the tail padded past the last cell,
    and D, block-diagonal, repeats the Toeplitz block
    tridiag(-coeff, 1 + 2 coeff, -coeff) whose inverse is ``block``.  The
    ghost terms of the two wall rows, the two couplings across each block
    interface and the removal of the last cell's coupling to the padding
    make a low-rank U = E F^T with A = D + U on the padded axis, and the
    Woodbury identity (the SPIKE partitioning of Polizzi & Sameh, Parallel
    Computing 32, 2006, with everything precomputed) gives

        A^-1 f = r - D^-1 E (I + F^T D^-1 E)^-1 F^T r,   r = D^-1 f.

    F^T r gathers r at ``rows``; ``reduced`` maps those values to each
    block's weights on the few columns of ``block`` that D^-1 E uses,
    ``spikes``.  The operator is small (40 kB at 1024 cells), so it stays
    in cache from one step to the next.
    """

    block: np.ndarray    # (size, size)
    rows: np.ndarray     # (K,) the cells F^T gathers
    reduced: np.ndarray  # (count * n_spikes, K)
    spikes: np.ndarray   # (size, n_spikes)


# The dense inverse costs about n^2 multiply-adds per rhs column, the blocked
# form a few calls plus n * size per column: an axis takes the dense inverse
# while it has at most _DENSE_CELLS cells and n^2 * columns stays at most
# _DENSE_WORK (see the per-call sweep in the README).
_DENSE_CELLS = 256
_DENSE_WORK = 64**3


def _block_size(n: int, columns: int = 1) -> int:
    """The whole axis for a dense solve of ``columns`` right-hand sides;
    else the power of two nearest (16 n)^(1/3), which balances the block
    products (n * size per column) against the interface correction
    (about 8 (n / size)^2)."""
    if n <= _DENSE_CELLS and n * n * columns <= _DENSE_WORK:
        return n
    return min(n, 2 ** round(math.log2(16 * n) / 3))


@functools.lru_cache(maxsize=16)
def _tridiagonal(n: int, coeff: float, columns: int = 1) -> AxisSolve:
    """The solve of (I - coeff * Lap_1d) on n cells for ``columns``
    right-hand sides at a time; wall rows carry the ghost.

    For coeff >= 0 the matrix is strictly diagonally dominant (each row's
    diagonal exceeds its off-diagonal sum by at least 1), hence never
    singular, and so are the Toeplitz block, the padded matrix D + E F^T
    and with them the capacitance matrix I + F^T D^-1 E.  The matrix is
    constant per step size and axis, so the solve is built once, cached,
    and shared: its arrays are read-only.
    """
    size = _block_size(n, columns)
    d = np.arange(size)
    matrix = np.zeros((size, size))
    matrix[d, d] = 1.0 + 2.0 * coeff
    matrix[d[:-1], d[1:]] = matrix[d[1:], d[:-1]] = -coeff
    if size == n:
        matrix[[0, -1], [0, -1]] = 1.0 + 3.0 * coeff
        solve = AxisSolve(np.linalg.inv(matrix), np.empty(0, dtype=int),
                          np.empty((0, 0)), np.empty((n, 0)))
    else:
        block = np.linalg.inv(matrix)
        count = -(-n // size)
        # U = sum_j weight_j e_coupled[j] e_rows[j]^T
        last = np.arange(1, count) * size - 1  # cell before each interface
        cut = [n - 1, n] if count * size > n else []
        coupled = np.concatenate(([0, n - 1], last, last + 1, cut)).astype(int)
        rows = np.concatenate(([0, n - 1], last + 1, last, cut[::-1])).astype(int)
        weight = np.concatenate(([coeff, coeff], np.full(2 * len(last), -coeff),
                                 np.full(len(cut), coeff)))
        owner, local = np.divmod(coupled, size)
        columns, slot = np.unique(local, return_inverse=True)
        # column j of D^-1 E is weight_j times column local_j of block,
        # placed in block owner_j
        same_block = rows[:, None] // size == owner[None, :]
        capacitance = np.eye(len(rows)) + np.where(
            same_block, block[(rows % size)[:, None], local[None, :]] * weight, 0.0)
        scatter = np.zeros((count * len(columns), len(rows)))
        scatter[owner * len(columns) + slot, np.arange(len(rows))] = weight
        reduced = np.linalg.solve(capacitance.T, scatter.T).T
        solve = AxisSolve(block, rows, reduced, block[:, columns])
    for array in solve:
        array.flags.writeable = False
    return solve


def _solve_axis(rhs: np.ndarray, solve: AxisSolve, axis: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Apply a precomputed axis solve along one axis of a 1D or 2D rhs,
    into ``out`` if given (a 1D solve by the dense inverse then allocates
    nothing)."""
    block, rows, reduced, spikes = solve
    moved = rhs.swapaxes(0, axis)
    n, size = len(moved), len(block)
    if size == n:
        if out is not None:
            return np.matmul(block, moved, out=out.swapaxes(0, axis)).swapaxes(0, axis)
        return (block @ moved).swapaxes(0, axis)
    count = -(-n // size)
    flat = moved.reshape(n, -1)
    if count * size > n:
        flat = np.concatenate((flat, np.zeros((count * size - n, flat.shape[1]))))
    x = block @ flat.reshape(count, size, -1)
    weights = reduced @ x.reshape(count * size, -1).take(rows, axis=0)
    x -= spikes @ weights.reshape(count, spikes.shape[1], -1)
    solved = x.reshape(count * size, -1)[:n].reshape(moved.shape).swapaxes(0, axis)
    if out is not None:
        out[...] = solved
        return out
    return solved


def coefficient_times(times: np.ndarray, kind: str) -> np.ndarray:
    """Where each step of the scheme evaluates B and b: the left end of the
    step for backward Euler, its midpoint for the trapezoidal scheme."""
    if kind == "crank_nicolson":
        return times[:-1] + 0.5 * np.diff(times)
    return times[:-1]


def coefficient_rows(times: np.ndarray, snapshots: np.ndarray, kind: str) -> np.ndarray:
    """Coefficient snapshots stored at the step times ``times``, one row per
    step at its coefficient_times: the stored left-end row for backward
    Euler, the blend of the step's two ends for the trapezoidal scheme."""
    if kind == "crank_nicolson":
        return sampled(times, snapshots)(coefficient_times(times, kind))
    return snapshots[:-1]


def step_sizes(times: np.ndarray, dt: float) -> np.ndarray:
    """The steps between ``times``, each within 1e-15 of dt snapped to dt,
    so that they share one cached axis solve."""
    steps = np.diff(times)
    return np.where(np.abs(steps - dt) < 1e-15, dt, steps)


# a state that overflows is rejected once, when the returned stack is
# validated; the steps after it would only repeat the warning
@np.errstate(over="ignore", invalid="ignore")
def march_imex(w0: np.ndarray, B: np.ndarray | None, b: np.ndarray | None,
               dts: np.ndarray, mu: float, kind: str, grid: Grid) -> np.ndarray:
    """IMEX steps in arrays; 2D handled by alternating-direction tridiagonal sweeps.

    Step k uses B[k], b[k] (either may be None for 0) and dts[k]; returns
    every state, shape (len(dts)+1, *grid.shape), unchecked: the caller
    validates them (a Trace or Field does, or ``require_finite``).
    Backward Euler in 2D uses sequential fully implicit sweeps (keeps the
    sign-preservation argument of the 1D solve); the trapezoidal scheme
    uses the Douglas splitting, second order in space with a first-order
    splitting remainder.  The explicit part w -> (1 + dt B) w + dt b of
    every step is built before the loop in whole-array operations, and the
    axis solves come from the ``_tridiagonal`` cache, looked up again only
    when the step size changes.  In 1D a step writes its explicit part into
    one reused buffer and solves it straight into the next state.  Both
    schemes take the reaction explicitly, so both need dt * max|B| < 1 at
    every step, the bound that keeps 1 + dt B positive: the march stops
    before the first step that breaks it and, once the states before it are
    known to be finite, raises StiffReaction.
    """
    n, dim = len(dts), grid.dim
    theta = 1.0 if kind == "implicit_euler" else 0.5
    n_ok, stiff = n, 0.0
    if B is not None:
        stiffness = dts * np.max(np.abs(B.reshape(n, -1)), axis=1)
        over = np.flatnonzero(stiffness >= 1.0)
        if over.size:
            n_ok, stiff = int(over[0]), stiffness[over[0]]
    dt_rows = dts[:n_ok].reshape((-1,) + (1,) * dim)
    gain = None if B is None else 1.0 + dt_rows * B[:n_ok]
    shift = None if b is None else dt_rows * b[:n_ok]
    out = np.empty((n_ok + 1,) + grid.shape)
    out[0] = w0
    buf = np.empty(grid.shape)
    for k in range(n_ok):
        dt, w = dts[k], out[k]
        if k == 0 or dt != dts[k - 1]:
            coeff = theta * dt * mu
            solves = [_tridiagonal(n_ax, coeff / h**2, w.size // n_ax)
                      for n_ax, h in zip(grid.shape, grid.dx)]
        # the explicit part (1 + dt B) w + dt b
        rhs = w if gain is None else np.multiply(gain[k], w, out=buf)
        if shift is not None:
            rhs = np.add(rhs, shift[k], out=buf)
        if dim == 1:
            if theta < 1.0:
                rhs = np.add(rhs, ((1.0 - theta) * dt * mu) * dirichlet_laplacian(w, grid),
                             out=buf)
            _solve_axis(rhs, solves[0], axis=0, out=out[k + 1])
        elif kind == "implicit_euler":
            out[k + 1] = _solve_axis(_solve_axis(rhs, solves[0], axis=0), solves[1], axis=1)
        else:
            # Douglas ADI, theta = 1/2
            lap_x = _dirichlet_laplacian_1d(w, grid.dx[0], axis=0)
            lap_y = _dirichlet_laplacian_1d(w, grid.dx[1], axis=1)
            rhs = rhs + (dt * mu) * (lap_x + lap_y)
            y1 = _solve_axis(rhs - theta * dt * mu * lap_x, solves[0], axis=0)
            out[k + 1] = _solve_axis(y1 - theta * dt * mu * lap_y, solves[1], axis=1)
    if n_ok < n:
        require_finite(out)
        raise StiffReaction(f"dt * max|B| = {stiff:.3g} >= 1")
    return out


def step_parabolic(w: Field, B_t: Field | None, b_t: Field | None, mu: float,
                   scheme: Scheme) -> Field:
    """One IMEX step of size scheme.dt (see march_imex)."""
    states = march_imex(w.values, None if B_t is None else B_t.values[None],
                        None if b_t is None else b_t.values[None],
                        np.array([scheme.dt]), mu, scheme.kind, w.grid)
    return Field(w.grid, states[1])


def solve_parabolic(problem: ParabolicProblem, T: float, scheme: Scheme,
                    t_start: float = 0.0) -> Trace:
    """March from t_start to t_start + T, storing every step with diagnostics.

    Steps are uniform at scheme.dt with a short final step landing exactly on
    the end time when T is not a multiple of dt.  The coefficients of all
    steps are fetched in one call per series.
    """
    times = step_times(T, scheme.dt, t_start)
    t_coeff = coefficient_times(times, scheme.kind)
    states = march_imex(
        problem.w0.values,
        at_times(problem.B, t_coeff), at_times(problem.b, t_coeff),
        step_sizes(times, scheme.dt), problem.mu, scheme.kind, problem.grid,
    )
    return Trace(problem.grid, times, states)


class ParabolicRhs(NamedTuple):
    """The data side of the diffusion estimates, one value per time."""

    l1: np.ndarray      # L1 bound
    linf: np.ndarray    # sup bound
    tv: np.ndarray      # TV bound
    growth: np.ndarray  # exp(int |B|_sup)


def parabolic_rhs(times: np.ndarray, grid: Grid, w0: np.ndarray, B: np.ndarray | None,
                  b: np.ndarray | None) -> ParabolicRhs:
    """The L1 / sup / TV a-priori bounds of the solution from the datum
    ``w0`` and the coefficient stacks at ``times`` (``B``, ``b`` None for 0).

    The TV bound's unquantified O(1) factor is replaced by the frozen
    calibration constant (see calibration module).
    """
    B_sup = np.zeros(len(times)) if B is None else linf_norms(B, grid)
    int_b_l1, int_b_sup, int_b_tv = integrated_norms(b, times, grid)
    growth = np.exp(cumulative_left_riemann(B_sup, times))
    w0_l1 = l1_norms(w0, grid)
    l1 = (w0_l1 + int_b_l1) * growth
    linf = (linf_norms(w0, grid) + int_b_sup) * growth
    tv = (total_variations(w0, grid) + int_b_tv
          + TV_CONST_PARABOLIC * np.sqrt(times - times[0]) * np.maximum.accumulate(B_sup)
          * (w0_l1 + int_b_l1) * growth)
    return ParabolicRhs(l1, linf, tv, growth)


def check_parabolic_bounds(trace: Trace, problem: ParabolicProblem
                           ) -> tuple[InequalityCheck, InequalityCheck, InequalityCheck]:
    """Evaluate the L1 / sup / TV a-priori bounds (``parabolic_rhs``) against
    the measured trace; violations are reported, never raised."""
    times = trace.times
    rhs = parabolic_rhs(times, problem.grid, trace.values[0], at_times(problem.B, times),
                        at_times(problem.b, times))
    return (grade("w_l1_vs_data", times, trace.l1, rhs.l1),
            grade("w_linf_vs_data", times, trace.linf, rhs.linf),
            grade("w_tv_vs_data", times, trace.tv, rhs.tv))


def parabolic_stability_experiment(problem1: ParabolicProblem, problem2: ParabolicProblem,
                                   T: float, scheme: Scheme) -> InequalityCheck:
    """Measured distance of two solutions against the explicit stability bound.

    RHS = (|w01-w02|_L1 + int |b1-b2|_L1) exp(int |B1|)
        + int |B1-B2|_L1 (|w02|_sup + int |b2|_sup) exp(int |B2|) exp(int |B1|),
    the L1 bound of the difference (datum w01-w02, reaction B1, source b1-b2)
    plus int |B1-B2|_L1 times problem 2's sup bound and the difference's
    growth, all from ``parabolic_rhs``.
    """
    tr1 = solve_parabolic(problem1, T, scheme)
    tr2 = solve_parabolic(problem2, T, scheme)
    times, grid = tr1.times, problem1.grid
    B1, b1 = at_times(problem1.B, times), at_times(problem1.b, times)
    B2, b2 = at_times(problem2.B, times), at_times(problem2.b, times)
    gap = parabolic_rhs(times, grid, tr1.values[0] - tr2.values[0], B1, difference(b1, b2))
    rhs2 = parabolic_rhs(times, grid, tr2.values[0], B2, b2)
    int_dB = integrated_norms(difference(B1, B2), times, grid)[0]
    return grade("w_stability", times, l1_norms(tr1.values - tr2.values, grid),
                 gap.l1 + int_dB * rhs2.linf * gap.growth)


def weak_residual_parabolic(trace: Trace, problem: ParabolicProblem,
                            test_functions: list[SineTestFunction]) -> np.ndarray:
    """Space-time quadrature of the weak form against each test function.

    residual = int int (w dphi/dt + mu w Lap phi + (B w + b) phi) + int w0 phi(0)
    (``weak_residuals``); the exact weak solution gives 0, so the value
    measures solver plus quadrature error and must shrink under refinement.
    """
    lap = np.stack([tf.space_laplacian(problem.grid) for tf in test_functions])
    return weak_residuals(trace, problem.w0.values, test_functions,
                          [(trace.values, problem.mu * lap)],
                          at_times(problem.B, trace.times), at_times(problem.b, trace.times))
