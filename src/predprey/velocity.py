"""Radial averaging kernel, boundary-renormalized convolution, nonlocal drift.

The drift species senses the diffusing species through a spatial average: a
compactly supported radial kernel of horizon ``ell`` is convolved with the
density, and near the boundary the average is renormalized by the kernel
mass remaining inside the domain, so the average of a constant stays that
constant at every cell.  The drift velocity points along the gradient of
the averaged density, with speed kappa * |g| / sqrt(1 + |g|^2) <= kappa.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (DomainSpec, Field, Grid, VectorField, build_grid, gradient_components,
                   l1_norms, linf_norms, require_finite)


class HorizonTooSmall(ValueError):
    """Kernel horizon must span more than two cells."""


class DegenerateSample(ValueError):
    """A zero-mass sample produced a nonzero velocity."""


def radial_profile(r, ell: float, ell_bar: float):
    """Quartic bump profile: ell_bar * (ell^4 - r^4)^4 on [0, ell], 0 beyond."""
    r = np.asarray(r, dtype=float)
    inside = r <= ell
    vals = np.where(inside, ell_bar * np.clip(ell**4 - r**4, 0.0, None) ** 4, 0.0)
    return vals


def _normalization(ell: float, dim: int) -> float:
    """Normalize so the kernel integrates to 1 over R^dim.

    The radial mass is exact: int_0^ell (ell^4 - r^4)^4 dr = 2048/3315 ell^17
    in 1D, and int_0^ell (ell^4 - r^4)^4 r dr = 64/315 ell^18 in 2D.
    """
    if dim == 1:
        mass = 2048.0 / 3315.0 * ell**17
        return 1.0 / (2.0 * mass)
    mass = 64.0 / 315.0 * ell**18
    return 1.0 / (2.0 * np.pi * mass)


@dataclass(frozen=True)
class Kernel:
    """Discretized averaging kernel bound to one grid.

    ``weights`` is the full stencil window (midpoint samples of the profile,
    renormalized so the window sums to exactly 1/cell_volume), ``transform``
    the real FFT of the flipped window zero-padded to n + m - 1 points along
    each grid axis (n cells, m stencil points), and ``denominators`` the
    per-cell window mass clipped to the domain, in (0, 1].  Immutable and
    read-only: ``make_kernel`` hands the same instance to every caller with
    the same horizon, domain and cell counts.  A 1D kernel of at most
    ``DENSE_DRIFT_CELLS`` cells also has a drift matrix (``drift_matrix``),
    built on first use and shared the same way.
    """

    grid: Grid
    ell: float
    ell_bar: float
    weights: np.ndarray
    transform: np.ndarray
    denominators: np.ndarray

    @property
    def radius_cells(self) -> tuple[int, ...]:
        return tuple((s - 1) // 2 for s in self.weights.shape)


def make_kernel(ell: float, grid: Grid) -> Kernel:
    """The shared, read-only kernel of horizon ell on grid (``_shared_kernel``).

    Every call with the same horizon, domain and cell counts returns the same
    instance, so a run builds its kernel once for the solve, the first
    window's plan and the ledger.  A horizon of at most two cells raises
    HorizonTooSmall on every call: failures are not cached.
    """
    return _shared_kernel(float(ell), grid.spec, grid.n_cells)


@functools.lru_cache(maxsize=8)
def _shared_kernel(ell: float, spec: DomainSpec, n_cells: tuple[int, ...]) -> Kernel:
    """The kernel of horizon ell on the grid of spec and n_cells; weights,
    transform and denominators read-only.  Keyed on what the kernel is built
    from, because a Grid holds arrays and is not hashable;
    ``_shared_kernel.__wrapped__`` builds a new one.

    The denominators are the correlation of the all-ones density with the
    window, computed by the same FFT path as every average.
    """
    grid = build_grid(spec, n_cells)
    if ell <= 2.0 * max(grid.dx):
        raise HorizonTooSmall(
            f"horizon {ell} must exceed twice the largest spacing {max(grid.dx)}"
        )
    ell_bar = _normalization(ell, grid.dim)
    radii = tuple(int(np.floor(ell / h)) for h in grid.dx)
    axes = [np.arange(-r, r + 1) * h for r, h in zip(radii, grid.dx)]
    if grid.dim == 1:
        dist = np.abs(axes[0])
    else:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        dist = np.sqrt(gx**2 + gy**2)
    weights = radial_profile(dist, ell, ell_bar)
    # Discrete renormalization: the full window then carries unit mass exactly,
    # so interior averages of a constant reproduce the constant to rounding.
    weights = weights / (weights.sum() * grid.cell_volume)
    weights.setflags(write=False)
    flipped = weights[(slice(None, None, -1),) * grid.dim]
    transform = np.fft.rfftn(flipped, _padded_shape(grid.shape, weights.shape),
                             axes=tuple(range(grid.dim)))
    transform.setflags(write=False)
    denominators = _correlate(np.ones(grid.shape), transform, weights.shape) * grid.cell_volume
    denominators.setflags(write=False)
    return Kernel(grid, float(ell), float(ell_bar), weights, transform, denominators)


def _padded_shape(grid_shape: tuple[int, ...], window_shape: tuple[int, ...]) -> tuple[int, ...]:
    """FFT length per grid axis: n + m - 1, so the linear correlation never wraps."""
    return tuple(n + m - 1 for n, m in zip(grid_shape, window_shape))


def _correlate(values: np.ndarray, transform: np.ndarray,
               window_shape: tuple[int, ...]) -> np.ndarray:
    """Zero-padded correlation of the trailing grid axes of values with the window.

    ``transform`` is the real FFT of the flipped window at ``_padded_shape``.
    One rfftn, a product and one irfftn over the grid axes give the full
    linear convolution with the flipped window; the centred slice of grid
    size is the correlation.  Leading axes of a stack are carried along.
    """
    dim = len(window_shape)
    grid_shape = values.shape[-dim:]
    shape = _padded_shape(grid_shape, window_shape)
    axes = tuple(range(-dim, 0))
    full = np.fft.irfftn(np.fft.rfftn(values, shape, axes=axes) * transform, shape, axes=axes)
    centred = tuple(slice((m - 1) // 2, (m - 1) // 2 + n)
                    for n, m in zip(grid_shape, window_shape))
    return full[(Ellipsis,) + centred]


def _average(values: np.ndarray, kernel: Kernel) -> np.ndarray:
    """modified_convolution on raw values: one density or a stack (n, *grid.shape).

    The numerator is one FFT correlation over the grid axes of the whole
    stack (``_correlate``); each density's rows depend on that density alone.
    """
    num = _correlate(values, kernel.transform, kernel.weights.shape)
    return num * kernel.grid.cell_volume / kernel.denominators


def modified_convolution(rho: Field, kernel: Kernel) -> Field:
    """Average of rho around each cell, renormalized by the in-domain kernel mass."""
    # the benchmark (perfbench/) wraps and counts this name, so it can go only
    # once a benchmark change (ROADMAP item 4) has moved its tracer and gate
    return Field(rho.grid, _average(rho.values, kernel))


# The linear part of the 1D drift, w -> grad(average of w), is one fixed
# n x n matrix.  Per call on one core of a 2-vCPU host (best of 7 x 50 calls,
# us, FFT path -> matrix product, for 4 / 41 / 64 rows of a stack):
#   64 cells:   128 -> 10,   211 -> 27,   193 -> 27
#   128 cells:  103 -> 10,   219 -> 50,   263 -> 91
#   256 cells:   95 -> 25,   300 -> 216,  670 -> 316
#   512 cells:  194 -> 245,  758 -> 799, 1244 -> 1115
#   1024 cells: 277 -> 946, 1732 -> 3360, 2932 -> 4680
# The matrix takes 0.4 / 1.0 / 4.1 / 21 / 84 ms to build and 0.03 / 0.13 /
# 0.52 / 2.1 / 8.4 MB to keep at 64 ... 1024 cells, so 1D grids of up to 256
# cells take the product and longer ones, and 2D grids, the FFT path.
DENSE_DRIFT_CELLS = 256


@functools.lru_cache(maxsize=8)
def _drift_matrix(ell: float, spec: DomainSpec, n_cells: tuple[int, ...]) -> np.ndarray:
    """G with grad(average of w) = w @ G on a 1D grid: row j is the FFT path
    (``_average`` and the ``edge_order=2`` gradient) applied to the unit
    density at cell j.  Keyed on what the kernel is built from, because a
    Grid holds arrays and is not hashable; read-only, shared by every caller."""
    kernel = _shared_kernel(ell, spec, n_cells)
    grid = kernel.grid
    (G,) = gradient_components(_average(np.eye(grid.n_cells[0]), kernel), grid)
    G.setflags(write=False)
    return G


def drift_matrix(kernel: Kernel) -> np.ndarray | None:
    """The kernel's read-only drift matrix G (``_drift_matrix``), or None on a
    2D grid or a 1D grid of more than ``DENSE_DRIFT_CELLS`` cells."""
    grid = kernel.grid
    if grid.dim != 1 or grid.n_cells[0] > DENSE_DRIFT_CELLS:
        return None
    return _drift_matrix(kernel.ell, grid.spec, grid.n_cells)


def drift_velocity(w: np.ndarray, kernel: Kernel, kappa: float, attract: int = 1) -> np.ndarray:
    """velocity() on raw values: w is one density or a stack (n, *grid.shape).

    Returns the components, shape (dim, *grid.shape) or (n, dim, *grid.shape).
    The gradient g of the average is ``w @ drift_matrix(kernel)`` where the
    kernel has a drift matrix, one matrix product for the whole stack, and
    the FFT average followed by ``gradient_components`` otherwise.  The
    product sums in another order than the FFT path, so the two differ in
    the last bits (at most 7.4e-13 of the largest gradient at 256 cells, see
    tests/test_velocity.py); a BLAS may also sum one row apart from a stack
    of rows differently.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if attract not in (1, -1):
        raise ValueError("attract must be +1 or -1")
    grid = kernel.grid
    G = drift_matrix(kernel)
    grads = gradient_components(_average(w, kernel), grid) if G is None else [w @ G]
    # scale = attract * kappa / sqrt(1 + |g|^2), in place
    scale = grads[0] * grads[0]
    for g in grads[1:]:
        scale += g * g
    scale += 1.0
    np.sqrt(scale, out=scale)
    np.divide(attract * kappa, scale, out=scale)
    if grid.dim == 1:
        comps = np.expand_dims(np.multiply(grads[0], scale, out=scale), -2)
    else:
        comps = np.stack([g * scale for g in grads], axis=w.ndim - grid.dim)
    require_finite(comps, "vector field")
    return comps


def velocity(w: Field, kernel: Kernel, kappa: float, attract: int = 1) -> VectorField:
    """Nonlocal drift: attract * kappa * g / sqrt(1 + |g|^2), g = grad(w averaged).

    attract=+1 points toward higher averaged density, -1 away from it.  The
    speed is capped by kappa by construction.
    """
    # the benchmark (perfbench/) wraps and counts this name, so it can go only
    # once a benchmark change (ROADMAP item 4) has moved its tracer and gate
    return VectorField(w.grid, drift_velocity(w.values, kernel, kappa, attract))


@dataclass(frozen=True)
class HypothesisVReport:
    """Empirical quotients backing the nonlocal-velocity hypothesis.

    k_v: max over samples of speed/gradient/Lipschitz quotients against the
    L1 norm of the density; c_v: max of the div-Lipschitz and second
    derivative quotients.  Both feed the coupled bound ledger.
    """

    speed_quotient: float
    gradient_quotient: float
    lipschitz_quotient: float
    div_lipschitz_quotient: float
    second_derivative_quotient: float
    n_samples: int

    @property
    def k_v(self) -> float:
        return max(self.speed_quotient, self.gradient_quotient, self.lipschitz_quotient)

    @property
    def c_v(self) -> float:
        return max(self.div_lipschitz_quotient, self.second_derivative_quotient)


# The pair quotients compare rows a..b-1 of the sample stack with every later
# sample in one pass: a block holds (b - a) x (n - a - 1) differences of the
# samples' cells, and the pairs j <= i in it are computed again.  A block
# takes as many rows as keep rows x n x cells within PAIR_BLOCK_VALUES, and at
# least one.  verify_hypothesis_v per call on 22 samples, one core of a 2-vCPU
# host (ms, best of two runs; one row per block / 2**15 / 2**16 / all pairs
# in one pass):
#   1D 64 cells:   1.06 / 0.52 / 0.57 / 0.66
#   1D 128 cells:  1.16 / 0.67 / 1.50 / 1.56   (2**15: blocks of 11 and 10 rows)
#   1D 256 cells:  1.51 / 1.15 / 1.06 / 3.35
#   1D 512 cells:  2.53 / 1.65 / 1.44 / 5.92
#   2D 32 x 32:    5.33 / 5.58 / 6.06 / 14.5   (2**15: one row per block)
#   2D 64 x 64:    25.7 / 24.6 / 26.3 / 51.6   (2**15, 2**16: one row per block)
# Larger blocks lose to the repeated half of the pairs and to temporaries that
# outgrow the cache, so 2D grids from 32 x 32 up keep one row of pairs.
PAIR_BLOCK_VALUES = 2**15


def verify_hypothesis_v(kernel: Kernel, kappa: float, samples: np.ndarray,
                        attract: int = 1) -> HypothesisVReport:
    """Measure the velocity-hypothesis quotients over a stack of densities.

    ``samples`` has shape (n, *grid.shape), n >= 1.  Pairs of samples feed
    the Lipschitz and divergence-Lipschitz quotients; a zero-mass sample
    with a nonzero velocity raises DegenerateSample.

    Every per-sample quantity is an axis reduction over that sample's cells
    alone.  The pair quotients take the stack's rows in blocks, each row
    against every later sample, of at most ``PAIR_BLOCK_VALUES`` values of
    rows x samples x cells or of one row: the 22 ledger samples on the
    shipped 128 cells take two blocks, and a 2D ledger stack from 32 x 32
    up takes one row at a time, so its memory stays O(samples x cells).
    """
    grid = kernel.grid
    w = np.asarray(samples, dtype=float)
    if w.ndim != grid.dim + 1 or w.shape[1:] != grid.shape or not len(w):
        raise ValueError(f"need a stack of shape (n >= 1, *{grid.shape}), got {w.shape}")
    n = len(w)
    vel = drift_velocity(w, kernel, kappa, attract)  # (n, dim, *grid.shape)
    masses = l1_norms(w, grid)
    speeds = linf_norms(np.sqrt(np.sum(vel**2, axis=1)), grid)
    zero_mass = masses <= 0.0
    degenerate = np.flatnonzero(zero_mass & (speeds > 1e-12))
    if degenerate.size:
        raise DegenerateSample(
            f"zero-mass sample with velocity max {float(speeds[degenerate[0]])}; "
            "contradicts the speed bound"
        )
    # firsts[j][:, k] = d v_k / d x_j; worst = max over j, k, i of |d_i d_j v_k|
    firsts = gradient_components(vel, grid)
    grads = np.zeros(n)
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
    rows = max(1, PAIR_BLOCK_VALUES // (n * grid.total_cells))
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        # pairs (i, j) for i in a..b-1 and j in a+1..n-1: a pair j < i repeats
        # the quotients of (j, i) exactly, and j = i has dw = 0
        dw = l1_norms(w[a:b, None] - w[None, a + 1:], grid)
        apart = dw > 0.0
        dv = _sample_max(vel[a:b, None] - vel[None, a + 1:], lead=2)
        ddiv = linf_norms(div[a:b, None] - div[None, a + 1:], grid)
        lips_q = max(lips_q, _max_quotient(dv, dw, apart))
        div_q = max(div_q, _max_quotient(ddiv, dw, apart))
    return HypothesisVReport(
        speed_quotient=speed_q,
        gradient_quotient=grad_q,
        lipschitz_quotient=lips_q,
        div_lipschitz_quotient=div_q,
        second_derivative_quotient=second_q,
        n_samples=n,
    )


def _sample_max(values: np.ndarray, lead: int = 1) -> np.ndarray:
    """max |entry| over all but the ``lead`` leading axes: per sample of a
    stack, or per pair of a (rows, later, ...) block with lead=2."""
    return np.max(np.abs(values).reshape(values.shape[:lead] + (-1,)), axis=-1)


def _max_quotient(num: np.ndarray, den: np.ndarray, kept: np.ndarray) -> float:
    """max(0, num/den) over the kept entries."""
    return float(np.max(num[kept] / den[kept], initial=0.0))
