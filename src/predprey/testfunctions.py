"""Separable space-time test functions for the weak-form residual checks.

Products of sine modes in space (vanishing on the box boundary) and
polynomials (1 - t/T)^p in time (vanishing at the final time).  Spatial
derivatives are analytic, so the residuals measure only the solver and the
space-time quadrature.  ``weak_residuals`` is the one quadrature of both
equations' weak forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .series import Trace, cumulative_simpson


@dataclass(frozen=True)
class SineTestFunction:
    modes: tuple[int, ...]   # sine mode per axis
    t_power: int             # q(t) = (1 - t/T)^p, p >= 1
    horizon: float           # T

    def time_value(self, t) -> np.ndarray:
        return (1.0 - np.asarray(t) / self.horizon) ** self.t_power

    def time_derivative(self, t) -> np.ndarray:
        p = self.t_power
        return -p / self.horizon * (1.0 - np.asarray(t) / self.horizon) ** (p - 1)

    def _axis_waves(self, grid: Grid) -> list[tuple[np.ndarray, float]]:
        waves = []
        for ax, k in enumerate(self.modes):
            lo, hi = grid.spec.bounds[ax]
            freq = k * np.pi / (hi - lo)
            waves.append((np.sin(freq * (grid.axis_centers[ax] - lo)), freq))
        return waves

    def space_values(self, grid: Grid) -> np.ndarray:
        waves = self._axis_waves(grid)
        if grid.dim == 1:
            return waves[0][0]
        return np.outer(waves[0][0], waves[1][0])

    def space_laplacian(self, grid: Grid) -> np.ndarray:
        waves = self._axis_waves(grid)
        lam = sum(freq**2 for _, freq in waves)
        return -lam * self.space_values(grid)

    def space_gradient(self, grid: Grid) -> list[np.ndarray]:
        waves = self._axis_waves(grid)
        if grid.dim == 1:
            lo = grid.spec.bounds[0][0]
            sin0, f0 = waves[0]
            return [f0 * np.cos(f0 * (grid.axis_centers[0] - lo))]
        (sx, fx), (sy, fy) = waves
        lox, loy = grid.spec.bounds[0][0], grid.spec.bounds[1][0]
        cx = np.cos(fx * (grid.axis_centers[0] - lox))
        cy = np.cos(fy * (grid.axis_centers[1] - loy))
        return [fx * np.outer(cx, sy), fy * np.outer(sx, cy)]


def default_family(horizon: float, dim: int, count: int = 5) -> list[SineTestFunction]:
    """The standard residual-check family: low sine modes, linear/quadratic decay."""
    fns = []
    mode_sets = [(1,), (2,), (3,), (1,), (2,)] if dim == 1 else [
        (1, 1), (2, 1), (1, 2), (2, 2), (1, 1)]
    powers = [1, 1, 1, 2, 2]
    for modes, p in zip(mode_sets[:count], powers[:count]):
        fns.append(SineTestFunction(tuple(modes), p, horizon))
    return fns


def weak_residuals(trace: Trace, datum: np.ndarray, test_functions: list[SineTestFunction],
                   adjoint: list[tuple[np.ndarray, np.ndarray]], reaction: np.ndarray | None,
                   source: np.ndarray | None) -> np.ndarray:
    """int int (u q' phi + q sum_k S_k psi_k + q (R u + r) phi) + q(0) int datum phi
    for each test function q(t) phi(x).

    ``adjoint`` pairs each stack S_k (one field per trace time) with the
    fields psi_k of all test functions, shape (len(test_functions),
    *grid.shape); R, r are the ``reaction`` and ``source`` stacks (None for
    0).  Grid sums are reductions over the grid axes, and the time integral
    is one ``cumulative_simpson`` call.
    """
    grid, times, u = trace.grid, trace.times, trace.values
    axes = list(range(1, u.ndim))

    def pair(stack: np.ndarray, fields: np.ndarray) -> np.ndarray:
        return np.tensordot(stack, fields, axes=(axes, axes))

    phi = np.stack([tf.space_values(grid) for tf in test_functions])
    q = np.stack([tf.time_value(times) for tf in test_functions], axis=1)
    q_dot = np.stack([tf.time_derivative(times) for tf in test_functions], axis=1)
    forcing = [(stack, phi) for stack in (None if reaction is None else reaction * u, source)
               if stack is not None]
    integrand = q_dot * pair(u, phi)
    for stack, fields in adjoint + forcing:
        integrand += q * pair(stack, fields)
    initial = q[0] * pair(datum[None], phi)[0]
    return (cumulative_simpson(integrand, times)[-1] + initial) * grid.cell_volume
