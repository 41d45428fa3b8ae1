"""Bounded box domains, uniform cell-centered grids, and the discrete norms.

The library works on intervals (1D) and axis-aligned rectangles (2D) with
uniform cell-centered grids.  All solution norms used by the bound checks
live here: the cell-volume weighted L1 norm, the max norm, and the total
variation counted against the zero extension outside the domain (consistent
with homogeneous Dirichlet data on both equations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np


class GridError(ValueError):
    """Invalid domain or grid construction parameters."""


class NonFiniteField(GridError):
    """Grid data, typically a computed solution, holds inf or nan."""


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box: one (lo, hi) pair per axis; 1 or 2 axes."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) not in (1, 2):
            raise GridError(f"only 1D/2D domains supported, got {len(self.bounds)} axes")
        for axis, (lo, hi) in enumerate(self.bounds):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise GridError(f"degenerate interval {(lo, hi)} on axis {axis}")

    @property
    def dim(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a DomainSpec.

    Immutable after construction; shared freely.  ``axis_centers[i]`` holds
    the cell-center coordinates along axis i, ``cell_volume`` the product of
    spacings.
    """

    spec: DomainSpec
    n_cells: tuple[int, ...]
    dx: tuple[float, ...]
    axis_centers: tuple[np.ndarray, ...]
    cell_volume: float

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_cells

    @property
    def total_cells(self) -> int:
        return int(np.prod(self.n_cells))

    @cached_property
    def _mesh(self) -> tuple[np.ndarray, ...]:
        mesh = tuple(np.meshgrid(*self.axis_centers, indexing="ij"))
        for m in mesh:
            m.setflags(write=False)
        return mesh

    def centers(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape``, one per axis (read-only)."""
        return self._mesh

    def center_points(self) -> np.ndarray:
        """All cell centers as an (total_cells, dim) array, C order."""
        mesh = self.centers()
        return np.stack([m.ravel() for m in mesh], axis=-1)


def build_grid(spec: DomainSpec, n_cells) -> Grid:
    """Build a uniform grid with ``n_cells`` cells per axis (scalar or per-axis)."""
    if np.isscalar(n_cells):
        counts = (int(n_cells),) * spec.dim
    else:
        counts = tuple(int(n) for n in n_cells)
    if len(counts) != spec.dim:
        raise GridError(f"expected {spec.dim} cell counts, got {len(counts)}")
    if any(n < 4 for n in counts):
        raise GridError(f"need at least 4 cells per axis, got {counts}")
    dx = tuple((hi - lo) / n for (lo, hi), n in zip(spec.bounds, counts))
    centers = tuple(
        lo + (np.arange(n) + 0.5) * h for (lo, _), n, h in zip(spec.bounds, counts, dx)
    )
    for arr in centers:
        arr.setflags(write=False)
    return Grid(spec, counts, dx, centers, float(np.prod(dx)))


@dataclass(frozen=True)
class Field:
    """A scalar grid function: one value per cell, shape = grid.shape."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise GridError(f"field shape {vals.shape} != grid shape {self.grid.shape}")
        require_finite(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class VectorField:
    """A vector grid function: components stacked as (dim, *grid.shape)."""

    grid: Grid
    components: np.ndarray

    def __post_init__(self):
        comps = np.ascontiguousarray(self.components, dtype=float)
        expected = (self.grid.dim,) + self.grid.shape
        if comps.shape != expected:
            raise GridError(f"vector shape {comps.shape} != expected {expected}")
        require_finite(comps, "vector field")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.components**2, axis=0))


def zeros(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape))


def full(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def require_finite(values: np.ndarray, what: str = "field") -> None:
    """Raise NonFiniteField when grid data holds inf or nan."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteField(f"{what} contains non-finite values")


# The stack norms below take one field of shape grid.shape or a stack of
# shape (n, *grid.shape) and reduce over the grid axes only.  In a C-ordered
# stack each field's cells are one contiguous run, so it gives bit for bit
# the values of its fields taken one at a time.  Another memory order (say
# np.array of a stride-0 2D stack, which keeps the time axis fastest) can
# sum in another order and differ in the last bits.

def _per_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Each field's cells on one trailing axis."""
    return values.reshape(values.shape[:values.ndim - grid.dim] + (-1,))


def _once_per_repeated_row(norms):
    """Reduce a stack that repeats one row (stride 0 on its first axis, as
    sample_stack returns for an expression without t, u or w) on that row
    alone, and repeat the value into a fresh array of the stack's length."""
    @wraps(norms)
    def reduce(values: np.ndarray, grid: Grid) -> np.ndarray:
        if values.ndim > grid.dim and len(values) > 1 and values.strides[0] == 0:
            return np.repeat(norms(values[:1], grid), len(values), axis=0)
        return norms(values, grid)
    return reduce


@_once_per_repeated_row
def l1_norms(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell-volume weighted sum of |f| per field of a stack."""
    return np.sum(np.abs(_per_field(values, grid)), axis=-1) * grid.cell_volume


@_once_per_repeated_row
def linf_norms(values: np.ndarray, grid: Grid) -> np.ndarray:
    return np.max(np.abs(_per_field(values, grid)), axis=-1)


@_once_per_repeated_row
def total_variations(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete total variation per field of a stack, jumps to the exterior 0.

    1D: sum of neighbor jumps plus the two boundary jumps |f_1|, |f_N|.
    2D: axis-direction jumps weighted by the transverse cell length, plus
    the boundary jumps to zero on each side, consistent with extending the
    field by 0 outside the domain.
    """
    v = values
    if grid.dim == 1:
        interior = np.sum(np.abs(np.diff(v, axis=-1)), axis=-1)
        return interior + np.abs(v[..., 0]) + np.abs(v[..., -1])
    dx, dy = grid.dx
    tv_x = (np.sum(np.abs(_per_field(np.diff(v, axis=-2), grid)), axis=-1)
            + np.sum(np.abs(v[..., 0, :]), axis=-1) + np.sum(np.abs(v[..., -1, :]), axis=-1))
    tv_y = (np.sum(np.abs(_per_field(np.diff(v, axis=-1), grid)), axis=-1)
            + np.sum(np.abs(v[..., :, 0]), axis=-1) + np.sum(np.abs(v[..., :, -1]), axis=-1))
    return tv_x * dy + tv_y * dx


def norm_l1(f: Field) -> float:
    """Cell-volume weighted sum of |f|; discrete L1(Omega) norm."""
    return float(l1_norms(f.values, f.grid))


def norm_linf(f: Field) -> float:
    return float(linf_norms(f.values, f.grid))


def total_variation(f: Field) -> float:
    """Discrete total variation with jumps to the exterior value 0 (see total_variations)."""
    return float(total_variations(f.values, f.grid))


def interior_variations(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Variation per field of a stack over the open domain only, no exterior jumps.

    The right notion for coefficient fields, which need not vanish at the
    boundary; solution fields use total_variations (zero Dirichlet extension).
    """
    v = values
    if grid.dim == 1:
        return np.sum(np.abs(np.diff(v, axis=-1)), axis=-1)
    dx, dy = grid.dx
    return (np.sum(np.abs(_per_field(np.diff(v, axis=-2), grid)), axis=-1) * dy
            + np.sum(np.abs(_per_field(np.diff(v, axis=-1), grid)), axis=-1) * dx)


def interp_values(grid: Grid, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of cell-centered values at arbitrary points.

    ``points`` has shape (m, dim) for one field, or (n, m, dim) for a stack
    of n fields, row k of the points taken in field k.  Beyond the outermost
    cell centers the interpolation clamps to the nearest center (constant
    extension), which keeps the interpolant defined on all of closure(Omega)
    and slightly beyond, as needed by the characteristic tracer near exits.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = () if values.ndim == grid.dim else (np.arange(len(values)).reshape(-1, 1),)
    cells, fracs = [], []
    for ax in range(grid.dim):
        pos = (pts[..., ax] - grid.spec.bounds[ax][0]) / grid.dx[ax] - 0.5
        i0 = np.clip(np.floor(pos), 0, grid.n_cells[ax] - 2).astype(int)
        cells.append(i0)
        fracs.append(np.clip(pos - i0, 0.0, 1.0))
    if grid.dim == 1:
        (i0,), (fr,) = cells, fracs
        return (1 - fr) * values[rows + (i0,)] + fr * values[rows + (i0 + 1,)]
    (i0, j0), (fx, fy) = cells, fracs
    v00 = values[rows + (i0, j0)]
    v10 = values[rows + (i0 + 1, j0)]
    v01 = values[rows + (i0, j0 + 1)]
    v11 = values[rows + (i0 + 1, j0 + 1)]
    return ((1 - fx) * (1 - fy) * v00 + fx * (1 - fy) * v10
            + (1 - fx) * fy * v01 + fx * fy * v11)


def interp_field(f: Field, points: np.ndarray) -> np.ndarray:
    return interp_values(f.grid, f.values, points)


def gradient_components(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis derivative by central differences, one-sided at the boundary.

    ``values`` is one field or a stack (n, *grid.shape); the grid axes are
    the trailing ones.
    """
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    grads = np.gradient(values, *grid.dx, axis=axes, edge_order=2)
    return [grads] if grid.dim == 1 else list(grads)


def divergences(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete divergence of one sampled velocity (dim, *grid.shape) or of
    each velocity of a stack (n, dim, *grid.shape)."""
    axis = values.ndim - grid.dim - 1
    return sum(gradient_components(np.take(values, k, axis=axis), grid)[k]
               for k in range(grid.dim))


def divergence(vf: VectorField) -> Field:
    """Discrete divergence of a sampled velocity field."""
    return Field(vf.grid, divergences(vf.components, vf.grid))
