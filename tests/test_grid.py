"""Grid construction and discrete norm tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predprey import expressions as ex
from predprey.grid import (DomainSpec, Field, GridError, _once_per_repeated_row,
                           build_grid, divergences, gradient_components, interior_variations,
                           interp_values, l1_norms, linf_norms, total_variations)


def grid1d(n=10, lo=0.0, hi=1.0):
    return build_grid(DomainSpec(((lo, hi),)), n)


def test_build_grid_1d_spacing_and_centers():
    g = grid1d(10)
    assert g.dx == (0.1,)
    assert np.allclose(g.axis_centers[0], np.arange(0.05, 1.0, 0.1))
    assert g.cell_volume == pytest.approx(0.1)


def test_build_grid_2d_cell_volume():
    g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 2.0))), (10, 20))
    assert g.cell_volume == pytest.approx(0.01)
    assert g.shape == (10, 20)


def test_build_grid_rejects_small_counts():
    with pytest.raises(GridError):
        grid1d(3)


def test_domain_rejects_degenerate_interval():
    with pytest.raises(GridError):
        DomainSpec(((1.0, 1.0),))


def test_cell_volumes_sum_to_domain_volume():
    for n in (4, 17, 256):
        g = grid1d(n, 0.0, 3.0)
        assert n * g.cell_volume == pytest.approx(3.0, rel=1e-12)
    g2 = build_grid(DomainSpec(((0.0, 1.5), (-1.0, 1.0))), (12, 40))
    assert g2.total_cells * g2.cell_volume == pytest.approx(3.0, rel=1e-12)


def test_norm_l1_zero_and_constant():
    g = grid1d(50)
    assert l1_norms(np.zeros(g.shape), g) == 0.0
    assert l1_norms(np.full(g.shape, 2.0), g) == pytest.approx(2.0)


def test_norm_l1_midpoint_rule_linear():
    g = grid1d(1000)
    assert l1_norms(g.axis_centers[0], g) == pytest.approx(0.5, abs=1e-3)


def test_norm_linf():
    g = grid1d(1001)
    assert linf_norms(np.full(g.shape, -3.0), g) == 3.0
    assert linf_norms(np.sin(np.pi * g.axis_centers[0]), g) == pytest.approx(1.0, abs=1e-5)


def test_total_variation_indicator_and_step():
    g = grid1d(100)
    assert total_variations(np.zeros(g.shape), g) == 0.0
    assert total_variations(np.ones(g.shape), g) == pytest.approx(2.0)
    step = (g.axis_centers[0] > 0.5).astype(float)
    assert total_variations(step, g) == pytest.approx(2.0)


def test_total_variation_2d_constant():
    g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (16, 16))
    # unit indicator of the square: each side contributes its length
    assert total_variations(np.ones(g.shape), g) == pytest.approx(4.0)


def test_field_rejects_nonfinite():
    g = grid1d(8)
    vals = np.zeros(8)
    vals[3] = np.inf
    with pytest.raises(GridError):
        Field(g, vals)


def test_field_values_readonly():
    g = grid1d(8)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8),
       st.lists(st.floats(-100, 100), min_size=8, max_size=8),
       st.floats(-10, 10))
def test_norm_l1_subadditive_and_homogeneous(a, b, lam):
    g = grid1d(8)
    fa, fb = np.array(a), np.array(b)
    assert l1_norms(fa + fb, g) <= l1_norms(fa, g) + l1_norms(fb, g) + 1e-9
    assert l1_norms(lam * fa, g) == pytest.approx(abs(lam) * l1_norms(fa, g),
                                                  rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=10, max_size=30))
def test_total_variation_shrinks_under_smoothing(vals):
    g = grid1d(len(vals))
    f = np.array(vals)
    padded = np.concatenate([[0.0], f, [0.0]])  # zero exterior extension
    smoothed = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    assert total_variations(smoothed, g) <= total_variations(f, g) + 1e-10


def test_interp_field_reproduces_linear():
    g = grid1d(32)
    f = 2.0 * g.axis_centers[0] + 1.0
    pts = np.array([[0.1], [0.5], [0.73]])
    assert np.allclose(interp_values(g, f, pts), 2.0 * pts[:, 0] + 1.0)


def test_interp_2d_bilinear():
    g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (16, 16))
    xs, ys = g.centers()
    f = 3.0 * xs + 2.0 * ys
    pts = np.array([[0.3, 0.4], [0.5, 0.5]])
    assert np.allclose(interp_values(g, f, pts), 3.0 * pts[:, 0] + 2.0 * pts[:, 1])


def test_divergence_of_linear_field():
    g = grid1d(32)
    c = g.axis_centers[0][None, :]  # c(x) = x
    assert np.allclose(divergences(c, g), 1.0)


@pytest.mark.parametrize("n_cells", [(17,), (9, 13)], ids=["1d", "2d"])
def test_stacked_variation_and_divergence_match_one_field_loops(n_cells):
    # the per-field loops the stacked reductions replaced, bit for bit
    bounds = ((0.0, 1.0), (0.0, 2.0))[:len(n_cells)]
    g = build_grid(DomainSpec(bounds), n_cells)
    rng = np.random.default_rng(5)
    fields = rng.normal(size=(4,) + g.shape)
    velocities = rng.normal(size=(4, g.dim) + g.shape)
    for i, v in enumerate(fields):
        if g.dim == 1:
            expected = np.sum(np.abs(np.diff(v)))
        else:
            dx, dy = g.dx
            expected = (np.sum(np.abs(np.diff(v, axis=0))) * dy
                        + np.sum(np.abs(np.diff(v, axis=1))) * dx)
        assert interior_variations(fields, g)[i] == expected
    for i, c in enumerate(velocities):
        total = np.zeros(g.shape)
        for k in range(g.dim):
            total += gradient_components(c[k], g)[k]
        assert np.array_equal(divergences(velocities, g)[i], total)
        assert np.array_equal(divergences(c, g), total)


def test_total_variation_2d_half_plane_step():
    g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 1.0))), (20, 20))
    xs, _ = g.centers()
    step = (xs > 0.5).astype(float)
    # interior jump line (length 1) + right boundary (1) + two half top/bottom edges
    assert total_variations(step, g) == pytest.approx(3.0)


@pytest.mark.parametrize("src,n_cells", [("0.1", (128,)), ("x", (128,)), ("x*y", (9, 13))],
                         ids=["constant", "x", "2d-x*y"])
def test_repeated_row_stack_norms_match_a_copy(src, n_cells):
    # sample_stack repeats one row for an expression without t: stride 0.
    # The reference copy is C-ordered: np.array(stack) would keep the stride
    # order, putting the repeated axis innermost, and a 2D stack laid out so
    # is not reduced one field at a time.
    g = build_grid(DomainSpec(((0.0, 1.0), (0.0, 2.0))[:len(n_cells)]), n_cells)
    times = np.linspace(0.0, 4.0, 801)
    stack = ex.sample_stack(ex.parse(src, ex.Slot.SOURCE_A), g, times)
    assert stack.strides[0] == 0
    for norms in (l1_norms, linf_norms, total_variations):
        got = norms(stack, g)
        assert np.array_equal(got, norms.__wrapped__(stack, g))
        assert np.array_equal(got, norms(np.array(stack, order="C"), g))
        assert np.all(got == norms(stack[0], g))
        assert got.shape == (801,) and got.flags.writeable


def test_repeated_row_reduced_once_other_stacks_whole():
    g = grid1d(16)
    seen = []

    def record(values, grid):
        seen.append(values)
        return l1_norms.__wrapped__(values, grid)

    reduce = _once_per_repeated_row(record)
    row = np.linspace(-1.0, 1.0, 16)
    repeated = np.broadcast_to(row, (5, 16))
    assert np.array_equal(reduce(repeated, g), np.full(5, l1_norms(row, g)))
    assert len(seen) == 1 and seen[0].shape == (1, 16)
    # a one-row stack, an ordinary stack and a single field go through whole
    for values in (np.broadcast_to(row, (1, 16)), np.stack([row, 2 * row]), row):
        seen.clear()
        assert np.array_equal(reduce(values, g), l1_norms.__wrapped__(values, g))
        assert len(seen) == 1 and seen[0] is values
