#!/usr/bin/env python3
"""Calibrate the order-one factors of the two total-variation bound checks.

Runs a seeded suite of random reaction-diffusion and transport problems,
measures the largest quotient each unquantified factor would need, and
prints twice that maximum (floored at 0.25).  The printed values are frozen
into predprey/calibration.py; the bound checks then act as regression tests.

Usage: python3 scripts/calibrate_tv_constants.py [--seed 2024] [--count 20]
"""

import argparse

import numpy as np

from predprey.grid import (DomainSpec, build_grid, divergences, gradient_components,
                           l1_norms, linf_norms, total_variations)
from predprey.parabolic import ParabolicProblem, Scheme, solve_parabolic
from predprey.series import constant
from predprey.transport import TransportProblem, solve_hyperbolic
from predprey.velocity import drift_velocity, make_kernel


def random_field(grid, rng, amplitude=1.0, nonneg=False):
    """Three random Gaussian bumps summed, shape grid.shape."""
    mesh = grid.centers()
    vals = np.zeros(grid.shape)
    for _ in range(3):
        amp = rng.uniform(0.1, amplitude) * (1.0 if nonneg else rng.choice([-1.0, 1.0]))
        width = rng.uniform(10.0, 80.0)
        centers = [rng.uniform(lo, hi) for lo, hi in grid.spec.bounds]
        bump = np.ones(grid.shape)
        for ax, m in enumerate(mesh):
            bump = bump * np.exp(-width * (m - centers[ax]) ** 2)
        vals += amp * bump
    if nonneg:
        vals = np.abs(vals)
    return vals


def parabolic_quotients(seed: int, count: int) -> list[float]:
    rng = np.random.default_rng(seed)
    quotients = []
    spec = DomainSpec(((0.0, 1.0),))
    for _ in range(count):
        n = int(rng.choice([48, 64, 96]))
        grid = build_grid(spec, n)
        mu = rng.uniform(0.02, 0.2)
        w0 = random_field(grid, rng, nonneg=True)
        B = random_field(grid, rng, amplitude=2.0)
        b = random_field(grid, rng, nonneg=True)
        T = rng.uniform(0.05, 0.3)
        b_sup = float(linf_norms(B, grid))
        dt = min(0.5 / (b_sup + 1e-9), T / 20)
        problem = ParabolicProblem(grid, mu, constant(B), constant(b), w0)
        trace = solve_parabolic(problem, T, Scheme("implicit_euler", dt))
        times = trace.times
        for i in range(1, len(times)):
            t = times[i]
            base = total_variations(w0, grid) + t * total_variations(b, grid)
            denom = (np.sqrt(t) * b_sup
                     * (l1_norms(w0, grid) + t * l1_norms(b, grid)) * np.exp(b_sup * t))
            if denom > 1e-12:
                quotients.append((trace.tv[i] - base) / denom)
    return quotients


def hyperbolic_quotients(seed: int, count: int) -> list[float]:
    rng = np.random.default_rng(seed + 1)
    quotients = []
    spec = DomainSpec(((0.0, 1.0),))
    for _ in range(count):
        n = int(rng.choice([64, 96, 128]))
        grid = build_grid(spec, n)
        kernel = make_kernel(rng.uniform(0.15, 0.3), grid)
        w = random_field(grid, rng, nonneg=True)
        kappa = rng.uniform(0.2, 1.0)
        c = drift_velocity(w, kernel, kappa)
        u0 = random_field(grid, rng, nonneg=True)
        A = random_field(grid, rng, amplitude=1.5)
        a = random_field(grid, rng, nonneg=True)
        T = rng.uniform(0.05, 0.3)
        cmax = float(np.max(np.abs(c)))
        dt = 0.45 * min(grid.dx) / max(cmax, 1e-9)
        dt = min(dt, 0.25 / (float(linf_norms(A, grid)) + 1e-9), T / 10)
        problem = TransportProblem(grid, constant(c), constant(A), constant(a), u0)
        trace = solve_hyperbolic(problem, T, dt)
        div = divergences(c, grid)
        grad_div_l1 = float(np.sum(np.abs(
            gradient_components(div, grid)[0])) * grid.cell_volume)
        dxc = float(np.max(np.abs(gradient_components(c[0], grid)[0])))
        a_sup, a_tv = float(linf_norms(a, grid)), float(total_variations(a, grid))
        A_sup, A_tv = float(linf_norms(A, grid)), float(total_variations(A, grid))
        u0_sup = float(linf_norms(u0, grid))
        for i in range(1, len(trace.times)):
            t = trace.times[i]
            growth = np.exp((A_sup + dxc) * t)
            bracket_rest = (total_variations(u0, grid) + t * a_tv
                            + (u0_sup + t * a_sup) * t * (A_tv + grad_div_l1))
            if u0_sup > 1e-12:
                quotients.append((trace.tv[i] / growth - bracket_rest) / u0_sup)
    return quotients


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--count", type=int, default=20)
    args = parser.parse_args()
    par = parabolic_quotients(args.seed, args.count)
    hyp = hyperbolic_quotients(args.seed, args.count)
    par_max = max(par)
    hyp_max = max(hyp)
    print(f"parabolic quotients:  n={len(par)} max={par_max:.6f}")
    print(f"hyperbolic quotients: n={len(hyp)} max={hyp_max:.6f}")
    print()
    print(f"TV_CONST_PARABOLIC = {max(0.25, 2.0 * par_max):.4f}")
    print(f"TV_CONST_HYPERBOLIC = {max(0.25, 2.0 * hyp_max):.4f}")


if __name__ == "__main__":
    main()
