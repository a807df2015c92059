"""Independent slow-path oracles used to pin expected values.

Everything here deliberately avoids the FFT/eigenbasis machinery of the
package: direct Riemann sums, explicit loops, and dense linear algebra
only, so tests compare two genuinely different computational routes.
"""
from __future__ import annotations

import numpy as np


def slow_kernel(values, grid, eps, lag):
    """Direct quadrature sum step * sum_k values_k exp(2 pi i nu_k eps j)."""
    total = 0.0 + 0.0j
    for k in range(grid.n_points):
        total += values[k] * np.exp(2j * np.pi * grid.points[k] * eps * lag)
    return grid.step * total


def slow_kernel_all(values, grid, eps):
    half = (grid.n_points - 1) // 2
    return np.array([slow_kernel(values, grid, eps, j) for j in range(-half, half + 1)])


def slow_convolve(a, b, eps):
    """Direct eps-weighted cyclic convolution on centered lags."""
    n = len(a)
    half = (n - 1) // 2
    out = np.zeros(n, dtype=complex)
    for j in range(-half, half + 1):
        total = 0.0 + 0.0j
        for r in range(-half, half + 1):
            d = (j - r + half) % n - half
            total += a[r + half] * b[d + half]
        out[j + half] = eps * total
    return out


def richardson_limit(func, h0=1e-2, levels=4):
    """Extrapolate func(h) -> h = 0 assuming a power series in h."""
    rows = [[func(h0 / 2**i) for i in range(levels)]]
    for level in range(1, levels):
        prev = rows[-1]
        factor = 2.0**level
        rows.append(
            [(factor * prev[i + 1] - prev[i]) / (factor - 1.0) for i in range(len(prev) - 1)]
        )
    return rows[-1][0]


def plane_wave_matrix(grid, eps):
    """u_j(nu_k) = sqrt(eps) exp(-2 pi i nu_k eps j) as an (n, n) array."""
    half = (grid.n_points - 1) // 2
    lags = np.arange(-half, half + 1)
    return np.sqrt(eps) * np.exp(-2j * np.pi * eps * np.outer(grid.points, lags))


def gather_circulant(column):
    """Circulant with this first column, filled entry by entry as an n x n array."""
    column = np.asarray(column)
    idx = np.arange(column.size)
    return column[np.subtract.outer(idx, idx) % column.size]


def dense_symbol_matrix(symbol, grid, eps):
    """Dense assembly sum_k symbol_k conj(u_i) u_j step, by explicit loops."""
    waves = plane_wave_matrix(grid, eps)
    n = grid.n_points
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out += symbol[k] * grid.step * np.outer(np.conj(waves[k]), waves[k])
    return out


def riemann_moment(density, grid, mask1, mask2):
    """step * sum of a density over the intersection of two cell sets."""
    total = 0.0
    for k in range(grid.n_points):
        if mask1[k] and mask2[k]:
            total += density[k]
    return grid.step * total


def mixed_kappa(grid):
    """Reference mixed spectrum: a vacuum band at the most negative
    frequencies plus a tilted (non-flip-symmetric) positive part."""
    nu_max = grid.nu_max
    return np.where(grid.points < -nu_max / 2, 0.0, 1.0 + grid.points / (2 * nu_max))


def gram_quadratic_form(model, zeta, xi):
    """<y_dag y> of y = sum zeta_j x_j + sum xi_j x_rev_j via dense blocks."""
    value = (
        zeta.conj() @ (model.K @ zeta)
        + zeta.conj() @ (model.G @ xi)
        + xi.conj() @ (model.G @ zeta)
        + xi.conj() @ (model.K_rev @ xi)
    )
    return float(value.real)
