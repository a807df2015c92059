"""Quadrature Fourier transforms between the frequency grid and time lags.

The n frequencies nu_k = step*(k - (n-1)/2) and the n time lags t_j = eps*j
with j = -(n-1)/2 .. (n-1)/2 are exact DFT duals whenever n*step*eps = 1.
All lag kernels in this package use the convention

    T[g]_j = step * sum_k g(nu_k) * exp(+2 pi i nu_k eps j)

so that the eps-weighted circular convolution of two kernels is the kernel
of the pointwise product of their spectra, with no stray normalization
constants.  Every transform here maps n values to n values: a circulant
operator is handled through its symbol or its kernel, never as an n x n
matrix.
"""
from __future__ import annotations

import numpy as np

DUALITY_TOL = 1e-9


def time_lags(n_points: int) -> np.ndarray:
    """Centered integer lags j = -(n-1)/2 .. (n-1)/2."""
    half = (n_points - 1) // 2
    return np.arange(-half, half + 1)


def check_duality(n_points: int, step: float, eps: float) -> None:
    """Require the grid/time-step duality n*step*eps = 1."""
    if not eps > 0:
        raise ValueError(f"time step must be positive, got {eps}")
    product = n_points * step * eps
    if abs(product - 1.0) > DUALITY_TOL:
        raise ValueError(
            f"grid and time step are not dual: n*step*eps = {product!r}, expected 1"
        )


def kernel_of(values: np.ndarray, step: float) -> np.ndarray:
    """Quadrature Fourier sum of per-frequency values at all centered lags."""
    values = np.asarray(values)
    n = values.size
    spectrum = np.fft.ifftshift(values)
    return np.fft.fftshift(np.fft.ifft(spectrum)) * (n * step)


def spectrum_of(kernel: np.ndarray, eps: float) -> np.ndarray:
    """Inverse of :func:`kernel_of`: per-frequency values from a lag kernel."""
    kern = np.fft.ifftshift(np.asarray(kernel))
    return np.fft.fftshift(np.fft.fft(kern)) * eps


def convolve(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """eps-weighted circular convolution of two centered lag kernels."""
    fa = np.fft.fft(np.fft.ifftshift(np.asarray(a)))
    fb = np.fft.fft(np.fft.ifftshift(np.asarray(b)))
    return np.fft.fftshift(np.fft.ifft(fa * fb)) * eps

