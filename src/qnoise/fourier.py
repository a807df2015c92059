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

Every transform acts along the last axis, so a stack of rows of one length
goes through one FFT call.  The centering moves are two slices
(:func:`_fftshift`, :func:`_ifftshift`), equal bit for bit to
``np.fft.fftshift``/``ifftshift`` on that axis but without their generic roll.
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


def _fftshift(values: np.ndarray) -> np.ndarray:
    """``np.fft.fftshift`` along the last axis: FFT order to grid order."""
    values = np.asarray(values)
    cut = values.shape[-1] - values.shape[-1] // 2
    return np.concatenate((values[..., cut:], values[..., :cut]), axis=-1)


def _ifftshift(values: np.ndarray) -> np.ndarray:
    """``np.fft.ifftshift`` along the last axis: grid order to FFT order."""
    values = np.asarray(values)
    cut = values.shape[-1] // 2
    return np.concatenate((values[..., cut:], values[..., :cut]), axis=-1)


def kernel_of(values: np.ndarray, step: float) -> np.ndarray:
    """Quadrature Fourier sum of per-frequency values at all centered lags."""
    values = np.asarray(values)
    kernel = _fftshift(np.fft.ifft(_ifftshift(values)))
    kernel *= values.shape[-1] * step
    return kernel


def spectrum_of(kernel: np.ndarray, eps: float) -> np.ndarray:
    """Inverse of :func:`kernel_of`: per-frequency values from a lag kernel."""
    values = _fftshift(np.fft.fft(_ifftshift(kernel)))
    values *= eps
    return values


def _spectra(a: np.ndarray, b: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The FFTs of two lag kernels: one call on their stack when they have one
    shape (each row comes out bit for bit), else one call each."""
    if np.shape(a) == np.shape(b):
        return np.fft.fft(_ifftshift((a, b)))
    return np.fft.fft(_ifftshift(a)), np.fft.fft(_ifftshift(b))


def convolve(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """eps-weighted circular convolution of two centered lag kernels, or of
    two stacks of them broadcast against each other."""
    # Out of place, as numpy's in-place complex product may round differently;
    # the spectra are temporaries, freed before the inverse transform.
    kernel = _fftshift(np.fft.ifft(np.multiply(*_spectra(a, b))))
    kernel *= eps
    return kernel
