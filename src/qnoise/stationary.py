"""Canonical Hilbert-space realization of a stationary noise/reverse pair.

The periodic (circulant) closure of the correlation matrix is used
throughout: every operator here is diagonal in one discrete Fourier
basis, so the noise and reversed-noise covariances commute exactly and
each operator is its symbol of n per-frequency numbers.  Only symbols are
stored, and nothing in the package forms an n x n matrix:

    covariance K        <- symbol kappa(nu_k)
    reversed  K_rev     <- symbol kappa(-nu_k)       (= conj(K))
    root      X = K^1/2 <- symbol sqrt(kappa)
    cross     G         <- symbol gamma = sqrt(kappa * kappa(-.))
    modular   L         <- symbol kappa(-.)/kappa    (on a ModularFilter)

With the duality n*step*eps = 1 the quadrature constant collapses to one:
K, the circulant of eps * k_j, has eigenvalues exactly {kappa(nu_k)}, and the
normalized spectral amplitudes (the root symbol sqrt(kappa), which the
pair holds once as ``sigma``, times a plane wave, and its star involution)
reproduce K, K_rev and G with unit weight.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError, NotPositiveDefiniteError
from .fourier import _fftshift, _ifftshift, check_duality, kernel_of, time_lags
from .spectra import SpectralDensityPair, _frozen

#: Relative eigenvalue floor below which the covariance counts as singular.
INVERTIBILITY_FLOOR = 1e-10

#: Relative bound on how far below zero an eigenvalue may dip before the
#: induced covariance is rejected instead of clamped.
PSD_TOL = 1e-10

#: Relative threshold below which eigenvalues snap to exact zero, keeping
#: vacuum supports crisp through the FFT round trip.
EIGENVALUE_SNAP = 1e-14


@dataclass(frozen=True, eq=False)
class CorrelationSequence:
    """Correlation samples k_j at centered lags j = -(n-1)/2 .. (n-1)/2.

    Attributes:
        eps: time step; t_j = eps * j.
        step: frequency spacing of the originating grid (1 / (n * eps)).
        values: k_j, Hermitian in the lag (k_{-j} = conj(k_j)); the
            reversed-noise correlations are their lag flip values[::-1].
        cross: symmetric real cross-correlation r_j from the gamma density.
    """

    eps: float
    step: float
    values: np.ndarray
    cross: np.ndarray

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def lags(self) -> np.ndarray:
        return time_lags(self.n_points)


def correlation_sequence(pair: SpectralDensityPair, eps: float) -> CorrelationSequence:
    """Quadrature correlation samples of a density pair.

    k_j = step * sum_k kappa(nu_k) exp(2 pi i nu_k eps j), and likewise for
    the cross density.  Requires the grid/time duality n*step*eps = 1.
    """
    grid = pair.grid
    check_duality(grid.n_points, grid.step, eps)
    values, cross = kernel_of((pair.kappa, pair.gamma), grid.step)
    return CorrelationSequence(
        eps=float(eps),
        step=grid.step,
        values=_frozen(values),
        cross=_frozen(cross),
    )


@dataclass(frozen=True, eq=False)
class StationaryModel:
    """Finite canonical realization of a noise and its time reverse.

    ``eigenvalues`` is the covariance symbol, ordered like the grid points
    (entry k belongs to frequency nu_k = step*(k - (n-1)/2), the pair's
    ``grid.points``).  It fixes every operator of the family: the
    circulants K, K_rev = conj(K), X = K^(1/2), X_rev = conj(X) and G, with
    X†X = K, X_rev†X_rev = K_rev and X†X_rev = G.  The amplitudes are the pair's.
    """

    eps: float
    step: float
    eigenvalues: np.ndarray

    @property
    def n_points(self) -> int:
        return self.eigenvalues.size

    @property
    def invertible(self) -> bool:
        scale = float(self.eigenvalues.max(initial=0.0))
        return bool(scale > 0 and float(self.eigenvalues.min()) > INVERTIBILITY_FLOOR * scale)

    @property
    def gamma(self) -> np.ndarray:
        """Cross symbol sqrt(kappa * kappa(-.)), the symbol of G."""
        return np.sqrt(self.eigenvalues * self.eigenvalues[::-1])


def build_model(seq: CorrelationSequence) -> StationaryModel:
    """Assemble the covariance family induced by a correlation sequence.

    The circulant closure of K_{ij} = eps * k_{i-j} has eigenvalues given by
    the DFT of the sequence; they must be real (Hermitian sequence) and no
    more than ``PSD_TOL`` relative below zero, else the sequence does not
    come from a nonnegative spectrum.  Both bounds are at least n times the
    smallest subnormal, the rounding a subnormal level keeps through the FFT.
    Eigenvalues within ``EIGENVALUE_SNAP`` of zero are snapped to exact zeros
    before the square roots are taken.

    Raises:
        NotPositiveDefiniteError: eigenvalue below -PSD_TOL * max.
        ValueError: sequence of even length or visibly non-Hermitian.
    """
    n = seq.n_points
    if n % 2 == 0:
        raise ValueError("correlation sequence length must be odd")
    raw = seq.eps * _fftshift(np.fft.fft(_ifftshift(seq.values)))
    scale = float(np.abs(raw).max(initial=0.0))
    floor = n * np.finfo(float).smallest_subnormal
    if scale > 0 and np.abs(raw.imag).max() > max(1e-9 * scale, floor):
        raise ValueError("correlation sequence is not Hermitian: complex spectrum")
    eigs = raw.real.copy()
    if scale > 0:
        if eigs.min() < -max(PSD_TOL * scale, floor):
            raise NotPositiveDefiniteError(
                f"covariance has eigenvalue {eigs.min():.3e} < -{PSD_TOL:g} * {scale:.3e}; "
                "the spectral input is invalid or aliased"
            )
        eigs[np.abs(eigs) < EIGENVALUE_SNAP * scale] = 0.0
    np.clip(eigs, 0.0, None, out=eigs)
    return StationaryModel(eps=seq.eps, step=seq.step, eigenvalues=_frozen(eigs))


@dataclass(frozen=True, eq=False)
class ModularFilter:
    """Modular symbol lambda = kappa(-.)/kappa with its stationary filter kernels.

    The symbol lives on a support mask and is exactly zero off it: the
    whole grid for :func:`modular_matrix`, the thermal support for
    :func:`qnoise.decomposition.modular_kernels_theta`.  ``symbol`` is the
    symbol of the circulant L = K_rev K^-1, and its square root that of
    L^(1/2).  ``kernel_half``/``kernel_inv_half`` are the first-row kernels of
    L^(1/2) and L^(-1/2) at centered lags, i.e. the discrete input-output
    and reversed filters.  They satisfy the modular property
    kernel_half(-t) = conj(kernel_half(t)) = kernel_inv_half(t), and their
    plain circular convolution is eps times the kernel of the support
    indicator (the unit kernel delta_{j0} on the whole grid).
    """

    eps: float
    symbol: np.ndarray
    kernel_half: np.ndarray
    kernel_inv_half: np.ndarray

    @property
    def lags(self) -> np.ndarray:
        return time_lags(self.symbol.size)


def _masked_filter(lam: np.ndarray, support: np.ndarray, eps: float, step: float) -> ModularFilter:
    """The one builder of lambda^(+-1/2) kernels: the modular filter of ``lam``
    on ``support``, exactly zero off it (``lam`` is read only on ``support``)."""
    symbol = np.where(support, lam, 0.0)
    # Off the support both roots are sqrt(0) and sqrt(1 / inf) = 0.
    kernels = kernel_of(np.sqrt((symbol, 1.0 / np.where(support, lam, np.inf))), step)
    kernels *= eps
    kernel_half, kernel_inv_half = kernels
    return ModularFilter(
        eps=float(eps),
        symbol=_frozen(symbol),
        kernel_half=_frozen(kernel_half),
        kernel_inv_half=_frozen(kernel_inv_half),
    )


def modular_matrix(model: StationaryModel) -> ModularFilter:
    """Modular symbol and filter kernels of an invertible model.

    Raises:
        NotInvertibleError: if the smallest covariance eigenvalue is below
            ``INVERTIBILITY_FLOOR`` relative to the largest (the spectrum
            has vacuum components).
    """
    if not model.invertible:
        raise NotInvertibleError(
            "covariance is singular (vacuum components present); "
            "the modular filter is undefined"
        )
    lam = model.eigenvalues[::-1] / model.eigenvalues
    return _masked_filter(lam, np.ones(lam.size, dtype=bool), model.eps, model.step)


def coefficient_norm(model: StationaryModel, zeta: np.ndarray) -> float:
    """Norm squared zeta† (K + K_rev) zeta of a test coefficient vector.

    In the Fourier basis this is sum_k (kappa_k + kappa_-k) |(F zeta)_k|^2
    with F the unitary DFT: O(n log n), and nonnegative by construction.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (model.n_points,):
        raise ValueError(f"expected {model.n_points} coefficients, got {zeta.shape}")
    eigs = model.eigenvalues
    power = np.abs(_fftshift(np.fft.fft(zeta))) ** 2
    return float(((eigs + eigs[::-1]) * power).sum()) / eigs.size
