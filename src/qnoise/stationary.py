"""Canonical Hilbert-space realization of a stationary noise/reverse pair.

The periodic (circulant) closure of the correlation matrix is used
throughout: every matrix here is diagonal in one discrete Fourier basis,
so the noise and reversed-noise covariances commute exactly and each
object is its symbol of n per-frequency numbers.  Only symbols are
stored; a dense matrix is built from its symbol on first access and then
cached, as a read-only :func:`qnoise.fourier.circulant` view over 2n - 1
entries (K_rev and X_rev over the conjugated first columns of K and X):

    covariance K        <- symbol kappa(nu_k)
    reversed  K_rev     <- symbol kappa(-nu_k)       (= conj(K))
    root      X = K^1/2 <- symbol sqrt(kappa)
    cross     G         <- symbol gamma = sqrt(kappa * kappa(-.))
    modular   L         <- symbol kappa(-.)/kappa    (K invertible only)

With the duality n*step*eps = 1 the quadrature constant collapses to one:
K = eps * circulant(k_j) has eigenvalues exactly {kappa(nu_k)}, and the
normalized spectral amplitudes reproduce K, K_rev and G with unit weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotInvertibleError, NotPositiveDefiniteError
from .fourier import check_duality, circulant, column_circulant, kernel_of, time_lags
from .spectra import SpectralDensityPair, _frozen

#: Relative eigenvalue floor below which the covariance counts as singular.
INVERTIBILITY_FLOOR = 1e-10

#: Relative bound on how far below zero an eigenvalue may dip before the
#: induced covariance is rejected instead of clamped.
PSD_TOL = 1e-10

#: Relative threshold below which eigenvalues snap to exact zero, keeping
#: vacuum supports crisp through the FFT round trip.
EIGENVALUE_SNAP = 1e-14


def _dense(symbol_of) -> cached_property:
    """Read-only attribute: the circulant view of ``symbol_of(self)``, built once."""
    return cached_property(lambda self: circulant(symbol_of(self)))


@dataclass(frozen=True, eq=False)
class CorrelationSequence:
    """Correlation samples k_j at centered lags j = -(n-1)/2 .. (n-1)/2.

    Attributes:
        eps: time step; t_j = eps * j.
        step: frequency spacing of the originating grid (1 / (n * eps)).
        values: k_j, Hermitian in the lag (k_{-j} = conj(k_j)).
        reversed: reversed-noise correlations, defined as k_{-j} exactly.
        cross: symmetric real cross-correlation r_j from the gamma density.
    """

    eps: float
    step: float
    values: np.ndarray
    reversed: np.ndarray
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
    the cross density; the reversed sequence is the exact lag flip of the
    forward one.  Requires the grid/time duality n*step*eps = 1.
    """
    grid = pair.grid
    check_duality(grid.n_points, grid.step, eps)
    values = kernel_of(pair.kappa, grid.step)
    cross = kernel_of(pair.gamma, grid.step)
    return CorrelationSequence(
        eps=float(eps),
        step=grid.step,
        values=_frozen(values),
        reversed=_frozen(values[::-1].copy()),
        cross=_frozen(cross),
    )


@dataclass(frozen=True, eq=False)
class StationaryModel:
    """Finite canonical realization of a noise and its time reverse.

    ``eigenvalues`` is the covariance symbol, ordered like the grid points
    (entry k belongs to frequency nu_k = step*(k - (n-1)/2)).  The dense
    matrices below (L is None unless invertible) are read-only and built
    on first access; K_rev and X_rev are exact conjugates of K and X.
    Column j of X realizes the noise at lag j and column j of X_rev its
    time reverse: X†X = K, X_rev†X_rev = K_rev and X†X_rev = G.
    """

    eps: float
    step: float
    frequencies: np.ndarray
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

    K = _dense(lambda m: m.eigenvalues)
    K_rev = cached_property(lambda m: column_circulant(np.conj(m.K[:, 0])))
    X = _dense(lambda m: np.sqrt(m.eigenvalues))
    X_rev = cached_property(lambda m: column_circulant(np.conj(m.X[:, 0])))
    G = _dense(lambda m: m.gamma)
    L = cached_property(lambda m: modular_matrix(m).L if m.invertible else None)


def build_model(seq: CorrelationSequence) -> StationaryModel:
    """Assemble the covariance family induced by a correlation sequence.

    The circulant closure of K_{ij} = eps * k_{i-j} has eigenvalues given by
    the DFT of the sequence; they must be real (Hermitian sequence) and no
    more than ``PSD_TOL`` relative below zero, else the sequence does not
    come from a nonnegative spectrum.  Eigenvalues within ``EIGENVALUE_SNAP``
    of zero are snapped to exact zeros before the square roots are taken.

    Raises:
        NotPositiveDefiniteError: eigenvalue below -PSD_TOL * max.
        ValueError: sequence of even length or visibly non-Hermitian.
    """
    n = seq.n_points
    if n % 2 == 0:
        raise ValueError("correlation sequence length must be odd")
    raw = seq.eps * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(seq.values)))
    scale = float(np.abs(raw).max(initial=0.0))
    if scale > 0 and np.abs(raw.imag).max() > 1e-9 * scale:
        raise ValueError("correlation sequence is not Hermitian: complex spectrum")
    eigs = raw.real.copy()
    if scale > 0:
        if eigs.min() < -PSD_TOL * scale:
            raise NotPositiveDefiniteError(
                f"covariance has eigenvalue {eigs.min():.3e} < -{PSD_TOL:g} * {scale:.3e}; "
                "the spectral input is invalid or aliased"
            )
        eigs[np.abs(eigs) < EIGENVALUE_SNAP * scale] = 0.0
    np.clip(eigs, 0.0, None, out=eigs)
    return StationaryModel(
        eps=seq.eps,
        step=seq.step,
        frequencies=_frozen(seq.step * time_lags(n)),
        eigenvalues=_frozen(eigs),
    )


@dataclass(frozen=True, eq=False)
class ModularFilter:
    """Modular symbol lambda = kappa(-.)/kappa with its stationary filter kernels.

    L = K_rev K^-1 and L_half = L^(1/2) are built from ``symbol`` on first
    access.  ``kernel_half``/``kernel_inv_half`` are the first-row kernels of
    L^(1/2) and L^(-1/2) at centered lags, i.e. the discrete input-output
    and reversed filters.  They satisfy the modular property
    kernel_half(-t) = conj(kernel_half(t)) = kernel_inv_half(t), and their
    plain circular convolution is the unit kernel delta_{j0}.
    """

    eps: float
    lags: np.ndarray
    symbol: np.ndarray
    kernel_half: np.ndarray
    kernel_inv_half: np.ndarray

    L = _dense(lambda f: f.symbol)
    L_half = _dense(lambda f: np.sqrt(f.symbol))


def modular_matrix(model: StationaryModel) -> ModularFilter:
    """Modular matrix and filter kernels of an invertible model.

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
    return ModularFilter(
        eps=model.eps,
        lags=time_lags(model.n_points),
        symbol=_frozen(lam),
        kernel_half=_frozen(model.eps * kernel_of(np.sqrt(lam), model.step)),
        kernel_inv_half=_frozen(model.eps * kernel_of(np.sqrt(1.0 / lam), model.step)),
    )


@dataclass(frozen=True, eq=False)
class SpectralAmplitudes:
    """Per-lag spectral amplitudes of the pair.

    ``noise[k, j]`` is the amplitude of the noise at lag j and frequency
    nu_k, sqrt(kappa(nu_k)) * u_j(nu_k) with the normalized plane wave
    u_j(nu) = sqrt(eps) * exp(-2 pi i nu eps j); ``reverse`` carries the
    time-reversed amplitudes, constructed as the exact star involution
    (conjugate + frequency flip) of ``noise``.
    """

    frequencies: np.ndarray
    lags: np.ndarray
    noise: np.ndarray
    reverse: np.ndarray


def spectral_amplitudes(model: StationaryModel) -> SpectralAmplitudes:
    """Spectral representation of the realization.

    Discrete inner products with weight ``step`` reproduce the model
    matrices: sum_k conj(noise[k,i]) noise[k,j] step = K_ij, the same with
    ``reverse`` gives K_rev, and the mixed product gives G.
    """
    lags = time_lags(model.n_points)
    # exp(i phase) as cos + i sin of a real phase, cheaper than a complex exp
    phase = (-2 * np.pi * model.eps) * np.outer(model.frequencies, lags)
    noise = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=noise.real)
    np.sin(phase, out=noise.imag)
    noise *= np.sqrt(model.eps)
    noise *= np.sqrt(model.eigenvalues)[:, None]
    reverse = np.conj(noise[::-1, :])
    return SpectralAmplitudes(
        frequencies=model.frequencies,
        lags=_frozen(lags),
        noise=_frozen(noise),
        reverse=_frozen(reverse),
    )


def coefficient_norm(model: StationaryModel, zeta: np.ndarray) -> float:
    """Norm squared zeta† (K + K_rev) zeta of a test coefficient vector.

    In the Fourier basis this is sum_k (kappa_k + kappa_-k) |(F zeta)_k|^2
    with F the unitary DFT: O(n log n), and nonnegative by construction.
    """
    zeta = np.asarray(zeta, dtype=complex)
    if zeta.shape != (model.n_points,):
        raise ValueError(f"expected {model.n_points} coefficients, got {zeta.shape}")
    eigs = model.eigenvalues
    power = np.abs(np.fft.fftshift(np.fft.fft(zeta))) ** 2
    return float(np.sum((eigs + eigs[::-1]) * power)) / eigs.size
