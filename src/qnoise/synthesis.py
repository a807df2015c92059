"""Linear synthesis of an arbitrary stationary pair from standard noise.

Any second-order stationary pair with target density kappa (amplitude
sigma = sqrt(kappa)) is a stationary filter of a standard pair built from
the target's own modular data:

    kappa_std     = 1 on n_minus,  lambda^(-1/2) on theta,  0 on n_plus
    kappa_rev_std = the flip of kappa_std

so the standard pair, a ``SpectralDensityPair``, has unit cross density on
the thermal support (kappa_std * kappa_rev_std = 1 there) and kappa_std +
kappa_rev_std = 1 on the vacuum points.  The real symmetric transmission
function

    f = sqrt(sigma * sigma_rev)   on theta
    f = max(sigma, sigma_rev)     off theta

times the standard pair's own ``sigma`` reproduces the target spectrum
exactly: f^2 * kappa_std = kappa at every retained point, and the time-domain filter is the quadrature
Fourier kernel of f.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import check_duality, convolve, kernel_of, time_lags
from .spectra import SpectralDensityPair, _frozen, _pair_from_kappa


def build_standard_pair(target: SpectralDensityPair) -> SpectralDensityPair:
    """Standard pair underlying ``target``; see the module docstring.  Its ``sigma`` is the amplitude
    a bit for bit: sqrt(a * a) == a, as a * a is never subnormal (a = 0 or a >= 2.7e-78)."""
    # lambda_theta is NaN off theta, and NaN ** -0.25 is a quiet NaN
    amp = np.where(target.theta, np.power(target.lambda_theta, -0.25), target.n_minus)
    return _pair_from_kappa(target.grid, amp * amp, snap=0.0)


@dataclass(frozen=True, eq=False)
class TransmissionFilter:
    """Real symmetric transmission function of a target pair.

    ``pair`` is the target, whose grid the filter lives on and whose
    amplitudes ``pair.sigma``/``pair.sigma_rev`` it must reproduce;
    ``time_kernel`` is the quadrature Fourier kernel of ``f`` (real up to
    rounding since f is real and flip-symmetric), and ``standard`` is the
    constructed standard pair the filter acts on.
    """

    pair: SpectralDensityPair
    f: np.ndarray
    time_kernel: np.ndarray
    standard: SpectralDensityPair


def transmission_function(target: SpectralDensityPair) -> TransmissionFilter:
    """Transmission function of ``target`` over its standard pair.

    On the thermal support f = sqrt(sigma * sigma_rev) = gamma^(1/2); off
    it exactly one of the amplitudes is nonzero and f is their pointwise
    maximum, which makes f^2 * kappa_std = kappa hold at every point.
    """
    sigma, sigma_rev = target.sigma, target.sigma_rev
    f = np.where(
        target.theta,
        np.sqrt(sigma * sigma_rev),
        np.maximum(sigma, sigma_rev),
    )
    return TransmissionFilter(
        pair=target,
        f=_frozen(f),
        time_kernel=_frozen(kernel_of(f, target.grid.step)),
        standard=build_standard_pair(target),
    )


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Filtered amplitudes and the noise density ``kappa_out`` = out_amp**2
    they reproduce; the reproduced reverse density is out_amp_rev**2."""

    out_amp: np.ndarray
    out_amp_rev: np.ndarray
    kappa_out: np.ndarray


def synthesize(filt: TransmissionFilter, standard: SpectralDensityPair) -> SynthesisResult:
    """Apply the transmission function to the standard amplitudes.

    Returns the filtered pair f * sigma, f * sigma_rev of ``standard``
    together with the reproduced noise density; the squares of the filtered
    pair match the target pair at every retained point.

    Raises:
        ValueError: if ``standard`` lives on a different grid than the
            filter.
    """
    points, filt_points = standard.grid.points, filt.pair.grid.points
    if points is not filt_points and not np.array_equal(points, filt_points):
        raise ValueError("transmission filter and standard pair use different grids")
    out_amp = filt.f * standard.sigma
    out_amp_rev = filt.f * standard.sigma_rev
    return SynthesisResult(
        out_amp=_frozen(out_amp),
        out_amp_rev=_frozen(out_amp_rev),
        kappa_out=_frozen(out_amp * out_amp),
    )


def relative_error(reproduced: np.ndarray, target: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per point |reproduced - target| / target on ``on`` and |reproduced| off it;
    inf where a target on ``on`` underflowed to 0 and the reproduced value is not 0."""
    defect = np.abs(np.where(on, reproduced - target, reproduced))
    return np.divide(defect, target, out=np.where(on & (defect > 0), np.inf, defect), where=on & (target != 0))


@dataclass(frozen=True, eq=False)
class TimeDomainFilter:
    """Time realization of a transmission filter.

    ``phi`` is the filter kernel at centered lags; :meth:`apply` performs
    the eps-weighted circular convolution phi * chi, which maps the time
    kernel of the standard pair to the time kernel of the target.
    """

    eps: float
    phi: np.ndarray

    @property
    def lags(self) -> np.ndarray:
        return time_lags(self.phi.size)

    def apply(self, chi: np.ndarray) -> np.ndarray:
        return convolve(self.phi, chi, self.eps)


def time_domain_filter(filt: TransmissionFilter, eps: float) -> TimeDomainFilter:
    """Time-domain form of the filter for the time step ``eps``."""
    n = filt.f.size
    check_duality(n, filt.pair.grid.step, eps)
    return TimeDomainFilter(eps=float(eps), phi=filt.time_kernel)
