"""Vacuum/thermal decomposition and the modular input-output estimates.

The time dependence of a stationary amplitude is a pure phase that
commutes with every spectral projector, so components and estimates are
tabulated on the frequency axis alone: the noise amplitude is
sqrt(kappa(nu_k)) per point, its reverse sqrt(kappa_rev(nu_k)), and the
projectors are the support masks of the density pair.  Masking is exact,
which keeps the orthogonality of the vacuum and thermal parts an identity
rather than a tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupportError
from .fourier import check_duality
from .spectra import SpectralDensityPair, _frozen
from .stationary import ModularFilter, StationaryModel, _masked_filter

INPUT_TO_OUTPUT = "input-to-output"
OUTPUT_TO_INPUT = "output-to-input"

#: Allowed relative mismatch between model eigenvalues and pair densities.
MODEL_MATCH_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ComponentSplit:
    """Orthogonal vacuum and thermal components of the amplitude pair.

    ``amp`` = sqrt(kappa) splits into ``amp_vac`` (supported on n_minus,
    the points whose reverse density vanishes) plus ``amp_thermal``
    (supported on theta); ``amp_rev`` splits dually with the vacuum part
    on n_plus.  The projectors are the support masks of ``pair``.
    """

    pair: SpectralDensityPair
    amp: np.ndarray
    amp_rev: np.ndarray
    amp_vac: np.ndarray
    amp_thermal: np.ndarray
    amp_rev_vac: np.ndarray
    amp_rev_thermal: np.ndarray


def split(model: StationaryModel, pair: SpectralDensityPair) -> ComponentSplit:
    """Split the amplitudes of ``pair`` into vacuum and thermal parts.

    ``model`` must have been built from the same spectrum; the eigenvalues
    are checked against the densities to catch mismatched arguments.
    """
    if model.n_points != pair.grid.n_points:
        raise ValueError("model and density pair have different grid sizes")
    scale = max(float(pair.kappa.max(initial=0.0)), 1e-300)
    if np.abs(model.eigenvalues - pair.kappa).max() > MODEL_MATCH_TOL * scale:
        raise ValueError("model was not built from this density pair")

    amp, amp_rev = pair.sigma, pair.sigma_rev
    return ComponentSplit(
        pair=pair,
        amp=amp,
        amp_rev=amp_rev,
        amp_vac=_frozen(np.where(pair.n_minus, amp, 0.0)),
        amp_thermal=_frozen(np.where(pair.theta, amp, 0.0)),
        amp_rev_vac=_frozen(np.where(pair.n_plus, amp_rev, 0.0)),
        amp_rev_thermal=_frozen(np.where(pair.theta, amp_rev, 0.0)),
    )


def best_estimate(split_result: ComponentSplit, direction: str) -> np.ndarray:
    """Best linear estimate across the pair, per direction.

    ``input-to-output`` estimates the reversed amplitude from the noise:
    the result is the modular filter sqrt(lambda) applied to the noise
    amplitude on the thermal support, realized as the exact masking of the
    reversed amplitude (the two agree to rounding on theta, and masking
    keeps the residual supported exactly on n_plus).  ``output-to-input``
    is the symmetric statement with sqrt(lambda)^-1 and n_minus.
    """
    if direction == INPUT_TO_OUTPUT:
        return _frozen(np.where(split_result.pair.theta, split_result.amp_rev, 0.0))
    if direction == OUTPUT_TO_INPUT:
        return _frozen(np.where(split_result.pair.theta, split_result.amp, 0.0))
    raise ValueError(
        f"direction must be {INPUT_TO_OUTPUT!r} or {OUTPUT_TO_INPUT!r}, got {direction!r}"
    )


def residual_norm2(split_result: ComponentSplit, residual: np.ndarray) -> tuple[float, float]:
    """step * ||residual||^2 of an input-to-output estimate, and the value
    step * sum(kappa_rev over n_plus) it must take."""
    pair = split_result.pair
    return (
        pair.grid.step * float(np.sum(np.abs(residual) ** 2)),
        pair.grid.step * float(np.sum(pair.kappa_rev[pair.n_plus])),
    )


def modular_kernels_theta(pair: SpectralDensityPair, eps: float) -> ModularFilter:
    """Modular filter of lambda over the thermal support only.

    The modular function is taken as exactly zero off theta (no
    extrapolation across the support boundary).  The kernels keep the
    modular property of :class:`~qnoise.stationary.ModularFilter`, and their
    plain circular convolution is the kernel of the theta indicator.

    Raises:
        EmptySupportError: if the thermal support is empty.
    """
    grid = pair.grid
    check_duality(grid.n_points, grid.step, eps)
    if not pair.theta.any():
        raise EmptySupportError("thermal support is empty; no modular kernels exist")
    return _masked_filter(pair.lambda_theta, pair.theta, eps, grid.step)
