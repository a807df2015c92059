"""Discrete flip-symmetric spectra of stationary quantum noise.

A noise spectrum lives on a finite symmetric frequency grid with an odd
number of points, so nu = 0 is a grid point and the index reversal
k -> n-1-k realizes the frequency flip nu -> -nu exactly, bit for bit.
A spectrum is a pair of nonnegative densities: ``kappa`` for the noise
and ``kappa_rev`` for its time reverse, tied together by

    kappa_rev(nu) = kappa(-nu).

Everything pointwise-derived is computed here: the modular function
lambda = kappa_rev / kappa where both densities are positive, the cross
density gamma = sqrt(kappa * kappa_rev), and the support masks.  Grid
points where both densities vanish carry no signal and are dropped from
the retained support; the rest is partitioned into

    n_plus   : kappa == 0 < kappa_rev   (vacuum points of the noise)
    n_minus  : kappa_rev == 0 < kappa   (vacuum points of the reverse)
    theta    : both densities positive  (thermal support)

The partition must be crisp for all downstream case analysis, so density
values below ``ZERO_SNAP`` times the peak are snapped to exact zeros
before the masks are computed (closed-form densities such as the Planck
law, which are strictly positive, skip the snap).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteError

#: Relative threshold below which tabulated density values become exact zeros.
ZERO_SNAP = 1e-14

#: Tolerance of the classification identities.
CLASSIFY_TOL = 1e-12

VACUUM = "vacuum"
STANDARD_VACUUM = "standard-vacuum"
THERMAL = "thermal"
STANDARD_THERMAL = "standard-thermal"
WHITE = "white"
MIXED = "mixed"


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values)
    out.setflags(False)  # write=False; by position, as numpy parses a keyword here slowly
    return out


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Symmetric frequency grid nu_k = step * (k - (n-1)/2), n odd.

    The point count is odd so that the reversal k -> n-1-k is an exact
    involution with nu = 0 as its fixed point: points[n-1-k] == -points[k]
    holds exactly in floating point.
    """

    n_points: int
    step: float
    points: np.ndarray

    @property
    def nu_max(self) -> float:
        return float(self.points[-1])


def make_grid(n_points: int, step: float) -> SpectralGrid:
    """Build a symmetric grid of ``n_points`` frequencies spaced by ``step``.

    Raises:
        ValueError: if ``n_points`` is not an integer, is even or < 3, or
            ``step`` <= 0.
        NonFiniteError: if ``n_points`` or ``step`` is NaN or infinite, or
            the span ``n_points * step`` is not a finite float.
    """
    if isinstance(n_points, (float, np.floating)) and not math.isfinite(n_points):
        raise NonFiniteError(f"n_points must be finite, got {n_points}")
    if int(n_points) != n_points:
        raise ValueError(f"n_points must be an integer, got {n_points}")
    n_points = int(n_points)
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"n_points must be an odd integer >= 3, got {n_points}")
    try:
        span = n_points * float(step)
    except OverflowError:  # an integer n_points beyond the float range
        span = math.inf
    if not math.isfinite(span):
        raise NonFiniteError(f"step must be finite, and so must n_points * step; got step {step}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    half = (n_points - 1) // 2
    points = float(step) * np.arange(-half, half + 1)
    return SpectralGrid(n_points, float(step), _frozen(points))


@dataclass(frozen=True, eq=False)
class SpectralDensityPair:
    """Sampled densities of a stationary noise and its time reverse.

    Attributes:
        grid: the frequency grid.
        kappa: noise density, >= 0 per point.
        kappa_rev: reversed density; exactly the index flip of ``kappa``.
        lambda_theta: kappa_rev / kappa on the thermal support, NaN elsewhere.
        gamma: cross density sqrt(kappa * kappa_rev); flip-symmetric.
        n_plus, n_minus, theta: the three disjoint support masks.

    ``sigma``, ``sigma_rev``: amplitudes sqrt(kappa), sqrt(kappa_rev), computed once on first read.
    """

    grid: SpectralGrid
    kappa: np.ndarray
    kappa_rev: np.ndarray
    lambda_theta: np.ndarray
    gamma: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    theta: np.ndarray

    @property
    def retained(self) -> np.ndarray:
        """Mask of points carrying any signal (kappa + kappa_rev > 0)."""
        return self.n_plus | self.n_minus | self.theta

    @cached_property
    def sigma(self) -> np.ndarray:
        return _frozen(np.sqrt(self.kappa))

    @cached_property
    def sigma_rev(self) -> np.ndarray:
        return _frozen(self.sigma[::-1])  # kappa_rev is the flip of kappa


def _checked_peak(what: str, *values: np.ndarray) -> float:
    """The largest entry of ``values``, after checking that every entry is
    finite and nonnegative and that the square of the largest is finite:
    downstream code squares densities and amplitudes (norms, Gram products)."""
    # NaN passes through min and max, so it is caught before the sign check.
    lows = [*map(np.minimum.reduce, values)]
    highs = [*map(np.maximum.reduce, values)]
    if not all(map(math.isfinite, lows + highs)):
        raise NonFiniteError(f"{what} must be finite (no NaN or infinity)")
    if min(lows) < 0:
        raise ValueError(f"{what} must be nonnegative")
    peak = float(max(highs))
    if not math.isfinite(peak * peak):
        raise NonFiniteError(f"the peak {peak!r} of the {what} is too large: its square overflows")
    return peak


def _pair_from_kappa(grid: SpectralGrid, kappa: np.ndarray, snap: float) -> SpectralDensityPair:
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape != (grid.n_points,):
        raise ValueError(
            f"expected {grid.n_points} density values, got shape {kappa.shape}"
        )
    peak = _checked_peak("density values", kappa)
    if snap > 0:  # a new array even at peak 0, so the caller's values are not frozen
        kappa = np.where(kappa < snap * peak, 0.0, kappa)
    kappa_rev = kappa[::-1].copy()
    # masks of contiguous operands: a ufunc on a reversed view costs about three times as much
    pos, pos_rev = kappa > 0, kappa_rev > 0
    theta = pos & pos_rev

    gamma = kappa * kappa_rev
    np.sqrt(gamma, out=gamma)
    # x / NaN is a quiet NaN: lambda is NaN off theta with no division by zero.
    lam = np.divide(kappa_rev, np.where(theta, kappa, np.nan))
    arrays = kappa, kappa_rev, lam, gamma, pos_rev > pos, pos > pos_rev, theta
    for array in arrays:
        array.setflags(False)  # each is new and contiguous
    return SpectralDensityPair(grid, *arrays)


def planck_density(beta: float, h: float, grid: SpectralGrid) -> SpectralDensityPair:
    """Equilibrium (KMS) noise density at inverse temperature ``beta``.

        kappa(nu)     = h nu / (exp(beta h nu) - 1)
        kappa_rev(nu) = h nu / (1 - exp(-beta h nu))

    The removable singularity at nu = 0 is filled with the analytic limit
    1/beta.  Both densities are strictly positive, so the thermal support
    is the whole grid and the modular function is exp(beta h nu)
    everywhere.

    Raises:
        ValueError: for beta < 0 or h <= 0.  beta == 0 (infinite
            temperature) has no finite density level; request that regime
            through :func:`flat_density` instead.
        NonFiniteError: where beta h nu is so large that kappa underflows
            to 0, which would make the noise mixed.
    """
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta == 0:
        raise ValueError(
            "beta = 0 is the flat (white) limit with no finite density scale; "
            "use flat_density(sigma2, grid) for that regime"
        )
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    nu = grid.points
    # nu = 0 at the centre gives 0/0 there; the analytic limit replaces it.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = h * nu / np.expm1(beta * h * nu)
    kappa[grid.n_points // 2] = 1.0 / beta
    if not kappa.all():  # underflow, as where beta h nu > ln(float max) ~ 709.78 and expm1 overflows
        raise NonFiniteError(f"beta * h * nu_max = {beta * h * grid.nu_max!r} is too cold: kappa underflows to 0")
    return _pair_from_kappa(grid, kappa, snap=0.0)


def flat_density(sigma2: float, grid: SpectralGrid) -> SpectralDensityPair:
    """White-noise density kappa = kappa_rev = sigma2 at every grid point."""
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    return _pair_from_kappa(grid, np.full(grid.n_points, float(sigma2)), snap=0.0)


def tabulated_density(kappa_values, grid: SpectralGrid) -> SpectralDensityPair:
    """Density pair from explicit per-point noise values.

    The reversed density is induced by the flip, kappa_rev(nu) = kappa(-nu);
    values below ``ZERO_SNAP`` times the peak are snapped to exact zeros so
    the support masks are unambiguous.
    """
    return _pair_from_kappa(grid, kappa_values, snap=ZERO_SNAP)


def classify(pair: SpectralDensityPair) -> frozenset:
    """Labels describing the noise type.

    Returns a frozenset drawn from {vacuum, standard-vacuum, thermal,
    standard-thermal, white, mixed}:

      * vacuum: the thermal support is empty (gamma == 0 everywhere);
        standard additionally requires kappa + kappa_rev = 1 on retained
        points.
      * thermal: no vacuum points; standard additionally requires
        kappa * kappa_rev = 1, and white the stronger kappa = kappa_rev =
        const.
      * mixed: both a thermal part and vacuum points are present.

    An empty spectrum (nothing retained) gets no labels.
    """
    has_theta = bool(pair.theta.any())
    has_vacuum_points = bool(pair.n_plus.any() or pair.n_minus.any())
    if has_theta and has_vacuum_points:
        return frozenset({MIXED})
    if not (has_theta or has_vacuum_points):
        return frozenset()
    if not has_theta:
        retained = pair.n_plus | pair.n_minus
        labels = {VACUUM}
        if np.abs(pair.kappa[retained] + pair.kappa_rev[retained] - 1.0).max() <= CLASSIFY_TOL:
            labels.add(STANDARD_VACUUM)
        return frozenset(labels)
    # the retained points are theta, and theta is flip-symmetric: kap_rev is the flip of kap
    kap = pair.kappa[pair.theta]
    kap_rev = kap[::-1]
    labels = {THERMAL}
    # the largest |x - 1| is at the largest or the smallest x, as x - 1 is exact near 1
    prod = kap * kap_rev
    if prod.max() - 1.0 <= CLASSIFY_TOL and 1.0 - prod.min() <= CLASSIFY_TOL:
        labels.add(STANDARD_THERMAL)
    scale = kap.max()
    if scale - kap.min() <= CLASSIFY_TOL * scale and np.abs(kap - kap_rev).max() <= CLASSIFY_TOL * scale:
        labels.add(WHITE)
    return frozenset(labels)
