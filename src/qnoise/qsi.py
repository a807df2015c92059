"""Second-order quantum stochastic integration tables.

No operator is ever materialized.  Every integrator measure M is carried
as a pair of per-frequency amplitudes ``(minus, plus)`` meaning

    M(D) = integral over D of  minus(nu) A_minus(dnu) + plus(nu) A_plus(dnu)

against the canonical annihilation/creation pair, whose only nonvanishing
vacuum moment is the flip-paired contraction

    < A_minus(dnu) A_plus(dnu') > = delta(nu' + nu) dnu.

So every second moment is a correlation density integrated over a cell set,
and every table entry is that one rule (:func:`_integral`):

    moment = step * sum over the cells of D1 & D2 of density

    integrator   < first(D)^dag second(D') >   density kappa, gamma or kappa_rev on D & D'
    ordered      < M1(D1) M2(D2) >             density minus1[k] * plus2[flip k] on D1 & flip(D2)
    output       < first(D) second(D')^dag >   density minus1 * minus2 on D & D' (:meth:`OutputPair.density`)

In particular the creator has positive norm (< A_plus^dag A_plus > over D
is the measure of D), the annihilator kills the vacuum, and all remaining
ordered canonical products are structural zeros.

The canonical pair is the paper's canonical pair on the spectrum, in closed
form (:func:`canonical_from_vacuum`, with the noise and reverse measures it
splices): on a standard vacuum's support the creator is (minus, plus) =
(0, 1) and the annihilator (1, 0), both 0 off it.

Intervals are unions of grid cells, represented as boolean masks; the
measure of a cell is the grid step.  ``qnoise qsi`` and ``verify`` read the
default cells D and D' from :func:`_default_bounds`.  An output pair keeps
its amplitudes sigma, sigma_rev only in its two measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateRecoveryError, NonFiniteError, NotVacuumError
from .fourier import kernel_of
from .spectra import SpectralDensityPair, SpectralGrid, _checked_peak, _frozen

if TYPE_CHECKING:
    from .stationary import StationaryModel

#: Tolerance on the standard-vacuum level kappa + kappa_rev = 1.
STANDARD_VACUUM_TOL = 1e-12

#: Relative tolerance on the flip relation sigma_rev = flip(sigma).
FLIP_TOL = 1e-12


def interval_mask(grid: SpectralGrid, lo: float, hi: float) -> np.ndarray:
    """Cells of the grid whose center lies in [lo, hi] (inclusive)."""
    if math.isnan(lo) or math.isnan(hi):
        raise NonFiniteError(f"interval bound is NaN: lo = {lo}, hi = {hi}")
    if lo > hi:
        raise ValueError(f"empty interval: lo = {lo} > hi = {hi}")
    return _frozen((grid.points >= lo) & (grid.points <= hi))


def flipped(mask: np.ndarray) -> np.ndarray:
    """The cell set of -D for the cell set of D."""
    return _frozen(np.asarray(mask)[::-1].copy())


@dataclass(frozen=True, eq=False)
class MeasureSymbol:
    """Integrator measure as amplitudes over the canonical pair."""

    minus: np.ndarray
    plus: np.ndarray


def _integral(density: np.ndarray, mask1, mask2, step: float):
    """step * the sum of a per-cell density over the cells of D1 & D2: every moment of this module."""
    return step * density[np.asarray(mask1, dtype=bool) & np.asarray(mask2, dtype=bool)].sum()


def _default_bounds(grid: SpectralGrid) -> tuple[tuple[float, float], tuple[float, float]]:
    """The bounds of qsi's default cell sets D = [0, nu_max] and D' = [-nu_max/2, nu_max/2]."""
    return (0.0, grid.nu_max), (-grid.nu_max / 2, grid.nu_max / 2)


def ordered_moment(
    first: MeasureSymbol,
    mask1: np.ndarray,
    second: MeasureSymbol,
    mask2: np.ndarray,
    step: float,
) -> complex:
    """Vacuum moment < first(D1) second(D2) > by bilinear expansion."""
    return complex(_integral(first.minus * second.plus[::-1], mask1, np.asarray(mask2, dtype=bool)[::-1], step))


_DENSITIES = {
    ("noise", "noise"): "kappa",
    ("noise", "reverse"): "gamma",
    ("reverse", "noise"): "gamma",
    ("reverse", "reverse"): "kappa_rev",
}


@dataclass(frozen=True, eq=False)
class IntegratorTable:
    """Dagger-first second moments of the noise/reverse integrator pair.

    ``second_moment(first, D1, second, D2)`` is < first(D1)^dag second(D2) >
    with names in {"noise", "reverse"}; by absolute continuity it equals the
    quadrature integral of the corresponding density (kappa, gamma, or
    kappa_rev) over the intersection of the cell sets.
    """

    pair: SpectralDensityPair

    def density(self, first: str, second: str) -> np.ndarray:
        try:
            return getattr(self.pair, _DENSITIES[first, second])
        except KeyError:
            raise ValueError(f"unknown integrator names: {(first, second)!r}") from None

    def second_moment(self, first: str, mask1, second: str, mask2) -> float:
        return float(_integral(self.density(first, second), mask1, mask2, self.pair.grid.step))


def integrator_table(pair: SpectralDensityPair) -> IntegratorTable:
    """Second-moment table of the integrators of ``pair``."""
    return IntegratorTable(pair=pair)


@dataclass(frozen=True, eq=False)
class CanonicalPair:
    """Canonical creation/annihilation measures over a support mask.

    Under :func:`ordered_moment` every ordered product of the two vanishes
    structurally except annihilation-then-creation on flip-matched cells,
    which is the measure of the intersection.
    """

    grid: SpectralGrid
    support: np.ndarray
    creation: MeasureSymbol
    annihilation: MeasureSymbol


def canonical_from_vacuum(pair: SpectralDensityPair) -> tuple[CanonicalPair, tuple[MeasureSymbol, MeasureSymbol]]:
    """Canonical pair carried by a standard vacuum spectrum, with the
    casewise integrator measures ``(noise, reverse)`` it is spliced from.

    For a standard vacuum pair the noise integrator creates on the points
    where kappa is positive and annihilates where kappa_rev is positive
    (the reverse integrator swaps the roles).  Splicing the two along the
    disjoint supports,

        creation     = noise on {kappa > 0}  +  reverse on {kappa_rev > 0}
        annihilation = reverse on {kappa > 0}  +  noise on {kappa_rev > 0},

    gives the paper's canonical pair on the spectrum in closed form: the
    creator (minus, plus) = (0, 1) and the annihilator (1, 0) on the
    retained support {kappa + kappa_rev > 0}, both 0 off it.

    Raises:
        NotVacuumError: if the thermal support is nonempty (the casewise
            splice is ill-posed on the overlap).
        ValueError: if the pair is vacuum but not standard
            (kappa + kappa_rev != 1 on retained points).
    """
    if pair.theta.any():
        raise NotVacuumError(
            "pair has a nonempty thermal support; the canonical splice "
            "requires disjoint noise/reverse supports"
        )
    retained = pair.n_plus | pair.n_minus  # theta is empty
    # kappa + kappa_rev - 1 on retained points; off them both densities are 0
    if np.abs(pair.kappa + pair.kappa_rev - retained).max() > STANDARD_VACUUM_TOL:
        raise ValueError(
            "vacuum pair is not standard: kappa + kappa_rev deviates from 1"
        )

    # on_noise: kappa > 0 there; on_reverse: kappa_rev > 0 there
    on_noise, on_reverse, ones = _frozen(np.array((pair.n_minus, pair.n_plus, retained), float))
    noise = MeasureSymbol(minus=on_reverse, plus=on_noise)
    reverse = MeasureSymbol(minus=on_noise, plus=on_reverse)
    zeros = _frozen(np.zeros(retained.size))
    canonical = CanonicalPair(
        grid=pair.grid,
        support=_frozen(retained),
        creation=MeasureSymbol(zeros, ones),
        annihilation=MeasureSymbol(ones, zeros),
    )
    return canonical, (noise, reverse)


def moment_tables(pair: SpectralDensityPair, output: OutputPair, delta: np.ndarray,
                  delta_prime: np.ndarray) -> tuple[dict[str, float], dict[str, complex], dict[str, complex]]:
    """The three tables of second moments ``qnoise qsi`` writes on the cell sets D and D':
    < first(D)^dag second(D') > of the integrators of ``pair``, keyed "first_dag_second";
    the ordered moments < first(-D) second(D') > of ``output.canonical``, keyed
    "first_second" for first in (annihilation, creation) and second in (creation,
    annihilation); and < first(D) second(D')^dag > of ``output``, keyed "first_second_dag"."""
    canonical, table, flip = output.canonical, integrator_table(pair), flipped(delta)
    integrator = {f"{first}_dag_{second}": table.second_moment(first, delta, second, delta_prime)
                  for first in ("noise", "reverse") for second in ("noise", "reverse")}
    ordered = {f"{first}_{second}": ordered_moment(getattr(canonical, first), flip, getattr(canonical, second),
                                                   delta_prime, canonical.grid.step)
               for first in ("annihilation", "creation") for second in ("creation", "annihilation")}
    outputs = {f"{first}_{second}_dag": output.moment(first, delta, second, delta_prime)
               for first in ("output", "reverse") for second in ("output", "reverse")}
    return integrator, ordered, outputs


@dataclass(frozen=True, eq=False)
class OutputPair:
    """Output integrator pair built on a canonical pair.

    ``moment(first, D1, second, D2)`` is the dagger-second vacuum moment
    < first(D1) second(D2)^dag > with names in {"output", "reverse"};
    ``density(first, second)`` is its per-cell density, which reproduces
    the four-entry multiplication table sigma^2, sigma*sigma_rev,
    sigma_rev*sigma, sigma_rev^2.  sigma and sigma_rev are ``output.minus`` and
    ``output.plus`` on the canonical support, 0 off it; the grid is ``canonical.grid``.
    """

    canonical: CanonicalPair
    output: MeasureSymbol
    reverse: MeasureSymbol

    def _symbol(self, name: str) -> MeasureSymbol:
        try:
            return {"output": self.output, "reverse": self.reverse}[name]
        except KeyError:
            raise ValueError(f"unknown output integrator name: {name!r}") from None

    def moment(self, first: str, mask1, second: str, mask2) -> complex:
        return complex(_integral(self.density(first, second), mask1, mask2, self.canonical.grid.step))

    def density(self, first: str, second: str) -> np.ndarray:
        # The ordered rule with the adjoint of ``second`` on the flipped cells, whose creator
        # amplitude there is the (real) annihilator amplitude of ``second`` at the cell itself.
        return _frozen(self._symbol(first).minus * self._symbol(second).minus)


def build_output_pair(
    canonical: CanonicalPair, sigma: np.ndarray, sigma_rev: np.ndarray
) -> OutputPair:
    """Output pair with amplitudes sigma, sigma_rev over ``canonical``.

        output(D)  = integral over D of sigma A_minus + sigma_rev A_plus
        reverse(D) = integral over D of sigma_rev A_minus + sigma A_plus

    Raises:
        NonFiniteError: for NaN or infinite amplitudes, or one whose square
            overflows.
        ValueError: for negative amplitudes or a broken flip relation
            sigma_rev(nu) = sigma(-nu).
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_rev = np.asarray(sigma_rev, dtype=float)
    n = canonical.grid.n_points
    if sigma.shape != (n,) or sigma_rev.shape != (n,):
        raise ValueError(f"amplitudes must have shape ({n},)")
    peak = _checked_peak("output amplitudes", sigma, sigma_rev)
    if np.abs(sigma_rev - sigma[::-1]).max() > FLIP_TOL * max(peak, 1e-300):
        raise ValueError("sigma_rev is not the frequency flip of sigma")
    on_sigma, on_sigma_rev = _frozen(np.where(canonical.support, (sigma, sigma_rev), 0.0))
    output = MeasureSymbol(minus=on_sigma, plus=on_sigma_rev)
    reverse = MeasureSymbol(minus=on_sigma_rev, plus=on_sigma)
    return OutputPair(canonical=canonical, output=output, reverse=reverse)


def recover_canonical(
    output_pair: OutputPair, where: np.ndarray | None = None
) -> CanonicalPair:
    """Invert :func:`build_output_pair` where the amplitudes separate.

    On every recovered point

        (sigma_rev^2 - sigma^2) A_plus  = sigma_rev * output - sigma * reverse
        (sigma_rev^2 - sigma^2) A_minus = sigma_rev * reverse - sigma * output

    which is exact in floating point (the cross terms cancel identically
    and the diagonal ratio is 1).  ``where`` restricts the recovery to a
    sub-support; it defaults to the full canonical support.  Points with
    sigma_rev == sigma (always including nu = 0 when retained) cannot be
    inverted and must be excluded by the caller.

    Raises:
        DegenerateRecoveryError: if sigma_rev equals sigma anywhere on the
            requested support.
    """
    support = output_pair.canonical.support
    if where is not None:
        where = np.asarray(where, dtype=bool)
        if where.shape != support.shape:
            raise ValueError("recovery mask has the wrong shape")
        support = support & where
    output, reverse = output_pair.output, output_pair.reverse
    sigma, sigma_rev = output.minus, output.plus
    denom = sigma_rev * sigma_rev - sigma * sigma
    degenerate = support & (denom == 0)
    if degenerate.any():
        points = output_pair.canonical.grid.points[degenerate]
        raise DegenerateRecoveryError(
            "sigma equals sigma_rev at "
            f"{points.size} retained point(s) (first at nu = {points[0]}); "
            "exclude them via the recovery mask or accept that the "
            "classical direction cannot be inverted"
        )

    # rows (minus, plus) of creation, then of annihilation: output and reverse
    # weighted by (sigma_rev, -sigma) for creation, by (-sigma, sigma_rev) for annihilation
    coeffs = np.array((sigma_rev, -sigma))[:, None]
    rows = coeffs * (output.minus, output.plus)
    rows += coeffs[::-1] * (reverse.minus, reverse.plus)
    # denom != 0 on the support, and the result is exactly 0 off it; adding 0.0
    # turns the -0.0 of a zero row over a negative denom into 0.0
    out = np.zeros(rows.shape, rows.dtype)
    creation, annihilation = _frozen(np.add(np.divide(rows, denom, out=out, where=support), 0.0, out=out))
    return CanonicalPair(
        grid=output_pair.canonical.grid,
        support=_frozen(support),
        creation=MeasureSymbol(*creation),
        annihilation=MeasureSymbol(*annihilation),
    )


def isometry_check(
    a: np.ndarray, c: np.ndarray, pair: SpectralDensityPair
) -> tuple[float, float]:
    """Second moments of the integral y = a against noise + c against reverse.

    Returns (<y^dag y>, <y y^dag>) as quadrature integrals of |b|^2 and
    |b_star|^2, where b = a sqrt(kappa) + c sqrt(kappa_rev) and b_star uses
    the star involution z_star(nu) = conj(z(-nu)) of the coefficients.
    """
    a = np.asarray(a, dtype=complex)
    c = np.asarray(c, dtype=complex)
    n = pair.grid.n_points
    if a.shape != (n,) or c.shape != (n,):
        raise ValueError(f"coefficient functions must have shape ({n},)")
    b = a * pair.sigma + c * pair.sigma_rev
    b_star = np.conj(a[::-1]) * pair.sigma + np.conj(c[::-1]) * pair.sigma_rev
    step = pair.grid.step
    return (
        float(step * (np.abs(b) ** 2).sum()),
        float(step * (np.abs(b_star) ** 2).sum()),
    )


def reflection_symmetry_check(model: StationaryModel) -> float:
    """Max asymmetry of the cross-correlation kernel under time reversal.

    The cross kernel r is the quadrature kernel of the cross symbol gamma
    (the first column of G at centered lags, without the eps weight); the
    residual is the sup distance between r and its lag flip, which
    restates the symmetry of the cross covariance on kernels.
    """
    r = kernel_of(model.gamma, model.step)
    return float(np.abs(r - r[::-1]).max())
