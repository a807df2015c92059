"""Second-order quantum stochastic integration tables.

No operator is ever materialized.  Every integrator measure M is carried
as a pair of per-frequency amplitudes ``(minus, plus)`` meaning

    M(D) = integral over D of  minus(nu) A_minus(dnu) + plus(nu) A_plus(dnu)

against the canonical annihilation/creation pair, whose only nonvanishing
vacuum moment is the flip-paired contraction

    < A_minus(dnu) A_plus(dnu') > = delta(nu' + nu) dnu.

Second moments of arbitrary integrators follow by bilinear expansion over
that single rule, which keeps the table identities exactly checkable:

    ordered   < M1(D1) M2(D2) >   = step * sum over {k in D1, flip(k) in D2}
                                      minus1[k] * plus2[flip k]
    adjoint   M(D)^dag            = partner amplitudes (conj-flip swap) on -D

In particular the creator has positive norm (< A_plus^dag A_plus > over D
is the measure of D), the annihilator kills the vacuum, and all remaining
ordered canonical products are structural zeros.

The canonical pair is the paper's canonical pair on the spectrum, in closed
form (:func:`canonical_from_vacuum`): on the support of a standard vacuum the
creator is (minus, plus) = (0, 1) and the annihilator (1, 0), both 0 off it.

Intervals are unions of grid cells, represented as boolean masks; the
measure of a cell is the grid step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateRecoveryError, NonFiniteError, NotVacuumError
from .fourier import kernel_of
from .spectra import SpectralDensityPair, SpectralGrid, _frozen

if TYPE_CHECKING:
    from .stationary import StationaryModel

#: Tolerance on the standard-vacuum level kappa + kappa_rev = 1.
STANDARD_VACUUM_TOL = 1e-12

#: Relative tolerance on the flip relation sigma_rev = flip(sigma).
FLIP_TOL = 1e-12


def interval_mask(grid: SpectralGrid, lo: float, hi: float) -> np.ndarray:
    """Cells of the grid whose center lies in [lo, hi] (inclusive)."""
    if np.isnan(lo) or np.isnan(hi):
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

    name: str
    minus: np.ndarray
    plus: np.ndarray


def adjoint(symbol: MeasureSymbol) -> MeasureSymbol:
    """Amplitudes of M(D)^dag, to be evaluated on the flipped cell set."""
    return MeasureSymbol(
        name=f"{symbol.name}_dag",
        minus=_frozen(np.conj(symbol.plus[::-1])),
        plus=_frozen(np.conj(symbol.minus[::-1])),
    )


def ordered_moment(
    first: MeasureSymbol,
    mask1: np.ndarray,
    second: MeasureSymbol,
    mask2: np.ndarray,
    step: float,
) -> complex:
    """Vacuum moment < first(D1) second(D2) > by bilinear expansion."""
    mask1 = np.asarray(mask1, dtype=bool)
    mask2 = np.asarray(mask2, dtype=bool)
    select = mask1 & mask2[::-1]
    terms = first.minus[select] * second.plus[::-1][select]
    return complex(step * terms.sum())


@dataclass(frozen=True, eq=False)
class IntegratorTable:
    """Dagger-first second moments of the noise/reverse integrator pair.

    ``second_moment(first, D1, second, D2)`` is < first(D1)^dag second(D2) >
    with names in {"noise", "reverse"}; by absolute continuity it equals the
    quadrature integral of the corresponding density (kappa, gamma, or
    kappa_rev) over the intersection of the cell sets.
    """

    grid: SpectralGrid
    pair: SpectralDensityPair

    def density(self, first: str, second: str) -> np.ndarray:
        table = {
            ("noise", "noise"): self.pair.kappa,
            ("noise", "reverse"): self.pair.gamma,
            ("reverse", "noise"): self.pair.gamma,
            ("reverse", "reverse"): self.pair.kappa_rev,
        }
        try:
            return table[(first, second)]
        except KeyError:
            raise ValueError(f"unknown integrator names: {(first, second)!r}") from None

    def second_moment(self, first: str, mask1, second: str, mask2) -> float:
        mask = np.asarray(mask1, dtype=bool) & np.asarray(mask2, dtype=bool)
        return float(self.grid.step * self.density(first, second)[mask].sum())


def integrator_table(pair: SpectralDensityPair) -> IntegratorTable:
    """Second-moment table of the integrators of ``pair``."""
    return IntegratorTable(grid=pair.grid, pair=pair)


@dataclass(frozen=True, eq=False)
class CanonicalPair:
    """Canonical creation/annihilation measures over a support mask.

    ``vacuum_moment`` evaluates ordered products in the vacuum; all of
    them vanish structurally except annihilation-then-creation on
    flip-matched cells, which returns the measure of the intersection.
    """

    grid: SpectralGrid
    support: np.ndarray
    creation: MeasureSymbol
    annihilation: MeasureSymbol

    def vacuum_moment(
        self, first: MeasureSymbol, mask1, second: MeasureSymbol, mask2
    ) -> complex:
        return ordered_moment(first, mask1, second, mask2, self.grid.step)


@dataclass(frozen=True, eq=False)
class VacuumAssembly:
    """The casewise integrator measures of a standard vacuum pair."""

    noise: MeasureSymbol
    reverse: MeasureSymbol


def canonical_from_vacuum(
    pair: SpectralDensityPair,
) -> tuple[CanonicalPair, VacuumAssembly]:
    """Canonical pair carried by a standard vacuum spectrum.

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
    retained = pair.retained
    if retained.any():
        level = pair.kappa[retained] + pair.kappa_rev[retained]
        if np.abs(level - 1.0).max() > STANDARD_VACUUM_TOL:
            raise ValueError(
                "vacuum pair is not standard: kappa + kappa_rev deviates from 1"
            )

    on_noise = _frozen(pair.n_minus.astype(float))  # kappa > 0 here
    on_reverse = _frozen(pair.n_plus.astype(float))  # kappa_rev > 0 here
    noise = MeasureSymbol(name="noise", minus=on_reverse, plus=on_noise)
    reverse = MeasureSymbol(name="reverse", minus=on_noise, plus=on_reverse)
    ones, zeros = _frozen(retained.astype(float)), _frozen(np.zeros(retained.size))
    canonical = CanonicalPair(
        grid=pair.grid,
        support=_frozen(retained),
        creation=MeasureSymbol("creation", zeros, ones),
        annihilation=MeasureSymbol("annihilation", ones, zeros),
    )
    return canonical, VacuumAssembly(noise=noise, reverse=reverse)


@dataclass(frozen=True, eq=False)
class OutputPair:
    """Output integrator pair built on a canonical pair.

    ``moment(first, D1, second, D2)`` is the dagger-second vacuum moment
    < first(D1) second(D2)^dag > with names in {"output", "reverse"};
    ``density(first, second)`` is its per-cell density, which reproduces
    the four-entry multiplication table sigma^2, sigma*sigma_rev,
    sigma_rev*sigma, sigma_rev^2.
    """

    grid: SpectralGrid
    canonical: CanonicalPair
    sigma: np.ndarray
    sigma_rev: np.ndarray
    output: MeasureSymbol
    reverse: MeasureSymbol

    def _symbol(self, name: str) -> MeasureSymbol:
        try:
            return {"output": self.output, "reverse": self.reverse}[name]
        except KeyError:
            raise ValueError(f"unknown output integrator name: {name!r}") from None

    def moment(self, first: str, mask1, second: str, mask2) -> complex:
        sym1 = self._symbol(first)
        sym2 = adjoint(self._symbol(second))
        return ordered_moment(sym1, mask1, sym2, flipped(mask2), self.grid.step)

    def density(self, first: str, second: str) -> np.ndarray:
        # Single-cell specialization of ``moment``: the creator amplitude of
        # the adjoint at the flipped cell is the conjugated annihilator
        # amplitude of the original at the cell itself.
        sym1 = self._symbol(first)
        sym2 = self._symbol(second)
        return _frozen((sym1.minus * np.conj(sym2.minus)).real)


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
    # NaN passes through min and max, so it is caught before the sign check.
    lows = (float(sigma.min()), float(sigma_rev.min()))
    highs = (float(sigma.max()), float(sigma_rev.max()))
    if not all(map(math.isfinite, lows + highs)):
        raise NonFiniteError("output amplitudes must be finite (no NaN or infinity)")
    if min(lows) < 0:
        raise ValueError("output amplitudes must be nonnegative")
    peak = max(highs)
    # The output densities are squares of the amplitudes: keep them finite.
    if not math.isfinite(peak * peak):
        raise NonFiniteError(f"output amplitude {peak!r} is too large: its square overflows")
    if np.abs(sigma_rev - sigma[::-1]).max() > FLIP_TOL * max(highs[0], 1e-300):
        raise ValueError("sigma_rev is not the frequency flip of sigma")
    support = canonical.support
    on_sigma = _frozen(np.where(support, sigma, 0.0))
    on_sigma_rev = _frozen(np.where(support, sigma_rev, 0.0))
    output = MeasureSymbol(name="output", minus=on_sigma, plus=on_sigma_rev)
    reverse = MeasureSymbol(name="reverse", minus=on_sigma_rev, plus=on_sigma)
    return OutputPair(
        grid=canonical.grid,
        canonical=canonical,
        sigma=_frozen(sigma),
        sigma_rev=_frozen(sigma_rev),
        output=output,
        reverse=reverse,
    )


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
    sigma = output_pair.sigma
    sigma_rev = output_pair.sigma_rev
    denom = sigma_rev * sigma_rev - sigma * sigma
    degenerate = support & (denom == 0)
    if degenerate.any():
        points = output_pair.grid.points[degenerate]
        raise DegenerateRecoveryError(
            "sigma equals sigma_rev at "
            f"{points.size} retained point(s) (first at nu = {points[0]}); "
            "exclude them via the recovery mask or accept that the "
            "classical direction cannot be inverted"
        )

    output, reverse = output_pair.output, output_pair.reverse

    def combine(coeff_out, coeff_rev, name):
        rows = []
        for on_output, on_reverse in ((output.minus, reverse.minus), (output.plus, reverse.plus)):
            row = coeff_out * on_output
            row += coeff_rev * on_reverse
            # denom != 0 on the support, and the result is exactly 0 off it
            rows.append(_frozen(np.divide(row, denom, out=np.zeros_like(row), where=support)))
        return MeasureSymbol(name, *rows)

    minus_sigma = -sigma
    return CanonicalPair(
        grid=output_pair.grid,
        support=_frozen(support),
        creation=combine(sigma_rev, minus_sigma, "creation"),
        annihilation=combine(minus_sigma, sigma_rev, "annihilation"),
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
        float(step * np.sum(np.abs(b) ** 2)),
        float(step * np.sum(np.abs(b_star) ** 2)),
    )


def reflection_symmetry_check(model: StationaryModel) -> float:
    """Max asymmetry of the cross-correlation kernel under time reversal.

    The cross kernel r is the quadrature kernel of the cross symbol gamma
    (the first column of G at centered lags, without the eps weight); the
    residual is the sup distance between r and its lag flip, which
    restates the symmetry of the cross covariance on kernels.
    """
    r = kernel_of(model.gamma, model.step)
    return float(np.max(np.abs(r - r[::-1])))
