"""Every record of the chain equals its multi-pass reference byte for byte.

The package builds each array of the density pair, the modular filters, the
standard pair and the canonical measures in one ufunc pass per array; the
references in ``oracles`` build them by boolean gathers, scatters and
spliced records.  Equal bytes means equal signs of zeros and equal NaNs too.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qnoise as qn
from qnoise.fourier import kernel_of
from qnoise.spectra import ZERO_SNAP

from oracles import (
    combined_recovery,
    gathered_pair,
    gathered_planck_kappa,
    scattered_roots,
    scattered_standard_amp,
    spliced_canonical,
)

PAIR_ARRAYS = (
    "kappa", "kappa_rev", "lambda_theta", "gamma", "n_plus", "n_minus", "theta", "sigma", "sigma_rev",
)


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def assert_pair_equals(pair, want):
    for name in PAIR_ARRAYS:
        assert_same_bytes(getattr(pair, name), want[name], name)


def assert_filter_equals(filt, lam, support, eps, step):
    symbol, roots = scattered_roots(lam, support)
    kernels = kernel_of(roots, step)
    kernels *= eps
    assert_same_bytes(filt.symbol, symbol, "symbol")
    assert_same_bytes(filt.kernel_half, kernels[0], "kernel_half")
    assert_same_bytes(filt.kernel_inv_half, kernels[1], "kernel_inv_half")


def _not_power_of_two(x):
    return math.frexp(x)[0] != 0.5


def _tabulated_values(rng, n, peak, special_share):
    """Values up to ``peak``, a share of them exact zeros of either sign or
    values at, just below and just above the snap threshold ZERO_SNAP * peak."""
    edge = ZERO_SNAP * peak
    specials = np.array([0.0, -0.0, edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)])
    values = rng.uniform(0.0, peak, n)
    special = rng.random(n) < special_share
    values[special] = specials[rng.integers(0, specials.size, n)][special]
    values[rng.integers(n)] = peak
    return values


def _standard_vacuum_values(rng, n):
    """1 on one side (or neither) of each pair +-nu, 0 at nu = 0: a standard vacuum."""
    half = (n - 1) // 2
    lower = np.arange(half)
    side = rng.integers(0, 3, half)
    values = np.zeros(n)
    values[lower[side == 1]] = 1.0
    values[(n - 1 - lower)[side == 2]] = 1.0
    return values


@st.composite
def spectra_cases(draw):
    """(pair, its multi-pass reference arrays, rng) on an odd grid of 3 to 1025 points."""
    n = 2 * draw(st.integers(1, 512)) + 1
    nu_max = draw(st.floats(0.1, 50.0))
    grid = qn.make_grid(n, nu_max / ((n - 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["planck", "tabulated", "flat"]))
    if kind == "planck":
        beta = draw(st.floats(0.05, 20.0).filter(_not_power_of_two))
        h = draw(st.floats(0.05, 20.0).filter(_not_power_of_two))
        kappa = gathered_planck_kappa(beta, h, grid.points)
        if not kappa.all():  # too cold: kappa underflows to 0, which planck_density rejects
            with pytest.raises(qn.NonFiniteError, match="too cold"):
                qn.planck_density(beta, h, grid)
            assume(False)
        return qn.planck_density(beta, h, grid), gathered_pair(kappa, 0.0), rng
    if kind == "flat":
        sigma2 = draw(st.floats(0.0, 1e150))
        return qn.flat_density(sigma2, grid), gathered_pair(np.full(n, sigma2), 0.0), rng
    peak = draw(st.one_of(st.just(0.0), st.floats(1e-300, 1e150)))
    values = _tabulated_values(rng, n, peak, draw(st.floats(0.0, 1.0)))
    return qn.tabulated_density(values, grid), gathered_pair(values, ZERO_SNAP), rng


@settings(max_examples=150, deadline=None)
@given(spectra_cases())
def test_chain_records_equal_their_multi_pass_references(case):
    pair, want, rng = case
    grid = pair.grid
    eps = 1.0 / (grid.n_points * grid.step)
    assert_pair_equals(pair, want)

    if pair.theta.any():
        filt = qn.modular_kernels_theta(pair, eps)
        assert_filter_equals(filt, pair.lambda_theta, pair.theta, eps, grid.step)
    model = qn.build_model(qn.correlation_sequence(pair, eps))
    if model.invertible:
        lam = model.eigenvalues[::-1] / model.eigenvalues
        assert_filter_equals(qn.modular_matrix(model), lam, np.ones(lam.size, dtype=bool), eps, grid.step)

    standard = qn.build_standard_pair(pair)
    amp = scattered_standard_amp(pair)
    assert_same_bytes(standard.sigma, amp, "standard amp")
    assert_pair_equals(standard, gathered_pair(amp * amp, 0.0))

    for values in (_standard_vacuum_values(rng, grid.n_points), (grid.points < 0).astype(float)):
        vacuum = qn.tabulated_density(values, grid)
        canonical, (noise, reverse) = qn.canonical_from_vacuum(vacuum)
        spliced = spliced_canonical(vacuum)
        assert_same_bytes(canonical.support, vacuum.retained, "support")
        for name, symbol in (
            ("noise", noise), ("reverse", reverse),
            ("creation", canonical.creation), ("annihilation", canonical.annihilation),
        ):
            assert_same_bytes(symbol.minus, spliced[name][0], f"{name}.minus")
            assert_same_bytes(symbol.plus, spliced[name][1], f"{name}.plus")

        sigma, sigma_rev = pair.sigma, pair.sigma_rev
        output = qn.build_output_pair(canonical, sigma, sigma_rev)
        support = canonical.support
        assert_same_bytes(output.output.minus, np.where(support, sigma, 0.0), "output.minus")
        assert_same_bytes(output.output.plus, np.where(support, sigma_rev, 0.0), "output.plus")
        assert_same_bytes(output.reverse.minus, np.where(support, sigma_rev, 0.0), "reverse.minus")
        assert_same_bytes(output.reverse.plus, np.where(support, sigma, 0.0), "reverse.plus")
        separable = sigma != sigma_rev
        recovered = qn.recover_canonical(output, where=separable)
        combined = combined_recovery(output, sigma, sigma_rev, support & separable)
        assert_same_bytes(recovered.support, support & separable, "recovered support")
        for name in ("creation", "annihilation"):
            symbol = getattr(recovered, name)
            assert_same_bytes(symbol.minus, combined[name][0], f"recovered {name}.minus")
            assert_same_bytes(symbol.plus, combined[name][1], f"recovered {name}.plus")
