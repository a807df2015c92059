import numpy as np
import pytest

import qnoise as qn
from qnoise import decomposition, verification
from qnoise.decomposition import INPUT_TO_OUTPUT, OUTPUT_TO_INPUT
from qnoise.errors import EmptySupportError
from qnoise.fourier import kernel_of
from qnoise.pipeline import Pipeline

from conftest import build_chain, grid_and_eps
from oracles import slow_convolve, slow_kernel_all


def make_split(pair, eps):
    _, model = build_chain(pair, eps)
    return qn.split(model, pair)


class TestSplit:
    def test_thermal_spectrum_has_no_vacuum_part(self, planck_setup):
        _, pair, eps = planck_setup
        parts = make_split(pair, eps)
        assert np.all(parts.amp_vac == 0.0)
        assert np.all(parts.amp_rev_vac == 0.0)
        assert np.array_equal(parts.amp_thermal, parts.amp)

    def test_vacuum_spectrum_has_no_thermal_part(self, vacuum_setup):
        _, pair, eps = vacuum_setup
        parts = make_split(pair, eps)
        assert np.all(parts.amp_thermal == 0.0)
        assert np.all(parts.amp_rev_thermal == 0.0)

    def test_mixed_supports_partition_exactly(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        for k in range(pair.grid.n_points):
            assert parts.amp[k] == parts.amp_vac[k] + parts.amp_thermal[k]
            assert not (parts.amp_vac[k] != 0 and parts.amp_thermal[k] != 0)
            assert (parts.amp_vac[k] != 0) <= bool(pair.n_minus[k])
            assert (parts.amp_rev_vac[k] != 0) <= bool(pair.n_plus[k])

    def test_components_orthogonal(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        cross = pair.grid.step * np.sum(np.conj(parts.amp_vac) * parts.amp_thermal)
        assert cross == 0.0

    def test_star_involution_swaps_splits(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        assert np.array_equal(parts.amp_vac[::-1], parts.amp_rev_vac)
        assert np.array_equal(parts.amp_thermal[::-1], parts.amp_rev_thermal)

    def test_mismatched_model_rejected(self, mixed_setup, flat_setup):
        _, mixed_pair, eps = mixed_setup
        grid, _ = grid_and_eps(17, 0.5)
        other = qn.flat_density(1.0, grid)
        _, model = build_chain(other, eps)
        with pytest.raises(ValueError, match="not built from"):
            qn.split(model, mixed_pair)


class TestBestEstimate:
    def test_white_estimate_has_zero_residual(self, flat_setup):
        _, pair, eps = flat_setup
        parts = make_split(pair, eps)
        estimate = qn.best_estimate(parts, INPUT_TO_OUTPUT)
        assert np.array_equal(estimate, parts.amp_rev)

    def test_planck_estimate_is_boltzmann_filter(self, planck_setup):
        grid, pair, eps = planck_setup
        parts = make_split(pair, eps)
        estimate = qn.best_estimate(parts, INPUT_TO_OUTPUT)
        assert np.all(estimate - parts.amp_rev == 0.0)
        expected = np.exp(grid.points / 2) * parts.amp
        np.testing.assert_allclose(estimate, expected, rtol=1e-12)

    def test_mixed_residual_norm_matches_vacuum_mass(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        estimate = qn.best_estimate(parts, INPUT_TO_OUTPUT)
        residual = parts.amp_rev - estimate
        assert np.array_equal(residual, parts.amp_rev_vac)
        assert np.all(residual[~pair.n_plus] == 0.0)
        norm2 = pair.grid.step * np.sum(np.abs(residual) ** 2)
        expected = pair.grid.step * np.sum(pair.kappa_rev[pair.n_plus])
        assert norm2 == pytest.approx(expected, abs=1e-12)

    def test_input_to_output_is_the_one_home_of_the_estimate_residual_and_norm(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        estimate, residual, norm2, expected = decomposition.input_to_output(parts)
        assert np.array_equal(estimate, qn.best_estimate(parts, INPUT_TO_OUTPUT))
        assert np.array_equal(residual, parts.amp_rev - estimate)
        assert norm2 == pair.grid.step * float(np.sum(np.abs(residual) ** 2))
        assert expected == pair.grid.step * float(np.sum(pair.kappa_rev[pair.n_plus]))
        check = {r.check: r for r in verification.decomposition_checks(Pipeline(pair, eps))}
        assert check["residual_norm"].residual == abs(norm2 - expected) / max(1.0, expected)

    def test_output_to_input_direction(self, mixed_setup):
        _, pair, eps = mixed_setup
        parts = make_split(pair, eps)
        estimate = qn.best_estimate(parts, OUTPUT_TO_INPUT)
        residual = parts.amp - estimate
        assert np.array_equal(residual, parts.amp_vac)
        theta = pair.theta
        filtered = np.sqrt(1.0 / pair.lambda_theta[theta]) * parts.amp_rev[theta]
        np.testing.assert_allclose(estimate[theta], filtered, rtol=1e-12)

    def test_unknown_direction_rejected(self, flat_setup):
        _, pair, eps = flat_setup
        parts = make_split(pair, eps)
        with pytest.raises(ValueError, match="direction"):
            qn.best_estimate(parts, "sideways")


class TestModularKernelsTheta:
    def test_white_kernels_are_unit(self, flat_setup):
        _, pair, eps = flat_setup
        kernels = qn.modular_kernels_theta(pair, eps)
        unit = np.zeros(pair.grid.n_points)
        unit[(pair.grid.n_points - 1) // 2] = 1.0
        np.testing.assert_allclose(kernels.kernel_half, unit, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernels.kernel_inv_half, unit, rtol=0, atol=1e-12)

    def test_planck_kernels_match_direct_sum(self, planck_setup):
        grid, pair, eps = planck_setup
        kernels = qn.modular_kernels_theta(pair, eps)
        expected = eps * slow_kernel_all(np.exp(grid.points / 2), grid, eps)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(kernels.kernel_half, expected, rtol=0, atol=1e-12 * scale)

    def test_modular_property(self, mixed_setup):
        _, pair, eps = mixed_setup
        kernels = qn.modular_kernels_theta(pair, eps)
        scale = np.max(np.abs(kernels.kernel_half))
        np.testing.assert_allclose(
            kernels.kernel_half[::-1], np.conj(kernels.kernel_half), rtol=0, atol=1e-10 * scale
        )
        np.testing.assert_allclose(
            np.conj(kernels.kernel_half), kernels.kernel_inv_half, rtol=0, atol=1e-10 * scale
        )

    def test_convolution_gives_support_kernel(self, mixed_setup):
        _, pair, eps = mixed_setup
        kernels = qn.modular_kernels_theta(pair, eps)
        conv = slow_convolve(kernels.kernel_half, kernels.kernel_inv_half, 1.0)
        indicator = eps * kernel_of(pair.theta.astype(float), pair.grid.step)
        np.testing.assert_allclose(conv, indicator, rtol=0, atol=1e-9)

    def test_symbol_is_lambda_on_theta_and_zero_off_it(self, mixed_setup):
        _, pair, eps = mixed_setup
        kernels = qn.modular_kernels_theta(pair, eps)
        assert isinstance(kernels, qn.ModularFilter)
        theta = pair.theta
        assert theta.any() and not theta.all()
        assert np.array_equal(kernels.symbol[theta], pair.lambda_theta[theta])
        assert not kernels.symbol[~theta].any()

    def test_empty_support_rejected(self, vacuum_setup):
        _, pair, eps = vacuum_setup
        with pytest.raises(EmptySupportError, match="empty"):
            qn.modular_kernels_theta(pair, eps)
