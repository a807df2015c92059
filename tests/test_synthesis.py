import numpy as np
import pytest

import qnoise as qn
from qnoise.fourier import kernel_of

from conftest import grid_and_eps
from oracles import slow_convolve


class TestBuildStandardPair:
    def test_white_target_gives_unit_levels(self, flat_setup):
        _, pair, _ = flat_setup
        std = qn.build_standard_pair(pair)
        assert np.all(std.kappa == 1.0)
        assert np.all(std.kappa_rev == 1.0)

    def test_planck_target_gives_boltzmann_halves(self, planck_setup):
        grid, pair, _ = planck_setup
        std = qn.build_standard_pair(pair)
        np.testing.assert_allclose(std.kappa, np.exp(-grid.points / 2), rtol=1e-12)
        np.testing.assert_allclose(std.kappa_rev, np.exp(grid.points / 2), rtol=1e-12)
        np.testing.assert_allclose(std.kappa * std.kappa_rev, 1.0, rtol=1e-12)

    def test_vacuum_target_gives_indicators(self, vacuum_setup):
        _, pair, _ = vacuum_setup
        std = qn.build_standard_pair(pair)
        assert np.array_equal(std.kappa, pair.n_minus.astype(float))
        assert np.array_equal(std.kappa_rev, pair.n_plus.astype(float))

    @pytest.mark.parametrize("cold", [1e-6, 1.0, 50.0, 700.0])
    def test_amplitude_is_the_standard_amplitude_bit_for_bit(self, cold, mixed_setup):
        # sqrt(a * a) == a while a * a is normal: the pair's own sigma is the standard
        # amplitude, 1 on n_minus and lambda^(-1/4) on theta, for a Planck target at
        # beta * h * nu_max = cold, a mixed target with exact zeros and a flat one.
        grid, _ = grid_and_eps(65, 0.25)
        mixed = mixed_setup[1]
        assert (mixed.kappa == 0).any()
        for target in (qn.planck_density(cold / grid.nu_max, 1.0, grid), mixed, qn.flat_density(2.5, grid)):
            want = np.where(target.theta, target.lambda_theta ** -0.25, target.n_minus)
            assert qn.build_standard_pair(target).sigma.tobytes() == want.tobytes()

    def test_amplitudes_square_to_densities_exactly(self, mixed_setup):
        _, pair, _ = mixed_setup
        std = qn.build_standard_pair(pair)
        assert np.array_equal(std.sigma * std.sigma, std.kappa)
        assert np.array_equal(std.sigma_rev * std.sigma_rev, std.kappa_rev)

    def test_standard_laws(self, mixed_setup):
        _, pair, _ = mixed_setup
        std = qn.build_standard_pair(pair)
        theta = pair.theta
        perp = pair.retained & ~theta
        np.testing.assert_allclose(
            std.kappa[theta] * std.kappa_rev[theta], 1.0, atol=1e-12
        )
        np.testing.assert_allclose(
            std.kappa[perp] + std.kappa_rev[perp], 1.0, atol=1e-12
        )
        np.testing.assert_allclose(std.gamma[theta], 1.0, atol=1e-12)
        assert np.all(std.gamma[~theta] == 0.0)


class TestTransmissionFunction:
    def test_white_transmission_is_unity(self, flat_setup):
        _, pair, _ = flat_setup
        filt = qn.transmission_function(pair)
        assert np.all(filt.f == 1.0)

    def test_planck_transmission_squares_to_cross_density(self, planck_setup):
        grid, pair, _ = planck_setup
        filt = qn.transmission_function(pair)
        with np.errstate(invalid="ignore"):
            expected = grid.points / (2 * np.sinh(grid.points / 2))
        expected[(grid.n_points - 1) // 2] = 1.0
        np.testing.assert_allclose(filt.f**2, expected, rtol=1e-12)

    def test_flip_symmetric_and_real_kernel(self, mixed_setup):
        _, pair, _ = mixed_setup
        filt = qn.transmission_function(pair)
        assert np.array_equal(filt.f, filt.f[::-1])
        scale = np.max(np.abs(filt.time_kernel))
        assert np.max(np.abs(filt.time_kernel.imag)) <= 1e-12 * scale

    def test_off_support_branch_picks_nonzero_amplitude(self, mixed_setup):
        _, pair, _ = mixed_setup
        filt = qn.transmission_function(pair)
        on_n_minus = pair.n_minus
        np.testing.assert_array_equal(
            filt.f[on_n_minus], np.sqrt(pair.kappa[on_n_minus])
        )
        on_n_plus = pair.n_plus
        np.testing.assert_array_equal(
            filt.f[on_n_plus], np.sqrt(pair.kappa_rev[on_n_plus])
        )


class TestSynthesize:
    def test_white_output_is_standard_amplitude(self, flat_setup):
        _, pair, _ = flat_setup
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        assert np.array_equal(result.out_amp, filt.standard.sigma)

    @pytest.mark.parametrize("n_points", [17, 33, 65])
    def test_planck_spectrum_reproduction(self, n_points):
        grid, _ = grid_and_eps(n_points, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        np.testing.assert_allclose(result.kappa_out, pair.kappa, rtol=1e-10)
        np.testing.assert_allclose(result.out_amp_rev**2, pair.kappa_rev, rtol=1e-10)

    def test_vacuum_target_reproduced_on_supports(self, vacuum_setup):
        _, pair, _ = vacuum_setup
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        minus = pair.n_minus
        plus = pair.n_plus
        np.testing.assert_allclose(result.kappa_out[minus], pair.kappa[minus], rtol=1e-12)
        np.testing.assert_allclose(
            result.out_amp_rev[plus] ** 2, pair.kappa_rev[plus], rtol=1e-12
        )
        assert np.all(result.kappa_out[~minus] == 0.0)

    def test_cross_spectrum_reproduction(self, mixed_setup):
        _, pair, _ = mixed_setup
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        gamma_out = result.out_amp * result.out_amp_rev
        theta = pair.theta
        np.testing.assert_allclose(gamma_out[theta], pair.gamma[theta], rtol=1e-10)
        assert np.all(gamma_out[~theta] == 0.0)

    def test_grid_mismatch_rejected(self, mixed_setup, flat_setup):
        _, mixed_pair, _ = mixed_setup
        _, flat_pair, _ = flat_setup
        filt = qn.transmission_function(mixed_pair)
        other = qn.build_standard_pair(flat_pair)
        with pytest.raises(ValueError, match="different grids"):
            qn.synthesize(filt, other)


class TestTimeDomainFilter:
    def test_white_filter_is_identity_on_kernels(self, flat_setup):
        grid, pair, eps = flat_setup
        filt = qn.transmission_function(pair)
        time_filter = qn.time_domain_filter(filt, eps)
        chi = kernel_of(filt.standard.sigma, grid.step)
        np.testing.assert_allclose(time_filter.apply(chi), chi, rtol=0, atol=1e-12 / eps)

    @pytest.mark.parametrize("n_points", [17, 65])
    def test_planck_convolution_reproduces_target_kernel(self, n_points):
        grid, eps = grid_and_eps(n_points, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        filt = qn.transmission_function(pair)
        time_filter = qn.time_domain_filter(filt, eps)
        chi_std = kernel_of(filt.standard.sigma, grid.step)
        psi = time_filter.apply(chi_std)
        psi_target = kernel_of(pair.sigma, grid.step)
        assert np.max(np.abs(psi - psi_target)) <= 1e-9

    def test_convolution_matches_direct_cyclic_sum(self, mixed_setup):
        grid, pair, eps = mixed_setup
        filt = qn.transmission_function(pair)
        time_filter = qn.time_domain_filter(filt, eps)
        chi_std = kernel_of(filt.standard.sigma, grid.step)
        direct = slow_convolve(filt.time_kernel, chi_std, eps)
        np.testing.assert_allclose(time_filter.apply(chi_std), direct, rtol=0, atol=1e-12)

    def test_time_reversal_of_output_kernels(self, mixed_setup):
        grid, pair, eps = mixed_setup
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        psi = kernel_of(result.out_amp_rev, grid.step)
        psi_rev = kernel_of(result.out_amp, grid.step)
        scale = np.max(np.abs(psi))
        np.testing.assert_allclose(psi[::-1], psi_rev, rtol=0, atol=1e-12 * scale)

    def test_incompatible_eps_rejected(self, mixed_setup):
        _, pair, eps = mixed_setup
        filt = qn.transmission_function(pair)
        with pytest.raises(ValueError, match="dual"):
            qn.time_domain_filter(filt, 2 * eps)

    def test_correlation_function_reproduced(self, mixed_setup):
        grid, pair, eps = mixed_setup
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        seq = qn.correlation_sequence(pair, eps)
        reproduced = kernel_of(result.kappa_out, grid.step)
        scale = np.max(np.abs(seq.values))
        np.testing.assert_allclose(reproduced, seq.values, rtol=0, atol=1e-9 * scale)
