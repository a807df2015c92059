import numpy as np
import pytest

import qnoise as qn
from qnoise import qsi
from qnoise.errors import DegenerateRecoveryError, NonFiniteError, NotVacuumError
from qnoise.fourier import convolve, kernel_of, spectrum_of

from conftest import build_chain, grid_and_eps
from oracles import gram_quadratic_form, riemann_moment


def vacuum_canonical(grid):
    pair = qn.tabulated_density((grid.points < 0).astype(float), grid)
    canonical, assembly = qn.canonical_from_vacuum(pair)
    return pair, canonical, assembly


class TestIntervalMask:
    def test_inclusive_bounds(self):
        grid = qn.make_grid(5, 0.5)
        mask = qn.interval_mask(grid, -0.5, 0.5)
        np.testing.assert_array_equal(mask, [False, True, True, True, False])

    def test_empty_interval_rejected(self):
        grid = qn.make_grid(5, 0.5)
        with pytest.raises(ValueError, match="empty"):
            qn.interval_mask(grid, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (-1.0, np.nan), (np.nan, np.nan)])
    def test_nan_bound_rejected(self, lo, hi):
        with pytest.raises(NonFiniteError, match="NaN"):
            qn.interval_mask(qn.make_grid(5, 1.0), lo, hi)

    def test_infinite_bounds_accepted(self):
        grid = qn.make_grid(5, 1.0)
        assert qn.interval_mask(grid, -np.inf, np.inf).all()

    def test_flip_of_mask(self):
        grid = qn.make_grid(5, 0.5)
        mask = qn.interval_mask(grid, 0.0, 1.0)
        assert np.array_equal(qsi.flipped(mask), qn.interval_mask(grid, -1.0, 0.0))


class TestIntegratorTable:
    def test_disjoint_intervals_vanish(self, planck_setup):
        grid, pair, _ = planck_setup
        table = qn.integrator_table(pair)
        left = qn.interval_mask(grid, -grid.nu_max, -grid.step)
        right = qn.interval_mask(grid, 0.0, grid.nu_max)
        for first in ("noise", "reverse"):
            for second in ("noise", "reverse"):
                assert table.second_moment(first, left, second, right) == 0.0

    def test_planck_moment_matches_riemann_oracle(self, planck_setup):
        grid, pair, _ = planck_setup
        table = qn.integrator_table(pair)
        delta = qn.interval_mask(grid, 0.0, 0.5)
        expected = riemann_moment(pair.kappa, grid, delta, delta)
        got = table.second_moment("noise", delta, "noise", delta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_all_four_orderings_match_densities(self, mixed_setup):
        grid, pair, _ = mixed_setup
        table = qn.integrator_table(pair)
        delta = qn.interval_mask(grid, -1.5, 2.0)
        delta_prime = qn.interval_mask(grid, 0.0, grid.nu_max)
        expectations = {
            ("noise", "noise"): pair.kappa,
            ("noise", "reverse"): pair.gamma,
            ("reverse", "noise"): pair.gamma,
            ("reverse", "reverse"): pair.kappa_rev,
        }
        for (first, second), density in expectations.items():
            expected = riemann_moment(density, grid, delta, delta_prime)
            got = table.second_moment(first, delta, second, delta_prime)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_standard_pair_cross_moment_is_support_measure(self, mixed_setup):
        grid, pair, _ = mixed_setup
        std = qn.build_standard_pair(pair)
        table = qn.integrator_table(std.pair)
        delta = qn.interval_mask(grid, -grid.nu_max, grid.nu_max)
        got = table.second_moment("noise", delta, "reverse", delta)
        expected = grid.step * np.sum(pair.theta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unknown_name_rejected(self, flat_setup):
        grid, pair, _ = flat_setup
        table = qn.integrator_table(pair)
        mask = qn.interval_mask(grid, 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown integrator"):
            table.second_moment("noise", mask, "bogus", mask)


class TestCanonicalFromVacuum:
    def test_pairing_moment_is_interval_measure(self):
        grid, _ = grid_and_eps(9, 0.5)
        pair, canonical, _ = vacuum_canonical(grid)
        for lo, hi in [(0.0, grid.nu_max), (-1.0, 1.0), (-grid.nu_max, grid.nu_max)]:
            delta = qn.interval_mask(grid, lo, hi)
            got = canonical.vacuum_moment(
                canonical.annihilation, qsi.flipped(delta), canonical.creation, delta
            )
            expected = grid.step * np.sum(delta & canonical.support)
            assert got.real == pytest.approx(expected, abs=0.0)
            assert got.imag == 0.0

    def test_all_other_ordered_products_vanish_exactly(self):
        grid, _ = grid_and_eps(9, 0.5)
        _, canonical, _ = vacuum_canonical(grid)
        delta = qn.interval_mask(grid, -grid.nu_max, grid.nu_max)
        flipped = qsi.flipped(delta)
        a_plus, a_minus = canonical.creation, canonical.annihilation
        assert canonical.vacuum_moment(a_plus, flipped, a_minus, delta) == 0.0
        assert canonical.vacuum_moment(a_plus, flipped, a_plus, delta) == 0.0
        assert canonical.vacuum_moment(a_minus, flipped, a_minus, delta) == 0.0

    def test_assembled_measures_reproduce_integrator_table(self):
        grid, _ = grid_and_eps(9, 0.5)
        pair, canonical, assembly = vacuum_canonical(grid)
        delta = qn.interval_mask(grid, -grid.nu_max, 0.0)
        delta_prime = qn.interval_mask(grid, -1.0, grid.nu_max)
        # dagger-first moments via the canonical contraction
        got = qsi.ordered_moment(
            qsi.adjoint(assembly.noise),
            qsi.flipped(delta),
            assembly.noise,
            delta_prime,
            grid.step,
        )
        expected = riemann_moment(pair.kappa, grid, delta, delta_prime)
        assert got.real == pytest.approx(expected, abs=1e-15)
        got_cross = qsi.ordered_moment(
            qsi.adjoint(assembly.noise),
            qsi.flipped(delta),
            assembly.reverse,
            delta_prime,
            grid.step,
        )
        assert got_cross == 0.0

    def test_creator_annihilator_structure(self):
        grid, _ = grid_and_eps(9, 0.5)
        _, canonical, _ = vacuum_canonical(grid)
        assert np.all(canonical.creation.minus == 0.0)
        assert np.all(canonical.annihilation.plus == 0.0)
        support = canonical.support
        assert np.array_equal(canonical.creation.plus, support.astype(float))
        assert np.array_equal(canonical.annihilation.minus, support.astype(float))

    def test_thermal_pair_rejected(self, planck_setup):
        _, pair, _ = planck_setup
        with pytest.raises(NotVacuumError, match="thermal support"):
            qn.canonical_from_vacuum(pair)

    def test_nonstandard_vacuum_rejected(self):
        grid, _ = grid_and_eps(9, 0.5)
        pair = qn.tabulated_density(2.0 * (grid.points < 0).astype(float), grid)
        with pytest.raises(ValueError, match="not standard"):
            qn.canonical_from_vacuum(pair)


class TestOutputPair:
    def test_white_amplitudes_give_unit_table(self, flat_setup):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        output = qn.build_output_pair(canonical, sigma, np.sqrt(pair.kappa_rev))
        support = canonical.support
        for first in ("output", "reverse"):
            for second in ("output", "reverse"):
                np.testing.assert_array_equal(
                    output.density(first, second)[support], 1.0
                )

    def test_planck_densities_reproduce_spectra(self, planck_setup):
        grid, pair, _ = planck_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        sigma_rev = np.sqrt(pair.kappa_rev)
        output = qn.build_output_pair(canonical, sigma, sigma_rev)
        support = canonical.support
        expected = {
            ("output", "output"): sigma * sigma,
            ("reverse", "output"): sigma_rev * sigma,
            ("output", "reverse"): sigma * sigma_rev,
            ("reverse", "reverse"): sigma_rev * sigma_rev,
        }
        for key, values in expected.items():
            np.testing.assert_allclose(
                output.density(*key)[support], values[support], rtol=0, atol=1e-12
            )

    def test_moment_equals_density_integral(self, mixed_setup):
        grid, pair, _ = mixed_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        output = qn.build_output_pair(canonical, sigma, np.sqrt(pair.kappa_rev))
        delta = qn.interval_mask(grid, -2.0, 1.0)
        delta_prime = qn.interval_mask(grid, 0.0, grid.nu_max)
        got = output.moment("output", delta, "reverse", delta_prime)
        expected = riemann_moment(
            output.density("output", "reverse"), grid, delta, delta_prime
        )
        assert got.real == pytest.approx(expected, abs=1e-15)
        assert got.imag == 0.0

    def test_vanishing_cross_products_off_common_support(self):
        grid, _ = grid_and_eps(9, 0.5)
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.where(grid.points > 0, 1.0, 0.0)
        output = qn.build_output_pair(canonical, sigma, sigma[::-1].copy())
        density = output.density("output", "reverse")
        assert np.all(density[grid.points > 0] == 0.0)

    def test_moments_expand_bilinearly(self):
        grid, _ = grid_and_eps(9, 0.5)
        _, canonical, _ = vacuum_canonical(grid)
        # power-of-two amplitudes keep the scaling exact in floating point
        sigma = np.where(grid.points != 0, 2.0, 0.0)
        output = qn.build_output_pair(canonical, sigma, sigma[::-1].copy())
        unit = qn.build_output_pair(canonical, sigma / 2, sigma[::-1].copy() / 2)
        delta = qn.interval_mask(grid, -1.0, grid.nu_max)
        got = output.moment("output", delta, "reverse", delta)
        assert got == 4.0 * unit.moment("output", delta, "reverse", delta)

    def test_flip_violation_rejected(self, flat_setup):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        bad = sigma.copy()
        bad[0] = 2.0
        with pytest.raises(ValueError, match="flip"):
            qn.build_output_pair(canonical, sigma, bad)

    def test_negative_amplitude_rejected(self, flat_setup):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa).copy()
        sigma[3] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            qn.build_output_pair(canonical, sigma, sigma[::-1].copy())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, flat_setup, value):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa).copy()
        sigma[3] = value
        with pytest.raises(NonFiniteError, match="finite"):
            qn.build_output_pair(canonical, sigma, sigma[::-1].copy())

    # One min/max sweep checks both amplitudes: NaN passes through both, so
    # it is reported before a negative entry, and the sign before the square.
    @pytest.mark.parametrize(
        "sigma, sigma_rev, error",
        [
            ([np.nan, -1.0, 1.0], [1.0, -1.0, np.nan], NonFiniteError),
            ([1.0, 1.0, 1.0], [-1.0, np.nan, 1.0], NonFiniteError),
            ([1.0, 1.0, 1.0], [1.0, -np.inf, 1.0], NonFiniteError),
            ([1.0, -1.0, 1.0], [1.0, -1.0, 1.0], ValueError),
            ([1.0, 1.0, 1.0], [1e155, -1.0, 1.0], ValueError),
            ([1.0, 1e155, 1.0], [1.0, 1e155, 1.0], NonFiniteError),
            ([1.0, 1.0, 1.0], [1.0, 1e155, 1.0], NonFiniteError),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_typed_errors_in_order(self, sigma, sigma_rev, error):
        grid, _ = grid_and_eps(3, 1.0)
        _, canonical, _ = vacuum_canonical(grid)
        with pytest.raises(ValueError) as info:
            qn.build_output_pair(canonical, np.array(sigma), np.array(sigma_rev))
        assert type(info.value) is error


class TestRecoverCanonical:
    def test_planck_roundtrip_exact_off_zero(self, planck_setup):
        grid, pair, _ = planck_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        output = qn.build_output_pair(canonical, sigma, np.sqrt(pair.kappa_rev))
        mask = grid.points != 0.0
        recovered = qn.recover_canonical(output, where=mask)
        on = recovered.support
        assert np.array_equal(recovered.creation.plus[on], np.ones(on.sum()))
        assert np.all(recovered.creation.minus[on] == 0.0)
        assert np.array_equal(recovered.annihilation.minus[on], np.ones(on.sum()))
        assert np.all(recovered.annihilation.plus[on] == 0.0)

    def test_equal_amplitude_point_raises_loudly(self):
        grid, _ = grid_and_eps(9, 0.5)
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.exp(grid.points)
        sigma[3] = sigma[5] = 1.5  # one flip-matched pair with equal amplitudes
        output = qn.build_output_pair(canonical, sigma, sigma[::-1].copy())
        with pytest.raises(DegenerateRecoveryError, match="recovery mask"):
            qn.recover_canonical(output)
        # excluding the equality points makes the inversion exact again
        recovered = qn.recover_canonical(output, where=np.abs(grid.points) != 0.5)
        on = recovered.support
        assert np.array_equal(recovered.creation.plus[on], np.ones(on.sum()))

    def test_white_amplitudes_cannot_be_inverted(self, flat_setup):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(pair.kappa)
        output = qn.build_output_pair(canonical, sigma, sigma.copy())
        with pytest.raises(DegenerateRecoveryError):
            qn.recover_canonical(output)

    def test_vacuum_amplitudes_recover_by_mask_selection(self):
        grid, _ = grid_and_eps(9, 0.5)
        vac_pair, canonical, _ = vacuum_canonical(grid)
        sigma = np.sqrt(vac_pair.kappa)
        output = qn.build_output_pair(canonical, sigma, np.sqrt(vac_pair.kappa_rev))
        recovered = qn.recover_canonical(output)
        on = recovered.support
        assert np.array_equal(recovered.creation.plus[on], np.ones(on.sum()))
        assert np.all(recovered.annihilation.plus[on] == 0.0)

    def test_wrong_mask_shape_rejected(self, flat_setup):
        grid, pair, _ = flat_setup
        _, canonical, _ = vacuum_canonical(grid)
        output = qn.build_output_pair(
            canonical, np.sqrt(pair.kappa), np.sqrt(pair.kappa_rev)
        )
        with pytest.raises(ValueError, match="shape"):
            qn.recover_canonical(output, where=np.ones(3, dtype=bool))


class TestIsometryCheck:
    def test_zero_coefficients(self, planck_setup):
        grid, pair, _ = planck_setup
        zero = np.zeros(grid.n_points)
        assert qn.isometry_check(zero, zero, pair) == (0.0, 0.0)

    def test_white_indicator_gives_interval_measure(self, flat_setup):
        grid, pair, _ = flat_setup
        delta = qn.interval_mask(grid, 0.0, 2.0)
        forward, backward = qn.isometry_check(
            delta.astype(float), np.zeros(grid.n_points), pair
        )
        measure = grid.step * np.sum(delta)
        assert forward == pytest.approx(measure, rel=1e-15)
        assert backward == pytest.approx(measure, rel=1e-15)

    def test_planck_constant_coefficients_match_gram_oracle(self, planck_setup):
        grid, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        ones = np.ones(grid.n_points)
        forward, backward = qn.isometry_check(ones, ones, pair)
        zeta = np.sqrt(eps) * kernel_of(ones, grid.step)
        expected = gram_quadratic_form(model, zeta, zeta)
        assert forward == pytest.approx(expected, rel=1e-9)
        assert backward == pytest.approx(expected, rel=1e-9)

    def test_complex_coefficients_match_gram_oracle(self, mixed_setup):
        grid, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        a = 1.0 / (1.0 + grid.points**2)
        c = 1j * grid.points / (1.0 + grid.points**2)
        forward, backward = qn.isometry_check(a, c, pair)
        zeta = np.sqrt(eps) * kernel_of(a, grid.step)
        xi = np.sqrt(eps) * kernel_of(c, grid.step)
        assert forward == pytest.approx(gram_quadratic_form(model, zeta, xi), rel=1e-9)
        assert backward == pytest.approx(
            gram_quadratic_form(model, np.conj(zeta), np.conj(xi)), rel=1e-9
        )

    def test_shape_validation(self, flat_setup):
        _, pair, _ = flat_setup
        with pytest.raises(ValueError, match="shape"):
            qn.isometry_check(np.ones(3), np.ones(3), pair)


class TestReflectionSymmetry:
    def test_white_residual_negligible(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        assert qn.reflection_symmetry_check(model) <= 1e-12

    def test_planck_residual_small(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        assert qn.reflection_symmetry_check(model) <= 1e-10

    def test_vacuum_residual_zero(self, vacuum_setup):
        _, pair, eps = vacuum_setup
        _, model = build_chain(pair, eps)
        assert qn.reflection_symmetry_check(model) == 0.0


def coefficient_pair(sigma, a, c, step, eps):
    """Time kernels of the integrand pair with spectra
    (a sigma_rev + c sigma, a sigma + c sigma_rev), as ``qsi/parseval_bridge``
    builds them: the reverse amplitude's kernel is the lag flip of sigma's."""
    amp = kernel_of(sigma, step)
    a_kernel, c_kernel = kernel_of(a, step), kernel_of(c, step)
    phi_minus = convolve(a_kernel, amp[::-1], eps) + convolve(c_kernel, amp, eps)
    phi_plus = convolve(a_kernel, amp, eps) + convolve(c_kernel, amp[::-1], eps)
    return phi_minus, phi_plus


class TestTimeDomainRepresentation:
    def test_flat_amplitude_kernel_is_delta(self, flat_setup):
        grid, pair, eps = flat_setup
        ones = np.ones(grid.n_points)
        center = (grid.n_points - 1) // 2
        assert kernel_of(ones, grid.step)[center].real == pytest.approx(1.0 / eps, rel=1e-12)
        c = 1.0 / (1.0 + grid.points**2)
        _, phi_plus = coefficient_pair(ones, np.zeros(grid.n_points), c, grid.step, eps)
        c_kernel = kernel_of(c, grid.step)
        np.testing.assert_allclose(phi_plus, c_kernel, rtol=0, atol=1e-12 * np.max(np.abs(c_kernel)))

    def test_planck_parseval_bridge(self, planck_setup):
        grid, pair, eps = planck_setup
        sigma = np.sqrt(pair.kappa)
        sigma_rev = np.sqrt(pair.kappa_rev)
        a = np.ones(grid.n_points)
        c = np.zeros(grid.n_points)
        phi_minus, phi_plus = coefficient_pair(sigma, a, c, grid.step, eps)
        scale = np.max(sigma_rev)
        np.testing.assert_allclose(
            spectrum_of(phi_plus, eps), a * sigma, rtol=0, atol=1e-10 * scale
        )
        np.testing.assert_allclose(
            spectrum_of(phi_minus, eps), a * sigma_rev, rtol=0, atol=1e-10 * scale
        )

    def test_reversal_swaps_coefficient_roles(self, mixed_setup):
        grid, pair, eps = mixed_setup
        sigma = np.sqrt(pair.kappa)
        # real symmetric test function: its kernel is real and even
        a = np.exp(-grid.points**2)
        c = 1.0 / (1.0 + grid.points**4)
        phi_minus, phi_plus = coefficient_pair(sigma, a, c, grid.step, eps)
        swapped_minus, swapped_plus = coefficient_pair(sigma, c, a, grid.step, eps)
        scale = np.max(np.abs(phi_plus))
        np.testing.assert_allclose(phi_plus[::-1], swapped_plus, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(phi_minus[::-1], swapped_minus, rtol=0, atol=1e-12 * scale)
