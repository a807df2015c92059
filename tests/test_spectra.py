import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qnoise as qn
from qnoise.spectra import ZERO_SNAP

from conftest import grid_and_eps, nu_index
from oracles import mixed_kappa, richardson_limit


class TestMakeGrid:
    def test_three_points(self):
        grid = qn.make_grid(3, 1.0)
        np.testing.assert_array_equal(grid.points, [-1.0, 0.0, 1.0])

    def test_five_points_half_step(self):
        grid = qn.make_grid(5, 0.5)
        np.testing.assert_array_equal(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_even_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            qn.make_grid(4, 1.0)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            qn.make_grid(1, 1.0)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            qn.make_grid(5.5, 1.0)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            qn.make_grid(5, 0.0)

    # 1e308 is finite, but the span 3 * 1e308 overflows and eps = 1/span is zero
    @pytest.mark.parametrize("step", [np.inf, -np.inf, np.nan, 1e308])
    def test_non_finite_step_rejected(self, step):
        with pytest.raises(qn.NonFiniteError, match="step must be finite"):
            qn.make_grid(3, step)

    @pytest.mark.parametrize(
        "n_points", [np.inf, -np.inf, np.nan, np.float32(np.inf)], ids=["inf", "-inf", "nan", "float32-inf"]
    )
    def test_non_finite_count_rejected(self, n_points):
        with pytest.raises(qn.NonFiniteError, match="n_points must be finite"):
            qn.make_grid(n_points, 1.0)

    # odd integers beyond the float range: the span n_points * step has no float
    @pytest.mark.parametrize("n_points", [10**400 + 1, 3 * 10**308 + 1], ids=["10**400+1", "3*10**308+1"])
    def test_count_whose_span_overflows_rejected(self, n_points):
        with pytest.raises(qn.NonFiniteError, match="n_points \\* step"):
            qn.make_grid(n_points, 1.0)

    @given(
        half=st.integers(min_value=1, max_value=40),
        step=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_flip_symmetry_exact(self, half, step):
        grid = qn.make_grid(2 * half + 1, step)
        assert np.array_equal(grid.points[::-1], -grid.points)
        assert np.all(np.diff(grid.points) > 0)
        assert grid.points[half] == 0.0


class TestPlanckDensity:
    def test_reference_values_at_unit_frequency(self, planck_setup):
        grid, pair, _ = planck_setup
        k = nu_index(grid, 1.0)
        assert pair.kappa[k] == pytest.approx(0.5819767068693265, rel=1e-14)
        assert pair.kappa_rev[k] == pytest.approx(1.5819767068693265, rel=1e-14)

    def test_difference_is_h_nu(self, planck_setup):
        grid, pair, _ = planck_setup
        np.testing.assert_allclose(
            pair.kappa_rev - pair.kappa, grid.points, rtol=1e-12, atol=1e-15
        )

    def test_zero_frequency_analytic_limit(self):
        grid, _ = grid_and_eps(33, 0.25)
        for beta in (0.5, 1.0, 4.0):
            pair = qn.planck_density(beta, 1.0, grid)
            k = nu_index(grid, 0.0)
            assert pair.kappa[k] == 1.0 / beta
            assert pair.kappa_rev[k] == 1.0 / beta
            limit = richardson_limit(lambda h: h / np.expm1(beta * h), h0=1e-2)
            assert pair.kappa[k] == pytest.approx(limit, rel=1e-9)

    def test_flip_relation(self, planck_setup):
        grid, pair, _ = planck_setup
        k_plus = nu_index(grid, 1.0)
        k_minus = nu_index(grid, -1.0)
        assert pair.kappa[k_minus] == pair.kappa_rev[k_plus]

    def test_amplitudes_are_read_only_and_computed_once(self, planck_setup):
        _, pair, _ = planck_setup
        for name, density in (("sigma", pair.kappa), ("sigma_rev", pair.kappa_rev)):
            amp = getattr(pair, name)
            assert getattr(pair, name) is amp
            assert np.array_equal(amp, np.sqrt(density))
            assert not amp.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pair, name, amp)

    def test_modular_function_is_boltzmann_weight(self, planck_setup):
        grid, pair, _ = planck_setup
        assert pair.theta.all()
        np.testing.assert_allclose(pair.lambda_theta, np.exp(grid.points), rtol=1e-12)

    def test_negative_beta_rejected(self):
        grid, _ = grid_and_eps(5, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            qn.planck_density(-1.0, 1.0, grid)

    def test_zero_beta_redirects_to_flat(self):
        grid, _ = grid_and_eps(5, 1.0)
        with pytest.raises(ValueError, match="flat_density"):
            qn.planck_density(0.0, 1.0, grid)

    def test_nonpositive_h_rejected(self):
        grid, _ = grid_and_eps(5, 1.0)
        with pytest.raises(ValueError, match="h must be positive"):
            qn.planck_density(1.0, 0.0, grid)

    def test_too_cold_rejected_not_mixed(self):
        # beta * h * nu_max = 712 > ln(float max): expm1 overflows and kappa
        # would underflow to exactly 0 at nu_max, a vacuum point.
        grid, _ = grid_and_eps(65, 0.25)
        pair = qn.planck_density(88.5, 1.0, grid)
        assert qn.classify(pair) == {qn.THERMAL}
        assert not pair.n_plus.any() and not pair.n_minus.any()
        with pytest.raises(qn.NonFiniteError, match="too cold"):
            qn.planck_density(89.0, 1.0, grid)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 128), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1e-6, 800.0))
def test_planck_is_thermal_or_rejected(half, nu_max, h, cold):
    """At any beta * h * nu_max (``cold``) Planck is thermal on the whole grid,
    or planck_density raises NonFiniteError; it is never mixed."""
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    try:
        pair = qn.planck_density(cold / (h * grid.nu_max), h, grid)
    except qn.NonFiniteError:
        return
    assert not pair.n_plus.any() and not pair.n_minus.any()
    labels = qn.classify(pair)
    assert qn.THERMAL in labels and qn.MIXED not in labels


class TestFlatDensity:
    def test_unit_level(self, flat_setup):
        _, pair, _ = flat_setup
        assert np.all(pair.kappa == 1.0)
        assert np.all(pair.lambda_theta == 1.0)
        assert np.all(pair.gamma == 1.0)

    def test_general_level_cross_density(self):
        grid, _ = grid_and_eps(7, 1.0)
        pair = qn.flat_density(2.5, grid)
        np.testing.assert_allclose(pair.gamma, 2.5, rtol=1e-15)

    def test_zero_level_drops_everything(self):
        grid, _ = grid_and_eps(7, 1.0)
        pair = qn.flat_density(0.0, grid)
        assert not pair.retained.any()
        assert qn.classify(pair) == frozenset()

    def test_negative_level_rejected(self):
        grid, _ = grid_and_eps(7, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            qn.flat_density(-0.1, grid)


class TestTabulatedDensity:
    def test_pure_vacuum_masks(self):
        grid = qn.make_grid(3, 1.0)
        pair = qn.tabulated_density([0.0, 0.0, 1.0], grid)
        np.testing.assert_array_equal(pair.kappa_rev, [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(pair.n_plus, [True, False, False])
        np.testing.assert_array_equal(pair.n_minus, [False, False, True])
        assert not pair.theta.any()
        assert not pair.retained[1]  # nu = 0 carries no signal and is dropped

    def test_uniform_values_thermal(self):
        grid = qn.make_grid(3, 1.0)
        pair = qn.tabulated_density([1.0, 1.0, 1.0], grid)
        assert pair.theta.all()
        assert np.all(pair.lambda_theta == 1.0)

    def test_modular_values_and_reciprocal(self):
        grid = qn.make_grid(3, 1.0)
        pair = qn.tabulated_density([2.0, 1.0, 0.5], grid)
        assert pair.lambda_theta[nu_index(grid, 1.0)] == pytest.approx(4.0, rel=1e-15)
        assert pair.lambda_theta[nu_index(grid, -1.0)] == pytest.approx(0.25, rel=1e-15)

    def test_length_mismatch_rejected(self):
        grid = qn.make_grid(5, 1.0)
        with pytest.raises(ValueError, match="expected 5"):
            qn.tabulated_density([1.0, 2.0], grid)

    def test_negative_value_rejected(self):
        grid = qn.make_grid(3, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            qn.tabulated_density([1.0, -1e-9, 1.0], grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        grid = qn.make_grid(3, 1.0)
        with pytest.raises(qn.NonFiniteError, match="finite"):
            qn.tabulated_density([1.0, bad, 1.0], grid)
        assert issubclass(qn.NonFiniteError, ValueError)

    # One min/max sweep checks the values: NaN passes through both, so it is
    # reported before a negative entry, and the sign before the square.
    @pytest.mark.parametrize(
        "values, error",
        [
            ([np.nan, -1.0, 1.0], qn.NonFiniteError),
            ([-1.0, 1.0, np.nan], qn.NonFiniteError),
            ([-np.inf, -1.0, np.inf], qn.NonFiniteError),
            ([1.0, -1.0, 1.0], ValueError),
            ([1e155, -1.0, 1.0], ValueError),
            ([1.0, 1e155, 1.0], qn.NonFiniteError),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_typed_errors_in_order(self, values, error):
        grid = qn.make_grid(3, 1.0)
        with pytest.raises(ValueError) as info:
            qn.tabulated_density(values, grid)
        assert type(info.value) is error

    @pytest.mark.filterwarnings("error")
    def test_peak_whose_square_overflows_rejected(self):
        grid = qn.make_grid(3, 1.0)
        with pytest.raises(qn.NonFiniteError, match="overflows"):
            qn.tabulated_density([1.0, 1e155, 1.0], grid)
        assert qn.tabulated_density([1.0, 1e150, 1.0], grid).gamma[1] == 1e150

    def test_small_values_snap_to_zero(self):
        grid = qn.make_grid(3, 1.0)
        pair = qn.tabulated_density([0.1 * ZERO_SNAP, 1.0, 1.0], grid)
        assert pair.kappa[0] == 0.0
        assert pair.n_plus[0]

    @settings(max_examples=60)
    @given(
        half=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    def test_invariants_hold_for_arbitrary_values(self, half, data):
        n = 2 * half + 1
        kappa = data.draw(
            arrays(
                np.float64,
                (n,),
                elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            )
        )
        grid = qn.make_grid(n, 1.0)
        pair = qn.tabulated_density(kappa, grid)
        # crisp partition
        assert not np.any(pair.n_plus & pair.n_minus)
        assert not np.any(pair.n_plus & pair.theta)
        assert not np.any(pair.n_minus & pair.theta)
        assert np.array_equal(
            pair.retained, (pair.kappa + pair.kappa_rev) > 0
        )
        # flip structure
        assert np.array_equal(pair.kappa_rev, pair.kappa[::-1])
        assert np.array_equal(pair.gamma, pair.gamma[::-1])
        double = qn.tabulated_density(pair.kappa_rev, grid)
        assert np.array_equal(double.kappa_rev, pair.kappa)
        if pair.theta.any():
            recip = pair.lambda_theta[pair.theta] * pair.lambda_theta[::-1][pair.theta]
            np.testing.assert_allclose(recip, 1.0, rtol=1e-12)


class TestClassify:
    def test_flat_unit_is_white_standard_thermal(self, flat_setup):
        _, pair, _ = flat_setup
        labels = qn.classify(pair)
        assert {qn.WHITE, qn.STANDARD_THERMAL, qn.THERMAL} == labels

    def test_flat_nonunit_is_white_only(self):
        grid, _ = grid_and_eps(9, 0.5)
        labels = qn.classify(qn.flat_density(2.0, grid))
        assert qn.WHITE in labels
        assert qn.STANDARD_THERMAL not in labels

    def test_vacuum_with_unit_sum_is_standard(self):
        grid = qn.make_grid(3, 1.0)
        pair = qn.tabulated_density([0.0, 0.0, 1.0], grid)
        assert qn.classify(pair) == {qn.VACUUM, qn.STANDARD_VACUUM}

    def test_planck_is_thermal_not_standard(self, planck_setup):
        _, pair, _ = planck_setup
        assert qn.classify(pair) == {qn.THERMAL}

    def test_mixed_spectrum(self, mixed_setup):
        _, pair, _ = mixed_setup
        assert qn.classify(pair) == {qn.MIXED}

    def test_restrictions_of_standard_pair(self, mixed_setup):
        grid, pair, _ = mixed_setup
        std = qn.build_standard_pair(pair)
        thermal_part = qn.tabulated_density(
            np.where(pair.theta, std.kappa, 0.0), grid
        )
        vacuum_part = qn.tabulated_density(
            np.where(~pair.theta, std.kappa, 0.0), grid
        )
        assert qn.STANDARD_THERMAL in qn.classify(thermal_part)
        assert qn.classify(vacuum_part) == {qn.VACUUM, qn.STANDARD_VACUUM}


def test_mixed_reference_masks(mixed_setup):
    grid, pair, _ = mixed_setup
    assert pair.n_plus.any() and pair.n_minus.any() and pair.theta.any()
    np.testing.assert_array_equal(pair.n_plus, grid.points < -grid.nu_max / 2)
    np.testing.assert_array_equal(pair.n_minus, grid.points > grid.nu_max / 2)
    assert np.array_equal(pair.kappa, mixed_kappa(grid))


def test_a_tabulated_input_stays_writable_for_its_caller():
    # An all-zero input takes no snap of its own values, yet it must be
    # copied too: freezing it in place would make the caller's array read-only.
    grid = qn.make_grid(5, 1.0)
    for values in (np.zeros(5), np.array([0.0, 1.0, 2.0, 1e-20, 0.5])):
        pair = qn.tabulated_density(values, grid)
        assert values.flags.writeable
        assert not pair.kappa.flags.writeable
        assert not np.shares_memory(pair.kappa, values)
