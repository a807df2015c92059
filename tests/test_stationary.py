import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qnoise as qn
from qnoise import fourier
from qnoise.errors import NotInvertibleError, NotPositiveDefiniteError

from conftest import build_chain, grid_and_eps
from oracles import (
    dense_symbol_matrix,
    gather_circulant,
    gram_quadratic_form,
    mixed_kappa,
    plane_wave_matrix,
    slow_convolve,
    slow_kernel,
    slow_kernel_all,
)


class TestCorrelationSequence:
    def test_flat_is_discrete_delta(self, flat_setup):
        _, pair, eps = flat_setup
        seq = qn.correlation_sequence(pair, eps)
        center = (seq.n_points - 1) // 2
        assert seq.values[center].real == pytest.approx(1.0 / eps, rel=1e-12)
        off = np.delete(seq.values, center)
        assert np.max(np.abs(off)) <= 1e-10 / eps

    def test_symmetric_spectrum_gives_real_kernel(self):
        grid, eps = grid_and_eps(9, 0.5)
        kappa = 1.0 + grid.points**2
        pair = qn.tabulated_density(kappa, grid)
        seq = qn.correlation_sequence(pair, eps)
        assert np.max(np.abs(seq.values.imag)) <= 1e-12 * np.max(np.abs(seq.values))

    def test_planck_matches_direct_riemann_sum(self, planck_setup):
        grid, pair, eps = planck_setup
        seq = qn.correlation_sequence(pair, eps)
        center = (seq.n_points - 1) // 2
        scale = abs(seq.values[center])
        for lag in (0, 1, 5):
            expected = slow_kernel(pair.kappa, grid, eps, lag)
            assert abs(seq.values[center + lag] - expected) <= 1e-12 * scale

    def test_hermitian_lag_symmetry(self, planck_setup):
        _, pair, eps = planck_setup
        seq = qn.correlation_sequence(pair, eps)
        scale = np.max(np.abs(seq.values))
        np.testing.assert_allclose(
            seq.values[::-1], np.conj(seq.values), rtol=0, atol=1e-12 * scale
        )
        assert np.array_equal(seq.reversed, seq.values[::-1])

    def test_cross_sequence_real_symmetric(self, mixed_setup):
        _, pair, eps = mixed_setup
        seq = qn.correlation_sequence(pair, eps)
        scale = max(np.max(np.abs(seq.cross)), 1e-300)
        assert np.max(np.abs(seq.cross.imag)) <= 1e-12 * scale
        np.testing.assert_allclose(
            seq.cross, seq.cross[::-1], rtol=0, atol=1e-12 * scale
        )

    def test_reversed_matches_flipped_density_kernel(self, mixed_setup):
        grid, pair, eps = mixed_setup
        seq = qn.correlation_sequence(pair, eps)
        expected = slow_kernel_all(pair.kappa_rev, grid, eps)
        np.testing.assert_allclose(
            seq.reversed, expected, rtol=0, atol=1e-12 * np.max(np.abs(seq.values))
        )

    def test_incompatible_time_step_rejected(self, planck_setup):
        _, pair, eps = planck_setup
        with pytest.raises(ValueError, match="dual"):
            qn.correlation_sequence(pair, 1.1 * eps)


def _hand_built_sequence(values, eps):
    values = np.asarray(values, dtype=complex)
    n = values.size
    return qn.CorrelationSequence(
        eps=eps,
        step=1.0 / (n * eps),
        values=values,
        reversed=values[::-1].copy(),
        cross=np.zeros(n, dtype=complex),
    )


def _check_dense_matrices(pair, grid, eps):
    """Every dense attribute against the loop-built symbol matrix."""
    _, model = build_chain(pair, eps)
    expected = {"K": pair.kappa, "X": np.sqrt(pair.kappa), "G": pair.gamma}
    if model.invertible:
        filt = qn.modular_matrix(model)
        lam = pair.kappa_rev / pair.kappa
        expected.update(L=lam, L_half=np.sqrt(lam))
        assert np.array_equal(model.L, filt.L)
    else:
        assert model.L is None
    for name, symbol in expected.items():
        matrix = getattr(filt if name == "L_half" else model, name)
        oracle = dense_symbol_matrix(symbol, grid, eps)
        np.testing.assert_allclose(
            matrix, oracle, rtol=0, atol=1e-10 * np.max(symbol), err_msg=name
        )
    assert np.array_equal(model.K_rev, np.conj(model.K))
    assert np.array_equal(model.X_rev, np.conj(model.X))
    return model


def _owner(array):
    """The array that owns the memory a view reads."""
    while array.base is not None:
        array = array.base
    return array


class TestCirculant:
    @pytest.mark.parametrize("n", [1, 3, 9, 33, 257])
    def test_bit_equal_to_the_gather_read_only_and_linear_in_memory(self, n):
        rng = np.random.default_rng(n)
        for symbol in (rng.uniform(0.1, 2.0, n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            matrix = fourier.circulant(symbol)
            expected = gather_circulant(np.fft.ifft(np.fft.ifftshift(symbol)))
            assert matrix.shape == (n, n)
            assert np.array_equal(np.array(matrix).view(np.uint64), expected.view(np.uint64))
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
            owner = _owner(matrix)
            assert owner.flags.owndata and owner.size <= 2 * n

    def test_conjugates_are_exact_views(self, planck_setup, mixed_setup):
        for _, pair, eps in (planck_setup, mixed_setup):
            _, model = build_chain(pair, eps)
            n = model.n_points
            for matrix, conjugate in ((model.K, model.K_rev), (model.X, model.X_rev)):
                assert np.array_equal(conjugate, np.conj(matrix))
                assert _owner(conjugate).size <= 2 * n


class TestBuildModel:
    def test_white_standard_noise_is_identity(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        eye = np.eye(model.n_points)
        for matrix in (model.K, model.X, model.G, model.L):
            np.testing.assert_allclose(matrix, eye, rtol=0, atol=1e-12)

    def test_eigenvalues_are_densities(self, planck_setup):
        _, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        np.testing.assert_allclose(
            model.eigenvalues, pair.kappa, rtol=0, atol=1e-13 * pair.kappa.max()
        )

    def test_planck_cross_covariance_against_dense_oracle(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        model = _check_dense_matrices(pair, grid, eps)
        assert model.invertible
        norm = pair.kappa.max()
        assert np.max(np.abs(model.G - model.G.T)) <= 1e-10 * norm
        assert np.max(np.abs(model.G.imag)) <= 1e-10 * norm

    def test_mixed_dense_matrices_against_dense_oracle(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.tabulated_density(mixed_kappa(grid), grid)
        model = _check_dense_matrices(pair, grid, eps)
        assert not model.invertible

    def test_dense_matrices_cached_and_read_only(self, planck_setup):
        _, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        for owner, name in ((model, "K"), (model, "K_rev"), (model, "X"),
                            (model, "X_rev"), (model, "G"), (model, "L"),
                            (filt, "L"), (filt, "L_half")):
            matrix = getattr(owner, name)
            assert getattr(owner, name) is matrix
            assert not matrix.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(owner, name, matrix)

    def test_large_grid_holds_only_symbols(self):
        # One dense complex matrix at this size would take 16 n^2 bytes (17 GB),
        # so fail on the stored fields first, before anything that large is tried.
        assert [f.name for f in dataclasses.fields(qn.StationaryModel)] == [
            "eps", "step", "frequencies", "eigenvalues"]
        assert [f.name for f in dataclasses.fields(qn.ModularFilter)] == [
            "eps", "lags", "symbol", "kernel_half", "kernel_inv_half"]
        n = 2**15 + 1
        grid, eps = grid_and_eps(n, 16.0 / (n - 1))
        seq = qn.correlation_sequence(qn.planck_density(1.0, 1.0, grid), eps)
        tracemalloc.start()
        try:
            model = qn.build_model(seq)
            filt = qn.modular_matrix(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(
            value.nbytes
            for owner in (model, filt)
            for value in vars(owner).values()
            if isinstance(value, np.ndarray)
        )
        assert held <= 64 * n
        assert peak <= 512 * n
        assert model.invertible and filt.symbol.shape == (n,)

    def test_vacuum_spectrum_has_zero_cross_covariance(self, vacuum_setup):
        _, pair, eps = vacuum_setup
        _, model = build_chain(pair, eps)
        assert np.max(np.abs(model.G)) == 0.0
        assert model.L is None

    def test_covariances_commute(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        norm = np.linalg.norm(model.K, 2)
        comm = model.K @ model.K_rev - model.K_rev @ model.K
        assert np.linalg.norm(comm) <= 1e-12 * norm**2

    def test_eigen_and_fft_routes_agree(self, planck_setup):
        _, pair, eps = planck_setup
        seq, model = build_chain(pair, eps)
        dense = np.sort(np.linalg.eigvalsh(model.K))
        assert np.max(np.abs(dense - np.sort(model.eigenvalues))) <= 1e-12 * dense[-1]
        # first-column route back to the correlation sequence
        recovered = np.fft.fftshift(model.K[:, 0]) / eps
        scale = np.max(np.abs(seq.values))
        np.testing.assert_allclose(recovered, seq.values, rtol=0, atol=1e-12 * scale)

    def test_negative_spectrum_rejected(self):
        eps = 0.25
        n = 5
        values = np.zeros(n, dtype=complex)
        values[(n - 1) // 2] = 0.1
        values[(n - 1) // 2 + 1] = 1.0
        values[(n - 1) // 2 - 1] = 1.0
        with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
            qn.build_model(_hand_built_sequence(values, eps))

    def test_non_hermitian_sequence_rejected(self):
        values = np.array([0.0, 1.0, 0.5j, 0.0, 0.0])
        with pytest.raises(ValueError, match="Hermitian"):
            qn.build_model(_hand_built_sequence(values, 0.25))

    def test_small_negative_eigenvalues_clamped(self):
        eps = 0.2
        n = 5
        kappa = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        grid = qn.make_grid(n, 1.0 / (n * eps))
        pair = qn.tabulated_density(kappa, grid)
        seq, model = build_chain(pair, eps)
        assert model.eigenvalues.min() == 0.0
        assert np.all(model.eigenvalues >= 0.0)


class TestRealizationColumns:
    def test_white_columns_orthonormal(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        cols = model.X
        np.testing.assert_allclose(
            cols.conj().T @ cols, np.eye(model.n_points), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n_points", [17, 33])
    def test_gram_identities(self, n_points):
        grid, eps = grid_and_eps(n_points, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        cols, cols_rev = model.X, model.X_rev
        tol = 1e-10 * pair.kappa.max()
        np.testing.assert_allclose(cols.conj().T @ cols, model.K, rtol=0, atol=tol)
        np.testing.assert_allclose(
            cols_rev.conj().T @ cols_rev, model.K_rev, rtol=0, atol=tol
        )
        np.testing.assert_allclose(cols.conj().T @ cols_rev, model.G, rtol=0, atol=tol)

    def test_reverse_columns_are_exact_conjugates(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        cols, cols_rev = model.X, model.X_rev
        assert np.array_equal(cols_rev, np.conj(cols))


class TestModularMatrix:
    def test_white_modular_is_identity(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        np.testing.assert_allclose(filt.L, np.eye(model.n_points), rtol=0, atol=1e-12)
        center = (model.n_points - 1) // 2
        unit = np.zeros(model.n_points)
        unit[center] = 1.0
        np.testing.assert_allclose(filt.kernel_half, unit, rtol=0, atol=1e-12)
        np.testing.assert_allclose(filt.kernel_inv_half, unit, rtol=0, atol=1e-12)

    def test_planck_spectrum_is_boltzmann(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        expected = np.sort(np.exp(grid.points))
        got = np.sort(np.linalg.eigvals(filt.L).real)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_root_spectrum_is_square_root_of_modular(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        expected = np.sort(np.exp(grid.points / 2))
        got = np.sort(np.linalg.eigvals(filt.L_half).real)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_tabulated_modular_spectrum(self):
        grid, eps = grid_and_eps(3, 1.0)
        pair = qn.tabulated_density([2.0, 1.0, 0.5], grid)
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        got = np.sort(np.linalg.eigvals(filt.L).real)
        np.testing.assert_allclose(got, [0.25, 1.0, 4.0], rtol=1e-12)

    def test_modular_property_of_kernels(self, planck_setup):
        _, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        scale = np.max(np.abs(filt.kernel_half))
        np.testing.assert_allclose(
            filt.kernel_half[::-1], np.conj(filt.kernel_half), rtol=0, atol=1e-10 * scale
        )
        np.testing.assert_allclose(
            np.conj(filt.kernel_half), filt.kernel_inv_half, rtol=0, atol=1e-10 * scale
        )

    def test_kernel_convolution_is_unit(self, planck_setup):
        _, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        conv = slow_convolve(filt.kernel_half, filt.kernel_inv_half, 1.0)
        unit = np.zeros(model.n_points)
        unit[(model.n_points - 1) // 2] = 1.0
        np.testing.assert_allclose(conv, unit, rtol=0, atol=1e-9)

    def test_vacuum_components_refuse_inversion(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        with pytest.raises(NotInvertibleError, match="vacuum"):
            qn.modular_matrix(model)


class TestSpectralAmplitudes:
    def test_quadrature_grams(self):
        grid, eps = grid_and_eps(17, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        amps = qn.spectral_amplitudes(model)
        tol = 1e-10 * pair.kappa.max()
        np.testing.assert_allclose(
            grid.step * amps.noise.conj().T @ amps.noise, model.K, rtol=0, atol=tol
        )
        np.testing.assert_allclose(
            grid.step * amps.noise.conj().T @ amps.reverse, model.G, rtol=0, atol=tol
        )
        np.testing.assert_allclose(
            grid.step * amps.reverse.conj().T @ amps.reverse,
            model.K_rev,
            rtol=0,
            atol=tol,
        )

    @pytest.mark.parametrize("n, step", [(9, 0.5), (33, 0.25), (65, 0.25), (129, 1.0 / 3), (513, 16.0 / 512)])
    def test_noise_is_the_complex_exponential_bit_for_bit(self, n, step):
        grid, eps = grid_and_eps(n, step)
        _, model = build_chain(qn.planck_density(1.0, 1.0, grid), eps)
        expected = np.sqrt(model.eigenvalues)[:, None] * plane_wave_matrix(grid, eps)
        assert np.array_equal(qn.spectral_amplitudes(model).noise, expected)

    def test_star_involution_exact(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        amps = qn.spectral_amplitudes(model)
        assert np.array_equal(amps.reverse, np.conj(amps.noise[::-1, :]))

    def test_white_noise_amplitudes_coincide(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        amps = qn.spectral_amplitudes(model)
        np.testing.assert_allclose(amps.noise, amps.reverse, rtol=0, atol=1e-14)


class TestCoefficientNorm:
    @settings(max_examples=40)
    @given(
        data=arrays(
            np.complex128,
            (17,),
            elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        )
    )
    def test_nonnegative(self, data):
        grid, eps = grid_and_eps(17, 0.5)
        pair = qn.tabulated_density(mixed_kappa(grid), grid)
        _, model = build_chain(pair, eps)
        assert qn.coefficient_norm(model, data) >= -1e-9 * (np.abs(data).max() ** 2 + 1)

    @pytest.mark.parametrize("kind", ["planck", "mixed"])
    def test_matches_dense_gram_oracle(self, kind):
        grid, eps = grid_and_eps(33, 0.25)
        if kind == "planck":
            pair = qn.planck_density(1.0, 1.0, grid)
        else:
            pair = qn.tabulated_density(mixed_kappa(grid), grid)
        _, model = build_chain(pair, eps)
        rng = np.random.default_rng(7)
        zeta = rng.normal(size=33) + 1j * rng.normal(size=33)
        zero = np.zeros(33, dtype=complex)
        # zeta† K zeta + zeta† K_rev zeta, from the dense Gram blocks
        expected = gram_quadratic_form(model, zeta, zero) + gram_quadratic_form(model, zero, zeta)
        assert qn.coefficient_norm(model, zeta) == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        with pytest.raises(ValueError, match="coefficients"):
            qn.coefficient_norm(model, np.ones(3))
