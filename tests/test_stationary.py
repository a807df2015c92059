import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qnoise as qn
from qnoise import verification
from qnoise.errors import NotInvertibleError, NotPositiveDefiniteError

from conftest import build_chain, grid_and_eps
from oracles import (
    amplitude_grams,
    amplitude_matrices,
    amplitude_roots,
    circulant,
    dense_symbol_matrix,
    filter_views,
    gather_circulant,
    gram_quadratic_form,
    mixed_kappa,
    model_views,
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
            seq.values[::-1], expected, rtol=0, atol=1e-12 * np.max(np.abs(seq.values))
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
        cross=np.zeros(n, dtype=complex),
    )


def _views(model):
    """The dense circulants of a model and, if it is invertible, of its modular filter."""
    views = model_views(model)
    if model.invertible:
        views.update(filter_views(qn.modular_matrix(model)))
    return views


def _check_dense_matrices(pair, grid, eps):
    """The circulant of every symbol, as verification reads it by its first
    column, against the loop-built symbol matrix."""
    _, model = build_chain(pair, eps)
    expected = {"K": pair.kappa, "X": np.sqrt(pair.kappa), "G": pair.gamma}
    if model.invertible:
        lam = pair.kappa_rev / pair.kappa
        expected.update(L=lam, L_half=np.sqrt(lam))
    views = _views(model)
    for name, symbol in expected.items():
        oracle = dense_symbol_matrix(symbol, grid, eps)
        np.testing.assert_allclose(
            views[name], oracle, rtol=0, atol=1e-10 * np.max(symbol), err_msg=name
        )
    assert np.array_equal(views["K_rev"], np.conj(views["K"]))
    assert np.array_equal(views["X_rev"], np.conj(views["X"]))
    return model


def _owner(array):
    """The array that owns the memory a view reads."""
    while array.base is not None:
        array = array.base
    return array


class TestCirculant:
    """The dense views of the test oracles, and the first column verification
    reads of each, which is the whole of what the package takes from them."""

    @pytest.mark.parametrize("n", [1, 3, 9, 33, 257])
    def test_bit_equal_to_the_gather_read_only_and_linear_in_memory(self, n):
        rng = np.random.default_rng(n)
        for symbol in (rng.uniform(0.1, 2.0, n), rng.normal(size=n) + 1j * rng.normal(size=n)):
            matrix = circulant(symbol)
            column = verification._column(symbol)
            expected = gather_circulant(column)
            assert matrix.shape == (n, n)
            assert np.array_equal(np.array(matrix).view(np.uint64), expected.view(np.uint64))
            assert not matrix.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 0.0
            owner = _owner(matrix)
            assert owner.flags.owndata and owner.size <= 2 * n
            conjugate = verification._column(symbol, conjugate=True)
            assert np.array_equal(conjugate.view(np.uint64), np.conj(column).view(np.uint64))

    def test_conjugates_are_exact_views(self, planck_setup, mixed_setup):
        for _, pair, eps in (planck_setup, mixed_setup):
            _, model = build_chain(pair, eps)
            n = model.n_points
            views = model_views(model)
            root = np.sqrt(model.eigenvalues)
            for name, symbol in (("K", model.eigenvalues), ("X", root)):
                conjugate = views[f"{name}_rev"]
                assert np.array_equal(conjugate, np.conj(views[name]))
                assert _owner(conjugate).size <= 2 * n
                assert np.array_equal(conjugate[:, 0], verification._column(symbol, conjugate=True))


class TestBuildModel:
    def test_white_standard_noise_is_identity(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        eye = np.eye(model.n_points)
        views = _views(model)
        for name in ("K", "X", "G", "L"):
            np.testing.assert_allclose(views[name], eye, rtol=0, atol=1e-12)

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
        cross = model_views(model)["G"]
        assert np.max(np.abs(cross - cross.T)) <= 1e-10 * norm
        assert np.max(np.abs(cross.imag)) <= 1e-10 * norm

    def test_mixed_dense_matrices_against_dense_oracle(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.tabulated_density(mixed_kappa(grid), grid)
        model = _check_dense_matrices(pair, grid, eps)
        assert not model.invertible

    def test_dense_matrices_cached_and_read_only(self, planck_setup):
        # The model and filter hold no dense matrix to cache: each is a
        # read-only symbol, and a dense view is built outside the package.
        _, pair, eps = planck_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        views = _views(model)
        for owner, name in ((model, "K"), (model, "K_rev"), (model, "X"),
                            (model, "X_rev"), (model, "G"), (filt, "L"), (filt, "L_half")):
            assert not hasattr(owner, name)
            assert not views[name].flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(owner, name, views[name])
        for symbol in (model.eigenvalues, filt.symbol):
            assert not symbol.flags.writeable

    def test_large_grid_holds_only_symbols(self):
        # One dense complex matrix at this size would take 16 n^2 bytes (17 GB),
        # so fail on the stored fields first, before anything that large is tried.
        # Each derived array has one home: no record stores a second copy of
        # a grid, a step or an amplitude that another one owns.
        fields = {
            qn.StationaryModel: ["eps", "step", "eigenvalues"],
            qn.ModularFilter: ["eps", "lags", "symbol", "kernel_half", "kernel_inv_half"],
            qn.TransmissionFilter: ["pair", "f", "time_kernel", "standard"],
            qn.SynthesisResult: ["out_amp", "out_amp_rev", "kappa_out"],
            qn.OutputPair: ["canonical", "output", "reverse"],
            qn.IntegratorTable: ["pair"],
        }
        for record, names in fields.items():
            assert [f.name for f in dataclasses.fields(record)] == names, record.__name__
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
        assert np.max(np.abs(model_views(model)["G"])) == 0.0
        assert not model.invertible

    def test_covariances_commute(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        views = model_views(model)
        cov, cov_rev = np.array(views["K"]), np.array(views["K_rev"])
        norm = np.linalg.norm(cov, 2)
        comm = cov @ cov_rev - cov_rev @ cov
        assert np.linalg.norm(comm) <= 1e-12 * norm**2

    def test_eigen_and_fft_routes_agree(self, planck_setup):
        _, pair, eps = planck_setup
        seq, model = build_chain(pair, eps)
        cov = model_views(model)["K"]
        dense = np.sort(np.linalg.eigvalsh(cov))
        assert np.max(np.abs(dense - np.sort(model.eigenvalues))) <= 1e-12 * dense[-1]
        # first-column route back to the correlation sequence
        recovered = np.fft.fftshift(cov[:, 0]) / eps
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

    # A subnormal level keeps too few bits through the FFT round trip: its
    # rounding leaves an imaginary part of one subnormal quantum, which the
    # Hermitian and PSD bounds must not read as a defect of the spectrum.
    def test_subnormal_flat_level_builds_a_model(self):
        grid, eps = grid_and_eps(269, 0.25)
        for level in (1e-315, 1e-320):
            model = qn.build_model(qn.correlation_sequence(qn.flat_density(level, grid), eps))
            assert np.all(model.eigenvalues == model.eigenvalues[0])

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
        cols = model_views(model)["X"]
        np.testing.assert_allclose(
            cols.conj().T @ cols, np.eye(model.n_points), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n_points", [17, 33])
    def test_gram_identities(self, n_points):
        grid, eps = grid_and_eps(n_points, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        views = model_views(model)
        cols, cols_rev = views["X"], views["X_rev"]
        tol = 1e-10 * pair.kappa.max()
        np.testing.assert_allclose(cols.conj().T @ cols, views["K"], rtol=0, atol=tol)
        np.testing.assert_allclose(
            cols_rev.conj().T @ cols_rev, views["K_rev"], rtol=0, atol=tol
        )
        np.testing.assert_allclose(cols.conj().T @ cols_rev, views["G"], rtol=0, atol=tol)

    def test_reverse_columns_are_exact_conjugates(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        views = model_views(model)
        assert np.array_equal(views["X_rev"], np.conj(views["X"]))


class TestModularMatrix:
    def test_white_modular_is_identity(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        np.testing.assert_allclose(filter_views(filt)["L"], np.eye(model.n_points), rtol=0, atol=1e-12)
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
        got = np.sort(np.linalg.eigvals(filter_views(filt)["L"]).real)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_root_spectrum_is_square_root_of_modular(self):
        grid, eps = grid_and_eps(33, 0.25)
        pair = qn.planck_density(1.0, 1.0, grid)
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        expected = np.sort(np.exp(grid.points / 2))
        got = np.sort(np.linalg.eigvals(filter_views(filt)["L_half"]).real)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_tabulated_modular_spectrum(self):
        grid, eps = grid_and_eps(3, 1.0)
        pair = qn.tabulated_density([2.0, 1.0, 0.5], grid)
        _, model = build_chain(pair, eps)
        filt = qn.modular_matrix(model)
        got = np.sort(np.linalg.eigvals(filter_views(filt)["L"]).real)
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
        noise, reverse = amplitude_matrices(model, grid)
        views = model_views(model)
        tol = 1e-10 * pair.kappa.max()
        np.testing.assert_allclose(grid.step * noise.conj().T @ noise, views["K"], rtol=0, atol=tol)
        np.testing.assert_allclose(grid.step * noise.conj().T @ reverse, views["G"], rtol=0, atol=tol)
        np.testing.assert_allclose(grid.step * reverse.conj().T @ reverse, views["K_rev"], rtol=0, atol=tol)

    @pytest.mark.parametrize("n, step", [(9, 0.5), (33, 0.25), (65, 0.25), (129, 1.0 / 3), (513, 16.0 / 512)])
    def test_noise_is_the_complex_exponential_bit_for_bit(self, n, step):
        # Both amplitudes are their root times the same plane wave: on the
        # flip-exact grid the plane wave at -nu is the conjugate of the one
        # at nu bit for bit, so the star involution is an index reversal.
        grid, eps = grid_and_eps(n, step)
        _, model = build_chain(qn.planck_density(1.0, 1.0, grid), eps)
        noise, reverse = amplitude_matrices(model, grid)
        root, reverse_root = amplitude_roots(model)
        waves = plane_wave_matrix(grid, eps)
        assert np.array_equal(noise, root[:, None] * waves)
        assert np.array_equal(reverse, reverse_root[:, None] * waves)

    # n = 3 sums one block of 2 rows, 511 exactly one full block of 256, and
    # 513 and 1025 take 2 and 3 blocks
    @pytest.mark.parametrize("n", [3, 9, 65, 511, 513, 1025])
    def test_first_column_grams_are_the_dense_products(self, n):
        grid, eps = grid_and_eps(n, 16.0 / (n - 1))
        _, model = build_chain(qn.planck_density(1.0, 1.0, grid), eps)
        noise, reverse = amplitude_matrices(model, grid)
        gram, cross = amplitude_grams(model)
        tol = 1e-14 * model.eigenvalues.max() / grid.step
        np.testing.assert_allclose(gram, noise.conj().T @ noise[:, 0], rtol=0, atol=tol)
        np.testing.assert_allclose(cross, noise.conj().T @ reverse[:, 0], rtol=0, atol=tol)

    def test_star_involution_exact(self, mixed_setup):
        _, pair, eps = mixed_setup
        _, model = build_chain(pair, eps)
        root, reverse_root = amplitude_roots(model)
        assert np.array_equal(root, np.sqrt(model.eigenvalues))
        assert np.array_equal(reverse_root, np.conj(root[::-1]))

    def test_white_noise_amplitudes_coincide(self, flat_setup):
        _, pair, eps = flat_setup
        _, model = build_chain(pair, eps)
        noise, reverse = amplitude_matrices(model, pair.grid)
        np.testing.assert_allclose(noise, reverse, rtol=0, atol=1e-14)
        gram, cross = amplitude_grams(model)
        np.testing.assert_allclose(gram, cross, rtol=0, atol=1e-14 / pair.grid.step)


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
