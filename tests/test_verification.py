import tracemalloc

import numpy as np
import pytest

import qnoise as qn
from qnoise import fourier, stationary, verification
from qnoise.pipeline import Pipeline

from oracles import gather_circulant


@pytest.mark.parametrize("setup_name", ["planck_setup", "flat_setup", "mixed_setup", "vacuum_setup"])
def test_all_suites_pass(setup_name, request):
    _, pair, eps = request.getfixturevalue(setup_name)
    results = verification.run_all(pair, eps)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_every_suite_is_represented(mixed_setup):
    _, pair, eps = mixed_setup
    suites = {r.suite for r in verification.run_all(pair, eps)}
    assert suites == {
        "spectra",
        "stationary",
        "modular",
        "decomposition",
        "synthesis",
        "qsi",
        "mode",
    } - {"modular"}  # mixed spectrum is singular, no modular suite


def test_modular_suite_runs_for_invertible_spectra(planck_setup):
    _, pair, eps = planck_setup
    suites = {r.suite for r in verification.run_all(pair, eps)}
    assert "modular" in suites


def test_tolerance_factor_scales_checks(planck_setup):
    _, pair, eps = planck_setup
    strict = verification.run_all(pair, eps, tol_factor=1e-16)
    assert any(not r.passed for r in strict)
    loose = verification.run_all(pair, eps, tol_factor=1.0)
    assert all(r.passed for r in loose)


def test_results_carry_residuals_and_tolerances(flat_setup):
    _, pair, eps = flat_setup
    for result in verification.run_all(pair, eps):
        assert result.residual >= 0.0
        assert result.tolerance >= 0.0
        assert result.passed == (result.residual <= result.tolerance)


@pytest.mark.parametrize("n", [129, 513, 1025])
def test_largest_desk_scale_grid(n):
    import qnoise as qn

    step = 16.0 / (n - 1)  # nu_max = 8 at every size, as at n = 129 with step 0.125
    grid = qn.make_grid(n, step)
    pair = qn.planck_density(1.0, 1.0, grid)
    results = verification.run_all(pair, 1.0 / (n * step))
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def _verdicts(pair, eps):
    return {f"{r.suite}/{r.check}": r.passed for r in verification.run_all(pair, eps)}


def test_transposed_circulants_fail_the_spectrum_checks(planck_setup, monkeypatch):
    # A transposed circulant keeps its eigenvalues but carries the flipped
    # spectrum, so only a check that reads the spectrum in grid order sees it.
    monkeypatch.setattr(stationary, "circulant", lambda symbol: fourier.circulant(symbol).T)
    _, pair, eps = planck_setup
    verdicts = _verdicts(pair, eps)
    assert not verdicts["stationary/dft_consistency"]
    assert not verdicts["modular/spectrum_match"]


def test_entry_off_the_circulant_pattern_fails_dft_consistency(planck_setup, monkeypatch):
    # One entry above the diagonal, off the first column: a Hermitian
    # eigensolver that reads only the lower triangle would miss it.
    def perturbed(symbol):
        matrix = np.array(fourier.circulant(symbol))
        matrix[1, 3] += 1e-6 * np.abs(matrix).max()
        return matrix

    monkeypatch.setattr(stationary, "circulant", perturbed)
    _, pair, eps = planck_setup
    assert not _verdicts(pair, eps)["stationary/dft_consistency"]


def test_first_column_of_k_off_the_amplitudes_fails_amplitude_gram(planck_setup, monkeypatch):
    # K stays an exact circulant, so only its first column can carry the error.
    _, pair, eps = planck_setup
    eigenvalues = Pipeline(pair, eps).model.eigenvalues

    def perturbed(symbol):
        column = np.fft.ifft(np.fft.ifftshift(symbol))
        if np.array_equal(symbol, eigenvalues):
            column[2] += 1e-6 * np.abs(column).max()
        return gather_circulant(column)

    monkeypatch.setattr(stationary, "circulant", perturbed)
    assert not _verdicts(pair, eps)["stationary/amplitude_gram"]


def test_run_all_allocates_no_more_than_five_dense_matrices():
    n = 1025
    step = 16.0 / (n - 1)
    pair = qn.planck_density(1.0, 1.0, qn.make_grid(n, step))
    tracemalloc.start()
    try:
        results = verification.run_all(pair, 1.0 / (n * step))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak <= 5 * 16 * n**2


@pytest.mark.filterwarnings("error")
def test_product_checks_do_not_overflow_on_a_huge_density():
    # norm**2 = 1e300 is finite but the products of K with its column are not.
    grid = qn.make_grid(33, 0.25)
    verdicts = _verdicts(qn.flat_density(1e150, grid), 1.0 / (33 * 0.25))
    assert verdicts["stationary/geometric_mean"]
    assert verdicts["stationary/covariances_commute"]


def test_run_all_calls_no_eigensolver(planck_setup, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verification called a dense eigensolver")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _, pair, eps = planck_setup
    assert all(_verdicts(pair, eps).values())
