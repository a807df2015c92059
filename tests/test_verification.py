import dataclasses
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import qnoise as qn
from qnoise import decomposition, qsi, stationary, verification
from qnoise.pipeline import Pipeline

from oracles import (
    circulant_defect,
    dense_amplitude_residuals,
    dense_elementwise_residuals,
    dense_product_residuals,
    direct_dft,
    filter_views,
    gather_circulant,
    gram_quadratic_form,
    mixed_kappa,
    model_views,
)


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


@pytest.mark.parametrize("n", [129, 513, 1025, 65537])
def test_largest_desk_scale_grid(n):
    import qnoise as qn

    step = 16.0 / (n - 1)  # nu_max = 8 at every size, as at n = 129 with step 0.125
    grid = qn.make_grid(n, step)
    pair = qn.planck_density(1.0, 1.0, grid)
    results = verification.run_all(pair, 1.0 / (n * step))
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert len(results) == 73


def _verdicts(pair, eps):
    return {f"{r.suite}/{r.check}": r.passed for r in verification.run_all(pair, eps)}


def _inject(monkeypatch, fault, symbol=None, reverse=False):
    """Route the first column of one circulant through ``fault`` (every
    circulant if ``symbol`` is None); ``reverse`` picks K_rev or X_rev
    over K or X.  Verification builds every column by ``_column``, one row
    of a stack of symbols per circulant with a conjugate flag per row, so
    the fault goes to each matching row."""
    built = verification._column

    def column(values, conjugate=False):
        out = built(values, conjugate)
        rows = out.reshape(-1, out.shape[-1])
        flags = np.broadcast_to(conjugate, out.shape[:-1]).ravel()
        for row, values_row, flag in zip(rows, np.reshape(values, rows.shape), flags):
            if symbol is None or (np.array_equal(values_row, symbol) and flag == reverse):
                row[:] = fault(row.copy())
        return out

    monkeypatch.setattr(verification, "_column", column)


def _perturb(index, delta):
    def fault(column):
        column[index] += delta * np.abs(column).max()
        return column
    return fault


def test_transposed_circulants_fail_the_spectrum_checks(planck_setup, monkeypatch):
    # A transposed circulant keeps its eigenvalues but carries the flipped
    # spectrum, so only a check that reads the spectrum in grid order sees
    # it.  Its first column is the lag flip c[-d mod n] of the true one.
    _inject(monkeypatch, lambda column: np.roll(column[::-1], 1))
    _, pair, eps = planck_setup
    verdicts = _verdicts(pair, eps)
    assert not verdicts["stationary/dft_consistency"]
    assert not verdicts["modular/spectrum_match"]


def test_entry_off_the_circulant_pattern_fails_dft_consistency(planck_setup, monkeypatch):
    # One entry of K's column off its symbol: every entry (i, j) with
    # i - j = 2 mod n of the circulant it stands for moves with it.
    _, pair, eps = planck_setup
    _inject(monkeypatch, _perturb(2, 1e-6), Pipeline(pair, eps).model.eigenvalues)
    assert not _verdicts(pair, eps)["stationary/dft_consistency"]


def test_first_column_of_k_off_the_amplitudes_fails_amplitude_gram(planck_setup, monkeypatch):
    _, pair, eps = planck_setup
    _inject(monkeypatch, _perturb(2, 1e-6), Pipeline(pair, eps).model.eigenvalues)
    assert not _verdicts(pair, eps)["stationary/amplitude_gram"]


def test_first_column_of_g_off_the_amplitudes_fails_amplitude_cross(planck_setup, monkeypatch):
    _, pair, eps = planck_setup
    _inject(monkeypatch, _perturb(2, 1e-6), Pipeline(pair, eps).model.gamma)
    assert not _verdicts(pair, eps)["stationary/amplitude_cross"]


def _grid_pair(model, n):
    step = 16.0 / (n - 1)  # nu_max = 8
    grid = qn.make_grid(n, step)
    pair = qn.planck_density(1.0, 1.0, grid) if model == "planck" else qn.flat_density(1.0, grid)
    return pair, 1.0 / (n * step)


def _traced_planck_run_all(n):
    pair, eps = _grid_pair("planck", n)
    tracemalloc.start()
    try:
        results = verification.run_all(pair, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    return peak


def test_run_all_allocates_no_more_than_five_dense_matrices():
    n = 1025
    peak = _traced_planck_run_all(n)
    assert peak <= 5 * 16 * n**2
    assert peak <= 3.5 * 16 * n**2
    # No check holds an n x n array: the amplitude sums take two blocks of
    # plane-wave rows, and no check takes a difference of the circulant views.
    assert peak <= 0.5 * 16 * n**2


def test_run_all_memory_stays_below_one_dense_matrix_at_n_4097():
    n = 4097
    peak = _traced_planck_run_all(n)
    assert peak <= 0.15 * 16 * n**2
    # No check holds an n x n array or a block of plane-wave rows: the
    # chirp-z DFTs take a few arrays of the 5-smooth length next to 2n - 2.
    assert peak <= 100 * 16 * n


def _is_5_smooth(m):
    for prime in (2, 3, 5):
        while m % prime == 0:
            m //= prime
    return m == 1


def test_fast_length_is_the_least_5_smooth_length():
    smooth = 1
    for m in range(1, 5001):
        smooth = max(smooth, m)
        while not _is_5_smooth(smooth):
            smooth += 1
        assert verification._fast_length(m) == smooth, m
    # the padded length of the CI grid n = 2**20 + 1: the power of two 2(n - 1)
    assert verification._fast_length(2 * (2**20 + 1) - 2) == 2_097_152


@pytest.mark.parametrize("n", list(range(3, 130, 2)) + [257, 1025])
def test_chirp_z_dft_matches_the_direct_sum(n):
    rng = np.random.default_rng(n)
    weights = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    chirp = verification._GridTables(n, 1.0, 1.0).chirp
    for sign in (-1, 1):
        expected = direct_dft(weights, sign)
        error = np.abs(verification._dft(weights, chirp, sign) - expected).max()
        assert error <= 1e-12 * np.abs(expected).max(), sign


def test_chirp_z_transforms_pad_to_a_5_smooth_length(monkeypatch):
    # The chirp is even, so Bluestein needs a length >= 2n - 2 = 512 at
    # n = 257: a power of two, where a length >= 2n - 1 would take 540.
    lengths = set()

    def measured(transform):
        def call(a, n=None, *args, **kwargs):
            lengths.add(np.shape(a)[-1] if n is None else n)
            return transform(a, n, *args, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, measured(getattr(np.fft, name)))
    pair, eps = _grid_pair("planck", 257)
    results = verification.run_all(pair, eps)
    assert all(r.passed for r in results)
    assert max(lengths) == 512, sorted(lengths)


def _clear_grid_tables():
    verification._kept_tables.cache_clear()


def test_run_all_stacks_its_transforms_and_shifts_by_slices(monkeypatch):
    # Each round of the suites takes its transforms of one kind as one call
    # on a stack of rows (108 FFT calls unstacked, 30 with each suite
    # stacking its own), and no transform centres by np.roll.  The chain
    # takes 4 calls, modular_kernels_theta, coefficient_norm and
    # reflection_symmetry_check one each, the rounds 7 and qsi's bridge
    # spectrum 1.  The chirp-z DFTs' own FFTs are counted too.  A second call
    # on the same grid reads the grid tables of the first: the chirp's FFT,
    # the kernels of qsi's isometry coefficients and the chirp-z DFT of their
    # columns.  qsi_checks alone on a built chain then takes 5: its Gram
    # oracle reads K, K_rev and G by their symbols and transforms nothing, and
    # its bridge convolves two stacks of one shape, one forward FFT call.
    _clear_grid_tables()
    calls = {}

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return transform(*args, **kwargs)
        return call

    for name in ("fft", "ifft", "fftshift", "ifftshift"):
        monkeypatch.setattr(np.fft, name, counted(name))
    for n in (33, 257):
        grid = qn.make_grid(n, 8.0 / (n - 1))
        for expected in (19, 15):
            calls.clear()
            results = verification.run_all(qn.planck_density(1.0, 1.0, grid))
            assert all(r.passed for r in results)
            assert calls.get("fft", 0) + calls.get("ifft", 0) == expected, (n, calls)
            assert calls.get("fftshift", 0) == calls.get("ifftshift", 0) == 0, calls
        pipe = Pipeline(qn.planck_density(1.0, 1.0, grid), 1.0 / (n * grid.step))
        verification.run_all(pipe)
        calls.clear()
        verification.qsi_checks(pipe)
        assert calls.get("fft", 0) + calls.get("ifft", 0) == 5, (n, calls)


def test_high_dynamic_range_planck_fails_only_the_kernel_checks():
    # beta * h * nu_max = 400.  The standard pair takes the target's exact
    # amplitudes with no second snap, so the standard-law checks pass, and
    # the double flip is not re-snapped, so flip_involution passes; two
    # kernel identities still fail (the dynamic-range defect that is left).
    pair = qn.planck_density(50.0, 1.0, qn.make_grid(65, 0.25))
    failed = {f"{r.suite}/{r.check}" for r in verification.run_all(pair) if not r.passed}
    assert failed == {"decomposition/theta_kernel_convolution", "synthesis/time_convolution"}


@pytest.mark.parametrize("cold", [40.0, 200.0, 700.0])
def test_flip_involution_passes_on_high_dynamic_range_planck(cold):
    # beta * h * nu_max = cold: kappa spans up to 300 decades, and a re-snap
    # at ZERO_SNAP times the peak would zero its tail.
    grid = qn.make_grid(65, 0.25)
    pair = qn.planck_density(cold / grid.nu_max, 1.0, grid)
    [flip] = [r for r in verification.spectra_checks(Pipeline(pair, 1.0 / (65 * 0.25)))
              if r.check == "flip_involution"]
    assert flip.passed and flip.residual == 0.0


def test_run_all_leaves_no_chirp_tables_behind(monkeypatch):
    # Past n = 16,385 the chirp kernel outgrows one _DFT_BLOCK, and the grid
    # tables take about 200 bytes per grid point (200 MB at n = 2**20 + 1):
    # no grid table is kept, and each suite run's tables, the chirp among
    # them, end with it: run_all, each suite called alone (qnoise corr runs
    # stationary and modular), and a suite that raises.
    n = 16387
    pair = qn.planck_density(1.0, 1.0, qn.make_grid(n, 16.0 / (n - 1)))
    pipe = Pipeline(pair, 1.0 / (n * pair.grid.step))
    _clear_grid_tables()
    built = []

    class Tables(verification._GridTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(verification, "_GridTables", Tables)

    def held_nothing():
        return verification._kept_tables.cache_info().currsize == 0 and all(ref() is None for ref in built)

    verification.run_all(pair)
    assert len(built) == 5 and held_nothing()  # one set for each suite that transforms
    for suite in (verification.stationary_checks, verification.modular_checks, verification.qsi_checks):
        suite(pipe)
        assert held_nothing(), suite.__name__

    def failing(*args):
        # past qsi's chirp-z DFT of its isometry coefficients
        assert "chirp" in vars(built[-1]())
        raise RuntimeError("suite failed")

    monkeypatch.setattr(qsi, "reflection_symmetry_check", failing)
    with pytest.raises(RuntimeError, match="suite failed"):
        verification.run_all(pipe)
    assert held_nothing()


def _suite_pairs(n):
    """Planck, Planck at beta*h*nu_max = 48, flat, a mixed tabulated spectrum
    and the half-line vacuum; all but Planck and flat skip the modular suite."""
    grid = qn.make_grid(n, 16.0 / (n - 1))
    values = np.random.default_rng(n).uniform(0.1, 2.0, n)
    values[::3] = 0.0
    return {"planck": qn.planck_density(1.0, 1.0, grid), "planck-hdr": qn.planck_density(6.0, 1.0, grid),
            "flat": qn.flat_density(1.0, grid), "mixed": qn.tabulated_density(values, grid),
            "vacuum": qn.tabulated_density((grid.points < 0).astype(float), grid)}


@pytest.mark.parametrize("n", [33, 257, 16387])
def test_each_suite_alone_gives_its_slice_of_run_all(n):
    # run_all advances the suites in lockstep up to n = 1025 and one after
    # another above; each suite called alone runs its rounds by itself.
    def bits(results):
        return [(r.suite, r.check, r.residual.hex(), r.tolerance, r.passed) for r in results]

    for name, pair in _suite_pairs(n).items():
        pipe = Pipeline(pair, 1.0 / (n * pair.grid.step))
        together = bits(verification.run_all(pipe))
        alone = []
        for suite in ("spectra", "stationary", "modular", "decomposition", "synthesis", "qsi"):
            alone += bits(getattr(verification, f"{suite}_checks")(pipe))
        alone += bits(verification.mode_checks())
        assert alone == together, name
        assert any(r[0] == "modular" for r in together) == (name in ("planck", "flat")), name


@pytest.mark.parametrize("n, most", [(257, 15), (1025, 15), (1027, 5), (16387, 5)])
def test_run_all_takes_the_symbol_to_lag_transforms_of_all_suites_in_one_stack(n, most, monkeypatch):
    # Round 1 up to n = 1025 is one ifft of 15 rows: stationary's 5 columns,
    # modular's 3, the theta indicator, synthesis's 5 kernels and sigma's.
    # Past the lockstep bound no stack holds more than one suite's rows.
    rows = []
    transform = np.fft.ifft

    def counted(a, *args, **kwargs):
        if np.shape(a)[-1] == n and not args and "n" not in kwargs:
            rows.append(int(np.prod(np.shape(a)[:-1])))
        return transform(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    assert all(r.passed for r in verification.run_all(_suite_pairs(n)["planck"]))
    assert max(rows) == most, rows


def test_grid_tables_are_kept_by_n_step_and_eps(monkeypatch):
    # Each run in this order reads the tables the one before it left, or
    # rebuilds them if its grid or eps differ: each gives the residuals, to
    # the bit, of a run with every table cleared.
    def planck(n, step):
        return qn.planck_density(1.0, 1.0, qn.make_grid(n, step))

    first = planck(257, 1 / 16)
    dual = 1.0 / (257 * (1 / 16))
    near = dual * (1 + 4e-16)  # n * step * eps = 1 up to rounding, other last bits
    assert near != dual
    runs = [(first, None), (planck(257, 1 / 16 * (1 + 4e-16)), dual), (planck(257, 1 / 8), None),
            (planck(129, 1 / 8), None), (first, None), (first, None), (first, near)]

    def bits(pair, eps):
        return [(r.suite, r.check, r.residual.hex(), r.tolerance, r.passed)
                for r in verification.run_all(pair, eps)]

    cold = []
    for pair, eps in runs:
        _clear_grid_tables()
        cold.append(bits(pair, eps))
    _clear_grid_tables()
    assert [bits(pair, eps) for pair, eps in runs] == cold
    assert cold[5] != cold[6]  # eps reaches the residuals


@pytest.mark.parametrize("setup_name", ["planck_setup", "mixed_setup"])
def test_isometry_oracle_reads_the_model_symbol(setup_name, request):
    # qsi's Gram oracle reads K, K_rev and G by their symbols, so it gives the
    # same bits in run_all and alone, and the forms of the dense Gram blocks on
    # the coefficient columns (z, x) = sqrt(eps) * kernels of a and c.
    _, pair, eps = request.getfixturevalue(setup_name)
    pipe = Pipeline(pair, eps)
    alone = {r.check: r.residual for r in verification.qsi_checks(pipe)}
    shared = {r.check: r.residual for r in verification.run_all(pipe) if r.suite == "qsi"}
    assert shared == alone
    tables = verification._grid_tables(pair.grid, eps)
    zeta, xi = np.sqrt(eps) * tables.isometry[2][::2]  # the kernels of a and c, each stored twice
    coefficients = tables.coefficients
    forward, backward = verification._isometry_grams(pipe.model, coefficients)
    assert forward == pytest.approx(gram_quadratic_form(pipe.model, zeta, xi), rel=1e-12)
    assert backward == pytest.approx(gram_quadratic_form(pipe.model, np.conj(zeta), np.conj(xi)), rel=1e-12)


def test_worst_keeps_a_nan_anywhere_and_gives_no_negative_zero():
    for terms in ((np.nan, 1.0, 2.0), (1.0, np.nan, 2.0), (1.0, 2.0, np.nan), (np.float64(np.nan), 0.0)):
        assert np.isnan(verification._worst(*terms)), terms
    worst = verification._worst(-0.0, -0.0)
    assert worst == 0.0 and np.copysign(1.0, worst) == 1.0
    assert type(worst) is float
    # numpy and Python floats together, the largest in any position
    assert verification._worst(np.float64(3e-16), 1e-16, 0.0) == 3e-16
    assert verification._worst(1e-16, np.float64(2e-16), np.float32(1.5e-16)) == 2e-16
    assert verification._worst(0.0, -np.float64(5.0)) == 0.0
    assert type(verification._worst(np.float64(1.0), 0.5)) is float


def test_run_all_derives_an_omitted_eps_by_the_duality(planck_setup):
    _, pair, eps = planck_setup
    assert eps == 1.0 / (pair.grid.n_points * pair.grid.step)
    assert verification.run_all(pair) == verification.run_all(pair, eps)


@pytest.mark.filterwarnings("error")
def test_product_checks_do_not_overflow_on_a_huge_density():
    # norm**2 = 1e300 is finite but the products of K with its column are not;
    # the cross kernel's flip asymmetry is judged relative to its lag-0 value, 1e150.
    grid = qn.make_grid(33, 0.25)
    verdicts = _verdicts(qn.flat_density(1e150, grid), 1.0 / (33 * 0.25))
    assert verdicts["stationary/geometric_mean"]
    assert verdicts["stationary/covariances_commute"]
    assert all(verdicts.values()), [name for name, ok in verdicts.items() if not ok]


def test_run_all_calls_no_eigensolver(planck_setup, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verification called a dense eigensolver")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _, pair, eps = planck_setup
    assert all(_verdicts(pair, eps).values())


def _planck_times(scale):
    grid = qn.make_grid(33, 0.25)
    return qn.tabulated_density(qn.planck_density(1.0, 1.0, grid).kappa * scale, grid), 1.0 / (33 * 0.25)


@pytest.mark.parametrize("scale", [1.0, 1e140])
def test_entry_of_k_rev_off_the_circulant_pattern_fails_at_any_scale(scale, monkeypatch):
    # One entry of K_rev's column off its symbol; the residual is a column
    # difference, so it is divided by the density scale once.  The circulants
    # of any two columns commute, so covariances_commute cannot see it.
    pipe = Pipeline(*_planck_times(scale))
    _inject(monkeypatch, _perturb(2, 1e-6), pipe.model.eigenvalues, reverse=True)
    verdicts = {r.check: r.passed for r in verification.stationary_checks(pipe)}
    assert not verdicts["geometric_mean"]
    assert not verdicts["gram_reverse"]
    assert verdicts["covariances_commute"]


@pytest.mark.parametrize("scale", [1.0, 1e140])
def test_asymmetric_cross_kernel_fails_reflection_symmetry_at_any_scale(scale, monkeypatch):
    def skewed(model):
        gamma = np.sqrt(model.eigenvalues * model.eigenvalues[::-1])
        return gamma * (1.0 + 1e-6 * (np.arange(model.n_points) > model.n_points // 2))  # nu > 0

    monkeypatch.setattr(stationary.StationaryModel, "gamma", property(skewed))
    assert not _verdicts(*_planck_times(scale))["qsi/reflection_symmetry"]


@pytest.mark.parametrize("name", ["K", "K_rev", "X", "X_rev", "G", "L", "L_half"])
def test_circulant_column_skips_only_the_toeplitz_scan_of_a_view(name, planck_setup, monkeypatch):
    # Verification reads each circulant by its first column only, with no
    # scan of its n^2 entries: the column it reads is bit for bit the first
    # column of the dense view, which the scan finds exactly circulant.
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    views = {**model_views(pipe.model), **filter_views(pipe.filt)}
    built, read = verification._column, []

    def column(*args, **kwargs):
        out = built(*args, **kwargs)
        read.extend(out.reshape(-1, out.shape[-1]))
        return out

    monkeypatch.setattr(verification, "_column", column)
    verification.stationary_checks(pipe)
    verification.modular_checks(pipe)
    column = views[name][:, 0]
    assert any(c.tobytes() == np.ascontiguousarray(column).tobytes() for c in read)
    assert circulant_defect(views[name]) == 0.0
    assert np.array_equal(views[name], gather_circulant(column))


@pytest.mark.parametrize(
    "name, delta, check",
    [
        ("X_rev", 1.0, "conjugation"),
        ("G", 1.0, "cross_cov_symmetric"),  # c[2] moves and c[n - 2] does not
        ("G", 1j, "cross_cov_imag"),
        ("X", np.nan, "conjugation"),
        ("G", np.nan, "cross_cov_symmetric"),
        ("G", np.nan, "cross_cov_imag"),
    ],
)
def test_dense_entry_off_the_diagonals_fails(name, delta, check, planck_setup, monkeypatch):
    # Entry 2 of the column, read with its lag flip: the diagonal i - j = 2
    # of the circulant it stands for.  A NaN must not be dropped by a max.
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    symbol = pipe.model.gamma if name == "G" else np.sqrt(pipe.model.eigenvalues)
    _inject(monkeypatch, _perturb(2, delta * 1e-6), symbol, reverse=name.endswith("_rev"))
    assert not {r.check: r.passed for r in verification.stationary_checks(pipe)}[check]


@pytest.mark.parametrize("where", [(1, 3), (0, -1), (-1, 0)])
def test_nan_anywhere_in_a_dense_copy_gives_a_nan_defect(where, planck_setup, monkeypatch):
    # Entry (i, j) of the circulant K is entry (i - j) mod n of its column:
    # a NaN there makes every residual that reads K's column NaN.
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    n = pipe.model.n_points
    index = (where[0] - where[1]) % n

    def fault(column):
        column[index] = np.nan
        return column

    _inject(monkeypatch, fault, pipe.model.eigenvalues)
    results = {r.check: r for r in verification.stationary_checks(pipe)}
    for check in ("dft_consistency", "gram_noise", "root_squares", "amplitude_gram"):
        assert np.isnan(results[check].residual) and not results[check].passed, check


def test_nan_in_the_column_of_a_circulant_view_fails_the_cross_checks(planck_setup, monkeypatch):
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    _inject(monkeypatch, _perturb(2, np.nan), pipe.model.gamma)
    verdicts = {r.check: r.passed for r in verification.stationary_checks(pipe)}
    for check in ("cross_cov_imag", "cross_cov_symmetric", "cross_cov_psd", "gram_cross"):
        assert not verdicts[check], check


@pytest.mark.parametrize("setup_name", ["planck_setup", "flat_setup", "mixed_setup", "vacuum_setup"])
def test_elementwise_checks_match_their_dense_formulas_bit_for_bit(setup_name, request):
    _, pair, eps = request.getfixturevalue(setup_name)
    pipe = Pipeline(pair, eps)
    expected = dense_elementwise_residuals(pipe)
    got = {
        f"{r.suite}/{r.check}": r.residual
        for r in verification.stationary_checks(pipe) + verification.modular_checks(pipe)
    }
    assert {name: got[name] for name in expected} == expected


@pytest.mark.parametrize(
    "setup_name, model, n",
    [(name, None, None) for name in ("planck_setup", "flat_setup", "mixed_setup", "vacuum_setup")]
    + [(None, model, n) for model in ("planck", "flat") for n in (9, 129, 1025)],
)
def test_product_checks_match_the_dense_matrix_vector_products(setup_name, model, n, request):
    # The chirp-z correlations against the matrix-vector products of the
    # dense views; both are rounding-level, so they agree to a few ulps.
    if setup_name is None:
        pair, eps = _grid_pair(model, n)
    else:
        _, pair, eps = request.getfixturevalue(setup_name)
    pipe = Pipeline(pair, eps)
    expected = dense_product_residuals(pipe)
    got = {
        f"{r.suite}/{r.check}": r.residual
        for r in verification.stationary_checks(pipe) + verification.modular_checks(pipe)
    }
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-13, name
        assert got[name] <= 1e-13, name


def test_reverse_amplitude_off_the_star_involution_fails(planck_setup):
    _, pair, eps = planck_setup
    reverse_root = pair.sigma_rev.copy()
    reverse_root[2] += 1e-9
    pair.__dict__["sigma_rev"] = reverse_root  # the cached amplitude, before anything reads it
    star = {r.check: r for r in verification.stationary_checks(Pipeline(pair, eps))}["star_involution"]
    assert not star.passed
    assert star.residual == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize(
    "setup_name, model, n",
    [(name, None, None) for name in ("planck_setup", "flat_setup", "mixed_setup", "vacuum_setup")]
    + [(None, model, n) for model in ("planck", "flat") for n in (9, 33, 65, 129, 513, 1025)],
)
def test_amplitude_checks_match_the_dense_amplitude_matrices(setup_name, model, n, request):
    if setup_name is None:
        pair, eps = _grid_pair(model, n)
    else:
        _, pair, eps = request.getfixturevalue(setup_name)
    pipe = Pipeline(pair, eps)
    expected = dense_amplitude_residuals(pipe)
    got = {f"{r.suite}/{r.check}": r.residual for r in verification.stationary_checks(pipe)}
    assert got["stationary/star_involution"] == expected["stationary/star_involution"] == 0.0
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-14, name


def test_nan_at_a_zero_target_cell_fails_reproduce_kappa():
    # The exact-zero term sees the NaN; it must not be dropped by the max
    # that combines it with the relative error on the positive cells.
    grid = qn.make_grid(33, 0.25)
    pipe = Pipeline(qn.tabulated_density(mixed_kappa(grid), grid), 1.0 / (33 * 0.25))
    result = pipe.synthesized
    kappa_out = np.array(result.kappa_out)
    kappa_out[np.flatnonzero(pipe.pair.kappa == 0.0)[0]] = np.nan
    pipe.__dict__["synthesized"] = dataclasses.replace(result, kappa_out=kappa_out)
    reproduce = {r.check: r for r in verification.synthesis_checks(pipe)}["reproduce_kappa"]
    assert not reproduce.passed


def test_nan_coefficient_norm_fails_test_norm_nonnegative(planck_setup, monkeypatch):
    monkeypatch.setattr(stationary, "coefficient_norm", lambda model, zeta: np.nan)
    _, pair, eps = planck_setup
    verdicts = {r.check: r.passed for r in verification.stationary_checks(Pipeline(pair, eps))}
    assert not verdicts["test_norm_nonnegative"]


def test_nan_isometry_value_fails_the_isometry_checks(planck_setup, monkeypatch):
    built = qsi.isometry_check
    monkeypatch.setattr(qsi, "isometry_check", lambda a, c, pair: (built(a, c, pair)[0], np.nan))
    _, pair, eps = planck_setup
    verdicts = {r.check: r.passed for r in verification.qsi_checks(Pipeline(pair, eps))}
    assert not verdicts["isometry_nonnegative"]
    assert not verdicts["isometry_gram_oracle"]


def test_nan_in_one_occupations_table_entry_fails_that_occupation_only(monkeypatch):
    from qnoise import mode_algebra
    built = mode_algebra.expectation
    calls = []

    def expectation(z1, z2):
        value = built(z1, z2)
        if not calls:
            value[3] = np.nan  # <b_dag b> at n = 2, the fourth occupation of the suite
        calls.append(value)
        return value

    monkeypatch.setattr(mode_algebra, "expectation", expectation)
    failed = [r.check for r in verification.mode_checks() if not r.passed]
    assert failed == ["thermal_table_n=2"]


def test_a_fault_in_a_cross_entry_of_the_mode_tables_fails_every_thermal_table(monkeypatch, capsys):
    # <b_dag b_out> off its closed form sqrt(n (n+1)) by 1e-9: qnoise mode
    # prints the faulted entry, and the suite, which reads the same tables,
    # fails the table of every occupation and no inversion.
    from qnoise import cli, mode_algebra
    built = mode_algebra.thermal_tables

    def faulted(noise, reverse):
        tables = built(noise, reverse)
        tables["correlations_dag_first"]["noise_dag_reverse"] += 1e-9
        return tables

    assert cli.main(["mode", "--n", "2"]) == 0
    clean = capsys.readouterr().out
    monkeypatch.setattr(mode_algebra, "thermal_tables", faulted)
    assert cli.main(["mode", "--n", "2"]) == 0
    printed = json.loads(capsys.readouterr().out)["correlations_dag_first"]["noise_dag_reverse"]
    assert printed == json.loads(clean)["correlations_dag_first"]["noise_dag_reverse"] + 1e-9
    failed = [r.check for r in verification.mode_checks() if not r.passed]
    assert failed == [f"thermal_table_n={n}" for n in ("0", "0.5", "1", "2", "10")]


@pytest.mark.parametrize("table, entry, check", [
    ("canonical", "creation_creation", "canonical_zeros"),
    ("canonical", "annihilation_creation", "canonical_pairing"),
    ("integrator", "noise_dag_reverse", "integrator_moments"),
    ("output", "output_reverse_dag", "integrator_moments"),
])
def test_a_fault_in_the_qsi_moment_tables_changes_qsi_table_and_fails_its_check(table, entry, check, tmp_path,
                                                                               monkeypatch):
    # One moment off by 1e-6 (its real part, which qsi_table.json prints):
    # qnoise qsi writes it, and the qsi suite, which reads the same tables,
    # fails the check of that table alone.
    built = qsi.moment_tables

    def faulted(*args):
        tables = built(*args)
        dict(zip(("integrator", "canonical", "output"), tables))[table][entry] += 1e-6
        return tables

    _assert_written_and_failed("qsi", "qsi_table.json", verification.qsi_checks, [check], _PLANCK, tmp_path,
                               monkeypatch, qsi, "moment_tables", faulted)


def test_a_fault_in_the_output_pair_moment_changes_qsi_table_and_fails_integrator_moments(tmp_path, monkeypatch):
    # D' evaluated in place of D: the output moments are taken over D' alone.
    built = qsi.OutputPair.moment

    def faulted(self, first, mask1, second, mask2):
        return built(self, first, mask2, second, mask2)

    _assert_written_and_failed("qsi", "qsi_table.json", verification.qsi_checks, ["integrator_moments"],
                               _PLANCK, tmp_path, monkeypatch, qsi.OutputPair, "moment", faulted)


_PLANCK = Path(__file__).resolve().parent.parent / "configs" / "planck.json"


def test_a_changed_default_cell_set_changes_qsi_table_and_the_cells_verify_checks(tmp_path, monkeypatch):
    # qsi's default D' narrowed to [-nu_max/2, nu_max/4]: qnoise qsi writes
    # moments over the new cells, and the qsi suite's cells are the same ones.
    from qnoise import cli
    built = qsi._default_bounds

    def faulted(grid):
        return built(grid)[0], (-grid.nu_max / 2, grid.nu_max / 4)

    assert cli.main(["qsi", "--config", str(_PLANCK), "--out", str(tmp_path / "clean")]) == 0
    monkeypatch.setattr(qsi, "_default_bounds", faulted)
    assert cli.main(["qsi", "--config", str(_PLANCK), "--out", str(tmp_path / "faulted")]) == 0
    clean, written = (json.loads((tmp_path / side / "qsi_table.json").read_text()) for side in ("clean", "faulted"))
    run = cli.load_config(str(_PLANCK))
    grid = cli.build_pair(run).grid
    assert written["delta"] == clean["delta"] == [0.0, grid.nu_max]
    assert written["delta_prime"] == [-grid.nu_max / 2, grid.nu_max / 4] != clean["delta_prime"]
    assert written["output_second_moments"] != clean["output_second_moments"]
    delta, prime, _, overlap = verification._GridTables(grid.n_points, grid.step, run.eps).intervals
    assert np.array_equal(delta, qsi.interval_mask(grid, *written["delta"]))
    assert np.array_equal(prime, qsi.interval_mask(grid, *written["delta_prime"]))
    assert np.array_equal(overlap, delta & prime)


_SPECTRA = pytest.mark.parametrize("spectrum, n", [(spectrum, n) for spectrum in ("planck", "mixed")
                                                   for n in (33, 1025)])


def _config(tmp_path, spectrum, n):
    """A config file of Planck (beta = h = 1) or the mixed spectrum on n points with nu_max = 8."""
    step = 16.0 / (n - 1)
    if spectrum == "planck":
        model = {"model": "planck", "beta": 1.0, "h": 1.0}
    else:
        model = {"model": "tabulated", "values": mixed_kappa(qn.make_grid(n, step)).tolist()}
    path = tmp_path / f"{spectrum}.json"
    path.write_text(json.dumps({**model, "n_points": n, "step": step}))
    return path


def _assert_written_and_failed(command, artifact, suite, checks, config, tmp_path, monkeypatch, *patch):
    """With ``monkeypatch.setattr(*patch)`` placed, ``qnoise command`` on the
    ``config`` file writes another ``artifact`` than without it, and ``suite``
    on the pipeline of that config fails exactly ``checks``."""
    from qnoise import cli
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "clean")]) == 0
    monkeypatch.setattr(*patch)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "faulted")]) == 0
    clean, written = ((tmp_path / side / artifact).read_bytes() for side in ("clean", "faulted"))
    assert written != clean
    run = cli.load_config(str(config))
    assert [r.check for r in suite(Pipeline(cli.build_pair(run), run.eps)) if not r.passed] == checks


@_SPECTRA
def test_an_estimate_off_in_the_decompose_builder_changes_decompose_report_and_fails_its_checks(spectrum, n, tmp_path,
                                                                                               monkeypatch):
    # The builder reads a thermal reverse part off by a gain of 1e-9, so its
    # estimate is off on theta: qnoise decompose writes the moved estimate and
    # residual, and the decomposition suite, which reads the same builder,
    # fails estimate_is_modular_filter and residual_support alone.
    built = decomposition.input_to_output

    def faulted(parts):
        return built(dataclasses.replace(parts, amp_rev_thermal=parts.amp_rev_thermal * (1.0 + 1e-9)))

    _assert_written_and_failed("decompose", "decompose_report.json", verification.decomposition_checks,
                               ["estimate_is_modular_filter", "residual_support"], _config(tmp_path, spectrum, n),
                               tmp_path, monkeypatch, decomposition, "input_to_output", faulted)


@_SPECTRA
def test_a_norm_off_in_the_decompose_builder_changes_decompose_report_and_fails_residual_norm(spectrum, n, tmp_path,
                                                                                            monkeypatch):
    built = decomposition.input_to_output

    def faulted(parts):
        estimate, residual, norm2, expected = built(parts)
        return estimate, residual, norm2 + 1e-9, expected

    _assert_written_and_failed("decompose", "decompose_report.json", verification.decomposition_checks,
                               ["residual_norm"], _config(tmp_path, spectrum, n), tmp_path, monkeypatch,
                               decomposition, "input_to_output", faulted)


@_SPECTRA
def test_output_amplitudes_off_in_the_pipeline_change_qsi_table_and_fail_output_table_and_synthesis_consistency(
        spectrum, n, tmp_path, monkeypatch):
    # Both amplitudes of the output pair off by a gain of 1e-9: qnoise qsi
    # writes the moved output moments, and the qsi suite, which reads the same
    # stage, fails output_table and synthesis_consistency alone (the recovery
    # is blind to a common gain, and integrator_moments reads the same pair).
    def faulted(pipe):
        gain = 1.0 + 1e-9
        return qsi.build_output_pair(pipe.canonical[0], pipe.pair.sigma * gain, pipe.pair.sigma_rev * gain)

    _assert_written_and_failed("qsi", "qsi_table.json", verification.qsi_checks,
                               ["output_table", "synthesis_consistency"], _config(tmp_path, spectrum, n), tmp_path,
                               monkeypatch, Pipeline, "output", property(faulted))


def test_a_flip_fault_fails_flip_relation_and_its_structural_twin_flip_involution(planck_setup):
    # flip_involution compares the same n pairs of numbers as flip_relation,
    # in reverse order: no fault fails one without the other.
    _, pair, eps = planck_setup
    kappa_rev = pair.kappa_rev.copy()
    kappa_rev[3] *= 1.0 + 1e-15
    faulted = dataclasses.replace(pair, kappa_rev=kappa_rev)
    for spectrum, passed in ((pair, True), (faulted, False)):
        checks = {r.check: r for r in verification.spectra_checks(Pipeline(spectrum, eps))}
        relation, involution = checks["flip_relation"], checks["flip_involution"]
        assert relation.passed == involution.passed == passed
        assert relation.residual == involution.residual


def test_a_fault_in_the_inverted_modes_fails_every_inversion(monkeypatch):
    from qnoise import mode_algebra
    built = mode_algebra.invert_pair

    def faulted(b, b_out, n):
        mode_a, mode_c = built(b, b_out, n)
        return mode_a, mode_c + 1e-13 * mode_algebra.A

    monkeypatch.setattr(mode_algebra, "invert_pair", faulted)
    failed = [r.check for r in verification.mode_checks() if not r.passed]
    assert failed == [f"inversion_n={n}" for n in ("0", "0.5", "1", "2", "10")]


def test_a_fault_in_the_relative_error_changes_synth_spectrum_and_fails_the_reproduce_checks(tmp_path, monkeypatch):
    # One point of the relative error off by 1e-6: qnoise synth writes it in
    # its rel_error column, and the synthesis suite, which reads the same
    # function, fails each reproduce check and nothing else.
    from qnoise import synthesis
    built = synthesis.relative_error

    def faulted(reproduced, target, on):
        rel = built(reproduced, target, on)
        rel[np.flatnonzero(on)[0]] += 1e-6
        return rel

    _assert_written_and_failed("synth", "synth_spectrum.csv", verification.synthesis_checks,
                               ["reproduce_kappa", "reproduce_kappa_rev", "reproduce_gamma"], _PLANCK, tmp_path,
                               monkeypatch, synthesis, "relative_error", faulted)


def test_run_all_rejects_an_eps_beside_a_pipeline(planck_setup):
    # A pipeline carries its own eps; a second one would be dropped silently.
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    with pytest.raises(ValueError, match="eps"):
        verification.run_all(pipe, eps=123.0)
    with pytest.raises(ValueError, match="eps"):
        verification.run_all(pipe, eps)
    assert verification.run_all(pipe) == verification.run_all(pair, eps)
