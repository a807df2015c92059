import dataclasses
import tracemalloc

import numpy as np
import pytest

import qnoise as qn
from qnoise import qsi, stationary, verification
from qnoise.pipeline import Pipeline

from oracles import (
    circulant_defect,
    dense_amplitude_residuals,
    dense_elementwise_residuals,
    dense_product_residuals,
    direct_dft,
    filter_views,
    gather_circulant,
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
    for sign in (-1, 1):
        expected = direct_dft(weights, sign)
        error = np.abs(verification._dft(weights, sign) - expected).max()
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


def _clear_grid_tables(monkeypatch):
    verification._chirp.cache_clear()
    monkeypatch.setattr(verification, "_tables", None)


def test_run_all_stacks_its_transforms_and_shifts_by_slices(monkeypatch):
    # Each round of the suites takes its transforms of one kind as one call
    # on a stack of rows (108 FFT calls unstacked, 30 with each suite
    # stacking its own), and no transform centres by np.roll.  The chain
    # takes 4 calls, modular_kernels_theta, coefficient_norm and
    # reflection_symmetry_check one each, the rounds 7 and qsi's bridge
    # spectrum 1.  The chirp-z DFTs' own FFTs are counted too.  A second call
    # on the same grid reads the grid tables of the first: the chirp's FFT,
    # the kernels of qsi's isometry coefficients and the chirp-z DFT of their columns.
    _clear_grid_tables(monkeypatch)
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


def test_run_all_leaves_no_chirp_tables_behind(monkeypatch):
    # Past n = 16,385 the chirp kernel outgrows one _DFT_BLOCK, and the grid
    # tables take about 200 bytes per grid point (200 MB at n = 2**20 + 1):
    # run_all drops them and the model's spectra on return, and when a suite raises.
    n = 16387
    pair = qn.planck_density(1.0, 1.0, qn.make_grid(n, 16.0 / (n - 1)))

    def held_nothing():
        return (verification._chirp.cache_info().currsize == 0 and verification._tables is None
                and verification._model_spectra is None)

    verification.run_all(pair)
    assert held_nothing()
    pipe = Pipeline(pair, 1.0 / (n * pair.grid.step))

    def failing(pair):
        # qsi_checks runs last: the earlier suites filled the chirp and left the model's spectra
        assert verification._chirp.cache_info().currsize == 1 and verification._tables is None
        assert list(verification._model_spectra) == [pipe.model]
        raise RuntimeError("suite failed")

    monkeypatch.setattr(qsi, "integrator_table", failing)
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
        _clear_grid_tables(monkeypatch)
        cold.append(bits(pair, eps))
    _clear_grid_tables(monkeypatch)
    assert [bits(pair, eps) for pair, eps in runs] == cold
    assert cold[5] != cold[6]  # eps reaches the residuals


def test_isometry_oracle_reads_the_spectra_of_stationary_checks(planck_setup):
    # In run_all, qsi's Gram oracle reads the DFTs of the columns of K, K_rev
    # and G that stationary_checks took; alone, it takes them itself.
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    alone = {r.check: r.residual for r in verification.qsi_checks(pipe)}
    shared = {r.check: r.residual for r in verification.run_all(pipe) if r.suite == "qsi"}
    assert shared == alone
    assert verification._model_spectra is None


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
