"""Which verify checks and tests stand for each claim of the paper.

The claims are those of PAPER.md's abstract:

(a) KMS noise, such as Planck's law, is a stationary noise, with modular
    function lambda = exp(beta h nu);
(b) its natural output process equals the noise in the infinite-temperature
    limit;
(c) at finite temperature, the output flips with the noise when time is
    reversed;
(d) there is a canonical Hilbert-space representation of the noise and the
    output, and their spectra decompose;
(e) quantum stochastic integration can be stated with correlation functions
    alone;
(f) the coloured noise and its time reverse are a linear, non-adapted
    filtering of the standard vacuum noise, uniquely defined by the canonical
    creation and annihilation operators on the spectrum of the pair.

``CLAIMS`` maps each claim to the ``verify`` checks (suite/check) and the
tests (module::Class::test, or module::test) that stand for it.  The table
is checked against the names ``run_all`` reports on Planck and on the mixed
tabulated spectrum, and against the test modules, so it cannot name a check
or a test that does not exist.  No ``verify`` check stands for claim (b): it
is a limit in beta, and a check sees one spectrum.  The property for it and
the flat-density tests stand for it.  The properties for (a), (c), (e) and
(f) run over the API's range: Planck with beta h nu_max from 1e-6 to 700
and, for (c), (e) and (f), tabulated spectra with exact zeros, at n up to
2**10 + 1.  The property for (d) runs on the same spectra at n up to 65,
against the dense oracles.
"""
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnoise as qn
from qnoise import verification
from qnoise.pipeline import Pipeline

from oracles import dense_symbol_matrix, mixed_kappa, model_views, plane_wave_matrix

#: The single-mode thermal tables, then their inversions, per occupation.
_THERMAL_TABLES = tuple(f"mode/{kind}_n={n}" for kind in ("thermal_table", "inversion")
                        for n in ("0", "0.5", "1", "2", "10"))

CLAIMS = {
    "a": {
        "checks": ("spectra/modular_reciprocal", "qsi/reverse_density_modular", "stationary/sequence_hermitian",
                   "stationary/eigenvalue_match", "stationary/dft_consistency", "stationary/gram_noise",
                   "stationary/gram_reverse", "stationary/covariances_commute", "stationary/test_norm_nonnegative",
                   *_THERMAL_TABLES[:5]),
        "tests": ("test_paper_claims::test_planck_is_thermal_on_the_whole_grid_with_the_boltzmann_modular_function",
                  "test_spectra::TestPlanckDensity::test_modular_function_is_boltzmann_weight",
                  "test_spectra::test_planck_is_thermal_or_rejected",
                  "test_spectra::TestPlanckDensity::test_too_cold_rejected_not_mixed",
                  "test_acceptance::test_criterion_1_single_mode_table",
                  "test_acceptance::test_criterion_2_gram_identities"),
    },
    "b": {
        "checks": (),
        "tests": ("test_paper_claims::test_planck_tends_to_its_time_reverse_at_infinite_temperature",
                  "test_spectra::TestClassify::test_flat_unit_is_white_standard_thermal",
                  "test_synthesis::TestSynthesize::test_white_output_is_standard_amplitude",
                  "test_decomposition::TestBestEstimate::test_white_estimate_has_zero_residual"),
    },
    "c": {
        "checks": ("spectra/flip_relation", "spectra/flip_involution", "spectra/cross_density_even",
                   "stationary/star_involution", "stationary/conjugation", "stationary/cross_real_even",
                   "stationary/cross_cov_symmetric", "decomposition/flip_exchange", "synthesis/kernel_time_reversal",
                   "synthesis/transmission_symmetric", "qsi/reflection_symmetry"),
        "tests": ("test_paper_claims::test_planck_output_measure_flips_to_its_reverse_measure",
                  "test_paper_claims::test_tabulated_output_measure_flips_to_its_reverse_measure",
                  "test_synthesis::TestTimeDomainFilter::test_time_reversal_of_output_kernels",
                  "test_decomposition::TestSplit::test_star_involution_swaps_splits",
                  "test_qsi::TestTimeDomainRepresentation::test_reversal_swaps_coefficient_roles"),
    },
    "d": {
        "checks": ("spectra/mask_partition", "stationary/gram_cross", "stationary/root_squares",
                   "stationary/geometric_mean", "stationary/cross_cov_imag", "stationary/cross_cov_psd",
                   "stationary/amplitude_gram", "stationary/amplitude_cross", "modular/spectrum_match",
                   "modular/conjugate_inverse", "modular/root_squares", "modular/kernel_modular_property",
                   "modular/kernel_convolution_unit", "decomposition/support_partition",
                   "decomposition/component_orthogonality", "decomposition/projector_algebra",
                   "decomposition/estimate_is_modular_filter", "decomposition/residual_support",
                   "decomposition/residual_norm", "decomposition/theta_kernel_modular",
                   "decomposition/theta_kernel_convolution", "qsi/canonical_zeros", "qsi/canonical_pairing",
                   "qsi/output_table", *_THERMAL_TABLES[5:]),
        "tests": ("test_acceptance::test_criterion_3_modular_structure",
                  "test_acceptance::test_criterion_4_decomposition",
                  "test_decomposition::TestSplit::test_mixed_supports_partition_exactly",
                  "test_qsi::TestCanonicalFromVacuum::test_all_other_ordered_products_vanish_exactly",
                  "test_paper_claims::test_planck_canonical_grams_are_the_output_covariances",
                  "test_paper_claims::test_tabulated_canonical_grams_are_the_output_covariances",
                  "test_paper_claims::test_canonical_grams_are_the_noise_covariances"),
    },
    "e": {
        "checks": ("qsi/integrator_moments", "qsi/disjoint_intervals_vanish", "qsi/isometry_nonnegative",
                   "qsi/isometry_gram_oracle", "qsi/parseval_bridge", "synthesis/correlation_reproduction"),
        "tests": ("test_paper_claims::test_planck_moments_are_integrals_of_their_correlation_densities",
                  "test_paper_claims::test_tabulated_moments_are_integrals_of_their_correlation_densities",
                  "test_acceptance::test_criterion_6_qsi_tables",
                  "test_qsi::TestIntegratorTable::test_planck_moment_matches_riemann_oracle",
                  "test_qsi::TestIsometryCheck::test_complex_coefficients_match_gram_oracle"),
    },
    "f": {
        "checks": ("synthesis/standard_law_thermal", "synthesis/standard_law_vacuum", "synthesis/standard_cross_unit",
                   "synthesis/standard_cross_off_support", "synthesis/time_kernel_real", "synthesis/reproduce_kappa",
                   "synthesis/reproduce_kappa_rev", "synthesis/reproduce_gamma", "synthesis/amplitude_reproduction",
                   "synthesis/time_convolution", "qsi/vacuum_assembly", "qsi/canonical_roundtrip",
                   "qsi/synthesis_consistency"),
        "tests": ("test_paper_claims::test_planck_is_a_filtering_of_the_canonical_vacuum",
                  "test_paper_claims::test_tabulated_is_a_filtering_of_the_canonical_vacuum",
                  "test_acceptance::test_criterion_5_synthesis_theorem",
                  "test_synthesis::TestBuildStandardPair::test_standard_laws",
                  "test_qsi::TestRecoverCanonical::test_planck_roundtrip_exact_off_zero",
                  "test_qsi::TestRecoverCanonical::test_equal_amplitude_point_raises_loudly"),
    },
}

#: Checks of the grid alone, which no claim needs: the flip is exact by construction.
STRUCTURAL = ("spectra/grid_flip_symmetry",)


def _names(pair):
    return {f"{r.suite}/{r.check}": r.passed for r in verification.run_all(pair)}


@pytest.fixture(scope="module")
def reported():
    """The checks run_all reports, with their pass flags, on Planck (n = 65) and on the mixed spectrum (n = 33)."""
    planck = qn.planck_density(1.0, 1.0, qn.make_grid(65, 0.25))
    grid = qn.make_grid(33, 0.25)
    return {"planck": _names(planck), "mixed": _names(qn.tabulated_density(mixed_kappa(grid), grid))}


def test_every_check_stands_for_a_claim_and_every_named_check_exists(reported):
    named = [check for claim in CLAIMS.values() for check in claim["checks"]]
    assert len(named) == len(set(named)), "a check is listed under two claims"
    every = reported["planck"].keys() | reported["mixed"].keys()
    assert set(named) | set(STRUCTURAL) == every


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_each_claims_checks_pass_where_they_run(claim, reported):
    for spectrum, passed in reported.items():
        failed = [check for check in CLAIMS[claim]["checks"] if passed.get(check) is False]
        assert not failed, (spectrum, failed)


@pytest.mark.parametrize("claim", sorted(CLAIMS))
def test_each_claim_names_tests_that_exist(claim):
    assert CLAIMS[claim]["tests"], claim
    for node in CLAIMS[claim]["tests"]:
        module, *path = node.split("::")
        target = importlib.import_module(module)
        for name in path:
            target = getattr(target, name)
        assert callable(target), node


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-100.0, 0.0))
def test_planck_tends_to_its_time_reverse_at_infinite_temperature(half, nu_max, h, log_cold):
    """Claim (b): lambda = exp(beta h nu) -> 1 as beta -> 0, so kappa_rev -> kappa:
    max |lambda - 1| is at most expm1(beta h nu_max) plus a few ulp."""
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-100 to 1
    pair = qn.planck_density(cold / (h * grid.nu_max), h, grid)
    lam = pair.lambda_theta
    assert pair.theta.all()
    bound = math.expm1(cold)
    assert float(np.abs(lam - 1.0).max()) <= bound + 4 * np.finfo(float).eps * (1.0 + bound)
    gap = np.abs(pair.kappa_rev - pair.kappa) / pair.kappa
    assert float(gap.max()) <= bound + 4 * np.finfo(float).eps * (1.0 + bound)


def _output_flips_to_its_reverse(pair):
    """The frequency flip of the output measure of build_output_pair is its
    reverse measure, bit for bit, over the canonical pair that qnoise qsi reads."""
    canonical, _ = Pipeline(pair, 1.0 / (pair.grid.n_points * pair.grid.step)).canonical
    output_pair = qn.build_output_pair(canonical, pair.sigma, pair.sigma_rev)
    output, reverse = output_pair.output, output_pair.reverse
    assert output.minus[::-1].tobytes() == reverse.minus.tobytes()
    assert output.plus[::-1].tobytes() == reverse.plus.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-6.0, math.log10(700.0)))
def test_planck_output_measure_flips_to_its_reverse_measure(half, nu_max, h, log_cold):
    """Claim (c) at finite temperature: reversing time, the flip nu -> -nu,
    takes the output measure to the reverse one."""
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-6 to 700
    _output_flips_to_its_reverse(qn.planck_density(cold / (h * grid.nu_max), h, grid))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_tabulated_output_measure_flips_to_its_reverse_measure(half, step, seed, zeros):
    """Claim (c) on tabulated spectra with exact zeros, vacuum and mixed ones among them."""
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-40.0, 5.0, n))
    values[rng.random(n) < zeros] = 0.0
    _output_flips_to_its_reverse(qn.tabulated_density(values, qn.make_grid(n, step)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 512), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-6.0, math.log10(700.0)))
def test_planck_is_thermal_on_the_whole_grid_with_the_boltzmann_modular_function(half, nu_max, h, log_cold):
    """Claim (a): Planck's law is a thermal (KMS) noise on the whole grid, never
    mixed, with lambda = exp(beta h nu) to 4 ulp, its argument rounded as
    planck_density rounds it."""
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-6 to 700
    beta = cold / (h * grid.nu_max)
    pair = qn.planck_density(beta, h, grid)
    labels = qn.classify(pair)
    assert qn.THERMAL in labels and qn.MIXED not in labels
    assert pair.theta.all()
    boltzmann = np.exp(beta * h * grid.points)
    assert float((np.abs(pair.lambda_theta - boltzmann) / boltzmann).max()) <= 4 * np.finfo(float).eps


def _canonical_gram_defects(pair) -> dict[str, float]:
    """Claim (d) against the dense oracles: the largest entry of step * A†B - C,
    relative to max kappa, over the Gram matrices of the canonical
    representation and the covariances C they stand for.  The vectors A, B of
    the output and the reverse output at the times t_j are the columns of
    their annihilator amplitudes over the canonical pair times the plane waves
    u_j.  C is the output's covariance, assembled from the output pair's
    per-cell densities, or the noise's K, G or K_rev."""
    grid = pair.grid
    eps = 1.0 / (grid.n_points * grid.step)
    pipe = Pipeline(pair, eps)
    output, waves, views = pipe.output, plane_wave_matrix(grid, eps), model_views(pipe.model)
    vectors = {"output": output.output.minus[:, None] * waves, "reverse": output.reverse.minus[:, None] * waves}
    noise = {("output", "output"): views["K"], ("output", "reverse"): views["G"],
             ("reverse", "output"): views["G"], ("reverse", "reverse"): views["K_rev"]}
    norm = max(float(pair.kappa.max(initial=0.0)), 1e-300)
    defects = {"output": 0.0, "noise": 0.0}
    for (first, second), covariance in noise.items():
        gram = grid.step * vectors[first].conj().T @ vectors[second]
        for name, expected in (("output", dense_symbol_matrix(output.density(first, second), grid, eps)),
                               ("noise", covariance)):
            defects[name] = max(defects[name], float(np.abs(gram - expected).max()) / norm)
    return defects


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 32), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-6.0, math.log10(700.0)))
def test_planck_canonical_grams_are_the_output_covariances(half, nu_max, h, log_cold):
    """Claim (d): the Gram matrices of the canonical representation are the
    output's covariances, to 1e-10 of max kappa."""
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-6 to 700
    assert _canonical_gram_defects(qn.planck_density(cold / (h * grid.nu_max), h, grid))["output"] <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 32), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_tabulated_canonical_grams_are_the_output_covariances(half, step, seed, zeros):
    """Claim (d) on tabulated spectra with exact zeros, vacuum and mixed ones among them."""
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-40.0, 5.0, n))
    values[rng.random(n) < zeros] = 0.0
    assert _canonical_gram_defects(qn.tabulated_density(values, qn.make_grid(n, step)))["output"] <= 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the canonical support leaves out nu = 0, "
                                       "where the noise has kappa(0) > 0")
def test_canonical_grams_are_the_noise_covariances():
    """Claim (d), the noise's side: the Gram matrices are K, G and K_rev, to
    1e-10 of max kappa, at the corners of the range above.  It fails wherever
    kappa(0) > 0 and the pair is not a standard vacuum: the canonical support
    is then the half-line indicator's, which leaves out the cell nu = 0, so
    each Gram entry misses step * eps * kappa(0).  A plain loop, not a
    hypothesis property: hypothesis reports a failure by importing libcst,
    which warns on import."""
    for n in (3, 5, 9, 17, 33, 65):
        grid = qn.make_grid(n, 16.0 / (n - 1))
        rng = np.random.default_rng(n)
        values = np.exp(rng.uniform(-40.0, 5.0, n))
        spectra = [qn.planck_density(cold / grid.nu_max, 1.0, grid) for cold in (1e-6, 1.0, 700.0)]
        for zeros in (0.0, 0.2, 1.0):
            spectra.append(qn.tabulated_density(np.where(rng.random(n) < zeros, 0.0, values), grid))
        for pair in spectra:
            assert _canonical_gram_defects(pair)["noise"] <= 1e-10


def _moments_are_integrals_of_their_densities(pair, seed):
    """Claim (e): on random unions of cells D and D', every integrator and output
    moment of moment_tables is step times the sum of its density over D & D'
    (to the rounding of a sum of that many terms), and the ordered canonical
    table is the measure of D & D' on the support for annihilation then
    creation and exactly 0 otherwise."""
    grid = pair.grid
    rng = np.random.default_rng(seed)
    delta, delta_prime = rng.random((2, grid.n_points)) < rng.random((2, 1))
    pipe = Pipeline(pair, 1.0 / (grid.n_points * grid.step))
    output = qn.build_output_pair(pipe.canonical[0], pair.sigma, pair.sigma_rev)
    integrator, ordered, outputs = qn.moment_tables(pair, output, delta, delta_prime)
    overlap, step = delta & delta_prime, grid.step
    table = qn.integrator_table(pair)
    noise, out = ("noise", "reverse"), ("output", "reverse")
    cases = [(integrator[f"{a}_dag_{b}"], table.density(a, b)) for a in noise for b in noise]
    cases += [(outputs[f"{a}_{b}_dag"], output.density(a, b)) for a in out for b in out]
    rounding = (np.count_nonzero(overlap) + 1) * np.finfo(float).eps
    for moment, density in cases:
        exact = step * math.fsum(density[overlap])
        assert abs(moment - exact) <= rounding * step * math.fsum(np.abs(density[overlap]))
    assert ordered["annihilation_creation"] == step * np.count_nonzero(overlap & output.canonical.support)
    assert [ordered[name] for name in ("annihilation_annihilation", "creation_creation", "creation_annihilation")] \
        == [0, 0, 0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-6.0, math.log10(700.0)),
       st.integers(0, 2**32 - 1))
def test_planck_moments_are_integrals_of_their_correlation_densities(half, nu_max, h, log_cold, seed):
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-6 to 700
    _moments_are_integrals_of_their_densities(qn.planck_density(cold / (h * grid.nu_max), h, grid), seed)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_tabulated_moments_are_integrals_of_their_correlation_densities(half, step, seed, zeros):
    """Claim (e) on tabulated spectra with exact zeros, vacuum and mixed ones among them."""
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-40.0, 5.0, n))
    values[rng.random(n) < zeros] = 0.0
    _moments_are_integrals_of_their_densities(qn.tabulated_density(values, qn.make_grid(n, step)), seed)


def _pair_is_a_filtering_of_the_canonical_vacuum(pair):
    """Claim (f): the transmission function over the standard pair reproduces
    kappa, kappa_rev and gamma to 1e-10; the pipeline's canonical pair is the
    closed form its support fixes, creation (0, 1) and annihilation (1, 0) on
    it and 0 off it, bit for bit; and recover_canonical returns that pair from
    the output pair wherever sigma != sigma_rev, bit for bit."""
    filt = qn.transmission_function(pair)
    result = qn.synthesize(filt, filt.standard)
    for reproduced, target, on in ((result.kappa_out, pair.kappa, pair.kappa > 0),
                                   (result.out_amp_rev * result.out_amp_rev, pair.kappa_rev, pair.kappa_rev > 0),
                                   (result.out_amp * result.out_amp_rev, pair.gamma, pair.theta)):
        assert float(qn.relative_error(reproduced, target, on).max(initial=0.0)) <= 1e-10

    pipe = Pipeline(pair, 1.0 / (pair.grid.n_points * pair.grid.step))
    canonical, _ = pipe.canonical
    vacuum = pipe.vacuum_pair
    support = vacuum.n_plus | vacuum.n_minus
    assert np.array_equal(canonical.support, support)
    ones, zeros = support.astype(float), np.zeros(support.size)
    closed_form = {("creation", "minus"): zeros, ("creation", "plus"): ones,
                   ("annihilation", "minus"): ones, ("annihilation", "plus"): zeros}
    for (operator, part), expected in closed_form.items():
        assert getattr(getattr(canonical, operator), part).tobytes() == expected.tobytes(), (operator, part)

    recoverable = support & (pair.sigma != pair.sigma_rev)
    recovered = qn.recover_canonical(pipe.output, where=pair.sigma != pair.sigma_rev)
    assert np.array_equal(recovered.support, recoverable)
    for (operator, part), expected in closed_form.items():
        got = getattr(getattr(recovered, operator), part)
        assert got[recoverable].tobytes() == expected[recoverable].tobytes(), (operator, part)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-6.0, math.log10(700.0)))
def test_planck_is_a_filtering_of_the_canonical_vacuum(half, nu_max, h, log_cold):
    grid = qn.make_grid(2 * half + 1, nu_max / half)
    cold = 10.0 ** log_cold  # beta h nu_max, from 1e-6 to 700
    _pair_is_a_filtering_of_the_canonical_vacuum(qn.planck_density(cold / (h * grid.nu_max), h, grid))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 512), st.floats(0.01, 10.0), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_tabulated_is_a_filtering_of_the_canonical_vacuum(half, step, seed, zeros):
    """Claim (f) on tabulated spectra with exact zeros, vacuum and mixed ones among them."""
    n = 2 * half + 1
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(-40.0, 5.0, n))
    values[rng.random(n) < zeros] = 0.0
    _pair_is_a_filtering_of_the_canonical_vacuum(qn.tabulated_density(values, qn.make_grid(n, step)))
