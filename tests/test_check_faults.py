"""Which committed tests inject a fault that fails each verify check.

``FAULTS`` maps every check ``run_all`` reports, on Planck (73 checks) and on
the mixed tabulated spectrum (69), to the tests (module::test) whose injected
fault fails it; every check has at least one.  An input on which a check
fails because float64 cannot resolve it (high-dynamic-range Planck, an
underflowed cross density) is not an injected fault and is not listed.
The table is checked against the names ``run_all`` reports and against the
test modules: each named test exists and names the check it fails, so the
table cannot drift from either.

The faults of this module are placed on a fresh ``Pipeline`` by seeding a
stage with a faulted copy (``dataclasses.replace``) or by monkeypatching a
builder.  Each fails its check on Planck and on the mixed spectrum, wherever
the check runs, at n = 33 and n = 1025 (the ``modular`` suite runs on Planck
only), and the clean pipeline passes the check first.  The faults in the
builders that ``qnoise decompose`` and ``qnoise qsi`` write
(``test_verification``) also change the artifact.

``TWINS`` names the checks that compare the same numbers as another check,
so no fault fails one without the other: ``flip_involution`` reads
|kappa_rev[::-1] - kappa|, the n differences of ``flip_relation`` in
reverse order.  Two checks compare two float routes of one symbol that agree to
rounding on any finite input, so only a non-finite value fails them:
``stationary/covariances_commute`` (K K_rev - K_rev K is the difference of
two products of the same two spectra, which differ by rounding only) and
``modular/root_squares`` (the root it squares is taken of the symbol it
compares with).
"""
import dataclasses
import importlib
import inspect

import numpy as np
import pytest

import qnoise as qn
from qnoise import decomposition, qsi, verification
from qnoise.pipeline import Pipeline

from oracles import mixed_kappa

_SPECTRUM = ("test_verification::test_transposed_circulants_fail_the_spectrum_checks",)
_K_NAN = ("test_verification::test_nan_anywhere_in_a_dense_copy_gives_a_nan_defect",)
_K_REV = ("test_verification::test_entry_of_k_rev_off_the_circulant_pattern_fails_at_any_scale",)
_G_NAN = ("test_verification::test_nan_in_the_column_of_a_circulant_view_fails_the_cross_checks",)
_DIAGONALS = ("test_verification::test_dense_entry_off_the_diagonals_fails",)
_FLIP = ("test_verification::test_a_flip_fault_fails_flip_relation_and_its_structural_twin_flip_involution",)
_QSI_TABLES = ("test_verification::test_a_fault_in_the_qsi_moment_tables_changes_qsi_table_and_fails_its_check",)
_ISOMETRY = ("test_verification::test_nan_isometry_value_fails_the_isometry_checks",)
_MODE_TABLES = ("test_verification::test_a_fault_in_a_cross_entry_of_the_mode_tables_fails_every_thermal_table",)
_OCCUPATIONS = ("0", "0.5", "1", "2", "10")
_RELATIVE_ERROR = (
    "test_verification::test_a_fault_in_the_relative_error_changes_synth_spectrum_and_fails_the_reproduce_checks",)
_ESTIMATE = (
    "test_verification::test_an_estimate_off_in_the_decompose_builder_changes_decompose_report_and_fails_its_checks",)
_NORM = ("test_verification::test_a_norm_off_in_the_decompose_builder_changes_decompose_report_and_fails"
         "_residual_norm",)
_OUTPUT = ("test_verification::test_output_amplitudes_off_in_the_pipeline_change_qsi_table_and_fail_output_table"
           "_and_synthesis_consistency",)


def _here(*names: str) -> tuple[str, ...]:
    """Tests of this module, as the table names them."""
    return tuple(f"test_check_faults::{name}" for name in names)


_REVERSE_AMPLITUDE = _here("test_a_gain_in_the_reverse_output_amplitude_fails_reproduce_kappa_rev"
                           "_and_kernel_time_reversal")
_AMPLITUDE = _here("test_a_gain_in_the_output_amplitude_fails_reproduce_gamma_and_amplitude_reproduction")
_THERMAL_PART = _here("test_a_gain_in_the_thermal_part_fails_support_partition_and_flip_exchange")
_THETA_KERNELS = _here("test_a_gain_in_the_theta_kernels_fails_theta_kernel_modular_and_theta_kernel_convolution")
_DROPPED_THETA_CELL = _here("test_a_theta_cell_dropped_from_every_mask_fails_mask_partition_and_projector_algebra")
_MODULAR_KERNELS = _here("test_a_gain_in_the_modular_kernels_fails_kernel_modular_property"
                         "_and_kernel_convolution_unit")
_REPRODUCED = _here("test_a_gain_in_the_reproduced_density_fails_reproduce_kappa_correlation_reproduction"
                    "_and_synthesis_consistency")

FAULTS = {
    "spectra/grid_flip_symmetry": _here("test_grid_points_at_the_cell_edges_fail_grid_flip_symmetry"),
    "spectra/flip_relation": _FLIP,
    "spectra/flip_involution": _FLIP,
    "spectra/mask_partition": _DROPPED_THETA_CELL,
    "spectra/modular_reciprocal": _here("test_a_modular_function_off_at_one_cell_fails_modular_reciprocal"),
    "spectra/cross_density_even": _here("test_a_cross_density_of_kappa_alone_fails_cross_density_even"),
    "stationary/sequence_hermitian": _here("test_a_correlation_sequence_shifted_by_one_lag_fails_sequence_hermitian"),
    "stationary/cross_real_even": _here("test_a_cross_sequence_of_the_noise_density_fails_cross_real_even"),
    "stationary/eigenvalue_match": _here("test_a_model_symbol_in_flipped_frequency_order_fails_eigenvalue_match"),
    "stationary/dft_consistency": _SPECTRUM + _K_NAN + (
        "test_verification::test_entry_off_the_circulant_pattern_fails_dft_consistency",),
    "stationary/gram_noise": _K_NAN,
    "stationary/gram_reverse": _K_REV,
    "stationary/gram_cross": _G_NAN,
    "stationary/conjugation": _DIAGONALS,
    "stationary/root_squares": _K_NAN,
    "stationary/cross_cov_imag": _DIAGONALS + _G_NAN,
    "stationary/cross_cov_symmetric": _DIAGONALS + _G_NAN,
    "stationary/cross_cov_psd": _G_NAN,
    "stationary/geometric_mean": _K_REV,
    "stationary/covariances_commute": _here("test_a_nan_in_the_column_of_k_fails_covariances_commute"),
    "stationary/star_involution": ("test_verification::test_reverse_amplitude_off_the_star_involution_fails",),
    "stationary/amplitude_gram": _K_NAN + (
        "test_verification::test_first_column_of_k_off_the_amplitudes_fails_amplitude_gram",),
    "stationary/amplitude_cross": ("test_verification::test_first_column_of_g_off_the_amplitudes_fails_amplitude_cross",),
    "stationary/test_norm_nonnegative": ("test_verification::test_nan_coefficient_norm_fails_test_norm_nonnegative",),
    "modular/spectrum_match": _SPECTRUM,
    "modular/conjugate_inverse": _here("test_a_gain_in_the_modular_symbol_fails_conjugate_inverse"),
    "modular/kernel_modular_property": _MODULAR_KERNELS,
    "modular/kernel_convolution_unit": _MODULAR_KERNELS,
    "modular/root_squares": _here("test_a_nan_at_nu_0_in_the_modular_symbol_fails_root_squares"),
    "decomposition/support_partition": _THERMAL_PART,
    "decomposition/component_orthogonality": _here(
        "test_a_vacuum_part_over_the_whole_amplitude_fails_component_orthogonality"),
    "decomposition/projector_algebra": _DROPPED_THETA_CELL + _here(
        "test_n_plus_overlapping_theta_fails_projector_algebra",
        "test_a_dropped_pair_added_to_theta_fails_projector_algebra_alone"),
    "decomposition/estimate_is_modular_filter": _ESTIMATE,
    "decomposition/residual_support": _ESTIMATE,
    "decomposition/residual_norm": _NORM,
    "decomposition/flip_exchange": _THERMAL_PART,
    "decomposition/theta_kernel_modular": _THETA_KERNELS,
    "decomposition/theta_kernel_convolution": _THETA_KERNELS,
    "synthesis/standard_law_thermal": _here(
        "test_a_gain_in_the_standard_density_on_theta_fails_standard_law_thermal"),
    "synthesis/standard_law_vacuum": _here(
        "test_a_gain_in_the_standard_density_off_theta_fails_standard_law_vacuum"),
    "synthesis/standard_cross_unit": _here(
        "test_a_gain_in_the_standard_cross_density_fails_standard_cross_unit"),
    "synthesis/standard_cross_off_support": _here(
        "test_a_theta_cell_lost_after_the_standard_pair_fails_standard_cross_off_support"),
    "synthesis/transmission_symmetric": _here(
        "test_one_cell_of_the_transmission_function_off_fails_transmission_symmetric"),
    "synthesis/time_kernel_real": _here(
        "test_an_imaginary_part_in_the_time_kernel_fails_time_kernel_real"),
    "synthesis/reproduce_kappa": _RELATIVE_ERROR + _REPRODUCED + (
        "test_verification::test_nan_at_a_zero_target_cell_fails_reproduce_kappa",),
    "synthesis/reproduce_kappa_rev": _RELATIVE_ERROR + _REVERSE_AMPLITUDE,
    "synthesis/reproduce_gamma": _RELATIVE_ERROR + _AMPLITUDE,
    "synthesis/amplitude_reproduction": _AMPLITUDE,
    "synthesis/time_convolution": _here(
        "test_a_gain_in_the_time_kernel_fails_time_convolution"),
    "synthesis/kernel_time_reversal": _REVERSE_AMPLITUDE,
    "synthesis/correlation_reproduction": _REPRODUCED,
    "qsi/integrator_moments": _QSI_TABLES + (
        "test_verification::test_a_fault_in_the_output_pair_moment_changes_qsi_table_and_fails_integrator_moments",),
    "qsi/reverse_density_modular": _here(
        "test_a_gain_in_the_modular_function_fails_reverse_density_modular"),
    "qsi/disjoint_intervals_vanish": _here(
        "test_moments_over_minus_d_prime_fail_disjoint_intervals_vanish"),
    "qsi/canonical_zeros": _QSI_TABLES,
    "qsi/canonical_pairing": _QSI_TABLES,
    "qsi/vacuum_assembly": _here(
        "test_swapped_splice_measures_fail_vacuum_assembly"),
    "qsi/output_table": _OUTPUT + _here(
        "test_an_output_density_of_the_creator_amplitude_fails_output_table"),
    "qsi/canonical_roundtrip": _here(
        "test_swapped_recovered_rows_fail_canonical_roundtrip"),
    "qsi/isometry_nonnegative": _ISOMETRY,
    "qsi/isometry_gram_oracle": _ISOMETRY,
    "qsi/reflection_symmetry": (
        "test_verification::test_asymmetric_cross_kernel_fails_reflection_symmetry_at_any_scale",),
    "qsi/parseval_bridge": _here(
        "test_a_flipped_spectrum_fails_parseval_bridge"),
    "qsi/synthesis_consistency": _REPRODUCED + _OUTPUT,
    **{f"mode/thermal_table_n={n}": _MODE_TABLES for n in _OCCUPATIONS},
    "mode/thermal_table_n=2": _MODE_TABLES + (
        "test_verification::test_nan_in_one_occupations_table_entry_fails_that_occupation_only",),
    **{f"mode/inversion_n={n}": ("test_verification::test_a_fault_in_the_inverted_modes_fails_every_inversion",)
       for n in _OCCUPATIONS},
}

#: Checks that compare the same numbers as another check, in another order.
TWINS = {"spectra/flip_involution": "spectra/flip_relation"}


@pytest.fixture(scope="module")
def reported():
    """The check names run_all reports on Planck (n = 65) and on the mixed spectrum (n = 33)."""
    planck = qn.planck_density(1.0, 1.0, qn.make_grid(65, 0.25))
    grid = qn.make_grid(33, 0.25)
    mixed = qn.tabulated_density(mixed_kappa(grid), grid)
    return [[f"{r.suite}/{r.check}" for r in verification.run_all(pair)] for pair in (planck, mixed)]


def test_the_table_names_every_check_run_all_reports(reported):
    planck, mixed = reported
    assert (len(planck), len(mixed)) == (73, 69)
    assert set(FAULTS) == set(planck) | set(mixed)
    assert [check for check, tests in FAULTS.items() if not tests] == []
    for check, twin in TWINS.items():
        assert FAULTS[check] == FAULTS[twin], "a fault fails one twin without the other"


@pytest.mark.parametrize("check", sorted(FAULTS))
def test_each_named_test_exists_and_names_its_check(check):
    # the check's name without its occupation, as a parametrized test spells it
    stem = check.split("/")[1].split("_n=")[0]
    for node in FAULTS[check]:
        module, name = node.split("::")
        target = getattr(importlib.import_module(module), name)
        assert callable(target), node
        assert stem in inspect.getsource(target), (check, node)


_SPECTRA = [(spectrum, n) for spectrum in ("planck", "mixed") for n in (33, 1025)]
_EVERYWHERE = pytest.mark.parametrize("spectrum, n", _SPECTRA)
#: Planck's thermal support is the whole grid: a check of the points off it runs on the mixed spectrum only.
_MIXED = pytest.mark.parametrize("spectrum, n", [case for case in _SPECTRA if case[0] == "mixed"])
#: The modular suite runs on invertible models only: on Planck, not on the mixed spectrum.
_PLANCK = pytest.mark.parametrize("spectrum, n", [case for case in _SPECTRA if case[0] == "planck"])
_SUITES = {"spectra": verification.spectra_checks, "stationary": verification.stationary_checks,
           "modular": verification.modular_checks, "decomposition": verification.decomposition_checks,
           "synthesis": verification.synthesis_checks, "qsi": verification.qsi_checks}


def _pipeline(spectrum: str, n: int) -> Pipeline:
    """Planck (beta = h = 1) or the mixed spectrum on n points with nu_max = 8."""
    grid = qn.make_grid(n, 16.0 / (n - 1))
    pair = qn.planck_density(1.0, 1.0, grid) if spectrum == "planck" else qn.tabulated_density(mixed_kappa(grid), grid)
    return Pipeline(pair, 1.0 / (n * grid.step))


def _with(pipe: Pipeline, pair=None, **stages) -> Pipeline:
    """A new pipeline of ``pair`` (``pipe``'s by default) with these stages seeded."""
    faulted = Pipeline(pipe.pair if pair is None else pair, pipe.eps)
    faulted.__dict__.update(stages)
    return faulted


def _passes(pipe: Pipeline, *checks: str) -> bool:
    """Whether every one of these suite/check names passes; each must run."""
    verdicts = {f"{r.suite}/{r.check}": r.passed
                for suite in {check.split("/")[0] for check in checks} for r in _SUITES[suite](pipe)}
    return all(verdicts[check] for check in checks)


def _fails_each(pipe: Pipeline, *checks: str) -> bool:
    """Whether every one of these suite/check names fails; each must run."""
    return not any(_passes(pipe, check) for check in checks)


def _gain(values: np.ndarray, cells=Ellipsis) -> np.ndarray:
    """A copy of ``values`` with a gain error of 1e-6 on ``cells`` (every cell by default)."""
    out = np.array(values)
    out[cells] *= 1.0 + 1e-6
    return out


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


@_EVERYWHERE
def test_a_gain_in_the_thermal_part_fails_support_partition_and_flip_exchange(spectrum, n):
    # One thermal cell of the noise amplitude off: the parts no longer sum to
    # the amplitude, and no longer flip to the reverse thermal part.
    pipe = _pipeline(spectrum, n)
    parts = pipe.parts
    checks = ("decomposition/support_partition", "decomposition/flip_exchange")
    assert _passes(pipe, *checks)
    faulted = dataclasses.replace(parts, amp_thermal=_gain(parts.amp_thermal, _first(pipe.pair.theta)))
    assert _fails_each(_with(pipe, parts=faulted), *checks)


@_EVERYWHERE
def test_a_vacuum_part_over_the_whole_amplitude_fails_component_orthogonality(spectrum, n):
    # The vacuum projector keeps the thermal support too.
    pipe = _pipeline(spectrum, n)
    parts = pipe.parts
    assert _passes(pipe, "decomposition/component_orthogonality")
    faulted = _with(pipe, parts=dataclasses.replace(parts, amp_vac=parts.amp))
    assert _fails_each(faulted, "decomposition/component_orthogonality")


@_EVERYWHERE
def test_n_plus_overlapping_theta_fails_projector_algebra(spectrum, n):
    # n_plus taken as kappa_rev > 0, which keeps the thermal support too:
    # theta is no longer the retained points off n_plus and n_minus.
    pipe = _pipeline(spectrum, n)
    pair = pipe.pair
    assert _passes(pipe, "decomposition/projector_algebra")
    faulted = _with(pipe, dataclasses.replace(pair, n_plus=pair.kappa_rev > 0))
    assert _fails_each(faulted, "decomposition/projector_algebra")


@_EVERYWHERE
def test_a_gain_in_the_theta_kernels_fails_theta_kernel_modular_and_theta_kernel_convolution(spectrum, n,
                                                                                            monkeypatch):
    # The lambda^(1/2) kernel of the thermal support off by a gain: it is no
    # longer the conjugate of the lambda^(-1/2) kernel, and the two no longer
    # convolve to the kernel of the theta indicator.
    built = decomposition.modular_kernels_theta

    def faulted(pair, eps):
        kernels = built(pair, eps)
        return dataclasses.replace(kernels, kernel_half=_gain(kernels.kernel_half))

    checks = ("decomposition/theta_kernel_modular", "decomposition/theta_kernel_convolution")
    assert _passes(_pipeline(spectrum, n), *checks)
    monkeypatch.setattr(decomposition, "modular_kernels_theta", faulted)
    assert _fails_each(_pipeline(spectrum, n), *checks)


def _standard_fault(pipe: Pipeline, field: str, cells) -> Pipeline:
    """``pipe`` with a gain error on ``cells`` of one array of its standard pair."""
    filt = pipe.transmission
    standard = dataclasses.replace(filt.standard, **{field: _gain(getattr(filt.standard, field), cells)})
    return _with(pipe, transmission=dataclasses.replace(filt, standard=standard))


@_EVERYWHERE
def test_a_gain_in_the_standard_density_on_theta_fails_standard_law_thermal(spectrum, n):
    pipe = _pipeline(spectrum, n)
    assert _passes(pipe, "synthesis/standard_law_thermal")
    assert _fails_each(_standard_fault(pipe, "kappa", _first(pipe.pair.theta)), "synthesis/standard_law_thermal")


@_MIXED
def test_a_gain_in_the_standard_density_off_theta_fails_standard_law_vacuum(spectrum, n):
    pipe = _pipeline(spectrum, n)
    assert _passes(pipe, "synthesis/standard_law_vacuum")
    assert _fails_each(_standard_fault(pipe, "kappa", _first(pipe.pair.n_minus)), "synthesis/standard_law_vacuum")


@_EVERYWHERE
def test_a_gain_in_the_standard_cross_density_fails_standard_cross_unit(spectrum, n):
    pipe = _pipeline(spectrum, n)
    assert _passes(pipe, "synthesis/standard_cross_unit")
    assert _fails_each(_standard_fault(pipe, "gamma", _first(pipe.pair.theta)), "synthesis/standard_cross_unit")


@_EVERYWHERE
def test_a_theta_cell_lost_after_the_standard_pair_fails_standard_cross_off_support(spectrum, n):
    # The target's thermal support loses a cell after the standard pair, whose
    # cross density is 1 there, was built: on Planck, whose support is the
    # whole grid, no fault in the standard pair alone can reach this check.
    pipe = _pipeline(spectrum, n)
    theta = pipe.pair.theta.copy()
    theta[_first(theta)] = False
    assert _passes(pipe, "synthesis/standard_cross_off_support")
    faulted = _with(pipe, dataclasses.replace(pipe.pair, theta=theta), transmission=pipe.transmission)
    assert _fails_each(faulted, "synthesis/standard_cross_off_support")


@_EVERYWHERE
def test_one_cell_of_the_transmission_function_off_fails_transmission_symmetric(spectrum, n):
    pipe = _pipeline(spectrum, n)
    filt = pipe.transmission
    assert _passes(pipe, "synthesis/transmission_symmetric")
    faulted = _with(pipe, transmission=dataclasses.replace(filt, f=_gain(filt.f, _first(pipe.pair.theta))))
    assert _fails_each(faulted, "synthesis/transmission_symmetric")


@_EVERYWHERE
def test_an_imaginary_part_in_the_time_kernel_fails_time_kernel_real(spectrum, n):
    pipe = _pipeline(spectrum, n)
    filt = pipe.transmission
    kernel = np.array(filt.time_kernel)
    kernel[n // 2] += 1e-6j * np.abs(kernel).max()
    assert _passes(pipe, "synthesis/time_kernel_real")
    faulted = _with(pipe, transmission=dataclasses.replace(filt, time_kernel=kernel))
    assert _fails_each(faulted, "synthesis/time_kernel_real")


@_EVERYWHERE
def test_a_gain_in_the_time_kernel_fails_time_convolution(spectrum, n):
    pipe = _pipeline(spectrum, n)
    filt = pipe.transmission
    assert _passes(pipe, "synthesis/time_convolution")
    faulted = _with(pipe, transmission=dataclasses.replace(filt, time_kernel=_gain(filt.time_kernel)))
    assert _fails_each(faulted, "synthesis/time_convolution")


@_EVERYWHERE
def test_a_gain_in_the_reverse_output_amplitude_fails_reproduce_kappa_rev_and_kernel_time_reversal(spectrum, n):
    pipe = _pipeline(spectrum, n)
    result = pipe.synthesized
    checks = ("synthesis/reproduce_kappa_rev", "synthesis/kernel_time_reversal")
    assert _passes(pipe, *checks)
    faulted = _with(pipe, synthesized=dataclasses.replace(result, out_amp_rev=_gain(result.out_amp_rev)))
    assert _fails_each(faulted, *checks)


@_EVERYWHERE
def test_a_gain_in_the_output_amplitude_fails_reproduce_gamma_and_amplitude_reproduction(spectrum, n):
    pipe = _pipeline(spectrum, n)
    result = pipe.synthesized
    checks = ("synthesis/reproduce_gamma", "synthesis/amplitude_reproduction")
    assert _passes(pipe, *checks)
    faulted = _with(pipe, synthesized=dataclasses.replace(result, out_amp=_gain(result.out_amp)))
    assert _fails_each(faulted, *checks)


@_EVERYWHERE
def test_a_gain_in_the_reproduced_density_fails_reproduce_kappa_correlation_reproduction_and_synthesis_consistency(
        spectrum, n):
    pipe = _pipeline(spectrum, n)
    result = pipe.synthesized
    checks = ("synthesis/reproduce_kappa", "synthesis/correlation_reproduction", "qsi/synthesis_consistency")
    assert _passes(pipe, *checks)
    faulted = _with(pipe, synthesized=dataclasses.replace(result, kappa_out=_gain(result.kappa_out)))
    assert _fails_each(faulted, *checks)


@_EVERYWHERE
def test_a_gain_in_the_modular_function_fails_reverse_density_modular(spectrum, n):
    pipe = _pipeline(spectrum, n)
    pair = pipe.pair
    assert _passes(pipe, "qsi/reverse_density_modular")
    faulted = dataclasses.replace(pair, lambda_theta=_gain(pair.lambda_theta, pair.theta))
    assert _fails_each(_with(pipe, faulted), "qsi/reverse_density_modular")


@_EVERYWHERE
def test_moments_over_minus_d_prime_fail_disjoint_intervals_vanish(spectrum, n, monkeypatch):
    # The integrator table intersects D with -D' in place of D': the moments
    # qnoise qsi writes do not move, as its D' is symmetric, but the noise
    # on D = [0, nu_max] no longer vanishes against [-nu_max, -step/2].
    built = qsi.IntegratorTable.second_moment

    def faulted(self, first, mask1, second, mask2):
        return built(self, first, mask1, second, np.asarray(mask2)[::-1])

    assert _passes(_pipeline(spectrum, n), "qsi/disjoint_intervals_vanish", "qsi/integrator_moments")
    monkeypatch.setattr(qsi.IntegratorTable, "second_moment", faulted)
    pipe = _pipeline(spectrum, n)
    assert _fails_each(pipe, "qsi/disjoint_intervals_vanish")
    assert _passes(pipe, "qsi/integrator_moments")


@_EVERYWHERE
def test_swapped_splice_measures_fail_vacuum_assembly(spectrum, n):
    pipe = _pipeline(spectrum, n)
    canonical, (noise, reverse) = pipe.canonical
    assert _passes(pipe, "qsi/vacuum_assembly")
    assert _fails_each(_with(pipe, canonical=(canonical, (reverse, noise))), "qsi/vacuum_assembly")


@_EVERYWHERE
def test_an_output_density_of_the_creator_amplitude_fails_output_table(spectrum, n, monkeypatch):
    # The density reads the second symbol's creator amplitude in place of
    # its annihilator amplitude: sigma * sigma_rev in place of sigma^2.
    def faulted(self, first, second):
        return (self._symbol(first).minus * np.conj(self._symbol(second).plus)).real

    assert _passes(_pipeline(spectrum, n), "qsi/output_table")
    monkeypatch.setattr(qsi.OutputPair, "density", faulted)
    assert _fails_each(_pipeline(spectrum, n), "qsi/output_table")


@_EVERYWHERE
def test_swapped_recovered_rows_fail_canonical_roundtrip(spectrum, n, monkeypatch):
    built = qsi.recover_canonical

    def faulted(output_pair, where=None):
        recovered = built(output_pair, where)
        return dataclasses.replace(recovered, creation=recovered.annihilation, annihilation=recovered.creation)

    assert _passes(_pipeline(spectrum, n), "qsi/canonical_roundtrip")
    monkeypatch.setattr(qsi, "recover_canonical", faulted)
    assert _fails_each(_pipeline(spectrum, n), "qsi/canonical_roundtrip")


@_EVERYWHERE
def test_a_flipped_spectrum_fails_parseval_bridge(spectrum, n, monkeypatch):
    # The spectrum of a lag kernel comes out in flipped frequency order.
    built = verification.spectrum_of
    assert _passes(_pipeline(spectrum, n), "qsi/parseval_bridge")
    monkeypatch.setattr(verification, "spectrum_of", lambda kernel, eps: built(kernel, eps)[..., ::-1])
    assert _fails_each(_pipeline(spectrum, n), "qsi/parseval_bridge")


def _failing(pipe: Pipeline, *suites: str) -> list[str]:
    """The suite/check names of these suites that fail on ``pipe``."""
    return [f"{r.suite}/{r.check}" for suite in suites for r in _SUITES[suite](pipe) if not r.passed]


@_EVERYWHERE
def test_grid_points_at_the_cell_edges_fail_grid_flip_symmetry(spectrum, n):
    # The points are the left cell edges, half a step below the centres.
    pipe = _pipeline(spectrum, n)
    grid = pipe.pair.grid
    assert _passes(pipe, "spectra/grid_flip_symmetry")
    faulted = dataclasses.replace(pipe.pair, grid=dataclasses.replace(grid, points=grid.points - grid.step / 2))
    assert _fails_each(_with(pipe, faulted), "spectra/grid_flip_symmetry")


@_EVERYWHERE
def test_a_theta_cell_dropped_from_every_mask_fails_mask_partition_and_projector_algebra(spectrum, n):
    # A retained cell that no support mask covers.
    pipe = _pipeline(spectrum, n)
    theta = pipe.pair.theta.copy()
    theta[_first(theta)] = False
    checks = ("spectra/mask_partition", "decomposition/projector_algebra")
    assert _passes(pipe, *checks)
    assert _fails_each(_with(pipe, dataclasses.replace(pipe.pair, theta=theta)), *checks)


@_EVERYWHERE
def test_a_dropped_pair_added_to_theta_fails_projector_algebra_alone(spectrum, n):
    # A tabulated spectrum with kappa = 0 at +-step, so neither density is
    # positive there; theta gains that pair, with lambda_theta 1 there, so no
    # NaN spreads.  Every mask stays disjoint and covers every point the
    # densities retain: of the spectra and decomposition suites only
    # projector_algebra, which reads the retained points from the densities,
    # sees it.
    clean = _pipeline(spectrum, n).pair
    grid, kappa = clean.grid, np.array(clean.kappa)
    pair_cells = [n // 2 - 1, n // 2 + 1]
    kappa[pair_cells] = 0.0
    pair = qn.tabulated_density(kappa, grid)
    pipe = Pipeline(pair, 1.0 / (n * grid.step))
    theta, lam = pair.theta.copy(), np.array(pair.lambda_theta)
    theta[pair_cells], lam[pair_cells] = True, 1.0
    assert _failing(pipe, "spectra", "decomposition") == []
    faulted = _with(pipe, dataclasses.replace(pair, theta=theta, lambda_theta=lam))
    assert _failing(faulted, "spectra", "decomposition") == ["decomposition/projector_algebra"]


@_EVERYWHERE
def test_a_modular_function_off_at_one_cell_fails_modular_reciprocal(spectrum, n):
    # lambda(nu) lambda(-nu) = 1 no longer holds at one pair +-nu.
    pipe = _pipeline(spectrum, n)
    pair = pipe.pair
    assert _passes(pipe, "spectra/modular_reciprocal")
    faulted = dataclasses.replace(pair, lambda_theta=_gain(pair.lambda_theta, _first(pair.theta)))
    assert _fails_each(_with(pipe, faulted), "spectra/modular_reciprocal")


@_EVERYWHERE
def test_a_cross_density_of_kappa_alone_fails_cross_density_even(spectrum, n):
    # gamma built as sqrt(kappa * kappa) in place of sqrt(kappa * kappa_rev).
    pipe = _pipeline(spectrum, n)
    assert _passes(pipe, "spectra/cross_density_even")
    faulted = dataclasses.replace(pipe.pair, gamma=pipe.pair.kappa)
    assert _fails_each(_with(pipe, faulted), "spectra/cross_density_even")


@_EVERYWHERE
def test_a_correlation_sequence_shifted_by_one_lag_fails_sequence_hermitian(spectrum, n):
    # The lags centred one sample off: k_(-j) is no longer conj(k_j).
    pipe = _pipeline(spectrum, n)
    seq = pipe.seq
    assert _passes(pipe, "stationary/sequence_hermitian")
    faulted = dataclasses.replace(seq, values=np.roll(seq.values, 1))
    assert _fails_each(_with(pipe, seq=faulted, model=pipe.model), "stationary/sequence_hermitian")


@_EVERYWHERE
def test_a_cross_sequence_of_the_noise_density_fails_cross_real_even(spectrum, n):
    # r_j taken as the kernel of kappa, which is complex and not even, in place of gamma's.
    pipe = _pipeline(spectrum, n)
    seq = pipe.seq
    assert _passes(pipe, "stationary/cross_real_even")
    faulted = dataclasses.replace(seq, cross=seq.values)
    assert _fails_each(_with(pipe, seq=faulted, model=pipe.model), "stationary/cross_real_even")


@_EVERYWHERE
def test_a_model_symbol_in_flipped_frequency_order_fails_eigenvalue_match(spectrum, n):
    # The eigenvalues read as kappa_rev: the sign convention of the DFT flipped.
    pipe = _pipeline(spectrum, n)
    model = pipe.model
    assert _passes(pipe, "stationary/eigenvalue_match")
    faulted = dataclasses.replace(model, eigenvalues=model.eigenvalues[::-1])
    assert _fails_each(_with(pipe, model=faulted), "stationary/eigenvalue_match")


@_EVERYWHERE
def test_a_nan_in_the_column_of_k_fails_covariances_commute(spectrum, n, monkeypatch):
    # K and K_rev are circulants of one symbol, so they commute to rounding
    # on any finite column: only a non-finite entry fails the check.  A NaN
    # eigenvalue in the model would make the density scale NaN too, so the
    # NaN goes into the first column of K that the suite builds.
    pipe = _pipeline(spectrum, n)
    built, eigenvalues = verification._column, pipe.model.eigenvalues

    def faulted(symbols, conjugate=False):
        columns = built(symbols, conjugate)
        if columns.ndim == 2 and np.array_equal(symbols[0], eigenvalues):
            columns[0, 1] = np.nan  # K's column is the first row the stationary suite asks for
        return columns

    assert _passes(pipe, "stationary/covariances_commute")
    monkeypatch.setattr(verification, "_column", faulted)
    assert _fails_each(pipe, "stationary/covariances_commute")


@_PLANCK
def test_a_gain_in_the_modular_symbol_fails_conjugate_inverse(spectrum, n):
    # lambda off by a gain of 1e-6: L L_rev is no longer the identity.
    pipe = _pipeline(spectrum, n)
    filt = pipe.filt
    assert _passes(pipe, "modular/conjugate_inverse")
    faulted = _with(pipe, filt=dataclasses.replace(filt, symbol=_gain(filt.symbol)))
    assert _fails_each(faulted, "modular/conjugate_inverse")


@_PLANCK
def test_a_gain_in_the_modular_kernels_fails_kernel_modular_property_and_kernel_convolution_unit(spectrum, n):
    # The lambda^(1/2) kernel off by a gain: it is no longer the conjugate of
    # the lambda^(-1/2) kernel, and the two no longer convolve to the unit kernel.
    pipe = _pipeline(spectrum, n)
    filt = pipe.filt
    checks = ("modular/kernel_modular_property", "modular/kernel_convolution_unit")
    assert _passes(pipe, *checks)
    faulted = _with(pipe, filt=dataclasses.replace(filt, kernel_half=_gain(filt.kernel_half)))
    assert _fails_each(faulted, *checks)


@_PLANCK
def test_a_nan_at_nu_0_in_the_modular_symbol_fails_root_squares(spectrum, n):
    # The check squares the circulant of the root it takes of the symbol
    # itself, so any finite nonnegative symbol passes it: only a non-finite one fails.
    pipe = _pipeline(spectrum, n)
    filt = pipe.filt
    assert _passes(pipe, "modular/root_squares")
    symbol = np.array(filt.symbol)
    symbol[n // 2] = np.nan  # lambda(0) as 0/0, left without its limit 1
    faulted = _with(pipe, filt=dataclasses.replace(filt, symbol=symbol))
    assert _fails_each(faulted, "modular/root_squares")


def _nan_eigenvalue(pipe: Pipeline) -> Pipeline:
    eigenvalues = np.array(pipe.model.eigenvalues)
    eigenvalues[pipe.model.n_points // 2] = np.nan
    return _with(pipe, model=dataclasses.replace(pipe.model, eigenvalues=eigenvalues))


def _nan_lag(pipe: Pipeline) -> Pipeline:
    values = np.array(pipe.seq.values)
    values[len(values) // 3] = np.nan  # build_model carries it into every eigenvalue
    return _with(pipe, seq=dataclasses.replace(pipe.seq, values=values))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fault", [_nan_eigenvalue, _nan_lag], ids=["eigenvalue", "lag"])
@pytest.mark.parametrize("spectrum, n", [(spectrum, n) for spectrum in ("planck", "mixed") for n in (33, 257)])
def test_a_nan_eigenvalue_fails_eigenvalue_match_and_dft_consistency_without_a_warning(spectrum, n, fault):
    # The stationary suite scales the spectra it multiplies by the largest
    # eigenvalue; a NaN one makes that scale NaN, and every product with it.
    results = verification.run_all(fault(_pipeline(spectrum, n)))
    verdicts = {f"{r.suite}/{r.check}": r.passed for r in results}
    assert not verdicts["stationary/eigenvalue_match"]
    assert not verdicts["stationary/dft_consistency"]
    assert [r.check for r in results if np.isnan(r.residual) and r.passed] == []
