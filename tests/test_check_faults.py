"""Which committed tests inject a fault that fails each verify check.

``FAULTS`` maps every check ``run_all`` reports, on Planck (73 checks) and on
the mixed tabulated spectrum (69), to the tests (module::test) whose injected
fault fails it, or to None where no committed test injects one.  An input
on which a check fails because float64 cannot resolve it (high-dynamic-range
Planck, an underflowed cross density) is not an injected fault and is not
listed.  The table is checked against the names ``run_all`` reports and
against the test modules: each named test exists and names the check it
fails, so the table cannot drift from either.

``TWINS`` names the checks that compare the same numbers as another check,
so no fault fails one without the other: ``flip_involution`` reads
|kappa_rev[::-1] - kappa|, the n differences of ``flip_relation`` in
reverse order.
"""
import importlib
import inspect

import pytest

import qnoise as qn
from qnoise import verification

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

FAULTS = {
    "spectra/grid_flip_symmetry": None,
    "spectra/flip_relation": _FLIP,
    "spectra/flip_involution": _FLIP,
    "spectra/mask_partition": None,
    "spectra/modular_reciprocal": None,
    "spectra/cross_density_even": None,
    "stationary/sequence_hermitian": None,
    "stationary/cross_real_even": None,
    "stationary/eigenvalue_match": None,
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
    "stationary/covariances_commute": None,
    "stationary/star_involution": ("test_verification::test_reverse_amplitude_off_the_star_involution_fails",),
    "stationary/amplitude_gram": _K_NAN + (
        "test_verification::test_first_column_of_k_off_the_amplitudes_fails_amplitude_gram",),
    "stationary/amplitude_cross": ("test_verification::test_first_column_of_g_off_the_amplitudes_fails_amplitude_cross",),
    "stationary/test_norm_nonnegative": ("test_verification::test_nan_coefficient_norm_fails_test_norm_nonnegative",),
    "modular/spectrum_match": _SPECTRUM,
    "modular/conjugate_inverse": None,
    "modular/kernel_modular_property": None,
    "modular/kernel_convolution_unit": None,
    "modular/root_squares": None,
    "decomposition/support_partition": None,
    "decomposition/component_orthogonality": None,
    "decomposition/projector_algebra": None,
    "decomposition/estimate_is_modular_filter": None,
    "decomposition/residual_support": None,
    "decomposition/residual_norm": None,
    "decomposition/flip_exchange": None,
    "decomposition/theta_kernel_modular": None,
    "decomposition/theta_kernel_convolution": None,
    "synthesis/standard_law_thermal": None,
    "synthesis/standard_law_vacuum": None,
    "synthesis/standard_cross_unit": None,
    "synthesis/standard_cross_off_support": None,
    "synthesis/transmission_symmetric": None,
    "synthesis/time_kernel_real": None,
    "synthesis/reproduce_kappa": ("test_verification::test_nan_at_a_zero_target_cell_fails_reproduce_kappa",),
    "synthesis/reproduce_kappa_rev": None,
    "synthesis/reproduce_gamma": None,
    "synthesis/amplitude_reproduction": None,
    "synthesis/time_convolution": None,
    "synthesis/kernel_time_reversal": None,
    "synthesis/correlation_reproduction": None,
    "qsi/integrator_moments": _QSI_TABLES,
    "qsi/reverse_density_modular": None,
    "qsi/disjoint_intervals_vanish": None,
    "qsi/canonical_zeros": _QSI_TABLES,
    "qsi/canonical_pairing": _QSI_TABLES,
    "qsi/vacuum_assembly": None,
    "qsi/output_table": None,
    "qsi/canonical_roundtrip": None,
    "qsi/isometry_nonnegative": _ISOMETRY,
    "qsi/isometry_gram_oracle": _ISOMETRY,
    "qsi/reflection_symmetry": (
        "test_verification::test_asymmetric_cross_kernel_fails_reflection_symmetry_at_any_scale",),
    "qsi/parseval_bridge": None,
    "qsi/synthesis_consistency": None,
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
    for check, twin in TWINS.items():
        assert FAULTS[check] == FAULTS[twin], "a fault fails one twin without the other"


@pytest.mark.parametrize("check", sorted(name for name, tests in FAULTS.items() if tests))
def test_each_named_test_exists_and_names_its_check(check):
    # the check's name without its occupation, as a parametrized test spells it
    stem = check.split("/")[1].split("_n=")[0]
    for node in FAULTS[check]:
        module, name = node.split("::")
        target = getattr(importlib.import_module(module), name)
        assert callable(target), node
        assert stem in inspect.getsource(target), (check, node)
