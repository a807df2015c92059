"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them on success).

Every tolerance is pinned here, not computed; the expected values come
from the independent oracles in ``oracles.py`` or from closed forms.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import qnoise as qn
from qnoise import qsi
from qnoise.cli import main as cli_main
from qnoise.errors import DegenerateRecoveryError
from qnoise.fourier import kernel_of

from conftest import build_chain, grid_and_eps
from oracles import filter_views, gram_quadratic_form, mixed_kappa, model_views, slow_convolve

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(number: int, name: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {number} ({name}): {verdict}")


def _spectrum_family(n_points: int):
    """The three reference spectra on an n-point grid with step 0.25."""
    grid, eps = grid_and_eps(n_points, 0.25)
    return {
        "planck": (qn.planck_density(1.0, 1.0, grid), eps),
        "flat": (qn.flat_density(1.0, grid), eps),
        "mixed": (qn.tabulated_density(mixed_kappa(grid), grid), eps),
    }


def test_criterion_1_single_mode_table():
    failures = []
    for n in (0.0, 0.5, 1.0, 2.0, 10.0):
        b, b_out = qn.thermal_pair(n)
        table = {
            "noise_occupation": (qn.expectation(b.dagger(), b), n),
            "noise_antinormal": (qn.expectation(b, b.dagger()), n + 1.0),
            "output_occupation": (qn.expectation(b_out.dagger(), b_out), n + 1.0),
            "output_antinormal": (qn.expectation(b_out, b_out.dagger()), n),
            "cross": (qn.expectation(b_out, b.dagger()), np.sqrt(n * (n + 1.0))),
            "commute_pair": (qn.commutator(b_out, b), 0.0),
            "commute_pair_dag": (qn.commutator(b_out, b.dagger()), 0.0),
        }
        for name, (got, expected) in table.items():
            if abs(got - expected) > 1e-12:
                failures.append((n, name, got, expected))
        mode_a, mode_c = qn.invert_pair(b, b_out, n)
        if np.max(np.abs(mode_a.coefficients - qn.A.coefficients)) > 1e-12:
            failures.append((n, "roundtrip_a", mode_a.coefficients, None))
        if np.max(np.abs(mode_c.coefficients - qn.C.coefficients)) > 1e-12:
            failures.append((n, "roundtrip_c", mode_c.coefficients, None))
    _report(1, "single-mode thermal table", not failures)
    assert not failures, failures


def test_criterion_2_gram_identities():
    failures = []
    for n_points in (17, 33, 65):
        for name, (pair, eps) in _spectrum_family(n_points).items():
            _, model = build_chain(pair, eps)
            norm = float(model.eigenvalues.max())
            tol = 1e-10 * norm
            v = model_views(model)
            cols, cols_rev, cross = v["X"], v["X_rev"], v["G"]
            checks = {
                "noise_gram": np.max(np.abs(cols.conj().T @ cols - v["K"])),
                "reverse_gram": np.max(np.abs(cols_rev.conj().T @ cols_rev - v["K_rev"])),
                "cross_gram": np.max(np.abs(cols.conj().T @ cols_rev - cross)),
                "cross_imag": np.max(np.abs(cross.imag)),
                "cross_symmetry": np.max(np.abs(cross - cross.T)),
                "cross_psd": max(0.0, -float(np.linalg.eigvalsh(cross).min())),
            }
            for check, residual in checks.items():
                if residual > tol:
                    failures.append((name, n_points, check, residual))
            geometric = np.linalg.norm(cross @ cross - v["K"] @ v["K_rev"])
            if geometric > 1e-9 * norm**2:
                failures.append((name, n_points, "geometric_mean", geometric))
    _report(2, "covariance Gram identities", not failures)
    assert not failures, failures


def test_criterion_3_modular_structure():
    grid, eps = grid_and_eps(33, 0.25)
    pair = qn.planck_density(1.0, 1.0, grid)
    _, model = build_chain(pair, eps)
    filt = qn.modular_matrix(model)
    failures = []

    expected = np.sort(np.exp(grid.points))
    got = np.sort(np.linalg.eigvals(filter_views(filt)["L"]).real)
    spectrum_residual = np.max(np.abs(got - expected) / expected)
    if spectrum_residual > 1e-10:
        failures.append(("modular_spectrum", spectrum_residual))

    scale = np.max(np.abs(filt.kernel_half))
    modular_residual = max(
        np.max(np.abs(filt.kernel_half[::-1] - np.conj(filt.kernel_half))),
        np.max(np.abs(np.conj(filt.kernel_half) - filt.kernel_inv_half)),
    )
    if modular_residual > 1e-10 * scale:
        failures.append(("kernel_modular_property", modular_residual))

    unit = np.zeros(grid.n_points)
    unit[(grid.n_points - 1) // 2] = 1.0
    conv = slow_convolve(filt.kernel_half, filt.kernel_inv_half, 1.0)
    conv_residual = np.max(np.abs(conv - unit))
    if conv_residual > 1e-9:
        failures.append(("kernel_convolution", conv_residual))

    _report(3, "modular filter structure", not failures)
    assert not failures, failures


def test_criterion_4_decomposition():
    grid, eps = grid_and_eps(33, 0.25)
    pair = qn.tabulated_density(mixed_kappa(grid), grid)
    assert pair.n_plus.any() and pair.n_minus.any() and pair.theta.any()
    _, model = build_chain(pair, eps)
    parts = qn.split(model, pair)
    failures = []

    if np.any((parts.amp_vac != 0) & (parts.amp_thermal != 0)):
        failures.append("overlapping_supports")
    if not np.array_equal(parts.amp, parts.amp_vac + parts.amp_thermal):
        failures.append("noise_split_not_exact")
    if not np.array_equal(parts.amp_rev, parts.amp_rev_vac + parts.amp_rev_thermal):
        failures.append("reverse_split_not_exact")

    estimate = qn.best_estimate(parts, qn.INPUT_TO_OUTPUT)
    residual = parts.amp_rev - estimate
    if np.any(residual[~pair.n_plus] != 0.0):
        failures.append("residual_leaks_off_vacuum_support")
    norm2 = grid.step * float(np.sum(np.abs(residual) ** 2))
    expected = grid.step * float(np.sum(pair.kappa_rev[pair.n_plus]))
    if abs(norm2 - expected) > 1e-12:
        failures.append(("residual_norm", norm2, expected))

    _report(4, "vacuum/thermal decomposition", not failures)
    assert not failures, failures


def test_criterion_5_synthesis_theorem():
    failures = []
    for name, (pair, eps) in _spectrum_family(65).items():
        filt = qn.transmission_function(pair)
        result = qn.synthesize(filt, filt.standard)
        for label, reproduced, target in (
            ("kappa", result.kappa_out, pair.kappa),
            ("kappa_rev", result.out_amp_rev**2, pair.kappa_rev),
            ("gamma", result.out_amp * result.out_amp_rev, pair.gamma),
        ):
            positive = target > 0
            if positive.any():
                rel = np.max(np.abs(reproduced[positive] - target[positive]) / target[positive])
                if rel > 1e-10:
                    failures.append((name, label, "relative", rel))
            if np.max(np.abs(reproduced[~positive]), initial=0.0) > 0.0:
                failures.append((name, label, "support_leak"))

        time_filter = qn.time_domain_filter(filt, eps)
        chi_std = kernel_of(filt.standard.sigma, pair.grid.step)
        psi_target = kernel_of(pair.sigma, pair.grid.step)
        sup = np.max(np.abs(time_filter.apply(chi_std) - psi_target))
        if sup > 1e-9:
            failures.append((name, "time_convolution", sup))
    _report(5, "synthesis from standard noise", not failures)
    assert not failures, failures


def test_criterion_6_qsi_tables():
    failures = []
    grid, eps = grid_and_eps(65, 0.25)
    planck = qn.planck_density(1.0, 1.0, grid)
    vacuum = qn.tabulated_density((grid.points < 0).astype(float), grid)
    canonical, _ = qn.canonical_from_vacuum(vacuum)

    delta = qn.interval_mask(grid, 0.0, grid.nu_max)
    delta_prime = qn.interval_mask(grid, -grid.nu_max / 2, grid.nu_max / 2)
    flipped = qsi.flipped(delta)
    zeros = (
        qsi.ordered_moment(canonical.creation, flipped, canonical.annihilation, delta_prime, grid.step),
        qsi.ordered_moment(canonical.creation, flipped, canonical.creation, delta_prime, grid.step),
        qsi.ordered_moment(canonical.annihilation, flipped, canonical.annihilation, delta_prime, grid.step),
    )
    if any(z != 0.0 for z in zeros):
        failures.append(("canonical_zeros", zeros))

    sigma = np.sqrt(planck.kappa)
    sigma_rev = np.sqrt(planck.kappa_rev)
    output = qn.build_output_pair(canonical, sigma, sigma_rev)
    support = canonical.support
    expected_densities = {
        ("output", "output"): sigma * sigma,
        ("reverse", "output"): sigma_rev * sigma,
        ("output", "reverse"): sigma * sigma_rev,
        ("reverse", "reverse"): sigma_rev * sigma_rev,
    }
    for key, expected in expected_densities.items():
        residual = np.max(np.abs(output.density(*key)[support] - expected[support]))
        if residual > 1e-12:
            failures.append(("output_table", key, residual))

    recovered = qn.recover_canonical(output, where=sigma_rev != sigma)
    on = recovered.support
    roundtrip = max(
        np.max(np.abs(recovered.creation.plus[on] - 1.0)),
        np.max(np.abs(recovered.creation.minus[on])),
        np.max(np.abs(recovered.annihilation.minus[on] - 1.0)),
        np.max(np.abs(recovered.annihilation.plus[on])),
    )
    if roundtrip != 0.0:
        failures.append(("canonical_roundtrip", roundtrip))

    flat = qn.flat_density(1.0, grid)
    white = qn.build_output_pair(canonical, np.sqrt(flat.kappa), np.sqrt(flat.kappa_rev))
    try:
        qn.recover_canonical(white)
        failures.append("degenerate_recovery_not_detected")
    except DegenerateRecoveryError:
        pass

    _, model = build_chain(planck, eps)
    ones = np.ones(grid.n_points)
    forward, backward = qn.isometry_check(ones, ones, planck)
    zeta = np.sqrt(eps) * kernel_of(ones, grid.step)
    oracle_forward = gram_quadratic_form(model, zeta, zeta)
    oracle_backward = gram_quadratic_form(model, np.conj(zeta), np.conj(zeta))
    if abs(forward - oracle_forward) > 1e-9 * abs(oracle_forward):
        failures.append(("isometry_forward", forward, oracle_forward))
    if abs(backward - oracle_backward) > 1e-9 * abs(oracle_backward):
        failures.append(("isometry_backward", backward, oracle_backward))

    reflection = qn.reflection_symmetry_check(model)
    if reflection > 1e-10:
        failures.append(("reflection_symmetry", reflection))

    _report(6, "stochastic integration tables", not failures)
    assert not failures, failures


def test_criterion_7_classification_and_standard_laws():
    failures = []
    grid, _ = grid_and_eps(65, 0.25)
    if qn.classify(qn.planck_density(1.0, 1.0, grid)) != {qn.THERMAL}:
        failures.append("planck_not_plain_thermal")
    flat_labels = qn.classify(qn.flat_density(1.0, grid))
    if not {qn.WHITE, qn.STANDARD_THERMAL} <= flat_labels:
        failures.append(("flat_labels", flat_labels))

    for name, (pair, _) in _spectrum_family(33).items():
        std = qn.build_standard_pair(pair)
        theta = pair.theta
        perp = pair.retained & ~theta
        if theta.any():
            law = np.max(np.abs(std.kappa[theta] * std.kappa_rev[theta] - 1.0))
            if law > 1e-12:
                failures.append((name, "thermal_law", law))
        if perp.any():
            law = np.max(np.abs(std.kappa[perp] + std.kappa_rev[perp] - 1.0))
            if law > 1e-12:
                failures.append((name, "vacuum_law", law))
    _report(7, "noise classification", not failures)
    assert not failures, failures


def test_criterion_8_cli_contract(tmp_path):
    failures = []
    configs = {name: CONFIG_DIR / f"{name}.json" for name in ("planck", "flat", "mixed")}

    trees = {}
    for name, config in configs.items():
        for label in ("first", "second"):
            out_dir = tmp_path / f"{name}-{label}"
            code = cli_main(["verify", "--config", str(config), "--out", str(out_dir)])
            if code != 0:
                failures.append((name, label, "exit", code))
            trees[(name, label)] = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        if trees[(name, "first")] != trees[(name, "second")]:
            failures.append((name, "rerun_not_byte_identical"))

    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(
        json.dumps(
            {"model": "tabulated", "values": [1.0, -0.5, 1.0], "n_points": 3, "step": 1.0}
        )
    )
    code = cli_main(["verify", "--config", str(corrupted), "--out", str(tmp_path / "bad")])
    if code != 2:
        failures.append(("corrupted_config_exit", code))

    _report(8, "CLI contract", not failures)
    assert not failures, failures
