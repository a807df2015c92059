"""Residual checks for every identity the toolkit guarantees.

Each check computes a nonnegative residual and compares it against a
pinned tolerance; a residual of exactly zero is required wherever the
construction makes the identity structural (mask disjointness, flip
symmetry of stored arrays, canonical table zeros).  The functions return
plain :class:`CheckResult` records so callers can render them as JSON or
aggregate them into a pass/fail verdict.

Every suite but the mode tables reads one :class:`~qnoise.pipeline.Pipeline`,
so :func:`run_all` builds each stage of the chain once for all suites.

Every dense matrix the model and the modular filter expose (K, K_rev, X,
X_rev, G, L, L_half) is a circulant, so the checks on them cost O(n^2) and
call no LAPACK eigensolver.  Each such check first measures the matrix's
exact defect from circulant structure, then reads its first column: the
spectrum checks (``dft_consistency``, ``cross_cov_psd``,
``modular/spectrum_match``) take the DFT of the column in grid order, and
the product checks (the Grams, the root squares, ``conjugate_inverse``,
``geometric_mean``, ``covariances_commute``) take one matrix-vector product,
using ||C||_F = sqrt(n) * ||C[:, 0]||_2 where a Frobenius norm is asked
for.  The residual is the larger of the column residual and the defects,
so a matrix off the circulant pattern still fails.  ``amplitude_gram`` and
``amplitude_cross`` compare the first columns of K and G with those of
step * N†N and step * N†R, built from the explicit plane-wave amplitudes
N and R: with the defects of K and G, that reaches every entry by a route
through neither :func:`qnoise.fourier.circulant` nor an FFT.  No check
multiplies two n x n matrices, so every suite costs O(n^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stationary
from .errors import DegenerateRecoveryError
from .fourier import convolve, kernel_of, spectrum_of
from .pipeline import Pipeline
from .spectra import SpectralDensityPair, tabulated_density


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    residual: float
    tolerance: float
    passed: bool


def _result(suite: str, check: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(suite, check, residual, tolerance, bool(residual <= tolerance))


def _maxabs(values) -> float:
    values = np.asarray(values)
    return float(np.max(np.abs(values))) if values.size else 0.0


def _circulant_column(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """First column of a dense matrix and its exact defect from circulant form.

    A matrix is circulant exactly when each entry equals its down-right
    neighbour and its first row is its last row shifted right by one; the
    defect is the largest violation, so it is zero for every matrix filled
    by :func:`qnoise.fourier.circulant` and nonzero for any entry off the
    pattern.  Once the defect is known, the first column fixes the matrix.
    """
    defect = max(
        _maxabs(matrix[1:, 1:] - matrix[:-1, :-1]),
        _maxabs(matrix[0, 1:] - matrix[-1, :-1]),
    )
    return matrix[:, 0], defect


def _symbol(column: np.ndarray) -> np.ndarray:
    """Spectrum of a circulant, in grid order, from its first column."""
    return np.fft.fftshift(np.fft.fft(column))


def _adjoint_times(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """matrix† @ vector, with no conjugated copy of the matrix."""
    return np.conj(np.conj(vector) @ matrix)


def _frobenius(column: np.ndarray) -> float:
    """Frobenius norm of the circulant with this first column."""
    return math.sqrt(column.size) * float(np.linalg.norm(column))


def spectra_checks(pipe: Pipeline) -> list[CheckResult]:
    out = []
    pair = pipe.pair
    grid = pair.grid
    out.append(
        _result("spectra", "grid_flip_symmetry", _maxabs(grid.points + grid.points[::-1]), 0.0)
    )
    out.append(
        _result("spectra", "flip_relation", _maxabs(pair.kappa_rev - pair.kappa[::-1]), 0.0)
    )
    double_flip = tabulated_density(pair.kappa_rev, grid)
    out.append(
        _result("spectra", "flip_involution", _maxabs(double_flip.kappa_rev - pair.kappa), 0.0)
    )
    overlap = int(np.sum(pair.n_plus & pair.n_minus) + np.sum(pair.n_plus & pair.theta)
                  + np.sum(pair.n_minus & pair.theta))
    covered = pair.n_plus | pair.n_minus | pair.theta
    uncovered = int(np.sum(((pair.kappa + pair.kappa_rev) > 0) & ~covered))
    out.append(_result("spectra", "mask_partition", overlap + uncovered, 0.0))
    if pair.theta.any():
        lam = pair.lambda_theta
        recip = lam[pair.theta] * lam[::-1][pair.theta]
        out.append(_result("spectra", "modular_reciprocal", _maxabs(recip - 1.0), 1e-12))
    out.append(_result("spectra", "cross_density_even", _maxabs(pair.gamma - pair.gamma[::-1]), 0.0))
    return out


def stationary_checks(pipe: Pipeline) -> list[CheckResult]:
    out = []
    pair, seq, model = pipe.pair, pipe.seq, pipe.model
    # floor keeps the empty spectrum finite, including when squared
    norm = max(float(model.eigenvalues.max(initial=0.0)), 1e-150)

    k_scale = max(_maxabs(seq.values), 1e-300)
    out.append(
        _result(
            "stationary",
            "sequence_hermitian",
            _maxabs(seq.values[::-1] - np.conj(seq.values)) / k_scale,
            1e-12,
        )
    )
    r_scale = max(_maxabs(seq.cross), 1e-300)
    cross_defect = max(_maxabs(seq.cross.imag), _maxabs(seq.cross - seq.cross[::-1]))
    out.append(_result("stationary", "cross_real_even", cross_defect / r_scale, 1e-12))
    out.append(
        _result(
            "stationary",
            "eigenvalue_match",
            _maxabs(model.eigenvalues - pair.kappa) / norm,
            1e-10,
        )
    )
    k, k_defect = _circulant_column(model.K)
    k_rev, k_rev_defect = _circulant_column(model.K_rev)
    x, x_defect = _circulant_column(model.X)
    x_rev, x_rev_defect = _circulant_column(model.X_rev)
    g, g_defect = _circulant_column(model.G)
    out.append(
        _result(
            "stationary",
            "dft_consistency",
            max(_maxabs(_symbol(k) - model.eigenvalues), k_defect) / norm,
            1e-12,
        )
    )

    gram = max(_maxabs(_adjoint_times(model.X, x) - k), x_defect, k_defect)
    out.append(_result("stationary", "gram_noise", gram / norm, 1e-10))
    gram = max(_maxabs(_adjoint_times(model.X_rev, x_rev) - k_rev), x_rev_defect, k_rev_defect)
    out.append(_result("stationary", "gram_reverse", gram / norm, 1e-10))
    gram = max(_maxabs(_adjoint_times(model.X, x_rev) - g), x_defect, x_rev_defect, g_defect)
    out.append(_result("stationary", "gram_cross", gram / norm, 1e-10))
    out.append(_result("stationary", "conjugation", _maxabs(model.X_rev - np.conj(model.X)), 0.0))
    squares = max(_maxabs(model.X @ x - k), x_defect, k_defect)
    out.append(_result("stationary", "root_squares", squares / norm, 1e-10))
    out.append(_result("stationary", "cross_cov_imag", _maxabs(model.G.imag) / norm, 1e-10))
    out.append(_result("stationary", "cross_cov_symmetric", _maxabs(model.G - model.G.T) / norm, 1e-10))
    negative = max(0.0, -float(_symbol(g).real.min()), g_defect)
    out.append(_result("stationary", "cross_cov_psd", negative / norm, 1e-10))
    # columns scaled before the products, so nothing of order norm**2 overflows
    mean = _frobenius(model.G @ (g / norm) - model.K @ (k_rev / norm))
    mean = max(mean, max(g_defect, k_defect, k_rev_defect) / norm)
    out.append(_result("stationary", "geometric_mean", mean / norm, 1e-9))
    commute = _frobenius(model.K @ (k_rev / norm) - model.K_rev @ (k / norm))
    commute = max(commute, max(k_defect, k_rev_defect) / norm)
    out.append(_result("stationary", "covariances_commute", commute / norm, 1e-12))

    amps = stationary.spectral_amplitudes(model)
    out.append(
        _result(
            "stationary",
            "star_involution",
            _maxabs(amps.reverse - np.conj(amps.noise[::-1, :])),
            0.0,
        )
    )
    step = pair.grid.step
    gram = max(_maxabs(step * _adjoint_times(amps.noise, amps.noise[:, 0]) - k), k_defect)
    out.append(_result("stationary", "amplitude_gram", gram / norm, 1e-10))
    gram = max(_maxabs(step * _adjoint_times(amps.noise, amps.reverse[:, 0]) - g), g_defect)
    out.append(_result("stationary", "amplitude_cross", gram / norm, 1e-10))

    zeta = np.exp(1j * np.linspace(0.0, 3.0, model.n_points))
    out.append(
        _result(
            "stationary",
            "test_norm_nonnegative",
            max(0.0, -stationary.coefficient_norm(model, zeta)),
            0.0,
        )
    )
    return out


def modular_checks(pipe: Pipeline) -> list[CheckResult]:
    filt = pipe.filt
    if filt is None:
        return []
    out = []
    model = pipe.model
    lam = filt.symbol
    l_col, l_defect = _circulant_column(filt.L)
    l_half_col, l_half_defect = _circulant_column(filt.L_half)
    out.append(
        _result(
            "modular",
            "spectrum_match",
            max(_maxabs(_symbol(l_col) - lam), l_defect) / float(lam.max()),
            1e-10,
        )
    )
    l_norm = max(_maxabs(filt.L), 1.0)
    inverse = np.conj(filt.L @ np.conj(l_col))
    inverse[0] -= 1.0
    out.append(
        _result("modular", "conjugate_inverse", max(_maxabs(inverse), l_defect) / l_norm**2, 1e-12)
    )
    half_scale = max(_maxabs(filt.kernel_half), 1e-300)
    modular_defect = max(
        _maxabs(filt.kernel_half[::-1] - np.conj(filt.kernel_half)),
        _maxabs(np.conj(filt.kernel_half) - filt.kernel_inv_half),
    )
    out.append(_result("modular", "kernel_modular_property", modular_defect / half_scale, 1e-10))
    unit = np.zeros(model.n_points)
    unit[(model.n_points - 1) // 2] = 1.0
    conv = convolve(filt.kernel_half, filt.kernel_inv_half, 1.0)
    out.append(_result("modular", "kernel_convolution_unit", _maxabs(conv - unit), 1e-9))
    squares = max(_maxabs(filt.L_half @ l_half_col - l_col), l_half_defect, l_defect)
    out.append(_result("modular", "root_squares", squares / l_norm, 1e-10))
    return out


def decomposition_checks(pipe: Pipeline) -> list[CheckResult]:
    from . import decomposition
    out = []
    pair, eps, parts = pipe.pair, pipe.eps, pipe.parts

    violations = int(np.sum((parts.amp_vac != 0) & (parts.amp_thermal != 0)))
    violations += int(np.sum(parts.amp != parts.amp_vac + parts.amp_thermal))
    violations += int(np.sum((parts.amp_rev_vac != 0) & (parts.amp_rev_thermal != 0)))
    violations += int(np.sum(parts.amp_rev != parts.amp_rev_vac + parts.amp_rev_thermal))
    out.append(_result("decomposition", "support_partition", violations, 0.0))

    cross = np.sum(np.conj(parts.amp_vac) * parts.amp_thermal) * pair.grid.step
    out.append(_result("decomposition", "component_orthogonality", abs(cross), 0.0))

    projector_defect = int(np.sum(parts.proj_theta != (~parts.proj_n_plus & ~parts.proj_n_minus & pair.retained)))
    out.append(_result("decomposition", "projector_algebra", projector_defect, 0.0))

    estimate = decomposition.best_estimate(parts, decomposition.INPUT_TO_OUTPUT)
    theta = parts.proj_theta
    if theta.any():
        filtered = np.sqrt(pair.lambda_theta[theta]) * parts.amp[theta]
        scale = max(_maxabs(parts.amp_rev), 1e-300)
        out.append(
            _result(
                "decomposition",
                "estimate_is_modular_filter",
                _maxabs(estimate[theta] - filtered) / scale,
                1e-10,
            )
        )
    residual = parts.amp_rev - estimate
    out.append(
        _result("decomposition", "residual_support", int(np.sum((residual != 0) & ~pair.n_plus)), 0.0)
    )
    residual_norm2 = pair.grid.step * float(np.sum(np.abs(residual) ** 2))
    expected = pair.grid.step * float(np.sum(pair.kappa_rev[pair.n_plus]))
    out.append(
        _result(
            "decomposition",
            "residual_norm",
            abs(residual_norm2 - expected) / max(1.0, expected),
            1e-12,
        )
    )
    out.append(
        _result(
            "decomposition",
            "flip_exchange",
            _maxabs(parts.amp_vac[::-1] - parts.amp_rev_vac)
            + _maxabs(parts.amp_thermal[::-1] - parts.amp_rev_thermal),
            0.0,
        )
    )

    if pair.theta.any():
        kernels = decomposition.modular_kernels_theta(pair, eps)
        half_scale = max(_maxabs(kernels.half), 1e-300)
        defect = max(
            _maxabs(kernels.half[::-1] - np.conj(kernels.half)),
            _maxabs(np.conj(kernels.half) - kernels.inv_half),
        )
        out.append(_result("decomposition", "theta_kernel_modular", defect / half_scale, 1e-10))
        indicator_kernel = eps * kernel_of(pair.theta.astype(float), pair.grid.step)
        conv = convolve(kernels.half, kernels.inv_half, 1.0)
        out.append(
            _result("decomposition", "theta_kernel_convolution", _maxabs(conv - indicator_kernel), 1e-9)
        )
    return out


def synthesis_checks(pipe: Pipeline) -> list[CheckResult]:
    from . import synthesis
    out = []
    pair, eps, filt = pipe.pair, pipe.eps, pipe.transmission
    std = filt.standard
    theta = pair.theta
    perp = pair.retained & ~theta

    if theta.any():
        law = std.pair.kappa[theta] * std.pair.kappa_rev[theta]
        out.append(_result("synthesis", "standard_law_thermal", _maxabs(law - 1.0), 1e-12))
        out.append(
            _result("synthesis", "standard_cross_unit", _maxabs(std.pair.gamma[theta] - 1.0), 1e-12)
        )
    if perp.any():
        level = std.pair.kappa[perp] + std.pair.kappa_rev[perp]
        out.append(_result("synthesis", "standard_law_vacuum", _maxabs(level - 1.0), 1e-12))
    out.append(_result("synthesis", "standard_cross_off_support", _maxabs(std.pair.gamma[~theta]), 0.0))
    out.append(_result("synthesis", "transmission_symmetric", _maxabs(filt.f - filt.f[::-1]), 0.0))
    kernel_scale = max(_maxabs(filt.time_kernel), 1e-300)
    out.append(
        _result("synthesis", "time_kernel_real", _maxabs(filt.time_kernel.imag) / kernel_scale, 1e-12)
    )

    result = pipe.synthesized
    for name, reproduced, target in (
        ("reproduce_kappa", result.kappa_out, pair.kappa),
        ("reproduce_kappa_rev", result.kappa_rev_out, pair.kappa_rev),
    ):
        positive = target > 0
        rel = 0.0
        if positive.any():
            rel = _maxabs((reproduced[positive] - target[positive]) / target[positive])
        exact_zero = _maxabs(reproduced[~positive])
        out.append(_result("synthesis", name, max(rel, exact_zero), 1e-10))
    gamma_out = result.out_amp * result.out_amp_rev
    rel = 0.0
    if theta.any():
        rel = _maxabs((gamma_out[theta] - pair.gamma[theta]) / pair.gamma[theta])
    out.append(_result("synthesis", "reproduce_gamma", max(rel, _maxabs(gamma_out[~theta])), 1e-10))
    sigma_scale = max(_maxabs(filt.target_sigma), 1e-300)
    out.append(
        _result(
            "synthesis",
            "amplitude_reproduction",
            _maxabs(result.out_amp - filt.target_sigma) / sigma_scale,
            1e-10,
        )
    )

    time_filter = synthesis.time_domain_filter(filt, eps)
    chi_std = kernel_of(std.amp, pair.grid.step)
    psi_target = kernel_of(filt.target_sigma, pair.grid.step)
    psi_scale = max(_maxabs(psi_target), 1e-300)
    out.append(
        _result(
            "synthesis",
            "time_convolution",
            _maxabs(time_filter.apply(chi_std) - psi_target) / psi_scale,
            1e-9,
        )
    )
    psi_out = kernel_of(result.out_amp_rev, pair.grid.step)
    psi_out_rev = kernel_of(result.out_amp, pair.grid.step)
    out.append(
        _result(
            "synthesis",
            "kernel_time_reversal",
            _maxabs(psi_out[::-1] - psi_out_rev) / psi_scale,
            1e-12,
        )
    )

    seq = pipe.seq
    corr_scale = max(_maxabs(seq.values), 1e-300)
    out.append(
        _result(
            "synthesis",
            "correlation_reproduction",
            _maxabs(kernel_of(result.kappa_out, pair.grid.step) - seq.values) / corr_scale,
            1e-9,
        )
    )
    return out


def qsi_checks(pipe: Pipeline) -> list[CheckResult]:
    from . import qsi
    out = []
    pair, eps = pipe.pair, pipe.eps
    grid = pair.grid
    step = grid.step
    table = qsi.integrator_table(pair)
    delta = qsi.interval_mask(grid, 0.0, grid.nu_max)
    delta_prime = qsi.interval_mask(grid, -grid.nu_max / 2, grid.nu_max / 2)

    densities = {
        ("noise", "noise"): pair.kappa,
        ("noise", "reverse"): pair.gamma,
        ("reverse", "noise"): pair.gamma,
        ("reverse", "reverse"): pair.kappa_rev,
    }
    moment_scale = max(step * float(pair.kappa.sum()), 1e-300)
    worst = 0.0
    for (first, second), density in densities.items():
        expected = step * math.fsum(density[delta & delta_prime])
        got = table.second_moment(first, delta, second, delta_prime)
        worst = max(worst, abs(got - expected))
    out.append(_result("qsi", "integrator_moments", worst / moment_scale, 1e-12))

    if pair.theta.any():
        lam_defect = _maxabs(
            pair.kappa_rev[pair.theta] - pair.lambda_theta[pair.theta] * pair.kappa[pair.theta]
        ) / max(float(pair.kappa_rev.max(initial=0.0)), 1e-300)
        out.append(_result("qsi", "reverse_density_modular", lam_defect, 1e-12))

    disjoint = table.second_moment(
        "noise", qsi.interval_mask(grid, 0.0, grid.nu_max), "noise",
        qsi.interval_mask(grid, -grid.nu_max, -step / 2),
    )
    out.append(_result("qsi", "disjoint_intervals_vanish", abs(disjoint), 0.0))

    # Canonical table on the pipeline's standard vacuum spectrum.
    vacuum_pair = pipe.vacuum_pair
    canonical, assembly = pipe.canonical
    zeros = (
        abs(canonical.vacuum_moment(canonical.creation, qsi.flipped(delta), canonical.annihilation, delta_prime))
        + abs(canonical.vacuum_moment(canonical.creation, qsi.flipped(delta), canonical.creation, delta_prime))
        + abs(canonical.vacuum_moment(canonical.annihilation, qsi.flipped(delta), canonical.annihilation, delta_prime))
    )
    out.append(_result("qsi", "canonical_zeros", zeros, 0.0))
    pairing = canonical.vacuum_moment(
        canonical.annihilation, qsi.flipped(delta), canonical.creation, delta_prime
    )
    expected = step * np.count_nonzero(delta & delta_prime & canonical.support)
    out.append(_result("qsi", "canonical_pairing", abs(pairing - expected), 0.0))
    assembled = (
        _maxabs(assembly.noise.plus - vacuum_pair.kappa)
        + _maxabs(assembly.reverse.plus - vacuum_pair.kappa_rev)
    )
    out.append(_result("qsi", "vacuum_assembly", assembled, 1e-12))

    # Output pair over the canonical support, with the configured amplitudes.
    sigma = np.sqrt(pair.kappa)
    sigma_rev = np.sqrt(pair.kappa_rev)
    output_pair = qsi.build_output_pair(canonical, sigma, sigma_rev)
    support = canonical.support
    expected_densities = {
        ("output", "output"): sigma * sigma,
        ("reverse", "output"): sigma_rev * sigma,
        ("output", "reverse"): sigma * sigma_rev,
        ("reverse", "reverse"): sigma_rev * sigma_rev,
    }
    density_scale = max(_maxabs(sigma) ** 2, 1e-300)
    worst = 0.0
    for (first, second), expected in expected_densities.items():
        got = output_pair.density(first, second)
        worst = max(worst, _maxabs(got[support] - expected[support]))
    out.append(_result("qsi", "output_table", worst / density_scale, 1e-12))

    degenerate = support & (sigma_rev == sigma)
    if degenerate.any():
        try:
            qsi.recover_canonical(output_pair)
            raised = False
        except DegenerateRecoveryError:
            raised = True
        out.append(_result("qsi", "degenerate_recovery_guard", 0.0 if raised else 1.0, 0.0))
    recoverable = support & ~degenerate
    if recoverable.any():
        recovered = qsi.recover_canonical(output_pair, where=recoverable)
        on = recoverable
        roundtrip = max(
            _maxabs(recovered.creation.plus[on] - 1.0),
            _maxabs(recovered.creation.minus[on]),
            _maxabs(recovered.annihilation.minus[on] - 1.0),
            _maxabs(recovered.annihilation.plus[on]),
        )
        out.append(_result("qsi", "canonical_roundtrip", roundtrip, 0.0))

    # Isometry of the mean-square integral against the Gram-matrix oracle.
    model = pipe.model
    nu = grid.points
    a = 1.0 / (1.0 + nu**2)
    c = 1j * nu / (1.0 + nu**2)
    forward, backward = qsi.isometry_check(a, c, pair)
    out.append(_result("qsi", "isometry_nonnegative", max(0.0, -forward, -backward), 0.0))
    zeta = np.sqrt(eps) * kernel_of(a, step)
    xi = np.sqrt(eps) * kernel_of(c, step)

    def gram(z, x):
        value = (
            z.conj() @ (model.K @ z)
            + z.conj() @ (model.G @ x)
            + x.conj() @ (model.G @ z)
            + x.conj() @ (model.K_rev @ x)
        )
        return float(value.real)

    scale = max(abs(forward), abs(backward), 1e-300)
    defect = max(
        abs(forward - gram(zeta, xi)), abs(backward - gram(np.conj(zeta), np.conj(xi)))
    )
    out.append(_result("qsi", "isometry_gram_oracle", defect / scale, 1e-9))

    out.append(_result("qsi", "reflection_symmetry", qsi.reflection_symmetry_check(model), 1e-10))

    # Fourier-Parseval bridge of the time-domain filter coefficients.
    kernels = qsi.time_domain_representation(sigma, grid, eps)
    phi_minus, phi_plus = kernels.coefficient_pair(a, c)
    f_minus = a * sigma_rev + c * sigma
    f_plus = a * sigma + c * sigma_rev
    parseval_scale = max(_maxabs(f_plus), _maxabs(f_minus), 1e-300)
    defect = max(
        _maxabs(spectrum_of(phi_minus, eps) - f_minus),
        _maxabs(spectrum_of(phi_plus, eps) - f_plus),
    )
    out.append(_result("qsi", "parseval_bridge", defect / parseval_scale, 1e-10))

    # Cross-module consistency with the synthesis spectra.
    consistency = _maxabs(
        output_pair.density("output", "output")[support] - pipe.synthesized.kappa_out[support]
    ) / density_scale
    out.append(_result("qsi", "synthesis_consistency", consistency, 1e-12))
    return out


def mode_checks() -> list[CheckResult]:
    from . import mode_algebra
    out = []
    for n in (0.0, 0.5, 1.0, 2.0, 10.0):
        noise, reverse = mode_algebra.thermal_pair(n)
        noise_dag = noise.dagger()
        reverse_dag = reverse.dagger()
        worst = max(
            abs(mode_algebra.expectation(noise_dag, noise) - n),
            abs(mode_algebra.expectation(noise, noise_dag) - (n + 1.0)),
            abs(mode_algebra.expectation(reverse_dag, reverse) - (n + 1.0)),
            abs(mode_algebra.expectation(reverse, reverse_dag) - n),
            abs(mode_algebra.expectation(reverse, noise_dag) - np.sqrt(n * (n + 1.0))),
            abs(mode_algebra.commutator(reverse, noise)),
            abs(mode_algebra.commutator(reverse, noise_dag)),
            abs(mode_algebra.commutator(noise, noise_dag) - 1.0),
            abs(mode_algebra.commutator(reverse_dag, reverse) - 1.0),
        )
        out.append(_result("mode", f"thermal_table_n={n:g}", worst, 1e-12))
        mode_a, mode_c = mode_algebra.invert_pair(noise, reverse, n)
        roundtrip = max(
            _maxabs(mode_a.coefficients - mode_algebra.A.coefficients),
            _maxabs(mode_c.coefficients - mode_algebra.C.coefficients),
        )
        out.append(_result("mode", f"inversion_n={n:g}", roundtrip, 1e-14))
    return out


def run_all(pair: SpectralDensityPair | Pipeline, eps: float | None = None,
            tol_factor: float = 1.0) -> list[CheckResult]:
    """All suites on a pipeline, or on a pair at ``eps``, with optional tolerance scaling."""
    pipe = pair if isinstance(pair, Pipeline) else Pipeline(pair, eps)
    results = []
    results += spectra_checks(pipe)
    results += stationary_checks(pipe)
    results += modular_checks(pipe)
    results += decomposition_checks(pipe)
    results += synthesis_checks(pipe)
    results += qsi_checks(pipe)
    results += mode_checks()
    if tol_factor != 1.0:
        results = [
            replace(
                r,
                tolerance=r.tolerance * tol_factor,
                passed=bool(r.residual <= r.tolerance * tol_factor),
            )
            for r in results
        ]
    return results
