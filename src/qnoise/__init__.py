"""Covariance-level toolkit for stationary quantum noise.

Models a stationary quantum noise and its time-reversed fundamental
output at second order: flip-symmetric spectra, circulant covariance
realizations, vacuum/thermal decomposition with modular filters, linear
synthesis from standard noise, and table-level quantum stochastic
integration.

Names load on first use: ``import qnoise`` imports none of the
submodules, and reading a public name such as ``qnoise.build_model``
imports its home module then.  So a program that reads one branch of the
chain loads only that branch.
"""
from importlib import import_module

__version__ = "0.1.0"

#: Home module of every public name.
_EXPORTS = {
    "decomposition": (
        "INPUT_TO_OUTPUT", "OUTPUT_TO_INPUT", "ComponentSplit", "ThetaKernels",
        "best_estimate", "modular_kernels_theta", "split",
    ),
    "errors": (
        "DegenerateRecoveryError", "EmptySupportError", "NonFiniteError",
        "NotInvertibleError", "NotPositiveDefiniteError", "NotVacuumError",
    ),
    "mode_algebra": (
        "A", "A_DAG", "C", "C_DAG", "ModeOperator", "commutator", "expectation",
        "invert_pair", "thermal_pair",
    ),
    "pipeline": ("Pipeline",),
    "qsi": (
        "CanonicalPair", "IntegratorTable", "MeasureSymbol", "OutputPair",
        "StationaryFilterKernels", "VacuumAssembly", "build_output_pair",
        "canonical_from_vacuum", "integrator_table", "interval_mask", "isometry_check",
        "recover_canonical", "reflection_symmetry_check", "time_domain_representation",
    ),
    "spectra": (
        "MIXED", "STANDARD_THERMAL", "STANDARD_VACUUM", "THERMAL", "VACUUM", "WHITE",
        "SpectralDensityPair", "SpectralGrid", "classify", "flat_density", "make_grid",
        "planck_density", "tabulated_density",
    ),
    "stationary": (
        "CorrelationSequence", "ModularFilter", "SpectralAmplitudes", "StationaryModel",
        "build_model", "coefficient_norm", "correlation_sequence", "modular_matrix",
        "spectral_amplitudes",
    ),
    "synthesis": (
        "StandardPair", "SynthesisResult", "TimeDomainFilter", "TransmissionFilter",
        "build_standard_pair", "synthesize", "time_domain_filter", "transmission_function",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: Submodules readable as attributes of the package without importing them first.
_SUBMODULES = frozenset(_EXPORTS) | {"fourier"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
