"""Load on demand: each entry point loads only the qnoise modules it reads,
and the lazy package keeps the public namespace it always had."""
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qnoise as qn
from qnoise import stationary

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG = REPO_ROOT / "configs" / "planck.json"

#: ``qnoise.__all__`` as it has always been, in order.
PUBLIC = """
A A_DAG C C_DAG CanonicalPair ComponentSplit CorrelationSequence DegenerateRecoveryError
EmptySupportError INPUT_TO_OUTPUT IntegratorTable MIXED MeasureSymbol ModeOperator
ModularFilter NonFiniteError NotInvertibleError NotPositiveDefiniteError NotVacuumError
OUTPUT_TO_INPUT OutputPair Pipeline STANDARD_THERMAL STANDARD_VACUUM SpectralAmplitudes
SpectralDensityPair SpectralGrid StandardPair StationaryFilterKernels StationaryModel
SynthesisResult THERMAL ThetaKernels TimeDomainFilter TransmissionFilter VACUUM
VacuumAssembly WHITE best_estimate build_model build_output_pair build_standard_pair
canonical_from_vacuum classify coefficient_norm commutator correlation_sequence
expectation flat_density integrator_table interval_mask invert_pair isometry_check
make_grid modular_kernels_theta modular_matrix planck_density recover_canonical
reflection_symmetry_check spectral_amplitudes split synthesize tabulated_density
thermal_pair time_domain_filter time_domain_representation transmission_function
""".split()
SUBMODULES = sorted(
    "decomposition errors fourier mode_algebra pipeline qsi spectra stationary synthesis".split()
)

CLI = {"cli", "errors", "pipeline", "spectra"}
EVERYTHING = CLI | {
    "decomposition", "fourier", "mode_algebra", "qsi", "stationary", "synthesis", "verification",
}
LOADED = {
    "spectrum": CLI,
    "mode": CLI | {"mode_algebra"},
    "synth": CLI | {"fourier", "synthesis"},
    "qsi": CLI | {"fourier", "qsi"},
    "decompose": CLI | {"fourier", "stationary", "decomposition"},
    "corr": CLI | {"fourier", "stationary", "verification"},
    "verify": EVERYTHING,
}


def run_fresh(code: str) -> list:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set:
    listing = "import json, sys\nprint(json.dumps([m[7:] for m in sys.modules if m.startswith('qnoise.')]))"
    return set(run_fresh(f"{code}\n{listing}"))


def test_import_qnoise_loads_no_submodule():
    assert loaded_after("import qnoise") == set()


def test_import_cli_loads_only_what_main_needs():
    assert loaded_after("import qnoise.cli") == CLI


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_the_modules_it_reads(command, tmp_path):
    if command == "mode":
        argv = ["mode", "--n", "2"]
    else:
        argv = [command, "--config", str(CONFIG), "--out", str(tmp_path)]
    code = f"from qnoise.cli import main\nassert main({argv!r}) == 0"
    assert loaded_after(code) == LOADED[command]


def test_all_keeps_every_public_name():
    assert qn.__all__ == PUBLIC
    assert set(PUBLIC + SUBMODULES) <= set(dir(qn))


def test_every_public_name_resolves_to_its_home_module_object():
    namespace = {}
    exec("from qnoise import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(qn, name)
    assert qn.build_model is stationary.build_model


def test_submodules_resolve_as_attributes_without_an_import():
    code = (
        "import json, qnoise\n"
        f"print(json.dumps([getattr(qnoise, name).__name__ for name in {SUBMODULES!r}]))"
    )
    assert run_fresh(code) == [f"qnoise.{name}" for name in SUBMODULES]
    assert all(isinstance(getattr(qn, name), types.ModuleType) for name in SUBMODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qn.no_such_name
    assert not hasattr(qn, "verification_suite")
