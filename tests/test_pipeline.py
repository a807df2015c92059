from pathlib import Path

import numpy as np
import pytest

import qnoise as qn
from qnoise import cli, spectra, stationary, synthesis, verification
from qnoise.pipeline import Pipeline

from oracles import mixed_kappa

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def build_counts(monkeypatch):
    """Calls of the two chain builders, counted through their module attributes."""
    counts = {"correlation_sequence": 0, "build_model": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(stationary, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stationary, name, counted)
    return counts


def test_run_all_builds_the_chain_once(planck_setup, build_counts):
    _, pair, eps = planck_setup
    results = verification.run_all(pair, eps)
    assert any(r.suite == "modular" for r in results)
    assert build_counts == {"correlation_sequence": 1, "build_model": 1}


def test_corr_command_builds_the_chain_once(tmp_path, build_counts, capsys):
    config = REPO_ROOT / "configs" / "planck.json"
    assert cli.main(["corr", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert build_counts == {"correlation_sequence": 1, "build_model": 1}


def test_verify_command_builds_one_pipeline(tmp_path, build_counts, monkeypatch, capsys):
    built = []
    original = Pipeline.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "__init__", counted)
    config = REPO_ROOT / "configs" / "planck.json"
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    assert build_counts == {"correlation_sequence": 1, "build_model": 1}


def test_run_all_reads_the_pipeline_it_is_given(planck_setup):
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    results = verification.run_all(pipe)
    assert "model" in vars(pipe) and "canonical" in vars(pipe)
    assert results == verification.run_all(pair, eps)


def test_stages_are_built_once_and_shared(planck_setup):
    _, pair, eps = planck_setup
    pipe = Pipeline(pair, eps)
    assert pipe.model is pipe.model
    assert np.array_equal(pipe.model.eigenvalues, qn.build_model(pipe.seq).eigenvalues)
    assert isinstance(pipe.filt, qn.ModularFilter)
    assert pipe.synthesized is pipe.synthesized
    assert pipe.canonical is pipe.canonical
    assert pipe.output is pipe.output


def test_singular_model_has_no_filter(mixed_setup):
    _, pair, eps = mixed_setup
    assert Pipeline(pair, eps).filt is None


def test_vacuum_pair_is_the_configured_pair_only_if_standard_vacuum(vacuum_setup, planck_setup):
    _, vacuum, eps = vacuum_setup
    assert Pipeline(vacuum, eps).vacuum_pair is vacuum
    grid, planck, eps = planck_setup
    reference = Pipeline(planck, eps).vacuum_pair
    assert reference is not planck
    assert np.array_equal(reference.kappa, (grid.points < 0).astype(float))


def _public_chain(pair, occupation=1.5):
    """Every public stage of one density pair, called one by one as a user would."""
    grid = pair.grid
    eps = 1.0 / (grid.n_points * grid.step)
    qn.classify(pair)
    model = qn.build_model(qn.correlation_sequence(pair, eps))
    if model.invertible:
        qn.modular_matrix(model)
    qn.best_estimate(qn.split(model, pair), qn.INPUT_TO_OUTPUT)
    if pair.theta.any():
        qn.modular_kernels_theta(pair, eps)
    transmission = qn.transmission_function(pair)
    qn.synthesize(transmission, transmission.standard)
    qn.time_domain_filter(transmission, eps)
    table = qn.integrator_table(pair)
    half = qn.interval_mask(grid, 0.0, grid.nu_max)
    everywhere = qn.interval_mask(grid, -grid.nu_max, grid.nu_max)
    for first in ("noise", "reverse"):
        for second in ("noise", "reverse"):
            table.second_moment(first, half, second, everywhere)
    canonical, _ = qn.canonical_from_vacuum(qn.tabulated_density((grid.points < 0).astype(float), grid))
    output = qn.build_output_pair(canonical, pair.sigma, pair.sigma_rev)
    qn.recover_canonical(output, where=pair.sigma != pair.sigma_rev)
    b, b_out = qn.thermal_pair(occupation)
    qn.invert_pair(b, b_out, occupation)


@pytest.mark.parametrize("kind, transforms", [("planck", 5), ("tabulated", 4)])
def test_public_chain_makes_a_fixed_number_of_transforms_and_pair_builds(monkeypatch, kind, transforms):
    # At n = 1025 one FFT call each builds the correlation sequence, the model,
    # the modular filter (of an invertible model only), the theta kernels and
    # the transmission kernel; three density pairs are built: the input, its
    # standard pair and the vacuum pair of the canonical measures.
    calls = {"fft": 0, "ifft": 0, "_pair_from_kappa": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (spectra, "_pair_from_kappa"),
                         (synthesis, "_pair_from_kappa")):
        count(module, name)
    grid = qn.make_grid(1025, 16.0 / 1024)
    pair = (qn.planck_density(1.0, 1.0, grid) if kind == "planck"
            else qn.tabulated_density(mixed_kappa(grid), grid))
    _public_chain(pair)
    assert (calls["fft"] + calls["ifft"], calls["_pair_from_kappa"]) == (transforms, 3), calls
