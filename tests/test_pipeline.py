from pathlib import Path

import numpy as np
import pytest

import qnoise as qn
from qnoise import cli, stationary, verification
from qnoise.pipeline import Pipeline

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
