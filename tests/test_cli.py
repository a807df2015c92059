import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qnoise.cli import ConfigError, build_pair, load_config, main

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {
    "planck": REPO_ROOT / "configs" / "planck.json",
    "flat": REPO_ROOT / "configs" / "flat.json",
    "mixed": REPO_ROOT / "configs" / "mixed.json",
}
FLAT = {"model": "flat", "sigma2": 1.0, "n_points": 5, "step": 1.0}
HUGE = 10**400  # a JSON integer beyond the float range


def run(*argv):
    return main([str(part) for part in argv])


def read_tree(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestConfigLoading:
    def test_reference_configs_load(self):
        for path in CONFIGS.values():
            config = load_config(str(path))
            assert config.n_points * config.step * config.eps == pytest.approx(1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "flat", "sigma2": 1.0, "n_points": 5, "step": 1.0, "sigm2": 2}')
        with pytest.raises(Exception, match="unknown config keys"):
            load_config(str(path))

    def test_wrong_model_params_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "flat", "beta": 1.0, "sigma2": 1.0, "n_points": 5, "step": 1.0}')
        with pytest.raises(Exception, match="unknown config keys"):
            load_config(str(path))

    def test_inconsistent_eps_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "flat", "sigma2": 1.0, "n_points": 5, "step": 1.0, "eps": 0.3}')
        with pytest.raises(Exception, match="duality"):
            load_config(str(path))


class TestExitCodes:
    def test_verify_reference_configs_exit_zero(self, tmp_path, capsys):
        for name, config in CONFIGS.items():
            code = run("verify", "--config", config, "--out", tmp_path / name)
            assert code == 0, capsys.readouterr().out
            assert (tmp_path / name / "verify_report.json").exists()

    def test_verify_with_impossible_tolerance_exits_one(self, tmp_path):
        code = run(
            "verify",
            "--config",
            CONFIGS["planck"],
            "--out",
            tmp_path,
            "--tol",
            "1e-16",
        )
        assert code == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_pass"] is False

    @pytest.mark.filterwarnings("error")
    def test_verify_reports_an_underflowed_cross_density_as_failed(self, tmp_path):
        # gamma = sqrt(1e-200 * 1e-200) underflows to 0 while the synthesized
        # one is 1e-200: the relative defect is inf, reported, not a warning.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"model": "flat", "sigma2": 1e-200, "n_points": 33, "step": 0.5}))
        assert run("verify", "--config", path, "--out", tmp_path / "out") == 1
        # strict JSON (RFC 8259 has no Infinity): the residual is the string "inf"
        text = (tmp_path / "out" / "verify_report.json").read_text()
        report = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
        failed = {f"{c['suite']}/{c['check']}": c["residual"] for c in report["checks"] if not c["pass"]}
        assert failed == {"synthesis/reproduce_gamma": "inf"}

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tol, tmp_path, capsys):
        code = run("verify", "--config", CONFIGS["planck"], "--out", tmp_path / "out", "--tol", tol)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("spectrum", "--config", bad, "--out", tmp_path) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_tabulated_value_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"model": "tabulated", "values": [1.0, -2.0, 1.0], "n_points": 3, "step": 1.0}
            )
        )
        assert run("spectrum", "--config", bad, "--out", tmp_path) == 2

    def test_even_point_count_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "flat", "sigma2": 1.0, "n_points": 4, "step": 1.0}))
        assert run("spectrum", "--config", bad, "--out", tmp_path) == 2

    def test_infinite_beta_exits_two(self, tmp_path, capsys):
        text = CONFIGS["planck"].read_text().replace('"beta": 1.0', '"beta": Infinity')
        assert "Infinity" in text
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("verify", "--config", bad, "--out", tmp_path / "out") == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["spectrum", "corr", "verify"])
    def test_nan_tabulated_value_exits_two(self, command, tmp_path, capsys):
        raw = json.loads(CONFIGS["mixed"].read_text())
        raw["values"][5] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run(command, "--config", bad, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert not (tmp_path / "out").exists()

    def test_nan_tabulated_value_past_the_parser_is_a_config_error(self):
        config = load_config(str(CONFIGS["mixed"]))
        values = list(config.params["values"])
        values[5] = float("nan")
        bad = dataclasses.replace(config, params={"values": values})
        with pytest.raises(ConfigError, match="finite"):
            build_pair(bad)

    def test_missing_config_file_exits_two(self, tmp_path):
        assert run("spectrum", "--config", tmp_path / "nope.json", "--out", tmp_path) == 2

    def test_negative_mode_occupation_exits_two(self, capsys):
        assert run("mode", "--n", "-1") == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["nan", "inf"])
    def test_non_finite_mode_occupation_exits_two(self, n, capsys):
        assert run("mode", "--n", n) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "config error" in err and "finite" in err

    @pytest.mark.parametrize(
        "raw",
        [
            {**FLAT, "n_points": True},
            {**FLAT, "step": "1"},
            {key: value for key, value in FLAT.items() if key != "step"},
            {**FLAT, "tol": 0},
            {**FLAT, "delta": [1]},
            {**FLAT, "out": 3},
            {"model": "tabulated", "values": [True], "n_points": 1, "step": 1.0},
            {"model": "planck", "h": 1.0, "n_points": 5, "step": 1.0},
            {**FLAT, "model": "pink"},
            {**FLAT, "model": ["flat"]},
            {"model": "planck", "beta": 1e-300, "h": 1.0, "n_points": 33, "step": 0.25},
            {"model": "planck", "beta": 89.0, "h": 1.0, "n_points": 65, "step": 0.25},
            {"model": "flat", "sigma2": 1e308, "n_points": 33, "step": 0.25},
            {"model": "planck", "beta": 1.0, "h": 1e306, "n_points": 33, "step": 0.25},
            {"model": "flat", "sigma2": 1.0, "n_points": 3, "step": 1e308},
            {"model": "flat", "sigma2": 1.0, "n_points": 3, "step": 5e-324},
            {"model": "flat", "sigma2": 1.0, "n_points": 3, "step": 1e308, "eps": 0},
            {**FLAT, "step": HUGE},
            {**FLAT, "eps": HUGE},
            {**FLAT, "tol": HUGE},
            {**FLAT, "n_points": HUGE},
            {"model": "planck", "beta": HUGE, "h": 1.0, "n_points": 5, "step": 1.0},
            {**FLAT, "sigma2": HUGE},
            {"model": "tabulated", "values": [1, HUGE, 1], "n_points": 3, "step": 1.0},
            {**FLAT, "delta": [0, HUGE]},
        ],
        ids=[
            "bool_n_points",
            "string_step",
            "missing_step",
            "zero_tol",
            "one_bound_delta",
            "number_out",
            "bool_values",
            "missing_beta",
            "unknown_model",
            "list_model",
            "tiny_beta",
            "cold_beta",
            "huge_sigma2",
            "huge_h",
            "overflowing_span",
            "infinite_eps",
            "zero_eps",
            "huge_integer_step",
            "huge_integer_eps",
            "huge_integer_tol",
            "huge_integer_n_points",
            "huge_integer_beta",
            "huge_integer_sigma2",
            "huge_integer_value",
            "huge_integer_delta",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejected_config_exits_two(self, raw, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run("spectrum", "--config", bad, "--out", tmp_path / "out") == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    @pytest.mark.parametrize("name", ["planck", "flat", "mixed"])
    def test_byte_identical_reruns(self, name, tmp_path, capsys):
        outputs = []
        for label in ("first", "second"):
            out_dir = tmp_path / label
            for command in ("spectrum", "corr", "decompose", "synth", "qsi", "verify"):
                assert run(command, "--config", CONFIGS[name], "--out", out_dir) == 0
            outputs.append(read_tree(out_dir))
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestEmptySpectrum:
    def test_zero_level_flat_runs_clean_everywhere(self, tmp_path, capsys):
        cfg = tmp_path / "zero.json"
        cfg.write_text(
            json.dumps({"model": "flat", "sigma2": 0.0, "n_points": 9, "step": 0.5})
        )
        for command in ("spectrum", "corr", "decompose", "synth", "qsi", "verify"):
            assert run(command, "--config", cfg, "--out", tmp_path / "out") == 0
        capsys.readouterr()
        with open(tmp_path / "out" / "spectrum.csv", newline="") as handle:
            assert list(csv.DictReader(handle)) == []


class TestArtifacts:
    def test_spectrum_csv_content(self, tmp_path):
        assert run("spectrum", "--config", CONFIGS["planck"], "--out", tmp_path) == 0
        with open(tmp_path / "spectrum.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 65
        for row in rows:
            nu = float(row["nu"])
            diff = float(row["kappa_rev"]) - float(row["kappa"])
            assert diff == pytest.approx(nu, rel=1e-12, abs=1e-12)
            assert row["region"] == "Theta"

    def test_flat_spectrum_csv_constant_columns(self, tmp_path):
        assert run("spectrum", "--config", CONFIGS["flat"], "--out", tmp_path) == 0
        with open(tmp_path / "spectrum.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 33
        assert all(float(row["kappa"]) == 1.0 for row in rows)
        assert all(float(row["lambda"]) == 1.0 for row in rows)
        assert all(float(row["gamma"]) == 1.0 for row in rows)

    def test_planck_synth_summary_error(self, tmp_path, capsys):
        assert run("synth", "--config", CONFIGS["planck"], "--out", tmp_path) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("max relative")][0]
        assert float(line.split("=")[1]) <= 1e-10

    def test_mixed_spectrum_csv_drops_nothing_but_labels_regions(self, tmp_path):
        assert run("spectrum", "--config", CONFIGS["mixed"], "--out", tmp_path) == 0
        with open(tmp_path / "spectrum.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        regions = {row["region"] for row in rows}
        assert regions == {"N+", "N-", "Theta"}

    def test_synth_summary_reports_small_error(self, tmp_path, capsys):
        assert run("synth", "--config", CONFIGS["mixed"], "--out", tmp_path) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("max relative")][0]
        assert float(line.split("=")[1]) <= 1e-10
        with open(tmp_path / "synth_spectrum.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(float(row["rel_error"]) <= 1e-10 for row in rows)

    def test_corr_residuals_all_pass(self, tmp_path):
        assert run("corr", "--config", CONFIGS["planck"], "--out", tmp_path) == 0
        report = json.loads((tmp_path / "corr_residuals.json").read_text())
        assert report["all_pass"] is True
        assert report["invertible"] is True
        first = report["checks"][0]
        assert set(first) == {"suite", "check", "residual", "tolerance", "pass"}
        kernels = (tmp_path / "corr_kernels.csv").read_text().splitlines()
        names = {line.split(",")[0] for line in kernels[1:]}
        assert names == {"k", "k_rev", "r", "l_half", "l_inv_half"}

    def test_decompose_report_residual_matches_vacuum_mass(self, tmp_path):
        assert run("decompose", "--config", CONFIGS["mixed"], "--out", tmp_path) == 0
        report = json.loads((tmp_path / "decompose_report.json").read_text())
        assert report["residual_norm2"] == pytest.approx(
            report["residual_norm2_expected"], abs=1e-12
        )
        regions = {point["region"] for point in report["points"]}
        assert regions == {"N+", "N-", "Theta"}

    def test_qsi_table_structure(self, tmp_path):
        assert run("qsi", "--config", CONFIGS["flat"], "--out", tmp_path) == 0
        table = json.loads((tmp_path / "qsi_table.json").read_text())
        assert table["canonical_vacuum_moments"]["creation_annihilation"] == 0.0
        assert table["canonical_vacuum_moments"]["annihilation_creation"] > 0.0
        assert set(table["integrator_second_moments"]) == {
            "noise_dag_noise",
            "noise_dag_reverse",
            "reverse_dag_noise",
            "reverse_dag_reverse",
        }

    def test_qsi_custom_interval_bounds(self, tmp_path):
        cfg = tmp_path / "custom.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "flat",
                    "sigma2": 1.0,
                    "n_points": 9,
                    "step": 0.5,
                    "delta": [0.0, 1.0],
                    "delta_prime": [0.5, 2.0],
                }
            )
        )
        assert run("qsi", "--config", cfg, "--out", tmp_path) == 0
        table = json.loads((tmp_path / "qsi_table.json").read_text())
        assert table["delta"] == [0.0, 1.0]
        assert table["delta_prime"] == [0.5, 2.0]
        # overlap cells {0.5, 1.0} with unit density: moment = 2 * step
        assert table["integrator_second_moments"]["noise_dag_noise"] == pytest.approx(1.0)

    def test_mode_json_table(self, capsys):
        assert run("mode", "--n", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        table = payload["correlations_dag_first"]
        assert table["noise_dag_noise"] == pytest.approx(2.0, abs=1e-12)
        assert table["reverse_dag_reverse"] == pytest.approx(3.0, abs=1e-12)
        assert payload["correlations_dag_second"]["noise_noise_dag"] == pytest.approx(
            3.0, abs=1e-12
        )
        assert payload["correlations_dag_first"]["reverse_dag_noise"] == pytest.approx(
            np.sqrt(6.0), abs=1e-12
        )
        assert payload["commutators"]["reverse_noise"] == pytest.approx(0.0, abs=1e-12)
