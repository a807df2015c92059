"""Batch front end: config-driven pipeline runs with CSV/JSON artifacts.

Configs are flat JSON objects.  Every run declares a spectrum model plus
the grid, and optionally the time step (derived from the duality
n*step*eps = 1 when omitted):

    {"model": "planck", "beta": 1.0, "h": 1.0, "n_points": 65, "step": 0.25}
    {"model": "flat", "sigma2": 1.0, "n_points": 33, "step": 0.25}
    {"model": "tabulated", "values": [...], "n_points": 17, "step": 0.5}

Optional keys: "eps", "out" (output directory), "tol" (tolerance factor
for verify), "delta" and "delta_prime" ([lo, hi] interval bounds for the
qsi table).  Unknown keys are rejected.

Each command imports the modules it reads when it runs, so a run loads
only its own branch of the chain.

Exit codes: 0 all good, 1 a mathematical check failed (verify only),
2 input/config error.  Identical configs produce byte-identical output
files; floats are printed with 17 significant digits in CSV.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .pipeline import Pipeline
    from .spectra import SpectralDensityPair


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_GLOBAL_KEYS = {"model", "n_points", "step", "eps", "out", "tol", "delta", "delta_prime"}
_MODEL_KEYS = {
    "planck": {"beta", "h"},
    "flat": {"sigma2"},
    "tabulated": {"values"},
}
_REQUIRED_KEYS = {"n_points", "step"}


@dataclass(frozen=True)
class RunConfig:
    model: str
    params: dict
    n_points: int
    step: float
    eps: float
    out: str | None
    tol: float
    delta: tuple[float, float] | None
    delta_prime: tuple[float, float] | None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_interval(value) -> bool:
    return value is None or (_is_numbers(value) and len(value) == 2)


_NUMBER = ("a number", _is_number)
_INTERVAL = ("a [lo, hi] pair of numbers", _is_interval)

#: What the value of each key other than "model" must be: (description, test).
_KEY_TYPES = {
    "n_points": ("an integer", lambda value: _is_number(value) and isinstance(value, int)),
    "step": _NUMBER,
    "eps": _NUMBER,
    "tol": _NUMBER,
    "out": ("a string path", lambda value: value is None or isinstance(value, str)),
    "delta": _INTERVAL,
    "delta_prime": _INTERVAL,
    "beta": _NUMBER,
    "h": _NUMBER,
    "sigma2": _NUMBER,
    "values": ("a list of numbers", _is_numbers),
}


def _finite_number(text: str, parse=float):
    if not np.isfinite(float(text)):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return parse(text)


def _floats(value):
    return None if value is None else tuple(float(v) for v in value)


def load_config(path: str) -> RunConfig:
    """Parse and validate a flat JSON run configuration."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number,
                         parse_int=lambda digits: _finite_number(digits, int))  # an integer is read as a float too
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    model = raw.get("model")
    if not isinstance(model, str) or model not in _MODEL_KEYS:
        raise ConfigError(
            f"config key 'model' must be one of {sorted(_MODEL_KEYS)}, got {model!r}"
        )
    unknown = sorted(set(raw) - _GLOBAL_KEYS - _MODEL_KEYS[model])
    if unknown:
        raise ConfigError(f"unknown config keys for model {model!r}: {unknown}")
    missing = sorted((_REQUIRED_KEYS | _MODEL_KEYS[model]) - set(raw))
    if missing:
        raise ConfigError(f"missing config keys for model {model!r}: {missing}")
    for key, value in raw.items():
        if key != "model":
            kind, valid = _KEY_TYPES[key]
            if not valid(value):
                raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")

    n_points, step = raw["n_points"], float(raw["step"])
    if n_points <= 0 or step <= 0:
        raise ConfigError("n_points and step must be positive")
    if "eps" in raw:
        eps = float(raw["eps"])
        if abs(n_points * step * eps - 1.0) > 1e-9:
            raise ConfigError(
                f"eps breaks the duality n*step*eps = 1 (got {n_points * step * eps!r})"
            )
    else:
        eps = 1.0 / (n_points * step)
    if not 0.0 < eps < np.inf:
        raise ConfigError(f"eps must be finite and positive, got {eps!r}")
    tol = float(raw.get("tol", 1.0))
    if tol <= 0:
        raise ConfigError("config key 'tol' must be positive")

    params = {
        key: [float(v) for v in raw[key]] if key == "values" else float(raw[key])
        for key in sorted(_MODEL_KEYS[model])
    }
    return RunConfig(
        model=model,
        params=params,
        n_points=n_points,
        step=step,
        eps=eps,
        out=raw.get("out"),
        tol=tol,
        delta=_floats(raw.get("delta")),
        delta_prime=_floats(raw.get("delta_prime")),
    )


def build_pair(config: RunConfig) -> SpectralDensityPair:
    """Construct the configured spectrum; any rejection is a config error."""
    from . import spectra
    try:
        grid = spectra.make_grid(config.n_points, config.step)
        if config.model == "planck":
            return spectra.planck_density(config.params["beta"], config.params["h"], grid)
        if config.model == "flat":
            return spectra.flat_density(config.params["sigma2"], grid)
        return spectra.tabulated_density(np.array(config.params["values"]), grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    import csv
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)  # strict JSON: no Infinity or NaN
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _check_entry(check) -> dict:
    """A check as JSON, a non-finite residual or tolerance as the string "inf", "-inf" or "nan"."""
    def number(x: float):
        return x if math.isfinite(x) else repr(float(x))
    return {"suite": check.suite, "check": check.check, "residual": number(check.residual),
            "tolerance": number(check.tolerance), "pass": check.passed}


def _region_labels(pair: SpectralDensityPair) -> np.ndarray:
    return np.select([pair.n_plus, pair.n_minus, pair.theta], ["N+", "N-", "Theta"], "dropped")


def _kernel_rows(lags, eps: float, kernel, *label: str) -> list:
    return [
        [*label, int(j), eps * int(j), kernel[i].real, kernel[i].imag]
        for i, j in enumerate(lags)
    ]


def cmd_spectrum(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    pair = pipe.pair
    columns = (
        pair.grid.points,
        pair.kappa,
        pair.kappa_rev,
        pair.lambda_theta,
        pair.gamma,
        _region_labels(pair),
    )
    rows = list(zip(*(column[pair.retained] for column in columns)))
    _write_csv(out_dir / "spectrum.csv", ["nu", "kappa", "kappa_rev", "lambda", "gamma", "region"], rows)
    print(f"wrote {out_dir / 'spectrum.csv'} ({len(rows)} retained points)")
    return 0


def cmd_corr(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    from . import verification
    seq = pipe.seq
    lags = seq.lags
    rows = []
    rows += _kernel_rows(lags, seq.eps, seq.values, "k")
    rows += _kernel_rows(lags, seq.eps, seq.values[::-1], "k_rev")
    rows += _kernel_rows(lags, seq.eps, seq.cross, "r")
    if pipe.filt is not None:
        rows += _kernel_rows(lags, seq.eps, pipe.filt.kernel_half, "l_half")
        rows += _kernel_rows(lags, seq.eps, pipe.filt.kernel_inv_half, "l_inv_half")
    _write_csv(out_dir / "corr_kernels.csv", ["kernel", "j", "t", "real", "imag"], rows)

    checks = verification.stationary_checks(pipe) + verification.modular_checks(pipe)
    _write_json(
        out_dir / "corr_residuals.json",
        {
            "checks": [_check_entry(c) for c in checks],
            "all_pass": all(c.passed for c in checks),
            "invertible": pipe.model.invertible,
        },
    )
    print(f"wrote {out_dir / 'corr_kernels.csv'} and corr_residuals.json")
    return 0


def cmd_decompose(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    from . import decomposition
    pair, parts = pipe.pair, pipe.parts
    estimate, residual, norm2, expected = decomposition.input_to_output(parts)
    columns = (
        pair.grid.points,
        _region_labels(pair),
        pair.theta,
        pair.lambda_theta,
        parts.amp,
        parts.amp_rev,
        estimate,
        residual,
    )
    points = [
        {
            "nu": nu,
            "region": region,
            "lambda": lam if theta else None,
            "amp": amp,
            "amp_rev": amp_rev,
            "estimate_input_to_output": est,
            "residual": res,
        }
        for nu, region, theta, lam, amp, amp_rev, est, res in zip(
            *(column[pair.retained] for column in columns)
        )
    ]
    _write_json(
        out_dir / "decompose_report.json",
        {
            "points": points,
            "residual_norm2": norm2,
            "residual_norm2_expected": expected,
        },
    )
    rows = []
    if pair.theta.any():
        kernels = decomposition.modular_kernels_theta(pair, pipe.eps)
        rows += _kernel_rows(kernels.lags, kernels.eps, kernels.kernel_half, "theta_half")
        rows += _kernel_rows(kernels.lags, kernels.eps, kernels.kernel_inv_half, "theta_inv_half")
    _write_csv(out_dir / "decompose_kernels.csv", ["kernel", "j", "t", "real", "imag"], rows)
    print(f"wrote {out_dir / 'decompose_report.json'} and decompose_kernels.csv")
    return 0


def cmd_synth(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    from . import synthesis
    pair, filt, reproduced = pipe.pair, pipe.transmission, pipe.synthesized.kappa_out
    rel = synthesis.relative_error(reproduced, pair.kappa, pair.kappa > 0)[pair.retained]
    columns = (pair.grid.points, filt.f, filt.standard.kappa, filt.standard.kappa_rev, reproduced, pair.kappa)
    rows = zip(*(column[pair.retained] for column in columns), rel)
    _write_csv(
        out_dir / "synth_spectrum.csv",
        ["nu", "f", "kappa_std", "kappa_rev_std", "kappa_reproduced", "kappa_target", "rel_error"],
        rows,
    )
    time_filter = synthesis.time_domain_filter(filt, pipe.eps)
    _write_csv(
        out_dir / "synth_kernel.csv",
        ["j", "t", "real", "imag"],
        _kernel_rows(time_filter.lags, time_filter.eps, time_filter.phi),
    )
    print(f"max relative spectrum error = {_fmt(rel.max(initial=0.0))}")
    print(f"wrote {out_dir / 'synth_spectrum.csv'} and synth_kernel.csv")
    return 0


def cmd_qsi(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    from . import qsi
    pair = pipe.pair
    grid = pair.grid
    default, default_prime = qsi._default_bounds(grid)
    delta_bounds, delta_prime_bounds = config.delta or default, config.delta_prime or default_prime
    try:
        delta = qsi.interval_mask(grid, *delta_bounds)
        delta_prime = qsi.interval_mask(grid, *delta_prime_bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    integrator, ordered, outputs = qsi.moment_tables(pair, pipe.output, delta, delta_prime)
    _write_json(
        out_dir / "qsi_table.json",
        {
            "delta": list(delta_bounds),
            "delta_prime": list(delta_prime_bounds),
            "integrator_second_moments": integrator,
            "canonical_vacuum_moments": {name: value.real for name, value in ordered.items()},
            "output_second_moments": {name: value.real for name, value in outputs.items()},
            "vacuum_reference": "configured pair" if pipe.vacuum_pair is pair else "half-line indicator",
        },
    )
    print(f"wrote {out_dir / 'qsi_table.json'}")
    return 0


def cmd_mode(n: float) -> int:
    from . import mode_algebra
    try:
        noise, reverse = mode_algebra.thermal_pair(n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        name: {entry: value.real for entry, value in table.items()}
        for name, table in mode_algebra.thermal_tables(noise, reverse).items()
    }
    print(json.dumps({"n": n, **payload}, indent=2, sort_keys=True))
    return 0


def cmd_verify(config: RunConfig, pipe: Pipeline, out_dir: Path) -> int:
    from . import verification
    checks = verification.run_all(pipe, tol_factor=config.tol)
    all_pass = all(c.passed for c in checks)
    _write_json(
        out_dir / "verify_report.json",
        {"checks": [_check_entry(c) for c in checks], "all_pass": all_pass},
    )
    failures = [c for c in checks if not c.passed]
    for failure in failures:
        print(
            f"FAIL {failure.suite}/{failure.check}: residual {_fmt(failure.residual)} "
            f"> tolerance {_fmt(failure.tolerance)}"
        )
    verdict = "PASS" if all_pass else "FAIL"
    print(f"verify: {verdict} ({len(checks) - len(failures)}/{len(checks)} checks)")
    return 0 if all_pass else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a JSON run config")
    common.add_argument("--out", default=None, help="output directory (default ./qnoise_out)")
    common.add_argument(
        "--tol", type=float, default=None, help="tolerance factor for verify checks"
    )
    parser = argparse.ArgumentParser(
        prog="qnoise",
        description="Covariance-level toolkit for stationary quantum noise "
        "and its time-reversed output process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    mode = sub.add_parser("mode", help="single-mode thermal pair tables")
    mode.add_argument("--n", type=float, required=True, help="occupation number (>= 0)")
    return parser


#: The config-driven commands: (function, help text).
_COMMANDS = {
    "spectrum": (cmd_spectrum, "tabulate the configured spectrum"),
    "corr": (cmd_corr, "correlation and modular filter kernels"),
    "decompose": (cmd_decompose, "vacuum/thermal split and estimates"),
    "synth": (cmd_synth, "standard pair and transmission function"),
    "qsi": (cmd_qsi, "stochastic integration tables"),
    "verify": (cmd_verify, "run every identity check"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "mode":
            return cmd_mode(args.n)
        config = load_config(args.config)
        if args.tol is not None:
            if not (np.isfinite(args.tol) and args.tol > 0):
                raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
            config = replace(config, tol=float(args.tol))
        from .pipeline import Pipeline
        pipe = Pipeline(build_pair(config), config.eps)
        out_dir = Path(args.out or config.out or "qnoise_out")
        out_dir.mkdir(parents=True, exist_ok=True)
        command, _ = _COMMANDS[args.command]
        return command(config, pipe, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
