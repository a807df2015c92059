"""Record the reference outputs the benchmark's output checks compare against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json from the program as it is now:

* ``cli``: for every reference command, the exit code and the sha256 of
  each artifact (and of the ``mode`` stdout).  For the check reports
  (verify_report.json, corr_residuals.json) only the check names, pass
  flags and verdict are digested.
* ``verify_checks``: per spectrum kind, the (suite, check) names that
  ``run_all`` reports.  The script fails if one kind gives different name
  sets at different sizes or draws, because the check could then not tell
  a lost check from a legitimately different input.

The file was recorded at the commit that introduced the benchmark.  Record
it again only for a deliberate, reviewed change of the program's outputs.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record_cli(out_root: Path) -> dict:
    runner = workloads.CliRunner(out_root, in_process=True)
    jobs = [(c, cfg) for cfg in workloads.CONFIGS for c in workloads.CONFIG_COMMANDS]
    expected = {}
    for command, config in [*jobs, ("mode", None)]:
        spec = {"command": command, "config": config}
        runner.prepare(spec)
        code, stdout = runner.run(spec)
        out_dir = runner.out_dir(command, config)
        expected[f"{config or 'none'}/{command}"] = workloads.cli_outputs(command, config, code, stdout, out_dir)
    return expected


def record_verify_names() -> dict:
    names: dict[str, tuple] = {}
    for seed in range(3):
        for tiny in (True, False):
            workload = workloads.make_workload("verify", seed, tiny)
            for spec in workload.first + workload.cycle[:10]:
                got = tuple(sorted((r.suite, r.check) for r in workloads.run_verify(spec)))
                if names.setdefault(spec["kind"], got) != got:
                    raise SystemExit(f"{spec['kind']} n={spec['n']}: check names depend on the draw")
    return {kind: [list(name) for name in got] for kind, got in sorted(names.items())}


def main() -> int:
    out_root = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=HERE.parent))
    try:
        expected = {"cli": record_cli(out_root), "verify_checks": record_verify_names()}
    finally:
        shutil.rmtree(out_root)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {HERE / 'expected.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
