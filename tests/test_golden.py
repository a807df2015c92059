"""The reference CLI commands reproduce the digests the benchmark recorded.

``perfbench/expected.json`` holds, for each command on the reference
configs, the exit code and a digest of every artifact; check reports are
digested by their check names and pass flags only.  The test reads them
through the benchmark's own ``workloads.cli_outputs``, so both compare the
same way.
"""
import sys
from pathlib import Path

import pytest

from qnoise.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
import workloads  # noqa: E402

COMMANDS = [
    (config, command) for config in workloads.CONFIGS for command in workloads.CONFIG_COMMANDS
] + [(None, "mode")]


@pytest.mark.parametrize(
    "config, command", COMMANDS, ids=[f"{config or 'none'}/{command}" for config, command in COMMANDS]
)
def test_reference_command_matches_recorded_digests(config, command, tmp_path, capsys):
    if command == "mode":
        argv = ["mode", "--n", workloads.MODE_OCCUPATION]
    else:
        argv = [command, "--config", str(REPO_ROOT / "configs" / f"{config}.json"), "--out", str(tmp_path)]
    code = main(argv)
    stdout = capsys.readouterr().out.encode()
    got = workloads.cli_outputs(command, config, code, stdout, tmp_path)
    assert got == workloads.EXPECTED["cli"][f"{config or 'none'}/{command}"]
