"""The equivalence ledger's compare: moved bits are listed, a changed verdict fails."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)


def _ledger(path, residual, passed="1", tolerance="1e-12"):
    lines = [{"numpy": "2.4.6"},
             {"input": "planck/n=9", "checks": {"stationary": [f"dft_consistency {tolerance} {passed} {residual}"]},
              "stages": {"seq": "ab"}},
             {"input": "large-grid/seed=1", "run_chain": ["cd"]}]
    path.write_text("[\n" + ",\n".join(json.dumps(line) for line in lines) + "\n]\n")
    return str(path)


def test_compare_lists_moved_residuals_and_fails_only_on_a_changed_verdict(tmp_path, capsys):
    base = _ledger(tmp_path / "a.json", (1e-16).hex())
    assert equivalence.compare(base, _ledger(tmp_path / "same.json", (1e-16).hex())) == 0
    assert "no residual or digest moved" in capsys.readouterr().out
    assert equivalence.compare(base, _ledger(tmp_path / "moved.json", (3e-16).hex())) == 0
    assert "moved: residual stationary/dft_consistency on 1 inputs, largest change 2e-16" in capsys.readouterr().out
    assert equivalence.compare(base, _ledger(tmp_path / "failed.json", (3e-12).hex(), passed="0")) == 1
    assert equivalence.compare(base, _ledger(tmp_path / "looser.json", (1e-16).hex(), tolerance="1e-10")) == 1
