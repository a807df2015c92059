"""The benchmark trajectory's compare: end-to-end metrics side by side, with quartiles, pairs and verdicts."""
import functools
import importlib.util
import json
import sys
from pathlib import Path

from qnoise.pipeline import Pipeline

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
spec = importlib.util.spec_from_file_location("bench", TOOL)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def _trajectory(path, label, values):
    """A trajectory of `verify` runs, one per seed, with these op_p50_ref and verify_pass_frac values."""
    runs = [{"workload": "verify", "seed": seed, "seconds": 36.0, "commit": "abc1234", "env": {"numpy": "2.4.6"},
             "inputs": "sha256=00", "result": {"correct": True, "attempted": 100, "failed": 0, "metrics": {
                 "op_p50_ref": {"value": p50, "unit": "ref"}, "verify_pass_frac": {"value": frac, "unit": "ratio"}}}}
            for seed, (p50, frac) in enumerate(values, start=41)]
    path.write_text(json.dumps({"label": label, "runs": runs}))
    return str(path)


def test_compare_prints_medians_quartiles_and_the_pairs_b_wins(tmp_path, capsys):
    a = _trajectory(tmp_path / "a.json", "parent", [(0.070, 0.99), (0.068, 0.99), (0.072, 0.99), (0.069, 0.99)])
    b = _trajectory(tmp_path / "b.json", "change", [(0.071, 1.0), (0.067, 1.0), (0.070, 1.0), (0.070, 0.98)])
    assert bench.compare(a, b) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "A = parent, B = change: median [q1, q3] (runs)"
    assert out[1] == "verify:"
    # op_p50_ref is better lower: B wins the pairs of seeds 42 and 43
    assert out[2] == ("  op_p50_ref: A 0.0695 [0.06875, 0.0705] (4)  B 0.07 [0.06925, 0.07025] (4)"
                      "  +0.7%, B better in 2 of 4 pairs; gain: not resolved (only 4 pairs,"
                      " B better in under 9/10 of them, median gain not above A's IQR); worse beyond bound 0.25: no")
    # verify_pass_frac is better higher: B wins 3 pairs and loses seed 44's
    assert out[3] == ("  verify_pass_frac: A 0.99 [0.99, 0.99] (4)  B 1 [0.995, 1] (4)  +1.0%, B better in 3 of 4 pairs;"
                      " gain: not resolved (only 4 pairs, B better in under 9/10 of them); worse beyond bound 0.01: no")


def _verdicts(tmp_path, capsys, a_values, b_values) -> dict:
    """The verdict part of each metric line of comparing two hand-written trajectories."""
    a = _trajectory(tmp_path / "a.json", "parent", a_values)
    b = _trajectory(tmp_path / "b.json", "change", b_values)
    assert bench.compare(a, b) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    return {line.split(":")[0].strip(): line.split("pairs; ", 1)[1] for line in lines}


def test_compare_says_whether_a_gain_resolves_and_whether_b_is_worse_beyond_the_bound(tmp_path, capsys):
    parent = [(0.070 + 0.001 * (i % 3), 0.99) for i in range(10)]  # op_p50_ref: median 0.071, IQR 0.00175
    # B better in all 10 pairs, its median 0.0665 below A's by more than A's IQR
    verdicts = _verdicts(tmp_path, capsys, parent, [(x - 0.0045, f) for x, f in parent])
    assert verdicts["op_p50_ref"] == "gain: resolved; worse beyond bound 0.25: no"
    # B better in 8 of 10 pairs (a tie and a loss): not nine tenths
    change = [(x - 0.0045, f) for x, f in parent[:8]] + [parent[8], (parent[9][0] + 0.001, 0.99)]
    verdicts = _verdicts(tmp_path, capsys, parent, change)
    assert verdicts["op_p50_ref"] == "gain: not resolved (B better in under 9/10 of them); worse beyond bound 0.25: no"
    # B better in every pair by less than A's IQR
    verdicts = _verdicts(tmp_path, capsys, parent, [(x - 0.0005, f) for x, f in parent])
    assert verdicts["op_p50_ref"] == "gain: not resolved (median gain not above A's IQR); worse beyond bound 0.25: no"
    # B's median 30% above A's: worse than the bound of 25%
    verdicts = _verdicts(tmp_path, capsys, parent, [(x * 1.3, f) for x, f in parent])
    assert verdicts["op_p50_ref"] == ("gain: not resolved (B better in under 9/10 of them, median gain not above"
                                      " A's IQR); worse beyond bound 0.25: yes")
    # verify_pass_frac is better higher: 0.97 against 0.99 is 2% worse, beyond its bound of 1%
    verdicts = _verdicts(tmp_path, capsys, parent, [(x, 0.97) for x, _ in parent])
    assert verdicts["verify_pass_frac"].endswith("worse beyond bound 0.01: yes")


def test_compare_pairs_the_runs_of_a_repeated_seed_in_order(tmp_path, capsys):
    # Four runs of one seed each, as repeated calls without --seed record:
    # B beats the A run it alternates with in 3 of the 4 pairs.
    a = _trajectory(tmp_path / "a.json", "parent", [(1.0, 1.0), (1.1, 1.0), (1.2, 1.0), (1.3, 1.0)])
    b = _trajectory(tmp_path / "b.json", "change", [(0.9, 1.0), (1.0, 1.0), (1.1, 1.0), (1.5, 1.0)])
    for path in (a, b):
        data = json.loads(Path(path).read_text())
        for run in data["runs"]:
            run["seed"] = 1
        Path(path).write_text(json.dumps(data))
    assert bench.compare(a, b) == 0
    assert ", B better in 3 of 4 pairs;" in capsys.readouterr().out.splitlines()[2]


def test_compare_names_a_workload_in_one_file_only(tmp_path, capsys):
    a = _trajectory(tmp_path / "a.json", "one", [(0.07, 0.99)])
    data = json.loads(Path(a).read_text())
    data["runs"][0]["workload"] = "large-grid"
    b = tmp_path / "b.json"
    b.write_text(json.dumps(data))
    assert bench.compare(a, str(b)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["large-grid: in one file only", "verify: in one file only"]


def test_sweep_times_the_chain_and_run_all_at_both_lengths_of_one_k():
    record = bench.sweep(TOOL.parent.parent, (6,))
    assert [(row["k"], row["kind"], row["n"]) for row in record["rows"]] == [(6, "2^k+1", 65), (6, "3^a*5^b", 75)]
    for row in record["rows"]:
        assert row["checks"] == row["passed"] == 73
        for key in ("chain_s", "chain_peak_rss_mb", "run_all_s", "run_all_peak_rss_mb"):
            assert row[key] > 0, key
    assert record["numpy"] and record["python"]


def test_the_nearest_odd_smooth_length_is_a_product_of_threes_and_fives():
    assert [bench._nearest_odd_smooth(2**k + 1) for k in (6, 10, 16, 20)] == [75, 1125, 59049, 1171875]
    assert bench._nearest_odd_smooth(2) == 1 and bench._nearest_odd_smooth(4) == 3  # 3 is nearer than 5


def test_the_sweep_child_reads_every_pipeline_stage(monkeypatch, capsys):
    # The "chain" a sweep times is the whole chain: every cached stage of
    # Pipeline, the output pair included, as the equivalence ledger digests.
    stages = [name for name, value in vars(Pipeline).items() if isinstance(value, functools.cached_property)]
    assert stages[0] == "seq" and stages[-1] == "output"
    monkeypatch.syspath_prepend(str(TOOL.parent))
    monkeypatch.setattr(sys, "argv", ["-c", "chain", "9"])
    namespace = {}
    exec(bench._SWEEP_CHILD, namespace)
    assert [stage for stage in stages if stage not in vars(namespace["pipe"])] == []
    assert json.loads(capsys.readouterr().out)["seconds"] > 0
    from equivalence import stages as derived
    assert derived(Pipeline) == stages
