"""Benchmark trajectory: end-to-end benchmark runs kept as committed files.

    python tools/bench.py --label L [--workload W ...] [--seed N] [--seconds S] [--root DIR]
        runs perfbench/run.py of the checkout DIR (this one by default) once
        per workload, untraced, and appends each run to tools/bench/BENCH_L.json
    python tools/bench.py --compare A B
        prints each end-to-end metric of two files side by side, each a label or a path
    python tools/bench.py --sweep L [--root DIR]
        times the public chain and ``verification.run_all`` of the checkout DIR
        over n, traces each verify suite's peak, and writes tools/bench/SWEEP_L.json

A file is a JSON object ``{"label": L, "runs": [...]}``.  A run holds the
workload, the seed, the seconds, the checkout's commit (``git describe
--always --dirty``), the ``env:`` and ``inputs:`` lines of perfbench's output
and its last line, the JSON object with every end-to-end metric.  Runs are
appended, so alternating pairs of two checkouts are taken by alternating
calls with two labels.  Nothing of ``perfbench/`` is changed or imported.

``--compare`` gives, per workload and metric, the median of each file's runs
with its quartiles and run count, the change of the medians, and, over the
seeds both files ran, the number of pairs in which B is better (by the
direction ``BENCHMARK.json`` gives); a seed's i-th run in A pairs with its
i-th run in B.  It then says whether B resolves a gain
over A: at least 10 pairs, B better in at least nine tenths of them (a tie
counts for neither), and B's median better than A's by more than A's
interquartile range.  Last, for a metric with a ``bound`` in
``BENCHMARK.json``, it says whether B's median is worse than A's by more
than that fraction of A's.

``--sweep`` runs Planck (beta = h = 1, nu_max = 8, step = 16/(n - 1)) at
n = 2**k + 1 and at the odd 5-smooth n = 3**a * 5**b nearest to it, for
k = 6 ... 20, so the two lengths part the algorithm's cost from that of
pocketfft's large-prime path.  At each n, one fresh process reads every
``Pipeline`` stage of the pair (``equivalence.stages``) and another calls
``run_all(pair)``, which builds its own.  Each process imports every module
first, then reports the wall time of that call alone and its peak RSS
(``ru_maxrss``, the interpreter and numpy included).  After its peak RSS is
read, the chain's process calls each suite of ``verification`` that reads a
pipeline alone on the built chain, under ``tracemalloc``, and reports the
traced peak of each call: what the suite allocates above the chain.  Up to
n = 16,385 a suite reads the grid tables an earlier suite of the same grid
left, so a table counts toward the first suite that builds it.  The file holds
the checkout's commit, the Python and numpy versions and one row per n.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
BENCH = TOOLS / "bench"


def _path(name: str) -> Path:
    return Path(name) if name.endswith(".json") else BENCH / f"BENCH_{name}.json"


def _commit(root: Path) -> str | None:
    """The checkout's ``git describe --always --dirty``, or None outside a git checkout."""
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, capture_output=True, text=True)
    return commit.stdout.strip() or None


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of ``workload`` in the checkout ``root``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    start = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines if ": " in line}
    return {"workload": workload, "seed": seed, "seconds": seconds, "commit": _commit(root),
            "env": json.loads(start["env"]), "inputs": start["inputs"], "result": json.loads(lines[-1])}


def record(label: str, root: Path, workloads: list[str], seed: int, seconds: float) -> Path:
    path = _path(label)
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    for workload in workloads:
        runs.append(bench_run(root, workload, seed, seconds))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"label": label, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _by_seed(runs: list[dict], values: list[float]) -> dict[int, list[float]]:
    """The values of runs, in run order, by seed."""
    out = {}
    for run, value in zip(runs, values):
        out.setdefault(run["seed"], []).append(value)
    return out


#: The fewest pairs of runs that can resolve a gain.
MIN_PAIRS = 10


def _verdict(a: tuple[float, float, float], b_median: float, wins: int, pairs: int, higher: bool,
             bound: float | None) -> str:
    """Whether B resolves a gain over A, of quartiles ``a``, winning ``wins`` of
    ``pairs``, and whether B's median is worse than A's by more than ``bound`` of it."""
    a1, a2, a3 = a
    gain = b_median - a2 if higher else a2 - b_median  # positive where B's median is the better one
    missed = [reason for reason, short in ((f"only {pairs} pairs", pairs < MIN_PAIRS),
                                           ("B better in under 9/10 of them", 10 * wins < 9 * pairs),
                                           ("median gain not above A's IQR", gain <= a3 - a1)) if short]
    text = f"gain: {'not resolved (' + ', '.join(missed) + ')' if missed else 'resolved'}"
    if bound is not None:
        text += f"; worse beyond bound {bound:g}: {'yes' if -gain > bound * abs(a2) else 'no'}"
    return text


def compare(first: str, second: str) -> int:
    """Print each end-to-end metric of two trajectory files side by side, with its verdict."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    higher = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    files = [json.loads(_path(name).read_text(encoding="utf-8")) for name in (first, second)]
    print(f"A = {files[0]['label']}, B = {files[1]['label']}: median [q1, q3] (runs)")
    by_workload = [{} for _ in files]
    for runs, data in zip(by_workload, files):
        for run in data["runs"]:
            runs.setdefault(run["workload"], []).append(run)
    for workload in sorted(by_workload[0].keys() & by_workload[1].keys()):
        a_runs, b_runs = by_workload[0][workload], by_workload[1][workload]
        print(f"{workload}:")
        for name in a_runs[0]["result"]["metrics"]:
            a = [run["result"]["metrics"][name]["value"] for run in a_runs]
            b = [run["result"]["metrics"][name]["value"] for run in b_runs]
            (a1, a2, a3), (b1, b2, b3) = _quartiles(a), _quartiles(b)
            change = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
            # the i-th run of a seed in A pairs with the i-th run of that seed in B
            a_by_seed, b_by_seed = _by_seed(a_runs, a), _by_seed(b_runs, b)
            pairs = [pair for seed, xs in a_by_seed.items() for pair in zip(xs, b_by_seed.get(seed, ()))]
            better = sum((y > x) if higher.get(name) else (y < x) for x, y in pairs)
            print(f"  {name}: A {a2:.6g} [{a1:.6g}, {a3:.6g}] ({len(a)})  B {b2:.6g} [{b1:.6g}, {b3:.6g}] ({len(b)})"
                  f"  {change}, B better in {better} of {len(pairs)} pairs;"
                  f" {_verdict((a1, a2, a3), b2, better, len(pairs), higher.get(name), bounds.get(name))}")
    for workload in sorted(by_workload[0].keys() ^ by_workload[1].keys()):
        print(f"{workload}: in one file only")
    return 0


#: The k of n = 2**k + 1 a sweep runs.
SWEEP_KS = range(6, 21)

#: What a sweep's fresh process runs: argv[1] is "chain" or "run_all", argv[2] is n.
_SWEEP_CHILD = """
import json, resource, sys, time, tracemalloc
import numpy
from qnoise import decomposition, mode_algebra, qsi, spectra, stationary, synthesis, verification
from qnoise.pipeline import Pipeline
from equivalence import stages
what, n = sys.argv[1], int(sys.argv[2])
pair = spectra.planck_density(1.0, 1.0, spectra.make_grid(n, 16.0 / (n - 1)))
start = time.perf_counter()
if what == "chain":
    pipe = Pipeline(pair, 1.0 / (n * pair.grid.step))
    for stage in stages(Pipeline):
        getattr(pipe, stage)
    out = {}
else:
    checks = verification.run_all(pair)
    out = {"checks": len(checks), "passed": sum(c.passed for c in checks)}
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
if what == "chain":
    out["suite_peak_mb"] = {}
    for suite in ("spectra", "stationary", "modular", "decomposition", "synthesis", "qsi"):
        tracemalloc.start()
        getattr(verification, suite + "_checks")(pipe)
        out["suite_peak_mb"][suite] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
print(json.dumps({"seconds": seconds, "peak_rss_mb": peak, "numpy": numpy.__version__, **out}))
"""


def _nearest_odd_smooth(n: int) -> int:
    """The n' = 3**a * 5**b nearest to n, the smaller of two at equal distance."""
    candidates, five = [], 1
    while five <= 2 * n:
        odd = five
        while odd <= 2 * n:
            candidates.append(odd)
            odd *= 3
        five *= 5
    return min(candidates, key=lambda m: (abs(m - n), m))


def _sweep_process(root: Path, what: str, n: int) -> dict:
    # the stage list comes from this tool's directory, the qnoise it times from the checkout's
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(TOOLS))), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _SWEEP_CHILD, what, str(n)], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep {what} at n = {n}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sweep(root: Path, ks=SWEEP_KS) -> dict:
    """The chain and run_all of the checkout ``root`` at n = 2**k + 1 and its nearest 3**a * 5**b."""
    rows, numpy_version = [], None
    for k in ks:
        for kind, n in (("2^k+1", 2**k + 1), ("3^a*5^b", _nearest_odd_smooth(2**k + 1))):
            chain, checked = _sweep_process(root, "chain", n), _sweep_process(root, "run_all", n)
            numpy_version = chain.pop("numpy")
            rows.append({"k": k, "kind": kind, "n": n, "chain_s": chain["seconds"],
                         "chain_peak_rss_mb": chain["peak_rss_mb"], "run_all_s": checked["seconds"],
                         "run_all_peak_rss_mb": checked["peak_rss_mb"], "checks": checked["checks"],
                         "passed": checked["passed"], "suite_peak_mb": chain["suite_peak_mb"]})
    return {"commit": _commit(root), "python": platform.python_version(), "numpy": numpy_version,
            "cpus": os.cpu_count(), "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="append runs to tools/bench/BENCH_<label>.json")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two trajectory files")
    group.add_argument("--sweep", metavar="L", help="write the chain and run_all sweep to tools/bench/SWEEP_<L>.json")
    parser.add_argument("--workload", action="append", help="a workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout whose perfbench runs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.sweep:
        path = BENCH / f"SWEEP_{args.sweep}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"label": args.sweep, **sweep(args.root.resolve())}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    path = record(args.label, args.root.resolve(), workloads, args.seed, args.seconds)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
