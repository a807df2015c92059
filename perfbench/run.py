"""qnoise benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
The metric names, units and bounds are those of ``BENCHMARK.json``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric, with ``--trace 1`` every per-layer metric.  The
lines before it give the environment fingerprint, the digest of the
generated inputs, the tail percentile with its sample count, the error
share and the first failed ops.

The workload runs in worker processes (worker.py).  An untraced run is
measured by SEGMENTS workers in turn.  Op latencies are reported in units
of the workload's reference task (see measure).  Set-up is the time from
starting a worker to its first timed op, and setup_s is the median over
the workers.  Every worker regenerates the inputs from the seed, and the run
fails unless all of them report the same input digest.

``--smoke`` is the benchmark's own test: every workload at tiny sizes for
one second, traced and untraced, must print exactly the metrics that
BENCHMARK.json names, and a run whose outputs are deliberately corrupted
must count the corrupted ops as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workers that measure one untraced run in turn, each for an equal share
#: of the time and continuing the schedule where the last one stopped.
#: Op speed differs from process to process by more than it drifts within
#: one, so pooling the ops of several workers steadies the medians; the
#: set-up of each worker is one setup_s sample.
SEGMENTS = 7
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: A run must end well within the 180 s every run is allowed.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


#: Workloads whose BLAS may use every CPU; the others use one thread.  On
#: a machine of few shared cores, a BLAS thread pool as wide as the cores
#: stalls at every synchronisation whenever any other process runs: the
#: many small LAPACK calls of ``run_all`` at n = 257 then took 37 times
#: as long, so timings followed whatever else the machine ran.  The large
#: products of large-grid do not suffer so.
WIDE_BLAS = ("large-grid",)


def child_env(workload: str) -> dict:
    """The environment of every process the benchmark starts."""
    threads = str(len(os.sched_getaffinity(0)) if workload in WIDE_BLAS else 1)
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads}


def start(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a worker; return (seconds from its start to its ready mark, its report).

    The worker gets its own process group, so that on a timeout the CLI
    subprocesses it may have started are killed with it.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{stderr[-3000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["ready_at"] - started, report


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(args, argv: list[str], env: dict, deadline: float) -> tuple[dict, dict, set]:
    """Untraced run: (report of the last worker, metrics, input digests).

    Each op latency is divided by the mean latency of the reference task
    timed right before and right after it, in the same process.  The
    machine's speed drifts with whatever else the host runs, and op and
    reference slow down together, so their ratio keeps the op's own cost
    and drops most of the drift.
    """
    setups, digests, medians = [], set(), []
    latencies, references, relative, failures = [], [], [], []
    checks_run, checks_failed, peak_kb, next_op = 0, 0, 0, 0
    measured = 0.0
    for k in range(SEGMENTS):
        share = max(args.seconds - measured, 0.0) / (SEGMENTS - k)
        setup, report = start([*argv, "--seconds", str(share), "--first-op", str(next_op)], env, deadline)
        setups.append(setup)
        digests.add(report["inputs_sha256"])
        measured += report["loop_s"]
        latencies += report["latencies"]
        around = report["references"]
        references += around
        relative += [op / (0.5 * (before + after))
                     for op, before, after in zip(report["latencies"], around, around[1:])]
        medians.append(statistics.median(report["latencies"]))
        failures += report["failures"]
        checks_run += report["checks_run"]
        checks_failed += report["checks_failed"]
        peak_kb = max(peak_kb, report["peak_rss_kb"])
        next_op = report["next_op"]
    tail_value, tail_pct = tail(relative)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ref": statistics.median(relative),
        "op_tail_ref": tail_value,
        "ops_per_ref": len(relative) / sum(relative),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - len(failures) / len(latencies),
        "verify_pass_frac": 1.0 - checks_failed / checks_run if checks_run else 1.0,
    }
    report.update(failures=failures, attempted=len(latencies))
    raw_tail, _ = tail(latencies)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    print("op_p50_s per worker: " + " ".join(f"{m:.6g}" for m in medians))
    print(f"seconds: op p50 {statistics.median(latencies):.6g}, op tail {raw_tail:.6g}, "
          f"ops/s {len(latencies) / sum(latencies):.6g}, reference p50 {statistics.median(references):.6g}")
    print(f"ops: {len(latencies)} in {measured:.1f} s; op_tail_ref is p{tail_pct:.1f}, "
          f"with {min(TAIL_BEYOND, len(latencies) - 1)} samples beyond it")
    print(f"error_frac: {len(failures) / len(latencies)} ({len(failures)} of {len(latencies)} ops)")
    print(f"verify checks: {checks_run} run, {checks_failed} failed")
    return report, metrics, digests


def run(args, spec: dict) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qnoise" / "__init__.py").is_file():
        raise BenchError(f"no qnoise package under {ROOT / 'src'}; run from a full checkout")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.corrupt_every:
        argv += ["--corrupt-every", str(args.corrupt_every)]
    env = child_env(args.workload)

    if args.trace:
        _, report = start([*argv, "--seconds", str(args.seconds)], env, deadline)
        metrics, digests = report["metrics"], {report["inputs_sha256"]}
        notes = report["notes"]
        print(f"traced ops: {notes['ops']}, spans: {notes['spans']}, written to {notes['spans_file']}")
    else:
        report, metrics, digests = measure(args, argv, env, deadline)
    if len(digests) != 1:
        raise BenchError(f"workers generated different inputs from one seed: {sorted(digests)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {sorted(names - set(metrics))}, "
                         f"unexpected {sorted(set(metrics) - names)}")

    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(f"inputs: sha256={digests.pop()}"
          + ("" if args.trace else f" (the same in all {SEGMENTS} workers)"))
    failures = report["failures"]
    for failure in failures[:5]:
        print("failed: " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def smoke(spec: dict) -> int:
    def bench(workload: str, trace: int, *extra: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 5,
        )
        if proc.returncode != 0:
            raise BenchError(f"smoke {workload} trace={trace} {extra}: exit {proc.returncode}\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in spec[kind]}:
                raise BenchError(f"smoke {workload} trace={trace}: metric names or units differ")
            if not result["correct"] or result["failed"]:
                raise BenchError(f"smoke {workload} trace={trace}: failed ops on clean outputs")
        result = bench(workload, 0, "--corrupt-every", "2")
        if result["correct"] or not result["failed"] or result["metrics"]["ok_frac"]["value"] >= 1.0:
            raise BenchError(f"smoke {workload}: corrupted outputs were not counted as errors")
        print(f"smoke {workload}: ok ({result['failed']} of {result['attempted']} corrupted ops caught)")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test only)")
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="corrupt every k-th output before checking it (smoke test only)")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.smoke:
            return smoke(spec)
        if not args.workload:
            parser.error("--workload is required")
        return run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
