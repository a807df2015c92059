"""One benchmark process: set up a workload, measure it, print one JSON line.

Started by run.py, which times the set-up from the moment it starts this
process to the first timed op.

Untraced (``--trace 0``), the workload runs in a closed loop with one
client for ``--seconds``, from op ``--first-op`` of its cycle.  The
workload's reference task runs right before each op and once after the
last; the raw latencies of both are reported, and run.py pools them over
several workers.  Traced (``--trace 1``), it runs the whole schedule
untraced for half the time, then runs the same ops again under the
tracer; the per-layer metrics come from the second pass and the
difference of the two passes is the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports numpy and qnoise: part of set-up)
from tracing import Tracer  # noqa: E402

#: Fresh interpreters timed for cli.import_s.
IMPORT_SAMPLES = 5


@dataclass
class Pass:
    start: float
    latencies: list = field(default_factory=list)
    references: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    checks_run: int = 0
    checks_failed: int = 0


def describe(spec: dict) -> str:
    if "command" in spec:
        return f"{spec['command']} {spec['config'] or ''}".strip()
    return f"{spec['kind']} n={spec['n']}"


def measure(workload, ops, *, seconds=None, count=None, first=0, corrupt_every=0, tracer=None,
            reference=False) -> Pass:
    """Closed loop, one client: the next op starts when the last has ended.

    Runs ops ``first``, ``first + 1``, ... of the schedule, for ``seconds``
    (at least one op) or for ``count`` ops.  With ``reference``, the
    reference task is timed right before each op and once after the last,
    so that each op latency has a measure of the machine's speed on either
    side of it.
    """
    def time_reference() -> None:
        t0 = time.perf_counter()
        ops.reference()
        result.references.append(time.perf_counter() - t0)

    result = Pass(start=time.monotonic())
    deadline = result.start + (seconds or 0.0)
    i = first
    while i < first + count if count is not None else i == first or time.monotonic() < deadline:
        spec = workload.input(i)
        ops.prepare(spec)
        if reference:
            time_reference()
        error = None
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = ops.run(spec)
        except Exception as exc:  # a failed op is counted, the loop goes on
            error = f"raised {type(exc).__name__}: {exc}"
        result.latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = -1
        if error is None:
            if corrupt_every and (i + 1) % corrupt_every == 0:
                out = ops.corrupt(out)
            try:
                fails, run, failed = ops.check(spec, out)
            except Exception as exc:  # output too broken to check: a failed op
                fails, run, failed = [f"check raised {type(exc).__name__}: {exc}"], 0, 0
            del out  # a large-grid model must not live on through the next op
            result.checks_run += run
            result.checks_failed += failed
            if fails:
                error = "output check failed: " + ", ".join(fails)
        if error:
            result.failures.append(f"op {i} ({describe(spec)}): {error}")
        i += 1
    if reference:
        time_reference()
    return result


def import_seconds() -> float:
    """Median time of ``import qnoise.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import qnoise.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def traced_run(args, workload, ops) -> tuple[dict, dict, list, int]:
    untraced = measure(workload, ops, seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, ops, count=len(untraced.latencies),
                         corrupt_every=args.corrupt_every, tracer=tracer)
    finally:
        tracer.uninstall()
    count = len(traced.latencies)
    commands = {i: workload.input(i)["command"] for i in range(count)} if args.workload == "cli-reference" else {}
    metrics = tracer.metrics(count, commands)
    artifacts = (OUT / "cli").rglob("*") if commands else []
    metrics["cli.import_s"] = import_seconds()
    metrics["cli.artifact_bytes"] = sum(p.stat().st_size for p in artifacts if p.is_file())
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(untraced.latencies) - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    notes = {"ops": count, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    failures = untraced.failures + traced.failures
    return metrics, notes, failures, len(untraced.latencies) + count


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def fingerprint() -> dict:
    import numpy as np

    import qnoise

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qnoise": qnoise.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-every", type=int, default=0)
    parser.add_argument("--first-op", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed, args.tiny)
    digest = workload.digest()
    built = time.monotonic()
    ops = workloads.make_ops(args.workload, OUT / "cli", in_process=bool(args.trace), tiny=args.tiny)
    reference_build_s = time.monotonic() - built
    if args.trace:
        ready_at = time.monotonic()
        metrics, notes, failures, attempted = traced_run(args, workload, ops)
        report = {"metrics": metrics, "notes": notes, "failures": failures, "attempted": attempted}
    else:
        run = measure(workload, ops, seconds=args.seconds, first=len(workload.first) + args.first_op,
                      corrupt_every=args.corrupt_every, reference=True)
        # Building the reference task's inputs is the benchmark's own set-up.
        ready_at = run.start - reference_build_s
        report = {
            "latencies": run.latencies,
            "references": run.references,
            "failures": run.failures,
            "checks_run": run.checks_run,
            "checks_failed": run.checks_failed,
            "peak_rss_kb": ops.peak_rss_kb(),
            "next_op": args.first_op + len(run.latencies),
            "loop_s": time.monotonic() - run.start,
        }
    print(json.dumps({"ready_at": ready_at, "inputs_sha256": digest, "env": fingerprint(), **report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
