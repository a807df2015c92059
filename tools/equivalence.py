"""Equivalence ledger: every verify residual and chain digest of a fixed input set, to the bit.

    PYTHONPATH=src python tools/equivalence.py --label L
        writes tools/ledgers/LEDGER_L.json
    python tools/equivalence.py --compare A B
        compares two ledgers, each a label or a path

The inputs are the 240 ``verify``-cycle inputs of the benchmark's seeds 1, 7
and 11 (``perfbench/workloads.py``, read only) plus Planck (beta = h = 1) and
flat (sigma2 = 1) spectra at n = 9, 17, ..., 1025 with nu_max = 8.  The
ledger is a JSON list with one line per input.  A line holds every
``verification.run_all`` check in report order, by suite, as the string
``"check tolerance passed residual"`` with the pass flag as 1 or 0 and the
residual as ``float.hex``, and a sha256 over the arrays and numbers of each
``Pipeline`` stage.  A last line per ``large-grid`` schedule of the same
seeds holds a sha256 of each ``run_chain`` record.  Digests keep their
first 128 bits, which keeps the ledger under 1 MB.  Nothing is timed.  The
first line records the numpy version.

``--compare`` lists every residual and digest that moved between two
ledgers, with the number of inputs it moved on and its largest change.  It
exits 1 only if a check's name, order, tolerance or pass flag changed, or
an input is missing; moved bits alone exit 0.  The qnoise it measures is
the first on the import path; the repository's ``src`` is the fallback.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGERS = ROOT / "tools" / "ledgers"

SEEDS = (1, 7, 11)
STAGES = ("seq", "model", "filt", "parts", "transmission", "synthesized", "vacuum_pair", "canonical")


def _feed(digest, value) -> None:
    """Hash a value's arrays and numbers, walking dataclass fields, mappings and sequences."""
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed(digest, value[key])
    elif isinstance(value, (tuple, list)):
        digest.update(f"[{len(value)}".encode())
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (float, np.floating)):
        digest.update(float(value).hex().encode())
    elif isinstance(value, (complex, np.complexfloating)):
        digest.update(f"{value.real.hex()}{value.imag.hex()}".encode())
    else:
        digest.update(repr(value).encode())


def sha256_of(value) -> str:
    """The first 128 bits of the sha256 of a value, in hex: enough to tell two values apart."""
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()[:32]


def _workloads():
    """The benchmark's schedules module, and qnoise from the import path or, failing that, ``src``."""
    sys.path.append(str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads


def inputs():
    """(name, pair) of every input, in ledger order."""
    workloads = _workloads()
    from qnoise import spectra
    for seed in SEEDS:
        for i, spec in enumerate(workloads.make_workload("verify", seed).cycle):
            yield f"verify/seed={seed}/{i}/{spec['kind']}/n={spec['n']}", workloads.build_pair(spec)
    for k in range(3, 11):
        n = 2**k + 1
        grid = spectra.make_grid(n, 16.0 / (n - 1))
        yield f"planck/n={n}", spectra.planck_density(1.0, 1.0, grid)
        yield f"flat/n={n}", spectra.flat_density(1.0, grid)


def ledger_lines():
    import numpy
    workloads = _workloads()
    from qnoise import verification
    from qnoise.pipeline import Pipeline
    yield {"numpy": numpy.__version__}
    for name, pair in inputs():
        pipe = Pipeline(pair, 1.0 / (pair.grid.n_points * pair.grid.step))
        checks = {}
        for r in verification.run_all(pipe):
            checks.setdefault(r.suite, []).append(f"{r.check} {r.tolerance!r} {r.passed:d} {r.residual.hex()}")
        yield {"input": name, "checks": checks, "stages": {s: sha256_of(getattr(pipe, s)) for s in STAGES}}
    for seed in SEEDS:
        workload = workloads.make_workload("large-grid", seed)
        records = [sha256_of(workloads.run_chain(spec)) for spec in workload.first + workload.cycle]
        yield {"input": f"large-grid/seed={seed}", "run_chain": records}


def write(label: str) -> Path:
    LEDGERS.mkdir(parents=True, exist_ok=True)
    path = LEDGERS / f"LEDGER_{label}.json"
    lines = [json.dumps(line, separators=(",", ":")) for line in ledger_lines()]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    return path


def _load(name: str) -> tuple[str, dict]:
    path = Path(name) if name.endswith(".json") else LEDGERS / f"LEDGER_{name}.json"
    lines = json.loads(path.read_text(encoding="utf-8"))
    for line in lines[1:]:
        # each check as [suite/check, tolerance, passed, residual hex], in report order
        line["checks"] = [[f"{suite}/{name}", float(tol), passed == "1", residual]
                          for suite, entries in line.get("checks", {}).items()
                          for name, tol, passed, residual in map(str.split, entries)]
    return lines[0]["numpy"], {line["input"]: line for line in lines[1:]}


def compare(first: str, second: str) -> int:
    """Print what moved from ledger ``first`` to ``second``; 1 on a changed verdict structure."""
    numpy_a, a = _load(first)
    numpy_b, b = _load(second)
    print(f"numpy {numpy_a} -> {numpy_b}; {len(a)} -> {len(b)} inputs")
    broken = [f"{name}: in one ledger only" for name in a.keys() ^ b.keys()]
    moved = {}  # what moved -> [inputs, largest change]

    def note(key, change):
        entry = moved.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], change)

    for name in a.keys() & b.keys():
        old, new = a[name], b[name]
        if "run_chain" in old:
            for i, (x, y) in enumerate(zip(old["run_chain"], new["run_chain"])):
                if x != y:
                    note(f"run_chain record {i} of {name}", 0.0)
            continue
        before, after = [c[:3] for c in old["checks"]], [c[:3] for c in new["checks"]]
        if before != after:
            changes = [(x, y) for x, y in zip(before, after) if x != y] or [(len(before), len(after))]
            broken.append(f"{name}: first change {changes[0][0]} -> {changes[0][1]}")
        for (check, *_, x), (check_b, *_, y) in zip(old["checks"], new["checks"]):
            if check == check_b and x != y:
                change = abs(float.fromhex(y) - float.fromhex(x))
                note(f"residual {check}", change if change == change else float("inf"))
        for stage, digest in old["stages"].items():
            if new["stages"].get(stage) != digest:
                note(f"stage {stage}", 0.0)
    for key in sorted(moved):
        count, change = moved[key]
        print(f"moved: {key} on {count} inputs" + (f", largest change {change:.3g}" if change else ""))
    if not moved:
        print("no residual or digest moved")
    for line in sorted(broken):
        print("CHANGED (name, tolerance, pass):", line)
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="write tools/ledgers/LEDGER_<label>.json")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two ledgers")
    args = parser.parse_args(argv)
    if args.label:
        print(f"wrote {write(args.label).relative_to(ROOT)}")
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
