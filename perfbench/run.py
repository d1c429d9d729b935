"""Seeded benchmark of the padicnla CLI and eigensolvers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {solve-line,eig-mixed,factor}
                             --seed N --seconds S --trace {0,1}

One process, one caller, closed loop: each operation is an in-process
``padicnla.cli.main([... "--format", "json", "--output", FILE])`` call on
a generated input file (``eigenvalue_valuations``, which has no CLI mode,
is called directly).  Every output is checked against its construction.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``correct`` is false when any operation failed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "padicnla"
SETUP_REPEATS = 7
# op_s.tail: a fixed percentile per workload, placed inside a class of
# similar operations (see workloads.py), with about 10 operations or more
# beyond it.  It is fixed so that revisions of different speed, which
# complete different numbers of operations, are compared at one percentile.
# It is read as the mean of the times within TAIL_WINDOW percentage points
# of it, which is steadier from seed to seed than a single order statistic.
TAIL_PERCENTILE = {"solve-line": 75, "eig-mixed": 85, "factor": 75}
TAIL_WINDOW = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
    "certified_digits.mean": "digits", "setup_s": "s", "largest_op_rss_mb": "MB",
}
# Printed with every run, and reported by the traced run, but not bounded:
# a failed operation already makes the run incorrect (see result_line).
CORRECTNESS_UNITS = {"fail_share": "share", "certified_digits.min": "digits"}
# per-layer metric -> unit; all but the last six are per-operation means of
# tracer.layer_totals and the tracer's counters
PER_LAYER_UNITS = {
    "padics.mul_calls": "count/op", "padics.add_calls": "count/op",
    "padics.div_calls": "count/op", "padics.new_objects": "count/op",
    "padics.mul_digits": "digits/op",
    "matrices.qr_s": "s/op", "matrices.qr_calls": "count/op",
    "matrices.svd_s": "s/op", "matrices.svd_calls": "count/op",
    "matrices.nullspace_mod_pN_s": "s/op", "matrices.solve_s": "s/op",
    "matrices.matmul_s": "s/op", "matrices.matmul_calls": "count/op",
    "matrices.hessenberg_s": "s/op",
    "eigen.eigvecs_s": "s/op", "eigen.eigvecs_calls": "count/op",
    "eigen.power_iteration_s": "s/op", "eigen.qr_iteration_s": "s/op",
    "eigen.block_schur_form_s": "s/op", "eigen.classical_eigen_s": "s/op",
    "eigen.classical_fallbacks": "count/op",
    "eigen.eigenvalue_valuations_s": "s/op", "eigen.unresolved_dim": "dim/op",
    "solver.macaulay_matrix_s": "s/op", "solver.cokernel_s": "s/op",
    "solver.select_basis_s": "s/op", "solver.multiplication_matrices_s": "s/op",
    "solver.eigvecs_s": "s/op", "solver.solve_system_self_s": "s/op",
    "solver.l_draws": "count/op",
    "residue.charpoly_residue_s": "s/op", "residue.linear_roots_s": "s/op",
    "mpoly.parse_system_s": "s/op", "mpoly.evaluate_s": "s/op",
    "cli.self_s": "s/op",
    "eigen.work_precision_max": "digits",
    "eigen.eigvecs_reference_s": "s/op",
    "eigen.classical_reference_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.overhead_share": "share",
    "trace.ops": "count",
}
PER_OP_MEANS = list(PER_LAYER_UNITS)[:-6]


def _fresh_import():
    """Import the library from ``src`` as a cold process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for sub in ("cli", "eigen", "matrices"):
        importlib.import_module(f"{PACKAGE}.{sub}")


def setup(workload, seed, workdir, clock):
    """Import, generate and write the inputs; returns (ops, median seconds)."""
    times = []
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_import()
        ops = workloads.write_inputs(workloads.generate(workload, seed), workdir)
        times.append((time.perf_counter() - t0) * clock.scale())
    return ops, statistics.median(times)


# Machine speed.  A shared host's speed drifts (by up to 1.8x over minutes
# on the reference host), far more than the differences the bounds must
# resolve.  A fixed pure-Python kernel, independent of the library, is
# timed between operations, and every time is reported in reference
# seconds: measured seconds * K_REF / (kernel time around the operation).
# K_REF is the kernel's time on the lightly loaded reference host (Intel
# Xeon, 2 vCPUs, Python 3.11.7), where reference seconds are wall seconds.
K_REF = 0.0015


class _Scalar:
    """The calibration kernel's unit of work: a slotted residue object."""

    __slots__ = ("v", "m")

    def __init__(self, v, m):
        self.v = v
        self.m = m

    def mul(self, other):
        return _Scalar(self.v * other.v % self.m, self.m)

    def add(self, other):
        return _Scalar((self.v + other.v) % self.m, self.m)


def _kernel():
    m = 13 ** 60
    x = _Scalar(7 ** 90 % m, m)
    acc = _Scalar(1, m)
    for _ in range(1500):
        acc = acc.mul(x).add(x)
    return acc.v


def calibrate():
    """Seconds the kernel takes now (median of five runs)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Converts measured seconds to reference seconds, recalibrating after
    each measured stretch and using the mean of the readings around it."""

    def __init__(self):
        self.last = calibrate()
        self.readings = [self.last]

    def scale(self):
        now = calibrate()
        factor = 2 * K_REF / (self.last + now)
        self.last = now
        self.readings.append(now)
        return factor


def execute(op, workdir):
    """Run one operation; returns (seconds, exit status, output, error)."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    out = Path(workdir) / "out.json"
    out.unlink(missing_ok=True)
    status, output, error = 0, None, None
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if op.mode == "valuations":
                m = sys.modules[f"{PACKAGE}.matrices"]
                e = sys.modules[f"{PACKAGE}.eigen"]
                with open(op.path) as fh:
                    output = [str(v) for v in e.eigenvalue_valuations(m.read_matrix(fh.read()))]
            else:
                status = cli.main(["--mode", op.mode, "--input", op.path,
                                   "--format", "json", "--output", str(out)])
        except Exception as exc:  # an escaped exception is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if op.mode != "valuations" and status == 0 and error is None:
        try:
            output = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            error = f"unreadable output: {exc}"
    return elapsed, status, output, error


def _reference_times(op):
    """Untraced eigvecs and classical_eigen on one split input."""
    m = sys.modules[f"{PACKAGE}.matrices"]
    e = sys.modules[f"{PACKAGE}.eigen"]
    a = m.read_matrix(Path(op.path).read_text())
    t0 = time.perf_counter()
    e.eigvecs(a)
    t1 = time.perf_counter()
    e.classical_eigen(a)
    return t1 - t0, time.perf_counter() - t1


def run_loop(ops, pass_length, seconds, workdir, clock, tr):
    """Closed loop over the ops until the time is up and a pass is complete;
    returns the records and, when tracing, the untraced reference times of
    split eig inputs."""
    records = []
    refs = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i % pass_length or i == 0 or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        i += 1
        elapsed, status, output, error = execute(op, workdir)
        rec = {"op": op, "seconds": elapsed * clock.scale(),
               "verdict": checker.check(op.mode, status, output, op.truth, error)}
        if tr is not None:
            tr.op = len(records)
            tr.install()
            try:
                traced = execute(op, workdir)[0]
            finally:
                tr.uninstall()
            tr.scales.append(clock.scale())
            rec["traced_seconds"] = traced * tr.scales[-1]
            if op.mode == "eig" and op.truth.get("kind") == "split":
                eig_s, classical_s = _reference_times(op)
                factor = clock.scale()
                refs.append((eig_s * factor, classical_s * factor))
        records.append(rec)
    return records, refs


def correctness(records):
    """fail_share and certified_digits.min over all records."""
    digits = [d for r in records if r["verdict"].ok for d in r["verdict"].digits]
    failed = sum(1 for r in records if not r["verdict"].ok)
    return {"fail_share": failed / len(records),
            "certified_digits.min": min(digits, default=0)}


def end_to_end(records, setup_s, tail_percentile, op_rss_mb):
    """The bounded metrics.  Latencies are over the operations that passed
    their check; ops_per_s counts those per second of program time."""
    passed = sorted(r["seconds"] for r in records if r["verdict"].ok)
    # with no passed operation the run is incorrect; keep the figures finite
    times = passed or sorted(r["seconds"] for r in records)
    digits = [d for r in records if r["verdict"].ok for d in r["verdict"].digits]
    n = len(times)
    lo = math.floor((tail_percentile - TAIL_WINDOW) / 100 * n)
    hi = math.ceil((tail_percentile + TAIL_WINDOW) / 100 * n)
    metrics = {
        "ops_per_s": len(passed) / sum(r["seconds"] for r in records),
        "op_s.p50": statistics.median(times),
        "op_s.tail": statistics.fmean(times[lo:hi]),
        "certified_digits.mean": statistics.fmean(digits) if digits else 0.0,
        "setup_s": setup_s,
        "largest_op_rss_mb": op_rss_mb,
    }
    info = {
        "op_s.tail percentile": tail_percentile,
        "op_s.tail ops averaged": hi - lo,
        "op_s.tail ops beyond": n - hi,
    }
    return metrics, info


# Run in a fresh interpreter: argv = [src directory, cli arguments...].
# Prints the peak RSS (VmHWM, KiB) after the imports and after the call, and
# the exit status.  VmHWM, not ru_maxrss: Linux carries ru_maxrss over from
# the parent across exec, so it would read the benchmark process's peak.
_RSS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from padicnla import cli

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = hwm()
status = cli.main(sys.argv[2:])
print(before, hwm(), status)
"""


def largest_op_rss_mb(op, workdir):
    """Peak RSS growth (MB) of a fresh process while cli.main runs ``op``.

    A fresh process, because the benchmark process keeps memory freed by
    set-up and earlier operations, which would hide the program's own.
    """
    out = Path(workdir) / "rss_probe.json"
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, str(ROOT / "src"), "--mode", op.mode,
         "--input", op.path, "--format", "json", "--output", str(out)],
        capture_output=True, text=True, timeout=150, check=True)
    before, after, status = (int(x) for x in proc.stdout.split())
    if status != 0:
        raise RuntimeError(f"memory probe of op {op.index} exited {status}")
    return (after - before) / 1024


def per_layer(records, tr, refs):
    nops = len(records)
    totals = tracer.layer_totals(tr.spans, tr.scales)
    totals.update(tr.counts)
    metrics = {name: totals.get(name, 0.0) / nops for name in PER_OP_MEANS}
    untraced = sum(r["seconds"] for r in records)
    traced = sum(r["traced_seconds"] for r in records)
    metrics.update({
        "eigen.work_precision_max": totals.get("eigen.work_precision_max", 0),
        "eigen.eigvecs_reference_s": statistics.fmean(e for e, _ in refs) if refs else 0.0,
        "eigen.classical_reference_s": statistics.fmean(c for _, c in refs) if refs else 0.0,
        "trace.overhead_s": (traced - untraced) / nops,
        "trace.overhead_share": (traced - untraced) / untraced,
        "trace.ops": nops,
    })
    metrics.update(correctness(records))
    return metrics


def _units(trace):
    if trace:
        return {**PER_LAYER_UNITS, **CORRECTNESS_UNITS}
    return END_TO_END_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    clock = Clock()
    tr = tracer.Tracer(PACKAGE) if args.trace else None
    try:
        ops, setup_s = setup(args.workload, args.seed, workdir, clock)
        records, refs = run_loop(ops, workloads.PASS_LENGTH[args.workload],
                                 args.seconds, workdir, clock, tr)
        if not args.trace:
            op_rss_mb = largest_op_rss_mb(ops[workloads.LARGEST_OP[args.workload]],
                                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if not r["verdict"].ok]
    for r in failed:
        print(f"FAIL op {r['op'].index} ({r['op'].label}): {r['verdict'].reason}")
    if args.trace:
        metrics = per_layer(records, tr, refs)
        outdir = ROOT / ".perfbench_out"
        outdir.mkdir(exist_ok=True)
        tr.write(outdir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, info = end_to_end(records, setup_s, TAIL_PERCENTILE[args.workload],
                                   op_rss_mb)
        info.update(correctness(records))
        info["calibration kernel ms (median)"] = 1000 * statistics.median(clock.readings)
        for key, value in info.items():
            print(f"{key}: {value:g}")
    units = _units(args.trace)
    print(f"workload {args.workload} seed {args.seed}: attempted {len(records)}, "
          f"failed {len(failed)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(result_line(records, metrics, units)))
    return 0


def result_line(records, metrics, units):
    """The run's verdict: correct only if no operation failed its check."""
    failed = sum(1 for r in records if not r["verdict"].ok)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
