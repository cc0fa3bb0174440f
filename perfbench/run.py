#!/usr/bin/env python3
"""Benchmark of the repvar package, run from the root of a source checkout.

    python3 perfbench/run.py --workload lift_ladder --seed 1 --seconds 10 --trace 0

Workloads: lift_ladder, pairing_ladder, probe_mix, cli_session (see
workloads.py).  A run sets up (several times, in fresh processes, for
`setup_s`), warms up, then repeats passes over the workload's operations
until `--seconds` have passed, checking every output against ground truth.
With `--trace 0` it reports the end-to-end metrics named in BENCHMARK.json
and prints wall_s, op_p50_s, top_s and fail_ratio beside them; each timed
call follows one run of a fixed reference computation (reference.py), and
`wall_rel` is the calls' total time over the reference runs' total time;
with `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics from spans taken around each layer's public functions
(tracer.py).  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Spans of a traced run are written to
.perfbench_work/trace-<workload>-seed<seed>.json.gz.

The program is imported from src/ of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every process started from here.  On a VM
# with two vCPUs of a shared Xeon host, a second BLAS thread waits on
# whichever vCPU the host has descheduled: with two threads an 80x80
# complex SVD took 9 ms, but up to 1.8 s on its first call after an idle
# spell; with one, 7 ms every time.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from reference import run_reference  # noqa: E402  (after the BLAS setting)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
COLD_IMPORTS = 3
OUTLIER_FACTOR = 1.5   # an op sample this many times its op's median is an outlier


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment -----------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


# -- passes ----------------------------------------------------------------------


class Record:
    """One timed operation.  The program's result is dropped after its check,
    so that memory held by the benchmark does not grow with the pass count;
    only a CLI call's child RSS and report size are kept."""

    __slots__ = ("name", "latency", "ref", "problems", "top", "rss_kb", "out_bytes")

    def __init__(self, op, latency, ref, problems, result):
        self.name = op.name
        self.latency = latency
        self.ref = ref
        self.problems = problems
        self.top = op.top
        self.rss_kb = getattr(result, "rss_kb", 0)
        self.out_bytes = len(result.out.encode()) if hasattr(result, "out") else 0

    @property
    def known_defect(self) -> bool:
        """Failing only through a documented program defect."""
        from workloads import KnownDefect

        return bool(self.problems) and all(isinstance(x, KnownDefect) for x in self.problems)


def run_pass(ops, tracer=None, label="", reference=False):
    """One pass over a list of operations; returns (records, wall seconds).

    Wall time is the sum of the operations' latencies: the time one client
    needs for the whole list, without the benchmark's own checks.  With
    `reference`, the reference computation runs, timed, before each call."""
    records = []
    for op in ops:
        ref = run_reference() if reference else 0.0
        if tracer is not None:
            tracer.start_op(label + op.name)
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failing operation is counted, never raised
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        problems = [error] if error else op.check(result)
        records.append(Record(op, latency, ref, problems, result))
    return records, sum(r.latency for r in records)


def run_audit(workload):
    """Untimed ground-truth operations that a workload runs once per run."""
    return [run_pass(workload.audit_ops())[0]] if hasattr(workload, "audit_ops") else []


def verdicts(records):
    return [(r.name, not r.problems) for r in records]


def timed_setup_children(args) -> list[float]:
    """Wall time of complete set-ups in fresh processes: interpreter start,
    imports, input generation, fixed points found and assembled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def cold_import_times() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(COLD_IMPORTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repvar.cli"], cwd=ROOT, env=env,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# -- reporting -------------------------------------------------------------------


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize_ops(passes):
    """Per-op lines with sample counts and outliers, and the failing ops."""
    by_name: dict[str, list] = {}
    for records in passes:
        for r in records:
            by_name.setdefault(r.name, []).append(r)
    failing, known = [], []
    for name, recs in by_name.items():
        lat = [r.latency for r in recs]
        med = median(lat)
        outliers = [x for x in lat if x > OUTLIER_FACTOR * med]
        bad = [r for r in recs if r.problems and not r.known_defect]
        defect = [r for r in recs if r.known_defect]
        status = "FAIL" if bad else ("KNOWN-DEFECT" if defect else "ok")
        listed = f" {[round(x, 4) for x in outliers]}" if outliers else ""
        print(f"op {name:34s} n={len(lat):3d} p50={med:.4f}s max={max(lat):.4f}s "
              f"outliers={len(outliers)}{listed} check={status}")
        for r in (bad or defect)[:1]:
            print(f"   {name}: {'; '.join(r.problems)}")
        if bad:
            failing.append((name, len(bad)))
        if defect:
            known.append((name, len(defect)))
    return failing, known


def report_checks(sections):
    """Print the op lines of each (heading, passes) section and the fail ratio.

    Returns (attempted, failed); `failed` leaves out operations that fail only
    through a known program defect, which the fail ratio counts."""
    failing, known, attempted = [], [], 0
    for heading, passes in sections:
        if passes:
            print(heading)
            sec_failing, sec_known = summarize_ops(passes)
            failing += sec_failing
            known += sec_known
            attempted += sum(len(p) for p in passes)
    n_fail = sum(n for _, n in failing)
    n_known = sum(n for _, n in known)
    print(f"fail_ratio {(n_fail + n_known) / attempted:.4f} "
          f"(failed or wrong {n_fail + n_known} of {attempted} operations)")
    for name, n in known:
        print(f"   {n} operations of {name} fail through a known program defect; "
              f"counted above, not in the result's 'failed'")
    for name, n in failing:
        print(f"   FAILED {n} operations of {name}")
    return attempted, n_fail


def load_metric_specs(key):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def emit(correct, attempted, failed, values, specs, samples):
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        note = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {values[name]!r} {spec['unit']}{note}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


# -- the two kinds of run ------------------------------------------------------------


def untraced_run(args, workload, setup_times):
    cold = getattr(workload, "cold", False)
    passes, walls = [], []
    t0 = time.perf_counter()
    # stop when the next pass would end more than half a pass past the time
    while not passes or time.perf_counter() - t0 + median(walls) / 2 < args.seconds:
        records, wall = run_pass(workload.ops(len(passes)), reference=True)
        passes.append(records)
        walls.append(wall)
    attempted, n_fail = report_checks([("timed passes:", passes),
                                       ("untimed audit:", run_audit(workload))])
    calls = sum(len(p) for p in passes)
    # op latencies cluster by operation; the median of each pass's median
    # call stays inside a cluster even when a pass has an even number of ops
    pass_medians = [median([r.latency for r in p]) for p in passes]
    top = [r.latency for p in passes for r in p if r.top]
    print(f"top rung: {next(r.name for r in passes[0] if r.top)}")
    if cold:
        rss_kb = max(r.rss_kb for p in passes for r in p)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "wall_rel": (sum(walls) / sum(r.ref for p in passes for r in p), "ratio",
                     f"{calls} calls, each after one reference run"),
        "wall_s": (median(walls), "s", len(walls)),
        "op_p50_s": (median(pass_medians), "s", f"{calls} calls in {len(passes)} passes"),
        "top_s": (median(top), "s", len(top)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }
    specs = load_metric_specs("end_to_end")
    # The times in seconds follow the host's speed, which drifts by tens of
    # percent between runs; they are printed but not gated.  wall_rel
    # divides that drift out (reference.py).
    gated = {s["name"] for s in specs}
    for name, (value, unit, n) in values.items():
        if name not in gated:
            print(f"reported {name} = {value!r} {unit} (n={n}; not in BENCHMARK.json)")
    emit(n_fail == 0, attempted, n_fail, {k: v[0] for k, v in values.items()}, specs,
         {k: v[2] for k, v in values.items()})


def traced_run(args, workload):
    from tracer import Tracer

    specs = load_metric_specs("per_layer")
    tracer = Tracer()
    problems = []
    untraced, traced, passes = [], [], []
    cold = hasattr(workload, "cold")
    if cold:
        workload.cold = False
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds or len(traced) % workload.cycle:
        p = len(traced)
        plain, wall_plain = run_pass(workload.ops(p))
        tracer.install()
        try:
            seen, wall_traced = run_pass(workload.ops(p), tracer, f"pass{p}/")
        finally:
            tracer.restore()
        if verdicts(plain) != verdicts(seen):
            problems.append(f"pass {p}: traced checks {verdicts(seen)} "
                            f"!= untraced {verdicts(plain)}")
        untraced.append(wall_plain)
        traced.append(wall_traced)
        passes += [plain, seen]
    totals, count_problems = tracer.layer_totals()
    problems += count_problems
    print(f"trace: {len(tracer.spans)} spans over {len(traced)} traced passes, "
          f"{tracer.bindings} bindings wrapped per install, "
          f"{int(totals['jets.lift.exact_count_lifts'])} successful lifts with exactly k-1 "
          f"order_defect calls")

    values = {}
    units = {s["name"]: s["unit"] for s in specs}
    for name, unit in units.items():
        if name in totals:
            values[name] = totals[name] if unit == "ratio" else totals[name] / len(traced)
        else:
            values[name] = 0.0
    values["trace.overhead_ratio"] = median(traced) / median(untraced) - 1.0

    cold_passes = []
    if cold:
        # cli.<verb>_s are cold-process latencies, which no in-process span sees
        workload.cold = True
        while not cold_passes or time.perf_counter() - t0 < 1.5 * args.seconds:
            cold_passes.append(run_pass(workload.ops(0))[0])
        if verdicts(cold_passes[0]) != verdicts(passes[0]):
            problems.append("cold-process checks differ from in-process checks")
        for verb in ("validate", "find", "check", "tangent", "pairing", "obstruct", "lift",
                     "probe"):
            values[f"cli.{verb}_s"] = median([r.latency for p in cold_passes for r in p
                                              if r.name.split("/")[0] == verb])
        values["cli.report_bytes"] = median([sum(r.out_bytes for r in p)
                                             for p in cold_passes])
        values["cli.import_s"] = median(cold_import_times())

    for name in ("cohomology.order_defect.per_pairing_entry",
                 "jets.lift.order_defect_per_order", "repspace.find.success_ratio",
                 "jets.lift.achieved_ratio"):
        print(f"ratio {name} base: {_ratio_base(name, totals, len(traced))}")
    print("computed (not measured): truncring.coeff_products = sum (k+1)(k+2)/2 over jet "
          "products; truncring.flops_computed = 8 N^3 per coefficient product")
    attempted, n_fail = report_checks([("untraced and traced passes:", passes),
                                       ("cold-process passes:", cold_passes),
                                       ("untimed audit:", run_audit(workload))])
    for line in problems:
        print(f"TRACE PROBLEM: {line}")
    out = ROOT / ".perfbench_work" / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(out)
    print(f"spans written to {out.relative_to(ROOT)}")
    emit(n_fail == 0 and not problems, attempted, n_fail, values, specs, {})


def _ratio_base(name, totals, passes):
    base = {
        "cohomology.order_defect.per_pairing_entry": "cohomology.pairing_tensor.entries",
        "jets.lift.order_defect_per_order": "jets.lift.orders_evaluated",
        "repspace.find.success_ratio": "repspace.find.attempts",
        "jets.lift.achieved_ratio": "jets.lift.orders_requested",
    }[name]
    return f"{base} = {totals.get(base, 0) / passes:g} per pass"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repvar" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no repvar source tree (src/repvar/, corpus/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, str(ROOT), str(workdir))
            return 0
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env " + json.dumps(environment(), sort_keys=True))
        setup_times = [] if args.trace else timed_setup_children(args)
        if setup_times:
            print("setup samples " + " ".join(f"{t:.4f}" for t in setup_times))
        workload = WORKLOADS[args.workload](args.seed, str(ROOT), str(workdir))
        workload.warmup()
        if args.trace:
            traced_run(args, workload)
        else:
            untraced_run(args, workload, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
