"""hcmsim benchmark: run one workload through ``hcmsim.cli.main`` and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload

A run is a closed loop: one caller issues the workload's CLI invocations
back to back. One pass is the workload's fixed list of invocations; the
run repeats passes until ``--seconds`` have passed since the first
(at least three passes). Outputs are checked and digested after each
pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall time of one pass, median over the run's passes, each
               calibrated to the quiet machine's speed with the reference
               kernel of ``calibrate.py`` timed just before and just after
               it (the raw times are printed too)
  setup_s      process start to ready (imports, inputs generated from the
               seed, one warm-up call) in a fresh process, median of
               three, calibrated with the median of three fresh processes
               that only import NumPy and SciPy, timed between them
  peak_rss_mb  peak resident memory of this process
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.METRICS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is
one CLI invocation; it fails if it raises, exits non-zero, or its outputs
fail a check in ``checks.py`` or differ from the first pass's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

SETUP_PROBES = 3
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
OUT_ROOT = workloads.ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc, level = "unknown", 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            lvl = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if lvl > level:
            level, llc = lvl, size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "last_level_cache": f"L{level} {llc}" if level else llc,
        "bandwidth": "not reported: every workload's arrays are a few MB, far inside the last-level cache",
    }


def steal_s() -> float:
    """Time the hypervisor ran something else on this machine's CPUs, summed
    over CPUs (0 where the kernel does not report it). Printed per pass: a
    pass that ran during heavy steal is slow for reasons outside the program."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _clear(dirs):
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


def run_pass(cli, wl, dirs, tracer=None):
    """Timed pass: every invocation once, back to back.

    Returns (wall, process CPU time, machine steal time, exit codes)."""
    _clear(dirs)
    codes = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        cpu0, steal0 = time.process_time(), steal_s()
        t0 = time.perf_counter()
        for inv, d in zip(wl.invocations, dirs):
            try:
                codes.append(cli.main(["--out-dir", str(d), *inv.argv]))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                codes.append(None)
        wall = time.perf_counter() - t0
        cpu, steal = time.process_time() - cpu0, steal_s() - steal0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, steal, codes


def verify_pass(wl, dirs, codes, reference):
    """Failure messages per invocation, and the per-invocation digests.

    The output checks run on the first pass only: every later pass must
    reproduce the first pass's bytes, which its digest checks."""
    failures, digests = [], []
    for j, (inv, d, code) in enumerate(zip(wl.invocations, dirs, codes)):
        fails = []
        digest = checks.output_digest(d)
        if code != 0:
            fails.append(f"exit code {code}")
        elif reference is None:
            try:
                fails += inv.check(d)
            except (OSError, ValueError, KeyError) as exc:
                fails.append(f"unreadable output: {exc!r}")
        elif digest != reference[j]:
            fails.append("outputs differ from the first pass (same seed)")
        failures.append(fails)
        digests.append(digest)
    return failures, digests


def setup_probe(name: str, seed: int) -> float:
    """Process start to ready, measured in a fresh interpreter."""
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--setup-probe", repr(spawned)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise SystemExit(f"perfbench: set-up of {name} failed (exit code {proc.returncode})")
    return float(lines[1])


def prepare(name: str, seed: int, out: Path):
    """Set-up: import the program, generate the inputs, run the warm-up."""
    cli = workloads.import_program()
    wl = workloads.make(name, seed, out / "work")
    _clear([out / "warmup"])
    if cli.main(["--out-dir", str(out / "warmup"), *wl.warmup.argv]) != 0:
        raise SystemExit(f"perfbench: warm-up of {name} failed")
    return cli, wl


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    probes, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(calibrate.imports_s())
        probes.append(setup_probe(name, seed))
    setup = statistics.median(probes) * calibrate.NOMINAL_IMPORTS_S / statistics.median(refs)
    print("setup probes raw_s=" + " ".join(f"{p:.4f}" for p in probes)
          + " imports_s=" + " ".join(f"{r:.4f}" for r in refs))
    cli, wl = prepare(name, seed, out)
    calibrate.kernel(wl.calibration)  # the first call pays for cold caches
    print("env:", json.dumps(environment(), sort_keys=True))

    dirs = [out / f"inv{j:03d}" for j in range(len(wl.invocations))]
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}  # calibrated pass times
    raw_walls = []
    traced_values = []
    shares = []
    reference = None
    attempted = failed = 0
    started = time.perf_counter()
    traced = False
    ref_before = calibrate.reference_s(wl.calibration)
    while (len(walls[False]) + len(walls[True]) < MIN_PASSES or time.perf_counter() - started < seconds
           or (trace and not walls[True])):
        wall, cpu, steal, codes = run_pass(cli, wl, dirs, tracer if traced else None)
        ref_after = calibrate.reference_s(wl.calibration)
        speed = calibrate.speed(wl.calibration, ref_before, ref_after)
        ref_before = ref_after
        calibrated = wall * speed
        walls[traced].append(calibrated)
        if not traced:
            raw_walls.append(wall)
        if traced:
            summary = tracing.summarize(tracer.spans)
            traced_values.append(tracing.layer_metrics(summary, tracer.segments, wall))
            shares.append(tracing.layer_shares(summary, wall))
        failures, digests = verify_pass(wl, dirs, codes, reference)
        reference = reference or digests
        attempted += len(codes)
        failed += sum(1 for f in failures if f)
        bad = [(j, f) for j, f in enumerate(failures) if f]
        print(f"pass {len(walls[False]) + len(walls[True])} {'traced' if traced else 'untraced'} "
              f"wall_s={wall:.4f} cpu_s={cpu:.4f} steal_s={steal:.2f} speed={speed:.3f} "
              f"calibrated_s={calibrated:.4f} failed={len(bad)}/{len(codes)}")
        for j, f in bad[:5]:
            print(f"  invocation {j} ({' '.join(wl.invocations[j].argv[:4])} ...): {'; '.join(f)}")
        traced = trace and not traced

    run_digest = hashlib.sha256("".join(reference).encode()).hexdigest()
    print(f"digest: {run_digest}")
    if wl.notes is not None:
        print(f"{name}: {wl.notes(dirs[0])}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} invocations)")

    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"{len(raw_walls)} passes, raw median {statistics.median(raw_walls):.4f} s, "
              f"fastest {min(raw_walls):.4f} s: " + " ".join(f"{w:.4f}" for w in raw_walls))
    else:
        units = dict(tracing.METRICS)
        values = {k: statistics.median(v[k] for v in traced_values) for k in units}
        # counts repeat exactly between passes of one seed; keep them whole
        values.update({k: int(values[k]) for k, u in units.items() if u == "count"})
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = {k: (values[k], units[k]) for k in units}
        mid = sorted(range(len(walls[True])), key=lambda i: walls[True][i])[len(walls[True]) // 2]
        print("layer shares of the traced wall_s: "
              + ", ".join(f"{layer} {share:.3f}" for layer, share in shares[mid].items()))
    for key, (value, unit) in metrics.items():
        if not trace or key.startswith("trace."):
            print(f"{name} {key} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload in its own process, so peak_rss_mb is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
        rows.append((name, result))
    for name, result in rows:
        cells = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"failed_frac = {result['failed'] / result['attempted']:.4f}")
        print(f"{name:12s} " + "  ".join(cells))
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        if args.setup_probe is not None:
            parser.error("--setup-probe needs a single workload")
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        out = OUT_ROOT / f"{args.workload}-{os.getpid()}"
        try:
            if args.setup_probe is not None:
                prepare(args.workload, args.seed, out)
                print("ready", time.perf_counter() - args.setup_probe, flush=True)
                return 0
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            try:
                OUT_ROOT.rmdir()
            except OSError:  # another run still owns a directory there
                pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
