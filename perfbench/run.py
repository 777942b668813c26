"""Benchmark of the csmg CLI path: simulate -> scan -> analyze.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seconds S      # every workload in turn
    python3 perfbench/run.py --self-test

Run from the root of a checkout holding src/csmg.  Each run:

1. makes the workload's record and expected counts in a separate process
   (inputs.py, cached by workload, size and seed);
2. the measured process (worker.py) sets up, repeats the workload's CLI
   commands for --seconds and checks every output outside the timed
   window;
3. set-up alone runs in SETUP_SAMPLES_PER_GAP fresh processes before
   step 1, again before step 2 and again after it, each bracketed by
   canary runs here; setup_s is the median of their calibrated times.

Times in the end-to-end metrics are calibrated against machine speed; see
canary.py.

Prints each metric as "name value unit", a "machine" line, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Exits 2 without a result when the checkout
has no csmg sources or a step of the benchmark itself fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import canary
import workloads

SETUP_SAMPLES_PER_GAP = 3
# Every process this run starts is killed once the run has taken this long,
# which keeps a hung run inside 180 s.
RUN_LIMIT_S = 170

UNITS = {
    "photons_per_s": "photons/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "ok_ops_frac": "ratio", "failed_ops_frac": "ratio",
    "setup.import_s": "s", "stream.first_call_s": "s",
    "stream.simulate_s": "s", "stream.photons_per_s": "photons/s",
    "stream.rng_floor_photons_per_s": "photons/s",
    "stream.over_rng_floor": "ratio",
    "recordio.write_s": "s", "recordio.read_s": "s",
    "recordio.read_mb_per_s": "MiB/s",
    "templates.scan_s": "s", "templates.offsets_per_s": "offsets/s",
    "templates.template_offsets_per_s": "offsets/s",
    "templates.matches": "count", "templates.match_fraction": "ratio",
    "templates.greedy_kept_fraction": "ratio",
    "templates.threads2_speedup": "ratio",
    "analysis.bounds_s": "s", "analysis.fit_s": "s", "reports.io_s": "s",
    "cli.self_s": "s", "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """A step of the benchmark itself (not of the program) failed."""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    # Single-threaded: no BLAS pools, no scan worker cap from outside.
    env.pop("CSMG_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # numpy asks for huge pages for arrays of 4 MiB and more.  Where the
    # kernel compacts memory on demand to find them, as on a shared host,
    # page faults then stall for as long as other tenants' memory makes it
    # take: a 34-template scan ran 2.0-2.7 s per pass with it, 1.8-2.1 s
    # without.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def _spawn(script: str, args: List[str], deadline: float) -> Tuple[float, str]:
    """Run one of the benchmark's scripts; (monotonic spawn time, last stdout line)."""
    cmd = [sys.executable, os.path.join(workloads.BENCH_DIR, script), *args]
    t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(cmd, cwd=workloads.ROOT, env=_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} {' '.join(args)}: no result in {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} exited {proc.returncode}")
    return t0, lines[-1]


def measure(workload: str, seed: int, seconds: float, trace: int,
            photons: int = 0) -> dict:
    """Run one workload; the measured process's report plus setup samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    size = ["--photons", str(photons)] if photons else []
    args = ["--workload", workload, "--seed", str(seed), *size]
    setups = []

    def sample_setups() -> None:
        for _ in range(SETUP_SAMPLES_PER_GAP):
            # Set-up is mostly import, interpreter-bound work.
            before = canary.seconds("interp")
            t0, line = _spawn("worker.py", [*args, "--setup-only"], deadline)
            sample = json.loads(line)
            sample["raw"] = sample["ready"] - t0
            sample["calibrated"] = canary.calibrated(sample["raw"], "interp", before,
                                                     canary.seconds("interp"))
            setups.append(sample)

    # Set-up samples in three groups: before the inputs are made, before the
    # measured process and after it, so that they straddle the whole run.
    sample_setups()
    _, entry = _spawn("inputs.py", args, deadline)
    sample_setups()
    _, line = _spawn("worker.py", [*args, "--input", entry, "--seconds", str(seconds),
                                    "--trace", str(trace)], deadline)
    report = json.loads(line)
    sample_setups()
    report["setup_s"] = statistics.median(r["calibrated"] for r in setups)
    report["raw_setup_s"] = statistics.median(r["raw"] for r in setups)
    report["setup.import_s"] = statistics.median(r["import_s"] for r in setups)
    report["stream.first_call_s"] = statistics.median(r["first_call_s"] for r in setups)
    return report


def metrics(report: dict, trace: int) -> Dict[str, float]:
    if trace:
        return {"setup.import_s": report["setup.import_s"],
                "stream.first_call_s": report["stream.first_call_s"],
                **report["layers"]}
    return {"photons_per_s": report["photons_per_s"],
            "setup_s": report["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ops_frac": 1.0 - report["failed"] / report["attempted"]}


def result_line(report: dict, trace: int) -> dict:
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in metrics(report, trace).items()}}


def print_result(workload: str, report: dict, trace: int) -> None:
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    shown = dict(metrics(report, trace))
    shown["failed_ops_frac"] = report["failed"] / report["attempted"]
    for name, value in shown.items():
        print(f"{workload} {name} {value:.6g} {UNITS[name]}")
    print(f"{workload} iterations {len(report['walls'])} untraced "
          f"(wall {min(report['walls']):.3f}..{max(report['walls']):.3f} s)")
    print(f"{workload} uncalibrated photons_per_s {report['raw_photons_per_s']:.6g}, "
          f"setup_s {report['raw_setup_s']:.6g}; {report['canary']} canary median "
          f"{report['canary_s']:.4g} s against {canary.REF_S[report['canary']]} s")
    print("machine " + json.dumps(report["machine"]))
    print(json.dumps(result_line(report, trace)))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25,
                    help="measured window; BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark itself at tiny n")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            return selftest.main()
        if not os.path.isfile(os.path.join(workloads.SRC, "csmg", "__init__.py")):
            raise workloads.MissingProgram(f"no csmg sources under {workloads.SRC}")
        for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
            report = measure(name, args.seed, args.seconds, args.trace)
            print_result(name, report, args.trace)
    except (BenchError, workloads.MissingProgram) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
