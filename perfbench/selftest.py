"""Self-test of the benchmark at tiny n:  python3 perfbench/run.py --self-test

Checks that every metric of BENCHMARK.json is emitted with its unit on
every workload, that a corrupted estimate counts as a failed op, that the
traced and untraced runs give identical estimates, and that span times
plus cli.self_s add up to the traced wall time.
"""
from __future__ import annotations

import json
import os
from typing import List

import inputs
import run
import worker
import workloads

TINY_PHOTONS = 120_000
SEED = 11


def _names(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def check_workload(name: str, spec: dict) -> List[str]:
    problems = []
    reports = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report = run.measure(name, SEED, 0.5, trace, TINY_PHOTONS)
        line = run.result_line(report, trace)
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        if got != _names(spec, key):
            problems.append(f"{name} trace {trace}: metrics {got} != {_names(spec, key)}")
        if not line["correct"]:
            problems.append(f"{name} trace {trace}: {report['failures']}")
        reports[trace] = report
    if reports[0]["estimates"] != reports[1]["estimates"]:
        problems.append(f"{name}: traced and untraced estimates differ")

    layers = reports[1]["layers"]
    in_iteration = ["recordio.read_s", "templates.scan_s", "analysis.bounds_s",
                    "analysis.fit_s", "reports.io_s", "cli.self_s"]
    if workloads.get(name).simulates:
        in_iteration += ["stream.simulate_s", "recordio.write_s"]
    total = sum(layers[k] for k in in_iteration)
    if abs(total - layers["trace.wall_s"]) > 1e-9 * layers["trace.wall_s"]:
        problems.append(f"{name}: spans + cli.self_s = {total}, "
                        f"traced wall = {layers['trace.wall_s']}")
    with open(os.path.join(workloads.TRACE_DIR, f"{name}.json")) as fh:
        for it in json.load(fh):
            for span in it["spans"]:
                if "layer" in span and span["parent"] is None:
                    problems.append(f"{name}: span {span['name']} outside any CLI call")

    # One signed_sum off by 2 must fail its scan call and nothing else.
    good = reports[0]["estimates"]
    lines = good.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 2)
    bad = "".join([lines[0], ",".join(cells), *lines[2:]])
    w = workloads.get(name, TINY_PHOTONS)
    with open(os.path.join(inputs.entry_dir(w, SEED), "meta.json")) as fh:
        meta = json.load(fh)
    for text, want_failed in ((good, 0), (bad, 1)):
        it = {"commands": ["scan"], "rcs": [0], "estimates": text}
        checks = [("scan", found) for found in worker.check_iteration(it, w, meta)]
        failed = worker.tally(checks)[1]
        if failed != want_failed:
            problems.append(f"{name}: {failed} failed ops for a scan output "
                            f"that should give {want_failed}")
    return problems


def main() -> int:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        found = check_workload(name, spec)
        print(f"self-test {name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0
