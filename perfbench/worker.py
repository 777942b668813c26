"""The measured process: set up, run a workload's CLI commands, check them.

    python3 perfbench/worker.py --workload NAME --seed N
        (--input DIR [--seconds S] [--trace 0|1] | --setup-only)

Set-up is ``import csmg`` plus a tiny warm-up ``simulate`` + ``scan``
through ``csmg.cli.run`` that builds the lazy transition tables.  The
worker prints ``time.monotonic()`` at the end of set-up, so the parent,
which noted the same clock before spawning it, gets set-up time from
process start.  With --setup-only it stops there.

Otherwise it repeats the workload's commands until --seconds have passed,
reading its own peak RSS after the first pass and calibrating every later
pass by canary runs on either side (canary.py), and then, outside the
timed window, runs the correctness gate.  With --trace 1 it alternates
untraced and traced iterations; a traced iteration wraps the functions
``csmg.cli`` imports from each module in timing spans.  The last stdout line is one JSON
object for the parent (run.py).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import canary
import oracle
import workloads

# Layer of each function csmg.cli imports, as named in the metrics.
LAYER_OF = {
    "simulate": "stream",
    "write_record": "recordio.write",
    "read_record": "recordio.read",
    "open_record": "recordio.read",
    "scan": "templates",
    "direct_bounds": "analysis.bounds",
    "fit_error_model": "analysis.fit",
    "xi_e": "analysis.fit",
    "read_estimates_csv": "reports",
    "write_estimates_csv": "reports",
    "write_bounds_csv": "reports",
    "write_summary_json": "reports",
}
WARMUP_PHOTONS = 20_000
# The frame engine runs about 2e4 photons/s.  10 000 photons keep the check
# near 0.5 s and still span more than two 4096-photon blocks.
FRAME_PREFIX_PHOTONS = 10_000
# Odd chunk size for the chunk-seam check: its seams fall at other offsets
# than the record's own 2^20 chunks and than any power-of-two block.
SEAM_CHUNK = 4099
RNG_FLOOR_PHOTONS = 4_000_000
RNG_CHUNK = 1 << 20

Span = Tuple[str, float, float]
Check = Tuple[str, List[str]]  # (name, problems); no problems means it passed


class Tracer:
    """Swaps timing wrappers into the csmg.cli namespace while active."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.spans: List[Span] = []
        self.originals = {name: getattr(cli, name) for name in LAYER_OF
                          if hasattr(cli, name)}

    def _wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, t0, time.perf_counter()))
        return traced

    def __enter__(self) -> "Tracer":
        for name, fn in self.originals.items():
            setattr(self.cli, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self.originals.items():
            setattr(self.cli, name, fn)


def covered_seconds(spans: List[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for _, a, b in sorted(spans, key=lambda s: s[1]):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_seconds(spans: List[Span]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, a, b in spans:
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + (b - a)
    return out


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.

def parse_estimates(text: str) -> List[Tuple[str, int, int]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["template", "l", "n_matches", "signed_sum"]:
        raise ValueError("bad estimates header")
    return [(r[0], int(r[2]), int(r[3])) for r in rows[1:] if r]


def check_estimates(text: Optional[str], ids: List[str],
                    expected: oracle.Counts) -> List[str]:
    if text is None:
        return ["no estimates written"]
    try:
        got = parse_estimates(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable estimates: {exc}"]
    if [g[0] for g in got] != ids:
        return [f"templates {[g[0] for g in got]} != {ids}"]
    return [f"{tid}: (n, signed_sum) = ({n}, {s}), expected {tuple(expected[tid])}"
            for tid, n, s in got if (n, s) != tuple(expected[tid])]


def check_bounds(text: Optional[str], expected: oracle.Counts) -> List[str]:
    """Rows for every l with matches in both families; mu = signed_sum / n."""
    if text is None:
        return ["no bounds written"]
    means: Dict[Tuple[str, int], float] = {}
    for tid, (n, s) in expected.items():
        if n > 0:
            family, rest = tid.split("(l=")
            means[(family, int(rest.rstrip(")")))] = s / n
    want = sorted({l for _, l in means
                   if ("Gamma1", l) in means and ("Gamma2", l) in means})
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        got = [(int(r["l"]), float(r["mu_gamma1"]), float(r["mu_gamma2"]))
               for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable bounds: {exc}"]
    if [g[0] for g in got] != want:
        return [f"bounds rows for l = {[g[0] for g in got]}, expected {want}"]
    return [f"l={l}: mu = ({m1}, {m2}), expected "
            f"({means[('Gamma1', l)]}, {means[('Gamma2', l)]})"
            for l, m1, m2 in got
            if (m1, m2) != (means[("Gamma1", l)], means[("Gamma2", l)])]


def check_iteration(it: dict, w: workloads.Workload, meta: dict) -> List[List[str]]:
    """Problems of each timed CLI call of one iteration, in call order."""
    ids = meta["template_ids"]
    expected = meta["expected"][w.mode]
    problems = []
    for cmd, rc in zip(it["commands"], it["rcs"]):
        found = [] if rc == 0 else [f"exit code {rc}"]
        if cmd == "simulate" and it["record_sha256"] != meta["sha256"]:
            found.append("record sha256 differs from the input process's record")
        elif cmd == "scan":
            found += check_estimates(it["estimates"], ids, expected)
        elif cmd == "analyze":
            found += check_bounds(it["bounds"], expected)
        problems.append(found)
    return problems


def tally(checks: List[Check]) -> Tuple[int, int, List[str]]:
    """(ops attempted, ops failed, problem lines)."""
    return (len(checks), sum(1 for _, found in checks if found),
            [f"{name}: {p}" for name, found in checks for p in found])


def attempt(name: str, check) -> Check:
    try:
        return name, check()
    except Exception:  # a check that cannot run is a failed op, not a crash
        return name, [traceback.format_exc(limit=3)]


# ---------------------------------------------------------------------------

class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.w = workloads.get(args.workload, args.photons)
        self.seed = workloads.record_seed(args.seed)
        self.work = os.path.join(workloads.WORK_DIR, str(os.getpid()))
        if not args.setup_only:
            with open(os.path.join(args.input, "meta.json")) as fh:
                self.meta = json.load(fh)
            self.input_record = os.path.join(args.input, "record.csmg")
        self.null = open(os.devnull, "w")
        self.extras: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def cli(self, argv: List[str]) -> int:
        with contextlib.redirect_stdout(self.null):
            return self.csmg.cli.run(argv)

    def setup(self) -> dict:
        t0 = time.perf_counter()
        self.csmg = workloads.import_csmg()
        import_s = time.perf_counter() - t0
        os.makedirs(self.work)
        t0 = time.perf_counter()
        rc = self.cli(["simulate", *self.w.source_flags(self.seed, WARMUP_PHOTONS),
                       "--out", self.path("warmup.csmg")])
        first_call_s = time.perf_counter() - t0
        rc = rc or self.cli(self.w.scan_args(self.path("warmup.csmg"),
                                             self.path("warmup.csv")))
        if rc != 0:
            raise RuntimeError(f"warm-up exited {rc}")
        return {"ready": time.monotonic(), "import_s": import_s,
                "first_call_s": first_call_s}

    def record(self) -> str:
        return self.path("record.csmg") if self.w.simulates else self.input_record

    def commands(self) -> List[List[str]]:
        record = self.record()
        cmds = []
        if self.w.simulates:
            cmds.append(["simulate", *self.w.source_flags(self.seed), "--out", record])
        cmds.append(self.w.scan_args(record, self.path("estimates.csv")))
        cmds.append(["analyze", self.path("estimates.csv"),
                     "--out-bounds", self.path("bounds.csv"),
                     "--out-summary", self.path("summary.json")])
        return cmds

    def iteration(self, tracer: Optional[Tracer]) -> dict:
        for name in ("record.csmg", "estimates.csv", "bounds.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(name))
        rcs, calls = [], []
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            for argv in self.commands():
                a = time.perf_counter()
                rcs.append(self.cli(argv))
                calls.append(("cli." + argv[0], a, time.perf_counter()))
            wall = time.perf_counter() - t0
        return {"wall": wall, "t0": t0, "rcs": rcs, "calls": calls,
                "commands": [name[4:] for name, _, _ in calls],
                "spans": tracer.spans if tracer else None, **self.outputs()}

    def outputs(self) -> dict:
        def text(name):
            with contextlib.suppress(FileNotFoundError):
                with open(self.path(name), encoding="utf-8") as fh:
                    return fh.read()
            return None
        sha = None
        if self.w.simulates and os.path.exists(self.path("record.csmg")):
            sha = oracle.sha256_file(self.path("record.csmg"))
        return {"record_sha256": sha, "estimates": text("estimates.csv"),
                "bounds": text("bounds.csv")}

    def timed(self) -> List[dict]:
        """Iterations until --seconds pass; odd ones traced under --trace 1.

        The first iteration only gives peak_rss_mb.  Every later one is
        bracketed by canary runs and carries its calibrated wall time.
        """
        trace = self.args.trace == 1
        kind = self.w.canary
        iters: List[dict] = []
        with canary.Probe() as probe:
            before = probe.seconds(kind)  # also waits for the probe to start
            start = time.perf_counter()
            while True:
                tracer = Tracer(self.csmg.cli) if trace and len(iters) % 2 else None
                it = self.iteration(tracer)
                after = probe.seconds(kind)
                if iters:
                    it["canary_s"] = (before, after)
                    it["calibrated"] = canary.calibrated(it["wall"], kind, before, after)
                else:
                    # A user runs each command once per process; later passes
                    # only add allocator drift to the high-water mark.
                    self.peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                before = after
                iters.append(it)
                if time.perf_counter() - start >= self.args.seconds and (
                        len(iters) >= (3 if trace else 2)):
                    return iters

    def gate(self) -> List[Check]:
        """Checks outside the timed window."""
        checks = [("frame_prefix", self.check_frame_prefix),
                  (f"prefix_{self.w.other_mode()}_scan", self.check_other_mode)]
        # The seam check needs simulate's chunk-size keyword; a simulator
        # without one has no chunk seams of that kind to check.
        if "_chunk" in inspect.signature(self.csmg.simulate).parameters:
            checks.append(("chunk_seams", self.check_chunk_seams))
        if not self.w.simulates:
            checks.append(("input_sha256", self.check_input_sha256))
        return [attempt(name, fn) for name, fn in checks]

    def prefix_problems(self, k: int, **simulate_kwargs) -> List[str]:
        """The record's first k-1 bytes against a k-photon run of simulate."""
        w = self.w
        events, _ = oracle.read_record(self.record())
        k = min(k, events.shape[0])
        cfg = self.csmg.ExperimentConfig(
            n_photons=k, seed=self.seed, p_d=float(w.p_d),
            q_x=float(w.q[0]), q_y=float(w.q[1]), q_z=float(w.q[2]),
            p_sigma=0.002, p_zz=0.01, burn_in=workloads.BURN_IN)
        other = self.csmg.simulate(cfg, **simulate_kwargs).events
        if bytes(other[:k - 1]) != bytes(events[:k - 1]):
            return [f"first {k - 1} bytes differ from simulate({simulate_kwargs})"]
        return []

    def check_frame_prefix(self) -> List[str]:
        """Chunk invariance: the record starts as a K-photon frame run does."""
        return self.prefix_problems(FRAME_PREFIX_PHOTONS, method="frame")

    def check_chunk_seams(self) -> List[str]:
        """The record's prefix is the same when cut into small odd chunks."""
        return self.prefix_problems(self.meta["prefix_photons"], method="table",
                                    _chunk=SEAM_CHUNK)

    def check_input_sha256(self) -> List[str]:
        if oracle.sha256_file(self.input_record) != self.meta["sha256"]:
            return ["input record changed since it was made"]
        return []

    def check_other_mode(self) -> List[str]:
        """The mode the workload does not time, on a prefix of its record."""
        meta, other = self.meta, self.w.other_mode()
        events, _ = oracle.read_record(self.record())
        prefix = self.path("prefix.csmg")
        oracle.write_record(prefix, events[:meta["prefix_photons"]], meta["burn_in"])
        return self.scan_problems(self.w.scan_args(prefix, self.path("prefix.csv"),
                                                   mode=other),
                                  meta["prefix_expected"][other])

    def scan_problems(self, argv: List[str], expected: oracle.Counts) -> List[str]:
        rc = self.cli(argv)
        if rc != 0:
            return [f"exit code {rc}"]
        with open(argv[-1], encoding="utf-8") as fh:
            return check_estimates(fh.read(), self.meta["template_ids"], expected)

    def trace_extras(self) -> List[Check]:
        """Traced CLI calls outside the window: the threads=2 scan, and for
        workloads that do not simulate, a re-simulation of their input,
        which gives their stream and write spans."""
        checks = [("threads2_scan", self.check_threads2_scan)]
        if not self.w.simulates:
            checks.append(("resimulate_sha256", self.check_resimulate))
        return [attempt(name, fn) for name, fn in checks]

    def check_threads2_scan(self) -> List[str]:
        with Tracer(self.csmg.cli) as tracer:
            found = self.scan_problems(
                self.w.scan_args(self.record(), self.path("t2.csv"), threads=2),
                self.meta["expected"][self.w.mode])
        self.extras["threads2_scan_s"] = layer_seconds(tracer.spans)["templates"]
        return found

    def check_resimulate(self) -> List[str]:
        out = self.path("resim.csmg")
        with Tracer(self.csmg.cli) as tracer:
            rc = self.cli(["simulate", *self.w.source_flags(self.seed), "--out", out])
        self.extras["resim"] = layer_seconds(tracer.spans)
        if rc != 0:
            return [f"exit code {rc}"]
        if oracle.sha256_file(out) != self.meta["sha256"]:
            return ["re-simulated record differs from the input record"]
        return []

    def layers(self, iters: List[dict], rng_floor: float) -> dict:
        w, meta, extras = self.w, self.meta, self.extras
        traced = sorted((it for it in iters if it["spans"] is not None),
                        key=lambda it: it["wall"])
        untraced = [it["calibrated"] for it in iters[1:] if it["spans"] is None]
        # One representative iteration, so its spans and cli.self_s add up
        # to its wall time.
        rep = traced[(len(traced) - 1) // 2]
        sec = layer_seconds(rep["spans"])
        stream = extras.get("resim", sec)
        n = w.n_photons
        offsets = n - meta["burn_in"]
        n_templates = len(meta["template_ids"])
        matches = sum(c for _, c, _ in parse_estimates(rep["estimates"]))
        all_matches = sum(c for c, _ in meta["expected"]["all"].values())
        greedy_matches = sum(c for c, _ in meta["expected"]["greedy"].values())
        simulate_s = stream.get("stream", 0.0)
        scan_s = sec.get("templates", 0.0)
        read_s = sec.get("recordio.read", 0.0)
        return {
            "stream.simulate_s": simulate_s,
            "stream.photons_per_s": n / simulate_s,
            "stream.rng_floor_photons_per_s": rng_floor,
            "stream.over_rng_floor": n / simulate_s / rng_floor,
            "recordio.write_s": stream.get("recordio.write", 0.0),
            "recordio.read_s": read_s,
            "recordio.read_mb_per_s": (n + oracle.HEADER.size) / 2 ** 20 / read_s,
            "templates.scan_s": scan_s,
            "templates.offsets_per_s": offsets / scan_s,
            "templates.template_offsets_per_s": offsets * n_templates / scan_s,
            "templates.matches": matches,
            "templates.match_fraction": matches / (offsets * n_templates),
            "templates.greedy_kept_fraction": greedy_matches / all_matches,
            "templates.threads2_speedup": scan_s / extras["threads2_scan_s"],
            "analysis.bounds_s": sec.get("analysis.bounds", 0.0),
            "analysis.fit_s": sec.get("analysis.fit", 0.0),
            "reports.io_s": sec.get("reports", 0.0),
            "cli.self_s": rep["wall"] - covered_seconds(rep["spans"]),
            "trace.wall_s": rep["wall"],
            "trace.overhead_frac": (statistics.median(t["calibrated"] for t in traced)
                                    / statistics.median(untraced) - 1.0),
        }

    def rng_floor(self) -> float:
        """Photons/s of the simulator's own draw: four uniforms per photon."""
        import numpy as np
        rates = []
        for _ in range(3):
            rng = np.random.default_rng(self.seed)
            t0 = time.perf_counter()
            for start in range(0, RNG_FLOOR_PHOTONS, RNG_CHUNK):
                rng.random((min(RNG_CHUNK, RNG_FLOOR_PHOTONS - start), 4))
            rates.append(RNG_FLOOR_PHOTONS / (time.perf_counter() - t0))
        return statistics.median(rates)

    def measure(self, ready: dict) -> dict:
        iters = self.timed()
        checks = self.gate()
        rng_floor = self.rng_floor()
        layers = None
        if self.args.trace == 1:
            checks += self.trace_extras()
            layers = self.layers(iters, rng_floor)
            self.dump_spans(iters)
        for i, it in enumerate(iters):
            checks += [(f"iteration {i} {cmd}", found) for cmd, found in
                       zip(it["commands"], check_iteration(it, self.w, self.meta))]
        untraced = [it for it in iters[1:] if it["spans"] is None]
        return {
            **ready,
            "photons_per_s": statistics.median(self.w.n_photons / it["calibrated"]
                                               for it in untraced),
            "raw_photons_per_s": statistics.median(self.w.n_photons / it["wall"]
                                                   for it in untraced),
            "walls": [it["wall"] for it in untraced],
            "canary": self.w.canary,
            "canary_s": statistics.median(c for it in iters[1:] for c in it["canary_s"]),
            "peak_rss_mb": self.peak_rss_mb,
            **dict(zip(("attempted", "failed", "failures"), tally(checks))),
            "estimates": iters[-1]["estimates"],
            "layers": layers,
            "machine": machine(rng_floor),
        }

    def dump_spans(self, iters: List[dict]) -> None:
        """Write every traced iteration's spans, times relative to its start."""
        out = []
        for i, it in enumerate(iters):
            if it["spans"] is None:
                continue
            spans = [{"name": name, "parent": None, "start": a - it["t0"],
                      "end": b - it["t0"]} for name, a, b in it["calls"]]
            for name, a, b in it["spans"]:
                parent = next((c for c, ca, cb in it["calls"] if ca <= a and b <= cb), None)
                spans.append({"name": name, "layer": LAYER_OF[name], "parent": parent,
                              "start": a - it["t0"], "end": b - it["t0"]})
            out.append({"iteration": i, "wall": it["wall"], "spans": spans})
        os.makedirs(workloads.TRACE_DIR, exist_ok=True)
        with open(os.path.join(workloads.TRACE_DIR, f"{self.w.name}.json"), "w") as fh:
            json.dump(out, fh, indent=1)

    def close(self) -> None:
        self.null.close()
        shutil.rmtree(self.work, ignore_errors=True)


def machine(rng_floor: float) -> dict:
    import numpy as np
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    numba = importlib.util.find_spec("numba") is not None
    return {"cores": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_importable": numba,
            "chain_kernel": "numba" if numba else "pure-python",
            "rng_floor_photons_per_s": rng_floor}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", help="entry made by inputs.py; not needed "
                    "with --setup-only")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--photons", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not (args.input or args.setup_only):
        ap.error("--input is required unless --setup-only is given")
    run = Run(args)
    try:
        ready = run.setup()
        result = ready if args.setup_only else run.measure(ready)
    except (workloads.MissingProgram, RuntimeError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
