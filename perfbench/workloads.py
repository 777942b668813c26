"""Workload definitions: record configuration and the CLI commands timed.

Every workload is single-process and single-threaded (``--threads 1``).
Noise is p_sigma = 0.002, p_zz = 0.01 throughout.  See README.md for why
each workload exists and which layer it loads.
"""
from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, replace
from typing import List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Run artefacts; all git-ignored.
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
TRACE_DIR = os.path.join(BENCH_DIR, ".traces")

BURN_IN = 100
THIRD = repr(1.0 / 3.0)


class MissingProgram(Exception):
    """The checkout has no csmg sources next to the benchmark."""


def import_csmg():
    """Import csmg from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "csmg", "__init__.py")
    if not os.path.isfile(init):
        raise MissingProgram(f"no csmg sources at {os.path.dirname(init)}")
    sys.path.insert(0, SRC)
    csmg = importlib.import_module("csmg")
    importlib.import_module("csmg.cli")
    if os.path.abspath(csmg.__file__) != init:
        raise MissingProgram(f"csmg imported from {csmg.__file__}, not {init}")
    return csmg


@dataclass(frozen=True)
class Workload:
    name: str
    n_photons: int
    p_d: str
    q: Tuple[str, str, str]
    scan_flags: Tuple[str, ...]
    mode: str
    # True when the timed commands include ``simulate``; otherwise the
    # record is an input made by a separate process before timing.
    simulates: bool
    # The canary.py kind that resembles the workload's dominant layer.
    canary: str

    def source_flags(self, seed: int, n_photons: int = 0) -> List[str]:
        return ["--photons", str(n_photons or self.n_photons),
                "--seed", str(seed), "--pd", self.p_d,
                "--qx", self.q[0], "--qy", self.q[1], "--qz", self.q[2],
                "--psigma", "0.002", "--pzz", "0.01",
                "--burn-in", str(BURN_IN)]

    def scan_args(self, record: str, out: str, mode: str = "",
                  threads: int = 1) -> List[str]:
        return ["scan", record, *self.scan_flags, "--mode", mode or self.mode,
                "--threads", str(threads), "--out", out]

    def other_mode(self) -> str:
        return "greedy" if self.mode == "all" else "all"

    def template_ids(self) -> List[str]:
        """Template ids in the order the CLI writes them."""
        flags = dict(zip(self.scan_flags[::2], self.scan_flags[1::2]))
        if "--l-values" in flags:
            ls = [int(v) for v in flags["--l-values"].split(",")]
        else:
            ls = [l for l in range(2, int(flags["--lmax"]) + 1) if l % 3 == 2]
        return [f"{fam}(l={l})" for fam in ("Gamma1", "Gamma2") for l in ls]


_QUICKSTART_Q = ("0.2", "0.6", "0.2")

WORKLOADS = {
    w.name: w for w in (
        Workload("quickstart", 10_000_000, "0.5", _QUICKSTART_Q,
                 ("--l-values", "2,5,8"), "all", True, "interp"),
        Workload("rescan_l50", 10_000_000, "0.5", _QUICKSTART_Q,
                 ("--lmax", "50"), "all", False, "vector"),
        Workload("greedy_lossless", 30_000_000, "1", (THIRD, THIRD, THIRD),
                 ("--l-values", "2,5,8"), "greedy", False, "interp"),
    )
}


def get(name: str, n_photons: int = 0) -> Workload:
    """The named workload, with its record size replaced when n_photons > 0."""
    w = WORKLOADS[name]
    return replace(w, n_photons=n_photons) if n_photons else w


def record_seed(seed: int) -> int:
    """Map the benchmark's seed argument onto the simulator's seed range."""
    return seed % (1 << 32)
