"""Make a workload's record and its expected counts, in their own process.

    python3 perfbench/inputs.py --workload NAME --seed N [--photons N]

The record is written by ``csmg simulate`` (the same CLI path a user
runs) from the seed, then counted by the benchmark's own oracle over the
whole record and over a prefix, in both scan modes.  The entry is cached
under perfbench/.cache/<workload>-n<photons>-s<seed>/ and reused when it
exists, so neither the measured process's set-up time nor its peak memory
contains input generation.  Prints the entry's directory.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys

import oracle
import workloads

# Other-mode prefix check size: larger than one simulator chunk (2^20).
PREFIX_PHOTONS = 1_200_000
# Entries kept per workload; older ones are deleted to bound disk use.
KEEP_ENTRIES = 2


def entry_dir(w: workloads.Workload, seed: int) -> str:
    return os.path.join(workloads.CACHE_DIR, f"{w.name}-n{w.n_photons}-s{seed}")


def build(w: workloads.Workload, seed: int) -> str:
    final = entry_dir(w, seed)
    if os.path.isfile(os.path.join(final, "meta.json")):
        return final
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        cli = workloads.import_csmg().cli
        record = os.path.join(tmp, "record.csmg")
        argv = ["simulate", *w.source_flags(workloads.record_seed(seed)),
                "--out", record]
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            rc = cli.run(argv)
        if rc != 0:
            raise RuntimeError(f"csmg {' '.join(argv)} exited {rc}")
        events, burn_in = oracle.read_record(record)
        ids = w.template_ids()
        prefix = min(PREFIX_PHOTONS, events.shape[0])
        meta = {
            "workload": w.name, "n_photons": w.n_photons, "seed": seed,
            "burn_in": burn_in, "sha256": oracle.sha256_file(record),
            "template_ids": ids, "prefix_photons": prefix,
            "expected": oracle.count(events, burn_in, ids),
            "prefix_expected": oracle.count(events[:prefix], burn_in, ids),
        }
        with open(os.path.join(tmp, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _evict(w.name, keep=final)
    return final


def _evict(name: str, keep: str) -> None:
    entries = [os.path.join(workloads.CACHE_DIR, d)
               for d in os.listdir(workloads.CACHE_DIR)
               if d.startswith(f"{name}-n") and ".tmp" not in d]
    entries.sort(key=os.path.getmtime, reverse=True)
    for old in entries[KEEP_ENTRIES:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--photons", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(workloads.CACHE_DIR, exist_ok=True)
    try:
        print(build(workloads.get(args.workload, args.photons), args.seed))
    except (workloads.MissingProgram, RuntimeError, ValueError, OSError) as exc:
        print(f"inputs: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
