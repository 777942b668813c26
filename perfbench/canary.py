"""Machine-speed canaries: fixed pieces of work that do not use csmg.

On a shared host the same code runs up to about 50% slower for seconds to
tens of seconds at a time, and CPU time slows with wall time.  A canary run
right before and right after a timed interval sees the same slow or fast
period, so dividing by it removes most of that drift:

    calibrated seconds = wall seconds * REF_S[kind] / canary seconds

is the interval's length at the machine speed where the canary takes
REF_S[kind].  A program change cannot move a canary, so a calibrated time
moves only with the program.  The measured process asks a Probe, a child
process, for its canaries: run in the measured process itself, a canary's
allocations change the state of its heap, and with that the program's
speed.

Slow periods do not slow every kind of work alike, so there are two kinds,
and each workload uses the one that resembles its dominant layer:

- ``interp``: a pure-Python loop and many small numpy calls, like the
  simulator's chain walk, the greedy per-match loop and ``import``.
- ``vector``: compare, and, xor and nonzero passes over 1 MiB uint8 arrays,
  like the template masks of a scan in mode all.
"""
from __future__ import annotations

import functools
import subprocess
import sys
import time
from typing import Tuple

import numpy as np

# About each canary's time in a fast period of the 2-core Xeon VM the bounds
# were set on.  Any fixed values would do: only ratios of calibrated times
# are compared.
REF_S = {"interp": 0.1, "vector": 0.1}
_LOOP = 1_000_000
_CALLS = 20_000
_ROWS = 1 << 20
_SLOTS = 12
_PASSES = 24


@functools.lru_cache(maxsize=None)
def _arrays() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    return (np.sort(rng.random(4096)), rng.random(_CALLS),
            rng.integers(0, 8, _ROWS + _SLOTS, dtype=np.uint8))


def _interp() -> None:
    table, keys, _ = _arrays()
    total = 0
    for i in range(_LOOP):
        total += i
    for key in keys:
        np.searchsorted(table, key)


def _vector() -> None:
    events = _arrays()[2]
    for _ in range(_PASSES):
        bases, signs = events >> 1, events & 1
        mask = bases[:_ROWS] == 1
        parity = signs[:_ROWS].copy()
        for slot in range(1, _SLOTS):
            np.logical_and(mask, bases[slot:slot + _ROWS] == slot % 3 + 1, out=mask)
            np.bitwise_xor(parity, signs[slot:slot + _ROWS], out=parity)
        np.flatnonzero(mask)


def seconds(kind: str) -> float:
    """Wall time of one run of the ``kind`` canary."""
    work = {"interp": _interp, "vector": _vector}[kind]
    _arrays()
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def calibrated(wall: float, kind: str, before: float, after: float) -> float:
    """``wall`` at reference machine speed, given canaries on either side."""
    return wall * REF_S[kind] / ((before + after) / 2.0)


class Probe:
    """Runs canaries in a child process; use as a context manager."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def seconds(self, kind: str) -> float:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"canary probe exited {self.proc.wait()}")
        return float(line)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()


if __name__ == "__main__":
    # Probe child: one canary kind per input line, its seconds per output line.
    for request in sys.stdin:
        print(seconds(request.strip()), flush=True)
