"""The benchmark's own reading of a record and its own template counts.

Nothing here imports csmg: the record header is parsed by hand and the
template patterns are written out from their published form, so a scan
result that agrees with these counts is checked against independent code.

    Gamma1(l) = Z YY (_ YY)^k Z        l = 2 + 3k, pair (0, l)
    Gamma2(l) = Z X (_ YY)^k _ X Z

A window at offset o matches when every patterned slot holds a detection
in that basis; its sign is the product of the matched outcomes.  Mode
"all" counts every matching offset; mode "greedy" walks offsets upward
and keeps a match only when it starts at or after the end of the last
kept one.  Offsets start at the header's burn-in.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Tuple

import numpy as np

HEADER = struct.Struct("<4sBQQ")
_CODES = {"X": 1, "Y": 2, "Z": 3}
# Offsets are processed in blocks of this many; deliberately unrelated to
# the scanner's own chunk size so block seams fall elsewhere.
_BLOCK = 3_000_000

Counts = Dict[str, Tuple[int, int]]  # template id -> (match_count, signed_sum)


def pattern(template_id: str) -> str:
    family, rest = template_id.split("(l=")
    l = int(rest.rstrip(")"))
    k, r = divmod(l - 2, 3)
    if l < 2 or r:
        raise ValueError(f"no template {template_id}")
    if family == "Gamma1":
        return "Z" + "YY" + "_YY" * k + "Z"
    if family == "Gamma2":
        return "ZX" + "_YY" * k + "_XZ"
    raise ValueError(f"no template {template_id}")


def read_record(path: str) -> Tuple[np.ndarray, int]:
    """(event bytes, burn_in) of a record file."""
    with open(path, "rb") as fh:
        magic, version, count, burn_in = HEADER.unpack(fh.read(HEADER.size))
        events = np.fromfile(fh, dtype=np.uint8)
    if magic != b"CSMG" or version != 1 or events.shape[0] != count:
        raise ValueError(f"{path}: not a version-1 CSMG record of {count} photons")
    return events, burn_in


def write_record(path: str, events: np.ndarray, burn_in: int) -> None:
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(b"CSMG", 1, events.shape[0], burn_in))
        fh.write(np.ascontiguousarray(events, dtype=np.uint8).tobytes())


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 22), b""):
            digest.update(piece)
    return digest.hexdigest()


def _matches(events: np.ndarray, burn_in: int,
             slots: str) -> Tuple[np.ndarray, np.ndarray]:
    """Matching offsets and their outcome parities (0 = +1, 1 = -1)."""
    span = len(slots)
    required = [(p, _CODES[c]) for p, c in enumerate(slots) if c != "_"]
    end = events.shape[0] - span + 1
    offsets: List[np.ndarray] = []
    parities: List[np.ndarray] = []
    for lo in range(burn_in, end, _BLOCK):
        hi = min(lo + _BLOCK, end)
        ok = np.ones(hi - lo, dtype=bool)
        par = np.zeros(hi - lo, dtype=np.uint8)
        for p, code in required:
            ev = events[lo + p:hi + p]
            ok &= (ev >> 1) == code
            par ^= ev & 1
        hit = np.flatnonzero(ok)
        offsets.append(hit + lo)
        parities.append(par[hit])
    if not offsets:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
    return np.concatenate(offsets), np.concatenate(parities)


def count(events: np.ndarray, burn_in: int,
          template_ids: List[str]) -> Dict[str, Counts]:
    """{"all": counts, "greedy": counts} for every template."""
    result: Dict[str, Counts] = {"all": {}, "greedy": {}}
    for tid in template_ids:
        slots = pattern(tid)
        offsets, parities = _matches(events, burn_in, slots)
        n_all = int(offsets.shape[0])
        odd_all = int(np.count_nonzero(parities))
        result["all"][tid] = (n_all, n_all - 2 * odd_all)
        kept = odd = 0
        next_free = burn_in
        for o, par in zip(offsets.tolist(), parities.tolist()):
            if o >= next_free:
                kept += 1
                odd += par
                next_free = o + len(slots)
        result["greedy"][tid] = (kept, kept - 2 * odd)
    return result
