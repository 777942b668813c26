"""Binary click-record format: one byte per photon plus a tiny header.

Layout (little endian):

    offset 0   4 bytes   magic  0x43 0x53 0x4D 0x47  ("CSMG")
    offset 4   1 byte    format version, currently 0x01
    offset 5   8 bytes   photon count, unsigned
    offset 13  8 bytes   burn-in count, unsigned
    offset 21  1 byte per photon

Event bytes: 0x00 = photon lost.  Otherwise bits 2..1 hold the detection
basis (01 = X, 10 = Y, 11 = Z) and bit 0 holds the outcome (0 -> +1,
1 -> -1), i.e. X+ = 0x02, X- = 0x03, Y+ = 0x04, Y- = 0x05, Z+ = 0x06,
Z- = 0x07.  Every other byte value is invalid and is rejected with the
absolute file offset of the first offender.
"""
from __future__ import annotations

import operator
import os
import struct
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

MAGIC = b"CSMG"
VERSION = 1
_HEADER = struct.Struct("<4sBQQ")
HEADER_SIZE = _HEADER.size  # 21
MAX_BURN_IN = (1 << 64) - 1  # the header stores the burn-in as uint64
_VALIDATE_CHUNK = 1 << 20  # validation temporaries stay this small on any record

EVENT_LOST = 0x00
BASIS_NONE = 0  # byte >> 1 for a lost photon
BASIS_X = 1
BASIS_Y = 2
BASIS_Z = 3
BASIS_NAMES = {BASIS_X: "X", BASIS_Y: "Y", BASIS_Z: "Z"}


class RecordFormatError(Exception):
    """Malformed record file; carries the offending absolute byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


def as_int(name: str, value) -> int:
    """``value`` as an int; a bool, float or other non-integer raises ValueError.

    numpy integers pass (through ``operator.index``).
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_burn_in(value) -> int:
    """``value`` as a burn-in: an integer in [0, MAX_BURN_IN], so that it
    fits the file header."""
    burn_in = as_int("burn_in", value)
    if not 0 <= burn_in <= MAX_BURN_IN:
        raise ValueError(f"burn_in must lie in [0, {MAX_BURN_IN}], got {burn_in}")
    return burn_in


def encode_event(basis: int, outcome: int) -> int:
    """Pack a detection into one byte; basis is BASIS_X/Y/Z, outcome +1/-1."""
    if basis not in (BASIS_X, BASIS_Y, BASIS_Z):
        raise ValueError(f"bad basis code {basis}")
    if outcome not in (1, -1):
        raise ValueError(f"bad outcome {outcome}")
    return (basis << 1) | (0 if outcome == 1 else 1)


def event_basis(byte: int) -> int:
    return byte >> 1


def event_outcome(byte: int) -> int:
    """+1/-1 for a detection; raises on a lost photon."""
    if byte == EVENT_LOST:
        raise ValueError("lost photon has no outcome")
    return 1 - 2 * (byte & 1)


@dataclass(frozen=True)
class ClickRecord:
    """A photon-by-photon detection record; its fields cannot be reassigned.

    ``events`` is a uint8 array using the byte encoding above; the first
    ``burn_in`` photons were produced while the source settles and are
    always skipped during scanning.  ``burn_in`` is an integer in
    [0, MAX_BURN_IN], so every record fits the file header.
    """

    events: np.ndarray
    burn_in: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events",
                           np.ascontiguousarray(self.events, dtype=np.uint8))
        object.__setattr__(self, "burn_in", check_burn_in(self.burn_in))

    def __len__(self) -> int:
        return int(self.events.shape[0])

    def lost_fraction(self) -> float:
        n = len(self)
        if n == 0:
            return 0.0
        # lost bytes are the zero bytes, so this needs no record-sized mask
        return (n - np.count_nonzero(self.events)) / n

    def basis_counts(self) -> dict:
        b = self.events >> 1
        return {name: int(np.count_nonzero(b == code))
                for code, name in BASIS_NAMES.items()}


def validate_events(events: np.ndarray, base_offset: int = HEADER_SIZE) -> None:
    """Reject any byte outside {0x00, 0x02..0x07}; reports the file offset.

    A piece passes on two reductions, its maximum and a search for 0x01;
    only a failing piece is masked to locate its first bad byte.
    """
    for start in range(0, events.shape[0], _VALIDATE_CHUNK):
        piece = events[start:start + _VALIDATE_CHUNK]
        if piece.max() <= 0x07 and not (piece == 0x01).any():
            continue
        bad = (piece == 0x01) | (piece > 0x07)
        idx = int(np.argmax(bad))
        raise RecordFormatError(
            f"invalid event byte 0x{int(piece[idx]):02X}",
            base_offset + start + idx)


def write_record(path: Union[str, os.PathLike], record: ClickRecord) -> None:
    validate_events(record.events)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(record), record.burn_in))
        fh.write(record.events)


def _read_header(fh) -> Tuple[int, int]:
    raw = fh.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise RecordFormatError("truncated header", len(raw))
    magic, version, count, burn_in = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise RecordFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise RecordFormatError(f"unsupported version {version}", 4)
    return count, burn_in


def open_record(path: Union[str, os.PathLike]) -> ClickRecord:
    """Memory-map a record read-only; every payload byte is validated."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        count, burn_in = _read_header(fh)
    if size - HEADER_SIZE != count:
        raise RecordFormatError(
            f"file holds {size - HEADER_SIZE} photons, header promised {count}",
            HEADER_SIZE + min(size - HEADER_SIZE, count))
    events = np.memmap(path, dtype=np.uint8, mode="r", offset=HEADER_SIZE, shape=(count,))
    validate_events(events)
    return ClickRecord(events=events, burn_in=burn_in)

