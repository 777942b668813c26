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

Records stream through fixed buffers in both directions: ``record_writer``
takes the payload piece by piece, and a record made by ``open_record``
keeps its file open so that ``read_events`` copies any run of its bytes
with ``os.preadv``, without making the memory map resident.
"""
from __future__ import annotations

import operator
import os
import struct
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

import numpy as np

MAGIC = b"CSMG"
VERSION = 1
_HEADER = struct.Struct("<4sBQQ")
HEADER_SIZE = _HEADER.size  # 21
# the header stores the photon count and the burn-in as uint64
MAX_PHOTONS = MAX_BURN_IN = (1 << 64) - 1
_VALIDATE_CHUNK = 1 << 18  # validation pieces and their temporaries stay in L2

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


class _OpenFile:
    """A read-only file descriptor, closed when its last reference goes."""

    __slots__ = ("fd", "__weakref__")

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self.fd)


@dataclass(frozen=True)
class ClickRecord:
    """A photon-by-photon detection record; its fields cannot be reassigned.

    ``events`` is a uint8 array using the byte encoding above; the first
    ``burn_in`` photons were produced while the source settles and are
    always skipped during scanning.  ``burn_in`` is an integer in
    [0, MAX_BURN_IN], so every record fits the file header.  ``_file`` is
    set by ``open_record`` alone: the open file whose payload ``events``
    maps.
    """

    events: np.ndarray
    burn_in: int = 0
    _file: Optional[_OpenFile] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events",
                           np.ascontiguousarray(self.events, dtype=np.uint8))
        object.__setattr__(self, "burn_in", check_burn_in(self.burn_in))

    def __getstate__(self) -> dict:
        # a descriptor number means nothing in another process: a pickled
        # record carries its bytes and reads them from ``events``
        return {**self.__dict__, "_file": None}

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


class RecordWriter:
    """The payload end of ``record_writer``: validates, writes and tallies
    each piece it is given."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.written = 0
        self.lost = 0

    def write(self, events: np.ndarray) -> None:
        """Append ``events``, the next photons of the record, in order."""
        validate_events(events, HEADER_SIZE + self.written)
        self._fh.write(events)
        self.written += events.shape[0]
        self.lost += events.shape[0] - np.count_nonzero(events)


@contextmanager
def record_writer(path: Union[str, os.PathLike], count: int,
                  burn_in: int) -> Iterator[RecordWriter]:
    """Write a record of ``count`` photons through ``RecordWriter.write``.

    The file is built under a temporary name next to ``path``, synced to
    disk, and renamed onto it only when the block ends without error and
    every photon was written; otherwise the temporary file is removed and
    a file already at ``path`` is kept as it was.  ``path`` is replaced,
    not written through: it must name a regular file, or none, in a
    writable directory.
    """
    header = _HEADER.pack(MAGIC, VERSION, count, check_burn_in(burn_in))
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(header)
            writer = RecordWriter(fh)
            yield writer
            if writer.written != count:
                raise ValueError(f"record holds {count} photons, "
                                 f"got {writer.written}")
            # without the sync a crash could keep the rename and lose the
            # bytes, replacing a whole record with an empty one
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_record(path: Union[str, os.PathLike], record: ClickRecord) -> None:
    with record_writer(path, len(record), record.burn_in) as writer:
        writer.write(record.events)


def _read_header(raw: bytes) -> Tuple[int, int]:
    if len(raw) < HEADER_SIZE:
        raise RecordFormatError("truncated header", len(raw))
    magic, version, count, burn_in = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise RecordFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise RecordFormatError(f"unsupported version {version}", 4)
    return count, burn_in


def _pread(fd: int, out: np.ndarray, offset: int) -> None:
    """Fill ``out`` with the file's bytes from ``offset`` on."""
    done = 0
    while done < out.shape[0]:
        got = os.preadv(fd, [out[done:]], offset + done)
        if got == 0:
            raise RecordFormatError("record file ends early", offset + done)
        done += got


def open_record(path: Union[str, os.PathLike]) -> ClickRecord:
    """Open a record read-only; every payload byte is validated.

    Validation reads the payload through the file, 256 KiB at a time into
    one buffer, so it makes no page of the memory map resident.  The
    record keeps the file open for ``read_events``; ``events`` maps the
    payload and is read only by whoever indexes it.
    """
    file = _OpenFile(path)
    size = os.fstat(file.fd).st_size
    count, burn_in = _read_header(os.pread(file.fd, HEADER_SIZE, 0))
    if size - HEADER_SIZE != count:
        raise RecordFormatError(
            f"file holds {size - HEADER_SIZE} photons, header promised {count}",
            HEADER_SIZE + min(size - HEADER_SIZE, count))
    piece = np.empty(min(count, _VALIDATE_CHUNK), dtype=np.uint8)
    for start in range(0, count, _VALIDATE_CHUNK):
        part = piece[:min(_VALIDATE_CHUNK, count - start)]
        _pread(file.fd, part, HEADER_SIZE + start)
        validate_events(part, HEADER_SIZE + start)
    with open(file.fd, "rb", closefd=False) as fh:
        events = np.memmap(fh, dtype=np.uint8, mode="r", offset=HEADER_SIZE,
                           shape=(count,))
    record = ClickRecord(events=events, burn_in=burn_in)
    object.__setattr__(record, "_file", file)
    return record


def read_events(record: ClickRecord, start: int, out: np.ndarray) -> None:
    """Copy ``record.events[start:start + len(out)]`` into ``out``.

    A record made by ``open_record`` is read from its open file, so the
    copy leaves its memory map untouched; any other is copied from
    ``events``.
    """
    if record._file is None:
        np.copyto(out, record.events[start:start + out.shape[0]])
    else:
        _pread(record._file.fd, out, HEADER_SIZE + start)
