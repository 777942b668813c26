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
takes the payload piece by piece, and ``open_record`` returns a
``RecordFile``, which validates the payload as it is made, reads any run
of its bytes through the open file with ``os.preadv`` and maps nothing.
"""
from __future__ import annotations

import operator
import os
import struct
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

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


def _check_run(start: int, length: int, count: int) -> None:
    """Reject a read of ``length`` photons from ``start`` that does not lie
    within a record of ``count`` photons."""
    if not 0 <= start <= count - length:
        raise ValueError(f"cannot read photons [{start}, {start + length}) "
                         f"of a record of {count}")


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

    ``events`` is a 1-D uint8 array in the byte encoding above; the first
    ``burn_in`` photons were produced while the source settles and are
    always skipped during scanning.  ``burn_in`` is an integer in
    [0, MAX_BURN_IN], so every record fits the file header.  Values that
    a uint8 cast would change are rejected, not wrapped into bytes, and so
    is any byte that ``validate_events`` refuses in a record file, with
    the message that ``write_record`` gives for it.
    """

    events: np.ndarray
    burn_in: int = 0

    def __post_init__(self) -> None:
        events = self.events
        if getattr(events, "dtype", None) != np.uint8:
            given = np.asarray(events)
            with np.errstate(invalid="ignore"):
                events = given.astype(np.uint8)
            if not np.array_equal(events, given):
                raise ValueError("events must be byte values that a uint8 "
                                 f"cast keeps, got {given.dtype} values "
                                 "that it changes")
        if np.ndim(events) != 1:  # one byte per photon, never reshaped
            raise ValueError(f"events must be 1-D, got {np.ndim(events)}-D")
        validate_events(events)
        object.__setattr__(self, "events", np.ascontiguousarray(events))
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
        # counted per piece, so no temporary is record-sized
        counts = dict.fromkeys(BASIS_NAMES.values(), 0)
        for start in range(0, len(self), _VALIDATE_CHUNK):
            bases = self.events[start:start + _VALIDATE_CHUNK] >> 1
            for code, name in BASIS_NAMES.items():
                counts[name] += int(np.count_nonzero(bases == code))
        return counts

    def read(self, start: int, out: np.ndarray) -> None:
        """Copy ``events[start:start + len(out)]`` into ``out``; the run
        must lie within the record."""
        _check_run(start, out.shape[0], len(self))
        np.copyto(out, self.events[start:start + out.shape[0]])


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


class RecordFile:
    """A record read through its open file, which nothing maps.

    Made from a path, it checks the header, the file size and every
    payload byte, read through ``read`` 256 KiB at a time into one buffer.
    A descriptor means nothing in another process, so it pickles as its
    ``load()`` copy.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self._fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self._fd)
        size = os.fstat(self._fd).st_size
        count, self._burn_in = _read_header(os.pread(self._fd, HEADER_SIZE, 0))
        if size - HEADER_SIZE != count:
            raise RecordFormatError(
                f"file holds {size - HEADER_SIZE} photons, header promised {count}",
                HEADER_SIZE + min(size - HEADER_SIZE, count))
        self._count = count
        piece = np.empty(min(count, _VALIDATE_CHUNK), dtype=np.uint8)
        for start in range(0, count, _VALIDATE_CHUNK):
            part = piece[:min(_VALIDATE_CHUNK, count - start)]
            self.read(start, part)
            validate_events(part, HEADER_SIZE + start)

    def __len__(self) -> int:
        return self._count

    @property
    def burn_in(self) -> int:
        """Read-only, as a ``ClickRecord``'s: the scan starts here."""
        return self._burn_in

    def __reduce__(self):
        return ClickRecord, (self.load().events, self.burn_in)

    def read(self, start: int, out: np.ndarray) -> None:
        """Fill ``out`` with the payload bytes from ``start`` on; the run
        must lie within the record."""
        _check_run(start, out.shape[0], self._count)
        offset, done = HEADER_SIZE + start, 0
        while done < out.shape[0]:
            got = os.preadv(self._fd, [out[done:]], offset + done)
            if got == 0:
                raise RecordFormatError("record file ends early", offset + done)
            done += got

    def load(self) -> ClickRecord:
        """The whole payload, read into memory."""
        events = np.empty(self._count, dtype=np.uint8)
        self.read(0, events)
        return ClickRecord(events, self.burn_in)


def open_record(path: Union[str, os.PathLike]) -> RecordFile:
    """Open a record read-only: ``RecordFile(path)``, which validates
    every payload byte as it is made."""
    return RecordFile(path)
