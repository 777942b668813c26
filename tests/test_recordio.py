"""Binary click-record format: round trips and corruption handling."""
import hashlib
import os
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import csmg.recordio as recordio
from csmg.recordio import (
    EVENT_LOST,
    HEADER_SIZE,
    MAGIC,
    MAX_BURN_IN,
    VERSION,
    ClickRecord,
    RecordFile,
    RecordFormatError,
    encode_event,
    event_basis,
    event_outcome,
    open_record,
    record_writer,
    validate_events,
    write_record,
)

VALID_BYTES = [0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07]
# validation reads 256 KiB pieces; 1 MiB is a multiple of that, so offsets
# built from _PIECE fall on piece seams
_PIECE = 1 << 20


def test_event_codec_covers_all_valid_bytes():
    assert encode_event(1, 1) == 0x02
    assert encode_event(1, -1) == 0x03
    assert encode_event(2, 1) == 0x04
    assert encode_event(2, -1) == 0x05
    assert encode_event(3, 1) == 0x06
    assert encode_event(3, -1) == 0x07
    for byte in VALID_BYTES[1:]:
        assert encode_event(event_basis(byte), event_outcome(byte)) == byte


def test_lost_byte_is_reserved_zero():
    assert EVENT_LOST == 0x00
    assert event_basis(EVENT_LOST) == 0


def test_validate_rejects_reserved_and_oversized_bytes():
    good = np.array(VALID_BYTES, dtype=np.uint8)
    validate_events(good)
    for bad, where in [(0x01, 3), (0x08, 0), (0xFF, 6)]:
        events = good.copy()
        events[where] = bad
        with pytest.raises(RecordFormatError) as err:
            validate_events(events)
        assert err.value.offset == HEADER_SIZE + where
        assert f"0x{bad:02X}" in str(err.value)


@pytest.mark.parametrize("bad", [0x01, 0x08, 0xFF])
def test_validate_reports_bad_byte_at_piece_edges(bad):
    # two full 1 MiB pieces and a short last one
    n = 2 * _PIECE + 100
    for where in (0, _PIECE - 1, _PIECE, 2 * _PIECE - 1, 2 * _PIECE,
                  2 * _PIECE + 50, n - 1):
        events = np.full(n, 0x06, dtype=np.uint8)
        events[where] = bad
        with pytest.raises(RecordFormatError) as err:
            validate_events(events)
        assert err.value.offset == HEADER_SIZE + where
        assert str(err.value) == (f"invalid event byte 0x{bad:02X} "
                                  f"(byte offset {HEADER_SIZE + where})")


def test_validate_reports_first_bad_byte_of_a_piece():
    events = np.full(_PIECE + 10, 0x07, dtype=np.uint8)
    events[[5, 9, _PIECE + 3]] = [0xFF, 0x01, 0x08]
    with pytest.raises(RecordFormatError) as err:
        validate_events(events, base_offset=0)
    assert (err.value.offset, str(err.value)) == (
        5, "invalid event byte 0xFF (byte offset 5)")
    events[5] = 0x00
    with pytest.raises(RecordFormatError) as err:
        validate_events(events, base_offset=0)
    assert err.value.offset == 9


def test_validate_accepts_every_valid_byte_across_pieces(tmp_path):
    rng = np.random.default_rng(9)
    events = rng.choice(np.array(VALID_BYTES, dtype=np.uint8),
                        size=2 * _PIECE + 100)
    events[-7:] = VALID_BYTES
    validate_events(events)
    path = tmp_path / "valid.csmg"
    write_record(path, ClickRecord(events=events, burn_in=0))
    assert np.array_equal(open_record(path).load().events, events)


def test_record_roundtrip_through_buffer(tmp_path):
    rng = np.random.default_rng(4)
    events = rng.choice(np.array(VALID_BYTES, dtype=np.uint8), size=5000)
    rec = ClickRecord(events=events, burn_in=17)
    path = tmp_path / "stream.csmg"
    write_record(path, rec)
    back = open_record(path)
    assert back.burn_in == 17
    assert np.array_equal(back.load().events, events)


def test_open_record_memmap_matches(tmp_path):
    events = np.array(VALID_BYTES * 10, dtype=np.uint8)
    path = tmp_path / "stream.csmg"
    write_record(path, ClickRecord(events=events, burn_in=3))
    mapped = open_record(path)
    assert mapped.burn_in == 3
    assert np.array_equal(np.asarray(mapped.load().events), events)


def test_header_magic_and_version_enforced(tmp_path):
    path = tmp_path / "stream.csmg"
    write_record(path, ClickRecord(events=np.array([0x06], dtype=np.uint8),
                                   burn_in=0))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(RecordFormatError):
        open_record(path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"CSMG"
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(RecordFormatError):
        open_record(path)


def test_truncated_payload_detected(tmp_path):
    events = np.array([0x02, 0x04, 0x06, 0x07], dtype=np.uint8)
    path = tmp_path / "stream.csmg"
    write_record(path, ClickRecord(events=events, burn_in=0))
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(RecordFormatError):
        open_record(path)


def test_corrupt_payload_byte_reported_with_offset(tmp_path):
    events = np.array([0x02, 0x04, 0x06, 0x07], dtype=np.uint8)
    path = tmp_path / "stream.csmg"
    write_record(path, ClickRecord(events=events, burn_in=0))
    blob = bytearray(path.read_bytes())
    blob[-2] = 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(RecordFormatError) as err:
        open_record(path)
    assert "2" in str(err.value)


def _record_with_bad_byte(path, n, where):
    write_record(path, ClickRecord(events=np.full(n, 0x06, dtype=np.uint8),
                                   burn_in=0))
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + where] = 0x09
    path.write_bytes(bytes(blob))


def test_a_record_file_validates_its_payload_when_made(tmp_path):
    # RecordFile(path) used to check the header and size alone, so a scan
    # of this file counted matches as if the 0xFF byte were an event
    path = tmp_path / "bad.csmg"
    write_record(path, ClickRecord(events=np.tile(
        np.array([0x06, 0x04, 0x04], np.uint8), 67)[:200]))
    blob = bytearray(path.read_bytes())
    blob[HEADER_SIZE + 7] = 0xFF
    path.write_bytes(bytes(blob))
    for opener in (RecordFile, open_record):
        with pytest.raises(RecordFormatError) as err:
            opener(path)
        assert str(err.value) == "invalid event byte 0xFF (byte offset 28)"
        assert err.value.offset == 28


@pytest.mark.parametrize("events, ndim", [
    (np.full((3, 4), 0x04, np.uint8), 2),
    (np.array(0x04, np.uint8), 0),
    (0x04, 0),
])
def test_record_takes_one_byte_per_photon_only(events, ndim):
    # a (3, 4) array used to make a 3-photon record whose file held 12
    # payload bytes, and a 0-d array a record of one photon
    with pytest.raises(ValueError, match=f"^events must be 1-D, got {ndim}-D$"):
        ClickRecord(events=events)


def test_open_record_reports_offset_past_first_chunk(tmp_path):
    # open_record validates the payload piece by piece
    path = tmp_path / "stream.csmg"
    where = (1 << 20) + 7
    _record_with_bad_byte(path, (1 << 20) + 100, where)
    with pytest.raises(RecordFormatError) as err:
        open_record(path)
    assert err.value.offset == HEADER_SIZE + where

def test_write_record_makes_no_record_sized_temporaries(tmp_path):
    n = 1 << 24  # 16 MiB
    events = np.full(n, 0x06, dtype=np.uint8)
    events[::3] = 0x03
    record = ClickRecord(events=events, burn_in=5)
    path = tmp_path / "big.csmg"
    tracemalloc.start()
    try:
        write_record(path, record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n // 2
    blob = path.read_bytes()
    assert len(blob) == HEADER_SIZE + n
    assert hashlib.sha256(blob[HEADER_SIZE:]).digest() == hashlib.sha256(events).digest()


def test_lost_fraction_makes_no_record_sized_temporary():
    n = 1 << 24  # 16 MiB
    events = np.full(n, 0x06, dtype=np.uint8)
    events[::3] = EVENT_LOST
    record = ClickRecord(events=events, burn_in=0)
    tracemalloc.start()
    try:
        lost = record.lost_fraction()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n // 2
    assert lost == np.count_nonzero(events == EVENT_LOST) / n


def test_basis_counts_makes_no_record_sized_temporary():
    n = 1 << 24  # 16 MiB
    events = np.full(n, 0x06, dtype=np.uint8)
    events[::3] = EVENT_LOST
    events[1::5] = 0x03
    events[2::7] = 0x05
    record = ClickRecord(events=events, burn_in=0)
    tracemalloc.start()
    try:
        counts = record.basis_counts()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n // 2
    assert counts == {name: int(np.count_nonzero(events >> 1 == code))
                      for code, name in ((1, "X"), (2, "Y"), (3, "Z"))}


@pytest.mark.parametrize("events", [
    np.array([0x106, 0x104, 0x104, 0x106]),
    [6.9, 4.2, 4.0, 6.0],
    np.array([-250, 4, 4, 6]),
    np.array([6.0, np.nan]),
])
def test_record_rejects_events_that_a_uint8_cast_changes(events):
    # a wrapping or truncating cast turns the first three into the bytes
    # 6 4 4 6, a Gamma1(2) match, and a NaN into an arbitrary byte
    with pytest.raises(ValueError, match="uint8 cast"):
        ClickRecord(events=events)


def test_record_takes_events_that_a_uint8_cast_keeps():
    for events in ([6, 4, 4, 6], np.array([6.0, 4.0, 4.0, 6.0]),
                   np.array([6, 4, 4, 6], dtype=np.int64)):
        rec = ClickRecord(events=events)
        assert rec.events.dtype == np.uint8
        assert bytes(rec.events) == bytes([6, 4, 4, 6])


_LENGTHS = st.one_of(st.integers(0, 300),
                     st.integers(_PIECE - 4, _PIECE + 300),
                     st.integers(2 * _PIECE - 4, 2 * _PIECE + 4))
_PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _record_bytes(n):
    events = np.full(n, 0x06, dtype=np.uint8)
    events[:min(n, 7)] = VALID_BYTES[:min(n, 7)]
    return bytearray(MAGIC + bytes([VERSION]) + struct.pack("<QQ", n, 0)
                     + events.tobytes())


def _expect_offset(path, blob, offset, message):
    path.write_bytes(bytes(blob))
    with pytest.raises(RecordFormatError) as err:
        open_record(path)
    assert err.value.offset == offset
    assert message in str(err.value)
    assert f"(byte offset {offset})" in str(err.value)


@_PROPERTY_SETTINGS
@given(n=_LENGTHS, data=st.data())
def test_open_record_reports_offset_of_truncation(tmp_path, n, data):
    blob = _record_bytes(n)
    cut = data.draw(st.one_of(st.integers(0, len(blob) - 1),
                              st.integers(max(0, len(blob) - 300), len(blob) - 1)))
    message = "truncated header" if cut < HEADER_SIZE else "header promised"
    _expect_offset(tmp_path / "cut.csmg", blob[:cut], cut, message)


@_PROPERTY_SETTINGS
@given(n=_LENGTHS, data=st.data())
def test_open_record_reports_offset_of_corrupt_byte(tmp_path, n, data):
    blob = _record_bytes(n)
    # the magic, the version, anywhere in the payload, or next to a seam
    # between validation pieces or the end of the record
    near = [HEADER_SIZE + s + d for s in (_PIECE, 2 * _PIECE, n)
            for d in range(-2, 3) if 0 <= s + d < n]
    where = data.draw(st.one_of(
        st.integers(0, 4),
        *([st.integers(HEADER_SIZE, len(blob) - 1), st.sampled_from(near)]
          if n else [])))
    if where < 4:
        blob[where] ^= data.draw(st.integers(1, 255))
        _expect_offset(tmp_path / "bad.csmg", blob, 0, "bad magic")
    elif where == 4:
        blob[4] = data.draw(st.integers(0, 255).filter(lambda v: v != VERSION))
        _expect_offset(tmp_path / "bad.csmg", blob, 4, "unsupported version")
    else:
        blob[where] = data.draw(st.sampled_from([0x01] + list(range(0x08, 0x100))))
        _expect_offset(tmp_path / "bad.csmg", blob, where,
                       f"invalid event byte 0x{blob[where]:02X}")


def test_lost_fraction_and_basis_counts():
    events = np.array([0x00, 0x00, 0x02, 0x05, 0x06, 0x07, 0x06],
                      dtype=np.uint8)
    rec = ClickRecord(events=events, burn_in=0)
    assert rec.lost_fraction() == pytest.approx(2 / 7)
    assert len(rec) == 7
    assert rec.basis_counts() == {"X": 1, "Y": 1, "Z": 3}


def test_record_rejects_bad_burn_in():
    events = np.array([0x06], dtype=np.uint8)
    with pytest.raises(ValueError):
        ClickRecord(events=events, burn_in=-1)


def test_record_burn_in_fits_the_header(tmp_path):
    # the header stores the burn-in as uint64: a larger one used to fail
    # only at write time, with struct.error
    events = np.array([0x06], dtype=np.uint8)
    assert MAX_BURN_IN == 2 ** 64 - 1
    for burn_in in (2 ** 64, 10 ** 30):
        with pytest.raises(ValueError, match="burn_in"):
            ClickRecord(events=events, burn_in=burn_in)
    path = tmp_path / "max.csmg"
    write_record(path, ClickRecord(events=events, burn_in=MAX_BURN_IN))
    assert open_record(path).burn_in == MAX_BURN_IN


@pytest.mark.parametrize("burn_in", [2.5, 2.0, True, "2"])
def test_record_rejects_non_integer_burn_in(burn_in):
    # a float burn-in used to fail only at write time (struct.error) and a
    # scan read 2.5 as 2
    with pytest.raises(ValueError, match="burn_in must be an integer"):
        ClickRecord(events=np.array([0x06], dtype=np.uint8), burn_in=burn_in)


def test_record_takes_numpy_integer_burn_in(tmp_path):
    rec = ClickRecord(events=np.array([0x06, 0x02], dtype=np.uint8),
                      burn_in=np.int64(1))
    assert type(rec.burn_in) is int
    path = tmp_path / "np.csmg"
    write_record(path, rec)
    assert open_record(path).burn_in == 1


def test_failed_write_keeps_the_existing_file(tmp_path):
    path = tmp_path / "r.csmg"
    path.write_bytes(b"an earlier record")
    events = np.full(3 * _PIECE, 0x06, dtype=np.uint8)
    events[2 * _PIECE + 5] = 0x01
    with pytest.raises(RecordFormatError) as err:
        write_record(path, ClickRecord(events=events, burn_in=0))
    assert err.value.offset == HEADER_SIZE + 2 * _PIECE + 5
    assert path.read_bytes() == b"an earlier record"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csmg"]


def test_record_writer_takes_pieces_and_checks_the_count(tmp_path):
    events = np.array(VALID_BYTES * 3, dtype=np.uint8)
    path = tmp_path / "r.csmg"
    with record_writer(path, len(events), 4) as writer:
        for piece in np.array_split(events, 5):
            writer.write(piece)
    assert writer.lost == 3
    back = open_record(path)
    assert (back.burn_in, bytes(back.load().events)) == (4, events.tobytes())
    for pieces in ([events[:-1]], [events, events[:1]]):
        with pytest.raises(ValueError, match="record holds 21 photons"):
            with record_writer(tmp_path / "short.csmg", 21, 0) as writer:
                for piece in pieces:
                    writer.write(piece)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csmg"]


def test_record_writer_syncs_the_whole_file_before_the_rename(tmp_path,
                                                             monkeypatch):
    # the rename may reach the disk only after the bytes it publishes
    events = np.array(VALID_BYTES * 3, dtype=np.uint8)
    path = tmp_path / "r.csmg"
    path.write_bytes(b"an earlier record")
    calls = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", os.path.getsize(src)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    write_record(path, ClickRecord(events=events, burn_in=0))
    size = HEADER_SIZE + len(events)
    assert calls == [("fsync", size), ("replace", size)]
    assert path.stat().st_size == size


def test_open_record_validates_through_the_file(tmp_path, monkeypatch):
    n = 2 * _PIECE + 100
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events=np.full(n, 0x06, np.uint8)))
    reads = []
    preadv = os.preadv

    def spy(fd, buffers, offset):
        reads.append((offset, sum(len(b) for b in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    record = open_record(path)
    piece = recordio._VALIDATE_CHUNK
    assert reads == [(HEADER_SIZE + start, min(piece, n - start))
                     for start in range(0, n, piece)]
    assert len(record) == n


def test_a_pickled_opened_record_reads_its_own_bytes(tmp_path):
    events = np.array(VALID_BYTES * 50, dtype=np.uint8)
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events=events, burn_in=2))
    back = pickle.loads(pickle.dumps(open_record(path)))
    out = np.empty(100, dtype=np.uint8)
    back.read(150, out)
    assert (back.burn_in, bytes(out)) == (2, events[150:250].tobytes())
    path.write_bytes(b"")  # the copy does not read the file
    back.read(0, out)
    assert bytes(out) == events[:100].tobytes()


@_PROPERTY_SETTINGS
@given(n=st.one_of(st.integers(0, 300), st.integers(_PIECE - 4, _PIECE + 4)),
       burn_in=st.integers(0, 50), data=st.data())
def test_an_opened_record_reads_as_its_bytes_in_memory(tmp_path, n, burn_in,
                                                       data):
    events = np.random.default_rng(n).choice(
        np.array(VALID_BYTES, dtype=np.uint8), size=n)
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events, burn_in=burn_in))
    opened, held = open_record(path), ClickRecord(events, burn_in=burn_in)
    assert (len(opened), opened.burn_in) == (n, burn_in)
    with pytest.raises(AttributeError):
        opened.burn_in = -1  # read-only, as a ClickRecord's
    for _ in range(5):
        start = data.draw(st.one_of(st.integers(0, n),
                                    st.integers(max(0, n - 3), n)))
        # any run from ``start`` on, or the one that ends on the last byte
        length = data.draw(st.one_of(st.integers(0, n - start),
                                     st.just(n - start)))
        got, want = (np.empty(length, dtype=np.uint8) for _ in range(2))
        opened.read(start, got)
        held.read(start, want)
        assert bytes(got) == bytes(want) == \
            events[start:start + length].tobytes()
    loaded = opened.load()
    assert type(loaded) is ClickRecord
    assert (bytes(loaded.events), loaded.burn_in) == (events.tobytes(), burn_in)
    copy = pickle.loads(pickle.dumps(opened))
    assert type(copy) is ClickRecord
    assert (bytes(copy.events), copy.burn_in) == (events.tobytes(), burn_in)


def test_both_reads_reject_a_run_outside_the_record(tmp_path):
    # before the check, ClickRecord.read(7, out) filled a 2-byte ``out``
    # with [7 7] and RecordFile.read(-2, out) returned two header bytes
    events = np.array([0x06, 0x04, 0x04, 0x06, 0x02, 0x03, 0x05, 0x07],
                      dtype=np.uint8)
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events=events))
    for record in (ClickRecord(events=events), open_record(path)):
        for start, length in ((7, 2), (7, 3), (8, 1), (9, 0), (0, 9),
                              (-2, 2), (-1, 0), (-8, 8)):
            out = np.full(length, 0xEE, dtype=np.uint8)
            with pytest.raises(ValueError) as err:
                record.read(start, out)
            assert str(err.value) == (f"cannot read photons [{start}, "
                                      f"{start + length}) of a record of 8")
            assert bytes(out) == b"\xee" * length
        # a run may end exactly at the end, and may be empty there
        for start, length in ((6, 2), (7, 1), (0, 8), (8, 0), (3, 5)):
            out = np.empty(length, dtype=np.uint8)
            record.read(start, out)
            assert bytes(out) == events[start:start + length].tobytes()
