"""Photon-stream simulator for a linear cluster source with noise and loss.

Per emitted photon i the pipeline is: (1) emit qubit i entangled to its
predecessor, (2) with probability p_sigma draw a uniformly random Pauli
for photon i, (3) with probability p_zz apply Z(i-1)Z(i) (skipped for
the first photon), (4) finalize photon i-1: detect it with probability
p_d in a basis drawn from (q_x, q_y, q_z), otherwise trace it out as
lost.  The one-photon latency guarantees pair noise lands before either
partner is finalized.  The last photon is finalized after the loop.

A photon in flight receives no further source operations, so the Pauli
drawn for photon i commutes past everything up to photon i's own
finalization and is applied there, right after emission has entangled
i with its successor.  Applying it at the draw point instead would let
the next emission conjugate an X or Y error into a propagated Z on
photon i+1, which is an artifact of growing the chain qubit by qubit,
not a behaviour of the source.

Randomness protocol: photon i consumes exactly four uniforms
(u_sigma, u_zz, u_detbasis, u_outcome) drawn in photon order from a
PCG64 generator seeded by ``seed``.  Both simulation paths read the same
quadruples, so a (config, seed) pair yields a bit-identical record
whether it runs through the compiled transition tables or the reference
stabilizer frame, on any host, with any chunk size.

The table path works a chunk (2^17 photons) at a time and hands on
each chunk's event bytes from one reused buffer, so a run of any length
needs memory for one chunk: ``csmg simulate`` writes each chunk to disk
as it comes.  It draws the chunk's uniforms in sub-blocks of 2^14
photons into one reused (k, 4) buffer and, while that is still in
cache, transposes it into four contiguous columns, so every decision is
a contiguous compare on one column.  Each photon's decisions become a
6-bit step code.  The basis and loss decision is
``(u >= t_x) + (u >= t_xy) + (u >= p_d)``, with
thresholds found once per run as the smallest doubles whose quotient by
p_d reaches q_x and q_x + q_y: correctly rounded division is monotone,
so this equals the reference path's ``u / p_d`` tests exactly.  The
chunk's codes then drive the frontier chain as a prefix scan: every code
acts on the six frontier states as a map, the 64 maps close under
composition into 66, and composing them pairwise over a chunk yields
every photon's entry state in O(log chunk) numpy calls; the last few
levels, 64 blocks or fewer, are resolved in one short Python loop.  The
scan reads two adjacent bytes as one uint16, so each gather covers two
photons or two blocks: one lookup gives a photon pair's map, one hands
two sibling blocks their entry states, and one writes a pair's two event
bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .pauli import PauliString, StabilizerFrame
from .recordio import (EVENT_LOST, MAX_PHOTONS, ClickRecord, as_int,
                       check_burn_in, encode_event)

_CHUNK = 1 << 17  # keeps a chunk's codes and scan tree in cache
_SUB = 1 << 14    # a sub-block's (k, 4) uniforms (512 KiB) stay in L2
_AXES = "XYZ"
# fin codes: 0 = detect X, 1 = detect Y, 2 = detect Z, 3 = lost
FIN_LOST = 3


def check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


def check_splitter(p_d: float, q_x: float, q_y: float, q_z: float) -> None:
    """The detection rules: p_d a probability, and the basis shares q >= 0
    with sum 1."""
    check_probability("p_d", p_d)
    for name, q in (("q_x", q_x), ("q_y", q_y), ("q_z", q_z)):
        if not q >= 0.0:  # not q < 0, so NaN fails too
            raise ValueError(f"{name} must be >= 0")
    if abs(q_x + q_y + q_z - 1.0) > 1e-9:
        raise ValueError("q_x + q_y + q_z must equal 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, noise and detection parameters for one simulated run."""

    n_photons: int
    seed: int = 0
    p_d: float = 1.0
    q_x: float = 1.0 / 3.0
    q_y: float = 1.0 / 3.0
    q_z: float = 1.0 / 3.0
    p_sigma: float = 0.0
    p_zz: float = 0.0
    burn_in: int = 100
    tau_em: float = 1e-9

    def __post_init__(self) -> None:
        # not fields(self): RunConfig's own fields are not numbers
        for field in fields(ExperimentConfig):
            value = getattr(self, field.name)
            # a Python int is finite, and math.isfinite overflows on one
            # past the double range; the integer and range rules read it
            if not isinstance(value, int) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite")
        for name in ("n_photons", "seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "burn_in", check_burn_in(self.burn_in))
        if self.n_photons < 1:
            raise ValueError("n_photons must be >= 1")
        if self.n_photons > MAX_PHOTONS:  # the header's uint64
            raise ValueError(f"n_photons must be <= {MAX_PHOTONS}")
        check_splitter(self.p_d, self.q_x, self.q_y, self.q_z)
        check_probability("p_sigma", self.p_sigma)
        check_probability("p_zz", self.p_zz)
        if self.tau_em <= 0.0:
            raise ValueError("tau_em must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# ---------------------------------------------------------------------------
# Shared uniform -> decision helpers.  The scalar and vector versions must
# make identical decisions for every double: the sigma pick uses the same
# expression, the basis pick exact thresholds in place of the quotient.
# The reference and table paths both rely on that for bit-identical records.

def _sigma_choice(u: float, p_sigma: float) -> int:
    """0 = no error, 1/2/3 = X/Y/Z, reusing the firing uniform for the pick."""
    if p_sigma <= 0.0 or u >= p_sigma:
        return 0
    return 1 + min(int(u * (3.0 / p_sigma)), 2)


def _fin_choice(u: float, p_d: float, q_x: float, q_xy: float) -> int:
    if p_d <= 0.0 or u >= p_d:
        return FIN_LOST
    v = u / p_d
    return int(v >= q_x) + int(v >= q_xy)


def _cut(q: float, p_d: float) -> float:
    """The smallest double t in [0, p_d) with t / p_d >= q, else p_d.

    Correctly rounded division is monotone in t, so for 0 <= u < p_d the
    test ``u >= _cut(q, p_d)`` is exactly ``u / p_d >= q``.  The rounded
    product q * p_d is within a few doubles of that t, so the search
    starts there and steps one double at a time: down while the double
    below still passes, then up while t fails.
    """
    t = min(q * p_d, p_d)
    while t > 0.0 and math.nextafter(t, 0.0) / p_d >= q:
        t = math.nextafter(t, 0.0)
    while t < p_d and t / p_d < q:
        t = math.nextafter(t, p_d)
    return t


def _fin_cuts(cfg: ExperimentConfig) -> Tuple[float, float, float]:
    """Thresholds (t_x, t_xy, p_d) with fin = #{t <= u} equal to _fin_choice.

    ``t_x <= t_xy <= p_d``, so a lost photon (u >= p_d) passes all three
    and gets fin 3 even when q_x + q_y rounds above 1.
    """
    if cfg.p_d <= 0.0:
        return 0.0, 0.0, 0.0
    t_x = _cut(cfg.q_x, cfg.p_d)
    return t_x, max(t_x, _cut(cfg.q_x + cfg.q_y, cfg.p_d)), cfg.p_d


def _encode_block(cfg: ExperimentConfig, cuts: Tuple[float, float, float],
                  cols: np.ndarray, forced: Optional[np.ndarray],
                  codes: np.ndarray, scratch: np.ndarray) -> None:
    """Encode the photons whose four uniforms are the columns of ``cols``.

    ``cols`` is (4, k) with contiguous rows.  Photon i's own decisions go to
    ``codes[i + 1]`` as ``sp*16 + fin*2 + coin``: the vector form of
    ``_sigma_choice`` and of ``_fin_choice`` through ``cuts``, plus the
    coin.  The step that emits photon i finalizes photon i - 1, so its
    pair-error bit (8 * zz) is added to ``codes[i]``; ``codes[0]`` holds
    the photon before the block.  ``scratch`` is a uint8 buffer of length k.
    """
    enc = codes[1:]
    flag = scratch.view(np.bool_)  # a compare writes bools without a cast
    if forced is not None:
        np.add(forced, forced, out=enc)
    else:
        u = cols[2]
        np.greater_equal(u, cuts[0], out=enc.view(np.bool_))
        for cut in cuts[1:]:
            np.greater_equal(u, cut, out=flag)
            enc += scratch
        enc += enc  # fin * 2; numpy's uint8 shifts are not vectorised
    np.greater_equal(cols[3], 0.5, out=flag)
    enc += scratch
    if cfg.p_sigma > 0.0:
        u = cols[0]
        fired = np.flatnonzero(u < cfg.p_sigma)
        which = np.minimum(u[fired] * (3.0 / cfg.p_sigma), 2.0).astype(np.uint8)
        which += 1
        which <<= 4
        enc[fired] += which
    if cfg.p_zz > 0.0:
        np.less(cols[1], cfg.p_zz, out=flag)
        scratch *= 8
        codes[:-1] += scratch


# ---------------------------------------------------------------------------
# Transition tables.  The per-photon update is a 6-state Markov chain over
# the frontier qubit's eigenstate (letter in {X, Y, Z}, sign in {+, -});
# the state captures the newest photon before its own deferred Pauli and
# finalization.  A step is selected by a 6-bit code
# ``sp*16 + zz*8 + fin*2 + coin``.  The base tables below are a constant:
# tests/test_stream_properties.py rebuilds every entry by driving the exact
# StabilizerFrame through one pipeline step (``_apply_step_noise`` and
# ``_finalize_to_byte``, as ``_simulate_frame`` does), asserts equality and,
# when they differ, prints the block to paste here.  So the table path is a
# memoization of the engine, not a reimplementation.
#
# Each code's next-state column is a map on the 6 states.  Closing the 64
# maps under composition gives 66 maps (identity included), so a chunk's
# walk can be composed pairwise as a prefix scan.  The lookups that scan
# needs (code -> map id, compose, apply, and their forms for two adjacent
# photons) are derived from the base tables at first use.

# One row per frontier state (X+, X-, Y+, Y-, Z+, Z-), one digit per step
# code.  out: the event byte of the photon the step finalizes; next: the
# frontier state after the step; final: the last photon's byte, with the
# zz bit unused (0).
_INIT = 0  # the first emission leaves the frontier in X+
_OUT = (
    "2345670023456700234567002345670023456700234567002345670023456700",
    "2345670023456700234567002345670023456700234567002345670023456700",
    "2345670023456700234567002345670023456700234567002345670023456700",
    "2345670023456700234567002345670023456700234567002345670023456700",
    "2345660023456600234577002345770023457700234577002345660023456600",
    "2345770023457700234566002345660023456600234566002345770023457700",
)
_NEXT = (
    "4523010154231010453210105432010154231010452301015432010145321010",
    "5432010145321010542310104523010145321010543201014523010154231010",
    "3245010132541010325410103245010123451010235401012354010123451010",
    "2354010123451010234510102354010132541010324501013245010132541010",
    "0000000011111111000000001111111100000000111111110000000011111111",
    "1111111100000000111111110000000011111111000000001111111100000000",
)
_FINAL = (
    "2245670000000000224567000000000033456700000000003345670000000000",
    "3345670000000000334567000000000022456700000000002245670000000000",
    "2344670000000000235567000000000023446700000000002355670000000000",
    "2355670000000000234467000000000023556700000000002344670000000000",
    "2345660000000000234577000000000023457700000000002345660000000000",
    "2345770000000000234566000000000023456600000000002345770000000000",
)

# Map ids are stored as uint8 and a pair of them indexes a 2^16 table.
_MAX_MAPS = 256


def _apply_step_noise(frame: StabilizerFrame, newest: int, sp: int, zz: int) -> None:
    # sp is the deferred Pauli of the photon leaving the pipeline.
    if sp:
        frame.apply_pauli(PauliString.single(_AXES[sp - 1], newest - 1))
    if zz:
        frame.apply_pauli(PauliString({newest - 1: "Z", newest: "Z"}))


def _finalize_to_byte(frame: StabilizerFrame, qubit: int, fin: int, coin_u: float) -> int:
    if fin == FIN_LOST:
        frame.trace_out(qubit, coin=coin_u)
        return EVENT_LOST
    outcome = frame.finalize(qubit, _AXES[fin], coin=coin_u)
    return encode_event(fin + 1, outcome)


class _ChainTables(NamedTuple):
    out: np.ndarray             # (6*64,) event byte at [state << 6 | code]
    next_state: np.ndarray      # (6, 64) frontier state after the step
    final: np.ndarray           # (6, 64) last photon's byte; zz bit unused
    compose_pairs: np.ndarray   # (2^16,) id of "a then b" at [a | b << 8]
    apply: np.ndarray           # (ids*8,) image of state s at [id << 3 | s]
    # the same lookups for two adjacent photons, codes a, b as a | b << 8
    pair_map: np.ndarray        # (2^16,) id of "step a, then step b"
    apply_pair: np.ndarray      # (ids*8,) s | apply[id << 3 | s] << 8
                                # at [id << 3 | s]
    out2: np.ndarray            # (6 << 16,) out[s, a] | out[next(s, a), b] << 8
                                # at [s << 16 | a | b << 8]


# Two adjacent bytes (a, b) are read as the value a | b << 8 on any host.
_PAIR = np.dtype("<u2")


def _map_closure(table_next: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Close the per-code state maps under composition; id 0 is the identity.

    Returns each code's map id, and the compose and apply lookups of
    ``_ChainTables``.
    """
    steps = [tuple(table_next[:, code].tolist()) for code in range(64)]
    maps = [tuple(range(6))]
    ids = {maps[0]: 0}
    for first in maps:  # breadth first: maps grows while it is walked
        then_step = itemgetter(*first)  # step -> (step[first[s]] for each s)
        for step in steps:
            composed = then_step(step)
            if composed not in ids:
                if len(maps) == _MAX_MAPS:
                    raise RuntimeError(
                        f"frontier maps exceed {_MAX_MAPS} under composition")
                ids[composed] = len(maps)
                maps.append(composed)
    image = np.array(maps, dtype=np.uint8)
    k = len(maps)
    # then[a, b, s] = image[b, image[a, s]]: map a followed by map b
    then = image[np.arange(k)[None, :, None], image[:, None, :]]
    compose = np.zeros((_MAX_MAPS, _MAX_MAPS), dtype=np.uint8)
    compose[:k, :k] = np.reshape(
        [ids[row] for row in map(tuple, then.reshape(-1, 6).tolist())], (k, k))
    apply = np.zeros((k, 8), dtype=np.uint8)
    apply[:, :6] = image
    code_map = np.array([ids[step] for step in steps], dtype=np.uint8)
    return code_map, compose.T.ravel(), apply.ravel()


def _pair_tables(out: np.ndarray, nxt: np.ndarray, code_map: np.ndarray,
                 compose_pairs: np.ndarray,
                 apply: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Derive the pair-step lookups of ``_ChainTables`` from the single steps.

    A flat index a | b << 8 is the 2-D position [b, a]; entries for bytes
    that are no step code (64 and up) stay 0 and are never read.
    """
    a = np.arange(64)
    b = a[:, None]
    ids = code_map.astype(np.intp)
    pair_map = np.zeros((256, 256), dtype=np.uint8)
    pair_map[:64, :64] = compose_pairs[ids[a] | ids[b] << 8]
    apply_pair = (np.arange(apply.shape[0]) & 7 | apply.astype(np.intp) << 8
                  ).astype(_PAIR)
    s = np.arange(6)[:, None, None]
    step = out.reshape(6, 64).astype(np.intp)
    out2 = np.zeros((6, 256, 256), dtype=_PAIR)
    out2[:, :64, :64] = step[s, a] | step[nxt[s, a], b] << 8
    return pair_map.ravel(), apply_pair, out2.ravel()


def _digits(rows: Tuple[str, ...]) -> np.ndarray:
    """The (6, 64) uint8 table spelled by one string of digits per state."""
    table = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return (table - np.uint8(ord("0"))).reshape(6, 64)


_TABLES: Optional[_ChainTables] = None


def _tables() -> _ChainTables:
    global _TABLES
    if _TABLES is None:
        out, nxt, final = _digits(_OUT), _digits(_NEXT), _digits(_FINAL)
        code_map, compose_pairs, apply = _map_closure(nxt)
        _TABLES = _ChainTables(out.ravel(), nxt, final, compose_pairs, apply,
                               *_pair_tables(out, nxt, code_map,
                                             compose_pairs, apply))
    return _TABLES


# ---------------------------------------------------------------------------
# The chain walk over a chunk is a work-efficient prefix scan (Blelloch
# 1990) over the map ids of photon pairs: an up-sweep composes adjacent
# maps pairwise, a down-sweep hands each pair its entry state, and one
# gather through the pair output table writes both event bytes.  Every
# level reads and writes two bytes per element as one uint16, so each
# gather covers two blocks and no level needs a strided slice.  The
# up-sweep stops at a level of at most _TOP blocks, whose entry states a
# short Python loop resolves in order; below that size a numpy call per
# level costs more than the loop.

_TOP = 64


def _scan_chain(codes: np.ndarray, out: np.ndarray, state: int,
                tables: _ChainTables, tree: np.ndarray) -> int:
    """Write the event bytes of ``codes`` (non-empty) into ``out``.

    ``tree`` is a uint8 work buffer of at least the next power of two of
    ``len(codes)``.  Returns the frontier state after the last step.  The
    scan covers the photon pairs; an odd last photon takes one single
    step.  Every index is in range by construction; ``mode="clip"`` lets
    ``take`` write straight into its output instead of through a temporary.
    """
    n = codes.shape[0]
    half = n >> 1
    if half:
        steps = codes[:2 * half].view(_PAIR)
        size = 1 << (half - 1).bit_length()
        level = tree[:size]
        tables.pair_map.take(steps, out=level[:half], mode="clip")
        level[half:] = 0  # identity maps pad the scan to a power of two
        levels = [level]
        pos = size
        while size > _TOP:  # up-sweep: each level holds blocks twice as long
            size >>= 1
            parent = tree[pos:pos + size]
            tables.compose_pairs.take(level.view(_PAIR), out=parent, mode="clip")
            levels.append(parent)
            pos += size
            level = parent
        apply = tables.apply.tolist()
        entries = level.tolist()
        for i, block in enumerate(entries):  # overwrite each map id
            entries[i] = state               # with its block's entry state
            state = apply[(block << 3) | state]
        level[:] = entries
        entry = level
        for level in reversed(levels[:-1]):  # down-sweep: overwrite each
            blocks = level.view(_PAIR)       # (left, right) with their entries
            index = blocks & 0xFF
            index <<= 3
            index |= entry
            tables.apply_pair.take(index, out=blocks, mode="clip")
            entry = level
        index = entry[:half].astype(np.uint32)
        index <<= 16
        index |= steps
        tables.out2.take(index, out=out[:2 * half].view(_PAIR), mode="clip")
    if n & 1:
        code = int(codes[n - 1])
        out[n - 1] = tables.out[(state << 6) | code]
        state = int(tables.next_state[state, code])
    return state


def _normalize_forced(forced_bases, n: int) -> Optional[np.ndarray]:
    if forced_bases is None:
        return None
    arr = np.asarray(forced_bases)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise ValueError("forced_bases must be a 1-D sequence of one basis "
                         "per photon")
    # three compares: np.isin took about half of a forced 10-photon call
    if arr.dtype.kind not in "iuf" or not (
            (arr == 0) | (arr == 1) | (arr == 2)).all():
        raise ValueError("forced basis codes must be the integers 0 (X), "
                         "1 (Y) or 2 (Z)")
    return arr.astype(np.uint8, copy=False)


def _simulate_table(cfg: ExperimentConfig, forced: Optional[np.ndarray],
                    chunk: int) -> Iterator[np.ndarray]:
    """Yield the record's event bytes in photon order, about ``chunk`` at a
    time, each piece from one buffer that the next piece overwrites."""
    tables = _tables()
    cuts = _fin_cuts(cfg)
    n = cfg.n_photons
    rng = np.random.default_rng(cfg.seed)
    width = min(chunk, n)
    sub = min(_SUB, width)
    rows = np.empty((sub, 4))
    cols = np.empty((4, sub))
    scratch = np.empty(sub, dtype=np.uint8)
    # codes[t] encodes photon start + t - 1; codes[0] carries the previous
    # chunk's last photon.  It takes one single step into out[0], so the
    # scan starts at codes[1] and out[1], both at even addresses for an
    # even chunk: a pair write to an odd address goes through a temporary.
    # At start 0, codes[0] holds no photon; it takes photon 0's unused
    # pair-error bit.  The last chunk's out[m] takes the last photon.
    codes = np.empty(width + 2, dtype=np.uint8)[1:]
    out = np.empty(width + 2, dtype=np.uint8)[1:]
    tree = np.empty(1 << (width - 1).bit_length(), dtype=np.uint8)
    state = _INIT
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        for off in range(0, m, sub):
            k = min(sub, m - off)
            # one generator draws in photon order; the transpose reads the
            # block while it is still in cache
            rng.random(out=rows[:k])
            np.copyto(cols[:, :k], rows[:k].T)
            _encode_block(cfg, cuts, cols[:, :k],
                          None if forced is None else forced[start + off:start + off + k],
                          codes[off:off + k + 1], scratch[:k])
        if start:  # photon 0 finalizes no predecessor
            code = int(codes[0])
            out[0] = tables.out[(state << 6) | code]
            state = int(tables.next_state[state, code])
        if m > 1:
            state = _scan_chain(codes[1:m], out[1:m], state, tables, tree)
        codes[0] = codes[m]
        if start + m == n:
            out[m] = tables.final[state, codes[0]]
            m += 1
        yield out[0 if start else 1:m]


def _simulate_frame(cfg: ExperimentConfig,
                    forced: Optional[np.ndarray]) -> np.ndarray:
    n = cfg.n_photons
    rng = np.random.default_rng(cfg.seed)
    events = np.empty(n, dtype=np.uint8)
    frame = StabilizerFrame()
    q_xy = cfg.q_x + cfg.q_y
    prev_sp = 0
    prev_fin = 0
    prev_coin = 0.0
    for j, (u_sigma, u_zz, u_fin, u_coin) in enumerate(rng.random((n, 4))):
        frame.emit_qubit(j)
        if j > 0:
            zz = u_zz < cfg.p_zz
            _apply_step_noise(frame, j, prev_sp, 1 if zz else 0)
            events[j - 1] = _finalize_to_byte(frame, j - 1, prev_fin, prev_coin)
        if frame.width > 4:
            raise AssertionError("frontier exceeded 4 qubits")
        prev_sp = _sigma_choice(u_sigma, cfg.p_sigma)
        if forced is not None:
            prev_fin = int(forced[j])
        else:
            prev_fin = _fin_choice(u_fin, cfg.p_d, cfg.q_x, q_xy)
        prev_coin = u_coin
    if prev_sp:
        frame.apply_pauli(PauliString.single(_AXES[prev_sp - 1], n - 1))
    events[n - 1] = _finalize_to_byte(frame, n - 1, prev_fin, prev_coin)
    return events


def simulate(cfg: ExperimentConfig, method: str = "table",
             forced_bases=None, _chunk: int = _CHUNK,
             sink: Optional[Callable[[np.ndarray], None]] = None,
             ) -> Optional[ClickRecord]:
    """Run the source and return its click record.

    ``method`` selects the execution path: "table" (the default) is the
    compiled frontier chain, "frame" drives the stabilizer engine photon
    by photon.  Both produce bit-identical records.
    ``forced_bases`` replaces the random basis splitter with a fixed
    per-photon schedule (every photon is then detected); used by the
    template self-checks.
    With ``sink``, no record is kept and None is returned: the event
    bytes go to ``sink`` in photon order, one piece per call, in a buffer
    that the next piece overwrites.  ``csmg simulate`` writes them to
    disk this way.
    """
    forced = _normalize_forced(forced_bases, cfg.n_photons)
    if method == "table":
        pieces = _simulate_table(cfg, forced, _chunk)
    elif method == "frame":
        pieces = (_simulate_frame(cfg, forced),)
    else:
        raise ValueError(f"unknown method {method!r}")
    if sink is not None:
        for piece in pieces:
            sink(piece)
        return None
    events = np.empty(cfg.n_photons, dtype=np.uint8)
    done = 0
    for piece in pieces:
        events[done:done + piece.shape[0]] = piece
        done += piece.shape[0]
    return ClickRecord(events=events, burn_in=cfg.burn_in)
