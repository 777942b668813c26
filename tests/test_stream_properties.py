"""Property tests for the table path: generated configs, codes and chunkings."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csmg.stream as stream
from csmg.stream import (_PAIR, ExperimentConfig, _encode_block, _fin_choice,
                         _fin_cuts, _scan_chain, _tables, simulate)
from helpers import build_tables_from_frame, chain_table_literal

_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# detection probabilities at the edges of float64: the smallest subnormal,
# the largest double below 1 and exact powers of two
_p_d = st.one_of(_unit, st.sampled_from([5e-324, float(np.nextafter(1.0, 0.0))]),
                 st.integers(1, 1074).map(lambda k: 2.0 ** -k))


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 200))
    q = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
             .filter(lambda w: sum(w) > 0.0))
    total = sum(q)
    cfg = ExperimentConfig(
        n_photons=n, seed=draw(st.integers(0, 2 ** 32)), burn_in=0,
        p_d=draw(_p_d), q_x=q[0] / total, q_y=q[1] / total,
        q_z=q[2] / total,
        p_sigma=draw(_unit), p_zz=draw(_unit))
    forced = None
    if draw(st.booleans()):
        forced = np.array(draw(st.lists(st.integers(0, 2), min_size=n,
                                        max_size=n)), dtype=np.uint8)
    chunk = draw(st.one_of(st.just(1), st.integers(1, 40).map(lambda k: 2 * k + 1),
                           st.integers(2, 2 * n)))
    return cfg, forced, chunk


@settings(max_examples=40, deadline=None)
@given(_configs())
def test_table_matches_frame_on_generated_configs(case):
    cfg, forced, chunk = case
    frame = simulate(cfg, method="frame", forced_bases=forced)
    table = simulate(cfg, method="table", forced_bases=forced, _chunk=chunk)
    assert np.array_equal(table.events, frame.events)


def test_base_tables_are_the_frame_tables():
    # the runtime reads the base tables from a constant; the frame is
    # their oracle, entry by entry.  The literal is compared before
    # _tables() derives anything from it, so a wrong entry that breaks
    # the closure still gets the message.
    want = build_tables_from_frame()
    got = (stream._INIT, *map(stream._digits,
                              (stream._OUT, stream._NEXT, stream._FINAL)))
    wrong = [f"{name}[state {s}, code {c}] = {g[s, c]}, the frame gives {w[s, c]}"
             for name, g, w in zip(("out", "next", "final"), got[1:], want[1:])
             for s, c in np.argwhere(g != w).tolist()]
    if got[0] != want[0]:
        wrong.insert(0, f"init = {got[0]}, the frame gives {want[0]}")
    if wrong:
        pytest.fail("the chain tables in csmg/stream.py differ from the frame:\n"
                    + "\n".join(wrong[:10])
                    + "\nreplace their _INIT ... _FINAL block with:\n\n"
                    + chain_table_literal(*want), pytrace=False)
    tables = _tables()
    for table, frame_table in zip((tables.out.reshape(6, 64), tables.next_state,
                                   tables.final), want[1:]):
        assert np.array_equal(table, frame_table)


def _naive_walk(codes, state, tables):
    out = np.empty(len(codes), dtype=np.uint8)
    table_out = tables.out.reshape(6, 64)
    for t, c in enumerate(codes):
        out[t] = table_out[state, c]
        state = tables.next_state[state, c]
    return out, int(state)


_lengths = st.integers(0, 12).flatmap(
    lambda k: st.sampled_from([max(1, (1 << k) + d) for d in (-1, 0, 1)]))


@settings(max_examples=30, deadline=None)
@given(_lengths, st.integers(0, 2 ** 32 - 1))
def test_scan_matches_naive_walk_from_every_state(n, seed):
    tables = _tables()
    codes = np.random.default_rng(seed).integers(0, 64, n).astype(np.uint8)
    tree = np.empty(2 * (1 << (n - 1).bit_length()), dtype=np.uint8)
    for state in range(6):
        out = np.empty(n, dtype=np.uint8)
        end = _scan_chain(codes, out, state, tables, tree)
        want, want_end = _naive_walk(codes, state, tables)
        assert np.array_equal(out, want)
        assert end == want_end


def test_map_closure_is_the_composition_closure():
    tables = _tables()
    apply = tables.apply.reshape(-1, 8)[:, :6]
    assert apply.shape[0] == 66
    assert np.array_equal(apply[0], np.arange(6))
    code_map = stream._map_closure(tables.next_state)[0]
    for code in range(64):
        assert np.array_equal(apply[code_map[code]],
                              tables.next_state[:, code])
    pair = np.empty(2, dtype=np.uint8)
    for a in range(66):
        for b in range(66):
            pair[:] = (a, b)
            ab = tables.compose_pairs[pair.view(np.uint16)[0]]
            assert np.array_equal(apply[ab], apply[b][apply[a]])


def test_pair_tables_take_two_single_steps():
    tables = _tables()
    out = tables.out.reshape(6, 64)
    nxt = tables.next_state
    apply = tables.apply.reshape(-1, 8)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(64), np.arange(64),
                                           indexing="ij"))
    # the pair index is the uint16 view of the adjacent code bytes (a, b)
    steps = np.stack([a, b], axis=1).astype(np.uint8).view(_PAIR).ravel()
    assert np.array_equal(steps, a | b << 8)
    states = np.arange(6)[:, None]
    middle = nxt[states, a]
    assert np.array_equal(apply[tables.pair_map[steps], :6].T, nxt[middle, b])
    pair_out = tables.out2[states << 16 | steps]
    assert np.array_equal(pair_out & 0xFF, out[states, a])
    assert np.array_equal(pair_out >> 8, out[middle, b])
    ids = np.arange(apply.shape[0])[:, None]
    entries = tables.apply_pair[ids << 3 | states.T]
    assert np.array_equal(entries & 0xFF, np.broadcast_to(states.T, entries.shape))
    assert np.array_equal(entries >> 8, apply[:, :6])


def _neighbours(x, steps=3):
    """x and the floats up to ``steps`` ulps either side, inside [0, 1)."""
    below = above = x
    out = [x]
    for _ in range(steps):
        below = np.nextafter(below, 0.0)
        above = np.nextafter(above, 1.0)
        out += [below, above]
    return np.array([u for u in out if 0.0 <= u < 1.0])


def _off_by(c):
    """Two q weights summing to 1 + d; d goes to q_x when q_y = 1 - q_x
    + d would be negative, which the config rejects."""
    x, d = c
    if 1.0 - x + d < 0.0:
        return [x + d, 1.0 - x, 0.0]
    return [x, 1.0 - x + d, 0.0]


# basis weights: a generated split, q_z = 0, and sums 1 -+ 1e-9 with q_z = 0,
# where q_x + q_y rounds above 1 and the clamp t_xy <= p_d decides
_q = st.one_of(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
    .filter(lambda w: sum(w) > 0.0).map(lambda w: [x / sum(w) for x in w]),
    st.floats(0.0, 1.0).map(lambda x: [x, 1.0 - x, 0.0]),
    st.tuples(st.floats(0.0, 1.0), st.sampled_from([-0.9e-9, 0.9e-9]))
    .map(_off_by))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_p_d, st.floats(5e-324, 1.0)).filter(lambda p: p > 0.0), _q)
def test_quotient_test_equals_threshold_test_at_float_neighbours(p_d, q):
    # the scalar path decides by u / p_d against q_x and q_x + q_y, the
    # encoder by u against the thresholds of _fin_cuts
    cfg = ExperimentConfig(n_photons=1, p_d=p_d, q_x=q[0], q_y=q[1], q_z=q[2])
    cuts = _fin_cuts(cfg)
    assert cuts[0] <= cuts[1] <= cuts[2] == p_d
    u = np.unique(np.concatenate([_neighbours(c) for c in cuts]))
    lost = u >= p_d
    assert np.array_equal(np.divide(u, p_d) >= 1.0, lost)
    cols = np.zeros((4, u.shape[0]))
    cols[2] = u
    codes = np.zeros(u.shape[0] + 1, dtype=np.uint8)
    _encode_block(cfg, cuts, cols, None, codes, np.empty_like(codes[1:]))
    fin = codes[1:] >> 1
    assert np.array_equal(fin == 3, lost)
    q_xy = cfg.q_x + cfg.q_y
    assert fin.tolist() == [_fin_choice(x, p_d, cfg.q_x, q_xy) for x in u.tolist()]


@st.composite
def _streamed_runs(draw):
    chunk = draw(st.sampled_from([1, 3, 4099, 1 << 17, None]))
    sizes = [st.integers(1, 3000)]
    if chunk is None or chunk > 3:  # a chunk of 1 or 3 photons costs a loop
        sizes += [st.integers((1 << 17) - 3, (1 << 17) + 3),  # per photon
                  st.just(3 * (1 << 17) + 7)]
    n = draw(st.one_of(*sizes))
    cfg = ExperimentConfig(n_photons=n, seed=draw(st.integers(0, 2 ** 32)),
                           burn_in=0, p_d=draw(st.sampled_from([1.0, 0.5])),
                           p_sigma=0.01, p_zz=0.02)
    return cfg, n if chunk is None else chunk


@settings(max_examples=40, deadline=None)
@given(_streamed_runs())
def test_streamed_record_equals_the_simulated_record(case):
    cfg, chunk = case
    streamed = hashlib.sha256()
    sizes = []

    def sink(piece):
        streamed.update(piece)
        sizes.append(piece.shape[0])

    assert simulate(cfg, _chunk=chunk, sink=sink) is None
    assert sum(sizes) == cfg.n_photons
    # a piece is at most one chunk, plus the last photon at the end
    assert max(sizes) <= min(chunk, cfg.n_photons) + 1
    whole = simulate(cfg).events
    assert streamed.hexdigest() == hashlib.sha256(whole).hexdigest()
