"""Property tests for the table path: generated configs, codes and chunkings."""
import numpy as np
from hypothesis import given, settings, strategies as st

from csmg.stream import ExperimentConfig, _scan_chain, _tables, simulate

_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _configs(draw):
    n = draw(st.integers(1, 200))
    q = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
             .filter(lambda w: sum(w) > 0.0))
    total = sum(q)
    cfg = ExperimentConfig(
        n_photons=n, seed=draw(st.integers(0, 2 ** 32)), burn_in=0,
        p_d=draw(_unit), q_x=q[0] / total, q_y=q[1] / total,
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
    for code in range(64):
        assert np.array_equal(apply[tables.code_map[code]],
                              tables.next_state[:, code])
    pair = np.empty(2, dtype=np.uint8)
    for a in range(66):
        for b in range(66):
            pair[:] = (a, b)
            ab = tables.compose_pairs[pair.view(np.uint16)[0]]
            assert np.array_equal(apply[ab], apply[b][apply[a]])
