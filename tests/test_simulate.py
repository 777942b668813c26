"""Stream simulator: determinism, dual engines, and channel statistics."""
import math

import numpy as np
import pytest

from csmg.recordio import EVENT_LOST, event_basis, event_outcome
from csmg.stream import ExperimentConfig, simulate
from csmg.templates import make_template, scan
from csmg.analysis import predicted_template_mean


def _cfg(**kw):
    base = dict(n_photons=1000, seed=1, burn_in=0)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config validation.


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(n_photons=0)
    with pytest.raises(ValueError):
        _cfg(p_d=1.5)
    with pytest.raises(ValueError):
        _cfg(p_sigma=1.2)
    with pytest.raises(ValueError):
        _cfg(p_zz=-0.1)
    # the stream itself allows any error probability; only the decay-law
    # analysis needs p_sigma <= 3/4 and p_zz <= 1/2
    _cfg(p_sigma=0.8, p_zz=0.6)
    with pytest.raises(ValueError):
        _cfg(q_x=0.5, q_y=0.5, q_z=0.5)
    with pytest.raises(ValueError):
        _cfg(seed=-1)
    with pytest.raises(ValueError):
        _cfg(burn_in=-5)
    with pytest.raises(ValueError):
        _cfg(tau_em=0.0)


@pytest.mark.parametrize("field", ["q_x", "tau_em", "p_d", "p_sigma",
                                   "p_zz", "n_photons"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    # NaN slips through plain range checks (every comparison is False):
    # q_x=nan used to validate and yield an all-X record
    with pytest.raises(ValueError, match="finite"):
        _cfg(**{field: value})


@pytest.mark.parametrize("field", ["n_photons", "seed", "burn_in"])
@pytest.mark.parametrize("value", [2.5, 1000.0, True, False])
def test_config_rejects_non_integer_counts(field, value):
    # burn_in=2.5 used to simulate a record that write_record could not
    # write; seed=1.5 and n_photons=1000.0 failed later inside numpy
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _cfg(**{field: value})


def test_config_takes_numpy_integer_counts():
    cfg = _cfg(n_photons=np.int64(50), seed=np.uint32(3), burn_in=np.int8(2))
    assert (cfg.n_photons, cfg.seed, cfg.burn_in) == (50, 3, 2)
    assert all(type(v) is int for v in (cfg.n_photons, cfg.seed, cfg.burn_in))
    assert np.array_equal(simulate(cfg).events,
                          simulate(_cfg(n_photons=50, seed=3)).events)


# ---------------------------------------------------------------------------
# Determinism and engine equivalence.


def test_same_seed_same_record():
    cfg = _cfg(n_photons=20000, seed=42, p_d=0.7, p_sigma=0.01, p_zz=0.02)
    a = simulate(cfg)
    b = simulate(cfg)
    assert np.array_equal(a.events, b.events)
    c = simulate(_cfg(n_photons=20000, seed=43, p_d=0.7, p_sigma=0.01,
                      p_zz=0.02))
    assert not np.array_equal(a.events, c.events)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_table_and_frame_engines_agree(seed):
    cfg = _cfg(n_photons=8000, seed=seed, p_d=0.6, q_x=0.25, q_y=0.35,
               q_z=0.4, p_sigma=0.03, p_zz=0.05)
    table = simulate(cfg, method="table")
    frame = simulate(cfg, method="frame")
    assert np.array_equal(table.events, frame.events)


def test_chunk_size_does_not_change_the_stream():
    cfg = _cfg(n_photons=5000, seed=3, p_d=0.8, p_sigma=0.02, p_zz=0.01)
    ref = simulate(cfg)
    for chunk in (1, 7, 977, 4096):
        assert np.array_equal(simulate(cfg, _chunk=chunk).events, ref.events)


def test_chunk_seams_at_pair_walk_sizes():
    # odd and power-of-two chunks, an odd record, and a frame-engine prefix:
    # photon j's uniforms do not depend on n, so only the last byte of the
    # shorter record (the final photon) may differ
    cfg = _cfg(n_photons=(1 << 18) + 4101, seed=11, p_d=0.6, p_sigma=0.02,
               p_zz=0.03)
    ref = simulate(cfg, _chunk=4099).events
    for chunk in (1 << 16, 1 << 18):
        assert np.array_equal(simulate(cfg, _chunk=chunk).events, ref)
    frame = simulate(_cfg(n_photons=4200, seed=11, p_d=0.6, p_sigma=0.02,
                          p_zz=0.03), method="frame").events
    assert np.array_equal(frame[:-1], ref[:4199])


def test_chunk_seams_at_sub_block_edges():
    # chunks that end just before, just after and on the 2^14-photon draw
    # sub-blocks, the default 2^17 chunk, and a record that ends 3 photons
    # into a sub-block; fired Paulis and pair errors at every edge
    n = (1 << 17) + (1 << 14) + 3
    # (seed 73 is one that puts both on every edge listed)
    kw = dict(seed=73, p_d=0.7, q_x=0.3, q_y=0.3, q_z=0.4, p_sigma=0.6,
              p_zz=0.6)
    cfg = _cfg(n_photons=n, **kw)
    u = np.random.default_rng(73).random((n, 4))
    edges = [0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 << 14,
             (3 << 14) + 5, 1 << 17, (1 << 17) + 1, n - 1]
    assert np.all(u[edges, :2] < 0.6)
    ref = simulate(cfg, _chunk=4099).events
    for chunk in ((1 << 14) - 1, (3 << 14) + 5, 1 << 17):
        assert np.array_equal(simulate(cfg, _chunk=chunk).events, ref)
    m = (1 << 14) + 2
    frame = simulate(_cfg(n_photons=m, **kw), method="frame").events
    assert np.array_equal(frame[:-1], ref[:m - 1])


def test_forced_bases_override_detection():
    forced = np.tile(np.array([0, 1, 2], dtype=np.uint8), 400)
    cfg = _cfg(n_photons=1200, seed=5)
    rec = simulate(cfg, forced_bases=forced)
    bases = rec.events >> 1
    assert np.array_equal(bases, forced + 1)


@pytest.mark.parametrize("forced", [
    np.full(30, 1.7),                   # used to run silently as basis Y
    np.full(30, -1),
    np.full(30, 3),
    np.full(30, np.nan),
    np.ones(30, dtype=bool),
    np.array(["1"] * 30),
])
def test_forced_bases_rejects_non_basis_codes(forced):
    with pytest.raises(ValueError, match="integers 0 \\(X\\), 1 \\(Y\\) or 2"):
        simulate(_cfg(n_photons=30), forced_bases=forced)


@pytest.mark.parametrize("forced", [np.zeros((30, 2), dtype=np.uint8),
                                    np.zeros((1, 30), dtype=np.uint8),
                                    np.zeros(29, dtype=np.uint8),
                                    np.uint8(0)])
def test_forced_bases_rejects_wrong_shape(forced):
    with pytest.raises(ValueError, match="1-D sequence of one basis per photon"):
        simulate(_cfg(n_photons=30), forced_bases=forced)


def test_forced_bases_accepts_integral_values_of_any_numeric_type():
    want = simulate(_cfg(n_photons=30), forced_bases=[0, 1, 2] * 10).events
    for forced in (np.tile([0.0, 1.0, 2.0], 10),
                   np.tile(np.array([0, 1, 2], dtype=np.int64), 10)):
        got = simulate(_cfg(n_photons=30), forced_bases=forced).events
        assert np.array_equal(got, want)


def test_unknown_method_rejected():
    for method in ("magic", "auto"):
        with pytest.raises(ValueError, match="unknown method"):
            simulate(_cfg(), method=method)


# ---------------------------------------------------------------------------
# Channel statistics (5 sigma gates on exact binomials).


def _binomial_bounds(n, p, z=5.0):
    sd = math.sqrt(n * p * (1 - p))
    return n * p - z * sd, n * p + z * sd


def test_all_lost_when_detector_off():
    rec = simulate(_cfg(n_photons=5000, p_d=0.0))
    assert np.all(rec.events == EVENT_LOST)
    assert rec.lost_fraction() == 1.0


def test_single_basis_setting():
    rec = simulate(_cfg(n_photons=5000, p_d=1.0, q_x=0.0, q_y=1.0, q_z=0.0))
    assert np.all(rec.events >> 1 == 2)


def test_loss_and_basis_frequencies():
    n = 10 ** 6
    cfg = _cfg(n_photons=n, seed=10, p_d=0.5, q_x=0.2, q_y=0.5, q_z=0.3)
    rec = simulate(cfg)
    lost = int(np.count_nonzero(rec.events == EVENT_LOST))
    lo, hi = _binomial_bounds(n, 0.5)
    assert lo < lost < hi
    counts = rec.basis_counts()
    for name, q in (("X", 0.2), ("Y", 0.5), ("Z", 0.3)):
        lo, hi = _binomial_bounds(n, 0.5 * q)
        assert lo < counts[name] < hi, name


def test_outcomes_unbiased_without_errors():
    # every single-photon outcome is a fair coin in any basis
    n = 10 ** 6
    rec = simulate(_cfg(n_photons=n, seed=11, p_d=1.0))
    minus = int(np.count_nonzero(rec.events & 1))
    lo, hi = _binomial_bounds(n, 0.5)
    assert lo < minus < hi


def test_noiseless_stream_has_perfect_correlations():
    cfg = _cfg(n_photons=150000, seed=12, p_d=1.0)
    rec = simulate(cfg)
    for fam in ("Gamma1", "Gamma2"):
        for l in (2, 5):
            est = scan(rec, [make_template(fam, l)])[0]
            assert est.match_count > 100
            assert est.signed_sum == est.match_count


def test_pair_error_decay_matches_exact_law():
    n = 400000
    cfg = _cfg(n_photons=n, seed=13, p_d=1.0, p_zz=0.02)
    rec = simulate(cfg)
    for fam in ("Gamma1", "Gamma2"):
        t = make_template(fam, 2)
        est = scan(rec, [t])[0]
        expected = predicted_template_mean(fam, 2, 0.0, 0.02)
        assert abs(est.mean - expected) < 5 * est.stderr


@pytest.mark.parametrize("p_sigma", [0.01, 0.3])
def test_single_pauli_decay_matches_exact_law(p_sigma):
    # p_sigma=0.3 separates the correct per-measured-photon law from the
    # artifact of applying the error before the next emission (which
    # would shed a Z onto the successor) by more than 6 sigma at this N
    n = 400000
    cfg = _cfg(n_photons=n, seed=14, p_d=1.0, p_sigma=p_sigma)
    rec = simulate(cfg)
    for fam in ("Gamma1", "Gamma2"):
        t = make_template(fam, 2)
        est = scan(rec, [t])[0]
        expected = predicted_template_mean(fam, 2, p_sigma, 0.0)
        assert abs(est.mean - expected) < 5 * est.stderr


def test_burn_in_is_recorded_not_trimmed():
    cfg = ExperimentConfig(n_photons=500, seed=2, burn_in=100)
    rec = simulate(cfg)
    assert rec.burn_in == 100
    assert len(rec) == 500


def test_frame_engine_frontier_stays_small():
    # the frame path asserts its own width bound; run it under loss
    cfg = _cfg(n_photons=3000, seed=6, p_d=0.3, p_sigma=0.05, p_zz=0.05)
    rec = simulate(cfg, method="frame")
    assert len(rec) == 3000
