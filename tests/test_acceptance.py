"""Acceptance gate: one test (one pass/fail line) per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py``; each criterion prints a
short summary that -s or a failure makes visible.  Criterion 4b is
expected to fail: it pins the asymptotic pair-error exponent 2l/3, while
the stream decays with the exact integer exponent counted from each
template (see test_criterion_4b docstring and the companion test).
"""
import math
import time

import numpy as np
import pytest

from csmg.analysis import (
    TwoQubitMoments,
    concurrence,
    fit_error_model,
    max_direct_length,
    naive_tomography_K,
    predicted_template_mean,
    xi_e,
    xi_from_rates,
)
from csmg.recordio import open_record, write_record
from csmg.reports import (
    default_pd_grid,
    default_pzz_grid,
    reach_rows,
    write_reach_csv,
    write_xi_curve_csv,
    xi_curve_rows,
)
from csmg.stream import ExperimentConfig, simulate
from csmg.templates import certifiable_lengths, make_template, scan, verify_template

from helpers import (
    cluster_state,
    measurement_distribution,
    rho_from_moments,
    total_variation,
    wootters_concurrence,
)

GRID_50 = certifiable_lengths(50)
FAMILIES = ("Gamma1", "Gamma2")


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Template correctness.


def test_criterion_1_template_verification():
    """Every grid template to l=50 passes its algebraic and stream checks,
    and a noiseless million-photon stream shows only +1 window products."""
    t0 = time.perf_counter()
    templates = [make_template(fam, l) for fam in FAMILIES for l in GRID_50]
    for template in templates:
        verify_template(template)
    rec = simulate(ExperimentConfig(n_photons=10 ** 6, seed=1, p_d=1.0,
                                    burn_in=0))
    checked = 0
    for est in scan(rec, templates):
        assert est.signed_sum == est.match_count, est.template_id
        checked += est.match_count
    elapsed = time.perf_counter() - t0
    assert checked > 0
    assert elapsed < 60.0
    _report("criterion 1",
            f"{len(templates)} templates verified, {checked} noiseless "
            f"matches all +1, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Naive tomography baseline.


def test_criterion_2_naive_tomography_table():
    """Largest K with 4^K / p_d^K inside a 10^10 budget: 6, 11, 15."""
    got = [naive_tomography_K(p_d, 1e10) for p_d in (0.1, 0.5, 0.9)]
    assert got == [6, 11, 15]
    _report("criterion 2", f"K(0.1, 0.5, 0.9 @ 1e10) = {got}")


# ---------------------------------------------------------------------------
# 3. Direct-sampling reach.


def test_criterion_3_direct_reach(tmp_path):
    """Three-detector reach at 10^10 photons: 5-6 / 20+-3 / 80+-3, plus
    the full reach curve exported over p_d in [0.05, 0.95]."""
    reach = {p_d: max_direct_length("Gamma2", p_d, 1e10)
             for p_d in (0.1, 0.5, 0.9)}
    assert 5 <= reach[0.1] <= 6
    assert abs(reach[0.5] - 20) <= 3
    assert abs(reach[0.9] - 80) <= 3
    grid = default_pd_grid()
    rows = reach_rows(grid, 1e10)
    out = tmp_path / "direct_reach.csv"
    write_reach_csv(out, rows)
    assert out.exists()
    assert min(grid) <= 0.05 and max(grid) >= 0.95
    assert len(rows) == len(grid)
    _report("criterion 3",
            f"reach = {reach}, curve rows = {len(rows)} "
            f"over p_d in [{min(grid):.2f}, {max(grid):.2f}]")


# ---------------------------------------------------------------------------
# 4. Decay laws on simulated streams.


def _decay_estimates(seed, p_sigma, p_zz):
    cfg = ExperimentConfig(n_photons=10 ** 7, seed=seed, p_d=1.0,
                           p_sigma=p_sigma, p_zz=p_zz, burn_in=100)
    rec = simulate(cfg)
    templates = [make_template(fam, l) for fam in FAMILIES
                 for l in (2, 5, 8, 11)]
    return scan(rec, templates)


def test_criterion_4a_single_pauli_decay():
    """At p_sigma = 0.01 every template mean sits within 5 sigma of
    (1 - 4 p / 3)^((2l+8)/3); runtime under two minutes."""
    t0 = time.perf_counter()
    worst = 0.0
    for est in _decay_estimates(4, 0.01, 0.0):
        expected = (1 - 0.04 / 3) ** ((2 * est.l + 8) / 3)
        pull = abs(est.mean - expected) / est.stderr
        worst = max(worst, pull)
        assert pull < 5.0, (est.template_id, est.mean, expected, pull)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion 4a", f"worst pull {worst:.2f} sigma, {elapsed:.1f} s")


def test_criterion_4b_pair_error_decay_asymptotic_form():
    """Pins mean(l) = 0.96^(2l/3) at p_zz = 0.02.

    The 2l/3 exponent is the large-l slope of the flip-sensitive
    boundary count, not the finite-l count itself; the simulated stream
    decays with the exact integer exponents (2l+2)/3 and (2l+8)/3, so
    this check fails by tens of sigma at small l.  It is kept in its
    stated form deliberately; the companion test below shows the same
    record passing against the exact law.
    """
    worst = 0.0
    failures = []
    for est in _decay_estimates(5, 0.0, 0.02):
        expected = 0.96 ** (2 * est.l / 3)
        pull = abs(est.mean - expected) / est.stderr
        worst = max(worst, pull)
        if pull >= 5.0:
            failures.append(f"{est.template_id}: mean {est.mean:.4f} vs "
                            f"{expected:.4f} ({pull:.0f} sigma)")
    _report("criterion 4b", f"worst pull {worst:.0f} sigma; "
            f"{len(failures)} of 8 cells out of band")
    assert not failures, "; ".join(failures)


def test_criterion_4b_companion_exact_pair_error_decay():
    """Same p_zz = 0.02 record against the exact per-template law."""
    worst = 0.0
    for est in _decay_estimates(5, 0.0, 0.02):
        expected = predicted_template_mean(est.family, est.l, 0.0, 0.02)
        pull = abs(est.mean - expected) / est.stderr
        worst = max(worst, pull)
        assert pull < 5.0, (est.template_id, est.mean, expected, pull)
    _report("criterion 4b companion", f"worst pull {worst:.2f} sigma")


# ---------------------------------------------------------------------------
# 5 + 6. Rate recovery at scale and the extrapolated length.

TRUE_P_SIGMA = 0.002
TRUE_P_ZZ = 0.01


@pytest.fixture(scope="module")
def recovery_fit():
    """One 10^8-photon run shared by criteria 5 and 6.

    l = 11 is deliberately excluded: at p_d = 0.5 its cells collect only
    a handful of matches in 10^8 photons, which adds noise but no
    leverage.
    """
    cfg = ExperimentConfig(n_photons=10 ** 8, seed=1, p_d=0.5, q_x=0.2,
                           q_y=0.6, q_z=0.2, p_sigma=TRUE_P_SIGMA,
                           p_zz=TRUE_P_ZZ, burn_in=100)
    t0 = time.perf_counter()
    rec = simulate(cfg)
    templates = [make_template(fam, l) for fam in FAMILIES for l in (2, 5, 8)]
    estimates = scan(rec, templates)
    fit = fit_error_model(estimates)
    return fit, estimates, time.perf_counter() - t0


def test_criterion_5_rate_recovery(recovery_fit):
    """Fitted rates within 3 combined standard errors at N = 10^8 and a
    believable chi2; runtime under five minutes."""
    fit, estimates, elapsed = recovery_fit
    pull_sigma = abs(fit.p_sigma - TRUE_P_SIGMA) / fit.stderr_p_sigma
    pull_zz = abs(fit.p_zz - TRUE_P_ZZ) / fit.stderr_p_zz
    assert pull_sigma < 3.0
    assert pull_zz < 3.0
    assert 0.3 <= fit.chi2_per_dof <= 3.0
    assert elapsed < 300.0
    counts = {e.template_id: e.match_count for e in estimates}
    assert min(counts.values()) > 50
    _report("criterion 5",
            f"p_sigma {fit.p_sigma:.6f} ({pull_sigma:.2f} se), "
            f"p_zz {fit.p_zz:.6f} ({pull_zz:.2f} se), "
            f"chi2/dof {fit.chi2_per_dof:.2f}, {elapsed:.0f} s")


def test_criterion_6_entanglement_length(recovery_fit, tmp_path):
    """Closed-form length values, the pipeline estimate against them,
    and the exported length-vs-error curves."""
    closed = xi_from_rates(0.0, 0.05)
    assert closed.grid == 14
    assert closed.continuous == pytest.approx(
        3 * math.log(3) / (2 * -math.log(0.9)), abs=0.05)
    assert xi_from_rates(0.0, 0.01).grid == 80
    assert xi_from_rates(0.0, 0.01).continuous == pytest.approx(81.6, abs=0.05)
    truth = xi_from_rates(TRUE_P_SIGMA, TRUE_P_ZZ)
    assert truth.grid == 71
    assert truth.continuous == pytest.approx(71.6, abs=0.05)

    fit, _, _ = recovery_fit
    piped = xi_e(fit)
    gap = abs(piped.continuous - truth.continuous)
    assert piped.stderr_continuous is not None
    assert gap < 3.0 * piped.stderr_continuous

    rows = xi_curve_rows(default_pzz_grid(), (0.0, TRUE_P_SIGMA))
    out = tmp_path / "xi_curve.csv"
    write_xi_curve_csv(out, rows)
    zz_values = sorted({r[1] for r in rows})
    assert zz_values[0] == pytest.approx(0.001)
    assert zz_values[-1] == pytest.approx(0.2)
    assert sorted({r[0] for r in rows}) == [0.0, TRUE_P_SIGMA]
    _report("criterion 6",
            f"pipeline xi {piped.continuous:.2f} +- "
            f"{piped.stderr_continuous:.2f} vs closed form "
            f"{truth.continuous:.2f} (gap {gap:.2f})")


# ---------------------------------------------------------------------------
# 7. Oracle equivalence.


def test_criterion_7_oracle_equivalence():
    """Closed-form concurrence vs dense spin flip on 10^4 physical moment
    triples, and frontier sampling vs dense probabilities on 10 qubits."""
    rng = np.random.default_rng(20260814)
    checked = 0
    worst = 0.0
    while checked < 10 ** 4:
        a, b, c = rng.uniform(-1, 1, 3)
        eigs = [(1 + s1 * a + s2 * b + s1 * s2 * c) / 4
                for s1 in (1, -1) for s2 in (1, -1)]
        if min(eigs) < 0:
            continue
        checked += 1
        delta = abs(concurrence(TwoQubitMoments(a, b, c))
                    - wootters_concurrence(rho_from_moments(a, b, c)))
        worst = max(worst, delta)
        assert delta < 1e-10

    n_qubits = 10
    n_samples = 10 ** 5
    bases = "XYZYXZYXYZ"
    dense = measurement_distribution(cluster_state(n_qubits), bases)
    forced = np.array(["XYZ".index(b) for b in bases], dtype=np.uint8)
    counts = np.zeros(2 ** n_qubits, dtype=np.int64)
    for s in range(n_samples):
        cfg = ExperimentConfig(n_photons=n_qubits, seed=s, p_d=1.0,
                               burn_in=0)
        events = simulate(cfg, forced_bases=forced).events
        bits = events & 1
        idx = 0
        for bit in bits:
            idx = (idx << 1) | int(bit)
        counts[idx] += 1
    tv = total_variation(counts / n_samples, dense)
    v = dense * (1 - dense) / n_samples
    mean_tv = 0.5 * np.sum(np.sqrt(2 * v / math.pi))
    sd_tv = math.sqrt(0.25 * np.sum(v * (1 - 2 / math.pi)))
    assert tv < mean_tv + 5 * sd_tv
    _report("criterion 7",
            f"concurrence worst gap {worst:.2e} over {checked} triples; "
            f"TV {tv:.5f} vs threshold {mean_tv + 5 * sd_tv:.5f}")


# ---------------------------------------------------------------------------
# 8. Determinism and stitching.


def test_criterion_8_determinism_and_stitching(tmp_path):
    """Byte-identical reruns through the file layer, table equals frame,
    and scans invariant under chunking and threading."""
    cfg = ExperimentConfig(n_photons=10 ** 6, seed=77, p_d=0.5, q_x=0.2,
                           q_y=0.6, q_z=0.2, p_sigma=0.002, p_zz=0.01,
                           burn_in=100)
    rec_a = simulate(cfg)
    rec_b = simulate(cfg)
    assert np.array_equal(rec_a.events, rec_b.events)
    path_a, path_b = tmp_path / "a.csmg", tmp_path / "b.csmg"
    write_record(path_a, rec_a)
    write_record(path_b, rec_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert np.array_equal(open_record(path_a).load().events, rec_a.events)

    frame_cfg = ExperimentConfig(n_photons=20000, seed=77, p_d=0.5,
                                 q_x=0.2, q_y=0.6, q_z=0.2, p_sigma=0.002,
                                 p_zz=0.01, burn_in=100)
    assert np.array_equal(simulate(frame_cfg, method="table").events,
                          simulate(frame_cfg, method="frame").events)

    templates = [make_template(fam, l) for fam in FAMILIES for l in (2, 5)]
    ref = [(e.match_count, e.signed_sum)
           for e in scan(rec_a, templates)]
    for chunk_size in (4096, 10 ** 5):
        got = [(e.match_count, e.signed_sum)
               for e in scan(rec_a, templates, chunk_size=chunk_size)]
        assert got == ref
    for threads in (2, 4):
        got = [(e.match_count, e.signed_sum)
               for e in scan(rec_a, templates, threads=threads)]
        assert got == ref
    _report("criterion 8", "records byte-identical, engines agree, "
            "scan invariant under chunking and threads")


# ---------------------------------------------------------------------------
# 9. Throughput (soft target, never fails the build).


def test_criterion_9_throughput_soft():
    """Soft gate: report simulated+scanned photons per second per core."""
    cfg = ExperimentConfig(n_photons=4 * 10 ** 6, seed=3, p_d=0.5, q_x=0.2,
                           q_y=0.6, q_z=0.2, p_sigma=0.002, p_zz=0.01,
                           burn_in=100)
    simulate(ExperimentConfig(n_photons=1000, seed=3))  # warm the kernel
    t0 = time.perf_counter()
    rec = simulate(cfg)
    t1 = time.perf_counter()
    scan(rec, [make_template(fam, l) for fam in FAMILIES for l in (2, 5, 8)])
    t2 = time.perf_counter()
    sim_rate = cfg.n_photons / (t1 - t0)
    scan_rate = cfg.n_photons / (t2 - t1)
    combined = cfg.n_photons / (t2 - t0)
    _report("criterion 9",
            f"simulate {sim_rate:.2e}/s, scan {scan_rate:.2e}/s, "
            f"combined {combined:.2e} photons/s (soft target 1e6)")
    if combined < 10 ** 6:
        pytest.skip(f"soft throughput target missed: {combined:.2e} < 1e6")
