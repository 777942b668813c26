"""Template construction, verification, and the window scanner."""
import dataclasses
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csmg.templates as templates_module
from csmg.config import RunConfig
from csmg.pauli import PauliString
from csmg.recordio import (EVENT_LOST, HEADER_SIZE, ClickRecord, open_record,
                           write_record)
from csmg.stream import ExperimentConfig, simulate
from csmg.templates import (
    FAMILIES,
    SLOT_FREE,
    SLOT_X,
    SLOT_Y,
    SLOT_Z,
    CorrelatorEstimate,
    Template,
    TemplateVerificationError,
    certifiable_lengths,
    make_template,
    scan,
    slot_counts,
    template_k_product,
    verify_template,
    verify_template_algebra,
    verify_template_stream,
    _Accumulator,
    _consume_block,
    _trie,
)
from csmg.analysis import instance_probability

from helpers import (cpus, events_from_text, pauli_string_matrix,
                     reference_scan)


def _record(events, burn_in=0):
    return ClickRecord(events=np.frombuffer(events, dtype=np.uint8).copy(),
                       burn_in=burn_in)


# ---------------------------------------------------------------------------
# Construction.


def test_certifiable_lengths_grid():
    assert certifiable_lengths(11) == [2, 5, 8, 11]
    assert certifiable_lengths(2) == [2]
    assert certifiable_lengths(1) == []


def test_gamma1_layouts():
    t = make_template("Gamma1", 2)
    assert t.pattern == "ZYYZ"
    assert t.pair_positions == (0, 2)
    assert (t.span, len(t.required), slot_counts("Gamma1", 2)[1]) == (4, 4, 2)
    t = make_template("Gamma1", 8)
    assert t.pattern == "ZYY_YY_YYZ"
    assert t.pair_positions == (0, 8)
    assert (t.span, len(t.required), slot_counts("Gamma1", 8)[1]) == (10, 8, 6)


def test_gamma2_layouts():
    t = make_template("Gamma2", 2)
    assert t.pattern == "ZX_XZ"
    assert t.pair_positions == (1, 3)
    assert (t.span, len(t.required), slot_counts("Gamma2", 2)[1]) == (5, 4, 0)
    t = make_template("Gamma2", 8)
    assert t.pattern == "ZX_YY_YY_XZ"
    assert t.pair_positions == (1, 9)
    assert (t.span, len(t.required), slot_counts("Gamma2", 8)[1]) == (11, 8, 4)


def test_measured_count_formulas():
    for l in certifiable_lengths(50):
        g1, g2 = make_template("Gamma1", l), make_template("Gamma2", l)
        assert len(g1.required) == (2 * l + 8) // 3
        assert len(g2.required) == (2 * l + 8) // 3
        assert slot_counts("Gamma1", l)[1] == (2 * l + 2) // 3
        assert slot_counts("Gamma2", l)[1] == max(0, (2 * l - 4) // 3)
        assert g1.span == l + 2
        assert g2.span == l + 3
        # the certified pair sits exactly l emission steps apart
        assert g1.pair_positions == (0, l)
        assert g2.pair_positions == (1, l + 1)
        # carried letters: (Z, Y) for Gamma1, (X, X) for Gamma2
        assert (g1.slots[0], g1.slots[l]) == (SLOT_Z, SLOT_Y)
        assert (g2.slots[1], g2.slots[l + 1]) == (SLOT_X, SLOT_X)


def test_measured_count_is_the_slot_walk():
    # each family's published form is head + period^k + tail, k = (l-2)/3;
    # the O(1) counts of slot_counts must equal a walk over every slot of
    # the template
    forms = {"Gamma1": ("ZYY", "_YY", "Z"), "Gamma2": ("ZX", "_YY", "_XZ")}
    for l in certifiable_lengths(3002):
        for fam, (head, period, tail) in forms.items():
            t = make_template(fam, l)
            assert t.pattern == head + period * ((l - 2) // 3) + tail
            anti = [c in (SLOT_X, SLOT_Y)
                    for c in (SLOT_FREE,) + t.slots + (SLOT_FREE,)]
            walk = (sum(1 for c in t.slots if c == SLOT_X),
                    sum(1 for c in t.slots if c == SLOT_Y),
                    sum(1 for c in t.slots if c == SLOT_Z),
                    sum(1 for a, b in zip(anti, anti[1:]) if a != b))
            assert slot_counts(fam, l) == walk, (fam, l)


def test_off_grid_lengths_rejected():
    for l in (-1, 0, 1, 3, 4, 6, 7, 9):
        for fam in ("Gamma1", "Gamma2"):
            for build in (make_template, slot_counts):
                with pytest.raises(ValueError, match="not supported"):
                    build(fam, l)


def test_make_template_accepts_family_spellings():
    for family in FAMILIES:
        assert make_template(family, 5).family == family
    for build in (make_template, slot_counts):
        with pytest.raises(ValueError, match="unknown template family"):
            build("Gamma3", 5)


def test_basis_counts():
    assert slot_counts("Gamma1", 8)[:3] == (0, 6, 2)
    assert slot_counts("Gamma2", 8)[:3] == (2, 4, 2)


# ---------------------------------------------------------------------------
# Algebraic verification against the generator group.


def test_k_product_matches_slots_on_the_grid():
    for l in certifiable_lengths(50):
        for fam in ("Gamma1", "Gamma2"):
            t = make_template(fam, l)
            prod = template_k_product(t)
            assert prod.phase == 1
            letters = {site: lt.value for site, lt in prod.letters.items()}
            assert letters == {p: "_XYZ"[c] for p, c in t.required}


def test_k_product_matches_dense_generator_matrices():
    # brute-force the product of the chain generators as explicit matrices;
    # K_p = Z_{p-1} X_p Z_{p+1}, truncated at the window edges
    for fam, l in (("Gamma1", 2), ("Gamma2", 2), ("Gamma1", 5), ("Gamma2", 5)):
        t = make_template(fam, l)
        n = t.span
        dense = pauli_string_matrix(template_k_product(t), n)
        if fam == "Gamma1":
            picks = [i for m in range((l + 1) // 3)
                     for i in (3 * m + 1, 3 * m + 2)]
        else:
            picks = [1] + [i for m in range(1, (l + 1) // 3)
                           for i in (3 * m, 3 * m + 1)] + [l + 1]
        target = np.eye(2 ** n, dtype=complex)
        for p in picks:
            letters = {p: "X"}
            if p - 1 >= 0:
                letters[p - 1] = "Z"
            if p + 1 < n:
                letters[p + 1] = "Z"
            target = target @ pauli_string_matrix(PauliString(letters), n)
        assert np.allclose(dense, target, atol=1e-12), (fam, l)


def test_verify_template_accepts_grid():
    for l in (2, 5, 8):
        verify_template(make_template("Gamma1", l))
        verify_template(make_template("Gamma2", l))


def test_verify_windows_must_be_an_integer():
    # the integer rule every count follows: a float would reach np.tile,
    # and True would run one window
    t = make_template("Gamma1", 2)
    for windows in (2.5, np.float64(3.0), True):
        message = f"windows must be an integer, got {repr(windows)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_template(t, windows=windows)
    verify_template(t, windows=np.int64(3))


def test_verify_rejects_corrupted_slots():
    t = make_template("Gamma1", 2)
    bad = Template(family=t.family, l=t.l,
                   slots=(SLOT_Z, SLOT_Y, SLOT_X, SLOT_Z))
    with pytest.raises(TemplateVerificationError):
        verify_template_algebra(bad)
    with pytest.raises(TemplateVerificationError):
        verify_template_stream(bad)


def test_algebra_rejects_every_single_slot_change():
    # the generator product is read from the slots, so it must still catch
    # a slot changed to any other value, at the window edges too
    cases = 0
    for fam in ("Gamma1", "Gamma2"):
        for l in (2, 5, 8, 11):
            t = make_template(fam, l)
            for p, old in enumerate(t.slots):
                for new in (SLOT_FREE, SLOT_X, SLOT_Y, SLOT_Z):
                    if new == old:
                        continue
                    slots = t.slots[:p] + (new,) + t.slots[p + 1:]
                    bad = Template(family=t.family, l=t.l, slots=slots)
                    with pytest.raises(TemplateVerificationError):
                        verify_template_algebra(bad)
                    cases += 1
    assert cases == 216


def test_verify_rejects_wrong_phase():
    # the generator product of Z Y X Y Z is -Z Y X Y Z: its letters are
    # the slots', so only the phase can reject it
    bad = Template("Gamma2", 2,
                   (SLOT_Z, SLOT_Y, SLOT_X, SLOT_Y, SLOT_Z))
    assert template_k_product(bad).phase == -1
    with pytest.raises(TemplateVerificationError, match="phase"):
        verify_template_algebra(bad)


def test_zz_flip_pair_counts():
    # hand count for Gamma1(2) = Z Y Y Z: flipping boundaries are the
    # (Z,Y) and (Y,Z) steps, the (Y,Y) interior and both edges commute
    assert slot_counts("Gamma1", 2)[3] == 2
    assert slot_counts("Gamma2", 2)[3] == 4
    assert slot_counts("Gamma1", 5)[3] == 4
    assert slot_counts("Gamma2", 5)[3] == 6
    for l in certifiable_lengths(50):
        assert slot_counts("Gamma1", l)[3] == (2 * l + 2) // 3
        assert slot_counts("Gamma2", l)[3] == (2 * l + 8) // 3


# ---------------------------------------------------------------------------
# Scanner semantics on hand-written records.


def test_scan_single_perfect_window():
    rec = _record(bytes([0x06, 0x04, 0x04, 0x06]))
    est = scan(rec, [make_template("Gamma1", 2)])[0]
    assert (est.match_count, est.signed_sum) == (1, 1)
    assert est.mean == 1.0
    assert est.overlap_fraction == 0.0


def test_scan_sign_of_window_product():
    rec = _record(events_from_text("Z+ Y+ Y- Z+"))
    est = scan(rec, [make_template("Gamma1", 2)])[0]
    assert (est.match_count, est.signed_sum) == (1, -1)
    rec = _record(events_from_text("Z- Y+ Y- Z+"))
    est = scan(rec, [make_template("Gamma1", 2)])[0]
    assert (est.match_count, est.signed_sum) == (1, 1)


def test_scan_requires_exact_bases():
    rec = _record(events_from_text("Z+ X+ Y+ Z+"))
    est = scan(rec, [make_template("Gamma1", 2)])[0]
    assert est.match_count == 0
    assert np.isnan(est.mean)
    assert np.isinf(est.stderr)


def test_scan_free_slot_ignores_anything():
    for middle in ("X-", "Y+", "Z-", "L"):
        rec = _record(events_from_text(f"Z+ X+ {middle} X+ Z+"))
        est = scan(rec, [make_template("Gamma2", 2)])[0]
        assert (est.match_count, est.signed_sum) == (1, 1), middle


def test_scan_lost_photon_breaks_required_slot():
    rec = _record(events_from_text("Z+ L Y+ Z+"))
    assert scan(rec, [make_template("Gamma1", 2)])[0].match_count == 0


def test_scan_all_vs_greedy_on_overlap():
    rec = _record(events_from_text("Z+ Y+ Y+ Z+ Y+ Y+ Z+"))
    t = make_template("Gamma1", 2)
    est_all = scan(rec, [t], mode="all")[0]
    assert (est_all.match_count, est_all.signed_sum) == (2, 2)
    assert est_all.overlap_fraction == pytest.approx(0.5)
    est_greedy = scan(rec, [t], mode="greedy")[0]
    assert (est_greedy.match_count, est_greedy.signed_sum) == (1, 1)
    assert est_greedy.overlap_fraction == 0.0


def test_scan_burn_in_skips_leading_photons():
    events = events_from_text("Z+ Y+ Y+ Z+ " * 3)
    rec = _record(events, burn_in=1)
    t = make_template("Gamma1", 2)
    # record burn-in: offsets 0..len-4 shift to start at photon 1
    est = scan(rec, [t])[0]
    ref = reference_scan(np.frombuffer(events, np.uint8), t, burn_in=1)
    assert (est.match_count, est.signed_sum) == ref[:2]
    # the record's own burn-in sets the first window start
    est0 = scan(_record(events, burn_in=0), [t])[0]
    assert est0.match_count == est.match_count + 1


def test_scan_matches_reference_on_random_records():
    rng = np.random.default_rng(31)
    valid = np.array([0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07],
                     dtype=np.uint8)
    # bias towards Z/Y so matches actually occur
    weights = np.array([0.1, 0.05, 0.05, 0.25, 0.15, 0.25, 0.15])
    templates = [make_template(f, l)
                 for f, l in (("Gamma1", 2), ("Gamma2", 2), ("Gamma1", 5))]
    for trial in range(30):
        events = rng.choice(valid, size=400, p=weights)
        burn_in = int(rng.integers(0, 3))
        rec = _record(events.tobytes(), burn_in=burn_in)
        for t in templates:
            for mode in ("all", "greedy"):
                est = scan(rec, [t], mode=mode)[0]
                count, signed, offsets = reference_scan(
                    events, t, mode=mode, burn_in=burn_in)
                assert est.match_count == count
                assert est.signed_sum == signed


def test_scan_greedy_matches_reference_across_chunks():
    rng = np.random.default_rng(32)
    valid = np.array([0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07],
                     dtype=np.uint8)
    weights = np.array([0.1, 0.05, 0.05, 0.25, 0.15, 0.25, 0.15])
    events = rng.choice(valid, size=3000, p=weights)
    rec = _record(events.tobytes())
    for t in (make_template("Gamma1", 2), make_template("Gamma2", 5)):
        want = reference_scan(events, t, mode="greedy")[:2]
        for chunk in (17, 64, 501, 4096):
            est = scan(rec, [t], mode="greedy", chunk_size=chunk)[0]
            assert (est.match_count, est.signed_sum) == want


def test_scan_chunking_and_threads_are_invisible():
    cfg = ExperimentConfig(n_photons=120000, seed=8, p_d=0.85, q_x=0.2,
                           q_y=0.5, q_z=0.3, p_sigma=0.01, p_zz=0.01,
                           burn_in=100)
    rec = simulate(cfg)
    templates = [make_template(f, l) for f in ("Gamma1", "Gamma2")
                 for l in (2, 5)]
    ref = scan(rec, templates)
    for chunk in (977, 8192):
        alt = scan(rec, templates, chunk_size=chunk)
        assert [(e.match_count, e.signed_sum) for e in alt] == \
               [(e.match_count, e.signed_sum) for e in ref]
    for threads in (2, 3):
        with cpus(threads):
            alt = scan(rec, templates, threads=threads)
        assert [(e.match_count, e.signed_sum, e.overlap_fraction)
                for e in alt] == \
               [(e.match_count, e.signed_sum, e.overlap_fraction)
                for e in ref]


@pytest.mark.parametrize("cpu_count, threads, ranges", [
    (2, 1000, 2), (None, 8, 1), (4, 3, 3)])
def test_scan_caps_ranges_by_cpu_count(monkeypatch, cpu_count, threads,
                                       ranges):
    # one range per CPU at most, and one where the CPU count is unknown
    rec = _record(events_from_text("Z+ Y+ Y- Z+ " * 16))
    t = make_template("Gamma1", 2)
    want = scan(rec, [t])
    assert want[0].match_count == 16
    seen = []
    real = templates_module._scan_range

    def spy(*args):
        seen.append(args[3:5])
        return real(*args)

    monkeypatch.setattr(templates_module, "_scan_range", spy)
    with cpus(cpu_count):
        assert scan(rec, [t], threads=threads) == want
    assert len(seen) == ranges


def test_scan_threads_with_greedy_fall_back_to_sequential():
    # greedy acceptance is order dependent, so thread requests are
    # documented to run it sequentially with identical results
    events = events_from_text("Z+ Y+ Y+ Z+ Y+ Y+ Z+ " * 5)
    rec = _record(events)
    t = make_template("Gamma1", 2)
    seq = scan(rec, [t], mode="greedy")[0]
    par = scan(rec, [t], mode="greedy", threads=4)[0]
    assert (par.match_count, par.signed_sum) == (seq.match_count,
                                                 seq.signed_sum)


def test_scan_unknown_mode_rejected():
    rec = _record(events_from_text("Z+ Y+ Y+ Z+"))
    with pytest.raises(ValueError):
        scan(rec, [make_template("Gamma1", 2)], mode="eager")


def test_match_rate_follows_instance_probability():
    # span - 1 lost photons after each span-long block of the record
    # leave only the block-aligned windows matchable, since both families
    # require their first and last slots; those windows are disjoint, and
    # the (detected, basis) draws are iid per photon, so the match count
    # is an exact binomial
    n = 10 ** 6
    q = (0.2, 0.5, 0.3)
    cfg = ExperimentConfig(n_photons=n, seed=9, p_d=0.7, q_x=q[0], q_y=q[1],
                           q_z=q[2], burn_in=0)
    rec = simulate(cfg)
    for fam in ("Gamma1", "Gamma2"):
        t = make_template(fam, 2)
        n_windows = n // t.span
        padded = np.full((n_windows, 2 * t.span - 1), EVENT_LOST, np.uint8)
        padded[:, :t.span] = rec.events[:n_windows * t.span].reshape(
            n_windows, t.span)
        est = scan(ClickRecord(padded.ravel()), [t])[0]
        p = instance_probability(fam, 2, 0.7, *q)
        sd = (n_windows * p * (1 - p)) ** 0.5
        assert abs(est.match_count - n_windows * p) < 5 * sd, fam


def test_estimate_mean_and_stderr():
    est = CorrelatorEstimate(family="Gamma1", l=2, match_count=400,
                             signed_sum=200, overlap_fraction=0.0)
    assert est.mean == 0.5
    assert est.stderr == pytest.approx(((1 - 0.25) / 400) ** 0.5)
    # the mean is squared as mean * mean, a correctly rounded product that
    # numpy repeats bit for bit: this is sqrt(592/68921) correctly rounded
    est = CorrelatorEstimate("Gamma1", 2, 41, 33, 0.0)
    assert est.stderr == 0.09267979580797357


def test_estimate_id_is_read_from_family_and_l():
    assert CorrelatorEstimate("Gamma2", 8, 100, 40, 0.0).template_id == \
        "Gamma2(l=8)"


@pytest.mark.parametrize("args, message", [
    (("Gamma1", 2, -3, 1, 0.0), "negative match count"),
    (("Gamma1", 2, 4.5, 0.5, 0.0), "match_count must be an integer, got 4.5"),
    (("Gamma1", 2, 4, 2.0, 0.0), "signed_sum must be an integer, got 2.0"),
    (("Gamma1", 2.0, 4, 2, 0.0), "l must be an integer, got 2.0"),
    (("Gamma1", 2, 3, 5, 0.0), "signed sum larger than the match count"),
    (("Gamma1", 2, 3, -5, 0.0), "signed sum larger than the match count"),
    (("Gamma1", 2, 4, 1, 0.0),
     "signed sum and match count of different parity"),
    (("Gamma1", 2, 4, 2, float("nan")), "non-finite overlap fraction"),
    (("Gamma1", 2, 4, 2, float("inf")), "non-finite overlap fraction"),
    (("Gamma1", 2, 4, 2, 1.5), "overlap fraction outside [0, 1]"),
    (("Gamma1", 2, 4, 2, -0.25), "overlap fraction outside [0, 1]"),
    (("Gamma1", 3, 4, 2, 0.0),
     "separation 3 is not supported (need l >= 2, l = 2 mod 3)"),
    (("Gamma9", 2, 4, 2, 0.0), "unknown template family 'Gamma9'"),
])
def test_an_estimate_no_scan_could_produce_is_refused_when_built(args,
                                                                 message):
    # the count rules used to be applied by the estimates reader alone,
    # so the analysis took such estimates from any other caller
    with pytest.raises(ValueError) as err:
        CorrelatorEstimate(*args)
    assert str(err.value) == message


def test_an_estimate_cannot_be_changed_once_checked():
    est = CorrelatorEstimate("Gamma1", 2, 4, 2, 0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.signed_sum = 5
    assert est.signed_sum == 2


def test_scan_never_sees_a_negative_burn_in():
    # a negative start would index from the end; a ClickRecord rejects
    # one when it is built and cannot be reassigned afterwards
    rec = _record(events_from_text("Z+ Y+ Y+ Z+ " * 50))
    t = make_template("Gamma1", 2)
    assert scan(rec, [t])[0].match_count == 50
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.burn_in = -1
    assert rec.burn_in == 0
    assert scan(rec, [t])[0].match_count == 50


@pytest.mark.parametrize("value", [1.5, 2.0, True, "4"])
def test_scan_takes_only_an_integer_chunk_size(value):
    rec = _record(events_from_text("Z+ Y+ Y+ Z+ " * 50))
    with pytest.raises(ValueError,
                       match=f"^chunk_size must be an integer, got {value!r}$"):
        scan(rec, [make_template("Gamma1", 2)], chunk_size=value)
    with pytest.raises(ValueError, match="^chunk_size must be >= 1$"):
        scan(rec, [make_template("Gamma1", 2)], chunk_size=0)
    assert scan(rec, [make_template("Gamma1", 2)],
                chunk_size=np.int64(7))[0].match_count == 50


def test_scan_shares_template_prefixes():
    # the l <= 50 grid needs 680 required slots one template at a time;
    # its trie has 119 edges
    templates = [make_template(f, l) for f in ("Gamma1", "Gamma2")
                 for l in certifiable_lengths(50)]
    assert sum(len(t.required) for t in templates) == 680
    edges, ends = 0, []
    nodes = [_trie(templates)]
    while nodes:
        node = nodes.pop()
        edges += len(node.children)
        ends += node.ends
        nodes.extend(node.children.values())
    assert edges == 119
    assert sorted(ends) == list(range(len(templates)))


def test_scan_walks_a_deep_trie_without_recursion():
    # Gamma1(1502) has 1004 required slots, one trie level each
    templates = [make_template("Gamma1", 1502), make_template("Gamma2", 1502)]
    assert len(templates[0].required) == 1004
    rng = np.random.default_rng(33)
    events = np.concatenate([
        _events_near(rng, t.slots, 3 * t.span, 0.0005) for t in templates])
    got = scan(ClickRecord(events), templates, chunk_size=1000)
    assert [(e.match_count, e.signed_sum) for e in got] == [
        reference_scan(events, t)[:2] for t in templates]
    assert [e.match_count for e in got] == [3, 3]


def test_scan_buffers_do_not_grow_with_template_length():
    # Gamma1(30002) has 20004 required slots; a buffer row per trie depth
    # over a default-width block would be about 10 GiB.  On lossless
    # random bytes masks turn sparse within a few depths, so the scan's
    # buffers stay a few block widths.
    template = make_template("Gamma1", 30002)
    assert len(template.required) == 20004
    rng = np.random.default_rng(35)
    n = templates_module._DEFAULT_CHUNK
    events = (rng.integers(1, 4, size=n, dtype=np.uint8) << 1) \
        | rng.integers(0, 2, size=n, dtype=np.uint8)
    planted = (1000, 200_000, n - template.span)
    for o in planted:
        events[o:o + template.span] = _events_near(rng, template.slots,
                                                   template.span, 0.0)
    tracemalloc.start()
    try:
        got = scan(ClickRecord(events), [template])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert got[0].match_count == len(planted)
    assert _tallies(got) == _tallies(scan(ClickRecord(events), [template],
                                          chunk_size=4099))


def test_scan_window_must_fit_in_record():
    # trailing free slots may not reach past the record's last photon,
    # even while a shorter template keeps the scan going; the long lost
    # prefix makes the scan hold its matches as indices
    t = Template("Gamma1", 2,
                 (SLOT_Z, SLOT_Y, SLOT_X, SLOT_FREE, SLOT_FREE))
    short = Template("Gamma1", 2, (SLOT_Z,))
    for lost in (0, 200):
        events = events_from_text("L " * lost + "Z+ Y+ X- L L Z+ Y+ X+ L")
        est, z = scan(_record(events), [t, short])
        assert (est.match_count, est.signed_sum) == (1, -1)
        assert z.match_count == 2

# ---------------------------------------------------------------------------
# One scan call with many templates against the per-template reference.

_VALID_BYTES = np.array([0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07],
                        dtype=np.uint8)


def _reference_estimate(events, template, mode, burn_in):
    count, signed, offsets = reference_scan(events, template, mode=mode,
                                            burn_in=burn_in)
    overlaps = sum(1 for a, b in zip(offsets, offsets[1:])
                   if b - a < template.span)
    return count, signed, overlaps / count if count else 0.0


def _events_near(rng, slots, n, noise):
    """n photons tiling ``slots`` (free slots random), then ``noise`` of
    them replaced by random bytes, so that windows match often."""
    bases = np.tile(np.array(slots, dtype=np.uint8), n // len(slots) + 1)[:n]
    free = bases == SLOT_FREE
    bases[free] = rng.integers(1, 4, size=int(free.sum()))
    events = (bases << 1) | rng.integers(0, 2, size=n).astype(np.uint8)
    hit = rng.random(n) < noise
    events[hit] = rng.choice(_VALID_BYTES, size=int(hit.sum()))
    return events


@st.composite
def _scan_calls(draw, templates):
    templates = draw(templates)
    span_max = max(t.span for t in templates)
    n = draw(st.integers(0, 4 * span_max + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    pattern = draw(st.sampled_from(templates)).slots
    events = _events_near(rng, pattern, n,
                          draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    kwargs = dict(
        mode=draw(st.sampled_from(["all", "greedy"])),
        burn_in=draw(st.integers(0, 12)),
        chunk_size=draw(st.one_of(
            st.just(1), st.integers(1, 20).map(lambda k: 2 * k + 1),
            st.integers(n + 1, n + 64))),
        threads=draw(st.sampled_from([1, 2, 3])))
    return events, templates, kwargs


def _grid_templates():
    pick = st.tuples(st.sampled_from(["Gamma1", "Gamma2"]),
                     st.sampled_from([2, 5, 8, 11, 14, 20]))
    return (st.lists(pick, min_size=1, max_size=6)
            .flatmap(lambda ps: st.permutations(ps + [ps[0]]))
            .map(lambda ps: [make_template(f, l) for f, l in ps]))


def _patterned_templates():
    # arbitrary slot patterns, all-free ones included: the scan's slot
    # trie must not depend on the Gamma layouts
    slots = st.lists(st.integers(SLOT_FREE, SLOT_Z), min_size=1, max_size=7)
    return st.lists(slots, min_size=1, max_size=6).map(
        lambda ss: [Template("Gamma1", 2, tuple(s)) for s in ss])


def _check_against_reference(case):
    events, templates, kwargs = case
    scan_kwargs = dict(kwargs)
    record = ClickRecord(events, burn_in=scan_kwargs.pop("burn_in"))
    with cpus(scan_kwargs["threads"]):
        got = scan(record, templates, **scan_kwargs)
    assert len(got) == len(templates)
    for est, t in zip(got, templates):
        want = _reference_estimate(events, t, kwargs["mode"],
                                   kwargs["burn_in"])
        assert (est.match_count, est.signed_sum,
                est.overlap_fraction) == want, t


def test_scan_matches_reference_at_the_default_block_width():
    # about 6000 lossless photons with uniform q in one default block:
    # dense masks nest three levels deep under sibling branches before
    # they turn into index arrays, which the small generated records
    # above rarely reach
    rng = np.random.default_rng(34)
    events = (rng.integers(1, 4, size=6000, dtype=np.uint8) << 1) \
        | rng.integers(0, 2, size=6000, dtype=np.uint8)
    templates = [make_template(f, l) for f in ("Gamma1", "Gamma2")
                 for l in certifiable_lengths(11)]
    for mode in ("all", "greedy"):
        for threads in (1, 2):
            _check_against_reference((events, templates, dict(
                mode=mode, burn_in=0, threads=threads)))


@settings(max_examples=150, deadline=None)
@given(_scan_calls(_grid_templates()))
def test_scan_matches_reference_per_template(case):
    _check_against_reference(case)


@settings(max_examples=100, deadline=None)
@given(_scan_calls(_patterned_templates()))
def test_scan_matches_reference_on_arbitrary_patterns(case):
    _check_against_reference(case)


# ---------------------------------------------------------------------------
# Scanning an opened record file.


def _tallies(estimates):
    return [(e.match_count, e.signed_sum, e.overlap_fraction)
            for e in estimates]


@settings(max_examples=60, deadline=None)
@given(_scan_calls(_grid_templates()))
def test_scan_of_an_opened_file_equals_scan_of_its_bytes(case):
    events, templates, kwargs = case
    kwargs = dict(kwargs)
    burn_in = kwargs.pop("burn_in")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.csmg")
        write_record(path, ClickRecord(events, burn_in=burn_in))
        got = scan(open_record(path), templates, **kwargs)
    want = scan(ClickRecord(events, burn_in=burn_in), templates, **kwargs)
    assert _tallies(got) == _tallies(want)


def test_scan_reads_an_opened_record_through_its_file(tmp_path,
                                                     monkeypatch):
    events = _events_near(np.random.default_rng(3),
                          make_template("Gamma1", 5).slots, 5000, 0.1)
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events, burn_in=7))
    record = open_record(path)
    reads = []
    preadv = os.preadv

    def spy(fd, buffers, offset):
        reads.append((offset, sum(len(b) for b in buffers)))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", spy)
    template = make_template("Gamma1", 5)
    got = scan(record, [template], chunk_size=1001)
    # blocks of 1001 window starts from the burn-in on, each with its
    # halo of span - 1 photons, cut at the end of the record
    starts = range(7, 5000 - template.span + 1, 1001)
    assert reads == [(HEADER_SIZE + s,
                      min(s + 1001 + template.span - 1, 5000) - s)
                     for s in starts]
    assert _tallies(got) == _tallies(scan(ClickRecord(events, burn_in=7),
                                          [template], chunk_size=1001))


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the process's memory map (Linux only)")
def test_opening_and_scanning_a_record_maps_none_of_its_file(tmp_path):
    path = tmp_path / "r.csmg"
    events = np.tile(np.array([0x06, 0x04, 0x04, 0x06], np.uint8), 1250)
    write_record(path, ClickRecord(events, burn_in=0))
    record = open_record(path)
    est = scan(record, [make_template("Gamma1", 2)], chunk_size=1001)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        maps = fh.read()
    assert os.path.realpath(path) not in maps
    assert est[0].match_count == 1250


def test_scan_of_a_record_on_a_memmap_slice_equals_its_bytes(tmp_path):
    # a slice of a memmap keeps its parent's offset, so only open_record
    # can say which file bytes a record's events are
    events = _events_near(np.random.default_rng(4),
                          make_template("Gamma2", 8).slots, 6000, 0.1)
    path = tmp_path / "r.csmg"
    write_record(path, ClickRecord(events, burn_in=0))
    mapped = np.memmap(path, dtype=np.uint8, mode="r", offset=HEADER_SIZE,
                       shape=(6000,))
    templates = [make_template(f, l) for f in FAMILIES for l in (2, 5, 8)]
    for lo in (0, 10, 1237):
        for mode in ("all", "greedy"):
            got = scan(ClickRecord(mapped[lo:], burn_in=5), templates,
                       mode=mode, chunk_size=997)
            want = scan(ClickRecord(events[lo:].copy(), burn_in=5),
                        templates, mode=mode, chunk_size=997)
            assert _tallies(got) == _tallies(want)


# ---------------------------------------------------------------------------
# Trie subtrees that no window start reaches.


def test_scan_ends_subtrees_that_keep_no_start(monkeypatch):
    # at p_d 0.5 no window start of a block reaches most of the l <= 50
    # grid's trie, so the walk must stop there: no template is handed an
    # empty block, and Gamma1(50), which never matches, is never handed one
    cfg = ExperimentConfig(n_photons=200_000, seed=5, p_d=0.5, q_x=0.2,
                           q_y=0.6, q_z=0.2, p_sigma=0.002, p_zz=0.01)
    record = simulate(cfg)
    templates = RunConfig(l_max=50).templates()
    calls = []

    def spy(acc, span, offsets, parities, mode):
        calls.append((span, offsets.shape[0]))
        _consume_block(acc, span, offsets, parities, mode)

    monkeypatch.setattr(templates_module, "_consume_block", spy)
    got = scan(record, templates, chunk_size=1 << 14)
    assert [c for c in calls if c[1] == 0] == []
    assert make_template("Gamma1", 50).span == 52
    assert [c for c in calls if c[0] == 52] == []
    assert sum(n for _, n in calls) == sum(e.match_count for e in got) > 0
    assert got[templates.index(make_template("Gamma1", 50))].match_count == 0


@st.composite
def _planted_calls(draw):
    # a long Gamma template's pattern, or a prefix of it, planted only
    # here and there in a background that rarely matches one, so a
    # small block may find a trie node alive and the next one dead; the
    # prefix template ends at an inner node of the long template's path,
    # so a block can keep its starts while the node's child keeps none
    family = draw(st.sampled_from(["Gamma1", "Gamma2"]))
    l = draw(st.sampled_from([11, 14, 20]))
    long = make_template(family, l)
    cut = draw(st.integers(2, long.span - 1))
    prefix = Template("Gamma1", 2, long.slots[:cut])
    others = draw(st.lists(st.tuples(
        st.sampled_from(["Gamma1", "Gamma2"]),
        st.sampled_from([2, 5, 8, l - 3, l + 3])), max_size=3, unique=True))
    templates = [long, prefix] + [make_template(f, m) for f, m in others
                                  if (f, m) != (family, l)]
    templates = draw(st.permutations(templates))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    # a gap of -1 makes the window share its opening Z with the closing Z
    # of the window before it
    plants = draw(st.lists(st.tuples(st.sampled_from([long, prefix, None]),
                                     st.integers(-1, 40)),
                           min_size=1, max_size=6))
    pieces = [rng.choice(_VALID_BYTES, size=draw(st.integers(0, 30)))]
    for template, gap in plants:
        if gap < 0 and pieces[-1].shape[0]:
            pieces[-1] = pieces[-1][:-1]
        else:
            pieces.append(rng.choice(_VALID_BYTES, size=max(gap, 0)))
        if template is not None:
            pieces.append(_events_near(rng, template.slots, template.span,
                                       0.0))
    pieces.append(rng.choice(_VALID_BYTES, size=draw(st.integers(0, 30))))
    events = np.concatenate(pieces)
    kwargs = dict(
        mode=draw(st.sampled_from(["all", "greedy"])),
        burn_in=draw(st.integers(0, 12)),
        chunk_size=draw(st.integers(0, 60).map(lambda k: 2 * k + 1)),
        threads=draw(st.sampled_from([1, 2, 3])))
    return events, templates, kwargs


@settings(max_examples=200, deadline=None)
@given(_planted_calls())
def test_scan_matches_reference_where_subtrees_die(case):
    _check_against_reference(case)


def _tiled_windows(template, count, lead, tail):
    """``count`` windows of ``template``, each sharing its opening Z with
    the closing Z of the one before, with free slots detected in X, after
    ``lead`` and before ``tail`` lost photons."""
    window = np.array([c if c != SLOT_FREE else SLOT_X
                       for c in template.slots], dtype=np.uint8) << 1
    body = np.concatenate([window[:-1]] * count + [window[-1:]])
    lost = np.full(lead + tail, EVENT_LOST, dtype=np.uint8)
    return np.concatenate([lost[:lead], body, lost[lead:]])


@pytest.mark.parametrize("chunk_size", [1, 3, 5, 7, 19])
def test_greedy_carry_crosses_blocks_whose_subtree_was_ended(chunk_size):
    # blocks inside the first window hold no start of a second one, so
    # the walk ends there, yet the first window's greedy carry still
    # skips the window that overlaps it by its closing Z
    long = make_template("Gamma1", 20)
    events = _tiled_windows(long, 3, 7, 10)
    want = [(7, 7 + 21, 7 + 42), (7, 7 + 42)]
    for mode, starts in zip(("all", "greedy"), want):
        assert reference_scan(events, long, mode=mode)[2] == list(starts)
        _check_against_reference((
            events, [long, make_template("Gamma2", 5)],
            dict(mode=mode, burn_in=0, chunk_size=chunk_size, threads=1)))


@pytest.mark.parametrize("chunk_size", [3, 9, 25])
def test_dense_node_without_survivors_in_the_padded_last_block(chunk_size):
    # the lost tail leaves the last, padded blocks with no start whose
    # first photon is a Z: the root's child is a dense mask of zeros there
    long = make_template("Gamma2", 14)
    events = _tiled_windows(long, 2, 0, 40)
    templates = [long, make_template("Gamma1", 2)]
    for mode in ("all", "greedy"):
        for threads in (1, 2):
            _check_against_reference((events, templates, dict(
                mode=mode, burn_in=0, chunk_size=chunk_size,
                threads=threads)))
    assert scan(ClickRecord(events), [long],
                chunk_size=chunk_size)[0].match_count == 2


# ---------------------------------------------------------------------------
# Matches tallied per batch, not per block.


@pytest.mark.parametrize("cap", [1, 3])
@settings(max_examples=60, deadline=None)
@given(case=st.one_of(_scan_calls(_grid_templates()),
                      _scan_calls(_patterned_templates()), _planted_calls()))
def test_scan_matches_reference_when_batches_are_tiny(cap, case):
    # a cap of 1 tallies each block's piece on its own, and a cap of 3
    # closes batches mid-block, mid-range and in every thread's range
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(templates_module, "_PENDING_CAP", cap)
        _check_against_reference(case)


def test_scan_tallies_matches_per_batch_not_per_block(monkeypatch):
    # 2*10^5 lossless photons make about 5500 matches of these templates,
    # in nearly every block of 4096 starts, and all of them fit one batch
    cfg = ExperimentConfig(n_photons=200_000, seed=6, p_d=1.0,
                           p_sigma=0.002, p_zz=0.01)
    record = simulate(cfg)
    templates = [make_template(f, l) for f in FAMILIES for l in (2, 5, 8)]
    calls = []

    def spy(acc, span, offsets, parities, mode):
        calls.append(offsets.shape[0])
        _consume_block(acc, span, offsets, parities, mode)

    monkeypatch.setattr(templates_module, "_consume_block", spy)
    got = scan(record, templates, mode="greedy", chunk_size=4096)
    blocks = -(-(len(record) - record.burn_in) // 4096)
    assert blocks * len(templates) > 250
    assert len(calls) == len(templates)
    assert 0 not in calls
    # tallied block by block, the counts are the same
    monkeypatch.setattr(templates_module, "_PENDING_CAP", 1)
    calls.clear()
    assert _tallies(scan(record, templates, mode="greedy",
                         chunk_size=4096)) == _tallies(got)
    assert len(calls) > 200


# ---------------------------------------------------------------------------
# Greedy selection against a per-match loop.


def _greedy_by_loop(events, template, burn_in):
    """Greedy (count, signed sum), one kept match at a time: walk the
    all-mode matches and keep each that starts at or past the end of the
    last kept window."""
    offsets = reference_scan(events, template, burn_in=burn_in)[2]
    positions = [p for p, _ in template.required]
    count = signed = 0
    free_from = burn_in
    for o in offsets:
        if o < free_from:
            continue
        count += 1
        signed += (-1) ** sum(int(events[o + p]) & 1 for p in positions)
        free_from = o + template.span
    return count, signed


@st.composite
def _greedy_calls(draw):
    template = make_template(draw(st.sampled_from(["Gamma1", "Gamma2"])),
                             draw(st.sampled_from([2, 5, 8, 11])))
    span = template.span
    # windows tiled back to back, a few photons apart, or sharing their
    # closing Z with the next window's opening Z match nearly everywhere,
    # so the kept set is a long orbit of the successor map and takes many
    # doubling rounds; shared Zs make every other window overlap
    gap = draw(st.integers(-1, 3))
    tile = np.array((template.slots + (SLOT_FREE,) * 3)[:span + gap],
                    dtype=np.uint8)
    n = draw(st.one_of(st.integers(0, 60), st.integers(1000, 3000)))
    phase = draw(st.integers(0, tile.shape[0] - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    bases = np.tile(tile, n // tile.shape[0] + 2)[phase:phase + n]
    free = bases == SLOT_FREE
    bases[free] = rng.integers(1, 4, size=int(free.sum()))
    flip = draw(st.sampled_from([0.0, 0.05, 0.5]))
    events = (bases << 1) | (rng.random(n) < flip).astype(np.uint8)
    lost = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.1]))
    events[lost] = EVENT_LOST
    # a chunk below the span makes the cut past the last kept start skip
    # whole blocks
    chunk_size = draw(st.one_of(
        st.just(1), st.integers(2, span - 1),
        st.integers(1, 1000).map(lambda k: 2 * k + 1)))
    return events, template, draw(st.integers(0, 2 * span)), chunk_size


@settings(max_examples=120, deadline=None)
@given(_greedy_calls())
def test_greedy_matches_per_match_loop(case):
    events, template, burn_in, chunk_size = case
    want = _greedy_by_loop(events, template, burn_in)
    # one block larger than the record holds the whole orbit
    for chunk in (chunk_size, events.shape[0] + 1):
        est = scan(ClickRecord(events, burn_in=burn_in), [template],
                   mode="greedy", chunk_size=chunk)[0]
        assert (est.match_count, est.signed_sum) == want, chunk
        assert est.overlap_fraction == 0.0


# ---------------------------------------------------------------------------
# One block of greedy selection against a per-match loop.


def _consume_by_loop(acc, span, offsets, parities):
    for o, p in zip(offsets.tolist(), parities.tolist()):
        if acc.last_o is not None and o < acc.last_o + span:
            continue
        acc.count += 1
        acc.parity += p
        if acc.first_o is None:
            acc.first_o = o
        acc.last_o = o


def _block_offsets(rng, span, runs, start):
    """Sorted starts: before each entry of ``runs``, one start ``span`` or
    more past the one before it, then that many starts each closer than
    ``span`` to the one before."""
    gaps = []
    for length in runs:
        gaps.append(int(rng.integers(span, 3 * span + 1)))
        gaps += rng.integers(1, max(span, 2), size=length).tolist()
    return start + np.cumsum(np.array(gaps, dtype=np.int64)) - gaps[0]


@st.composite
def _greedy_blocks(draw):
    span = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(["runs", "one run", "no close start"]))
    if shape == "one run":
        runs = [draw(st.integers(1, 300))]
    elif shape == "no close start":
        runs = [0] * draw(st.integers(1, 40))
    else:
        runs = draw(st.lists(st.one_of(st.integers(0, 4),
                                       st.integers(5, 70)),
                             min_size=1, max_size=12))
    offsets = _block_offsets(rng, span, runs, draw(st.integers(0, 50)))
    if shape == "one run":
        # the run's starts only: every start is close to the one before
        offsets = offsets[1:]
    parities = rng.integers(0, 2, size=offsets.shape[0]).astype(np.uint8)
    # a start kept in an earlier batch, or none (a range's first batch);
    # the batch is cut at that start plus the span: before the block, on
    # or just past any start, inside a run or at its seed, or past the
    # block's last start
    i = draw(st.integers(0, offsets.shape[0] - 1))
    cut = draw(st.sampled_from([
        0, int(offsets[0]) - 1, int(offsets[i]), int(offsets[i]) + 1,
        int(offsets[-1]) + 1]))
    earlier = draw(st.sampled_from([None, cut - span]))
    return span, offsets, parities, earlier


def _greedy_accumulators(span, offsets, parities, earlier):
    got, want = _Accumulator(), _Accumulator()
    if earlier is not None:
        # a start kept in an earlier batch; _consume_block only compares
        # it, so it may be negative
        for acc in (got, want):
            acc.count, acc.parity = 5, 2
            acc.first_o = acc.last_o = earlier
    _consume_block(got, span, offsets, parities, "greedy")
    _consume_by_loop(want, span, offsets, parities)
    return got, want


def _assert_same_greedy(got, want):
    assert (got.count, got.parity, got.first_o, got.last_o,
            got.overlaps) == \
        (want.count, want.parity, want.first_o, want.last_o, 0)


@settings(max_examples=300, deadline=None)
@given(_greedy_blocks())
def test_consume_block_greedy_matches_per_match_loop(case):
    _assert_same_greedy(*_greedy_accumulators(*case))


def test_consume_block_greedy_over_one_run_of_every_length():
    # a block that is one run of close starts, of every length up to a
    # few doubling rounds, entered with no earlier kept start, or after
    # one whose cut falls before the run, at its first start, inside it
    # or past it
    rng = np.random.default_rng(12)
    for span in (2, 5, 11):
        for length in range(0, 140):
            offsets = _block_offsets(rng, span, [length], 7)
            parities = rng.integers(0, 2, size=length + 1).astype(np.uint8)
            cuts = (0, 7, int(offsets[length // 2]) + 1, int(offsets[-1]) + 1)
            for earlier in [None] + [cut - span for cut in cuts]:
                _assert_same_greedy(*_greedy_accumulators(
                    span, offsets, parities, earlier))
