"""Command-line interface, config files, and report round trips."""
import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csmg.analysis import (direct_bounds, fit_error_model,
                           instance_probability, predicted_template_mean)
from csmg.cli import _load_config, build_parser, run
from csmg.config import (
    ConfigError,
    RunConfig,
    format_config,
    override,
    parse_config,
    read_config,
)
from csmg.recordio import (HEADER_SIZE, ClickRecord, RecordFile,
                           RecordFormatError, open_record, record_writer,
                           write_record)
from csmg.reports import read_estimates_csv, write_estimates_csv
from csmg.stream import ExperimentConfig, simulate
from csmg.templates import (CorrelatorEstimate, make_template, scan,
                            slot_counts, verify_template_stream)

from helpers import cpus


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Config files.


def test_parse_config_roundtrip():
    cfg = RunConfig(n_photons=5000, seed=9, p_d=0.4, q_x=0.2, q_y=0.5,
                    q_z=0.3, p_sigma=0.001, p_zz=0.002, burn_in=50,
                    l_max=8, families=("Gamma1",), mode="greedy", threads=2)
    text = format_config(cfg)
    back = parse_config(text)
    assert back == cfg


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_l_grid = st.integers(0, 60).map(lambda k: 3 * k + 2)
_text = st.one_of(st.none(), st.text(max_size=12),
                  st.sampled_from(["runs/a b.csmg", "C:/x=y.csv", "a#b",
                                   " lead", "trail ", "two\nlines", ""]))


@st.composite
def _run_configs(draw):
    q = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)
             .filter(lambda w: sum(w) > 0.0))
    total = sum(q)
    return RunConfig(
        n_photons=draw(st.integers(1, 10 ** 12)),
        seed=draw(st.integers(0, 2 ** 64)),
        p_d=draw(_unit), q_x=q[0] / total, q_y=q[1] / total,
        q_z=q[2] / total, p_sigma=draw(_unit), p_zz=draw(_unit),
        burn_in=draw(st.integers(0, 10 ** 6)),
        tau_em=draw(st.floats(1e-300, 1e300)),
        families=tuple(draw(st.lists(st.sampled_from(["Gamma1", "Gamma2"]),
                                     min_size=1, max_size=3))),
        l_max=draw(st.integers(2, 200)),
        l_values=draw(st.one_of(st.none(), st.lists(_l_grid, min_size=1,
                                                    max_size=5).map(tuple))),
        mode=draw(st.sampled_from(["all", "greedy"])),
        threads=draw(st.integers(1, 64)),
        record_path=draw(_text), estimates_path=draw(_text))


def _writable(text):
    # what one "key = value" line can carry: no comment mark, no line
    # break, no surrounding whitespace
    return (text is None or ("#" not in text and text == text.strip()
                             and len(text.splitlines()) <= 1))


@settings(max_examples=200, deadline=None)
@given(_run_configs())
def test_format_config_round_trips_generated_configs(cfg):
    if _writable(cfg.record_path) and _writable(cfg.estimates_path):
        assert parse_config(format_config(cfg)) == cfg
    else:
        with pytest.raises(ConfigError, match="cannot be written"):
            format_config(cfg)


def _subcommand_parsers():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _field_flags(subparser):
    """(field name, flag spelling) for every flag that sets a RunConfig field."""
    names = {f.name for f in fields(RunConfig)}
    return [(a.dest, a.option_strings[0]) for a in subparser._actions
            if a.dest in names]


_SOURCE_FIELDS = {f.name for f in fields(ExperimentConfig)}
_SCAN_FIELDS = {"families", "l_max", "l_values", "mode", "threads"}


def test_flag_dests_name_the_fields_each_subcommand_sets():
    # a misspelled dest would drop its flag silently in _load_config
    _, subs = _subcommand_parsers()
    assert {name for name, _ in _field_flags(subs["simulate"])} \
        == _SOURCE_FIELDS
    assert {name for name, _ in _field_flags(subs["scan"])} == _SCAN_FIELDS
    assert {name for name, _ in _field_flags(subs["verify"])} \
        == {"l_max", "families"}


@settings(max_examples=150, deadline=None)
@given(_run_configs(), st.sampled_from([",", ", "]))
def test_flags_and_config_file_read_alike(cfg, sep):
    cfg = replace(cfg, record_path=None, estimates_path=None)
    parser, subs = _subcommand_parsers()
    loaded = {}
    for command in ("simulate", "scan"):
        argv = [command]
        for name, flag in _field_flags(subs[command]):
            value = getattr(cfg, name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = sep.join(str(v) for v in value)
            argv += [flag, str(value)]
        loaded[command] = _load_config(parser.parse_args(argv))
    from_flags = replace(loaded["simulate"],
                         **{name: getattr(loaded["scan"], name)
                            for name in _SCAN_FIELDS})
    assert from_flags == parse_config(format_config(cfg)) == cfg


def test_field_flags_keep_their_text_for_the_config_reader():
    # a type= would read the flag a second way, before the config reader
    _, subs = _subcommand_parsers()
    names = {f.name for f in fields(RunConfig)}
    for command in ("simulate", "scan", "verify"):
        for action in subs[command]._actions:
            if action.dest in names:
                assert action.type is None, (command, action.dest)
                assert action.default is None or isinstance(action.default,
                                                            str)


@pytest.mark.parametrize("command, flag, key, text, kind", [
    ("simulate", "--photons", "n_photons", "abc", "an integer"),
    ("scan", "--lmax", "l_max", "1.5", "an integer"),
    ("simulate", "--pd", "p_d", "x", "a number"),
    ("scan", "--threads", "threads", "two", "an integer"),
])
def test_bad_flag_value_fails_as_in_a_config_file(tmp_path, command, flag,
                                                  key, text, kind, capsys):
    # scan reads its settings before it opens the (absent) record
    head = [command] + ([str(tmp_path / "absent.csmg")]
                        if command == "scan" else [])
    out = tmp_path / "out"
    message = f"{key}: expected {kind}, got {text!r}"
    assert run([*head, flag, text, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{key} = {text}\n")
    assert run([*head, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("families", [("Bogus",), (), ("Gamma1", "gamma2")])
def test_validate_rejects_bad_family_lists(families):
    with pytest.raises(ConfigError):
        RunConfig(families=families)


def test_unknown_family_is_named_alike_in_files_flags_and_validate(capsys):
    message = "families: unknown template family 'Bogus'"
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\nfamilies = Gamma1, Bogus\n")
    assert str(err.value) == f"line 2: {message}"
    with pytest.raises(ConfigError) as err:
        RunConfig(families=("Bogus",))
    assert str(err.value) == message
    assert run(["verify", "--families", "Bogus"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, code", [
    (["--families", "Gamma1, Gamma2", "--l-values", "2, 5"], 0),
    (["--l-values", "2,,5"], 0),
    (["--families", "Gamma1, Bogus"], 2),
    (["--families", " , "], 2),
    (["--l-values", "2,x"], 2),
    (["--l-values", "2,7"], 2),
])
def test_scan_comma_list_flags(tmp_path, flags, code, capsys):
    rec_path = tmp_path / "s.csmg"
    assert run(["simulate", "--photons", "2000", "--out", str(rec_path)]) == 0
    assert run(["scan", str(rec_path), *flags,
                "--out", str(tmp_path / "e.csv")]) == code
    if code:
        assert "error:" in capsys.readouterr().err


def test_report_dir_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'report_dir'"):
        parse_config("report_dir = reports\n")


def test_scan_has_no_stride_flag(tmp_path, capsys):
    # a scan's window starts are set by its mode alone
    rec_path = tmp_path / "r.csmg"
    assert run(["simulate", "--photons", "2000", "--out", str(rec_path)]) == 0
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as err:
        run(["scan", str(rec_path), "--l-values", "2", "--stride", "2",
             "--out", str(out)])
    assert err.value.code == 1
    assert "unrecognized arguments: --stride 2" in capsys.readouterr().err
    assert not out.exists()


def test_stride_is_an_unknown_key(tmp_path, capsys):
    rec_path = tmp_path / "r.csmg"
    assert run(["simulate", "--photons", "2000", "--out", str(rec_path)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nstride = 2\n")
    out = tmp_path / "e.csv"
    capsys.readouterr()
    assert run(["scan", str(rec_path), "--config", str(cfg),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 2: unknown key 'stride'\n"
    assert not out.exists()


def test_config_file_io(tmp_path):
    cfg = RunConfig(n_photons=123, seed=1)
    path = tmp_path / "run.cfg"
    path.write_text(format_config(cfg), encoding="utf-8")
    assert read_config(path) == cfg


def test_parse_config_reports_line_numbers():
    text = "n_photons = 100\nbogus_key = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 2" in str(err.value)
    assert "bogus_key" in str(err.value)


def test_parse_config_rejects_duplicates_and_bad_values():
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\nseed = 2\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("n_photons = lots\n")
    with pytest.raises(ConfigError):
        parse_config("p_d = 1.7\n")
    with pytest.raises(ConfigError):
        parse_config("just some words\n")


def test_parse_config_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 7\nmode = greedy\n")
    assert cfg.seed == 7
    assert cfg.mode == "greedy"


@pytest.mark.parametrize("field, value, message", [
    ("threads", 0, "threads must be >= 1"),
    ("mode", "eager", "mode must be 'all' or 'greedy'"),
    ("families", ("Bogus",), "families: unknown template family 'Bogus'"),
])
def test_run_config_checks_scan_rules_when_built(field, value, message):
    # no RunConfig breaks a scan rule, however it is made
    with pytest.raises(ConfigError, match=message):
        RunConfig(**{field: value})


def _scan_short_record(**kwargs):
    record = ClickRecord(events=np.zeros(16, np.uint8))
    return scan(record, [make_template("Gamma1", 2)], **kwargs)


def _record_with_ff(path="bad.csmg"):
    """A 200-photon record, in the working directory, with 0xFF at
    payload byte 7."""
    write_record(path, ClickRecord(events=np.full(200, 0x06, np.uint8)))
    with open(path, "r+b") as fh:
        fh.seek(HEADER_SIZE + 7)
        fh.write(b"\xff")
    return path


def _read_estimates(*estimates, path="estimates.csv"):
    """read_estimates_csv of the estimates' rows, written to the working
    directory; an estimate is (family, l, count, signed, overlap)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["template", "l", "n_matches", "signed_sum", "mean",
                         "stderr", "overlap_fraction"])
        writer.writerows([f"{f}(l={l})", l, n, s, 0.0, 0.0, o]
                         for f, l, n, s, o in estimates)
    return read_estimates_csv(path)


_IMPOSSIBLE_ESTIMATES = {
    "negative count": ("Gamma1", 2, -3, 1, 0.0),
    "signed sum": ("Gamma1", 2, 3, 5, 0.0),
    "parity": ("Gamma1", 2, 4, 1, 0.0),
    "non-finite overlap": ("Gamma1", 2, 4, 2, float("nan")),
    "overlap range": ("Gamma1", 2, 4, 2, 1.5),
}
_TWICE = [CorrelatorEstimate(f, l, 100, 60, 0.0)
          for f in ("Gamma1", "Gamma2") for l in (2, 5, 8)]
_TWICE.append(_TWICE[0])


# every entry point of each rule; their texts must agree, apart from the
# "families: " key that RunConfig puts before a family's, and the path
# and row that the estimates reader puts around its
_RULE_ENTRY_POINTS = {
    "family": [lambda: make_template("Bogus", 5),
               lambda: slot_counts("Bogus", 5),
               lambda: RunConfig(families=("Bogus",))],
    "l integer": [lambda: make_template("Gamma1", 5.0),
                  lambda: slot_counts("Gamma1", 5.0),
                  lambda: RunConfig(l_values=(5.0,)),
                  lambda: CorrelatorEstimate("Gamma1", 5.0, 4, 2, 0.0)],
    "mode": [lambda: _scan_short_record(mode="eager"),
             lambda: RunConfig(mode="eager")],
    "threads": [lambda: _scan_short_record(threads=0),
                lambda: RunConfig(threads=0)],
    "threads integer": [lambda: _scan_short_record(threads=2.0),
                        lambda: RunConfig(threads=2.0)],
    "burn_in": [lambda: ExperimentConfig(n_photons=10, burn_in=2 ** 64),
                lambda: ClickRecord(events=np.zeros(4, np.uint8),
                                    burn_in=2 ** 64)],
    "q_x": [lambda: ExperimentConfig(n_photons=10, q_x=-0.1, q_y=0.55,
                                     q_z=0.55),
            lambda: instance_probability("Gamma1", 5, 0.5, -0.1, 0.55, 0.55)],
    "p_sigma": [lambda: ExperimentConfig(n_photons=10, p_sigma=1.5),
                lambda: predicted_template_mean("Gamma1", 5, 1.5, 0.0)],
    **{f"estimate {name}": [lambda e=e: CorrelatorEstimate(*e),
                            lambda e=e: _read_estimates(e)]
       for name, e in _IMPOSSIBLE_ESTIMATES.items()},
    "record bytes": [lambda: RecordFile(_record_with_ff()),
                     lambda: open_record(_record_with_ff())],
    "repeated template": [
        lambda: RunConfig(families=("Gamma1", "Gamma1"),
                          l_values=(2,)).templates(),
        lambda: _read_estimates(("Gamma1", 2, 4, 2, 0.0),
                                ("Gamma1", 2, 4, 2, 0.0)),
        lambda: direct_bounds(_TWICE),
        lambda: fit_error_model(_TWICE)],
}


@pytest.mark.parametrize("rule", sorted(_RULE_ENTRY_POINTS))
def test_each_rule_has_one_message_from_every_entry_point(rule, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)  # the files some entry points read
    messages = []
    for call in _RULE_ENTRY_POINTS[rule]:
        with pytest.raises((ValueError, ConfigError, RecordFormatError)) as err:
            call()
        message = str(err.value).removeprefix("families: ")
        messages.append(message.removeprefix("estimates.csv: ")
                        .split(" in estimates row ")[0])
    assert len(set(messages)) == 1, messages


def test_override_revalidates():
    cfg = RunConfig()
    assert override(cfg, seed=5).seed == 5
    assert override(cfg, seed=None).seed == cfg.seed
    with pytest.raises(ConfigError):
        override(cfg, mode="bogus")
    with pytest.raises(ConfigError, match="p_d must lie in"):
        override(cfg, p_d=1.7)


def test_run_config_is_the_simulator_config():
    cfg = RunConfig(n_photons=50, seed=3, p_d=0.5, p_zz=0.1)
    assert isinstance(cfg, ExperimentConfig)
    assert [f.name for f in fields(ExperimentConfig)] \
        == [f.name for f in fields(RunConfig)][:len(fields(ExperimentConfig))]
    with pytest.raises(ValueError, match="q_x \\+ q_y \\+ q_z"):
        RunConfig(q_x=0.5)
    with pytest.raises(ConfigError, match="^q_x must be >= 0$"):
        parse_config("q_x = -1\nq_y = 1\nq_z = 1\n")


def test_runconfig_template_selection():
    cfg = RunConfig(l_max=8, families=("Gamma1", "Gamma2"))
    ids = [t.id for t in cfg.templates()]
    assert ids == ["Gamma1(l=2)", "Gamma1(l=5)", "Gamma1(l=8)",
                   "Gamma2(l=2)", "Gamma2(l=5)", "Gamma2(l=8)"]
    cfg = RunConfig(l_values=(5,), families=("Gamma2",))
    assert [t.id for t in cfg.templates()] == ["Gamma2(l=5)"]


# ---------------------------------------------------------------------------
# Estimates CSV round trip.


def test_estimates_csv_roundtrip(tmp_path):
    ests = [CorrelatorEstimate(family="Gamma1", l=2, match_count=100,
                               signed_sum=60, overlap_fraction=0.25),
            CorrelatorEstimate(family="Gamma2", l=5, match_count=0,
                               signed_sum=0, overlap_fraction=0.0)]
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, ests)
    back = read_estimates_csv(path)
    assert len(back) == 2
    assert back[0].match_count == 100
    assert back[0].signed_sum == 60
    assert back[0].mean == pytest.approx(0.6)
    assert back[0].family == "Gamma1"
    assert back[1].match_count == 0
    rows = _read_csv(path)
    assert rows[0] == ["template", "l", "n_matches", "signed_sum", "mean",
                       "stderr", "overlap_fraction"]


@pytest.mark.parametrize("count, signed, overlap, problem", [
    ("-2", "0", "0.0", "negative match count"),
    ("3", "5", "0.0", "signed sum larger"),
    ("3", "-5", "0.0", "signed sum larger"),
    ("4", "1", "0.0", "different parity"),
    ("4", "2", "nan", "non-finite overlap"),
    ("4", "2", "inf", "non-finite overlap"),
    ("4", "2", "1.5", "overlap fraction outside"),
    ("4", "2", "-0.25", "overlap fraction outside"),
    ("ten", "2", "0.25", "invalid literal for int"),
    ("4", "2", "most", "could not convert string to float"),
])
def test_estimates_csv_rejects_impossible_rows(tmp_path, count, signed,
                                               overlap, problem):
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, [CorrelatorEstimate(
        family="Gamma1", l=2, match_count=4, signed_sum=2,
        overlap_fraction=0.25)])
    rows = _read_csv(path)
    rows[1][2], rows[1][3], rows[1][6] = count, signed, overlap
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match=problem) as err:
        read_estimates_csv(path)
    assert str(path) in str(err.value)
    assert "Gamma1(l=2)" in str(err.value)


def test_estimates_csv_names_the_row_of_an_unknown_family(tmp_path, capsys):
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, [CorrelatorEstimate(
        family="Gamma1", l=2, match_count=4, signed_sum=2,
        overlap_fraction=0.25)])
    rows = _read_csv(path)
    rows[1][0] = "Bogus(l=2)"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="unknown template family") as err:
        read_estimates_csv(path)
    assert str(path) in str(err.value)
    assert "in estimates row ['Bogus(l=2)'" in str(err.value)
    assert run(["analyze", str(path), "--out-bounds",
                str(tmp_path / "b.csv"), "--out-summary",
                str(tmp_path / "s.json")]) == 2
    assert "Bogus(l=2)" in capsys.readouterr().err


def test_estimates_csv_rejects_repeated_template(tmp_path, capsys):
    # a repeated row would enter the fit as an independent point
    path = tmp_path / "estimates.csv"
    est = CorrelatorEstimate("Gamma1", 2, 100, 60, 0.0)
    other = CorrelatorEstimate("Gamma2", 2, 100, 40, 0.0)
    write_estimates_csv(path, [est, other, est])
    with pytest.raises(ValueError, match="template selected more than once"
                       ) as err:
        read_estimates_csv(path)
    assert str(path) in str(err.value)
    assert "Gamma1(l=2)" in str(err.value)
    assert run(["analyze", str(path), "--out-bounds",
                str(tmp_path / "b.csv"), "--out-summary",
                str(tmp_path / "s.json")]) == 2
    assert "template selected more than once" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()
    # nor may a row hide a repeated (family, l) under another id
    rows = _read_csv(path)[:3]
    rows[2][0] = "Gamma1(l=02)"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="does not name l = 2"):
        read_estimates_csv(path)


def test_estimates_csv_rejects_a_separation_off_the_grid(tmp_path, capsys):
    # no template exists at l = 3, so no scan could have written these rows
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, [
        CorrelatorEstimate(f, 2, 500, 480, 0.0)
        for f in ("Gamma1", "Gamma2")])
    rows = _read_csv(path)
    for row in rows[1:]:
        row[0], row[1] = row[0].replace("l=2", "l=3"), "3"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(ValueError, match="separation 3 is not supported"):
        read_estimates_csv(path)
    bounds, summary = tmp_path / "b.csv", tmp_path / "s.json"
    assert run(["analyze", str(path), "--no-fit", "--out-bounds",
                str(bounds), "--out-summary", str(summary)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "in estimates row ['Gamma1(l=3)'" in err
    assert not bounds.exists() and not summary.exists()


# ---------------------------------------------------------------------------
# simulate / scan / analyze pipeline.


def test_simulate_writes_deterministic_records(tmp_path):
    out1 = tmp_path / "a.csmg"
    out2 = tmp_path / "b.csmg"
    args = ["simulate", "--photons", "20000", "--seed", "11", "--pd", "0.8",
            "--psigma", "0.002", "--pzz", "0.01", "--burn-in", "100"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = open_record(out1)
    assert len(rec) == 20000
    assert rec.burn_in == 100


def test_simulate_rejects_a_burn_in_past_the_header(tmp_path, capsys):
    # the header stores the burn-in as uint64; this used to simulate and
    # then fail in the record write with struct.error
    out = tmp_path / "r.csmg"
    assert run(["simulate", "--photons", "5000", "--burn-in",
                str(2 ** 64), "--out", str(out)]) == 2
    assert "burn_in" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_dark_detector(tmp_path):
    out = tmp_path / "dark.csmg"
    assert run(["simulate", "--photons", "512", "--pd", "0", "--out",
                str(out)]) == 0
    rec = open_record(out)
    assert np.all(rec.load().events == 0)


def test_scan_hand_record_to_csv(tmp_path, capsys):
    events = np.frombuffer(bytes([0x06, 0x04, 0x04, 0x06]), np.uint8)
    rec_path = tmp_path / "four.csmg"
    write_record(rec_path, ClickRecord(events=events.copy(), burn_in=0))
    out = tmp_path / "estimates.csv"
    code = run(["scan", str(rec_path), "--l-values", "2", "--families",
                "Gamma1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert rows[1][0] == "Gamma1(l=2)"
    assert rows[1][2] == "1"
    assert rows[1][3] == "1"
    assert "Gamma1(l=2)" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--l-values", "2,2,5,5,8,8"],
    ["--l-values", "5,2,5"],
    ["--families", "Gamma1,Gamma2,Gamma1", "--l-values", "2"],
])
def test_scan_rejects_repeated_templates_exit_code_2(tmp_path, flags,
                                                     capsys):
    rec_path = tmp_path / "stream.csmg"
    write_record(rec_path, ClickRecord(
        events=np.full(64, 0x06, np.uint8), burn_in=0))
    out = tmp_path / "est.csv"
    assert run(["scan", str(rec_path), *flags, "--out", str(out)]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


def test_scan_respects_config_file_with_flag_override(tmp_path):
    rec_path = tmp_path / "stream.csmg"
    assert run(["simulate", "--photons", "50000", "--seed", "3", "--qy",
                "0.6", "--qx", "0.2", "--qz", "0.2", "--burn-in", "0",
                "--out", str(rec_path)]) == 0
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("l_values = 2\nfamilies = Gamma1\nmode = all\n")
    out = tmp_path / "est.csv"
    assert run(["scan", str(rec_path), "--config", str(cfg_path),
                "--mode", "greedy", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r[0] for r in rows[1:]] == ["Gamma1(l=2)"]
    # greedy from the flag must beat the config file's "all"
    rec = open_record(rec_path)
    greedy = scan(rec, [make_template("Gamma1", 2)], mode="greedy")[0]
    assert int(rows[1][2]) == greedy.match_count


def test_analyze_full_pipeline(tmp_path):
    rec_path = tmp_path / "stream.csmg"
    assert run(["simulate", "--photons", "400000", "--seed", "5",
                "--psigma", "0.004", "--pzz", "0.008", "--qx", "0.2",
                "--qy", "0.6", "--qz", "0.2", "--burn-in", "100",
                "--out", str(rec_path)]) == 0
    est_path = tmp_path / "est.csv"
    assert run(["scan", str(rec_path), "--lmax", "8", "--out",
                str(est_path)]) == 0
    bounds_path = tmp_path / "bounds.csv"
    summary_path = tmp_path / "summary.json"
    assert run(["analyze", str(est_path), "--out-bounds", str(bounds_path),
                "--out-summary", str(summary_path)]) == 0
    rows = _read_csv(bounds_path)
    assert rows[0] == ["l", "mu_gamma1", "mu_gamma2", "eof_central",
                       "eof_conservative", "clamped", "method"]
    assert [r[0] for r in rows[1:]] == ["2", "5", "8"]
    summary = json.loads(summary_path.read_text())
    assert 0 <= summary["fit"]["p_sigma"] < 0.02
    assert 0 < summary["fit"]["p_zz"] < 0.03
    assert summary["xi_indirect"]["continuous"] > 0
    assert summary["direct"]["xi_e"] >= 2


@pytest.mark.parametrize("z", ["-3", "nan", "inf"])
def test_analyze_bad_z_exit_code_2(tmp_path, z, capsys):
    est_path = tmp_path / "est.csv"
    write_estimates_csv(est_path, [
        CorrelatorEstimate("Gamma1", 8, 100, 60, 0.0),
        CorrelatorEstimate("Gamma2", 8, 100, 40, 0.0)])
    assert run(["analyze", str(est_path), f"--z={z}", "--out-bounds",
                str(tmp_path / "b.csv"), "--out-summary",
                str(tmp_path / "s.json")]) == 2
    assert "z must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_analyze_failed_fit_writes_nothing(tmp_path, capsys):
    # two separations cannot fit two rates; the bounds alone would succeed
    est_path = tmp_path / "est.csv"
    write_estimates_csv(est_path, [
        CorrelatorEstimate(f, l, 500, 400, 0.0)
        for f in ("Gamma1", "Gamma2") for l in (2, 5)])
    bounds, summary = tmp_path / "b.csv", tmp_path / "s.json"
    assert run(["analyze", str(est_path), "--out-bounds", str(bounds),
                "--out-summary", str(summary)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and out == ""
    assert not bounds.exists() and not summary.exists()


def test_analyze_no_fit_skips_rates(tmp_path):
    est_path = tmp_path / "est.csv"
    write_estimates_csv(est_path, [
        CorrelatorEstimate("Gamma1", 2, 500, 480, 0.0),
        CorrelatorEstimate("Gamma2", 2, 500, 460, 0.0)])
    summary_path = tmp_path / "summary.json"
    assert run(["analyze", str(est_path), "--no-fit", "--out-bounds",
                str(tmp_path / "b.csv"), "--out-summary",
                str(summary_path)]) == 0
    summary = json.loads(summary_path.read_text())
    assert "fit" not in summary
    assert "xi_indirect" not in summary
    assert summary["direct"]["xi_e"] == 2


def test_analyze_bounds_a_row_with_a_tiny_concurrence(tmp_path):
    # at l = 5 this record has 7 Gamma1 matches summing to 5 and 7 Gamma2
    # matches summing to -1; the clamped spectrum of the moments (5/7,
    # 5/7, -1/7) has a concurrence of about 2.2e-16, whose EoF is finite
    rec, est = tmp_path / "rec.csmg", tmp_path / "est.csv"
    assert run(["simulate", "--photons", "5000", "--seed", "231",
                "--pd", "1", "--qx", "0.3333333333333333",
                "--qy", "0.3333333333333333", "--qz", "0.3333333333333334",
                "--psigma", "0.02", "--pzz", "0.1", "--burn-in", "100",
                "--out", str(rec)]) == 0
    assert run(["scan", str(rec), "--lmax", "50", "--out", str(est)]) == 0
    bounds = tmp_path / "b.csv"
    assert run(["analyze", str(est), "--out-bounds", str(bounds),
                "--out-summary", str(tmp_path / "s.json")]) == 0
    row = {r[0]: r for r in _read_csv(bounds)[1:]}["5"]
    assert (float(row[1]), float(row[2])) == (5 / 7, -1 / 7)
    assert 0.0 < float(row[3]) < 1e-29 and float(row[4]) == 0.0


def test_analyze_fits_rows_at_huge_separations(tmp_path, monkeypatch):
    # the reader checks a row's id and the fit reads its exponents from the
    # family's form in O(1), so a row at l = 300 000 002 builds no template
    import csmg.analysis
    import csmg.reports
    import csmg.templates

    def refuse(family, l):
        raise AssertionError(f"built the {family} template at l = {l}")

    for module in (csmg.templates, csmg.analysis, csmg.reports):
        monkeypatch.setattr(module, "make_template", refuse, raising=False)
    huge = 300_000_002
    est_path = tmp_path / "est.csv"
    write_estimates_csv(est_path, [
        CorrelatorEstimate(f, l, 1000, signed, 0.0)
        for f in ("Gamma1", "Gamma2")
        for l, signed in ((2, 900), (5, 800), (8, 700), (huge, 10))])
    assert [e.l for e in read_estimates_csv(est_path)][3::4] == [huge, huge]
    bounds, summary = tmp_path / "b.csv", tmp_path / "s.json"
    assert run(["analyze", str(est_path), "--out-bounds", str(bounds),
                "--out-summary", str(summary)]) == 0
    assert [r[0] for r in _read_csv(bounds)[1:]] == ["2", "5", "8", str(huge)]
    fit = json.loads(summary.read_text())["fit"]
    assert (fit["n_points"], fit["dropped"]) == (8, [])


# ---------------------------------------------------------------------------
# plan / verify / report.


def test_plan_prints_reach(capsys):
    assert run(["plan", "--pd", "0.5", "--budget", "1e10"]) == 0
    out = capsys.readouterr().out
    assert "11" in out      # naive tomography K
    assert "20" in out      # Gamma2 reach
    assert "29" in out      # Gamma1 reach


def test_plan_reach_has_no_cap(capsys):
    # at p_d = 1 Gamma1's match probability falls only as about 1/l^2, so
    # at 1e12 photons its reach lies past l = 10^6
    assert run(["plan", "--pd", "1", "--budget", "1e12"]) == 0
    assert "Gamma1: direct reach l = 1103633 " in capsys.readouterr().out


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_plan_non_finite_budget_exit_code_2(budget, capsys):
    assert run(["plan", "--pd", "0.5", f"--budget={budget}"]) == 2
    assert "n_budget must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("pd, k", [("1", 511), ("0.05", 161)])
def test_plan_takes_the_largest_budget(pd, k, capsys):
    # the tomography cost used to raise OverflowError past about 1e306
    assert run(["plan", "--pd", pd, "--budget", "1.7976931348623157e308"]) == 0
    assert f"tomography baseline: K = {k}\n" in capsys.readouterr().out


def test_plan_prints_nothing_on_exit_code_2(capsys):
    # the reach rule fails after the tomography line could be printed
    assert run(["plan", "--pd", "0.5", "--min-expected", "0"]) == 2
    assert capsys.readouterr() == ("", "error: min_expected must be > 0\n")


@pytest.mark.parametrize("value, message", [
    ("nan", "min_expected must be > 0"),
    ("inf", "min_expected must be finite"),
])
def test_plan_and_report_refuse_a_non_finite_min_expected(tmp_path, value,
                                                          message, capsys):
    # both used to exit 0 with a reach of 0 for every family
    assert run(["plan", "--pd", "0.5", "--min-expected", value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    out_dir = tmp_path / "tables"
    assert run(["report", "--out-dir", str(out_dir),
                "--min-expected", value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_verify_ok(capsys):
    assert run(["verify", "--lmax", "8"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 6


def test_verify_reads_families_as_scan_does(capsys):
    assert run(["verify", "--lmax", "5", "--families", "Gamma1,Gamma2"]) == 0
    plain = capsys.readouterr().out
    assert run(["verify", "--lmax", "5", "--families", "Gamma1, Gamma2"]) == 0
    assert capsys.readouterr().out == plain
    assert plain.splitlines() == [
        "ok Gamma1(l=2) phase +1", "ok Gamma1(l=5) phase +1",
        "ok Gamma2(l=2) phase +1", "ok Gamma2(l=5) phase +1",
        "verified 4 templates"]


def test_verify_rejects_repeated_templates_exit_code_2(capsys):
    assert run(["verify", "--families", "Gamma1,Gamma1", "--lmax", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: template selected more than once: Gamma1(l=2)\n"


@pytest.mark.parametrize("windows", ["0", "-3"])
def test_verify_windows_below_one_exit_code_2(windows, capsys):
    assert run(["verify", "--lmax", "2", f"--windows={windows}"]) == 2
    assert capsys.readouterr().err == "error: windows must be >= 1\n"
    with pytest.raises(ValueError, match="windows must be >= 1"):
        verify_template_stream(make_template("Gamma1", 2),
                               windows=int(windows))


def test_verify_failure_exit_code(monkeypatch):
    import csmg.cli as cli
    from csmg.templates import TemplateVerificationError

    def boom(template, windows=256):
        raise TemplateVerificationError("forced failure")

    monkeypatch.setattr(cli, "verify_template", boom)
    assert run(["verify", "--lmax", "2"]) == 3


def test_report_takes_the_largest_budget(tmp_path):
    out_dir = tmp_path / "tables"
    assert run(["report", "--budget", "1e308", "--psigmas", "0",
                "--out-dir", str(out_dir)]) == 0
    tomo = _read_csv(out_dir / "tomography_baseline.csv")
    assert tomo[1] == ["0.05", "161"]


def test_report_emits_planner_tables(tmp_path):
    out_dir = tmp_path / "tables"
    assert run(["report", "--out-dir", str(out_dir)]) == 0
    tomo = _read_csv(out_dir / "tomography_baseline.csv")
    assert tomo[0] == ["p_d", "K"]
    assert len(tomo) > 10
    reach = _read_csv(out_dir / "direct_reach.csv")
    assert reach[0] == ["p_d", "l_max_gamma1", "l_max_gamma2"]
    xi = _read_csv(out_dir / "xi_curve.csv")
    assert xi[0] == ["p_sigma", "p_zz", "xi_continuous", "xi_grid"]
    sigmas = {row[0] for row in xi[1:]}
    assert len(sigmas) == 2


def test_report_psigmas_read_as_a_config_list(tmp_path, capsys):
    tables = []
    for text in ("0,0.002", "0, 0.002", "0,,0.002"):
        out_dir = tmp_path / str(len(tables))
        assert run(["report", "--out-dir", str(out_dir),
                    "--psigmas", text]) == 0
        tables.append((out_dir / "xi_curve.csv").read_bytes())
    assert tables[1] == tables[0] and tables[2] == tables[0]
    capsys.readouterr()
    assert run(["report", "--out-dir", str(tmp_path / "x"),
                "--psigmas", "0,x"]) == 2
    assert capsys.readouterr().err \
        == "error: psigmas: expected a number, got 'x'\n"
    assert run(["report", "--out-dir", str(tmp_path / "x"),
                "--psigmas", " , "]) == 2
    assert not (tmp_path / "x").exists()  # no table is written


@pytest.mark.parametrize("flags, message", [
    (["--min-expected", "0"], "min_expected must be > 0"),
    (["--psigmas=-0.5"], "p_sigma must lie in [0, 3/4]"),
])
def test_report_writes_no_table_on_exit_code_2(tmp_path, flags, message,
                                               capsys):
    out_dir = tmp_path / "tables"
    assert run(["report", "--out-dir", str(out_dir), *flags]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# Exit codes.


def test_usage_error_exit_code_1():
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--bogus-flag", "1"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run(["scan", "--mode", "eager", "x.csmg"])
    assert err.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["plan", "--pd", "abc"], "pd: expected a number, got 'abc'"),
    (["plan", "--pd", "0.5", "--budget", "x"],
     "budget: expected a number, got 'x'"),
    (["report", "--min-expected", "x"],
     "min_expected: expected a number, got 'x'"),
    (["analyze", "est.csv", "--z", "abc"], "z: expected a number, got 'abc'"),
    (["verify", "--lmax", "2", "--windows", "two"],
     "windows: expected an integer, got 'two'"),
], ids=["plan-pd", "plan-budget", "report-min-expected", "analyze-z",
        "verify-windows"])
def test_non_field_flags_read_by_the_config_reader(tmp_path, monkeypatch,
                                                   argv, message, capsys):
    # flags that set no RunConfig field are read as config-file values too
    monkeypatch.chdir(tmp_path)
    write_estimates_csv(tmp_path / "est.csv", [
        CorrelatorEstimate(f, l, 500, 400, 0.0)
        for f in ("Gamma1", "Gamma2") for l in (2, 5, 8)])
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["est.csv"]


def test_missing_record_exit_code_2(tmp_path):
    assert run(["scan", str(tmp_path / "absent.csmg"), "--l-values",
                "2"]) == 2


def test_corrupt_record_exit_code_2(tmp_path):
    path = tmp_path / "bad.csmg"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert run(["scan", str(path), "--l-values", "2"]) == 2


def test_corrupt_payload_byte_exit_code_2_with_offset(tmp_path, capsys):
    path = tmp_path / "bad.csmg"
    write_record(path, ClickRecord(events=np.full(5000, 0x06, np.uint8),
                                   burn_in=0))
    blob = bytearray(path.read_bytes())
    blob[-9] = 0x01
    path.write_bytes(bytes(blob))
    assert run(["scan", str(path), "--l-values", "2",
                "--out", str(tmp_path / "e.csv")]) == 2
    assert f"byte offset {len(blob) - 9}" in capsys.readouterr().err

def test_bad_config_exit_code_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense_key = 1\n")
    assert run(["simulate", "--config", str(cfg), "--photons", "10",
                "--out", str(tmp_path / "x.csmg")]) == 2


def test_threads_env_cap(tmp_path):
    # eight ranges, on eight CPUs, and two write the same estimates
    rec_path = tmp_path / "s.csmg"
    assert run(["simulate", "--photons", "30000", "--seed", "2", "--out",
                str(rec_path)]) == 0
    out = tmp_path / "e.csv"
    with cpus(8):
        assert run(["scan", str(rec_path), "--l-values", "2", "--threads",
                    "8", "--out", str(out)]) == 0
    fewer = tmp_path / "e2.csv"
    assert run(["scan", str(rec_path), "--l-values", "2", "--threads", "2",
                "--out", str(fewer)]) == 0
    assert _read_csv(out) == _read_csv(fewer)


# ---------------------------------------------------------------------------
# Records stream through fixed buffers.

_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("flag, value, message", [
    ("--photons", _HUGE, f"n_photons must be <= {2 ** 64 - 1}"),
    ("--photons", "-" + _HUGE, "n_photons must be >= 1"),
    ("--seed", "-" + _HUGE, "seed must be >= 0"),
    ("--burn-in", _HUGE, "burn_in must lie in [0, "),
])
def test_simulate_rejects_integers_past_the_double_range(tmp_path, capsys,
                                                          flag, value,
                                                          message):
    # math.isfinite on such an int raised OverflowError, a traceback
    out = tmp_path / "r.csmg"
    argv = ["simulate", "--photons", "1000", flag, value, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_simulate_takes_a_seed_past_the_double_range(tmp_path):
    # any non-negative integer seeds the generator
    out = tmp_path / "r.csmg"
    assert run(["simulate", "--photons", "1000", "--seed", _HUGE,
                "--out", str(out)]) == 0
    cfg = ExperimentConfig(n_photons=1000, seed=int(_HUGE))
    assert np.array_equal(open_record(out).load().events, simulate(cfg).events)


@pytest.mark.parametrize("existing", [None, b"an earlier record"])
def test_failed_simulate_leaves_no_partial_record(tmp_path, monkeypatch,
                                                  capsys, existing):
    import csmg.stream as stream

    out = tmp_path / "r.csmg"
    if existing is not None:
        out.write_bytes(existing)
    calls = []
    scan_chain = stream._scan_chain

    def fail_third_chunk(*args):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("chunk failed")
        return scan_chain(*args)

    monkeypatch.setattr(stream, "_scan_chain", fail_third_chunk)
    assert run(["simulate", "--photons", str(5 * stream._CHUNK),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: chunk failed\n"
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ([] if existing is None else ["r.csmg"])
    if existing is not None:
        assert out.read_bytes() == existing


def test_simulate_writes_in_memory_bounded_by_a_chunk(tmp_path):
    n = 1 << 24  # a 16 MiB record
    out = tmp_path / "big.csmg"
    args = ["simulate", "--photons", str(n), "--seed", "4", "--pd", "0.5",
            "--psigma", "0.002", "--pzz", "0.01", "--out", str(out)]
    tracemalloc.start()
    try:
        assert run(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert out.stat().st_size == HEADER_SIZE + n


# VmHWM is the peak RSS of this process image alone: a child's ru_maxrss
# also counts the RSS of the process it was forked from, here pytest's
_PEAK_RSS = ("import sys; from csmg.cli import run; "
             "assert run(sys.argv[1:]) == 0; "
             "print(open('/proc/self/status').read()"
             ".split('VmHWM:')[1].split()[0])")


def _scan_peak_rss_kib(record, out, mode):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "scan", str(record),
         "--l-values", "2,5,8", "--mode", mode, "--threads", "1",
         "--out", str(out)],
        env=env, capture_output=True, text=True, check=True)
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_scan_peak_rss_does_not_grow_with_the_record(tmp_path):
    rng = np.random.default_rng(8)
    piece = rng.choice(np.array([0x00, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07],
                                dtype=np.uint8), size=1 << 20)
    big, tiny = tmp_path / "big.csmg", tmp_path / "tiny.csmg"
    with record_writer(big, 64 << 20, 100) as writer:
        for _ in range(64):  # 64 MiB
            writer.write(piece)
    write_record(tiny, ClickRecord(events=piece[:1000], burn_in=100))
    # a greedy scan is one range, and its matches wait for their tally in
    # a pending list whose total is capped
    for mode in ("all", "greedy"):
        grown = (_scan_peak_rss_kib(big, tmp_path / "big.csv", mode)
                 - _scan_peak_rss_kib(tiny, tmp_path / "tiny.csv", mode))
        assert grown < 16 << 10, f"{mode}: peak RSS grew by {grown} KiB"
