"""Command-line surface: simulate, scan, analyze, plan, verify, report.

The source flags of ``simulate``, the template flags of ``scan`` and the
``--lmax``/``--families`` flags of ``verify`` each set the RunConfig
field named by their dest, over ``--config FILE`` (simulate and scan) or
the defaults.  argparse keeps a flag's text; the config-file reader
reads it as it reads that key's value in a file, so a flag and a file
line accept the same values and reject a bad one with the same message.
Every other flag's text is read by the same reader too: ``report
--psigmas`` as a config-file list, and ``plan --pd``, ``--budget``,
``--min-expected``, ``analyze --z`` and ``verify --windows`` as
config-file numbers, so a bad one exits 2 with the config reader's
message.  Every field value is checked as the RunConfig is built.

Exit codes: 0 success, 1 usage error, 2 data or configuration error,
3 template verification failure.  analyze, plan and report compute
everything before they write, so on exit 2 they leave no file and no
result line; simulate writes its record under a temporary name and
renames it onto ``--out`` only once it is whole, so a failed run leaves
no partial record and keeps any file already there.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from typing import List, Optional

from .analysis import (direct_bounds, fit_error_model, instance_probability,
                       max_direct_length, naive_tomography_K,
                       splitter_settings, xi_e)
from .config import (ConfigError, RunConfig, override, parse_list,
                     parse_scalar, parse_value, read_config)
from .recordio import (RecordFormatError, RecordWriter, open_record,
                       record_writer)
from .reports import (_write_csv, read_estimates_csv, report_tables,
                      write_bounds_csv, write_estimates_csv,
                      write_summary_json)
from .stream import _CHUNK, ExperimentConfig, _simulate_table
from .templates import (FAMILIES, MODES, TemplateVerificationError, scan,
                        verify_template)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool's contract says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_config(args: argparse.Namespace) -> RunConfig:
    path = getattr(args, "config", None)
    cfg = read_config(path) if path else RunConfig()
    # a flag's dest is the field it sets, and its text is read as that
    # key's value in a config file
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return override(cfg, **{name: parse_value(name, text)
                            for name, text in flags.items()
                            if text is not None})


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run configuration file (key = value)")
    p.add_argument("--photons", dest="n_photons",
                   help="number of photons to emit")
    p.add_argument("--seed", dest="seed", help="random seed")
    p.add_argument("--pd", dest="p_d", help="detection probability")
    p.add_argument("--qx", dest="q_x", help="X-basis splitter probability")
    p.add_argument("--qy", dest="q_y", help="Y-basis splitter probability")
    p.add_argument("--qz", dest="q_z", help="Z-basis splitter probability")
    p.add_argument("--psigma", dest="p_sigma",
                   help="per-photon single-Pauli error probability")
    p.add_argument("--pzz", dest="p_zz",
                   help="per-pair Z*Z error probability")
    p.add_argument("--burn-in", dest="burn_in",
                   help="photons flagged as burn-in in the record header")
    p.add_argument("--tau-em", dest="tau_em",
                   help="emission period in seconds")


def _add_template_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lmax", dest="l_max",
                   help="largest separation on the grid")
    p.add_argument("--l-values", dest="l_values",
                   help="explicit comma-separated separations")
    p.add_argument("--families", dest="families",
                   help="comma-separated template families "
                        "(Gamma1, Gamma2)")
    p.add_argument("--mode", dest="mode", choices=MODES,
                   help="count every match or non-overlapping only")
    p.add_argument("--threads", dest="threads", help="scan worker threads")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", default="1e10", help="photon budget")
    p.add_argument("--min-expected", dest="min_expected", default="1.0",
                   help="required expected matches")


def simulate(cfg: ExperimentConfig, writer: RecordWriter) -> None:
    """Write the table path's pieces to ``writer`` as they come; perfbench
    times this name as the stream layer."""
    for piece in _simulate_table(cfg, None, _CHUNK):
        writer.write(piece)


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = args.out or cfg.record_path
    if not out:
        raise ConfigError("no output path: pass --out or set record_path")
    started = time.perf_counter()
    # each chunk is validated and written as it comes; ``out`` is replaced
    # only once the whole record is on disk
    with record_writer(out, cfg.n_photons, cfg.burn_in) as writer:
        simulate(cfg, writer)
    elapsed = time.perf_counter() - started
    rate = cfg.n_photons / elapsed if elapsed > 0 else float("inf")
    print(f"wrote {out}: {cfg.n_photons} photons "
          f"(lost fraction {writer.lost / cfg.n_photons:.4f}, "
          f"{rate:.3g} photons/s)")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    record_path = args.record or cfg.record_path
    if not record_path:
        raise ConfigError("no record path: pass one or set record_path")
    out = args.out or cfg.estimates_path
    if not out:
        raise ConfigError("no output path: pass --out or set estimates_path")
    templates = cfg.templates()
    record = open_record(record_path)
    estimates = scan(record, templates, mode=cfg.mode, threads=cfg.threads)
    write_estimates_csv(out, estimates)
    for est in estimates:
        print(f"{est.template_id}: {est.match_count} matches, "
              f"mean {est.mean:+.6f} +- {est.stderr:.6f} "
              f"(overlap {est.overlap_fraction:.3f})")
    print(f"wrote {out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    z = parse_scalar("z", float, args.z)
    estimates = read_estimates_csv(args.estimates)
    table = direct_bounds(estimates, z=z)
    fit = None
    xi = None
    if not args.no_fit:
        fit = fit_error_model(estimates)
        xi = xi_e(fit)
    write_bounds_csv(args.out_bounds, table)
    write_summary_json(args.out_summary, table=table, fit=fit, xi=xi)
    for row in table.rows:
        print(f"l={row.l}: EoF central {row.eof_central:.4f}, "
              f"conservative {row.eof_conservative:.4f}"
              + (" [clamped]" if row.clamped else ""))
    print(f"direct xi_e = {table.xi_e}")
    if fit is not None:
        print(f"fit: p_sigma = {fit.p_sigma:.6g} +- {fit.stderr_p_sigma:.2g}, "
              f"p_zz = {fit.p_zz:.6g} +- {fit.stderr_p_zz:.2g}, "
              f"chi2/dof = {fit.chi2_per_dof:.3f}")
    if xi is not None:
        print(f"indirect xi_e: grid {xi.grid:g}, "
              f"continuous {xi.continuous:g}")
    print(f"wrote {args.out_bounds} and {args.out_summary}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    p_d = parse_scalar("pd", float, args.pd)
    budget = parse_scalar("budget", float, args.budget)
    min_expected = parse_scalar("min_expected", float, args.min_expected)
    k = naive_tomography_K(p_d, budget)
    lines = [f"p_d = {p_d}, photon budget = {budget:g}",
             f"tomography baseline: K = {k}"]
    for family in FAMILIES:
        reach = max_direct_length(family, p_d, budget,
                                  min_expected=min_expected)
        line = f"{family}: direct reach l = {reach}"
        if reach:
            qs = splitter_settings(family, reach)
            prob = instance_probability(family, reach, p_d, *qs)
            line += (f" (p_p = {qs[1]:.4f}, q = ({qs[0]:.4f}, {qs[1]:.4f}, "
                     f"{qs[2]:.4f}), match prob {prob:.3g})")
        lines.append(line)
    print("\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    templates = _load_config(args).templates()
    windows = parse_scalar("windows", int, args.windows)
    for template in templates:
        verify_template(template, windows=windows)
        print(f"ok {template.id} phase +1")
    print(f"verified {len(templates)} templates")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    p_sigmas = parse_list("psigmas", args.psigmas, float)
    if not p_sigmas:
        raise ConfigError("psigmas must name at least one rate")
    budget = parse_scalar("budget", float, args.budget)
    min_expected = parse_scalar("min_expected", float, args.min_expected)
    tables = report_tables(budget, min_expected, p_sigmas)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, columns, rows in tables:
        path = os.path.join(args.out_dir, name)
        _write_csv(path, columns, rows)
        print(f"wrote {path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="csmg",
                     description="Photon-stream cluster-source simulator "
                                 "and entanglement-length certifier")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="emit a click record")
    _add_source_flags(p)
    p.add_argument("--out", help="output record path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="scan a record for template matches")
    p.add_argument("record", nargs="?", help="input record path")
    p.add_argument("--config", help="run configuration file")
    _add_template_flags(p)
    p.add_argument("--out", help="output estimates CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("analyze", help="bounds and rate fit from estimates")
    p.add_argument("estimates", help="estimates CSV from scan")
    p.add_argument("--z", default="1.96",
                   help="haircut in standard errors for conservative bounds")
    p.add_argument("--no-fit", action="store_true",
                   help="skip the error-model fit")
    p.add_argument("--out-bounds", default="bounds.csv",
                   help="output bounds CSV")
    p.add_argument("--out-summary", default="summary.json",
                   help="output summary JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plan", help="budget calculators for one p_d")
    p.add_argument("--pd", required=True,
                   help="detection probability")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="self-check the template constructions")
    p.add_argument("--lmax", dest="l_max", default="50",
                   help="largest separation to verify")
    p.add_argument("--families", dest="families",
                   help="comma-separated families")
    p.add_argument("--windows", default="256",
                   help="simulated windows per template")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="emit planner curve tables")
    p.add_argument("--out-dir", default="reports", help="output directory")
    _add_budget_flags(p)
    p.add_argument("--psigmas", default="0,0.002",
                   help="comma-separated single-Pauli rates for the xi curve")
    p.set_defaults(func=cmd_report)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TemplateVerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, RecordFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
