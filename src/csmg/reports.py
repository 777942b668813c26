"""Plot-ready report tables: CSV and JSON emission with frozen schemas.

Column orders are part of the tool's external contract:

- estimates:  template,l,n_matches,signed_sum,mean,stderr,overlap_fraction
- bounds:     l,mu_gamma1,mu_gamma2,eof_central,eof_conservative,clamped,method
- tomography: p_d,K
- reach:      p_d,l_max_gamma1,l_max_gamma2
- xi curve:   p_sigma,p_zz,xi_continuous,xi_grid

The last three are ``csmg report``'s tables.  ``report_tables`` is their
one builder: it gives each table's file name, columns and rows, over the
p_d grid ``PD_GRID`` and the p_zz grid ``PZZ_GRID``.  Every CSV file,
these and the first two, is written by ``_write_csv``.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (ErrorModelFit, LEBoundTable, XiEstimate,
                       max_direct_length, naive_tomography_K, xi_from_rates)
from .templates import FAMILIES, CorrelatorEstimate, check_each_once

ESTIMATE_COLUMNS = ("template", "l", "n_matches", "signed_sum", "mean",
                    "stderr", "overlap_fraction")
BOUND_COLUMNS = ("l", "mu_gamma1", "mu_gamma2", "eof_central",
                 "eof_conservative", "clamped", "method")


def _write_csv(path: str, columns: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_estimates_csv(path: str,
                        estimates: Sequence[CorrelatorEstimate]) -> None:
    _write_csv(path, ESTIMATE_COLUMNS,
               ([est.template_id, est.l, est.match_count, est.signed_sum,
                 est.mean, est.stderr, est.overlap_fraction]
                for est in estimates))


def read_estimates_csv(path: str) -> List[CorrelatorEstimate]:
    estimates: List[CorrelatorEstimate] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != ESTIMATE_COLUMNS:
            raise ValueError(f"{path}: bad estimates header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(ESTIMATE_COLUMNS):
                raise ValueError(f"{path}: bad estimates row {row}")
            try:
                # the id's family and the l, n_matches, signed_sum and
                # overlap_fraction columns; mean and stderr follow from them
                est = CorrelatorEstimate(row[0].split("(", 1)[0], int(row[1]),
                                         int(row[2]), int(row[3]),
                                         float(row[6]))
                if row[0] != est.template_id:
                    raise ValueError(
                        f"template id that does not name l = {est.l}")
            except ValueError as exc:
                raise ValueError(
                    f"{path}: {exc} in estimates row {row}") from None
            estimates.append(est)
    try:
        check_each_once(estimates)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return estimates


def write_bounds_csv(path: str, table: LEBoundTable) -> None:
    _write_csv(path, BOUND_COLUMNS,
               ([row.l, row.mu_gamma1, row.mu_gamma2, row.eof_central,
                 row.eof_conservative, int(row.clamped), row.method]
                for row in table.rows))


def write_summary_json(path: str, table: Optional[LEBoundTable] = None,
                       fit: Optional[ErrorModelFit] = None,
                       xi: Optional[XiEstimate] = None) -> None:
    payload: dict = {}
    if table is not None:
        payload["direct"] = {"xi_e": table.xi_e, "z": table.z,
                             "n_rows": len(table.rows)}
    if fit is not None:
        payload["fit"] = {
            "p_sigma": fit.p_sigma,
            "p_zz": fit.p_zz,
            "stderr_p_sigma": fit.stderr_p_sigma,
            "stderr_p_zz": fit.stderr_p_zz,
            "covariance": np.asarray(fit.covariance).tolist(),
            "alpha": fit.alpha,
            "beta": fit.beta,
            "cov_alpha_beta": np.asarray(fit.cov_alpha_beta).tolist(),
            "chi2": fit.chi2,
            "dof": fit.dof,
            "chi2_per_dof": fit.chi2_per_dof,
            "n_points": fit.n_points,
            "dropped": list(fit.dropped),
        }
    if xi is not None:
        payload["xi_indirect"] = asdict(xi)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Planner curves.

PD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
PZZ_GRID = tuple(float(v) for v in np.geomspace(0.001, 0.2, 60))


def report_tables(budget: float, min_expected: float,
                  p_sigmas: Iterable[float]
                  ) -> List[Tuple[str, Tuple[str, ...], list]]:
    """``csmg report``'s tables, each (file name, columns, rows).

    Every row is computed here, tomography first, then reach, then xi, so
    a bad argument raises before any table is written.
    """
    tomography = [(p_d, naive_tomography_K(p_d, budget)) for p_d in PD_GRID]
    reach = [(p_d, *(max_direct_length(family, p_d, budget,
                                       min_expected=min_expected)
                     for family in FAMILIES))
             for p_d in PD_GRID]
    xi = []
    for p_sigma in p_sigmas:
        for p_zz in PZZ_GRID:
            est = xi_from_rates(p_sigma, p_zz)
            xi.append((p_sigma, p_zz, est.continuous, est.grid))
    return [("tomography_baseline.csv", ("p_d", "K"), tomography),
            ("direct_reach.csv", ("p_d", "l_max_gamma1", "l_max_gamma2"),
             reach),
            ("xi_curve.csv", ("p_sigma", "p_zz", "xi_continuous", "xi_grid"),
             xi)]
