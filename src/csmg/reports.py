"""Plot-ready report tables: CSV and JSON emission with frozen schemas.

Column orders are part of the tool's external contract:

- estimates:  template,l,n_matches,signed_sum,mean,stderr,overlap_fraction
- bounds:     l,mu_gamma1,mu_gamma2,eof_central,eof_conservative,clamped,method
- tomography: p_d,K
- reach:      p_d,l_max_gamma1,l_max_gamma2
- xi curve:   p_sigma,p_zz,xi_continuous,xi_grid
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import (ErrorModelFit, LEBoundTable, XiEstimate,
                       max_direct_length, naive_tomography_K, xi_from_rates)
from .templates import FAMILIES, CorrelatorEstimate, template_id

ESTIMATE_COLUMNS = ("template", "l", "n_matches", "signed_sum", "mean",
                    "stderr", "overlap_fraction")
BOUND_COLUMNS = ("l", "mu_gamma1", "mu_gamma2", "eof_central",
                 "eof_conservative", "clamped", "method")
TOMOGRAPHY_COLUMNS = ("p_d", "K")
REACH_COLUMNS = ("p_d", "l_max_gamma1", "l_max_gamma2")
XI_CURVE_COLUMNS = ("p_sigma", "p_zz", "xi_continuous", "xi_grid")


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
    seen = set()
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
            row_id = row[0]
            if row_id in seen:
                raise ValueError(f"{path}: repeated template in estimates "
                                 f"row {row}")
            seen.add(row_id)
            family = row_id.split("(", 1)[0]
            try:
                l = int(row[1])
                named = template_id(family, l)
                est = CorrelatorEstimate(
                    family=family,
                    l=l,
                    match_count=int(row[2]),
                    signed_sum=int(row[3]),
                    overlap_fraction=float(row[6]),
                )
            except ValueError as exc:
                raise ValueError(
                    f"{path}: {exc} in estimates row {row}") from None
            # the id names (family, l), so a repeated (family, l) repeats it
            problem = (f"template id that does not name l = {l}"
                       if row_id != named
                       else _estimate_problem(est))
            if problem:
                raise ValueError(f"{path}: {problem} in estimates row {row}")
            estimates.append(est)
    return estimates


def _estimate_problem(est: CorrelatorEstimate) -> str:
    """Why no scan could have produced est's counts, or "" if one could."""
    if est.match_count < 0:
        return "negative match count"
    if abs(est.signed_sum) > est.match_count:
        return "signed sum larger than the match count"
    # signed_sum = match_count - 2 * (number of -1 windows)
    if (est.match_count - est.signed_sum) % 2:
        return "signed sum and match count of different parity"
    if not math.isfinite(est.overlap_fraction):
        return "non-finite overlap fraction"
    if not 0.0 <= est.overlap_fraction <= 1.0:
        return "overlap fraction outside [0, 1]"
    return ""


def write_bounds_csv(path: str, table: LEBoundTable) -> None:
    _write_csv(path, BOUND_COLUMNS,
               ([row.l, row.mu_gamma1, row.mu_gamma2, row.eof_central,
                 row.eof_conservative, int(row.clamped), row.method]
                for row in table.rows))


def fit_to_dict(fit: ErrorModelFit) -> dict:
    return {
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


def write_summary_json(path: str, table: Optional[LEBoundTable] = None,
                       fit: Optional[ErrorModelFit] = None,
                       xi: Optional[XiEstimate] = None) -> None:
    payload: dict = {}
    if table is not None:
        payload["direct"] = {"xi_e": table.xi_e, "z": table.z,
                             "n_rows": len(table.rows)}
    if fit is not None:
        payload["fit"] = fit_to_dict(fit)
    if xi is not None:
        payload["xi_indirect"] = asdict(xi)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Planner curves.

def default_pd_grid() -> List[float]:
    return [round(0.05 * i, 2) for i in range(1, 20)]


def default_pzz_grid() -> List[float]:
    return [float(v) for v in np.geomspace(0.001, 0.2, 60)]


def tomography_rows(p_ds: Iterable[float],
                    n_budget: float) -> List[Tuple[float, int]]:
    return [(p_d, naive_tomography_K(p_d, n_budget)) for p_d in p_ds]


def write_tomography_csv(path: str, rows: Sequence[Tuple[float, int]]) -> None:
    _write_csv(path, TOMOGRAPHY_COLUMNS, rows)


def reach_rows(p_ds: Iterable[float], n_budget: float,
               min_expected: float = 1.0) -> List[Tuple[float, int, int]]:
    return [(p_d, *(max_direct_length(family, p_d, n_budget,
                                      min_expected=min_expected)
                    for family in FAMILIES))
            for p_d in p_ds]


def write_reach_csv(path: str, rows: Sequence[Tuple[float, int, int]]) -> None:
    _write_csv(path, REACH_COLUMNS, rows)


def xi_curve_rows(p_zzs: Iterable[float], p_sigmas: Iterable[float]
                  ) -> List[Tuple[float, float, float, float]]:
    rows = []
    for p_sigma in p_sigmas:
        for p_zz in p_zzs:
            xi = xi_from_rates(p_sigma, p_zz)
            rows.append((p_sigma, p_zz, xi.continuous, xi.grid))
    return rows


def write_xi_curve_csv(path: str,
                       rows: Sequence[Tuple[float, float, float, float]]
                       ) -> None:
    _write_csv(path, XI_CURVE_COLUMNS, rows)
