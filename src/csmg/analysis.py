"""Entanglement bounds, error-model fitting, and experiment planning.

Takes correlator estimates produced by the scanner and turns them into
statements about the source: certified lower bounds on the entanglement
localizable between photon pairs (via two-qubit entanglement of
formation), fitted per-photon error rates, and the extrapolated
entanglement length.  Also contains the budget calculators that compare
the passive template scheme against brute-force tomography.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .stream import check_probability, check_splitter
from .templates import (CorrelatorEstimate, _checked, check_each_once,
                        slot_counts)

_THIRD = 1.0 / 3.0


def _last_on_grid(holds: Callable[[int], bool]) -> int:
    """Largest l = 2 (mod 3) at which holds(l) is true.

    holds must be true up to some l and false beyond it, as a bar on a
    quantity that falls with l is.  Gallops up from l = 2, then bisects,
    so holds is called O(log l) times.  0 when holds(2) is false.  l has
    no cap, so holds must turn false at some finite l: a probability or a
    mean that falls with l reaches 0 in floating point.
    """
    if not holds(2):
        return 0
    lo, hi = 0, 1                   # grid indices k of l = 3k + 2
    while holds(3 * hi + 2):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(3 * mid + 2) else (lo, mid)
    return 3 * lo + 2


# ---------------------------------------------------------------------------
# Two-qubit state reconstruction and entanglement measures.

@dataclass(frozen=True)
class TwoQubitMoments:
    """The three correlators fixing the reconstructed endpoint-pair state.

    mu_yz and mu_zy come from the two shifts of the same two-basis
    template; mu_xx from the three-basis one.  The state they define is
    diagonal in a maximally entangled basis, so its spectrum and
    entanglement have closed forms.  Fields may be arrays of one shape.
    """

    mu_yz: float
    mu_zy: float
    mu_xx: float

    def __post_init__(self) -> None:
        for name in ("mu_yz", "mu_zy", "mu_xx"):
            value = getattr(self, name)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
            if (np.abs(value) > 1.0 + 1e-9).any():
                raise ValueError(f"{name} must lie in [-1, 1]")


def rho_tilde_eigenvalues(m: TwoQubitMoments) -> np.ndarray:
    """Spectrum (1 + s1*mu_yz + s2*mu_zy + s1*s2*mu_xx)/4, descending.

    The three correlator operators commute pairwise and the third is the
    product of the first two, so joint signs are (s1, s2, s1*s2).  The
    spectrum runs along the last axis.  Statistical estimates may produce
    small negative values; callers clamp with a tolerance, not reject.
    """
    eigs = [(1.0 + s1 * m.mu_yz + s2 * m.mu_zy + s1 * s2 * m.mu_xx) / 4.0
            for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]
    return np.sort(np.stack(eigs, axis=-1), axis=-1)[..., ::-1]


# a spectrum entry below -_CLAMP_TOL is more than rounding: the moments
# describe no state, and the bound row says so
_CLAMP_TOL = 1e-9


def concurrence(m: TwoQubitMoments) -> np.ndarray:
    """max(0, 2*lambda_max - 1) on the clamped, renormalized spectrum."""
    eigs = np.clip(rho_tilde_eigenvalues(m), 0.0, None)
    return np.maximum(0.0, 2.0 * (eigs[..., 0] / eigs.sum(axis=-1)) - 1.0)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation in bits from the concurrence.

    The binary entropy of p = (1 - sqrt(1 - c^2)) / 2 (Wootters 1998),
    with p computed as c^2 / (2 (1 + sqrt(1 - c^2))), which does not
    cancel, and 0 log 0 = 0.  So any c in [0, 1] has a finite value: 0 at
    c = 0, 1 at c = 1, and about p log2(e / p) at small c.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("concurrence must lie in [0, 1]")
    p = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    if p == 0.0:
        return 0.0
    return (-p * math.log(p) - (1.0 - p) * math.log1p(-p)) / math.log(2.0)


# ---------------------------------------------------------------------------
# Direct bounds from measured correlators.

@dataclass(frozen=True)
class LEBoundRow:
    l: int
    mu_gamma1: float
    mu_gamma2: float
    eof_central: float
    eof_conservative: float
    clamped: bool
    method: str = "direct"


@dataclass(frozen=True)
class LEBoundTable:
    rows: Tuple[LEBoundRow, ...]
    xi_e: int
    z: float


def _cells(n1: np.ndarray, s1: np.ndarray, n2: np.ndarray, s2: np.ndarray,
           z: float) -> Tuple[TwoQubitMoments, TwoQubitMoments, np.ndarray]:
    """The per-cell rule on (match count, signed sum) arrays of one shape,
    counts > 0: central moments (s1/n1, s1/n1, s2/n2), conservative ones
    with each mean m lowered by z*sqrt(max(0, 1 - m*m)/n) and clipped to
    [-1, 1], and whether either spectrum dips below -_CLAMP_TOL."""
    m1, m2 = s1 / n1, s2 / n2
    lo1, lo2 = (np.clip(m - z * np.sqrt(np.maximum(0.0, 1.0 - m * m) / n),
                        -1.0, 1.0) for m, n in ((m1, n1), (m2, n2)))
    central, cons = TwoQubitMoments(m1, m1, m2), TwoQubitMoments(lo1, lo1, lo2)
    low = [rho_tilde_eigenvalues(m)[..., -1] for m in (central, cons)]
    return central, cons, np.minimum(*low) < -_CLAMP_TOL


def direct_bounds(estimates: Sequence[CorrelatorEstimate],
                  z: float = 1.96) -> LEBoundTable:
    """Per-separation lower bounds on localizable entanglement.

    For each l where both families have at least one match, sets mu_yz =
    mu_zy = mean of the two-basis template and mu_xx = mean of the
    three-basis one, then reports the central bound and a conservative
    one with every moment lowered by z standard errors (clamped to
    [-1, 1]), by one _cells call for all rows.  xi_e is the end of a
    fixed-sequence walk up the l of the estimates: the last l of the
    leading run whose conservative bound is positive, where an l that
    lacks a match in either family ends the run (0 if none).  An order
    fixed before the data are seen keeps the family-wise error at the
    per-l rate.  A negative or non-finite z would raise the bound
    instead, so it is rejected, and so is a template given twice.
    """
    if not (math.isfinite(z) and z >= 0.0):
        raise ValueError(f"z must be finite and >= 0, got {z}")
    check_each_once(estimates)
    by_l: Dict[int, Dict[str, Tuple[int, int]]] = {}
    for e in estimates:
        by_l.setdefault(e.l, {})[e.family] = e.match_count, e.signed_sum
    candidates = sorted(by_l)
    # (n1, s1, n2, s2) for each l; a missing family has no match
    counts = np.array([by_l[l].get("Gamma1", (0, 0))
                       + by_l[l].get("Gamma2", (0, 0)) for l in candidates],
                      dtype=float).reshape(-1, 4)
    full = (counts[:, 0] > 0) & (counts[:, 2] > 0)
    central, cons, clamped = _cells(*counts[full].T, z)
    rows = tuple(
        LEBoundRow(l=l, mu_gamma1=mu1, mu_gamma2=mu2,
                   eof_central=eof_from_concurrence(c),
                   eof_conservative=eof_from_concurrence(c_cons), clamped=f)
        for l, mu1, mu2, c, c_cons, f in zip(
            np.compress(full, candidates).tolist(), central.mu_yz.tolist(),
            central.mu_xx.tolist(), concurrence(central).tolist(),
            concurrence(cons).tolist(), clamped.tolist()))
    passes = np.zeros(len(candidates), dtype=bool)
    passes[full] = [row.eof_conservative > 0.0 for row in rows]
    run = int(np.cumprod(passes).sum())
    return LEBoundTable(rows, candidates[run - 1] if run else 0, z)


# ---------------------------------------------------------------------------
# Decay-law predictors.

def _log_rates(p_sigma: float, p_zz: float) -> Tuple[float, float]:
    """(alpha, beta) = (ln(1 - 4*p_sigma/3), ln(1 - 2*p_zz)); -inf at the
    domain edges, where a factor vanishes."""
    if not 0.0 <= p_sigma <= 0.75:
        raise ValueError("p_sigma must lie in [0, 3/4]")
    if not 0.0 <= p_zz <= 0.5:
        raise ValueError("p_zz must lie in [0, 1/2]")
    alpha = math.log1p(-4.0 * p_sigma / 3.0) if p_sigma < 0.75 else -math.inf
    beta = math.log1p(-2.0 * p_zz) if p_zz < 0.5 else -math.inf
    return alpha, beta


def _mu_asymptotic(l: float, alpha: float, beta: float) -> float:
    return math.exp((2.0 * l + 8.0) / 3.0 * alpha + 2.0 * l / 3.0 * beta)


def predict_gamma(family: str, l: int, p_sigma: float,
                  p_zz: float) -> float:
    """Asymptotic decay of a template mean with the two error rates.

    (1 - 4*p_sigma/3)^n_m * (1 - 2*p_zz)^(2l/3), with n_m = (2l+8)/3
    for both families.  The single-Pauli factor is exact (one
    factor per measured photon); the pair-error exponent 2l/3 is the
    large-l rate of flip-sensitive slot boundaries, not the per-template
    integer count, so this is an extrapolation formula rather than an
    exact finite-l law (see predicted_template_mean for the exact one).
    It is the law xi_from_rates thresholds, evaluated by the same code.
    """
    _checked(family, l)
    return _mu_asymptotic(l, *_log_rates(p_sigma, p_zz))


def predicted_template_mean(family: str, l: int, p_sigma: float,
                            p_zz: float) -> float:
    """Exact expected mean of the family's template at l under the
    stream's noise law.

    Every measured photon contributes (1 - 4*p_sigma/3); every adjacent
    emission pair whose Z*Z error flips the window product contributes
    (1 - 2*p_zz).  Both exponents are integers, read from
    ``slot_counts(family, l)`` in O(1), so no template is built.
    """
    check_probability("p_sigma", p_sigma)
    check_probability("p_zz", p_zz)
    n_x, n_y, n_z, flips = slot_counts(family, l)
    return ((1.0 - 4.0 * p_sigma / 3.0) ** (n_x + n_y + n_z)
            * (1.0 - 2.0 * p_zz) ** flips)


# ---------------------------------------------------------------------------
# Error-model fitting.

@dataclass(frozen=True)
class ErrorModelFit:
    """Weighted least-squares recovery of the two error rates.

    alpha = ln(1 - 4*p_sigma/3) and beta = ln(1 - 2*p_zz) are the
    regression parameters; ``covariance`` is the 2x2 covariance of
    (p_sigma, p_zz), ``cov_alpha_beta`` of (alpha, beta).  Rates are
    clamped into their physical domains; alpha and beta stay raw.
    """

    p_sigma: float
    p_zz: float
    covariance: np.ndarray
    chi2: float
    dof: int
    alpha: float
    beta: float
    cov_alpha_beta: np.ndarray
    n_points: int
    dropped: Tuple[str, ...] = ()

    @property
    def stderr_p_sigma(self) -> float:
        return math.sqrt(max(0.0, float(self.covariance[0, 0])))

    @property
    def stderr_p_zz(self) -> float:
        return math.sqrt(max(0.0, float(self.covariance[1, 1])))

    @property
    def chi2_per_dof(self) -> float:
        return self.chi2 / self.dof if self.dof > 0 else math.inf


def fit_error_model(estimates: Sequence[CorrelatorEstimate]) -> ErrorModelFit:
    """Fit ln(mean) = n_m*alpha + flip_pairs*beta by weighted LS.

    The regressors are the exact integer exponents of the two decay
    channels, so the fit is linear and the estimator is consistent on
    simulated streams.  Points with non-positive means are dropped and
    recorded.  Weights are (stderr/mean) per point; a point whose
    matches all agreed (stderr 0) gets the sigma of its mean shrunk by
    one pseudo-count, so a starved cell cannot claim infinite weight.
    Needs >= 3 distinct separations and a rank-2 design; the
    three-basis family alone cannot separate the two channels (its two
    exponents coincide), so include the two-basis one.  A template given
    twice would count as two independent points, so it is rejected.
    """
    check_each_once(estimates)
    xs: List[Tuple[float, float]] = []
    ys: List[float] = []
    sigmas: List[float] = []
    used_ls = set()
    dropped: List[str] = []
    for est in estimates:
        if est.match_count == 0 or not est.mean > 0.0:
            dropped.append(est.template_id)
            continue
        n_x, n_y, n_z, flips = slot_counts(est.family, est.l)
        xs.append((float(n_x + n_y + n_z), float(flips)))
        ys.append(math.log(est.mean))
        sigma = est.stderr / est.mean
        if sigma <= 0.0:
            shrunk = est.mean * est.match_count / (est.match_count + 1.0)
            sigma = (math.sqrt((1.0 - shrunk ** 2) / est.match_count)
                     / est.mean)
        sigmas.append(sigma)
        used_ls.add(est.l)
    if len(used_ls) < 3:
        raise ValueError(
            "need estimates at >= 3 distinct separations with positive means")
    design = np.asarray(xs)
    y = np.asarray(ys)
    sig = np.asarray(sigmas)
    xw = design / sig[:, None]
    yw = y / sig
    if np.linalg.matrix_rank(xw) < 2:
        raise ValueError(
            "degenerate design: the supplied templates cannot separate the "
            "single-Pauli and pair-error channels")
    sol, _, _, _ = np.linalg.lstsq(xw, yw, rcond=None)
    alpha, beta = float(sol[0]), float(sol[1])
    resid = yw - xw @ sol
    chi2 = float(resid @ resid)
    dof = y.shape[0] - 2
    cov_ab = np.linalg.inv(xw.T @ xw)
    p_sigma = min(0.75, max(0.0, 0.75 * (1.0 - math.exp(alpha))))
    p_zz = min(0.5, max(0.0, 0.5 * (1.0 - math.exp(beta))))
    jac = np.diag([-0.75 * math.exp(alpha), -0.5 * math.exp(beta)])
    cov = jac @ cov_ab @ jac.T
    return ErrorModelFit(p_sigma=p_sigma, p_zz=p_zz, covariance=cov,
                         chi2=chi2, dof=dof, alpha=alpha, beta=beta,
                         cov_alpha_beta=cov_ab, n_points=y.shape[0],
                         dropped=tuple(dropped))


# ---------------------------------------------------------------------------
# Entanglement-length extrapolation.

@dataclass(frozen=True)
class XiEstimate:
    """Extrapolated entanglement length.

    ``continuous`` solves mean(l) = 1/3 over real l; ``grid`` is the
    largest supported separation whose predicted mean still exceeds 1/3
    (integer-valued, 0 when none qualifies).  Both are +inf when both
    error rates vanish, and when the crossing lies past the largest double.
    """

    continuous: float
    grid: float
    stderr_continuous: Optional[float] = None
    method: str = "indirect"


def xi_from_rates(p_sigma: float, p_zz: float) -> XiEstimate:
    """Entanglement length from known rates via the asymptotic decay law.

    The continuous root solves (2l+8)/3 * alpha + 2l/3 * beta = ln(1/3),
    clamped at 0 when even l = 0 is below threshold.  The grid value is
    the largest l at which predict_gamma's law still exceeds 1/3, found
    by _last_on_grid, which needs no cap on l: xi grows without bound as
    the rates shrink.  Where the continuous root is past the largest
    double, both values are inf.
    """
    alpha, beta = _log_rates(p_sigma, p_zz)
    if p_sigma == 0.0 and p_zz == 0.0:
        return XiEstimate(continuous=math.inf, grid=math.inf)
    continuous = _continuous_crossing(alpha, beta)
    if math.isinf(continuous):
        # so is the grid point; the search would stop where 2.0 * l overflows
        return XiEstimate(continuous=math.inf, grid=math.inf)
    grid = _last_on_grid(lambda l: _mu_asymptotic(l, alpha, beta) > _THIRD)
    return XiEstimate(continuous=continuous, grid=float(grid))


def _crossing_terms(alpha: float, beta: float) -> Tuple[float, float]:
    """Numerator and denominator of the continuous crossing l*."""
    return (math.log(_THIRD) - (8.0 / 3.0) * alpha,
            (2.0 / 3.0) * (alpha + beta))


def _continuous_crossing(alpha: float, beta: float) -> float:
    if math.isinf(alpha) or math.isinf(beta):
        return 0.0
    numer, denom = _crossing_terms(alpha, beta)
    return max(0.0, numer / denom)


def xi_e(fit: ErrorModelFit) -> XiEstimate:
    """Entanglement length from a fit, with propagated uncertainty.

    The standard error of the continuous crossing comes from the delta
    method on (alpha, beta) using the fit covariance.
    """
    base = xi_from_rates(fit.p_sigma, fit.p_zz)
    if not math.isfinite(base.continuous) or base.continuous == 0.0:
        return base
    numer, denom = _crossing_terms(*_log_rates(fit.p_sigma, fit.p_zz))
    d_alpha = (-8.0 / 3.0) / denom - numer * (2.0 / 3.0) / denom ** 2
    d_beta = -numer * (2.0 / 3.0) / denom ** 2
    grad = np.array([d_alpha, d_beta])
    var = float(grad @ fit.cov_alpha_beta @ grad)
    return XiEstimate(continuous=base.continuous, grid=base.grid,
                      stderr_continuous=math.sqrt(max(0.0, var)))


# ---------------------------------------------------------------------------
# Planning: tomography baseline and template reach.

def _check_budget(n_budget: float) -> None:
    if not (math.isfinite(n_budget) and n_budget >= 1.0):
        raise ValueError(f"n_budget must be finite and >= 1, got {n_budget}")


def naive_tomography_K(p_d: float, n_budget: float) -> int:
    """Largest window size K with full-tomography cost 2^(2K)/p_d^K <= budget.

    The cost is (4/p_d)^K, searched upward from K = 0.  A cost that
    overflows a double is past every finite budget, so any finite budget
    of at least 1 is taken: at the largest double K is 511 at p_d = 1.
    """
    if not 0.0 < p_d <= 1.0:
        raise ValueError("p_d must lie in (0, 1]")
    _check_budget(n_budget)
    ratio = 4.0 / p_d
    k = 0
    try:
        while ratio ** (k + 1) <= n_budget:
            k += 1
    except OverflowError:
        pass
    return k


def splitter_settings(family: str, l: int) -> Tuple[float, float, float]:
    """(q_x, q_y, q_z) of the splitter that best feeds the template.

    The passive scheme sends each photon to one detector per basis, and
    the template fixes which bases it needs.  The Y share is p_p = n_Y /
    n_m, each of the a other bases the template requires gets
    (1 - p_p) / a, and a basis it never requires gets no detector: 0.
    """
    n_x, n_y, n_z, _ = slot_counts(family, l)
    p_p = n_y / (n_x + n_y + n_z)
    rest = (1.0 - p_p) / ((n_x > 0) + (n_z > 0))
    return (rest if n_x else 0.0, p_p, rest if n_z else 0.0)


def instance_probability(family: str, l: int, p_d: float, q_x: float,
                         q_y: float, q_z: float) -> float:
    """Per-offset probability that a window matches the template.

    Product over required slots of p_d times that slot's basis
    probability; free slots cost nothing.
    """
    n_x, n_y, n_z, _ = slot_counts(family, l)
    check_splitter(p_d, q_x, q_y, q_z)
    return (p_d ** (n_x + n_y + n_z)
            * q_x ** n_x * q_y ** n_y * q_z ** n_z)


def max_direct_length(family: str, p_d: float, n_budget: float, *,
                      min_expected: float = 1.0) -> int:
    """Largest separation with >= min_expected expected matches in budget.

    The budget is the number of emitted photons (window offsets); the
    expected match count at separation l is n_budget times the optimal
    per-offset probability, which falls with l, so _last_on_grid finds
    the reach in O(log l) probes, each of O(1) slot counts.  Any finite
    budget is searched in full: at p_d = 1 Gamma1's probability falls
    only as about 1/l^2, so its reach grows as the square root of the
    budget.  Returns 0 when even l = 2 is out of reach.  min_expected
    must be finite and > 0.
    """
    _check_budget(n_budget)
    if not min_expected > 0.0:  # NaN too
        raise ValueError("min_expected must be > 0")
    if math.isinf(min_expected):
        raise ValueError("min_expected must be finite")
    return _last_on_grid(
        lambda l: (instance_probability(family, l, p_d,
                                        *splitter_settings(family, l))
                   * n_budget >= min_expected))
