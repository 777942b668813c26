"""Bounds, error-model fitting, reach planning: checked against oracles."""
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from csmg.analysis import (
    ErrorModelFit,
    TwoQubitMoments,
    concurrence,
    direct_bounds,
    eof_from_concurrence,
    fit_error_model,
    instance_probability,
    max_direct_length,
    naive_tomography_K,
    predict_gamma,
    predicted_template_mean,
    rho_tilde_eigenvalues,
    splitter_settings,
    xi_e,
    xi_from_rates,
)
from csmg.templates import (
    CorrelatorEstimate,
    certifiable_lengths,
    make_template,
    slot_counts,
    template_id,
)

from helpers import entropy_of_entanglement, rho_from_moments, wootters_concurrence


def _physical_triples(rng, count):
    out = []
    while len(out) < count:
        a, b, c = rng.uniform(-1, 1, 3)
        eigs = [(1 + s1 * a + s2 * b + s1 * s2 * c) / 4
                for s1 in (1, -1) for s2 in (1, -1)]
        if min(eigs) >= 0:
            out.append((a, b, c))
    return out


# ---------------------------------------------------------------------------
# Spectrum, concurrence, entanglement of formation.


def test_eigenvalue_examples():
    assert np.allclose(rho_tilde_eigenvalues(TwoQubitMoments(1, 1, 1)),
                       [1, 0, 0, 0])
    assert np.allclose(rho_tilde_eigenvalues(TwoQubitMoments(0, 0, 0)),
                       [0.25] * 4)
    assert np.allclose(rho_tilde_eigenvalues(TwoQubitMoments(0.5, 0.5, 0.5)),
                       [0.625, 0.125, 0.125, 0.125])


def test_eigenvalues_match_dense_diagonalization():
    rng = np.random.default_rng(41)
    for a, b, c in _physical_triples(rng, 200):
        dense = np.linalg.eigvalsh(rho_from_moments(a, b, c))[::-1]
        assert np.allclose(rho_tilde_eigenvalues(TwoQubitMoments(a, b, c)),
                           dense, atol=1e-12)


def test_moments_reject_non_finite():
    # NaN passes the range check abs(mu) > 1, so it needs its own test
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 0.5, 0.5), (0.5, bad, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(ValueError, match="finite"):
                TwoQubitMoments(*args)

def test_concurrence_examples():
    assert concurrence(TwoQubitMoments(1, 1, 1)) == pytest.approx(1.0)
    third = 1 / 3
    assert concurrence(TwoQubitMoments(third, third, third)) == \
        pytest.approx(0.0, abs=1e-12)
    assert concurrence(TwoQubitMoments(0.6, 0.6, 0.6)) == pytest.approx(0.4)
    assert concurrence(TwoQubitMoments(0.2, 0.2, 0.2)) == 0.0


def test_concurrence_matches_spin_flip_oracle():
    rng = np.random.default_rng(42)
    for a, b, c in _physical_triples(rng, 1000):
        ours = concurrence(TwoQubitMoments(a, b, c))
        dense = wootters_concurrence(rho_from_moments(a, b, c))
        assert abs(ours - dense) < 1e-10


def test_moment_validation():
    with pytest.raises(ValueError):
        TwoQubitMoments(1.5, 0, 0)
    with pytest.raises(ValueError):
        TwoQubitMoments(0, -1.2, 0)


def test_unphysical_spectrum_is_clamped_not_rejected():
    # statistically possible: moments whose reconstructed spectrum dips
    # slightly negative; the pipeline clamps and renormalizes
    m = TwoQubitMoments(0.9, 0.9, -0.9)
    eigs = rho_tilde_eigenvalues(m)
    assert eigs[-1] < 0
    c = concurrence(m)
    assert 0.0 <= c <= 1.0
    assert eof_from_concurrence(c) >= 0.0


def test_eof_endpoints_and_formula():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == pytest.approx(1.0)
    for c in (0.1, 0.4, 0.6, 0.99):
        assert eof_from_concurrence(c) == \
            pytest.approx(entropy_of_entanglement(c), abs=1e-12)


def test_eof_is_finite_at_tiny_concurrence():
    # 1 - (1 + sqrt(1 - c^2)) / 2 rounds to 0 below c of about 2e-8; the
    # entropy of p = c^2 / 4 + O(c^4) is p log2(e / p) to first order
    for c in (1e-9, 1e-12, 2.2e-16):
        p = c * c / 4
        assert eof_from_concurrence(c) == \
            pytest.approx(p * math.log2(math.e / p), rel=1e-12, abs=0.0)
    assert eof_from_concurrence(1.0) == 1.0


def test_eof_monotone_in_concurrence():
    grid = np.linspace(0, 1, 200)
    vals = [eof_from_concurrence(c) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Direct bound tables.


def _estimate(family, l, count, signed):
    return CorrelatorEstimate(family=family, l=l, match_count=count,
                              signed_sum=signed, overlap_fraction=0.0)


def test_direct_bounds_perfect_correlations():
    ests = [_estimate("Gamma1", 2, 1000, 1000),
            _estimate("Gamma2", 2, 1000, 1000)]
    table = direct_bounds(ests)
    row = table.rows[0]
    assert row.l == 2
    assert row.mu_gamma1 == 1.0
    assert row.mu_gamma2 == 1.0
    assert row.eof_central == pytest.approx(1.0)
    # conservative haircut bites even at mean 1 because stderr = 0 there
    assert row.eof_conservative == pytest.approx(1.0)
    assert table.xi_e == 2


def test_direct_bounds_at_the_threshold():
    # mu = 1/3 in all three moments is exactly separable
    ests = [_estimate("Gamma1", 2, 3000, 1000),
            _estimate("Gamma2", 2, 3000, 1000)]
    table = direct_bounds(ests)
    row = table.rows[0]
    assert row.eof_central == pytest.approx(0.0, abs=1e-12)
    assert row.eof_conservative == 0.0
    assert table.xi_e == 0


def test_direct_bounds_conservative_below_central():
    ests = [_estimate("Gamma1", 2, 400, 320),
            _estimate("Gamma2", 2, 500, 380)]
    table = direct_bounds(ests, z=1.96)
    row = table.rows[0]
    assert 0.0 < row.eof_conservative < row.eof_central
    wider = direct_bounds(ests, z=5.0).rows[0]
    assert wider.eof_conservative < row.eof_conservative


def test_direct_bounds_rejects_negative_or_non_finite_z():
    ests = [_estimate("Gamma1", 8, 100, 60),
            _estimate("Gamma2", 8, 100, 40)]
    # a negative haircut would lift the conservative bound above the central one
    for z in (-3.0, -1e-12, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="z must be finite and >= 0"):
            direct_bounds(ests, z=z)
    row = direct_bounds(ests, z=0.0).rows[0]
    assert row.eof_conservative == row.eof_central


def test_direct_bounds_selects_largest_positive_l():
    ests = [_estimate("Gamma1", 2, 4000, 3600),
            _estimate("Gamma2", 2, 4000, 3400),
            _estimate("Gamma1", 5, 4000, 2600),
            _estimate("Gamma2", 5, 4000, 2400),
            _estimate("Gamma1", 8, 4000, 600),
            _estimate("Gamma2", 8, 4000, 500)]
    table = direct_bounds(ests)
    assert [row.l for row in table.rows] == [2, 5, 8]
    assert table.xi_e == 5
    assert all(row.method == "direct" for row in table.rows)
    # one family alone bounds nothing
    gamma1 = direct_bounds([e for e in ests if e.family == "Gamma1"])
    assert (gamma1.rows, gamma1.xi_e) == ((), 0)


# ---------------------------------------------------------------------------
# Decay predictions.


def test_predict_gamma_examples():
    assert predict_gamma("Gamma1", 8, 0.025, 0.0) == \
        pytest.approx((1 - 0.1 / 3) ** 8)
    assert predict_gamma("Gamma2", 8, 0.0, 0.01) == \
        pytest.approx(0.98 ** (16 / 3))
    assert predict_gamma("Gamma1", 2, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        predict_gamma("Gamma1", 2, 0.76, 0.0)
    with pytest.raises(ValueError):
        predict_gamma("Gamma1", 2, 0.0, 0.51)
    with pytest.raises(ValueError, match="unknown template family"):
        predict_gamma("Gamma3", 2, 0.0, 0.0)
    with pytest.raises(ValueError, match="separation 3 is not supported"):
        predict_gamma("Gamma2", 3, 0.0, 0.0)


def test_predicted_template_mean_uses_integer_exponents():
    for fam in ("Gamma1", "Gamma2"):
        for l in (2, 5, 8, 11):
            t = make_template(fam, l)
            got = predicted_template_mean(fam, l, 0.013, 0.021)
            want = ((1 - 4 * 0.013 / 3) ** len(t.required)
                    * (1 - 2 * 0.021) ** slot_counts(fam, l)[3])
            assert got == pytest.approx(want, rel=1e-14)


def test_predicted_template_mean_builds_no_template(monkeypatch):
    # the exponents are read from the family's form in O(1), so a mean at
    # l = 3 000 002 costs no more than one at l = 2
    import csmg
    import csmg.templates

    def refuse(family, l):
        raise AssertionError(f"built the {family} template at l = {l}")

    for module in (csmg, csmg.templates):
        monkeypatch.setattr(module, "make_template", refuse)
    assert predicted_template_mean("Gamma1", 3_000_002, 1e-8, 1e-8) == \
        0.9355068972099481


def test_asymptotic_and_exact_forms_disagree_at_finite_l():
    # the extrapolation form uses exponent 2l/3 for the pair channel; the
    # stream's exact exponent differs by a constant, so the two must not
    # be conflated
    exact = predicted_template_mean("Gamma2", 2, 0.0, 0.02)
    asym = predict_gamma("Gamma2", 2, 0.0, 0.02)
    assert exact == pytest.approx(0.96 ** 4)
    assert asym == pytest.approx(0.96 ** (4 / 3))
    assert abs(exact - asym) > 0.05


# ---------------------------------------------------------------------------
# Error-model fit.


@dataclass(frozen=True)
class _FakeEstimate:
    family: str
    l: int
    match_count: int
    mean: float
    stderr: float

    @property
    def template_id(self):
        return template_id(self.family, self.l)


def _exact_estimates(p_sigma, p_zz, ls=(2, 5, 8, 11)):
    out = []
    for fam in ("Gamma1", "Gamma2"):
        for l in ls:
            mu = predicted_template_mean(fam, l, p_sigma, p_zz)
            out.append(_FakeEstimate(family=fam, l=l, match_count=10 ** 12,
                                     mean=mu, stderr=0.0))
    return out


def test_fit_round_trips_exact_means():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p_sigma = float(rng.uniform(0, 0.05))
        p_zz = float(rng.uniform(0, 0.05))
        fit = fit_error_model(_exact_estimates(p_sigma, p_zz))
        assert abs(fit.p_sigma - p_sigma) < 1e-10
        assert abs(fit.p_zz - p_zz) < 1e-10
        assert fit.chi2 == pytest.approx(0.0, abs=1e-16)


def test_fit_recovers_with_noisy_points():
    rng = np.random.default_rng(44)
    p_sigma, p_zz = 0.004, 0.012
    ests = []
    for fam in ("Gamma1", "Gamma2"):
        for l in (2, 5, 8):
            mu = predicted_template_mean(fam, l, p_sigma, p_zz)
            n = 50000
            signed = int(round(n * (mu + rng.normal(0, 0.002))))
            ests.append(_estimate(fam, l, n, signed))
    fit = fit_error_model(ests)
    assert abs(fit.p_sigma - p_sigma) < 4 * fit.stderr_p_sigma + 1e-4
    assert abs(fit.p_zz - p_zz) < 4 * fit.stderr_p_zz + 1e-4
    assert fit.n_points == 6
    assert fit.dof == 4


def test_fit_drops_nonpositive_means_and_reports_them():
    ests = _exact_estimates(0.002, 0.01, ls=(2, 5, 8))
    dead = _FakeEstimate(family="Gamma2", l=11, match_count=7, mean=-1.0,
                         stderr=0.0)
    empty = _FakeEstimate(family="Gamma1", l=11, match_count=0,
                          mean=float("nan"), stderr=float("inf"))
    fit = fit_error_model(ests + [dead, empty])
    assert set(fit.dropped) == {"Gamma2(l=11)", "Gamma1(l=11)"}
    assert abs(fit.p_sigma - 0.002) < 1e-10


def test_fit_starved_exact_cell_cannot_dominate():
    # a 7-match cell whose matches all agreed carries finite weight
    ests = _exact_estimates(0.002, 0.01, ls=(2, 5, 8))
    starved = _FakeEstimate(family="Gamma2", l=11, match_count=7, mean=1.0,
                            stderr=0.0)
    fit = fit_error_model(ests + [starved])
    # the exact points still pin the answer despite the biased cell
    assert abs(fit.p_sigma - 0.002) < 5e-4
    assert abs(fit.p_zz - 0.01) < 5e-4


def test_fit_needs_three_separations():
    with pytest.raises(ValueError):
        fit_error_model(_exact_estimates(0.01, 0.01, ls=(2, 5)))


def test_fit_gamma2_alone_is_degenerate():
    ests = [e for e in _exact_estimates(0.01, 0.01) if e.family == "Gamma2"]
    with pytest.raises(ValueError, match="cannot separate"):
        fit_error_model(ests)


def test_fit_gamma1_alone_is_solvable():
    ests = [e for e in _exact_estimates(0.013, 0.017) if e.family == "Gamma1"]
    fit = fit_error_model(ests)
    assert abs(fit.p_sigma - 0.013) < 1e-10
    assert abs(fit.p_zz - 0.017) < 1e-10


def test_fit_clamps_rates_to_physical_domain():
    # upward-fluctuating means (> noiseless) drive raw rates negative
    ests = [_FakeEstimate(family="Gamma1", l=l, match_count=10 ** 9,
                          mean=min(1.0, 1.0 + 0.0), stderr=1e-6)
            for l in (2, 5, 8)]
    fit = fit_error_model(ests)
    assert fit.p_sigma == 0.0
    assert fit.p_zz == 0.0


# ---------------------------------------------------------------------------
# Entanglement-length extrapolation.


def test_xi_pinned_values():
    cases = [
        # pure pair error: continuous crossing is 3*ln3 / (2*(-ln(1-2p)))
        (0.0, 0.05, 3 * math.log(3) / (2 * -math.log(0.9)), 14),
        (0.0, 0.01, 81.57, 80),
        (0.002, 0.01, 71.58, 71),
    ]
    for p_sigma, p_zz, want_cont, want_grid in cases:
        est = xi_from_rates(p_sigma, p_zz)
        assert est.continuous == pytest.approx(want_cont, abs=0.01)
        assert est.grid == want_grid


def _rates_near_grid_crossings(l_max=599, ulps=4):
    # for each grid l, the p_zz at which the asymptotic law's exponent is
    # ln(1/3) exactly, and its float neighbours on either side
    out = []
    for p_sigma in (0.0, 0.001, 0.004):
        alpha = math.log1p(-4 * p_sigma / 3)
        for l in certifiable_lengths(l_max):
            beta = (math.log(1 / 3) - (2 * l + 8) / 3 * alpha) / (2 * l / 3)
            p_zz = -math.expm1(beta) / 2
            for towards in (0.0, 1.0):
                near = p_zz
                for _ in range(ulps):
                    near = float(np.nextafter(near, towards))
                    out.append((p_sigma, near))
            out.append((p_sigma, p_zz))
    return [(ps, pz) for ps, pz in out if 0.0 < pz <= 0.5]


def test_xi_grid_brackets_the_threshold():
    rng = np.random.default_rng(45)
    cases = [(float(rng.uniform(0, 0.02)), float(rng.uniform(0, 0.02)))
             for _ in range(50)]
    cases += _rates_near_grid_crossings()
    for p_sigma, p_zz in cases:
        if p_sigma == 0.0 and p_zz == 0.0:
            continue
        est = xi_from_rates(p_sigma, p_zz)
        grid = int(est.grid)
        if grid >= 2:
            assert grid % 3 == 2
            assert predict_gamma("Gamma1", grid, p_sigma, p_zz) > 1 / 3, \
                (p_sigma, p_zz, grid)
        follow = grid + 3 if grid >= 2 else 2
        assert predict_gamma("Gamma1", follow, p_sigma, p_zz) <= 1 / 3, \
            (p_sigma, p_zz, grid)


class _CallBudget:
    """Counts the calls of csmg.analysis.<name> and fails at once past the
    allowed number, so that a walk that never ends fails instead."""

    def __init__(self, monkeypatch, name):
        import csmg.analysis as analysis
        real = getattr(analysis, name)
        self.calls, self.limit = 0, 0

        def counting(*args):
            self.calls += 1
            assert self.calls <= self.limit, \
                f"more than {self.limit} calls of {name}"
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)

    def allow(self, limit):
        self.calls, self.limit = 0, limit


def test_xi_grid_search_is_logarithmic_at_tiny_rates(monkeypatch):
    budget = _CallBudget(monkeypatch, "_mu_asymptotic")
    budget.allow(300)
    assert xi_from_rates(0.0, 1e-22).grid == 8.239592165010822e+21
    budget.allow(300)
    assert xi_from_rates(0.0, 1e-12).grid == 823959216500.0
    # l of about 8e299 (2^996): a gallop and a bisection of ~1000 steps each
    budget.allow(2100)
    est = xi_from_rates(0.0, 1e-300)
    assert 0 < est.grid <= est.continuous


def test_xi_noiseless_is_unbounded():
    est = xi_from_rates(0.0, 0.0)
    assert math.isinf(est.continuous)
    assert math.isinf(est.grid)


@pytest.mark.parametrize("p_sigma, p_zz",
                         [(0.0, 1e-310), (0.0, 5e-324), (1e-310, 0.0)])
def test_xi_past_the_largest_double_is_unbounded(p_sigma, p_zz):
    # the crossing lies past the largest double, and so does the grid's;
    # the grid used to stop at 8.99e307, where 2.0 * l overflows
    est = xi_from_rates(p_sigma, p_zz)
    assert (est.continuous, est.grid) == (math.inf, math.inf)


def test_xi_decreases_with_noise():
    vals = [xi_from_rates(p, 0.005).continuous
            for p in (0.001, 0.002, 0.004, 0.008)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_xi_stderr_matches_finite_differences():
    fit = fit_error_model(_exact_estimates(0.002, 0.001))
    cov = np.array([[4e-8, 1e-9], [1e-9, 2.5e-8]])
    fit = ErrorModelFit(p_sigma=fit.p_sigma, p_zz=fit.p_zz,
                        covariance=fit.covariance, chi2=fit.chi2,
                        dof=fit.dof, alpha=fit.alpha, beta=fit.beta,
                        cov_alpha_beta=cov, n_points=fit.n_points)
    est = xi_e(fit)
    # numerical gradient of the continuous crossing in (alpha, beta)
    def crossing(alpha, beta):
        num = math.log(1 / 3) - (8 / 3) * alpha
        return num / ((2 / 3) * (alpha + beta))
    a0, b0 = fit.alpha, fit.beta
    h = 1e-8
    da = (crossing(a0 + h, b0) - crossing(a0 - h, b0)) / (2 * h)
    db = (crossing(a0, b0 + h) - crossing(a0, b0 - h)) / (2 * h)
    grad = np.array([da, db])
    want = math.sqrt(grad @ cov @ grad)
    assert est.stderr_continuous == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# Planning helpers.


def test_naive_tomography_pinned_values():
    assert naive_tomography_K(0.1, 1e10) == 6
    assert naive_tomography_K(0.5, 1e10) == 11
    assert naive_tomography_K(0.9, 1e10) == 15


def test_naive_tomography_cost_brackets_budget():
    rng = np.random.default_rng(46)
    for _ in range(200):
        p_d = float(rng.uniform(0.05, 0.99))
        budget = float(10 ** rng.uniform(3, 14))
        k = naive_tomography_K(p_d, budget)
        if k >= 1:
            assert 4.0 ** k / p_d ** k <= budget
        assert 4.0 ** (k + 1) / p_d ** (k + 1) > budget


def test_naive_tomography_takes_the_largest_budget():
    # at the largest double the next cost overflows, and an overflowing
    # cost is past every finite budget
    assert naive_tomography_K(1.0, sys.float_info.max) == 511
    assert naive_tomography_K(0.05, sys.float_info.max) == 161
    assert naive_tomography_K(1.0, 2.0 ** 1022) == 511
    assert naive_tomography_K(1.0, math.nextafter(2.0 ** 1022, 0.0)) == 510
    assert naive_tomography_K(5e-324, sys.float_info.max) == 0


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_planners_reject_non_finite_budgets(budget):
    with pytest.raises(ValueError, match="n_budget must be finite"):
        naive_tomography_K(0.5, budget)
    for family in ("Gamma1", "Gamma2"):
        with pytest.raises(ValueError, match="n_budget must be finite"):
            max_direct_length(family, 0.5, budget)


@pytest.mark.parametrize("budget", [1e12, 1e13, 1e20])
def test_max_direct_length_has_no_cap(budget):
    # at p_d = 1 Gamma1's probability falls only as about 1/l^2, so the
    # reach grows as the square root of the budget, past any fixed cap
    reach = max_direct_length("Gamma1", 1.0, budget)

    def expected(l):
        return instance_probability(
            "Gamma1", l, 1.0, *splitter_settings("Gamma1", l)) * budget

    assert expected(reach) >= 1.0
    assert expected(reach + 3) < 1.0


def test_optimal_pp_and_splitter_settings():
    q_x, q_y, q_z = splitter_settings("Gamma1", 8)
    assert q_x == 0.0
    assert q_y == pytest.approx(0.75)
    assert q_z == pytest.approx(0.25)
    q_x, q_y, q_z = splitter_settings("Gamma2", 8)
    assert q_y == pytest.approx(0.5)
    assert q_x == pytest.approx(0.25)
    assert q_z == pytest.approx(0.25)
    assert q_x + q_y + q_z == pytest.approx(1.0)


def test_instance_probability_example():
    # Gamma1(2) = Z Y Y Z at p_d = 1 with the balanced two-detector
    # splitter: (1/2)^4 = 1/16
    p = instance_probability("Gamma1", 2, 1.0,
                             *splitter_settings("Gamma1", 2))
    assert p == pytest.approx(1 / 16)
    assert instance_probability("Gamma1", 2, 1.0, 0.0, 0.5, 0.5) == \
        pytest.approx(1 / 16)


def test_compact_form_equals_general_product():
    # p_d^n_m * p_p^n_p * ((1-p_p)/a)^(n_m-n_p), with p_p = n_p/n_m and a
    # the number of other bases the family requires
    for fam, a in (("Gamma1", 1), ("Gamma2", 2)):
        for l in certifiable_lengths(50):
            for p_d in (0.3, 0.9):
                n_x, n_p, n_z, _ = slot_counts(fam, l)
                n_m = n_x + n_p + n_z
                p_p = n_p / n_m
                compact = (p_d ** n_m * p_p ** n_p
                           * ((1 - p_p) / a) ** (n_m - n_p))
                general = instance_probability(
                    fam, l, p_d, *splitter_settings(fam, l))
                assert general == pytest.approx(compact, rel=1e-12), (fam, l)


def test_optimal_pp_maximizes_instance_probability():
    # q drawn from the whole simplex, not only the splitter's own line
    rng = np.random.default_rng(47)
    for fam in ("Gamma1", "Gamma2"):
        for l in certifiable_lengths(50):
            best = instance_probability(fam, l, 0.6,
                                        *splitter_settings(fam, l))
            for q in rng.dirichlet(np.ones(3), size=50):
                q = [float(v) for v in q]
                assert instance_probability(fam, l, 0.6, *q) <= \
                    best * (1 + 1e-12), (fam, l, q)


def test_max_direct_length_pinned_ranges():
    assert max_direct_length("Gamma2", 0.1, 1e10) == 5
    assert max_direct_length("Gamma2", 0.5, 1e10) == 20
    assert max_direct_length("Gamma2", 0.9, 1e10) == 77
    assert max_direct_length("Gamma1", 0.1, 1e10) == 8
    assert max_direct_length("Gamma1", 0.5, 1e10) == 29
    assert max_direct_length("Gamma1", 0.9, 1e10) == 176


def test_max_direct_length_builds_few_templates(monkeypatch):
    # the reach is found by a search over the grid, not by counting every
    # l up to it; the count fails first where the walk is per l.  Every
    # probe reads its counts off the family's two base patterns (head +
    # tail and head + period + tail), so no longer pattern is ever counted
    import csmg.templates as templates
    counted = []
    real = templates._pattern_counts
    monkeypatch.setattr(templates, "_pattern_counts",
                        lambda pattern: counted.append(pattern)
                        or real(pattern))
    budget = _CallBudget(monkeypatch, "slot_counts")
    for family, n_budget, reach in (("Gamma1", 1e8, 11033),
                                    ("Gamma2", 1e8, 107),
                                    ("Gamma1", 1e10, 110360),
                                    ("Gamma2", 1e10, 347)):
        budget.allow(200)
        counted.clear()
        assert max_direct_length(family, 1.0, n_budget) == reach
        assert len(set(counted)) <= 2, (family, set(counted))
        assert max(map(len, counted)) <= 8


def test_max_direct_length_monotone_in_detection():
    grid = np.arange(0.05, 1.0, 0.05)
    reach = [max_direct_length("Gamma2", p, 1e10) for p in grid]
    assert all(b >= a for a, b in zip(reach, reach[1:]))
    assert max_direct_length("Gamma2", 0.5, 1e2) <= 2
