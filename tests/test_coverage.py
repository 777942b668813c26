"""Coverage of the certified direct entanglement length.

A certified xi must be a bound: over many seeded runs, ``direct_bounds``
may report a xi above the exact-law truth in at most the upper 2.5%
binomial quantile of the seeds, about 4 of 40.  The truth is the largest
l whose exact template means (``predicted_template_mean``) give a
positive EoF.  Each run is scanned on the ``--lmax 50`` grid, in both
scan modes, so the independence the bound assumes stays measured for
overlapping (all) and disjoint (greedy) windows.  All runs are seeded,
so the counts are deterministic.
"""
import pytest

from csmg.analysis import (TwoQubitMoments, concurrence, direct_bounds,
                           eof_from_concurrence, predicted_template_mean)
from csmg.config import RunConfig
from csmg.stream import ExperimentConfig, simulate
from csmg.templates import certifiable_lengths, scan

SEEDS = range(1000, 1040)
MAX_OVER_CLAIMS = 4
TEMPLATES = RunConfig(l_max=50).templates()


def _exact_xi(p_sigma, p_zz):
    def mean(family, l):
        return predicted_template_mean(family, l, p_sigma, p_zz)

    return max((l for l in certifiable_lengths(50)
                if eof_from_concurrence(concurrence(TwoQubitMoments(
                    mean("Gamma1", l), mean("Gamma1", l),
                    mean("Gamma2", l)))) > 0.0),
               default=0)


@pytest.mark.parametrize("n_photons, p_d, p_sigma, p_zz, truth", [
    (2_000_000, 1.0, 0.02, 0.05, 8),     # where the max rule over-claimed 23/40
    (20_000, 1.0, 0.05, 0.1, 2),         # a small record, 22/40 under the max rule
    (2_000_000, 0.5, 0.005, 0.03, 20),   # lossy
])
def test_direct_xi_rarely_exceeds_the_exact_law(n_photons, p_d, p_sigma,
                                                p_zz, truth):
    assert _exact_xi(p_sigma, p_zz) == truth
    over = {"all": [], "greedy": []}
    for seed in SEEDS:
        record = simulate(ExperimentConfig(
            n_photons=n_photons, seed=seed, p_d=p_d, q_x=0.2, q_y=0.6,
            q_z=0.2, p_sigma=p_sigma, p_zz=p_zz, burn_in=100))
        for mode, seeds in over.items():
            xi = direct_bounds(scan(record, TEMPLATES, mode=mode)).xi_e
            if xi > truth:
                seeds.append((seed, xi))
    for mode, seeds in over.items():
        assert len(seeds) <= MAX_OVER_CLAIMS, (
            f"{mode} mode: {len(seeds)} of {len(SEEDS)} seeds certify a xi "
            f"above the truth {truth}: {seeds}")
