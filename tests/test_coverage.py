"""Estimator coverage at long haul, where the statistics are thin.

A Monte Carlo in the style of acceptance criterion 5, at 280 km with a
pulse budget small enough that the single-photon bracket is vacuous in
about a fifth of the trials and the phase error saturates in most.  The
trials are estimated as one batch, so a batch that mixes certified,
vacuous and saturated rows goes through the estimator at once.
"""

import math

import numpy as np

from qds_onedecoy.channel import (
    BASES,
    INTENSITIES,
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    background_yield,
    total_efficiency,
)
from qds_onedecoy.finite_key import EpsilonBudget, estimate_counts


def test_long_haul_coverage_with_vacuous_trials():
    pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85, n_pulses=1.4e10)
    ch = ChannelParams(distance_km=280.0)
    eps_pe = 1e-2  # loose enough that a miss would actually show up
    eta, y0 = total_efficiency(ch), background_yield(ch)
    ns = np.arange(26)
    survive = (1.0 - eta) ** ns
    yields = 1.0 - (1.0 - y0) * survive
    err_rates = (0.5 * y0 * survive + ch.misalignment * (1.0 - survive)) / yields
    rng = np.random.default_rng(20261018)
    trials = 2000
    cells = np.zeros((2, 2, 2, trials))
    true_s1_z = np.zeros(trials, dtype=np.int64)
    # each cell's settings, read from the config's fields
    cell_intensities = {"mu": (pc.mu, pc.p_mu), "nu": (pc.nu, 1.0 - pc.p_mu)}
    cell_bases = {"Z": (pc.p_z_tx, pc.p_z_rx), "X": (1.0 - pc.p_z_tx, 1.0 - pc.p_z_rx)}
    for b, basis in enumerate(BASES):
        p_tx, p_rx = cell_bases[basis]
        for i, intensity in enumerate(INTENSITIES):
            lam, p_int = cell_intensities[intensity]
            probs = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in ns])
            probs[-1] += 1.0 - probs.sum()
            pulses = int(pc.n_pulses * ch.duty_cycle * p_int * p_tx * p_rx)
            det = rng.binomial(rng.multinomial(pulses, probs, size=trials), yields)
            cells[b, i] = det.sum(axis=1), rng.binomial(det, err_rates).sum(axis=1)
            if basis == "Z":
                true_s1_z += det[:, 1]
    est = estimate_counts(ObservedCounts.from_cells(cells), pc, EpsilonBudget(eps_pe=eps_pe))
    # phase flips of the single-photon Z detections: a fresh Bernoulli draw
    # at the single-photon error rate, as in criterion 5
    proxy = rng.binomial(true_s1_z, err_rates[1]) / true_s1_z
    covered = (est.s_z1_lower <= true_s1_z) & (est.phi_z1_upper >= proxy)
    assert covered.mean() >= 1.0 - 10.0 * eps_pe
    assert est.vacuous.any()
    # and some trials certify a phase error below 1/2, which coverage tests
    assert (~est.saturated).any()
