"""Decoy estimator tests.

The single-photon fixture is checked against values recomputed at high
precision from the closed-form expected counts, and against the true
photon-number-resolved detection numbers the channel model implies.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds_onedecoy.channel import BASES, ChannelParams, ObservedCounts, PulseConfig
from qds_onedecoy.finite_key import (
    BOUND_APPLICATIONS,
    EpsilonBudget,
    block_scale,
    estimate_counts,
    observed_error_upper,
    phase_error_upper,
)
from qds_onedecoy.stat_math import hoeffding_delta
from strategies import settings_in_space


def tau_n(n, pc):
    """Probability that a pulse of the two-intensity mix carries n photons,
    the oracle of the decoy factors' tau_0 and tau_1."""
    if n < 0:
        raise ValueError(f"photon number must be non-negative, got {n}")
    return (
        pc.p_mu * np.exp(-pc.mu) * pc.mu**n + (1.0 - pc.p_mu) * np.exp(-pc.nu) * pc.nu**n
    ) / math.factorial(n)


def make_pc(**kw):
    base = dict(mu=0.5, nu=0.25, p_mu=0.7, p_z_tx=0.8, p_z_rx=0.8, n_pulses=1e9)
    base.update(kw)
    return PulseConfig(**base)


def make_counts(**kw):
    base = dict(
        n_z_mu=0.0, m_z_mu=0.0, n_z_nu=0.0, m_z_nu=0.0,
        n_x_mu=0.0, m_x_mu=0.0, n_x_nu=0.0, m_x_nu=0.0,
    )
    base.update(kw)
    return ObservedCounts(**base)


class TestEpsilonBudget:
    def test_canonical_applications(self):
        assert len(set(BOUND_APPLICATIONS)) == len(BOUND_APPLICATIONS) == 10
        assert EpsilonBudget(eps_pe=1e-5).total == pytest.approx(1e-4)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            EpsilonBudget(eps_pe=0.0)
        with pytest.raises(ValueError):
            EpsilonBudget(eps_pe=1.1)


class TestTau:
    def test_known_values(self):
        pc = make_pc()
        # 0.7 e^-0.5 + 0.3 e^-0.25 and the n=1 analogue, high precision
        assert tau_n(0, pc) == pytest.approx(0.6582117, abs=1e-7)
        assert tau_n(1, pc) == pytest.approx(0.27069579, abs=1e-7)

    def test_normalised(self):
        pc = make_pc()
        assert sum(tau_n(n, pc) for n in range(60)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tau_n(-1, make_pc())


class TestScaledCountBounds:
    """The intensity-normalised cell bounds (e^lam / p_lam)(count -/+ delta)
    that ``estimate_counts`` applies, read through the X single-photon
    error bound: the signal error cell's upper bound less the decoy error
    cell's lower bound, times tau_1 / (mu - nu) (above 1 here), clamped to
    [0, normalised X error total]."""

    def test_no_fluctuation_collapses(self):
        # at eps = 1 delta is 0: the signal cell's bound is its scaled
        # count, which is also the ceiling v1 clamps to
        pc = make_pc()
        counts = make_counts(n_x_mu=4.2e6, m_x_mu=3.49126e6)
        v1 = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1.0)).v_x1_upper
        # e^0.5 / 0.7 * 3.49126e6, recomputed at high precision
        assert v1 == pytest.approx(8223020.891, abs=1.0)

    def test_ordering_and_floor(self):
        pc = make_pc()
        factor = tau_n(1, pc) / (pc.mu - pc.nu)
        # a decoy error count far below its deviation floors at zero, so v1
        # is the upper bound of the (empty) signal cell alone
        counts = make_counts(n_x_nu=1e6, m_x_nu=5.0)
        v1 = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1e-5)).v_x1_upper
        delta = hoeffding_delta(5.0, 1e-5)
        assert 5.0 < delta
        assert v1 == pytest.approx(factor * math.exp(pc.mu) / pc.p_mu * delta, rel=1e-12)
        # a wider deviation lowers the decoy bound and raises the signal one
        counts = make_counts(n_x_mu=1e6, m_x_mu=1e3, n_x_nu=1e6, m_x_nu=400.0)
        loose, tight = (estimate_counts(counts, pc, EpsilonBudget(eps)).v_x1_upper
                        for eps in (1e-5, 1e-2))
        assert 0.0 < tight < loose

    def test_rejects_count_above_total(self):
        # a basis total sums its cells, so a cell can exceed it only beside
        # a negative one, which counts reject before any bound is taken
        with pytest.raises(ValueError, match="0 <= m <= n"):
            make_counts(n_z_mu=10.0, n_z_nu=-5.0)


class TestVacuumUpper:
    """The vacuum bound 2 (m + delta(m, eps)) on a basis's background clicks,
    read as the Z basis's ``s_z0_upper``."""

    def vacuum(self, m_z, eps):
        counts = make_counts(n_z_mu=1e3, m_z_mu=m_z)
        return estimate_counts(counts, make_pc(), EpsilonBudget(eps_pe=eps)).s_z0_upper

    def test_no_fluctuation(self):
        assert self.vacuum(120.0, eps=1.0) == 240.0

    def test_grows_with_uncertainty(self):
        assert self.vacuum(120.0, 1e-5) > self.vacuum(120.0, 1e-2)

    def test_rejects_negative(self):
        # a negative error count is refused where counts enter
        with pytest.raises(ValueError, match="0 <= m <= n"):
            make_counts(n_z_mu=1e3, m_z_mu=-1.0)


class TestSinglePhotonLower:
    def expected_noise_free_counts(self, pc, eta):
        # closed-form: a lossy beamsplitter on Poisson light, no background
        q_mu = 1.0 - math.exp(-eta * pc.mu)
        q_nu = 1.0 - math.exp(-eta * pc.nu)
        return make_counts(
            n_z_mu=pc.n_pulses * pc.p_mu * q_mu,
            n_z_nu=pc.n_pulses * (1.0 - pc.p_mu) * q_nu,
        )

    def test_worked_example(self):
        # mu=0.5, nu=0.25, p_mu=0.7, eta=0.01, N=1e9, noise-free, eps=1;
        # bound and truth recomputed at high precision
        pc = make_pc()
        counts = self.expected_noise_free_counts(pc, eta=0.01)
        assert counts.n("Z", "mu") == pytest.approx(3491264.565, abs=1.0)
        assert counts.n("Z", "nu") == pytest.approx(749063.2808, abs=1.0)
        budget = EpsilonBudget(eps_pe=1.0)
        s1 = estimate_counts(counts, pc, budget).s_z1_lower
        assert s1 == pytest.approx(2491043.124, rel=1e-8)
        true_s1 = (
            pc.n_pulses
            * (pc.p_mu * pc.mu * math.exp(-pc.mu) + (1 - pc.p_mu) * pc.nu * math.exp(-pc.nu))
            * 0.01
        )
        assert true_s1 == pytest.approx(2706957.896, rel=1e-8)
        assert s1 <= true_s1

    def test_covers_truth_across_intensity_choices(self):
        for mu, nu in [(0.4, 0.1), (0.6, 0.2), (0.8, 0.3)]:
            pc = make_pc(mu=mu, nu=nu)
            counts = self.expected_noise_free_counts(pc, eta=0.02)
            s1 = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1.0)).s_z1_lower
            true_s1 = (
                pc.n_pulses
                * (pc.p_mu * mu * math.exp(-mu) + (1 - pc.p_mu) * nu * math.exp(-nu))
                * 0.02
            )
            assert 0.0 < s1 <= true_s1
            assert s1 > 0.75 * true_s1  # not uselessly loose either

    def test_fluctuations_only_lower_the_bound(self):
        pc = make_pc()
        counts = self.expected_noise_free_counts(pc, eta=0.01)
        point = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1.0)).s_z1_lower
        bounded = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1e-5)).s_z1_lower
        assert bounded < point

    def test_vacuous_statistics_return_zero_and_flag(self):
        pc = make_pc()
        counts = make_counts(n_z_mu=50, m_z_mu=5, n_z_nu=3, m_z_nu=1,
                             n_x_mu=1e6, m_x_mu=1e3, n_x_nu=5e5, m_x_nu=500)
        budget = EpsilonBudget(eps_pe=1e-5)
        est = estimate_counts(counts, pc, budget)
        assert est.s_z1_lower == 0.0
        assert est.s_x1_lower > 0.0
        assert est.vacuous

    def test_empty_basis_returns_zero(self):
        pc = make_pc()
        assert estimate_counts(make_counts(), pc, EpsilonBudget(eps_pe=0.5)).s_z1_lower == 0.0

    def test_requires_real_decoy(self):
        pc = make_pc(nu=0.0)
        counts = make_counts(n_z_mu=100.0)
        with pytest.raises(ValueError, match="needs a decoy intensity nu > 0"):
            estimate_counts(counts, pc, EpsilonBudget(eps_pe=0.5))


class TestSinglePhotonErrorUpper:
    def test_point_estimate(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e5, m_x_mu=500.0, n_x_nu=2e4, m_x_nu=100.0)
        v1 = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1.0)).v_x1_upper
        t1 = tau_n(1, pc)
        manual = t1 / (pc.mu - pc.nu) * (
            math.exp(pc.mu) / pc.p_mu * 500.0
            - math.exp(pc.nu) / (1 - pc.p_mu) * 100.0
        )
        assert v1 == pytest.approx(manual, rel=1e-12)

    def test_clamped_to_normalised_total(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e3, m_x_mu=3.0, n_x_nu=1e3, m_x_nu=0.0)
        v1 = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1e-10)).v_x1_upper
        ceiling = math.exp(pc.mu) / pc.p_mu * 3.0
        assert v1 <= ceiling + 1e-9

    def test_never_negative(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e4, m_x_mu=0.0, n_x_nu=1e4, m_x_nu=50.0)
        assert estimate_counts(counts, pc, EpsilonBudget(eps_pe=1.0)).v_x1_upper == 0.0


class TestPhaseErrorUpper:
    def test_requires_positive_samples(self):
        with pytest.raises(ValueError, match="requires s_x1 > 0"):
            phase_error_upper(0.0, 1.0, 100.0, 1e-5)
        with pytest.raises(ValueError, match="requires s_z1 > 0"):
            phase_error_upper(100.0, 1.0, 0.0, 1e-5)

    def test_zero_errors_floor_at_one_phantom(self):
        phi = phase_error_upper(1e5, 0.0, 1e5, 1e-10)
        base = phase_error_upper(1e5, 10.0, 1e5, 1e-10)
        assert 0.0 < phi < base

    def test_clamped_at_half(self):
        assert phase_error_upper(10.0, 9.0, 10.0, 1e-5) == 0.5
        assert phase_error_upper(0.5, 0.0, 100.0, 1e-5) == 0.5

    def test_subnormal_samples_clamp_without_overflow_warnings(self):
        # as arrays, the estimator's form: 1/s_x1 and the penalty's 1/(c d)
        # overflow to inf here, and a RuntimeWarning fails the test
        s_x1, v_x1, s_z1 = np.array([[1e-310, 1e-310, 1e5], [0.0, 1e-310, 10.0],
                                     [1e5, 1e5, 1e-310]])
        assert (phase_error_upper(s_x1, v_x1, s_z1, 1e-5) == 0.5).all()

    def test_more_data_tightens(self):
        small = phase_error_upper(1e4, 500.0, 1e4, 1e-10)
        large = phase_error_upper(1e6, 50000.0, 1e6, 1e-10)
        assert large < small


class TestObservedErrorUpper:
    def test_worst_link_wins(self):
        single = observed_error_upper([10.0], 1000, 50000, 1e-5)
        both = observed_error_upper([10.0, 30.0], 1000, 50000, 1e-5)
        assert both > single
        assert both == observed_error_upper([30.0], 1000, 50000, 1e-5)

    def test_validates_error_count(self):
        with pytest.raises(ValueError):
            observed_error_upper([1001.0], 1000, 50000, 1e-5)
        with pytest.raises(ValueError):
            observed_error_upper([-1.0], 1000, 50000, 1e-5)
        with pytest.raises(ValueError):
            observed_error_upper([], 1000, 50000, 1e-5)


class TestEstimateAndBlockScale:
    def healthy_counts(self):
        pc = make_pc(p_z_tx=0.7, p_z_rx=0.7, n_pulses=1e10)
        ch = ChannelParams(distance_km=30.0, misalignment=0.01)
        from qds_onedecoy.channel import expected_statistics

        return pc, expected_statistics(pc, ch)

    def test_healthy_pool_is_not_saturated(self):
        pc, counts = self.healthy_counts()
        est = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1e-5))
        assert not est.saturated
        assert not est.vacuous
        assert 0.0 < est.phi_z1_upper < 0.5
        assert est.s_z1_lower > 0.0

    def test_starved_pool_saturates_instead_of_raising(self):
        pc = make_pc()
        counts = make_counts(n_z_mu=40, m_z_mu=2, n_z_nu=10, m_z_nu=1,
                             n_x_mu=4, m_x_mu=0, n_x_nu=1, m_x_nu=0)
        est = estimate_counts(counts, pc, EpsilonBudget(eps_pe=1e-5))
        assert est.vacuous
        assert est.saturated
        assert est.phi_z1_upper == 0.5

    def test_block_scale_at_pool_size_is_identity(self):
        pc, counts = self.healthy_counts()
        budget = EpsilonBudget(eps_pe=1e-5)
        pool = counts.n_total("Z")
        whole = estimate_counts(counts, pc, budget)
        rescaled = block_scale(counts, pc, budget, L=int(pool), pool_size=int(pool))
        assert rescaled.s_z1_lower == pytest.approx(whole.s_z1_lower, rel=1e-6)
        assert rescaled.phi_z1_upper == pytest.approx(whole.phi_z1_upper, rel=1e-6)

    def test_shorter_blocks_pay_larger_penalties(self):
        pc, counts = self.healthy_counts()
        budget = EpsilonBudget(eps_pe=1e-5)
        pool = counts.n_total("Z")
        big = block_scale(counts, pc, budget, L=500000, pool_size=pool)
        small = block_scale(counts, pc, budget, L=50000, pool_size=pool)
        assert small.phi_z1_upper > big.phi_z1_upper
        # certified single-photon fraction of the block shrinks too
        assert small.s_z1_lower / 50000 < big.s_z1_lower / 500000

    def test_block_scale_validates_length(self):
        pc, counts = self.healthy_counts()
        budget = EpsilonBudget(eps_pe=1e-5)
        with pytest.raises(ValueError):
            block_scale(counts, pc, budget, L=0, pool_size=100.0)
        with pytest.raises(ValueError):
            block_scale(counts, pc, budget, L=200, pool_size=100.0)


#: Rows with which every branch of the estimator is taken under ``make_pc``
#: at eps_pe = 1e-5: an empty X basis, no X errors, a vacuous Z bracket and
#: a saturated phase error, each flagged as ``EDGE_FLAGS`` (vacuous, saturated).
EDGE_ROWS = [
    make_counts(n_z_mu=1e6, m_z_mu=1e3, n_z_nu=3e5, m_z_nu=300),
    make_counts(n_z_mu=1e6, m_z_mu=1e3, n_z_nu=3e5, m_z_nu=300, n_x_mu=1e5, n_x_nu=3e4),
    make_counts(n_z_mu=50, m_z_mu=5, n_z_nu=3, m_z_nu=1,
                n_x_mu=1e6, m_x_mu=1e3, n_x_nu=5e5, m_x_nu=500),
    make_counts(n_z_mu=1e6, m_z_mu=1e3, n_z_nu=3e5, m_z_nu=300,
                n_x_mu=1e5, m_x_mu=2e4, n_x_nu=3e4, m_x_nu=1e3),
]
EDGE_FLAGS = [(True, True), (False, False), (True, True), (False, True)]


def scaled_bounds(count, basis_total, intensity, pc, eps):
    """Lower and upper bound on the normalised count (e^lam / p_lam)(count -/+
    delta), delta the Hoeffding deviation of the basis total; the lower
    floored at zero."""
    lam, p_lam = (pc.mu, pc.p_mu) if intensity == "mu" else (pc.nu, 1.0 - pc.p_mu)
    scale = np.exp(lam) / p_lam
    delta = hoeffding_delta(basis_total, eps)
    return np.maximum(0.0, scale * (count - delta)), scale * (count + delta)


def vacuum_bound(m_basis_total, eps):
    """At most twice the basis's error count, background clicks being
    uncorrelated with the bit value: 2 (m + delta(m, eps))."""
    return 2.0 * (m_basis_total + hoeffding_delta(m_basis_total, eps))


def reference_single_photon_lower(counts, basis, pc, eps):
    """The decoy bound of one basis, written out cell by cell."""
    n_tot = counts.n_total(basis)
    nu_lower, _ = scaled_bounds(counts.n(basis, "nu"), n_tot, "nu", pc, eps)
    _, mu_upper = scaled_bounds(counts.n(basis, "mu"), n_tot, "mu", pc, eps)
    mu2, nu2 = pc.mu**2, pc.nu**2
    bracket = (nu_lower - nu2 / mu2 * mu_upper
               - (mu2 - nu2) / (mu2 * tau_n(0, pc)) * vacuum_bound(counts.m_total(basis), eps))
    s1 = tau_n(1, pc) * pc.mu / (pc.nu * (pc.mu - pc.nu)) * bracket
    return np.where(s1 > 0.0, np.minimum(s1, n_tot), 0.0)


def reference_error_upper(counts, pc, eps):
    """The X single-photon error bound, written out cell by cell."""
    m_tot = counts.m_total("X")
    _, m_mu_upper = scaled_bounds(counts.m("X", "mu"), m_tot, "mu", pc, eps)
    m_nu_lower, _ = scaled_bounds(counts.m("X", "nu"), m_tot, "nu", pc, eps)
    v1 = tau_n(1, pc) / (pc.mu - pc.nu) * (m_mu_upper - m_nu_lower)
    ceiling = (np.exp(pc.mu) / pc.p_mu * counts.m("X", "mu")
               + np.exp(pc.nu) / (1.0 - pc.p_mu) * counts.m("X", "nu"))
    return np.minimum(np.maximum(0.0, v1), ceiling)


def composed_estimates(counts, pc, budget):
    """``estimate_counts`` spelled with the cell-by-cell bounds."""
    eps = budget.eps_pe
    s_z1, s_x1 = (reference_single_photon_lower(counts, basis, pc, eps) for basis in BASES)
    v_x1 = reference_error_upper(counts, pc, eps)
    certified = (s_x1 > 0.0) & (s_z1 > 0.0)
    phi = np.where(certified, phase_error_upper(np.where(certified, s_x1, 1.0), v_x1,
                                                np.where(certified, s_z1, 1.0), eps), 0.5)
    return [s_z1, phi, vacuum_bound(counts.m_total("Z"), eps), s_x1, v_x1,
            phi >= 0.5, ~certified]


@st.composite
def count_rows(draw):
    """One set of counts: each cell up to 1e10 detections, its errors a
    share of them, and an X basis that may be empty or free of errors."""
    empty_x, no_x_errors = draw(st.booleans()), draw(st.booleans())
    values = []
    for cell in range(4):
        n = 0.0 if empty_x and cell >= 2 else draw(st.floats(0.0, 1e10))
        share = 0.0 if no_x_errors and cell >= 2 else draw(
            st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0))
        values += [n, n * share]
    return ObservedCounts(*values)


class TestOnePassEstimator:
    """``estimate_counts`` against the cell-by-cell bounds written out
    above from ``hoeffding_delta`` and the formulas, with ``==``."""

    def check(self, rows, pc, budget):
        # each row as one setting of a batch, as the solver stacks them
        counts = ObservedCounts.from_cells(np.stack([r.cells for r in rows], axis=3)[..., None])
        est = estimate_counts(counts, pc, budget)
        for field, expected in zip(fields(est), composed_estimates(counts, pc, budget)):
            assert np.array_equal(getattr(est, field.name), expected), field.name
        for row, r in enumerate(rows):
            alone = estimate_counts(r, pc, budget)
            for field in fields(est):
                assert getattr(alone, field.name) == getattr(est, field.name)[row, 0]
        return est

    def test_edge_rows_take_every_branch(self):
        est = self.check(EDGE_ROWS, make_pc(), EpsilonBudget(eps_pe=1e-5))
        assert list(zip(est.vacuous[:, 0], est.saturated[:, 0])) == EDGE_FLAGS

    @given(st.lists(count_rows(), min_size=1, max_size=5), settings_in_space,
           st.sampled_from([1e-10, 1e-5, 1e-2, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_helpers(self, rows, pc, eps_pe):
        self.check(rows + EDGE_ROWS, pc, EpsilonBudget(eps_pe=eps_pe))


def nan_calls():
    """(function, arguments, message) with one argument NaN, by function and argument."""
    counts = make_counts(n_z_mu=1e6, m_z_mu=1e4, n_z_nu=1e5, m_z_nu=1e3,
                         n_x_mu=1e5, m_x_mu=1e3, n_x_nu=1e4, m_x_nu=100.0)
    pc, budget = make_pc(), EpsilonBudget(eps_pe=1e-5)
    pool = float(counts.n_total("Z"))
    return {
        "phase_error_upper-s_x1": (phase_error_upper, (math.nan, 1.0, 100.0, 1e-5), "s_x1"),
        "phase_error_upper-s_z1": (phase_error_upper, (100.0, 1.0, math.nan, 1e-5), "s_z1"),
        "block_scale-L": (block_scale, (counts, pc, budget, math.nan, pool), "block length"),
        "block_scale-pool_size": (
            block_scale, (counts, pc, budget, 1000, math.nan), "pool size"),
    }


@pytest.mark.parametrize("name", nan_calls())
def test_nan_argument_is_rejected(name):
    fn, args, message = nan_calls()[name]
    with pytest.raises(ValueError, match=message):
        fn(*args)
