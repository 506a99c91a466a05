"""Decoy estimator tests.

The single-photon fixture is checked against values recomputed at high
precision from the closed-form expected counts, and against the true
photon-number-resolved detection numbers the channel model implies.
"""

import math

import pytest

from qds_onedecoy.channel import ChannelParams, ObservedCounts, PulseConfig
from qds_onedecoy.finite_key import (
    BOUND_APPLICATIONS,
    EpsilonBudget,
    EstimationError,
    block_scale,
    estimate_counts,
    observed_error_upper,
    phase_error_upper,
    scaled_count_bounds,
    single_photon_error_upper,
    single_photon_lower,
    tau_n,
    vacuum_upper,
)


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
    def test_no_fluctuation_collapses(self):
        pc = make_pc()
        lower, upper = scaled_count_bounds(3.49126e6, 4.2e6, "mu", pc, eps=1.0)
        assert lower == upper
        # e^0.5 / 0.7 * 3.49126e6, recomputed at high precision
        assert lower == pytest.approx(8223020.891, abs=1.0)

    def test_ordering_and_floor(self):
        pc = make_pc()
        lower, upper = scaled_count_bounds(100.0, 1e6, "nu", pc, eps=1e-5)
        assert 0.0 <= lower < upper
        # a count far below the deviation floors at zero
        lo, _ = scaled_count_bounds(1.0, 1e6, "nu", pc, eps=1e-5)
        assert lo == 0.0

    def test_rejects_count_above_total(self):
        with pytest.raises(ValueError):
            scaled_count_bounds(10.0, 5.0, "mu", make_pc(), eps=0.5)


class TestVacuumUpper:
    def test_no_fluctuation(self):
        assert vacuum_upper(120.0, eps=1.0) == 240.0

    def test_grows_with_uncertainty(self):
        assert vacuum_upper(120.0, 1e-5) > vacuum_upper(120.0, 1e-2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            vacuum_upper(-1.0, 0.5)


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
        s1 = single_photon_lower(counts, "Z", pc, budget)
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
            s1 = single_photon_lower(counts, "Z", pc, EpsilonBudget(eps_pe=1.0))
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
        point = single_photon_lower(counts, "Z", pc, EpsilonBudget(eps_pe=1.0))
        bounded = single_photon_lower(counts, "Z", pc, EpsilonBudget(eps_pe=1e-5))
        assert bounded < point

    def test_vacuous_statistics_return_zero_and_flag(self):
        pc = make_pc()
        counts = make_counts(n_z_mu=50, m_z_mu=5, n_z_nu=3, m_z_nu=1,
                             n_x_mu=1e6, m_x_mu=1e3, n_x_nu=5e5, m_x_nu=500)
        budget = EpsilonBudget(eps_pe=1e-5)
        assert single_photon_lower(counts, "Z", pc, budget) == 0.0
        assert single_photon_lower(counts, "X", pc, budget) > 0.0
        assert estimate_counts(counts, pc, budget).vacuous

    def test_empty_basis_returns_zero(self):
        pc = make_pc()
        assert single_photon_lower(make_counts(), "Z", pc, EpsilonBudget(eps_pe=0.5)) == 0.0

    def test_requires_real_decoy(self):
        pc = make_pc(nu=0.0)
        counts = make_counts(n_z_mu=100.0)
        with pytest.raises(EstimationError):
            single_photon_lower(counts, "Z", pc, EpsilonBudget(eps_pe=0.5))


class TestSinglePhotonErrorUpper:
    def test_point_estimate(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e5, m_x_mu=500.0, n_x_nu=2e4, m_x_nu=100.0)
        v1 = single_photon_error_upper(counts, pc, EpsilonBudget(eps_pe=1.0))
        t1 = tau_n(1, pc)
        manual = t1 / (pc.mu - pc.nu) * (
            math.exp(pc.mu) / pc.p_mu * 500.0
            - math.exp(pc.nu) / (1 - pc.p_mu) * 100.0
        )
        assert v1 == pytest.approx(manual, rel=1e-12)

    def test_clamped_to_normalised_total(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e3, m_x_mu=3.0, n_x_nu=1e3, m_x_nu=0.0)
        v1 = single_photon_error_upper(counts, pc, EpsilonBudget(eps_pe=1e-10))
        ceiling = math.exp(pc.mu) / pc.p_mu * 3.0
        assert v1 <= ceiling + 1e-9

    def test_never_negative(self):
        pc = make_pc()
        counts = make_counts(n_x_mu=1e4, m_x_mu=0.0, n_x_nu=1e4, m_x_nu=50.0)
        assert single_photon_error_upper(counts, pc, EpsilonBudget(eps_pe=1.0)) == 0.0


class TestPhaseErrorUpper:
    def test_requires_positive_samples(self):
        with pytest.raises(EstimationError):
            phase_error_upper(0.0, 1.0, 100.0, 1e-5)
        with pytest.raises(EstimationError):
            phase_error_upper(100.0, 1.0, 0.0, 1e-5)

    def test_zero_errors_floor_at_one_phantom(self):
        phi = phase_error_upper(1e5, 0.0, 1e5, 1e-10)
        base = phase_error_upper(1e5, 10.0, 1e5, 1e-10)
        assert 0.0 < phi < base

    def test_clamped_at_half(self):
        assert phase_error_upper(10.0, 9.0, 10.0, 1e-5) == 0.5
        assert phase_error_upper(0.5, 0.0, 100.0, 1e-5) == 0.5

    def test_more_data_tightens(self):
        small = phase_error_upper(1e4, 500.0, 1e4, 1e-10)
        large = phase_error_upper(1e6, 50000.0, 1e6, 1e-10)
        assert large < small


class TestObservedErrorUpper:
    def test_worst_link_wins(self):
        single = observed_error_upper({"bob_alice": 10.0}, 1000, 50000, 1e-5)
        both = observed_error_upper(
            {"bob_alice": 10.0, "charlie_alice": 30.0}, 1000, 50000, 1e-5
        )
        assert both > single

    def test_validates_error_count(self):
        with pytest.raises(ValueError):
            observed_error_upper({"bob_alice": 1001.0}, 1000, 50000, 1e-5)
        with pytest.raises(ValueError):
            observed_error_upper({}, 1000, 50000, 1e-5)


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
