"""Security-bound and block-length-solver tests.

The threshold identities are exercised on three published-style working
points; the solver is cross-checked against a brute-force linear scan.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds_onedecoy.channel import ChannelParams, ObservedCounts, PulseConfig, expected_statistics
from qds_onedecoy.finite_key import EpsilonBudget, FiniteKeyEstimates
from qds_onedecoy.optimizer import SearchSpace
from qds_onedecoy.security import (
    Infeasible,
    InfeasibleTarget,
    Thresholds,
    block_report,
    epsilon_f,
    link_signature_time,
    merge_block_estimates,
    min_signature_length,
    p_forge,
    p_repudiation,
    p_repudiation_raw,
    p_robust,
    p_sec,
    signature_time_and_rate,
    solve_p_e,
    thresholds_from_rates,
)

# (s_alpha, s_upsilon) working points with their implied
# (error bound, tolerable rate) pair, all to four decimals
WORKING_POINTS = [
    (0.0802, 0.1081, 0.0523, 0.1360),
    (0.0719, 0.0959, 0.0479, 0.1199),
    (0.0467, 0.0544, 0.0390, 0.0621),
]


class TestThresholds:
    @pytest.mark.parametrize("s_a,s_u,e_upper,p_e", WORKING_POINTS)
    def test_identity_round_trip(self, s_a, s_u, e_upper, p_e):
        th = thresholds_from_rates(e_upper, p_e)
        assert round(th.s_alpha, 4) == s_a
        assert round(th.s_upsilon, 4) == s_u
        # and back: the thresholds encode the two rates exactly
        assert 2 * th.s_alpha - th.s_upsilon == pytest.approx(e_upper, abs=1e-12)
        assert 2 * th.s_upsilon - th.s_alpha == pytest.approx(p_e, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.3),
        st.floats(min_value=1e-6, max_value=0.19),
    )
    @settings(max_examples=200)
    def test_identities_hold_generally(self, e_upper, gap):
        p_e = e_upper + gap
        if p_e >= 0.5 - 1e-9:
            return
        th = thresholds_from_rates(e_upper, p_e)
        assert 2 * th.s_alpha - th.s_upsilon == pytest.approx(e_upper, abs=1e-12)
        assert 2 * th.s_upsilon - th.s_alpha == pytest.approx(p_e, abs=1e-12)
        assert 0.0 < th.s_alpha < th.s_upsilon < 0.5

    def test_no_margin_is_infeasible(self):
        with pytest.raises(Infeasible):
            thresholds_from_rates(0.1, 0.1)
        with pytest.raises(Infeasible):
            thresholds_from_rates(0.2, 0.1)

    def test_dataclass_validates(self):
        with pytest.raises(ValueError):
            Thresholds(s_alpha=0.2, s_upsilon=0.1)
        with pytest.raises(ValueError):
            Thresholds(s_alpha=0.0, s_upsilon=0.1)
        with pytest.raises(ValueError):
            Thresholds(s_alpha=0.1, s_upsilon=0.5)


class TestSolvePE:
    @pytest.mark.parametrize(
        "s_z1,phi,L,p_e_expected",
        [
            # L reconstructed from h(p_E) = 2 s_z1 (1-h(phi)) / L at the
            # three working points; round trip must land within 0.001
            (17250, 0.0218, 51032, 0.1360),
            (21877, 0.0253, 68620, 0.1199),
            (139259, 0.0390, 632414, 0.0621),
        ],
    )
    def test_round_trip_on_working_points(self, s_z1, phi, L, p_e_expected):
        assert solve_p_e(s_z1, L, phi) == pytest.approx(p_e_expected, abs=1e-3)

    def test_degenerate_inputs_give_zero(self):
        assert solve_p_e(0.0, 1000, 0.01) == 0.0
        assert solve_p_e(100.0, 1000, 0.5) == 0.0

    def test_saturates_at_half(self):
        # a block made entirely of perfect single-photon detections
        assert solve_p_e(1000.0, 1000, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_validates(self):
        with pytest.raises(ValueError):
            solve_p_e(10.0, 0, 0.1)
        with pytest.raises(ValueError):
            solve_p_e(-1.0, 10, 0.1)


class TestProbabilityBounds:
    def test_robust(self):
        assert p_robust(1e-5) == 2e-5
        assert p_robust(0.9) == 1.0

    def test_repudiation_formula(self):
        th = Thresholds(0.05, 0.15)
        expected = 2.0 * math.exp(-(0.1**2) * 2000 / 4.0)
        assert p_repudiation_raw(th, 2000) == pytest.approx(expected, rel=1e-12)

    def test_repudiation_clamp(self):
        th = Thresholds(0.05, 0.15)
        assert p_repudiation_raw(th, 2) > 1.0
        assert p_repudiation(th, 2) == 1.0

    def test_repudiation_decays_with_length(self):
        th = Thresholds(0.05, 0.15)
        values = [p_repudiation_raw(th, L) for L in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2]

    def test_epsilon_f_dominated_by_eps_when_margin_large(self):
        # huge entropy margin: the 2^-x term underflows to zero
        val = epsilon_f(1e-5, 50000, 20000.0, 0.02, 0.1, 1e-10)
        assert val == pytest.approx(1e-10 / 1e-5, rel=1e-9)

    def test_epsilon_f_blows_up_without_margin(self):
        # h(s_upsilon) exceeds the entropy rate: forging unbounded
        val = epsilon_f(1e-5, 50000, 100.0, 0.02, 0.4, 1e-10)
        assert val == math.inf
        assert p_forge(1e-5, val, 1e-5) == 1.0

    def test_epsilon_f_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            epsilon_f(1e-5, 50000, 20000.0, 0.02, 0.1, -1e-3)

    def test_forge_floor(self):
        assert p_forge(1e-5, 0.0, 1e-5) == pytest.approx(1.1e-4)

    def test_p_sec_is_worst_case(self):
        assert p_sec(1e-5, 3e-5, 2e-5) == 3e-5


class TestMerge:
    def test_worst_case_selection(self):
        # bob_alice, charlie_alice along the first axis
        per_link = FiniteKeyEstimates(
            s_z1_lower=np.array([100.0, 80.0]), phi_z1_upper=np.array([0.02, 0.03]),
            s_z0_upper=np.array([5.0, 9.0]), s_x1_lower=np.array([50.0, 60.0]),
            v_x1_upper=np.array([1.0, 2.0]), saturated=np.array([False, True]),
            vacuous=np.array([False, False]),
        )
        merged = merge_block_estimates(per_link)
        assert merged.s_z1_lower == 80.0
        assert merged.phi_z1_upper == 0.03
        assert merged.s_z0_upper == 9.0
        assert merged.s_x1_lower == 50.0
        assert merged.saturated
        assert not merged.vacuous

    def test_requires_a_link(self):
        empty = np.array([])
        with pytest.raises(ValueError):
            merge_block_estimates(FiniteKeyEstimates(empty, empty, empty, empty, empty))


def paper_scale_setup(distance_km=103.0, eps_pe=5e-6):
    pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85, n_pulses=2e12)
    ch = ChannelParams(distance_km=distance_km)
    counts = expected_statistics(pc, ch)
    cbl = {"bob_alice": counts, "charlie_alice": counts}
    return pc, ch, cbl, EpsilonBudget(eps_pe=eps_pe)


def solve_one(cbl, pc, budget, target_psec=1e-4, k_test=None):
    [L] = min_signature_length([(cbl, pc)], budget, 1e-5, 1e-10, target_psec, k_test=k_test)
    return L


def certifies(cbl, pc, ch, budget, L, k_test=None, target_psec=1e-4):
    try:
        report = block_report(cbl, pc, ch, budget, 1e-5, 1e-10, L, k_test=k_test)
    except Infeasible:
        return False
    return report.p_sec <= target_psec


class TestMinSignatureLength:
    def test_target_below_floor_rejected(self):
        pc, ch, cbl, budget = paper_scale_setup()
        with pytest.raises(InfeasibleTarget):
            solve_one(cbl, pc, budget, target_psec=1e-6)

    def test_solved_length_is_minimal_and_even(self):
        pc, ch, cbl, budget = paper_scale_setup()
        L = solve_one(cbl, pc, budget)
        assert L % 2 == 0
        report = block_report(cbl, pc, ch, budget, 1e-5, 1e-10, L)
        assert report.p_sec <= 1e-4
        # two steps shorter must fail the target (minimality)
        shorter = L - 2
        try:
            rep2 = block_report(cbl, pc, ch, budget, 1e-5, 1e-10, shorter)
            assert rep2.p_sec > 1e-4
        except Infeasible:
            pass

    @pytest.mark.parametrize("k_test", [None, 3000, 6000])
    def test_matches_linear_scan_on_coarse_grid(self, k_test):
        # independent check: the bisection result brackets the first
        # feasible point of a descending coarse scan, under the same
        # test-sample rule the report uses
        pc, ch, cbl, budget = paper_scale_setup()
        L = solve_one(cbl, pc, budget, k_test=k_test)
        assert certifies(cbl, pc, ch, budget, L, k_test)
        assert not certifies(cbl, pc, ch, budget, L - 2, k_test)

    def test_unreachable_target_is_infeasible(self):
        pc, ch, cbl, budget = paper_scale_setup(distance_km=500.0)
        result = solve_one(cbl, pc, budget)
        assert isinstance(result, Infeasible)
        assert "no block length up to the pool size" in str(result)

    def test_empty_pool_is_infeasible(self):
        pc, ch, cbl, budget = paper_scale_setup()
        dead = ObservedCounts(1, 0, 0, 0, 1, 0, 0, 0)
        result = solve_one({"bob_alice": cbl["bob_alice"], "charlie_alice": dead}, pc, budget)
        assert isinstance(result, Infeasible)
        assert "sifted pool is empty" in str(result)


SPACE = SearchSpace()
#: A source setting drawn from the default search box, nu below mu.
settings_in_space = st.builds(
    lambda mu, nu_share, p_mu, p_z_tx, p_z_rx: PulseConfig(
        mu=mu, nu=SPACE.nu[0] + nu_share * (min(SPACE.nu[1], mu) - SPACE.nu[0]),
        p_mu=p_mu, p_z_tx=p_z_tx, p_z_rx=p_z_rx, n_pulses=2e12,
    ),
    st.floats(*SPACE.mu), st.floats(0.0, 0.999), st.floats(*SPACE.p_mu),
    st.floats(*SPACE.p_z_tx), st.floats(*SPACE.p_z_rx),
)


class TestLockstepSolver:
    """The batched solver against one-setting solves and the report's own verdict."""

    @given(
        st.lists(st.tuples(settings_in_space, st.floats(0.0, 300.0)), min_size=2, max_size=6),
        st.sampled_from([None, 3000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_one_at_a_time(self, points, k_test):
        budget = EpsilonBudget(eps_pe=5e-6)
        batch = []
        for pc, km in points:
            counts = expected_statistics(pc, ChannelParams(distance_km=km))
            batch.append(({"bob_alice": counts, "charlie_alice": counts}, pc))
        together = min_signature_length(batch, budget, 1e-5, 1e-10, 1e-4, k_test=k_test)
        alone = [solve_one(cbl, pc, budget, k_test=k_test) for cbl, pc in batch]
        assert [str(r) if isinstance(r, Infeasible) else r for r in together] == [
            str(r) if isinstance(r, Infeasible) else r for r in alone
        ]

    @given(settings_in_space, st.floats(0.0, 300.0), st.sampled_from([None, 3000]))
    @settings(max_examples=25, deadline=None)
    def test_solved_length_is_feasible_and_minimal(self, pc, km, k_test):
        budget = EpsilonBudget(eps_pe=5e-6)
        ch = ChannelParams(distance_km=km)
        counts = expected_statistics(pc, ch)
        cbl = {"bob_alice": counts, "charlie_alice": counts}
        L = solve_one(cbl, pc, budget, k_test=k_test)
        if isinstance(L, Infeasible):
            pool = int(counts.n_total("Z")) // 2 * 2
            assert not certifies(cbl, pc, ch, budget, pool, k_test)
            return
        assert certifies(cbl, pc, ch, budget, L, k_test)
        if L > 2:
            assert not certifies(cbl, pc, ch, budget, L - 2, k_test)


class TestSignatureTime:
    def test_time_scales_with_length_and_yield(self):
        pc, ch, cbl, budget = paper_scale_setup()
        counts = cbl["bob_alice"]
        t1 = link_signature_time(10000, counts, pc, ch)
        t2 = link_signature_time(20000, counts, pc, ch)
        assert t2 == pytest.approx(2 * t1, rel=1e-12)
        # doubling the pulse budget at fixed counts halves the yield
        pc2 = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85,
                          n_pulses=4e12)
        assert link_signature_time(10000, counts, pc2, ch) == pytest.approx(
            2 * t1, rel=1e-12
        )

    def test_slowest_link_dictates(self):
        pc, ch, cbl, budget = paper_scale_setup()
        weak = cbl["bob_alice"].scaled(0.5)
        mixed = {"bob_alice": cbl["bob_alice"], "charlie_alice": weak}
        t_max, rate = signature_time_and_rate(10000, mixed, pc, ch)
        assert t_max == pytest.approx(link_signature_time(10000, weak, pc, ch))
        assert rate == pytest.approx(1.0 / t_max)

    def test_dead_link_is_infeasible(self):
        from qds_onedecoy.channel import ObservedCounts

        pc, ch, _, _ = paper_scale_setup()
        dead = ObservedCounts(0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(Infeasible):
            link_signature_time(100, dead, pc, ch)


class TestBlockReport:
    def test_report_is_consistent(self):
        pc, ch, cbl, budget = paper_scale_setup()
        L = solve_one(cbl, pc, budget)
        report = block_report(cbl, pc, ch, budget, 1e-5, 1e-10, L)
        assert report.p_sec == max(
            report.p_robust, report.p_repudiation, report.p_forge
        )
        assert report.p_robust == pytest.approx(2 * budget.eps_pe)
        assert report.rate_bits_per_s == pytest.approx(1.0 / report.time_per_bit_s)
        assert report.thresholds.s_alpha < report.thresholds.s_upsilon
        assert report.e_upper < report.thresholds.s_alpha
        assert report.p_repudiation <= report.p_repudiation_raw
        assert report.k_test == max(1, round(0.05 * L))

    def test_rejects_odd_length(self):
        pc, ch, cbl, budget = paper_scale_setup()
        with pytest.raises(ValueError):
            block_report(cbl, pc, ch, budget, 1e-5, 1e-10, 1001)

    def test_explicit_test_errors_feed_e_upper(self):
        pc, ch, cbl, budget = paper_scale_setup()
        L = 89522
        base = block_report(cbl, pc, ch, budget, 1e-5, 1e-10, L)
        noisy = block_report(
            cbl, pc, ch, budget, 1e-5, 1e-10, L,
            test_errors_by_link={"bob_alice": 0.0, "charlie_alice": 0.0},
        )
        assert noisy.e_upper < base.e_upper
