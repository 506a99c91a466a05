"""Security-bound and block-length-solver tests.

The threshold identities are exercised on three published-style working
points; the solver is cross-checked against a brute-force linear scan.
"""

import dataclasses
import json
import math
import pathlib
import re
from collections import defaultdict
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qds_onedecoy.channel import (
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    expected_statistics,
    sample_statistics,
)
from qds_onedecoy.finite_key import EpsilonBudget, FiniteKeyEstimates
from qds_onedecoy import security
from qds_onedecoy.security import (
    Infeasible,
    InfeasibleTarget,
    SecurityReport,
    SecurityTarget,
    Thresholds,
    Verdicts,
    _bound_chain,
    _sifted_yield,
    _signing_time,
    _stack_links,
    _entropy_rate,
    _forge_term,
    _repudiation,
    block_report,
    k_test_for,
    longest_block_at_rate,
    merge_block_estimates,
    min_signature_length,
    signature_time_and_rate,
    solve_p_e,
    thresholds_from_rates,
)
from strategies import settings_in_space, stack_of

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
        # both test-sample bounds failing, clamped to 1
        assert paper_scale_chain([89522], eps_pe=1e-5).p_robust == 2e-5
        assert paper_scale_chain([89522], eps_pe=0.9).p_robust == 1.0

    def test_repudiation_formula(self):
        expected = 2.0 * math.exp(-(0.1**2) * 2000 / 4.0)
        assert _repudiation(0.05, 0.15, 2000) == pytest.approx(expected, rel=1e-12)
        # each chain lane is the formula at its own thresholds
        chain = paper_scale_chain([2000, 89522])
        gap = chain.s_upsilon[0] - chain.s_alpha[0]
        assert chain.p_repudiation_raw[0] == pytest.approx(
            2.0 * np.exp(-(gap**2) * np.array([2000, 89522]) / 4.0), rel=1e-12)

    def test_repudiation_clamp(self):
        assert _repudiation(0.05, 0.15, 2) > 1.0
        # the chain clamps what the raw bound leaves above 1, and only that
        chain = paper_scale_chain([2, 100, 89522])
        assert (chain.p_repudiation_raw[0, :2] > 1.0).all()
        assert chain.p_repudiation[0].tolist() == [1.0, 1.0, chain.p_repudiation_raw[0, 2]]

    def test_repudiation_decays_with_length(self):
        values = [_repudiation(0.05, 0.15, L) for L in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2]

    def test_epsilon_f_dominated_by_eps_when_margin_large(self):
        # huge entropy margin: the 2^-x term underflows to zero
        val = _forge_term(1e-5, 50000, _entropy_rate(20000.0, 50000, 0.02), 0.1, 1e-10)
        assert val == pytest.approx(1e-10 / 1e-5, rel=1e-9)

    def test_epsilon_f_blows_up_without_margin(self):
        # h(s_upsilon) exceeds the entropy rate: forging unbounded
        val = _forge_term(1e-5, 50000, _entropy_rate(100.0, 50000, 0.02), 0.4, 1e-10)
        assert val == math.inf
        # in the chain, an unbounded forging term clamps to 1
        chain = paper_scale_chain([5000, 89522])
        assert chain.epsilon_forge[0, 0] == math.inf
        assert chain.p_forge[0].tolist() == [1.0, chain.p_forge_raw[0, 1]]
        assert chain.p_forge_raw[0, 1] < 1.0

    def test_epsilon_f_rejects_negative_eps(self):
        # eps enters through the target, which refuses it outside (0, 1)
        with pytest.raises(ValueError, match="eps must lie strictly inside"):
            SecurityTarget(EpsilonBudget(eps_pe=1e-6), 1e-5, -1e-3, 1e-4)

    def test_forge_floor(self):
        # alpha + eps_F + one eps_pe per bound application, lane by lane
        chain = paper_scale_chain([5000, 89522, 10**6])
        assert chain.p_forge_raw.tolist() == (1e-5 + chain.epsilon_forge + 10 * 5e-6).tolist()
        assert (chain.p_forge_raw >= 1e-5 + 10 * 5e-6).all()

    def test_p_sec_is_worst_case(self):
        chain = paper_scale_chain([2, 5000, 89522, 10**6])
        terms = list(zip(chain.p_repudiation[0].tolist(), chain.p_forge[0].tolist()))
        assert chain.p_sec[0].tolist() == [max(chain.p_robust, *t) for t in terms]


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


def target_for(budget, k_test=None, target_psec=1e-4):
    """The security target these tests solve under, at alpha 1e-5 and eps 1e-10."""
    return SecurityTarget(budget, 1e-5, 1e-10, target_psec, k_test)


def paper_scale_chain(lengths, eps_pe=5e-6):
    """The bound chain of ``paper_scale_setup`` at each of ``lengths``."""
    pc, _, cbl, budget = paper_scale_setup(eps_pe=eps_pe)
    return _bound_chain(_stack_links(cbl), pc, target_for(budget), np.array(lengths)[None, :])


class Pruned(NamedTuple):
    """A pruned verdict as these tests write it: the smallest feasible L is
    at least ``lower``."""

    lower: int


def solve_all(cbl, pc, target, **kwargs):
    """``min_signature_length``'s verdicts, one entry per setting: the
    solved L, ``Pruned`` with its lower bound, or the ``Infeasible`` error
    that ``Verdicts.error`` rebuilds, which is None exactly where there is
    an L."""
    solved = min_signature_length(cbl, pc, target, **kwargs)
    assert isinstance(solved, Verdicts) and solved.L.shape == solved.code.shape
    assert solved.L.dtype.kind == solved.code.dtype.kind == "i"
    found = []
    for i, (L, code) in enumerate(zip(solved.L.tolist(), solved.code.tolist())):
        error = solved.error(i, target)
        assert (error is None) == (code in (Verdicts.SOLVED, Verdicts.PRUNED))
        found.append(L if code == Verdicts.SOLVED else Pruned(L) if code == Verdicts.PRUNED
                     else error)
    return found


def solve_one(cbl, pc, budget, target_psec=1e-4, k_test=None):
    [L] = solve_all(cbl, pc, target_for(budget, k_test, target_psec))
    return L


def certifies(cbl, pc, ch, budget, L, k_test=None, target_psec=1e-4):
    try:
        report = block_report(cbl, pc, ch, target_for(budget, k_test), L)
    except Infeasible:
        return False
    return report.p_sec <= target_psec


def reference_bisection(cbl, pc, ch, budget, k_test=None, cap=None):
    """The solver's verdict from a plain bisection over even lengths that
    probes one length at a time with ``certifies``, and the lengths it
    probes: the pool, the cap (its even floor, within the pool) if any,
    2, then midpoints."""
    probed = []

    def probe(L):
        probed.append(L)
        return certifies(cbl, pc, ch, budget, L, k_test)

    pool = int(min(c.n_total("Z") for c in cbl.values())) // 2 * 2
    if pool < 2 or not probe(pool):
        return Infeasible, probed
    hi = pool
    if cap is not None:
        cut = max(cap // 2 * 2, 0)
        hi = min(pool, max(cut, 2))
        if not probe(hi) or cut < 2:
            return Pruned(cut + 2), probed
    if probe(2):
        return 2, probed
    lo = 2
    while hi - lo > 2:
        mid = (lo + hi) // 4 * 2
        if probe(mid):
            hi = mid
        else:
            lo = mid
    return hi, probed


def nan_calls():
    """(function, arguments, message) with one argument NaN, by function and argument."""
    pc, ch, cbl, _ = paper_scale_setup()
    return {
        "solve_p_e-s_z1": (solve_p_e, (math.nan, 100.0, 0.1), "single-photon count"),
        "solve_p_e-L": (solve_p_e, (100.0, math.nan, 0.1), "block length"),
        "signature_time_and_rate-L": (signature_time_and_rate, (math.nan, cbl, pc, ch),
                                      "block length"),
    }


@pytest.mark.parametrize("name", nan_calls())
def test_nan_argument_is_rejected(name):
    fn, args, message = nan_calls()[name]
    with pytest.raises(ValueError, match=message):
        fn(*args)


class TestMinSignatureLength:
    def test_target_below_floor_rejected(self):
        pc, ch, cbl, budget = paper_scale_setup()
        with pytest.raises(InfeasibleTarget):
            solve_one(cbl, pc, budget, target_psec=1e-6)

    def test_rejects_no_links(self):
        pc, _, _, budget = paper_scale_setup()
        with pytest.raises(ValueError, match="at least one link is required"):
            min_signature_length({}, pc, target_for(budget))

    def test_solved_length_is_minimal_and_even(self):
        pc, ch, cbl, budget = paper_scale_setup()
        L = solve_one(cbl, pc, budget)
        assert L % 2 == 0
        report = block_report(cbl, pc, ch, target_for(budget), L)
        assert report.p_sec <= 1e-4
        # two steps shorter must fail the target (minimality)
        shorter = L - 2
        try:
            rep2 = block_report(cbl, pc, ch, target_for(budget), shorter)
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

    @pytest.mark.parametrize("above", [0, 1])
    def test_test_sample_past_the_pool_agrees_with_block_report(self, above):
        # a test sample the pool holds is solved as usual; one bit more rules
        # out every length, in the solver and in the report alike
        pc, ch, cbl, budget = paper_scale_setup()
        k_test = math.floor(min(c.n_total("Z") for c in cbl.values())) + above
        L = solve_one(cbl, pc, budget, k_test=k_test)
        verdict, _ = reference_bisection(cbl, pc, ch, budget, k_test)
        if not above:
            assert L == verdict
            return
        assert verdict is Infeasible
        assert isinstance(L, Infeasible) and f"test sample of {k_test} bits" in str(L)
        with pytest.raises(Infeasible, match=f"test sample of {k_test} bits"):
            block_report(cbl, pc, ch, target_for(budget, k_test), 2)

    def test_unreachable_target_is_infeasible(self):
        pc, ch, cbl, budget = paper_scale_setup(distance_km=500.0)
        result = solve_one(cbl, pc, budget)
        assert isinstance(result, Infeasible)
        assert "no block length up to the pool size" in str(result)

    def test_pool_past_exact_float_lengths_is_refused(self):
        # the chain takes lengths as floats; PulseConfig keeps CLI pools below this
        pc, ch, cbl, budget = paper_scale_setup()
        counts = cbl["bob_alice"]
        big = ObservedCounts.from_cells(counts.cells * ((2**52 + 2**40) / counts.n_total("Z")))
        with pytest.raises(ValueError, match=r"sifted Z pool of \d+ bits exceeds 2\*\*52"):
            solve_one({"bob_alice": big, "charlie_alice": big}, pc, budget)

    def test_empty_pool_is_infeasible(self):
        pc, ch, cbl, budget = paper_scale_setup()
        dead = ObservedCounts(1, 0, 0, 0, 1, 0, 0, 0)
        result = solve_one({"bob_alice": cbl["bob_alice"], "charlie_alice": dead}, pc, budget)
        assert isinstance(result, Infeasible)
        assert "sifted pool is empty" in str(result)


class TestLockstepSolver:
    """The batched solver against one-setting solves and the report's own verdict."""

    @given(
        st.lists(st.tuples(settings_in_space, st.floats(0.0, 300.0)), min_size=2, max_size=6),
        st.sampled_from([None, 3000]),
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_one_at_a_time(self, points, k_test):
        budget = EpsilonBudget(eps_pe=5e-6)
        pcs = [pc for pc, _ in points]
        alone_counts = [
            expected_statistics(pc, ChannelParams(distance_km=km)) for pc, km in points
        ]
        # each setting at its own distance, stacked as one batch
        counts = ObservedCounts.from_cells(
            np.stack([c.cells for c in alone_counts], axis=3)[..., None]
        )
        together = solve_all(
            {"bob_alice": counts, "charlie_alice": counts}, stack_of(pcs),
            target_for(budget, k_test),
        )
        alone = [
            solve_one({"bob_alice": c, "charlie_alice": c}, pc, budget, k_test=k_test)
            for c, pc in zip(alone_counts, pcs)
        ]
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


def reference_spread(lo, hi, width, ratio):
    """The solver's lane spread as written with ``np.clip`` and an even
    spread split so that no product can overflow: the oracle
    ``security._spread`` must match bit for bit."""
    gap = (hi - lo) // 2
    n = max(1, min(width, int(np.maximum.reduce(gap)) - 1))
    taken = np.clip(gap - 1, 1, n)[:, None]
    j = np.minimum(np.arange(1, n + 1), taken)
    if ratio:
        step = j if ratio > 0 else taken + 1 - j
        units = np.maximum(np.floor(gap[:, None] ** ((step - 1) / taken)).astype(np.int64), step)
        if ratio < 0:
            units = gap[:, None] - units
    else:
        whole, part = np.divmod(gap[:, None], taken + 1)
        units = j * whole + j * part // (taken + 1)
    return lo[:, None] + 2 * np.maximum(units, 1)


class TestSpread:
    @given(
        st.lists(st.tuples(st.integers(0, 2**50), st.integers(1, 2**50)), min_size=1,
                 max_size=40),
        st.integers(1, security.SOLVER_LANES), st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_clip_form(self, brackets, width, ratio):
        # even lo (0 for a ratio spread) and hi = lo + 2 * gap, below 2**52
        lo = np.array([0 if ratio else 2 * a for a, _ in brackets], dtype=np.int64)
        hi = lo + 2 * np.array([gap for _, gap in brackets], dtype=np.int64)
        got, want = security._spread(lo, hi, width, ratio), reference_spread(lo, hi, width, ratio)
        assert got.dtype == want.dtype and np.array_equal(got, want)


#: (settings, lengths, sum of lengths) of every chain call one uncapped
#: solve of ``uncapped_batch`` makes, for k_test None and 3000, recorded
#: from the solver whose rounds spread their lengths between the last
#: infeasible and the first feasible one (4 calls each before it too)
UNCAPPED_PROBES = {
    None: [(4, 66, 854411461248), (3, 85, 28498972), (3, 85, 29501206), (2, 3, 883332)],
    3000: [(4, 66, 854411461248), (3, 85, 40219706), (3, 85, 37697842), (1, 5, 1721740)],
}


def uncapped_batch():
    """Four settings at 0-330 km stacked as one batch, the last infeasible."""
    pcs = [PulseConfig(mu=mu, nu=nu, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.8, n_pulses=2e12)
           for mu, nu in [(0.6, 0.2), (0.45, 0.1), (0.8, 0.3), (0.3, 0.05)]]
    cells = [
        expected_statistics(pc, ChannelParams(distance_km=km)).cells
        for pc, km in zip(pcs, [0.0, 120.0, 260.0, 330.0])
    ]
    counts = ObservedCounts.from_cells(np.stack(cells, axis=3)[..., None])
    return {"bob_alice": counts, "charlie_alice": counts}, stack_of(pcs)


#: (settings, lengths, sum of lengths) of every chain call one solve of
#: ``capped_batch`` makes, for k_test None and 3000, recorded from the
#: solver whose capped first round spreads its lengths down from the cap
#: by a constant ratio (5 calls each before it, with an even first
#: round: these caps sit far from most L), and the verdicts, recorded
#: from the solver whose rounds rebuilt their counts and decoy factors
#: row by row
CAPPED_PROBES = {
    None: [(12, 23, 312548705464), (6, 42, 6500353146), (6, 42, 217896210),
           (4, 64, 100799586), (2, 128, 157737600), (1, 9, 752400)],
    3000: [(12, 23, 312548705464), (5, 51, 7909663750), (5, 51, 253750232),
           (3, 85, 165188648), (1, 256, 22071040), (1, 2, 172470)],
}
CAPPED_VERDICTS = {
    None: [Pruned(30002), 78618, 256252, Pruned(2), 83592, 122924, Pruned(114390), 63886,
           Pruned(100002), 86442, 1149556, Infeasible],
    3000: [Pruned(30002), 80162, Pruned(300002), Pruned(2), 86238, Pruned(122926),
           Pruned(114390), 64448, Pruned(100002), 89206, 1797558, Infeasible],
}


def capped_batch():
    """Twelve settings at 0-330 km stacked as one batch, the last infeasible,
    and one cap each: below, at and above each solved L, odd, 0 and beyond
    the pool, so that some settings are pruned and the others bisect on."""
    rows = [(0.6, 0.2, 0.6, 0.85, 0.8, 0.0), (0.45, 0.1, 0.7, 0.8, 0.85, 40.0),
            (0.8, 0.3, 0.5, 0.9, 0.9, 80.0), (0.3, 0.05, 0.8, 0.75, 0.75, 120.0),
            (0.5, 0.15, 0.65, 0.85, 0.85, 150.0), (0.7, 0.25, 0.55, 0.9, 0.8, 180.0),
            (0.4, 0.08, 0.75, 0.7, 0.9, 200.0), (0.55, 0.2, 0.6, 0.8, 0.8, 220.0),
            (0.65, 0.1, 0.7, 0.85, 0.85, 240.0), (0.35, 0.12, 0.9, 0.6, 0.7, 100.0),
            (0.9, 0.35, 0.5, 0.95, 0.95, 60.0), (0.3, 0.05, 0.6, 0.85, 0.8, 330.0)]
    pcs = [PulseConfig(mu=mu, nu=nu, p_mu=p_mu, p_z_tx=tx, p_z_rx=rx, n_pulses=2e12)
           for mu, nu, p_mu, tx, rx, _ in rows]
    cells = [expected_statistics(pc, ChannelParams(distance_km=row[-1])).cells
             for pc, row in zip(pcs, rows)]
    counts = ObservedCounts.from_cells(np.stack(cells, axis=3)[..., None])
    caps = np.array([30001, 90000, 300000, 0, 10**15, 122924, 114389, 70001, 100000,
                     200000, 2000000, 1000])
    return {"bob_alice": counts, "charlie_alice": counts}, stack_of(pcs), caps


class TestCappedSolver:
    """A cap changes what the solver probes, never what it finds: L when
    L <= cap, else the pruned verdict, and Infeasible only where the
    uncapped solve has no L."""

    @given(
        settings_in_space, st.floats(0.0, 300.0), st.sampled_from([None, 3000]),
        st.lists(st.integers(0, 10**12), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_capped_solve_agrees_with_uncapped(self, pc, km, k_test, draws):
        budget = EpsilonBudget(eps_pe=5e-6)
        ch = ChannelParams(distance_km=km)
        alone = expected_statistics(pc, ch)
        L = solve_one({"bob_alice": alone, "charlie_alice": alone}, pc, budget, k_test=k_test)
        pool = int(alone.n_total("Z")) // 2 * 2
        # random even caps in [2, pool], then L - 2, L and L + 2
        caps = [2 + 2 * (d % max(1, pool // 2)) for d in draws]
        if not isinstance(L, Infeasible):
            caps += [L - 2, L, L + 2]
        if not caps:
            return
        # one batch of the same setting, one cap per row
        counts = expected_statistics(stack_of([pc] * len(caps)), ch)
        capped = solve_all(
            {"bob_alice": counts, "charlie_alice": counts},
            stack_of([pc] * len(caps)), target_for(budget, k_test), cap=np.array(caps),
        )
        for cap, got in zip(caps, capped):
            if isinstance(L, Infeasible):
                assert isinstance(got, Infeasible) and str(got) == str(L)
            elif L <= cap:
                assert got == L
            else:
                assert got == Pruned(cap + 2)
                assert not isinstance(got, Infeasible)

    @pytest.mark.parametrize("k_test", [None, 3000])
    def test_uncapped_solve_probes_the_recorded_lengths(self, monkeypatch, k_test):
        probes = []
        chain = security._bound_chain

        def spy(counts, pc, target, L):
            probes.append((*L.shape, int(L.sum())))
            return chain(counts, pc, target, L)

        monkeypatch.setattr(security, "_bound_chain", spy)
        cbl, stack = uncapped_batch()
        solved = solve_all(cbl, stack, target_for(EpsilonBudget(eps_pe=5e-6), k_test))
        assert isinstance(solved[3], Infeasible)
        assert probes == UNCAPPED_PROBES[k_test]

    @pytest.mark.parametrize("k_test", [None, 3000])
    def test_capped_solve_probes_the_recorded_lengths(self, monkeypatch, k_test):
        probes = []
        chain = security._bound_chain

        def spy(counts, pc, target, L):
            probes.append((*L.shape, int(L.sum())))
            return chain(counts, pc, target, L)

        monkeypatch.setattr(security, "_bound_chain", spy)
        cbl, stack, caps = capped_batch()
        solved = solve_all(cbl, stack, target_for(EpsilonBudget(eps_pe=5e-6), k_test),
                                      cap=caps)
        assert [Infeasible if isinstance(v, Infeasible) else v for v in solved] == (
            CAPPED_VERDICTS[k_test])
        assert probes == CAPPED_PROBES[k_test]

    def test_cap_beyond_the_pool_solves_in_full(self):
        cbl, stack = uncapped_batch()
        budget = EpsilonBudget(eps_pe=5e-6)
        uncapped = solve_all(cbl, stack, target_for(budget))
        capped = solve_all(cbl, stack, target_for(budget),
                                      cap=np.full(4, 10**15))
        assert [str(v) for v in capped] == [str(v) for v in uncapped]

    @pytest.mark.parametrize("k_test", [None, 3000])
    def test_caps_at_the_solved_lengths_settle_in_one_call(self, monkeypatch, k_test):
        # a capped first round puts its nearest length at cap - 2, so a
        # setting capped at its own L sees L - 2 fail and L pass at once
        cbl, stack, _ = capped_batch()
        budget = EpsilonBudget(eps_pe=5e-6)
        solved = solve_all(cbl, stack, target_for(budget, k_test))
        caps = np.array([0 if isinstance(L, Infeasible) else L for L in solved])
        calls = []
        chain = security._bound_chain

        def spy(*args):
            calls.append(args)
            return chain(*args)

        monkeypatch.setattr(security, "_bound_chain", spy)
        capped = solve_all(cbl, stack, target_for(budget, k_test), cap=caps)
        assert len(calls) == 1
        assert [str(v) for v in capped] == [str(v) for v in solved]


class TestRace:
    """Racing settings for the highest rate prunes only settings strictly
    slower than the best of the batch, with a lower bound on their L."""

    @pytest.mark.parametrize("k_test", [None, 3000])
    def test_race_prunes_only_the_slower_settings(self, k_test):
        cbl, stack, _ = capped_batch()
        budget, clock_hz = EpsilonBudget(eps_pe=5e-6), 1e9
        y = np.ravel(_sifted_yield(cbl, stack))
        exact = solve_all(cbl, stack, target_for(budget, k_test))
        raced = solve_all(cbl, stack, target_for(budget, k_test),
                                     race=(y, clock_hz))
        rates = [None if isinstance(L, Infeasible) else 1.0 / _signing_time(L, yi, clock_hz)
                 for L, yi in zip(exact, y)]
        best = max(r for r in rates if r is not None)
        assert any(isinstance(v, Pruned) for v in raced)
        for L, rate, got in zip(exact, rates, raced):
            if isinstance(got, Pruned):
                assert rate < best and got.lower <= L
            elif isinstance(L, Infeasible):
                assert str(got) == str(L)
            else:
                assert got == L

    @pytest.mark.parametrize("k_test", [None, 3000])
    def test_settings_tied_at_their_lengths_all_solve(self, k_test):
        # yields in proportion to each L, by a power of two, make every
        # feasible setting sign at exactly one rate: none can be pruned
        cbl, stack, _ = capped_batch()
        budget = EpsilonBudget(eps_pe=5e-6)
        exact = solve_all(cbl, stack, target_for(budget, k_test))
        y = np.array([1.0 if isinstance(L, Infeasible) else L * 2.0**-40 for L in exact])
        raced = solve_all(cbl, stack, target_for(budget, k_test),
                                     race=(y, 1.0))
        assert [str(v) for v in raced] == [str(v) for v in exact]


class TestSolverOracle:
    """The batched solver against ``reference_bisection``: the same verdict
    for every setting, and every length the solver hands a setting to the
    bound chain is even, within [2, pool], and feasible exactly when it is
    at least the setting's uncapped L (a monotone split at every probe)."""

    @given(
        st.lists(st.tuples(settings_in_space, st.floats(0.0, 300.0)), min_size=1, max_size=4),
        st.sampled_from([None, 3000]),
        st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5]), st.integers(-3, 3)),
                 min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_solver_follows_the_reference(self, points, k_test, cap_draws):
        budget = EpsilonBudget(eps_pe=5e-6)
        pcs = [pc for pc, _ in points]
        channels = [ChannelParams(distance_km=km) for _, km in points]
        alone = [expected_statistics(pc, ch) for pc, ch in zip(pcs, channels)]
        counts = ObservedCounts.from_cells(np.stack([c.cells for c in alone], axis=3)[..., None])
        cbl, stack = {"bob_alice": counts, "charlie_alice": counts}, stack_of(pcs)
        # each setting's counts as the chain sees them, to tell its rows apart
        keys = [_stack_links(cbl).cells[..., j, :].tobytes() for j in range(len(pcs))]
        chain = security._bound_chain

        def spy(counts, pc, target, L):
            result = chain(counts, pc, target, L)
            feasible = result.certified & (result.p_sec <= 1e-4)
            for row, (lengths, ok) in enumerate(zip(L, feasible)):
                probed[counts.cells[..., row, :].tobytes()] += zip(lengths.tolist(), ok.tolist())
            return result

        uncapped = [reference_bisection({"bob_alice": c, "charlie_alice": c}, pc, ch, budget,
                                        k_test) for c, pc, ch in zip(alone, pcs, channels)]
        pools = [int(c.n_total("Z")) // 2 * 2 for c in alone]
        # caps of 0 to 1.5 times each solved L (the pool where there is none),
        # give or take 3, odd ones too
        caps = [
            max(0, int(f * (L if isinstance(L, int) else c.n_total("Z"))) + d)
            for (L, _), c, (f, d) in zip(uncapped, alone, cap_draws)
        ]
        for cap in (None, np.array(caps)):
            probed = defaultdict(list)
            with mock.patch.object(security, "_bound_chain", spy):
                solved = solve_all(cbl, stack, target_for(budget, k_test), cap=cap)
            for j, (c, pc, ch) in enumerate(zip(alone, pcs, channels)):
                verdict, _ = uncapped[j] if cap is None else reference_bisection(
                    {"bob_alice": c, "charlie_alice": c}, pc, ch, budget, k_test, caps[j],
                )
                if verdict is Infeasible:
                    assert isinstance(solved[j], Infeasible)
                else:
                    assert solved[j] == verdict
                # nothing up to the pool is feasible where there is no L
                first = uncapped[j][0] if isinstance(uncapped[j][0], int) else pools[j] + 2
                for length, ok in probed[keys[j]]:
                    assert length % 2 == 0 and 2 <= length <= pools[j]
                    assert ok == (length >= first)


class TestTinyPools:
    """Z pools of 2 to 7 bits, uncapped and capped at 0 to 4: no length
    outside [2, pool] reaches the bound chain, and the verdicts are the
    reference's.  No such pool is certifiable, so the solves also run on
    a stand-in chain that is feasible from a threshold length on."""

    @pytest.mark.parametrize("threshold", [None, 2, 4, 6])
    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3, 4])
    def test_probes_stay_in_the_pool(self, monkeypatch, threshold, cap):
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85, n_pulses=100)
        ch, budget = ChannelParams(distance_km=0.0), EpsilonBudget(eps_pe=5e-6)
        alone = [ObservedCounts(z - z // 3, 0, z // 3, 0, 3, 0, 2, 0) for z in range(2, 8)]
        counts = ObservedCounts.from_cells(np.stack([c.cells for c in alone], axis=3)[..., None])
        calls = []
        chain = security._bound_chain

        def spy(counts, pc, target, L):
            calls.append(L.shape)
            # each row's pool, from the counts the chain gets for it
            pool = np.minimum.reduce(counts.n_total("Z")) // 2 * 2
            assert (L % 2 == 0).all() and (L >= 2).all() and (L <= pool).all()
            result = chain(counts, pc, target, L)
            if threshold is None:
                return result
            return result._replace(certified=L >= threshold, p_sec=np.zeros(L.shape))

        monkeypatch.setattr(security, "_bound_chain", spy)
        solved = solve_all(
            {"bob_alice": counts, "charlie_alice": counts}, stack_of([pc] * len(alone)),
            target_for(budget), cap=None if cap is None else np.full(len(alone), cap),
        )
        assert calls
        for c, got in zip(alone, solved):
            verdict, _ = reference_bisection({"bob_alice": c, "charlie_alice": c}, pc, ch,
                                             budget, cap=cap)
            if verdict is Infeasible:
                assert isinstance(got, Infeasible)
            else:
                assert got == verdict


def assert_switches_once(cbl, pc, budget, k_test, L, center, pool):
    """Feasibility over 600 even lengths on either side of ``center``,
    within [2, pool], is exactly ``length >= L``."""
    window = np.arange(max(2, center - 1200), min(pool, center + 1200) + 1, 2)
    chain = _bound_chain(_stack_links(cbl), pc, target_for(budget, k_test), window[None, :])
    feasible = chain.certified[0] & (chain.p_sec[0] <= 1e-4)
    assert (feasible == (window >= L)).all()


class TestFeasibilityFlips:
    """Feasibility over even lengths switches once, at the solved L: the
    monotonicity the bisection and the capped solve assume, checked with
    the criterion they bisect (the chain certifies L and p_sec <= target)."""

    @given(settings_in_space, st.floats(0.0, 300.0), st.sampled_from([None, 3000]))
    @settings(max_examples=40, deadline=None)
    def test_switches_once_at_solved_length(self, pc, km, k_test):
        budget = EpsilonBudget(eps_pe=5e-6)
        counts = expected_statistics(pc, ChannelParams(distance_km=km))
        cbl = {"bob_alice": counts, "charlie_alice": counts}
        L = solve_one(cbl, pc, budget, k_test=k_test)
        pool = int(counts.n_total("Z")) // 2 * 2
        if isinstance(L, Infeasible):
            L = pool + 2  # nothing up to the pool is feasible
        assert_switches_once(cbl, pc, budget, k_test, L, L, pool)

    @given(
        settings_in_space, st.floats(0.0, 300.0), st.sampled_from([None, 3000]),
        st.floats(0.25, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_switches_once_around_cut_length(self, pc, km, k_test, factor):
        # the length a capped solve probes: the cut of an incumbent rate
        # between a quarter and four times this setting's own
        budget = EpsilonBudget(eps_pe=5e-6)
        ch = ChannelParams(distance_km=km)
        counts = expected_statistics(pc, ch)
        cbl = {"bob_alice": counts, "charlie_alice": counts}
        L = solve_one(cbl, pc, budget, k_test=k_test)
        pool = int(counts.n_total("Z")) // 2 * 2
        if pool < 2:
            return
        own = pool if isinstance(L, Infeasible) else L
        _, rate = signature_time_and_rate(own, cbl, pc, ch)
        [cut] = longest_block_at_rate(rate * factor, np.ravel(_sifted_yield(cbl, pc)), ch.clock_hz)
        if isinstance(L, Infeasible):
            L = pool + 2
        assert_switches_once(cbl, pc, budget, k_test, L, min(pool, max(2, int(cut))), pool)


class TestLongestBlockAtRate:
    @given(settings_in_space, st.floats(0.0, 300.0), st.integers(1, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_cut_is_the_last_even_length_at_the_rate(self, pc, km, half):
        ch = ChannelParams(distance_km=km)
        counts = expected_statistics(pc, ch)
        cbl = {"bob_alice": counts, "charlie_alice": counts}
        L = 2 * half
        _, rate = signature_time_and_rate(L, cbl, pc, ch)
        y = np.ravel(_sifted_yield(cbl, pc))
        # the rate at L is reached at L and not at L + 2; a hair more is not
        # reached at L
        assert longest_block_at_rate(rate, y, ch.clock_hz).tolist() == [L]
        faster = np.nextafter(rate, np.inf)
        assert longest_block_at_rate(faster, y, ch.clock_hz).tolist() == [L - 2]

    def test_dead_link_and_bad_rate(self):
        pc, ch, cbl, _ = paper_scale_setup()
        dead = {"bob_alice": cbl["bob_alice"], "x": ObservedCounts(0, 0, 0, 0, 0, 0, 0, 0)}
        y_dead = np.ravel(_sifted_yield(dead, pc))
        assert longest_block_at_rate(1e-9, y_dead, ch.clock_hz).tolist() == [0]
        y = np.ravel(_sifted_yield(cbl, pc))
        for rate in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                longest_block_at_rate(rate, y, ch.clock_hz)


class TestSignatureTime:
    def test_time_scales_with_length_and_yield(self):
        pc, ch, cbl, budget = paper_scale_setup()
        one = {"bob_alice": cbl["bob_alice"]}
        t1, _ = signature_time_and_rate(10000, one, pc, ch)
        t2, _ = signature_time_and_rate(20000, one, pc, ch)
        assert t2 == pytest.approx(2 * t1, rel=1e-12)
        # doubling the pulse budget at fixed counts halves the yield
        pc2 = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85,
                          n_pulses=4e12)
        assert signature_time_and_rate(10000, one, pc2, ch)[0] == pytest.approx(
            2 * t1, rel=1e-12
        )

    def test_slowest_link_dictates(self):
        pc, ch, cbl, budget = paper_scale_setup()
        weak = ObservedCounts.from_cells(cbl["bob_alice"].cells * 0.5)
        mixed = {"bob_alice": cbl["bob_alice"], "charlie_alice": weak}
        t_max, rate = signature_time_and_rate(10000, mixed, pc, ch)
        assert t_max == signature_time_and_rate(10000, {"charlie_alice": weak}, pc, ch)[0]
        assert t_max > signature_time_and_rate(10000, {"bob_alice": cbl["bob_alice"]}, pc, ch)[0]
        assert rate == pytest.approx(1.0 / t_max)

    def test_dead_link_is_infeasible(self):
        pc, ch, cbl, _ = paper_scale_setup()
        dead = ObservedCounts(0, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(Infeasible):
            signature_time_and_rate(100, {"bob_alice": cbl["bob_alice"], "x": dead}, pc, ch)


def model_103km_report(L):
    """``block_report`` at ``L`` of the device configuration on ``model_103km.csv``."""
    from qds_onedecoy.files import read_config, read_counts

    config = read_config(str(GOLDEN_DATA / "device.cfg"))
    cbl, km, n_pulses = read_counts(str(GOLDEN_DATA / "model_103km.csv"))
    return block_report(cbl, config.pulse_config(n_pulses=n_pulses), config.channel(km),
                        config.target, L)


class TestBlockReport:
    def test_report_is_consistent(self):
        pc, ch, cbl, budget = paper_scale_setup()
        L = solve_one(cbl, pc, budget)
        report = block_report(cbl, pc, ch, target_for(budget), L)
        assert report.p_sec == max(
            report.p_robust, report.p_repudiation, report.p_forge
        )
        assert report.p_robust == pytest.approx(2 * budget.eps_pe)
        assert report.rate_bits_per_s == pytest.approx(1.0 / report.time_per_bit_s)
        assert report.thresholds.s_alpha < report.thresholds.s_upsilon
        assert report.e_upper < report.thresholds.s_alpha
        assert report.p_repudiation == min(1.0, report.p_repudiation_raw)
        assert report.p_forge == min(1.0, report.p_forge_raw)
        assert report.k_test == k_test_for(L) == max(1, round(0.05 * L))

    @given(settings_in_space, st.floats(0.0, 300.0), st.sampled_from([None, 3000]),
           st.one_of(st.none(), st.integers(0, 2**32 - 2)))
    @settings(max_examples=40, deadline=None)
    # no L: no length reaches the target, or the test sample exceeds the pool
    @example(paper_scale_setup()[0], 500.0, None, None)
    @example(paper_scale_setup()[0], 103.0, 10**12, 7)
    def test_solved_report_is_the_report_at_the_solved_length(self, pc, km, k_test, seed):
        # the solve reads its report from the chain lane that proved L, which
        # must hold the floats a chain call at L alone gives; sampled links
        # (seed given) differ, so the lane merges two distinct tables
        ch = ChannelParams(distance_km=km)
        if seed is None:
            counts = expected_statistics(pc, ch)
            cbl = {"bob_alice": counts, "charlie_alice": counts}
        else:
            cbl = {link: sample_statistics(pc, ch, seed + i)
                   for i, link in enumerate(("bob_alice", "charlie_alice"))}
            assert cbl["bob_alice"] != cbl["charlie_alice"]
        target = target_for(EpsilonBudget(eps_pe=5e-6), k_test)
        solved = min_signature_length(cbl, pc, target)
        error = solved.error(0, target)
        if error is None:
            at_L = block_report(cbl, pc, ch, target, int(solved.L[0]))
            assert block_report(cbl, pc, ch, target) == at_L
            return
        with pytest.raises(Infeasible) as raised:
            block_report(cbl, pc, ch, target)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)

    @pytest.mark.parametrize("L", [None, 89522])
    def test_rejects_no_links(self, L):
        pc, ch, _, budget = paper_scale_setup()
        with pytest.raises(ValueError, match="at least one link is required"):
            block_report({}, pc, ch, target_for(budget), L)

    def test_rejects_odd_length(self):
        pc, ch, cbl, budget = paper_scale_setup()
        with pytest.raises(ValueError):
            block_report(cbl, pc, ch, target_for(budget), 1001)

    def test_rejects_a_float_length(self):
        with pytest.raises(ValueError, match=r"block length must be an integer, got 89522\.0$"):
            model_103km_report(89522.0)

    def test_numpy_integer_length_gives_the_int_report(self):
        report = model_103km_report(np.int64(89522))
        assert type(report.L) is int
        assert report == model_103km_report(89522)

    def test_report_is_the_chain_at_one_length(self):
        pc, ch, cbl, budget = paper_scale_setup()
        report = block_report(cbl, pc, ch, target_for(budget), 89522)
        view = paper_scale_chain([89522]).item()
        assert view.pop("certified") is True
        assert {name: getattr(report, name) for name in view} == view
        assert type(report.p_sec) is type(report.rate_bits_per_s) is float
        assert type(report.estimates.s_z1_lower) is float
        assert type(report.estimates.saturated) is bool


class TestKTestFor:
    def test_default_is_five_percent_half_to_even_and_at_least_one(self):
        # 0.05 * 50 = 2.5 and 0.05 * 70 = 3.5 round to the even neighbour
        assert [k_test_for(L) for L in (2, 10, 50, 70, 89522)] == [1, 1, 2, 4, 4476]
        assert isinstance(k_test_for(89522), int)

    def test_array_matches_scalar(self):
        L = np.array([[2, 50, 70], [10, 89522, 89530]])
        assert k_test_for(L).tolist() == [[k_test_for(int(x)) for x in row] for row in L]

    def test_explicit_size_wins_and_is_checked(self):
        assert k_test_for(89522, 3000) == 3000
        assert k_test_for(89522, np.int64(3000)) == 3000
        for bad in (0, -1, math.nan, 1.5):
            with pytest.raises(ValueError, match="k_test must be"):
                k_test_for(89522, bad)


class TestSecurityTarget:
    """The target checks its values where it is built, with the messages a
    configuration file's errors carry."""

    @pytest.mark.parametrize("name, value, message", [
        ("alpha", 0.0, "alpha must lie strictly inside (0, 1), got 0"),
        ("alpha", math.nan, "alpha must lie strictly inside (0, 1), got nan"),
        ("eps", -1e-3, "eps must lie strictly inside (0, 1), got -0.001"),
        ("eps", 1.0, "eps must lie strictly inside (0, 1), got 1"),
        ("target_psec", 5.0, "target_psec must lie strictly inside (0, 1), got 5"),
        ("k_test", 0, "k_test must be at least 1, got 0"),
        ("k_test", -1, "k_test must be at least 1, got -1"),
        ("k_test", math.nan, "k_test must be an integer, got nan"),
        ("k_test", 1.5, "k_test must be an integer, got 1.5"),
        ("k_test", True, "k_test must be an integer, got True"),
    ])
    def test_rejects_out_of_range(self, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(target_for(EpsilonBudget(eps_pe=5e-6)), **{name: value})


GOLDEN_DATA = pathlib.Path(__file__).parent / "data"
#: Settings of the golden batch besides each configuration's own: a dim and
#: a bright source, a weak decoy, and a hopeless one at long range.
GOLDEN_SETTINGS = [
    {"mu": 0.3, "nu": 0.05, "p_mu": 0.9, "p_z_tx": 0.6, "p_z_rx": 0.9},
    {"mu": 0.9, "nu": 0.35, "p_mu": 0.5, "p_z_tx": 0.95, "p_z_rx": 0.55},
    {"mu": 0.55, "nu": 0.02, "p_mu": 0.75, "p_z_tx": 0.75, "p_z_rx": 0.75},
    {"mu": 0.2, "nu": 0.185, "p_mu": 0.95, "p_z_tx": 0.95, "p_z_rx": 0.95},
]
GOLDEN_RUNS = {
    "device.cfg": [0.0, 103.0, 204.0, 280.0],
    "desk.cfg": [0.0, 10.0, 30.0, 60.0],
}


def _verdict(value):
    """A solver verdict or a report as JSON: errors by their message."""
    if isinstance(value, Infeasible):
        return {"infeasible": str(value)}
    if isinstance(value, Pruned):
        return {"pruned": value.lower}
    if isinstance(value, SecurityReport):
        return dataclasses.asdict(value)
    return value


def _report_or_error(*args, **kwargs):
    try:
        return _verdict(block_report(*args, **kwargs))
    except Infeasible as exc:
        return _verdict(exc)


def bound_chain_record():
    """Verdicts and reports of a fixed batch, as ``golden_bound_chain.json`` holds them.

    For each configuration, distance and test-sample size: the uncapped
    verdicts of the configured setting and ``GOLDEN_SETTINGS`` solved as one
    stack, the verdicts with caps L - 2, L and L + 2 in turn (1000 where
    there is no L), and the reports at each solved L and at half of it.
    The measured tables are reported at their solved L as well.
    """
    from qds_onedecoy.files import read_config, read_counts
    from qds_onedecoy.channel import model_links

    record = []
    for name, distances in GOLDEN_RUNS.items():
        config = read_config(str(GOLDEN_DATA / name))
        n_pulses = config.source.n_pulses
        rows = [vars(config.source), *GOLDEN_SETTINGS]
        stack = PulseConfig.stack(np.array([[row[k] for k in GOLDEN_SETTINGS[0]] for row in rows]),
                                  n_pulses=n_pulses)
        for km in distances:
            ch = config.channel(km)
            cbl = model_links(stack, ch)
            for k_test in (None, 3000):
                target = dataclasses.replace(config.target, k_test=k_test)
                solved = solve_all(cbl, stack, target)
                caps = [
                    1000 if isinstance(L, Infeasible) else L + 2 * (i % 3 - 1)
                    for i, L in enumerate(solved)
                ]
                capped = solve_all(cbl, stack, target, cap=np.array(caps))
                reports = []
                for row, L in zip(rows, solved):
                    if isinstance(L, Infeasible):
                        continue
                    pc = PulseConfig(**{**row, "n_pulses": n_pulses})
                    for length in (L, max(2, L // 4 * 2)):
                        reports.append(
                            _report_or_error(model_links(pc, ch), pc, ch, target, length)
                        )
                record.append({
                    "config": name, "km": km, "k_test": k_test,
                    "solved": [_verdict(v) for v in solved], "caps": caps,
                    "capped": [_verdict(v) for v in capped], "reports": reports,
                })
    config = read_config(str(GOLDEN_DATA / "device.cfg"))
    for table in ("counts_103km.csv", "counts_204km.csv", "counts_280km.csv",
                  "model_103km.csv"):
        cbl, km, n_pulses = read_counts(str(GOLDEN_DATA / table))
        pc, ch = config.pulse_config(n_pulses), config.channel(km)
        for k_test in (None, 3000):
            target = dataclasses.replace(config.target, k_test=k_test)
            [L] = solve_all(cbl, pc, target)
            record.append({
                "table": table, "k_test": k_test, "solved": _verdict(L),
                "report": None if isinstance(L, Infeasible) else _report_or_error(
                    cbl, pc, ch, target, L),
            })
    return record


class TestGoldenBoundChain:
    """Solver verdicts and full reports of a fixed batch, bit for bit, against
    a record written by ``bound_chain_record`` (``json.dump(..., indent=1)``)
    before the chain's L-invariant terms were computed once per solve."""

    def test_bit_identical(self):
        with open(GOLDEN_DATA / "golden_bound_chain.json") as fp:
            assert bound_chain_record() == json.load(fp)
