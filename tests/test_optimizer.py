"""Optimizer tests on a closed-form objective and on the real pipeline."""

import pytest

from qds_onedecoy.channel import ChannelParams, PulseConfig, expected_statistics
from qds_onedecoy.finite_key import EpsilonBudget
from qds_onedecoy.optimizer import (
    PARAM_NAMES,
    SearchSpace,
    evaluate,
    maximize,
    optimize,
)
from qds_onedecoy.security import InfeasibleTarget, block_report

# analytic maximiser placed inside every box used below
PEAK = {"mu": 0.55, "nu": 0.17, "p_mu": 0.72, "p_z_tx": 0.81, "p_z_rx": 0.66}


def concave_value(params):
    value = 1.0
    for name in PARAM_NAMES:
        value -= (params[name] - PEAK[name]) ** 2
    return value


def batched(value):
    """The batch objective ``maximize`` takes, from a one-point function."""
    return lambda batch: [value(params) for params in batch]


concave_objective = batched(concave_value)


class TestMaximize:
    def test_finds_analytic_peak_within_a_cell(self):
        space = SearchSpace(
            mu=(0.3, 0.9), nu=(0.05, 0.29), p_mu=(0.55, 0.9),
            p_z_tx=(0.6, 0.9), p_z_rx=(0.55, 0.9), grid_points=4,
        )
        best, value, evaluations, n_feasible = maximize(space, concave_objective)
        assert best is not None
        for name in PARAM_NAMES:
            lo, hi = space.bounds(name)
            cell = (hi - lo) / (space.grid_points - 1)
            assert abs(best[name] - PEAK[name]) <= cell
        assert value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-3)
        assert n_feasible <= evaluations

    def test_enlarging_the_box_never_hurts(self):
        # the larger box is grid-aligned with the smaller one
        narrow = SearchSpace(
            mu=(0.4, 0.7), nu=(0.05, 0.29), p_mu=(0.55, 0.9),
            p_z_tx=(0.6, 0.9), p_z_rx=(0.55, 0.9), grid_points=4,
        )
        wide = SearchSpace(
            mu=(0.4, 1.0), nu=(0.05, 0.29), p_mu=(0.55, 0.9),
            p_z_tx=(0.6, 0.9), p_z_rx=(0.55, 0.9), grid_points=7,
        )
        _, v_narrow, _, _ = maximize(narrow, concave_objective)
        _, v_wide, _, _ = maximize(wide, concave_objective)
        assert v_wide >= v_narrow - 1e-9

    def test_all_infeasible_returns_none(self):
        space = SearchSpace(grid_points=2)
        best, value, evaluations, n_feasible = maximize(space, batched(lambda p: None))
        assert best is None
        assert n_feasible == 0
        assert evaluations > 0

    def test_respects_intensity_ordering(self):
        seen = []

        def spy(batch):
            seen.extend(batch)
            return concave_objective(batch)

        space = SearchSpace(mu=(0.2, 0.5), nu=(0.1, 0.45), grid_points=3)
        maximize(space, spy)
        assert all(p["nu"] < p["mu"] for p in seen)

    def test_deterministic_tie_break_prefers_dim_source(self):
        # flat objective: every feasible point ties at 0
        space = SearchSpace(grid_points=3)
        best, _, _, _ = maximize(space, batched(lambda p: 0.0))
        assert best["mu"] == space.mu[0]
        assert best["nu"] == space.nu[0]
        assert best["p_mu"] == space.p_mu[1]


class TestSearchSpaceValidation:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SearchSpace(mu=(0.8, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SearchSpace(p_mu=(0.0, 0.9))
        with pytest.raises(ValueError):
            SearchSpace(mu=(0.2, 1.2))
        with pytest.raises(ValueError):
            SearchSpace(grid_points=1)


DESK_CH = ChannelParams(distance_km=5.0)
DESK_BUDGET = EpsilonBudget(eps_pe=1e-3)


class TestEvaluate:
    def test_feasible_point_reports_rate(self):
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8,
                         n_pulses=1e7)
        [result] = evaluate([pc], DESK_CH, DESK_BUDGET, alpha=1e-3, eps=1e-10,
                            target_psec=5e-2)
        assert result is not None
        assert result.rate > 0.0
        assert result.L % 2 == 0
        counts = expected_statistics(pc, DESK_CH)
        report = block_report({"bob_alice": counts, "charlie_alice": counts}, pc,
                              DESK_CH, DESK_BUDGET, 1e-3, 1e-10, result.L)
        assert report.p_sec <= 5e-2
        assert report.rate_bits_per_s == result.rate

    def test_hopeless_point_returns_none(self):
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8,
                         n_pulses=1e7)
        far = ChannelParams(distance_km=500.0)
        assert evaluate([pc], far, DESK_BUDGET, 1e-3, 1e-10, 5e-2) == [None]

    def test_bad_target_propagates(self):
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8,
                         n_pulses=1e7)
        with pytest.raises(InfeasibleTarget):
            evaluate([pc], DESK_CH, DESK_BUDGET, 1e-3, 1e-10, target_psec=1e-4)


class TestOptimize:
    def test_finds_a_feasible_working_point(self):
        space = SearchSpace(
            mu=(0.4, 0.8), nu=(0.1, 0.3), p_mu=(0.5, 0.8),
            p_z_tx=(0.7, 0.9), p_z_rx=(0.7, 0.9), grid_points=2,
        )
        result = optimize(space, DESK_CH, DESK_BUDGET, alpha=1e-3, eps=1e-10,
                          target_psec=5e-2, n_pulses=1e7)
        assert result.best is not None
        assert result.best.rate > 0.0
        assert result.n_feasible >= 1
        # the chosen point really lies in the box
        assert space.mu[0] <= result.best.params.mu <= space.mu[1]

    def test_runs_are_reproducible(self):
        space = SearchSpace(
            mu=(0.4, 0.8), nu=(0.1, 0.3), p_mu=(0.5, 0.8),
            p_z_tx=(0.7, 0.9), p_z_rx=(0.7, 0.9), grid_points=2,
        )
        r1 = optimize(space, DESK_CH, DESK_BUDGET, 1e-3, 1e-10, 5e-2, n_pulses=1e7)
        r2 = optimize(space, DESK_CH, DESK_BUDGET, 1e-3, 1e-10, 5e-2, n_pulses=1e7)
        assert r1.best.params == r2.best.params
        assert r1.best.rate == r2.best.rate
