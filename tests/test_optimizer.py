"""Optimizer tests on a closed-form objective and on the real pipeline."""

import pathlib

import numpy as np
import pytest

from qds_onedecoy.channel import ChannelParams, PulseConfig, expected_statistics
from qds_onedecoy.files import read_config
from qds_onedecoy.finite_key import EpsilonBudget
from qds_onedecoy.optimizer import (
    PARAM_NAMES,
    SearchSpace,
    _param_key,
    evaluate,
    maximize,
    optimize,
)
from qds_onedecoy.protocol import model_links
from qds_onedecoy.security import InfeasibleTarget, block_report

# analytic maximiser placed inside every box used below
PEAK = {"mu": 0.55, "nu": 0.17, "p_mu": 0.72, "p_z_tx": 0.81, "p_z_rx": 0.66}


def concave_value(params):
    value = 1.0
    for name in PARAM_NAMES:
        value -= (params[name] - PEAK[name]) ** 2
    return value


def batched(value):
    """The batch objective ``maximize`` takes, from a one-point function
    that ignores the incumbent."""
    return lambda batch, incumbent: [value(params) for params in batch]


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

        def spy(batch, incumbent):
            seen.extend(batch)
            return concave_objective(batch, incumbent)

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


DEVICE = read_config(str(pathlib.Path(__file__).parent / "data" / "device.cfg"))


def device_evaluate(batch, ch, incumbent=None, **fixed):
    """``evaluate`` of parameter dicts under the device configuration;
    ``fixed`` overrides parameters of every point."""
    stack = PulseConfig.stack(
        [{**params, **fixed} for params in batch], n_pulses=DEVICE.source.n_pulses
    )
    return evaluate(stack, ch, DEVICE.budget, DEVICE.alpha, DEVICE.eps,
                    DEVICE.target_psec, incumbent)


def rate_objective(ch, prune, **fixed):
    """A ``maximize`` objective of rates, pruning against its incumbent or not."""
    def objective(batch, incumbent):
        results = device_evaluate(batch, ch, incumbent if prune else None, **fixed)
        return [None if r is None else r.rate for r in results]

    return objective


class TestIncumbentPruning:
    """Pruning settles losing settings early and changes no result."""

    @pytest.mark.parametrize("grid", [2, 3])
    @pytest.mark.parametrize("km", [0.0, 103.0, 204.0, 280.0])
    def test_optimize_matches_a_search_without_pruning(self, grid, km):
        space, ch = SearchSpace(grid_points=grid), DEVICE.channel(km)
        lengths = {}

        def exact(batch, incumbent):
            results = device_evaluate(batch, ch)
            for params, r in zip(batch, results):
                if r is not None:
                    assert not r.pruned
                    lengths[_param_key(params)] = r.L
            return [None if r is None else r.rate for r in results]

        best, rate, evaluations, n_feasible = maximize(space, exact)
        pc = PulseConfig(n_pulses=DEVICE.source.n_pulses, **best)
        L = lengths[_param_key(best)]
        report = block_report(model_links(pc, ch), pc, ch, DEVICE.budget,
                              DEVICE.alpha, DEVICE.eps, L)
        found = optimize(space, ch, DEVICE.budget, DEVICE.alpha, DEVICE.eps,
                         DEVICE.target_psec, DEVICE.source.n_pulses)
        assert found.best.params == pc
        assert (found.best.rate, found.best.L, found.best.report) == (rate, L, report)
        assert (found.evaluations, found.n_feasible) == (evaluations, n_feasible)
        assert 0 < found.pruned < n_feasible

    def test_exact_tie_with_the_incumbent_is_solved_not_pruned(self):
        ch = DEVICE.channel(103.0)
        point = {"mu": 0.6, "nu": 0.2, "p_mu": 0.6, "p_z_tx": 0.85, "p_z_rx": 0.85}
        [exact] = device_evaluate([point], ch)
        [tied] = device_evaluate([point], ch, incumbent=exact.rate)
        assert tied == exact and not tied.pruned
        # one ulp faster than the point can sign: pruned, with a rate bound
        # below the incumbent and a length bound at most its L
        faster = float(np.nextafter(exact.rate, np.inf))
        [beaten] = device_evaluate([point], ch, incumbent=faster)
        assert beaten.pruned
        assert beaten.rate < faster and beaten.L <= exact.L

    def test_tied_points_still_reach_the_tie_break(self):
        # the objective ignores p_z_rx, so points that differ only there tie
        # bit for bit: each tie with the incumbent is solved, and the tie-break
        # picks the smallest p_z_rx, as in a search without pruning
        ch, space = DEVICE.channel(103.0), SearchSpace(grid_points=3)
        ties = []
        pruning = rate_objective(ch, prune=True, p_z_rx=0.85)

        def spy(batch, incumbent):
            values = pruning(batch, incumbent)
            ties.extend(v for v in values if v == incumbent)
            return values

        best, rate, evaluations, n_feasible = maximize(space, spy)
        assert ties
        assert best["p_z_rx"] == space.p_z_rx[0]
        assert (best, rate, evaluations, n_feasible) == maximize(
            space, rate_objective(ch, prune=False, p_z_rx=0.85)
        )
