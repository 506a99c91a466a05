"""Optimizer tests on a closed-form objective and on the real pipeline."""

import dataclasses
import itertools
import math
import pathlib
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds_onedecoy import optimizer, security
from qds_onedecoy.channel import ChannelParams, PulseConfig, expected_statistics, model_links
from qds_onedecoy.cli import main
from qds_onedecoy.files import read_config
from qds_onedecoy.finite_key import EpsilonBudget
from qds_onedecoy.optimizer import (
    DESCENT_ROUNDS,
    PARAM_NAMES,
    SCAN_POINTS,
    SEED_POINTS,
    SearchSpace,
    evaluate,
    maximize,
    optimize,
)
from qds_onedecoy.security import (
    InfeasibleTarget,
    SecurityTarget,
    Verdicts,
    block_report,
    min_signature_length,
    signature_time_and_rate,
)
from strategies import settings_in_space

# analytic maximiser placed inside every box used below
PEAK = {"mu": 0.55, "nu": 0.17, "p_mu": 0.72, "p_z_tx": 0.81, "p_z_rx": 0.66}


def concave_value(params):
    value = 1.0
    for name in PARAM_NAMES:
        value -= (params[name] - PEAK[name]) ** 2
    return value


def as_dicts(points):
    """The rows of a point array as parameter dicts."""
    return [dict(zip(PARAM_NAMES, row)) for row in points.tolist()]


def batched(value):
    """The batch objective ``maximize`` takes, from a one-point function
    of a parameter dict that ignores the incumbent."""
    return lambda points, incumbent: [value(params) for params in as_dicts(points)]


concave_objective = batched(concave_value)


def param_key(params):
    return tuple(params[n] for n in PARAM_NAMES)


def reference_maximize(space, objective):
    """The search with one objective call per pass, the grid and each
    coordinate scan in turn, over parameter dicts rounded to 12 decimals
    and clipped to the box: the oracle the speculative ``maximize`` must
    match in all but its call count."""
    cache = {}
    evaluations = n_feasible = 0
    best_params, best_value, best_key = None, -math.inf, None
    lows, highs = zip(*(getattr(space, n) for n in PARAM_NAMES))

    def consider(candidates):
        nonlocal evaluations, n_feasible, best_params, best_value, best_key
        candidates = [
            dict(zip(PARAM_NAMES, np.clip(np.round(param_key(p), 12), lows, highs).tolist()))
            for p in candidates
        ]
        fresh = {}
        for params in candidates:
            key = param_key(params)
            if params["nu"] < params["mu"] and key not in cache:
                fresh.setdefault(key, dict(params))
        if fresh:
            points = np.array([[p[n] for n in PARAM_NAMES] for p in fresh.values()])
            for key, value in zip(fresh, objective(points, best_value)):
                cache[key] = None if value is None or value != value else float(value)
                evaluations += 1
                n_feasible += cache[key] is not None
        for params in candidates:
            if params["nu"] >= params["mu"] or cache[param_key(params)] is None:
                continue
            value = cache[param_key(params)]
            key = (params["mu"], params["nu"], -params["p_mu"], params["p_z_tx"],
                   params["p_z_rx"])
            if value > best_value or (value == best_value and (best_key is None or key < best_key)):
                best_params, best_value, best_key = dict(params), value, key

    axes = [np.linspace(*getattr(space, n), space.grid_points) for n in PARAM_NAMES]
    consider([dict(zip(PARAM_NAMES, map(float, combo))) for combo in itertools.product(*axes)])
    if best_params is None:
        return None, -math.inf, evaluations, n_feasible
    for round_idx in range(DESCENT_ROUNDS):
        for name in PARAM_NAMES:
            lo, hi = getattr(space, name)
            radius = (hi - lo) / (space.grid_points - 1) / 2.0**round_idx
            center = best_params[name]
            consider([
                {**best_params, name: float(value)}
                for value in np.linspace(max(lo, center - radius), min(hi, center + radius),
                                         SCAN_POINTS)
            ])
    return best_params, best_value, evaluations, n_feasible


def tuple_maximize(space, objective):
    """``maximize`` as written over per-point tuples, a dict of values and
    rank tuples: the oracle of the search over arrays, which must match it
    in every result and every objective call."""
    lows, highs = np.array([getattr(space, name) for name in PARAM_NAMES]).T
    values, taken = {}, set()
    best, best_value = None, -math.inf

    def rank(value, point, i):
        mu, nu, p_mu, p_z_tx, p_z_rx = point
        return (-value, mu, nu, -p_mu, p_z_tx, p_z_rx, i)

    def lattice(points):
        on = optimizer._on_lattice(points, lows, highs).tolist()
        return [[tuple(row) for row in scan if row[1] < row[0]] for scan in on]

    def fetch(rows):
        fresh = [row for row in dict.fromkeys(rows) if row not in values]
        if fresh:
            found = objective(np.array(fresh), best_value)
            values.update(zip(fresh, np.asarray(found, dtype=float).tolist()))

    def ahead(j, around, radius):
        fresh = {row: k for k in range(j, len(around)) for row in around[k] if row not in values}
        centres = [(row, k + 1) for row, k in fresh.items() if k + 1 < len(around)]
        branches = []
        if centres:
            rows, nexts = zip(*centres)
            scans = optimizer._scans(np.array(rows), radius, lows, highs)
            branches = lattice(scans[np.arange(len(rows)), nexts])
        fetch([*fresh, *(row for scan in branches for row in scan)])

    def consider(rows):
        nonlocal best, best_value
        taken.update(rows)
        ranked = [rank(values[row], row, i) for i, row in enumerate(rows)
                  if values[row] > -math.inf]
        if best is not None:
            ranked.append(rank(best_value, best, -1))
        if not ranked:
            return False
        value, *_, winner = min(ranked)
        if winner < 0:
            return False
        best, best_value = rows[winner], -value
        return True

    def counts():
        found = [values[row] for row in taken]
        return len(found), sum(not math.isnan(v) for v in found), found.count(-math.inf)

    axes = [np.linspace(*getattr(space, name), space.grid_points) for name in PARAM_NAMES]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    [rows] = lattice(grid[None])
    fetch(rows)
    consider(rows)
    if best is None:
        return None, -math.inf, *counts()
    cell = (highs - lows) / (space.grid_points - 1)
    for round_idx in range(DESCENT_ROUNDS):
        radius = cell / 2.0**round_idx
        moved = True
        for j in range(len(PARAM_NAMES)):
            if moved:
                around = lattice(optimizer._scans(np.array(best), radius, lows, highs))
            if any(row not in values for row in around[j]):
                ahead(j, around, radius)
            moved = consider(around[j])
    return dict(zip(PARAM_NAMES, best)), best_value, *counts()


@st.composite
def search_spaces(draw):
    """A search box of random bounds, mu's in (0, 1] and the others' in
    (0, 1), and a grid of 2 to 4 points a side."""
    bounds = {}
    for name in PARAM_NAMES:
        top = 1.0 if name == "mu" else 0.999
        lo, hi = sorted(draw(st.lists(st.floats(1e-3, top), min_size=2, max_size=2, unique=True)))
        bounds[name] = (lo, hi)
    return SearchSpace(grid_points=draw(st.integers(2, 4)), **bounds)


@st.composite
def rough_objectives(draw):
    """A batch objective over a box of few distinct values: a concave bump
    in box units rounded to ``levels`` steps, so that points tie exactly,
    NaN or -inf on a share of the points picked by their bytes, and, when
    pruning, -inf for every value below the incumbent."""
    space = draw(search_spaces())
    lows, highs = np.array([getattr(space, name) for name in PARAM_NAMES]).T
    peak = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))
    levels = draw(st.sampled_from([1, 3, 20, 1000]))
    nan_every, inf_every = draw(st.sampled_from([0, 2, 5])), draw(st.sampled_from([0, 3, 7]))
    prune = draw(st.booleans())

    def value(row):
        key = zlib.crc32(row.tobytes())
        if nan_every and key % nan_every == 0:
            return math.nan
        if inf_every and key % inf_every == 1:
            return -math.inf
        return round((1.0 - (((row - lows) / (highs - lows) - peak) ** 2).sum()) * levels) / levels

    def objective(points, incumbent):
        values = [value(row) for row in points]
        return [-math.inf if prune and v < incumbent else v for v in values]

    return space, objective


class TestMaximize:
    def test_finds_analytic_peak_within_a_cell(self):
        space = SearchSpace(
            mu=(0.3, 0.9), nu=(0.05, 0.29), p_mu=(0.55, 0.9),
            p_z_tx=(0.6, 0.9), p_z_rx=(0.55, 0.9), grid_points=4,
        )
        best, value, evaluations, n_feasible, _ = maximize(space, concave_objective)
        assert best is not None
        for name in PARAM_NAMES:
            lo, hi = getattr(space, name)
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
        v_narrow = maximize(narrow, concave_objective)[1]
        v_wide = maximize(wide, concave_objective)[1]
        assert v_wide >= v_narrow - 1e-9

    def test_all_infeasible_returns_none(self):
        space = SearchSpace(grid_points=2)
        best, value, evaluations, n_feasible, _ = maximize(space, batched(lambda p: None))
        assert best is None
        assert n_feasible == 0
        assert evaluations > 0

    def test_respects_intensity_ordering(self):
        seen = []

        def spy(points, incumbent):
            seen.extend(as_dicts(points))
            return concave_objective(points, incumbent)

        space = SearchSpace(mu=(0.2, 0.5), nu=(0.1, 0.45), grid_points=3)
        maximize(space, spy)
        assert all(p["nu"] < p["mu"] for p in seen)

    def test_deterministic_tie_break_prefers_dim_source(self):
        # flat objective: every feasible point ties at 0
        space = SearchSpace(grid_points=3)
        best = maximize(space, batched(lambda p: 0.0))[0]
        assert best["mu"] == space.mu[0]
        assert best["nu"] == space.nu[0]
        assert best["p_mu"] == space.p_mu[1]

    def test_no_point_is_evaluated_twice(self):
        seen = []

        def spy(points, incumbent):
            seen.extend(map(tuple, points.tolist()))
            return concave_objective(points, incumbent)

        _, _, evaluations, _, _ = maximize(SearchSpace(grid_points=3), spy)
        assert len(seen) == len(set(seen)) >= evaluations

    def test_each_call_gets_its_own_writable_points(self):
        # an objective may overwrite the array it is given, and keep it
        space = SearchSpace(grid_points=3)
        plain, calls, kept = [], [], []

        def recording(points, incumbent):
            plain.append((points.tobytes(), incumbent))
            return concave_objective(points, incumbent)

        def spy(points, incumbent):
            calls.append((points.tobytes(), incumbent))
            values = concave_objective(points, incumbent)
            points[:] = -1.0
            kept.append(points)
            return values

        assert maximize(space, spy) == maximize(space, recording)
        assert calls == plain
        assert all((points == -1.0).all() for points in kept)


def low_bits(x):
    """The last bits of a float: points a rounding error apart differ here."""
    return struct.unpack("<q", struct.pack("<d", x))[0] % 5


@st.composite
def objectives(draw):
    """A one-point objective over the default box: concave around a random
    peak, blind to the coordinates of weight 0 (ties between points that
    differ only there), flattened into steps (ties across the box),
    infeasible above a threshold in one coordinate, and perturbed by the
    coordinates' last bits (points a rounding error apart would take
    different values, had they not been put on one lattice point)."""
    space = SearchSpace()
    peak = {n: draw(st.floats(*getattr(space, n))) for n in PARAM_NAMES}
    weight = {n: draw(st.sampled_from([0.0, 0.3, 1.0, 4.0])) for n in PARAM_NAMES}
    step = draw(st.sampled_from([0.0, 1e-3, 0.02]))
    jitter = draw(st.sampled_from([0.0, 1e-3]))
    wall = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(PARAM_NAMES), st.floats(0.3, 1.0),
    )))

    def value(params):
        if wall is not None:
            name, share = wall
            lo, hi = getattr(space, name)
            if params[name] > lo + share * (hi - lo):
                return None
        v = 1.0 - sum(weight[n] * (params[n] - peak[n]) ** 2 for n in PARAM_NAMES)
        v += jitter * sum(low_bits(params[n]) for n in PARAM_NAMES)
        return round(v / step) * step if step else v

    return value


def pruning(value):
    """A batch objective that reports -inf for every point below the
    incumbent, as ``optimize``'s does for pruned settings."""
    def objective(points, incumbent):
        values = [value(params) for params in as_dicts(points)]
        return [v if v is None or v >= incumbent else -math.inf for v in values]

    return objective


def coupled(space, start=0.1, shift=-0.9, jitter=0.0):
    """A one-point objective over ``space`` on which each move along one
    coordinate shifts the optimum along the next: in box units u, concave
    around u_0 = start and each u_j+1 = 0.5 + shift * (u_j - 0.5), plus
    ``jitter`` times the coordinates' last bits."""
    bounds = [getattr(space, name) for name in PARAM_NAMES]

    def value(params):
        u = [(params[name] - lo) / (hi - lo) for name, (lo, hi) in zip(PARAM_NAMES, bounds)]
        v = 1.0 - (u[0] - start) ** 2
        for prev, this in zip(u, u[1:]):
            v -= (this - 0.5 - shift * (prev - 0.5)) ** 2
        return v + jitter * sum(low_bits(params[name]) for name in PARAM_NAMES)

    return value


#: Objective calls of ``maximize`` on ``coupled`` by grid_points: the grid
#: call and one per scan whose points no earlier call evaluated ahead
COUPLED_CALLS = {2: 12, 3: 10}


class TestArraySearch:
    """``maximize`` keeps one dict from a point's coordinate bytes to its
    value; it must make the calls, and give the results, of the search over
    tuples it replaces."""

    @given(rough_objectives())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_tuple_search(self, drawn):
        space, objective = drawn
        calls = {"array": [], "tuple": []}

        def recording(log):
            def call(points, incumbent):
                log.append((points.tobytes(), incumbent))
                return objective(points, incumbent)
            return call

        got = maximize(space, recording(calls["array"]))
        want = tuple_maximize(space, recording(calls["tuple"]))
        assert got[0] == want[0]
        assert got[1:] == want[1:] or (math.isnan(got[1]) and math.isnan(want[1]))
        assert calls["array"] == calls["tuple"]

    @pytest.mark.parametrize("km", [0.0, 103.0, 280.0])
    def test_matches_the_tuple_search_on_the_device(self, km):
        ch, space = DEVICE.channel(km), SearchSpace(grid_points=2)
        objective = rate_objective(ch, prune=True)
        assert maximize(space, objective) == tuple_maximize(space, objective)


class TestSpeculation:
    """Evaluating later and branch scans ahead changes the call count, and
    the pruned count, and nothing else."""

    @given(objectives(), st.integers(2, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_one_scan_per_call(self, value, grid, prune):
        space = SearchSpace(grid_points=grid)
        found = maximize(space, pruning(value) if prune else batched(value))
        assert found[:4] == reference_maximize(space, batched(value))

    def test_points_sharing_a_key_take_the_first_points_value(self):
        # a scan endpoint and the grid point it meets may differ in their
        # last bits; both round to one lattice point, which is evaluated
        # once and counted when first taken
        space = SearchSpace(grid_points=3)
        for seed in range(100):
            rng = random.Random(seed)
            peak = {n: rng.uniform(*getattr(space, n)) for n in PARAM_NAMES}

            def value(params):
                return 1.0 - sum((params[n] - peak[n]) ** 2 + 1e-3 * low_bits(params[n])
                                 for n in PARAM_NAMES)

            found = maximize(space, batched(value))
            assert found[:4] == reference_maximize(space, batched(value)), seed

    @pytest.mark.parametrize("grid", sorted(COUPLED_CALLS))
    @pytest.mark.parametrize("prune", [False, True])
    def test_coupled_coordinates_match_one_scan_per_call(self, grid, prune):
        # each scan that moves the best point moves the next scan's
        # optimum: the branch scan around the winner is that next scan
        space = SearchSpace(grid_points=grid)
        value = coupled(space)
        objective, calls = pruning(value) if prune else batched(value), []

        def spy(points, incumbent):
            calls.append(len(points))
            return objective(points, incumbent)

        found = maximize(space, spy)
        assert found[:4] == reference_maximize(space, batched(value))
        assert len(calls) == COUPLED_CALLS[grid]

    def test_a_branch_point_lends_its_value_to_its_own_coordinates_only(self):
        # values that depend on the coordinates' last bits: a branch point's
        # value taken for a point a rounding error away would show
        space = SearchSpace(grid_points=3)
        for seed in range(40):
            rng = random.Random(seed)
            value = coupled(space, rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0), jitter=1e-3)
            found = maximize(space, batched(value))
            assert found[:4] == reference_maximize(space, batched(value)), seed

    @pytest.mark.parametrize("km", [0.0, 103.0, 204.0, 280.0])
    def test_fewer_objective_calls_than_passes(self, monkeypatch, km):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(optimizer, "evaluate", counting)
        found = optimize(SearchSpace(grid_points=3), DEVICE.channel(km), DEVICE.target,
                         DEVICE.source.n_pulses)
        assert found.report is not None
        # one pass is the grid, then one per coordinate scan
        assert len(calls) < 1 + DESCENT_ROUNDS * len(PARAM_NAMES)


#: The points of one ``optimize`` at grid 3 on device.cfg, by distance:
#: evaluated and feasible.  What is evaluated ahead must not move them.
SEARCH_POINTS = {
    0.0: (289, 289),
    100.0: (292, 291),
    200.0: (295, 277),
    280.0: (278, 171),
}
#: The work of the same searches: chain calls (the final report's
#: included), ``evaluate`` calls and pruned points, recorded from the
#: search that evaluates a branch scan around each point ahead, whose
#: capped first rounds spread down from the cap and whose seed solve races
SEARCH_WORK = {
    0.0: (26, 8, 269),
    100.0: (26, 8, 273),
    200.0: (29, 9, 254),
    280.0: (19, 6, 161),
}


def count_search_work(monkeypatch) -> dict[str, int]:
    """Counts of ``_bound_chain`` and ``evaluate`` calls from now on."""
    calls = {"chain": 0, "evaluate": 0}

    def counting(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    monkeypatch.setattr(security, "_bound_chain", counting("chain", security._bound_chain))
    monkeypatch.setattr(optimizer, "evaluate", counting("evaluate", evaluate))
    return calls


@pytest.mark.parametrize("km", sorted(SEARCH_WORK))
def test_search_work_is_pinned(monkeypatch, km):
    calls = count_search_work(monkeypatch)
    found = optimize(SearchSpace(grid_points=3), DEVICE.channel(km), DEVICE.target,
                     DEVICE.source.n_pulses)
    assert (found.evaluations, found.n_feasible) == SEARCH_POINTS[km]
    assert (calls["chain"], calls["evaluate"], found.pruned) == SEARCH_WORK[km]


def test_default_sweep_work_is_pinned(monkeypatch, capsys):
    # the default ``qds rate-curve`` sweep: 15 distances at grid 4
    calls = count_search_work(monkeypatch)
    assert main(["rate-curve", "--config", DEVICE_PATH]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16
    assert (calls["chain"], calls["evaluate"]) == (377, 118)


def reference_scans(centre, radius, lows, highs):
    """The coordinate scans as built with ``np.tile`` and
    ``np.linspace(..., axis=-1)``: the oracle of ``optimizer._scans``."""
    start, stop = np.maximum(lows, centre - radius), np.minimum(highs, centre + radius)
    points = np.tile(centre, (len(PARAM_NAMES), SCAN_POINTS, 1))
    coords = np.arange(len(PARAM_NAMES))
    points[coords, :, coords] = np.linspace(start, stop, SCAN_POINTS, axis=-1)
    return points


@st.composite
def boxes_and_centres(draw):
    """A search box, its grid cell and a centre on the 12-decimal lattice in it."""
    edges = [sorted(draw(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=2, unique=True)))
             for _ in PARAM_NAMES]
    lows, highs = np.array(edges).T
    cell = (highs - lows) / (draw(st.integers(2, 10)) - 1)
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))
    centre = np.clip(np.round(lows + share * (highs - lows), 12), lows, highs)
    return lows, highs, cell, centre


class TestWrittenOutIdioms:
    """The scan lines and the lattice are written with plain ufuncs; each
    must be bit for bit the numpy idiom it replaces."""

    @given(boxes_and_centres())
    @settings(max_examples=200, deadline=None)
    def test_scans_match_linspace(self, drawn):
        lows, highs, cell, centre = drawn
        for round_idx in range(DESCENT_ROUNDS):
            radius = cell / 2.0**round_idx
            got = optimizer._scans(centre, radius, lows, highs)
            assert got.tobytes() == reference_scans(centre, radius, lows, highs).tobytes()

    @given(st.lists(boxes_and_centres(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_a_batch_of_centres_gets_each_centres_scans(self, drawn):
        # the branch scans are built for many centres at once
        lows, highs, cell, _ = drawn[0]
        centres = np.array([np.clip(centre, lows, highs) for *_, centre in drawn])
        for round_idx in range(DESCENT_ROUNDS):
            radius = cell / 2.0**round_idx
            batch = optimizer._scans(centres, radius, lows, highs)
            assert batch.shape == (len(centres), len(PARAM_NAMES), SCAN_POINTS, len(PARAM_NAMES))
            for centre, got in zip(centres, batch):
                assert got.tobytes() == reference_scans(centre, radius, lows, highs).tobytes()

    @given(boxes_and_centres(), st.lists(st.floats(-0.5, 1.5), min_size=5, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_lattice_matches_clip(self, drawn, values):
        lows, highs, cell, centre = drawn
        scans = [optimizer._scans(centre, cell / 2.0**r, lows, highs) for r in range(DESCENT_ROUNDS)]
        points = np.concatenate(
            [scan.reshape(-1, len(PARAM_NAMES)) for scan in scans]
            + [np.resize(np.array(values), (len(values), len(PARAM_NAMES)))]
        )
        want = np.clip(np.round(points, 12), lows, highs)
        assert optimizer._on_lattice(points, lows, highs).tobytes() == want.tobytes()


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

    def test_bounds_the_grid(self):
        assert SearchSpace(grid_points=10).grid_points == 10
        assert SearchSpace(grid_points=np.int64(3)) == SearchSpace(grid_points=3)
        with pytest.raises(ValueError, match=r"grid_points must lie in \[2, 10\], got 11"):
            SearchSpace(grid_points=11)

    @pytest.mark.parametrize("value", [2.5, "3", True])
    def test_grid_points_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match=f"grid_points must be an integer, got {value!r}"):
            SearchSpace(grid_points=value)


DESK_CH = ChannelParams(distance_km=5.0)
DESK_BUDGET = EpsilonBudget(eps_pe=1e-3)
DESK_TARGET = SecurityTarget(DESK_BUDGET, alpha=1e-3, eps=1e-10, target_psec=5e-2)
DESK_PC = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8, n_pulses=1e7)


def point_of(pc):
    """The one-row point array of a config."""
    return np.array([[getattr(pc, name) for name in PARAM_NAMES]])


class TestEvaluate:
    def test_feasible_point_reports_rate(self):
        [rate], [L] = evaluate(point_of(DESK_PC), DESK_CH, DESK_TARGET, DESK_PC.n_pulses)
        assert rate > 0.0
        assert L % 2 == 0
        counts = expected_statistics(DESK_PC, DESK_CH)
        report = block_report({"bob_alice": counts, "charlie_alice": counts}, DESK_PC,
                              DESK_CH, DESK_TARGET, int(L))
        assert report.p_sec <= 5e-2
        assert report.rate_bits_per_s == rate

    def test_hopeless_point_is_nan(self):
        far = ChannelParams(distance_km=500.0)
        rate, L = evaluate(point_of(DESK_PC), far, DESK_TARGET, DESK_PC.n_pulses)
        assert np.isnan(rate).all() and L.tolist() == [0]

    def test_bad_target_propagates(self):
        with pytest.raises(InfeasibleTarget):
            evaluate(point_of(DESK_PC), DESK_CH,
                     dataclasses.replace(DESK_TARGET, target_psec=1e-4), DESK_PC.n_pulses)

    @given(st.lists(settings_in_space, min_size=1, max_size=8), st.floats(0.0, 300.0),
           st.integers(0, 7), st.sampled_from([1.0, 0.9, 1.1]))
    @settings(max_examples=20, deadline=None)
    def test_rates_are_exact_pruned_or_infeasible(self, pcs, km, pick, factor):
        # NaN for infeasible, -inf for pruned, else the exact rate with its L
        points, ch = np.vstack([point_of(pc) for pc in pcs]), DEVICE.channel(km)
        stack = PulseConfig.stack(points, n_pulses=DEVICE.source.n_pulses)
        verdicts = min_signature_length(model_links(stack, ch), stack, DEVICE.target)
        exact, exact_L = device_evaluate(points, ch)
        solved = verdicts.code == Verdicts.SOLVED
        assert (np.isfinite(exact) == solved).all() and (np.isnan(exact) == ~solved).all()
        assert (exact_L == np.where(solved, verdicts.L, 0)).all()
        for params, rate, L in zip(as_dicts(points[solved]), exact[solved], exact_L[solved]):
            pc = PulseConfig(n_pulses=DEVICE.source.n_pulses, **params)
            report = block_report(model_links(pc, ch), pc, ch, DEVICE.target, int(L))
            assert report.rate_bits_per_s == rate
        if not solved.any():
            return
        # against a positive incumbent, exactly the slower settings are pruned
        incumbent = float(np.sort(exact[solved])[pick % solved.sum()] * factor)
        rate, L = device_evaluate(points, ch, incumbent)
        slower = exact < incumbent
        assert (np.isneginf(rate) == slower).all()
        kept = ~slower
        assert rate[kept].tobytes() == exact[kept].tobytes()
        assert (L[kept] == exact_L[kept]).all() and (L[slower] == 0).all()

    @pytest.mark.parametrize("km", [0.0, 103.0, 280.0])
    def test_a_grid_call_races_its_seed_against_the_rest(self, km):
        # the grid-3 call of a search: more than SEED_POINTS settings, taken
        # at once, so a strided seed is solved first and races the rest
        axes = [np.linspace(*getattr(SearchSpace(), name), 3) for name in PARAM_NAMES]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 5)
        points = points[points[:, 1] < points[:, 0]]
        assert len(points) > SEED_POINTS
        ch = DEVICE.channel(km)
        rate, L = device_evaluate(points, ch, incumbent=-math.inf)
        # each setting's uncapped, unraced solve, and its rate at that L
        stack = PulseConfig.stack(points, n_pulses=DEVICE.source.n_pulses)
        links = model_links(stack, ch)
        verdicts = min_signature_length(links, stack, DEVICE.target)
        solved = verdicts.code == Verdicts.SOLVED
        _, alone = signature_time_and_rate(np.where(solved, verdicts.L, 2)[:, None], links,
                                           stack, ch)
        alone = np.where(solved, alone.ravel(), np.nan)
        pruned, exact = np.isneginf(rate), np.isfinite(rate)
        assert pruned.any() and exact.any()
        assert (np.isnan(rate) == ~solved).all()
        assert rate[exact].tobytes() == alone[exact].tobytes()
        assert (L[exact] == verdicts.L[exact]).all() and (L[~exact] == 0).all()
        best = np.nanmax(alone)
        assert np.nanmax(rate) == best
        assert (alone[pruned] < best).all()


class TestOptimize:
    def test_finds_a_feasible_working_point(self):
        space = SearchSpace(
            mu=(0.4, 0.8), nu=(0.1, 0.3), p_mu=(0.5, 0.8),
            p_z_tx=(0.7, 0.9), p_z_rx=(0.7, 0.9), grid_points=2,
        )
        result = optimize(space, DESK_CH, DESK_TARGET, n_pulses=1e7)
        assert result.report is not None
        assert result.report.rate_bits_per_s > 0.0
        assert result.n_feasible >= 1
        # the chosen point really lies in the box
        assert space.mu[0] <= result.params.mu <= space.mu[1]

    def test_runs_are_reproducible(self):
        space = SearchSpace(
            mu=(0.4, 0.8), nu=(0.1, 0.3), p_mu=(0.5, 0.8),
            p_z_tx=(0.7, 0.9), p_z_rx=(0.7, 0.9), grid_points=2,
        )
        r1 = optimize(space, DESK_CH, DESK_TARGET, n_pulses=1e7)
        r2 = optimize(space, DESK_CH, DESK_TARGET, n_pulses=1e7)
        assert r1.params == r2.params
        assert r1.report.rate_bits_per_s == r2.report.rate_bits_per_s

    def test_solves_and_reports_under_the_target_test_sample(self):
        # a configured k_test reaches the search's solves and the report alike
        target, ch = dataclasses.replace(DEVICE.target, k_test=3000), DEVICE.channel(100.0)
        found = optimize(SearchSpace(grid_points=2), ch, target, DEVICE.source.n_pulses)
        assert found.report.k_test == 3000
        solved = min_signature_length(model_links(found.params, ch), found.params, target)
        assert solved.code.tolist() == [Verdicts.SOLVED]
        assert [found.report.L] == solved.L.tolist()

    @pytest.mark.parametrize("bounds", [{"p_mu": (4e-13, 0.9)}, {"mu": (0.2000000000004, 0.9)}])
    def test_every_point_lies_inside_a_box_finer_than_the_lattice(self, monkeypatch, bounds):
        # a bound with more than 12 decimals rounds outside the box (p_mu's
        # to 0.0, which no source can have): the point is clipped back
        space = SearchSpace(grid_points=3, **bounds)
        seen = []

        def spy(points, *args):
            seen.append(points)
            return evaluate(points, *args)

        monkeypatch.setattr(optimizer, "evaluate", spy)
        found = optimize(space, DEVICE.channel(103.0), DEVICE.target, DEVICE.source.n_pulses)
        assert found.report is not None
        for name, column in zip(PARAM_NAMES, np.concatenate(seen).T):
            lo, hi = getattr(space, name)
            assert ((lo <= column) & (column <= hi)).all(), name


DEVICE_PATH = str(pathlib.Path(__file__).parent / "data" / "device.cfg")
DEVICE = read_config(DEVICE_PATH)


def device_evaluate(points, ch, incumbent=0.0, **fixed):
    """``evaluate`` of a point array under the device configuration;
    ``fixed`` overrides parameters of every point."""
    points = np.array(points, dtype=float)
    for name, value in fixed.items():
        points[:, PARAM_NAMES.index(name)] = value
    return evaluate(points, ch, DEVICE.target, DEVICE.source.n_pulses, incumbent)


def rate_objective(ch, prune, **fixed):
    """A ``maximize`` objective of rates, pruning against its incumbent or not."""
    def objective(points, incumbent):
        return device_evaluate(points, ch, incumbent if prune else 0.0, **fixed)[0]

    return objective


class TestIncumbentPruning:
    """Pruning settles losing settings early and changes no result."""

    @pytest.mark.parametrize("grid", [2, 3])
    @pytest.mark.parametrize("km", [0.0, 103.0, 204.0, 280.0])
    def test_optimize_matches_a_search_without_pruning(self, grid, km):
        space, ch = SearchSpace(grid_points=grid), DEVICE.channel(km)
        lengths = {}

        def exact(points, incumbent):
            rate, L = device_evaluate(points, ch)
            assert not np.isneginf(rate).any()
            for params, length in zip(as_dicts(points), L.tolist()):
                lengths[param_key(params)] = length
            return rate

        best, rate, evaluations, n_feasible = reference_maximize(space, exact)
        pc = PulseConfig(n_pulses=DEVICE.source.n_pulses, **best)
        L = lengths[param_key(best)]
        report = block_report(model_links(pc, ch), pc, ch, DEVICE.target, L)
        found = optimize(space, ch, DEVICE.target, DEVICE.source.n_pulses)
        assert found.params == pc
        assert (found.report.rate_bits_per_s, found.report.L, found.report) == (rate, L, report)
        assert (found.evaluations, found.n_feasible) == (evaluations, n_feasible)
        assert 0 < found.pruned < n_feasible

    def test_exact_tie_with_the_incumbent_is_solved_not_pruned(self):
        ch = DEVICE.channel(103.0)
        point = [[0.6, 0.2, 0.6, 0.85, 0.85]]
        [rate], [L] = device_evaluate(point, ch)
        assert rate > 0.0
        tied = device_evaluate(point, ch, incumbent=rate)
        assert [a.tolist() for a in tied] == [[rate], [L]]
        # one ulp faster than the point can sign: pruned
        faster = float(np.nextafter(rate, np.inf))
        beaten = device_evaluate(point, ch, incumbent=faster)
        assert [a.tolist() for a in beaten] == [[-math.inf], [0]]

    @given(st.lists(settings_in_space, min_size=9, max_size=20), st.floats(0.0, 250.0))
    @settings(max_examples=20, deadline=None)
    def test_a_grid_call_prunes_only_settings_slower_than_its_best(self, pcs, km):
        # every setting twice, so that the best of the batch always has a tie,
        # and a batch past SEED_POINTS, so that its seed races
        points = [[getattr(pc, name) for name in PARAM_NAMES] for pc in pcs] * 2
        ch = DEVICE.channel(km)
        exact, exact_L = device_evaluate(points, ch)
        rate, L = device_evaluate(points, ch, incumbent=-math.inf)
        assert not np.isneginf(exact).any()
        feasible, pruned = ~np.isnan(exact), np.isneginf(rate)
        assert (np.isnan(rate) == ~feasible).all()
        kept = feasible & ~pruned
        assert rate[kept].tobytes() == exact[kept].tobytes()
        assert (L[kept] == exact_L[kept]).all() and (L[~kept] == 0).all()
        if feasible.any():
            best = exact[feasible].max()
            assert (exact[pruned] < best).all()
            assert not pruned[exact == best].any()

    def test_tied_points_still_reach_the_tie_break(self):
        # the objective ignores p_z_rx, so points that differ only there tie
        # bit for bit: each tie with the incumbent is solved, and the tie-break
        # picks the smallest p_z_rx, as in a search without pruning
        ch, space = DEVICE.channel(103.0), SearchSpace(grid_points=3)
        ties = []
        pruning = rate_objective(ch, prune=True, p_z_rx=0.85)

        def spy(points, incumbent):
            values = pruning(points, incumbent)
            ties.extend(v for v in values.tolist() if v == incumbent)
            return values

        best, rate, evaluations, n_feasible, _ = maximize(space, spy)
        assert ties
        assert best["p_z_rx"] == space.p_z_rx[0]
        assert (best, rate, evaluations, n_feasible) == reference_maximize(
            space, rate_objective(ch, prune=False, p_z_rx=0.85)
        )
