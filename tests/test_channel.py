"""Channel model tests: transmittance, gains, expected and sampled counts."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qds_onedecoy.channel import (
    BASES,
    INTENSITIES,
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    background_yield,
    expected_statistics,
    gain_and_error,
    sample_statistics,
    total_efficiency,
)
from qds_onedecoy.files import read_counts
from strategies import settings_in_space, stack_of

TYPICAL = dict(
    fiber_loss_db_per_km=0.175,
    rx_loss_db=1.53,
    det_efficiency=0.65,
    dark_count_rate_hz=20.0,
    gate_window_s=2e-9,
    misalignment=0.003,
    clock_hz=5e7,
    duty_cycle=0.86,
)


def make_pc(**kw):
    base = dict(mu=0.5, nu=0.2, p_mu=0.7, p_z_tx=0.8, p_z_rx=0.8, n_pulses=1e9)
    base.update(kw)
    return PulseConfig(**base)


class TestEfficiency:
    def test_long_haul_value(self):
        # 0.65 * 10^-(0.175*103 + 1.53)/10, recomputed independently
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        assert total_efficiency(ch) == pytest.approx(0.0072013407, rel=1e-7)

    def test_zero_distance_leaves_receiver_loss(self):
        ch = ChannelParams(distance_km=0.0, **TYPICAL)
        expected = 0.65 * 10 ** (-1.53 / 10)
        assert total_efficiency(ch) == pytest.approx(expected, rel=1e-12)

    def test_background_yield(self):
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        assert background_yield(ch) == pytest.approx(8e-8, rel=1e-12)


class TestGainAndError:
    def test_signal_gain_value(self):
        # 1 - (1 - 8e-8) exp(-eta/2) at the 103 km transmittance,
        # recomputed at high precision
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        gain, _ = gain_and_error(0.5, ch)
        assert gain == pytest.approx(0.00359427540984, rel=1e-9)

    def test_signal_gain_exceeds_decoy(self):
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        q_mu, _ = gain_and_error(0.5, ch)
        q_nu, _ = gain_and_error(0.2, ch)
        assert q_mu > q_nu

    def test_error_rate_bounded(self):
        for mis in (0.0, 0.003, 0.25, 0.5):
            ch = ChannelParams(distance_km=150.0, **{**TYPICAL, "misalignment": mis})
            for lam in (0.05, 0.2, 0.5):
                _, err = gain_and_error(lam, ch)
                assert 0.0 <= err <= 0.5

    def test_dark_counts_dominate_vacuum(self):
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        gain, err = gain_and_error(0.0, ch)
        assert gain == pytest.approx(background_yield(ch), rel=1e-9)
        assert err == pytest.approx(0.5, rel=1e-9)

    def test_dead_channel_gives_nothing(self):
        ch = ChannelParams(
            distance_km=10.0,
            **{**TYPICAL, "det_efficiency": 0.0, "dark_count_rate_hz": 0.0},
        )
        gain, err = gain_and_error(0.5, ch)
        assert gain == 0.0
        assert err == 0.0


class TestExpectedStatistics:
    def test_cell_factorisation(self):
        pc = make_pc()
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        counts = expected_statistics(pc, ch)
        gain, err = gain_and_error(pc.mu, ch)
        manual = pc.n_pulses * ch.duty_cycle * pc.p_mu * pc.p_z_tx * pc.p_z_rx * gain
        assert counts.n("Z", "mu") == pytest.approx(manual, rel=1e-12)
        assert counts.m("Z", "mu") == pytest.approx(manual * err, rel=1e-12)

    def test_x_basis_uses_complementary_probabilities(self):
        pc = make_pc(p_z_tx=0.9, p_z_rx=0.7)
        ch = ChannelParams(distance_km=50.0, **TYPICAL)
        counts = expected_statistics(pc, ch)
        ratio = counts.n("X", "mu") / counts.n("Z", "mu")
        expected = (0.1 * 0.3) / (0.9 * 0.7)
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_no_noise_sources_means_no_errors(self):
        pc = make_pc()
        ch = ChannelParams(
            distance_km=20.0,
            **{**TYPICAL, "misalignment": 0.0, "dark_count_rate_hz": 0.0},
        )
        counts = expected_statistics(pc, ch)
        for basis in BASES:
            for intensity in INTENSITIES:
                assert counts.m(basis, intensity) == 0.0
                assert counts.n(basis, intensity) > 0.0

    def test_totals_are_sums(self):
        pc = make_pc()
        ch = ChannelParams(distance_km=103.0, **TYPICAL)
        counts = expected_statistics(pc, ch)
        assert counts.n_total("Z") == counts.n("Z", "mu") + counts.n("Z", "nu")
        assert counts.m_total("X") == counts.m("X", "mu") + counts.m("X", "nu")


def scalar_model(pc, ch):
    """The link model one cell at a time, with math.exp, as cells of shape (2, 2, 2)."""
    eta, y0 = total_efficiency(ch), background_yield(ch)
    cells = []
    for p_tx, p_rx in ((pc.p_z_tx, pc.p_z_rx), (1.0 - pc.p_z_tx, 1.0 - pc.p_z_rx)):
        for lam, p_int in ((pc.mu, pc.p_mu), (pc.nu, 1.0 - pc.p_mu)):
            t = math.exp(-eta * lam)
            gain = 1.0 - (1.0 - y0) * t
            err = 0.0
            if gain > 0.0:
                err = min(0.5, (0.5 * y0 * t + ch.misalignment * (1.0 - t)) / gain)
            n = pc.n_pulses * ch.duty_cycle * p_int * p_tx * p_rx * max(gain, 0.0)
            cells.append((n, n * err))
    return np.array(cells).reshape(2, 2, 2)


class TestStackedStatistics:
    @given(st.lists(settings_in_space, min_size=1, max_size=8), st.floats(0.0, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_single_settings_bit_for_bit(self, pcs, km):
        ch = ChannelParams(distance_km=km)
        stacked = expected_statistics(stack_of(pcs), ch).cells
        assert stacked.shape == (2, 2, 2, len(pcs), 1)
        for row, pc in enumerate(pcs):
            single = expected_statistics(pc, ch).cells
            assert (stacked[..., row, 0] == single).all()
            assert (single == scalar_model(pc, ch)).all()

    @pytest.mark.parametrize("bad", [
        {"nu": 0.6}, {"nu": -0.1}, {"mu": math.nan}, {"mu": 0.0, "nu": 0.0},
        {"p_mu": 1.0}, {"p_z_tx": 0.0}, {"p_z_rx": math.inf}, {"n_pulses": 0.5},
        {"mu": 1.5}, {"nu": 1e-320}, {"p_mu": 1e-300}, {"n_pulses": 1e19},
    ])
    def test_stack_with_a_bad_row_raises_the_single_config_error(self, bad):
        good = {"mu": 0.5, "nu": 0.2, "p_mu": 0.7, "p_z_tx": 0.8, "p_z_rx": 0.8,
                "n_pulses": 1e9}
        with pytest.raises(ValueError) as single:
            PulseConfig(**{**good, **bad})
        with pytest.raises(ValueError) as stacked:
            PulseConfig.stack(np.array([[*good.values()], [*{**good, **bad}.values()],
                                        [*good.values()]]))
        assert str(stacked.value) == str(single.value)


COUNTS_SOURCES = {
    "expected": lambda pc, ch: expected_statistics(pc, ch),
    "expected-stacked": lambda pc, ch: expected_statistics(stack_of([pc, pc]), ch),
    "sampled": lambda pc, ch: sample_statistics(pc, ch, 1),
    "read": lambda pc, ch: read_counts(
        str(pathlib.Path(__file__).parent / "data" / "model_103km.csv")
    )[0]["bob_alice"],
}


class TestCountsAreReadOnly:
    @pytest.mark.parametrize("source", COUNTS_SOURCES)
    def test_cells_reject_assignment(self, source):
        counts = COUNTS_SOURCES[source](make_pc(), ChannelParams(distance_km=10.0, **TYPICAL))
        with pytest.raises(ValueError, match="read-only"):
            counts.cells[0, 0, 0] = -7.0
        with pytest.raises(AttributeError, match="ObservedCounts is immutable"):
            counts.cells = counts.cells.copy()


class TestObservedCounts:
    def test_rejects_more_errors_than_detections(self):
        with pytest.raises(ValueError, match=r"\(Z, nu\)"):
            ObservedCounts(
                n_z_mu=10, m_z_mu=1, n_z_nu=5, m_z_nu=6,
                n_x_mu=3, m_x_mu=0, n_x_nu=2, m_x_nu=0,
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ObservedCounts(
                n_z_mu=-1, m_z_mu=0, n_z_nu=0, m_z_nu=0,
                n_x_mu=0, m_x_mu=0, n_x_nu=0, m_x_nu=0,
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", range(8))
    def test_rejects_non_finite_cells(self, arg, value):
        cells = [1e6, 10.0, 1e5, 1e3, 1e4, 100.0, 1e3, 10.0]
        cells[arg] = value
        cell = arg // 2
        with pytest.raises(ValueError, match=rf"cell \({BASES[cell // 2]}, "
                                             rf"{INTENSITIES[cell % 2]}\) must satisfy"):
            ObservedCounts(*cells)

    def test_repr_names_every_cell_of_one_table(self):
        counts = ObservedCounts(*range(8, 0, -1))
        assert repr(counts) == ("ObservedCounts(n_z_mu=8, m_z_mu=7, n_z_nu=6, m_z_nu=5, "
                                "n_x_mu=4, m_x_mu=3, n_x_nu=2, m_x_nu=1)")

    def test_repr_of_a_batch_gives_its_shape(self):
        counts = ObservedCounts.from_cells(np.ones((2, 2, 2, 3, 1)))
        assert repr(counts) == "ObservedCounts(batch of shape (3, 1))"

    def test_not_equal_to_other_objects(self):
        counts = ObservedCounts(*range(8, 0, -1))
        assert counts.__eq__(counts.cells) is NotImplemented
        assert counts != counts.cells.tolist()


class TestSampleStatistics:
    def test_deterministic_under_seed(self):
        pc = make_pc(n_pulses=1e6)
        ch = ChannelParams(distance_km=10.0, **TYPICAL)
        assert sample_statistics(pc, ch, 42) == sample_statistics(pc, ch, 42)
        assert sample_statistics(pc, ch, 42) != sample_statistics(pc, ch, 43)

    def test_generator_draws_as_its_seed(self):
        pc = make_pc(n_pulses=1e6)
        ch = ChannelParams(distance_km=10.0, **TYPICAL)
        rng = np.random.default_rng(42)
        assert sample_statistics(pc, ch, rng) == sample_statistics(pc, ch, 42)
        # the generator given is the one drawn from: its next draws follow on
        assert sample_statistics(pc, ch, rng) != sample_statistics(pc, ch, 42)

    def test_integer_valued(self):
        pc = make_pc(n_pulses=1e6)
        ch = ChannelParams(distance_km=10.0, **TYPICAL)
        counts = sample_statistics(pc, ch, 7)
        for basis in BASES:
            for intensity in INTENSITIES:
                assert counts.n(basis, intensity) == int(counts.n(basis, intensity))
                assert counts.m(basis, intensity) >= 0

    def test_mean_matches_expectation(self):
        pc = make_pc(n_pulses=2e5)
        ch = ChannelParams(distance_km=10.0, **{**TYPICAL, "misalignment": 0.01})
        expected = expected_statistics(pc, ch)
        n_runs = 300
        totals = np.zeros(n_runs)
        errors = np.zeros(n_runs)
        for i in range(n_runs):
            counts = sample_statistics(pc, ch, i)
            totals[i] = counts.n("Z", "mu")
            errors[i] = counts.m_total("Z")
        mean_n = totals.mean()
        se_n = totals.std(ddof=1) / math.sqrt(n_runs)
        assert abs(mean_n - expected.n("Z", "mu")) < 5 * se_n
        mean_m = errors.mean()
        se_m = errors.std(ddof=1) / math.sqrt(n_runs)
        assert abs(mean_m - expected.m_total("Z")) < 5 * se_m


class TestValidation:
    def test_pulse_config_rejects_bad_intensities(self):
        with pytest.raises(ValueError):
            make_pc(mu=0.2, nu=0.5)
        with pytest.raises(ValueError):
            make_pc(mu=0.5, nu=0.5)

    def test_pulse_config_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            make_pc(p_mu=0.0)
        with pytest.raises(ValueError):
            make_pc(p_z_rx=1.0)

    def test_pulse_config_accepts_zero_decoy(self):
        pc = make_pc(nu=0.0)
        assert pc.nu == 0.0

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(distance_km=-1.0, **TYPICAL)
        with pytest.raises(ValueError):
            ChannelParams(distance_km=10.0, **{**TYPICAL, "misalignment": 0.6})
        with pytest.raises(ValueError):
            ChannelParams(distance_km=10.0, **{**TYPICAL, "duty_cycle": 0.0})
        with pytest.raises(ValueError, match="losses must be non-negative"):
            ChannelParams(distance_km=10.0, **{**TYPICAL, "fiber_loss_db_per_km": -0.1})
        with pytest.raises(ValueError, match="detector efficiency must lie in"):
            ChannelParams(distance_km=10.0, **{**TYPICAL, "det_efficiency": 1.5})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, value):
        valid = [make_pc(), ChannelParams(distance_km=10.0, **TYPICAL)]
        for settings in valid:
            for f in dataclasses.fields(settings):
                with pytest.raises(ValueError, match=f"{f.name} must be finite"):
                    dataclasses.replace(settings, **{f.name: value})

    def test_channel_params_frozen(self):
        ch = ChannelParams(distance_km=10.0, **TYPICAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.distance_km = 20.0
