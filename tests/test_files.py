"""Interchange-format tests: counts tables, configs, report text."""

import dataclasses
import io
import pathlib
import re

import pytest

from qds_onedecoy.channel import ObservedCounts
from qds_onedecoy.files import (
    _CONFIG_KEYS,
    Config,
    FileFormatError,
    format_report,
    read_config,
    read_counts,
    write_rate_curve,
)

SAMPLE_COUNTS = {
    "bob_alice": ObservedCounts(
        n_z_mu=4.17e9, m_z_mu=7.35e6, n_z_nu=4.05e7, m_z_nu=77579,
        n_x_mu=1.84e6, m_x_mu=1956, n_x_nu=19474, m_x_nu=68,
    ),
    "charlie_alice": ObservedCounts(
        n_z_mu=4.03e9, m_z_mu=6.66e6, n_z_nu=4.09e7, m_z_nu=109820,
        n_x_mu=1.85e6, m_x_mu=2657, n_x_nu=19240, m_x_nu=34,
    ),
}

#: ``SAMPLE_COUNTS`` as a counts table.
SAMPLE_TABLE = """\
# distance_km=103.0
# n_pulses=2e12
link,basis,intensity,n,m
bob_alice,Z,mu,4.17e9,7.35e6
bob_alice,Z,nu,4.05e7,77579
bob_alice,X,mu,1.84e6,1956
bob_alice,X,nu,19474,68
charlie_alice,Z,mu,4.03e9,6.66e6
charlie_alice,Z,nu,4.09e7,109820
charlie_alice,X,mu,1.85e6,2657
charlie_alice,X,nu,19240,34
"""

CONFIG_TEXT = """\
# source
mu = 0.6
nu = 0.2
p_mu = 0.6
p_z_tx = 0.85
p_z_rx = 0.85
n_pulses = 2e12

# receiver and fibre
fiber_loss_db_per_km = 0.175
rx_loss_db = 1.53
det_efficiency = 0.65
dark_count_rate_hz = 20
gate_window_s = 2e-9
misalignment = 0.003
clock_hz = 5e7
duty_cycle = 0.86

# analysis
eps_pe = 5e-6
alpha = 1e-5
eps = 1e-10
target_psec = 1e-4
seed = 7
"""


class TestCountsRoundTrip:
    def test_read_sample_table(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(SAMPLE_TABLE)
        loaded, distance, n_pulses = read_counts(str(path))
        assert distance == 103.0
        assert n_pulses == 2e12
        assert loaded == SAMPLE_COUNTS

    def test_missing_preamble(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("link,basis,intensity,n,m\nbob_alice,Z,mu,10,1\n")
        with pytest.raises(FileFormatError, match="distance_km"):
            read_counts(str(path))

    @pytest.mark.parametrize("line, named", [
        ("# mu=0.5", "line 3: preamble key 'mu' is not one of"),
        ("# n_pulses=1e12", "line 3: preamble key 'n_pulses' is repeated"),
        ("#distance_km = 50", "line 3: preamble key 'distance_km' is repeated"),
    ])
    def test_unknown_or_repeated_preamble_key_is_named(self, tmp_path, line, named):
        path = tmp_path / "counts.csv"
        head, _, rest = SAMPLE_TABLE.partition("link,")
        path.write_text(f"{head}{line}\nlink,{rest}")
        with pytest.raises(FileFormatError, match=named):
            read_counts(str(path))

    @pytest.mark.parametrize("table, named", [
        ("# distance_km=10\n# n_pulses=1e9\nlink,basis,intensity,n,m\n\n"
         "bob_alice,Z,mu,10,1\nbob_alice,Z,mu,12,1\n", "line 6: duplicate cell"),
        ("# distance_km=10\n\n# n_pulses=1e9\nlink,basis,intensity,n,m\n"
         "bob_alice,Z,mu,nan,1\n", "line 5: n and m must be finite"),
        ("# distance_km=10\n# n_pulses=inf\n", "line 2: preamble value for 'n_pulses'"),
        ("# distance_km=10\n\n# n_pulses\n", "line 3: preamble line '# n_pulses' is not"),
    ], ids=["duplicate", "non-finite", "preamble-value", "not-key-value"])
    def test_errors_name_the_file_line(self, tmp_path, table, named):
        path = tmp_path / "counts.csv"
        path.write_text(table)
        with pytest.raises(FileFormatError, match=f"counts.csv: {named}"):
            read_counts(str(path))

    def test_bad_basis_is_named(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "# distance_km=10\n# n_pulses=1e9\n"
            "link,basis,intensity,n,m\nbob_alice,Q,mu,10,1\n"
        )
        with pytest.raises(FileFormatError, match="basis"):
            read_counts(str(path))

    def test_inconsistent_cell_is_named(self, tmp_path):
        path = tmp_path / "counts.csv"
        with open(path, "w", newline="") as fp:
            fp.write("# distance_km=10\n# n_pulses=1e9\n")
            fp.write("link,basis,intensity,n,m\n")
            for basis in ("Z", "X"):
                for intensity in ("mu", "nu"):
                    n, m = (5, 9) if (basis, intensity) == ("Z", "nu") else (10, 1)
                    fp.write(f"bob_alice,{basis},{intensity},{n},{m}\n")
        with pytest.raises(FileFormatError, match=r"\(Z, nu\)"):
            read_counts(str(path))

    def test_missing_cells_reported(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "# distance_km=10\n# n_pulses=1e9\n"
            "link,basis,intensity,n,m\nbob_alice,Z,mu,10,1\n"
        )
        with pytest.raises(FileFormatError, match="missing cells"):
            read_counts(str(path))

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "# distance_km=10\n# n_pulses=1e9\n"
            "link,basis,intensity,n,m\n"
            "bob_alice,Z,mu,10,1\nbob_alice,Z,mu,12,1\n"
        )
        with pytest.raises(FileFormatError, match="duplicate"):
            read_counts(str(path))

    @pytest.mark.parametrize("row", ["bob_alice,Z,mu,10", "bob_alice,Z,mu,10,1,7"])
    def test_ragged_row_rejected(self, tmp_path, row):
        path = tmp_path / "counts.csv"
        path.write_text(f"# distance_km=10\n# n_pulses=1e9\nlink,basis,intensity,n,m\n{row}\n")
        with pytest.raises(FileFormatError, match="counts.csv: line 4: expected 5 fields"):
            read_counts(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("# distance_km=10\n# n_pulses=1e9\nfoo,bar\n1,2\n")
        with pytest.raises(FileFormatError, match="header"):
            read_counts(str(path))


class TestConfig:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        config = read_config(str(path))
        assert config.source.mu == 0.6
        assert config.source.n_pulses == 2e12
        assert config.link.duty_cycle == 0.86
        assert config.seed == 7
        assert config.target.k_test is None
        pc = config.pulse_config()
        assert pc.p_z_tx == 0.85
        ch = config.channel(103.0)
        assert ch.distance_km == 103.0
        assert ch.duty_cycle == 0.86
        assert config.target.budget.eps_pe == 5e-6

    def test_invalid_source_rejected_at_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("mu = 0.6", "mu = 0.1", 1))
        with pytest.raises(FileFormatError, match=rf"^{re.escape(str(path))}: .*nu < mu"):
            read_config(str(path))

    def test_distance_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT + "distance_km = 10\n")
        with pytest.raises(FileFormatError, match="unknown key 'distance_km'"):
            read_config(str(path))

    def test_readme_lists_every_key(self):
        # the README's key table is the user-facing copy of the key set
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Configuration keys", 1)[1].split("```")[1]
        documented = set()
        for line in block.splitlines():
            if line and not line.startswith((" ", "#")):
                documented.update(re.split(r"\s{2,}", line)[0].split(", "))
        assert documented == set(_CONFIG_KEYS)

    def test_unknown_key_lists_valid_ones(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT + "detector_gain = 2\n")
        with pytest.raises(FileFormatError, match="unknown key 'detector_gain'"):
            read_config(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT + "mu = 0.4\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            read_config(str(path))

    def test_missing_keys_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.6\n")
        with pytest.raises(FileFormatError, match="missing required keys"):
            read_config(str(path))

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("mu = 0.6", "mu = bright"))
        with pytest.raises(FileFormatError, match="not a number"):
            read_config(str(path))

    @pytest.mark.parametrize("key, value", [("k_test", "3e3"), ("seed", "1.5")])
    def test_non_integer_value_of_an_integer_key(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT.replace("seed = 7", f"{key} = {value}"))
        named = f"value for '{key}' is not an integer: '{value}'"
        with pytest.raises(FileFormatError, match=re.escape(named)):
            read_config(str(path))

    @pytest.mark.parametrize("seed, match", [
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be non-negative, got -1"),
    ])
    def test_config_built_in_code_checks_its_seed(self, tmp_path, seed, match):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        config = read_config(str(path))
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(config, seed=seed)

    def test_n_pulses_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_TEXT)
        config = read_config(str(path))
        assert config.pulse_config(n_pulses=5e11).n_pulses == 5e11


def report_103km():
    from qds_onedecoy.channel import ChannelParams, PulseConfig, expected_statistics
    from qds_onedecoy.finite_key import EpsilonBudget
    from qds_onedecoy.security import SecurityTarget, block_report

    pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85,
                     n_pulses=2e12)
    ch = ChannelParams(distance_km=103.0)
    counts = expected_statistics(pc, ch)
    cbl = {"bob_alice": counts, "charlie_alice": counts}
    budget = EpsilonBudget(eps_pe=5e-6)
    return block_report(cbl, pc, ch, SecurityTarget(budget, 1e-5, 1e-10, 1e-4), 89522), budget, pc


class TestReportAndCurve:
    def test_report_text_is_line_parseable(self):
        report, budget, _ = report_103km()
        text = format_report(report, distance_km=103.0, budget=budget)
        parsed = dict(
            line.split(": ", 1) for line in text.strip().splitlines()
        )
        assert float(parsed["rate_bits_per_s"]) > 0
        assert int(parsed["block_length"]) == 89522
        assert parsed["saturated"] == "false"
        assert "epsilon_budget" in parsed

    def test_rate_curve_rows(self):
        from qds_onedecoy.optimizer import OptimizeResult

        report, _, pc = report_103km()
        buf = io.StringIO()
        write_rate_curve(
            buf,
            [
                (100.0, OptimizeResult(pc, report, evaluations=9, n_feasible=4, pruned=2)),
                (350.0, OptimizeResult(None, None, evaluations=9, n_feasible=0, pruned=0)),
            ],
        )
        lines = buf.getvalue().strip().splitlines()
        assert lines == [
            "distance_km,rate_bits_per_s,L,p_sec,feasible",
            f"100.0,{report.rate_bits_per_s!r},89522,{report.p_sec!r},true",
            "350.0,0.0,0,1.0,false",
        ]
