"""End-to-end command line coverage, exercised in process through main()."""

import csv
import io
import json
import pathlib
import subprocess
import sys

import pytest

from qds_onedecoy.cli import main
from qds_onedecoy.files import CONFIG_ENV_VAR, read_counts

DATA = pathlib.Path(__file__).parent / "data"
DEVICE_CFG = str(DATA / "device.cfg")
DESK_CFG = str(DATA / "desk.cfg")
MODEL_103 = str(DATA / "model_103km.csv")
MEASURED_103 = str(DATA / "counts_103km.csv")


def _parse_report(captured: str) -> dict:
    return dict(line.split(": ", 1) for line in captured.strip().splitlines())


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


class TestEstimate:
    def test_fixed_block_length(self, capsys):
        rc = main([
            "estimate", "--config", DEVICE_CFG, "--counts", MODEL_103,
            "--block-length", "89522",
        ])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert int(parsed["block_length"]) == 89522
        assert float(parsed["rate_bits_per_s"]) > 0.0

    def test_solved_block_length_meets_target(self, capsys):
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert float(parsed["p_sec"]) <= 1e-4
        assert int(parsed["block_length"]) % 2 == 0

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "report.txt"
        rc = main([
            "estimate", "--config", DEVICE_CFG, "--counts", MODEL_103,
            "--block-length", "89522", "--out", str(out),
        ])
        assert rc == 0
        assert out.read_text() == capsys.readouterr().out

    def test_bad_counts_file_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "# distance_km=10\n# n_pulses=1e9\n"
            "link,basis,intensity,n,m\nbob_alice,Z,mu,5,9\n"
        )
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", str(bad)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_is_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text() + "wavelength_nm = 1550\n")
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103])
        assert rc == 2
        assert "wavelength_nm" in capsys.readouterr().err

    def test_no_config_anywhere_is_exit_2(self, capsys):
        rc = main(["estimate", "--counts", MODEL_103])
        assert rc == 2
        assert "QDS_CONFIG" in capsys.readouterr().err

    def test_env_var_config_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, DEVICE_CFG)
        rc = main(["estimate", "--counts", MODEL_103, "--block-length", "89522"])
        assert rc == 0
        assert int(_parse_report(capsys.readouterr().out)["block_length"]) == 89522

    def test_degenerate_eps_collapses_to_point_estimates(self, capsys, tmp_path):
        # eps_pe = 1 removes every concentration correction, so the lifted
        # error bound must equal the raw observed error rate
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            pathlib.Path(DEVICE_CFG).read_text().replace(
                "eps_pe = 5e-6", "eps_pe = 1"
            )
        )
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103,
                   "--block-length", "89522"])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        counts, _, _ = read_counts(MODEL_103)
        cell = counts["bob_alice"]
        observed = cell.m_total("Z") / cell.n_total("Z")
        assert float(parsed["e_upper"]) == pytest.approx(observed, rel=1e-4)

    def test_counts_inconsistent_with_config_is_exit_3(self, capsys):
        # measured tables need the source settings that produced them; with
        # a mismatched decoy fraction the single-photon bracket goes negative
        # at every block length and the request is cleanly infeasible
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", MEASURED_103])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_configured_test_sample_governs_the_solve(self, capsys, tmp_path):
        # the block length is solved under the same k_test the report uses,
        # so the printed report meets the target
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text() + "k_test = 3000\n")
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert int(parsed["test_sample"]) == 3000
        assert int(parsed["block_length"]) == 94362
        assert float(parsed["p_sec"]) <= 1e-4

    def test_tiny_test_sample_is_exit_3(self, capsys, tmp_path):
        # a 10-bit test sample leaves a Serfling term above 0.78 at every
        # length, so no block is feasible
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text() + "k_test = 10\n")
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103])
        assert rc == 3
        assert "no block length up to the pool size" in capsys.readouterr().err

    def test_target_below_floor_is_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            pathlib.Path(DEVICE_CFG).read_text().replace(
                "target_psec = 1e-4", "target_psec = 1e-6"
            )
        )
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible:")


class TestSimulate:
    def test_desk_scale_runs_bit_level(self, capsys, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        rc = main([
            "simulate", "--config", DESK_CFG, "--distance", "5",
            "--transcript", str(transcript),
        ])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert parsed["demo_mode"] == "bit-level"
        assert parsed["demo_bob_accept"] == "true"
        assert parsed["demo_charlie_accept"] == "true"
        assert float(parsed["p_sec"]) <= 5e-2
        messages = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(messages) == int(parsed["demo_transcript_messages"])
        seqs = [msg["seq"] for msg in messages]
        assert seqs == sorted(seqs)

    def test_device_scale_falls_back_to_synthetic(self, capsys):
        rc = main(["simulate", "--config", DEVICE_CFG, "--distance", "103"])
        assert rc == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert parsed["demo_mode"] == "synthetic"
        assert parsed["demo_bob_accept"] == "true"

    def test_sampled_counts_reproducible(self, capsys):
        rc = main(["simulate", "--config", DESK_CFG, "--distance", "5",
                   "--sampled", "--seed", "3"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["simulate", "--config", DESK_CFG, "--distance", "5",
                   "--sampled", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_unreachable_distance_is_exit_3(self, capsys):
        rc = main(["simulate", "--config", DESK_CFG, "--distance", "400"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible:")

    def test_zero_distance_rate_dwarfs_long_haul(self, capsys):
        rates = {}
        for distance in ("0", "103"):
            rc = main(["simulate", "--config", DEVICE_CFG,
                       "--distance", distance])
            assert rc == 0
            parsed = _parse_report(capsys.readouterr().out)
            rates[distance] = float(parsed["rate_bits_per_s"])
        assert rates["0"] > 10.0 * rates["103"]


class TestDemoSign:
    def test_desk_run_both_accept(self, capsys):
        rc = main(["demo-sign", "--config", DESK_CFG, "--distance", "5",
                   "--message-bit", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        parsed = _parse_report(out)
        assert parsed["bob_accept"] == "true"
        assert parsed["charlie_accept"] == "true"
        assert "kgp_bob_alice" in parsed and "kgp_charlie_alice" in parsed
        assert float(parsed["s_alpha"]) < float(parsed["s_upsilon"])

    def test_device_scale_refused(self, capsys):
        rc = main(["demo-sign", "--config", DEVICE_CFG, "--distance", "5"])
        assert rc == 2
        assert "n_pulses" in capsys.readouterr().err


class TestRateCurve:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "rate-curve", "--config", DESK_CFG, "--from", "2", "--to", "18",
            "--step", "8", "--grid-points", "2", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "distance_km,rate_bits_per_s,L,p_sec,feasible"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(row[0]) for row in rows] == [2.0, 10.0]
        rates = [float(row[1]) for row in rows]
        flags = [row[4] for row in rows]
        if flags == ["true", "true"]:
            assert rates[0] >= rates[1] > 0.0
        assert all(flag in ("true", "false") for flag in flags)

    def test_matches_recorded_curve(self, capsys):
        # rate_curve_grid2.csv was written by the sequential one-setting
        # bisection that the batched solver replaced: every solve must land
        # on the same L, with rates and p_sec equal to within 1e-9
        rc = main(["rate-curve", "--config", DEVICE_CFG, "--grid-points", "2",
                   "--from", "0", "--to", "300", "--step", "50"])
        assert rc == 0
        got = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        with open(DATA / "rate_curve_grid2.csv", newline="") as fp:
            want = list(csv.DictReader(fp))
        assert [(row["distance_km"], row["L"], row["feasible"]) for row in got] == [
            (row["distance_km"], row["L"], row["feasible"]) for row in want
        ]
        for g, w in zip(got, want):
            for key in ("rate_bits_per_s", "p_sec"):
                assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9, abs=0.0)

    def test_empty_range_is_header_only(self, capsys):
        rc = main(["rate-curve", "--config", DESK_CFG, "--from", "5",
                   "--to", "5", "--step", "10"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            "distance_km,rate_bits_per_s,L,p_sec,feasible"
        )

    def test_bad_range_is_exit_2(self, capsys):
        rc = main(["rate-curve", "--config", DESK_CFG, "--from", "50",
                   "--to", "10", "--step", "20"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        rc = main(["rate-curve", "--config", DESK_CFG, "--from", "0",
                   "--to", "10", "--step", "0"])
        assert rc == 2


DEVICE_TEXT = pathlib.Path(DEVICE_CFG).read_text()
MODEL_TEXT = pathlib.Path(MODEL_103).read_text()
BAD_FILES = {
    "mu_below_nu.cfg": DEVICE_TEXT.replace("mu = 0.6", "mu = 0.1", 1),
    "inf_pulses.cfg": DEVICE_TEXT.replace("n_pulses = 2e12", "n_pulses = inf"),
    "nan_distance.csv": MODEL_TEXT.replace("# distance_km=103.0", "# distance_km=nan"),
    "nan_cell.csv": MODEL_TEXT.replace("3214787465.832061", "nan", 1),
    "negative_eps.cfg": DEVICE_TEXT.replace("eps = 1e-10", "eps = -1e-3"),
    "zero_alpha.cfg": DEVICE_TEXT.replace("alpha = 1e-5", "alpha = 0"),
    "huge_target.cfg": DEVICE_TEXT.replace("target_psec = 1e-4", "target_psec = 5"),
    "zero_k_test.cfg": DEVICE_TEXT + "k_test = 0\n",
}


class TestBadValues:
    @pytest.mark.parametrize("argv, named", [
        # rate-curve never builds the configured source, so only loading catches it
        (["rate-curve", "--config", "{tmp}/mu_below_nu.cfg", "--to", "20"],
         "mu_below_nu.cfg: intensities must satisfy 0 <= nu < mu"),
        (["estimate", "--config", "{tmp}/inf_pulses.cfg", "--counts", MODEL_103],
         "'n_pulses'"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/nan_distance.csv"],
         "'distance_km' is not a finite number"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/nan_cell.csv"],
         "row 2: n and m must be finite numbers"),
        (["simulate", "--config", DEVICE_CFG, "--distance", "nan"], "distance_km"),
        (["demo-sign", "--config", DESK_CFG, "--distance", "inf"], "distance_km"),
        (["rate-curve", "--config", DESK_CFG, "--from", "nan"], "--from"),
        (["rate-curve", "--config", DESK_CFG, "--to", "inf"], "--to"),
        (["rate-curve", "--config", DESK_CFG, "--step=-inf"], "--step must be finite"),
        (["estimate", "--config", "{tmp}/negative_eps.cfg", "--counts", MODEL_103],
         "negative_eps.cfg: eps must lie strictly inside (0, 1)"),
        (["estimate", "--config", "{tmp}/zero_alpha.cfg", "--counts", MODEL_103],
         "zero_alpha.cfg: alpha must lie strictly inside (0, 1)"),
        (["estimate", "--config", "{tmp}/huge_target.cfg", "--counts", MODEL_103],
         "huge_target.cfg: target_psec must lie strictly inside (0, 1)"),
        (["simulate", "--config", "{tmp}/zero_k_test.cfg", "--distance", "50"],
         "zero_k_test.cfg: k_test must be at least 1"),
    ], ids=[
        "config-mu-below-nu", "config-inf-pulses", "counts-nan-distance", "counts-nan-cell",
        "simulate-nan-distance", "demo-sign-inf-distance", "curve-nan-from", "curve-inf-to",
        "curve-minus-inf-step", "config-negative-eps", "config-zero-alpha",
        "config-target-above-one", "config-zero-k-test",
    ])
    def test_is_exit_2_and_named(self, capsys, tmp_path, argv, named):
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        rc = main([arg.format(tmp=tmp_path) for arg in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "estimate" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qds_onedecoy.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rate-curve" in proc.stdout
