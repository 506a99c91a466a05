"""End-to-end command line coverage, exercised in process through main()."""

import contextlib
import csv
import importlib
import io
import json
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qds_onedecoy import cli, optimizer, protocol, security
from qds_onedecoy.cli import build_parser, main
from qds_onedecoy.channel import LINKS, sample_statistics
from qds_onedecoy.files import CONFIG_ENV_VAR, read_config, read_counts
from qds_onedecoy.protocol import rng_stream

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

    def test_infeasible_run_leaves_its_out_file_empty(self, capsys, tmp_path):
        # the file is opened before the solve, like a shell redirection
        out = tmp_path / "report.txt"
        out.write_text("an earlier report\n")
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", MEASURED_103,
                   "--out", str(out)])
        assert rc == 3
        assert out.read_text() == capsys.readouterr().out == ""

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

    def test_no_config_anywhere_is_exit_2(self, capsys, monkeypatch):
        # unset, then empty: an empty QDS_CONFIG names no configuration either
        for env in (None, ""):
            if env is not None:
                monkeypatch.setenv(CONFIG_ENV_VAR, env)
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

    def test_block_past_the_pool_is_exit_3(self, capsys):
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103,
                   "--block-length", str(10**12)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "infeasible: link 'bob_alice': block length 1000000000000 exceeds the sifted "
            "pool 3930240342\n")

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

    @pytest.mark.parametrize("command", [["estimate", "--counts", MODEL_103],
                                         ["simulate", "--distance", "103"]],
                             ids=["estimate", "simulate"])
    def test_test_sample_past_the_pool_is_exit_3(self, capsys, tmp_path, command):
        # the 103 km pool holds 3.9e9 sifted bits, far fewer than the sample
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text() + f"k_test = {10**15}\n")
        rc = main([command[0], "--config", str(cfg), *command[1:]])
        assert rc == 3
        assert f"test sample of {10**15} bits exceeds the sifted pool" in capsys.readouterr().err

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

    @pytest.mark.parametrize("table", ["counts_103km.csv", "counts_204km.csv"])
    def test_saturated_tables_name_the_cause(self, capsys, table):
        rc = main(["estimate", "--config", DEVICE_CFG, "--counts", str(DATA / table)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no block length up to the pool size" in err
        assert err.rstrip().endswith(": no single-photon content certified")

    @pytest.mark.parametrize("setting, cause", [
        ("target_psec = 1e-4\nk_test = 10",
         ": no threshold margin (p_E 0.5 vs observed bound 0.784232)"),
        # the forging term alone is at least alpha + 10 eps_pe = 6e-5
        ("target_psec = 5.5e-5", ": p_sec 7e-05 above the target"),
    ], ids=["no-margin", "above-target"])
    def test_unreached_target_names_the_cause(self, capsys, tmp_path, setting, cause):
        # the cause is read from the pool lane the solve's first round probed
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text().replace("target_psec = 1e-4", setting))
        rc = main(["estimate", "--config", str(cfg), "--counts", MODEL_103])
        assert rc == 3
        err = capsys.readouterr().err
        assert "no block length up to the pool size" in err
        assert err.rstrip().endswith(cause)


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

    def test_device_scale_samples_no_link(self, capsys, monkeypatch):
        # above the desk bound no link is run at the bit level, not even to be refused
        calls = []
        monkeypatch.setattr(protocol, "run_kgp", lambda *args, **kwargs: calls.append(args))
        assert main(["simulate", "--config", DEVICE_CFG, "--distance", "103"]) == 0
        assert _parse_report(capsys.readouterr().out)["demo_mode"] == "synthetic"
        assert calls == []

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

    @pytest.mark.parametrize("distance, synthetic", [("63.412", 29), ("63.5", 37)],
                             ids=["63.412km", "63.5km"])
    def test_short_sampled_pool_falls_back_to_synthetic(self, capsys, distance, synthetic):
        # at 63.412 km two solved blocks and the test sample need about the
        # whole expected pool, so for most seeds a link's sampled pool is
        # short: the demo then runs on synthetic keys instead of exiting 3.
        # At 63.5 km the expected pool itself is short, yet a few seeds draw
        # pools that hold both blocks: only the drawn pools decide
        config = read_config(DESK_CFG)
        pc, ch = config.pulse_config(), config.channel(float(distance))
        modes = []
        for seed in range(40):
            assert main(["simulate", "--config", DESK_CFG, "--distance", distance,
                         "--seed", str(seed)]) == 0
            parsed = _parse_report(capsys.readouterr().out)
            need = 2 * int(parsed["block_length"]) + int(parsed["test_sample"])
            short = any(
                sample_statistics(pc, ch, rng_stream(seed, link, "kgp")).n_total("Z") < need
                for link in LINKS
            )
            assert parsed["demo_mode"] == ("synthetic" if short else "bit-level"), seed
            assert parsed["demo_bob_accept"] == parsed["demo_charlie_accept"] == "true"
            modes.append(parsed["demo_mode"])
        assert modes.count("synthetic") == synthetic
        # demo-sign has no synthetic keys: a short pool still ends it
        assert main(["demo-sign", "--config", DESK_CFG, "--distance", distance,
                     "--seed", "0"]) == 3
        assert "cannot supply" in capsys.readouterr().err


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

    def test_bob_rejecting_aborts_before_charlie_rules(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol, "verify", lambda *args: calls.append(args) or (False, 0, 0))
        assert main(["demo-sign", "--config", DESK_CFG, "--distance", "5"]) == 0
        parsed = _parse_report(capsys.readouterr().out)
        assert parsed["bob_accept"] == "false"
        assert parsed["charlie_accept"] == "none (aborted)"
        assert len(calls) == 1 and "charlie_mismatches" not in parsed

    def test_device_scale_refused(self, capsys):
        rc = main(["demo-sign", "--config", DEVICE_CFG, "--distance", "5"])
        assert rc == 2
        assert "n_pulses" in capsys.readouterr().err


class TestChainCalls:
    """A solved report is read from the chain lane in which the solve proved
    its L: no command runs the bound chain again at that L."""

    @pytest.mark.parametrize("argv, calls", [
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103], 3),
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103,
          "--block-length", "89522"], 1),
        (["simulate", "--config", DEVICE_CFG, "--distance", "103"], 3),
    ], ids=["estimate-solved", "estimate-fixed-length", "simulate"])
    def test_chain_calls_are_pinned(self, capsys, monkeypatch, argv, calls):
        seen = []
        chain = security._bound_chain

        def spy(*args):
            seen.append(args)
            return chain(*args)

        monkeypatch.setattr(security, "_bound_chain", spy)
        assert main(argv) == 0
        assert len(seen) == calls


class TestGoldenTranscripts:
    """Stdout and transcript of two seeded runs, byte for byte: message
    digests are stable across versions."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("demo_sign", ["demo-sign", "--config", DESK_CFG, "--distance", "30",
                           "--seed", "3", "--message-bit", "1"]),
            ("simulate", ["simulate", "--config", DEVICE_CFG, "--distance", "103",
                          "--seed", "5", "--message-bit", "0"]),
        ],
    )
    def test_byte_identical(self, name, argv, capsys, tmp_path):
        transcript = tmp_path / "transcript.jsonl"
        assert main([*argv, "--transcript", str(transcript)]) == 0
        assert capsys.readouterr().out == (DATA / f"golden_{name}.txt").read_text()
        assert transcript.read_bytes() == (DATA / f"golden_{name}.jsonl").read_bytes()


def assert_matches_curve(out, golden):
    """The CSV ``out`` has the rows of the recorded ``golden``: the same
    distances, L and feasibility, with rates and p_sec equal to within 1e-9."""
    got = list(csv.DictReader(io.StringIO(out)))
    with open(DATA / golden, newline="") as fp:
        want = list(csv.DictReader(fp))
    assert [(row["distance_km"], row["L"], row["feasible"]) for row in got] == [
        (row["distance_km"], row["L"], row["feasible"]) for row in want
    ]
    for g, w in zip(got, want):
        for key in ("rate_bits_per_s", "p_sec"):
            assert float(g[key]) == pytest.approx(float(w[key]), rel=1e-9, abs=0.0)


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
        assert_matches_curve(capsys.readouterr().out, "rate_curve_grid2.csv")

    def test_default_sweep_matches_recorded_curve(self, capsys):
        # rate_curve_grid4.csv is the default sweep (grid 4, 0-300 km, step
        # 20) as the search wrote it before its points were put on the
        # 12-decimal lattice
        assert main(["rate-curve", "--config", DEVICE_CFG]) == 0
        assert_matches_curve(capsys.readouterr().out, "rate_curve_grid4.csv")

    def test_float_step_sweep_stops_before_to(self, capsys):
        # np.arange(1, 1.3, 0.1) has a fourth distance, 1.3000000000000003
        assert main(["rate-curve", "--config", DEVICE_CFG, "--from", "1", "--to", "1.3",
                     "--step", "0.1", "--grid-points", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["distance_km"]) for row in rows] == [1.0, 1.1, 1.2000000000000002]

    @pytest.mark.parametrize("limit, to, rc", [(3, "1.3", 0), (2, "1.25", 2)])
    def test_row_limit_counts_the_distances_swept(self, capsys, monkeypatch, limit, to, rc):
        # to 1.3, np.arange gives four distances, of which three are swept
        monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", limit)
        monkeypatch.setattr(optimizer, "optimize", lambda *args: optimizer.OptimizeResult(
            None, None, evaluations=0, n_feasible=0, pruned=0))
        assert main(["rate-curve", "--config", DEVICE_CFG, "--from", "1", "--to", to,
                     "--step", "0.1"]) == rc
        out, err = capsys.readouterr()
        if rc == 0:
            assert len(out.splitlines()) == 1 + 3
        else:
            assert "sweeps 3 distances, more than 2" in err

    def test_dead_channel_rows_are_infeasible(self, capsys, tmp_path):
        # no detections at all: every setting's sifted pool is empty
        dead = tmp_path / "dead.cfg"
        dead.write_text(
            pathlib.Path(DEVICE_CFG).read_text()
            .replace("det_efficiency = 0.65", "det_efficiency = 0")
            .replace("dark_count_rate_hz = 20", "dark_count_rate_hz = 0")
        )
        rc = main(["rate-curve", "--config", str(dead), "--grid-points", "2",
                   "--from", "0", "--to", "100", "--step", "50"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(row["distance_km"], row["feasible"]) for row in rows] == [
            ("0.0", "false"), ("50.0", "false"),
        ]

    def test_empty_range_is_header_only(self, capsys):
        rc = main(["rate-curve", "--config", DESK_CFG, "--from", "5",
                   "--to", "5", "--step", "10"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            "distance_km,rate_bits_per_s,L,p_sec,feasible"
        )

    def test_unwritable_out_fails_before_any_search(self, capsys, monkeypatch, tmp_path):
        def no_search(*args, **kwargs):
            raise AssertionError("optimize ran before --out was opened")

        monkeypatch.setattr(optimizer, "optimize", no_search)
        rc = main(["rate-curve", "--config", DEVICE_CFG, "--out", str(tmp_path / "no" / "c.csv")])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_configured_test_sample_is_solved_under(self, capsys, tmp_path):
        k3000 = tmp_path / "k3000.cfg"
        k3000.write_text(pathlib.Path(DEVICE_CFG).read_text() + "k_test = 3000\n")
        rows = []
        for config in (DEVICE_CFG, str(k3000)):
            assert main(["rate-curve", "--config", config, "--from", "100", "--to", "101",
                         "--grid-points", "2"]) == 0
            rows += csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert [row["L"] for row in rows] == ["10590", "8216"]

    def test_test_sample_past_the_pool_rows_are_infeasible(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(pathlib.Path(DEVICE_CFG).read_text() + f"k_test = {10**15}\n")
        rc = main(["rate-curve", "--config", str(cfg), "--from", "100", "--to", "101",
                   "--grid-points", "2"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(row["L"], row["feasible"]) for row in rows] == [("0", "false")]

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


def _scaled_cells(text: str, factor: float) -> str:
    """A counts table with every n and m multiplied by ``factor``."""
    lines = []
    for line in text.splitlines():
        cells = line.split(",")
        if len(cells) == 5 and cells[0] != "link":
            cells[3:] = (repr(float(value) * factor) for value in cells[3:])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


BAD_FILES = {
    "mu_below_nu.cfg": DEVICE_TEXT.replace("mu = 0.6", "mu = 0.1", 1),
    "inf_pulses.cfg": DEVICE_TEXT.replace("n_pulses = 2e12", "n_pulses = inf"),
    "no_equals.cfg": "mu 0.6\n" + DEVICE_TEXT,
    "nan_distance.csv": MODEL_TEXT.replace("# distance_km=103.0", "# distance_km=nan"),
    "nan_cell.csv": MODEL_TEXT.replace("3214787465.832061", "nan", 1),
    "mu_preamble.csv": MODEL_TEXT.replace("link,", "# mu=0.5\nlink,", 1),
    "twice_pulses.csv": MODEL_TEXT.replace("link,", "# n_pulses=1e12\nlink,", 1),
    "negative_eps.cfg": DEVICE_TEXT.replace("eps = 1e-10", "eps = -1e-3"),
    "zero_alpha.cfg": DEVICE_TEXT.replace("alpha = 1e-5", "alpha = 0"),
    "huge_target.cfg": DEVICE_TEXT.replace("target_psec = 1e-4", "target_psec = 5"),
    "zero_k_test.cfg": DEVICE_TEXT + "k_test = 0\n",
    "negative_seed.cfg": DEVICE_TEXT.replace("seed = 7", "seed = -1"),
    "e300_pulses.cfg": DEVICE_TEXT.replace("n_pulses = 2e12", "n_pulses = 1e300"),
    "e19_pulses.cfg": DEVICE_TEXT.replace("n_pulses = 2e12", "n_pulses = 1e19"),
    "past_2e52_pulses.cfg": DEVICE_TEXT.replace("n_pulses = 2e12", f"n_pulses = {2**52 + 2**40}"),
    "e290_cells.csv": _scaled_cells(MODEL_TEXT, 1e290),
    "e300_pulses.csv": MODEL_TEXT.replace("# n_pulses=2000000000000.0", "# n_pulses=1e300"),
    "negative_distance.csv": MODEL_TEXT.replace("# distance_km=103.0", "# distance_km=-5"),
    "one_link.csv": "".join(
        line for line in MODEL_TEXT.splitlines(keepends=True) if "charlie" not in line
    ),
    "carol_link.csv": MODEL_TEXT.replace("charlie_alice", "carol_alice"),
    "e300_mu.cfg": DEVICE_TEXT.replace("\nmu = 0.6", "\nmu = 1e300"),
    "vacuum_decoy.cfg": DEVICE_TEXT.replace("nu = 0.2", "nu = 0"),
    "desk_vacuum_decoy.cfg": pathlib.Path(DESK_CFG).read_text().replace("nu = 0.2", "nu = 0"),
    "e320_nu.cfg": DEVICE_TEXT.replace("nu = 0.2", "nu = 1e-320"),
    "e300_p_mu.cfg": DEVICE_TEXT.replace("p_mu = 0.6", "p_mu = 1e-300"),
    "e300_eps_pe.cfg": DEVICE_TEXT.replace("eps_pe = 5e-6", "eps_pe = 1e-300"),
    "e300_clock.cfg": DEVICE_TEXT.replace("clock_hz = 5e7", "clock_hz = 1e-300"),
    "e20_dark.cfg": DEVICE_TEXT.replace("dark_count_rate_hz = 20", "dark_count_rate_hz = 1e20"),
    "three_links.csv": MODEL_TEXT + "".join(
        line.replace("charlie_alice", "carol_alice")
        for line in MODEL_TEXT.splitlines(keepends=True) if "charlie" in line
    ),
}


class TestBadValues:
    @pytest.mark.parametrize("argv, named", [
        # rate-curve never builds the configured source, so only loading catches it
        (["rate-curve", "--config", "{tmp}/mu_below_nu.cfg", "--to", "20"],
         "mu_below_nu.cfg: intensities must satisfy 0 <= nu < mu"),
        (["estimate", "--config", "{tmp}/inf_pulses.cfg", "--counts", MODEL_103],
         "'n_pulses'"),
        (["estimate", "--config", "{tmp}/no_equals.cfg", "--counts", MODEL_103],
         "{tmp}/no_equals.cfg:1: expected 'key = value', got 'mu 0.6'"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/nan_distance.csv"],
         "'distance_km' is not a finite number"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/nan_cell.csv"],
         "nan_cell.csv: line 4: n and m must be finite numbers"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/mu_preamble.csv"],
         "mu_preamble.csv: line 3: preamble key 'mu' is not one of"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/twice_pulses.csv"],
         "twice_pulses.csv: line 3: preamble key 'n_pulses' is repeated"),
        (["simulate", "--config", DEVICE_CFG, "--distance", "nan"], "distance_km"),
        (["demo-sign", "--config", DESK_CFG, "--distance", "inf"], "distance_km"),
        (["simulate", "--config", DESK_CFG, "--distance", "-5"],
         "--distance: distance must be non-negative, got -5.0"),
        (["demo-sign", "--config", DESK_CFG, "--distance", "-5"],
         "--distance: distance must be non-negative, got -5.0"),
        (["simulate", "--config", DESK_CFG, "--distance", "inf"],
         "--distance: distance_km must be finite, got inf"),
        (["rate-curve", "--config", DESK_CFG, "--from", "-5", "--to", "1"],
         "--from must be non-negative, got -5"),
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103, "--block-length", "3"],
         "--block-length: block length must be an even integer >= 2, got 3"),
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103, "--block-length", "-4"],
         "--block-length: block length must be an even integer >= 2, got -4"),
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103, "--block-length", "0"],
         "--block-length: block length must be an even integer >= 2, got 0"),
        # no pool exceeds 2**52, so the length alone is refused, before any pool is read
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103, "--block-length",
          str(2**53 + 2)], "--block-length: block length must be at most 2**52, the pool cap, "
         f"got {2**53 + 2}"),
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
        (["simulate", "--config", "{tmp}/negative_seed.cfg", "--distance", "50"],
         "negative_seed.cfg: seed must be non-negative"),
        (["simulate", "--config", DEVICE_CFG, "--distance", "50", "--seed", "-3"],
         "--seed must be non-negative"),
        (["demo-sign", "--config", DESK_CFG, "--distance", "5", "--seed", "-3"],
         "--seed must be non-negative"),
        # int64 counting in the sampler and the solver: no overflow, no NaN counts
        (["simulate", "--config", "{tmp}/e300_pulses.cfg", "--distance", "50", "--sampled"],
         "e300_pulses.cfg: n_pulses must be at most 2**52"),
        (["simulate", "--config", "{tmp}/e19_pulses.cfg", "--distance", "50", "--sampled"],
         "e19_pulses.cfg: n_pulses must be at most 2**52"),
        (["simulate", "--config", "{tmp}/e300_pulses.cfg", "--distance", "50"],
         "e300_pulses.cfg: n_pulses must be at most 2**52"),
        # the solver's float block lengths are exact only while pools stay below 2**52
        (["simulate", "--config", "{tmp}/past_2e52_pulses.cfg", "--distance", "50"],
         "past_2e52_pulses.cfg: n_pulses must be at most 2**52, got 4504699138998272.0"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/e290_cells.csv"],
         "link 'bob_alice': 4.05264e+299 detections exceed the n_pulses=2e+12 pulses sent"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/e300_pulses.csv"],
         "e300_pulses.csv: n_pulses must be at most 2**52"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/negative_distance.csv"],
         "negative_distance.csv: distance must be non-negative, got -5.0"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/one_link.csv"],
         "one_link.csv: link 'charlie_alice' is missing cells"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/carol_link.csv"],
         "line 8: link must be one of ('bob_alice', 'charlie_alice'), got 'carol_alice'"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/three_links.csv"],
         "three_links.csv: line 12: link must be one of"),
        # found by TestFuzz and a scan of extreme values: overflow, NaN or a traceback
        (["estimate", "--config", "{tmp}/e300_mu.cfg", "--counts", MODEL_103],
         "e300_mu.cfg: signal intensity must lie in (0, 1], got 1e+300"),
        (["estimate", "--config", "{tmp}/vacuum_decoy.cfg", "--counts", MODEL_103],
         "vacuum_decoy.cfg: nu must be positive"),
        (["simulate", "--config", "{tmp}/vacuum_decoy.cfg", "--distance", "50"],
         "vacuum_decoy.cfg: nu must be positive"),
        (["rate-curve", "--config", "{tmp}/vacuum_decoy.cfg", "--to", "20"],
         "vacuum_decoy.cfg: nu must be positive"),
        (["demo-sign", "--config", "{tmp}/desk_vacuum_decoy.cfg", "--distance", "5"],
         "desk_vacuum_decoy.cfg: nu must be positive"),
        (["estimate", "--config", "{tmp}/e320_nu.cfg", "--counts", MODEL_103],
         "e320_nu.cfg: the decoy bounds need p_mu >= 1e-100 and nu = 0 or nu >= 1e-100"),
        (["simulate", "--config", "{tmp}/e300_p_mu.cfg", "--distance", "50"],
         "got p_mu=1e-300, nu=0.2"),
        (["estimate", "--config", "{tmp}/e300_eps_pe.cfg", "--counts", MODEL_103],
         "e300_eps_pe.cfg: eps_pe must lie in [1e-100, 1], got 1e-300"),
        (["estimate", "--config", "{tmp}/e300_clock.cfg", "--counts", MODEL_103],
         "e300_clock.cfg: clock_hz must be at least 1e-100, got 1e-300"),
        (["simulate", "--config", "{tmp}/e20_dark.cfg", "--distance", "50"],
         "2 * dark_count_rate_hz * gate_window_s <= 1, got 4e+11"),
        # rejected before the grid pass allocates its 30**5 settings
        (["rate-curve", "--config", DEVICE_CFG, "--from", "50", "--to", "51",
          "--grid-points", "30"], "--grid-points: grid_points must lie in [2, 10], got 30"),
        (["rate-curve", "--config", DESK_CFG, "--grid-points", "1"], "--grid-points"),
        # counted before np.arange allocates the distances
        (["rate-curve", "--config", DESK_CFG, "--to", "1e308", "--step", "1"],
         "--from 0 --to 1e+308 --step 1 sweeps 1e+308 distances, more than 10000"),
        (["rate-curve", "--config", DESK_CFG, "--to", "1e10", "--step", "1"],
         "--from 0 --to 1e+10 --step 1 sweeps 1e+10 distances, more than 10000"),
        # files that cannot be read or written, named by the OS error
        (["estimate", "--config", "{tmp}/no/such.cfg", "--counts", MODEL_103],
         "No such file or directory: '{tmp}/no/such.cfg'"),
        (["estimate", "--config", DEVICE_CFG, "--counts", "{tmp}/no/such.csv"],
         "No such file or directory: '{tmp}/no/such.csv'"),
        (["estimate", "--config", str(DATA), "--counts", MODEL_103],
         f"Is a directory: '{DATA}'"),
        # every output is opened before the work, so nothing reaches stdout
        (["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103,
          "--out", "{tmp}/no/dir/report.txt"],
         "No such file or directory: '{tmp}/no/dir/report.txt'"),
        (["rate-curve", "--config", DESK_CFG, "--to", "1", "--grid-points", "2",
          "--out", "{tmp}/no/dir/curve.csv"],
         "No such file or directory: '{tmp}/no/dir/curve.csv'"),
        (["demo-sign", "--config", DESK_CFG, "--distance", "5",
          "--transcript", "{tmp}/no/dir/t.jsonl"],
         "No such file or directory: '{tmp}/no/dir/t.jsonl'"),
    ], ids=[
        "config-mu-below-nu", "config-inf-pulses", "config-no-equals", "counts-nan-distance", "counts-nan-cell",
        "counts-unknown-preamble-key", "counts-repeated-preamble-key",
        "simulate-nan-distance", "demo-sign-inf-distance", "simulate-negative-distance",
        "demo-sign-negative-distance", "simulate-inf-distance", "curve-negative-from",
        "estimate-odd-block-length", "estimate-negative-block-length",
        "estimate-zero-block-length", "estimate-block-length-past-cap", "curve-nan-from", "curve-inf-to",
        "curve-minus-inf-step", "config-negative-eps", "config-zero-alpha",
        "config-target-above-one", "config-zero-k-test", "config-negative-seed",
        "simulate-negative-seed", "demo-sign-negative-seed",
        "sampled-e300-pulses", "sampled-e19-pulses", "model-e300-pulses",
        "model-past-2e52-pulses",
        "counts-e290-cells", "counts-e300-pulses", "counts-negative-distance", "counts-one-link",
        "counts-carol-link",
        "counts-three-links", "config-e300-mu", "config-vacuum-decoy",
        "simulate-vacuum-decoy", "curve-vacuum-decoy", "demo-sign-vacuum-decoy", "config-e320-nu",
        "config-e300-p-mu", "config-e300-eps-pe", "config-e300-clock", "config-e20-dark",
        "curve-huge-grid", "curve-one-point-grid", "curve-e308-sweep", "curve-e10-sweep",
        "missing-config", "missing-counts", "directory-config", "estimate-unwritable-out",
        "curve-unwritable-out", "demo-sign-unwritable-transcript",
    ])
    def test_is_exit_2_and_named(self, capsys, tmp_path, argv, named):
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        rc = main([arg.format(tmp=tmp_path) for arg in argv])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named.format(tmp=tmp_path) in err


class TestTextEncoding:
    #: bytes no UTF-8 decoder accepts, after a plain-text start
    BINARY = b"# distance_km=103.0\n\xd0\x00\xff\xfe"

    @pytest.mark.parametrize("flag", ["--config", "--counts"])
    def test_binary_input_is_exit_2_and_named(self, capsys, tmp_path, flag):
        binary = tmp_path / "binary.dat"
        binary.write_bytes(self.BINARY)
        argv = ["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103]
        argv[argv.index(flag) + 1] = str(binary)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {binary}: not UTF-8 text: ") and err.count("\n") == 1

    def test_byte_order_mark_is_read(self, capsys, tmp_path):
        # spreadsheets save "CSV UTF-8" with a byte-order mark
        for name, source in (("bom.cfg", DEVICE_CFG), ("bom.csv", MODEL_103)):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + pathlib.Path(source).read_bytes())
        assert main(["estimate", "--config", DEVICE_CFG, "--counts", MODEL_103]) == 0
        plain = capsys.readouterr().out
        rc = main(["estimate", "--config", str(tmp_path / "bom.cfg"),
                   "--counts", str(tmp_path / "bom.csv")])
        assert rc == 0
        assert capsys.readouterr().out == plain


#: Values a fuzzed config key or count cell may take: any float repr, and
#: magnitudes, junk and integers the parsers must sort out.
FUZZ_VALUES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e300", "-1e300", "1e19", "4e18", "0", "-1", "1e-320", "", "x", "2**62"]),
    st.integers(-(2**70), 2**70).map(str),
)
CONFIG_LINES = [line for line in DEVICE_TEXT.splitlines() if "=" in line and line[0] != "#"]
TABLE_LINES = MODEL_TEXT.splitlines()


def _remap(text: str, f) -> str:
    """``f`` applied to a cell that parses as a float; any other cell as it is."""
    try:
        return repr(f(float(text)))
    except ValueError:
        return text


@st.composite
def fuzzed_config(draw) -> str:
    """device.cfg with a few keys set to fuzzed values, scaled, dropped or
    repeated, and possibly k_test or an unknown key added."""
    lines = [*CONFIG_LINES, "k_test = 3000"][: len(CONFIG_LINES) + draw(st.integers(0, 1))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, _, value = (part.strip() for part in lines[i].partition("="))
        edit = draw(st.sampled_from(["set", "scale", "scale", "drop", "repeat", "unknown"]))
        if edit == "set":
            lines[i] = f"{key} = {draw(FUZZ_VALUES)}"
        elif edit == "scale":
            factor = draw(st.sampled_from([1e-3, 0.5, 0.9, 1.1, 2.0, 1e3]))
            lines[i] = f"{key} = {_remap(value, lambda x: x * factor)}"
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.append(lines[i])
        else:
            lines.append(f"{key}_x = 1")
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def fuzzed_table(draw) -> str:
    """model_103km.csv with a few fuzzed cells or preamble values, cells
    scaled or with m > n, rows dropped, repeated, relinked or ragged."""
    lines = list(TABLE_LINES)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        row = lines[i].split(",")
        edit = draw(st.sampled_from(
            ["value", "scale", "m_over_n", "drop", "repeat", "relink", "ragged", "preamble"]
        ))
        if edit == "preamble":
            key = draw(st.sampled_from(["distance_km", "n_pulses"]))
            lines = [f"# {key}={draw(FUZZ_VALUES)}" if line.startswith(f"# {key}=") else line
                     for line in lines]
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.append(lines[i])
        elif len(row) != 5 or row[0] == "link":
            continue
        elif edit == "value":
            row[draw(st.sampled_from([3, 4]))] = draw(FUZZ_VALUES)
        elif edit == "scale":
            factor = draw(st.sampled_from([1e290, 1e-300, -1.0, 10.0, 0.0]))
            row[3:] = (_remap(v, lambda x: x * factor) for v in row[3:])
        elif edit == "m_over_n":
            row[4] = _remap(row[3], lambda x: 2.0 * x + 1.0)
        elif edit == "relink":
            row[0] = draw(st.sampled_from(["carol_alice", "", "bob_alice", "charlie_alice"]))
        else:
            row = row[: draw(st.integers(1, 4))] if draw(st.booleans()) else [*row, "7"]
        if edit in ("value", "scale", "m_over_n", "relink", "ragged"):
            lines[i] = ",".join(row)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


FUZZ = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFuzz:
    """Generated configs and counts tables end in exit 0, 2 or 3 with a
    one-line message, never in an exception (RuntimeWarnings included)."""

    @staticmethod
    def check(rc: int, err: str) -> None:
        assert rc in (0, 2, 3)
        prefix = {0: "", 2: "error: ", 3: "infeasible: "}[rc]
        assert err.startswith(prefix) and err.count("\n") == (rc != 0)

    @settings(FUZZ, max_examples=300)
    @given(fuzzed_config(), fuzzed_table(),
           st.one_of(st.none(), st.integers(-4, 2 * 10**6)))
    def test_estimate(self, config, table, block_length):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, counts = pathlib.Path(tmp, "run.cfg"), pathlib.Path(tmp, "counts.csv")
            cfg.write_text(config)
            counts.write_text(table)
            argv = ["estimate", "--config", str(cfg), "--counts", str(counts)]
            if block_length is not None:
                argv += ["--block-length", str(block_length)]
            self.check(*run_quietly(argv))

    @settings(FUZZ, max_examples=30)
    @given(fuzzed_config(), st.floats(0.0, 400.0))
    def test_rate_curve(self, config, distance):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp, "run.cfg")
            cfg.write_text(config)
            self.check(*run_quietly([
                "rate-curve", "--config", str(cfg), "--grid-points", "2",
                "--from", repr(distance), "--to", repr(distance + 1.0),
            ]))


def readme_section(heading: str) -> str:
    """The README's ``## heading`` section, up to the next ``## `` heading."""
    text = (DATA.parent.parent / "README.md").read_text()
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


class TestReadme:
    def test_quick_start_commands_exit_0(self, capsys, tmp_path):
        text = readme_section("Quick start").replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("qds ")]
        assert [argv[0] for argv in commands] == ["estimate", "simulate", "demo-sign", "rate-curve"]
        for argv in commands:
            # every output file is written under tmp_path
            for i, arg in enumerate(argv[:-1]):
                if arg in ("--out", "--transcript"):
                    argv[i + 1] = str(tmp_path / argv[i + 1])
            assert main(argv) == 0, argv
        capsys.readouterr()

    def test_library_layout_names_public_entry_points(self):
        [block] = re.findall(r"```\n(.*?)```", readme_section("Library layout"), re.S)
        entries = re.split(r"^qds_onedecoy\.", block, flags=re.M)[1:]
        assert len(entries) == 8
        for entry in entries:
            module, text = entry.split(None, 1)
            names = re.findall(r"\w+", text.split(":", 1)[1])
            public = importlib.import_module(f"qds_onedecoy.{module}").__all__
            assert set(names) <= set(public), module


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--help"])
        assert exc_info.value.code == 0
        assert "estimate" in capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qds_onedecoy.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rate-curve" in proc.stdout
