"""Acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with ``pytest -sv tests/test_acceptance.py`` to see them live).  The
cross-check fixtures are three frozen operating rows of a 50-MHz one-decoy
system at increasing attenuation, plus that system's measured count tables
shipped under tests/data/.
"""

import contextlib
import math
import pathlib
import sys
import time

import numpy as np
import pytest

from qds_onedecoy.channel import (
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    background_yield,
    total_efficiency,
)
from qds_onedecoy.cli import main
from qds_onedecoy.finite_key import EpsilonBudget, estimate_counts
from qds_onedecoy.files import read_counts
from qds_onedecoy.optimizer import SearchSpace, optimize
from qds_onedecoy.protocol import attack_forge, attack_repudiation, exact_forge_success
from qds_onedecoy.security import (
    SecurityTarget,
    Thresholds,
    signature_time_and_rate,
    solve_p_e,
    thresholds_from_rates,
)
from qds_onedecoy.stat_math import (
    binary_entropy,
    binary_entropy_inverse,
    gamma_correction,
    serfling_error_upper,
)

DATA = pathlib.Path(__file__).parent / "data"

# one verdict line per criterion; echoed after the run by conftest so the
# lines survive output capture
ACCEPTANCE_LOG: list[str] = []

# Frozen reference rows: (s_z1, phi_z1, s_alpha, s_upsilon, rate_bits_per_s)
REFERENCE_ROWS = [
    (17250, 0.0218, 0.0802, 0.1081, 0.98),
    (21877, 0.0253, 0.0719, 0.0959, 0.01),
    (139259, 0.0390, 0.0467, 0.0544, 4.67e-5),
]
# Wall-clock seconds per signed bit reported for the same three rows.
REFERENCE_TIMES_S = [1.02, 96.52, 21407.36]
COUNTS_FILES = ["counts_103km.csv", "counts_204km.csv", "counts_280km.csv"]

N_PULSES = 2e12


@contextlib.contextmanager
def _criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        line = f"ACCEPTANCE {number} {title}: FAIL ({elapsed:.2f} s) - {exc}"
        ACCEPTANCE_LOG.append(line)
        print(line, file=sys.stderr, flush=True)
        raise
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {number} {title}: PASS ({elapsed:.2f} s)"
    ACCEPTANCE_LOG.append(line)
    print(line, flush=True)


def _reconstructed_block_length(s_z1: float, phi: float, p_e: float) -> int:
    # invert  h(p_e) = 2 (s_z1/L) (1 - h(phi))  for L
    return round(2.0 * s_z1 * (1.0 - binary_entropy(phi)) / binary_entropy(p_e))


def test_criterion_1_threshold_identities():
    with _criterion(1, "threshold-identities"):
        start = time.perf_counter()
        for s_z1, phi, s_alpha, s_upsilon, _ in REFERENCE_ROWS:
            e_upper = 2.0 * s_alpha - s_upsilon
            p_e = 2.0 * s_upsilon - s_alpha
            th = thresholds_from_rates(e_upper, p_e)
            assert round(th.s_alpha, 4) == s_alpha, (
                f"s_alpha {th.s_alpha:.6f} != {s_alpha}"
            )
            assert round(th.s_upsilon, 4) == s_upsilon, (
                f"s_upsilon {th.s_upsilon:.6f} != {s_upsilon}"
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_2_key_rate_round_trip():
    with _criterion(2, "key-rate-round-trip"):
        start = time.perf_counter()
        for s_z1, phi, s_alpha, s_upsilon, _ in REFERENCE_ROWS:
            p_e = 2.0 * s_upsilon - s_alpha
            L = _reconstructed_block_length(s_z1, phi, p_e)
            recovered = solve_p_e(s_z1, L, phi)
            assert abs(recovered - p_e) <= 1e-3, (
                f"p_e {recovered:.5f} vs {p_e:.5f} at L={L}"
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_3_signature_times():
    with _criterion(3, "signature-times"):
        start = time.perf_counter()
        pc = PulseConfig(mu=0.5, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85,
                         n_pulses=N_PULSES)
        for row, fname, reference in zip(
            REFERENCE_ROWS, COUNTS_FILES, REFERENCE_TIMES_S
        ):
            s_z1, phi, s_alpha, s_upsilon, _ = row
            p_e = 2.0 * s_upsilon - s_alpha
            L = _reconstructed_block_length(s_z1, phi, p_e)
            counts_by_link, distance_km, n_pulses = read_counts(str(DATA / fname))
            assert n_pulses == N_PULSES
            ch = ChannelParams(distance_km=distance_km)
            for link, counts in counts_by_link.items():
                t_link, _ = signature_time_and_rate(L, {link: counts}, pc, ch)
                residual = abs(t_link - reference) / reference
                assert residual <= 0.25, (
                    f"{fname} {link}: {t_link:.4g} s vs {reference} s "
                    f"({100 * residual:.1f}%)"
                )
        assert time.perf_counter() - start < 1.0


def _write_config(path, pc: PulseConfig, eps_pe: float, alpha: float,
                  eps: float, target: float) -> None:
    ch = ChannelParams(distance_km=0.0)
    path.write_text(
        f"mu = {pc.mu!r}\nnu = {pc.nu!r}\np_mu = {pc.p_mu!r}\n"
        f"p_z_tx = {pc.p_z_tx!r}\np_z_rx = {pc.p_z_rx!r}\n"
        f"n_pulses = {pc.n_pulses!r}\n"
        f"fiber_loss_db_per_km = {ch.fiber_loss_db_per_km!r}\n"
        f"rx_loss_db = {ch.rx_loss_db!r}\n"
        f"det_efficiency = {ch.det_efficiency!r}\n"
        f"dark_count_rate_hz = {ch.dark_count_rate_hz!r}\n"
        f"gate_window_s = {ch.gate_window_s!r}\n"
        f"misalignment = {ch.misalignment!r}\n"
        f"clock_hz = {ch.clock_hz!r}\nduty_cycle = {ch.duty_cycle!r}\n"
        f"eps_pe = {eps_pe!r}\nalpha = {alpha!r}\neps = {eps!r}\n"
        f"target_psec = {target!r}\n"
    )


def test_criterion_4_end_to_end_rate_band(tmp_path, capsys):
    with _criterion(4, "end-to-end-rate-band"):
        start = time.perf_counter()
        # With the device constants above, 2 eps_pe + 10 eps_pe floors the
        # security parameter; eps_pe = 5e-6 keeps the 1e-4 target reachable.
        eps_pe, alpha, eps, target = 5e-6, 1e-5, 1e-10, 1e-4
        budget = EpsilonBudget(eps_pe=eps_pe)
        rates = {}
        for distance in (103.0, 280.0):
            ch = ChannelParams(distance_km=distance)
            found = optimize(SearchSpace(), ch, SecurityTarget(budget, alpha, eps, target),
                             n_pulses=N_PULSES)
            assert found.params is not None, f"no feasible point at {distance} km"
            cfg = tmp_path / f"opt_{distance:.0f}.cfg"
            _write_config(cfg, found.params, eps_pe, alpha, eps, target)
            rc = main(["simulate", "--config", str(cfg),
                       "--distance", f"{distance}"])
            out = capsys.readouterr().out
            assert rc == 0, f"simulate failed at {distance} km"
            parsed = dict(
                line.split(": ", 1) for line in out.strip().splitlines()
            )
            rates[distance] = float(parsed["rate_bits_per_s"])
            assert float(parsed["p_sec"]) <= target
        assert 0.1 <= rates[103.0] <= 10.0, f"103 km rate {rates[103.0]:.4g}"
        assert rates[280.0] > 0.0, f"280 km rate {rates[280.0]:.4g}"
        assert time.perf_counter() - start < 300.0


def test_criterion_5_estimator_coverage():
    with _criterion(5, "estimator-coverage"):
        start = time.perf_counter()
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85,
                         n_pulses=1e7)
        ch = ChannelParams(distance_km=5.0)
        eps_pe = 1e-2  # loose enough that a miss would actually show up
        budget = EpsilonBudget(eps_pe=eps_pe)
        eta = total_efficiency(ch)
        y0 = background_yield(ch)
        photon_cap = 25
        ns = np.arange(photon_cap + 1)
        survive = (1.0 - eta) ** ns
        yields = 1.0 - (1.0 - y0) * survive
        err_rates = (0.5 * y0 * survive
                     + ch.misalignment * (1.0 - survive)) / yields

        def photon_probs(lam):
            probs = np.array(
                [math.exp(-lam) * lam ** n / math.factorial(n) for n in ns]
            )
            probs[-1] += 1.0 - probs.sum()
            return probs

        probs = {name: photon_probs(pc.intensity(name)[0])
                 for name in ("mu", "nu")}
        rng = np.random.default_rng(20260823)
        trials = 1000
        covered = 0
        for _ in range(trials):
            cells = {}
            true_s1_z = 0
            for basis in ("Z", "X"):
                p_tx, p_rx = pc.basis_probability(basis)
                for intensity in ("mu", "nu"):
                    _, p_int = pc.intensity(intensity)
                    pulses = int(pc.n_pulses * ch.duty_cycle
                                 * p_int * p_tx * p_rx)
                    by_photon = rng.multinomial(pulses, probs[intensity])
                    det = rng.binomial(by_photon, yields)
                    err = rng.binomial(det, err_rates)
                    cells[(basis, intensity)] = (det.sum(), err.sum())
                    if basis == "Z":
                        true_s1_z += det[1]
            counts = ObservedCounts(
                n_z_mu=cells[("Z", "mu")][0], m_z_mu=cells[("Z", "mu")][1],
                n_z_nu=cells[("Z", "nu")][0], m_z_nu=cells[("Z", "nu")][1],
                n_x_mu=cells[("X", "mu")][0], m_x_mu=cells[("X", "mu")][1],
                n_x_nu=cells[("X", "nu")][0], m_x_nu=cells[("X", "nu")][1],
            )
            est = estimate_counts(counts, pc, budget)
            # phase flips of the single-photon Z detections are not bit
            # errors; in this symmetric model they are a fresh Bernoulli
            # draw at the single-photon error rate
            phantom = rng.binomial(true_s1_z, err_rates[1])
            proxy = phantom / true_s1_z
            if est.s_z1_lower <= true_s1_z and est.phi_z1_upper >= proxy:
                covered += 1
        coverage = covered / trials
        assert coverage >= 1.0 - 10.0 * eps_pe, (
            f"coverage {coverage:.4f} < {1.0 - 10.0 * eps_pe}"
        )
        assert time.perf_counter() - start < 600.0


def test_criterion_6_attack_bounds():
    with _criterion(6, "attack-bounds"):
        start = time.perf_counter()
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        L, trials = 2000, 100_000
        bound = min(1.0, 2.0 * math.exp(
            -((th.s_upsilon - th.s_alpha) ** 2) * L / 4.0
        ))
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        for corruption in (0.075, 0.10, 0.125):
            observed = attack_repudiation(trials, L, th, corruption,
                                          seed=round(1000 * corruption))
            assert observed <= bound + 3.0 * sigma, (
                f"repudiation {observed:.5f} above {bound:.5f} + 3 sigma "
                f"at corruption {corruption}"
            )
        L_forge = 20
        exact = exact_forge_success(L_forge, th.s_upsilon)
        observed = attack_forge(trials, L_forge, th, seed=99)
        sigma_f = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(observed - exact) <= 3.0 * sigma_f, (
            f"forge {observed:.6f} vs exact {exact:.6f}"
        )
        assert time.perf_counter() - start < 300.0


def test_criterion_7_math_core():
    with _criterion(7, "math-core"):
        start = time.perf_counter()
        for x in (1e-6, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.999):
            assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12
        for y in (1e-8, 1e-4, 0.01, 0.3, 0.7, 0.99, 1.0):
            x = binary_entropy_inverse(y)
            assert abs(binary_entropy(x) - y) < 1e-10
        # frozen high-precision fixtures
        assert abs(binary_entropy(0.0218) - 0.15143113166708655) < 1e-12
        assert abs(binary_entropy_inverse(0.57377) - 0.13603879129393956) < 1e-10
        assert abs(
            serfling_error_upper(0.002, 50_000, 2500, 1e-5) - 0.052328370885987775
        ) < 1e-9
        assert abs(
            gamma_correction(1e-10, 0.05, 1e5, 1e5) - 0.00936636846249819
        ) < 1e-10
        # monotone in the test-sample size and the failure probability
        base = serfling_error_upper(0.002, 50_000, 2500, 1e-5)
        assert serfling_error_upper(0.002, 50_000, 5000, 1e-5) < base
        assert serfling_error_upper(0.002, 50_000, 2500, 1e-3) < base
        assert serfling_error_upper(0.002, 50_000, 2500, 1e-7) > base
        # symmetric in the two sample sizes
        assert gamma_correction(1e-10, 0.05, 2e5, 7e4) == pytest.approx(
            gamma_correction(1e-10, 0.05, 7e4, 2e5), rel=1e-12
        )
        assert time.perf_counter() - start < 10.0
