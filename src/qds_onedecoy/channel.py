"""Weak-coherent-pulse BB84 link model and its observable statistics.

The sender prepares phase-randomised coherent pulses at one of two
intensities (signal ``mu``, decoy ``nu``) in one of two bases; the
receiver gates single-photon detectors behind a lossy fibre.  This
module maps the hardware parameters to the eight sifted observables
(detections and errors per basis and intensity), either in expectation
or as one sampled realisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

__all__ = [
    "BASES",
    "INTENSITIES",
    "PulseConfig",
    "ChannelParams",
    "ObservedCounts",
    "total_efficiency",
    "background_yield",
    "gain_and_error",
    "expected_statistics",
    "sample_statistics",
]

BASES = ("Z", "X")
INTENSITIES = ("mu", "nu")

#: Largest pulse number for which bit-level key strings are materialised.
#: Above this the package works with aggregate counts only.
DESK_SCALE_MAX_PULSES = 100_000_000


def _require_finite(settings: object) -> None:
    """Reject NaN and infinite fields, which one-sided range checks let through."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PulseConfig:
    """Source-side settings: intensities, their mix, basis biases, pulse budget."""

    mu: float
    nu: float
    p_mu: float
    p_z_tx: float
    p_z_rx: float
    n_pulses: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 <= self.nu < self.mu:
            raise ValueError(
                f"intensities must satisfy 0 <= nu < mu, got mu={self.mu}, nu={self.nu}"
            )
        if self.mu <= 0.0:
            raise ValueError(f"signal intensity must be positive, got {self.mu}")
        for name in ("p_mu", "p_z_tx", "p_z_rx"):
            p = getattr(self, name)
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {p}")
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be at least 1, got {self.n_pulses}")

    def intensity(self, name: str) -> tuple[float, float]:
        """Return (photon number, emission probability) for 'mu' or 'nu'."""
        if name == "mu":
            return self.mu, self.p_mu
        if name == "nu":
            return self.nu, 1.0 - self.p_mu
        raise ValueError(f"unknown intensity {name!r}, expected 'mu' or 'nu'")

    def basis_probability(self, basis: str) -> tuple[float, float]:
        """Return (transmit, receive) selection probabilities for a basis."""
        if basis == "Z":
            return self.p_z_tx, self.p_z_rx
        if basis == "X":
            return 1.0 - self.p_z_tx, 1.0 - self.p_z_rx
        raise ValueError(f"unknown basis {basis!r}, expected 'Z' or 'X'")


@dataclass(frozen=True)
class ChannelParams:
    """Fibre, detector and timing parameters of one link.

    Defaults describe a typical long-haul ultralow-loss fibre setup with
    gated superconducting detectors and a 50 MHz clock.
    """

    distance_km: float
    fiber_loss_db_per_km: float = 0.175
    rx_loss_db: float = 1.53
    det_efficiency: float = 0.65
    dark_count_rate_hz: float = 20.0
    gate_window_s: float = 2e-9
    misalignment: float = 0.003
    clock_hz: float = 5e7
    duty_cycle: float = 0.86

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.distance_km < 0:
            raise ValueError(f"distance must be non-negative, got {self.distance_km}")
        if self.fiber_loss_db_per_km < 0 or self.rx_loss_db < 0:
            raise ValueError("losses must be non-negative")
        if not 0.0 <= self.det_efficiency <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.det_efficiency}")
        if self.dark_count_rate_hz < 0 or self.gate_window_s <= 0:
            raise ValueError("dark count rate must be >= 0 and gate window > 0")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ValueError(f"misalignment must lie in [0, 0.5], got {self.misalignment}")
        if self.clock_hz <= 0:
            raise ValueError(f"clock rate must be positive, got {self.clock_hz}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty cycle must lie in (0, 1], got {self.duty_cycle}")


@dataclass(frozen=True)
class ObservedCounts:
    """Sifted detections ``n`` and errors ``m`` per (basis, intensity) cell.

    Values may be integers (one sampled run) or reals (expectations or
    rescaled blocks); every cell must satisfy 0 <= m <= n.
    """

    n_z_mu: float
    m_z_mu: float
    n_z_nu: float
    m_z_nu: float
    n_x_mu: float
    m_x_mu: float
    n_x_nu: float
    m_x_nu: float

    def __post_init__(self) -> None:
        for basis in BASES:
            for intensity in INTENSITIES:
                n = self.n(basis, intensity)
                m = self.m(basis, intensity)
                if n < 0 or m < 0 or m > n:
                    raise ValueError(
                        f"cell ({basis}, {intensity}) must satisfy 0 <= m <= n, "
                        f"got n={n}, m={m}"
                    )

    def n(self, basis: str, intensity: str) -> float:
        return getattr(self, f"n_{basis.lower()}_{intensity}")

    def m(self, basis: str, intensity: str) -> float:
        return getattr(self, f"m_{basis.lower()}_{intensity}")

    def n_total(self, basis: str) -> float:
        return self.n(basis, "mu") + self.n(basis, "nu")

    def m_total(self, basis: str) -> float:
        return self.m(basis, "mu") + self.m(basis, "nu")

    def scaled(self, factor: float) -> "ObservedCounts":
        """Return a copy with every cell multiplied by ``factor``."""
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return replace(
            self, **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )


def total_efficiency(ch: ChannelParams) -> float:
    """End-to-end transmittance: fibre and receiver losses times detector efficiency."""
    loss_db = ch.fiber_loss_db_per_km * ch.distance_km + ch.rx_loss_db
    return ch.det_efficiency * 10.0 ** (-loss_db / 10.0)


def background_yield(ch: ChannelParams) -> float:
    """Detection probability per gate from dark counts alone (two detectors)."""
    return 2.0 * ch.dark_count_rate_hz * ch.gate_window_s


def gain_and_error(lam: float, ch: ChannelParams) -> tuple[float, float]:
    """Per-pulse detection probability Q and error rate E at intensity ``lam``.

    Q    = 1 - (1 - Y0) exp(-eta lam)
    E Q  = Y0/2 * exp(-eta lam) + e_mis * (1 - exp(-eta lam))

    with Y0 the background yield and eta the end-to-end transmittance.
    Dark counts are random, hence half of them are errors; misalignment
    flips genuine photon detections.
    """
    eta = total_efficiency(ch)
    y0 = background_yield(ch)
    t = math.exp(-eta * lam)
    gain = 1.0 - (1.0 - y0) * t
    if gain <= 0.0:
        return 0.0, 0.0
    eq = 0.5 * y0 * t + ch.misalignment * (1.0 - t)
    # E <= 1/2 holds for any misalignment <= 1/2; shave float roundoff
    return gain, min(0.5, eq / gain)


def _cell_pulses(pc: PulseConfig, ch: ChannelParams, basis: str, intensity: str) -> float:
    """Expected number of pulses landing in a sifted cell during live gates."""
    _, p_int = pc.intensity(intensity)
    p_tx, p_rx = pc.basis_probability(basis)
    return pc.n_pulses * ch.duty_cycle * p_int * p_tx * p_rx


def expected_statistics(pc: PulseConfig, ch: ChannelParams) -> ObservedCounts:
    """Expected sifted detections and errors in every (basis, intensity) cell."""
    values: dict[str, float] = {}
    for basis in BASES:
        for intensity in INTENSITIES:
            lam, _ = pc.intensity(intensity)
            gain, err = gain_and_error(lam, ch)
            pulses = _cell_pulses(pc, ch, basis, intensity)
            n = pulses * gain
            values[f"n_{basis.lower()}_{intensity}"] = n
            values[f"m_{basis.lower()}_{intensity}"] = n * err
    return ObservedCounts(**values)


def sample_statistics(
    pc: PulseConfig, ch: ChannelParams, seed: int | np.random.Generator
) -> ObservedCounts:
    """One sampled realisation of the sifted statistics.

    Pulses per cell, detections per cell and errors per detection are all
    drawn binomially, which reproduces the per-cell marginals of the full
    multinomial pulse assignment.  Accepts either an integer seed or an
    already-constructed generator so that protocol code can interleave
    this sampling with its own randomness.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_live = int(round(pc.n_pulses * ch.duty_cycle))
    values: dict[str, float] = {}
    for basis in BASES:
        for intensity in INTENSITIES:
            lam, p_int = pc.intensity(intensity)
            p_tx, p_rx = pc.basis_probability(basis)
            gain, err = gain_and_error(lam, ch)
            pulses = rng.binomial(n_live, p_int * p_tx * p_rx)
            n = rng.binomial(pulses, gain)
            m = rng.binomial(n, err)
            values[f"n_{basis.lower()}_{intensity}"] = int(n)
            values[f"m_{basis.lower()}_{intensity}"] = int(m)
    return ObservedCounts(**values)
