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
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "BASES",
    "INTENSITIES",
    "LINKS",
    "PulseConfig",
    "ChannelParams",
    "ObservedCounts",
    "total_efficiency",
    "background_yield",
    "gain_and_error",
    "expected_statistics",
    "model_links",
    "sample_statistics",
]

BASES = ("Z", "X")
INTENSITIES = ("mu", "nu")
#: Quantum links, named recipient-to-signer.
LINKS = ("bob_alice", "charlie_alice")

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
        self._check(np.array([getattr(self, name) for name in _PULSE_FIELDS], dtype=float))

    def _check(self, x: np.ndarray) -> None:
        """Validate the fields, given stacked as ``x``.

        Written over arrays, so a stack is checked in one pass; a bad row
        raises what a config of that row alone would.
        """
        mu, nu, p_mu, _, _, n_pulses = x
        probabilities = x[2:5]
        # one row per rule of ``_PULSE_RULES``, in its order
        ok = np.empty((len(_PULSE_RULES), *x.shape[1:]), dtype=bool)
        np.isfinite(x, out=ok[:6])
        np.logical_and(0.0 <= nu, nu < mu, out=ok[6:7])
        np.logical_and(mu > 0.0, mu <= 1.0, out=ok[7:8])
        np.logical_and(0.0 < probabilities, probabilities < 1.0, out=ok[8:11])
        # the decoy bounds divide by nu and p_mu; pools, and so block lengths,
        # stay below n_pulses, and the solver's float lengths are exact to 2**52
        np.logical_and((nu == 0.0) | (nu >= 1e-100), p_mu >= 1e-100, out=ok[11:12])
        np.greater_equal(n_pulses, 1, out=ok[12:13])
        np.less_equal(n_pulses, 2.0**52, out=ok[13:14])
        if np.count_nonzero(ok) < ok.size:
            ok = ok.reshape(len(_PULSE_RULES), -1)
            row = int(np.argmin(ok.all(axis=0)))
            values = {
                name: getattr(self, name) if x.ndim == 1 else column.flat[row].item()
                for name, column in zip(_PULSE_FIELDS, x)
            }
            raise ValueError(_PULSE_RULES[int(np.argmin(ok[:, row]))].format(**values))

    @classmethod
    def stack(cls, rows: np.ndarray, **shared: float) -> "PulseConfig":
        """One config whose fields are (len(rows), 1) arrays, for the batched models.

        Row i of the 2-D array ``rows`` holds the leading fields in order;
        the fields given in ``shared`` every row takes.  The trailing axis
        broadcasts over block lengths.  The stack is validated once, as
        arrays: a bad row raises the error a config of that row alone would.
        """
        columns = dict(zip(_PULSE_FIELDS, rows.T))
        # the fields are views of one array, which is what gets checked
        x = np.empty((len(_PULSE_FIELDS), len(rows), 1))
        stacked = object.__new__(cls)
        for name, column in zip(_PULSE_FIELDS, x):
            column[:, 0] = shared[name] if name in shared else columns[name]
            object.__setattr__(stacked, name, column)
        stacked._check(x)
        return stacked


#: The field names of ``PulseConfig``, in order.
_PULSE_FIELDS = tuple(f.name for f in fields(PulseConfig))
#: What each check of ``PulseConfig.__post_init__`` demands, in its order.
_PULSE_RULES = (
    *(f"{name} must be finite, got {{{name}}}" for name in _PULSE_FIELDS),
    "intensities must satisfy 0 <= nu < mu, got mu={mu}, nu={nu}",
    "signal intensity must lie in (0, 1], got {mu}",
    *(f"{name} must lie strictly inside (0, 1), got {{{name}}}"
      for name in _PULSE_FIELDS[2:5]),
    "the decoy bounds need p_mu >= 1e-100 and nu = 0 or nu >= 1e-100, got p_mu={p_mu}, nu={nu}",
    "n_pulses must be at least 1, got {n_pulses}",
    "n_pulses must be at most 2**52, got {n_pulses}",
)


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
        if self.dark_count_rate_hz < 0 or self.gate_window_s <= 0 or background_yield(self) > 1:
            raise ValueError(
                "need dark_count_rate_hz >= 0, gate_window_s > 0 and a background yield "
                f"2 * dark_count_rate_hz * gate_window_s <= 1, got {background_yield(self):g}")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ValueError(f"misalignment must lie in [0, 0.5], got {self.misalignment}")
        if not self.clock_hz >= 1e-100:  # signing times stay finite
            raise ValueError(f"clock_hz must be at least 1e-100, got {self.clock_hz}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"duty cycle must lie in (0, 1], got {self.duty_cycle}")


#: Cell names in the order of ``ObservedCounts``'s arguments.
_CELL_NAMES = tuple(
    f"{kind}_{basis.lower()}_{intensity}"
    for basis in BASES
    for intensity in INTENSITIES
    for kind in "nm"
)


class ObservedCounts:
    """Sifted detections ``n`` and errors ``m`` per (basis, intensity) cell.

    The counts are one float array ``cells`` of shape (2, 2, 2, ...):
    basis (Z, X), intensity (mu, nu), then n and m.  Values may be
    integers (one sampled run) or reals (expectations or rescaled
    blocks); every cell must satisfy 0 <= m <= n < inf.  Trailing axes (a
    stack's, or block lengths) hold a batch: the accessors then return
    arrays over it.
    """

    __slots__ = ("cells",)

    def __init__(
        self,
        n_z_mu: float, m_z_mu: float, n_z_nu: float, m_z_nu: float,
        n_x_mu: float, m_x_mu: float, n_x_nu: float, m_x_nu: float,
    ) -> None:
        values = (n_z_mu, m_z_mu, n_z_nu, m_z_nu, n_x_mu, m_x_mu, n_x_nu, m_x_nu)
        for cell in range(4):
            n, m = values[2 * cell], values[2 * cell + 1]
            # written so that NaN fails it, as it does every comparison
            if not 0 <= m <= n < math.inf:
                raise ValueError(
                    f"cell ({BASES[cell // 2]}, {INTENSITIES[cell % 2]}) must satisfy "
                    f"0 <= m <= n < inf, got n={n}, m={m}"
                )
        cells = np.array(values, dtype=float).reshape(2, 2, 2)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> "ObservedCounts":
        """Counts over valid cells of shape (2, 2, 2, ...), which are made read-only."""
        cells.flags.writeable = False
        counts = object.__new__(cls)
        object.__setattr__(counts, "cells", cells)
        return counts

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ObservedCounts is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservedCounts):
            return NotImplemented
        return bool(np.array_equal(self.cells, other.cells))

    def __repr__(self) -> str:
        if self.cells.ndim > 3:
            return f"ObservedCounts(batch of shape {self.cells.shape[3:]})"
        values = ", ".join(f"{k}={v:g}" for k, v in zip(_CELL_NAMES, self.cells.ravel()))
        return f"ObservedCounts({values})"

    def n(self, basis: str, intensity: str) -> float | np.ndarray:
        return self.cells[BASES.index(basis), INTENSITIES.index(intensity), 0]

    def m(self, basis: str, intensity: str) -> float | np.ndarray:
        return self.cells[BASES.index(basis), INTENSITIES.index(intensity), 1]

    def n_total(self, basis: str) -> float | np.ndarray:
        return self.n(basis, "mu") + self.n(basis, "nu")

    def m_total(self, basis: str) -> float | np.ndarray:
        return self.m(basis, "mu") + self.m(basis, "nu")


def total_efficiency(ch: ChannelParams) -> float:
    """End-to-end transmittance: fibre and receiver losses times detector efficiency."""
    loss_db = ch.fiber_loss_db_per_km * ch.distance_km + ch.rx_loss_db
    return ch.det_efficiency * 10.0 ** (-loss_db / 10.0)


def background_yield(ch: ChannelParams) -> float:
    """Detection probability per gate from dark counts alone (two detectors)."""
    return 2.0 * ch.dark_count_rate_hz * ch.gate_window_s


def gain_and_error(
    lam: float | np.ndarray, ch: ChannelParams
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Per-pulse detection probability Q and error rate E at intensity ``lam``.

    Q    = 1 - (1 - Y0) exp(-eta lam)
    E Q  = Y0/2 * exp(-eta lam) + e_mis * (1 - exp(-eta lam))

    with Y0 the background yield and eta the end-to-end transmittance.
    Dark counts are random, hence half of them are errors; misalignment
    flips genuine photon detections.  ``lam`` may be an array.
    """
    eta = total_efficiency(ch)
    y0 = background_yield(ch)
    x = -eta * np.asarray(lam, dtype=float)
    # math.exp, not np.exp, which can differ in the last bit that 1 - t magnifies
    t = np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    gain = 1.0 - (1.0 - y0) * t
    live = gain > 0.0
    eq = 0.5 * y0 * t + ch.misalignment * (1.0 - t)
    # E <= 1/2 holds for any misalignment <= 1/2; shave float roundoff
    err = np.minimum(0.5, eq / np.where(live, gain, 1.0))
    return np.where(live, gain, 0.0)[()], np.where(live, err, 0.0)[()]


def _cell_factors(pc: PulseConfig, ch: ChannelParams) -> tuple[np.ndarray, ...]:
    """p_int, p_tx, p_rx, gain and error rate, broadcasting to (basis, intensity, ...batch)."""
    # each factor its own contiguous array: strided views slow every product
    lam, p_int = np.array([pc.mu, pc.nu]), np.array([pc.p_mu, 1.0 - pc.p_mu])
    p_tx, p_rx = (np.array([p, 1.0 - p])[:, None] for p in (pc.p_z_tx, pc.p_z_rx))
    gain, err = gain_and_error(lam, ch)
    return p_int, p_tx, p_rx, gain, err


def expected_statistics(pc: PulseConfig, ch: ChannelParams) -> ObservedCounts:
    """Expected sifted detections and errors in every (basis, intensity) cell.

    Given a ``PulseConfig.stack``, the counts carry its batch axes.
    """
    p_int, p_tx, p_rx, gain, err = _cell_factors(pc, ch)
    n = pc.n_pulses * ch.duty_cycle * p_int * p_tx * p_rx
    cells = np.empty((2, 2, 2, *n.shape[2:]))
    np.multiply(n, gain, out=cells[:, :, 0])
    np.multiply(cells[:, :, 0], err, out=cells[:, :, 1])
    return ObservedCounts.from_cells(cells)


def model_links(pc: PulseConfig, ch: ChannelParams) -> dict[str, ObservedCounts]:
    """Both links modelled alike: each name maps to one shared expected counts object."""
    return dict.fromkeys(LINKS, expected_statistics(pc, ch))


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
    rng = np.random.default_rng(seed)
    n_live = int(round(pc.n_pulses * ch.duty_cycle))
    p_int, p_tx, p_rx, gain, err = _cell_factors(pc, ch)
    select = p_int * p_tx * p_rx
    cells = np.empty((2, 2, 2))
    # cell by cell, in the order of ``cells``, each drawing pulses, n, then m
    for b, i in np.ndindex(2, 2):
        n = rng.binomial(rng.binomial(n_live, select[b, i]), gain[i])
        cells[b, i] = n, rng.binomial(n, err[i])
    return ObservedCounts.from_cells(cells)
