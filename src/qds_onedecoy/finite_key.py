"""Finite-size decoy-state estimation for a two-intensity source.

Given the eight sifted observables of one link, these estimators bound
the contributions of vacuum and single-photon pulses with Hoeffding-type
concentration inequalities, then transfer the single-photon error rate
observed in the X basis onto the Z-basis key.  Every concentration bound
consumed here is drawn from an explicit budget of named applications so
the total failure probability stays accountable.

The estimators broadcast: given counts with batch axes (see
``ObservedCounts``) and a ``PulseConfig.stack`` of source settings, they
return arrays over the batch, which is how the block-length solver evaluates many settings and
block lengths in one call.  Wherever an estimator takes a config it also
takes the config's ``_decoy`` factors, which the solver computes once per
solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ObservedCounts, PulseConfig
from .stat_math import gamma_correction, hoeffding_delta, serfling_error_upper

__all__ = [
    "BOUND_APPLICATIONS",
    "EpsilonBudget",
    "FiniteKeyEstimates",
    "phase_error_upper",
    "observed_error_upper",
    "estimate_counts",
    "block_scale",
]

#: The complete list of concentration-bound applications the estimation
#: chain is allowed to make, each charged ``eps_pe``: count bounds per
#: basis and intensity, one vacuum bound per basis, the two X-basis error
#: bounds, the X-to-Z transfer penalty and the test-sample bound.
BOUND_APPLICATIONS = (
    "n_z_mu",
    "n_z_nu",
    "vacuum_z",
    "n_x_mu",
    "n_x_nu",
    "vacuum_x",
    "m_x_mu",
    "m_x_nu",
    "basis_transfer",
    "test_sample",
)


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability budget of the estimation chain.

    ``eps_pe`` is charged once per entry of ``BOUND_APPLICATIONS``; the
    overall parameter-estimation failure probability is ``total``.
    """

    eps_pe: float

    def __post_init__(self) -> None:
        if not 1e-100 <= self.eps_pe <= 1.0:  # (21/eps_pe)**2 stays finite
            raise ValueError(f"eps_pe must lie in [1e-100, 1], got {self.eps_pe}")

    @property
    def total(self) -> float:
        return len(BOUND_APPLICATIONS) * self.eps_pe


@dataclass(frozen=True)
class FiniteKeyEstimates:
    """Bounds certified for one block (or the whole pool when L = pool size).

    ``saturated`` marks blocks whose X-basis sample was too thin to
    certify a phase error rate below 1/2.  ``vacuous`` marks blocks where
    a single-photon bound certified nothing: the decoy bracket of the Z or
    X basis was not positive, or the basis was empty.  Estimated from
    batched counts, every field is an array over the batch axes.
    """

    s_z1_lower: float
    phi_z1_upper: float
    s_z0_upper: float
    s_x1_lower: float
    v_x1_upper: float
    saturated: bool = False
    vacuous: bool = False


class _Decoy(NamedTuple):
    """The factors of the decoy bounds that depend on the source settings
    alone, for a config (floats) or a stack (arrays).

    ``_decoy`` computes them; the estimators below take them wherever they
    take a config, so a caller that evaluates one source at many block
    lengths, as the block-length solver does, computes them once.  Each
    is the sub-expression the bounds evaluate first, so every bound is
    bit for bit what it is from the config.
    """

    mu_scale: float | np.ndarray  # e^mu / p_mu
    nu_scale: float | np.ndarray  # e^nu / (1 - p_mu)
    signal_weight: float | np.ndarray  # nu^2 / mu^2
    vacuum_weight: float | np.ndarray  # (mu^2 - nu^2) / (mu^2 tau_0)
    s1_factor: float | np.ndarray  # tau_1 mu / (nu (mu - nu))
    v1_factor: float | np.ndarray  # tau_1 / (mu - nu)


def _decoy(pc: PulseConfig | _Decoy) -> _Decoy:
    """The decoy factors of ``pc``; given factors, those."""
    if isinstance(pc, _Decoy):
        return pc
    if not np.minimum.reduce(pc.nu, axis=None) > 0.0:
        raise ValueError(f"single-photon bound needs a decoy intensity nu > 0, got {pc.nu}")
    mu, nu, p_nu = pc.mu, pc.nu, 1.0 - pc.p_mu
    mu2, nu2, gap = mu**2, nu**2, mu - nu
    # the two terms of tau_n = (p_mu e^-mu mu^n + (1 - p_mu) e^-nu nu^n) / n!, the
    # chance a pulse of the mix carries n photons; mu**0 and mu**1 are exact, so
    # these give tau_0 and tau_1
    signal, decoy = pc.p_mu * np.exp(-mu), p_nu * np.exp(-nu)
    tau_1 = signal * mu + decoy * nu
    return _Decoy(
        mu_scale=np.exp(mu) / pc.p_mu,
        nu_scale=np.exp(nu) / p_nu,
        signal_weight=nu2 / mu2,
        vacuum_weight=(mu2 - nu2) / (mu2 * (signal + decoy)),
        s1_factor=tau_1 * mu / (nu * gap),
        v1_factor=tau_1 / gap,
    )


def _cell_bounds(
    counts: ObservedCounts, d: _Decoy, eps: float
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Single-photon lower and vacuum upper bounds of each basis (first
    axis), and the X single-photon error bound, in one pass over the cells.

    One Hoeffding deviation delta serves each (basis, n/m) total, of which
    each cell is one summand.  With it a cell's intensity-normalised count
    is bounded as (e^lam / p_lam)(count -/+ delta): decoy cells from below,
    floored at zero since they estimate a number of events, and signal
    cells from above.  Vacuum detections are background clicks,
    uncorrelated with the bit value, so a basis holds at most
    2 (m + delta(m, eps)) of them, twice its error count.  The
    single-photon bound is clamped to [0, basis total], and a non-positive
    bracket certifies nothing (0).  The error bound,
    tau_1 / (mu - nu) * (m_mu_upper - m_nu_lower), is clamped to
    [0, normalised X error total].
    """
    cells = counts.cells
    totals = cells[:, 0] + cells[:, 1]
    delta = hoeffding_delta(totals, eps)
    decoy_lower = np.maximum(0.0, d.nu_scale * (cells[:, 1] - delta))
    signal_upper = d.mu_scale * (cells[:, 0] + delta)
    s0 = 2.0 * (totals[:, 1] + delta[:, 1])
    bracket = decoy_lower[:, 0] - d.signal_weight * signal_upper[:, 0] - d.vacuum_weight * s0
    s1 = d.s1_factor * bracket
    # an empty basis has a zero bracket, so it gets 0 here too
    s1 = np.where(s1 > 0.0, np.minimum(s1, totals[:, 0]), 0.0)
    v1 = d.v1_factor * (signal_upper[1, 1] - decoy_lower[1, 1])
    ceiling = d.mu_scale * cells[1, 0, 1] + d.nu_scale * cells[1, 1, 1]
    return s1, s0, np.minimum(np.maximum(0.0, v1), ceiling)


def phase_error_upper(
    s_x1: float | np.ndarray, v_x1: float | np.ndarray, s_z1: float | np.ndarray, eps: float
) -> float | np.ndarray:
    """Upper bound on the Z-basis single-photon phase error rate.

    The X-basis single-photon error rate v/s is carried over to the Z
    sample with the finite-size transfer penalty.  Rates above 1/2 are
    clamped to 1/2 (the bound is then vacuous).  When no X error was
    observed the rate is floored at one phantom error, 1/s_x1, to keep
    the penalty well-defined.
    """
    if not np.minimum.reduce(s_x1, axis=None) > 0.0:
        raise ValueError("phase error bound requires s_x1 > 0 (no X statistics)")
    if not np.minimum.reduce(s_z1, axis=None) > 0.0:
        raise ValueError("phase error bound requires s_z1 > 0")
    # a sample below about 1e-308 overflows to inf, clamped to 1/2 like any rate past 1
    with np.errstate(over="ignore"):
        ratio = np.maximum(0.0, v_x1) / s_x1
        floored = np.maximum(ratio, 1.0 / s_x1)
        below_one = floored < 1.0
        # the penalty is only defined, and only needed, below rate 1
        gamma = gamma_correction(eps, np.where(below_one, floored, 0.5), s_x1, s_z1)
    return np.where(below_one, np.minimum(0.5, floored + gamma), 0.5)[()]


def observed_error_upper(
    test_errors: Sequence[float] | np.ndarray,
    k: int | np.ndarray,
    L: int | np.ndarray,
    eps_pe: float,
) -> float | np.ndarray:
    """Worst-link bound on the signing-key error rate from the test samples.

    ``test_errors`` holds, along its first axis, each link's error count
    on its k-bit test sample.  Each link's rate is lifted with the
    without-replacement tail bound and the maximum is returned, since the
    signature uses both links' keys.  Error counts, ``k`` and ``L`` may
    carry further axes over a batch.
    """
    errors = np.asarray(test_errors, dtype=float)
    if len(errors) == 0:
        raise ValueError("at least one link is required")
    return np.maximum.reduce(serfling_error_upper(errors / k, L, k, eps_pe))[()]


def estimate_counts(
    counts: ObservedCounts, pc: PulseConfig | _Decoy, budget: EpsilonBudget
) -> FiniteKeyEstimates:
    """Run the full estimation chain on one set of counts.

    Returns pool-scale bounds when given pool-scale counts; use
    ``block_scale`` to certify an L-bit block carved from a larger pool.
    Degenerate statistics do not raise: the estimates saturate
    (phi = 1/2) and are flagged, which downstream feasibility checks
    treat as an infeasible block.
    """
    (s_z1, s_x1), (s_z0, _), v_x1 = _cell_bounds(counts, _decoy(pc), budget.eps_pe)
    certified = (s_x1 > 0.0) & (s_z1 > 0.0)
    # where nothing is certified the phase error is 1/2; the bound runs on
    # placeholder sample sizes there, which it clamps to 1/2 as well
    phi = np.where(
        certified,
        phase_error_upper(
            np.where(certified, s_x1, 1.0), v_x1, np.where(certified, s_z1, 1.0),
            budget.eps_pe,
        ),
        0.5,
    )[()]
    return FiniteKeyEstimates(
        s_z1_lower=s_z1,
        phi_z1_upper=phi,
        s_z0_upper=s_z0,
        s_x1_lower=s_x1,
        v_x1_upper=v_x1,
        saturated=phi >= 0.5,
        vacuous=~certified,
    )


def block_scale(
    counts: ObservedCounts,
    pc: PulseConfig | _Decoy,
    budget: EpsilonBudget,
    L: int | np.ndarray,
    pool_size: float | np.ndarray,
) -> FiniteKeyEstimates:
    """Certify an L-bit signing block carved from a pool of ``pool_size`` bits.

    All cells are rescaled by L / pool_size and every concentration bound
    is re-applied at block scale, so short blocks pay proportionally
    larger finite-size penalties.  With L = pool_size this reduces to
    ``estimate_counts`` on the original counts.  ``L`` and ``pool_size``
    may be arrays over the batch axes of ``counts``.
    """
    if not np.minimum.reduce(pool_size, axis=None) > 0:
        raise ValueError(f"pool size must be positive, got {pool_size}")
    if not (np.minimum.reduce(L, axis=None) > 0
            and np.maximum.reduce(L - pool_size, axis=None) <= 0):
        raise ValueError(f"block length must lie in (0, pool size], got L={L}")
    return estimate_counts(ObservedCounts.from_cells(counts.cells * (L / pool_size)), pc, budget)
