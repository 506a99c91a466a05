"""Security bounds and block-length solving for the three-party signature.

One signed bit consumes an L-bit key block per message value from each
of the two recipient links.  This module turns finite-size estimates of
those blocks into the three failure probabilities (robustness,
repudiation, forging), derives the verification thresholds, searches for
the smallest feasible L against a target, and converts block consumption
into signing time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

from .channel import ChannelParams, ObservedCounts, PulseConfig
from .finite_key import (
    BOUND_APPLICATIONS,
    EpsilonBudget,
    FiniteKeyEstimates,
    block_scale,
    observed_error_upper,
)
from .stat_math import binary_entropy, binary_entropy_inverse

__all__ = [
    "Infeasible",
    "InfeasibleTarget",
    "Thresholds",
    "SecurityReport",
    "solve_p_e",
    "thresholds_from_rates",
    "p_robust",
    "p_repudiation_raw",
    "p_repudiation",
    "epsilon_f",
    "p_forge_raw",
    "p_forge",
    "p_sec",
    "merge_block_estimates",
    "block_report",
    "min_signature_length",
    "link_signature_time",
    "signature_time_and_rate",
]

#: Default test-sample fraction of the block length.
DEFAULT_TEST_FRACTION = 0.05


class Infeasible(Exception):
    """The requested security level cannot be certified from these statistics."""


class InfeasibleTarget(Infeasible):
    """The target failure probability is below the structural floor."""


@dataclass(frozen=True)
class Thresholds:
    """Verification thresholds: s_alpha for the direct recipient (the
    authenticator), s_upsilon for the forwarded copy (the verifier)."""

    s_alpha: float
    s_upsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s_alpha < self.s_upsilon < 0.5:
            raise ValueError(
                "thresholds must satisfy 0 < s_alpha < s_upsilon < 1/2, got "
                f"s_alpha={self.s_alpha}, s_upsilon={self.s_upsilon}"
            )


@dataclass(frozen=True)
class SecurityReport:
    """Everything certified for one block length at one working point.

    ``p_repudiation`` and ``p_forge`` are clamped to 1; their unclamped
    values are kept alongside so monotonicity analyses are not distorted
    by the clamp.  ``estimates`` holds the worst-link block-scale bounds
    the probabilities were computed from.
    """

    L: int
    k_test: int
    e_upper: float
    p_e: float
    thresholds: Thresholds
    p_robust: float
    p_repudiation: float
    p_forge: float
    p_sec: float
    time_per_bit_s: float
    rate_bits_per_s: float
    estimates: FiniteKeyEstimates
    p_repudiation_raw: float
    p_forge_raw: float
    epsilon_forge: float


def solve_p_e(s_z1: float, L: int, phi_z1: float) -> float:
    """Largest tolerable key error rate p_E for an L-bit block.

    Solves  h(p_E) = min(1, 2 s_z1 / L * (1 - h(phi_z1)))  on the
    increasing branch of the binary entropy.  A zero right-hand side
    (no certified single-photon content) yields p_E = 0, which marks the
    block infeasible to every caller that needs a positive margin.
    """
    if L <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    if s_z1 < 0:
        raise ValueError(f"single-photon count must be non-negative, got {s_z1}")
    rhs = 2.0 * (s_z1 / L) * (1.0 - binary_entropy(phi_z1))
    rhs = min(1.0, max(0.0, rhs))
    return binary_entropy_inverse(rhs)


def thresholds_from_rates(e_upper: float, p_e: float) -> Thresholds:
    """Place the two thresholds at even thirds between E_upper and p_E."""
    if p_e <= e_upper:
        raise Infeasible(
            f"no threshold margin: tolerable error rate {p_e:.6g} does not exceed "
            f"the observed error bound {e_upper:.6g}"
        )
    gap = p_e - e_upper
    return Thresholds(s_alpha=e_upper + gap / 3.0, s_upsilon=e_upper + 2.0 * gap / 3.0)


def p_robust(eps_pe: float) -> float:
    """Probability that an honest run aborts: both test-sample bounds failing."""
    return min(1.0, 2.0 * eps_pe)


def p_repudiation_raw(th: Thresholds, L: int) -> float:
    """Unclamped repudiation bound 2 exp(-(s_upsilon - s_alpha)^2 L / 4)."""
    if L <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    return 2.0 * math.exp(-((th.s_upsilon - th.s_alpha) ** 2) * L / 4.0)


def p_repudiation(th: Thresholds, L: int) -> float:
    return min(1.0, p_repudiation_raw(th, L))


def epsilon_f(
    alpha: float, L: int, s_z1: float, phi_z1: float, s_upsilon: float, eps: float
) -> float:
    """Forger's success term (2^(-L/2 * margin) + eps) / alpha.

    The margin is the certified min-entropy rate of the block,
    2 s_z1 / L * (1 - h(phi)), minus the entropy h(s_upsilon) the forger
    may spend on admissible mismatches.  A negative margin overflows
    toward infinity, which the clamped forging probability turns into 1.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if L <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    margin = 2.0 * (s_z1 / L) * (1.0 - binary_entropy(phi_z1)) - binary_entropy(s_upsilon)
    exponent = 0.5 * L * margin
    if exponent < -1074.0:
        term = math.inf
    else:
        try:
            term = 2.0 ** (-exponent)
        except OverflowError:
            term = math.inf
    return (term + eps) / alpha


def p_forge_raw(alpha: float, eps_forge: float, eps_pe: float) -> float:
    """Unclamped forging bound alpha + eps_F + 10 eps_PE (one eps_PE per bound)."""
    return alpha + eps_forge + len(BOUND_APPLICATIONS) * eps_pe


def p_forge(alpha: float, eps_forge: float, eps_pe: float) -> float:
    return min(1.0, p_forge_raw(alpha, eps_forge, eps_pe))


def p_sec(robust: float, repudiation: float, forge: float) -> float:
    """Overall security level: the worst of the three failure bounds."""
    return max(robust, repudiation, forge)


def merge_block_estimates(
    per_link: Mapping[str, FiniteKeyEstimates],
) -> FiniteKeyEstimates:
    """Worst-case combination across links.

    The signature bundle interleaves both links' keys, so the certified
    single-photon content is the smallest and the phase error rate the
    largest over links.  Saturation on any link saturates the merge.
    """
    if not per_link:
        raise ValueError("at least one link is required")
    ests = list(per_link.values())
    return FiniteKeyEstimates(
        s_z1_lower=min(e.s_z1_lower for e in ests),
        phi_z1_upper=max(e.phi_z1_upper for e in ests),
        s_z0_upper=max(e.s_z0_upper for e in ests),
        s_x1_lower=min(e.s_x1_lower for e in ests),
        v_x1_upper=max(e.v_x1_upper for e in ests),
        saturated=any(e.saturated for e in ests),
    )


def block_report(
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    L: int,
    k_test: int | None = None,
    test_errors_by_link: Mapping[str, float] | None = None,
) -> SecurityReport:
    """Full security report for a fixed block length.

    The test sample is ``k_test`` bits, or 5% of L when None.  Without
    ``test_errors_by_link`` each link's test errors are those expected
    from its pool error rate.  Raises ``Infeasible`` when the block
    cannot be certified.
    """
    if not counts_by_link:
        raise ValueError("at least one link is required")
    if L < 2 or L % 2 != 0:
        raise ValueError(f"block length must be an even integer >= 2, got {L}")
    if k_test is None:
        k_test = max(1, round(DEFAULT_TEST_FRACTION * L))
    elif k_test < 1:
        raise ValueError(f"test sample size must be at least 1, got {k_test}")
    per_link: dict[str, FiniteKeyEstimates] = {}
    test_errors: dict[str, float] = {}
    for link, counts in counts_by_link.items():
        pool = counts.n_total("Z")
        if L > pool:
            raise Infeasible(
                f"link {link!r}: block length {L} exceeds the sifted pool {pool:.0f}"
            )
        per_link[link] = block_scale(counts, pc, budget, L, pool)
        if test_errors_by_link is not None:
            test_errors[link] = test_errors_by_link[link]
        else:
            # expected errors on a k-bit test sample drawn from the pool
            test_errors[link] = k_test * counts.m_total("Z") / pool
    merged = merge_block_estimates(per_link)
    e_upper = observed_error_upper(test_errors, k_test, L, budget.eps_pe)
    p_e = solve_p_e(merged.s_z1_lower, L, merged.phi_z1_upper)
    if merged.saturated or p_e <= e_upper:
        raise Infeasible(
            f"block of length {L} cannot be certified: tolerable rate "
            f"{p_e:.6g} vs observed bound {e_upper:.6g}"
            + (" (phase error saturated)" if merged.saturated else "")
        )
    th = thresholds_from_rates(e_upper, p_e)
    robust = p_robust(budget.eps_pe)
    rep_raw = p_repudiation_raw(th, L)
    eps_forge = epsilon_f(alpha, L, merged.s_z1_lower, merged.phi_z1_upper, th.s_upsilon, eps)
    forge_raw = p_forge_raw(alpha, eps_forge, budget.eps_pe)
    time_s, rate = signature_time_and_rate(L, counts_by_link, pc, ch)
    return SecurityReport(
        L=L,
        k_test=k_test,
        e_upper=e_upper,
        p_e=p_e,
        thresholds=th,
        p_robust=robust,
        p_repudiation=min(1.0, rep_raw),
        p_forge=min(1.0, forge_raw),
        p_sec=p_sec(robust, min(1.0, rep_raw), min(1.0, forge_raw)),
        time_per_bit_s=time_s,
        rate_bits_per_s=rate,
        estimates=merged,
        p_repudiation_raw=rep_raw,
        p_forge_raw=forge_raw,
        epsilon_forge=eps_forge,
    )


def min_signature_length(
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    ch: ChannelParams,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
    k_test: int | None = None,
) -> SecurityReport:
    """Report at the smallest even block length that meets ``target_psec``.

    Every probe is a ``block_report`` under the same test-sample rule
    (``k_test`` bits, or 5% of the probed length when None), and the
    report of the solved length is returned.  Feasibility is monotone in
    L: longer blocks shrink every finite-size penalty, so the answer is
    found by bisection over even lengths.
    """
    if target_psec < budget.total:
        raise InfeasibleTarget(
            f"target {target_psec:.3g} is below the estimation floor "
            f"{len(BOUND_APPLICATIONS)}*eps_pe = {budget.total:.3g}"
        )
    pool = min(c.n_total("Z") for c in counts_by_link.values())
    hi = int(pool) // 2 * 2
    if hi < 2:
        raise Infeasible("sifted pool is empty")

    def probe(L: int) -> SecurityReport | None:
        try:
            report = block_report(counts_by_link, pc, ch, budget, alpha, eps, L, k_test)
        except Infeasible:
            return None
        return report if report.p_sec <= target_psec else None

    with warnings.catch_warnings():
        # probing short blocks routinely produces vacuous estimates;
        # the probe result, not a warning, is the signal here
        warnings.simplefilter("ignore", RuntimeWarning)
        best = probe(hi)
        if best is None:
            raise Infeasible(
                f"no block length up to the pool size {hi} reaches the target "
                f"{target_psec:.3g}"
            )
        lo = 2
        shortest = probe(lo)
        if shortest is not None:
            return shortest
        while hi - lo > 2:
            mid = (lo + hi) // 2
            mid -= mid % 2
            report = probe(mid)
            if report is None:
                lo = mid
            else:
                hi, best = mid, report
    return best


def link_signature_time(
    L: int, counts: ObservedCounts, pc: PulseConfig, ch: ChannelParams
) -> float:
    """Seconds one link needs to accumulate the 2L bits a signed bit consumes.

    The link's sifted-key yield per emitted pulse is taken from its
    observed Z detections, so duty cycling and losses are already priced
    in; at the source clock rate, 2L bits take 2L / (clock * yield).
    """
    if L <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    y = counts.n_total("Z") / pc.n_pulses
    if y <= 0.0:
        raise Infeasible("link produced no sifted detections")
    return 2.0 * L / (ch.clock_hz * y)


def signature_time_and_rate(
    L: int,
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    ch: ChannelParams,
) -> tuple[float, float]:
    """Time to sign one bit (slowest link; links run in parallel) and its inverse."""
    if not counts_by_link:
        raise ValueError("at least one link is required")
    time_s = max(
        link_signature_time(L, counts, pc, ch) for counts in counts_by_link.values()
    )
    return time_s, 1.0 / time_s
