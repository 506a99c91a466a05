"""Security bounds and block-length solving for the three-party signature.

One signed bit consumes an L-bit key block per message value from each
of the two recipient links.  This module turns finite-size estimates of
those blocks into the three failure probabilities (robustness,
repudiation, forging), derives the verification thresholds, searches for
the smallest feasible L against a target, and converts block consumption
into signing time.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple

import numpy as np

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
#: Block lengths one round of the lockstep solver may evaluate, summed over
#: the settings it is still bisecting.  A round costs mostly its fixed numpy
#: overhead up to a few hundred lengths (255 cost about 1.3 times one), so
#: this buys one setting 8 bisection steps a round.
SOLVER_LANES = 256


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
        a, u = self.s_alpha, self.s_upsilon
        if not (
            np.minimum.reduce(a, axis=None) > 0.0
            and np.minimum.reduce(u - a, axis=None) > 0.0
            and np.maximum.reduce(u, axis=None) < 0.5
        ):
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


def solve_p_e(
    s_z1: float | np.ndarray, L: int | np.ndarray, phi_z1: float | np.ndarray
) -> float | np.ndarray:
    """Largest tolerable key error rate p_E for an L-bit block.

    Solves  h(p_E) = min(1, 2 s_z1 / L * (1 - h(phi_z1)))  on the
    increasing branch of the binary entropy.  A zero right-hand side
    (no certified single-photon content) yields p_E = 0, which marks the
    block infeasible to every caller that needs a positive margin.
    """
    if np.minimum.reduce(L, axis=None) <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    if np.minimum.reduce(s_z1, axis=None) < 0:
        raise ValueError(f"single-photon count must be non-negative, got {s_z1}")
    rhs = 2.0 * (s_z1 / L) * (1.0 - binary_entropy(phi_z1))
    return binary_entropy_inverse(np.minimum(1.0, np.maximum(0.0, rhs)))


def thresholds_from_rates(
    e_upper: float | np.ndarray, p_e: float | np.ndarray
) -> Thresholds:
    """Place the two thresholds at even thirds between E_upper and p_E."""
    gap = p_e - e_upper
    if np.minimum.reduce(gap, axis=None) <= 0.0:
        raise Infeasible(
            f"no threshold margin: tolerable error rate {p_e} does not exceed "
            f"the observed error bound {e_upper}"
        )
    return Thresholds(s_alpha=e_upper + gap / 3.0, s_upsilon=e_upper + 2.0 * gap / 3.0)


def p_robust(eps_pe: float) -> float:
    """Probability that an honest run aborts: both test-sample bounds failing."""
    return min(1.0, 2.0 * eps_pe)


def p_repudiation_raw(th: Thresholds, L: int | np.ndarray) -> float | np.ndarray:
    """Unclamped repudiation bound 2 exp(-(s_upsilon - s_alpha)^2 L / 4)."""
    if np.minimum.reduce(L, axis=None) <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    return 2.0 * np.exp(-((th.s_upsilon - th.s_alpha) ** 2) * L / 4.0)


def p_repudiation(th: Thresholds, L: int | np.ndarray) -> float | np.ndarray:
    return np.minimum(1.0, p_repudiation_raw(th, L))


def epsilon_f(
    alpha: float,
    L: int | np.ndarray,
    s_z1: float | np.ndarray,
    phi_z1: float | np.ndarray,
    s_upsilon: float | np.ndarray,
    eps: float,
) -> float | np.ndarray:
    """Forger's success term (2^(-L/2 * margin) + eps) / alpha.

    The margin is the certified min-entropy rate of the block,
    2 s_z1 / L * (1 - h(phi)), minus the entropy h(s_upsilon) the forger
    may spend on admissible mismatches.  A negative margin overflows
    toward infinity, which the clamped forging probability turns into 1.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if eps < 0.0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if np.minimum.reduce(L, axis=None) <= 0:
        raise ValueError(f"block length must be positive, got {L}")
    margin = 2.0 * (s_z1 / L) * (1.0 - binary_entropy(phi_z1)) - binary_entropy(s_upsilon)
    exponent = 0.5 * L * margin
    # 2^-exponent is finite exactly where exponent > -1024
    finite = exponent > -1024.0
    term = np.where(finite, np.exp2(-np.where(finite, exponent, 0.0)), np.inf)
    with np.errstate(over="ignore"):  # a finite but huge term divides out to inf
        return ((term + eps) / alpha)[()]


def p_forge_raw(
    alpha: float, eps_forge: float | np.ndarray, eps_pe: float
) -> float | np.ndarray:
    """Unclamped forging bound alpha + eps_F + 10 eps_PE (one eps_PE per bound)."""
    return alpha + eps_forge + len(BOUND_APPLICATIONS) * eps_pe


def p_forge(
    alpha: float, eps_forge: float | np.ndarray, eps_pe: float
) -> float | np.ndarray:
    return np.minimum(1.0, p_forge_raw(alpha, eps_forge, eps_pe))


def p_sec(
    robust: float | np.ndarray, repudiation: float | np.ndarray, forge: float | np.ndarray
) -> float | np.ndarray:
    """Overall security level: the worst of the three failure bounds."""
    return np.maximum(np.maximum(robust, repudiation), forge)


def merge_block_estimates(per_link: FiniteKeyEstimates) -> FiniteKeyEstimates:
    """Worst-case combination across links.

    ``per_link`` holds each link's estimates along the first axis of its
    fields.  The signature bundle interleaves both links' keys, so the
    certified single-photon content is the smallest and the phase error
    rate the largest over links.  Saturation or a vacuous bound on any
    link carries over to the merge.
    """
    if len(per_link.s_z1_lower) == 0:
        raise ValueError("at least one link is required")
    return FiniteKeyEstimates(
        s_z1_lower=per_link.s_z1_lower.min(axis=0),
        phi_z1_upper=per_link.phi_z1_upper.max(axis=0),
        s_z0_upper=per_link.s_z0_upper.max(axis=0),
        s_x1_lower=per_link.s_x1_lower.min(axis=0),
        v_x1_upper=per_link.v_x1_upper.max(axis=0),
        saturated=per_link.saturated.any(axis=0),
        vacuous=per_link.vacuous.any(axis=0),
    )


class _Chain(NamedTuple):
    """Every bound of the analysis over a batch; see ``_bound_chain``."""

    estimates: FiniteKeyEstimates
    e_upper: np.ndarray
    p_e: np.ndarray
    certified: np.ndarray
    thresholds: Thresholds
    p_repudiation_raw: np.ndarray
    epsilon_forge: np.ndarray
    p_forge_raw: np.ndarray
    p_sec: np.ndarray


def _bound_chain(
    counts: ObservedCounts,
    pc: PulseConfig,
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    L: np.ndarray,
    k: int | np.ndarray,
    test_errors_by_link: Mapping,
) -> _Chain:
    """The bound chain at block lengths ``L``, evaluated for a whole batch.

    ``counts`` holds pool-scale counts with batch axes (links, settings,
    1), one entry per distinct link; ``pc`` (a config or a
    ``PulseConfig.stack``), ``L``, the test-sample size ``k`` and each
    link's test errors broadcast against its last two (settings x block
    lengths in the solver).  Where
    a block is not ``certified`` (saturated, or no margin between the
    error bound and the tolerable rate) the thresholds and failure terms
    are computed from placeholder rates and mean nothing.
    """
    est = merge_block_estimates(block_scale(counts, pc, budget, L, counts.n_total("Z")))
    e_upper = observed_error_upper(test_errors_by_link, k, L, budget.eps_pe)
    p_e = solve_p_e(est.s_z1_lower, L, est.phi_z1_upper)
    certified = ~est.saturated & (p_e > e_upper)
    th = thresholds_from_rates(
        np.where(certified, e_upper, 0.0), np.where(certified, p_e, 0.25)
    )
    rep_raw = p_repudiation_raw(th, L)
    eps_forge = epsilon_f(alpha, L, est.s_z1_lower, est.phi_z1_upper, th.s_upsilon, eps)
    forge_raw = p_forge_raw(alpha, eps_forge, budget.eps_pe)
    security = p_sec(
        p_robust(budget.eps_pe), np.minimum(1.0, rep_raw), np.minimum(1.0, forge_raw)
    )
    return _Chain(est, e_upper, p_e, certified, th, rep_raw, eps_forge, forge_raw, security)


def _stack_links(counts_per_setting: Sequence[Mapping[str, ObservedCounts]]) -> ObservedCounts:
    """Counts with batch axes (links, settings, 1) for ``_bound_chain``.

    A counts object that several links share is estimated once; settings
    with fewer distinct links repeat their first, which leaves every
    worst-link bound unchanged.
    """
    distinct = []
    for counts_by_link in counts_per_setting:
        if not counts_by_link:
            raise ValueError("at least one link is required")
        distinct.append(list({id(c): c for c in counts_by_link.values()}.values()))
    width = max(len(links) for links in distinct)
    cells = [
        [links[j].cells if j < len(links) else links[0].cells for links in distinct]
        for j in range(width)
    ]
    return ObservedCounts.from_cells(np.moveaxis(np.array(cells), (0, 1), (3, 4))[..., None])


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

    The bound chain the solver bisects, evaluated at one L.  The test
    sample is ``k_test`` bits, or 5% of L when None.  Without
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
    test_errors: dict[str, float] = {}
    for link, counts in counts_by_link.items():
        pool = counts.n_total("Z")
        if L > pool:
            raise Infeasible(
                f"link {link!r}: block length {L} exceeds the sifted pool {pool:.0f}"
            )
        if test_errors_by_link is not None:
            test_errors[link] = test_errors_by_link[link]
        else:
            # expected errors on a k-bit test sample drawn from the pool
            test_errors[link] = k_test * counts.m_total("Z") / pool
    chain = _bound_chain(
        _stack_links([counts_by_link]), pc, budget, alpha, eps,
        np.array([[L]]), k_test, test_errors,
    )
    merged = FiniteKeyEstimates(
        *(getattr(chain.estimates, f.name).item() for f in fields(FiniteKeyEstimates))
    )
    e_upper, p_e = chain.e_upper.item(), chain.p_e.item()
    if not chain.certified.item():
        raise Infeasible(
            f"block of length {L} cannot be certified: tolerable rate "
            f"{p_e:.6g} vs observed bound {e_upper:.6g}"
            + (" (phase error saturated)" if merged.saturated else "")
        )
    rep_raw, forge_raw = chain.p_repudiation_raw.item(), chain.p_forge_raw.item()
    time_s, rate = signature_time_and_rate(L, counts_by_link, pc, ch)
    return SecurityReport(
        L=L,
        k_test=k_test,
        e_upper=e_upper,
        p_e=p_e,
        thresholds=Thresholds(
            chain.thresholds.s_alpha.item(), chain.thresholds.s_upsilon.item()
        ),
        p_robust=p_robust(budget.eps_pe),
        p_repudiation=min(1.0, rep_raw),
        p_forge=min(1.0, forge_raw),
        p_sec=chain.p_sec.item(),
        time_per_bit_s=time_s,
        rate_bits_per_s=rate,
        estimates=merged,
        p_repudiation_raw=rep_raw,
        p_forge_raw=forge_raw,
        epsilon_forge=chain.epsilon_forge.item(),
    )


def _bisection_tree(
    lo: np.ndarray, hi: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every even midpoint the bisection of each (lo, hi) can probe in ``depth`` steps.

    Returns the midpoints, shape (len(lo), 2**depth - 1), level by level,
    and the (lo, hi) each path ends on, shape (len(lo), 2**depth).  Level
    j holds 2**j nodes; node p of level j has children p (its midpoint was
    feasible, so hi moves down to it) and p + 2**j (infeasible, lo moves
    up) on level j + 1.  An interval one step wide (hi = lo + 2) is where
    the bisection stops; its midpoint is lo, and both its children repeat
    it, whatever the probe there yields.
    """
    # in units of two, the bisection of even lengths is plain integer bisection
    lo, hi = lo[:, None] // 2, hi[:, None] // 2
    levels = []
    for _ in range(depth):
        mid = (lo + hi) // 2
        levels.append(mid)
        lo, hi = (
            np.concatenate([lo, mid], axis=1),
            np.concatenate([np.maximum(mid, lo + 1), hi], axis=1),
        )
    return 2 * np.concatenate(levels, axis=1), 2 * lo, 2 * hi


def min_signature_length(
    settings: Sequence[tuple[Mapping[str, ObservedCounts], PulseConfig]],
    budget: EpsilonBudget,
    alpha: float,
    eps: float,
    target_psec: float,
    k_test: int | None = None,
) -> list[int | Infeasible]:
    """Smallest even block length meeting ``target_psec``, for a batch of settings.

    ``settings`` holds (counts_by_link, pc) pairs.  Each entry of the
    result is the solved L, or the ``Infeasible`` error saying why there
    is none; it is returned, not raised, so one hopeless setting does not
    stop the batch.  A length is feasible when ``block_report`` certifies
    it under the same test-sample rule (``k_test`` bits, or 5% of the
    length when None) with p_sec <= target_psec.

    Feasibility is monotone in L (longer blocks shrink every finite-size
    penalty), so each setting is bisected over even lengths: the largest
    its pool affords first, then 2, then even midpoints.  The settings
    advance in lockstep.  Each round takes, for every active setting,
    every midpoint its next d steps could probe (2**d - 1 lengths),
    evaluates them all in one call of the bound chain, then moves every
    setting d steps; d is the largest depth at which the round fits
    ``SOLVER_LANES`` lengths, and no more than the widest remaining
    interval needs.  Each setting thus probes exactly the lengths a
    one-at-a-time bisection would, and ends on the same L.
    """
    if target_psec < budget.total:
        raise InfeasibleTarget(
            f"target {target_psec:.3g} is below the estimation floor "
            f"{len(BOUND_APPLICATIONS)}*eps_pe = {budget.total:.3g}"
        )
    if k_test is not None and k_test < 1:
        raise ValueError(f"test sample size must be at least 1, got {k_test}")
    counts = _stack_links([counts_by_link for counts_by_link, _ in settings])
    pcs = [pc for _, pc in settings]
    m_z, pool = counts.m_total("Z"), counts.n_total("Z")
    hi = pool.min(axis=0)[:, 0].astype(np.int64) // 2 * 2
    lo = np.full_like(hi, 2)
    # settings never made active keep this verdict
    results: list[int | Infeasible] = [
        Infeasible("sifted pool is empty") for _ in settings
    ]

    def feasible(rows: np.ndarray, L: np.ndarray) -> np.ndarray:
        if k_test is None:
            k = np.maximum(1.0, np.rint(DEFAULT_TEST_FRACTION * L))
        else:
            k = k_test
        # expected errors on a k-bit test sample drawn from each pool
        errors = k * m_z[:, rows] / pool[:, rows]
        # one setting's config broadcasts as it is, and its terms stay scalar
        if len(rows) == 1:
            source = pcs[rows[0]]
        else:
            source = PulseConfig.stack([pcs[i] for i in rows])
        chain = _bound_chain(
            ObservedCounts.from_cells(counts.cells[:, :, :, :, rows]), source,
            budget, alpha, eps, L, k, dict(enumerate(errors)),
        )
        return chain.certified & (chain.p_sec <= target_psec)

    active = np.flatnonzero(hi >= 2)
    first = True
    while active.size:
        # the deepest tree that fits the lanes, but no deeper than the widest
        # interval needs: w units of two take ceil(log2(w)) more steps
        widest = int((hi[active] - lo[active]).max()) // 2
        depth = max(1, min((SOLVER_LANES // active.size + 1).bit_length() - 1,
                           (widest - 1).bit_length()))
        tree, ends_lo, ends_hi = _bisection_tree(lo[active], hi[active], depth)
        if first:
            # the bisection probes the longest block, then 2, then the tree
            ok = feasible(active, np.concatenate(
                [hi[active, None], lo[active, None], tree], axis=1
            ))
            for row in active[~ok[:, 0]]:
                results[row] = Infeasible(
                    f"no block length up to the pool size {hi[row]} reaches the "
                    f"target {target_psec:.3g}"
                )
            for row in active[ok[:, 0] & ok[:, 1]]:
                results[row] = 2
            keep = ok[:, 0] & ~ok[:, 1]
            active, ok = active[keep], ok[keep, 2:]
            ends_lo, ends_hi = ends_lo[keep], ends_hi[keep]
            first = False
        else:
            ok = feasible(active, tree)
        lanes = np.arange(active.size)
        end = np.zeros(active.size, dtype=np.int64)
        for level in range(depth):
            width = 2**level
            end += width * ~ok[lanes, width - 1 + end]
        lo[active], hi[active] = ends_lo[lanes, end], ends_hi[lanes, end]
        done = hi[active] - lo[active] <= 2
        for row in active[done]:
            results[row] = int(hi[row])
        active = active[~done]
    return results


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
    y = float(counts.n_total("Z")) / pc.n_pulses
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
