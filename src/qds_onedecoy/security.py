"""Security bounds and block-length solving for the three-party signature.

One signed bit consumes an L-bit key block per message value from each
of the two recipient links.  This module turns finite-size estimates of
those blocks into the three failure probabilities (robustness,
repudiation, forging), derives the verification thresholds, searches for
the smallest feasible L against a target, and converts block consumption
into signing time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams, ObservedCounts, PulseConfig
from .finite_key import (
    BOUND_APPLICATIONS,
    EpsilonBudget,
    FiniteKeyEstimates,
    _Decoy,
    _decoy,
    block_scale,
    observed_error_upper,
)
from .stat_math import binary_entropy, binary_entropy_inverse

__all__ = [
    "SecurityTarget",
    "Infeasible",
    "InfeasibleTarget",
    "Verdicts",
    "Thresholds",
    "SecurityReport",
    "solve_p_e",
    "thresholds_from_rates",
    "merge_block_estimates",
    "block_report",
    "k_test_for",
    "min_signature_length",
    "signature_time_and_rate",
    "longest_block_at_rate",
]

#: Default test-sample fraction of the block length; see ``k_test_for``.
DEFAULT_TEST_FRACTION = 0.05
#: Block lengths one round of the lockstep solver may evaluate, shared
#: equally by the settings it is still solving.  A round costs mostly its
#: fixed numpy overhead up to a few hundred lengths (a chain call of 256
#: costs about 1.25 times one of 1, 435 against 350 us on a 2-vCPU VM),
#: so one setting narrows its interval 257-fold a round.
SOLVER_LANES = 256


@dataclass(frozen=True)
class SecurityTarget:
    """The security target a block is certified under: the estimation
    budget, the forging terms alpha and eps, the target p_sec and the
    test-sample size (``k_test_for``'s rule when None).  The names of its
    other fields and of the budget's are run configuration keys."""

    budget: EpsilonBudget
    alpha: float
    eps: float
    target_psec: float
    k_test: int | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "eps", "target_psec"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value:g}")
        if self.k_test is not None:
            _check_integer("k_test", self.k_test)


class Infeasible(Exception):
    """The requested security level cannot be certified from these statistics.

    ``cause``, when not empty, says why, apart from the message.
    """

    cause = ""


class InfeasibleTarget(Infeasible):
    """The target failure probability is below the structural floor."""


class Verdicts(NamedTuple):
    """The verdicts of ``min_signature_length``, arrays with one entry per
    setting: a block length ``L`` and a verdict code, and the solve's
    ``rounds``, each the settings it probed, their lengths and the
    ``_Chain`` it evaluated there.

    ``SOLVED``: L is the smallest feasible length.  ``PRUNED``: the
    setting is feasible at its pool and its smallest feasible L is at
    least ``L``, either because it is infeasible at its cap (``L`` is cap
    + 2) or because it raced out, infeasible at L - 2 and too slow at L
    to win.  The other three codes are the causes of infeasibility, with
    ``L`` the setting's even Z pool; ``error`` rebuilds the ``Infeasible``
    error that says which.
    """

    L: np.ndarray
    code: np.ndarray
    rounds: Sequence[tuple[np.ndarray, np.ndarray, _Chain]]

    SOLVED, PRUNED, EMPTY_POOL, SAMPLE_PAST_POOL, UNREACHED = range(5)

    def error(self, i: int, target: SecurityTarget) -> Infeasible | None:
        """The ``Infeasible`` error of setting ``i`` under ``target``, the
        one its solve used; None when the setting has an L."""
        code, L = int(self.code[i]), int(self.L[i])
        if code == self.EMPTY_POOL:
            return Infeasible("sifted pool is empty")
        if code == self.SAMPLE_PAST_POOL:
            return Infeasible(f"test sample of {target.k_test} bits exceeds the sifted "
                              f"pool size {L}")
        if code == self.UNREACHED:
            error = Infeasible(f"no block length up to the pool size {L} reaches the "
                               f"target {target.target_psec:.3g}")
            error.cause = self._cause(i)
            return error
        return None

    def _cause(self, i: int) -> str:
        """Why unreached setting ``i`` falls short at its pool, read from the
        lane the first round probed there (column 0)."""
        rows, _, chain = self.rounds[0]
        view = chain.item(rows.searchsorted(i), 0)
        if cause := _estimates_cause(view["estimates"]):
            return cause
        if not view["certified"]:
            return (f"no threshold margin (p_E {view['p_e']:.6g} vs observed bound "
                    f"{view['e_upper']:.6g})")
        return f"p_sec {view['p_sec']:.3g} above the target"

    def _item(self, i: int) -> dict[str, object]:
        """``_Chain.item`` of solved setting ``i`` at its L, read from the
        last round that probed that length."""
        L = self.L[i]
        for rows, points, chain in reversed(self.rounds):
            j = rows.searchsorted(i)
            if j < len(rows) and rows[j] == i and (hit := (points[j] == L).nonzero()[0]).size:
                return chain.item(j, hit[0])
        raise ValueError(f"setting {i} was not probed at its block length {L}")


def _estimates_cause(est: FiniteKeyEstimates) -> str:
    """Why estimates certify no block, or "": a vacuous bound, which also
    sets the phase error to 1/2, before a saturated one."""
    if est.vacuous:
        return "no single-photon content certified"
    if est.saturated:
        return "phase error saturated"
    return ""


def k_test_for(L: int | np.ndarray, k_test: int | None = None) -> int | np.ndarray:
    """Test-sample size for an L-bit block: ``k_test`` bits when given,
    else 5% of L rounded half-to-even, and at least 1.

    An array of lengths gives an array of (float) sizes.
    """
    if k_test is not None:
        return _check_integer("k_test", k_test)
    k = np.maximum(1.0, np.rint(DEFAULT_TEST_FRACTION * L))
    return int(k) if np.ndim(k) == 0 else k


def _check_length(L: int) -> int:
    """``L`` as an ``int``, when it is a block length any entry point takes:
    an ``int`` or numpy integer, even, in [2, 2**52]."""
    if L < 2 or L % 2 != 0:
        raise ValueError(f"block length must be an even integer >= 2, got {L}")
    if L > 2**52:
        raise ValueError(f"block length must be at most 2**52, the pool cap, got {L}")
    if not isinstance(L, (int, np.integer)):
        raise ValueError(f"block length must be an integer, got {L!r}")
    return int(L)


def _check_integer(name: str, value: int, least: int = 1) -> int:
    """``value`` as an ``int``, when it is an ``int`` or numpy integer (not a
    bool) of at least ``least``: a test-sample size, seed, trial count or grid size."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        floor = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {floor}, got {value}")
    return int(value)


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


def _entropy_rate(
    s_z1: float | np.ndarray, L: int | np.ndarray, phi_z1: float | np.ndarray
) -> float | np.ndarray:
    """Certified min-entropy rate of an L-bit block, 2 s_z1 / L * (1 - h(phi_z1)).

    Both the tolerable error rate and the forging margin start from it.
    """
    return 2.0 * (s_z1 / L) * (1.0 - binary_entropy(phi_z1))


def solve_p_e(
    s_z1: float | np.ndarray, L: int | np.ndarray, phi_z1: float | np.ndarray
) -> float | np.ndarray:
    """Largest tolerable key error rate p_E for an L-bit block.

    Solves  h(p_E) = min(1, 2 s_z1 / L * (1 - h(phi_z1)))  on the
    increasing branch of the binary entropy.  A zero right-hand side
    (no certified single-photon content) yields p_E = 0, which marks the
    block infeasible to every caller that needs a positive margin.
    """
    if not np.minimum.reduce(L, axis=None) > 0:
        raise ValueError(f"block length must be positive, got {L}")
    if not np.minimum.reduce(s_z1, axis=None) >= 0:
        raise ValueError(f"single-photon count must be non-negative, got {s_z1}")
    return _tolerable_error(_entropy_rate(s_z1, L, phi_z1))


def _tolerable_error(rate: float | np.ndarray) -> float | np.ndarray:
    """p_E from the block's entropy rate (see ``solve_p_e``)."""
    return binary_entropy_inverse(np.minimum(1.0, np.maximum(0.0, rate)))


def thresholds_from_rates(e_upper: float, p_e: float) -> Thresholds:
    """Place the two thresholds at even thirds between E_upper and p_E."""
    if not p_e > e_upper:
        raise Infeasible(
            f"no threshold margin: tolerable error rate {p_e} does not exceed "
            f"the observed error bound {e_upper}"
        )
    return Thresholds(*_thresholds(e_upper, p_e))


def _thresholds(
    e_upper: float | np.ndarray, p_e: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(s_alpha, s_upsilon) of ``thresholds_from_rates``, unchecked."""
    gap = p_e - e_upper
    return e_upper + gap / 3.0, e_upper + 2.0 * gap / 3.0


def _repudiation(
    s_alpha: float | np.ndarray, s_upsilon: float | np.ndarray, L: int | np.ndarray
) -> float | np.ndarray:
    """Unclamped repudiation bound 2 exp(-(s_upsilon - s_alpha)^2 L / 4)."""
    return 2.0 * np.exp(-((s_upsilon - s_alpha) ** 2) * L / 4.0)


def _forge_term(
    alpha: float,
    L: int | np.ndarray,
    rate: float | np.ndarray,
    s_upsilon: float | np.ndarray,
    eps: float,
) -> float | np.ndarray:
    """Forger's success term eps_F = (2^(-L/2 * margin) + eps) / alpha.

    The margin is the block's certified min-entropy rate ``rate``,
    2 s_z1 / L * (1 - h(phi)), minus the entropy h(s_upsilon) the forger
    may spend on admissible mismatches.  A negative margin overflows
    toward infinity, which the clamped forging probability turns into 1.
    """
    exponent = 0.5 * L * (rate - binary_entropy(s_upsilon))
    # 2^-exponent overflows to inf exactly where exponent <= -1024, and a
    # finite but huge term divides out to inf
    with np.errstate(over="ignore"):
        return ((np.exp2(-exponent) + eps) / alpha)[()]


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
    """Every bound of the analysis over a batch (see ``_bound_chain``):
    ``certified``, each link's block estimates, the two thresholds and the
    other fields of ``SecurityReport`` the chain computes."""

    estimates: FiniteKeyEstimates
    e_upper: np.ndarray
    p_e: np.ndarray
    certified: np.ndarray
    s_alpha: np.ndarray
    s_upsilon: np.ndarray
    p_robust: float
    p_repudiation_raw: np.ndarray
    p_repudiation: np.ndarray
    epsilon_forge: np.ndarray
    p_forge_raw: np.ndarray
    p_forge: np.ndarray
    p_sec: np.ndarray

    def item(self, *lane: int) -> dict[str, object]:
        """One lane as Python scalars by field name: ``certified`` and the
        fields of ``SecurityReport``, with the links' estimates merged and
        the thresholds checked as their own types.  ``lane`` indexes the
        (settings, lengths) axes, as ``ndarray.item`` does; a batch of one
        needs none.  Each link's estimates are read at the lane before
        they are merged, which takes the same worst case of each field."""
        view = {
            name: value if name == "p_robust" else value.item(*lane)
            for name, value in zip(self._fields[1:], self[1:])
        }
        at = (slice(None), *lane)
        merged = merge_block_estimates(FiniteKeyEstimates(
            *(getattr(self.estimates, f.name)[at] for f in fields(FiniteKeyEstimates))
        ))
        view["estimates"] = FiniteKeyEstimates(
            *(getattr(merged, f.name).item() for f in fields(merged))
        )
        view["thresholds"] = Thresholds(view.pop("s_alpha"), view.pop("s_upsilon"))
        return view


def _bound_chain(
    counts: ObservedCounts, pc: PulseConfig | _Decoy, target: SecurityTarget, L: np.ndarray
) -> _Chain:
    """The bound chain at block lengths ``L``, evaluated for a whole batch.

    ``counts`` holds pool-scale counts with batch axes (links, settings,
    1), one entry per distinct link; ``pc`` (a config, a
    ``PulseConfig.stack`` or its ``finite_key._decoy`` factors) and ``L``
    broadcast against its last two (settings x block lengths in the
    solver).  Each link's test errors are those expected on a sample of
    ``k_test_for(L, target.k_test)`` bits drawn from its pool.  Of the
    links' block estimates the verdict needs the worst s_z1, phi and
    saturation only; ``_Chain.item`` merges the rest.  The block's entropy
    rate, and the h(phi) in it, is computed once for p_E and eps_F.  Where
    a block is not ``certified`` (saturated, or no margin between the error
    bound and the tolerable rate) the thresholds and failure terms are
    computed from placeholder rates and mean nothing.

    The last three terms: an honest run aborts when both test-sample bounds
    fail, p_robust = min(1, 2 eps_PE); the unclamped forging bound is
    p_forge_raw = alpha + eps_F + 10 eps_PE, one eps_PE per entry of
    ``BOUND_APPLICATIONS``; and p_sec is the worst of the three clamped
    failure bounds.
    """
    budget, k = target.budget, k_test_for(L, target.k_test)
    pool = counts.n_total("Z")
    est = block_scale(counts, _decoy(pc), budget, L, pool)
    e_upper = observed_error_upper(k * counts.m_total("Z") / pool, k, L, budget.eps_pe)
    rate = _entropy_rate(
        np.minimum.reduce(est.s_z1_lower), L, np.maximum.reduce(est.phi_z1_upper)
    )
    p_e = _tolerable_error(rate)
    certified = ~np.logical_or.reduce(est.saturated) & (p_e > e_upper)
    s_alpha, s_upsilon = _thresholds(
        np.where(certified, e_upper, 0.0), np.where(certified, p_e, 0.25)
    )
    robust = min(1.0, 2.0 * budget.eps_pe)
    rep_raw = _repudiation(s_alpha, s_upsilon, L)
    rep = np.minimum(1.0, rep_raw)
    eps_forge = _forge_term(target.alpha, L, rate, s_upsilon, target.eps)
    forge_raw = target.alpha + eps_forge + len(BOUND_APPLICATIONS) * budget.eps_pe
    forge = np.minimum(1.0, forge_raw)
    return _Chain(
        est, e_upper, p_e, certified, s_alpha, s_upsilon, robust, rep_raw, rep, eps_forge,
        forge_raw, forge, np.maximum(np.maximum(robust, rep), forge),
    )


def _stack_links(counts_by_link: Mapping[str, ObservedCounts]) -> ObservedCounts:
    """Counts with batch axes (links, settings, 1) for ``_bound_chain``.

    Each link's counts are one setting's or carry a stack's (settings, 1)
    axes.  A counts object that several links share is estimated once.
    """
    links = [c.cells for c in _distinct_links(counts_by_link)]
    # one counts object (the model's links) is viewed, not copied
    cells = links[0][:, :, :, None] if len(links) == 1 else np.stack(links, axis=3)
    return ObservedCounts.from_cells(cells.reshape(*cells.shape[:4], -1, 1))


def _distinct_links(counts_by_link: Mapping[str, ObservedCounts]) -> list[ObservedCounts]:
    """The distinct counts objects of the links, in order."""
    if not counts_by_link:
        raise ValueError("at least one link is required")
    return list({id(c): c for c in counts_by_link.values()}.values())


def block_report(
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    ch: ChannelParams,
    target: SecurityTarget,
    L: int | None = None,
) -> SecurityReport:
    """Full security report at block length ``L``, or at the smallest L
    meeting ``target`` when L is None.  A given L must be an even integer
    in [2, 2**52], as every entry point's block length must.

    The bound chain the solver searches, evaluated at one L, with the
    test sample ``k_test_for(L, target.k_test)``.  Raises ``Infeasible``
    when the block cannot be certified, or, when solving, the error
    ``Verdicts.error`` gives for a setting with no L.  A solved report is
    read from the lane of the solver's chain that proved L: the chain is
    elementwise over its batch, so that lane holds the floats a chain
    call at L alone would compute.
    """
    if L is None:
        solved = min_signature_length(counts_by_link, pc, target)
        if (error := solved.error(0, target)) is not None:
            raise error
        L, view = int(solved.L[0]), solved._item(0)
    else:
        L = _check_length(L)
        for link, counts in counts_by_link.items():
            pool = counts.n_total("Z")
            if L > pool:
                raise Infeasible(
                    f"link {link!r}: block length {L} exceeds the sifted pool {pool:.0f}"
                )
            if target.k_test is not None and target.k_test > pool:
                raise Infeasible(
                    f"link {link!r}: test sample of {target.k_test} bits exceeds the "
                    f"sifted pool {pool:.0f}"
                )
        view = _bound_chain(_stack_links(counts_by_link), pc, target, np.array([[L]])).item()
    if not view.pop("certified"):
        cause = _estimates_cause(view["estimates"])
        raise Infeasible(
            f"block of length {L} cannot be certified: tolerable rate "
            f"{view['p_e']:.6g} vs observed bound {view['e_upper']:.6g}"
            + (f" ({cause})" if cause else "")
        )
    time_s, rate = signature_time_and_rate(L, counts_by_link, pc, ch)
    return SecurityReport(
        L=L, k_test=k_test_for(L, target.k_test), time_per_bit_s=float(time_s),
        rate_bits_per_s=float(rate), **view,
    )


def _spread(lo: np.ndarray, hi: np.ndarray, width: int, ratio: int) -> np.ndarray:
    """Up to ``width`` even lengths strictly between each lo and hi, in
    ascending order, shape (len(lo), n) with n <= ``width``.

    A setting with fewer candidates than n takes every one, its last
    repeated; one with none (hi = lo + 2) takes hi.  The lengths are
    evenly spaced (``ratio`` 0), or spaced by a constant ratio (lo is
    then 0): from lo + 2 up (``ratio`` 1), or mirrored about hi, from
    hi - 2 down (``ratio`` -1).
    """
    # in units of two, the candidates of each setting are 1 .. gap - 1 above
    # lo, of which it takes n or all, ``taken``; ``parts`` is taken + 1, and
    # ``room``, the gap but at least 2, gives every setting at least one unit
    gap = (hi - lo)[:, None] // 2
    n = max(1, min(width, int(np.maximum.reduce(gap, axis=None)) - 1))
    room = np.maximum(gap, 2)
    parts = np.minimum(room, n + 1)
    j = np.minimum(np.arange(1, n + 1), parts - 1)
    if ratio:
        # never below j: with every candidate taken that is each of them
        step = j if ratio > 0 else parts - j
        units = np.maximum(np.floor(gap ** ((step - 1) / (parts - 1))).astype(np.int64), step)
        if ratio < 0:
            units = np.maximum(gap - units, 1)
    else:
        # j * room >= parts, so units >= 1; room < 2**51 (pools stop at
        # 2**52) and j <= SOLVER_LANES, so the product stays far below 2**63
        units = j * room // parts
    return lo[:, None] + 2 * units


def min_signature_length(
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    target: SecurityTarget,
    cap: np.ndarray | None = None,
    race: tuple[np.ndarray, float] | None = None,
) -> Verdicts:
    """Smallest even block length meeting ``target.target_psec``, for every setting.

    ``pc`` is one config, or a ``PulseConfig.stack`` whose batch axes each
    link's counts carry.  A length is feasible when ``block_report``
    certifies it under the same ``target``, test-sample rule included,
    with p_sec <= target_psec; the search relies on feasibility being
    monotone in L.  Returns ``Verdicts`` with one entry per setting, so
    one hopeless setting does not stop the batch, and each round's chain,
    whose lanes hold the floats a chain call at that length alone gives.
    Without ``race``, a setting gets the verdict it gets solved alone.  A
    target below the estimation floor raises ``InfeasibleTarget``.

    ``cap`` gives one length per setting, and no cap is a cap at the pool:
    a setting feasible at its pool whose L exceeds its cap is ``PRUNED``
    with L cap + 2.  ``race`` gives each setting's sifted yield per pulse
    and the clock in Hz: a setting that cannot reach, at lo + 2, a
    signing rate another setting has proven is ``PRUNED`` with L lo + 2;
    a tie is never pruned.  README, "How the block length is solved",
    gives the design.
    """
    target_psec = target.target_psec
    if target_psec < target.budget.total:
        raise InfeasibleTarget(
            f"target {target_psec:.3g} is below the estimation floor "
            f"{len(BOUND_APPLICATIONS)}*eps_pe = {target.budget.total:.3g}"
        )
    # one column per setting: the cells of each distinct link, then the
    # decoy factors, which a round indexes for its settings when they change
    cells = _stack_links(counts_by_link).cells
    settings, n_cells = cells.shape[4], cells[..., 0, 0].size
    table = np.empty((n_cells + len(_Decoy._fields), settings))
    table[:n_cells] = cells.reshape(n_cells, settings)
    table[n_cells:] = np.array(_decoy(pc)).reshape(len(_Decoy._fields), -1)
    pool = np.minimum.reduce(cells[0, 0, 0] + cells[0, 1, 0])[:, 0]
    # the chain takes lengths as floats: keep them exact
    if np.maximum.reduce(pool, initial=0.0) > 2.0**52:
        raise ValueError(
            f"sifted Z pool of {pool.max():.17g} bits exceeds 2**52, the longest "
            f"block length the solver resolves"
        )
    # a test sample larger than the pool rules out every length
    sampled = pool >= (target.k_test or 0)
    pool = pool.astype(np.int64) & -2  # rounded down to even, as every length below
    # settings never made active keep these
    lengths = pool.copy()
    codes = np.where(pool < 2, Verdicts.EMPTY_POOL,
                     np.where(sampled, Verdicts.UNREACHED, Verdicts.SAMPLE_PAST_POOL))
    rows = ((pool >= 2) & sampled).nonzero()[0]
    # an uncapped solve is the solve capped at the pool.  The first round
    # probes the pool, hi (the cap within the pool) and lanes up from 2
    # (uncapped) or down from the cap; a setting feasible at its pool but
    # not at its cap is pruned with L cap + 2, at once when the cap is below 2
    ratio, cap = (1, pool) if cap is None else (-1, np.asarray(cap, dtype=np.int64))
    longest, cut = pool[rows], np.maximum(cap[rows] & -2, 0)
    hi, lo = np.minimum(longest, np.maximum(cut, 2)), np.zeros(len(rows), dtype=np.int64)
    rounds = []
    # the chain's counts and decoy factors of the settings in ``rows``
    batch = None

    while len(rows):
        if batch is None:
            sub = table[:, rows] if len(rows) < settings else table
            batch = (ObservedCounts.from_cells(sub[:n_cells].reshape(2, 2, 2, -1, len(rows), 1)),
                     _Decoy(*sub[n_cells:, :, None]))
        points = _spread(lo, hi, SOLVER_LANES // len(rows), ratio)
        if ratio:
            points = np.concatenate([longest[:, None], hi[:, None], points], axis=1)
        # the chain does all its arithmetic on L in floats: converting once
        # changes no value and spares each operation the cast
        chain = _bound_chain(*batch, target, points.astype(float))
        rounds.append((rows, points, chain))
        ok = chain.certified & (chain.p_sec <= target_psec)
        if ratio:
            kept = ok[:, 1] & (cut >= 2)
            codes[rows] = np.where(kept, Verdicts.SOLVED,
                                   np.where(ok[:, 0], Verdicts.PRUNED, Verdicts.UNREACHED))
            lengths[rows] = np.where(ok[:, 0], cut + 2, longest)
            points, ok = points[:, 2:], ok[:, 2:]
            if np.count_nonzero(kept) < len(rows):
                rows, lo, hi, points, ok = rows[kept], lo[kept], hi[kept], points[kept], ok[kept]
                batch = None
                if not len(rows):
                    break
            ratio = 0
        # the first feasible point (hi where there is none, as if feasible)
        # becomes hi and the point before it lo, read from the flat ends
        ends = np.concatenate([lo[:, None], points, hi[:, None]], axis=1)
        at = np.concatenate([ok, np.ones((len(ok), 1), dtype=bool)], axis=1).argmax(axis=1)
        at += np.arange(0, ends.size, ends.shape[1])
        ends = ends.ravel()
        lo, hi = ends[at], ends[at + 1]
        lengths[rows] = hi
        going = hi - lo > 2
        if race is not None and np.count_nonzero(going):
            y, clock_hz = race
            # every setting still solved holds a feasible length
            live = codes == Verdicts.SOLVED
            best = np.maximum.reduce(1.0 / _signing_time(lengths[live], y[live], clock_hz))
            beaten = going & (1.0 / _signing_time(lo + 2, y[rows], clock_hz) < best)
            codes[rows[beaten]], lengths[rows[beaten]] = Verdicts.PRUNED, lo[beaten] + 2
            going &= ~beaten
        if np.count_nonzero(going) < len(rows):
            rows, lo, hi = rows[going], lo[going], hi[going]
            batch = None
    return Verdicts(lengths, codes, rounds)


def signature_time_and_rate(
    L: int | np.ndarray,
    counts_by_link: Mapping[str, ObservedCounts],
    pc: PulseConfig,
    ch: ChannelParams,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Seconds to sign one bit, and its inverse.

    Each link must accumulate the 2L bits a signed bit consumes.  A
    link's sifted-key yield per emitted pulse is taken from its observed
    Z detections, so duty cycling and losses are already priced in.  The
    links run in parallel, so the one with the smallest yield y dictates:
    2L / (clock * y).  ``L``, the counts and ``pc`` may carry batch axes.
    """
    if not np.minimum.reduce(L, axis=None) > 0:
        raise ValueError(f"block length must be positive, got {L}")
    y = _sifted_yield(counts_by_link, pc)
    if np.minimum.reduce(y, axis=None) <= 0.0:
        raise Infeasible("a link produced no sifted detections")
    time_s = _signing_time(L, y, ch.clock_hz)
    return time_s, 1.0 / time_s


def _signing_time(
    L: int | np.ndarray, y: float | np.ndarray, clock_hz: float
) -> float | np.ndarray:
    """2L / (clock * y), the float expression every signing rate comes from."""
    return 2.0 * L / (clock_hz * y)


def _sifted_yield(
    counts_by_link: Mapping[str, ObservedCounts], pc: PulseConfig
) -> float | np.ndarray:
    """Sifted Z detections per emitted pulse on the slowest link."""
    pools = [c.n_total("Z") for c in _distinct_links(counts_by_link)]
    return (pools[0] if len(pools) == 1 else np.min(pools, axis=0)) / pc.n_pulses


def longest_block_at_rate(rate: float, y: np.ndarray, clock_hz: float) -> np.ndarray:
    """Largest even L at which each setting, of sifted yield ``y`` per
    pulse on its slowest link, signs at least ``rate`` bits per second, by
    the float expression ``signature_time_and_rate`` rates with; 0 where
    even L = 2 is slower.

    A setting whose smallest feasible L exceeds this length signs strictly
    slower than ``rate``.
    """
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")

    def reaches(L: np.ndarray) -> np.ndarray:
        return (L > 0) & (1.0 / _signing_time(L, y, clock_hz) >= rate)

    # the exact cut, rounded down to even, is off by a step at most; the
    # expression is monotone in L, so stepping settles it: up while L + 2
    # reaches, then down while L does not, both read in one pass.  Lengths
    # past 2**52 exceed any pool, and floats stop resolving steps of two there.
    L = np.minimum(np.floor(clock_hz * y / (4.0 * rate)) * 2.0, 2.0**52)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero yield never reaches
        while True:
            at, above = reaches(L + _HERE_AND_NEXT)
            if np.count_nonzero(up := above & (L < 2.0**52)):
                L += 2.0 * up
            elif np.count_nonzero(down := (L > 0) & ~at):
                L -= 2.0 * down
            else:
                return L.astype(np.int64)


#: A length and the next even one, down a new leading axis.
_HERE_AND_NEXT = np.array([[0.0], [2.0]])
