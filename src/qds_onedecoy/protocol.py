"""Three-party signature protocol: distribution, messaging and attacks.

Alice signs; Bob authenticates; Charlie arbitrates.  During distribution
each recipient runs a key-generation link toward Alice (quantum states
travel recipient to signer) and the two recipients symmetrise their keys
by exchanging random halves, so neither knows which positions the other
kept.  During messaging Alice declares her measured keys for one message
bit, Bob checks the declaration against his symmetrised key at the
tighter threshold and forwards it, and Charlie checks at the looser one.

Key material is handled at the bit level when the pulse budget is small
enough to materialise strings ("desk scale"); larger configurations run
the messaging stage on synthetic keys drawn at the model error rate.
All randomness is derived from named substreams of one seed, so runs
are reproducible end to end, transcript included.  A message keeps its
payload and is digested only when the transcript is read; the key and
position arrays a payload refers to are read-only from when it is sent.
A forwarded half's split is drawn only when read, by messaging for the
signed value and by a reader of the transcript for its payload; the
positions a payload lists are read-only from then.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import IO

import numpy as np

from .channel import (
    DESK_SCALE_MAX_PULSES,
    LINKS,
    ChannelParams,
    ObservedCounts,
    PulseConfig,
    expected_statistics,
    sample_statistics,
)
from .security import Infeasible, Thresholds, _check_length, k_test_for
from .stat_math import binary_entropy

__all__ = [
    "ProtocolError",
    "ClassicalMessage",
    "HalfKey",
    "KgpResult",
    "rng_stream",
    "run_kgp",
    "symmetrize",
    "verify",
    "ProtocolSession",
    "attack_repudiation",
    "attack_forge",
    "exact_forge_success",
]

#: Block bits a chunked pass takes at once: synthetic flips are drawn,
#: and a half's positions found, this many at a time.
_CHUNK = 1 << 16


class ProtocolError(Infeasible):
    """A party was driven outside the allowed protocol flow, distribution
    could not produce enough key material, or a key block was reused.
    An ``Infeasible``, so the CLI reports it without loading this module."""


@dataclass(frozen=True)
class ClassicalMessage:
    """One authenticated classical transmission and the payload it carried.

    ``sent`` is the payload, or a ``functools.partial`` of no arguments
    that builds it when ``payload`` is first read, at most once.  The
    payload is digested when ``digest`` is first read, at most once; a
    message whose payload is another message carries that one's digest.
    """

    seq: int
    kind: str
    sender: str
    receiver: str
    sent: object = field(repr=False, compare=False)

    @cached_property
    def payload(self) -> object:
        return self.sent() if isinstance(self.sent, partial) else self.sent

    @cached_property
    def digest(self) -> str:
        if isinstance(self.payload, ClassicalMessage):
            return self.payload.digest
        return _digest(self.payload)


@dataclass(frozen=True)
class HalfKey:
    """Half of a symmetrised key: positions within one link's block."""

    link: str
    positions: np.ndarray
    bits: np.ndarray


@dataclass(frozen=True)
class KgpResult:
    """Outcome of one key-generation link run at desk scale.

    ``tx_pool`` holds the recipient's prepared bits, ``rx_pool`` Alice's
    measured bits, both after removal of the disclosed test sample.
    """

    counts: ObservedCounts
    tx_pool: np.ndarray
    rx_pool: np.ndarray
    test_errors: int


def rng_stream(seed: int, *labels: str) -> np.random.Generator:
    """Independent, reproducible generator for one (seed, purpose) pair."""
    words = [int(seed)] + [
        int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "big")
        for label in labels
    ]
    return np.random.default_rng(words)


def _digest(payload: object) -> str:
    """First 16 hex digits of SHA-256 over the payload's sorted-key JSON,
    with every array written in full as the list it holds."""
    text = json.dumps(payload, sort_keys=True, default=_listed)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _listed(value: object) -> object:
    return value.tolist() if isinstance(value, np.ndarray) else str(value)


def run_kgp(
    link: str,
    pc: PulseConfig,
    ch: ChannelParams,
    seed: int,
    k_test: int,
    min_pool: int = 0,
) -> KgpResult:
    """Run one key-generation link at the bit level.

    Samples the sifted statistics, lays the Z-basis detections out as a
    bit string on each side with errors placed uniformly, discloses a
    random k-bit test sample and removes it from the pool.  Raises
    ProtocolError when the remaining pool would fall short of
    ``min_pool`` bits.
    """
    if pc.n_pulses > DESK_SCALE_MAX_PULSES:
        raise ValueError(
            f"bit-level key generation supports at most {DESK_SCALE_MAX_PULSES:.0e} "
            f"pulses, got {pc.n_pulses:.3g}; use the synthetic messaging path"
        )
    if k_test < 1:
        raise ValueError(f"test sample size must be at least 1, got {k_test}")
    rng = rng_stream(seed, link, "kgp")
    counts = sample_statistics(pc, ch, rng)
    n_pool = int(counts.n_total("Z"))
    m_pool = int(counts.m_total("Z"))
    if n_pool < k_test + min_pool:
        raise ProtocolError(
            f"link {link!r}: sifted pool of {n_pool} bits cannot supply a "
            f"{k_test}-bit test sample and {min_pool} key bits"
        )
    tx = rng.integers(0, 2, size=n_pool, dtype=np.uint8)
    # rx marks the error positions, then becomes tx with them flipped
    rx = np.zeros(n_pool, dtype=np.uint8)
    rx[rng.choice(n_pool, size=m_pool, replace=False)] = 1
    test_idx = rng.choice(n_pool, size=k_test, replace=False)
    test_errors = int(rx[test_idx].sum())
    rx ^= tx
    keep = np.ones(n_pool, dtype=bool)
    keep[test_idx] = False
    # each whole string is dropped once its pool is compacted
    tx_pool = tx[keep]
    del tx
    rx_pool = rx[keep]
    del rx
    return KgpResult(counts=counts, tx_pool=tx_pool, rx_pool=rx_pool, test_errors=test_errors)


def _forward_half(rng: np.random.Generator, L: int) -> np.ndarray:
    """The half of an L-bit block a recipient forwards, drawn from ``rng``,
    as a bool mask."""
    forward = np.zeros(L, dtype=bool)
    forward[rng.choice(L, size=L // 2, replace=False)] = True
    return forward


def _split(seed: int, L: int, m: int, recipient: str) -> np.ndarray:
    """The half a recipient forwards of message value ``m``'s block."""
    return _forward_half(rng_stream(seed, recipient, "symmetrize", str(m)), L)


def _sent_half(seed: int, L: int, m: int, recipient: str) -> dict[str, object]:
    """The payload of a recipient's forwarded half: its positions, drawn now
    and read-only."""
    positions, _ = _positions(_split(seed, L, m, recipient))
    positions.flags.writeable = False  # sent, digested when read
    return {"m": m, "positions": positions}


def _positions(
    mask: np.ndarray, bits: np.ndarray | None = None, kept: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """The positions ``mask`` sets (clears, when ``kept``), ascending, in the
    smallest unsigned type that holds its last position, and ``bits`` at
    them when given.  They are found a chunk at a time, so neither they nor
    the mask's complement are ever held whole as native integers or bools."""
    n = len(mask)
    count = np.count_nonzero(mask)
    positions = np.empty(n - count if kept else count, np.min_scalar_type(n - 1))
    picked = None if bits is None else np.empty(len(positions), bits.dtype)
    at = 0
    for start in range(0, n, _CHUNK):
        part = mask[start:start + _CHUNK]
        found = np.flatnonzero(~part if kept else part)
        end = at + len(found)
        if picked is not None:
            picked[at:end] = bits[start:start + _CHUNK][found]
        found += start
        positions[at:end] = found
        at = end
    return positions, picked


def symmetrize(
    bob_bits: np.ndarray,
    charlie_bits: np.ndarray,
    bob_forward: np.ndarray,
    charlie_forward: np.ndarray,
) -> tuple[tuple[HalfKey, HalfKey], tuple[HalfKey, HalfKey]]:
    """Exchange the forwarded halves between the two recipients' blocks.

    Each recipient forwards the half of his positions that his mask
    (``_forward_half``) marks and keeps the complement, so Alice cannot
    know which copy of a given position will be checked where.  Returns
    Bob's and Charlie's symmetrised keys, each the (own, received) pair of
    halves he holds, with positions as ``_positions`` gives them.
    """
    L = len(bob_bits)
    if len(charlie_bits) != L:
        raise ProtocolError(
            f"blocks must have equal length, got {L} and {len(charlie_bits)}"
        )
    if L < 2 or L % 2 != 0:
        raise ProtocolError(f"block length must be an even integer >= 2, got {L}")
    for mask in (bob_forward, charlie_forward):
        if mask.dtype != bool or len(mask) != L or np.count_nonzero(mask) != L // 2:
            raise ProtocolError("each forwarding mask must mark half of its block")

    def half(link: str, bits: np.ndarray, mask: np.ndarray, kept: bool = False) -> HalfKey:
        return HalfKey(link, *_positions(mask, bits, kept))

    bob_sym = (
        half("bob_alice", bob_bits, bob_forward, kept=True),
        half("charlie_alice", charlie_bits, charlie_forward),
    )
    charlie_sym = (
        half("charlie_alice", charlie_bits, charlie_forward, kept=True),
        half("bob_alice", bob_bits, bob_forward),
    )
    return bob_sym, charlie_sym


def _count_mismatches(keys: dict[str, np.ndarray], half: HalfKey) -> int:
    """Mismatches between a held half-key and the declared key it came from."""
    if half.link not in keys:
        raise ProtocolError(f"declaration carries no key for link {half.link!r}")
    key = keys[half.link]
    pos = half.positions
    if len(pos) != len(half.bits):
        raise ProtocolError("positions and bits disagree in length")
    if pos.dtype.kind not in "iu":
        raise ProtocolError(f"positions must be integers, got dtype {pos.dtype}")
    if len(pos) and (pos.min() < 0 or pos.max() >= len(key)):
        raise ProtocolError(
            f"positions fall outside the declared block of length {len(key)}"
        )
    # compact positions are cast once, as indexing by them casts on every
    # lookup; mismatches are counted before the distinctness mask is made,
    # so the cast, the lookup and the mask are never all held at once
    pos = pos.astype(np.intp, copy=False)
    mismatches = int(np.count_nonzero(key[pos] != half.bits))
    seen = np.zeros(len(key), dtype=bool)
    seen[pos] = True
    if np.count_nonzero(seen) != len(pos):
        raise ProtocolError("positions must be distinct")
    return mismatches


def verify(
    keys: dict[str, np.ndarray], sym: tuple[HalfKey, HalfKey], threshold: float
) -> tuple[bool, int, int]:
    """Check a declaration, the signer's key per link, against a
    symmetrised (own, received) key at one threshold.

    Both halves must show strictly fewer than threshold * L/2 mismatches.
    Returns (accepted, own-half mismatches, received-half mismatches).
    """
    own = _count_mismatches(keys, sym[0])
    received = _count_mismatches(keys, sym[1])
    limit = threshold * len(next(iter(keys.values()))) / 2.0
    return (own < limit) and (received < limit), own, received


class ProtocolSession:
    """One full protocol run among the three parties.

    Distribution fills the key blocks for both message values and sends
    each recipient's forwarded half of each, drawn only when read;
    messaging signs one value, draws that value's splits, symmetrises its
    keys alone and runs both verifications.  At desk scale (``n_pulses``
    small enough) key bits come from sampled link runs; otherwise
    synthetic blocks are drawn at the model error rate, which exercises
    the identical messaging path.
    """

    def __init__(
        self,
        pc: PulseConfig,
        ch: ChannelParams,
        L: int,
        *,
        seed: int = 0,
        k_test: int | None = None,
    ) -> None:
        self.pc = pc
        self.ch = ch
        self.L = _check_length(L)
        self.seed = int(seed)
        self.k_test = k_test_for(self.L, k_test)
        self.bit_mode = pc.n_pulses <= DESK_SCALE_MAX_PULSES
        self._distribution_started = False
        self.transcript: list[ClassicalMessage] = []
        self.kgp_results: dict[str, KgpResult] = {}
        # each link's recipient (tx) and signer (rx) bits, both blocks in message-value order
        self._blocks: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._consumed: set[int] = set()

    # -- classical channel -------------------------------------------------

    def _send(self, kind: str, sender: str, receiver: str, payload: object) -> None:
        """Log a message with its payload; the digest waits until it is read."""
        seq = len(self.transcript)
        self.transcript.append(ClassicalMessage(seq, kind, sender, receiver, payload))

    def export_transcript(self, fp: IO[str]) -> None:
        """Write the transcript as one JSON object per line, digesting each payload."""
        for msg in self.transcript:
            record = {"seq": msg.seq, "kind": msg.kind, "sender": msg.sender,
                      "receiver": msg.receiver, "digest": msg.digest}
            fp.write(json.dumps(record, sort_keys=True) + "\n")

    # -- distribution stage ------------------------------------------------

    def _link_blocks(self, link: str, recipient: str) -> tuple[np.ndarray, np.ndarray]:
        """One link's recipient and signer bits, both blocks in message-value order."""
        need = 2 * self.L
        if self.bit_mode:
            kgp = self.kgp_results[link]
            self._send("basis_announce", recipient, "alice", {"link": link, "n": len(kgp.tx_pool)})
            self._send("sift_result", "alice", recipient, {"link": link})
            self._send(
                "test_reveal",
                recipient,
                "alice",
                {"link": link, "k": self.k_test, "errors": kgp.test_errors},
            )
            tx, rx = kgp.tx_pool, kgp.rx_pool
        else:
            counts = expected_statistics(self.pc, self.ch)
            n = counts.n_total("Z")
            qber = counts.m_total("Z") / n if n > 0 else 0.0
            rng = rng_stream(self.seed, link, "synthetic")
            tx = rng.integers(0, 2, size=need, dtype=np.uint8)
            rx = tx.copy()
            # chunk by chunk, the draws one call would make, without a float per bit
            for start in range(0, need, _CHUNK):
                part = rx[start:start + _CHUNK]
                part ^= rng.random(len(part)) < qber
            self._send("basis_announce", recipient, "alice", {"link": link, "synthetic": True})
        # signed keys are digested when the transcript is read: keep them as sent
        tx.flags.writeable = rx.flags.writeable = False
        return tx, rx

    def run_distribution(self, fallback: bool = False) -> None:
        """Fill the key blocks of both message values and send each
        recipient's forwarded halves, once per session; a session whose
        distribution failed stays unusable.

        Both links are sampled before any message is sent.  When a sampled
        pool cannot supply the test sample and both blocks, this raises
        ``ProtocolError``, or with ``fallback`` draws synthetic blocks.
        No split is drawn here: each forwarded half is sent as a
        ``partial`` of ``_sent_half``, which does not hold the session.
        """
        if self._distribution_started:
            raise ProtocolError("distribution already ran on this session")
        self._distribution_started = True
        if self.bit_mode:
            try:
                self.kgp_results = {link: run_kgp(link, self.pc, self.ch, self.seed, self.k_test,
                                                  min_pool=2 * self.L) for link in LINKS}
            except ProtocolError:
                if not fallback:
                    raise
                self.bit_mode = False
        self._blocks = {link: self._link_blocks(link, recipient)
                        for link, recipient in zip(LINKS, ("bob", "charlie"))}
        for m in (0, 1):
            for sender, receiver in (("bob", "charlie"), ("charlie", "bob")):
                self._send("symmetrization_forward", sender, receiver,
                           partial(_sent_half, self.seed, self.L, m, sender))

    # -- messaging stage ---------------------------------------------------

    def sign(self, message_bit: int) -> dict[str, np.ndarray]:
        """Alice declares her measured key per link for one message value."""
        if message_bit not in (0, 1):
            raise ValueError(f"message bit must be 0 or 1, got {message_bit}")
        if not self._blocks:
            raise ProtocolError("cannot sign before distribution has completed")
        if message_bit in self._consumed:
            raise ProtocolError(
                f"the key block for message bit {message_bit} was already consumed"
            )
        self._consumed.add(message_bit)
        block = slice(message_bit * self.L, (message_bit + 1) * self.L)
        keys = {link: rx[block] for link, (_, rx) in self._blocks.items()}
        self._send("signature", "alice", "bob", {"m": message_bit, "keys": dict(keys)})
        return keys

    def run_messaging(
        self, message_bit: int, th: Thresholds
    ) -> tuple[tuple[bool, int, int], tuple[bool, int, int] | None]:
        """Sign one message bit and run both verifications.

        Returns Bob's and Charlie's ``verify`` results.  Bob rejecting
        broadcasts an abort and Charlie never rules (his result is None);
        Bob accepting forwards the declaration for Charlie's verdict.
        """
        keys = self.sign(message_bit)
        declaration = self.transcript[-1]  # the signature message just sent
        block = slice(message_bit * self.L, (message_bit + 1) * self.L)
        bob_sym, charlie_sym = symmetrize(
            *(tx[block] for tx, _ in self._blocks.values()),
            *(_split(self.seed, self.L, message_bit, r) for r in ("bob", "charlie")),
        )
        bob = verify(keys, bob_sym, th.s_alpha)
        if not bob[0]:
            self._send("reject", "bob", "alice", {"m": message_bit})
            self._send("abort", "bob", "charlie", {"m": message_bit})
            return bob, None
        self._send("accept", "bob", "alice", {"m": message_bit})
        self._send("forwarded_signature", "bob", "charlie", declaration)
        charlie = verify(keys, charlie_sym, th.s_upsilon)
        verdict = "accept" if charlie[0] else "reject"
        self._send(verdict, "charlie", "alice", {"m": message_bit})
        self._send(verdict, "charlie", "bob", {"m": message_bit})
        return bob, charlie


# -- adversarial strategies ------------------------------------------------


def _check_attack(trials: int, L: int) -> None:
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_length(L)


def attack_repudiation(
    trials: int, L: int, th: Thresholds, corruption_rate: float, seed: int = 0
) -> float:
    """Empirical success rate of a repudiating signer.

    Alice corrupts each position of the key she shares with Bob's link
    independently at ``corruption_rate``, hoping the random halving sends
    few corrupted bits to Bob's kept half (he accepts at s_alpha) and
    many to the half forwarded to Charlie (he rejects at s_upsilon).
    Success means Bob accepts while Charlie rejects.

    The halving is independent of the corruption, so each half's count is
    Binomial(L/2, rate) and the two are independent.  Each trial's kept
    half is drawn; the forwarded half is drawn only for the trials Bob
    accepts, since only they can succeed.
    """
    _check_attack(trials, L)
    if not 0.0 <= corruption_rate <= 1.0:
        raise ValueError(f"corruption rate must lie in [0, 1], got {corruption_rate}")
    rng = rng_stream(seed, "attack", "repudiation")
    half = L // 2
    accepted = np.count_nonzero(rng.binomial(half, corruption_rate, size=trials)
                                < th.s_alpha * half)
    forwarded = rng.binomial(half, corruption_rate, size=accepted)
    return float(np.count_nonzero(forwarded >= th.s_upsilon * half) / trials)


def attack_forge(trials: int, L: int, th: Thresholds, seed: int = 0) -> float:
    """Empirical success rate of a forging recipient with no key knowledge.

    Bob fabricates a declaration: the half he forwarded to Charlie he can
    match exactly, Charlie's kept half he must guess bit by bit.  Success
    means Charlie accepts at s_upsilon.
    """
    _check_attack(trials, L)
    rng = rng_stream(seed, "attack", "forge")
    half = L // 2
    guess_mismatches = rng.binomial(half, 0.5, size=trials)
    return float(np.mean(guess_mismatches < th.s_upsilon * half))


def exact_forge_success(L: int, s_upsilon: float) -> float:
    """Exact success probability of the guessing forger.

    The guessed half accumulates Binomial(L/2, 1/2) mismatches; success
    is the strict tail j < s_upsilon * L/2, with the limit computed in
    floats as ``verify`` and ``attack_forge`` compute it (a limit of
    7.000000000000001 admits j = 7), enumerated exactly in integer
    arithmetic and correctly rounded.  With n = L/2 and a tail
    of j <= a n terms, a < 1/2, sum C(n, j) <= 2^(n h(a)); when that puts
    the tail below 2^-1100 it rounds to 0.0, which is returned unsummed.
    L follows the attacks' rule, and a non-finite s_upsilon or
    s_upsilon * L/2 raises ValueError.
    """
    half = _check_length(L) // 2
    if not math.isfinite(s_upsilon * half):
        raise ValueError(
            f"s_upsilon must be finite, got {s_upsilon} (s_upsilon * L/2 = {s_upsilon * half})"
        )
    j_max = math.ceil(s_upsilon * half) - 1
    if j_max < 0:
        return 0.0
    # below 2^-1075, half the least subnormal, the rounded quotient is 0.0
    if 2 * j_max < half and half * (1.0 - binary_entropy(j_max / half)) > 1100:
        return 0.0
    # C(half, j) by the exact recurrence C(half, j+1) = C(half, j) (half-j) / (j+1)
    total, term = 0, 1
    for j in range(min(j_max, half) + 1):
        total += term
        term = term * (half - j) // (j + 1)
    return total / 2**half
