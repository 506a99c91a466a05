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
are reproducible end to end, transcript included.  A session holds its
key blocks and symmetrised halves packed, eight bits a byte.  A message
keeps its payload and is digested only when the transcript is read; the
packed keys a declaration unpacks are read-only from when it is sent.
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
from .security import Infeasible, Thresholds, _check_integer, _check_length, k_test_for
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

#: The number of set bits in each byte value, for popcounts of packed bits
#: on every numpy (``np.bitwise_count`` needs numpy 2).
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


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
    """Half of a symmetrised key within one link's L-bit block, packed:
    ``mask`` sets the L/2 positions it covers, and ``bits`` is the whole
    block it reads them from.  Checked once, when built."""

    link: str
    L: int
    mask: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        L, mask, n = self.L, self.mask, (self.L + 7) // 8
        if not (isinstance(L, (int, np.integer)) and L % 2 == 0
                and mask.dtype == self.bits.dtype == np.uint8
                and mask.shape == self.bits.shape == (n,)
                and _popcount(mask) == L // 2 and not np.any(mask[-1:] & _padding(L))):
            raise ProtocolError(
                f"a half of an even L-bit block, L = {L}, packs its mask and block "
                f"in {n} uint8 bytes each, the mask marking L/2 positions, none past it"
            )


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
    """Independent, reproducible generator for one (seed, purpose) pair;
    the seed is an ``int`` or numpy integer of at least 0."""
    words = [_check_integer("seed", seed, 0)] + [
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
    _check_integer("k_test", k_test)
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


def _popcount(packed: np.ndarray) -> int:
    """The number of bits set in a packed uint8 array."""
    return int(_POPCOUNT[packed].sum())


def _padding(L: int) -> int:
    """The bits of an L-bit block's last packed byte that lie past the block."""
    return (1 << (-L % 8)) - 1


def _rows(bits: np.ndarray, L: int) -> np.ndarray:
    """The first 2L of ``bits``, packed, one read-only row per message value."""
    rows = np.packbits(bits[:2 * L].reshape(2, L), axis=1)
    rows.flags.writeable = False  # signed keys are digested when the transcript is read
    return rows


def _declared(m: int, keys: dict[str, np.ndarray], L: int) -> dict[str, object]:
    """The payload of a declaration: the message value and each link's key, unpacked."""
    return {"m": m, "keys": {link: np.unpackbits(row, count=L) for link, row in keys.items()}}


def _forward_half(rng: np.random.Generator, L: int) -> np.ndarray:
    """The half of an L-bit block a recipient forwards, drawn from ``rng``,
    as a bool mask."""
    forward = np.zeros(L, dtype=bool)
    forward[rng.choice(L, size=L // 2, replace=False)] = True
    return forward


def _split(seed: int, L: int, m: int, recipient: str) -> np.ndarray:
    """The half a recipient forwards of message value ``m``'s block, packed."""
    return np.packbits(_forward_half(rng_stream(seed, recipient, "symmetrize", str(m)), L))


def _sent_half(seed: int, L: int, m: int, recipient: str) -> dict[str, object]:
    """The payload of a recipient's forwarded half: its positions, drawn now
    and read-only."""
    positions = _positions(_split(seed, L, m, recipient))
    positions.flags.writeable = False  # sent, digested when read
    return {"m": m, "positions": positions}


def _positions(mask: np.ndarray) -> np.ndarray:
    """The positions a packed ``mask`` sets, ascending, in the smallest
    unsigned type that holds the last position its bytes can pack (the
    type that holds L - 1, as every bound of a type is a multiple of 8).
    They are found a chunk at a time, so neither they nor the unpacked
    mask are ever held whole as native integers or bools."""
    positions = np.empty(_popcount(mask), np.min_scalar_type(8 * len(mask) - 1))
    at, step = 0, _CHUNK // 8
    for start in range(0, len(mask), step):
        found = np.flatnonzero(np.unpackbits(mask[start:start + step]))
        end = at + len(found)
        found += 8 * start
        positions[at:end] = found
        at = end
    return positions


def symmetrize(
    L: int,
    bob_bits: np.ndarray,
    charlie_bits: np.ndarray,
    bob_forward: np.ndarray,
    charlie_forward: np.ndarray,
) -> tuple[tuple[HalfKey, HalfKey], tuple[HalfKey, HalfKey]]:
    """Exchange the forwarded halves between the two recipients' L-bit
    blocks, all four arguments packed as ``np.packbits`` packs them.

    Each recipient forwards the half of his positions that his mask
    (``_split``) marks and keeps the complement, so Alice cannot know
    which copy of a given position will be checked where.  Returns Bob's
    and Charlie's symmetrised keys, each the (own, received) pair of
    halves he holds.  A received half's mask is the other recipient's
    forwarded one, checked as the half is built; a kept half's is its
    complement, padding cleared.  Every half shares its block, uncopied.
    """
    L = _check_length(L)
    charlie_recv = HalfKey("bob_alice", L, bob_forward, bob_bits)
    bob_recv = HalfKey("charlie_alice", L, charlie_forward, charlie_bits)

    def kept(forwarded: HalfKey) -> HalfKey:
        mask = ~forwarded.mask
        mask[-1] &= 0xFF ^ _padding(L)
        return HalfKey(forwarded.link, L, mask, forwarded.bits)

    return (kept(charlie_recv), bob_recv), (kept(bob_recv), charlie_recv)


def verify(
    keys: dict[str, np.ndarray], sym: tuple[HalfKey, HalfKey], threshold: float
) -> tuple[bool, int, int]:
    """Check a declaration, the signer's packed key per link, against a
    symmetrised (own, received) key at one threshold.

    Both halves split L-bit blocks, L/2 positions each, and both must show
    strictly fewer than threshold * L/2 mismatches.  Returns (accepted,
    own-half mismatches, received-half mismatches).
    """
    L = sym[0].L
    if sym[1].L != L:
        raise ProtocolError(f"halves must split equal blocks, got L = {L} and {sym[1].L}")
    counts = []
    for half in sym:
        if half.link not in keys:
            raise ProtocolError(f"declaration carries no key for link {half.link!r}")
        key = keys[half.link]
        if key.dtype != np.uint8 or key.shape != half.bits.shape:
            raise ProtocolError(f"the declared key must pack {half.L} bits as its half's block does")
        counts.append(_popcount((key ^ half.bits) & half.mask))
    own, received = counts
    limit = threshold * L / 2.0
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
        self.seed = _check_integer("seed", seed, 0)
        self.k_test = k_test_for(self.L, k_test)
        self.bit_mode = pc.n_pulses <= DESK_SCALE_MAX_PULSES
        self._distribution_started = False
        self.transcript: list[ClassicalMessage] = []
        self.kgp_results: dict[str, KgpResult] = {}
        # each link's recipient (tx) and signer (rx) bits, packed, a row per message value
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
        """One link's recipient and signer bits, packed, one row per message value."""
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
            return _rows(kgp.tx_pool, self.L), _rows(kgp.rx_pool, self.L)
        counts = expected_statistics(self.pc, self.ch)
        n = counts.n_total("Z")
        qber = counts.m_total("Z") / n if n > 0 else 0.0
        rng = rng_stream(self.seed, link, "synthetic")
        bits = rng.integers(0, 2, size=2 * self.L, dtype=np.uint8)
        tx = _rows(bits, self.L)
        # chunk by chunk, the draws one call would make, without a float per
        # bit; the recipient's bits become the signer's in place
        for start in range(0, len(bits), _CHUNK):
            part = bits[start:start + _CHUNK]
            part ^= rng.random(len(part)) < qber
        self._send("basis_announce", recipient, "alice", {"link": link, "synthetic": True})
        return tx, _rows(bits, self.L)

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
        """Alice declares her measured key per link for one message value,
        packed; the declaration's payload lists it unpacked when read."""
        if message_bit not in (0, 1):
            raise ValueError(f"message bit must be 0 or 1, got {message_bit}")
        if not self._blocks:
            raise ProtocolError("cannot sign before distribution has completed")
        if message_bit in self._consumed:
            raise ProtocolError(
                f"the key block for message bit {message_bit} was already consumed"
            )
        self._consumed.add(message_bit)
        keys = {link: rx[message_bit] for link, (_, rx) in self._blocks.items()}
        self._send("signature", "alice", "bob", partial(_declared, message_bit, keys, self.L))
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
        bob_sym, charlie_sym = symmetrize(
            self.L,
            *(tx[message_bit] for tx, _ in self._blocks.values()),
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
    _check_integer("trials", trials)
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
