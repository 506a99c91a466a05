"""Protocol tests: key generation, symmetrisation, messaging, attacks.

The forging check is cross-validated by exhaustive enumeration of all
guess patterns, which is tractable at the block lengths used here.
"""

import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import pathlib
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qds_onedecoy import protocol
from qds_onedecoy.channel import LINKS, ChannelParams, PulseConfig, expected_statistics
from qds_onedecoy.files import read_config
from qds_onedecoy.finite_key import EpsilonBudget
from qds_onedecoy.protocol import (
    HalfKey,
    ProtocolError,
    ProtocolSession,
    _forward_half,
    attack_forge,
    attack_repudiation,
    exact_forge_success,
    rng_stream,
    run_kgp,
    symmetrize,
    verify,
)
from qds_onedecoy.security import SecurityTarget, Thresholds, block_report
from qds_onedecoy.stat_math import binary_entropy_inverse

DESK_PC = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8, n_pulses=2e6)
DESK_CH = ChannelParams(distance_km=2.0)
QUIET_CH = ChannelParams(distance_km=2.0, dark_count_rate_hz=0.0, misalignment=0.0)
# above the desk bound, so sessions draw synthetic keys; a power-of-two factor
# scales every expected cell exactly, so the keys are DESK_PC's, bit for bit
SYNTHETIC_PC = dataclasses.replace(DESK_PC, n_pulses=64 * DESK_PC.n_pulses)


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(7, "bob_alice", "kgp").integers(0, 1000, 8)
        b = rng_stream(7, "bob_alice", "kgp").integers(0, 1000, 8)
        assert (a == b).all()

    def test_streams_are_distinct(self):
        a = rng_stream(7, "bob_alice", "kgp").integers(0, 1000, 8)
        b = rng_stream(7, "charlie_alice", "kgp").integers(0, 1000, 8)
        c = rng_stream(8, "bob_alice", "kgp").integers(0, 1000, 8)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_numpy_integer_seed_is_the_int_seed(self):
        a = rng_stream(np.int64(7), "bob_alice", "kgp").integers(0, 1000, 8)
        assert (a == rng_stream(7, "bob_alice", "kgp").integers(0, 1000, 8)).all()

    # a fractional seed would run as its integer part, and a negative one
    # fail later in numpy without naming the seed
    @pytest.mark.parametrize("seed, match", [
        (math.nan, "seed must be an integer, got nan"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be non-negative, got -1"),
    ], ids=["nan", "fractional", "bool", "negative"])
    def test_every_seed_follows_one_rule(self, seed, match):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        for run in (lambda: rng_stream(seed, "kgp"),
                    lambda: ProtocolSession(DESK_PC, DESK_CH, 2000, seed=seed),
                    lambda: attack_forge(100, 2000, th, seed=seed),
                    lambda: attack_repudiation(100, 2000, th, 0.1, seed=seed)):
            with pytest.raises(ValueError, match=match):
                run()


class TestRunKgp:
    def test_deterministic(self):
        r1 = run_kgp("bob_alice", DESK_PC, DESK_CH, seed=3, k_test=500)
        r2 = run_kgp("bob_alice", DESK_PC, DESK_CH, seed=3, k_test=500)
        assert (r1.tx_pool == r2.tx_pool).all()
        assert r1.test_errors == r2.test_errors
        assert r1.counts == r2.counts

    def test_noise_free_pools_agree(self):
        result = run_kgp("bob_alice", DESK_PC, QUIET_CH, seed=5, k_test=200)
        assert (result.tx_pool == result.rx_pool).all()
        assert result.test_errors == 0

    def test_pool_excludes_test_sample(self):
        result = run_kgp("bob_alice", DESK_PC, DESK_CH, seed=5, k_test=700)
        assert len(result.tx_pool) == int(result.counts.n_total("Z")) - 700

    def test_test_sample_tracks_model_error_rate(self):
        from qds_onedecoy.channel import expected_statistics

        expected = expected_statistics(DESK_PC, DESK_CH)
        model = expected.m_total("Z") / expected.n_total("Z")
        k = 2000
        rates = np.array(
            [
                run_kgp("bob_alice", DESK_PC, DESK_CH, seed=s, k_test=k).test_errors / k
                for s in range(120)
            ]
        )
        se = rates.std(ddof=1) / math.sqrt(len(rates))
        assert abs(rates.mean() - model) < 5 * se

    def test_footprint_per_pool_bit(self):
        # at its peak run_kgp holds the two bit strings, the keep mask and
        # one compacted pool: 4 bytes per sifted bit
        run_kgp("bob_alice", DESK_PC, DESK_CH, seed=5, k_test=200)  # first-call caches
        tracemalloc.start()
        try:
            result = run_kgp("bob_alice", DESK_PC, DESK_CH, seed=5, k_test=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * result.counts.n_total("Z")

    def test_aborts_when_pool_too_small(self):
        with pytest.raises(ProtocolError, match="cannot supply"):
            run_kgp("bob_alice", DESK_PC, DESK_CH, seed=1, k_test=100, min_pool=10**9)

    @pytest.mark.parametrize("k_test, match", [
        (math.nan, "k_test must be an integer, got nan"),
        (1.5, "k_test must be an integer, got 1.5"),
        (-1, "k_test must be at least 1, got -1"),
    ], ids=["nan", "fractional", "negative"])
    def test_every_test_sample_follows_one_rule(self, k_test, match):
        with pytest.raises(ValueError, match=match):
            run_kgp("bob_alice", DESK_PC, DESK_CH, seed=1, k_test=k_test)
        # a fractional size used to reach numpy's sampling and fail there
        with pytest.raises(ValueError, match=match):
            ProtocolSession(DESK_PC, DESK_CH, 2000, k_test=k_test)

    def test_rejects_aggregate_scale(self):
        big = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8,
                          n_pulses=2e12)
        with pytest.raises(ValueError):
            run_kgp("bob_alice", big, DESK_CH, seed=1, k_test=100)


def packed_mask(positions, L):
    """A packed mask of ``positions`` in an L-bit block."""
    mask = np.zeros(L, np.uint8)
    mask[list(positions)] = 1
    return np.packbits(mask)


def covered(half, L):
    """The positions a half's mask covers in its L-bit block."""
    return np.flatnonzero(np.unpackbits(half.mask, count=L))


def symmetrized(seed, L):
    """Two drawn L-bit blocks, unpacked, and their symmetrised halves."""
    bob_bits = rng_stream(seed, "b").integers(0, 2, L, dtype=np.uint8)
    charlie_bits = rng_stream(seed, "c").integers(0, 2, L, dtype=np.uint8)
    sym = symmetrize(
        L, np.packbits(bob_bits), np.packbits(charlie_bits),
        *(np.packbits(_forward_half(rng_stream(seed, r), L)) for r in ("rb", "rc")),
    )
    return bob_bits, charlie_bits, sym


class TestSymmetrize:
    def test_halves_partition_each_block(self):
        # 62 bits pack in 8 bytes, the last with 2 bits of padding
        L = 62
        _, _, ((bob_own, bob_recv), (charlie_own, charlie_recv)) = symmetrized(1, L)
        # Bob's kept positions and the ones he forwarded partition his block
        merged = np.sort(np.concatenate([covered(bob_own, L), covered(charlie_recv, L)]))
        assert (merged == np.arange(L)).all()
        merged_c = np.sort(np.concatenate([covered(charlie_own, L), covered(bob_recv, L)]))
        assert (merged_c == np.arange(L)).all()
        for half in (bob_own, bob_recv, charlie_own, charlie_recv):
            assert half.mask.dtype == np.uint8 and half.mask.shape == (8,)
            assert len(covered(half, L)) == L // 2
            assert not np.unpackbits(half.mask)[L:].any()

    def test_bits_travel_with_positions(self):
        # each received half reads the other recipient's block, shared, not copied
        L = 30
        bob_bits = np.arange(L, dtype=np.uint8) % 2
        charlie_bits = (np.arange(L, dtype=np.uint8) + 1) % 2
        bob_row, charlie_row = np.packbits(bob_bits), np.packbits(charlie_bits)
        (bob_own, bob_recv), (charlie_own, charlie_recv) = symmetrize(
            L, bob_row, charlie_row,
            *(np.packbits(_forward_half(rng_stream(2, r), L)) for r in ("rb", "rc")),
        )
        assert bob_recv.bits is charlie_own.bits is charlie_row
        assert charlie_recv.bits is bob_own.bits is bob_row
        for half, bits in [(bob_recv, charlie_bits), (charlie_recv, bob_bits)]:
            positions = covered(half, L)
            assert (np.unpackbits(half.bits, count=L)[positions] == bits[positions]).all()

    @pytest.mark.parametrize("L", [2, 4, 10**4 - 2, 10**4, 10**4 + 2, 2 * 10**5])
    def test_mask_split_equals_sorted_split(self, L):
        def sorted_split(rng, L):
            forward = np.sort(rng.choice(L, size=L // 2, replace=False))
            mask = np.ones(L, dtype=bool)
            mask[forward] = False
            return np.flatnonzero(mask), forward

        bob_bits, charlie_bits, sym = symmetrized(L, L)
        (bob_own, bob_recv), (charlie_own, charlie_recv) = sym
        bob_keep, bob_forward = sorted_split(rng_stream(L, "rb"), L)
        charlie_keep, charlie_forward = sorted_split(rng_stream(L, "rc"), L)
        for half, positions, bits in [
            (bob_own, bob_keep, bob_bits), (bob_recv, charlie_forward, charlie_bits),
            (charlie_own, charlie_keep, charlie_bits), (charlie_recv, bob_forward, bob_bits),
        ]:
            assert np.array_equal(covered(half, L), positions)
            assert np.array_equal(np.unpackbits(half.bits, count=L)[positions], bits[positions])

    def test_rejects_mismatched_or_odd_lengths(self):
        def packed_blocks(*lengths):
            return [np.packbits(np.zeros(n, np.uint8)) for n in lengths]

        forward = [np.packbits(_forward_half(rng_stream(0, r), 16)) for r in ("a", "b")]
        with pytest.raises(ProtocolError, match="L = 16, packs its mask and block in 2 uint8"):
            symmetrize(16, *packed_blocks(16, 8), *forward)
        # an odd length fails the rule every entry point applies
        with pytest.raises(ValueError, match="even integer"):
            symmetrize(5, *packed_blocks(5, 5),
                       *(np.packbits(_forward_half(rng_stream(0, r), 5)) for r in ("a", "b")))

    def test_mask_with_padding_bits_set_raises(self):
        # 3 of 6 positions, one of them past the block, in the padding
        blocks = [np.packbits(np.zeros(6, np.uint8))] * 2
        good, bad = packed_mask([0, 1, 2], 6), packed_mask([0, 1, 6], 8)
        symmetrize(6, *blocks, good, good)
        with pytest.raises(ProtocolError, match="none past it"):
            symmetrize(6, *blocks, good, bad)
        with pytest.raises(ProtocolError, match="none past it"):
            HalfKey("bob_alice", 6, bad, blocks[0])

    def test_block_length_follows_the_one_rule(self):
        L = 10
        blocks = [np.packbits(np.zeros(L, np.uint8))] * 2
        forward = [np.packbits(_forward_half(rng_stream(0, r), L)) for r in ("a", "b")]
        with pytest.raises(ValueError, match="block length must be an integer, got 10.0"):
            symmetrize(10.0, *blocks, *forward)
        for ints, numpys in zip(*(symmetrize(length, *blocks, *forward)
                                  for length in (L, np.int64(L)))):
            for a, b in zip(ints, numpys):
                assert type(a.L) is type(b.L) is int and a.L == b.L == L
                assert a.link == b.link and np.array_equal(a.mask, b.mask)
                assert a.bits is b.bits


class TestHalfKey:
    """A half checks its length, dtypes, shapes, count and padding once,
    when it is built."""

    # L = 10 packs in 2 bytes, the last with 6 bits of padding.  The other
    # faults (other dtypes or byte lengths, a bit too many, a padding bit)
    # are TestVerify's bad positions and validated positions
    @pytest.mark.parametrize("L, mask, bits", [
        (9, packed_mask(range(4), 9), np.zeros(2, np.uint8)),
        (10.0, packed_mask(range(5), 10), np.zeros(2, np.uint8)),
        (10, packed_mask(range(5), 10), np.zeros(3, np.uint8)),
        (10, packed_mask(range(5), 10).reshape(1, 2), np.zeros((1, 2), np.uint8)),
        (10, packed_mask(range(4), 10), np.zeros(2, np.uint8)),
    ], ids=["odd-L", "float-L", "long-block", "2-D", "too-few"])
    def test_rejects_each_fault_when_built(self, L, mask, bits):
        with pytest.raises(ProtocolError, match="none past it"):
            HalfKey("bob_alice", L, mask, bits)

    def test_a_well_formed_half_builds(self):
        half = HalfKey("bob_alice", np.int64(10), packed_mask(range(5), 10), np.zeros(2, np.uint8))
        assert half.L == 10


def crafted_keys(L=100):
    return {
        "bob_alice": np.packbits(np.zeros(L, dtype=np.uint8)),
        "charlie_alice": np.packbits(np.zeros(L, dtype=np.uint8)),
    }


def crafted_sym(L=100, own_mismatches=0):
    half = L // 2
    own_bits = np.zeros(L, dtype=np.uint8)
    own_bits[:own_mismatches] = 1
    return (
        HalfKey("bob_alice", L, packed_mask(range(half), L), np.packbits(own_bits)),
        HalfKey("charlie_alice", L, packed_mask(range(half, L), L),
                np.packbits(np.zeros(L, dtype=np.uint8))),
    )


def mismatches(keys, half):
    """What ``verify`` counts on one held half, passed as both halves."""
    return verify(keys, (half, half), threshold=0.5)[1]


class TestVerify:
    def test_strict_threshold_boundary_integer(self):
        # threshold * L/2 = 15: exactly 15 mismatches must reject
        keys = crafted_keys(100)
        accepted, own, recv = verify(keys, crafted_sym(100, 15), threshold=0.3)
        assert (own, recv) == (15, 0)
        assert not accepted
        accepted, own, _ = verify(keys, crafted_sym(100, 14), threshold=0.3)
        assert accepted and own == 14

    def test_strict_threshold_boundary_fractional(self):
        # threshold * L/2 = 15.5: 16 rejects, 15 accepts
        keys = crafted_keys(100)
        assert not verify(keys, crafted_sym(100, 16), threshold=0.31)[0]
        assert verify(keys, crafted_sym(100, 15), threshold=0.31)[0]

    def test_zero_threshold_rejects_even_perfect_keys(self):
        keys = crafted_keys(100)
        assert not verify(keys, crafted_sym(100, 0), threshold=0.0)[0]

    def test_count_mismatches_validates_positions(self):
        keys, block = crafted_keys(10), np.packbits(np.zeros(10, np.uint8))
        for mask, bits in [
            (packed_mask(range(5), 24), block),  # a mask of more bytes than the block
            (packed_mask(range(5), 10), np.packbits(np.zeros(24, np.uint8))),  # bits, too
            (packed_mask(range(5), 10), np.zeros(2, np.int64)),  # bits of another dtype
        ]:
            with pytest.raises(ProtocolError, match="2 uint8 bytes each"):
                HalfKey("bob_alice", 10, mask, bits)
        half = HalfKey("bob_alice", 10, packed_mask(range(5), 10), block)
        assert mismatches(keys, half) == 0
        # a declared key of another length or dtype than the half's block
        for key in (np.packbits(np.zeros(24, np.uint8)), np.zeros(2, np.int64)):
            with pytest.raises(ProtocolError, match="declared key must pack 10 bits"):
                mismatches({**keys, "bob_alice": key}, half)

    def test_declaration_without_the_halfs_link_raises(self):
        half = HalfKey("elsewhere", 10, packed_mask(range(5), 10),
                       np.packbits(np.zeros(10, np.uint8)))
        with pytest.raises(ProtocolError, match="no key for link 'elsewhere'"):
            mismatches(crafted_keys(10), half)

    def test_halves_of_different_lengths_raise(self):
        (own, _), (_, received) = crafted_sym(100), crafted_sym(102)
        with pytest.raises(ProtocolError, match="equal blocks, got L = 100 and 102"):
            verify(crafted_keys(100), (own, received), 0.5)

    # each id names the fault of a position list whose packed form is checked:
    # signed ("negative") or float bytes, a position at L, and one position
    # more than the other half holds
    @pytest.mark.parametrize(
        "mask",
        [
            packed_mask(range(5), 10).view(np.int8),
            packed_mask([0, 1, 2, 3, 10], 16),
            packed_mask(range(6), 10),
            packed_mask(range(5), 10).astype(np.float64),
        ],
        ids=["negative", "equal-to-length", "duplicate-at-end", "float"],
    )
    def test_bad_positions_raise_protocol_error(self, mask):
        block = np.packbits(np.zeros(10, np.uint8))
        HalfKey("bob_alice", 10, packed_mask(range(5), 10), block)
        with pytest.raises(ProtocolError):
            HalfKey("charlie_alice", 10, mask, block)

    def test_empty_half_has_no_mismatches(self):
        half = HalfKey("bob_alice", 0, np.array([], np.uint8), np.array([], np.uint8))
        assert mismatches(crafted_keys(0), half) == 0

    def test_popcount_table_counts_each_byte(self):
        assert protocol._POPCOUNT.dtype == np.uint8
        assert protocol._POPCOUNT.tolist() == [bin(i).count("1") for i in range(256)]

    # L % 8 is 2, 6 or 10 % 8, so every block packs with padding
    @given(k=st.integers(0, 40), r=st.sampled_from([2, 6, 10]),
           seed=st.integers(0, 2**32 - 1), threshold=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_packed_verify_matches_a_naive_count(self, k, r, seed, threshold):
        L = 16 * k + r
        rng = np.random.default_rng(seed)
        keys = {link: rng.integers(0, 2, L, dtype=np.uint8) for link in LINKS}
        blocks = {link: rng.integers(0, 2, L, dtype=np.uint8) for link in LINKS}
        positions = [rng.choice(L, size=L // 2, replace=False) for _ in LINKS]
        sym = tuple(HalfKey(link, L, packed_mask(pos, L), np.packbits(blocks[link]))
                    for link, pos in zip(LINKS, positions))
        own, received = (sum(int(keys[link][i] != blocks[link][i]) for i in pos)
                         for link, pos in zip(LINKS, positions))
        limit = threshold * L / 2.0
        packed = {link: np.packbits(bits) for link, bits in keys.items()}
        assert verify(packed, sym, threshold) == (own < limit and received < limit, own, received)


def tolisted(value):
    """The payload with every array replaced by the list it holds."""
    if isinstance(value, dict):
        return {key: tolisted(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


INT_ARRAYS = st.one_of(
    *(
        arrays(dtype, st.integers(0, 12), elements=st.integers(lo, hi))
        for dtype, lo, hi in (
            (np.uint8, 0, 255),
            (np.int64, -(10**12), 10**12),
            (np.intp, 0, 10**12),
            (np.int64, np.iinfo(np.int64).min, np.iinfo(np.int64).max),
        )
    )
)
LEAVES = st.one_of(
    st.text(max_size=6), st.integers(-(10**15), 10**15), st.floats(),
    st.booleans(), st.none(), INT_ARRAYS,
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestCanonicalEncoding:
    @given(PAYLOADS)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_of_the_listed_payload(self, payload):
        text = json.dumps(tolisted(payload), sort_keys=True, default=str)
        assert protocol._digest(payload) == hashlib.sha256(text.encode()).hexdigest()[:16]

    @pytest.mark.parametrize(
        "array",
        [
            np.zeros(3, bool), np.zeros(3, np.float64), np.zeros(2000, np.float64),
            np.zeros((40, 40), np.int64),
        ],
        ids=["bool", "float", "long-float", "2-D"],
    )
    def test_any_array_is_digested_in_full(self, array):
        changed = array.copy()
        changed.flat[array.size // 2] = 1
        digests = {protocol._digest({"keys": {"bob_alice": a}}) for a in (array, changed)}
        assert len(digests) == 2

    def test_long_keys_differing_in_the_middle_digest_apart(self):
        # numpy elides the middle of a long array's repr; the digest must not
        a = np.zeros(5000, np.uint8)
        b = a.copy()
        b[2500] = 1
        assert protocol._digest({"keys": a}) != protocol._digest({"keys": b})


class TestSession:
    def relaxed_thresholds(self):
        return Thresholds(s_alpha=0.05, s_upsilon=0.15)

    @pytest.mark.parametrize("L, match", [
        (2000.0, "block length must be an integer, got 2000.0"),
        (2001, "block length must be an even integer >= 2, got 2001"),
        (2**52 + 2, "block length must be at most 2\\*\\*52"),
    ], ids=["float", "odd", "past-cap"])
    def test_block_length_follows_the_attacks_rule(self, L, match):
        with pytest.raises(ValueError, match=match):
            ProtocolSession(DESK_PC, DESK_CH, L)

    def test_honest_run_accepts_at_both_hops(self):
        session = ProtocolSession(DESK_PC, DESK_CH, L=2000, seed=11)
        session.run_distribution()
        bob, charlie = session.run_messaging(1, self.relaxed_thresholds())
        assert bob[0] and charlie[0]
        # observed mismatches sit near QBER * L/2, far below the limits
        assert max(bob[1:]) < 0.05 * 1000

    def test_noise_free_run_has_zero_mismatches(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=1000, seed=3)
        session.run_distribution()
        bob, charlie = session.run_messaging(0, self.relaxed_thresholds())
        assert bob[1:] == (0, 0)
        assert charlie[1:] == (0, 0)

    def test_corrupted_channel_aborts_at_bob(self):
        # synthetic keys well above both thresholds: the model error rate
        # is a weighted mean of the misalignment and 1/2, so at least 0.30
        session = ProtocolSession(
            SYNTHETIC_PC, dataclasses.replace(DESK_CH, misalignment=0.30), L=2000, seed=4
        )
        session.run_distribution()
        bob, charlie = session.run_messaging(1, self.relaxed_thresholds())
        assert not bob[0]
        assert charlie is None
        assert any(m.kind == "abort" for m in session.transcript)

    def test_each_message_value_has_its_own_block(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=500, seed=9)
        session.run_distribution()
        b0 = session.sign(0)
        b1 = session.sign(1)
        assert not np.array_equal(b0["bob_alice"], b1["bob_alice"])

    def test_error_rate_above_verification_threshold_rejects(self):
        # mismatch rate sitting just above s_upsilon (and hence well above
        # s_alpha) must be caught at the first hop in almost every run; the
        # model error rate is never below the misalignment
        th = self.relaxed_thresholds()
        ch = dataclasses.replace(DESK_CH, misalignment=th.s_upsilon + 0.01)
        rejects = 0
        for seed in range(100):
            session = ProtocolSession(SYNTHETIC_PC, ch, L=2000, seed=seed)
            session.run_distribution()
            bob, _ = session.run_messaging(1, th)
            rejects += not bob[0]
        assert rejects >= 99

    def test_block_reuse_is_refused(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=500, seed=9)
        session.run_distribution()
        session.sign(0)
        with pytest.raises(ProtocolError, match="already consumed"):
            session.sign(0)

    def test_sign_requires_distribution(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=500, seed=9)
        with pytest.raises(ProtocolError):
            session.sign(0)

    def test_sign_takes_a_message_bit(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=500, seed=9)
        session.run_distribution()
        with pytest.raises(ValueError, match="message bit must be 0 or 1, got 2"):
            session.sign(2)
        # the refused bit consumes no block
        assert set(session.sign(0)) == set(LINKS)

    def test_distribution_runs_once(self):
        session = ProtocolSession(DESK_PC, QUIET_CH, L=500, seed=9)
        session.run_distribution()
        with pytest.raises(ProtocolError):
            session.run_distribution()

    def test_failed_distribution_leaves_the_session_unusable(self):
        # 2e6 pulses cannot fill two 10**6-bit blocks
        session = ProtocolSession(DESK_PC, DESK_CH, L=10**6, seed=9)
        with pytest.raises(ProtocolError, match="cannot supply"):
            session.run_distribution()
        with pytest.raises(ProtocolError):
            session.sign(0)
        with pytest.raises(ProtocolError):
            session.run_distribution()

    def test_short_pool_with_fallback_runs_synthetic(self):
        # both links are sampled before any message, then neither is used
        session = ProtocolSession(DESK_PC, DESK_CH, L=10**6, seed=9)
        session.run_distribution(fallback=True)
        assert not session.bit_mode and session.kgp_results == {}
        assert session.transcript[0].payload == {"link": "bob_alice", "synthetic": True}
        bob, _ = session.run_messaging(1, self.relaxed_thresholds())
        assert bob[0]

    def test_synthetic_mode_is_forced_above_desk_scale(self):
        big = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.8, p_z_rx=0.8,
                          n_pulses=1e12)
        session = ProtocolSession(big, DESK_CH, L=2000, seed=1)
        assert not session.bit_mode
        session.run_distribution()
        bob, _ = session.run_messaging(1, self.relaxed_thresholds())
        assert bob[0]

    def test_default_test_sample_matches_block_report(self):
        # 5% of 89530 is 4476.5, which round-half-even takes down to 4476
        pc = PulseConfig(mu=0.6, nu=0.2, p_mu=0.6, p_z_tx=0.85, p_z_rx=0.85, n_pulses=2e12)
        ch = ChannelParams(distance_km=103.0)
        counts = expected_statistics(pc, ch)
        report = block_report(
            {"bob_alice": counts, "charlie_alice": counts}, pc, ch,
            SecurityTarget(EpsilonBudget(eps_pe=5e-6), 1e-5, 1e-10, 1e-4), 89530,
        )
        assert ProtocolSession(pc, ch, 89530).k_test == report.k_test == 4476

    def test_transcript_replays_identically(self):
        def transcript_text(seed):
            session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=seed)
            session.run_distribution()
            session.run_messaging(1, self.relaxed_thresholds())
            buf = io.StringIO()
            session.export_transcript(buf)
            return buf.getvalue()

        assert transcript_text(21) == transcript_text(21)
        assert transcript_text(21) != transcript_text(22)

    def digest_counting_session(self, monkeypatch, payloads):
        """An accepted session whose digests append their payloads to ``payloads``."""
        real_digest = protocol._digest
        monkeypatch.setattr(
            protocol, "_digest", lambda payload: payloads.append(payload) or real_digest(payload)
        )
        session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        session.run_distribution()
        _, charlie = session.run_messaging(1, self.relaxed_thresholds())
        assert charlie[0]
        return session

    def test_declaration_is_digested_once(self, monkeypatch):
        # the signature and its forwarded copy share one digest of one encoding
        payloads = []
        session = self.digest_counting_session(monkeypatch, payloads)
        digests = {m.kind: m.digest for m in session.transcript}
        assert sum("keys" in p for p in payloads if isinstance(p, dict)) == 1
        assert digests["forwarded_signature"] == digests["signature"]

    def test_unread_transcript_is_never_digested(self, monkeypatch):
        payloads = []
        session = self.digest_counting_session(monkeypatch, payloads)
        assert len(session.transcript) > 0
        assert payloads == []

    def test_export_twice_digests_each_payload_once(self, monkeypatch):
        payloads = []
        session = self.digest_counting_session(monkeypatch, payloads)
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            session.export_transcript(buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]
        # every message but the forwarded signature, which reuses the signature's digest
        assert len(payloads) == len(session.transcript) - 1

    @pytest.mark.parametrize("synthetic", [False, True], ids=["bit-level", "synthetic"])
    def test_sent_arrays_are_read_only(self, synthetic):
        # a digest read later must be of the payload as it was sent
        session = ProtocolSession(SYNTHETIC_PC if synthetic else DESK_PC, DESK_CH, L=1000, seed=2)
        assert session.bit_mode is not synthetic
        session.run_distribution()
        keys = session.sign(0)
        sent = [m.payload["positions"] for m in session.transcript
                if m.kind == "symmetrization_forward"]
        # the packed keys the declaration unpacks when it is read
        sent += list(keys.values())
        assert len(sent) == 6
        for array in sent:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_signature_lists_the_signed_pool_bits(self):
        # 1002 % 8 = 2, so each packed row ends in a padded byte
        L = 1002
        session = ProtocolSession(DESK_PC, DESK_CH, L=L, seed=2)
        session.run_distribution()
        assert session.bit_mode
        keys = session.sign(1)
        payload = session.transcript[-1].payload
        assert payload["m"] == 1
        for link, kgp in session.kgp_results.items():
            assert keys[link].shape == ((L + 7) // 8,)
            assert np.array_equal(payload["keys"][link], kgp.rx_pool[L:2 * L])

    def test_only_the_signed_value_is_symmetrised(self, monkeypatch):
        built = []
        real = protocol.symmetrize
        monkeypatch.setattr(protocol, "symmetrize", lambda *args: built.append(real(*args)) or built[-1])
        session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        session.run_distribution()
        assert built == []
        sent = {(m.payload["m"], m.sender): m.payload["positions"] for m in session.transcript
                if m.kind == "symmetrization_forward"}
        for calls, bit in enumerate((1, 0), start=1):
            session.run_messaging(bit, self.relaxed_thresholds())
            assert len(built) == calls
            (_, bob_received), (_, charlie_received) = built[-1]
            for positions, half in [(sent[(bit, "bob")], charlie_received),
                                    (sent[(bit, "charlie")], bob_received)]:
                assert positions.dtype == np.min_scalar_type(1000 - 1)
                assert np.array_equal(positions, covered(half, 1000))

    def test_splits_are_drawn_when_read(self, monkeypatch):
        calls = []
        real = protocol._forward_half
        monkeypatch.setattr(protocol, "_forward_half", lambda *args: calls.append(1) or real(*args))

        def forwarded_digests(session):
            buf = io.StringIO()
            session.export_transcript(buf)
            records = [json.loads(line) for line in buf.getvalue().splitlines()]
            return [r["digest"] for r in records if r["kind"] == "symmetrization_forward"]

        session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        session.run_distribution()
        assert len(calls) == 0
        session.run_messaging(1, self.relaxed_thresholds())
        assert len(calls) == 2
        forwarded = [m for m in session.transcript if m.kind == "symmetrization_forward"]
        assert len(forwarded) == 4
        for _ in range(2):
            assert all(len(m.payload["positions"]) == 500 for m in forwarded)
            # the first read draws all four splits, and a second read none
            assert len(calls) == 6
        after = forwarded_digests(session)

        early = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        early.run_distribution()
        before = forwarded_digests(early)
        early.run_messaging(1, self.relaxed_thresholds())
        assert before == after

    def test_a_read_draws_each_half_once(self, monkeypatch):
        drawn, built = [], []
        real_split, real_symmetrize = protocol._split, protocol.symmetrize
        monkeypatch.setattr(protocol, "_split", lambda *args: drawn.append(args[2:]) or real_split(*args))
        monkeypatch.setattr(protocol, "symmetrize",
                            lambda *args: built.append(real_symmetrize(*args)) or built[-1])
        session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        session.run_distribution()
        session.run_messaging(1, self.relaxed_thresholds())
        assert drawn == [(1, "bob"), (1, "charlie")]
        for _ in range(2):
            session.export_transcript(io.StringIO())
            # every forwarded half, once, in transcript order
            assert drawn[2:] == [(0, "bob"), (0, "charlie"), (1, "bob"), (1, "charlie")]
        (_, bob_received), (_, charlie_received) = built[0]
        sent = {(m.payload["m"], m.sender): m.payload["positions"] for m in session.transcript
                if m.kind == "symmetrization_forward"}
        # the signed value's payloads list the halves symmetrize found, read-only
        for positions, half in [(sent[(1, "bob")], charlie_received),
                                (sent[(1, "charlie")], bob_received)]:
            assert positions.dtype == np.min_scalar_type(1000 - 1)
            assert np.array_equal(positions, covered(half, 1000))
            assert not positions.flags.writeable

    @pytest.mark.parametrize("exported", [False, True], ids=["unread", "exported"])
    def test_dropped_session_is_freed_by_reference_counting(self, exported):
        # a sent half that held its session would make a cycle through the
        # transcript, and the session would wait for the cycle collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
            session.run_distribution()
            session.run_messaging(1, self.relaxed_thresholds())
            if exported:
                session.export_transcript(io.StringIO())
            ref = weakref.ref(session)
            del session
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("twice_L", [
        protocol._CHUNK - 4, protocol._CHUNK, protocol._CHUNK + 4,
        2 * protocol._CHUNK + protocol._CHUNK // 2,
    ], ids=["below", "on", "above", "between"])
    def test_chunked_flips_are_the_one_shot_flips(self, twice_L):
        L = twice_L // 2
        session = ProtocolSession(SYNTHETIC_PC, DESK_CH, L=L, seed=7)
        session.run_distribution()
        counts = expected_statistics(DESK_PC, DESK_CH)
        qber = counts.m_total("Z") / counts.n_total("Z")
        keys = [session.sign(m) for m in (0, 1)]
        for link in LINKS:
            rng = rng_stream(7, link, "synthetic")
            tx = rng.integers(0, 2, size=2 * L, dtype=np.uint8)
            flips = rng.random(2 * L) < qber
            assert flips.any()
            rx = tx ^ flips
            for m in (0, 1):
                assert np.array_equal(np.unpackbits(keys[m][link], count=L), rx[m * L:(m + 1) * L])

    def test_footprint_per_block_bit(self):
        # a synthetic session at L = 2e5 holds the keys and the recipients'
        # bits packed, 1 byte per block bit; no split is drawn before
        # messaging, where `_forward_half`'s draw of 12 bytes per block bit
        # sets the peak
        config = read_config(str(pathlib.Path(__file__).parent / "data" / "device.cfg"))
        pc, ch, L = config.pulse_config(), config.channel(10.0), 200_000
        # lazy imports and first-call caches stay out of the count
        ProtocolSession(pc, ch, L=2000, seed=1).run_distribution()
        session = ProtocolSession(pc, ch, L=L, seed=1)
        assert not session.bit_mode
        tracemalloc.start()
        try:
            session.run_distribution()
            distribution_peak = tracemalloc.get_traced_memory()[1]
            numpy_arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            held = sum(stat.size for stat in numpy_arrays.statistics("filename"))
            tracemalloc.reset_peak()
            session.run_messaging(1, self.relaxed_thresholds())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= 1.5 * L
        assert distribution_peak <= 8 * L
        assert peak <= 15 * L

    def test_each_half_is_counted_once(self, monkeypatch):
        # at 103 km (L = 89,522) both recipients verify: the four halves are
        # each counted once when built and once more for their mismatches
        config = read_config(str(pathlib.Path(__file__).parent / "data" / "device.cfg"))
        session = ProtocolSession(config.pulse_config(), config.channel(103.0), 89522, seed=5)
        session.run_distribution()
        passes = []
        real = protocol._popcount
        monkeypatch.setattr(protocol, "_popcount", lambda packed: passes.append(1) or real(packed))
        bob, charlie = session.run_messaging(0, Thresholds(s_alpha=0.0627773, s_upsilon=0.0838137))
        assert bob[0] and charlie[0]
        assert len(passes) == 8

    def test_transcript_sequence_is_strictly_increasing(self):
        session = ProtocolSession(DESK_PC, DESK_CH, L=1000, seed=2)
        session.run_distribution()
        session.run_messaging(0, self.relaxed_thresholds())
        seqs = [m.seq for m in session.transcript]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        kinds = {m.kind for m in session.transcript}
        assert {"signature", "accept"} <= kinds


def enumerate_forge_success(L, s_upsilon):
    """Exhaustive ground truth: fraction of guess patterns Charlie accepts."""
    half = L // 2
    limit = s_upsilon * half
    wins = sum(
        1
        for pattern in itertools.product((0, 1), repeat=half)
        if sum(pattern) < limit
    )
    return wins / 2**half


class TestAttacks:
    def test_exact_forge_matches_exhaustive_enumeration(self):
        for L, s_u in [(20, 0.3), (20, 0.2), (16, 0.45), (2, 0.3)]:
            assert exact_forge_success(L, s_u) == pytest.approx(
                enumerate_forge_success(L, s_u), abs=1e-12
            )

    # L = 8400 keeps 2058 tail terms with s_upsilon 0.01 below 1/2 in a
    # tenth of the reference's time at L = 20000
    @pytest.mark.parametrize("L, s_u", [(4000, 0.48), (8400, 0.49)])
    def test_exact_forge_matches_binomial_sum(self, L, s_u):
        # reference: the tail summed one math.comb at a time
        half = L // 2
        j_max = math.ceil(s_u * half) - 1
        reference = sum(math.comb(half, j) for j in range(j_max + 1)) / 2**half
        assert 0.0 < reference < 0.5
        assert exact_forge_success(L, s_u) == reference

    @given(
        half=st.integers(1, 40_000),
        s_u=st.floats(0.0, 1.2),
        near_cutoff=st.none() | st.integers(-5, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_forge_equals_the_full_sum(self, half, s_u, near_cutoff):
        if near_cutoff is not None:
            # put half * (1 - h(j_max / half)) within a unit or so of 1100 + near_cutoff
            half = max(half, 1200)
            a = binary_entropy_inverse(1.0 - (1100 + near_cutoff) / half)
            s_u = (math.floor(a * half) + 0.5) / half
        # j < s_u * half as the float limit decides it, the rule of verify
        j_max = math.ceil(s_u * half) - 1
        # reference: the whole tail in integer arithmetic, no shortcut
        total, term = 0, 1
        for j in range(min(j_max, half) + 1):
            total += term
            term = term * (half - j) // (j + 1)
        assert exact_forge_success(2 * half, s_u) == total / 2**half

    def test_exact_forge_counts_the_limit_as_verify_does(self):
        # 0.07 * 100 = 7.000000000000001: verify accepts 7 mismatches, so the tail keeps j = 7
        L, s_u = 200, 0.07
        assert s_u * (L // 2) > 7
        assert verify(crafted_keys(L), crafted_sym(L, 7), s_u)[0]
        assert not verify(crafted_keys(L), crafted_sym(L, 8), s_u)[0]
        reference = sum(math.comb(L // 2, j) for j in range(8)) / 2 ** (L // 2)
        assert exact_forge_success(L, s_u) == reference

    def test_exact_forge_degenerate_threshold(self):
        assert exact_forge_success(20, 0.0) == 0.0
        assert exact_forge_success(2, 0.3) == 0.5

    def test_forge_simulation_matches_exact_law(self):
        L, trials = 20, 20000
        th = Thresholds(s_alpha=0.1, s_upsilon=0.3)
        exact = exact_forge_success(L, th.s_upsilon)
        empirical = attack_forge(trials, L, th, seed=5)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(empirical - exact) < 3 * sigma

    def test_repudiation_stays_below_analytic_bound(self):
        L, trials = 2000, 20000
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        bound = 2.0 * math.exp(-((th.s_upsilon - th.s_alpha) ** 2) * L / 4.0)
        for rate in (0.075, 0.1, 0.125):
            empirical = attack_repudiation(trials, L, th, rate, seed=8)
            sigma = math.sqrt(max(empirical, 1.0 / trials) / trials)
            assert empirical <= bound + 3 * sigma

    @pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(9, 10)])
    def test_halves_of_a_binomial_corruption_are_independent_binomials(self, r):
        # Bin(L, r)(c) Hyp(b | c, L - c, L/2) = Bin(L/2, r)(b) Bin(L/2, r)(c - b), exactly
        def pmf(n, k):
            return math.comb(n, k) * r**k * (1 - r) ** (n - k)

        for L in range(2, 25, 2):
            h = L // 2
            for c in range(L + 1):
                for b in range(max(0, c - h), min(c, h) + 1):
                    hyp = Fraction(math.comb(c, b) * math.comb(L - c, h - b), math.comb(L, h))
                    assert pmf(L, c) * hyp == pmf(h, b) * pmf(h, c - b)

    @pytest.mark.parametrize("L, s_a, s_u, r", [
        (40, 0.1, 0.3, 0.2), (100, 0.05, 0.15, 0.1), (200, 0.1, 0.2, 0.15),
    ])
    def test_repudiation_simulation_matches_exact_law(self, L, s_a, s_u, r):
        def success(pmf_h, limit_below, limit_at):
            return (sum(p for j, p in enumerate(pmf_h) if j < limit_below)
                    * sum(p for j, p in enumerate(pmf_h) if j >= limit_at))

        def total_then_split(rng, trials):
            # the sampler of the total count split by a hypergeometric draw
            corrupted = rng.binomial(L, r, size=trials)
            in_bob_half = rng.hypergeometric(corrupted, L - corrupted, half)
            return float(np.mean((in_bob_half < s_a * half)
                                 & (corrupted - in_bob_half >= s_u * half)))

        half, trials = L // 2, 20_000
        pmf_h = [math.comb(half, j) * r**j * (1 - r) ** (half - j) for j in range(half + 1)]
        exact = success(pmf_h, s_a * half, s_u * half)
        assert 1e-3 < exact < 0.3
        sigma = math.sqrt(exact * (1 - exact) / trials)
        th = Thresholds(s_alpha=s_a, s_upsilon=s_u)
        for seed in (3, 4):
            assert abs(attack_repudiation(trials, L, th, r, seed=seed) - exact) < 4 * sigma
            reference = total_then_split(rng_stream(seed, "attack", "repudiation"), trials)
            assert abs(reference - exact) < 4 * sigma

    # demo-sign's thresholds at 30 km, and a short block where Bob accepts some trials
    @pytest.mark.parametrize("L, s_a, s_u, none_accepted", [
        (42_816, 0.0636911, 0.0822552, True), (40, 0.1, 0.3, False),
    ], ids=["demo-30km", "short"])
    def test_repudiation_draws_charlie_half_for_accepted_trials(
        self, monkeypatch, L, s_a, s_u, none_accepted
    ):
        draws = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, n, p, size):
                draws.append(self.rng.binomial(n, p, size))
                return draws[-1]

        real = protocol.rng_stream
        monkeypatch.setattr(protocol, "rng_stream", lambda *labels: Spy(real(*labels)))
        th = Thresholds(s_alpha=s_a, s_upsilon=s_u)
        rate = (s_a + s_u) / 2
        result = attack_repudiation(20_000, L, th, rate, seed=5)
        accepted = np.count_nonzero(draws[0] < s_a * (L // 2))
        assert [len(d) for d in draws] == [20_000, accepted]
        assert result == np.count_nonzero(draws[1] >= s_u * (L // 2)) / 20_000
        # at demo-sign lengths the midway rate sits far above Bob's limit:
        # one draw of 20,000 is the whole call
        assert (accepted == 0) == none_accepted

    def test_repudiation_without_corruption_never_succeeds(self):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        assert attack_repudiation(5000, 1000, th, 0.0, seed=1) == 0.0

    def test_attack_input_validation(self):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        with pytest.raises(ValueError):
            attack_forge(100, 21, th)
        with pytest.raises(ValueError):
            attack_repudiation(100, 2000, th, 1.5)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_attacks_need_a_trial(self, trials):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            attack_forge(trials, 2000, th)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            attack_repudiation(trials, 2000, th, 0.1)

    @pytest.mark.parametrize("attack", ["forge", "repudiation"])
    @pytest.mark.parametrize("trials, L, match", [
        (1.5, 2000, "trials must be an integer"),
        (100.0, 2000, "trials must be an integer"),
        ("100", 2000, "trials must be an integer"),
        (True, 2000, "trials must be an integer, got True"),
        (100, 1e300, "block length must be at most 2\\*\\*52"),
        (100, 2**52 + 2, "block length must be at most 2\\*\\*52"),
    ], ids=["fractional-trials", "float-trials", "text-trials", "bool-trials", "L-1e300",
            "L-past-cap"])
    def test_attacks_reject_bad_sizes(self, attack, trials, L, match):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        run = {"forge": lambda: attack_forge(trials, L, th),
               "repudiation": lambda: attack_repudiation(trials, L, th, 0.1)}[attack]
        with pytest.raises(ValueError, match=match):
            run()

    def test_attacks_take_numpy_integer_trials(self):
        th = Thresholds(s_alpha=0.05, s_upsilon=0.15)
        assert attack_forge(np.int64(100), 2000, th) == attack_forge(100, 2000, th)
        assert isinstance(attack_repudiation(np.int64(100), 2000, th, 0.1), float)

    def test_exact_forge_takes_a_numpy_integer_length(self):
        # a numpy L once overflowed the int64 binomial terms to inf
        assert exact_forge_success(np.int64(200), 0.45) == exact_forge_success(200, 0.45)
        assert exact_forge_success(200, 0.45) == 0.13562651203691736

    @pytest.mark.parametrize("L, match", [
        (200.0, "block length must be an integer"),
        (np.float64(200.0), "block length must be an integer"),
        (2**52 + 2, "block length must be at most 2\\*\\*52"),
    ], ids=["float", "numpy-float", "past-cap"])
    def test_exact_forge_follows_the_attacks_length_rule(self, L, match):
        with pytest.raises(ValueError, match=match):
            exact_forge_success(L, 0.45)

    @pytest.mark.parametrize("s_u", [math.inf, -math.inf, math.nan, 1e308, -1e308])
    def test_exact_forge_rejects_non_finite_threshold(self, s_u):
        with pytest.raises(ValueError, match="s_upsilon must be finite"):
            exact_forge_success(100, s_u)
