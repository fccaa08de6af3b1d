"""Exhaustive unit tests for the (72, 64) SECDED code and its SDRAM hookup.

ROADMAP item 3 flags `memory/secded.py` as effectively untested: the fuzzing
PR makes the SECDED path load-bearing (seeded bit-flip injection), so this
file pins every branch of the encoder/decoder — every single-bit position in
every region of the codeword (data, Hamming check, overall parity), the
double-bit detected-uncorrectable path with syndrome accounting, and the
corrected/detected counters of the `Sdram` model including their snapshot
round-trip and pre-counter snapshot back-compat.

The codec itself is table-driven; ``_reference_encode`` and
``_reference_decode`` below keep the positional bit-loop construction as the
test oracle it is checked against, bit for bit.
"""

import random

import pytest

from repro import MachineConfig, MMachine
from repro.memory.sdram import Sdram
from repro.memory.secded import (
    CHECK_BITS,
    CODEWORD_BITS,
    DATA_BITS,
    SecdedError,
    _CHECK_POSITIONS,
    _DATA_POSITIONS,
    inject_error,
    secded_decode,
    secded_encode,
)

WORDS = [
    0,
    1,
    0xDEADBEEF,
    (1 << 64) - 1,
    0x0123_4567_89AB_CDEF,
    0xA5A5_5A5A_0F0F_F0F0,
    1 << 63,
]

_ORACLE_RNG = random.Random(0x5EC0DED)
#: WORDS plus seeded random words, negative and wider-than-64-bit ones too.
ORACLE_WORDS = (
    WORDS
    + [_ORACLE_RNG.getrandbits(64) for _ in range(40)]
    + [-_ORACLE_RNG.getrandbits(64) for _ in range(20)]
    + [_ORACLE_RNG.getrandbits(100) for _ in range(20)]
    + [-7, -1, -(1 << 63), (1 << 64) + 3, (1 << 72) | 0xABC]
)


def _reference_encode(word):
    """Positional construction, bit by bit: the oracle for secded_encode."""
    word &= (1 << DATA_BITS) - 1
    codeword = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (word >> bit_index) & 1:
            codeword |= 1 << position
    for position in _CHECK_POSITIONS:
        covered = 0
        for pos in range(1, CODEWORD_BITS):
            if pos & position and (codeword >> pos) & 1:
                covered ^= 1
        if covered:
            codeword |= 1 << position
    if bin(codeword >> 1).count("1") & 1:
        codeword |= 1
    return codeword


def _reference_decode(codeword):
    """Positional construction, bit by bit: the oracle for secded_decode."""
    syndrome = 0
    for position in _CHECK_POSITIONS:
        covered = 0
        for pos in range(1, CODEWORD_BITS):
            if pos & position and (codeword >> pos) & 1:
                covered ^= 1
        if covered:
            syndrome |= position
    overall = bin(codeword).count("1") & 1
    corrected = False
    if syndrome != 0 and overall == 1:
        codeword ^= 1 << syndrome
        corrected = True
    elif syndrome != 0 and overall == 0:
        raise SecdedError(f"uncorrectable double-bit error (syndrome {syndrome:#x})")
    elif syndrome == 0 and overall == 1:
        codeword ^= 1
        corrected = True
    data = 0
    for bit_index, position in enumerate(_DATA_POSITIONS):
        if (codeword >> position) & 1:
            data |= 1 << bit_index
    return data, corrected


def _outcome(decode, codeword):
    """A decoder's result, or the message of the SecdedError it raised."""
    try:
        return decode(codeword)
    except SecdedError as error:
        return "SecdedError", str(error)


class TestReferenceOracle:
    def test_encode_matches_oracle(self):
        for word in ORACLE_WORDS:
            assert secded_encode(word) == _reference_encode(word), hex(word)

    def test_every_single_flip_matches_oracle(self):
        for word in ORACLE_WORDS:
            codeword = _reference_encode(word)
            assert secded_decode(codeword) == _reference_decode(codeword)
            for position in range(CODEWORD_BITS):
                flipped = codeword ^ (1 << position)
                assert secded_decode(flipped) == _reference_decode(flipped), (hex(word), position)

    def test_sampled_double_flips_match_oracle(self):
        rng = random.Random(72)
        for word in ORACLE_WORDS:
            codeword = _reference_encode(word)
            for _ in range(12):
                first, second = rng.sample(range(CODEWORD_BITS), 2)
                flipped = codeword ^ (1 << first) ^ (1 << second)
                assert _outcome(secded_decode, flipped) == _outcome(_reference_decode, flipped)

    def test_out_of_range_codewords_match_oracle(self):
        # Negative and wider-than-72-bit integers are not codewords, but the
        # decoder still treats them exactly as the positional loops do.
        rng = random.Random(9)
        for _ in range(300):
            codeword = rng.getrandbits(rng.choice([72, 80, 140])) * rng.choice([1, -1])
            assert _outcome(secded_decode, codeword) == _outcome(_reference_decode, codeword)


class TestCodeGeometry:
    def test_codeword_layout(self):
        assert DATA_BITS == 64
        assert CHECK_BITS == 7
        assert CODEWORD_BITS == 72
        assert len(_DATA_POSITIONS) == DATA_BITS
        assert len(_CHECK_POSITIONS) == CHECK_BITS
        # Data, check and parity positions partition the codeword.
        occupied = set(_DATA_POSITIONS) | set(_CHECK_POSITIONS) | {0}
        assert occupied == set(range(CODEWORD_BITS))

    def test_encode_masks_to_64_bits(self):
        assert secded_encode(1 << 64) == secded_encode(0)
        assert secded_encode((1 << 65) | 5) == secded_encode(5)


class TestRoundTrip:
    @pytest.mark.parametrize("word", WORDS)
    def test_clean_decode(self, word):
        data, corrected = secded_decode(secded_encode(word))
        assert data == word
        assert not corrected


class TestSingleBitCorrection:
    @pytest.mark.parametrize("word", [0, (1 << 64) - 1, 0xA5A5_5A5A_0F0F_F0F0])
    def test_every_position_corrected(self, word):
        codeword = secded_encode(word)
        for position in range(CODEWORD_BITS):
            data, corrected = secded_decode(inject_error(codeword, [position]))
            assert data == word, f"flip at bit {position} not corrected"
            assert corrected

    def test_data_bit_flip_corrected(self):
        codeword = secded_encode(0x1234)
        flipped = inject_error(codeword, [_DATA_POSITIONS[17]])
        assert secded_decode(flipped) == (0x1234, True)

    def test_check_bit_flip_leaves_data_intact(self):
        # A flipped Hamming check bit yields its own position as syndrome;
        # the data bits are untouched either way.
        codeword = secded_encode(0xFEED)
        for position in _CHECK_POSITIONS:
            assert secded_decode(inject_error(codeword, [position])) == (0xFEED, True)

    def test_parity_bit_flip_is_the_syndrome_zero_branch(self):
        # Position 0 is the overall parity bit: flipping it gives syndrome 0
        # with odd overall parity, the third corrected branch of the decoder.
        codeword = secded_encode(0xBEEF)
        assert secded_decode(inject_error(codeword, [0])) == (0xBEEF, True)


class TestDoubleBitDetection:
    @pytest.mark.parametrize("word", [0, 0xDEADBEEF, (1 << 64) - 1])
    def test_adjacent_pairs_detected(self, word):
        codeword = secded_encode(word)
        for position in range(CODEWORD_BITS - 1):
            with pytest.raises(SecdedError):
                secded_decode(inject_error(codeword, [position, position + 1]))

    def test_parity_plus_data_pair_detected(self):
        # Parity bit + any other bit: non-zero syndrome with even overall
        # parity, so it must land in the uncorrectable branch.
        codeword = secded_encode(42)
        with pytest.raises(SecdedError):
            secded_decode(inject_error(codeword, [0, _DATA_POSITIONS[5]]))

    def test_spread_pairs_detected(self):
        codeword = secded_encode(0x0F0F_F0F0_A5A5_5A5A)
        for pair in [(1, 64), (2, 71), (3, 40), (8, 9), (33, 66)]:
            with pytest.raises(SecdedError):
                secded_decode(inject_error(codeword, list(pair)))

    def test_syndrome_reported(self):
        with pytest.raises(SecdedError, match="syndrome"):
            secded_decode(inject_error(secded_encode(7), [3, 40]))


class TestInjectError:
    def test_flips_are_involutive(self):
        codeword = secded_encode(99)
        assert inject_error(inject_error(codeword, [7, 13]), [13, 7]) == codeword

    @pytest.mark.parametrize("position", [-1, CODEWORD_BITS, 1000])
    def test_out_of_range_positions_rejected(self, position):
        with pytest.raises(ValueError):
            inject_error(secded_encode(1), [position])


class TestSdramAccounting:
    def test_corrected_counter_and_scrub(self):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5])
        assert sdram.read_word(3) == 777
        assert (sdram.corrected_errors, sdram.detected_errors) == (1, 0)
        # The scrub rewrote the codeword: a second read is clean.
        assert sdram.read_word(3) == 777
        assert (sdram.corrected_errors, sdram.detected_errors) == (1, 0)

    def test_detected_counter_increments_per_failed_read(self):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [5, 9])
        for attempt in range(1, 3):
            with pytest.raises(SecdedError):
                sdram.read_word(3)
            assert sdram.detected_errors == attempt
        assert sdram.corrected_errors == 0

    def test_mixed_workload_accounting(self):
        sdram = Sdram(size_words=64)
        for address in range(8):
            sdram.write_word(address, 1000 + address)
        for address in (1, 4, 6):
            sdram.inject_bit_error(address, [address + 10])
        sdram.inject_bit_error(7, [2, 30])
        values = [sdram.read_word(address) for address in range(7)]
        assert values == [1000 + address for address in range(7)]
        with pytest.raises(SecdedError):
            sdram.read_word(7)
        assert (sdram.corrected_errors, sdram.detected_errors) == (3, 1)

    def test_injection_requires_secded(self):
        sdram = Sdram(size_words=64, secded_enabled=False)
        sdram.write_word(3, 777)
        with pytest.raises(RuntimeError):
            sdram.inject_bit_error(3, [5])

    @pytest.mark.parametrize("position", [-1, CODEWORD_BITS, 80])
    def test_injection_rejects_positions_outside_the_codeword(self, position):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 777)
        with pytest.raises(ValueError):
            sdram.inject_bit_error(3, [position])
        assert sdram.read_word(3) == 777
        assert sdram.corrected_errors == 0

    def test_injection_rejects_tagged_words(self):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 1.5)
        with pytest.raises(RuntimeError):
            sdram.inject_bit_error(3, [5])

    def test_counters_survive_snapshot_round_trip(self):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 777)
        sdram.inject_bit_error(3, [1])
        sdram.write_word(4, 888)
        sdram.inject_bit_error(4, [2, 9])
        sdram.read_word(3)
        with pytest.raises(SecdedError):
            sdram.read_word(4)
        state = sdram.state_dict()
        restored = Sdram(size_words=64)
        restored.load_state_dict(state)
        assert restored.corrected_errors == 1
        assert restored.detected_errors == 1
        # The poisoned codeword travels through the snapshot verbatim.
        with pytest.raises(SecdedError):
            restored.read_word(4)
        assert restored.detected_errors == 2

    def test_snapshots_without_detected_counter_still_load(self):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, 777)
        state = sdram.state_dict()
        del state["detected_errors"]
        restored = Sdram(size_words=64)
        restored.load_state_dict(state)
        assert restored.detected_errors == 0
        assert restored.read_word(3) == 777


class TestSignedWords:
    """Model words are signed 64-bit: a negative word reads back unchanged
    after its cache line is written back to SDRAM, with SECDED on or off."""

    @pytest.mark.parametrize("secded_enabled", [True, False])
    def test_negative_store_survives_eviction(self, secded_enabled):
        config = MachineConfig.single_node()
        config.memory.secded_enabled = secded_enabled
        machine = MMachine(config)
        heap = 0x10000
        machine.map_on_node(0, heap, num_pages=1)
        machine.load_hthread(0, 0, 0, "sub i2, i3, #7\nst i2, i1\nhalt",
                             registers={"i1": heap, "i3": 0})
        machine.run_until_user_done()
        assert machine.read_word(heap) == -7
        machine.nodes[0].memory.flush_cache()
        assert machine.read_word(heap) == -7

    @pytest.mark.parametrize("word", [-7, -1, -(1 << 63), (1 << 63) - 1, 0])
    def test_sdram_reads_signed_64_bit(self, word):
        sdram = Sdram(size_words=64)
        sdram.write_word(3, word)
        assert sdram.read_word(3) == word
        sdram.inject_bit_error(3, [40])
        assert sdram.read_word(3) == word
