"""SECDED (single-error-correcting, double-error-detecting) code.

The MAP's SDRAM controller "performs SECDED error control" (Section 2).  This
module implements a standard (72, 64) Hamming code extended with an overall
parity bit: 64 data bits are protected by 7 Hamming check bits plus 1 parity
bit.  A single flipped bit in the 72-bit codeword is corrected; two flipped
bits are detected and reported.

The code is the classic positional construction: data bits sit at the
non-power-of-two positions 1..71 of the codeword, check bit ``i`` at position
``2**i`` covers every position whose index has bit ``i`` set, and position 0
holds the overall parity of the other 71 bits.

Every step of that construction is linear over GF(2): the codeword of
``a ^ b`` is the XOR of the codewords of ``a`` and ``b``, the syndrome (the
XOR of the indices of the set bits at positions 1..71) of ``c ^ d`` is the XOR
of their syndromes, and data extraction is a fixed bit gather.  So each is
the XOR of per-byte contributions, and the codec reads them from byte-sliced
lookup tables instead of looping over bits:

* ``secded_encode`` XORs eight 256-entry tables, one per data byte;
* ``secded_decode`` XORs nine 256-entry tables, one per codeword byte, each
  entry packing the byte's gathered data bits above its 7-bit syndrome.

A table is built from the values of its eight single bits (its basis) with
``t[v] = t[v & (v - 1)] ^ basis[lowbit(v)]``: one XOR per entry, about a
millisecond for all tables at import time.  The overall parity is taken over
the whole integer, so the decoder treats any integer, negative or wider than
72 bits included, exactly as the positional construction does.
"""

from __future__ import annotations

from typing import List, Tuple

DATA_BITS = 64
#: Number of Hamming check bits required for 64 data bits (2^7 >= 64+7+1).
CHECK_BITS = 7
#: Total codeword length: data + Hamming checks + overall parity.
CODEWORD_BITS = DATA_BITS + CHECK_BITS + 1  # 72

_WORD_MASK = (1 << DATA_BITS) - 1
_SYNDROME_MASK = (1 << CHECK_BITS) - 1

# Positions 1..71 that are not powers of two hold the data bits, LSB first.
_DATA_POSITIONS = [pos for pos in range(1, CODEWORD_BITS) if pos & (pos - 1) != 0][:DATA_BITS]
_CHECK_POSITIONS = [1 << i for i in range(CHECK_BITS)]
_DATA_INDEX = {position: bit_index for bit_index, position in enumerate(_DATA_POSITIONS)}


class SecdedError(Exception):
    """Raised when an uncorrectable (double-bit) error is detected."""


def _byte_tables(basis: List[int]) -> List[int]:
    """Concatenate one 256-entry XOR table per byte of *basis*.

    ``basis[8 * k + b]`` is the value of bit ``b`` of byte ``k``; entry
    ``256 * k + v`` of the result is the XOR of the basis values of the bits
    set in ``v``.
    """
    tables: List[int] = []
    for start in range(0, len(basis), 8):
        byte_basis = basis[start:start + 8]
        table = [0] * 256
        for v in range(1, 256):
            table[v] = table[v & (v - 1)] ^ byte_basis[(v & -v).bit_length() - 1]
        tables.extend(table)
    return tables


def _encode_basis(bit_index: int) -> int:
    """Codeword of the data word with only *bit_index* set."""
    position = _DATA_POSITIONS[bit_index]
    codeword = 1 << position
    for check in _CHECK_POSITIONS:
        if position & check:
            codeword |= 1 << check
    # Overall parity over positions 1..71 stored at position 0.
    if bin(codeword).count("1") & 1:
        codeword |= 1
    return codeword


def _decode_basis(position: int) -> int:
    """Gathered data bits (above the syndrome field) and syndrome of a set
    codeword bit at *position*."""
    data = 1 << _DATA_INDEX[position] if position in _DATA_INDEX else 0
    return (data << CHECK_BITS) | position


_ENCODE = _byte_tables([_encode_basis(bit) for bit in range(DATA_BITS)])
_DECODE = _byte_tables([_decode_basis(position) for position in range(CODEWORD_BITS)])
# Data bit toggled by correcting the single-bit error a syndrome points at
# (0 for check-bit positions and for syndromes beyond the codeword).
_CORRECTION = [1 << _DATA_INDEX[s] if s in _DATA_INDEX else 0 for s in range(1 << CHECK_BITS)]


def secded_encode(word: int) -> int:
    """Encode a 64-bit data word into a 72-bit SECDED codeword."""
    word &= _WORD_MASK
    t = _ENCODE
    return (
        t[word & 0xFF]
        ^ t[0x100 | (word >> 8 & 0xFF)]
        ^ t[0x200 | (word >> 16 & 0xFF)]
        ^ t[0x300 | (word >> 24 & 0xFF)]
        ^ t[0x400 | (word >> 32 & 0xFF)]
        ^ t[0x500 | (word >> 40 & 0xFF)]
        ^ t[0x600 | (word >> 48 & 0xFF)]
        ^ t[0x700 | (word >> 56)]
    )


def secded_decode(codeword: int) -> Tuple[int, bool]:
    """Decode a 72-bit codeword.

    Returns ``(data_word, corrected)`` where *corrected* is True when a
    single-bit error was found and repaired.

    Raises
    ------
    SecdedError
        When a double-bit error is detected.
    """
    t = _DECODE
    packed = (
        t[codeword & 0xFF]
        ^ t[0x100 | (codeword >> 8 & 0xFF)]
        ^ t[0x200 | (codeword >> 16 & 0xFF)]
        ^ t[0x300 | (codeword >> 24 & 0xFF)]
        ^ t[0x400 | (codeword >> 32 & 0xFF)]
        ^ t[0x500 | (codeword >> 40 & 0xFF)]
        ^ t[0x600 | (codeword >> 48 & 0xFF)]
        ^ t[0x700 | (codeword >> 56 & 0xFF)]
        ^ t[0x800 | (codeword >> 64 & 0xFF)]
    )
    syndrome = packed & _SYNDROME_MASK
    data = packed >> CHECK_BITS
    overall = bin(codeword).count("1") & 1
    if syndrome:
        if not overall:
            # Non-zero syndrome but even overall parity: two bits flipped.
            raise SecdedError(f"uncorrectable double-bit error (syndrome {syndrome:#x})")
        # Single-bit error at position `syndrome`: correct it.
        return data ^ _CORRECTION[syndrome], True
    # Syndrome zero with odd overall parity: the parity bit itself flipped
    # and the data is intact.
    return data, overall == 1


def inject_error(codeword: int, bit_positions) -> int:
    """Flip the given bit positions of a codeword (fault-injection helper)."""
    for position in bit_positions:
        if not 0 <= position < CODEWORD_BITS:
            raise ValueError(f"bit position {position} outside the {CODEWORD_BITS}-bit codeword")
        codeword ^= 1 << position
    return codeword
