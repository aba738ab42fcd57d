"""Bit-level packing helpers used by the leaf compression layout.

The compressed leaf structure of Figure 6 is not byte aligned (3 flag bits,
10-bit mantissas, 6-bit sign/exponent tuples).  Bits are packed MSB-first
within each byte, matching how the paper's compress/decompress logic streams
fields through the ZipPts buffer.  The codec in
:mod:`repro.core.leaf_compression` packs whole leaves with NumPy; this
field-at-a-time writer/reader is the reference its tests compare against.
"""

from __future__ import annotations

from typing import List

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates values of arbitrary bit width into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._bit_position = 0  # bits already used in the last byte

    def write(self, value: int, n_bits: int) -> None:
        """Append the ``n_bits`` least-significant bits of ``value``."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if value < 0 or value >= (1 << n_bits):
            raise ValueError(f"value {value} does not fit in {n_bits} bits")
        for shift in range(n_bits - 1, -1, -1):
            bit = (value >> shift) & 0x1
            if self._bit_position == 0:
                self._bytes.append(0)
            self._bytes[-1] |= bit << (7 - self._bit_position)
            self._bit_position = (self._bit_position + 1) % 8

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        if not self._bytes:
            return 0
        if self._bit_position == 0:
            return len(self._bytes) * 8
        return (len(self._bytes) - 1) * 8 + self._bit_position

    def to_bytes(self, pad_to: int = 1) -> bytes:
        """Finish the stream, zero-padding its length to a multiple of ``pad_to`` bytes."""
        if pad_to < 1:
            raise ValueError("pad_to must be at least 1")
        data = bytes(self._bytes)
        remainder = len(data) % pad_to
        if remainder:
            data += b"\x00" * (pad_to - remainder)
        return data


class BitReader:
    """Reads values of arbitrary bit width from a byte string (MSB-first)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # absolute bit position

    def read(self, n_bits: int) -> int:
        """Read the next ``n_bits`` bits as an unsigned integer."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        if self._position + n_bits > len(self._data) * 8:
            raise ValueError("attempt to read past the end of the bit stream")
        value = 0
        for _ in range(n_bits):
            byte_index = self._position // 8
            bit_index = 7 - (self._position % 8)
            bit = (self._data[byte_index] >> bit_index) & 0x1
            value = (value << 1) | bit
            self._position += 1
        return value

    @property
    def bits_remaining(self) -> int:
        """Number of unread bits left in the stream."""
        return len(self._data) * 8 - self._position
