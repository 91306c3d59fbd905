"""Bit-granular serialization.

The compressed WFST formats of Section 3.4 pack arcs into 6-, 20-, 27-
and 45-bit records.  These helpers provide an MSB-first bit stream with
exact length accounting so the packers are real codecs (round-tripped in
tests), not just byte counters.
"""

from __future__ import annotations


class BitWriter:
    """Append-only MSB-first bit buffer."""

    def __init__(self) -> None:
        self._chunks: list[tuple[int, int]] = []  # (value, width)
        self._bits = 0

    def write(self, value: int, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._chunks.append((value, width))
        self._bits += width

    @property
    def bit_length(self) -> int:
        return self._bits

    @property
    def byte_length(self) -> int:
        return (self._bits + 7) // 8

    def getvalue(self) -> bytes:
        accumulator = 0
        for value, width in self._chunks:
            accumulator = (accumulator << width) | value
        padding = (8 - self._bits % 8) % 8
        accumulator <<= padding
        return accumulator.to_bytes((self._bits + padding) // 8 or 1, "big")


class BitReader:
    """Sequential MSB-first reader with random bit seek."""

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = data
        self._pos = 0
        self.bit_length = bit_length if bit_length is not None else len(data) * 8

    def read(self, width: int) -> int:
        if width <= 0:
            raise ValueError("width must be positive")
        if self._pos + width > self.bit_length:
            raise EOFError(
                f"read of {width} bits at {self._pos} exceeds {self.bit_length}"
            )
        value = 0
        pos = self._pos
        remaining = width
        while remaining:
            byte = self._data[pos // 8]
            offset = pos % 8
            take = min(8 - offset, remaining)
            shifted = (byte >> (8 - offset - take)) & ((1 << take) - 1)
            value = (value << take) | shifted
            pos += take
            remaining -= take
        self._pos = pos
        return value

    def seek(self, bit_position: int) -> None:
        if not 0 <= bit_position <= self.bit_length:
            raise ValueError(f"bad seek target {bit_position}")
        self._pos = bit_position

    def exhausted(self) -> bool:
        return self._pos >= self.bit_length


def bits_needed(max_value: int) -> int:
    """Minimum width to represent values in [0, max_value]."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, max_value.bit_length())
