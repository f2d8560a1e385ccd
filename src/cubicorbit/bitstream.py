"""Bit sequences with fixed packing conventions.

Bits are stored as a numpy uint8 array of 0/1 values. All packing is
MSB-first: bit k of the stream lands in bit position 7-(k%8) of byte
k//8, and 32-bit words take their first bit as the most significant
bit. Word files on disk are little-endian 32-bit, so the bit-to-word
mapping is fixed before the byte order is applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np

BitsLike = Union["BitStream", Sequence[int], np.ndarray]


class OutputFormat(Enum):
    RAW_PACKED_BITS = "raw"
    ASCII_BITS = "ascii"
    WORDS32_LE = "words32le"
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class PackResult:
    """32-bit words plus the count of trailing bits that did not fill one."""

    words: np.ndarray
    dropped_bits: int


class BitStream:
    """Immutable sequence of bits."""

    __slots__ = ("bits",)

    def __init__(self, bits: BitsLike):
        if isinstance(bits, BitStream):
            arr = bits.bits
        else:
            arr = np.asarray(bits, dtype=np.uint8)
            if arr is bits:  # keep our buffer private before freezing it
                arr = arr.copy()
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bit values must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("BitStream is immutable")

    @classmethod
    def from01(cls, text: str) -> "BitStream":
        text = text.strip()
        if set(text) - {"0", "1"}:
            raise ValueError("expected a string of 0/1 characters")
        return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_bytes(cls, raw: bytes, n_bits: int | None = None) -> "BitStream":
        """Unpack MSB-first bytes; n_bits trims padding from the last byte."""
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        if n_bits is not None:
            if n_bits > bits.size:
                raise ValueError("n_bits exceeds available data")
            bits = bits[:n_bits]
        return cls(bits)

    @classmethod
    def from_words(cls, words: Iterable[int]) -> "BitStream":
        arr = words if isinstance(words, np.ndarray) else list(words)
        arr = np.asarray(arr, dtype=np.uint32)
        return cls(np.unpackbits(arr.astype(">u4").view(np.uint8)))

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return len(self) == len(other) and bool(np.array_equal(self.bits, other.bits))

    def __getitem__(self, key) -> "BitStream | int":
        if isinstance(key, slice):
            return BitStream(self.bits[key])
        return int(self.bits[key])

    def __add__(self, other: "BitStream") -> "BitStream":
        return BitStream(np.concatenate([self.bits, BitStream(other).bits]))

    def __repr__(self) -> str:
        head = self.to01() if len(self) <= 64 else self.to01()[:61] + "..."
        return f"BitStream({len(self)} bits: {head})"

    def to01(self) -> str:
        return (self.bits + ord("0")).tobytes().decode()

    def to_bytes(self) -> bytes:
        """Pack MSB-first; the final byte is zero-padded on the right."""
        return np.packbits(self.bits).tobytes()

    def pack_words(self) -> PackResult:
        """Pack into 32-bit words, first bit to the word's MSB.

        A trailing remainder of fewer than 32 bits is dropped and reported
        in the result.
        """
        n_words, dropped = divmod(len(self), 32)
        usable = self.bits[: n_words * 32]
        words = np.packbits(usable).view(">u4").astype(np.uint32)
        return PackResult(words=words, dropped_bits=int(dropped))


def write_words_le(path, words: np.ndarray) -> None:
    np.asarray(words, dtype=np.uint32).astype("<u4").tofile(path)


def read_words_le(path) -> np.ndarray:
    return np.fromfile(path, dtype="<u4").astype(np.uint32)


def write_bits(path, s: BitStream, fmt: OutputFormat) -> None:
    if fmt is OutputFormat.RAW_PACKED_BITS:
        with open(path, "wb") as fh:
            fh.write(s.to_bytes())
    elif fmt is OutputFormat.ASCII_BITS:
        with open(path, "w") as fh:
            fh.write(s.to01())
    elif fmt is OutputFormat.WORDS32_LE:
        if len(s) % 32:  # pack_words would drop the tail in silence
            raise ValueError(f"words32le writes whole 32-bit words, but "
                             f"{len(s)} bits is not a multiple of 32")
        write_words_le(path, s.pack_words().words)
    elif fmt is OutputFormat.CSV:
        with open(path, "w") as fh:
            fh.write("n,bit\n")
            for i, b in enumerate(s.bits):
                fh.write(f"{i},{b}\n")
    elif fmt is OutputFormat.JSON:
        with open(path, "w") as fh:
            json.dump({"length": len(s), "bits": s.to01()}, fh)
    else:  # pragma: no cover
        raise ValueError(f"unsupported format {fmt}")


def read_bits(path, fmt: OutputFormat) -> BitStream:
    if fmt is OutputFormat.RAW_PACKED_BITS:
        with open(path, "rb") as fh:
            return BitStream.from_bytes(fh.read())
    if fmt is OutputFormat.ASCII_BITS:
        with open(path) as fh:
            return BitStream.from01(fh.read())
    if fmt is OutputFormat.WORDS32_LE:
        return BitStream.from_words(read_words_le(path))
    if fmt is OutputFormat.JSON:
        with open(path) as fh:
            payload = json.load(fh)
        return BitStream.from01(payload["bits"])
    raise ValueError(f"cannot read bits from format {fmt}")
