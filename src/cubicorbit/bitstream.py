"""Bit sequences with fixed packing conventions.

n bits are stored as one int, the bits read MSB-first (the m orbit.jump
returns), and n: `BitStream(value, n)`. The named constructors build
that pair from a 0/1 array or sequence (`from_bits`), a 0/1 string
(`from01`), MSB-first bytes (`from_bytes`) and 32-bit words
(`from_words`); every format converts from it in linear time. All
packing is MSB-first: bit k lands in bit position 7-(k%8) of byte k//8,
and 32-bit words take their first bit as the most significant bit. Word
files on disk are little-endian 32-bit, so the bit-to-word mapping is
fixed before the byte order is applied.

A packed format writes whole units only: `raw` whole bytes, `words32le`
whole 32-bit words; the other formats write single bits. `write_bits`
and `BitStream.pack_words` raise ValueError, through `check_whole_units`,
for a bit count that would leave a partial last unit: padding it would
emit bits no certificate covers. A `json` file is an object with an
int `length` and a 0/1 string `bits`, and `read_bits` checks both.

The stream is an int, so only the functions that build or read arrays
import numpy, on first use: `from_bits`, `from_words`, `packed`,
`pack_words` and the word-file helpers. The raw, ascii, csv and json
paths never load it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np


class OutputFormat(Enum):
    RAW_PACKED_BITS = "raw"
    ASCII_BITS = "ascii"
    WORDS32_LE = "words32le"
    CSV = "csv"
    JSON = "json"


# bits per packing unit and the unit's name; other formats pack single bits
_UNITS = {OutputFormat.RAW_PACKED_BITS: (8, "bytes"),
          OutputFormat.WORDS32_LE: (32, "32-bit words")}


def check_whole_units(fmt: OutputFormat, n_bits: int) -> int:
    """Bits per unit of fmt; ValueError unless n_bits fills whole units."""
    unit, noun = _UNITS.get(fmt, (1, "bits"))
    if n_bits % unit:
        raise ValueError(f"{fmt.value} writes whole {noun}, but {n_bits} bits "
                         f"is not a multiple of {unit}")
    return unit


def as_words32(words: Iterable[int]) -> np.ndarray:
    """`words` as a uint32 array; ValueError unless each is in [0, 2^32)."""
    import numpy as np
    arr = np.asarray(words if isinstance(words, np.ndarray) else list(words))
    if arr.size and (arr.dtype.kind not in "iu"  # no float, bool or object
                     or arr.min() < 0 or arr.max() > 0xFFFFFFFF):
        raise ValueError("expected 32-bit words: integers in [0, 2^32)")
    return arr.astype(np.uint32, copy=False)


@dataclass(frozen=True, repr=False)
class BitStream:
    """Immutable sequence of bits: `value` read MSB-first, `length` bits."""

    value: int
    length: int

    def __post_init__(self):
        # bit_length() >= 0, so a negative length fails the second test
        if self.value < 0 or self.value.bit_length() > self.length:
            raise ValueError("value must lie in [0, 2^length)")

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "BitStream":
        """The stream of a one-dimensional sequence of 0/1 values."""
        import numpy as np
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bit values must be 0 or 1")
        return cls.from_bytes(np.packbits(arr).tobytes(), arr.size)

    @classmethod
    def from01(cls, text: str) -> "BitStream":
        text = text.strip()
        if set(text) - {"0", "1"}:  # int(text, 2) would take "_", "0b", "+"
            raise ValueError("expected a string of 0/1 characters")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def from_bytes(cls, raw: bytes, n_bits: int | None = None) -> "BitStream":
        """MSB-first bytes; n_bits trims padding from the last byte."""
        size = 8 * len(raw)
        n_bits = size if n_bits is None else n_bits
        if n_bits > size:
            raise ValueError("n_bits exceeds available data")
        return cls(int.from_bytes(raw, "big") >> (size - n_bits), n_bits)

    @classmethod
    def from_words(cls, words: Iterable[int]) -> "BitStream":
        """The stream of a one-dimensional sequence of 32-bit words."""
        arr = as_words32(words)
        if arr.ndim != 1:  # flattening would read a matrix as one stream
            raise ValueError("words must be one-dimensional")
        return cls.from_bytes(arr.astype(">u4").tobytes())

    def __reduce__(self):  # value and length only: a copied `packed` is writable
        return BitStream, (self.value, self.length)

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """Read-only uint8 view of `to_bytes()`, packed on first use."""
        import numpy as np
        return np.frombuffer(self.to_bytes(), dtype=np.uint8)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, key) -> "BitStream | int":
        n = self.length
        r = range(n)[key]  # bounds, negative indexes and IndexError as a list
        if isinstance(r, int):
            return (self.value >> (n - 1 - r)) & 1
        if r.step != 1:
            return BitStream.from01(self.to01()[key])
        return BitStream((self.value >> (n - r.stop)) & ((1 << len(r)) - 1), len(r))

    def __add__(self, other: "BitStream") -> "BitStream":
        return BitStream((self.value << other.length) | other.value,
                         self.length + other.length)

    def __repr__(self) -> str:
        head = self.to01() if len(self) <= 64 else self.to01()[:61] + "..."
        return f"BitStream({len(self)} bits: {head})"

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def to_bytes(self) -> bytes:
        """Pack MSB-first; the final byte is zero-padded on the right."""
        n = self.length
        return (self.value << (-n % 8)).to_bytes((n + 7) // 8, "big")

    def pack_words(self) -> np.ndarray:
        """Pack into uint32 words, first bit to the word's MSB; whole words only."""
        import numpy as np
        check_whole_units(OutputFormat.WORDS32_LE, len(self))
        return np.frombuffer(self.to_bytes(), ">u4").astype(np.uint32)


def write_words_le(path, words: np.ndarray) -> None:
    import numpy as np
    with replace_on_success(path) as fh:
        fh.write(np.asarray(words, dtype=np.uint32).astype("<u4").tobytes())


def read_words_le(path) -> np.ndarray:
    import numpy as np
    raw = Path(path).read_bytes()
    if len(raw) % 4:  # np.fromfile would drop the partial word in silence
        raise ValueError(f"{path} holds {len(raw)} bytes, "
                         f"not a whole number of 32-bit words")
    return np.frombuffer(raw, dtype="<u4").astype(np.uint32)


@contextlib.contextmanager
def replace_on_success(path) -> Iterator[BinaryIO]:
    """A binary file to write that takes `path`'s place only if the block ends.

    The bytes go to a temp file in the target's directory (after resolving
    symlinks), which `os.replace` moves over the target; on any failure the
    temp file is removed and the target is left as it was. A regular file
    that is replaced keeps its permission bits, not its hard links. A target
    that exists but is not a regular file (a FIFO, a device) is written in
    place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            yield fh
        return
    target = path.resolve()
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
    # O_EXCL: never write through a file or link that is already there;
    # 0o666 leaves the mode to the umask, as for a file opened with open()
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the target, as open(path) would
        exc.filename = str(path)
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            if target.is_file():  # so a private output stays private
                os.fchmod(fd, stat.S_IMODE(target.stat().st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_bits(path, streams: Iterable[BitStream], fmt: OutputFormat,
               n_bits: int) -> None:
    """Write n_bits bits of fmt: the streams in order, each as it arrives."""
    unit = check_whole_units(fmt, n_bits)
    # the carry: `length` bits, fewer than one unit, read as `value`
    value = length = written = 0
    with replace_on_success(path) as fh:
        if fmt is OutputFormat.CSV:
            fh.write(b"n,bit\n")
        elif fmt is OutputFormat.JSON:
            fh.write(f'{{"length": {n_bits}, "bits": "'.encode())
        for s in streams:
            value, length = (value << s.length) | s.value, length + s.length
            keep = length % unit
            head, n = value >> keep, length - keep  # the n bits to write now
            value, length = value & ((1 << keep) - 1), keep
            if fmt is OutputFormat.RAW_PACKED_BITS:  # whole bytes: no padding
                fh.write(head.to_bytes(n // 8, "big"))
            elif fmt is OutputFormat.WORDS32_LE:
                fh.write(BitStream(head, n).pack_words().astype("<u4").tobytes())
            elif fmt is OutputFormat.CSV:
                fh.writelines(f"{written + i},{b}\n".encode()
                              for i, b in enumerate(BitStream(head, n).to01()))
            else:  # ascii, and the string of json
                fh.write(BitStream(head, n).to01().encode())
            written += n
        if written + length != n_bits:
            raise ValueError(f"{written + length} bits arrived for a "
                             f"{n_bits}-bit {fmt.value} file")
        if fmt is OutputFormat.JSON:
            fh.write(b'"}')


def read_text(path, what: str) -> str:
    """The file's text; a file that is not UTF-8 names itself and `what`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path} as {what}: it is not UTF-8 "
                         f"text ({exc})") from None


def read_bits(path, fmt: OutputFormat) -> BitStream:
    if fmt is OutputFormat.RAW_PACKED_BITS:
        return BitStream.from_bytes(Path(path).read_bytes())
    if fmt is OutputFormat.ASCII_BITS:
        return BitStream.from01(read_text(path, "--format ascii"))
    if fmt is OutputFormat.WORDS32_LE:
        return BitStream.from_words(read_words_le(path))
    if fmt is OutputFormat.JSON:
        doc = json.loads(read_text(path, "--format json"))
        if not isinstance(doc, dict) or not isinstance(doc.get("bits"), str):
            raise ValueError(f"{path} is not a JSON object with string bits")
        s = BitStream.from01(doc["bits"])
        length = doc.get("length")
        if type(length) is not int or length != len(s):  # not True, not 1.0
            raise ValueError(f"{path} claims length {length!r}, "
                             f"but holds {len(s)} bits")
        return s
    raise ValueError(f"cannot read bits from format {fmt}")
