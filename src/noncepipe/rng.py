"""Named random streams derived from a single master seed.

Every component draws from a stream it names; streams are independent of
each other and of the order they are asked for. A stream needs SHAKE-256
(FIPS 202) alone: its name path is the master seed in decimal and each
name, joined by 0x1F, in UTF-8; block k is the first 64 bytes of SHAKE-256
over the path, 0x1F and k in decimal; the stream is blocks 0, 1, 2, ...
`randbytes(n)` reads the next n bytes. `randbelow(n)` reads ceil(b/8) bytes
big-endian, b the bit length of n - 1, keeps the top b bits, and reads
again until that is below n. `string(alphabet, length)` draws each
character as `alphabet[randbelow(len(alphabet))]`. Nothing is hashed
before the first draw, and a stream holds one block at a time.
"""

from __future__ import annotations

import functools
from hashlib import sha256, shake_256

__all__ = ["Substream", "derive_seed", "substream"]

BLOCK_SIZE = 64


def _name_path(master_seed: int, names: tuple[object, ...]) -> bytes:
    return "\x1f".join([str(int(master_seed)), *map(str, names)]).encode("utf-8")


def derive_seed(master_seed: int, *names: object) -> int:
    """The first 16 bytes of SHA-256 of the name path, as a big-endian integer."""
    return int.from_bytes(sha256(_name_path(master_seed, names)).digest()[:16], "big")


@functools.cache
def _charset(alphabet: str) -> tuple[bytes, bytes]:
    """The translate table and deleted bytes that draw one character per byte."""
    if not 2 <= len(alphabet) <= 256:
        raise ValueError("an alphabet holds 2 to 256 characters")
    shift = 8 - (len(alphabet) - 1).bit_length()
    kept = len(alphabet) << shift  # each byte from here up stands for no character
    table = bytes(alphabet.encode("ascii")[v >> shift] for v in range(kept))
    return table.ljust(256, b"\0"), bytes(range(kept, 256))


class Substream:
    """The byte stream of one name path, read front to back by its draws."""

    __slots__ = ("_prefix", "_count", "_rest")

    def __init__(self, master_seed: int, names: tuple[object, ...]) -> None:
        self._prefix = _name_path(master_seed, names) + b"\x1f"
        self._count = 0  # blocks hashed so far
        self._rest = b""  # what is left of the last block hashed

    def randbytes(self, n: int) -> bytes:
        rest = self._rest
        while len(rest) < n:
            rest += shake_256(self._prefix + b"%d" % self._count).digest(BLOCK_SIZE)
            self._count += 1
        self._rest = rest[n:]
        return rest[:n]

    def randbelow(self, n: int) -> int:
        bits = (n - 1).bit_length()
        size = (bits + 7) // 8
        while True:
            value = int.from_bytes(self.randbytes(size), "big") >> (8 * size - bits)
            if value < n:
                return value

    def string(self, alphabet: str, length: int) -> str:
        """`length` characters of an ASCII alphabet of 2 to 256 characters."""
        table, rejected = _charset(alphabet)
        drawn = b""
        while len(drawn) < length:
            # as many bytes as characters are missing: none is read past the last
            drawn += self.randbytes(length - len(drawn)).translate(table, rejected)
        return drawn.decode("ascii")


def substream(master_seed: int, *names: object) -> Substream:
    """Return an independent, reproducible stream for the given name path."""
    return Substream(master_seed, names)
