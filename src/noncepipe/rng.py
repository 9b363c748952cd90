"""Named random substreams derived from a single master seed.

Every component that needs randomness asks for a substream by name. Streams
are independent of each other and of registration order, so adding a new
scenario or module never perturbs the values an existing one draws.

A stream is seeded on its first draw: deriving and seeding one costs more
than the rest of a login's set-up. A session asks for its two FIDO2 streams
(its dummies, its authenticator) once, when it is built, and for its
manager's stream on every login; a password login never draws from the
first two (nor, in baseline, from the third). The seed depends only on the
name path, so a stream draws exactly what
`random.Random(derive_seed(master_seed, *names))` would.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["Substream", "derive_seed", "substream"]


def derive_seed(master_seed: int, *names: object) -> int:
    """Collapse a master seed plus a name path into a 128-bit stream seed:
    SHA-256 of the seed and each name, joined by 0x1F, in UTF-8."""
    path = "\x1f".join([str(int(master_seed)), *map(str, names)])
    return int.from_bytes(hashlib.sha256(path.encode("utf-8")).digest()[:16], "big")


class Substream:
    """A `random.Random` for one name path, built and seeded on first use.

    Each public method is looked up on the inner stream once and then kept
    on the holder, so later calls go straight to it. The holder refers to
    the stream, never the other way round, so no reference cycle forms.
    """

    def __init__(self, master_seed: int, names: tuple[object, ...]) -> None:
        self._path = (master_seed, names)

    def __getattr__(self, name: str):
        # reached only for names not yet on the holder
        if name.startswith("_"):
            raise AttributeError(name)
        stream = self.__dict__.get("_stream")
        if stream is None:
            master_seed, names = self._path
            stream = self._stream = random.Random(derive_seed(master_seed, *names))
        value = getattr(stream, name)
        if callable(value):
            setattr(self, name, value)
        return value


def substream(master_seed: int, *names: object) -> Substream:
    """Return an independent, reproducible RNG for the given name path."""
    return Substream(master_seed, names)
