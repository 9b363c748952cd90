"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the same code and input can take 1.5 times longer, in CPU
time as well as in wall time, when neighbours load the same physical cores,
and the host switches between fast and slow spells within a second. So a
repetition samples the host's speed all through its own run: `Sampler` runs
a short slice of reference work on the main thread every `INTERVAL_S` of
process CPU time, from a SIGPROF handler, and times each slice on the same
CPU clock as the cases, the main thread's. run.py scales the repetition's
times by the slices' mean, so a slow spell of the host divides out while a
slower program does not. No thread or process is started.

The work is a mix of what the program spends its time on (256-bit modular
arithmetic like the ES256 signer, small objects, string building and
form-encoding, dicts, hashing), but none of it is program code, so a change
to the program cannot change its cost.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import time
from urllib.parse import quote

INTERVAL_S = 0.02  # process CPU time between slices
NOMINAL_SLICE_S = 0.001  # a slice's CPU time on an unloaded 2-core Xeon VM

# NIST P-256 field prime
_MODULUS = 2**256 - 2**224 + 2**192 + 2**96 - 1


class _Field:
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str) -> None:
        self.name = name
        self.value = value

    def render(self) -> str:
        return f"{quote(self.name)}={quote(self.value)}"


def work_slice() -> bytes:
    """About a millisecond of reference work."""
    acc = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
    for i in range(400):
        acc = (acc * acc + i) % _MODULUS
    acc = pow(acc, -1, _MODULUS)
    table: dict[str, list[str]] = {}
    for i in range(120):
        field = _Field(f"field{i % 7}", f"v{i}&{acc % 9973}")
        table.setdefault(field.name, []).append(field.render())
    body = "&".join(v for key in sorted(table) for v in table[key])
    return hashlib.sha256(body.encode()).digest()


class Sampler:
    """Times a slice of reference work every INTERVAL_S of process CPU time."""

    def __init__(self) -> None:
        self.slices: list[float] = []  # CPU seconds of each slice

    def _tick(self, signum: int, frame: object) -> None:
        # a collection of the program's heap is the program's cost, not the
        # slice's: it waits until the slice is done
        collecting = gc.isenabled()
        gc.disable()
        # the process CPU clock is only updated coarsely while a process CPU
        # timer is armed; the thread clock stays exact
        start = time.thread_time()
        work_slice()
        self.slices.append(time.thread_time() - start)
        if collecting:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
