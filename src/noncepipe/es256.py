"""Minimal ES256: ECDSA over P-256 with SHA-256.

Signing is a small pure-Python implementation whose per-signature k comes
from a caller-supplied seeded RNG, so a fixed seed yields byte-identical
signatures run after run; that is a simulator property, not a production
one. Every scalar multiply here is k·G for the fixed generator G, so it
reads 4-bit windows of k from a table of multiples d·16^i·G that is built
on first use (not at import) and needs no doublings; the points, and so the
key and signature bytes for a given seed, are the same as with plain
double-and-add. Verification goes through the `cryptography` package
(OpenSSL), which keeps checking independent of this signer. That package
is imported at the first `verify` call, not at import, so a run that never
checks a signature (every password command) never loads it.
"""

from __future__ import annotations

import functools
import hashlib
from random import Random

__all__ = [
    "N",
    "der_signature",
    "generate_private_key",
    "public_key_bytes",
    "sign",
    "verify",
]

# NIST P-256 domain parameters (the curve's a is -3, which _double relies on)
_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
_G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)

_WINDOWS = 64  # 4-bit windows in a 256-bit scalar

_Affine = tuple[int, int]
_Jacobian = tuple[int, int, int]  # (X, Y, Z) stands for (X/Z^2, Y/Z^3)


def _double(p: _Jacobian) -> _Jacobian:
    x, y, z = p
    delta = z * z % _P
    gamma = y * y % _P
    beta = x * gamma % _P
    alpha = 3 * (x - delta) * (x + delta) % _P
    x3 = (alpha * alpha - 8 * beta) % _P
    z3 = 2 * y * z % _P
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % _P
    return (x3, y3, z3)


def _add(p: _Jacobian, q: _Affine) -> _Jacobian:
    """Mixed addition p + q for p != ±q; no caller reaches p == ±q."""
    x1, y1, z1 = p
    x2, y2 = q
    zz = z1 * z1 % _P
    h = (x2 * zz - x1) % _P
    r = (y2 * zz * z1 - y1) % _P
    hh = h * h % _P
    hhh = h * hh % _P
    v = x1 * hh % _P
    x3 = (r * r - hhh - 2 * v) % _P
    y3 = (r * (v - x3) - y1 * hhh) % _P
    return (x3, y3, z1 * h % _P)


def _to_affine(points: list[_Jacobian]) -> list[_Affine]:
    """Normalise with one inversion for the whole list (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % _P
    inv = pow(acc, -1, _P)
    out: list[_Affine] = [(0, 0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * prefix[i] % _P
        inv = inv * z % _P
        zz_inv = z_inv * z_inv % _P
        out[i] = (x * zz_inv % _P, y * zz_inv * z_inv % _P)
    return out


@functools.cache
def _g_table() -> tuple[tuple[_Affine, ...], ...]:
    """Row i holds d·16^i·G for d = 1..15, affine.

    Every d·16^i is below 15·16^63 < N, so no entry is the point at
    infinity and no addition while building meets p == ±q.
    """
    bases = [(*_G, 1)]
    for _ in range(_WINDOWS - 1):
        b = bases[-1]
        for _ in range(4):
            b = _double(b)
        bases.append(b)
    rows = []
    for b in _to_affine(bases):
        row = [(*b, 1), _double((*b, 1))]
        while len(row) < 15:
            row.append(_add(row[-1], b))
        rows.extend(row)
    flat = _to_affine(rows)
    return tuple(tuple(flat[i : i + 15]) for i in range(0, len(flat), 15))


def _mul_g(k: int) -> _Affine:
    """k·G as the sum over windows i of (digit_i of k)·16^i·G.

    With 0 < k < N, the sum s·G met before adding d·16^i·G has
    0 < s < 16^i and s + d·16^i <= k < N, so s is not ±d·16^i mod N and
    mixed addition applies.
    """
    k %= N
    if k == 0:
        raise ValueError("scalar is a multiple of the group order")
    table = _g_table()
    acc = None
    for i in range(_WINDOWS):
        digit = (k >> (4 * i)) & 15
        if digit:
            q = table[i][digit - 1]
            acc = (*q, 1) if acc is None else _add(acc, q)
    return _to_affine([acc])[0]


def _der_int(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if raw[0] & 0x80:
        raw = b"\x00" + raw
    return b"\x02" + bytes([len(raw)]) + raw


def der_signature(r: int, s: int) -> bytes:
    body = _der_int(r) + _der_int(s)
    return b"\x30" + bytes([len(body)]) + body


def generate_private_key(rng: Random) -> int:
    return rng.randrange(1, N)


def public_key_bytes(private_key: int) -> bytes:
    """Uncompressed SEC1 point: 0x04 || X (32 bytes) || Y (32 bytes)."""
    x, y = _mul_g(private_key)
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def sign(private_key: int, message: bytes, rng: Random) -> bytes:
    """DER-encoded ECDSA signature over SHA-256(message)."""
    z = int.from_bytes(hashlib.sha256(message).digest(), "big")
    while True:
        k = rng.randrange(1, N)
        r = _mul_g(k)[0] % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (z + r * private_key) % N
        if s == 0:
            continue
        return der_signature(r, s)


@functools.cache
def _openssl():
    """The `cryptography` names `verify` uses, imported on first call."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec

    return InvalidSignature, hashes, ec


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check a DER signature against an uncompressed SEC1 public key."""
    if len(public_key) != 65 or public_key[0] != 0x04:
        return False
    InvalidSignature, hashes, ec = _openssl()
    x = int.from_bytes(public_key[1:33], "big")
    y = int.from_bytes(public_key[33:65], "big")
    try:
        key = ec.EllipticCurvePublicNumbers(x, y, ec.SECP256R1()).public_key()
    except ValueError:
        return False
    try:
        key.verify(signature, message, ec.ECDSA(hashes.SHA256()))
        return True
    except (InvalidSignature, ValueError):
        return False
