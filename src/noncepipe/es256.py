"""Minimal ES256: ECDSA over P-256 with SHA-256.

Every private key and per-signature k is drawn from a caller-supplied
seeded stream, so a fixed seed yields byte-identical keys and signatures run
after run; that is a simulator property, not a production one. The one
point operation signing needs, k·G for the fixed generator G, is the public
point of private scalar k, and the `cryptography` package (OpenSSL)
computes it; r and s are then computed here from that point's x. A point is
a fixed value, so which library computes it changes no byte. Verification
also goes through OpenSSL, so the tests that keep this module honest do not
compare it with OpenSSL alone: they check its public keys against a
pure-Python double-and-add k·G, and the RFC 6979 (appendix A.2.5) P-256 key
and signature vectors and bytes frozen for fixed seeds.

`cryptography` is imported at the first key, signature or check, not at
import, so a run that never uses ES256 (every password command) never
loads it. A FIDO2 run loads its Rust bindings and the `ec` and `hashes`
modules, and not the OpenSSL backend module
(`cryptography.hazmat.backends.openssl`): `ec.ECDSA.__init__` imports that
only to ask whether deterministic signing is supported, so every check
hands OpenSSL one `ECDSA` subclass object that skips it.
"""

from __future__ import annotations

import functools
import hashlib

from .rng import Substream

__all__ = [
    "N",
    "der_signature",
    "generate_private_key",
    "public_key_bytes",
    "sign",
    "verify",
]

# order of the NIST P-256 group
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


@functools.cache
def _openssl():
    """The `cryptography` names this module uses, imported on first call,
    and the one SHA-256 ECDSA object every check hands OpenSSL."""
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import ec

    class ECDSASHA256(ec.ECDSA):
        # OpenSSL's check reads the isinstance test and `algorithm`; the
        # base `__init__` would load the backend module for a signing answer
        algorithm = hashes.SHA256()
        deterministic_signing = False

        def __init__(self) -> None:
            pass

    return InvalidSignature, ec, ECDSASHA256()


def _mul_g(k: int) -> tuple[int, int]:
    """k·G in affine coordinates: the public point of private scalar k mod N."""
    k %= N
    if k == 0:
        raise ValueError("scalar is a multiple of the group order")
    _, ec, _ = _openssl()
    point = ec.derive_private_key(k, ec.SECP256R1()).public_key().public_numbers()
    return point.x, point.y


def _der_int(value: int) -> bytes:
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if raw[0] & 0x80:
        raw = b"\x00" + raw
    return b"\x02" + bytes([len(raw)]) + raw


def der_signature(r: int, s: int) -> bytes:
    body = _der_int(r) + _der_int(s)
    return b"\x30" + bytes([len(body)]) + body


def generate_private_key(rng: Substream) -> int:
    return 1 + rng.randbelow(N - 1)


def public_key_bytes(private_key: int) -> bytes:
    """Uncompressed SEC1 point: 0x04 || X (32 bytes) || Y (32 bytes)."""
    x, y = _mul_g(private_key)
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def sign(private_key: int, message: bytes, rng: Substream) -> bytes:
    """DER-encoded ECDSA signature over SHA-256(message)."""
    z = int.from_bytes(hashlib.sha256(message).digest(), "big")
    while True:
        k = 1 + rng.randbelow(N - 1)
        r = _mul_g(k)[0] % N
        if r == 0:
            continue
        s = pow(k, -1, N) * (z + r * private_key) % N
        if s == 0:
            continue
        return der_signature(r, s)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check a DER signature against an uncompressed SEC1 public key."""
    if len(public_key) != 65 or public_key[0] != 0x04:
        return False
    InvalidSignature, ec, ecdsa_sha256 = _openssl()
    x = int.from_bytes(public_key[1:33], "big")
    y = int.from_bytes(public_key[33:65], "big")
    try:
        key = ec.EllipticCurvePublicNumbers(x, y, ec.SECP256R1()).public_key()
    except ValueError:
        return False
    try:
        key.verify(signature, message, ecdsa_sha256)
        return True
    except (InvalidSignature, ValueError):
        return False
