"""Seeded streams: the SHAKE-256 spec, its reference, and how draws read it."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from noncepipe import es256
from noncepipe import rng as rng_module
from noncepipe.fido2 import CHALLENGE_LEN, REGISTRATION, Fido2Request
from noncepipe.http_model import Origin
from noncepipe.manager import NONCE_ALPHABET
from noncepipe.pipeline import DefenseMode
from noncepipe.rng import BLOCK_SIZE, derive_seed, substream
from noncepipe.session import BrowserSession
from noncepipe.sites import _PASSWORD_ALPHABET, SiteProfile, build_login_page, site_vault_entry


def test_derive_seed_matches_sha256_construction():
    h = hashlib.sha256()
    h.update(b"7")
    h.update(b"\x1f" + b"scenario")
    h.update(b"\x1f" + b"alpha")
    expected = int.from_bytes(h.digest()[:16], "big")
    assert derive_seed(7, "scenario", "alpha") == expected


def test_derive_seed_deterministic_and_name_sensitive():
    assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(2, "a", "b")
    assert derive_seed(1, "a", "b") != derive_seed(1, "a", "c")


def test_name_boundaries_matter():
    # the separator keeps ("ab","c") and ("a","bc") apart
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
    assert substream(1, "ab", "c").randbytes(16) != substream(1, "a", "bc").randbytes(16)


def test_substream_reproducible_and_independent():
    a1 = substream(5, "x").randbytes(16)
    a2 = substream(5, "x").randbytes(16)
    b = substream(5, "y").randbytes(16)
    assert a1 == a2
    assert a1 != b


def test_derive_seed_accepts_non_string_names():
    assert derive_seed(1, 42, "x") == derive_seed(1, "42", "x")
    assert substream(1, 42, "x").randbytes(16) == substream(1, "42", "x").randbytes(16)


# ---------------------------------------------------------------------------
# the spec with the standard library alone: hashlib, no noncepipe.rng, no random
# ---------------------------------------------------------------------------


def reference_stream(master_seed, *names):
    path = "\x1f".join([str(master_seed), *map(str, names)])
    for block in itertools.count():
        yield from hashlib.shake_256(f"{path}\x1f{block}".encode()).digest(64)


def reference_below(stream, n):
    bits = (n - 1).bit_length()
    size = (bits + 7) // 8
    while True:
        value = int.from_bytes(bytes(itertools.islice(stream, size)), "big") >> (8 * size - bits)
        if value < n:
            return value


def reference_string(stream, alphabet, length):
    return "".join(alphabet[reference_below(stream, len(alphabet))] for _ in range(length))


# README's test vectors, all at master seed 7: site s1's password, the first
# nonce of a session named "login", and that session's first ES256 key
VECTOR_PASSWORD = "pi94^UzSg)xy"
VECTOR_NONCE = "HhXzav5Fm7ftBEm4"
VECTOR_KEY = 0x7AB0472D608A09982F59FCC6DC4D4503127B6186E6B3BD063F0AC86F3254FEAE


def test_reference_reproduces_a_password_a_nonce_and_a_key():
    password = reference_string(reference_stream(7, "vault", "s1"), _PASSWORD_ALPHABET, 12)
    nonce = reference_string(reference_stream(7, "login", "manager"), NONCE_ALPHABET, 16)
    key = 1 + reference_below(reference_stream(7, "login", "device"), es256.N - 1)
    assert (password, nonce, key) == (VECTOR_PASSWORD, VECTOR_NONCE, VECTOR_KEY)
    first = bytes(itertools.islice(reference_stream(7, "vault", "s1"), 16))
    assert first.hex() == "c0cfd753457b71b3ac86acb028d9c466"

    # and the program draws the same three
    site = SiteProfile("s1", "plain_post", Origin("https", "bank.example", 443), ())
    entry = site_vault_entry(site, seed=7)
    session = BrowserSession(7, DefenseMode.DESIGN5_API_LATE, [entry], None, name="login")
    page, form_id = build_login_page(session, site)
    record = session.autofill(page, form_id)
    request = Fido2Request(
        REGISTRATION, bytes(CHALLENGE_LEN), "bank.example", user_id=bytes(8), user_name="alice"
    )
    attestation = session.device.make_credential(request)
    key = session.device.credentials[attestation.credential_id].private_key
    assert (entry.password, record.nonce, key) == (VECTOR_PASSWORD, VECTOR_NONCE, VECTOR_KEY)


_names = st.lists(st.one_of(st.text(max_size=8), st.integers()), max_size=4)
_draws = st.lists(
    st.one_of(
        st.tuples(st.just("randbytes"), st.integers(0, 150)),
        st.tuples(st.just("randbelow"), st.integers(1, 2**300)),
        st.tuples(st.just("string"), st.sampled_from([NONCE_ALPHABET, _PASSWORD_ALPHABET, "ab"])),
    ),
    min_size=1,
    max_size=25,
)


@given(st.integers(0, 2**64), _names, _draws)
def test_substream_draws_equal_the_reference(master_seed, names, draws):
    stream = substream(master_seed, *names)
    reference = reference_stream(master_seed, *names)
    for method, arg in draws:
        if method == "randbytes":
            assert stream.randbytes(arg) == bytes(itertools.islice(reference, arg))
        elif method == "randbelow":
            assert stream.randbelow(arg) == reference_below(reference, arg)
        else:
            assert stream.string(arg, 20) == reference_string(reference, arg, 20)


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------


def test_pieces_of_every_size_read_what_one_read_does():
    total = 3 * 200 + 7  # crosses block boundaries at every piece size
    whole = substream(3, "pieces").randbytes(total)
    assert len(whole) == total
    for size in range(1, 201):
        stream = substream(3, "pieces")
        pieces = [stream.randbytes(min(size, total - done)) for done in range(0, total, size)]
        assert b"".join(pieces) == whole, size
    first_blocks = [hashlib.shake_256(b"3\x1fpieces\x1f%d" % k).digest(64) for k in (0, 1)]
    assert whole[: 2 * BLOCK_SIZE] == b"".join(first_blocks)


def scripted(monkeypatch, script: bytes):
    """Make every stream read `script`, then zeros: block k is its k-th 64 bytes."""

    class Scripted:
        def __init__(self, data):
            self.index = int(data.rsplit(b"\x1f", 1)[1])

        def digest(self, size):
            return script[self.index * size : (self.index + 1) * size].ljust(size, b"\x00")

    monkeypatch.setattr(rng_module, "shake_256", Scripted)


@pytest.mark.parametrize(
    "alphabet, first_rejected",
    [(NONCE_ALPHABET, 248), (_PASSWORD_ALPHABET, 154)],
    ids=["62", "77"],
)
def test_string_rejects_exactly_the_out_of_range_bytes(monkeypatch, alphabet, first_rejected):
    shift = 8 - (len(alphabet) - 1).bit_length()
    assert (first_rejected - 1) >> shift == len(alphabet) - 1  # the last index kept
    assert first_rejected >> shift == len(alphabet)  # the first index past the end
    scripted(monkeypatch, bytes(range(256)) + b"\x00\x01")
    stream = substream(0)
    drawn = stream.string(alphabet, first_rejected)
    assert drawn == "".join(alphabet[v >> shift] for v in range(first_rejected))
    # bytes first_rejected..255 are skipped, and no draw reads past its last byte
    assert stream.string(alphabet, 1) == alphabet[0]
    assert stream.randbytes(1) == b"\x01"


@pytest.mark.parametrize("n", [2, 77, 256, 257, 300, 2**16 - 1, es256.N - 1])
def test_randbelow_rejects_exactly_the_out_of_range_values(monkeypatch, n):
    bits = (n - 1).bit_length()
    size = (bits + 7) // 8
    low = 8 * size - bits  # low bits each draw reads and drops

    def draw(value):
        return ((value << low) | ((1 << low) - 1)).to_bytes(size, "big")

    out_of_range = [(1 << bits) - 1, n] if n < 1 << bits else []
    scripted(monkeypatch, b"".join([*map(draw, out_of_range), draw(n - 1), draw(0), b"\x01"]))
    stream = substream(0)
    assert stream.randbelow(n) == n - 1
    assert stream.randbelow(n) == 0
    assert stream.randbytes(1) == b"\x01"


def test_randbelow_one_reads_nothing():
    stream = substream(4, "one")
    assert stream.randbelow(1) == 0
    assert stream.randbytes(8) == substream(4, "one").randbytes(8)


@pytest.mark.parametrize("alphabet", ["", "a", "é" * 10, "ab" * 129])
def test_string_refuses_alphabets_it_cannot_draw_from(alphabet):
    with pytest.raises(ValueError):
        substream(1).string(alphabet, 4)


def test_substream_hashes_nothing_until_first_draw(monkeypatch):
    hashed = []
    shake_256 = rng_module.shake_256

    def recording(data):
        hashed.append(data)
        return shake_256(data)

    monkeypatch.setattr(rng_module, "shake_256", recording)
    substream(9, "never")
    drawn = substream(9, "drawn")
    assert hashed == []
    drawn.randbytes(1)
    drawn.randbelow(1000)
    drawn.string(NONCE_ALPHABET, 16)
    assert hashed == [b"9\x1fdrawn\x1f0"]


def test_substream_offers_only_its_three_draws():
    stream = substream(1, "x")
    assert {name for name in dir(stream) if not name.startswith("_")} == {
        "randbelow",
        "randbytes",
        "string",
    }
