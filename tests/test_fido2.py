"""FIDO2 channel: ES256 against OpenSSL and a pure-Python k·G, payloads, store, RP."""

import base64
import hashlib
import json
import subprocess
import sys
import textwrap
from random import Random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from hypothesis import given, settings, strategies as st

from noncepipe import es256
from noncepipe.fido2 import (
    AUTHENTICATION,
    CHALLENGE_LEN,
    CREDENTIAL_ID_LEN,
    HEADER_REQUEST,
    HEADER_REQUEST_SHORT,
    HEADER_RESPONSE,
    HEADER_URL_RESP,
    REGISTRATION,
    AssertionResponse,
    AttestationObject,
    AuthenticatorDevice,
    BrowserWebAuthn,
    Fido2Request,
    MalformedHeader,
    MalformedPayload,
    NoCredential,
    RelyingParty,
    SecureStore,
    make_dummy_request,
    make_dummy_response,
    response_from_json,
)
from noncepipe.http_model import (
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
)

ORIGIN = Origin("https", "sso.example", 443)
RP_ID = "sso.example"
RP_HASH = hashlib.sha256(RP_ID.encode()).digest()


# ---------------------------------------------------------------------------
# ES256 keys against an independent k·G
# ---------------------------------------------------------------------------

# P-256 (SEC 2 / FIPS 186-4): field prime (the curve's a is -3) and generator
P256_P = 2**256 - 2**224 + 2**192 + 2**96 - 1
P256_G = (
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)


def affine_add(p1, p2):
    """Sum of two affine points on P-256; None is the point at infinity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2:
        if (y1 + y2) % P256_P == 0:
            return None
        slope = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P256_P)
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P256_P)
    x3 = (slope * slope - x1 - x2) % P256_P
    return x3, (slope * (x1 - x3) - y1) % P256_P


def reference_mul_g(k: int):
    """k·G by double-and-add: the reference es256's OpenSSL points must equal."""
    result, addend = None, P256_G
    while k:
        if k & 1:
            result = affine_add(result, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return result


def oracle_public_key(private: int) -> bytes:
    x, y = reference_mul_g(private)
    return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def test_public_key_matches_cryptography_derivation():
    private = es256.generate_private_key(Random(11))
    assert es256.public_key_bytes(private) == oracle_public_key(private)


# small scalars, powers of two and the scalars just below the order
EDGE_SCALARS = [1, 2, 15, 16, 2**255, 15 * 16**63, es256.N - 2, es256.N - 1]


@pytest.mark.parametrize("private", EDGE_SCALARS)
def test_public_key_matches_cryptography_at_edges(private):
    assert es256.public_key_bytes(private) == oracle_public_key(private)


@given(st.integers(min_value=1, max_value=es256.N - 1))
@settings(max_examples=50, deadline=None)
def test_public_key_matches_cryptography_over_range(private):
    assert es256.public_key_bytes(private) == oracle_public_key(private)


@pytest.mark.parametrize("private", [0, es256.N, 3 * es256.N])
def test_public_key_rejects_multiples_of_the_order(private):
    with pytest.raises(ValueError):
        es256.public_key_bytes(private)


def test_password_commands_never_load_cryptography(tmp_path):
    # keygen, signing and signature checks need OpenSSL; the first of them
    # loads it, and password commands never do
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("plain_post\thttps://a.example\t-\n", encoding="utf-8")
    matrix = ["matrix", "--seed", "7", "--strategies", "1", "--out", str(tmp_path / "m")]
    compat = ["compat", "--seed", "7", "--corpus", str(corpus), "--out", str(tmp_path / "c")]
    code = textwrap.dedent(
        f"""
        import sys
        from random import Random

        def loaded():
            return [m for m in sys.modules if m.split(".")[0] == "cryptography"]

        import noncepipe.cli as cli
        assert not loaded(), loaded()
        assert cli.main({matrix!r}) == 0
        assert not loaded(), loaded()
        assert cli.main({compat!r}) == 0
        assert not loaded(), loaded()

        from noncepipe import es256
        key = es256.generate_private_key(Random(1))
        public = es256.public_key_bytes(key)
        signature = es256.sign(key, b"message", Random(2))
        assert es256.verify(public, b"message", signature)
        assert "cryptography" in loaded(), loaded()
        flipped = signature[:-1] + bytes([signature[-1] ^ 1])
        assert not es256.verify(public, b"message", flipped)
        """
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# RFC 6979, appendix A.2.5: the P-256 key and the SHA-256 signatures with the
# listed k. These check the signer against published values, not OpenSSL.
RFC6979_PRIVATE = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_PUBLIC = (
    "04"
    "60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"
    "7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299"
)
RFC6979_SIGNATURES = [
    (
        b"sample",
        0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    (
        b"test",
        0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0,
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
]


class FixedK:
    """An RNG stand-in whose every draw is the given k."""

    def __init__(self, k: int):
        self.k = k

    def randrange(self, start: int, stop: int) -> int:
        assert start <= self.k < stop
        return self.k


def test_rfc6979_public_key():
    assert es256.public_key_bytes(RFC6979_PRIVATE).hex().upper() == RFC6979_PUBLIC


@pytest.mark.parametrize("message,k,r,s", RFC6979_SIGNATURES)
def test_rfc6979_signature(message, k, r, s):
    signature = es256.sign(RFC6979_PRIVATE, message, FixedK(k))
    assert signature == es256.der_signature(r, s)


# Frozen bytes of the signer: a changed byte for a fixed seed is a regression
# even when OpenSSL still accepts the new output.
FROZEN_PUBLIC_KEYS = {
    1: "04696d724d9ca18306d21e5849dd0b45cdbdad0a5878e8ee1f9679d49d1b524d54"
    "bfc64470f942da1519a5fb5dc6ad02f74ef14871c50069c912356f661336fac7",
    7: "0414b8a2c95626f164e38703bd976b200e0650503e4b701ecbf29f96abf786d31f"
    "9b978f67b1ea482736e63b98c445745a521135bf468d6d0c168ef66a4163f46f",
    2025: "045ed744806412e4fd47432424c64c631c445f7890326e6986ab5c648d70728f2d"
    "519dbf3bd86e9c26ed29da7519fcfb9715cd80193d5c7acbcf3ade5baf156812",
}

FROZEN_SIGNATURES = [
    (
        3,
        b"webauthn",
        "304502206d2721ffffa3d7a489944b455753af22cd3c1bfdb4c5851a8b90ada6bca969e6"
        "022100fb433900380cf52aea3e2a187b49b5b5d0ef3947ee591a651d2fd9c9f368c1a8",
    ),
    (
        11,
        b"",
        "3044022061a3fb03b5d645cf2294481c41f334a670f1cf3815052e02c6ee5cf803692eeb"
        "02204d2ce97e050819f695eed82a01b42bf30cb42a7fd01dc5039c9ae965f7a3c9c3",
    ),
    (
        42,
        b"\x00" * 37 + b"clientDataJSON",
        "3045022065c06930a60443dc65205bf7d0d6947e6be07df42d2767d47518a5fdb059e1fb"
        "022100ad4cb1c643d3327330d0e964f573e836abd81b4a130c3c73f6992dfc6ef9c106",
    ),
]


@pytest.mark.parametrize("seed", sorted(FROZEN_PUBLIC_KEYS))
def test_public_key_frozen_bytes(seed):
    private = es256.generate_private_key(Random(seed))
    assert es256.public_key_bytes(private).hex() == FROZEN_PUBLIC_KEYS[seed]


@pytest.mark.parametrize("seed,message,expected", FROZEN_SIGNATURES)
def test_signature_frozen_bytes(seed, message, expected):
    rng = Random(seed)
    private = es256.generate_private_key(rng)
    assert es256.sign(private, message, rng).hex() == expected


@given(st.integers(min_value=0, max_value=2**32), st.binary(min_size=1, max_size=64))
@settings(max_examples=20, deadline=None)
def test_our_signature_verifies_under_openssl(seed, message):
    rng = Random(seed)
    private = es256.generate_private_key(rng)
    signature = es256.sign(private, message, rng)
    key = ec.derive_private_key(private, ec.SECP256R1()).public_key()
    key.verify(signature, message, ec.ECDSA(hashes.SHA256()))  # raises if invalid


def test_openssl_signature_verifies_under_our_checker():
    private = ec.generate_private_key(ec.SECP256R1())
    message = b"cross-implementation check"
    signature = private.sign(message, ec.ECDSA(hashes.SHA256()))
    numbers = private.public_key().public_numbers()
    public = b"\x04" + numbers.x.to_bytes(32, "big") + numbers.y.to_bytes(32, "big")
    assert es256.verify(public, message, signature) is True
    assert es256.verify(public, message + b"!", signature) is False


def test_tampered_signature_rejected():
    rng = Random(3)
    private = es256.generate_private_key(rng)
    public = es256.public_key_bytes(private)
    message = b"payload"
    signature = es256.sign(private, message, rng)
    assert es256.verify(public, message, signature) is True
    r, s = decode_dss_signature(signature)
    assert es256.verify(public, message, encode_dss_signature(r, s ^ 1)) is False


def test_der_encoding_matches_cryptography():
    for r, s in [(1, 1), (2**255, 2**200 + 17), (0x80, 0x7F)]:
        assert es256.der_signature(r, s) == encode_dss_signature(r, s)


def test_signature_deterministic_per_seed():
    message = b"same message"
    sigs = []
    for _ in range(2):
        rng = Random(99)
        private = es256.generate_private_key(rng)
        sigs.append(es256.sign(private, message, rng))
    assert sigs[0] == sigs[1]


def test_verify_rejects_malformed_key_or_der():
    assert es256.verify(b"\x04" + b"\x00" * 64, b"m", b"\x30\x00") is False
    assert es256.verify(b"not a key", b"m", b"\x30\x00") is False


# ---------------------------------------------------------------------------
# payload serialization
# ---------------------------------------------------------------------------


def auth_request(rng=None) -> Fido2Request:
    rng = rng or Random(5)
    return Fido2Request(AUTHENTICATION, rng.randbytes(CHALLENGE_LEN), RP_ID)


def reg_request(rng=None) -> Fido2Request:
    rng = rng or Random(5)
    return Fido2Request(
        REGISTRATION, rng.randbytes(CHALLENGE_LEN), RP_ID, user_id=b"u" * 8, user_name="alice"
    )


def test_request_json_round_trip():
    for request in (auth_request(), reg_request()):
        assert Fido2Request.from_json(request.to_json()) == request


def test_request_json_is_canonical():
    text = reg_request().to_json()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "attest"},
        {"challenge": b"short"},
        {"algorithm": "RS256"},
    ],
)
def test_request_validation(kwargs):
    base = dict(kind=AUTHENTICATION, challenge=b"c" * CHALLENGE_LEN, rp_id=RP_ID)
    with pytest.raises(MalformedPayload):
        Fido2Request(**{**base, **kwargs})


def test_registration_request_requires_user():
    with pytest.raises(MalformedPayload):
        Fido2Request(REGISTRATION, b"c" * CHALLENGE_LEN, RP_ID)


def test_rp_id_hash_is_sha256_of_rp_id():
    assert auth_request().rp_id_hash() == RP_HASH


def test_response_json_round_trip():
    rng = Random(6)
    for kind in (REGISTRATION, AUTHENTICATION):
        dummy = make_dummy_response(kind, rng)
        assert response_from_json(dummy.to_json()) == dummy


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1,2]",
        '{"type":"pkcs7"}',
        '{"type":"assertion","credential_id":"!!","rp_id_hash":"","counter":0,"challenge":"","signature":""}',
        '{"type":"attestation"}',
    ],
)
def test_response_from_json_malformed(text):
    with pytest.raises(MalformedPayload):
        response_from_json(text)


def test_signed_payload_layouts_frozen():
    rp_hash = bytes(range(32))
    challenge = bytes(range(32, 64))
    public = b"\x04" + bytes(64)
    attestation = AttestationObject(
        credential_id=b"i" * CREDENTIAL_ID_LEN,
        public_key=public,
        rp_id_hash=rp_hash,
        counter=258,
        challenge=challenge,
        signature=b"\x00",
    )
    assert attestation.signed_payload() == rp_hash + b"\x00\x00\x01\x02" + challenge + public
    assertion = AssertionResponse(
        credential_id=b"i" * CREDENTIAL_ID_LEN,
        rp_id_hash=rp_hash,
        counter=1,
        challenge=challenge,
        signature=b"\x00",
    )
    assert assertion.signed_payload() == rp_hash + b"\x00\x00\x00\x01" + challenge


def test_counter_range_validation():
    with pytest.raises(MalformedPayload):
        AssertionResponse(
            credential_id=b"i" * CREDENTIAL_ID_LEN,
            rp_id_hash=b"\x00" * 32,
            counter=2**32,
            challenge=b"c" * CHALLENGE_LEN,
            signature=b"s",
        )


# ---------------------------------------------------------------------------
# dummies: parse fine, verify never
# ---------------------------------------------------------------------------


def test_dummy_request_is_structurally_valid_but_fresh():
    rng = Random(8)
    dummy = make_dummy_request(AUTHENTICATION, RP_ID, rng)
    assert Fido2Request.from_json(dummy.to_json()) == dummy
    assert dummy.rp_id == RP_ID


def test_dummy_response_signature_never_verifies():
    rng = Random(8)
    dummy = make_dummy_response(REGISTRATION, rng)
    assert es256.verify(dummy.public_key, dummy.signed_payload(), dummy.signature) is False


# ---------------------------------------------------------------------------
# authenticator device
# ---------------------------------------------------------------------------


def test_make_credential_signs_verifiably():
    device = AuthenticatorDevice("key-1", Random(10))
    attestation = device.make_credential(reg_request())
    assert attestation.rp_id_hash == RP_HASH
    assert attestation.counter == 0
    assert es256.verify(attestation.public_key, attestation.signed_payload(), attestation.signature)
    assert device.prompts == ["register as 'alice' at sso.example"]


def test_get_assertion_increments_counter():
    rng = Random(10)
    device = AuthenticatorDevice("key-1", rng)
    attestation = device.make_credential(reg_request(rng))
    first = device.get_assertion(auth_request(Random(1)))
    second = device.get_assertion(auth_request(Random(2)))
    assert (first.counter, second.counter) == (1, 2)
    assert first.credential_id == attestation.credential_id
    assert "sign in as 'alice' at sso.example" in device.prompts


def test_get_assertion_without_credential():
    with pytest.raises(NoCredential):
        AuthenticatorDevice("empty", Random(1)).get_assertion(auth_request())


def test_kind_mismatch_rejected_by_device():
    device = AuthenticatorDevice("key-1", Random(1))
    with pytest.raises(MalformedPayload):
        device.make_credential(auth_request())
    with pytest.raises(MalformedPayload):
        device.get_assertion(reg_request())


def test_clone_copies_keys_and_counters():
    rng = Random(10)
    device = AuthenticatorDevice("orig", rng)
    device.make_credential(reg_request(rng))
    device.get_assertion(auth_request(Random(1)))
    twin = device.clone("twin", Random(77))
    assertion = twin.get_assertion(auth_request(Random(2)))
    assert assertion.counter == 2  # counter state travels with the clone
    (credential_id,) = device.credentials
    assert twin.credentials[credential_id].private_key == device.credentials[credential_id].private_key


def test_witness_hook_collects_real_payloads():
    device = AuthenticatorDevice("key-1", Random(10))
    device.witness = []
    attestation = device.make_credential(reg_request())
    assert attestation.to_json() in device.witness


# ---------------------------------------------------------------------------
# secure store
# ---------------------------------------------------------------------------


def defended_begin_response(rp: RelyingParty, kind=AUTHENTICATION, request_id=1):
    return rp.begin(kind, "alice", request_id)


def test_strip_and_store_removes_channel_headers():
    rp = RelyingParty(ORIGIN, Random(20))
    store = SecureStore(Random(21))
    response = rp.begin(AUTHENTICATION, "alice", 1)
    assert response.header(HEADER_REQUEST) is not None
    stripped, did_strip = store.strip_and_store(response, "session-1")
    assert did_strip is True
    for name in (HEADER_REQUEST, HEADER_REQUEST_SHORT, HEADER_URL_RESP):
        assert stripped.header(name) is None
    entry = store.pending("session-1")
    assert entry is not None
    assert entry.url_resp == f"{ORIGIN}/webauthn/finish"


def test_strip_accepts_short_header_form():
    real = auth_request()
    response = WebResponseRecord(
        1,
        200,
        headers=((HEADER_REQUEST_SHORT, real.to_json()), (HEADER_URL_RESP, "https://x/f")),
    )
    stripped, did_strip = SecureStore(Random(1)).strip_and_store(response, "s")
    assert did_strip is True
    assert stripped.header(HEADER_REQUEST_SHORT) is None


def test_strip_lone_header_is_malformed():
    store = SecureStore(Random(1))
    only_request = WebResponseRecord(1, 200, headers=((HEADER_REQUEST, auth_request().to_json()),))
    with pytest.raises(MalformedHeader):
        store.strip_and_store(only_request, "s")
    only_url = WebResponseRecord(1, 200, headers=((HEADER_URL_RESP, "https://x/f"),))
    with pytest.raises(MalformedHeader):
        store.strip_and_store(only_url, "s")


def test_strip_unparseable_request_header_is_malformed():
    response = WebResponseRecord(
        1, 200, headers=((HEADER_REQUEST, "{broken"), (HEADER_URL_RESP, "https://x/f"))
    )
    with pytest.raises(MalformedHeader):
        SecureStore(Random(1)).strip_and_store(response, "s")


def test_strip_without_channel_headers_is_passthrough():
    response = WebResponseRecord(1, 200, headers=(("Content-Type", "text/html"),))
    stripped, did_strip = SecureStore(Random(1)).strip_and_store(response, "s")
    assert did_strip is False
    assert stripped is response


def test_call_with_pending_entry_ignores_page_payload():
    rp = RelyingParty(ORIGIN, Random(20))
    store = SecureStore(Random(21))
    device = AuthenticatorDevice("key-1", Random(22))
    device.make_credential(reg_request(Random(23)))

    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 1), "s")
    real_challenge = store._by_session["s"].real_request.challenge

    attacker_payload = make_dummy_request(AUTHENTICATION, RP_ID, Random(99)).to_json()
    page_result = store.call("s", device, attacker_payload)

    returned = response_from_json(page_result)
    assert returned.challenge != real_challenge  # page got a dummy
    parked = response_from_json(store._by_session["s"].real_response)
    assert parked.challenge == real_challenge  # device signed the real one
    # exactly one consent prompt: the real request, not the attacker payload
    assert len(device.prompts) == 2  # register + the one sign-in


def test_call_without_entry_is_legacy_passthrough():
    store = SecureStore(Random(1))
    device = AuthenticatorDevice("key-1", Random(2))
    request = reg_request()
    result = store.call("s", device, request.to_json())
    attestation = response_from_json(result)
    assert attestation.challenge == request.challenge  # page payload honored
    assert es256.verify(attestation.public_key, attestation.signed_payload(), attestation.signature)


def test_browser_webauthn_surface_delegates_to_store():
    store = SecureStore(Random(1))
    device = AuthenticatorDevice("key-1", Random(2))
    surface = BrowserWebAuthn("s", store, device)
    attestation = response_from_json(surface.create(reg_request().to_json()))
    assertion = response_from_json(surface.get(auth_request().to_json()))
    assert attestation.credential_id == assertion.credential_id


def finish_request(
    url: str, *, headers=(), body=None, request_id=9, source_page=None
) -> WebRequestRecord:
    return WebRequestRecord(
        request_id, "POST", Url.parse(url), headers=tuple(headers), body=body,
        source_page=source_page,
    )


def test_inject_appends_header_on_exact_url_match():
    rp = RelyingParty(ORIGIN, Random(20))
    store = SecureStore(Random(21))
    device = AuthenticatorDevice("key-1", Random(22))
    device.make_credential(reg_request(Random(23)))
    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 1), "page-1")
    store.call("page-1", device, "{}")

    class SourcePage:
        page_id = "page-1"

    wrong_url = finish_request("https://sso.example/other", source_page=SourcePage())
    assert store.inject(wrong_url) is None

    match = finish_request(f"{ORIGIN}/webauthn/finish", source_page=SourcePage())
    injected = store.inject(match)
    assert injected is not None
    assert injected.header(HEADER_RESPONSE) is not None
    # single use: a second matching request gets nothing
    again = finish_request(f"{ORIGIN}/webauthn/finish", source_page=SourcePage())
    assert store.inject(again) is None


def test_inject_ignores_requests_without_source_page():
    store = SecureStore(Random(1))
    assert store.inject(finish_request("https://sso.example/webauthn/finish")) is None


# ---------------------------------------------------------------------------
# relying party
# ---------------------------------------------------------------------------


def test_begin_defended_headers_carry_real_body_carries_dummy():
    rp = RelyingParty(ORIGIN, Random(30))
    response = rp.begin(AUTHENTICATION, "alice", 1)
    real = Fido2Request.from_json(response.header(HEADER_REQUEST))
    body = Fido2Request.from_json(response.body.decode())
    assert real.challenge != body.challenge
    assert response.header(HEADER_URL_RESP) == f"{ORIGIN}/webauthn/finish"
    # only the real challenge is outstanding
    real_b64 = base64.urlsafe_b64encode(real.challenge).decode()
    body_b64 = base64.urlsafe_b64encode(body.challenge).decode()
    assert real_b64 in rp.outstanding
    assert body_b64 not in rp.outstanding


def test_begin_legacy_puts_real_request_in_body():
    rp = RelyingParty(ORIGIN, Random(30), defense_enabled=False)
    response = rp.begin(REGISTRATION, "alice", 1)
    assert response.headers == ()
    body = Fido2Request.from_json(response.body.decode())
    assert base64.urlsafe_b64encode(body.challenge).decode() in rp.outstanding


def test_begin_unknown_kind():
    with pytest.raises(MalformedPayload):
        RelyingParty(ORIGIN, Random(1)).begin("attest", "alice", 1)


def honest_registration(rp: RelyingParty, device: AuthenticatorDevice):
    begin = rp.begin(REGISTRATION, "alice", 1)
    real = Fido2Request.from_json(
        begin.header(HEADER_REQUEST) if rp.defense_enabled else begin.body.decode()
    )
    return device.make_credential(real)


def test_finish_header_takes_precedence_over_body():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    attestation = honest_registration(rp, device)
    decoy = make_dummy_response(REGISTRATION, Random(1))
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, attestation.to_json()),),
        body=RequestBody.urlencoded((("webauthn", decoy.to_json()),)),
    )
    result = rp.finish(request)
    assert result.accepted is True
    assert result.username == "alice"


def test_finish_reads_webauthn_body_entry():
    rp = RelyingParty(ORIGIN, Random(30), defense_enabled=False)
    device = AuthenticatorDevice("key-1", Random(31))
    attestation = honest_registration(rp, device)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        body=RequestBody.urlencoded((("webauthn", attestation.to_json()),)),
    )
    assert rp.finish(request).accepted is True


def test_finish_rejections():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))

    # no payload anywhere
    assert rp.finish(finish_request(f"{ORIGIN}/webauthn/finish")).reason == "malformed"

    # unparseable body
    bad = finish_request(
        f"{ORIGIN}/webauthn/finish", body=RequestBody.urlencoded((("webauthn", "{nope"),))
    )
    assert rp.finish(bad).reason == "malformed"

    # structurally fine but unknown challenge
    stray = make_dummy_response(REGISTRATION, Random(2))
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, stray.to_json()),)
    )
    assert rp.finish(request).reason == "challenge_mismatch"


def test_finish_kind_must_match_challenge_kind():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    device.make_credential(reg_request(Random(32)))
    begin = rp.begin(AUTHENTICATION, "alice", 1)
    real = Fido2Request.from_json(begin.header(HEADER_REQUEST))
    # answer the authentication challenge with a registration response
    attestation = device.make_credential(
        Fido2Request(REGISTRATION, real.challenge, RP_ID, user_id=b"u" * 8, user_name="alice")
    )
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, attestation.to_json()),)
    )
    assert rp.finish(request).reason == "challenge_mismatch"


def test_finish_bad_signature_detected():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    attestation = honest_registration(rp, device)
    tampered = json.loads(attestation.to_json())
    tampered["counter"] = 7  # signature no longer covers the payload
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, json.dumps(tampered)),),
    )
    assert rp.finish(request).reason == "bad_signature"


def test_finish_unknown_credential():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    # register, then answer a fresh auth challenge with a different device
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, honest_registration(rp, device).to_json()),),
    )
    assert rp.finish(request).accepted is True

    stranger = AuthenticatorDevice("other", Random(40))
    stranger.make_credential(reg_request(Random(41)))
    begin = rp.begin(AUTHENTICATION, "alice", 2)
    real = Fido2Request.from_json(begin.header(HEADER_REQUEST))
    assertion = stranger.get_assertion(real)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, assertion.to_json()),)
    )
    assert rp.finish(request).reason == "unknown_credential"


def test_finish_counter_replay_rejected():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    finish = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, honest_registration(rp, device).to_json()),),
    )
    assert rp.finish(finish).accepted is True

    clone = device.clone("twin", Random(50))  # stale counter snapshot

    # the genuine device authenticates once (counter 1 now recorded)
    begin = rp.begin(AUTHENTICATION, "alice", 2)
    real = Fido2Request.from_json(begin.header(HEADER_REQUEST))
    ok = rp.finish(
        finish_request(
            f"{ORIGIN}/webauthn/finish",
            headers=((HEADER_RESPONSE, device.get_assertion(real).to_json()),),
        )
    )
    assert ok.accepted is True

    # the clone answers a fresh challenge but can only reach counter 1 again
    begin = rp.begin(AUTHENTICATION, "alice", 3)
    real = Fido2Request.from_json(begin.header(HEADER_REQUEST))
    replay = rp.finish(
        finish_request(
            f"{ORIGIN}/webauthn/finish",
            headers=((HEADER_RESPONSE, clone.get_assertion(real).to_json()),),
        )
    )
    assert (replay.accepted, replay.reason) == (False, "counter_replay")


def test_challenge_is_single_use():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    attestation = honest_registration(rp, device)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, attestation.to_json()),)
    )
    assert rp.finish(request).accepted is True
    assert rp.finish(request).reason == "challenge_mismatch"  # challenge consumed


def test_rp_log_never_contains_payloads():
    rp = RelyingParty(ORIGIN, Random(30))
    device = AuthenticatorDevice("key-1", Random(31))
    attestation = honest_registration(rp, device)
    rp.finish(
        finish_request(
            f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, attestation.to_json()),)
        )
    )
    text = "\n".join(rp.log)
    assert attestation.to_json() not in text
    challenge_b64 = base64.urlsafe_b64encode(attestation.challenge).decode().rstrip("=")
    assert challenge_b64 not in text  # only an 8-char prefix tag appears


def test_rp_witness_hook_records_begin_payloads():
    rp = RelyingParty(ORIGIN, Random(30))
    rp.witness = []
    response = rp.begin(AUTHENTICATION, "alice", 1)
    real_json = response.header(HEADER_REQUEST)
    assert real_json in rp.witness


# ---------------------------------------------------------------------------
# end-to-end: store + RP, both channel modes
# ---------------------------------------------------------------------------


def channel_login(defense: bool) -> tuple[RelyingParty, bool]:
    rp = RelyingParty(ORIGIN, Random(60), defense_enabled=defense)
    store = SecureStore(Random(61))
    device = AuthenticatorDevice("key-1", Random(62))

    class SourcePage:
        page_id = "page-1"

    def run(kind: str, request_id: int) -> bool:
        begin = rp.begin(kind, "alice", request_id)
        if defense:
            stripped, _ = store.strip_and_store(begin, "page-1")
            page_payload = stripped.body.decode()  # the dummy
            page_result = store.call("page-1", device, page_payload)
            request = finish_request(
                f"{ORIGIN}/webauthn/finish", request_id=request_id, source_page=SourcePage()
            )
            request = store.inject(request)
            assert request is not None
        else:
            real = Fido2Request.from_json(begin.body.decode())
            response = store.call("page-1", device, real.to_json())
            request = finish_request(
                f"{ORIGIN}/webauthn/finish",
                body=RequestBody.urlencoded((("webauthn", response),)),
                request_id=request_id,
            )
        return rp.finish(request).accepted

    assert run(REGISTRATION, 1) is True
    assert run(AUTHENTICATION, 2) is True
    return rp, True


@pytest.mark.parametrize("defense", [True, False])
def test_honest_flow_succeeds_in_both_channel_modes(defense):
    channel_login(defense)
