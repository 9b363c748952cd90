"""FIDO2 channel: ES256 against OpenSSL and a pure-Python k·G, payloads, store, RP."""

import base64
import hashlib
import json
import subprocess
import sys
import textwrap

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
from noncepipe.rng import substream

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
    private = es256.generate_private_key(substream(11))
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
        from noncepipe.rng import substream

        def loaded():
            return [m for m in sys.modules if m.split(".")[0] == "cryptography"]

        import noncepipe.cli as cli
        assert not loaded(), loaded()
        assert cli.main({matrix!r}) == 0
        assert not loaded(), loaded()
        assert cli.main({compat!r}) == 0
        assert not loaded(), loaded()

        from noncepipe import es256
        key = es256.generate_private_key(substream(1))
        public = es256.public_key_bytes(key)
        signature = es256.sign(key, b"message", substream(2))
        assert es256.verify(public, b"message", signature)
        assert "cryptography" in loaded(), loaded()
        flipped = signature[:-1] + bytes([signature[-1] ^ 1])
        assert not es256.verify(public, b"message", flipped)
        """
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_fido2_runs_never_load_the_openssl_backend_module(tmp_path):
    # every check hands OpenSSL an ECDSA object built without the backend
    # module; a release whose key derivation loads that module skips
    demo = ["fido2-demo", "--seed", "7", "--replay", "--out", str(tmp_path / "f")]
    code = textwrap.dedent(
        f"""
        import sys
        from noncepipe.rng import substream
        from cryptography.hazmat.primitives.asymmetric import ec

        def loaded():
            return [m for m in sys.modules if m.startswith("cryptography.hazmat.backends")]

        ec.derive_private_key(1, ec.SECP256R1())
        if loaded():
            sys.exit(77)

        import noncepipe.cli as cli
        from noncepipe import es256
        key = es256.generate_private_key(substream(1))
        public = es256.public_key_bytes(key)
        signature = es256.sign(key, b"message", substream(2))
        assert es256.verify(public, b"message", signature)
        flipped = signature[:-1] + bytes([signature[-1] ^ 1])
        assert not es256.verify(public, b"message", flipped)
        assert cli.main({demo!r}) == 0
        assert not loaded(), loaded()
        """
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if result.returncode == 77:
        pytest.skip("this cryptography derives keys through its backend module")
    assert result.returncode == 0, result.stderr


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
    """A stream stand-in whose every scalar draw is the given k."""

    def __init__(self, k: int):
        self.k = k

    def randbelow(self, n: int) -> int:
        assert 0 <= self.k - 1 < n
        return self.k - 1


def test_rfc6979_public_key():
    assert es256.public_key_bytes(RFC6979_PRIVATE).hex().upper() == RFC6979_PUBLIC


@pytest.mark.parametrize("message,k,r,s", RFC6979_SIGNATURES)
def test_rfc6979_signature(message, k, r, s):
    signature = es256.sign(RFC6979_PRIVATE, message, FixedK(k))
    assert signature == es256.der_signature(r, s)


# Frozen bytes of the signer: a changed byte for a fixed seed is a regression
# even when OpenSSL still accepts the new output.
FROZEN_PUBLIC_KEYS = {
    1: "04c8a142c3ae3139f2af026d92d48c84c46201092157a3549ecb8cfcc35e6283e3"
    "fd8262ddc049bd0244ef17f465503e02d254aacfb0311b9246d8b13cc0b60c3d",
    7: "04b5425a22375ef09b6db7c92e11faaaf77342a10204468e8ca1cebb6056eb2ac6"
    "5f1e82748a6179a4966334c62c004d58638a5c9e71a29eb94442b4981190b9d4",
    2025: "04e38211e5e9896411107b0b1ebddaa8515e1beeed0886f74112228f6329f6e6eb"
    "d824d9b5c2d296bc7b0b71aaa1bfb987dc58879b344959db1bf35ee3dc82ff69",
}

FROZEN_SIGNATURES = [
    (
        3,
        b"webauthn",
        "3044022010a0fa84b66a7fbc3b12bd1d0292169fa63d695d779bf688707fafaf586a3952"
        "0220119752526e7720d5d740dd9aeb28b19f6f999107edc8b77f307d09a39912e2da",
    ),
    (
        11,
        b"",
        "3045022100d5fa901224d18e8c4bde5357a18c96503ed452bc80d1278cce99159f07270993"
        "022078c932655d139faece6fba006edd668d19ce94ffe99b08e895902a7968fea0b2",
    ),
    (
        42,
        b"\x00" * 37 + b"clientDataJSON",
        "304402206fc70c0d6cd8f0e4b47f51722564250878d502d65f5cd6d35ec37045006ece3d"
        "02200b6c9384415984c38292def18de23eb062f6630488381e28f82604c4c0ebfaa5",
    ),
]


@pytest.mark.parametrize("seed", sorted(FROZEN_PUBLIC_KEYS))
def test_public_key_frozen_bytes(seed):
    private = es256.generate_private_key(substream(seed))
    assert es256.public_key_bytes(private).hex() == FROZEN_PUBLIC_KEYS[seed]


@pytest.mark.parametrize("seed,message,expected", FROZEN_SIGNATURES)
def test_signature_frozen_bytes(seed, message, expected):
    rng = substream(seed)
    private = es256.generate_private_key(rng)
    assert es256.sign(private, message, rng).hex() == expected


@given(st.integers(min_value=0, max_value=2**32), st.binary(min_size=1, max_size=64))
@settings(max_examples=20, deadline=None)
def test_our_signature_verifies_under_openssl(seed, message):
    rng = substream(seed)
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


def test_verify_hands_openssl_sha256():
    # OpenSSL's own signer: the SHA-256 signature verifies, the same key's
    # SHA-384 signature over the same message does not
    private = ec.derive_private_key(RFC6979_PRIVATE, ec.SECP256R1())
    public = es256.public_key_bytes(RFC6979_PRIVATE)
    message = b"sample"
    assert es256.verify(public, message, private.sign(message, ec.ECDSA(hashes.SHA256())))
    assert not es256.verify(public, message, private.sign(message, ec.ECDSA(hashes.SHA384())))


def test_tampered_signature_rejected():
    rng = substream(3)
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
        rng = substream(99)
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
    rng = rng or substream(5)
    return Fido2Request(AUTHENTICATION, rng.randbytes(CHALLENGE_LEN), RP_ID)


def reg_request(rng=None) -> Fido2Request:
    rng = rng or substream(5)
    return Fido2Request(
        REGISTRATION, rng.randbytes(CHALLENGE_LEN), RP_ID, user_id=b"u" * 8, user_name="alice"
    )


def auth_request_with_user() -> Fido2Request:
    return reg_request()._replace(kind=AUTHENTICATION)


def test_request_json_round_trip():
    for request in (auth_request(), reg_request(), auth_request_with_user()):
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


@pytest.mark.parametrize(
    "user", [{"user_id": b"abc"}, {"user_name": "bob"}], ids=["id_only", "name_only"]
)
def test_half_a_request_user_is_refused(user):
    # to_json would write the missing half as null, or drop the name
    with pytest.raises(MalformedPayload, match="both an id and a name"):
        Fido2Request(AUTHENTICATION, b"x" * CHALLENGE_LEN, RP_ID, **user)


def test_rp_id_hash_is_sha256_of_rp_id():
    assert auth_request().rp_id_hash() == RP_HASH


def test_response_json_round_trip():
    rng = substream(6)
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


def test_response_json_frozen_bytes():
    # the wire bytes of both response kinds, and the device's draw order
    # (private key, credential id, then k)
    def digest(response) -> str:
        return hashlib.sha256(response.to_json().encode("utf-8")).hexdigest()

    assert digest(make_dummy_response(REGISTRATION, substream(6))) == (
        "461c36dbb8ada857e4eb38a8d766c8634e2f885688fd69cfde7b281e0df32e76"
    )
    assert digest(make_dummy_response(AUTHENTICATION, substream(6))) == (
        "8baf94f5a565102ebb5aef5e7ba4bb683944b7deb48442519e8e21a4d41ea2b3"
    )
    device = AuthenticatorDevice("key-1", substream(10))
    assert digest(device.make_credential(reg_request())) == (
        "99983598d3cefdd95f796808a85b2805442823eb6b170b4fd00d7080b5ef9318"
    )
    assert digest(device.get_assertion(auth_request())) == (
        "7202c7418db68f9b6417f12d25f094426c2df479e063896c8f67af455a9ca9e0"
    )
    assert make_dummy_response(AUTHENTICATION, substream(6)).to_json() == (
        '{"challenge":"Vuxskl97Vh8JeW91SgZ7Zm_l2gVZWxxwexqTSmDSpXo=","counter":17298,'
        '"credential_id":"yOpgErZR8bYbFCFYaZFT3w==",'
        '"rp_id_hash":"aauOr1doUWz2xdNXveQHO2BRXZgwznusH6NklAeKd0g=",'
        '"signature":"MEUCIQDrBrlKRYRVlngRNDCKsSv9CGrnaw3FtGT1hJVtBqkksgIgfYcYQ91nCibnpFZ96htCzAqG'
        'mFu_NhL20RZCNeH39og=","type":"assertion"}'
    )


def _attestation_fields(**changes) -> str:
    fields = json.loads(make_dummy_response(REGISTRATION, substream(6)).to_json())
    fields.update(changes)
    return json.dumps({k: v for k, v in fields.items() if v is not None})


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "unknown response type None"),
        ('{"type":["assertion"]}', "unknown response type ['assertion']"),
        ('{"type":"pkcs7"}', "unknown response type 'pkcs7'"),
        ('{"type":"attestation"}', "response payload malformed: 'credential_id'"),
        # the first missing field in the record's field order is named
        (_attestation_fields(public_key=None, counter=None), "response payload malformed: 'public_key'"),
        (_attestation_fields(type="assertion", signature=None), "response payload malformed: 'signature'"),
        (_attestation_fields(counter="x"), "counter is not a JSON integer"),
        ('{"type":"assertion","credential_id":"A"}', "bad base64url field: "),
        (_attestation_fields(counter=2**32), "counter out of range: 4294967296"),
    ],
)
def test_response_from_json_error_messages(text, message):
    with pytest.raises(MalformedPayload) as raised:
        response_from_json(text)
    assert str(raised.value).startswith(message)


def test_response_type_tag_picks_the_fields_read():
    # an attestation relabelled as an assertion reads the assertion fields,
    # and its public_key is then a key that an assertion never writes
    unexpected = r"assertion payload has unexpected keys \['public_key'\]"
    with pytest.raises(MalformedPayload, match=unexpected):
        response_from_json(_attestation_fields(type="assertion"))
    # the same fields tagged as what they are parse
    assert type(response_from_json(_attestation_fields())) is AttestationObject


def _assertion_fields(**changes) -> dict:
    fields = json.loads(make_dummy_response(AUTHENTICATION, substream(6)).to_json())
    return {**fields, **changes}


_CREDENTIAL_ID = _assertion_fields()["credential_id"]


@pytest.mark.parametrize(
    "changes",
    [
        {"counter": 17298.9},
        {"counter": "17298"},
        {"counter": True},
        {"credential_id": "!" + _CREDENTIAL_ID},
        {"credential_id": _CREDENTIAL_ID[:8] + "\n" + _CREDENTIAL_ID[8:]},
        {"credential_id": [_CREDENTIAL_ID]},
        {"extra": 1},
    ],
    ids=["float_counter", "string_counter", "bool_counter", "bang", "newline", "list", "extra_key"],
)
def test_response_that_does_not_re_encode_is_malformed(changes):
    # each once parsed as the substream(6) dummy assertion (counter 17298)
    text = json.dumps(_assertion_fields(**changes))
    with pytest.raises(MalformedPayload):
        response_from_json(text)
    rp = RelyingParty(ORIGIN, substream(30))
    result = rp.finish(finish_request(f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, text),)))
    assert result.reason == "malformed"


@pytest.mark.parametrize(
    "changes",
    [
        {"challenge": "!" + json.loads(auth_request().to_json())["challenge"]},
        {"rp_id": 5},
        {"user": {"id": ["dXNlcg=="], "name": "alice"}},
        {"user": {"id": "dXNlcg==", "name": 5}},
        {"user": None},
        {"extra": 1},
        {"user": {"id": "dXNlcg==", "name": "alice", "display": "Alice"}},
    ],
    ids=[
        "bang_challenge", "number_rp_id", "list_user_id", "number_user_name", "null_user",
        "extra_key", "extra_user_key",
    ],
)
def test_request_that_does_not_re_encode_is_malformed(changes):
    # each once parsed as an authentication request
    text = json.dumps({**json.loads(auth_request().to_json()), **changes})
    with pytest.raises(MalformedPayload):
        Fido2Request.from_json(text)


def test_request_without_algorithm_is_malformed():
    # to_json always writes the algorithm, so no payload without it re-encodes to itself
    payload = json.loads(auth_request().to_json())
    del payload["algorithm"]
    with pytest.raises(MalformedPayload, match="request payload missing field: 'algorithm'"):
        Fido2Request.from_json(json.dumps(payload))


_WIRE_TEXT = st.one_of(
    st.text(alphabet="AQgw-_+/=!\n", max_size=48),
    # base64url of the lengths the codec's bytes fields take
    st.sampled_from([8, CREDENTIAL_ID_LEN, CHALLENGE_LEN, 65, 71])
    .flatmap(lambda size: st.binary(min_size=size, max_size=size))
    .map(lambda raw: base64.urlsafe_b64encode(raw).decode()),
)


def _wire_values(valid):
    """Another JSON value for a codec field: of the field's own JSON type,
    the valid value in a list, or any other scalar."""
    own = st.integers(min_value=-2, max_value=2**33) if isinstance(valid, int) else _WIRE_TEXT
    scalars = st.one_of(
        st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
        st.integers(), _WIRE_TEXT,
    )
    return st.one_of(own, st.lists(st.just(valid), min_size=1, max_size=2), scalars)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _edit(data, record: dict, fixed: frozenset = frozenset()) -> None:
    """Change one value of `record`, add a key to it, or drop one of its
    keys; `fixed` keys are left as they are."""
    names = sorted(set(record) - fixed)
    edit = data.draw(st.sampled_from(["change", "add", "drop"]), label="edit")
    if edit == "change":
        name = data.draw(st.sampled_from(names), label="changed")
        record[name] = data.draw(_wire_values(record[name]), label=name)
    elif edit == "add":
        name = data.draw(st.text(max_size=10).filter(lambda n: n not in record), label="added")
        record[name] = data.draw(_wire_values(""), label=name)
    else:
        del record[data.draw(st.sampled_from(names), label="dropped")]


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_every_accepted_response_re_encodes_to_itself(data):
    kind = data.draw(st.sampled_from([REGISTRATION, AUTHENTICATION]))
    payload = json.loads(make_dummy_response(kind, substream(6)).to_json())
    _edit(data, payload, fixed=frozenset({"type"}))
    try:
        parsed = response_from_json(json.dumps(payload))
    except MalformedPayload:
        return
    assert parsed.to_json() == _canonical(payload)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_every_accepted_request_re_encodes_to_itself(data):
    # an edit of the payload itself (which may drop "algorithm") or of its user
    requests = [reg_request(), auth_request(), auth_request_with_user()]
    payload = json.loads(data.draw(st.sampled_from(requests)).to_json())
    records = [payload] + ([payload["user"]] if "user" in payload else [])
    _edit(data, data.draw(st.sampled_from(records), label="record"))
    try:
        parsed = Fido2Request.from_json(json.dumps(payload))
    except MalformedPayload:
        return
    assert parsed.to_json() == _canonical(payload)


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
    rng = substream(8)
    dummy = make_dummy_request(AUTHENTICATION, RP_ID, rng)
    assert Fido2Request.from_json(dummy.to_json()) == dummy
    assert dummy.rp_id == RP_ID


def test_dummy_response_signature_never_verifies():
    rng = substream(8)
    dummy = make_dummy_response(REGISTRATION, rng)
    assert es256.verify(dummy.public_key, dummy.signed_payload(), dummy.signature) is False


# ---------------------------------------------------------------------------
# authenticator device
# ---------------------------------------------------------------------------


def test_make_credential_signs_verifiably():
    device = AuthenticatorDevice("key-1", substream(10))
    attestation = device.make_credential(reg_request())
    assert attestation.rp_id_hash == RP_HASH
    assert attestation.counter == 0
    assert es256.verify(attestation.public_key, attestation.signed_payload(), attestation.signature)
    assert device.prompts == ["register as 'alice' at sso.example"]


def test_get_assertion_increments_counter():
    rng = substream(10)
    device = AuthenticatorDevice("key-1", rng)
    attestation = device.make_credential(reg_request(rng))
    first = device.get_assertion(auth_request(substream(1)))
    second = device.get_assertion(auth_request(substream(2)))
    assert (first.counter, second.counter) == (1, 2)
    assert first.credential_id == attestation.credential_id
    assert "sign in as 'alice' at sso.example" in device.prompts


def test_get_assertion_without_credential():
    with pytest.raises(NoCredential):
        AuthenticatorDevice("empty", substream(1)).get_assertion(auth_request())


def test_kind_mismatch_rejected_by_device():
    device = AuthenticatorDevice("key-1", substream(1))
    with pytest.raises(MalformedPayload):
        device.make_credential(auth_request())
    with pytest.raises(MalformedPayload):
        device.get_assertion(reg_request())


def test_clone_copies_keys_and_counters():
    rng = substream(10)
    device = AuthenticatorDevice("orig", rng)
    device.make_credential(reg_request(rng))
    device.get_assertion(auth_request(substream(1)))
    twin = device.clone("twin", substream(77))
    assertion = twin.get_assertion(auth_request(substream(2)))
    assert assertion.counter == 2  # counter state travels with the clone
    (credential_id,) = device.credentials
    assert twin.credentials[credential_id].private_key == device.credentials[credential_id].private_key


def test_witness_hook_collects_real_payloads():
    device = AuthenticatorDevice("key-1", substream(10))
    device.witness = []
    attestation = device.make_credential(reg_request())
    assert attestation.to_json() in device.witness


# ---------------------------------------------------------------------------
# secure store
# ---------------------------------------------------------------------------


def defended_begin_response(rp: RelyingParty, kind=AUTHENTICATION, request_id=1):
    return rp.begin(kind, "alice", request_id)


def test_strip_and_store_removes_channel_headers():
    rp = RelyingParty(ORIGIN, substream(20))
    store = SecureStore(substream(21))
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
    stripped, did_strip = SecureStore(substream(1)).strip_and_store(response, "s")
    assert did_strip is True
    assert stripped.header(HEADER_REQUEST_SHORT) is None


def test_strip_lone_header_is_malformed():
    store = SecureStore(substream(1))
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
        SecureStore(substream(1)).strip_and_store(response, "s")


def test_strip_prefers_the_long_header_and_strips_both_forms():
    real, other = auth_request(), auth_request(substream(9))
    response = WebResponseRecord(
        1,
        200,
        headers=(
            (HEADER_REQUEST, real.to_json()),
            (HEADER_REQUEST_SHORT, other.to_json()),
            (HEADER_URL_RESP, "https://x/f"),
            ("Content-Type", "text/html"),
        ),
    )
    store = SecureStore(substream(1))
    stripped, did_strip = store.strip_and_store(response, "s")
    assert did_strip is True
    assert store.pending("s").real_request == real
    assert stripped.headers == (("Content-Type", "text/html"),)


@pytest.mark.parametrize(
    "headers,message",
    [
        (((HEADER_REQUEST, ""), (HEADER_URL_RESP, "https://x/f")), f"unparseable {HEADER_REQUEST}"),
        (((HEADER_REQUEST, ""),), f"{HEADER_REQUEST} present without its pair"),
        (
            (
                (HEADER_REQUEST, ""),
                (HEADER_REQUEST_SHORT, auth_request().to_json()),
                (HEADER_URL_RESP, "https://x/f"),
            ),
            f"unparseable {HEADER_REQUEST}",
        ),
    ],
)
def test_strip_counts_an_empty_long_header_as_present(headers, message):
    response = WebResponseRecord(1, 200, headers=headers)
    with pytest.raises(MalformedHeader, match=message):
        SecureStore(substream(1)).strip_and_store(response, "s")


@pytest.mark.parametrize("headers", [(("Content-Type", "text/html"),), ()])
def test_strip_without_channel_headers_is_passthrough(headers):
    response = WebResponseRecord(1, 200, headers=headers)
    stripped, did_strip = SecureStore(substream(1)).strip_and_store(response, "s")
    assert did_strip is False
    assert stripped is response


def test_call_with_pending_entry_ignores_page_payload():
    rp = RelyingParty(ORIGIN, substream(20))
    store = SecureStore(substream(21))
    device = AuthenticatorDevice("key-1", substream(22))
    device.make_credential(reg_request(substream(23)))

    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 1), "s")
    real_challenge = store._by_session["s"].real_request.challenge

    attacker_payload = make_dummy_request(AUTHENTICATION, RP_ID, substream(99)).to_json()
    page_result = store.call("s", device, attacker_payload)

    returned = response_from_json(page_result)
    assert returned.challenge != real_challenge  # page got a dummy
    parked = response_from_json(store._by_session["s"].real_response)
    assert parked.challenge == real_challenge  # device signed the real one
    # exactly one consent prompt: the real request, not the attacker payload
    assert len(device.prompts) == 2  # register + the one sign-in


def test_call_without_entry_is_legacy_passthrough():
    store = SecureStore(substream(1))
    device = AuthenticatorDevice("key-1", substream(2))
    request = reg_request()
    result = store.call("s", device, request.to_json())
    attestation = response_from_json(result)
    assert attestation.challenge == request.challenge  # page payload honored
    assert es256.verify(attestation.public_key, attestation.signed_payload(), attestation.signature)


def test_browser_webauthn_surface_delegates_to_store():
    store = SecureStore(substream(1))
    device = AuthenticatorDevice("key-1", substream(2))
    surface = BrowserWebAuthn("s", store, device)
    attestation = response_from_json(surface.create(reg_request().to_json()))
    assertion = response_from_json(surface.get(auth_request().to_json()))
    assert attestation.credential_id == assertion.credential_id


def finish_request(url: str, *, headers=(), body=None, request_id=9) -> WebRequestRecord:
    return WebRequestRecord(request_id, "POST", Url.parse(url), headers=tuple(headers), body=body)


def test_inject_appends_header_on_exact_url_match():
    rp = RelyingParty(ORIGIN, substream(20))
    store = SecureStore(substream(21))
    device = AuthenticatorDevice("key-1", substream(22))
    device.make_credential(reg_request(substream(23)))
    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 1), "page-1")
    store.call("page-1", device, "{}")

    wrong_url = finish_request("https://sso.example/other")
    assert store.inject(wrong_url, "page-1") is None

    match = finish_request(f"{ORIGIN}/webauthn/finish")
    assert store.inject(match, "page-2") is None  # the payload is page-1's
    injected = store.inject(match, "page-1")
    assert injected is not None
    assert injected.header(HEADER_RESPONSE) is not None
    # single use: a second matching request gets nothing
    again = finish_request(f"{ORIGIN}/webauthn/finish")
    assert store.inject(again, "page-1") is None


def test_clear_drops_every_parked_payload():
    rp = RelyingParty(ORIGIN, substream(20))
    store = SecureStore(substream(21))
    device = AuthenticatorDevice("key-1", substream(22))
    device.make_credential(reg_request(substream(23)))
    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 1), "page-1")
    store.strip_and_store(rp.begin(AUTHENTICATION, "alice", 2), "page-2")
    store.call("page-1", device, "{}")  # one used, one still pending
    store.clear()
    assert store.pending("page-1") is None and store.pending("page-2") is None
    assert store.inject(finish_request(f"{ORIGIN}/webauthn/finish"), "page-1") is None


def test_inject_ignores_a_page_with_nothing_parked():
    store = SecureStore(substream(1))
    assert store.inject(finish_request("https://sso.example/webauthn/finish"), "page-1") is None


# ---------------------------------------------------------------------------
# relying party
# ---------------------------------------------------------------------------


def test_begin_defended_headers_carry_real_body_carries_dummy():
    rp = RelyingParty(ORIGIN, substream(30))
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
    rp = RelyingParty(ORIGIN, substream(30), defense_enabled=False)
    response = rp.begin(REGISTRATION, "alice", 1)
    assert response.headers == ()
    body = Fido2Request.from_json(response.body.decode())
    assert base64.urlsafe_b64encode(body.challenge).decode() in rp.outstanding


def test_begin_unknown_kind():
    with pytest.raises(MalformedPayload):
        RelyingParty(ORIGIN, substream(1)).begin("attest", "alice", 1)


def honest_registration(rp: RelyingParty, device: AuthenticatorDevice):
    begin = rp.begin(REGISTRATION, "alice", 1)
    real = Fido2Request.from_json(
        begin.header(HEADER_REQUEST) if rp.defense_enabled else begin.body.decode()
    )
    return device.make_credential(real)


def test_finish_header_takes_precedence_over_body():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    attestation = honest_registration(rp, device)
    decoy = make_dummy_response(REGISTRATION, substream(1))
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, attestation.to_json()),),
        body=RequestBody.urlencoded((("webauthn", decoy.to_json()),)),
    )
    result = rp.finish(request)
    assert result.accepted is True
    assert result.username == "alice"


def test_finish_reads_webauthn_body_entry():
    rp = RelyingParty(ORIGIN, substream(30), defense_enabled=False)
    device = AuthenticatorDevice("key-1", substream(31))
    attestation = honest_registration(rp, device)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        body=RequestBody.urlencoded((("webauthn", attestation.to_json()),)),
    )
    assert rp.finish(request).accepted is True


def test_finish_rejections():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))

    # no payload anywhere
    assert rp.finish(finish_request(f"{ORIGIN}/webauthn/finish")).reason == "malformed"

    # unparseable body
    bad = finish_request(
        f"{ORIGIN}/webauthn/finish", body=RequestBody.urlencoded((("webauthn", "{nope"),))
    )
    assert rp.finish(bad).reason == "malformed"

    # structurally fine but unknown challenge
    stray = make_dummy_response(REGISTRATION, substream(2))
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, stray.to_json()),)
    )
    assert rp.finish(request).reason == "challenge_mismatch"


def test_finish_kind_must_match_challenge_kind():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    device.make_credential(reg_request(substream(32)))
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
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    attestation = honest_registration(rp, device)
    tampered = json.loads(attestation.to_json())
    tampered["counter"] = 7  # signature no longer covers the payload
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, json.dumps(tampered)),),
    )
    assert rp.finish(request).reason == "bad_signature"


def test_finish_unknown_credential():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    # register, then answer a fresh auth challenge with a different device
    request = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, honest_registration(rp, device).to_json()),),
    )
    assert rp.finish(request).accepted is True

    stranger = AuthenticatorDevice("other", substream(40))
    stranger.make_credential(reg_request(substream(41)))
    begin = rp.begin(AUTHENTICATION, "alice", 2)
    real = Fido2Request.from_json(begin.header(HEADER_REQUEST))
    assertion = stranger.get_assertion(real)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, assertion.to_json()),)
    )
    assert rp.finish(request).reason == "unknown_credential"


def test_finish_counter_replay_rejected():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    finish = finish_request(
        f"{ORIGIN}/webauthn/finish",
        headers=((HEADER_RESPONSE, honest_registration(rp, device).to_json()),),
    )
    assert rp.finish(finish).accepted is True

    clone = device.clone("twin", substream(50))  # stale counter snapshot

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


def _broken_finish(kind: str, breaks: set[str]) -> tuple[RelyingParty, WebRequestRecord]:
    """After an honest registration of alice, a finish of `kind` signed by
    her key that breaks each named check; the signed layout is built here."""
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    registered = honest_registration(rp, device)
    header = ((HEADER_RESPONSE, registered.to_json()),)
    assert rp.finish(finish_request(f"{ORIGIN}/webauthn/finish", headers=header)).accepted

    other_kind = AUTHENTICATION if kind == REGISTRATION else REGISTRATION
    begin = rp.begin(other_kind if "kind" in breaks else kind, "alice", 2)
    challenge = Fido2Request.from_json(begin.header(HEADER_REQUEST)).challenge
    if "challenge" in breaks:
        challenge = bytes(CHALLENGE_LEN)
    rp_hash = bytes(32) if "rp_hash" in breaks else RP_HASH
    credential_id = b"x" * CREDENTIAL_ID_LEN if "credential" in breaks else registered.credential_id
    counter = 0 if "counter" in breaks else 1
    signed = rp_hash + counter.to_bytes(4, "big") + challenge
    if kind == REGISTRATION:
        signed += registered.public_key
    if "signature" in breaks:
        signed += b"!"
    signature = es256.sign(device.credentials[registered.credential_id].private_key, signed, substream(0))
    if kind == REGISTRATION:
        response = AttestationObject(
            credential_id, registered.public_key, rp_hash, counter, challenge, signature
        )
    else:
        response = AssertionResponse(credential_id, rp_hash, counter, challenge, signature)
    header = ((HEADER_RESPONSE, response.to_json()),)
    return rp, finish_request(f"{ORIGIN}/webauthn/finish", headers=header, request_id=3)


# each row breaks two checks, and the one finish makes first names the
# rejection; the signature check is the only one that calls es256.verify,
# so its call count tells the hash check's bad_signature from its own
FINISH_REJECTIONS = [
    (REGISTRATION, {"challenge", "rp_hash"}, "challenge_mismatch", 0),
    (REGISTRATION, {"kind", "signature"}, "challenge_mismatch", 0),
    (REGISTRATION, {"rp_hash", "signature"}, "bad_signature", 0),
    (REGISTRATION, {"signature"}, "bad_signature", 1),
    (AUTHENTICATION, {"challenge", "credential"}, "challenge_mismatch", 0),
    (AUTHENTICATION, {"kind", "credential"}, "challenge_mismatch", 0),
    (AUTHENTICATION, {"credential", "rp_hash"}, "unknown_credential", 0),
    (AUTHENTICATION, {"rp_hash", "signature"}, "bad_signature", 0),
    (AUTHENTICATION, {"signature", "counter"}, "bad_signature", 1),
    (AUTHENTICATION, {"counter"}, "counter_replay", 1),
    (AUTHENTICATION, set(), None, 1),
]


@pytest.mark.parametrize("kind, breaks, reason, verify_calls", FINISH_REJECTIONS)
def test_finish_rejection_order(kind, breaks, reason, verify_calls, monkeypatch):
    rp, request = _broken_finish(kind, breaks)
    calls = []
    real_verify = es256.verify

    def counting(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(es256, "verify", counting)
    result = rp.finish(request)
    assert (result.accepted, result.reason, result.kind) == (reason is None, reason, kind)
    assert len(calls) == verify_calls
    assert rp.log[-1] == f"finish {kind} {result.username} -> " + (
        "accepted" if reason is None else f"rejected({reason})"
    )


def test_challenge_is_single_use():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
    attestation = honest_registration(rp, device)
    request = finish_request(
        f"{ORIGIN}/webauthn/finish", headers=((HEADER_RESPONSE, attestation.to_json()),)
    )
    assert rp.finish(request).accepted is True
    assert rp.finish(request).reason == "challenge_mismatch"  # challenge consumed


def test_rp_log_never_contains_payloads():
    rp = RelyingParty(ORIGIN, substream(30))
    device = AuthenticatorDevice("key-1", substream(31))
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
    rp = RelyingParty(ORIGIN, substream(30))
    rp.witness = []
    response = rp.begin(AUTHENTICATION, "alice", 1)
    real_json = response.header(HEADER_REQUEST)
    assert real_json in rp.witness


# ---------------------------------------------------------------------------
# end-to-end: store + RP, both channel modes
# ---------------------------------------------------------------------------


def channel_login(defense: bool) -> tuple[RelyingParty, bool]:
    rp = RelyingParty(ORIGIN, substream(60), defense_enabled=defense)
    store = SecureStore(substream(61))
    device = AuthenticatorDevice("key-1", substream(62))

    def run(kind: str, request_id: int) -> bool:
        begin = rp.begin(kind, "alice", request_id)
        if defense:
            stripped, _ = store.strip_and_store(begin, "page-1")
            page_payload = stripped.body.decode()  # the dummy
            page_result = store.call("page-1", device, page_payload)
            request = finish_request(f"{ORIGIN}/webauthn/finish", request_id=request_id)
            request = store.inject(request, "page-1")
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
