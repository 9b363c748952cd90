"""FIDO2 over a browser-held secure channel.

Honest flow with the defense enabled:

1. The relying party answers a begin request with a *dummy* payload in the
   body and the real payload in two response headers: `webauthn_request`
   (the serialized request; the short form `webauthn_req` is accepted) and
   `URL_resp` (the exact finish URL).
2. The browser strips both headers before any onHeadersReceived listener
   runs and parks the real request in its secure store, keyed by page id.
3. When page script invokes WebAuthn, the browser ignores the page-supplied
   payload, runs the authenticator against the stored real request, keeps
   the real response, and hands the page freshly random dummy values.
4. On the outgoing request addressed exactly to `URL_resp`, the browser
   injects the real response into a `webauthn_response` header after
   onSendHeaders, where no listener can see it.
5. The relying party verifies the header payload.

Page scripts and extensions therefore only ever touch dummies, which never
verify.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
from collections import namedtuple
from typing import NamedTuple, Optional, Union

from . import es256
from .http_model import Origin, WebRequestRecord, WebResponseRecord, checked_make
from .rng import Substream

__all__ = [
    "AssertionResponse",
    "AttestationObject",
    "AuthenticatorDevice",
    "BEGIN_PATH",
    "BrowserWebAuthn",
    "Fido2Request",
    "Fido2SecureEntry",
    "FINISH_FIELD",
    "FINISH_PATH",
    "FinishResult",
    "HEADER_REQUEST",
    "HEADER_REQUEST_SHORT",
    "HEADER_RESPONSE",
    "HEADER_URL_RESP",
    "MalformedHeader",
    "MalformedPayload",
    "NoCredential",
    "RelyingParty",
    "SecureStore",
    "make_dummy_request",
]

HEADER_REQUEST = "webauthn_request"
HEADER_REQUEST_SHORT = "webauthn_req"
HEADER_URL_RESP = "URL_resp"
HEADER_RESPONSE = "webauthn_response"

# the relying party's two endpoints, on its own origin, and the form field
# a finish body carries the serialized response in
BEGIN_PATH = "/webauthn/begin"
FINISH_PATH = "/webauthn/finish"
FINISH_FIELD = "webauthn"

CHALLENGE_LEN = 32
CREDENTIAL_ID_LEN = 16

REGISTRATION = "registration"
AUTHENTICATION = "authentication"


class MalformedPayload(ValueError):
    """A serialized FIDO2 payload does not parse or fails shape checks."""


class MalformedHeader(ValueError):
    """One of the paired channel headers arrived without the other."""


class NoCredential(LookupError):
    """The authenticator holds no credential for this relying party."""


def _b64(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode("ascii")


def _unb64(value: object) -> bytes:
    """A bytes field off the wire: a string that decodes and re-encodes to
    itself, so no dropped character or stray padding bit reads as data."""
    if not isinstance(value, str):
        raise MalformedPayload("bad base64url field: not a string")
    try:
        raw = base64.urlsafe_b64decode(value.encode("ascii"))
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise MalformedPayload(f"bad base64url field: {exc}") from exc
    if _b64(raw) != value:
        raise MalformedPayload("bad base64url field: does not re-encode to itself")
    return raw


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise MalformedPayload("text field is not a string")
    return value


def _counter(value: object) -> int:
    if type(value) is not int:  # a JSON true is an int to Python
        raise MalformedPayload("counter is not a JSON integer")
    return value


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_json(text: str) -> dict:
    try:
        parsed = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedPayload(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise MalformedPayload("payload must be a JSON object")
    return parsed


def _only_keys(record: object, allowed: frozenset[str], what: str) -> dict:
    """`record`, a JSON object holding no key that the codec would not write
    back, so that every accepted payload re-encodes to itself."""
    if not isinstance(record, dict):
        raise MalformedPayload(f"{what} is not a JSON object")
    extra = record.keys() - allowed
    if extra:
        raise MalformedPayload(f"{what} has unexpected keys {sorted(extra)}")
    return record


def _counter_bytes(counter: int) -> bytes:
    if not 0 <= counter < 2**32:
        raise MalformedPayload(f"counter out of range: {counter}")
    return counter.to_bytes(4, "big")


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


# the keys a serialized request holds ("user" only when it names one)
_REQUEST_KEYS = frozenset({"kind", "challenge", "rp_id", "algorithm", "user"})
_USER_KEYS = frozenset({"id", "name"})


class Fido2Request(namedtuple("Fido2Request", "kind challenge rp_id user_id user_name algorithm")):
    """What a relying party asks an authenticator to do."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls,
        kind: str,  # registration | authentication
        challenge: bytes,
        rp_id: str,
        user_id: Optional[bytes] = None,
        user_name: Optional[str] = None,
        algorithm: str = "ES256",
    ) -> "Fido2Request":
        if kind not in (REGISTRATION, AUTHENTICATION):
            raise MalformedPayload(f"unknown request kind {kind!r}")
        if len(challenge) != CHALLENGE_LEN:
            raise MalformedPayload(f"challenge must be {CHALLENGE_LEN} bytes")
        if (user_id is None) != (user_name is None):
            raise MalformedPayload("a request user needs both an id and a name")
        if kind == REGISTRATION and (user_id is None or not user_name):
            raise MalformedPayload("registration requests must identify the user")
        if algorithm != "ES256":
            raise MalformedPayload(f"unsupported algorithm {algorithm!r}")
        return tuple.__new__(cls, (kind, challenge, rp_id, user_id, user_name, algorithm))

    def rp_id_hash(self) -> bytes:
        return hashlib.sha256(self.rp_id.encode("utf-8")).digest()

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "kind": self.kind,
            "challenge": _b64(self.challenge),
            "rp_id": self.rp_id,
            "algorithm": self.algorithm,
        }
        if self.user_id is not None:
            payload["user"] = {"id": _b64(self.user_id), "name": self.user_name}
        return _canonical(payload)

    @classmethod
    def from_json(cls, text: str) -> "Fido2Request":
        """The inverse of `to_json`: every key it writes, `algorithm`
        included, and no other."""
        data = _parse_json(text)
        _only_keys(data, _REQUEST_KEYS, "request payload")
        try:
            user_id = user_name = None
            if "user" in data:
                user = _only_keys(data["user"], _USER_KEYS, "request user")
                user_id, user_name = _unb64(user["id"]), _text(user["name"])
            return cls(
                kind=_text(data["kind"]),
                challenge=_unb64(data["challenge"]),
                rp_id=_text(data["rp_id"]),
                user_id=user_id,
                user_name=user_name,
                algorithm=_text(data["algorithm"]),
            )
        except KeyError as exc:
            raise MalformedPayload(f"request payload missing field: {exc}") from exc


def _signed_payload(
    rp_id_hash: bytes, counter: int, challenge: bytes, public_key: bytes = b""
) -> bytes:
    """What an authenticator signs: rp_id_hash || counter (4 bytes BE) ||
    challenge, then the public key for a registration."""
    return rp_id_hash + _counter_bytes(counter) + challenge + public_key


def _response_json(response: "Fido2Response") -> str:
    """Both response kinds on the wire: the kind's type tag, the counter as a
    JSON number and every other field base64url."""
    payload: dict[str, object] = {
        name: value if name == "counter" else _b64(value)
        for name, value in zip(response._fields, response)
    }
    payload["type"] = response.TYPE
    return _canonical(payload)


def _check_response(
    credential_id: bytes, rp_id_hash: bytes, counter: int, challenge: bytes,
    public_key: Optional[bytes] = None,
) -> None:
    """The shape checks of both response kinds; an attestation also brings
    its public key."""
    if len(credential_id) != CREDENTIAL_ID_LEN:
        raise MalformedPayload(f"credential_id must be {CREDENTIAL_ID_LEN} bytes")
    if public_key is not None and len(public_key) != 65:
        raise MalformedPayload("public_key must be a 65-byte uncompressed point")
    if len(rp_id_hash) != 32:
        raise MalformedPayload("rp_id_hash must be 32 bytes")
    if len(challenge) != CHALLENGE_LEN:
        raise MalformedPayload(f"challenge must be {CHALLENGE_LEN} bytes")
    _counter_bytes(counter)


class AttestationObject(
    namedtuple("AttestationObject", "credential_id public_key rp_id_hash counter challenge signature")
):
    """Registration response: a new credential and a proof of possession.

    The signature covers rp_id_hash || counter (4 bytes BE) || challenge ||
    public_key.
    """

    __slots__ = ()
    _make = classmethod(checked_make)
    TYPE = "attestation"
    to_json = _response_json

    def __new__(
        cls, credential_id: bytes, public_key: bytes, rp_id_hash: bytes, counter: int,
        challenge: bytes, signature: bytes,
    ) -> "AttestationObject":
        _check_response(credential_id, rp_id_hash, counter, challenge, public_key)
        fields = (credential_id, public_key, rp_id_hash, counter, challenge, signature)
        return tuple.__new__(cls, fields)

    def signed_payload(self) -> bytes:
        return _signed_payload(self.rp_id_hash, self.counter, self.challenge, self.public_key)


class AssertionResponse(
    namedtuple("AssertionResponse", "credential_id rp_id_hash counter challenge signature")
):
    """Authentication response. Signature covers rp_id_hash || counter ||
    challenge."""

    __slots__ = ()
    _make = classmethod(checked_make)
    TYPE = "assertion"
    to_json = _response_json

    def __new__(
        cls, credential_id: bytes, rp_id_hash: bytes, counter: int, challenge: bytes, signature: bytes
    ) -> "AssertionResponse":
        _check_response(credential_id, rp_id_hash, counter, challenge)
        return tuple.__new__(cls, (credential_id, rp_id_hash, counter, challenge, signature))

    def signed_payload(self) -> bytes:
        return _signed_payload(self.rp_id_hash, self.counter, self.challenge)


Fido2Response = Union[AttestationObject, AssertionResponse]
_RESPONSE_TYPES = {cls.TYPE: cls for cls in (AttestationObject, AssertionResponse)}
_RESPONSE_KEYS = {cls: frozenset({"type", *cls._fields}) for cls in _RESPONSE_TYPES.values()}


def response_from_json(text: str) -> Fido2Response:
    """The inverse of `to_json`: the type tag picks the kind, whose fields
    are read in order; then the payload must hold no other key."""
    data = _parse_json(text)
    kind = data.get("type")
    cls = _RESPONSE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MalformedPayload(f"unknown response type {kind!r}")
    try:
        fields = [
            _counter(data[name]) if name == "counter" else _unb64(data[name])
            for name in cls._fields
        ]
    except KeyError as exc:
        raise MalformedPayload(f"response payload malformed: {exc}") from exc
    _only_keys(data, _RESPONSE_KEYS[cls], f"{kind} payload")
    return cls(*fields)


# ---------------------------------------------------------------------------
# dummies: structurally valid, cryptographically worthless
# ---------------------------------------------------------------------------


def make_dummy_request(kind: str, rp_id: str, rng: Substream) -> Fido2Request:
    user_id = rng.randbytes(8) if kind == REGISTRATION else None
    user_name = f"user-{rng.randbytes(3).hex()}" if kind == REGISTRATION else None
    return Fido2Request(
        kind=kind,
        challenge=rng.randbytes(CHALLENGE_LEN),
        rp_id=rp_id,
        user_id=user_id,
        user_name=user_name,
    )


def _dummy_signature(rng: Substream) -> bytes:
    return es256.der_signature(1 + rng.randbelow(es256.N - 1), 1 + rng.randbelow(es256.N - 1))


def make_dummy_response(kind: str, rng: Substream) -> Fido2Response:
    if kind == REGISTRATION:
        return AttestationObject(
            credential_id=rng.randbytes(CREDENTIAL_ID_LEN),
            public_key=b"\x04" + rng.randbytes(64),
            rp_id_hash=rng.randbytes(32),
            counter=0,
            challenge=rng.randbytes(CHALLENGE_LEN),
            signature=_dummy_signature(rng),
        )
    return AssertionResponse(
        credential_id=rng.randbytes(CREDENTIAL_ID_LEN),
        rp_id_hash=rng.randbytes(32),
        counter=1 + rng.randbelow(2**16 - 1),
        challenge=rng.randbytes(CHALLENGE_LEN),
        signature=_dummy_signature(rng),
    )


# ---------------------------------------------------------------------------
# authenticator
# ---------------------------------------------------------------------------


class _StoredKey:
    """One credential's private key and counter; the default repr shows
    neither."""

    __slots__ = ("private_key", "rp_id_hash", "counter", "user_name")

    def __init__(self, private_key: int, rp_id_hash: bytes, counter: int, user_name: str) -> None:
        self.private_key = private_key
        self.rp_id_hash = rp_id_hash
        self.counter = counter
        self.user_name = user_name


class AuthenticatorDevice:
    """One roaming/platform authenticator with its own keys and counters.

    The user consents to every operation; each records the prompt the user
    saw, account name included, in `prompts`.
    """

    def __init__(self, name: str, rng: Substream) -> None:
        self.name = name
        self.rng = rng
        self.credentials: dict[bytes, _StoredKey] = {}
        self.prompts: list[str] = []
        # harness hook: leak checkers register a list here to learn which
        # signed payloads are real; it is never serialized or logged
        self.witness: Optional[list[str]] = None

    def _witness(self, response: "Fido2Response") -> None:
        if self.witness is not None:
            self.witness.append(response.to_json())
            self.witness.append(_b64(response.challenge).rstrip("="))
            self.witness.append(_b64(response.signature).rstrip("="))

    def _consent(self, action: str, account: str, rp_id: str) -> None:
        self.prompts.append(f"{action} as {account!r} at {rp_id}")

    def make_credential(self, request: Fido2Request) -> AttestationObject:
        if request.kind != REGISTRATION:
            raise MalformedPayload("make_credential needs a registration request")
        self._consent("register", request.user_name or "?", request.rp_id)
        private_key = es256.generate_private_key(self.rng)
        credential_id = self.rng.randbytes(CREDENTIAL_ID_LEN)
        rp_id_hash = request.rp_id_hash()
        self.credentials[credential_id] = _StoredKey(
            private_key, rp_id_hash, 0, request.user_name or "?"
        )
        public_key = es256.public_key_bytes(private_key)
        signed = _signed_payload(rp_id_hash, 0, request.challenge, public_key)
        signature = es256.sign(private_key, signed, self.rng)
        attestation = AttestationObject(
            credential_id, public_key, rp_id_hash, 0, request.challenge, signature
        )
        self._witness(attestation)
        return attestation

    def get_assertion(self, request: Fido2Request) -> AssertionResponse:
        if request.kind != AUTHENTICATION:
            raise MalformedPayload("get_assertion needs an authentication request")
        rp_id_hash = request.rp_id_hash()
        for credential_id, key in self.credentials.items():
            if key.rp_id_hash == rp_id_hash:
                self._consent("sign in", key.user_name, request.rp_id)
                key.counter += 1
                signed = _signed_payload(rp_id_hash, key.counter, request.challenge)
                signature = es256.sign(key.private_key, signed, self.rng)
                assertion = AssertionResponse(
                    credential_id, rp_id_hash, key.counter, request.challenge, signature
                )
                self._witness(assertion)
                return assertion
        raise NoCredential(f"{self.name} holds no credential for {request.rp_id}")

    def clone(self, name: str, rng: Substream) -> "AuthenticatorDevice":
        """Copy keys and counters; models a physically cloned authenticator."""
        twin = AuthenticatorDevice(name, rng)
        for credential_id, key in self.credentials.items():
            twin.credentials[credential_id] = _StoredKey(
                key.private_key, key.rp_id_hash, key.counter, key.user_name
            )
        return twin


# ---------------------------------------------------------------------------
# the browser secure store
# ---------------------------------------------------------------------------


class Fido2SecureEntry:
    """One stripped channel payload, single-use, keyed by page id."""

    __slots__ = ("real_request", "url_resp", "real_response")

    def __init__(self, real_request: Fido2Request, url_resp: str) -> None:
        self.real_request = real_request
        self.url_resp = url_resp
        self.real_response: Optional[str] = None

    def __repr__(self) -> str:  # the real payloads stay out of reprs
        return f"Fido2SecureEntry(url_resp={self.url_resp!r})"


class SecureStore:
    """Browser-internal parking spot for real FIDO2 payloads."""

    def __init__(self, rng: Substream) -> None:
        self.rng = rng
        self._by_page: dict[str, Fido2SecureEntry] = {}

    def strip_and_store(
        self, response: WebResponseRecord, page_id: str
    ) -> tuple[WebResponseRecord, bool]:
        """Remove the channel headers and park the real request.

        Returns the response as later pipeline stages may see it, plus
        whether anything was stripped. A lone header without its pair is an
        error: the channel is all-or-nothing. The short request header
        stands in only when the long one is absent; an empty long one is
        present, and fails to parse.
        """
        if not response.headers:  # every password login's response
            return response, False
        request_json = response.header(HEADER_REQUEST)
        if request_json is None:
            request_json = response.header(HEADER_REQUEST_SHORT)
        url_resp = response.header(HEADER_URL_RESP)
        if (request_json is None) != (url_resp is None):
            present = HEADER_URL_RESP if url_resp is not None else HEADER_REQUEST
            raise MalformedHeader(f"{present} present without its pair")
        if request_json is None:
            return response, False
        try:
            real_request = Fido2Request.from_json(request_json)
        except MalformedPayload as exc:
            raise MalformedHeader(f"unparseable {HEADER_REQUEST} header: {exc}") from exc
        self._by_page[page_id] = Fido2SecureEntry(real_request, url_resp)
        stripped = response.without_headers(
            [HEADER_REQUEST, HEADER_REQUEST_SHORT, HEADER_URL_RESP]
        )
        return stripped, True

    def clear(self) -> None:
        """Drop every parked payload, used or not."""
        self._by_page.clear()

    def pending(self, page_id: str) -> Optional[Fido2SecureEntry]:
        entry = self._by_page.get(page_id)
        if entry is not None and entry.real_response is None:
            return entry
        return None

    def call(self, page_id: str, device: AuthenticatorDevice, payload_json: str) -> str:
        """The WebAuthn entry point as the browser runs it.

        With a pending entry the page-supplied payload is ignored: the
        device sees the stored real request, the real response is parked,
        and the page gets fresh dummies. With no entry this is a legacy
        pass-through of the page payload.
        """
        entry = self.pending(page_id)
        if entry is None:
            request = Fido2Request.from_json(payload_json)
            return self._run_device(device, request).to_json()
        real_response = self._run_device(device, entry.real_request)
        entry.real_response = real_response.to_json()
        dummy = make_dummy_response(entry.real_request.kind, self.rng)
        return dummy.to_json()

    @staticmethod
    def _run_device(device: AuthenticatorDevice, request: Fido2Request) -> Fido2Response:
        if request.kind == REGISTRATION:
            return device.make_credential(request)
        return device.get_assertion(request)

    def inject(self, request: WebRequestRecord, page_id: str) -> Optional[WebRequestRecord]:
        """Attach the real response header when the destination matches.

        Runs after onSendHeaders; the match is an exact URL comparison, and
        a matching entry is consumed, so each real response goes out once.
        """
        entry = self._by_page.get(page_id)
        if entry is None or entry.real_response is None:
            return None
        if request.url.to_string() != entry.url_resp:
            return None
        del self._by_page[page_id]
        return request._replace(headers=request.headers + ((HEADER_RESPONSE, entry.real_response),))


class BrowserWebAuthn:
    """Page-visible WebAuthn surface; scripts may wrap or replace it.

    The honest page flow calls whatever object sits at `page.webauthn`, so
    a script that swaps this out sits exactly where a real override of the
    built-in credential-management entry points would.
    """

    def __init__(self, page_id: str, store: SecureStore, device: AuthenticatorDevice) -> None:
        self._page_id = page_id
        self._store = store
        self._device = device

    def create(self, payload_json: str) -> str:
        return self._store.call(self._page_id, self._device, payload_json)

    get = create  # the store runs whichever kind the request names


# ---------------------------------------------------------------------------
# relying party
# ---------------------------------------------------------------------------


class _StoredCredential:
    __slots__ = ("credential_id", "public_key", "counter")

    def __init__(self, credential_id: bytes, public_key: bytes, counter: int) -> None:
        self.credential_id = credential_id
        self.public_key = public_key
        self.counter = counter


class FinishResult(NamedTuple):
    accepted: bool
    kind: str
    username: str
    reason: Optional[str] = None  # bad_signature | challenge_mismatch |
    # counter_replay | unknown_credential | malformed


class RelyingParty:
    """Server-side FIDO2 endpoints with digest-only logging.

    With `defense_enabled` the begin response carries the real payload in
    the channel headers and a dummy in the body; without it, the real
    payload rides in the body like any legacy deployment.
    """

    def __init__(self, origin: Origin, rng: Substream, *, defense_enabled: bool = True) -> None:
        self.origin = origin
        self.rp_id = origin.host
        self.rng = rng
        self.defense_enabled = defense_enabled
        self.url_resp = f"{origin}{FINISH_PATH}"
        self.accounts: dict[str, _StoredCredential] = {}
        self.outstanding: dict[str, tuple[str, str]] = {}  # challenge b64 -> (kind, user)
        self.log: list[str] = []  # digests and verdicts only
        # harness hook, same contract as AuthenticatorDevice.witness
        self.witness: Optional[list[str]] = None

    # -- begin -----------------------------------------------------------

    def begin(self, kind: str, username: str, request_id: int) -> WebResponseRecord:
        if kind not in (REGISTRATION, AUTHENTICATION):
            raise MalformedPayload(f"unknown begin kind {kind!r}")
        registration = kind == REGISTRATION
        user_id = hashlib.sha256(username.encode("utf-8")).digest()[:8] if registration else None
        real = Fido2Request(
            kind=kind,
            challenge=self.rng.randbytes(CHALLENGE_LEN),
            rp_id=self.rp_id,
            user_id=user_id,
            user_name=username if registration else None,
        )
        real_json = real.to_json()
        self.outstanding[_b64(real.challenge)] = (kind, username)
        self.log.append(f"begin {kind} {username} challenge#{_b64(real.challenge)[:8]}")
        if self.witness is not None:
            self.witness.append(real_json)
            self.witness.append(_b64(real.challenge).rstrip("="))

        # the channel headers are two strings made here: nothing to check
        if not self.defense_enabled:
            return tuple.__new__(WebResponseRecord, (request_id, 200, (), real_json.encode("utf-8")))
        headers = ((HEADER_REQUEST, real_json), (HEADER_URL_RESP, self.url_resp))
        dummy = make_dummy_request(kind, self.rp_id, self.rng).to_json().encode("utf-8")
        return tuple.__new__(WebResponseRecord, (request_id, 200, headers, dummy))

    # -- finish ----------------------------------------------------------

    def finish(self, request: WebRequestRecord) -> FinishResult:
        header_payload = request.header(HEADER_RESPONSE)
        if header_payload is not None:
            payload = header_payload
        elif request.body is not None:
            # legacy path: pages post the serialized response as a form field
            payload = next(
                (v for n, v in request.body.entries if n == FINISH_FIELD),
                request.body.raw.decode("utf-8", errors="replace"),
            )
        else:
            return self._verdict(False, "?", "?", "malformed")
        try:
            response = response_from_json(payload)
        except MalformedPayload:
            return self._verdict(False, "?", "?", "malformed")

        kind = REGISTRATION if isinstance(response, AttestationObject) else AUTHENTICATION
        pending = self.outstanding.get(_b64(response.challenge))
        if pending is None or pending[0] != kind:
            return self._verdict(False, kind, "?", "challenge_mismatch")
        username = pending[1]

        # a registration verifies against the key it brings, an assertion
        # against the key the account holds
        if kind == REGISTRATION:
            stored = _StoredCredential(response.credential_id, response.public_key, response.counter)
        else:
            stored = self.accounts.get(username)
            if stored is None or stored.credential_id != response.credential_id:
                return self._verdict(False, kind, username, "unknown_credential")
        if response.rp_id_hash != hashlib.sha256(self.rp_id.encode("utf-8")).digest():
            return self._verdict(False, kind, username, "bad_signature")
        if not es256.verify(stored.public_key, response.signed_payload(), response.signature):
            return self._verdict(False, kind, username, "bad_signature")
        if kind == REGISTRATION:
            self.accounts[username] = stored
        elif response.counter <= stored.counter:
            return self._verdict(False, kind, username, "counter_replay")
        else:
            stored.counter = response.counter

        del self.outstanding[_b64(response.challenge)]
        return self._verdict(True, kind, username, None)

    def _verdict(
        self, accepted: bool, kind: str, username: str, reason: Optional[str]
    ) -> FinishResult:
        outcome = "accepted" if accepted else f"rejected({reason})"
        self.log.append(f"finish {kind} {username} -> {outcome}")
        return FinishResult(accepted, kind, username, reason)
