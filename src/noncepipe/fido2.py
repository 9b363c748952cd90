"""FIDO2 over a browser-held secure channel.

Honest flow with the defense enabled:

1. The relying party answers a begin request with a *dummy* payload in the
   body and the real payload in two response headers: `webauthn_request`
   (the serialized request; the short form `webauthn_req` is accepted) and
   `URL_resp` (the exact finish URL).
2. The browser strips both headers before any onHeadersReceived listener
   runs and parks the real request in a per-session secure store.
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
from random import Random
from typing import NamedTuple, Optional, Union

from . import es256
from .http_model import Origin, WebRequestRecord, WebResponseRecord, checked_make

__all__ = [
    "AssertionResponse",
    "AttestationObject",
    "AuthenticatorDevice",
    "BrowserWebAuthn",
    "Fido2Request",
    "Fido2SecureEntry",
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


def _unb64(text: str) -> bytes:
    try:
        return base64.urlsafe_b64decode(text.encode("ascii"))
    except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
        raise MalformedPayload(f"bad base64url field: {exc}") from exc


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


def _counter_bytes(counter: int) -> bytes:
    if not 0 <= counter < 2**32:
        raise MalformedPayload(f"counter out of range: {counter}")
    return counter.to_bytes(4, "big")


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


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
        data = _parse_json(text)
        try:
            user = data.get("user")
            return cls(
                kind=str(data["kind"]),
                challenge=_unb64(str(data["challenge"])),
                rp_id=str(data["rp_id"]),
                user_id=_unb64(str(user["id"])) if user else None,
                user_name=str(user["name"]) if user else None,
                algorithm=str(data.get("algorithm", "ES256")),
            )
        except (KeyError, TypeError) as exc:
            raise MalformedPayload(f"request payload missing field: {exc}") from exc


def _check_response(
    credential_id: bytes, rp_id_hash: bytes, counter: int, challenge: bytes
) -> None:
    """The shape checks that both response kinds make."""
    if len(credential_id) != CREDENTIAL_ID_LEN:
        raise MalformedPayload(f"credential_id must be {CREDENTIAL_ID_LEN} bytes")
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

    def __new__(
        cls, credential_id: bytes, public_key: bytes, rp_id_hash: bytes, counter: int,
        challenge: bytes, signature: bytes,
    ) -> "AttestationObject":
        if len(credential_id) != CREDENTIAL_ID_LEN:
            raise MalformedPayload(f"credential_id must be {CREDENTIAL_ID_LEN} bytes")
        if len(public_key) != 65:
            raise MalformedPayload("public_key must be a 65-byte uncompressed point")
        _check_response(credential_id, rp_id_hash, counter, challenge)
        fields = (credential_id, public_key, rp_id_hash, counter, challenge, signature)
        return tuple.__new__(cls, fields)

    def signed_payload(self) -> bytes:
        return self.rp_id_hash + _counter_bytes(self.counter) + self.challenge + self.public_key

    def to_json(self) -> str:
        return _canonical(
            {
                "type": "attestation",
                "credential_id": _b64(self.credential_id),
                "public_key": _b64(self.public_key),
                "rp_id_hash": _b64(self.rp_id_hash),
                "counter": self.counter,
                "challenge": _b64(self.challenge),
                "signature": _b64(self.signature),
            }
        )


class AssertionResponse(
    namedtuple("AssertionResponse", "credential_id rp_id_hash counter challenge signature")
):
    """Authentication response. Signature covers rp_id_hash || counter ||
    challenge."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(
        cls, credential_id: bytes, rp_id_hash: bytes, counter: int, challenge: bytes, signature: bytes
    ) -> "AssertionResponse":
        _check_response(credential_id, rp_id_hash, counter, challenge)
        return tuple.__new__(cls, (credential_id, rp_id_hash, counter, challenge, signature))

    def signed_payload(self) -> bytes:
        return self.rp_id_hash + _counter_bytes(self.counter) + self.challenge

    def to_json(self) -> str:
        return _canonical(
            {
                "type": "assertion",
                "credential_id": _b64(self.credential_id),
                "rp_id_hash": _b64(self.rp_id_hash),
                "counter": self.counter,
                "challenge": _b64(self.challenge),
                "signature": _b64(self.signature),
            }
        )


Fido2Response = Union[AttestationObject, AssertionResponse]


def response_from_json(text: str) -> Fido2Response:
    data = _parse_json(text)
    kind = data.get("type")
    try:
        if kind == "attestation":
            return AttestationObject(
                credential_id=_unb64(str(data["credential_id"])),
                public_key=_unb64(str(data["public_key"])),
                rp_id_hash=_unb64(str(data["rp_id_hash"])),
                counter=int(data["counter"]),
                challenge=_unb64(str(data["challenge"])),
                signature=_unb64(str(data["signature"])),
            )
        if kind == "assertion":
            return AssertionResponse(
                credential_id=_unb64(str(data["credential_id"])),
                rp_id_hash=_unb64(str(data["rp_id_hash"])),
                counter=int(data["counter"]),
                challenge=_unb64(str(data["challenge"])),
                signature=_unb64(str(data["signature"])),
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, MalformedPayload):
            raise
        raise MalformedPayload(f"response payload malformed: {exc}") from exc
    raise MalformedPayload(f"unknown response type {kind!r}")


# ---------------------------------------------------------------------------
# dummies: structurally valid, cryptographically worthless
# ---------------------------------------------------------------------------


def make_dummy_request(kind: str, rp_id: str, rng: Random) -> Fido2Request:
    user_id = rng.randbytes(8) if kind == REGISTRATION else None
    user_name = f"user-{rng.randrange(16**6):06x}" if kind == REGISTRATION else None
    return Fido2Request(
        kind=kind,
        challenge=rng.randbytes(CHALLENGE_LEN),
        rp_id=rp_id,
        user_id=user_id,
        user_name=user_name,
    )


def _dummy_signature(rng: Random) -> bytes:
    r, s = rng.randrange(1, es256.N), rng.randrange(1, es256.N)
    return es256.der_signature(r, s)


def make_dummy_response(kind: str, rng: Random) -> Fido2Response:
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
        counter=rng.randrange(1, 2**16),
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

    def __init__(self, name: str, rng: Random) -> None:
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
            private_key=private_key,
            rp_id_hash=rp_id_hash,
            counter=0,
            user_name=request.user_name or "?",
        )
        attestation = AttestationObject(
            credential_id=credential_id,
            public_key=es256.public_key_bytes(private_key),
            rp_id_hash=rp_id_hash,
            counter=0,
            challenge=request.challenge,
            signature=b"\x00",  # placeholder, replaced below
        )
        signature = es256.sign(private_key, attestation.signed_payload(), self.rng)
        attestation = attestation._replace(signature=signature)
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
                assertion = AssertionResponse(
                    credential_id=credential_id,
                    rp_id_hash=rp_id_hash,
                    counter=key.counter,
                    challenge=request.challenge,
                    signature=b"\x00",
                )
                signature = es256.sign(key.private_key, assertion.signed_payload(), self.rng)
                assertion = assertion._replace(signature=signature)
                self._witness(assertion)
                return assertion
        raise NoCredential(f"{self.name} holds no credential for {request.rp_id}")

    def clone(self, name: str, rng: Random) -> "AuthenticatorDevice":
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
    """One stripped channel payload, single-use, keyed by session."""

    __slots__ = ("session_id", "real_request", "url_resp", "real_response")

    def __init__(self, session_id: str, real_request: Fido2Request, url_resp: str) -> None:
        self.session_id = session_id
        self.real_request = real_request
        self.url_resp = url_resp
        self.real_response: Optional[str] = None

    def __repr__(self) -> str:  # the real payloads stay out of reprs
        return f"Fido2SecureEntry(session={self.session_id!r}, url_resp={self.url_resp!r})"


class SecureStore:
    """Browser-internal parking spot for real FIDO2 payloads."""

    def __init__(self, rng: Random) -> None:
        self.rng = rng
        self._by_session: dict[str, Fido2SecureEntry] = {}

    def strip_and_store(
        self, response: WebResponseRecord, session_id: str
    ) -> tuple[WebResponseRecord, bool]:
        """Remove the channel headers and park the real request.

        Returns the response as later pipeline stages may see it, plus
        whether anything was stripped. A lone header without its pair is an
        error: the channel is all-or-nothing.
        """
        request_json = response.header(HEADER_REQUEST) or response.header(HEADER_REQUEST_SHORT)
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
        self._by_session[session_id] = Fido2SecureEntry(
            session_id=session_id, real_request=real_request, url_resp=url_resp
        )
        stripped = response.without_headers(
            [HEADER_REQUEST, HEADER_REQUEST_SHORT, HEADER_URL_RESP]
        )
        return stripped, True

    def pending(self, session_id: str) -> Optional[Fido2SecureEntry]:
        entry = self._by_session.get(session_id)
        if entry is not None and entry.real_response is None:
            return entry
        return None

    def call(self, session_id: str, device: AuthenticatorDevice, payload_json: str) -> str:
        """The WebAuthn entry point as the browser runs it.

        With a pending entry the page-supplied payload is ignored: the
        device sees the stored real request, the real response is parked,
        and the page gets fresh dummies. With no entry this is a legacy
        pass-through of the page payload.
        """
        entry = self.pending(session_id)
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

    def inject(self, request: WebRequestRecord) -> Optional[WebRequestRecord]:
        """Attach the real response header when the destination matches.

        Runs after onSendHeaders; the match is an exact URL comparison, and
        a matching entry is consumed, so each real response goes out once.
        """
        page = request.source_page
        session_id = getattr(page, "page_id", None)
        if session_id is None:
            return None
        entry = self._by_session.get(session_id)
        if entry is None or entry.real_response is None:
            return None
        if request.url.to_string() != entry.url_resp:
            return None
        del self._by_session[session_id]
        return request._replace(headers=request.headers + ((HEADER_RESPONSE, entry.real_response),))


class BrowserWebAuthn:
    """Page-visible WebAuthn surface; scripts may wrap or replace it.

    The honest page flow calls whatever object sits at `page.webauthn`, so
    a script that swaps this out sits exactly where a real override of the
    built-in credential-management entry points would.
    """

    def __init__(self, session_id: str, store: SecureStore, device: AuthenticatorDevice) -> None:
        self._session_id = session_id
        self._store = store
        self._device = device

    def create(self, payload_json: str) -> str:
        return self._store.call(self._session_id, self._device, payload_json)

    def get(self, payload_json: str) -> str:
        return self._store.call(self._session_id, self._device, payload_json)


# ---------------------------------------------------------------------------
# relying party
# ---------------------------------------------------------------------------


class _StoredCredential:
    __slots__ = ("credential_id", "public_key", "counter", "user_name")

    def __init__(self, credential_id: bytes, public_key: bytes, counter: int, user_name: str) -> None:
        self.credential_id = credential_id
        self.public_key = public_key
        self.counter = counter
        self.user_name = user_name


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

    def __init__(self, origin: Origin, rng: Random, *, defense_enabled: bool = True) -> None:
        self.origin = origin
        self.rp_id = origin.host
        self.rng = rng
        self.defense_enabled = defense_enabled
        self.url_resp = f"{origin}/webauthn/finish"
        self.accounts: dict[str, _StoredCredential] = {}
        self.outstanding: dict[str, tuple[str, str]] = {}  # challenge b64 -> (kind, user)
        self.log: list[str] = []  # digests and verdicts only
        # harness hook, same contract as AuthenticatorDevice.witness
        self.witness: Optional[list[str]] = None

    # -- begin -----------------------------------------------------------

    def begin(self, kind: str, username: str, request_id: int) -> WebResponseRecord:
        if kind == REGISTRATION:
            real = Fido2Request(
                kind=REGISTRATION,
                challenge=self.rng.randbytes(CHALLENGE_LEN),
                rp_id=self.rp_id,
                user_id=hashlib.sha256(username.encode("utf-8")).digest()[:8],
                user_name=username,
            )
        elif kind == AUTHENTICATION:
            real = Fido2Request(
                kind=AUTHENTICATION,
                challenge=self.rng.randbytes(CHALLENGE_LEN),
                rp_id=self.rp_id,
            )
        else:
            raise MalformedPayload(f"unknown begin kind {kind!r}")
        self.outstanding[_b64(real.challenge)] = (kind, username)
        self.log.append(f"begin {kind} {username} challenge#{_b64(real.challenge)[:8]}")
        if self.witness is not None:
            self.witness.append(real.to_json())
            self.witness.append(_b64(real.challenge).rstrip("="))

        if not self.defense_enabled:
            return WebResponseRecord(
                request_id=request_id, status=200, body=real.to_json().encode("utf-8")
            )
        dummy = make_dummy_request(kind, self.rp_id, self.rng)
        return WebResponseRecord(
            request_id=request_id,
            status=200,
            headers=((HEADER_REQUEST, real.to_json()), (HEADER_URL_RESP, self.url_resp)),
            body=dummy.to_json().encode("utf-8"),
        )

    # -- finish ----------------------------------------------------------

    def finish(self, request: WebRequestRecord) -> FinishResult:
        header_payload = request.header(HEADER_RESPONSE)
        if header_payload is not None:
            payload = header_payload
        elif request.body is not None:
            # legacy path: pages post the serialized response as a form field
            payload = next(
                (v for n, v in request.body.entries if n == "webauthn"),
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

        expected_rp_hash = hashlib.sha256(self.rp_id.encode("utf-8")).digest()
        if isinstance(response, AttestationObject):
            if response.rp_id_hash != expected_rp_hash:
                return self._verdict(False, kind, username, "bad_signature")
            if not es256.verify(
                response.public_key, response.signed_payload(), response.signature
            ):
                return self._verdict(False, kind, username, "bad_signature")
            self.accounts[username] = _StoredCredential(
                credential_id=response.credential_id,
                public_key=response.public_key,
                counter=response.counter,
                user_name=username,
            )
        else:
            stored = self.accounts.get(username)
            if stored is None or stored.credential_id != response.credential_id:
                return self._verdict(False, kind, username, "unknown_credential")
            if response.rp_id_hash != expected_rp_hash:
                return self._verdict(False, kind, username, "bad_signature")
            if not es256.verify(stored.public_key, response.signed_payload(), response.signature):
                return self._verdict(False, kind, username, "bad_signature")
            if response.counter <= stored.counter:
                return self._verdict(False, kind, username, "counter_replay")
            stored.counter = response.counter

        del self.outstanding[_b64(response.challenge)]
        return self._verdict(True, kind, username, None)

    def _verdict(
        self, accepted: bool, kind: str, username: str, reason: Optional[str]
    ) -> FinishResult:
        result = FinishResult(accepted=accepted, kind=kind, username=username, reason=reason)
        self.log.append(
            f"finish {kind} {username} -> {'accepted' if accepted else f'rejected({reason})'}"
        )
        return result
