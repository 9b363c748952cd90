"""Records: one idiom, and what it must keep.

Immutable values are NamedTuples: no field can be set, and a record that
checks its fields checks them again on every copy path (`_replace`, `_make`
and the copies the program makes). Secret-bearing state is a plain slotted
class: not a tuple, so no serializer writes it out, and its repr hides the
secret. Importing the CLI loads neither `dataclasses` nor `inspect`, and no
`cryptography` until a FIDO2 signature is needed.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noncepipe import adversaries, dom, extensions, fido2, http_model, pipeline, session, sites
from noncepipe.adversaries import (
    AttackOutcome,
    AttackScenario,
    MatrixCell,
    MatrixReport,
    _AssertHijack,
    _Fido2Setup,
    _ScenarioContext,
)
from noncepipe.dom import (
    AddField,
    HookKind,
    Provenance,
    RegisterSubmitHook,
    RenameField,
    ScriptHandle,
    SetFormAction,
    SubmitHook,
)
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import (
    AUTHENTICATION,
    AssertionResponse,
    AttestationObject,
    Fido2Request,
    Fido2SecureEntry,
    FinishResult,
    MalformedPayload,
    _StoredKey,
)
from noncepipe.http_model import (
    InvalidUrl,
    MalformedBody,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
)
from noncepipe.pipeline import (
    BodyView,
    Cancel,
    DefenseMode,
    Delivery,
    ListenerRegistration,
    NonceRecord,
    PipelineConfig,
    Redirect,
    SafetyDecision,
    Stage,
    StageTranscript,
    StageView,
    SubstitutionRequest,
    TranscriptEvent,
    VaultEntry,
    Verdict,
    _reissue,
)
from noncepipe.session import FlowResult
from noncepipe.sites import CompatRecord, CompatReport, SiteProfile, _SiteState

ROOT = Path(__file__).parent.parent
SECRET = "hunter2-secret"
ORIGIN = Origin("https", "site.example", 443)
URL = Url.parse("https://site.example/login")
BODY = RequestBody.urlencoded((("pw", "x"),))
REQUEST = WebRequestRecord(1, "POST", URL, body=BODY)
RESPONSE = WebResponseRecord(1, 200, (("X-A", "1"),), b"ok")
ENTRY = VaultEntry(ORIGIN, "alice", SECRET)
NONCE_RECORD = NonceRecord("NONCE0123456789A", ENTRY, "login", "password", False, True)
DECISION = SafetyDecision(False, 2, "channel is bad_tls")
CHALLENGE = bytes(32)
FIDO2_REQUEST = Fido2Request(AUTHENTICATION, CHALLENGE, "site.example")
ATTESTATION = AttestationObject(bytes(16), b"\x04" + bytes(64), bytes(32), 0, CHALLENGE, b"\x00")
ASSERTION = AssertionResponse(bytes(16), bytes(32), 1, CHALLENGE, b"\x00")
PROFILE = SiteProfile("s", "plain_post", ORIGIN)
VIEW = StageView(1, Stage.ON_SEND_HEADERS, "POST", str(URL), (), (), BodyView.ABSENT, None)

# one instance of every immutable record in the program
IMMUTABLE = [
    ORIGIN,
    URL,
    BODY,
    REQUEST,
    RESPONSE,
    NONCE_RECORD,
    DECISION,
    Verdict(1, NONCE_RECORD, DECISION, URL),
    VIEW,
    Cancel(),
    Redirect(URL),
    ListenerRegistration("l1", "ext", Stage.ON_SEND_HEADERS, False, print),
    TranscriptEvent(1, "cancel", "!browser", "-", "-"),
    Delivery("l1", VIEW),
    PipelineConfig(),
    ExtensionManifest("ext", frozenset({Permission.WEB_REQUEST})),
    RenameField("login", "a", "b"),
    SetFormAction("login", URL),
    AddField("login", "tracker"),
    RegisterSubmitHook("login", SubmitHook(HookKind.SHA256_FIELD, "pw")),
    FlowResult(REQUEST, REQUEST, RESPONSE, "auth_ok", StageTranscript()),
    PROFILE,
    _SiteState(PROFILE, "d1", "d2", "d3"),
    CompatRecord("s", "plain_post", "compatible", True, "auth_ok", "auth_ok", False),
    CompatReport(7, DefenseMode.DESIGN5_API_LATE, []),
    AttackScenario("n", "dom_observer", DefenseMode.BASELINE, 7),
    AttackOutcome("n", "dom_observer", "baseline", False),
    MatrixCell("baseline", "dom_observer", 1, 0),
    MatrixReport(7, 1, []),
    _ScenarioContext(None, None, "login", []),
    _Fido2Setup(None, None, None, None, ORIGIN),
    FIDO2_REQUEST,
    ATTESTATION,
    ASSERTION,
    FinishResult(True, AUTHENTICATION, "alice"),
]


def _record_classes() -> set[type]:
    modules = (adversaries, dom, extensions, fido2, http_model, pipeline, session, sites)
    return {
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__ and issubclass(cls, tuple)
    }


def test_every_record_class_is_covered():
    assert {type(record) for record in IMMUTABLE} == _record_classes()


@pytest.mark.parametrize("record", IMMUTABLE, ids=lambda r: type(r).__name__)
def test_no_field_of_an_immutable_record_can_be_set_or_deleted(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = "forged"
    assert not hasattr(record, "extra")


# the caches some records keep in their instance dict, filled here first
CACHES = [(URL, "_text", URL.to_string), (BODY, "_digest", BODY.digest)]
CACHES.append((PROFILE, "login_action", lambda: PROFILE.login_action))


@pytest.mark.parametrize("record,name,read", CACHES, ids=[type(c[0]).__name__ for c in CACHES])
def test_no_cache_of_an_immutable_record_can_be_set_or_deleted(record, name, read):
    kept = read()
    with pytest.raises(AttributeError):
        setattr(record, name, "forged")
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert read() == kept and read() is kept


def test_no_field_of_a_substitution_request_can_be_set_or_deleted():
    request = SubstitutionRequest("pw", "NONCE0123456789A", SECRET, ORIGIN)
    for name in ("field_name", "nonce", "replacement", "expected_origin"):
        with pytest.raises(AttributeError):
            setattr(request, name, "NONCE0123456789A")
        with pytest.raises(AttributeError):
            delattr(request, name)
    assert request.replacement == SECRET


PRIVATE_KEY = 0x1234567890ABCDEF1234567890ABCDEF
SECURE_ENTRY = Fido2SecureEntry("page-1", FIDO2_REQUEST, "https://site.example/webauthn/finish")
SECURE_ENTRY.real_response = json.dumps({"signature": SECRET})
# each state, and the strings its repr must not hold
SECRET_BEARING = {
    "VaultEntry": (VaultEntry(ORIGIN, "alice", SECRET), [SECRET]),
    "SubstitutionRequest": (
        SubstitutionRequest("pw", "NONCE0123456789A", SECRET, ORIGIN),
        [SECRET],
    ),
    "SubmitHook": (
        SubmitHook(HookKind.SWAP_VALUE, match="NONCE0123456789A", replacement=SECRET),
        [SECRET],
    ),
    "Fido2SecureEntry": (SECURE_ENTRY, [FIDO2_REQUEST.to_json(), SECRET]),
    "_StoredKey": (
        _StoredKey(PRIVATE_KEY, bytes(32), 0, "alice"),
        [str(PRIVATE_KEY), hex(PRIVATE_KEY)[2:], hex(PRIVATE_KEY)[2:].upper()],
    ),
}


@pytest.mark.parametrize("name", sorted(SECRET_BEARING))
def test_secret_bearing_state_is_no_tuple_and_hides_its_secret(name):
    state, secrets = SECRET_BEARING[name]
    assert not isinstance(state, tuple)
    assert not hasattr(state, "__dict__")  # slotted: no stray attribute holds a copy
    with pytest.raises(TypeError):
        json.dumps(state)
    for secret in secrets:
        assert secret not in repr(state)


# record, field changes a check refuses, the error it raises
BAD_COPIES = [
    (ORIGIN, {"port": 0}, InvalidUrl),
    (ORIGIN, {"host": "two words"}, InvalidUrl),
    (URL, {"path": "relative"}, InvalidUrl),
    (URL, {"scheme": "ftp"}, InvalidUrl),
    (BODY, {"raw": b"pw=y"}, MalformedBody),
    (BODY, {"content_type": "text/plain"}, MalformedBody),
    (REQUEST, {"method": "PUT"}, ValueError),
    (REQUEST, {"method": "GET"}, ValueError),  # a GET with a body
    (RESPONSE, {"headers": (("X-A",),)}, ValueError),
    (DECISION, {"reason": 6}, ValueError),
    (PROFILE, {"category": "unknown"}, ValueError),
    (FIDO2_REQUEST, {"challenge": b"short"}, MalformedPayload),
    (FIDO2_REQUEST, {"algorithm": "RS256"}, MalformedPayload),
    (ATTESTATION, {"public_key": b"\x04"}, MalformedPayload),
    (ATTESTATION, {"counter": -1}, MalformedPayload),
    (ASSERTION, {"rp_id_hash": b""}, MalformedPayload),
    (ASSERTION, {"counter": 2**32}, MalformedPayload),
]


@pytest.mark.parametrize(
    "record,changes,error",
    BAD_COPIES,
    ids=[f"{type(r).__name__}-{','.join(c)}" for r, c, _ in BAD_COPIES],
)
def test_a_checked_record_checks_every_copy(record, changes, error):
    with pytest.raises(error):
        record._replace(**changes)
    fields = record._asdict() | changes
    with pytest.raises(error):
        type(record)._make(fields.values())


def test_copies_normalise_as_construction_does():
    assert ORIGIN._replace(host="Site.Example") == ORIGIN
    moved = URL._replace(host="Other.Example")
    assert moved.host == "other.example" and moved.origin == Origin("https", "other.example", 443)
    assert URL.with_query([("a", 1)]).query == (("a", "1"),)
    assert RESPONSE._replace(headers=((1, 2),)).headers == (("1", "2"),)


def test_url_with_query_rejects_an_entry_that_is_not_a_pair():
    with pytest.raises(ValueError):
        URL.with_query([("a", "1", "2")])


def test_without_headers_keeps_the_checked_headers():
    response = WebResponseRecord(1, 200, (("X-A", "1"), ("X-B", 2)))
    assert response.without_headers(["x-a"]) == WebResponseRecord(1, 200, (("X-B", "2"),))


def test_redirect_reissue_checks_the_new_hop():
    get = WebRequestRecord(1, "GET", URL)
    with pytest.raises(ValueError, match="GET requests carry entries in the query"):
        _reissue(get, BODY, Url.parse("https://site.example/next"), 2)
    hop = _reissue(REQUEST, BODY, Url.parse("http://site.example/next"), 2)
    assert (hop.request_id, hop.parent_request_id, hop.url.scheme) == (2, 1, "http")


def test_forged_challenge_copy_is_checked():
    script = ScriptHandle("xss-payload", Provenance.XSS)
    hijack = _AssertHijack(original=None, attacker_challenge=b"short", script=script)
    with pytest.raises(MalformedPayload, match="challenge must be 32 bytes"):
        hijack.get(FIDO2_REQUEST.to_json())


def test_origin_post_init_runs_once_per_origin_looked_up_on_the_class(monkeypatch):
    """perfbench counts origins by wrapping `Origin.__post_init__` on the class."""
    calls = []
    checked = Origin.__post_init__

    def counting(self):
        calls.append(self)
        return checked(self)

    monkeypatch.setattr(Origin, "__post_init__", counting)
    Origin("https", "a.example", 443)
    url = Url("https", "B.example", 443, "/")
    url.with_query([("a", "b")])
    Url.parse("https://c.example/x")
    assert len(calls) == 4
    assert url.origin.host == "b.example"


def test_import_leaves_dataclasses_inspect_and_cryptography_unloaded():
    code = (
        "import sys, noncepipe.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('dataclasses', 'inspect', 'cryptography')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -S: no `site`, whose .pth hooks on some hosts import `inspect` themselves
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
