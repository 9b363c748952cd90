"""Browser session: end-to-end flows over a fake server, both auth channels."""

import gc
import tracemalloc
import weakref
from random import Random

import pytest

import base64

from noncepipe.dom import Field, FieldKind, Form
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import (
    HEADER_REQUEST,
    HEADER_RESPONSE,
    HEADER_URL_RESP,
    REGISTRATION,
    Fido2Request,
    RelyingParty,
)
from noncepipe.http_model import (
    ChannelSecurity,
    Origin,
    Url,
    WebResponseRecord,
)
from noncepipe.manager import VaultEntry
from noncepipe.pipeline import EVENT_LISTENER, Cancel, DefenseMode, Redirect, Stage
from noncepipe.session import BrowserSession, FlowResult

ORIGIN = Origin("https", "bank.example", 443)
SSO = Origin("https", "sso.example", 443)
PASSWORD = "hunter2-secret"
VAULT = [VaultEntry(ORIGIN, "alice", PASSWORD)]


def ok_server(request):
    return WebResponseRecord(request.request_id, 200, body=b"welcome"), "ok"


def make_session(mode=DefenseMode.DESIGN5_API_LATE, server=ok_server, seed=7, **kwargs):
    return BrowserSession(seed, mode, VAULT, server, **kwargs)


def add_login_form(page, action=None):
    page.add_form(
        Form(
            form_id="login",
            action=action or Url.parse("https://bank.example/login"),
            fields=[Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
        )
    )


def login_flow(session) -> FlowResult:
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    return session.submit(page, "login")


# ---------------------------------------------------------------------------
# password flows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode",
    [
        DefenseMode.DESIGN4_API_EARLY,
        DefenseMode.DESIGN5_API_LATE,
        DefenseMode.MANIFEST_V3,
    ],
)
def test_wire_carries_real_password_in_api_modes(mode):
    result = login_flow(make_session(mode))
    assert ("password", PASSWORD) in result.wire.body.entries
    assert result.verdict == "ok"
    assert result.response.status == 200


def test_baseline_wire_carries_password_directly():
    result = login_flow(make_session(DefenseMode.BASELINE))
    assert ("password", PASSWORD) in result.wire.body.entries


def test_design3_swap_happens_in_dom_before_pipeline():
    result = login_flow(make_session(DefenseMode.DESIGN3_DOM))
    # the request entering the pipeline already carries the real password
    assert ("password", PASSWORD) in result.request.body.entries
    assert ("password", PASSWORD) in result.wire.body.entries


def test_design5_pipeline_substitutes_after_submission():
    result = login_flow(make_session(DefenseMode.DESIGN5_API_LATE))
    (pw_on_submit,) = [v for n, v in result.request.body.entries if n == "password"]
    assert pw_on_submit != PASSWORD  # nonce at submit time
    assert ("password", PASSWORD) in result.wire.body.entries


@pytest.mark.parametrize("mode", list(DefenseMode))
def test_session_keeps_no_transcript_it_returned(mode):
    session = make_session(mode=mode)
    session.host.install(ExtensionManifest("observer", frozenset({Permission.WEB_REQUEST})))
    session.host.register_listener("observer", Stage.ON_BEFORE_REQUEST, lambda view: None)
    result = login_flow(session)
    assert result.verdict == "ok"
    assert result.transcript.deliveries()  # the transcript holds views
    dropped = weakref.ref(result.transcript)
    del result
    assert dropped() is None  # freed at once: the result held the only reference


def test_request_ids_allocated_sequentially():
    session = make_session()
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    first = session.submit(page, "login")
    second = session.fetch(page, Url.parse("https://bank.example/next"))
    assert first.request.request_id == 1
    assert second.request.request_id == 2


def test_cancelled_flow_never_reaches_server():
    calls = []

    def trap_server(request):
        calls.append(request)
        return WebResponseRecord(request.request_id, 200), "ok"

    session = make_session(server=trap_server)
    session.host.install(
        ExtensionManifest("blocker", frozenset({Permission.WEB_REQUEST}))
    )
    session.host.register_listener(
        "blocker", Stage.ON_BEFORE_REQUEST, lambda v: Cancel("no"), blocking=True
    )
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    result = session.submit(page, "login")
    assert result.cancelled is True
    assert result.wire is None and result.response is None and result.verdict is None
    assert calls == []


def test_fetch_builds_get_and_post():
    session = make_session()
    page = session.new_page(ORIGIN)
    get = session.fetch(page, Url.parse("https://bank.example/q?a=1"))
    assert get.wire.method == "GET" and get.wire.body is None
    post = session.fetch(
        page, Url.parse("https://bank.example/q"), method="POST", body_entries=(("a", "1"),)
    )
    assert post.wire.body.entries == (("a", "1"),)
    assert post.wire.header("Content-Type") == "application/x-www-form-urlencoded"


def test_page_channel_overrides():
    session = make_session()
    plain = session.fetch(session.new_page(ORIGIN), Url.parse("http://bank.example/q"))
    assert plain.wire.channel_security is ChannelSecurity.PLAIN_HTTP
    shaky_page = session.new_page(ORIGIN, bad_tls=True)
    shaky = session.fetch(shaky_page, Url.parse("https://bank.example/q"))
    assert shaky.wire.channel_security is ChannelSecurity.BAD_TLS


def test_rendered_text_updated_from_response_body():
    session = make_session()
    page = session.new_page(ORIGIN)
    session.fetch(page, Url.parse("https://bank.example/q"))
    assert page.rendered_text == "welcome"


def test_new_page_ids_and_webauthn_surface():
    session = make_session()
    first = session.new_page(ORIGIN)
    second = session.new_page(ORIGIN)
    assert (first.page_id, second.page_id) == ("page-1", "page-2")
    assert first.webauthn is not None


@pytest.mark.parametrize("mode", list(DefenseMode))
def test_session_keeps_no_page_its_caller_dropped(mode):
    session = make_session(mode=mode)
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    assert session.submit(page, "login").verdict == "ok"
    dropped = weakref.ref(page)
    del page
    assert dropped() is None  # freed at once: nothing in the session refers to it
    assert session.new_page(ORIGIN).page_id == "page-2"


def typed_login(session) -> FlowResult:
    page = session.new_page(ORIGIN)
    add_login_form(page)
    form = page.form("login")
    form.field_named("username").value = "alice"
    form.field_named("password").value = PASSWORD  # typed: no autofill, no nonce
    return session.submit(page, "login")


def traced_growth(login) -> int:
    """Bytes `tracemalloc` gains from 1,000 to 3,000 calls of `login`."""
    tracemalloc.start()
    try:
        traced = []
        for logins in (1000, 2000):
            for _ in range(logins):
                login()
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return traced[1] - traced[0]


@pytest.mark.parametrize("mode", [DefenseMode.BASELINE, DefenseMode.MANIFEST_V3])
def test_session_memory_stays_flat_over_nonce_free_logins(mode):
    session = make_session(mode=mode)

    def login():
        assert typed_login(session).verdict == "ok"

    # a kept transcript costs ~0.27 MB per 1,000 logins
    assert traced_growth(login) < 50_000


@pytest.mark.parametrize("mode", [m for m in DefenseMode if m is not DefenseMode.BASELINE])
def test_session_memory_stays_flat_over_autofilled_logins(mode):
    session = make_session(mode=mode)

    def login():
        assert ("password", PASSWORD) in login_flow(session).wire.body.entries

    # a kept nonce record, verdict or pair of manager views costs 0.2-2.5 KB a login
    assert traced_growth(login) < 50_000


@pytest.mark.parametrize("action", ["cancel", "redirect"])
@pytest.mark.parametrize("mode", [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE])
def test_cancelled_or_redirected_nonce_login_leaves_no_verdict(mode, action):
    # its own entry: the hop to /login2 must not meet a pin another test learned
    session = BrowserSession(7, mode, [VaultEntry(ORIGIN, "alice", PASSWORD)], ok_server)
    session.host.install(ExtensionManifest("blocker", frozenset({Permission.WEB_REQUEST})))
    moved = Url.parse("https://bank.example/login2")

    def block(view):  # cancels or redirects request 1 only
        if view.request_id != 1:
            return None
        return Cancel("no") if action == "cancel" else Redirect(moved)

    session.host.register_listener("blocker", Stage.ON_BEFORE_SEND_HEADERS, block, blocking=True)
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    first = session.submit(page, "login")
    entry = session.host.nonces.page(page.page_id)
    assert entry.verdict is None
    if action == "cancel":
        assert first.cancelled
    else:
        assert first.wire.url.path == "/login2"
        assert ("password", PASSWORD) in first.wire.body.entries
    second = session.submit(page, "login")  # decided afresh
    assert entry.verdict is None
    if action == "cancel":
        assert ("password", PASSWORD) in second.wire.body.entries


@pytest.mark.parametrize(
    "mode", [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3]
)
def test_failed_login_then_resubmit_on_the_same_page_swaps_again(mode):
    verdicts = iter(["auth_fail", "ok"])

    def flaky_server(request):
        return WebResponseRecord(request.request_id, 200, body=b"-"), next(verdicts)

    session = make_session(mode=mode, server=flaky_server)
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    first = session.submit(page, "login")
    second = session.submit(page, "login")
    assert (first.verdict, second.verdict) == ("auth_fail", "ok")
    for result in (first, second):
        assert ("password", PASSWORD) in result.wire.body.entries


def browser_events(result: FlowResult) -> list[str]:
    return [e.to_line() for e in result.transcript.events if e.listener_id == EVENT_LISTENER]


def test_second_autofill_on_one_page_swaps_like_the_first_in_every_late_mode():
    # autofill, submit, autofill again, submit again: the stale first nonce
    # is not what the second request carries, so it plays no part
    events = {}
    for mode in (DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3):
        session = make_session(mode=mode)
        page = session.new_page(ORIGIN)
        add_login_form(page)
        session.autofill(page, "login")
        session.submit(page, "login")
        session.autofill(page, "login")
        second = session.submit(page, "login")
        assert ("password", PASSWORD) in second.wire.body.entries
        events[mode] = browser_events(second)
    assert events[DefenseMode.MANIFEST_V3] == events[DefenseMode.DESIGN5_API_LATE]
    assert events[DefenseMode.MANIFEST_V3] == ["2 substitution !browser - applied=1"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mode, parses",
    [
        (DefenseMode.DESIGN4_API_EARLY, 1),
        (DefenseMode.DESIGN5_API_LATE, 1),
        (DefenseMode.MANIFEST_V3, 0),  # the browser checks the request's own Url
    ],
)
def test_nonce_login_parses_its_destination_at_most_once(monkeypatch, mode, parses):
    session = make_session(mode)
    page = session.new_page(ORIGIN)
    add_login_form(page)
    session.autofill(page, "login")
    parsed = []
    parse = Url.parse
    counting = classmethod(lambda cls, text: parsed.append(text) or parse(text))
    monkeypatch.setattr(Url, "parse", counting)
    result = session.submit(page, "login")
    assert ("password", PASSWORD) in result.wire.body.entries
    assert parsed == ["https://bank.example/login"] * parses


def test_same_seed_replays_identical_wire_bytes():
    a = login_flow(make_session(seed=123))
    b = login_flow(make_session(seed=123))
    assert a.wire.body.raw == b.wire.body.raw
    assert a.transcript.to_text() == b.transcript.to_text()
    # the submitted nonce is also identical
    assert a.request.body.raw == b.request.body.raw


def test_different_seeds_draw_different_nonces():
    a = login_flow(make_session(seed=123))
    b = login_flow(make_session(seed=124))
    assert a.request.body.raw != b.request.body.raw


# ---------------------------------------------------------------------------
# FIDO2 flows
# ---------------------------------------------------------------------------


def rp_server(rp: RelyingParty):
    def serve(request):
        if request.url.path == "/webauthn/begin":
            params = dict(request.url.query)
            return rp.begin(params["kind"], params["username"], request.request_id), "begin"
        if request.url.path == "/webauthn/finish":
            result = rp.finish(request)
            verdict = "accepted" if result.accepted else f"rejected:{result.reason}"
            status = 200 if result.accepted else 403
            return WebResponseRecord(request.request_id, status, body=verdict.encode()), verdict
        return WebResponseRecord(request.request_id, 404, body=b"not found"), "404"

    return serve


def fido2_session(defended: bool, seed=7):
    rp = RelyingParty(SSO, Random(seed * 1000 + 1), defense_enabled=defended)
    session = BrowserSession(seed, DefenseMode.DESIGN5_API_LATE, VAULT, rp_server(rp))
    return session, rp


def test_defended_register_and_authenticate_succeed():
    session, rp = fido2_session(defended=True)
    page = session.new_page(SSO)
    assert session.fido2_register(page, SSO, "alice").verdict == "accepted"
    assert session.fido2_authenticate(page, SSO, "alice").verdict == "accepted"
    assert rp.accounts["alice"].counter == 1


def test_legacy_register_and_authenticate_succeed():
    session, rp = fido2_session(defended=False)
    page = session.new_page(SSO)
    assert session.fido2_register(page, SSO, "alice").verdict == "accepted"
    assert session.fido2_authenticate(page, SSO, "alice").verdict == "accepted"


def test_defended_finish_rides_in_injected_header():
    session, _ = fido2_session(defended=True)
    page = session.new_page(SSO)
    result = session.fido2_register(page, SSO, "alice")
    assert result.wire.header(HEADER_RESPONSE) is not None
    # what the page posted in the body is a dummy, not the parked response
    body_payload = dict(result.wire.body.entries)["webauthn"]
    assert body_payload != result.wire.header(HEADER_RESPONSE)
    assert any(e.label == "fido2Inject" for e in result.transcript.events)


def test_legacy_finish_rides_in_body():
    session, _ = fido2_session(defended=False)
    page = session.new_page(SSO)
    result = session.fido2_register(page, SSO, "alice")
    assert result.wire.header(HEADER_RESPONSE) is None
    assert any(n == "webauthn" for n, _ in result.wire.body.entries)


def test_defended_page_sees_only_dummy_challenge():
    session, rp = fido2_session(defended=True)
    page = session.new_page(SSO)
    begin = session.fido2_begin(page, SSO, "registration", "alice")
    page_request = Fido2Request.from_json(page.rendered_text)
    page_b64 = base64.urlsafe_b64encode(page_request.challenge).decode()
    assert page_b64 not in rp.outstanding  # dummy, unknown to the server
    # channel headers are gone by the time the page-facing response lands
    assert begin.response.header(HEADER_REQUEST) is None
    assert begin.response.header(HEADER_URL_RESP) is None


def test_strip_event_precedes_headers_received_in_session_flow():
    session, _ = fido2_session(defended=True)
    ext = session.host.install(
        ExtensionManifest("observer", frozenset({Permission.WEB_REQUEST}))
    )
    session.host.register_listener(
        "observer", Stage.ON_HEADERS_RECEIVED, lambda v: None, listener_id="obs.ohr"
    )
    page = session.new_page(SSO)
    # fido2_register's steps, so the begin transcript is in hand
    begin = session.fido2_begin(page, SSO, REGISTRATION, "alice")
    finish_url = Url(SSO.scheme, SSO.host, SSO.port, "/webauthn/finish")
    response_json = page.webauthn.create(page.rendered_text)
    assert session.fido2_finish(page, finish_url, response_json).verdict == "accepted"
    labels = [e.label for e in begin.transcript.events]
    assert "fido2Strip" in labels
    assert labels.index("fido2Strip") < labels.index("onHeadersReceived")
    # nothing the observer saw names the channel headers
    assert all(not s.startswith(("webauthn_request:", "webauthn_req:", "URL_resp:")) for s in ext.observations)
