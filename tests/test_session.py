"""Browser session: end-to-end flows over a fake server, both auth channels."""

import gc
import re
import tracemalloc
import weakref

import pytest

import base64

from noncepipe.dom import Field, FieldKind, Form, build_request
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import (
    AUTHENTICATION,
    BEGIN_PATH,
    FINISH_PATH,
    HEADER_REQUEST,
    HEADER_RESPONSE,
    HEADER_URL_RESP,
    REGISTRATION,
    AuthenticatorDevice,
    Fido2Request,
    RelyingParty,
    SecureStore,
)
from noncepipe.http_model import (
    ChannelSecurity,
    Origin,
    Url,
    WebResponseRecord,
)
from noncepipe.pipeline import (
    EVENT_LISTENER,
    Cancel,
    DefenseMode,
    Redirect,
    Stage,
    StageView,
    TranscriptEvent,
    VaultEntry,
)
from noncepipe.rng import substream
from noncepipe.session import BrowserSession, FlowResult
from noncepipe.sites import ServerFarm, SiteProfile, build_login_page

ORIGIN = Origin("https", "bank.example", 443)
SSO = Origin("https", "sso.example", 443)
PASSWORD = "hunter2-secret"


def ok_server(request):
    return WebResponseRecord(request.request_id, 200, body=b"welcome"), "ok"


def vault():
    """A fresh entry per session: a pin one test learns cannot refuse another."""
    return [VaultEntry(ORIGIN, "alice", PASSWORD)]


def make_session(mode=DefenseMode.DESIGN5_API_LATE, server=ok_server, seed=7, **kwargs):
    return BrowserSession(seed, mode, vault(), server, **kwargs)


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


@pytest.mark.parametrize("method", ["PUT", "post", ""])
def test_a_request_of_an_unsupported_method_is_refused(method):
    """The method is the one part of a request its caller picks: a client, a
    page's fetch, or a form whose method slot was reassigned after it was
    built."""
    message = re.escape(f"unsupported method {method!r}")
    url = Url.parse("https://bank.example/q")
    with pytest.raises(ValueError, match=message):
        build_request(None, method, url, (("a", "1"),), 1)
    session = make_session()
    page = session.new_page(ORIGIN)
    with pytest.raises(ValueError, match=message):
        session.fetch(page, url, method=method, body_entries=(("a", "1"),))
    add_login_form(page)
    page.form("login").method = method
    with pytest.raises(ValueError, match=message):
        session.submit(page, "login")


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
    session = make_session(mode)
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
    elif mode is DefenseMode.DESIGN4_API_EARLY:
        # hop 1's approval pinned /login, so hop 2 to /login2 is refused and
        # carries the nonce it was submitted with
        assert first.wire.url.path == "/login2"
        assert first.wire.body.entries == first.request.body.entries
        assert "2 substitutionRefused !browser - check=3" in browser_events(first)
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


@pytest.mark.parametrize(
    "mode", [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3]
)
def test_redirect_to_another_site_carries_the_nonce_not_the_password(mode):
    session = make_session(mode)
    session.host.install(ExtensionManifest("thief", frozenset({Permission.WEB_REQUEST})))
    steal = Url.parse("https://evil.example/steal")

    def redirect(view):  # redirects request 1 only
        return Redirect(steal) if view.request_id == 1 else None

    session.host.register_listener("thief", Stage.ON_BEFORE_SEND_HEADERS, redirect, blocking=True)
    result = login_flow(session)
    assert result.wire.url.host == "evil.example"
    (nonce,) = [v for n, v in result.request.body.entries if n == "password"]
    assert nonce != PASSWORD
    assert ("password", nonce) in result.wire.body.entries
    assert "2 substitutionRefused !browser - check=3" in browser_events(result)


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
    "mode",
    [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3],
)
def test_nonce_login_parses_no_url(monkeypatch, mode):
    """The checks read the request's own Url off the view."""
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
    assert parsed == []


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


def test_nonce_free_logins_are_the_same_in_every_leg_and_stage_off_lacks_one_delivery():
    """The idle contract through real sessions: every mode, and design5 with
    the credential stage compiled out, sends the same wire bytes and gets the
    same verdict; design5's transcript adds only the idle substitute line."""
    sites = [
        SiteProfile(category, category, Origin("https", f"{category}.example", 443))
        for category in ("plain_post", "hashes_password", "transforms_password")
    ]
    legs = [(mode, True) for mode in DefenseMode] + [(DefenseMode.DESIGN5_API_LATE, False)]
    sessions = []
    for mode, stage_enabled in legs:
        farm = ServerFarm(7)
        for profile in sites:
            farm.add_site(profile, PASSWORD)
        sessions.append(
            BrowserSession(7, mode, [], farm.serve, credential_stage_enabled=stage_enabled)
        )
    design5 = legs.index((DefenseMode.DESIGN5_API_LATE, True))
    for profile in sites:
        for typed in (PASSWORD, "wrong-password"):
            seen, transcripts = set(), []
            for session in sessions:
                page, form_id = build_login_page(session, profile)
                form = page.form(form_id)
                form.field_named("username").value = "alice"
                form.field_named("password").value = typed
                result = session.submit(page, form_id)
                wire = result.wire
                seen.add((wire.method, str(wire.url), wire.headers, wire.body_bytes(), result.verdict))
                transcripts.append(result.transcript.to_text().splitlines())
            if typed == PASSWORD:
                expected = "auth_ok"
            else:  # a hashing site checks its hash field first
                expected = "integrity_fail" if profile.category == "hashes_password" else "auth_fail"
            assert len(seen) == 1 and seen.pop()[-1] == expected, (profile.category, typed)
            kept = [line for line in transcripts[design5] if " manager.substitute " not in line]
            assert kept == transcripts[-1]
            assert len(transcripts[design5]) == len(kept) + 1


@pytest.mark.parametrize("mode", list(DefenseMode))
def test_reset_session_replays_a_fresh_one(mode):
    fresh = login_flow(make_session(mode, seed=124, name="b"))
    session = make_session(mode, seed=123, name="a")
    first = login_flow(session)
    session.host.install(ExtensionManifest("spy", frozenset({Permission.WEB_REQUEST})))
    session.host.register_listener("spy", Stage.ON_SEND_HEADERS, lambda view: None)
    session.reset(124, vault(), name="b")
    again = login_flow(session)
    assert list(session.host.extensions) == ["noncepipe.manager"]
    assert again.request == fresh.request._replace(source_page=again.request.source_page)
    assert again.wire.body == fresh.wire.body
    assert again.transcript.to_text() == fresh.transcript.to_text()
    if mode not in (DefenseMode.BASELINE, DefenseMode.DESIGN3_DOM):
        # the request carries a nonce, drawn from the new seed
        assert again.request.body != first.request.body


def test_reset_forgets_the_nonces_of_a_page_still_alive():
    session = make_session()
    old = session.new_page(ORIGIN)
    add_login_form(old)
    session.autofill(old, "login")
    session.reset(7, vault())
    assert session.host.nonces.page(old.page_id) is None
    page = session.new_page(ORIGIN)
    assert page.page_id == old.page_id
    add_login_form(page)
    record = session.autofill(page, "login")
    del old
    gc.collect()
    # the old page's going drops nothing of the new page of the same id
    assert session.host.nonces.page(page.page_id).records == {record.nonce: record}
    assert session.submit(page, "login").wire.body.entries[1] == ("password", PASSWORD)


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


def begin_url(kind, username="alice"):
    return Url(SSO.scheme, SSO.host, SSO.port, BEGIN_PATH, (("kind", kind), ("username", username)))


FINISH_URL = Url(SSO.scheme, SSO.host, SSO.port, FINISH_PATH)


def fido2_session(defended: bool, seed=7):
    rp = RelyingParty(SSO, substream(seed, "rp"), defense_enabled=defended)
    session = BrowserSession(seed, DefenseMode.DESIGN5_API_LATE, vault(), rp_server(rp))
    return session, rp


def test_defended_register_and_authenticate_succeed():
    session, rp = fido2_session(defended=True)
    page = session.new_page(SSO)
    assert session.fido2_ceremony(page, SSO, REGISTRATION, "alice")[1].verdict == "accepted"
    assert session.fido2_ceremony(page, SSO, AUTHENTICATION, "alice")[1].verdict == "accepted"
    assert rp.accounts["alice"].counter == 1


def test_legacy_register_and_authenticate_succeed():
    session, rp = fido2_session(defended=False)
    page = session.new_page(SSO)
    assert session.fido2_ceremony(page, SSO, REGISTRATION, "alice")[1].verdict == "accepted"
    assert session.fido2_ceremony(page, SSO, AUTHENTICATION, "alice")[1].verdict == "accepted"


def test_defended_finish_rides_in_injected_header():
    session, _ = fido2_session(defended=True)
    page = session.new_page(SSO)
    _, result = session.fido2_ceremony(page, SSO, REGISTRATION, "alice")
    assert result.wire.header(HEADER_RESPONSE) is not None
    # what the page posted in the body is a dummy, not the parked response
    body_payload = dict(result.wire.body.entries)["webauthn"]
    assert body_payload != result.wire.header(HEADER_RESPONSE)
    assert any(e.label == "fido2Inject" for e in result.transcript.events)


def test_legacy_finish_rides_in_body():
    session, _ = fido2_session(defended=False)
    page = session.new_page(SSO)
    _, result = session.fido2_ceremony(page, SSO, REGISTRATION, "alice")
    assert result.wire.header(HEADER_RESPONSE) is None
    assert any(n == "webauthn" for n, _ in result.wire.body.entries)


def test_defended_page_sees_only_dummy_challenge():
    session, rp = fido2_session(defended=True)
    page = session.new_page(SSO)
    begin = session.fetch(page, begin_url(REGISTRATION))
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
    begin, finish = session.fido2_ceremony(page, SSO, REGISTRATION, "alice")
    assert finish.verdict == "accepted"
    labels = [e.label for e in begin.transcript.events]
    assert "fido2Strip" in labels
    assert labels.index("fido2Strip") < labels.index("onHeadersReceived")
    # nothing the observer saw names the channel headers
    assert all(not s.startswith(("webauthn_request:", "webauthn_req:", "URL_resp:")) for s in ext.observations)


def test_strip_runs_before_any_headers_received_delivery():
    session, _ = fido2_session(defended=True)
    order: list[str] = []
    store = session.secure_store
    strip_and_store = store.strip_and_store

    def strip(response, page_id):
        order.append("strip")
        return strip_and_store(response, page_id)

    store.strip_and_store = strip
    session.host.install(ExtensionManifest("observer", frozenset({Permission.WEB_REQUEST})))
    session.host.register_listener(
        "observer", Stage.ON_HEADERS_RECEIVED, lambda v: order.append("ohr"), listener_id="obs.ohr"
    )
    begin = session.fetch(session.new_page(SSO), begin_url(REGISTRATION))
    assert order == ["strip", "ohr"]
    assert begin.response.header(HEADER_REQUEST) is None
    labels = [e.label for e in begin.transcript.events]
    assert labels.index("fido2Strip") < labels.index("onHeadersReceived")


def test_a_response_without_channel_headers_records_no_strip():
    session, _ = fido2_session(defended=False)  # the legacy begin sends no channel headers
    session.host.install(ExtensionManifest("observer", frozenset({Permission.WEB_REQUEST})))
    session.host.register_listener("observer", Stage.ON_HEADERS_RECEIVED, lambda v: None)
    begin = session.fetch(session.new_page(SSO), begin_url(REGISTRATION))
    assert begin.verdict == "begin"
    assert all(e.label != "fido2Strip" for e in begin.transcript.events)


def test_listeners_cannot_change_a_strip_event_line():
    session, _ = fido2_session(defended=True)
    blocked: list[tuple[Stage, str]] = []

    def tamper(view):
        for name in view._fields + ("extra",):
            try:
                setattr(view, name, "forged")
            except AttributeError:
                blocked.append((view.stage, name))

    session.host.install(ExtensionManifest("tamperer", frozenset({Permission.WEB_REQUEST})))
    stages = [stage for stage in Stage if stage is not Stage.ON_REQUEST_CREDENTIALS]
    for stage in stages:
        session.host.register_listener("tamperer", stage, tamper)
    begin = session.fetch(session.new_page(SSO), begin_url(REGISTRATION))
    assert blocked == [(stage, name) for stage in stages for name in StageView._fields + ("extra",)]
    (strip,) = [e for e in begin.transcript.events if e.label == "fido2Strip"]
    lines = begin.transcript.to_text()
    assert "forged" not in lines
    for name in TranscriptEvent._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(strip, name, None)
    assert begin.transcript.to_text() == lines


def test_reset_builds_no_fido2_object(monkeypatch):
    session = make_session()
    built: list[str] = []
    for cls in (SecureStore, AuthenticatorDevice):
        init = cls.__init__

        def counted(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    store, device = session.secure_store, session.device
    for seed in range(50):
        session.reset(seed, vault())
        assert login_flow(session).wire.body.entries[1] == ("password", PASSWORD)
    assert built == []
    assert (session.secure_store, session.device) == (store, device)


def test_reset_drops_a_payload_parked_for_an_old_page():
    session, _ = fido2_session(defended=True)
    page = session.new_page(SSO)
    session.fetch(page, begin_url(REGISTRATION))
    page.webauthn.create(page.rendered_text)  # the real response is parked for page-1
    # the finish is never sent; after the reset a new page-1 posts to its URL
    session.reset(7, vault())
    new_page = session.new_page(SSO)
    assert new_page.page_id == page.page_id
    result = session.fetch(new_page, FINISH_URL, method="POST", body_entries=(("webauthn", "{}"),))
    assert result.wire.header(HEADER_RESPONSE) is None
    assert all(e.label != "fido2Inject" for e in result.transcript.events)


def test_ceremony_returns_its_begin_and_finish_flows():
    session, _ = fido2_session(defended=True)
    begin, finish = session.fido2_ceremony(session.new_page(SSO), SSO, REGISTRATION, "alice")
    assert begin.wire.url == begin_url(REGISTRATION) and begin.verdict == "begin"
    assert finish.wire.url == FINISH_URL and finish.verdict == "accepted"
    events = [[e.label for e in f.transcript.events if type(e) is TranscriptEvent] for f in (begin, finish)]
    assert events == [["fido2Strip"], ["fido2Inject"]]
