"""Site harness: page construction, digest-only servers, the compat survey."""

import ast
import base64
import hashlib
from pathlib import Path

import pytest

from noncepipe import http_model, sites
from noncepipe.adversaries import CAPTURE_ORIGIN
from noncepipe.dom import Field, FieldKind, Form, HookKind, ScriptHandle, SetFormAction, SubmitHook
from noncepipe.dom import attach_script, script_mutate, submit_form
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import MalformedPayload
from noncepipe.http_model import (
    URLENCODED,
    ChannelSecurity,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    sha256_hex,
)
from noncepipe import rng
from noncepipe.pipeline import DefenseMode, Stage, VaultEntry
from noncepipe.session import BrowserSession
from noncepipe.sites import (
    CATEGORIES,
    FIXTURE_COUNTS,
    LOGIN_CATEGORIES,
    LOGIN_PATH,
    LOGIN_SHAPES,
    REFLECT_PATH,
    CompatReport,
    CorpusFormatError,
    LoginShape,
    ServerFarm,
    SiteProfile,
    UnknownEndpoint,
    World,
    build_fixture_corpus,
    build_login_page,
    compat_evaluate,
    generate_password,
    parse_corpus,
    site_vault_entry,
)

ORIGIN = Origin("https", "site.example", 443)


def profile(category="plain_post", origin=ORIGIN, options=(), site_id="s1") -> SiteProfile:
    return SiteProfile(site_id=site_id, category=category, origin=origin, options=tuple(options))


def farm_with(profile_, password="hunter2-secret", **kwargs):
    farm = ServerFarm(seed=1)
    state = farm.add_site(profile_, password, **kwargs)
    return farm, state


def login_post(entries, *, path="/login", request_id=1, origin=ORIGIN):
    body = RequestBody.urlencoded(tuple(entries))
    return WebRequestRecord(
        request_id,
        "POST",
        Url(origin.scheme, origin.host, origin.port, path),
        headers=(("Content-Type", URLENCODED),),
        body=body,
    )


# ---------------------------------------------------------------------------
# profiles and passwords
# ---------------------------------------------------------------------------


def test_profile_rejects_unknown_category():
    with pytest.raises(ValueError):
        SiteProfile("x", "mystery", ORIGIN)


def test_profile_option_lookup():
    p = profile(options=(("reflect", "password"),))
    assert p.option("reflect") == "password"
    assert p.option("missing", "dflt") == "dflt"


def test_generate_password_deterministic():
    assert generate_password(1, "s1") == generate_password(1, "s1")
    assert generate_password(1, "s1") != generate_password(1, "s2")
    assert generate_password(1, "s1") != generate_password(2, "s1")
    assert len(generate_password(1, "s1")) == 12


@pytest.mark.parametrize(
    "seed, site_id, password",
    [(7, "s1", "pi94^UzSg)xy"), (7, "s2", "wFMcv-sttpj."), (2**128, "ünïcode", "8M_II$q*q8)Z")],
)
def test_generate_password_draws_the_spec_vectors(seed, site_id, password):
    # the stream spec's vectors: README and the hashlib-only reference in test_rng
    assert generate_password(seed, site_id) == password


def test_site_vault_entry_option_overrides_generated():
    entry = site_vault_entry(profile(options=(("password", "abc"),)), seed=1)
    assert entry.password == "abc"
    assert entry.username == "alice"
    generated = site_vault_entry(profile(), seed=1)
    assert generated.password == generate_password(1, "s1")


def test_fixture_corpus_counts():
    corpus = build_fixture_corpus()
    assert len(corpus) == 573
    by_category: dict[str, int] = {}
    for p in corpus:
        by_category[p.category] = by_category.get(p.category, 0) + 1
    assert by_category == FIXTURE_COUNTS
    assert len({p.site_id for p in corpus}) == 573
    assert len({str(p.origin) for p in corpus}) == 573


# ---------------------------------------------------------------------------
# page construction
# ---------------------------------------------------------------------------


def session_for(profile_, password="hunter2-secret"):
    farm, _ = farm_with(profile_, password)
    vault = [VaultEntry(profile_.origin, "alice", password)]
    return BrowserSession(3, DefenseMode.DESIGN5_API_LATE, vault, farm.serve)


def test_build_plain_login_page():
    session = session_for(profile())
    page, form_id = build_login_page(session, profile())
    form = page.form(form_id)
    assert form.method == "POST"
    assert form.action.path == "/login"
    assert form.action.origin == ORIGIN
    assert [f.kind for f in form.fields] == [FieldKind.TEXT, FieldKind.PASSWORD]
    assert form.submit_hooks == []


def test_build_get_submit_page():
    p = profile(category="get_submit")
    page, form_id = build_login_page(session_for(p), p)
    assert page.form(form_id).method == "GET"


def test_build_iframe_login_page():
    p = profile(category="iframe_login")
    page, _ = build_login_page(session_for(p), p)
    assert page.is_iframe is True


def test_build_http_submit_page():
    p = profile(category="http_submit")
    page, form_id = build_login_page(session_for(p), p)
    action = page.form(form_id).action
    assert (action.scheme, action.port) == ("http", 80)


def test_build_hashing_page_hooks():
    p = profile(category="hashes_password")
    page, form_id = build_login_page(session_for(p), p)
    kinds = [h.kind for h in page.form(form_id).submit_hooks]
    assert kinds == [HookKind.COPY_FIELD, HookKind.SHA256_FIELD]


def test_build_transforming_page_hooks():
    p = profile(category="transforms_password")
    page, form_id = build_login_page(session_for(p), p)
    (hook,) = page.form(form_id).submit_hooks
    assert hook.kind is HookKind.BASE64_FIELD
    assert hook.field_name == "password"


def test_build_fido2_page_has_no_form():
    p = profile(category="fido2")
    page, form_id = build_login_page(session_for(p), p)
    assert form_id == ""
    assert page.forms == {}


def test_build_page_bad_tls_option():
    p = profile(options=(("bad_tls", "1"),))
    page, _ = build_login_page(session_for(p), p)
    assert page.tls_overrides  # channel downgraded for the page origin


def _checked_login_form(profile_: SiteProfile) -> Form:
    """The login form as the checked constructor builds it."""
    shape = LOGIN_SHAPES[profile_.category]
    fields = [Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)]
    form = Form("login", profile_.login_action, shape.method, fields)
    form.submit_hooks.extend(shape.hooks)
    return form


def _form_state(form: Form) -> tuple:
    fields = [(f.name, f.kind, f.value) for f in form.fields]
    return form.form_id, form.action, form.method, fields, form.submit_hooks


# every login shape, a bad-TLS site and a fido2 site
DIFFERENTIAL_PROFILES = [
    profile(category, Origin("https", f"{category.replace('_', '-')}.example", 443), site_id=category)
    for category in LOGIN_SHAPES
] + [
    profile("plain_post", Origin("https", "tls.example", 443), (("bad_tls", "1"),), "tls"),
    profile("fido2", Origin("https", "sso.example", 443), site_id="sso"),
]


@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_login_page_equals_its_checked_build(mode):
    """The one-step page build gives what `Form(...)`, `Field(...)` and
    `Page.add_form` would: the same form field for field, the shape's hooks
    in order on a list of the page's own, and no field shared."""
    session = BrowserSession(3, mode, [], ServerFarm(1).serve)
    pages = []
    for p in DIFFERENTIAL_PROFILES:
        for _ in range(2):  # two pages of each site
            page, form_id = build_login_page(session, p)
            pages.append(page)
            shape = LOGIN_SHAPES.get(p.category)
            assert page.origin is p.origin
            assert page.is_iframe is (shape is not None and shape.in_iframe)
            bad_tls = {p.origin: ChannelSecurity.BAD_TLS} if p.option("bad_tls") == "1" else {}
            assert page.tls_overrides == bad_tls
            if shape is None:
                assert (form_id, page.forms) == ("", {})
                continue
            assert form_id == "login" and list(page.forms) == ["login"]
            form = page.form(form_id)
            assert _form_state(form) == _form_state(_checked_login_form(p))  # hooks: a list, in order
    hook_lists = [form.submit_hooks for page in pages for form in page.forms.values()]
    fields = [f for page in pages for form in page.forms.values() for f in form.fields]
    assert len({id(h) for h in hook_lists}) == len(hook_lists) == 2 * len(LOGIN_SHAPES) + 2
    assert len({id(f) for f in fields}) == len(fields) == 2 * len(hook_lists)
    assert len({page.page_id for page in pages}) == len(pages)


def test_login_page_build_checks_the_shape_method(monkeypatch):
    monkeypatch.setitem(LOGIN_SHAPES, "plain_post", LoginShape("PUT"))
    p = profile()
    with pytest.raises(ValueError, match="unsupported form method 'PUT'"):
        build_login_page(session_for(p), p)


def test_pages_of_one_profile_share_its_login_action():
    p = profile()
    session = session_for(p)
    (page1, form1), (page2, form2) = build_login_page(session, p), build_login_page(session, p)
    assert page1.form(form1) is not page2.form(form2)
    assert page1.form(form1).action is page2.form(form2).action is p.login_action
    assert p.login_action == Url.parse("https://site.example/login")
    assert profile(category="http_submit").login_action == Url.parse("http://site.example/login")


def test_script_retarget_leaves_other_pages_and_the_profile_alone():
    p = profile()
    session = session_for(p)
    (page1, form1), (page2, form2) = build_login_page(session, p), build_login_page(session, p)
    action = p.login_action
    script = ScriptHandle("s1")
    attach_script(page1, script)
    evil = Url.parse("https://evil.example/sink")
    script_mutate(script, page1, SetFormAction(form1, evil))
    assert page1.form(form1).action == evil
    assert page2.form(form2).action is action and p.login_action is action
    assert action == Url.parse("https://site.example/login")


# ---------------------------------------------------------------------------
# servers
# ---------------------------------------------------------------------------


def test_serve_unknown_origin_raises():
    farm = ServerFarm()
    with pytest.raises(UnknownEndpoint):
        farm.serve(login_post((("a", "1"),), origin=Origin("https", "ghost.example", 443)))


def test_login_verdicts_plain():
    farm, state = farm_with(profile())
    ok, verdict = farm.serve(login_post((("username", "alice"), ("password", "hunter2-secret"),)))
    assert (verdict, ok.status) == ("auth_ok", 200)
    bad, verdict = farm.serve(login_post((("password", "wrong"),)))
    assert (verdict, bad.status) == ("auth_fail", 403)


def test_login_verdict_hash_site():
    farm, _ = farm_with(profile(category="hashes_password"))
    pw_hash = hashlib.sha256(b"hunter2-secret").hexdigest()
    _, verdict = farm.serve(
        login_post((("password", "hunter2-secret"), ("pw_hash", pw_hash)))
    )
    assert verdict == "auth_ok"
    # a nonce that was hashed client-side breaks the integrity check
    _, verdict = farm.serve(
        login_post((("password", "hunter2-secret"), ("pw_hash", hashlib.sha256(b"NONCE").hexdigest())))
    )
    assert verdict == "integrity_fail"
    _, verdict = farm.serve(login_post((("password", "hunter2-secret"),)))
    assert verdict == "integrity_fail"


def test_login_verdict_transform_site():
    farm, _ = farm_with(profile(category="transforms_password"))
    encoded = base64.b64encode(b"hunter2-secret").decode()
    _, verdict = farm.serve(login_post((("password", encoded),)))
    assert verdict == "auth_ok"
    _, verdict = farm.serve(login_post((("password", "hunter2-secret"),)))
    assert verdict == "auth_fail"


def test_login_get_reads_query():
    farm, _ = farm_with(profile(category="get_submit"))
    request = WebRequestRecord(
        1,
        "GET",
        Url("https", "site.example", 443, "/login", (("password", "hunter2-secret"),)),
    )
    _, verdict = farm.serve(request)
    assert verdict == "auth_ok"


def test_login_verdict_reads_the_first_of_a_repeated_field():
    farm, _ = farm_with(profile())
    sent = (("password", "hunter2-secret"), ("password", "wrong"))
    assert farm.serve(login_post(sent))[1] == "auth_ok"
    assert farm.serve(login_post(sent[::-1]))[1] == "auth_fail"
    farm, _ = farm_with(profile(category="hashes_password"))
    pw_hash = hashlib.sha256(b"hunter2-secret").hexdigest()
    sent = (("password", "hunter2-secret"), ("pw_hash", pw_hash), ("pw_hash", "0" * 64))
    assert farm.serve(login_post(sent))[1] == "auth_ok"
    assert farm.serve(login_post((sent[0], sent[2], sent[1])))[1] == "integrity_fail"


def test_login_verdict_reads_a_missing_field_as_empty():
    farm, _ = farm_with(profile(), password="")
    assert farm.serve(login_post((("username", "alice"),)))[1] == "auth_ok"
    assert farm.serve(login_post((("password", "x"),)))[1] == "auth_fail"


def test_fido2_begin_reads_the_first_kind_and_username():
    farm, state = farm_with(profile(category="fido2", site_id="sso"), fido2_defense=False)
    query = (("kind", "registration"), ("username", "alice"), ("kind", "authentication"), ("username", "eve"))
    response, verdict = farm.serve(
        WebRequestRecord(1, "GET", Url("https", "site.example", 443, "/webauthn/begin", query))
    )
    assert verdict == "begin:registration"
    assert list(state.rp.outstanding.values()) == [("registration", "alice")]
    # a begin with no kind reads it as "", which the relying party refuses
    with pytest.raises(MalformedPayload, match="unknown begin kind ''"):
        farm.serve(
            WebRequestRecord(1, "GET", Url("https", "site.example", 443, "/webauthn/begin", query[1:2]))
        )


def test_unknown_path_is_404():
    farm, _ = farm_with(profile())
    response, verdict = farm.serve(login_post((("a", "1"),), path="/elsewhere"))
    assert (response.status, verdict) == (404, "not_found")


def test_reflect_endpoint_all_fields():
    farm, _ = farm_with(profile(category="reflecting"))
    response, verdict = farm.serve(
        login_post((("username", "alice"), ("password", "pw")), path="/reflect")
    )
    assert verdict == "reflected"
    assert response.body.decode() == "username=alice\npassword=pw"


def test_reflect_endpoint_named_subset():
    farm, _ = farm_with(profile(category="reflecting", options=(("reflect", "username"),)))
    response, _ = farm.serve(
        login_post((("username", "alice"), ("password", "pw")), path="/reflect")
    )
    assert response.body.decode() == "username=alice"


def test_reflect_path_only_on_reflecting_sites():
    farm, _ = farm_with(profile(category="plain_post"))
    response, verdict = farm.serve(login_post((("a", "1"),), path="/reflect"))
    assert (response.status, verdict) == (404, "not_found")


def test_capture_origin_records_and_responds():
    farm = ServerFarm()
    sink: list[str] = []
    evil = Origin("https", "evil.example", 443)
    farm.add_capture_origin(evil, sink)
    response, verdict = farm.serve(login_post((("password", "stolen"),), origin=evil))
    assert verdict == "captured"
    assert response.body == b"captured"
    assert sink == ["https://evil.example/login", "password=stolen"]


def test_server_log_stores_digests_not_secrets():
    farm, state = farm_with(profile())
    request = login_post((("password", "hunter2-secret"),))
    farm.serve(request)
    assert state.expected == (("password", sha256_hex("hunter2-secret")),)
    assert "hunter2-secret" not in repr(state)


@pytest.mark.parametrize("mode", [DefenseMode.BASELINE, DefenseMode.DESIGN4_API_EARLY])
def test_server_digest_is_the_transcript_digest_hashed_once(mode, monkeypatch):
    # baseline sends what listeners saw; design4 shows them the substituted body
    hashed: list[bytes] = []
    real = http_model.sha256_hex

    def counting(data):
        hashed.append(data)
        return real(data)

    # every module that binds the hash; views hash through RequestBody.digest
    for module in (http_model, sites):
        monkeypatch.setattr(module, "sha256_hex", counting)
    site = profile()
    entry = site_vault_entry(site, seed=3)
    farm = ServerFarm(seed=3)
    farm.add_site(site, entry.password)
    session = BrowserSession(3, mode, [entry], farm.serve)
    watcher = ExtensionManifest("watcher", frozenset({Permission.WEB_REQUEST}))
    session.host.install(watcher)
    session.host.register_listener("watcher", Stage.ON_SEND_HEADERS, lambda view: None)
    page, form_id = build_login_page(session, site)
    session.autofill(page, form_id)
    result = session.submit(page, form_id)
    assert result.verdict == "auth_ok"
    (event,) = [e for e in result.transcript.deliveries() if e.label == "onSendHeaders"]
    assert event.digest == real(result.wire.body.raw)
    assert hashed.count(result.wire.body.raw) == 1


@pytest.mark.parametrize(
    "category, hashes",
    [("plain_post", 1), ("get_submit", 1), ("hashes_password", 2), ("transforms_password", 1), ("fido2", 0)],
)
def test_add_site_hashes_only_the_digests_its_login_reads(category, hashes, monkeypatch):
    hashed: list[str] = []
    real = http_model.sha256_hex

    def counting(data):
        hashed.append(data)
        return real(data)

    for module in (http_model, sites):
        monkeypatch.setattr(module, "sha256_hex", counting)
    farm, _ = farm_with(profile(category=category))
    assert len(hashed) == hashes
    assert "hunter2-secret" not in hashed[1:]  # a second digest hashes the first


def test_unread_transcript_hashes_no_body(monkeypatch):
    # a nonce-free design5 login: the manager's listeners and a watcher see
    # the body, but no one reads the transcript until the flow is over
    hashed: list[bytes | str] = []
    real = http_model.sha256_hex

    def counting(data):
        hashed.append(data)
        return real(data)

    for module in (http_model, sites):
        monkeypatch.setattr(module, "sha256_hex", counting)
    site = profile()
    farm = ServerFarm(seed=3)
    farm.add_site(site, "hunter2-secret")
    session = BrowserSession(3, DefenseMode.DESIGN5_API_LATE, [], farm.serve)
    watcher = ExtensionManifest("watcher", frozenset({Permission.WEB_REQUEST}))
    session.host.install(watcher)
    for stage in (Stage.ON_SEND_HEADERS, Stage.ON_COMPLETED):
        session.host.register_listener("watcher", stage, lambda view: None)
    page, form_id = build_login_page(session, site)
    page.form(form_id).field_named("username").value = "alice"
    page.form(form_id).field_named("password").value = "hunter2-secret"
    result = session.submit(page, form_id)
    assert result.verdict == "auth_ok"
    body = result.wire.body.raw
    deliveries = result.transcript.deliveries()
    assert any(event.view.body == body for event in deliveries)
    assert not any(isinstance(data, bytes) for data in hashed)

    lines = result.transcript.to_text().splitlines()
    expected = []
    for event in deliveries:
        view = event.view
        digest = real(view.body) if view.body is not None else "-"
        expected.append(
            f"{view.request_id} {view.stage.value} {event.listener_id} {view.body_view.value} {digest}"
        )
    assert lines == expected
    assert [line.split()[1:3] for line in lines] == [
        ["onBeforeRequest", "manager.validate"],
        ["onSendHeaders", "watcher.L3"],
        ["onRequestCredentials", "manager.substitute"],
        ["onCompleted", "watcher.L4"],
    ]
    assert hashed.count(body) == 1  # hashed on the first read, then kept
    assert result.transcript.to_text().splitlines() == lines
    assert hashed.count(body) == 1


def test_fido2_site_serves_begin_and_rejects_other_paths():
    p = profile(category="fido2", site_id="sso")
    farm, state = farm_with(p)
    begin = WebRequestRecord(
        1,
        "GET",
        Url("https", "site.example", 443, "/webauthn/begin", (("kind", "authentication"), ("username", "a"))),
    )
    response, verdict = farm.serve(begin)
    assert verdict == "begin:authentication"
    assert response.header("webauthn_request") is not None  # defense on by default
    _, verdict = farm.serve(login_post((("a", "1"),), path="/other"))
    assert verdict == "not_found"


def test_fido2_site_defense_toggle():
    p = profile(category="fido2", site_id="sso")
    farm, state = farm_with(p, fido2_defense=False)
    begin = WebRequestRecord(
        1,
        "GET",
        Url("https", "site.example", 443, "/webauthn/begin", (("kind", "authentication"), ("username", "a"))),
    )
    response, _ = farm.serve(begin)
    assert response.headers == ()  # legacy: real request in body


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def test_parse_corpus_happy_path(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "# comment\n"
        "\n"
        "plain_post\thttps://a.example\t-\n"
        "reflecting\thttps://b.example\treflect=username+password,bad_tls=1\n"
    )
    profiles = parse_corpus(path)
    assert len(profiles) == 2
    assert profiles[0].category == "plain_post"
    assert profiles[0].options == ()
    assert profiles[1].options == (("reflect", "username+password"), ("bad_tls", "1"))
    assert profiles[1].site_id == "line4-b.example"


@pytest.mark.parametrize(
    "line,lineno",
    [
        ("plain_post\thttps://a.example", 2),
        ("mystery\thttps://a.example\t-", 2),
        ("plain_post\tnot a url\t-", 2),
        ("plain_post\thttps://a.example\tnoequals", 2),
        ("fido2\thttps://a.example\t-", 2),  # no password form to survey
        ("plain_post\thttps://a.example\tpassword=\udcff", 2),  # not UTF-8
        ("plain_post\thttps://a.example\tbad_tls=yes,colour=red", 2),
        ("plain_post\thttps://a.example\tcolour=red", 2),  # unknown key
        ("plain_post\thttps://a.example\tbad_tls=2", 2),  # bad_tls is 0 or 1
        ("reflecting\thttps://a.example\tpinning=1", 2),  # a scenario key
        ("plain_post\thttps://a.example\tbad_tls=0,bad_tls=1", 2),  # a key at most once
        ("plain_post\thttps://a.example\tbad_tls=1,bad_tls=0", 2),
        ("reflecting\thttps://a.example\treflect=username,password=x,reflect=username", 2),
        ("plain_post\thttps://a.example\treflect=all", 2),  # only `reflecting` reads it
        ("iframe_login\thttps://a.example\tbad_tls=1,reflect=username", 2),
        ("reflecting\thttps://a.example\treflect=", 2),  # each field name non-empty
        ("reflecting\thttps://a.example\treflect=password+", 2),
        ("reflecting\thttps://a.example\treflect=+username", 2),
        ("reflecting\thttps://a.example\treflect=username++password", 2),
    ],
)
def test_parse_corpus_errors_carry_line_numbers(tmp_path, line, lineno):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(("# header\n" + line + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(CorpusFormatError) as exc:
        parse_corpus(path)
    assert exc.value.line_number == lineno


# ---------------------------------------------------------------------------
# compatibility survey
# ---------------------------------------------------------------------------


def tiny_corpus():
    return [
        SiteProfile("plain-a", "plain_post", Origin("https", "a.example", 443)),
        SiteProfile("hash-b", "hashes_password", Origin("https", "b.example", 443)),
        SiteProfile("xform-c", "transforms_password", Origin("https", "c.example", 443)),
        SiteProfile(
            "short-d",
            "plain_post",
            Origin("https", "d.example", 443),
            options=(("password", "abc"),),
        ),
    ]


def test_compat_classifications_on_tiny_corpus():
    report = compat_evaluate(tiny_corpus(), seed=11)
    by_id = {r.site_id: r for r in report.records}

    plain = by_id["plain-a"]
    assert plain.classification == "compatible"
    assert plain.wire_identical is True
    assert plain.verdict_baseline == plain.verdict_defended == "auth_ok"

    hashed = by_id["hash-b"]
    assert hashed.classification == "hash_broken"
    assert hashed.verdict_defended == "integrity_fail"

    transformed = by_id["xform-c"]
    assert transformed.classification == "transform_broken"
    assert transformed.verdict_defended == "auth_fail"
    assert transformed.password_on_wire is False  # defense held even in failure

    short = by_id["short-d"]
    assert short.classification == "excluded"
    assert short.wire_identical is None


def test_explicit_empty_password_is_excluded_like_a_short_one(tmp_path):
    # `password=` is the site's password, not a request for a generated one
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "plain_post\thttps://a.example\tpassword=\n"
        "plain_post\thttps://b.example\tpassword=abc\n",
        encoding="utf-8",
    )
    profiles = parse_corpus(path)
    assert site_vault_entry(profiles[0], seed=11).password == ""
    report = compat_evaluate(profiles, seed=11)
    assert [r.classification for r in report.records] == ["excluded", "excluded"]
    assert report.excluded() == [p.site_id for p in profiles]


def test_compat_percentages_exclude_short_passwords():
    report = compat_evaluate(tiny_corpus(), seed=11)
    assert report.included_total() == 3
    assert report.excluded() == ["short-d"]
    assert report.percentage("compatible") == 33.3
    assert report.percentage("hash_broken") == 33.3
    assert report.percentage("transform_broken") == 33.3


def test_compat_report_rendering_and_json():
    report = compat_evaluate(tiny_corpus(), seed=11)
    text = report.render_text()
    assert "fixture" not in text  # only the built-in corpus claims its proportions
    assert text.splitlines()[:2] == ["compatibility survey (defense=design5_api_late, seed=11)", ""]
    assert "excluded (password too short): short-d" in text
    assert "plain differential: byte-identical" in text

    data = report.to_json()
    assert data["kind"] == "compat"
    assert data["included"] == 3
    assert data["percent"]["compatible"] == 33.3
    assert "note" not in data


def test_only_the_fixture_report_states_the_fixture_proportions():
    assert "note" not in compat_evaluate(build_fixture_corpus()[:1], seed=11).to_json()
    report = CompatReport(11, DefenseMode.DESIGN5_API_LATE, [], fixture=True)
    assert report.render_text().splitlines()[1:4] == [
        "# corpus is a synthetic fixture; category proportions mirror a survey",
        "# of real login flows (554 plain / 11 hash / 8 transform of 573)",
        "",
    ]
    assert "fixture" in report.to_json()["note"]


@pytest.mark.parametrize("mode", [DefenseMode.BASELINE, DefenseMode.DESIGN5_API_LATE])
def test_compat_finds_a_form_encoded_password_on_the_wire(mode):
    # '!' is percent-encoded in the body, so a raw byte scan misses it
    site = profile(site_id="bang", options=[("password", "hunter2!secret")])
    (record,) = compat_evaluate([site], seed=11, defense=mode).records
    assert record.verdict_defended == "auth_ok"
    assert record.password_on_wire is True


def test_compat_reads_a_get_logins_credentials_from_its_url():
    site = SiteProfile("g", "get_submit", Origin("https", "get.example", 443))
    (baseline,) = compat_evaluate([site], 7, DefenseMode.BASELINE).records
    assert baseline.verdict_defended == "auth_ok"
    assert baseline.password_on_wire is True
    (defended,) = compat_evaluate([site], 7, DefenseMode.DESIGN5_API_LATE).records
    assert defended.refused_check == 4  # the nonce stays in the query
    assert defended.wire_identical is False
    assert defended.password_on_wire is False


# the corpus the CI workflow runs
CI_CORPUS = Path(__file__).parent / "golden" / "ci_corpus.tsv"


@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_compat_records_equal_those_of_a_fresh_world_per_login(mode):
    """A run's two worlds share one farm and reset their sessions for every
    login; a run of one site builds a new farm and both worlds for it."""
    for corpus in (build_fixture_corpus(), parse_corpus(CI_CORPUS)):
        fresh = [record for p in corpus for record in compat_evaluate([p], 7, mode).records]
        assert compat_evaluate(corpus, 7, mode).records == fresh


@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_a_site_on_the_attackers_capture_origin_is_served_as_that_site(mode):
    """compat's worlds register no capture origin: a corpus row on the attack
    harness's capture origin logs in like any plain site."""
    (site,) = [p for p in parse_corpus(CI_CORPUS) if p.origin == CAPTURE_ORIGIN]
    (record,) = compat_evaluate([site], 7, mode).records
    assert (record.category, record.classification) == ("plain_post", "compatible")
    assert (record.verdict_baseline, record.verdict_defended) == ("auth_ok", "auth_ok")


def test_a_world_builds_its_session_at_its_first_login_and_resets_it_after():
    farm = ServerFarm(7)
    site = profile()
    entry = site_vault_entry(site, 7)
    farm.add_site(site, entry.password)
    world = World(DefenseMode.DESIGN4_API_EARLY, farm, pinning=False)
    assert world.session is None
    page, form_id = world.open(site, entry, 7, "first")
    session = world.session
    assert (session.defense_mode, session.manager.pinning_enabled) == (world.mode, False)
    assert (page.page_id, form_id, session.manager.vault) == ("page-1", "login", [entry])
    # its FIDO2 side is drawn from the first login's seed and name
    alone = BrowserSession(7, world.mode, [entry], farm.serve, name="first")
    assert session.device.rng.randbytes(16) == alone.device.rng.randbytes(16)
    world.session.autofill(page, form_id)
    assert world.session.submit(page, form_id).verdict == "auth_ok"

    page, _ = world.open(site, None, 8, "second")
    assert world.session is session
    assert (page.page_id, session.manager.vault) == ("page-1", [])


def _session_builds_and_resets(source: str) -> list[tuple[str, str]]:
    """(enclosing class or function path, call) for every `BrowserSession(...)`
    and every `.reset(...)` call in a module's source."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "BrowserSession" or (name == "reset" and isinstance(func, ast.Attribute)):
                    found.append((scope, name))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_only_the_world_builds_or_resets_a_session():
    """`World.open` is how every login starts: outside `World` nothing builds a
    `BrowserSession`, and nothing but its `__init__` resets one."""
    package = Path(sites.__file__).parent
    found = {
        (path.stem, scope, call)
        for path in sorted(package.glob("*.py"))
        for scope, call in _session_builds_and_resets(path.read_text(encoding="utf-8"))
    }
    allowed = {
        ("sites", "World.open", "BrowserSession"),
        ("sites", "World.open", "reset"),
        ("session", "BrowserSession.__init__", "reset"),
    }
    assert found == allowed


def test_the_session_scan_sees_a_hand_built_session_and_a_reset():
    source = (
        "def compat_evaluate(seed, mode, farm):\n"
        "    session = BrowserSession(seed, mode, (), farm.serve)\n"
        "    session.reset(seed, [])\n"
    )
    assert _session_builds_and_resets(source) == [
        ("compat_evaluate", "BrowserSession"), ("compat_evaluate", "reset")
    ]


def test_login_and_reflect_paths_are_the_served_endpoints():
    assert profile().login_action.path == LOGIN_PATH
    farm, _ = farm_with(profile("reflecting"))
    assert farm.serve(login_post([("q", "x")], path=REFLECT_PATH))[1] == "reflected"
    assert farm.serve(login_post([("password", "hunter2-secret")]))[1] == "auth_ok"


def test_compat_plain_sample_from_fixture_corpus():
    sample = [p for p in build_fixture_corpus() if p.category == "plain_post"][:5]
    report = compat_evaluate(sample, seed=11)
    assert all(r.classification == "compatible" for r in report.records)
    assert report.plain_differential_ok() is True


@pytest.mark.parametrize(
    "mode,extra_streams",
    [
        (DefenseMode.BASELINE, []),  # the manager fills the password itself
        (DefenseMode.DESIGN5_API_LATE, [("11", "login", "manager")]),  # it draws a nonce
    ],
)
def test_password_login_seeds_only_the_streams_it_draws(monkeypatch, mode, extra_streams):
    seeded = []
    shake_256 = rng.shake_256

    def recording(data):  # block 0 is hashed at a stream's first draw
        *names, block = data.decode("utf-8").split("\x1f")
        if block == "0":
            seeded.append(tuple(names))
        return shake_256(data)

    monkeypatch.setattr(rng, "shake_256", recording)
    site = profile()
    entry = site_vault_entry(site, seed=11)
    farm = ServerFarm(seed=11)
    farm.add_site(site, entry.password)
    session = BrowserSession(11, mode, [entry], farm.serve, name="login")
    page, form_id = build_login_page(session, site)
    session.autofill(page, form_id)
    assert session.submit(page, form_id).verdict == "auth_ok"
    # never drawn from: the FIDO2 dummies, the authenticator (and the manager in baseline)
    assert seeded == [("11", "vault", "s1")] + extra_streams


# the classification grid: every login category over https and plain http,
# each with no option, bad TLS, a long password, a short one, and bad TLS
# with the long one
GRID_OPTIONS = (
    (),
    (("bad_tls", "1"),),
    (("password", "x" * 40),),
    (("password", "abc"),),
    (("bad_tls", "1"), ("password", "x" * 40)),
)


def grid_corpus():
    return [
        SiteProfile(
            f"{category}-{scheme}-{index}",
            category,
            Origin(scheme, f"{category.replace('_', '-')}-{scheme}-{index}.example", port),
            options,
        )
        for category in LOGIN_CATEGORIES
        for scheme, port in (("https", 443), ("http", 80))
        for index, options in enumerate(GRID_OPTIONS)
    ]


# the policy refuses a swap over plain http or bad TLS: of a category's ten
# rows it lets through the two https ones with good TLS and a usable password
_POLICY = {"compatible": 2, "refused": 6, "excluded": 2}
GRID_COUNTS = {
    DefenseMode.BASELINE: {c: {"compatible": 8, "excluded": 2} for c in LOGIN_CATEGORIES},
    DefenseMode.DESIGN3_DOM: {
        "plain_post": {"compatible": 8, "excluded": 2},
        "hashes_password": {"hash_broken": 8, "excluded": 2},
        "transforms_password": {"transform_broken": 8, "excluded": 2},
        "get_submit": {"compatible": 8, "excluded": 2},
        "iframe_login": {"compatible": 8, "excluded": 2},
        # the DOM swap is guarded by the vault origin: an https site's nonce
        # rides to its plain-http submit origin
        "http_submit": {"compatible": 4, "incompatible": 4, "excluded": 2},
        "reflecting": {"compatible": 8, "excluded": 2},
    },
    **{
        mode: {
            "plain_post": _POLICY,
            "hashes_password": {"hash_broken": 2, "refused": 6, "excluded": 2},
            # the page encodes the nonce, so the stage finds none to refuse
            "transforms_password": {"transform_broken": 8, "excluded": 2},
            "get_submit": {"refused": 8, "excluded": 2},
            "iframe_login": {"refused": 8, "excluded": 2},
            "http_submit": {"refused": 8, "excluded": 2},
            "reflecting": _POLICY,
        }
        for mode in (DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3)
    },
}


@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_compat_classification_grid(mode):
    report = compat_evaluate(grid_corpus(), 7, mode)
    assert report.counts() == GRID_COUNTS[mode]


def test_a_new_login_shape_needs_no_new_branch(monkeypatch):
    # a chain no category names: the page encodes the password, then hashes it
    hooks = (SubmitHook(HookKind.BASE64_FIELD, "password"), SubmitHook(HookKind.SHA256_FIELD, "password"))
    monkeypatch.setitem(LOGIN_SHAPES, "encodes_then_hashes", LoginShape(hooks=hooks))
    site = profile(category="encodes_then_hashes", options=[("password", "hunter2-secret")])

    page, form_id = build_login_page(session_for(site), site)
    assert tuple(page.form(form_id).submit_hooks) == hooks
    page.form(form_id).field_named("password").value = "hunter2-secret"
    sent = submit_form(page, form_id).body.entries
    encoded = base64.b64encode(b"hunter2-secret")
    assert sent == (("username", ""), ("password", hashlib.sha256(encoded).hexdigest()))

    (baseline,) = compat_evaluate([site], 7, DefenseMode.BASELINE).records
    assert (baseline.verdict_defended, baseline.classification) == ("auth_ok", "compatible")
    (defended,) = compat_evaluate([site], 7, DefenseMode.DESIGN5_API_LATE).records
    assert defended.verdict_defended == "auth_fail"
    assert defended.password_on_wire is False
    assert defended.classification == "transform_broken"
