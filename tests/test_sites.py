"""Site harness: page construction, digest-only servers, the compat survey."""

import base64
import hashlib

import pytest

from noncepipe import http_model, sites
from noncepipe.dom import FieldKind, HookKind, Provenance, ScriptHandle, SetFormAction
from noncepipe.dom import attach_script, script_mutate
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.http_model import (
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    sha256_hex,
)
from noncepipe.manager import VaultEntry
from noncepipe import rng
from noncepipe.pipeline import DefenseMode, Stage
from noncepipe.session import BrowserSession
from noncepipe.sites import (
    CATEGORIES,
    FIXTURE_COUNTS,
    CorpusFormatError,
    ServerFarm,
    SiteProfile,
    UnknownEndpoint,
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
        headers=(("Content-Type", body.content_type),),
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
    script = ScriptHandle("s1", Provenance.XSS)
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
    assert state.password_digest == sha256_hex("hunter2-secret")
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
    assert "synthetic fixture" in text
    assert "excluded (password too short): short-d" in text
    assert "plain differential: byte-identical" in text

    data = report.to_json()
    assert data["kind"] == "compat"
    assert data["included"] == 3
    assert data["percent"]["compatible"] == 33.3
    assert "fixture" in data["note"]


def test_compat_plain_sample_from_fixture_corpus():
    sample = [p for p in build_fixture_corpus() if p.category == "plain_post"][:5]
    report = compat_evaluate(sample, seed=11)
    assert all(r.classification == "compatible" for r in report.records)
    assert report.plain_differential_ok() is True


@pytest.mark.parametrize(
    "mode,extra_streams",
    [
        (DefenseMode.BASELINE, []),  # the manager fills the password itself
        (DefenseMode.DESIGN5_API_LATE, [(11, "login", "manager")]),  # it draws a nonce
    ],
)
def test_password_login_seeds_only_the_streams_it_draws(monkeypatch, mode, extra_streams):
    seeded = []
    derive_seed = rng.derive_seed

    def recording(master_seed, *names):
        seeded.append((master_seed, *names))
        return derive_seed(master_seed, *names)

    monkeypatch.setattr(rng, "derive_seed", recording)
    site = profile()
    entry = site_vault_entry(site, seed=11)
    farm = ServerFarm(seed=11)
    farm.add_site(site, entry.password)
    session = BrowserSession(11, mode, [entry], farm.serve, name="login")
    page, form_id = build_login_page(session, site)
    session.autofill(page, form_id)
    assert session.submit(page, form_id).verdict == "auth_ok"
    # never drawn from: the FIDO2 dummies, the authenticator (and the manager in baseline)
    assert seeded == [(11, "vault", "s1")] + extra_streams
