"""Page model: scripts, forms, submit hooks, mutations, form submission.

Hook transforms are checked against hashlib/base64 as independent oracles.
"""

import base64
import hashlib

import pytest
from hypothesis import given, strategies as st

from noncepipe.dom import (
    AddField,
    DomAccessError,
    DuplicateField,
    Field,
    FieldKind,
    Form,
    HookKind,
    NoSuchField,
    NoSuchForm,
    Page,
    Provenance,
    RegisterSubmitHook,
    RenameField,
    ScriptHandle,
    SetFormAction,
    SubmitHook,
    attach_script,
    build_request,
    read_rendered_text,
    script_mutate,
    script_read_field,
    submit_form,
)
from noncepipe.http_model import URLENCODED, ChannelSecurity, Origin, Url, decode_urlencoded

ORIGIN = Origin("https", "site.example", 443)
ACTION = Url.parse("https://site.example/login")


def make_page(**kwargs) -> Page:
    return Page(page_id="p1", origin=ORIGIN, **kwargs)


def login_form(**kwargs) -> Form:
    fields = kwargs.pop(
        "fields",
        [Field("username", FieldKind.TEXT, "alice"), Field("password", FieldKind.PASSWORD, "hunter2")],
    )
    return Form(form_id="login", action=kwargs.pop("action", ACTION), fields=fields, **kwargs)


def page_script() -> ScriptHandle:
    return ScriptHandle("s1", Provenance.PAGE)


# ---------------------------------------------------------------------------
# submit hooks
# ---------------------------------------------------------------------------


@given(st.text(max_size=40))
def test_sha256_hook_matches_hashlib(value):
    hook = SubmitHook(HookKind.SHA256_FIELD, field_name="password")
    out = hook.apply((("username", "alice"), ("password", value)))
    assert out == (
        ("username", "alice"),
        ("password", hashlib.sha256(value.encode("utf-8")).hexdigest()),
    )


@given(st.text(max_size=40))
def test_base64_hook_matches_stdlib(value):
    hook = SubmitHook(HookKind.BASE64_FIELD, field_name="password")
    out = hook.apply((("password", value), ("keep", "x")))
    expected = base64.b64encode(value.encode("utf-8")).decode("ascii")
    assert out == (("password", expected), ("keep", "x"))


@pytest.mark.parametrize(
    "hook",
    [
        SubmitHook(HookKind.SHA256_FIELD, field_name="password"),
        SubmitHook(HookKind.BASE64_FIELD, field_name="password"),
        SubmitHook(HookKind.SWAP_VALUE, match="absent", replacement="x"),
    ],
    ids=["sha256_field", "base64_field", "swap_value"],
)
def test_hook_without_a_target_in_the_form_leaves_entries_alone(hook):
    entries = (("username", "alice"), ("pin", "1234"))
    assert hook.apply(entries) == entries


def test_copy_field_appends_when_target_missing():
    hook = SubmitHook(HookKind.COPY_FIELD, field_name="password", target="pw_hash")
    assert hook.apply((("password", "pw"),)) == (("password", "pw"), ("pw_hash", "pw"))


def test_copy_field_overwrites_existing_target():
    hook = SubmitHook(HookKind.COPY_FIELD, field_name="password", target="pw_hash")
    out = hook.apply((("pw_hash", "stale"), ("password", "pw")))
    assert out == (("pw_hash", "pw"), ("password", "pw"))


def test_copy_field_noop_without_source():
    hook = SubmitHook(HookKind.COPY_FIELD, field_name="missing", target="t")
    assert hook.apply((("a", "1"),)) == (("a", "1"),)


def test_capture_all_fields_logs_every_value():
    sink = page_script()
    hook = SubmitHook(HookKind.CAPTURE_FIELDS, sink=sink)
    entries = (("a", "v1"), ("b", "v2"))
    assert hook.apply(entries) == entries
    assert sink.log == ["v1", "v2"]


def test_capture_named_field_logs_that_value_only():
    sink = page_script()
    SubmitHook(HookKind.CAPTURE_FIELDS, field_name="b", sink=sink).apply(
        (("a", "v1"), ("b", "v2"))
    )
    assert sink.log == ["v2"]


def test_swap_value_replaces_matching_values():
    hook = SubmitHook(HookKind.SWAP_VALUE, match="NONCE", replacement="real")
    assert hook.apply((("pw", "NONCE"), ("x", "other"))) == (("pw", "real"), ("x", "other"))


def test_swap_value_guard_origin_must_match():
    hook = SubmitHook(
        HookKind.SWAP_VALUE, match="NONCE", replacement="real", guard_origin=ORIGIN
    )
    entries = (("pw", "NONCE"),)
    assert hook.apply(entries, action=ACTION) == (("pw", "real"),)
    elsewhere = Url.parse("https://evil.example/steal")
    assert hook.apply(entries, action=elsewhere) == entries
    assert hook.apply(entries, action=None) == entries  # no destination: refuse


def test_hook_order_decides_what_capture_sees():
    # a capture hook registered after the swap sees the swapped-in value;
    # registered before, it sees only the placeholder
    swap = SubmitHook(HookKind.SWAP_VALUE, match="NONCE", replacement="real")
    entries = (("pw", "NONCE"),)

    late_sink = page_script()
    capture_late = SubmitHook(HookKind.CAPTURE_FIELDS, sink=late_sink)
    out = capture_late.apply(swap.apply(entries))
    assert out == (("pw", "real"),) and late_sink.log == ["real"]

    early_sink = page_script()
    capture_early = SubmitHook(HookKind.CAPTURE_FIELDS, sink=early_sink)
    swap.apply(capture_early.apply(entries))
    assert early_sink.log == ["NONCE"]


def test_hook_repr_never_shows_replacement():
    hook = SubmitHook(HookKind.SWAP_VALUE, match="NONCE", replacement="s3cr3t")
    assert "s3cr3t" not in repr(hook)


# ---------------------------------------------------------------------------
# forms and pages
# ---------------------------------------------------------------------------


def test_form_rejects_duplicate_field_names():
    with pytest.raises(DuplicateField):
        Form("f", ACTION, fields=[Field("a"), Field("a")])


@pytest.mark.parametrize("method", ["DELETE", "PUT", "post", ""])
def test_form_rejects_unsupported_method(method):
    with pytest.raises(ValueError, match="unsupported form method"):
        Form("f", ACTION, method=method)


def test_form_field_lookup():
    form = login_form()
    assert form.field_named("username").value == "alice"
    with pytest.raises(NoSuchField):
        form.field_named("nope")
    assert form.first_of_kind(FieldKind.PASSWORD).name == "password"
    assert form.first_of_kind(FieldKind.HIDDEN) is None


def test_page_form_lookup_and_duplicates():
    page = make_page()
    form = login_form()
    page.add_form(form)
    assert page.form("login") is form
    with pytest.raises(NoSuchForm):
        page.form("other")
    with pytest.raises(ValueError):
        page.add_form(login_form())


# ---------------------------------------------------------------------------
# script handles and DOM access
# ---------------------------------------------------------------------------


def test_script_repr_hides_observations():
    script = page_script()
    script.observe("hunter2")
    assert "hunter2" not in repr(script)
    assert "1 obs" in repr(script)


def test_script_read_requires_dom_access():
    page = make_page()
    page.add_form(login_form())
    stranger = page_script()
    with pytest.raises(DomAccessError):
        script_read_field(stranger, page, "login", "password")
    with pytest.raises(DomAccessError):
        read_rendered_text(stranger, page)


def test_script_read_field_logs_value():
    page = make_page()
    page.add_form(login_form())
    script = page_script()
    attach_script(page, script)
    assert script_read_field(script, page, "login", "password") == "hunter2"
    assert script.log == ["hunter2"]


def test_read_rendered_text_logs():
    page = make_page()
    page.rendered_text = "echo: hunter2"
    script = page_script()
    attach_script(page, script)
    assert read_rendered_text(script, page) == "echo: hunter2"
    assert script.log == ["echo: hunter2"]


def test_attach_script_is_idempotent():
    page = make_page()
    script = page_script()
    attach_script(page, script)
    attach_script(page, script)
    assert page.scripts.count(script) == 1


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


def mutating_page():
    page = make_page()
    page.add_form(login_form())
    script = page_script()
    attach_script(page, script)
    return page, script


def test_rename_field_mutation():
    page, script = mutating_page()
    script_mutate(script, page, RenameField("login", "password", "p"))
    assert page.form("login").field_named("p").value == "hunter2"
    assert any("renamed" in line for line in page.audit)
    with pytest.raises(DuplicateField):
        script_mutate(script, page, RenameField("login", "p", "username"))


def test_set_form_action_mutation():
    page, script = mutating_page()
    evil = Url.parse("https://evil.example/sink")
    script_mutate(script, page, SetFormAction("login", evil))
    assert page.form("login").action == evil
    assert any("retargeted" in line for line in page.audit)


def test_add_field_mutation():
    page, script = mutating_page()
    script_mutate(script, page, AddField("login", "extra", FieldKind.HIDDEN, "x"))
    assert page.form("login").field_named("extra").value == "x"
    with pytest.raises(DuplicateField):
        script_mutate(script, page, AddField("login", "extra"))


def test_register_submit_hook_mutation():
    page, script = mutating_page()
    hook = SubmitHook(HookKind.SHA256_FIELD, field_name="password")
    script_mutate(script, page, RegisterSubmitHook("login", hook))
    assert page.form("login").submit_hooks == [hook]
    assert page.audit == ["s1 hooked login (sha256_field)"]


def test_mutation_requires_dom_access():
    page = make_page()
    page.add_form(login_form())
    with pytest.raises(DomAccessError):
        script_mutate(page_script(), page, RenameField("login", "password", "p"))
    assert page.form("login").field_named("password").value == "hunter2"
    assert page.audit == []


# ---------------------------------------------------------------------------
# submission
# ---------------------------------------------------------------------------


def test_submit_post_urlencoded():
    page = make_page()
    page.add_form(login_form())
    record = submit_form(page, "login", request_id=7)
    assert record.method == "POST"
    assert record.url == ACTION
    assert record.body.raw == b"username=alice&password=hunter2"
    assert record.header("Content-Type") == "application/x-www-form-urlencoded"
    assert record.header("Host") == "site.example"
    assert record.channel_security is ChannelSecurity.GOOD_TLS
    assert record.source_page is page


def test_a_post_outside_any_page_is_urlencoded_too():
    record = build_request(None, "POST", ACTION, (("a", "b c"),), 5)
    assert record.header("Content-Type") == URLENCODED
    assert record.body.raw == b"a=b+c"
    assert record.channel_security is ChannelSecurity.GOOD_TLS and record.source_page is None
    get = build_request(None, "GET", ACTION, (("a", "b c"),), 6)
    assert get.header("Content-Type") is None and get.url.query == (("a", "b c"),)


def test_submit_get_puts_entries_in_query():
    page = make_page()
    page.add_form(login_form(method="GET"))
    record = submit_form(page, "login", request_id=3)
    assert record.method == "GET"
    assert record.body is None
    assert record.url.query == (("username", "alice"), ("password", "hunter2"))


def test_submit_http_action_is_plain_channel():
    page = make_page()
    page.add_form(login_form(action=Url.parse("http://site.example/login")))
    assert submit_form(page, "login").channel_security is ChannelSecurity.PLAIN_HTTP


def test_submit_respects_tls_override():
    action = Url.parse("https://sloppy.example/login")
    page = make_page()
    page.tls_overrides[action.origin] = ChannelSecurity.BAD_TLS
    page.add_form(login_form(action=action))
    assert submit_form(page, "login").channel_security is ChannelSecurity.BAD_TLS


def test_submit_runs_hooks_in_order_without_touching_dom():
    page = make_page()
    form = login_form()
    form.submit_hooks.append(SubmitHook(HookKind.COPY_FIELD, field_name="password", target="pw_hash"))
    form.submit_hooks.append(SubmitHook(HookKind.SHA256_FIELD, field_name="pw_hash"))
    page.add_form(form)
    record = submit_form(page, "login")
    entries = dict(decode_urlencoded(record.body.raw))
    assert entries["password"] == "hunter2"
    assert entries["pw_hash"] == hashlib.sha256(b"hunter2").hexdigest()
    # DOM still holds the raw value; hooks act on the submission snapshot
    assert form.field_named("password").value == "hunter2"
    assert [f.name for f in form.fields] == ["username", "password"]
