"""Password manager: nonce autofill, the five safety checks, wiring."""

import string

import pytest
from hypothesis import given, strategies as st

from noncepipe import http_model
from noncepipe.dom import Field, FieldKind, Form, HookKind, Page, submit_form
from noncepipe.extensions import ExtensionHost
from noncepipe.http_model import (
    URLENCODED,
    ChannelSecurity,
    Origin,
    RequestBody,
    Url,
)
from noncepipe.manager import (
    NONCE_ALPHABET,
    NONCE_LENGTH,
    NonceRecord,
    NoPasswordField,
    OriginMismatch,
    PasswordManager,
    PinConflict,
    SafetyDecision,
    VaultEntry,
    generate_nonce,
)
from noncepipe.pipeline import (
    BodyView,
    DefenseMode,
    ListenerRegistration,
    ListenerRegistry,
    PipelineConfig,
    Stage,
    StageView,
    dispatch,
)
from noncepipe.rng import substream

ORIGIN = Origin("https", "bank.example", 443)
ACTION = Url.parse("https://bank.example/login")
PASSWORD = "hunter2-secret"


# ---------------------------------------------------------------------------
# nonce generation
# ---------------------------------------------------------------------------


def test_nonce_alphabet_is_base62():
    assert NONCE_ALPHABET == string.ascii_uppercase + string.ascii_lowercase + string.digits
    assert NONCE_LENGTH == 16


@given(st.integers(min_value=0, max_value=2**32))
def test_generate_nonce_shape(seed):
    nonce = generate_nonce(substream(seed))
    assert len(nonce) == NONCE_LENGTH
    assert set(nonce) <= set(NONCE_ALPHABET)


def test_generate_nonce_deterministic():
    assert generate_nonce(substream(42)) == generate_nonce(substream(42))
    assert generate_nonce(substream(42)) != generate_nonce(substream(43))


def test_generate_nonce_avoids_used_values():
    burned = generate_nonce(substream(42))
    fresh = generate_nonce(substream(42), used=frozenset({burned}))
    assert fresh != burned


def test_generate_nonce_stream_unique():
    rng = substream(1)
    seen = {generate_nonce(rng) for _ in range(200)}
    assert len(seen) == 200


class MembershipOnly:
    """A `used` that can only answer `in`: generate_nonce must not copy it."""

    def __init__(self, values):
        self._values = dict.fromkeys(values)

    def __contains__(self, value):
        return value in self._values


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=3))
def test_generate_nonce_tests_membership_without_copying(seed, burned):
    # burn the first few nonces the stream would draw, so some draws are rejected
    stream = substream(seed)
    first = [generate_nonce(stream) for _ in range(burned)]
    expected = generate_nonce(substream(seed), frozenset(first))
    assert generate_nonce(substream(seed), MembershipOnly(first)) == expected
    assert generate_nonce(substream(seed), dict.fromkeys(first)) == expected


def test_vault_entry_repr_masks_password():
    entry = VaultEntry(ORIGIN, "alice", PASSWORD)
    assert PASSWORD not in repr(entry)
    assert "***" in repr(entry)


# ---------------------------------------------------------------------------
# autofill
# ---------------------------------------------------------------------------


def login_page(*, is_iframe=False, action=ACTION, fields=None, page_origin=ORIGIN) -> Page:
    page = Page(page_id="p1", origin=page_origin, is_iframe=is_iframe)
    page.add_form(
        Form(
            form_id="login",
            action=action,
            fields=fields
            if fields is not None
            else [Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
        )
    )
    return page


def make_manager(seed=7, mode=DefenseMode.DESIGN5_API_LATE) -> PasswordManager:
    """A manager registered with a browser, whose store keeps its nonces."""
    manager = PasswordManager([VaultEntry(ORIGIN, "alice", PASSWORD)], substream(seed))
    manager.register_with(ExtensionHost(), mode)
    return manager


def test_managers_share_one_default_manifest():
    assert make_manager().manifest is make_manager(seed=8).manifest


def test_autofill_baseline_fills_real_password():
    manager = make_manager()
    page = login_page()
    record = manager.autofill(page, "login", DefenseMode.BASELINE)
    assert record is None
    form = page.form("login")
    assert form.field_named("password").value == PASSWORD
    assert form.field_named("username").value == "alice"


@pytest.mark.parametrize(
    "mode",
    [DefenseMode.DESIGN3_DOM, DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE],
)
def test_autofill_defended_fills_nonce(mode):
    manager = make_manager()
    page = login_page()
    record = manager.autofill(page, "login", mode)
    filled = page.form("login").field_named("password").value
    assert filled == record.nonce
    assert filled != PASSWORD
    assert len(filled) == NONCE_LENGTH and set(filled) <= set(NONCE_ALPHABET)
    assert record.field_name == "password"
    assert record.entry.password == PASSWORD


def test_autofill_nonces_are_unique_per_fill():
    manager = make_manager()
    a = manager.autofill(login_page(), "login", DefenseMode.DESIGN5_API_LATE)
    b = manager.autofill(login_page(), "login", DefenseMode.DESIGN5_API_LATE)
    assert a.nonce != b.nonce


def test_autofill_prefers_field_named_username():
    fields = [
        Field("search", FieldKind.TEXT),
        Field("username", FieldKind.TEXT),
        Field("password", FieldKind.PASSWORD),
    ]
    page = login_page(fields=fields)
    make_manager().autofill(page, "login", DefenseMode.BASELINE)
    form = page.form("login")
    assert form.field_named("username").value == "alice"
    assert form.field_named("search").value == ""


def test_autofill_falls_back_to_first_text_field():
    fields = [Field("email", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)]
    page = login_page(fields=fields)
    make_manager().autofill(page, "login", DefenseMode.BASELINE)
    assert page.form("login").field_named("email").value == "alice"


def test_autofill_unknown_origin_raises():
    page = login_page(page_origin=Origin("https", "stranger.example", 443))
    with pytest.raises(OriginMismatch):
        make_manager().autofill(page, "login", DefenseMode.BASELINE)


def test_autofill_without_password_field_raises():
    page = login_page(fields=[Field("username", FieldKind.TEXT)])
    with pytest.raises(NoPasswordField):
        make_manager().autofill(page, "login", DefenseMode.BASELINE)


def test_autofill_design3_installs_guarded_swap_hook():
    manager = make_manager()
    page = login_page()
    record = manager.autofill(page, "login", DefenseMode.DESIGN3_DOM)
    (hook,) = page.form("login").submit_hooks
    assert hook.kind is HookKind.SWAP_VALUE
    assert hook.match == record.nonce
    assert hook.replacement == PASSWORD
    assert hook.guard_origin == ORIGIN


def test_autofill_manifest_v3_requires_registry():
    # every nonce mode keeps its records in the browser's store
    manager = PasswordManager([VaultEntry(ORIGIN, "alice", PASSWORD)], substream(7))
    for mode in DefenseMode:
        if mode is not DefenseMode.BASELINE:
            with pytest.raises(RuntimeError):
                manager.autofill(login_page(), "login", mode)


def test_autofill_manifest_v3_registers_with_browser():
    manager = PasswordManager([VaultEntry(ORIGIN, "alice", PASSWORD)], substream(7))
    host = ExtensionHost()
    manager.register_with(host, DefenseMode.MANIFEST_V3)
    page = login_page(is_iframe=True)
    record = manager.autofill(page, "login", DefenseMode.MANIFEST_V3)
    assert host.nonces.page("p1").records == {record.nonce: record}
    assert record.entry.password == PASSWORD and record.entry.origin == ORIGIN
    # the record is the registered policy: frame position and pinning setting
    assert record.in_iframe is True and record.pinning_enabled is True


# ---------------------------------------------------------------------------
# pinning
# ---------------------------------------------------------------------------


def test_learn_submit_url_pins_then_enforces():
    entry = VaultEntry(ORIGIN, "alice", PASSWORD)
    entry.learn_submit_url(Url.parse("https://bank.example/login?next=%2F"))
    assert entry.pinned_submit_url == "https://bank.example/login"  # query-free pin
    entry.learn_submit_url(Url.parse("https://bank.example/login?other=1"))
    with pytest.raises(PinConflict):
        entry.learn_submit_url(Url.parse("https://bank.example/other"))


# ---------------------------------------------------------------------------
# the five checks
# ---------------------------------------------------------------------------

NONCE = "Ab0Cd1Ef2Gh3Ij4K"


def make_record(*, in_iframe=False, field_name="password", pinned=None, pinning_enabled=True):
    entry = VaultEntry(ORIGIN, "alice", PASSWORD, pinned_submit_url=pinned)
    return NonceRecord(
        nonce=NONCE,
        entry=entry,
        form_id="login",
        field_name=field_name,
        in_iframe=in_iframe,
        pinning_enabled=pinning_enabled,
    )


def view_for(
    *,
    method="POST",
    url="https://bank.example/login",
    entries=(("username", "alice"), ("password", NONCE)),
    channel=ChannelSecurity.GOOD_TLS,
    request_id=1,
):
    form = RequestBody.urlencoded(entries) if method == "POST" else None
    headers = (("Content-Type", URLENCODED),) if form is not None else ()
    return StageView(
        request_id=request_id,
        stage=Stage.ON_BEFORE_REQUEST,
        method=method,
        url=Url.parse(url),
        headers=headers,
        body_view=BodyView.FULL_PRE_SUBSTITUTION if form is not None else BodyView.ABSENT,
        form=form,
        channel=channel,
    )


def test_all_checks_pass():
    manager = make_manager()
    view = view_for()
    decision = manager.safety_check(make_record(), view)
    assert decision == SafetyDecision(True, None, "all checks passed")


def test_check1_iframe_refused():
    view = view_for()
    record = make_record(in_iframe=True)
    decision = make_manager().safety_check(record, view)
    assert (decision.approved, decision.reason) == (False, 1)


@pytest.mark.parametrize("channel", [ChannelSecurity.PLAIN_HTTP, ChannelSecurity.BAD_TLS])
def test_check2_channel_refused(channel):
    view = view_for(channel=channel)
    decision = make_manager().safety_check(make_record(), view)
    assert (decision.approved, decision.reason) == (False, 2)
    assert channel.value in decision.detail


def test_check3_cross_origin_refused():
    view = view_for(url="https://evil.example/login")
    decision = make_manager().safety_check(make_record(), view)
    assert (decision.approved, decision.reason) == (False, 3)


def test_check3_pin_mismatch_refused():
    record = make_record(pinned="https://bank.example/login")
    view = view_for(url="https://bank.example/changed-path")
    decision = make_manager().safety_check(record, view)
    assert (decision.approved, decision.reason) == (False, 3)


def test_check3_pin_ignored_when_pinning_disabled():
    record = make_record(pinned="https://bank.example/login", pinning_enabled=False)
    view = view_for(url="https://bank.example/changed-path")
    decision = make_manager().safety_check(record, view)
    assert decision.approved is True


def test_check4_nonce_in_get_params_refused():
    view = view_for(
        method="GET",
        url=f"https://bank.example/login?password={NONCE}",
        entries=(),
    )
    decision = make_manager().safety_check(make_record(), view)
    assert (decision.approved, decision.reason) == (False, 4)


def test_check5_renamed_field_refused():
    view = view_for(entries=(("username", "alice"), ("creds", NONCE)))
    decision = make_manager().safety_check(make_record(), view)
    assert (decision.approved, decision.reason) == (False, 5)
    assert "'creds'" in decision.detail


def test_checks_run_in_order_first_failure_wins():
    # iframe + bad channel + cross origin together: check 1 speaks first
    record = make_record(in_iframe=True)
    view = view_for(url="https://evil.example/login", channel=ChannelSecurity.PLAIN_HTTP)
    decision = make_manager().safety_check(record, view)
    assert decision.reason == 1

    # bad channel + GET leak: check 2 beats check 4
    view = view_for(
        method="GET",
        url=f"https://bank.example/login?password={NONCE}",
        entries=(),
        channel=ChannelSecurity.BAD_TLS,
    )
    decision = make_manager().safety_check(make_record(), view)
    assert decision.reason == 2


def counted_decodes(monkeypatch):
    """Count calls of the body decoder in `http_model`, where it lives."""
    calls = []
    decode = http_model.decode_urlencoded

    def counting(body):
        calls.append(body)
        return decode(body)

    monkeypatch.setattr(http_model, "decode_urlencoded", counting)
    return calls


def _bad_tls(page):
    page.tls_overrides[ORIGIN] = ChannelSecurity.BAD_TLS


def _get_submit(page):
    page.form("login").method = "GET"


def _rename_password(page):
    page.form("login").field_named("password").name = "creds"


@pytest.mark.parametrize(
    "page_kwargs, mutate, reason",
    [
        ({}, None, None),
        ({"is_iframe": True}, None, 1),
        ({}, _bad_tls, 2),
        ({"action": Url.parse("https://evil.example/steal")}, None, 3),
        ({}, _get_submit, 4),
        ({}, _rename_password, 5),
    ],
    ids=["clear", "iframe", "channel", "destination", "get", "field"],
)
def test_pipeline_view_and_hand_built_view_decide_alike(page_kwargs, mutate, reason):
    manager = make_manager()
    page = login_page(**page_kwargs)
    record = manager.autofill(page, "login", DefenseMode.DESIGN5_API_LATE)
    if mutate is not None:
        mutate(page)
    request = submit_form(page, "login", request_id=1)
    seen = []
    listeners = ListenerRegistry()
    listeners.add(ListenerRegistration("l", "ext", Stage.ON_BEFORE_REQUEST, False, seen.append))
    dispatch(request, listeners, PipelineConfig(defense_mode=DefenseMode.BASELINE))
    (view,) = seen
    hand = StageView(
        request_id=view.request_id,
        stage=view.stage,
        method=view.method,
        url=view.url,
        headers=view.headers,
        body_view=view.body_view,
        form=request.body,
        channel=view.channel,
    )
    assert view.form is request.body
    decision = manager.safety_check(record, view)
    assert decision == manager.safety_check(record, hand)
    assert (decision.approved, decision.reason) == (reason is None, reason)


def test_refusal_requires_check_number():
    with pytest.raises(ValueError):
        SafetyDecision(approved=False, reason=None)
    with pytest.raises(ValueError):
        SafetyDecision(approved=False, reason=9)


# ---------------------------------------------------------------------------
# pipeline wiring
# ---------------------------------------------------------------------------


def wired(mode, *, form_kwargs=None):
    manager = PasswordManager([VaultEntry(ORIGIN, "alice", PASSWORD)], substream(7))
    host = ExtensionHost()
    manager.register_with(host, mode)
    page = login_page(**(form_kwargs or {}))
    record = manager.autofill(page, "login", mode)
    request = submit_form(page, "login", request_id=1)  # the request keeps its page
    return host, record, request


def refusals(transcript):
    return [e.digest for e in transcript.events if e.label == "substitutionRefused"]


@pytest.mark.parametrize(
    "mode", [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE]
)
def test_dispatch_substitutes_real_password(mode):
    host, record, request = wired(mode)
    final, transcript = dispatch(
        request, host.registry, PipelineConfig(defense_mode=mode), nonce_store=host.nonces
    )
    assert ("password", PASSWORD) in final.body.entries
    assert record.nonce not in final.body.raw.decode()
    assert refusals(transcript) == []
    assert any(e.label == "substitution" for e in transcript.events)


@pytest.mark.parametrize(
    "mode", [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE]
)
def test_one_login_decodes_no_body(monkeypatch, mode):
    decodes = counted_decodes(monkeypatch)
    host, record, request = wired(mode)
    final, _ = dispatch(
        request, host.registry, PipelineConfig(defense_mode=mode), nonce_store=host.nonces
    )
    # the pipeline's views carry their body's entries, so nothing is decoded
    assert decodes == []
    assert ("password", PASSWORD) in final.body.entries


def test_dispatch_refusal_leaves_nonce_on_wire():
    # form posts cross-origin: check 3 refuses, the nonce travels unreplaced
    host, record, request = wired(
        DefenseMode.DESIGN5_API_LATE,
        form_kwargs={"action": Url.parse("https://evil.example/steal")},
    )
    final, transcript = dispatch(
        request,
        host.registry,
        PipelineConfig(defense_mode=DefenseMode.DESIGN5_API_LATE),
        nonce_store=host.nonces,
    )
    assert ("password", record.nonce) in final.body.entries
    assert PASSWORD not in final.body.raw.decode()
    assert refusals(transcript) == ["check=3"]


def test_dispatch_manifest_v3_browser_applies_substitution():
    host, record, request = wired(DefenseMode.MANIFEST_V3)
    config = PipelineConfig(defense_mode=DefenseMode.MANIFEST_V3)
    final, _ = dispatch(request, host.registry, config, nonce_store=host.nonces)
    assert ("password", PASSWORD) in final.body.entries
    assert len(host.registry) == 0  # no manager listeners in the callback-free mode
    assert record.nonce not in final.body.raw.decode()
