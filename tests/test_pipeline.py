"""Request pipeline: stage ordering, views, the substitution guard, controls.

The three-check substitution guard gets both unit vectors and a hypothesis
property stating exactly when an entry may change. Visibility tests pin down
what each stage is allowed to show a listener.
"""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from noncepipe.http_model import (
    URLENCODED,
    ChannelSecurity,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
)
from noncepipe.pipeline import (
    BLOCKING_STAGES,
    BODY_VISIBLE_STAGES,
    EVENT_LISTENER,
    BodyView,
    Cancel,
    Cancelled,
    DefenseMode,
    Delivery,
    ListenerRegistration,
    ListenerRegistry,
    MAX_REDIRECT_HOPS,
    NonceRecord,
    NonceStore,
    PipelineConfig,
    REQUEST_STAGES,
    RESPONSE_STAGES,
    Redirect,
    RedirectLoop,
    Stage,
    StageTranscript,
    StageView,
    SubstitutionRequest,
    TranscriptEvent,
    VaultEntry,
    apply_substitutions,
    dispatch,
    process_response,
    stage_order,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

ORIGIN = Origin("https", "site.example", 443)
DEST = Url.parse("https://site.example/login")
NONCE = "NONCE0123456789A"
SECRET = "real-secret-value"


def sub(field="pw", nonce=NONCE, replacement=SECRET, origin=ORIGIN) -> SubstitutionRequest:
    return SubstitutionRequest(field, nonce, replacement, origin)


def post(request_id=7, entries=(("user", "alice"), ("pw", NONCE)), url=DEST, **kwargs):
    body = RequestBody.urlencoded(entries)
    headers = (("Host", url.host), ("Content-Type", URLENCODED))
    return WebRequestRecord(request_id, "POST", url, headers=headers, body=body, **kwargs)


def listener(stage, callback=lambda view: None, *, blocking=False, lid="l", ext="ext", sink=None):
    return ListenerRegistration(
        listener_id=lid, extension_id=ext, stage=stage, blocking=blocking, callback=callback, sink=sink
    )


def registry(*regs) -> ListenerRegistry:
    reg = ListenerRegistry()
    for r in regs:
        reg.add(r)
    return reg


# ---------------------------------------------------------------------------
# stage ordering
# ---------------------------------------------------------------------------


def test_stage_values_are_camel_case():
    assert [s.value for s in Stage] == [
        "onBeforeRequest",
        "onBeforeSendHeaders",
        "onSendHeaders",
        "onRequestCredentials",
        "onHeadersReceived",
        "onResponseStarted",
        "onCompleted",
    ]


def test_stages_hash_by_identity_and_still_look_up_by_value():
    for stage in Stage:
        assert hash(stage) == object.__hash__(stage)
        assert Stage(stage.value) is stage and Stage[stage.name] is stage
        assert {stage: 1}[Stage(stage.value)] == 1
    assert len(set(Stage) | set(Stage)) == len(Stage) == 7


def test_registry_at_keeps_registration_order_across_interleaved_stages():
    stages = [Stage.ON_BEFORE_REQUEST, Stage.ON_COMPLETED, Stage.ON_REQUEST_CREDENTIALS]
    regs = [listener(stages[i % 3], lid=f"l{i}") for i in range(9)]
    reg = registry(*regs)
    for stage in Stage:
        assert reg.at(stage) == tuple(r for r in regs if r.stage is stage)
    assert [r.listener_id for r in reg.at(Stage.ON_COMPLETED)] == ["l1", "l4", "l7"]
    assert reg.at(Stage.ON_SEND_HEADERS) == ()
    assert len(reg) == 9


def test_blocking_and_body_visible_stage_sets():
    assert BLOCKING_STAGES == (Stage.ON_BEFORE_REQUEST, Stage.ON_BEFORE_SEND_HEADERS)
    assert BODY_VISIBLE_STAGES == (
        Stage.ON_BEFORE_REQUEST,
        Stage.ON_BEFORE_SEND_HEADERS,
        Stage.ON_SEND_HEADERS,
    )


def test_stage_order_by_mode():
    plain = (
        Stage.ON_BEFORE_REQUEST,
        Stage.ON_BEFORE_SEND_HEADERS,
        Stage.ON_SEND_HEADERS,
        Stage.ON_HEADERS_RECEIVED,
        Stage.ON_RESPONSE_STARTED,
        Stage.ON_COMPLETED,
    )
    assert stage_order(DefenseMode.BASELINE) == plain
    assert stage_order(DefenseMode.DESIGN3_DOM) == plain
    assert stage_order(DefenseMode.DESIGN4_API_EARLY) == (Stage.ON_REQUEST_CREDENTIALS,) + plain
    for mode in (DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3):
        order = stage_order(mode)
        assert order.index(Stage.ON_REQUEST_CREDENTIALS) == 3  # after onSendHeaders
        assert order[:3] == plain[:3] and order[4:] == plain[3:]


# ---------------------------------------------------------------------------
# substitution requests and the guard
# ---------------------------------------------------------------------------


def test_substitution_request_validation():
    with pytest.raises(ValueError):
        SubstitutionRequest("", NONCE, SECRET, ORIGIN)
    with pytest.raises(ValueError):
        SubstitutionRequest("pw", "", SECRET, ORIGIN)
    with pytest.raises(ValueError):
        SubstitutionRequest("pw", NONCE, NONCE, ORIGIN)


def test_substitution_request_repr_hides_replacement():
    assert SECRET not in repr(sub())


def test_guard_applies_when_all_three_checks_pass():
    request = sub()
    out, applied = apply_substitutions((("pw", NONCE),), [request], DEST)
    assert out == (("pw", SECRET),)
    assert applied == (request,)


@pytest.mark.parametrize(
    "entries,destination",
    [
        (((("password", NONCE)),), DEST),  # wrong field name
        (((("pw", NONCE + "x")),), DEST),  # value is not exactly the nonce
        (((("pw", NONCE)),), Url.parse("https://evil.example/login")),  # wrong origin
    ],
)
def test_guard_refuses_on_any_single_check(entries, destination):
    out, applied = apply_substitutions(entries, [sub()], destination)
    assert out == entries
    assert applied == ()


def test_guard_is_idempotent():
    once, _ = apply_substitutions((("pw", NONCE),), [sub()], DEST)
    twice, applied = apply_substitutions(once, [sub()], DEST)
    assert twice == once
    assert applied == ()


def test_guard_first_substitution_wins_per_field():
    first = sub(replacement="first-secret")
    second = sub(replacement="second-secret")
    out, applied = apply_substitutions((("pw", NONCE),), [first, second], DEST)
    assert out == (("pw", "first-secret"),)
    assert applied == (first,)


def test_guard_replaces_every_matching_entry():
    entries = (("pw", NONCE), ("user", NONCE), ("pw", NONCE))
    out, applied = apply_substitutions(entries, [sub()], DEST)
    assert out == (("pw", SECRET), ("user", NONCE), ("pw", SECRET))
    assert len(applied) == 1


@given(
    entries=st.lists(
        st.tuples(st.sampled_from(["pw", "user", "x"]), st.sampled_from([NONCE, "other", ""])),
        max_size=6,
    ),
    field=st.sampled_from(["pw", "user"]),
    origin_ok=st.booleans(),
)
def test_guard_per_entry_property(entries, field, origin_ok):
    request = sub(field=field)
    destination = DEST if origin_ok else Url.parse("https://other.example/login")
    out, applied = apply_substitutions(tuple(entries), [request], destination)
    assert len(out) == len(entries)
    for (name, value), (out_name, out_value) in zip(entries, out):
        assert out_name == name
        if origin_ok and name == field and value == NONCE:
            assert out_value == SECRET
        else:
            assert out_value == value
    should_apply = origin_ok and any(n == field and v == NONCE for n, v in entries)
    assert (applied == (request,)) == should_apply


# ---------------------------------------------------------------------------
# stage views and visibility
# ---------------------------------------------------------------------------


def design5_config(**kwargs) -> PipelineConfig:
    return PipelineConfig(defense_mode=DefenseMode.DESIGN5_API_LATE, **kwargs)


def observing_registry(stages, sink):
    regs = [
        listener(stage, lid=f"obs.{stage.value}", sink=sink)
        for stage in stages
    ]
    return registry(*regs)


def test_request_stages_see_full_pre_substitution_body():
    sink: list[StageView] = []
    regs = observing_registry(BODY_VISIBLE_STAGES, sink)
    regs.add(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="manager"))
    final, transcript = dispatch(post(), regs, design5_config())
    assert final.body.entries == (("user", "alice"), ("pw", SECRET))
    for event in transcript.deliveries():
        if event.label in {s.value for s in BODY_VISIBLE_STAGES}:
            assert event.view.body_view is BodyView.FULL_PRE_SUBSTITUTION
            assert event.view.body == b"user=alice&pw=" + NONCE.encode()
    # the secret never reached any extension-visible string
    assert all(SECRET not in s for view in sink for s in view.visible_strings())


def test_every_view_lists_its_url_query_values():
    url = DEST.with_query((("q", "a b"),))
    request = WebRequestRecord(7, "GET", url, headers=(("Host", url.host),))
    sink: list[StageView] = []
    regs = observing_registry(REQUEST_STAGES + RESPONSE_STAGES, sink)
    final, transcript = dispatch(request, regs, design5_config())
    process_response(WebResponseRecord(7, 200), regs, request_url=final.url, transcript=transcript)
    assert len(sink) == 6
    for view in sink:
        # the URL string holds the value encoded; the query value is listed decoded
        assert view.url.query == (("q", "a b"),)
        assert "a b" in view.visible_strings()


def test_credential_stage_body_stripped_in_implementation_mode():
    seen = []
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, seen.append, lid="manager"))
    dispatch(post(), regs, design5_config())
    (view,) = seen
    assert view.body_view is BodyView.STRIPPED
    assert view.body is None
    assert view.url == DEST  # metadata still visible for validation


def test_design4_runs_credential_stage_before_validation_stages():
    order: list[str] = []
    credential_views: list[StageView] = []

    def manager(view):
        order.append("orc")
        credential_views.append(view)
        return sub()

    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, lambda v: order.append("obr"), lid="obs"),
        listener(Stage.ON_REQUEST_CREDENTIALS, manager, lid="manager"),
    )
    config = PipelineConfig(defense_mode=DefenseMode.DESIGN4_API_EARLY)
    final, transcript = dispatch(post(), regs, config)
    assert order == ["orc", "obr"]
    # the credential-stage view shows the body before substitution
    (view,) = credential_views
    assert view.body_view is BodyView.FULL_PRE_SUBSTITUTION
    assert NONCE.encode() in view.body and SECRET.encode() not in view.body
    assert final.body.entries == (("user", "alice"), ("pw", SECRET))
    # early position: the later body-visible stages witness the substituted body
    obr = next(e for e in transcript.deliveries() if e.label == "onBeforeRequest")
    assert SECRET.encode() in obr.view.body


def test_design4_labels_the_views_after_a_swap_post_substitution():
    sink: list[StageView] = []
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="manager", sink=sink))
    for stage in BODY_VISIBLE_STAGES:
        regs.add(listener(stage, lid=f"obs.{stage.value}", sink=sink))
    # the next hop goes elsewhere, so its swap is refused and its body is the page's
    target = Url.parse("https://elsewhere.example/hop")
    regs.add(
        listener(
            Stage.ON_BEFORE_SEND_HEADERS,
            lambda view: Redirect(target) if view.request_id == 7 else None,
            blocking=True,
            lid="r",
        )
    )
    config = PipelineConfig(defense_mode=DefenseMode.DESIGN4_API_EARLY)
    dispatch(post(), regs, config, id_allocator=lambda: 8)
    pre, post_ = BodyView.FULL_PRE_SUBSTITUTION, BodyView.FULL_POST_SUBSTITUTION
    assert [(v.request_id, v.stage.value, v.body_view) for v in sink] == [
        (7, "onRequestCredentials", pre),
        (7, "onBeforeRequest", post_),
        (7, "onBeforeSendHeaders", post_),
        (8, "onRequestCredentials", pre),
        (8, "onBeforeRequest", pre),
        (8, "onBeforeSendHeaders", pre),
        (8, "onSendHeaders", pre),
    ]
    for view in sink:
        assert (SECRET.encode() in view.body) is (view.body_view is post_)


def test_design5_views_never_contain_replacement():
    sink: list[StageView] = []
    regs = observing_registry(BODY_VISIBLE_STAGES, sink)
    regs.add(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="manager", sink=sink))
    final, transcript = dispatch(post(), regs, design5_config())
    assert final.body.entries[1] == ("pw", SECRET)
    for event in transcript.deliveries():
        assert all(SECRET not in s for s in event.view.visible_strings())
    assert all(SECRET not in s for view in sink for s in view.visible_strings())


def test_credential_stage_skipped_when_disabled():
    seen = []
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, seen.append, lid="manager"))
    final, transcript = dispatch(
        post(), regs, design5_config(credential_stage_enabled=False)
    )
    assert seen == []
    assert final.body.entries == (("user", "alice"), ("pw", NONCE))
    assert transcript.deliveries() == ()


def test_credential_stage_absent_in_baseline_and_dom_modes():
    for mode in (DefenseMode.BASELINE, DefenseMode.DESIGN3_DOM):
        seen = []
        regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, seen.append, lid="manager"))
        final, _ = dispatch(post(), regs, PipelineConfig(defense_mode=mode))
        assert seen == []
        assert final.body.entries == (("user", "alice"), ("pw", NONCE))


def nonce_record(*, in_iframe=False) -> NonceRecord:
    entry = VaultEntry(ORIGIN, "alice", SECRET)
    return NonceRecord(NONCE, entry, "login", "pw", in_iframe=in_iframe, pinning_enabled=True)


class SourcePage:
    page_id = "p1"
    tls_overrides: dict = {}


def store_with(*records):
    """A nonce store holding `records` for one page, and that page."""
    page, store = SourcePage(), NonceStore()
    for record in records:
        store.add(page, record)
    return store, page


MV3 = PipelineConfig(defense_mode=DefenseMode.MANIFEST_V3)


def test_manifest_v3_pulls_substitutions_from_registry_not_listeners():
    record = nonce_record()
    called = []
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, called.append, lid="manager"))
    store, page = store_with(record)
    final, transcript = dispatch(post(source_page=page), regs, MV3, nonce_store=store)
    assert called == []  # no callback interface in this mode
    assert final.body.entries == (("user", "alice"), ("pw", SECRET))
    assert record.entry.pinned_submit_url == "https://site.example/login"  # approve pins
    assert [e.to_line() for e in transcript.events] == ["7 substitution !browser - applied=1"]


def test_manifest_v3_refusal_is_one_transcript_event():
    store, page = store_with(nonce_record(in_iframe=True))
    final, transcript = dispatch(post(source_page=page), registry(), MV3, nonce_store=store)
    assert final.body.entries == (("user", "alice"), ("pw", NONCE))
    assert [e.to_line() for e in transcript.events] == ["7 substitutionRefused !browser - check=1"]


def test_manifest_v3_request_without_a_registered_nonce_is_left_alone():
    store, page = store_with(nonce_record())
    plain = post(entries=(("user", "alice"), ("pw", "typed-by-hand")), source_page=page)
    final, transcript = dispatch(plain, registry(), MV3, nonce_store=store)
    assert final is plain and transcript.events == []


def test_manifest_v3_without_registry_substitutes_nothing():
    store, page = store_with(nonce_record())
    for request, nonce_store in ((post(source_page=page), None), (post(), store)):
        final, _ = dispatch(request, registry(), MV3, nonce_store=nonce_store)
        assert final.body.entries == (("user", "alice"), ("pw", NONCE))


def test_store_replaces_a_forms_record_and_forgets_a_collected_page():
    first, second = nonce_record(), NonceRecord(
        "Zz9Yy8Xx7Ww6Vv5U", VaultEntry(ORIGIN, "alice", SECRET), "login", "pw", False, True
    )
    store, page = store_with(first, second)  # a second autofill of the same form
    assert store.page("p1").records == {second.nonce: second}
    assert first.nonce not in store and second.nonce in store
    del page
    assert store.page("p1") is None and second.nonce not in store


def test_substitution_conflict_event_logged():
    regs = registry(
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(replacement="one"), lid="m1"),
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(replacement="two"), lid="m2"),
    )
    final, transcript = dispatch(post(), regs, design5_config())
    labels = [e.label for e in transcript.events]
    assert "substitutionConflict" in labels
    assert final.body.entries[1] == ("pw", "one")  # first registration wins


def test_two_substitutions_on_different_fields_both_apply_with_no_conflict():
    other = "NONCE9876543210B"
    regs = registry(
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="m1"),
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub("pin", other, "4321"), lid="m2"),
    )
    request = post(entries=(("user", "alice"), ("pw", NONCE), ("pin", other)))
    final, transcript = dispatch(request, regs, design5_config())
    assert final.body.entries == (("user", "alice"), ("pw", SECRET), ("pin", "4321"))
    assert final.body.raw == f"user=alice&pw={SECRET}&pin=4321".encode()
    events = [(e.label, e.digest) for e in transcript.events if type(e) is TranscriptEvent]
    assert events == [("substitution", "applied=2")]


def test_a_swap_writes_a_replacement_that_is_no_string_as_its_text():
    class Secret:  # a listener's replacement that is not a string
        def __str__(self) -> str:
            return SECRET

    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(replacement=Secret())))
    final, _ = dispatch(post(), regs, design5_config())
    assert final.body == RequestBody((("user", "alice"), ("pw", SECRET)), final.body.raw)
    assert all(type(value) is str for _, value in final.body.entries)


def test_credential_stage_ignores_a_sequence_of_substitutions():
    # only a SubstitutionRequest or a refusing SafetyDecision is read
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: [sub()], lid="m"))
    request = post()
    final, transcript = dispatch(request, regs, design5_config())
    assert final.body.raw == request.body.raw == b"user=alice&pw=" + NONCE.encode()
    assert not [e for e in transcript.events if e.label == "substitution"]


def test_substitution_event_carries_applied_count():
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="m"))
    _, transcript = dispatch(post(), regs, design5_config())
    event = next(e for e in transcript.events if e.label == "substitution")
    assert event.listener_id == EVENT_LISTENER
    assert event.digest == "applied=1"


def test_body_substitution_re_encodes_and_keeps_content_type():
    request = post()
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="m"))
    final, _ = dispatch(request, regs, design5_config())
    assert final.header("Content-Type") == request.header("Content-Type")
    assert final.body.entries == (("user", "alice"), ("pw", SECRET))
    assert final.body.raw == b"user=alice&pw=" + SECRET.encode("ascii")
    assert request.body.entries == (("user", "alice"), ("pw", NONCE))  # original untouched


# ---------------------------------------------------------------------------
# blocking controls
# ---------------------------------------------------------------------------


def test_blocking_cancel_stops_the_request():
    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, lambda v: Cancel("no"), blocking=True, lid="blocker")
    )
    with pytest.raises(Cancelled) as exc:
        dispatch(post(), regs, design5_config())
    assert exc.value.request_id == 7
    assert exc.value.listener_id == "blocker"


def test_cancel_event_recorded_before_raise():
    transcript = StageTranscript()
    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, lambda v: Cancel("no"), blocking=True, lid="blocker")
    )
    with pytest.raises(Cancelled):
        dispatch(post(), regs, design5_config(), transcript=transcript)
    event = next(e for e in transcript.events if e.label == "cancel")
    assert event.digest == "blocker"


def test_non_blocking_cancel_is_ignored():
    regs = registry(listener(Stage.ON_SEND_HEADERS, lambda v: Cancel("no"), lid="wisher"))
    final, transcript = dispatch(post(), regs, design5_config())
    assert final.body is not None
    assert all(e.label != "cancel" for e in transcript.events)


def test_credential_stage_cannot_cancel():
    regs = registry(listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: Cancel("no"), lid="m"))
    final, _ = dispatch(post(), regs, design5_config())
    assert final.request_id == 7


def test_redirect_reissues_with_new_id_and_channel():
    target = Url.parse("http://elsewhere.example/hop")
    fired = []

    def redirect_once(view):
        if not fired:
            fired.append(view.request_id)
            return Redirect(target)
        return None

    regs = registry(listener(Stage.ON_BEFORE_REQUEST, redirect_once, blocking=True, lid="r"))
    final, transcript = dispatch(post(), regs, design5_config())
    assert final.url == target
    assert final.request_id != 7
    assert final.parent_request_id == 7
    assert final.channel_security is ChannelSecurity.PLAIN_HTTP  # recomputed for http
    assert final.body.entries == (("user", "alice"), ("pw", NONCE))  # body carried over
    assert any(e.label == "redirect" for e in transcript.events)
    # the stage walk restarted: deliveries exist for both request ids
    ids = {e.request_id for e in transcript.deliveries()}
    assert ids == {7, final.request_id}


def test_redirect_uses_id_allocator_when_given():
    ids = iter([100, 101])
    state = {"hops": 0}

    def redirect_twice(view):
        if state["hops"] < 2:
            state["hops"] += 1
            return Redirect(Url.parse(f"https://hop{state['hops']}.example/"))
        return None

    regs = registry(listener(Stage.ON_BEFORE_REQUEST, redirect_twice, blocking=True, lid="r"))
    final, _ = dispatch(post(), regs, design5_config(), id_allocator=lambda: next(ids))
    assert final.request_id == 101


def test_redirect_loop_raises():
    calls = []

    def loop(view):
        calls.append(view)
        return Redirect(Url.parse("https://loop.example/"))

    regs = registry(listener(Stage.ON_BEFORE_REQUEST, loop, blocking=True, lid="looper"))
    with pytest.raises(RedirectLoop):
        dispatch(post(), regs, design5_config())
    assert len(calls) == MAX_REDIRECT_HOPS + 1


def test_substitution_happens_after_final_redirect_destination_is_known():
    # a redirect to a different origin must defeat the origin check
    elsewhere = Url.parse("https://evil.example/steal")
    fired = []

    def redirect_once(view):
        if not fired:
            fired.append(1)
            return Redirect(elsewhere)
        return None

    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, redirect_once, blocking=True, lid="r"),
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="m"),
    )
    final, _ = dispatch(post(), regs, design5_config())
    assert final.url == elsewhere
    assert final.body.entries == (("user", "alice"), ("pw", NONCE))  # guard refused


# ---------------------------------------------------------------------------
# dispatch walks the stage_order table
# ---------------------------------------------------------------------------

REQUEST_SIDE = BODY_VISIBLE_STAGES + (Stage.ON_REQUEST_CREDENTIALS,)


@pytest.mark.parametrize(
    "mode, stage_enabled",
    [(mode, True) for mode in DefenseMode] + [(DefenseMode.DESIGN5_API_LATE, False)],
)
def test_dispatch_walks_the_request_part_of_stage_order(mode, stage_enabled):
    regs = observing_registry(list(Stage), [])
    config = PipelineConfig(defense_mode=mode, credential_stage_enabled=stage_enabled)
    _, transcript = dispatch(post(), regs, config)
    expected = [s.value for s in stage_order(mode) if s in REQUEST_SIDE]
    if mode is DefenseMode.MANIFEST_V3 or not stage_enabled:
        # the registry-driven stage and a compiled-out one deliver nothing
        expected.remove(Stage.ON_REQUEST_CREDENTIALS.value)
    assert [e.label for e in transcript.deliveries()] == expected  # request side only


@pytest.mark.parametrize(
    "mode, credential_ids",
    [(DefenseMode.DESIGN4_API_EARLY, [7, 8]), (DefenseMode.DESIGN5_API_LATE, [8])],
)
def test_redirect_restarts_the_walk_at_each_hop(mode, credential_ids):
    target = Url.parse("https://elsewhere.example/hop")  # no source page, no override
    regs = observing_registry(REQUEST_SIDE, [])
    regs.add(
        listener(
            Stage.ON_BEFORE_REQUEST,
            lambda view: Redirect(target) if view.request_id == 7 else None,
            blocking=True,
            lid="r",
        )
    )
    config = PipelineConfig(defense_mode=mode)
    final, transcript = dispatch(post(), regs, config, id_allocator=lambda: 8)
    reached = [
        e.request_id
        for e in transcript.deliveries()
        if e.label == Stage.ON_REQUEST_CREDENTIALS.value
    ]
    assert reached == credential_ids
    assert final.channel_security is ChannelSecurity.GOOD_TLS


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


def test_transcript_line_format():
    sink: list[StageView] = []
    regs = registry(listener(Stage.ON_BEFORE_REQUEST, lid="obs.obr", sink=sink))
    _, transcript = dispatch(post(), regs, design5_config())
    line = transcript.events[0].to_line()
    body = b"user=alice&pw=" + NONCE.encode()
    assert line == (
        f"7 onBeforeRequest obs.obr full_pre_substitution {hashlib.sha256(body).hexdigest()}"
    )


def test_every_listener_at_a_stage_gets_the_same_view():
    seen: list[StageView] = []
    sink: list[StageView] = []

    def watch(view):
        seen.append(view)
        return sub() if view.stage is Stage.ON_REQUEST_CREDENTIALS else None

    regs = registry(
        *(
            listener(stage, watch, lid=f"{stage.value}.{i}", sink=sink)
            for stage in Stage
            for i in range(3)
        )
    )
    config = design5_config()
    request = post()
    final, transcript = dispatch(request, regs, config)
    process_response(WebResponseRecord(7, 200), regs, request_url=final.url, transcript=transcript)
    assert final.body.entries[1] == ("pw", SECRET)
    assert [view.stage for view in seen[::3]] == list(stage_order(config.defense_mode))
    for first in range(0, len(seen), 3):
        assert seen[first] is seen[first + 1] is seen[first + 2]
    assert len({id(view) for view in seen}) == len(Stage)  # one view per stage
    deliveries = [event.view for event in transcript.deliveries()]
    assert len(deliveries) == len(sink) == len(seen)
    assert all(a is b is c for a, b, c in zip(deliveries, sink, seen))
    # the body-visible views carry the pre-substitution body they show;
    # design5's credential-stage view is stripped
    for view in seen[:9]:
        assert view.form is request.body and view.body == request.body.raw
    assert all(view.form is None for view in seen[9:12])


def test_transcript_text_never_contains_body_bytes():
    regs = registry(listener(Stage.ON_BEFORE_REQUEST, lid="obs"))
    _, transcript = dispatch(post(), regs, design5_config())
    text = transcript.to_text()
    assert NONCE not in text and "alice" not in text


def test_golden_transcript_frozen():
    """End-to-end transcript for a fixed flow must match the frozen bytes."""
    sink: list[StageView] = []
    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, lid="obs.obr", sink=sink),
        listener(Stage.ON_SEND_HEADERS, lid="obs.osh", sink=sink),
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="manager.substitute"),
        listener(Stage.ON_HEADERS_RECEIVED, lid="obs.ohr", sink=sink),
        listener(Stage.ON_COMPLETED, lid="obs.oc", sink=sink),
    )
    final, transcript = dispatch(post(), regs, design5_config())
    response = WebResponseRecord(7, 200, headers=(("Content-Type", "text/html"),))
    process_response(response, regs, request_url=final.url, transcript=transcript)
    golden = (GOLDEN_DIR / "transcript_design5.txt").read_text()
    assert transcript.to_text() == golden


def test_deliveries_are_told_from_browser_events_by_kind():
    # a listener may take the browser's own listener id; it is still a delivery
    regs = registry(
        listener(Stage.ON_BEFORE_REQUEST, lid=EVENT_LISTENER),
        listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="manager.substitute"),
    )
    _, transcript = dispatch(post(), regs, design5_config())
    assert [(e.listener_id, e.label) for e in transcript.deliveries()] == [
        (EVENT_LISTENER, "onBeforeRequest"),
        ("manager.substitute", "onRequestCredentials"),
    ]
    assert [e.label for e in transcript.events] == [
        "onBeforeRequest",
        "onRequestCredentials",
        "substitution",
    ]


def test_listeners_cannot_change_a_view_or_a_transcript_line():
    blocked: list[tuple[Stage, str]] = []
    form_tries: list[tuple[Stage, str]] = []
    form_blocked: list[tuple[Stage, str]] = []

    def tamper(view):
        for name in view._fields + ("extra",):
            try:
                setattr(view, name, None)
            except AttributeError:
                blocked.append((view.stage, name))
        if view.form is None:
            return
        # the body is shared with every view and line: its digest cache too
        view.form.digest()
        for name in view.form._fields + ("_digest", "extra"):
            for change in (lambda: setattr(view.form, name, "forged"), lambda: delattr(view.form, name)):
                form_tries.append((view.stage, name))
                try:
                    change()
                except AttributeError:
                    form_blocked.append((view.stage, name))

    # the swap adds a browser event among the deliveries
    swap = listener(Stage.ON_REQUEST_CREDENTIALS, lambda v: sub(), lid="m")
    regs = registry(*(listener(stage, tamper, lid=stage.value) for stage in Stage), swap)
    final, transcript = dispatch(post(), regs, design5_config())
    response = WebResponseRecord(7, 200, headers=(("Set-Cookie", "s=1"),))
    process_response(response, regs, request_url=final.url, transcript=transcript)
    # request views and response views alike
    names = StageView._fields + ("extra",)
    stages = stage_order(DefenseMode.DESIGN5_API_LATE)
    assert blocked == [(stage, name) for stage in stages for name in names]
    assert form_tries and form_blocked == form_tries
    lines = transcript.to_text()
    assert "forged" not in lines
    assert {type(e) for e in transcript.events} == {Delivery, TranscriptEvent}
    line_names = ("listener_id", "view", "request_id", "label", "body_view", "digest", "extra")
    for event in transcript.events:
        for name in line_names:
            with pytest.raises(AttributeError):
                setattr(event, name, None)
    assert transcript.to_text() == lines


# ---------------------------------------------------------------------------
# response side
# ---------------------------------------------------------------------------


def test_response_views_have_no_body():
    seen = []
    regs = registry(
        listener(Stage.ON_HEADERS_RECEIVED, seen.append, lid="obs.ohr"),
        listener(Stage.ON_RESPONSE_STARTED, seen.append, lid="obs.ors"),
        listener(Stage.ON_COMPLETED, seen.append, lid="obs.oc"),
    )
    response = WebResponseRecord(7, 200, headers=(("Set-Cookie", "s=1"),), body=b"secret page")
    final, _ = process_response(response, regs, request_url=DEST)
    assert final.body == b"secret page"  # page still gets the body
    assert len(seen) == 3
    for view in seen:
        assert view.body is None
        assert view.body_view is BodyView.ABSENT
        assert view.status == 200
        assert view.header("Set-Cookie") == "s=1"
