"""Acceptance gate: one test per release criterion, one verdict line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` and then asserts, so a
plain `pytest -v tests/test_acceptance.py` reads as a checklist. Criteria
with budgets (wall time, trial counts) measure and enforce them here.
"""

import string
import time
from random import Random

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from noncepipe.adversaries import (
    EXPECTED_FIDO2_CELLS,
    EXPECTED_MATRIX,
    evaluate_fido2_cells,
    evaluate_matrix,
    run_reflection_attack,
)
from noncepipe.cli import main as cli_main
from noncepipe.dom import Field, FieldKind, Form
from noncepipe.extensions import ExtensionManifest, Permission
from noncepipe.fido2 import (
    AUTHENTICATION,
    REGISTRATION,
    HEADER_REQUEST,
    HEADER_REQUEST_SHORT,
    HEADER_RESPONSE,
    HEADER_URL_RESP,
    Fido2Request,
    RelyingParty,
    response_from_json,
)
from noncepipe.http_model import (
    URLENCODED,
    ChannelSecurity,
    Origin,
    RequestBody,
    Url,
    WebRequestRecord,
    WebResponseRecord,
    decode_urlencoded,
)
from noncepipe.manager import NonceRecord, PasswordManager, VaultEntry, generate_nonce
from noncepipe.pipeline import (
    BodyView,
    DefenseMode,
    ListenerRegistration,
    ListenerRegistry,
    PipelineConfig,
    Stage,
    StageView,
    SubstitutionRequest,
    apply_substitutions,
    dispatch,
)
from noncepipe.rng import substream
from noncepipe.session import BrowserSession
from noncepipe.sites import (
    ServerFarm,
    SiteProfile,
    build_fixture_corpus,
    build_login_page,
    compat_evaluate,
    site_vault_entry,
)

SEED = 2026
SSO = Origin("https", "sso.example", 443)


def verdict(number: int, name: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not problems, f"criterion {number}: " + "; ".join(problems)


# ---------------------------------------------------------------------------
# 1. the security matrix, at scale
# ---------------------------------------------------------------------------


def test_criterion_1_security_matrix():
    problems = []
    start = time.perf_counter()
    report = evaluate_matrix(seed=SEED, strategies_per_cell=100)
    elapsed = time.perf_counter() - start
    if report.verdicts() != EXPECTED_MATRIX:
        problems.append(f"verdicts diverge: {report.mismatches()}")
    if report.strategies_per_cell != 100:
        problems.append("fewer than 100 strategies per cell")
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s (budget 30s)")
    verdict(1, "security matrix 100 strategies/cell", problems)


# ---------------------------------------------------------------------------
# 2. the three-check substitution guard, fuzzed
# ---------------------------------------------------------------------------


def test_criterion_2_substitution_guard_triples():
    rng = substream(SEED, "criterion2")
    hosts = ("site.example", "alt.example", "bank.test")
    letters = string.ascii_lowercase
    triples = 0
    problems = []

    def check(entries, sub, url, expect_applied):
        nonlocal triples
        triples += 1
        new_entries, applied = apply_substitutions(entries, [sub], url)
        if expect_applied:
            if applied != (sub,):
                problems.append(f"expected application, got {applied!r}")
            hit = [
                (n, v)
                for (n, v), (nn, nv) in zip(entries, new_entries)
                if (n, v) != (nn, nv)
            ]
            if not hit or any(n != sub.field_name for n, _ in hit):
                problems.append("replacement touched the wrong entries")
        elif applied or new_entries != tuple(entries):
            problems.append("substitution applied despite a failing check")

    for _ in range(2500):
        if problems:
            break
        field = "".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
        nonce = generate_nonce(rng)
        replacement = "pw-" + "".join(rng.choice(letters) for _ in range(8))
        host = rng.choice(hosts)
        origin = Origin("https", host, 443)
        url = Url("https", host, 443, "/login")
        sub = SubstitutionRequest(field, nonce, replacement, origin)

        entries = [(field, nonce)]
        for _ in range(rng.randint(0, 3)):
            noise = "n_" + "".join(rng.choice(letters) for _ in range(6))
            entries.insert(rng.randint(0, len(entries)), (noise, generate_nonce(rng)))
        entries = tuple(entries)

        # all three checks hold
        check(entries, sub, url, expect_applied=True)
        # mutate exactly one input per trial
        check(entries, SubstitutionRequest(field + "x", nonce, replacement, origin), url, False)
        wrong_value = tuple(
            (n, v[:-1] + ("A" if v[-1] != "A" else "B")) if (n, v) == (field, nonce) else (n, v)
            for n, v in entries
        )
        check(wrong_value, sub, url, expect_applied=False)
        other_host = rng.choice([h for h in hosts if h != host])
        check(entries, sub, Url("https", other_host, 443, "/login"), False)

    if triples < 10_000:
        problems.append(f"only {triples} triples exercised")
    verdict(2, f"guard fuzz over {triples} triples", problems)


# ---------------------------------------------------------------------------
# 3. five refusal scenarios, one per safety check
# ---------------------------------------------------------------------------


ORIGIN = Origin("https", "bank.example", 443)
NONCE = "Ab0Cd1Ef2Gh3Ij4K"


NONCE_MODES = (
    DefenseMode.DESIGN4_API_EARLY,
    DefenseMode.DESIGN5_API_LATE,
    DefenseMode.MANIFEST_V3,
)


def _record(*, in_iframe=False, field_name="password"):
    entry = VaultEntry(ORIGIN, "alice", "correct-horse")
    return NonceRecord(
        nonce=NONCE,
        entry=entry,
        form_id="login",
        field_name=field_name,
        in_iframe=in_iframe,
        pinning_enabled=True,
    )


def _view(
    *,
    method="POST",
    url="https://bank.example/login",
    query=(),
    entries=(("username", "alice"), ("password", NONCE)),
    channel=ChannelSecurity.GOOD_TLS,
):
    form = RequestBody.urlencoded(entries) if method == "POST" else None
    return StageView(
        request_id=1,
        stage=Stage.ON_BEFORE_REQUEST,
        method=method,
        url=url,
        query=tuple(query),
        headers=(("Content-Type", URLENCODED),) if form is not None else (),
        body_view=BodyView.FULL_PRE_SUBSTITUTION if form is not None else BodyView.ABSENT,
        form=form,
        channel=channel,
    )


def _rename_password(page):
    page.form("login").field_named("password").name = "creds"


def _get_submit(page):
    page.form("login").method = "GET"


# each refusal as a real login: page kwargs, form action, a mutation after
# autofill, and the check expected to refuse (None: the all-clear login)
E2E_REFUSALS = (
    ({}, "https://bank.example/login", None, None),
    ({"is_iframe": True}, "https://bank.example/login", None, 1),
    ({"bad_tls": True}, "https://bank.example/login", None, 2),
    ({}, "https://evil.example/login", None, 3),
    ({}, "https://bank.example/login", _get_submit, 4),
    ({}, "https://bank.example/login", _rename_password, 5),
)


def _e2e_refusal(mode, page_kwargs, action, mutate):
    """Run one login through a BrowserSession; return its refusal line (None
    if approved) and whether the password reached the wire."""

    def serve(request):
        return WebResponseRecord(request.request_id, 200, body=b"ok"), "ok"

    session = BrowserSession(SEED, mode, [VaultEntry(ORIGIN, "alice", "correct-horse")], serve)
    page = session.new_page(ORIGIN, **page_kwargs)
    page.add_form(
        Form(
            form_id="login",
            action=Url.parse(action),
            fields=[Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
        )
    )
    session.autofill(page, "login")
    if mutate is not None:
        mutate(page)
    result = session.submit(page, "login")
    body = result.wire.body.raw.decode() if result.wire.body is not None else ""
    sent = "correct-horse" in result.wire.url.to_string() + body
    # every nonce mode writes its refusal to the transcript, and only there
    refusals = [e.to_line() for e in result.transcript.events if e.label == "substitutionRefused"]
    assert len(refusals) <= 1
    return (refusals[0] if refusals else None), sent


def test_criterion_3_five_refusal_scenarios():
    problems = []
    manager = PasswordManager([], substream(SEED, "criterion3"))
    view = _view()
    if not manager.safety_check(_record(), view, Url.parse(view.url)).approved:
        problems.append("the all-clear scenario was refused")

    scenarios = [
        (1, _record(in_iframe=True), _view()),
        (2, _record(), _view(channel=ChannelSecurity.PLAIN_HTTP)),
        (3, _record(), _view(url="https://evil.example/login")),
        (
            4,
            _record(),
            _view(
                method="GET",
                url=f"https://bank.example/login?password={NONCE}",
                query=(("password", NONCE),),
            ),
        ),
        (5, _record(), _view(entries=(("username", "alice"), ("creds", NONCE)))),
    ]
    refused = []
    for expected_reason, record, view in scenarios:
        decision = manager.safety_check(record, view, Url.parse(view.url))
        if decision.approved:
            problems.append(f"scenario {expected_reason} was not refused")
        elif decision.reason != expected_reason:
            problems.append(
                f"scenario {expected_reason} refused by check {decision.reason}"
            )
        else:
            refused.append(expected_reason)
    if refused != [1, 2, 3, 4, 5]:
        problems.append(f"refusals {refused} != [1, 2, 3, 4, 5]")

    # the same five refusals end to end, in every nonce mode, for one reason
    # each, written as the same transcript line
    for mode in NONCE_MODES:
        for page_kwargs, action, mutate, expected in E2E_REFUSALS:
            line, sent = _e2e_refusal(mode, page_kwargs, action, mutate)
            wanted = None if expected is None else f"1 substitutionRefused !browser - check={expected}"
            if line != wanted:
                problems.append(f"{mode.value}: expected {wanted!r}, got {line!r}")
            if sent is not (expected is None):
                problems.append(f"{mode.value}: check {expected}: password on wire={sent}")
    verdict(3, f"refusal scenarios {len(refused)}/5, end to end in 3 modes", problems)


# ---------------------------------------------------------------------------
# 4. reflection attack vs pinning
# ---------------------------------------------------------------------------


def test_criterion_4_reflection_vs_pinning():
    problems = []
    cases = [
        ("retarget", False, True),  # all fields reflected, no pin: leaks
        ("retarget", True, False),  # pin blocks the moved submit URL
        ("rename", False, False),  # field-name check blocks regardless
        ("rename", True, False),
    ]
    for variant, pinning, should_leak in cases:
        notes = set()
        for mode in NONCE_MODES:
            outcome = run_reflection_attack(SEED, pinning=pinning, variant=variant, defense=mode)
            notes.add(outcome.notes)
            if outcome.secret_leaked is not should_leak:
                problems.append(
                    f"{mode.value} {variant}/pinning={'on' if pinning else 'off'}: "
                    f"leaked={outcome.secret_leaked}, expected {should_leak}"
                )
        if len(notes) != 1:  # the same refusing check in every nonce mode
            problems.append(f"{variant}/pinning={pinning}: modes disagree: {sorted(notes)}")
    verdict(4, "reflection blocked except retarget+no-pin, in 3 modes", problems)


# ---------------------------------------------------------------------------
# 5. compatibility over the fixture corpus
# ---------------------------------------------------------------------------


def test_criterion_5_fixture_corpus_compatibility():
    problems = []
    start = time.perf_counter()
    report = compat_evaluate(build_fixture_corpus(), SEED, DefenseMode.DESIGN5_API_LATE)
    elapsed = time.perf_counter() - start

    counts = report.counts()
    if counts.get("plain_post") != {"compatible": 554}:
        problems.append(f"plain_post: {counts.get('plain_post')}")
    if counts.get("hashes_password") != {"hash_broken": 11}:
        problems.append(f"hashes_password: {counts.get('hashes_password')}")
    if counts.get("transforms_password") != {"transform_broken": 8}:
        problems.append(f"transforms_password: {counts.get('transforms_password')}")

    plain = [r for r in report.records if r.category == "plain_post"]
    if not all(r.wire_identical for r in plain):
        problems.append("a plain_post site produced differing wire bytes")
    hashed = [r for r in report.records if r.category == "hashes_password"]
    if not all(r.verdict_defended == "integrity_fail" for r in hashed):
        problems.append("a hashing site did not fail integrity under defense")
    transformed = [r for r in report.records if r.category == "transforms_password"]
    if not all(r.password_on_wire is False for r in transformed):
        problems.append("a transforming site put the real password on the wire")
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    verdict(5, "fixture corpus 554/11/8 classified", problems)


# ---------------------------------------------------------------------------
# 6. overhead: the credential stage is free when unused
# ---------------------------------------------------------------------------


def _login_request(entries) -> WebRequestRecord:
    body = RequestBody.urlencoded(entries)
    return WebRequestRecord(
        request_id=7,
        method="POST",
        url=Url("https", "site.example", 443, "/login"),
        headers=(("Host", "site.example"), ("Content-Type", body.content_type)),
        body=body,
        channel_security=ChannelSecurity.GOOD_TLS,
    )


def _credential_listener(subs):
    return ListenerRegistration(
        listener_id="mgr.substitute",
        extension_id="mgr",
        stage=Stage.ON_REQUEST_CREDENTIALS,
        blocking=False,
        callback=lambda view: list(subs),
    )


def test_criterion_6_zero_overhead_and_single_pair_diff():
    problems = []
    nonce = generate_nonce(substream(SEED, "criterion6"))
    entries = (("username", "alice"), ("password", nonce), ("remember", "1"))

    # no replacement requested: wire bytes identical to a pipeline with the
    # credential stage compiled out entirely
    registry = ListenerRegistry()
    registry.add(_credential_listener([]))
    with_stage, _ = dispatch(
        _login_request(entries),
        registry,
        PipelineConfig(DefenseMode.DESIGN5_API_LATE, credential_stage_enabled=True),
    )
    without_stage, _ = dispatch(
        _login_request(entries),
        ListenerRegistry(),
        PipelineConfig(DefenseMode.DESIGN5_API_LATE, credential_stage_enabled=False),
    )
    if with_stage.body.raw != without_stage.body.raw:
        problems.append("idle credential stage changed the wire bytes")
    if with_stage.headers != without_stage.headers:
        problems.append("idle credential stage changed the headers")

    # one replacement requested: the decoded bodies differ in exactly one pair
    sub = SubstitutionRequest(
        "password", nonce, "real-password-9", Origin("https", "site.example", 443)
    )
    registry = ListenerRegistry()
    registry.add(_credential_listener([sub]))
    substituted, _ = dispatch(
        _login_request(entries),
        registry,
        PipelineConfig(DefenseMode.DESIGN5_API_LATE, credential_stage_enabled=True),
    )
    before = decode_urlencoded(without_stage.body.raw)
    after = decode_urlencoded(substituted.body.raw)
    if len(before) != len(after):
        problems.append("substitution changed the number of fields")
    diff = [(b, a) for b, a in zip(before, after) if b != a]
    if diff != [(("password", nonce), ("password", "real-password-9"))]:
        problems.append(f"diff is not exactly the one replaced pair: {diff!r}")
    verdict(6, "substitution overhead", problems)


# ---------------------------------------------------------------------------
# 7. FIDO2 end to end, with independent crypto and a mutation battery
# ---------------------------------------------------------------------------


def _rp_server(rp):
    def serve(request):
        if request.url.path == "/webauthn/begin":
            params = dict(request.url.query)
            return rp.begin(params["kind"], params["username"], request.request_id), "begin"
        if request.url.path == "/webauthn/finish":
            result = rp.finish(request)
            label = "accepted" if result.accepted else f"rejected:{result.reason}"
            return WebResponseRecord(request.request_id, 200, body=label.encode()), label
        return WebResponseRecord(request.request_id, 404), "404"

    return serve


def _finish_record(payload: str) -> WebRequestRecord:
    return WebRequestRecord(
        request_id=990_500,
        method="POST",
        url=Url("https", "sso.example", 443, "/webauthn/finish"),
        headers=(("Host", "sso.example"), (HEADER_RESPONSE, payload)),
        body=None,
        channel_security=ChannelSecurity.GOOD_TLS,
    )


def test_criterion_7_fido2_end_to_end():
    problems = []
    start = time.perf_counter()

    rp = RelyingParty(SSO, Random(SEED), defense_enabled=True)
    session = BrowserSession(
        SEED, DefenseMode.DESIGN5_API_LATE, [], _rp_server(rp), name="acceptance"
    )
    session.device.witness = witness = []
    page = session.new_page(SSO)
    if session.fido2_register(page, SSO, "alice").verdict != "accepted":
        problems.append("honest registration refused")
    if session.fido2_authenticate(page, SSO, "alice").verdict != "accepted":
        problems.append("honest authentication refused")

    # independent verification: the assertion the device witnessed checks out
    # under OpenSSL, against the public key the server stored
    assertion = response_from_json(witness[3])
    stored = rp.accounts["alice"]
    public_key = ec.EllipticCurvePublicKey.from_encoded_point(
        ec.SECP256R1(), stored.public_key
    )
    try:
        public_key.verify(
            assertion.signature, assertion.signed_payload(), ec.ECDSA(hashes.SHA256())
        )
    except Exception as exc:  # InvalidSignature
        problems.append(f"independent signature check failed: {exc!r}")

    # the four attack cells
    if evaluate_fido2_cells(seed=SEED) != EXPECTED_FIDO2_CELLS:
        problems.append("attack cells diverge from the expected table")

    # counter replay: a cloned authenticator reuses a stale counter
    clone = session.device.clone("cloned", substream(SEED, "clone"))
    session.fido2_authenticate(page, SSO, "alice")  # real device moves ahead
    begin = rp.begin(AUTHENTICATION, "alice", 990_400)
    stale = clone.get_assertion(Fido2Request.from_json(begin.header(HEADER_REQUEST)))
    replay = rp.finish(_finish_record(stale.to_json()))
    if replay.accepted or replay.reason != "counter_replay":
        problems.append(f"stale-counter replay not caught: {replay!r}")

    # mutation battery: flip one byte of a signed response 256 times; the
    # server must reject every variant and still accept the genuine one
    begin = rp.begin(AUTHENTICATION, "alice", 990_600)
    real = session.device.get_assertion(Fido2Request.from_json(begin.header(HEADER_REQUEST)))
    payload = real.to_json()
    raw = payload.encode("utf-8")
    genuine = response_from_json(payload)
    rng = substream(SEED, "mutations")
    rejected = 0
    for _ in range(256):
        while True:
            position = rng.randrange(len(raw))
            replacement = rng.randrange(256)
            if replacement == raw[position]:
                continue
            mutated = raw[:position] + bytes([replacement]) + raw[position + 1 :]
            text = mutated.decode("utf-8", errors="replace")
            try:
                if response_from_json(text) == genuine:
                    continue  # a base64 synonym re-encoding, not a mutation
            except Exception:
                pass
            break
        if rp.finish(_finish_record(text)).accepted:
            problems.append(f"mutated byte at {position} was accepted")
            break
        rejected += 1
    if rejected != 256:
        problems.append(f"only {rejected}/256 mutations exercised")
    if not rp.finish(_finish_record(payload)).accepted:
        problems.append("genuine response refused after the mutation battery")

    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s (budget 10s)")
    verdict(7, "fido2 end-to-end + 256 mutations", problems)


# ---------------------------------------------------------------------------
# 8. header hygiene: strip before any listener sees the response
# ---------------------------------------------------------------------------


def test_criterion_8_strip_precedes_listener_views():
    problems = []
    rp = RelyingParty(SSO, Random(SEED + 1), defense_enabled=True)
    session = BrowserSession(
        SEED, DefenseMode.DESIGN5_API_LATE, [], _rp_server(rp), name="hygiene"
    )
    rp.witness = witness = []
    ext = session.host.install(
        ExtensionManifest("observer", frozenset({Permission.WEB_REQUEST}))
    )
    observed_stages = (
        Stage.ON_BEFORE_REQUEST,
        Stage.ON_BEFORE_SEND_HEADERS,
        Stage.ON_SEND_HEADERS,
        Stage.ON_HEADERS_RECEIVED,
        Stage.ON_RESPONSE_STARTED,
        Stage.ON_COMPLETED,
    )
    for stage in observed_stages:
        session.host.register_listener("observer", stage, lambda view: None)

    page = session.new_page(SSO)
    finish_url = Url(SSO.scheme, SSO.host, SSO.port, "/webauthn/finish")
    transcripts = []
    # the steps of fido2_register and fido2_authenticate, so the begin
    # transcripts are in hand too
    ceremonies = ((REGISTRATION, page.webauthn.create), (AUTHENTICATION, page.webauthn.get))
    for kind, ceremony in ceremonies:
        begin = session.fido2_begin(page, SSO, kind, "alice")
        finish = session.fido2_finish(page, finish_url, ceremony(page.rendered_text))
        transcripts += [begin.transcript, finish.transcript]

    strips = 0
    for transcript in transcripts:
        for request_id in {e.request_id for e in transcript.events}:
            labels = [e.label for e in transcript.events if e.request_id == request_id]
            if "fido2Strip" in labels:
                strips += 1
                if "onHeadersReceived" in labels and labels.index(
                    "fido2Strip"
                ) > labels.index("onHeadersReceived"):
                    problems.append(f"strip ran after a listener view (id {request_id})")
    if strips < 2:  # one per begin (registration + authentication)
        problems.append(f"expected at least 2 strip events, saw {strips}")

    secret_headers = {
        HEADER_REQUEST.lower(),
        HEADER_REQUEST_SHORT.lower(),
        HEADER_URL_RESP.lower(),
    }
    for transcript in transcripts:
        for event in transcript.deliveries():
            names = {name.lower() for name, _ in event.view.headers}
            if names & secret_headers:
                problems.append(f"listener view at {event.label} carried {names & secret_headers}")

    real_challenges = [w for w in witness if len(w) == 43]  # challenge b64, pad stripped
    if len(real_challenges) < 2:
        problems.append("witness captured no challenges; test is vacuous")
    for challenge in real_challenges:
        if any(challenge in seen for seen in ext.observations):
            problems.append("a real challenge reached an extension view")
    verdict(8, "channel headers never reach listeners", problems)


# ---------------------------------------------------------------------------
# 9. determinism of the command line
# ---------------------------------------------------------------------------


def test_criterion_9_command_determinism(tmp_path, capsys):
    problems = []
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "plain_post\ta.example\t-\nhashes_password\tb.example\t-\n", encoding="utf-8"
    )
    commands = {
        "matrix": ["matrix", "--seed", str(SEED), "--strategies", "5"],
        "compat": ["compat", "--seed", str(SEED), "--corpus", str(corpus)],
        "fido2": ["fido2-demo", "--seed", str(SEED), "--replay"],
    }
    for name, argv in commands.items():
        trees = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                problems.append(f"{name} run {attempt} exited {code}")
                continue
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if len(trees) == 2 and trees[0] != trees[1]:
            problems.append(f"{name}: same seed, different output bytes")
    capsys.readouterr()  # the reports themselves are not under test here
    verdict(9, "same seed, byte-identical outputs", problems)


# ---------------------------------------------------------------------------
# 10. a nonce moved to another page
# ---------------------------------------------------------------------------


def _cross_page_probe(mode, b_in_iframe):
    """Autofill page A of one plain_post site, copy its username and nonce
    into page B's login form, submit B; return the result, the nonce and
    the password."""
    profile = SiteProfile("bank", "plain_post", ORIGIN)
    entry = site_vault_entry(profile, 7)
    farm = ServerFarm(7)
    farm.add_site(profile, entry.password)
    session = BrowserSession(7, mode, [entry], farm.serve)
    page_a, form_id = build_login_page(session, profile)
    session.autofill(page_a, form_id)
    page_b = session.new_page(ORIGIN, is_iframe=b_in_iframe)
    page_b.add_form(
        Form(
            form_id="login",
            action=profile.login_action,
            fields=[Field("username", FieldKind.TEXT), Field("password", FieldKind.PASSWORD)],
        )
    )
    for name in ("username", "password"):
        value = page_a.form(form_id).field_named(name).value
        page_b.form("login").field_named(name).value = value
    nonce = page_a.form(form_id).field_named("password").value
    return session.submit(page_b, "login"), nonce, entry.password


def test_criterion_10_nonce_swapped_only_on_its_own_page():
    # the records are the autofilled page's: B, same-origin iframe or a second
    # top-level page, has none, so every nonce mode sends the nonce
    problems = []
    for mode in NONCE_MODES:
        for b_in_iframe in (True, False):
            result, nonce, password = _cross_page_probe(mode, b_in_iframe)
            where = f"{mode.value} {'iframe' if b_in_iframe else 'top-level'} B"
            if ("password", nonce) not in result.wire.body.entries:
                problems.append(f"{where}: the nonce was not sent")
            if password in result.wire.body.raw.decode():
                problems.append(f"{where}: the password was sent")
            if any(e.label == "substitution" for e in result.transcript.events):
                problems.append(f"{where}: a substitution was applied")
            if result.verdict != "auth_fail":
                problems.append(f"{where}: verdict {result.verdict}")
    verdict(10, "a nonce is swapped only on its own page, in 3 modes", problems)
