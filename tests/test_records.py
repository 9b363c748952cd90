"""Records: one idiom, and what it must keep.

Immutable values are NamedTuples: no field can be set, and a record that
checks its fields checks them again on every copy path (`_replace`, `_make`
and the copies the program makes). Secret-bearing state is a plain slotted
class: not a tuple, so no serializer writes it out, and its repr hides the
secret. Importing the CLI loads neither `dataclasses` nor `inspect`, and no
`cryptography` until a FIDO2 signature is needed.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import pytest

from noncepipe import adversaries, cli, dom, extensions, fido2, http_model, pipeline, session, sites
from noncepipe.adversaries import (
    AttackOutcome,
    AttackScenario,
    MatrixCell,
    MatrixReport,
    _Attacker,
)
from noncepipe.cli import DEFENSE_TOKENS
from noncepipe.dom import (
    AddField,
    HookKind,
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
    channel_for,
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
from noncepipe.sites import LOGIN_SHAPES, CompatRecord, CompatReport, SiteProfile, _SiteState

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
VIEW = StageView(1, Stage.ON_SEND_HEADERS, "POST", URL, (), BodyView.ABSENT, None)

# one instance of every immutable record in the program
IMMUTABLE = [
    ORIGIN,
    URL,
    BODY,
    REQUEST,
    RESPONSE,
    NONCE_RECORD,
    DECISION,
    Verdict(1, NONCE_RECORD, DECISION),
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
    LOGIN_SHAPES["hashes_password"],
    _SiteState(PROFILE, (("password", "d1"), ("pw_hash", "d2"))),
    CompatRecord("s", "plain_post", "compatible", True, "auth_ok", "auth_ok", False),
    CompatReport(7, DefenseMode.DESIGN5_API_LATE, []),
    AttackScenario("n", "dom_observer", DefenseMode.BASELINE, 7),
    AttackOutcome("n", "dom_observer", "baseline", False),
    MatrixCell("baseline", "dom_observer", 1, 0),
    MatrixReport(7, 1, []),
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
SECURE_ENTRY = Fido2SecureEntry(FIDO2_REQUEST, "https://site.example/webauthn/finish")
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
    (REQUEST, {"method": "PUT"}, ValueError),
    (REQUEST, {"method": "GET"}, ValueError),  # a GET with a body
    (REQUEST, {"body": b"pw=x"}, TypeError),
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


def check_every_swap(monkeypatch) -> list[WebRequestRecord]:
    """Have each login's `dispatch` checked: when its last hop swapped, the
    record it returns must equal the checked copy that `_replace` builds from
    the hop's request and the entries `apply_substitutions` gave. Returns the
    list of the swapped records checked."""
    checked: list[WebRequestRecord] = []
    hop: dict = {}
    apply, run_phase, run = pipeline.apply_substitutions, pipeline._run_credential_phase, session.dispatch

    def recording_apply(entries, substitutions, destination):
        hop["entries"], applied = apply(entries, substitutions, destination)
        return hop["entries"], applied

    def credential_phase(request, *args):
        hop.clear()
        swapped = run_phase(request, *args)
        if swapped is not request:
            hop["request"] = request
        return swapped

    def dispatch(*args, **kwargs):
        hop.clear()
        try:
            wire, transcript = run(*args, **kwargs)
            if "request" in hop:
                request = hop["request"]
                assert wire == request._replace(body=request.body.with_entries(hop["entries"]))
                assert type(wire) is WebRequestRecord and type(wire.body) is RequestBody
                checked.append(wire)
            return wire, transcript
        finally:
            hop.clear()

    monkeypatch.setattr(pipeline, "apply_substitutions", recording_apply)
    monkeypatch.setattr(pipeline, "_run_credential_phase", credential_phase)
    monkeypatch.setattr(session, "dispatch", dispatch)
    return checked


@pytest.mark.parametrize(
    "mode",
    [DefenseMode.DESIGN4_API_EARLY, DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3],
    ids=lambda m: m.value,
)
def test_every_compat_swap_is_the_checked_copy(monkeypatch, mode):
    checked = check_every_swap(monkeypatch)
    sites.compat_evaluate(sites.build_fixture_corpus(), 7, mode)
    # the password field still holds the nonce at submit on these two
    assert len(checked) == sites.FIXTURE_COUNTS["plain_post"] + sites.FIXTURE_COUNTS["hashes_password"]


def test_every_matrix_plan_swap_is_the_checked_copy(monkeypatch):
    checked = check_every_swap(monkeypatch)
    adversaries.evaluate_matrix(7)
    assert checked


def _same(record, checked) -> None:
    """`record` equals its checked construction, type for type in every field."""
    assert type(record) is type(checked) and record == checked
    assert [type(field) for field in record] == [type(field) for field in checked]


def check_trusted_factories(monkeypatch) -> Counter:
    """Have every record a trusted factory builds on a flow checked against
    its checked construction: each request `build_request` returns against
    `WebRequestRecord(*r)`, and its page and channel against the caller's page
    and the channel of the action under that page's TLS; each server response
    against `WebResponseRecord(*r)` and its request's id; each flow
    `BrowserSession._run` returns against `FlowResult(*f)`, the request it was
    given, which `build_request` built, and its wire and response records;
    and each login form `Form.trusted` builds against `Form(...)` given the
    same fields, with the same hooks on a list of its own.
    Returns how many of each were checked."""
    counts: Counter = Counter()
    built: dict[int, WebRequestRecord] = {}
    build, serve, run = dom.build_request, sites.ServerFarm.serve, session.BrowserSession._run
    trusted = dom.Form.trusted

    def checked_form(cls, form_id, action, method, fields, hooks):
        form = trusted(form_id, action, method, fields, hooks)
        checked = dom.Form(form_id, action, method, fields)
        checked.submit_hooks.extend(hooks)
        for name in dom.Form.__slots__:
            assert getattr(form, name) == getattr(checked, name), name
        assert form.fields is fields and type(form.submit_hooks) is list
        counts["form"] += 1
        return form

    def checked_build(page, method, action, entries, request_id):
        request = build(page, method, action, entries, request_id)
        _same(request, WebRequestRecord(*request))
        assert request.source_page is page
        assert request.channel_security is channel_for(action, page.tls_overrides if page else {})
        built[id(request)] = request
        counts["request"] += 1
        return request

    def checked_serve(farm, request):
        response, verdict = serve(farm, request)
        _same(response, WebResponseRecord(*response))
        assert response.request_id == request.request_id
        counts["response"] += 1
        return response, verdict

    def checked_run(browser, request, page):
        flow = run(browser, request, page)
        _same(flow, FlowResult(*flow))
        assert built.pop(id(request)) is request and flow.request is request
        assert flow.cancelled is (flow.wire is None)
        if flow.wire is not None:
            _same(flow.wire, WebRequestRecord(*flow.wire))
            _same(flow.response, WebResponseRecord(*flow.response))
        counts["flow"] += 1
        counts["cancelled"] += flow.cancelled
        return flow

    for module in (dom, session, adversaries):  # each binds the factory by name
        monkeypatch.setattr(module, "build_request", checked_build)
    monkeypatch.setattr(sites.ServerFarm, "serve", checked_serve)
    monkeypatch.setattr(session.BrowserSession, "_run", checked_run)
    monkeypatch.setattr(dom.Form, "trusted", classmethod(checked_form))
    return counts


# every login shape, and a bad-TLS origin: each channel a request can take
SHAPES_CORPUS = "".join(
    f"{category}\thttps://{category.replace('_', '-')}.example\t-\n" for category in LOGIN_SHAPES
) + "plain_post\thttps://bad-tls.example\tbad_tls=1\n"


@pytest.mark.parametrize("defense", sorted(DEFENSE_TOKENS))
def test_every_compat_flow_is_built_as_checked(monkeypatch, tmp_path, defense):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(SHAPES_CORPUS, encoding="utf-8")
    counts = check_trusted_factories(monkeypatch)
    for extra in ([], ["--corpus", str(corpus)]):
        argv = ["compat", "--seed", "7", "--defense", defense, "--out", str(tmp_path / "out")]
        assert cli.main(argv + extra) == 0
    logins = 2 * (len(sites.build_fixture_corpus()) + len(LOGIN_SHAPES) + 1)  # baseline, then defended
    assert counts == {"form": logins, "request": logins, "response": logins, "flow": logins, "cancelled": 0}


@pytest.mark.parametrize(
    "argv", [["matrix"], ["fido2-demo", "--replay"], ["fido2-demo", "--replay", "--defense", "off"]]
)
def test_every_matrix_and_fido2_demo_flow_is_built_as_checked(monkeypatch, tmp_path, argv):
    counts = check_trusted_factories(monkeypatch)
    assert cli.main(argv + ["--seed", "7", "--out", str(tmp_path)]) == 0
    assert counts["flow"] > 0 and counts["response"] > 0
    if argv == ["matrix"]:  # every plan, the cancelling listeners' among them
        assert counts["cancelled"] > 0 and counts["form"] > 0


def test_every_idle_flow_is_built_as_checked(monkeypatch):
    """The nonce-free logins of each leg: every mode, and design5 with its
    credential stage compiled out; the right password and a wrong one."""
    counts = check_trusted_factories(monkeypatch)
    legs = [(mode, True) for mode in DefenseMode] + [(DefenseMode.DESIGN5_API_LATE, False)]
    profiles = [
        SiteProfile(f"idle-{category}", category, Origin("https", f"idle-{index}.example", 443))
        for index, category in enumerate(("plain_post", "hashes_password", "transforms_password"))
    ]
    for mode, stage_enabled in legs:
        farm = sites.ServerFarm(7)
        for profile in profiles:
            farm.add_site(profile, "idle-password")
        browser = session.BrowserSession(7, mode, [], farm.serve, credential_stage_enabled=stage_enabled)
        for profile in profiles:
            for typed in ("idle-password", "wrong"):
                page, form_id = sites.build_login_page(browser, profile)
                form = page.form(form_id)
                form.field_named("username").value = "alice"
                form.field_named("password").value = typed
                result = browser.submit(page, form_id)
                assert (result.verdict == "auth_ok") is (typed == "idle-password")
    logins = len(legs) * len(profiles) * 2
    assert counts == {"form": logins, "request": logins, "response": logins, "flow": logins, "cancelled": 0}


def _trusted_builds(path: Path) -> set[tuple[str, str, str, str]]:
    """(idiom, module, function, class) of each build in a module that skips
    a checked constructor: `tuple.__new__(<record>, …)` (idiom "tuple"), and
    `<Class>.__new__(<Class>)` or a call of the factory `<Class>.trusted(…)`
    that wraps it (idiom "slots"); `cls` and `type(self)` name the enclosing
    class."""
    found: set[tuple[str, str, str, str]] = set()

    def visit(node: ast.AST, scope: tuple[str, ...], owner: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), owner)
            else:
                func = child.func if isinstance(child, ast.Call) else None
                if isinstance(func, ast.Attribute) and func.attr in ("__new__", "trusted"):
                    on = ast.unparse(func.value)
                    built = ast.unparse(child.args[0]) if func.attr == "__new__" else on
                    built = owner if built in ("cls", "type(self)") else built
                    idiom = "tuple" if on == "tuple" else "slots"
                    found.add((idiom, path.stem, ".".join(scope), built))
                visit(child, scope, owner)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    visit(tree, (), None)
    for name in ("__new__", "trusted"):
        calls = sum(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == name
            for n in ast.walk(tree)
        )
        uses = sum(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(tree))
        assert uses == calls, f"{path.name} names .{name} other than in a call"
    return found


def _readme_table(header: str) -> set[tuple[str, str, str]]:
    """(module, function, class) of each row of the README table under `header`."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    listed: set[tuple[str, str, str]] = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        module, built, functions = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        listed |= {(module, function, built) for function in re.findall(r"[\w.]+", functions)}
    return listed


def _src_builds(idiom: str) -> set[tuple[str, str, str]]:
    sources = sorted(Path(http_model.__file__).parent.glob("*.py"))
    return {build[1:] for path in sources for build in _trusted_builds(path) if build[0] == idiom}


def test_every_tuple_new_record_build_is_in_the_readme_table():
    """A record built without its checks is one the README lists: trusted
    construction cannot spread unseen."""
    listed = _readme_table("| module | record | built with `tuple.__new__` in |")
    found = _src_builds("tuple")
    assert len(listed) >= 25  # the table was read
    assert sorted(found - listed) == [] and sorted(listed - found) == []


def test_every_slot_class_trusted_build_is_in_the_readme_table():
    """So is each slotted object built without its `__init__`, and each call
    of the factory that builds it."""
    listed = _readme_table("| module | class | built without `__init__` in |")
    found = _src_builds("slots")
    assert listed  # the table was read
    assert sorted(found - listed) == [] and sorted(listed - found) == []
    for module, _, name in found:
        cls = vars(importlib.import_module(f"noncepipe.{module}"))[name]
        assert "__slots__" in vars(cls) and not issubclass(cls, tuple), name


def test_forged_challenge_copy_is_checked():
    page = SimpleNamespace(webauthn=SimpleNamespace(get=None))
    world = SimpleNamespace(open=lambda profile, entry, seed, name: (page, ""), session=None)
    attacker = _Attacker(world, None, None, 0)
    attacker.script = ScriptHandle("xss-payload")
    attacker.begin = SimpleNamespace(challenge=b"short")  # the request copy must catch it
    attacker.run((("override_get",),))
    with pytest.raises(MalformedPayload, match="challenge must be 32 bytes"):
        page.webauthn.get(FIDO2_REQUEST.to_json())


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
