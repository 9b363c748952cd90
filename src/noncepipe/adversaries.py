"""Local adversaries and the security matrix they produce.

Three password-stealing adversary classes run against five defense modes:

- dom_observer: honest-but-curious page script, passive field reads
- dom_exfiltrator: injected script with full DOM control (reads, submit
  hooks, field renames, form retargeting)
- webrequest_exfiltrator: an extension holding webRequest, listening and
  optionally cancelling or redirecting

Each adversary has a small, finite set of plans (8, 128 and 381), each a
program of `_MOVES` steps in three phases, which one `_Attacker` runs, as
it runs the reflection attack and the FIDO2 attackers' set-up.
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

import functools
import json
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .dom import (
    AddField,
    FieldKind,
    HookKind,
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
    BEGIN_PATH,
    FINISH_FIELD,
    FINISH_PATH,
    HEADER_REQUEST,
    REGISTRATION,
    AuthenticatorDevice,
    Fido2Request,
    MalformedPayload,
    RelyingParty,
    response_from_json,
)
from .http_model import Origin, Url, held_secrets, sha256_hex
from .pipeline import (
    EVENT_SUBSTITUTION,
    Cancel,
    DefenseMode,
    Redirect,
    Stage,
    StageView,
)
from .rng import derive_seed, substream
from .session import BrowserSession
from .sites import (
    LOGIN_CATEGORIES,
    REFLECT_PATH,
    ServerFarm,
    SiteProfile,
    build_login_page,
    site_vault_entry,
)

__all__ = [
    "AttackOutcome",
    "AttackScenario",
    "DEFAULT_STRATEGIES",
    "FIDO2_ADVERSARIES",
    "FIDO2_DEFENSES",
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
# the relying party's side of a FIDO2 cell, indexed by whether it runs the
# header channel
FIDO2_DEFENSES = ("legacy", "header_channel")


class GoldenFormatError(ValueError):
    """A golden matrix file cannot be read or lacks a valid verdict for a cell."""


def load_expected_matrix(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a golden `matrix.json`: {"cells": {defense: {adversary: verdict}}}.

    Every DefenseMode x PASSWORD_ADVERSARIES cell and every FIDO2_DEFENSES x
    FIDO2_ADVERSARIES cell must hold "protected" or "unprotected"; other
    keys are ignored.
    """
    try:
        cells = json.loads(Path(path).read_text(encoding="utf-8"))["cells"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise GoldenFormatError(f"unreadable golden matrix {path}: {exc}") from exc
    expected: dict[str, dict[str, str]] = {}
    tables = (
        ([mode.value for mode in DefenseMode], PASSWORD_ADVERSARIES),
        (FIDO2_DEFENSES, FIDO2_ADVERSARIES),
    )
    for defenses, adversaries in tables:
        for defense in defenses:
            for adversary in adversaries:
                try:
                    verdict = cells[defense][adversary]
                except (KeyError, TypeError):
                    verdict = None
                if verdict not in ("protected", "unprotected"):
                    found = "missing" if verdict is None else repr(verdict)
                    raise GoldenFormatError(
                        f"golden matrix {path}: cell {defense}/{adversary} is {found},"
                        " want protected|unprotected"
                    )
                expected.setdefault(defense, {})[adversary] = verdict
    return expected


ATTACKER_EXTENSION_ID = "evil.collector"
CAPTURE_ORIGIN = Origin("https", "evil.example", 443)
_STEAL_URL = Url(CAPTURE_ORIGIN.scheme, CAPTURE_ORIGIN.host, CAPTURE_ORIGIN.port, "/steal")
_COLLECT_URL = Url(CAPTURE_ORIGIN.scheme, CAPTURE_ORIGIN.host, CAPTURE_ORIGIN.port, "/collect")
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

    Each secret is matched by `held_secrets`: verbatim and in its
    form-encoded shape, so secrets survive detection inside percent-encoded
    request bodies. An empty secret is never a leak.
    """
    leaked = held_secrets(observations, [secret for secret in secrets if secret])
    return tuple(sorted(sha256_hex(s) for s in leaked)), bool(leaked)


# ---------------------------------------------------------------------------
# the attacker and its programs
# ---------------------------------------------------------------------------


class _Program(NamedTuple):
    """What an attacker does, by phase: before autofill, after it, and after
    the response. A step is (move, *args): a `_MOVES` key and hashable
    args, so programs compare, hash and print."""

    before: tuple[tuple, ...]
    after: tuple[tuple, ...] = ()
    response: tuple[tuple, ...] = ()


class _Attacker:
    """One scenario's attacker: the session and page it attacks, its capture
    list, and the script and extension its steps create. Its moves are the
    methods `_MOVES` names."""

    __slots__ = ("session", "page", "form_id", "captured", "script", "extension")

    def __init__(self, session: BrowserSession, page, form_id, captured: list[str]) -> None:
        self.session = session
        self.page = page
        self.form_id = form_id
        self.captured = captured
        self.script: Optional[ScriptHandle] = None
        self.extension: Optional[Extension] = None

    def run(self, steps: Sequence[tuple]) -> None:
        for move, *args in steps:
            _MOVES[move](self, *args)

    def observations(self) -> list[str]:
        """What the leak check scans: the script's log, the extension's view
        strings, then the capture list."""
        seen = [] if self.script is None else list(self.script.log)
        if self.extension is not None:
            seen += self.extension.observations
        return seen + self.captured

    # -- a page script's moves ---------------------------------------------

    def attach(self, script_id: str) -> None:
        self.script = ScriptHandle(script_id)
        attach_script(self.page, self.script)

    def read_form(self) -> None:
        for field_name in ("password", "username"):
            try:
                script_read_field(self.script, self.page, self.form_id, field_name)
            except KeyError:
                pass

    def hook(self) -> None:
        hook = SubmitHook(kind=HookKind.CAPTURE_FIELDS, sink=self.script)
        script_mutate(self.script, self.page, RegisterSubmitHook(self.form_id, hook))

    def add_field(self) -> None:
        mutation = AddField(self.form_id, "tracker", FieldKind.HIDDEN, "1")
        try:
            script_mutate(self.script, self.page, mutation)
        except DuplicateField:
            pass

    def rename(self, old: str, new: str) -> None:
        try:
            script_mutate(self.script, self.page, RenameField(self.form_id, old, new))
        except (DuplicateField, KeyError):
            pass

    def retarget(self, url: Url) -> None:
        script_mutate(self.script, self.page, SetFormAction(self.form_id, url))

    def read_rendered(self) -> None:
        read_rendered_text(self.script, self.page)

    # -- an extension's moves ----------------------------------------------

    def install(self) -> None:
        self.extension = self.session.host.install(_ATTACKER_MANIFEST)

    def listen(self, stage: Stage, blocker: Optional[str] = None) -> None:
        """Listen at `stage`, blocking with the `_BLOCKERS` entry named, if any."""
        listener = _idle if blocker is None else _BLOCKERS[blocker](self)
        self.session.host.register_listener(
            ATTACKER_EXTENSION_ID, stage, listener, blocking=blocker is not None
        )


_MOVES = {
    move: vars(_Attacker)[move]
    for move in "attach read_form hook add_field rename retarget read_rendered install listen".split()
}


def _idle(view: StageView) -> None:
    """A listener that only looks: the pipeline keeps what it was shown."""


def _grab_finish(attacker: _Attacker):
    """Cancels the FIDO2 finish POST before it leaves, keeping the finish
    field of its body in the attacker's capture list."""

    def on_before_request(view: StageView) -> Optional[Cancel]:
        if view.url.path != FINISH_PATH or view.method != "POST":
            return None
        entries = view.form.entries if view.form is not None else ()
        value = next((value for name, value in entries if name == FINISH_FIELD), None)
        if value is not None:
            attacker.captured.append(value)
        return Cancel("intercepted")

    return on_before_request


# each blocking listener by name, made for one attacker; the redirect spares
# requests already bound for the capture origin
_BLOCKERS = {
    "redirect": lambda attacker: lambda view: (
        None if view.url.origin == CAPTURE_ORIGIN else Redirect(_STEAL_URL)
    ),
    "cancel": lambda attacker: lambda view: Cancel("dropped"),
    "grab_finish": _grab_finish,
}


# each move a page script's plan bits choose from, and its step, by phase;
# within a phase, steps run in this order
_SCRIPT_STEPS = (
    (("read_pre", ("read_form",)), ("hook_pre", ("hook",)), ("add_field", ("add_field",))),
    (("read_post", ("read_form",)), ("hook_post", ("hook",)),
     ("rename", ("rename", "password", "q")), ("retarget", ("retarget", _COLLECT_URL))),
    (("read_rendered", ("read_rendered",)),),
)


def _script_plans(script_id: str, bits: tuple[str, ...], plan0: frozenset[str]):
    """A page script's plan count and plan decoder. Bit k of a plan index
    flips bits[k] from how plan0 sets it, so plan 0 makes the plan0 moves;
    the script attaches first."""

    def decode(plan: int) -> _Program:
        chosen = {move for k, move in enumerate(bits) if (move in plan0) != bool(plan >> k & 1)}
        before, after, response = (
            tuple(step for move, step in phase if move in chosen) for phase in _SCRIPT_STEPS
        )
        return _Program((("attach", script_id), *before), after, response)

    return 1 << len(bits), decode


# the blocking listener a webRequest plan adds at onBeforeRequest, if any
_WEBREQUEST_BLOCKERS = (None, "redirect", "cancel")


def _webrequest_program(plan: int) -> _Program:
    """Plan i of the webRequest attacker, (left_out, blocker) = divmod(i, 3):
    install, listen at each Stage not left out by its bit in `left_out`,
    then block with _WEBREQUEST_BLOCKERS[blocker]. Plan 0 listens everywhere
    and blocks nothing; no plan leaves out all seven stages."""
    left_out, blocker = divmod(plan, 3)
    steps = [("install",)]
    steps += [("listen", stage) for k, stage in enumerate(Stage) if not left_out >> k & 1]
    if _WEBREQUEST_BLOCKERS[blocker] is not None:
        steps.append(("listen", Stage.ON_BEFORE_REQUEST, _WEBREQUEST_BLOCKERS[blocker]))
    return _Program(tuple(steps))


# each password adversary's plan count and plan decoder
_PLANS = {
    # passive page library: reads what the DOM will give it, nothing more
    "dom_observer": _script_plans(
        "analytics.js",
        ("read_pre", "read_post", "read_rendered"),
        frozenset({"read_pre", "read_post", "read_rendered"}),
    ),
    # injected script with full DOM control over the login page; plan 0's
    # late submit hook is its strongest move: it fires after any in-page
    # value swap a defense may have installed
    "dom_exfiltrator": _script_plans(
        "xss-payload",
        ("read_post", "hook_pre", "hook_post", "rename", "retarget", "add_field", "read_rendered"),
        frozenset({"read_post", "hook_post", "read_rendered"}),
    ),
    # an extension holding webRequest: listens, and may cancel or redirect
    "webrequest_exfiltrator": (3 * ((1 << len(Stage)) - 1), _webrequest_program),
}
# the largest plan count: this many strategies per cell run every plan
DEFAULT_STRATEGIES = max(count for count, _ in _PLANS.values())


@functools.cache
def _decoded(adversary: str, plan: int) -> _Program:
    return _PLANS[adversary][1](plan)


def _program(adversary: str, strategy_index: int) -> _Program:
    """The program strategy `strategy_index` of `adversary` runs: plan
    `strategy_index` modulo the plan count, decoded once."""
    return _decoded(adversary, strategy_index % _PLANS[adversary][0])


# the attacked site of each login category, built once
_TARGETS = {
    category: SiteProfile("target", category, Origin("https", "site.example", 443))
    for category in LOGIN_CATEGORIES
}


class _World:
    """A matrix cell's farm, capture sink and victim session in the cell's
    mode; a scenario resets what it owns."""

    def __init__(self, mode: DefenseMode) -> None:
        self.capture_sink: list[str] = []
        self.farm = ServerFarm()  # no relying party, so its seed is never drawn from
        self.farm.add_capture_origin(CAPTURE_ORIGIN, self.capture_sink)
        # each scenario's reset gives it its seed, vault and name
        self.session = BrowserSession(0, mode, (), self.farm.serve)


def run_scenario(scenario: AttackScenario, world: Optional[_World] = None) -> AttackOutcome:
    """One login under attack, in its cell's world or a new one; what the adversary got."""
    profile = _TARGETS.get(scenario.site_category)
    if profile is None:
        raise ValueError(f"not a login site category: {scenario.site_category!r}")
    entry = site_vault_entry(profile, scenario.seed)
    world = world or _World(scenario.defense_mode)
    world.farm.add_site(profile, entry.password)  # the digests are this scenario's
    world.capture_sink.clear()
    session = world.session
    session.reset(scenario.seed, [entry], name="victim")
    page, form_id = build_login_page(session, profile)
    before, after, response = _program(scenario.adversary, scenario.strategy_index)
    attacker = _Attacker(session, page, form_id, world.capture_sink)
    attacker.run(before)
    session.autofill(page, form_id)
    attacker.run(after)
    result = session.submit(page, form_id)
    attacker.run(response)
    leaked_digests, leaked = find_leaks([entry.password], attacker.observations())
    return AttackOutcome(
        scenario.name,
        scenario.adversary,
        scenario.defense_mode.value,
        leaked,
        leaked_digests,
        False,  # attacker_login
        False,  # attacker_registered
        ("cancelled",) if result.cancelled else (),
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

    def verdicts(self) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for cell in self.cells:
            out.setdefault(cell.defense, {})[cell.adversary] = cell.verdict
        return out

    def mismatches(self, expected: dict[str, dict[str, str]]) -> list[str]:
        verdicts = self.verdicts()
        problems = []
        for defense, row in expected.items():
            for adversary, verdict in row.items():
                got = verdicts.get(defense, {}).get(adversary)
                if got is None:
                    problems.append(f"{defense}/{adversary}: missing")
                elif got != verdict:
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
        for defense, row in self.verdicts().items():
            cells = "".join(row[adversary].ljust(width) for adversary in adversaries)
            lines.append((defense.ljust(20) + cells).rstrip())
        return "\n".join(lines) + "\n"


def evaluate_matrix(
    seed: int,
    strategies_per_cell: int = DEFAULT_STRATEGIES,
    modes: Sequence[DefenseMode] = tuple(DefenseMode),
) -> MatrixReport:
    report = MatrixReport(seed, strategies_per_cell, [])
    for mode in modes:
        defense = mode.value
        for adversary in PASSWORD_ADVERSARIES:
            world = _World(mode)
            leaks = 0
            for index in range(strategies_per_cell):
                scenario = AttackScenario(
                    f"{defense}/{adversary}/{index}",
                    adversary,
                    mode,
                    derive_seed(seed, "matrix", defense, adversary, str(index)),
                    index,
                )
                if run_scenario(scenario, world).secret_leaked:
                    leaks += 1
            report.cells.append(MatrixCell(defense, adversary, strategies_per_cell, leaks))
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
    attacker = _Attacker(session, page2, form2, [])
    reflect_url = Url(profile.origin.scheme, profile.origin.host, profile.origin.port, REFLECT_PATH)
    attacker.run((("attach", "xss-payload"), ("retarget", reflect_url)))
    if variant == "rename":
        attacker.run((("rename", "username", "q"), ("rename", "password", "username")))
    result = session.submit(page2, form2)
    attacker.run((("read_rendered",),))

    leaked_digests, leaked = find_leaks([entry.password], attacker.observations())
    notes = [f"variant={variant}", f"pinning={'on' if pinning else 'off'}"]
    # every nonce mode writes its refusal or its swap to the transcript as a
    # browser event; a delivery's label is its stage, and no body is hashed
    refused_check = result.transcript.refused_check()
    if refused_check is not None:
        notes.append(f"refused_by_check={refused_check}")
    elif any(e.label == EVENT_SUBSTITUTION for e in result.transcript.events):
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
    """Replaces the page's WebAuthn create: registrations run the attacker's key."""

    def __init__(self, attacker_device: AuthenticatorDevice, script: ScriptHandle):
        self.attacker_device = attacker_device
        self.script = script

    def create(self, payload_json: str) -> str:
        self.script.observe(payload_json)
        request = Fido2Request.from_json(payload_json)
        attestation = self.attacker_device.make_credential(request)
        out = attestation.to_json()
        self.script.observe(out)
        return out


class _AssertHijack:
    """Swaps the attacker's challenge into whatever the page hands the API;
    the attacker's script logs the signature, which also goes to its capture
    list, and the page gets junk."""

    def __init__(self, original, attacker_challenge: bytes, attacker: _Attacker):
        self.original = original
        self.attacker_challenge = attacker_challenge
        self.attacker = attacker

    def get(self, payload_json: str) -> str:
        script = self.attacker.script
        script.observe(payload_json)
        request = Fido2Request.from_json(payload_json)
        forged = request._replace(challenge=self.attacker_challenge)
        signed = self.original.get(forged.to_json())
        script.observe(signed)
        self.attacker.captured.append(signed)
        return "{}"


def _out_of_band_finish(farm: ServerFarm, origin: Origin, payload_json: str) -> str:
    """The attacker submits a finish from its own machine, not the browser."""
    url = Url(origin.scheme, origin.host, origin.port, FINISH_PATH)
    entries = ((FINISH_FIELD, payload_json),)
    _, verdict = farm.serve(build_request(None, "POST", url, entries, 990_000))
    return verdict


def _out_of_band_begin(farm: ServerFarm, origin: Origin, kind: str, username: str) -> str:
    """Fetch a begin payload directly; header stripping never happens here."""
    url = Url(origin.scheme, origin.host, origin.port, BEGIN_PATH)
    query = (("kind", kind), ("username", username))
    response, _ = farm.serve(build_request(None, "GET", url, query, 990_001))
    header = response.header(HEADER_REQUEST)
    return header if header is not None else response.body.decode("utf-8")


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


# how each FIDO2 attacker arms itself before the ceremony
_FIDO2_SETUP = {
    "fido2_dom": (("attach", "xss-payload"),),
    "fido2_request": (("install",), ("listen", Stage.ON_BEFORE_REQUEST, "grab_finish")),
}


def _ceremony_hijack(
    kind: str,
    adversary: str,
    defense_on: bool,
    seed: int,
    secrets: list[str],
    observations: list[str],
    notes: list[str],
) -> bool:
    """One ceremony of `kind` under attack, after an honest registration if
    it is a login. The attacker wins a registration when the victim's
    account holds its key, and a login when its own finish is accepted."""
    seed = derive_seed(seed, "fido2", kind)
    setup = _fido2_setup(defense_on, seed, "victim", secrets)
    ceremony = setup.session.fido2_ceremony
    if kind == AUTHENTICATION:
        _, honest = ceremony(setup.page, setup.origin, REGISTRATION, "victim")
        notes.append(f"honest_registration={honest.verdict}")
    attacker_device = None
    if kind == REGISTRATION:
        attacker_device = AuthenticatorDevice("attacker-device", substream(seed, "attacker-device"))
    captured: list[str] = []  # what the attacker finishes out of band
    attacker = _Attacker(setup.session, setup.page, None, captured)
    attacker.run(_FIDO2_SETUP[adversary])

    if adversary == "fido2_dom":
        if kind == REGISTRATION:
            setup.page.webauthn = _CreateHijack(attacker_device, attacker.script)
        else:
            # the attacker opens its own login transaction directly with the
            # server; stripping only protects responses that cross the browser
            setup.rp.witness = None
            attacker_begin = _out_of_band_begin(setup.farm, setup.origin, AUTHENTICATION, "victim")
            setup.rp.witness = secrets
            attacker_challenge = Fido2Request.from_json(attacker_begin).challenge
            setup.page.webauthn = _AssertHijack(setup.page.webauthn, attacker_challenge, attacker)
    _, result = ceremony(setup.page, setup.origin, kind, "victim")
    observations.extend(attacker.observations())
    if adversary == "fido2_dom":
        notes.append(f"victim_finish={result.verdict}")
    elif captured and kind == REGISTRATION:
        # the attacker answers the victim's challenge with its own key
        try:
            challenge = response_from_json(captured[-1]).challenge
        except MalformedPayload:
            captured.clear()
        else:
            forged = Fido2Request(REGISTRATION, challenge, setup.origin.host, b"attacker", "victim")
            captured.append(attacker_device.make_credential(forged).to_json())

    verdict = None
    if captured:
        verdict = _out_of_band_finish(setup.farm, setup.origin, captured[-1])
        notes.append(f"attacker_finish={verdict}")
    if kind == AUTHENTICATION:
        return verdict == "accepted"
    stored = setup.rp.accounts.get("victim")
    return stored is not None and stored.credential_id in attacker_device.credentials


def run_fido2_scenario(
    adversary: str, *, defense_on: bool, seed: int
) -> AttackOutcome:
    """Registration plus authentication hijack attempts for one adversary."""
    if adversary not in FIDO2_ADVERSARIES:
        raise ValueError(f"unknown FIDO2 adversary {adversary!r}")
    secrets: list[str] = []
    observations: list[str] = []
    notes: list[str] = []
    registered, login = (
        _ceremony_hijack(kind, adversary, defense_on, seed, secrets, observations, notes)
        for kind in (REGISTRATION, AUTHENTICATION)
    )
    leaked_digests, leaked = find_leaks(secrets, observations)
    defense = FIDO2_DEFENSES[defense_on]
    return AttackOutcome(
        scenario=f"fido2/{adversary}/{'defended' if defense_on else defense}",
        adversary=adversary,
        defense=defense,
        secret_leaked=leaked,
        leaked_digests=leaked_digests,
        attacker_login=login,
        attacker_registered=registered,
        notes=tuple(notes),
    )
