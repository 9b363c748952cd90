"""Adversaries: leak detection, per-cell attack behavior, both matrices."""

import base64
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noncepipe.adversaries import (
    _BLOCKERS,
    _MOVES,
    _REFLECT_URL,
    ATTACKER_EXTENSION_ID,
    CAPTURE_ORIGIN,
    RP_SITE,
    _Attacker,
    _decoded,
    _program,
    DEFAULT_STRATEGIES,
    FIDO2_ADVERSARIES,
    FIDO2_DEFENSES,
    PASSWORD_ADVERSARIES,
    REFLECTION_VARIANTS,
    AttackScenario,
    evaluate_matrix,
    find_leaks,
    load_expected_matrix,
    run_fido2_scenario,
    run_scenario,
)
from noncepipe.cli import main as cli_main
from noncepipe.manager import MANAGER_EXTENSION_ID
from noncepipe.fido2 import AUTHENTICATION, REGISTRATION
from noncepipe.http_model import Url, WebRequestRecord
from noncepipe.pipeline import (
    DefenseMode,
    ListenerRegistration,
    ListenerRegistry,
    PipelineConfig,
    Stage,
    dispatch,
)
from noncepipe.rng import derive_seed
from noncepipe.session import BrowserSession
from noncepipe.sites import LOGIN_CATEGORIES, ServerFarm, World, build_login_page, generate_password

SRC = Path(__file__).parent.parent / "src"
EXPECTED = load_expected_matrix(SRC / "noncepipe" / "golden" / "matrix.json")
# the rows a password matrix run covers
PASSWORD_ROWS = {mode.value: EXPECTED[mode.value] for mode in DefenseMode}


# ---------------------------------------------------------------------------
# leak detection
# ---------------------------------------------------------------------------


def test_find_leaks_verbatim():
    digests, leaked = find_leaks(["hunter2"], ["password=hunter2&x=1"])
    assert leaked is True
    assert digests == (hashlib.sha256(b"hunter2").hexdigest(),)


def test_find_leaks_form_encoded_shape():
    secret = "r4-eB=0n9L_H"  # '=' encodes, so verbatim match would miss it
    body = "username=alice&password=r4-eB%3D0n9L_H"
    assert secret not in body
    digests, leaked = find_leaks([secret], [body])
    assert leaked is True
    assert digests == (hashlib.sha256(secret.encode()).hexdigest(),)


def test_find_leaks_negative():
    assert find_leaks(["hunter2"], ["nothing to see", "pass=other"]) == ((), False)


def test_find_leaks_skips_empty_secret():
    assert find_leaks([""], ["anything"]) == ((), False)


# sha256 of the JSON list of strings each attacker's leak scan read, frozen
# when extension sinks still held strings: keeping views and building the
# strings on read must give the same list, in the same order
FROZEN_OBSERVATIONS = {
    DefenseMode.BASELINE: "c4e37c2595da071fb46ade73fbc52e99d0b84981392d624dfae45b34b2e3502f",
    DefenseMode.DESIGN4_API_EARLY: "ff88c7edb775a5df763f005899dc25b88ecc9cc8758d0b72fe6370bbee78066a",
    DefenseMode.DESIGN5_API_LATE: "6dbb554f42844cdd003160009560186119aa7c334799cc0f2af21fd4c8c60674",
}


@pytest.mark.parametrize("mode", list(FROZEN_OBSERVATIONS), ids=lambda m: m.value)
def test_attacker_observations_match_frozen_digest(mode, monkeypatch):
    scanned: list[list[str]] = []

    def scan(secrets, observations):
        scanned.append(list(observations))
        return find_leaks(secrets, observations)

    monkeypatch.setattr("noncepipe.adversaries.find_leaks", scan)
    run_scenario(AttackScenario("obs", "webrequest_exfiltrator", mode, seed=7))
    (observations,) = scanned
    digest = hashlib.sha256(json.dumps(observations).encode()).hexdigest()
    assert digest == FROZEN_OBSERVATIONS[mode]


def test_find_leaks_digests_sorted_and_deduplicated():
    secrets = ["zzz-secret", "aaa-secret"]
    observations = ["zzz-secret aaa-secret", "zzz-secret again"]
    digests, _ = find_leaks(secrets, observations)
    assert list(digests) == sorted(
        hashlib.sha256(s.encode()).hexdigest() for s in secrets
    )


# ---------------------------------------------------------------------------
# plans, each a program
# ---------------------------------------------------------------------------


PLAN_COUNTS = {
    "dom_observer": 8,
    "dom_exfiltrator": 128,
    "webrequest_exfiltrator": 381,
    "reflection": 2,
    "fido2_dom": 2,
    "fido2_request": 2,
}

# the program plan index 0 of each adversary must decode to, step by step
CANONICAL_PROGRAMS = {
    "dom_observer": (
        ("attach", "analytics.js"), ("read_form",), ("autofill",), ("read_form",), ("submit",),
        ("read_rendered",),
    ),
    "dom_exfiltrator": (
        ("attach", "xss-payload"), ("autofill",), ("read_form",), ("hook",), ("submit",),
        ("read_rendered",),
    ),
    "webrequest_exfiltrator": (
        ("install",), *(("listen", stage) for stage in Stage), ("autofill",), ("submit",),
    ),
    "reflection": (
        ("honest_login",), ("autofill",), ("attach", "xss-payload"), ("retarget", _REFLECT_URL),
        ("submit",), ("read_rendered",), ("note_reflection", "retarget"),
    ),
    "fido2_dom": (
        ("own_device",), ("attach", "xss-payload"), ("override_create",),
        ("ceremony", REGISTRATION, "victim_finish"),
    ),
    "fido2_request": (
        ("own_device",), ("install",), ("listen", Stage.ON_BEFORE_REQUEST, "grab_finish"),
        ("ceremony", REGISTRATION), ("forge_registration",), ("finish_out_of_band", REGISTRATION),
    ),
}


@pytest.mark.parametrize("adversary", PLAN_COUNTS)
def test_programs_are_hashable_data_over_the_move_table(adversary):
    for index in range(PLAN_COUNTS[adversary]):
        program = _program(adversary, index)
        fresh = _decoded.__wrapped__(adversary, index)  # decoded again, not cached
        assert program == fresh and hash(program) == hash(fresh)
        for move, *args in program:
            assert move in _MOVES, move
            if move == "listen" and len(args) == 2:
                assert args[1] in _BLOCKERS


@pytest.mark.parametrize("adversary", PLAN_COUNTS)
def test_each_adversary_has_its_documented_number_of_programs(adversary):
    count = PLAN_COUNTS[adversary]
    programs = {_program(adversary, index) for index in range(count)}
    assert len(programs) == count
    if adversary == "webrequest_exfiltrator":
        # every plan listens somewhere without blocking
        assert all(any(step[0] == "listen" and len(step) == 2 for step in p) for p in programs)


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
def test_the_victim_fills_then_submits_once_in_every_password_plan(adversary):
    for index in range(PLAN_COUNTS[adversary]):
        victim = [step for step in _program(adversary, index) if step[0] in ("autofill", "submit")]
        assert victim == [("autofill",), ("submit",)], index


@pytest.mark.parametrize("adversary", PLAN_COUNTS)
def test_programs_wrap_at_the_plan_count(adversary):
    count = PLAN_COUNTS[adversary]
    assert _program(adversary, count) == _program(adversary, 0)
    assert _program(adversary, 2 * count + 5) == _program(adversary, 5 % count)
    assert _decoded.cache_info().currsize <= sum(PLAN_COUNTS.values())


@pytest.mark.parametrize("adversary", PLAN_COUNTS)
def test_plan_0_is_the_canonical_program(adversary):
    assert _program(adversary, 0) == CANONICAL_PROGRAMS[adversary]


def test_default_strategies_run_every_plan():
    assert DEFAULT_STRATEGIES == max(PLAN_COUNTS.values()) == 381


# ---------------------------------------------------------------------------
# password adversary cells (plan 0)
# ---------------------------------------------------------------------------


def outcome_for(adversary: str, mode: DefenseMode, seed=21):
    return run_scenario(
        AttackScenario(
            name=f"{mode.value}/{adversary}",
            adversary=adversary,
            defense_mode=mode,
            seed=seed,
        )
    )


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
def test_baseline_leaks_to_every_adversary(adversary):
    assert outcome_for(adversary, DefenseMode.BASELINE).secret_leaked is True


def test_dom_defense_stops_observer_only():
    assert outcome_for("dom_observer", DefenseMode.DESIGN3_DOM).secret_leaked is False
    assert outcome_for("dom_exfiltrator", DefenseMode.DESIGN3_DOM).secret_leaked is True
    assert (
        outcome_for("webrequest_exfiltrator", DefenseMode.DESIGN3_DOM).secret_leaked is True
    )


def test_early_api_defense_still_leaks_to_webrequest():
    assert outcome_for("dom_observer", DefenseMode.DESIGN4_API_EARLY).secret_leaked is False
    assert outcome_for("dom_exfiltrator", DefenseMode.DESIGN4_API_EARLY).secret_leaked is False
    assert (
        outcome_for("webrequest_exfiltrator", DefenseMode.DESIGN4_API_EARLY).secret_leaked
        is True
    )


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
@pytest.mark.parametrize("mode", [DefenseMode.DESIGN5_API_LATE, DefenseMode.MANIFEST_V3])
def test_late_defenses_stop_every_adversary(adversary, mode):
    assert outcome_for(adversary, mode).secret_leaked is False


def test_outcome_reports_digests_never_the_secret():
    outcome = outcome_for("dom_observer", DefenseMode.BASELINE, seed=33)
    password = generate_password(33, "target")
    assert outcome.leaked_digests == (hashlib.sha256(password.encode()).hexdigest(),)
    assert password not in repr(outcome)
    assert all(password not in note for note in outcome.notes)


@pytest.mark.parametrize("category", ["fido2", "bogus"])
def test_run_scenario_rejects_a_category_with_no_login_form(category):
    scenario = AttackScenario("s", "dom_observer", DefenseMode.BASELINE, 1, 0, category)
    with pytest.raises(ValueError, match=f"not a login site category: '{category}'"):
        run_scenario(scenario)


@pytest.mark.parametrize("category", ["get_submit", "reflecting", "bogus"])
def test_run_scenario_refuses_a_site_category_for_reflection(category):
    scenario = AttackScenario("r", "reflection", DefenseMode.DESIGN5_API_LATE, 1, 0, category)
    with pytest.raises(ValueError, match=f"reflection attacks its forum, not a '{category}' site"):
        run_scenario(scenario)


# ---------------------------------------------------------------------------
# a cell's shared world
# ---------------------------------------------------------------------------


def run_plans(mode, adversary, category, world_for):
    """Every plan of one cell on one site category, each scenario in the
    world `world_for()` gives; the outcomes, and every flow's transcript
    with the server's verdict."""
    transcripts: list[tuple[str, str]] = []
    submit = BrowserSession.submit

    def recording_submit(self, page, form_id):
        result = submit(self, page, form_id)
        transcripts.append((result.transcript.to_text(), result.verdict))
        return result

    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BrowserSession, "submit", recording_submit)
        for index in range(PLAN_COUNTS[adversary]):
            seed = derive_seed(5, mode.value, adversary, category, str(index))
            scenario = AttackScenario(f"{index}", adversary, mode, seed, index, category)
            outcomes.append(run_scenario(scenario, world_for()))
    assert len(transcripts) == len(outcomes)
    return outcomes, transcripts


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_a_reused_world_attacks_as_a_fresh_one(mode, adversary):
    for category in LOGIN_CATEGORIES:
        world = World(mode)
        reused = run_plans(mode, adversary, category, lambda: world)
        assert reused == run_plans(mode, adversary, category, lambda: None), category


def test_a_scenario_refuses_a_world_of_another_mode():
    """The outcome is labelled with the scenario's mode, so it must run in it:
    in a baseline world this design5 scenario would leak under a design5 label."""
    scenario = AttackScenario("x", "dom_exfiltrator", DefenseMode.DESIGN5_API_LATE, 7, 0)
    world = World(DefenseMode.BASELINE)
    with pytest.raises(ValueError, match="design5_api_late scenario in a baseline world"):
        run_scenario(scenario, world)
    assert world.session is None  # refused before its login started
    assert run_scenario(scenario, World(DefenseMode.DESIGN5_API_LATE)).secret_leaked is False
    assert run_scenario(scenario._replace(defense_mode=DefenseMode.BASELINE), world).secret_leaked


def test_a_reused_world_keeps_nothing_of_a_redirecting_attack(monkeypatch):
    mode = DefenseMode.DESIGN5_API_LATE
    plan = 1  # listen at every stage, redirect at onBeforeRequest
    assert _program("webrequest_exfiltrator", plan)[-3:] == (
        ("listen", Stage.ON_BEFORE_REQUEST, "redirect"), ("autofill",), ("submit",)
    )
    world = World(mode)
    run_scenario(AttackScenario("r", "webrequest_exfiltrator", mode, 3, plan), world)
    host = world.session.host
    assert ATTACKER_EXTENSION_ID in host.extensions
    assert any("/steal" in text for text in world.farm._captures[CAPTURE_ORIGIN])

    # what the next scenario's session holds once reset, before its page
    states = []

    def state_then_page(session, profile):
        registry = session.host.registry
        listeners = [(r.listener_id, r.extension_id) for st in Stage for r in registry.at(st)]
        states.append((
            list(session.host.extensions),
            listeners,
            dict(session.host.nonces._pages),
            (session._page_count, session._next_request_id),
            session.manager.rng.randbytes(8),
        ))
        return build_login_page(session, profile)

    monkeypatch.setattr("noncepipe.sites.build_login_page", state_then_page)
    nxt = AttackScenario("n", "webrequest_exfiltrator", mode, 4)
    assert run_scenario(nxt, world) == run_scenario(nxt)
    assert world.session.host is host
    reused, fresh = states
    assert reused == fresh
    assert reused[:4] == (
        [MANAGER_EXTENSION_ID],
        [("manager.validate", MANAGER_EXTENSION_ID), ("manager.substitute", MANAGER_EXTENSION_ID)],
        {},
        (0, 0),
    )
    # plan 0 blocks nothing, so nothing was captured
    assert world.farm._captures[CAPTURE_ORIGIN] == []


@pytest.mark.parametrize("category", ["plain_post", "reflecting"])
@pytest.mark.parametrize("mode", list(DefenseMode), ids=lambda m: m.value)
def test_extension_observations_are_every_views_strings_in_delivery_order(mode, category):
    # observations build the strings once per run of views sharing a hop's
    # url, headers and form; the list must be each view's strings in turn
    world = World(mode)
    for index in range(PLAN_COUNTS["webrequest_exfiltrator"]):
        scenario = AttackScenario(f"{index}", "webrequest_exfiltrator", mode, index, index, category)
        run_scenario(scenario, world)
        ext = world.session.host.get(ATTACKER_EXTENSION_ID)
        assert ext.observations == [s for v in ext.views for s in v.visible_strings()], index


def test_a_reinstalled_attacker_gets_the_listener_ids_of_a_fresh_host():
    mode = DefenseMode.DESIGN5_API_LATE

    def listener_ids(world):
        registry = world.session.host.registry
        return [(r.listener_id, r.extension_id) for st in Stage for r in registry.at(st)]

    fresh = World(mode)
    run_scenario(AttackScenario("0", "webrequest_exfiltrator", mode, 3, 0), fresh)
    reused = World(mode)
    for plan in (5, 1, 0):  # fewer stages, then a blocker, then every stage
        run_scenario(AttackScenario(f"{plan}", "webrequest_exfiltrator", mode, 3, plan), reused)
    assert listener_ids(reused) == listener_ids(fresh)
    assert [i for i, ext in listener_ids(fresh) if ext == ATTACKER_EXTENSION_ID] == [
        f"{ATTACKER_EXTENSION_ID}.L{n}" for n in range(3, 3 + len(Stage))
    ]


def test_the_redirect_move_spares_only_the_capture_origin():
    """A look-alike origin, whose text starts with the capture origin's, is redirected."""
    redirect = _BLOCKERS["redirect"](None)  # keeps nothing of its attacker
    regs = ListenerRegistry()
    regs.add(ListenerRegistration("r", ATTACKER_EXTENSION_ID, Stage.ON_BEFORE_REQUEST, True, redirect))
    steal = Url.parse("https://evil.example/steal")
    for text, lands in (
        ("https://evil.example:8443/collect", steal),
        ("https://evil.example/collect", None),  # already bound for the capture origin
    ):
        url = Url.parse(text)
        wire, _ = dispatch(WebRequestRecord(1, "GET", url), regs, PipelineConfig())
        assert wire.url == (lands or url), text


def test_unknown_adversary_rejected():
    with pytest.raises(KeyError):
        outcome_for("quantum_eavesdropper", DefenseMode.BASELINE)


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


def test_matrix_matches_expected_verdicts():
    report = evaluate_matrix(seed=9, strategies_per_cell=3)
    assert report.verdicts() == PASSWORD_ROWS
    assert report.mismatches(PASSWORD_ROWS) == []


def test_importing_adversaries_reads_no_file():
    code = (
        "import sys; opened = []; "
        "sys.addaudithook(lambda event, args: event == 'open' and opened.append(args[0])); "
        "import noncepipe.adversaries; "
        "print([p for p in opened if str(p).endswith('.json')])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_matrix_mismatch_reporting():
    report = evaluate_matrix(
        seed=9, strategies_per_cell=1, modes=[DefenseMode.BASELINE]
    )
    doctored = {"baseline": {"dom_observer": "protected"}}
    (problem,) = report.mismatches(doctored)
    assert problem == "baseline/dom_observer: expected protected, got unprotected"
    missing = {"design5_api_late": {"dom_observer": "protected"}}
    assert report.mismatches(missing) == ["design5_api_late/dom_observer: missing"]


def test_matrix_json_and_text_shapes():
    report = evaluate_matrix(
        seed=9,
        strategies_per_cell=2,
        modes=[DefenseMode.BASELINE, DefenseMode.DESIGN5_API_LATE],
    )
    data = report.to_json()
    assert data["kind"] == "matrix"
    assert data["strategies_per_cell"] == 2
    cell = data["cells"]["baseline"]["dom_observer"]
    assert cell["verdict"] == "unprotected"
    assert cell["strategies"] == 2
    assert cell["leaks"] >= 1

    text = report.render_text()
    assert "security matrix" in text
    for adversary in PASSWORD_ADVERSARIES:
        assert adversary in text


def test_matrix_leak_counts_agree_with_verdicts():
    # protected cells must show zero leaks across every plan run; unprotected
    # cells need at least one, from plan 0 (a weaker plan may miss, such as
    # a dom_observer that never reads the filled field)
    report = evaluate_matrix(seed=9, strategies_per_cell=4)
    for cell in report.cells:
        expected = EXPECTED[cell.defense][cell.adversary]
        if expected == "protected":
            assert cell.leaks == 0
        else:
            assert 1 <= cell.leaks <= cell.strategies


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


def reflection(variant: str, pinning: bool, mode=DefenseMode.DESIGN5_API_LATE):
    scenario = AttackScenario(variant, "reflection", mode, 11, REFLECTION_VARIANTS.index(variant))
    return run_scenario(scenario, World(mode, pinning=pinning))


def test_reflection_retarget_without_pinning_leaks():
    outcome = reflection("retarget", pinning=False)
    assert outcome.secret_leaked is True
    assert "substitution_approved" in outcome.notes
    assert "verdict=reflected" in outcome.notes


def test_reflection_retarget_with_pinning_blocked_by_check3():
    outcome = reflection("retarget", pinning=True)
    assert outcome.secret_leaked is False
    assert "refused_by_check=3" in outcome.notes


def test_reflection_rename_blocked_by_field_check_without_pinning():
    outcome = reflection("rename", pinning=False)
    assert outcome.secret_leaked is False
    assert "refused_by_check=5" in outcome.notes


def test_reflection_rename_with_pinning_blocked_first_by_check3():
    outcome = reflection("rename", pinning=True)
    assert outcome.secret_leaked is False
    assert "refused_by_check=3" in outcome.notes  # ordered checks: pin fires first


def test_reflection_notes_are_named_by_variant_and_pinning():
    outcome = reflection("rename", pinning=False)
    assert outcome.notes == (
        "variant=rename", "pinning=off", "refused_by_check=5", "verdict=reflected"
    )
    assert (outcome.scenario, outcome.adversary, outcome.defense) == (
        "rename", "reflection", "design5_api_late"
    )


def test_a_reused_world_reflects_as_a_fresh_one():
    mode = DefenseMode.DESIGN4_API_EARLY
    for pinning in (False, True):
        world = World(mode, pinning=pinning)
        for plan, variant in (*enumerate(REFLECTION_VARIANTS), (0, "retarget")):
            scenario = AttackScenario(variant, "reflection", mode, 11 + plan, plan)
            assert run_scenario(scenario, world) == run_scenario(
                scenario, World(mode, pinning=pinning)
            ), (variant, pinning)


# ---------------------------------------------------------------------------
# FIDO2 cells
# ---------------------------------------------------------------------------


def test_fido2_cells_match_expected():
    """fido2-demo checks its cells against the golden file's FIDO2 rows and
    exits 0 only if they match."""
    for defense in ("on", "off"):
        assert cli_main(["fido2-demo", "--seed", "5", "--defense", defense]) == 0


def test_fido2_dom_hijack_legacy_wins_everything():
    outcome = run_fido2_scenario("fido2_dom", defense_on=False, seed=5)
    assert outcome.attacker_registered is True
    assert outcome.attacker_login is True
    assert outcome.secret_leaked is True
    assert "attacker_finish=accepted" in outcome.notes


def test_fido2_dom_hijack_defended_fails_but_victim_logs_in():
    outcome = run_fido2_scenario("fido2_dom", defense_on=True, seed=5)
    assert outcome.attacker_registered is False
    assert outcome.attacker_login is False
    assert outcome.secret_leaked is False
    # the victim's own authentication still succeeded despite the hijack
    assert "victim_finish=accepted" in outcome.notes
    assert "attacker_finish=rejected:challenge_mismatch" in outcome.notes


def test_fido2_request_interception_legacy_replays():
    outcome = run_fido2_scenario("fido2_request", defense_on=False, seed=5)
    assert outcome.attacker_login is True
    assert "attacker_finish=accepted" in outcome.notes


def test_fido2_request_interception_defended_rejected():
    outcome = run_fido2_scenario("fido2_request", defense_on=True, seed=5)
    assert outcome.attacker_login is False
    assert outcome.attacker_registered is False
    assert "attacker_finish=rejected:challenge_mismatch" in outcome.notes


def test_fido2_unknown_adversary():
    with pytest.raises(ValueError):
        run_fido2_scenario("fido2_phisher", defense_on=True, seed=5)


def test_fido2_adversary_roster():
    assert FIDO2_ADVERSARIES == ("fido2_dom", "fido2_request")
    assert FIDO2_DEFENSES == ("legacy", "header_channel")
    for defense_on, defense in ((False, "legacy"), (True, "header_channel")):
        assert run_fido2_scenario("fido2_dom", defense_on=defense_on, seed=5).defense == defense


def fido2_attack(program, defense_on, seed, secrets):
    """Run one FIDO2 program as `run_fido2_scenario` runs each plan: in a
    design5 world of its own relying party, its real secrets witnessed into
    `secrets`."""
    world = World(DefenseMode.DESIGN5_API_LATE, ServerFarm(seed))
    rp = world.farm.add_site(RP_SITE, "", fido2_defense=defense_on).rp
    attacker = _Attacker(world, RP_SITE, None, seed, rp)
    rp.witness = world.session.device.witness = secrets
    attacker.run(program)
    return attacker


@pytest.mark.parametrize("defense_on", [False, True])
@pytest.mark.parametrize("adversary", FIDO2_ADVERSARIES)
def test_the_fido2_helper_runs_each_plan_as_the_scenario_does(adversary, defense_on):
    outcome = run_fido2_scenario(adversary, defense_on=defense_on, seed=7)
    secrets: list[str] = []
    attackers = [
        fido2_attack(_program(adversary, plan), defense_on, derive_seed(7, "fido2", kind), secrets)
        for plan, kind in enumerate((REGISTRATION, AUTHENTICATION))
    ]
    assert outcome.notes == tuple(note for attacker in attackers for note in attacker.notes)
    assert outcome.attacker_login == any(attacker.logged_in for attacker in attackers)
    assert outcome.attacker_registered == any(attacker.registered for attacker in attackers)


# ROADMAP item 11: a page-initiated WebAuthn get, with no begin of the
# victim's pending, signs the attacker's own challenge; one more program,
# run by the same runner
PAGE_INITIATED_GET = (
    ("ceremony", REGISTRATION, "honest_registration"),
    ("attach", "xss-payload"),
    ("begin_out_of_band",),
    ("webauthn_get",),
    ("finish_out_of_band", AUTHENTICATION),
)


@pytest.mark.parametrize("seed", [7, 8])
def test_a_page_initiated_get_logs_in_on_a_legacy_rp(seed):
    attacker = fido2_attack(PAGE_INITIATED_GET, False, seed, [])
    assert attacker.notes == ["honest_registration=accepted", "attacker_finish=accepted"]
    assert attacker.logged_in is True


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("seed", [7, 8])
def test_a_page_initiated_get_is_refused_on_a_header_channel_rp(seed):
    attacker = fido2_attack(PAGE_INITIATED_GET, True, seed, [])
    assert attacker.notes[0] == "honest_registration=accepted"
    assert attacker.notes[1].startswith("attacker_finish=rejected")
    assert attacker.logged_in is False


@pytest.mark.parametrize("seed", [5, 7])
def test_fido2_attackers_own_begin_is_no_secret_of_the_victim(seed):
    """The relying party's witness is off for the attacker's out-of-band
    begin: the challenge it opened for itself is no secret it could leak."""
    secrets: list[str] = []
    attacker = fido2_attack(_program("fido2_dom", 1), True, seed, secrets)
    challenge = base64.urlsafe_b64encode(attacker.begin.challenge).decode("ascii").rstrip("=")
    assert secrets  # the victim's registration and login were witnessed
    assert challenge not in secrets
    assert attacker.begin.to_json() not in secrets


def test_fido2_plans_hijack_a_registration_then_a_login():
    for adversary in FIDO2_ADVERSARIES:
        registration, login = (_program(adversary, plan) for plan in (0, 1))
        assert ("ceremony", AUTHENTICATION) not in [step[:2] for step in registration]
        assert login[0] == ("ceremony", REGISTRATION, "honest_registration")
        assert login[-1] == ("finish_out_of_band", AUTHENTICATION)
