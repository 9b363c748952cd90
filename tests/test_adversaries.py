"""Adversaries: leak detection, per-cell attack behavior, both matrices."""

import hashlib
import json

import pytest

from noncepipe.adversaries import (
    _AGENTS,
    ATTACKER_EXTENSION_ID,
    _World,
    DEFAULT_STRATEGIES,
    EXPECTED_FIDO2_CELLS,
    EXPECTED_MATRIX,
    FIDO2_ADVERSARIES,
    PASSWORD_ADVERSARIES,
    AttackScenario,
    evaluate_matrix,
    find_leaks,
    run_fido2_scenario,
    run_reflection_attack,
    run_scenario,
)
from noncepipe.cli import main as cli_main
from noncepipe.manager import MANAGER_EXTENSION_ID
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
from noncepipe.sites import LOGIN_CATEGORIES, build_login_page, generate_password


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
# plans
# ---------------------------------------------------------------------------


PLAN_COUNTS = {"dom_observer": 8, "dom_exfiltrator": 128, "webrequest_exfiltrator": 381}

# the canonical plan of each adversary, which plan index 0 must decode to
CANONICAL_PLANS = {
    "dom_observer": frozenset({"read_pre", "read_post", "read_rendered"}),
    "dom_exfiltrator": frozenset({"read_post", "hook_post", "read_rendered"}),
    "webrequest_exfiltrator": (
        (
            Stage.ON_BEFORE_REQUEST,
            Stage.ON_BEFORE_SEND_HEADERS,
            Stage.ON_SEND_HEADERS,
            Stage.ON_REQUEST_CREDENTIALS,
            Stage.ON_HEADERS_RECEIVED,
            Stage.ON_RESPONSE_STARTED,
            Stage.ON_COMPLETED,
        ),
        "none",
    ),
}


def plan_of(adversary: str, index: int):
    agent = _AGENTS[adversary](index)
    if adversary == "webrequest_exfiltrator":
        return agent.stages, agent.blocking_move
    return agent.plan


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
def test_plan_indices_decode_to_distinct_plans(adversary):
    count = PLAN_COUNTS[adversary]
    assert _AGENTS[adversary].plans == count
    plans = {plan_of(adversary, index) for index in range(count)}
    assert len(plans) == count
    if adversary == "webrequest_exfiltrator":
        assert all(stages for stages, _ in plans)  # every plan listens somewhere


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
def test_plan_indices_wrap_at_the_plan_count(adversary):
    count = PLAN_COUNTS[adversary]
    assert plan_of(adversary, count) == plan_of(adversary, 0)
    assert plan_of(adversary, 2 * count + 5) == plan_of(adversary, 5)


@pytest.mark.parametrize("adversary", PASSWORD_ADVERSARIES)
def test_plan_0_is_the_canonical_plan(adversary):
    assert plan_of(adversary, 0) == CANONICAL_PLANS[adversary]


def test_default_strategies_run_every_plan():
    assert DEFAULT_STRATEGIES == max(PLAN_COUNTS.values())


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
        world = _World(mode)
        reused = run_plans(mode, adversary, category, lambda: world)
        assert reused == run_plans(mode, adversary, category, lambda: None), category


def test_a_reused_world_keeps_nothing_of_a_redirecting_attack(monkeypatch):
    mode = DefenseMode.DESIGN5_API_LATE
    plan = 1  # listen at every stage, redirect at onBeforeRequest
    assert _AGENTS["webrequest_exfiltrator"](plan).blocking_move == "redirect"
    world = _World(mode)
    run_scenario(AttackScenario("r", "webrequest_exfiltrator", mode, 3, plan), world)
    host = world.session.host
    assert ATTACKER_EXTENSION_ID in host.extensions
    assert any("/steal" in text for text in world.capture_sink)

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

    monkeypatch.setattr("noncepipe.adversaries.build_login_page", state_then_page)
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
    assert world.capture_sink == []  # plan 0 blocks nothing, so nothing was captured


def test_the_redirect_move_spares_only_the_capture_origin():
    """A look-alike origin, whose text starts with the capture origin's, is redirected."""
    plan = 1  # listen at every stage, redirect at onBeforeRequest
    redirect = _AGENTS["webrequest_exfiltrator"](plan).blocking
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
    assert report.verdicts() == EXPECTED_MATRIX
    assert report.mismatches() == []


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
        expected = EXPECTED_MATRIX[cell.defense][cell.adversary]
        if expected == "protected":
            assert cell.leaks == 0
        else:
            assert 1 <= cell.leaks <= cell.strategies


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------


def test_reflection_retarget_without_pinning_leaks():
    outcome = run_reflection_attack(11, pinning=False, variant="retarget")
    assert outcome.secret_leaked is True
    assert "substitution_approved" in outcome.notes
    assert "verdict=reflected" in outcome.notes


def test_reflection_retarget_with_pinning_blocked_by_check3():
    outcome = run_reflection_attack(11, pinning=True, variant="retarget")
    assert outcome.secret_leaked is False
    assert "refused_by_check=3" in outcome.notes


def test_reflection_rename_blocked_by_field_check_without_pinning():
    outcome = run_reflection_attack(11, pinning=False, variant="rename")
    assert outcome.secret_leaked is False
    assert "refused_by_check=5" in outcome.notes


def test_reflection_rename_with_pinning_blocked_first_by_check3():
    outcome = run_reflection_attack(11, pinning=True, variant="rename")
    assert outcome.secret_leaked is False
    assert "refused_by_check=3" in outcome.notes  # ordered checks: pin fires first


def test_reflection_unknown_variant():
    with pytest.raises(ValueError):
        run_reflection_attack(11, pinning=True, variant="mirror")


# ---------------------------------------------------------------------------
# FIDO2 cells
# ---------------------------------------------------------------------------


def test_fido2_cells_match_expected():
    """fido2-demo checks its cells against EXPECTED_FIDO2_CELLS and exits 0
    only if they match."""
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
    assert set(EXPECTED_FIDO2_CELLS) == {"legacy", "header_channel"}
