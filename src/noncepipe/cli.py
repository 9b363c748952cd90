"""Batch command line: attack matrix, compatibility survey, FIDO2 demo.

Exit codes are fixed for CI scripting: 0 ok, 2 assertion mismatch, 64
usage error, 65 data format error. Every command takes a required --seed
and, given the same seed and inputs, writes byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .adversaries import (
    AttackOutcome,
    AttackScenario,
    DEFAULT_STRATEGIES,
    FIDO2_ADVERSARIES,
    PASSWORD_ADVERSARIES,
    REFLECTION_VARIANTS,
    GoldenFormatError,
    evaluate_matrix,
    load_expected_matrix,
    run_fido2_scenario,
    run_scenario,
)
from .adversaries import RP_SITE, out_of_band_begin, out_of_band_finish
from .fido2 import AUTHENTICATION, REGISTRATION, AuthenticatorDevice, Fido2Request
from .http_model import Origin
from .pipeline import DefenseMode
from .rng import derive_seed, substream
from .session import BrowserSession
from .sites import LOGIN_CATEGORIES, ServerFarm, World, build_fixture_corpus, compat_evaluate
from .sites import parse_corpus
from .tsv import OptionTable, TsvFormatError, parse_options, read_rows

__all__ = ["EXIT_DATA", "EXIT_MISMATCH", "EXIT_OK", "EXIT_USAGE", "console_main", "main"]

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_USAGE = 64
EXIT_DATA = 65

GOLDEN_DIR_ENV = "NONCEPIPE_GOLDEN_DIR"

DEFENSE_TOKENS = {
    "baseline": DefenseMode.BASELINE,
    "design3": DefenseMode.DESIGN3_DOM,
    "design4": DefenseMode.DESIGN4_API_EARLY,
    "design5": DefenseMode.DESIGN5_API_LATE,
    "manifest-v3": DefenseMode.MANIFEST_V3,
}


class ScenarioFormatError(TsvFormatError):
    kind = "scenario"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the CI convention reserves 2 for
    # assertion mismatches, so usage problems surface as 64 instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="noncepipe", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=int, required=True, help="master RNG seed")
        sub.add_argument("--out", type=Path, default=None, help="directory for report files")
        sub.add_argument("--format", choices=("text", "json"), default="text")

    matrix = commands.add_parser("matrix", help="run the defense x adversary matrix")
    common(matrix)
    matrix.add_argument("--defense", choices=sorted(DEFENSE_TOKENS), default=None)
    matrix.add_argument("--scenarios", type=Path, default=None, help="custom scenario file")
    matrix.add_argument(
        "--strategies", type=int, default=None, help="strategies per cell (default: every plan)"
    )

    compat = commands.add_parser("compat", help="dual-run site compatibility survey")
    common(compat)
    compat.add_argument("--defense", choices=sorted(DEFENSE_TOKENS), default="design5")
    compat.add_argument("--corpus", type=Path, default=None, help="corpus file (TSV)")

    demo = commands.add_parser("fido2-demo", help="FIDO2 honest flows and attack cells")
    common(demo)
    demo.add_argument("--defense", choices=("on", "off"), default="on")
    demo.add_argument(
        "--replay", action="store_true", help="include the cloned-authenticator replay"
    )
    return parser


def golden_dir() -> Path:
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "golden"


def _emit(
    args: argparse.Namespace, stem: str, text: str, payload: dict
) -> None:
    rendered_json = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{stem}.txt").write_text(text, encoding="utf-8")
            (args.out / f"{stem}.json").write_text(rendered_json, encoding="utf-8")
        except OSError as exc:
            raise _UsageError(
                f"cannot write report to {args.out}: {exc.strerror or exc}"
            ) from exc
    sys.stdout.write(rendered_json if args.format == "json" else text)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


# scenario option -> (the adversaries whose rows read it, its allowed values);
# strategy takes an integer >= 0, and FIDO2 rows read no option
SCENARIO_OPTIONS: OptionTable = {
    "category": (PASSWORD_ADVERSARIES, LOGIN_CATEGORIES),
    "strategy": (PASSWORD_ADVERSARIES, None),
    "variant": (("reflection",), REFLECTION_VARIANTS),
    "pinning": (("reflection",), ("on", "off")),
}


def parse_scenarios(path: Path) -> list[tuple[str, str, str, dict[str, str]]]:
    """Parse a scenario file: name <TAB> adversary <TAB> defense <TAB> options.

    A name is non-empty and unique: a row's seed derives from it. The defense
    column takes the matrix tokens for password adversaries and on/off for
    the FIDO2 ones. Options are '-' or comma-separated key=value pairs from
    SCENARIO_OPTIONS that the row's adversary reads.
    """
    rows: list[tuple[str, str, str, dict[str, str]]] = []
    first_lines: dict[str, int] = {}
    known = set(PASSWORD_ADVERSARIES) | set(FIDO2_ADVERSARIES) | {"reflection"}
    for number, (name, adversary, defense, options_text) in read_rows(path, 4, ScenarioFormatError):
        if not name:
            raise ScenarioFormatError(number, "empty scenario name")
        first = first_lines.setdefault(name, number)
        if first != number:
            raise ScenarioFormatError(number, f"repeated name {name!r}, first on line {first}")
        if adversary not in known:
            raise ScenarioFormatError(number, f"unknown adversary {adversary!r}")
        if adversary in FIDO2_ADVERSARIES:
            if defense not in ("on", "off"):
                raise ScenarioFormatError(number, "FIDO2 scenarios take defense on|off")
        elif defense not in DEFENSE_TOKENS:
            raise ScenarioFormatError(number, f"unknown defense {defense!r}")
        options = dict(
            parse_options(
                options_text, SCENARIO_OPTIONS, adversary, number, ScenarioFormatError
            )
        )
        strategy = options.get("strategy", "0")
        if not (strategy.isascii() and strategy.isdigit()):
            raise ScenarioFormatError(
                number, f"strategy must be an integer >= 0, got {strategy!r}"
            )
        rows.append((name, adversary, defense, options))
    return rows


def _run_scenario_row(
    row: tuple[str, str, str, dict[str, str]], master_seed: int
) -> AttackOutcome:
    name, adversary, defense, options = row
    seed = derive_seed(master_seed, "scenario", name)
    if adversary in FIDO2_ADVERSARIES:
        outcome = run_fido2_scenario(adversary, defense_on=defense == "on", seed=seed)
        return outcome._replace(scenario=name)  # named by its kind; a report line names its row
    # a reflection row names its plan by variant, a password row by strategy
    if "variant" in options:
        plan = REFLECTION_VARIANTS.index(options["variant"])
    else:
        plan = int(options.get("strategy", "0"))
    mode = DEFENSE_TOKENS[defense]
    category = options.get("category", "plain_post")
    scenario = AttackScenario(name, adversary, mode, seed, plan, category)
    return run_scenario(scenario, World(mode, pinning=options.get("pinning", "on") == "on"))


def _scenario_report(outcomes: list[AttackOutcome], seed: int) -> tuple[str, dict]:
    outcomes = sorted(outcomes, key=lambda o: o.scenario)
    lines = [f"scenario run (seed={seed})", ""]
    for outcome in outcomes:
        flags = []
        if outcome.secret_leaked:
            flags.append("leaked")
        if outcome.attacker_login:
            flags.append("attacker_login")
        if outcome.attacker_registered:
            flags.append("attacker_registered")
        status = ",".join(flags) if flags else "no_compromise"
        lines.append(f"{outcome.scenario:<44} {outcome.defense:<16} {status}")
    text = "\n".join(lines) + "\n"
    payload = {
        "kind": "scenarios",
        "seed": seed,
        "outcomes": [o._asdict() for o in outcomes],  # tuples write as arrays
    }
    return text, payload


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace) -> int:
    if args.scenarios is not None:
        if args.defense is not None or args.strategies is not None:
            raise _UsageError("argument --scenarios: not allowed with --defense or --strategies")
        rows = parse_scenarios(args.scenarios)
        outcomes = [_run_scenario_row(row, args.seed) for row in rows]
        text, payload = _scenario_report(outcomes, args.seed)
        _emit(args, "scenarios", text, payload)
        return EXIT_OK

    strategies = DEFAULT_STRATEGIES if args.strategies is None else args.strategies
    if strategies < 1:
        raise _UsageError(f"argument --strategies: must be at least 1, got {strategies}")
    expected = load_expected_matrix(golden_dir() / "matrix.json")
    modes = [DEFENSE_TOKENS[args.defense]] if args.defense else list(DefenseMode)
    report = evaluate_matrix(args.seed, strategies_per_cell=strategies, modes=modes)
    _emit(args, "matrix", report.render_text(), report.to_json())

    ran = {mode.value for mode in modes}
    mismatches = report.mismatches({d: row for d, row in expected.items() if d in ran})
    for line in sorted(mismatches):
        print(f"noncepipe: matrix mismatch: {line}", file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_compat(args: argparse.Namespace) -> int:
    profiles = build_fixture_corpus() if args.corpus is None else parse_corpus(args.corpus)
    report = compat_evaluate(profiles, args.seed, DEFENSE_TOKENS[args.defense])
    _emit(args, "compat", report.render_text(), report.to_json())
    if not report.plain_differential_ok():
        print("noncepipe: plain_post differential mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _honest_fido2_flows(
    seed: int, defense_on: bool, replay: bool
) -> tuple[dict[str, str], Optional[str]]:
    """Register then authenticate with no attacker present. With `replay`,
    clone the authenticator in between and return the clone's verdict too."""
    world = World(DefenseMode.DESIGN5_API_LATE, ServerFarm(seed))
    world.farm.add_site(RP_SITE, "", fido2_defense=defense_on)
    page, _ = world.open(RP_SITE, None, seed, "demo")
    _, register = world.session.fido2_ceremony(page, page.origin, REGISTRATION, "alice")
    clone = world.session.device.clone("cloned-device", substream(seed, "clone")) if replay else None
    _, authenticate = world.session.fido2_ceremony(page, page.origin, AUTHENTICATION, "alice")
    honest = {
        "register": register.verdict or "cancelled",
        "authenticate": authenticate.verdict or "cancelled",
    }
    return honest, None if clone is None else _replay_demo(world.session, page.origin, clone)


def _replay_demo(session: BrowserSession, origin: Origin, clone: AuthenticatorDevice) -> str:
    """The clone, taken before the last login, reuses a stale counter; the
    server notices."""
    request_json = out_of_band_begin(session, origin, AUTHENTICATION, "alice")
    stale = clone.get_assertion(Fido2Request.from_json(request_json))
    return out_of_band_finish(session, origin, stale.to_json())


def cmd_fido2_demo(args: argparse.Namespace) -> int:
    expected = load_expected_matrix(golden_dir() / "matrix.json")
    defense_on = args.defense == "on"
    honest, replay = _honest_fido2_flows(derive_seed(args.seed, "honest"), defense_on, args.replay)
    lines = [
        f"fido2 demo (defense={args.defense}, seed={args.seed})",
        "",
        f"honest register:      {honest['register']}",
        f"honest authenticate:  {honest['authenticate']}",
    ]
    problems = []
    if honest["register"] != "accepted" or honest["authenticate"] != "accepted":
        problems.append("honest flow failed")
    cells: dict[str, dict[str, bool]] = {}
    for adversary in FIDO2_ADVERSARIES:
        outcome = run_fido2_scenario(
            adversary, defense_on=defense_on, seed=derive_seed(args.seed, "demo", adversary)
        )
        cell = cells[adversary] = {
            "registration_hijack": outcome.attacker_registered,
            "login_hijack": outcome.attacker_login,
            "secret_leaked": outcome.secret_leaked,
        }
        flags = " ".join(f"{name}={'yes' if hit else 'no'}" for name, hit in cell.items())
        lines.append(f"{adversary:<16} {flags}")
        verdict = "unprotected" if outcome.compromised else "protected"
        want = expected[outcome.defense][adversary]
        if verdict != want:
            problems.append(f"{adversary} {verdict}, expected {want}")
    payload = {
        "kind": "fido2-demo",
        "seed": args.seed,
        "defense": args.defense,
        "honest": honest,
        "cells": cells,
    }
    if replay is not None:
        payload["replay"] = replay
        lines.append(f"cloned-device replay: {replay}")
        if replay != "rejected:counter_replay":
            problems.append(f"replay verdict {replay}")
    _emit(args, "fido2", "\n".join(lines) + "\n", payload)
    for problem in problems:
        print(f"noncepipe: unexpected verdict: {problem}", file=sys.stderr)
    return EXIT_MISMATCH if problems else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    handler = {
        "matrix": cmd_matrix,
        "compat": cmd_compat,
        "fido2-demo": cmd_fido2_demo,
    }
    try:
        args = parser.parse_args(argv)
        return handler[args.command](args)
    except _UsageError as exc:  # from argparse, or a command that checks its own usage
        print(f"noncepipe: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TsvFormatError, GoldenFormatError, OSError) as exc:  # an input file
        print(f"noncepipe: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
