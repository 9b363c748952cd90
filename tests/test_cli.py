"""Command line: exit codes, report files, scenario files, output hygiene."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from noncepipe.adversaries import FIDO2_ADVERSARIES, PASSWORD_ADVERSARIES
from noncepipe.cli import (
    DEFENSE_TOKENS,
    EXIT_DATA,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    GOLDEN_DIR_ENV,
    ScenarioFormatError,
    main,
    parse_scenarios,
)
from noncepipe.pipeline import DefenseMode
from noncepipe.rng import derive_seed
from noncepipe.sites import generate_password

REAL_GOLDEN = Path(__file__).parent.parent / "src" / "noncepipe" / "golden"
# every scenario kind: each password cell at every login category and two
# plans, every reflection variant, both FIDO2 adversaries on and off
SCENARIOS_ALL = Path(__file__).parent / "golden" / "scenarios_all.tsv"


def doctored_golden(tmp_path, monkeypatch, edit) -> None:
    """Point the CLI at a copy of the golden matrix with `edit` applied to its cells."""
    golden = json.loads((REAL_GOLDEN / "matrix.json").read_text(encoding="utf-8"))
    edit(golden["cells"])
    (tmp_path / "matrix.json").write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# usage errors (exit 64)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix"],  # --seed is required
        ["compat"],
        ["fido2-demo"],
        [],
        ["frobnicate", "--seed", "1"],
        ["matrix", "--seed", "notanint"],
        ["matrix", "--seed", "1", "--defense", "design9"],
        ["fido2-demo", "--seed", "1", "--defense", "design5"],  # takes on|off
        # each scenario row names its own defense and strategy; the file is
        # never read
        ["matrix", "--seed", "1", "--scenarios", "rows.tsv", "--defense", "design5"],
        ["matrix", "--seed", "1", "--scenarios", "rows.tsv", "--strategies", "9"],
    ],
)
def test_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("noncepipe:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("strategies", ["0", "-3"])
def test_matrix_non_positive_strategies_is_usage_error(strategies, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the matrix ran")

    monkeypatch.setattr("noncepipe.cli.evaluate_matrix", never)
    assert main(["matrix", "--seed", "7", "--strategies", strategies]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("noncepipe: argument --strategies: must be at least 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--seed", "7", "--defense", "design5", "--strategies", "1"],
        ["compat", "--seed", "7", "--corpus", None],
        ["fido2-demo", "--seed", "7"],
    ],
    ids=["matrix", "compat", "fido2-demo"],
)
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker / "reports"
    argv = [str(small_corpus(tmp_path)) if arg is None else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""  # no report is printed that was not also written
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"noncepipe: cannot write report to {out}: ")


# ---------------------------------------------------------------------------
# matrix command
# ---------------------------------------------------------------------------


def test_matrix_single_defense_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main(
        ["matrix", "--seed", "9", "--defense", "design5",
         "--strategies", "2", "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert "security matrix" in capsys.readouterr().out

    text = (out / "matrix.txt").read_text(encoding="utf-8")
    assert "design5_api_late" in text
    raw = (out / "matrix.json").read_text(encoding="utf-8")
    data = json.loads(raw)
    assert raw == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert data["kind"] == "matrix"
    assert set(data["cells"]) == {"design5_api_late"}
    assert data["cells"]["design5_api_late"]["dom_observer"]["verdict"] == "protected"


def test_matrix_json_format_on_stdout(capsys):
    rc = main(["matrix", "--seed", "9", "--defense", "baseline",
               "--strategies", "1", "--format", "json"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["cells"]["baseline"]["webrequest_exfiltrator"]["verdict"] == "unprotected"


def test_matrix_all_defenses_match_golden(capsys):
    assert main(["matrix", "--seed", "4", "--strategies", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_matrix_doctored_golden_exits_mismatch(tmp_path, monkeypatch, capsys):
    doctored_golden(
        tmp_path, monkeypatch, lambda cells: cells["baseline"].update(dom_observer="protected")
    )

    rc = main(["matrix", "--seed", "9", "--defense", "baseline", "--strategies", "1"])
    assert rc == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert "matrix mismatch" in err
    assert "baseline/dom_observer" in err


def test_matrix_golden_missing_a_cell_is_data_error(tmp_path, monkeypatch, capsys):
    doctored_golden(
        tmp_path, monkeypatch, lambda cells: cells["manifest_v3"].pop("dom_exfiltrator")
    )

    # the missing cell is outside the one defense run, and still a data error
    rc = main(["matrix", "--seed", "9", "--defense", "baseline", "--strategies", "1"])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "manifest_v3/dom_exfiltrator is missing" in err


def test_matrix_unreadable_golden_is_data_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(GOLDEN_DIR_ENV, str(tmp_path))  # no matrix.json inside
    rc = main(["matrix", "--seed", "9", "--defense", "baseline", "--strategies", "1"])
    assert rc == EXIT_DATA
    assert "unreadable golden" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fido2-demo", "--seed", "7"],
        ["fido2-demo", "--seed", "7", "--defense", "off"],
        ["matrix", "--seed", "9", "--defense", "baseline", "--strategies", "1"],
    ],
)
def test_golden_missing_a_fido2_cell_is_data_error(tmp_path, monkeypatch, capsys, argv):
    # both commands read the one file, and each checks every cell of it
    doctored_golden(tmp_path, monkeypatch, lambda cells: cells["header_channel"].pop("fido2_dom"))
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err.count("\n") == 1
    assert "cell header_channel/fido2_dom is missing" in captured.err


# ---------------------------------------------------------------------------
# compat command
# ---------------------------------------------------------------------------


def small_corpus(tmp_path) -> Path:
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "# tiny corpus\n"
        "plain_post\ta.example\t-\n"
        "hashes_password\tb.example\t-\n"
        "transforms_password\tc.example\t-\n",
        encoding="utf-8",
    )
    return path


def test_compat_custom_corpus(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main(
        ["compat", "--seed", "3", "--corpus", str(small_corpus(tmp_path)),
         "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert "plain differential: byte-identical" in capsys.readouterr().out
    data = json.loads((out / "compat.json").read_text(encoding="utf-8"))
    assert data["kind"] == "compat"
    assert data["included"] == 3


def test_compat_http_submit_row_is_refused_under_design5(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("http_submit\ta.example\t-\n", encoding="utf-8")
    rc = main(["compat", "--seed", "3", "--corpus", str(path), "--format", "json"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    # baseline logs in over plain HTTP; design5's check 2 refuses the swap
    assert data["counts"] == {"http_submit": {"refused": 1}}
    assert data["refused"] == {"line1-a.example": 2}


def test_compat_probe_rows_agree_between_design5_and_manifest_v3(tmp_path, capsys):
    # manifest_v3 runs the same five checks: the iframe and bad-TLS logins
    # are refused in both modes, and so stay out of the plain differential
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "iframe_login\thttps://frame.example\t-\n"
        "plain_post\thttps://tls.example\tbad_tls=1\n"
        "get_submit\thttps://get.example\t-\n"
        "transforms_password\thttps://tx.example\t-\n",
        encoding="utf-8",
    )
    counts = {}
    for defense in ("design5", "manifest-v3"):
        argv = ["compat", "--seed", "7", "--corpus", str(path), "--defense", defense]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        counts[defense] = data["counts"]
        # check 1: an iframe; 2: bad TLS; 4: the nonce in GET parameters
        refused = {"line1-frame.example": 1, "line2-tls.example": 2, "line3-get.example": 4}
        assert data["refused"] == refused
    assert counts["manifest-v3"] == counts["design5"]
    assert counts["design5"]["iframe_login"] == {"refused": 1}
    assert counts["design5"]["plain_post"] == {"refused": 1}


@pytest.mark.parametrize("defense", sorted(DEFENSE_TOKENS))
def test_compat_rows_the_policy_refuses_exit_zero_under_every_defense(tmp_path, capsys, defense):
    # bad TLS and a plain-HTTP origin: the nonce modes refuse both by design
    # (check 2), so both stay out of the plain differential; design3 guards
    # by origin only and sends the password over either channel
    path = tmp_path / "corpus.tsv"
    path.write_text(
        "plain_post\thttps://a.example\tbad_tls=1\n"
        "plain_post\thttp://b.example\t-\n"
        "plain_post\thttps://c.example\t-\n",
        encoding="utf-8",
    )
    argv = ["compat", "--seed", "7", "--corpus", str(path), "--defense", defense]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["plain_differential_ok"] is True
    nonce_mode = defense in ("design4", "design5", "manifest-v3")
    refused = {"line1-a.example": 2, "line2-b.example": 2} if nonce_mode else None
    assert data.get("refused") == refused
    expected = {"refused": 2, "compatible": 1} if nonce_mode else {"compatible": 3}
    assert data["counts"] == {"plain_post": expected}
    # every included row has a share: refused rows count in no other one
    assert ("refused" in data["percent"]) is nonce_mode
    assert sum(data["percent"].values()) == pytest.approx(100.0, abs=0.2)


def test_compat_text_names_each_refused_row_and_its_check(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("plain_post\thttp://b.example\t-\n", encoding="utf-8")
    assert main(["compat", "--seed", "7", "--corpus", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "transform-broken: 0.0%  refused: 100.0%\n" in out
    assert "refused by the policy: line1-b.example (check 2, channel)\n" in out
    assert "plain differential: byte-identical" in out


def test_compat_bad_corpus_line_is_data_error(tmp_path, capsys):
    path = tmp_path / "corpus.tsv"
    path.write_text("plain_post\ta.example\t-\nnot-a-category\tb.example\t-\n")
    rc = main(["compat", "--seed", "3", "--corpus", str(path)])
    assert rc == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["4_43", " 443", "+443", "٤٤٣"])
def test_compat_corpus_port_that_is_not_ascii_digits_is_data_error(tmp_path, capsys, port):
    path = tmp_path / "corpus.tsv"
    path.write_text(f"plain_post\thttps://a.example:{port}\t-\n", encoding="utf-8")
    assert main(["compat", "--seed", "7", "--corpus", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"corpus line 1: bad origin 'https://a.example:{port}': bad port in" in err


@pytest.mark.parametrize("origin", ["https://user@a.example", "https://u:pw@a.example/login"])
def test_compat_corpus_origin_with_userinfo_is_data_error(tmp_path, capsys, origin):
    path = tmp_path / "corpus.tsv"
    path.write_text(f"plain_post\tb.example\t-\nplain_post\t{origin}\t-\n", encoding="utf-8")
    assert main(["compat", "--seed", "7", "--corpus", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"noncepipe: corpus line 2: bad origin {origin!r}: userinfo in {origin!r}\n"


def test_compat_missing_corpus_file_is_data_error(tmp_path, capsys):
    rc = main(["compat", "--seed", "3", "--corpus", str(tmp_path / "nope.tsv")])
    assert rc == EXIT_DATA


# ---------------------------------------------------------------------------
# fido2-demo command
# ---------------------------------------------------------------------------


def test_fido2_demo_defended(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main(["fido2-demo", "--seed", "4", "--replay", "--out", str(out)])
    assert rc == EXIT_OK
    text = (out / "fido2.txt").read_text(encoding="utf-8")
    assert "honest register:      accepted" in text
    assert "honest authenticate:  accepted" in text
    assert "cloned-device replay: rejected:counter_replay" in text

    data = json.loads((out / "fido2.json").read_text(encoding="utf-8"))
    assert data["defense"] == "on"
    assert data["replay"] == "rejected:counter_replay"
    for cell in data["cells"].values():
        assert cell == {
            "registration_hijack": False,
            "login_hijack": False,
            "secret_leaked": False,
        }


def test_fido2_demo_replay_adds_only_its_verdict(tmp_path):
    # the clone is taken in the honest world, between its two ceremonies,
    # and changes none of the honest verdicts or attack cells
    reports = {}
    for flags in ([], ["--replay"]):
        out = tmp_path / str(len(flags))
        assert main(["fido2-demo", "--seed", "4", *flags, "--out", str(out)]) == EXIT_OK
        reports[bool(flags)] = json.loads((out / "fido2.json").read_text(encoding="utf-8"))
    assert reports[True].pop("replay") == "rejected:counter_replay"
    assert reports[True] == reports[False]


def test_fido2_demo_legacy_attacks_succeed(capsys):
    rc = main(["fido2-demo", "--seed", "4", "--defense", "off", "--format", "json"])
    assert rc == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["defense"] == "off"
    assert data["honest"] == {"register": "accepted", "authenticate": "accepted"}
    assert data["cells"]["fido2_dom"]["login_hijack"] is True
    assert data["cells"]["fido2_request"]["login_hijack"] is True


def test_fido2_demo_checks_cells_against_the_expected_table(tmp_path, monkeypatch, capsys):
    doctored_golden(
        tmp_path, monkeypatch, lambda cells: cells["header_channel"].update(fido2_dom="unprotected")
    )
    rc = main(["fido2-demo", "--seed", "7"])
    assert rc == EXIT_MISMATCH
    err = capsys.readouterr().err
    assert "fido2_dom protected, expected unprotected" in err
    assert "fido2_request" not in err


def test_fido2_demo_problem_lines_keep_their_order(tmp_path, monkeypatch, capsys):
    from noncepipe import cli

    failed = {"register": "rejected:bad_signature", "authenticate": "accepted"}
    monkeypatch.setattr(
        cli, "_honest_fido2_flows", lambda seed, defense_on, replay: (failed, "accepted")
    )
    doctored_golden(
        tmp_path,
        monkeypatch,
        lambda cells: cells["header_channel"].update(
            dict.fromkeys(FIDO2_ADVERSARIES, "unprotected")
        ),
    )
    rc = main(["fido2-demo", "--seed", "7", "--replay"])
    assert rc == EXIT_MISMATCH
    prefix = "noncepipe: unexpected verdict: "
    assert capsys.readouterr().err.splitlines() == [
        prefix + "honest flow failed",
        prefix + "fido2_dom protected, expected unprotected",
        prefix + "fido2_request protected, expected unprotected",
        prefix + "replay verdict accepted",
    ]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


SCENARIOS = (
    "# name  adversary  defense  options\n"
    "zeta\twebrequest_exfiltrator\tdesign5\t-\n"
    "alpha\tdom_observer\tbaseline\t-\n"
    "mirror\treflection\tdesign5\tvariant=retarget,pinning=off\n"
    "fkey\tfido2_request\ton\t-\n"
)


def scenario_file(tmp_path) -> Path:
    path = tmp_path / "scenarios.tsv"
    path.write_text(SCENARIOS, encoding="utf-8")
    return path


def test_scenario_file_runs_sorted(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main(
        ["matrix", "--seed", "7", "--scenarios", str(scenario_file(tmp_path)),
         "--out", str(out)]
    )
    assert rc == EXIT_OK
    data = json.loads((out / "scenarios.json").read_text(encoding="utf-8"))
    names = [o["scenario"] for o in data["outcomes"]]
    # every row reports under its own name, reflection and FIDO2 rows too
    assert names == ["alpha", "fkey", "mirror", "zeta"]
    by_name = {o["scenario"]: o for o in data["outcomes"]}

    # per-row seeds derive from the master seed and the row name
    alpha_password = generate_password(derive_seed(7, "scenario", "alpha"), "target")
    assert by_name["alpha"]["secret_leaked"] is True
    assert by_name["alpha"]["leaked_digests"] == [sha(alpha_password)]

    assert by_name["zeta"]["secret_leaked"] is False
    assert by_name["mirror"]["secret_leaked"] is True
    assert by_name["fkey"]["attacker_login"] is False

    text = (out / "scenarios.txt").read_text(encoding="utf-8")
    assert "leaked" in text and "no_compromise" in text


def test_rows_that_differ_only_in_name_report_two_lines(tmp_path, capsys):
    path = tmp_path / "scenarios.tsv"
    path.write_text(
        "first\treflection\tdesign5\t-\nsecond\treflection\tdesign5\t-\n", encoding="utf-8"
    )
    assert main(["matrix", "--seed", "7", "--scenarios", str(path)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["first", "second"]
    assert len(set(rows)) == 2


def test_scenario_report_text_ordering(tmp_path, capsys):
    rc = main(["matrix", "--seed", "7", "--scenarios", str(scenario_file(tmp_path))])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenario run (seed=7)"
    assert lines[2].startswith("alpha")
    assert lines[5].startswith("zeta")


def test_scenario_report_rows_split_into_three_columns(tmp_path, capsys):
    # a 16-character defense name and an over-long scenario name must not
    # run into the next column
    long_name = "n" * 50
    path = tmp_path / "scenarios.tsv"
    path.write_text(
        "late\tdom_observer\tdesign5\t-\n"
        f"{long_name}\tdom_observer\tbaseline\t-\n",
        encoding="utf-8",
    )
    out = tmp_path / "reports"
    rc = main(["matrix", "--seed", "7", "--scenarios", str(path), "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "scenarios.txt").read_text(encoding="utf-8").splitlines()[2:]
    assert [row.split() for row in rows] == [
        ["late", "design5_api_late", "no_compromise"],
        [long_name, "baseline", "leaked"],
    ]


def test_reflection_rows_run_under_their_own_defense(tmp_path, capsys):
    path = tmp_path / "scenarios.tsv"
    path.write_text(
        "".join(
            f"r-{defense}\treflection\t{defense}\tvariant=retarget,pinning=on\n"
            for defense in ("design4", "design5", "manifest-v3", "baseline")
        ),
        encoding="utf-8",
    )
    assert main(["matrix", "--seed", "7", "--scenarios", str(path), "--format", "json"]) == EXIT_OK
    outcomes = json.loads(capsys.readouterr().out)["outcomes"]
    by_defense = {o["defense"]: o for o in outcomes}
    assert sorted(by_defense) == sorted(
        DEFENSE_TOKENS[d].value for d in ("design4", "design5", "manifest-v3", "baseline")
    )
    # the pin refuses the retargeted login in every nonce mode; baseline
    # autofills the password itself, so the echo endpoint reflects it
    for mode in ("design4_api_early", "design5_api_late", "manifest_v3"):
        assert by_defense[mode]["secret_leaked"] is False
        assert "refused_by_check=3" in by_defense[mode]["notes"]
    assert by_defense["baseline"]["secret_leaked"] is True


def test_parse_scenarios_skips_comments_and_blanks(tmp_path):
    rows = parse_scenarios(scenario_file(tmp_path))
    assert [row[0] for row in rows] == ["zeta", "alpha", "mirror", "fkey"]
    assert rows[0][3] == {}
    assert rows[2][3] == {"variant": "retarget", "pinning": "off"}


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("one\tdom_observer\tbaseline", "4 tab-separated columns"),
        ("one\tquantum\tbaseline\t-", "unknown adversary"),
        ("one\tfido2_dom\tdesign5\t-", "on|off"),
        ("one\tdom_observer\tultra\t-", "unknown defense"),
        ("one\tdom_observer\tbaseline\tnoequals", "bad option"),
        ("one\tdom_observer\tbaseline\tcategory=bogus", "unknown category"),
        ("one\tdom_observer\tbaseline\tcategory=fido2", "unknown category"),
        ("one\tdom_observer\tbaseline\tstrategy=abc", "strategy must be"),
        ("one\tdom_observer\tbaseline\tstrategy=-1", "strategy must be"),
        ("one\treflection\tdesign5\tvariant=zzz", "unknown variant"),
        ("one\treflection\tdesign5\tpinning=maybe", "unknown pinning"),
        ("one\tdom_observer\tbaseline\tpining=off", "unknown option"),
        ("one\tdom_observer\tbaseline\tcategory=iframe_login,category=plain_post", "repeated"),
        ("one\treflection\tdesign5\tpinning=on,pinning=on", "repeated option 'pinning'"),
        # an option the row's adversary never reads
        ("one\treflection\tbaseline\tcategory=iframe_login", "option 'category' does not apply to reflection"),
        ("one\treflection\tdesign5\tstrategy=3", "option 'strategy' does not apply to reflection"),
        ("one\tfido2_dom\ton\tcategory=plain_post", "option 'category' does not apply to fido2_dom"),
        ("one\tfido2_request\toff\tstrategy=1", "option 'strategy' does not apply to fido2_request"),
        ("one\tdom_observer\tbaseline\tvariant=rename", "option 'variant' does not apply to dom_observer"),
        (
            "one\twebrequest_exfiltrator\tdesign5\tpinning=off",
            "option 'pinning' does not apply to webrequest_exfiltrator",
        ),
        ("one\tfido2_dom\toff\tvariant=retarget", "option 'variant' does not apply to fido2_dom"),
        ("one\tfido2_request\ton\tpinning=on", "option 'pinning' does not apply to fido2_request"),
        ("caf\udce9\tdom_observer\tbaseline\t-", "not valid UTF-8"),  # Latin-1 byte
    ],
)
def test_parse_scenarios_errors(tmp_path, line, fragment):
    path = tmp_path / "bad.tsv"
    path.write_bytes(("# header\n" + line + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(ScenarioFormatError) as exc_info:
        parse_scenarios(path)
    assert exc_info.value.line_number == 2
    assert fragment in str(exc_info.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "a\tdom_observer\tbaseline\t-\n# note\nb\tdom_observer\tbaseline\t-\n"
            "a\treflection\tdesign5\t-\n",
            "scenario line 4: repeated name 'a', first on line 1",
        ),
        ("a\tdom_observer\tbaseline\t-\n\tdom_observer\tbaseline\t-\n", "scenario line 2: empty scenario name"),
    ],
)
def test_scenario_names_are_unique_and_not_empty(tmp_path, capsys, text, message):
    # a row's seed derives from its name, so two rows named alike run alike
    path = tmp_path / "scenarios.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=re.escape(message)):
        parse_scenarios(path)
    assert main(["matrix", "--seed", "7", "--scenarios", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"noncepipe: {message}\n"


def test_bad_scenario_file_via_cli(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("only\ttwo\n", encoding="utf-8")
    rc = main(["matrix", "--seed", "7", "--scenarios", str(path)])
    assert rc == EXIT_DATA
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, line",
    [
        ("matrix", "one\tdom_observer\tbaseline\tstrategy=abc"),
        ("matrix", "one\treflection\tdesign5\tvariant=zzz"),
        ("matrix", "one\tdom_observer\tbaseline\tcategory=fido2"),
        ("matrix", "one\tdom_observer\tbaseline\t\udcff"),
        ("compat", "fido2\ta.example\t-"),
        ("compat", "plain_post\ta.example\tpassword=\udcff"),
        ("compat", "plain_post\thttps://a.example\tbad_tls=yes,colour=red"),
        ("matrix", "one\treflection\tbaseline\tcategory=iframe_login"),
        ("matrix", "one\tfido2_dom\ton\tstrategy=2"),
        ("matrix", "one\tdom_exfiltrator\tdesign5\tpinning=off"),
        ("compat", "plain_post\thttps://a.example\treflect=all"),
    ],
)
def test_bad_input_line_exits_data_error_with_one_line(tmp_path, capsys, command, line):
    path = tmp_path / "bad.tsv"
    path.write_bytes(("# header\n" + line + "\n").encode("utf-8", "surrogateescape"))
    flag = "--scenarios" if command == "matrix" else "--corpus"
    assert main([command, "--seed", "7", flag, str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("noncepipe: ") and "line 2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, line, message",
    [
        (
            "matrix",
            "one\tdom_observer\tbaseline\tcategory=iframe_login,category=plain_post",
            "scenario line 2: repeated option 'category'",
        ),
        (
            "compat",
            "plain_post\thttps://a.example\tbad_tls=0,bad_tls=1",
            "corpus line 2: repeated option 'bad_tls'",
        ),
    ],
)
def test_repeated_option_key_exits_data_error(tmp_path, capsys, command, line, message):
    # read first-wins by a corpus and last-wins by a scenario file, so neither
    path = tmp_path / "bad.tsv"
    path.write_text("# header\n" + line + "\n", encoding="utf-8")
    flag = "--scenarios" if command == "matrix" else "--corpus"
    assert main([command, "--seed", "7", flag, str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"noncepipe: {message}\n"


def test_http_submit_scenario_runs_in_every_defense_mode(tmp_path, capsys):
    path = tmp_path / "scenarios.tsv"
    path.write_text(
        "".join(
            f"{token}\twebrequest_exfiltrator\t{token}\tcategory=http_submit\n"
            for token in DEFENSE_TOKENS
        ),
        encoding="utf-8",
    )
    rc = main(["matrix", "--seed", "7", "--scenarios", str(path), "--format", "json"])
    assert rc == EXIT_OK
    outcomes = json.loads(capsys.readouterr().out)["outcomes"]
    leaked = {o["scenario"]: o["secret_leaked"] for o in outcomes}
    # the password reaches a plain-HTTP wire only when nothing defends it
    assert leaked == {token: token == "baseline" for token in DEFENSE_TOKENS}


# ---------------------------------------------------------------------------
# determinism and output hygiene
# ---------------------------------------------------------------------------


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_same_bytes(tmp_path, capsys):
    for out in ("first", "second"):
        assert main(
            ["matrix", "--seed", "11", "--defense", "design4",
             "--strategies", "2", "--out", str(tmp_path / out)]
        ) == EXIT_OK
        assert main(
            ["fido2-demo", "--seed", "11", "--replay", "--out", str(tmp_path / out)]
        ) == EXIT_OK
    assert tree_bytes(tmp_path / "first") == tree_bytes(tmp_path / "second")


# sha256 of report files, frozen. The golden matrix holds verdicts only;
# these also pin every per-cell leak count and compat tally, and each
# scenario's notes, leak digests and attacker flags, on each interpreter
# the suite runs on, not only across two runs of one.
@pytest.mark.parametrize(
    "argv, report, digest",
    [
        (
            ["matrix", "--seed", "7", "--strategies", "5"],
            "matrix.json",
            "05503eb25eac07b2a67f18eeea06a5ab7c4e42d32b7493b9326f83aa579b0ce9",
        ),
        (
            ["compat", "--seed", "7"],
            "compat.json",
            "fa3ca4a9d1575d8bc7b3d1acaeb5bb111e586c4e7e552d01b6789592e1b45a51",
        ),
        (
            ["compat", "--seed", "7", "--defense", "design4"],
            "compat.json",
            "2f08eea3cb4c391f72d6f1f9343149801e3350713e472851ecccd7d0e138d7ea",
        ),
        (
            ["compat", "--seed", "7", "--defense", "manifest-v3"],
            "compat.json",
            "9bf2c83a3656a0e1460c0c58ff0d6dec2ad6a2d7b924797209545f2e3f0a4e58",
        ),
        (
            ["matrix", "--seed", "7", "--scenarios", str(SCENARIOS_ALL)],
            "scenarios.json",
            "9e8bfb73a8e1785cccedddd87bb17ca15ca7dd4908962c51974c0993dff99e75",
        ),
        (
            ["matrix", "--seed", "7"],
            "matrix.json",
            "a4079c3e89685bcd62e3d3bd7455210cf01959b8d52411d808b8c5655e17970e",
        ),
    ],
    ids=[
        "matrix", "compat", "compat_design4", "compat_manifest_v3", "scenarios_all",
        "matrix_every_plan",
    ],
)
def test_report_matches_frozen_digest(tmp_path, capsys, argv, report, digest):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / report).read_bytes()).hexdigest() == digest


def test_different_seeds_still_agree_on_verdicts(tmp_path):
    reports = []
    for seed in ("5", "6"):
        out = tmp_path / seed
        assert main(
            ["matrix", "--seed", seed, "--defense", "design3",
             "--strategies", "1", "--out", str(out)]
        ) == EXIT_OK
        data = json.loads((out / "matrix.json").read_text(encoding="utf-8"))
        reports.append(
            {adv: cell["verdict"] for adv, cell in data["cells"]["design3_dom"].items()}
        )
    assert reports[0] == reports[1]


def test_no_secret_material_in_any_output(tmp_path, capsys):
    """Scrubber: vault passwords never appear in report files or stdout."""
    out = tmp_path / "reports"
    seed = 13
    strategies = 2
    assert main(
        ["matrix", "--seed", str(seed), "--strategies", str(strategies),
         "--out", str(out)]
    ) == EXIT_OK
    assert main(
        ["matrix", "--seed", str(seed), "--scenarios", str(scenario_file(tmp_path)),
         "--out", str(out)]
    ) == EXIT_OK
    assert main(
        ["compat", "--seed", str(seed), "--corpus", str(small_corpus(tmp_path)),
         "--out", str(out)]
    ) == EXIT_OK
    assert main(
        ["fido2-demo", "--seed", str(seed), "--replay", "--out", str(out)]
    ) == EXIT_OK

    # reconstruct every password the runs could have touched
    secrets = []
    for mode in DefenseMode:
        for adversary in PASSWORD_ADVERSARIES:
            for index in range(strategies):
                scenario_seed = derive_seed(seed, "matrix", mode.value, adversary, str(index))
                secrets.append(generate_password(scenario_seed, "target"))
    for name in ("zeta", "alpha"):
        secrets.append(generate_password(derive_seed(seed, "scenario", name), "target"))
    secrets.append(generate_password(derive_seed(seed, "scenario", "mirror"), "forum"))
    for line, host in ((2, "a.example"), (3, "b.example"), (4, "c.example")):
        secrets.append(generate_password(seed, f"line{line}-{host}"))

    corpus_of = {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}
    corpus_of["<stdout>"] = capsys.readouterr().out
    assert len(corpus_of) == 9  # 4 stems x .txt/.json, plus captured stdout
    for where, content in corpus_of.items():
        for secret in secrets:
            assert secret not in content, f"password leaked into {where}"
        assert "-----BEGIN" not in content  # no key material
        assert '"challenge"' not in content  # no raw FIDO2 payloads
