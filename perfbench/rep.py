"""One repetition of one workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/rep.py '{"workload": ..., "seed": ..., "size": ...,
"trace": 0|1, "out_dir": ...}' with the program's `src` on PYTHONPATH.

Set-up (the imports and the generated inputs) ends at the first case; the
run is every case back to back in this one process, with no extra threads.
Report trees go to `out_dir`, which run.py removes. The last stdout line is
a JSON object: timings, resource use, attempted and failed units with the
first few errors, a sha256 per report tree, and with tracing on the
tracer's summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import reference

# sample the host's speed from here on: the imports and input generation are
# set-up, measured like the cases
SAMPLER = reference.Sampler()
SAMPLER.start()

import noncepipe.cli  # noqa: E402
from noncepipe import sites as np_sites  # noqa: E402
from noncepipe.http_model import Origin  # noqa: E402
from noncepipe.pipeline import DefenseMode  # noqa: E402
from noncepipe.session import BrowserSession  # noqa: E402

MAX_ERRORS = 5

# typed usernames and passwords include characters that need form-encoding
_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 !%&+=@~é"


def derive(seed: int, *labels: object) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    text = "\x1f".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


def tree_sha256(root: Path) -> str:
    """Digest of a report tree: every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


class Outcome:
    """Attempted and failed units of one repetition, plus report digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# CLI workloads: a case list of argv, each run through noncepipe.cli.main
# ---------------------------------------------------------------------------


class CliWorkload:
    def __init__(self, invocations: list[tuple[str, list[str]]], cases: int) -> None:
        self.invocations = invocations  # (report key, argv)
        self.cases = cases

    def run(self, out_dir: Path, outcome: Outcome) -> None:
        for key, argv in self.invocations:
            outcome.attempted += 1
            tree = out_dir / key
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = noncepipe.cli.main([*argv, "--out", str(tree)])
            except Exception as exc:  # a crash is a failed invocation, not a dead run
                outcome.fail(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if code != 0:
                outcome.fail(f"{key}: exit {code}: {stderr.getvalue().strip()[:300]}")
                continue
            outcome.digests[key] = tree_sha256(tree)


def matrix(seed: int, strategies: int) -> CliWorkload:
    cli_seed = derive(seed, "matrix")
    argv = ["matrix", "--seed", str(cli_seed), "--strategies", str(strategies)]
    modes, adversaries = len(DefenseMode), len(noncepipe.cli.PASSWORD_ADVERSARIES)
    return CliWorkload([(f"matrix-{cli_seed}", argv)], modes * adversaries * strategies)


def compat(seed: int, seeds: int) -> CliWorkload:
    sites = len(noncepipe.cli.build_fixture_corpus())
    invocations = []
    for index in range(seeds):
        cli_seed = derive(seed, "compat", index)
        invocations.append((f"compat-{cli_seed}", ["compat", "--seed", str(cli_seed)]))
    return CliWorkload(invocations, sites * seeds)


def fido2(seed: int, seeds: int) -> CliWorkload:
    invocations = []
    for index in range(seeds):
        cli_seed = derive(seed, "fido2", index)
        for defense in ("on", "off"):
            argv = ["fido2-demo", "--seed", str(cli_seed), "--defense", defense, "--replay"]
            invocations.append((f"fido2-{cli_seed}-{defense}", argv))
    return CliWorkload(invocations, len(invocations))


# ---------------------------------------------------------------------------
# idle_stage: nonce-free logins through long-lived sessions, one per leg
# ---------------------------------------------------------------------------

# (leg name, defense mode, credential stage compiled in)
IDLE_LEGS = [(mode.value, mode, True) for mode in DefenseMode] + [
    ("stage_off", DefenseMode.DESIGN5_API_LATE, False)
]
IDLE_CATEGORIES = ("plain_post",) * 6 + ("hashes_password", "transforms_password")


def _text(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(_TEXT_ALPHABET) for _ in range(rng.randint(low, high)))


class IdleStage:
    """Every flow goes through every leg; the legs must agree byte for byte."""

    def __init__(self, seed: int, flows: int) -> None:
        rng = random.Random(derive(seed, "idle_stage"))
        sites = []
        for index, category in enumerate(IDLE_CATEGORIES):
            origin = Origin("https", f"idle-{index}.example", 443)
            profile = np_sites.SiteProfile(f"idle-{index}", category, origin)
            sites.append((profile, _text(rng, 8, 20)))
        self.flows = []  # (profile, username, typed password, expected verdict)
        for _ in range(flows):
            profile, password = rng.choice(sites)
            typed = password if rng.random() < 0.9 else _text(rng, 8, 20)
            if typed == password:
                verdict = "auth_ok"
            elif profile.category == "hashes_password":
                verdict = "integrity_fail"  # the site checks its hash field first
            else:
                verdict = "auth_fail"
            self.flows.append((profile, _text(rng, 3, 12), typed, verdict))
        session_seed = derive(seed, "idle_stage", "session")
        self.legs = []
        for leg, mode, stage_enabled in IDLE_LEGS:
            farm = np_sites.ServerFarm(session_seed)
            for profile, password in sites:
                farm.add_site(profile, password)
            session = BrowserSession(
                session_seed,
                mode,
                [],
                farm.serve,
                name="idle",
                credential_stage_enabled=stage_enabled,
            )
            self.legs.append((leg, session))
        self.cases = flows * len(self.legs)

    def run(self, out_dir: Path, outcome: Outcome) -> None:
        digest = hashlib.sha256()
        for number, (profile, username, typed, expected) in enumerate(self.flows):
            reference = None
            for leg, session in self.legs:
                outcome.attempted += 1
                try:
                    # looked up at call time, so the tracer's wrapper is the one called
                    page, form_id = np_sites.build_login_page(session, profile)
                    form = page.form(form_id)
                    form.field_named("username").value = username
                    form.field_named("password").value = typed
                    result = session.submit(page, form_id)
                    wire = result.wire
                    seen = (
                        wire.method,
                        wire.url.to_string(),
                        wire.headers,
                        wire.body_bytes(),
                        result.verdict,
                    )
                except Exception as exc:  # a crash is a failed case, not a dead run
                    outcome.fail(f"flow {number} {leg}: {type(exc).__name__}: {exc}")
                    continue
                if reference is None:
                    reference = seen
                    digest.update(repr(seen).encode("utf-8"))
                if seen != reference:
                    outcome.fail(f"flow {number} {leg}: wire bytes or verdict differ")
                elif result.verdict != expected:
                    outcome.fail(f"flow {number} {leg}: {result.verdict}, expected {expected}")
        outcome.digests["idle_stage"] = digest.hexdigest()


WORKLOADS = {"matrix": matrix, "compat": compat, "fido2": fido2, "idle_stage": IdleStage}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["size"])
    out_dir = Path(spec["out_dir"])
    outcome = Outcome()
    # CPU seconds of the process's one thread since it started: start-up,
    # imports and input generation
    setup_cpu_s = time.thread_time()
    setup_slices = len(SAMPLER.slices)
    first_case = time.perf_counter()
    workload.run(out_dir, outcome)
    run_s = time.perf_counter() - first_case
    run_cpu_s = time.thread_time() - setup_cpu_s
    SAMPLER.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        # CPU times with the sampler's own slices taken out, and the slices
        "setup_cpu_s": setup_cpu_s - sum(SAMPLER.slices[:setup_slices]),
        "setup_slices": SAMPLER.slices[:setup_slices],
        "run_s": run_s,
        "run_cpu_s": run_cpu_s - sum(SAMPLER.slices[setup_slices:]),
        "run_slices": SAMPLER.slices[setup_slices:],
        "cases": workload.cases,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digests": outcome.digests,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
