"""noncepipe benchmark: four workloads, end-to-end and per-layer metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from the `src` directory next to
this one, with nothing installed. Each repetition is a fresh interpreter
(perfbench/rep.py) that runs the workload's cases back to back: one client,
closed loop, no extra threads. Repetitions run one after another until
`--seconds` have passed, and every metric is the median over them.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced repetitions and reports the per-layer
metrics, measured by wrapping the program's functions from the outside
(perfbench/tracer.py). `--smoke` shrinks every workload to a few cases.

Every repetition is checked: each CLI call exits 0, each report tree is
byte-identical across repetitions (and between traced and untraced ones),
and every idle_stage flow gives the same wire bytes and server verdict in
every leg. A failed check counts in `failed`; the command then still prints
its result but exits 1. When the program cannot be run at all it exits 2
without a result. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
from tracer import DISPATCH_PREFIX

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# per repetition: matrix strategies per cell, compat CLI seeds, fido2 CLI
# seeds (each run with defense on and off), idle_stage flows (each through
# every leg)
SIZES = {
    "full": {"matrix": 200, "compat": 4, "fido2": 2, "idle_stage": 1000},
    "smoke": {"matrix": 2, "compat": 1, "fido2": 1, "idle_stage": 5},
}
CASE_UNIT = {
    "matrix": "attack scenarios",
    "compat": "sites (baseline + design5 dual run)",
    "fido2": "fido2-demo invocations",
    "idle_stage": "submits",
}
MIN_REPS = 3  # per kind of repetition (untraced, traced)
REP_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    "es256.sign.calls",
    "es256.sign.p50_us",
    "es256.sign.self_s",
    "es256.public_key_bytes.calls",
    "es256.public_key_bytes.p50_us",
    "es256.public_key_bytes.self_s",
    "es256.verify.p50_us",
    "es256.verify.self_s",
    "fido2.AuthenticatorDevice.make_credential.calls",
    "fido2.AuthenticatorDevice.get_assertion.calls",
    "fido2.RelyingParty.begin.self_s",
    "fido2.RelyingParty.finish.self_s",
    "fido2.RelyingParty.finish.accepted_frac",
    "fido2.SecureStore.strip_and_store.stripped",
    "fido2.SecureStore.inject.injected_frac",
    "rng.substream.calls",
    "rng.substream.self_s",
    "rng.derive_seed.calls",
    "session.BrowserSession.init.calls",
    "session.BrowserSession.init.self_s",
    "sites.build_login_page.self_s",
    "sites.site_vault_entry.self_s",
    "sites.ServerFarm.add_site.self_s",
    "sites.ServerFarm.serve.calls",
    "sites.ServerFarm.serve.self_s",
    "sites.ServerFarm.serve.p50_us",
    *(
        f"pipeline.dispatch.{leg}.{stat}"
        for leg in (
            "baseline",
            "design3_dom",
            "design4_api_early",
            "design5_api_late",
            "manifest_v3",
            "stage_off",
        )
        for stat in ("calls", "p50_us")
    ),
    "pipeline.dispatch.self_s",
    "pipeline.dispatch.cancelled",
    "pipeline.process_response.self_s",
    "pipeline.ListenerRegistry.at.calls",
    "pipeline.StageTranscript.record_delivery.calls",
    "pipeline.apply_substitutions.applied_frac",
    "pipeline.idle_stage_cost_us",
    "manager.PasswordManager.autofill.self_s",
    "manager.PasswordManager.safety_check.calls",
    "manager.PasswordManager.safety_check.self_s",
    "manager.PasswordManager.safety_check.approved_frac",
    "dom.submit_form.calls",
    "dom.submit_form.self_s",
    "dom.script_mutate.calls",
    "extensions.ExtensionHost.install.calls",
    "extensions.ExtensionHost.register_listener.self_s",
    "http_model.urlencode_entries.calls",
    "http_model.urlencode_entries.self_s",
    "http_model.decode_urlencoded.calls",
    "http_model.decode_urlencoded.self_s",
    "http_model.sha256_hex.calls",
    "http_model.Origin.created",
    "http_model.Url.parse.calls",
    "http_model.RequestBody.with_entries.calls",
    "adversaries.run_scenario.calls",
    "adversaries.run_scenario.p50_us",
    "adversaries.run_scenario.p99_us",
    "adversaries.find_leaks.calls",
    "adversaries.find_leaks.self_s",
    "adversaries.run_fido2_scenario.p50_us",
    "cli.report.self_s",
    "process.cpu_s",
    "process.wall_s",
    "process.reference_slice_us",
    "trace.overhead_frac",
)


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat.endswith("_frac"):
        return "ratio"
    if stat.endswith("_us"):
        return "us"
    if stat.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# method and machine context (recorded, not gated)
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    sources = sorted((SRC / "noncepipe").glob("*.py"))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        cryptography = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        cryptography = None
    return {
        "python": platform.python_version(),
        "cryptography": cryptography,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


class RepFailed(Exception):
    """A repetition died without a result."""


def run_rep(workload: str, seed: int, size: int, traced: bool, index: int) -> dict:
    out_dir = TMP / f"rep-{os.getpid()}-{index}"
    spec = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(traced),
        "out_dir": str(out_dir),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(BENCH_DIR / "rep.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition timed out after {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}")
    rep = json.loads(lines[-1])
    rep["traced"] = traced
    return rep


def run_reps(args: argparse.Namespace, size: int) -> tuple[list[dict], list[str]]:
    """Repetitions until --seconds have passed; trace 1 alternates kinds."""
    kinds = [False, True] if args.trace else [False]
    deadline = time.perf_counter() + args.seconds
    reps: list[dict] = []
    problems: list[str] = []
    TMP.mkdir(exist_ok=True)
    try:
        while True:
            traced = kinds[len(reps) % len(kinds)]
            try:
                reps.append(run_rep(args.workload, args.seed, size, traced, len(reps)))
            except RepFailed as exc:
                if not reps:
                    raise  # nothing ran at all: no result to report
                problems.append(f"repetition {len(reps)}: {exc}")
                reps.append({"traced": traced, "dead": True})
            if time.perf_counter() >= deadline and len(reps) >= MIN_REPS * len(kinds):
                return reps, problems
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()


def check(reps: list[dict], problems: list[str]) -> tuple[int, int]:
    """Attempted and failed units over all repetitions, cross-rep checks included."""
    attempted = failed = 0
    first_digest: dict[str, str] = {}
    first_counts = None
    for number, rep in enumerate(reps):
        if rep.get("dead"):
            attempted += 1
            failed += 1
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        problems.extend(f"repetition {number}: {e}" for e in rep["errors"])
        for key, digest in rep["digests"].items():
            expected = first_digest.setdefault(key, digest)
            if digest != expected:
                failed += 1
                problems.append(f"repetition {number}: report tree {key} differs")
        if rep["traced"]:
            counts = (rep["trace"]["calls"], rep["trace"]["counters"])
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                failed += 1
                problems.append(f"repetition {number}: traced call counts differ")
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def at_reference_speed(cpu_s: float, slices: list[float]) -> float:
    """CPU seconds scaled to the host's reference speed (reference.py): by how
    much slower than nominal the reference slices ran meanwhile."""
    return cpu_s * reference.NOMINAL_SLICE_S / statistics.fmean(slices) if slices else cpu_s


def setup_s(rep: dict) -> float:
    return at_reference_speed(rep["setup_cpu_s"], rep["setup_slices"] or rep["run_slices"])


def run_s(rep: dict) -> float:
    return at_reference_speed(rep["run_cpu_s"], rep["run_slices"] or rep["setup_slices"])


def end_to_end(live: list[dict]) -> dict[str, float]:
    """Times on the repetition's CPU clock, at the host's reference speed.

    Other tenants stretch wall time by how long the process waits for a
    core, and CPU time by how hard they load the same physical cores; neither
    is the program's work."""
    return {
        "setup_s": median([setup_s(r) for r in live]),
        "run_s": median([run_s(r) for r in live]),
        "cases_per_s": median([r["cases"] / run_s(r) for r in live]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in live]),
    }


def per_layer(live: list[dict]) -> dict[str, float]:
    plain = [r for r in live if not r["traced"]]
    traced = [r["trace"] for r in live if r["traced"]]
    calls, counters = traced[0]["calls"], traced[0]["counters"]
    durations: dict[str, list[float]] = {}
    for trace in traced:
        for name, values in trace["durations"].items():
            durations.setdefault(name, []).extend(values)

    def self_s(match) -> float:
        return median([sum(v for n, v in t["self_s"].items() if match(n)) for t in traced])

    def p50_us(span: str) -> float:
        return percentile(durations.get(span, []), 0.50) * 1e6

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        span, stat = metric.rsplit(".", 1)
        if metric == "process.cpu_s":
            value = median([r["cpu_s"] for r in plain])
        elif metric == "process.wall_s":
            value = median([r["run_s"] for r in plain])
        elif metric == "process.reference_slice_us":
            value = median([statistics.fmean(r["run_slices"]) for r in plain if r["run_slices"]])
            value *= 1e6
        elif metric == "trace.overhead_frac":
            value = median([run_s(r) for r in live if r["traced"]]) / median(
                [run_s(r) for r in plain]
            ) - 1.0
        elif metric == "pipeline.idle_stage_cost_us":
            on, off = DISPATCH_PREFIX + "design5_api_late", DISPATCH_PREFIX + "stage_off"
            value = p50_us(on) - p50_us(off) if on in durations and off in durations else 0.0
        elif metric == "pipeline.dispatch.self_s":
            value = self_s(lambda n: n.startswith(DISPATCH_PREFIX))
        elif stat == "calls":
            value = calls.get(span, 0)
        elif stat == "self_s":
            value = self_s(lambda n: n == span)
        elif stat == "p50_us":
            value = p50_us(span)
        elif stat == "p99_us":
            value = percentile(durations.get(span, []), 0.99) * 1e6
        elif stat.endswith("_frac"):
            value = counters.get(metric, 0) / calls[span] if calls.get(span) else 0.0
        else:  # a counted result property: created, stripped, cancelled
            value = counters.get(metric, 0)
        out[metric] = int(value) if unit_of(metric) == "count" else float(value)
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few cases per workload")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "noncepipe" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/noncepipe", file=sys.stderr)
        return 2
    # byte-compile first so that no repetition pays for it in set-up
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)
    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    try:
        reps, problems = run_reps(args, size)
    except RepFailed as exc:
        print(f"perfbench: the program could not be run: {exc}", file=sys.stderr)
        return 2
    attempted, failed = check(reps, problems)
    live = [r for r in reps if not r.get("dead")]
    if args.trace and not any(r["traced"] for r in live):
        print("perfbench: no traced repetition finished", file=sys.stderr)
        return 2
    metrics = per_layer(live) if args.trace else end_to_end(live)
    units = dict(END_TO_END) if not args.trace else {m: unit_of(m) for m in PER_LAYER}

    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reps)} cases/repetition={live[0]['cases']} ({CASE_UNIT[args.workload]})"
    )
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<52} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "cases_per_repetition": live[0]["cases"],
        "case_unit": CASE_UNIT[args.workload],
        "repetitions": len(reps),
        "failed_frac": failed / attempted,
        "report_sha256": {k: v for r in live for k, v in r["digests"].items()},
        "context": context(),
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
