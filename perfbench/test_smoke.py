"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark's own module, for its metric tables)


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable,
        str(root / "perfbench" / "run.py"),
        *("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)),
        "--smoke",
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def detail(proc: subprocess.CompletedProcess) -> dict:
    line = next(x for x in proc.stdout.splitlines() if x.startswith("detail: "))
    return json.loads(line[len("detail: ") :])


@pytest.fixture(scope="module")
def traced() -> dict[str, list[subprocess.CompletedProcess]]:
    """Two traced runs of every workload on the same seed."""
    return {w: [bench(w, 1), bench(w, 1)] for w in WORKLOADS}


def test_spec_matches_the_code():
    assert WORKLOADS == list(run.SIZES["full"]) == list(run.SIZES["smoke"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    metrics = result(bench(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, runs in traced.items():
        metrics = result(runs[0])["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == wanted, workload


def test_call_counts_repeat_exactly_across_traced_runs(traced):
    for workload, (first, second) in traced.items():
        a, b = result(first)["metrics"], result(second)["metrics"]
        counts = [k for k, v in a.items() if v["unit"] == "count"]
        assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}, workload


@pytest.mark.parametrize(
    "workload, dispatches_per_case",
    [("idle_stage", 1), ("matrix", 1), ("compat", 2)],  # compat runs each site twice
)
def test_dispatch_wrappers_catch_every_flow(traced, workload, dispatches_per_case):
    proc = traced[workload][0]
    metrics = result(proc)["metrics"]
    dispatched = sum(
        v["value"]
        for k, v in metrics.items()
        if k.startswith("pipeline.dispatch.") and k.endswith(".calls")
    )
    assert dispatched == dispatches_per_case * detail(proc)["cases_per_repetition"]


def test_traced_stage_legs_are_all_measured(traced):
    metrics = result(traced["idle_stage"][0])["metrics"]
    for leg in ("design5_api_late", "stage_off"):
        assert metrics[f"pipeline.dispatch.{leg}.p50_us"]["value"] > 0
    assert metrics["pipeline.idle_stage_cost_us"]["value"] != 0


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("matrix", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
