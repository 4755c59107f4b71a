"""The benchmark's own tests.

Run from the root of a checkout with ``python3 -m pytest bench/selftest.py``.
The file name keeps these tests out of the library's default test run: they
start benchmark processes and take about a minute.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark entry point, imported as a module)
from layers import TARGETS  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    res = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    return res


def result(res):
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_prints_every_end_to_end_metric(workload):
    report, out = result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                               "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert report["failed_share"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    stamp = report["stamp"]
    for key in ("python", "nproc", "cpu_model", "git_commit", "git_dirty", "seed", "queries"):
        assert key in stamp


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    # long enough to reach the second block of queries, which is the first traced one
    report, out = result(bench("--workload", workload, "--seed", "4", "--seconds", "3",
                               "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert report["absent"] == []
    assert out["metrics"]["trace.traced_verdicts_per_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_yields_the_same_query_list(workload):
    wl = importlib.import_module(run.WORKLOADS[workload])
    first = run.make_queries(wl, workload, 7, 2.0)
    again = run.make_queries(wl, workload, 7, 2.0)
    other = run.make_queries(wl, workload, 8, 2.0)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def _planted(workload):
    """A run function that returns one wrong verdict per query of some kind."""

    def group(query, out):
        if query["kind"] == "pair":
            out["dedekind"] = not out["dedekind"]
        return out

    def rotation(query, out):
        if query["kind"] == "boundary":
            return out[1:] if out else [(0, None, [0, 1])]
        return out

    def zseq(query, out):
        return out + [10**6] if query["kind"] == "occur" else out

    def cli(query, out):
        code, stdout, stderr = out
        return (1, stdout, stderr) if query["kind"] == "repro" else out

    return {"group-orbit": group, "rotation-exact": rotation, "zseq-scan": zseq,
            "cli-cold": cli}[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_planted_wrong_verdict_raises_failed_share(workload):
    wl = importlib.import_module(run.WORKLOADS[workload])
    run.import_library(wl.MODULES)
    queries, _ = run.make_queries(wl, workload, 5, 0.5)
    queries = queries[:30]
    execute = getattr(wl, "run_in_process", wl.run)
    corrupt = _planted(workload)
    try:
        honest = run.Loop(wl, execute)(queries, wl.build(queries), seconds=120)
        planted = run.Loop(wl, lambda q, inp: corrupt(q, execute(q, inp)))(
            queries, wl.build(queries), seconds=120)
    finally:
        run.cleanup(wl)
    assert honest.attempted == planted.attempted == len(queries)
    assert not honest.failures
    assert planted.failures


def test_tracer_rebinds_by_name_imports_and_restores_them():
    run.import_library(("shiftlab.cli.main",))
    from shiftlab import rotation
    from shiftlab.cli import main, repro

    original = rotation.classify_minimality
    tracer = Tracer([t for t in TARGETS if t.metric == "rotation.classify_minimality"]
                    + [Target("shiftlab.rotation", "no_such_helper", "rotation.gone")])
    with tracer:
        assert main.classify_minimality is repro.classify_minimality is \
            rotation.classify_minimality is not original
        tracer.active = True
        main.classify_minimality(repro.third_interval_coding())
        tracer.active = False
    assert main.classify_minimality is repro.classify_minimality is original
    assert tracer.calls["rotation.classify_minimality"] == 1
    assert tracer.absent == {"rotation.gone"}


def test_without_the_library_the_benchmark_fails_without_a_result():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        res = bench("--workload", "group-orbit", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
