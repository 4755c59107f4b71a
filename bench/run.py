"""shiftlab benchmark: one verdict at a time, checked, on seeded workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload group-orbit --seed 1 --seconds 20 --trace 0

Each run is one fresh process and a closed loop with a single client: the
next query is sent only after the previous verdict returned, in this process
and with no threads (``cli-cold`` runs each query as its own sequential
subprocess instead).  Inputs come from the seed alone; set-up imports the
library from ``src/`` and builds every input object; a few throwaway queries
on other inputs warm the interpreter; then queries run in order until
``--seconds`` of verdict time have passed.  Every verdict is checked against
a brute-force reference in this directory, outside the timed region.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` every second block of queries runs with each layer wrapped
in spans and the others run untraced; the run reports the per-layer metrics
plus the tracing overhead (traced against untraced verdicts per second,
measured side by side on the same machine state).

The last line of standard output is the result object; the line before it
is a report with the run's stamp, failures and input-property shares.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {
    "group-orbit": "wl_group",
    "rotation-exact": "wl_rotation",
    "zseq-scan": "wl_zseq",
    "cli-cold": "wl_cli",
}
SETUP_SAMPLES = 5
# Builds beyond the first stop once this much build time has been spent.
BUILD_BUDGET_S = 3.0
# Queries listed per second of run time, as a multiple of the seed's measured
# rate: a later, faster version still finds fresh inputs for the whole run.
LIST_HEADROOM = 1.5
# A run whose checks are slow still ends in time: stop after this much wall time.
WALL_GUARD_S = 150.0

PROBE = ("import importlib, sys, time\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "t = time.perf_counter()\n"
         "for m in sys.argv[2:]:\n"
         "    importlib.import_module(m)\n"
         "print(time.perf_counter() - t)\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def import_library(modules):
    """Cold import of the workload's library modules from src/, in seconds.

    src/ also goes on the PYTHONPATH that child processes inherit."""
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                             os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    elapsed = time.perf_counter() - t0
    origin = Path(sys.modules["shiftlab"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"shiftlab was imported from {origin}, not from {SRC}")
    return elapsed


def probe_imports(modules, count):
    """Cold import times measured inside fresh interpreters."""
    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, "-c", PROBE, str(SRC), *modules],
                             capture_output=True, text=True, timeout=60, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"import probe failed: {res.stderr.strip()[-400:]}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def stamp(args, attempted):
    def git(*cmd):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                 text=True, timeout=20, env=env)
        except (OSError, subprocess.SubprocessError):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "seed": args.seed,
        "workload": args.workload,
        "queries": attempted,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs queries one at a time, timing each verdict and checking it untimed."""

    def __init__(self, wl, run=None):
        self.wl = wl
        self.run = run or wl.run
        self.latencies = []
        self.traced_latencies = []
        self.failures = []
        self.attempted = 0
        self.program_s = 0.0
        self.state = {}

    def __call__(self, queries, inputs, seconds, tracer=None):
        """Run queries until `seconds` of verdict time.  With a tracer, every
        second block of queries runs traced: blocks share one make-up, and
        alternating them lets both halves see the same machine state."""
        started = time.perf_counter()
        checks = 0.0
        for query, inp in zip(queries, inputs):
            now = time.perf_counter()
            if now - started - checks >= seconds or now - started >= WALL_GUARD_S:
                break
            traced = tracer is not None and (self.attempted // self.wl.BLOCK_SIZE) % 2 == 1
            if tracer is not None and traced != tracer.installed:
                tracer.install() if traced else tracer.uninstall()
            self.attempted += 1
            if traced:
                tracer.query_id, tracer.active = query["id"], True
            t0 = time.perf_counter()
            try:
                out = self.run(query, inp)
                reason = None
            except Exception as exc:  # a raised error is a failed query, not a crash
                out, reason = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if traced:
                tracer.active = False
                self.traced_latencies.append(t1 - t0)
            else:
                self.latencies.append(t1 - t0)
            if reason is None:
                try:
                    reason = self.wl.check(query, inp, out, self.state)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.failures.append({"query": query["id"], "kind": query["kind"],
                                      "reason": reason[:300]})
            checks += time.perf_counter() - t1
        self.program_s += time.perf_counter() - started - checks
        return self

    @property
    def verdicts_per_s(self):
        done = self.attempted - len(self.failures)
        return done / self.program_s if self.program_s > 0 else 0.0


def quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def make_queries(wl, workload, seed, seconds):
    count = int(seconds * wl.RATE * LIST_HEADROOM) + 40
    queries = wl.make_queries(random.Random(f"{workload}:{seed}"), count)
    warmup = wl.make_warmup(random.Random(f"{workload}:{seed}:warmup"))
    return queries, warmup


def setup(wl, queries, import_s):
    """Import SETUP_SAMPLES times and build every input up to SETUP_SAMPLES times
    (within BUILD_BUDGET_S); set-up time is the median import plus the median
    build.  The last build's objects are the ones queried."""
    imports = [import_s] + probe_imports(wl.MODULES, SETUP_SAMPLES - 1)
    builds, inputs = [], None
    while not builds or (wl.BUILD_IN_SETUP and len(builds) < SETUP_SAMPLES
                         and sum(builds) < BUILD_BUDGET_S):
        inputs = None
        t0 = time.perf_counter()
        inputs = wl.build(queries)
        builds.append(time.perf_counter() - t0)
    build_s = statistics.median(builds) if wl.BUILD_IN_SETUP else 0.0
    return inputs, statistics.median(imports) + build_s, {"import_s": imports,
                                                          "build_s": builds}


def warm(wl, warmup, run=None):
    Loop(wl, run)(warmup, wl.build(warmup), seconds=60.0)


def cleanup(wl):
    getattr(wl, "cleanup", lambda: None)()


def untraced_run(args, wl):
    queries, warmup = make_queries(wl, args.workload, args.seed, args.seconds)
    import_s = import_library(wl.MODULES)
    try:
        inputs, setup_s, setup_samples = setup(wl, queries, import_s)
        warm(wl, warmup)
        loop = Loop(wl)(queries, inputs, args.seconds)
    finally:
        cleanup(wl)
    lat_ms = [x * 1000.0 for x in loop.latencies]
    metrics = {
        "verdict_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "verdict_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "verdicts_per_s": (loop.verdicts_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(wl.CHILD_PROCESSES), "MB"),
    }
    extra = {
        "failed_share": len(loop.failures) / max(loop.attempted, 1),
        "p90_tail_samples": sum(1 for x in lat_ms if x > metrics["verdict_p90_ms"][0]),
        "query_list_length": len(queries),
        "list_exhausted": loop.attempted == len(queries),
        "setup_samples": setup_samples,
        "shares": wl.shares(loop.state),
    }
    return loop, metrics, extra


def traced_run(args, wl):
    from layers import COUNTERS, MOVES, TARGETS, metric_units
    from tracer import Tracer

    queries, warmup = make_queries(wl, args.workload, args.seed, args.seconds)
    import_s = import_library(wl.MODULES)
    run = getattr(wl, "run_in_process", wl.run)
    tracer = Tracer(TARGETS)
    try:
        warm(wl, warmup, run)
        with tracer:
            tracer.active = True
            inputs = wl.build(queries)
            tracer.active = False
        loop = Loop(wl, run)(queries, inputs, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
        cleanup(wl)
    units = metric_units()
    values = {}
    for target in TARGETS:
        values[f"{target.metric}.calls"] = tracer.calls.get(target.metric, 0)
        values[f"{target.metric}.self_s"] = tracer.self_s.get(target.metric, 0.0)
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    searches = tracer.counters.get("codes.search.queries", 0)
    values["codes.search.found_share"] = (
        tracer.counters.get("codes.search.found", 0) / searches if searches else 0.0)
    reads = tracer.calls.get("zshift.RotationOracle.value", 0) + \
        tracer.counters.get("rotation.orbit_symbols.symbols", 0)
    values["zshift.value_read_share"] = (
        tracer.calls.get("zshift.RotationOracle.value", 0) / reads if reads else 0.0)
    values["cli.import_s"] = import_s if "shiftlab.cli.main" in wl.MODULES else 0.0
    plain_s, traced_s = sum(loop.latencies), sum(loop.traced_latencies)
    plain_vps = len(loop.latencies) / plain_s if plain_s else 0.0
    traced_vps = len(loop.traced_latencies) / traced_s if traced_s else 0.0
    values["trace.untraced_verdicts_per_s"] = plain_vps
    values["trace.traced_verdicts_per_s"] = traced_vps
    values["trace.overhead_share"] = plain_vps / traced_vps - 1.0 if traced_vps else 0.0
    values["trace.self_share"] = tracer.outer_s / traced_s if traced_s else 0.0
    metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.tsv.gz"
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    extra = {
        "failed_share": len(loop.failures) / max(loop.attempted, 1),
        "absent": sorted(tracer.absent),
        "spans": tracer.span_count(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_queries": len(loop.traced_latencies),
        "untraced_queries": len(loop.latencies),
        "moves": {name: {"metric": metric, "workload": workload}
                  for name, (metric, workload) in MOVES.items()},
        "shares": wl.shares(loop.state),
    }
    return loop, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"no shiftlab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    wl = importlib.import_module(WORKLOADS[args.workload])
    loop, metrics, extra = (traced_run if args.trace else untraced_run)(args, wl)
    report = {"stamp": stamp(args, loop.attempted), "failures": loop.failures[:10], **extra}
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
