"""cli-cold: every query is a fresh ``python -m shiftlab.cli.main ... --json``.

Seeded scenario YAML covers every subcommand family (group, system,
rotation, seq, code, recur), and ``repro`` covers the eight fixtures other
than dedekind-catalog.  Interpreter start, imports, YAML loading and report
rendering dominate; no other workload measures the ``cli`` layer.  The
scenario files are written before timing starts and removed at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import reference as ref
import wl_rotation
import wl_zseq
from wl_group import ORDERS

NAME = "cli-cold"
MODULES = ("shiftlab.cli.main",)
RATE = 6            # queries per second at the seed, used only to size the query list
BUILD_IN_SETUP = False
CHILD_PROCESSES = True

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / f"cli-{os.getpid()}"
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("periodic-r", "parity-iso", "parity-nonsep", "step-vs-zero", "sturmian-00",
            "third-interval-minimal", "four-coloring", "eqtech")
COMMANDS = ("group analyze", "system build", "system iso", "system furstenberg",
            "rotation classify", "rotation word", "rotation boundary", "seq window",
            "seq occur", "seq recur", "code apply", "code verify", "code search",
            "code patterns", "recur chromatic", "recur syndetic", "recur eqtech")
BLOCK_SIZE = len(FIXTURES) + len(COMMANDS)
GROUPS = ("z4", "z6", "z8", "s3", "d4", "q8", "z2xz2", "z2xz4")


# -- scenario documents -----------------------------------------------------------

def _quadratic(a, b, c, d):
    """(a + b*sqrt(d)) / c in the scenario grammar."""
    from fractions import Fraction

    u, v = Fraction(a, c), Fraction(b, c)
    text = f"{v}*sqrt({d})" if v != 1 else f"sqrt({d})"
    return text if u == 0 else f"{text}{'+' if u > 0 else '-'}{abs(u)}"


def _coding_doc(spec):
    cuts = [f"{c[1]}/{c[2]}" if c[0] == "rat" else f"{c[1]}*alpha" for c in spec["cuts"]]
    own, m = spec["owner_right"], len(cuts)
    cells = {}
    for i in range(m):
        cells.setdefault(str(spec["labels"][i]), []).append(
            {"lo": cuts[i], "lo_closed": own[i], "hi": cuts[(i + 1) % m],
             "hi_closed": not own[(i + 1) % m]})
    return {"alpha": _quadratic(*spec["alpha"]), "base": "0", "cells": cells}


def _oracle_doc(spec):
    (tag, body), = spec.items()
    if tag == "periodic":
        return {"periodic": "".join(map(str, body))}
    if tag == "set":
        doc = {"op": body["op"], "aps": body["aps"], "include": body["include"],
               "exclude": body["exclude"]}
        if body.get("halfline") is not None:
            doc["halfline"] = {"from": body["halfline"]}
        return {"set": doc}
    if tag == "rotation":
        return {"rotation": _coding_doc(body)}
    if tag == "code_image":
        return {"code_image": {"code": {"offsets": body["offsets"], "rule": body["rule"]},
                               "inner": _oracle_doc(body["inner"])}}
    return {"override": {"inner": _oracle_doc(body["inner"]), "patch": body["patch"]}}


def _scenario(rng, command):
    """One scenario query: its files {name: document}, argv and oracle spec."""
    files, argv = {}, command.split()
    query = {"kind": command, "files": files}

    def group():
        name = rng.choice(GROUPS)
        files["g"] = {"kind": "group", "id": name, "catalog": name}
        k = rng.randint(2, 4)
        files["f"] = {"kind": "function", "id": "f",
                      "values": [rng.randrange(k) for _ in range(ORDERS[name])]}
        return ["--group", "g.yaml", "--function", "f.yaml"]

    def coding():
        files["c"] = {"kind": "coding", "id": "c",
                      **_coding_doc(wl_rotation._coding_spec(rng, rng.randint(2, 3)))}
        return ["--coding", "c.yaml"]

    def oracle(name, spec=None):
        spec = spec or wl_zseq._binary_oracle(rng)
        files[name] = {"kind": "oracle", "id": name, **_oracle_doc(spec)}
        return spec

    if command == "group analyze":
        name = rng.choice(GROUPS)
        files["g"] = {"kind": "group", "id": name, "catalog": name}
        argv += ["g.yaml"]
    elif command == "system build":
        argv += group() + ["--mode", rng.choice(("R", "L", "Ltilde", "anti"))]
    elif command == "system iso":
        argv += group() + ["--left-mode", "R", "--right-mode", "Ltilde"]
    elif command == "system furstenberg":
        argv += group() + ["--mode", rng.choice(("R", "Ltilde"))]
    elif command == "rotation classify":
        argv += coding() + ["--scope", rng.choice(("set", "colouring"))]
    elif command == "rotation word":
        argv += coding()
        argv += ["--symbols", "0,1", "--offsets", f"0,{rng.randint(1, 3)}"]
    elif command == "rotation boundary":
        argv += coding()
    elif command in ("seq window", "seq occur", "seq recur"):
        spec = query["spec"] = oracle("o", wl_zseq._scan_oracle(rng))
        argv += ["--oracle", "o.yaml"]
        if command == "seq window":
            argv += ["--lo", str(-rng.randint(10, 50)), "--hi", str(rng.randint(10, 50))]
        elif command == "seq occur":
            ev = ref.SpecOracle(spec)
            offsets = [0, rng.randint(1, 3)]
            start = rng.randint(-20, 20)
            argv += ["--symbols", ",".join(str(ev.value(start + o)) for o in offsets),
                     "--offsets", ",".join(map(str, offsets)), "--lo", "-500", "--hi", "500"]
        else:
            argv += ["--max-len", str(rng.randint(3, 5)), "--window", str(rng.randint(200, 1000))]
    elif command == "code apply":
        offsets, rule = wl_zseq._code(rng, "parity")
        files["k"] = {"kind": "code", "id": "k", "offsets": offsets, "rule": rule}
        oracle("o")
        argv += ["--code", "k.yaml", "--oracle", "o.yaml", "--lo", "-30", "--hi", "30"]
    elif command == "code verify":
        offsets, rule = wl_zseq._code(rng, "parity")
        files["k"] = {"kind": "code", "id": "k", "offsets": offsets, "rule": rule}
        source = oracle("s")
        oracle("t", {"code_image": {"offsets": offsets, "rule": rule, "inner": source}})
        argv += ["--code", "k.yaml", "--source", "s.yaml", "--target", "t.yaml",
                 "--window", str(rng.randint(100, 500)), "--separation"]
    elif command == "code search":
        source = oracle("s")
        oracle("t", wl_zseq._planted_target(rng, source))
        argv += ["--target", "t.yaml", "--source", "s.yaml", "--max-span", "2",
                 "--depth", "4", "--window", str(rng.randint(100, 300))]
    elif command == "code patterns":
        oracle("a", wl_zseq._set_spec(rng))
        oracle("b", wl_zseq._set_spec(rng))
        argv += ["--a", "a.yaml", "--b", "b.yaml", "--shifts", "0,1", "--k",
                 str(rng.randint(1, 2)), "--window", "100"]
    elif command in ("recur chromatic", "recur syndetic"):
        files["r"] = {"kind": "candidate-set", "id": "r",
                      "elements": sorted(rng.sample(range(1, 6), rng.randint(1, 2)))}
        oracle("o", wl_zseq._set_spec(rng))
        flag = "--coloring" if command == "recur chromatic" else "--oracle"
        argv += ["--set", "r.yaml", flag, "o.yaml", "--window", str(rng.randint(100, 500))]
    else:
        bound = rng.randint(6, 8)
        files["s"] = {"kind": "candidate-set", "id": "s", "elements": [
            {"r": rng.randrange(3), "support": sorted(rng.sample(range(1, bound + 1), 2))}]}
        argv += ["--context", "s.yaml", "--support-bound", str(bound)]
    query["argv"] = argv
    return query


def make_queries(rng, count):
    out = []
    while len(out) < count:
        block = [{"kind": "repro", "fixture": f} for f in FIXTURES]
        block.extend(_scenario(rng, command) for command in COMMANDS)
        rng.shuffle(block)
        out.extend(block)
    for i, q in enumerate(out):
        q["id"] = i
    return out


def make_warmup(rng):
    return [{"id": -1, **_scenario(rng, "seq window")},
            {"id": -1, "kind": "repro", "fixture": "step-vs-zero"}]


def build(queries):
    """Write each query's scenario files into its own directory; the input is the argv."""
    import yaml

    inputs = []
    for q in queries:
        if q["kind"] == "repro":
            inputs.append(["repro", q["fixture"], "--json"])
            continue
        where = WORK / f"q{q['id']}"
        where.mkdir(parents=True, exist_ok=True)
        for name, doc in q["files"].items():
            (where / f"{name}.yaml").write_text(yaml.safe_dump(doc, sort_keys=True),
                                                encoding="utf-8")
        inputs.append([str(where / a) if a.endswith(".yaml") else a for a in q["argv"]]
                      + ["--json"])
    return inputs


def run(query, argv):
    res = subprocess.run([sys.executable, "-m", "shiftlab.cli.main", *argv], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    return res.returncode, res.stdout, res.stderr


def run_in_process(query, argv):
    """The same argv through shiftlab.cli.main.main, for the traced run."""
    from shiftlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main.main(argv)
    return code, out.getvalue(), ""


def check(query, argv, res, state):
    code, stdout, stderr = res
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    doc = json.loads(stdout)
    doc.pop("wall_time_ms", None)
    if query["kind"] == "repro":
        golden = json.loads((GOLDEN / f"{query['fixture']}.json").read_text(encoding="utf-8"))
        return None if doc == golden else "report differs from its golden copy"
    if doc.get("command") != query["kind"]:
        return f"report command {doc.get('command')!r} is not {query['kind']!r}"
    if query["kind"] == "seq window":
        lo, hi = doc["verdict"]["lo"], doc["verdict"]["hi"]
        if doc["verdict"]["values"] != ref.SpecOracle(query["spec"]).window(lo, hi):
            return "window values differ from the reference evaluator"
    if query["kind"] == "group analyze":
        from shiftlab import algebra

        G = algebra.catalog()[query["files"]["g"]["catalog"]]
        if doc["verdict"]["dedekind"] != ref.is_dedekind(G.table, G.identity):
            return "Dedekind verdict differs from cyclic-subgroup normality"
    return None


def shares(state):
    return {}


def cleanup():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.parent.rmdir()
