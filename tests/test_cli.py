import json
import subprocess
import sys
from pathlib import Path

import pytest

from shiftlab.cli.main import main
from shiftlab.cli.repro import repro_registry, run_repro
from shiftlab.cli.scenarios import (
    build_candidate_set,
    build_coding,
    build_group,
    build_oracle,
    emit_scenario,
    parse_scenario,
)
from shiftlab.codes import RealizationResult
from shiftlab.errors import ScenarioError

GOLDEN_DIR = Path(__file__).parent / "golden"

Z4_GROUP = """\
kind: group
id: z4
order: 4
table:
  - [0, 1, 2, 3]
  - [1, 2, 3, 0]
  - [2, 3, 0, 1]
  - [3, 0, 1, 2]
"""

BROKEN_GROUP = """\
kind: group
id: broken
order: 4
table:
  - [0, 1, 2, 3]
  - [1, 3, 3, 0]
  - [2, 3, 0, 1]
  - [3, 0, 1, 2]
"""

PERIOD_FUNCTION = """\
kind: function
id: period-two
values: [0, 1, 0, 1]
"""

B_ORACLE = """\
kind: oracle
id: pinned-b
set:
  op: inter
  aps: [[0, 2]]
  halfline: {from: 2}
"""

A_ORACLE = """\
kind: oracle
id: pinned-a
set:
  op: inter
  aps: [[1, 2]]
  halfline: {from: 1}
  include: [0]
"""

STURMIAN_CODING = """\
kind: coding
id: sturmian
alpha: sqrt(5)-2
base: "0"
cells:
  "0":
    - {lo: alpha, lo_closed: true, hi: 2*alpha, hi_closed: true}
  "1":
    - {lo: 2*alpha, lo_closed: false, hi: alpha, hi_closed: false}
"""

PARITY3_CODE = """\
kind: code
id: parity-3
offsets: [0, 1, 2]
rule:
  "000": 0
  "001": 1
  "010": 1
  "011": 0
  "100": 1
  "101": 0
  "110": 0
  "111": 1
"""

# cell 0 is [alpha, 1/2): its first arc starts at a rational 8e-21 above
# alpha = sqrt(2) - 1, too close for a float to order the two
NEAR_ALPHA_CODING = """\
kind: coding
id: near-alpha
alpha: sqrt(2)-1
cells:
  "0":
    - {lo: 41421356237309504881/100000000000000000000, lo_closed: true, hi: 1/2, hi_closed: false}
    - {lo: alpha, lo_closed: true, hi: 9/20, hi_closed: false}
  "1":
    - {lo: 1/2, lo_closed: true, hi: alpha, hi_closed: false}
"""

CANDIDATES = """\
kind: candidate-set
id: small
elements: [1, 2]
"""

Z3B_CONTEXT = """\
kind: candidate-set
id: context
elements:
  - {r: 1, support: [1, 2]}
"""


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("z4.yaml", Z4_GROUP), ("broken.yaml", BROKEN_GROUP),
        ("f.yaml", PERIOD_FUNCTION), ("b.yaml", B_ORACLE), ("a.yaml", A_ORACLE),
        ("sturmian.yaml", STURMIAN_CODING), ("parity3.yaml", PARITY3_CODE),
        ("cand.yaml", CANDIDATES), ("z3b.yaml", Z3B_CONTEXT),
        ("near.yaml", NEAR_ALPHA_CODING),
        ("bad-r.yaml", Z3B_CONTEXT.replace("{r: 1, support: [1, 2]}", "{r: 5, support: [1]}")),
        ("bad-support.yaml", Z3B_CONTEXT.replace("support: [1, 2]", "support: [0]")),
        ("bad-ap.yaml", B_ORACLE.replace("aps: [[0, 2]]", "aps: [[a, 2]]")),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        out[name] = str(path)
    return out


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


# -- scenario grammar -----------------------------------------------------------

def test_scenarios_round_trip():
    for text in (Z4_GROUP, PERIOD_FUNCTION, B_ORACLE, A_ORACLE, STURMIAN_CODING,
                 PARITY3_CODE, CANDIDATES, Z3B_CONTEXT):
        doc = parse_scenario(text)
        again = parse_scenario(emit_scenario(doc))
        assert again == doc


def test_unknown_keys_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(Z4_GROUP + "frobnicate: 1\n")
    with pytest.raises(ScenarioError):
        parse_scenario(B_ORACLE.replace("halfline", "halfmoon"))


def test_missing_kind_or_id_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("id: x\norder: 1\ntable: [[0]]\n")
    with pytest.raises(ScenarioError):
        parse_scenario("kind: group\norder: 1\ntable: [[0]]\n")


def test_builders_produce_working_objects():
    G = build_group(parse_scenario(Z4_GROUP))
    assert G.order == 4
    oracle = build_oracle(parse_scenario(B_ORACLE))
    assert oracle.window(0, 6) == [0, 0, 1, 0, 1, 0, 1]
    coding = build_coding(parse_scenario(STURMIAN_CODING))
    assert str(coding.alpha) == "sqrt(5)-2"
    S = build_candidate_set(parse_scenario(Z3B_CONTEXT))
    assert len(S) == 1 and S[0].r == 1


def test_catalog_group_reference():
    G = build_group(parse_scenario("kind: group\nid: q\ncatalog: q8\n"))
    assert G.order == 8


# -- exit codes ------------------------------------------------------------------

def test_group_analyze_ok(files, capsys):
    assert run_cli("group", "analyze", files["z4.yaml"]) == 0
    out = capsys.readouterr().out
    assert "dedekind: True" in out


def test_group_analyze_corrupted_table_exits_2(files, capsys):
    assert run_cli("group", "analyze", files["broken.yaml"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_repro_id_exits_2(capsys):
    assert run_cli("repro", "nonsense") == 2


def test_bound_exceeded_exits_3(files, capsys):
    assert run_cli("seq", "recur", "--oracle", files["b.yaml"],
                   "--max-len", "100", "--window", "10") == 3


@pytest.mark.parametrize("target,fault,argv", [
    # every subgroup reported non-normal: the Dedekind test finds no coset witness
    ("shiftlab.algebra.is_normal", lambda *args: False, ["group", "analyze", "z4.yaml"]),
    # a found code fails its realization re-check
    ("shiftlab.codes.verify_realization",
     lambda code, source, target, radius: RealizationResult(False, radius, (0, 1, 0)),
     ["code", "search", "--target", "b.yaml", "--source", "b.yaml", "--window", "20"]),
])
def test_internal_verification_failure_exits_4(files, capsys, monkeypatch, target, fault,
                                                argv):
    monkeypatch.setattr(target, fault)
    assert run_cli(*(files.get(a, a) for a in argv)) == 4
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_verdicts_still_exit_0(files, capsys):
    assert run_cli("code", "search", "--target", files["a.yaml"],
                   "--source", files["b.yaml"], "--max-span", "1",
                   "--window", "50") == 0
    out = capsys.readouterr().out
    assert "search exhausted" in out or "certificate found" in out


# -- end-to-end commands -------------------------------------------------------------

def test_system_iso_cli(files, capsys):
    assert run_cli("system", "iso", "--group", files["z4.yaml"],
                   "--function", files["f.yaml"]) == 0
    assert "isomorphic" in capsys.readouterr().out


def test_rotation_classify_cli(files, capsys):
    assert run_cli("rotation", "classify", "--coding", files["sturmian.yaml"],
                   "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["minimal"] is False
    assert doc["verdict"]["witness"]["symbols"] == [0, 0]


def test_rotation_word_cli(files, capsys):
    assert run_cli("rotation", "word", "--coding", files["sturmian.yaml"],
                   "--symbols", "0,0", "--offsets", "0,1", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["kind"] == "finite"
    assert doc["verdict"]["occurrences"] == [1]


def test_seq_window_cli(files, capsys):
    assert run_cli("seq", "window", "--oracle", files["b.yaml"],
                   "--lo", "-2", "--hi", "3") == 0
    assert "000010" in capsys.readouterr().out


def test_code_verify_cli(files, capsys):
    assert run_cli("code", "verify", "--code", files["parity3.yaml"],
                   "--source", files["b.yaml"], "--target", files["a.yaml"],
                   "--window", "500", "--separation") == 0
    out = capsys.readouterr().out
    assert "agrees" in out and "separates" in out


def test_code_patterns_cli(files, capsys):
    # at arity 1 the two sets are indistinguishable; adjacent ones separate them
    assert run_cli("code", "patterns", "--a", files["a.yaml"], "--b", files["b.yaml"],
                   "--shifts", "0,1", "--k", "1", "--window", "200", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["equivalent"] is True
    assert run_cli("code", "patterns", "--a", files["a.yaml"], "--b", files["b.yaml"],
                   "--shifts", "0,1", "--k", "2", "--window", "200", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["equivalent"] is False
    assert doc["verdict"]["witness"]["values"] == [1, 1]


def test_recur_chromatic_cli(files, capsys):
    assert run_cli("recur", "chromatic", "--set", files["cand.yaml"],
                   "--coloring", files["b.yaml"], "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["found"] is True


def test_recur_chromatic_negative_window_exits_2(files, capsys):
    assert run_cli("recur", "chromatic", "--set", files["cand.yaml"],
                   "--coloring", files["b.yaml"], "--window", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("seq", "recur", "--oracle", "b.yaml", "--max-len", "8", "--window", "-3"),
    ("code", "verify", "--code", "parity3.yaml", "--source", "b.yaml",
     "--target", "a.yaml", "--window", "-3"),
    ("code", "verify", "--code", "parity3.yaml", "--source", "b.yaml", "--window", "-3"),
    ("code", "search", "--target", "a.yaml", "--source", "b.yaml", "--max-span", "1",
     "--window", "-3"),
])
def test_negative_window_exits_2(files, capsys, argv):
    assert run_cli(*(files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "must be non-negative, got -3" in err


@pytest.mark.parametrize("argv", [
    ("recur", "eqtech", "--context", "missing.yaml"),
    ("recur", "chromatic", "--set", "missing.yaml", "--coloring", "b.yaml"),
    ("recur", "syndetic", "--set", "missing.yaml", "--oracle", "b.yaml"),
])
def test_missing_candidate_file_exits_2(files, tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.yaml")
    assert run_cli(*(missing if a == "missing.yaml" else files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("recur", "eqtech", "--context", "bad-r.yaml"),
    ("recur", "eqtech", "--context", "bad-support.yaml"),
    ("seq", "window", "--oracle", "bad-ap.yaml", "--lo", "0", "--hi", "3"),
])
def test_malformed_scenario_values_exit_2(files, capsys, argv):
    assert run_cli(*(files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_rotation_classify_orders_endpoints_exactly(files, capsys):
    assert run_cli("rotation", "classify", "--coding", files["near.yaml"]) == 0
    assert "minimality (set): Minimal" in capsys.readouterr().out


def test_recur_eqtech_cli(files, capsys):
    assert run_cli("recur", "eqtech", "--context", files["z3b.yaml"], "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["found"] is True and doc["verdict"]["reverified"] is True


def test_out_directory_written(files, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert run_cli("repro", "eqtech", "--out", str(out_dir)) == 0
    assert (out_dir / "repro-eqtech.json").exists()
    assert (out_dir / "repro-eqtech.txt").exists()


def test_cli_subprocess_entry_point(files):
    result = subprocess.run(
        [sys.executable, "-m", "shiftlab.cli.main", "repro", "--list"],
        check=True, capture_output=True, text=True)
    assert "sturmian-00" in result.stdout


# -- determinism and goldens -------------------------------------------------------------

def test_registry_ids_are_exactly_the_nine():
    assert repro_registry() == [
        "dedekind-catalog", "eqtech", "four-coloring", "parity-iso",
        "parity-nonsep", "periodic-r", "step-vs-zero", "sturmian-00",
        "third-interval-minimal",
    ]


@pytest.mark.parametrize("fixture_id", [
    "periodic-r", "parity-iso", "parity-nonsep", "sturmian-00",
    "third-interval-minimal", "four-coloring", "eqtech", "step-vs-zero",
])
def test_repro_matches_golden(fixture_id):
    report = run_repro(fixture_id)
    golden = json.loads((GOLDEN_DIR / f"{fixture_id}.json").read_text(encoding="utf-8"))
    assert json.loads(report.to_json()) == golden


def test_dedekind_catalog_matches_golden_slow():
    report = run_repro("dedekind-catalog")
    golden = json.loads((GOLDEN_DIR / "dedekind-catalog.json").read_text(encoding="utf-8"))
    assert json.loads(report.to_json()) == golden


def test_structured_reports_are_byte_identical_across_runs():
    a = run_repro("sturmian-00").to_json()
    b = run_repro("sturmian-00").to_json()
    assert a == b


def test_repeated_runs_give_byte_identical_report_cores(files, capsys):
    outputs = []
    for _ in range(2):
        assert run_cli("rotation", "word", "--coding", files["sturmian.yaml"],
                       "--symbols", "0,0", "--offsets", "0,1", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("wall_time_ms", None)
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]
