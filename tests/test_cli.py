import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from shiftlab import rotation
from shiftlab.cli import scenarios
from shiftlab.cli.main import COMMANDS, build_parser, main
from shiftlab.cli.reports import CAVEATS, weakest
from shiftlab.cli.repro import repro_registry, run_repro
from shiftlab.cli.scenarios import (
    KINDS,
    build_candidate_set,
    build_coding,
    build_group,
    build_oracle,
    emit_scenario,
    parse_scenario,
)
from shiftlab.codes import RealizationResult
from shiftlab.errors import BoundExceeded, InputError, ScenarioError

GOLDEN_DIR = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"

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

# cell 1 is the circle minus the point alpha, which the orbit meets only at n = 1
PUNCTURED_CODING = """\
kind: coding
id: punctured
alpha: sqrt(5)-2
cells:
  0: {points: [alpha]}
  1: {arcs: [{lo: 0, hi: alpha, lo_closed: true, hi_closed: false},
             {lo: alpha, hi: 1, lo_closed: false, hi_closed: false}]}
"""

# the sturmian coding as an oracle, with string labels
STURMIAN_ORACLE = """\
kind: oracle
id: sturmian-seq
rotation:
  alpha: sqrt(5)-2
  cells:
    "a":
      - {lo: alpha, lo_closed: true, hi: 2*alpha, hi_closed: true}
    "b":
      - {lo: 2*alpha, lo_closed: false, hi: alpha, hi_closed: false}
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
    # parse_scenario checks only the envelope; each builder checks its own keys
    with pytest.raises(ScenarioError, match=r"^group: unknown keys \['frobnicate'\]$"):
        build_group(parse_scenario(Z4_GROUP + "frobnicate: 1\n"))
    with pytest.raises(ScenarioError, match=r"^oracle\.set: unknown keys \['halfmoon'\]$"):
        build_oracle(parse_scenario(B_ORACLE.replace("halfline", "halfmoon")))


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


@pytest.mark.parametrize("flags", [
    ("--max-len", "0"), ("--max-len", "-3"), ("--gap-bound", "0"), ("--gap-bound", "-1"),
])
def test_recur_rejects_vacuous_parameters(files, capsys, flags):
    # max_len < 1 used to certify an empty word list, and gap_bound < 1 to
    # refute every word, both with exit 0
    assert run_cli("seq", "recur", "--oracle", files["b.yaml"], "--window", "10", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "must be at least 1" in err


def test_occur_rejects_reversed_bounds_like_window(files, capsys):
    errors = []
    for argv in (("seq", "occur", "--oracle", files["b.yaml"], "--symbols", "1",
                  "--offsets", "0", "--lo", "5", "--hi", "1"),
                 ("seq", "window", "--oracle", files["b.yaml"], "--lo", "5", "--hi", "1")):
        assert run_cli(*argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "input error: window [5, 1] is empty\n"


@pytest.mark.parametrize("argv", [
    # --k -1 ended in a ValueError traceback, the others in exit-0 verdicts
    ("code", "patterns", "--a", "a.yaml", "--b", "b.yaml", "--shifts", "0,1", "--k", "-1"),
    ("code", "patterns", "--a", "a.yaml", "--b", "b.yaml", "--shifts", "0,1", "--k", "0"),
    ("code", "patterns", "--a", "a.yaml", "--b", "b.yaml", "--shifts", ",", "--k", "1"),
    ("code", "search", "--target", "b.yaml", "--source", "b.yaml", "--window", "20",
     "--max-span", "-1"),
    ("code", "search", "--target", "b.yaml", "--source", "b.yaml", "--window", "20",
     "--depth", "-2"),
    ("code", "verify", "--code", "parity3.yaml", "--source", "b.yaml", "--window", "20",
     "--depth", "-1"),
    ("recur", "eqtech", "--context", "z3b.yaml", "--search-bound", "-1"),
])
def test_vacuous_code_and_recur_parameters_exit_2(files, capsys, argv):
    assert run_cli(*(files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oversized_pattern_arity_exits_3(files, capsys):
    # the tuple count 2**(10**8) used to be built in full, and its message
    # ended in a ValueError traceback
    assert run_cli("code", "patterns", "--a", files["a.yaml"], "--b", files["b.yaml"],
                   "--shifts", "0", "--k", str(10**8)) == 3
    err = capsys.readouterr().err
    assert err == "bound exceeded: 2**100000000 tuples exceed the cap 1000000\n"


@pytest.mark.parametrize("source", ["const.yaml", "alt.yaml"])
@pytest.mark.parametrize("bounds,message", [
    (("--depth", "30"), "projection depth 30 exceeds 24"),
    (("--depth", "6", "--window", "3"), "projection radius must be at least the depth"),
])
def test_search_depth_bounds_do_not_depend_on_the_source(tmp_path, capsys, source, bounds,
                                                         message):
    # a constant source has no consistent shift for the alternating target, and
    # the bounds were once checked only after one was found
    for name, word in (("alt.yaml", "01"), ("const.yaml", "0")):
        (tmp_path / name).write_text(f'kind: oracle\nid: w\nperiodic: "{word}"\n',
                                     encoding="utf-8")
    assert run_cli("code", "search", "--target", str(tmp_path / "alt.yaml"),
                   "--source", str(tmp_path / source), *bounds) == 3
    assert capsys.readouterr().err == f"bound exceeded: {message}\n"


def _knob(draw, extremes):
    return draw(st.integers(-30, 30) | st.sampled_from(extremes))


@st.composite
def seq_argv(draw):
    """argv for seq window|occur|recur with zero, negative, reversed and
    oversized numbers; every flag is written --flag=value."""
    sub = draw(st.sampled_from(("window", "occur", "recur")))
    oracle = draw(st.sampled_from(("a.yaml", "b.yaml", "sturmian-seq.yaml")))
    argv = ["seq", sub, "--oracle", oracle]
    if sub == "recur":
        argv.append(f"--max-len={_knob(draw, (-10**8, 64, 65, 10**8))}")
        argv.append(f"--window={_knob(draw, (-10**8, 10**6 + 1, 10**8))}")
        if draw(st.booleans()):
            argv.append(f"--gap-bound={_knob(draw, (-10**8, 10**8))}")
        return argv
    lo = _knob(draw, (-10**8, 10**8))
    hi = draw(st.sampled_from((lo, lo - 1, lo + 3)) | st.integers(-10**8, 10**8))
    argv += [f"--lo={lo}", f"--hi={hi}"]
    if sub == "occur":
        offsets = draw(st.lists(st.integers(-3, 5).map(str) | st.just("x"), max_size=3))
        symbols = draw(st.lists(st.sampled_from(("0", "1", "2", "a", "b")), max_size=3))
        argv += [f"--offsets={','.join(offsets)}", f"--symbols={','.join(symbols)}"]
    return argv


@pytest.fixture(scope="module")
def seq_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("seq-fuzz")
    for name, text in (("a.yaml", A_ORACLE), ("b.yaml", B_ORACLE),
                       ("sturmian-seq.yaml", STURMIAN_ORACLE)):
        (folder / name).write_text(text, encoding="utf-8")
    return folder


@settings(max_examples=150, deadline=None)
@given(argv=seq_argv())
def test_seq_boundary_fuzz_exits_cleanly(seq_files, argv):
    _assert_exits_cleanly(seq_files, argv)


def _assert_exits_cleanly(folder, argv):
    """Exit 0, 2, 3 or 4, no traceback, and exactly one stderr line unless 0."""
    argv = [str(folder / a) if a.endswith(".yaml") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""
    return code


@st.composite
def code_recur_argv(draw):
    """argv for code verify|search|patterns and recur chromatic|syndetic|eqtech
    with zero, negative and oversized numbers and malformed --shifts; an
    oversized value is past a library cap, so it is refused before any work."""
    family, sub = draw(st.sampled_from((
        ("code", "verify"), ("code", "search"), ("code", "patterns"),
        ("recur", "chromatic"), ("recur", "syndetic"), ("recur", "eqtech"))))
    oracle = draw(st.sampled_from(("a.yaml", "b.yaml", "sturmian-seq.yaml")))
    window = f"--window={draw(st.integers(-3, 30) | st.sampled_from((-10**8, 10**8)))}"
    argv = [family, sub]
    if sub == "verify":
        argv += ["--code", "parity3.yaml", "--source", oracle, window,
                 f"--depth={_knob(draw, (-10**8, 25, 10**8))}"]
        if draw(st.booleans()):
            argv += ["--target", draw(st.sampled_from(("a.yaml", "b.yaml"))), "--separation"]
    elif sub == "search":
        argv += ["--target", draw(st.sampled_from(("a.yaml", "b.yaml"))), "--source", oracle,
                 window, f"--max-span={draw(st.integers(-3, 3) | st.sampled_from((5, 10**8)))}",
                 f"--depth={_knob(draw, (-10**8, 25, 10**8))}"]
    elif sub == "patterns":
        shifts = draw(st.lists(st.integers(-3, 5).map(str), min_size=1, max_size=3)
                      | st.lists(st.sampled_from(("x", "", "2", str(10**8))), max_size=3))
        argv += ["--a", oracle, "--b", draw(st.sampled_from(("a.yaml", "b.yaml"))),
                 f"--shifts={','.join(shifts)}", window,
                 f"--k={draw(st.integers(-3, 3) | st.sampled_from((-10**8, 10**8)))}"]
    elif sub == "eqtech":
        argv += ["--context", "z3b.yaml",
                 f"--support-bound={_knob(draw, (-10**8, 13, 10**8))}"]
        if draw(st.booleans()):
            argv.append(f"--search-bound={draw(st.integers(-3, 4) | st.sampled_from((13, 10**8)))}")
    else:
        argv += ["--set", "cand.yaml", "--coloring" if sub == "chromatic" else "--oracle",
                 oracle, window]
    return argv


@pytest.fixture(scope="module")
def code_recur_files(seq_files):
    for name, text in (("parity3.yaml", PARITY3_CODE), ("cand.yaml", CANDIDATES),
                       ("z3b.yaml", Z3B_CONTEXT)):
        (seq_files / name).write_text(text, encoding="utf-8")
    return seq_files


@settings(max_examples=300, deadline=None)
@given(argv=code_recur_argv())
def test_code_and_recur_boundary_fuzz_exits_cleanly(code_recur_files, argv):
    _assert_exits_cleanly(code_recur_files, argv)


# wrong-kind, malformed and out-of-range scenario files for the group,
# system and rotation families; generated tables and values are added per draw
FAMILY_FILES = {
    "z4.yaml": Z4_GROUP, "broken.yaml": BROKEN_GROUP, "f.yaml": PERIOD_FUNCTION,
    "sturmian.yaml": STURMIAN_CODING, "near.yaml": NEAR_ALPHA_CODING, "b.yaml": B_ORACLE,
    "s3.yaml": "kind: group\nid: s3\ncatalog: s3\n",
    "catalog-list.yaml": "kind: group\nid: c\ncatalog: [z4]\n",
    "ragged.yaml": "kind: group\nid: r\norder: 2\ntable:\n  - [0, 1]\n  - [1]\n",
    "out-of-range.yaml": "kind: group\nid: r\norder: 2\ntable:\n  - [0, 1]\n  - [1, 2]\n",
    "order-0.yaml": "kind: group\nid: r\norder: 0\ntable: []\n",
    "scalar-rows.yaml": "kind: group\nid: r\norder: 2\ntable: [1, null]\n",
    "empty-values.yaml": "kind: function\nid: f\nvalues: []\n",
    "short-values.yaml": "kind: function\nid: f\nvalues: [0, 1]\n",
    "odd-values.yaml": "kind: function\nid: f\nvalues: [[0], {a: 1}, null, x]\n",
    "not-yaml.yaml": "kind: [\n",
    "a-list.yaml": "- 1\n- 2\n",
    "rational-alpha.yaml": STURMIAN_CODING.replace("sqrt(5)-2", "1/3"),
    "zero-denominator.yaml": STURMIAN_CODING.replace("2*alpha, hi_closed: true", "1/0"),
    "gap.yaml": STURMIAN_CODING.replace("hi: alpha, hi_closed: false", "hi: 1/2"),
    "overlap.yaml": STURMIAN_CODING.replace("hi: 2*alpha, hi_closed: true", "hi: 1/2"),
    "scalar-points.yaml": STURMIAN_CODING.replace(
        '"1":\n    - {lo: 2*alpha, lo_closed: false, hi: alpha, hi_closed: false}',
        '"1": {arcs: [{lo: 2*alpha, lo_closed: false, hi: alpha, hi_closed: false}], '
        'points: 5}'),
}
GROUP_FILES = ("z4.yaml", "broken.yaml", "s3.yaml", "catalog-list.yaml", "ragged.yaml",
               "out-of-range.yaml", "order-0.yaml", "scalar-rows.yaml", "drawn-group.yaml",
               "f.yaml", "not-yaml.yaml", "a-list.yaml", "missing.yaml")
FUNCTION_FILES = ("f.yaml", "empty-values.yaml", "short-values.yaml", "odd-values.yaml",
                  "drawn-function.yaml", "z4.yaml", "not-yaml.yaml", "missing.yaml")
CODING_FILES = ("sturmian.yaml", "near.yaml", "rational-alpha.yaml", "zero-denominator.yaml",
                "gap.yaml", "overlap.yaml", "scalar-points.yaml", "b.yaml", "not-yaml.yaml",
                "missing.yaml")
MODES = ("R", "L", "Ltilde", "anti")


@st.composite
def family_argv(draw, folder):
    """argv for group analyze, system build|iso|furstenberg, rotation
    classify|word|boundary and repro.  A drawn group table (ragged, out of
    range or of order 0) and drawn function values are written to the folder."""
    entry = st.integers(-1, 4) | st.sampled_from(("x", None, 1.5))
    rows = draw(st.lists(st.lists(entry, max_size=4) | entry, max_size=4))
    (folder / "drawn-group.yaml").write_text(yaml.safe_dump(
        {"kind": "group", "id": "drawn", "order": draw(st.integers(-1, 4)), "table": rows}),
        encoding="utf-8")
    values = draw(st.lists(st.integers(0, 2) | st.sampled_from(("a", None)), max_size=6))
    (folder / "drawn-function.yaml").write_text(yaml.safe_dump(
        {"kind": "function", "id": "drawn", "values": values}), encoding="utf-8")
    family = draw(st.sampled_from(("group", "system", "rotation", "repro")))
    if family == "group":
        return ["group", "analyze", draw(st.sampled_from(GROUP_FILES))]
    if family == "system":
        sub = draw(st.sampled_from(("build", "iso", "furstenberg")))
        argv = ["system", sub, "--group", draw(st.sampled_from(GROUP_FILES)),
                "--function", draw(st.sampled_from(FUNCTION_FILES))]
        if sub == "iso":
            argv += ["--left-mode", draw(st.sampled_from(MODES)),
                     "--right-mode", draw(st.sampled_from(MODES))]
            if draw(st.booleans()):
                argv += ["--function2", draw(st.sampled_from(FUNCTION_FILES))]
            return argv
        argv += ["--mode", draw(st.sampled_from(MODES))]
        if sub == "build" and draw(st.booleans()):
            argv.append("--dump")
        if sub == "furstenberg" and draw(st.booleans()):
            argv += ["--query", draw(st.sampled_from(FUNCTION_FILES))]
        return argv
    if family == "rotation":
        sub = draw(st.sampled_from(("classify", "word", "boundary")))
        argv = ["rotation", sub, "--coding", draw(st.sampled_from(CODING_FILES))]
        if sub == "classify":
            scope = draw(st.sampled_from(("set", "colouring", "whole-colouring", "0", "1",
                                          "7", "x", "")))
            argv.append(f"--scope={scope}")
        elif sub == "word":
            symbols = draw(st.lists(st.sampled_from(("0", "1", "2", "a", "")), max_size=3))
            offsets = draw(st.lists(st.integers(-3, 5).map(str) | st.sampled_from(
                ("x", "1.5", "")), max_size=3))
            argv += [f"--symbols={','.join(symbols)}", f"--offsets={','.join(offsets)}"]
        return argv
    # dedekind-catalog is left to its golden test: it takes about a second
    ids = [i for i in repro_registry() if i != "dedekind-catalog"]
    return ["repro", draw(st.sampled_from(["--list", "no-such-fixture"] + ids))]


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("family-fuzz")
    for name, text in FAMILY_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_system_rotation_boundary_fuzz_exits_cleanly(family_files, data):
    _assert_exits_cleanly(family_files, data.draw(family_argv(family_files)))


@pytest.mark.parametrize("name,message", [
    ("scalar-rows.yaml", "group table must be a list of rows"),
    ("catalog-list.yaml", "unknown catalog group ['z4']"),
    ("not-yaml.yaml", "not valid YAML: expected the node content, but found '<stream end>' "
                      "at line 2, column 1"),
])
def test_malformed_group_files_exit_2_with_one_line(family_files, capsys, name, message):
    assert run_cli("group", "analyze", str(family_files / name)) == 2
    assert capsys.readouterr().err == f"input error: {family_files / name}: {message}\n"


@pytest.mark.parametrize("name,message", [
    ("zero-denominator.yaml", "zero denominator in quadratic expression '1/0'"),
    ("scalar-points.yaml", "coding: cell '1' points must be a list"),
])
def test_malformed_coding_files_exit_2_with_one_line(family_files, capsys, name, message):
    # an error in a quadratic leaf is prefixed with the leaf's path
    where = {"zero-denominator.yaml": "coding.cells[0].hi: "}.get(name, "")
    assert run_cli("rotation", "boundary", "--coding", str(family_files / name)) == 2
    assert capsys.readouterr().err == f"input error: {family_files / name}: {where}{message}\n"


@pytest.mark.parametrize("radicand,code", [("1000000000000000003", 0),
                                            ("10000000000000000000000007", 3)])
def test_huge_prime_radicand_ends_with_one_line(tmp_path, radicand, code):
    # a prime near 10**18 is decided exactly; one past the squarefree-test bound exits 3
    (tmp_path / "huge.yaml").write_text(
        STURMIAN_CODING.replace("sqrt(5)-2", f"sqrt({radicand})-1"), encoding="utf-8")
    assert _assert_exits_cleanly(tmp_path, ["rotation", "boundary", "--coding", "huge.yaml"]) == code


MIXED_FILES = {
    "mixed-word.yaml": "kind: oracle\nid: mixed\nperiodic: \"0a1\"\n",
    "binary.yaml": "kind: oracle\nid: binary\nperiodic: \"01\"\n",
    "mixed-code.yaml": "kind: code\nid: mixed\noffsets: [0]\nrule:\n  \"0\": 0\n  \"1\": a\n",
    "mixed-coding.yaml": STURMIAN_ORACLE.replace('"a"', '"0"').replace('"b"', '"x"'),
    "cand.yaml": CANDIDATES,
    "mixed-triple.yaml": "kind: oracle\nid: triple\nperiodic: \"0aa\"\n",
    "mixed-merge.yaml": "kind: code\nid: merge\noffsets: [0]\nrule:\n  \"0\": 0\n  \"a\": 0\n",
    "mixed-six.yaml": "kind: oracle\nid: six\nperiodic: \"0a0aa0\"\n",
    "mixed-pair.yaml": "kind: oracle\nid: pair\nperiodic: \"0a\"\n",
}


@pytest.mark.parametrize("argv", [
    ["seq", "window", "--oracle", "mixed-word.yaml", "--lo", "-3", "--hi", "3"],
    ["code", "apply", "--code", "mixed-code.yaml", "--oracle", "binary.yaml"],
    ["code", "search", "--target", "mixed-coding.yaml", "--source", "mixed-coding.yaml",
     "--window", "30"],
    ["recur", "chromatic", "--set", "cand.yaml", "--coloring", "mixed-coding.yaml",
     "--window", "30"],
    # separation witnesses whose centers mix 0 and "a"
    ["code", "verify", "--code", "mixed-merge.yaml", "--source", "mixed-triple.yaml",
     "--separation", "--window", "20", "--depth", "2"],
    ["code", "search", "--target", "mixed-pair.yaml", "--source", "mixed-six.yaml",
     "--depth", "1", "--window", "30"],
], ids=["seq-window", "code-apply", "code-search", "recur-chromatic", "code-verify-witness",
        "code-search-witness"])
def test_int_and_str_symbols_mix(tmp_path, argv):
    # every alphabet here holds both an int and a str symbol
    for name, text in MIXED_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert _assert_exits_cleanly(tmp_path, argv) == 0


def test_rotation_word_on_a_circle_minus_one_point(tmp_path, capsys):
    # the word "1" occurs at every n != 1; its locus is the whole cell
    path = tmp_path / "punct.yaml"
    path.write_text(PUNCTURED_CODING, encoding="utf-8")
    assert run_cli("rotation", "word", "--coding", str(path), "--symbols", "1",
                   "--offsets", "0", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["caveat"], doc["verdict"]["kind"]) == ("exact", "syndetic")
    cell = build_coding(parse_scenario(PUNCTURED_CODING)).cells[1]
    assert doc["verdict"]["locus"] == cell.describe()


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


def test_cli_imports_yaml_only_to_read_a_scenario():
    code = ("import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "import shiftlab.cli.main as cli\n"
            "seen = ['yaml' in sys.modules]\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['repro', '--list']) == 0\n"
            "seen.append('yaml' in sys.modules)\n"
            "cli.scenarios.parse_scenario('kind: group\\nid: z\\ncatalog: z4\\n')\n"
            "seen.append('yaml' in sys.modules)\n"
            "print(seen)\n")
    src = str(Path(scenarios.__file__).resolve().parents[2])
    result = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                            text=True, cwd=src)
    assert result.stdout.strip() == "[False, False, True]"


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


# -- the command table: caveats, params and the documented surface --------------------

def test_weakest_caveat_rule():
    for parts in itertools.product(CAVEATS, repeat=2):
        assert weakest(parts) == CAVEATS[max(map(CAVEATS.index, parts))]
    assert weakest(["exact"]) == "exact"


PARITY2_CODE = ('kind: code\nid: parity-2\noffsets: [0, 1]\n'
                'rule: {"00": 0, "01": 1, "10": 1, "11": 0}\n')
ALTERNATING = 'kind: oracle\nid: alternating\nperiodic: "01"\n'
# all ones but for a 0 at n = 100, outside the window the realization reads
ONES_PATCHED = ('kind: oracle\nid: ones-patched\noverride:\n  inner: {periodic: "1"}\n'
                '  patch: {100: 0}\n')


@pytest.mark.parametrize("target,caveat", [
    # the realization holds on [-50, 50] only; the exact projection verdict
    # beside it used to label the whole report exact
    (["--target", "ones.yaml"], "windowed"),
    ([], "exact"),
])
def test_code_verify_caveat_is_its_weakest_part(tmp_path, capsys, target, caveat):
    for name, text in (("p2.yaml", PARITY2_CODE), ("alt.yaml", ALTERNATING),
                       ("ones.yaml", ONES_PATCHED)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["code", "verify", "--code", "p2.yaml", "--source", "alt.yaml", *target,
            "--window", "50", "--separation", "--json"]
    assert run_cli(*(str(tmp_path / a) if a.endswith(".yaml") else a for a in argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["caveat"] == caveat
    assert doc["verdict"]["projection"]["separates"] is False
    assert doc["verdict"]["projection"]["exact"] is True
    assert doc["verdict"].get("realization", {"agrees": True})["agrees"] is True


# 1 on [0, 1/3) under alpha = sqrt(5) - 2: [0, 1/3) and [0, 1/3) - 2 alpha are
# disjoint, so the word (1, 1) at offsets (0, 2) occurs nowhere on Z
FIRST_THIRD = """\
kind: oracle
id: first-third
rotation:
  alpha: sqrt(5)-2
  cells:
    1: [{lo: 0, lo_closed: true, hi: 1/3, hi_closed: false}]
    0: [{lo: 1/3, lo_closed: true, hi: 1, hi_closed: false}]
"""
STEP_TWO = "kind: candidate-set\nid: two\nelements: [2]\n"
# x_h and x_{h+2} take all four value pairs, (1, 1) at h = 3
THREE_ON = 'kind: oracle\nid: three-on\nperiodic: "000111"\n'


def test_the_pattern_check_and_the_return_check_agree_that_a_word_is_absent(tmp_path, capsys):
    for name, text in (("third.yaml", FIRST_THIRD), ("two.yaml", STEP_TWO),
                       ("on.yaml", THREE_ON)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert run_cli("recur", "syndetic", "--set", str(tmp_path / "two.yaml"),
                   "--oracle", str(tmp_path / "third.yaml"), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["caveat"] == "exact"
    assert doc["verdict"] == {"found": False, "radius": 1000, "exact": True}
    assert run_cli("code", "patterns", "--a", str(tmp_path / "third.yaml"),
                   "--b", str(tmp_path / "on.yaml"), "--shifts", "0,2", "--k", "2",
                   "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["caveat"] == "exact" and doc["verdict"]["equivalent"] is False
    assert doc["verdict"]["witness"] == {"shifts": [0, 2], "values": [1, 1],
                                         "nonempty_a": False, "nonempty_b": True}


@pytest.mark.parametrize("oracle,flags,g_star,caveat", [
    # the tails start at 100002, past the window
    ("set: {halfline: {from: 100000}}", ["--max-len", "3"], 1, "windowed"),
    # the word 1 never occurs in the right tail, so its gap on Z is unbounded
    ("set: {op: complement, halfline: {from: 11}}", ["--max-len", "3", "--gap-bound", "5000"],
     992, "windowed"),
    ('periodic: "01"', [], 2, "exact"),
])
def test_seq_recur_labels_a_verified_certificate_exact_only_over_z(tmp_path, capsys, oracle,
                                                                    flags, g_star, caveat):
    path = tmp_path / "o.yaml"
    path.write_text(f"kind: oracle\nid: o\n{oracle}\n", encoding="utf-8")
    assert run_cli("seq", "recur", "--oracle", str(path), *flags, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"]["verdict"], doc["verdict"]["g_star"]) == ("verified", g_star)
    assert doc["caveat"] == caveat and doc["verdict"]["exact"] is (caveat == "exact")


def test_a_reader_that_closes_stdout_early_ends_nothing_in_a_traceback(tmp_path):
    # 200001 values: far more than a pipe buffer holds
    path = tmp_path / "alt.yaml"
    path.write_text(ALTERNATING, encoding="utf-8")
    src = str(Path(scenarios.__file__).resolve().parents[2])
    proc = subprocess.Popen(
        [sys.executable, "-m", "shiftlab.cli.main", "seq", "window", "--oracle", str(path),
         "--lo", "-100000", "--hi", "100000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=src)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_an_error_report_to_a_closed_stderr_keeps_its_exit_code(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    src = str(Path(scenarios.__file__).resolve().parents[2])
    try:
        result = subprocess.run(
            [sys.executable, "-m", "shiftlab.cli.main", "seq", "window", "--oracle",
             str(tmp_path / "missing.yaml"), "--lo", "0", "--hi", "3"],
            stdout=subprocess.PIPE, stderr=write_end, cwd=src, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 2 and result.stdout == b""


@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_an_out_directory_that_cannot_be_made_exits_2_in_one_line(tmp_path, capsys, where):
    blocker = tmp_path / "report"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker if where == "a file" else blocker / "sub"
    assert run_cli("repro", "eqtech", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: --out {out}: ") and err.count("\n") == 1
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_a_scenario_that_is_not_utf8_exits_2_in_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("kind: oracle\nid: caf\xe9\nperiodic: \"01\"\n".encode("latin-1"))
    assert run_cli("seq", "window", "--oracle", str(path), "--lo", "0", "--hi", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


# 0 on [0, 1/3) and at 2*alpha: the word "0" has a locus with interior and a
# point the orbit meets at n = 2, and the witness grows two symbols each side
MIXED_LOCUS_CODING = """\
kind: coding
id: mixed-locus
alpha: sqrt(5)-2
cells:
  "0": {arcs: [{lo: 0, hi: 1/3}], points: [2*alpha]}
  "1":
    - {lo: 1/3, lo_closed: true, hi: 2*alpha, hi_closed: false}
    - {lo: 2*alpha, lo_closed: false, hi: 1, hi_closed: false}
"""


@pytest.mark.parametrize("grow,code", [(1, 3), (2, 0)])
def test_a_witness_past_the_growth_bound_exits_3_in_one_line(tmp_path, capsys, monkeypatch,
                                                             grow, code):
    path = tmp_path / "mixed.yaml"
    path.write_text(MIXED_LOCUS_CODING, encoding="utf-8")
    monkeypatch.setattr(rotation, "MAX_GROW", grow)
    assert run_cli("rotation", "classify", "--coding", str(path), "--json") == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("bound exceeded: could not isolate") and err.count("\n") == 1
    else:
        assert json.loads(out)["verdict"]["witness"]["symbols"] == [0, 0, 0, 1, 1]


@pytest.mark.parametrize("text,message", [
    ("kind: repro\nid: x\n", "kind must be one of"),
    (STURMIAN_CODING, "expected a oracle scenario, got coding"),
])
def test_scenario_of_another_kind_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "s.yaml"
    path.write_text(text, encoding="utf-8")
    assert run_cli("seq", "window", "--oracle", str(path), "--lo", "0", "--hi", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path}: ") and message in err
    assert err.count("\n") == 1


def test_command_table_names_only_scenario_kinds():
    scenario_kinds = {arg.kind for arguments, _ in COMMANDS.values() for arg in arguments
                      if isinstance(arg.kind, str)}
    assert scenario_kinds <= set(KINDS)
    for kind in KINDS:
        assert callable(getattr(scenarios, "build_" + kind.replace("-", "_")))


# each row with its required arguments only, and the params it should record:
# the values given, the defaults, null for an optional file left out, and a
# scenario file (named here by its fixture name) as its id and digest
ROW_SAMPLES = {
    "group analyze": (["z4.yaml"], {"file": "z4.yaml"}),
    "system build": (["--group", "z4.yaml", "--function", "f.yaml"],
                     {"group": "z4.yaml", "function": "f.yaml", "mode": "R", "dump": False}),
    "system iso": (["--group", "z4.yaml", "--function", "f.yaml"],
                   {"group": "z4.yaml", "function": "f.yaml", "left_mode": "R",
                    "right_mode": "Ltilde", "function2": None}),
    "system furstenberg": (["--group", "z4.yaml", "--function", "f.yaml"],
                           {"group": "z4.yaml", "function": "f.yaml", "mode": "Ltilde",
                            "query": None}),
    "rotation classify": (["--coding", "sturmian.yaml"],
                          {"coding": "sturmian.yaml", "scope": "set"}),
    "rotation word": (["--coding", "sturmian.yaml", "--symbols", "0,0", "--offsets", "0,1"],
                      {"coding": "sturmian.yaml", "symbols": "0,0", "offsets": "0,1"}),
    "rotation boundary": (["--coding", "sturmian.yaml"], {"coding": "sturmian.yaml"}),
    "seq window": (["--oracle", "b.yaml", "--lo", "-2", "--hi", "3"],
                   {"oracle": "b.yaml", "lo": -2, "hi": 3}),
    "seq occur": (["--oracle", "b.yaml", "--symbols", "1", "--offsets", "0", "--lo", "0",
                   "--hi", "9"],
                  {"oracle": "b.yaml", "symbols": "1", "offsets": "0", "lo": 0, "hi": 9}),
    "seq recur": (["--oracle", "b.yaml"],
                  {"oracle": "b.yaml", "max_len": 8, "window": 1000, "gap_bound": None}),
    "code apply": (["--code", "parity3.yaml", "--oracle", "b.yaml"],
                   {"code": "parity3.yaml", "oracle": "b.yaml", "lo": -20, "hi": 20}),
    "code verify": (["--code", "parity3.yaml", "--source", "b.yaml"],
                    {"code": "parity3.yaml", "source": "b.yaml", "target": None,
                     "separation": False, "window": 1000, "depth": 6}),
    "code search": (["--target", "a.yaml", "--source", "b.yaml"],
                    {"target": "a.yaml", "source": "b.yaml", "max_span": 3, "depth": 6,
                     "window": 1000}),
    "code patterns": (["--a", "a.yaml", "--b", "b.yaml", "--shifts", "0,1", "--k", "1"],
                      {"a": "a.yaml", "b": "b.yaml", "shifts": "0,1", "k": 1, "window": 1000}),
    "recur chromatic": (["--set", "cand.yaml", "--coloring", "b.yaml"],
                        {"candidates": "cand.yaml", "coloring": "b.yaml", "window": 1000}),
    "recur syndetic": (["--set", "cand.yaml", "--oracle", "b.yaml"],
                       {"candidates": "cand.yaml", "oracle": "b.yaml", "window": 1000}),
    "recur eqtech": (["--context", "z3b.yaml"],
                     {"context": "z3b.yaml", "support_bound": 8, "search_bound": None}),
}


def _params(argv, capsys):
    assert run_cli(*argv, "--json") == 0
    return json.loads(capsys.readouterr().out)["params"]


def _scenario_record(path):
    doc = parse_scenario(Path(path).read_text(encoding="utf-8"))
    return {"id": doc["id"],
            "sha256": hashlib.sha256(emit_scenario(doc).encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("row", list(COMMANDS))
def test_params_record_every_argument_of_the_row(files, capsys, row):
    assert set(ROW_SAMPLES) == set(COMMANDS)
    args, expected = ROW_SAMPLES[row]
    params = _params(row.split() + [files.get(a, a) for a in args], capsys)
    assert sorted(params) == sorted(arg.name for arg in COMMANDS[row][0])
    assert params == {k: _scenario_record(files[v]) if v in files else v
                      for k, v in expected.items()}


def test_params_digest_follows_the_scenario_values(files, tmp_path, capsys):
    argv = ["seq", "window", "--oracle", files["b.yaml"], "--lo", "0", "--hi", "3"]
    before = _params(argv, capsys)
    Path(files["b.yaml"]).write_text(B_ORACLE.replace("from: 2", "from: 4"), encoding="utf-8")
    after = _params(argv, capsys)
    assert before["oracle"]["id"] == after["oracle"]["id"] == "pinned-b"
    assert before["oracle"]["sha256"] != after["oracle"]["sha256"]
    before.pop("oracle"), after.pop("oracle")
    assert before == after == {"lo": 0, "hi": 3}


def test_readme_has_one_parsing_example_per_command():
    block = README.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("```sh")[1].split("```")[0]
    examples = [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
                if line.startswith("shiftlab ")]
    assert sorted(" ".join(argv[:2]) for argv in examples if argv[0] != "repro") \
        == sorted(COMMANDS)
    for argv in examples:
        build_parser().parse_args(argv)


# -- one walk per kind: a key fault at any level ends in the builder --------------------

PARITY_IMAGE = """\
kind: oracle
id: parity-image
code_image:
  code: {offsets: [0, 1], rule: {"00": 0, "01": 1, "10": 1, "11": 0}}
  inner:
    set: {op: inter, aps: [[0, 2]], halfline: {from: 2}}
"""
# valid documents that hold every keyed level: the top of each kind, set,
# halfline, rotation with its cells and arcs, code_image with its code and
# inner, override and a candidate element
KEY_FAULT_FIXTURES = {
    "z4": Z4_GROUP, "q8": "kind: group\nid: q\ncatalog: q8\n", "f": PERIOD_FUNCTION,
    "b": B_ORACLE, "a": A_ORACLE, "alternating": ALTERNATING, "ones-patched": ONES_PATCHED,
    "sturmian-seq": STURMIAN_ORACLE, "parity-image": PARITY_IMAGE,
    "sturmian": STURMIAN_CODING, "punctured": PUNCTURED_CODING, "parity3": PARITY3_CODE,
    "cand": CANDIDATES, "z3b": Z3B_CONTEXT,
}
# mappings whose keys are data (cell labels, rule patterns, patch positions)
FREE_KEYED = ("cells", "rule", "patch")
OPTIONAL_KEYS = {"names", "base", "aps", "halfline", "include", "exclude", "op", "arcs",
                 "points", "lo_closed", "hi_closed", "input_alphabet", "support"}
CLI_FOR_KIND = {
    "group": ["group", "analyze", "{}"],
    "function": ["system", "build", "--group", "z4.yaml", "--function", "{}"],
    "oracle": ["seq", "window", "--oracle", "{}", "--lo", "0", "--hi", "3"],
    "coding": ["rotation", "boundary", "--coding", "{}"],
    "code": ["code", "apply", "--code", "{}", "--oracle", "alternating.yaml"],
    "candidate-set": ["recur", "eqtech", "--context", "{}"],
}


def _keyed_levels(node, path=()):
    """The paths of the mappings whose keys are grammar keys."""
    if isinstance(node, dict):
        if not path or path[-1] not in FREE_KEYED:
            yield path
        for key, value in node.items():
            yield from _keyed_levels(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _keyed_levels(value, path + (i,))


@pytest.fixture(scope="module")
def key_fault_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("key-faults")
    for name in ("z4", "alternating"):
        (folder / f"{name}.yaml").write_text(KEY_FAULT_FIXTURES[name], encoding="utf-8")
    return folder


@pytest.mark.parametrize("name", list(KEY_FAULT_FIXTURES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_key_fault_at_any_level_is_a_one_line_input_error(key_fault_files, name, data):
    text = KEY_FAULT_FIXTURES[name]
    kind = parse_scenario(text)["kind"]
    builder = getattr(scenarios, "build_" + kind.replace("-", "_"))
    builder(parse_scenario(text))  # the fixture itself builds
    doc = parse_scenario(text)
    path = data.draw(st.sampled_from(list(_keyed_levels(doc))), label="level")
    level = doc
    for step in path:
        level = level[step]
    required = [k for k in level if k not in OPTIONAL_KEYS and k not in ("kind", "id")]
    if required and data.draw(st.booleans(), label="drop"):
        del level[data.draw(st.sampled_from(required), label="dropped")]
    else:
        key = data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
                        .map(lambda s: "x_" + s), label="inserted")
        level[key] = data.draw(st.none() | st.integers(-3, 3) | st.text("ab01", max_size=3))
    with pytest.raises(ScenarioError) as caught:
        builder(doc)
    path_file = key_fault_files / "faulty.yaml"
    path_file.write_text(emit_scenario(doc), encoding="utf-8")
    argv = [str(path_file) if a == "{}" else str(key_fault_files / a) if a.endswith(".yaml")
            else a for a in CLI_FOR_KIND[kind]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"input error: {path_file}: {caught.value}\n")


# -- typed values: a wrong value at any leaf ends in exit 0, 2 or 3 ----------------------

# null, true, a float, non-numbers, integer-looking strings int() refuses, containers
# where a scalar belongs, a negative and a huge integer
WRONG_VALUES = (None, True, 1.5, "x", "1/0", "--3", "²", [], {}, -1, 10**30)


def _leaves(node, path=()):
    """The paths of the scalar values below the envelope keys."""
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key not in ("kind", "id"):
                yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _typed_leaf(kind, path):
    """(type, where) of a leaf that a typed reader reads, where being the path
    its errors name, or None for an untyped leaf: a group table entry, a
    catalog name or a set op.  A periodic word names the oracle level."""
    if kind == "group":
        return ("int", "group.order") if path == ("order",) else None
    if kind == "function":
        return "symbol", "function.values"
    if kind == "candidate-set":
        if len(path) == 2:
            return "int", "candidate-set.elements"
        return "int", f"candidate-set.elements[{path[1]}].{path[2]}"
    where, steps = kind, list(path)
    while steps:
        step = steps.pop(0)
        if step in ("alpha", "base"):
            return "quadratic", f"{where}.{step}"
        if step == "cells":
            at = f"{where}.cells[{steps[0]}]"
            field = [s for s in steps if isinstance(s, str) and s != "arcs"][-1]
            return "bool" if field.endswith("_closed") else "quadratic", f"{at}.{field}"
        if step in ("aps", "include", "exclude", "offsets"):
            return "int", f"{where}.{step}"
        if step == "halfline":
            return "int", f"{where}.halfline.from"
        if step in ("rule", "patch"):
            return "symbol", f"{where}.{step}"
        if step == "periodic":
            return "word", where
        if step == "op":
            return None
        where = f"{where}.{step}"
    raise AssertionError(f"unclassified leaf {path}")


def _refuses(leaf_type, value):
    """Whether a reader of this type must refuse the value (a wrong one it may
    read as a valid value, such as -1 for an int, is left to the verdict)."""
    if leaf_type == "int":
        return type(value) is not int
    if leaf_type == "bool":
        return value is not True
    if leaf_type == "word":
        return not (isinstance(value, (str, list)) and value)
    if type(value) not in (int, str):
        return True
    return leaf_type == "quadratic" and value in ("x", "1/0", "²")


@pytest.mark.parametrize("name", list(KEY_FAULT_FIXTURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_wrong_value_at_any_leaf_is_refused_or_read(key_fault_files, name, data):
    doc = parse_scenario(KEY_FAULT_FIXTURES[name])
    kind = doc["kind"]
    *path, last = data.draw(st.sampled_from(list(_leaves(doc))), label="leaf")
    level = doc
    for step in path:
        level = level[step]
    level[last] = value = data.draw(st.sampled_from(WRONG_VALUES), label="value")
    typed = _typed_leaf(kind, (*path, last))
    refused = typed is not None and _refuses(typed[0], value)
    builder = getattr(scenarios, "build_" + kind.replace("-", "_"))
    if refused:
        # a typed leaf refuses a value of the wrong type with one line naming its path
        with pytest.raises(ScenarioError) as caught:
            builder(doc)
        assert str(caught.value).startswith(typed[1] + ": ")
    else:
        try:
            builder(doc)
        except (InputError, BoundExceeded):
            pass
    path_file = key_fault_files / "faulty.yaml"
    path_file.write_text(emit_scenario(doc), encoding="utf-8")
    argv = [str(path_file) if a == "{}" else str(key_fault_files / a) if a.endswith(".yaml")
            else a for a in CLI_FOR_KIND[kind]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if refused:
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"input error: {path_file}: {caught.value}\n")
    else:
        assert code in (0, 2, 3)
        assert err.getvalue().count("\n") <= 1


DASH_INCLUDE = 'kind: oracle\nid: dash\nset: {include: ["--3"]}\n'
DASH_VALUES = 'kind: function\nid: dash\nvalues: ["--1", 0, 1, 0]\n'


@pytest.mark.parametrize("argv,code,message", [
    # each of these ended in a ValueError traceback, or read 1_0 as 10
    (["seq", "window", "--oracle", "dash.yaml", "--lo", "0", "--hi", "3"], 2,
     "input error: {dash.yaml}: oracle.set.include: expected an integer, got '--3'"),
    (["system", "build", "--group", "z4.yaml", "--function", "dash-f.yaml"], 0, ""),
    (["seq", "occur", "--oracle", "b.yaml", "--symbols=--1", "--offsets", "0", "--lo", "0",
      "--hi", "9"], 2, "input error: word symbols ['--1'] are outside the oracle alphabet"),
    (["code", "patterns", "--a", "a.yaml", "--b", "b.yaml", "--shifts=1_0", "--k", "1"], 2,
     "input error: expected comma-separated integers, got '1_0'"),
    (["code", "apply", "--code", "x-offset.yaml", "--oracle", "b.yaml"], 2,
     "input error: {x-offset.yaml}: code.offsets: expected an integer, got 'x'"),
    (["code", "apply", "--code", "true-offset.yaml", "--oracle", "b.yaml"], 2,
     "input error: {true-offset.yaml}: code.offsets: expected an integer, got True"),
    (["seq", "window", "--oracle", "x-patch.yaml", "--lo", "0", "--hi", "3"], 2,
     "input error: {x-patch.yaml}: oracle.override.patch: expected an integer, got 'x'"),
    (["seq", "window", "--oracle", "nested-ap.yaml", "--lo", "0", "--hi", "3"], 2,
     "input error: {nested-ap.yaml}: oracle.code_image.inner.set.aps: expected an integer, "
     "got 'a'"),
    # "false" used to read as closed
    (["rotation", "boundary", "--coding", "str-closed.yaml"], 2,
     "input error: {str-closed.yaml}: coding.cells[1].lo_closed: expected true or false, "
     "got 'false'"),
], ids=["dash-include", "dash-symbol", "dash-word", "underscore-shift", "x-offset",
        "true-offset", "x-patch", "nested-path", "string-flag"])
def test_integer_strings_and_flags_are_read_strictly(files, tmp_path, argv, code, message):
    for name, text in (("dash.yaml", DASH_INCLUDE), ("dash-f.yaml", DASH_VALUES),
                       ("x-offset.yaml", PARITY3_CODE.replace("[0, 1, 2]", "[0, x, 2]")),
                       ("true-offset.yaml", PARITY3_CODE.replace("[0, 1, 2]", "[0, true, 2]")),
                       ("x-patch.yaml", ONES_PATCHED.replace("{100: 0}", "{x: 0}")),
                       ("nested-ap.yaml", PARITY_IMAGE.replace("[[0, 2]]", "[[a, 2]]")),
                       ("str-closed.yaml",
                        STURMIAN_CODING.replace("lo_closed: false", 'lo_closed: "false"'))):
        files[name] = str(tmp_path / name)
        Path(files[name]).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main([files.get(a, a) for a in argv]) == code
    for name, path in files.items():
        message = message.replace("{" + name + "}", path)
    assert err.getvalue() == (message + "\n" if message else "")


@pytest.mark.parametrize("name,text,argv,message", [
    ("null-alpha.yaml", STURMIAN_CODING.replace("alpha: sqrt(5)-2", "alpha: null"),
     ["rotation", "boundary", "--coding", "{}"],
     "coding.alpha: expected a quadratic expression, got None"),
    ("float-lo.yaml", STURMIAN_CODING.replace("lo: 2*alpha", "lo: 0.5"),
     ["rotation", "boundary", "--coding", "{}"],
     "coding.cells[1].lo: expected a quadratic expression, got 0.5"),
    ("list-value.yaml", PERIOD_FUNCTION.replace("[0, 1, 0, 1]", "[[], 1, 0, 1]"),
     ["system", "build", "--group", "z4.yaml", "--function", "{}", "--dump"],
     "function.values: expected an int or a string symbol, got []"),
    ("float-value.yaml", PERIOD_FUNCTION.replace("[0, 1, 0, 1]", "[0, 1.5, 0, 1]"),
     ["system", "build", "--group", "z4.yaml", "--function", "{}"],
     "function.values: expected an int or a string symbol, got 1.5"),
    ("order-7.yaml", Z4_GROUP.replace("order: 4", "order: 7"), ["group", "analyze", "{}"],
     "group.order: 7 does not match the 4 table rows"),
    ("order-text.yaml", Z4_GROUP.replace("order: 4", 'order: "1/0"'), ["group", "analyze", "{}"],
     "group.order: expected an integer, got '1/0'"),
    ("int-alphabet.yaml", PARITY3_CODE + "input_alphabet: 5\n",
     ["code", "apply", "--code", "{}", "--oracle", "b.yaml"],
     "code.input_alphabet: expected a list of symbols, got 5"),
], ids=["null-alpha", "float-lo", "list-value", "float-value", "order-7", "order-text",
        "int-alphabet"])
def test_symbols_quadratics_and_order_are_read_with_their_path(files, tmp_path, name, text,
                                                               argv, message):
    # each of these exited 0, named no path, or (int-alphabet) ended in a traceback
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main([str(path) if a == "{}" else files.get(a, a) for a in argv]) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"input error: {path}: {message}\n")
