"""Command-line front end: one row of ``COMMANDS`` per subcommand.

A row is a subcommand's name, its arguments and one runner.  An argument is
a flag, a kind (``int``, ``str``, a tuple of choices, ``bool`` for an on/off
flag, or a scenario kind such as ``"oracle"``) and a default or
``REQUIRED``.  ``build_parser`` declares the flags from the rows, and
``dispatch`` loads each scenario argument through ``_load``, records the
inputs as the report's ``params`` and builds the report.  A runner returns
the verdict, the text lines and one caveat per verdict part; the report's
caveat is the weakest of them (exact < windowed < search-exhausted).  The
table holds no library or builder function, so rebinding a name in this
module or in ``scenarios`` reaches every call.  ``repro`` is handled apart.

Exit codes: 0 when a verdict was produced (whatever the verdict says,
and also when the reader closed stdout early), 2 on input errors (an
``--out`` directory that cannot be written among them), 3 when a bound
was exceeded, 4 when an internal re-check of a result failed.  A failure
is one stderr line, and a closed stderr does not change its code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

try:  # the built-in module first, as random does: hashlib maps OpenSSL (+3.6 MB RSS)
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from ..codes import (
    apply_code,
    intersection_pattern_check,
    search_isomorphism_code,
    verify_generalized_projection,
    verify_realization,
)
from ..errors import BoundExceeded, InputError, VerificationFailedError
from ..recurrence import chromatic_recurrence_check, eqtech_search, reverify_eqtech, \
    syndetic_return_check
from ..rotation import boundary_hits, classify_minimality, classify_word, \
    strongly_dyn_syndetic
from ..systems import MODES, build_orbit_system, equivariant_isomorphism, is_furstenberg_system_of
from ..zshift import WordPattern, occurrences, uniform_recurrence_certificate
from . import scenarios
from .reports import Report, weakest
from .repro import repro_registry, run_repro

REQUIRED = object()


class Arg(NamedTuple):
    """One argument of a command row: its flag, its kind and its default."""

    flag: str
    kind: object
    default: object = REQUIRED
    dest: str | None = None
    help: str | None = None

    @property
    def name(self) -> str:
        return self.dest or self.flag.lstrip("-").replace("-", "_")


def _int_list(text):
    parts = [x for x in str(text).split(",") if x != ""]
    if not all(map(scenarios._is_int_text, parts)):
        raise InputError(f"expected comma-separated integers, got {text!r}")
    return [int(x) for x in parts]


def _word(a):
    symbols = tuple(scenarios._symbol(x, "--symbols") for x in str(a.symbols).split(",")
                    if x != "")
    return WordPattern(tuple(_int_list(a.offsets)), symbols)


def _load(path, kind):
    """The object a ``kind`` scenario file describes, and its params record."""
    try:
        doc = scenarios.load_scenario(path)
    except (OSError, UnicodeDecodeError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    if doc["kind"] != kind:
        raise InputError(f"{path}: expected a {kind} scenario, got {doc['kind']}")
    try:
        built = getattr(scenarios, "build_" + kind.replace("-", "_"))(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    digest = sha256(scenarios.emit_scenario(doc).encode("utf-8")).hexdigest()
    return built, {"id": doc["id"], "sha256": digest}


# -- runners: (verdict, text lines, one caveat per verdict part) ------------------

def _group_analyze(a):
    G = a.file
    subs = G.subgroups()
    ded = G.is_dedekind()
    verdict = {"order": G.order, "identity": G.identity, "abelian": G.is_abelian(),
               "subgroups": [list(s) for s in subs], "dedekind": ded.dedekind}
    lines = [f"valid group of order {G.order}, identity {G.identity}",
             f"{len(subs)} subgroups; dedekind: {ded.dedekind}"]
    if not ded.dedekind:
        H, x, y = ded.witness
        verdict["witness"] = {"subgroup": list(H), "a": x, "b": y}
        lines.append(f"non-normal subgroup {list(H)} with a={x}, b={y}")
    return verdict, lines, ["exact"]


def _system_build(a):
    system = build_orbit_system(a.group, a.function, a.mode)
    verdict = {"mode": a.mode, "points": len(system.points),
               "base": system.base, "action_kind": system.action_kind}
    lines = [f"orbit system with {len(system.points)} points (mode {a.mode})"]
    if a.dump:
        verdict["dump"] = system.dump()
        lines.append(system.dump())
    return verdict, lines, ["exact"]


def _system_iso(a):
    left = build_orbit_system(a.group, a.function, a.left_mode)
    right = build_orbit_system(a.group, a.function if a.function2 is None else a.function2,
                               a.right_mode)
    mapping = equivariant_isomorphism(left, right)
    verdict = {"isomorphic": mapping is not None,
               "left_points": len(left.points), "right_points": len(right.points)}
    if mapping is not None:
        verdict["bijection"] = mapping
    lines = [f"{a.left_mode} vs {a.right_mode}: "
             f"{'isomorphic' if mapping is not None else 'no equivariant bijection'}"]
    return verdict, lines, ["exact"]


def _system_furstenberg(a):
    system = build_orbit_system(a.group, a.function, a.mode)
    res = is_furstenberg_system_of(system, a.function if a.query is None else a.query)
    verdict = {"accepted": res.accepted, "mode": a.mode}
    if res.accepted:
        verdict["base"] = res.base
        verdict["observable"] = res.observable
    else:
        verdict["reasons"] = res.reasons
    return verdict, [f"furstenberg system of the query: {res.accepted}"], ["exact"]


def _rotation_classify(a):
    scope = "colouring" if a.scope == "whole-colouring" else a.scope
    if scope not in ("set", "colouring"):
        scope = scenarios._symbol(scope, "--scope")
        if scope not in a.coding.cells:
            raise InputError(f"label {scope!r} is not a cell of the coding")
    res = classify_minimality(a.coding, scope=scope)
    verdict = {"minimal": res.minimal, "scope": str(a.scope),
               "boundary_hits": [[n, str(p), labels] for n, p, labels in res.hits],
               "resonance_bound": res.resonance_bound}
    lines = [f"minimality ({a.scope}): {'Minimal' if res.minimal else 'NotMinimal'}"]
    if not res.minimal:
        verdict["witness"] = res.witness.describe()
        verdict["occurrences"] = res.occurrences
        verdict["locus"] = res.locus.describe()
        lines.append(f"witness word {res.witness} occurs at {res.occurrences}")
    if res.per_label is not None:
        verdict["per_colour"] = {str(k): v.minimal for k, v in res.per_label.items()}
        lines.append("per-colour: " + ", ".join(
            f"{k}:{'Minimal' if v.minimal else 'NotMinimal'}"
            for k, v in res.per_label.items()))
    return verdict, lines, ["exact"]


def _rotation_word(a):
    word = _word(a)
    res = classify_word(a.coding, word)
    verdict = {"word": word.describe(), "kind": res.kind, "locus": res.locus.describe()}
    if res.occurrences is not None:
        verdict["occurrences"] = res.occurrences
    lines = [f"word {word}: {res.kind}"
             + (f" at {res.occurrences}" if res.kind == "finite" else "")]
    return verdict, lines, ["exact"]


def _rotation_boundary(a):
    hits = boundary_hits(a.coding)
    verdict = {"hits": [[n, str(p), labels] for n, p, labels in hits],
               "strongly_dynamically_syndetic": {
                   str(l): strongly_dyn_syndetic(a.coding, l).strongly
                   for l in a.coding.labels()}}
    lines = [f"{len(hits)} boundary hits"] + [
        f"  n={n}: point {p} between cells {labels}" for n, p, labels in hits]
    return verdict, lines, ["exact"]


def _seq_window(a):
    values = a.oracle.window(a.lo, a.hi)
    return {"lo": a.lo, "hi": a.hi, "values": values}, ["".join(map(str, values))], ["exact"]


def _seq_occur(a):
    word = _word(a)
    occ = occurrences(a.oracle, word, a.lo, a.hi)
    verdict = {"word": word.describe(), "lo": a.lo, "hi": a.hi, "positions": occ}
    lines = [f"{len(occ)} occurrences: {occ[:20]}" + (" ..." if len(occ) > 20 else "")]
    return verdict, lines, ["windowed"]


def _seq_recur(a):
    cert = uniform_recurrence_certificate(a.oracle, a.max_len, a.window, a.gap_bound)
    lines = [f"certificate: {cert.verdict}"]
    if cert.verdict == "verified":
        lines.append(f"g* = {cert.g_star}")
    elif cert.word is not None:
        lines.append(f"word {cert.word} violates the gap bound")
    return cert.describe(), lines, ["exact" if cert.exact else "windowed"]


def _code_apply(a):
    values = apply_code(a.code, a.oracle).window(a.lo, a.hi)
    return {"lo": a.lo, "hi": a.hi, "values": values}, ["".join(map(str, values))], ["exact"]


def _code_verify(a):
    verdict, lines, caveats = {}, [], []
    if a.target is not None:
        real = verify_realization(a.code, a.source, a.target, a.window)
        verdict["realization"] = real.describe()
        lines.append(f"realization on [-{a.window}, {a.window}]: "
                     f"{'agrees' if real.agrees else 'mismatch'}")
        caveats.append("windowed")
    if a.separation or a.target is None:
        proj = verify_generalized_projection(a.code, a.source, a.depth, a.window)
        verdict["projection"] = proj.describe()
        lines.append(f"generalized projection at depth {a.depth}: "
                     f"{'separates' if proj.separates else 'fails to separate'}")
        caveats.append("exact" if not proj.separates and proj.exact else "windowed")
    return verdict, lines, caveats


def _code_search(a):
    res = search_isomorphism_code(a.target, a.source, a.max_span, a.depth, a.window)
    lines = ["certificate found" if res.found else "search exhausted"]
    if res.found:
        lines.append(f"offsets {res.code.offsets}, shift {res.shift}")
        lines.append("this is a desk-scale certificate, not a proof over all of Z")
    return res.describe(), lines, ["windowed" if res.found else "search-exhausted"]


def _code_patterns(a):
    res = intersection_pattern_check(a.a, a.b, _int_list(a.shifts), a.k, a.window)
    lines = [f"intersection patterns: {'equivalent' if res.equivalent else 'distinguished'}"]
    if res.witness:
        lines.append(f"witness tuple: {res.witness}")
    return res.describe(), lines, ["exact" if res.exact else "windowed"]


def _recurrence(check, candidates, events, window):
    if isinstance(candidates, list):
        raise InputError("chromatic/syndetic checks need integer candidate sets")
    res = check(candidates, events, window)
    lines = [f"{'found' if res.found else 'not found in window'}"]
    if res.found:
        lines.append(f"g = {res.g}, h = {res.h}"
                     + (f", colour = {res.colour}" if res.colour is not None else ""))
    return res.describe(), lines, ["exact" if res.found or res.exact else "windowed"]


def _recur_chromatic(a):
    return _recurrence(chromatic_recurrence_check, a.candidates, a.coloring, a.window)


def _recur_syndetic(a):
    return _recurrence(syndetic_return_check, a.candidates, a.oracle, a.window)


def _recur_eqtech(a):
    S = a.context
    if not isinstance(S, list):
        raise InputError("eqtech needs z3b elements ({r, support} mappings)")
    res = eqtech_search(S, a.support_bound, a.search_bound)
    verdict = res.describe()
    lines = [f"eqtech search: {'found' if res.found else 'exhausted'}"]
    if res.found:
        verdict["reverified"] = reverify_eqtech(res, S)
        lines.append(f"c = {res.c}, x = {res.x}")
    return verdict, lines, ["exact" if res.found else "search-exhausted"]


FAMILIES = {"group": "finite group analysis", "system": "finite orbit systems",
            "rotation": "rotation coding analysis", "seq": "sequence oracles over Z",
            "code": "sliding block codes", "recur": "recurrence checks"}

SYSTEM = (Arg("--group", "group"), Arg("--function", "function"))
CANDIDATES = Arg("--set", "candidate-set", dest="candidates")

COMMANDS = {
    "group analyze": ((Arg("file", "group"),), _group_analyze),
    "system build": (SYSTEM + (Arg("--mode", MODES, "R"), Arg("--dump", bool, False)),
                     _system_build),
    "system iso": (SYSTEM + (Arg("--left-mode", MODES, "R"), Arg("--right-mode", MODES, "Ltilde"),
                             Arg("--function2", "function", None)), _system_iso),
    "system furstenberg": (SYSTEM + (Arg("--mode", MODES, "Ltilde"),
                                     Arg("--query", "function", None)), _system_furstenberg),
    "rotation classify": ((Arg("--coding", "coding"),
                           Arg("--scope", str, "set",
                               help="'set', 'colouring', or a single cell label")),
                          _rotation_classify),
    "rotation word": ((Arg("--coding", "coding"), Arg("--symbols", str),
                       Arg("--offsets", str)), _rotation_word),
    "rotation boundary": ((Arg("--coding", "coding"),), _rotation_boundary),
    "seq window": ((Arg("--oracle", "oracle"), Arg("--lo", int), Arg("--hi", int)),
                   _seq_window),
    "seq occur": ((Arg("--oracle", "oracle"), Arg("--symbols", str), Arg("--offsets", str),
                   Arg("--lo", int), Arg("--hi", int)), _seq_occur),
    "seq recur": ((Arg("--oracle", "oracle"), Arg("--max-len", int, 8),
                   Arg("--window", int, 1000), Arg("--gap-bound", int, None)), _seq_recur),
    "code apply": ((Arg("--code", "code"), Arg("--oracle", "oracle"), Arg("--lo", int, -20),
                    Arg("--hi", int, 20)), _code_apply),
    "code verify": ((Arg("--code", "code"), Arg("--source", "oracle"),
                     Arg("--target", "oracle", None), Arg("--separation", bool, False),
                     Arg("--window", int, 1000), Arg("--depth", int, 6)), _code_verify),
    "code search": ((Arg("--target", "oracle"), Arg("--source", "oracle"),
                     Arg("--max-span", int, 3), Arg("--depth", int, 6),
                     Arg("--window", int, 1000)), _code_search),
    "code patterns": ((Arg("--a", "oracle"), Arg("--b", "oracle"), Arg("--shifts", str),
                       Arg("--k", int), Arg("--window", int, 1000)), _code_patterns),
    "recur chromatic": ((CANDIDATES, Arg("--coloring", "oracle"), Arg("--window", int, 1000)),
                        _recur_chromatic),
    "recur syndetic": ((CANDIDATES, Arg("--oracle", "oracle"), Arg("--window", int, 1000)),
                       _recur_syndetic),
    "recur eqtech": ((Arg("--context", "candidate-set"), Arg("--support-bound", int, 8),
                      Arg("--search-bound", int, None)), _recur_eqtech),
}


def _add_argument(parser, arg):
    if arg.kind is bool:
        return parser.add_argument(arg.flag, action="store_true")
    options = {"help": arg.help}
    if isinstance(arg.kind, tuple):
        options["choices"] = arg.kind
    else:
        options["type"] = Path if isinstance(arg.kind, str) else arg.kind
    if arg.flag.startswith("-"):
        required = arg.default is REQUIRED
        options.update(dest=arg.name, required=required, default=None if required else arg.default)
    return parser.add_argument(arg.flag, **options)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit the structured report")
    common.add_argument("--out", type=Path, help="directory for report files")
    p = argparse.ArgumentParser(prog="shiftlab", parents=[common],
                                description="exact symbolic dynamics workbench")
    p.set_defaults(json=False, out=None)
    sub = p.add_subparsers(dest="command", required=True)
    families = {family: sub.add_parser(family, help=text).add_subparsers(
        dest="subcommand", required=True) for family, text in FAMILIES.items()}
    for name, (arguments, _) in COMMANDS.items():
        family, leaf = name.split()
        leaf_parser = families[family].add_parser(leaf, parents=[common])
        for arg in arguments:
            _add_argument(leaf_parser, arg)
    rp = sub.add_parser("repro", parents=[common], help="reproduce a registered fixture")
    rp.add_argument("fixture", nargs="?", help="fixture id; omit with --list")
    rp.add_argument("--list", action="store_true")
    return p


def dispatch(args) -> Report:
    if args.command == "repro":
        if args.list or args.fixture is None:
            ids = repro_registry()
            return Report("repro list", {"fixtures": ids}, "exact",
                          lines=[f"{len(ids)} fixtures:"] + [f"  {i}" for i in ids])
        return run_repro(args.fixture)
    name = f"{args.command} {args.subcommand}"
    arguments, runner = COMMANDS[name]
    inputs, params = {}, {}
    for arg in arguments:
        value = getattr(args, arg.name)
        if isinstance(arg.kind, str) and value is not None:
            value, params[arg.name] = _load(value, arg.kind)
        else:
            params[arg.name] = value
        inputs[arg.name] = value
    verdict, lines, caveats = runner(argparse.Namespace(**inputs))
    return Report(name, verdict, weakest(caveats), params=params, lines=lines)


def _write(stream, text):
    """Print a line to stream.  A reader that has closed it, as `| head`
    does, ends nothing in a traceback: the stream is pointed at devnull, so
    that the flush at exit cannot raise again (the SIGPIPE note in the
    Python signal docs), and the exit code stays the one the run earned."""
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = dispatch(args)
    except InputError as exc:
        _write(sys.stderr, f"input error: {exc}")
        return 2
    except BoundExceeded as exc:
        _write(sys.stderr, f"bound exceeded: {exc}")
        return 3
    except VerificationFailedError as exc:
        _write(sys.stderr, f"verification failed: {exc}")
        return 4
    wall_ms = (time.perf_counter() - started) * 1000.0
    if args.out is not None:
        slug = report.command.replace(" ", "-")
        try:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{slug}.json").write_text(report.to_json(wall_ms), encoding="utf-8")
            (args.out / f"{slug}.txt").write_text(report.to_text(wall_ms), encoding="utf-8")
        except OSError as exc:
            _write(sys.stderr, f"input error: --out {args.out}: {exc}")
            return 2
    _write(sys.stdout, report.to_json(wall_ms) if args.json else report.to_text(wall_ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())
