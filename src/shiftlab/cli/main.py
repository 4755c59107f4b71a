"""Command-line front end.

Exit codes: 0 when a verdict was produced (whatever the verdict says),
2 on input errors, 3 when a bound was exceeded, 4 when an internal
re-check of a result failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

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
from ..systems import build_orbit_system, equivariant_isomorphism, is_furstenberg_system_of
from ..zshift import WordPattern, occurrences, uniform_recurrence_certificate
from . import scenarios
from .reports import Report
from .repro import repro_registry, run_repro


def _int_list(text):
    return [int(x) for x in str(text).split(",") if x != ""]


def _symbol_list(text):
    return [scenarios._symbol(x) for x in str(text).split(",") if x != ""]


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", help="emit the structured report")
    common.add_argument("--out", type=Path, help="directory for report files")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    p = argparse.ArgumentParser(prog="shiftlab", parents=[common],
                                description="exact symbolic dynamics workbench")
    p.set_defaults(json=False, out=None)
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(group, name):
        return group.add_parser(name, parents=[common])

    g = sub.add_parser("group", help="finite group analysis")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    ga = leaf(gsub, "analyze")
    ga.add_argument("file", type=Path)

    s = sub.add_parser("system", help="finite orbit systems")
    ssub = s.add_subparsers(dest="subcommand", required=True)
    for name in ("build", "iso", "furstenberg"):
        sp = leaf(ssub, name)
        sp.add_argument("--group", type=Path, required=True)
        sp.add_argument("--function", type=Path, required=True)
        if name == "build":
            sp.add_argument("--mode", default="R", choices=("R", "L", "Ltilde", "anti"))
            sp.add_argument("--dump", action="store_true")
        elif name == "iso":
            sp.add_argument("--left-mode", default="R", choices=("R", "L", "Ltilde", "anti"))
            sp.add_argument("--right-mode", default="Ltilde",
                            choices=("R", "L", "Ltilde", "anti"))
            sp.add_argument("--function2", type=Path)
        else:
            sp.add_argument("--mode", default="Ltilde", choices=("R", "L", "Ltilde", "anti"))
            sp.add_argument("--query", type=Path)

    r = sub.add_parser("rotation", help="rotation coding analysis")
    rsub = r.add_subparsers(dest="subcommand", required=True)
    rc = leaf(rsub, "classify")
    rc.add_argument("--coding", type=Path, required=True)
    rc.add_argument("--scope", default="set",
                    help="'set', 'colouring', or a single cell label")
    rw = leaf(rsub, "word")
    rw.add_argument("--coding", type=Path, required=True)
    rw.add_argument("--symbols", required=True)
    rw.add_argument("--offsets", required=True)
    rb = leaf(rsub, "boundary")
    rb.add_argument("--coding", type=Path, required=True)

    q = sub.add_parser("seq", help="sequence oracles over Z")
    qsub = q.add_subparsers(dest="subcommand", required=True)
    qw = leaf(qsub, "window")
    qw.add_argument("--oracle", type=Path, required=True)
    qw.add_argument("--lo", type=int, required=True)
    qw.add_argument("--hi", type=int, required=True)
    qo = leaf(qsub, "occur")
    qo.add_argument("--oracle", type=Path, required=True)
    qo.add_argument("--symbols", required=True)
    qo.add_argument("--offsets", required=True)
    qo.add_argument("--lo", type=int, required=True)
    qo.add_argument("--hi", type=int, required=True)
    qr = leaf(qsub, "recur")
    qr.add_argument("--oracle", type=Path, required=True)
    qr.add_argument("--max-len", type=int, default=8)
    qr.add_argument("--window", type=int, default=1000)
    qr.add_argument("--gap-bound", type=int)

    c = sub.add_parser("code", help="sliding block codes")
    csub = c.add_subparsers(dest="subcommand", required=True)
    ca = leaf(csub, "apply")
    ca.add_argument("--code", type=Path, required=True)
    ca.add_argument("--oracle", type=Path, required=True)
    ca.add_argument("--lo", type=int, default=-20)
    ca.add_argument("--hi", type=int, default=20)
    cv = leaf(csub, "verify")
    cv.add_argument("--code", type=Path, required=True)
    cv.add_argument("--source", type=Path, required=True)
    cv.add_argument("--target", type=Path)
    cv.add_argument("--separation", action="store_true")
    cv.add_argument("--window", type=int, default=1000)
    cv.add_argument("--depth", type=int, default=6)
    cs = leaf(csub, "search")
    cs.add_argument("--target", type=Path, required=True)
    cs.add_argument("--source", type=Path, required=True)
    cs.add_argument("--max-span", type=int, default=3)
    cs.add_argument("--depth", type=int, default=6)
    cs.add_argument("--window", type=int, default=1000)
    cp = leaf(csub, "patterns")
    cp.add_argument("--a", type=Path, required=True)
    cp.add_argument("--b", type=Path, required=True)
    cp.add_argument("--shifts", required=True)
    cp.add_argument("--k", type=int, required=True)
    cp.add_argument("--window", type=int, default=1000)

    m = sub.add_parser("recur", help="recurrence checks")
    msub = m.add_subparsers(dest="subcommand", required=True)
    mc = leaf(msub, "chromatic")
    mc.add_argument("--set", dest="candidates", type=Path, required=True)
    mc.add_argument("--coloring", type=Path, required=True)
    mc.add_argument("--window", type=int, default=1000)
    ms = leaf(msub, "syndetic")
    ms.add_argument("--set", dest="candidates", type=Path, required=True)
    ms.add_argument("--oracle", type=Path, required=True)
    ms.add_argument("--window", type=int, default=1000)
    me = leaf(msub, "eqtech")
    me.add_argument("--context", type=Path, required=True)
    me.add_argument("--support-bound", type=int, default=8)
    me.add_argument("--search-bound", type=int)

    rp = sub.add_parser("repro", parents=[common], help="reproduce a registered fixture")
    rp.add_argument("fixture", nargs="?", help="fixture id; omit with --list")
    rp.add_argument("--list", action="store_true")
    return p


def _load(path, kind, builder):
    try:
        doc = scenarios.load_scenario(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if doc["kind"] != kind:
        raise InputError(f"{path}: expected a {kind} scenario, got {doc['kind']}")
    try:
        return builder(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _word_from_args(args):
    return WordPattern(tuple(_int_list(args.offsets)), tuple(_symbol_list(args.symbols)))


def dispatch(args) -> Report:
    if args.command == "group":
        G = _load(args.file, "group", scenarios.build_group)
        subs = G.subgroups()
        ded = G.is_dedekind()
        verdict = {
            "order": G.order, "identity": G.identity, "abelian": G.is_abelian(),
            "subgroups": [list(s) for s in subs],
            "dedekind": ded.dedekind,
        }
        lines = [f"valid group of order {G.order}, identity {G.identity}",
                 f"{len(subs)} subgroups; dedekind: {ded.dedekind}"]
        if not ded.dedekind:
            H, a, b = ded.witness
            verdict["witness"] = {"subgroup": list(H), "a": a, "b": b}
            lines.append(f"non-normal subgroup {list(H)} with a={a}, b={b}")
        return Report("group analyze", verdict, "exact", lines=lines)

    if args.command == "system":
        G = _load(args.group, "group", scenarios.build_group)
        f = _load(args.function, "function", scenarios.build_function)
        if args.subcommand == "build":
            system = build_orbit_system(G, f, args.mode)
            verdict = {"mode": args.mode, "points": len(system.points),
                       "base": system.base, "action_kind": system.action_kind}
            lines = [f"orbit system with {len(system.points)} points (mode {args.mode})"]
            if args.dump:
                verdict["dump"] = system.dump()
                lines.append(system.dump())
            return Report("system build", verdict, "exact", lines=lines)
        if args.subcommand == "iso":
            f2 = f if args.function2 is None else _load(
                args.function2, "function", scenarios.build_function)
            left = build_orbit_system(G, f, args.left_mode)
            right = build_orbit_system(G, f2, args.right_mode)
            mapping = equivariant_isomorphism(left, right)
            verdict = {"isomorphic": mapping is not None,
                       "left_points": len(left.points), "right_points": len(right.points)}
            if mapping is not None:
                verdict["bijection"] = mapping
            lines = [f"{args.left_mode} vs {args.right_mode}: "
                     f"{'isomorphic' if mapping is not None else 'no equivariant bijection'}"]
            return Report("system iso", verdict, "exact", lines=lines)
        query = f if args.query is None else _load(args.query, "function",
                                                   scenarios.build_function)
        system = build_orbit_system(G, f, args.mode)
        res = is_furstenberg_system_of(system, query)
        verdict = {"accepted": res.accepted, "mode": args.mode}
        if res.accepted:
            verdict["base"] = res.base
            verdict["observable"] = res.observable
        else:
            verdict["reasons"] = res.reasons
        lines = [f"furstenberg system of the query: {res.accepted}"]
        return Report("system furstenberg", verdict, "exact", lines=lines)

    if args.command == "rotation":
        coding = _load(args.coding, "coding", scenarios.build_coding)
        if args.subcommand == "classify":
            scope = "colouring" if args.scope == "whole-colouring" else args.scope
            if scope not in ("set", "colouring"):
                scope = scenarios._symbol(scope)
                if scope not in coding.cells:
                    raise InputError(f"label {scope!r} is not a cell of the coding")
            res = classify_minimality(coding, scope=scope)
            verdict = {"minimal": res.minimal, "scope": str(args.scope),
                       "boundary_hits": [[n, str(p), labels] for n, p, labels in res.hits],
                       "resonance_bound": res.resonance_bound}
            lines = [f"minimality ({args.scope}): "
                     f"{'Minimal' if res.minimal else 'NotMinimal'}"]
            if not res.minimal:
                verdict["witness"] = res.witness.describe()
                verdict["occurrences"] = res.occurrences
                verdict["locus"] = res.locus.describe()
                lines.append(f"witness word {res.witness} occurs at {res.occurrences}")
            if res.per_label is not None:
                verdict["per_colour"] = {str(k): v.minimal for k, v in res.per_label.items()}
                lines.append("per-colour: " + ", ".join(
                    f"{k}:{'Minimal' if v.minimal else 'NotMinimal'}"
                    for k, v in sorted(res.per_label.items(), key=lambda kv: str(kv[0]))))
            return Report("rotation classify", verdict, "exact", lines=lines)
        if args.subcommand == "word":
            word = _word_from_args(args)
            res = classify_word(coding, word)
            verdict = {"word": word.describe(), "kind": res.kind,
                       "locus": res.locus.describe()}
            if res.occurrences is not None:
                verdict["occurrences"] = res.occurrences
            lines = [f"word {word}: {res.kind}"
                     + (f" at {res.occurrences}" if res.kind == "finite" else "")]
            return Report("rotation word", verdict, "exact", lines=lines)
        hits = boundary_hits(coding)
        verdict = {"hits": [[n, str(p), labels] for n, p, labels in hits]}
        per_label = {str(l): strongly_dyn_syndetic(coding, l).strongly
                     for l in coding.labels()}
        verdict["strongly_dynamically_syndetic"] = per_label
        lines = [f"{len(hits)} boundary hits"] + [
            f"  n={n}: point {p} between cells {labels}" for n, p, labels in hits]
        return Report("rotation boundary", verdict, "exact", lines=lines)

    if args.command == "seq":
        oracle = _load(args.oracle, "oracle", scenarios.build_oracle)
        if args.subcommand == "window":
            values = oracle.window(args.lo, args.hi)
            return Report("seq window",
                          {"lo": args.lo, "hi": args.hi, "values": values},
                          "exact",
                          lines=["".join(map(str, values))])
        if args.subcommand == "occur":
            word = _word_from_args(args)
            occ = occurrences(oracle, word, args.lo, args.hi)
            return Report("seq occur",
                          {"word": word.describe(), "lo": args.lo, "hi": args.hi,
                           "positions": occ},
                          "windowed",
                          lines=[f"{len(occ)} occurrences: {occ[:20]}"
                                 + (" ..." if len(occ) > 20 else "")])
        cert = uniform_recurrence_certificate(oracle, args.max_len, args.window,
                                              args.gap_bound)
        caveat = "exact" if cert.exact else "windowed"
        lines = [f"certificate: {cert.verdict}"]
        if cert.verdict == "verified":
            lines.append(f"g* = {cert.g_star}")
        elif cert.word is not None:
            lines.append(f"word {cert.word} violates the gap bound")
        return Report("seq recur", cert.describe(), caveat, lines=lines)

    if args.command == "code":
        if args.subcommand == "apply":
            code = _load(args.code, "code", scenarios.build_code)
            oracle = _load(args.oracle, "oracle", scenarios.build_oracle)
            values = apply_code(code, oracle).window(args.lo, args.hi)
            return Report("code apply",
                          {"lo": args.lo, "hi": args.hi, "values": values},
                          "exact",
                          lines=["".join(map(str, values))])
        if args.subcommand == "verify":
            code = _load(args.code, "code", scenarios.build_code)
            source = _load(args.source, "oracle", scenarios.build_oracle)
            verdict = {}
            lines = []
            exact = True
            if args.target is not None:
                target = _load(args.target, "oracle", scenarios.build_oracle)
                real = verify_realization(code, source, target, args.window)
                verdict["realization"] = real.describe()
                lines.append(f"realization on [-{args.window}, {args.window}]: "
                             f"{'agrees' if real.agrees else 'mismatch'}")
                exact = False
            if args.separation or args.target is None:
                proj = verify_generalized_projection(code, source, args.depth, args.window)
                verdict["projection"] = proj.describe()
                lines.append(f"generalized projection at depth {args.depth}: "
                             f"{'separates' if proj.separates else 'fails to separate'}")
                exact = (not proj.separates and proj.exact)
            return Report("code verify", verdict, "exact" if exact else "windowed",
                          lines=lines)
        if args.subcommand == "search":
            target = _load(args.target, "oracle", scenarios.build_oracle)
            source = _load(args.source, "oracle", scenarios.build_oracle)
            res = search_isomorphism_code(target, source, args.max_span,
                                          args.depth, args.window)
            lines = ["certificate found" if res.found else "search exhausted"]
            if res.found:
                lines.append(f"offsets {res.code.offsets}, shift {res.shift}")
                lines.append("this is a desk-scale certificate, not a proof over all of Z")
            return Report("code search", res.describe(),
                          "windowed" if res.found else "search-exhausted", lines=lines)
        a = _load(args.a, "oracle", scenarios.build_oracle)
        b = _load(args.b, "oracle", scenarios.build_oracle)
        res = intersection_pattern_check(a, b, _int_list(args.shifts), args.k, args.window)
        lines = [f"intersection patterns: "
                 f"{'equivalent' if res.equivalent else 'distinguished'}"]
        if res.witness:
            lines.append(f"witness tuple: {res.witness}")
        return Report("code patterns", res.describe(),
                      "exact" if res.exact else "windowed", lines=lines)

    if args.command == "recur":
        if args.subcommand == "eqtech":
            S = _load(args.context, "candidate-set", scenarios.build_candidate_set)
            if not isinstance(S, list):
                raise InputError("eqtech needs z3b elements ({r, support} mappings)")
            res = eqtech_search(S, args.support_bound, args.search_bound)
            verdict = res.describe()
            if res.found:
                verdict["reverified"] = reverify_eqtech(res, S)
            lines = [f"eqtech search: {'found' if res.found else 'exhausted'}"]
            if res.found:
                lines.append(f"c = {res.c}, x = {res.x}")
            return Report("recur eqtech", verdict,
                          "exact" if res.found else "search-exhausted", lines=lines)
        R = _load(args.candidates, "candidate-set", scenarios.build_candidate_set)
        if isinstance(R, list):
            raise InputError("chromatic/syndetic checks need integer candidate sets")
        if args.subcommand == "chromatic":
            coloring = _load(args.coloring, "oracle", scenarios.build_oracle)
            res = chromatic_recurrence_check(R, coloring, args.window)
        else:
            subset = _load(args.oracle, "oracle", scenarios.build_oracle)
            res = syndetic_return_check(R, subset, args.window)
        caveat = "exact" if (res.found or res.exact) else "windowed"
        lines = [f"{'found' if res.found else 'not found in window'}"]
        if res.found:
            lines.append(f"g = {res.g}, h = {res.h}"
                         + (f", colour = {res.colour}" if res.colour is not None else ""))
        return Report(f"recur {args.subcommand}", res.describe(), caveat, lines=lines)

    if args.command == "repro":
        if args.list or args.fixture is None:
            ids = repro_registry()
            return Report("repro list", {"fixtures": ids}, "exact",
                          lines=[f"{len(ids)} fixtures:"] + [f"  {i}" for i in ids])
        return run_repro(args.fixture)

    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = dispatch(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    wall_ms = (time.perf_counter() - started) * 1000.0
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        slug = report.command.replace(" ", "-")
        (args.out / f"{slug}.json").write_text(report.to_json(wall_ms), encoding="utf-8")
        (args.out / f"{slug}.txt").write_text(report.to_text(wall_ms), encoding="utf-8")
    print(report.to_json(wall_ms) if args.json else report.to_text(wall_ms))
    return 0


if __name__ == "__main__":
    sys.exit(main())
