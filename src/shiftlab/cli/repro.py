"""The fixture reproduction registry.

Each id rebuilds one worked example end to end and reports its pinned
verdicts; golden copies of the structured reports live in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from ..algebra import QuadraticNumber, Z3B_IDENTITY, catalog, cyclic_group, z3b
from ..codes import (
    intersection_pattern_check,
    parity_code,
    search_isomorphism_code,
    verify_generalized_projection,
    verify_realization,
    windowed_orbit_representatives,
)
from ..errors import UnknownIdError
from ..recurrence import eqtech_search, reverify_eqtech
from ..rotation import (
    Arc,
    CircleIntervalSet,
    RotationCoding,
    boundary_hits,
    classify_minimality,
    classify_word,
    strongly_dyn_syndetic,
)
from ..systems import (
    build_orbit_system,
    dedekind_witness_function,
    equivariant_isomorphism,
    is_furstenberg_system_of,
    phi_dedekind,
    set_partitions,
)
from ..zshift import (
    PeriodicOracle,
    RotationOracle,
    SetOracle,
    WordPattern,
    uniform_recurrence_certificate,
)
from .reports import Report

ALPHA = QuadraticNumber(-2, 1, 5)  # sqrt(5) - 2, the default quadratic angle

PINNED_A = SetOracle(aps=[(1, 2)], halfline=1, include=[0], op="inter")
PINNED_B = SetOracle(aps=[(0, 2)], halfline=2, op="inter")
STEP_FROM_ONE = SetOracle(halfline=1)
STEP = SetOracle(halfline=0)
ZERO = SetOracle()


def sturmian_coding() -> RotationCoding:
    inside = CircleIntervalSet([Arc(ALPHA, True, 2 * ALPHA, True)])
    return RotationCoding(ALPHA, {0: inside, 1: inside.complement()}, name="sturmian-A")


def third_interval_coding() -> RotationCoding:
    one = CircleIntervalSet([Arc(QuadraticNumber(Fraction(1, 3)), False,
                                 QuadraticNumber(Fraction(2, 3)), False)])
    return RotationCoding(ALPHA, {1: one, 0: one.complement()}, name="third-interval")


def four_colouring_coding() -> RotationCoding:
    Q, F = QuadraticNumber, Fraction
    return RotationCoding(ALPHA, {
        1: CircleIntervalSet([Arc(Q(0), True, Q(F(1, 7)), False)]),
        2: CircleIntervalSet([Arc(Q(F(1, 7)), False, 2 * ALPHA, True)]),
        3: CircleIntervalSet([Arc(2 * ALPHA, False, Q(F(6, 7)), True)]),
        4: CircleIntervalSet([Arc(Q(F(6, 7)), False, Q(1), False)]),
    }, name="four-colouring")


def _repro_periodic_r() -> Report:
    rows = []
    for r in range(2, 7):
        G = cyclic_group(r)
        f = tuple(range(r))
        system = build_orbit_system(G, f, "R")
        accepted = is_furstenberg_system_of(system, f)
        reps = windowed_orbit_representatives(PeriodicOracle(f), depth=r, radius=1000)
        rows.append({"r": r, "finite_points": len(system.points),
                     "furstenberg": accepted.accepted, "windowed_points": len(reps)})
    ok = all(row["finite_points"] == row["r"] == row["windowed_points"]
             and row["furstenberg"] for row in rows)
    return Report(
        command="repro periodic-r",
        verdict={"rows": rows, "all_match": ok},
        caveat="exact",
        params={"radius": 1000},
        lines=[f"r={row['r']}: {row['finite_points']} points, furstenberg="
               f"{row['furstenberg']}, windowed={row['windowed_points']}" for row in rows],
    )


def _repro_parity_iso() -> Report:
    code = parity_code((0, 1, 2))
    realization = verify_realization(code, PINNED_B, PINNED_A, 10**4)
    projection = verify_generalized_projection(code, PINNED_B, 6, 10**3)
    search = search_isomorphism_code(PINNED_A, PINNED_B, 3, 6, 10**3)
    verdict = {
        "parity3_realizes": realization.describe(),
        "parity3_separates": projection.describe(),
        "search": search.describe(),
    }
    lines = [
        f"parity-3 image agrees with the target on [-10^4, 10^4]: {realization.agrees}",
        f"parity-3 is a generalized projection at depth 6: {projection.separates}",
        f"search found a certificate: {search.found} "
        f"(offsets {search.code.offsets if search.found else None}, shift {search.shift})",
    ]
    return Report("repro parity-iso", verdict, "windowed",
                  params={"max_span": 3, "depth": 6, "radius": 1000}, lines=lines)


def _repro_parity_nonsep() -> Report:
    code = parity_code((0, 1))
    realization = verify_realization(code, PINNED_B, STEP_FROM_ONE, 10**4)
    projection = verify_generalized_projection(code, PINNED_B, 6, 10**3)
    verdict = {
        "parity2_realizes": realization.describe(),
        "parity2_projection": projection.describe(),
    }
    lines = [
        f"parity-2 image agrees with the step target on [-10^4, 10^4]: {realization.agrees}",
        f"parity-2 separates the orbit closure: {projection.separates} "
        f"(exact: {projection.exact})",
        "failing pair: the two period-2 limit words",
    ]
    return Report("repro parity-nonsep", verdict, "exact",
                  params={"depth": 6, "radius": 1000}, lines=lines)


def _repro_step_vs_zero() -> Report:
    search = search_isomorphism_code(STEP, ZERO, 3, 6, 10**3)
    patterns = intersection_pattern_check(STEP, ZERO, [0], 1, 100)
    verdict = {"search": search.describe(), "patterns": patterns.describe()}
    lines = [
        f"code search up to span 3: {'found' if search.found else 'exhausted'}",
        f"intersection patterns at arity 1: "
        f"{'equivalent' if patterns.equivalent else 'distinguished'} "
        f"(exact: {patterns.exact})",
    ]
    return Report("repro step-vs-zero", verdict, "exact",
                  params={"max_span": 3, "depth": 6, "radius": 1000}, lines=lines)


def _repro_sturmian_00() -> Report:
    coding = sturmian_coding()
    word = WordPattern((0, 1), (0, 0))
    wc = classify_word(coding, word)
    minimality = classify_minimality(coding)
    cert = uniform_recurrence_certificate(RotationOracle(coding), 3, 10**4)
    verdict = {
        "word": word.describe(),
        "word_class": {"kind": wc.kind, "occurrences": wc.occurrences,
                       "locus": wc.locus.describe()},
        "minimality": {"minimal": minimality.minimal,
                       "witness": minimality.witness.describe(),
                       "occurrences": minimality.occurrences},
        "certificate": cert.describe(),
    }
    lines = [
        f"word 00 classifies {wc.kind} with occurrences {wc.occurrences}",
        f"minimality: {'Minimal' if minimality.minimal else 'NotMinimal'} "
        f"(witness {minimality.witness}, occurrences {minimality.occurrences})",
        f"recurrence certificate: {cert.verdict} (exact: {cert.exact})",
    ]
    return Report("repro sturmian-00", verdict, "exact",
                  params={"alpha": str(ALPHA)}, lines=lines)


def _repro_third_interval() -> Report:
    coding = third_interval_coding()
    hits = boundary_hits(coding)
    sds = strongly_dyn_syndetic(coding, 1)
    minimality = classify_minimality(coding)
    cert = uniform_recurrence_certificate(RotationOracle(coding), 8, 10**4)
    verdict = {
        "boundary_hits": [[n, str(p), labels] for n, p, labels in hits],
        "strongly_dynamically_syndetic": sds.strongly,
        "minimal": minimality.minimal,
        "certificate": cert.describe(),
    }
    lines = [
        f"boundary hits: {len(hits)}",
        f"strongly dynamically syndetic: {sds.strongly}",
        f"minimality: {'Minimal' if minimality.minimal else 'NotMinimal'}",
        f"recurrence certificate: {cert.verdict} (g* = {cert.g_star})",
    ]
    return Report("repro third-interval-minimal", verdict, "exact",
                  params={"alpha": str(ALPHA)}, lines=lines)


def _repro_four_coloring() -> Report:
    coding = four_colouring_coding()
    res = classify_minimality(coding, scope="colouring")
    verdict = {
        "colouring": {"minimal": res.minimal,
                      "witness": res.witness.describe(),
                      "occurrences": res.occurrences,
                      "locus": res.locus.describe()},
        "per_colour": {str(label): sub.minimal for label, sub in res.per_label.items()},
    }
    lines = [
        f"colouring minimal: {res.minimal} (witness {res.witness}, "
        f"occurrences {res.occurrences})",
        "per-colour verdicts: " + ", ".join(
            f"{label}:{'Minimal' if sub.minimal else 'NotMinimal'}"
            for label, sub in res.per_label.items()),
    ]
    return Report("repro four-coloring", verdict, "exact",
                  params={"alpha": str(ALPHA)}, lines=lines)


def _repro_dedekind_catalog() -> Report:
    rows = []
    for name, G in catalog().items():
        ded = G.is_dedekind()
        row = {"group": name, "order": G.order, "dedekind": ded.dedekind}
        if ded.dedekind:
            checked = 0
            for f in set_partitions(G.order):
                phi_dedekind(G, f)  # raises on any verification failure
                checked += 1
            row["partitions_verified"] = checked
        else:
            f = dedekind_witness_function(G)
            left = build_orbit_system(G, f, "Ltilde")
            right = build_orbit_system(G, f, "R")
            row["witness_function"] = list(f)
            row["naive_left_is_furstenberg"] = is_furstenberg_system_of(left, f).accepted
            row["isomorphism_found"] = equivariant_isomorphism(right, left) is not None
        rows.append(row)
    ok = all(
        (row["dedekind"] and row.get("partitions_verified"))
        or (not row["dedekind"] and not row["naive_left_is_furstenberg"]
            and not row["isomorphism_found"])
        for row in rows)
    lines = []
    for row in rows:
        if row["dedekind"]:
            lines.append(f"{row['group']}: Dedekind, {row['partitions_verified']} "
                         "partitions verified")
        else:
            lines.append(f"{row['group']}: not Dedekind, witness function refutes the "
                         "naive left system")
    lines.append(f"dichotomy holds on the whole catalog: {ok}")
    return Report("repro dedekind-catalog", {"rows": rows, "dichotomy_holds": ok},
                  "exact", lines=lines)


def _repro_eqtech() -> Report:
    queries = {"identity": [Z3B_IDENTITY], "one-block": [z3b(1, {1, 2})]}
    verdict = {}
    lines = []
    for name, S in queries.items():
        res = eqtech_search(S, 8)
        verdict[name] = res.describe()
        verdict[name]["reverified"] = reverify_eqtech(res, S)
        lines.append(f"S={name}: found={res.found} c={res.c} x={res.x} "
                     f"reverified={verdict[name]['reverified']}")
    return Report("repro eqtech", verdict, "exact",
                  params={"support_bound": 8}, lines=lines)


REGISTRY = {
    "periodic-r": _repro_periodic_r,
    "parity-iso": _repro_parity_iso,
    "parity-nonsep": _repro_parity_nonsep,
    "sturmian-00": _repro_sturmian_00,
    "third-interval-minimal": _repro_third_interval,
    "four-coloring": _repro_four_coloring,
    "dedekind-catalog": _repro_dedekind_catalog,
    "eqtech": _repro_eqtech,
    "step-vs-zero": _repro_step_vs_zero,
}


def repro_registry():
    return sorted(REGISTRY)


def run_repro(fixture_id: str) -> Report:
    if fixture_id not in REGISTRY:
        raise UnknownIdError(fixture_id, repro_registry())
    return REGISTRY[fixture_id]()
