"""The traced layers: which library callables are wrapped, and what each should move.

Every per-layer metric is ``<metric>.calls`` and ``<metric>.self_s`` for the
wrapped callables below, plus the extra counters named in ``COUNTERS``.
``MOVES`` records, before any optimisation is measured, the end-to-end
metric and workload that a change in each layer should move.
"""

from __future__ import annotations

from tracer import Target


def _count_points(result, args):
    return {"systems.points_built": len(result.points)}


def _count_rejected(result, args):
    reasons = getattr(result, "reasons", None)
    if reasons is None:
        return {"systems.furstenberg.candidates_rejected": None}
    return {"systems.furstenberg.candidates_rejected":
            sum(1 for r in reasons if r.startswith("candidate"))}


def _count_window(result, args):
    return {"zshift.window.symbols": len(result)}


def _count_orbit_symbols(result, args):
    return {"rotation.orbit_symbols.symbols": len(result)}


def _count_search(result, args):
    tried = getattr(result, "candidates_tried", None)
    return {"codes.search.candidates_tried": tried,
            "codes.search.found": int(bool(result.found)),
            "codes.search.queries": 1}


def _count_pairs(result, args):
    return {"recurrence.eqtech.pairs_tried": getattr(result, "pairs_tried", None)}


TARGETS = [
    Target("shiftlab.algebra", "frac_part", "algebra.frac_part"),
    Target("shiftlab.algebra", "solve_hit", "algebra.solve_hit"),
    Target("shiftlab.algebra", "QuadraticNumber.compare", "algebra.compare"),
    Target("shiftlab.algebra", "FiniteGroup.is_dedekind", "algebra.is_dedekind"),
    Target("shiftlab.systems", "build_orbit_system", "systems.build_orbit_system",
           _count_points),
    Target("shiftlab.systems", "FiniteSystem.satisfies_action_law",
           "systems.satisfies_action_law"),
    Target("shiftlab.systems", "equivariant_isomorphism", "systems.equivariant_isomorphism"),
    Target("shiftlab.systems", "is_furstenberg_system_of", "systems.is_furstenberg_system_of",
           _count_rejected),
    Target("shiftlab.systems", "construct_phi_R", "systems.construct_phi_R"),
    Target("shiftlab.systems", "phi_dedekind", "systems.phi_dedekind"),
    Target("shiftlab.zshift", "SequenceOracle.window.*", "zshift.window", _count_window),
    Target("shiftlab.zshift", "RotationOracle.value", "zshift.RotationOracle.value"),
    Target("shiftlab.zshift", "occurrences", "zshift.occurrences"),
    Target("shiftlab.zshift", "uniform_recurrence_certificate",
           "zshift.uniform_recurrence_certificate"),
    Target("shiftlab.rotation", "RotationCoding.orbit_symbols", "rotation.orbit_symbols",
           _count_orbit_symbols),
    Target("shiftlab.rotation", "RotationCoding.validate", "rotation.validate"),
    Target("shiftlab.rotation", "word_locus", "rotation.word_locus"),
    Target("shiftlab.rotation", "classify_word", "rotation.classify_word"),
    Target("shiftlab.rotation", "boundary_hits", "rotation.boundary_hits"),
    Target("shiftlab.rotation", "classify_minimality", "rotation.classify_minimality"),
    Target("shiftlab.codes", "search_isomorphism_code", "codes.search_isomorphism_code",
           _count_search),
    Target("shiftlab.codes", "verify_generalized_projection",
           "codes.verify_generalized_projection"),
    Target("shiftlab.codes", "verify_realization", "codes.verify_realization"),
    Target("shiftlab.codes", "intersection_pattern_check", "codes.intersection_pattern_check"),
    Target("shiftlab.recurrence", "chromatic_recurrence_check",
           "recurrence.chromatic_recurrence_check"),
    Target("shiftlab.recurrence", "syndetic_return_check", "recurrence.syndetic_return_check"),
    Target("shiftlab.recurrence", "eqtech_search", "recurrence.eqtech_search", _count_pairs),
    Target("shiftlab.cli.scenarios", "load_scenario", "cli.load_scenario"),
    Target("shiftlab.cli.scenarios", "build_group", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_function", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_oracle", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_coding", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_coding_payload", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_code", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_code_payload", "cli.scenarios.build"),
    Target("shiftlab.cli.scenarios", "build_candidate_set", "cli.scenarios.build"),
    Target("shiftlab.cli.main", "dispatch", "cli.dispatch"),
    Target("shiftlab.cli.reports", "Report.to_json", "cli.to_json"),
]

COUNTERS = [
    "systems.points_built",
    "systems.furstenberg.candidates_rejected",
    "zshift.window.symbols",
    "rotation.orbit_symbols.symbols",
    "codes.search.candidates_tried",
    "recurrence.eqtech.pairs_tried",
]

# Metrics the traced run derives rather than counts: shares and the overhead
# of tracing itself (traced against untraced verdicts per second).
DERIVED = {
    "codes.search.found_share": "share",
    "zshift.value_read_share": "share",
    "cli.import_s": "s",
    "trace.untraced_verdicts_per_s": "1/s",
    "trace.traced_verdicts_per_s": "1/s",
    "trace.overhead_share": "share",
    "trace.self_share": "share",
}

MOVES = {
    "algebra.frac_part": ("verdicts_per_s", "rotation-exact"),
    "algebra.solve_hit": ("verdicts_per_s", "rotation-exact"),
    "algebra.compare": ("verdicts_per_s", "rotation-exact"),
    "algebra.is_dedekind": ("verdicts_per_s", "group-orbit"),
    "systems.build_orbit_system": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "systems.satisfies_action_law": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "systems.equivariant_isomorphism": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "systems.is_furstenberg_system_of": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "systems.construct_phi_R": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "systems.phi_dedekind": ("verdicts_per_s, verdict_p90_ms", "group-orbit"),
    "zshift.window": ("verdicts_per_s", "zseq-scan"),
    "zshift.RotationOracle.value": ("verdict_p90_ms", "rotation-exact"),
    "zshift.occurrences": ("verdicts_per_s", "zseq-scan"),
    "zshift.uniform_recurrence_certificate": ("verdicts_per_s", "zseq-scan"),
    "rotation.orbit_symbols": ("verdicts_per_s", "zseq-scan"),
    "rotation.validate": ("setup_s", "rotation-exact"),
    "rotation.word_locus": ("verdict_p50_ms", "rotation-exact"),
    "rotation.classify_word": ("verdict_p50_ms", "rotation-exact"),
    "rotation.boundary_hits": ("verdict_p50_ms", "rotation-exact"),
    "rotation.classify_minimality": ("verdict_p50_ms", "rotation-exact"),
    "codes.search_isomorphism_code": ("verdicts_per_s", "zseq-scan"),
    "codes.verify_generalized_projection": ("verdicts_per_s", "zseq-scan"),
    "codes.verify_realization": ("verdicts_per_s", "zseq-scan"),
    "codes.intersection_pattern_check": ("verdicts_per_s", "zseq-scan"),
    "recurrence.chromatic_recurrence_check": ("verdict_p90_ms", "rotation-exact"),
    "recurrence.syndetic_return_check": ("verdict_p90_ms", "rotation-exact"),
    "recurrence.eqtech_search": ("verdicts_per_s", "group-orbit"),
    "cli.load_scenario": ("verdict_p50_ms, setup_s", "cli-cold"),
    "cli.scenarios.build": ("verdict_p50_ms, setup_s", "cli-cold"),
    "cli.dispatch": ("verdict_p50_ms, setup_s", "cli-cold"),
    "cli.to_json": ("verdict_p50_ms, setup_s", "cli-cold"),
    "cli.import_s": ("verdict_p50_ms, setup_s", "cli-cold"),
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for target in TARGETS:
        units[f"{target.metric}.calls"] = "count"
        units[f"{target.metric}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units.update(DERIVED)
    return units
