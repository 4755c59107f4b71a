import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.algebra import catalog
from shiftlab.codes import (
    BlockCode,
    SearchResult,
    _offset_sets,
    apply_code,
    code_from_equivariant_map,
    compose_codes,
    identity_code,
    intersection_pattern_check,
    parity_code,
    relabel_code,
    search_isomorphism_code,
    shifted_oracle,
    verify_generalized_projection,
    verify_realization,
    windowed_orbit_representatives,
)
from shiftlab.errors import AlphabetMismatchError, BoundsExceededError, InputError
from shiftlab.systems import build_orbit_system, equivariant_isomorphism
from shiftlab.zshift import OverrideOracle, PeriodicOracle, SetOracle, centered

PINNED_A = SetOracle(aps=[(1, 2)], halfline=1, include=[0], op="inter")   # {0,1,3,5,...}
PINNED_B = SetOracle(aps=[(0, 2)], halfline=2, op="inter")                # {2,4,6,...}
STEP = SetOracle(halfline=0)                                              # 1 iff n >= 0
STEP_FROM_ONE = SetOracle(halfline=1)                                     # 1 iff n >= 1
ZERO = SetOracle()
PARITY2 = parity_code((0, 1))
PARITY3 = parity_code((0, 1, 2))


# -- block codes and application --------------------------------------------------

def test_code_validation():
    with pytest.raises(InputError):
        BlockCode((), {}, (0, 1))
    with pytest.raises(InputError):
        BlockCode((0, 0), {(0, 0): 0}, (0,))
    with pytest.raises(InputError):
        BlockCode((0, 1), {(0, 0): 0}, (0, 1))  # not total


def test_code_rejects_rule_values_outside_its_output_alphabet():
    with pytest.raises(InputError, match=r"rule values \[2\] are outside the output alphabet"):
        BlockCode((0,), {(0,): 0, (1,): 2}, (0, 1), (0, 1))
    with pytest.raises(InputError):
        BlockCode((0,), {(0,): 0, (1,): 2}, (0, 1), (0, 0))

def test_identity_code_preserves_values():
    img = apply_code(identity_code((0, 1)), PINNED_B)
    assert img.window(-20, 20) == PINNED_B.window(-20, 20)


def test_parity3_carries_b_onto_a():
    img = apply_code(PARITY3, PINNED_B)
    assert img.window(-50, 50) == PINNED_A.window(-50, 50)


def test_complement_code():
    img = apply_code(relabel_code({0: 1, 1: 0}), PINNED_B)
    assert img.window(-10, 10) == [1 - v for v in PINNED_B.window(-10, 10)]


def test_alphabet_mismatch_on_apply():
    with pytest.raises(AlphabetMismatchError):
        apply_code(identity_code((0, 1)), PeriodicOracle((0, 1, 2)))


# -- realization --------------------------------------------------------------------

def test_parity3_realization_large_window():
    assert verify_realization(PARITY3, PINNED_B, PINNED_A, 10**4).agrees


def test_parity2_realization_on_remark_sets():
    assert verify_realization(PARITY2, PINNED_B, STEP_FROM_ONE, 10**4).agrees


def test_identity_mismatch_reported_at_zero():
    res = verify_realization(identity_code((0, 1)), STEP, ZERO, 10)
    assert not res.agrees
    assert res.mismatch[0] == 0 and res.mismatch == (0, 1, 0)


# -- generalized projections -----------------------------------------------------------

def test_coordinate_projection_separates():
    res = verify_generalized_projection(identity_code((0, 1)), PINNED_B, 4, 100)
    assert res.separates


def test_parity3_separates_orbit_of_b():
    res = verify_generalized_projection(PARITY3, PINNED_B, 6, 1000)
    assert res.separates


def test_parity2_fails_to_separate_with_exact_limit_pair():
    res = verify_generalized_projection(PARITY2, PINNED_B, 6, 1000)
    assert not res.separates
    assert res.exact
    w1, w2 = res.witness
    period2 = {tuple((i % 2) for i in range(13)), tuple(((i + 1) % 2) for i in range(13))}
    assert {w1, w2} == period2


def test_projection_depth_bound():
    with pytest.raises(BoundsExceededError):
        verify_generalized_projection(PARITY2, PINNED_B, 25, 1000)
    with pytest.raises(BoundsExceededError):
        verify_generalized_projection(PARITY2, PINNED_B, 6, 5)


def test_windowed_orbit_of_periodic_has_exactly_r_points():
    for r in range(2, 7):
        oracle = PeriodicOracle(tuple(range(r)))
        reps = windowed_orbit_representatives(oracle, r, 1000)
        assert len(reps) == r, r


# -- isomorphism-code search -------------------------------------------------------------

def test_search_identity_when_sequences_equal():
    res = search_isomorphism_code(PINNED_B, PINNED_B, 2, 4, 200)
    assert res.found and res.shift == 0
    assert res.code.offsets == (0,) and res.code.rule == {(0,): 0, (1,): 1}


def test_search_finds_span3_code_for_pinned_pair():
    res = search_isomorphism_code(PINNED_A, PINNED_B, 3, 6, 1000)
    assert res.found
    assert res.shift == 0 and res.code.offsets == (0, 1, 2)
    # the found code realizes a from b and separates; equals parity-3 on
    # every pattern that actually occurs in the orbit closure of b
    assert res.realization.agrees and res.projection.separates
    for pattern in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1)]:
        assert res.code.rule[pattern] == PARITY3.rule[pattern]


def test_search_step_vs_zero_exhausts():
    res = search_isomorphism_code(STEP, ZERO, 3, 6, 1000)
    assert not res.found


def test_search_span_cap_for_binary():
    with pytest.raises(BoundsExceededError):
        search_isomorphism_code(PINNED_A, PINNED_B, 5, 6, 100)


def blind_search_isomorphism_code(target, source, max_span, depth, radius) -> SearchResult:
    """Oracle: literal enumeration of every rule and shift, in the search's order."""
    in_alpha = tuple(sorted(set(source.alphabet)))
    out_alpha = tuple(sorted(set(target.alphabet)))
    tried = 0
    for offsets in _offset_sets(max_span):
        patterns = list(product(in_alpha, repeat=len(offsets)))
        for outs in product(out_alpha, repeat=len(patterns)):
            rule = dict(zip(patterns, outs))
            code = BlockCode(offsets, rule, in_alpha, out_alpha)
            for t in centered(radius):
                tried += 1
                real = verify_realization(code, shifted_oracle(source, t), target, radius)
                if not real.agrees:
                    continue
                proj = verify_generalized_projection(code, source, depth, radius)
                if not proj.separates:
                    continue
                return SearchResult(True, code=code, shift=t, realization=real,
                                    projection=proj, max_span=max_span, depth=depth,
                                    radius=radius, candidates_tried=tried)
    return SearchResult(False, max_span=max_span, depth=depth, radius=radius,
                        candidates_tried=tried)


@pytest.mark.parametrize("target,source,span,depth,radius", [
    (PeriodicOracle((0, 1)), PeriodicOracle((1, 0)), 2, 3, 12),
    (PeriodicOracle((0, 1, 1)), PeriodicOracle((0, 1, 1)), 2, 3, 12),
    (SetOracle(include=[0]), SetOracle(include=[2]), 2, 3, 8),
    (STEP, ZERO, 1, 2, 6),
    # the first hit extends only the partial rule forced at shift -4 and reads
    # a pattern that partial leaves free
    (SetOracle(include=[15]), SetOracle(include=[10]), 1, 3, 13),
])
def test_search_matches_blind_enumeration(target, source, span, depth, radius):
    fast = search_isomorphism_code(target, source, span, depth, radius)
    slow = blind_search_isomorphism_code(target, source, span, depth, radius)
    assert fast.found == slow.found
    if fast.found:
        assert fast.code.offsets == slow.code.offsets
        assert fast.code.rule == slow.code.rule
        assert fast.shift == slow.shift


def test_search_results_are_reproducible():
    first = search_isomorphism_code(PINNED_A, PINNED_B, 3, 6, 500)
    second = search_isomorphism_code(PINNED_A, PINNED_B, 3, 6, 500)
    assert first.code.rule == second.code.rule and first.shift == second.shift


# -- code algebra invariants -----------------------------------------------------------------

def test_code_commutes_with_the_shift():
    code = PARITY3
    for t in (-3, -1, 2, 5):
        left = apply_code(code, PINNED_B)
        right = apply_code(code, shifted_oracle(PINNED_B, t))
        for n in range(-20, 21):
            assert left.value(n + t) == right.value(n)


def test_composition_matches_sequential_application():
    c1 = parity_code((0, 1))
    c2 = BlockCode((0, 2), {(a, b): (a + (1 - b)) % 2 for a in (0, 1) for b in (0, 1)}, (0, 1))
    combined = compose_codes(c2, c1)
    seq = apply_code(c2, apply_code(c1, PINNED_B))
    direct = apply_code(combined, PINNED_B)
    assert seq.window(-30, 30) == direct.window(-30, 30)


# -- intersection patterns ---------------------------------------------------------------------

def test_pattern_check_equal_oracles_equivalent():
    res = intersection_pattern_check(PINNED_B, PINNED_B, [0, 1, 2], 2, 100)
    assert res.equivalent


def test_pattern_check_periodic_shift_equivalent():
    a = PeriodicOracle((0, 1))
    b = shifted_oracle(a, 1)
    res = intersection_pattern_check(a, b, [0, 1], 2, 100)
    assert res.equivalent and res.exact


def test_pattern_check_distinguishes_step_from_zero():
    res = intersection_pattern_check(STEP, ZERO, [0], 1, 100)
    assert not res.equivalent
    assert res.exact
    assert res.witness == {"shifts": [0], "values": [1],
                           "nonempty_a": True, "nonempty_b": False}


def windowed_first_mismatch(a, b, shifts, arity, radius):
    """Reference for the pattern check's window scan: the first (gs, eps) in
    canonical order whose nonemptiness on [-radius, radius] differs, found
    by a test at every position, or None."""
    shifts = sorted(set(shifts))
    lo = -radius + min(shifts)
    va, vb = a.window(lo, radius + max(shifts)), b.window(lo, radius + max(shifts))

    def nonempty(values, gs, eps):
        return any(all(values[g + h - lo] == e for g, e in zip(gs, eps))
                   for h in range(-radius, radius + 1))

    for gs in product(shifts, repeat=arity):
        for eps in product((0, 1), repeat=arity):
            na, nb = nonempty(va, gs, eps), nonempty(vb, gs, eps)
            if na != nb:
                return {"shifts": list(gs), "values": list(eps),
                        "nonempty_a": na, "nonempty_b": nb}
    return None


@pytest.mark.parametrize("a,b,shifts,arity,radius", [
    # (0, 0) with values (0, 1) asks two symbols at one position: empty for both
    (STEP, ZERO, [0, 1], 2, 20),
    # the only point of A sits at h = -radius
    (SetOracle(include=[-5]), ZERO, [0], 1, 5),
    (SetOracle(include=[7]), ZERO, [-2, 0], 2, 5),
])
def test_pattern_check_agrees_with_the_per_position_reference(a, b, shifts, arity, radius):
    res = intersection_pattern_check(a, b, shifts, arity, radius)
    assert res.witness == windowed_first_mismatch(a, b, shifts, arity, radius)


binary_sets = st.builds(
    SetOracle, st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 5)), max_size=2),
    st.none() | st.integers(-10, 10), st.lists(st.integers(-12, 12), max_size=2),
    st.lists(st.integers(-12, 12), max_size=2), st.sampled_from(("union", "inter", "complement")))
binary_oracles = binary_sets | st.builds(
    PeriodicOracle, st.lists(st.integers(0, 1), min_size=1, max_size=6)) | st.builds(
    OverrideOracle, binary_sets, st.dictionaries(st.integers(-12, 12), st.integers(0, 1),
                                                 max_size=3))


@settings(max_examples=100, deadline=None)
@given(a=binary_oracles, b=binary_oracles,
       shifts=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
       arity=st.integers(1, 3), radius=st.integers(0, 15))
def test_pattern_check_scan_matches_the_per_position_reference(a, b, shifts, arity, radius):
    # without a rotation oracle, every nonempty verdict comes from the window scan
    res = intersection_pattern_check(a, b, shifts, arity, radius)
    assert res.witness == windowed_first_mismatch(a, b, shifts, arity, radius)


def test_pattern_check_with_far_apart_shifts_costs_no_more_than_its_window():
    # shifts (0, 99999) leave 99998 free offsets between two constraints, and
    # the tuples asking one value at both are empty, so every start is scanned
    alternating = PeriodicOracle((0, 1))
    t = time.perf_counter()
    res = intersection_pattern_check(alternating, alternating, [0, 99_999], 2, 20_000)
    assert time.perf_counter() - t < 5.0
    assert res.witness is None


def test_pattern_check_requires_binary():
    with pytest.raises(AlphabetMismatchError):
        intersection_pattern_check(PeriodicOracle((0, 1, 2)), ZERO, [0], 1, 10)


def test_pattern_check_rejects_negative_radius():
    # a negative window used to compare two empty scans and report "equivalent"
    with pytest.raises(InputError):
        intersection_pattern_check(STEP, ZERO, [0], 1, -3)


def test_pattern_check_tuple_cap():
    with pytest.raises(BoundsExceededError):
        intersection_pattern_check(STEP, ZERO, list(range(10)), 7, 10)


# -- finite-group code extraction ---------------------------------------------------------------

@pytest.mark.parametrize("name,f", [
    ("z4", (0, 1, 0, 1)),
    ("z6", (0, 1, 2, 0, 1, 2)),
    ("s3", (0, 0, 1, 1, 2, 2)),
])
def test_equivariant_bijections_induce_local_codes(name, f):
    G = catalog()[name]
    relabeled = tuple({0: 1, 1: 2, 2: 0}[v] for v in f)
    S1 = build_orbit_system(G, f, "R")
    S2 = build_orbit_system(G, relabeled, "R")
    mapping = equivariant_isomorphism(S1, S2)
    assert mapping is not None
    code = code_from_equivariant_map(G, S1, S2, mapping)
    # the sliding form holds at every translate of every point
    for i, x in enumerate(S1.points):
        for h in G.elements():
            pattern = tuple(x[G.mul(g, h)] for g in code.offsets)
            assert code.rule[pattern] == S2.points[mapping[i]][h]
