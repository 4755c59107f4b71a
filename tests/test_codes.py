import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import codes
from shiftlab.algebra import QuadraticNumber, catalog, symbol_key
from shiftlab.codes import (
    BlockCode,
    SearchResult,
    ProjectionResult,
    _consistent_shifts,
    _offset_sets,
    apply_code,
    intersection_pattern_check,
    parity_code,
    search_isomorphism_code,
    verify_generalized_projection,
    verify_realization,
    windowed_orbit_representatives,
)
from shiftlab.errors import (AlphabetMismatchError, BoundsExceededError, InputError,
                             VerificationFailedError)
from shiftlab.systems import build_orbit_system, equivariant_isomorphism
from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding
from shiftlab.zshift import (
    CodeImageOracle,
    EventualTails,
    OverrideOracle,
    PeriodicOracle,
    RotationOracle,
    SetOracle,
    centered,
)

PINNED_A = SetOracle(aps=[(1, 2)], halfline=1, include=[0], op="inter")   # {0,1,3,5,...}
PINNED_B = SetOracle(aps=[(0, 2)], halfline=2, op="inter")                # {2,4,6,...}
STEP = SetOracle(halfline=0)                                              # 1 iff n >= 0
STEP_FROM_ONE = SetOracle(halfline=1)                                     # 1 iff n >= 1
ZERO = SetOracle()
PARITY2 = parity_code((0, 1))
PARITY3 = parity_code((0, 1, 2))


# -- small codes built only here ---------------------------------------------------

def identity_code(alphabet):
    return BlockCode((0,), {(s,): s for s in alphabet}, tuple(alphabet))


def shifted_oracle(oracle, t):
    """The oracle n -> oracle(n + t), as a width-one code image."""
    if t == 0:
        return oracle
    code = BlockCode((t,), {(s,): s for s in oracle.alphabet}, tuple(oracle.alphabet))
    return CodeImageOracle(code, oracle)


def relabel_code(mapping):
    return BlockCode((0,), {(k,): v for k, v in mapping.items()}, tuple(sorted(mapping)))


def compose_codes(outer, inner):
    """A single code equal to applying inner first, then outer."""
    offsets = sorted({o + p for o in outer.offsets for p in inner.offsets})
    pos = {o: i for i, o in enumerate(offsets)}
    rule = {}
    for pattern in product(inner.input_alphabet, repeat=len(offsets)):
        mids = tuple(
            inner.rule[tuple(pattern[pos[o + p]] for p in inner.offsets)]
            for o in outer.offsets)
        rule[pattern] = outer.rule[mids]
    return BlockCode(tuple(offsets), rule, inner.input_alphabet)


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


# -- the tuple-form separation verdict, kept as a reference ----------------------------

def tuple_representatives(oracle, depth, radius, ext_lo, ext_hi):
    """{center: (extended, periodic)}: every centered word of the window, and
    each phase of each periodic tail, as tuples of symbols read by ``window``.
    ``extended`` starts at coordinate -depth + min(ext_lo, 0); ``periodic``
    is (period, the symbols at coordinates 0..period-1) for a limit point."""
    lo_i, hi_i = -depth + min(ext_lo, 0), depth + max(ext_hi, 0)
    width, at, size = hi_i - lo_i + 1, -depth - lo_i, 2 * depth + 1
    values = oracle.window(-radius + lo_i, radius + hi_i)
    reps = {}
    for i in range(2 * radius + 1):
        extended = tuple(values[i:i + width])
        reps.setdefault(extended[at:at + size], (extended, None))
    tails = oracle.tails()
    if tails is not None:
        p = tails.period
        for word in (oracle.window(tails.right_from, tails.right_from + p - 1),
                     oracle.window(tails.left_upto - p + 1, tails.left_upto)):
            for phase in range(p):
                aligned = tuple(word[phase:] + word[:phase])
                extended = tuple(aligned[(lo_i + j) % p] for j in range(width))
                reps[extended[at:at + size]] = (extended, (p, aligned))
    return reps


def tuple_patterns(extended, offsets, depth, ext_lo):
    """The patterns a code with these offsets reads at shifts -depth..depth."""
    start = -depth - ext_lo
    return zip(*(extended[start + o:start + o + 2 * depth + 1] for o in offsets))


def periodic_outputs_agree(code, a, b):
    """Do two limit points, given as (period, aligned symbols), have equal
    code outputs at every shift of a common period?"""
    period = math.lcm(a[0], b[0])
    for s in range(period):
        out_a = code.rule[tuple(a[1][(s + o) % a[0]] for o in code.offsets)]
        out_b = code.rule[tuple(b[1][(s + o) % b[0]] for o in code.offsets)]
        if out_a != out_b:
            return False
    return True


def tuple_projection(code, oracle, depth, radius) -> ProjectionResult:
    """Reference for verify_generalized_projection: patterns zipped out of
    tuples and looked up in the rule one by one, witness centers ordered by
    symbol_key, limit pairs compared shift by shift over the lcm period."""
    offsets = code.offsets
    reps = tuple_representatives(oracle, depth, radius, offsets[0], offsets[-1])
    ext_lo = -depth + min(offsets[0], 0)
    outputs = {}
    for center, (extended, _) in reps.items():
        out = tuple(code.rule[p] for p in tuple_patterns(extended, offsets, depth, ext_lo))
        outputs.setdefault(out, []).append(center)
    collisions = [group for group in outputs.values() if len(group) > 1]
    if not collisions:
        return ProjectionResult(True, depth, radius, representatives=len(reps))

    def key(center):
        return tuple(map(symbol_key, center))

    pairs = []
    for group in collisions:
        group = sorted(group, key=key)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i], group[j]))
    pairs.sort(key=lambda pair: (key(pair[0]), key(pair[1])))
    for a, b in pairs:
        pa, pb = reps[a][1], reps[b][1]
        if pa and pb and periodic_outputs_agree(code, pa, pb):
            return ProjectionResult(False, depth, radius, witness=(a, b), exact=True,
                                    representatives=len(reps))
    return ProjectionResult(False, depth, radius, witness=pairs[0], exact=False,
                            representatives=len(reps))


PALETTES = {"int": (0, 1, 2, 3, 4, 5, 6), "str": tuple("abcdefg"),
            "mixed": (0, "a", 1, "b", 2, "c", 3)}


@st.composite
def projection_oracles(draw, palette):
    """Periodic words (some over all 7 symbols), sets, patched words and code
    images of words, whose output alphabet is listed sorted or reversed, so
    digit order and symbol order differ.  A 7-symbol word read at 3 offsets
    has 343 pattern codes, which outnumber one-byte lanes."""
    symbols = PALETTES[palette]
    kind = draw(st.sampled_from(("periodic", "seven", "set", "patched", "image", "wide")))
    word = st.lists(st.sampled_from(symbols[:draw(st.integers(1, 7))]), min_size=1, max_size=6)
    if kind == "periodic":
        return PeriodicOracle(draw(word))
    if kind == "seven":
        return PeriodicOracle(draw(st.permutations(symbols)) + draw(word))
    if kind == "set":
        return SetOracle(draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)),
                                       max_size=2)),
                         draw(st.none() | st.integers(-8, 8)),
                         draw(st.lists(st.integers(-10, 10), max_size=2)),
                         draw(st.lists(st.integers(-10, 10), max_size=2)),
                         draw(st.sampled_from(("union", "inter", "complement"))))
    if kind == "patched":
        return OverrideOracle(PeriodicOracle(draw(word)), draw(st.dictionaries(
            st.integers(-12, 12), st.sampled_from(symbols), min_size=1, max_size=2)))
    if kind == "wide":
        inner = PeriodicOracle(draw(st.permutations(symbols)))
        offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=3, max_size=3))))
    else:
        inner = PeriodicOracle(draw(word))
        offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=1, max_size=2))))
    patterns = list(product(inner.alphabet, repeat=len(offsets)))
    outs = draw(st.lists(st.sampled_from(symbols[:3]), min_size=len(patterns),
                         max_size=len(patterns)))
    alphabet = tuple(sorted(set(outs), key=symbol_key))
    if draw(st.booleans()):
        alphabet = alphabet[::-1]
    return CodeImageOracle(BlockCode(offsets, dict(zip(patterns, outs)), inner.alphabet,
                                     alphabet), inner)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), palette=st.sampled_from(sorted(PALETTES)))
def test_projection_matches_the_tuple_form_reference(data, palette):
    oracle = data.draw(projection_oracles(palette))
    alphabet = tuple(oracle.alphabet)
    offsets = tuple(sorted(data.draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))))
    patterns = list(product(alphabet, repeat=len(offsets)))
    outs = data.draw(st.lists(st.sampled_from(PALETTES[palette][:3]), min_size=len(patterns),
                              max_size=len(patterns)))
    code = BlockCode(offsets, dict(zip(patterns, outs)), alphabet)
    depth = data.draw(st.integers(0, 4))
    radius = data.draw(st.integers(depth, 30))
    want = tuple_projection(code, oracle, depth, radius).describe()
    assert verify_generalized_projection(code, oracle, depth, radius).describe() == want


@pytest.mark.parametrize("offsets", [(-2, 1), (0, 2), (1, 3, 4), (-3, -1)])
def test_a_limit_point_reads_its_period_codes_at_its_own_shifts(offsets):
    # every representative of a periodic word is a limit point: its codes at
    # shifts -depth..depth repeat its codes at shifts 0..period-1
    oracle, depth = PeriodicOracle((0, 1, 1, 2, 0)), 3
    reps = windowed_orbit_representatives(oracle, depth, 20, offsets[0], offsets[-1])
    lists = codes._code_lists(reps, oracle.alphabet, oracle.alphabet, offsets, depth)
    assert len(reps) == 5
    for rep, (window, period) in zip(reps, lists):
        assert len(period) == len(rep.tile) == 5
        assert list(window) == [period[s % 5] for s in range(-depth, depth + 1)]


def test_witness_centers_are_ordered_by_symbol_not_by_digit():
    # the image lists its output alphabet as (1, 0), so its digit 0 is the symbol 1
    oracle = CodeImageOracle(BlockCode((0,), {(0,): 0, (1,): 1}, (0, 1), (1, 0)),
                             PeriodicOracle((0, 1, 1)))
    constant = BlockCode((0,), {(0,): 0, (1,): 0}, (0, 1))
    res = verify_generalized_projection(constant, oracle, 1, 10)
    assert res.witness == ((0, 1, 1), (1, 0, 1)) and res.exact
    assert res.describe() == tuple_projection(constant, oracle, 1, 10).describe()


def test_code_lists_refuse_offsets_their_representatives_do_not_cover():
    # extended for offsets in [0, 1]: coordinates -2..3 at depth 2
    oracle = PeriodicOracle((0, 1, 1))
    reps = windowed_orbit_representatives(oracle, 2, 10, 0, 1)
    for offsets in ((-1, 0), (0, 2)):
        with pytest.raises(IndexError, match="does not cover"):
            codes._code_lists(reps, oracle.alphabet, oracle.alphabet, offsets, 2)


def test_wide_lane_projection_matches_the_tuple_form_reference():
    # 7 symbols at 3 offsets: 343 pattern codes, read in four-byte lanes
    oracle = PeriodicOracle((3, 0, 6, 1, 5, 2, 4, 0))
    code = BlockCode((-3, 0, 2), {p: sum(p) % 2 for p in product(range(7), repeat=3)},
                     tuple(range(7)))
    for depth, radius in ((0, 5), (2, 20), (4, 30)):
        res = verify_generalized_projection(code, oracle, depth, radius)
        assert res.describe() == tuple_projection(code, oracle, depth, radius).describe()


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


def _encode(pattern, digit, nsym):
    """The code of a pattern: its symbols' digits read as a base-nsym numeral,
    so pattern number i of the canonical pattern list has code i."""
    v = 0
    for s in pattern:
        v = v * nsym + digit[s]
    return v


def scan_partials(source, offsets, alphabet, scan, shifts):
    """Oracle for codes._consistent_shifts: every shift scanned position by
    position, each pattern encoded on its own, with no shared verdicts."""
    radius = len(shifts) // 2
    digit = {s: i for i, s in enumerate(alphabet)}
    have = source.window(-2 * radius + offsets[0], 2 * radius + offsets[-1])
    rel = [o - offsets[0] for o in offsets]
    enc = [_encode(p, digit, len(alphabet)) for p in zip(*(have[r:] for r in rel))]
    partials = []
    for t in shifts:
        forced = {}
        ok = True
        for i, wanted in scan:
            pat = enc[i + t]
            seen = forced.get(pat)
            if seen is None:
                forced[pat] = wanted
            elif seen != wanted:
                ok = False
                break
        if ok:
            partials.append((t, forced))
    return partials


def scan_of(target, radius):
    """The (n + 2 * radius, target digit) list a search scans, center-out."""
    out_digit = {s: i for i, s in enumerate(sorted(set(target.alphabet)))}
    want = target.window(-radius, radius)
    return [(n + 2 * radius, out_digit[want[n + radius]]) for n in centered(radius)]


def partial_lists(target, source, max_span, radius):
    """(fast, oracle) partial lists over every offset set of a search."""
    alphabet = tuple(sorted(set(source.alphabet)))
    scan, shifts = scan_of(target, radius), list(centered(radius))
    fast, slow = [], []
    for offsets in _offset_sets(max_span):
        for out, scanner in ((fast, _consistent_shifts), (slow, scan_partials)):
            out.append([(t, sorted(f.items()))
                        for t, f in scanner(source, offsets, alphabet, scan, shifts)])
    return fast, slow


def assert_search_matches_the_scanning_oracle(target, source, max_span, depth, radius):
    fast = search_isomorphism_code(target, source, max_span, depth, radius)
    with mock.patch.object(codes, "_consistent_shifts", scan_partials):
        slow = search_isomorphism_code(target, source, max_span, depth, radius)
    assert fast.describe() == slow.describe()
    assert fast.candidates_tried == slow.candidates_tried


def forced_rule_calls(target, source, max_span, radius):
    """How many shifts _consistent_shifts scans over a whole search's offset sets."""
    with mock.patch.object(codes, "_forced_rule", side_effect=codes._forced_rule) as spy:
        alphabet = tuple(sorted(set(source.alphabet)))
        scan, shifts = scan_of(target, radius), list(centered(radius))
        for offsets in _offset_sets(max_span):
            _consistent_shifts(source, offsets, alphabet, scan, shifts)
    return spy.call_count


SQRT2_M1 = QuadraticNumber(-1, 1, 2)


@st.composite
def search_sources(draw, radius):
    """Periodic words, code images of them, patched ones (inside or outside
    the search buffer), sets with and without corrections, and a rotation
    coding of sqrt(2) - 1 cut at a rational."""
    kind = draw(st.sampled_from(("periodic", "image", "patched", "set", "rotation")))
    word = draw(st.lists(st.integers(0, 2), min_size=1, max_size=7))
    periodic = PeriodicOracle(word)
    if kind == "periodic":
        return periodic
    if kind == "image":
        offsets = tuple(sorted(draw(st.sets(st.integers(-2, 2), min_size=1, max_size=2))))
        patterns = list(product(periodic.alphabet, repeat=len(offsets)))
        outs = draw(st.lists(st.integers(0, 1), min_size=len(patterns), max_size=len(patterns)))
        return CodeImageOracle(BlockCode(offsets, dict(zip(patterns, outs)),
                                         periodic.alphabet), periodic)
    if kind == "patched":
        # the buffer of a span-2 search covers [-2 * radius, 2 * radius + 2]
        inside = st.integers(-2 * radius, 2 * radius + 2)
        outside = st.integers(2 * radius + 3, 2 * radius + 40) | st.integers(
            -2 * radius - 40, -2 * radius - 1)
        return OverrideOracle(periodic, draw(st.dictionaries(
            inside | outside, st.integers(0, 2), min_size=1, max_size=2)))
    if kind == "set":
        fixes = st.lists(st.integers(-15, 15), max_size=2)
        return SetOracle(draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 6)),
                                       min_size=1, max_size=2)),
                         draw(st.none() | st.integers(-10, 10)), draw(fixes), draw(fixes),
                         draw(st.sampled_from(("union", "inter", "complement"))))
    cut = QuadraticNumber(Fraction(draw(st.integers(1, 11)), 12))
    return RotationOracle(RotationCoding(SQRT2_M1, {
        0: CircleIntervalSet([Arc(QuadraticNumber(0), True, cut, False)]),
        1: CircleIntervalSet([Arc(cut, True, QuadraticNumber(1), False)])}))


@st.composite
def search_targets(draw, source, max_span):
    """A planted code image of the shifted source (a relabel when the code
    reads one offset), a periodic word whose length neither divides nor is
    divided by the source's tail period, or an unrelated set."""
    kind = draw(st.sampled_from(("planted", "periodic", "set")))
    if kind == "planted":
        offsets = (0,) + tuple(sorted(draw(st.sets(st.integers(1, max(max_span, 1)),
                                                   max_size=max_span))))
        patterns = list(product(source.alphabet, repeat=len(offsets)))
        outs = draw(st.lists(st.integers(0, 2), min_size=len(patterns), max_size=len(patterns)))
        code = BlockCode(offsets, dict(zip(patterns, outs)), source.alphabet)
        return CodeImageOracle(code, shifted_oracle(source, draw(st.integers(-3, 3))))
    if kind == "periodic":
        tails = source.tails()
        period = tails.period if tails is not None else 1
        length = draw(st.integers(2, 9).filter(
            lambda n: period == 1 or (n % period and period % n)))
        return PeriodicOracle(draw(st.lists(st.integers(0, 1), min_size=length,
                                            max_size=length)))
    return SetOracle(draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 5)),
                                   max_size=2)),
                     draw(st.none() | st.integers(-8, 8)), (), draw(st.lists(
                         st.integers(-8, 8), max_size=2)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), radius=st.integers(0, 60), max_span=st.integers(0, 2))
def test_shared_class_verdicts_match_the_per_shift_scan(data, radius, max_span):
    source = data.draw(search_sources(radius))
    target = data.draw(search_targets(source, max_span))
    fast, slow = partial_lists(target, source, max_span, radius)
    assert fast == slow
    depth = data.draw(st.integers(0, min(radius, 3)))
    assert_search_matches_the_scanning_oracle(target, source, max_span, depth, radius)


def test_search_at_radius_zero_matches_the_scanning_oracle():
    source, target = PeriodicOracle((0, 1, 1)), PeriodicOracle((1, 0))
    fast, slow = partial_lists(target, source, 2, 0)
    assert fast == slow and all(len(p) == 1 for p in fast)
    assert_search_matches_the_scanning_oracle(target, source, 2, 0, 0)


def test_tail_period_beyond_the_buffer_scans_every_shift():
    # radius 3 gives a 13-position buffer; the source's tail period is 20
    source = PeriodicOracle((0,) * 19 + (1,))
    target = SetOracle(aps=[(0, 20)])
    fast, slow = partial_lists(target, source, 1, 3)
    assert fast == slow and fast[0]
    assert forced_rule_calls(target, source, 1, 3) == 2 * 7
    assert_search_matches_the_scanning_oracle(target, source, 1, 2, 3)


def test_a_tail_period_that_is_a_multiple_of_the_true_period():
    # the union is the even numbers, yet tails() reports lcm(2, 4) = 4
    source = SetOracle(aps=[(0, 2), (2, 4)])
    assert source.tails().period == 4
    target = PeriodicOracle((1, 0))
    fast, slow = partial_lists(target, source, 2, 30)
    # either parity is carried onto the target at every shift
    assert fast == slow and len(fast[0]) == 61
    assert forced_rule_calls(target, source, 2, 30) == 4 * 4
    assert_search_matches_the_scanning_oracle(target, source, 2, 3, 30)


def test_a_depth_0_verdict_rests_on_where_the_set_thresholds_anchor_its_limits(monkeypatch):
    # {n = 2 mod 3} has three limit phases, and two share the center word 0;
    # the one read last represents it, and which one that is depends on where
    # the tile is read from.  bench/reference.py anchors its limits the same
    # way, so this verdict moves with the thresholds and no benchmark check sees it
    code = BlockCode((0, 1), {p: int(p == (0, 1)) for p in product((0, 1), repeat=2)}, (0, 1))
    oracle = SetOracle(aps=[(2, 3)])
    assert oracle.tails() == EventualTails(period=3, left_upto=-6, right_from=6)
    assert verify_generalized_projection(code, oracle, 0, 30).separates is False
    monkeypatch.setattr(SetOracle, "tails", lambda self: EventualTails(3, -1, 1))
    assert verify_generalized_projection(code, oracle, 0, 30).separates is True


def test_a_repeating_source_scans_each_residue_class_once_per_offset_set():
    source, target = PeriodicOracle((0, 1, 1, 0, 1)), SetOracle(aps=[(0, 3)])
    # every shift conflicts, so every class verdict is a conflict
    assert partial_lists(target, source, 2, 40)[0] == [[]] * 4
    assert forced_rule_calls(target, source, 2, 40) == 4 * 5
    # a patch inside the buffer breaks the repeat: every shift is scanned
    patched = OverrideOracle(source, {3: 1})
    assert forced_rule_calls(target, patched, 2, 40) == 4 * 81
    # a patch outside it does not
    assert forced_rule_calls(target, OverrideOracle(source, {90: 0}), 2, 40) == 4 * 5
    res = search_isomorphism_code(target, source, 2, 3, 40)
    assert not res.found and res.candidates_tried == 4 * 81


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

@dataclass
class GroupCode:
    """A local rule over group-element offsets recovered from an equivariant map."""

    offsets: tuple            # group element indices
    rule: dict                # observed patterns -> symbol

    def apply(self, group, config):
        return tuple(self.rule[tuple(config[group.mul(g, h)] for g in self.offsets)]
                     for h in group.elements())


def code_from_equivariant_map(group, source_system, target_system, mapping) -> GroupCode:
    """Extract the local rule behind a point bijection of right orbit systems
    (Curtis-Hedlund-Lyndon at finite scale).

    Offsets are all group elements; the rule reads off each source point's
    full pattern and outputs the mapped point's identity coordinate.  The
    sliding form is verified exhaustively over all points and translates.
    """
    offsets = tuple(group.elements())
    rule = {}
    for i, x in enumerate(source_system.points):
        pattern = tuple(x[g] for g in offsets)
        rule[pattern] = target_system.points[mapping[i]][group.identity]
    extracted = GroupCode(offsets, rule)
    for i, x in enumerate(source_system.points):
        image = extracted.apply(group, x)
        if image != target_system.points[mapping[i]]:
            raise VerificationFailedError("extracted local rule does not reproduce the map")
    return extracted


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
