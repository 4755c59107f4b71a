from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.algebra import QuadraticNumber, Z3B_IDENTITY, Z3BElement, symbol_key, z3b, z3b_f
from shiftlab.codes import BlockCode
from shiftlab.errors import BoundsExceededError, InputError
from shiftlab.recurrence import (
    CandidateSet,
    RecurrenceVerdict,
    chromatic_recurrence_check,
    eqtech_search,
    reverify_eqtech,
    syndetic_return_check,
)
from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding, classify_minimality, \
    word_locus
from shiftlab.zshift import (
    CodeImageOracle,
    OverrideOracle,
    PeriodicOracle,
    RotationOracle,
    SetOracle,
    WordPattern,
    centered,
)

ALPHA = QuadraticNumber(-2, 1, 5)
ALT = PeriodicOracle((0, 1))
EVENS = SetOracle(aps=[(0, 2)])


def four_colouring():
    F = Fraction
    Q = QuadraticNumber
    return RotationCoding(ALPHA, {
        1: CircleIntervalSet([Arc(Q(0), True, Q(F(1, 7)), False)]),
        2: CircleIntervalSet([Arc(Q(F(1, 7)), False, 2 * ALPHA, True)]),
        3: CircleIntervalSet([Arc(2 * ALPHA, False, Q(F(6, 7)), True)]),
        4: CircleIntervalSet([Arc(Q(F(6, 7)), False, Q(1), False)]),
    })


# -- candidate sets ------------------------------------------------------------

def test_candidate_set_rejects_identity():
    with pytest.raises(InputError):
        CandidateSet.integers([0, 1])


def test_candidate_set_sorts_and_dedups():
    assert CandidateSet.integers([5, -2, 5]).elements == (-2, 5)


# -- chromatic recurrence -------------------------------------------------------

def test_alternating_with_step_two_found_at_origin():
    res = chromatic_recurrence_check(CandidateSet.integers([2]), ALT, 1000)
    assert (res.found, res.colour, res.g, res.h) == (True, 0, 2, 0)


def test_alternating_with_step_one_missing_exactly():
    res = chromatic_recurrence_check(CandidateSet.integers([1]), ALT, 1000)
    assert not res.found
    assert res.exact  # period-2 structure makes the window verdict exact


def test_four_colouring_recurrence_found_quickly():
    oracle = RotationOracle(four_colouring())
    res = chromatic_recurrence_check(CandidateSet.integers([1, 2]), oracle, 1000)
    assert res.found and abs(res.h) <= 10


@pytest.mark.parametrize("word", [(1, 1, 0, 0), ("a", "a", 0, 0), ("b", "b", "a", "a")])
def test_least_colour_wins_over_the_earliest_match(word):
    # colour word[0] matches at h = 0, the least colour word[2] only at h = 2
    res = chromatic_recurrence_check(CandidateSet.integers([1]), PeriodicOracle(word), 10)
    assert (res.found, res.colour, res.h) == (True, word[2], 2)


@pytest.mark.parametrize("check", [chromatic_recurrence_check, syndetic_return_check])
def test_negative_radius_rejected(check):
    with pytest.raises(InputError):
        check(CandidateSet.integers([1]), EVENS, -1)


@pytest.mark.parametrize("check", [chromatic_recurrence_check, syndetic_return_check])
def test_empty_candidate_set_rejected(check):
    # an empty R has no step to return under: a miss over it would be vacuous
    with pytest.raises(InputError) as caught:
        check(CandidateSet.integers([]), EVENS, 8)
    assert str(caught.value) == "candidate set must be nonempty"


# -- syndetic returns -------------------------------------------------------------

def test_rotation_set_one_third_returns_under_step_one():
    one = CircleIntervalSet([Arc(QuadraticNumber(Fraction(1, 3)), False,
                                 QuadraticNumber(Fraction(2, 3)), False)])
    coding = RotationCoding(ALPHA, {1: one, 0: one.complement()})
    res = syndetic_return_check(CandidateSet.integers([1]), RotationOracle(coding), 1000)
    assert res.found and res.g == 1


def test_even_integers_miss_step_one_exactly():
    res = syndetic_return_check(CandidateSet.integers([1]), EVENS, 1000)
    assert not res.found and res.exact


def test_even_integers_hit_step_two_at_origin():
    res = syndetic_return_check(CandidateSet.integers([2]), EVENS, 1000)
    assert (res.found, res.g, res.h) == (True, 2, 0)


def thirds(*labels):
    """A coding of ALPHA that labels [k/3, (k+1)/3) with labels[k]."""
    arcs = {}
    for k, label in enumerate(labels):
        lo, hi = QuadraticNumber(Fraction(k, 3)), QuadraticNumber(Fraction(k + 1, 3))
        arcs.setdefault(label, []).append(Arc(lo, True, hi, False))
    cells = {label: CircleIntervalSet(a) for label, a in arcs.items()}
    return RotationOracle(RotationCoding(ALPHA, cells))


@pytest.mark.parametrize("check,oracle,radius,exact", [
    # 2 alpha lies in [1/3, 2/3] mod 1, so no third meets itself moved by it
    (syndetic_return_check, thirds(1, 0, 0), 1000, True),
    (chromatic_recurrence_check, thirds(0, 1, 2), 1000, True),
    (chromatic_recurrence_check, thirds(0, 1, 2), 0, True),
    # the word (0, 0) at (0, 2) occurs, though not at h = 0
    (chromatic_recurrence_check, thirds(0, 1, 0), 0, False),
])
def test_a_rotation_miss_is_exact_when_every_locus_is_empty(check, oracle, radius, exact):
    res = check(CandidateSet.integers([2]), oracle, radius)
    assert res.describe() == {"found": False, "radius": radius, "exact": exact}


# -- the position-by-position reference ----------------------------------------------

def miss_is_exact(oracle, offsets, symbols, radius):
    """Whether a word the window [-radius, radius] misses occurs nowhere on Z,
    rule by rule: two symbols at one offset, a symbol outside the alphabet,
    an empty ``word_locus`` for a rotation coding (its cells here are
    half-open arcs, so a locus is empty or has interior), or tails that
    cover the scan."""
    by_offset = {}
    for o, s in zip(offsets, symbols):
        if s not in oracle.alphabet or by_offset.setdefault(o, s) != s:
            return True
    if isinstance(oracle, RotationOracle):
        items = sorted(by_offset.items())
        word = WordPattern(tuple(o for o, _ in items), tuple(s for _, s in items))
        return word_locus(oracle.coding, word).is_empty()
    tails = oracle.tails()
    return tails is not None and tails.covers(max(abs(o) for o in offsets), radius)


def scan_reference(R, oracle, radius, syndetic):
    """Both return checks as position loops over one symbol list: for each g
    in increasing order, h runs in centred order (0, 1, -1, ...).  The
    chromatic loop keeps each colour's first h and reports the least colour
    in ``symbol_key`` order; the syndetic loop stops at the first h with
    h and h + g both 1.  A miss is exact when ``miss_is_exact`` holds for
    every g and colour."""
    lo = -radius + min(0, min(R.elements, default=0))
    hi = radius + max(0, max(R.elements, default=0))
    buf, off = oracle.window(lo, hi), -lo
    colours = (1,) if syndetic else set(oracle.alphabet)
    exact = True
    for g in R.elements:
        first = {}
        for h in centered(radius):
            colour = buf[h + off]
            if syndetic and colour == 1 and buf[h + g + off] == 1:
                return RecurrenceVerdict(True, g=g, h=h)
            if not syndetic and colour == buf[h + g + off] and colour not in first:
                first[colour] = h
        if first:
            colour = min(first, key=symbol_key)
            return RecurrenceVerdict(True, g=g, colour=colour, h=first[colour])
        exact = exact and all(miss_is_exact(oracle, (0, g), (c, c), radius) for c in colours)
    return RecurrenceVerdict(False, radius=radius, exact=exact)


PALETTES = ((0, 1, 2), ("a", "b", "c"), (0, "a", 1))


@st.composite
def scan_oracles(draw, depth=2):
    """Periodic words, sets (union, intersection or complement), patches and
    code images over one palette, and rotation codings cut at rationals
    k/12 with labels drawn from it."""
    palette = draw(st.sampled_from(PALETTES))
    kinds = ("periodic", "set", "rotation") + (("patched", "image") if depth else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "periodic":
        return PeriodicOracle(draw(st.lists(st.sampled_from(palette), min_size=1, max_size=6)))
    if kind == "set":
        points = st.lists(st.integers(-12, 12), max_size=4)
        return SetOracle(aps=draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)),
                                           max_size=3)),
                         halfline=draw(st.none() | st.integers(-8, 8)),
                         include=draw(points), exclude=draw(points),
                         op=draw(st.sampled_from(("union", "inter", "complement"))))
    if kind == "rotation":
        cuts = sorted(draw(st.sets(st.integers(0, 11), min_size=2, max_size=4)))
        labels = draw(st.lists(st.sampled_from(palette), min_size=len(cuts),
                               max_size=len(cuts)))
        pieces = {}
        for i, k in enumerate(cuts):
            end = QuadraticNumber(Fraction(cuts[(i + 1) % len(cuts)], 12))
            pieces.setdefault(labels[i], []).append(
                Arc(QuadraticNumber(Fraction(k, 12)), True, end, False))
        cells = {label: CircleIntervalSet(arcs) for label, arcs in pieces.items()}
        return RotationOracle(RotationCoding(ALPHA, cells))
    inner = draw(scan_oracles(depth - 1))
    if kind == "patched":
        return OverrideOracle(inner, draw(st.dictionaries(st.integers(-12, 12),
                                                          st.sampled_from(palette),
                                                          max_size=4)))
    offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=1, max_size=2))))
    patterns = product(inner.alphabet, repeat=len(offsets))
    rule = {p: draw(st.sampled_from(palette)) for p in patterns}
    return CodeImageOracle(BlockCode(offsets, rule, inner.alphabet), inner)


@settings(max_examples=300, deadline=None)
@given(oracle=scan_oracles(),
       steps=st.lists(st.integers(-9, 9).filter(bool), max_size=4),
       radius=st.integers(0, 30),
       syndetic=st.booleans())
def test_return_checks_match_the_position_scan(oracle, steps, radius, syndetic):
    R = CandidateSet.integers(steps)
    check = syndetic_return_check if syndetic else chromatic_recurrence_check
    if not steps:
        with pytest.raises(InputError):
            check(R, oracle, radius)
        return
    got = check(R, oracle, radius)
    assert got.describe() == scan_reference(R, oracle, radius, syndetic).describe()


def patched_abc(points):
    """The word bcd, in which no two neighbours agree, with "a" at points."""
    return OverrideOracle(PeriodicOracle("bcd"), {n: "a" for n in points})


@pytest.mark.parametrize("points,h", [
    ((-2, -1, 3, 4), -2),  # -2 comes before +3 in centred order
    ((-2, -1, 2, 3), 2),  # +2 and -2 tie, and +t wins
])
def test_first_centred_h_by_value(points, h):
    one = CandidateSet.integers([1])
    colour = chromatic_recurrence_check(one, patched_abc(points), 5)
    assert colour.describe() == {"found": True, "g": 1, "h": h, "colour": "a"}
    returned = syndetic_return_check(one, SetOracle(include=points), 5)
    assert returned.describe() == {"found": True, "g": 1, "h": h}  # no colour key


# -- fixture-suite consistency invariants --------------------------------------------

def test_minimal_colouring_verdicts_agree_with_full_colouring():
    # the per-colour minimal systems of a rotation colouring return with the
    # same g as the full colouring whenever both scans are exact
    coding = four_colouring()
    oracle = RotationOracle(coding)
    R = CandidateSet.integers([1, 2, 3])
    full = chromatic_recurrence_check(R, oracle, 500)
    assert full.found
    for label in coding.labels():
        sub = classify_minimality(coding, scope=label)
        assert sub.minimal
        indicator = RotationOracle(coding.indicator(label))
        res = chromatic_recurrence_check(R, indicator, 500)
        assert res.found and res.g == full.g


def test_chromatic_found_implies_syndetic_return_on_minimal_sets():
    # clause consistency: a colour-class return on a 2-colouring gives a
    # return of the set itself with the same g
    one = CircleIntervalSet([Arc(QuadraticNumber(Fraction(1, 3)), False,
                                 QuadraticNumber(Fraction(2, 3)), False)])
    coding = RotationCoding(ALPHA, {1: one, 0: one.complement()})
    oracle = RotationOracle(coding)
    for g in (1, 2, 3):
        R = CandidateSet.integers([g])
        chrom = chromatic_recurrence_check(R, oracle, 500)
        if chrom.found and chrom.colour == 1:
            ret = syndetic_return_check(R, oracle, 500)
            assert ret.found and ret.g == chrom.g


# -- eqtech search ---------------------------------------------------------------------

def test_eqtech_identity_context():
    res = eqtech_search([Z3B_IDENTITY], 8)
    assert res.found
    assert z3b_f(res.x) != z3b_f(res.c.mul(res.x))
    assert reverify_eqtech(res, [Z3B_IDENTITY])


def test_eqtech_with_nontrivial_context():
    S = [z3b(1, {1, 2})]
    res = eqtech_search(S, 8)
    assert res.found
    assert reverify_eqtech(res, S)
    assert len(res.transcript) == 1


def test_eqtech_transcript_matches_direct_recomputation():
    S = [Z3B_IDENTITY, z3b(1, {1, 2})]
    res = eqtech_search(S, 8)
    assert res.found
    xinv, cxinv = res.x.inv(), res.c.mul(res.x).inv()
    for a, b, u, v in res.transcript:
        assert u == z3b_f(a.mul(xinv).mul(b))
        assert v == z3b_f(a.mul(cxinv).mul(b))


def test_eqtech_deterministic_first_hit():
    first = eqtech_search([Z3B_IDENTITY], 8)
    second = eqtech_search([Z3B_IDENTITY], 8)
    assert (first.c, first.x) == (second.c, second.x)


def test_eqtech_bounds():
    with pytest.raises(BoundsExceededError):
        eqtech_search([Z3B_IDENTITY], 8, search_bound=13)
    with pytest.raises(InputError):
        eqtech_search([z3b(0, {9})], 8)


def test_eqtech_rejects_an_empty_context():
    # with no (a, b) to check, any separating pair would pass vacuously
    with pytest.raises(InputError) as caught:
        eqtech_search([], 8)
    assert str(caught.value) == "the context S must be nonempty"


def eqtech_by_full_enumeration(S, search_bound):
    """Reference: every element with support in {1..bound}, sorted, then the pair scan."""
    elements = sorted((Z3BElement(r, frozenset(support))
                       for size in range(search_bound + 1)
                       for support in combinations(range(1, search_bound + 1), size)
                       for r in (0, 1, 2)), key=Z3BElement.sort_key)
    by_size = {}
    for e in elements:
        by_size.setdefault(len(e.support), []).append(e)
    tried = 0
    for total in range(2 * search_bound + 1):
        for c_size in range(max(0, total - search_bound), min(total, search_bound) + 1):
            for c in by_size[c_size]:
                for x in by_size[total - c_size]:
                    tried += 1
                    if z3b_f(x) == z3b_f(c.mul(x)):
                        continue
                    transcript, ok = [], True
                    for a in S:
                        for b in S:
                            u = z3b_f(a.mul(x.inv()).mul(b))
                            v = z3b_f(a.mul(c.mul(x).inv()).mul(b))
                            transcript.append((a, b, u, v))
                            if u != v:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        return c, x, transcript, tried
    return None, None, None, tried


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lazy_eqtech_matches_full_sorted_enumeration(data):
    support_bound = data.draw(st.integers(0, 10), label="support_bound")
    search_bound = data.draw(st.integers(0, 10), label="search_bound")
    element = st.builds(Z3BElement, st.integers(0, 2),
                        st.frozensets(st.integers(1, max(support_bound, 1)), max_size=3)
                        if support_bound else st.just(frozenset()))
    S = data.draw(st.lists(element, min_size=1, max_size=3), label="S")
    res = eqtech_search(S, support_bound, search_bound)
    c, x, transcript, tried = eqtech_by_full_enumeration(S, search_bound)
    assert (res.c, res.x, res.transcript, res.pairs_tried) == (c, x, transcript, tried)
    assert res.found == (c is not None)
