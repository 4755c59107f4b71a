from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.algebra import QuadraticNumber, Z3B_IDENTITY, Z3BElement, catalog, z3b, z3b_f
from shiftlab.errors import BoundsExceededError, InputError
from shiftlab.recurrence import (
    CandidateSet,
    chromatic_recurrence_check,
    eqtech_search,
    reverify_eqtech,
    syndetic_return_check,
)
from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding, classify_minimality
from shiftlab.zshift import PeriodicOracle, RotationOracle, SetOracle

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
    with pytest.raises(InputError):
        CandidateSet.group_elements(catalog()["z4"], [0])


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


def test_finite_group_chromatic_check_is_exact():
    G = catalog()["z4"]
    res = chromatic_recurrence_check(
        CandidateSet.group_elements(G, [2]), (0, 1, 0, 1), 0, group=G)
    assert res.found and res.exact and res.colour == 0 and res.h == 0
    res2 = chromatic_recurrence_check(
        CandidateSet.group_elements(G, [1]), (0, 1, 0, 1), 0, group=G)
    assert not res2.found and res2.exact


@pytest.mark.parametrize("check", [chromatic_recurrence_check, syndetic_return_check])
def test_negative_radius_rejected(check):
    with pytest.raises(InputError):
        check(CandidateSet.integers([1]), EVENS, -1)


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
