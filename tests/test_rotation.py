import copy
import pickle
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab.algebra import QuadraticNumber, frac_part
from shiftlab.errors import (
    InputError,
    MismatchedFieldError,
    RationalAlphaError,
    UncoveredOrbitPointError,
)
from shiftlab.rotation import (
    Arc,
    CircleIntervalSet,
    RotationCoding,
    boundary_hits,
    classify_minimality,
    classify_word,
    normalize,
    resonance_bound,
    strongly_dyn_syndetic,
    word_locus,
)
from shiftlab.zshift import RotationOracle, WordPattern, occurrences, uniform_recurrence_certificate

Q = QuadraticNumber
F = Fraction
ALPHA = Q(-2, 1, 5)  # sqrt(5) - 2


def arc(lo, lo_c, hi, hi_c):
    return Arc(Q(F(lo)) if not isinstance(lo, QuadraticNumber) else lo, lo_c,
               Q(F(hi)) if not isinstance(hi, QuadraticNumber) else hi, hi_c)


@pytest.fixture(scope="module")
def sturmian():
    cell0 = CircleIntervalSet([Arc(ALPHA, True, 2 * ALPHA, True)])
    return RotationCoding(ALPHA, {0: cell0, 1: cell0.complement()}, name="sturmian-A")


@pytest.fixture(scope="module")
def third_interval():
    one = CircleIntervalSet([arc("1/3", False, "2/3", False)])
    return RotationCoding(ALPHA, {1: one, 0: one.complement()}, name="third")


@pytest.fixture(scope="module")
def four_colouring():
    cells = {
        1: CircleIntervalSet([arc(0, True, "1/7", False)]),
        2: CircleIntervalSet([Arc(Q(F(1, 7)), False, 2 * ALPHA, True)]),
        3: CircleIntervalSet([Arc(2 * ALPHA, False, Q(F(6, 7)), True)]),
        4: CircleIntervalSet([arc("6/7", False, 1, False)]),
    }
    return RotationCoding(ALPHA, cells, name="four")


# -- normalization ----------------------------------------------------------------

def test_normalize_keeps_plain_arc():
    s = normalize([arc(0, True, "1/7", False)])
    assert len(s.arcs) == 1 and not s.points


def test_normalize_merges_abutting_arcs():
    s = normalize([arc(0, True, "1/4", True), arc("1/4", False, "1/2", False)])
    assert len(s.arcs) == 1
    a = s.arcs[0]
    assert a.lo == Q(0) and a.hi == Q(F(1, 2)) and a.lo_closed and not a.hi_closed


def test_normalize_splits_wraparound_but_reports_whole():
    s = normalize([arc("6/7", False, "1/7", False)])
    assert len(s.arcs) == 2  # stored split at 0
    logical = s.logical_arcs()
    assert len(logical) == 1
    assert logical[0].lo == Q(F(6, 7)) and logical[0].hi == Q(F(1, 7))


def test_normalize_absorbs_point_into_open_endpoint():
    s = normalize([arc(0, True, "1/4", False)], [Q(F(1, 4))])
    assert not s.points and s.arcs[0].hi_closed


def test_normalize_degenerate_arcs():
    assert normalize([arc("1/3", True, "1/3", True)]).points == (Q(F(1, 3)),)
    assert normalize([arc("1/3", True, "1/3", False)]).is_empty()


def test_equivalent_representations_normalize_identically():
    via_wrap = normalize([Arc(2 * ALPHA, False, ALPHA, False)])
    via_pieces = normalize([Arc(Q(0), True, ALPHA, False), Arc(2 * ALPHA, False, Q(1), False)])
    assert via_wrap == via_pieces


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)
raw_arcs = st.tuples(unit_rationals, st.booleans(), unit_rationals, st.booleans())


def _mod1(x):
    return frac_part(x) if isinstance(x, QuadraticNumber) else x % 1


def _raw_member(x, lo, lo_c, hi, hi_c):
    """Membership per the input grammar.

    hi written as 1 means the arc runs up to the seam (1 is the point 0
    approached from below); otherwise endpoints reduce mod 1, a reduced
    lo > hi wraps through 0, and lo == hi is a point needing both flags.
    """
    x, lo = _mod1(x), _mod1(lo)
    if hi == 1:
        return lo < x or (x == lo and lo_c) or (x == 0 and hi_c)
    hi = _mod1(hi)
    if lo == hi:
        return lo_c and hi_c and x == lo
    inside = (lo < x < hi) if lo < hi else (x > lo or x < hi)
    return inside or (x == lo and lo_c) or (x == hi and hi_c)


@given(st.lists(raw_arcs, min_size=1, max_size=4),
       st.lists(unit_rationals, max_size=2),
       st.lists(unit_rationals, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_normalize_preserves_union_membership(arc_specs, point_specs, probes):
    arcs = [Arc(Q(lo), lo_c, Q(hi), hi_c) for lo, lo_c, hi, hi_c in arc_specs]
    s = CircleIntervalSet(arcs, [Q(p) for p in point_specs])
    for probe in probes:
        want = any(_raw_member(probe, *spec) for spec in arc_specs) \
            or any(probe % 1 == p % 1 for p in point_specs)
        assert s.contains(Q(probe)) == want, (arc_specs, point_specs, probe)


@given(st.lists(raw_arcs, min_size=1, max_size=3),
       st.lists(unit_rationals, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_complement_laws_on_random_sets(arc_specs, probes):
    s = CircleIntervalSet([Arc(Q(lo), lo_c, Q(hi), hi_c)
                           for lo, lo_c, hi, hi_c in arc_specs])
    c = s.complement()
    assert s.intersect(c).is_empty()
    assert c.complement() == s
    for probe in probes:
        assert s.contains(Q(probe)) != c.contains(Q(probe))


ROOT2_ALPHA = Q(-1, 1, 2)  # sqrt(2) - 1
BY_VALUE = cmp_to_key(lambda x, y: x.compare(y))


@st.composite
def near_points(draw):
    """A point within 1e-15 of {k*alpha} for a small k: the point itself, a
    rational within 10^-N of it, or it shifted by a multiple of 10^-N."""
    x = frac_part(draw(st.integers(0, 3)) * ROOT2_ALPHA)
    scale = 10 ** draw(st.integers(15, 24))
    step = F(draw(st.integers(-2, 2)), scale)
    kind = draw(st.sampled_from(["exact", "rational", "shifted"]))
    if kind == "exact":
        return x
    if kind == "rational":
        return frac_part(Q(F((x * scale).floor(), scale) + step))
    return frac_part(x + step)


near_arcs = st.tuples(near_points(), st.booleans(),
                      st.one_of(near_points(), st.just(Q(1))), st.booleans())


def _probes(values):
    """Every value, 0, and the midpoint of each gap between sorted values."""
    cuts = sorted({_mod1(v) for v in values} | {Q(0)}, key=BY_VALUE) + [Q(1)]
    return cuts[:-1] + [(x + y) * F(1, 2) for x, y in zip(cuts, cuts[1:])]


@given(st.lists(near_arcs, min_size=1, max_size=5), st.lists(near_points(), max_size=2))
@settings(max_examples=200, deadline=None)
def test_exact_order_within_float_resolution(arc_specs, point_specs):
    s = normalize([Arc(*spec) for spec in arc_specs], point_specs)
    for a, b in zip(s.arcs, s.arcs[1:]):
        # sorted, disjoint, and merged wherever they touch
        c = a.hi.compare(b.lo)
        assert c < 0 or (c == 0 and not a.hi_closed and not b.lo_closed), s
    c = s.complement()
    values = [e for lo, _, hi, _ in arc_specs for e in (lo, hi)] + point_specs
    for probe in _probes(values):
        want = any(_raw_member(probe, *spec) for spec in arc_specs) \
            or any(probe == p for p in point_specs)
        assert s.contains(probe) == want, (arc_specs, point_specs, probe)
        assert c.contains(probe) != want, (arc_specs, point_specs, probe)


def test_complement_involution_and_disjointness():
    for s in [
        CircleIntervalSet([arc(0, True, "1/7", False)]),
        CircleIntervalSet([arc("1/3", False, "2/3", False)]),
        CircleIntervalSet([Arc(ALPHA, True, 2 * ALPHA, True)]),
        CircleIntervalSet([arc("1/2", True, 1, True)]),
        CircleIntervalSet((), [Q(F(1, 4))]),
    ]:
        c = s.complement()
        assert s.intersect(c).is_empty()
        assert c.complement() == s


# -- cell symbols -----------------------------------------------------------------

def cell_symbol(coding, n):
    """Brute-force reference for coded symbols: the n-th orbit point in
    Fraction arithmetic, then exact cell membership."""
    x = coding.orbit_point(n)
    for label in coding.labels():
        if coding.cells[label].contains(x):
            return label
    raise UncoveredOrbitPointError(n, str(x))


def test_cell_symbol_middle_third():
    coding = RotationCoding(ALPHA, {
        1: CircleIntervalSet([arc("1/3", False, "2/3", False)]),
        0: CircleIntervalSet([arc("1/3", False, "2/3", False)]).complement(),
    })
    assert cell_symbol(coding, 0) == RotationOracle(coding).value(0) == 0


def test_cell_symbol_sturmian_boundary_hit(sturmian):
    # the orbit lands exactly on alpha
    assert cell_symbol(sturmian, 1) == RotationOracle(sturmian).value(1) == 0


def test_cell_symbol_four_colouring_start(four_colouring):
    assert [cell_symbol(four_colouring, n) for n in range(3)] == [1, 2, 2]
    assert four_colouring.orbit_symbols(0, 2) == [1, 2, 2]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))])
def test_values_sets_and_codings_copy_and_pickle(four_colouring, clone):
    assert clone(ALPHA) == ALPHA and clone(ALPHA).d == 5
    cell = four_colouring.cells[2]
    assert clone(cell) == cell
    twin = clone(four_colouring)
    assert twin == four_colouring
    assert twin.orbit_symbols(-50, 50) == four_colouring.orbit_symbols(-50, 50)


POINT_LABEL = 9


@st.composite
def random_codings(draw):
    """A coding with cut points that are rationals (0 included), k*alpha or
    k*alpha + base, random closure at each cut (left arc, right arc, or an
    isolated point cell), and a base that is 0, rational or a multiple of
    alpha.  Returns the coding and the times its orbit meets a cut point or
    the seam at 0."""
    d = draw(st.sampled_from((2, 3, 5, 7)))
    c = draw(st.sampled_from((1, 2, 3)))
    alpha = frac_part(Q(F(draw(st.integers(-3, 3)), c), F(draw(st.sampled_from((1, -1, 2))), c), d))
    base_kind = draw(st.sampled_from(("zero", "rational", "multiple")))
    times = [0]
    if base_kind == "zero":
        base = Q(0)
    elif base_kind == "rational":
        base = Q(F(draw(st.integers(1, 6)), 7))
    else:
        j = draw(st.integers(-4, 4))
        base = frac_part(j * alpha)
        times.append(-j)  # the orbit point at -j is the seam point 0
    cuts = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(("rational", "multiple", "hit")))
        if kind == "rational":
            q = draw(st.sampled_from((2, 5, 12)))
            cut = Q(F(draw(st.integers(0, q - 1)), q))
        else:
            k = draw(st.integers(-4, 4))
            cut = frac_part(k * alpha + (base if kind == "hit" else 0))
            if kind == "hit":
                times.append(k)
        if all(cut != other for other in cuts):
            cuts.append(cut)
    assume(len(cuts) >= 2)
    cuts.sort(key=cmp_to_key(lambda x, y: x.compare(y)))
    m = len(cuts)
    owner = [draw(st.sampled_from(("left", "right", "point"))) for _ in range(m)]
    cells = {}
    for i in range(m):
        piece = Arc(cuts[i], owner[i] == "right", cuts[(i + 1) % m], owner[(i + 1) % m] == "left")
        cells.setdefault(draw(st.integers(0, 2)), []).append(piece)
    cells = {label: CircleIntervalSet(pieces) for label, pieces in cells.items()}
    points = [cuts[i] for i in range(m) if owner[i] == "point"]
    if points:
        cells[POINT_LABEL] = CircleIntervalSet((), points)
    return RotationCoding(alpha, cells, base), times


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_walk_matches_fraction_oracle(data):
    coding, times = data.draw(random_codings())
    centre = data.draw(st.sampled_from(times) | st.integers(-60, 60))
    lo = centre - data.draw(st.integers(0, 6))
    hi = centre + data.draw(st.integers(0, 6))
    want = [cell_symbol(coding, n) for n in range(lo, hi + 1)]
    assert coding.orbit_symbols(lo, hi) == want
    oracle = RotationOracle(coding)
    assert [oracle.value(n) for n in range(lo, hi + 1)] == want


def test_mixed_field_coding_rejected():
    # endpoints over sqrt(3) cannot be compared with an orbit over sqrt(5)
    cut = Q(-1, 1, 3)
    cell = CircleIntervalSet([Arc(Q(0), True, cut, False)])
    with pytest.raises(MismatchedFieldError):
        RotationCoding(ALPHA, {0: cell, 1: cell.complement()})


def test_rational_alpha_rejected():
    with pytest.raises(RationalAlphaError):
        RotationCoding(Q(F(1, 3)), {0: CircleIntervalSet([arc(0, True, 1, False)])})


def test_overlapping_cells_rejected():
    with pytest.raises(InputError):
        RotationCoding(ALPHA, {
            0: CircleIntervalSet([arc(0, True, "1/2", True)]),
            1: CircleIntervalSet([arc("1/2", True, 1, False)]),
        })


def test_uncovered_arc_rejected():
    with pytest.raises(InputError):
        RotationCoding(ALPHA, {0: CircleIntervalSet([arc(0, True, "1/2", False)])})


def test_uncovered_hit_point_rejected():
    # leaving out the single point alpha (hit at n=1) must fail validation
    with pytest.raises(InputError):
        RotationCoding(ALPHA, {
            0: CircleIntervalSet([Arc(Q(0), True, ALPHA, False)]),
            1: CircleIntervalSet([Arc(ALPHA, False, Q(1), False)]),
        })


# -- word loci -----------------------------------------------------------------------

def test_word_locus_single_symbol_is_the_cell(sturmian):
    J = word_locus(sturmian, WordPattern((0,), (0,)))
    assert J == sturmian.cells[0]


def test_word_locus_double_zero_is_the_point_alpha(sturmian):
    J = word_locus(sturmian, WordPattern((0, 1), (0, 0)))
    assert not J.has_interior()
    assert J.points == (ALPHA,)


def test_word_locus_122_is_zero(four_colouring):
    J = word_locus(four_colouring, WordPattern((0, 1, 2), (1, 2, 2)))
    assert not J.has_interior() and J.points == (Q(0),)


def test_locus_matches_windowed_occurrences_exhaustively(sturmian, four_colouring, third_interval):
    fixtures = [
        (sturmian, [WordPattern((0, 1), (0, 0)), WordPattern((0,), (1,)),
                    WordPattern((0, 1), (1, 0)), WordPattern((0, 2), (0, 0))]),
        (four_colouring, [WordPattern((0, 1, 2), (1, 2, 2)), WordPattern((0,), (2,)),
                          WordPattern((0, 1), (2, 2))]),
        (third_interval, [WordPattern((0,), (1,)), WordPattern((0, 1), (1, 1))]),
    ]
    for coding, words in fixtures:
        oracle = RotationOracle(coding)
        for word in words:
            occ = set(occurrences(oracle, word, -2000, 2000))
            J = word_locus(coding, word)
            for h in range(-2000, 2001):
                assert (h in occ) == J.contains(coding.orbit_point(h)), (coding.name, str(word), h)


# -- word classification --------------------------------------------------------------

def test_classify_double_zero_finite_once(sturmian):
    res = classify_word(sturmian, WordPattern((0, 1), (0, 0)))
    assert res.kind == "finite" and res.occurrences == [1]


def test_classify_cell_words_syndetic(sturmian):
    assert classify_word(sturmian, WordPattern((0,), (0,))).kind == "syndetic"
    assert classify_word(sturmian, WordPattern((0,), (1,))).kind == "syndetic"


def test_classify_empty(sturmian):
    # 0 at offsets 0,1,2 forces three consecutive lattice hits: impossible
    res = classify_word(sturmian, WordPattern((0, 1, 2), (0, 0, 0)))
    assert res.kind == "empty"


def test_finite_list_is_exhaustive_in_large_window(sturmian, four_colouring):
    for coding, word in [(sturmian, WordPattern((0, 1), (0, 0))),
                         (four_colouring, WordPattern((0, 1, 2), (1, 2, 2)))]:
        res = classify_word(coding, word)
        assert res.kind == "finite"
        occ = occurrences(RotationOracle(coding), word, -10**4, 10**4)
        assert occ == [h for h in res.occurrences if -10**4 <= h <= 10**4]


def test_syndetic_gap_sanity_bound(sturmian, third_interval):
    for coding, word in [(sturmian, WordPattern((0,), (0,))),
                         (third_interval, WordPattern((0,), (1,)))]:
        res = classify_word(coding, word)
        assert res.kind == "syndetic"
        length = res.locus.longest_arc_length()
        # ceil(1/len) computed exactly via the quadratic floor
        inv = length.inverse()
        ceil_inv = -((-inv).floor())
        occ = occurrences(RotationOracle(coding), word, -10**4, 10**4)
        gaps = [b - a for a, b in zip(occ, occ[1:])]
        assert max(gaps) <= 3 * ceil_inv


# -- boundary hits and strong dynamical syndeticity --------------------------------------

def test_boundary_hits_middle_third_empty(third_interval):
    assert boundary_hits(third_interval) == []


def test_boundary_hits_sturmian(sturmian):
    hits = boundary_hits(sturmian)
    assert [(n, p) for n, p, _ in hits] == [(1, ALPHA), (2, 2 * ALPHA)]
    assert all(sorted(labels) == [0, 1] for _, _, labels in hits)


def test_boundary_hits_four_colouring(four_colouring):
    hits = boundary_hits(four_colouring)
    assert [(n, p) for n, p, _ in hits] == [(0, Q(0)), (2, 2 * ALPHA)]


def test_sds_middle_third_true(third_interval):
    assert strongly_dyn_syndetic(third_interval, 1).strongly


def test_sds_sturmian_complement_false(sturmian):
    res = strongly_dyn_syndetic(sturmian, 1)
    assert not res.strongly
    assert [n for n, _ in res.bad_hits] == [1, 2]


def test_sds_c4_false_via_wraparound_point(four_colouring):
    res = strongly_dyn_syndetic(four_colouring, 4)
    assert not res.strongly
    assert [(n, p) for n, p in res.bad_hits] == [(0, Q(0))]


# -- minimality ---------------------------------------------------------------------------

def test_middle_third_minimal_by_empty_boundary(third_interval):
    res = classify_minimality(third_interval)
    assert res.minimal and res.hits == []


def test_sturmian_not_minimal_with_exact_witness(sturmian):
    res = classify_minimality(sturmian)
    assert not res.minimal
    assert res.witness.symbols == (0, 0) and res.witness.offsets == (0, 1)
    assert res.occurrences == [1]
    assert res.resonance_bound == 1


def test_four_colouring_not_minimal_but_every_colour_is(four_colouring):
    res = classify_minimality(four_colouring, scope="colouring")
    assert not res.minimal
    assert res.witness.symbols == (1, 2, 2) and res.witness.offsets == (0, 1, 2)
    assert res.occurrences == [0]
    assert res.locus.points == (Q(0),)
    assert sorted(res.per_label) == [1, 2, 3, 4]
    assert all(sub.minimal for sub in res.per_label.values())


def test_single_label_scope(four_colouring):
    assert classify_minimality(four_colouring, scope=4).minimal


def test_resonance_bounds(sturmian, four_colouring):
    assert resonance_bound(sturmian) == 1
    assert resonance_bound(four_colouring) == 2


def test_sds_true_implies_minimal_on_fixtures(sturmian, third_interval, four_colouring):
    checked = 0
    for coding in (sturmian, third_interval, four_colouring):
        for label in coding.labels():
            if strongly_dyn_syndetic(coding, label).strongly:
                assert classify_minimality(coding, scope=label).minimal, (coding.name, label)
                checked += 1
    assert checked > 0  # at least the middle-third cells qualify


def test_minimal_implies_verified_certificate(third_interval):
    res = classify_minimality(third_interval)
    assert res.minimal
    cert = uniform_recurrence_certificate(
        RotationOracle(third_interval), res.resonance_bound + 1, 10**4)
    assert cert.verdict == "verified"


def test_not_minimal_witness_has_single_window_occurrence(sturmian):
    res = classify_minimality(sturmian)
    occ = occurrences(RotationOracle(sturmian), res.witness, -10**4, 10**4)
    assert occ == res.occurrences


def test_closed_half_circle_with_hit_boundary_is_still_minimal():
    # no endpoint resonances: loci never pinch, so the single hit at 0 is harmless
    upper = CircleIntervalSet([arc(0, True, "1/2", True)])
    coding = RotationCoding(ALPHA, {1: upper, 0: upper.complement()})
    assert boundary_hits(coding) != []
    assert classify_minimality(coding).minimal


def test_engineered_resonance_refutes_via_long_word():
    # cell [0, 3*alpha] resonates with itself at offset 3: the word 0000 pins {0}
    big = CircleIntervalSet([Arc(Q(0), True, 3 * ALPHA, True)])
    coding = RotationCoding(ALPHA, {0: big, 1: big.complement()})
    res = classify_minimality(coding)
    assert not res.minimal
    assert res.witness.symbols == (0, 0, 0, 0)
    assert res.occurrences == [0]
