import copy
import math
import pickle
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, given, settings, strategies as st

from shiftlab.algebra import QuadraticNumber, frac_part, parse_quadratic, quadratic_floor, \
    quadratic_sign, solve_hit
from shiftlab.errors import InputError, MismatchedFieldError, RationalAlphaError
from shiftlab.rotation import (
    Arc,
    CircleIntervalSet,
    RotationCoding,
    SyndeticityResult,
    _block_convergent,
    boundary_hits,
    classify_minimality,
    classify_word,
    resonance_bound,
    strongly_dyn_syndetic,
    word_locus,
)
from shiftlab.zshift import RotationOracle, WordPattern, occurrences, uniform_recurrence_certificate

from circle_reference import contains, logical_arcs, split_arcs

Q = QuadraticNumber
F = Fraction
ALPHA = Q(-2, 1, 5)  # sqrt(5) - 2


def is_full_circle(s):
    """Whether the circle set s is the whole circle: no cut, one gap flag set."""
    return not s.cuts and s.in_gap[0]


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


# -- circle sets ------------------------------------------------------------------

def test_normalize_keeps_plain_arc():
    s = CircleIntervalSet([arc(0, True, "1/7", False)])
    assert len(split_arcs(s)) == 1 and not s.points


def test_normalize_merges_abutting_arcs():
    s = CircleIntervalSet([arc(0, True, "1/4", True), arc("1/4", False, "1/2", False)])
    assert len(split_arcs(s)) == 1
    a = split_arcs(s)[0]
    assert a.lo == Q(0) and a.hi == Q(F(1, 2)) and a.lo_closed and not a.hi_closed


def test_normalize_splits_wraparound_but_reports_whole():
    s = CircleIntervalSet([arc("6/7", False, "1/7", False)])
    assert len(split_arcs(s)) == 2  # split at 0
    logical = logical_arcs(s)
    assert len(logical) == 1
    assert logical[0].lo == Q(F(6, 7)) and logical[0].hi == Q(F(1, 7))


def test_normalize_absorbs_point_into_open_endpoint():
    s = CircleIntervalSet([arc(0, True, "1/4", False)], [Q(F(1, 4))])
    assert not s.points and split_arcs(s)[0].hi_closed


def test_normalize_degenerate_arcs():
    assert CircleIntervalSet([arc("1/3", True, "1/3", True)]).points == (Q(F(1, 3)),)
    assert CircleIntervalSet([arc("1/3", True, "1/3", False)]).is_empty()


def test_equivalent_representations_normalize_identically():
    via_wrap = CircleIntervalSet([Arc(2 * ALPHA, False, ALPHA, False)])
    via_pieces = CircleIntervalSet([Arc(Q(0), True, ALPHA, False),
                                    Arc(2 * ALPHA, False, Q(1), False)])
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
        assert contains(s, Q(probe)) == want, (arc_specs, point_specs, probe)


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
        assert contains(s, Q(probe)) != contains(c, Q(probe))


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
    s = CircleIntervalSet([Arc(*spec) for spec in arc_specs], point_specs)
    for a, b in zip(split_arcs(s), split_arcs(s)[1:]):
        # sorted, disjoint, and merged wherever they touch
        c = a.hi.compare(b.lo)
        assert c < 0 or (c == 0 and not a.hi_closed and not b.lo_closed), s
    c = s.complement()
    values = [e for lo, _, hi, _ in arc_specs for e in (lo, hi)] + point_specs
    for probe in _probes(values):
        want = any(_raw_member(probe, *spec) for spec in arc_specs) \
            or any(probe == p for p in point_specs)
        assert contains(s, probe) == want, (arc_specs, point_specs, probe)
        assert contains(c, probe) != want, (arc_specs, point_specs, probe)


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


# rationals (0 and 1 included) and multiples of alpha
seam_values = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=6).map(Q),
    st.integers(-4, 4).map(lambda k: frac_part(k * ALPHA)))


@st.composite
def circle_sets(draw):
    """(set, membership oracle, values): a union of raw arcs and points, or its
    complement.  This covers the empty and full sets, a circle minus one point
    (at 0 or elsewhere) and arcs ending on the seam written as 0 or as 1."""
    kind = draw(st.sampled_from(("union", "complement", "minus-point", "empty", "full")))
    arc_specs, point_specs = [], []
    if kind in ("union", "complement"):
        arc_specs = draw(st.lists(st.tuples(seam_values, st.booleans(), seam_values,
                                            st.booleans()), max_size=4))
        point_specs = draw(st.lists(seam_values, max_size=2))
    elif kind == "minus-point":
        point_specs = [draw(st.just(Q(0)) | seam_values)]
    s = CircleIntervalSet([Arc(*spec) for spec in arc_specs], point_specs)
    flip = kind in ("complement", "minus-point", "full")

    def member(x):
        inside = any(_raw_member(x, *spec) for spec in arc_specs) \
            or any(frac_part(x) == frac_part(p) for p in point_specs)
        return inside != flip

    values = [e for lo, _, hi, _ in arc_specs for e in (lo, hi)] + point_specs
    return (s.complement() if flip else s), member, values


@given(circle_sets(), circle_sets(), seam_values, st.booleans())
@settings(max_examples=400, deadline=None)
def test_rotate_intersect_and_complement_keep_membership(first, second, t, negate):
    # at every cut, at 0 and at each gap midpoint of both sets
    (s, in_s, s_values), (u, in_u, u_values) = first, second
    t = -t if negate else t
    rotated, meet, rest = s.rotate(t), s.intersect(u), s.complement()
    for x in _probes(s_values + u_values):
        assert contains(s, x) == in_s(x), (s, x)
        assert contains(rotated, x + t) == in_s(x), (s, t, rotated, x)
        assert contains(meet, x) == (in_s(x) and in_u(x)), (s, u, meet, x)
        assert contains(rest, x) != in_s(x), (s, rest, x)


def read_back(description):
    """The circle set a describe() output denotes, through the scenario value grammar."""
    return CircleIntervalSet(
        [Arc(parse_quadratic(a["lo"]), a["lo_closed"], parse_quadratic(a["hi"]), a["hi_closed"])
         for a in description["arcs"]],
        [parse_quadratic(p) for p in description["points"]])


@given(circle_sets(), seam_values)
@settings(max_examples=300, deadline=None)
def test_describe_reads_back_as_the_same_set(drawn, t):
    s = drawn[0]
    for shown in (s, s.rotate(t), s.complement()):
        assert read_back(shown.describe()) == shown, shown.describe()


# -- cell symbols -----------------------------------------------------------------

def orbit_point(coding, n):
    return frac_part(n * coding.alpha + coding.base)


def cell_symbol(coding, n):
    """Brute-force reference for coded symbols: the n-th orbit point in
    Fraction arithmetic, then exact cell membership."""
    x = orbit_point(coding, n)
    for label in coding.labels():
        if contains(coding.cells[label], x):
            return label
    raise AssertionError(f"orbit point at n={n} ({x}) lies in no cell")


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
    k*alpha + base, the last also with cuts 1/10^5 to one or both sides of
    it, random closure at each cut (left arc, right arc, or an
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
        kind = draw(st.sampled_from(("rational", "multiple", "hit", "near")))
        if kind == "rational":
            q = draw(st.sampled_from((2, 5, 12)))
            new = [Q(F(draw(st.integers(0, q - 1)), q))]
        else:
            k = draw(st.integers(-4, 4))
            cut = frac_part(k * alpha + (base if kind != "multiple" else 0))
            if kind != "multiple":
                times.append(k)
            # a hit cut and its neighbours 1/10^5 away
            new = [cut] + ([frac_part(cut + Q(F(sign, 10**5))) for sign in
                             draw(st.sampled_from(((1,), (-1,), (1, -1))))] if kind == "near" else [])
        cuts += [cut for cut in new if all(cut != other for other in cuts)]
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


def per_arc_walk(coding, lo, hi):
    """Second reference for coded symbols: the integer orbit walk that tests
    every arc and point of every label at each step, with no breakpoint table."""
    labels = coding.labels()
    cells = [coding.cells[label] for label in labels]
    D = math.lcm(coding.alpha.c, coding.base.c,
                 *(e.c for cell in cells for a in split_arcs(cell) for e in (a.lo, a.hi)),
                 *(p.c for cell in cells for p in cell.points))

    def enc(x):
        return (x.a * (D // x.c), x.b * (D // x.c))

    d, (ap, aq), (bp, bq) = coding.alpha.d, enc(coding.alpha), enc(coding.base)
    table = []
    for label, cell in zip(labels, cells):
        arcs = [(enc(a.lo), a.lo_closed, enc(a.hi), a.hi_closed) for a in split_arcs(cell)]
        seam = any(a.hi_closed and enc(a.hi) == (D, 0) for a in split_arcs(cell))
        table.append((label, arcs, [enc(p) for p in cell.points], seam))
    p, q = lo * ap + bp, lo * aq + bq
    p -= quadratic_floor(p, q, D, d) * D
    out = []
    for n in range(lo, hi + 1):
        found = None
        for label, arcs, pts, seam in table:
            inside = (p, q) == (0, 0) and seam
            for (lp, lq), lo_cl, (hp, hq), hi_cl in arcs:
                c_lo, c_hi = quadratic_sign(p - lp, q - lq, d), quadratic_sign(p - hp, q - hq, d)
                if (c_lo > 0 or (c_lo == 0 and lo_cl)) and (c_hi < 0 or (c_hi == 0 and hi_cl)):
                    inside = True
            if inside or (p, q) in pts:
                found = label
                break
        if found is None:
            raise AssertionError(f"orbit point at n={n} (({p}+{q}*sqrt({d}))/{D}) lies in no cell")
        out.append(found)
        p, q = p + ap, q + aq
        if quadratic_sign(p - D, q, d) >= 0:
            p -= D
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_breakpoint_walk_matches_per_arc_walk_at_hit_times(data):
    # windows that start at, end at or consist of a time when the orbit meets
    # an isolated point, an arc endpoint or the seam
    coding, times = data.draw(random_codings())
    t = data.draw(st.sampled_from(times))
    width = data.draw(st.integers(0, 40))
    lo, hi = data.draw(st.sampled_from(((t, t + width), (t - width, t), (t, t))))
    want = per_arc_walk(coding, lo, hi)
    assert coding.orbit_symbols(lo, hi) == want
    assert [cell_symbol(coding, n) for n in (lo, hi)] == [want[0], want[-1]]
    assert [coding.orbit_symbols(n, n) for n in (lo, hi)] == [[want[0]], [want[-1]]]


def test_breakpoint_walk_matches_per_arc_walk_over_long_windows(sturmian, four_colouring,
                                                                  third_interval):
    for coding in (sturmian, four_colouring, third_interval):
        for lo, hi in ((-3000, 3000), (10**9, 10**9 + 500), (-10**12 - 500, -10**12)):
            assert coding.orbit_symbols(lo, hi) == per_arc_walk(coding, lo, hi)


def walk_oracle(coding, lo, hi):
    """Third reference for coded symbols: the breakpoint-table walk alone, one
    step per symbol, as ``orbit_symbols`` reads windows too short for blocks."""
    D, d, (ap, aq), (bp, bq), cuts, at_point, in_gap = coding._table
    last = len(cuts) - 1
    p, q = lo * ap + bp, lo * aq + bq
    p -= quadratic_floor(p, q, D, d) * D
    out = []
    j = 0
    (cur_p, cur_q), (next_p, next_q) = cuts[0], cuts[1]
    for _ in range(lo, hi + 1):
        while True:
            u, v = p - next_p, q - next_q
            if u < 0:
                if v <= 0 or u * u > v * v * d:
                    break
            elif v < 0 and u * u < v * v * d:
                break
            j += 1
            if j == last:
                p -= D
                j = 0
            (cur_p, cur_q), (next_p, next_q) = cuts[j], cuts[j + 1]
        out.append(at_point[j] if p == cur_p and q == cur_q else in_gap[j])
        p += ap
        q += aq
    return out


def convergents(alpha, top):
    """The convergents p/q of alpha with q <= top, by QuadraticNumber arithmetic."""
    out, x = [], alpha
    (p0, q0), (p1, q1) = (0, 1), (1, 0)
    while True:
        a = x.floor()
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        if q1 > top:
            return out
        out.append((p1, q1))
        x = (x - a).inverse()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_length_is_the_largest_even_convergent_in_range(data):
    coding, _ = data.draw(random_codings())
    m, n = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 5000))
    top = math.isqrt(n * m)
    even = [(p, q) for i, (p, q) in enumerate(convergents(coding.alpha, top))
            if i % 2 == 0 and q >= max(m, 2)]
    got = _block_convergent(coding._table, n, m)
    assert got == (even[-1] if even else None)
    if got:
        assert got[1] * coding.alpha - got[0] > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_copies_match_the_walk(data):
    # windows of a few hundred to a few thousand symbols, so most take blocks:
    # ending on a block boundary, one past it or one short of it; starting at a
    # time the orbit meets a cut or the seam, a whole number of blocks before
    # one (a later block lands on that cut), far out, or anywhere
    coding, times = data.draw(random_codings())
    m = len(coding._table[4]) - 1
    n = data.draw(st.integers(300, 3000))
    convergent = _block_convergent(coding._table, n, m)
    block = convergent[1] if convergent else 1
    n = max(1, n // block * block + data.draw(st.sampled_from((0, 0, 1, -1, block // 2))))
    t = data.draw(st.sampled_from(times))
    lo = data.draw(st.sampled_from((t, t - block * data.draw(st.integers(1, 5)), t - n + 1))
                   | st.integers(-10**6, 10**6) | st.sampled_from((10**12, -10**12 - 7)))
    assert coding.orbit_symbols(lo, lo + n - 1) == walk_oracle(coding, lo, lo + n - 1)
    assert coding.orbit_symbols(lo, lo - data.draw(st.integers(1, 3000))) == []


def test_block_copies_match_the_walk_on_the_repro_codings(sturmian, four_colouring,
                                                          third_interval):
    for coding in (sturmian, four_colouring, third_interval):
        for lo in (-100_000, 10**9):
            assert coding.orbit_symbols(lo, lo + 200_000) == walk_oracle(coding, lo, lo + 200_000)


def test_block_copies_cost_under_a_quarter_of_the_walk(four_colouring):
    def best(read):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            read(-100_000, 100_000)
            times.append(time.perf_counter() - start)
        return min(times)

    walk = best(lambda lo, hi: walk_oracle(four_colouring, lo, hi))
    assert best(four_colouring.orbit_symbols) < walk / 4


def test_coding_is_frozen_and_keeps_its_own_cells():
    # alpha is its own cell, which the orbit meets at n = 1; neither the
    # coding nor the caller's dict can take that cell away after validation
    cells = {0: CircleIntervalSet([Arc(Q(0), True, ALPHA, False)]),
             1: CircleIntervalSet([Arc(ALPHA, False, Q(1), False)]),
             2: CircleIntervalSet((), [ALPHA])}
    coding = RotationCoding(ALPHA, cells)
    symbols = coding.orbit_symbols(-5, 5)
    locus = word_locus(coding, WordPattern((0,), (2,)))
    assert symbols == per_arc_walk(coding, -5, 5) and symbols[6] == 2
    with pytest.raises(FrozenInstanceError):
        coding.alpha = 2 * ALPHA
    with pytest.raises(TypeError):
        del coding.cells[2]
    del cells[2]
    cells[0] = CircleIntervalSet([Arc(Q(0), True, Q(1), False)])
    assert coding.orbit_symbols(-5, 5) == symbols
    assert word_locus(coding, WordPattern((0,), (2,))) == locus == CircleIntervalSet((), [ALPHA])


def test_circle_sets_are_immutable_and_still_pickle():
    # emptying the point cell {alpha} used to leave orbit_symbols reading 2
    # at n = 1 while word_locus of "2" became empty
    coding = RotationCoding(ALPHA, {0: CircleIntervalSet([Arc(Q(0), True, ALPHA, False)]),
                                    1: CircleIntervalSet([Arc(ALPHA, False, Q(1), False)]),
                                    2: CircleIntervalSet((), [ALPHA])})
    cell = coding.cells[2]
    for name in ("points", "cuts", "at_cut", "in_gap"):
        with pytest.raises(AttributeError):
            setattr(cell, name, ())
        with pytest.raises(AttributeError):
            delattr(cell, name)
    assert cell.points == (ALPHA,) and not split_arcs(cell)
    assert coding.orbit_symbols(0, 2) == [0, 2, 1]
    assert word_locus(coding, WordPattern((0,), (2,))) == CircleIntervalSet((), [ALPHA])
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for s in (cell, coding.cells[1], CircleIntervalSet()):
            twin = clone(s)
            assert twin == s and (split_arcs(twin), twin.points) == (split_arcs(s), s.points)
            with pytest.raises(AttributeError):
                twin.points = ()


def test_colouring_scope_builds_one_table_per_coding(monkeypatch, four_colouring):
    # the coding's own table at construction, then one per indicator coding
    built = []
    build = RotationCoding._integer_form

    def counting(coding):
        built.append(coding.name)
        return build(coding)

    monkeypatch.setattr(RotationCoding, "_integer_form", counting)
    coding = RotationCoding(ALPHA, four_colouring.cells, name="four")
    assert not classify_minimality(coding, scope="colouring").minimal
    assert built == ["four"] + [f"four[{label}]" for label in coding.labels()]


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
    # an overlap is named at its first slot from 0, a cut before the gap after it
    for cells, message in (
        ({0: arc("1/3", True, "1/2", True), 1: arc("1/4", True, "3/4", False)},
         "cells 0 and 1 overlap at 1/3"),
        # the cells meet only in the last gap, from 3/4 up to the seam; cell 1 wraps through 0
        ({0: arc("2/3", False, 1, False), 1: arc("3/4", False, "1/4", False)},
         "cells 0 and 1 overlap on the gap after 3/4"),
    ):
        with pytest.raises(InputError) as caught:
            RotationCoding(ALPHA, {label: CircleIntervalSet([a]) for label, a in cells.items()})
        assert str(caught.value) == message


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


@st.composite
def seeded_codings(draw):
    """A coding cut at k/12 and at multiples of alpha, with 2-3 labels.

    Each gap between neighbouring cuts takes a drawn label, and each cut
    closes the arc on its left, the arc on its right, or is a point of a
    drawn label of its own."""
    alpha = draw(st.sampled_from((ALPHA, ROOT2_ALPHA)))
    cuts = []
    for _ in range(draw(st.integers(2, 5))):
        if draw(st.booleans()):
            cut = Q(F(draw(st.integers(0, 11)), 12))
        else:
            cut = frac_part(draw(st.integers(-4, 4)) * alpha)
        if all(cut != other for other in cuts):
            cuts.append(cut)
    assume(len(cuts) >= 2)
    cuts.sort(key=BY_VALUE)
    labels = range(draw(st.integers(2, 3)))
    m = len(cuts)
    owner = [draw(st.sampled_from(("left", "right", "point"))) for _ in range(m)]
    arcs, points = {label: [] for label in labels}, {label: [] for label in labels}
    for i in range(m):
        arcs[draw(st.sampled_from(labels))].append(
            Arc(cuts[i], owner[i] == "right", cuts[(i + 1) % m], owner[(i + 1) % m] == "left"))
        if owner[i] == "point":
            points[draw(st.sampled_from(labels))].append(cuts[i])
    return RotationCoding(alpha, {label: CircleIntervalSet(arcs[label], points[label])
                                  for label in labels})


@given(seeded_codings())
@settings(max_examples=150, deadline=None)
def test_partition_table_labels_each_slot_with_the_cell_holding_it(coding):
    D, d, _, _, cuts, at_point, in_gap = coding._table
    values = [Q(F(p, D), F(q, D), d) for p, q in cuts]  # the last is the seam, 1

    def holder(x):
        (label,) = [label for label in coding.labels() if contains(coding.cells[label], x)]
        return label

    assert len(at_point) == len(in_gap) == len(values) - 1
    for j, label in enumerate(at_point):
        assert holder(values[j]) == label
        assert holder((values[j] + values[j + 1]) * F(1, 2)) == in_gap[j]


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
                assert (h in occ) == contains(J, orbit_point(coding, h)), \
                    (coding.name, str(word), h)


# -- word classification --------------------------------------------------------------

def longest_arc_length(s):
    """Length of the longest arc of a circle set, an arc across the seam counted whole."""
    if is_full_circle(s):
        return Q(1)
    # a wrapped arc has hi < lo, and its length is hi + 1 - lo
    lengths = [a.hi - a.lo for a in logical_arcs(s)]
    return max((l + 1 if l.sign() < 0 else l for l in lengths), key=BY_VALUE)

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
        length = longest_arc_length(res.locus)
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


# -- set-algebra references for the partition table --------------------------------------

def reference_validate(alpha, cells, base):
    """Validation by set algebra: pairwise intersections, then the complement
    of the union, whose points must all be missed by the orbit."""
    labels = sorted(cells, key=str)
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1:]:
            inter = cells[l1].intersect(cells[l2])
            if not inter.is_empty():
                raise InputError(f"cells {l1!r} and {l2!r} overlap: {inter!r}")
    union = CircleIntervalSet(
        [a for c in cells.values() for a in split_arcs(c)],
        [p for c in cells.values() for p in c.points],
    )
    uncovered = union.complement()
    if uncovered.has_interior():
        raise InputError(f"cells leave an uncovered arc: {uncovered!r}")
    for p in uncovered.points:
        if solve_hit(alpha, p - base) is not None:
            raise InputError(f"uncovered point {p} is hit by the orbit")


def reference_boundary_points(cell):
    """Endpoints of the cell's logical arcs plus its isolated points, deduplicated."""
    if is_full_circle(cell):
        return list(cell.points)
    out = []
    for a in logical_arcs(cell):
        for p in (a.lo, a.hi):
            p = frac_part(p)
            if all(p != q for q in out):
                out.append(p)
    for p in cell.points:
        if all(p != q for q in out):
            out.append(p)
    return sorted(out, key=BY_VALUE)


def reference_boundary_hits(coding):
    boundaries = {label: reference_boundary_points(coding.cells[label])
                  for label in coding.labels()}
    seen = []
    for label in coding.labels():
        for p in boundaries[label]:
            if all(p != q for q in seen):
                seen.append(p)
    out = []
    for p in seen:
        n = solve_hit(coding.alpha, p - coding.base)
        if n is None:
            continue
        adjacent = [label for label in coding.labels()
                    if any(p == q for q in boundaries[label])
                    or contains(coding.cells[label], p)]
        out.append((n, p, adjacent))
    out.sort(key=lambda t: t[0])
    return out


def reference_resonance_bound(coding):
    pts = []
    for label in coding.labels():
        for p in reference_boundary_points(coding.cells[label]) + list(coding.cells[label].points):
            if all(p != q for q in pts):
                pts.append(p)
    M = 0
    for e1 in pts:
        for e2 in pts:
            m = solve_hit(coding.alpha, e1 - e2)
            if m is not None:
                M = max(M, abs(m))
    return M


def reference_strongly_dyn_syndetic(coding, label):
    bad = []
    for p in reference_boundary_points(coding.cells[label]):
        n = solve_hit(coding.alpha, p - coding.base)
        if n is not None:
            bad.append((n, p))
    return SyndeticityResult(strongly=not bad, bad_hits=bad)


@st.composite
def partition_inputs(draw):
    """(alpha, cells, base) for a coding cut at rationals (0 included), at
    k*alpha and at orbit points k*alpha + base.  Each cut goes to the arc on
    its left, the arc on its right, an isolated-point cell or no cell (a
    point left uncovered, which the orbit meets only at an orbit-point cut);
    the arc through the seam crosses it, or ends on it written as 0 or as 1.
    Some draws then drop one arc (an uncovered arc) or add one arc or point
    to a cell (usually an overlap)."""
    d = draw(st.sampled_from((2, 3, 5, 7)))
    c = draw(st.sampled_from((1, 2, 3)))
    alpha = frac_part(Q(F(draw(st.integers(-3, 3)), c), F(draw(st.sampled_from((1, -1, 2))), c), d))
    base = draw(st.sampled_from((Q(0), Q(F(3, 7)), frac_part(draw(st.integers(-4, 4)) * alpha))))
    cuts = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(("rational", "multiple", "hit")))
        if kind == "rational":
            q = draw(st.sampled_from((1, 2, 5, 12)))
            cut = Q(F(draw(st.integers(0, q - 1)), q))
        else:
            k = draw(st.integers(-4, 4))
            cut = frac_part(k * alpha + (base if kind == "hit" else 0))
        if all(cut != other for other in cuts):
            cuts.append(cut)
    assume(len(cuts) >= 2)
    cuts.sort(key=BY_VALUE)
    m = len(cuts)
    owner = [draw(st.sampled_from(("left", "right", "point", "none"))) for _ in range(m)]
    pieces = []
    for i in range(m):
        hi = cuts[(i + 1) % m]
        if hi == Q(0) and draw(st.booleans()):
            hi = Q(1)  # the same arc end, written as the seam approached from below
        piece = Arc(cuts[i], owner[i] == "right", hi, owner[(i + 1) % m] == "left")
        pieces.append((draw(st.integers(0, 2)), piece))
    points = [(draw(st.sampled_from((POINT_LABEL, 0))), cuts[i])
              for i in range(m) if owner[i] == "point"]
    mutation = draw(st.sampled_from(("none", "none", "drop", "arc", "point")))
    values = cuts + [Q(F(draw(st.integers(0, 11)), 12))]
    if mutation == "drop":
        del pieces[draw(st.integers(0, m - 1))]
    elif mutation == "arc":
        lo, hi = draw(st.sampled_from(values)), draw(st.sampled_from(values + [Q(1)]))
        pieces.append((draw(st.integers(0, 2)),
                       Arc(lo, draw(st.booleans()), hi, draw(st.booleans()))))
    elif mutation == "point":
        points.append((draw(st.sampled_from((0, 1, 2, POINT_LABEL))), draw(st.sampled_from(values))))
    arcs_of, points_of = {}, {}
    for label, piece in pieces:
        arcs_of.setdefault(label, []).append(piece)
    for label, p in points:
        points_of.setdefault(label, []).append(p)
    cells = {label: CircleIntervalSet(arcs_of.get(label, ()), points_of.get(label, ()))
             for label in {*arcs_of, *points_of}}
    return alpha, cells, base


def _same_partition_answers(coding):
    reference_validate(coding.alpha, coding.cells, coding.base)

    def shown(hits):
        return [(n, str(p), labels) for n, p, labels in hits]

    assert shown(boundary_hits(coding)) == shown(reference_boundary_hits(coding))
    assert resonance_bound(coding) == reference_resonance_bound(coding)
    for label in coding.labels():
        got, want = (f(coding, label) for f in (strongly_dyn_syndetic,
                                                reference_strongly_dyn_syndetic))
        assert got.strongly == want.strongly, label
        assert [(n, str(p)) for n, p in got.bad_hits] == [(n, str(p)) for n, p in want.bad_hits]


@settings(max_examples=400, deadline=None)
@given(partition_inputs())
def test_partition_table_matches_set_algebra(inputs):
    # accept/reject agreement with set-algebra validation, then the same
    # boundary hits, resonance bound and per-label syndeticity, on the coding
    # and on each of its indicator codings
    alpha, cells, base = inputs
    try:
        reference_validate(alpha, cells, base)
        rejected = None
    except InputError as exc:
        rejected = exc
    try:
        coding = RotationCoding(alpha, dict(cells), base)
    except InputError as exc:
        assert rejected is not None, (cells, exc)
        return
    assert rejected is None, (cells, rejected)
    for c in [coding] + [coding.indicator(label) for label in coding.labels()]:
        _same_partition_answers(c)
