"""Exact analysis of rotation-coded sequences.

A coding assigns a label to each point of the orbit {n*alpha + base} of an
irrational rotation, via a partition of the circle into finite unions of
arcs (with exact quadratic endpoints and explicit closure flags) plus
possibly isolated points.  Everything here is decided exactly: where a
word occurs (its locus on the circle), whether a word occurs syndetically
or finitely, which boundary points the orbit hits, and whether the coded
set or colouring is minimal.

A circle set is a breakpoint table: its cuts, sorted in [0, 1), one flag
per cut and one flag per open gap up to the next cut, where the last gap
runs through 0 to the first cut.  A cut is kept only where membership
changes, so equal sets have equal tables, and 0 is a point like any
other.  Complement flips the flags, intersection merges the cut lists and
ANDs the flags, and rotation moves every cut and restarts the list at the
least one.  A coding's partition is a table of the same kind, with a label
where a set has a flag.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cmp_to_key
from operator import attrgetter
from types import MappingProxyType

from .algebra import QuadraticNumber, _reduced, frac_part, quadratic_floor, quadratic_sign, \
    solve_hit, symbol_key
from .errors import InputError, MismatchedFieldError, RationalAlphaError

Q0 = QuadraticNumber(0)
Q1 = QuadraticNumber(1)

# the exact order of values, and a key by integers: hashing a rational value
# would build a Fraction
_BY_VALUE = cmp_to_key(lambda x, y: x.compare(y))
_key = attrgetter("a", "b", "c", "d")
_set = object.__setattr__


@dataclass(frozen=True)
class Arc:
    """An arc lo..hi with explicit endpoint closure; hi < lo wraps through 0."""

    lo: QuadraticNumber
    lo_closed: bool
    hi: QuadraticNumber
    hi_closed: bool


def _span(i, k, m):
    """The open arc from cut i to cut k of a table of m cuts, as index lists.

    It holds the gaps i, ..., k - 1 and the cuts i + 1, ..., k - 1, counted
    cyclically; from a cut to itself it is the whole circle but that cut.
    """
    gaps = [(i + s) % m for s in range((k - i) % m or m)]
    return gaps, gaps[1:]


class CircleIntervalSet:
    """A finite union of arcs and isolated points on the circle, as a breakpoint table.

    ``cuts`` are sorted in [0, 1); ``at_cut[j]`` says whether cut j is in
    the set and ``in_gap[j]`` whether the open gap from cut j to the next
    one is, the last gap running through 0.  Only cuts where membership
    changes are kept; with no cut, ``in_gap`` is one flag for the whole
    circle.  Immutable.
    """

    __slots__ = ("cuts", "at_cut", "in_gap")

    def __init__(self, arcs=(), points=()):
        """The union of the arcs, each an ``Arc`` or a (lo, lo_closed, hi,
        hi_closed) tuple, and the points.

        hi written as exactly 1 means the arc runs up to the seam (the point
        0 approached from below).  Otherwise endpoints reduce mod 1, and the
        arc runs up from lo to hi, through 0 when hi is below lo; hi == lo
        with both flags closed is a single point, and with an open flag the
        arc is empty.
        """
        spans, singles = [], [frac_part(p) for p in points]
        for a in arcs:
            if not isinstance(a, Arc):
                a = Arc(*a)
            lo, hi = frac_part(a.lo), frac_part(a.hi)
            if lo != hi or a.hi == Q1:
                spans.append((lo, a.lo_closed, hi, a.hi_closed))
            elif a.lo_closed and a.hi_closed:
                singles.append(lo)
        ends = [x for s in spans for x in (s[0], s[2])] + singles
        cuts = sorted({_key(x): x for x in ends}.values(), key=_BY_VALUE)
        index = {_key(x): j for j, x in enumerate(cuts)}
        m = len(cuts)
        at_cut, in_gap = [False] * m, [False] * max(m, 1)
        for lo, lo_closed, hi, hi_closed in spans:
            i, k = index[_key(lo)], index[_key(hi)]
            gaps, inside = _span(i, k, m)
            for j in gaps:
                in_gap[j] = True
            for j in inside:
                at_cut[j] = True
            if lo_closed:
                at_cut[i] = True
            if hi_closed:
                at_cut[k] = True
        for x in singles:
            at_cut[index[_key(x)]] = True
        _store(self, cuts, at_cut, in_gap)

    def __setattr__(self, *a):
        raise AttributeError("CircleIntervalSet is immutable")

    __delattr__ = __setattr__

    # copy and pickle would restore the slots through __setattr__
    def __reduce__(self):
        return _from_table, (self.cuts, self.at_cut, self.in_gap)

    # -- basic predicates --

    def is_empty(self) -> bool:
        return not self.cuts and not self.in_gap[0]

    def is_full_circle(self) -> bool:
        return not self.cuts and self.in_gap[0]

    def has_interior(self) -> bool:
        return any(self.in_gap)

    def contains(self, x: QuadraticNumber) -> bool:
        x = frac_part(x)
        j = bisect_right(self.cuts, x) - 1
        # below the first cut, x lies in the last gap (j = -1)
        return self.at_cut[j] if j >= 0 and self.cuts[j] == x else self.in_gap[j]

    # -- views of the table --

    @property
    def points(self):
        """The isolated points, in increasing order."""
        gap = self.in_gap
        return tuple(x for j, x in enumerate(self.cuts)
                     if self.at_cut[j] and not gap[j - 1] and not gap[j])

    def logical_arcs(self):
        """The arcs, one per gap in the set; a wrapped arc has hi < lo.

        An arc ending at the cut 0 from below is written with hi = 1, and
        the circle minus one point p != 0 is the arc (p, p).
        """
        cuts, at = self.cuts, self.at_cut
        if not cuts:
            return [Arc(Q0, True, Q1, False)] if self.in_gap[0] else []
        out = []
        for j, inside in enumerate(self.in_gap):
            if inside:
                k = (j + 1) % len(cuts)
                hi = Q1 if k == 0 and cuts[0] == Q0 else cuts[k]
                out.append(Arc(cuts[j], at[j], hi, at[k]))
        return out

    @property
    def arcs(self):
        """The arcs as pieces inside [0, 1] sorted by lo; one wrapping
        through 0 is split there into [0, hi) and (lo, 1)."""
        arcs = self.logical_arcs()
        if arcs and arcs[-1].hi.compare(arcs[-1].lo) <= 0:
            a = arcs.pop()
            arcs = [Arc(Q0, True, a.hi, a.hi_closed), *arcs, Arc(a.lo, a.lo_closed, Q1, False)]
        return tuple(arcs)

    # -- set algebra --

    def complement(self) -> "CircleIntervalSet":
        return _from_table(self.cuts, [not f for f in self.at_cut],
                           [not f for f in self.in_gap])

    def intersect(self, other: "CircleIntervalSet") -> "CircleIntervalSet":
        xs, ys = self.cuts, other.cuts
        cuts, at_cut, in_gap = [], [], []
        i = j = 0
        while i < len(xs) or j < len(ys):
            c = -1 if j == len(ys) else 1 if i == len(xs) else xs[i].compare(ys[j])
            # a cut of one set only lies in the other's gap before its next cut
            at_cut.append((self.at_cut[i] if c <= 0 else self.in_gap[i - 1])
                          and (other.at_cut[j] if c >= 0 else other.in_gap[j - 1]))
            cuts.append(xs[i] if c <= 0 else ys[j])
            i += c <= 0
            j += c >= 0
            in_gap.append(self.in_gap[i - 1] and other.in_gap[j - 1])
        return _from_table(cuts, at_cut, in_gap or [self.in_gap[0] and other.in_gap[0]])

    def rotate(self, t: QuadraticNumber) -> "CircleIntervalSet":
        """The set translated by t on the circle."""
        if not self.cuts:
            return self
        moved = [x + t for x in self.cuts]
        floors = [x.floor() for x in moved]
        # the moved cuts keep their cyclic order; those that passed one more
        # integer than the first cut did come first
        r = floors.index(floors[-1])
        cuts = [x - f for x, f in zip(moved, floors)]
        return _from_table(cuts[r:] + cuts[:r], self.at_cut[r:] + self.at_cut[:r],
                           self.in_gap[r:] + self.in_gap[:r])

    # -- equality / display --

    def __eq__(self, other):
        return isinstance(other, CircleIntervalSet) and \
            (self.cuts, self.at_cut, self.in_gap) == (other.cuts, other.at_cut, other.in_gap)

    def __hash__(self):
        return hash((self.cuts, self.at_cut, self.in_gap))

    def _shown_arcs(self):
        # the arc (p, p) of a circle minus one point p != 0 would read back as
        # empty, so it shows as its two pieces at the seam
        if len(self.cuts) == 1 and self.in_gap[0] and self.cuts[0] != Q0:
            return self.arcs
        return self.logical_arcs()

    def describe(self):
        """JSON-friendly exact description with endpoint strings."""
        arcs = [{"lo": str(a.lo), "lo_closed": a.lo_closed,
                 "hi": str(a.hi), "hi_closed": a.hi_closed}
                for a in self._shown_arcs()]
        return {"arcs": arcs, "points": [str(p) for p in self.points]}

    def __repr__(self):
        bits = [f"{'[' if a.lo_closed else '('}{a.lo},{a.hi}{']' if a.hi_closed else ')'}"
                for a in self._shown_arcs()]
        bits += [f"{{{p}}}" for p in self.points]
        return "Circle(" + " u ".join(bits) + ")" if bits else "Circle(empty)"


def _store(s, cuts, at_cut, in_gap):
    """Give s the table, less every cut where membership does not change."""
    keep = [j for j in range(len(cuts)) if not at_cut[j] == in_gap[j - 1] == in_gap[j]]
    if len(keep) < len(cuts):
        # a dropped cut has equal gaps on both sides, so each kept cut keeps its own
        cuts, at_cut = [cuts[j] for j in keep], [at_cut[j] for j in keep]
        in_gap = [in_gap[j] for j in keep] or in_gap[:1]
    _set(s, "cuts", tuple(cuts))
    _set(s, "at_cut", tuple(at_cut))
    _set(s, "in_gap", tuple(in_gap))


def _from_table(cuts, at_cut, in_gap) -> CircleIntervalSet:
    s = object.__new__(CircleIntervalSet)
    _store(s, cuts, at_cut, in_gap)
    return s


# ---------------------------------------------------------------------------
# Rotation codings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationCoding:
    """alpha (irrational, reduced mod 1), labelled disjoint cells, base point.

    Cells need only cover the orbit of the base point: the uncovered part of
    the circle must be a finite set of points, each verified never hit.  A
    coding is frozen: ``cells`` is a read-only view of a private copy of the
    mapping it was given, and ``validate`` builds the breakpoint table once
    and keeps it for every later read.  ``copy`` and ``pickle`` rebuild a
    coding through the constructor, so a copy is validated too.
    """

    alpha: QuadraticNumber
    cells: MappingProxyType      # label -> CircleIntervalSet
    base: QuadraticNumber = field(default_factory=lambda: Q0)
    name: str = "coding"
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.alpha.is_rational:
            raise RationalAlphaError()
        object.__setattr__(self, "alpha", frac_part(self.alpha))
        object.__setattr__(self, "base", frac_part(self.base))
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        self.validate()

    def __reduce__(self):
        return RotationCoding, (self.alpha, dict(self.cells), self.base, self.name)

    def validate(self):
        # the integer orbit walk reads every value as a pair over alpha's field
        for x in (self.base, *(x for c in self.cells.values() for x in c.cuts)):
            if x.d and x.d != self.alpha.d:
                raise MismatchedFieldError(self.alpha.d, x.d)
        table = self._integer_form()  # rejects overlaps
        D, d, _, _, cuts, at_point, in_gap = table
        for j, label in enumerate(in_gap):
            if label is None:
                raise InputError(f"cells leave an uncovered arc: "
                                 f"({_reduced(*cuts[j], D, d)}, {_reduced(*cuts[j + 1], D, d)})")
        for (p, q), label in zip(cuts, at_point):
            if label is None:
                x = _reduced(p, q, D, d)
                if solve_hit(self.alpha, x - self.base) is not None:
                    raise InputError(f"uncovered point {x} is hit by the orbit")
        object.__setattr__(self, "_table", table)

    def labels(self):
        return sorted(self.cells, key=symbol_key)

    def _integer_form(self):
        """Integer form of the coding over a common denominator, as a breakpoint table.

        Every relevant value (a + b*sqrt(d))/c is rescaled to D = lcm of all
        the c's, as the integer pair (a*D/c, b*D/c).  The breakpoints are 0
        and every cut of every cell, sorted by exact sign tests and closed by
        the sentinel (D, 0) for the seam.  Each breakpoint gets the label of
        the cell holding it, and so does each open gap up to the next
        breakpoint, read off the cells' own tables; None marks a point or gap
        no cell holds, and one that two cells claim is an InputError.  This
        is the coding's one description of its partition: ``validate`` builds
        it once and keeps it as ``_table``, which every later question reads.
        """
        labels = self.labels()
        cells = [self.cells[label] for label in labels]
        D = math.lcm(self.alpha.c, self.base.c, *(x.c for cell in cells for x in cell.cuts))
        d = self.alpha.d

        def enc(x):
            k = D // x.c
            return (x.a * k, x.b * k)

        # a cell with no cut is read as cut at 0, with its one flag on both sides
        tables = [(label, [enc(x) for x in cell.cuts] or [(0, 0)],
                   cell.at_cut or cell.in_gap, cell.in_gap)
                  for label, cell in zip(labels, cells)]
        cuts = sorted({(0, 0), *(x for table in tables for x in table[1])}, key=cmp_to_key(
            lambda x, y: quadratic_sign(x[0] - y[0], x[1] - y[1], d)))
        m = len(cuts)
        index = {x: k for k, x in enumerate(cuts)}
        at_point, in_gap = [None] * m, [None] * m

        def claim(slots, j, label):
            if slots[j] is not None:
                where = "on the gap after" if slots is in_gap else "at"
                raise InputError(f"cells {slots[j]!r} and {label!r} overlap {where} "
                                 f"{_reduced(*cuts[j], D, d)}")
            slots[j] = label

        for label, own, at_cut, gap in tables:
            own = [index[x] for x in own]
            for j, i in enumerate(own):
                if at_cut[j]:
                    claim(at_point, i, label)
                if gap[j]:
                    gaps, inside = _span(i, own[(j + 1) % len(own)], m)
                    for k in gaps:
                        claim(in_gap, k, label)
                    for k in inside:
                        claim(at_point, k, label)
        return (D, d, enc(self.alpha), enc(self.base), (*cuts, (D, 0)), tuple(at_point),
                tuple(in_gap))

    def orbit_symbols(self, lo: int, hi: int):
        """Exact coded symbols for n = lo..hi via an incremental orbit walk.

        The walk starts from x = D*{lo*alpha + base} as an integer pair, its
        floor taken from one integer square root; each further point is an
        integer-pair addition.  A gap index j into the coding's stored
        breakpoint table follows x: it advances while x is at or above the
        next breakpoint (an inlined integer sign test) and returns to 0 when
        x wraps past the seam.  x is the breakpoint j itself, by an exact
        pair comparison, or lies in the open gap after it, and that names
        its label; validation has ruled out an unlabelled gap and an
        unlabelled breakpoint the orbit meets.  This is the library's only
        evaluator of coded symbols.
        """
        D, d, (ap, aq), (bp, bq), cuts, at_point, in_gap = self._table
        last = len(cuts) - 1  # the seam sentinel (D, 0)
        p, q = lo * ap + bp, lo * aq + bq
        p -= quadratic_floor(p, q, D, d) * D

        out = []
        j = 0
        (cur_p, cur_q), (next_p, next_q) = cuts[0], cuts[1]
        for _ in range(lo, hi + 1):
            while True:
                # is x below the next breakpoint?  sign of u + v*sqrt(d) = x - next
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

    def _boundaries(self):
        """(value, labels) for each boundary breakpoint of the stored table.

        A breakpoint is a boundary when the labels of the gap before it, the
        point itself and the gap after it are not all the same; the gap
        before 0 is the last gap.  The labels around it are listed in
        ``labels()`` order, leaving out None (an uncovered point).
        """
        D, d, _, _, cuts, at_point, in_gap = self._table
        labels = self.labels()
        out = []
        for j, label in enumerate(at_point):
            around = {in_gap[j - 1], label, in_gap[j]}
            if len(around) > 1:
                out.append((_reduced(*cuts[j], D, d), [l for l in labels if l in around]))
        return out

    def indicator(self, label) -> "RotationCoding":
        """Two-cell coding: 1 on this label's cell, 0 on its complement."""
        cell = self.cells[label]
        return RotationCoding(self.alpha, {1: cell, 0: cell.complement()},
                              self.base, name=f"{self.name}[{label}]")


def word_locus(coding: RotationCoding, word) -> CircleIntervalSet:
    """The exact circle set J with: the word occurs at h iff {h*alpha + base} in J.

    J is the intersection of each constrained cell rotated back by its
    offset times alpha.
    """
    J = None
    for offset, symbol in zip(word.offsets, word.symbols):
        if symbol not in coding.cells:
            raise InputError(f"word symbol {symbol!r} is not a coding label")
        constraint = coding.cells[symbol].rotate(-(offset * coding.alpha))
        J = constraint if J is None else J.intersect(constraint)
        if J.is_empty():
            break
    return J


@dataclass
class WordClass:
    kind: str                      # "syndetic" | "finite" | "empty"
    locus: CircleIntervalSet
    occurrences: list | None = None


def classify_word(coding: RotationCoding, word) -> WordClass:
    """Syndetic (locus has interior), Finite (exact hit list), or Empty."""
    J = word_locus(coding, word)
    if J.has_interior():
        return WordClass("syndetic", J)
    hits = []
    for p in J.points:
        n = solve_hit(coding.alpha, p - coding.base)
        if n is not None:
            hits.append(n)
    if hits:
        return WordClass("finite", J, sorted(hits))
    return WordClass("empty", J, [])


def boundary_hits(coding: RotationCoding):
    """All orbit visits to cell-boundary points: (n, point, adjacent labels)."""
    out = []
    for p, labels in coding._boundaries():
        n = solve_hit(coding.alpha, p - coding.base)
        if n is not None:
            out.append((n, p, labels))
    out.sort(key=lambda t: t[0])
    return out


@dataclass
class SyndeticityResult:
    strongly: bool
    bad_hits: list                 # (n, point) orbit visits to the closure boundary


def strongly_dyn_syndetic(coding: RotationCoding, label) -> SyndeticityResult:
    """No orbit visit to cl(U) minus U, for U the (interior of the) named cell."""
    bad = []
    for p, labels in coding._boundaries():
        if label in labels:
            n = solve_hit(coding.alpha, p - coding.base)
            if n is not None:
                bad.append((n, p))
    return SyndeticityResult(strongly=not bad, bad_hits=bad)


# -- minimality ------------------------------------------------------------------

@dataclass
class MinimalityResult:
    minimal: bool
    witness: object = None          # WordPattern for the refuting word
    occurrences: list | None = None
    locus: CircleIntervalSet | None = None
    hits: list = field(default_factory=list)
    resonance_bound: int = 0
    per_label: dict | None = None

    def __bool__(self):
        return self.minimal


def resonance_bound(coding: RotationCoding) -> int:
    """max |m| over boundary-point pairs with e1 - e2 = m*alpha (mod 1)."""
    pts = [p for p, _ in coding._boundaries()]
    M = 0
    for e1 in pts:
        for e2 in pts:
            m = solve_hit(coding.alpha, e1 - e2)
            if m is not None:
                M = max(M, abs(m))
    return M


def classify_minimality(coding: RotationCoding, scope="set") -> MinimalityResult:
    """Exact minimality decision for the coded sequence.

    Procedure: if the orbit never hits a cell boundary the coding is
    minimal.  Otherwise let M bound the offsets at which two boundary
    points can collide under the rotation; every contiguous word of length
    at most M+1 positioned within M of a boundary-hit time is checked: a
    word whose locus degenerates to hit isolated points occurs only
    finitely often and refutes minimality.  If no checked word (after
    extending any mixed locus along the actual sequence) degenerates, every
    occurring word has interior locus and so occurs syndetically.

    scope="colouring" additionally reports a per-label verdict, each label
    classified through its indicator coding, in ``labels()`` order.
    """
    if scope == "colouring":
        overall = _classify_one(coding)
        overall.per_label = {
            label: _classify_one(coding.indicator(label)) for label in coding.labels()
        }
        return overall
    if scope != "set":
        return _classify_one(coding.indicator(scope))
    return _classify_one(coding)


def _classify_one(coding: RotationCoding) -> MinimalityResult:
    from .zshift import WordPattern  # local import; zshift depends on rotation

    hits = boundary_hits(coding)
    if not hits:
        return MinimalityResult(True, hits=[], resonance_bound=0)
    M = resonance_bound(coding)
    hit_times = sorted({n for n, _, _ in hits})
    # two hit points differ by (n1 - n2)*alpha, so all hit times lie within M
    # of each other and one window of at most 3M + 1 symbols holds every word
    first = hit_times[0] - M
    buf = coding.orbit_symbols(first, hit_times[-1] + M)
    rotated = {}    # (symbol, offset) -> its cell rotated back by offset*alpha
    loci = {}       # checked word -> its locus, folded in word_locus's order
    for length in range(1, M + 2):
        for n_h in hit_times:
            for start in range(n_h - M, n_h + 1):
                symbols = tuple(buf[start - first:start - first + length])
                if symbols in loci:
                    continue
                key = (symbols[-1], length - 1)
                cell = rotated.get(key)
                if cell is None:
                    cell = coding.cells[key[0]].rotate(-(key[1] * coding.alpha))
                    rotated[key] = cell
                # the one-shorter prefix was checked at the same start one length ago
                J = cell if length == 1 else loci[symbols[:-1]].intersect(cell)
                loci[symbols] = J
                word = WordPattern(tuple(range(length)), symbols)
                refutation = _finite_refutation(coding, word, J)
                if refutation is not None:
                    word, occ, locus = refutation
                    return MinimalityResult(False, witness=word, occurrences=occ,
                                            locus=locus, hits=hits, resonance_bound=M)
    return MinimalityResult(True, hits=hits, resonance_bound=M)


def _finite_refutation(coding, word, J, max_grow=64):
    """A (possibly extended) word with finite nonempty hit locus, or None.

    A locus that is a pure point set with a hit refutes directly.  A locus
    with interior but also a hit isolated point is grown along the actual
    sequence around its occurrence until the interior dies; termination is
    guaranteed because distinct circle points cannot share a full coding.
    """
    from .zshift import WordPattern

    def hit_list(locus):
        out = []
        for p in locus.points:
            n = solve_hit(coding.alpha, p - coding.base)
            if n is not None:
                out.append(n)
        return sorted(out)

    if J.is_empty():
        return None
    if not J.has_interior():
        occ = hit_list(J)
        return (word, occ, J) if occ else None
    hits = hit_list(J)
    if not hits:
        return None
    # mixed locus: extend the reading of the sequence around the hit occurrence
    h0 = hits[0]
    length = len(word.offsets)
    buf = coding.orbit_symbols(h0 - max_grow, h0 + length - 1 + max_grow)
    for grow in range(1, max_grow + 1):
        symbols = tuple(buf[max_grow - grow:max_grow + length + grow])
        bigger = WordPattern(tuple(range(len(symbols))), symbols)
        J2 = word_locus(coding, bigger)
        if not J2.has_interior():
            occ = hit_list(J2)
            if not occ:
                return None
            return (bigger, occ, J2)
    raise InputError("could not isolate a finite witness word; coding too degenerate")
