"""Exact analysis of rotation-coded sequences.

A coding assigns a label to each point of the orbit {n*alpha + base} of an
irrational rotation, via a partition of the circle into finite unions of
arcs (with exact quadratic endpoints and explicit closure flags) plus
possibly isolated points.  Everything here is decided exactly: where a
word occurs (its locus on the circle), whether a word occurs syndetically
or finitely, which boundary points the orbit hits, and whether the coded
set or colouring is minimal.

Circle sets are normalized to pieces inside [0, 1]: an input arc that
wraps through 0 is split into two pieces, and abutting pieces that cover
their junction are merged on the logical (circle) level, so endpoint
computations never see an artificial cut at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cmp_to_key
from types import MappingProxyType

from .algebra import QuadraticNumber, _reduced, frac_part, quadratic_floor, quadratic_sign, \
    solve_hit, symbol_key
from .errors import InputError, MismatchedFieldError, RationalAlphaError

Q0 = QuadraticNumber(0)
Q1 = QuadraticNumber(1)

# exact orders: values by compare; arcs by lower endpoint, closed before open
_BY_VALUE = cmp_to_key(lambda x, y: x.compare(y))
_BY_LO = cmp_to_key(lambda a, b: a.lo.compare(b.lo) or b.lo_closed - a.lo_closed)


@dataclass(frozen=True)
class Arc:
    """A piece lo..hi with 0 <= lo < hi <= 1 and explicit endpoint closure."""

    lo: QuadraticNumber
    lo_closed: bool
    hi: QuadraticNumber
    hi_closed: bool

    def contains(self, x: QuadraticNumber) -> bool:
        c_lo = x.compare(self.lo)
        c_hi = x.compare(self.hi)
        if c_lo < 0 or c_hi > 0:
            return False
        if c_lo == 0 and not self.lo_closed:
            return False
        if c_hi == 0 and not self.hi_closed:
            return False
        return True

    def length(self) -> QuadraticNumber:
        return self.hi - self.lo


class CircleIntervalSet:
    """A normalized finite union of arcs and isolated points on the circle; immutable."""

    __slots__ = ("arcs", "points")

    def __init__(self, arcs=(), points=(), _normalized=False):
        if not _normalized:
            norm = normalize(list(arcs), list(points))
            arcs, points = norm.arcs, norm.points
        object.__setattr__(self, "arcs", tuple(arcs))
        object.__setattr__(self, "points", tuple(points))

    def __setattr__(self, *a):
        raise AttributeError("CircleIntervalSet is immutable")

    __delattr__ = __setattr__

    # copy and pickle would restore the slots through __setattr__
    def __reduce__(self):
        return CircleIntervalSet, (self.arcs, self.points, True)

    # -- basic predicates --

    def is_empty(self) -> bool:
        return not self.arcs and not self.points

    def has_interior(self) -> bool:
        return bool(self.arcs)

    def contains(self, x: QuadraticNumber) -> bool:
        x = frac_part(x)
        for a in self.arcs:
            if a.contains(x):
                return True
        if any(x == p for p in self.points):
            return True
        # the seam: pieces store hi = 1, membership of 0 may come from there
        if x == Q0:
            return any(a.hi == Q1 and a.hi_closed for a in self.arcs)
        return False

    def is_full_circle(self) -> bool:
        if len(self.arcs) != 1:
            return False
        a = self.arcs[0]
        return a.lo == Q0 and a.hi == Q1 and (a.lo_closed or a.hi_closed)

    # -- logical (circle-level) view --

    def logical_arcs(self):
        """Arcs with the wrap at 0 rejoined; a wrapped arc has hi < lo."""
        if self.is_full_circle():
            return [Arc(Q0, True, Q1, False)]
        arcs = list(self.arcs)
        first = next((a for a in arcs if a.lo == Q0), None)
        last = next((a for a in arcs if a.hi == Q1), None)
        if first is not None and last is not None and first is not last:
            if last.hi_closed or first.lo_closed:
                arcs.remove(first)
                arcs.remove(last)
                arcs.append(Arc(last.lo, last.lo_closed, first.hi, first.hi_closed))
        return arcs

    # -- set algebra --

    def complement(self) -> "CircleIntervalSet":
        """Circle minus this set; isolated removed points become punctures."""
        if self.is_empty():
            return CircleIntervalSet([Arc(Q0, True, Q1, False)], (), _normalized=True)
        if self.is_full_circle() and not self.points:
            return CircleIntervalSet()
        pieces = []
        # cursor_open: the point at the cursor is itself excluded from the complement
        cursor, cursor_open = Q0, self.contains(Q0)
        for a in sorted(self.arcs, key=_BY_LO):
            if a.lo.compare(cursor) > 0 or (a.lo == cursor and not a.lo_closed and not cursor_open):
                pieces.append(Arc(cursor, not cursor_open, a.lo, not a.lo_closed))
            cursor, cursor_open = a.hi, a.hi_closed
        if cursor.compare(Q1) < 0:
            pieces.append(Arc(cursor, not cursor_open, Q1, not self.contains(Q0)))
        result = CircleIntervalSet(pieces, ())
        # punctures at removed isolated points: drop them from the arcs
        for p in self.points:
            result = _puncture(result, p)
        # membership of 0: covered on the right end iff the last piece reached 1 closed
        if not self.contains(Q0) and not result.contains(Q0):
            result = CircleIntervalSet(result.arcs, result.points + (Q0,), _normalized=True)
        return result

    def intersect(self, other: "CircleIntervalSet") -> "CircleIntervalSet":
        arcs, points = [], []
        for a in self.arcs:
            for b in other.arcs:
                piece = _arc_intersection(a, b)
                if piece is None:
                    continue
                if isinstance(piece, Arc):
                    arcs.append(piece)
                else:
                    points.append(piece)
        for p in self.points:
            if other.contains(p):
                points.append(p)
        for p in other.points:
            if self.contains(p):
                points.append(p)
        # seam: 0 can be in both via opposite representations (0 vs hi=1)
        if self.contains(Q0) and other.contains(Q0):
            points.append(Q0)
        return CircleIntervalSet(arcs, points)

    def rotate(self, t: QuadraticNumber) -> "CircleIntervalSet":
        """The set translated by t on the circle."""
        if self.is_full_circle():
            return self
        arcs, points = [], []
        for a in self.logical_arcs():
            hi = frac_part(a.hi + t)
            if hi == Q0:
                hi = Q1  # an arc ending exactly on the seam keeps hi = 1
            arcs.append((frac_part(a.lo + t), a.lo_closed, hi, a.hi_closed))
        for p in self.points:
            points.append(frac_part(p + t))
        return CircleIntervalSet([Arc(*a) for a in arcs], points)

    # -- equality / display --

    def _key(self):
        return (
            tuple((a.lo, a.lo_closed, a.hi, a.hi_closed) for a in self.arcs),
            tuple(self.points),
        )

    def __eq__(self, other):
        return isinstance(other, CircleIntervalSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def describe(self):
        """JSON-friendly exact description with endpoint strings."""
        arcs = [{"lo": str(a.lo), "lo_closed": a.lo_closed,
                 "hi": str(a.hi), "hi_closed": a.hi_closed}
                for a in self.logical_arcs()]
        return {"arcs": arcs, "points": [str(p) for p in self.points]}

    def __repr__(self):
        bits = [f"{'[' if a.lo_closed else '('}{a.lo},{a.hi}{']' if a.hi_closed else ')'}"
                for a in self.logical_arcs()]
        bits += [f"{{{p}}}" for p in self.points]
        return "Circle(" + " u ".join(bits) + ")" if bits else "Circle(empty)"


def _arc_intersection(a: Arc, b: Arc):
    lo, lo_cl = (a.lo, a.lo_closed) if a.lo.compare(b.lo) > 0 else (b.lo, b.lo_closed)
    if a.lo == b.lo:
        lo_cl = a.lo_closed and b.lo_closed
    hi, hi_cl = (a.hi, a.hi_closed) if a.hi.compare(b.hi) < 0 else (b.hi, b.hi_closed)
    if a.hi == b.hi:
        hi_cl = a.hi_closed and b.hi_closed
    c = lo.compare(hi)
    if c > 0:
        return None
    if c == 0:
        return lo if lo_cl and hi_cl else None
    return Arc(lo, lo_cl, hi, hi_cl)


def _puncture(s: CircleIntervalSet, p: QuadraticNumber):
    """Remove the single point p from the set."""
    p = frac_part(p)
    arcs, points = [], [q for q in s.points if q != p]
    for a in s.arcs:
        if not a.contains(p) and not (p == Q0 and a.hi == Q1 and a.hi_closed):
            arcs.append(a)
            continue
        hit = Q1 if (p == Q0 and a.hi == Q1) else p
        if a.lo == hit:
            arcs.append(Arc(a.lo, False, a.hi, a.hi_closed))
        elif a.hi == hit:
            arcs.append(Arc(a.lo, a.lo_closed, a.hi, False))
        else:
            arcs.append(Arc(a.lo, a.lo_closed, hit, False))
            arcs.append(Arc(hit, False, a.hi, a.hi_closed))
    return CircleIntervalSet(arcs, points)


def normalize(raw_arcs, raw_points=()) -> CircleIntervalSet:
    """Reduce arcs/points mod 1, split wraps at 0, merge, absorb points.

    Accepts arcs as ``Arc`` instances or (lo, lo_closed, hi, hi_closed)
    tuples.  hi written as exactly 1 means the arc runs up to the seam
    (the point 0 approached from below).  Otherwise endpoints reduce mod
    1; a reduced hi at or below lo wraps through 0, except that hi == lo
    with both flags closed denotes a single point and an equal-endpoint
    arc with an open flag is empty.
    """
    pieces = []
    points = []
    for a in raw_arcs:
        if not isinstance(a, Arc):
            a = Arc(*a)
        lo, hi = frac_part(a.lo), a.hi if a.hi == Q1 else frac_part(a.hi)
        c = lo.compare(hi)
        if c == 0:
            if a.lo_closed and a.hi_closed:
                points.append(lo)
            continue
        if c < 0:
            pieces.append(Arc(lo, a.lo_closed, hi, a.hi_closed))
        else:
            # wraps through 0; 0 itself goes to the second piece
            pieces.append(Arc(lo, a.lo_closed, Q1, False))
            if hi.compare(Q0) > 0:
                pieces.append(Arc(Q0, True, hi, a.hi_closed))
            elif a.hi_closed:
                points.append(Q0)  # the wrap reaches exactly the seam point
    for p in raw_points:
        points.append(frac_part(p))

    pieces.sort(key=_BY_LO)
    merged = []
    for a in pieces:
        if merged:
            m = merged[-1]
            c = a.lo.compare(m.hi)
            if c < 0 or (c == 0 and (m.hi_closed or a.lo_closed)):
                hi, hi_cl = (a.hi, a.hi_closed)
                if a.hi.compare(m.hi) < 0 or (a.hi == m.hi and m.hi_closed):
                    hi, hi_cl = m.hi, m.hi_closed
                merged[-1] = Arc(m.lo, m.lo_closed, hi, hi_cl)
                continue
        merged.append(a)

    # wrap seam: a piece ending at 1 and one starting at 0 that cover the seam
    if len(merged) >= 2:
        first, last = merged[0], merged[-1]
        if first.lo == Q0 and last.hi == Q1 and (first.lo_closed or last.hi_closed):
            covers = first.hi.compare(last.lo) > 0 or (
                first.hi == last.lo and (first.hi_closed or last.lo_closed))
            if covers:  # the two seam pieces cover the whole circle
                merged = [Arc(Q0, True, Q1, False)]
            else:
                merged = merged[1:-1] + [Arc(last.lo, last.lo_closed, Q1, False),
                                         Arc(Q0, True, first.hi, first.hi_closed)]
                merged.sort(key=_BY_LO)
    if len(merged) == 1 and merged[0].lo == Q0 and merged[0].hi == Q1 \
            and (merged[0].lo_closed or merged[0].hi_closed):
        merged = [Arc(Q0, True, Q1, False)]

    interim = CircleIntervalSet(merged, (), _normalized=True)
    final_points = []
    for p in sorted(set(points), key=_BY_VALUE):
        if interim.contains(p):
            continue
        # a point closing an open endpoint extends the arc instead
        attached = False
        for i, a in enumerate(merged):
            if a.lo == p and not a.lo_closed:
                merged[i] = Arc(a.lo, True, a.hi, a.hi_closed)
                attached = True
                break
            if (a.hi == p or (p == Q0 and a.hi == Q1)) and not a.hi_closed:
                merged[i] = Arc(a.lo, a.lo_closed, a.hi, True)
                attached = True
                break
        if attached:
            return normalize(merged, final_points + [q for q in points if q != p and q not in final_points])
        final_points.append(p)
    return CircleIntervalSet(tuple(merged), tuple(final_points), _normalized=True)


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
        values = [self.base]
        for c in self.cells.values():
            values += [e for a in c.arcs for e in (a.lo, a.hi)] + list(c.points)
        for x in values:
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
        the c's, as the integer pair (a*D/c, b*D/c).  The breakpoints are 0,
        every arc endpoint below 1 and every isolated point, sorted by exact
        sign tests and closed by the sentinel (D, 0) for the seam.  Each
        breakpoint gets the label of the cell holding it, and so does each
        open gap up to the next breakpoint; None marks a point or gap no cell
        holds, and one that two cells claim is an InputError.  This is the
        coding's one description of its partition: ``validate`` builds it
        once and keeps it as ``_table``, which every later question reads.
        """
        labels = self.labels()
        cells = [self.cells[label] for label in labels]
        D = math.lcm(self.alpha.c, self.base.c,
                     *(e.c for cell in cells for a in cell.arcs for e in (a.lo, a.hi)),
                     *(p.c for cell in cells for p in cell.points))
        d = self.alpha.d

        def enc(x):
            k = D // x.c
            return (x.a * k, x.b * k)

        # an isolated point is the closed arc from the point to itself
        arcs = [(label, enc(a.lo), a.lo_closed, enc(a.hi), a.hi_closed)
                for label, cell in zip(labels, cells) for a in cell.arcs]
        arcs += [(label, enc(p), True, enc(p), True)
                 for label, cell in zip(labels, cells) for p in cell.points]
        seam = (D, 0)
        cuts = {(0, 0), *(a[1] for a in arcs), *(a[3] for a in arcs)}
        cuts.discard(seam)
        cuts = sorted(cuts, key=cmp_to_key(
            lambda x, y: quadratic_sign(x[0] - y[0], x[1] - y[1], d)))
        m = len(cuts)
        index = {x: k for k, x in enumerate(cuts)}
        index[seam] = m
        at_point, in_gap = [None] * m, [None] * m

        def overlap(slots, j, label):
            where = "on the gap after" if slots is in_gap else "at"
            return InputError(f"cells {slots[j]!r} and {label!r} overlap {where} "
                              f"{_reduced(*cuts[j], D, d)}")

        for label, x, x_closed, y, y_closed in arcs:
            i, k = index[x], index[y]
            for j in range(i, k):
                if in_gap[j] is not None:
                    raise overlap(in_gap, j, label)
                in_gap[j] = label
            # the breakpoints inside the arc and its closed ends; hi = 1
            # closed holds the seam point 0
            for j in range(i + (not x_closed), k + y_closed):
                j %= m
                if at_point[j] is not None:
                    raise overlap(at_point, j, label)
                at_point[j] = label
        return (D, d, enc(self.alpha), enc(self.base), (*cuts, seam), tuple(at_point),
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
