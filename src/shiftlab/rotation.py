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

from .algebra import QuadraticNumber, frac_part, solve_hit
from .errors import InputError, MismatchedFieldError, RationalAlphaError, UncoveredOrbitPointError

Q0 = QuadraticNumber(0)
Q1 = QuadraticNumber(1)


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
    """A normalized finite union of arcs and isolated points on the circle."""

    __slots__ = ("arcs", "points")

    def __init__(self, arcs=(), points=(), _normalized=False):
        if _normalized:
            self.arcs = tuple(arcs)
            self.points = tuple(points)
        else:
            norm = normalize(list(arcs), list(points))
            self.arcs = norm.arcs
            self.points = norm.points

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

    def boundary_points(self):
        """Endpoints of logical arcs plus the isolated points, deduplicated."""
        if self.is_full_circle():
            return list(self.points)
        out = []
        for a in self.logical_arcs():
            for p in (a.lo, a.hi):
                p = frac_part(p)
                if all(p != q for q in out):
                    out.append(p)
        for p in self.points:
            if all(p != q for q in out):
                out.append(p)
        return sorted(out, key=lambda q: (q.approx(), q.u, q.v))

    def longest_arc_length(self):
        if not self.arcs:
            return None
        if self.is_full_circle():
            return Q1
        lengths = [a.length() for a in self.logical_arcs()]
        # wrapped arc: hi < lo means length = hi + 1 - lo
        lengths = [(l + 1 if l.sign() < 0 else l) for l in lengths]
        best = lengths[0]
        for l in lengths[1:]:
            if l.compare(best) > 0:
                best = l
        return best

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
        for a in sorted(self.arcs, key=lambda a: (a.lo.approx(), 0 if a.lo_closed else 1)):
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

    pieces.sort(key=lambda a: (a.lo.approx(), a.lo.u, a.lo.v, 0 if a.lo_closed else 1))
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
                merged.sort(key=lambda a: (a.lo.approx(), a.lo.u, a.lo.v))
    if len(merged) == 1 and merged[0].lo == Q0 and merged[0].hi == Q1 \
            and (merged[0].lo_closed or merged[0].hi_closed):
        merged = [Arc(Q0, True, Q1, False)]

    interim = CircleIntervalSet(merged, (), _normalized=True)
    final_points = []
    for p in sorted(set(points), key=lambda q: (q.approx(), q.u, q.v)):
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

@dataclass
class RotationCoding:
    """alpha (irrational, reduced mod 1), labelled disjoint cells, base point.

    Cells need only cover the orbit of the base point: the uncovered part of
    the circle must be a finite set of points, each verified never hit.
    """

    alpha: QuadraticNumber
    cells: dict            # label -> CircleIntervalSet
    base: QuadraticNumber = field(default_factory=lambda: Q0)
    name: str = "coding"

    def __post_init__(self):
        if self.alpha.is_rational:
            raise RationalAlphaError()
        self.alpha = frac_part(self.alpha)
        self.base = frac_part(self.base)
        self.validate()

    def validate(self):
        # the integer orbit walk reads every value as a pair over alpha's field
        values = [self.base]
        for c in self.cells.values():
            values += [e for a in c.arcs for e in (a.lo, a.hi)] + list(c.points)
        for x in values:
            if x.d and x.d != self.alpha.d:
                raise MismatchedFieldError(self.alpha.d, x.d)
        labels = sorted(self.cells, key=str)
        for i, l1 in enumerate(labels):
            for l2 in labels[i + 1:]:
                inter = self.cells[l1].intersect(self.cells[l2])
                if not inter.is_empty():
                    raise InputError(f"cells {l1!r} and {l2!r} overlap: {inter!r}")
        union = CircleIntervalSet(
            [a for c in self.cells.values() for a in c.arcs],
            [p for c in self.cells.values() for p in c.points],
        )
        uncovered = union.complement()
        if uncovered.has_interior():
            raise InputError(f"cells leave an uncovered arc: {uncovered!r}")
        for p in uncovered.points:
            if solve_hit(self.alpha, p - self.base) is not None:
                raise InputError(f"uncovered point {p} is hit by the orbit")
        self._uncovered = uncovered.points

    def labels(self):
        return sorted(self.cells, key=str)

    def orbit_point(self, n: int) -> QuadraticNumber:
        return frac_part(n * self.alpha + self.base)

    def _integer_form(self):
        """Integer form of the coding over a common denominator.

        Every relevant value u + v*sqrt(d) is scaled by D = lcm of all the
        denominators to an integer pair (p, q); the orbit walk then needs
        only integer additions and sign tests.  It is rebuilt on each call
        rather than stored, so the coding stays immutable after construction.
        """
        labels = self.labels()
        dens = [self.alpha.u.denominator, self.alpha.v.denominator,
                self.base.u.denominator, self.base.v.denominator]
        for label in labels:
            cell = self.cells[label]
            for a in cell.arcs:
                dens += [a.lo.u.denominator, a.lo.v.denominator,
                         a.hi.u.denominator, a.hi.v.denominator]
            for p in cell.points:
                dens += [p.u.denominator, p.v.denominator]
        D = math.lcm(*dens)

        def enc(x):
            return (x.u.numerator * (D // x.u.denominator),
                    x.v.numerator * (D // x.v.denominator))

        table = []
        for label in labels:
            cell = self.cells[label]
            arcs = [(enc(a.lo), a.lo_closed, enc(a.hi), a.hi_closed) for a in cell.arcs]
            pts = [enc(p) for p in cell.points]
            seam = any(a.hi_closed and enc(a.hi) == (D, 0) for a in cell.arcs)
            table.append((label, arcs, pts, seam))
        return D, self.alpha.d, enc(self.alpha), enc(self.base), table

    def orbit_symbols(self, lo: int, hi: int):
        """Exact coded symbols for n = lo..hi via an incremental orbit walk.

        The walk starts from D*{lo*alpha + base} as an integer pair, its
        floor taken from an integer square root and fixed up by exact sign
        tests; each further point is an integer-pair addition plus at most
        one wrap subtraction, and cell membership is decided by integer
        sign tests.  This is the library's only evaluator of coded symbols.
        """
        D, d, (ap, aq), (bp, bq), table = self._integer_form()

        def sign(p, q):
            if q == 0:
                return (p > 0) - (p < 0)
            if p == 0:
                return 1 if q > 0 else -1
            if (p > 0) == (q > 0):
                return 1 if p > 0 else -1
            if p * p > q * q * d:
                return (p > 0) - (p < 0)
            return 1 if q > 0 else -1

        p, q = lo * ap + bp, lo * aq + bq
        # |q|*sqrt(d) lies in [root, root + 1), so k starts at most 3 below the floor
        root = math.isqrt(q * q * d)
        k = (p + (root if q > 0 else -root)) // D - 2
        while sign(p - (k + 1) * D, q) >= 0:
            k += 1
        p -= k * D
        out = []
        for n in range(lo, hi + 1):
            label_found = None
            zero = p == 0 and q == 0
            for label, arcs, pts, seam in table:
                if zero and seam:
                    label_found = label
                    break
                ok = False
                for (lp, lq), lo_cl, (hp, hq), hi_cl in arcs:
                    c = sign(p - lp, q - lq)
                    if c < 0 or (c == 0 and not lo_cl):
                        continue
                    c = sign(p - hp, q - hq)
                    if c > 0 or (c == 0 and not hi_cl):
                        continue
                    ok = True
                    break
                if not ok:
                    for pp, pq in pts:
                        if pp == p and pq == q:
                            ok = True
                            break
                if ok:
                    label_found = label
                    break
            if label_found is None:
                raise UncoveredOrbitPointError(n, f"({p}+{q}*sqrt({d}))/{D}")
            out.append(label_found)
            p += ap
            q += aq
            if sign(p - D, q) >= 0:
                p -= D
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
    boundaries = {label: coding.cells[label].boundary_points() for label in coding.labels()}
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
                    or coding.cells[label].contains(p)]
        out.append((n, p, adjacent))
    out.sort(key=lambda t: t[0])
    return out


@dataclass
class SyndeticityResult:
    strongly: bool
    adjusted: bool                 # True when the named cell was not open
    bad_hits: list                 # (n, point) orbit visits to the closure boundary


def strongly_dyn_syndetic(coding: RotationCoding, label) -> SyndeticityResult:
    """No orbit visit to cl(U) minus U, for U the (interior of the) named cell."""
    cell = coding.cells[label]
    adjusted = bool(cell.points) or any(
        a.lo_closed or a.hi_closed for a in cell.logical_arcs())
    bad = []
    for p in cell.boundary_points():
        n = solve_hit(coding.alpha, p - coding.base)
        if n is not None:
            bad.append((n, p))
    return SyndeticityResult(strongly=not bad, adjusted=adjusted, bad_hits=bad)


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


def _endpoint_set(coding: RotationCoding):
    pts = []
    for label in coding.labels():
        for p in coding.cells[label].boundary_points():
            if all(p != q for q in pts):
                pts.append(p)
        for p in coding.cells[label].points:
            if all(p != q for q in pts):
                pts.append(p)
    return pts


def resonance_bound(coding: RotationCoding) -> int:
    """max |m| over endpoint pairs with e1 - e2 = m*alpha (mod 1)."""
    pts = _endpoint_set(coding)
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
    classified through its indicator coding.
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
