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
other.  Complement flips the flags, and rotation moves every cut and
restarts the list at the least one.  A coding's partition is a table of
the same kind, with a label where a set has a flag.  One merge walks two
tables in cut order and combines their flags at every cut and in every
gap: it builds a set as the union of one small table per arc or point,
intersects two sets, and folds a coding's cells into its partition, where
a slot that two cells claim is an overlap.

A long coded window is read in blocks.  For an even-index convergent P/Q of
alpha, eps = Q*alpha - P is positive and x_(n+Q) = x_n + eps.  The Q points
of one block sit one to each 1/Q of the circle, the successor of x_k being
x_(k + 1/P mod Q), and by the three-distance theorem (Sos 1958; Lothaire,
Algebraic Combinatorics on Words, 2002, ch. 2) eps is below every gap
between neighbours.  So from one block to the next every point moves by eps
and keeps its neighbours, and only a breakpoint's closed predecessor, the
point at or just below it, can reach or pass it.  After the first block is
walked, each later block is the one before it with, per breakpoint, one
exact sign test of its predecessor's distance minus eps: at zero the point
takes the breakpoint's label, below zero it takes the label of the gap
after it, and the point before it becomes the predecessor.  Breakpoints are
taken in the cyclic order that starts after their widest gap, which
eps < 1/Q <= 1/m cannot jump, so a point that passes several takes the
label of the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import and_, or_
from types import MappingProxyType

from .algebra import QuadraticNumber, _reduced, frac_part, quadratic_floor, quadratic_sign, \
    solve_hit, symbol_key
from .errors import BoundsExceededError, InputError, MismatchedFieldError, RationalAlphaError

Q0 = QuadraticNumber(0)
Q1 = QuadraticNumber(1)
# how far a minimality witness with a mixed locus is grown on each side
MAX_GROW = 64

_set = object.__setattr__


@dataclass(frozen=True)
class Arc:
    """An arc lo..hi with explicit endpoint closure; hi < lo wraps through 0."""

    lo: QuadraticNumber
    lo_closed: bool
    hi: QuadraticNumber
    hi_closed: bool


@dataclass(frozen=True)
class WordPattern:
    """Symbols constrained at strictly increasing offsets."""

    offsets: tuple
    symbols: tuple

    def __post_init__(self):
        if len(self.offsets) != len(self.symbols) or not self.offsets:
            raise InputError("word pattern needs matching, nonempty offsets and symbols")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise InputError("word pattern offsets must be strictly increasing")

    @classmethod
    def contiguous(cls, symbols, start: int = 0):
        symbols = tuple(symbols)
        return cls(tuple(range(start, start + len(symbols))), symbols)

    @property
    def span(self):
        return self.offsets[-1] - self.offsets[0]

    def describe(self):
        return {"symbols": list(self.symbols), "offsets": list(self.offsets)}

    def __str__(self):
        return "".join(map(str, self.symbols)) + ";" + ",".join(map(str, self.offsets))


def _merge(a, b, both):
    """Two breakpoint tables (cuts, cut flags, gap flags) merged in one pass.

    The cuts are those of either table, in order, and at every cut and in
    every gap the flag is ``both`` of the two tables' flags there: a cut of
    one table lies in the other's gap before its next cut.  Returned as
    lists, with every cut kept.
    """
    (xs, x_at, x_gap), (ys, y_at, y_gap) = a, b
    cuts, at_cut, in_gap = [], [], []
    i = j = 0
    m, n = len(xs), len(ys)
    while i < m or j < n:
        c = -1 if j == n else 1 if i == m else xs[i].compare(ys[j])
        at_cut.append(both(x_at[i] if c <= 0 else x_gap[i - 1],
                           y_at[j] if c >= 0 else y_gap[j - 1]))
        cuts.append(xs[i] if c <= 0 else ys[j])
        i += c <= 0
        j += c >= 0
        in_gap.append(both(x_gap[i - 1], y_gap[j - 1]))
    return cuts, at_cut, in_gap or [both(x_gap[0], y_gap[0])]


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
        table = (), (), (False,)
        for a in arcs:
            if not isinstance(a, Arc):
                a = Arc(*a)
            lo, hi = frac_part(a.lo), frac_part(a.hi)
            c = lo.compare(hi)
            if c < 0:
                piece = (lo, hi), (a.lo_closed, a.hi_closed), (True, False)
            elif c > 0:
                piece = (hi, lo), (a.hi_closed, a.lo_closed), (False, True)
            elif a.hi == Q1:
                piece = (lo,), (a.lo_closed or a.hi_closed,), (True,)
            elif a.lo_closed and a.hi_closed:
                piece = (lo,), (True,), (False,)
            else:
                continue
            table = _merge(table, piece, or_)
        for p in points:
            table = _merge(table, ((frac_part(p),), (True,), (False,)), or_)
        _store(self, *table)

    def __setattr__(self, *a):
        raise AttributeError("CircleIntervalSet is immutable")

    __delattr__ = __setattr__

    # copy and pickle would restore the slots through __setattr__
    def __reduce__(self):
        return _from_table, (self.cuts, self.at_cut, self.in_gap)

    # -- basic predicates --

    def is_empty(self) -> bool:
        return not self.cuts and not self.in_gap[0]

    def has_interior(self) -> bool:
        return any(self.in_gap)

    # -- views of the table --

    @property
    def points(self):
        """The isolated points, in increasing order."""
        gap = self.in_gap
        return tuple(x for j, x in enumerate(self.cuts)
                     if self.at_cut[j] and not gap[j - 1] and not gap[j])

    # -- set algebra --

    def complement(self) -> "CircleIntervalSet":
        return _from_table(self.cuts, [not f for f in self.at_cut],
                           [not f for f in self.in_gap])

    def intersect(self, other: "CircleIntervalSet") -> "CircleIntervalSet":
        return _from_table(*_merge((self.cuts, self.at_cut, self.in_gap),
                                   (other.cuts, other.at_cut, other.in_gap), and_))

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

    def _arcs(self):
        """The arcs that ``describe`` and ``repr`` show, one per gap in the set.

        A wrapped arc has hi < lo, and an arc ending at the cut 0 from below
        has hi = 1.  The circle minus one point p != 0 would be the arc
        (p, p), which reads back as empty, so it shows as [0, p) and (p, 1).
        """
        cuts, at = self.cuts, self.at_cut
        if not cuts:
            return [Arc(Q0, True, Q1, False)] if self.in_gap[0] else []
        if len(cuts) == 1 and self.in_gap[0] and cuts[0] != Q0:
            return [Arc(Q0, True, cuts[0], False), Arc(cuts[0], False, Q1, False)]
        m, top = len(cuts), Q1 if cuts[0] == Q0 else cuts[0]
        return [Arc(cuts[j], at[j], cuts[j + 1] if j + 1 < m else top, at[(j + 1) % m])
                for j, inside in enumerate(self.in_gap) if inside]

    def describe(self):
        """JSON-friendly exact description with endpoint strings."""
        arcs = [{"lo": str(a.lo), "lo_closed": a.lo_closed,
                 "hi": str(a.hi), "hi_closed": a.hi_closed}
                for a in self._arcs()]
        return {"arcs": arcs, "points": [str(p) for p in self.points]}

    def __repr__(self):
        bits = [f"{'[' if a.lo_closed else '('}{a.lo},{a.hi}{']' if a.hi_closed else ')'}"
                for a in self._arcs()]
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

        The cells are folded, in ``labels()`` order, into one table of
        labels seeded with the cut 0, by one ``_merge`` each, in which the
        cell's flags claim their slots.  Each step scans the merged table
        from 0, a cut before the gap after it, and the first slot that two
        cells claim is an InputError; None marks a point or gap no cell
        holds.  Every relevant value (a + b*sqrt(d))/c is then rescaled to
        D = lcm of all the c's, as the integer pair (a*D/c, b*D/c), and the
        breakpoints are closed by the sentinel (D, 0) for the seam.  This is
        the coding's one description of its partition: ``validate`` builds
        it once and keeps it as ``_table``, which every later question reads.
        """
        cuts, at_point, in_gap = [Q0], [None], [None]
        for label in self.labels():
            cell = self.cells[label]
            cuts, at_point, in_gap = _merge((cuts, at_point, in_gap),
                                            (cell.cuts, cell.at_cut, cell.in_gap),
                                            lambda held, claimed: (held, claimed))
            for j, x in enumerate(cuts):
                for slots, where in ((at_point, "at"), (in_gap, "on the gap after")):
                    held, claimed = slots[j]
                    if claimed and held is not None:
                        raise InputError(f"cells {held!r} and {label!r} overlap {where} {x}")
                    slots[j] = label if claimed else held
        D = math.lcm(self.alpha.c, self.base.c, *(x.c for x in cuts))
        d = self.alpha.d

        def enc(x):
            k = D // x.c
            return (x.a * k, x.b * k)

        return (D, d, enc(self.alpha), enc(self.base), (*map(enc, cuts), (D, 0)),
                tuple(at_point), tuple(in_gap))

    def orbit_symbols(self, lo: int, hi: int):
        """Exact coded symbols for n = lo..hi: an orbit walk, then block copies.

        Walk: x = D*{lo*alpha + base} as an integer pair, its floor taken
        from one integer square root; each further point is an integer-pair
        addition.  A gap index j into the coding's stored breakpoint table
        follows x: it advances while x is at or above the next breakpoint
        (an inlined integer sign test) and returns to 0 when x wraps past
        the seam.  x is the breakpoint j itself, by an exact pair
        comparison, or lies in the open gap after it, and that names its
        label; validation has ruled out an unlabelled gap and an unlabelled
        breakpoint the orbit meets.

        Blocks: a window of N symbols over a table of m breakpoints (cut 0
        counted) takes the largest even-index convergent denominator Q of
        alpha with max(m, 2) <= Q <= sqrt(N*m), which minimizes the Q walk
        steps plus the m*N/Q block steps.  The walk reads the first Q
        symbols, and every later block of Q is the one before it with at
        most one symbol changed per breakpoint (see the module docstring).
        The walk reads the whole window when N <= 4m (the least block cost,
        2*sqrt(N*m), is then not below N), when there is no such Q, or when
        the window holds fewer than two blocks.  This is the library's only
        evaluator of coded symbols.
        """
        table = self._table
        n, m = hi - lo + 1, len(table[4]) - 1
        # the least block cost, 2*sqrt(n*m), is below the walk's n only when
        # n > 4m; that also leaves room for two blocks of max(m, 2) symbols
        if n > 4 * m:
            convergent = _block_convergent(table, n, m)
            if convergent is not None and n >= 2 * convergent[1]:
                return _block_copy(table, lo, n, *convergent)
        return _walk(table, lo, n)

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


# -- coded windows: the orbit walk and its block copy -----------------------------

def _walk(table, lo, count, marks=None):
    """The symbols for n = lo, ..., lo + count - 1 by the orbit walk of
    ``orbit_symbols``; ``marks``, when given, gets (j, on, p) for each point:
    its gap index, whether it is breakpoint j itself, and its rational part."""
    D, d, (ap, aq), (bp, bq), cuts, at_point, in_gap = table
    last = len(cuts) - 1  # the seam sentinel (D, 0)
    p, q = lo * ap + bp, lo * aq + bq
    p -= quadratic_floor(p, q, D, d) * D

    out = []
    j = 0
    (cur_p, cur_q), (next_p, next_q) = cuts[0], cuts[1]
    for _ in range(count):
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
        on = p == cur_p and q == cur_q
        out.append(at_point[j] if on else in_gap[j])
        if marks is not None:
            marks.append((j, on, p))
        p += ap
        q += aq
    return out


def _block_convergent(table, n, m):
    """The largest even-index convergent P/Q of alpha with
    max(m, 2) <= Q <= sqrt(n*m), as (P, Q), or None.

    alpha = (ap + aq*sqrt(d))/D is written as (P + sqrt(N))/Qk with Qk
    dividing N - P^2, and the continued fraction runs on those integers.
    """
    D, d, (ap, aq) = table[0], table[1], table[2]
    top, least = math.isqrt(n * m), max(m, 2)
    sign = 1 if aq > 0 else -1
    P, N, Qk = sign * ap * D, aq * aq * d * D * D, sign * D * D
    r = math.isqrt(N)
    # the convergents two and one steps back, from p_-2/q_-2 = 0/1, p_-1/q_-1 = 1/0
    p0, q0, p1, q1 = 0, 1, 1, 0
    best, even = None, True
    while True:
        a = (P + r) // Qk if Qk > 0 else (P + r + 1) // Qk
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > top:
            return best
        if even and q1 >= least:
            best = (p1, q1)
        even = not even
        P = a * Qk - P
        Qk = (N - P * P) // Qk


def _block_copy(table, lo, n, P, Q):
    """The symbols for n symbols from lo, block by block, for an even-index
    convergent P/Q of alpha with max(m, 2) <= Q <= n/2."""
    D, d, (ap, aq), (_, bq), cuts, at_point, in_gap = table
    m = len(cuts) - 1
    marks = []
    block = _walk(table, lo, Q, marks)
    out = block[:]
    ep, eq = Q * ap - P * D, Q * aq  # eps = Q*alpha - P > 0
    # the point after x_k in cyclic order is x_(k + s mod Q), s = 1/P mod Q;
    # it lies {s*alpha} after x_k, or {s*alpha} - eps when k + s wraps past Q
    s = pow(P, -1, Q)
    gp, gq = s * ap, s * aq
    gp -= quadratic_floor(gp, gq, D, d) * D
    # each breakpoint's closed predecessor k and its distance c - x_k, found
    # from each point and its successor: the breakpoints in [x_k, x_succ)
    pred, du, dv = [0] * m, [0] * m, [0] * m
    for k, (j, on, p) in enumerate(marks):
        k2 = k + s
        step = gp if k2 < Q else gp - ep
        j2, on2, p2 = marks[k2 % Q]
        q = (lo + k) * aq + bq
        wraps = p + step != p2
        for i in range(j + 1 - on, j2 + m * wraps + 1 - on2):
            c = i % m
            pred[c], du[c], dv[c] = k, cuts[c][0] + D * (i >= m) - p, cuts[c][1] - q
    # a point moves by eps < 1/Q <= 1/m per block, less than the widest
    # breakpoint gap, so in the cyclic order after that gap the breakpoints
    # come in the order a point meets them, and the last it passes labels it
    w = 0
    for i in range(1, m):
        (a0, b0), (a1, b1) = cuts[w], cuts[w + 1]
        (c0, e0), (c1, e1) = cuts[i], cuts[i + 1]
        if quadratic_sign(c1 - c0 - a1 + a0, e1 - e0 - b1 + b0, d) > 0:
            w = i
    order = [(w + 1 + t) % m for t in range(m)]
    for _ in range((n - 1) // Q):
        for i in order:
            u, v = du[i] - ep, dv[i] - eq
            # is u + v*sqrt(d) still positive?
            if u > 0:
                if v >= 0 or u * u > v * v * d:
                    du[i], dv[i] = u, v
                    continue
            elif v > 0 and (u == 0 or v * v * d > u * u):
                du[i], dv[i] = u, v
                continue
            k = pred[i]
            if u == 0 and v == 0:
                block[k] = at_point[i]
            else:
                # x_k passed c: it lies in the gap after c, and the point
                # before it becomes c's closed predecessor
                block[k] = in_gap[i]
                if k >= s:
                    k, u, v = k - s, u + gp, v + gq
                else:
                    k, u, v = k - s + Q, u + gp - ep, v + gq - eq
                pred[i] = k
            du[i], dv[i] = u, v
        out += block
    del out[n:]
    return out


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


def _visits(coding: RotationCoding, points):
    """(n, p) for each of the points that the orbit meets, x_n = p, in the points' order."""
    return [(n, p) for p in points
            if (n := solve_hit(coding.alpha, p - coding.base)) is not None]


def _hit_times(coding: RotationCoding, points):
    """The times n at which the orbit meets the points, in increasing order."""
    return sorted(n for n, _ in _visits(coding, points))


def classify_word(coding: RotationCoding, word) -> WordClass:
    """Syndetic (locus has interior), Finite (exact hit list), or Empty."""
    J = word_locus(coding, word)
    if J.has_interior():
        return WordClass("syndetic", J)
    hits = _hit_times(coding, J.points)
    return WordClass("finite" if hits else "empty", J, hits)


def boundary_hits(coding: RotationCoding):
    """All orbit visits to cell-boundary points: (n, point, adjacent labels)."""
    labels = dict(coding._boundaries())  # breakpoints are distinct
    return sorted(((n, p, labels[p]) for n, p in _visits(coding, labels)), key=lambda t: t[0])


@dataclass
class SyndeticityResult:
    strongly: bool
    bad_hits: list                 # (n, point) orbit visits to the closure boundary


def strongly_dyn_syndetic(coding: RotationCoding, label) -> SyndeticityResult:
    """No orbit visit to cl(U) minus U, for U the (interior of the) named cell."""
    bad = _visits(coding, [p for p, labels in coding._boundaries() if label in labels])
    return SyndeticityResult(strongly=not bad, bad_hits=bad)


# -- minimality ------------------------------------------------------------------

@dataclass
class MinimalityResult:
    minimal: bool
    witness: WordPattern | None = None  # the refuting word
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


def _finite_refutation(coding, word, J):
    """A (possibly extended) word with finite nonempty hit locus, or None.

    A locus that is a pure point set with a hit refutes directly.  A locus
    with interior but also a hit isolated point is grown along the actual
    sequence around its occurrence until the interior dies; termination is
    guaranteed because distinct circle points cannot share a full coding,
    but a word grown by MAX_GROW on each side without isolating its hit is
    a BoundsExceededError.
    """
    hits = _hit_times(coding, J.points)
    if not hits:
        return None
    if not J.has_interior():
        return word, hits, J
    # mixed locus: extend the reading of the sequence around the hit occurrence
    h0 = hits[0]
    length = len(word.offsets)
    buf = coding.orbit_symbols(h0 - MAX_GROW, h0 + length - 1 + MAX_GROW)
    for grow in range(1, MAX_GROW + 1):
        symbols = tuple(buf[MAX_GROW - grow:MAX_GROW + length + grow])
        bigger = WordPattern(tuple(range(len(symbols))), symbols)
        J2 = word_locus(coding, bigger)
        if not J2.has_interior():
            occ = _hit_times(coding, J2.points)
            if not occ:
                return None
            return (bigger, occ, J2)
    raise BoundsExceededError(f"could not isolate a finite witness word by growing it "
                              f"{MAX_GROW} symbols on each side")
