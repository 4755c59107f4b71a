"""Reference views of a circle set, read off its public breakpoint table.

A ``CircleIntervalSet`` keeps ``cuts`` (sorted in [0, 1)), ``at_cut`` (is
cut j in the set) and ``in_gap`` (is the open gap after cut j in the set,
the last gap running through 0).  The library shows a set only through
``describe`` and ``repr``; the tests check membership and arcs with these
views instead.
"""

from shiftlab.algebra import QuadraticNumber, frac_part
from shiftlab.rotation import Arc

Q0, Q1 = QuadraticNumber(0), QuadraticNumber(1)


def contains(s, x) -> bool:
    """Whether the point x, reduced mod 1, lies in the circle set s."""
    x = frac_part(x)
    for j, cut in enumerate(s.cuts):
        if x == cut:
            return s.at_cut[j]
        if x < cut:
            return s.in_gap[j - 1]  # below the first cut: the last gap, through 0
    return s.in_gap[-1]


def logical_arcs(s) -> list:
    """The arcs of s, one per gap in the set; a wrapped arc has hi < lo.

    An arc ending at the cut 0 from below is written with hi = 1, and the
    circle minus one point p != 0 is the arc (p, p).
    """
    cuts, at = s.cuts, s.at_cut
    if not cuts:
        return [Arc(Q0, True, Q1, False)] if s.in_gap[0] else []
    out = []
    for j, inside in enumerate(s.in_gap):
        if inside:
            k = (j + 1) % len(cuts)
            hi = Q1 if k == 0 and cuts[0] == Q0 else cuts[k]
            out.append(Arc(cuts[j], at[j], hi, at[k]))
    return out


def split_arcs(s) -> tuple:
    """The arcs of s as pieces inside [0, 1], sorted by lo: an arc wrapping
    through 0 is split there into [0, hi) and (lo, 1)."""
    arcs = logical_arcs(s)
    if arcs and arcs[-1].hi.compare(arcs[-1].lo) <= 0:
        a = arcs.pop()
        arcs = [Arc(Q0, True, a.hi, a.hi_closed), *arcs, Arc(a.lo, a.lo_closed, Q1, False)]
    return tuple(arcs)
