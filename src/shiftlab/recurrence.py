"""Desk-scale recurrence checks.

Whether a candidate set returns some colour class (or a single set) to
itself is checked by bounded scans that report an explicit witness or a
window-limited miss; a miss is exact only when the colouring has analysable
periodic structure (or the underlying group is finite).  The module also
runs the two-part witness search on Z/3Z (+) B used to show that the naive
left-shift system fails beyond Boolean groups.

One-sided semantics throughout: a Found verdict is a theorem about the
input, a NotFoundInWindow verdict is only as strong as its window flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import FiniteGroup, Z3BElement, z3b_f
from .errors import BoundsExceededError, InputError
from .zshift import SequenceOracle

EQTECH_SUPPORT_CAP = 12


@dataclass(frozen=True)
class CandidateSet:
    """R* = R minus the identity: nonzero integers or non-identity elements."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def integers(cls, elements):
        elements = [int(n) for n in elements]
        if any(n == 0 for n in elements):
            raise InputError("0 is not allowed in a candidate set over Z")
        return cls(tuple(elements))

    @classmethod
    def group_elements(cls, group: FiniteGroup, elements):
        elements = [int(g) for g in elements]
        if any(g == group.identity for g in elements):
            raise InputError("the identity is not allowed in a candidate set")
        if any(not 0 <= g < group.order for g in elements):
            raise InputError("candidate element out of range")
        return cls(tuple(elements))


def _centered(radius):
    yield 0
    for h in range(1, radius + 1):
        yield h
        yield -h


def _scan_window(R: CandidateSet, oracle: SequenceOracle, radius: int):
    """One buffer holding oracle(h) and oracle(h + g) for every |h| <= radius
    and g in R, with the index offset of position 0."""
    if radius < 0:
        raise InputError(f"scan radius must be non-negative, got {radius}")
    lo = -radius + min(0, min(R.elements, default=0))
    hi = radius + max(0, max(R.elements, default=0))
    return oracle.window(lo, hi), -lo


@dataclass
class RecurrenceVerdict:
    found: bool
    g: int | None = None
    colour: object = None
    h: int | None = None
    radius: int | None = None
    exact: bool = False

    def describe(self):
        d = {"found": self.found}
        if self.found:
            d.update(g=self.g, h=self.h)
            if self.colour is not None:
                d["colour"] = self.colour
        else:
            d.update(radius=self.radius, exact=self.exact)
        return d


def _miss_is_exact(oracle: SequenceOracle, g: int, radius: int) -> bool:
    tails = oracle.tails()
    if tails is None:
        return False
    needed = max(abs(tails.right_from), abs(tails.left_upto)) + abs(g) + tails.period
    return radius >= needed


def chromatic_recurrence_check(R: CandidateSet, coloring, radius: int,
                               group: FiniteGroup | None = None) -> RecurrenceVerdict:
    """First (g, colour, h) with h and h+g (or g*h over a finite group) alike.

    g runs over the candidate set in increasing order; for each g the scan
    is centered (h = 0, 1, -1, ...) and among the matches the smallest
    colour with its earliest h wins.  Misses over Z carry a window caveat
    unless tail analysis covers the whole scan; finite groups are exact.
    Over Z the scan reads one window, and a negative radius is an InputError.
    """
    if group is not None:
        for g in R.elements:
            best = None
            for h in group.elements():
                if coloring[h] == coloring[group.mul(g, h)]:
                    cand = (coloring[h], h)
                    best = cand if best is None else min(best, cand)
            if best is not None:
                return RecurrenceVerdict(True, g=g, colour=best[0], h=best[1], exact=True)
        return RecurrenceVerdict(False, radius=group.order, exact=True)
    buf, off = _scan_window(R, coloring, radius)
    exact = True
    for g in R.elements:
        best = None
        for h in _centered(radius):
            colour = buf[h + off]
            # centered order: the first match of a colour is its earliest h
            if colour == buf[h + g + off] and (best is None or colour < best[0]):
                best = (colour, h)
        if best is not None:
            return RecurrenceVerdict(True, g=g, colour=best[0], h=best[1])
        exact = exact and _miss_is_exact(coloring, g, radius)
    return RecurrenceVerdict(False, radius=radius, exact=exact)


def syndetic_return_check(R: CandidateSet, subset: SequenceOracle, radius: int,
                          group: FiniteGroup | None = None,
                          config=None) -> RecurrenceVerdict:
    """First (g, h) with h and h+g (or g*h) both in the set.

    Over Z the scan reads one window, and a negative radius is an InputError.
    """
    if group is not None:
        for g in R.elements:
            for h in group.elements():
                if config[h] == 1 and config[group.mul(g, h)] == 1:
                    return RecurrenceVerdict(True, g=g, h=h, exact=True)
        return RecurrenceVerdict(False, radius=group.order, exact=True)
    buf, off = _scan_window(R, subset, radius)
    exact = True
    for g in R.elements:
        for h in _centered(radius):
            if buf[h + off] == 1 and buf[h + g + off] == 1:
                return RecurrenceVerdict(True, g=g, h=h)
        exact = exact and _miss_is_exact(subset, g, radius)
    return RecurrenceVerdict(False, radius=radius, exact=exact)


# ---------------------------------------------------------------------------
# The two-part witness search on Z/3Z (+) B
# ---------------------------------------------------------------------------

@dataclass
class EqtechResult:
    found: bool
    c: Z3BElement | None = None
    x: Z3BElement | None = None
    transcript: list | None = None    # [(a, b, f(a x^-1 b), f(a (cx)^-1 b))]
    fx: int | None = None
    fcx: int | None = None
    pairs_tried: int = 0

    def describe(self):
        d = {"found": self.found, "pairs_tried": self.pairs_tried}
        if self.found:
            d.update(c=str(self.c), x=str(self.x), f_x=self.fx, f_cx=self.fcx)
            d["transcript"] = [
                {"a": str(a), "b": str(b), "f_a_xinv_b": u, "f_a_cxinv_b": v}
                for a, b, u, v in self.transcript]
        return d


def eqtech_search(S, support_bound: int, search_bound: int | None = None) -> EqtechResult:
    """Search for (c, x) separating the marker function along S-conjugates.

    Wanted: z3b_f(x) != z3b_f(c*x) while z3b_f(a * x^-1 * b) agrees with
    z3b_f(a * (c*x)^-1 * b) for every a, b in S.  Pairs are scanned by
    total support size, then lexicographically; the first hit returns with
    the full (a, b) verification transcript.
    """
    if search_bound is None:
        search_bound = support_bound
    if search_bound > EQTECH_SUPPORT_CAP:
        raise BoundsExceededError(f"search bound {search_bound} exceeds {EQTECH_SUPPORT_CAP}")
    S = list(S)
    if any(max(a.support, default=0) > support_bound for a in S):
        raise InputError("an element of S has support beyond the stated bound")
    by_size = {}

    def of_size(k):
        # built on first use, already in Z3BElement.sort_key order: supports
        # lexicographically, then r
        if k not in by_size:
            by_size[k] = [Z3BElement(r, frozenset(support))
                          for support in combinations(range(1, search_bound + 1), k)
                          for r in (0, 1, 2)]
        return by_size[k]

    def pairs():
        # total support size, then lexicographic on (c, x) sort keys
        for total in range(0, 2 * search_bound + 1):
            for c_size in range(0, min(total, search_bound) + 1):
                x_size = total - c_size
                if x_size > search_bound:
                    continue
                for c in of_size(c_size):
                    for x in of_size(x_size):
                        yield c, x

    tried = 0
    for c, x in pairs():
        tried += 1
        fx, fcx = z3b_f(x), z3b_f(c.mul(x))
        if fx == fcx:
            continue
        transcript = []
        ok = True
        xinv = x.inv()
        cxinv = c.mul(x).inv()
        for a in S:
            for b in S:
                u = z3b_f(a.mul(xinv).mul(b))
                v = z3b_f(a.mul(cxinv).mul(b))
                transcript.append((a, b, u, v))
                if u != v:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return EqtechResult(True, c=c, x=x, transcript=transcript,
                                fx=fx, fcx=fcx, pairs_tried=tried)
    return EqtechResult(False, pairs_tried=tried)


def reverify_eqtech(result: EqtechResult, S) -> bool:
    """Independent recomputation of every value in a Found transcript."""
    if not result.found:
        return False
    c, x = result.c, result.x
    if z3b_f(x) != result.fx or z3b_f(c.mul(x)) != result.fcx or result.fx == result.fcx:
        return False
    expected = {}
    for a in S:
        for b in S:
            u = z3b_f(a.mul(x.inv()).mul(b))
            v = z3b_f(a.mul(c.mul(x).inv()).mul(b))
            if u != v:
                return False
            expected[(a, b)] = (u, v)
    for a, b, u, v in result.transcript:
        if (a, b) in expected and expected[(a, b)] != (u, v):
            return False
    return True
