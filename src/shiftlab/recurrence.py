"""Desk-scale recurrence checks.

Whether a candidate set returns some colour class (or a single set) to
itself is checked by one bounded scan that reports an explicit witness or
a window-limited miss.  The scan reads the oracle once, as a digit
string, and matches each step g and colour c as the word (c, c) at offsets
(0, g) with the bit-parallel matcher every word scan shares; a set's
return is the same scan over the one colour 1.  A miss is exact only when
the window's ``absent`` finds every such word absent from Z: a colour
outside the alphabet, an empty rotation locus, or tails that cover the
scan.  A return that occurs outside the window is not reported as found,
and leaves the miss windowed.  The module also runs the two-part witness
search on Z/3Z (+) B used to show that the naive left-shift system fails
beyond Boolean groups.

One-sided semantics throughout: a Found verdict is a theorem about the
input, a NotFoundInWindow verdict is only as strong as its window flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import Z3BElement, symbol_key, z3b_f, z3b_marker
from .errors import BoundsExceededError, InputError
from .zshift import SequenceOracle, _EncodedWindow

EQTECH_SUPPORT_CAP = 12


@dataclass(frozen=True)
class CandidateSet:
    """R* = R minus the identity: nonzero integers."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def integers(cls, elements):
        elements = [int(n) for n in elements]
        if any(n == 0 for n in elements):
            raise InputError("0 is not allowed in a candidate set over Z")
        return cls(tuple(elements))


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


def _first_return(R: CandidateSet, oracle: SequenceOracle, radius: int, colours):
    """The scan of both checks: the oracle is read once as a digit string,
    and each (g, colour), g in increasing order and colours in the given
    order, is one ``starts`` mask of the word (colour, colour) at (0, g).
    Only when every mask is empty does ``absent`` decide if the miss is exact.
    An empty candidate set, which no scan could answer, is an InputError."""
    if radius < 0:
        raise InputError(f"scan radius must be non-negative, got {radius}")
    if not R.elements:
        raise InputError("candidate set must be nonempty")
    lo = -radius + min(0, *R.elements)
    hi = radius + max(0, *R.elements)
    window = _EncodedWindow(oracle, lo, hi)
    for g in R.elements:
        for colour in colours:
            hits = window.starts((0, g), (colour, colour), -radius, radius)  # bit h + radius
            if hits:
                # the first h in centred order: the lowest set bit at or above
                # h = 0 against the highest below it, +t winning a tie with -t
                up, down = hits >> radius, hits & ((1 << radius) - 1)
                plus = (up & -up).bit_length() - 1 if up else radius + 1
                minus = radius + 1 - down.bit_length() if down else radius + 1
                return RecurrenceVerdict(True, g=g, colour=colour,
                                         h=plus if plus <= minus else -minus)
    exact = all(window.absent((0, g), (c, c), radius) for g in R.elements for c in colours)
    return RecurrenceVerdict(False, radius=radius, exact=exact)


def chromatic_recurrence_check(R: CandidateSet, coloring, radius: int) -> RecurrenceVerdict:
    """First (g, colour, h) with h and h+g alike.

    g runs over the candidate set in increasing order; for each g the
    smallest colour in ``symbol_key`` order that returns at all wins, with
    its first h in centred order (h = 0, 1, -1, ...).  Misses carry a
    window caveat unless every (g, colour) word is absent from Z.  The scan
    reads one digit string, and a negative radius is an InputError.
    """
    return _first_return(R, coloring, radius, sorted(set(coloring.alphabet), key=symbol_key))


def syndetic_return_check(R: CandidateSet, subset: SequenceOracle,
                          radius: int) -> RecurrenceVerdict:
    """First (g, h) with h and h+g both in the set: the chromatic scan over
    the one colour 1, reported without a colour.

    The scan reads one digit string, and a negative radius is an InputError.
    """
    verdict = _first_return(R, subset, radius, (1,))
    verdict.colour = None
    return verdict


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
    total support size, then lexicographically, as integer pairs (r, support
    bitmask); the first hit returns with the full (a, b) verification
    transcript.  A negative search bound and an empty S are InputErrors.
    """
    if search_bound is None:
        search_bound = support_bound
    if search_bound < 0:
        raise InputError(f"search bound must be non-negative, got {search_bound}")
    if search_bound > EQTECH_SUPPORT_CAP:
        raise BoundsExceededError(f"search bound {search_bound} exceeds {EQTECH_SUPPORT_CAP}")
    S = list(S)
    if not S:
        raise InputError("the context S must be nonempty")
    if any(max(a.support, default=0) > support_bound for a in S):
        raise InputError("an element of S has support beyond the stated bound")
    by_size = {}

    def of_size(k):
        # built on first use, already in Z3BElement.sort_key order: supports
        # lexicographically, then r; each element as (r, support bitmask, support)
        if k not in by_size:
            by_size[k] = [(r, sum(1 << i for i in support), support)
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

    # abelian: a x^-1 b = (a b) x^-1, so each candidate meets only the distinct products a b
    products = {((a.r + b.r) % 3, sum(1 << i for i in a.support ^ b.support))
                for a in S for b in S}
    tried = 0
    for (cr, cm, c_support), (xr, xm, x_support) in pairs():
        tried += 1
        fx, fcx = z3b_marker(xr, xm), z3b_marker((cr + xr) % 3, cm ^ xm)
        if fx == fcx:
            continue
        if all(z3b_marker((pr - xr) % 3, pm ^ xm) == z3b_marker((pr - cr - xr) % 3, pm ^ cm ^ xm)
               for pr, pm in products):
            c, x = Z3BElement(cr, frozenset(c_support)), Z3BElement(xr, frozenset(x_support))
            xinv, cxinv = x.inv(), c.mul(x).inv()
            transcript = [(a, b, z3b_f(a.mul(xinv).mul(b)), z3b_f(a.mul(cxinv).mul(b)))
                          for a in S for b in S]
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
