"""Sliding-block codes and code-based isomorphism analysis.

A block code is a finite window of offsets plus a local rule; applying it
to a sequence oracle gives another oracle.  On top of that this module
checks window realizations (does a code carry one sequence onto another),
decides whether a code is a generalized projection on a windowed
orbit-closure approximation (with exact limit points for eventually
periodic oracles), searches for a code realizing one sequence from
another in a canonical enumeration order, and runs the combinatorial
intersection-pattern test for isomorphic sets.

Patterns have one form here: the pattern code of ``_pattern_codes``, read
off digit strings.  Orbit-closure representatives are digit strings, the
separation verdict maps their codes through a table of one output per
code, and the search hands it each candidate rule as its list of output
digits, building a BlockCode only for the rule it returns.

Windowed verdicts are certificates at their stated depth, never proofs
for all of Z; report objects carry that caveat explicitly.  The
intersection-pattern check decides each pattern set through the window's
``absent`` in the zshift module, so a set is empty over Z exactly when a
return check would call the same word's miss exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate, combinations, product

from .algebra import symbol_key
from .errors import AlphabetMismatchError, BoundsExceededError, InputError, VerificationFailedError
from .zshift import (
    CodeImageOracle,
    SequenceOracle,
    _digits_of,
    _EncodedWindow,
    _pattern_codes,
    _recode,
    centered,
)

SEARCH_TUPLE_CAP = 10**6
MAX_PROJECTION_DEPTH = 24


def _over_cap(base, exponent, factor=1):
    """factor * base**exponent > SEARCH_TUPLE_CAP, for base, factor >= 1, without
    building a huge power: any base >= 2 passes the cap within bit_length steps."""
    return factor * base ** min(exponent, SEARCH_TUPLE_CAP.bit_length()) > SEARCH_TUPLE_CAP


@dataclass(frozen=True)
class BlockCode:
    """Offsets g1 < ... < gk plus a total local rule on the input alphabet.

    Every rule value must lie in the output alphabet, which defaults to the
    rule's values; an oracle's alphabet is read from it."""

    offsets: tuple
    rule: dict
    input_alphabet: tuple
    output_alphabet: tuple = ()

    def __post_init__(self):
        if not self.offsets:
            raise InputError("a block code needs at least one offset")
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise InputError("code offsets must be strictly increasing")
        k = len(self.offsets)
        for pattern in self.rule:
            if len(pattern) != k:
                raise InputError(f"rule pattern {pattern!r} has arity {len(pattern)}, expected {k}")
        missing = [p for p in product(self.input_alphabet, repeat=k) if p not in self.rule]
        if missing:
            raise InputError(f"rule is not total: first missing pattern {missing[0]!r}")
        if not self.output_alphabet:
            object.__setattr__(self, "output_alphabet",
                               tuple(sorted(set(self.rule.values()), key=symbol_key)))
        unlisted = set(self.rule.values()) - set(self.output_alphabet)
        if unlisted:
            raise InputError(f"rule values {sorted(unlisted, key=repr)} are outside the "
                             f"output alphabet")
        object.__setattr__(self, "rule", dict(self.rule))

    @property
    def span(self):
        return self.offsets[-1] - self.offsets[0]

    def describe(self):
        return {
            "offsets": list(self.offsets),
            "rule": {"".join(map(str, k)): v for k, v in sorted(
                self.rule.items(), key=lambda kv: tuple(map(symbol_key, kv[0])))},
            "input_alphabet": list(self.input_alphabet),
        }

    def __hash__(self):
        return hash((self.offsets, frozenset(self.rule.items())))


def parity_code(offsets, alphabet=(0, 1)) -> BlockCode:
    rule = {p: sum(p) % 2 for p in product(alphabet, repeat=len(offsets))}
    return BlockCode(tuple(offsets), rule, tuple(alphabet))


def apply_code(code: BlockCode, oracle: SequenceOracle) -> SequenceOracle:
    """The image oracle n -> rule(oracle(n + g1), ..., oracle(n + gk))."""
    return CodeImageOracle(code, oracle)


# ---------------------------------------------------------------------------
# Realization
# ---------------------------------------------------------------------------

@dataclass
class RealizationResult:
    agrees: bool
    radius: int
    mismatch: tuple | None = None   # (n, got, want)

    def describe(self):
        d = {"agrees": self.agrees, "radius": self.radius}
        if self.mismatch:
            d["mismatch"] = {"n": self.mismatch[0], "got": self.mismatch[1],
                             "want": self.mismatch[2]}
        return d


def verify_realization(code: BlockCode, source: SequenceOracle,
                       target: SequenceOracle, radius: int) -> RealizationResult:
    """Does the coded source agree with the target on [-radius, radius]?

    A negative radius is an InputError, not a vacuous agreement.
    """
    if radius < 0:
        raise InputError(f"realization window radius must be non-negative, got {radius}")
    image = apply_code(code, source)
    got = image.digits(-radius, radius)
    want = target.digits(-radius, radius)
    same = _recode(got, image.alphabet, target.alphabet)
    if same == want:
        return RealizationResult(True, radius)
    # the first difference, by bisection on prefix equality
    lo, hi = 0, len(want)  # same[:lo] == want[:lo] and same[:hi] != want[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if same[:mid] == want[:mid] else (lo, mid)
    return RealizationResult(False, radius, (
        lo - radius, _digits_of(image.alphabet).symbols[ord(got[lo])],
        _digits_of(target.alphabet).symbols[ord(want[lo])]))


# ---------------------------------------------------------------------------
# Windowed orbit closure and generalized projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representative:
    """A centered word of the orbit-closure approximation, as digit strings
    over the oracle's alphabet: ``text`` holds the coordinates from ``ext_lo``
    on, enough to evaluate a code at every shift within the depth, and
    ``tile`` those in 0..period-1 when the representative is an exact tail
    limit point.  ``center`` is the decoded centered word, as reported.
    """

    center: tuple
    text: str
    ext_lo: int
    tile: str | None = None


def windowed_orbit_representatives(oracle: SequenceOracle, depth: int, radius: int,
                                   ext_lo: int = 0, ext_hi: int = 0):
    """Distinct centered (2*depth+1)-words in the window, plus exact tail limits.

    Each representative is extended to cover [-depth + ext_lo, depth + ext_hi].
    For oracles with eventually periodic tails the limit points of the orbit
    are exactly the bi-infinite periodizations of the two tails; their
    central words join the set marked with their periodic structure.
    """
    lo_i, hi_i = -depth + min(ext_lo, 0), depth + max(ext_hi, 0)
    width = hi_i - lo_i + 1
    text = oracle.digits(-radius + lo_i, radius + hi_i)
    decode = _digits_of(oracle.alphabet).decode
    at, size = -depth - lo_i, 2 * depth + 1  # where a center sits in its extension
    # the distinct centers, in the order of the first shift t = -radius.. that reads each
    centers = dict.fromkeys([text[i:i + size] for i in range(at, at + 2 * radius + 1)])
    reps = {}
    for word in centers:
        i = text.find(word, at) - at  # t + radius for that first t
        reps[word] = Representative(tuple(decode(word)), text[i:i + width], lo_i)
    tails = oracle.tails()
    if tails is not None:
        period = tails.period
        for word in (oracle.digits(tails.right_from, tails.right_from + period - 1),
                     oracle.digits(tails.left_upto - period + 1, tails.left_upto)):
            for phase in range(period):
                tile = word[phase:] + word[:phase]
                # ext[j] = tile[(lo_i + j) % period]
                ext = (tile * (width // period + 2))[lo_i % period:][:width]
                center = ext[at:at + size]
                # periodic structure wins over a plain window word
                reps[center] = Representative(tuple(decode(center)), ext, lo_i, tile)
    return list(reps.values())


def _code_lists(reps, alphabet, symbols, offsets, depth):
    """(window, period) pattern codes of each representative over the digits
    of ``symbols``, recoded from ``alphabet``: those a code with these offsets
    reads at shifts -depth..depth, and at shifts 0..period-1 for a limit
    point (else None).  One ``_pattern_codes`` call reads every piece, joined."""
    size, span = 2 * depth + 1, offsets[-1] - offsets[0]
    pieces = []
    for rep in reps:
        start = -depth + offsets[0] - rep.ext_lo
        piece = rep.text[start:start + size + span]
        if start < 0 or len(piece) - span != size:  # fewer codes than shifts
            raise IndexError(f"representative does not cover offsets {offsets}")
        pieces.append(piece)
        if rep.tile is not None:
            p = len(rep.tile)
            # coordinates offsets[0] on, so that code s reads the pattern at shift s
            pieces.append((rep.tile[offsets[0] % p:] + rep.tile * (span // p + 2))[:p + span])
    codes = _pattern_codes(_recode("".join(pieces), alphabet, symbols), len(symbols), offsets)
    at = [0, *accumulate(map(len, pieces))]  # no code straddling two pieces is kept
    lists = iter([codes[i:j - span] for i, j in zip(at, at[1:])])
    return [(next(lists), None if rep.tile is None else next(lists)) for rep in reps]


@dataclass
class ProjectionResult:
    separates: bool
    depth: int
    radius: int
    witness: tuple | None = None      # (center word, center word)
    exact: bool = False               # witness pair provably in the orbit closure
    representatives: int = 0

    def describe(self):
        d = {"separates": self.separates, "depth": self.depth, "radius": self.radius,
             "representatives": self.representatives}
        if self.witness:
            d["witness"] = [list(self.witness[0]), list(self.witness[1])]
            d["exact"] = self.exact
        return d


def verify_generalized_projection(code: BlockCode, oracle: SequenceOracle,
                                  depth: int, radius: int) -> ProjectionResult:
    """Does the code's shift orbit separate the depth-limited orbit closure?

    Representatives are the distinct centered words of the window plus the
    exact periodic tail limits.  Separation demands that any two distinct
    representatives get different code outputs at some shift within the
    depth.  A failing pair of periodic limit words whose outputs agree over
    a full common period fails exactly; any other failing pair is only a
    depth-limited witness.
    """
    _check_projection_bounds(depth, radius)
    bad = [s for s in oracle.alphabet if s not in code.input_alphabet]
    if bad:
        raise AlphabetMismatchError(f"oracle symbols {bad} outside code input alphabet")
    reps = windowed_orbit_representatives(
        oracle, depth, radius, ext_lo=code.offsets[0], ext_hi=code.offsets[-1])
    symbols = _digits_of(oracle.alphabet).symbols
    # pattern code c has output table[c]: patterns in product order, as CodeImageOracle reads them
    table = [code.rule[p] for p in product(symbols, repeat=len(code.offsets))]
    lists = _code_lists(reps, oracle.alphabet, symbols, code.offsets, depth)
    return _separation(table, reps, lists, depth, radius)


def _check_projection_bounds(depth, radius):
    if depth < 0:
        raise InputError(f"projection depth must be non-negative, got {depth}")
    if radius < 0:
        raise InputError(f"projection window radius must be non-negative, got {radius}")
    if depth > MAX_PROJECTION_DEPTH:
        raise BoundsExceededError(f"projection depth {depth} exceeds {MAX_PROJECTION_DEPTH}")
    if radius < depth:
        raise BoundsExceededError("projection radius must be at least the depth")


def _separation(table, reps, code_lists, depth, radius) -> ProjectionResult:
    """The separation verdict of verify_generalized_projection on given
    representatives, their ``_code_lists`` and a table of one output per
    pattern code.  Witness centers are ordered by ``symbol_key``, so int and
    str symbols mix; two limit points fail exactly when their outputs over
    one period each agree over the lcm period."""
    outputs = {}
    for rep, (window, period) in zip(reps, code_lists):
        outputs.setdefault(tuple(map(table.__getitem__, window)), []).append((rep, period))
    collisions = [group for group in outputs.values() if len(group) > 1]
    if not collisions:
        return ProjectionResult(True, depth, radius, representatives=len(reps))

    def order(entry):
        return tuple(map(symbol_key, entry[0].center))
    pairs = [pair for group in collisions for pair in combinations(sorted(group, key=order), 2)]
    pairs.sort(key=lambda pair: (order(pair[0]), order(pair[1])))
    # prefer an exactly-failing pair of periodic limit words
    for (a, pa), (b, pb) in pairs:
        if pa is not None and pb is not None:
            lcm = math.lcm(len(pa), len(pb))
            if ([*map(table.__getitem__, pa)] * (lcm // len(pa))
                    == [*map(table.__getitem__, pb)] * (lcm // len(pb))):
                return ProjectionResult(False, depth, radius, witness=(a.center, b.center),
                                        exact=True, representatives=len(reps))
    (a, _), (b, _) = pairs[0]
    return ProjectionResult(False, depth, radius, witness=(a.center, b.center),
                            exact=False, representatives=len(reps))


# ---------------------------------------------------------------------------
# Isomorphism-code search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    found: bool
    code: BlockCode | None = None
    shift: int | None = None
    realization: RealizationResult | None = None
    projection: ProjectionResult | None = None
    max_span: int = 0
    depth: int = 0
    radius: int = 0
    candidates_tried: int = 0

    def describe(self):
        d = {"found": self.found, "max_span": self.max_span, "depth": self.depth,
             "radius": self.radius, "caveat": "desk-scale certificate"
             if self.found else "search-exhausted"}
        if self.found:
            d["code"] = self.code.describe()
            d["shift"] = self.shift
            d["realization"] = self.realization.describe()
            d["projection"] = self.projection.describe()
        return d


def _offset_sets(max_span):
    """Subsets of [0, max_span] containing 0, by size then lexicographically."""
    rest = list(range(1, max_span + 1))
    out = []
    for size in range(0, max_span + 1):
        for extra in combinations(rest, size):
            out.append((0,) + extra)
    return out


def _extensions(forced, read, size, nout):
    """(rule index, digits) of the rules extending a forced partial rule, in
    canonical index order, with every pattern the separation verdict cannot
    read left at the first output symbol.  Among rules that agree on the read
    patterns that one has the least index, so no first hit is skipped."""
    base = [0] * size
    for i, d in forced.items():
        base[i] = d
    free = sorted(read - forced.keys())
    for choice in product(range(nout), repeat=len(free)):
        digits = base[:]
        for i, d in zip(free, choice):
            digits[i] = d
        key = 0
        for d in digits:
            key = key * nout + d
        yield key, digits


def _forced_rule(enc, scan, t):
    """The partial rule {pattern code: output digit} that shift t forces, or
    None at the first position that forces one pattern two ways."""
    forced = {}
    for i, wanted in scan:
        if forced.setdefault(enc[i + t], wanted) != wanted:
            return None
    return forced


def _consistent_shifts(source, offsets, alphabet, scan, shifts):
    """(t, forced) for every shift t, in centered order, at which some rule on
    these offsets carries the shifted source onto the target window, with the
    partial rule that window forces.

    ``shifts`` is list(centered(radius)) and ``scan`` lists (n + 2 * radius,
    target output digit at n) in that order of n.  The source is read once,
    over every shift, as a digit string over ``alphabet``, and shift t reads
    the pattern code ``enc[n + 2 * radius + t]`` at n, all codes computed at
    once by ``_pattern_codes``.  When the codes repeat with the source's tail
    period P (checked on the codes themselves), shifts t and t + P read the
    same patterns against the same target, so only the first shift of each
    residue class mod P is scanned and the others reuse its verdict.
    """
    radius = len(shifts) // 2
    text = source.digits(-2 * radius + offsets[0], 2 * radius + offsets[-1])
    enc = _pattern_codes(_recode(text, source.alphabet, alphabet), len(alphabet), offsets)
    tails = source.tails()
    period = tails.period if tails is not None else 0
    repeats = 0 < period < len(enc) and enc[period:] == enc[:-period]
    # without a repeat every shift is its own class; either way the first
    # `classes` shifts in centered order are consecutive integers, so they
    # are the first shift of each residue class
    classes = period if repeats else len(shifts)
    verdicts = {t % classes: _forced_rule(enc, scan, t) for t in shifts[:classes]}
    return [(t, verdicts[t % classes]) for t in shifts if verdicts[t % classes] is not None]


def search_isomorphism_code(target: SequenceOracle, source: SequenceOracle,
                            max_span: int, depth: int, radius: int) -> SearchResult:
    """First (code, shift) realizing target from the shifted source and separating.

    The canonical enumeration is: offset sets within [0, max_span] ordered
    by size then lexicographically; for each, all total rules in canonical
    index order; for each rule, shifts 0, 1, -1, 2, ...  The implementation
    propagates the constraints the realization window forces on the rule:
    a rule realizes at a shift exactly when it extends that shift's forced
    partial rule, and the separation verdict reads only the pattern codes of
    the orbit-closure representatives, built once per search over the whole
    span.  The extensions of every consistent partial, lists of output
    digits that the verdict reads as its table, are merged in rule-index
    order; the first that separates, at the first shift whose partial it
    extends, is the canonical enumeration's first hit, found at a fraction
    of the cost, and only it becomes a BlockCode.
    A found pair is re-verified from scratch and reported as a desk-scale
    certificate, never as a proof over all of Z.  A negative radius,
    max_span or depth is an InputError; the projection bounds on depth and
    radius are checked before any scan, whatever the inputs.

    A source whose window repeats with its tail period P is decided once
    per residue class of shifts mod P; ``candidates_tried`` still counts
    every (offset set, shift) pair.
    """
    for name, value in (("window radius", radius), ("max_span", max_span), ("depth", depth)):
        if value < 0:
            raise InputError(f"search {name} must be non-negative, got {value}")
    _check_projection_bounds(depth, radius)
    in_alpha = tuple(sorted(set(source.alphabet), key=symbol_key))
    out_alpha = tuple(sorted(set(target.alphabet), key=symbol_key))
    if len(in_alpha) <= 2 and max_span > 4:
        raise BoundsExceededError("max_span is capped at 4 for binary alphabets")
    if _over_cap(len(in_alpha), max_span + 1, 2 * radius + 1):
        raise BoundsExceededError("search space exceeds the tuple cap")

    want = _recode(target.digits(-radius, radius), target.alphabet, out_alpha)
    shifts = list(centered(radius))
    # conflicts cluster near the structured center, so scan n center-out
    scan = [(n + 2 * radius, ord(want[n + radius])) for n in shifts]
    tried, reps = 0, None
    for offsets in _offset_sets(max_span):
        partials = _consistent_shifts(source, offsets, in_alpha, scan, shifts)
        tried += 2 * radius + 1
        if not partials:
            continue
        # one set per search: an offset set's codes read a prefix of each extension
        reps = reps or windowed_orbit_representatives(source, depth, radius, ext_hi=max_span)
        code_lists = _code_lists(reps, source.alphabet, in_alpha, offsets, depth)
        # every pattern code the separation verdict can read, whatever the rule
        read = {c for pair in code_lists for codes in pair if codes is not None for c in codes}
        distinct = {frozenset(forced.items()): forced for _, forced in partials}
        streams = [_extensions(forced, read, len(in_alpha) ** len(offsets), len(out_alpha))
                   for forced in distinct.values()]
        last = None
        for key, digits in heapq.merge(*streams):
            if key == last:
                continue
            last = key
            proj = _separation(digits, reps, code_lists, depth, radius)
            if not proj.separates:
                continue
            t = next(t for t, forced in partials
                     if all(digits[i] == d for i, d in forced.items()))
            # pattern number i of the canonical pattern list has code i
            rule = dict(zip(product(in_alpha, repeat=len(offsets)),
                            map(out_alpha.__getitem__, digits)))
            code = BlockCode(offsets, rule, in_alpha, out_alpha)
            # the code read at offsets + t on the source is the code on the shifted source
            shifted = BlockCode(tuple(o + t for o in offsets), rule, in_alpha, out_alpha)
            real = verify_realization(shifted, source, target, radius)
            if not real.agrees:
                raise VerificationFailedError("forced rule failed its own realization recheck")
            return SearchResult(True, code=code, shift=t, realization=real,
                                projection=proj, max_span=max_span, depth=depth,
                                radius=radius, candidates_tried=tried)
    return SearchResult(False, max_span=max_span, depth=depth, radius=radius,
                        candidates_tried=tried)


# ---------------------------------------------------------------------------
# Intersection patterns
# ---------------------------------------------------------------------------

@dataclass
class PatternCheckResult:
    equivalent: bool
    arity: int
    shifts: tuple
    radius: int
    exact: bool
    witness: dict | None = None

    def describe(self):
        d = {"equivalent": self.equivalent, "arity": self.arity,
             "shifts": list(self.shifts), "radius": self.radius,
             "caveat": "exact" if self.exact else "windowed"}
        if self.witness:
            d["witness"] = self.witness
        return d


def intersection_pattern_check(a: SequenceOracle, b: SequenceOracle, shifts, arity: int,
                               radius: int) -> PatternCheckResult:
    """Compare nonemptiness of all shifted intersection patterns of two binary sets.

    For every tuple (g_1..g_k, eps_1..eps_k) over the given shifts, the
    intersection of the translated sets (or complements) must be nonempty
    for A exactly when it is for B.  The first mismatching tuple in
    canonical order is returned.  Verdicts are exact when both sides decide
    emptiness exactly (the window's ``absent``), else windowed.
    Each oracle is read once, over one window; a negative radius, an arity
    below 1 or an empty shift list is an InputError.
    """
    shifts = tuple(sorted(set(int(s) for s in shifts)))
    if set(a.alphabet) - {0, 1} or set(b.alphabet) - {0, 1}:
        raise AlphabetMismatchError("intersection patterns need binary oracles")
    if radius < 0:
        raise InputError(f"pattern window radius must be non-negative, got {radius}")
    if arity < 1:
        raise InputError(f"pattern arity must be at least 1, got {arity}")
    if not shifts:
        raise InputError("intersection patterns need at least one shift")
    if _over_cap(len(shifts) * 2, arity):
        raise BoundsExceededError(
            f"{len(shifts) * 2}**{arity} tuples exceed the cap {SEARCH_TUPLE_CAP}")
    lo = -radius + min(shifts, default=0)
    hi = radius + max(shifts, default=0)
    windows = _EncodedWindow(a, lo, hi), _EncodedWindow(b, lo, hi)
    all_exact = True
    for gs in product(shifts, repeat=arity):
        for eps in product((0, 1), repeat=arity):
            absent = [window.absent(gs, eps, radius) for window in windows]
            exact = None not in absent
            all_exact = all_exact and exact
            na, nb = (verdict is False for verdict in absent)
            if na != nb:
                witness = {"shifts": list(gs), "values": list(eps),
                           "nonempty_a": na, "nonempty_b": nb}
                return PatternCheckResult(False, arity, shifts, radius,
                                          exact=exact, witness=witness)
    return PatternCheckResult(True, arity, shifts, radius, exact=all_exact)

