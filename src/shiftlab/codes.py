"""Sliding-block codes and code-based isomorphism analysis.

A block code is a finite window of offsets plus a local rule; applying it
to a sequence oracle gives another oracle.  On top of that this module
checks window realizations (does a code carry one sequence onto another),
decides whether a code is a generalized projection on a windowed
orbit-closure approximation (with exact limit points for eventually
periodic oracles), searches for a code realizing one sequence from
another in a canonical enumeration order, and runs the combinatorial
intersection-pattern test for isomorphic sets.

Windowed verdicts are certificates at their stated depth, never proofs
for all of Z; report objects carry that caveat explicitly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import product

from .errors import AlphabetMismatchError, BoundsExceededError, InputError, VerificationFailedError
from .zshift import (
    CodeImageOracle,
    RotationOracle,
    SequenceOracle,
    WordPattern,
)

SEARCH_TUPLE_CAP = 10**6
MAX_PROJECTION_DEPTH = 24


@dataclass(frozen=True)
class BlockCode:
    """Offsets g1 < ... < gk plus a total local rule on the input alphabet."""

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
                               tuple(sorted(set(self.rule.values()))))
        object.__setattr__(self, "rule", dict(self.rule))

    @property
    def span(self):
        return self.offsets[-1] - self.offsets[0]

    def describe(self):
        return {
            "offsets": list(self.offsets),
            "rule": {"".join(map(str, k)): v for k, v in sorted(self.rule.items(),
                                                                key=lambda kv: kv[0])},
            "input_alphabet": list(self.input_alphabet),
        }

    def __hash__(self):
        return hash((self.offsets, tuple(sorted(self.rule.items()))))


def identity_code(alphabet) -> BlockCode:
    return BlockCode((0,), {(s,): s for s in alphabet}, tuple(alphabet))


def parity_code(offsets, alphabet=(0, 1)) -> BlockCode:
    rule = {p: sum(p) % 2 for p in product(alphabet, repeat=len(offsets))}
    return BlockCode(tuple(offsets), rule, tuple(alphabet))


def relabel_code(mapping: dict) -> BlockCode:
    return BlockCode((0,), {(k,): v for k, v in mapping.items()}, tuple(sorted(mapping)))


def apply_code(code: BlockCode, oracle: SequenceOracle) -> SequenceOracle:
    """The image oracle n -> rule(oracle(n + g1), ..., oracle(n + gk))."""
    return CodeImageOracle(code, oracle)


def compose_codes(outer: BlockCode, inner: BlockCode) -> BlockCode:
    """A single code equal to applying inner first, then outer."""
    offsets = sorted({o + p for o in outer.offsets for p in inner.offsets})
    pos = {o: i for i, o in enumerate(offsets)}
    rule = {}
    for pattern in product(inner.input_alphabet, repeat=len(offsets)):
        mids = tuple(
            inner.rule[tuple(pattern[pos[o + p]] for p in inner.offsets)]
            for o in outer.offsets)
        rule[pattern] = outer.rule[mids]
    return BlockCode(tuple(offsets), rule, inner.input_alphabet)


def shifted_oracle(oracle: SequenceOracle, t: int) -> SequenceOracle:
    """The oracle n -> oracle(n + t), as a width-one code image."""
    if t == 0:
        return oracle
    code = BlockCode((t,), {(s,): s for s in oracle.alphabet}, tuple(oracle.alphabet))
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
    got = image.window(-radius, radius)
    want = target.window(-radius, radius)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return RealizationResult(False, radius, (i - radius, g, w))
    return RealizationResult(True, radius)


# ---------------------------------------------------------------------------
# Windowed orbit closure and generalized projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Representative:
    """A centered word of the orbit-closure approximation.

    ``extended`` covers the coordinates needed to evaluate a code at every
    shift within the depth; ``periodic`` carries (period, phase-anchored
    pattern) when the representative is an exact tail limit point.
    """

    center: tuple
    extended: tuple
    ext_lo: int
    periodic: tuple | None = None   # (period, tuple pattern aligned at index 0)

    def patterns(self, offsets, depth: int):
        """The patterns a code with these offsets reads at shifts -depth..depth."""
        start = -depth - self.ext_lo
        if start + offsets[0] < 0 or start + offsets[-1] + 2 * depth >= len(self.extended):
            raise IndexError(f"representative does not cover offsets {offsets}")
        return zip(*(self.extended[start + o:start + o + 2 * depth + 1] for o in offsets))


def windowed_orbit_representatives(oracle: SequenceOracle, depth: int, radius: int,
                                   ext_lo: int = 0, ext_hi: int = 0):
    """Distinct centered (2*depth+1)-words in the window, plus exact tail limits.

    Each representative is extended to cover [-depth + ext_lo, depth + ext_hi].
    For oracles with eventually periodic tails the limit points of the orbit
    are exactly the bi-infinite periodizations of the two tails; their
    central words join the set marked with their periodic structure.
    """
    lo_i, hi_i = -depth + min(ext_lo, 0), depth + max(ext_hi, 0)
    buf = oracle.window(-radius + lo_i, radius + hi_i)
    reps = {}
    for t in range(-radius, radius + 1):
        ext = tuple(buf[t + radius:t + radius + hi_i - lo_i + 1])
        center = ext[(-depth - lo_i):(-depth - lo_i) + 2 * depth + 1]
        if center not in reps:
            reps[center] = Representative(center, ext, lo_i)
    tails = oracle.tails()
    if tails is not None:
        period = tails.period
        for word in (oracle.window(tails.right_from, tails.right_from + period - 1),
                     oracle.window(tails.left_upto - period + 1, tails.left_upto)):
            for phase in range(period):
                aligned = tuple(word[phase:] + word[:phase])
                ext = tuple(aligned[i % period] for i in range(lo_i, hi_i + 1))
                center = tuple(aligned[i % period] for i in range(-depth, depth + 1))
                rep = Representative(center, ext, lo_i, periodic=(period, aligned))
                reps[center] = rep  # periodic structure wins over a plain window word
    return list(reps.values())


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
    return _separation(code, reps, depth, radius)


def _check_projection_bounds(depth, radius):
    if radius < 0:
        raise InputError(f"projection window radius must be non-negative, got {radius}")
    if depth > MAX_PROJECTION_DEPTH:
        raise BoundsExceededError(f"projection depth {depth} exceeds {MAX_PROJECTION_DEPTH}")
    if radius < depth:
        raise BoundsExceededError("projection radius must be at least the depth")


def _separation(code, reps, depth, radius) -> ProjectionResult:
    """The separation verdict of verify_generalized_projection on given representatives."""
    outputs = {}
    for rep in reps:
        out = tuple(code.rule[p] for p in rep.patterns(code.offsets, depth))
        outputs.setdefault(out, []).append(rep)
    collisions = [group for group in outputs.values() if len(group) > 1]
    if not collisions:
        return ProjectionResult(True, depth, radius, representatives=len(reps))
    # prefer an exactly-failing pair of periodic limit words
    pairs = []
    for group in collisions:
        group = sorted(group, key=lambda r: r.center)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i], group[j]))
    pairs.sort(key=lambda p: (p[0].center, p[1].center))
    for a, b in pairs:
        if a.periodic and b.periodic and _periodic_outputs_agree(code, a, b):
            return ProjectionResult(False, depth, radius, witness=(a.center, b.center),
                                    exact=True, representatives=len(reps))
    a, b = pairs[0]
    return ProjectionResult(False, depth, radius, witness=(a.center, b.center),
                            exact=False, representatives=len(reps))


def _periodic_outputs_agree(code, a, b):
    period = math.lcm(a.periodic[0], b.periodic[0])
    for s in range(period):
        out_a = code.rule[tuple(a.periodic[1][(s + o) % a.periodic[0]] for o in code.offsets)]
        out_b = code.rule[tuple(b.periodic[1][(s + o) % b.periodic[0]] for o in code.offsets)]
        if out_a != out_b:
            return False
    return True


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
    from itertools import combinations

    rest = list(range(1, max_span + 1))
    out = []
    for size in range(0, max_span + 1):
        for extra in combinations(rest, size):
            out.append((0,) + extra)
    return out


def _shift_order(radius):
    yield 0
    for t in range(1, radius + 1):
        yield t
        yield -t


def _encode(pattern, digit, nsym):
    v = 0
    for s in pattern:
        v = v * nsym + digit[s]
    return v


def _patterns_read(offsets, reps, depth):
    """Every input pattern the separation verdict can read, whatever the rule:
    each representative's patterns at shifts within the depth, and every
    phase of a periodic limit word."""
    read = set()
    for rep in reps:
        read.update(rep.patterns(offsets, depth))
        if rep.periodic is not None:
            period, pattern = rep.periodic
            for s in range(period):
                read.add(tuple(pattern[(s + o) % period] for o in offsets))
    return read


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


def search_isomorphism_code(target: SequenceOracle, source: SequenceOracle,
                            max_span: int, depth: int, radius: int) -> SearchResult:
    """First (code, shift) realizing target from the shifted source and separating.

    The canonical enumeration is: offset sets within [0, max_span] ordered
    by size then lexicographically; for each, all total rules in canonical
    index order; for each rule, shifts 0, 1, -1, 2, ...  The implementation
    propagates the constraints the realization window forces on the rule:
    a rule realizes at a shift exactly when it extends that shift's forced
    partial rule, and the separation verdict reads only the patterns of the
    orbit-closure representatives.  The extensions of every consistent
    partial are merged in rule-index order; the first that separates, at
    the first shift whose partial it extends, is the canonical enumeration's
    first hit, found at a fraction of the cost.  A found pair is
    re-verified from scratch and reported as a desk-scale certificate,
    never as a proof over all of Z.  A negative radius is an InputError.
    """
    if radius < 0:
        raise InputError(f"search window radius must be non-negative, got {radius}")
    in_alpha = tuple(sorted(set(source.alphabet)))
    out_alpha = tuple(sorted(set(target.alphabet)))
    if len(in_alpha) <= 2 and max_span > 4:
        raise BoundsExceededError("max_span is capped at 4 for binary alphabets")
    if len(in_alpha) ** (max_span + 1) * (2 * radius + 1) > SEARCH_TUPLE_CAP:
        raise BoundsExceededError("search space exceeds the tuple cap")

    want = target.window(-radius, radius)
    digit = {s: i for i, s in enumerate(in_alpha)}
    out_digit = {s: i for i, s in enumerate(out_alpha)}
    nsym = len(in_alpha)
    tried = 0
    # conflicts cluster near the structured center, so scan n center-out
    scan = [0]
    for n in range(1, radius + 1):
        scan.append(n)
        scan.append(-n)
    for offsets in _offset_sets(max_span):
        # one buffer wide enough for every shift of the realization window
        have = source.window(-2 * radius + offsets[0], 2 * radius + offsets[-1])
        rel = [o - offsets[0] for o in offsets]
        # encoded source pattern starting at each buffer position; pattern
        # number i of the canonical pattern list encodes to i
        enc = [_encode(p, digit, nsym) for p in zip(*(have[r:] for r in rel))]
        patterns = list(product(in_alpha, repeat=len(offsets)))
        partials = []       # (shift, forced output digits) in shift order
        for t in _shift_order(radius):
            forced = {}
            ok = True
            off = t + 2 * radius
            for n in scan:
                pat = enc[n + off]
                wanted = out_digit[want[n + radius]]
                seen = forced.get(pat)
                if seen is None:
                    forced[pat] = wanted
                elif seen != wanted:
                    ok = False
                    break
            tried += 1
            if ok:
                partials.append((t, forced))
        if not partials:
            continue
        _check_projection_bounds(depth, radius)
        reps = windowed_orbit_representatives(
            source, depth, radius, ext_lo=offsets[0], ext_hi=offsets[-1])
        read = {_encode(p, digit, nsym) for p in _patterns_read(offsets, reps, depth)}
        distinct = {frozenset(forced.items()): forced for _, forced in partials}
        streams = [_extensions(forced, read, len(patterns), len(out_alpha))
                   for forced in distinct.values()]
        last = None
        for key, digits in heapq.merge(*streams):
            if key == last:
                continue
            last = key
            rule = {p: out_alpha[d] for p, d in zip(patterns, digits)}
            code = BlockCode(offsets, rule, in_alpha, out_alpha)
            proj = _separation(code, reps, depth, radius)
            if not proj.separates:
                continue
            t = next(t for t, forced in partials
                     if all(digits[i] == d for i, d in forced.items()))
            real = verify_realization(code, shifted_oracle(source, t), target, radius)
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


def _nonempty_exact(oracle, buf, off, gs, eps, radius):
    """(nonempty, exact): membership of the tuple-intersection, decided exactly
    when the oracle admits tail analysis or a rotation backend.

    ``buf[n + off]`` is oracle(n) for every n the window scan reads."""
    hit = None
    for h in range(-radius, radius + 1):
        if all(buf[g + h + off] == e for g, e in zip(gs, eps)):
            hit = h
            break
    if hit is not None:
        return True, True
    if isinstance(oracle, RotationOracle) and set(oracle.alphabet) == {0, 1}:
        by_offset = {}
        for g, e in zip(gs, eps):
            if by_offset.setdefault(g, e) != e:
                return False, True  # conflicting constraints at one position
        items = sorted(by_offset.items())
        word = WordPattern(tuple(g for g, _ in items), tuple(e for _, e in items))
        from . import rotation as _rotation
        return _rotation.classify_word(oracle.coding, word).kind != "empty", True
    tails = oracle.tails()
    if tails is not None:
        span = max(abs(g) for g in gs)
        needed = max(abs(tails.right_from), abs(tails.left_upto)) + span + tails.period
        if radius >= needed:
            return False, True  # window covers both transients plus a full period
    return False, False


def intersection_pattern_check(a: SequenceOracle, b: SequenceOracle, shifts, arity: int,
                               radius: int) -> PatternCheckResult:
    """Compare nonemptiness of all shifted intersection patterns of two binary sets.

    For every tuple (g_1..g_k, eps_1..eps_k) over the given shifts, the
    intersection of the translated sets (or complements) must be nonempty
    for A exactly when it is for B.  The first mismatching tuple in
    canonical order is returned.  Verdicts are exact when both sides decide
    emptiness exactly (tail analysis or rotation backend), else windowed.
    Each oracle is read once, over one window; a negative radius is an
    InputError.
    """
    shifts = tuple(sorted(set(int(s) for s in shifts)))
    if set(a.alphabet) - {0, 1} or set(b.alphabet) - {0, 1}:
        raise AlphabetMismatchError("intersection patterns need binary oracles")
    if radius < 0:
        raise InputError(f"pattern window radius must be non-negative, got {radius}")
    total = (len(shifts) * 2) ** arity
    if total > SEARCH_TUPLE_CAP:
        raise BoundsExceededError(f"{total} tuples exceed the cap {SEARCH_TUPLE_CAP}")
    lo = -radius + min(shifts, default=0)
    hi = radius + max(shifts, default=0)
    buf_a, buf_b = a.window(lo, hi), b.window(lo, hi)
    all_exact = True
    for gs in product(shifts, repeat=arity):
        for eps in product((0, 1), repeat=arity):
            na, ea = _nonempty_exact(a, buf_a, -lo, gs, eps, radius)
            nb, eb = _nonempty_exact(b, buf_b, -lo, gs, eps, radius)
            all_exact = all_exact and ea and eb
            if na != nb:
                witness = {"shifts": list(gs), "values": list(eps),
                           "nonempty_a": na, "nonempty_b": nb}
                return PatternCheckResult(False, arity, shifts, radius,
                                          exact=ea and eb, witness=witness)
    return PatternCheckResult(True, arity, shifts, radius, exact=all_exact)


# ---------------------------------------------------------------------------
# Finite-group code extraction (CHL at finite scale)
# ---------------------------------------------------------------------------

@dataclass
class GroupCode:
    """A local rule over group-element offsets recovered from an equivariant map."""

    offsets: tuple            # group element indices
    rule: dict                # observed patterns -> symbol

    def apply(self, group, config):
        return tuple(self.rule[tuple(config[group.mul(g, h)] for g in self.offsets)]
                     for h in group.elements())


def code_from_equivariant_map(group, source_system, target_system, mapping) -> GroupCode:
    """Extract the local rule behind a point bijection of right orbit systems.

    Offsets are all group elements; the rule reads off each source point's
    full pattern and outputs the mapped point's identity coordinate.  The
    sliding form is verified exhaustively over all points and translates.
    """
    offsets = tuple(group.elements())
    rule = {}
    for i, x in enumerate(source_system.points):
        pattern = tuple(x[g] for g in offsets)
        rule[pattern] = target_system.points[mapping[i]][group.identity]
    extracted = GroupCode(offsets, rule)
    for i, x in enumerate(source_system.points):
        image = extracted.apply(group, x)
        if image != target_system.points[mapping[i]]:
            raise VerificationFailedError("extracted local rule does not reproduce the map")
    return extracted
