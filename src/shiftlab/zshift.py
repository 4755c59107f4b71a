"""Total symbol-valued sequences on Z and their windowed analysis.

Oracles are immutable and evaluate deterministically at every integer:
periodic words, sets built from arithmetic progressions / half-lines /
finite corrections, rotation-coded sequences, images under block codes,
and finite patches over an inner oracle.  Each has one evaluator, which
fills a whole window; a code image or a patch reads its inner oracle once.
On top of evaluation this module
extracts windowed languages, finds word occurrences, measures gap
statistics, and produces uniform-recurrence certificates; a windowed
refutation is only a candidate unless the rotation backend can settle the
word exactly.

Oracles other than rotation codings are eventually periodic in both
directions; ``tails()`` exposes that structure (period and thresholds) and
is what makes limit-point analysis in the code module exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rotation as _rotation
from .errors import AlphabetMismatchError, BoundsExceededError, InputError, WindowTooLargeError

WINDOW_CAP = 10**7
MAX_WORD_LENGTH = 64
MAX_WINDOW_RADIUS = 10**6


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


@dataclass(frozen=True)
class EventualTails:
    """value(n + period) == value(n) for n >= right_from, and
    value(n - period) == value(n) for n <= left_upto."""

    period: int
    left_upto: int
    right_from: int


class SequenceOracle:
    """Base class: a total deterministic map Z -> alphabet, read by ``window``."""

    alphabet: tuple

    def window(self, lo: int, hi: int):
        if lo > hi:
            raise InputError(f"window [{lo}, {hi}] is empty")
        if hi - lo + 1 > WINDOW_CAP:
            raise WindowTooLargeError(hi - lo + 1, WINDOW_CAP)
        return self._symbols(lo, hi)

    def value(self, n: int):
        return self.window(n, n)[0]

    def _symbols(self, lo: int, hi: int):
        """The subclass's one evaluator: symbols lo..hi, lo <= hi, as a fresh list."""
        raise NotImplementedError

    def tails(self) -> EventualTails | None:
        return None

    def describe(self) -> dict:
        raise NotImplementedError


class PeriodicOracle(SequenceOracle):
    def __init__(self, word):
        word = tuple(word)
        if not word:
            raise InputError("periodic word must be nonempty")
        self.word = word
        self.alphabet = tuple(sorted(set(word)))

    def _symbols(self, lo, hi):
        p = len(self.word)
        tiled = self.word[lo % p:] + self.word * ((hi - lo) // p + 1)
        return list(tiled[:hi - lo + 1])

    def tails(self):
        return EventualTails(period=len(self.word), left_upto=0, right_from=0)

    def describe(self):
        return {"periodic": "".join(map(str, self.word))}


class SetOracle(SequenceOracle):
    """Binary indicator of a set built from APs, a half-line and finite fixes.

    The base set is the union (or intersection) of the two-sided arithmetic
    progressions {a + k d : k in Z} and the half-line {n >= from}; with
    op="complement" the complement of the union is taken.  ``include`` and
    ``exclude`` are finite postfix corrections; a point in both is included.
    """

    def __init__(self, aps=(), halfline=None, include=(), exclude=(), op="union"):
        if op not in ("union", "inter", "complement"):
            raise InputError(f"unknown set op {op!r}")
        self.aps = tuple((int(a), int(d)) for a, d in aps)
        if any(d <= 0 for _, d in self.aps):
            raise InputError("arithmetic progression step must be positive")
        self.halfline = None if halfline is None else int(halfline)
        self.include = frozenset(int(n) for n in include)
        self.exclude = frozenset(int(n) for n in exclude)
        self.op = op
        self.alphabet = (0, 1)

    def _symbols(self, lo, hi):
        # votes[i] counts the generators (APs and the half-line) holding lo + i
        votes = [0] * (hi - lo + 1)
        generators = [slice((a - lo) % d, None, d) for a, d in self.aps]
        if self.halfline is not None:
            generators.append(slice(max(self.halfline - lo, 0), None))
        for part in generators:
            votes[part] = [v + 1 for v in votes[part]]
        # a point is in the base set when at least `need` generators hold it
        need = max(len(generators), 1) if self.op == "inter" else 1
        inside, outside = (0, 1) if self.op == "complement" else (1, 0)
        out = [inside if v >= need else outside for v in votes]
        for fix, symbol in ((self.exclude, 0), (self.include, 1)):
            for n in fix:
                if lo <= n <= hi:
                    out[n - lo] = symbol
        return out

    def tails(self):
        period = math.lcm(*(d for _, d in self.aps)) if self.aps else 1
        bounds = [0]
        bounds += [abs(a) for a, _ in self.aps]
        if self.halfline is not None:
            bounds.append(abs(self.halfline))
        bounds += [abs(n) for n in self.include | self.exclude]
        t = max(bounds) + period + 1
        return EventualTails(period=period, left_upto=-t, right_from=t)

    def describe(self):
        spec = {"op": self.op}
        if self.aps:
            spec["aps"] = [list(p) for p in self.aps]
        if self.halfline is not None:
            spec["halfline"] = {"from": self.halfline}
        if self.include:
            spec["include"] = sorted(self.include)
        if self.exclude:
            spec["exclude"] = sorted(self.exclude)
        return {"set": spec}


class RotationOracle(SequenceOracle):
    def __init__(self, coding: "_rotation.RotationCoding"):
        self.coding = coding
        self.alphabet = tuple(coding.labels())

    def _symbols(self, lo, hi):
        return self.coding.orbit_symbols(lo, hi)

    # Same result as the inherited value.  It stays defined on the class
    # because bench/layers.py traces RotationOracle.value by name, and
    # bench/selftest.py fails when a traced name is absent.
    def value(self, n):
        return self.coding.orbit_symbols(n, n)[0]

    def describe(self):
        return {"rotation": {
            "alpha": str(self.coding.alpha),
            "base": str(self.coding.base),
            "cells": {str(l): self.coding.cells[l].describe() for l in self.coding.labels()},
        }}


class CodeImageOracle(SequenceOracle):
    """Pointwise image of an inner oracle under a block code.

    A window reads the inner oracle once, widened by the code's offsets.
    """

    def __init__(self, code, inner: SequenceOracle):
        missing = [s for s in inner.alphabet if s not in code.input_alphabet]
        if missing:
            raise AlphabetMismatchError(
                f"inner oracle symbols {missing} are outside the code input alphabet")
        self.code = code
        self.inner = inner
        self.alphabet = tuple(code.output_alphabet)

    def _symbols(self, lo, hi):
        first, last = self.code.offsets[0], self.code.offsets[-1]
        buf = self.inner.window(lo + first, hi + last)
        # column k has inner(n + offsets[k]) at n - lo; zip stops at the last
        columns = [buf[o - first:] for o in self.code.offsets]
        return [self.code.rule[pattern] for pattern in zip(*columns)]

    def tails(self):
        t = self.inner.tails()
        if t is None:
            return None
        lo, hi = self.code.offsets[0], self.code.offsets[-1]
        return EventualTails(period=t.period,
                             left_upto=t.left_upto - max(hi, 0),
                             right_from=t.right_from - min(lo, 0))

    def describe(self):
        return {"code_image": {"code": self.code.describe(), "inner": self.inner.describe()}}


class OverrideOracle(SequenceOracle):
    def __init__(self, inner: SequenceOracle, patch: dict):
        self.inner = inner
        self.patch = {int(k): v for k, v in patch.items()}
        self.alphabet = tuple(sorted(set(inner.alphabet) | set(self.patch.values())))

    def _symbols(self, lo, hi):
        out = self.inner.window(lo, hi)
        for n, symbol in self.patch.items():
            if lo <= n <= hi:
                out[n - lo] = symbol
        return out

    def tails(self):
        t = self.inner.tails()
        if t is None or not self.patch:
            return t
        lo, hi = min(self.patch), max(self.patch)
        return EventualTails(period=t.period,
                             left_upto=min(t.left_upto, lo - 1),
                             right_from=max(t.right_from, hi + 1))

    def describe(self):
        return {"override": {"inner": self.inner.describe(),
                             "patch": {str(k): v for k, v in sorted(self.patch.items())}}}


# ---------------------------------------------------------------------------
# Windowed analysis
# ---------------------------------------------------------------------------

def occurrences(oracle: SequenceOracle, word: WordPattern, lo: int, hi: int):
    """All h in [lo, hi] such that oracle(offset + h) matches the word."""
    bad = [s for s in word.symbols if s not in oracle.alphabet]
    if bad:
        raise AlphabetMismatchError(f"word symbols {bad} are outside the oracle alphabet")
    if lo > hi:
        return []
    buf_lo = lo + word.offsets[0]
    buf = oracle.window(buf_lo, hi + word.offsets[-1])
    out = []
    for h in range(lo, hi + 1):
        if all(buf[h + o - buf_lo] == s for o, s in zip(word.offsets, word.symbols)):
            out.append(h)
    return out


def initial_words(oracle: SequenceOracle, max_len: int):
    """The contiguous prefixes (oracle(0..l-1); offsets 0..l-1) for l = 1..max_len."""
    if max_len < 1:
        raise InputError("max_len must be at least 1")
    buf = oracle.window(0, max_len - 1)
    return [WordPattern.contiguous(buf[:l]) for l in range(1, max_len + 1)]


@dataclass(frozen=True)
class GapStats:
    max_gap: float
    left_slack: float
    right_slack: float

    @property
    def worst(self):
        return max(self.max_gap, self.left_slack, self.right_slack)


def max_gap(positions, lo: int, hi: int) -> GapStats:
    """Largest gap between consecutive positions plus the window end slacks."""
    positions = list(positions)
    if not positions:
        return GapStats(math.inf, math.inf, math.inf)
    gap = math.inf if len(positions) < 2 else max(
        b - a for a, b in zip(positions, positions[1:]))
    return GapStats(gap, positions[0] - lo, hi - positions[-1])


@dataclass
class RecurrenceCertificate:
    verdict: str                    # "verified" | "candidate_refutation" | "inconclusive"
    max_len: int
    radius: int
    gap_bound: int
    g_star: float | None = None
    word: WordPattern | None = None
    evidence: dict | None = None
    exact: bool = False
    word_class: object = None       # rotation WordClass when the exact backend applied

    def describe(self):
        d = {"verdict": self.verdict, "max_len": self.max_len, "radius": self.radius,
             "gap_bound": self.gap_bound, "exact": self.exact}
        if self.g_star is not None:
            d["g_star"] = self.g_star
        if self.word is not None:
            d["word"] = self.word.describe()
        if self.evidence is not None:
            d["evidence"] = self.evidence
        if self.word_class is not None:
            d["word_class"] = {
                "kind": self.word_class.kind,
                "occurrences": self.word_class.occurrences,
            }
        return d


def uniform_recurrence_certificate(oracle: SequenceOracle, max_len: int, radius: int,
                                   gap_bound: int | None = None) -> RecurrenceCertificate:
    """Check that every initial word recurs with bounded gaps in [-radius, radius].

    Verified when each initial word of length <= max_len occurs with all
    gaps and both end slacks at most gap_bound (default radius // 2); the
    echoed g* is the worst gap seen, so the certificate can be re-checked.
    A violating word yields a candidate refutation: heuristic in general
    (a window cannot prove non-recurrence), upgraded to exact when the
    oracle is rotation-coded and the word's locus classifies as finite or
    empty.  If the exact backend instead proves the violating word
    syndetic, the certificate is inconclusive at these parameters.  A
    negative radius is an InputError.
    """
    if radius < 0:
        raise InputError(f"recurrence window radius must be non-negative, got {radius}")
    if max_len > MAX_WORD_LENGTH or radius > MAX_WINDOW_RADIUS:
        raise BoundsExceededError(
            f"max_len <= {MAX_WORD_LENGTH} and radius <= {MAX_WINDOW_RADIUS} required")
    if gap_bound is None:
        gap_bound = max(1, radius // 2)
    buf = oracle.window(-radius, radius + max_len - 1)
    prefix = tuple(buf[radius:radius + max_len])
    worst = 0.0
    violations = []
    for length in range(1, max_len + 1):
        target = prefix[:length]
        occ = [h for h in range(-radius, radius + 1)
               if tuple(buf[h + radius:h + radius + length]) == target]
        stats = max_gap(occ, -radius, radius)
        if stats.worst <= gap_bound:
            worst = max(worst, stats.worst)
        else:
            violations.append((WordPattern.contiguous(target), occ, stats))
    if not violations:
        return RecurrenceCertificate("verified", max_len, radius, gap_bound,
                                     g_star=worst, exact=True)
    # report the most damning violator: worst statistic first, then shortest word
    word, occ, stats = max(violations, key=lambda v: (v[2].worst, -len(v[0].symbols)))
    evidence = {
        "occurrences": occ[:50] + (["..."] if len(occ) > 50 else []),
        "count": len(occ),
        "max_gap": stats.max_gap, "left_slack": stats.left_slack,
        "right_slack": stats.right_slack, "window": [-radius, radius],
    }
    if isinstance(oracle, RotationOracle):
        wc = _rotation.classify_word(oracle.coding, word)
        if wc.kind in ("finite", "empty"):
            return RecurrenceCertificate(
                "candidate_refutation", max_len, radius, gap_bound,
                word=word, evidence=evidence, exact=True, word_class=wc)
        return RecurrenceCertificate("inconclusive", max_len, radius, gap_bound,
                                     word=word, evidence=evidence)
    return RecurrenceCertificate("candidate_refutation", max_len, radius, gap_bound,
                                 word=word, evidence=evidence, exact=False)
