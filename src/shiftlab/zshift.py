"""Total symbol-valued sequences on Z and their windowed analysis.

Oracles are immutable and evaluate deterministically at every integer:
periodic words, sets built from arithmetic progressions / half-lines /
finite corrections, rotation-coded sequences, images under block codes,
and finite patches over an inner oracle.  A window's native form is a
digit string: character i is chr(k) for the symbol number k of the
oracle's deduplicated alphabet at lo + i.  Each oracle has one evaluator,
which fills the whole digit string with C-level str, bytes and int
operations: a periodic word is tiled, a set assigns one byte-array slice
per generator (an intersection is first folded into one progression by
the Chinese remainder theorem), a code image computes every pattern code
at once in byte lanes of one int (SIMD within a register) and maps codes
to output digits by one translate, and a patch remaps its inner digits by
one translate.  A code image or a patch reads its inner oracle once.
``window`` decodes the digit string into a list of symbols, for every
oracle alike, and no verdict reads it.  On top of evaluation this module
extracts windowed languages, finds word occurrences, measures gap
statistics, and produces uniform-recurrence certificates; a windowed
refutation is only a candidate unless the rotation backend can settle the
word exactly.  Every word scan, the recurrence module's return checks
among them, goes through one bit-parallel matcher: the window keeps one
int mask per alphabet symbol, a word's starts are the AND of its symbols'
masks shifted by their offsets (shift-and, Baeza-Yates & Gonnet 1992), and
positions and gap statistics are read off the result in C rather than
position by position in Python.

Oracles other than rotation codings are eventually periodic in both
directions; ``tails()`` exposes that structure (period and thresholds) and
is what makes limit-point analysis in the code module exact.  What a miss
in a window proves about Z is decided here alone, by the window's
``absent``: a word occurs nowhere when its symbols conflict or leave the
alphabet, when a rotation coding's locus for it is empty, or when the
tails cover the scan.  The pattern check and both return checks ask it,
and a verified certificate is exact only when its window holds every gap
on Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product

from . import rotation as _rotation
from .rotation import WordPattern
from .algebra import symbol_key
from .errors import AlphabetMismatchError, BoundsExceededError, InputError, WindowTooLargeError

WINDOW_CAP = 10**7
MAX_WORD_LENGTH = 64
MAX_WINDOW_RADIUS = 10**6


@dataclass(frozen=True)
class EventualTails:
    """value(n + period) == value(n) for n >= right_from, and
    value(n - period) == value(n) for n <= left_upto."""

    period: int
    left_upto: int
    right_from: int

    def covers(self, span: int, radius: int) -> bool:
        """Whether a scan of [-radius, radius] reading up to ``span`` away sees
        both transients and a full period, so that a miss in it is a miss on Z."""
        return radius >= max(abs(self.right_from), abs(self.left_upto)) + span + self.period


def centered(radius: int):
    """0, 1, -1, 2, -2, ..., radius, -radius: the scan order that meets the
    structure near 0 first."""
    yield 0
    for t in range(1, radius + 1):
        yield t
        yield -t


class _Digits:
    """The digit code of one alphabet: symbol number k of the deduplicated
    alphabet is the character chr(k).

    One instance serves every oracle and window over an equal alphabet
    (``_digits_of``), so no oracle keeps a table of its own.
    """

    __slots__ = ("symbols", "chars", "plain")

    def __init__(self, alphabet):
        self.symbols = tuple(dict.fromkeys(alphabet))  # a symbol listed twice gets one digit
        self.chars = {s: chr(k) for k, s in enumerate(self.symbols)}
        # the ints 0..n-1 themselves, n <= 256: a digit string's Latin-1 bytes are its symbols
        self.plain = len(self.symbols) <= 256 and all(
            type(s) is int and s == k for k, s in enumerate(self.symbols))

    def encode(self, symbols) -> str:
        if self.plain:
            return bytes(symbols).decode("latin-1")
        return "".join(map(self.chars.__getitem__, symbols))

    def decode(self, text: str) -> list:
        if self.plain:
            return list(text.encode("latin-1"))
        return list(map(self.symbols.__getitem__, map(ord, text)))


_DIGITS = {}


def _digits_of(alphabet: tuple) -> _Digits:
    """The shared digit code of an alphabet, built on first use."""
    # the key carries the symbol types: (0, 1) == (False, True) as tuples
    key = (alphabet, tuple(map(type, alphabet)))
    digits = _DIGITS.get(key)
    if digits is None:
        if len(_DIGITS) >= 4096:
            _DIGITS.clear()
        digits = _DIGITS[key] = _Digits(alphabet)
    return digits


def _recode(text: str, source: tuple, target: tuple) -> str:
    """A digit string over alphabet ``source`` as one over ``target``, by one
    translate; a symbol that target lacks becomes chr(len(target)), which is
    no digit of target."""
    src, dst = _digits_of(source), _digits_of(target)
    if src.symbols == dst.symbols[:len(src.symbols)]:
        return text
    missing = chr(len(dst.symbols))
    return text.translate("".join([dst.chars.get(s, missing) for s in src.symbols]))


def _pattern_codes(text: str, base: int, offsets):
    """The code sum_j ord(text[i + offsets[j] - offsets[0]]) * base**(k-1-j) of
    the pattern read at every i where the last offset still falls in text,
    for digits below base.

    The digits are packed into one int, one lane each, and every lane holds
    its code after one shift and one multiply-add per offset: no code
    reaches base**k, so no lane carries into the next (SIMD within a
    register).  Lanes are one byte, giving bytes, when base**k <= 256, and
    four (UTF-32) otherwise, giving a list of ints.
    """
    width = 1 if base ** len(offsets) <= 256 else 4
    raw = text.encode("latin-1" if width == 1 else "utf-32-le")
    whole = int.from_bytes(raw, "little")
    acc = 0
    for o in offsets:
        acc = acc * base + (whole >> (8 * width * (o - offsets[0])))
    lanes = acc.to_bytes(len(raw), "little")[:(len(text) - offsets[-1] + offsets[0]) * width]
    if width == 1:
        return lanes
    return list(map(ord, lanes.decode("utf-32-le", "surrogatepass")))


def _checked(lo: int, hi: int):
    if lo > hi:
        raise InputError(f"window [{lo}, {hi}] is empty")
    if hi - lo + 1 > WINDOW_CAP:
        raise WindowTooLargeError(hi - lo + 1, WINDOW_CAP)


class SequenceOracle:
    """Base class: a total deterministic map Z -> alphabet, read by ``window``
    as symbols or by ``digits`` as a digit string."""

    alphabet: tuple

    def window(self, lo: int, hi: int):
        """The symbols at lo..hi, as a fresh list: ``digits`` decoded."""
        return _digits_of(self.alphabet).decode(self.digits(lo, hi))

    def digits(self, lo: int, hi: int) -> str:
        """The window lo..hi as a digit string: character i is chr(k) for the
        symbol number k of the deduplicated alphabet at lo + i."""
        _checked(lo, hi)
        return self._digits(lo, hi)

    def value(self, n: int):
        return self.window(n, n)[0]

    def _digits(self, lo: int, hi: int) -> str:
        """The subclass's one evaluator: the digit string of lo..hi, lo <= hi."""
        raise NotImplementedError

    def tails(self) -> EventualTails | None:
        return None


class PeriodicOracle(SequenceOracle):
    def __init__(self, word):
        word = tuple(word)
        if not word:
            raise InputError("periodic word must be nonempty")
        self.word = word
        self.alphabet = tuple(sorted(set(word), key=symbol_key))

    def _digits(self, lo, hi):
        p = len(self.word)
        word = _digits_of(self.alphabet).encode(self.word)
        return (word[lo % p:] + word * ((hi - lo) // p + 1))[:hi - lo + 1]

    def tails(self):
        # the least period: the least rotation of the word onto itself
        word = _digits_of(self.alphabet).encode(self.word)
        return EventualTails(period=(word + word).find(word, 1), left_upto=0, right_from=0)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _meet(aps):
    """The intersection of the progressions {a + k d : k in Z} as one
    progression (a, d), 0 <= a < d, or None when it is empty: the Chinese
    remainder theorem, one progression at a time."""
    a, d = 0, 1
    for b, e in aps:
        g = math.gcd(d, e)
        if (b - a) % g:
            return None
        # a + d k = b (mod e): (d / g) k = (b - a) / g (mod e / g)
        k = (b - a) // g * pow(d // g, -1, e // g) % (e // g)
        a, d = (a + d * k) % (d // g * e), d // g * e
    return a, d


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

    def _digits(self, lo, hi):
        n = hi - lo + 1
        ones = b"\1" * n
        # the positions each generator (an AP or the half-line) holds, as a slice
        if self.op == "inter" and (self.aps or self.halfline is not None):
            # the progressions meet in one progression (CRT), clipped to the half-line
            meet = _meet(self.aps)
            start = 0 if self.halfline is None else max(self.halfline - lo, 0)
            generators = [] if meet is None else [
                slice(start + (meet[0] - lo - start) % meet[1], None, meet[1])]
        else:
            generators = [slice((a - lo) % d, None, d) for a, d in self.aps]
            if self.halfline is not None:
                generators.append(slice(max(self.halfline - lo, 0), None))
        # a union is the generators' slices assigned into one byte array
        out = bytearray(n)
        for part in generators:
            out[part] = ones[part]
        if self.op == "complement":
            out = out.translate(_FLIP)
        for fix, digit in ((self.exclude, 0), (self.include, 1)):
            for m in fix:
                if lo <= m <= hi:
                    out[m - lo] = digit
        return out.decode("latin-1")

    def tails(self):
        period = math.lcm(*(d for _, d in self.aps)) if self.aps else 1
        bounds = [0]
        bounds += [abs(a) for a, _ in self.aps]
        if self.halfline is not None:
            bounds.append(abs(self.halfline))
        bounds += [abs(n) for n in self.include | self.exclude]
        t = max(bounds) + period + 1
        return EventualTails(period=period, left_upto=-t, right_from=t)


class RotationOracle(SequenceOracle):
    """A rotation coding read by its orbit walk: a digit string is the walk's
    label list encoded once."""

    def __init__(self, coding: "_rotation.RotationCoding"):
        self.coding = coding
        self.alphabet = tuple(coding.labels())

    def _digits(self, lo, hi):
        return _digits_of(self.alphabet).encode(self.coding.orbit_symbols(lo, hi))

    # Same result as the inherited value.  It stays defined on the class
    # because bench/layers.py traces RotationOracle.value by name, and
    # bench/selftest.py fails when a traced name is absent.
    def value(self, n):
        return self.coding.orbit_symbols(n, n)[0]


class CodeImageOracle(SequenceOracle):
    """Pointwise image of an inner oracle under a block code.

    A window reads the inner oracle's digits once, widened by the code's
    offsets, computes every pattern code at once (``_pattern_codes``) and
    maps the codes to output digits by one translate.
    """

    def __init__(self, code, inner: SequenceOracle):
        missing = [s for s in inner.alphabet if s not in code.input_alphabet]
        if missing:
            raise AlphabetMismatchError(
                f"inner oracle symbols {missing} are outside the code input alphabet")
        self.code = code
        self.inner = inner
        self.alphabet = tuple(code.output_alphabet)

    def _digits(self, lo, hi):
        offsets = self.code.offsets
        inner = self.inner.digits(lo + offsets[0], hi + offsets[-1])
        symbols = _digits_of(self.inner.alphabet).symbols
        out = _digits_of(self.alphabet).chars
        # the output digit of pattern code c is table[c]: patterns in product order
        table = "".join(map(out.__getitem__, map(self.code.rule.__getitem__,
                                                 product(symbols, repeat=len(offsets)))))
        codes = _pattern_codes(inner, len(symbols), offsets)
        if len(table) <= 256 and len(out) <= 256:  # one-byte lanes, in and out
            return codes.translate(table.encode("latin-1").ljust(256, b"\0")).decode("latin-1")
        return "".join(map(table.__getitem__, codes))

    def tails(self):
        t = self.inner.tails()
        if t is None:
            return None
        lo, hi = self.code.offsets[0], self.code.offsets[-1]
        return EventualTails(period=t.period,
                             left_upto=t.left_upto - max(hi, 0),
                             right_from=t.right_from - min(lo, 0))


class OverrideOracle(SequenceOracle):
    def __init__(self, inner: SequenceOracle, patch: dict):
        self.inner = inner
        self.patch = {int(k): v for k, v in patch.items()}
        self.alphabet = tuple(sorted({*inner.alphabet, *self.patch.values()}, key=symbol_key))

    def _digits(self, lo, hi):
        out = _recode(self.inner.digits(lo, hi), self.inner.alphabet, self.alphabet)
        chars = _digits_of(self.alphabet).chars
        for n, symbol in self.patch.items():
            if lo <= n <= hi:
                out = out[:n - lo] + chars[symbol] + out[n - lo + 1:]
        return out

    def tails(self):
        t = self.inner.tails()
        if t is None or not self.patch:
            return t
        lo, hi = min(self.patch), max(self.patch)
        return EventualTails(period=t.period,
                             left_upto=min(t.left_upto, lo - 1),
                             right_from=max(t.right_from, hi + 1))


# ---------------------------------------------------------------------------
# Windowed analysis
# ---------------------------------------------------------------------------

class _EncodedWindow:
    """An oracle's window lo..hi as its digit string, and lazily one int mask
    per digit: bit i is set when the window holds that digit at ``lo + i``.

    A word's starts are one AND per constrained offset of a shifted mask,
    so a scan costs a few big-int operations in C, whatever the number of
    hits or the distance between offsets.  ``occurrences``, the recurrence
    certificate, the intersection-pattern check and the return checks share
    it, and ``absent`` is the one place that decides what a miss in the
    window proves about Z.
    """

    __slots__ = ("oracle", "lo", "text", "_chars", "_masks")

    def __init__(self, oracle: SequenceOracle, lo: int, hi: int):
        self.oracle = oracle
        self._chars = _digits_of(oracle.alphabet).chars
        self.text = oracle.digits(lo, hi)  # a digit string over the oracle's alphabet
        self.lo = lo  # the position of text[0]
        self._masks = {}

    def mask(self, char: str) -> int:
        """Bit i set iff text[i] == char, built in C: the text translated to
        '0'/'1', reversed so that text[0] is the lowest bit, read in base 2."""
        m = self._masks.get(char)
        if m is None:
            i = ord(char)
            table = "0" * i + "1" + "0" * (len(self._chars) - 1 - i)
            m = self._masks[char] = int(self.text.translate(table)[::-1], 2)
        return m

    def starts(self, offsets, symbols, lo: int, hi: int) -> int:
        """The h in [lo, hi] with symbols[k] at h + offsets[k] for all k, as a
        mask: bit h - lo.

        The window must cover [lo + min(offsets), hi + max(offsets)].  Offsets
        may repeat and come in any order; two symbols at one offset match
        nowhere, and neither does a symbol the window never holds.
        """
        hits = (1 << (hi - lo + 1)) - 1  # every h in [lo, hi]: no match from past hi
        for o, s in zip(offsets, symbols):
            c = self._chars.get(s)
            if c is None:
                return 0
            hits &= self.mask(c) >> (lo + o - self.lo)
        return hits

    def absent(self, offsets, symbols, radius: int) -> bool | None:
        """Whether the word with symbols[k] at h + offsets[k] occurs at no h in
        Z: False when it occurs (at a start in [-radius, radius], which the
        window covers as for ``starts``, or where a rotation locus is met);
        True when two symbols share an offset, a symbol is outside the
        alphabet, a rotation locus is empty or the tails cover the scan; and
        None when neither the window nor the oracle can tell."""
        if self.starts(offsets, symbols, -radius, radius):
            return False
        by_offset = {}
        for o, s in zip(offsets, symbols):
            if s not in self._chars or by_offset.setdefault(o, s) != s:
                return True
        if isinstance(self.oracle, RotationOracle):
            word = WordPattern(*zip(*sorted(by_offset.items())))
            return _rotation.classify_word(self.oracle.coding, word).kind == "empty"
        tails = self.oracle.tails()
        if tails is not None and tails.covers(max(map(abs, offsets)), radius):
            return True
        return None


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _positions(mask: int, lo: int) -> list:
    """lo + i for every set bit i of mask, increasing, extracted in C."""
    return list(compress(range(lo, lo + mask.bit_length()),
                         bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def occurrences(oracle: SequenceOracle, word: WordPattern, lo: int, hi: int):
    """All h in [lo, hi] such that oracle(offset + h) matches the word.

    The oracle is read once, over the window the word can reach, and
    scanned by one bit-parallel match; lo > hi is an InputError.
    """
    bad = [s for s in word.symbols if s not in oracle.alphabet]
    if bad:
        raise AlphabetMismatchError(f"word symbols {bad} are outside the oracle alphabet")
    if lo > hi:
        raise InputError(f"window [{lo}, {hi}] is empty")
    buf_lo = lo + word.offsets[0]
    window = _EncodedWindow(oracle, buf_lo, hi + word.offsets[-1])
    return _positions(window.starts(word.offsets, word.symbols, lo, hi), lo)


@dataclass(frozen=True)
class GapStats:
    """Gap statistics of positions in a window; None is unbounded: the gap
    with fewer than two positions, each slack with none."""

    max_gap: int | None
    left_slack: int | None
    right_slack: int | None

    @property
    def worst(self) -> int | None:
        """The largest statistic, or None when one is unbounded."""
        stats = (self.max_gap, self.left_slack, self.right_slack)
        return None if None in stats else max(stats)

    def describe(self) -> dict:
        """The statistics by name, an unbounded one as the string "inf"."""
        return {k: "inf" if v is None else v for k, v in vars(self).items()}


def gap_stats(mask: int, lo: int, hi: int) -> GapStats:
    """The largest gap between consecutive positions lo + i, i a set bit of
    mask, plus the window end slacks of [lo, hi].

    The slacks come from the lowest and highest set bits.  The largest gap
    is 1 + the longest run of zeros between them, found by substring tests
    on the binary digits: the run length doubles until a test fails, then
    bisects.
    """
    if not mask:
        return GapStats(None, None, None)
    first, last = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
    if first == last:
        return GapStats(None, first, hi - lo - last)
    bits = bin(mask >> first)[2:]  # from the last set bit down to the first
    have, lack = 0, 1  # a run of `have` zeros occurs in bits, one of `lack` does not
    while "0" * lack in bits:
        have, lack = lack, 2 * lack
    while lack - have > 1:
        mid = (have + lack) // 2
        if "0" * mid in bits:
            have = mid
        else:
            lack = mid
    return GapStats(have + 1, first, hi - lo - last)


@dataclass
class RecurrenceCertificate:
    verdict: str                    # "verified" | "candidate_refutation" | "inconclusive"
    max_len: int
    radius: int
    gap_bound: int
    g_star: int | None = None
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
    A verified certificate is exact for a rotation coding, and for an
    oracle with tails when ``tails.covers(max_len + period, radius)`` and
    the longest initial word, and so each shorter one, starts in one period
    of both periodic tails: then every gap on Z is a gap in the window.
    Otherwise it is windowed.
    A violating word yields a candidate refutation: heuristic in general
    (a window cannot prove non-recurrence), upgraded to exact when the
    oracle is rotation-coded and the word's locus classifies as finite or
    empty.  If the exact backend instead proves the violating word
    syndetic, the certificate is inconclusive at these parameters.  A
    negative radius, or a max_len or gap_bound below 1, is an InputError.

    The prefix occurrences are one running mask over [-radius, radius]: each
    longer prefix ANDs in the mask of its last symbol, shifted by its offset.
    """
    if radius < 0:
        raise InputError(f"recurrence window radius must be non-negative, got {radius}")
    if max_len < 1:
        raise InputError(f"max_len must be at least 1, got {max_len}")
    if gap_bound is not None and gap_bound < 1:
        raise InputError(f"gap bound must be at least 1, got {gap_bound}")
    if max_len > MAX_WORD_LENGTH or radius > MAX_WINDOW_RADIUS:
        raise BoundsExceededError(
            f"max_len <= {MAX_WORD_LENGTH} and radius <= {MAX_WINDOW_RADIUS} required")
    if gap_bound is None:
        gap_bound = max(1, radius // 2)
    window = _EncodedWindow(oracle, -radius, radius + max_len - 1)
    prefix = _digits_of(oracle.alphabet).decode(window.text[radius:radius + max_len])
    tails = oracle.tails()  # None for a rotation coding
    exact = isinstance(oracle, RotationOracle) or (
        tails is not None and tails.covers(max_len + tails.period, radius))
    worst = 0
    violations = []
    occ = (1 << (2 * radius + 1)) - 1  # bit h + radius: h starts the prefix
    for length in range(1, max_len + 1):
        # the prefix occurs at h iff the shorter one does and one more symbol agrees
        occ &= window.mask(window.text[radius + length - 1]) >> (length - 1)
        stats = gap_stats(occ, -radius, radius)
        if stats.worst is not None and stats.worst <= gap_bound:
            worst = max(worst, stats.worst)
        else:
            violations.append((WordPattern.contiguous(prefix[:length]), occ, stats))
    if not violations:
        if exact and tails is not None:
            # a start of the longest initial word in one period of each tail:
            # from right_from on, and among the last P whose word ends by
            # left_upto; it starts every shorter one, and a start in a tail
            # moves by P within it
            one_period = (1 << tails.period) - 1
            exact = bool(occ >> (tails.right_from + radius) & one_period and occ >> (
                tails.left_upto - max_len + 2 - tails.period + radius) & one_period)
        return RecurrenceCertificate("verified", max_len, radius, gap_bound,
                                     g_star=worst, exact=exact)
    # report the most damning violator: an unbounded or the worst statistic
    # first, then the shortest word
    word, occ, stats = max(violations, key=lambda v: (
        v[2].worst is None, v[2].worst or 0, -len(v[0].symbols)))
    positions = _positions(occ, -radius)
    evidence = {
        "occurrences": positions[:50] + (["..."] if len(positions) > 50 else []),
        "count": occ.bit_count(), **stats.describe(), "window": [-radius, radius],
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
