import ast
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import shiftlab
from shiftlab.algebra import QuadraticNumber, frac_part, symbol_key
from shiftlab.codes import BlockCode
from shiftlab.recurrence import CandidateSet, chromatic_recurrence_check, syndetic_return_check
from shiftlab.errors import (
    AlphabetMismatchError,
    BoundsExceededError,
    InputError,
    WindowTooLargeError,
)
from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding, classify_word
from shiftlab.zshift import (
    CodeImageOracle,
    EventualTails,
    GapStats,
    OverrideOracle,
    PeriodicOracle,
    RecurrenceCertificate,
    RotationOracle,
    SetOracle,
    WordPattern,
    _EncodedWindow,
    centered,
    gap_stats,
    occurrences,
    uniform_recurrence_certificate,
)

from circle_reference import contains

# pinned sets: a = 1 on {0,1,3,5,...} and b = 1 on {2,4,6,...}
PINNED_A = SetOracle(aps=[(1, 2)], halfline=1, include=[0], op="inter")
PINNED_B = SetOracle(aps=[(0, 2)], halfline=2, op="inter")


class SpecOracle:
    """value(n) of a library oracle by the per-symbol rules, read off its fields.

    This is the brute-force reference for the window evaluators: it never
    calls ``window`` or ``value`` on a library oracle, and it reads rotation
    symbols by exact cell membership of the orbit point, not by the walk.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        if isinstance(oracle, (CodeImageOracle, OverrideOracle)):
            self.inner = SpecOracle(oracle.inner)

    def value(self, n):
        o = self.oracle
        if isinstance(o, PeriodicOracle):
            return o.word[n % len(o.word)]
        if isinstance(o, SetOracle):
            if n in o.include:
                return 1
            if n in o.exclude:
                return 0
            votes = [(n - a) % d == 0 for a, d in o.aps]
            if o.halfline is not None:
                votes.append(n >= o.halfline)
            if o.op == "inter":
                return int(bool(votes) and all(votes))
            return int(any(votes) != (o.op == "complement"))
        if isinstance(o, RotationOracle):
            point = frac_part(n * o.coding.alpha + o.coding.base)
            return next(l for l in o.coding.labels() if contains(o.coding.cells[l], point))
        if isinstance(o, CodeImageOracle):
            return o.code.rule[tuple(self.inner.value(n + g) for g in o.code.offsets)]
        return o.patch[n] if n in o.patch else self.inner.value(n)

    def window(self, lo, hi):
        return [self.value(n) for n in range(lo, hi + 1)]


# -- word patterns ---------------------------------------------------------------

def test_word_pattern_validation():
    with pytest.raises(InputError):
        WordPattern((), ())
    with pytest.raises(InputError):
        WordPattern((0, 0), (1, 1))
    with pytest.raises(InputError):
        WordPattern((0, 1), (1,))


def test_word_pattern_contiguous():
    w = WordPattern.contiguous((1, 0, 1))
    assert w.offsets == (0, 1, 2) and w.span == 2


# -- evaluation ---------------------------------------------------------------------

def test_periodic_window():
    assert PeriodicOracle((0, 1)).window(0, 3) == [0, 1, 0, 1]


def test_even_set_window():
    assert PINNED_B.window(-2, 3) == [0, 0, 0, 0, 1, 0]


def test_override_window():
    zero = SetOracle()
    assert OverrideOracle(zero, {0: 1}).window(-1, 1) == [0, 1, 0]


def test_window_symbols_keep_their_type():
    # (0, 1) == (False, True) as tuples: the bool alphabet must not be read
    # through the int one, in either order
    for word in ((0, 1, 1), (True, False, False), (0, 1, 1), ("1", "0", "0")):
        got = PeriodicOracle(word).window(0, 5)
        assert got == list(word) * 2
        assert list(map(type, got)) == list(map(type, word)) * 2
    # a rotation coding's window decodes its digits back to the labels 1..4
    quarter = [QuadraticNumber(Fraction(k, 4)) for k in range(5)]
    coding = RotationCoding(QuadraticNumber(-1, 1, 2), {
        k + 1: CircleIntervalSet([Arc(quarter[k], True, quarter[k + 1], False)])
        for k in range(4)})
    got = RotationOracle(coding).window(-20, 20)
    assert got == SpecOracle(RotationOracle(coding)).window(-20, 20)
    assert set(got) == {1, 2, 3, 4} and {type(s) for s in got} == {int}


def test_window_cap():
    with pytest.raises(WindowTooLargeError):
        PeriodicOracle((0, 1)).window(0, 10**7 + 5)


def test_pinned_sets_agree_with_their_definitions():
    assert PINNED_A.window(0, 8) == [1, 1, 0, 1, 0, 1, 0, 1, 0]
    assert PINNED_A.window(-4, -1) == [0, 0, 0, 0]
    assert PINNED_B.window(0, 8) == [0, 0, 1, 0, 1, 0, 1, 0, 1]


class CountingOracle(PeriodicOracle):
    """A periodic oracle that counts how it is read: as symbols, as a digit
    string, or one value at a time.  A symbol read decodes a digit-string
    read, so it counts as both."""

    windows = digit_reads = values = 0

    def window(self, lo, hi):
        self.windows += 1
        return super().window(lo, hi)

    def digits(self, lo, hi):
        self.digit_reads += 1
        return super().digits(lo, hi)

    def value(self, n):
        self.values += 1
        return super().value(n)


@pytest.mark.parametrize("wrap", [
    lambda inner: CodeImageOracle(BlockCode((-2, 0, 3), {p: sum(p) % 2 for p in
                                                         product((0, 1), repeat=3)},
                                            (0, 1)), inner),
    lambda inner: OverrideOracle(inner, {-1: 1, 4: 0, 100: 1}),
])
def test_wrapping_oracle_reads_its_inner_oracle_once(wrap):
    inner = CountingOracle((0, 1, 1, 0, 1))
    outer = wrap(inner)
    got = outer.window(-30, 40)
    # one digit-string read of the inner oracle, and no symbol or value read
    assert (inner.windows, inner.digit_reads, inner.values) == (0, 1, 0)
    assert got == SpecOracle(outer).window(-30, 40)


@pytest.mark.parametrize("word,wrap", [
    # 7**3 = 343 patterns: more than a byte lane holds
    ((3, 0, 6, 1, 5, 2, 4, 4, 0),
     lambda inner: CodeImageOracle(BlockCode((-1, 0, 2), {p: "abc"[sum(p) % 3] for p in
                                                          product(range(7), repeat=3)},
                                             tuple(range(7))), inner)),
    (("x", "y", "y"), lambda inner: OverrideOracle(inner, {0: "a", 7: "z"})),
], ids=["wide-code", "string-override"])
def test_wide_and_string_wrappers_read_their_inner_oracle_once(word, wrap):
    inner = CountingOracle(word)
    outer = wrap(inner)
    got = outer.window(-30, 40)
    assert (inner.windows, inner.digit_reads, inner.values) == (0, 1, 0)
    assert got == SpecOracle(outer).window(-30, 40)


@pytest.mark.parametrize("check", [chromatic_recurrence_check, syndetic_return_check])
@pytest.mark.parametrize("word,steps", [
    ((0, 1, 1, 0, 1), (-3, 2, 5)),  # found
    ((0, 1), (-3, 1, 5)),  # missed at every step
])
def test_each_return_check_reads_its_oracle_once_as_digits(check, word, steps):
    oracle = CountingOracle(word)
    check(CandidateSet.integers(steps), oracle, 40)
    assert (oracle.windows, oracle.digit_reads, oracle.values) == (0, 1, 0)


# -- window evaluators against the per-symbol reference ----------------------------

@st.composite
def rotation_oracles(draw):
    """A coding of sqrt(2) - 1 or sqrt(5) - 2 cut at rationals k/12, with a
    random closure at each cut (left arc, right arc or an isolated point
    cell labelled 2) and a rational base."""
    alpha = draw(st.sampled_from((QuadraticNumber(-1, 1, 2), QuadraticNumber(-2, 1, 5))))
    base = QuadraticNumber(Fraction(draw(st.integers(0, 6)), 7))
    cuts = [QuadraticNumber(Fraction(k, 12))
            for k in sorted(draw(st.sets(st.integers(0, 11), min_size=2, max_size=4)))]
    owner = [draw(st.sampled_from(("left", "right", "point"))) for _ in cuts]
    pieces = {}
    for i, lo in enumerate(cuts):
        j = (i + 1) % len(cuts)
        piece = Arc(lo, owner[i] == "right", cuts[j], owner[j] == "left")
        pieces.setdefault(draw(st.integers(0, 1)), []).append(piece)
    cells = {label: CircleIntervalSet(arcs) for label, arcs in pieces.items()}
    points = [cut for cut, own in zip(cuts, owner) if own == "point"]
    if points:
        cells[2] = CircleIntervalSet((), points)
    return RotationOracle(RotationCoding(alpha, cells, base))


# Every symbol an oracle tree adds (periodic words, rule outputs, patch values)
# comes from one palette, so that no tree mixes symbols that are equal but
# differ in type, such as False and 0.
PALETTES = {"ints": (0, 1, 2), "strs": ("a", "b", "ab"), "bools": (False, True)}


@st.composite
def nested_oracles(draw, depth=3, palette=None):
    """A random oracle whose wrappers (code images, patches) nest at most
    ``depth`` oracles deep.

    Sets and rotation codings, whose symbols are ints, are leaves only
    under the int and string palettes.  A "wide" code image reads a
    7-symbol periodic oracle through 3 offsets: 343 patterns, more than one
    byte lane holds.  A code's output alphabet may be sorted, reversed or
    list a symbol twice.
    """
    if palette is None:
        palette = draw(st.sampled_from(sorted(PALETTES)))
    symbols = PALETTES[palette]
    leaves = ("periodic",) if palette == "bools" else ("periodic", "set", "rotation")
    kind = draw(st.sampled_from(leaves + ("code", "override") if depth > 1 else leaves))
    if kind == "code" and draw(st.integers(0, 3)) == 0:
        kind = "wide"
    if kind == "periodic":
        return PeriodicOracle(draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=5)))
    if kind == "set":
        fixes = st.lists(st.integers(-12, 12), max_size=3)
        return SetOracle(draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 5)),
                                       max_size=3)),
                         draw(st.none() | st.integers(-10, 10)), draw(fixes), draw(fixes),
                         draw(st.sampled_from(("union", "inter", "complement"))))
    if kind == "rotation":
        return draw(rotation_oracles())
    if kind == "wide":
        inner = PeriodicOracle(draw(st.permutations(range(7)))
                               + draw(st.lists(st.integers(0, 6), max_size=4)))
        offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=3, max_size=3))))
    else:
        inner = draw(nested_oracles(depth - 1, palette))
        if kind == "override":
            return OverrideOracle(inner, draw(st.dictionaries(
                st.integers(-12, 12), st.sampled_from(symbols), max_size=3)))
        offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))))
    patterns = list(product(inner.alphabet, repeat=len(offsets)))
    rng = draw(st.randoms(use_true_random=False))
    outputs = [rng.choice(symbols) for _ in patterns]
    alphabet = tuple(sorted(set(outputs), key=symbol_key))
    order = draw(st.sampled_from(("sorted", "reversed", "repeated")))
    alphabet = {"sorted": alphabet, "reversed": alphabet[::-1],
                "repeated": alphabet + alphabet[:1]}[order]
    return CodeImageOracle(BlockCode(offsets, dict(zip(patterns, outputs)), inner.alphabet,
                                     alphabet), inner)


def edges(oracle):
    """The positions where some layer of the oracle changes behaviour: its
    tails() thresholds, half-lines, set corrections and patch keys."""
    out = {0}
    tails = oracle.tails()
    if tails is not None:
        out |= {tails.left_upto, tails.right_from}
    if isinstance(oracle, SetOracle):
        out |= oracle.include | oracle.exclude
        if oracle.halfline is not None:
            out.add(oracle.halfline)
    if isinstance(oracle, OverrideOracle):
        out |= set(oracle.patch)
    if isinstance(oracle, (CodeImageOracle, OverrideOracle)):
        out |= edges(oracle.inner)
    return out


@pytest.mark.parametrize("oracle", [
    *(SetOracle(op=op) for op in ("union", "inter", "complement")),
    SetOracle(halfline=-3, include=[-5, 2], exclude=[2, 4], op="inter"),
    SetOracle(aps=[(7, 3)], include=[-1], exclude=[-1, 1], op="complement"),
])
def test_set_corner_cases_agree_with_the_per_symbol_reference(oracle):
    # no generators at all, and points both included and excluded (they read 1)
    assert oracle.window(-8, 8) == SpecOracle(oracle).window(-8, 8)


@pytest.mark.parametrize("aps,halfline,members", [
    # disjoint progressions: empty, whatever the half-line
    ([(0, 2), (1, 2)], 0, []),
    ([(0, 4), (1, 6)], None, []),
    # coprime steps meet in one progression, cut at the half-line
    ([(1, 2), (0, 3)], -5, [-3, 3, 9]),
    # steps with a common factor: x = 1 (mod 4) and x = 3 (mod 6) is x = 9 (mod 12)
    ([(1, 4), (3, 6)], None, [-3, 9]),
    ([(1, 4), (3, 6)], 10, []),
    ([], 7, [7, 8, 9, 10, 11, 12]),
])
def test_an_intersection_is_one_progression_cut_at_the_half_line(aps, halfline, members):
    oracle = SetOracle(aps=aps, halfline=halfline, op="inter")
    assert oracle.window(-12, 12) == [int(n in members) for n in range(-12, 13)]


@settings(max_examples=150, deadline=None)
@given(oracle=nested_oracles(), data=st.data())
def test_windows_agree_with_the_per_symbol_reference(oracle, data):
    spec = SpecOracle(oracle)
    centres = sorted(edges(oracle)) + [data.draw(st.integers(-80, 80))]
    for centre in centres:
        lo = centre - data.draw(st.integers(0, 6))
        hi = centre + data.draw(st.integers(0, 6))
        want = spec.window(lo, hi)
        got = oracle.window(lo, hi)
        assert got == want and list(map(type, got)) == list(map(type, want))
        for n, symbol in zip(range(lo, hi + 1), want):
            assert oracle.window(n, n) == [symbol]
            assert oracle.value(n) == symbol
    # and one window longer than 300 symbols
    lo = data.draw(st.integers(-400, 100))
    hi = lo + data.draw(st.integers(300, 360))
    want = spec.window(lo, hi)
    got = oracle.window(lo, hi)
    assert got == want and list(map(type, got)) == list(map(type, want))


# -- occurrences -----------------------------------------------------------------------

def test_occurrences_of_00_in_even_set():
    w = WordPattern((0, 1), (0, 0))
    assert occurrences(PINNED_B, w, -10, 10) == list(range(-10, 1))


def test_occurrences_of_11_in_pinned_a():
    assert occurrences(PINNED_A, WordPattern((0, 1), (1, 1)), -5, 5) == [0]


def test_single_symbol_occurrence_at_known_position():
    assert 2 in occurrences(PINNED_B, WordPattern((0,), (1,)), 0, 4)


def test_occurrences_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        occurrences(PINNED_B, WordPattern((0,), (7,)), 0, 4)


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=5),
       st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=120)
def test_occurrences_agree_with_naive_reevaluation(lo, width, symbols, seed):
    rng = random.Random(seed)
    oracle = SetOracle(aps=[(rng.randrange(5), rng.randrange(1, 5))],
                       include=[rng.randrange(-5, 5)])
    offsets = sorted(rng.sample(range(0, 8), len(symbols)))
    word = WordPattern(tuple(offsets), tuple(symbols))
    hi = lo + width
    got = occurrences(oracle, word, lo, hi)
    naive = [h for h in range(lo, hi + 1)
             if all(SpecOracle(oracle).value(h + o) == s
                    for o, s in zip(word.offsets, word.symbols))]
    assert got == naive


def test_occurrences_reject_reversed_bounds():
    with pytest.raises(InputError, match=r"window \[5, 1\] is empty"):
        occurrences(PINNED_B, WordPattern((0,), (1,)), 5, 1)


# -- scans against the per-position references ------------------------------------------

def scan_occurrences(oracle, word, lo, hi):
    """Reference for ``occurrences``: one window read, then a test at every position."""
    buf_lo = lo + word.offsets[0]
    buf = oracle.window(buf_lo, hi + word.offsets[-1])
    return [h for h in range(lo, hi + 1)
            if all(buf[h + o - buf_lo] == s for o, s in zip(word.offsets, word.symbols))]


def max_gap(positions, lo, hi):
    """Reference for ``gap_stats``: the largest gap between consecutive
    positions plus the window end slacks, read off the position list."""
    positions = list(positions)
    if not positions:
        return GapStats(None, None, None)
    gap = None if len(positions) < 2 else max(
        b - a for a, b in zip(positions, positions[1:]))
    return GapStats(gap, positions[0] - lo, hi - positions[-1])


def as_mask(positions, lo):
    """The mask with bit h - lo set for each position h."""
    return sum(1 << (h - lo) for h in set(positions))


FAR = 10**6


def recurs_in_far_tails(oracle, prefix, radius):
    """Whether a verified certificate holds over Z for an oracle with tails:
    the tails cover the scan with two periods to spare, and each initial
    word occurs among the period of starts at FAR and the period ending
    max_len before -FAR, read by brute force from windows there."""
    tails, max_len = oracle.tails(), len(prefix)
    if tails is None or not tails.covers(max_len + tails.period, radius):
        return False
    assert tails.left_upto >= -FAR and tails.right_from <= FAR  # FAR is in both tails
    for start in (FAR, -FAR - tails.period - max_len):
        buf = SpecOracle(oracle).window(start, start + tails.period + max_len - 1)
        if not all(any(tuple(buf[i:i + length]) == prefix[:length]
                       for i in range(tails.period))
                   for length in range(1, max_len + 1)):
            return False
    return True


def rescanning_certificate(oracle, max_len, radius, gap_bound=None):
    """Reference for ``uniform_recurrence_certificate``: each prefix length
    rescans all 2r + 1 positions with a tuple comparison.  A verified
    certificate is exact for a rotation coding, and otherwise when
    ``recurs_in_far_tails`` holds."""
    if gap_bound is None:
        gap_bound = max(1, radius // 2)
    buf = oracle.window(-radius, radius + max_len - 1)
    prefix = tuple(buf[radius:radius + max_len])
    worst, violations = 0, []
    for length in range(1, max_len + 1):
        target = prefix[:length]
        occ = [h for h in range(-radius, radius + 1)
               if tuple(buf[h + radius:h + radius + length]) == target]
        stats = max_gap(occ, -radius, radius)
        if stats.worst is not None and stats.worst <= gap_bound:
            worst = max(worst, stats.worst)
        else:
            violations.append((WordPattern.contiguous(target), occ, stats))
    if not violations:
        exact = isinstance(oracle, RotationOracle) or recurs_in_far_tails(oracle, prefix, radius)
        return RecurrenceCertificate("verified", max_len, radius, gap_bound,
                                     g_star=worst, exact=exact)
    word, occ, stats = max(violations, key=lambda v: (
        v[2].worst is None, v[2].worst or 0, -len(v[0].symbols)))
    evidence = {
        "occurrences": occ[:50] + (["..."] if len(occ) > 50 else []),
        "count": len(occ), **stats.describe(), "window": [-radius, radius],
    }
    if isinstance(oracle, RotationOracle):
        wc = classify_word(oracle.coding, word)
        if wc.kind in ("finite", "empty"):
            return RecurrenceCertificate("candidate_refutation", max_len, radius, gap_bound,
                                         word=word, evidence=evidence, exact=True,
                                         word_class=wc)
        return RecurrenceCertificate("inconclusive", max_len, radius, gap_bound,
                                     word=word, evidence=evidence)
    return RecurrenceCertificate("candidate_refutation", max_len, radius, gap_bound,
                                 word=word, evidence=evidence)


# symbols 10 and 46 encode as a newline and a dot, characters that a
# pattern-based matcher would treat specially
WIDE = PeriodicOracle(list(range(60)) + [1, 2, 48, 10, 3])


@pytest.mark.parametrize("word", [
    WordPattern((0, 2), (46, 48)), WordPattern((0, 2), (9, 11)), WordPattern((0, 1), (10, 11)),
    WordPattern((-1, 1, 3), (45, 47, 49)), WordPattern((0, 3), (2, 3)), WordPattern((0,), (10,)),
])
def test_words_over_a_wide_alphabet_agree_with_the_reference(word):
    want = scan_occurrences(WIDE, word, -200, 200)
    assert want  # every word here occurs
    assert occurrences(WIDE, word, -200, 200) == want


# 300 symbols: the window text holds characters past U+00FF, outside Latin-1,
# and the initial words start with two of them
BEYOND_LATIN1 = PeriodicOracle([299, 256, 7] + list(range(300)) + [7, 299, 256])


@pytest.mark.parametrize("word", [
    WordPattern((0,), (299,)), WordPattern((0, 1), (7, 299)), WordPattern((0, 2), (299, 7)),
    WordPattern((0, 1), (255, 256)), WordPattern((0, 306), (299, 299)),
])
def test_scans_past_latin1_agree_with_the_reference(word):
    want = scan_occurrences(BEYOND_LATIN1, word, -700, 700)
    assert want  # every word here occurs
    assert occurrences(BEYOND_LATIN1, word, -700, 700) == want


@pytest.mark.parametrize("max_len,radius,gap_bound,verdict", [
    (2, 700, None, "verified"), (3, 700, 400, "verified"),
    (3, 700, 100, "candidate_refutation"), (2, 200, 150, "candidate_refutation"),
])
def test_certificates_past_latin1_agree_with_the_reference(max_len, radius, gap_bound, verdict):
    got = uniform_recurrence_certificate(BEYOND_LATIN1, max_len, radius, gap_bound)
    assert got.verdict == verdict
    assert got.describe() == rescanning_certificate(BEYOND_LATIN1, max_len, radius,
                                                    gap_bound).describe()


def test_scans_over_a_repeated_output_alphabet():
    # a code may list a symbol twice in its output alphabet; every symbol
    # still gets its own character
    code = BlockCode((0,), {(0,): 0, (1,): 2}, (0, 1), (0, 2, 0))
    oracle = CodeImageOracle(code, PeriodicOracle((0, 1, 1)))
    for word in (WordPattern((0,), (0,)), WordPattern((0, 3), (2, 2)), WordPattern((0, 1), (0, 2))):
        assert occurrences(oracle, word, -9, 9) == scan_occurrences(oracle, word, -9, 9) != []
    assert (uniform_recurrence_certificate(oracle, 3, 9).describe()
            == rescanning_certificate(oracle, 3, 9).describe())


def test_sparse_word_scan_costs_no_more_than_its_window():
    # 99999 free offsets between two constrained ones: the scan must not
    # step through them at every start
    oracle = PeriodicOracle((0, 1, 1))
    word = WordPattern((0, 99999), (0, 0))
    t = time.perf_counter()
    got = occurrences(oracle, word, -200_000, 200_000)
    assert time.perf_counter() - t < 5.0
    assert got == [h for h in range(-200_000, 200_001) if h % 3 == 0]
    assert occurrences(oracle, WordPattern((0, 100_000), (0, 0)), -200_000, 200_000) == []


@st.composite
def scan_oracles(draw):
    """Nested oracles, the same relabelled to string symbols, and periodic
    words over 48 to 100 symbols (so that symbol indices 10 and 46 occur)."""
    kind = draw(st.sampled_from(("nested", "strings", "wide")))
    if kind == "wide":
        size = draw(st.integers(48, 100))
        word = draw(st.permutations(range(size)))
        word += draw(st.lists(st.integers(0, size - 1), max_size=20))
        return PeriodicOracle(word)
    oracle = draw(nested_oracles())
    if kind == "nested":
        return oracle
    names = draw(st.lists(st.sampled_from(("a", "b", ".", "*", "\n", "(", "\\", "ab")),
                          min_size=len(oracle.alphabet), max_size=len(oracle.alphabet)))
    rule = {(s,): name for s, name in zip(oracle.alphabet, names)}
    return CodeImageOracle(BlockCode((0,), rule, oracle.alphabet), oracle)


@settings(max_examples=150, deadline=None)
@given(oracle=scan_oracles(), data=st.data())
def test_scans_agree_with_the_per_position_references(oracle, data):
    offsets = sorted(data.draw(st.sets(st.integers(-4, 8), min_size=1, max_size=4)))
    if data.draw(st.booleans()):  # read the word off the oracle, so that it occurs
        at = data.draw(st.integers(-30, 30))
        symbols = [oracle.value(at + o) for o in offsets]
    else:
        symbols = data.draw(st.lists(st.sampled_from(oracle.alphabet),
                                     min_size=len(offsets), max_size=len(offsets)))
    word = WordPattern(tuple(offsets), tuple(symbols))
    lo = data.draw(st.integers(-40, 40))
    hi = lo + data.draw(st.integers(0, 40))
    assert occurrences(oracle, word, lo, hi) == scan_occurrences(oracle, word, lo, hi)

    max_len = data.draw(st.integers(1, 8))
    radius = data.draw(st.integers(0, 40))
    gap_bound = data.draw(st.none() | st.integers(1, 20))
    got = uniform_recurrence_certificate(oracle, max_len, radius, gap_bound)
    assert got.describe() == rescanning_certificate(oracle, max_len, radius,
                                                    gap_bound).describe()


# -- initial words ------------------------------------------------------------------------

def initial_words(oracle, max_len):
    """The contiguous prefixes (oracle(0..l-1); offsets 0..l-1) for l = 1..max_len."""
    buf = oracle.window(0, max_len - 1)
    return [WordPattern.contiguous(buf[:l]) for l in range(1, max_len + 1)]


def test_initial_words_periodic():
    words = initial_words(PeriodicOracle((0, 1)), 2)
    assert [w.symbols for w in words] == [(0,), (0, 1)]


def test_initial_words_pinned_a():
    words = initial_words(PINNED_A, 3)
    assert [w.symbols for w in words] == [(1,), (1, 1), (1, 1, 0)]


def test_initial_words_zero_oracle():
    words = initial_words(SetOracle(), 2)
    assert [w.symbols for w in words] == [(0,), (0, 0)]


# -- gap statistics --------------------------------------------------------------------------

def test_max_gap_examples():
    # each example through the positions reference and the mask form
    for positions, lo, hi, want in [([0, 2, 4], 0, 4, GapStats(2, 0, 0)),
                                    ([1], -10, 10, GapStats(None, 11, 9)),
                                    ([], 0, 100, GapStats(None, None, None))]:
        assert max_gap(positions, lo, hi) == gap_stats(as_mask(positions, lo), lo, hi) == want
    assert GapStats(None, 11, 9).worst is None and GapStats(2, 0, 0).worst == 2
    assert GapStats(None, 11, 9).describe() == {"max_gap": "inf", "left_slack": 11,
                                                "right_slack": 9}


@st.composite
def windows_with_positions(draw):
    """A window [lo, hi] and a subset of it: random, or one of the edge cases
    of the zero-run search (no bit, one bit, both ends, adjacent bits, and
    zero runs at and around a power of two)."""
    radius = draw(st.integers(0, 80))
    lo = draw(st.integers(-100, 100))
    hi = lo + 2 * radius
    case = draw(st.sampled_from(("random", "empty", "one", "ends", "adjacent", "run")))
    if case == "random":
        positions = draw(st.sets(st.integers(lo, hi)))
    elif case == "empty":
        positions = set()
    elif case == "one":
        positions = {draw(st.integers(lo, hi))}
    elif case == "ends":
        positions = {lo, hi} | draw(st.sets(st.integers(lo, hi), max_size=3))
    elif case == "adjacent":
        at = draw(st.integers(lo, hi))
        positions = {at, min(at + 1, hi)}
    else:
        k = draw(st.integers(0, 6))
        zeros = 2 ** k + draw(st.sampled_from((-1, 0, 1)))
        at = draw(st.integers(lo, max(lo, hi - zeros - 1)))
        positions = {at, at + zeros + 1} | draw(st.sets(st.integers(lo, at), max_size=3))
        if at + zeros + 1 > hi:
            hi = at + zeros + 1
    return sorted(positions), lo, hi


@settings(max_examples=400, deadline=None)
@given(windows_with_positions())
@example(([], 5, 5)).via("radius 0, empty")
@example(([5], 5, 5)).via("radius 0, one bit")
def test_mask_gap_stats_agree_with_the_positions_reference(case):
    positions, lo, hi = case
    assert gap_stats(as_mask(positions, lo), lo, hi) == max_gap(positions, lo, hi)


@pytest.mark.parametrize("k", range(1, 8))
def test_zero_runs_at_the_doubling_boundary(k):
    for zeros in (2 ** k - 1, 2 ** k, 2 ** k + 1):
        # a shorter run beside the longest one, so that both searches matter
        positions = [0, 2, zeros + 3]
        assert gap_stats(as_mask(positions, 0), 0, zeros + 5) == GapStats(zeros + 1, 0, 2)


def floats_in(tree):
    """The float leaves of a describe() tree."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in floats_in(v)]
    if isinstance(tree, (list, tuple)):
        return [x for v in tree for x in floats_in(v)]
    return [tree] if isinstance(tree, float) else []


@pytest.mark.parametrize("oracle,max_len,radius,gap_bound,verdict,max_gap_seen", [
    (PeriodicOracle((0, 1, 1)), 4, 60, 3, "verified", None),
    (PINNED_A, 2, 1000, 1000, "candidate_refutation", "inf"),  # (1, 1) occurs once
    (SetOracle(halfline=0), 4, 1000, None, "candidate_refutation", 1),
])
def test_certificates_carry_no_float(oracle, max_len, radius, gap_bound, verdict, max_gap_seen):
    cert = uniform_recurrence_certificate(oracle, max_len, radius, gap_bound)
    assert cert.verdict == verdict and floats_in(cert.describe()) == []
    if verdict == "verified":
        assert type(cert.g_star) is int and cert.g_star == 3
    else:
        assert cert.evidence["max_gap"] == max_gap_seen


# -- certificates -------------------------------------------------------------------------------

def test_periodic_certificate_verified():
    cert = uniform_recurrence_certificate(PeriodicOracle((0, 1)), 8, 100, 8)
    assert cert.verdict == "verified" and cert.g_star == 2


def test_pinned_a_refuted_on_double_one():
    cert = uniform_recurrence_certificate(PINNED_A, 2, 1000, 1000)
    assert cert.verdict == "candidate_refutation"
    assert cert.word.symbols == (1, 1)
    assert cert.evidence["occurrences"] == [0]
    assert not cert.exact  # windowed refutations of set oracles stay heuristic


def test_one_sided_set_is_refuted_via_end_slack():
    cert = uniform_recurrence_certificate(SetOracle(halfline=0), 4, 1000)
    assert cert.verdict == "candidate_refutation"
    assert cert.evidence["left_slack"] > cert.gap_bound


def test_certificate_reads_no_occurrence_past_its_window():
    # the window read runs max_len - 1 symbols past the radius, and the word
    # 1 occurs there (at 11 and 12) but inside [-10, 10] only at 0
    oracle = SetOracle(halfline=11, include=[0])
    cert = uniform_recurrence_certificate(oracle, 3, 10, 5)
    assert cert.describe() == rescanning_certificate(oracle, 3, 10, 5).describe()
    assert cert.word.symbols == (1,) and cert.evidence["occurrences"] == [0]
    assert cert.evidence["max_gap"] == "inf" and cert.evidence["right_slack"] == 10


def test_certificate_is_recheckable_from_echoed_parameters():
    cert = uniform_recurrence_certificate(PeriodicOracle((0, 1, 1)), 6, 200, 10)
    assert cert.verdict == "verified"
    for word in initial_words(PeriodicOracle((0, 1, 1)), cert.max_len):
        occ = occurrences(PeriodicOracle((0, 1, 1)), word, -cert.radius, cert.radius)
        assert max_gap(occ, -cert.radius, cert.radius).worst <= cert.g_star


@pytest.mark.parametrize("word,radius", [((0, 1), 50), ((1, 1, 0, 1), 100), ((0,), 30)])
def test_periodic_oracles_verify_with_gap_at_most_period(word, radius):
    q = len(word)
    cert = uniform_recurrence_certificate(PeriodicOracle(word), min(8, 64), max(radius, 4 * q), q)
    assert cert.verdict == "verified"
    assert cert.g_star <= q


def test_periodic_certificate_at_the_maximal_word_length():
    cert = uniform_recurrence_certificate(PeriodicOracle((0, 1, 1)), 64, 200, 3)
    assert cert.verdict == "verified" and cert.g_star <= 3


def test_rotation_certificate_inconclusive_when_backend_proves_syndetic():
    # an unrealistically small gap bound flags a violation, but the exact
    # backend shows the word is syndetic, so no refutation can be issued
    from fractions import Fraction
    from shiftlab.algebra import QuadraticNumber
    from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding
    from shiftlab.zshift import RotationOracle

    one = CircleIntervalSet([Arc(QuadraticNumber(Fraction(1, 3)), False,
                                 QuadraticNumber(Fraction(2, 3)), False)])
    coding = RotationCoding(QuadraticNumber(-2, 1, 5), {1: one, 0: one.complement()})
    cert = uniform_recurrence_certificate(RotationOracle(coding), 2, 1000, 1)
    assert cert.verdict == "inconclusive"
    assert cert.word is not None


@pytest.mark.parametrize("oracle,radius,exact", [
    (PeriodicOracle("01"), 1000, True),
    (PeriodicOracle("01"), 7, True),  # covers(3 + 2, radius) needs radius 0 + 5 + 2
    (PeriodicOracle("01"), 6, False),
    (SetOracle(halfline=100_000), 1000, False),  # the tails lie past the window
    (SetOracle(halfline=11, op="complement"), 1000, False),  # 1 is never in the right tail
    (SetOracle(halfline=-10), 1000, False),  # 1 is never in the left tail
    (PeriodicOracle("0101"), 7, True),  # covers with the least period 2, not the word's 4
])
def test_a_verified_certificate_is_exact_only_when_its_window_holds_every_gap(
        oracle, radius, exact):
    cert = uniform_recurrence_certificate(oracle, 3, radius, 5000)
    assert (cert.verdict, cert.exact) == ("verified", exact)
    assert cert.describe() == rescanning_certificate(oracle, 3, radius, 5000).describe()


@pytest.mark.parametrize("max_len,gap_bound", [(0, None), (-3, None), (4, 0), (4, -1)])
def test_certificate_rejects_vacuous_parameters(max_len, gap_bound):
    # max_len < 1 checks no word at all; gap_bound < 1 no gap can meet
    with pytest.raises(InputError):
        uniform_recurrence_certificate(PeriodicOracle((0, 1)), max_len, 10, gap_bound)


def test_certificate_bounds():
    with pytest.raises(BoundsExceededError):
        uniform_recurrence_certificate(PeriodicOracle((0, 1)), 65, 100)
    with pytest.raises(BoundsExceededError):
        uniform_recurrence_certificate(PeriodicOracle((0, 1)), 8, 10**6 + 1)


# -- eventual tails -----------------------------------------------------------------------------

def _code_image_fixture():
    from shiftlab.codes import apply_code, parity_code
    return apply_code(parity_code((0, 1)), PINNED_B)


@pytest.mark.parametrize("oracle", [
    PINNED_A, PINNED_B, PeriodicOracle((0, 1, 1)),
    OverrideOracle(PINNED_B, {11: 1, -4: 1}),
    SetOracle(aps=[(0, 2), (1, 3)], exclude=[5], op="union"),
    SetOracle(aps=[(0, 4)], op="complement"),
    _code_image_fixture(),
    OverrideOracle(_code_image_fixture(), {-7: 1}),
])
def test_tails_describe_true_eventual_periodicity(oracle):
    t = oracle.tails()
    assert t is not None
    for n in range(t.right_from, t.right_from + 3 * t.period):
        assert oracle.value(n + t.period) == oracle.value(n)
    for n in range(t.left_upto - 3 * t.period, t.left_upto + 1):
        assert oracle.value(n - t.period) == oracle.value(n)


@pytest.mark.parametrize("word,period", [
    ("0101", 2), ("0", 1), ("000", 1), ((0, 1, 1), 3), ((1, 0) * 3, 2), ("ababa", 5),
    ((0, "0", 0, "0"), 2),
])
def test_a_periodic_word_reports_its_least_period(word, period):
    assert PeriodicOracle(word).tails() == EventualTails(period, left_upto=0, right_from=0)


def _identity_at(offset):
    return BlockCode((offset,), {(0,): 0, (1,): 1}, (0, 1))


@given(nested_oracles())
# a code's offsets move its inner thresholds, which for these sets have
# less slack (period + 1 = 2) than the offset
@example(CodeImageOracle(_identity_at(-3), SetOracle(halfline=10)))
@example(CodeImageOracle(_identity_at(3), SetOracle(halfline=-10)))
@example(OverrideOracle(PeriodicOracle("01"), {-5: 1, 7: 0}))
@settings(max_examples=150, deadline=None)
def test_tails_hold_at_both_thresholds_and_far_out(oracle):
    # value(n + P) == value(n) from right_from on and value(n - P) == value(n)
    # up to left_upto, read by the brute-force reference, for every oracle kind
    tails = oracle.tails()
    assume(tails is not None)
    spec, period = SpecOracle(oracle), tails.period
    assert period >= 1 and tails.left_upto <= tails.right_from
    for start in (tails.right_from, 10**6 - period, 10**6):
        assert spec.window(start, start + 2 * period - 1) == \
            spec.window(start + period, start + 3 * period - 1)
    for end in (tails.left_upto, -10**6 + period, -10**6):
        assert spec.window(end - 2 * period + 1, end) == \
            spec.window(end - 3 * period + 1, end - period)
    if isinstance(oracle, PeriodicOracle):
        word = list(oracle.word)
        assert word == word[period:] + word[:period] and not any(
            word == word[p:] + word[:p] for p in range(1, period))


def test_set_oracle_validation():
    with pytest.raises(InputError):
        SetOracle(aps=[(0, 0)])
    with pytest.raises(InputError):
        SetOracle(op="xor")


THIRD = RotationOracle(RotationCoding(QuadraticNumber(-2, 1, 5), {
    1: CircleIntervalSet([Arc(QuadraticNumber(0), True, QuadraticNumber(Fraction(1, 3)), False)]),
    0: CircleIntervalSet([Arc(QuadraticNumber(Fraction(1, 3)), True, QuadraticNumber(1), False)]),
}))


@pytest.mark.parametrize("oracle,offsets,symbols,radius,want", [
    (PeriodicOracle("01"), (0, 2), ("0", "0"), 0, False),
    (PeriodicOracle("01"), (0, 1), ("0", "0"), 3, True),  # covers(1, 3): 0 + 1 + 2
    (PeriodicOracle("01"), (0, 1), ("0", "0"), 2, None),
    (PeriodicOracle("01"), (-1, 0), ("0", "0"), 3, True),
    (PeriodicOracle("01"), (3, 3), ("0", "1"), 0, True),  # two symbols at one offset
    (PeriodicOracle("01"), (0, 1), ("0", "2"), 0, True),  # 2 is outside the alphabet
    (SetOracle(halfline=100_000), (0,), (1,), 1000, None),
    (THIRD, (0, 2), (1, 1), 1000, True),  # [0, 1/3) and [0, 1/3) - 2 alpha are disjoint
    (THIRD, (0, 1), (1, 1), 0, False),  # a syndetic locus the window misses
    (THIRD, (0, 1), (1, 2), 0, True),
])
def test_absent_by_value(oracle, offsets, symbols, radius, want):
    window = _EncodedWindow(oracle, -radius + min(offsets), radius + max(offsets))
    assert window.absent(offsets, symbols, radius) is want


@settings(max_examples=300, deadline=None)
@given(oracle=nested_oracles(), data=st.data())
def test_an_absent_word_occurs_in_no_far_window(oracle, data):
    spec = SpecOracle(oracle)
    offsets = data.draw(st.lists(st.integers(-4, 8), min_size=1, max_size=4))
    at = data.draw(st.integers(-150, 150))
    how = data.draw(st.sampled_from(("read", "change one", "draw")))
    if how != "draw":  # read the word off the oracle at `at`, so that it occurs
        symbols = [spec.value(at + o) for o in offsets]
        if how == "change one":  # then it may occur nowhere
            symbols[data.draw(st.integers(0, len(offsets) - 1))] = data.draw(
                st.sampled_from(oracle.alphabet))
    else:
        symbols = data.draw(st.lists(st.sampled_from([*oracle.alphabet, "x"]),
                                     min_size=len(offsets), max_size=len(offsets)))
    radius = data.draw(st.integers(0, 120))
    window = _EncodedWindow(oracle, -radius + min(offsets), radius + max(offsets))
    absent = window.absent(offsets, symbols, radius)

    def matches(centre, width):
        lo = centre - width + min(offsets)
        buf = spec.window(lo, centre + width + max(offsets))
        return [h for h in range(centre - width, centre + width + 1)
                if all(buf[h + o - lo] == s for o, s in zip(offsets, symbols))]

    if not isinstance(oracle, RotationOracle):  # a rotation locus may be met outside
        assert (absent is False) == bool(matches(0, radius))
    if absent:
        for centre, width in ((0, radius), (at, 0), (FAR, 20), (-FAR, 20), (10**9, 20),
                              (-10**9, 20)):
            assert not matches(centre, width)


def test_only_zshift_decides_what_a_window_miss_proves():
    # whether a word the window misses occurs nowhere on Z rests on two
    # questions, a rotation coding's locus and the tails' cover bound; asked
    # in a second module, that decision would be written twice
    package = Path(shiftlab.__file__).parent
    askers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "covers":
                askers.add(path.relative_to(package).as_posix())
            if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                    and "RotationOracle" in ast.unparse(node.args[-1])):
                askers.add(path.relative_to(package).as_posix())
    assert askers == {"zshift.py"}


def test_shared_scan_order_and_tail_bound():
    # the code search, its blind oracle and the recurrence scans all read
    # these two definitions, so pin them here
    assert list(centered(2)) == [0, 1, -1, 2, -2] and list(centered(0)) == [0]
    tails = EventualTails(period=3, left_upto=-4, right_from=6)
    assert tails.covers(2, 11) and not tails.covers(2, 10)
    assert EventualTails(period=1, left_upto=-9, right_from=0).covers(0, 10)
