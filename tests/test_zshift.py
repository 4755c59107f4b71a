import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.algebra import QuadraticNumber
from shiftlab.codes import BlockCode
from shiftlab.errors import (
    AlphabetMismatchError,
    BoundsExceededError,
    InputError,
    WindowTooLargeError,
)
from shiftlab.rotation import Arc, CircleIntervalSet, RotationCoding
from shiftlab.zshift import (
    CodeImageOracle,
    GapStats,
    OverrideOracle,
    PeriodicOracle,
    RotationOracle,
    SetOracle,
    WordPattern,
    initial_words,
    max_gap,
    occurrences,
    uniform_recurrence_certificate,
)

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
            point = o.coding.orbit_point(n)
            return next(l for l in o.coding.labels() if o.coding.cells[l].contains(point))
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


def test_window_cap():
    with pytest.raises(WindowTooLargeError):
        PeriodicOracle((0, 1)).window(0, 10**7 + 5)


def test_pinned_sets_agree_with_their_definitions():
    assert PINNED_A.window(0, 8) == [1, 1, 0, 1, 0, 1, 0, 1, 0]
    assert PINNED_A.window(-4, -1) == [0, 0, 0, 0]
    assert PINNED_B.window(0, 8) == [0, 0, 1, 0, 1, 0, 1, 0, 1]


class CountingOracle(PeriodicOracle):
    """A periodic oracle that counts how it is read."""

    windows = values = 0

    def window(self, lo, hi):
        self.windows += 1
        return super().window(lo, hi)

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
    assert (inner.windows, inner.values) == (1, 0)
    assert got == SpecOracle(outer).window(-30, 40)


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


@st.composite
def nested_oracles(draw, depth=3):
    """A random oracle whose wrappers (code images, patches) nest at most
    ``depth`` oracles deep."""
    kind = draw(st.sampled_from(("periodic", "set", "rotation", "code", "override")
                                if depth > 1 else ("periodic", "set", "rotation")))
    if kind == "periodic":
        return PeriodicOracle(draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)))
    if kind == "set":
        fixes = st.lists(st.integers(-12, 12), max_size=3)
        return SetOracle(draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 5)),
                                       max_size=3)),
                         draw(st.none() | st.integers(-10, 10)), draw(fixes), draw(fixes),
                         draw(st.sampled_from(("union", "inter", "complement"))))
    if kind == "rotation":
        return draw(rotation_oracles())
    inner = draw(nested_oracles(depth - 1))
    if kind == "override":
        return OverrideOracle(inner, draw(st.dictionaries(st.integers(-12, 12),
                                                          st.integers(0, 2), max_size=3)))
    offsets = tuple(sorted(draw(st.sets(st.integers(-3, 3), min_size=1, max_size=3))))
    patterns = list(product(inner.alphabet, repeat=len(offsets)))
    outputs = draw(st.lists(st.integers(0, 2), min_size=len(patterns), max_size=len(patterns)))
    return CodeImageOracle(BlockCode(offsets, dict(zip(patterns, outputs)), inner.alphabet),
                           inner)


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


@settings(max_examples=150, deadline=None)
@given(oracle=nested_oracles(), data=st.data())
def test_windows_agree_with_the_per_symbol_reference(oracle, data):
    spec = SpecOracle(oracle)
    centres = sorted(edges(oracle)) + [data.draw(st.integers(-80, 80))]
    for centre in centres:
        lo = centre - data.draw(st.integers(0, 6))
        hi = centre + data.draw(st.integers(0, 6))
        want = spec.window(lo, hi)
        assert oracle.window(lo, hi) == want
        for n, symbol in zip(range(lo, hi + 1), want):
            assert oracle.window(n, n) == [symbol]
            assert oracle.value(n) == symbol


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


# -- initial words ------------------------------------------------------------------------

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
    assert max_gap([0, 2, 4], 0, 4) == GapStats(2, 0, 0)
    assert max_gap([1], -10, 10) == GapStats(math.inf, 11, 9)
    assert max_gap([], 0, 100) == GapStats(math.inf, math.inf, math.inf)


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


def test_set_oracle_validation():
    with pytest.raises(InputError):
        SetOracle(aps=[(0, 0)])
    with pytest.raises(InputError):
        SetOracle(op="xor")
