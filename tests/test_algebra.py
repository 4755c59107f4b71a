import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import algebra
from shiftlab.algebra import (
    QuadraticNumber,
    RADICAND_BOUND,
    Z3B_IDENTITY,
    catalog,
    cyclic_group,
    frac_part,
    group_validate,
    is_dedekind,
    is_squarefree,
    is_normal,
    parse_quadratic,
    solve_hit,
    subgroups,
    symbol_key,
    z3b,
    z3b_f,
    z3b_marker,
)
from shiftlab.errors import (
    BoundExceeded,
    MismatchedFieldError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NoIdentityError,
    OrderBoundExceededError,
    RationalAlphaError,
    ScenarioError,
)

ALPHA = QuadraticNumber(-2, 1, 5)  # sqrt(5) - 2
CATALOG = catalog()


# -- independent oracles -------------------------------------------------------

def brute_force_subgroups(G):
    """Subset-closure oracle: check every subset of indices directly."""
    n = G.order
    out = []
    for mask in range(1 << n):
        S = [i for i in range(n) if mask >> i & 1]
        if G.identity not in S:
            continue
        sset = set(S)
        if all(G.mul(a, b) in sset for a in S for b in S) and all(G.inv(a) in sset for a in S):
            out.append(tuple(S))
    return sorted(out, key=lambda t: (len(t), t))


def decimal_value(x, prec=110):
    getcontext().prec = prec
    v = Decimal(x.a)
    if x.b:
        v += Decimal(x.b) * Decimal(x.d).sqrt()
    return v / Decimal(x.c)


class FractionQuadratic:
    """Oracle: u + v*sqrt(d) as two Fractions, with a fixed-up floor.

    This is the library's earlier representation, kept to cross-check the
    reduced-integer ``QuadraticNumber`` operation by operation.
    """

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v=0, d=0):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.d = 0 if self.v == 0 else d
        if self.v != 0 and (d < 2 or not is_squarefree(d)):
            raise MismatchedFieldError(d, d)

    @staticmethod
    def _join(x, y):
        if x.d and y.d and x.d != y.d:
            raise MismatchedFieldError(x.d, y.d)
        return x.d or y.d

    @classmethod
    def _coerce(cls, value):
        return value if isinstance(value, FractionQuadratic) else cls(value)

    def __add__(self, other):
        other = self._coerce(other)
        d = self._join(self, other)
        return FractionQuadratic(self.u + other.u, self.v + other.v, d)

    __radd__ = __add__

    def __neg__(self):
        return FractionQuadratic(-self.u, -self.v, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._join(self, other)
        return FractionQuadratic(self.u * other.u + self.v * other.v * d,
                                 self.u * other.v + other.u * self.v, d)

    __rmul__ = __mul__

    def inverse(self):
        if self.v == 0:
            return FractionQuadratic(1 / self.u)
        norm = self.u * self.u - self.v * self.v * self.d
        return FractionQuadratic(self.u / norm, -self.v / norm, self.d)

    def sign(self):
        u, v = self.u, self.v
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        if u * u > v * v * self.d:
            return 1 if u > 0 else -1
        return 1 if v > 0 else -1

    def compare(self, other):
        return (self - self._coerce(other)).sign()

    def __eq__(self, other):
        return self.compare(other) == 0

    def floor(self):
        if self.v == 0:
            return math.floor(self.u)
        p, q = self.v.numerator, self.v.denominator
        t = math.isqrt((p * p * self.d) // (q * q))
        est = math.floor(self.u) + (t if p > 0 else -t) - 2
        while (self - (est + 1)).sign() >= 0:
            est += 1
        return est

    def frac(self):
        return self - self.floor()

    def solve_hit(self, p):
        """The unique n with n*self - p integral, or None."""
        self._join(self, p)
        n = p.v / self.v
        if n.denominator != 1:
            return None
        n = n.numerator
        return n if (n * self.u - p.u).denominator == 1 else None

    def __str__(self):
        if self.v == 0:
            return _fmt(self.u)
        root = f"sqrt({self.d})"
        if self.v == 1:
            s = root
        elif self.v == -1:
            s = f"-{root}"
        else:
            s = f"{_fmt(self.v)}*{root}"
        if self.u == 0:
            return s
        if self.u > 0:
            return f"{s}+{_fmt(self.u)}"
        return f"{s}-{_fmt(-self.u)}"


def _fmt(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- group validation ----------------------------------------------------------

def test_trivial_group():
    G = group_validate([[0]])
    assert G.order == 1 and G.identity == 0 and G.inverse == (0,)


def test_z4_is_valid():
    G = group_validate([[(a + b) % 4 for b in range(4)] for a in range(4)])
    assert G.order == 4
    assert G.inverse == (0, 3, 2, 1)


def test_corrupted_z4_reports_broken_axiom():
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    table[1][1] = 3
    with pytest.raises((NotAssociativeError, NoInverseError)) as exc:
        group_validate(table)
    assert exc.value.witness is not None


def test_not_closed_witness_is_row_major_first():
    with pytest.raises(NotClosedError) as exc:
        group_validate([[0, 1], [7, 0]])
    assert exc.value.witness == (1, 0, 7)


def test_no_identity():
    # constant table: total right-absorption, no identity
    with pytest.raises(NoIdentityError):
        group_validate([[0, 0], [0, 0]])


def test_every_catalog_group_revalidates():
    for name, G in CATALOG.items():
        H = group_validate(G.table, name=name)
        assert H.identity == G.identity and H.inverse == G.inverse


# -- subgroup enumeration --------------------------------------------------------

def test_trivial_group_subgroups():
    assert subgroups(CATALOG["z1"]) == [(0,)]


def test_z4_subgroups():
    assert subgroups(CATALOG["z4"]) == [(0,), (0, 2), (0, 1, 2, 3)]


def test_s3_subgroup_census():
    subs = subgroups(CATALOG["s3"])
    assert len(subs) == 6
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 2, 2, 3, 6]


def test_subgroups_match_subset_brute_force_for_whole_catalog():
    for name, G in CATALOG.items():
        assert subgroups(G) == brute_force_subgroups(G), name


def test_subgroups_order_bound():
    with pytest.raises(OrderBoundExceededError):
        subgroups(cyclic_group(17))


def test_derived_caches_agree_with_recomputation():
    G = CATALOG["d4"]
    assert G.subgroups() == subgroups(G)
    assert G.is_dedekind().dedekind == is_dedekind(G).dedekind


# -- Dedekind test ----------------------------------------------------------------

def test_abelian_groups_are_dedekind():
    for name in ("z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "z2xz2", "z2xz4", "z2xz2xz2"):
        assert is_dedekind(CATALOG[name]).dedekind, name


def test_q8_is_dedekind():
    assert is_dedekind(CATALOG["q8"]).dedekind


@pytest.mark.parametrize("name", ["s3", "d4"])
def test_non_dedekind_witness_checks_out(name):
    G = CATALOG[name]
    res = is_dedekind(G)
    assert not res.dedekind
    H, a, b = res.witness
    assert not is_normal(G, H)
    assert b in H
    assert G.mul(b, a) not in {G.mul(a, h) for h in H}
    # lexicographically first non-normal subgroup in the canonical order
    first_bad = next(S for S in subgroups(G) if not is_normal(G, S))
    assert H == first_bad


def test_s3_witness_subgroup_is_order_two():
    H, a, b = is_dedekind(CATALOG["s3"]).witness
    assert len(H) == 2 and CATALOG["s3"].identity in H


# -- quadratic numbers ---------------------------------------------------------------

def test_compare_examples():
    assert ALPHA.compare(QuadraticNumber(Fraction(1, 7))) == 1
    assert ALPHA.compare(ALPHA) == 0
    assert (2 * ALPHA).compare(QuadraticNumber(Fraction(1, 2))) == -1


def test_frac_part_examples():
    assert frac_part(QuadraticNumber(Fraction(3, 2))) == QuadraticNumber(Fraction(1, 2))
    assert frac_part(2 * ALPHA) == 2 * ALPHA
    assert frac_part(5 * ALPHA) == 5 * ALPHA - 1


def test_floor_near_integers():
    x = QuadraticNumber(3)
    assert x.floor() == 3
    assert (x - Fraction(1, 10**9)).floor() == 2
    assert QuadraticNumber(-2, 1, 5).floor() == 0
    assert (QuadraticNumber(0, 1, 2) * -1).floor() == -2  # -sqrt(2)


def test_mismatched_fields_rejected():
    with pytest.raises(MismatchedFieldError):
        QuadraticNumber(0, 1, 2) + QuadraticNumber(0, 1, 5)
    # rational embeddings mix with anything
    assert QuadraticNumber(1) + QuadraticNumber(0, 1, 5) == QuadraticNumber(1, 1, 5)


def test_non_squarefree_radicand_rejected():
    with pytest.raises(MismatchedFieldError):
        QuadraticNumber(0, 1, 8)


def trial_division_squarefree(d):
    """Reference squarefree test: no k*k divides d, for every k up to sqrt(d)."""
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def test_squarefree_matches_trial_division():
    assert [is_squarefree(d) for d in range(-3, 20000)] == \
        [trial_division_squarefree(d) for d in range(-3, 20000)]
    # squares of large primes, alone, times a small prime or times a larger
    # prime, and products of distinct large primes around the cube root
    p, q, r = 1009, 100003, 1000003
    for d in (p * p, q * q, r * r, 7 * q * q, 2 * 3 * r * r, p * p * q, p * q * q,
              p * q, q * r, 997 * p * 1013, 2 * p * q, p ** 3, 4 * q):
        assert is_squarefree(d) == trial_division_squarefree(d), d


def test_large_radicands_end_quickly():
    # a prime radicand near 10**18 needs about 10**9 divisions up to its square root
    assert is_squarefree(10**18 + 3)
    assert not is_squarefree(1000003**2 * (10**6 + 33))
    assert not is_squarefree(RADICAND_BOUND)
    with pytest.raises(BoundExceeded):
        is_squarefree(RADICAND_BOUND + 1)


def test_solve_hit_examples():
    assert solve_hit(ALPHA, ALPHA) == 1
    assert solve_hit(ALPHA, QuadraticNumber(Fraction(1, 7))) is None
    assert solve_hit(ALPHA, QuadraticNumber(0)) == 0


def test_solve_hit_requires_irrational_alpha():
    with pytest.raises(RationalAlphaError):
        solve_hit(QuadraticNumber(Fraction(1, 3)), ALPHA)


def test_solve_hit_soundness_and_brute_force_completeness():
    points = [ALPHA, 2 * ALPHA, QuadraticNumber(Fraction(1, 7)), QuadraticNumber(Fraction(6, 7)),
              QuadraticNumber(0), 7 * ALPHA - 1]
    for p in points:
        n = solve_hit(ALPHA, p)
        if n is not None:
            assert frac_part(n * ALPHA) == frac_part(p)
        else:
            hits = [m for m in range(-10**4, 10**4 + 1) if frac_part(m * ALPHA) == frac_part(p)]
            assert hits == []


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def quadratics(draw):
    return QuadraticNumber(draw(rationals), draw(rationals), 5)


@given(quadratics(), quadratics(), quadratics())
@settings(max_examples=150)
def test_compare_is_a_total_order(x, y, z):
    assert x.compare(y) == -y.compare(x)
    if x.compare(y) <= 0 and y.compare(z) <= 0:
        assert x.compare(z) <= 0


@given(quadratics(), quadratics())
@settings(max_examples=150)
def test_compare_consistent_with_high_precision_decimal(x, y):
    dx, dy = decimal_value(x), decimal_value(y)
    if abs(dx - dy) > Decimal(10) ** -90:
        assert x.compare(y) == (1 if dx > dy else -1)


@given(quadratics())
@settings(max_examples=150)
def test_frac_reconstructs_and_lands_in_unit_interval(x):
    f = frac_part(x)
    assert f + x.floor() == x
    assert f.sign() >= 0
    assert f.compare(QuadraticNumber(1)) < 0


# -- reduced integers against the Fraction-pair oracle ------------------------------

big_ints = st.one_of(st.integers(-50, 50), st.integers(-10**25, 10**25))
big_dens = st.one_of(st.integers(1, 20), st.integers(1, 10**22))
big_rationals = st.builds(Fraction, big_ints, big_dens)
radicands = st.sampled_from([2, 3, 5, 7, 13, 9999991])


@st.composite
def quadratic_pairs(draw, d=None):
    """(QuadraticNumber, oracle) for one value, sometimes rational, sometimes
    within 10^-20 of an integer or of a second drawn value's neighbourhood."""
    d = draw(radicands) if d is None else d
    v = draw(st.one_of(st.just(Fraction(0)), big_rationals))
    u = draw(big_rationals)
    if v and draw(st.booleans()):
        # u close to -v*sqrt(d) + m: the value sits next to the integer m
        scale = 10 ** draw(st.integers(18, 24))
        m = draw(st.integers(-3, 3))
        u = Fraction(-FractionQuadratic(0, v * scale, d).floor(), scale) + m
        u += Fraction(draw(st.integers(-2, 2)), 10 * scale)
    return QuadraticNumber(u, v, d), FractionQuadratic(u, v, d)


def same_value(x, o):
    assert (x.u, x.v, x.d) == (o.u, o.v, o.d)
    assert x.c > 0 and math.gcd(x.a, x.b, x.c) == 1 and (x.b != 0 or x.d == 0)
    assert str(x) == str(o)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reduced_integers_match_fraction_oracle(data):
    d = data.draw(radicands)
    (x, ox), (y, oy) = data.draw(quadratic_pairs(d)), data.draw(quadratic_pairs(d))
    k = data.draw(st.one_of(big_ints, big_rationals))
    same_value(x, ox)
    same_value(x + y, ox + oy)
    same_value(x - y, ox - oy)
    same_value(x * y, ox * oy)
    same_value(x + k, ox + k)
    same_value(k - x, k - ox)
    same_value(x * k, ox * k)
    same_value(-x, -ox)
    if ox.sign() != 0:
        same_value(x.inverse(), ox.inverse())
    assert x.sign() == ox.sign()
    assert x.compare(y) == ox.compare(oy) == -y.compare(x)
    assert x.compare(k) == ox.compare(k)
    assert (x == y) == (ox == oy)
    assert (x == k) == (ox == k)
    if x == y:
        assert hash(x) == hash(y)
    if x == k:
        assert hash(x) == hash(k)
    assert x.floor() == ox.floor()
    same_value(frac_part(x), ox.frac())
    if not ox.v == 0:
        assert solve_hit(x, y) == ox.solve_hit(oy)
        n = data.draw(st.integers(-10**6, 10**6))
        p = frac_part(n * x + data.draw(st.integers(-5, 5)))
        assert solve_hit(x, p) == n


@given(quadratic_pairs(d=2), quadratic_pairs(d=5))
@settings(max_examples=100, deadline=None)
def test_mixed_fields_rejected_like_the_oracle(xo, yo):
    (x, ox), (y, oy) = xo, yo
    mixed = x.d and y.d
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
               lambda p, q: p.compare(q), lambda p, q: p == q):
        for left, right in ((x, y), (ox, oy)):
            if mixed:
                with pytest.raises(MismatchedFieldError):
                    op(left, right)
            else:
                op(left, right)
    if x.d:
        if mixed:
            with pytest.raises(MismatchedFieldError):
                solve_hit(x, y)
        else:
            assert solve_hit(x, y) == ox.solve_hit(oy)


# -- quadratic expression grammar ----------------------------------------------------

def test_parse_quadratic_grammar():
    assert parse_quadratic("sqrt(5)-2") == ALPHA
    assert parse_quadratic("2*alpha", alpha=ALPHA) == 2 * ALPHA
    assert parse_quadratic("1/7") == QuadraticNumber(Fraction(1, 7))
    assert parse_quadratic("0") == QuadraticNumber(0)
    assert parse_quadratic("-1/2+sqrt(5)") == QuadraticNumber(Fraction(-1, 2), 1, 5)


def test_parse_quadratic_rejects_garbage():
    with pytest.raises(ScenarioError):
        parse_quadratic("sqrt(8)")
    with pytest.raises(ScenarioError):
        parse_quadratic("alpha")  # unbound
    with pytest.raises(ScenarioError):
        parse_quadratic("1+*2")


def test_parse_quadratic_tests_each_radicand_once(monkeypatch):
    calls = []
    test = algebra.is_squarefree

    def counting(d):
        calls.append(d)
        return test(d)

    monkeypatch.setattr(algebra, "is_squarefree", counting)
    for text, radicands in (("sqrt(5)-2", [5]), ("sqrt(2)+3*sqrt(2)-sqrt(2)", [2, 2, 2]),
                            ("1/7-2*alpha", []), ("sqrt(1000000000000000003)-1", [10**18 + 3])):
        calls.clear()
        x = parse_quadratic(text, alpha=ALPHA)
        assert calls == radicands, text
        assert parse_quadratic(str(x)) == x
    assert parse_quadratic("sqrt(7)") == QuadraticNumber(0, 1, 7)


def test_symbol_key_keeps_plain_alphabets_and_orders_mixed_ones():
    assert sorted([10, 2, -1, 0], key=symbol_key) == sorted([10, 2, -1, 0]) == [-1, 0, 2, 10]
    assert sorted(["b", "B", "ab", "a"], key=symbol_key) == sorted(["b", "B", "ab", "a"])
    assert sorted(["x", 1, "a", 0, -2], key=symbol_key) == [-2, 0, 1, "a", "x"]


@given(quadratics())
@settings(max_examples=100)
def test_quadratic_string_round_trips(x):
    assert parse_quadratic(str(x)) == x


# -- Z/3Z (+) B -------------------------------------------------------------------

def test_z3b_f_pinned_values():
    assert z3b_f(Z3B_IDENTITY) == 0
    assert z3b_f(z3b(1, {1, 2})) == 1
    assert z3b_f(z3b(1, {1, 3})) == -1
    assert z3b_f(z3b(2, {1})) == 1
    assert z3b_f(z3b(2, {1, 2, 3})) == 1
    assert z3b_f(z3b(2, set())) == -1
    assert z3b_f(z3b(1, set())) == -1
    assert z3b_f(z3b(0, {1, 2})) == -1


def marker_by_sets(r, support):
    """Reference: the marker read off the support as a set of coordinates."""
    if r == 0 and not support:
        return 0
    k = len(support)
    initial = k >= 1 and set(support) == set(range(1, k + 1))
    if initial and ((r == 1 and k % 2 == 0) or (r == 2 and k % 2 == 1)):
        return 1
    return -1


def test_mask_marker_matches_the_set_reference_on_every_support_up_to_8():
    for size in range(9):
        for support in itertools.combinations(range(1, 9), size):
            mask = sum(1 << i for i in support)
            for r in (0, 1, 2):
                want = marker_by_sets(r, support)
                assert z3b_marker(r, mask) == want == z3b_f(z3b(r, support)), (r, support)


z3b_elements = st.builds(
    z3b,
    st.integers(min_value=0, max_value=2),
    st.frozensets(st.integers(min_value=1, max_value=10), max_size=6),
)


@given(z3b_elements, z3b_elements, z3b_elements)
@settings(max_examples=200)
def test_z3b_group_laws(x, y, z):
    assert x.mul(y).mul(z) == x.mul(y.mul(z))
    assert x.mul(x.inv()) == Z3B_IDENTITY
    assert x.mul(Z3B_IDENTITY) == x


def test_z3b_b_part_is_self_inverse():
    x = z3b(0, {2, 5})
    assert x.mul(x) == Z3B_IDENTITY
