"""Exact algebraic substrate.

Three independent pieces live here:

* ``FiniteGroup`` -- groups given by Cayley tables, with validation,
  subgroup enumeration, normality and the Dedekind test.  A small catalog
  of groups of order <= 8 is shipped for the test fixtures.
* ``QuadraticNumber`` -- exact elements (a + b*sqrt(d))/c of a real
  quadratic field, stored as reduced integers (Cohen, *A Course in
  Computational Algebraic Number Theory*, GTM 138, ch. 5).  Sign,
  comparison, floor and fractional part use only integer arithmetic; the
  floor takes one integer square root, isqrt(b^2 d), since b*sqrt(d) is
  irrational whenever b != 0 (Cohen, ch. 1).  ``solve_hit`` decides
  whether a circle point is ever visited by the orbit of an irrational
  rotation.
* ``Z3BElement`` -- the group Z/3Z (+) B where B is the countable Boolean
  group, together with the three-valued marker ``z3b_marker``, written once on
  the integer form (r, support bitmask), and ``z3b_f`` at an element.

``symbol_key`` is the one order on alphabet symbols, used by every layer.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import total_ordering
from itertools import product

from .errors import (
    BoundExceeded,
    MismatchedFieldError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    OrderBoundExceededError,
    RationalAlphaError,
    VerificationFailedError,
)

SUBGROUP_ORDER_BOUND = 16
RADICAND_BOUND = 10**21


def symbol_key(symbol):
    """The one order on symbols: ints by value, then strings, so {0, "a"} sorts."""
    return isinstance(symbol, str), symbol


# ---------------------------------------------------------------------------
# Quadratic numbers
# ---------------------------------------------------------------------------

def is_squarefree(d: int) -> bool:
    """No square of a prime divides d, decided by trial division up to its cube root.

    Dividing out each k = 2, 3, 5, 7, ... while k**3 is at most the
    cofactor left (a second division by k is a square factor) leaves a
    cofactor whose prime factors all exceed its cube root, so at most two:
    it is squarefree exactly when it is 1 or not a perfect square.  That is
    at most about d**(1/3) / 2 divisions; RADICAND_BOUND = 10**21 caps them
    at 5 * 10**6, about 0.6 s in CPython 3.11 on a 2-vCPU Xeon, and a
    larger d raises ``BoundExceeded``.
    """
    if d < 1:
        return False
    if d > RADICAND_BOUND:
        raise BoundExceeded(f"radicand {d} exceeds the squarefree-test bound {RADICAND_BOUND}")
    k = 2
    while k * k * k <= d:
        if d % k == 0:
            d //= k
            if d % k == 0:
                return False
        k += 1 if k == 2 else 2
    r = math.isqrt(d)
    return d == 1 or r * r != d


@total_ordering
class QuadraticNumber:
    """(a + b*sqrt(d))/c in reduced integers: c > 0, gcd(a, b, c) = 1.

    d is squarefree and >= 2 when b != 0, and 0 when b == 0, so rational
    values carry no field and mix freely with any field; two genuinely
    irrational values over different d refuse to combine
    (``MismatchedFieldError``) rather than being lifted to a compositum.
    The reduced form is canonical: equal values have equal integers.
    ``u`` and ``v`` read the value back as u + v*sqrt(d) with ``Fraction``s.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, u, v=0, d=0):
        u = Fraction(u)
        v = Fraction(v)
        if v == 0:
            a, b, c, d = u.numerator, 0, u.denominator, 0
        else:
            if d < 2 or not is_squarefree(d):
                raise MismatchedFieldError(d, d)
            c = math.lcm(u.denominator, v.denominator)
            # both fractions are reduced, so the rescaled triple is too
            a = u.numerator * (c // u.denominator)
            b = v.numerator * (c // v.denominator)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticNumber is immutable")

    # copy and pickle would restore the slots through __setattr__
    def __reduce__(self):
        return _raw, (self.a, self.b, self.c, self.d)

    @property
    def u(self) -> Fraction:
        return Fraction(self.a, self.c)

    @property
    def v(self) -> Fraction:
        return Fraction(self.b, self.c)

    # -- field bookkeeping --

    @staticmethod
    def _join(x: "QuadraticNumber", y: "QuadraticNumber") -> int:
        d, e = x.d, y.d
        if d == e or not e:
            return d
        if not d:
            return e
        raise MismatchedFieldError(d, e)

    @classmethod
    def _coerce(cls, value) -> "QuadraticNumber":
        if isinstance(value, QuadraticNumber):
            return value
        if isinstance(value, int):
            return _raw(value, 0, 1, 0)
        return cls(value)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic --

    def __add__(self, other):
        if isinstance(other, int):
            # gcd(a + n*c, b, c) = gcd(a, b, c) = 1: already reduced
            return _raw(self.a + other * self.c, self.b, self.c, self.d)
        other = self._coerce(other)
        d = self._join(self, other)
        c1, c2 = self.c, other.c
        if c1 == c2:
            return _reduced(self.a + other.a, self.b + other.b, c1, d)
        return _reduced(self.a * c2 + other.a * c1, self.b * c2 + other.b * c1, c1 * c2, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        if isinstance(other, int):
            return _raw(self.a - other * self.c, self.b, self.c, self.d)
        other = self._coerce(other)
        d = self._join(self, other)
        c1, c2 = self.c, other.c
        if c1 == c2:
            return _reduced(self.a - other.a, self.b - other.b, c1, d)
        return _reduced(self.a * c2 - other.a * c1, self.b * c2 - other.b * c1, c1 * c2, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._join(self, other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 s)(a2 + b2 s) = a1 a2 + b1 b2 d + (a1 b2 + a2 b1) s
        return _reduced(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, self.c * other.c, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticNumber":
        a, b, c, d = self.a, self.b, self.c, self.d
        # c/(a + b s) = c(a - b s)/(a^2 - b^2 d); the norm vanishes only at 0,
        # since a^2 = b^2 d with b != 0 would make sqrt(d) rational
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("QuadraticNumber(0) has no inverse")
        if norm < 0:
            return _reduced(-c * a, c * b, -norm, d)
        return _reduced(c * a, -c * b, norm, d)

    # -- exact order --

    def sign(self) -> int:
        """Exact sign of the real embedding, via integer arithmetic only."""
        return quadratic_sign(self.a, self.b, self.d)

    def compare(self, other) -> int:
        if not isinstance(other, QuadraticNumber):
            other = self._coerce(other)
        d = self._join(self, other)
        c1, c2 = self.c, other.c
        # c1*c2 > 0, so x - y has the sign of its numerator over c1*c2
        return quadratic_sign(self.a * c2 - other.a * c1, self.b * c2 - other.b * c1, d)

    def __eq__(self, other):
        if not isinstance(other, QuadraticNumber):
            if isinstance(other, int):
                return self.b == 0 and self.c == 1 and self.a == other
            if not isinstance(other, Fraction):
                return NotImplemented
            other = self._coerce(other)
        elif self.d != other.d:
            self._join(self, other)
        # the reduced form is canonical
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __lt__(self, other):
        return self.compare(other) < 0

    def __hash__(self):
        if self.b == 0:
            # rational values hash as the equal int or Fraction does
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    # -- floor and fractional part --

    def floor(self) -> int:
        return quadratic_floor(self.a, self.b, self.c, self.d)

    def frac(self) -> "QuadraticNumber":
        return self - self.floor()

    # -- display (matches the scenario-file grammar) --

    def __str__(self):
        u, v = self.u, self.v
        if v == 0:
            return _fmt_fraction(u)
        root = f"sqrt({self.d})"
        if v == 1:
            s = root
        elif v == -1:
            s = f"-{root}"
        else:
            s = f"{_fmt_fraction(v)}*{root}"
        if u == 0:
            return s
        if u > 0:
            return f"{s}+{_fmt_fraction(u)}"
        return f"{s}-{_fmt_fraction(-u)}"

    def __repr__(self):
        return f"QuadraticNumber({self})"


_set = object.__setattr__
_new = object.__new__


def _raw(a: int, b: int, c: int, d: int) -> QuadraticNumber:
    """A QuadraticNumber from integers already in reduced form."""
    x = _new(QuadraticNumber)
    _set(x, "a", a)
    _set(x, "b", b)
    _set(x, "c", c)
    _set(x, "d", d)
    return x


def _reduced(a: int, b: int, c: int, d: int) -> QuadraticNumber:
    """(a + b*sqrt(d))/c for c > 0, divided through by gcd(a, b, c)."""
    if b == 0:
        d = 0
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return _raw(a, b, c, d)


def quadratic_floor(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0, with sqrt(d) irrational whenever b != 0."""
    if b == 0:
        return a // c
    # b*sqrt(d) is irrational, so its floor is isqrt(b^2 d), or one less
    # than minus it when b < 0; then floor((a + t)/c) = (a + floor(t)) // c
    r = math.isqrt(b * b * d)
    return (a + (r if b > 0 else -r - 1)) // c


def quadratic_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), with sqrt(d) irrational whenever b != 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: compare a^2 against b^2 d (never equal)
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _fmt_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_part(x: QuadraticNumber) -> QuadraticNumber:
    """x - floor(x), always in [0, 1)."""
    return x.frac()


def solve_hit(alpha: QuadraticNumber, p: QuadraticNumber):
    """The unique n with n*alpha - p integral, or None.

    Writing alpha = (a1 + b1*sqrt(d))/c1 (b1 != 0) and p = (a2 + b2*sqrt(d))/c2,
    a solution must match the irrational parts, so n = (b2*c1)/(c2*b1); it
    is accepted when that is an integer and n*a1/c1 - a2/c2 is integral.
    Uniqueness holds because alpha is irrational.
    """
    if alpha.is_rational:
        raise RationalAlphaError()
    QuadraticNumber._join(alpha, p)
    c1, c2 = alpha.c, p.c
    n, r = divmod(p.b * c1, c2 * alpha.b)
    if r:
        return None
    if (n * alpha.a * c2 - p.a * c1) % (c1 * c2):
        return None
    return n


# -- tiny expression parser for the scenario grammar -------------------------

_TOKEN_RE = __import__("re").compile(
    r"\s*(?:(?P<rat>\d+/\d+|\d+)|(?P<sqrt>sqrt\(\d+\))|(?P<alpha>alpha)|(?P<op>[+*-]))"
)


def parse_quadratic(text: str, alpha: QuadraticNumber | None = None) -> QuadraticNumber:
    """Parse strings like ``sqrt(5)-2``, ``2*alpha``, ``1/7``.

    The grammar is sums/differences of terms; a term is a rational, an
    atom (``sqrt(d)`` or ``alpha``), or ``rational*atom``.  ``alpha`` only
    resolves when a binding is supplied.
    """
    from .errors import ScenarioError

    tokens = []
    pos = 0
    s = text.strip()
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise ScenarioError(f"cannot tokenize quadratic expression {text!r} at {s[pos:]!r}")
        if m.lastgroup == "rat":
            try:
                tokens.append(("rat", Fraction(m.group("rat"))))
            except ZeroDivisionError:
                raise ScenarioError(f"zero denominator in quadratic expression {text!r}") from None
        elif m.lastgroup == "sqrt":
            d = int(m.group("sqrt")[5:-1])
            if d < 2 or not is_squarefree(d):
                raise ScenarioError(f"sqrt({d}) is not a squarefree radicand >= 2")
            tokens.append(("atom", _raw(0, 1, 1, d)))  # d is tested, so reduced already
        elif m.lastgroup == "alpha":
            if alpha is None:
                raise ScenarioError("'alpha' used but no alpha is bound in this context")
            tokens.append(("atom", alpha))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    if not tokens:
        raise ScenarioError(f"empty quadratic expression {text!r}")

    def term(i):
        sign = 1
        while i < len(tokens) and tokens[i] == ("op", "-"):
            sign, i = -sign, i + 1
        if i >= len(tokens) or tokens[i][0] == "op":
            raise ScenarioError(f"dangling operator in {text!r}")
        kind, value = tokens[i]
        i += 1
        if kind == "rat" and i + 1 < len(tokens) and tokens[i] == ("op", "*"):
            nk, nv = tokens[i + 1]
            if nk != "atom":
                raise ScenarioError(f"'*' must be followed by sqrt(d) or alpha in {text!r}")
            return sign * value * nv, i + 2
        value = QuadraticNumber(value) if kind == "rat" else value
        return sign * value, i

    acc, i = term(0)
    while i < len(tokens):
        kind, op = tokens[i]
        if kind != "op" or op == "*":
            raise ScenarioError(f"expected + or - in {text!r}")
        nxt, i = term(i + 1)
        acc = acc + nxt if op == "+" else acc - nxt
    return acc


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteGroup:
    """A group as a Cayley table on element indices 0..order-1."""

    order: int
    table: tuple
    identity: int
    inverse: tuple
    name: str = "group"
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self):
        return range(self.order)

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    # cached derived data; tests recompute both independently

    def subgroups(self):
        if "subgroups" not in self._cache:
            self._cache["subgroups"] = subgroups(self)
        return self._cache["subgroups"]

    def is_dedekind(self):
        if "dedekind" not in self._cache:
            self._cache["dedekind"] = is_dedekind(self)
        return self._cache["dedekind"]


def group_validate(table, name: str = "group") -> FiniteGroup:
    """Check the group axioms on a raw index matrix.

    Failures name the first offending witness in row-major order, in the
    fixed check order: closure, associativity, identity, inverses.
    """
    rows = [list(r) for r in table]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NotClosedError(0, 0, None if n == 0 else len(rows[0]))
    for g in range(n):
        for h in range(n):
            e = rows[g][h]
            if not isinstance(e, int) or isinstance(e, bool) or not (0 <= e < n):
                raise NotClosedError(g, h, e)
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if rows[rows[g][h]][k] != rows[g][rows[h][k]]:
                    raise NotAssociativeError(g, h, k)
    identity = None
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentityError()
    inverse = [None] * n
    for g in range(n):
        for h in range(n):
            if rows[g][h] == identity and rows[h][g] == identity:
                inverse[g] = h
                break
        if inverse[g] is None:
            raise NoInverseError(g)
    return FiniteGroup(
        order=n,
        table=tuple(tuple(r) for r in rows),
        identity=identity,
        inverse=tuple(inverse),
        name=name,
    )


def _closure(G: FiniteGroup, seed: frozenset) -> frozenset:
    out = set(seed) | {G.identity}
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        for b in list(out):
            for c in (G.mul(a, b), G.mul(b, a)):
                if c not in out:
                    out.add(c)
                    frontier.append(c)
    return frozenset(out)


def subgroups(G: FiniteGroup):
    """All subgroups as sorted index tuples, ordered by size then lexicographically."""
    if G.order > SUBGROUP_ORDER_BOUND:
        raise OrderBoundExceededError(G.order, SUBGROUP_ORDER_BOUND)
    generated = {}

    def gen(seed: frozenset) -> frozenset:
        if seed not in generated:
            generated[seed] = _closure(G, seed)
        return generated[seed]

    found = {gen(frozenset())}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for g in G.elements():
            if g not in H:
                H2 = gen(H | {g})
                if H2 not in found:
                    found.add(H2)
                    frontier.append(H2)
    return sorted((tuple(sorted(H)) for H in found), key=lambda t: (len(t), t))


def is_normal(G: FiniteGroup, H) -> bool:
    Hset = set(H)
    return all({G.mul(g, h) for h in Hset} == {G.mul(h, g) for h in Hset} for g in G.elements())


@dataclass(frozen=True)
class DedekindResult:
    dedekind: bool
    witness: tuple | None = None  # (H, a, b) with b in H and b*a not in a*H

    def __bool__(self):
        return self.dedekind


def is_dedekind(G: FiniteGroup) -> DedekindResult:
    """Dedekind test: every subgroup normal, else the first bad (H, a, b)."""
    for H in subgroups(G):
        if is_normal(G, H):
            continue
        for a in G.elements():
            aH = {G.mul(a, h) for h in H}
            if {G.mul(h, a) for h in H} == aH:
                continue
            for b in H:
                if G.mul(b, a) not in aH:
                    return DedekindResult(False, (H, a, b))
        raise VerificationFailedError("non-normal subgroup without a coset witness")
    return DedekindResult(True)


# -- catalog -----------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_validate(table, name=f"z{n}")


def direct_product(A: FiniteGroup, B: FiniteGroup, name=None) -> FiniteGroup:
    n, m = A.order, B.order
    idx = lambda a, b: a * m + b
    table = [[0] * (n * m) for _ in range(n * m)]
    for a1, b1 in product(range(n), range(m)):
        for a2, b2 in product(range(n), range(m)):
            table[idx(a1, b1)][idx(a2, b2)] = idx(A.mul(a1, a2), B.mul(b1, b2))
    return group_validate(table, name=name or f"{A.name}x{B.name}")


def _perm_group(perms, name) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[i]] for i in range(len(q)))
    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return group_validate(table, name=name)


def symmetric_group_3() -> FiniteGroup:
    perms = sorted(set(__import__("itertools").permutations(range(3))))
    return _perm_group(perms, "s3")


def dihedral_group_4() -> FiniteGroup:
    # symmetries of the square on vertices 0..3: rotations r^a, reflections s r^a
    r = tuple((i + 1) % 4 for i in range(4))
    s = tuple((-i) % 4 for i in range(4))
    compose = lambda p, q: tuple(p[q[i]] for i in range(4))
    e = (0, 1, 2, 3)
    rots = [e]
    for _ in range(3):
        rots.append(compose(r, rots[-1]))
    perms = rots + [compose(s, a) for a in rots]
    return _perm_group(perms, "d4")


def quaternion_group() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k as (sign, axis) pairs
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    axes = {"1": 0, "i": 1, "j": 2, "k": 3}
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }

    def parse(nm):
        sign = -1 if nm.startswith("-") else 1
        return sign, axes[nm.lstrip("-")]

    def render(sign, axis):
        base = ["1", "i", "j", "k"][axis]
        if sign == 1:
            return base
        return "-1" if base == "1" else f"-{base}"

    table = []
    for a in names:
        row = []
        for b in names:
            (s1, x1), (s2, x2) = parse(a), parse(b)
            s3, x3 = mul_axis[(x1, x2)]
            row.append(names.index(render(s1 * s2 * s3, x3)))
        table.append(row)
    return group_validate(table, name="q8")


def catalog() -> dict:
    """The built-in fixture groups: Z/n for n <= 8, three 2-groups, S3, D4, Q8."""
    groups = {f"z{n}": cyclic_group(n) for n in range(1, 9)}
    z2, z4 = groups["z2"], groups["z4"]
    groups["z2xz2"] = direct_product(z2, z2, "z2xz2")
    groups["z2xz4"] = direct_product(z2, z4, "z2xz4")
    groups["z2xz2xz2"] = direct_product(z2, groups["z2xz2"], "z2xz2xz2")
    groups["s3"] = symmetric_group_3()
    groups["d4"] = dihedral_group_4()
    groups["q8"] = quaternion_group()
    return groups


# ---------------------------------------------------------------------------
# Z/3Z (+) B
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Z3BElement:
    """(r, support): r in Z/3Z, support the finitely many lit coordinates of B."""

    r: int
    support: frozenset

    def __post_init__(self):
        if self.r not in (0, 1, 2):
            raise ValueError(f"r must be in {{0,1,2}}, got {self.r}")
        if not all(isinstance(i, int) and i >= 1 for i in self.support):
            raise ValueError("support indices must be positive integers")
        object.__setattr__(self, "support", frozenset(self.support))

    def mul(self, other: "Z3BElement") -> "Z3BElement":
        return Z3BElement((self.r + other.r) % 3, self.support ^ other.support)

    def inv(self) -> "Z3BElement":
        return Z3BElement((-self.r) % 3, self.support)

    def sort_key(self):
        return (len(self.support), tuple(sorted(self.support)), self.r)

    def __str__(self):
        return f"({self.r},{{{','.join(map(str, sorted(self.support)))}}})"


Z3B_IDENTITY = Z3BElement(0, frozenset())


def z3b(r: int, support=()) -> Z3BElement:
    return Z3BElement(r, frozenset(support))


def z3b_marker(r: int, mask: int) -> int:
    """Three-valued marker on (r, mask), mask the bitmask of the support:
    0 at e, 1 on matched initial segments.

    Value 1 when r = 1 with support {1..2j} (j >= 1) or r = 2 with support
    {1..2j+1} (j >= 0); value -1 everywhere else off the identity.
    """
    if not r and not mask:
        return 0
    # k is the largest coordinate; the support is {1..k} iff mask == (1 << (k + 1)) - 2
    k = mask.bit_length() - 1
    if mask == (1 << (k + 1)) - 2 and k and k % 2 == r - 1:
        return 1
    return -1


def z3b_f(g: Z3BElement) -> int:
    """The marker ``z3b_marker`` at an element."""
    return z3b_marker(g.r, sum(1 << i for i in g.support))
