"""Finite-group symbolic dynamics.

A function f on a finite group G is a config: a tuple of symbols indexed
by element index.  Orbit systems of f under the right shift, the two left
shifts and the anti shift are finite dynamical systems; this module builds
them, decides equivariant isomorphism, decides whether a given system is a
Furstenberg system of a given function, constructs the canonical map onto
the right-shift orbit system, and implements the Dedekind dichotomy for
the seemingly-natural left-shift system.

Every verdict rests on the map forced by act(g, a) -> image(g) from a
transitive point a, built by ``_orbit_map``; ``_is_equivariant`` is the
one equivariance check and ``_readings`` the one map x -> (F(act(g, x)))_g.

Conventions: a system's ``act`` is a genuine action (act(g, act(h, x)) =
act(g*h, x)) when ``action_kind == "action"`` and an anti-action
(= act(h*g, x)) when ``"anti_action"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .algebra import FiniteGroup
from .errors import (
    AlphabetMismatchError,
    GroupIsDedekindError,
    GroupMismatchError,
    GroupNotDedekindError,
    ObservableMissingError,
    SeedMismatchError,
    VerificationFailedError,
)

MODES = ("R", "L", "Ltilde", "anti")


def _shift_getters(G: FiniteGroup, shift_mode: str) -> list:
    """One reader per group element: getters[g](x) is x shifted by g, a tuple.

    Shifting right by g reads x at column g of the Cayley table (u*g over
    u), left by g at row g^-1 and anti by g at row g.  The group memoizes
    one list per mode.
    """
    memo = G._cache.setdefault("shift_getters", {})
    getters = memo.get(shift_mode)
    if getters is None:
        table = G.table
        if shift_mode == "right":
            reads = list(zip(*table))
        elif shift_mode == "left":
            reads = [table[G.inv(g)] for g in G.elements()]
        elif shift_mode == "anti":
            reads = list(table)
        else:
            raise ValueError(f"unknown shift mode {shift_mode!r}")
        # itemgetter with one index returns a scalar, not a 1-tuple
        getters = memo[shift_mode] = (
            [itemgetter(*cols) for cols in reads] if G.order > 1 else [lambda x: (x[0],)])
    return getters


def shift(G: FiniteGroup, x, g: int, mode: str):
    """One shifted copy of the config x.

    right by g: result(u) = x(u*g); left by h: result(u) = x(h^-1 * u);
    anti by g: result(u) = x(g*u).
    """
    if len(x) != G.order:
        raise AlphabetMismatchError(
            f"config length {len(x)} does not match group order {G.order}")
    return _shift_getters(G, mode)[g](x)


def _act_rows(G: FiniteGroup, kind: str, of_elem: list) -> tuple:
    """(rows, law): the act table, as a tuple of rows, of the orbit whose
    shift by h is point of_elem[h], and its composition-law verdict.

    Point i is the seed shifted by rep[i], its first producer, so the table
    depends on the coset partition of_elem alone: R_g R_h = R_gh and
    L_g L_h = L_gh send point i to of_elem[g*rep[i]], and A_g A_h = A_hg
    to of_elem[rep[i]*g].  The group memoizes one entry per kind and
    partition, that is per stabilizer; the law is checked once, when the
    entry is made, and seeds the action-law memo under the table's content.
    """
    memo = G._cache.setdefault("act", {})
    key = (kind, tuple(of_elem))
    entry = memo.get(key)
    if entry is None:
        rep = []
        for h, i in enumerate(of_elem):
            if i == len(rep):
                rep.append(h)
        table = G.table
        if kind == "anti_action":
            rows = tuple(tuple(of_elem[table[r][g]] for r in rep) for g in G.elements())
        else:
            rows = tuple(tuple(of_elem[row[r]] for r in rep) for row in table)
        law = _action_law_witness(G, rows, len(rep), kind)
        G._cache.setdefault("action_law", {})[(kind, len(rep), rows)] = law
        entry = memo[key] = (rows, law)
    return entry


def _action_law_witness(G: FiniteGroup, act, npts: int, kind: str) -> tuple:
    """(ok, witness) of the composition law; the first failing (g, h, i) in loop order."""
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h) if kind == "action" else G.mul(h, g)
            act_g, act_h, act_gh = act[g], act[h], act[gh]
            for i in range(npts):
                if act_g[act_h[i]] != act_gh[i]:
                    return False, (g, h, i)
    return True, None


@dataclass
class FiniteSystem:
    """Finite phase space with a group (anti-)action, base point and observable."""

    group: FiniteGroup
    points: list            # list of configs (tuples), deduplicated
    act: list               # act[g][i] -> point index
    base: int
    observable: list | None  # observable[i] -> symbol, or None
    action_kind: str = "action"
    index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.index:
            self.index = {p: i for i, p in enumerate(self.points)}

    def __len__(self):
        return len(self.points)

    def is_transitive_point(self, i: int) -> bool:
        return len({row[i] for row in self.act}) == len(self.points)

    def satisfies_action_law(self, kind: str | None = None) -> tuple:
        """(ok, witness): exhaustive check of the composition law.

        The verdict depends only on the kind and the act table, so the group
        memoizes it keyed by the table's content: a hand-built or corrupted
        table still gets its own full check and first witness.
        """
        kind = kind or self.action_kind
        npts = len(self.points)
        memo = self.group._cache.setdefault("action_law", {})
        key = (kind, npts, tuple(map(tuple, self.act)))
        law = memo.get(key)
        if law is None:
            law = memo[key] = _action_law_witness(self.group, self.act, npts, kind)
        return law

    def dump(self) -> str:
        """Deterministic textual listing, used by golden tests."""
        lines = [f"group {self.group.name} order {self.group.order} kind {self.action_kind}",
                 f"points {len(self.points)}"]
        for i, p in enumerate(self.points):
            lines.append(f"  p{i} = {','.join(map(str, p))}")
        for g in self.group.elements():
            lines.append(f"act g={g}: {','.join(str(self.act[g][i]) for i in range(len(self.points)))}")
        lines.append(f"base p{self.base}")
        if self.observable is None:
            lines.append("observable none")
        else:
            lines.append(f"observable {','.join(map(str, self.observable))}")
        return "\n".join(lines)


def build_orbit_system(G: FiniteGroup, f, mode: str) -> FiniteSystem:
    """The orbit of the appropriate seed of f under the chosen shift family.

    mode R: seed f, right shifts, observable at the identity coordinate.
    mode L: seed fhat = (f(g^-1))_g, left shifts, observable at identity
            (so the observable along the base orbit reproduces f).
    mode Ltilde: seed f, left shifts, no observable.
    mode anti: seed f, anti shifts (an anti-action), observable at identity.
    """
    f = tuple(f)
    if len(f) != G.order:
        raise AlphabetMismatchError(
            f"config length {len(f)} does not match group order {G.order}")
    if mode == "R":
        seed, shift_mode, kind, with_obs = f, "right", "action", True
    elif mode == "L":
        seed = tuple(map(f.__getitem__, G.inverse))
        shift_mode, kind, with_obs = "left", "action", True
    elif mode == "Ltilde":
        seed, shift_mode, kind, with_obs = f, "left", "action", False
    elif mode == "anti":
        seed, shift_mode, kind, with_obs = f, "anti", "anti_action", True
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")

    # points in first-producer order; of_elem[h] is the point that shifting by h produces
    index = {}
    of_elem = [index.setdefault(read(seed), len(index)) for read in _shift_getters(G, shift_mode)]
    points = list(index)
    rows, (ok, witness) = _act_rows(G, kind, of_elem)
    if not ok:
        raise VerificationFailedError(f"composition law fails at {witness}")
    # fresh rows: no system shares its act table with another or with the memo
    act = list(map(list, rows))
    observable = [p[G.identity] for p in points] if with_obs else None
    system = FiniteSystem(group=G, points=points, act=act, base=of_elem[G.identity],
                          observable=observable, action_kind=kind, index=index)
    if not system.is_transitive_point(system.base):
        raise VerificationFailedError("base point is not transitive")
    return system


def _orbit_map(S: FiniteSystem, a: int, images) -> tuple:
    """(mapping, conflict): the map forced by act(g, a) -> images[g].

    mapping[i] is None off the orbit of a; conflict is the first g that
    sends one point two ways, or None when the map is well defined.
    """
    mapping = [None] * len(S.points)
    for g, image in enumerate(images):
        i = S.act[g][a]
        seen = mapping[i]
        if seen is None:
            mapping[i] = image
        elif seen != image:
            return mapping, g
    return mapping, None


def _is_equivariant(mapping, S1: FiniteSystem, S2: FiniteSystem) -> bool:
    """mapping(act1(g, i)) == act2(g, mapping(i)) for every g and point i."""
    return ([mapping[j] for row in S1.act for j in row]
            == [row[m] for row in S2.act for m in mapping])


def _readings(S: FiniteSystem, F) -> list:
    """Each point's reading (F(act(g, x)))_g as a tuple, in point order."""
    return list(zip(*[list(map(F.__getitem__, row)) for row in S.act]))


def equivariant_isomorphism(S1: FiniteSystem, S2: FiniteSystem):
    """A bijection commuting with the two actions, or None.

    Since the base of S1 is transitive, a candidate is the orbit map forced
    by the image y0 of the base; every y0 is tried in increasing order and
    the first forced map that is an equivariant bijection is returned as a
    list mapping S1 indices to S2 indices.
    """
    if S1.group != S2.group:
        raise GroupMismatchError("systems live over different groups")
    if S1.action_kind != S2.action_kind:
        raise GroupMismatchError(
            f"systems have different action kinds ({S1.action_kind} vs {S2.action_kind})")
    n = len(S2.points)
    if len(S1.points) != n:
        return None
    for y0 in range(n):
        mapping, conflict = _orbit_map(S1, S1.base, map(itemgetter(y0), S2.act))
        if (conflict is None and None not in mapping and len(set(mapping)) == n
                and _is_equivariant(mapping, S1, S2)):
            return mapping
    return None


@dataclass
class FurstenbergResult:
    accepted: bool
    base: int | None = None
    observable: list | None = None
    reasons: list = field(default_factory=list)

    def __bool__(self):
        return self.accepted


def is_furstenberg_system_of(S: FiniteSystem, f) -> FurstenbergResult:
    """Decide whether S is a Furstenberg system of the function f.

    Needs a transitive point a and an observable F with F(act(g, a)) = f(g)
    whose orbit separates points.  F is forced by the first condition, so
    the procedure enumerates transitive base candidates, checks that the
    forced assignment is well defined, and then checks that the readings of
    F separate points.  The action must satisfy the genuine (not anti)
    composition law; systems built as anti-actions are re-checked rather
    than assumed.
    """
    f = tuple(f)
    if len(f) != S.group.order:
        raise GroupMismatchError(
            f"function length {len(f)} does not match group order {S.group.order}")
    ok, witness = S.satisfies_action_law("action")
    if not ok:
        return FurstenbergResult(False, reasons=[
            f"shift family is not an action: law fails at (g,h,point)={witness}"])
    npts = len(S.points)
    reasons = []
    for a in range(npts):
        if not S.is_transitive_point(a):
            continue
        F, bad = _orbit_map(S, a, f)
        if bad is not None:
            reasons.append(f"candidate {a}: observable forced by the base orbit "
                           f"is not well defined (conflict at g={bad})")
            continue
        sigs = _readings(S, F)
        if len(set(sigs)) == npts:
            return FurstenbergResult(True, base=a, observable=F, reasons=reasons)
        # the first point whose reading an earlier point already has
        first = {}
        pair = next((first[s], i) for i, s in enumerate(sigs) if first.setdefault(s, i) != i)
        reasons.append(f"candidate {a}: observable orbit does not separate points {pair}")
    if not reasons:
        reasons.append("system has no transitive point")
    return FurstenbergResult(False, reasons=reasons)


@dataclass
class PhiRResult:
    mapping: list          # S point index -> target point index
    target: FiniteSystem
    injective: bool
    surjective: bool

    @property
    def verdict(self) -> str:
        return "isomorphism" if self.injective else "factor"


def construct_phi_R(S: FiniteSystem, f) -> PhiRResult:
    """The canonical map x -> (F(act(g, x)))_g into the right orbit system of f.

    Requires an installed observable agreeing with f along the base orbit.
    The map is verified to be equivariant and surjective (failure raises,
    since it would indicate a broken input system rather than a verdict);
    injectivity distinguishes the isomorphism case from the factor case.
    """
    if S.observable is None:
        raise ObservableMissingError()
    f = tuple(f)
    if len(f) != S.group.order:
        raise GroupMismatchError(
            f"function length {len(f)} does not match group order {S.group.order}")
    readings = _readings(S, S.observable)
    for g, got in enumerate(readings[S.base]):
        if got != f[g]:
            raise SeedMismatchError(g, got, f[g])
    target = build_orbit_system(S.group, f, "R")
    mapping = []
    for i, image in enumerate(readings):
        j = target.index.get(image)
        if j is None:
            raise VerificationFailedError(
                f"image of point {i} leaves the orbit system of f; "
                "the input is not a generalised Furstenberg system of f")
        mapping.append(j)
    if not _is_equivariant(mapping, S, target):
        raise VerificationFailedError("canonical map is not equivariant")
    if set(mapping) != set(range(len(target.points))):
        raise VerificationFailedError("canonical map is not surjective")
    injective = len(set(mapping)) == len(mapping)
    return PhiRResult(mapping=mapping, target=target, injective=injective, surjective=True)


# -- Dedekind dichotomy -------------------------------------------------------

def dedekind_witness_function(G: FiniteGroup):
    """Label the right cosets of <b> with distinct symbols 1..l.

    b comes from the Dedekind witness (H, a, b); for a non-Dedekind group
    the resulting function makes the naive left-shift orbit system fail to
    be a Furstenberg system.
    """
    res = G.is_dedekind()
    if res.dedekind:
        raise GroupIsDedekindError()
    _, _, b = res.witness
    cyclic = [G.identity]
    x = b
    while x != G.identity:
        cyclic.append(x)
        x = G.mul(x, b)
    f = [None] * G.order
    label = 0
    for g in G.elements():
        if f[g] is None:
            label += 1
            for c in cyclic:
                f[G.mul(c, g)] = label
    return tuple(f)


@dataclass
class PhiDedekindResult:
    mapping: list
    source: FiniteSystem
    target: FiniteSystem


def phi_dedekind(G: FiniteGroup, f) -> PhiDedekindResult:
    """The verified isomorphism from the right orbit system onto the naive left one.

    Pairs the orbit representatives (f(gh))_g -> (f(h^-1 g))_g over all h and
    verifies that the pairing is a well-defined equivariant bijection.  For a
    Dedekind group this always succeeds; a verification failure would be a bug.
    """
    res = G.is_dedekind()
    if not res.dedekind:
        raise GroupNotDedekindError(res.witness[0])
    f = tuple(f)
    source = build_orbit_system(G, f, "R")
    target = build_orbit_system(G, f, "Ltilde")
    # the pairing is the orbit map forced by base -> base: act[h][base] is
    # the point that shifting f by h produces (R_g R_h = R_gh, L_g L_h = L_gh)
    mapping, conflict = _orbit_map(source, source.base, map(itemgetter(target.base), target.act))
    if conflict is not None:
        raise VerificationFailedError("coset pairing is not well defined")
    if None in mapping or len(set(mapping)) != len(target.points):
        raise VerificationFailedError("coset pairing is not a bijection")
    if not _is_equivariant(mapping, source, target):
        raise VerificationFailedError("coset pairing is not equivariant")
    return PhiDedekindResult(mapping=mapping, source=source, target=target)


# -- partition enumeration (functions up to relabeling) -------------------------

def set_partitions(n: int):
    """All partitions of {0..n-1} as canonical label tuples (restricted growth)."""
    labels = [0] * n

    def rec(i, maxi):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(maxi + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxi, lab))

    if n == 0:
        yield ()
        return
    yield from rec(1, 0)
