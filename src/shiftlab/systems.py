"""Finite-group symbolic dynamics.

A function f on a finite group G is a config: a tuple of symbols indexed
by element index.  Orbit systems of f under the right shift, the two left
shifts and the anti shift are finite dynamical systems; this module builds
them, decides equivariant isomorphism, decides whether a given system is a
Furstenberg system of a given function, constructs the canonical map onto
the right-shift orbit system, and implements the Dedekind dichotomy for
the seemingly-natural left-shift system.

Conventions: a system's ``act`` is a genuine action (act(g, act(h, x)) =
act(g*h, x)) when ``action_kind == "action"`` and an anti-action
(= act(h*g, x)) when ``"anti_action"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def shift(G: FiniteGroup, x, g: int, mode: str):
    """One shifted copy of the config x.

    right by g: result(u) = x(u*g); left by h: result(u) = x(h^-1 * u);
    anti by g: result(u) = x(g*u).
    """
    if len(x) != G.order:
        raise AlphabetMismatchError(
            f"config length {len(x)} does not match group order {G.order}")
    # row h of the Cayley table lists h*u over u, column g lists u*g
    if mode == "right":
        return tuple(x[row[g]] for row in G.table)
    if mode == "left":
        return tuple(map(x.__getitem__, G.table[G.inv(g)]))
    if mode == "anti":
        return tuple(map(x.__getitem__, G.table[g]))
    raise ValueError(f"unknown shift mode {mode!r}")


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

    def apply(self, g: int, i: int) -> int:
        return self.act[g][i]

    def orbit_of(self, i: int):
        return {self.act[g][i] for g in self.group.elements()}

    def is_transitive_point(self, i: int) -> bool:
        return len(self.orbit_of(i)) == len(self.points)

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
        if key not in memo:
            memo[key] = _action_law_witness(self.group, self.act, npts, kind)
        return memo[key]

    def validate(self):
        ok, witness = self.satisfies_action_law()
        if not ok:
            raise VerificationFailedError(f"composition law fails at {witness}")
        if not self.is_transitive_point(self.base):
            raise VerificationFailedError("base point is not transitive")

    def signature(self, i: int, observable=None):
        obs = self.observable if observable is None else observable
        return tuple(obs[self.act[g][i]] for g in self.group.elements())

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
        seed = tuple(f[G.inv(g)] for g in G.elements())
        shift_mode, kind, with_obs = "left", "action", True
    elif mode == "Ltilde":
        seed, shift_mode, kind, with_obs = f, "left", "action", False
    elif mode == "anti":
        seed, shift_mode, kind, with_obs = f, "anti", "anti_action", True
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")

    # point i is the seed shifted by rep[i], its first producer; of_elem[h] is
    # the point that shifting by h produces
    points, index, rep, of_elem = [], {}, [], []
    for h in G.elements():
        p = shift(G, seed, h, shift_mode)
        i = index.get(p)
        if i is None:
            i = index[p] = len(points)
            points.append(p)
            rep.append(h)
        of_elem.append(i)
    # R_g R_h = R_gh and L_g L_h = L_gh, but A_g A_h = A_hg: no re-shifting needed
    table = G.table
    if kind == "anti_action":
        act = [[of_elem[table[r][g]] for r in rep] for g in G.elements()]
    else:
        act = [[of_elem[table[g][r]] for r in rep] for g in G.elements()]
    observable = [p[G.identity] for p in points] if with_obs else None
    system = FiniteSystem(group=G, points=points, act=act, base=of_elem[G.identity],
                          observable=observable, action_kind=kind, index=index)
    system.validate()
    return system


def _require_compatible(S1: FiniteSystem, S2: FiniteSystem):
    if S1.group != S2.group:
        raise GroupMismatchError("systems live over different groups")
    if S1.action_kind != S2.action_kind:
        raise GroupMismatchError(
            f"systems have different action kinds ({S1.action_kind} vs {S2.action_kind})")


def equivariant_isomorphism(S1: FiniteSystem, S2: FiniteSystem):
    """A bijection commuting with the two actions, or None.

    Since the base of S1 is transitive, a candidate is determined by the
    image of the base; every image index is tried in increasing order and
    the first consistent bijection (independently re-checked for full
    equivariance) is returned as a list mapping S1 indices to S2 indices.
    """
    _require_compatible(S1, S2)
    n1, n2 = len(S1.points), len(S2.points)
    if n1 != n2:
        return None
    G = S1.group
    for y0 in range(n2):
        mapping = [None] * n1
        ok = True
        for g in G.elements():
            i, j = S1.act[g][S1.base], S2.act[g][y0]
            if mapping[i] is None:
                mapping[i] = j
            elif mapping[i] != j:
                ok = False
                break
        if not ok or None in mapping or len(set(mapping)) != n1:
            continue
        if all(mapping[S1.act[g][i]] == S2.act[g][mapping[i]]
               for g in G.elements() for i in range(n1)):
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
    forced assignment is well defined, and then checks separation via orbit
    signatures.  The action must satisfy the genuine (not anti) composition
    law; systems built as anti-actions are re-checked rather than assumed.
    """
    f = tuple(f)
    if len(f) != S.group.order:
        raise GroupMismatchError(
            f"function length {len(f)} does not match group order {S.group.order}")
    ok, witness = S.satisfies_action_law("action")
    if not ok:
        return FurstenbergResult(False, reasons=[
            f"shift family is not an action: law fails at (g,h,point)={witness}"])
    G = S.group
    npts = len(S.points)
    reasons = []
    for a in range(npts):
        if not S.is_transitive_point(a):
            continue
        F = [None] * npts
        bad = None
        for g in G.elements():
            j = S.act[g][a]
            if F[j] is None:
                F[j] = f[g]
            elif F[j] != f[g]:
                bad = g
                break
        if bad is not None:
            reasons.append(f"candidate {a}: observable forced by the base orbit "
                           f"is not well defined (conflict at g={bad})")
            continue
        sigs = [S.signature(i, F) for i in range(npts)]
        if len(set(sigs)) == npts:
            return FurstenbergResult(True, base=a, observable=F, reasons=reasons)
        seen = {}
        pair = None
        for i, s in enumerate(sigs):
            if s in seen:
                pair = (seen[s], i)
                break
            seen[s] = i
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
    G = S.group
    for g in G.elements():
        got = S.observable[S.act[g][S.base]]
        if got != f[g]:
            raise SeedMismatchError(g, got, f[g])
    target = build_orbit_system(G, f, "R")
    mapping = []
    for i in range(len(S.points)):
        image = tuple(S.observable[S.act[g][i]] for g in G.elements())
        j = target.index.get(image)
        if j is None:
            raise VerificationFailedError(
                f"image of point {i} leaves the orbit system of f; "
                "the input is not a generalised Furstenberg system of f")
        mapping.append(j)
    for g in G.elements():
        for i in range(len(S.points)):
            if mapping[S.act[g][i]] != target.act[g][mapping[i]]:
                raise VerificationFailedError("canonical map is not equivariant")
    surjective = set(mapping) == set(range(len(target.points)))
    if not surjective:
        raise VerificationFailedError("canonical map is not surjective")
    injective = len(set(mapping)) == len(mapping)
    return PhiRResult(mapping=mapping, target=target, injective=injective, surjective=True)


def product_flip_extension(G: FiniteGroup, f) -> FiniteSystem:
    """X_{R,f} x {0,1} with the observable lifted through the projection.

    The two-point factor is untouched by the action, so the canonical map
    back onto the orbit system of f is surjective but never injective: the
    standard desk-scale example of a generalised system that only factors.
    """
    inner = build_orbit_system(G, f, "R")
    points = [(p, bit) for p in inner.points for bit in (0, 1)]
    index = {p: i for i, p in enumerate(points)}
    act = [[index[(inner.points[inner.act[g][inner.index[p]]], bit)]
            for (p, bit) in points] for g in G.elements()]
    observable = [p[G.identity] for (p, bit) in points]
    return FiniteSystem(group=G, points=points, act=act,
                        base=index[(inner.points[inner.base], 0)],
                        observable=observable, action_kind="action", index=index)


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
    mapping = [None] * len(source.points)
    for h in G.elements():
        i = source.index[shift(G, f, h, "right")]
        j = target.index[shift(G, f, h, "left")]
        if mapping[i] is None:
            mapping[i] = j
        elif mapping[i] != j:
            raise VerificationFailedError("coset pairing is not well defined")
    if None in mapping or len(set(mapping)) != len(target.points):
        raise VerificationFailedError("coset pairing is not a bijection")
    for g in G.elements():
        for i in range(len(source.points)):
            if mapping[source.act[g][i]] != target.act[g][mapping[i]]:
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


def partition_labels(f):
    """Canonical relabeling of a config by first occurrence."""
    seen = {}
    out = []
    for v in f:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)
