"""Brute-force reference computations used to check verdicts.

None of these call the library routine whose verdict they check: finite
groups are handled on raw Cayley tables, rotation codings through an
integer-only evaluator of the generating spec, and block codes through
literal enumeration over oracle values.  Copies of the brute-force helpers
live here on purpose, so the checks keep working when the library moves or
deletes its own.
"""

from __future__ import annotations

import math
from itertools import combinations, product


# ---------------------------------------------------------------------------
# Finite groups on raw Cayley tables
# ---------------------------------------------------------------------------

def shift(table, inverse, x, g, mode):
    n = len(table)
    if mode == "right":
        return tuple(x[table[u][g]] for u in range(n))
    if mode == "left":
        return tuple(x[table[inverse[g]][u]] for u in range(n))
    return tuple(x[table[g][u]] for u in range(n))


def is_dedekind(table, identity):
    """Every cyclic subgroup normal (hence every subgroup, as they are joins)."""
    n = len(table)
    for g in range(n):
        cyc, x = {identity}, g
        while x != identity:
            cyc.add(x)
            x = table[x][g]
        for y in range(n):
            yinv = next(z for z in range(n) if table[y][z] == identity)
            if table[table[y][g]][yinv] not in cyc:
                return False
    return True


def coset_system(table, inverse, seed, mode):
    """(points, act, of_elem) of the orbit system, read off the point partition.

    Point i is the seed shifted by rep[i]; shifting by g then lands on the
    point of g*rep[i] for the right and left shifts and of rep[i]*g for the
    anti shift, so the act table needs no further shifting.
    """
    index, points, rep, of_elem = {}, [], [], []
    for h in range(len(table)):
        p = shift(table, inverse, seed, h, mode)
        if p not in index:
            index[p] = len(points)
            points.append(p)
            rep.append(h)
        of_elem.append(index[p])
    if mode == "anti":
        act = [[of_elem[table[r][g]] for r in rep] for g in range(len(table))]
    else:
        act = [[of_elem[table[g][r]] for r in rep] for g in range(len(table))]
    return points, act, of_elem


def stabilizers_conjugate(table, inverse, identity, of_elem_1, of_elem_2):
    """Two transitive systems are isomorphic iff their base stabilizers are conjugate."""
    n = len(table)
    stab1 = frozenset(g for g in range(n) if of_elem_1[g] == of_elem_1[identity])
    stab2 = [g for g in range(n) if of_elem_2[g] == of_elem_2[identity]]
    return any(frozenset(table[table[h][s]][inverse[h]] for s in stab2) == stab1
               for h in range(n))


def is_equivariant_bijection(mapping, act1, act2):
    n = len(mapping)
    if sorted(mapping) != list(range(n)) or len(act2[0]) != n:
        return False
    return all(mapping[act1[g][i]] == act2[g][mapping[i]]
               for g in range(len(act1)) for i in range(n))


def isomorphism_exists(act1, act2):
    """Backtracking over all bijections, pruned by equivariance of the assigned part."""
    n = len(act1[0])
    if len(act2[0]) != n:
        return False
    order = len(act1)
    image = [None] * n
    used = [False] * n

    def consistent(i):
        for g in range(order):
            for k in range(i + 1):
                target = image[act1[g][k]]
                if target is not None and act2[g][image[k]] != target:
                    return False
        return True

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j]:
                continue
            image[i], used[j] = j, True
            if consistent(i) and extend(i + 1):
                return True
            image[i], used[j] = None, False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Z/3Z (+) B
# ---------------------------------------------------------------------------

def z3b_mul(a, b):
    return ((a[0] + b[0]) % 3, a[1] ^ b[1])


def z3b_inv(a):
    return ((-a[0]) % 3, a[1])


def z3b_f(g):
    r, support = g
    if r == 0 and not support:
        return 0
    m = len(support)
    if m and max(support) == m:
        if r == 1 and m >= 2 and m % 2 == 0:
            return 1
        if r == 2 and m % 2 == 1:
            return 1
    return -1


def eqtech_witness_holds(S, c, x):
    """c, x separate the marker while every S-conjugate value agrees."""
    if z3b_f(x) == z3b_f(z3b_mul(c, x)):
        return False
    xinv, cxinv = z3b_inv(x), z3b_inv(z3b_mul(c, x))
    return all(z3b_f(z3b_mul(z3b_mul(a, xinv), b)) == z3b_f(z3b_mul(z3b_mul(a, cxinv), b))
               for a in S for b in S)


# ---------------------------------------------------------------------------
# Integer-only evaluation of generated rotation codings
# ---------------------------------------------------------------------------

class ExactCoding:
    """Evaluate a generated coding spec without the library's arithmetic.

    A spec has alpha = (a + b*sqrt(d)) / c and cut points that are either
    rationals r/q or fractional parts of k*alpha; each cut point belongs to
    the arc on its right (``owner_right``) or on its left.  Numbers are kept
    as (p, q) meaning (p + q*sqrt(d)) / D over one common denominator.
    """

    def __init__(self, spec):
        a, b, c, d = spec["alpha"]
        self.d = d
        dens = [c] + [cut[2] for cut in spec["cuts"] if cut[0] == "rat"]
        self.D = math.lcm(*dens)
        self.alpha = self._frac(((a * self.D) // c, (b * self.D) // c))
        self.cuts = []
        for cut in spec["cuts"]:
            if cut[0] == "rat":
                value = (cut[1] * (self.D // cut[2]), 0)
            else:
                value = self._frac((cut[1] * self.alpha[0], cut[1] * self.alpha[1]))
            self.cuts.append(value)
        self.cut_specs = spec["cuts"]
        self.labels = spec["labels"]        # label of the arc starting at cut i
        self.owner_right = spec["owner_right"]

    def sign(self, p, q):
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if (p > 0) == (q > 0):
            return 1 if p > 0 else -1
        if p * p > q * q * self.d:
            return (p > 0) - (p < 0)
        return 1 if q > 0 else -1

    def _floor(self, x):
        """floor of (p + q sqrt d) / D."""
        p, q = x
        root = math.isqrt(q * q * self.d)
        est = (p + (root if q > 0 else -root)) // self.D - 2
        while self.sign(p - (est + 1) * self.D, q) >= 0:
            est += 1
        return est

    def _frac(self, x):
        k = self._floor(x)
        return (x[0] - k * self.D, x[1])

    def point(self, n):
        return self._frac((n * self.alpha[0], n * self.alpha[1]))

    def symbol(self, n):
        x = self.point(n)
        m = len(self.cuts)
        for i in range(m):
            lo, hi = self.cuts[i], self.cuts[(i + 1) % m]
            c_lo = self.sign(x[0] - lo[0], x[1] - lo[1])
            c_hi = self.sign(x[0] - hi[0], x[1] - hi[1])
            wraps = self.sign(hi[0] - lo[0], hi[1] - lo[1]) <= 0
            lo_ok = c_lo > 0 or (c_lo == 0 and self.owner_right[i])
            hi_ok = c_hi < 0 or (c_hi == 0 and not self.owner_right[(i + 1) % m])
            if (lo_ok and hi_ok) if not wraps else (lo_ok or hi_ok):
                return self.labels[i]
        raise AssertionError(f"orbit point {n} not covered by the generated cells")

    def boundary_hits(self, label=None):
        """Times at which the orbit lands on a cut point between two labels.

        A cut point k*alpha is hit exactly at n = k (the base point is 0);
        rational cut points in (0, 1) are never hit.
        """
        m = len(self.cuts)
        out = []
        for i, cut in enumerate(self.cut_specs):
            left, right = self.labels[(i - 1) % m], self.labels[i]
            if left == right or cut[0] != "mul":
                continue
            if label is not None and label not in (left, right):
                continue
            out.append(cut[1])
        return sorted(out)


# ---------------------------------------------------------------------------
# Block codes by literal enumeration
# ---------------------------------------------------------------------------

def offset_sets(max_span):
    rest = list(range(1, max_span + 1))
    return [(0,) + extra for size in range(max_span + 1) for extra in combinations(rest, size)]


def shift_order(radius):
    yield 0
    for t in range(1, radius + 1):
        yield t
        yield -t


def realizes(offsets, rule, source, target, shift, radius):
    """The coded, shifted source equals the target on [-radius, radius]."""
    return first_mismatch(offsets, rule, source, target, shift, radius) is None


def first_mismatch(offsets, rule, source, target, shift, radius):
    for n in range(-radius, radius + 1):
        got = rule[tuple(source.value(n + shift + o) for o in offsets)]
        if got != target.value(n):
            return n, got, target.value(n)
    return None


def _representatives(oracle, depth, radius, ext_lo, ext_hi):
    lo_i, hi_i = -depth + min(ext_lo, 0), depth + max(ext_hi, 0)
    buf = oracle.window(-radius + lo_i, radius + hi_i)
    width = hi_i - lo_i + 1
    reps = {}
    for t in range(-radius, radius + 1):
        ext = tuple(buf[t + radius:t + radius + width])
        center = ext[-depth - lo_i:depth + 1 - lo_i]
        reps.setdefault(center, (lambda i, ext=ext: ext[i - lo_i], None))
    tails = oracle.tails()
    if tails is not None:
        period = tails.period
        right = [oracle.value(tails.right_from + i) for i in range(period)]
        left = [oracle.value(tails.left_upto - period + 1 + i) for i in range(period)]
        for word in (right, left):
            for phase in range(period):
                aligned = tuple(word[(i + phase) % period] for i in range(period))
                center = tuple(aligned[i % period] for i in range(-depth, depth + 1))
                reps[center] = (lambda i, a=aligned: a[i % len(a)], aligned)
    return reps


def separates(offsets, rule, oracle, depth, radius):
    """No two distinct representatives share their code outputs over the depth."""
    reps = _representatives(oracle, depth, radius, offsets[0], offsets[-1])
    seen = set()
    for value, _ in reps.values():
        out = tuple(rule[tuple(value(s + o) for o in offsets)] for s in range(-depth, depth + 1))
        if out in seen:
            return False
        seen.add(out)
    return True


def blind_code_search(target, source, max_span, depth, radius):
    """First (offsets, rule, shift) in canonical order that realizes and separates."""
    in_alpha = tuple(sorted(set(source.alphabet)))
    out_alpha = tuple(sorted(set(target.alphabet)))
    for offsets in offset_sets(max_span):
        patterns = list(product(in_alpha, repeat=len(offsets)))
        for outs in product(out_alpha, repeat=len(patterns)):
            rule = dict(zip(patterns, outs))
            for t in shift_order(radius):
                if not realizes(offsets, rule, source, target, t, radius):
                    continue
                if separates(offsets, rule, source, depth, radius):
                    return offsets, rule, t
    return None


def minimal_period(values):
    """Smallest p such that values[i] == values[i + p] throughout the list."""
    n = len(values)
    for p in range(1, n):
        if all(values[i] == values[i + p] for i in range(n - p)):
            return p
    return n


# ---------------------------------------------------------------------------
# Sequence oracles evaluated straight from their generating spec
# ---------------------------------------------------------------------------

class SpecOracle:
    """value(n) of an oracle spec, written independently of the library's oracles.

    Specs are plain data: {"periodic": word}, {"set": {...}}, {"rotation":
    coding spec}, {"code_image": {"offsets", "rule", "inner"}} or
    {"override": {"inner", "patch"}}; rules map pattern strings to symbols.
    """

    def __init__(self, spec):
        self.spec = spec
        (self.tag, self.body), = spec.items()
        if self.tag == "rotation":
            self.coding = ExactCoding(self.body)
        elif self.tag in ("code_image", "override"):
            self.inner = SpecOracle(self.body["inner"])

    def value(self, n):
        body = self.body
        if self.tag == "periodic":
            return body[n % len(body)]
        if self.tag == "set":
            if n in body.get("include", ()):
                return 1
            if n in body.get("exclude", ()):
                return 0
            votes = [(n - a) % d == 0 for a, d in body.get("aps", ())]
            if body.get("halfline") is not None:
                votes.append(n >= body["halfline"])
            op = body.get("op", "union")
            if op == "inter":
                return int(bool(votes) and all(votes))
            return int(any(votes) != (op == "complement"))
        if self.tag == "rotation":
            return self.coding.symbol(n)
        if self.tag == "code_image":
            key = "".join(str(self.inner.value(n + o)) for o in body["offsets"])
            return body["rule"][key]
        patch = body["patch"]
        return patch[str(n)] if str(n) in patch else self.inner.value(n)

    def window(self, lo, hi):
        return [self.value(n) for n in range(lo, hi + 1)]
