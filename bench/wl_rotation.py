"""rotation-exact: exact verdicts on seeded rotation codings over Q(sqrt(d)).

Each query gets its own coding with 2 to 4 cells whose endpoints mix
rationals and small multiples of alpha, so boundary hits and non-minimal
codings both occur.  Exact Fraction/quadratic arithmetic, word loci and the
per-symbol ``RotationOracle.value`` path dominate; this is where a faster
exact rotation evaluator shows.
"""

from __future__ import annotations

import math
from fractions import Fraction

import reference as ref

NAME = "rotation-exact"
MODULES = ("shiftlab.algebra", "shiftlab.rotation", "shiftlab.zshift", "shiftlab.recurrence")
RATE = 45           # queries per second at the seed, used only to size the query list
BUILD_IN_SETUP = True
CHILD_PROCESSES = False

RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)
RATIONAL_DENOMINATORS = (5, 7, 12, 30)
MIN_SEPARATION = 0.02
CHECK_WINDOW = 2000
MAX_CHECK_WINDOW = 10**6
PAD = 256           # longer than any witness word the minimality procedure can grow

# One block of 10 queries.  The chromatic checks read symbols one at a time
# through RotationOracle.value and make up the latency tail; the light kinds
# are six of ten, so the median sits inside them rather than on an edge.
BLOCK = ("min_set", "min_colouring", "word", "word", "boundary", "sds",
         "chromatic", "chromatic", "syndetic", "syndetic")
BLOCK_SIZE = len(BLOCK)
MULTIPLES = (-2, -1, 1, 2)
MAX_MULTIPLE_CUTS = 2


def _approx(alpha, cut):
    a, b, c, d = alpha
    x = (a + b * math.sqrt(d)) / c
    x -= math.floor(x)
    if cut[0] == "rat":
        return cut[1] / cut[2]
    y = cut[1] * x
    return y - math.floor(y)


def _coding_spec(rng, cells, min_first=0.0):
    """Cut points sorted round the circle, at least MIN_SEPARATION apart (the float
    approximation only chooses inputs; it never decides a verdict).

    At most MAX_MULTIPLE_CUTS cut points are multiples of alpha, which bounds
    the resonance bound and so the cost of one minimality decision.  With
    ``min_first`` the cell labelled 1 covers at least that much of the circle.
    """
    while True:
        alpha = (rng.randint(-5, 5), rng.choice((1, 1, 2)), rng.choice((1, 2, 3, 5)),
                 rng.choice(RADICANDS))
        x = _approx(alpha, ("mul", 1))
        if 0.05 < x < 0.95:
            break
    m = rng.randint(max(cells, 3), 5)
    cuts, spots = [], []
    while len(cuts) < m:
        if rng.random() < 0.5 and sum(c[0] == "mul" for c in cuts) < MAX_MULTIPLE_CUTS:
            cut = ("mul", rng.choice(MULTIPLES))
        else:
            q = rng.choice(RATIONAL_DENOMINATORS)
            cut = ("rat", rng.randint(1, q - 1), q)
        spot = _approx(alpha, cut)
        if all(min(abs(spot - s), 1 - abs(spot - s)) > MIN_SEPARATION for s in spots):
            cuts.append(cut)
            spots.append(spot)
    order = sorted(range(m), key=lambda i: spots[i])
    spots.sort()
    while True:
        labels = list(range(cells)) + [rng.randrange(cells) for _ in range(m - cells)]
        rng.shuffle(labels)
        share = sum((spots[(i + 1) % m] - spots[i]) % 1.0 for i in range(m) if labels[i] == 1)
        if share >= min_first:
            break
    return {"alpha": list(alpha), "cuts": [list(cuts[i]) for i in order], "labels": labels,
            "owner_right": [rng.random() < 0.5 for _ in range(m)]}


def _query(rng, qid, kind):
    if kind == "syndetic":
        spec = _coding_spec(rng, 2, min_first=0.4)
    else:
        spec = _coding_spec(rng, rng.randint(2, 3 if kind == "min_colouring" else 4))
    q = {"id": qid, "kind": kind, "coding": spec}
    if kind == "word":
        exact = ref.ExactCoding(spec)
        hits = exact.boundary_hits()
        length = rng.randint(2, 3)
        offsets = list(range(length)) if rng.random() < 0.7 else [0, 2, 3][:length]
        if hits and rng.random() < 0.5:
            start = rng.choice(hits) - rng.randint(0, offsets[-1])
        else:
            start = rng.randint(-50, 50)
        q["word"] = {"offsets": offsets, "symbols": [exact.symbol(start + o) for o in offsets]}
    elif kind == "sds":
        q["label"] = rng.choice(spec["labels"])
    elif kind in ("chromatic", "syndetic"):
        q["R"] = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
        q["radius"] = rng.randint(30, 40) if kind == "chromatic" else rng.randint(100, 200)
    return q


def make_queries(rng, count):
    out = []
    while len(out) < count:
        block = [_query(rng, 0, kind) for kind in BLOCK]
        rng.shuffle(block)
        out.extend(block)
    for i, q in enumerate(out):
        q["id"] = i
    return out


def make_warmup(rng):
    return [_query(rng, -1, kind) for kind in ("min_set", "word", "chromatic")]


def build_coding(spec):
    from shiftlab import algebra, rotation

    a, b, c, d = spec["alpha"]
    alpha = algebra.frac_part(algebra.QuadraticNumber(Fraction(a, c), Fraction(b, c), d))
    cuts = []
    for cut in spec["cuts"]:
        if cut[0] == "rat":
            cuts.append(algebra.QuadraticNumber(Fraction(cut[1], cut[2])))
        else:
            cuts.append(algebra.frac_part(cut[1] * alpha))
    m = len(cuts)
    arcs = {label: [] for label in spec["labels"]}
    own = spec["owner_right"]
    for i in range(m):
        arcs[spec["labels"][i]].append(
            rotation.Arc(cuts[i], own[i], cuts[(i + 1) % m], not own[(i + 1) % m]))
    cells = {label: rotation.CircleIntervalSet(a) for label, a in arcs.items()}
    return rotation.RotationCoding(alpha, cells)


def build(queries):
    """One validated coding per query, plus its word, oracle or candidate set."""
    from shiftlab import recurrence, zshift

    inputs = []
    for q in queries:
        coding = build_coding(q["coding"])
        extra = None
        if q["kind"] == "word":
            extra = zshift.WordPattern(tuple(q["word"]["offsets"]), tuple(q["word"]["symbols"]))
        elif q["kind"] in ("chromatic", "syndetic"):
            extra = (zshift.RotationOracle(coding), recurrence.CandidateSet.integers(q["R"]))
        inputs.append((coding, extra))
    return inputs


def run(query, inp):
    from shiftlab import recurrence, rotation

    coding, extra = inp
    kind = query["kind"]
    if kind == "min_set":
        return rotation.classify_minimality(coding)
    if kind == "min_colouring":
        return rotation.classify_minimality(coding, scope="colouring")
    if kind == "word":
        return rotation.classify_word(coding, extra)
    if kind == "boundary":
        return rotation.boundary_hits(coding)
    if kind == "sds":
        return rotation.strongly_dyn_syndetic(coding, query["label"])
    oracle, R = extra
    if kind == "chromatic":
        return recurrence.chromatic_recurrence_check(R, oracle, query["radius"])
    return recurrence.syndetic_return_check(R, oracle, query["radius"])


# ---------------------------------------------------------------------------
# Checks: everything is re-found on symbols read through RotationOracle.window
# ---------------------------------------------------------------------------

class Reader:
    """Symbols of one coding (or one label's indicator) over a growing window."""

    def __init__(self, coding, label=None):
        from shiftlab import zshift

        self.oracle = zshift.RotationOracle(coding)
        self.label = label
        self.radius = 0
        self.buf = []

    def window(self, radius):
        """Symbols at -radius - PAD .. radius + PAD, indexed from -radius - PAD."""
        if radius > self.radius:
            self.buf = self.oracle.window(-radius - PAD, radius + PAD)
            if self.label is not None:
                self.buf = [int(s == self.label) for s in self.buf]
            self.radius = radius
        return self.buf

    def occurrences(self, offsets, symbols, radius, stop=None):
        buf = self.window(radius)
        r = self.radius + PAD
        out = []
        for h in range(-radius, radius + 1):
            if all(buf[h + o + r] == s for o, s in zip(offsets, symbols)):
                out.append(h)
                if len(out) == stop:
                    break
        return out

    def recurs(self, offsets, symbols):
        """The word occurs at least twice in some window up to MAX_CHECK_WINDOW."""
        radius = CHECK_WINDOW
        while radius <= MAX_CHECK_WINDOW:
            if len(self.occurrences(offsets, symbols, radius, stop=2)) == 2:
                return True
            radius *= 10
        return False


def _check_minimality(res, reader, hits):
    if [n for n, _, _ in res.hits] != hits:
        return f"boundary hit times {[n for n, _, _ in res.hits]} differ from {hits}"
    if not res.minimal:
        offsets, symbols = res.witness.offsets, res.witness.symbols
        far = max([abs(n) for n in res.occurrences] + [0]) + CHECK_WINDOW
        if reader.occurrences(offsets, symbols, far) != sorted(res.occurrences):
            return "witness word occurrences differ from the window"
        return None
    M = res.resonance_bound
    for n_h in hits:
        for length in range(1, min(M + 1, 4) + 1):
            for start in range(n_h - M, n_h + 1):
                # re-read: a check below may have widened the reader's window
                buf = reader.window(CHECK_WINDOW)
                base = start + reader.radius + PAD
                symbols = buf[base:base + length]
                if not reader.recurs(tuple(range(length)), symbols):
                    return f"minimal verdict, but the word at {start} occurs once"
    return None


def check(query, inp, res, state):
    coding, extra = inp
    kind = query["kind"]
    exact = ref.ExactCoding(query["coding"])
    if kind in ("min_set", "min_colouring"):
        state["minimality"] = state.get("minimality", 0) + 1
        state["not_minimal"] = state.get("not_minimal", 0) + (not res.minimal)
        reason = _check_minimality(res, Reader(coding), exact.boundary_hits())
        if reason or kind == "min_set":
            return reason
        if sorted(res.per_label) != sorted(set(query["coding"]["labels"])):
            return "per-colour verdicts do not cover the labels"
        for label, sub in res.per_label.items():
            reason = _check_minimality(sub, Reader(coding, label), exact.boundary_hits(label))
            if reason:
                return f"colour {label}: {reason}"
        return None
    if kind == "word":
        reader = Reader(coding)
        buf = reader.window(CHECK_WINDOW)
        if any(buf[n + reader.radius + PAD] != exact.symbol(n) for n in range(-20, 21)):
            return "window symbols differ from the integer evaluator"
        offsets, symbols = extra.offsets, extra.symbols
        if res.kind == "finite":
            far = max(abs(n) for n in res.occurrences) + CHECK_WINDOW
            if reader.occurrences(offsets, symbols, far) != sorted(res.occurrences):
                return "finite word occurrences differ from the window"
            return None
        if res.kind == "syndetic":
            return None if reader.recurs(offsets, symbols) else "syndetic word occurs once"
        return "a word read off the sequence was classified empty"
    if kind == "boundary":
        got = [(n, sorted(map(str, labels))) for n, _, labels in res]
        want = []
        m = len(exact.cuts)
        for i, cut in enumerate(exact.cut_specs):
            left, right = exact.labels[(i - 1) % m], exact.labels[i]
            if cut[0] == "mul" and left != right:
                want.append((cut[1], sorted(map(str, {left, right}))))
        return None if got == sorted(want) else f"boundary hits {got} differ from {sorted(want)}"
    if kind == "sds":
        want = exact.boundary_hits(query["label"])
        got = [n for n, _ in res.bad_hits]
        if sorted(got) != want or res.strongly != (not want):
            return f"strong syndeticity hits {got} differ from {want}"
        return None
    oracle, R = extra
    r, top = query["radius"], max(query["R"])
    buf = oracle.window(-r, r + top)

    def at(n):
        return buf[n + r]

    centred = [0] + [h for k in range(1, r + 1) for h in (k, -k)]
    want = None
    for g in query["R"]:
        if kind == "chromatic":
            hits = [(at(h), rank, h) for rank, h in enumerate(centred) if at(h) == at(h + g)]
            if hits:
                colour, _, h = min(hits)
                want = (g, colour, h)
                break
        else:
            h = next((h for h in centred if at(h) == 1 and at(h + g) == 1), None)
            if h is not None:
                want = (g, None, h)
                break
    got = (res.g, res.colour, res.h) if res.found else None
    return None if got == want else f"recurrence pair {got} differs from {want}"


def shares(state):
    """NotMinimal share of the minimality queries.  The share of symbol reads
    that go through RotationOracle.value is a per-layer metric of the traced run."""
    total = state.get("minimality", 0)
    return {"not_minimal_share": state.get("not_minimal", 0) / total if total else 0.0,
            "minimality_queries": total}
