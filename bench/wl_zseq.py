"""zseq-scan: windowed verdicts on seeded sequence oracles over Z.

Oracles are AP and half-line sets with finite fixes, periodic words, code
images, patches, and rotation codings with rational cut points that are
read only through windows.  Code searches are planted in two kinds: found
(the target is a code image of the shifted source) and exhausted (the
target's period does not divide the source's, so no code exists).  The
``zshift`` windows and the ``codes`` layer dominate; the rotation layer runs
only through its integer orbit walk, unlike in rotation-exact.
"""

from __future__ import annotations

import math
import re

import reference as ref

NAME = "zseq-scan"
MODULES = ("shiftlab.zshift", "shiftlab.codes", "shiftlab.rotation")
RATE = 100          # queries per second at the seed, used only to size the query list
BUILD_IN_SETUP = True
CHILD_PROCESSES = False

# One block of 12 queries.  The two realizations over flat sources are the
# slowest and narrowest kind, so the 90th percentile sits inside them.
BLOCK = ("search_found", "search_found", "search_exhausted", "search_small", "projection",
         "realization", "realization", "patterns", "recur", "recur", "occur", "occur")
BLOCK_SIZE = len(BLOCK)
SAMPLED_POSITIONS = 200


# -- seeded oracle specs --------------------------------------------------------

def _periodic_word(rng, period):
    while True:
        word = [rng.randrange(2) for _ in range(period)]
        if ref.minimal_period(word * 3) == period:
            return word


def _set_spec(rng):
    body = {"op": rng.choice(("union", "union", "inter", "complement"))}
    body["aps"] = [[rng.randrange(d), d] for d in rng.sample((2, 3, 4, 5), rng.randint(1, 2))]
    if rng.random() < 0.6:
        body["halfline"] = rng.randint(-8, 8)
    body["include"] = sorted(rng.sample(range(-12, 13), rng.randint(0, 2)))
    body["exclude"] = sorted(set(rng.sample(range(-12, 13), rng.randint(0, 2)))
                             - set(body["include"]))
    return {"set": body}


def _rotation_spec(rng):
    """A two- or three-cell coding with rational cut points: no orbit point is
    ever on a cut, so every window read is an integer walk."""
    a, c, d = rng.randint(-3, 3), rng.choice((1, 2, 3)), rng.choice((2, 3, 5, 7))
    cuts = sorted(rng.sample(range(1, 12), rng.randint(2, 3)))
    labels = list(range(len(cuts)))
    if len(cuts) == 3 and rng.random() < 0.5:
        labels = [0, 1, 0]
    return {"rotation": {"alpha": [a, 1, c, d], "cuts": [["rat", k, 12] for k in cuts],
                         "labels": labels, "owner_right": [True] * len(cuts)}}


def _code(rng, kind):
    if kind == "relabel":
        flip = rng.randrange(2)
        return [0], {"0": flip, "1": 1 - flip}
    width = rng.randint(2, 3)
    return list(range(width)), {format(i, f"0{width}b"): bin(i).count("1") % 2
                                for i in range(2 ** width)}


def _binary_oracle(rng, depth=0):
    roll = rng.random()
    if roll < 0.3:
        return {"periodic": _periodic_word(rng, rng.randint(2, 6))}
    if roll < 0.65 or depth:
        return _set_spec(rng)
    if roll < 0.85:
        offsets, rule = _code(rng, "parity")
        return {"code_image": {"offsets": offsets, "rule": rule,
                               "inner": _binary_oracle(rng, depth + 1)}}
    patch = {str(rng.randint(-10, 10)): rng.randrange(2) for _ in range(rng.randint(1, 3))}
    return {"override": {"inner": _binary_oracle(rng, depth + 1), "patch": patch}}


def _scan_oracle(rng):
    return _rotation_spec(rng) if rng.random() < 0.35 else _binary_oracle(rng)


def _planted_target(rng, source):
    """The source shifted by t and relabelled: a code of span 0 always realizes
    it and separates, so the search is found."""
    offsets, rule = _code(rng, "relabel")
    t = rng.randint(-6, 6)
    return {"code_image": {"offsets": [o + t for o in offsets], "rule": rule, "inner": source}}


def _query(rng, qid, kind):
    q = {"id": qid, "kind": kind}
    if kind in ("search_found", "search_small"):
        q["source"] = _binary_oracle(rng)
        if kind == "search_small" and rng.random() < 0.5:
            q["target"] = {"periodic": _periodic_word(rng, 3)}
            q["source"] = {"periodic": _periodic_word(rng, rng.choice((2, 4)))}
        else:
            q["target"] = _planted_target(rng, q["source"])
        q["max_span"] = 1 if kind == "search_small" else 2
        q["depth"] = 3 if kind == "search_small" else rng.randint(4, 6)
        q["radius"] = rng.randint(12, 20) if kind == "search_small" else rng.randint(300, 400)
    elif kind == "search_exhausted":
        p = rng.randint(2, 5)
        q_period = rng.choice([k for k in range(2, 7) if p % k])
        q["source"] = {"periodic": _periodic_word(rng, p)}
        q["target"] = {"periodic": _periodic_word(rng, q_period)}
        q["max_span"] = rng.randint(2, 3)
        q["depth"] = rng.randint(4, 6)
        q["radius"] = rng.randint(300, 400)
    elif kind in ("projection", "realization"):
        q["source"] = _binary_oracle(rng) if kind == "projection" else _binary_oracle(rng, 1)
        q["offsets"], q["rule"] = _code(rng, "relabel" if rng.random() < 0.3 else "parity")
        if kind == "projection":
            q["depth"], q["radius"] = rng.randint(4, 8), rng.randint(200, 1000)
        else:
            q["radius"] = rng.randint(3000, 4000)
            target = {"code_image": {"offsets": q["offsets"], "rule": q["rule"],
                                     "inner": q["source"]}}
            if rng.random() < 0.3:
                # a mismatch near the far end, so a failing check costs about as much
                n = q["radius"] - rng.randint(0, q["radius"] // 10)
                target = {"override": {"inner": target, "patch": {str(n): 2}}}
            q["target"] = target
    elif kind == "patterns":
        q["a"], q["b"] = _set_spec(rng), _set_spec(rng)
        q["shifts"] = sorted(rng.sample((0, 1, 2), rng.randint(1, 3)))
        q["arity"] = rng.randint(1, 2)
        q["radius"] = rng.randint(100, 200)
    elif kind == "recur":
        q["oracle"] = _scan_oracle(rng)
        q["max_len"], q["radius"] = rng.randint(3, 6), rng.randint(2000, 5000)
    else:
        q["oracle"] = _scan_oracle(rng)
        spec = ref.SpecOracle(q["oracle"])
        offsets = sorted(rng.sample(range(5), rng.randint(2, 4)))
        start = rng.randint(-100, 100)
        q["word"] = {"offsets": offsets, "symbols": [spec.value(start + o) for o in offsets]}
        q["radius"] = rng.randint(2000, 5000)
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
    return [_query(rng, -1, kind) for kind in ("search_found", "recur", "realization")]


# -- library objects --------------------------------------------------------------

def build_code(offsets, rule):
    from shiftlab import codes

    table = {tuple(int(c) for c in key): value for key, value in rule.items()}
    alphabet = tuple(sorted({s for key in table for s in key}))
    return codes.BlockCode(tuple(offsets), table, alphabet)


def build_oracle(spec):
    from shiftlab import zshift
    from wl_rotation import build_coding

    (tag, body), = spec.items()
    if tag == "periodic":
        return zshift.PeriodicOracle(body)
    if tag == "set":
        return zshift.SetOracle(aps=[tuple(p) for p in body["aps"]],
                                halfline=body.get("halfline"), include=body["include"],
                                exclude=body["exclude"], op=body["op"])
    if tag == "rotation":
        return zshift.RotationOracle(build_coding(body))
    if tag == "code_image":
        return zshift.CodeImageOracle(build_code(body["offsets"], body["rule"]),
                                      build_oracle(body["inner"]))
    return zshift.OverrideOracle(build_oracle(body["inner"]),
                                 {int(k): v for k, v in body["patch"].items()})


def build(queries):
    from shiftlab import zshift

    inputs = []
    for q in queries:
        inp = {key: build_oracle(q[key]) for key in ("source", "target", "a", "b", "oracle")
               if key in q}
        if "rule" in q:
            inp["code"] = build_code(q["offsets"], q["rule"])
        if "word" in q:
            inp["word"] = zshift.WordPattern(tuple(q["word"]["offsets"]),
                                             tuple(q["word"]["symbols"]))
        inputs.append(inp)
    return inputs


def run(query, inp):
    from shiftlab import codes, zshift

    kind = query["kind"]
    if kind.startswith("search"):
        return codes.search_isomorphism_code(inp["target"], inp["source"], query["max_span"],
                                             query["depth"], query["radius"])
    if kind == "projection":
        return codes.verify_generalized_projection(inp["code"], inp["source"], query["depth"],
                                                   query["radius"])
    if kind == "realization":
        return codes.verify_realization(inp["code"], inp["source"], inp["target"],
                                        query["radius"])
    if kind == "patterns":
        return codes.intersection_pattern_check(inp["a"], inp["b"], query["shifts"],
                                                query["arity"], query["radius"])
    if kind == "recur":
        return zshift.uniform_recurrence_certificate(inp["oracle"], query["max_len"],
                                                     query["radius"])
    return zshift.occurrences(inp["oracle"], inp["word"], -query["radius"], query["radius"])


# -- checks -------------------------------------------------------------------------

class Values:
    """An oracle's symbols over [lo, hi], as read by the library window.

    SAMPLED_POSITIONS of them are re-evaluated from the spec by the reference
    evaluator, so a wrong window is caught; positions outside the window are
    evaluated from the spec directly.  Everything computed from these values
    below is an independent re-implementation of the verdict under test.
    """

    def __init__(self, spec, oracle, lo, hi, seed):
        import random

        self.spec = ref.SpecOracle(spec)
        self.lo, self.hi = lo, hi
        self.buf = oracle.window(lo, hi)
        self.tails, self.alphabet = oracle.tails, oracle.alphabet
        rng = random.Random(seed)
        for n in rng.sample(range(lo, hi + 1), min(SAMPLED_POSITIONS, hi - lo + 1)):
            if self.spec.value(n) != self.buf[n - lo]:
                raise AssertionError(f"oracle window differs from the reference at {n}")

    def value(self, n):
        if self.lo <= n <= self.hi:
            return self.buf[n - self.lo]
        return self.spec.value(n)

    def window(self, lo, hi):
        if self.lo <= lo and hi <= self.hi:
            return self.buf[lo - self.lo:hi - self.lo + 1]
        return [self.value(n) for n in range(lo, hi + 1)]

    def starts(self, offsets, symbols, lo, hi):
        """Every h in [lo, hi] where the symbols sit at h + offsets."""
        text = "".join(chr(48 + s) for s in self.window(lo + offsets[0], hi + offsets[-1]))
        want = {o - offsets[0]: chr(48 + s) for o, s in zip(offsets, symbols)}
        pattern = "".join(want.get(i, ".") for i in range(offsets[-1] - offsets[0] + 1))
        return [lo + m.start() for m in re.finditer(f"(?={pattern})", text)]


def _values(query, inp, key, lo, hi):
    return Values(query[key], inp[key], lo, hi, f"{query['id']}:{key}")


def _check_search(query, inp, res, state):
    state["searches"] = state.get("searches", 0) + 1
    state["found"] = state.get("found", 0) + res.found
    if query["kind"] == "search_small":
        source, target = ref.SpecOracle(query["source"]), ref.SpecOracle(query["target"])
        for spec, oracle in ((source, inp["source"]), (target, inp["target"])):
            spec.tails, spec.alphabet = oracle.tails, oracle.alphabet
        want = ref.blind_code_search(target, source, query["max_span"], query["depth"],
                                     query["radius"])
        got = (res.code.offsets, res.code.rule, res.shift) if res.found else None
        return None if got == want else f"search returned {got}, blind search {want}"
    if query["kind"] == "search_exhausted":
        p, q = len(query["source"]["periodic"]), len(query["target"]["periodic"])
        target = ref.SpecOracle(query["target"])
        if ref.minimal_period(target.window(0, 6 * q)) != q or p % q == 0:
            return "generated exhausted pair is not period-incompatible"
        return "a code was found between period-incompatible sequences" if res.found else None
    if not res.found:
        return "no code found for a relabelled shift of the source"
    r, span = 2 * query["radius"], res.code.offsets[-1]
    source = _values(query, inp, "source", -r - query["radius"], r + span + query["radius"])
    target = _values(query, inp, "target", -r, r)
    mismatch = ref.first_mismatch(res.code.offsets, res.code.rule, source, target, res.shift, r)
    if mismatch is not None:
        return f"found code fails to realize the target at n={mismatch[0]} (radius {r})"
    if not ref.separates(res.code.offsets, res.code.rule, source, query["depth"],
                         query["radius"]):
        return "found code does not separate the source"
    return None


def check(query, inp, res, state):
    kind = query["kind"]
    if kind.startswith("search"):
        return _check_search(query, inp, res, state)
    r = query["radius"]
    if kind == "projection":
        code = inp["code"]
        source = _values(query, inp, "source", -r - query["depth"],
                         r + query["depth"] + code.offsets[-1])
        want = ref.separates(code.offsets, code.rule, source, query["depth"], r)
        return None if res.separates == want else f"separates={res.separates}, reference {want}"
    if kind == "realization":
        # the target is the coded source by construction, up to one planted symbol
        want = None
        if "override" in query["target"]:
            (n, _), = query["target"]["override"]["patch"].items()
            source = ref.SpecOracle(query["source"])
            key = "".join(str(source.value(int(n) + o)) for o in query["offsets"])
            want = (int(n), query["rule"][key], 2)
        got = None if res.agrees else tuple(res.mismatch)
        return None if got == want else f"realization mismatch {got}, reference {want}"
    if kind == "patterns":
        return _check_patterns(query, res)
    if kind == "recur":
        values = _values(query, inp, "oracle", -r, r + query["max_len"] - 1)
        return _check_certificate(query, res, values)
    word = query["word"]
    values = _values(query, inp, "oracle", -r, r + max(word["offsets"]))
    want = values.starts(word["offsets"], word["symbols"], -r, r)
    return None if res == want else "occurrences differ from the reference scan"


def _check_patterns(query, res):
    from itertools import product

    a, b = ref.SpecOracle(query["a"]), ref.SpecOracle(query["b"])
    r = query["radius"]
    va, vb = a.window(-r - 2, r + 2), b.window(-r - 2, r + 2)

    def nonempty(values, gs, eps):
        return any(all(values[g + h + r + 2] == e for g, e in zip(gs, eps))
                   for h in range(-r, r + 1))

    for gs in product(query["shifts"], repeat=query["arity"]):
        for eps in product((0, 1), repeat=query["arity"]):
            na, nb = nonempty(va, gs, eps), nonempty(vb, gs, eps)
            if na != nb:
                ok = (not res.equivalent and res.witness["shifts"] == list(gs)
                      and res.witness["values"] == list(eps))
                return None if ok else "first distinguishing tuple differs from the reference"
    return None if res.equivalent else "patterns distinguished, reference finds none in window"


def _check_certificate(query, res, values):
    r, max_len = query["radius"], query["max_len"]
    gap_bound = max(1, r // 2)
    prefix = values.window(0, max_len - 1)
    worst, violations = 0, []
    for length in range(1, max_len + 1):
        occ = values.starts(list(range(length)), prefix[:length], -r, r)
        gap = max((y - x for x, y in zip(occ, occ[1:])), default=math.inf)
        stats = (gap, occ[0] + r, r - occ[-1]) if occ else (math.inf,) * 3
        if max(stats) <= gap_bound:
            worst = max(worst, max(stats))
        else:
            violations.append((max(stats), -length, length))
    if not violations:
        ok = res.verdict == "verified" and res.g_star == worst
        return None if ok else f"certificate {res.verdict} g*={res.g_star}, reference {worst}"
    length = max(violations)[2]
    if res.verdict == "verified" or len(res.word.symbols) != length:
        return f"certificate {res.verdict}, reference violation at word length {length}"
    if "rotation" in query["oracle"]:
        return None if res.verdict in ("candidate_refutation", "inconclusive") else "bad verdict"
    return None if res.verdict == "candidate_refutation" and not res.exact else "bad verdict"


def shares(state):
    """Found and exhausted shares of the code searches."""
    n = state.get("searches", 0)
    found = state.get("found", 0)
    return {"found_share": found / n if n else 0.0,
            "exhausted_share": (n - found) / n if n else 0.0,
            "searches": n}
