"""group-orbit: one (G, f) at a time through every finite-group verdict.

Groups of order 4 to 16, Dedekind and not, are shared across queries the way
a researcher sweeps many functions on one group; the full set-partition
sweep of Q8 rides along in seeded order, and a few eqtech searches at
support bounds 6 to 10.  No quadratic arithmetic and no oracle runs here.
"""

from __future__ import annotations

import reference as ref

NAME = "group-orbit"
MODULES = ("shiftlab.algebra", "shiftlab.systems", "shiftlab.recurrence")
RATE = 400          # queries per second at the seed, used only to size the query list
BUILD_IN_SETUP = True
CHILD_PROCESSES = False

# Strata of one block: every block of 20 queries has exactly this make-up, so
# the latency quantiles sit inside a stratum rather than on an edge between two:
# the median among the order-8 queries, the 90th percentile among order 16.
STRATA = [
    ("pair", ("z16", "q8xz2", "d4xz2", "z4xz4", "z2xz8"), 4),
    ("pair", ("z12", "s3xz2", "z2xz6"), 2),
    ("pair", ("z8", "z9", "z10", "z2xz4", "z2xz2xz2", "d4", "q8"), 4),
    ("pair", ("z4", "z5", "z6", "z7", "z2xz2", "s3"), 3),
    ("sweep", ("q8",), 6),
    ("eqtech", (), 1),
]
BLOCK_SIZE = sum(n for _, _, n in STRATA)
SWEEP_GROUP = "q8"
WARMUP_GROUPS = ("z3", "z2")


def _partitions(n):
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for lab in range(top + 2):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0)


ORDERS = {"z16": 16, "q8xz2": 16, "d4xz2": 16, "z4xz4": 16, "z2xz8": 16, "z12": 12,
          "s3xz2": 12, "z2xz6": 12, "z8": 8, "z9": 9, "z10": 10, "z2xz4": 8, "z2xz2xz2": 8,
          "d4": 8, "q8": 8, "z4": 4, "z5": 5, "z6": 6, "z7": 7, "z2xz2": 4, "s3": 6,
          "z3": 3, "z2": 2}


def _pair(rng, qid, group):
    k = rng.randint(2, 4)
    return {"id": qid, "kind": "pair", "group": group,
            "f": [rng.randrange(k) for _ in range(ORDERS[group])]}


def _eqtech(rng, qid):
    bound = rng.randint(6, 10)
    S = [[rng.randrange(3), sorted(rng.sample(range(1, bound + 1), rng.randint(0, 3)))]
         for _ in range(rng.randint(1, 3))]
    return {"id": qid, "kind": "eqtech", "S": S, "bound": bound}


def make_queries(rng, count):
    sweep = list(_partitions(ORDERS[SWEEP_GROUP]))
    rng.shuffle(sweep)
    out = []
    while len(out) < count or sweep:
        block = []
        for kind, groups, n in STRATA:
            for _ in range(n):
                if kind == "pair":
                    block.append(_pair(rng, 0, rng.choice(groups)))
                elif kind == "sweep":
                    f = sweep.pop() if sweep else [rng.randrange(3) for _ in range(8)]
                    block.append({"id": 0, "kind": "pair", "group": SWEEP_GROUP,
                                  "f": list(f), "sweep": True})
                else:
                    block.append(_eqtech(rng, 0))
        rng.shuffle(block)
        out.extend(block)
    for i, q in enumerate(out):
        q["id"] = i
    return out


def make_warmup(rng):
    return [_pair(rng, -1, g) for g in WARMUP_GROUPS] + [_eqtech(rng, -1)]


def _groups(names):
    from shiftlab import algebra

    cat = algebra.catalog()
    z = algebra.cyclic_group
    built = {}
    for name in names:
        if name in cat:
            built[name] = cat[name]
        elif name.startswith("z") and "x" not in name:
            built[name] = z(int(name[1:]))
        else:
            parts = name.split("x")
            left = cat.get(parts[0]) or z(int(parts[0][1:]))
            right = z(int(parts[1][1:]))
            built[name] = algebra.direct_product(left, right, name)
    return built


def build(queries):
    """Group objects (shared per name) and Z/3Z+B elements for every query."""
    from shiftlab import algebra

    groups = _groups(sorted({q["group"] for q in queries if q["kind"] == "pair"}))
    inputs = []
    for q in queries:
        if q["kind"] == "pair":
            inputs.append((groups[q["group"]], tuple(q["f"])))
        else:
            inputs.append([algebra.Z3BElement(r, frozenset(s)) for r, s in q["S"]])
    return inputs


def run(query, inp):
    from shiftlab import recurrence, systems

    if query["kind"] == "eqtech":
        return recurrence.eqtech_search(inp, query["bound"])
    G, f = inp
    R = systems.build_orbit_system(G, f, "R")
    L = systems.build_orbit_system(G, f, "L")
    Lt = systems.build_orbit_system(G, f, "Ltilde")
    anti = systems.build_orbit_system(G, f, "anti")
    out = {
        "R": R, "L": L, "Ltilde": Lt, "anti": anti,
        "iso": systems.equivariant_isomorphism(R, Lt),
        "furst_R": systems.is_furstenberg_system_of(R, f),
        "furst_Ltilde": systems.is_furstenberg_system_of(Lt, f),
        "phi_R": systems.construct_phi_R(L, f),
        "dedekind": bool(G.is_dedekind()),
    }
    if out["dedekind"]:
        out["phi_dedekind"] = systems.phi_dedekind(G, f)
    return out


def check(query, inp, out, state):
    """None when the verdicts agree with the brute-force references, else why not."""
    if query["kind"] == "eqtech":
        if not out.found:
            return "eqtech search reported no witness"
        S = [(r, frozenset(s)) for r, s in query["S"]]
        c, x = (out.c.r, out.c.support), (out.x.r, out.x.support)
        return None if ref.eqtech_witness_holds(S, c, x) else "eqtech witness does not hold"
    G, f = inp
    table, inv = G.table, G.inverse
    known = state.setdefault("dedekind", {})
    if table not in known:
        known[table] = ref.is_dedekind(table, G.identity)
    dedekind = known[table]
    if out["dedekind"] != dedekind:
        return "Dedekind test disagrees with cyclic-subgroup normality"
    modes = {"R": ("right", f), "Ltilde": ("left", f), "anti": ("anti", f),
             "L": ("left", tuple(f[inv[g]] for g in range(G.order)))}
    acts, of_elem = {}, {}
    for key, (mode, seed) in modes.items():
        points, act, of_elem[key] = ref.coset_system(table, inv, seed, mode)
        if out[key].points != points or [list(row) for row in out[key].act] != act:
            return f"{key} orbit system differs from the coset construction"
        acts[key] = act
    partitions = state.setdefault("partitions", set())
    key = (query["group"], tuple(of_elem["R"]))
    state["pairs"] = state.get("pairs", 0) + 1
    state["repeats"] = state.get("repeats", 0) + (key in partitions)
    state["dedekind_pairs"] = state.get("dedekind_pairs", 0) + dedekind
    partitions.add(key)
    iso = out["iso"]
    if len(out["R"].points) <= 8:
        exists = ref.isomorphism_exists(acts["R"], acts["Ltilde"])
    else:
        exists = ref.stabilizers_conjugate(table, inv, G.identity, of_elem["R"], of_elem["Ltilde"])
    if (iso is not None) != exists:
        return "equivariant isomorphism verdict disagrees with the reference"
    if iso is not None and not ref.is_equivariant_bijection(iso, acts["R"], acts["Ltilde"]):
        return "returned bijection is not equivariant"
    if dedekind and not exists:
        return "Dedekind group without R ~ Ltilde"
    if not out["furst_R"].accepted:
        return "R orbit system rejected as a Furstenberg system of f"
    if out["furst_Ltilde"].accepted != exists:
        return "Ltilde Furstenberg verdict disagrees with R ~ Ltilde"
    phi = out["phi_R"]
    same_size = len(out["L"].points) == len(out["R"].points)
    if (phi.verdict == "isomorphism") != same_size:
        return "phi_R verdict disagrees with the orbit sizes"
    if dedekind:
        pd = out["phi_dedekind"]
        if pd.source.points != out["R"].points or pd.target.points != out["Ltilde"].points \
                or not ref.is_equivariant_bijection(pd.mapping, acts["R"], acts["Ltilde"]):
            return "phi_dedekind is not an equivariant bijection"
    return None


def shares(state):
    """Share of pair queries repeating an earlier point partition on the same group
    (the structure an act-table cache could reuse), and the Dedekind share."""
    pairs = state.get("pairs", 0)
    return {"partition_repeat_share": state.get("repeats", 0) / pairs if pairs else 0.0,
            "dedekind_share": state.get("dedekind_pairs", 0) / pairs if pairs else 0.0,
            "pair_queries": pairs}
