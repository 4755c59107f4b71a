"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (pytest reports the
failure otherwise) and asserts the criterion's wall-clock budget.
"""

import random
import time
from fractions import Fraction

from shiftlab.algebra import (
    QuadraticNumber,
    Z3B_IDENTITY,
    catalog,
    cyclic_group,
    frac_part,
    solve_hit,
    subgroups,
    z3b,
)
from shiftlab.codes import (
    apply_code,
    intersection_pattern_check,
    parity_code,
    search_isomorphism_code,
    verify_generalized_projection,
    verify_realization,
    windowed_orbit_representatives,
)
from shiftlab.recurrence import eqtech_search, reverify_eqtech
from shiftlab.rotation import (
    boundary_hits,
    classify_minimality,
    classify_word,
    strongly_dyn_syndetic,
    word_locus,
)
from shiftlab.systems import (
    FiniteSystem,
    build_orbit_system,
    construct_phi_R,
    dedekind_witness_function,
    equivariant_isomorphism,
    is_furstenberg_system_of,
    phi_dedekind,
    set_partitions,
)
from shiftlab.zshift import (
    PeriodicOracle,
    RotationOracle,
    WordPattern,
    occurrences,
    uniform_recurrence_certificate,
)
from shiftlab.cli.repro import (
    ALPHA,
    PINNED_A,
    PINNED_B,
    STEP,
    STEP_FROM_ONE,
    ZERO,
    four_colouring_coding,
    sturmian_coding,
    third_interval_coding,
)

from circle_reference import contains
from systems_reference import product_flip_extension

CATALOG = catalog()


class StopWatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, \
                f"budget {self.budget}s exceeded: {self.elapsed:.2f}s"


def report(number, text):
    print(f"ACCEPTANCE {number:>2} PASS  {text}")


def test_criterion_01_periodic_rotation_examples():
    with StopWatch(1.0) as clock:
        for r in range(2, 7):
            G = cyclic_group(r)
            f = tuple(range(r))
            system = build_orbit_system(G, f, "R")
            assert len(system.points) == r
            assert is_furstenberg_system_of(system, f).accepted
            reps = windowed_orbit_representatives(PeriodicOracle(f), depth=r, radius=1000)
            assert len(reps) == r
    report(1, f"periodic orbits have exactly r points for r=2..6 ({clock.elapsed:.2f}s)")


def test_criterion_02_parity3_isomorphism_certificate():
    with StopWatch(10.0) as clock:
        code = parity_code((0, 1, 2))
        image = apply_code(code, PINNED_B)
        assert image.window(-10**4, 10**4) == PINNED_A.window(-10**4, 10**4)
        search = search_isomorphism_code(PINNED_A, PINNED_B, 3, 6, 10**3)
        assert search.found and search.realization.agrees and search.projection.separates
        proj = verify_generalized_projection(code, PINNED_B, 6, 10**3)
        assert proj.separates
    report(2, f"span-3 code realizes and separates the pinned pair ({clock.elapsed:.2f}s)")


def test_criterion_03_parity2_fails_separation_exactly():
    with StopWatch(5.0) as clock:
        code = parity_code((0, 1))
        assert verify_realization(code, PINNED_B, STEP_FROM_ONE, 10**4).agrees
        proj = verify_generalized_projection(code, PINNED_B, 6, 10**3)
        assert not proj.separates and proj.exact
        period2 = {tuple(i % 2 for i in range(13)), tuple((i + 1) % 2 for i in range(13))}
        assert set(proj.witness) == period2
    report(3, f"width-2 parity realizes but fails on both period-2 limit words "
              f"({clock.elapsed:.2f}s)")


def test_criterion_04_step_vs_zero():
    with StopWatch(5.0) as clock:
        search = search_isomorphism_code(STEP, ZERO, 3, 6, 10**3)
        assert not search.found
        patterns = intersection_pattern_check(STEP, ZERO, [0], 1, 100)
        assert not patterns.equivalent and patterns.exact
    report(4, f"step sequence vs zero: search exhausts, patterns distinguish "
              f"({clock.elapsed:.2f}s)")


def test_criterion_05_sturmian_non_minimal():
    with StopWatch(1.0) as clock:
        coding = sturmian_coding()
        word = WordPattern((0, 1), (0, 0))
        wc = classify_word(coding, word)
        assert wc.kind == "finite" and wc.occurrences == [1]
        res = classify_minimality(coding)
        assert not res.minimal
        assert res.witness.symbols == (0, 0) and res.witness.offsets == (0, 1)
        cert = uniform_recurrence_certificate(RotationOracle(coding), 3, 10**4)
        assert cert.verdict == "candidate_refutation" and cert.exact
        assert occurrences(RotationOracle(coding), word, -10**4, 10**4) == [1]
    report(5, f"the double-zero word occurs exactly once at 1 ({clock.elapsed:.2f}s)")


def test_criterion_06_middle_third_minimal():
    with StopWatch(2.0) as clock:
        coding = third_interval_coding()
        assert boundary_hits(coding) == []
        assert strongly_dyn_syndetic(coding, 1).strongly
        assert classify_minimality(coding).minimal
        cert = uniform_recurrence_certificate(RotationOracle(coding), 8, 10**4)
        assert cert.verdict == "verified"
    report(6, f"middle-third set is strongly dynamically syndetic and minimal "
              f"({clock.elapsed:.2f}s)")


def test_criterion_07_four_colouring():
    with StopWatch(2.0) as clock:
        coding = four_colouring_coding()
        res = classify_minimality(coding, scope="colouring")
        assert not res.minimal
        assert res.witness.symbols == (1, 2, 2) and res.witness.offsets == (0, 1, 2)
        assert res.occurrences == [0]
        assert not res.locus.has_interior()
        assert [str(p) for p in res.locus.points] == ["0"]
        assert sorted(res.per_label) == [1, 2, 3, 4]
        assert all(sub.minimal for sub in res.per_label.values())
    report(7, f"non-minimal colouring with all four colours minimal ({clock.elapsed:.2f}s)")


def test_criterion_08_dedekind_catalog():
    with StopWatch(60.0) as clock:
        for name, G in CATALOG.items():
            expected = name not in ("s3", "d4")
            assert G.is_dedekind().dedekind == expected, name
        for name in ("s3", "d4"):
            G = CATALOG[name]
            f = dedekind_witness_function(G)
            left = build_orbit_system(G, f, "Ltilde")
            right = build_orbit_system(G, f, "R")
            assert not is_furstenberg_system_of(left, f).accepted
            assert equivariant_isomorphism(right, left) is None
        small_abelian = [n for n, g in CATALOG.items()
                         if g.order <= 6 and g.is_dedekind().dedekind and n != "q8"]
        for name in small_abelian + ["q8"]:
            G = CATALOG[name]
            count = 0
            for f in set_partitions(G.order):
                phi_dedekind(G, f)
                count += 1
            assert count == {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 8: 4140}[G.order]
    report(8, f"Dedekind dichotomy and the coset isomorphism verify on the catalog "
              f"({clock.elapsed:.2f}s)")


def test_criterion_09_eqtech_witnesses():
    for label, S in (("identity", [Z3B_IDENTITY]), ("one-block", [z3b(1, {1, 2})])):
        with StopWatch(30.0) as clock:
            res = eqtech_search(S, 8)
            assert res.found
            assert reverify_eqtech(res, S)
    report(9, "two-part witnesses found and reverified for both contexts")


def _permuted_copy(system, rng):
    order = list(range(len(system.points)))
    rng.shuffle(order)
    inverse = [0] * len(order)
    for new, old in enumerate(order):
        inverse[old] = new
    points = [system.points[old] for old in order]
    act = [[inverse[system.act[g][order[i]]] for i in range(len(points))]
           for g in system.group.elements()]
    obs = [system.observable[order[i]] for i in range(len(points))]
    return FiniteSystem(group=system.group, points=points, act=act,
                        base=inverse[system.base], observable=obs,
                        action_kind=system.action_kind,
                        index={p: i for i, p in enumerate(points)})


def test_criterion_10_uniqueness_property_suite():
    rng = random.Random(20260810)
    names = [n for n, g in CATALOG.items() if 2 <= g.order <= 8]
    with StopWatch(30.0) as clock:
        for _ in range(100):
            G = CATALOG[rng.choice(names)]
            f = tuple(rng.randrange(3) for _ in range(G.order))
            system = _permuted_copy(build_orbit_system(G, f, "R"), rng)
            accepted = is_furstenberg_system_of(system, f)
            assert accepted.accepted
            system.base = accepted.base
            system.observable = accepted.observable
            res = construct_phi_R(system, f)
            assert res.verdict == "isomorphism"
            extension = product_flip_extension(G, f)
            ext_res = construct_phi_R(extension, f)
            assert ext_res.verdict == "factor"
            assert ext_res.surjective and not ext_res.injective
    report(10, f"100 randomized fixtures map isomorphically; extensions only factor "
               f"({clock.elapsed:.2f}s)")


def brute_force_subgroups(G):
    out = []
    for mask in range(1 << G.order):
        S = [i for i in range(G.order) if mask >> i & 1]
        if G.identity not in S:
            continue
        sset = set(S)
        if all(G.mul(a, b) in sset for a in S for b in S) and \
                all(G.inv(a) in sset for a in S):
            out.append(tuple(S))
    return sorted(out, key=lambda t: (len(t), t))


def test_criterion_11_oracle_equivalence_suites():
    mismatches = 0
    # rotation loci against windowed brute force
    fixtures = [
        (sturmian_coding(), [WordPattern((0, 1), (0, 0)), WordPattern((0,), (1,)),
                             WordPattern((0, 1), (1, 0)), WordPattern((0, 2), (0, 0))]),
        (third_interval_coding(), [WordPattern((0,), (1,)), WordPattern((0, 1), (1, 1))]),
        (four_colouring_coding(), [WordPattern((0, 1, 2), (1, 2, 2)),
                                   WordPattern((0,), (4,)), WordPattern((0, 1), (2, 2))]),
    ]
    for coding, words in fixtures:
        oracle = RotationOracle(coding)
        buf = oracle.window(-2000 - 3, 2000 + 3)
        for word in words:
            J = word_locus(coding, word)
            for h in range(-2000, 2001):
                direct = all(buf[h + o + 2003] == s
                             for o, s in zip(word.offsets, word.symbols))
                if direct != contains(J, frac_part(h * coding.alpha + coding.base)):
                    mismatches += 1
    # solve_hit against a brute-force orbit scan
    points = [ALPHA, 2 * ALPHA, QuadraticNumber(Fraction(1, 7)),
              QuadraticNumber(Fraction(6, 7)), 5 * ALPHA, QuadraticNumber(0)]
    walk = {}
    x = frac_part(QuadraticNumber(-10**4) * ALPHA)
    for n in range(-10**4, 10**4 + 1):
        walk.setdefault(x, n)
        x = frac_part(x + ALPHA)
    for p in points:
        expected = walk.get(frac_part(p))
        got = solve_hit(ALPHA, p)
        if got is None:
            if expected is not None:
                mismatches += 1
        elif frac_part(got * ALPHA) != frac_part(p):
            mismatches += 1
        elif expected is not None and expected != got:
            mismatches += 1
    # subgroup enumeration against the subset oracle
    for name, G in CATALOG.items():
        if subgroups(G) != brute_force_subgroups(G):
            mismatches += 1
    assert mismatches == 0
    report(11, "word loci, hit solving and subgroup enumeration match brute force")
