import random

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.algebra import catalog, group_validate
from shiftlab.errors import (
    AlphabetMismatchError,
    GroupIsDedekindError,
    GroupMismatchError,
    GroupNotDedekindError,
    ObservableMissingError,
    SeedMismatchError,
)
from shiftlab.systems import (
    MODES,
    build_orbit_system,
    construct_phi_R,
    dedekind_witness_function,
    equivariant_isomorphism,
    is_furstenberg_system_of,
    partition_labels,
    phi_dedekind,
    product_flip_extension,
    set_partitions,
    shift,
)

CATALOG = catalog()
Z4 = CATALOG["z4"]
S3 = CATALOG["s3"]
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def relabeled(G, k, name):
    """G with element a renamed (a + k) mod |G|: the identity moves off index 0."""
    n = G.order
    table = [[None] * n for _ in range(n)]
    for a in G.elements():
        for b in G.elements():
            table[(a + k) % n][(b + k) % n] = (G.mul(a, b) + k) % n
    return group_validate(table, name=name)


# every catalog group has its identity at index 0; these two do not
RELABELED = [("d4-relabeled", relabeled(CATALOG["d4"], 3, "d4-relabeled")),
             ("s3-relabeled", relabeled(S3, 2, "s3-relabeled"))]
KERNEL_GROUPS = sorted(CATALOG.items()) + RELABELED


def shift_by_mul(G, x, g, shift_mode):
    """Brute-force oracle for shift: one G.mul per coordinate."""
    if shift_mode == "right":
        return tuple(x[G.mul(u, g)] for u in G.elements())
    if shift_mode == "left":
        return tuple(x[G.mul(G.inv(g), u)] for u in G.elements())
    return tuple(x[G.mul(g, u)] for u in G.elements())


def reshift_orbit_system(G, f, mode):
    """Brute-force oracle: (points, act, base, observable) by re-shifting every point."""
    seed = tuple(f[G.inv(g)] for g in G.elements()) if mode == "L" else tuple(f)
    shift_mode = {"R": "right", "L": "left", "Ltilde": "left", "anti": "anti"}[mode]
    points, index = [], {}
    for h in G.elements():
        p = shift_by_mul(G, seed, h, shift_mode)
        if p not in index:
            index[p] = len(points)
            points.append(p)
    act = [[index[shift_by_mul(G, points[i], g, shift_mode)] for i in range(len(points))]
           for g in G.elements()]
    observable = None if mode == "Ltilde" else [p[G.identity] for p in points]
    return points, act, index[seed], observable


def action_law_loop(S, kind):
    """Brute-force oracle: the exhaustive composition-law check, never memoized."""
    G = S.group
    for g in G.elements():
        for h in G.elements():
            gh = G.mul(g, h) if kind == "action" else G.mul(h, g)
            for i in range(len(S.points)):
                if S.act[g][S.act[h][i]] != S.act[gh][i]:
                    return False, (g, h, i)
    return True, None


# -- shift --------------------------------------------------------------------

def test_right_shift_by_identity_is_identity():
    x = (3, 1, 4, 1)
    assert shift(Z4, x, Z4.identity, "right") == x


def test_z4_right_shift_by_one():
    assert shift(Z4, (0, 1, 2, 3), 1, "right") == (1, 2, 3, 0)


def test_left_shifts_compose_as_an_action_on_s3():
    # L_{h2} after L_{h1} equals L_{h2*h1} on sample configs
    random.seed(7)
    for _ in range(5):
        x = tuple(random.randrange(3) for _ in range(6))
        for h1 in S3.elements():
            for h2 in S3.elements():
                lhs = shift(S3, shift(S3, x, h1, "left"), h2, "left")
                assert lhs == shift(S3, x, S3.mul(h2, h1), "left")


def test_shift_rejects_wrong_length():
    with pytest.raises(AlphabetMismatchError):
        shift(Z4, (0, 1), 1, "right")


# -- orbit systems --------------------------------------------------------------

def test_z4_period_two_orbit_has_two_points():
    S = build_orbit_system(Z4, (0, 1, 0, 1), "R")
    assert len(S) == 2


def test_constant_function_gives_one_point_any_mode():
    for mode in ("R", "L", "Ltilde", "anti"):
        assert len(build_orbit_system(S3, (7,) * 6, mode)) == 1


def test_s3_witness_function_orbit_sizes():
    f = dedekind_witness_function(S3)
    assert len(build_orbit_system(S3, f, "R")) == 6
    assert len(build_orbit_system(S3, f, "Ltilde")) == 3


def test_action_laws_hold_exhaustively_on_catalog():
    for name, G in CATALOG.items():
        if G.order > 8:
            continue
        f = tuple(i % 3 for i in range(G.order))
        for mode in ("R", "L", "Ltilde", "anti"):
            S = build_orbit_system(G, f, mode)
            ok, witness = S.satisfies_action_law()
            assert ok, (name, mode, witness)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_GROUPS), st.sampled_from(MODES), st.data())
def test_coset_construction_matches_reshift_oracle(named, mode, data):
    name, G = named
    k = data.draw(st.integers(min_value=1, max_value=4), label="symbols")
    f = data.draw(st.lists(st.integers(0, k - 1), min_size=G.order, max_size=G.order),
                  label="f")
    S = build_orbit_system(G, f, mode)
    points, act, base, observable = reshift_orbit_system(G, f, mode)
    assert S.points == points, (name, mode)
    assert S.act == act, (name, mode)
    assert S.base == base, (name, mode)
    assert S.observable == observable, (name, mode)
    assert S.index == {p: i for i, p in enumerate(points)}
    assert S.action_kind == ("anti_action" if mode == "anti" else "action")


def test_relabeled_groups_put_the_base_off_index_zero():
    for name, G in RELABELED:
        assert G.identity != 0
        f = tuple(range(G.order))
        assert build_orbit_system(G, f, "R").base == reshift_orbit_system(G, f, "R")[2] != 0


def test_memoized_action_law_matches_the_loop():
    for name, G in KERNEL_GROUPS:
        for f in (tuple(i % 3 for i in range(G.order)), tuple(range(G.order))):
            for mode in MODES:
                S = build_orbit_system(G, f, mode)
                for kind in ("action", "anti_action"):
                    assert S.satisfies_action_law(kind) == action_law_loop(S, kind), \
                        (name, mode, kind)


def test_corrupted_table_is_checked_after_a_verified_one():
    for G, f, mode in [(S3, (0, 0, 1, 2, 1, 2), "R"), (S3, (0, 1, 2, 0, 1, 2), "anti"),
                       (CATALOG["q8"], (0, 1, 0, 1, 2, 2, 3, 3), "Ltilde")]:
        verified = build_orbit_system(G, f, mode)
        assert verified.satisfies_action_law() == (True, None)
        S = build_orbit_system(G, f, mode)
        assert S.act == verified.act and S.act is not verified.act
        S.act[1][0] = (S.act[1][0] + 1) % len(S)
        ok, witness = S.satisfies_action_law()
        assert not ok and (ok, witness) == action_law_loop(S, S.action_kind)
        assert verified.act[1][0] != S.act[1][0]
        assert verified.satisfies_action_law() == (True, None)


def test_action_law_memo_holds_one_table_per_stabilizer():
    G = catalog()["s3"]  # a fresh group object with an empty memo
    for f in set_partitions(G.order):
        build_orbit_system(G, f, "R")
    assert len(G._cache["action_law"]) == len(G.subgroups())


def test_mode_l_observable_reproduces_f_along_base():
    f = (0, 1, 2, 0, 1, 2)
    S = build_orbit_system(S3, f, "L")
    assert tuple(S.observable[S.act[g][S.base]] for g in S3.elements()) == f


# -- equivariant isomorphism ------------------------------------------------------

def test_self_isomorphism_exists():
    S = build_orbit_system(S3, (0, 0, 1, 2, 1, 2), "R")
    m = equivariant_isomorphism(S, S)
    assert m is not None and sorted(m) == list(range(len(S)))


def test_abelian_r_vs_naive_left_are_isomorphic():
    A = build_orbit_system(Z4, (0, 1, 2, 3), "R")
    B = build_orbit_system(Z4, (0, 1, 2, 3), "Ltilde")
    assert equivariant_isomorphism(A, B) is not None


def test_s3_witness_r_vs_naive_left_not_isomorphic():
    f = dedekind_witness_function(S3)
    A = build_orbit_system(S3, f, "R")
    B = build_orbit_system(S3, f, "Ltilde")
    assert equivariant_isomorphism(A, B) is None


def test_isomorphism_is_symmetric_and_rechecks():
    for f in [(0, 1, 0, 1), (0, 1, 2, 3), (0, 0, 1, 1)]:
        A = build_orbit_system(Z4, f, "R")
        B = build_orbit_system(Z4, f, "Ltilde")
        ab = equivariant_isomorphism(A, B)
        ba = equivariant_isomorphism(B, A)
        assert (ab is None) == (ba is None)
        if ab is not None:
            for g in Z4.elements():
                for i in range(len(A)):
                    assert ab[A.act[g][i]] == B.act[g][ab[i]]


def test_group_mismatch_raises():
    A = build_orbit_system(Z4, (0, 1, 0, 1), "R")
    B = build_orbit_system(S3, (0, 1, 0, 1, 0, 1), "R")
    with pytest.raises(GroupMismatchError):
        equivariant_isomorphism(A, B)


# -- Furstenberg property -----------------------------------------------------------

def test_right_orbit_system_is_a_furstenberg_system_by_construction():
    f = (0, 0, 1, 2, 1, 2)
    S = build_orbit_system(S3, f, "R")
    res = is_furstenberg_system_of(S, f)
    assert res.accepted
    assert tuple(res.observable[S.act[g][res.base]] for g in S3.elements()) == f


def test_relabeled_query_on_two_point_system():
    S = build_orbit_system(Z4, (0, 1, 0, 1), "R")
    assert is_furstenberg_system_of(S, (1, 0, 1, 0)).accepted


def test_s3_witness_naive_left_is_not_a_furstenberg_system():
    f = dedekind_witness_function(S3)
    S = build_orbit_system(S3, f, "Ltilde")
    res = is_furstenberg_system_of(S, f)
    assert not res.accepted and res.reasons


def test_anti_system_property_tested_not_assumed():
    # abelian: anti-mode orbit systems are Furstenberg systems for every partition
    for name in ("z2", "z3", "z4", "z5", "z2xz2"):
        G = CATALOG[name]
        for f in set_partitions(G.order):
            S = build_orbit_system(G, f, "anti")
            assert is_furstenberg_system_of(S, f).accepted, (name, f)
    # S3: some partition fails
    failing = [f for f in set_partitions(6)
               if not is_furstenberg_system_of(build_orbit_system(S3, f, "anti"), f).accepted]
    assert failing


# -- canonical map --------------------------------------------------------------------

def test_phi_r_on_the_orbit_system_itself_is_an_isomorphism():
    f = (0, 1, 2, 0, 1, 2)
    S = build_orbit_system(S3, f, "R")
    res = construct_phi_R(S, f)
    assert res.verdict == "isomorphism"
    assert res.mapping == list(range(len(S)))


def test_phi_r_on_product_extension_is_a_proper_factor():
    f = (0, 1, 0, 1)
    ext = product_flip_extension(Z4, f)
    res = construct_phi_R(ext, f)
    assert res.verdict == "factor"
    assert res.surjective and not res.injective
    assert len(ext) == 2 * len(res.target)


def test_phi_r_corrupted_observable_raises_seed_mismatch():
    f = (0, 1, 0, 1)
    S = build_orbit_system(Z4, f, "R")
    S.observable = [1 - v for v in S.observable]
    with pytest.raises(SeedMismatchError):
        construct_phi_R(S, f)


def test_phi_r_requires_observable():
    S = build_orbit_system(Z4, (0, 1, 0, 1), "Ltilde")
    with pytest.raises(ObservableMissingError):
        construct_phi_R(S, (0, 1, 0, 1))


# -- Dedekind machinery -----------------------------------------------------------------

def test_witness_function_for_s3_labels_three_cosets():
    f = dedekind_witness_function(S3)
    assert sorted(set(f)) == [1, 2, 3]
    assert all(sum(1 for v in f if v == i) == 2 for i in (1, 2, 3))


def test_witness_function_for_d4_labels_four_cosets():
    f = dedekind_witness_function(CATALOG["d4"])
    assert sorted(set(f)) == [1, 2, 3, 4]
    assert all(sum(1 for v in f if v == i) == 2 for i in (1, 2, 3, 4))


def test_witness_function_rejects_dedekind_groups():
    with pytest.raises(GroupIsDedekindError):
        dedekind_witness_function(Z4)


def test_phi_dedekind_z4_period_two():
    res = phi_dedekind(Z4, (0, 1, 0, 1))
    assert len(res.source) == len(res.target) == 2
    assert sorted(res.mapping) == [0, 1]


def test_phi_dedekind_rejects_s3():
    with pytest.raises(GroupNotDedekindError):
        phi_dedekind(S3, (0, 1, 0, 1, 0, 1))


def test_phi_dedekind_all_partitions_of_q8():
    q8 = CATALOG["q8"]
    count = 0
    for f in set_partitions(8):
        phi_dedekind(q8, f)  # raises on any verification failure
        count += 1
    assert count == BELL[8]


def test_dedekind_dichotomy_on_catalog():
    # all partitions accepted for the naive left system <=> the group is Dedekind
    for name, G in CATALOG.items():
        expected = G.is_dedekind().dedekind
        verdicts = []
        for f in set_partitions(G.order):
            S = build_orbit_system(G, f, "Ltilde")
            ok = is_furstenberg_system_of(S, f).accepted
            verdicts.append(ok)
            if not ok and not expected:
                break  # one failure settles the non-Dedekind direction
        assert all(verdicts) == expected, name


# -- partitions helper ---------------------------------------------------------------------

def test_system_dump_is_stable():
    S = build_orbit_system(Z4, (0, 1, 0, 1), "R")
    assert S.dump() == (
        "group z4 order 4 kind action\n"
        "points 2\n"
        "  p0 = 0,1,0,1\n"
        "  p1 = 1,0,1,0\n"
        "act g=0: 0,1\n"
        "act g=1: 1,0\n"
        "act g=2: 0,1\n"
        "act g=3: 1,0\n"
        "base p0\n"
        "observable 0,1"
    )


def test_set_partition_counts_are_bell_numbers():
    for n in range(1, 7):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]


def test_partition_labels_canonicalizes():
    assert partition_labels((5, 5, 9, 5, 2)) == (0, 0, 1, 0, 2)
