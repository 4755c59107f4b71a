import random
from unittest import mock

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
    VerificationFailedError,
)
from shiftlab import systems
from shiftlab.systems import (
    MODES,
    FiniteSystem,
    build_orbit_system,
    construct_phi_R,
    dedekind_witness_function,
    equivariant_isomorphism,
    is_furstenberg_system_of,
    phi_dedekind,
    set_partitions,
    shift,
)

from systems_reference import product_flip_extension

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


def reshift_pairing(G, f, source, target):
    """Brute-force oracle for the coset pairing of phi_dedekind: shift f by
    each h both ways and look both configs up."""
    mapping = [None] * len(source.points)
    for h in G.elements():
        i = source.index[shift(G, f, h, "right")]
        j = target.index[shift(G, f, h, "left")]
        assert mapping[i] in (None, j), "pairing is not well defined"
        mapping[i] = j
    return mapping


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



# -- the forced orbit map, written out by hand once per verdict: oracles for
# _orbit_map, _is_equivariant and _readings --------------------------------------

def isomorphism_loop(S1, S2):
    """Oracle for equivariant_isomorphism on compatible systems."""
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


def furstenberg_loop(S, f):
    """Oracle for is_furstenberg_system_of: (accepted, base, observable, reasons)."""
    ok, witness = action_law_loop(S, "action")
    if not ok:
        return False, None, None, [
            f"shift family is not an action: law fails at (g,h,point)={witness}"]
    G = S.group
    npts = len(S.points)
    reasons = []
    for a in range(npts):
        if len({S.act[g][a] for g in G.elements()}) != npts:
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
        sigs = [tuple(F[S.act[g][i]] for g in G.elements()) for i in range(npts)]
        if len(set(sigs)) == npts:
            return True, a, F, reasons
        seen = {}
        pair = None
        for i, sig in enumerate(sigs):
            if sig in seen:
                pair = (seen[sig], i)
                break
            seen[sig] = i
        reasons.append(f"candidate {a}: observable orbit does not separate points {pair}")
    if not reasons:
        reasons.append("system has no transitive point")
    return False, None, None, reasons


def pairing_loop(source, target):
    """Oracle for the verified coset pairing of phi_dedekind."""
    G = source.group
    mapping = [None] * len(source.points)
    for h in G.elements():
        i, j = source.act[h][source.base], target.act[h][target.base]
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
    return mapping


def canonical_map_loop(S, f):
    """Oracle for construct_phi_R on a system with an observable: (mapping, verdict)."""
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
    if set(mapping) != set(range(len(target.points))):
        raise VerificationFailedError("canonical map is not surjective")
    return mapping, "isomorphism" if len(set(mapping)) == len(mapping) else "factor"

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
        # the corruption reached neither the memo nor a later build
        third = build_orbit_system(G, f, mode)
        assert third.dump() == verified.dump() and third.act == verified.act


def test_build_raises_on_the_law_verdict_of_its_act_entry():
    # every real group satisfies the law, so a failing verdict is planted:
    # it is computed once, when the act entry is made, and every build that
    # reads the entry raises on it
    G = catalog()["s3"]  # a fresh group object with an empty memo
    with mock.patch.object(systems, "_action_law_witness", return_value=(False, (1, 2, 0))):
        with pytest.raises(VerificationFailedError, match=r"composition law fails at \(1, 2, 0\)"):
            build_orbit_system(G, (0, 0, 1, 2, 1, 2), "R")
    with pytest.raises(VerificationFailedError, match="composition law fails"):
        build_orbit_system(G, (0, 0, 1, 2, 1, 2), "R")
    (law,) = G._cache["action_law"].values()
    assert law == (False, (1, 2, 0))


def test_action_law_memo_holds_one_table_per_stabilizer():
    G = catalog()["s3"]  # a fresh group object with an empty memo
    for f in set_partitions(G.order):
        build_orbit_system(G, f, "R")
    assert len(G._cache["action_law"]) == len(G.subgroups())


def coset_labels(G, H, side):
    """Each element's coset of H (hH on the left, Hh on the right), labelled
    in order of first appearance: an oracle for the act memo's keys."""
    labels, out = {}, []
    for h in G.elements():
        coset = frozenset(G.mul(h, k) if side == "left" else G.mul(k, h) for k in H)
        out.append(labels.setdefault(coset, len(labels)))
    return tuple(out)


def test_act_memo_holds_one_table_per_kind_and_coset_partition():
    # shifts that act compose as R_g R_h = R_gh, so the orbit's points are the
    # left cosets of the stabilizer; the anti shifts' points are right cosets
    G = catalog()["s3"]  # a fresh group object with an empty memo
    for f in set_partitions(G.order):
        for mode in MODES:
            build_orbit_system(G, f, mode)
    want = ({("action", coset_labels(G, H, "left")) for H in G.subgroups()}
            | {("anti_action", coset_labels(G, H, "right")) for H in G.subgroups()})
    assert len(want) == 2 * len(G.subgroups())
    assert set(G._cache["act"]) == want


def test_kernel_groups_sweep_every_partition_memo_cold_and_warm():
    """Every set partition of every kernel group of order <= 6, in every mode:
    built on a cleared memo, again on the filled one, and on a twin group
    whose memo fills across the sweep, each against the re-shift oracle."""
    cases = 0
    for name, G in KERNEL_GROUPS:
        if G.order > 6:
            continue
        twin = group_validate(G.table, name=name)
        x = tuple(range(G.order))
        for mode in ("right", "left", "anti"):
            for g in G.elements():
                assert shift(G, x, g, mode) == shift_by_mul(G, x, g, mode), (name, mode, g)
        for f in set_partitions(G.order):
            for mode in MODES:
                points, act, base, observable = reshift_orbit_system(G, f, mode)
                G._cache.clear()
                built = [build_orbit_system(H, f, mode) for H in (G, G, twin)]
                for S in built:
                    assert (S.points, S.act, S.base, S.observable) == (
                        points, act, base, observable), (name, f, mode)
                    assert S.index == {p: i for i, p in enumerate(points)}
                cold, warm, _ = built
                assert warm.act is not cold.act
                assert not set(map(id, cold.act)) & set(map(id, warm.act))
                cases += 1
    assert cases == 4 * sum(BELL[G.order] for _, G in KERNEL_GROUPS if G.order <= 6)


def test_shift_on_the_trivial_group_returns_a_one_tuple():
    z1 = CATALOG["z1"]
    for mode in ("right", "left", "anti"):
        assert shift(z1, (5,), 0, mode) == (5,)
        assert shift(z1, [5], 0, mode) == (5,)
    for mode in MODES:
        S = build_orbit_system(z1, ("a",), mode)
        assert S.points == [("a",)] and S.act == [[0]] and S.base == 0


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


def test_product_extension_matches_the_config_round_trip():
    # reference: act found by looking each shifted (config, bit) pair up
    for G, f in ((Z4, (0, 1, 0, 1)), (S3, (0, 1, 2, 0, 1, 2)), (CATALOG["q8"], tuple(range(8)))):
        ext = product_flip_extension(G, f)
        inner = build_orbit_system(G, f, "R")
        index = {p: i for i, p in enumerate(ext.points)}
        act = [[index[(inner.points[inner.act[g][inner.index[p]]], bit)] for p, bit in ext.points]
               for g in G.elements()]
        assert ext.act == act
        assert ext.points[ext.base] == (inner.points[inner.base], 0)
        assert ext.index == index


def test_phi_r_corrupted_observable_raises_seed_mismatch():
    f = (0, 1, 0, 1)
    S = build_orbit_system(Z4, f, "R")
    S.observable = [1 - v for v in S.observable]
    with pytest.raises(SeedMismatchError):
        construct_phi_R(S, f)


@pytest.mark.parametrize("f", [(0, 1), (0, 1, 0, 1, 0)])
def test_phi_r_rejects_a_function_of_the_wrong_length(f):
    # the same error and message as the Furstenberg check, shorter or longer
    S = build_orbit_system(Z4, (0, 1, 0, 1), "R")
    with pytest.raises(GroupMismatchError) as want:
        is_furstenberg_system_of(S, f)
    with pytest.raises(GroupMismatchError, match=f"^{want.value}$"):
        construct_phi_R(S, f)


def test_phi_r_requires_observable():
    S = build_orbit_system(Z4, (0, 1, 0, 1), "Ltilde")
    with pytest.raises(ObservableMissingError):
        construct_phi_R(S, (0, 1, 0, 1))


# -- the forced-map verdicts against the hand-written loops ---------------------------

def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def corrupt(S, edit):
    """S with one act entry (or observable value) overwritten; None leaves it."""
    if edit is not None:
        row, i, value = edit
        if row < len(S.act):
            S.act[row][i % len(S)] = value % len(S)
        elif S.observable is not None:
            S.observable[i % len(S)] = value
    return S


@st.composite
def kernel_case(draw):
    _, G = draw(st.sampled_from(KERNEL_GROUPS), label="group")
    k = draw(st.integers(min_value=1, max_value=4), label="symbols")
    f = tuple(draw(st.lists(st.integers(0, k - 1), min_size=G.order, max_size=G.order),
                   label="f"))
    f2 = draw(st.sampled_from((f, tuple(draw(st.permutations(f))))), label="f2")
    edit = st.tuples(st.integers(0, G.order), st.integers(0, G.order - 1),
                     st.integers(0, G.order))
    edits = draw(st.lists(st.none() | edit, min_size=3, max_size=3), label="edits")
    return G, f, f2, edits


@settings(max_examples=200, deadline=None)
@given(kernel_case(), st.sampled_from(MODES), st.sampled_from(MODES))
def test_forced_map_verdicts_match_the_hand_written_loops(case, mode1, mode2):
    G, f, f2, (edit1, edit2, edit_dedekind) = case
    S1 = corrupt(build_orbit_system(G, f, mode1), edit1)
    S2 = corrupt(build_orbit_system(G, f2, mode2), edit2)
    if (mode1 == "anti") == (mode2 == "anti"):
        assert equivariant_isomorphism(S1, S2) == isomorphism_loop(S1, S2)
    else:
        with pytest.raises(GroupMismatchError):
            equivariant_isomorphism(S1, S2)
    for S, g in ((S1, f), (S2, f2), (S1, f2)):
        res = is_furstenberg_system_of(S, g)
        assert (res.accepted, res.base, res.observable, res.reasons) == furstenberg_loop(S, g)
    for S, g in ((S1, f), (S2, f2), (corrupt(product_flip_extension(G, f), edit2), f)):
        if S.observable is not None:
            got, want = phi_r_outcomes(S, g)
            assert got == want
    if G.is_dedekind().dedekind:
        got, want = dedekind_outcomes(G, f, edit_dedekind)
        assert got == want


def phi_r_outcomes(S, f):
    """construct_phi_R's (mapping, verdict) and the oracle's, or what each raised."""
    got = outcome(construct_phi_R, S, f)
    got = (got.mapping, got.verdict) if isinstance(got, systems.PhiRResult) else got
    return got, outcome(canonical_map_loop, S, f)


def dedekind_outcomes(G, f, edit):
    """phi_dedekind's mapping and the oracle pairing's, both on a corrupted target."""
    build = systems.build_orbit_system

    def corrupted_build(G, f, mode):
        S = build(G, f, mode)
        return corrupt(S, edit) if mode == "Ltilde" else S

    with mock.patch.object(systems, "build_orbit_system", corrupted_build):
        got = outcome(phi_dedekind, G, f)
    got = got.mapping if isinstance(got, systems.PhiDedekindResult) else got
    return got, outcome(pairing_loop, build(G, f, "R"), corrupted_build(G, f, "Ltilde"))


def test_every_one_entry_corruption_fails_alike():
    """Each single-entry corruption of a small system: same verdict or same error
    as the oracles, and between them they reach every re-check failure."""
    failures = set()
    for name, G in KERNEL_GROUPS:
        f = tuple(i % 3 for i in range(G.order))
        for edit in [(g, i, v) for g in range(G.order + 1) for i in range(3) for v in range(3)]:
            S = corrupt(build_orbit_system(G, f, "R"), edit)
            T = build_orbit_system(G, f, "Ltilde")
            for pair in ((S, T), (T, S)):
                assert outcome(equivariant_isomorphism, *pair) == outcome(isomorphism_loop, *pair)
            pairs = [phi_r_outcomes(S, f)]
            if G.is_dedekind().dedekind:
                pairs.append(dedekind_outcomes(G, f, edit))
            for got, want in pairs:
                assert got == want, (name, edit)
                if isinstance(got, tuple) and got[0] is VerificationFailedError:
                    failures.add(got[1].split(" of point")[0])
    # a base that is not transitive leaves the forced map partial, with
    # as many distinct entries (None among them) as there are points
    partial = FiniteSystem(group=CATALOG["z2"], points=[(0,), (1,), (2,)],
                           act=[[0, 1, 2], [1, 0, 2]], base=0, observable=None)
    assert equivariant_isomorphism(partial, partial) is None
    assert isomorphism_loop(partial, partial) is None
    assert failures == {"image", "canonical map is not equivariant",
                        "coset pairing is not well defined", "coset pairing is not a bijection",
                        "coset pairing is not equivariant"}


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


def test_coset_pairing_matches_reshift_oracle():
    groups = 0
    for name, G in sorted(CATALOG.items()):
        if not G.is_dedekind().dedekind:
            continue
        groups += 1
        for f in set_partitions(G.order):
            res = phi_dedekind(G, f)
            assert res.mapping == reshift_pairing(G, f, res.source, res.target), (name, f)
    assert groups == 12


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
