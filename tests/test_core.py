"""Separation-system predicates against naive oracles and hand-built posets."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (constant_order, is_nested_set, naive_closure,
                     naive_consistent_orientations, naive_is_consistent)
from tanglekit.core import iter_mask, mask_of
from tanglekit.errors import (
    SystemValidationError,
    UnknownHandle,
)
from tanglekit.ingest import from_relation, system_from_json
from tanglekit.tot import distinguisher_report
from tanglekit.universe import bipartition_universe, restrict_Sk

ALL_SYSTEMS = "p3 bip2 bip3 ptriv chain2 single".split()


def system_of(request, name):
    obj = request.getfixturevalue(name)
    return obj[0] if isinstance(obj, tuple) else obj


# -- validation ----------------------------------------------------------------


def test_reflexive_added_implicitly():
    s = from_relation([1, 0], [])
    assert s.leq(0, 0) and s.leq(1, 1)


def test_antisymmetry_violation_reported():
    with pytest.raises(SystemValidationError) as e:
        from_relation([1, 0, 3, 2], [(0, 2), (2, 0)])
    assert e.value.axiom == "antisymmetry"
    assert set(e.value.witness) == {0, 2}


def test_transitivity_violation_reported():
    with pytest.raises(SystemValidationError) as e:
        from_relation(
            [1, 0, 3, 2, 5, 4], [(0, 2), (2, 4), (5, 3), (3, 1)])
    assert e.value.axiom == "transitivity"


def test_order_reversing_violation_reported():
    # r -> < s -> without the dual s<- < r<-
    with pytest.raises(SystemValidationError) as e:
        from_relation([1, 0, 3, 2], [(0, 2)])
    assert e.value.axiom == "involution-order-reversing"


def test_involution_must_be_self_inverse():
    with pytest.raises(SystemValidationError):
        from_relation([1, 2, 0], [])


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_order_reversal_exhaustive(request, name):
    s = system_of(request, name)
    for a in s.elements():
        for b in s.elements():
            if s.leq(a, b):
                assert s.leq(s.inv(b), s.inv(a))


# -- degeneracy hierarchy -------------------------------------------------------


def test_classify_graph_degenerate_and_small(p3):
    u, _ = p3
    degen = [h for h in u.elements() if u.is_degenerate(h)]
    assert [u.label(h) for h in degen] == ["{a,b,c}|{a,b,c}"]
    # the small separations of a graph are exactly the (V,A) ones
    for h in u.elements():
        assert u.is_small(h) == u.label(h).startswith("{a,b,c}|")


def test_classify_ptriv(ptriv):
    h = {ptriv.label(h): h for h in ptriv.elements()}
    assert ptriv.is_trivial(h["s>"]) and not ptriv.is_small(h["s>"])
    assert ptriv.is_cotrivial(h["s<"]) and ptriv.is_small(h["s<"])
    assert not ptriv.is_trivial(h["r>"]) and not ptriv.is_trivial(h["r<"])


def test_regular_flag(chain2):
    # regular: no element is small
    assert not any(chain2.is_small(h) for h in chain2.elements())


# -- stars ----------------------------------------------------------------------


def label_set(u, labels):
    by = {u.label(h): h for h in u.elements()}
    return {by[l] for l in labels}


def test_star_nested_pair_pointing_towards(p3):
    # figure-one shape: r = ({a,b},{b,c}), s = {V,{c}} with B >= D and C >= A
    u, _ = p3
    sigma = label_set(u, ["{a,b}|{b,c}", "{c}|{a,b,c}"])
    assert u.is_star_mask(mask_of(sigma))


def test_empty_star(p3):
    assert p3[0].is_star_mask(mask_of(set()))


def test_inverse_pair_not_a_star_for_regular(p3):
    u, _ = p3
    r = label_set(u, ["{a,b}|{b,c}"]).pop()
    assert not u.is_small(r) and not u.is_small(u.inv(r))
    assert not u.is_star_mask(mask_of({r, u.inv(r)}))


def test_degenerate_never_in_star(p3):
    u, _ = p3
    d = [h for h in u.elements() if u.is_degenerate(h)]
    assert not u.is_star_mask(mask_of(set(d)))


def test_star_unknown_id_rejected(chain2):
    with pytest.raises(UnknownHandle):
        chain2.is_star_mask(mask_of({99}))


# -- nestedness -------------------------------------------------------------------


def test_nested_figure_pair(p3):
    u, _ = p3
    r, s = sorted(label_set(u, ["{a,b}|{b,c}", "{c}|{a,b,c}"]))
    assert u.is_nested(r, s)


def test_nested_self(p3):
    u, _ = p3
    h = u.elements()[3]
    assert u.is_nested(h, h)


def test_nested_bipartitions_of_three(bip3):
    by = {bip3.label(h): h for h in bip3.elements()}
    assert bip3.is_nested(by["{1}|{2,3}"], by["{2}|{1,3}"])


def test_crossing_pairs_reported(bip4):
    by = {bip4.label(h): h for h in bip4.elements()}
    r, s = by["{1,2}|{3,4}"], by["{1,3}|{2,4}"]
    assert not bip4.is_nested(r, s)
    assert bip4.crossing_pairs({r, s}) == [(bip4.sep(r), bip4.sep(s))]
    assert not is_nested_set(bip4, {r, s})


# -- consistency -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["p3", "bip3", "chain2", "ptriv"])
def test_stars_are_consistent(request, name):
    s = system_of(request, name)
    els = s.elements()
    import itertools
    for size in (1, 2, 3):
        for sigma in itertools.combinations(els, size):
            if s.is_star_mask(mask_of(sigma)):
                assert s.is_consistent_mask(mask_of(sigma))


def test_inverse_pair_consistency_matches_definition(p3):
    u, _ = p3
    r = label_set(u, ["{a,b}|{b,c}"]).pop()
    # r != s clause: a pair of inverse orientations is never a witness
    assert (u.is_consistent_mask(mask_of({r, u.inv(r)}))
            == naive_is_consistent(u, {r, u.inv(r)}))
    assert u.is_consistent_mask(mask_of(set()))


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_consistency_matches_naive(request, name):
    s = system_of(request, name)
    els = s.elements()
    import itertools
    for sigma in itertools.combinations(els, 2):
        assert s.is_consistent_mask(mask_of(sigma)) == naive_is_consistent(s, sigma)


# -- closure ---------------------------------------------------------------------


def test_closure_empty(chain2):
    assert chain2.closure_mask(0) == 0


def test_closure_chain(chain2):
    by = {chain2.label(h): h for h in chain2.elements()}
    assert chain2.closure_mask(mask_of({by["r>"]})) == mask_of({by["r>"], by["s>"]})


def test_closure_of_full_orientation_is_itself(p3):
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    for tau in s2.consistent_orientations():
        assert s2.closure_mask(mask_of(tau)) == mask_of(tau)


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_closure_matches_naive_and_idempotent(request, name):
    s = system_of(request, name)
    els = s.elements()
    import itertools
    for size in (0, 1, 2):
        for sigma in itertools.combinations(els, size):
            if not s.is_consistent_mask(mask_of(sigma)):
                continue
            cl = s.closure_mask(mask_of(sigma))
            assert cl == mask_of(naive_closure(s, sigma))
            if s.is_consistent_mask(cl):
                assert s.closure_mask(cl) == cl


def test_closure_monotone(bip3):
    # lemma: sigma subset tau (both consistent) implies closures nest
    import itertools
    els = bip3.elements()
    for tau in itertools.combinations(els, 3):
        if not bip3.is_consistent_mask(mask_of(tau)):
            continue
        for sigma in itertools.combinations(tau, 2):
            if bip3.is_consistent_mask(mask_of(sigma)):
                assert not bip3.closure_mask(mask_of(sigma)) & ~bip3.closure_mask(mask_of(tau))


def test_closure_consistent_without_cotrivials(p3):
    # lemma: no co-trivial elements -> closure consistent, adds <= 1 orientation each
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    import itertools
    for sigma in itertools.combinations(s2.elements(), 2):
        if not s2.is_consistent_mask(mask_of(sigma)):
            continue
        if any(s2.is_cotrivial(h) for h in sigma):
            continue
        cl = s2.closure_mask(mask_of(sigma))
        assert s2.is_consistent_mask(cl)
        added = set(iter_mask(cl)) - set(sigma)
        for s in {s2.sep(h) for h in added}:
            assert len([h for h in added if s2.sep(h) == s]) <= 1


# -- orientation enumeration ------------------------------------------------------


def test_single_separation_two_orientations(single):
    assert len(single.consistent_orientations()) == 2


def test_cotrivial_never_in_consistent_orientation(ptriv):
    cot = [h for h in ptriv.elements() if ptriv.is_cotrivial(h)]
    assert cot
    for tau in ptriv.consistent_orientations():
        assert not set(cot) & tau


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_enumeration_matches_naive_filter(request, name):
    s = system_of(request, name)
    assert len(s.seps()) <= 12, "naive 2^m oracle only runs at m <= 12"
    got = s.consistent_orientations()
    want = naive_consistent_orientations(s)
    assert sorted(map(sorted, got)) == sorted(map(sorted, want))
    assert len(set(got)) == len(got)


def test_enumeration_order_deterministic_lexicographic(chain2):
    got = [tuple(sorted(t)) for t in chain2.consistent_orientations()]
    assert got == sorted(got)


def test_consistent_partial_orientations_extend(p3):
    # consistent, co-trivial-free partial orientations extend to full ones
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    full = s2.consistent_orientations()
    import itertools
    for sigma in itertools.combinations(s2.elements(), 2):
        if not s2.is_consistent_mask(mask_of(sigma)):
            continue
        if len({s2.sep(h) for h in sigma}) < 2:
            continue
        if any(s2.is_cotrivial(h) for h in sigma):
            continue
        assert any(set(sigma) <= tau for tau in full)


# -- distinguishing ----------------------------------------------------------------


def test_distinguishes_requires_both_defined(chain2):
    by = {chain2.label(h): h for h in chain2.elements()}
    t1 = {by["r>"], by["s>"]}
    t2 = {by["r<"], by["s>"]}
    pairs = distinguisher_report(chain2, constant_order(chain2), [t1, t2, {by["s>"]}]).pairs
    # s, oriented alike, does not distinguish t1 from t2, and {s>} orients no r
    assert pairs[(0, 1)].distinguishers == {chain2.sep(by["r>"])}
    assert pairs[(1, 2)].distinguishers == frozenset()


# -- hypothesis property: restriction keeps axioms ----------------------------------


@given(st.integers(min_value=0, max_value=2 ** 8 - 1))
@settings(max_examples=60, deadline=None)
def test_restriction_preserves_structure(subset_mask):
    bip = bipartition_universe([1, 2, 3])
    handles = set()
    for i, h in enumerate(bip.elements()):
        if (subset_mask >> i) & 1:
            handles.add(h)
            handles.add(bip.inv(h))
    view = bip.restrict(handles)
    for a in view.elements():
        for b in view.elements():
            if view.leq(a, b):
                assert view.leq(view.inv(b), view.inv(a))
    assert set(view.elements()) == handles


def test_member_lists_are_fresh_copies():
    # each system lists its members once; what a caller does to a list it was
    # handed reaches neither the system nor the next caller
    bip = bipartition_universe([1, 2, 3])
    view = bip.restrict([1, 6])
    for system in (bip, view):
        els, seps = system.elements(), system.seps()
        want = (list(els), list(seps), len(system))
        els.append(99)
        seps.clear()
        assert (system.elements(), system.seps(), len(system)) == want
        assert system.elements() is not system.elements()
    assert view.elements() == [1, 6] and view.seps() == [1]


# -- serialization -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ptriv", "chain2", "single"])
def test_json_round_trip(request, name):
    s = system_of(request, name)
    blob = json.dumps(s.to_json())
    back = system_from_json(json.loads(blob))
    assert back.to_json() == s.to_json()


def test_json_rejects_bad_ids():
    with pytest.raises(SystemValidationError):
        system_from_json({"oriented": [{"id": 0, "inv": 0}, {"id": 2, "inv": 2}],
                                    "leq": []})


@given(st.sets(st.integers(min_value=0, max_value=7), max_size=5))
@settings(max_examples=80, deadline=None)
def test_closure_monotone_property(handles):
    bip = bipartition_universe([1, 2, 3])
    sigma = frozenset(handles)
    if not bip.is_consistent_mask(mask_of(sigma)):
        return
    for h in sorted(sigma):
        smaller = sigma - {h}
        assert not bip.closure_mask(mask_of(smaller)) & ~bip.closure_mask(mask_of(sigma))


@given(st.integers(min_value=0, max_value=2 ** 9 - 1))
@settings(max_examples=60, deadline=None)
def test_display_uniqueness_property(pick_bits):
    # every orientation of P3's S_2 contains beta_l for exactly one leaf
    from tanglekit.fixtures import p3_universe, graph_tangle_stars
    from tanglekit.forbidden import standardize
    from tanglekit.orderfn import refine_injective
    from tanglekit.tst import build_thorough_tst
    u, o = p3_universe()
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o, 2)
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    tree = build_thorough_tst(s2, o2, fam)
    tau = []
    for i, s in enumerate(s2.seps()):
        ors = s2.orientations(s)
        tau.append(ors[(pick_bits >> i) & 1] if len(ors) == 2 else ors[0])
    tau = frozenset(tau)
    hits = [l for l in tree.leaves() if not tree.paths[l] & ~mask_of(tau)]
    assert len(hits) == 1


def test_dropped_ground_system_is_freed_without_the_cycle_collector():
    # a ground system is its own ground without referring to itself, so the
    # last reference going frees it at once, views included
    import gc
    import weakref
    gc.disable()
    try:
        uni = bipartition_universe([1, 2, 3])
        view = uni.restrict(uni.members)
        assert uni.ground is uni and view.ground is uni
        ref = weakref.ref(uni)
        del uni, view
        assert ref() is None
    finally:
        gc.enable()
