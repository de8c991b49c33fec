"""Conversion theorem, shifting machinery, and the dichotomy drivers."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from oracles import (
    AmbiguousShiftChoice,
    check_nested_corollary,
    enumeration_refinement,
    is_nested_set,
    lemma_shift_select,
    naive_stree_excludes_tangles,
    naive_stree_order_preserving,
    naive_without_trivial,
)

from tanglekit.duality import (
    STree,
    closed_under_shifting,
    convert_ftree,
    dichotomy,
    emulates,
    newduality,
    shift_map,
    shift_star,
    stree_excludes_tangles,
    stree_from_nested,
    stree_order_preserving,
    validate_conversion,
)
from tanglekit import duality
from tanglekit.core import iter_mask, mask_of
from tanglekit.errors import (
    BothOrNeither,
    HypothesisFailure,
    NonInjectiveOrder,
    NonStarFamily,
    NotIrreducible,
    PreconditionError,
    SystemValidationError,
    TheoremViolation,
    TrivialElementsPresent,
)
from tanglekit.fixtures import (
    chain2_system,
    graph_tangle_stars,
    p3_universe,
    p4_universe,
    ptriv_system,
    random_star_family,
    random_universes,
    singleton_family,
)
from tanglekit.forbidden import (
    ForbiddenFamily,
    _eclipsers,
    enumerate_tangles,
    is_rich,
    standardize,
)
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.tst import SeparationTree, build_thorough_tst, reduce_irreducible
from tanglekit.universe import restrict_Sk


@pytest.fixture(scope="module")
def p3_set():
    u, o = p3_universe()
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o2, 2)
    return u, o, o2, s2


@pytest.fixture(scope="module")
def tangleless(p3_set):
    """Trivial-free restriction of P3's S_2 with the all-singletons family."""
    u, o, o2, s2 = p3_set
    s2t = s2.restrict(naive_without_trivial(s2))
    fam = singleton_family(s2t)
    tree = build_thorough_tst(s2t, o2, fam)
    red = reduce_irreducible(tree, fam, o2)
    return s2t, o2, fam, red


def by_label(u):
    return {u.label(h): h for h in u.elements()}


# -- S-trees exclude tangles -------------------------------------------------------


def test_single_node_stree_with_empty_star(p3_set):
    u, o, o2, s2 = p3_set
    fam = ForbiddenFamily([set()])
    st = STree(s2, 1, {})
    assert stree_excludes_tangles(st, fam) == (True, None)
    assert naive_stree_excludes_tangles(st, fam) == (True, 2 ** len(s2.seps()))


@pytest.mark.parametrize("axiom, alpha", [
    ("stree-node-range", {(0, 2): 0, (2, 0): 1}),
    ("stree-missing-reverse", {(0, 1): 0}),
    ("stree-involution", {(0, 1): 0, (1, 0): 0}),
])
def test_stree_rejects_each_planted_defect(axiom, alpha):
    # handles 0 and 1 orient one regular separation of the chain
    with pytest.raises(SystemValidationError) as err:
        STree(chain2_system(), 2, alpha)
    assert err.value.axiom == axiom


def test_converted_fixture_excludes_all_orientations(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    assert stree_excludes_tangles(st, fam) == (True, None)
    assert naive_stree_excludes_tangles(st, fam) == (True, 2 ** len(s2t.seps()))


def test_excludes_refuses_non_over_family(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    with pytest.raises(PreconditionError):
        stree_excludes_tangles(st, ForbiddenFamily([]))


def pair_labels(system, *edges):
    """alpha for oriented edges (a, b, h): h on (a, b), h* on (b, a)."""
    alpha = {}
    for a, b, h in edges:
        alpha[(a, b)], alpha[(b, a)] = h, system.inv(h)
    return alpha


def stars_of(stree):
    return ForbiddenFamily([stree.star_at(t) for t in stree.nodes()])


def test_excludes_refuses_a_cycle(tangleless):
    # a triangle is over the family of its own stars but is no tree, so the
    # sink argument does not apply
    s2t = tangleless[0]
    h1, h2, h3 = (s2t.orientations(s)[0] for s in s2t.seps()[:3])
    st = STree(s2t, 3, pair_labels(s2t, (0, 1, h1), (1, 2, h2), (2, 0, h3)))
    assert stree_excludes_tangles(st, stars_of(st)) == (False, ("not-a-tree", 3))


def test_excludes_refuses_a_label_outside_the_system(tangleless):
    # a ground handle outside the view lies in no orientation of it
    s2t = tangleless[0]
    outside = next(h for h in s2t.ground.elements() if not s2t.contains(h))
    inside = s2t.elements()[0]
    st = STree(s2t, 3, pair_labels(s2t, (0, 1, inside), (2, 1, outside)))
    assert st.is_tree()
    assert stree_excludes_tangles(st, stars_of(st)) == (
        False, ("label-not-a-member", (1, 2)))


def test_excludes_refuses_a_tree_with_no_node(tangleless):
    # with no node there is no sink, and no star to hold
    st = STree(tangleless[0], 0, {})
    assert stree_excludes_tangles(st, ForbiddenFamily([set()])) == (
        False, ("not-a-tree", 0))
    assert not naive_stree_excludes_tangles(st, ForbiddenFamily([set()]))[0]


def test_excludes_refuses_a_star_outside_the_family(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    missing = st.star_at(0)
    with pytest.raises(PreconditionError, match="at node 0"):
        stree_excludes_tangles(st, ForbiddenFamily(s for s in fam.sets if s != missing))


# -- conversion ---------------------------------------------------------------------


def test_conversion_single_edge_singleton_stars():
    pt = ptriv_system()
    # regularized: drop the trivial separation, keep the regular one
    reg = pt.restrict([0, 1])
    o = OrderFunction(reg, {0: 1, 2: 2})
    fam = ForbiddenFamily([{0}, {1}])
    tree = build_thorough_tst(reg, o, fam)
    st, cmap = convert_ftree(tree, fam)
    assert st.n_nodes == 2 and len(st.edges()) == 1
    assert sorted(sorted(st.star_at(t)) for t in st.nodes()) == [[0], [1]]


def test_conversion_counts_and_clauses(tangleless):
    s2t, o2, fam, red = tangleless
    st, cmap = convert_ftree(red, fam)
    assert st.n_nodes == len(red.leaves())
    assert len(st.edges()) == sum(1 for v in red.nodes() if not red.is_leaf(v))
    rep = validate_conversion(red, st, cmap)
    assert rep.ok, rep.failures


def test_conversion_alpha_strictly_decreases(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    for (a, b) in st.oriented_edges():
        for c in st.adj[b]:
            if c != a:
                assert s2t.lt(st.alpha[(b, c)], st.alpha[(a, b)])


def test_conversion_image_equality(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    beta_img = {red.edge_label[v] for v in red.nodes() if red.parent[v] >= 0}
    assert beta_img == set(st.alpha.values())


def test_conversion_rejects_trivials(p3_set):
    u, o, o2, s2 = p3_set
    fam = singleton_family(s2)
    tree = build_thorough_tst(s2, o2, fam)
    red = reduce_irreducible(tree, fam, o2)
    with pytest.raises(TrivialElementsPresent):
        convert_ftree(red, fam)


def test_conversion_rejects_nonstar_family():
    pt = ptriv_system().restrict([0, 1])
    fam = ForbiddenFamily([{0, 1}])  # inverse pair of a regular sep: not a star
    tree = SeparationTree(pt, [-1, 0, 0], [-1, 0, 1])
    with pytest.raises(NonStarFamily):
        convert_ftree(tree, fam)


def test_conversion_rejects_reducible():
    # the thorough tree of a seeded tangle-free star family keeps three
    # unnecessary nodes: the conversion refuses it and takes its reduction
    u, o = random_universes()[0]
    o2 = refine_injective(o)
    s = u.restrict(naive_without_trivial(u))
    fam = random_star_family(s, o2, random.Random("0:2"))
    assert (len(s.seps()), len(fam.sets)) == (7, 6)
    assert not enumerate_tangles(s, fam)
    tree = build_thorough_tst(s, o2, fam)
    assert len(tree) == 9
    with pytest.raises(NotIrreducible) as err:
        convert_ftree(tree, fam)
    assert str(err.value) == "unnecessary nodes [0, 1, 4]"
    stree, _ = convert_ftree(reduce_irreducible(tree, fam, o2), fam)
    assert stree.is_over(fam)


def test_conversion_rejects_tangle_leaves(p3_set):
    u, o, o2, s2 = p3_set
    s2t = s2.restrict(naive_without_trivial(s2))
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2t)
    fam = ForbiddenFamily([s for s in fam.sets if s <= frozenset(s2t.elements())])
    tree = build_thorough_tst(s2t, o2, fam)
    red = reduce_irreducible(tree, fam, o2)
    with pytest.raises(PreconditionError):
        convert_ftree(red, fam)


# -- nestedness corollary -------------------------------------------------------------


def test_nested_single_edge():
    pt = ptriv_system().restrict([0, 1])
    o = OrderFunction(pt, {0: 1, 2: 2})
    fam = ForbiddenFamily([{0}, {1}])
    tree = build_thorough_tst(pt, o, fam)
    assert check_nested_corollary(tree)


def test_nested_on_reduced_tangleless(tangleless):
    s2t, o2, fam, red = tangleless
    assert check_nested_corollary(red)


def test_reducible_star_ftree_may_cross(bip4):
    lab = by_label(bip4)
    r, s = lab["{1,2}|{3,4}"], lab["{1,3}|{2,4}"]
    ri, si = bip4.inv(r), bip4.inv(s)
    sub = bip4.restrict([r, ri, s, si])
    fam = ForbiddenFamily([{s}, {si}, {ri}])
    tree = SeparationTree(sub, [-1, 0, 0, 1, 1], [-1, r, ri, s, si])
    from tanglekit.tst import leaf_needs, necessity, validate_tst
    assert validate_tst(tree, fam).ok
    assert not necessity(tree, leaf_needs(sub, fam)).irreducible
    assert not check_nested_corollary(tree)


# -- realization of nested systems -----------------------------------------------------


def test_stree_from_single_separation(bip3):
    lab = by_label(bip3)
    single = bip3.restrict([lab["{1}|{2,3}"], lab["{2,3}|{1}"]])
    st = stree_from_nested(single)
    assert st.n_nodes == 2 and len(st.edges()) == 1
    stars = sorted(sorted(st.star_at(t)) for t in st.nodes())
    assert stars == [[lab["{1}|{2,3}"]], [lab["{2,3}|{1}"]]]


def test_stree_from_chain_is_path(bip3):
    lab = by_label(bip3)
    chain = bip3.restrict([lab["{1}|{2,3}"], lab["{2,3}|{1}"],
                           lab["{1,2}|{3}"], lab["{3}|{1,2}"]])
    st = stree_from_nested(chain)
    assert st.n_nodes == 3
    degrees = sorted(len(st.adj[t]) for t in st.nodes())
    assert degrees == [1, 1, 2]
    assert stree_order_preserving(st)


def test_stree_from_nested_validates_forward_direction(bip3):
    sub = bip3.restrict([1, 2, 3, bip3.inv(1), bip3.inv(2), bip3.inv(3)])
    st = stree_from_nested(sub)
    assert stree_order_preserving(st)
    assert set(st.alpha.values()) == set(sub.elements())
    for t in st.nodes():
        assert sub.is_star_mask(mask_of(st.star_at(t)))


def test_order_preservation_on_consecutive_edges_matches_all_pairs():
    # random labelled trees on 2-6 nodes: the one pass over consecutive edges
    # agrees with the test on every pair of oriented edges
    rng = random.Random(26)
    preserving = 0
    for uni, _ in random_universes(count=40):
        for _ in range(30):
            n = rng.randint(2, 6)
            alpha = {}
            for b in range(1, n):
                a, h = rng.randrange(b), rng.choice(uni.elements())
                alpha[(a, b)], alpha[(b, a)] = h, uni.inv(h)
            st = STree(uni, n, alpha)
            assert stree_order_preserving(st) == naive_stree_order_preserving(st), alpha
            preserving += stree_order_preserving(st)
    assert 300 <= preserving <= 900  # 415 of 1,200 seen


def test_stree_from_crossing_rejected(bip4):
    lab = by_label(bip4)
    r, s = lab["{1,2}|{3,4}"], lab["{1,3}|{2,4}"]
    sub = bip4.restrict([r, s, bip4.inv(r), bip4.inv(s)])
    with pytest.raises(PreconditionError):
        stree_from_nested(sub)


def test_stree_from_irregular_rejected(bip3):
    sub = bip3.restrict([0, bip3.inv(0)])  # the empty-side separation is small
    with pytest.raises(PreconditionError):
        stree_from_nested(sub)


# -- shifting ----------------------------------------------------------------------


def test_shift_tie_rule(p3_set):
    u, o, o2, s2 = p3_set
    lab = by_label(u)
    s = lab["{a,b}|{b,c}"]
    r = lab["{a,b,c}|{b}"]
    assert s2.leq(r, s)
    assert shift_map(s2, r, s, s) == r
    assert shift_map(s2, r, s, s2.inv(s)) == s2.inv(r)
    assert shift_map(s2, s, s, s) == s  # r = s collapses to the identity on s


def test_shift_maps_stars_to_stars(bip3):
    o = OrderFunction(bip3, {s: Fraction(bin(s).count("1")) for s in bip3.seps()})
    els = bip3.elements()
    cases = 0
    for s in els:
        if bip3.is_degenerate(s) or bip3.is_trivial(s):
            continue
        for r in els:
            if not bip3.lt(r, s) or not emulates(bip3, r, s):
                continue
            si = bip3.inv(s)
            domain = [t for t in els
                      if (t != si and bip3.leq(t, s))
                      or (bip3.inv(t) != si and bip3.leq(bip3.inv(t), s))]
            for sigma in itertools.combinations(domain, 2):
                if s in sigma and bip3.is_star_mask(mask_of(sigma)):
                    shifted = shift_star(bip3, r, s, sigma)
                    if any(bip3.inv(x) in shifted for x in shifted):
                        continue  # collapse onto an inverse pair; see ledger
                    assert bip3.is_star_mask(mask_of(shifted))
                    cases += 1
    assert cases


def test_shift_preserves_order_on_domain(bip3):
    els = bip3.elements()
    for s in els:
        if bip3.is_degenerate(s) or bip3.is_trivial(s):
            continue
        si = bip3.inv(s)
        for r in els:
            if not bip3.leq(r, s):
                continue
            domain = [t for t in els
                      if (t != si and bip3.leq(t, s))
                      or (bip3.inv(t) != si and bip3.leq(bip3.inv(t), s))]
            for t1 in domain:
                for t2 in domain:
                    if bip3.leq(t1, t2):
                        assert bip3.leq(shift_map(bip3, r, s, t1),
                                        shift_map(bip3, r, s, t2))


def test_emulates_reflexive_base(p3_set):
    u, o, o2, s2 = p3_set
    for s in s2.elements():
        if not s2.is_degenerate(s):
            assert emulates(s2, s, s)


def test_emulates_planted_corner_failure(bip3):
    # restrict members so a shifted corner leaves the system
    lab = by_label(bip3)
    r, s = lab["{1}|{2,3}"], lab["{1,2}|{3}"]
    keep = set(bip3.elements()) - {lab["{}|{1,2,3}"], lab["{1,2,3}|{}"]}
    sub = bip3.restrict(keep)
    assert sub.leq(r, s)
    # t = {2}|{1,3} <= s; t ^ r = {}|{1,2,3} which was removed
    assert not emulates(sub, r, s)


def eclipse_scenarios(system, order):
    """(tau, s, candidates) with s non-trivial in tau and eclipsed from inside."""
    for tau in system.consistent_orientations():
        for s in sorted(tau):
            if system.is_trivial(s) or system.is_degenerate(s):
                continue
            cands = [r for r in tau
                     if system.lt(r, s) and order.of(r) < order.of(s)]
            if cands:
                yield tau, s, cands


def test_lemma_shift_select_unique_candidate(p3_set):
    u, o, o2, s2 = p3_set
    seen = 0
    for tau, s, cands in eclipse_scenarios(s2, o2):
        if len(cands) != 1:
            continue
        got_r, shifted = lemma_shift_select(s2, o2, tau, frozenset({s}), s)
        assert got_r == cands[0]
        assert s2.is_star_mask(mask_of(shifted)) and shifted <= tau
        seen += 1
    assert seen >= 3


def test_lemma_shift_select_postconditions(p3_set):
    u, o, o2, s2 = p3_set
    cases = 0
    for tau in s2.consistent_orientations():
        for size in (1, 2):
            for sigma in itertools.combinations(sorted(tau), size):
                sigma = frozenset(sigma)
                if not s2.is_star_mask(mask_of(sigma)):
                    continue
                for s in sigma:
                    if s2.is_trivial(s) or s2.is_degenerate(s):
                        continue
                    if not any(s2.lt(r, s) and o2.of(r) < o2.of(s) for r in tau):
                        continue
                    r, shifted = lemma_shift_select(s2, o2, tau, sigma, s)
                    assert s2.is_star_mask(mask_of(shifted))
                    assert shifted <= tau
                    assert (sum(o2.of(x) for x in shifted)
                            < sum(o2.of(x) for x in sigma))
                    cases += 1
    assert cases >= 5


def test_lemma_shift_select_ambiguous_tie(bip4):
    # K4 cut order with heavy edges at vertex 4: the three two-element sides
    # inside {1,2,3} tie at the minimum and are pairwise incomparable
    lab = by_label(bip4)
    from tanglekit.fixtures import _cut_order
    weights = {(0, 1): Fraction(1), (0, 2): Fraction(1), (1, 2): Fraction(1),
               (0, 3): Fraction(3), (1, 3): Fraction(3), (2, 3): Fraction(3)}
    o = _cut_order(bip4, weights, 4)
    s = lab["{1,2,3}|{4}"]
    assert o.of(s) == 9
    assert o.of(lab["{1,2}|{3,4}"]) == 8 == o.of(lab["{1,3}|{2,4}"])
    tau = frozenset({
        lab["{1,2,3,4}|{}"], lab["{2,3,4}|{1}"], lab["{1,3,4}|{2}"],
        lab["{1,2,4}|{3}"], lab["{1,2}|{3,4}"], lab["{1,3}|{2,4}"],
        lab["{2,3}|{1,4}"], s})
    assert bip4.is_orientation_mask(mask_of(tau)) and bip4.is_consistent_mask(mask_of(tau))
    with pytest.raises(AmbiguousShiftChoice) as e:
        lemma_shift_select(bip4, o, tau, frozenset({s}), s)
    assert set(e.value.maxima) == {
        lab["{1,2}|{3,4}"], lab["{1,3}|{2,4}"], lab["{2,3}|{1,4}"]}


# Planted defects: one call per precondition of ``shift_map``, each naming it.
SHIFT_MAP_DEFECTS = {
    "shift base requires r <= s": ("{a,b}|{b,c}", "{a,b,c}|{c}", "{a,b,c}|{c}"),
    "non-trivial and non-degenerate": ("{}|{a,b,c}", "{}|{a,b,c}", "{}|{a,b,c}"),
    # t lies outside S_2, so it does not make s trivial there, yet both
    # t and t* sit below s
    "both cases apply": ("{a}|{a,b,c}", "{a}|{a,b,c}", "{a,b}|{a,b,c}"),
    "has no orientation below": ("{a,b}|{b,c}", "{a,b}|{b,c}", "{a}|{a,b,c}"),
}


@pytest.mark.parametrize("reason", list(SHIFT_MAP_DEFECTS))
def test_shift_map_names_each_planted_defect(p3_set, reason):
    u, o, o2, s2 = p3_set
    lab = by_label(u)
    r, s, t = (lab[x] for x in SHIFT_MAP_DEFECTS[reason])
    with pytest.raises(PreconditionError, match=reason):
        shift_map(s2, r, s, t)


def test_lemma_shift_select_names_each_failed_hypothesis(p3_set, p3_crooked_order):
    u, o, o2, s2 = p3_set
    lab = by_label(u)
    tau = next(t for t in s2.consistent_orientations() if lab["{}|{a,b,c}"] in t)
    trivial = lab["{}|{a,b,c}"]
    assert s2.is_trivial(trivial)
    off_threshold = u.restrict(u.orientations(u.sep(lab["{a,b}|{a,b,c}"])))
    quiet = next(s for s in sorted(tau) if not s2.is_trivial(s)
                 and not any(_eclipsers(s2, o2, s, mask_of(tau))))
    cases = [
        (u, p3_crooked_order, frozenset({trivial}), trivial,
         "order not structurally submodular"),
        (off_threshold, o2, frozenset({trivial}), trivial,
         "not an order-threshold restriction"),
        (s2, o2, frozenset(), trivial, "sigma must be a star inside tau"),
        (s2, o2, frozenset({trivial}), trivial, "s must be non-trivial"),
        (s2, o2, frozenset({quiet}), quiet, "no member of tau eclipses s"),
    ]
    for system, order, sigma, s, reason in cases:
        with pytest.raises(HypothesisFailure, match=reason):
            lemma_shift_select(system, order, tau, sigma, s)


def test_lemma_shift_select_checks_emulation(p3_set, monkeypatch):
    u, o, o2, s2 = p3_set
    tau, s, _ = next(eclipse_scenarios(s2, o2))
    lemma_shift_select(s2, o2, tau, frozenset({s}), s)
    monkeypatch.setattr(duality, "emulates", lambda system, r, s: False)
    with pytest.raises(TheoremViolation, match="fails to emulate"):
        lemma_shift_select(s2, o2, tau, frozenset({s}), s)


def all_stars_family(system, max_size=3):
    els = system.elements()
    out = []
    for size in range(1, max_size + 1):
        for sigma in itertools.combinations(els, size):
            if system.is_star_mask(mask_of(sigma)):
                out.append(frozenset(sigma))
    return ForbiddenFamily(out)


def test_all_stars_closed_under_shifting(p3_set):
    u, o, o2, s2 = p3_set
    fam = all_stars_family(s2)
    ok, witness = closed_under_shifting(s2, fam, o2)
    assert ok, witness


def test_closed_under_shifting_planted_violation(p3_set):
    u, o, o2, s2 = p3_set
    tau, s, cands = next(iter(eclipse_scenarios(s2, o2)))
    assert any(emulates(s2, r, s) for r in cands)
    fam = ForbiddenFamily([{s}])
    ok, witness = closed_under_shifting(s2, fam, o2)
    assert not ok
    sigma, s_w, r_w = witness
    assert sigma == frozenset({s}) and s_w == s
    assert frozenset({r_w}) not in fam.sets


def test_shift_closed_families_are_rich(p3_set):
    # both sides computed independently: shift closure on one, the
    # brute-force richness filter on the other
    u, o, o2, s2 = p3_set
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    ok, _ = closed_under_shifting(s2, fam, o2)
    assert ok
    assert is_rich(s2, fam, o2)[0]
    fam2 = all_stars_family(s2)
    assert closed_under_shifting(s2, fam2, o2)[0]
    assert is_rich(s2, fam2, o2)[0]


# -- dichotomy ----------------------------------------------------------------------


def test_dichotomy_empty_family_tangle_branch(tangleless):
    s2t, o2, _, _ = tangleless
    res = dichotomy(s2t, o2, ForbiddenFamily([]))
    assert res.kind == "tangle"
    assert s2t.is_orientation_mask(mask_of(res.tangle))


def test_dichotomy_stops_at_the_first_tangle(tangleless, monkeypatch):
    # the tangle branch needs one tangle, so the search stops there
    s2t, o2, _, _ = tangleless
    pulled, search = [], duality._orientations

    def counted(*args):
        for tau in search(*args):
            pulled.append(frozenset(iter_mask(tau)))
            yield tau

    monkeypatch.setattr(duality, "_orientations", counted)
    res = dichotomy(s2t, o2, ForbiddenFamily([]))
    tangles = s2t.consistent_orientations()
    assert len(tangles) > 1
    assert pulled == [res.tangle] == tangles[:1]


def test_dichotomy_stree_branch(tangleless):
    s2t, o2, fam, _ = tangleless
    res = dichotomy(s2t, o2, fam, check_exclusive=True)
    assert res.kind == "stree"
    assert res.stree.is_over(fam)
    for t in res.stree.nodes():
        assert res.stree.star_at(t) in res.feff.sets
    ok, _ = stree_excludes_tangles(res.stree, fam)
    assert ok


def test_dichotomy_validates_the_conversion(tangleless, monkeypatch):
    # a map with the two orientations of one edge swapped fails clauses of
    # the conversion theorem, and the S-tree branch reports them
    s2t, o2, fam, _ = tangleless
    convert, seen = duality.convert_ftree, []

    def swapped(tree, family):
        stree, cmap = convert(tree, family)
        a, b = min(cmap.edge_to_tree_edge)
        edges = {**cmap.edge_to_tree_edge, (a, b): cmap.edge_to_tree_edge[(b, a)],
                 (b, a): cmap.edge_to_tree_edge[(a, b)]}
        cmap = cmap._replace(edge_to_tree_edge=edges)
        seen.append(validate_conversion(tree, stree, cmap).failures)
        return stree, cmap

    monkeypatch.setattr(duality, "convert_ftree", swapped)
    with pytest.raises(TheoremViolation) as err:
        dichotomy(s2t, o2, fam)
    assert "clause5-alpha-beta-gamma" in seen[0]
    assert str(err.value) == f"conversion fails clauses {seen[0]}"


def test_dichotomy_skips_a_member_outside_the_system(tangleless):
    # a member with a handle outside S lies in no orientation of S: the star
    # check skips it and f_eff drops it, as the tangle branch ignores it
    s2t, o2, fam, _ = tangleless
    outside = next(h for h in s2t.ground.elements() if not s2t.contains(h))
    res = dichotomy(s2t, o2, fam.extended(ForbiddenFamily([{outside}])), check_exclusive=True)
    want = dichotomy(s2t, o2, fam, check_exclusive=True)
    assert res.kind == want.kind == "stree"
    assert (res.stree.n_nodes, res.stree.alpha) == (want.stree.n_nodes, want.stree.alpha)
    assert res.feff == want.feff


def test_dichotomy_still_refuses_a_nonstar_member_inside_the_system(tangleless):
    s2t, o2, fam, _ = tangleless
    r = next(h for h in s2t.elements() if not s2t.is_small(h) and not s2t.is_small(s2t.inv(h)))
    with pytest.raises(NonStarFamily):
        dichotomy(s2t, o2, fam.extended(ForbiddenFamily([{r, s2t.inv(r)}])))


def test_dichotomy_refuses_a_structure_tree_with_no_tangle_leaf(p3_set, monkeypatch):
    # a tangle exists, so its structure tree must display one; the lone root
    # leaf of an empty path is unresolved, not a tangle leaf
    u, o, o2, s2 = p3_set
    fam = standardize(ForbiddenFamily([]), s2)
    bare = lambda system, order, family: SeparationTree(system, [-1], [-1])
    monkeypatch.setattr(duality, "build_thorough_tst", bare)
    with pytest.raises(BothOrNeither) as err:
        dichotomy(s2, o2, fam, check_exclusive=True)
    assert str(err.value) == "tangle exists but the structure tree has no tangle leaf"


def test_dichotomy_refuses_a_reduced_tree_with_a_tangle_leaf(p3_set, monkeypatch):
    # a search that misses every tangle sends dichotomy down the S-tree
    # branch, where the reduced tree still displays the tangles
    u, o, o2, s2 = p3_set
    s2t = s2.restrict(naive_without_trivial(s2))
    fam = standardize(ForbiddenFamily([]), s2t)
    assert len(enumerate_tangles(s2t, fam)) == 4
    monkeypatch.setattr(duality, "_orientations", lambda *args: iter(()))
    with pytest.raises(BothOrNeither) as err:
        dichotomy(s2t, o2, fam)
    assert str(err.value) == "no brute-force tangle, yet the reduced tree has a tangle leaf"


def test_dichotomy_exactly_one(p3_set, tangleless):
    u, o, o2, s2 = p3_set
    s2t = s2.restrict(naive_without_trivial(s2))
    for fam in (singleton_family(s2t), all_stars_family(s2t),
                ForbiddenFamily([])):
        if not is_rich(s2t, fam, o2)[0]:
            continue
        res = dichotomy(s2t, o2, fam, check_exclusive=True)
        has_tangle = bool(enumerate_tangles(s2t, fam))
        assert (res.kind == "tangle") == has_tangle


# -- newduality ---------------------------------------------------------------------


def test_newduality_empty_threshold(p3_set):
    u, o, o2, s2 = p3_set
    res = newduality(restrict_Sk(u, o, 0), o, ForbiddenFamily([]))
    assert res.kind == "tangle" and res.tangle == frozenset()


def test_newduality_p3_matches_brute_force(p3_set):
    u, o, o2, s2 = p3_set
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    res = newduality(restrict_Sk(u, o, 2), o, fam)
    brute = enumerate_tangles(restrict_Sk(u, o, 2), fam)
    assert (res.kind == "tangle") == bool(brute)
    assert res.tangle in set(brute)
    assert res.notes["rich"] == "derived from closure under shifting"


def test_newduality_derived_richness_matches_brute(p3_set):
    u, o, o2, s2 = p3_set
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    ok, _ = closed_under_shifting(s2, fam, o2)
    assert ok
    assert is_rich(s2, fam, o2)[0]


# P3 and P4 with their |A n B| orders and the standardized graph-tangle stars.
PATHS = {"P3": (p3_universe, "abc"), "P4": (p4_universe, "abcd")}


def path_setting(name, k):
    make, verts = PATHS[name]
    u, o = make()
    edges = list(zip(verts, verts[1:]))
    fam = standardize(graph_tangle_stars(u, o, verts, edges, k), restrict_Sk(u, o, k))
    return u, o, fam


def outcome(run):
    """The branch, tangle and S-tree of ``run()``, or the precondition it fails."""
    try:
        res = run()
    except PreconditionError as exc:
        return type(exc).__name__, str(exc)
    return res.kind, res.tangle, res.stree and res.stree.to_json()


def enumeration_oracle(u, o, k, fam):
    """newduality's outcome spelled out on the enumeration refinement."""
    e = enumeration_refinement(u, o)
    system = restrict_Sk(u, o, k)
    assert closed_under_shifting(system, fam, e)[0]
    return outcome(lambda: dichotomy(system, e, fam))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(PATHS))
def test_newduality_matches_the_enumeration_oracle(name, k):
    u, o, fam = path_setting(name, k)
    got = outcome(lambda: newduality(restrict_Sk(u, o, k), o, fam))
    assert got == enumeration_oracle(u, o, k, fam)


@pytest.mark.parametrize("name", sorted(PATHS))
def test_newduality_matches_the_enumeration_oracle_on_an_stree(name):
    # S_1 holds one separation; forbidding both its orientations leaves no
    # tangle, so the S-tree branch runs
    u, o, _ = path_setting(name, 1)
    fam = singleton_family(restrict_Sk(u, o, 1))
    got = outcome(lambda: newduality(restrict_Sk(u, o, 1), o, fam))
    assert got[0] == "stree"
    assert got == enumeration_oracle(u, o, 1, fam)


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` through every tanglekit module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("tanglekit") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_newduality_checks_each_order_hypothesis_once(monkeypatch):
    from tanglekit.universe import is_structurally_submodular, is_submodular
    u, o, fam = path_setting("P3", 2)
    sub = count_calls(monkeypatch, is_submodular)
    struct = count_calls(monkeypatch, is_structurally_submodular)
    newduality(restrict_Sk(u, o, 2), o, fam)
    assert (len(sub), len(struct)) == (1, 0)


def test_newduality_keeps_an_enumeration_unrefined(monkeypatch):
    from tanglekit import duality
    u, o, fam = path_setting("P3", 2)
    e = enumeration_refinement(u, o)
    want = enumeration_oracle(u, o, 2, fam)
    # e refines o, so the first |S_2| ranks are exactly S_2
    ell = len(restrict_Sk(u, o, 2).seps()) + 1
    assert restrict_Sk(u, e, ell).members == restrict_Sk(u, o, 2).members
    refined = count_calls(monkeypatch, duality.refine_injective)
    assert outcome(lambda: newduality(restrict_Sk(u, e, ell), e, fam)) == want
    assert refined == []


def test_newduality_rejects_a_nonsubmodular_noninjective_order(bip2):
    lab = by_label(bip2)
    vals = {bip2.sep(h): Fraction(0) for h in bip2.elements()}
    vals[bip2.sep(lab["{1,2}|{}"])] = Fraction(5)
    order = OrderFunction(bip2, vals)
    with pytest.raises(HypothesisFailure, match="must be submodular"):
        newduality(restrict_Sk(bip2, order, 1), order, ForbiddenFamily([]))


def test_newduality_needs_a_threshold_set(p3_set):
    # S keeps P3's separations of order 2 and drops one of order 1: closed
    # under the involution, but a non-member lies below members
    u, o, o2, s2 = p3_set
    s3 = restrict_Sk(u, o, 3)
    drop = next(h for h in s3.seps() if o.of(h) == 1)
    system = s3.restrict(h for h in s3.elements() if s3.sep(h) != drop)
    assert any(o.of(h) == 2 for h in system.seps())
    with pytest.raises(HypothesisFailure, match="threshold set of the order"):
        newduality(system, o, ForbiddenFamily([]))


def test_dichotomy_rejects_a_noninjective_order(p3_set):
    u, o, o2, s2 = p3_set
    assert not o.is_injective_on(s2)
    with pytest.raises(NonInjectiveOrder):
        dichotomy(s2, o, ForbiddenFamily([]))


def test_stree_json_round_trip(tangleless):
    s2t, o2, fam, red = tangleless
    st, _ = convert_ftree(red, fam)
    blob = st.to_json()
    back = STree.from_json(s2t, blob)
    assert back.to_json() == blob
    assert back.is_over(fam)


def test_order_preserving_alpha_has_nested_image(bip3):
    sub = bip3.restrict([1, 2, 3, bip3.inv(1), bip3.inv(2), bip3.inv(3)])
    st = stree_from_nested(sub)
    assert stree_order_preserving(st)
    assert is_nested_set(sub, set(st.alpha.values()))
