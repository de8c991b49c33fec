"""Trees of tangles: oracle distinguishers, extraction, criticality, layering."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (assert_tangles_are_brute_force, constant_order, is_nested_set,
                     naive_is_rich, tree_infimum)
from tanglekit.core import mask_of
from tanglekit.errors import HypothesisFailure, PreconditionError
from tanglekit.fixtures import (
    _cut_order,
    eclipse_closure,
    graph_tangle_stars,
    p3_universe,
)
from tanglekit.forbidden import (
    ForbiddenFamily,
    enumerate_tangles,
    is_rich,
    is_standard,
    profile_family,
    robustness_family,
    standardize,
)
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.tot import (
    check_tot_hypotheses,
    distinguisher_report,
    tangle_nodes,
    tree_of_tangles,
    tree_of_tangles_in,
    verify_tot,
)
from tanglekit.tst import (
    LEAF_FORBIDDEN,
    build_thorough_tst,
    classify_leaves,
    display,
    reduce_irreducible,
)
from tanglekit.universe import bipartition_universe, graph_universe, restrict_Sk


@pytest.fixture(scope="module")
def p3_tot():
    u, o = p3_universe()
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o2, 2)
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    F = F.extended(robustness_family(o2, target=s2))
    tree = build_thorough_tst(s2, o2, F)
    return u, o2, s2, F, tree


@pytest.fixture(scope="module")
def weighted_bip3():
    """K3 cut order with one heavy edge: nonempty robustness family."""
    u = bipartition_universe([1, 2, 3])
    o = _cut_order(u, {(0, 1): Fraction(4), (0, 2): Fraction(1),
                       (1, 2): Fraction(1)}, 3)
    o2 = refine_injective(o)
    return u, o2


# -- oracle -----------------------------------------------------------------------


def test_distinguishers_trivial_counts(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    assert distinguisher_report(chain2, o, []).optimal_union == frozenset()
    assert distinguisher_report(chain2, o, [frozenset({0, 2})]).optimal_union == frozenset()


def test_distinguishers_unique_min_order(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    tangles = enumerate_tangles(chain2, ForbiddenFamily([]))
    assert len(tangles) == 3
    rep = distinguisher_report(chain2, o, tangles)
    # pairs differing on r alone or on both pick r; the s-only pair picks s
    opts = sorted(map(sorted, (p.optimal for p in rep.pairs.values())))
    assert opts == [[0], [0], [2]]
    assert rep.optimal_union == {0, 2}


def test_partial_orientations_need_both_defined(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    t1, t2 = frozenset({0}), frozenset({1, 2})
    rep = distinguisher_report(chain2, o, [t1, t2])
    assert rep.pairs[(0, 1)].distinguishers == {0}


# -- extraction (flat) ----------------------------------------------------------------


def test_single_tangle_empty_n(p3_tot):
    u, o2, s2, F, tree = p3_tot
    lonely = ForbiddenFamily([])
    empty = restrict_Sk(u, o2, 0)
    t = build_thorough_tst(empty, o2, lonely)
    assert tangle_nodes(t, classify_leaves(t, lonely)) == []


def test_p3_extraction_matches_oracle(p3_tot):
    u, o2, s2, F, tree = p3_tot
    n = tree_of_tangles(s2, o2, F).distinguishers
    tangles = enumerate_tangles(s2, F)
    assert len(tangles) == 2
    oracle = distinguisher_report(s2, o2, tangles).optimal_union
    assert n == oracle
    assert is_nested_set(s2, [h for s in n for h in s2.orientations(s)])
    rep = verify_tot(s2, o2, n, tangles)
    assert rep.ok


def test_infimum_node_is_the_optimal_distinguisher(p3_tot):
    # both directions of the infimum correspondence
    u, o2, s2, F, tree = p3_tot
    tangles = enumerate_tangles(s2, F)
    rep = distinguisher_report(s2, o2, tangles)
    nodes = tangle_nodes(tree, classify_leaves(tree, F))
    for (i, j), pair in rep.pairs.items():
        v = tree_infimum(tree, display(tree, tangles[i]), display(tree, tangles[j]))
        assert v in nodes
        assert pair.optimal == {tree.node_sep(v)}
    for v in nodes:
        assert any(
            tree_infimum(tree, display(tree, tangles[i]), display(tree, tangles[j])) == v
            for (i, j) in rep.pairs)


def test_extraction_requires_robustness_triples():
    # K1,4 at k = 2: S_2 has 13 separations and 6 robustness triples.  With
    # F = standardize(R) every hypothesis holds; without R only the
    # robustness hypothesis fails.
    u, o = graph_universe("abcde", [("a", x) for x in "bcde"])
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o2, 2)
    robust = robustness_family(o2, target=s2)
    assert robust.sets
    F = standardize(robust, s2)
    res = tree_of_tangles(s2, o2, F)
    assert_tangles_are_brute_force(res, s2, F)
    assert verify_tot(s2, o2, res.distinguishers, res.tangles).ok
    with pytest.raises(HypothesisFailure, match=r"\['robustness_included'\]"):
        tree_of_tangles(s2, o2, ForbiddenFamily(F.sets - robust.sets))


def test_reduced_tree_same_distinguishers(p3_tot):
    # tangle nodes survive reduction and keep their separations
    u, o2, s2, F, tree = p3_tot
    n = tree_of_tangles(s2, o2, F).distinguishers
    red = reduce_irreducible(tree, F, o2)
    n_red = frozenset(red.node_sep(v) for v in tangle_nodes(red, classify_leaves(red, F)))
    assert n_red == n


# -- criticality -------------------------------------------------------------------


def is_critical(tree, v, order) -> bool:
    """A node is critical if an orientation of its separation is co-trivial or
    completes a robustness triple over the path closure."""
    sys = tree.system
    if tree.is_leaf(v):
        return False
    robust = robustness_family(order, target=sys)
    cl = sys.closure_mask(tree.paths[v])
    return any(sys.is_cotrivial(x) or robust.first_inside(cl | 1 << x) is not None
               for x in sys.orientations(tree.node_sep(v)))


def test_leaf_never_critical(p3_tot):
    u, o2, s2, F, tree = p3_tot
    for leaf in tree.leaves():
        assert not is_critical(tree, leaf, o2)


def test_planted_robustness_triple_makes_node_critical(weighted_bip3):
    u, o2 = weighted_bip3
    robust = robustness_family(o2, target=u)
    assert robust.sets  # the heavy edge creates triples
    F = eclipse_closure(u, standardize(robust, u), o2)
    assert is_rich(u, F, o2)[0]
    tree = build_thorough_tst(u, o2, F)
    crit = [v for v in tree.nodes() if is_critical(tree, v, o2)]
    assert crit


def test_tangle_nodes_never_critical(weighted_bip3, p3_tot):
    u, o2 = weighted_bip3
    robust = robustness_family(o2, target=u)
    F = eclipse_closure(u, standardize(robust, u), o2)
    tree = build_thorough_tst(u, o2, F)
    for v in tangle_nodes(tree, classify_leaves(tree, F)):
        assert not is_critical(tree, v, o2)
    u3, o3, s2, F3, tree3 = p3_tot
    for v in tangle_nodes(tree3, classify_leaves(tree3, F3)):
        assert not is_critical(tree3, v, o3)


# -- layered -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def p3_layered_tot():
    u, o = p3_universe()
    o2 = refine_injective(o)
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 4), u)
    F = F.extended(robustness_family(o2, target=u))
    return u, o2, F


def cycle_full_family(n):
    """C_n on a, b, ... with the k=2 full family as totins loads it: the k=2
    stars, R over the whole universe under the refined order, and the
    standard singletons."""
    names = "abcdefgh"[:n]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    u, o = graph_universe(names, edges)
    inj = refine_injective(o)
    stars = graph_tangle_stars(u, o, names, edges, 2)
    return u, inj, standardize(stars.extended(robustness_family(inj, target=u)), u)


def test_c7_layered_tree_displays_the_brute_force_maximal_tangles():
    # the largest layered case tier-1 runs: brute force takes about 2 s here
    u, inj, F = cycle_full_family(7)
    res = tree_of_tangles_in(u, inj, F)
    assert_tangles_are_brute_force(res, u, F, inj)
    assert verify_tot(u, inj, res.distinguishers, res.tangles).ok


def test_a_passing_layered_check_tests_standardness_once(monkeypatch):
    # a separation trivial in one layer stays trivial in every larger one, and
    # S is the top layer: one check on S decides them all
    from tanglekit import tot
    u, inj, F = cycle_full_family(5)
    calls = []
    monkeypatch.setattr(tot, "is_standard", lambda *args: calls.append(args) or is_standard(*args))
    check_tot_hypotheses(u, inj, F, layered=True)
    assert len(calls) == 1


def test_layered_single_tangle_empty_n(weighted_bip3):
    u, o2 = weighted_bip3
    robust = robustness_family(o2, target=u)
    F = eclipse_closure(u, standardize(robust, u), o2)
    res = tree_of_tangles_in(u, o2, F)
    assert_tangles_are_brute_force(res, u, F, o2)
    maximal = res.tangles
    if len(maximal) <= 1:
        assert res.distinguishers == frozenset()
    else:
        assert verify_tot(u, o2, res.distinguishers, maximal).ok


def test_p3_layered_matches_oracle(p3_layered_tot):
    u, o2, F = p3_layered_tot
    res = tree_of_tangles_in(u, o2, F)
    assert_tangles_are_brute_force(res, u, F, o2)
    maximal = res.tangles
    assert len(maximal) == 2
    rep = verify_tot(u, o2, res.distinguishers, maximal)
    assert rep.ok, (rep.missing, rep.extra, rep.undistinguished)
    assert is_nested_set(
        u, [h for s in res.distinguishers for h in u.orientations(s)])


def test_layered_requires_robustness(p3_layered_tot):
    u, o2, F = p3_layered_tot
    robust = robustness_family(o2, target=u)
    slim = ForbiddenFamily(F.sets - robust.sets)
    if robust.sets - slim.sets:
        with pytest.raises(HypothesisFailure):
            tree_of_tangles_in(u, o2, slim)


def test_layered_names_each_failed_hypothesis(p3, p3_layered_tot, p3_crooked_order,
                                             chain2):
    u, o = p3
    _, o2, F = p3_layered_tot
    with pytest.raises(PreconditionError,
                       match="the tree-of-tangles theorem needs a universe"):
        tree_of_tangles_in(chain2, constant_order(chain2, 1), ForbiddenFamily([]))
    # the crooked order ties every separation but two at 0
    with pytest.raises(HypothesisFailure,
                       match=r"failed: \['structurally_submodular', 'injective'\]$"):
        tree_of_tangles_in(u, p3_crooked_order, F)
    assert not o.is_injective_on(u)
    with pytest.raises(HypothesisFailure, match=r"failed: \['injective'\]$"):
        tree_of_tangles_in(u, o, F)


def test_a_failed_layer_is_named_by_its_separation_count(p4):
    # a refined order's thresholds are fractions of twenty digits and more,
    # so the witness names the layer by its size instead
    u, o = p4
    inj = refine_injective(o)
    stars = graph_tangle_stars(u, o, "abcd", [("a", "b"), ("b", "c"), ("c", "d")], 2)
    F = standardize(stars.extended(robustness_family(inj, target=u)), u)
    with pytest.raises(HypothesisFailure) as failure:
        tree_of_tangles_in(u, inj, F)
    assert str(failure.value) == (
        "tree-of-tangles hypotheses failed: ['rich']; rich: the layer of 14 separations, "
        "counterexample [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 18]")


def test_a_view_off_threshold_form_fails_only_that_hypothesis(p3):
    # restricting by an order and refining it keeps S_k of threshold form, so
    # no command reaches this hypothesis; a view on one separation that is
    # not of least order does
    u, o = p3
    o2 = refine_injective(o)
    s = sorted(u.seps(), key=lambda t: o2.num[t])[-2]
    view = u.restrict(u.orientations(s))
    F = standardize(robustness_family(o2, target=view), view)
    for theorem in (tree_of_tangles, tree_of_tangles_in):
        with pytest.raises(HypothesisFailure) as failure:
            theorem(view, o2, F)
        assert str(failure.value) == "tree-of-tangles hypotheses failed: ['threshold_form']"


def test_only_richness_walks_orientations(monkeypatch, p3, p3_layered_tot):
    # richness, the one hypothesis that walks orientations, runs last: a case
    # that fails another hypothesis is refused without walking one
    from tanglekit import forbidden
    u, o = p3
    _, o2, F = p3_layered_tot
    slim = ForbiddenFamily(F.sets - robustness_family(o2, target=u).sets)
    searches, search = [], forbidden._orientations

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(forbidden, "_orientations", counted)
    for layered in (False, True):
        with pytest.raises(HypothesisFailure, match=r"failed: \['robustness_included'\]; "):
            check_tot_hypotheses(u, o2, slim, layered=layered)
        with pytest.raises(HypothesisFailure, match=r"failed: \['injective'\]$"):
            check_tot_hypotheses(u, o, F, layered=layered)
    assert searches == []
    check_tot_hypotheses(u, o2, F, layered=True)
    assert searches  # the counter is live


# -- validator ---------------------------------------------------------------------


def test_verify_tot_passes_on_oracle(p3_tot):
    u, o2, s2, F, tree = p3_tot
    tangles = enumerate_tangles(s2, F)
    oracle = distinguisher_report(s2, o2, tangles).optimal_union
    assert verify_tot(s2, o2, oracle, tangles).ok


def test_verify_tot_missing_distinguisher(p3_tot):
    u, o2, s2, F, tree = p3_tot
    tangles = enumerate_tangles(s2, F)
    rep = verify_tot(s2, o2, frozenset(), tangles)
    assert not rep.ok
    assert rep.undistinguished == [(0, 1)]
    assert rep.missing


def test_verify_tot_crossing_witness():
    bip4 = bipartition_universe([1, 2, 3, 4])
    lab = {bip4.label(h): h for h in bip4.elements()}
    o = constant_order(bip4, 1)
    crossing = frozenset({bip4.sep(lab["{1,2}|{3,4}"]), bip4.sep(lab["{1,3}|{2,4}"])})
    rep = verify_tot(bip4, o, crossing, [])
    assert not rep.ok and not rep.nested
    assert rep.crossing_pairs


# -- F-tangles that are not profiles ------------------------------------------------


def random_graph_cases(stars=False):
    """((n, edges, k), inj, sk, fam) for 60 graphs fixed by the seed: 4-6 vertices,
    each pair joined with probability 0.45, edgeless ones skipped; F =
    standardize(R) on S_k for k = 2, 3, with S_k of at most 60 oriented
    separations (101 cases).  With ``stars``, F = standardize(stars + R)."""
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(4, 6)
        edges = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.45]
        if not edges:
            continue
        uni, order = graph_universe(range(n), edges)
        inj = refine_injective(order)
        for k in (2, 3):
            sk = restrict_Sk(uni, inj, k)
            if len(sk.elements()) > 60:
                continue
            fam = robustness_family(inj, target=sk)
            if stars:
                fam = fam.extended(graph_tangle_stars(uni, order, range(n), edges, k))
            yield (n, edges, k), inj, sk, standardize(fam, sk)


def is_non_profile_case(sk, tangles):
    """Two or more tangles, one of which holds a profile triple and so is no
    profile: a case the theorem covers beyond profiles."""
    profiles = profile_family(target=sk)
    return len(tangles) >= 2 and any(profiles.first_inside(mask_of(t)) is not None for t in tangles)


def assert_layered_tangle_nodes(res):
    """The layered tangle nodes, those with two children neither of which is a
    forbidden leaf, are the nodes the marking of ``tangle_nodes`` finds."""
    tree = res.tree
    forbidden = {l for l, c in res.leaf_classes.items() if c.kind == LEAF_FORBIDDEN}
    pruned = [v for v in tree.nodes() if len(tree.children[v]) == 2
              and not forbidden & set(tree.children[v])]
    assert res.tangle_nodes == pruned == tangle_nodes(tree, res.leaf_classes)


def test_tot_on_random_graphs_with_non_profile_tangles():
    # each case fails a hypothesis or satisfies the theorem
    verified = non_profile = 0
    for case, inj, sk, fam in random_graph_cases():
        try:
            res = tree_of_tangles(sk, inj, fam)
        except PreconditionError:
            continue
        assert_tangles_are_brute_force(res, sk, fam)
        rep = verify_tot(sk, inj, res.distinguishers, res.tangles)
        assert rep.ok, (case, rep)
        verified += 1
        non_profile += is_non_profile_case(sk, res.tangles)
    assert verified >= 60  # 71 seen, of 101 cases
    assert non_profile >= 30  # 35 seen


def test_totins_on_random_graphs_with_non_profile_tangles():
    # the same cases through the layered theorem: tot and totins accept the
    # same ones, and each accepted case satisfies the theorem
    verified = non_profile = 0
    for case, inj, sk, fam in random_graph_cases():
        try:
            check_tot_hypotheses(sk, inj, fam)
            tot_accepts = True
        except PreconditionError:
            tot_accepts = False
        try:
            res = tree_of_tangles_in(sk, inj, fam)
        except PreconditionError:
            assert not tot_accepts, case
            continue
        assert tot_accepts, case
        assert_tangles_are_brute_force(res, sk, fam, inj)
        rep = verify_tot(sk, inj, res.distinguishers, res.tangles)
        assert rep.ok, (case, rep)
        assert_layered_tangle_nodes(res)
        verified += 1
        non_profile += is_non_profile_case(sk, res.tangles)
    assert verified >= 60  # 71 seen, of 101 cases
    assert non_profile >= 30  # 35 seen


def test_layered_richness_matches_the_oracle_on_random_graphs():
    # the same cases, every layer walked by the oracle
    fails = 0
    for case, inj, sk, fam in random_graph_cases():
        rich = is_rich(sk, fam, inj, layered=True)
        assert rich == naive_is_rich(sk, fam, inj, layered=True), case
        fails += not rich[0]
    assert fails >= 20  # 30 seen, of 101 cases


def test_both_theorems_on_random_graphs_with_stars():
    # the same graphs with the stars in F: both theorems accept the same
    # cases, and each accepted case satisfies both
    verified = several = 0
    for case, inj, sk, fam in random_graph_cases(stars=True):
        results = []
        for theorem in (tree_of_tangles, tree_of_tangles_in):
            try:
                results.append(theorem(sk, inj, fam))
            except PreconditionError:
                pass
        assert len(results) in (0, 2), case
        if not results:
            continue
        assert_tangles_are_brute_force(results[0], sk, fam)
        assert_tangles_are_brute_force(results[1], sk, fam, inj)
        for res in results:
            rep = verify_tot(sk, inj, res.distinguishers, res.tangles)
            assert rep.ok, (case, rep)
        assert_layered_tangle_nodes(results[1])
        verified += 1
        several += len(results[0].tangles) >= 2
    assert verified >= 90  # 101 seen, of 101 cases
    assert several >= 40  # 47 seen
