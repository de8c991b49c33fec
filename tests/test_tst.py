"""Tangle structure trees: builder, display, necessity, reduction, layering."""

import copy
import json

import pytest

from oracles import beta_by_path_walk, constant_order, naive_gated_reduce
from tanglekit.core import mask_of
from tanglekit.errors import (
    NonInjectiveOrder,
    NotStandard,
    RichnessViolation,
    SystemValidationError,
    TheoremViolation,
)
from tanglekit.fixtures import (
    chain2_system,
    graph_tangle_stars,
    p3_universe,
    singleton_family,
)
from tanglekit.forbidden import (
    ForbiddenFamily,
    enumerate_tangles,
    enumerate_tangles_in,
    is_rich,
    standardize,
)
from tanglekit.ingest import from_relation, tree_from_json
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.reduce import leaf_needs, necessity, reduce_irreducible
from tanglekit.tot import TstInS, _leaf_class_in_s, build_tst_in_S, validate_tst_in_s
from tanglekit.tst import (
    LEAF_TANGLE,
    LEAF_UNRESOLVED,
    LeafClass,
    SeparationTree,
    build_thorough_tst,
    classify_leaf,
    display,
    displayed_tangles,
    is_efficient_tree,
    is_ordered,
    is_thoroughly_ordered,
    validate_separation_tree,
    validate_tst,
)
from tanglekit.universe import restrict_Sk


@pytest.fixture(scope="module")
def p3_setting():
    u, o = p3_universe()
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o, 2)
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), s2)
    return u, o2, s2, F


@pytest.fixture(scope="module")
def p3_tree(p3_setting):
    u, o2, s2, F = p3_setting
    return build_thorough_tst(s2, o2, F)


# -- beta paths -----------------------------------------------------------------


def test_beta_root_empty(p3_tree):
    assert p3_tree.paths[p3_tree.root] == 0


def test_beta_depth_one(p3_tree):
    child = p3_tree.children[p3_tree.root][0]
    assert p3_tree.paths[child] == 1 << p3_tree.edge_label[child]


def test_beta_matches_manual_walk(p3_tree):
    for v in p3_tree.nodes():
        assert p3_tree.paths[v] == mask_of(beta_by_path_walk(p3_tree, v))


# -- validation -------------------------------------------------------------------


def test_single_node_tree_empty_tangle(p3_setting):
    u, o2, s2, F = p3_setting
    empty = restrict_Sk(u, constant_order(u, 5), 0)
    t = SeparationTree(empty, [-1], [-1])
    rep = validate_tst(t, ForbiddenFamily([]))
    assert rep.ok and rep.leaf_classes[0].kind == "tangle"
    assert rep.leaf_classes[0].witness == frozenset()


def test_planted_forbidden_nonleaf_fails(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    inner = [v for v in p3_tree.nodes() if not p3_tree.is_leaf(v)][1]
    bad = F.extended(ForbiddenFamily([beta_by_path_walk(p3_tree, inner)]))
    rep = validate_tst(p3_tree, bad)
    assert not rep.ok
    assert any(reason == "forbidden-subset-at-non-leaf" for _, reason in rep.failures)


def test_builder_output_validates(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    rep = validate_tst(p3_tree, F)
    assert rep.ok
    kinds = {rep.leaf_classes[l].kind for l in p3_tree.leaves()}
    assert kinds == {"tangle", "forbidden"}


def test_malformed_tree_rejected(p3_setting):
    u, o2, s2, F = p3_setting
    h = s2.elements()[0]
    # both child edges carry the same orientation
    t = SeparationTree(s2, [-1, 0, 0], [-1, h, h])
    failures = validate_tst(t, F).failures
    assert any(r == "edge-labels-not-a-bijection" for _, r in failures)


# Hand-broken trees on the chain r-> < s-> (handles 0 = r->, 1 = r<-, 2 = s->,
# 3 = s<-), one per failure of ``validate_separation_tree``: (parent, children,
# labels, whether the tree lives on the view of r alone, the failures).
BROKEN_TREES = {
    "label-not-a-member": (
        [-1, 0, 0], [[1, 2], [], []], [-1, 2, 3], True, [(0, "label-not-a-member")]),
    "children-orient-different-separations": (
        [-1, 0, 0], [[1, 2], [], []], [-1, 0, 2], False,
        [(0, "children-orient-different-separations")]),
    "edge-labels-not-a-bijection": (
        [-1, 0], [[1], []], [-1, 0], False, [(0, "edge-labels-not-a-bijection")]),
    # r-> then s<-: r-> <= s-> = (s<-)*, so the two point away from each other
    "path-labels-inconsistent": (
        [-1, 0, 0, 1, 1], [[1, 2], [3, 4], [], [], []], [-1, 0, 1, 2, 3], False,
        [(4, "path-labels-inconsistent")]),
    "separation-repeats-on-path": (
        [-1, 0, 0, 1, 1], [[1, 2], [3, 4], [], [], []], [-1, 0, 1, 0, 1], False,
        [(0, "separation-repeats-on-path")]),
}


@pytest.mark.parametrize("reason", list(BROKEN_TREES))
def test_validate_separation_tree_names_each_planted_defect(reason):
    parent, children, labels, r_only, want = BROKEN_TREES[reason]
    system = chain2_system()
    if r_only:
        system = system.restrict([0, 1])
    tree = SeparationTree(system, parent, labels)
    assert tree.children == tuple(map(tuple, children))
    assert validate_separation_tree(tree) == want
    assert validate_tst(tree, ForbiddenFamily([])).failures[:len(want)] == want


def test_a_forbidden_empty_set_at_a_non_leaf_is_reported():
    # the empty set is a witness like any other member, though it is falsy
    system = chain2_system()
    tree = SeparationTree(system, [-1, 0, 0], [-1, 0, 1])
    F = ForbiddenFamily([(), (0,), (1,)])
    rep = validate_tst(tree, F)
    assert rep.failures == [(0, "forbidden-subset-at-non-leaf")]
    assert all(c.witness == frozenset() for c in rep.leaf_classes.values())
    order = OrderFunction(system, {0: 1, 2: 2})
    layered = TstInS(tree, rep.leaf_classes)
    assert validate_tst_in_s(layered, F, order).failures == rep.failures


def test_a_tree_holds_its_shape_and_reading_it_changes_nothing(p3_setting):
    # a leaf's class is a function of its path mask, so no reader of a tree
    # leaves state on it: the validator judges a tree apart from its builder
    u, o2, s2, F = p3_setting
    tree = build_thorough_tst(s2, o2, F)
    assert set(vars(tree)) == {"system", "parent", "edge_label", "root", "children", "paths"}
    before = {name: copy.deepcopy(value) for name, value in vars(tree).items()
              if name != "system"}
    classes = validate_tst(tree, F).leaf_classes
    assert classes == {l: classify_leaf(s2, F, tree.paths[l]) for l in tree.leaves()}
    assert not necessity(tree, leaf_needs(s2, F)).irreducible
    reduce_irreducible(tree, F, o2)
    assert vars(tree) == {**before, "system": s2}


# -- ordering --------------------------------------------------------------------


def test_single_node_ordered(p3_setting):
    u, o2, s2, F = p3_setting
    t = SeparationTree(s2, [-1], [-1])
    assert is_ordered(t, o2) and is_thoroughly_ordered(t, o2)


def test_thorough_implies_ordered(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    assert is_thoroughly_ordered(p3_tree, o2)
    assert is_ordered(p3_tree, o2)


def test_planted_order_inversion(p3_setting):
    u, o2, s2, F = p3_setting
    seps = sorted(s2.seps(), key=o2.of)
    hi, lo = seps[-1], seps[0]
    hi_or, lo_or = s2.orientations(hi), s2.orientations(lo)
    t = SeparationTree(
        s2,
        [-1, 0, 0, 1, 1],
        [-1, hi_or[0], hi_or[-1], lo_or[0], lo_or[-1]],
    )
    assert not is_ordered(t, o2)


def test_thorough_order_fails_on_a_separation_the_closure_orients():
    # s first (order 1), then r below s<-: s<- <= r<- puts r<- into the closure
    system = chain2_system()
    o = OrderFunction(system, {0: 2, 2: 1})
    t = SeparationTree(system, [-1, 0, 0, 2, 2], [-1, 2, 3, 0, 1])
    assert is_ordered(t, o)
    assert system.closure_mask(1 << 3) == mask_of({1, 3})
    assert not is_thoroughly_ordered(t, o)


def test_thorough_order_fails_on_a_separation_not_of_least_order():
    # nothing is oriented at the root, and r has the lower order
    system = chain2_system()
    o = OrderFunction(system, {0: 1, 2: 2})
    t = SeparationTree(system, [-1, 0, 0], [-1, 2, 3])
    assert is_ordered(t, o)
    assert not is_thoroughly_ordered(t, o)


# -- builder ----------------------------------------------------------------------


def test_empty_system_single_tangle_leaf(p3_setting):
    u, o2, s2, F = p3_setting
    empty = restrict_Sk(u, o2, 0)
    t = build_thorough_tst(empty, o2, ForbiddenFamily([]))
    assert len(t.parent) == 1
    assert validate_tst(t, ForbiddenFamily([])).ok


def test_p3_tangles_displayed_bijectively(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    brute = set(enumerate_tangles(s2, F))
    shown = displayed_tangles(p3_tree, F)
    assert brute == shown
    leaves = {display(p3_tree, t) for t in brute}
    assert len(leaves) == len(brute)
    for t in brute:
        assert classify_leaf(s2, F, p3_tree.paths[display(p3_tree, t)]).witness == t


def test_builder_deterministic(p3_setting):
    u, o2, s2, F = p3_setting
    a = build_thorough_tst(s2, o2, F)
    b = build_thorough_tst(s2, o2, F)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_builder_rejects_noninjective(p3_setting):
    u, o2, s2, F = p3_setting
    _, o = p3_universe()
    with pytest.raises(NonInjectiveOrder):
        build_thorough_tst(s2, o, F)


def test_builder_rejects_nonstandard(p3_setting):
    u, o2, s2, F = p3_setting
    with pytest.raises(NotStandard):
        build_thorough_tst(s2, o2, ForbiddenFamily([]))


def test_richness_violation_diagnostic(p3_setting):
    # standard but not rich: high-order member whose low-order shadow is absent
    u, o2, s2, F = p3_setting
    seps = sorted(s2.seps(), key=o2.of)
    top = seps[-1]
    x = s2.orientations(top)[0]
    base = standardize(ForbiddenFamily([]), s2)
    fam = base.extended(ForbiddenFamily([{x}]))
    assert not is_rich(s2, fam, o2)[0]
    with pytest.raises(RichnessViolation) as e:
        build_thorough_tst(s2, o2, fam)
    assert e.value.forbidden_subset in fam
    assert s2.is_orientation_mask(mask_of(e.value.closure))


# -- display ---------------------------------------------------------------------


def test_display_single_leaf_tree(p3_setting):
    u, o2, s2, F = p3_setting
    empty = restrict_Sk(u, o2, 0)
    t = build_thorough_tst(empty, o2, ForbiddenFamily([]))
    assert display(t, frozenset()) == t.root


def test_display_non_orientation_rejected(p3_tree):
    with pytest.raises(SystemValidationError):
        display(p3_tree, frozenset())


def test_display_arbitrary_orientation_unique_leaf(p3_tree, p3_setting):
    # every orientation contains beta_l for exactly one leaf
    u, o2, s2, F = p3_setting
    for tau in s2.consistent_orientations():
        hits = [l for l in p3_tree.leaves() if not p3_tree.paths[l] & ~mask_of(tau)]
        assert len(hits) == 1
        assert display(p3_tree, tau) == hits[0]
        if not enumerate_tangles(s2, F) or tau not in set(enumerate_tangles(s2, F)):
            pass


def test_display_non_tangle_lands_forbidden(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    tangles = set(enumerate_tangles(s2, F))
    rep = validate_tst(p3_tree, F)
    for tau in s2.consistent_orientations():
        leaf = display(p3_tree, tau)
        if tau not in tangles:
            assert rep.leaf_classes[leaf].kind == "forbidden"
            assert not p3_tree.paths[leaf] & ~mask_of(tau)


# -- efficiency / necessity / reduction -----------------------------------------------


def test_thorough_trees_efficient(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    assert is_efficient_tree(p3_tree, o2)


def test_efficiency_violated_by_planted_tree(p3_setting):
    u, o2, s2, F = p3_setting
    lab = {u.label(h): h for h in u.elements()}
    lo, hi = lab["{a,b,c}|{b}"], lab["{a,b,c}|{a,b,c}"]
    assert u.lt(lo, hi) and o2.of(lo) < o2.of(hi)  # hi is eclipsed by lo
    t = SeparationTree(u, [-1, 0, 0, 1], [-1, lo, u.inv(lo), hi])
    assert not is_efficient_tree(t, o2)


def test_depth_one_root_necessary(p3_setting):
    u, o2, s2, F = p3_setting
    one = s2.restrict(s2.orientations(sorted(s2.seps(), key=o2.of)[-1]))
    fam = standardize(ForbiddenFamily([]), one)
    t = build_thorough_tst(one, o2, fam)
    rep = necessity(t, leaf_needs(one, fam))
    assert rep.node_necessary[t.root]
    assert rep.irreducible


def test_leaves_vacuously_necessary(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    rep = necessity(p3_tree, leaf_needs(s2, F))
    assert set(rep.node_necessary) == {v for v in p3_tree.nodes()
                                       if not p3_tree.is_leaf(v)}


def test_p3_tree_has_unnecessary_node_and_reduces(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    rep = necessity(p3_tree, leaf_needs(s2, F))
    assert not rep.irreducible  # the redundant branch is caught
    red = reduce_irreducible(p3_tree, F, o2)
    assert validate_tst(red, F).ok
    assert necessity(red, leaf_needs(s2, F)).irreducible
    assert is_ordered(red, o2) and is_efficient_tree(red, o2)
    assert displayed_tangles(red, F) == displayed_tangles(p3_tree, F)


def test_reduce_already_irreducible_unchanged(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    red = reduce_irreducible(p3_tree, F, o2)
    again = reduce_irreducible(red, F, o2)
    assert again.to_json() == red.to_json()


def test_tangleless_reduction_yields_ftree(p3_setting):
    u, o2, s2, F = p3_setting
    fam = singleton_family(s2)
    t = build_thorough_tst(s2, o2, fam)
    red = reduce_irreducible(t, fam, o2)
    rep = validate_tst(red, fam)
    assert rep.ok
    assert all(c.kind == "forbidden" for c in rep.leaf_classes.values())


def ladder_reduction_cases():
    """The ladder's S_2 and S_3 with the standardized stars, and with stars + R
    + standardize, as the CLI's ``reduce --k`` builds them: (name, k, S_k,
    family, refined order)."""
    from test_lattice_rule import LADDER
    from tanglekit.forbidden import robustness_family
    from tanglekit.universe import graph_universe

    for name in ("P4", "P5", "C4", "C5", "K4", "K2,3", "K1,4"):
        n, edges = LADDER[name]
        u, o = graph_universe(range(n), edges)
        oi = refine_injective(o)
        for k in (2, 3):
            system = restrict_Sk(u, o, k)
            stars = graph_tangle_stars(u, o, range(n), edges, k)
            with_r = stars.extended(robustness_family(oi, target=system))
            for fam in (standardize(stars, system), standardize(with_r, system)):
                yield name, k, system, fam, oi


@pytest.mark.parametrize("gate", ["validate_tst", "is_ordered", "is_efficient_tree",
                                  "displayed_tangles"])
def test_a_failed_gate_raises_theorem_violation_naming_it(p3_tree, p3_setting,
                                                          monkeypatch, gate):
    import tanglekit.reduce
    u, o2, s2, F = p3_setting
    real = getattr(tanglekit.reduce, gate)
    spoil = {"validate_tst": lambda rep: rep._replace(ok=False),
             "displayed_tangles": lambda tangles: tangles | {frozenset()}}.get(
                 gate, lambda verdict: False)

    def failing(tree, *args):
        # the input's own tangles are read through the same function
        out = real(tree, *args)
        return out if tree is p3_tree else spoil(out)
    monkeypatch.setattr(tanglekit.reduce, gate, failing)
    with pytest.raises(TheoremViolation, match=f"fails its {gate} gate") as exc:
        reduce_irreducible(p3_tree, F, o2)
    assert exc.value.report == {"gate": gate}


def test_reduction_runs_its_gates_once(monkeypatch):
    # K1,4's S_3 with the standardized stars takes 21 contractions; the rounds
    # classify each root path once, and the gates classify the result afresh
    import tanglekit.reduce
    import tanglekit.tst
    _, _, system, fam, oi = next(case for case in ladder_reduction_cases()
                                 if case[:2] == ("K1,4", 3))
    tree = build_thorough_tst(system, oi, fam)
    calls = {"_contract_move": 0, "validate_tst": 0, "classify_leaf": 0}
    # each name where its callers read it: the rounds and gates in reduce,
    # the classification of a whole tree in tst
    for mod in (tanglekit.reduce, tanglekit.tst):
        for name in calls:
            if not hasattr(mod, name):
                continue
            real = getattr(mod, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(mod, name, counted)
    reduce_irreducible(tree, fam, oi)
    assert calls == {"_contract_move": 21, "validate_tst": 1, "classify_leaf": 298}


# -- layered trees ------------------------------------------------------------------


@pytest.fixture(scope="module")
def p3_layered():
    u, o = p3_universe()
    o2 = refine_injective(o)
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 4), u)
    return u, o2, F


def test_layered_build_validates(p3_layered):
    u, o2, F = p3_layered
    res = build_tst_in_S(u, o2, F)
    assert len(res.tree.parent) > 1
    assert validate_tst_in_s(res, F, o2).ok


def test_validate_tst_in_s_names_each_planted_defect(p3_layered):
    u, o2, F = p3_layered
    res = build_tst_in_S(u, o2, F)
    tree, classes = res.tree, res.leaf_classes
    leaf = min(l for l, c in classes.items() if c.kind == LEAF_TANGLE)
    unresolved = res._replace(leaf_classes={
        **classes, leaf: LeafClass(LEAF_UNRESOLVED, frozenset())})
    assert validate_tst_in_s(unresolved, F, o2).failures == [
        (leaf, "leaf-neither-tangle-nor-forbidden")]
    shrunk = classes[leaf].witness - {min(classes[leaf].witness)}
    not_maximal = res._replace(leaf_classes={
        **classes, leaf: LeafClass(LEAF_TANGLE, shrunk)})
    assert validate_tst_in_s(not_maximal, F, o2).failures == [
        (leaf, "tangle-leaf-not-a-maximal-tangle")]
    inner = tree.parent[leaf]
    failures = validate_tst_in_s(
        res, F.extended(ForbiddenFamily([beta_by_path_walk(tree, inner)])), o2).failures
    assert (inner, "forbidden-subset-at-non-leaf") in failures


# Hand trees with a leaf that the maximal-tangle notion leaves unresolved, one
# per way: (system, parent, labels, order values, family, the leaf).  The
# separation t (handles 4 and 5) is nested with neither r nor s of the chain.
# In the middle two, the family forbids both one-step extensions of the path,
# so that tau alone leaves the leaf unresolved.
UNRESOLVED_LEAVES = {
    # the BROKEN_TREES shape: r-> then s<- point away from each other
    "path-closure-inconsistent": (
        chain2_system, [-1, 0, 0, 1, 1], [-1, 0, 1, 2, 3], {0: 1, 2: 2}, [], 4),
    # r oriented twice: tau holds both orientations of r, of order below s
    "tau-no-orientation-of-its-layer": (
        lambda: from_relation([1, 0, 3, 2], []),
        [-1, 0, 0, 1, 1], [-1, 0, 1, 0, 1], {0: 1, 2: 2}, [(2,), (3,)], 4),
    # the path {r->} avoids {s->}, its closure {r->, s->} does not
    "tau-holds-a-member-the-path-does-not": (
        lambda: from_relation([1, 0, 3, 2, 5, 4], [(0, 2), (3, 1)]),
        [-1, 0, 0], [-1, 0, 1], {2: 1, 0: 2, 4: 3}, [(2,), (4,), (5,)], 1),
    # the empty family forbids neither orientation of r
    "extension-not-forbidden": (chain2_system, [-1], [-1], {0: 1, 2: 2}, [], 0),
}


@pytest.mark.parametrize("case", list(UNRESOLVED_LEAVES))
def test_a_leaf_the_maximal_tangle_notion_cannot_resolve(case):
    make, parent, labels, values, members, leaf = UNRESOLVED_LEAVES[case]
    system = make()
    tree = SeparationTree(system, parent, labels)
    order, family = OrderFunction(system, values), ForbiddenFamily(members)
    classes = {l: _leaf_class_in_s(tree, family, order, l) for l in tree.leaves()}
    assert classes[leaf] == LeafClass(LEAF_UNRESOLVED, frozenset())
    failures = validate_tst_in_s(TstInS(tree, classes), family, order).failures
    assert (leaf, "leaf-neither-tangle-nor-forbidden") in failures
    needed = necessity(tree, leaf_needs(system, family)).edge_necessary_for
    assert not any(leaf in leaves for leaves in needed.values())


def test_layered_tangle_leaves_are_maximal_tangles(p3_layered):
    u, o2, F = p3_layered
    res = build_tst_in_S(u, o2, F)
    shown = sorted(sorted(c.witness) for c in res.leaf_classes.values()
                   if c.kind == "tangle")
    brute = sorted(sorted(t.elements) for t in enumerate_tangles_in(u, F, o2) if t.maximal)
    assert shown == brute
    assert len(shown) == len({tuple(s) for s in shown})


def test_layer_trees_nest(p3_layered):
    u, o2, F = p3_layered
    from tanglekit.forbidden import order_thresholds
    paths = []
    for k in order_thresholds(u, o2):
        sub = restrict_Sk(u, o2, k)
        t = build_thorough_tst(sub, o2, F)
        sigs = set()
        for v in t.nodes():
            out, w = [], v
            while t.parent[w] >= 0:
                out.append(t.edge_label[w])
                w = t.parent[w]
            sigs.add(tuple(reversed(out)))
        paths.append(sigs)
    for small, big in zip(paths, paths[1:]):
        assert small <= big


def test_tree_json_round_trip(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    blob = p3_tree.to_json(validate_tst(p3_tree, F).leaf_classes)
    back = tree_from_json(s2, blob)
    assert back.to_json() == p3_tree.to_json()


def test_full_tree_nonleaves_are_layer_tangle_leaves(p3_layered):
    # every non-leaf of the full-system thorough tree displays a tangle of the
    # layer where its separation first exceeds the threshold
    u, o2, F = p3_layered
    from tanglekit.forbidden import avoids
    from tanglekit.core import iter_mask, mask_of
    tree = build_thorough_tst(u, o2, F)
    for v in tree.nodes():
        if tree.is_leaf(v):
            continue
        cl = frozenset(iter_mask(u.closure_mask(tree.paths[v])))
        oriented = {u.sep(h) for h in cl}
        unoriented = [s for s in u.seps() if s not in oriented]
        k = min(o2.of(s) for s in unoriented)
        sub = restrict_Sk(u, o2, k)
        tau = frozenset(h for h in cl if o2.of(h) < k)
        assert sub.is_orientation_mask(mask_of(tau))
        assert avoids(mask_of(tau), F)
        layer_tree = build_thorough_tst(sub, o2, F)
        leaf = display(layer_tree, tau)
        from tanglekit.tst import classify_leaf
        assert classify_leaf(sub, F, layer_tree.paths[leaf]).kind == "tangle"


def test_reduction_sweep_over_random_fixtures():
    # one contraction per round must reach an irreducible tree on every
    # fixture, mixed tangle/forbidden trees included, without changing the
    # tangle set, and keep the tree the gated search keeps
    import random
    from tanglekit.fixtures import (
        eclipse_closure, random_star_family, random_universes)
    from tanglekit.forbidden import is_rich, robustness_family

    rng = random.Random(99)
    cases = []
    for uni, o in random_universes(count=40, seed=2024):
        oi = refine_injective(o)
        fam = standardize(robustness_family(oi, target=uni), uni)
        fam = eclipse_closure(uni, fam.extended(random_star_family(uni, oi, rng)), oi)
        if is_rich(uni, fam, oi)[0]:
            cases.append((uni, fam, oi))
    rich = len(cases)
    cases += [case[2:] for case in ladder_reduction_cases()]
    reduced, mixed = 0, 0
    for i, (system, fam, oi) in enumerate(cases):
        tree = build_thorough_tst(system, oi, fam)
        tangles = displayed_tangles(tree, fam)
        if i < rich and tangles and len(tree.leaves()) > len(tangles):
            mixed += 1
        red = reduce_irreducible(tree, fam, oi)
        assert validate_tst(red, fam).ok
        assert necessity(red, leaf_needs(system, fam)).irreducible
        assert is_ordered(red, oi) and is_efficient_tree(red, oi)
        assert displayed_tangles(red, fam) == tangles
        assert red.to_json() == naive_gated_reduce(tree, fam, oi).to_json()
        reduced += 1
    assert rich >= 30 and mixed >= 5 and reduced == rich + 28


def test_tangle_leaves_never_forbidden(p3_tree, p3_setting):
    u, o2, s2, F = p3_setting
    rep = validate_tst(p3_tree, F)
    for leaf, c in rep.leaf_classes.items():
        if c.kind == "tangle":
            assert not any(s <= beta_by_path_walk(p3_tree, leaf) for s in F)


def test_minimality_in_beta_equals_minimality_in_closure(p3_tree, p3_setting):
    # necessity may test minimality in the path set instead of its closure
    u, o2, s2, F = p3_setting
    from tanglekit.tst import classify_leaf
    for leaf in p3_tree.leaves():
        c = classify_leaf(s2, F, p3_tree.paths[leaf])
        if c.kind != "tangle":
            continue
        beta = beta_by_path_walk(p3_tree, leaf)
        closure = c.witness
        for x in beta:
            min_in_beta = not any(s2.lt(y, x) for y in beta)
            min_in_closure = not any(s2.lt(y, x) for y in closure)
            assert min_in_beta == min_in_closure


def test_degenerate_separation_single_child_build():
    # a lone degenerate separation: the builder attaches one child, the
    # validator accepts the one-edge bijection, display walks through it
    from tanglekit.orderfn import OrderFunction
    d = from_relation([0], [], labels=["d"])
    o = OrderFunction(d, {0: 1})
    fam = ForbiddenFamily([])
    tree = build_thorough_tst(d, o, fam)
    assert len(tree.parent) == 2 and tree.children[tree.root] != []
    rep = validate_tst(tree, fam)
    assert rep.ok
    leaf = tree.leaves()[0]
    assert rep.leaf_classes[leaf].kind == "tangle"
    assert display(tree, frozenset({0})) == leaf


LAYER_GRAPHS = {
    "P3": ("abc", [("a", "b"), ("b", "c")]),
    "P4": ("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    "C4": ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    "K4": ("abcd", [(x, y) for i, x in enumerate("abcd") for y in "abcd"[i + 1:]]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("graph", sorted(LAYER_GRAPHS))
def test_degenerate_layer_check_fires_exactly_when_a_closure_is_inconsistent(graph, k):
    # the layered stars plus R and the standard singletons, as totins loads them.
    # Standardness covers every s below a degenerate separation (its inverse is
    # trivial), so once the layered hypotheses pass, standardness and richness
    # on every layer among them, build_thorough_tst never finds an
    # inconsistent path closure.
    from tanglekit.errors import HypothesisFailure, TanglekitError, TheoremViolation
    from tanglekit.forbidden import robustness_family
    from tanglekit.tot import check_tot_hypotheses
    from tanglekit.universe import graph_universe
    vertices, edges = LAYER_GRAPHS[graph]
    u, o = graph_universe(vertices, edges)
    o2 = refine_injective(o)
    fam = graph_tangle_stars(u, o, vertices, edges, k)
    fam = standardize(fam.extended(robustness_family(o2, target=u)), u)
    try:
        check_tot_hypotheses(u, o2, fam, layered=True)
    except HypothesisFailure:
        return
    try:
        build_thorough_tst(u, o2, fam)
    except TheoremViolation as exc:
        assert not str(exc).startswith("closure of the path"), str(exc)
    except TanglekitError:
        pass
