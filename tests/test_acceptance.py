"""Acceptance criteria, one test (and one printed pass/fail line) each.

All comparisons are exact: rational orders, frozenset equality, byte-equal
serializations.  The fixture suite is P3/P4 graph universes, bipartition
universes on ground sets up to size 4, the hand-built posets, and 100 seeded
random sub-universes with at most 8 separations.  Run pytest with -s (or
read the terminal summary) for the per-criterion lines.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from oracles import (
    assert_tangles_are_brute_force,
    check_nested_corollary,
    constant_order,
    default_iota,
    enumeration_refinement,
    is_nested_set,
    lemma_shift_select,
    naive_gamma,
    naive_stree_excludes_tangles,
    naive_without_trivial,
    tree_infimum,
)

from tanglekit.core import mask_of
from tanglekit.duality import (
    closed_under_shifting,
    dichotomy,
    emulates,
    stree_excludes_tangles,
    validate_conversion,
)
from tanglekit.errors import TanglekitError
from tanglekit.fixtures import (
    _cut_order,
    eclipse_closure,
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
    enumerate_tangles,
    f_eff,
    is_rich,
    is_standard,
    robustness_family,
    standardize,
)
from tanglekit.orderfn import OrderFunction, refine_injective, refines
from tanglekit.tot import (
    distinguisher_report,
    tangle_nodes,
    tree_of_tangles,
    tree_of_tangles_in,
    verify_tot,
)
from tanglekit.tst import (
    build_thorough_tst,
    classify_leaf,
    classify_leaves,
    display,
    displayed_tangles,
    leaf_needs,
    necessity,
    validate_tst,
)
from tanglekit.universe import (
    bipartition_universe,
    is_structurally_submodular,
    is_submodular,
    restrict_Sk,
)

RESULTS = []
_T0 = time.perf_counter()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        RESULTS.append(f"ACCEPTANCE {num:>2} {name}: FAIL")
        print(RESULTS[-1])
        raise
    RESULTS.append(f"ACCEPTANCE {num:>2} {name}: PASS")
    print(RESULTS[-1])


@dataclass
class Case:
    name: str
    system: object
    order: object          # injective, refined
    family: object
    rich: bool = False
    standard: bool = False

    def qualifies(self):
        return self.rich and self.standard


def _case(name, system, order, family):
    rich, _ = is_rich(system, family, order)
    standard, _ = is_standard(family, system)
    return Case(name, system, order, family, rich, standard)


@pytest.fixture(scope="module")
def suite():
    cases = []
    p3, o3 = p3_universe()
    o3i = refine_injective(o3)
    p4, o4 = p4_universe()
    o4i = refine_injective(o4)
    p3_edges = [("a", "b"), ("b", "c")]
    p4_edges = [("a", "b"), ("b", "c"), ("c", "d")]

    for (uni, base, inj, edges, verts, ks, tag) in (
            (p3, o3, o3i, p3_edges, "abc", (2, 4), "p3"),
            (p4, o4, o4i, p4_edges, "abcd", (2, 3), "p4")):
        for k in ks:
            sk = restrict_Sk(uni, inj, k)
            fam = standardize(graph_tangle_stars(uni, base, verts, edges, k), sk)
            fam = fam.extended(robustness_family(inj, target=sk))
            cases.append(_case(f"{tag}-k{k}", sk, inj, fam))

    heavy = bipartition_universe([1, 2, 3])
    oh = refine_injective(_cut_order(heavy, {(0, 1): 4, (0, 2): 1, (1, 2): 1}, 3))
    robust = robustness_family(oh, target=heavy)
    fam = eclipse_closure(heavy, standardize(robust, heavy), oh)
    cases.append(_case("bip3-heavy", heavy, oh, fam))

    import random
    rng = random.Random(99)
    randoms = []
    for i, (uni, o) in enumerate(random_universes(count=100, seed=2024)):
        oi = refine_injective(o)
        fam = standardize(robustness_family(oi, target=uni), uni)
        fam = eclipse_closure(uni, fam.extended(random_star_family(uni, oi, rng)), oi)
        c = _case(f"rand-{i}", uni, oi, fam)
        randoms.append(c)
        cases.append(c)
    return cases, randoms


@pytest.fixture(scope="module")
def trees(suite):
    cases, _ = suite
    out = {}
    for c in cases:
        if c.qualifies():
            out[c.name] = build_thorough_tst(c.system, c.order, c.family)
    return out


def test_criterion_1_display(suite, trees):
    with criterion(1, "display bijection onto brute-force tangles"):
        cases, _ = suite
        started = time.perf_counter()
        qualifying = [c for c in cases if c.qualifies()]
        assert len(qualifying) >= 100, "fixture suite too small to be meaningful"
        displayed_any = 0
        for c in qualifying:
            tree = trees[c.name]
            brute = set(enumerate_tangles(c.system, c.family))
            rep = validate_tst(tree, c.family)
            assert rep.ok, (c.name, rep.failures)
            shown = displayed_tangles(tree, c.family)
            assert shown == brute, c.name
            leaves = [display(tree, t) for t in sorted(brute, key=sorted)]
            assert len(set(leaves)) == len(brute), c.name
            for t in brute:
                leaf = display(tree, t)
                assert classify_leaf(c.system, c.family, tree.paths[leaf]).witness == t
            displayed_any += len(brute)
        elapsed = time.perf_counter() - started
        assert displayed_any > 0
        assert elapsed < 60, f"display suite took {elapsed:.1f}s"


def test_criterion_2_uniqueness(suite, trees):
    with criterion(2, "deterministic unique builds"):
        cases, _ = suite
        for c in cases:
            if not c.qualifies():
                continue
            a = build_thorough_tst(c.system, c.order, c.family)
            blob_a = json.dumps(a.to_json(), sort_keys=True).encode()
            blob_b = json.dumps(trees[c.name].to_json(), sort_keys=True).encode()
            assert blob_a == blob_b, c.name


@pytest.fixture(scope="module")
def dichotomy_runs(suite):
    cases, randoms = suite
    runs = []
    p3, o3 = p3_universe()
    o3i = refine_injective(o3)
    s2 = restrict_Sk(p3, o3i, 2)
    s2t = s2.restrict(naive_without_trivial(s2))
    runs.append(("p3-singletons", s2t, o3i, singleton_family(s2t)))
    p4, o4 = p4_universe()
    o4i = refine_injective(o4)
    s3 = restrict_Sk(p4, o4i, 3)
    s3t = s3.restrict(naive_without_trivial(s3))
    runs.append(("p4-singletons", s3t, o4i, singleton_family(s3t)))
    for c in randoms:
        sub = c.system.restrict(naive_without_trivial(c.system))
        if not len(sub):
            continue
        fam = singleton_family(sub)
        runs.append((c.name + "-singletons", sub, c.order, fam))
    out = []
    for name, system, order, fam in runs:
        ok, _ = is_rich(system, fam, order)
        if not ok or not is_standard(fam, system)[0]:
            continue
        res = dichotomy(system, order, fam, check_exclusive=True)
        out.append((name, system, order, fam, res))
    return out


def test_criterion_3_dichotomy(suite, dichotomy_runs):
    with criterion(3, "dichotomy: exactly one branch, stars in F_eff"):
        assert len(dichotomy_runs) >= 100
        stree_seen = 0
        for name, system, order, fam, res in dichotomy_runs:
            brute = enumerate_tangles(system, fam)
            assert (res.kind == "tangle") == bool(brute), name
            if res.kind == "stree":
                stree_seen += 1
                ok, _ = stree_excludes_tangles(res.stree, fam)
                assert ok, name
                assert naive_stree_excludes_tangles(res.stree, fam)[0] is ok, name
                eff = f_eff(system, fam, order)
                for t in res.stree.nodes():
                    assert res.stree.star_at(t) in eff, name
        assert stree_seen >= 50, "suite needs tangleless fixtures to bite"


def test_criterion_4_conversion(dichotomy_runs):
    with criterion(4, "conversion clauses, counts, image, monotone alpha"):
        converted = 0
        for name, system, order, fam, res in dichotomy_runs:
            if res.kind != "stree":
                continue
            converted += 1
            tree, stree, cmap = res.reduced, res.stree, res.conversion
            rep = validate_conversion(tree, stree, cmap)
            assert rep.ok, (name, rep.failures)
            assert stree.n_nodes == len(tree.leaves()), name
            assert len(stree.edges()) == sum(
                1 for v in tree.nodes() if not tree.is_leaf(v)), name
            beta_img = {tree.edge_label[v] for v in tree.nodes()
                        if tree.parent[v] >= 0}
            assert beta_img == set(stree.alpha.values()), name
            for (a, b) in stree.oriented_edges():
                for c in stree.adj[b]:
                    if c != a:
                        assert system.lt(stree.alpha[(b, c)],
                                         stree.alpha[(a, b)]), name
        assert converted >= 50


def test_criterion_5_nestedness(dichotomy_runs):
    with criterion(5, "irreducible forbidden-leaf trees have nested images"):
        checked = 0
        for name, system, order, fam, res in dichotomy_runs:
            if res.kind != "stree":
                continue
            assert check_nested_corollary(res.reduced), name
            checked += 1
        assert checked >= 50


def test_criterion_6_refinement(suite):
    with criterion(6, "injective submodular refinement and enumeration"):
        universes = [bipartition_universe([1]), bipartition_universe([1, 2]),
                     bipartition_universe([1, 2, 3]),
                     bipartition_universe([1, 2, 3, 4])]
        orders = [constant_order(u, 1) for u in universes]
        p3, o3 = p3_universe()
        universes.append(p3)
        orders.append(o3)
        for u, o in random_universes(count=100, seed=2024):
            universes.append(u.ground)
            orders.append(o)
        checked = 0
        for u, o in zip(universes, orders):
            if len(u.ground.seps()) > 10:
                continue
            o2 = refine_injective(o)
            assert o2.is_injective_on(u.ground)
            ok, witness = is_submodular(u.ground, o2)
            assert ok, witness
            assert refines(o2, o, u.ground)[0]
            iota = default_iota(u.ground)
            sym = []
            for s in u.ground.seps():
                ors = u.ground.orientations(s)
                sym.append(naive_gamma(u.ground, 3, iota, ors[0])
                           + naive_gamma(u.ground, 3, iota, ors[-1]))
            assert len(set(sym)) == len(sym)
            e = enumeration_refinement(u.ground, o)
            assert is_structurally_submodular(u.ground, e)[0]
            assert refines(e, o, u.ground)[0]
            checked += 1
        assert checked >= 100


def test_criterion_7_tree_of_tangles(suite, trees):
    with criterion(7, "trees of tangles equal the distinguisher oracle"):
        cases, _ = suite
        qualifying = 0
        with_pairs = 0
        for c in cases:
            if not c.qualifies():
                continue
            robust = robustness_family(c.order, target=c.system)
            if set(robust) - set(c.family):
                continue
            tree = trees[c.name]
            n = tree_of_tangles(c.system, c.order, c.family).distinguishers
            tangles = enumerate_tangles(c.system, c.family)
            rep = verify_tot(c.system, c.order, n, tangles)
            assert rep.ok, (c.name, rep.missing, rep.extra, rep.undistinguished)
            assert is_nested_set(
                c.system, [h for s in n for h in c.system.orientations(s)]), c.name
            pairs = distinguisher_report(c.system, c.order, tangles).pairs
            nodes = tangle_nodes(tree, classify_leaves(tree, c.family))
            for (i, j), pr in pairs.items():
                v = tree_infimum(tree, display(tree, tangles[i]),
                                 display(tree, tangles[j]))
                assert v in nodes, c.name
                assert pr.optimal == {tree.node_sep(v)}, c.name
                with_pairs += 1
            qualifying += 1
        assert qualifying >= 80


def test_criterion_8_layered_tree_of_tangles(suite):
    with criterion(8, "layered trees of tangles and nested layer builds"):
        cases, randoms = suite
        p3, o3 = p3_universe()
        o3i = refine_injective(o3)
        fam3 = standardize(
            graph_tangle_stars(p3, o3, "abc", [("a", "b"), ("b", "c")], 4), p3)
        fam3 = fam3.extended(robustness_family(o3i, target=p3))
        p4, o4 = p4_universe()
        o4i = refine_injective(o4)
        fam4 = standardize(graph_tangle_stars(
            p4, o4, "abcd", [("a", "b"), ("b", "c"), ("c", "d")], 5), p4)
        fam4 = fam4.extended(robustness_family(o4i, target=p4))
        layered = [("p3-full", p3, o3i, fam3), ("p4-full", p4, o4i, fam4)]
        for c in randoms[:40]:
            layered.append((c.name, c.system, c.order, c.family))
        ran = 0
        for name, system, order, fam in layered:
            robust = robustness_family(order, target=system)
            if set(robust) - set(fam):
                continue
            try:
                res = tree_of_tangles_in(system, order, fam)
            except TanglekitError:
                continue
            assert_tangles_are_brute_force(res, system, fam, order)
            maximal = res.tangles
            rep = verify_tot(system, order, res.distinguishers, maximal)
            assert rep.ok, (name, rep.missing, rep.extra, rep.undistinguished)
            from tanglekit.forbidden import order_thresholds
            sigs = []
            for k in order_thresholds(system, order):
                sub = restrict_Sk(system, order, k)
                t = build_thorough_tst(sub, order, fam)
                paths = set()
                for v in t.nodes():
                    out, w = [], v
                    while t.parent[w] >= 0:
                        out.append(t.edge_label[w])
                        w = t.parent[w]
                    paths.add(tuple(reversed(out)))
                sigs.append(paths)
            for small, big in zip(sigs, sigs[1:]):
                assert small <= big, name
            ran += 1
        assert ran >= 20


def test_criterion_9_shifting(suite):
    with criterion(9, "shift selection postconditions; closure implies richness"):
        cases, randoms = suite
        p3, o3 = p3_universe()
        o3i = refine_injective(o3)
        p4, o4 = p4_universe()
        o4i = refine_injective(o4)
        threshold_fixtures = [
            ("p3-s2", restrict_Sk(p3, o3i, 2), o3i),
            ("p4-s2", restrict_Sk(p4, o4i, 2), o4i),
        ] + [(c.name, c.system, c.order) for c in randoms[:30]]
        scenarios = 0
        for name, system, order, in threshold_fixtures:
            for tau in system.consistent_orientations():
                for s in sorted(tau):
                    if system.is_trivial(s) or system.is_degenerate(s):
                        continue
                    cands = [r for r in tau
                             if system.lt(r, s) and order.of(r) < order.of(s)]
                    if not cands:
                        continue
                    sigma = frozenset({s})
                    r, shifted = lemma_shift_select(system, order, tau, sigma, s)
                    assert emulates(system, r, s), name
                    assert system.is_star_mask(mask_of(shifted)), name
                    assert shifted <= tau, name
                    assert (sum(order.of(x) for x in shifted)
                            < sum(order.of(x) for x in sigma)), name
                    scenarios += 1
        assert scenarios >= 20
        closed_seen = 0
        for name, system, order in threshold_fixtures[:10]:
            fam = ForbiddenFamily(
                [{h} for h in system.elements()
                 if not system.is_degenerate(h) and not system.is_trivial(h)])
            fam = ForbiddenFamily([s for s in fam
                                   if system.is_star_mask(mask_of(s))])
            ok, _ = closed_under_shifting(system, fam, order)
            if ok:
                closed_seen += 1
                assert is_rich(system, fam, order)[0] or not any(
                    s <= t for s in fam
                    for t in system.consistent_orientations()), name
        # the graph star families are closed under shifting and rich
        s2 = restrict_Sk(p3, o3i, 2)
        fam = standardize(
            graph_tangle_stars(p3, o3, "abc", [("a", "b"), ("b", "c")], 2), s2)
        ok, _ = closed_under_shifting(s2, fam, o3i)
        assert ok
        assert is_rich(s2, fam, o3i)[0]
        assert closed_seen >= 1


def test_criterion_10_negative_controls():
    with criterion(10, "planted defects caught with witnesses"):
        bip2 = bipartition_universe([1, 2])
        lab = {bip2.label(h): h for h in bip2.elements()}
        # non-submodular order
        vals = {bip2.sep(h): 0 for h in bip2.elements()}
        vals[bip2.sep(lab["{1,2}|{}"])] = 5
        bad_order = OrderFunction(bip2, vals)
        ok, witness = is_submodular(bip2, bad_order)
        assert not ok and witness is not None
        # non-standard family
        pt = ptriv_system()
        ok, missing = is_standard(ForbiddenFamily([]), pt)
        assert not ok and missing == [frozenset({3})]
        # crossing pair inside a supposedly nested set
        bip4 = bipartition_universe([1, 2, 3, 4])
        lab4 = {bip4.label(h): h for h in bip4.elements()}
        crossing = {lab4["{1,2}|{3,4}"], lab4["{1,3}|{2,4}"]}
        pairs = bip4.crossing_pairs(crossing)
        assert pairs and all(not bip4.is_nested(r, s) for r, s in pairs)
        # reducible tree flagged with the unnecessary node
        p3, o3 = p3_universe()
        o3i = refine_injective(o3)
        s2 = restrict_Sk(p3, o3i, 2)
        fam = standardize(
            graph_tangle_stars(p3, o3, "abc", [("a", "b"), ("b", "c")], 2), s2)
        tree = build_thorough_tst(s2, o3i, fam)
        rep = necessity(tree, leaf_needs(s2, fam))
        assert not rep.irreducible
        assert any(not ok for ok in rep.node_necessary.values())


def test_zz_total_runtime():
    with criterion(0, "acceptance suite wall time under a minute"):
        assert time.perf_counter() - _T0 < 60
