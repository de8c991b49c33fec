"""Trees of tangles: optimal distinguishers and their extraction from trees.

The brute-force oracle computes, for every pair of tangles, the set of
separations they orient differently and keeps the cheapest; the extraction
reads the same set off the tangle nodes of a thoroughly ordered structure
tree, and the layered variant off the pruned tree of maximal tangles, which
is built here (``build_tst_in_S``), beside its one caller.
"""

from __future__ import annotations

from collections import namedtuple

from .core import iter_mask, mask_of
from .errors import HypothesisFailure, TheoremViolation
from .forbidden import avoids, is_rich, is_standard, order_thresholds, robustness_family
from .tst import (LEAF_FORBIDDEN, LEAF_TANGLE, LEAF_UNRESOLVED, _UNRESOLVED, LeafClass,
                  SeparationTree, TstReport, _least_unoriented, _tst_report,
                  build_thorough_tst, classify_leaf, classify_leaves, tangle_nodes,
                  tangle_witnesses)
from .universe import (_universe_of, is_order_threshold_restriction,
                       is_structurally_submodular, restrict_Sk)


# distinguishers: separations oriented differently by the pair; optimal: the
# minimum-order distinguishers.
PairReport = namedtuple("PairReport", "distinguishers optimal")

# pairs: (i, j) index pair -> PairReport; optimal_union: union of all optimal
# distinguishers.
DistinguisherReport = namedtuple("DistinguisherReport", "pairs optimal_union")

# distinguishers: N, a frozenset of separations; tree: the SeparationTree read;
# tangle_nodes: list; leaf_classes: leaf -> LeafClass; tangles: frozensets, the
# witnesses of the tree's tangle leaves in leaf order: the F-tangles of S, or
# the elements of the maximal tangles of the layers.
ToTResult = namedtuple("ToTResult", "distinguishers tree tangle_nodes leaf_classes tangles")


def distinguisher_report(system, order, tangles) -> DistinguisherReport:
    """Brute-force optimal distinguishers over all pairs of (partial) orientations:
    s distinguishes a pair whose masks both meet s's orientations and differ there."""
    masks = list(map(mask_of, tangles))
    sides = [(s, mask_of(system.orientations(s))) for s in system.seps()]
    pairs = {}
    union = set()
    for i, a in enumerate(masks):
        for j, b in enumerate(masks[i + 1:], i + 1):
            ds = frozenset(s for s, m in sides if a & m and b & m and (a ^ b) & m)
            least = min((order.num[s] for s in ds), default=None)
            opt = frozenset(s for s in ds if order.num[s] == least)
            union |= opt
            pairs[(i, j)] = PairReport(ds, opt)
    return DistinguisherReport(pairs=pairs, optimal_union=frozenset(union))


# -- extraction from a thoroughly ordered structure tree -----------------------------


def check_tot_hypotheses(system, order, family, layered=False):
    """Eager checks for the tree-of-tangles theorem on S = U_k; a
    HypothesisFailure names every hypothesis that fails, with its witness.

    The per-S_k theorem asks standardness and richness of S, the layered one
    (``layered``) of every layer S_j.  Standardness of S decides it for every
    layer: S is the top one, and s trivial in S_j stays trivial in each larger
    layer, which holds its witness; the layers are walked only to name the least
    failing one.  Richness, the one check that walks orientations, runs last,
    in one walk, and only once every other holds.
    """
    uni = _universe_of(system, "the tree-of-tangles theorem")
    # a layer is named by its separation count, which no other layer shares:
    # the thresholds of a refined order are fractions too long to read
    where = "the layer of {} separations" if layered else "S"
    failed = {}  # name -> witness, "" when there is none to report
    if not is_structurally_submodular(uni, order)[0]:
        failed["structurally_submodular"] = ""
    if not order.is_injective_on(uni):
        failed["injective"] = ""
    if not is_order_threshold_restriction(system, order):
        failed["threshold_form"] = ""
    members = set(family.masks)
    missing = [m for m in robustness_family(order, target=system).masks if m not in members]
    if missing:
        failed["robustness_included"] = f"missing triple {sorted(iter_mask(missing[0]))}"
    ok, singletons = is_standard(family, system)
    if not ok:
        sub = system
        if layered:  # walk up to the least failing layer; S fails, so one does
            for k in order_thresholds(system, order):
                ok, singletons = is_standard(family, sub := restrict_Sk(system, order, k))
                if not ok:
                    break
        failed["standard"] = f"{where.format(len(sub))} misses {sorted(map(sorted, singletons))}"
    if not failed:
        rich, tau = is_rich(system, family, order, layered)
        if not rich:  # tau orients each separation of its layer once
            failed["rich"] = f"{where.format(len(tau))}, counterexample {sorted(tau)}"
    if failed:
        raise HypothesisFailure(f"tree-of-tangles hypotheses failed: {list(failed)}"
                                + "".join(f"; {name}: {w}" for name, w in failed.items() if w),
                                failed=list(failed))


def _read_off(tree, leaf_classes, family) -> ToTResult:
    """The tree of tangles read off a structure tree that passes its check:
    the witnesses of its tangle leaves, and N at its tangle nodes.  A failure
    of the check, such as an unresolved leaf, raises TheoremViolation."""
    rep = _tst_report(tree, family, leaf_classes)
    if not rep.ok:
        raise TheoremViolation(f"the structure tree fails its check: {rep.failures}",
                               failures=rep.failures)
    nodes = tangle_nodes(tree, leaf_classes)
    return ToTResult(frozenset(tree.node_sep(v) for v in nodes), tree, nodes, leaf_classes,
                     tangle_witnesses(leaf_classes))


def tree_of_tangles(system, order, family) -> ToTResult:
    """The tree of tangles of S: separations at the tangle nodes of the
    thoroughly ordered tree, distinguishing every pair of F-tangles optimally.

    The hypotheses are checked first, so a family that is not rich fails as
    a HypothesisFailure, not in the builder.
    """
    check_tot_hypotheses(system, order, family)
    tree = build_thorough_tst(system, order, family)
    return _read_off(tree, classify_leaves(tree, family), family)


# -- the layered tree of tangles -------------------------------------------------------


# tree: the pruned SeparationTree; leaf_classes: leaf -> LeafClass.
TstInS = namedtuple("TstInS", "tree leaf_classes")


def _leaf_class_in_s(tree, family, order, leaf) -> LeafClass:
    """Def-6.9 leaf classification: maximal tangles in the whole system.

    A leaf keeps the class ``classify_leaf`` resolves.  Otherwise the tangle
    at an ex-non-leaf lives in S_k for k the least order not oriented by the
    path closure; maximality is certified intrinsically by both one-step
    extensions being forbidden.
    """
    sys = tree.system
    known = classify_leaf(sys, family, tree.paths[leaf])
    if known.kind != LEAF_UNRESOLVED:
        return known
    cl = sys.closure_mask(tree.paths[leaf])
    s = _least_unoriented(sys, order, cl) if sys.is_consistent_mask(cl) else None
    if s is None:
        return _UNRESOLVED
    num, k = order.num, order.num[s]
    below = mask_of(h for h in sys.elements() if num[h] < k)
    tau = cl & below
    if not sys.restrict(below).is_orientation_mask(tau) or not avoids(tau, family):
        return _UNRESOLVED
    if any(avoids(tree.paths[leaf] | 1 << h, family) for h in sys.orientations(s)):
        return _UNRESOLVED
    return LeafClass(LEAF_TANGLE, frozenset(iter_mask(tau)))


def build_tst_in_S(system, order, family) -> TstInS:
    """Layered structure tree: the full thorough tree minus forbidden leaf pairs.

    Leaves classify per the maximal-tangle notion; sibling forbidden-leaf
    pairs are deleted in a single pass, so the tree may be the root alone,
    which displays no tangle.  Standardness and richness on every layer are
    the caller's to check (``check_tot_hypotheses`` with ``layered``).
    """
    full = build_thorough_tst(system, order, family)
    classes = classify_leaves(full, family)
    drop = set()
    for v in full.nodes():
        kids = full.children[v]
        if len(kids) == 2 and all(
                full.is_leaf(w) and classes[w].kind == LEAF_FORBIDDEN for w in kids):
            drop.update(kids)
    keep = [u for u in full.nodes() if u not in drop]
    remap = {u: i for i, u in enumerate(keep)}
    pruned = SeparationTree(system, [remap.get(full.parent[u], -1) for u in keep],
                            [full.edge_label[u] for u in keep])
    leaf_classes = {l: _leaf_class_in_s(pruned, family, order, l)
                    for l in pruned.leaves()}
    return TstInS(tree=pruned, leaf_classes=leaf_classes)


def validate_tst_in_s(result: TstInS, family, order) -> TstReport:
    """Oracle-grade validation of a layered tree per the maximal-tangle notion."""
    from .forbidden import enumerate_tangles_in

    maximal = {t.elements for t in enumerate_tangles_in(result.tree.system, family, order)
               if t.maximal}
    return _tst_report(result.tree, family, result.leaf_classes, maximal)


def tree_of_tangles_in(system, order, family) -> ToTResult:
    """The layered tree of tangles: separations at tangle nodes of the pruned
    full-system tree, distinguishing every pair of maximal tangles optimally.

    The tangles are read off that tree, by the paper's statement that under
    the hypotheses ``check_tot_hypotheses(layered=True)`` checks, the layered
    structure tree displays every maximal F-tangle of the layers.
    """
    check_tot_hypotheses(system, order, family, layered=True)
    return _read_off(*build_tst_in_S(system, order, family), family)


# -- validation ---------------------------------------------------------------------


# undistinguished: (i, j) tangle-index pairs missing an optimal member;
# missing: oracle separations absent from N; extra: N separations absent from
# the oracle set.
ToTReport = namedtuple(
    "ToTReport", "ok nested crossing_pairs undistinguished missing extra")


def verify_tot(system, order, distinguishers, tangles) -> ToTReport:
    """Nestedness, pairwise optimal distinguishing, and exact oracle equality."""
    n = frozenset(distinguishers)
    crossing = system.crossing_pairs(
        [h for s in n for h in system.orientations(s)])
    rep = distinguisher_report(system, order, tangles)
    undistinguished = [
        pair for pair, pr in rep.pairs.items()
        if pr.distinguishers and not (pr.optimal & n)
    ]
    missing = sorted(rep.optimal_union - n)
    extra = sorted(n - rep.optimal_union)
    ok = not crossing and not undistinguished and not missing and not extra
    return ToTReport(ok=ok, nested=not crossing, crossing_pairs=crossing,
                     undistinguished=undistinguished, missing=missing, extra=extra)
