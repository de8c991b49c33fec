"""Trees of tangles: optimal distinguishers and their extraction from trees.

The brute-force oracle computes, for every pair of tangles, the set of
separations they orient differently and keeps the cheapest; the extraction
reads the same set off the tangle nodes of a thoroughly ordered structure
tree, and the layered variant off the pruned tree of maximal tangles.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import HypothesisFailure
from .forbidden import (
    enumerate_tangles,
    is_rich,
    is_standard,
    maximal_tangles_in,
    order_thresholds,
    robustness_family,
)
from .tst import (
    _path_closure,
    build_thorough_tst,
    build_tst_in_S,
    classify_leaves,
    tangle_nodes,
)
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
# F-tangles of S or the elements of the maximal tangles of the layers.
ToTResult = namedtuple("ToTResult", "distinguishers tree tangle_nodes leaf_classes tangles")


def distinguisher_report(system, order, tangles) -> DistinguisherReport:
    """Brute-force optimal distinguishers over all pairs of (partial) orientations."""
    tangles = [frozenset(t) for t in tangles]
    pairs = {}
    union = set()
    for i in range(len(tangles)):
        for j in range(i + 1, len(tangles)):
            ds = frozenset(
                s for s in system.seps()
                if system.distinguishes(s, tangles[i], tangles[j]))
            m = min((order.num[s] for s in ds), default=None)
            opt = frozenset(s for s in ds if order.num[s] == m)
            union |= opt
            pairs[(i, j)] = PairReport(ds, opt)
    return DistinguisherReport(pairs=pairs, optimal_union=frozenset(union))


# -- extraction from a thoroughly ordered structure tree -----------------------------


def check_tot_hypotheses(system, order, family, layered=False):
    """Eager checks for the tree-of-tangles theorem on S = U_k; a
    HypothesisFailure names every hypothesis that fails, with its witness.

    The per-S_k theorem asks standardness and richness of S, the layered one
    (``layered``) of every layer S_j.  Richness, the one check that walks
    orientations, runs last, in one walk, and only once every other holds.
    """
    uni = _universe_of(system, "the tree-of-tangles theorem")
    # a layer is named by its separation count, which no other layer shares:
    # the thresholds of a refined order are fractions too long to read
    layers = ([(f"the layer of {len(sub.seps())} separations", sub)
               for sub in (restrict_Sk(system, order, k)
                           for k in order_thresholds(system, order))]
              if layered else [("S", system)])
    failed = {}  # name -> witness, "" when there is none to report
    if not is_structurally_submodular(uni, order)[0]:
        failed["structurally_submodular"] = ""
    if not order.is_injective_on(uni):
        failed["injective"] = ""
    if not is_order_threshold_restriction(system, order):
        failed["threshold_form"] = ""
    missing = [t for t in robustness_family(uni, order, target=system) if t not in family.sets]
    if missing:
        failed["robustness_included"] = f"missing triple {sorted(missing[0])}"
    for name, sub in layers:
        ok, singletons = is_standard(family, sub)
        if not ok:
            failed["standard"] = f"{name} misses {sorted(map(sorted, singletons))}"
            break
    if not failed:
        rich, tau = is_rich(system, family, order, layered)
        if not rich:  # tau orients the one layer of len(tau) separations
            name = next(name for name, sub in layers if len(sub) == len(tau))
            failed["rich"] = f"{name}, counterexample {sorted(tau)}"
    if failed:
        raise HypothesisFailure(f"tree-of-tangles hypotheses failed: {list(failed)}"
                                + "".join(f"; {name}: {w}" for name, w in failed.items() if w),
                                failed=list(failed))


def tree_of_tangles(system, order, family) -> ToTResult:
    """The tree of tangles of S: separations at the tangle nodes of the
    thoroughly ordered tree, distinguishing every pair of F-tangles optimally.

    The hypotheses are checked first, so a family that is not rich fails as
    a HypothesisFailure, not in the builder.
    """
    check_tot_hypotheses(system, order, family)
    tree = build_thorough_tst(system, order, family)
    classes = classify_leaves(tree, family)
    nodes = tangle_nodes(tree, family, classes)
    return ToTResult(frozenset(tree.node_sep(v) for v in nodes), tree, nodes, classes,
                     enumerate_tangles(system, family))


def is_critical(tree, v, order) -> bool:
    """A node is critical if an orientation of its separation is co-trivial or
    completes a robustness triple over the path closure."""
    sys = tree.system
    if tree.is_leaf(v):
        return False
    uni = sys.ground
    robust = robustness_family(uni, order, target=sys)
    cl = _path_closure(tree, v)
    for x in sys.orientations(tree.node_sep(v)):
        if sys.is_cotrivial(x):
            return True
        probe = cl | {x}
        if any(t <= probe for t in robust.sets):
            return True
    return False


# -- the layered tree of tangles -------------------------------------------------------


def tree_of_tangles_in(system, order, family) -> ToTResult:
    """The layered tree of tangles: separations at tangle nodes of the pruned
    full-system tree, distinguishing every pair of maximal tangles optimally."""
    check_tot_hypotheses(system, order, family, layered=True)
    result = build_tst_in_S(system, order, family)
    tree = result.tree
    nodes = tangle_nodes(tree, family, result.leaf_classes)
    return ToTResult(frozenset(tree.node_sep(v) for v in nodes), tree, nodes,
                     result.leaf_classes,
                     [t.elements for t in maximal_tangles_in(system, family, order)])


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
