"""Trees of tangles: optimal distinguishers and their extraction from trees.

The brute-force oracle computes, for every pair of tangles, the set of
separations they orient differently and keeps the cheapest; the extraction
reads the same set off the tangle nodes of a thoroughly ordered structure
tree, and the layered variant off the pruned tree of maximal tangles.
"""

from __future__ import annotations

from collections import namedtuple

from .core import iter_mask, mask_of
from .errors import HypothesisFailure, TheoremViolation
from .forbidden import is_rich, is_standard, order_thresholds, robustness_family
from .tst import (_tst_report, build_thorough_tst, build_tst_in_S, classify_leaves,
                  tangle_nodes, tangle_witnesses)
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
