"""Separation trees and tangle structure trees.

A separation tree is rooted; every non-leaf's child edges carry the one or
two orientations of a single separation (one only when it is degenerate),
no separation repeats along a root path, and every path label set is
consistent.  A tangle structure tree additionally classifies every leaf as a
tangle leaf or a forbidden leaf and keeps forbidden subsets off non-leaf
paths.

The thorough builder expands nodes with the minimum-order separation not yet
oriented by the path closure, which makes the tree the unique thoroughly
ordered structure tree when the order function is injective.  Reduction to
an irreducible tree is in ``reduce``, the layered tree in ``tot``, and the
reader of a tree document in ``ingest``: only the runs that use them load them.
"""

from __future__ import annotations

from collections import namedtuple

from .core import iter_mask, mask_of
from .errors import (
    NonInjectiveOrder,
    NotStandard,
    RichnessViolation,
    SystemValidationError,
    TheoremViolation,
)
from .forbidden import avoids, is_efficient, is_standard

TREE_SCHEMA = "tanglekit/tree-v1"

LEAF_TANGLE = "tangle"
LEAF_FORBIDDEN = "forbidden"
LEAF_UNRESOLVED = "unresolved"


# kind: LEAF_TANGLE, LEAF_FORBIDDEN or LEAF_UNRESOLVED; witness: the tangle
# closure, or the forbidden subset (a frozenset).
LeafClass = namedtuple("LeafClass", "kind witness")
_UNRESOLVED = LeafClass(LEAF_UNRESOLVED, frozenset())


class SeparationTree:
    """Rooted tree with oriented-separation edge labels; immutable after build.

    Its shape is ``parent`` (-1 at the root) and ``edge_label`` (the label of
    the edge into a node).  One walk from the root derives ``children``, in
    ascending id, and ``paths[v]``, the mask of the labels on v's root path.
    The least node the root does not reach, or whose label is no int handle
    of the ground system, stops it: ``tree-connected`` or ``tree-edge-label``.
    """

    def __init__(self, system, parent, edge_label):
        self.system = system
        self.parent = tuple(parent)
        self.edge_label = tuple(edge_label)
        roots = [v for v, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            raise SystemValidationError("tree-single-root", witness=roots)
        self.root = roots[0]
        children = [[] for _ in self.parent]
        for v, p in enumerate(self.parent):
            if 0 <= p < len(children):
                children[p].append(v)
        self.children = tuple(map(tuple, children))
        walk = self.descendants(self.root)  # each parent before its children
        stray = set(self.nodes()).difference(walk)
        if stray:
            raise SystemValidationError("tree-connected", witness=min(stray))
        bad = [v for v in walk[1:] if type(h := self.edge_label[v]) is not int
               or h not in range(system.n_ground)]
        if bad:
            raise SystemValidationError("tree-edge-label", witness=min(bad))
        paths = [0] * len(walk)
        for w in walk[1:]:
            paths[w] = paths[self.parent[w]] | 1 << self.edge_label[w]
        self.paths = tuple(paths)

    def nodes(self):
        return range(len(self.parent))

    def is_leaf(self, v) -> bool:
        return not self.children[v]

    def leaves(self):
        return [v for v in self.nodes() if self.is_leaf(v)]

    def node_sep(self, v):
        """Canonical handle of the separation a non-leaf orients; None at leaves."""
        if self.is_leaf(v):
            return None
        return self.system.sep(self.edge_label[self.children[v][0]])

    def descendants(self, v):
        out, stack = [], [v]
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self.children[w])
        return out

    def to_json(self, leaf_classes=None) -> dict:
        obj = {
            "schema": TREE_SCHEMA,
            "root": self.root,
            "nodes": [{"id": v, "children": list(self.children[v])}
                      for v in self.nodes()],
            "beta": {str(v): self.edge_label[v]
                     for v in self.nodes() if self.parent[v] >= 0},
        }
        if leaf_classes is not None:
            obj["leafClass"] = {
                str(v): {"kind": c.kind, "witness": sorted(c.witness)}
                for v, c in sorted(leaf_classes.items())
            }
        return obj


# -- validation ----------------------------------------------------------------


# failures: (node, reason) pairs; leaf_classes: leaf -> LeafClass.
TstReport = namedtuple("TstReport", "ok failures leaf_classes")


def _least_unoriented(system, order, closure):
    """The separation of least order, then least handle, among those the mask
    ``closure`` leaves unoriented; None when it orients them all."""
    oriented = {system.sep(h) for h in iter_mask(closure)}
    return min((s for s in system.seps() if s not in oriented),
               key=lambda t: (order.num[t], t), default=None)


def classify_leaf(system, family, beta) -> LeafClass:
    """The class of a leaf whose root path has the label mask ``beta``: a
    tangle leaf when the path closure is an F-tangle, else a forbidden leaf
    witnessed by the first member inside the path, else unresolved."""
    cl = system.closure_mask(beta)
    if avoids(cl, family) and system.is_orientation_mask(cl) and system.is_consistent_mask(cl):
        return LeafClass(LEAF_TANGLE, frozenset(iter_mask(cl)))
    hit = family.first_inside(beta)
    return _UNRESOLVED if hit is None else LeafClass(LEAF_FORBIDDEN, frozenset(iter_mask(hit)))


def classify_leaves(tree, family) -> dict:
    """leaf -> LeafClass for every leaf of the tree, in leaf order."""
    return {leaf: classify_leaf(tree.system, family, tree.paths[leaf])
            for leaf in tree.leaves()}


def validate_separation_tree(tree) -> list:
    """Structural failures: edge bijections, repeats on root paths, consistency."""
    sys = tree.system
    failures = []
    for v in tree.nodes():
        if not tree.is_leaf(v):
            labels = [tree.edge_label[c] for c in tree.children[v]]
            if any(not sys.contains(h) for h in labels):
                failures.append((v, "label-not-a-member"))
                continue
            seps = {sys.sep(h) for h in labels}
            if len(seps) != 1:
                failures.append((v, "children-orient-different-separations"))
                continue
            if sorted(labels) != list(sys.orientations(seps.pop())):
                failures.append((v, "edge-labels-not-a-bijection"))
        if not sys.is_consistent_mask(tree.paths[v]):
            failures.append((v, "path-labels-inconsistent"))
    for leaf in tree.leaves():
        seen = set()
        w = leaf
        while w >= 0:
            s = tree.node_sep(w)
            if s is not None:
                if s in seen and (w, "separation-repeats-on-path") not in failures:
                    failures.append((w, "separation-repeats-on-path"))
                seen.add(s)
            w = tree.parent[w]
    return failures


def _tst_report(tree, family, classes, maximal=None) -> TstReport:
    """The structure check; per leaf, an unresolved class or, with ``maximal``
    given, a tangle leaf outside it; then a forbidden subset at a non-leaf."""
    failures = list(validate_separation_tree(tree))
    for leaf, c in classes.items():
        if c.kind == LEAF_UNRESOLVED:
            failures.append((leaf, "leaf-neither-tangle-nor-forbidden"))
        elif c.kind == LEAF_TANGLE and maximal is not None and c.witness not in maximal:
            failures.append((leaf, "tangle-leaf-not-a-maximal-tangle"))
    failures += [(v, "forbidden-subset-at-non-leaf") for v in tree.nodes()
                 if not tree.is_leaf(v) and not avoids(tree.paths[v], family)]
    return TstReport(ok=not failures, failures=failures, leaf_classes=classes)


def validate_tst(tree, family) -> TstReport:
    """Full tangle-structure-tree check with per-node witnesses."""
    return _tst_report(tree, family, classify_leaves(tree, family))


def is_ordered(tree, order) -> bool:
    """No non-leaf orients a separation of lower order than its parent does;
    by transitivity, than any ancestor does."""
    num = order.num
    return all(num[tree.node_sep(tree.parent[v])] <= num[tree.node_sep(v)]
               for v in tree.nodes() if tree.parent[v] >= 0 and not tree.is_leaf(v))


def is_thoroughly_ordered(tree, order) -> bool:
    """Each non-leaf orients a separation its path closure leaves unoriented,
    of least order among those (on a tie, any of least order qualifies)."""
    sys, num = tree.system, order.num
    for v in tree.nodes():
        sv = tree.node_sep(v)
        if sv is None:
            continue
        cl = sys.closure_mask(tree.paths[v])
        if mask_of(sys.orientations(sv)) & cl or num[sv] != num[_least_unoriented(sys, order, cl)]:
            return False
    return True


# -- the thorough builder ---------------------------------------------------------


def _check_thorough_preconditions(system, order, family):
    """The thorough tree's preconditions: an injective order and a standard family."""
    if not order.is_injective_on(system):
        raise NonInjectiveOrder("order function not injective on the system")
    ok, missing = is_standard(family, system)
    if not ok:
        raise NotStandard(f"missing co-trivial singletons {sorted(map(sorted, missing))}")


def build_thorough_tst(system, order, family) -> SeparationTree:
    """The thoroughly ordered tangle structure tree of the member separations.

    Node rule: a forbidden subset inside the path closes a forbidden leaf;
    otherwise the path closure either orients everything (tangle leaf, or a
    RichnessViolation diagnostic when it fails to avoid the family) or the
    minimum-order unoriented separation is attached as child edges.
    Deterministic: children in oriented-handle order, ids in stack order.
    """
    _check_thorough_preconditions(system, order, family)

    parent, edge_label = [-1], [-1]
    stack = [(0, 0)]  # (node, beta mask)
    while stack:
        v, beta = stack.pop()
        if not avoids(beta, family):
            continue  # forbidden leaf
        cl = system.closure_mask(beta)
        if not system.is_consistent_mask(cl):
            pair = system.consistency_witness(cl)
            raise TheoremViolation(f"closure of the path {sorted(iter_mask(beta))} "
                                   f"is inconsistent: pair {pair}")
        s = _least_unoriented(system, order, cl)
        if s is None:
            if avoids(cl, family):
                continue  # tangle leaf
            raise RichnessViolation(frozenset(iter_mask(cl)),
                                    frozenset(iter_mask(family.first_inside(cl))))
        first = len(parent)
        for h in system.orientations(s):
            parent.append(v)
            edge_label.append(h)
            if not system.is_consistent_mask(beta | (1 << h)):
                raise TheoremViolation(f"path {sorted(iter_mask(beta))} plus {h} "
                                       "is inconsistent")
        stack.extend((w, beta | (1 << edge_label[w]))
                     for w in reversed(range(first, len(parent))))
    return SeparationTree(system, parent, edge_label)


def display(tree, tau):
    """The unique leaf whose path labels sit inside the orientation ``tau``."""
    sys = tree.system
    tau = frozenset(tau)
    if not sys.is_orientation_mask(mask_of(tau)):
        raise SystemValidationError("not-an-orientation", witness=sorted(tau))
    v = tree.root
    while not tree.is_leaf(v):
        nxt = [w for w in tree.children[v] if tree.edge_label[w] in tau]
        if len(nxt) != 1:
            raise TheoremViolation(f"orientation {sorted(tau)} picks children {nxt} "
                                   f"at node {v}, not exactly one")
        v = nxt[0]
    return v


def is_efficient_tree(tree, order) -> bool:
    """Every leaf's path set is efficient in its own closure."""
    sys, paths = tree.system, tree.paths
    return all(is_efficient(sys, order, paths[leaf], sys.closure_mask(paths[leaf]))
               for leaf in tree.leaves())


# -- tangle leaves and tangle nodes ----------------------------------------------------


def tangle_witnesses(leaf_classes) -> list:
    """The witnesses of the tangle leaves of ``leaf_classes``, in leaf order."""
    return [c.witness for c in leaf_classes.values() if c.kind == LEAF_TANGLE]


def displayed_tangles(tree, family) -> frozenset:
    """The set of tangles displayed at the tree's tangle leaves."""
    return frozenset(tangle_witnesses(classify_leaves(tree, family)))


def tangle_nodes(tree, leaf_classes) -> list:
    """Nodes with two children, each of whose subtrees contains a tangle leaf
    of ``leaf_classes``.  A degenerate node has one child and distinguishes
    nothing.  The nodes with a tangle leaf below them are marked by walking
    up from each tangle leaf, stopping at the first node already marked.
    """
    marked = set()
    for v in (leaf for leaf, c in leaf_classes.items() if c.kind == LEAF_TANGLE):
        while v >= 0 and v not in marked:
            marked.add(v)
            v = tree.parent[v]
    return [v for v in tree.nodes() if len(tree.children[v]) == 2
            and all(w in marked for w in tree.children[v])]
