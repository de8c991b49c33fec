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
an irreducible tree contracts one unnecessary edge per round and checks the
result once against four gates; see reduce_irreducible.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from operator import and_

from .core import iter_mask, mask_of
from .errors import (
    NonInjectiveOrder,
    NotStandard,
    RichnessViolation,
    SystemValidationError,
    TheoremViolation,
)
from .forbidden import avoids, is_efficient, is_standard, maximal_tangles_in

TREE_SCHEMA = "tanglekit/tree-v1"

LEAF_TANGLE = "tangle"
LEAF_FORBIDDEN = "forbidden"
LEAF_UNRESOLVED = "unresolved"


# kind: LEAF_TANGLE, LEAF_FORBIDDEN or LEAF_UNRESOLVED; witness: the tangle
# closure, or the forbidden subset (a frozenset).
LeafClass = namedtuple("LeafClass", "kind witness")
_UNRESOLVED = LeafClass(LEAF_UNRESOLVED, frozenset())


class SeparationTree:
    """Rooted tree with oriented-separation edge labels; immutable after build."""

    def __init__(self, system, parent, children, edge_label):
        self.system = system
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        self.edge_label = tuple(edge_label)
        roots = [v for v, p in enumerate(self.parent) if p < 0]
        if len(roots) != 1:
            raise SystemValidationError("tree-single-root", witness=roots)
        self.root = roots[0]
        self._beta = {}
        self._classes = {}  # family -> {leaf: LeafClass}, filled by classify_leaf
        self._closure = {}  # node -> closure of beta_v, filled by _path_closure

    def __len__(self):
        return len(self.parent)

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

    def beta(self, v) -> frozenset:
        """Edge labels on the root path to v (the set beta_v)."""
        if v not in self._beta:
            out, w = [], v
            while self.parent[w] >= 0:
                out.append(self.edge_label[w])
                w = self.parent[w]
            self._beta[v] = frozenset(out)
        return self._beta[v]

    def beta_mask(self, v) -> int:
        return mask_of(self.beta(v))

    def descendants(self, v):
        out, stack = [], [v]
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self.children[w])
        return out

    def tree_infimum(self, a, b):
        """The deepest common ancestor of two nodes."""
        anc = set()
        w = a
        while w >= 0:
            anc.add(w)
            w = self.parent[w]
        w = b
        while w not in anc:
            w = self.parent[w]
        return w

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

    @classmethod
    def from_json(cls, system, obj) -> "SeparationTree":
        n = len(obj["nodes"])
        parent = [-1] * n
        children = [[] for _ in range(n)]
        for entry in obj["nodes"]:
            children[entry["id"]] = list(entry["children"])
            for c in entry["children"]:
                parent[c] = entry["id"]
        labels = [-1] * n
        for v, h in obj.get("beta", {}).items():
            labels[int(v)] = h
        return cls(system, parent, children, labels)

    def __repr__(self):
        return f"<SeparationTree {len(self)} nodes, {len(self.leaves())} leaves>"


# -- validation ----------------------------------------------------------------


# failures: (node, reason) pairs; leaf_classes: leaf -> LeafClass.
TstReport = namedtuple("TstReport", "ok failures leaf_classes")


def _path_closure(tree, v) -> frozenset:
    """The closure of the path labels beta_v, memoized on the tree."""
    if v not in tree._closure:
        tree._closure[v] = frozenset(iter_mask(tree.system.closure_mask(tree.beta_mask(v))))
    return tree._closure[v]


def _least_unoriented(system, order, closure):
    """The separation of least order, then least handle, among those ``closure``
    leaves unoriented; None when it orients them all."""
    oriented = {system.sep(h) for h in closure}
    return min((s for s in system.seps() if s not in oriented),
               key=lambda t: (order.num[t], t), default=None)


def classify_leaf(tree, family, leaf) -> LeafClass:
    """A tangle leaf when the path closure is an F-tangle, else a forbidden leaf
    witnessed by the first member inside the path, else unresolved.

    Memoized on the tree per family.  Nothing else fills the memo, so a
    validator that reads it judges a built tree independently of its builder.
    """
    memo = tree._classes.setdefault(family, {})
    if leaf not in memo:
        sys = tree.system
        cl = _path_closure(tree, leaf)
        if sys.is_consistent(cl) and sys.is_orientation(cl) and avoids(cl, family):
            memo[leaf] = LeafClass(LEAF_TANGLE, cl)
        else:
            hit = family.first_inside(tree.beta(leaf))
            memo[leaf] = _UNRESOLVED if hit is None else LeafClass(LEAF_FORBIDDEN, hit)
    return memo[leaf]


def classify_leaves(tree, family) -> dict:
    """leaf -> LeafClass for every leaf of the tree, in leaf order."""
    return {leaf: classify_leaf(tree, family, leaf) for leaf in tree.leaves()}


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
            want = set(sys.orientations(next(iter(seps))))
            if sorted(labels) != sorted(want) or len(labels) != len(want):
                failures.append((v, "edge-labels-not-a-bijection"))
        if not sys.is_consistent(tree.beta(v)):
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
                 if not tree.is_leaf(v) and family.first_inside(tree.beta(v)) is not None]
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
        cl = _path_closure(tree, v)
        if sv in {sys.sep(h) for h in cl} or num[sv] != num[_least_unoriented(sys, order, cl)]:
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

    parent, children, edge_label = [-1], [[]], [-1]
    stack = [(0, 0)]  # (node, beta mask)
    while stack:
        v, beta = stack.pop()
        if family.first_inside(frozenset(iter_mask(beta))) is not None:
            continue  # forbidden leaf
        cl = frozenset(iter_mask(system.closure_mask(beta)))
        pair = system.consistency_witness(cl)
        if pair is not None:
            raise TheoremViolation(f"closure of the path {sorted(iter_mask(beta))} "
                                   f"is inconsistent: pair {pair}")
        s = _least_unoriented(system, order, cl)
        if s is None:
            if avoids(cl, family):
                continue  # tangle leaf
            raise RichnessViolation(cl, family.first_inside(cl))
        kids = []
        for h in system.orientations(s):
            w = len(parent)
            parent.append(v)
            children.append([])
            edge_label.append(h)
            kids.append(w)
            if not system.is_consistent(iter_mask(beta | (1 << h))):
                raise TheoremViolation(f"path {sorted(iter_mask(beta))} plus {h} "
                                       "is inconsistent")
        children[v] = kids
        for w in reversed(kids):
            stack.append((w, beta | (1 << edge_label[w])))
    return SeparationTree(system, parent, children, edge_label)


def display(tree, tau):
    """The unique leaf whose path labels sit inside the orientation ``tau``."""
    sys = tree.system
    tau = frozenset(tau)
    if not sys.is_orientation(tau):
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
    return all(is_efficient(tree.system, order, tree.beta(leaf), _path_closure(tree, leaf))
               for leaf in tree.leaves())


# -- necessity and reduction --------------------------------------------------------


# edge_necessary_for: child node -> list of leaves the edge is necessary for;
# node_necessary: non-leaf node -> bool; irreducible: bool; leaf_classes:
# leaf -> LeafClass.
NecessityReport = namedtuple(
    "NecessityReport", "edge_necessary_for node_necessary irreducible leaf_classes")


def necessity(tree, family) -> NecessityReport:
    """Per-edge and per-node necessity flags (edges are keyed by child node)."""
    sys = tree.system
    classes = classify_leaves(tree, family)
    masks = [mask_of(s) for s in family.sets]
    edge_necessary_for = {v: [] for v in tree.nodes() if tree.parent[v] >= 0}
    for leaf, c in classes.items():
        beta = tree.beta_mask(leaf)
        if c.kind == LEAF_FORBIDDEN:
            # the labels that every member inside beta holds
            needs = reduce(and_, (m for m in masks if not m & ~beta), -1)
        elif c.kind == LEAF_TANGLE:
            # the labels that no label of beta lies below
            needs = mask_of(x for x in iter_mask(beta) if not sys._below(beta, x))
        else:
            continue  # an unresolved leaf needs no edge
        w = leaf
        while tree.parent[w] >= 0:
            if needs >> tree.edge_label[w] & 1:
                edge_necessary_for[w].append(leaf)
            w = tree.parent[w]
    node_necessary = {}
    for v in tree.nodes():
        if tree.is_leaf(v):
            continue
        node_necessary[v] = all(edge_necessary_for[w] for w in tree.children[v])
    return NecessityReport(
        edge_necessary_for=edge_necessary_for,
        node_necessary=node_necessary,
        irreducible=all(node_necessary.values()),
        leaf_classes=classes,
    )


def displayed_tangles(tree, family) -> frozenset:
    """The set of tangles displayed at the tree's tangle leaves."""
    return frozenset(c.witness for c in classify_leaves(tree, family).values()
                     if c.kind == LEAF_TANGLE)


def tangle_nodes(tree, family, leaf_classes=None) -> list:
    """Nodes with two children, each of whose subtrees contains a tangle leaf.
    A degenerate node has one child and distinguishes nothing.

    Leaves are read with ``classify_leaves`` unless ``leaf_classes`` is given.
    The nodes with a tangle leaf below them are marked by walking up from
    each tangle leaf, stopping at the first node already marked.
    """
    if leaf_classes is None:
        leaf_classes = classify_leaves(tree, family)
    marked = set()
    for v in (leaf for leaf, c in leaf_classes.items() if c.kind == LEAF_TANGLE):
        while v >= 0 and v not in marked:
            marked.add(v)
            v = tree.parent[v]
    return [v for v in tree.nodes() if len(tree.children[v]) == 2
            and all(w in marked for w in tree.children[v])]


def _contract_move(tree, v, keep_child) -> SeparationTree:
    """Contract the edge v--keep_child and drop the sibling subtrees of v.

    One walk from the root renumbers the result in DFS order, children in
    label order: at v it takes keep_child's children, elsewhere the node's own.
    """
    label = tree.edge_label
    parent, children, labels = [], [], []
    stack = [(tree.root, -1, -1)]
    while stack:
        old, par, lab = stack.pop()
        new = len(parent)
        parent.append(par)
        labels.append(lab)
        children.append([])
        if par >= 0:
            children[par].append(new)
        kids = tree.children[keep_child if old == v else old]
        stack.extend((w, new, label[w])
                     for w in sorted(kids, key=label.__getitem__, reverse=True))
    return SeparationTree(tree.system, parent, children, labels)


def reduce_irreducible(tree, family, order) -> SeparationTree:
    """Irreducible reduction by edge contractions, one per round.

    A round contracts the edge vw from the least unnecessary node v to its
    first child w that no leaf needs (one exists, as v is unnecessary) and
    drops the siblings of w.  An irreducible input is returned as it is.  The
    gates ``validate_tst``, ``is_ordered``, ``is_efficient_tree`` and "displays
    the input's tangles" are the checked postcondition, not a cited theorem:
    they run once on the result, in that order, and the first that fails
    raises TheoremViolation naming it.
    """
    current, rep = tree, necessity(tree, family)
    while not rep.irreducible:
        v = min(v for v, needed in rep.node_necessary.items() if not needed)
        w = next(w for w in current.children[v] if not rep.edge_necessary_for[w])
        current = _contract_move(current, v, w)
        rep = necessity(current, family)
    if current is tree:
        return tree
    gates = (("validate_tst", lambda: validate_tst(current, family).ok),
             ("is_ordered", lambda: is_ordered(current, order)),
             ("is_efficient_tree", lambda: is_efficient_tree(current, order)),
             ("displayed_tangles", lambda: displayed_tangles(current, family)
              == displayed_tangles(tree, family)))
    for name, passes in gates:
        if not passes():
            raise TheoremViolation(f"reduced tree fails its {name} gate", gate=name)
    return current


# -- layered trees (structure trees in S->) --------------------------------------


# tree: the pruned SeparationTree; leaf_classes: leaf -> LeafClass.
TstInS = namedtuple("TstInS", "tree leaf_classes")


def _leaf_class_in_s(tree, family, order, leaf) -> LeafClass:
    """Def-6.9 leaf classification: maximal tangles in the whole system.

    A leaf keeps the class ``classify_leaf`` resolves.  Otherwise the tangle
    at an ex-non-leaf lives in S_k for k the least order not oriented by the
    path closure; maximality is certified intrinsically by both one-step
    extensions being forbidden.
    """
    known = classify_leaf(tree, family, leaf)
    if known.kind != LEAF_UNRESOLVED:
        return known
    sys = tree.system
    cl = _path_closure(tree, leaf)
    s = _least_unoriented(sys, order, cl) if sys.is_consistent(cl) else None
    if s is None:
        return _UNRESOLVED
    num, k = order.num, order.num[s]
    tau = frozenset(h for h in cl if num[h] < k)
    sub = sys.restrict(h for h in sys.elements() if num[h] < k)
    if not sub.is_orientation(tau) or not avoids(tau, family):
        return _UNRESOLVED
    if any(family.first_inside(tree.beta(leaf) | {h}) is None for h in sys.orientations(s)):
        return _UNRESOLVED
    return LeafClass(LEAF_TANGLE, tau)


def build_tst_in_S(system, order, family) -> TstInS:
    """Layered structure tree: the full thorough tree minus forbidden leaf pairs.

    Leaves classify per the maximal-tangle notion; sibling forbidden-leaf
    pairs are deleted in a single pass, so the tree may be the root alone,
    which displays no tangle.  Standardness and richness on every layer are
    the caller's to check (``tot.check_tot_hypotheses`` with ``layered``).
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
    parent = [remap.get(full.parent[u], -1) if full.parent[u] >= 0 else -1 for u in keep]
    children = [[remap[w] for w in full.children[u] if w not in drop] for u in keep]
    labels = [full.edge_label[u] for u in keep]
    pruned = SeparationTree(system, parent, children, labels)
    leaf_classes = {l: _leaf_class_in_s(pruned, family, order, l)
                    for l in pruned.leaves()}
    return TstInS(tree=pruned, leaf_classes=leaf_classes)


def validate_tst_in_s(result: TstInS, family, order) -> TstReport:
    """Oracle-grade validation of a layered tree per the maximal-tangle notion."""
    maximal = {t.elements for t in maximal_tangles_in(result.tree.system, family, order)}
    return _tst_report(result.tree, family, result.leaf_classes, maximal)
