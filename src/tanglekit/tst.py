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
from functools import cache, reduce
from operator import and_

from .core import iter_mask, mask_of, typed
from .errors import (
    NonInjectiveOrder,
    NotStandard,
    RichnessViolation,
    SystemValidationError,
    TheoremViolation,
)
from .forbidden import avoids, enumerate_tangles_in, is_efficient, is_standard

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

    @classmethod
    def from_json(cls, system, obj) -> "SeparationTree":
        """The tree of a ``to_json`` document.  A document, ``nodes``, node
        entry, ``children`` or ``beta`` of another JSON type than written
        (``tree-document``, ``tree-nodes``, ``tree-node``, ``tree-children``,
        ``tree-beta``), a ``schema`` other than TREE_SCHEMA (``tree-schema``),
        an entry whose ``id`` is not its int index (``tree-node-id``), a child
        that is no int node or is listed twice (``tree-child``), a ``beta`` key
        that is not the decimal id of a non-root node (``tree-beta-key``), or a
        ``root`` that is not the node without a parent (``tree-root``) stops
        it; the witness is that value, None when absent.  An absent
        ``schema``, ``beta`` or ``root`` is not checked."""
        if typed(obj, dict, "tree-document").get("schema", TREE_SCHEMA) != TREE_SCHEMA:
            raise SystemValidationError("tree-schema", witness=obj["schema"])
        nodes = typed(obj.get("nodes"), list, "tree-nodes")
        n = len(nodes)
        parent, labels = [-1] * n, [-1] * n
        for v, entry in enumerate(nodes):
            i = typed(entry, dict, "tree-node").get("id")
            if type(i) is not int or i != v:  # JSON true is 1 to Python
                raise SystemValidationError("tree-node-id", witness=i)
            for c in typed(entry.get("children"), list, "tree-children"):
                if type(c) is not int or c not in range(n) or parent[c] >= 0:
                    raise SystemValidationError("tree-child", witness=c)
                parent[c] = v
        slots = {str(v): v for v in range(n) if parent[v] >= 0}
        for key, h in typed(obj.get("beta", {}), dict, "tree-beta").items():
            if key not in slots:
                raise SystemValidationError("tree-beta-key", witness=key)
            labels[slots[key]] = h
        tree = cls(system, parent, labels)
        root = obj.get("root", tree.root)
        if type(root) is not int or root != tree.root:
            raise SystemValidationError("tree-root", witness=root)
        return tree

    def __repr__(self):
        return f"<SeparationTree {len(self)} nodes, {len(self.leaves())} leaves>"


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


# -- necessity and reduction --------------------------------------------------------


def leaf_needs(system, family):
    """A cached function from a leaf's root-path mask beta to the labels the
    leaf needs: for a forbidden leaf, those every member inside beta holds;
    for a tangle leaf, those of beta that no label of beta lies below; else none."""

    @cache
    def needs(beta):
        kind = classify_leaf(system, family, beta).kind
        if kind == LEAF_FORBIDDEN:
            return reduce(and_, (m for m in family.masks if not m & ~beta))
        if kind == LEAF_TANGLE:
            return mask_of(x for x in iter_mask(beta) if not system._below(beta, x))
        return 0

    return needs


# edge_necessary_for: child node -> list of leaves the edge is necessary for;
# node_necessary: non-leaf node -> bool; irreducible: bool.
NecessityReport = namedtuple("NecessityReport", "edge_necessary_for node_necessary irreducible")


def necessity(tree, needs) -> NecessityReport:
    """Per-edge and per-node necessity flags (edges are keyed by child node);
    ``needs`` gives a leaf's needed labels from its path mask (``leaf_needs``)."""
    edge_necessary_for = {v: [] for v in tree.nodes() if tree.parent[v] >= 0}
    for leaf in tree.leaves():
        need, w = needs(tree.paths[leaf]), leaf
        while tree.parent[w] >= 0:
            if need >> tree.edge_label[w] & 1:
                edge_necessary_for[w].append(leaf)
            w = tree.parent[w]
    node_necessary = {v: all(edge_necessary_for[w] for w in tree.children[v])
                      for v in tree.nodes() if not tree.is_leaf(v)}
    return NecessityReport(edge_necessary_for, node_necessary, all(node_necessary.values()))


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


def _contract_move(tree, v, keep_child) -> SeparationTree:
    """Contract the edge v--keep_child and drop the sibling subtrees of v.

    One walk from the root renumbers the result in DFS order, children in
    label order: at v it takes keep_child's children, elsewhere the node's own.
    """
    label = tree.edge_label
    parent, labels = [], []
    stack = [(tree.root, -1)]
    while stack:
        old, par = stack.pop()
        new = len(parent)
        parent.append(par)
        labels.append(label[old])
        kids = tree.children[keep_child if old == v else old]
        stack.extend((w, new) for w in sorted(kids, key=label.__getitem__, reverse=True))
    return SeparationTree(tree.system, parent, labels)


def reduce_irreducible(tree, family, order) -> SeparationTree:
    """Irreducible reduction by edge contractions, one per round.

    A round contracts the edge vw from the least unnecessary node v to its
    first child w that no leaf needs (one exists, as v is unnecessary) and
    drops the siblings of w.  An irreducible input is returned as it is.  The
    gates ``validate_tst``, ``is_ordered``, ``is_efficient_tree`` and "displays
    the input's tangles" are the checked postcondition, not a cited theorem:
    they run once on the result, in that order, and the first that fails
    raises TheoremViolation naming it.  The rounds share one ``leaf_needs``
    table; the gates classify the result afresh and read none of it.
    """
    needs = leaf_needs(tree.system, family)
    current, rep = tree, necessity(tree, needs)
    while not rep.irreducible:
        v = min(v for v, needed in rep.node_necessary.items() if not needed)
        w = next(w for w in current.children[v] if not rep.edge_necessary_for[w])
        current = _contract_move(current, v, w)
        rep = necessity(current, needs)
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
    pruned = SeparationTree(system, [remap.get(full.parent[u], -1) for u in keep],
                            [full.edge_label[u] for u in keep])
    leaf_classes = {l: _leaf_class_in_s(pruned, family, order, l)
                    for l in pruned.leaves()}
    return TstInS(tree=pruned, leaf_classes=leaf_classes)


def validate_tst_in_s(result: TstInS, family, order) -> TstReport:
    """Oracle-grade validation of a layered tree per the maximal-tangle notion."""
    maximal = {t.elements for t in enumerate_tangles_in(result.tree.system, family, order)
               if t.maximal}
    return _tst_report(result.tree, family, result.leaf_classes, maximal)
