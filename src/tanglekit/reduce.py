"""Necessity and the reduction of a structure tree to an irreducible one.

A leaf needs the labels that keep it what it is; an edge is necessary for
the leaves below it that need its label, and a node for which every child
edge is necessary for some leaf is necessary.  ``reduce_irreducible``
contracts one unnecessary edge per round until every node is necessary, then
checks the result once against four gates.  Only ``reduce`` and the S-tree
branch of ``duality`` run this, so only they load it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, reduce
from operator import and_

from .core import iter_mask, mask_of
from .errors import TheoremViolation
from .tst import (
    LEAF_FORBIDDEN,
    LEAF_TANGLE,
    SeparationTree,
    classify_leaf,
    displayed_tangles,
    is_efficient_tree,
    is_ordered,
    validate_tst,
)


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
