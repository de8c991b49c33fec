"""S-trees over star families, and the conversion that certifies duality.

An S-tree is an unrooted tree whose oriented edges carry oriented separations
compatibly with the involution; it is *over* a family when every node's
incoming star maps into the family.  The conversion construction turns an
irreducible tree all of whose leaves are forbidden into such an S-tree: the
certificate of the S-tree branch of ``duality.dichotomy``, the only command
path that loads this module.  The reader of an S-tree document is
``ingest.stree_from_json``.
"""

from __future__ import annotations

from collections import namedtuple

from .core import mask_of
from .duality import _check_star_family
from .errors import (
    NonStarFamily,
    NotIrreducible,
    PreconditionError,
    SystemValidationError,
    TheoremViolation,
    TrivialElementsPresent,
)
from .forbidden import ForbiddenFamily, is_efficient
from .reduce import leaf_needs, necessity
from .tst import displayed_tangles, validate_tst

STREE_SCHEMA = "tanglekit/stree-v1"


class STree:
    """Unrooted tree with an involution-respecting oriented-edge labelling."""

    def __init__(self, system, n_nodes, alpha):
        self.system = system
        self.n_nodes = n_nodes
        self.alpha = dict(alpha)
        adj = {t: [] for t in range(n_nodes)}
        for (a, b) in self.alpha:
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise SystemValidationError("stree-node-range", witness=(a, b))
            adj[a].append(b)
        bad = [e for e, h in self.alpha.items()
               if type(h) is not int or h not in range(system.n_ground)]
        if bad:
            raise SystemValidationError("stree-edge-label", witness=min(bad))
        self.adj = {t: sorted(set(ns)) for t, ns in adj.items()}
        for (a, b), h in self.alpha.items():
            if (b, a) not in self.alpha:
                raise SystemValidationError("stree-missing-reverse", witness=(a, b))
            if self.alpha[(b, a)] != system.inv(h):
                raise SystemValidationError("stree-involution", witness=(a, b))

    def nodes(self):
        return range(self.n_nodes)

    def edges(self):
        return sorted({frozenset(e) for e in self.alpha}, key=sorted)

    def oriented_edges(self):
        return sorted(self.alpha)

    def incoming(self, t):
        """The star F_t of oriented edges pointing at node t."""
        return sorted((u, t) for u in self.adj[t])

    def star_at(self, t) -> frozenset:
        return frozenset(self.alpha[e] for e in self.incoming(t))

    def is_tree(self) -> bool:
        """n - 1 edges, and every node reached from node 0."""
        if len(self.edges()) != self.n_nodes - 1:
            return False
        seen, stack = {0}, [0]
        while stack:
            new = set(self.adj[stack.pop()]) - seen
            seen |= new
            stack.extend(new)
        return len(seen) == self.n_nodes

    def is_over(self, family) -> bool:
        return self.over_witness(family) is None

    def over_witness(self, family):
        return next((t for t in self.nodes() if self.star_at(t) not in family), None)

    def to_json(self) -> dict:
        return {
            "schema": STREE_SCHEMA,
            "nodes": self.n_nodes,
            "alpha": {f"{a}>{b}": h for (a, b), h in sorted(self.alpha.items())},
        }


# The witness map of the conversion: nodes to leaves, edges to tree edges.
# node_to_leaf: S-tree node -> leaf of the rooted tree; edge_to_tree_edge:
# oriented S-tree edge -> child node (= edge) of T; v_e: frozenset S-tree
# edge -> non-leaf node of T.
ConversionMap = namedtuple("ConversionMap", "node_to_leaf edge_to_tree_edge v_e")


# -- excludes-tangles verification ------------------------------------------------


def stree_excludes_tangles(stree, family):
    """Every orientation O of S contains some node's star, by the sink argument
    (Robertson and Seymour, *Graph Minors X*; Diestel and Oum, *Tangle-tree
    duality in abstract separation systems*): with every label in S, O points
    each edge at the end whose incoming label it holds (alpha(b, a) = alpha(a,
    b)*), and a sink t of the tree so oriented has star_at(t) inside O.  So
    only the hypotheses are checked, with no orientation enumerated:
    (False, ("label-not-a-member", e)) for the least such edge e, (False,
    ("not-a-tree", n_nodes)), else (True, None).  Refuses an S-tree that is
    not over the family.
    """
    if not stree.is_over(family):
        raise PreconditionError(
            f"S-tree not over the family at node {stree.over_witness(family)}")
    outside = [e for e in stree.oriented_edges() if not stree.system.contains(stree.alpha[e])]
    if outside:
        return False, ("label-not-a-member", outside[0])
    if not stree.is_tree():
        return False, ("not-a-tree", stree.n_nodes)
    return True, None


# -- the conversion (irreducible forbidden-leaf trees to S-trees) -------------------


def convert_ftree(tree, family):
    """Convert an irreducible all-forbidden-leaf tree into an S-tree over F.

    Nodes of the S-tree are the leaves of the input; every non-leaf v with
    children w1, w2 contributes one edge joining leaves for which the edges
    vw_i are necessary (the least such leaf, for determinism).  Returns
    (stree, conversion_map).  The system must be trivial-free, and the
    output is checked to be over F.
    """
    sys = tree.system
    _check_star_family(sys, family)
    if sys.trivial_elements():
        raise TrivialElementsPresent(
            f"trivial elements {sys.trivial_elements()} present")
    rep = validate_tst(tree, family)
    if not rep.ok:
        raise SystemValidationError("not-a-tst", witness=rep.failures[0])
    if displayed_tangles(tree, family):
        raise PreconditionError("tree has tangle leaves; not an F-tree")
    nec = necessity(tree, leaf_needs(sys, family))
    if not nec.irreducible:
        bad = sorted(v for v, ok in nec.node_necessary.items() if not ok)
        raise NotIrreducible(f"unnecessary nodes {bad}")

    leaves = tree.leaves()
    node_of_leaf = {l: i for i, l in enumerate(leaves)}
    alpha, edge_map, v_e = {}, {}, {}
    for v in tree.nodes():
        if tree.is_leaf(v):
            continue
        kids = tree.children[v]
        if len(kids) != 2:
            raise NonStarFamily(
                f"non-leaf {v} orients a degenerate separation; no star holds it")
        ends = []
        for w in kids:
            ends.append((min(nec.edge_necessary_for[w]), w))
        (l1, w1), (l2, w2) = ends
        a, b = node_of_leaf[l1], node_of_leaf[l2]
        alpha[(b, a)] = tree.edge_label[w1]  # edge oriented towards gamma^-1(l1)
        alpha[(a, b)] = tree.edge_label[w2]
        edge_map[(b, a)] = w1
        edge_map[(a, b)] = w2
        v_e[frozenset((a, b))] = v
    stree = STree(sys, len(leaves), alpha)
    cmap = ConversionMap(node_to_leaf={i: l for l, i in node_of_leaf.items()},
                         edge_to_tree_edge=edge_map, v_e=v_e)
    if not stree.is_tree():
        raise TheoremViolation("conversion output is not a tree")
    if not stree.is_over(family):
        raise TheoremViolation(
            f"conversion not over the family at node {stree.over_witness(family)}")
    return stree, cmap


# failures: the names of the failed clauses, sorted.
ConversionReport = namedtuple("ConversionReport", "ok failures")


def validate_conversion(tree, stree, cmap) -> ConversionReport:
    """The five clauses of the conversion theorem, each its own assertion,
    plus image equality and strict decrease of alpha along oriented paths."""
    failures = []

    def chk(cond, name):
        if not cond:
            failures.append(name)

    leaves = set(tree.leaves())
    chk(sorted(cmap.node_to_leaf) == sorted(stree.nodes())
        and set(cmap.node_to_leaf.values()) == leaves
        and len(cmap.node_to_leaf) == len(leaves), "clause1-node-bijection")

    tree_edges = {v for v in tree.nodes() if tree.parent[v] >= 0}
    values = list(cmap.edge_to_tree_edge.values())
    chk(sorted(cmap.edge_to_tree_edge) == sorted(stree.alpha)
        and set(values) == tree_edges
        and len(set(values)) == len(values), "clause2-edge-bijection")

    seen_ve = set()
    for e in stree.edges():
        a, b = sorted(e)
        v = cmap.v_e.get(frozenset((a, b)))
        got = {cmap.edge_to_tree_edge[(a, b)], cmap.edge_to_tree_edge[(b, a)]}
        chk(v is not None and got == set(tree.children[v]), "clause3-Ev-pairing")
        chk(v not in seen_ve, "clause3-ve-distinct")
        seen_ve.add(v)

    for (a, b), w in cmap.edge_to_tree_edge.items():
        # the head's leaf lies below w, making (v_e, w) the first edge of the
        # path from v_e to it, and strictly below v_e itself
        ell = cmap.node_to_leaf[b]
        chk(ell in set(tree.descendants(w)), "clause4-first-edge-of-path")
        chk(cmap.v_e[frozenset((a, b))] == tree.parent[w], "clause4-leaf-above-ve")

    for e, h in stree.alpha.items():
        chk(h == tree.edge_label[cmap.edge_to_tree_edge[e]], "clause5-alpha-beta-gamma")

    beta_image = {tree.edge_label[v] for v in tree.nodes() if tree.parent[v] >= 0}
    alpha_image = set(stree.alpha.values())
    chk(beta_image == alpha_image, "image-equality")

    sys = tree.system
    for (a, b) in stree.alpha:
        for c in stree.adj[b]:
            if c == a:
                continue
            x, y = stree.alpha[(a, b)], stree.alpha[(b, c)]
            chk(sys.lt(y, x), "alpha-strictly-decreasing")
    return ConversionReport(ok=not failures, failures=sorted(set(failures)))


# -- efficient stars -----------------------------------------------------------------


def f_eff(system, family, order) -> ForbiddenFamily:
    """The members efficient in their own closure.  A member with a handle
    that is no member of the system lies in no orientation of it, as in
    ``forbidden.extends``, and is dropped, as is an inconsistent one."""
    return ForbiddenFamily(
        sigma for sigma, mask in zip(family, family.masks)
        if not mask & ~system.members and system.is_consistent_mask(mask)
        and is_efficient(system, order, mask, system.closure_mask(mask)))


# -- nested systems to S-trees (the tree-set realization) ----------------------------


def stree_order_preserving(stree) -> bool:
    """Forward validator: alpha preserves the natural order on the oriented
    edges of a tree.  That order is generated by (a, b) > (b, c) for c != a,
    so by transitivity one pass over these consecutive pairs decides it."""
    leq, alpha = stree.system.leq, stree.alpha
    return all(leq(alpha[(b, c)], alpha[(a, b)])
               for a, b in stree.oriented_edges() for c in stree.adj[b] if c != a)


def stree_from_nested(system) -> STree:
    """An S-tree over stars realizing a nested regular finite system.

    Nodes are the consistent orientations; two nodes are adjacent when they
    differ on exactly one separation, with alpha pointing at the orientation
    holding the label.  Validator-gated: the flip graph must come out a tree,
    alpha onto the members and injective on every incoming star.
    """
    crossing = system.crossing_pairs(system.elements())
    if crossing:
        raise PreconditionError(f"system not nested: crossing pairs {crossing}")
    if any(system.is_small(h) for h in system.elements()):
        raise PreconditionError("system not regular: small elements present")
    taus = system.consistent_orientations()
    index = {t: i for i, t in enumerate(taus)}
    alpha = {}
    for i, t1 in enumerate(taus):
        for t2 in taus[i + 1:]:
            diff = t1 ^ t2
            if len(diff) == 2 and len({system.sep(h) for h in diff}) == 1:
                a, b = index[t1], index[t2]
                alpha[(a, b)] = next(iter(diff & t2))
                alpha[(b, a)] = next(iter(diff & t1))
    stree = STree(system, len(taus), alpha)
    if not stree.is_tree():
        raise TheoremViolation("flip graph of the nested system is not a tree")
    if set(alpha.values()) != set(system.elements()):
        raise TheoremViolation("alpha is not onto the member separations")
    for t in stree.nodes():
        star = stree.incoming(t)
        if len({stree.alpha[e] for e in star}) != len(star):
            raise TheoremViolation(f"alpha not injective on the star at {t}")
        if not system.is_star_mask(mask_of(stree.star_at(t))):
            raise TheoremViolation(f"incoming labels at {t} are not a star")
    if not stree_order_preserving(stree):
        raise TheoremViolation("alpha does not preserve the edge order")
    return stree
