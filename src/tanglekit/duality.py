"""Tangle-tree duality: S-trees over star families and the conversion step.

An S-tree is an unrooted tree whose oriented edges carry oriented separations
compatibly with the involution; it is *over* a family when every node's
incoming star maps into the family.  The conversion construction turns an
irreducible tree all of whose leaves are forbidden into such an S-tree, and
the shifting machinery derives the richness needed to produce those trees in
the first place.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache, partial

from .core import _orientations, iter_mask, mask_of, typed
from .errors import (
    BothOrNeither,
    HypothesisFailure,
    NonStarFamily,
    NonSubmodularOrder,
    NotIrreducible,
    PreconditionError,
    SystemValidationError,
    TheoremViolation,
    TrivialElementsPresent,
)
from .forbidden import _replacements, f_eff, is_rich
from .orderfn import refine_injective, refines
from .tst import (
    _check_thorough_preconditions,
    build_thorough_tst,
    displayed_tangles,
    leaf_needs,
    necessity,
    reduce_irreducible,
    validate_tst,
)
from .universe import _universe_of, is_order_threshold_restriction, is_structurally_submodular

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

    @classmethod
    def from_json(cls, system, obj) -> "STree":
        """The S-tree of a ``to_json`` document.  A document or ``alpha`` that
        is no object (``stree-document``, ``stree-alpha``), a ``schema`` other
        than STREE_SCHEMA (``stree-schema``), a ``nodes`` count that is no
        integer of at least 0 (``stree-nodes``), or an ``alpha`` key that is
        not "a>b" with a and b decimal ids (``stree-alpha-key``) stops it,
        with that value, None when absent, as the witness; the constructor
        checks the rest.  An absent ``schema`` is not checked."""
        if typed(obj, dict, "stree-document").get("schema", STREE_SCHEMA) != STREE_SCHEMA:
            raise SystemValidationError("stree-schema", witness=obj["schema"])
        n = obj.get("nodes")
        if type(n) is not int or n < 0:
            raise SystemValidationError("stree-nodes", witness=n)
        alpha = {}
        for key, h in typed(obj.get("alpha"), dict, "stree-alpha").items():
            ids = isinstance(key, str) and re.fullmatch(r"(0|[1-9][0-9]*)>(0|[1-9][0-9]*)", key)
            if not ids:
                raise SystemValidationError("stree-alpha-key", witness=key)
            alpha[(int(ids[1]), int(ids[2]))] = h
        return cls(system, n, alpha)

    def __repr__(self):
        return f"<STree {self.n_nodes} nodes>"


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


def _check_star_family(system, family):
    """NonStarFamily for a member of the system's handles that is no star.

    A member with a handle outside the system lies in no orientation of it,
    as in ``forbidden.extends``, so it is skipped, not checked.
    """
    for m in family.masks:
        if not m & ~system.members and not system.is_star_mask(m):
            raise NonStarFamily(f"family member {sorted(iter_mask(m))} is not a star")


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


# -- shifting ---------------------------------------------------------------------


def shift_map(system, r, s, t):
    """The shifting image of t under f-down from s to r (r <= s required).

    Arguments of the down side (t <= s) map to t ^ r; arguments whose
    inverse is on the down side map to (t* ^ r)*.  The s itself maps to r
    and s* to r*, per the tie rule.
    """
    g = _universe_of(system, "shifting")
    if not system.leq(r, s):
        raise PreconditionError("shift base requires r <= s")
    if system.is_degenerate(s) or system.is_trivial(s):
        raise PreconditionError("shift target must be non-trivial and non-degenerate")
    si = system.inv(s)
    down = (t != si and system.leq(t, s))
    updown = (system.inv(t) != si and system.leq(system.inv(t), s))
    if down and updown and system.sep(t) != system.sep(s):
        raise PreconditionError(f"both cases apply to {t}; s is not non-trivial")
    if down:
        return g.meet(t, r)
    if updown:
        return system.inv(g.meet(system.inv(t), r))
    raise PreconditionError(f"{t} has no orientation below {s}")


def shift_star(system, r, s, sigma) -> frozenset:
    return frozenset(shift_map(system, r, s, t) for t in sigma)


def emulates(system, r, s) -> bool:
    """r <= s emulates s: every down-side member shifts back into the system."""
    g = _universe_of(system, "shifting")
    si = system.inv(s)
    for t in system.elements():
        if t != si and system.leq(t, s):
            if not system.contains(g.meet(t, r)):
                return False
    return True


def closed_under_shifting(system, family, order):
    """Shift closure: for every (sigma, s, r) of ``forbidden._replacements``
    with s neither trivial nor degenerate and r emulating s, the shifted star
    is a member; witness (sigma, s, r) of the first failure."""
    _check_star_family(system, family)
    emulating = cache(partial(emulates, system))  # one test per (r, s)
    for sigma, s, r in _replacements(system, family, order):
        if (not (system.is_trivial(s) or system.is_degenerate(s))
                and emulating(r, s)
                and shift_star(system, r, s, sigma) not in family):
            return False, (sigma, s, r)
    return True, None


# -- dichotomy drivers ----------------------------------------------------------------


# kind: "tangle" | "stree"; notes: dict.  The tangle branch sets tangle (a
# frozenset); the stree branch sets reduced (the irreducible structure tree),
# stree, conversion (a ConversionMap) and feff (a ForbiddenFamily).
DichotomyResult = namedtuple(
    "DichotomyResult", "kind notes tangle reduced stree conversion feff",
    defaults=(None,) * 5)


def dichotomy(system, order, family, check_exclusive=False) -> DichotomyResult:
    """Exactly one of: a tangle of the system, or an S-tree over the family.

    Preconditions checked eagerly: injective order, family standard and
    rich.  The S-tree branch also needs a trivial-free system and a star
    family; its conversion must pass ``validate_conversion``, its stars F_eff.
    """
    notes = {}
    _check_thorough_preconditions(system, order, family)
    rich, witness = is_rich(system, family, order)
    if not rich:
        raise HypothesisFailure(
            f"family not rich; counterexample orientation {sorted(witness)}")

    tangle = next(_orientations(system, family.masks), None)
    if tangle is not None:
        if check_exclusive:
            if not displayed_tangles(build_thorough_tst(system, order, family), family):
                raise BothOrNeither("tangle exists but the structure tree has no "
                                    "tangle leaf")
            notes["exclusive"] = "structure tree has tangle leaves; no F-tree arises"
        return DichotomyResult(kind="tangle", tangle=frozenset(iter_mask(tangle)), notes=notes)

    if system.trivial_elements():
        raise TrivialElementsPresent(
            f"S-tree branch needs a trivial-free system; "
            f"trivial {system.trivial_elements()}")
    _check_star_family(system, family)
    reduced = reduce_irreducible(build_thorough_tst(system, order, family), family, order)
    if displayed_tangles(reduced, family):
        raise BothOrNeither("no brute-force tangle, yet the reduced tree has "
                            "a tangle leaf")
    stree, cmap = convert_ftree(reduced, family)
    rep = validate_conversion(reduced, stree, cmap)
    if not rep.ok:
        raise TheoremViolation(f"conversion fails clauses {rep.failures}")
    feff, _ = f_eff(system, family, order)
    if not stree.is_over(feff):
        raise TheoremViolation(f"conversion star at node {stree.over_witness(feff)} "
                               "is not efficient in its closure")
    if check_exclusive:
        ok, why = stree_excludes_tangles(stree, family)
        if not ok:
            raise BothOrNeither(f"S-tree certificate fails the sink argument: {why}")
        notes["exclusive"] = "S-tree excludes every orientation"
    return DichotomyResult(kind="stree", reduced=reduced, stree=stree,
                           conversion=cmap, feff=feff, notes=notes)


def newduality(system, order, family, check_exclusive=False):
    """The shifting-based dichotomy for S = U_k, checked to be a threshold set of ``order``.

    Keeps an injective structurally submodular order as given and refines a
    submodular one with ``refine_injective``; the shifting machinery only
    compares order values, so any injective refinement gives the same
    result.  Then checks closure under shifting, which implies richness, and
    delegates to ``dichotomy``; a family that ``dichotomy`` still finds not
    rich refutes that implication.
    """
    uni = _universe_of(system, "newduality")
    if not is_order_threshold_restriction(system, order):
        raise HypothesisFailure("S must be a threshold set of the order (S = U_k)")
    if order.is_injective_on(uni) and is_structurally_submodular(uni, order)[0]:
        o2 = order
    else:
        try:
            o2 = refine_injective(order)
        except NonSubmodularOrder as exc:
            raise HypothesisFailure("order must be submodular, or injective and "
                                    "structurally submodular") from exc
        ok, witness = refines(o2, order, uni)
        if not ok:
            raise TheoremViolation(
                f"injective refinement does not refine the order; pair {witness}")
    # S is a threshold set of o2 as well: o2 refines order, so order(r) < order(s)
    # gives o2(r) < o2(s) for every member r and non-member s
    # checks the star family first; trivial elements only obstruct the S-tree
    # branch, and ``dichotomy`` raises when that branch is actually reached
    ok, witness = closed_under_shifting(system, family, o2)
    if not ok:
        raise HypothesisFailure(f"family not closed under shifting; witness {witness}")
    try:
        result = dichotomy(system, o2, family, check_exclusive=check_exclusive)
    except HypothesisFailure as exc:  # raised by dichotomy only for richness
        raise TheoremViolation(f"family closed under shifting, yet {exc}") from exc
    result.notes["rich"] = "derived from closure under shifting"
    return result
