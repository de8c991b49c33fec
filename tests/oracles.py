"""Independent brute-force oracles, written straight from the definitions.

These deliberately avoid the library's precomputed masks and pruned searches:
naive filters over full product spaces, pairwise loops over definitions.

The last section holds the helpers that more than one test module reads and
no command runs: constructions, lemmas and checks stated by the paper, built
on the library's own predicates.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product

from tanglekit import duality
from tanglekit.core import mask_of
from tanglekit.errors import (HypothesisFailure, PreconditionError, SystemValidationError,
                              TheoremViolation, UnknownHandle)
from tanglekit.forbidden import (_eclipsers, _replacements, enumerate_tangles,
                                 enumerate_tangles_in)
from tanglekit.ingest import _checked, from_relation
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.universe import (Universe, _universe_of, is_order_threshold_restriction,
                                is_structurally_submodular)


def points_away(system, x, y):
    """Distinct-separation pair pointing away from each other: y <= x*."""
    return system.sep(x) != system.sep(y) and system.leq(y, system.inv(x))


def naive_is_consistent(system, sigma):
    sigma = list(sigma)
    for x in sigma:
        for y in sigma:
            if x != y and points_away(system, x, y):
                return False
    return True


def pairwise_consistency_witness(system, sigma):
    """The first pair (x, y), x < y, of sorted sigma pointing away from each
    other, found by one test per pair."""
    sigma = sorted(set(sigma))
    for i, x in enumerate(sigma):
        for y in sigma[i + 1:]:
            if points_away(system, x, y):
                return (x, y)
    return None


def naive_is_star(system, sigma):
    """Stars by one test per pair, read off ``leq`` and the involution alone:
    no degenerate member, a pair {x, x*} only when x and x* are comparable,
    and y* <= x and x* <= y for every pair of distinct separations."""
    sigma = sorted(set(sigma))
    if any(system.inv(x) == x for x in sigma):
        return False
    for i, x in enumerate(sigma):
        for y in sigma[i + 1:]:
            if y == system.inv(x):
                if not (system.leq(x, y) or system.leq(y, x)):
                    return False
            elif not (system.leq(system.inv(y), x) and system.leq(system.inv(x), y)):
                return False
    return True


def naive_consistent_orientations(system):
    """Filter the product of orientations by the definition, in product order.

    The product is built one separation at a time.  Consistency asks that no
    pair points away, so a pick whose pair fails on the first separations
    fails whatever follows: dropping it there leaves the same list as
    filtering the full 2^m product.
    """
    picks = [()]
    for s in system.seps():
        picks = [pick + (h,) for pick in picks for h in system.orientations(s)
                 if not any(points_away(system, h, x) for x in pick)]
    return [frozenset(pick) for pick in picks]


def naive_first_inside(family, members):
    """The first member inside ``members`` in witness order (by size, then by
    sorted handles), found by a frozenset scan; None when there is none."""
    hits = [s for s in family if s <= members]
    return min(hits, key=lambda s: (len(s), sorted(s)), default=None)


def naive_is_orientation(system, tau):
    """Only members, and exactly one orientation of each member separation:
    the separations of tau's handles, sorted, are the system's, once each."""
    return set(tau) <= set(system.elements()) and sorted(map(system.sep, tau)) == system.seps()


def naive_avoids(tau, family):
    tau = frozenset(tau)
    return all(not set(s) <= tau for s in family)


def naive_closure(system, sigma):
    """sigma plus every member strictly above a sigma-element of another separation."""
    sigma = set(sigma)
    out = set(sigma)
    for s in system.elements():
        for r in sigma:
            if system.sep(r) != system.sep(s) and system.lt(r, s):
                out.add(s)
    return frozenset(out)


def naive_eclipse_flags(system, order, r, s):
    """(eclipses, weakly_eclipses) for the oriented pair r, s: r < s, and the
    order of r is lower than that of s (no higher, for the weak flag)."""
    lt = bool(system.lt(r, s))
    return lt and order.of(r) < order.of(s), lt and order.of(r) <= order.of(s)


def naive_tangles(system, family):
    return [t for t in naive_consistent_orientations(system)
            if naive_avoids(t, family)]


# -- closure checks, over every consistent orientation --------------------------


def naive_closed_under_eclipsing(system, family, order):
    """Replacement closure, quantified over every consistent orientation tau:
    for each member sigma inside tau, x in sigma and y in tau weakly
    eclipsing x, sigma - x + y must be a member.  Witness (tau, sigma, x, y)
    of the first failure, taus in product order and members in witness order.
    """
    els = system.elements()
    eclipsers = {x: {y for y in els if naive_eclipse_flags(system, order, y, x)[1]}
                 for x in els}
    for tau in naive_consistent_orientations(system):
        for sigma in family:
            if not sigma <= tau:
                continue
            for x in sorted(sigma):
                for y in sorted(tau & eclipsers[x]):
                    if (sigma - {x}) | {y} not in family:
                        return False, (tau, sigma, x, y)
    return True, None


def naive_is_rich(system, family, order, layered=False):
    """Richness one layer at a time, each over every consistent orientation:
    tau fails when it holds a member and each member inside has an element
    weakly eclipsed by an element of tau.  The layers are S alone, or with
    ``layered`` the S_k of every order threshold, smallest first.  Witness
    (False, tau) of the first failing tau of the first failing layer, taus in
    product order; else (True, None).
    """
    from tanglekit.forbidden import order_thresholds
    from tanglekit.universe import restrict_Sk

    layers = ([restrict_Sk(system, order, k) for k in order_thresholds(system, order)]
              if layered else [system])
    els = system.elements()
    eclipsers = {x: {y for y in els if naive_eclipse_flags(system, order, y, x)[1]}
                 for x in els}
    for layer in layers:
        for tau in naive_consistent_orientations(layer):
            inside = [sigma for sigma in family if sigma <= tau]
            if inside and all(any(tau & eclipsers[x] for x in sigma) for sigma in inside):
                return False, tau
    return True, None


def naive_closed_under_shifting(system, family, order):
    """Shift closure, quantified over every consistent orientation tau: for
    each member star sigma inside tau, s in sigma neither trivial nor
    degenerate, and r in tau weakly eclipsing s that emulates s, the shifted
    star must be a member.  Witness (tau, sigma, s, r) of the first failure.
    """
    from tanglekit.duality import emulates, shift_star

    els = system.elements()
    shifts = {s: {r for r in els if naive_eclipse_flags(system, order, r, s)[1]
                  and emulates(system, r, s)}
              for s in els if not (naive_is_trivial(system, s) or system.inv(s) == s)}
    kept = {}  # (sigma, s, r) -> whether the shifted star is a member
    for tau in naive_consistent_orientations(system):
        for sigma in family:
            if not sigma <= tau:
                continue
            for s in sorted(sigma):
                for r in sorted(tau & shifts.get(s, set())):
                    if (sigma, s, r) not in kept:
                        kept[sigma, s, r] = shift_star(system, r, s, sigma) in family
                    if not kept[sigma, s, r]:
                        return False, (tau, sigma, s, r)
    return True, None


def naive_stree_excludes_tangles(stree, family):
    """Every orientation of the system contains some node's star, tried on all
    2^m orientations (not only consistent ones).  (True, the number checked),
    or (False, the first orientation that holds no star).  Refuses S-trees
    that are not over the family."""
    sys = stree.system
    if not stree.is_over(family):
        raise PreconditionError(
            f"S-tree not over the family at node {stree.over_witness(family)}")
    seps = sys.seps()
    stars = [stree.star_at(t) for t in stree.nodes()]
    checked = 0
    for pick in product(*[sys.orientations(s) for s in seps]):
        tau = frozenset(pick)
        if not any(star <= tau for star in stars):
            return False, tau
        checked += 1
    return True, checked


def naive_stree_edge_geq(stree, e, f):
    """The natural order on oriented edges: e >= f iff e = f, or e and f lie on
    different edges and the path from e to f starts at the head of e and ends
    at the tail of f."""
    if e == f:
        return True
    (a, b), (c, d) = e, f
    if {a, b} == {c, d}:
        return False
    b_side = side_nodes(stree, a, b)
    c_side = side_nodes(stree, d, c)
    return c in b_side and d in b_side and a in c_side and b in c_side


def side_nodes(stree, a, b):
    """Nodes of the component of the S-tree minus the edge {a,b} that contains b."""
    seen, stack = {b}, [b]
    while stack:
        u = stack.pop()
        for v in stree.adj[u]:
            if {u, v} == {a, b}:
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def naive_stree_order_preserving(stree):
    """alpha preserves the natural edge order, tried on every pair of oriented edges."""
    sys = stree.system
    return all(sys.leq(stree.alpha[e], stree.alpha[f])
               for e in stree.oriented_edges() for f in stree.oriented_edges()
               if naive_stree_edge_geq(stree, f, e))


def beta_by_path_walk(tree, node):
    """Edge labels from the root to a node, collected by explicit parent hops."""
    out = set()
    while node != tree.root:
        out.add(tree.edge_label[node])
        node = tree.parent[node]
    return frozenset(out)


def naive_gated_reduce(tree, family, order):
    """Irreducible reduction by a gated search: each round generates every
    contraction of an unnecessary node v (ascending) into a child w of v
    (in order) whose edge no leaf needs, and keeps the first result that is
    still a TST, ordered, efficient, and displays the input's tangles.
    Each round classifies its leaves with a fresh ``leaf_needs`` table, so
    nothing is shared across rounds.  Raises AssertionError when a
    reducible tree has no such move."""
    from tanglekit.reduce import _contract_move, leaf_needs, necessity
    from tanglekit.tst import displayed_tangles, is_efficient_tree, is_ordered, validate_tst

    target = displayed_tangles(tree, family)

    def passes(cand):
        return (validate_tst(cand, family).ok and is_ordered(cand, order)
                and is_efficient_tree(cand, order)
                and displayed_tangles(cand, family) == target)

    current = tree
    while not (rep := necessity(current, leaf_needs(current.system, family))).irreducible:
        moves = (_contract_move(current, v, w)
                 for v in sorted(rep.node_necessary) if not rep.node_necessary[v]
                 for w in current.children[v] if not rep.edge_necessary_for[w])
        current = next(filter(passes, moves), None)
        if current is None:
            raise AssertionError("reducible tree admits no gated move")
    return current


# -- order hypotheses, by one Fraction lookup per use --------------------------


def _value(fn):
    return fn.of if hasattr(fn, "of") else fn


def naive_is_submodular(uni, fn):
    """u(r v s) + u(r ^ s) <= u(r) + u(s) over all oriented pairs; witness on failure."""
    g, val = uni.ground, _value(fn)
    els = uni.elements()
    for i, a in enumerate(els):
        for b in els[i:]:
            if val(g.join(a, b)) + val(g.meet(a, b)) > val(a) + val(b):
                return False, (a, b)
    return True, None


def naive_is_structurally_submodular(uni, fn):
    """u(r v s) <= u(r) or u(r ^ s) <= u(s), over all ordered oriented pairs."""
    g, val = uni.ground, _value(fn)
    els = uni.elements()
    for a in els:
        for b in els:
            if not (val(g.join(a, b)) <= val(a) or val(g.meet(a, b)) <= val(b)):
                return False, (a, b)
    return True, None


def naive_refines(o2, o1, system):
    """o1(r) < o1(s) implies o2(r) < o2(s) over all separation pairs; witness on failure."""
    seps = system.seps()
    for r in seps:
        for s in seps:
            if o1.of(r) < o1.of(s) and not o2.of(r) < o2.of(s):
                return False, (r, s)
    return True, None


# -- lattice tables, by the axioms and by leq alone ------------------------------


# failures: (axiom, witness) pairs, at most 20.
LatticeReport = namedtuple("LatticeReport", "ok failures")


def naive_validate_lattice(uni):
    """Exhaustive lattice axioms plus the two couplings everything downstream uses:

    r <= s iff r v s = s iff r ^ s = r, and (r v s)* = r* ^ s*.  The cubic
    associativity loop makes this the slow, axiom-by-axiom reading.
    """
    failures = []
    els = list(range(uni.n_ground))

    def chk(cond, axiom, witness):
        if not cond and len(failures) < 20:
            failures.append((axiom, witness))

    for a in els:
        for b in els:
            j, m = uni.join(a, b), uni.meet(a, b)
            chk(j == uni.join(b, a), "join-commutative", (a, b))
            chk(m == uni.meet(b, a), "meet-commutative", (a, b))
            chk(uni.join(a, m) == a, "absorption", (a, b))
            chk(uni.meet(a, j) == a, "absorption", (a, b))
            chk(uni.leq(a, j) and uni.leq(b, j), "join-upper-bound", (a, b))
            chk(uni.leq(m, a) and uni.leq(m, b), "meet-lower-bound", (a, b))
            chk((uni.leq(a, b)) == (j == b), "leq-join-coupling", (a, b))
            chk((uni.leq(a, b)) == (m == a), "leq-meet-coupling", (a, b))
            chk(uni.inv(j) == uni.meet(uni.inv(a), uni.inv(b)),
                "involution-de-morgan", (a, b))
    for a in els:
        for b in els:
            for c in els:
                if uni.join(uni.join(a, b), c) != uni.join(a, uni.join(b, c)):
                    chk(False, "join-associative", (a, b, c))
                if uni.meet(uni.meet(a, b), c) != uni.meet(a, uni.meet(b, c)):
                    chk(False, "meet-associative", (a, b, c))
    return LatticeReport(ok=not failures, failures=failures)


def naive_bound_table(system, leq):
    """table[a][b]: the common ``leq``-bound of a and b that is ``leq`` all others.

    With ``system.leq`` this is the least upper bound; with the flipped
    relation, the greatest lower bound.  None where there is no such element.
    Only ``leq`` is consulted: a walk down the common bounds ends at the least
    one if there is one, and the walk's end is then checked against them all.
    """
    els = range(system.n_ground)
    above = [[c for c in els if leq(a, c)] for a in els]

    def least(a, b):
        bounds = [c for c in above[a] if leq(b, c)]
        low = None
        for c in bounds:
            if low is None or leq(c, low):
                low = c
        return low if all(leq(low, d) for d in bounds) else None

    return [[least(a, b) for b in els] for a in els]


def naive_join_table(system):
    return naive_bound_table(system, system.leq)


def naive_meet_table(system):
    return naive_bound_table(system, lambda x, y: system.leq(y, x))


# -- universe-layer kernels, by pairwise tests of the definitions ----------------


def label_sides(label):
    """The two sides of a generator label ``{a,b}|{c}``, as frozensets of names."""
    return tuple(frozenset(x for x in side.strip("{}").split(",") if x)
                 for side in label.split("|"))


def naive_graph_sides(verts, edges):
    """The sides (A, B) of every separation of a graph, sorted, as bitmasks
    over ``verts``: every assignment of each vertex to A only, both sides or
    B only, kept when no edge joins A \\ B to B \\ A."""
    bit = {x: 1 << i for i, x in enumerate(verts)}
    sides = []
    for assign in product((0, 1, 2), repeat=len(verts)):
        a = sum(1 << i for i, t in enumerate(assign) if t != 2)
        b = sum(1 << i for i, t in enumerate(assign) if t != 0)
        only_a, only_b = a & ~b, b & ~a
        if not any(bit[x] & only_a and bit[y] & only_b or bit[x] & only_b and bit[y] & only_a
                   for x, y in edges):
            sides.append((a, b))
    return sorted(sides)


def naive_graph_tangle_stars(uni, order, vertices, edges, k):
    """Stars of at most three separations of order < k whose A-sides hold
    every vertex and, between them, both ends of every edge; by frozensets.

    A set is a star iff each of its pairs is one (a pair {x, x} is {x}), so
    ``is_star_mask`` runs once per pair and a triple is tested by its pairs."""
    sk = [h for h in uni.elements() if order.of(h) < k]
    sides = {h: label_sides(uni.label(h))[0] for h in sk}
    pairs = {(x, y) for i, x in enumerate(sk) for y in sk[i:]
             if uni.is_star_mask(mask_of({x, y}))}
    out = set()
    for i, x in enumerate(sk):
        for j in range(i, len(sk)):
            y = sk[j]
            if (x, y) not in pairs:
                continue
            for z in sk[j:]:
                a_sides = [sides[x], sides[y], sides[z]]
                if ((x, z) in pairs and (y, z) in pairs
                        and set(vertices) <= set().union(*a_sides)
                        and all(any({a, b} <= s for s in a_sides) for a, b in edges)):
                    out.add(frozenset((x, y, z)))
    return out


def naive_up_sets(uni, graph, sides=None):
    """up[i] = the mask of handles j >= i, read off the sides pair by pair.

    Graph universes: (A,B) <= (C,D) iff A contains C and B is inside D.
    Bipartition universes: (A,B) <= (C,D) iff A is inside C.
    ``sides`` gives each handle's (A, B) as frozensets; by default they are
    read off the labels, which cannot name a vertex with a comma.
    """
    if sides is None:
        sides = [label_sides(label) for label in uni.labels]
    if graph:
        def leq(x, y):
            return x[0] >= y[0] and x[1] <= y[1]
    else:
        def leq(x, y):
            return x[0] <= y[0]
    return [sum(1 << j for j, y in enumerate(sides) if leq(x, y)) for x in sides]


def naive_down_sets(uni):
    """down[i] = the mask of handles j <= i, by one ``leq`` call per pair."""
    els = range(uni.n_ground)
    return [sum(1 << j for j in els if uni.leq(j, i)) for i in els]


def naive_gamma(uni, n, iota, s):
    """Sum of n^iota(t) over the oriented members t that are not >= s."""
    return sum(n ** iota[t] for t in uni.elements() if not uni.leq(s, t))


def pairwise_validate_lattice(uni):
    """The lattice rule checked pair by pair, every check on every pair.

    The failure list is at most 20 long, row-major, in the order of the
    checks.  Its first entry other than a commutativity one is the failure
    that ``ingest.universe_from_json`` (and ``from_tables``) raises.
    """
    failures = []
    up, down, inv = uni._up, uni._down, uni._inv
    join, meet = uni._tables
    els = range(uni.n_ground)

    def chk(cond, axiom, witness):
        if not cond and len(failures) < 20:
            failures.append((axiom, witness))

    for a in els:
        for b in els:
            j, m = join[a][b], meet[a][b]
            chk(j == join[b][a], "join-commutative", (a, b))
            chk(m == meet[b][a], "meet-commutative", (a, b))
            chk(up[j] == up[a] & up[b], "join-least-upper-bound", (a, b))
            chk(down[m] == down[a] & down[b], "meet-greatest-lower-bound", (a, b))
            chk(inv[j] == meet[inv[a]][inv[b]], "involution-de-morgan", (a, b))
    return LatticeReport(ok=not failures, failures=failures)


def pairwise_from_relation(inv, leq_pairs, labels=None):
    """``ingest.from_relation`` by one test per pair: the up-sets
    filled pair by pair, then antisymmetry and transitivity, then order
    reversal, each checked on every pair of every up-set.  Raises the first
    failure's SystemValidationError."""
    from tanglekit.core import SeparationSystem, iter_mask
    from tanglekit.errors import SystemValidationError

    inv = tuple(inv)
    n = len(inv)
    if sorted(inv[i] for i in range(n)) != list(range(n)):
        raise SystemValidationError("involution-permutation", witness=inv)
    for i in range(n):
        if inv[inv[i]] != i:
            raise SystemValidationError("involution-self-inverse", witness=i)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise SystemValidationError("unknown-handle", witness=(a, b))
        up[a] |= 1 << b
    for a in range(n):
        for b in iter_mask(up[a]):
            if a != b and (up[b] >> a) & 1:
                raise SystemValidationError("antisymmetry", witness=(a, b))
            if up[b] & ~up[a]:
                c = next(iter_mask(up[b] & ~up[a]))
                raise SystemValidationError("transitivity", witness=(a, b, c))
    for a in range(n):
        for b in iter_mask(up[a]):
            if not (up[inv[b]] >> inv[a]) & 1:
                raise SystemValidationError("involution-order-reversing", witness=(a, b))
    if labels is None:
        labels = [str(i) for i in range(n)]
    return SeparationSystem(inv, up, labels)


# -- triviality, by the definition ---------------------------------------------


def naive_is_trivial(system, h, members=None):
    """Both orientations of some member r other than h and h* are < h.

    Read off ``lt`` and the involution alone.  A degenerate r = r* counts: its
    one orientation is both of them.  ``members`` defaults to the system's own.
    """
    members = system.elements() if members is None else members
    hi = system.inv(h)
    return any(r not in (h, hi) and system.lt(r, h) and system.lt(system.inv(r), h)
               for r in members)


def naive_without_trivial(system):
    """The members left once trivial separations (both orientations) are
    dropped round after round, each round judged among the members left."""
    keep = set(system.elements())
    while True:
        trivial = {h for h in keep if naive_is_trivial(system, h, keep)}
        if not trivial:
            return sorted(keep)
        keep -= trivial | {system.inv(h) for h in trivial}


# -- helpers that only the tests read ------------------------------------------


def from_tables(inv, leq_pairs, join, meet, labels=None):
    """A validated universe with the given tables; raises on the first failure."""
    g = from_relation(inv, leq_pairs, labels)
    return _checked(Universe(g._inv, g._up, g.labels, down=g._down), join, meet)


def table_failure(uni):
    """The (axiom, witness) that ``from_tables`` raises on the involution,
    order, tables and labels of ``uni``; None when it accepts them."""
    n = uni.n_ground
    leq = [(a, b) for a in range(n) for b in range(n) if uni.leq(a, b)]
    try:
        from_tables(uni._inv, leq, *uni._tables, uni.labels)
    except SystemValidationError as exc:
        return exc.axiom, exc.witness
    return None


def with_tables(inv, up, labels, join, meet):
    """A universe on the up-sets ``up`` that keeps the given tables unchecked,
    as they are, in place of the derived ones; ``universe_from_json`` and
    ``from_tables`` accept only the derived tables."""
    uni = Universe(inv, up, labels)
    uni._tables = tuple(map(tuple, join)), tuple(map(tuple, meet))
    return uni


def is_submodular_subsystem(system) -> bool:
    """Subsystem submodularity: every member pair keeps its join or meet a member."""
    g = _universe_of(system, "subsystem submodularity")
    els = system.elements()
    for a in els:
        for b in els:
            if not (system.contains(g.join(a, b)) or system.contains(g.meet(a, b))):
                return False
    return True


# The four corners of two separations, keyed by the orientation pair used.
#
# slots maps (rk, sk) in {+,-}^2 to the oriented corner handle
# r_orientation ^ s_orientation; corners is the set of underlying
# separations.
CornerReport = namedtuple("CornerReport", "slots corners")


def corners(uni, r: int, s: int) -> CornerReport:
    """Corners of two separations, given by reference orientations r, s.

    Identical underlying separations collapse: every slot is then the
    matching orientation of r itself.
    """
    g = _universe_of(uni, "corners")
    if not (uni.contains(r) and uni.contains(s)):
        raise UnknownHandle(r if not uni.contains(r) else s)
    ri, si = uni.inv(r), uni.inv(s)
    if uni.sep(r) == uni.sep(s):
        slots = {("+", "+"): r, ("+", "-"): r, ("-", "+"): ri, ("-", "-"): ri}
    else:
        slots = {
            ("+", "+"): g.meet(r, s),
            ("+", "-"): g.meet(r, si),
            ("-", "+"): g.meet(ri, s),
            ("-", "-"): g.meet(ri, si),
        }
    return CornerReport(slots, frozenset(uni.sep(h) for h in slots.values()))


def constant_order(system, value=0):
    """The order function with one value on every separation."""
    return OrderFunction(system, {s: Fraction(value) for s in system.ground.seps()})


def crooked_p3_order(uni):
    """An order on P3's universe that is not structurally submodular: 1 on
    {c}|{a,b,c} and {a,b,c}|{a,b,c}, 0 on every other separation."""
    bumped = ("{c}|{a,b,c}", "{a,b,c}|{a,b,c}")
    return OrderFunction(uni, {s: int(uni.label(s) in bumped) for s in uni.seps()})


def indicator(uni, t: int):
    """The 0/1 function on oriented separations: 0 iff the argument is <= t."""

    def fn(h):
        return 0 if uni.leq(h, t) else 1

    return fn


def default_iota(uni) -> dict:
    """Lexicographic-handle bijection from oriented members to 0..|U->|-1: the
    iota whose base-3 gamma ``refine_injective`` sums."""
    return {h: i for i, h in enumerate(uni.elements())}


class Enumeration(OrderFunction):
    """A bijection between the unoriented separations and 1..|S|."""

    def __init__(self, system, ranks):
        ranks = {system.ground.sep(s): int(r) for s, r in ranks.items()}
        if sorted(ranks.values()) != list(range(1, len(ranks) + 1)):
            raise SystemValidationError("enumeration-bijective",
                                        witness=sorted(ranks.values()))
        super().__init__(system, ranks)
        self.ranks = ranks


def enumeration_refinement(uni, o: OrderFunction) -> Enumeration:
    """A structurally submodular enumeration of U refining o.

    Composes the injective refinement with the order isomorphism onto
    1..|U|; structural submodularity survives the composition.
    """
    o2 = refine_injective(o)
    seps = sorted(uni.seps(), key=o2.num.__getitem__)
    return Enumeration(uni, {s: i + 1 for i, s in enumerate(seps)})


def closed_under_eclipsing(system, family, order):
    """Replacement closure: sigma - x + y is a member for every (sigma, x, y)
    of ``_replacements``; witness (sigma, x, y) of the first failure."""
    for sigma, x, y in _replacements(system, family, order):
        if (sigma - {x}) | {y} not in family:
            return False, (sigma, x, y)
    return True, None


def tree_infimum(tree, a, b):
    """The deepest common ancestor of two nodes."""
    anc = set()
    w = a
    while w >= 0:
        anc.add(w)
        w = tree.parent[w]
    w = b
    while w not in anc:
        w = tree.parent[w]
    return w


def is_nested_set(system, handles) -> bool:
    return not system.crossing_pairs(handles)


def check_nested_corollary(tree) -> bool:
    """Edge labels of an irreducible forbidden-leaf tree with star family nest."""
    labels = {tree.edge_label[v] for v in tree.nodes() if tree.parent[v] >= 0}
    return is_nested_set(tree.system, labels)


class AmbiguousShiftChoice(PreconditionError):
    """Incomparable maxima in the shift-selection rule; carries all maxima."""

    def __init__(self, maxima):
        self.maxima = sorted(maxima)
        super().__init__(f"incomparable shift candidates {self.maxima}")


def lemma_shift_select(system, order, tau, sigma, s):
    """The shift-lemma selection: minimum order, then maximal; checked output.

    Returns (r, shifted_star).  Hypotheses: the system is an order-threshold
    restriction of a universe with a structurally submodular order, sigma is
    a star inside tau, s in sigma is non-trivial and eclipsed by some member
    of tau.  Incomparable maxima raise AmbiguousShiftChoice.
    """
    g = _universe_of(system, "shifting")
    ok, _ = is_structurally_submodular(g, order)
    if not ok:
        raise HypothesisFailure("order not structurally submodular on the universe")
    if not is_order_threshold_restriction(system, order):
        raise HypothesisFailure("system is not an order-threshold restriction")
    tau = frozenset(tau)
    sigma = frozenset(sigma)
    if not system.is_star_mask(mask_of(sigma)) or not sigma <= tau or s not in sigma:
        raise HypothesisFailure("sigma must be a star inside tau containing s")
    if system.is_trivial(s):
        raise HypothesisFailure("s must be non-trivial")
    cands = list(_eclipsers(system, order, s, mask_of(tau)))
    if not cands:
        raise HypothesisFailure("no member of tau eclipses s")
    best = min(order.num[r] for r in cands)
    tier = [r for r in cands if order.num[r] == best]
    maxima = [r for r in tier if not any(x != r and system.lt(r, x) for x in tier)]
    if len(maxima) > 1:
        raise AmbiguousShiftChoice(maxima)
    r = maxima[0]
    if not duality.emulates(system, r, s):
        raise TheoremViolation(f"selected {r} fails to emulate {s}")
    return r, duality.shift_star(system, r, s, sigma)


def assert_tangles_are_brute_force(res, system, family, order=None):
    """The tangles a tree of tangles read off its tree, ``res.tangles``, are
    the F-tangles of S by brute force; with ``order``, the maximal tangles of
    the layers, the maximal records of ``enumerate_tangles_in``."""
    want = (enumerate_tangles(system, family) if order is None else
            [t.elements for t in enumerate_tangles_in(system, family, order) if t.maximal])
    assert sorted(map(sorted, res.tangles)) == sorted(map(sorted, want))
