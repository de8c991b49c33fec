"""Desk-scale fixture builders: named posets, graph paths, random universes.

The random universes are sublattices of the bipartition universe on a ground
set of size <= 4 (so never more than 8 unoriented separations), closed under
complement, union and intersection.  Their orders are weighted cut functions,
which keeps them submodular and exactly rational.  Everything is driven by an
explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import SeparationSystem, iter_mask, mask_of
from .errors import SystemValidationError
from .forbidden import ForbiddenFamily, _replacements
from .orderfn import OrderFunction
from .universe import Universe, _graph_sides, graph_universe, restrict_Sk, subset_universe


def ptriv_system() -> SeparationSystem:
    """The 4-element poset with r->, r<- < s->: s-> trivial, s<- co-trivial."""
    # handles: 0 = r->, 1 = r<-, 2 = s->, 3 = s<-
    leq = [(0, 2), (1, 2), (3, 1), (3, 0), (3, 2)]
    return SeparationSystem.from_relation(
        [1, 0, 3, 2], leq, labels=["r>", "r<", "s>", "s<"])


def chain2_system() -> SeparationSystem:
    """Two regular separations with r-> < s-> (and so s<- < r<-)."""
    # handles: 0 = r->, 1 = r<-, 2 = s->, 3 = s<-
    return SeparationSystem.from_relation(
        [1, 0, 3, 2], [(0, 2), (3, 1)], labels=["r>", "r<", "s>", "s<"])


def single_sep_system(small=False) -> SeparationSystem:
    leq = [(0, 1)] if small else []
    return SeparationSystem.from_relation([1, 0], leq, labels=["s>", "s<"])


def chain_universe(seps: int) -> Universe:
    """A totally ordered universe of ``seps`` regular separations.

    Handles 0 < 1 < ... < 2*seps-1 with the order-reversing involution
    h -> 2*seps-1-h.
    """
    n = 2 * seps
    up = [(1 << n) - (1 << h) for h in range(n)]  # h <= every handle from h on
    return Universe([n - 1 - h for h in range(n)], up, [f"c{h}" for h in range(n)])


def p3_universe():
    """The path a-b-c with the standard |A n B| order."""
    return graph_universe("abc", [("a", "b"), ("b", "c")])


def p4_universe():
    return graph_universe("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def graph_tangle_stars(uni, order, vertices, edges, k) -> ForbiddenFamily:
    """Stars of up to three separations of order < k whose A-sides cover the graph.

    Forbidding these in orientations of S_k gives the classical graph
    tangles of order k.  ``uni`` and ``order`` are ``graph_universe(vertices,
    edges)``; its handles are read as the sorted sides of the graph.
    """
    verts = sorted(vertices, key=str)
    sides = _graph_sides(verts, edges)
    if len(sides) != uni.n_ground:
        raise SystemValidationError("graph-universe-sides",
                                    witness=(len(sides), uni.n_ground))
    vi = {x: i for i, x in enumerate(verts)}
    full_v = (1 << len(verts)) - 1
    ends = sorted({(1 << vi[a]) | (1 << vi[b]) for a, b in edges})
    full_e = (1 << len(ends)) - 1
    # a star holds no degenerate separation
    sk = [h for h in restrict_Sk(uni, order, k).elements() if not uni.is_degenerate(h)]
    in_sk = mask_of(sk)
    # per handle: the vertices of its A-side and the edges inside it
    vmask = [a for a, _ in sides]
    emask = {h: sum(1 << i for i, e in enumerate(ends) if e & ~vmask[h] == 0)
             for h in sk}
    star = {x: uni._star_row(x) & in_sk for x in sk}
    out = set()
    for x in sk:  # x < y < z, carrying the covers of x and of {x, y}
        vx, ex = vmask[x], emask[x]
        if vx == full_v and ex == full_e:
            out.add(frozenset((x,)))
        ys = star[x] >> x + 1 << x + 1
        for y in iter_mask(ys):
            vy, ey = vx | vmask[y], ex | emask[y]
            if vy == full_v and ey == full_e:
                out.add(frozenset((x, y)))
            for z in iter_mask(ys & star[y] >> y + 1 << y + 1):
                if vy | vmask[z] == full_v and ey | emask[z] == full_e:
                    out.add(frozenset((x, y, z)))
    return ForbiddenFamily(out)


def eclipse_closure(system, family, order) -> ForbiddenFamily:
    """The least family that holds ``family`` and is closed under eclipsing.

    Each (sigma, x, y) of ``forbidden._replacements`` adds sigma - {x} + {y}:
    an element x of a family member sigma is replaced by each y that weakly
    eclipses it and for which sigma + y extends, until a round adds nothing.
    Only members that extend to a consistent orientation are replaced, and
    what they yield extends too.  The result is closed under eclipsing,
    hence rich.
    """
    sets, frontier = set(family), family
    while frontier.masks:
        frontier = ForbiddenFamily({(sigma - {x}) | {y} for sigma, x, y
                                    in _replacements(system, frontier, order)} - sets)
        sets |= set(frontier)
    return ForbiddenFamily(sets)


def singleton_family(system) -> ForbiddenFamily:
    """All singletons: rich, closed under eclipsing, and admits no tangles."""
    return ForbiddenFamily([{h} for h in system.elements()])


def _cut_value(side, weights) -> Fraction:
    """Total weight of the edges (u, w) that the side bitmask separates."""
    return sum((wt for (u, w), wt in weights.items()
                if ((side >> u) & 1) != ((side >> w) & 1)), Fraction(0))


def _cut_order(uni, weights, nv) -> OrderFunction:
    # bipartition handles encode the A-side bitmask
    return OrderFunction(uni, {s: _cut_value(s, weights) for s in uni.seps()})


def random_universes(count=100, seed=2024):
    """Seeded random sub-universes of the bipartition lattice with cut orders.

    Each is a standalone universe on 4 points (at most 8 separations) whose
    sides form a complement/union/intersection-closed family, with a random
    non-negative rational edge-cut order, which keeps it submodular.
    """
    rng = random.Random(seed)
    nv = 4
    full = (1 << nv) - 1
    out = []
    while len(out) < count:
        sides = {0, full}
        for _ in range(rng.randint(1, 5)):
            a = rng.randrange(1 << nv)
            sides.add(a)
            sides.add(full ^ a)
        changed = True
        while changed:
            changed = False
            for a in list(sides):
                for b in list(sides):
                    for c in (a | b, a & b):
                        if c not in sides:
                            sides.add(c)
                            sides.add(full ^ c)
                            changed = True
        uni = subset_universe(sides, range(1, nv + 1))
        weights = {}
        for u in range(nv):
            for w in range(u + 1, nv):
                weights[(u, w)] = Fraction(rng.randint(0, 4))
        sides_sorted = sorted(sides)
        out.append((uni, OrderFunction(
            uni, {s: _cut_value(sides_sorted[s], weights) for s in uni.seps()})))
    return out


def random_stars(system, rng) -> ForbiddenFamily:
    """Up to three random nonempty stars, drawn in at most 30 tries."""
    els = system.elements()
    stars = set()
    for _ in range(30):
        size = rng.choice((1, 1, 2, 3))
        cand = frozenset(rng.sample(els, min(size, len(els))))
        if system.is_star_mask(mask_of(cand)) and cand:
            stars.add(cand)
        if len(stars) >= 3:
            break
    return ForbiddenFamily(stars)


def random_star_family(system, order, rng) -> ForbiddenFamily:
    """A few random stars, eclipse-closed so the family is rich."""
    return eclipse_closure(system, random_stars(system, rng), order)
