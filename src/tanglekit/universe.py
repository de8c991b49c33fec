"""Universes: lattice-equipped separation systems, and concrete generators.

Join and meet are fixed by the poset: r v s is the least upper bound of r
and s, r ^ s the greatest lower bound.  Generators build only the order, and
a universe derives both tables from it when they are first read, and
given tables pass only if they equal the derived ones.  Two fixture
conventions coexist (both are valid separation systems):

* bipartition universes order by first-side inclusion, (A,B) <= (C,D) iff
  A is a subset of C, so join/meet follow as union/intersection of A-sides;
* graph universes order by (A,B) <= (C,D) iff A contains C and B is contained
  in D, making the (V,A) separations the small ones, with the standard order
  function |A n B|; join/meet follow as (A n C, B u D) and (A u C, B n D).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice
from operator import itemgetter

from .core import SeparationSystem, transpose
from .errors import BoundExceeded, PreconditionError, SystemValidationError

UNIVERSE_SCHEMA = "tanglekit/universe-v1"


class Universe(SeparationSystem):
    """A ground separation system whose poset is a lattice (total join/meet
    tables); its views are the ``SeparationSystem``s of :meth:`restrict`.

    Both tables are derived from the poset the first time either is read,
    and kept; ``ingest.universe_from_json`` accepts given tables only if
    they are the derived ones.  A pair without a least upper (greatest
    lower) bound raises SystemValidationError at the first read, so a poset
    that is no lattice builds, but none of its tables reads.

    Only the generators that know their side masks (``graph_universe``,
    ``subset_universe``) pass ``SeparationSystem``'s ``down``.
    """

    @cached_property
    def _tables(self):
        """(join, meet): a pure function of the poset, so a concurrent first
        read may derive it twice, with equal results."""
        return _lattice_tables(self._up, self._inv)

    def join(self, a: int, b: int) -> int:
        return self._tables[0][a][b]

    def meet(self, a: int, b: int) -> int:
        return self._tables[1][a][b]

    def to_json(self) -> dict:
        obj = super().to_json()
        obj["schema"] = UNIVERSE_SCHEMA
        n = self.n_ground
        join, meet = self._tables
        obj["join"] = [[a, b, join[a][b]] for a in range(n) for b in range(a, n)]
        obj["meet"] = [[a, b, meet[a][b]] for a in range(n) for b in range(a, n)]
        return obj


def _lattice_tables(up, inv):
    """Join and meet tables derived from the up-sets and the involution.

    r v s is the element whose up-set is up[r] & up[s] (the least upper
    bound), found for s >= r and mirrored; a pair without one raises
    SystemValidationError("join-least-upper-bound").  Meets follow from
    (r v s)* = r* ^ s*, as the involution reverses the order.
    """
    handle = {m: h for h, m in enumerate(up)}.get
    join = []
    for a, ua in enumerate(up):
        # one tuple per row, no partial rows: fewer heap holes, lower peak RSS
        row = tuple(chain(map(itemgetter(a), join),
                          map(handle, map(ua.__and__, islice(up, a, None)))))
        if None in row:
            raise SystemValidationError("join-least-upper-bound",
                                        witness=(a, row.index(None)))
        join.append(row)
    meet = [_pick(inv, _pick(join[r], inv)) for r in inv]  # sized once, like join
    return tuple(join), tuple(meet)


def _pick(seq, indices):
    """``(seq[i] for i in indices)`` as a tuple, at C speed."""
    if len(indices) < 2:  # itemgetter of one index returns the item itself
        return tuple(seq[i] for i in indices)
    return itemgetter(*indices)(seq)


# -- generators --------------------------------------------------------------


def _side_names(names):
    """The name "{x,y}" of every side, indexed by its bitmask over ``names``."""
    parts = [[]]
    for x in map(str, names):
        parts += [p + [x] for p in parts]
    return ["{" + ",".join(p) + "}" for p in parts]


def _supersets(sides, width):
    """(sup, sub): two tables over every vertex mask m below 1 << width.

    Handle i has the side ``sides[i]``.  sup[m] is the mask of the handles
    whose sides contain m, sub[m] of those whose sides miss m.  Each entry is
    the entry for m without its highest vertex v, ANDed with the mask of the
    handles holding v (sup) or with its complement (sub); the holder masks
    are one n x width transpose of the sides.  A generator that knows its
    side masks reads every up-set and down-set off these 2^width entries, so
    its down-sets, the transpose of its up-sets, need no n x n transpose.
    """
    everything = (1 << len(sides)) - 1
    sup, sub = [everything], [everything]
    for holders in transpose(sides, width):
        # the masks with v as their highest vertex are those below it plus v
        sup += [s & holders for s in sup]
        sub += [s & ~holders for s in sub]
    return sup, sub


def subset_universe(sides, names) -> Universe:
    """The oriented bipartitions (A, V \\ A) whose first sides A are in ``sides``.

    Each side is a bitmask over the ground set ``names``.  (A,B) <= (C,D) iff
    A is a subset of C.  ``sides`` must be closed under complement, union and
    intersection: otherwise the poset is no lattice, and the first read of a
    join or meet table raises SystemValidationError.
    """
    full = (1 << len(names)) - 1
    sides = sorted(sides)
    index = {a: i for i, a in enumerate(sides)}
    sup, sub = _supersets(sides, len(names))
    side_names = _side_names(names)
    # up(A) holds the sides containing A, down(A) those missing V \ A
    return Universe([index[full ^ a] for a in sides], [sup[a] for a in sides],
                    [side_names[a] + "|" + side_names[full ^ a] for a in sides],
                    down=[sub[full ^ a] for a in sides])


def bipartition_universe(ground_set, bound: int = 6) -> Universe:
    """All oriented bipartitions (A, V \\ A) of a finite set.

    Handle i encodes A as the subset with membership bits i.  Labels name the
    points by ``str``, so two points with one name raise SystemValidationError.
    """
    v = sorted(ground_set, key=str)
    for a, b in zip(v, v[1:]):
        if str(a) == str(b):
            raise SystemValidationError("ground-set-distinct", witness=a)
    if len(v) > bound:
        raise BoundExceeded(f"ground set of {len(v)} exceeds bound {bound}")
    return subset_universe(range(1 << len(v)), v)


def _graph_sides(verts, edges):
    """The sides (A, B) of every separation of a graph, sorted, as bitmasks
    over the vertex list ``verts``.

    Each vertex set X is A \\ B once.  No edge may join X to B \\ A, so
    B \\ A ranges over the subsets of the vertices neither in X nor adjacent
    to it, and A n B is what is left.
    """
    bit = {x: 1 << i for i, x in enumerate(verts)}
    nbr = dict.fromkeys((1 << i for i in range(len(verts))), 0)
    for a, b in edges:
        nbr[bit[a]] |= bit[b]
        nbr[bit[b]] |= bit[a]
    full = (1 << len(verts)) - 1
    # shut[x]: x and its neighbours, from shut[x less its lowest bit]
    shut = [0]
    sides = []
    for x in range(full + 1):
        if x:
            low = x & -x
            shut.append(shut[x ^ low] | low | nbr[low])
        free = full ^ shut[x]
        b, y = full ^ x, free
        while True:  # every submask y of free, by the (y - 1) & free walk
            sides.append((full ^ y, b))
            if not y:
                break
            y = (y - 1) & free
    sides.sort()
    return sides


def graph_universe(vertices, edges, bound: int = 8):
    """All separations (A,B) of a graph, with the standard order |A n B|.

    A separation is a pair with A u B = V and no edge between A \\ B and
    B \\ A.  Returns (universe, order).  Includes the small (V,A) separations
    and the degenerate (V,V).  The vertices are sorted by name, and handle i
    is the i-th of the sides (A, B) as bitmasks over them, in ascending order.
    """
    from .orderfn import OrderFunction

    verts = sorted(vertices, key=str)
    if len(verts) > bound:
        raise BoundExceeded(f"{len(verts)} vertices exceed bound {bound}")
    sides = _graph_sides(verts, edges)
    index = {ab: i for i, ab in enumerate(sides)}
    inv = [index[(b, a)] for a, b in sides]
    # (c, d) >= (a, b) iff d contains b and c misses V \ a; (c, d) <= (a, b)
    # iff c contains a and d misses V \ b
    full = (1 << len(verts)) - 1
    sup_a, sub_a = _supersets([a for a, _ in sides], len(verts))
    sup_b, sub_b = _supersets([b for _, b in sides], len(verts))
    up = [sup_b[b] & sub_a[full ^ a] for a, b in sides]
    down = [sup_a[a] & sub_b[full ^ b] for a, b in sides]
    names = _side_names(verts)
    uni = Universe(inv, up, [names[a] + "|" + names[b] for a, b in sides], down=down)
    # the order |A & B| is the same for (A, B) and (B, A)
    return uni, OrderFunction._of_num(uni, [(a & b).bit_count() for a, b in sides], 1)


def restrict_Sk(system: SeparationSystem, order, k) -> SeparationSystem:
    """The subsystem of separations of order < k."""
    num, cut = order.num, order.cut(k)
    return system.restrict(h for h in system.elements() if num[h] < cut)


def is_order_threshold_restriction(system, order) -> bool:
    """True iff every member has a lower order than every non-member of the ground."""
    num = order.num
    inside = [num[h] for h in system.elements()]
    outside = [num[h] for h in system.ground.elements() if not system.contains(h)]
    return not inside or not outside or max(inside) < min(outside)


# -- submodularity -----------------------------------------------------------


def _universe_of(system, what):
    """The universe ``system`` lives in.  A plain separation system has no joins
    or meets: ``what``, the caller that reads them, stops with PreconditionError."""
    g = system.ground
    if not isinstance(g, Universe):
        raise PreconditionError(f"{what} needs a universe (joins and meets)")
    return g


def is_submodular(uni, order):
    """u(r v s) + u(r ^ s) <= u(r) + u(s) over all oriented pairs; witness on failure."""
    g = _universe_of(uni, "submodularity")
    els = uni.elements()
    val = order.num
    for i, a in enumerate(els):
        join, meet, va = g._tables[0][a], g._tables[1][a], val[a]
        for b in els[i:]:
            if val[join[b]] + val[meet[b]] > va + val[b]:
                return False, (a, b)
    return True, None


def is_structurally_submodular(uni, order):
    """u(r v s) <= u(r) or u(r ^ s) <= u(s), over all ordered oriented pairs."""
    g = _universe_of(uni, "structural submodularity")
    els = uni.elements()
    val = order.num
    for a in els:
        join, meet, va = g._tables[0][a], g._tables[1][a], val[a]
        for b in els:
            if not (val[join[b]] <= va or val[meet[b]] <= val[b]):
                return False, (a, b)
    return True, None
