"""Forbidden families, their structural predicates, and tangle enumeration.

A family is stored extensionally: the masks of finite sets of oriented
handles, and nothing else.  Everything here is written against the
brute-force oracles: richness and efficiency are exhaustive checks at desk
scale, and the replacements of ``_replacements`` loop over the family
through the extension test ``extends``.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from .core import _orientations, iter_mask, mask_of, orientations_avoiding
from .universe import _universe_of, restrict_Sk

FAMILY_SCHEMA = "tanglekit/forbidden-v1"


class ForbiddenFamily:
    """An immutable collection of forbidden subsets of oriented handles, held
    as masks; ``ordered`` and iteration report them as frozensets."""

    def __init__(self, sets=()):
        self._masks = frozenset(map(mask_of, sets))

    @cached_property
    def masks(self) -> tuple:
        """The member masks by size, then by sorted handles: the witness order."""
        return tuple(sorted(self._masks, key=lambda m: (m.bit_count(), [*iter_mask(m)])))

    @cached_property
    def ordered(self) -> tuple:
        """The members as frozensets, in witness order."""
        return tuple(frozenset(iter_mask(m)) for m in self.masks)

    def __iter__(self):
        return iter(self.ordered)

    def first_inside(self, mask):
        """The first member mask in witness order inside ``mask``, else None.
        The empty set may be a member, with mask 0: test with ``is not None``."""
        return next((m for m in self.masks if not m & ~mask), None)

    def __contains__(self, s):
        return mask_of(s) in self._masks

    def extended(self, other) -> "ForbiddenFamily":
        """The union of this family and the family ``other``."""
        out = ForbiddenFamily()
        out._masks = self._masks | other._masks
        return out

    def to_json(self) -> dict:
        return {"schema": FAMILY_SCHEMA, "sets": [[*iter_mask(m)] for m in self.masks]}

    @classmethod
    def from_json(cls, obj) -> "ForbiddenFamily":
        """The family of ``obj["sets"]``; any other key is ignored."""
        return cls(obj.get("sets", []))


def avoids(tau: int, family: ForbiddenFamily) -> bool:
    """True iff no member of the family lies inside the mask tau."""
    return family.first_inside(tau) is None


# A consistent avoiding orientation of some S_k, with its threshold.
# elements: frozenset of handles; k: Fraction threshold, None means the full
# system; maximal: bool.
Tangle = namedtuple("Tangle", "elements k maximal", defaults=(None, False))


def enumerate_tangles(system, family):
    """All F-tangles of the member separations, in lexicographic handle order."""
    return orientations_avoiding(system, family.masks)


def order_thresholds(system, order):
    """One threshold per distinct order value, plus a sentinel above the max."""
    vals = sorted({order.num[s] for s in system.seps()})
    return [Fraction(v, order.den) for v in vals + [vals[-1] + order.den if vals else 0]]


def enumerate_tangles_in(system, family, order):
    """The F-tangles of every S_k, with maximality flags.

    A tangle is maximal when no tangle of any other threshold strictly
    contains it (as a set of oriented separations).  No tangle repeats: each
    S_k holds a separation the S_k before it lacks, and a tangle of S_k
    orients all of S_k.
    """
    records = [Tangle(elements=tau, k=k) for k in order_thresholds(system, order)
               for tau in enumerate_tangles(restrict_Sk(system, order, k), family)]
    return [t._replace(maximal=not any(t.elements < u.elements for u in records))
            for t in records]


# -- standardness -------------------------------------------------------------


def is_standard(family, system):
    """{s<-} must be forbidden for every trivial s->; returns (ok, missing)."""
    missing = [frozenset({system.inv(h)}) for h in system.elements()
               if system.is_trivial(h) and {system.inv(h)} not in family]
    return not missing, missing


def standardize(family, system) -> ForbiddenFamily:
    _, missing = is_standard(family, system)
    return family.extended(ForbiddenFamily(missing)) if missing else family


# -- eclipsing and efficiency --------------------------------------------------


def _eclipsers(system, order, x: int, mask: int, weak=False):
    """The handles y of ``mask`` that eclipse x, ascending: y < x and y has a
    lower order than x (with ``weak``, no higher)."""
    num = order.num
    k = num[x]
    for y in iter_mask(system._below(mask, x)):
        if num[y] <= k if weak else num[y] < k:
            yield y


def is_efficient(system, order, sigma: int, tau: int) -> bool:
    """No handle of the mask ``tau`` eclipses one of the mask ``sigma``."""
    return all(next(_eclipsers(system, order, x, tau), None) is None
               for x in iter_mask(sigma))


def extends(system, mask: int) -> bool:
    """True iff the set ``mask`` lies in some consistent orientation of the members.

    By the extension lemma (Diestel, *Abstract separation systems*, Order
    2018), a consistent partial orientation of a finite separation system S
    extends to a consistent orientation of S exactly when none of its
    elements is co-trivial in S.  So sigma extends when its handles are
    members, it holds no separation in both orientations (a degenerate one
    owns one handle), it is consistent, and no element is co-trivial.
    """
    return not mask & ~system.members and not any(
        _clashes(system, mask, h) for h in iter_mask(mask))


def _clashes(system, mask, h) -> bool:
    """True iff h and the handles of ``mask`` lie in no consistent orientation
    for a reason of h's own: h* is in ``mask`` (h not degenerate), some handle
    of ``mask`` points away from h, or h is co-trivial.  ``incompat`` is
    symmetric across distinct separations, so the middle test is one row."""
    i = system._inv[h]
    return bool(i != h and mask >> i & 1 or system._incompat[h] & mask
                or system.is_cotrivial(h))


def is_rich(system, family, order, layered=False):
    """(True, None), or (False, tau) for the first counterexample tau in
    ``_orientations`` order: tau holds a member, and every member inside has
    an element weakly eclipsed in tau.  With ``layered``, tau is that of the
    smallest failing layer S_j (one per ``order_thresholds`` value); it
    orients the layer's len(tau) separations.

    One pruned walk: forbidding P_s = s + {y* : y weakly eclipses some x of
    s} prunes exactly the orientations with a strongly efficient member s,
    in every layer that holds s (README, "Richness in one pruned walk").
    """
    num, inv = order.num, system._inv
    placed = sorted(system.seps(), key=lambda s: (num[s], s))
    block, reach = {}, 0  # order value -> (its layer's end, the members placed by then)
    for end, s in enumerate(placed, 1):
        block[num[s]] = end, (reach := reach | 1 << s | 1 << inv[s])
    # layered, a member co-trivial in S may extend in a lower layer
    live = [m for m in family.masks
            if (not m & ~system.members if layered else extends(system, m))]
    if not live:
        return True, None
    prune, top = [], defaultdict(list)  # top: layer end -> the members settled there
    for m in live:
        p, end, both = m, 0, 0
        for x in iter_mask(m):  # a weak eclipser of x has order at most x's
            x_end, lower = block[num[x]]
            inverses = system._up[inv[x]] & lower & ~(1 << inv[x])
            # a degenerate weak eclipser, or one whose inverse weakly eclipses
            # x too, leaves a weak eclipser in every orientation: no P_s
            both |= system._down[x] & lower & ~(1 << x) & inverses
            p, end = p | inverses, max(end, x_end)
        if not both:
            prune.append(p)
        top[end if layered else len(placed)].append(m)

    def first_holding(walk, members):
        return next((tau for tau in walk if any(not m & ~tau for m in members(tau))), None)

    # the walk yields prefixes at the layer ends, of every order value or of S
    # alone; a member settled lower lay in the prefix read at its own end
    ends = sorted(end for end, _ in block.values()) if layered else [len(placed)]
    layer = None
    while ends and (tau := first_holding(_orientations(system, prune, placed, ends),
                                         lambda tau: top[tau.bit_count()])):
        depth = tau.bit_count()  # one handle per separation placed
        ends = [d for d in ends if d < depth]
        layer = system.restrict(block[num[placed[depth - 1]]][1])
    if layer is None:
        return True, None
    return False, frozenset(iter_mask(first_holding(_orientations(layer, prune),
                                                    lambda tau: live)))


def _replacements(system, family, order):
    """(sigma, x, y) in witness order: each member sigma, x in sigma, and y
    weakly eclipsing x such that sigma + y extends.  A check over every
    consistent orientation tau reads tau only through sigma + y <= tau.
    Once sigma extends, sigma + y extends iff the member y does not clash
    with sigma, so only y is tested."""
    for sigma, mask in zip(family, family.masks):
        if not extends(system, mask):
            continue
        for x in iter_mask(mask):
            for y in _eclipsers(system, order, x, system.members, weak=True):
                if not _clashes(system, mask, y):
                    yield sigma, x, y


def f_eff(system, family, order) -> ForbiddenFamily:
    """The members efficient in their own closure.  A member with a handle
    that is no member of the system lies in no orientation of it, as in
    ``extends``, and is dropped, as is an inconsistent one."""
    return ForbiddenFamily(
        sigma for sigma, mask in zip(family, family.masks)
        if not mask & ~system.members and system.is_consistent_mask(mask)
        and is_efficient(system, order, mask, system.closure_mask(mask)))


# -- generators ---------------------------------------------------------------


@lru_cache(maxsize=1)
def robustness_family(order, target) -> ForbiddenFamily:
    """The triples {r->, r<- v s->, r<- v s<-} with both joins below |r|.

    r-> ranges over the oriented members of ``target``, s over all unoriented
    separations of the universe U it lives in; only triples all of whose
    members lie in the target system are kept, and triples touching a
    degenerate separation are dropped.  r<- v s is read off the join row of r<-.

    The last family built is kept, keyed on the identity of ``order`` and
    ``target``: a run's ``load_family`` and ``check_tot_hypotheses`` pass the
    same pair, so the R it generates is the R it tests, built once.
    """
    g = _universe_of(target, "generator R")
    val, inv, members, seps = order.num, g._inv, target.members, g.seps()
    out = []
    for r in target.elements():
        if inv[r] == r:
            continue
        row, vr = g._tables[0][inv[r]], val[r]
        for s in seps:
            a, b = row[s], row[inv[s]]
            if (val[a] < vr and val[b] < vr and members >> a & 1 and members >> b & 1
                    and inv[a] != a and inv[b] != b):
                out.append((r, a, b))
    return ForbiddenFamily(out)


def profile_family(target) -> ForbiddenFamily:
    """The profile triples {r->, s->, r<- v s<-} inside ``target``."""
    g = _universe_of(target, "generator profiles")
    els = target.elements()
    out = []
    for i, r in enumerate(els):
        for s in els[i:]:
            third = g.join(g.inv(r), g.inv(s))
            if target.contains(third) and not any(map(g.is_degenerate, (r, s, third))):
                out.append((r, s, third))
    return ForbiddenFamily(out)
