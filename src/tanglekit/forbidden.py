"""Forbidden families, their structural predicates, and tangle enumeration.

A family is stored extensionally: a finite set of finite subsets of oriented
handles, and nothing else.  Everything here is written against the
brute-force oracles: richness and efficiency are exhaustive checks at desk
scale, and eclipsing-closure loops over the family through the extension
test ``extends``.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property

from .core import _orientations, iter_mask, mask_of, orientations_avoiding
from .universe import _universe_of, restrict_Sk

FAMILY_SCHEMA = "tanglekit/forbidden-v1"


class ForbiddenFamily:
    """An immutable collection of forbidden subsets of oriented handles."""

    def __init__(self, sets=()):
        self.sets = frozenset(frozenset(s) for s in sets)

    @cached_property
    def ordered(self) -> tuple:
        """The members by size, then by sorted handles: the witness order."""
        return tuple(sorted(self.sets, key=lambda s: (len(s), sorted(s))))

    def __iter__(self):
        return iter(self.ordered)

    def first_inside(self, members):
        """The first member in witness order that is a subset of ``members``, else None.

        The empty set is a member like any other, so test the result with
        ``is not None``.
        """
        return next((s for s in self.ordered if s <= members), None)

    def __len__(self):
        return len(self.sets)

    def __contains__(self, s):
        return frozenset(s) in self.sets

    def __eq__(self, other):
        return isinstance(other, ForbiddenFamily) and self.sets == other.sets

    def __hash__(self):
        return hash(self.sets)

    def extended(self, new_sets) -> "ForbiddenFamily":
        """The union of this family and ``new_sets``."""
        return ForbiddenFamily([*self.sets, *new_sets])

    def to_json(self) -> dict:
        return {"schema": FAMILY_SCHEMA, "sets": [sorted(s) for s in self.ordered]}

    @classmethod
    def from_json(cls, obj) -> "ForbiddenFamily":
        """The family of ``obj["sets"]``; any other key is ignored."""
        return cls(obj.get("sets", []))

    def __repr__(self):
        return f"<ForbiddenFamily of {len(self.sets)} sets>"


def avoids(tau, family: ForbiddenFamily) -> bool:
    """True iff no member of the family is a subset of tau."""
    return family.first_inside(frozenset(tau)) is None


# A consistent avoiding orientation of some S_k, with its threshold.
# elements: frozenset of handles; k: Fraction threshold, None means the full
# system; maximal: bool.
Tangle = namedtuple("Tangle", "elements k maximal", defaults=(None, False))


def enumerate_tangles(system, family):
    """All F-tangles of the member separations, in lexicographic handle order."""
    return orientations_avoiding(system, family.sets)


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
    records = _tangle_records(system, family, order)
    return [t._replace(maximal=not any(t.elements < u.elements for u in records))
            for t in records]


def _tangle_records(system, family, order):
    return [Tangle(elements=tau, k=k) for k in order_thresholds(system, order)
            for tau in enumerate_tangles(restrict_Sk(system, order, k), family)]


def tangles_preserved_under_refinement(system, family, o, o2):
    """Check that every tangle at any o-threshold is a tangle at some o2-threshold.

    Returns (ok, witness); the witness is (k, tangle) for the first o-tangle,
    in ``enumerate_tangles_in`` order, that no o2-threshold keeps.
    """
    kept = {t.elements for t in _tangle_records(system, family, o2)}
    lost = next(((t.k, t.elements) for t in _tangle_records(system, family, o)
                 if t.elements not in kept), None)
    return lost is None, lost


def maximal_tangles_in(system, family, order):
    return [t for t in enumerate_tangles_in(system, family, order) if t.maximal]


# -- standardness -------------------------------------------------------------


def is_standard(family, system):
    """{s<-} must be forbidden for every trivial s->; returns (ok, missing)."""
    missing = []
    for h in system.elements():
        if system.is_trivial(h) and frozenset({system.inv(h)}) not in family.sets:
            missing.append(frozenset({system.inv(h)}))
    return not missing, missing


def standardize(family, system) -> ForbiddenFamily:
    ok, missing = is_standard(family, system)
    if ok:
        return family
    return family.extended(missing)


# -- eclipsing and efficiency --------------------------------------------------


def _eclipsers(system, order, x: int, mask: int, weak=False):
    """The handles y of ``mask`` that eclipse x, ascending: y < x and y has a
    lower order than x (with ``weak``, no higher)."""
    num = order.num
    k = num[x]
    for y in iter_mask(system._below(mask, x)):
        if num[y] <= k if weak else num[y] < k:
            yield y


def efficiency_witness(system, order, sigma, tau, strong=False):
    """An (eclipsed, eclipsing) pair violating (strong) efficiency, or None.

    The witness is the least x, then the least y.
    """
    tau_mask = mask_of(tau)
    for x in sorted(sigma):
        for y in _eclipsers(system, order, x, tau_mask, weak=strong):
            return (x, y)
    return None


def is_efficient(system, order, sigma, tau) -> bool:
    return efficiency_witness(system, order, sigma, tau, strong=False) is None


def is_strongly_efficient(system, order, sigma, tau) -> bool:
    return efficiency_witness(system, order, sigma, tau, strong=True) is None


def extends(system, sigma) -> bool:
    """True iff sigma lies in some consistent orientation of the members.

    By the extension lemma (Diestel, *Abstract separation systems*, Order
    2018), a consistent partial orientation of a finite separation system S
    extends to a consistent orientation of S exactly when none of its
    elements is co-trivial in S.  So sigma extends when its handles are
    members, it holds no separation in both orientations (a degenerate one
    owns one handle), it is consistent, and no element is co-trivial.
    """
    mask = mask_of(sigma)
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
    live = [mask_of(s) for s in family.sets
            if (not mask_of(s) & ~system.members if layered else extends(system, s))]
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
        return next((tau for tau in walk if any(
            not m & ~t for t in (mask_of(tau),) for m in members(tau))), None)

    # the walk yields prefixes at the layer ends, of every order value or of S
    # alone; a member settled lower lay in the prefix read at its own end
    ends = sorted(end for end, _ in block.values()) if layered else [len(placed)]
    layer = None
    while ends and (tau := first_holding(_orientations(system, prune, placed, ends),
                                         lambda tau: top[len(tau)])):
        ends = [d for d in ends if d < len(tau)]
        layer = system.restrict(block[num[placed[len(tau) - 1]]][1])
    if layer is None:
        return True, None
    return False, first_holding(_orientations(layer, prune), lambda tau: live)


def _replacements(system, family, order):
    """(sigma, x, y) in witness order: each member sigma, x in sigma, and y
    weakly eclipsing x such that sigma + y extends.  A check over every
    consistent orientation tau reads tau only through sigma + y <= tau.
    Once sigma extends, sigma + y extends iff the member y does not clash
    with sigma, so only y is tested."""
    for sigma in family:
        if not extends(system, sigma):
            continue
        mask = mask_of(sigma)
        for x in sorted(sigma):
            for y in _eclipsers(system, order, x, system.members, weak=True):
                if not _clashes(system, mask, y):
                    yield sigma, x, y


def closed_under_eclipsing(system, family, order):
    """Replacement closure: sigma - x + y is a member for every (sigma, x, y)
    of ``_replacements``; witness (sigma, x, y) of the first failure."""
    for sigma, x, y in _replacements(system, family, order):
        if (sigma - {x}) | {y} not in family.sets:
            return False, (sigma, x, y)
    return True, None


def set_geq(system, sigma, sigma2) -> bool:
    """Lifted ordering on sets: every element of sigma has an image below it."""
    return all(any(system.leq(y, x) for y in sigma2) for x in sigma)


def f_eff(system, family, order):
    """Members efficient in their own closure; the others reported.

    Returns (subfamily, report) where report lists (member, reason) pairs for
    everything dropped: "outside-system" for a member with a handle that is
    no member of the system (it lies in no orientation of it, as in
    ``extends``), "inconsistent", and "eclipsed-in-closure".
    """
    keep, report = [], []
    for sigma in family.sets:
        if mask_of(sigma) & ~system.members:
            report.append((sigma, "outside-system"))
        elif not system.is_consistent(sigma):
            report.append((sigma, "inconsistent"))
        elif is_efficient(system, order, sigma, system.closure(sigma)):
            keep.append(sigma)
        else:
            report.append((sigma, "eclipsed-in-closure"))
    return ForbiddenFamily(keep), report


# -- generators ---------------------------------------------------------------


def robustness_family(uni, order, target=None) -> ForbiddenFamily:
    """The triples {r->, r<- v s->, r<- v s<-} with both joins below |r|.

    r-> ranges over oriented members, s over all unoriented separations of
    the universe; only triples all of whose members lie in the target system
    are kept, and triples touching a degenerate separation are dropped.
    """
    target = uni if target is None else target
    g = _universe_of(uni, "generator R")
    val = order.num
    seps = uni.seps()
    out = set()
    for r in uni.elements():
        if not target.contains(r):
            continue
        ri, vr = uni.inv(r), val[r]
        for s in seps:
            a = g.join(ri, s)
            b = g.join(ri, uni.inv(s))
            if not (val[a] < vr and val[b] < vr):
                continue
            triple = frozenset({r, a, b})
            if any(uni.is_degenerate(x) for x in triple):
                continue
            if all(target.contains(x) for x in triple):
                out.add(triple)
    return ForbiddenFamily(out)


def profile_family(uni, target=None) -> ForbiddenFamily:
    """The profile triples {r->, s->, r<- v s<-} over all oriented pairs."""
    target = uni if target is None else target
    g = _universe_of(uni, "generator profiles")
    out = set()
    els = uni.elements()
    for i, r in enumerate(els):
        if not target.contains(r):
            continue
        for s in els[i:]:
            if not target.contains(s):
                continue
            third = g.join(uni.inv(r), uni.inv(s))
            triple = frozenset({r, s, third})
            if any(uni.is_degenerate(x) for x in triple):
                continue
            if target.contains(third):
                out.add(triple)
    return ForbiddenFamily(out)
