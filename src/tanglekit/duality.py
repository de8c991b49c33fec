"""Tangle-tree duality: the dichotomy drivers, star families and shifting.

``dichotomy`` finds either a tangle of the system or an S-tree over the
family.  Its S-tree branch reduces the structure tree, converts it and
checks the conversion (``reduce`` and ``stree``), and only that branch loads
those modules.  The shifting machinery derives the richness that
``newduality`` needs from closure under shifting.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial

from .core import _orientations, iter_mask
from .errors import (
    BothOrNeither,
    HypothesisFailure,
    NonStarFamily,
    NonSubmodularOrder,
    PreconditionError,
    TheoremViolation,
    TrivialElementsPresent,
)
from .forbidden import _replacements, is_rich
from .orderfn import refine_injective, refines
from .tst import _check_thorough_preconditions, build_thorough_tst, displayed_tangles
from .universe import _universe_of, is_order_threshold_restriction, is_structurally_submodular


# -- star families and shifting ------------------------------------------------------


def _check_star_family(system, family):
    """NonStarFamily for a member of the system's handles that is no star.

    A member with a handle outside the system lies in no orientation of it,
    as in ``forbidden.extends``, so it is skipped, not checked.
    """
    for m in family.masks:
        if not m & ~system.members and not system.is_star_mask(m):
            raise NonStarFamily(f"family member {sorted(iter_mask(m))} is not a star")


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
    from .reduce import reduce_irreducible
    from .stree import convert_ftree, f_eff, stree_excludes_tangles, validate_conversion

    reduced = reduce_irreducible(build_thorough_tst(system, order, family), family, order)
    if displayed_tangles(reduced, family):
        raise BothOrNeither("no brute-force tangle, yet the reduced tree has "
                            "a tangle leaf")
    stree, cmap = convert_ftree(reduced, family)
    rep = validate_conversion(reduced, stree, cmap)
    if not rep.ok:
        raise TheoremViolation(f"conversion fails clauses {rep.failures}")
    feff = f_eff(system, family, order)
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
