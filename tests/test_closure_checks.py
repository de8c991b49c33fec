"""The extension test and the two closure checks, against brute force.

``forbidden.extends`` decides whether a set of handles lies in some
consistent orientation without walking any.  The closure checks loop over
the family through it.  ``oracles.py`` keeps the walks over every consistent
orientation that the checks replace.
"""

import random
from functools import lru_cache
from itertools import combinations

from oracles import (
    closed_under_eclipsing,
    naive_closed_under_eclipsing,
    naive_closed_under_shifting,
    naive_consistent_orientations,
)
from test_lattice_rule import LADDER

from tanglekit import core, duality, forbidden
from tanglekit.core import mask_of
from tanglekit.duality import closed_under_shifting, emulates, shift_star
from tanglekit.fixtures import (
    chain2_system,
    eclipse_closure,
    graph_tangle_stars,
    p3_universe,
    ptriv_system,
    random_star_family,
    random_stars,
    random_universes,
    single_sep_system,
    singleton_family,
)
from tanglekit.forbidden import (
    ForbiddenFamily,
    extends,
    is_rich,
    robustness_family,
    standardize,
)
from tanglekit.orderfn import refine_injective
from tanglekit.universe import graph_universe, restrict_Sk


@lru_cache(maxsize=None)
def ladder(name):
    n, edges = LADDER[name]
    return graph_universe(range(n), edges)


@lru_cache(maxsize=None)
def randoms():
    return random_universes()


def extending_sets(system, size):
    """Every set of at most ``size`` handles inside some brute-force orientation."""
    return {frozenset(c) for tau in naive_consistent_orientations(system)
            for r in range(size + 1) for c in combinations(sorted(tau), r)}


def assert_extends_by_brute_force(system, size):
    """``extends`` on every set of up to ``size`` member handles, and on each
    handle of the ground outside the members; returns the number of sets."""
    want = extending_sets(system, size)
    sets = [frozenset(c) for r in range(size + 1)
            for c in combinations(system.elements(), r)]
    for sigma in sets:
        assert extends(system, mask_of(sigma)) == (sigma in want), sorted(sigma)
    outside = [h for h in range(system.n_ground) if not system.contains(h)]
    for h in outside:
        assert not extends(system, mask_of({h})), h
    return len(sets) + len(outside)


def ladder_systems(most):
    """S_k of each ladder graph at k = 1..3, with at most ``most`` separations."""
    return [restrict_Sk(u, o, k) for u, o in map(ladder, LADDER) for k in (1, 2, 3)
            if len(restrict_Sk(u, o, k)) <= most]


def test_extends_is_the_brute_force_on_every_small_set():
    hand_built = [ptriv_system(), chain2_system(), single_sep_system(),
                  single_sep_system(small=True)]
    checked = sum(assert_extends_by_brute_force(s, 4) for s in hand_built)
    checked += sum(assert_extends_by_brute_force(u, 4) for u, _ in randoms())
    checked += sum(assert_extends_by_brute_force(s, 3) for s in ladder_systems(24))
    p3, _ = p3_universe()
    assert any(p3.is_degenerate(h) for h in p3.elements())
    checked += assert_extends_by_brute_force(p3, 3)
    assert checked >= 140_000


def test_extends_rejects_both_orientations_and_cotrivial_elements():
    p3, _ = p3_universe()
    for h in p3.elements():
        i = p3.inv(h)
        assert extends(p3, mask_of({h, i})) == (h == i and extends(p3, mask_of({h})))
        if p3.is_cotrivial(h):
            assert not extends(p3, mask_of({h}))
    assert any(p3.is_cotrivial(h) for h in p3.elements())


# -- both closure checks against the walks over every orientation ----------------


def planted_singleton(system, index):
    """{h} for the ``index``-th non-degenerate, non-trivial member from the top."""
    hs = [h for h in system.elements()
          if not system.is_degenerate(h) and not system.is_trivial(h)]
    return ForbiddenFamily([{hs[-1 - index % len(hs)]}] if hs else [])


def ladder_cases():
    for name in LADDER:
        (n, edges), (u, o) = LADDER[name], ladder(name)
        o2 = refine_injective(o)
        for k in (1, 2, 3):
            system = restrict_Sk(u, o, k)
            stars = graph_tangle_stars(u, o, range(n), edges, k)
            with_r = stars.extended(robustness_family(o2, target=system))
            for fam in (stars, standardize(stars, system), standardize(with_r, system),
                        planted_singleton(system, 0)):
                yield f"{name}-k{k}", system, fam, o2


def random_cases():
    rng = random.Random(18)
    for i, (u, o) in enumerate(randoms()):
        o2 = refine_injective(o)
        families = [random_star_family(u, o, rng), singleton_family(u),
                    standardize(robustness_family(o2, target=u), u),
                    planted_singleton(u, 0), planted_singleton(u, 1)]
        for order in (o, o2):
            for fam in families:
                yield f"random{i}", u, fam, order


@lru_cache(maxsize=None)
def verdicts():
    """Each case's name, system, family, order and the four verdicts."""
    out = []
    for name, system, fam, order in list(ladder_cases()) + list(random_cases()):
        star = all(system.is_star_mask(mask_of(s)) for s in fam)
        ecl = (closed_under_eclipsing(system, fam, order),
               naive_closed_under_eclipsing(system, fam, order))
        shift = ((closed_under_shifting(system, fam, order),
                  naive_closed_under_shifting(system, fam, order)) if star else None)
        out.append((name, system, fam, order, ecl, shift))
    return out


@lru_cache(maxsize=None)
def orientations_of(system):
    return naive_consistent_orientations(system)


def lies_in_an_orientation(system, handles):
    return any(handles <= tau for tau in orientations_of(system))


def test_closed_under_eclipsing_is_the_walk_over_every_orientation():
    failures = 0
    for name, system, fam, order, (got, want), _ in verdicts():
        assert got[0] == want[0], (name, got, want)
        if got[0]:
            continue
        failures += 1
        sigma, x, y = got[1]
        assert sigma in fam and x in sigma and system.lt(y, x), name
        assert order.num[y] <= order.num[x], name
        assert lies_in_an_orientation(system, sigma | {y}), name
        assert (sigma - {x}) | {y} not in fam, name
    assert len(verdicts()) >= 1_100
    assert failures >= 300


def test_closed_under_shifting_is_the_walk_over_every_orientation():
    cases = failures = 0
    for name, system, fam, order, _, shift in verdicts():
        if shift is None:
            continue
        got, want = shift
        assert got[0] == want[0], (name, got, want)
        cases += 1
        if got[0]:
            continue
        failures += 1
        sigma, s, r = got[1]
        assert sigma in fam and s in sigma and system.lt(r, s), name
        assert order.num[r] <= order.num[s] and emulates(system, r, s), name
        assert lies_in_an_orientation(system, sigma | {r}), name
        assert shift_star(system, r, s, sigma) not in fam, name
    assert cases >= 1_000
    assert failures >= 200


# -- eclipse_closure, the fixture, by the same replacement rule -----------------


def test_eclipse_closure_adds_only_extending_members_and_is_closed():
    # 1,000 families fixed by their seeds: up to three stars drawn by
    # random_stars from Random(f"{i}:{j}"), then closed as random_star_family does
    grown = 0
    for i, (u, o) in enumerate(randoms()):
        for j in range(10):
            stars = random_stars(u, random.Random(f"{i}:{j}"))
            fam = eclipse_closure(u, stars, o)
            added = fam.sets - stars.sets
            assert all(extends(u, mask_of(s)) for s in added), (i, j)
            assert closed_under_eclipsing(u, fam, o) == (True, None), (i, j)
            grown += bool(added)
    assert grown >= 500  # 570 seen


# -- no orientation search where no member can lie in an orientation ------------


def test_no_orientation_search_when_no_member_extends(monkeypatch):
    # P6 with no --k: none of the 82 standardized k=2 stars lies in any
    # consistent orientation, so the verdicts need no search at all
    n, edges = LADDER["P6"]
    u, o = ladder("P6")
    fam = standardize(graph_tangle_stars(u, o, range(n), edges, 2), u)
    assert len(fam) == 82
    assert not any(extends(u, mask_of(s)) for s in fam)
    searches = []

    def counted(*args):
        searches.append(args)
        return iter(())

    for module in (core, forbidden, duality):
        monkeypatch.setattr(module, "_orientations", counted)
    o2 = refine_injective(o)
    assert is_rich(u, fam, o2) == (True, None)
    assert closed_under_eclipsing(u, fam, o2) == (True, None)
    assert closed_under_shifting(u, fam, o2) == (True, None)
    assert searches == []


def test_richness_walk_starts_when_a_member_extends(monkeypatch):
    # the counter is live: with members that extend, is_rich does search
    n, edges = LADDER["P4"]
    u, o = ladder("P4")
    system = restrict_Sk(u, o, 2)
    fam = standardize(graph_tangle_stars(u, o, range(n), edges, 2), system)
    assert any(extends(system, mask_of(s)) for s in fam)
    searches, search = [], forbidden._orientations

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(forbidden, "_orientations", counted)
    is_rich(system, fam, refine_injective(o))
    assert len(searches) == 1
