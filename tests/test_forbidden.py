"""Forbidden families: tangle enumeration, richness, generators, eclipsing."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import (closed_under_eclipsing, constant_order, naive_avoids, naive_is_rich,
                     naive_tangles)
from test_lattice_rule import LADDER
from tanglekit import forbidden
from tanglekit.core import SeparationSystem, iter_mask, mask_of
from tanglekit.fixtures import (
    eclipse_closure,
    graph_tangle_stars,
    ptriv_system,
    random_stars,
    random_universes,
    singleton_family,
)
from tanglekit.forbidden import (
    ForbiddenFamily,
    _eclipsers,
    avoids,
    enumerate_tangles,
    enumerate_tangles_in,
    extends,
    f_eff,
    is_efficient,
    is_rich,
    is_standard,
    order_thresholds,
    profile_family,
    robustness_family,
    standardize,
)
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.universe import bipartition_universe, graph_universe, restrict_Sk


def by_label(u):
    return {u.label(h): h for h in u.elements()}


def p3_family(p3, k=2):
    u, o = p3
    F = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], k)
    return standardize(F, restrict_Sk(u, o, k))


# -- the witness order ---------------------------------------------------------


def first_member_inside(F, members):
    """``F.first_inside`` on the mask of ``members``, read back as a set."""
    hit = F.first_inside(mask_of(members))
    return None if hit is None else frozenset(iter_mask(hit))


def test_first_inside_is_the_least_member_by_size_then_handles(p3):
    u, o = p3
    F = p3_family(p3).extended(ForbiddenFamily([frozenset()]))
    assert list(F) == list(F.ordered)
    for tau in restrict_Sk(u, o, 2).consistent_orientations():
        for members in (tau, tau - {min(tau)}):
            hits = [s for s in F if s <= members]
            least = min(hits, key=lambda s: (len(s), sorted(s)), default=None)
            assert first_member_inside(F, members) == least
    assert first_member_inside(F, frozenset()) == frozenset()
    assert first_member_inside(ForbiddenFamily([{0, 1}, {2}]), frozenset({0, 1, 2})) == {2}
    assert first_member_inside(ForbiddenFamily([]), frozenset({0})) is None


# -- avoids ------------------------------------------------------------------


def test_avoids_empty_family(p3):
    u, _ = p3
    assert avoids(mask_of(u.elements()[:3]), ForbiddenFamily([]))


def test_avoids_subset_member(chain2):
    F = ForbiddenFamily([{0, 2}])
    assert not avoids(mask_of({0, 2, 1}), F)
    assert avoids(mask_of({0, 1}), F)


def test_avoids_matches_naive(p3):
    u, o = p3
    F = p3_family(p3)
    s2 = restrict_Sk(u, o, 2)
    for tau in s2.consistent_orientations():
        assert avoids(mask_of(tau), F) == naive_avoids(tau, F)


# -- tangle enumeration -----------------------------------------------------------


def test_empty_set_forbidden_kills_all(chain2):
    assert enumerate_tangles(chain2, ForbiddenFamily([set()])) == []


def test_empty_system_single_empty_tangle(p3):
    u, o = p3
    empty = restrict_Sk(u, o, 0)
    assert enumerate_tangles(empty, ForbiddenFamily([])) == [frozenset()]


def test_p3_tangles_match_naive_filter(p3):
    u, o = p3
    F = p3_family(p3)
    s2 = restrict_Sk(u, o, 2)
    got = enumerate_tangles(s2, F)
    assert len(got) == 2  # the two order-2 tangles of the path
    want = naive_tangles(s2, set(F))
    assert sorted(map(sorted, got)) == sorted(map(sorted, want))


def test_tangles_in_thresholds_and_maximality(p3):
    u, o = p3
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 4), u)
    records = enumerate_tangles_in(u, F, o)
    # every record is a tangle of its own threshold's subsystem
    for t in records:
        sub = restrict_Sk(u, o, t.k)
        assert sub.is_orientation_mask(mask_of(t.elements))
        assert avoids(mask_of(t.elements), F)
    maxima = [t for t in records if t.maximal]
    for t in maxima:
        assert not any(t.elements < r.elements for r in records)
    # non-maximal records extend to some maximal one
    for t in records:
        if not t.maximal:
            assert any(t.elements < m.elements for m in maxima)


# -- standardness ------------------------------------------------------------------


def test_standard_vacuous_without_trivials(chain2):
    assert is_standard(ForbiddenFamily([]), chain2)[0]


def test_standardize_ptriv():
    pt = ptriv_system()
    F = ForbiddenFamily([])
    ok, missing = is_standard(F, pt)
    assert not ok and missing == [frozenset({3})]  # {s<} for trivial s>
    F2 = standardize(F, pt)
    assert is_standard(F2, pt)[0]
    assert standardize(F2, pt) == F2


# -- eclipsing ---------------------------------------------------------------------


def test_eclipse_flags_same_separation(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    for weak in (False, True):
        assert list(_eclipsers(chain2, o, 0, 1 << 0, weak)) == []


def test_eclipse_weak_only_on_tie(chain2):
    o = constant_order(chain2, 1)
    assert list(_eclipsers(chain2, o, 2, 1 << 0)) == []
    assert list(_eclipsers(chain2, o, 2, 1 << 0, weak=True)) == [0]


def test_injective_order_weak_implies_strict(p3):
    # distinct separations only: a small r> < r< always ties with itself
    u, o = p3
    o2 = refine_injective(o)
    for s in u.elements():
        others = u.members & ~(1 << s | 1 << u.inv(s))
        assert list(_eclipsers(u, o2, s, others)) == list(
            _eclipsers(u, o2, s, others, weak=True))


# -- efficiency ---------------------------------------------------------------------


def is_strongly_efficient(system, order, sigma, tau) -> bool:
    """No member of tau weakly eclipses one of sigma."""
    tau_mask = mask_of(tau)
    return all(next(_eclipsers(system, order, x, tau_mask, weak=True), None) is None
               for x in sigma)


def set_geq(system, sigma, sigma2) -> bool:
    """Lifted ordering on sets: every element of sigma has an image below it."""
    return all(any(system.leq(y, x) for y in sigma2) for x in sigma)


def test_min_order_singleton_strongly_efficient(p3):
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    tau = s2.consistent_orientations()[0]
    best = min(tau, key=lambda h: (o.of(h), h))
    ties = [h for h in tau if o.of(h) == o.of(best)]
    minimal = [h for h in ties if not any(s2.lt(y, h) for y in ties)]
    assert is_strongly_efficient(s2, o, {minimal[0]}, tau)


def test_planted_eclipsed_member(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    tau = {0, 2}  # r> < s>, both oriented up
    assert not is_efficient(chain2, o, mask_of({2}), mask_of(tau))
    assert is_efficient(chain2, o, mask_of({0}), mask_of(tau))


def test_empty_set_strongly_efficient(chain2):
    o = constant_order(chain2)
    assert is_strongly_efficient(chain2, o, set(), {0, 2})


# -- richness -----------------------------------------------------------------------


def test_empty_family_rich(chain2):
    o = constant_order(chain2)
    assert is_rich(chain2, ForbiddenFamily([]), o)[0]


def test_planted_family_not_rich_with_counterexample(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    F = ForbiddenFamily([{2}])  # {s>} alone; r> eclipses s> inside {r>, s>}
    ok, tau = is_rich(chain2, F, o)
    assert not ok
    assert tau == frozenset({0, 2})


def test_richness_check_stops_at_its_first_counterexample(chain2, monkeypatch):
    # the orientations are generated one at a time, so a check that fails on
    # the first one never holds the rest: the walk that finds S failing and
    # the canonical walk that names the witness each stop at it
    pulled, search = [], forbidden._orientations

    def counted(*args):
        for tau in search(*args):
            pulled.append(frozenset(iter_mask(tau)))
            yield tau

    monkeypatch.setattr(forbidden, "_orientations", counted)
    o = OrderFunction(chain2, {0: 1, 2: 2})
    assert is_rich(chain2, ForbiddenFamily([{2}]), o) == (False, frozenset({0, 2}))
    assert pulled == [frozenset({0, 2})] * 2
    assert len(chain2.consistent_orientations()) == 3


def test_eclipse_closed_implies_rich(p3):
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    F = eclipse_closure(s2, p3_family(p3), o)
    assert closed_under_eclipsing(s2, F, o)[0]
    assert is_rich(s2, F, o)[0]


def test_singleton_family_closed_and_rich(p3):
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    F = singleton_family(s2)
    assert closed_under_eclipsing(s2, F, o)[0]
    assert is_rich(s2, F, o)[0]
    assert enumerate_tangles(s2, F) == []


# -- richness in one walk, against the per-layer oracle ----------------------------


def full_family(name, k):
    """A ladder graph's universe, its refined order, and the family the CLI
    makes of its k-stars with ``"generate": ["R", "standardize"]``."""
    n, edges = LADDER[name]
    u, o = graph_universe(range(n), edges)
    inj = refine_injective(o)
    stars = graph_tangle_stars(u, o, range(n), edges, k)
    return u, inj, standardize(stars.extended(robustness_family(inj, target=u)), u)


# The oracle walks every consistent orientation of every layer: on C5 it takes
# about 1 s, and on C6 (k = 2, 3), P6 (k = 3), P5 and K1,4 (k = 3) from 5 s to
# minutes.  These are compared with the one-layer walk on each layer below.
LAYER_WALK_LADDER = [("C5", 2), ("C6", 2), ("C5", 3), ("C6", 3), ("P5", 3), ("P6", 3),
                     ("K1,4", 3)]
ORACLE_LADDER = [(name, k) for k in (2, 3) for name in LADDER
                 if (name, k) not in LAYER_WALK_LADDER]


@pytest.mark.parametrize("name,k", ORACLE_LADDER)
def test_layered_richness_matches_the_per_layer_oracle_on_the_ladder(name, k):
    u, inj, fam = full_family(name, k)
    assert is_rich(u, fam, inj, layered=True) == naive_is_rich(u, fam, inj, layered=True)


@pytest.mark.parametrize("name,k,fails", [*((name, k, None) for name, k in LAYER_WALK_LADDER),
                                          ("P6", 2, 27), ("K1,4", 2, 25)])
def test_layered_richness_is_the_one_layer_check_on_each_layer(name, k, fails):
    # the first layer whose own walk fails, with its witness, which orients
    # that layer's ``fails`` separations
    u, inj, fam = full_family(name, k)
    per_layer = (is_rich(restrict_Sk(u, inj, t), fam, inj) for t in order_thresholds(u, inj))
    first = next((r for r in per_layer if not r[0]), (True, None))
    assert is_rich(u, fam, inj, layered=True) == first
    assert (None if first[0] else len(first[1])) == fails


def test_richness_matches_the_oracle_on_random_universes():
    # refined orders, and the cut orders themselves, whose ties make layers
    # of several separations and leave the one-layer check non-injective
    rng = random.Random(31)
    fails = 0
    for uni, o in random_universes():
        inj = refine_injective(o)
        for fam in (random_stars(uni, rng),
                    standardize(robustness_family(inj, target=uni).extended(
                        random_stars(uni, rng)), uni)):
            for order in (inj, o):
                for layered in (False, True):
                    got = is_rich(uni, fam, order, layered)
                    assert got == naive_is_rich(uni, fam, order, layered)
                    fails += not got[0]
    assert fails >= 200  # 324 seen, of 800 checks


def test_richness_matches_the_oracle_under_a_constant_order(chain2, ptriv):
    # one layer, every separation tied: each element weakly eclipses every
    # element above it
    for system in (chain2, ptriv):
        o = constant_order(system)
        subsets = [frozenset(c) for r in range(3)
                   for c in itertools.combinations(system.elements(), r)]
        for fam in itertools.combinations(subsets, 2):
            fam = ForbiddenFamily(fam)
            assert is_rich(system, fam, o) == naive_is_rich(system, fam, o), set(fam)


def test_a_member_extending_only_below_s_is_read_in_its_layer():
    # on C4 with the full k = 2 family, members that are co-trivial in S but
    # not in a lower layer lie in orientations of that layer; were they left
    # out, their strongly efficient orientations would not be pruned
    u, inj, fam = full_family("C4", 2)
    layers = [restrict_Sk(u, inj, t) for t in order_thresholds(u, inj)]
    below = [s for s in fam if not extends(u, mask_of(s))
             and any(s <= tau for layer in layers for tau in layer.consistent_orientations())]
    assert below
    assert is_rich(u, fam, inj, layered=True) == (True, None) == naive_is_rich(
        u, fam, inj, layered=True)


def test_a_degenerate_weak_eclipser_keeps_its_member_from_pruning():
    # d = d* < s->: every orientation holds d, so {s->} is never strongly
    # efficient; forbidding {s->, d} as its P_s would prune the counterexample
    # handles: 0 = d, 1 = s->, 2 = s<-
    system = SeparationSystem.from_relation([0, 2, 1], [(0, 1), (2, 0), (2, 1)])
    o = constant_order(system)
    assert system.consistent_orientations() == [frozenset({0, 1})]
    for layered in (False, True):
        assert is_rich(system, ForbiddenFamily([{1}]), o, layered) == (
            False, frozenset({0, 1}))


def test_settling_a_member_reads_rows_not_eclipsers(monkeypatch):
    # P_s is two row ANDs per handle of s: the set-up reads no eclipser list,
    # so it costs no more than the walk on families that fail low (P6 at
    # k = 2 fails at 27 of 120 separations)
    u, inj, fam = full_family("P6", 2)
    want = is_rich(u, fam, inj, layered=True)  # the oracle's, as tested above

    def eclipsers(*args, **kwargs):
        raise AssertionError("eclipsers walked")

    monkeypatch.setattr(forbidden, "_eclipsers", eclipsers)
    assert is_rich(u, fam, inj, layered=True) == want
    assert not want[0] and len(want[1]) == 27


def test_closed_under_eclipsing_all_subsets(chain2):
    o = constant_order(chain2)
    all_subsets = [set(c) for r in range(5)
                   for c in itertools.combinations(range(4), r)]
    assert closed_under_eclipsing(chain2, ForbiddenFamily(all_subsets), o)[0]
    assert closed_under_eclipsing(chain2, ForbiddenFamily([]), o)[0]


def test_closed_under_eclipsing_planted_violation(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    ok, witness = closed_under_eclipsing(chain2, ForbiddenFamily([{2}]), o)
    assert not ok
    sigma, replaced, replacement = witness
    assert sigma == frozenset({2}) and replaced == 2 and replacement == 0


def test_minimal_members_strongly_efficient_under_eclipse_closure(p3):
    # mirror of the richness proof: lifted-order-minimal members are efficient
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    F = eclipse_closure(s2, p3_family(p3), o)
    for tau in s2.consistent_orientations():
        inside = [s for s in F if s <= tau]
        for sigma in inside:
            minimal = not any(
                other != sigma and set_geq(s2, sigma, other) for other in inside)
            if minimal:
                assert is_strongly_efficient(s2, o, sigma, tau)


# -- generators ---------------------------------------------------------------------


def test_robustness_family_single_separation():
    u = bipartition_universe([1])
    o = constant_order(u, 1)
    assert robustness_family(o, target=u).masks == ()


def test_robustness_family_crossing_bipartitions(bip4):
    lab = by_label(bip4)
    vals = {bip4.sep(h): Fraction(5) for h in bip4.elements()}
    for name in ("{1}|{2,3,4}", "{2}|{1,3,4}", "{3}|{1,2,4}", "{4}|{1,2,3}"):
        vals[bip4.sep(lab[name])] = Fraction(1)
    o = OrderFunction(bip4, vals)
    R = robustness_family(o, target=bip4)
    # r = {1,2}|{3,4} crossing s = {1,3}|{2,4}: the two corners on the r<- side
    r = lab["{1,2}|{3,4}"]
    a = bip4.join(bip4.inv(r), lab["{1,3}|{2,4}"])
    b = bip4.join(bip4.inv(r), lab["{2,4}|{1,3}"])
    assert frozenset({r, a, b}) in R


def test_robustness_triples_consistent(bip4):
    vals = {bip4.sep(h): Fraction(bin(h).count("1") * (4 - bin(h).count("1")))
            for h in bip4.elements()}
    o = OrderFunction(bip4, vals)
    for triple in robustness_family(o, target=bip4):
        assert bip4.is_consistent_mask(mask_of(triple))


def test_profile_family_matches_naive_double_loop(bip2):
    got = profile_family(target=bip2)
    naive = set()
    for r in bip2.elements():
        for s in bip2.elements():
            t = frozenset({r, s, bip2.join(bip2.inv(r), bip2.inv(s))})
            if not any(bip2.is_degenerate(x) for x in t):
                naive.add(t)
    assert set(got) == naive


def test_p3_tangles_avoid_profile_triples(p3):
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    P = profile_family(target=s2)
    for tau in enumerate_tangles(s2, p3_family(p3)):
        assert avoids(mask_of(tau), P)


def test_profile_excludes_degenerates(p3):
    u, _ = p3
    P = profile_family(target=u)
    d = [h for h in u.elements() if u.is_degenerate(h)][0]
    assert all(d not in t for t in P)


# -- f_eff ----------------------------------------------------------------------------


def test_f_eff_singletons_unchanged(p3):
    u, o = p3
    F = ForbiddenFamily([{h} for h in u.elements()[:5]])
    assert f_eff(u, F, o).masks == F.masks


def test_f_eff_removes_eclipsed_star(p3):
    u, o = p3
    lab = by_label(u)
    # {a,b}|{b,c} (order 1) is eclipsed inside its closure by {b}|{a,b,c} (order 0)?
    # build a pair with a genuinely eclipsed member instead: s> above r> in order
    sigma = {lab["{}|{a,b,c}"], lab["{a,b}|{b,c}"]}
    cl = u.closure_mask(mask_of(sigma))
    eclipsed = not is_efficient(u, o, mask_of(sigma), cl)
    F = ForbiddenFamily([sigma])
    assert (frozenset(sigma) in f_eff(u, F, o)) == (not eclipsed)


def test_f_eff_drops_each_inconsistent_or_eclipsed_member(chain2):
    # handles 0 = r->, 1 = r<-, 2 = s->, 3 = s<- with r-> < s->: {r->, s<-}
    # points away from itself, and r-> eclipses s-> once |r| < |s|
    o = OrderFunction(chain2, {0: 1, 2: 2})
    F = ForbiddenFamily([{0, 3}, {0, 2}, {0}])
    assert set(f_eff(chain2, F, o)) == {frozenset({0})}


def test_f_eff_subset_always(p3):
    u, o = p3
    F = p3_family(p3)
    assert set(f_eff(u, F, o)) <= set(F)


def test_rich_monotone_under_strongly_efficient_additions(p3):
    # adding a member that is strongly efficient wherever it fits keeps richness
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    F = p3_family(p3)
    assert is_rich(s2, F, o)[0]
    taus = s2.consistent_orientations()
    for h in s2.elements():
        sigma = frozenset({h})
        if any(sigma <= t and not is_strongly_efficient(s2, o, sigma, t)
               for t in taus):
            continue
        extended = F.extended(ForbiddenFamily([sigma]))
        assert is_rich(s2, extended, o)[0], s2.label(h)


def test_family_json_round_trip(p3):
    u, o = p3
    F = standardize(p3_family(p3), restrict_Sk(u, o, 2))
    blob = F.to_json()
    back = ForbiddenFamily.from_json(blob)
    assert back.masks == F.masks
    assert back.to_json() == blob


# -- no tangle repeats across thresholds ------------------------------------------------


def assert_no_tangle_repeats(system, family, order):
    records = enumerate_tangles_in(system, family, order)
    assert records
    assert len({t.elements for t in records}) == len(records)


@pytest.mark.parametrize("name", list(LADDER))
def test_no_tangle_repeats_across_thresholds_on_the_ladder(name):
    n, edges = LADDER[name]
    vs = "abcdefgh"[:n]
    edges = [(vs[a], vs[b]) for a, b in edges]
    u, o = graph_universe(vs, edges)
    for k in (2, 3):
        sk = restrict_Sk(u, o, k)
        if len(sk.seps()) > 40:
            continue
        stars = standardize(graph_tangle_stars(u, o, vs, edges, k), sk)
        assert_no_tangle_repeats(sk, stars, o)
        if len(sk.seps()) <= 12:
            assert_no_tangle_repeats(sk, ForbiddenFamily([]), o)


def test_no_tangle_repeats_across_thresholds_on_random_universes():
    for uni, o in random_universes():
        assert_no_tangle_repeats(uni, ForbiddenFamily([]), o)
