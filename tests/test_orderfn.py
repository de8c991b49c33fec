"""Order-function algebra: indicators, base-3 perturbation, refinement."""

from fractions import Fraction

import pytest
from oracles import (
    Enumeration,
    constant_order,
    default_iota,
    enumeration_refinement,
    indicator,
    naive_gamma,
    naive_is_submodular,
)

from tanglekit.errors import NonSubmodularOrder
from tanglekit.fixtures import chain_universe, graph_tangle_stars, random_universes
from tanglekit.forbidden import ForbiddenFamily, enumerate_tangles_in, standardize
from tanglekit.orderfn import OrderFunction, refine_injective, refines
from tanglekit.universe import (
    is_structurally_submodular,
    is_submodular,
    restrict_Sk,
)


def by_label(u):
    return {u.label(h): h for h in u.elements()}


def symmetrize(uni, fn) -> OrderFunction:
    """The order function s -> u(s->) + u(s<-) induced by a function on U->."""
    out = {}
    for s in uni.seps():
        ors = uni.orientations(s)
        out[s] = Fraction(fn(ors[0])) + Fraction(fn(ors[-1]))
    return OrderFunction(uni, out)


def tangles_preserved_under_refinement(system, family, o, o2):
    """Check that every tangle at any o-threshold is a tangle at some o2-threshold.

    Returns (ok, witness); the witness is (k, tangle) for the first o-tangle,
    in ``enumerate_tangles_in`` order, that no o2-threshold keeps.
    """
    kept = {t.elements for t in enumerate_tangles_in(system, family, o2)}
    lost = next(((t.k, t.elements) for t in enumerate_tangles_in(system, family, o)
                 if t.elements not in kept), None)
    return lost is None, lost


# -- refines -----------------------------------------------------------------


def test_refines_reflexive(p3):
    u, o = p3
    assert refines(o, o, u) == (True, None)


def test_refines_scaling(p3):
    u, o = p3
    assert refines(OrderFunction(u, {s: 2 * o.of(s) for s in u.seps()}), o, u)[0]


def test_refines_planted_inversion(p3):
    u, o = p3
    flipped = OrderFunction(u, {s: -o.of(s) for s in u.seps()})
    ok, witness = refines(flipped, o, u)
    assert not ok
    r, s = witness
    assert o.of(r) < o.of(s) and flipped.of(r) >= flipped.of(s)


# -- indicator ------------------------------------------------------------------


def test_indicator_cases(bip2):
    lab = by_label(bip2)
    t = lab["{1}|{2}"]
    f = indicator(bip2, t)
    assert f(t) == 0
    assert f(lab["{1,2}|{}"]) == 1


def test_indicator_submodular_on_bip2(bip2):
    for t in bip2.elements():
        ok, _ = naive_is_submodular(bip2, indicator(bip2, t))
        assert ok


# -- gamma ------------------------------------------------------------------------


def test_gamma_minimum_is_empty_sum(bip2):
    # everything lies above the minimum, so no summand survives
    bottom = by_label(bip2)["{}|{1,2}"]
    assert naive_gamma(bip2, 3, default_iota(bip2), bottom) == 0


def test_gamma_single_separation_values():
    u = chain_universe(1)  # handles 0 < 1, a single regular separation
    iota = {0: 0, 1: 1}
    assert naive_gamma(u, 3, iota, 0) == 0  # 0 is the minimum here
    assert naive_gamma(u, 3, iota, 1) == 1


def test_gamma_single_incomparable_separation():
    # two-element evaluation: iota(s>)=0, iota(s<)=1 with s regular
    # and its orientations incomparable gives gamma3(s>)=3, gamma3(s<)=1
    from tanglekit.fixtures import single_sep_system
    s = single_sep_system()
    iota = {0: 0, 1: 1}

    def gamma_poset(sys, n, iota, h):
        return sum(n ** iota[t] for t in sys.elements() if not sys.leq(h, t))

    assert gamma_poset(s, 3, iota, 0) == 3
    assert gamma_poset(s, 3, iota, 1) == 1


def test_gamma_digit_characterization(bip3):
    # base-3 digits of gamma3(s>)+gamma3(s<): a_k <= 1 iff iota^-1(k) points
    # towards s, that is, lies above one of s's orientations
    iota = default_iota(bip3)
    inverse = {v: k for k, v in iota.items()}
    for s in bip3.seps():
        ors = bip3.orientations(s)
        g = naive_gamma(bip3, 3, iota, ors[0]) + naive_gamma(bip3, 3, iota, ors[-1])
        for k in range(len(bip3.elements())):
            digit = (g // 3 ** k) % 3
            x = inverse[k]
            assert (digit <= 1) == any(bip3.leq(t, x) for t in ors)


def test_gamma_symmetrization_injective(bip3, bip4):
    for u in (bip3, bip4):
        iota = default_iota(u)
        vals = []
        for s in u.seps():
            ors = u.orientations(s)
            vals.append(naive_gamma(u, 3, iota, ors[0]) + naive_gamma(u, 3, iota, ors[-1]))
        assert len(set(vals)) == len(vals)


# -- symmetrize ---------------------------------------------------------------------


def test_symmetrize_symmetric_input_doubles(p3):
    u, o = p3
    w = symmetrize(u, o.of)
    for s in u.seps():
        assert w.of(s) == 2 * o.of(s)


def test_symmetrize_indicator_range(bip3):
    t = bip3.elements()[3]
    w = symmetrize(bip3, indicator(bip3, t))
    assert set(w.values_on(bip3).values()) <= {0, 1, 2}


def test_symmetrize_preserves_submodularity(bip3):
    for t in bip3.elements()[:4]:
        w = symmetrize(bip3, indicator(bip3, t))
        assert is_submodular(bip3, w)[0]


# -- refine_injective ------------------------------------------------------------------


def test_refine_keeps_injective_orders_injective(bip2):
    o = OrderFunction(bip2, {s: Fraction(i) for i, s in enumerate(bip2.seps())})
    assert is_submodular(bip2, o)[0]
    o2 = refine_injective(o)
    assert o2.is_injective_on(bip2)
    assert refines(o2, o, bip2)[0]


def test_refine_constant_order_spread_below_one():
    u = chain_universe(3)
    o = constant_order(u, 5)
    o2 = refine_injective(o)
    vals = list(o2.values_on(u).values())
    assert len(set(vals)) == len(vals)
    assert max(vals) - min(vals) < 1  # epsilon falls back to 1


def test_refine_p3_passes_all_oracles(p3):
    u, o = p3
    o2 = refine_injective(o)
    assert o2.is_injective_on(u)
    assert is_submodular(u, o2)[0]
    assert refines(o2, o, u)[0]


def test_refine_delta_bounds(p3):
    u, o = p3
    o2 = refine_injective(o)
    distinct = sorted({o.of(s) for s in u.seps()})
    eps = min(b - a for a, b in zip(distinct, distinct[1:]))
    for s in u.seps():
        delta = o2.of(s) - o.of(s)
        assert 0 <= delta < eps / 2


def test_refine_rejects_nonsubmodular(bip2):
    lab = by_label(bip2)
    vals = {bip2.sep(h): Fraction(0) for h in bip2.elements()}
    vals[bip2.sep(lab["{1,2}|{}"])] = Fraction(5)
    with pytest.raises(NonSubmodularOrder):
        refine_injective(OrderFunction(bip2, vals))


def test_refine_idempotent_up_to_refinement(p3):
    u, o = p3
    o2 = refine_injective(o)
    o3 = refine_injective(o2)
    assert refines(o3, o2, u)[0]


def test_refine_deterministic_per_iota(p3):
    u, o = p3
    assert refine_injective(o).to_json() == refine_injective(o).to_json()


def test_refine_needs_the_whole_ground_universe(p3):
    # an order function read on S_2, a view of 10 of P3's 17 oriented
    # separations, is defined on the whole ground, and is refined there
    u, o = p3
    s2 = restrict_Sk(u, o, 2)
    assert len(s2.elements()) == 10
    read_on_s2 = OrderFunction(s2, o.values_on(u))
    assert read_on_s2.system is u
    refined = refine_injective(read_on_s2)
    assert refined.system is u and refined.is_injective_on(u)
    assert refined.to_json() == refine_injective(o).to_json()


def test_refine_on_a_view_of_every_member(p3):
    u, o = p3
    every = OrderFunction(restrict_Sk(u, o, None), o.values_on(u))
    assert refine_injective(every).to_json() == refine_injective(o).to_json()


def test_refine_random_universes():
    for u, o in random_universes(count=15, seed=3):
        o2 = refine_injective(o)
        assert o2.is_injective_on(u.ground)
        assert is_submodular(u.ground, o2)[0]
        assert refines(o2, o, u.ground)[0]


# -- enumeration refinement ---------------------------------------------------------------


def test_enumeration_single_separation():
    u = chain_universe(1)
    e = enumeration_refinement(u, constant_order(u))
    assert e.ranks == {0: 1}


def test_enumeration_p3_refines_standard_order(p3):
    u, o = p3
    e = enumeration_refinement(u, o)
    assert refines(e, o, u)[0]
    assert sorted(e.ranks.values()) == list(range(1, len(u.seps()) + 1))


def test_enumeration_structurally_submodular(p3, bip3):
    for u, o in (p3, (bip3, constant_order(bip3))):
        e = enumeration_refinement(u, o)
        assert is_structurally_submodular(u, e)[0]


def test_enumeration_bijectivity_enforced(bip2):
    with pytest.raises(Exception):
        Enumeration(bip2, {s: 1 for s in bip2.seps()})


# -- tangle preservation under refinement ----------------------------------------------------


def test_tangles_preserved_trivially(p3):
    u, o = p3
    F = ForbiddenFamily([])
    assert tangles_preserved_under_refinement(u, F, o, o)[0]


def test_tangles_preserved_under_injective_refinement(p3):
    u, o = p3
    F = standardize(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2), u)
    o2 = refine_injective(o)
    assert tangles_preserved_under_refinement(u, F, o, o2)[0]


def test_tangles_not_preserved_with_planted_inversion(chain2):
    o = OrderFunction(chain2, {0: 1, 2: 2})
    swapped = OrderFunction(chain2, {0: 2, 2: 1})
    F = ForbiddenFamily([])
    ok, witness = tangles_preserved_under_refinement(chain2, F, o, swapped)
    assert not ok and witness is not None


def test_order_json_round_trip(p3):
    u, o = p3
    back = OrderFunction.from_json(u, o.to_json())
    assert back.to_json() == o.to_json()


def test_thresholds_rewritable_after_refinement(p3):
    # S_k under o is S_k' under the refinement for a suitable k'
    from tanglekit.fixtures import random_universes
    u, o = p3
    pairs = [(u, o)] + [(a, b) for a, b in random_universes(count=10, seed=41)]
    for uni, order in pairs:
        o2 = refine_injective(order)
        for k in sorted({order.of(s) for s in uni.seps()} | {None}, key=str):
            sub = restrict_Sk(uni, order, k)
            inside = [o2.of(h) for h in sub.elements()]
            outside = [o2.of(h) for h in uni.elements() if not sub.contains(h)]
            if inside and outside:
                k2 = (max(inside) + min(outside)) / 2
                assert max(inside) < min(outside)
            else:
                k2 = None if not outside else min(outside)
            assert restrict_Sk(uni, o2, k2).members == sub.members
