"""The integer order checks agree with the Fraction oracles, verdict and witness.

``is_submodular``, ``is_structurally_submodular`` and ``refines`` compare
order values as integers over a common denominator; the oracles in
``oracles.py`` look every value up as a Fraction, pair by pair.  An order
function holds those integers, ``num`` over ``den``; the guard test at the
end keeps the checks from looking any value up as a Fraction.
"""

import json
import random
from fractions import Fraction

import pytest
from oracles import (
    Enumeration,
    constant_order,
    default_iota,
    naive_gamma,
    naive_is_structurally_submodular,
    naive_is_submodular,
    naive_refines,
)

from tanglekit.fixtures import (
    chain_universe,
    p3_universe,
    p4_universe,
    random_universes,
)
from tanglekit.forbidden import robustness_family
from tanglekit.ingest import order_from_json
from tanglekit.orderfn import OrderFunction, refine_injective, refines
from tanglekit.universe import (
    bipartition_universe,
    graph_universe,
    is_structurally_submodular,
    is_submodular,
    restrict_Sk,
)


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


LADDER = {
    "P4": _path(4), "P5": _path(5), "P6": _path(6),
    "C4": _cycle(4), "C5": _cycle(5), "C6": _cycle(6),
    "K4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "K2,3": (5, [(i, 2 + j) for i in range(2) for j in range(3)]),
    "K1,4": (5, [(0, 1 + j) for j in range(4)]),
}


def ladder_graph(name):
    nv, edges = LADDER[name]
    names = "abcdefgh"
    return graph_universe(names[:nv], [(names[a], names[b]) for a, b in edges])


def assert_checks_agree(uni, fn):
    assert is_submodular(uni, fn) == naive_is_submodular(uni, fn)
    assert is_structurally_submodular(uni, fn) == naive_is_structurally_submodular(uni, fn)


def assert_refines_agree(o2, o1, system):
    assert refines(o2, o1, system) == naive_refines(o2, o1, system)


def random_rational_order(uni, rng):
    """Values p/q with small random p and q: mostly non-submodular, mixed denominators."""
    return OrderFunction(uni, {s: Fraction(rng.randint(0, 6), rng.randint(1, 6))
                               for s in uni.seps()})


def fixture_orders():
    p3, o3 = p3_universe()
    p4, o4 = p4_universe()
    out = [(p3, o3), (p4, o4)]
    for size in range(1, 5):
        bip = bipartition_universe(list(range(1, size + 1)))
        out.append((bip, constant_order(bip, 1)))
        # |A| * |B|: the cut order of the complete graph on the ground set
        out.append((bip, OrderFunction(bip, {
            s: bin(s).count("1") * (size - bin(s).count("1")) for s in bip.seps()})))
    chain = chain_universe(4)
    out.append((chain, Enumeration(chain, {s: i + 1 for i, s in enumerate(chain.seps())})))
    out.append((chain, Enumeration(chain, {s: 4 - i for i, s in enumerate(chain.seps())})))
    return out


def test_fixture_universes_agree_with_oracle():
    for uni, o in fixture_orders():
        assert_checks_agree(uni, o)
        if is_submodular(uni, o)[0]:
            o2 = refine_injective(o)
            assert_checks_agree(uni, o2)
            assert_refines_agree(o2, o, uni)
            assert_refines_agree(o, o2, uni)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_graphs_agree_with_oracle(name):
    uni, o = ladder_graph(name)
    o2 = refine_injective(o)
    for order in (o, o2):
        assert_checks_agree(uni, order)
        assert_checks_agree(restrict_Sk(uni, o, 2), order)
    assert_refines_agree(o2, o, uni)
    assert_refines_agree(o, o2, uni)
    assert_refines_agree(o2, o, restrict_Sk(uni, o, 3))


def test_random_universes_agree_with_oracle():
    for uni, o in random_universes(count=100, seed=2024):
        assert_checks_agree(uni, o)
        o2 = refine_injective(o)
        assert_checks_agree(uni, o2)
        assert_refines_agree(o2, o, uni)
        assert_refines_agree(o, o2, uni)


def test_planted_orders_agree_with_oracle():
    rng = random.Random(31)
    failures = {"sub": 0, "struct": 0, "refines": 0}
    cases = [ladder_graph(name) for name in sorted(LADDER)]
    cases += random_universes(count=30, seed=5)
    for uni, o in cases:
        for _ in range(3):
            bad = random_rational_order(uni, rng)
            assert_checks_agree(uni, bad)
            assert_refines_agree(bad, o, uni)
            failures["sub"] += not is_submodular(uni, bad)[0]
            failures["struct"] += not is_structurally_submodular(uni, bad)[0]
            failures["refines"] += not refines(bad, o, uni)[0]
        flipped = OrderFunction(uni, {s: -o.of(s) for s in uni.seps()})
        assert_checks_agree(uni, flipped)
        assert_refines_agree(flipped, o, uni)
    # the planted order of the seed's negative control
    bip2 = bipartition_universe([1, 2])
    vals = {s: Fraction(0) for s in bip2.seps()}
    vals[bip2.sep(3)] = Fraction(5)
    assert_checks_agree(bip2, OrderFunction(bip2, vals))
    assert all(failures.values()), failures


def graph_order_values(uni):
    """|A n B| for every handle of a graph universe, read off its label "{..}|{..}"."""
    sides = [[set(x.strip("{}").split(",")) - {""} for x in uni.label(h).split("|")]
             for h in range(uni.n_ground)]
    return [Fraction(len(a & b)) for a, b in sides]


def refined_values(uni, vals):
    """refine_injective's values by its Fraction definition, from the values ``vals``."""
    distinct = sorted(set(vals))
    eps = min((b - a for a, b in zip(distinct, distinct[1:])), default=Fraction(1))
    scale, iota = eps / (2 * 3 ** len(uni.elements())), default_iota(uni)
    return [v + scale * (naive_gamma(uni, 3, iota, h) + naive_gamma(uni, 3, iota, uni.inv(h)))
            for h, v in enumerate(vals)]


def exactness_orders():
    """(universe, order, its value on each handle computed apart from it), for the
    orders of every kind the package builds, on universes of up to 113 handles."""
    rng = random.Random(4)
    cases = [(u, o, graph_order_values(u))
             for u, o in (p3_universe(), ladder_graph("C4"), ladder_graph("K1,4"))]
    cases += [(u, o, [o.of(h) for h in range(u.n_ground)])
              for u, o in random_universes(count=5, seed=11)]
    out = []
    for uni, o, vals in cases:
        per_sep = {s: Fraction(rng.randint(0, 6), rng.randint(1, 6)) for s in uni.seps()}
        bad = [per_sep[uni.sep(h)] for h in range(uni.n_ground)]
        out += [(uni, o, vals), (uni, OrderFunction(uni, per_sep), bad),
                (uni, OrderFunction(uni, {s: Fraction(3, 7) * v for s, v in per_sep.items()}),
                 [Fraction(3, 7) * v for v in bad]),
                (uni, OrderFunction(uni, {s: Fraction(5, 2) * vals[s] for s in uni.seps()}),
                 [Fraction(5, 2) * v for v in vals]),
                (uni, refine_injective(o), refined_values(uni, vals))]
        seps = uni.seps()
        rng.shuffle(seps)
        ranks = {s: i + 1 for i, s in enumerate(seps)}
        out.append((uni, Enumeration(uni, ranks),
                    [Fraction(ranks[uni.sep(h)]) for h in range(uni.n_ground)]))
    return out


def test_handle_values_keep_comparisons_exact():
    for uni, order, fracs in exactness_orders():
        assert [order.of(h) for h in range(uni.n_ground)] == fracs
        num, den = order.num, order.den
        assert den > 0 and all(isinstance(v, int) for v in num)
        for a in range(uni.n_ground):
            for b in range(uni.n_ground):
                assert (num[a] < num[b]) == (fracs[a] < fracs[b]), (a, b)
                assert (num[a] == num[b]) == (fracs[a] == fracs[b]), (a, b)
                assert Fraction(num[a] + num[b], den) == fracs[a] + fracs[b], (a, b)
        # thresholds: every value, between adjacent values, below and above
        values = sorted(set(fracs))
        ks = values + [(x + y) / 2 for x, y in zip(values, values[1:])]
        ks += [values[0] - 1, values[0] - Fraction(1, 3 * den), values[-1] + 1]
        for k in ks:
            cut = order.cut(k)
            assert [n < cut for n in num] == [f < k for f in fracs], k
        for k in range(int(values[0]) - 1, int(values[-1]) + 2):
            assert [n < order.cut(k) for n in num] == [f < k for f in fracs], k
        text = json.dumps(order.to_json())
        again = order_from_json(uni, json.loads(text))
        assert json.dumps(again.to_json()) == text
        assert [again.of(h) for h in range(uni.n_ground)] == fracs


# -- no value lookups --------------------------------------------------------------


def test_order_checks_look_each_handle_up_once(monkeypatch):
    # the checks compare the integer vector ``num``: none rebuilds a Fraction
    uni, o = ladder_graph("P6")
    o2 = refine_injective(o)
    calls = {}
    plain_of = OrderFunction.of

    def counted_of(self, h):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return plain_of(self, h)

    monkeypatch.setattr(OrderFunction, "of", counted_of)
    checks = {
        "is_submodular": lambda: is_submodular(uni, o2),
        "is_structurally_submodular": lambda: is_structurally_submodular(uni, o2),
        "refines": lambda: refines(o2, o, uni),
        "robustness_family": lambda: robustness_family(o2, target=uni),
    }
    for name, check in checks.items():
        calls.clear()
        check()
        assert sum(calls.values()) == 0, (name, calls)
