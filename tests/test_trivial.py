"""Triviality against its definition, on every fixture system.

``naive_is_trivial`` reads the definition off ``lt`` and the involution; the
library tests one mask.  The systems that hold a degenerate separation, such
as the whole graph universes with (V, V) and their top S_k views, are where a
degenerate witness matters.
"""

from functools import lru_cache

import pytest
from oracles import naive_is_trivial
from test_lattice_rule import CHAINS, LADDER, _path

from tanglekit.fixtures import chain2_system, ptriv_system, random_universes
from tanglekit.forbidden import order_thresholds
from tanglekit.universe import bipartition_universe, graph_universe, restrict_Sk

GRAPHS = {**LADDER, "P7": _path(7)}


@lru_cache(maxsize=None)
def graph(name):
    n, edges = GRAPHS[name]
    return graph_universe(range(n), edges)


SYSTEMS = {
    **{name: (lambda name=name: graph(name)[0]) for name in GRAPHS},
    **{f"B{k}": (lambda k=k: bipartition_universe(range(k))) for k in range(1, 7)},
    **CHAINS,
    "ptriv": ptriv_system,
    "chain2-system": chain2_system,
}


def assert_triviality_by_definition(system):
    els = system.elements()
    want = [h for h in els if naive_is_trivial(system, h)]
    assert [h for h in els if system.is_trivial(h)] == want
    assert [h for h in els if system.is_cotrivial(h)] == sorted(
        system.inv(h) for h in want)
    assert system.trivial_elements() == want


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_triviality_by_definition(name):
    assert_triviality_by_definition(SYSTEMS[name]())


def test_triviality_by_definition_on_random_universes():
    for uni, _ in random_universes():
        assert_triviality_by_definition(uni)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_triviality_by_definition_on_every_Sk(name):
    uni, order = graph(name)
    for k in order_thresholds(uni, order):
        assert_triviality_by_definition(restrict_Sk(uni, order, k))


def test_a_degenerate_separation_witnesses_triviality():
    # P3's (V, V) sits above {a,b,c}|{b,c}, so {b,c}|{a,b,c} is trivial
    uni, _ = graph("P3")
    d = next(h for h in uni.elements() if uni.is_degenerate(h))
    below = [s for s in uni.elements() if s != d and uni.leq(s, d)]
    assert below
    for s in below:
        assert uni.is_trivial(uni.inv(s)) and uni.is_cotrivial(s)
    assert not uni.is_trivial(d)
