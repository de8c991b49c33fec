"""Lattice validation, generators, submodularity checks, corners."""

from fractions import Fraction

import pytest
from oracles import (corners, from_tables, is_submodular_subsystem, pairwise_validate_lattice,
                     table_failure, with_tables)

from tanglekit.errors import SystemValidationError
from tanglekit.fixtures import random_universes
from tanglekit.orderfn import OrderFunction
from tanglekit.universe import (
    Universe,
    bipartition_universe,
    is_structurally_submodular,
    is_submodular,
    restrict_Sk,
)


def by_label(u):
    return {u.label(h): h for h in u.elements()}


# -- lattice validation --------------------------------------------------------


@pytest.mark.parametrize("name", ["bip2", "bip3", "p3"])
def test_lattice_axioms_pass(request, name):
    obj = request.getfixturevalue(name)
    u = obj[0] if isinstance(obj, tuple) else obj
    assert table_failure(u) is None


def test_planted_noncommutative_join_fails(bip2):
    join, meet = bip2._tables
    join = [list(row) for row in join]
    join[0][1] = 2
    broken = with_tables(bip2._inv, bip2._up, bip2.labels, join, meet)
    assert pairwise_validate_lattice(broken).failures[0] == ("join-commutative", (0, 1))
    # the library has no commutativity check: the cell fails by its bound
    assert table_failure(broken) == ("join-least-upper-bound", (0, 1))


def test_from_tables_validates():
    with pytest.raises(SystemValidationError):
        from_tables([1, 0], [(0, 1)], [[0, 0], [0, 1]], [[0, 1], [1, 1]])


# -- bipartition universes --------------------------------------------------------


def test_bipartition_singleton_counts():
    u = bipartition_universe([1])
    assert len(u.elements()) == 2 and len(u) == 1


def test_bipartition_three_counts(bip3):
    assert len(bip3.elements()) == 8 and len(bip3) == 4


def test_bipartition_minimum(bip3):
    bottom = by_label(bip3)["{}|{1,2,3}"]
    assert all(bip3.leq(bottom, h) for h in bip3.elements())


def test_bipartition_join_meet_are_set_ops(bip3):
    lab = by_label(bip3)
    a, b = lab["{1}|{2,3}"], lab["{2}|{1,3}"]
    assert bip3.label(bip3.join(a, b)) == "{1,2}|{3}"
    assert bip3.label(bip3.meet(a, b)) == "{}|{1,2,3}"


# -- graph universes ---------------------------------------------------------------


def test_p3_separator_order(p3):
    u, o = p3
    assert o.of(by_label(u)["{a,b}|{b,c}"]) == 1


def test_degenerate_order_is_vertex_count(p3):
    u, o = p3
    assert o.of(by_label(u)["{a,b,c}|{a,b,c}"]) == 3


def test_p3_standard_order_submodular(p3):
    u, o = p3
    ok, _ = is_submodular(u, o)
    assert ok


def test_p4_standard_order_submodular(p4):
    u, o = p4
    ok, _ = is_submodular(u, o)
    assert ok


# -- restriction by order thresholds -------------------------------------------------


def test_restrict_below_min_is_empty(p3):
    u, o = p3
    assert restrict_Sk(u, o, 0).elements() == []


def test_restrict_infinite_sentinel(p3):
    u, o = p3
    assert u.restrict(u.members).members == u.members


def test_restrict_k1_only_separator_free(p3):
    u, o = p3
    s1 = restrict_Sk(u, o, 1)
    assert {u.label(h) for h in s1.elements()} == {"{}|{a,b,c}", "{a,b,c}|{}"}


def test_sk_submodular_subsystem_under_structural_order(p3):
    u, o = p3
    for k in (1, 2, 3):
        assert is_submodular_subsystem(restrict_Sk(u, o, k))


# -- submodularity checkers -----------------------------------------------------------


def test_submodular_implies_structurally(p3, bip3):
    u, o = p3
    assert is_submodular(u, o)[0]
    assert is_structurally_submodular(u, o)[0]


def test_structural_survives_monotone_composition(p3):
    u, o = p3
    cubed = OrderFunction(u, {s: o.of(s) ** 3 for s in u.seps()})
    assert is_structurally_submodular(u, cubed)[0]


def test_planted_nonsubmodular_witness(bip2):
    lab = by_label(bip2)
    vals = {bip2.sep(h): Fraction(0) for h in bip2.elements()}
    vals[bip2.sep(lab["{1,2}|{}"])] = Fraction(5)
    bad = OrderFunction(bip2, vals)
    ok, witness = is_submodular(bip2, bad)
    assert not ok and witness is not None
    a, b = witness
    assert bad.of(bip2.join(a, b)) + bad.of(bip2.meet(a, b)) > bad.of(a) + bad.of(b)


def test_random_cut_orders_submodular():
    for u, o in random_universes(count=12, seed=7):
        assert is_submodular(u, o)[0]


# -- corners ----------------------------------------------------------------------------


def test_corners_of_equal_arguments(bip3):
    lab = by_label(bip3)
    r = lab["{1}|{2,3}"]
    rep = corners(bip3, r, bip3.inv(r))
    assert rep.corners == {bip3.sep(r)}


def test_corners_nested_pair_stay_among_extremes(bip3):
    lab = by_label(bip3)
    r, s = lab["{}|{1,2,3}"], lab["{1,2}|{3}"]
    rep = corners(bip3, r, s)
    extremes = {bip3.sep(lab["{}|{1,2,3}"]), bip3.sep(lab["{1,2,3}|{}"])}
    allowed = {bip3.sep(r), bip3.sep(s)} | extremes
    assert rep.corners <= allowed


def test_corners_of_chained_pair_collapse():
    from tanglekit.fixtures import chain_universe
    u = chain_universe(3)
    rep = corners(u, 0, 2)
    assert rep.corners <= {u.sep(0), u.sep(2)}


def test_corners_crossing_bipartitions_distinct(bip4):
    lab = by_label(bip4)
    r, s = lab["{1,2}|{3,4}"], lab["{1,3}|{2,4}"]
    rep = corners(bip4, r, s)
    assert len(rep.corners) == 4
    assert {bip4.label(h) for h in rep.slots.values()} == {
        "{1}|{2,3,4}", "{2}|{1,3,4}", "{3}|{1,2,4}", "{4}|{1,2,3}"}


def cross_lemma_holds(u, o, r, s):
    """Two adjacent corners on the same side of r with order < |r|, or of s."""
    rep = corners(u, r, s)
    for i, ref in enumerate((r, s)):
        for side in "+-":  # the two slots that take ref's orientation ``side``
            t1, t2 = (rep.slots[k] for k in rep.slots if k[i] == side)
            if o.of(t1) < o.of(ref) and o.of(t2) < o.of(ref):
                return True
    return False


def test_cross_corner_lemma_on_random_universes():
    # crossing pairs under a structurally submodular order admit a cheap
    # adjacent corner pair; exhaustive over the seeded random fixtures
    checked = 0
    for u, o in random_universes(count=25, seed=11):
        if not is_structurally_submodular(u, o)[0]:
            continue
        seps = u.seps()
        for i, r in enumerate(seps):
            for s in seps[i + 1:]:
                if u.is_nested(r, s):
                    continue
                assert cross_lemma_holds(u, o, r, s)
                checked += 1
    assert checked > 10


def test_universe_json_round_trip(bip2):
    blob = bip2.to_json()
    back = Universe.from_json(blob)
    assert back.to_json() == blob
    assert pairwise_validate_lattice(back.ground).ok


def test_random_universes_satisfy_all_axioms():
    for u, o in random_universes(count=15, seed=123):
        assert pairwise_validate_lattice(u).ok
        for a in u.elements():
            for b in u.elements():
                if u.leq(a, b):
                    assert u.leq(u.inv(b), u.inv(a))
        # threshold restrictions of structurally submodular orders are
        # submodular subsystems
        if is_structurally_submodular(u, o)[0]:
            for k in sorted({o.of(s) for s in u.seps()}):
                assert is_submodular_subsystem(restrict_Sk(u, o, k))
