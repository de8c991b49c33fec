"""Join and meet as least upper and greatest lower bounds, against the oracles.

Every generator derives its tables from the poset, and given tables pass
only if they equal the derived ones.  The brute-force oracles in
``oracles.py`` read the rule off ``leq`` alone, and the old axiom-by-axiom
validator gives the verdict the library must match.
"""

import json
import random
import sys
import threading
import time
from functools import lru_cache, partial

import pytest
from oracles import (constant_order, corners, from_tables, naive_join_table, naive_meet_table,
                     naive_validate_lattice, pairwise_validate_lattice, table_failure,
                     with_tables)

import tanglekit.universe
from tanglekit.cli import main
from tanglekit.core import SeparationSystem
from tanglekit.errors import SystemValidationError
from tanglekit.fixtures import chain_universe, graph_tangle_stars, random_universes
from tanglekit.forbidden import (
    enumerate_tangles,
    profile_family,
    robustness_family,
    standardize,
)
from tanglekit.orderfn import OrderFunction
from tanglekit.universe import (
    Universe,
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
    "P3": _path(3), "P4": _path(4), "P5": _path(5), "P6": _path(6),
    "C4": _cycle(4), "C5": _cycle(5), "C6": _cycle(6),
    "K4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "K2,3": (5, [(i, 2 + j) for i in range(2) for j in range(3)]),
    "K1,4": (5, [(0, j) for j in range(1, 5)]),
}


@lru_cache(maxsize=None)
def ladder(name):
    n, edges = LADDER[name]
    return graph_universe(range(n), edges)[0]


@lru_cache(maxsize=None)
def randoms():
    return [u for u, _ in random_universes()]


def _replaced(table, cells):
    """A copy of ``table`` with ``cells[(a, b)]`` written at both (a, b) and (b, a)."""
    rows = [list(row) for row in table]
    for (a, b), c in cells.items():
        rows[a][b] = rows[b][a] = c
    return tuple(map(tuple, rows))


def _diamond_pair():
    """0 < 1, 2 < 3, 4 < 5: both 3 and 4 are minimal upper bounds of 1 and 2.

    The involution 0<->5, 1<->3, 2<->4 reverses the order, so this is a
    separation system, but not a lattice.
    """
    leq = [(0, h) for h in range(1, 6)] + [(h, 5) for h in range(1, 5)]
    leq += [(a, b) for a in (1, 2) for b in (3, 4)]
    return SeparationSystem.from_relation([5, 3, 4, 1, 2, 0], leq)


def _diamond_tables():
    """The tables that pick 3 as 1 v 2 and 1 as 3 ^ 4; right everywhere else."""
    s = _diamond_pair()
    n = s.n_ground
    join = [[b if s.leq(a, b) else a if s.leq(b, a) else {1: 3, 3: 5}[min(a, b)]
             for b in range(n)] for a in range(n)]
    meet = [[a if s.leq(a, b) else b if s.leq(b, a) else {1: 0, 3: 1}[min(a, b)]
             for b in range(n)] for a in range(n)]
    return s, join, meet


def planted(name):
    bip2 = bipartition_universe([1, 2])  # 0 = {}, 1 = {1}, 2 = {2}, 3 = {1,2}
    inv, up, labels, (join, meet) = bip2._inv, bip2._up, bip2.labels, bip2._tables
    if name == "noncommutative-join":
        rows = [list(row) for row in join]
        rows[0][1] = 2
        join = tuple(map(tuple, rows))
    elif name == "nonassociative-join":
        # commutative, yet ({} v {1,2}) v {1} != {} v ({1,2} v {1})
        join = _replaced(join, {(0, 3): 0})
    elif name == "wrong-meet":
        meet = _replaced(meet, {(1, 2): 1})
    elif name == "de-morgan":
        # right tables, but the involution pairs {} with {1} and {2} with {1,2}
        inv = (1, 0, 3, 2)
    elif name == "two-minimal-upper-bounds":
        s, join, meet = _diamond_tables()
        inv, up, labels = s._inv, s._up, s.labels
    return with_tables(inv, up, labels, join, meet)


PLANTED = ["noncommutative-join", "nonassociative-join", "wrong-meet", "de-morgan",
           "two-minimal-upper-bounds"]


CHAINS = {f"chain{k}": partial(chain_universe, k) for k in (1, 2, 3, 4)}
CASES = {
    **{f"bip{k}": partial(bipartition_universe, range(1, k + 1)) for k in (2, 3, 4)},
    **{name: partial(ladder, name) for name in LADDER},
    **CHAINS,
    **{f"planted-{name}": partial(planted, name) for name in PLANTED},
}


# -- the library's verdict is the old validator's -------------------------------


@pytest.mark.parametrize("name", list(CASES))
def test_validator_agrees_with_oracle(name):
    uni = CASES[name]()
    want = naive_validate_lattice(uni)
    got = table_failure(uni)
    assert (got is None) == want.ok == (not name.startswith("planted-"))
    assert got is None or got[1] is not None


def test_validator_agrees_with_oracle_on_random_universes():
    for uni in randoms():
        assert table_failure(uni) is None
        assert naive_validate_lattice(uni).ok


def test_planted_defects_are_the_named_ones():
    axioms = {name: {a for a, _ in naive_validate_lattice(planted(name)).failures}
              for name in PLANTED}
    assert "join-commutative" in axioms["noncommutative-join"]
    assert "join-commutative" not in axioms["nonassociative-join"]
    assert "join-associative" in axioms["nonassociative-join"]
    assert "meet-lower-bound" in axioms["wrong-meet"]
    assert axioms["de-morgan"] == {"involution-de-morgan"}
    assert pairwise_validate_lattice(planted("de-morgan")).failures[0][0] == "involution-de-morgan"
    # the derivation names the pair without a least upper bound
    first = table_failure(planted("two-minimal-upper-bounds"))
    assert first == ("join-least-upper-bound", (1, 2))


# -- a document with wrong cells fails where the pairwise loop first fails --------


PLANTING = {**{name: partial(ladder, name) for name in ("P3", "P4", "C4", "K1,4")},
            **{f"B{k}": partial(bipartition_universe, range(k)) for k in (2, 3, 4)}}


def _table_of(cells, n):
    """The symmetric n x n table of a universe document's ``[a, b, c]`` cells."""
    tab = [[-1] * n for _ in range(n)]
    for a, b, c in cells:
        tab[a][b] = tab[b][a] = c
    return tab


@pytest.mark.parametrize("name", [*PLANTING, "random"])
def test_wrong_cells_raise_the_first_pairwise_failure(name):
    # 1-3 join or meet cells get a random handle; where each is the right
    # one, the document reads back and writes the same bytes
    unis = randoms()[:20] if name == "random" else [PLANTING[name]()]
    rng = random.Random(f"cells:{name}")
    raised = 0
    for uni in unis:
        blob = json.dumps(uni.to_json(), sort_keys=True)
        n = uni.n_ground
        for _ in range(60 // len(unis)):
            obj = json.loads(blob)
            for _ in range(rng.randint(1, 3)):
                rng.choice(obj[rng.choice(("join", "meet"))])[2] = rng.randrange(n)
            bad = with_tables(uni._inv, uni._up, uni.labels,
                              _table_of(obj["join"], n), _table_of(obj["meet"], n))
            want = pairwise_validate_lattice(bad)
            try:
                got = Universe.from_json(obj)
            except SystemValidationError as exc:
                assert (exc.axiom, exc.witness) == want.failures[0]
                raised += 1
            else:
                assert want.ok
                assert json.dumps(got.to_json(), sort_keys=True) == blob
    assert raised


# -- every derived table entry is the bound that leq alone finds -----------------


GENERATED = {
    **{name: partial(ladder, name) for name in LADDER},
    **{f"B{k}": partial(bipartition_universe, range(k)) for k in range(1, 6)},
    **CHAINS,
}


def assert_tables_are_bounds(uni):
    els = range(uni.n_ground)
    assert [[uni.join(a, b) for b in els] for a in els] == naive_join_table(uni)
    assert [[uni.meet(a, b) for b in els] for a in els] == naive_meet_table(uni)


@pytest.mark.parametrize("name", list(GENERATED))
def test_generated_tables_are_least_upper_and_greatest_lower_bounds(name):
    assert_tables_are_bounds(GENERATED[name]())


def test_random_universe_tables_are_bounds():
    for uni in randoms():
        assert_tables_are_bounds(uni)


def test_deriving_tables_of_a_non_lattice_raises_with_witness():
    s = _diamond_pair()
    uni = Universe(s._inv, s._up, s.labels)
    with pytest.raises(SystemValidationError) as exc:
        uni.join(1, 2)
    assert exc.value.axiom == "join-least-upper-bound"
    assert exc.value.witness == (1, 2)


# -- the tables are derived on first read, once per universe ----------------------


@pytest.fixture
def derivations(monkeypatch):
    """The sizes of the posets whose tables were derived, one per derivation."""
    calls = []
    derive = tanglekit.universe._lattice_tables

    def counted(up, inv):
        calls.append(len(up))
        return derive(up, inv)

    monkeypatch.setattr(tanglekit.universe, "_lattice_tables", counted)
    return calls


@pytest.mark.parametrize("name", list(LADDER))
def test_graph_inputs_derive_no_tables(name, derivations):
    n, edges = LADDER[name]
    uni, order = graph_universe(range(n), edges)
    stars = graph_tangle_stars(uni, order, range(n), edges, 2)
    s2 = restrict_Sk(uni, order, 2)
    family = standardize(stars, s2)
    stars.to_json()
    family.to_json()
    enumerate_tangles(s2, family)
    assert derivations == []


def all_readers(uni, order, view):
    """Every reader of the tables, on the universe and, where it takes one, on
    the view ``view`` of it."""
    for system in (uni, view):
        is_submodular(system, order)
        is_structurally_submodular(system, order)
        robustness_family(order, target=system)
        profile_family(target=system)
        els = system.elements() or uni.elements()
        corners(system, els[0], els[-1])
    uni.join(0, uni.n_ground - 1)
    uni.meet(0, uni.n_ground - 1)
    uni.to_json()


def test_explicit_tables_are_never_derived(derivations):
    made = bipartition_universe([1, 2, 3])
    join, meet = naive_join_table(made), naive_meet_table(made)
    leq = [(a, b) for a in range(made.n_ground) for b in range(made.n_ground)
           if made.leq(a, b)]
    given = with_tables(made._inv, made._up, made.labels, join, meet)
    checked = from_tables(made._inv, leq, join, meet, made.labels)
    loaded = Universe.from_json(checked.to_json())
    # each checked universe derives its tables once, to compare the given ones
    assert derivations == [made.n_ground] * 2
    for uni in (given, checked, loaded):
        order = OrderFunction(uni, {s: s for s in uni.seps()})
        all_readers(uni, order, restrict_Sk(uni, order, 2))
    assert derivations == [made.n_ground] * 2


def test_each_universe_derives_its_tables_once(derivations):
    cases = [graph_universe(range(n), edges) for n, edges in
             (LADDER["P4"], LADDER["C5"], LADDER["K1,4"])]
    cases += random_universes(count=5)
    for uni, order in cases:
        values = sorted({order.of(h) for h in uni.elements()})
        view = restrict_Sk(uni, order, values[len(values) // 2])
        all_readers(uni, order, view)
        all_readers(uni, order, view)
    assert derivations == [uni.n_ground for uni, _ in cases]


def test_concurrent_first_reads_give_equal_tables():
    n, edges = LADDER["P5"]
    uni = graph_universe(range(n), edges)[0]
    seen = []
    threads = [threading.Thread(target=lambda: seen.append(uni._tables))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    join, meet = tanglekit.universe._lattice_tables(uni._up, uni._inv)
    assert seen == [(tuple(join), tuple(meet))] * 8


NON_LATTICE_READERS = {
    "join": lambda uni: uni.join(0, 5),
    "meet": lambda uni: uni.meet(0, 5),
    "to_json": lambda uni: uni.to_json(),
    "checked": lambda uni: uni._checked((), ()),
    "is_submodular": lambda uni: is_submodular(uni, constant_order(uni)),
}


@pytest.mark.parametrize("reader", list(NON_LATTICE_READERS))
def test_every_reader_of_a_non_lattice_raises_with_witness(reader):
    s = _diamond_pair()
    uni = Universe(s._inv, s._up, s.labels)
    for _ in range(2):  # a failed derivation is not kept
        with pytest.raises(SystemValidationError) as exc:
            NON_LATTICE_READERS[reader](uni)
        assert (exc.value.axiom, exc.value.witness) == ("join-least-upper-bound", (1, 2))


def test_from_tables_rejects_a_non_lattice():
    s, join, meet = _diamond_tables()
    leq = [(a, b) for a in range(s.n_ground) for b in range(s.n_ground) if s.leq(a, b)]
    with pytest.raises(SystemValidationError) as exc:
        from_tables(s._inv, leq, join, meet)
    assert (exc.value.axiom, exc.value.witness) == ("join-least-upper-bound", (1, 2))


def test_cli_rejects_a_universe_json_that_is_not_a_lattice(tmp_path, capsys):
    blob = planted("two-minimal-upper-bounds").to_json()
    (tmp_path / "uni.json").write_text(json.dumps(blob))
    code = main(["validate", "--input", str(tmp_path / "uni.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["axiom"], err["witness"]) == ("join-least-upper-bound", "(1, 2)")


# -- the check stays quadratic ----------------------------------------------------


def test_checking_p7_tables_is_quick():
    uni = graph_universe(range(7), _path(7)[1])[0]
    assert uni.n_ground == 577
    els = range(uni.n_ground)
    leq = [(a, b) for a in els for b in els if uni.leq(a, b)]
    join, meet = uni._tables
    started = time.perf_counter()
    checked = from_tables(uni._inv, leq, join, meet, uni.labels)
    elapsed = time.perf_counter() - started
    assert checked._tables == (join, meet)
    assert elapsed < 5, f"checking P7's tables took {elapsed:.1f}s"
