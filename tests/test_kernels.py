"""The whole-row kernels of the universe layer, each against its definition.

Up- and down-sets, the derived tables, the base-3 perturbation and the
lattice check all compute with whole masks and rows.  The oracles in
``oracles.py`` recompute each one pair by pair from the definition.
"""

import json
import random
from functools import lru_cache
from itertools import combinations

import pytest
from oracles import (
    constant_order,
    default_iota,
    naive_down_sets,
    naive_eclipse_flags,
    naive_first_inside,
    naive_gamma,
    naive_graph_sides,
    naive_graph_tangle_stars,
    naive_is_consistent,
    naive_is_orientation,
    naive_is_star,
    naive_join_table,
    naive_meet_table,
    naive_up_sets,
    pairwise_consistency_witness,
    pairwise_from_relation,
    pairwise_validate_lattice,
    table_failure,
    with_tables,
)
from test_lattice_rule import LADDER, PLANTED, _cycle, _path, _table_of, planted

from tanglekit.core import SeparationSystem, iter_mask, mask_of, transpose
from tanglekit.errors import SystemValidationError
from tanglekit.fixtures import (
    chain2_system,
    chain_universe,
    graph_tangle_stars,
    ptriv_system,
    random_star_family,
    random_universes,
)
from tanglekit.forbidden import _eclipsers, standardize
from tanglekit.ingest import from_relation, universe_from_json
from tanglekit.orderfn import _gamma_fn, _numeral, refine_injective
from tanglekit.universe import _graph_sides, bipartition_universe, graph_universe, restrict_Sk


GRAPHS = {**LADDER, "P7": _path(7), "P8": _path(8), "C8": _cycle(8)}
BIPARTITIONS = [f"B{k}" for k in range(1, 7)]


@lru_cache(maxsize=None)
def universe(name):
    if name.startswith("B"):
        return bipartition_universe(range(int(name[1:]))), None
    n, edges = GRAPHS[name]
    return graph_universe(range(n), edges)


@lru_cache(maxsize=None)
def randoms():
    return random_universes()


def one_element():
    """The bipartition universe of the empty set: one degenerate separation."""
    return bipartition_universe([])


# -- eclipsing -------------------------------------------------------------------


def assert_eclipsing_pairwise(uni, order, rng):
    """_eclipsers of every x within a random mask and within all members, so
    on every oriented pair, against the pairwise definition."""
    els = uni.elements()
    for x in els:
        flags = {y: naive_eclipse_flags(uni, order, y, x) for y in els}
        for mask in (rng.getrandbits(uni.n_ground) & uni.members, uni.members):
            for weak in (False, True):
                want = [y for y in els if mask >> y & 1 and flags[y][weak]]
                assert list(_eclipsers(uni, order, x, mask, weak)) == want, (x, mask, weak)


@pytest.mark.parametrize("name", list(LADDER))
def test_eclipsing_is_the_pairwise_definition_on_the_ladder(name):
    uni, order = universe(name)
    rng = random.Random(name)
    for o in (order, refine_injective(order)):
        assert_eclipsing_pairwise(uni, o, rng)


def test_eclipsing_is_the_pairwise_definition_on_random_universes():
    rng = random.Random(15)
    for uni, order in randoms():
        assert_eclipsing_pairwise(uni, order, rng)
        assert_eclipsing_pairwise(restrict_Sk(uni, order, 2), order, rng)


# -- up-sets and down-sets ------------------------------------------------------


@pytest.mark.parametrize("name", list(GRAPHS) + BIPARTITIONS)
def test_up_and_down_sets_are_pairwise(name):
    uni = universe(name)[0]
    assert list(uni._up) == naive_up_sets(uni, graph=not name.startswith("B"))
    assert list(uni._down) == naive_down_sets(uni)


def test_random_universe_up_and_down_sets_are_pairwise():
    for uni, _ in randoms():
        assert list(uni._up) == naive_up_sets(uni, graph=False)
        assert list(uni._down) == naive_down_sets(uni)


@pytest.mark.parametrize("seps", [0, 1, 4, 9])
def test_chain_universe_up_and_down_sets_are_pairwise(seps):
    # handle h read as the first side {0, ..., h-1}: the chain is inclusion
    uni = chain_universe(seps)
    sides = [(frozenset(range(h)), frozenset()) for h in range(uni.n_ground)]
    assert list(uni._up) == naive_up_sets(uni, graph=False, sides=sides)
    assert list(uni._down) == naive_down_sets(uni)


def test_generators_transpose_only_vertex_wide_matrices(monkeypatch):
    # the order rows come from tables over the vertex sets: a generator
    # transposes its n_ground sides over |V| columns, never an n x n matrix
    shapes = []

    def counted(rows, width):
        shapes.append((len(rows), width))
        return transpose(rows, width)

    monkeypatch.setattr("tanglekit.core.transpose", counted)
    monkeypatch.setattr("tanglekit.universe.transpose", counted)
    built = [(graph_universe(range(n), edges)[0], n, 2) for n, edges in GRAPHS.values()]
    built += [(bipartition_universe(range(k)), k, 1) for k in range(7)]
    built += [(uni, 4, 1) for uni, _ in random_universes()]
    assert len(shapes) == sum(calls for _, _, calls in built)
    for uni, width, calls in built:
        assert width <= 8
        assert shapes[:calls] == [(uni.n_ground, width)] * calls, uni.labels
        del shapes[:calls]
    # a relation has no side masks: its down-sets are the transposed up-sets
    for uni, _, _ in built[:3]:
        from_relation(*relation_of(uni))
        assert shapes == [(uni.n_ground, uni.n_ground)]
        shapes.clear()


# -- a relation read into up-sets ------------------------------------------------


def relation_of(uni):
    """The involution of ``uni`` and its pairs a <= b with a != b, in a list."""
    return uni._inv, [(a, b) for a in range(uni.n_ground)
                      for b in iter_mask(uni._up[a]) if a != b]


def read_both(inv, leq):
    """``from_relation`` and the pairwise oracle on one relation: the up-sets
    each built, or the axiom and witness each raised."""
    out = []
    for read in (from_relation, pairwise_from_relation):
        try:
            out.append(read(inv, leq)._up)
        except SystemValidationError as exc:
            out.append((exc.axiom, exc.witness))
    return out


def relation_cases():
    return ([universe(name)[0] for name in list(LADDER) + BIPARTITIONS]
            + [uni for uni, _ in randoms()])


def test_from_relation_is_the_pairwise_reading():
    rng = random.Random(16)
    for uni in relation_cases():
        inv, leq = relation_of(uni)
        # in any order, with reflexive and repeated pairs
        leq += [(a, a) for a in range(0, uni.n_ground, 3)] + leq[::5]
        rng.shuffle(leq)
        assert read_both(inv, leq) == [uni._up, uni._up]


def test_leq_pairs_are_written_sorted():
    for uni in relation_cases():
        els = range(uni.n_ground)
        want = sorted((a, b) for b in els for a in els if uni.leq(a, b))
        assert uni.to_json()["leq"] == want
        view = uni.restrict(uni.elements()[:2] + [uni.inv(h) for h in uni.elements()[:2]])
        assert view.to_json()["leq"] == want


def strictly_between(uni, a, b):
    return uni._up[a] & uni._down[b] & ~(1 << a | 1 << b)


def planted_relation(uni, axiom, rng):
    """The shuffled relation of ``uni`` with one defect of ``axiom`` at a
    seeded random place; None when ``uni`` has no place for it."""
    inv, leq = relation_of(uni)
    n = uni.n_ground
    rng.shuffle(leq)
    if axiom == "unknown-handle":
        bad = rng.choice([(rng.randrange(n), n + rng.randrange(3)),
                          (-1 - rng.randrange(3), rng.randrange(n))])
        leq.insert(rng.randint(0, len(leq)), bad)
        return inv, leq
    if axiom == "antisymmetry":  # a reversed pair b <= a beside a <= b
        places = leq
    elif axiom == "transitivity":  # drop a <= c, implied by a <= b <= c
        places = [(a, c) for a, c in leq if strictly_between(uni, a, c)]
    else:  # drop a cover a <= b of b* <= a*; its mirror b* <= a* stays
        places = [(a, b) for a, b in leq if b != inv[a] and not strictly_between(uni, a, b)]
    if not places:
        return None
    a, b = rng.choice(places)
    if axiom == "antisymmetry":
        leq.insert(rng.randint(0, len(leq)), (b, a))
    else:
        leq.remove((a, b))
    return inv, leq


@pytest.mark.parametrize("axiom", ["unknown-handle", "antisymmetry", "transitivity",
                                   "involution-order-reversing"])
def test_from_relation_reports_the_pairwise_first_failure(axiom):
    rng = random.Random(axiom)
    seen = set()
    for uni in relation_cases():
        planted = planted_relation(uni, axiom, rng)
        if planted is None:
            continue
        got, want = read_both(*planted)
        assert got == want, uni.labels
        seen.add(want[0])
    # an added b <= a may break transitivity in an earlier row first
    assert axiom in seen


# -- the consistency witness ------------------------------------------------------


def assert_witnesses_pairwise(system, sets):
    for sigma in sets:
        assert (system.consistency_witness(mask_of(sigma))
                == pairwise_consistency_witness(system, sigma)), sorted(sigma)


def random_subsets(system, rng, count):
    els = system.elements()
    return [rng.sample(els, rng.randint(0, min(len(els), 10))) for _ in range(count)]


@pytest.mark.parametrize("name", list(LADDER))
def test_consistency_witness_is_the_first_pair(name):
    uni = universe(name)[0]
    rng = random.Random(name)
    # and the down-set of every element: large sets with many pairs pointing away
    downs = [[h for h in uni.elements() if uni.leq(h, top)] for top in uni.elements()]
    assert_witnesses_pairwise(uni, random_subsets(uni, rng, 300) + downs)


def test_consistency_witness_on_small_systems():
    rng = random.Random(7)
    for system in (ptriv_system(), chain2_system()):
        els = system.elements()
        assert_witnesses_pairwise(system, [
            [h for i, h in enumerate(els) if m >> i & 1] for m in range(1 << len(els))])
    for uni, _ in randoms():
        taus = uni.consistent_orientations()
        assert taus and all(uni.consistency_witness(mask_of(t)) is None for t in taus)
        assert_witnesses_pairwise(
            uni, random_subsets(uni, rng, 30) + [rng.choice(taus) | {h} for h in
                                                 uni.elements()])


# -- the mask forms of the set predicates -----------------------------------------


DESK_GRAPHS = {"P3": _path(3), "C4": _cycle(4), "K4": (4, list(combinations(range(4), 2)))}


def desk_cases():
    """(system, family): S_k of P3, C4 and K4 for every k <= 2 with the
    standardized k=2 stars, then three seeded random universes with random
    eclipse-closed stars."""
    for n, edges in DESK_GRAPHS.values():
        u, o = graph_universe(range(n), edges)
        stars = graph_tangle_stars(u, o, range(n), edges, 2)
        for k in (0, 1, 2):
            sk = restrict_Sk(u, o, k)
            yield sk, standardize(stars, sk)
    rng = random.Random(13)
    for u, o in randoms()[:3]:
        yield u, random_star_family(u, o, rng)


def test_mask_forms_agree_with_the_set_definitions():
    # every subset of the members: first_inside names the member a frozenset
    # scan in witness order finds, and the mask predicates agree with the set
    # definitions (consistency_witness and the oracles)
    for system, family in desk_cases():
        masks = [0]
        for h in system.elements():
            masks += [m | 1 << h for m in masks]
        small = len(masks) <= 1 << 10  # the pair-by-pair oracles, on 10 handles at most
        for mask in masks:
            sigma = frozenset(iter_mask(mask))
            hit = family.first_inside(mask)
            assert (hit if hit is None else frozenset(iter_mask(hit))) == naive_first_inside(
                family, sigma), sorted(sigma)
            consistent = system.is_consistent_mask(mask)
            assert consistent == (system.consistency_witness(mask) is None), sorted(sigma)
            orientation = naive_is_orientation(system, sigma)
            assert system.is_orientation_mask(mask) == orientation, sorted(sigma)
            assert not small or consistent == naive_is_consistent(system, sigma), sorted(sigma)


def orientation_cases():
    """(system, masks): P7's S_3 (64 separations among 577 handles), P8's S_2
    (15 among 1,393) and P3's whole universe, whose (V, V) is degenerate.
    The masks: each consistent orientation, as it is, with one handle
    flipped, and with one handle swapped for the inverse of another; then
    seeded random member masks, of any size and of one handle per separation."""
    rng = random.Random(17)
    for name, k in (("P7", 3), ("P8", 2), ("P3", None)):
        u, o = universe(name)
        system = u if k is None else restrict_Sk(u, o, k)
        inv, els = system._inv, system.elements()
        masks = []
        for tau in map(mask_of, system.consistent_orientations()):
            x, y = rng.sample([*iter_mask(tau)], 2)
            masks += [tau, tau ^ 1 << x ^ 1 << inv[x], tau ^ 1 << x | 1 << inv[y]]
        masks += [rng.getrandbits(u.n_ground) & system.members for _ in range(200)]
        masks += [mask_of(rng.sample(els, len(system))) for _ in range(200)]
        yield system, masks


def test_orientation_test_on_views_narrower_than_their_ground():
    # the mask's own handles decide it, however wide the ground behind them
    for system, masks in orientation_cases():
        got = [system.is_orientation_mask(mask) for mask in masks]
        for mask, orientation in zip(masks, got):
            sigma = frozenset(iter_mask(mask))
            assert orientation == naive_is_orientation(system, sigma), sorted(sigma)
        assert True in got and False in got


# -- graph separations and tangle stars ---------------------------------------------


def random_graphs(count=80, seed=11):
    """Seeded graphs of at most 7 vertices under shuffled names, with isolated
    vertices, self-loops and graphs with no edges among them."""
    rng = random.Random(seed)
    pool = ["a", "b", "c", "d", "e", "f", "g", "v10", "v9", "x,y"]
    graphs = [([], []), (["a"], []), (["b", "a"], [("a", "a")])]
    while len(graphs) < count:
        names = rng.sample(pool, rng.randint(1, 7))
        edges = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.choice((0, rng.randint(1, 12))))]
        graphs.append((names, edges))
    return graphs


def named(name):
    """A GRAPHS entry with its vertices named by strings, as the labels name them."""
    n, edges = GRAPHS[name]
    return list(map(str, range(n))), [(str(a), str(b)) for a, b in edges]


@pytest.mark.parametrize("name", list(GRAPHS))
def test_graph_sides_are_the_assignment_scan(name):
    verts, edges = named(name)
    verts.sort()
    assert _graph_sides(verts, edges) == naive_graph_sides(verts, edges)


def test_graph_sides_of_random_graphs_are_the_assignment_scan():
    for names, edges in random_graphs():
        verts = sorted(names, key=str)
        assert _graph_sides(verts, edges) == naive_graph_sides(verts, edges), (names, edges)


def test_random_graph_up_and_down_sets_are_pairwise():
    for names, edges in random_graphs():
        verts = sorted(names, key=str)
        uni, _ = graph_universe(names, edges)
        # the sides as vertex-name sets: the labels cannot name "x,y"
        sides = [tuple(frozenset(x for i, x in enumerate(verts) if side >> i & 1)
                       for side in ab) for ab in naive_graph_sides(verts, edges)]
        assert list(uni._up) == naive_up_sets(uni, graph=True, sides=sides), (names, edges)
        assert list(uni._down) == naive_down_sets(uni), (names, edges)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(LADDER))
def test_graph_tangle_stars_cover_by_masks(name, k):
    vertices, edges = named(name)
    uni, order = universe(name)
    assert (set(graph_tangle_stars(uni, order, vertices, edges, k))
            == naive_graph_tangle_stars(uni, order, vertices, edges, k))


def test_graph_tangle_stars_of_p7_at_k3():
    vertices, edges = named("P7")
    uni, order = universe("P7")
    stars = set(graph_tangle_stars(uni, order, vertices, edges, 3))
    assert len(stars) == 852
    assert stars == naive_graph_tangle_stars(uni, order, vertices, edges, 3)


def test_graph_tangle_stars_with_a_self_loop():
    # the loop at a lies inside every A-side that holds a
    edges = [("a", "a"), ("a", "b")]
    uni, order = graph_universe("ab", edges)
    assert (set(graph_tangle_stars(uni, order, "ab", edges, 2))
            == naive_graph_tangle_stars(uni, order, "ab", edges, 2))


def test_graph_tangle_stars_with_a_comma_in_a_vertex_name():
    # the label "{w,x,y}|..." cannot tell x,y from two vertices; the sides can.
    # Sorted by name, w < x,y < z as a < b < c, so both graphs share handles.
    vertices, edges = ["x,y", "z", "w"], [("x,y", "z"), ("z", "w")]
    plain = [("b", "c"), ("c", "a")]
    uni, order = graph_universe(vertices, edges)
    for k in (2, 3):
        want = naive_graph_tangle_stars(*graph_universe("abc", plain), "abc", plain, k)
        assert set(graph_tangle_stars(uni, order, vertices, edges, k)) == want


def test_graph_tangle_stars_of_another_graph_are_refused():
    uni, order = graph_universe("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(SystemValidationError) as err:
        graph_tangle_stars(uni, order, "abcd", [("a", "b"), ("b", "c"), ("c", "d")], 2)
    assert err.value.axiom == "graph-universe-sides"


def test_transpose_of_a_rectangular_bit_matrix():
    rng = random.Random(7)
    for rows, width in ((5, 3), (3, 9), (1, 1), (4, 0), (0, 4)):
        matrix = [rng.getrandbits(width) if width else 0 for _ in range(rows)]
        want = [sum(1 << a for a in range(rows) if (matrix[a] >> b) & 1)
                for b in range(width)]
        assert transpose(matrix, width) == want


# -- the star row -----------------------------------------------------------------
#
# ``is_star_mask`` tests each handle's ``_star_row``, which ``graph_tangle_stars``
# also reads; ``naive_is_star`` is the pairwise test on ``leq`` alone.


def assert_stars_pairwise(system, size):
    """is_star_mask against naive_is_star on every set of ``size`` member handles."""
    for sigma in combinations(system.elements(), size):
        assert system.is_star_mask(mask_of(sigma)) == naive_is_star(system, sigma), sigma


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(LADDER))
def test_star_rows_are_pairwise_on_the_ladder(name, k):
    uni, order = universe(name)
    sk = restrict_Sk(uni, order, k)
    for size in (1, 2, 3) if k == 2 else (1, 2):
        assert_stars_pairwise(sk, size)


@pytest.mark.parametrize("name", ["P7", *BIPARTITIONS])
def test_star_rows_are_pairwise_on_p7_and_bipartitions(name):
    uni, order = universe(name)
    system = uni if order is None else restrict_Sk(uni, order, 3)
    for size in (1, 2):
        assert_stars_pairwise(system, size)


def test_star_rows_are_pairwise_on_random_universes():
    for uni, _ in randoms():
        for size in (1, 2, 3):
            assert_stars_pairwise(uni, size)


# -- derived tables ---------------------------------------------------------------
#
# test_lattice_rule.py checks both tables against naive_join_table and
# naive_meet_table on the ladder, B1-B5, the chains and the random universes.


def assert_tables_are_bounds(uni):
    els = range(uni.n_ground)
    assert [[uni.join(a, b) for b in els] for a in els] == naive_join_table(uni)
    assert [[uni.meet(a, b) for b in els] for a in els] == naive_meet_table(uni)


def test_derived_meet_on_b6_is_the_greatest_lower_bound():
    assert_tables_are_bounds(universe("B6")[0])


@pytest.mark.parametrize("name", ["P7", "C8"])
def test_derived_meet_has_the_intersected_down_set(name):
    # naive_meet_table is too slow here; read the greatest lower bound off
    # the down-sets, pair by pair, without the involution
    uni = universe(name)[0]
    down = naive_down_sets(uni)
    handle = {m: h for h, m in enumerate(down)}
    for a in range(uni.n_ground):
        assert list(uni._tables[1][a]) == [handle[down[a] & db] for db in down]


def test_one_element_universe():
    uni = one_element()
    assert uni._tables == (((0,),), ((0,),))
    assert table_failure(uni) is None
    assert_tables_are_bounds(uni)
    refined = refine_injective(constant_order(uni, 1))
    assert refined.to_json()["orders"] == {"0": "1/1"}


# -- the base-3 perturbation -------------------------------------------------------


@pytest.mark.parametrize("name", ["P3", "P4", "C5", "K4", "B3", "B4"])
def test_gamma_is_the_sum_definition(name):
    uni = universe(name)[0]
    gamma3, iota = _gamma_fn(uni), default_iota(uni)
    for s in uni.elements():
        assert gamma3(s) == naive_gamma(uni, 3, iota, s)


def test_gamma_on_a_restricted_view():
    uni, order = universe("P4")
    view = restrict_Sk(uni, order, 2)
    assert view.members != uni.members
    gamma3, iota = _gamma_fn(view), default_iota(view)
    for s in view.elements():
        assert gamma3(s) == naive_gamma(view, 3, iota, s)


def test_chunked_numeral_of_a_10000_bit_mask():
    mask = random.Random(10_000).getrandbits(10_000) | 1 << 9_999
    digits = format(mask, "b")
    assert len(digits) == 10_000  # past the 4300-digit limit of int(s, 3)
    want = sum(3 ** i for i in range(10_000) if (mask >> i) & 1)
    assert _numeral(digits) == want
    assert _numeral("") == 0


def test_refine_injective_makes_no_leq_call(monkeypatch):
    uni, order = universe("P4")
    calls = []
    leq = SeparationSystem.leq

    def counted(self, a, b):
        calls.append((a, b))
        return leq(self, a, b)

    monkeypatch.setattr(SeparationSystem, "leq", counted)
    refine_injective(order)
    _gamma_fn(uni)(0)
    assert calls == []


# -- checking given tables, row by row ---------------------------------------------


def first_raised(report):
    """The failure that checking the tables raises: the pairwise oracle's
    first, past its commutativity checks.  A JSON table is symmetric, so the
    library has none; a lopsided cell fails by its bound."""
    return next(f for f in report.failures if not f[0].endswith("-commutative"))


@pytest.mark.parametrize("name", PLANTED)
def test_failure_lists_on_planted_defects(name):
    uni = planted(name)
    want = pairwise_validate_lattice(uni)
    assert not want.ok
    got = table_failure(uni)
    if name == "de-morgan":
        # the re-paired involution does not reverse the order: no separation
        # system carries these tables
        assert got[0] == "involution-order-reversing"
    else:
        assert got == first_raised(want)


def _one_sided(table, a, b, c):
    rows = [list(row) for row in table]
    rows[a][b] = c
    return rows


def corrupted(uni, axiom, a, b):
    """``uni`` with table cells rewritten so that ``axiom`` fails at (a, b).

    The commutativity cases write only (a, b), which a JSON table cannot
    express; ``from_tables`` fails the cell by its bound.  The other cases go
    through the universe JSON, which writes both (a, b) and (b, a), and must
    stop there with the pairwise loop's first failure.  The De Morgan case
    rewrites the meet of a* and b*, which (a v b)* = a* ^ b* reads.
    """
    n = uni.n_ground
    (join, meet), inv = uni._tables, uni._inv
    if axiom in ("join-commutative", "meet-commutative"):
        bound = axiom.startswith("join")
        tables = (_one_sided(join, a, b, (join[a][b] + 1) % n) if bound else join,
                  meet if bound else _one_sided(meet, a, b, (meet[a][b] + 1) % n))
        bad = with_tables(inv, uni._up, uni.labels, *tables)
        want = pairwise_validate_lattice(bad)
        name = "join-least-upper-bound" if bound else "meet-greatest-lower-bound"
        assert (name, (a, b)) in want.failures
        assert table_failure(bad) == first_raised(want)
        return bad
    name, (x, y) = (("join", (a, b)) if axiom == "join-least-upper-bound" else
                    ("meet", (a, b)) if axiom == "meet-greatest-lower-bound" else
                    ("meet", (inv[a], inv[b])))
    obj = json.loads(json.dumps(uni.to_json()))
    cell = next(c for c in obj[name] if c[:2] == [min(x, y), max(x, y)])
    cell[2] = (cell[2] + 1) % n
    bad = with_tables(inv, uni._up, uni.labels, _table_of(obj["join"], n),
                      _table_of(obj["meet"], n))
    first = pairwise_validate_lattice(bad).failures[0]
    with pytest.raises(SystemValidationError) as exc:
        universe_from_json(obj)
    assert (exc.value.axiom, exc.value.witness) == table_failure(bad) == first
    return bad


AXIOMS = ["join-commutative", "meet-commutative", "join-least-upper-bound",
          "meet-greatest-lower-bound", "involution-de-morgan"]


@pytest.mark.parametrize("axiom", AXIOMS)
@pytest.mark.parametrize("name", ["B3", "P3", "K4"])
def test_failure_lists_with_one_corrupted_cell(axiom, name):
    uni = universe(name)[0]
    els, inv = range(uni.n_ground), uni._inv
    # De Morgan fails first where the rewritten meet of a* and b* lies in a
    # later row than a and b
    pairs = [(a, b) for a in els for b in els if a != b
             and not (axiom == "involution-de-morgan"
                      and (inv[a] in (a, b) or min(inv[a], inv[b]) < min(a, b)))]
    seen = set()
    for a, b in random.Random(f"{name}:{axiom}").sample(pairs, 3):
        seen |= {x for x, _ in pairwise_validate_lattice(corrupted(uni, axiom, a, b)).failures}
    assert axiom in seen


def test_failure_lists_capped_at_twenty():
    uni = universe("P4")[0]
    n = uni.n_ground
    zeros = [[0] * n for _ in range(n)]
    bad = with_tables(uni._inv, uni._up, uni.labels, zeros, zeros)
    want = pairwise_validate_lattice(bad)
    assert len(want.failures) == 20
    assert table_failure(bad) == first_raised(want)
