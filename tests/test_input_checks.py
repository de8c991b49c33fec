"""One planted input per input check or count guard that no other test reaches,
and the P6 input past the exclusion check's count guard, which is gone.

Each test names the axiom, handle or message the check must report.
"""

import json

import pytest
from oracles import corners, is_submodular_subsystem, lemma_shift_select, naive_without_trivial

from tanglekit.cli import main
from tanglekit.duality import dichotomy, emulates, newduality, shift_map
from tanglekit.errors import (
    BoundExceeded,
    PreconditionError,
    SystemValidationError,
    UnknownHandle,
)
from tanglekit.fixtures import (
    chain2_system,
    graph_tangle_stars,
    p3_universe,
)
from tanglekit.forbidden import ForbiddenFamily, profile_family, robustness_family, standardize
from tanglekit.ingest import (
    from_relation,
    order_from_json,
    stree_from_json,
    tree_from_json,
    universe_from_json,
)
from tanglekit.orderfn import OrderFunction, refine_injective
from tanglekit.stree import stree_excludes_tangles
from tanglekit.tot import check_tot_hypotheses, tree_of_tangles, tree_of_tangles_in
from tanglekit.tst import SeparationTree
from tanglekit.universe import (
    _universe_of,
    bipartition_universe,
    graph_universe,
    is_structurally_submodular,
    is_submodular,
    restrict_Sk,
)


def axiom_and_witness(call):
    with pytest.raises(SystemValidationError) as exc:
        call()
    return exc.value.axiom, exc.value.witness


def unknown_handle(call):
    with pytest.raises(UnknownHandle) as exc:
        call()
    return exc.value.handle


@pytest.fixture(scope="module")
def p3_s2():
    """P3's S_2 (5 separations) with an injective order."""
    u, o = p3_universe()
    o2 = refine_injective(o)
    return u, o2, restrict_Sk(u, o2, 2)


# -- separation systems -----------------------------------------------------------


def test_from_relation_rejects_an_involution_that_is_no_permutation():
    got = axiom_and_witness(lambda: from_relation([1, 1], []))
    assert got == ("involution-permutation", (1, 1))


def test_from_relation_rejects_a_pair_with_an_unknown_handle():
    got = axiom_and_witness(lambda: from_relation([1, 0], [(0, 2)]))
    assert got == ("unknown-handle", (0, 2))


def test_restrict_rejects_a_handle_outside_the_view():
    view = chain2_system().restrict({0, 1})
    assert unknown_handle(lambda: view.restrict({0, 1, 2, 3})) == 2


def test_restrict_rejects_members_not_closed_under_the_involution():
    got = axiom_and_witness(lambda: chain2_system().restrict({0}))
    assert got == ("involution-closed-members", 0)


def test_separation_tree_needs_a_single_root():
    got = axiom_and_witness(
        lambda: SeparationTree(chain2_system(), [-1, -1], [-1, -1]))
    assert got == ("tree-single-root", [0, 1])


@pytest.mark.parametrize("parent,want", [
    ([-1, 2, 1], 1),  # 1 and 2 are each other's parent
    ([-1, 0, 3], 2),  # 2's parent is no node
], ids=["cycle", "parent-outside"])
def test_separation_tree_needs_every_node_below_the_root(parent, want):
    got = axiom_and_witness(lambda: SeparationTree(chain2_system(), parent, [-1, 0, 1]))
    assert got == ("tree-connected", want)


@pytest.mark.parametrize("beta,want", [
    ({"1": 0}, 2),  # 2 has no label
    ({"1": 0, "2": 4}, 2),  # 4 is no handle of the chain's four
    ({"1": 0, "2": True}, 2),  # JSON true is no handle, though Python reads it as 1
], ids=["missing", "outside", "true"])
def test_separation_tree_read_back_needs_a_handle_on_every_edge(beta, want):
    obj = {"schema": "tanglekit/tree-v1", "root": 0, "beta": beta,
           "nodes": [{"id": 0, "children": [1, 2]}, {"id": 1, "children": []},
                     {"id": 2, "children": []}]}
    got = axiom_and_witness(lambda: tree_from_json(chain2_system(), obj))
    assert got == ("tree-edge-label", want)


@pytest.mark.parametrize("nodes,axiom,want", [
    ([{"id": 0, "children": [-1]}, {"id": 1, "children": []}], "tree-child", -1),
    ([{"id": 0, "children": [2]}, {"id": 1, "children": []}], "tree-child", 2),
    ([{"id": 0, "children": [1, 2]}, {"id": 1, "children": [2]}, {"id": 2, "children": []}],
     "tree-child", 2),
    ([{"id": 0, "children": [1]}, {"id": 5, "children": []}], "tree-node-id", 5),
    ([{"id": 0, "children": [1]}, {"id": True, "children": []}], "tree-node-id", True),
    ([{"id": 0, "children": [True]}, {"id": 1, "children": []}], "tree-child", True),
], ids=["child-minus-one", "child-outside", "two-parents", "id-not-index", "id-true",
        "child-true"])
def test_separation_tree_read_back_needs_each_node_once_by_its_index(nodes, axiom, want):
    # each was read back as a tree or failed with IndexError: -1 indexes the
    # last node, 2 is past the end, the second parent overwrites the first,
    # a stray id is never read, and JSON true passed as node 1
    beta = {str(v): 0 for v in range(1, len(nodes))}
    obj = {"schema": "tanglekit/tree-v1", "root": 0, "nodes": nodes, "beta": beta}
    got = axiom_and_witness(lambda: tree_from_json(chain2_system(), obj))
    assert got == (axiom, want)


@pytest.mark.parametrize("key", ["5", "x", "-1", "0"],
                         ids=["outside", "not-a-number", "minus-one", "root"])
def test_separation_tree_read_back_needs_each_label_on_a_non_root_node(key):
    # each failed with IndexError or ValueError, or was read back as a tree
    # whose to_json() is not the document: -1 relabels the last node, and a
    # label on the root is kept but never written
    obj = {"schema": "tanglekit/tree-v1", "root": 0, "beta": {"1": 0, key: 1},
           "nodes": [{"id": 0, "children": [1]}, {"id": 1, "children": []}]}
    got = axiom_and_witness(lambda: tree_from_json(chain2_system(), obj))
    assert got == ("tree-beta-key", key)


@pytest.mark.parametrize("key,value,axiom", [
    ("schema", "nope", "tree-schema"),
    ("root", 1, "tree-root"),
    ("root", True, "tree-root"),
], ids=["schema", "root-not-the-root", "root-not-an-id"])
def test_separation_tree_read_back_needs_its_own_schema_and_root(key, value, axiom):
    # each was read back as a tree rooted at 0, whose to_json() is not the
    # document: from_json read neither key
    obj = {"schema": "tanglekit/tree-v1", "root": 0, "beta": {"1": 0},
           "nodes": [{"id": 0, "children": [1]}, {"id": 1, "children": []}], key: value}
    got = axiom_and_witness(lambda: tree_from_json(chain2_system(), obj))
    assert got == (axiom, value)


TREE_DOCUMENT = {"schema": "tanglekit/tree-v1", "root": 0, "beta": {"1": 0},
                 "nodes": [{"id": 0, "children": [1]}, {"id": 1, "children": []}]}
STREE_DOCUMENT = {"schema": "tanglekit/stree-v1", "nodes": 2, "alpha": {"0>1": 0, "1>0": 1}}


@pytest.mark.parametrize("reader,obj,axiom,witness", [
    (tree_from_json, [TREE_DOCUMENT], "tree-document", [TREE_DOCUMENT]),
    (tree_from_json, {k: v for k, v in TREE_DOCUMENT.items() if k != "nodes"},
     "tree-nodes", None),
    (tree_from_json, {**TREE_DOCUMENT, "beta": [0]}, "tree-beta", [0]),
    (tree_from_json, {**TREE_DOCUMENT, "nodes": [[0, [1]], {"id": 1, "children": []}]},
     "tree-node", [0, [1]]),
    (tree_from_json, {**TREE_DOCUMENT, "nodes": [{"id": 0, "children": 1},
                                                 {"id": 1, "children": []}]},
     "tree-children", 1),
    (stree_from_json, [STREE_DOCUMENT], "stree-document", [STREE_DOCUMENT]),
    (stree_from_json, {k: v for k, v in STREE_DOCUMENT.items() if k != "nodes"},
     "stree-nodes", None),
    (stree_from_json, {**STREE_DOCUMENT, "alpha": [0, 1]}, "stree-alpha", [0, 1]),
], ids=["tree-not-an-object", "tree-nodes-missing", "tree-beta-a-list", "tree-node-a-list",
        "tree-children-not-a-list", "stree-not-an-object", "stree-nodes-missing",
        "stree-alpha-a-list"])
def test_tree_read_back_needs_containers_of_the_written_types(reader, obj, axiom, witness):
    # each raised AttributeError, KeyError or TypeError, not an exit-1 report;
    # the document each one changes reads back as it is
    base = TREE_DOCUMENT if reader is tree_from_json else STREE_DOCUMENT
    assert reader(chain2_system(), base).to_json() == base
    assert axiom_and_witness(lambda: reader(chain2_system(), obj)) == (axiom, witness)


def p3_stree_document(p3_s2, **changes):
    """A two-node S-tree over P3 in JSON, with ``changes`` to its keys."""
    u, _, _ = p3_s2
    h = u.elements()[3]
    obj = {"schema": "tanglekit/stree-v1", "nodes": 2, "alpha": {"0>1": h, "1>0": u.inv(h)}}
    assert stree_from_json(u, obj).to_json() == obj
    return u, {**obj, **changes}


@pytest.mark.parametrize("key", ["0-1", "x>1", "0>1>0", "01>1"],
                         ids=["no-arrow", "not-a-number", "two-arrows", "leading-zero"])
def test_stree_read_back_needs_each_key_an_edge_of_decimal_ids(p3_s2, key):
    # "0-1" and "x>1" raised ValueError, "0>1>0" too, and "01>1" was read
    # as "1>1"
    u, obj = p3_stree_document(p3_s2)
    obj["alpha"] = {key: obj["alpha"]["0>1"], "1>0": obj["alpha"]["1>0"]}
    assert axiom_and_witness(lambda: stree_from_json(u, obj)) == ("stree-alpha-key", key)


@pytest.mark.parametrize("nodes", ["2", -1, True], ids=["string", "negative", "bool"])
def test_stree_read_back_needs_a_node_count(p3_s2, nodes):
    # "2" raised TypeError; -1 and True were taken as counts, so the two
    # nodes of the edges were reported out of range
    u, obj = p3_stree_document(p3_s2, nodes=nodes)
    assert axiom_and_witness(lambda: stree_from_json(u, obj)) == ("stree-nodes", nodes)


@pytest.mark.parametrize("label", [999, -1, "3"], ids=["past-the-end", "minus-one", "string"])
def test_stree_read_back_needs_a_ground_handle_on_every_edge(p3_s2, label):
    # 999 raised IndexError, -1 indexed from the end, "3" raised TypeError
    u, obj = p3_stree_document(p3_s2)
    obj["alpha"] = {**obj["alpha"], "0>1": label}
    assert axiom_and_witness(lambda: stree_from_json(u, obj)) == ("stree-edge-label", (0, 1))


def test_stree_read_back_needs_its_own_schema(p3_s2):
    u, obj = p3_stree_document(p3_s2, schema="nope")
    assert axiom_and_witness(lambda: stree_from_json(u, obj)) == ("stree-schema", "nope")
    del obj["schema"]
    assert stree_from_json(u, obj).n_nodes == 2


# -- universes ----------------------------------------------------------------------


def test_universe_json_rejects_a_missing_table_cell():
    uni, _ = p3_universe()
    obj = uni.to_json()
    obj["join"] = obj["join"][1:]
    got = axiom_and_witness(lambda: universe_from_json(obj))
    assert got == ("lattice-tables-total", None)


def test_universe_json_rejects_a_pair_given_two_values():
    uni, _ = p3_universe()
    obj = uni.to_json()
    a, b, c = obj["meet"][3]
    obj["meet"].append([b, a, c])  # the same pair and value, mirrored
    assert universe_from_json(obj).ground.meet(a, b) == c
    obj["meet"].append([b, a, (c + 1) % uni.n_ground])
    got = axiom_and_witness(lambda: universe_from_json(obj))
    assert got == ("table-cell-repeated", (a, b))


def test_bipartition_universe_refuses_a_ground_set_over_the_bound():
    with pytest.raises(BoundExceeded, match="ground set of 3 exceeds bound 2"):
        bipartition_universe("abc", bound=2)


def test_bipartition_universe_refuses_a_repeated_name():
    # labels name the points by str, so 1 and "1" are one name too
    assert axiom_and_witness(lambda: bipartition_universe("aba")) == (
        "ground-set-distinct", "a")
    assert axiom_and_witness(lambda: bipartition_universe([1, "1"]))[0] == (
        "ground-set-distinct")


def test_graph_universe_refuses_a_graph_over_the_bound():
    with pytest.raises(BoundExceeded, match="3 vertices exceed bound 2"):
        graph_universe("abc", [("a", "b")], bound=2)


def test_universe_of_rejects_a_plain_system():
    with pytest.raises(PreconditionError,
                       match=r"^the caller needs a universe \(joins and meets\)$"):
        _universe_of(chain2_system(), "the caller")


def test_corners_reject_a_handle_outside_the_view(p3_s2):
    u, _, s2 = p3_s2
    outside = next(h for h in u.elements() if not s2.contains(h))
    assert unknown_handle(lambda: corners(s2, s2.elements()[0], outside)) == outside


# -- order functions ----------------------------------------------------------------


def test_order_function_rejects_an_unknown_handle():
    values = {0: 1, 2: 1, 4: 1}
    assert unknown_handle(lambda: OrderFunction(chain2_system(), values)) == 4


def test_order_function_must_be_total():
    got = axiom_and_witness(lambda: OrderFunction(chain2_system(), {0: 1}))
    assert got == ("order-function-total", 2)


def test_order_function_orientations_must_agree():
    # P3: handle 9 is the inverse of handle 0, so the two keys name one separation
    u, o = p3_universe()
    values = {s: o.of(s) for s in u.seps()}
    got = axiom_and_witness(lambda: OrderFunction(u, {**values, 0: 1, 9: 7}))
    assert got == ("order-orientations-disagree", 9)
    orders = {**{str(s): str(v) for s, v in values.items()}, "0": "1", "9": "7"}
    got = axiom_and_witness(lambda: order_from_json(u, {"orders": orders}))
    assert got == ("order-orientations-disagree", 9)
    # either orientation may be the key, and both may be when they agree
    del values[0]
    want = OrderFunction(u, {**values, 0: 5}).to_json()
    for keyed in ({**values, 9: 5}, {**values, 0: 5, 9: 5}, {**values, 9: 5, 0: 5}):
        order = OrderFunction(u, keyed)
        assert order.of(0) == order.of(9) == 5
        assert order.to_json() == want


def test_order_json_without_orders_is_a_schema_error():
    axiom, _ = axiom_and_witness(lambda: order_from_json(chain2_system(), {}))
    assert axiom == "schema"


# -- hypotheses and count guards ------------------------------------------------------


def test_tot_hypotheses_need_a_universe():
    system = chain2_system()
    with pytest.raises(PreconditionError,
                       match="the tree-of-tangles theorem needs a universe"):
        check_tot_hypotheses(system, OrderFunction(system, {0: 1, 2: 2}),
                             ForbiddenFamily([]))


# Each library call that reads joins or meets, with the name it stops under.
# Arguments: the plain chain system, its injective order and the empty family.
NEEDS_A_UNIVERSE = {
    "robustness_family": ("generator R", lambda s, o, f: robustness_family(o, target=s)),
    "profile_family": ("generator profiles", lambda s, o, f: profile_family(target=s)),
    "refine_injective": ("submodularity", lambda s, o, f: refine_injective(o)),
    "is_submodular": ("submodularity", lambda s, o, f: is_submodular(s, o)),
    "is_structurally_submodular": (
        "structural submodularity", lambda s, o, f: is_structurally_submodular(s, o)),
    "is_submodular_subsystem": (
        "subsystem submodularity", lambda s, o, f: is_submodular_subsystem(s)),
    "corners": ("corners", lambda s, o, f: corners(s, 0, 2)),
    "shift_map": ("shifting", lambda s, o, f: shift_map(s, 0, 2, 0)),
    "emulates": ("shifting", lambda s, o, f: emulates(s, 0, 2)),
    "lemma_shift_select": (
        "shifting", lambda s, o, f: lemma_shift_select(s, o, {0, 2}, {2}, 2)),
    "newduality": ("newduality", lambda s, o, f: newduality(s, o, f)),
    "check_tot_hypotheses": (
        "the tree-of-tangles theorem", lambda s, o, f: check_tot_hypotheses(s, o, f)),
    "tree_of_tangles": (
        "the tree-of-tangles theorem", lambda s, o, f: tree_of_tangles(s, o, f)),
    "tree_of_tangles_in": (
        "the tree-of-tangles theorem", lambda s, o, f: tree_of_tangles_in(s, o, f)),
}


@pytest.mark.parametrize("call", sorted(NEEDS_A_UNIVERSE))
def test_joins_and_meets_need_a_universe(call):
    # a plain system is valid input, so a call that reads joins or meets
    # stops at the precondition tier and names itself
    what, run = NEEDS_A_UNIVERSE[call]
    system = chain2_system()
    with pytest.raises(PreconditionError) as exc:
        run(system, OrderFunction(system, {0: 1, 2: 2}), ForbiddenFamily([]))
    assert str(exc.value) == f"{what} needs a universe (joins and meets)"


def test_tot_on_a_plain_system_exit_2(tmp_path, capsys):
    system = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(system.to_json()))
    (tmp_path / "inj.json").write_text(json.dumps(
        OrderFunction(system, {0: 1, 2: 2}).to_json()))
    code = main(["tot", "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "inj.json"), "--out", str(tmp_path / "out")])
    err = json.loads(capsys.readouterr().err)
    assert (code, err["kind"]) == (2, "PreconditionError")
    assert err["error"] == "the tree-of-tangles theorem needs a universe (joins and meets)"


@pytest.fixture(scope="module")
def p6_s3():
    """The trivial-free S_3 of P6 (25 separations, more than the CLI's
    default bound), its standardized graph-tangle stars and the refined order."""
    verts = "abcdef"
    edges = list(zip(verts, verts[1:]))
    u, o = graph_universe(verts, edges)
    s3 = restrict_Sk(u, o, 3)
    s = s3.restrict(naive_without_trivial(s3))
    fam = standardize(graph_tangle_stars(u, o, verts, edges, 3), s)
    return s, refine_injective(o), fam


def test_exclusion_check_has_no_bound_on_the_p6_s3(p6_s3):
    # the S-tree is checked by the sink argument, not over its 2^25 orientations
    s, order, fam = p6_s3
    assert len(s) == 25
    res = dichotomy(s, order, fam, check_exclusive=True)
    assert res.kind == "stree"
    assert res.notes["exclusive"] == "S-tree excludes every orientation"
    assert stree_excludes_tangles(res.stree, fam) == (True, None)


def test_cli_exclusion_check_has_no_bound_on_the_p6_s3(p6_s3, tmp_path):
    s, order, fam = p6_s3
    for name, obj in (("sys", s), ("order", order), ("fam", fam)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj.to_json()))
    code = main(["duality", "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "order.json"),
                 "--forbidden", str(tmp_path / "fam.json"),
                 "--check-exclusive", "--unsafe-bounds", "--out", str(tmp_path / "out")])
    assert code == 0
    got = json.loads((tmp_path / "out" / "duality.json").read_text())
    assert got["kind"] == "stree" and got["exclusive"] is True
    want = dichotomy(s, order, fam)
    assert got["stree"] == want.stree.to_json()
