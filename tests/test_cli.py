"""End-to-end CLI runs: artifacts, determinism, exit codes, round trips."""

import json
import random

import pytest

from test_lattice_rule import LADDER
from tanglekit.cli import COMMANDS, main
from tanglekit.fixtures import graph_tangle_stars, p3_universe
from tanglekit.forbidden import enumerate_tangles, standardize
from tanglekit.ingest import tree_from_json
from tanglekit.universe import graph_universe, restrict_Sk

P3_EDGES = "a b\nb c\n"


def write_p3_inputs(tmp_path):
    """P3's edge list and its star families: ``stars.json`` standardized on
    S_2, ``stars-full.json`` (the k=4 stars) and ``stars2-R.json`` generating
    R and standardizing."""
    (tmp_path / "p3.graph").write_text(P3_EDGES)
    u, o = p3_universe()
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2),
        restrict_Sk(u, o, 2))
    obj = fam.to_json()
    obj["generate"] = ["standardize"]
    (tmp_path / "stars.json").write_text(json.dumps(obj))
    full = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 4).to_json()
    full["generate"] = ["R", "standardize"]
    (tmp_path / "stars-full.json").write_text(json.dumps(full))
    stars2 = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2).to_json()
    stars2["generate"] = ["R", "standardize"]
    (tmp_path / "stars2-R.json").write_text(json.dumps(stars2))
    return tmp_path


@pytest.fixture()
def workdir(tmp_path):
    return write_p3_inputs(tmp_path)


def run(workdir, *argv):
    out = workdir / "out"
    return main([*argv, "--out", str(out)]), out


def test_tangles_matches_library_oracle(workdir, capsys):
    code, out = run(workdir, "tangles",
                    "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"))
    assert code == 0
    got = json.loads((out / "tangles.json").read_text())
    u, o = p3_universe()
    fam = standardize(
        graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2),
        restrict_Sk(u, o, 2))
    want = enumerate_tangles(restrict_Sk(u, o, 2), fam)
    assert got["tangles"] == sorted(sorted(t) for t in want)
    assert got["schema"].startswith("tanglekit/")


def test_validate_planted_defect_exit_1(workdir, capsys):
    bad = {
        "schema": "tanglekit/system-v1",
        "oriented": [{"id": 0, "inv": 1, "label": "a"},
                     {"id": 1, "inv": 0, "label": "b"},
                     {"id": 2, "inv": 3, "label": "c"},
                     {"id": 3, "inv": 2, "label": "d"}],
        "leq": [[0, 2], [2, 0]],
    }
    (workdir / "bad.json").write_text(json.dumps(bad))
    code, _ = run(workdir, "validate", "--input", str(workdir / "bad.json"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == "antisymmetry"
    assert err["witness"]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_command_runs_on_the_empty_universe(tmp_path, capsys, command):
    # no handles: one empty orientation, no separation to distinguish or refine
    (tmp_path / "empty.json").write_text(
        json.dumps({"oriented": [], "leq": [], "join": [], "meet": []}))
    (tmp_path / "order.json").write_text(json.dumps({"orders": {}}))
    code, out = run(tmp_path, command, "--input", str(tmp_path / "empty.json"),
                    "--order", str(tmp_path / "order.json"))
    assert code == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert (out / f"{command}.json").is_file()


def test_malformed_json_reports_location(workdir, capsys):
    (workdir / "broken.json").write_text('{"oriented": [')
    code, _ = run(workdir, "validate", "--input", str(workdir / "broken.json"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] >= 1 and "column" in err


def test_two_input_sources_rejected(workdir, capsys):
    code, _ = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                  "--bipartition", "1,2")
    assert code == 1


def test_duality_check_exclusive(workdir):
    code, out = run(workdir, "duality", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"),
                    "--check-exclusive")
    assert code == 0
    got = json.loads((out / "duality.json").read_text())
    assert got["kind"] == "tangle" and got["exclusive"] is True


def test_newduality_check_exclusive_writes_the_flag(workdir):
    # both dichotomy commands mark a checked artifact the same way
    code, out = run(workdir, "newduality", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"),
                    "--check-exclusive")
    assert code == 0
    got = json.loads((out / "newduality.json").read_text())
    assert got["notes"]["exclusive"] and got["exclusive"] is True


def test_tst_deterministic_and_round_trips(workdir):
    code1, out = run(workdir, "tst", "--input", str(workdir / "p3.graph"),
                     "--k", "2", "--forbidden", str(workdir / "stars.json"),
                     "--emit", "dot")
    blob1 = (out / "tst.json").read_bytes()
    dot1 = (out / "tst.dot").read_bytes()
    code2, _ = run(workdir, "tst", "--input", str(workdir / "p3.graph"),
                   "--k", "2", "--forbidden", str(workdir / "stars.json"),
                   "--emit", "dot")
    assert code1 == code2 == 0
    assert (out / "tst.json").read_bytes() == blob1
    assert (out / "tst.dot").read_bytes() == dot1
    # emitted tree JSON re-ingests to an equal in-memory value
    u, o = p3_universe()
    s2 = restrict_Sk(u, o, 2)
    obj = json.loads(blob1)
    tree = tree_from_json(s2, obj)
    again = tree.to_json()
    assert again["beta"] == obj["beta"] and again["nodes"] == obj["nodes"]


def test_reduce_and_tot_commands(workdir):
    code, out = run(workdir, "reduce", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"))
    assert code == 0
    assert json.loads((out / "reduce.json").read_text())["valid"]
    code, out = run(workdir, "tot", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars-full.json"),
                    "--emit", "dot")
    assert code == 0
    got = json.loads((out / "tot.json").read_text())
    assert got["verified"] is True and len(got["N"]) == 1
    assert (out / "tot.dot").exists()


def test_totins_and_newduality(workdir):
    code, out = run(workdir, "totins", "--input", str(workdir / "p3.graph"),
                    "--forbidden", str(workdir / "stars-full.json"))
    assert code == 0
    got = json.loads((out / "totins.json").read_text())
    assert got["verified"] is True
    code, out = run(workdir, "newduality", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"))
    assert code == 0
    assert json.loads((out / "newduality.json").read_text())["kind"] == "tangle"


def test_newduality_skips_family_members_outside_s_k(tmp_path):
    # P4's k=3 stars hold separations of order 2, which S_2 lacks; the star
    # check skips those members, as tst, tot and the tangle branch do
    from tanglekit.fixtures import p4_universe
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    (tmp_path / "p4.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    u, o = p4_universe()
    obj = graph_tangle_stars(u, o, "abcd", edges, 3).to_json()
    obj["generate"] = ["standardize"]
    (tmp_path / "stars3.json").write_text(json.dumps(obj))
    code, out = run(tmp_path, "newduality", "--input", str(tmp_path / "p4.graph"),
                    "--k", "2", "--forbidden", str(tmp_path / "stars3.json"),
                    "--unsafe-bounds")
    assert code == 0
    assert json.loads((out / "newduality.json").read_text())["kind"] == "tangle"


def test_hypothesis_failure_exit_2(workdir, capsys):
    # totins without the robustness triples in the family
    code, _ = run(workdir, "totins", "--input", str(workdir / "p3.graph"),
                  "--forbidden", str(workdir / "stars.json"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "HypothesisFailure"


def test_layered_standardness_names_the_least_failing_layer(workdir, capsys):
    # standardness of S decides every layer; the report still names the least
    # layer that fails, and the singletons it misses there
    code, _ = run(workdir, "totins", "--input", str(workdir / "p3.graph"))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "tree-of-tangles hypotheses failed: ['robustness_included', 'standard']; "
        "robustness_included: missing triple [1, 5, 14]; "
        "standard: the layer of 2 separations misses [[9]]")
    # P4's k=2 stars with R, not standardized: S has 21 separations
    from tanglekit.fixtures import p4_universe
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    (workdir / "p4.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    u, o = p4_universe()
    assert len(u.seps()) == 21
    obj = graph_tangle_stars(u, o, "abcd", edges, 2).to_json()
    obj["generate"] = ["R"]
    (workdir / "p4r.json").write_text(json.dumps(obj))
    code, _ = run(workdir, "totins", "--input", str(workdir / "p4.graph"),
                  "--forbidden", str(workdir / "p4r.json"), "--unsafe-bounds")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == (
        "tree-of-tangles hypotheses failed: ['standard']; "
        "standard: the layer of 14 separations misses [[35]]")


def test_an_unresolved_layered_leaf_is_a_theorem_violation(workdir, capsys, monkeypatch):
    # totins reads its tangles off the layered tree only once every leaf is
    # resolved: a builder that leaves one unresolved is named, exit 3
    from tanglekit import tot
    from tanglekit.errors import TheoremViolation
    from tanglekit.orderfn import refine_injective
    from tanglekit.tot import TstInS
    from tanglekit.tst import LEAF_TANGLE, LEAF_UNRESOLVED, LeafClass
    build = tot.build_tst_in_S

    def one_unresolved(*args):
        built = build(*args)
        leaf = next(l for l, c in built.leaf_classes.items() if c.kind == LEAF_TANGLE)
        unresolved = LeafClass(LEAF_UNRESOLVED, frozenset())
        return TstInS(built.tree, {**built.leaf_classes, leaf: unresolved})

    monkeypatch.setattr(tot, "build_tst_in_S", one_unresolved)
    u, o, fam = stars2_r_family()
    inj = refine_injective(o)
    leaf = next(l for l, c in build(u, inj, fam).leaf_classes.items() if c.kind == LEAF_TANGLE)
    with pytest.raises(TheoremViolation) as failure:
        tot.tree_of_tangles_in(u, inj, fam)
    assert failure.value.report["failures"] == [(leaf, "leaf-neither-tangle-nor-forbidden")]
    code, out = run(workdir, "totins", "--input", str(workdir / "p3.graph"),
                    "--forbidden", str(workdir / "stars2-R.json"))
    assert code == 3 and not (out / "totins.json").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "TheoremViolation"
    assert err["failures"] == [[leaf, "leaf-neither-tangle-nor-forbidden"]]


def test_hypothesis_failure_lists_the_failed_hypotheses(tmp_path, capsys):
    # the profile family of C4 lacks the robustness triples; the failed names
    # come as JSON beside the message
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    (tmp_path / "c4.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    (tmp_path / "profiles.json").write_text(
        json.dumps({"sets": [], "generate": ["profiles", "standardize"]}))
    code = main(["tot", "--input", str(tmp_path / "c4.graph"), "--k", "3",
                 "--forbidden", str(tmp_path / "profiles.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["kind"], err["failed"]) == ("HypothesisFailure", ["robustness_included"])
    assert "robustness_included" in err["error"]


def test_richness_violation_exit_3(workdir, capsys):
    # a single high-order member with no low-order shadow: standard, not rich
    from tanglekit.forbidden import ForbiddenFamily
    from tanglekit.orderfn import refine_injective
    u, o = p3_universe()
    o2 = refine_injective(o)
    s2 = restrict_Sk(u, o, 2)
    top = max(s2.seps(), key=o2.of)
    fam = standardize(ForbiddenFamily([]), s2)
    obj = fam.extended(ForbiddenFamily([{s2.orientations(top)[0]}])).to_json()
    obj["generate"] = ["standardize"]
    (workdir / "poor.json").write_text(json.dumps(obj))
    code, _ = run(workdir, "tst", "--input", str(workdir / "p3.graph"),
                  "--k", "2", "--forbidden", str(workdir / "poor.json"))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "RichnessViolation"


def _failing_report(real, **fields):
    """Wrap ``real`` so that its report comes back with ``fields`` replaced."""
    def fake(*args, **kwargs):
        return real(*args, **kwargs)._replace(**fields)
    return fake


@pytest.mark.parametrize("command,family", [
    ("tst", "stars.json"), ("reduce", "stars.json"),
    ("tot", "stars-full.json"), ("totins", "stars-full.json")])
def test_failed_self_check_exit_3_after_the_artifact(workdir, capsys, monkeypatch,
                                                     command, family):
    import tanglekit.reduce
    import tanglekit.tot
    import tanglekit.tst
    if command in ("tst", "reduce"):
        failing = _failing_report(tanglekit.tst.validate_tst, ok=False,
                                  failures=[(0, "planted")])
        real_reduce = tanglekit.reduce.reduce_irreducible

        def reduce_then_fail(*args):
            # the reduction's gate on its result keeps the real validator
            tree = real_reduce(*args)
            monkeypatch.setattr(tanglekit.tst, "validate_tst", failing)
            return tree
        monkeypatch.setattr(tanglekit.reduce, "reduce_irreducible", reduce_then_fail)
        if command == "tst":
            monkeypatch.setattr(tanglekit.tst, "validate_tst", failing)
        field = "valid"
    else:
        monkeypatch.setattr(tanglekit.tot, "verify_tot", _failing_report(
            tanglekit.tot.verify_tot, ok=False))
        field = "verified"
    argv = ["--input", str(workdir / "p3.graph"), "--forbidden", str(workdir / family)]
    if command != "totins":
        argv += ["--k", "2"]
    code, out = run(workdir, command, *argv)
    assert code == 3
    assert json.loads((out / f"{command}.json").read_text())[field] is False
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "TheoremViolation"
    assert err["error"].startswith(f"{command} artifact fails its self-check")


def test_refine_order_failed_self_check_exit_3(workdir, capsys, monkeypatch):
    import tanglekit.cli
    monkeypatch.setattr(tanglekit.cli, "refines", lambda *a: (False, (0, 1)))
    code, out = run(workdir, "refine-order", "--input", str(workdir / "p3.graph"))
    assert code == 3
    got = json.loads((out / "refine-order.json").read_text())["verified"]
    assert got == {"injective": True, "submodular": True, "refines": False}
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "TheoremViolation" and "'refines': False" in err["error"]


@pytest.mark.parametrize("doc,member", [
    ({"sets": [["x"]], "generate": ["standardize"]}, ["x"]),
    ({"sets": [[99]], "generate": ["standardize"]}, [99]),
    ({"sets": [[True]], "generate": ["standardize"]}, [True]),
    ([1, 2], None),
])
def test_malformed_forbidden_family_exit_1(workdir, capsys, doc, member):
    (workdir / "bad.json").write_text(json.dumps(doc))
    for command in ("tst", "tangles"):
        code, _ = run(workdir, command, "--input", str(workdir / "p3.graph"),
                      "--k", "2", "--forbidden", str(workdir / "bad.json"))
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "malformed forbidden family"
        assert err.get("member") == member


@pytest.mark.parametrize("key,value", [("sets", {"0": [0]}), ("generate", 5)])
def test_forbidden_family_field_of_the_wrong_type_exit_1(workdir, capsys, key, value):
    (workdir / "bad.json").write_text(json.dumps({"sets": [], key: value}))
    code, _ = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                  "--k", "2", "--forbidden", str(workdir / "bad.json"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "malformed forbidden family"
    assert err["detail"].startswith(f"{key} is not a JSON")


def test_a_family_provenance_is_not_read(workdir):
    # a family is its member sets and directives: any provenance, of any
    # type, leaves the run and its artifact as they are without one
    stars = json.loads((workdir / "stars.json").read_text())
    argv = ["tst", "--input", str(workdir / "p3.graph"), "--k", "2", "--forbidden"]
    code, out = run(workdir, *argv, str(workdir / "stars.json"))
    want = (code, (out / "tst.json").read_bytes())
    for provenance in (5, "x", [[0]], {"x": 1}, {"0,2": "explicit"}):
        (workdir / "prov.json").write_text(json.dumps({**stars, "provenance": provenance}))
        code, out = run(workdir, *argv, str(workdir / "prov.json"))
        assert (code, (out / "tst.json").read_bytes()) == want, provenance


def test_forbidden_handles_may_lie_outside_Sk(workdir):
    # 16 is (V, V), of order 3: outside S_2 but a handle of the ground universe
    (workdir / "wide.json").write_text(json.dumps({"sets": [[16]]}))
    code, _ = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                  "--k", "2", "--forbidden", str(workdir / "wide.json"))
    assert code == 0


# Exit codes on the whole universe (no --k) with the k=2 stars, one digit per
# command of EXIT_TABLE_COMMANDS, for the three family kinds: the stars plus R
# and the standard singletons, the standardized stars, and the stars plus R.
EXIT_TABLE_COMMANDS = ("tst", "reduce", "tot", "totins", "duality", "newduality")
EXIT_TABLE = {
    "P3": {"full": "000000", "std": "002200", "R": "222222"},
    "P4": {"full": "332222", "std": "002200", "R": "222222"},
    "C4": {"full": "000020", "std": "002200", "R": "222222"},
    "K4": {"full": "000000", "std": "000000", "R": "222222"},
}


@pytest.mark.parametrize("graph", sorted(EXIT_TABLE))
def test_exit_code_table_on_the_whole_universe(tmp_path, capsys, graph):
    from test_tst import LAYER_GRAPHS

    from tanglekit.universe import graph_universe
    vertices, edges = LAYER_GRAPHS[graph]
    (tmp_path / "g.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    u, o = graph_universe(vertices, edges)
    stars = graph_tangle_stars(u, o, vertices, edges, 2)
    kinds = {"full": (stars, ["R", "standardize"]),
             "std": (standardize(stars, restrict_Sk(u, o, 2)), ["standardize"]),
             "R": (stars, ["R"])}
    got = {}
    for kind, (fam, generate) in kinds.items():
        obj = fam.to_json()
        obj["generate"] = generate
        (tmp_path / f"{kind}.json").write_text(json.dumps(obj))
        codes = ""
        for command in EXIT_TABLE_COMMANDS:
            out = tmp_path / f"out-{kind}-{command}"
            code = main([command, "--input", str(tmp_path / "g.graph"),
                         "--forbidden", str(tmp_path / f"{kind}.json"),
                         "--unsafe-bounds", "--out", str(out)])
            err = capsys.readouterr().err
            if code == 0:
                art = json.loads((out / f"{command}.json").read_text())
                assert art.get("valid", True) is True, (kind, command)
                assert art.get("verified", True) is True, (kind, command)
            elif code == 3:
                assert json.loads(err)["kind"] == "RichnessViolation", (kind, command)
            codes += str(code)
        got[kind] = codes
    assert got == EXIT_TABLE[graph]


def test_tot_checks_richness_before_it_builds(tmp_path, capsys):
    # P4's k=2 stars plus R and the standard singletons are not rich on the
    # whole universe: tot reports it as totins and duality do, not as the
    # builder's RichnessViolation
    from tanglekit.universe import graph_universe
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    (tmp_path / "g.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    u, o = graph_universe("abcd", edges)
    obj = graph_tangle_stars(u, o, "abcd", edges, 2).to_json()
    obj["generate"] = ["R", "standardize"]
    (tmp_path / "full.json").write_text(json.dumps(obj))
    for command in ("tot", "totins", "duality"):
        code = main([command, "--input", str(tmp_path / "g.graph"),
                     "--forbidden", str(tmp_path / "full.json"),
                     "--unsafe-bounds", "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["kind"]) == (2, "HypothesisFailure"), command
        assert "rich" in err["error"]
    assert not (tmp_path / "out" / "tot.json").exists()


def test_bipartition_source(workdir):
    code, out = run(workdir, "tangles", "--bipartition", "1,2")
    assert code == 0
    got = json.loads((out / "tangles.json").read_text())
    assert got["k"] == "inf" and got["tangles"]


def test_bipartition_with_a_repeated_name_exit_1(workdir, capsys):
    code, out = run(workdir, "tangles", "--bipartition", "a,a")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["axiom"], err["witness"]) == ("ground-set-distinct", "'a'")
    assert not (out / "tangles.json").exists()


def test_tangles_in_stays_in_s_k(tmp_path, capsys):
    # tangles_in walks the layers of S_2 only: the 7 separations that the
    # bound counts, not all 21 of P4, so the default bound admits the run
    from tanglekit.forbidden import enumerate_tangles_in
    from tanglekit.universe import graph_universe
    edges = [("a", "b"), ("b", "c"), ("c", "d")]
    (tmp_path / "p4.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    u, o = graph_universe("abcd", edges)
    fam = graph_tangle_stars(u, o, "abcd", edges, 2)
    obj = fam.to_json()
    obj["generate"] = ["standardize"]
    (tmp_path / "stars.json").write_text(json.dumps(obj))
    assert main(["tangles", "--input", str(tmp_path / "p4.graph"), "--k", "2",
                 "--forbidden", str(tmp_path / "stars.json"),
                 "--out", str(tmp_path / "out")]) == 0
    got = json.loads((tmp_path / "out" / "tangles.json").read_text())
    s2 = restrict_Sk(u, o, 2)
    assert len(s2) == 7
    want = enumerate_tangles_in(s2, standardize(fam, s2), o)
    assert want and got["tangles_in"] == [
        {"k": str(t.k), "elements": sorted(t.elements), "maximal": t.maximal}
        for t in want]


def test_bound_guard(workdir, capsys):
    code, _ = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                  "--bounds", "2")
    assert code == 2
    code, out = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                    "--bounds", "2", "--unsafe-bounds")
    assert code == 0


def test_system_json_input_round_trip(workdir):
    u, o = p3_universe()
    (workdir / "uni.json").write_text(json.dumps(u.to_json()))
    (workdir / "order.json").write_text(json.dumps(o.to_json()))
    code, out = run(workdir, "tangles", "--input", str(workdir / "uni.json"),
                    "--order", str(workdir / "order.json"),
                    "--k", "2", "--forbidden", str(workdir / "stars.json"))
    assert code == 0
    code2, out2 = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                      "--k", "2", "--forbidden", str(workdir / "stars.json"))
    assert (out / "tangles.json").read_text() == (out2 / "tangles.json").read_text()


def test_refine_order_flags(workdir):
    code, out = run(workdir, "refine-order", "--input", str(workdir / "p3.graph"))
    assert code == 0
    got = json.loads((out / "refine-order.json").read_text())
    assert got["verified"] == {"injective": True, "submodular": True,
                               "refines": True}


def test_dot_single_node_tree():
    from tanglekit.dot import tree_dot
    from oracles import constant_order
    from tanglekit.tst import build_thorough_tst
    from tanglekit.forbidden import ForbiddenFamily
    u, o = p3_universe()
    empty = restrict_Sk(u, o, 0)
    t = build_thorough_tst(empty, constant_order(u), ForbiddenFamily([]))
    text = tree_dot(t, {})
    assert text.count("->") == 0 and "n0" in text


def test_dot_overlay_highlights_tangle_nodes(workdir):
    code, out = run(workdir, "tot", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "stars-full.json"),
                    "--emit", "dot")
    assert code == 0
    text = (out / "tot.dot").read_text()
    assert "penwidth=3 color=blue" in text
    assert "fillcolor=green" in text and "fillcolor=red" in text


def test_edge_list_isolated_vertices(workdir):
    (workdir / "iso.graph").write_text("a b\nc\n")
    code, out = run(workdir, "validate", "--input", str(workdir / "iso.graph"))
    assert code == 0
    got = json.loads((out / "validate.json").read_text())
    assert got["lattice"]["ok"]


def test_malformed_edge_line_location(workdir, capsys):
    (workdir / "bad.graph").write_text("a b\nx y z\n")
    code, _ = run(workdir, "validate", "--input", str(workdir / "bad.graph"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["line"] == 2 and "x y z" in err["text"]


def test_bounds_must_be_positive(workdir, capsys):
    # a bound below 1 is a value --bounds refuses, as it refuses one not an int
    code, _ = run(workdir, "tangles", "--bipartition", "1,2", "--bounds", "0")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["kind"], err["error"]) == ("UsageError", "argument --bounds: invalid value: '0'")


def test_a_value_may_look_like_an_option(workdir, capsys):
    # --k takes the next argument as its value, as it takes the text after "="
    for k in ("-1/2", "-1e2"):
        got = []
        for form in (["--k", k], [f"--k={k}"]):
            code, out = run(workdir, "tst", "--input", str(workdir / "p3.graph"), *form)
            assert code == 0, capsys.readouterr().err
            got.append((out / "tst.json").read_bytes())
        assert got[0] == got[1]


# sha256 of every artifact each subcommand writes on the P3 fixture, keyed by
# the command name (and ":variant" where a command is pinned twice).  Files
# named *.graph / *.json are resolved inside the work directory.
PINNED_ARTIFACTS = {
    "tangles": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"], {
        "tangles.json": "4637d7c5f01fc96584d21b23cca1ec4b7d195669b0bad43e4c69eac38e09d3cd"}),
    "tst": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json",
             "--emit", "dot"], {
        "tst.dot": "f299497b6d2bc60e30baef66c252636ea86075f805967c7d72226bff0afdd5c0",
        "tst.json": "e45a81404265a0b1c8ef57f5d4894746493d880fa91e3e38f51eb9e15e6518bf"}),
    "tot": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars-full.json",
             "--emit", "dot"], {
        "tot.dot": "66b0cb5e1c3a6588174555e95e72945ce78205998ce0321e4cad56a9c4ce18d7",
        "tot.json": "7a8c25343a5f16dd13a33f762bb61e75ffb8dadd4da30fab77a0ccff1b27f7b3"}),
    "reduce": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"], {
        "reduce.json": "461deac67d365a3f9d92b4bee925ae127f9a4893c4b0a1f5625d67b4eaa4b100"}),
    "duality": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json",
                 "--check-exclusive"], {
        "duality.json": "e9b0e06aedd065ad5ee82f8f2c68b24406cf766eabb7b0bcd52dee18b36ca9fe"}),
    "newduality": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"], {
        "newduality.json": "c3dccbd84f50de569d877d2acb801def2c3a75872f1deb6bdd0fcdd221a19ab4"}),
    "totins": (["--input", "p3.graph", "--forbidden", "stars-full.json"], {
        "totins.json": "f7d64c2555b38adb0b8cde87b8d2d62aaed7ed250a58dba2a6b9766fc7113b78"}),
    "refine-order": (["--input", "p3.graph"], {
        "refine-order.json": "a70792310ccb9274a0dba3ada4a84915c0cc6332cff57cd61d5976e3d8f3bfb9"}),
    "validate": (["--input", "p3.json"], {
        "validate.json": "f920daf8ea21fe3a7bd98cab4bfe8d07097ed0b19f001aa0248f0b00de6b209e"}),
    # the whole universe, with (V, V): standard only once it witnesses triviality
    "tst:stars2-R": (["--input", "p3.graph", "--forbidden", "stars2-R.json",
                      "--emit", "dot"], {
        "tst.dot": "de663691e33e2f4ab96032e4652eea4edcde14a567588dad6b167ecf3ba57fcf",
        "tst.json": "20b2f7d4abeea1d3538171a42ecfc0b81e7677fe1bb96ecc50902178be68b294"}),
    "reduce:stars2-R": (["--input", "p3.graph", "--forbidden", "stars2-R.json"], {
        "reduce.json": "ca9c82d67126407272b7f9a3e2432b2f2e79395d03b34b9c1e9e94c5339dba80"}),
    "tot:stars2-R": (["--input", "p3.graph", "--forbidden", "stars2-R.json",
                      "--emit", "dot"], {
        "tot.dot": "e4ce179be86f3aee532a76f298a304ac634584c2d2fa760318c211f319a55796",
        "tot.json": "7a8c25343a5f16dd13a33f762bb61e75ffb8dadd4da30fab77a0ccff1b27f7b3"}),
    "totins:stars2-R": (["--input", "p3.graph", "--forbidden", "stars2-R.json"], {
        "totins.json": "9f07177d7e12e6d6c33c07ceab8d615372314f74a70c64bbb812c715f2ce94d7"}),
}


@pytest.mark.parametrize("command", sorted(PINNED_ARTIFACTS))
def test_artifacts_pinned(workdir, command):
    import hashlib
    u, _ = p3_universe()
    (workdir / "p3.json").write_text(json.dumps(u.to_json()))
    args, want = PINNED_ARTIFACTS[command]
    argv = [str(workdir / a) if a.endswith((".graph", ".json")) else a for a in args]
    code, out = run(workdir, command.split(":")[0], *argv)
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == want


# Ladder graphs with the vertex names the benchmark's seed 0 gives them (first
# relabelling): names by vertex position, then the edges between them.
LADDER_INPUTS = {
    "K1,4": ("bacde", [("b", "a"), ("b", "c"), ("b", "d"), ("b", "e")]),
    "C5": ("caedb", [("c", "a"), ("a", "e"), ("e", "d"), ("d", "b"), ("b", "c")]),
    "P4": ("cbad", [("c", "b"), ("b", "a"), ("a", "d")]),
}

# sha256 of the artifacts of trees larger than P3's, keyed by "command:graph",
# plus ":no-k" for a run over the whole universe; each entry is (graph, k of
# the star family, family file suffix, extra args).  The reductions at k=3
# make 18 (K1,4) and 11 (C5) contraction rounds; the layered tree on P4 is
# pruned from 33 nodes to 27 and has an N of 2.  The no-k reductions, of the
# whole universe under the k=2 stars, make 176 rounds each.  Every run passes
# --unsafe-bounds, as the benchmark does: S_3 exceeds the default bound.
PINNED_LADDER_ARTIFACTS = {
    "reduce:K1,4:no-k": (("K1,4", 2, "stars", []), {
        "reduce.json": "6cb19266d2bc2c92fa06dba77d30162b2f4b1111e7a4c711d8f2215560cdf6a5"}),
    "reduce:C5:no-k": (("C5", 2, "stars", []), {
        "reduce.json": "4f130fdff381a023bb4c0e83afd8bd8d51f2f5e32563a2c27473bf561bb87141"}),
    "reduce:K1,4": (("K1,4", 3, "stars", ["--k", "3"]), {
        "reduce.json": "d8bd1eb7f78175702275675e6dd82b5fc3ffc68b557d988d8a6c6eaab011a7af"}),
    "reduce:C5": (("C5", 3, "stars", ["--k", "3"]), {
        "reduce.json": "577d7efbb1c614a7f4fb320e4a5bb39512f8577e179d7ec7f0c71cfb1ae0b855"}),
    "tst:K1,4": (("K1,4", 3, "stars", ["--k", "3", "--emit", "dot"]), {
        "tst.dot": "0286915c513280172e15c648f0800374fdcddca3e52ecf820c42cacd550ab4f9",
        "tst.json": "8762c00a44db7885ada480207e4678a01ed9d5dd394986c0e124b2c917e21c60"}),
    "totins:P4": (("P4", 3, "full", []), {
        "totins.json": "6efe2670cc96c63f33052b96874bc8ee7623e7b874f65d39551d3c5c70ca5e0f"}),
}


def write_ladder_inputs(dest, graph, k):
    """The graph file and both star families of ``graph``, written as the
    benchmark writes them: ``<graph>.stars<k>.json`` standardized on S_k,
    ``<graph>.full<k>.json`` generating R and standardizing."""
    names, edges = LADDER_INPUTS[graph]
    (dest / f"{graph}.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    uni, order = graph_universe(names, edges)
    stars = graph_tangle_stars(uni, order, names, edges, k)
    obj = standardize(stars, restrict_Sk(uni, order, k)).to_json()
    obj["generate"] = ["standardize"]
    (dest / f"{graph}.stars{k}.json").write_text(json.dumps(obj))
    obj = stars.to_json()
    obj["generate"] = ["R", "standardize"]
    (dest / f"{graph}.full{k}.json").write_text(json.dumps(obj))


@pytest.mark.parametrize("key", sorted(PINNED_LADDER_ARTIFACTS))
def test_ladder_artifacts_pinned(tmp_path, key):
    import hashlib
    (graph, k, family, extra), want = PINNED_LADDER_ARTIFACTS[key]
    write_ladder_inputs(tmp_path, graph, k)
    code, out = run(tmp_path, key.split(":")[0], "--input", str(tmp_path / f"{graph}.graph"),
                    "--forbidden", str(tmp_path / f"{graph}.{family}{k}.json"),
                    *extra, "--unsafe-bounds")
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir())}
    assert got == want


def other_interpreters():
    """Every other CPython >= 3.10 on PATH, one per resolved executable.

    Each candidate is probed first: a pyenv shim of a version that is not
    selected exits non-zero and is skipped.
    """
    import os
    import re
    import subprocess
    import sys

    seen = {os.path.realpath(sys.executable)}
    found = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names = sorted(os.listdir(folder or "."))
        except OSError:
            continue
        for name in names:
            if not re.fullmatch(r"python(3(\.\d+)?)?", name):
                continue
            path = os.path.join(folder, name)
            try:
                probe = subprocess.run(
                    [path, "-c", "import sys; print(sys.implementation.name, "
                                 "sys.version_info >= (3, 10), sys.executable)"],
                    capture_output=True, text=True, timeout=60)
            except OSError:
                continue
            fields = probe.stdout.split(maxsplit=2)
            if probe.returncode != 0 or fields[:2] != ["cpython", "True"]:
                continue
            real = os.path.realpath(fields[2].strip())
            if real not in seen:
                seen.add(real)
                found.append(path)
    return found


# Runs each pinned command in one process: argv[1] is a JSON list of
# [command, args, out directory].
PINNED_RUNNER = """
import json, sys
from tanglekit.cli import main
for command, args, out in json.loads(sys.argv[1]):
    if main([command, *args, "--out", out]) != 0:
        sys.exit(f"{command} failed")
"""


def test_artifacts_pinned_under_every_other_python(workdir):
    import hashlib
    import os
    import subprocess
    from pathlib import Path

    import tanglekit
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython >= 3.10 on PATH")
    u, _ = p3_universe()
    (workdir / "p3.json").write_text(json.dumps(u.to_json()))
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    keys = sorted(PINNED_ARTIFACTS)
    for i, python in enumerate(pythons):
        runs = [[key.split(":")[0],
                 [str(workdir / a) if a.endswith((".graph", ".json")) else a
                  for a in PINNED_ARTIFACTS[key][0]],
                 str(workdir / f"out-{i}-{key}")]
                for key in keys]
        proc = subprocess.run([python, "-c", PINNED_RUNNER, json.dumps(runs)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, (python, proc.stderr)
        for key, (_, _, out) in zip(keys, runs):
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).iterdir())}
            assert got == PINNED_ARTIFACTS[key][1], (python, key)


@pytest.mark.parametrize("argv,code", [
    (["refine-order", "--input", "p3.graph"], 0),
    (["refine-order", "--bipartition", "a,b"], 2),
], ids=["success", "precondition-failure"])
def test_run_skips_teardown_and_exits_with_the_code_of_main(workdir, capsys, monkeypatch,
                                                             argv, code):
    # the process entry point: the same exit code, stdout and stderr as main,
    # with atexit handlers run, and then no interpreter teardown: a global
    # of a module, whose __del__ teardown would run, is never collected
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tanglekit
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    probe = ("import atexit, os, sys\n"
             "class Teardown:\n"
             "    def __del__(self, write=os.write):\n"
             "        write(1, b'torn down\\n')\n"
             "sys.modules['teardown_probe'] = module = type(sys)('teardown_probe')\n"
             "module.kept = Teardown()\n"
             f"sys.argv = ['tanglekit', *{argv!r}, '--out', 'spawned']\n"
             "atexit.register(lambda: print('atexit ran'))\n"
             "from tanglekit.cli import run\n"
             "run()\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=workdir, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == code
    *printed, last = proc.stdout.splitlines()
    assert last == "atexit ran"
    monkeypatch.chdir(workdir)
    assert main([*argv, "--out", "in-process"]) == code
    out, err = capsys.readouterr()
    assert printed == out.splitlines() and proc.stderr == err
    assert json.loads((out or err).splitlines()[-1])["ok"] is (code == 0)


def stars2_r_family():
    """The k=2 stars of P3 plus R over the whole universe and the standard
    singletons, as the CLI generates them from ``stars2-R.json``.  (V, V) is
    in the system, and it witnesses the triviality of every s* with s below it."""
    from tanglekit.forbidden import robustness_family
    from tanglekit.orderfn import refine_injective
    u, o = p3_universe()
    fam = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2)
    r = robustness_family(refine_injective(o), target=u)
    return u, o, standardize(fam.extended(r), u)


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command", ["tst", "reduce", "tot", "totins"])
def test_stars2_r_without_k_builds_with_and_without_optimize(workdir, flags, command):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tanglekit
    from tanglekit.forbidden import enumerate_tangles_in
    from tanglekit.orderfn import refine_injective
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    out = workdir / "out"
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "tanglekit.cli", command,
         "--input", str(workdir / "p3.graph"),
         "--forbidden", str(workdir / "stars2-R.json"), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads((out / f"{command}.json").read_text())
    u, o, fam = stars2_r_family()
    if command in ("tst", "reduce"):
        assert got["valid"] is True
        shown = {frozenset(c["witness"]) for c in got["leafClass"].values()
                 if c["kind"] == "tangle"}
        assert shown == set(enumerate_tangles(u, fam))
    else:
        assert got["verified"] is True
    if command == "totins":
        want = [t for t in enumerate_tangles_in(u, fam, refine_injective(o)) if t.maximal]
        assert got["maximal_tangles"] == sorted(sorted(t.elements) for t in want)


def test_duality_stree_dot_into_fresh_out_dir(tmp_path, capsys):
    # every singleton forbidden on the two-separation chain: the S-tree branch
    from tanglekit.fixtures import chain2_system, singleton_family
    from tanglekit.orderfn import OrderFunction
    s = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(s.to_json()))
    order = OrderFunction(s, {sep: i + 1 for i, sep in enumerate(s.seps())})
    (tmp_path / "inj.json").write_text(json.dumps(order.to_json()))
    (tmp_path / "singles.json").write_text(json.dumps(singleton_family(s).to_json()))
    out = tmp_path / "fresh" / "out"
    code = main(["duality", "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "inj.json"),
                 "--forbidden", str(tmp_path / "singles.json"),
                 "--emit", "dot", "--out", str(out)])
    assert code == 0
    assert json.loads((out / "duality.json").read_text())["kind"] == "stree"
    assert (out / "duality-stree.dot").read_text().startswith("graph stree")


@pytest.mark.parametrize("k", ["abc", "1/0"])
def test_malformed_threshold_exit_1(workdir, capsys, k):
    code, _ = run(workdir, "tangles", "--input", str(workdir / "p3.graph"), "--k", k)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["ok"] is False and "malformed threshold" in err["error"]


@pytest.mark.parametrize("generator", ["R", "profiles"])
def test_generators_need_a_universe_exit_2(tmp_path, capsys, generator):
    from tanglekit.fixtures import chain2_system
    from oracles import constant_order
    s = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(s.to_json()))
    (tmp_path / "order.json").write_text(json.dumps(constant_order(s, 1).to_json()))
    (tmp_path / "gen.json").write_text(json.dumps({"sets": [], "generate": [generator]}))
    code = main(["tangles", "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "order.json"),
                 "--forbidden", str(tmp_path / "gen.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == f"generator {generator} needs a universe (joins and meets)"


def write_plain_inputs(tmp_path):
    """The two-separation chain (no joins or meets), a constant order, all singletons."""
    from tanglekit.fixtures import chain2_system, singleton_family
    from oracles import constant_order
    s = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(s.to_json()))
    (tmp_path / "const.json").write_text(json.dumps(constant_order(s, 1).to_json()))
    (tmp_path / "singles.json").write_text(json.dumps(singleton_family(s).to_json()))
    return tmp_path


@pytest.fixture()
def plain_system(tmp_path):
    return write_plain_inputs(tmp_path)


def run_plain(tmp_path, command, *extra):
    return main([command, "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "const.json"),
                 "--forbidden", str(tmp_path / "singles.json"),
                 "--out", str(tmp_path / "out"), *extra])


def test_newduality_on_a_plain_system_exit_2(plain_system, capsys):
    assert run_plain(plain_system, "newduality", "--k", "5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "newduality needs a universe (joins and meets)"


def test_validate_on_a_plain_system_leaves_submodularity_open(plain_system):
    # no joins or meets: there is nothing to check submodularity on
    (plain_system / "order.json").write_text(json.dumps(
        {"schema": "tanglekit/order-v1", "orders": {"0": 1, "2": 2}}))
    code = main(["validate", "--input", str(plain_system / "sys.json"),
                 "--order", str(plain_system / "order.json"),
                 "--out", str(plain_system / "out")])
    assert code == 0
    got = json.loads((plain_system / "out" / "validate.json").read_text())
    assert got["order"] == {"submodular": None, "witness": None}


@pytest.mark.parametrize("command", ["tst", "reduce", "tot", "duality", "totins"])
def test_non_injective_order_on_a_plain_system_exit_2(plain_system, capsys, command):
    # the order is refined over the whole system, whatever --k says
    assert run_plain(plain_system, command, "--k", "5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "submodularity needs a universe (joins and meets)"


@pytest.mark.parametrize("cell", [(1, 2, 99), (0, 2, -2), (0, 7, 0)])
def test_universe_json_table_handles_out_of_range_exit_1(tmp_path, capsys, cell):
    from tanglekit.universe import bipartition_universe
    obj = bipartition_universe([1, 2]).to_json()
    obj["join"].append(list(cell))
    (tmp_path / "uni.json").write_text(json.dumps(obj))
    code = main(["validate", "--input", str(tmp_path / "uni.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == "unknown-handle"
    assert err["witness"] == repr(cell)


@pytest.mark.parametrize("cells,code", [
    ([[0, 1, 2], [0, 1, 1]], 1),
    ([[0, 1, 1], [0, 1, 2]], 1),
    ([[0, 1, 1], [1, 0, 1]], 0),
], ids=["wrong-first", "wrong-last", "agreeing"])
def test_universe_json_pair_given_twice(tmp_path, capsys, cells, code):
    # join(0, 1) is 1; a pair given twice must be given one value, whichever
    # of the two cells comes last
    from tanglekit.universe import bipartition_universe
    obj = bipartition_universe([1, 2]).to_json()
    i = obj["join"].index([0, 1, 1])
    obj["join"][i:i + 1] = cells
    (tmp_path / "uni.json").write_text(json.dumps(obj))
    assert main(["validate", "--input", str(tmp_path / "uni.json"),
                 "--out", str(tmp_path / "out")]) == code
    if code:
        err = json.loads(capsys.readouterr().err)
        assert (err["axiom"], err["witness"]) == ("table-cell-repeated", "(0, 1)")


@pytest.mark.parametrize("cell", [[0, 1], [0, 1, "x"], [0, 1, 1.0]])
def test_universe_json_malformed_table_cell_exit_1(tmp_path, capsys, cell):
    from tanglekit.universe import bipartition_universe
    obj = bipartition_universe([1, 2]).to_json()
    obj["join"].append(cell)
    (tmp_path / "uni.json").write_text(json.dumps(obj))
    code = main(["validate", "--input", str(tmp_path / "uni.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == "malformed-table-cell"
    assert err["witness"] == repr(cell)


@pytest.mark.parametrize("field,value,axiom,witness", [
    ("join", 5, "malformed-table", 5),
    ("join", None, "malformed-table", None),
    ("members", 5, "malformed-members", 5),
    ("members", [0, "x"], "malformed-members", "x"),
    ("members", [-1], "malformed-members", -1),
    ("leq", 5, "malformed-leq", 5),
    ("leq", [[0]], "malformed-leq", [0]),
    ("leq", [[0, "x"]], "malformed-leq", [0, "x"]),
    ("id", "x", "handle-not-int", "x"),
    ("inv", "x", "handle-not-int", "x"),
    ("document", 5, "schema", "'int' object is not subscriptable"),
])
def test_universe_json_malformed_field_exit_1(tmp_path, capsys, field, value, axiom,
                                              witness):
    from tanglekit.universe import bipartition_universe
    obj = bipartition_universe([1, 2]).to_json()
    if field in ("id", "inv"):
        obj["oriented"][0][field] = value
    elif field == "document":
        obj = value
    else:
        obj[field] = value
    (tmp_path / "uni.json").write_text(json.dumps(obj))
    code = main(["validate", "--input", str(tmp_path / "uni.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == axiom
    assert err["witness"] == repr(witness)


@pytest.mark.parametrize("orders,axiom,witness", [
    (5, "malformed-orders", 5),
    ({"x": "1"}, "malformed-order-entry", ("x", "1")),
    ({"0": "x"}, "malformed-order-entry", ("0", "x")),
    ({"0": None}, "malformed-order-entry", ("0", None)),
    ({"0": "1/0"}, "malformed-order-entry", ("0", "1/0")),
    ({"0": 0.1}, "malformed-order-entry", ("0", 0.1)),
    ({"0": True}, "malformed-order-entry", ("0", True)),
    # a key is the decimal that to_json writes, or two keys could name one handle
    ({"0": "1", "0_2": "2"}, "malformed-order-entry", ("0_2", "2")),
    ({"0": "1", " 2": "2"}, "malformed-order-entry", (" 2", "2")),
    ({"0": "1", "+2": "2"}, "malformed-order-entry", ("+2", "2")),
    ({"0": "1", "02": "2"}, "malformed-order-entry", ("02", "2")),
    ({"0": "1", "\uff12": "2"}, "malformed-order-entry", ("\uff12", "2")),
])
def test_order_json_malformed_exit_1(plain_system, capsys, orders, axiom, witness):
    (plain_system / "bad.json").write_text(json.dumps(
        {"schema": "tanglekit/order-v1", "orders": orders}))
    code = main(["validate", "--input", str(plain_system / "sys.json"),
                 "--order", str(plain_system / "bad.json"),
                 "--out", str(plain_system / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == axiom
    assert err["witness"] == repr(witness)


def test_order_json_orientations_disagree_exit_1(workdir, capsys):
    # P3: handles 0 and 9 are the two orientations of ({a,b,c}, {})
    u, o = p3_universe()
    orders = {**o.to_json()["orders"], "0": "1", "9": "7"}
    (workdir / "bad.json").write_text(json.dumps(
        {"schema": "tanglekit/order-v1", "orders": orders}))
    code, out = run(workdir, "validate", "--input", str(workdir / "p3.graph"),
                    "--order", str(workdir / "bad.json"))
    assert code == 1 and not (out / "validate.json").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["axiom"] == "order-orientations-disagree"
    assert err["witness"] == repr(9)


def old_parser():
    """The argparse parser the CLI had: the oracle of ``cli.parse_args``, but
    for the forms of ``CHANGED_FORMS``."""
    import argparse
    from tanglekit.cli import COMMANDS, DEFAULT_BOUND
    p = argparse.ArgumentParser(prog="tanglekit")
    p.add_argument("command", choices=list(COMMANDS))
    for flag in ("--input", "--bipartition", "--forbidden", "--order", "--k"):
        p.add_argument(flag)
    p.add_argument("--emit", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.add_argument("--bounds", type=int, default=DEFAULT_BOUND)
    for flag in ("--unsafe-bounds", "--check-exclusive"):
        p.add_argument(flag, action="store_true")
    return p


def tst_spec(**given):
    """The run spec of ``tst`` with the options ``given``."""
    return {**vars(old_parser().parse_args(["tst"])), **given}


# The forms the parser reads otherwise than the argparse parser did, each with
# that parser's outcome and the parser's own: a run spec, or the exit code of
# main.  A prefix names no option; --he and -hh are not --help; an option
# takes the next argument as its value, whatever it is; a "--" away from the
# command ends the options as any other does; and --help is read before any
# error.
CHANGED_FORMS = {
    ("tst", "--in", "g", "--bi", "1,2", "--f", "f", "--or", "o", "--k", "2", "--e", "dot",
     "--ou", "d", "--bo", "3", "--u", "--c"): (
        tst_spec(input="g", bipartition="1,2", forbidden="f", order="o", k="2", emit="dot",
                 out="d", bounds=3, unsafe_bounds=True, check_exclusive=True), 2),
    ("tst", "--in=g.graph", "--k=-1/2"): (tst_spec(input="g.graph", k="-1/2"), 2),
    ("--he",): (0, 2),
    ("-hh",): (0, 2),
    ("tst", "--k", "-x"): (2, tst_spec(k="-x")),
    ("tst", "--k", "-1/2"): (2, tst_spec(k="-1/2")),
    ("tst", "--input", "-h"): (2, tst_spec(input="-h")),
    ("tst", "--k", "-1e2"): (2, tst_spec(k="-1e2")),
    ("tst", "--k", "2", "--"): (2, tst_spec(k="2")),
    ("nosuch", "--help"): (2, 0),
    ("--help", "--o", "x"): (2, 0),
}

EVERY_OPTION = ["--input", "g.graph", "--bipartition", "1,2", "--forbidden", "f.json",
                "--order", "o.json", "--k", "2", "--emit", "dot", "--out", "o", "--bounds", "7",
                "--unsafe-bounds", "--check-exclusive"]


@pytest.mark.parametrize("argv", [
    # rejected: no command, an unknown one, a refused value, an unknown option
    [], ["nosuch"], ["tst", "--emit", "svg"], ["tst", "--bounds", "x"], ["tst", "--nosuch"],
    # every command, and every option
    *([command] for command in COMMANDS),
    ["tst", *EVERY_OPTION],
    ["tst", "--input", "g.graph", "--k", "2", "--forbidden", "f.json", "--unsafe-bounds"],
    ["duality", "--bipartition", "1,2", "--order", "o.json", "--emit", "dot", "--out", "o",
     "--bounds", "7", "--check-exclusive", "--k", "inf"],
    # prefixes, unique and ambiguous (--order/--out, --bipartition/--bounds)
    ["tst", "--in", "g", "--bi", "1,2", "--f", "f", "--or", "o", "--k", "2", "--e", "dot",
     "--ou", "d", "--bo", "3", "--u", "--c"],
    ["tst", "--o", "x"], ["tst", "--b", "3"], ["--o=x", "tst"], ["tst", "--=x"],
    # --opt=value, and a flag that takes none
    ["tst", "--input=g.graph", "--k=3/2", "--emit=dot", "--bounds=5", "--out="],
    ["tst", "--in=g.graph", "--k=-1/2"], ["tst", "--unsafe-bounds=yes"],
    ["tst", "--check-exclusive="], ["tst", "--emit=svg"],
    # options before the command
    ["--input", "g.graph", "--k", "2", "tst"], ["--unsafe-bounds", "--k=2", "reduce"],
    ["--input", "tst", "reduce"],
    # a missing value, and an option-like one
    ["tst", "--input"], ["tst", "--k"], ["tst", "--input", "--k", "2"], ["tst", "--k", "-x"],
    ["tst", "--k", "-1/2"], ["tst", "--input", "-h"], ["tst", "--input", "-x y"],
    ["tst", "--input", "-"],
    # a negative --k, read as a value
    ["tst", "--k", "-1"], ["tst", "--k", "-1.5"], ["tst", "--k", "-.5"], ["tst", "--k", "-1e2"],
    # a repeated option: the last wins
    ["tst", "--k", "2", "--k", "3"], ["tst", "--emit", "dot", "--emit", "json"],
    ["tst", "--unsafe-bounds", "--unsafe-bounds"], ["tst", "--bounds", "x", "--bounds", "3"],
    # two commands, and "--" beside the command or away from it
    ["tst", "reduce"], ["tst", "tst"], ["--", "tst"], ["tst", "--"], ["--k", "2", "--", "tst"],
    ["tst", "--k", "2", "--"], ["tst", "--", "--k", "2"], ["tst", "--k", "--", "2"],
    ["--", "tst", "--"],
    # --help, where it has its turn first
    ["--help"], ["-h"], ["--he"], ["-hh"], ["tst", "--k", "2", "-h"], ["--help", "nosuch"],
    ["tst", "extra", "--help"], ["nosuch", "--help"], ["--help", "--o", "x"], ["-hx"],
    ["--help=x"], ["-h="],
])
def test_parser_rejects_what_it_rejected(argv, capsys):
    # one differential test against the argparse parser the CLI had: a form
    # it accepted parses to the same run spec; one it rejected exits 2 from
    # main with the one-line JSON report; --help prints the usage and exits 0.
    # A form of CHANGED_FORMS has that parser's outcome there, and the new one.
    from tanglekit.cli import parse_args
    try:
        want = vars(old_parser().parse_args(argv))
    except SystemExit as exc:
        want = exc.code
    capsys.readouterr()
    if tuple(argv) in CHANGED_FORMS:
        was, now = CHANGED_FORMS[tuple(argv)]
        assert want == was
        want = now
    if isinstance(want, dict):
        assert vars(parse_args(argv)) == want
        return
    assert main(argv) == want
    out, err = capsys.readouterr()
    if want == 0:
        assert out.startswith("usage: tanglekit COMMAND [options]") and not err
    else:
        assert not out and err.count("\n") == 1
        report = json.loads(err)
        assert (report["ok"], report["code"], report["kind"]) == (False, 2, "UsageError")


# -- ingest branches: family directives, missing inputs, restricted universes ------


def test_profiles_directive_on_a_universe(workdir):
    from tanglekit.forbidden import profile_family
    (workdir / "profiles.json").write_text(
        json.dumps({"sets": [], "generate": ["profiles", "standardize"]}))
    code, out = run(workdir, "tangles", "--input", str(workdir / "p3.graph"),
                    "--k", "2", "--forbidden", str(workdir / "profiles.json"))
    assert code == 0
    u, o = p3_universe()
    s2 = restrict_Sk(u, o, 2)
    fam = standardize(profile_family(target=s2), s2)
    got = json.loads((out / "tangles.json").read_text())["tangles"]
    assert got == sorted(sorted(t) for t in enumerate_tangles(s2, fam))


@pytest.mark.parametrize("doc,input_name,code,error", [
    ({"sets": [], "generate": ["everything"]}, "p3.graph", 1,
     "unknown generator directive"),
    ({"sets": [], "generate": ["R"]}, "uni.json", 2,
     "generator R needs an order function"),
], ids=["unknown-directive", "R-without-order"])
def test_family_document_errors(workdir, capsys, doc, input_name, code, error):
    u, _ = p3_universe()
    (workdir / "uni.json").write_text(json.dumps(u.to_json()))
    (workdir / "doc.json").write_text(json.dumps(doc))
    got, _ = run(workdir, "tangles", "--input", str(workdir / input_name),
                 "--forbidden", str(workdir / "doc.json"))
    assert got == code
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_a_command_that_needs_an_order_exit_2(workdir, capsys):
    u, _ = p3_universe()
    (workdir / "uni.json").write_text(json.dumps(u.to_json()))
    code, _ = run(workdir, "tst", "--input", str(workdir / "uni.json"),
                  "--forbidden", str(workdir / "stars.json"))
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith(
        "this command needs an order function")


def test_missing_input_file_exit_1(workdir, capsys):
    code, _ = run(workdir, "tangles", "--input", str(workdir / "absent.graph"))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input file not found"
    assert err["file"].endswith("absent.graph")


def order_not_injective_outside_s2(uni, order):
    """The refined order of ``uni`` with the first two adjacent values outside
    S_2 made equal that keeps it submodular: injective on S_2, not on ``uni``."""
    from tanglekit.orderfn import OrderFunction, refine_injective
    from tanglekit.universe import is_submodular
    inj = refine_injective(order)
    outside = sorted((inj.num[s], s) for s in uni.seps() if order.num[s] >= 2)
    for (low, _), (_, s) in zip(outside, outside[1:]):
        num = list(inj.num)
        for t in uni.orientations(s):
            num[t] = low
        tied = OrderFunction._of_num(uni, num, inj.den)
        if is_submodular(uni, tied)[0]:
            return tied
    raise AssertionError("every tie of adjacent values breaks submodularity")


MEMBERS_COMMANDS = ("tangles", "tst", "reduce", "duality", "newduality", "tot", "totins")


def test_universe_json_with_members(workdir, capsys):
    # A universe JSON whose members are S_k of its order runs as the whole
    # universe does with --k k: the same exit code, report and artifact
    # bytes.  R joins members of S_k with every separation of U, and the
    # order is refined when it is not injective on U, not on the members.
    import hashlib

    def digests(out, k):
        got = {}
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            if path.name == "tangles.json":  # its k is the --k given, inf without one
                obj = json.loads(data)
                obj["k"] = str(k)
                data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
            got[path.name] = hashlib.sha256(data).hexdigest()
        return got

    def result(argv, out, k):
        code = main([*argv, "--unsafe-bounds", "--out", str(out)])
        return code, capsys.readouterr().err, digests(out, k)

    def graph(name):
        n, edges = LADDER[name]
        return graph_universe("abcde"[:n], [("abcde"[a], "abcde"[b]) for a, b in edges])

    (workdir / "R.json").write_text('{"sets": [], "generate": ["R", "standardize"]}')
    p4, p4_order = graph("P4")
    p3, p3_order = p3_universe()
    cases = [(f"{name}-k{k}", *graph(name), k, "R.json", MEMBERS_COMMANDS)
             for name in ("P4", "C5", "K2,3") for k in (2, 3)]
    cases += [("P4-tied-k2", p4, order_not_injective_outside_s2(p4, p4_order), 2, "R.json",
               MEMBERS_COMMANDS),
              ("P3-k2", p3, p3_order, 2, "stars.json", ("tst",))]
    for name, uni, order, k, family, commands in cases:
        members = restrict_Sk(uni, order, k)
        if name == "P4-tied-k2":
            assert order.is_injective_on(members) and not order.is_injective_on(uni)
        case = workdir / name
        case.mkdir()
        obj = uni.to_json()
        (case / "whole.json").write_text(json.dumps(obj))
        obj["members"] = members.to_json()["members"]
        (case / "members.json").write_text(json.dumps(obj))
        (case / "order.json").write_text(json.dumps(order.to_json()))
        order_args = ["--order", str(case / "order.json")]
        for command in ("validate", "refine-order"):
            got = result([command, "--input", str(case / "members.json"), *order_args],
                         case / f"members-{command}", k)
            assert got[0] == 0, (name, command, got[1])
        assert digests(case / "members-refine-order", k) == result(
            ["refine-order", "--input", str(case / "whole.json"), *order_args],
            case / "whole-refine-order", k)[2], name
        for command in commands:
            source = [*order_args, "--forbidden", str(workdir / family)]
            got = result([command, "--input", str(case / "members.json"), *source],
                         case / f"members-{command}", k)
            want = result([command, "--input", str(case / "whole.json"), *source, "--k", str(k)],
                          case / f"whole-{command}", k)
            assert got == want, (name, command)
    # the P3 universe with the members of S_2 also runs as its graph input does
    got = json.loads((workdir / "P3-k2" / "members-tst" / "tst.json").read_text())
    code, out = run(workdir, "tst", "--input", str(workdir / "p3.graph"), "--k", "2",
                    "--forbidden", str(workdir / "stars.json"))
    assert code == 0 and got == json.loads((out / "tst.json").read_text())


# Each input file in turn is missing, a directory, or bytes that are not
# UTF-8; the other files stay readable.  A graph edge list and a JSON input
# are read by different loaders, so --input is tried with both.
@pytest.mark.parametrize("flag,name", [("--input", "bad.graph"), ("--input", "bad.json"),
                                       ("--order", "bad.json"), ("--forbidden", "bad.json")])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_file_exit_1(plain_system, capsys, flag, name, kind):
    bad = plain_system / name
    if kind == "directory":
        bad.mkdir()
    elif kind == "not-utf8":
        bad.write_bytes(b'{"sets": [[0]]}\n# \xff\xfe\n')
    files = {"--input": "sys.json", "--order": "const.json", "--forbidden": "singles.json"}
    files[flag] = name
    argv = [a for f, n in files.items() for a in (f, str(plain_system / n))]
    assert main(["tangles", *argv, "--out", str(plain_system / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    error = "input file not found" if kind == "missing" else "unreadable input file"
    assert (err["error"], err["file"]) == (error, str(bad))


# The output directory is a file, or lies under one.
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unwritable_output_exit_1(workdir, capsys, out):
    (workdir / "afile").write_text("not a directory\n")
    code = main(["refine-order", "--input", str(workdir / "p3.graph"),
                 "--out", str(workdir / out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "unwritable output"
    assert err["file"] == str(workdir / out / "refine-order.json")
    assert err["detail"]


def test_a_label_that_is_not_a_string_exit_1(plain_system, capsys):
    obj = json.loads((plain_system / "sys.json").read_text())
    obj["oriented"][1]["label"] = 5
    (plain_system / "sys.json").write_text(json.dumps(obj))
    for command in ("validate", "tst"):
        assert run_plain(plain_system, command, "--k", "2", "--emit", "dot") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["axiom"] == "malformed-label"
        assert err["witness"] == repr(obj["oriented"][1])


def test_trust_rich_is_an_unknown_option(capsys):
    # richness is checked in one walk on every run; there is no flag to skip it
    for command in ("tot", "totins"):
        assert main([command, "--input", "g.graph", "--trust-rich"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["kind"], err["error"]) == ("UsageError",
                                               "unrecognized arguments: --trust-rich")


def run_newduality(workdir):
    return run(workdir, "newduality", "--input", str(workdir / "p3.graph"),
               "--k", "2", "--forbidden", str(workdir / "stars.json"))


def test_newduality_walks_richness_once(workdir, monkeypatch):
    # newduality derives richness from closure under shifting, and dichotomy
    # still checks it, in one walk
    from tanglekit import duality
    calls = []
    real = duality.is_rich
    monkeypatch.setattr(duality, "is_rich", lambda *args: calls.append(args) or real(*args))
    code, out = run_newduality(workdir)
    assert code == 0 and len(calls) == 1
    assert json.loads((out / "newduality.json").read_text())["notes"]["rich"] == (
        "derived from closure under shifting")


def test_newduality_exits_3_when_the_richness_walk_fails(workdir, monkeypatch, capsys):
    # closure under shifting held, so a refuted richness refutes the implication
    from tanglekit import duality
    monkeypatch.setattr(duality, "is_rich",
                        lambda system, *args: (False, frozenset(system.elements()[:1])))
    code, out = run_newduality(workdir)
    assert code == 3 and not (out / "newduality.json").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "TheoremViolation"
    assert err["error"].startswith("family closed under shifting, yet family not rich")


def write_full_family(workdir, graph, k):
    """A ladder graph and its full k family as the benchmark writes them (seed
    0, variant 0): seeded vertex names, and the k-stars with ``"generate":
    ["R", "standardize"]``; returns the totins argv that reads them."""
    n, edges = LADDER[graph]
    names = list("abcdefgh"[:n])
    random.Random(f"0:0:{graph}").shuffle(names)
    edges = [(names[a], names[b]) for a, b in edges]
    (workdir / "g.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    uni, order = graph_universe(names, edges)
    obj = graph_tangle_stars(uni, order, names, edges, k).to_json()
    obj["generate"] = ["R", "standardize"]
    (workdir / "full.json").write_text(json.dumps(obj, sort_keys=True) + "\n")
    return ["totins", "--input", str(workdir / "g.graph"),
            "--forbidden", str(workdir / "full.json"), "--unsafe-bounds"]


@pytest.mark.parametrize("graph,k", [("C6", 2), ("K1,4", 3)])
def test_totins_checks_every_layer_of_a_full_family(workdir, capsys, graph, k):
    # every layer is rich: 101 layers on C6, 58 on K1,4
    code, out = run(workdir, *write_full_family(workdir, graph, k))
    assert code == 0
    assert json.loads((out / "totins.json").read_text())["verified"] is True


def test_totins_names_the_first_layer_that_is_not_rich(workdir, capsys):
    code, _ = run(workdir, *write_full_family(workdir, "K1,4", 2))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["kind"], err["failed"]) == ("HypothesisFailure", ["rich"])
    assert "; rich: the layer of 25 separations, counterexample [" in err["error"]


# the triple a family without "R" misses first, in its exit-2 report
MISSING_R = {"P3": [1, 2, 12], "C5": [1, 2, 54]}


@pytest.mark.parametrize("command", ["tot", "totins"])
@pytest.mark.parametrize("graph", sorted(MISSING_R))
def test_r_is_built_once_per_run(workdir, capsys, graph, command):
    # load_family builds R for the "R" directive, and check_tot_hypotheses
    # tests R <= F on that same object; without the directive, R is built
    # only for the inclusion test
    from tanglekit.forbidden import robustness_family
    argv = [command, *write_full_family(workdir, graph, 2)[1:]]
    builds = []
    for generate in (["R", "standardize"], ["standardize"]):
        obj = json.loads((workdir / "full.json").read_text())
        (workdir / "full.json").write_text(json.dumps({**obj, "generate": generate}))
        robustness_family.cache_clear()
        code, _ = run(workdir, *argv)
        info = robustness_family.cache_info()
        builds.append((info.misses, info.hits))
        err = capsys.readouterr().err
    assert builds == [(1, 1), (1, 0)]
    assert code == 2
    assert err == json.dumps({
        "code": 2, "error": "tree-of-tangles hypotheses failed: ['robustness_included']; "
        f"robustness_included: missing triple {MISSING_R[graph]}",
        "failed": ["robustness_included"], "kind": "HypothesisFailure", "ok": False},
        sort_keys=True) + "\n"


@pytest.mark.parametrize("graph", ["C6", "P6"])
def test_tangles_with_a_threshold_walks_only_s_k(workdir, graph):
    # tangles_in walks the layers of S_2 alone; a walk over every layer of the
    # universe runs out of memory under the child's 1.5 GB address-space cap
    # on both graphs (exit 1)
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import tanglekit
    argv = ["tangles", *write_full_family(workdir, graph, 2)[1:], "--k", "2"]
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    cap = 1536 * 2 ** 20
    proc = subprocess.run(
        [sys.executable, "-m", "tanglekit.cli", *argv, "--out", str(workdir / "out")],
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads((workdir / "out" / "tangles.json").read_text())
    assert {r["k"] for r in got["tangles_in"]} == {"0", "1", "2"}
    assert sorted(r["elements"] for r in got["tangles_in"] if r["k"] == "2") == got["tangles"]


def test_output_files_are_utf8_in_any_locale(tmp_path):
    # DOT carries vertex names as they are given; an ASCII locale in the
    # child must write the same UTF-8 bytes as a UTF-8 one
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tanglekit
    (tmp_path / "greek.graph").write_text("α β\nβ γ\n", encoding="utf-8")
    (tmp_path / "std.json").write_text('{"generate": ["standardize"]}')
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    dots = []
    for locale in ("C", "C.UTF-8"):
        out = tmp_path / locale
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit.cli", "tst", "--k", "2", "--emit", "dot",
             "--input", str(tmp_path / "greek.graph"), "--forbidden", str(tmp_path / "std.json"),
             "--out", str(out)],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0",
                 "PYTHONCOERCECLOCALE": "0", "LC_ALL": locale})
        assert proc.returncode == 0, (locale, proc.stderr)
        dots.append((out / "tst.dot").read_bytes())
    assert dots[0] == dots[1] and "α".encode() in dots[0]


def test_totins_restricts_to_s_k(workdir):
    # --k restricts totins to S_2 as it does tot, so P4's k=2 family serves
    # it; on the whole universe a layer above S_2 is not rich (exit 2)
    from tanglekit.cli import load_graph_text
    from tanglekit.forbidden import ForbiddenFamily, enumerate_tangles_in, robustness_family
    from tanglekit.orderfn import refine_injective
    code, out = run(workdir, *write_full_family(workdir, "P4", 2), "--k", "2")
    assert code == 0
    got = json.loads((out / "totins.json").read_text())
    assert got["verified"] is True and len(got["N"]) == 2
    u, o = graph_universe(*load_graph_text(workdir / "g.graph"))
    s2, inj = restrict_Sk(u, o, 2), refine_injective(o)
    stars = ForbiddenFamily.from_json(json.loads((workdir / "full.json").read_text()))
    fam = standardize(stars.extended(robustness_family(inj, target=s2)), s2)
    want = [t for t in enumerate_tangles_in(s2, fam, inj) if t.maximal]
    assert got["maximal_tangles"] == sorted(sorted(t.elements) for t in want)


def poor_family_text():
    """The standard singletons of P3's S_2 plus one high-order member with no
    low-order shadow: standard, not rich."""
    from tanglekit.forbidden import ForbiddenFamily
    from tanglekit.orderfn import refine_injective
    u, o = p3_universe()
    s2 = restrict_Sk(u, o, 2)
    top = max(s2.seps(), key=refine_injective(o).of)
    obj = standardize(ForbiddenFamily([]), s2).extended(
        ForbiddenFamily([{s2.orientations(top)[0]}])).to_json()
    obj["generate"] = ["standardize"]
    return json.dumps(obj)


def p3_order_not_submodular():
    from oracles import crooked_p3_order
    return json.dumps(crooked_p3_order(p3_universe()[0]).to_json())


def p3_stars2_text():
    """P3's k=2 stars with no directive: not standard."""
    u, o = p3_universe()
    return json.dumps(graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2).to_json())


def p3_universe_with_a_wrong_join_cell():
    """P3's universe JSON with one well-formed join cell that is not the join."""
    obj = p3_universe()[0].to_json()
    cell = next(c for c in obj["join"] if c[2] not in c[:2])
    cell[2] = cell[0]
    return json.dumps(obj)


# One failing run for each way the CLI itself rejects a run, then one library
# raise per tier, then a failed gate on the reduced tree, then the library
# failures that no other in-process run reaches.  Each row: the files
# to write into the work directory (text, or a function returning it), the
# argv with {d} for that directory (an --out there overrides the default one),
# and the exit code, kind and start of the error the run must report.
P3_GRAPH = ["--input", "{d}/p3.graph"]
FAMILY = [*P3_GRAPH, "--forbidden", "{d}/f.json"]
MALFORMED = (1, "InputError", "malformed forbidden family")
CLI_FAILURES = {
    "input-file-not-found": (
        {}, ["tangles", "--input", "{d}/absent.graph"], 1, "InputError", "input file not found"),
    "unreadable-input-file": (
        {"not-utf8.graph": "a b\n\udcff\n"}, ["tangles", "--input", "{d}/not-utf8.graph"],
        1, "InputError", "unreadable input file"),
    "malformed-edge-list": (
        {"bad.graph": "a b c\n"}, ["tangles", "--input", "{d}/bad.graph"],
        1, "InputError", "malformed edge list"),
    "invalid-json": (
        {"bad.json": "{"}, ["validate", "--input", "{d}/bad.json"],
        1, "InputError", "invalid JSON"),
    "two-input-sources": (
        {}, ["tangles", *P3_GRAPH, "--bipartition", "1,2"],
        1, "InputError", "exactly one input source required"),
    "family-not-an-object": ({"f.json": "[1]"}, ["tangles", *FAMILY], *MALFORMED),
    "family-field-type": ({"f.json": '{"sets": 5}'}, ["tangles", *FAMILY], *MALFORMED),
    "family-member": ({"f.json": '{"sets": [["x"]]}'}, ["tangles", *FAMILY], *MALFORMED),
    "R-without-order": (
        {"f.json": '{"generate": ["R"]}'},
        ["tangles", "--bipartition", "1,2", "--forbidden", "{d}/f.json"],
        2, "PreconditionError", "generator R needs an order function"),
    "unknown-directive": (
        {"f.json": '{"generate": ["everything"]}'}, ["tangles", *FAMILY],
        1, "InputError", "unknown generator directive"),
    "no-order": (
        {}, ["tst", "--bipartition", "1,2"],
        2, "PreconditionError", "this command needs an order function"),
    "no-universe": (
        {}, ["refine-order", "--input", "{d}/sys.json", "--order", "{d}/const.json"],
        2, "PreconditionError", "submodularity needs a universe"),
    "count-guard": (
        {}, ["tangles", *P3_GRAPH, "--bounds", "2"],
        2, "BoundExceeded", "separation count exceeds bound"),
    "unwritable-output": (
        {"afile": "not a directory\n"}, ["refine-order", *P3_GRAPH, "--out", "{d}/afile"],
        1, "InputError", "unwritable output"),
    "bounds-not-positive": (
        {}, ["tangles", *P3_GRAPH, "--bounds", "0"],
        2, "UsageError", "argument --bounds: invalid value: '0'"),
    "wrong-join-cell": (
        {"wrong.json": p3_universe_with_a_wrong_join_cell},
        ["validate", "--input", "{d}/wrong.json"],
        1, "SystemValidationError", "axiom join-least-upper-bound violated"),
    "library-input-tier": (
        {"label.json": '{"oriented": [{"id": 0, "inv": 1, "label": 5}, '
                       '{"id": 1, "inv": 0, "label": "b"}]}'},
        ["validate", "--input", "{d}/label.json"],
        1, "SystemValidationError", "axiom malformed-label violated"),
    "library-precondition-tier": (
        {}, ["totins", *P3_GRAPH, "--forbidden", "{d}/stars.json"],
        2, "HypothesisFailure", "tree-of-tangles hypotheses failed"),
    "library-theorem-tier": (
        {"poor.json": poor_family_text},
        ["tst", *P3_GRAPH, "--k", "2", "--forbidden", "{d}/poor.json"],
        3, "RichnessViolation", "closure orients all of S"),
    "reduction-gate": (
        {}, ["reduce", *P3_GRAPH, "--k", "2", "--forbidden", "{d}/stars.json"],
        3, "TheoremViolation", "reduced tree fails its is_ordered gate"),
    "unknown-handle": (
        {"o99.json": '{"orders": {"99": 1}}'}, ["tst", *P3_GRAPH, "--order", "{d}/o99.json"],
        1, "UnknownHandle", "unknown oriented handle 99"),
    "non-submodular-order": (
        {"crooked.json": p3_order_not_submodular},
        ["refine-order", *P3_GRAPH, "--order", "{d}/crooked.json"],
        2, "NonSubmodularOrder", "witness pair"),
    "non-star-family": (
        {"f.json": '{"sets": [[1, 3]]}'}, ["newduality", *FAMILY, "--k", "2"],
        2, "NonStarFamily", "family member [1, 3] is not a star"),
    "inconsistent-closure": (
        {"stars2.json": p3_stars2_text},
        ["tst", *P3_GRAPH, "--forbidden", "{d}/stars2.json"],
        3, "TheoremViolation",
        "closure of the path [0, 1, 2, 3, 5, 8, 14] is inconsistent: pair (14, 16)"),
}

# The function that a row replaces, where its caller reads it, to reach a
# branch that no input reaches: the reduced tree's gate, and the builder's
# check that each path closure is consistent, which a standard family always
# passes.
FAILURE_PATCHES = {
    "reduction-gate": ("tanglekit.reduce.is_ordered", lambda tree, order: False),
    "inconsistent-closure": ("tanglekit.tst.is_standard", lambda family, system: (True, ())),
}


def write_failure_files(d, case):
    """Write the files of row ``case`` into ``d``, beside those of the
    ``workdir`` and ``plain_system`` fixtures."""
    write_plain_inputs(write_p3_inputs(d))
    for name, text in CLI_FAILURES[case][0].items():
        (d / name).write_bytes((text() if callable(text) else text).encode(
            "utf-8", "surrogateescape"))


def run_failure(d, monkeypatch, case):
    """The exit code of row ``case`` run on ``d``, with its patch in place."""
    with monkeypatch.context() as patched:
        if case in FAILURE_PATCHES:
            patched.setattr(*FAILURE_PATCHES[case])
        return main(["--out", str(d / "out"), *(a.format(d=d) for a in CLI_FAILURES[case][1])])


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_every_failure_reports_its_tier(tmp_path, capsys, monkeypatch, case):
    # one report shape: the exit status is the code of the raised class's tier
    import tanglekit.errors
    want_code, want_kind, want_error = CLI_FAILURES[case][2:]
    write_failure_files(tmp_path, case)
    code = run_failure(tmp_path, monkeypatch, case)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert (code, err["kind"]) == (want_code, want_kind)
    assert err["ok"] is False and err["code"] == code
    assert err["error"].startswith(want_error)
    raised = getattr(tanglekit.errors, err["kind"])
    assert issubclass(raised, tanglekit.errors.TanglekitError) and raised.code == code
