"""End-to-end CLI runs: artifacts, determinism, exit codes, round trips."""

import json

import pytest

from tanglekit.cli import main
from tanglekit.fixtures import graph_tangle_stars, p3_universe
from tanglekit.forbidden import enumerate_tangles, standardize
from tanglekit.tst import SeparationTree
from tanglekit.universe import restrict_Sk

P3_EDGES = "a b\nb c\n"


@pytest.fixture()
def workdir(tmp_path):
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
    return tmp_path


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
    tree = SeparationTree.from_json(s2, obj)
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


def test_hypothesis_failure_exit_2(workdir, capsys):
    # totins without the robustness triples in the family
    code, _ = run(workdir, "totins", "--input", str(workdir / "p3.graph"),
                  "--forbidden", str(workdir / "stars.json"))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "HypothesisFailure"


def test_richness_violation_exit_3(workdir, capsys):
    # a single high-order member with no low-order shadow: standard, not rich
    from tanglekit.forbidden import ForbiddenFamily
    from tanglekit.orderfn import refine_injective
    u, o = p3_universe()
    o2 = refine_injective(u, o)
    s2 = restrict_Sk(u, o, 2)
    top = max(s2.seps(), key=o2.of)
    fam = standardize(ForbiddenFamily([]), s2)
    obj = fam.extended([{s2.orientations(top)[0]}], "explicit").to_json()
    obj["generate"] = ["standardize"]
    (workdir / "poor.json").write_text(json.dumps(obj))
    code, _ = run(workdir, "tst", "--input", str(workdir / "p3.graph"),
                  "--k", "2", "--forbidden", str(workdir / "poor.json"))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "RichnessViolation"


def test_bipartition_source(workdir):
    code, out = run(workdir, "tangles", "--bipartition", "1,2")
    assert code == 0
    got = json.loads((out / "tangles.json").read_text())
    assert got["k"] == "inf" and got["tangles"]


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
    from tanglekit.orderfn import OrderFunction
    from tanglekit.tst import build_thorough_tst
    from tanglekit.forbidden import ForbiddenFamily
    u, o = p3_universe()
    empty = restrict_Sk(u, o, 0)
    t = build_thorough_tst(empty, OrderFunction.constant(u), ForbiddenFamily([]))
    text = tree_dot(t)
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
    code, _ = run(workdir, "tangles", "--bipartition", "1,2", "--bounds", "0")
    assert code == 1


# sha256 of every artifact each subcommand writes on the P3 fixture.  Files
# named *.graph / *.json are resolved inside the work directory.
PINNED_ARTIFACTS = {
    "tangles": (["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"], {
        "tangles.json": "8880d9d64baf0297cd1ef45bc5fc9a2c64a0ddc6900ccdea4e5136ffa6660454"}),
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
}


@pytest.mark.parametrize("command", sorted(PINNED_ARTIFACTS))
def test_artifacts_pinned(workdir, command):
    import hashlib
    u, _ = p3_universe()
    (workdir / "p3.json").write_text(json.dumps(u.to_json()))
    args, want = PINNED_ARTIFACTS[command]
    argv = [str(workdir / a) if a.endswith((".graph", ".json")) else a for a in args]
    code, out = run(workdir, command, *argv)
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
    for i, python in enumerate(pythons):
        runs = [[command,
                 [str(workdir / a) if a.endswith((".graph", ".json")) else a for a in args],
                 str(workdir / f"out-{i}-{command}")]
                for command, (args, _) in sorted(PINNED_ARTIFACTS.items())]
        proc = subprocess.run([python, "-c", PINNED_RUNNER, json.dumps(runs)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, (python, proc.stderr)
        for command, _, out in runs:
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).iterdir())}
            assert got == PINNED_ARTIFACTS[command][1], (python, command)


def run_stars2_r(workdir, flags, command):
    """``command`` in a subprocess on P3 with the k=2 stars plus R over the
    whole universe, which leave a small separation below the degenerate one
    unforbidden; returns (exit code, stderr report)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tanglekit
    u, o = p3_universe()
    obj = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2).to_json()
    obj["generate"] = ["R", "standardize"]
    (workdir / "stars2-R.json").write_text(json.dumps(obj))
    src = str(Path(tanglekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "tanglekit.cli", command,
         "--input", str(workdir / "p3.graph"),
         "--forbidden", str(workdir / "stars2-R.json"), "--out", str(workdir / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, json.loads(proc.stderr)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_degenerate_layer_hypothesis_exit_2_with_and_without_optimize(workdir, flags):
    # totins checks every layer eagerly, before the tree is built
    code, err = run_stars2_r(workdir, flags, "totins")
    assert code == 2
    assert err["ok"] is False and err["kind"] == "HypothesisFailure"
    assert err["error"].startswith("family does not forbid {12} in S_")
    assert err["error"].endswith("the degenerate separation 16 above 12")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_inconsistent_closure_exit_3_on_the_tst_command(workdir, flags):
    # tst runs no per-layer check; the builder's closure check still reports
    code, err = run_stars2_r(workdir, flags, "tst")
    assert code == 3
    assert err["ok"] is False and err["kind"] == "TheoremViolation"
    assert "inconsistent" in err["error"]


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
    from tanglekit.orderfn import OrderFunction
    s = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(s.to_json()))
    (tmp_path / "order.json").write_text(json.dumps(OrderFunction.constant(s, 1).to_json()))
    (tmp_path / "gen.json").write_text(json.dumps({"sets": [], "generate": [generator]}))
    code = main(["tangles", "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "order.json"),
                 "--forbidden", str(tmp_path / "gen.json"), "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == f"generator {generator} needs a universe (joins and meets)"


@pytest.fixture()
def plain_system(tmp_path):
    """The two-separation chain (no joins or meets), a constant order, all singletons."""
    from tanglekit.fixtures import chain2_system, singleton_family
    from tanglekit.orderfn import OrderFunction
    s = chain2_system()
    (tmp_path / "sys.json").write_text(json.dumps(s.to_json()))
    (tmp_path / "const.json").write_text(json.dumps(OrderFunction.constant(s, 1).to_json()))
    (tmp_path / "singles.json").write_text(json.dumps(singleton_family(s).to_json()))
    return tmp_path


def run_plain(tmp_path, command, *extra):
    return main([command, "--input", str(tmp_path / "sys.json"),
                 "--order", str(tmp_path / "const.json"),
                 "--forbidden", str(tmp_path / "singles.json"),
                 "--out", str(tmp_path / "out"), *extra])


def test_newduality_on_a_plain_system_exit_2(plain_system, capsys):
    assert run_plain(plain_system, "newduality", "--k", "5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "newduality needs a universe (joins and meets)"


@pytest.mark.parametrize("command", ["tst", "reduce", "tot", "duality", "totins"])
def test_non_injective_order_on_a_plain_system_exit_2(plain_system, capsys, command):
    # totins ignores --k and refines over the whole system
    assert run_plain(plain_system, command, "--k", "5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "refining a non-injective order needs a universe (joins and meets)"


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


def old_parser():
    """The CLI parser as it was built with one subparser per command."""
    import argparse
    from tanglekit.cli import COMMANDS, DEFAULT_BOUND
    p = argparse.ArgumentParser(prog="tanglekit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        for flag in ("--input", "--bipartition", "--forbidden", "--order", "--k", "--out"):
            sp.add_argument(flag)
        sp.add_argument("--emit", choices=["json", "dot"], default="json")
        sp.add_argument("--bounds", type=int, default=DEFAULT_BOUND)
        for flag in ("--unsafe-bounds", "--check-exclusive", "--trust-rich"):
            sp.add_argument(flag, action="store_true")
    return p


@pytest.mark.parametrize("extra", [
    [],
    ["--input", "g.graph", "--k", "2", "--forbidden", "f.json", "--unsafe-bounds"],
    ["--bipartition", "1,2", "--order", "o.json", "--emit", "dot", "--out", "o",
     "--bounds", "7", "--check-exclusive", "--trust-rich", "--k", "inf"],
])
def test_one_parser_parses_every_command_as_the_subparsers_did(extra):
    from tanglekit.cli import COMMANDS, build_parser
    for command in COMMANDS:
        argv = [command, *extra]
        assert vars(build_parser().parse_args(argv)) == vars(old_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["tst", "--emit", "svg"],
                                  ["tst", "--bounds", "x"], ["tst", "--nosuch"]])
def test_parser_rejects_what_it_rejected(argv, capsys):
    from tanglekit.cli import build_parser
    for parser in (old_parser(), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
