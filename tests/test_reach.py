"""Every definition of src/ runs under some command, or is named here.

A fixed corpus of in-process ``cli.main`` calls runs under ``sys.setprofile``,
which records each code object of the package that is called; then each
library root of ``LIBRARY_API`` runs once, so the helpers only a root reads
count as reached.  A ``def`` that neither reaches is code that only the tests
run.  ``fixtures.py`` is exempt: it holds the builders that the tests and the
benchmark read (ROADMAP item 14).
"""

import ast
import json
import sys
from pathlib import Path

import tanglekit
from tanglekit.cli import main
from tanglekit.universe import graph_universe
from test_cli import (
    CLI_FAILURES,
    LADDER_INPUTS,
    run_failure,
    write_failure_files,
    write_ladder_inputs,
)
from test_readme import readme_commands, write_readme_inputs
from test_source import LIBRARY_API

PACKAGE = Path(tanglekit.__file__).resolve().parent

# The documents no command writes, each with its reader: the benchmark's
# ``workloads.write_inputs`` and the README's library lines write a universe
# and a family with these; a universe writes its poset through its base class.
INPUT_WRITERS = {"core.SeparationSystem.to_json", "universe.Universe.to_json",
                 "forbidden.ForbiddenFamily.to_json"}
# The process entry point, which ``python -m tanglekit.cli`` and the subprocess
# tests run around ``main``.
ENTRY_POINT = {"cli.run"}
NOT_ON_A_COMMAND_PATH = LIBRARY_API | INPUT_WRITERS | ENTRY_POINT

LADDER_GRAPHS = ["P4", "C5", "K1,4"]
LADDER_COMMANDS = ["tangles", "tst", "reduce", "duality", "newduality", "tot", "totins"]


def definitions():
    """(qualified name, key) for each def of src/ outside fixtures.py, methods
    and nested defs included.  The key is (file, first line), the first line
    being that of the first decorator, as in the code object."""
    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                yield f"{prefix}{child.name}", (path, first)
                yield from visit(child, f"{prefix}{child.name}.", path)
            else:
                inner = f"{child.name}." if isinstance(child, ast.ClassDef) else ""
                yield from visit(child, prefix + inner, path)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "fixtures.py":
            yield from visit(ast.parse(path.read_text()), f"{path.stem}.", path)


def reached(calls):
    """The (file, first line) of each code object of the package called while
    ``calls`` run; a profiler already set is restored afterwards."""
    seen = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(record)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(before)
    return {(path, code.co_firstlineno) for code in seen
            if (path := Path(code.co_filename).resolve()).parent == PACKAGE}


def star_system_inputs(d):
    """The two-separation chain r -> s with an injective order, and the
    family {r->}, {s<-}, {r<-, s->}: no tangle, and an S-tree on a path of
    three nodes, whose middle node makes the conversion compare labels."""
    from tanglekit.fixtures import chain2_system
    from tanglekit.orderfn import OrderFunction
    s = chain2_system()
    (d / "chain.json").write_text(json.dumps(s.to_json()))
    order = OrderFunction(s, {sep: i + 1 for i, sep in enumerate(s.seps())})
    (d / "chain-order.json").write_text(json.dumps(order.to_json()))
    (d / "chain-family.json").write_text('{"sets": [[0], [3], [1, 2]]}')
    return ["duality", "--input", f"{d}/chain.json", "--order", f"{d}/chain-order.json",
            "--forbidden", f"{d}/chain-family.json", "--check-exclusive", "--emit", "dot"]


def command_corpus(d, monkeypatch):
    """Write the corpus's input files under ``d``; the calls that run it.
    Each run outside the exit-code table must exit 0."""
    calls = []
    for case in sorted(CLI_FAILURES):
        (d / case).mkdir()
        write_failure_files(d / case, case)
        calls.append(lambda case=case: run_failure(d / case, monkeypatch, case))
    (d / "readme").mkdir()
    monkeypatch.chdir(d / "readme")
    monkeypatch.delenv("TANGLEKIT_OUT", raising=False)
    write_readme_inputs()
    runs = readme_commands()
    for g in LADDER_GRAPHS:
        write_ladder_inputs(d, g, 2)
        (d / f"{g}.universe.json").write_text(
            json.dumps(graph_universe(*LADDER_INPUTS[g])[0].to_json()))
        graph = ["--input", f"{d}/{g}.graph", "--k", "2", "--emit", "dot"]
        runs += [[command, *graph, "--forbidden",
                  f"{d}/{g}.{'full' if command.startswith('tot') else 'stars'}2.json"]
                 for command in LADDER_COMMANDS]
        runs += [["refine-order", "--input", f"{d}/{g}.graph"],
                 ["validate", "--input", f"{d}/{g}.universe.json"]]
    (d / "profiles.json").write_text('{"sets": [], "generate": ["profiles", "standardize"]}')
    runs += [["tangles", "--input", f"{d}/readme/p3.graph", "--k", "2",
              "--forbidden", f"{d}/profiles.json"],
             ["tangles", "--bipartition", "1,2,3"],
             star_system_inputs(d)]

    def run(argv):
        assert main([*argv, "--out", str(d / "out")]) == 0, argv
    return calls + [lambda argv=argv: run(argv) for argv in runs]


def library_roots():
    """One call of each name of ``LIBRARY_API`` on a P3 fixture or the
    two-separation chain, its arguments built first."""
    from tanglekit.fixtures import chain2_system, graph_tangle_stars, p3_universe
    from tanglekit.forbidden import enumerate_tangles, standardize
    from tanglekit.ingest import stree_from_json, tree_from_json
    from tanglekit.orderfn import refine_injective
    from tanglekit.stree import stree_from_nested
    from tanglekit.tot import build_tst_in_S, validate_tst_in_s
    from tanglekit.tst import build_thorough_tst, display, is_thoroughly_ordered
    from tanglekit.universe import restrict_Sk
    u, o = p3_universe()
    inj, s2 = refine_injective(o), restrict_Sk(u, o, 2)
    stars = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2)
    family = standardize(stars, s2)
    tree = build_thorough_tst(s2, inj, family)
    tau = next(iter(enumerate_tangles(s2, family)))
    layered_family = standardize(stars, u)
    layered = build_tst_in_S(u, inj, layered_family)
    chain = chain2_system()
    tree_doc, stree_doc = tree.to_json(), stree_from_nested(chain).to_json()
    return {
        "tst.display": lambda: display(tree, tau),
        "tst.is_thoroughly_ordered": lambda: is_thoroughly_ordered(tree, inj),
        "tot.validate_tst_in_s": lambda: validate_tst_in_s(layered, layered_family, inj),
        "ingest.tree_from_json": lambda: tree_from_json(s2, tree_doc),
        "stree.stree_from_nested": lambda: stree_from_nested(chain),
        "ingest.stree_from_json": lambda: stree_from_json(chain, stree_doc),
    }


def test_every_definition_runs_under_a_command_or_is_named(tmp_path, monkeypatch):
    # a def that no command reaches, and that no library root reads, is code
    # only the tests run; a named one that a command reaches is named for
    # nothing
    defs = list(definitions())
    by_command = reached(command_corpus(tmp_path, monkeypatch))
    roots = library_roots()
    assert set(roots) == LIBRARY_API
    by_either = by_command | reached(roots.values())
    unreached = sorted(name for name, key in defs
                       if key not in by_either and name not in NOT_ON_A_COMMAND_PATH)
    assert not unreached, f"definitions that only the tests run: {unreached}"
    named = dict(defs)
    missing = sorted(NOT_ON_A_COMMAND_PATH - set(named))
    assert not missing, f"named definitions that are gone: {missing}"
    run = sorted(name for name in NOT_ON_A_COMMAND_PATH if named[name] in by_command)
    assert not run, f"named definitions that a command runs: {run}"
