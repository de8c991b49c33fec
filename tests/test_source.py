"""Source-level guards on the package itself."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tanglekit
from tanglekit.fixtures import graph_tangle_stars, p3_universe
from tanglekit.forbidden import standardize
from tanglekit.universe import graph_universe, restrict_Sk

PACKAGE = Path(tanglekit.__file__).parent
# The layers only some commands run; importing the CLI loads none of them.
COMMAND_LAYERS = ["tanglekit.dot", "tanglekit.duality", "tanglekit.forbidden",
                  "tanglekit.ingest", "tanglekit.reduce", "tanglekit.stree",
                  "tanglekit.tot", "tanglekit.tst"]
# What no command loads: the stdlib parser and what it brings.  And the
# rationals, loaded only to read an order from JSON, to parse a p/q
# threshold or to report a rational.
NO_COMMAND_LOADS = ["argparse", "gettext", "locale"]
RATIONALS = ["fractions", "decimal"]


def package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so invariant checks must raise explicitly
    found = []
    for path, tree in package_trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_no_dataclasses_in_package():
    # importing dataclasses (and inspect with it) costs every run 10-20 ms
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported in src: {found}"


def test_one_refinement_path_in_package():
    # refine_injective is the one refinement the package runs; the ranked
    # enumeration lives in the tests' oracles
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("enumeration_refinement", "Enumeration"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"second refinement path in src: {found}"


# The down-set searches that may read ``_below`` directly: the eclipse
# definition, and leaf_needs's test that nothing of a tangle path lies below x
# (its cached ``needs``, which the walk below also counts inside leaf_needs).
BELOW_CALLERS = {("forbidden.py", "_eclipsers"), ("reduce.py", "leaf_needs"),
                 ("reduce.py", "needs")}


def test_one_eclipse_definition_in_package():
    # _eclipsers is the one definition of eclipsing: no other loop walks a
    # down-set row itself
    found = []
    for path, tree in package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "_below" and (path.name, fn.name) not in BELOW_CALLERS:
                    found.append(f"{path.name}:{node.lineno} {fn.name} calls {name}")
    assert not found, f"eclipse comparisons outside _eclipsers: {found}"


def nodes_in_functions(node, fn=None):
    """Each node below ``node``, with the name of its innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        yield child, fn
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from nodes_in_functions(child, child.name if inner else fn)


def test_order_values_compared_as_integers_outside_orderfn():
    # an order function holds integers, ``num`` over ``den``; no other module
    # turns them back into Fractions to compare them
    found = []
    for path, tree in package_trees():
        if path.name == "orderfn.py":
            continue
        for node, fn in nodes_in_functions(tree):
            if isinstance(node, ast.Attribute) and node.attr == "of":
                found.append(f"{path.name}:{node.lineno} {fn} reads of")
    assert not found, f"order values read outside orderfn: {found}"


# What the fixtures leave to the modules that own it: the order rows, which
# give the star test as SeparationSystem._star_row, and the predicates that
# give the replacement rule as forbidden._replacements.
FIXTURE_UNREAD = {"_up", "_down", "_incompat", "_req",
                  "is_consistent_mask", "consistency_witness", "is_cotrivial", "_eclipsers"}


def test_fixtures_reuse_the_star_row_and_the_replacement_rule():
    # a fixture that re-derives a star or a replacement from these drifts from
    # the definition the checks use
    tree = ast.parse((PACKAGE / "fixtures.py").read_text())
    found = []
    for node, fn in nodes_in_functions(tree):
        name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in FIXTURE_UNREAD:
            found.append(f"fixtures.py:{node.lineno} {fn} reads {name}")
    assert not found, f"fixtures re-deriving a star or a replacement: {found}"


# The readers of the orientation search, each of which needs whole
# orientations: the list of them, richness, and the dichotomy's tangle.
ORIENTATION_SEARCHERS = {("core.py", "orientations_avoiding"), ("forbidden.py", "is_rich"),
                         ("duality.py", "dichotomy")}


def test_orientation_search_only_where_whole_orientations_are_needed():
    # whether a set lies in some consistent orientation is forbidden.extends,
    # a test on the set alone; nothing else walks the orientations for it
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if (isinstance(node, (ast.Name, ast.Attribute)) and name == "_orientations"
                    and (path.name, fn) not in ORIENTATION_SEARCHERS):
                found.append(f"{path.name}:{node.lineno} {fn} reads {name}")
    assert not found, f"orientation searches outside their readers: {found}"


# The reader of a family that reports its members as sets, and the functions
# of the tree code that make a set of handles from a mask: a leaf's witness,
# the builder's richness refutation and the layered tangle witness.
FAMILY_SET_READERS = {"ordered"}
TREE_SET_MAKERS = {("tst.py", "classify_leaf"), ("tst.py", "build_thorough_tst"),
                   ("tot.py", "_leaf_class_in_s")}


def test_family_masks_are_read_and_sets_made_only_where_reported():
    # a family holds its members as masks; a function outside forbidden.py
    # that reads them as sets and masks them again pays a round trip, and so
    # does the tree code turning a mask into a set it does not report
    reads = {}
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            name = getattr(node, "attr", getattr(node, "id", None))
            if isinstance(node, ast.Attribute) and name in FAMILY_SET_READERS or name == "mask_of":
                reads.setdefault((path.name, fn), set()).add(name)
            if (path.name in ("tst.py", "reduce.py", "tot.py") and isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "frozenset" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "id", None) == "iter_mask"
                    and (path.name, fn) not in TREE_SET_MAKERS):
                found.append(f"{path.name}:{node.lineno} {fn} makes a set from a mask")
    found += [f"{file} {fn} masks a family's {sorted(names & FAMILY_SET_READERS)}"
              for (file, fn), names in reads.items()
              if file != "forbidden.py" and "mask_of" in names and names & FAMILY_SET_READERS]
    assert not found, f"family sets masked again, or sets made from masks: {found}"


def functions(tree):
    """(name, node) for each module-level function and method, a method named
    ``Class.method``; a nested function is walked with the one around it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


# The boundaries where a set of handles enters the library as a mask: the
# handles of a subsystem, the orientation a tree displays, the members of a
# family and a test for one, and the tangles whose distinguishers are reported.
MASK_BOUNDARIES = {("core.py", "SeparationSystem.restrict"), ("tst.py", "display"),
                   ("forbidden.py", "ForbiddenFamily.__init__"),
                   ("forbidden.py", "ForbiddenFamily.__contains__"),
                   ("tot.py", "distinguisher_report")}


def test_sets_enter_as_masks_only_at_the_boundaries():
    # inside the library a set of handles is a mask, and the predicates take
    # masks: a function that masks a parameter, with ``mask_of`` or by
    # mapping it, is a set form whose callers hold the mask already
    found, boundaries = [], set()
    for path, tree in package_trees():
        for name, fn in functions(tree):
            a = fn.args
            params = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", None)
                args = (node.args if called == "mask_of" else node.args[1:]
                        if called == "map" and getattr(node.args[0], "id", None) == "mask_of"
                        else [])
                masked = [x.id for x in args if getattr(x, "id", None) in params]
                if masked and (path.name, name) in MASK_BOUNDARIES:
                    boundaries.add((path.name, name))
                elif masked:
                    found.append(f"{path.name}:{node.lineno} {name} masks {masked[0]}")
    assert not found, f"set forms of mask predicates: {found}"
    assert boundaries == MASK_BOUNDARIES, f"no longer masking: {MASK_BOUNDARIES - boundaries}"


# The predicates of the tree-of-tangles hypotheses that read the whole
# universe or walk orientations.
TOT_HYPOTHESIS_PREDICATES = {"is_rich", "is_structurally_submodular"}


def test_the_tree_layers_state_the_tot_hypotheses_once():
    # tot and totins share check_tot_hypotheses, so they cannot drift apart
    # on what the theorem asks
    found = []
    for path, tree in package_trees():
        if path.name not in ("tot.py", "tst.py"):
            continue
        for node, fn in nodes_in_functions(tree):
            name = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            if name in TOT_HYPOTHESIS_PREDICATES and fn != "check_tot_hypotheses":
                found.append(f"{path.name}:{node.lineno} {fn} calls {name}")
    assert not found, f"hypothesis predicates outside check_tot_hypotheses: {found}"


# The leaf kinds of a structure tree, and the code that reads them: the tree
# layer, the DOT writer, which colours leaves by kind, and the layered tree,
# which lives in tot.py, its one caller (None: tot.py's imports).
LEAF_KINDS = {"LEAF_TANGLE", "LEAF_FORBIDDEN", "LEAF_UNRESOLVED"}
LEAF_KIND_READERS = {"tst.py", "dot.py", "reduce.py"}
LAYERED_TREE = {("tot.py", None), ("tot.py", "_leaf_class_in_s"), ("tot.py", "build_tst_in_S")}


def test_leaf_kinds_are_read_in_the_tree_layer():
    # the theorems read a tree's tangles through displayed_tangles and
    # tangle_nodes, so no second reading of the leaf kinds can drift
    found = []
    for path, tree in package_trees():
        if path.name in LEAF_KIND_READERS:
            continue
        for node, fn in nodes_in_functions(tree):
            if (path.name, fn) in LAYERED_TREE:
                continue
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            found += [f"{path.name}:{node.lineno} names {n}" for n in names if n in LEAF_KINDS]
    assert not found, f"leaf kinds read outside the tree layer: {found}"


# The brute-force tangle enumerations, which the tests read as oracles.
TANGLE_ENUMERATIONS = {"enumerate_tangles", "enumerate_tangles_in", "maximal_tangles_in"}


def test_the_tree_of_tangles_enumerates_no_tangle():
    # tot and totins read their tangles off the structure tree they checked,
    # so neither command enumerates the tangles of a layer; the library's
    # oracle-grade check of a layered tree, which no command runs, does
    found = [f"tot.py:{node.lineno} names {name}"
             for node, fn in nodes_in_functions(ast.parse((PACKAGE / "tot.py").read_text()))
             if fn != "validate_tst_in_s"
             for name in (getattr(node, "id", getattr(node, "attr", None)),
                          getattr(node, "name", None)) if name in TANGLE_ENUMERATIONS]
    assert not found, f"tangle enumerations in tot.py: {found}"


# The places that may ask whether a system lives in a universe: the one
# requirement, and validate, which also reports on plain systems.
UNIVERSE_TESTERS = {("universe.py", "_universe_of"), ("cli.py", "cmd_validate")}


def test_one_universe_requirement():
    # a call that reads joins or meets states its need through _universe_of,
    # so every such call stops with the same exit-2 report
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and any(getattr(a, "id", None) == "Universe" for a in ast.walk(node.args[1]))
                    and (path.name, fn) not in UNIVERSE_TESTERS):
                found.append(f"{path.name}:{node.lineno} {fn} tests for a universe")
            if getattr(node, "name", None) == "require_universe":
                found.append(f"{path.name}:{node.lineno} defines require_universe")
    assert not found, f"universe checks outside _universe_of: {found}"


def test_a_universe_holds_only_its_derived_tables():
    # _tables is a cached_property of the poset; code that assigns it could
    # keep tables other than the derived ones
    found = []
    for path, tree in package_trees():
        for name, fn in functions(tree):
            for node in ast.walk(fn):
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                if any(isinstance(t, ast.Attribute) and t.attr == "_tables"
                       for target in targets for t in ast.walk(target)):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"_tables assigned: {found}"


# The steps of the two tree-of-tangles theorems, which the CLI reaches only
# through tot.tree_of_tangles and tot.tree_of_tangles_in.
TOT_STEPS = {"check_tot_hypotheses", "tangle_nodes", "classify_leaves", "build_tst_in_S"}


def test_the_cli_runs_each_tot_theorem_through_its_library_call():
    # a command that strings the steps together itself can drift from the
    # library's extraction, which the tests check against the oracle
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for node, fn in nodes_in_functions(tree):
        name = isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None))
        if name in TOT_STEPS:
            found.append(f"cli.py:{node.lineno} {fn} calls {name}")
    assert not found, f"tree-of-tangles steps called from the CLI: {found}"


# The functions that take a ``bound``: the input-size guards, which cap what
# comes from outside the program.  The separation count is guarded once, by
# the CLI's ``check_bound``.
BOUND_TAKERS = {("universe.py", "graph_universe"), ("universe.py", "bipartition_universe")}
LIBRARY_COUNT_GUARD = {"_bounded_seps", "ENUMERATION_BOUND"}


def test_no_product_of_orientations_and_the_count_guard_only_on_searches():
    # an S-tree excludes tangles by its sink argument, a check on the tree;
    # nothing walks the full product of orientations, and no library search
    # guards its own size: the CLI counts what a command walks
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            name = getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
            if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                    and any(alias.name == "product" for alias in node.names)
                    or isinstance(node, ast.Attribute) and name == "product"
                    and getattr(node.value, "id", None) == "itertools"):
                found.append(f"{path.name}:{node.lineno} {fn} uses itertools.product")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (path.name, name) not in BOUND_TAKERS
                    and any(a.arg == "bound" for a in ast.walk(node.args)
                            if isinstance(a, ast.arg))):
                found.append(f"{path.name}:{node.lineno} {name} takes bound")
            elif name in LIBRARY_COUNT_GUARD:
                found.append(f"{path.name}:{node.lineno} {fn} names {name}")
    assert not found, f"orientation products or library count guards: {found}"


def test_the_bound_counts_the_one_system_prepare_made():
    # prepare restricts S and counts it once; Run holds no universe, so no
    # command can count separations or enumerate tangles past S
    import tanglekit.cli
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [f"cli.py:{node.lineno} {fn}" for node, fn in nodes_in_functions(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_bound"]
    assert len(calls) == 1 and calls[0].endswith(" prepare"), calls
    assert "uni" not in tanglekit.cli.Run._fields


FILE_READS = {"open", "read_text", "read_bytes"}


def utf8_encoding(call) -> bool:
    """True iff ``call`` passes encoding="utf-8", so its bytes do not depend on the locale."""
    return any(kw.arg == "encoding" and isinstance(kw.value, ast.Constant)
               and kw.value.value == "utf-8" for kw in call.keywords)


def test_the_cli_reads_input_files_in_one_place():
    # cli.read_input turns every unreadable file into an exit-1 report; a
    # read anywhere else would end in a traceback.  Its one read is UTF-8.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found, reads = [], []
    for node, fn in nodes_in_functions(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in FILE_READS and fn != "read_input":
            found.append(f"cli.py:{node.lineno} {fn} calls {name}")
        elif name in FILE_READS:
            reads.append(node)
    assert not found, f"input files read outside cli.read_input: {found}"
    assert len(reads) == 1 and utf8_encoding(reads[0]), \
        "cli.read_input must make one read, with encoding='utf-8'"


FILE_WRITES = {"mkdir", "write_text", "write_bytes"}


def test_the_cli_writes_output_files_in_one_place():
    # cli._write_output turns every unwritable output into an exit-1 report; a
    # write anywhere else would end in a traceback.  Its one write is UTF-8.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found, writes = [], []
    for node, fn in nodes_in_functions(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in FILE_WRITES and fn != "_write_output":
            found.append(f"cli.py:{node.lineno} {fn} calls {name}")
        elif name in FILE_WRITES - {"mkdir"}:
            writes.append(node)
    assert not found, f"output files written outside cli._write_output: {found}"
    assert len(writes) == 1 and utf8_encoding(writes[0]), \
        "cli._write_output must make one write, with encoding='utf-8'"


def test_every_module_level_import_is_used():
    # an import that nothing in its module reads is left over from code that
    # has gone
    found = []
    for path, tree in package_trees():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if (alias.asname or alias.name).split(".")[0] not in used]
    assert not found, f"imports never used: {found}"


# benchmark/workloads.py passes ``nv``, so it stays while that call does.
UNREAD_PARAMETERS_ALLOWED = {("fixtures.py", "_cut_order", "nv")}


def test_every_parameter_is_read():
    # a parameter no body reads is an option with no effect; lambdas are
    # exempt, since a callback's signature is fixed by its caller
    found = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path.name}:{node.lineno} {node.name}({name})"
                      for name in params if name not in read
                      and (path.name, node.name, name) not in UNREAD_PARAMETERS_ALLOWED]
    assert not found, f"parameters never read: {found}"


REPO = Path(__file__).resolve().parent.parent


# The definitions that no command runs and that stay public: each waits for
# the ROADMAP item that gives it a caller, item 11's ``check`` or item 3's
# tree-decomposition.  README names each, with that item, under "Library API
# that no command runs"; tests/test_reach.py runs each once as a library root.
LIBRARY_API = {"tst.display", "tst.is_thoroughly_ordered", "tot.validate_tst_in_s",
               "ingest.tree_from_json", "stree.stree_from_nested", "ingest.stree_from_json"}


def test_every_definition_is_referenced():
    # a class that no line of src/ names is dead code; fixtures.py is exempt:
    # it holds the builders that the tests and the benchmark read.  Functions
    # and methods are held to a stricter rule by tests/test_reach.py: some
    # command runs each, or it is named.
    used = set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    found = sorted(f"{path.name}:{node.lineno} {node.name}"
                   for path, tree in package_trees() if path.name != "fixtures.py"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name not in used)
    assert not found, f"classes src/ never names: {found}"
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Library API that no command runs\n")[1].split("\n## ")[0]
    entries = {span: entry for entry in section.split("\n* ")[1:]
               for span in re.findall(r"^`([\w.]+)`", entry)}
    assert LIBRARY_API <= set(entries), f"no README entry for {LIBRARY_API - set(entries)}"
    uncited = sorted(name for name in LIBRARY_API
                     if not re.search(r"(?i)item (11|3)\b", " ".join(entries[name].split())))
    assert not uncited, f"README entries that cite no coming caller: {uncited}"


def modules_added(code):
    """Names ``code`` adds to sys.modules in a fresh interpreter, sorted."""
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_command_layer():
    # ``python -m tanglekit.cli`` imports the package first
    assert modules_added("import tanglekit") == ["tanglekit"]
    added = modules_added("import tanglekit.cli")
    assert "tanglekit.cli" in added
    assert not set(added) & {"dataclasses", *COMMAND_LAYERS, *NO_COMMAND_LOADS, *RATIONALS}


def layers_but(*used):
    return [m for m in COMMAND_LAYERS if m not in {f"tanglekit.{u}" for u in used}]


GRAPH_OP = ["--input", "P4.graph", "--k", "2", "--unsafe-bounds"]
UNIVERSE_OP = ["--input", "P4.universe.json", "--order", "P4.order.json"]


# Each graph-k2 and universe-json command as the benchmark runs it, on P4,
# then the commands no workload runs; with the modules it must not load.
@pytest.mark.parametrize("command,argv,unused", [
    ("tst", [*GRAPH_OP, "--forbidden", "P4.stars2.json", "--emit", "dot"],
     layers_but("forbidden", "tst", "dot") + RATIONALS),
    ("reduce", [*GRAPH_OP, "--forbidden", "P4.stars2.json"],
     layers_but("forbidden", "tst", "reduce") + RATIONALS),
    ("duality", [*GRAPH_OP, "--forbidden", "P4.stars2.json"],
     layers_but("forbidden", "tst", "duality") + RATIONALS),
    ("newduality", [*GRAPH_OP, "--forbidden", "P4.stars2.json"],
     layers_but("forbidden", "tst", "duality") + RATIONALS),
    ("tot", [*GRAPH_OP, "--forbidden", "P4.full2.json", "--emit", "dot"],
     layers_but("forbidden", "tst", "tot", "dot") + RATIONALS),
    ("refine-order", ["--input", "P4.graph"], COMMAND_LAYERS),
    ("validate", UNIVERSE_OP, layers_but("ingest")),
    ("tst", [*UNIVERSE_OP, "--k", "2", "--forbidden", "P4.stars2.json", "--unsafe-bounds"],
     layers_but("ingest", "forbidden", "tst")),
    ("tangles", ["--input", "P4.graph", "--k", "2", "--forbidden", "P4.stars2.json"],
     layers_but("forbidden")),
    ("totins", ["--input", "p3.graph", "--forbidden", "p3.stars-full.json"],
     layers_but("forbidden", "tst", "tot") + RATIONALS),
], ids=["tst", "reduce", "duality", "newduality", "tot", "refine-order", "validate",
        "tst-universe-json", "tangles", "totins"])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, argv, unused):
    # spawned as benchmark/run.py spawns an op, under -X importtime: in the
    # directory of its inputs, with src/ as PYTHONPATH.  Spawning and
    # compiling the modules are most of a short run, so none loads idle;
    # both duality rows find a tangle, so neither converts an S-tree.
    write_benchmark_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "TANGLEKIT_OUT"}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tanglekit.cli", command, *argv,
         "--out", "out"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "out" / f"{command}.json").exists()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert not loaded & {*unused, *NO_COMMAND_LOADS}, sorted(loaded & {*unused,
                                                                      *NO_COMMAND_LOADS})


def write_benchmark_inputs(d):
    """P4's inputs as ``benchmark/workloads.write_inputs`` writes a graph's at
    k=2, and P3's edge list with its k=4 stars generating R."""
    names, edges = "abcd", [("a", "b"), ("b", "c"), ("c", "d")]
    (d / "P4.graph").write_text("".join(f"{a} {b}\n" for a, b in edges))
    uni, order = graph_universe(names, edges)
    stars = graph_tangle_stars(uni, order, names, edges, 2)
    for name, family, generate in (
            ("stars2", standardize(stars, restrict_Sk(uni, order, 2)), ["standardize"]),
            ("full2", stars, ["R", "standardize"])):
        (d / f"P4.{name}.json").write_text(json.dumps({**family.to_json(),
                                                       "generate": generate}))
    (d / "P4.universe.json").write_text(json.dumps(uni.to_json()))
    (d / "P4.order.json").write_text(json.dumps(order.to_json()))
    (d / "p3.graph").write_text("a b\nb c\n")
    u, o = p3_universe()
    full = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 4)
    (d / "p3.stars-full.json").write_text(json.dumps({**full.to_json(),
                                                      "generate": ["R", "standardize"]}))


def test_only_the_process_entry_point_ends_the_process():
    # cli.run runs the atexit handlers and ends the process with os._exit,
    # skipping the interpreter's teardown; main and the library are called
    # in-process and must return, and nothing touches the collector
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if name == "gc" or (name in ("_exit", "atexit", "_run_exitfuncs")
                                and (path.name, fn) != ("cli.py", "run")):
                found.append(f"{path.name}:{node.lineno} {fn} names {name}")
    assert not found, f"process exit or collector outside cli.run: {found}"
    script = 'tanglekit = "tanglekit.cli:run"'
    assert script in (REPO / "pyproject.toml").read_text().splitlines()


def defaulted_parameters(tree):
    """(class name or None, function node, parameter name, position or None)
    for each parameter with a default; the position counts the arguments a
    call passes, so a method's ``self`` or ``cls`` is not counted."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [x.arg for x in a.posonlyargs + a.args]
                skip = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                for i, name in enumerate(positional):
                    if i >= len(positional) - len(a.defaults):
                        yield cls, child, name, i - skip
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield cls, child, arg.arg, None
                yield from visit(child, None)
            else:
                yield from visit(child, child.name if isinstance(child, ast.ClassDef) else cls)
    yield from visit(tree, None)


def base_names(cls):
    return [getattr(b, "id", getattr(b, "attr", None)) for b in cls.bases]


def calls_in(node, bases=()):
    """(call, the bases of the innermost class around it) for each call below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, bases
        yield from calls_in(child, base_names(child) if isinstance(child, ast.ClassDef)
                            else bases)


def calls_by_name():
    """Each call in src/ or benchmark/, under the name it calls.  A
    ``super().__init__`` call runs a base class's constructor, so it is filed
    under the bases of its class."""
    calls = {}
    for folder in ("src", "benchmark"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for node, bases in calls_in(ast.parse(path.read_text(), filename=str(path))):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if (name == "__init__" and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "id", None) == "super"):
                    for base in bases:
                        calls.setdefault(base, []).append(node)
                else:
                    calls.setdefault(name, []).append(node)
    return calls


def constructor_callers():
    """Class name -> the names whose call runs that class's own ``__init__``:
    its own, and those of the classes of src/ that inherit it."""
    bases, own = {}, set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = base_names(node)
                if any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                       for f in node.body):
                    own.add(node.name)
    callers = {}
    for name in bases:
        owner = name
        while owner in bases and owner not in own and bases[owner]:
            owner = bases[owner][0]
        callers.setdefault(owner, []).append(name)
    return callers


def passes(call, name, position):
    """Whether ``call`` may set parameter ``name``; a starred argument may set any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no call in src/ or benchmark/ overrides is a setting no
    # command runs: it is a constant, and belongs in the body.  A test is not
    # a caller.  fixtures.py is exempt, as in the definition guard, and so is
    # the ``bound`` of the two input-size guards (BOUND_TAKERS), which the
    # tests lower to reach the guard
    calls, constructors = calls_by_name(), constructor_callers()
    found = []
    for path, tree in package_trees():
        if path.name == "fixtures.py":
            continue
        for cls, fn, name, position in defaulted_parameters(tree):
            if name == "bound" and (path.name, fn.name) in BOUND_TAKERS:
                continue
            names = [fn.name]
            if fn.name == "__init__" and cls is not None:
                names += constructors[cls]
            if not any(passes(call, name, position)
                       for n in names for call in calls.get(n, ())):
                qualified = fn.name if cls is None else f"{cls}.{fn.name}"
                found.append(f"{path.name}:{fn.lineno} {qualified}({name})")
    assert not found, f"defaulted parameters no caller sets: {found}"


def test_the_cli_has_one_failure_channel():
    # every failure is a tanglekit exception whose tier sets the exit code,
    # so main reports them all one way and no private channel can drift
    import tanglekit.cli
    own = [name for name, obj in vars(tanglekit.cli).items()
           if isinstance(obj, type) and issubclass(obj, BaseException)
           and obj.__module__ == "tanglekit.cli"]
    assert not own, f"exception classes defined in cli.py: {own}"
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert [getattr(h.type, "id", None) for h in handlers] == ["TanglekitError"]
