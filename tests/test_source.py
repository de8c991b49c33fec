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

PACKAGE = Path(tanglekit.__file__).parent
# The layers only some commands run; importing the CLI loads none of them.
COMMAND_LAYERS = ["tanglekit.dot", "tanglekit.duality", "tanglekit.forbidden",
                  "tanglekit.tot", "tanglekit.tst"]


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
    # enumeration is library API only, defined in orderfn
    found = []
    for path, tree in package_trees():
        if path.name == "orderfn.py":
            continue
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
# definition, and necessity's test that nothing of a tangle path lies below x.
BELOW_CALLERS = {("forbidden.py", "_eclipsers"), ("tst.py", "necessity")}


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


# The sites outside orderfn that may read order values through ``of`` or
# ``handle_values``: the two U-wide checks, which also take plain callables.
ORDER_VALUE_READERS = {("universe.py", "is_submodular"),
                       ("universe.py", "is_structurally_submodular")}


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
            name = getattr(node, "attr", getattr(node, "id", None))
            if (isinstance(node, ast.Attribute) and name == "of"
                    or isinstance(node, (ast.Name, ast.Attribute))
                    and name == "handle_values") and (
                        path.name, fn) not in ORDER_VALUE_READERS:
                found.append(f"{path.name}:{node.lineno} {fn} reads {name}")
    assert not found, f"order values read outside orderfn: {found}"


# What the fixtures leave to the modules that own it: the order rows, which
# give the star test as SeparationSystem._star_row, and the predicates that
# give the replacement rule as forbidden._replacements.
FIXTURE_UNREAD = {"_up", "_down", "_incompat", "_req",
                  "is_consistent", "consistency_witness", "is_cotrivial", "_eclipsers"}


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


# The leaf kinds of a structure tree, and the modules that read them: the tree
# layer, and the DOT writer, which colours leaves by kind.
LEAF_KINDS = {"LEAF_TANGLE", "LEAF_FORBIDDEN", "LEAF_UNRESOLVED"}
LEAF_KIND_READERS = {"tst.py", "dot.py"}


def test_leaf_kinds_are_read_in_the_tree_layer():
    # the theorems read a tree's tangles through displayed_tangles and
    # tangle_nodes, so no second reading of the leaf kinds can drift
    found = []
    for path, tree in package_trees():
        if path.name in LEAF_KIND_READERS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            found += [f"{path.name}:{node.lineno} names {n}" for n in names if n in LEAF_KINDS]
    assert not found, f"leaf kinds read outside the tree layer: {found}"


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


FILE_READS = {"open", "read_text", "read_bytes"}


def test_the_cli_reads_input_files_in_one_place():
    # cli.read_input turns every unreadable file into an exit-1 report; a
    # read anywhere else would end in a traceback
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for node, fn in nodes_in_functions(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in FILE_READS and fn != "read_input":
            found.append(f"cli.py:{node.lineno} {fn} calls {name}")
    assert not found, f"input files read outside cli.read_input: {found}"


FILE_WRITES = {"mkdir", "write_text", "write_bytes"}


def test_the_cli_writes_output_files_in_one_place():
    # cli._write_output turns every unwritable output into an exit-1 report; a
    # write anywhere else would end in a traceback
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for node, fn in nodes_in_functions(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in FILE_WRITES and fn != "_write_output":
            found.append(f"cli.py:{node.lineno} {fn} calls {name}")
    assert not found, f"output files written outside cli._write_output: {found}"


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


# The definitions that no line of src/ reads and that stay public: each is a
# claim the tests check, or waits for the ROADMAP item that gives it a caller.
# README names each, with its role, under "Library API that no command runs".
LIBRARY_API = {
    "without_trivial", "from_tables", "is_submodular_subsystem", "corners",
    "constant", "indicator", "gamma", "symmetrize", "enumeration_refinement",
    "tangles_preserved_under_refinement", "is_strongly_efficient",
    "closed_under_eclipsing", "set_geq", "tree_infimum", "display",
    "is_thoroughly_ordered", "validate_tst_in_s", "check_nested_corollary",
    "stree_from_nested", "lemma_shift_select", "is_critical",
}


def test_every_definition_is_referenced():
    # a function, method or class that no line of src/ names is dead code
    # unless it is library API; a test is not a caller.  fixtures.py is exempt:
    # it holds the builders that the tests and the benchmark read.  Dunder
    # methods are called by the interpreter.
    used = set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    unread = {}
    for path, tree in package_trees():
        if path.name == "fixtures.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and node.name not in used):
                unread[node.name] = f"{path.name}:{node.lineno}"
    found = sorted(f"{where} {name}" for name, where in unread.items()
                   if name not in LIBRARY_API)
    assert not found, f"definitions src/ never reads: {found}"
    assert set(unread) == LIBRARY_API, f"read in src/ or gone: {LIBRARY_API - set(unread)}"
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Library API that no command runs\n")[1].split("\n## ")[0]
    named = {part for span in re.findall(r"`([\w.]+)`", section) for part in span.split(".")}
    assert LIBRARY_API <= named, f"no README role for {LIBRARY_API - named}"


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
    assert not set(added) & {"dataclasses", *COMMAND_LAYERS}


@pytest.mark.parametrize("command,argv,unused", [
    ("refine-order", ["--input", "p3.graph"], COMMAND_LAYERS),
    ("validate", ["--input", "p3.json", "--order", "order.json"], COMMAND_LAYERS),
    ("tst", ["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"],
     ["tanglekit.dot", "tanglekit.duality", "tanglekit.tot"]),
    ("reduce", ["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"],
     ["tanglekit.dot"]),
    ("duality", ["--input", "p3.graph", "--k", "2", "--forbidden", "stars.json"],
     ["tanglekit.dot"]),
], ids=["refine-order", "validate", "tst", "reduce", "duality"])
def test_a_command_loads_only_the_layers_it_runs(tmp_path, command, argv, unused):
    # dot is loaded only with --emit dot, which no row passes
    (tmp_path / "p3.graph").write_text("a b\nb c\n")
    u, o = p3_universe()
    (tmp_path / "p3.json").write_text(json.dumps(u.to_json()))
    (tmp_path / "order.json").write_text(json.dumps(o.to_json()))
    stars = graph_tangle_stars(u, o, "abc", [("a", "b"), ("b", "c")], 2).to_json()
    stars["generate"] = ["standardize"]
    (tmp_path / "stars.json").write_text(json.dumps(stars))
    args = [command, *argv, "--out", "out"]
    added = modules_added(f"import os; os.chdir({str(tmp_path)!r})\n"
                          "from tanglekit.cli import main\n"
                          f"assert main({args!r}) == 0")
    assert (tmp_path / "out" / f"{command}.json").exists()
    assert not set(added) & set(unused)


def test_only_the_process_entry_point_touches_the_collector():
    # cli.run freezes the heap before the process exits; main and the library
    # are called in-process and must leave the collector as they found it
    found = []
    for path, tree in package_trees():
        for node, fn in nodes_in_functions(tree):
            name = getattr(node, "id", getattr(node, "name", None))
            if name == "gc" and (path.name, fn) != ("cli.py", "run"):
                found.append(f"{path.name}:{node.lineno} {fn}")
    assert not found, f"gc referenced outside cli.run: {found}"
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


def calls_by_name():
    """Each call in src/, tests/ or benchmark/, under the name it calls:
    ``super().__init__`` is filed under "super"."""
    calls = {}
    for folder in ("src", "tests", "benchmark"):
        for path in sorted((REPO / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if (name == "__init__" and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "id", None) == "super"):
                    name = "super"
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, name, position):
    """Whether ``call`` may set parameter ``name``; a starred argument may set any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no call overrides is a setting nobody runs: it is a
    # constant, and belongs in the body
    calls = calls_by_name()
    found = []
    for path, tree in package_trees():
        for cls, fn, name, position in defaulted_parameters(tree):
            names = [fn.name]
            if fn.name == "__init__" and cls is not None:
                names += [cls, "super"]
            if not any(passes(call, name, position)
                       for n in names for call in calls.get(n, ())):
                found.append(f"{path.name}:{fn.lineno} {fn.name}({name})")
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
