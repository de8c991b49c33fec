"""Command-line entry point: ingestion, orchestration, emission.

Every subcommand reads one input source (system/universe JSON, a graph edge
list, or a bipartition ground set), writes a JSON artifact into the output
directory (and DOT files with --emit dot), and exits with

  0  success
  1  malformed input, with the violated axiom / parse location
  2  precondition or hypothesis failure, with a structured report
  3  theorem-violation diagnostic (for example a richness refutation)

Outputs are pure functions of the inputs; reruns are byte-identical.  A run
loads only the modules its command and its inputs need: ``ingest`` for a
JSON input or order, and each command's layers in its own body.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from pathlib import Path
from types import SimpleNamespace

from .errors import (
    BoundExceeded,
    InputError,
    PreconditionError,
    TanglekitError,
    TheoremViolation,
    UsageError,
)
from .orderfn import parse_threshold, refine_injective, refines
from .universe import Universe, bipartition_universe, graph_universe, is_submodular, restrict_Sk

DEFAULT_BOUND = 16
OUT_ENV = "TANGLEKIT_OUT"


# -- ingestion -----------------------------------------------------------------


def read_input(path) -> str:
    """The UTF-8 text of an input file: the one place input files are read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError("input file not found", file=str(path))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, not UTF-8, ...
        raise InputError("unreadable input file", file=str(path), detail=str(exc))


def load_graph_text(path):
    vertices, edges = set(), []
    for lineno, raw in enumerate(read_input(path).split("\n"), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.add(parts[0])
            continue
        if len(parts) != 2:
            raise InputError("malformed edge list", file=str(path),
                             line=lineno, text=raw.rstrip())
        a, b = parts
        vertices.update((a, b))
        edges.append((a, b))
    return sorted(vertices), edges


def _read_json(path):
    try:
        return json.loads(read_input(path))
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON", file=str(path), line=exc.lineno, column=exc.colno)


def load_inputs(args):
    """Resolve (system_or_universe, order) from the run spec."""
    sources = [s for s in (args.input, args.bipartition) if s]
    if len(sources) != 1:
        raise InputError("exactly one input source required",
                         given=[s for s in ("--input" if args.input else None,
                                            "--bipartition" if args.bipartition else None) if s])
    order = None
    if args.bipartition:
        ground = [tok for tok in args.bipartition.split(",") if tok]
        uni = bipartition_universe(ground)
    else:
        path = Path(args.input)
        if path.suffix == ".json":
            from .ingest import system_from_json, universe_from_json

            obj = _read_json(path)
            if isinstance(obj, dict) and "join" in obj:
                uni = universe_from_json(obj)
            else:
                uni = system_from_json(obj)
        else:
            vertices, edges = load_graph_text(path)
            uni, order = graph_universe(vertices, edges)
    if args.order:
        from .ingest import order_from_json

        order = order_from_json(uni, _read_json(args.order))
    return uni, order


def check_family_document(obj, path, n):
    """An object whose ``sets`` lists lists of integer handles below ``n``, with
    ``generate`` a list where present.  Any other key is not read."""
    if not isinstance(obj, dict):
        raise InputError("malformed forbidden family", file=path,
                         detail="the document is not an object")
    for key in ("sets", "generate"):
        if not isinstance(obj.get(key, []), list):
            raise InputError("malformed forbidden family", file=path,
                             detail=f"{key} is not a JSON array")
    for member in obj.get("sets", []):
        if not (isinstance(member, list)
                and all(type(h) is int and 0 <= h < n for h in member)):
            raise InputError("malformed forbidden family", file=path, member=member,
                             detail=f"a member must be a list of handles 0..{n - 1}")


def load_family(args, system, order):
    from .forbidden import ForbiddenFamily, profile_family, robustness_family, standardize

    fam = ForbiddenFamily([])
    generate = []
    if args.forbidden:
        obj = _read_json(args.forbidden)
        check_family_document(obj, args.forbidden, system.n_ground)
        fam = ForbiddenFamily.from_json(obj)
        generate = obj.get("generate", [])
    for directive in generate:
        if directive == "R":
            if order is None:
                raise PreconditionError("generator R needs an order function")
            fam = fam.extended(robustness_family(order, target=system))
        elif directive == "profiles":
            fam = fam.extended(profile_family(target=system))
        elif directive == "standardize":
            fam = standardize(fam, system)
        else:
            raise InputError("unknown generator directive", directive=directive)
    return fam


def require_order(order):
    if order is None:
        raise PreconditionError("this command needs an order function "
                                "(--order, or a graph input)")
    return order


def ensure_injective(order, notes):
    """``order``, refined when it is not injective on the universe it is defined on."""
    if order.is_injective_on(order.system):
        return order
    refined = refine_injective(order)
    notes["order"] = "refined to an injective order (deterministic, default iota)"
    return refined


def check_bound(system, args):
    bound, seps = args.bounds, len(system)
    if seps > bound and not args.unsafe_bounds:
        raise BoundExceeded("separation count exceeds bound", seps=seps, bound=bound,
                            hint="pass --unsafe-bounds to acknowledge")


# -- emission -------------------------------------------------------------------


def _write_output(args, filename, text):
    """Write ``text`` as ``filename`` in the output directory (--out, else
    $TANGLEKIT_OUT, else .), created if missing: the one place output is written."""
    path = Path(args.out or os.environ.get(OUT_ENV, ".")) / filename
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:  # the directory is a file, or lies under one, ...
        raise InputError("unwritable output", file=str(path), detail=str(exc))
    return path


def write_artifact(args, name, obj):
    return _write_output(args, f"{name}.json", json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_dot(args, name, render):
    """With --emit dot, write ``render(dot)`` as <name>.dot, passing the ``dot``
    module; otherwise render nothing and leave ``dot`` unloaded."""
    if args.emit != "dot":
        return None
    from . import dot

    return _write_output(args, f"{name}.dot", render(dot))


def tangle_list(tangles):
    return [sorted(t) for t in sorted(tangles, key=sorted)]


def require_self_check(ok, name, report):
    """Exit 3 with ``report`` when the artifact just written fails its self-check."""
    if not ok:
        raise TheoremViolation(f"{name} artifact fails its self-check: {report}")


# -- subcommands ------------------------------------------------------------------
#
# Each command imports the forbidden, tst, reduce, duality and tot names it uses
# in its own body, and ``write_dot`` imports dot only when it renders, so a
# command loads only the layers it runs.


def cmd_validate(args):
    uni, order = load_inputs(args)
    report = {"schema": "tanglekit/report-v1", "system": {
        "oriented": len(uni.elements()), "separations": len(uni.seps())}}
    if isinstance(uni.ground, Universe):
        uni.ground._tables  # a poset that is no lattice raises here: exit 1
        report["lattice"] = {"ok": True, "failures": []}
    if order is not None:
        # a plain system has no joins or meets to check submodularity on
        ok, witness = (None, None)
        if isinstance(uni.ground, Universe):
            ok, witness = is_submodular(uni, order)
        report["order"] = {"submodular": ok,
                           "witness": list(witness) if witness else None}
    write_artifact(args, "validate", report)
    return report


# One command's inputs after the shared set-up steps of ``prepare``.
Run = namedtuple("Run", "system order k family notes")


def prepare(args, order_use="optional") -> Run:
    """Load, restrict to S_k, check the bound, refine the order, load the family.

    ``system`` is S_k, or the whole input when no threshold applies: the one
    system a command works on, and the one the bound counts.  ``order_use`` is
    "optional" (needed only to restrict to S_k), "required", or "injective": a
    non-injective order is then refined before the family is generated, so the
    R triples use the refined order, and ``notes.order`` says so.
    """
    uni, order = load_inputs(args)
    k = parse_threshold(args.k)
    if order_use != "optional" or k is not None:
        require_order(order)
    system = uni if k is None else restrict_Sk(uni, order, k)
    check_bound(system, args)
    notes = {}
    if order_use == "injective":
        order = ensure_injective(order, notes)
    family = load_family(args, system, order)
    return Run(system, order, k, family, notes)


def cmd_tangles(args):
    from .forbidden import enumerate_tangles, enumerate_tangles_in

    run = prepare(args)
    out = {"schema": "tanglekit/tangles-v1",
           "k": str(run.k) if run.k is not None else "inf",
           "tangles": tangle_list(enumerate_tangles(run.system, run.family))}
    if run.order is not None:
        records = enumerate_tangles_in(run.system, run.family, run.order)
        out["tangles_in"] = [
            {"k": str(t.k), "elements": sorted(t.elements), "maximal": t.maximal}
            for t in records]
    write_artifact(args, "tangles", out)
    return out


def emit_tree(args, name, tree, run):
    from .tst import validate_tst

    rep = validate_tst(tree, run.family)
    obj = tree.to_json(rep.leaf_classes)
    obj["notes"] = run.notes
    obj["valid"] = rep.ok
    write_artifact(args, name, obj)
    write_dot(args, name, lambda dot: dot.tree_dot(tree, rep.leaf_classes))
    require_self_check(rep.ok, name, rep.failures)
    return obj


def cmd_tst(args):
    from .tst import build_thorough_tst

    run = prepare(args, "injective")
    tree = build_thorough_tst(run.system, run.order, run.family)
    return emit_tree(args, "tst", tree, run)


def cmd_reduce(args):
    from .reduce import reduce_irreducible
    from .tst import build_thorough_tst

    run = prepare(args, "injective")
    tree = build_thorough_tst(run.system, run.order, run.family)
    return emit_tree(args, "reduce", reduce_irreducible(tree, run.family, run.order), run)


def emit_duality(args, name, res, run):
    obj = {"schema": "tanglekit/duality-v1", "kind": res.kind,
           "notes": {**run.notes, **res.notes}}
    if res.kind == "tangle":
        obj["tangle"] = sorted(res.tangle)
    else:
        obj["stree"] = res.stree.to_json()
        write_dot(args, f"{name}-stree", lambda dot: dot.stree_dot(res.stree))
    if args.check_exclusive:
        obj["exclusive"] = True
    write_artifact(args, name, obj)
    return obj


def cmd_duality(args):
    from .duality import dichotomy

    run = prepare(args, "injective")
    res = dichotomy(run.system, run.order, run.family,
                    check_exclusive=args.check_exclusive)
    return emit_duality(args, "duality", res, run)


def cmd_newduality(args):
    from .duality import newduality

    run = prepare(args, "required")
    res = newduality(run.system, run.order, run.family,
                     check_exclusive=args.check_exclusive)
    return emit_duality(args, "newduality", res, run)


def emit_tot(args, name, run, res, **extra):
    """Write N of the tree-of-tangles record ``res``, checked against the
    brute-force optimal distinguishers of its tangles, and its tree as DOT."""
    from .tot import verify_tot

    check = verify_tot(run.system, run.order, res.distinguishers, res.tangles)
    obj = {"schema": "tanglekit/tot-v1", "N": sorted(res.distinguishers),
           "verified": check.ok, "notes": run.notes, **extra}
    write_artifact(args, name, obj)
    write_dot(args, name, lambda dot: dot.tree_dot(res.tree, res.leaf_classes,
                                                   highlight_nodes=res.tangle_nodes))
    require_self_check(check.ok, name, check._asdict())
    return obj


def cmd_tot(args):
    from .tot import tree_of_tangles

    run = prepare(args, "injective")
    res = tree_of_tangles(run.system, run.order, run.family)
    return emit_tot(args, "tot", run, res)


def cmd_totins(args):
    from .tot import tree_of_tangles_in

    run = prepare(args, "injective")
    res = tree_of_tangles_in(run.system, run.order, run.family)
    return emit_tot(args, "totins", run, res, maximal_tangles=tangle_list(res.tangles))


def cmd_refine_order(args):
    _, order = load_inputs(args)
    refined = refine_injective(require_order(order))
    uni = refined.system  # the universe the order is defined on, whatever the members
    obj = refined.to_json()
    obj["verified"] = {
        "injective": refined.is_injective_on(uni),
        "submodular": is_submodular(uni, refined)[0],
        "refines": refines(refined, order, uni)[0],
    }
    write_artifact(args, "refine-order", obj)
    require_self_check(all(obj["verified"].values()), "refine-order", obj["verified"])
    return obj


COMMANDS = {
    "validate": cmd_validate,
    "tangles": cmd_tangles,
    "tst": cmd_tst,
    "reduce": cmd_reduce,
    "duality": cmd_duality,
    "newduality": cmd_newduality,
    "tot": cmd_tot,
    "totins": cmd_totins,
    "refine-order": cmd_refine_order,
}


# -- the command line ------------------------------------------------------------------
#
# One fixed grammar, the same for every command: one COMMAND, given anywhere,
# and the options of OPTIONS, each at most once in effect (the last given
# wins).  An option is named in full or by a unique prefix, and takes its
# value as the next argument or after "=".  An argument after the first "--"
# is never an option.  It reads what an argparse parser of these options
# reads, and reports what that parser rejects as a UsageError, exit 2.


def _emit(value):
    if value not in ("json", "dot"):
        raise ValueError(value)
    return value


# option -> (attribute, reader of its value); a flag has no reader, and is True
# when given.  A reader raises ValueError on a value it refuses.
OPTIONS = {
    "--input": ("input", str),
    "--bipartition": ("bipartition", str),
    "--forbidden": ("forbidden", str),
    "--order": ("order", str),
    "--k": ("k", str),
    "--emit": ("emit", _emit),
    "--out": ("out", str),
    "--bounds": ("bounds", int),
    "--unsafe-bounds": ("unsafe_bounds", None),
    "--check-exclusive": ("check_exclusive", None),
}
DEFAULTS = {"command": None, "input": None, "bipartition": None, "forbidden": None,
            "order": None, "k": None, "emit": "json", "out": None, "bounds": DEFAULT_BOUND,
            "unsafe_bounds": False, "check_exclusive": False}
HELP = ("-h", "--help")
LONG = ["--help", *OPTIONS]
# an argument that looks like a negative number is a value, not an option
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")

USAGE = f"""usage: tanglekit COMMAND [options]

Tangles of finite separation systems, with oracles.

commands: {", ".join(COMMANDS)}

options, given before or after the command; a unique prefix names an option,
--opt=value is --opt value, and the last of a repeated option wins:
  --input PATH          system/universe JSON or graph edge list
  --bipartition NAMES   comma-separated ground set
  --forbidden PATH      forbidden family JSON
  --order PATH          order function JSON
  --k K                 order threshold (int, p/q, or inf)
  --emit {{json,dot}}     also write DOT files with dot (default: json)
  --out DIR             output directory (or ${OUT_ENV}, else .)
  --bounds N            separation count bound (default: {DEFAULT_BOUND})
  --unsafe-bounds       run past the bound
  --check-exclusive     check that the other branch of the dichotomy fails
  -h, --help            print this and exit
"""


def _option(arg):
    """(option, explicit value or None) for an argument that names an option,
    (None, None) for one that looks like an option but names none, and None
    for a value.  An ambiguous prefix raises UsageError."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in OPTIONS or arg in HELP:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and (name in OPTIONS or name in HELP):
        return name, value
    if arg[1] == "-":
        matches = [(o, value if eq else None) for o in LONG if o.startswith(name)]
    else:  # only -h is short, and -hVALUE gives it VALUE
        matches = [("-h", arg[2:])] if arg[1] == "h" else []
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {arg} could match "
                         + ", ".join(o for o, _ in matches))
    if matches:
        return matches[0]
    if NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def parse_args(argv):
    """The run spec ``argv`` gives, or None when it asks for --help.

    Two passes, as argparse makes them: every argument before the first "--"
    is classified first, so an ambiguous prefix anywhere fails before any
    other; then the arguments are read left to right.  The first value that
    no option takes is the command; a later one, an unknown option, or a
    "--" not next to the command is left over.  Leftovers and a missing
    command fail only once --help had its turn.
    """
    split = argv.index("--") if "--" in argv else len(argv)
    kinds = list(map(_option, argv[:split]))
    if split < len(argv):
        kinds += ["--"] + [None] * (len(argv) - split - 1)
    spec, extras, command_at = dict(DEFAULTS), [], None
    i = 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind == "--":
            if command_at != i - 2 and not (command_at is None and i < len(argv)):
                extras.append(arg)
        elif kind is None:
            if command_at is not None:
                extras.append(arg)
            elif arg not in COMMANDS:
                raise UsageError(f"argument command: invalid choice: {arg!r}")
            else:
                spec["command"], command_at = arg, i - 1
        elif kind[0] is None:
            extras.append(arg)
        elif kind[0] in HELP:
            explicit = kind[1]
            if explicit is None or (kind[0] == "-h" and explicit and not explicit.strip("h")):
                return None  # -hh is -h -h
            raise UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
        else:
            option, explicit = kind
            attr, read = OPTIONS[option]
            if read is None:
                if explicit is not None:
                    raise UsageError(f"argument {option}: ignored explicit argument "
                                     f"{explicit!r}")
                spec[attr] = True
                continue
            if explicit is None:
                if i == len(argv) or kinds[i] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                explicit = argv[i]
                i += 1
            try:
                spec[attr] = read(explicit)
            except ValueError:
                raise UsageError(f"argument {option}: invalid value: {explicit!r}") from None
    if command_at is None:
        raise UsageError("the following arguments are required: command")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**spec)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(USAGE, end="")
            return 0
        if args.bounds < 1:
            raise InputError("bounds must be positive", bounds=args.bounds)
        result = COMMANDS[args.command](args)
    except TanglekitError as exc:
        print(json.dumps({**exc.report, "ok": False, "code": exc.code,
                          "kind": type(exc).__name__, "error": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return exc.code
    print(json.dumps({"ok": True, "command": args.command,
                      "summary": _summary(result)}, sort_keys=True))
    return 0


def _summary(result):
    keys = ("kind", "tangles", "N", "valid", "verified")
    return {k: (len(result[k]) if isinstance(result[k], list) else result[k])
            for k in keys if k in result}


def run():
    """The process entry point: ``main()``, then exit with its code.

    The atexit handlers run and stdout and stderr are flushed, then
    ``os._exit`` ends the process without the interpreter's teardown: no
    module is cleared and no final collection runs, and the operating system
    reclaims the heap with the process.  ``main`` itself returns, for
    callers that run it in-process.
    """
    import atexit

    code = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
