"""Outside-in spans around the public entry points of tanglekit's layers.

Nothing in the program is changed: ``install`` replaces each entry point with
a timing wrapper, in its defining module and in every module that bound the
same function with ``from .x import y`` (and in module-level dicts such as
``cli.COMMANDS``).  Spans stay in memory; ``Recorder.dump`` writes them once,
when the op exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter_ns

LAYERS = ("cli", "core", "universe", "orderfn", "forbidden", "tst", "duality", "tot")
# Module -> layer.  DOT output counts under cli; fixtures is set-up only.
MODULE_LAYER = {**{m: m for m in LAYERS}, "dot": "cli"}

# Small predicates called inside the search loops.  Wrapping them would add
# more time than they take, so their time counts toward the calling span.
HOT = {
    "core.mask_of", "core.iter_mask",
    "core.SeparationSystem.inv", "core.SeparationSystem.leq",
    "core.SeparationSystem.lt", "core.SeparationSystem.sep",
    "core.SeparationSystem.label", "core.SeparationSystem.elements",
    "core.SeparationSystem.seps", "core.SeparationSystem.orientations",
    "core.SeparationSystem.contains", "core.SeparationSystem.is_degenerate",
    "core.SeparationSystem.is_small", "core.SeparationSystem.is_trivial",
    "core.SeparationSystem.is_cotrivial", "core.SeparationSystem.points_towards",
    "core.SeparationSystem.is_star", "core.SeparationSystem.is_nested",
    "core.SeparationSystem.is_consistent", "core.SeparationSystem.consistency_witness",
    "core.SeparationSystem.closure", "core.SeparationSystem.closure_mask",
    "core.SeparationSystem.is_orientation", "core.SeparationSystem.oriented_seps",
    "core.SeparationSystem.distinguishes",
    "universe.Universe.join", "universe.Universe.meet",
    "orderfn.OrderFunction.of", "orderfn.OrderFunction.values_on",
    "orderfn.OrderFunction.is_injective_on", "orderfn.Enumeration.rank",
    "forbidden.avoids", "forbidden.eclipse_flags", "forbidden.efficiency_witness",
    "forbidden.is_efficient", "forbidden.is_strongly_efficient", "forbidden.set_geq",
    "forbidden.ForbiddenFamily.tag",
    "tst.SeparationTree.nodes", "tst.SeparationTree.is_leaf",
    "tst.SeparationTree.leaves", "tst.SeparationTree.node_sep",
    "tst.SeparationTree.beta", "tst.SeparationTree.beta_mask",
    "tst.SeparationTree.descendants", "tst.SeparationTree.tree_infimum",
    "tst.beta_path", "tst.classify_leaf",
    "duality.STree.nodes", "duality.STree.edges", "duality.STree.oriented_edges",
    "duality.STree.incoming", "duality.STree.star_at", "duality.STree.side_nodes",
    "duality.STree.edge_geq",
    "duality.shift_map", "duality.shift_star", "duality.emulates",
    "duality.lemma_shift_select",
}


def layer_of(span_name):
    """The one layer a span name belongs to, or None."""
    return MODULE_LAYER.get(span_name.split(".", 1)[0])


class Recorder:
    """Spans of one op: (name, start_ns, end_ns, parent index, raised type)."""

    def __init__(self, op):
        self.op = op
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = None
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, raised)

        return traced

    def dump(self, path, counts):
        with open(path, "w") as f:
            json.dump({"op": self.op, "spans": self.spans, "counts": counts}, f)


def _entry_points(mod, modname):
    """(span name, owner, attribute, function, kind) for each public entry point."""
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{modname}.{attr}", mod, attr, obj, "function"
        elif inspect.isclass(obj):
            for mattr, raw in list(vars(obj).items()):
                if mattr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    yield f"{modname}.{attr}.{mattr}", obj, mattr, raw.__func__, "classmethod"
                elif isinstance(raw, staticmethod):
                    yield f"{modname}.{attr}.{mattr}", obj, mattr, raw.__func__, "staticmethod"
                elif inspect.isfunction(raw):
                    yield f"{modname}.{attr}.{mattr}", obj, mattr, raw, "function"


def install(recorder, counts):
    """Wrap every non-hot public entry point of the eight layers; return their names.

    ``counts`` receives the counters that spans cannot give: oriented
    separations built, consistent orientations enumerated, and repeated
    submodularity checks of one (system, order) pair.
    """
    modules = {m: importlib.import_module(f"tanglekit.{m}") for m in MODULE_LAYER}
    replaced = {}
    names = []
    for modname, mod in modules.items():
        for name, owner, attr, fn, kind in _entry_points(mod, modname):
            if name in HOT:
                continue
            wrapped = recorder.wrap(name, _counting(name, fn, counts))
            if kind == "classmethod":
                setattr(owner, attr, classmethod(wrapped))
            elif kind == "staticmethod":
                setattr(owner, attr, staticmethod(wrapped))
            else:
                setattr(owner, attr, wrapped)
            replaced[fn] = wrapped
            names.append(name)
    # Rebind names imported with ``from .x import y`` and dict entries.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in replaced:
                        obj[key] = replaced[val]
    return sorted(names)


def _counting(name, fn, counts):
    if name == "universe.graph_universe":
        def counted(*args, **kwargs):
            uni, order = fn(*args, **kwargs)
            counts["oriented_built"] += uni.n_ground
            return uni, order
    elif name == "universe.bipartition_universe":
        def counted(*args, **kwargs):
            uni = fn(*args, **kwargs)
            counts["oriented_built"] += uni.n_ground
            return uni
    elif name == "core.SeparationSystem.consistent_orientations":
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["orientations_enumerated"] += len(out)
            return out
    elif name == "universe.is_submodular":
        seen = set()
        keep = []  # holds checked objects so their ids stay unique

        def counted(system, order, *args, **kwargs):
            values = getattr(order, "_values", None)
            key = (id(system.ground), system.members,
                   tuple(sorted(values.items())) if values is not None else id(order))
            counts["submodularity_repeats"] += key in seen
            seen.add(key)
            keep.append((system, order))
            return fn(system, order, *args, **kwargs)
    else:
        return fn
    return functools.wraps(fn)(counted)
