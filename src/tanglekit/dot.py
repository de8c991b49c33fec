"""Deterministic Graphviz emitters.

DOT output is derived from the JSON artifacts and never re-ingested.  Node
ids and attribute order are fixed so identical inputs emit identical bytes.
"""

from __future__ import annotations

from .tst import LEAF_FORBIDDEN, LEAF_TANGLE

_LEAF_COLOR = {LEAF_TANGLE: "green", LEAF_FORBIDDEN: "red"}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_dot(tree, leaf_classes, highlight_nodes=()) -> str:
    """A rooted separation tree; leaves colored by class, extras highlighted."""
    sys = tree.system
    lines = ["digraph tst {", "  rankdir=TB;", "  node [shape=circle];"]
    highlight = set(highlight_nodes)
    for v in tree.nodes():
        attrs = [f"label={_quote(str(v))}"]
        if v in leaf_classes:
            color = _LEAF_COLOR.get(leaf_classes[v].kind)
            if color:
                attrs.append(f"style=filled fillcolor={color}")
        if v in highlight:
            attrs.append("penwidth=3 color=blue")
        lines.append(f"  n{v} [{' '.join(attrs)}];")
    for v in tree.nodes():
        for w in tree.children[v]:
            label = _quote(sys.label(tree.edge_label[w]))
            lines.append(f"  n{v} -> n{w} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def stree_dot(stree) -> str:
    """An S-tree; each undirected edge is labelled by both alpha values."""
    sys = stree.system
    lines = ["graph stree {", "  node [shape=box];"]
    for t in stree.nodes():
        lines.append(f"  n{t} [label={_quote(str(t))}];")
    for e in stree.edges():
        a, b = sorted(e)
        label = _quote(
            f"{sys.label(stree.alpha[(a, b)])} / {sys.label(stree.alpha[(b, a)])}")
        lines.append(f"  n{a} -- n{b} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
