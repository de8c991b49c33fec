"""The JSON readers, and the checked construction of a system from a relation.

Only a run that reads a system, universe or order document loads this
module; a graph or bipartition run builds its universe in ``universe`` and
never reads one.  Every reader checks the JSON types of what it reads and
raises SystemValidationError naming the axiom, with a witness.  The
forbidden family's reader stays with the family (``forbidden``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_

from .core import SeparationSystem, iter_mask, mask_of
from .errors import SystemValidationError
from .orderfn import OrderFunction
from .universe import Universe


def int_cells(cells, width: int) -> bool:
    """True iff every cell is a list of ``width`` integers; checked in bulk."""
    return (set(map(type, cells)) <= {list} and set(map(len, cells)) <= {width}
            and set(map(type, chain.from_iterable(cells))) <= {int})


def typed(value, kind, axiom):
    """``value`` when it is a ``kind``; else SystemValidationError(axiom), with
    ``value`` as the witness.  The JSON readers check their containers so."""
    if not isinstance(value, kind):
        raise SystemValidationError(axiom, witness=value)
    return value


# -- separation systems ------------------------------------------------------------


def from_relation(inv, leq_pairs, labels=None) -> SeparationSystem:
    """Build and validate a ground system from an explicit relation.

    ``leq_pairs`` lists (a, b) with a <= b; reflexive pairs may be omitted.
    Raises SystemValidationError naming the violated axiom and a witness.
    """
    inv = tuple(inv)
    n = len(inv)
    if sorted(inv[i] for i in range(n)) != list(range(n)):
        raise SystemValidationError("involution-permutation", witness=inv)
    for i in range(n):
        if inv[inv[i]] != i:
            raise SystemValidationError("involution-self-inverse", witness=i)
    pairs = list(leq_pairs)
    handles = list(chain.from_iterable(pairs))
    if not (set(map(len, pairs)) <= {2}
            and 0 <= min(handles, default=0) and max(handles, default=0) < n):
        for a, b in pairs:  # the first bad pair is the witness
            if not (0 <= a < n and 0 <= b < n):
                raise SystemValidationError("unknown-handle", witness=(a, b))
    # above[a]: the handles b of the pairs (a, b); each up-set is made once
    above = [[] for _ in range(n)]
    for a, b in pairs:
        above[a].append(b)
    bit = [1 << i for i in range(n)]
    up = [reduce(or_, map(bit.__getitem__, row), bit[a]) for a, row in enumerate(above)]
    if labels is None:
        labels = [str(i) for i in range(n)]
    system = SeparationSystem(inv, up, labels)
    down = system._down
    # Whole rows are checked; only the first failing row is walked pair by
    # pair, so the axiom and witness are those of the first failing pair.
    for a, row in enumerate(above):
        if (up[a] & down[a] == bit[a]
                and reduce(or_, map(up.__getitem__, row), up[a]) == up[a]):
            continue
        for b in iter_mask(up[a]):
            if a != b and (up[b] >> a) & 1:
                raise SystemValidationError("antisymmetry", witness=(a, b))
            if up[b] & ~up[a]:
                c = next(iter_mask(up[b] & ~up[a]))
                raise SystemValidationError("transitivity", witness=(a, b, c))
    # a <= b needs b* <= a*: the inverses of up[a] lie in down[a*]
    bit_inv = [bit[i] for i in inv]
    for a, row in enumerate(above):
        if reduce(or_, map(bit_inv.__getitem__, row), 0) & ~down[inv[a]]:
            b = next(b for b in iter_mask(up[a]) if not (up[inv[b]] >> inv[a]) & 1)
            raise SystemValidationError("involution-order-reversing", witness=(a, b))
    return system


def system_from_json(obj) -> SeparationSystem:
    """The system of a ``SeparationSystem.to_json`` document."""
    try:
        oriented = obj["oriented"]
        ids = [e["id"] for e in oriented]
        invs = [e["inv"] for e in oriented]
    except (KeyError, TypeError) as exc:
        raise SystemValidationError("schema", witness=str(exc)) from exc
    for h in ids + invs:
        if type(h) is not int:
            raise SystemValidationError("handle-not-int", witness=h)
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise SystemValidationError("ids-not-contiguous", witness=ids)
    inv = [0] * n
    labels = [""] * n
    for e in oriented:
        label = e.get("label", str(e["id"]))
        if not isinstance(label, str):
            raise SystemValidationError("malformed-label", witness=e)
        inv[e["id"]], labels[e["id"]] = e["inv"], label
    leq = typed(obj.get("leq", []), list, "malformed-leq")
    if not int_cells(leq, 2):  # find the first bad pair
        for pair in leq:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(type(h) is int for h in pair)):
                raise SystemValidationError("malformed-leq", witness=pair)
    sys = from_relation(inv, leq, labels)
    if "members" not in obj:
        return sys
    members = typed(obj["members"], list, "malformed-members")
    for h in members:
        if not (type(h) is int and 0 <= h < n):
            raise SystemValidationError("malformed-members", witness=h)
    return sys.restrict(mask_of(members))


# -- universes ---------------------------------------------------------------------


def universe_from_json(obj):
    """The members' view of the ``Universe`` of a ``Universe.to_json``
    document, once ``_checked`` passes the given tables."""
    view = system_from_json({k: v for k, v in obj.items() if k not in ("join", "meet")})
    n = view.n_ground
    join, meet = (_table_of_cells(obj.get(name, []), n) for name in ("join", "meet"))
    if any(-1 in row for row in join) or any(-1 in row for row in meet):
        raise SystemValidationError("lattice-tables-total", witness=None)
    g = view.ground  # the universe on its poset shares its down-sets
    uni = Universe(g._inv, g._up, g.labels, down=g._down)
    _checked(uni, join, meet)
    return uni if view is g else uni.restrict(view.members)


def _checked(uni, join, meet):
    """``uni``, if the given tables are its derived ones.

    Otherwise raises SystemValidationError at the first pair (a, b), row
    by row, whose join is not the least upper bound
    (``join-least-upper-bound``), whose meet is not the greatest lower
    bound (``meet-greatest-lower-bound``), or with (a v b)* != a* ^ b*
    (``involution-de-morgan``).  A poset that is no lattice raises at the
    derivation, with its witness.
    """
    gj, gm = given = tuple(map(tuple, join)), tuple(map(tuple, meet))
    dj, dm = derived = uni._tables
    if given == derived:
        return uni
    inv = uni._inv
    for a, ia in enumerate(inv):  # some row differs, so this loop raises
        if gj[a] == dj[a] and gm[a] == dm[a] and gm[ia] == dm[ia]:
            continue  # (a v b)* is dm[a*][b*], so no check fails in row a
        for b, ib in enumerate(inv):
            for axiom, ok in (("join-least-upper-bound", gj[a][b] == dj[a][b]),
                              ("meet-greatest-lower-bound", gm[a][b] == dm[a][b]),
                              ("involution-de-morgan", inv[gj[a][b]] == gm[ia][ib])):
                if not ok:
                    raise SystemValidationError(axiom, witness=(a, b))


def _table_of_cells(cells, n):
    """The symmetric n x n table of ``[a, b, c]`` cells; -1 where no cell is given.

    A pair may be given more than once, but only with one value; a pair given
    two values raises SystemValidationError("table-cell-repeated").

    The cells are checked in bulk; only a list with a bad cell is walked cell
    by cell, so the first bad cell is the witness.
    """
    typed(cells, list, "malformed-table")
    values = int_cells(cells, 3) and set(chain.from_iterable(cells))
    if values is False or not 0 <= min(values, default=0) <= max(values, default=0) < n:
        for cell in cells:
            if not (isinstance(cell, list) and len(cell) == 3
                    and all(type(h) is int for h in cell)):
                raise SystemValidationError("malformed-table-cell", witness=cell)
            if not all(0 <= h < n for h in cell):
                raise SystemValidationError("unknown-handle", witness=tuple(cell))
    tab = [[-1] * n for _ in range(n)]
    for a, b, c in cells:
        tab[a][b] = tab[b][a] = c
    if len(cells) > n * (n + 1) // 2:
        # more cells than pairs, so some pair is given twice; with fewer, a
        # repeated pair leaves another out and the totality check fails
        for a, b, c in cells:
            if tab[a][b] != c:
                raise SystemValidationError("table-cell-repeated", witness=(a, b))
    return tab


# -- order functions -----------------------------------------------------------------


def order_from_json(system, obj) -> OrderFunction:
    """The order function of an ``OrderFunction.to_json`` document on ``system``."""
    try:
        orders = obj["orders"]
    except (KeyError, TypeError) as exc:
        raise SystemValidationError("schema", witness=str(exc)) from exc
    values = {}
    for s, v in typed(orders, dict, "malformed-orders").items():
        try:
            # a JSON float is binary, a bool no order, and a key is written in decimal
            if type(v) not in (int, str) or str(h := int(s)) != s:
                raise TypeError(f"order entry {s!r}: {v!r}, not as to_json writes one")
            values[h] = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise SystemValidationError("malformed-order-entry",
                                        witness=(s, v)) from exc
    return OrderFunction(system, values)


# -- trees ---------------------------------------------------------------------------


def tree_from_json(system, obj):
    """The ``tst.SeparationTree`` of a ``to_json`` document.  A document,
    ``nodes``, node entry, ``children`` or ``beta`` of another JSON type than
    written (``tree-document``, ``tree-nodes``, ``tree-node``,
    ``tree-children``, ``tree-beta``), a ``schema`` other than TREE_SCHEMA
    (``tree-schema``), an entry whose ``id`` is not its int index
    (``tree-node-id``), a child that is no int node or is listed twice
    (``tree-child``), a ``beta`` key that is not the decimal id of a non-root
    node (``tree-beta-key``), or a ``root`` that is not the node without a
    parent (``tree-root``) stops it; the witness is that value, None when
    absent.  An absent ``schema``, ``beta`` or ``root`` is not checked."""
    from .tst import TREE_SCHEMA, SeparationTree

    if typed(obj, dict, "tree-document").get("schema", TREE_SCHEMA) != TREE_SCHEMA:
        raise SystemValidationError("tree-schema", witness=obj["schema"])
    nodes = typed(obj.get("nodes"), list, "tree-nodes")
    n = len(nodes)
    parent, labels = [-1] * n, [-1] * n
    for v, entry in enumerate(nodes):
        i = typed(entry, dict, "tree-node").get("id")
        if type(i) is not int or i != v:  # JSON true is 1 to Python
            raise SystemValidationError("tree-node-id", witness=i)
        for c in typed(entry.get("children"), list, "tree-children"):
            if type(c) is not int or c not in range(n) or parent[c] >= 0:
                raise SystemValidationError("tree-child", witness=c)
            parent[c] = v
    slots = {str(v): v for v in range(n) if parent[v] >= 0}
    for key, h in typed(obj.get("beta", {}), dict, "tree-beta").items():
        if key not in slots:
            raise SystemValidationError("tree-beta-key", witness=key)
        labels[slots[key]] = h
    tree = SeparationTree(system, parent, labels)
    root = obj.get("root", tree.root)
    if type(root) is not int or root != tree.root:
        raise SystemValidationError("tree-root", witness=root)
    return tree


def stree_from_json(system, obj):
    """The ``stree.STree`` of a ``to_json`` document.  A document or
    ``alpha`` that is no object (``stree-document``, ``stree-alpha``), a
    ``schema`` other than STREE_SCHEMA (``stree-schema``), a ``nodes`` count
    that is no integer of at least 0 (``stree-nodes``), or an ``alpha`` key
    that is not "a>b" with a and b decimal ids (``stree-alpha-key``) stops
    it, with that value, None when absent, as the witness; the constructor
    checks the rest.  An absent ``schema`` is not checked."""
    from .stree import STREE_SCHEMA, STree

    if typed(obj, dict, "stree-document").get("schema", STREE_SCHEMA) != STREE_SCHEMA:
        raise SystemValidationError("stree-schema", witness=obj["schema"])
    n = obj.get("nodes")
    if type(n) is not int or n < 0:
        raise SystemValidationError("stree-nodes", witness=n)
    alpha = {}
    for key, h in typed(obj.get("alpha"), dict, "stree-alpha").items():
        ids = isinstance(key, str) and re.fullmatch(r"(0|[1-9][0-9]*)>(0|[1-9][0-9]*)", key)
        if not ids:
            raise SystemValidationError("stree-alpha-key", witness=key)
        alpha[(int(ids[1]), int(ids[2]))] = h
    return STree(system, n, alpha)
