"""Finite separation systems: posets with an order-reversing involution.

Conventions used throughout the package:

* Oriented separations are integer handles ``0..n-1`` of a *ground* system.
  ``inv(h)`` is the inverse orientation; ``inv(h) == h`` marks a degenerate
  separation, which owns a single handle.
* An unoriented separation is identified by its canonical handle
  ``min(h, inv(h))``.
* A system may be a restricted *view* of its ground system.  Views share the
  ground arrays, so a handle means the same separation in every view.  All
  predicates quantify over the view's members only (triviality witnesses,
  closure, orientation domains).
* Inside the library a set of handles is an int mask (bit h for handle h),
  and the predicates take masks.  Frozensets are made only where a set is
  reported (witnesses, tangles, artifacts).  A set enters as a mask at four
  boundaries only: ``restrict``, ``tst.display``, ``ForbiddenFamily``
  membership and ``tot.distinguisher_report``.

Degeneracy vocabulary (all definable from <= and the involution alone):
``s`` is *small* if ``s <= s*``, *large* if ``s* <= s``, *trivial* if both
orientations of some other member separation lie strictly below it (a
degenerate ``r = r*`` below ``s`` is such a witness), *co-trivial* if its
inverse is trivial.  A system is *regular* if it has no small element.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from itertools import accumulate, chain, repeat
from operator import itemgetter, or_

from .errors import SystemValidationError, UnknownHandle

SYSTEM_SCHEMA = "tanglekit/system-v1"


def mask_of(handles: Iterable[int]) -> int:
    m = 0
    for h in handles:
        m |= 1 << h
    return m


def iter_mask(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transpose(rows, width: int) -> list:
    """The ``width`` columns of a bit matrix: bit a of column b is bit b of
    ``rows[a]``.  ``zip`` reads them off the rows' bit strings at C speed."""
    if not rows:
        return [0] * width
    bits = [format(r | 1 << width, "b")[:0:-1] for r in reversed(rows)]
    return [int("".join(col), 2) for col in zip(*bits)]


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


class SeparationSystem:
    """A finite poset of oriented separations with order-reversing involution.

    Build ground systems with :meth:`from_relation` (validates the axioms) or
    :meth:`from_json`; derive subsystems with :meth:`restrict`.

    A ground system takes its down-sets as ``down`` when the caller has them:
    ``down`` must be the transpose of ``up`` (bit b of ``down[a]`` is bit a of
    ``up[b]``), and is not checked.  Without it, they are transposed from
    ``up``.  A view (``ground`` given) shares its ground's and takes none.
    """

    def __init__(self, inv, up, labels, *, members=None, ground=None, down=None):
        self._inv = tuple(inv)
        self._up = tuple(up)
        self.labels = tuple(labels)
        self.n_ground = len(self._inv)
        full = (1 << self.n_ground) - 1
        self.members = full if members is None else members
        # None for a ground system: a reference to itself would be a cycle,
        # freed only by the cycle collector rather than with its last use
        self._ground = ground
        # down[a] = mask of b <= a; incompat[x] = handles y of other separations
        # with y <= x* (the "point away from each other" test).
        if ground is None:
            self._down = tuple(transpose(self._up, self.n_ground) if down is None else down)
            pairs = [(1 << x) | (1 << i) for x, i in enumerate(self._inv)]
            self._incompat = tuple(self._down[i] & ~pair for i, pair in zip(self._inv, pairs))
            # req[x] = handles strictly above x with a different underlying
            # separation: exactly what x forces into a closure.
            self._req = tuple(u & ~pair for u, pair in zip(self._up, pairs))
        else:
            self._down = ground._down
            self._incompat = ground._incompat
            self._req = ground._req

    # -- construction ------------------------------------------------------

    @classmethod
    def from_relation(cls, inv, leq_pairs, labels=None):
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
        system = cls(inv, up, labels)
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

    def restrict(self, handles) -> "SeparationSystem":
        """Subsystem view induced on ``handles`` (closed under the involution)."""
        m = handles if isinstance(handles, int) else mask_of(handles)
        if m & ~self.members:
            raise UnknownHandle(next(iter_mask(m & ~self.members)))
        for h in iter_mask(m):
            if not (m >> self._inv[h]) & 1:
                raise SystemValidationError("involution-closed-members", witness=h)
        return SeparationSystem(self._inv, self._up, self.labels, members=m,
                                ground=self.ground)

    # -- basic structure ---------------------------------------------------

    @property
    def ground(self) -> "SeparationSystem":
        """The system this one is a view of; a ground system is its own."""
        return self if self._ground is None else self._ground

    def inv(self, h: int) -> int:
        return self._inv[h]

    def leq(self, a: int, b: int) -> bool:
        return bool((self._up[a] >> b) & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and (self._up[a] >> b) & 1

    def sep(self, h: int) -> int:
        """Canonical handle of the unoriented separation underlying ``h``."""
        return min(h, self._inv[h])

    def label(self, h: int) -> str:
        return self.labels[h]

    # The members never change, so each system lists them once.
    @cached_property
    def _elements(self):
        return tuple(iter_mask(self.members))

    @cached_property
    def _seps(self):
        return tuple(h for h in self._elements if h <= self._inv[h])

    def elements(self):
        """Member oriented handles, ascending, as a fresh list."""
        return list(self._elements)

    def seps(self):
        """Member unoriented separations as canonical handles, ascending, as a
        fresh list."""
        return list(self._seps)

    def orientations(self, sep: int):
        """The one or two oriented handles of an unoriented separation."""
        i = self._inv[sep]
        return (sep,) if i == sep else (min(sep, i), max(sep, i))

    def contains(self, h: int) -> bool:
        return bool((self.members >> h) & 1)

    def _below(self, mask: int, x: int) -> int:
        """The handles of ``mask`` strictly below x: one AND on x's down-set row."""
        return mask & self._down[x] & ~(1 << x)

    def __len__(self):
        return len(self._seps)

    # -- degeneracy hierarchy ----------------------------------------------

    def is_degenerate(self, h: int) -> bool:
        return self._inv[h] == h

    def is_small(self, h: int) -> bool:
        return self.leq(h, self._inv[h])

    def is_trivial(self, h: int) -> bool:
        """True iff both orientations of some other member separation are < h.

        A degenerate r = r* witnesses as well.  Since r* <= h iff h* <= r, the
        witnesses are the members strictly between h* and h: one mask test.
        """
        i = self._inv[h]
        return bool(self._down[h] & self._up[i] & self.members & ~(1 << h | 1 << i))

    def is_cotrivial(self, h: int) -> bool:
        return self.is_trivial(self._inv[h])

    def trivial_elements(self):
        return [h for h in self.elements() if self.is_trivial(h)]

    # -- predicates on sets of oriented separations -------------------------

    def _star_row(self, x: int) -> int:
        """The handles y that point towards x, so that {x, y} is a star when
        neither is degenerate.  For y != x* the test y* <= x is x* <= y, as
        the involution reverses the order: the up-set of x* without x*.  The
        pair {x, x*} is a star only if x and x* are comparable (one is small).
        """
        i = self._inv[x]
        comparable = (self._up[x] >> i | self._up[i] >> x) & 1
        return self._up[i] & ~(1 << i) | comparable << i

    def is_star_mask(self, mask: int) -> bool:
        """Stars: non-degenerate separations pointing towards each other.

        A row test: ``mask`` holds no degenerate separation, and the rest of
        it lies inside ``_star_row(x)`` for every x of it.  Raises
        UnknownHandle for the least handle that is no member.
        """
        if mask & ~self.members:
            raise UnknownHandle(next(iter_mask(mask & ~self.members)))
        return not any(self.is_degenerate(x) or mask & ~(1 << x) & ~self._star_row(x)
                       for x in iter_mask(mask))

    def is_nested(self, r: int, s: int) -> bool:
        """True iff the separations underlying r and s have comparable orientations."""
        for x in (r, self._inv[r]):
            for y in (s, self._inv[s]):
                if self.leq(x, y) or self.leq(y, x):
                    return True
        return False

    def crossing_pairs(self, handles):
        seps = sorted({self.sep(h) for h in handles})
        out = []
        for i, r in enumerate(seps):
            for s in seps[i + 1:]:
                if not self.is_nested(r, s):
                    out.append((r, s))
        return out

    def consistency_witness(self, mask: int):
        """A pair (x, y) of distinct separations of ``mask`` pointing away from
        each other: the least x, then the least y > x, whose ``incompat`` row
        holds y."""
        for x in iter_mask(mask):
            hit = self._incompat[x] & (mask >> (x + 1) << (x + 1))
            if hit:
                return (x, (hit & -hit).bit_length() - 1)
        return None

    def is_consistent_mask(self, mask: int) -> bool:
        """No two distinct separations of ``mask`` point away from each other:
        no ``incompat`` row of its handles meets it (the rows are symmetric)."""
        return not any(self._incompat[x] & mask for x in iter_mask(mask))

    def closure_mask(self, mask: int) -> int:
        """The member separations ``mask`` requires, plus ``mask``: the
        members s-> with r-> < s-> for some r-> of ``mask``, r != s."""
        out = mask
        for x in iter_mask(mask):
            out |= self._req[x]
        return out & self.members

    # -- orientations --------------------------------------------------------

    def is_orientation_mask(self, mask: int) -> bool:
        """Exactly one orientation of each member separation: only members, as
        many handles as separations, and with their inverses they cover the members."""
        return (not mask & ~self.members and mask.bit_count() == len(self)
                and mask | self._inverses(mask) == self.members)

    @cached_property
    def _flip(self):
        return itemgetter(*self._inv, self.n_ground)

    def _inverses(self, mask: int) -> int:
        """The mask of the inverses of ``mask``'s handles.  ``_flip`` moves index
        inv(h) of its bit string, read low bit first with a sentinel 1 at index
        n, to index h: one C call, as ``transpose`` reads its columns."""
        bits = format(mask | 1 << self.n_ground, "b")[::-1]
        return int("".join(self._flip(bits))[::-1], 2) ^ 1 << self.n_ground

    def consistent_orientations(self):
        """All consistent orientations of the members, as ``orientations_avoiding``."""
        return orientations_avoiding(self, ())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "schema": SYSTEM_SCHEMA,
            "oriented": [
                {"id": i, "inv": self._inv[i], "label": self.labels[i]}
                for i in range(self.n_ground)
            ],
            # row by row, each ascending: the pairs in (a, b) order
            "leq": list(chain.from_iterable(
                zip(repeat(a), iter_mask(up)) for a, up in enumerate(self._up))),
        }
        if self.members != (1 << self.n_ground) - 1:
            obj["members"] = sorted(iter_mask(self.members))
        return obj

    @classmethod
    def from_json(cls, obj) -> "SeparationSystem":
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
        sys = cls.from_relation(inv, leq, labels)
        if "members" not in obj:
            return sys
        members = typed(obj["members"], list, "malformed-members")
        for h in members:
            if not (type(h) is int and 0 <= h < n):
                raise SystemValidationError("malformed-members", witness=h)
        return sys.restrict(mask_of(members))


def _orientations(system, forbidden, seps=None, depths=None):
    """The consistent orientations of the member separations containing no
    mask of ``forbidden``, as masks, generated in the lexicographic order of
    oriented handles.

    Backtracking over separations in canonical-handle order (or ``seps``),
    trying the smaller oriented handle first.  Exhaustive and duplicate-free;
    prunes a partial orientation as soon as it is inconsistent or contains a
    forbidden mask (tested where its last separation is placed; both are
    monotone in the partial set), so an empty mask admits nothing.  With
    ``depths``, it yields the partial orientations of the first d separations
    for each d in it instead, none extended past the largest.  A caller that
    stops early never holds the whole list.
    """
    seps = system.seps() if seps is None else seps
    depths = set(depths or [len(seps)])
    last = max(depths)
    reach = list(accumulate((mask_of(system.orientations(s)) for s in seps), or_, initial=0))
    due = [[] for _ in reach]  # depth -> the forbidden masks it completes
    for m in forbidden:
        if (i := bisect_left(reach, True, key=lambda r: not m & ~r)) < len(reach):
            due[i].append(m)
    incompat = system._incompat
    pushed = [system.orientations(s)[::-1] for s in seps]  # popped smaller first
    stack = [(0, 0)]
    while stack:
        i, cur = stack.pop()
        if any(m & ~cur == 0 for m in due[i]):
            continue
        if i in depths:
            yield cur
        if i == last:
            continue
        for h in pushed[i]:
            if not incompat[h] & cur:
                stack.append((i + 1, cur | 1 << h))


def orientations_avoiding(system, forbidden):
    """The consistent orientations of the member separations containing no
    mask of ``forbidden``, as frozensets in ``_orientations`` order."""
    return [frozenset(iter_mask(m)) for m in _orientations(system, forbidden)]

