"""Order functions on separations and the injective submodular refinement.

Orders are exact rationals throughout; the base-3 perturbation values are
exact big integers, so no threshold comparison anywhere in the package ever
goes through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .core import ENUMERATION_BOUND, SeparationSystem
from .errors import (InputError, NonSubmodularOrder, PreconditionError, SystemValidationError,
                     UnknownHandle)
from .forbidden import enumerate_tangles, order_thresholds
from .universe import handle_values, is_submodular, restrict_Sk

ORDER_SCHEMA = "tanglekit/order-v1"


class OrderFunction:
    """Map from unoriented separations of a ground system to rationals.

    Both orientations of a separation share its value.  Keys are canonical
    handles of the ground system, so one order function serves every
    restricted view of that system.
    """

    def __init__(self, system: SeparationSystem, values):
        self.system = system.ground
        vals = {}
        for sep, v in values.items():
            if not (0 <= sep < self.system.n_ground):
                raise UnknownHandle(sep)
            vals[self.system.sep(sep)] = Fraction(v)
        missing = [s for s in self.system.seps() if s not in vals]
        if missing:
            raise SystemValidationError("order-function-total", witness=missing[0])
        self._values = vals

    @classmethod
    def constant(cls, system, value=0):
        return cls(system, {s: Fraction(value) for s in system.ground.seps()})

    def of(self, h: int) -> Fraction:
        return self._values[self.system.sep(h)]

    __call__ = of

    def values_on(self, system) -> dict:
        return {s: self._values[s] for s in system.seps()}

    def is_injective_on(self, system) -> bool:
        vals = list(self.values_on(system).values())
        return len(vals) == len(set(vals))

    def scaled(self, c) -> "OrderFunction":
        c = Fraction(c)
        return OrderFunction(self.system, {s: c * v for s, v in self._values.items()})

    def to_json(self) -> dict:
        return {
            "schema": ORDER_SCHEMA,
            "orders": {str(s): f"{v.numerator}/{v.denominator}"
                       for s, v in sorted(self._values.items())},
        }

    @classmethod
    def from_json(cls, system, obj) -> "OrderFunction":
        try:
            orders = obj["orders"]
        except (KeyError, TypeError) as exc:
            raise SystemValidationError("schema", witness=str(exc)) from exc
        if not isinstance(orders, dict):
            raise SystemValidationError("malformed-orders", witness=orders)
        values = {}
        for s, v in orders.items():
            try:
                if type(v) not in (int, str):  # a JSON float is binary, a bool no order
                    raise TypeError(f"order value {v!r}: write an integer or a p/q string")
                values[int(s)] = Fraction(v)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise SystemValidationError("malformed-order-entry",
                                            witness=(s, v)) from exc
        return cls(system, values)

    def __repr__(self):
        return f"<OrderFunction on {len(self._values)} seps>"


class Enumeration(OrderFunction):
    """A bijection between the unoriented separations and 1..|S|."""

    def __init__(self, system, ranks):
        ranks = {system.ground.sep(s): int(r) for s, r in ranks.items()}
        if sorted(ranks.values()) != list(range(1, len(ranks) + 1)):
            raise SystemValidationError("enumeration-bijective",
                                        witness=sorted(ranks.values()))
        super().__init__(system, ranks)
        self.ranks = ranks

    def rank(self, h: int) -> int:
        return self.ranks[self.system.sep(h)]


def parse_threshold(text):
    """CLI threshold: an integer, a 'p/q' rational, or 'inf' for everything."""
    if text is None or text in ("inf", "Inf", "INF"):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed threshold {text!r}: expected an integer, "
                         "a p/q rational or inf") from exc


# -- refinement --------------------------------------------------------------


def refines(o2, o1, system=None):
    """o2 refines o1: o1(r) < o1(s) implies o2(r) < o2(s).  Witness pair on failure."""
    sys = o1.system if system is None else system
    seps = sys.seps()
    v1, v2 = handle_values(sys.ground, o1), handle_values(sys.ground, o2)
    for r in seps:
        r1, r2 = v1[r], v2[r]
        for s in seps:
            if r1 < v1[s] and not r2 < v2[s]:
                return False, (r, s)
    return True, None


def indicator(uni, t: int):
    """The 0/1 function on oriented separations: 0 iff the argument is <= t."""

    def fn(h):
        return 0 if uni.leq(h, t) else 1

    return fn


def default_iota(uni) -> dict:
    """Lexicographic-handle bijection from oriented members to 0..|U->|-1."""
    return {h: i for i, h in enumerate(uni.elements())}


def gamma(uni, n: int, iota: dict, s: int) -> int:
    """Sum of n^iota(t) over oriented members t that are not >= s.

    Equivalently the indicator-weighted sum, so the base-n digits of the
    symmetrized value encode which separations point towards s.  ``iota``
    must map the members bijectively onto 0..m-1 (other keys are ignored);
    otherwise SystemValidationError("iota-bijective") names a member.
    """
    return _gamma_fn(uni, n, iota)(s)


def _iota_order(uni, iota) -> list:
    """The members listed by their iota value; raises unless that is a bijection."""
    els = uni.elements()
    order = [None] * len(els)
    for t in els:
        i = iota.get(t)
        if type(i) is not int or not 0 <= i < len(els) or order[i] is not None:
            raise SystemValidationError("iota-bijective", witness=(t, i))
        order[i] = t
    return order


def _gamma_fn(uni, n: int, iota: dict):
    """s -> gamma(uni, n, iota, s), without one ``leq`` call per member.

    The members not >= s are those outside s's up-set.  Written as 0/1
    digits in iota order, highest iota first, that set is the sum as a
    base-n numeral.
    """
    order = _iota_order(uni, iota)
    if not order:
        return lambda s: 0
    digits = itemgetter(*reversed(order))
    members, up, width = uni.members, uni.ground._up, uni.n_ground

    def fn(s):
        bits = format(members & ~up[s] | 1 << width, "b")[:0:-1]  # bits[t]: t not >= s
        return _numeral("".join(digits(bits)), n)

    return fn


def _numeral(digits: str, base: int) -> int:
    """The value of a string of 0/1 digits in ``base``, read exactly.

    int() refuses more than 4300 digits in a base that is not a power of two
    (sys.get_int_max_str_digits, never below 640), so chunks of 640 are read.
    """
    if not 2 <= base <= 36:
        return sum(base ** i for i, d in enumerate(reversed(digits)) if d == "1")
    value = 0
    for i in range(0, len(digits), 640):
        chunk = digits[i:i + 640]
        value = value * base ** len(chunk) + int(chunk, base)
    return value


def symmetrize(uni, fn) -> OrderFunction:
    """The order function s -> u(s->) + u(s<-) induced by a function on U->."""
    val = fn.of if hasattr(fn, "of") else fn
    out = {}
    for s in uni.seps():
        ors = uni.orientations(s)
        out[s] = Fraction(val(ors[0])) + Fraction(val(ors[-1]))
    return OrderFunction(uni, out)


def refine_injective(uni, o: OrderFunction, iota=None) -> OrderFunction:
    """An injective submodular order function refining a submodular one.

    Adds the perturbation delta(s) = (eps/2 / 3^|U->|) * (gamma3(s->) +
    gamma3(s<-)) where eps is the least gap between distinct values of o
    (eps = 1 when o is constant).  Deterministic for a fixed iota; the
    default iota is the lexicographic handle order.  ``uni`` must hold every
    separation of its ground universe, since the result is an order function
    on the whole ground.
    """
    if uni.members != uni.ground.members:
        raise PreconditionError("the injective refinement needs the whole ground "
                                "universe, not a restricted view")
    ok, witness = is_submodular(uni, o)
    if not ok:
        raise NonSubmodularOrder(f"witness pair {witness}")
    gamma3 = _gamma_fn(uni, 3, default_iota(uni) if iota is None else iota)
    vals = o.values_on(uni)
    distinct = sorted(set(vals.values()))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    eps = min(gaps) if gaps else Fraction(1)
    m = len(uni.elements())
    scale = Fraction(eps, 2 * 3 ** m)
    out = {}
    for s in uni.seps():
        ors = uni.orientations(s)
        out[s] = vals[s] + scale * (gamma3(ors[0]) + gamma3(ors[-1]))
    return OrderFunction(uni, out)


def enumeration_refinement(uni, o: OrderFunction, iota=None) -> Enumeration:
    """A structurally submodular enumeration of U refining o.

    Composes the injective refinement with the order isomorphism onto
    1..|U|; structural submodularity survives the composition.
    """
    o2 = refine_injective(uni, o, iota=iota)
    seps = sorted(uni.seps(), key=o2.of)
    return Enumeration(uni, {s: i + 1 for i, s in enumerate(seps)})


def tangles_preserved_under_refinement(system, family, o, o2, bound=ENUMERATION_BOUND):
    """Check that every tangle at any o-threshold is a tangle at some o2-threshold.

    Exhausts thresholds at the distinct order values (plus a sentinel above
    the maximum).  Returns (ok, witness); the witness names the threshold and
    tangle that fail.
    """
    o2_tangles = {}
    for k2 in order_thresholds(system, o2):
        sub2 = restrict_Sk(system, o2, k2)
        o2_tangles[k2] = set(enumerate_tangles(sub2, family, bound=bound))
    for k in order_thresholds(system, o):
        sub = restrict_Sk(system, o, k)
        for tau in enumerate_tangles(sub, family, bound=bound):
            if not any(tau in ts for ts in o2_tangles.values()):
                return False, (k, tau)
    return True, None
