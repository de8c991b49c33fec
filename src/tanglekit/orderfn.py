"""Order functions on separations and the injective submodular refinement.

An order function holds its exact rational values as integers over one
common denominator, and the base-3 perturbation values are exact big
integers, so no order comparison in the package goes through floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .core import SeparationSystem
from .errors import (InputError, NonSubmodularOrder, PreconditionError, SystemValidationError,
                     UnknownHandle)
from .universe import is_submodular

ORDER_SCHEMA = "tanglekit/order-v1"


class OrderFunction:
    """Map from unoriented separations of a ground system to rationals.

    Both orientations of a separation share its value, and either may be the
    key.  The value of handle h is num[h] / den, over one common denominator,
    so one order function serves every restricted view of its ground.
    """

    def __init__(self, system: SeparationSystem, values):
        g = self.system = system.ground
        fracs = [None] * g.n_ground
        for h, v in values.items():
            if not (0 <= h < g.n_ground):
                raise UnknownHandle(h)
            v = Fraction(v)
            for t in (h, g.inv(h)):
                if fracs[t] is None:
                    fracs[t] = v
                elif fracs[t] != v:
                    raise SystemValidationError("order-orientations-disagree", witness=h)
        missing = [s for s in g.seps() if fracs[s] is None]
        if missing:
            raise SystemValidationError("order-function-total", witness=missing[0])
        self.den = math.lcm(*(f.denominator for f in fracs))
        self.num = [f.numerator * (self.den // f.denominator) for f in fracs]

    @classmethod
    def _of_num(cls, system, num, den) -> "OrderFunction":
        """The order function num[h] / den, for a vector already symmetric."""
        order = cls.__new__(cls)
        order.system, order.num, order.den = system.ground, num, den
        return order

    @classmethod
    def constant(cls, system, value=0):
        return cls(system, {s: Fraction(value) for s in system.ground.seps()})

    def of(self, h: int) -> Fraction:
        return Fraction(self.num[h], self.den)

    __call__ = of

    def cut(self, k) -> int:
        """The integer ceil(k * den): num[h] < cut(k) exactly when of(h) < k."""
        k = Fraction(k)
        return -(-k.numerator * self.den // k.denominator)

    def values_on(self, system) -> dict:
        return {s: self.of(s) for s in system.seps()}

    def is_injective_on(self, system) -> bool:
        vals = [self.num[s] for s in system.seps()]
        return len(vals) == len(set(vals))

    def to_json(self) -> dict:
        return {
            "schema": ORDER_SCHEMA,
            "orders": {str(s): f"{v.numerator}/{v.denominator}"
                       for s, v in self.values_on(self.system).items()},
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
        return f"<OrderFunction on {len(self.system.seps())} seps>"


class Enumeration(OrderFunction):
    """A bijection between the unoriented separations and 1..|S|."""

    def __init__(self, system, ranks):
        ranks = {system.ground.sep(s): int(r) for s, r in ranks.items()}
        if sorted(ranks.values()) != list(range(1, len(ranks) + 1)):
            raise SystemValidationError("enumeration-bijective",
                                        witness=sorted(ranks.values()))
        super().__init__(system, ranks)
        self.ranks = ranks


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
    seps = (o1.system if system is None else system).seps()
    v1, v2 = o1.num, o2.num
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
    out = {}
    for s in uni.seps():
        ors = uni.orientations(s)
        out[s] = Fraction(fn(ors[0])) + Fraction(fn(ors[-1]))
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
    distinct = sorted(set(o.num))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    eps = min(gaps) if gaps else o.den  # over o.den, as is every numerator here
    d = 2 * 3 ** len(uni.elements())  # the result is over o.den * d
    out = [0] * uni.n_ground
    for s in uni.seps():
        ors = uni.orientations(s)
        out[ors[0]] = out[ors[-1]] = o.num[s] * d + eps * (gamma3(ors[0]) + gamma3(ors[-1]))
    return OrderFunction._of_num(uni, out, o.den * d)


def enumeration_refinement(uni, o: OrderFunction) -> Enumeration:
    """A structurally submodular enumeration of U refining o.

    Composes the injective refinement with the order isomorphism onto
    1..|U|; structural submodularity survives the composition.
    """
    o2 = refine_injective(uni, o)
    seps = sorted(uni.seps(), key=o2.num.__getitem__)
    return Enumeration(uni, {s: i + 1 for i, s in enumerate(seps)})
