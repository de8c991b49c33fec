"""Order functions on separations and the injective submodular refinement.

An order function holds its exact rational values as integers over one
common denominator, and the base-3 perturbation values are exact big
integers, so no order comparison in the package goes through floating point.
``fractions`` (and ``decimal`` with it) is imported only where a rational is
made: an order read from given values, ``of``, and a p/q threshold.  A graph
order and an integer threshold never load it.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .core import SeparationSystem
from .errors import InputError, NonSubmodularOrder, SystemValidationError, UnknownHandle
from .universe import is_submodular

ORDER_SCHEMA = "tanglekit/order-v1"


class OrderFunction:
    """Map from unoriented separations of a ground system to rationals.

    Both orientations of a separation share its value, and either may be the
    key.  The value of handle h is num[h] / den, over one common denominator,
    so one order function serves every restricted view of its ground.
    """

    def __init__(self, system: SeparationSystem, values):
        from fractions import Fraction

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

    def of(self, h: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num[h], self.den)

    def cut(self, k) -> int:
        """The integer ceil(k * den), for an int or Fraction ``k``: num[h] <
        cut(k) exactly when of(h) < k."""
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


def parse_threshold(text):
    """CLI threshold: an integer, a 'p/q' rational, or 'inf' for everything.

    A threshold is what ``Fraction(text)`` reads, and a run of ASCII digits
    after an optional sign is read as the equal int, without ``fractions``.
    """
    if text is None or text in ("inf", "Inf", "INF"):
        return None
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed threshold {text!r}: expected an integer, "
                         "a p/q rational or inf") from exc


# -- refinement --------------------------------------------------------------


def refines(o2, o1, system):
    """o2 refines o1 on ``system``: o1(r) < o1(s) implies o2(r) < o2(s).
    Witness pair on failure."""
    seps = system.seps()
    v1, v2 = o1.num, o2.num
    for r in seps:
        r1, r2 = v1[r], v2[r]
        for s in seps:
            if r1 < v1[s] and not r2 < v2[s]:
                return False, (r, s)
    return True, None


def _gamma_fn(uni):
    """s -> the sum of 3^i over the i-th members t, in handle order, that are
    not >= s, without one ``leq`` call per member.

    The members not >= s are those outside s's up-set.  Written as 0/1
    digits, the highest member first, that set is the sum as a base-3
    numeral.
    """
    els = uni.elements()
    if not els:
        return lambda s: 0
    digits = itemgetter(*reversed(els))
    members, up, width = uni.members, uni.ground._up, uni.n_ground

    def fn(s):
        bits = format(members & ~up[s] | 1 << width, "b")[:0:-1]  # bits[t]: t not >= s
        return _numeral("".join(digits(bits)))

    return fn


def _numeral(digits: str) -> int:
    """The value of a string of 0/1 digits in base 3, read exactly.

    int() refuses more than 4300 digits in a base that is not a power of two
    (sys.get_int_max_str_digits, never below 640), so chunks of 640 are read.
    """
    value = 0
    for i in range(0, len(digits), 640):
        chunk = digits[i:i + 640]
        value = value * 3 ** len(chunk) + int(chunk, 3)
    return value


def refine_injective(o: OrderFunction) -> OrderFunction:
    """An injective submodular order function refining a submodular one, on
    the ground universe ``o`` is defined on.

    Adds the perturbation delta(s) = (eps/2 / 3^|U->|) * (gamma3(s->) +
    gamma3(s<-)) where eps is the least gap between distinct values of o
    (eps = 1 when o is constant), and gamma3(s) sums 3^i over the i-th
    members of U, in handle order, that are not >= s.
    """
    uni = o.system
    ok, witness = is_submodular(uni, o)
    if not ok:
        raise NonSubmodularOrder(f"witness pair {witness}")
    gamma3 = _gamma_fn(uni)
    distinct = sorted(set(o.num))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    eps = min(gaps) if gaps else o.den  # over o.den, as is every numerator here
    d = 2 * 3 ** len(uni.elements())  # the result is over o.den * d
    out = [0] * uni.n_ground
    for s in uni.seps():
        ors = uni.orientations(s)
        out[ors[0]] = out[ors[-1]] = o.num[s] * d + eps * (gamma3(ors[0]) + gamma3(ors[-1]))
    return OrderFunction._of_num(uni, out, o.den * d)
