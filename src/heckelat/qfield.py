"""Exact rational-function arithmetic over Q in one formal variable q.

An element of Q(q) is stored as q^v * n/d in Laurent normal form: v is an int,
and n, d are integer polynomials (coefficient tuples in Z[q]) that q divides
neither (n[0] != 0 != d[0]), coprime in Q[q], with no common integer content
and a positive leading coefficient of d; zero is v = 0, n = (), d = (1,). The
form is unique (a canonical form in the sense of Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992), so equality compares (v, n, d).
A constant (v = 0, n of length at most 1, d of length 1) hashes as the int
or Fraction it equals, so `ONE` and `1` are one dict key; every other
element hashes (v, n, d).

Almost every element the program builds is a Laurent polynomial (d = (1,)),
and the operators take fast paths for them: a sum or difference is one pass
over the two numerators shifted to the smaller valuation, which moves only
when the lowest terms cancel; a product with a one-term factor c q^w adds w to
the valuation and scales the other numerator by c; (q^w)^k is q^(kw). Other
Laurent products multiply the numerators. The fourth fast path is
`sum_of_products`, which the series code uses for every coefficient: a sum of
Laurent products is accumulated in one int list spanning all the products,
and one element is built at the end, normalised as a Laurent sum is. None of
these needs a gcd or an exact division; a polynomial gcd (primitive
pseudo-remainder sequence in Z[q]) runs only where a non-constant d appears.
`num` and `den` give the element as one coprime pair in Z[q], q^v moved to the
side it belongs to; that is the pair the printer reads. `Fraction` appears only
at the boundary: `from_fraction`, `eval`, `q_pow` and the hash of a constant.

At a numeric q the global operators do not use RatFunc. `numeric_q` turns an
integral q >= 2 into a `LaurentNumber`, an exact n q^v in Z[1/q] stored with q
not dividing n: sums and products of these are integer arithmetic, with no gcd.
Where a value leaves Z[1/q] (a division by q - 1 or q + 1, a Fraction operand
whose denominator is not a power of q), or q itself is not an integer (3/2),
the value is the `Fraction` it equals. A LaurentNumber prints, hashes and
compares as that Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from operator import add, sub

Coeffs = tuple[int, ...]  # ascending degree, no trailing zeros, () is the zero polynomial


class QFieldError(ArithmeticError):
    pass


def _strip(c: list[int]) -> Coeffs:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    return _strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _strip(out)


def _content(a: Coeffs) -> int:
    g = 0
    for x in a:
        g = _int_gcd(g, abs(x))
    return g


def _primitive(a: Coeffs) -> Coeffs:
    g = _content(a)
    if g <= 1:
        return a
    return tuple(x // g for x in a)


def _qrem(a: Coeffs, b: Coeffs) -> Coeffs:
    # primitive part of the pseudo-remainder of a by b, computed in Z[q]
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b):
        g = _int_gcd(r[-1], lb)
        s, c = lb // g, r[-1] // g
        off = len(r) - len(b)
        r = [x * s for x in r]
        for i, y in enumerate(b):
            r[off + i] -= c * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _primitive(tuple(r))


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _qrem(a, b)
    if not a:
        return ()
    if a[-1] < 0:
        a = _pneg(a)
    return a


def _pdiv_exact(a: Coeffs, b: Coeffs) -> Coeffs:
    # exact quotient in Z[q] (raises if b does not divide a there)
    if b == (1,):
        return a
    r = list(a)
    out: list[int] = []
    lb = b[-1]
    while len(r) >= len(b):
        c, rem = divmod(r[-1], lb)
        if rem:
            raise QFieldError("inexact polynomial division")
        out.append(c)
        off = len(r) - len(b)
        for i, y in enumerate(b):
            r[off + i] -= c * y
        r.pop()
    if any(r):
        raise QFieldError("inexact polynomial division")
    out.reverse()
    return _strip(out)


def _poly_str(a: Coeffs) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}q" + (f"^{k}" if k > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts)


class RatFunc:
    """q^v n/d in Laurent normal form; RatFunc(num, den) brings any pair of integer polynomials to it."""

    __slots__ = ("_v", "_n", "_d")

    def __new__(cls, num: Coeffs, den: Coeffs) -> "RatFunc":
        num, den = _strip(list(num)), _strip(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        k = _valuation(den)
        return _lowest_terms(-k, num, den[k:])

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    # -- the coprime pair in Z[q] ----------------------------------------
    @property
    def num(self) -> Coeffs:
        return (0,) * self._v + self._n if self._v > 0 else self._n

    @property
    def den(self) -> Coeffs:
        return (0,) * -self._v + self._d if self._v < 0 else self._d

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return _rf(0, (n,), (1,)) if n else ZERO

    @staticmethod
    def from_fraction(x: Fraction) -> "RatFunc":
        x = Fraction(x)
        return _rf(0, (x.numerator,), (x.denominator,)) if x else ZERO

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self._n

    def is_one(self) -> bool:
        return self._v == 0 and self._n == (1,) and self._d == (1,)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _rf(self._v, _pneg(self._n), self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        if not n1 or not n2:
            return ZERO
        v = self._v + other._v
        if d1 == (1,) and d2 == (1,):
            return _laurent_product(v, n1, n2)
        # a one-term Laurent factor c q^w only shifts the valuation and scales the other numerator
        if d1 == (1,) and len(n1) == 1:
            return _rf(v, *_normalize(_scale(n2, n1[0]), d2))
        if d2 == (1,) and len(n2) == 1:
            return _rf(v, *_normalize(_scale(n1, n2[0]), d1))
        # cross-reduce against a non-constant denominator before multiplying
        if len(d2) > 1 and len(n1) > 1:
            g = _pgcd(n1, d2)
            n1, d2 = _pdiv_exact(n1, g), _pdiv_exact(d2, g)
        if len(d1) > 1 and len(n2) > 1:
            g = _pgcd(n2, d1)
            n2, d1 = _pdiv_exact(n2, g), _pdiv_exact(d1, g)
        # n1/d1 and n2/d2 are coprime and so are n1/d2 and n2/d1: the product needs no gcd
        return _rf(v, *_normalize(_pmul(n1, n2), _pmul(d1, d2)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        n, d = other._n, other._d
        if n[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return self * _rf(-other._v, d, n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RatFunc":
        if k == 0:
            return ONE
        if self._n == (1,) and self._d == (1,):
            return _rf(k * self._v, (1,), (1,))
        base = self if k > 0 else ONE / self
        k = abs(k)
        out = ONE
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v and self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals, as __eq__ requires
        if self._v or len(self._n) > 1 or len(self._d) > 1:
            return hash((self._v, self._n, self._d))
        return hash(Fraction(self._n[0], self._d[0])) if self._n else 0

    # -- evaluation / substitution ----------------------------------------
    def eval(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        p, b = x.numerator, x.denominator
        num, den = self.num, self.den
        hd = _horner(den, p, b)
        if not hd:
            raise ZeroDivisionError(f"denominator vanishes at q={x}")
        # num(x)/den(x) = hn b^(1-len(num)) / (hd b^(1-len(den)))
        hn, k = _horner(num, p, b), len(den) - len(num)
        return Fraction(hn * b**k, hd) if k >= 0 else Fraction(hn, hd * b**-k)

    def double_exponents(self) -> "RatFunc":
        """Substitute q -> q^2 (used to realize half-integral powers exactly)."""

        def stretch(a: Coeffs) -> Coeffs:
            if not a:
                return ()
            out = [0] * (2 * len(a) - 1)
            for k, c in enumerate(a):
                out[2 * k] = c
            return tuple(out)

        return _rf(2 * self._v, stretch(self._n), stretch(self._d))

    # -- printing -----------------------------------------------------------
    def to_str(self) -> str:
        num, den = self.num, self.den
        if den == (1,):
            return _poly_str(num)
        return f"({_poly_str(num)})/({_poly_str(den)})"

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"RatFunc({self.to_str()})"


_new = object.__new__
_set_v, _set_n, _set_d = RatFunc._v.__set__, RatFunc._n.__set__, RatFunc._d.__set__


def _rf(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """The element q^v n/d of a triple already in Laurent normal form."""
    r = _new(RatFunc)
    _set_v(r, v)
    _set_n(r, n)
    _set_d(r, d)
    return r


def _valuation(a: Coeffs) -> int:
    """The power of q dividing a nonzero polynomial."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _shift(a: Coeffs, k: int) -> Coeffs:
    return (0,) * k + a if k else a


def _scale(a: Coeffs, c: int) -> Coeffs:
    return a if c == 1 else tuple([c * x for x in a])


def _horner(a: Coeffs, p: int, b: int) -> int:
    """b^(len(a)-1) a(p/b) for b > 0, by Horner's rule in Z."""
    acc, bk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * bk
        bk *= b
    return acc


def _sum(a: RatFunc, b: RatFunc, sign: int) -> RatFunc:
    """a + sign * b for sign 1 or -1."""
    n1, n2 = a._n, b._n
    if not n2:
        return a
    if not n1:
        return b if sign == 1 else _rf(b._v, _pneg(n2), b._d)
    v1, v2, d1, d2 = a._v, b._v, a._d, b._d
    if d1 == (1,) and d2 == (1,):
        return _laurent_sum(v1, n1, v2, n2, sign)
    if sign < 0:
        n2 = _pneg(n2)
    v = min(v1, v2)
    if d1 == d2:
        return _lowest_terms(v, _padd(_shift(n1, v1 - v), _shift(n2, v2 - v)), d1)
    n = _padd(_shift(_pmul(n1, d2), v1 - v), _shift(_pmul(n2, d1), v2 - v))
    if len(d1) == 1 or len(d2) == 1:
        # a constant denominator is a unit of Q[q], so n stays coprime to the other one
        return _coprime_terms(v, n, _pmul(d1, d2))
    return _lowest_terms(v, n, _pmul(d1, d2))


def _laurent_sum(v1: int, n1: Coeffs, v2: int, n2: Coeffs, sign: int) -> RatFunc:
    """q^v1 n1 + sign * q^v2 n2 for nonzero n1, n2 not divisible by q, in one pass over the shifted numerators."""
    if v1 <= v2:
        v, out, k, rest, op = v1, list(n1), v2 - v1, n2, add if sign == 1 else sub
    else:
        v, out, k, rest, op = v2, list(n2 if sign == 1 else _pneg(n2)), v1 - v2, n1, add
    end = k + len(rest)
    if end > len(out):
        out.extend([0] * (end - len(out)))
    out[k:end] = map(op, out[k:end], rest)
    return _laurent_terms(v, out)


def _laurent_terms(v: int, out: list[int]) -> RatFunc:
    """q^v times the polynomial with coefficient list out (consumed) in normal form: trailing zeros are
    stripped, and v moves past lowest terms that cancelled."""
    n = _strip(out)
    if not n:
        return ZERO
    if n[0]:
        return _rf(v, n, (1,))
    j = _valuation(n)
    return _rf(v + j, n[j:], (1,))


def sum_of_products(pairs) -> RatFunc:
    """The sum of a * b over the (a, b) pairs of RatFunc, built as one element.

    When every operand is a Laurent polynomial (d = (1,)), each product is added
    into one int coefficient list from the lowest valuation to the highest end
    over all pairs, and one element is built from it at the end. Pairs with a
    zero operand are skipped. Any other operand takes the general route: the
    products and the running sum of the field operations.
    """
    live = [(a, b) for a, b in pairs if a._n and b._n]
    if not live:
        return ZERO
    lo = hi = None
    for a, b in live:
        if a._d != (1,) or b._d != (1,):
            total = ZERO
            for a, b in live:
                total = _sum(total, a * b, 1)
            return total
        v = a._v + b._v
        end = v + len(a._n) + len(b._n) - 1
        if lo is None:
            lo, hi = v, end
        elif v < lo:
            lo = v
        if end > hi:
            hi = end
    if len(live) == 1:
        return _laurent_product(lo, a._n, b._n)
    acc = [0] * (hi - lo)
    for a, b in live:
        n2 = b._n
        for i, x in enumerate(a._n, a._v + b._v - lo):
            for j, y in enumerate(n2, i):
                acc[j] += x * y
    return _laurent_terms(lo, acc)


def _laurent_product(v: int, n1: Coeffs, n2: Coeffs) -> RatFunc:
    """q^v n1 n2 for nonzero n1, n2 not divisible by q: a one-term factor only scales the other numerator."""
    if len(n1) == 1:
        return _rf(v, _scale(n2, n1[0]), (1,))
    if len(n2) == 1:
        return _rf(v, _scale(n1, n2[0]), (1,))
    return _rf(v, _pmul(n1, n2), (1,))


def _coprime_terms(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """q^v n/d in normal form, for d[0] != 0 and n coprime to d in Q[q] (n may be zero or divisible by q)."""
    if not n:
        return ZERO
    k = _valuation(n)
    return _rf(v + k, *_normalize(n[k:] if k else n, d))


def _lowest_terms(v: int, n: Coeffs, d: Coeffs) -> RatFunc:
    """q^v n/d in normal form, for d[0] != 0; the gcd runs only when n and d are not constants."""
    if len(d) > 1 and len(n) > 1:
        g = _pgcd(n, d)
        n, d = _pdiv_exact(n, g), _pdiv_exact(d, g)
    return _coprime_terms(v, n, d)


def _normalize(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Content and sign of num/den when num and den are already coprime in Q[q]."""
    if den == (1,):
        return num, den
    c = _int_gcd(_content(num), _content(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return num, den


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return NotImplemented


ZERO = _rf(0, (), (1,))
ONE = _rf(0, (1,), (1,))
Q = _rf(1, (1,), (1,))  # the variable q


def q_pow(k) -> RatFunc:
    """q^k for integral k (Fraction input must be integral)."""
    if isinstance(k, Fraction):
        if k.denominator != 1:
            raise QFieldError(f"q^{k} is not a rational function of q (half-integral power)")
        k = int(k)
    return _rf(k, (1,), (1,))


def as_ratfunc(x) -> RatFunc:
    r = _coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a rational function")
    return r


# ---------------------------------------------------------------------------
# numbers n q^v at an integral q


class LaurentNumber:
    """n q^v at an integral q >= 2, with q not dividing n and zero as n = v = 0: an element of Z[1/q].

    The form is unique, so equality compares (n, v). A sum or product with another one at the same q, an int
    or a Fraction over a power of q stays in the class, as integer arithmetic with no gcd; so does a quotient
    by a divisor of n (a unit times q^k, say) and a power with an exponent >= 0 or a unit n. Any other
    operation is done on the Fraction the number equals, which it also prints, hashes and compares as.
    `numeric_q` builds q.
    """

    __slots__ = ("q", "n", "v")

    def __init__(self, q: int, n: int, v: int):  # a triple already in canonical form; no operation changes it
        self.q, self.n, self.v = q, n, v

    def _fraction(self) -> Fraction:
        return Fraction(self.n * self.q**self.v) if self.v >= 0 else Fraction(self.n, self.q**-self.v)

    def __add__(self, other):
        b = _lift(self.q, other)
        return self._fraction() + other if b is None else _laurent_number_sum(self.q, self.n, self.v, b.n, b.v)

    __radd__ = __add__

    def __sub__(self, other):
        b = _lift(self.q, other)
        return self._fraction() - other if b is None else _laurent_number_sum(self.q, self.n, self.v, -b.n, b.v)

    def __rsub__(self, other):
        b = _lift(self.q, other)
        return other - self._fraction() if b is None else _laurent_number_sum(self.q, b.n, b.v, -self.n, self.v)

    def __neg__(self):
        return LaurentNumber(self.q, -self.n, self.v)

    def __mul__(self, other):
        b = _lift(self.q, other)
        return self._fraction() * other if b is None else _canonical(self.q, self.n * b.n, self.v + b.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _lift(self.q, other)
        if b is None or not b.n or self.n % b.n:
            return self._fraction() / other
        return _canonical(self.q, self.n // b.n, self.v - b.v)

    def __rtruediv__(self, other):
        b = _lift(self.q, other)
        if b is None or not self.n or b.n % self.n:
            return other / self._fraction()
        return _canonical(self.q, b.n // self.n, b.v - self.v)

    def __pow__(self, k):
        if type(k) is not int or k < 0 and self.n not in (1, -1):
            return self._fraction() ** k
        return _canonical(self.q, self.n ** abs(k), self.v * k)

    def __bool__(self):
        return self.n != 0

    def __eq__(self, other):
        b = _lift(self.q, other)
        return self._fraction() == other if b is None else self.n == b.n and self.v == b.v

    def __hash__(self):
        return hash(self._fraction())

    def __str__(self):
        return str(self._fraction())

    def __repr__(self):
        return f"LaurentNumber({self.n}*{self.q}^{self.v})"


def _canonical(q: int, n: int, v: int) -> LaurentNumber:
    """n q^v in canonical form: the powers of q dividing n move into v (at q = 4, 2 * 2 is q^1)."""
    if not n:
        return LaurentNumber(q, 0, 0)
    while not n % q:
        n //= q
        v += 1
    return LaurentNumber(q, n, v)


def _lift(q: int, x):
    """x as a LaurentNumber at q, for one at q, an int or a Fraction whose denominator is a power q^k (3/4 at
    q = 2 is 3 q^-2; 1/2 at q = 4 is not lifted); None for anything else."""
    if type(x) is LaurentNumber:
        return x if x.q == q else None
    if isinstance(x, int):
        return _canonical(q, int(x), 0)
    if isinstance(x, Fraction):
        d, v = x.denominator, 0
        while not d % q:
            d //= q
            v -= 1
        if d == 1:
            return _canonical(q, x.numerator, v)
    return None


def _laurent_number_sum(q: int, n1: int, v1: int, n2: int, v2: int) -> LaurentNumber:
    """n1 q^v1 + n2 q^v2 for canonical terms: at unequal valuations q divides only the shifted term, so only
    a sum at one valuation is brought to canonical form again (at q = 2, odd + odd is even)."""
    if not n2:
        return LaurentNumber(q, n1, v1)
    if not n1:
        return LaurentNumber(q, n2, v2)
    if v1 > v2:
        n1, v1, n2, v2 = n2, v2, n1, v1
    if v1 == v2:
        return _canonical(q, n1 + n2, v1)
    return LaurentNumber(q, n1 + n2 * q ** (v2 - v1), v1)


def numeric_q(qv):
    """qv as the global operators compute with it: an integral q >= 2, int or Fraction, as the LaurentNumber q;
    anything else (Q, 3/2, a LaurentNumber) unchanged."""
    if type(qv) in (int, Fraction) and qv.denominator == 1 and qv.numerator >= 2:
        return LaurentNumber(qv.numerator, 1, 1)
    return qv
